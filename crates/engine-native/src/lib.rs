//! The "compiled C" strategy (§5): fused execution over flat row stores.
//!
//! When the source data lives in fixed-length arrays of value-type structs,
//! the paper hands the whole query to generated native C code: rows are
//! consecutive in memory, field access is an offset into the current row,
//! strings are flat byte ranges, and deferred execution is driven through a
//! context struct whose `EvaluateQuery` function is called once per result
//! element.
//!
//! This crate provides that representation ([`RowStore`]: a packed row-major
//! byte buffer with a string arena) plus the deferred-execution wrapper
//! ([`QueryContext`]). The fused algorithm itself is the shared compiled
//! template of [`mrq_codegen::exec`], instantiated here over flat buffers —
//! mirroring how the generated C of the paper shares its structure with the
//! generated C# but reads a row store instead of chasing object references.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mrq_codegen::exec::{execute_once, QueryOutput, TableAccess};
use mrq_codegen::spec::QuerySpec;
use mrq_common::trace::{AccessKind, MemTracer};
use mrq_common::{DataType, Date, Decimal, MrqError, Result, Schema, Value};
use std::cell::RefCell;

pub mod index;
pub mod parallel;

pub use index::HashIndex;
pub use parallel::{execute_parallel, ParallelConfig};

/// Per-column layout inside a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnLayout {
    /// Byte offset within the row.
    pub offset: usize,
    /// The column's type.
    pub dtype: DataType,
}

/// A packed, row-major table: the `array of structs` of §5.
///
/// Every row occupies `stride` bytes; fixed-width values are stored at their
/// column offsets; string columns store a 4-byte offset into a shared string
/// arena whose entries are length-prefixed UTF-8.
#[derive(Debug, Clone)]
pub struct RowStore {
    schema: Schema,
    columns: Vec<ColumnLayout>,
    stride: usize,
    data: Vec<u8>,
    strings: Vec<u8>,
    len: usize,
    /// Simulated base address used for cache tracing (row stores are
    /// contiguous, so sequential scans touch consecutive lines).
    base_addr: u64,
}

/// Computes a packed layout for a schema: 8-byte-aligned fields first is not
/// necessary because every width is 1, 4 or 8 and we lay fields out in
/// declaration order with natural alignment padding (what a C compiler does
/// for the generated struct definitions).
fn layout(schema: &Schema) -> (Vec<ColumnLayout>, usize) {
    let mut columns = Vec::with_capacity(schema.len());
    let mut offset = 0usize;
    for field in schema.fields() {
        let width = field.dtype.native_width();
        let align = field.dtype.native_align();
        offset = offset.div_ceil(align) * align;
        columns.push(ColumnLayout {
            offset,
            dtype: field.dtype,
        });
        offset += width;
    }
    let stride = offset.div_ceil(8) * 8;
    (columns, stride.max(8))
}

impl RowStore {
    /// Creates an empty row store for a schema.
    pub fn new(schema: Schema) -> Self {
        let (columns, stride) = layout(&schema);
        RowStore {
            schema,
            columns,
            stride,
            data: Vec::new(),
            strings: Vec::new(),
            len: 0,
            base_addr: 0x4000_0000_0000,
        }
    }

    /// Creates a row store and loads the given value rows.
    pub fn from_rows(schema: Schema, rows: &[Vec<Value>]) -> Self {
        let mut store = RowStore::new(schema);
        store.data.reserve(rows.len() * store.stride);
        for row in rows {
            store.push_values(row);
        }
        store
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Bytes per row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total payload bytes (rows plus string arena) — the staging footprint
    /// the paper reports for full materialisation.
    pub fn payload_bytes(&self) -> usize {
        self.data.len() + self.strings.len()
    }

    /// Appends one row given as dynamic values in schema order.
    pub fn push_values(&mut self, values: &[Value]) {
        assert_eq!(values.len(), self.schema.len(), "row arity mismatch");
        let start = self.len * self.stride;
        self.data.resize(start + self.stride, 0);
        for (col, value) in values.iter().enumerate() {
            let lay = self.columns[col];
            let at = start + lay.offset;
            match (lay.dtype, value) {
                (DataType::Bool, v) => self.data[at] = v.as_bool() as u8,
                (DataType::Int32, v) => self.data[at..at + 4]
                    .copy_from_slice(&(v.as_i64().unwrap_or(0) as i32).to_le_bytes()),
                (DataType::Date, v) => self.data[at..at + 4].copy_from_slice(
                    &v.as_date()
                        .map(|d| d.epoch_days())
                        .unwrap_or(0)
                        .to_le_bytes(),
                ),
                (DataType::Int64, v) => {
                    self.data[at..at + 8].copy_from_slice(&v.as_i64().unwrap_or(0).to_le_bytes())
                }
                (DataType::Decimal, v) => self.data[at..at + 8]
                    .copy_from_slice(&v.as_decimal().unwrap_or(Decimal::ZERO).raw().to_le_bytes()),
                (DataType::Float64, v) => {
                    self.data[at..at + 8].copy_from_slice(&v.as_f64().unwrap_or(0.0).to_le_bytes())
                }
                (DataType::Str, v) => {
                    let s = v.as_str().unwrap_or("");
                    let arena_offset = self.intern_string(s);
                    self.data[at..at + 4].copy_from_slice(&arena_offset.to_le_bytes());
                }
            }
        }
        self.len += 1;
    }

    /// Appends every row of `other`, a store of the same schema, after this
    /// store's rows. Fixed-width fields are copied as they are; string
    /// fields are re-pointed past this store's arena, so the result equals
    /// pushing `other`'s rows one by one.
    pub fn append(&mut self, mut other: RowStore) {
        assert_eq!(self.columns, other.columns, "row layout mismatch");
        // Every shifted offset is below the combined arena length.
        u32::try_from(self.strings.len() + other.strings.len())
            .expect("string arena offsets fit in u32");
        let shift = self.strings.len() as u32;
        if shift > 0 {
            for lay in self.columns.iter().filter(|c| c.dtype == DataType::Str) {
                for row in other.data.chunks_exact_mut(self.stride) {
                    let field = &mut row[lay.offset..lay.offset + 4];
                    let offset = u32::from_le_bytes((&*field).try_into().expect("4-byte field"));
                    field.copy_from_slice(&(offset + shift).to_le_bytes());
                }
            }
        }
        self.data.extend_from_slice(&other.data);
        self.strings.extend_from_slice(&other.strings);
        self.len += other.len;
    }

    fn intern_string(&mut self, s: &str) -> u32 {
        let offset = self.strings.len() as u32;
        let bytes = s.as_bytes();
        self.strings
            .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        self.strings.extend_from_slice(bytes);
        offset
    }

    #[inline]
    fn field_ptr(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.len);
        row * self.stride + self.columns[col].offset
    }

    /// Simulated byte address of a field (for cache tracing).
    pub fn field_address(&self, row: usize, col: usize) -> u64 {
        self.base_addr + self.field_ptr(row, col) as u64
    }

    /// Wraps the store with a memory tracer for the Figure 14 cache study.
    pub fn traced<'a>(&'a self, tracer: &'a mut dyn MemTracer) -> TracedRowStore<'a> {
        TracedRowStore {
            store: self,
            tracer: RefCell::new(tracer),
        }
    }
}

impl TableAccess for RowStore {
    fn len(&self) -> usize {
        self.len
    }
    #[inline]
    fn get_bool(&self, row: usize, col: usize) -> bool {
        self.data[self.field_ptr(row, col)] != 0
    }
    #[inline]
    fn get_i32(&self, row: usize, col: usize) -> i32 {
        let at = self.field_ptr(row, col);
        i32::from_le_bytes(self.data[at..at + 4].try_into().unwrap())
    }
    #[inline]
    fn get_i64(&self, row: usize, col: usize) -> i64 {
        let at = self.field_ptr(row, col);
        i64::from_le_bytes(self.data[at..at + 8].try_into().unwrap())
    }
    #[inline]
    fn get_f64(&self, row: usize, col: usize) -> f64 {
        let at = self.field_ptr(row, col);
        f64::from_le_bytes(self.data[at..at + 8].try_into().unwrap())
    }
    #[inline]
    fn get_decimal(&self, row: usize, col: usize) -> Decimal {
        Decimal::from_raw(self.get_i64(row, col))
    }
    #[inline]
    fn get_date(&self, row: usize, col: usize) -> Date {
        Date::from_epoch_days(self.get_i32(row, col))
    }
    #[inline]
    fn get_str(&self, row: usize, col: usize) -> &str {
        let at = self.field_ptr(row, col);
        let arena_offset = u32::from_le_bytes(self.data[at..at + 4].try_into().unwrap()) as usize;
        let len = u32::from_le_bytes(
            self.strings[arena_offset..arena_offset + 4]
                .try_into()
                .unwrap(),
        ) as usize;
        std::str::from_utf8(&self.strings[arena_offset + 4..arena_offset + 4 + len])
            .expect("row-store strings are valid UTF-8")
    }
    fn get_value(&self, row: usize, col: usize) -> Value {
        match self.columns[col].dtype {
            DataType::Bool => Value::Bool(self.get_bool(row, col)),
            DataType::Int32 => Value::Int32(self.get_i32(row, col)),
            DataType::Int64 => Value::Int64(self.get_i64(row, col)),
            DataType::Decimal => Value::Decimal(self.get_decimal(row, col)),
            DataType::Float64 => Value::Float64(self.get_f64(row, col)),
            DataType::Date => Value::Date(self.get_date(row, col)),
            DataType::Str => Value::str(self.get_str(row, col)),
        }
    }
}

/// A [`RowStore`] wrapper that reports every access to a tracer.
pub struct TracedRowStore<'a> {
    store: &'a RowStore,
    tracer: RefCell<&'a mut dyn MemTracer>,
}

impl TracedRowStore<'_> {
    #[inline]
    fn trace(&self, row: usize, col: usize, len: u32) {
        self.tracer.borrow_mut().access(
            AccessKind::NativeRead,
            self.store.field_address(row, col),
            len,
        );
    }
}

impl TableAccess for TracedRowStore<'_> {
    fn len(&self) -> usize {
        self.store.len()
    }
    fn get_bool(&self, row: usize, col: usize) -> bool {
        self.trace(row, col, 1);
        self.store.get_bool(row, col)
    }
    fn get_i32(&self, row: usize, col: usize) -> i32 {
        self.trace(row, col, 4);
        self.store.get_i32(row, col)
    }
    fn get_i64(&self, row: usize, col: usize) -> i64 {
        self.trace(row, col, 8);
        self.store.get_i64(row, col)
    }
    fn get_f64(&self, row: usize, col: usize) -> f64 {
        self.trace(row, col, 8);
        self.store.get_f64(row, col)
    }
    fn get_decimal(&self, row: usize, col: usize) -> Decimal {
        self.trace(row, col, 8);
        self.store.get_decimal(row, col)
    }
    fn get_date(&self, row: usize, col: usize) -> Date {
        self.trace(row, col, 4);
        self.store.get_date(row, col)
    }
    fn get_str(&self, row: usize, col: usize) -> &str {
        self.trace(row, col, 4);
        self.store.get_str(row, col)
    }
    fn get_value(&self, row: usize, col: usize) -> Value {
        self.trace(row, col, 8);
        self.store.get_value(row, col)
    }
}

/// Executes a fused query spec over row stores. `tables[0]` is the probe
/// side; subsequent tables follow `spec.joins` order.
pub fn execute(spec: &QuerySpec, params: &[Value], tables: &[&RowStore]) -> Result<QueryOutput> {
    mrq_common::fault::point("engine.native.probe")?;
    if tables.len() != spec.joins.len() + 1 {
        return Err(MrqError::Internal(format!(
            "expected {} tables, got {}",
            spec.joins.len() + 1,
            tables.len()
        )));
    }
    let schemas: Vec<Schema> = tables.iter().map(|t| t.schema().clone()).collect();
    execute_once(spec, params, tables, &schemas)
}

/// The deferred-execution context of §5.1.
///
/// The paper's generated C exposes `EvaluateQuery(Context*)`, called once per
/// result element so only the consumed part of a query is paid for and state
/// survives across the managed/native boundary. [`QueryContext`] mirrors
/// that: construction performs no work; the first [`QueryContext::next`] call
/// runs the blocking part of the query; each subsequent call returns one
/// result row and counts one boundary crossing.
pub struct QueryContext {
    output: Option<QueryOutput>,
    cursor: usize,
    boundary_calls: u64,
    pending: Box<dyn FnOnce() -> Result<QueryOutput>>,
}

impl QueryContext {
    /// Creates a context whose work runs lazily on first use.
    pub fn new(run: impl FnOnce() -> Result<QueryOutput> + 'static) -> Self {
        QueryContext {
            output: None,
            cursor: 0,
            boundary_calls: 0,
            pending: Box::new(run),
        }
    }

    /// Returns the next result row, running the query on first call.
    /// (Deliberately named after the paper's per-result `EvaluateQuery`
    /// cursor call rather than implementing `Iterator`, which cannot
    /// return `Result`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Vec<Value>>> {
        self.boundary_calls += 1;
        if self.output.is_none() {
            let run = std::mem::replace(&mut self.pending, Box::new(|| unreachable!()));
            self.output = Some(run()?);
        }
        let out = self.output.as_ref().expect("initialised above");
        if self.cursor < out.rows.len() {
            let row = out.rows[self.cursor].clone();
            self.cursor += 1;
            Ok(Some(row))
        } else {
            Ok(None)
        }
    }

    /// Number of managed→native boundary crossings so far (the per-result
    /// call cost discussed in §7.2).
    pub fn boundary_calls(&self) -> u64 {
        self.boundary_calls
    }

    /// The result schema (available after the first `next`).
    pub fn schema(&self) -> Option<&Schema> {
        self.output.as_ref().map(|o| &o.schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrq_codegen::spec::lower;
    use mrq_expr::{canonicalize, col, lam, lit, BinaryOp, Expr, Query, SourceId};
    use std::collections::HashMap;

    fn schema() -> Schema {
        Schema::new(
            "Sale",
            vec![
                mrq_common::Field::new("id", DataType::Int64),
                mrq_common::Field::new("city", DataType::Str),
                mrq_common::Field::new("price", DataType::Decimal),
                mrq_common::Field::new("day", DataType::Date),
                mrq_common::Field::new("flag", DataType::Bool),
                mrq_common::Field::new("size", DataType::Int32),
            ],
        )
    }

    fn store() -> RowStore {
        let rows = vec![
            vec![
                Value::Int64(1),
                Value::str("London"),
                Value::Decimal(Decimal::from_int(10)),
                Value::Date(Date::from_ymd(1995, 1, 1)),
                Value::Bool(true),
                Value::Int32(-3),
            ],
            vec![
                Value::Int64(2),
                Value::str("Paris"),
                Value::Decimal(Decimal::from_int(20)),
                Value::Date(Date::from_ymd(1996, 6, 15)),
                Value::Bool(false),
                Value::Int32(7),
            ],
            vec![
                Value::Int64(3),
                Value::str("London"),
                Value::Decimal(Decimal::from_int(30)),
                Value::Date(Date::from_ymd(1997, 12, 31)),
                Value::Bool(true),
                Value::Int32(50),
            ],
        ];
        RowStore::from_rows(schema(), &rows)
    }

    #[test]
    fn layout_is_packed_with_natural_alignment() {
        let s = store();
        // i64(8) + str(4) + pad(4)? — layout is declaration order with
        // natural alignment: id@0, city@8, price@16 (aligned up), day@24,
        // flag@28, size@32 → stride 40.
        assert_eq!(s.stride(), 40);
        assert!(s.payload_bytes() >= 3 * 40);
    }

    #[test]
    fn typed_round_trip_through_the_flat_representation() {
        let s = store();
        assert_eq!(s.len(), 3);
        assert_eq!(s.get_i64(0, 0), 1);
        assert_eq!(s.get_str(1, 1), "Paris");
        assert_eq!(s.get_decimal(2, 2), Decimal::from_int(30));
        assert_eq!(s.get_date(1, 3), Date::from_ymd(1996, 6, 15));
        assert!(!s.get_bool(1, 4));
        assert_eq!(s.get_i32(0, 5), -3);
        assert_eq!(s.get_value(2, 1), Value::str("London"));
    }

    #[test]
    fn append_re_points_strings_and_sums_payload() {
        let first = store();
        let mut second = RowStore::new(schema());
        second.push_values(&[
            Value::Int64(4),
            Value::str("Berlin"),
            Value::Decimal(Decimal::from_int(40)),
            Value::Date(Date::from_ymd(1998, 2, 2)),
            Value::Bool(false),
            Value::Int32(9),
        ]);
        let mut joined = first.clone();
        joined.append(second.clone());
        assert_eq!(joined.len(), 4);
        assert_eq!(
            joined.payload_bytes(),
            first.payload_bytes() + second.payload_bytes()
        );
        for (row, city) in ["London", "Paris", "London", "Berlin"].iter().enumerate() {
            assert_eq!(joined.get_str(row, 1), *city);
        }
        assert_eq!(joined.get_i64(3, 0), 4);
        assert_eq!(joined.get_decimal(3, 2), Decimal::from_int(40));
        assert_eq!(joined.get_date(3, 3), Date::from_ymd(1998, 2, 2));
        assert!(!joined.get_bool(3, 4));
        assert_eq!(joined.get_i32(3, 5), 9);
        assert_eq!(joined.get_i32(0, 5), -3);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_is_rejected() {
        let mut s = RowStore::new(schema());
        s.push_values(&[Value::Int64(1)]);
    }

    #[test]
    fn fused_execution_over_the_row_store() {
        let mut catalog = HashMap::new();
        catalog.insert(SourceId(0), schema());
        let canon = canonicalize(
            Query::from_source(SourceId(0))
                .where_(lam(
                    "s",
                    Expr::binary(BinaryOp::Eq, col("s", "city"), lit("London")),
                ))
                .select(lam("s", col("s", "price")))
                .into_expr(),
        );
        let spec = lower(&canon, &catalog).unwrap();
        let s = store();
        let out = execute(&spec, &canon.params, &[&s]).unwrap();
        assert_eq!(
            out.rows,
            vec![
                vec![Value::Decimal(Decimal::from_int(10))],
                vec![Value::Decimal(Decimal::from_int(30))]
            ]
        );
    }

    #[test]
    fn traced_store_reports_native_reads() {
        use mrq_common::trace::CountingTracer;
        let s = store();
        let mut tracer = CountingTracer::default();
        {
            let traced = s.traced(&mut tracer);
            let mut total = Decimal::ZERO;
            for row in 0..traced.len() {
                total += traced.get_decimal(row, 2);
            }
            assert_eq!(total, Decimal::from_int(60));
        }
        assert_eq!(tracer.events_of(AccessKind::NativeRead), 3);
    }

    #[test]
    fn query_context_defers_execution_and_counts_boundary_calls() {
        let mut catalog = HashMap::new();
        catalog.insert(SourceId(0), schema());
        let canon = canonicalize(
            Query::from_source(SourceId(0))
                .select(lam("s", col("s", "id")))
                .into_expr(),
        );
        let spec = lower(&canon, &catalog).unwrap();
        let s = store();
        let mut ctx = QueryContext::new(move || {
            let spec = spec;
            let canon = canon;
            execute(&spec, &canon.params, &[&s])
        });
        assert_eq!(ctx.boundary_calls(), 0);
        let mut ids = Vec::new();
        while let Some(row) = ctx.next().unwrap() {
            ids.push(row[0].clone());
        }
        assert_eq!(ids, vec![Value::Int64(1), Value::Int64(2), Value::Int64(3)]);
        // One call per result element plus the final empty call.
        assert_eq!(ctx.boundary_calls(), 4);
    }

    #[test]
    fn empty_store_executes_cleanly() {
        let mut catalog = HashMap::new();
        catalog.insert(SourceId(0), schema());
        let canon = canonicalize(Query::from_source(SourceId(0)).count().into_expr());
        let spec = lower(&canon, &catalog).unwrap();
        let s = RowStore::new(schema());
        let out = execute(&spec, &canon.params, &[&s]).unwrap();
        assert!(out.rows.is_empty() || out.rows[0][0] == Value::Int64(0));
    }
}
