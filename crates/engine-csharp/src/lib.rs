//! The "compiled C#" strategy (§4): fused query execution over managed heap
//! objects.
//!
//! The paper's first code-generation strategy keeps the data exactly where it
//! is — reference-type objects in the managed heap — but replaces the
//! LINQ-to-objects enumerable pipeline with a single generated method: one
//! tight loop per pipeline segment, predicates and selectors inlined,
//! generics and virtual calls gone, all aggregates of a group computed in one
//! pass.
//!
//! Here that generated method is the shared compiled-query template
//! ([`mrq_codegen::exec::ExecState`]) instantiated over [`HeapTable`]: data
//! access goes through the managed heap's handle indirection (and chases
//! string objects), which is what separates this strategy from the native
//! one, but control flow is fused exactly like the generated C# of the paper.

#![warn(missing_docs)]

use mrq_codegen::exec::{consume_partitioned, execute_once, ExecState, QueryOutput, TableAccess};
use mrq_codegen::spec::QuerySpec;
use mrq_common::trace::{AccessKind, MemTracer};
use mrq_common::{Date, Decimal, MrqError, ParallelConfig, Result, Schema, Value};
use mrq_mheap::{GcRef, Heap, ListId};
use std::cell::RefCell;

/// Row-indexed access to a managed list of objects.
///
/// Column indexes equal field indexes of the list's element class (the TPC-H
/// loader creates classes straight from the relational schemas, so this is
/// one-to-one).
///
/// `HeapTable` is a read-only view over the (externally synchronised) heap,
/// so shared references are `Sync` and the morsel workers of
/// [`execute_parallel`] can scan one table concurrently. Cache-study tracing
/// lives in the separate [`TracedHeapTable`] wrapper (mirroring the native
/// engine's `TracedRowStore`), keeping this hot-path type free of interior
/// mutability.
pub struct HeapTable<'a> {
    heap: &'a Heap,
    items: &'a [GcRef],
    schema: Schema,
}

impl<'a> HeapTable<'a> {
    /// Creates a table over a managed list.
    pub fn new(heap: &'a Heap, list: ListId, schema: Schema) -> Self {
        HeapTable {
            heap,
            items: heap.list_items(list),
            schema,
        }
    }

    /// Creates a table over an explicit slice of objects (used by tests and
    /// by the hybrid engine's staging loop).
    pub fn from_items(heap: &'a Heap, items: &'a [GcRef], schema: Schema) -> Self {
        HeapTable {
            heap,
            items,
            schema,
        }
    }

    /// Wraps the table with a memory tracer; every field access through the
    /// wrapper reports the simulated managed address it touches (used for
    /// the Figure 14 cache study).
    pub fn with_tracer(self, tracer: &'a mut dyn MemTracer) -> TracedHeapTable<'a> {
        TracedHeapTable {
            table: self,
            tracer: Some(RefCell::new(tracer)),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The object backing a row.
    pub fn object(&self, row: usize) -> GcRef {
        self.items[row]
    }
}

impl TableAccess for HeapTable<'_> {
    fn len(&self) -> usize {
        self.items.len()
    }
    fn get_bool(&self, row: usize, col: usize) -> bool {
        self.heap.get_bool(self.items[row], col)
    }
    fn get_i32(&self, row: usize, col: usize) -> i32 {
        self.heap.get_i32(self.items[row], col)
    }
    fn get_i64(&self, row: usize, col: usize) -> i64 {
        self.heap.get_i64(self.items[row], col)
    }
    fn get_f64(&self, row: usize, col: usize) -> f64 {
        self.heap.get_f64(self.items[row], col)
    }
    fn get_decimal(&self, row: usize, col: usize) -> Decimal {
        self.heap.get_decimal(self.items[row], col)
    }
    fn get_date(&self, row: usize, col: usize) -> Date {
        self.heap.get_date(self.items[row], col)
    }
    fn get_str(&self, row: usize, col: usize) -> &str {
        let s_ref = self.heap.get_ref(self.items[row], col);
        if s_ref.is_null() {
            ""
        } else {
            self.heap.string_value(s_ref)
        }
    }
    fn get_value(&self, row: usize, col: usize) -> Value {
        self.heap.get_value(self.items[row], col)
    }
}

/// A [`HeapTable`] wrapper that reports every managed field access (and the
/// string-object chase a string read implies) to a [`MemTracer`], feeding
/// the Figure 14 cache study. An [`TracedHeapTable::untraced`] instance
/// passes reads through silently, so one execution can mix a traced probe
/// side with untraced build sides under a single table type.
pub struct TracedHeapTable<'a> {
    table: HeapTable<'a>,
    tracer: Option<RefCell<&'a mut dyn MemTracer>>,
}

impl<'a> TracedHeapTable<'a> {
    /// Wraps a table without a tracer (reads pass through unreported).
    pub fn untraced(table: HeapTable<'a>) -> Self {
        TracedHeapTable {
            table,
            tracer: None,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        self.table.schema()
    }

    #[inline]
    fn trace_field(&self, row: usize, col: usize) {
        if let Some(tracer) = &self.tracer {
            let obj = self.table.items[row];
            let addr = self.table.heap.field_address(obj, col);
            tracer.borrow_mut().access(AccessKind::ManagedRead, addr, 8);
        }
    }

    /// Reading a string chases the reference into the string object,
    /// touching a second cache line — report that too.
    #[inline]
    fn trace_string_chase(&self, row: usize, col: usize) {
        if let Some(tracer) = &self.tracer {
            let s_ref = self.table.heap.get_ref(self.table.items[row], col);
            if !s_ref.is_null() {
                tracer.borrow_mut().access(
                    AccessKind::ManagedRead,
                    self.table.heap.address_of(s_ref),
                    16,
                );
            }
        }
    }
}

impl TableAccess for TracedHeapTable<'_> {
    fn len(&self) -> usize {
        self.table.len()
    }
    fn get_bool(&self, row: usize, col: usize) -> bool {
        self.trace_field(row, col);
        self.table.get_bool(row, col)
    }
    fn get_i32(&self, row: usize, col: usize) -> i32 {
        self.trace_field(row, col);
        self.table.get_i32(row, col)
    }
    fn get_i64(&self, row: usize, col: usize) -> i64 {
        self.trace_field(row, col);
        self.table.get_i64(row, col)
    }
    fn get_f64(&self, row: usize, col: usize) -> f64 {
        self.trace_field(row, col);
        self.table.get_f64(row, col)
    }
    fn get_decimal(&self, row: usize, col: usize) -> Decimal {
        self.trace_field(row, col);
        self.table.get_decimal(row, col)
    }
    fn get_date(&self, row: usize, col: usize) -> Date {
        self.trace_field(row, col);
        self.table.get_date(row, col)
    }
    fn get_str(&self, row: usize, col: usize) -> &str {
        self.trace_field(row, col);
        self.trace_string_chase(row, col);
        self.table.get_str(row, col)
    }
    fn get_value(&self, row: usize, col: usize) -> Value {
        self.trace_field(row, col);
        let value = self.table.get_value(row, col);
        if matches!(value, Value::Str(_)) {
            self.trace_string_chase(row, col);
        }
        value
    }
}

/// Executes a fused query spec over managed tables. `tables[0]` is the root
/// (probe side); subsequent tables follow `spec.joins` order.
pub fn execute(
    spec: &QuerySpec,
    params: &[Value],
    tables: &[&HeapTable<'_>],
) -> Result<QueryOutput> {
    mrq_common::fault::point("engine.csharp.probe")?;
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

/// Executes a fused query spec over managed tables with `config.threads`
/// morsel workers from the persistent pool
/// ([`mrq_common::pool::WorkerPool`]; nothing is spawned per query): the
/// generated-C#-style loop runs unchanged per worker over morsels of the
/// probe-side object list (handed out by a shared cursor), and the
/// partial states (group hash tables, aggregates, top-N buffers, plain
/// rows) merge in morsel order. Join hash tables are themselves built with
/// hash-partitioned parallel workers (string build keys fall back to the
/// sequential build) and shared across workers behind an `Arc`, exactly
/// like the native engine's parallel path.
pub fn execute_parallel(
    spec: &QuerySpec,
    params: &[Value],
    tables: &[&HeapTable<'_>],
    config: ParallelConfig,
) -> Result<QueryOutput> {
    mrq_common::fault::point("engine.csharp.probe")?;
    if tables.len() != spec.joins.len() + 1 {
        return Err(MrqError::Internal(format!(
            "expected {} tables, got {}",
            spec.joins.len() + 1,
            tables.len()
        )));
    }
    let schemas: Vec<Schema> = tables.iter().map(|t| t.schema().clone()).collect();
    let builds = tables[1..].to_vec();
    let none = vec![None; spec.joins.len()];
    let base = ExecState::new_parallel(spec, params, builds, &schemas, &none, config)?;
    // Lifecycle control: stop a cancelled/expired query between the join
    // builds and the probe scan (the scan checks between morsels itself).
    mrq_common::cancel::checkpoint();
    Ok(consume_partitioned(base, tables[0], config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrq_codegen::spec::lower;
    use mrq_common::trace::CountingTracer;
    use mrq_common::DataType;
    use mrq_expr::{canonicalize, col, lam, lit, BinaryOp, Expr, Query, SourceId};
    use mrq_mheap::{ClassDesc, FieldDesc};
    use std::collections::HashMap;

    fn setup() -> (Heap, ListId, Schema) {
        let schema = Schema::new(
            "Sale",
            vec![
                mrq_common::Field::new("id", DataType::Int64),
                mrq_common::Field::new("city", DataType::Str),
                mrq_common::Field::new("price", DataType::Decimal),
            ],
        );
        let mut heap = Heap::new();
        let class = heap.register_class(ClassDesc::new(
            "Sale",
            vec![
                FieldDesc::scalar("id", DataType::Int64),
                FieldDesc::string("city"),
                FieldDesc::scalar("price", DataType::Decimal),
            ],
        ));
        let list = heap.new_list("sales", Some(class));
        for (i, (city, price)) in [
            ("London", 10),
            ("Paris", 20),
            ("London", 30),
            ("Berlin", 40),
        ]
        .iter()
        .enumerate()
        {
            let obj = heap.alloc(class);
            heap.set_i64(obj, 0, i as i64 + 1);
            heap.set_str(obj, 1, city);
            heap.set_decimal(obj, 2, Decimal::from_int(*price));
            heap.list_push(list, obj);
        }
        (heap, list, schema)
    }

    fn query() -> mrq_expr::CanonicalQuery {
        canonicalize(
            Query::from_source(SourceId(0))
                .where_(lam(
                    "s",
                    Expr::binary(BinaryOp::Eq, col("s", "city"), lit("London")),
                ))
                .select(lam("s", col("s", "price")))
                .into_expr(),
        )
    }

    #[test]
    fn fused_execution_over_managed_objects() {
        let (heap, list, schema) = setup();
        let mut catalog = HashMap::new();
        catalog.insert(SourceId(0), schema.clone());
        let canon = query();
        let spec = lower(&canon, &catalog).unwrap();
        let table = HeapTable::new(&heap, list, schema);
        let out = execute(&spec, &canon.params, &[&table]).unwrap();
        assert_eq!(
            out.rows,
            vec![
                vec![Value::Decimal(Decimal::from_int(10))],
                vec![Value::Decimal(Decimal::from_int(30))]
            ]
        );
    }

    #[test]
    fn tracer_observes_managed_reads_including_string_chasing() {
        let (heap, list, schema) = setup();
        let mut catalog = HashMap::new();
        catalog.insert(SourceId(0), schema.clone());
        let canon = query();
        let spec = lower(&canon, &catalog).unwrap();
        let mut tracer = CountingTracer::default();
        {
            let traced = HeapTable::new(&heap, list, schema.clone()).with_tracer(&mut tracer);
            let _ = execute_once(&spec, &canon.params, &[&traced], &[schema]).unwrap();
        }
        // 4 rows × (city field + string object) plus 2 qualifying price reads.
        assert!(tracer.events_of(AccessKind::ManagedRead) >= 10);
    }

    #[test]
    fn parallel_fused_loops_match_sequential() {
        let schema = Schema::new(
            "Sale",
            vec![
                mrq_common::Field::new("id", DataType::Int64),
                mrq_common::Field::new("city", DataType::Str),
                mrq_common::Field::new("price", DataType::Decimal),
            ],
        );
        let mut heap = Heap::new();
        let class = heap.register_class(mrq_mheap::ClassDesc::from_schema(&schema));
        let list = heap.new_list("sales", Some(class));
        for i in 0..5_000i64 {
            let obj = heap.alloc(class);
            heap.set_i64(obj, 0, i);
            heap.set_str(obj, 1, if i % 2 == 0 { "London" } else { "Paris" });
            heap.set_decimal(obj, 2, Decimal::from_int(i % 100));
            heap.list_push(list, obj);
        }
        let mut catalog = HashMap::new();
        catalog.insert(SourceId(0), schema.clone());
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
        let table = HeapTable::new(&heap, list, schema);
        let sequential = execute(&spec, &canon.params, &[&table]).unwrap();
        for threads in [1usize, 2, 4, 7] {
            let parallel = execute_parallel(
                &spec,
                &canon.params,
                &[&table],
                ParallelConfig {
                    threads,
                    min_rows_per_thread: 64,
                    ..ParallelConfig::default()
                },
            )
            .unwrap();
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
        assert_eq!(sequential.rows.len(), 2_500);
    }

    #[test]
    fn table_len_mismatch_is_reported() {
        let (heap, list, schema) = setup();
        let mut catalog = HashMap::new();
        catalog.insert(SourceId(0), schema.clone());
        let canon = query();
        let spec = lower(&canon, &catalog).unwrap();
        let table = HeapTable::new(&heap, list, schema);
        assert!(execute(&spec, &canon.params, &[&table, &table]).is_err());
    }
}
