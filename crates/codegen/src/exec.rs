//! The compiled-query execution templates.
//!
//! [`ExecState`] is the fused algorithm the paper's generated code follows:
//! build hash tables for every join's (filtered) build side, then stream the
//! probe side once, evaluating filters, probing joins, feeding aggregates or
//! collecting output rows, and finally sorting/limiting. It is generic over
//! [`TableAccess`], so each engine instantiates the identical algorithm over
//! its own storage — managed heap objects, flat native rows, or staged
//! buffers — which is precisely the relationship between the paper's
//! generated C# (§4) and C (§5) code.
//!
//! **Compiled once per execution.** The constructors compile the spec into
//! a program of closures monomorphic over `T` (see the `program` module):
//! typed filter predicates with constants and parameters folded in, one
//! typed accumulator per aggregate with its input built in, and group and
//! join key encoders that pack strings of up to 7 bytes into the key part
//! and intern only longer ones. The fused loops call those closures and
//! never look at an expression node, a column type or a parameter. The
//! program sits behind an [`Arc`], so the per-morsel forks of a parallel
//! run share it with the join tables. Compiling type-checks the spec: an
//! ill-typed expression (arithmetic as a predicate, a string compared with
//! a decimal, a string in arithmetic, a key of more than six parts) is an
//! [`MrqError::Codegen`] from the constructor rather than a panic per row.
//!
//! Each closure makes exactly the [`TableAccess`] calls a walk of its
//! expression tree would, in the same order and with the same `&&`/`||`
//! short-circuiting, so results, [`WorkStats`] and traced cache behaviour
//! do not depend on how the expressions are evaluated.
//!
//! The consume step can be called repeatedly with successive chunks of the
//! probe side, which is what the hybrid engine's buffered staging (§6.1.2)
//! uses.

use crate::program::{key_part_of_value, AggState, Bound, Emit, KeyBuf, Program, StringInterner};
use crate::spec::{OutputExpr, QuerySpec, SortKeySpec};
use mrq_common::hash::{hash_u64, hash_u64_pair, FxHashMap};
use mrq_common::{
    morsel, Date, Decimal, MrqError, ParallelConfig, Result, Schema, StreamSink, Value, WorkStats,
};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::ops::Range;
use std::sync::Arc;

/// Rows between intra-morsel cooperative-cancellation checkpoints inside
/// the fused scan/probe and build loops: the workspace-wide cadence from
/// [`mrq_common::cancel`], which bounds worst-case cancel latency even
/// when `morsel_rows` is huge or an input never splits.
const CANCEL_CHECK_ROWS: usize = mrq_common::cancel::CHECK_EVERY_ROWS;

/// Row-major access to one table's data. `row` indexes are dense `0..len()`.
pub trait TableAccess {
    /// Number of rows.
    fn len(&self) -> usize;
    /// True if the table has no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Reads a boolean column.
    fn get_bool(&self, row: usize, col: usize) -> bool;
    /// Reads an `i32` column.
    fn get_i32(&self, row: usize, col: usize) -> i32;
    /// Reads an `i64` column.
    fn get_i64(&self, row: usize, col: usize) -> i64;
    /// Reads an `f64` column.
    fn get_f64(&self, row: usize, col: usize) -> f64;
    /// Reads a decimal column.
    fn get_decimal(&self, row: usize, col: usize) -> Decimal;
    /// Reads a date column.
    fn get_date(&self, row: usize, col: usize) -> Date;
    /// Reads a string column.
    fn get_str(&self, row: usize, col: usize) -> &str;
    /// Reads any column as a dynamic [`Value`] (used for result
    /// construction, not for hot per-row predicates).
    fn get_value(&self, row: usize, col: usize) -> Value;
}

/// A simple row-major [`TableAccess`] over dynamic values. Used as the
/// reference storage in tests, for materialised intermediate results (e.g.
/// the decorrelated Q2 inner result) and by loaders.
#[derive(Debug, Clone)]
pub struct ValueTable {
    schema: Schema,
    rows: Vec<Vec<Value>>,
}

impl ValueTable {
    /// Creates a table; every row must match the schema arity.
    pub fn new(schema: Schema, rows: Vec<Vec<Value>>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == schema.len()));
        ValueTable { schema, rows }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Borrow of the rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// Builds a table from a query output.
    pub fn from_output(output: QueryOutput) -> Self {
        ValueTable {
            schema: output.schema,
            rows: output.rows,
        }
    }
}

impl TableAccess for ValueTable {
    fn len(&self) -> usize {
        self.rows.len()
    }
    fn get_bool(&self, row: usize, col: usize) -> bool {
        self.rows[row][col].as_bool()
    }
    fn get_i32(&self, row: usize, col: usize) -> i32 {
        self.rows[row][col].as_i64().expect("i32 column") as i32
    }
    fn get_i64(&self, row: usize, col: usize) -> i64 {
        self.rows[row][col].as_i64().expect("i64 column")
    }
    fn get_f64(&self, row: usize, col: usize) -> f64 {
        self.rows[row][col].as_f64().expect("f64 column")
    }
    fn get_decimal(&self, row: usize, col: usize) -> Decimal {
        self.rows[row][col].as_decimal().expect("decimal column")
    }
    fn get_date(&self, row: usize, col: usize) -> Date {
        self.rows[row][col].as_date().expect("date column")
    }
    fn get_str(&self, row: usize, col: usize) -> &str {
        self.rows[row][col].as_str().expect("string column")
    }
    fn get_value(&self, row: usize, col: usize) -> Value {
        self.rows[row][col].clone()
    }
}

/// The materialised result of a query: schema plus result rows (the "result
/// objects" every strategy ultimately constructs for the application).
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Schema of the result columns.
    pub schema: Schema,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Deterministic work counters accumulated while producing this result
    /// (see [`mrq_common::workcount`]).
    pub work: WorkStats,
}

/// Equality compares the *result* (schema + rows) only. Work counters are
/// intentionally excluded: different strategies — and different scheduler
/// shapes — legitimately do different amounts of work to produce identical
/// results, and the equivalence suites assert exactly that identity.
impl PartialEq for QueryOutput {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl QueryOutput {
    /// The deterministic work counters accumulated while producing this
    /// result. For a fixed query, data and strategy, every counter except
    /// [`WorkStats::morsels_executed`] is invariant across thread counts
    /// and morsel sizes (see [`mrq_common::workcount`]).
    pub fn work_stats(&self) -> &WorkStats {
        &self.work
    }

    /// Renders a small fixed-width table (examples and the figures binary).
    pub fn render(&self, max_rows: usize) -> String {
        let mut out = String::new();
        let names: Vec<&str> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.as_str())
            .collect();
        out.push_str(&names.join(" | "));
        out.push('\n');
        for row in self.rows.iter().take(max_rows) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join(" | "));
            out.push('\n');
        }
        if self.rows.len() > max_rows {
            out.push_str(&format!("... ({} rows total)\n", self.rows.len()));
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Pre-built join indexes
// ---------------------------------------------------------------------------

/// A pre-built single-column equality index over a build-side table, usable
/// in place of the per-query hash-table build (the paper lists indexes as
/// future work in §9; this is that extension).
///
/// Keys are the same 64-bit encoding [`ExecState`] uses for probe keys, so an
/// index built once over a stored table can serve every query whose join key
/// is that column. String columns cannot be indexed this way: strings longer
/// than 7 bytes are encoded by a per-execution interner (only shorter ones
/// pack into the key itself), so their encoding differs between executions;
/// the engines enforce that restriction when deciding whether an index is
/// applicable.
///
/// Internally the index is hash-partitioned into `2^bits` shards selected by
/// the high bits of the key hash, so it can be built in parallel (scatter
/// `(key, row)` pairs per shard, finalise each shard independently) with
/// zero merge contention. A sequentially built index has a single shard.
#[derive(Debug, Clone)]
pub struct JoinIndex {
    shards: Vec<FxHashMap<u64, Vec<usize>>>,
    bits: u32,
    rows: usize,
}

impl Default for JoinIndex {
    fn default() -> Self {
        JoinIndex {
            shards: vec![FxHashMap::default()],
            bits: 0,
            rows: 0,
        }
    }
}

impl JoinIndex {
    /// Creates an empty single-shard index.
    pub fn new() -> Self {
        JoinIndex::default()
    }

    /// The shard a key belongs to: the high `bits` bits of the key hash
    /// (0 when the index is unsharded). Parallel builders must scatter with
    /// this exact function so lookups route to the right shard.
    #[inline]
    pub fn shard_index(key: u64, bits: u32) -> usize {
        if bits == 0 {
            0
        } else {
            (hash_u64(key) >> (64 - bits)) as usize
        }
    }

    /// Assembles an index from per-shard maps built elsewhere (the parallel
    /// build path). `shards.len()` must be a power of two and every entry
    /// must have been routed with [`JoinIndex::shard_index`].
    pub fn from_shards(shards: Vec<FxHashMap<u64, Vec<usize>>>) -> Self {
        assert!(
            !shards.is_empty() && shards.len().is_power_of_two(),
            "shard count must be a power of two"
        );
        let bits = shards.len().trailing_zeros();
        let rows = shards.iter().flat_map(|s| s.values()).map(Vec::len).sum();
        JoinIndex { shards, bits, rows }
    }

    /// Adds one `(key, build row)` entry.
    pub fn insert(&mut self, key: u64, row: usize) {
        let shard = Self::shard_index(key, self.bits);
        self.shards[shard].entry(key).or_default().push(row);
        self.rows += 1;
    }

    /// Build rows whose key equals `key`.
    pub fn get(&self, key: u64) -> Option<&[usize]> {
        self.shards[Self::shard_index(key, self.bits)]
            .get(&key)
            .map(Vec::as_slice)
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.shards.iter().map(FxHashMap::len).sum()
    }

    /// Number of hash shards (1 for a sequentially built index).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if no rows are indexed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }
}

/// Hashes a composite key for shard routing. Must be engine-independent (it
/// only sees the encoded key parts), so the build-side scatter and the
/// probe-side lookup always agree on the shard.
#[inline]
fn shard_hash(key: &KeyBuf) -> u64 {
    let mut h = 0u64;
    for i in 0..key.len as usize {
        h = hash_u64_pair(h, key.parts[i]);
    }
    h
}

/// A join hash table built for this execution, hash-partitioned into
/// `2^bits` shards by the high bits of the key hash. The sequential build
/// produces a single shard (`bits == 0`, no routing cost); the parallel
/// build scatters `(key, row)` pairs per shard and finalises the shards
/// independently, and probes route to the owning shard with the same hash.
struct BuiltJoinTable {
    shards: Vec<FxHashMap<KeyBuf, Vec<usize>>>,
    bits: u32,
}

impl BuiltJoinTable {
    fn single(map: FxHashMap<KeyBuf, Vec<usize>>) -> Self {
        BuiltJoinTable {
            shards: vec![map],
            bits: 0,
        }
    }

    #[inline]
    fn get(&self, key: &KeyBuf) -> Option<&[usize]> {
        let shard = if self.bits == 0 {
            0
        } else {
            (shard_hash(key) >> (64 - self.bits)) as usize
        };
        self.shards[shard].get(key).map(Vec::as_slice)
    }
}

/// The hash table used for one join level: either built for this execution
/// from the (filtered) build side, or borrowed from a pre-built
/// [`JoinIndex`]. Built tables sit behind an [`Arc`] so forking a state per
/// morsel worker shares them instead of deep-copying the hash maps.
#[derive(Clone)]
enum JoinTable<'a> {
    Built(Arc<BuiltJoinTable>),
    Indexed(&'a JoinIndex),
}

impl JoinTable<'_> {
    #[inline]
    fn lookup(&self, key: &KeyBuf) -> Option<&[usize]> {
        match self {
            JoinTable::Built(table) => table.get(key),
            JoinTable::Indexed(index) => {
                debug_assert_eq!(key.len, 1, "indexed joins use single-part keys");
                index.get(key.parts[0])
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Top-N (OrderBy + Take fusion)
// ---------------------------------------------------------------------------

/// A bounded ordered buffer that fuses `OrderBy` with a following `Take(n)`
/// (§2.3, "Independent operators"): instead of sorting the whole input and
/// truncating, only the current best `n` rows are retained while streaming.
///
/// Ties preserve arrival order, so the final contents equal what a stable
/// full sort followed by `truncate(n)` would produce.
#[derive(Debug, Clone)]
pub struct TopN {
    limit: usize,
    sort: Vec<SortKeySpec>,
    rows: Vec<Vec<Value>>,
    offered: u64,
}

impl TopN {
    /// Creates a top-N buffer retaining `limit` rows ordered by `sort`.
    pub fn new(limit: usize, sort: Vec<SortKeySpec>) -> Self {
        TopN {
            limit,
            sort,
            rows: Vec::with_capacity(limit.min(1024)),
            offered: 0,
        }
    }

    fn cmp_rows(&self, a: &[Value], b: &[Value]) -> Ordering {
        for key in &self.sort {
            let ord = a[key.output_col].total_cmp(&b[key.output_col]);
            let ord = if key.descending { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// Offers one row; it is retained only if it ranks within the best
    /// `limit` rows seen so far.
    pub fn offer(&mut self, row: Vec<Value>) {
        self.offered += 1;
        if self.limit == 0 {
            return;
        }
        if self.rows.len() == self.limit {
            // Fast reject: worse than (or tied with) the current worst row.
            if self.cmp_rows(&row, self.rows.last().expect("non-empty")) != Ordering::Less {
                return;
            }
        }
        // Insert after any equal rows so ties keep arrival order (matching a
        // stable sort).
        let pos = self
            .rows
            .partition_point(|existing| self.cmp_rows(existing, &row) != Ordering::Greater);
        self.rows.insert(pos, row);
        self.rows.truncate(self.limit);
    }

    /// Rows offered so far (retained or not).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Number of rows currently retained.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows are retained.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Consumes the buffer, returning the retained rows in sort order.
    pub fn into_sorted_rows(self) -> Vec<Vec<Value>> {
        self.rows
    }
}

// ---------------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------------

/// Everything the fused loop writes apart from the stream sink: groups,
/// output rows, the key interner and the work counters. Kept apart from
/// the compiled program and the join tables so a probe can walk a table's
/// hit slice in place while it emits.
#[derive(Clone, Default)]
struct Collected {
    interner: StringInterner,
    groups: FxHashMap<KeyBuf, usize>,
    group_keys: Vec<Vec<Value>>,
    group_aggs: Vec<Vec<AggState>>,
    plain_rows: Vec<Vec<Value>>,
    topn: Option<TopN>,
    emitted_rows: u64,
    /// Deterministic work counters for this (possibly partial) state. Forks
    /// start at zero and [`ExecState::merge`] adds, so per-query totals are
    /// independent of how the scan was partitioned across workers.
    work: WorkStats,
}

/// Incremental execution state for one compiled query over one engine's
/// tables.
pub struct ExecState<'a, T: TableAccess> {
    spec: &'a QuerySpec,
    /// The spec compiled for this execution, shared by every fork.
    program: Arc<Program<'a, T>>,
    builds: Vec<&'a T>,
    join_tables: Vec<JoinTable<'a>>,
    out: Collected,
    /// Take limit resolved against the parameters (a plan shared across
    /// executions may carry its Take count in a parameter slot rather than
    /// in the spec).
    take: Option<usize>,
    consumed_rows: u64,
    /// Streaming sink for incremental row publication, attached by
    /// [`ExecState::attach_stream_sink`] on streamable shapes only. Forks
    /// never inherit it — in a parallel run the sink lives with the ordered
    /// gather ([`morsel::run_ordered`]), not with individual workers, so
    /// rows are published strictly in morsel order.
    sink: Option<StreamSink>,
}

impl<'a, T: TableAccess> ExecState<'a, T> {
    /// Compiles the spec for this execution and builds its hash tables from
    /// the (filtered) build-side tables. `builds[i]` is the table bound to
    /// `spec.joins[i].source`; `slot_schemas[s]` is the schema of slot `s`
    /// (root first). An ill-typed spec is an [`MrqError::Codegen`].
    pub fn new(
        spec: &'a QuerySpec,
        params: &'a [Value],
        builds: Vec<&'a T>,
        slot_schemas: &[Schema],
    ) -> Result<Self> {
        let none = vec![None; spec.joins.len()];
        Self::new_with_indexes(spec, params, builds, slot_schemas, &none)
    }

    /// Like [`ExecState::new`], but any join whose `indexes[i]` is `Some`
    /// uses the pre-built index instead of building a hash table. The caller
    /// is responsible for only supplying an index when it is applicable (a
    /// single non-string build key over the unfiltered build table).
    pub fn new_with_indexes(
        spec: &'a QuerySpec,
        params: &'a [Value],
        builds: Vec<&'a T>,
        slot_schemas: &[Schema],
        indexes: &[Option<&'a JoinIndex>],
    ) -> Result<Self> {
        let mut state = Self::new_unbuilt(spec, params, builds, slot_schemas, indexes)?;
        state.build_join_tables(indexes)?;
        Ok(state)
    }

    /// Compiles the program and constructs the state without building join
    /// tables (shared by the sequential and parallel constructors).
    fn new_unbuilt(
        spec: &'a QuerySpec,
        params: &'a [Value],
        builds: Vec<&'a T>,
        slot_schemas: &[Schema],
        indexes: &[Option<&'a JoinIndex>],
    ) -> Result<Self> {
        if builds.len() != spec.joins.len() {
            return Err(MrqError::Internal(format!(
                "expected {} build tables, got {}",
                spec.joins.len(),
                builds.len()
            )));
        }
        if indexes.len() != spec.joins.len() {
            return Err(MrqError::Internal(format!(
                "expected {} join indexes, got {}",
                spec.joins.len(),
                indexes.len()
            )));
        }
        let mut out = Collected::default();
        let program = Program::compile(spec, params, slot_schemas, &mut out.interner)?;
        let take = spec.effective_take(params)?;
        // OrderBy + Take over a non-grouped pipeline is fused into a bounded
        // top-N buffer; grouped queries sort their (few) groups at the end.
        out.topn = match (take, spec.is_grouped(), spec.sort.is_empty()) {
            (Some(n), false, false) => Some(TopN::new(n, spec.sort.clone())),
            _ => None,
        };
        Ok(ExecState {
            spec,
            program: Arc::new(program),
            builds,
            join_tables: Vec::new(),
            out,
            take,
            consumed_rows: 0,
            sink: None,
        })
    }

    /// Whether this execution's shape can publish rows incrementally:
    /// exactly the pipelines whose output order is the probe scan order.
    /// Grouping, sorting (fused or final), `Take` truncation and hidden
    /// sort columns all require the complete row set before the first
    /// output row is known, so those shapes deliver everything as the
    /// residual `QueryOutput` instead.
    pub fn streamable(&self) -> bool {
        !self.spec.is_grouped()
            && self.out.topn.is_none()
            && self.spec.sort.is_empty()
            && self.take.is_none()
            && self.spec.hidden_outputs == 0
    }

    /// Attaches `sink` for incremental publication if the shape is
    /// streamable (see [`ExecState::streamable`]); returns whether it was
    /// attached. Non-streamable shapes simply keep buffering — the serving
    /// layer flushes their full output as the stream's residual, so the
    /// client-visible row sequence is identical either way.
    pub fn attach_stream_sink(&mut self, sink: StreamSink) -> bool {
        if self.streamable() {
            self.sink = Some(sink);
            true
        } else {
            false
        }
    }

    /// Detaches and returns the stream sink, if any (the parallel gather
    /// takes it from the base state so forks run sink-free and publication
    /// happens only at the ordered frontier).
    pub fn take_sink(&mut self) -> Option<StreamSink> {
        self.sink.take()
    }

    /// Publishes this state's buffered plain rows to `sink`, draining them.
    /// Used by the ordered parallel gather (and the hybrid engine's staged
    /// variant) when each partial reaches the publication frontier; channel
    /// counters account the streamed rows, so work counters are untouched
    /// here. A `false` from the sink (receiver gone / token tripped) just
    /// stops publishing — the cooperative cancel checkpoint unwinds the
    /// query itself.
    pub fn flush_rows_to(&mut self, sink: &StreamSink) {
        if !self.out.plain_rows.is_empty() {
            sink.send_rows(&mut self.out.plain_rows);
        }
    }

    /// Publishes buffered rows to the attached sink, if any (the sequential
    /// in-loop flush; parallel forks have no sink and buffer until the
    /// ordered gather publishes them).
    #[inline]
    fn flush_streamed(&mut self) {
        if let Some(sink) = &self.sink {
            if !self.out.plain_rows.is_empty() {
                sink.send_rows(&mut self.out.plain_rows);
            }
        }
    }

    /// Disables the OrderBy+Take fusion (used by ablation benchmarks and by
    /// the interpreted baseline, which sorts the full input as LINQ does).
    /// Must be called before any input is consumed.
    pub fn disable_topn_fusion(&mut self) {
        assert!(
            self.out.plain_rows.is_empty() && self.consumed_rows == 0,
            "top-N fusion can only be toggled before consuming input"
        );
        self.out.topn = None;
    }

    /// Whether this execution fuses OrderBy+Take into a bounded buffer.
    pub fn topn_fused(&self) -> bool {
        self.out.topn.is_some()
    }

    /// Validates that a pre-built index is shaped to serve join `j`.
    fn check_index_applicable(join: &crate::spec::JoinSpec) -> Result<()> {
        if join.build_keys.len() != 1 || !join.build_filters.is_empty() {
            return Err(MrqError::Internal(
                "join indexes require a single build key and no build filters".into(),
            ));
        }
        Ok(())
    }

    fn build_join_tables(&mut self, indexes: &[Option<&'a JoinIndex>]) -> Result<()> {
        for (j, slot_index) in indexes.iter().enumerate() {
            if let Some(index) = slot_index {
                Self::check_index_applicable(&self.spec.joins[j])?;
                self.join_tables.push(JoinTable::Indexed(index));
                continue;
            }
            let map = self.build_join_map(j);
            self.join_tables
                .push(JoinTable::Built(Arc::new(BuiltJoinTable::single(map))));
        }
        Ok(())
    }

    /// Builds the hash table for join `j` sequentially (the seed behaviour):
    /// one pass over the build side, inserting into a single map.
    fn build_join_map(&mut self, j: usize) -> FxHashMap<KeyBuf, Vec<usize>> {
        let join = &self.program.joins[j];
        let table = self.builds[j];
        let mut map: FxHashMap<KeyBuf, Vec<usize>> =
            FxHashMap::with_capacity_and_hasher(table.len(), Default::default());
        // Build-side rows are evaluated with the build slot bound; other
        // slots are irrelevant for build filters/keys.
        let mut rows = vec![0usize; self.builds.len() + 1];
        for r in 0..table.len() {
            self.out.work.scanned_row();
            if r.is_multiple_of(CANCEL_CHECK_ROWS) {
                mrq_common::cancel::checkpoint();
            }
            rows[join.slot] = r;
            // The root is never consulted: build expressions only read
            // `join.slot`.
            let bound = Bound::new(table, &self.builds, &rows);
            if !join.build_filter.passes(&bound) {
                continue;
            }
            let key = join.build_key.encode(&bound, &mut self.out.interner);
            map.entry(key).or_default().push(r);
            self.out.work.built_insert();
        }
        map
    }

    /// Streams (a chunk of) the probe-side root table through the fused
    /// pipeline. May be called multiple times with successive chunks.
    pub fn consume(&mut self, root: &T) {
        self.consume_range(root, 0..root.len());
    }

    /// Streams only the given row range of the probe-side table through the
    /// pipeline. Parallel execution partitions the probe side into disjoint
    /// ranges (morsels), gives each worker its own state, and merges them
    /// with [`ExecState::merge`].
    pub fn consume_range(&mut self, root: &T, range: Range<usize>) {
        self.out.work.executed_morsel();
        let mut rows = vec![0usize; self.builds.len() + 1];
        for r in range {
            self.consumed_rows += 1;
            self.out.work.scanned_row();
            if self.consumed_rows.is_multiple_of(CANCEL_CHECK_ROWS as u64) {
                mrq_common::cancel::checkpoint();
                // Streamed sequential runs publish at the same cadence the
                // cancel checkpoints use, so first-row latency is bounded by
                // one checkpoint interval, not by the scan length.
                self.flush_streamed();
            }
            rows[0] = r;
            let program = &*self.program;
            let bound = Bound::new(root, &self.builds, &rows);
            if !program.root_filter.passes(&bound) {
                continue;
            }
            probe(
                program,
                &self.join_tables,
                &self.builds,
                root,
                0,
                &mut rows,
                &mut self.out,
            );
        }
        self.flush_streamed();
    }

    /// A copy of this state that shares no mutable data with the original.
    /// Parallel execution builds the join hash tables once, clones the state
    /// per worker (the compiled program and the built tables are shared
    /// behind an [`Arc`]), and merges the partial states afterwards.
    pub fn fork(&self) -> ExecState<'a, T> {
        ExecState {
            spec: self.spec,
            program: Arc::clone(&self.program),
            builds: self.builds.clone(),
            join_tables: self.join_tables.clone(),
            out: Collected {
                // Forks start from zero so merged totals count every unit of
                // work exactly once — the base keeps the build-phase counters.
                work: WorkStats::default(),
                ..self.out.clone()
            },
            take: self.take,
            consumed_rows: self.consumed_rows,
            // Workers buffer; only the ordered gather publishes.
            sink: None,
        }
    }

    /// Folds another partial state (same spec, same build tables) into this
    /// one: group-by states merge per key, aggregate states fold, plain and
    /// top-N rows concatenate, and counters add up.
    pub fn merge(&mut self, other: ExecState<'a, T>) {
        debug_assert!(
            std::ptr::eq(self.spec, other.spec),
            "merging different specs"
        );
        self.consumed_rows += other.consumed_rows;
        let (out, theirs) = (&mut self.out, other.out);
        out.emitted_rows += theirs.emitted_rows;
        out.work.add(&theirs.work);
        if self.spec.is_grouped() {
            for (keys, aggs) in theirs.group_keys.into_iter().zip(theirs.group_aggs) {
                let mut key = KeyBuf::new();
                for value in &keys {
                    key.push(key_part_of_value(value, &mut out.interner));
                }
                let group_idx = match out.groups.get(&key) {
                    Some(&idx) => idx,
                    None => {
                        let idx = out.group_keys.len();
                        out.groups.insert(key, idx);
                        out.group_keys.push(keys);
                        out.group_aggs
                            .push(self.spec.aggregates.iter().map(AggState::new).collect());
                        idx
                    }
                };
                for (state, partial) in out.group_aggs[group_idx].iter_mut().zip(aggs.iter()) {
                    state.merge(partial);
                }
            }
        } else {
            match (&mut out.topn, theirs.topn) {
                (Some(mine), Some(theirs)) => {
                    for row in theirs.into_sorted_rows() {
                        mine.offer(row);
                    }
                }
                (None, None) => out.plain_rows.extend(theirs.plain_rows),
                _ => panic!("merging states with mismatched top-N fusion settings"),
            }
        }
    }

    /// Finishes execution: finalises groups, sorts, applies `Take` and strips
    /// hidden sort columns.
    pub fn finish(self) -> QueryOutput {
        let spec = self.spec;
        let Collected {
            group_keys,
            group_aggs,
            plain_rows,
            topn,
            work,
            ..
        } = self.out;
        let fused_topn = topn.is_some();
        let mut rows: Vec<Vec<Value>> = if spec.is_grouped() {
            group_keys
                .iter()
                .zip(group_aggs.iter())
                .map(|(keys, aggs)| {
                    spec.output
                        .iter()
                        .map(|(_, o)| match o {
                            OutputExpr::Key(i) => keys[*i].clone(),
                            OutputExpr::Agg(i) => aggs[*i].finish(),
                            OutputExpr::Scalar(_) => {
                                unreachable!(
                                    "the program rejects scalar outputs in grouped queries"
                                )
                            }
                        })
                        .collect()
                })
                .collect()
        } else if let Some(topn) = topn {
            // Already ordered and bounded by the fused OrderBy+Take buffer.
            topn.into_sorted_rows()
        } else {
            plain_rows
        };

        if !fused_topn && !spec.sort.is_empty() {
            rows.sort_by(|a, b| {
                for key in &spec.sort {
                    let ord = a[key.output_col].total_cmp(&b[key.output_col]);
                    let ord = if key.descending { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        }
        if let Some(n) = self.take {
            rows.truncate(n);
        }
        if spec.hidden_outputs > 0 {
            let visible = spec.visible_outputs();
            for row in &mut rows {
                row.truncate(visible);
            }
        }
        QueryOutput {
            schema: spec.output_schema.clone(),
            rows,
            work,
        }
    }

    /// Number of probe-side rows consumed so far.
    pub fn consumed_rows(&self) -> u64 {
        self.consumed_rows
    }

    /// Number of rows that survived filters and joins so far.
    pub fn emitted_rows(&self) -> u64 {
        self.out.emitted_rows
    }

    /// The deterministic work counters accumulated so far. Readable between
    /// [`ExecState::consume`] calls, so callers observing a long-running or
    /// cancelled query see partial, monotonically non-decreasing stats.
    pub fn work(&self) -> &WorkStats {
        &self.out.work
    }

    /// Adds externally-accounted work (used by engines that do work outside
    /// the fused loops, e.g. the hybrid engine's staging copies).
    pub fn record_work(&mut self, extra: &WorkStats) {
        self.out.work.add(extra);
    }
}

/// Probes join level `level` for the bound rows and, at the deepest level,
/// emits them. A probe walks the table's hit slice in place.
fn probe<T: TableAccess>(
    program: &Program<'_, T>,
    tables: &[JoinTable<'_>],
    builds: &[&T],
    root: &T,
    level: usize,
    rows: &mut [usize],
    out: &mut Collected,
) {
    let Some(join) = program.joins.get(level) else {
        emit(program, builds, root, rows, out);
        return;
    };
    let bound = Bound::new(root, builds, rows);
    let key = join.probe_key.encode(&bound, &mut out.interner);
    out.work.probed(key.len as u64);
    let Some(hits) = tables[level].lookup(&key) else {
        return;
    };
    for &hit in hits {
        rows[join.slot] = hit;
        probe(program, tables, builds, root, level + 1, rows, out);
    }
}

/// Applies the post-join filters to one joined row and feeds it to its
/// group's accumulators or to the output rows.
fn emit<T: TableAccess>(
    program: &Program<'_, T>,
    builds: &[&T],
    root: &T,
    rows: &[usize],
    out: &mut Collected,
) {
    let bound = Bound::new(root, builds, rows);
    if !program.post_filter.passes(&bound) {
        return;
    }
    out.emitted_rows += 1;
    out.work.materialized_row();
    match &program.emit {
        Emit::Group {
            key,
            key_values,
            accumulators,
            initial,
        } => {
            let key = key.encode(&bound, &mut out.interner);
            let group = match out.groups.entry(key) {
                Entry::Occupied(entry) => *entry.get(),
                Entry::Vacant(entry) => {
                    let group = out.group_keys.len();
                    out.group_keys
                        .push(key_values.iter().map(|value| value(&bound)).collect());
                    out.group_aggs.push(initial.clone());
                    *entry.insert(group)
                }
            };
            for (accumulator, state) in accumulators.iter().zip(&mut out.group_aggs[group]) {
                accumulator.update(&bound, state);
            }
        }
        Emit::Rows(outputs) => {
            let row: Vec<Value> = outputs.iter().map(|output| output(&bound)).collect();
            match &mut out.topn {
                Some(topn) => topn.offer(row),
                None => out.plain_rows.push(row),
            }
        }
    }
}

impl<'a, T: TableAccess + Sync> ExecState<'a, T> {
    /// Like [`ExecState::new_with_indexes`], but join hash tables are built
    /// with hash-partitioned parallelism under `config`: morsel workers scan
    /// the build side (filters applied per worker), scatter `(key, row)`
    /// pairs into per-shard buckets by the high bits of the key hash, and
    /// the shards are finalised into per-shard maps in parallel — zero merge
    /// contention, and probes route to shards with the same hash. Joins with
    /// string build keys, tiny build sides or a sequential `config` fall
    /// back to the sequential single-shard build. Either way the table
    /// content (per-key build rows in ascending row order) is identical, so
    /// results stay bit-identical to the sequential engines.
    pub fn new_parallel(
        spec: &'a QuerySpec,
        params: &'a [Value],
        builds: Vec<&'a T>,
        slot_schemas: &[Schema],
        indexes: &[Option<&'a JoinIndex>],
        config: ParallelConfig,
    ) -> Result<Self> {
        let mut state = Self::new_unbuilt(spec, params, builds, slot_schemas, indexes)?;
        for (j, slot_index) in indexes.iter().enumerate() {
            // Lifecycle control: a cancelled/expired query abandons the
            // remaining join builds here, between one build's shards and
            // the next's.
            mrq_common::cancel::checkpoint();
            if let Some(index) = slot_index {
                Self::check_index_applicable(&spec.joins[j])?;
                state.join_tables.push(JoinTable::Indexed(index));
                continue;
            }
            let parallel = !config.is_sequential()
                && config.partitions_for(state.builds[j].len()) > 1
                && !state.program.joins[j].build_key.interns();
            let table = if parallel {
                let table = state.build_join_shards(j, config);
                // Work accounting for the fan-out is derived *after* the
                // build, from the finished shards: the totals (rows scanned
                // = build side length, inserts = rows surviving build
                // filters) are then identical to a sequential build no
                // matter how many workers scanned — the determinism
                // contract of `mrq_common::workcount`.
                let inserts: usize = table
                    .shards
                    .iter()
                    .flat_map(|s| s.values())
                    .map(Vec::len)
                    .sum();
                state.out.work.scanned_rows(state.builds[j].len() as u64);
                state.out.work.built_inserts(inserts as u64);
                table
            } else {
                BuiltJoinTable::single(state.build_join_map(j))
            };
            state.join_tables.push(JoinTable::Built(Arc::new(table)));
        }
        Ok(state)
    }

    /// The hash-partitioned parallel build for join `j`, on the shared
    /// scatter/finalise recipe ([`morsel::build_hash_shards`]). Only called
    /// for build keys that never intern (checked by the caller), so no
    /// worker ever touches an interned id.
    fn build_join_shards(&self, j: usize, config: ParallelConfig) -> BuiltJoinTable {
        let join = &self.program.joins[j];
        let table = self.builds[j];
        let workers = config.partitions_for(table.len());
        let shard_count = workers.next_power_of_two();
        let bits = shard_count.trailing_zeros();
        let shards =
            morsel::build_hash_shards(table.len(), config, shard_count, |range, buckets| {
                // Chaos hook inside the morsel itself: an injected failure
                // here unwinds on a pool worker and must travel the whole
                // panic-isolation stack (payload capture → job abort →
                // submitter re-raise → per-query Internal error).
                mrq_common::fault::point_unwind("join.build.shard");
                let mut scratch = StringInterner::default(); // never used: no string reads
                let mut rows = vec![0usize; self.builds.len() + 1];
                for r in range {
                    if r.is_multiple_of(CANCEL_CHECK_ROWS) {
                        mrq_common::cancel::checkpoint();
                    }
                    rows[join.slot] = r;
                    // The root is never consulted, as in the sequential build.
                    let bound = Bound::new(table, &self.builds, &rows);
                    if !join.build_filter.passes(&bound) {
                        continue;
                    }
                    let key = join.build_key.encode(&bound, &mut scratch);
                    let shard = (shard_hash(&key) >> (64 - bits)) as usize;
                    buckets[shard].push((key, r));
                }
            });
        BuiltJoinTable { shards, bits }
    }
}
/// Runs an already-built execution state over `root` with morsel-driven
/// parallelism: the probe side is split into morsels per `config`
/// ([`mrq_common::morsel`]) — fixed-size ranges handed out by a shared
/// atomic cursor, so idle workers steal the remaining morsels — and
/// dispatched to the persistent worker pool
/// ([`mrq_common::pool::WorkerPool`]); the calling thread participates and
/// no thread is spawned per query. Each morsel runs on a fork of `base`
/// (the already-built join hash tables are shared behind an [`Arc`], so a
/// fork is cheap), and the partial states merge back into
/// `base` **in morsel order** regardless of which worker ran which morsel —
/// preserving source enumeration order for non-sorted outputs and keeping
/// results bit-identical to a sequential run.
///
/// This is the one parallel execution template every engine instantiates:
/// native row stores, managed heap tables and hybrid staged buffers only
/// differ in the `T` they plug in.
pub fn consume_partitioned<'a, T: TableAccess + Sync>(
    mut base: ExecState<'a, T>,
    root: &T,
    config: ParallelConfig,
) -> QueryOutput {
    // Lifecycle control: last cancellation point between the join builds
    // and the probe scan (the scan itself then checks between morsels; the
    // single-range path below runs uninterrupted — documented granularity).
    mrq_common::cancel::checkpoint();
    // Streaming: this runs on the thread driving the query (the one the
    // serving layer installed the query context on), so read the sink
    // here, once — morsels run under the context without it.
    if base.sink.is_none() {
        if let Some(sink) = mrq_common::context::current().and_then(|cx| cx.sink) {
            base.attach_stream_sink(sink);
        }
    }
    let ranges = morsel::morsels(root.len(), config);
    if ranges.len() <= 1 {
        base.consume(root);
        return base.finish();
    }
    // Streaming: the sink moves from the base to the ordered gather, so
    // forks run sink-free (buffering their morsel's rows) and publication
    // happens only at the in-order frontier — the row sequence the consumer
    // sees is exactly the sequential merge order.
    let sink = base.take_sink();
    let worker = |_: usize, range: Range<usize>| {
        let mut state = base.fork();
        state.consume_range(root, range);
        state
    };
    let publish = sink
        .as_ref()
        .map(|sink| |_: usize, partial: &mut ExecState<'a, T>| partial.flush_rows_to(sink));
    let partials = morsel::run_ordered(&ranges, config.threads, worker, publish);
    for partial in partials {
        base.merge(partial);
    }
    base.finish()
}

/// Convenience wrapper: executes a spec in one shot over fully materialised
/// tables. `tables[0]` is the root, `tables[1..]` follow `spec.joins` order.
///
/// Runs on the thread driving the query, so if the serving layer installed
/// a query context with a sink ([`mrq_common::context`]) and the shape is
/// streamable, rows are published incrementally at checkpoint cadence;
/// everything not yet published comes back in the returned output as the
/// residual.
pub fn execute_once<T: TableAccess>(
    spec: &QuerySpec,
    params: &[Value],
    tables: &[&T],
    slot_schemas: &[Schema],
) -> Result<QueryOutput> {
    let builds = tables[1..].to_vec();
    let mut state = ExecState::new(spec, params, builds, slot_schemas)?;
    if let Some(sink) = mrq_common::context::current().and_then(|cx| cx.sink) {
        state.attach_stream_sink(sink);
    }
    state.consume(tables[0]);
    Ok(state.finish())
}

/// A spec compiled for evaluation row by row, outside the fused loops: the
/// hybrid engine's managed side filters rows before staging them and, under
/// Min transfer, builds result rows from the original objects with it. It
/// is the same program an [`ExecState`] runs, so the two sides share one
/// set of typing rules and errors.
///
/// Every method takes the tables of all slots (`tables[s]` is slot `s`,
/// root first) and one row index per slot.
pub struct CompiledSpec<'p, T> {
    program: Program<'p, T>,
    visible_outputs: usize,
}

impl<'p, T: TableAccess + 'p> CompiledSpec<'p, T> {
    /// Compiles `spec` against `params` and the schema of every slot (root
    /// first). An ill-typed spec or too few `params` is an error.
    pub fn new(spec: &QuerySpec, params: &[Value], slot_schemas: &[Schema]) -> Result<Self> {
        // No key built here is ever compared with an execution's keys.
        let mut interner = StringInterner::default();
        Ok(CompiledSpec {
            program: Program::compile(spec, params, slot_schemas, &mut interner)?,
            visible_outputs: spec.visible_outputs(),
        })
    }

    /// Whether the root row passes the spec's root filters.
    pub fn root_filter_passes(&self, tables: &[&T], rows: &[usize]) -> bool {
        let bound = Bound::new(tables[0], &tables[1..], rows);
        self.program.root_filter.passes(&bound)
    }

    /// Whether the build row of join `join` passes that join's build filters.
    pub fn build_filter_passes(&self, join: usize, tables: &[&T], rows: &[usize]) -> bool {
        let bound = Bound::new(tables[0], &tables[1..], rows);
        self.program.joins[join].build_filter.passes(&bound)
    }

    /// The visible output row of a non-grouped spec for the given rows.
    pub fn output_row(&self, tables: &[&T], rows: &[usize]) -> Result<Vec<Value>> {
        let Emit::Rows(outputs) = &self.program.emit else {
            return Err(MrqError::Internal(
                "a grouped query has no per-row outputs".into(),
            ));
        };
        let bound = Bound::new(tables[0], &tables[1..], rows);
        Ok(outputs[..self.visible_outputs]
            .iter()
            .map(|output| output(&bound))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::lower;
    use mrq_common::{DataType, Field};
    use mrq_expr::{canonicalize, col, lam, lit, BinaryOp, Query, SourceId};
    use std::collections::HashMap;

    fn sales_schema() -> Schema {
        Schema::new(
            "Sale",
            vec![
                Field::new("id", DataType::Int64),
                Field::new("city", DataType::Str),
                Field::new("price", DataType::Decimal),
                Field::new("when", DataType::Date),
            ],
        )
    }

    fn cities_schema() -> Schema {
        Schema::new(
            "City",
            vec![
                Field::new("name", DataType::Str),
                Field::new("country", DataType::Str),
            ],
        )
    }

    fn sales_table() -> ValueTable {
        let rows = vec![
            vec![
                Value::Int64(1),
                Value::str("London"),
                Value::Decimal(Decimal::new(10, 0)),
                Value::Date(Date::from_ymd(1995, 1, 1)),
            ],
            vec![
                Value::Int64(2),
                Value::str("Paris"),
                Value::Decimal(Decimal::new(20, 0)),
                Value::Date(Date::from_ymd(1995, 2, 1)),
            ],
            vec![
                Value::Int64(3),
                Value::str("London"),
                Value::Decimal(Decimal::new(30, 0)),
                Value::Date(Date::from_ymd(1995, 3, 1)),
            ],
            vec![
                Value::Int64(4),
                Value::str("Berlin"),
                Value::Decimal(Decimal::new(40, 0)),
                Value::Date(Date::from_ymd(1995, 4, 1)),
            ],
        ];
        ValueTable::new(sales_schema(), rows)
    }

    fn cities_table() -> ValueTable {
        ValueTable::new(
            cities_schema(),
            vec![
                vec![Value::str("London"), Value::str("UK")],
                vec![Value::str("Paris"), Value::str("FR")],
                vec![Value::str("Berlin"), Value::str("DE")],
            ],
        )
    }

    fn catalog() -> HashMap<SourceId, Schema> {
        let mut map = HashMap::new();
        map.insert(SourceId(0), sales_schema());
        map.insert(SourceId(1), cities_schema());
        map
    }

    #[test]
    fn filter_and_project() {
        let q = Query::from_source(SourceId(0))
            .where_(lam(
                "s",
                Expr::binary(BinaryOp::Eq, col("s", "city"), lit("London")),
            ))
            .select(lam("s", col("s", "price")))
            .into_expr();
        use mrq_expr::Expr;
        let canon = canonicalize(q);
        let spec = lower(&canon, &catalog()).unwrap();
        let table = sales_table();
        let out = execute_once(&spec, &canon.params, &[&table], &[sales_schema()]).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0], vec![Value::Decimal(Decimal::new(10, 0))]);
        assert_eq!(out.rows[1], vec![Value::Decimal(Decimal::new(30, 0))]);
    }

    use mrq_expr::Expr;

    #[test]
    fn group_by_city_with_sum_and_count() {
        let q = Query::from_source(SourceId(0))
            .group_by(lam("s", col("s", "city")))
            .select(lam(
                "g",
                Expr::Constructor {
                    name: "R".into(),
                    fields: vec![
                        (
                            "city".into(),
                            Expr::member(Expr::member(mrq_expr::var("g"), "Key"), "city"),
                        ),
                        (
                            "total".into(),
                            mrq_expr::builder::agg(
                                mrq_expr::AggFunc::Sum,
                                "g",
                                Some(lam("x", col("x", "price"))),
                            ),
                        ),
                        (
                            "n".into(),
                            mrq_expr::builder::agg(mrq_expr::AggFunc::Count, "g", None),
                        ),
                    ],
                },
            ))
            .order_by(lam("r", col("r", "city")))
            .into_expr();
        let canon = canonicalize(q);
        let spec = lower(&canon, &catalog()).unwrap();
        let table = sales_table();
        let out = execute_once(&spec, &canon.params, &[&table], &[sales_schema()]).unwrap();
        assert_eq!(out.rows.len(), 3);
        assert_eq!(
            out.rows[1],
            vec![
                Value::str("London"),
                Value::Decimal(Decimal::new(40, 0)),
                Value::Int64(2)
            ]
        );
    }

    #[test]
    fn join_sales_to_cities() {
        let q = Query::from_source(SourceId(0))
            .join_query(
                Query::from_source(SourceId(1)).where_(lam(
                    "c",
                    Expr::binary(BinaryOp::Ne, col("c", "country"), lit("DE")),
                )),
                lam("s", col("s", "city")),
                lam("c", col("c", "name")),
                lam(
                    "s",
                    lam(
                        "c",
                        Expr::Constructor {
                            name: "SC".into(),
                            fields: vec![
                                ("id".into(), col("s", "id")),
                                ("country".into(), col("c", "country")),
                            ],
                        },
                    ),
                ),
            )
            .order_by(lam("r", col("r", "id")))
            .into_expr();
        let canon = canonicalize(q);
        let spec = lower(&canon, &catalog()).unwrap();
        let sales = sales_table();
        let cities = cities_table();
        let out = execute_once(
            &spec,
            &canon.params,
            &[&sales, &cities],
            &[sales_schema(), cities_schema()],
        )
        .unwrap();
        // Berlin sale is filtered out by the build-side filter.
        assert_eq!(out.rows.len(), 3);
        assert_eq!(out.rows[0], vec![Value::Int64(1), Value::str("UK")]);
        assert_eq!(out.rows[2], vec![Value::Int64(3), Value::str("UK")]);
    }

    #[test]
    fn sort_descending_with_take() {
        let q = Query::from_source(SourceId(0))
            .order_by_desc(lam("s", col("s", "price")))
            .select(lam("s", col("s", "id")))
            .take(2)
            .into_expr();
        let canon = canonicalize(q);
        let spec = lower(&canon, &catalog()).unwrap();
        let table = sales_table();
        let out = execute_once(&spec, &canon.params, &[&table], &[sales_schema()]).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int64(4)], vec![Value::Int64(3)]]);
        // The hidden sort column is stripped from the output.
        assert_eq!(out.schema.len(), 1);
    }

    #[test]
    fn buffered_consumption_matches_one_shot() {
        let q = Query::from_source(SourceId(0))
            .group_by(lam("s", col("s", "city")))
            .select(lam(
                "g",
                Expr::Constructor {
                    name: "R".into(),
                    fields: vec![
                        (
                            "city".into(),
                            Expr::member(Expr::member(mrq_expr::var("g"), "Key"), "city"),
                        ),
                        (
                            "total".into(),
                            mrq_expr::builder::agg(
                                mrq_expr::AggFunc::Sum,
                                "g",
                                Some(lam("x", col("x", "price"))),
                            ),
                        ),
                    ],
                },
            ))
            .order_by(lam("r", col("r", "city")))
            .into_expr();
        let canon = canonicalize(q);
        let spec = lower(&canon, &catalog()).unwrap();
        let table = sales_table();
        let one_shot = execute_once(&spec, &canon.params, &[&table], &[sales_schema()]).unwrap();

        // Split the probe side into two chunks and consume them separately.
        let rows = table.rows().to_vec();
        let chunk1 = ValueTable::new(sales_schema(), rows[..2].to_vec());
        let chunk2 = ValueTable::new(sales_schema(), rows[2..].to_vec());
        let mut state = ExecState::new(&spec, &canon.params, vec![], &[sales_schema()]).unwrap();
        state.consume(&chunk1);
        state.consume(&chunk2);
        let buffered = state.finish();
        assert_eq!(one_shot, buffered);
    }

    #[test]
    fn whole_query_count() {
        let q = Query::from_source(SourceId(0)).count().into_expr();
        let canon = canonicalize(q);
        let spec = lower(&canon, &catalog()).unwrap();
        let table = sales_table();
        let out = execute_once(&spec, &canon.params, &[&table], &[sales_schema()]).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int64(4)]]);
    }

    #[test]
    fn topn_buffer_matches_stable_sort_then_truncate() {
        let sort = vec![
            SortKeySpec {
                output_col: 0,
                descending: false,
            },
            SortKeySpec {
                output_col: 1,
                descending: true,
            },
        ];
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for i in 0..200i64 {
            rows.push(vec![
                Value::Int64(i % 7),
                Value::Int64(i % 13),
                Value::Int64(i),
            ]);
        }
        let mut topn = TopN::new(25, sort.clone());
        for row in rows.clone() {
            topn.offer(row);
        }
        let fused = topn.into_sorted_rows();

        let mut reference = rows;
        reference.sort_by(|a, b| {
            for key in &sort {
                let ord = a[key.output_col].total_cmp(&b[key.output_col]);
                let ord = if key.descending { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        reference.truncate(25);
        assert_eq!(fused, reference);
    }

    #[test]
    fn topn_with_zero_limit_retains_nothing() {
        let mut topn = TopN::new(
            0,
            vec![SortKeySpec {
                output_col: 0,
                descending: false,
            }],
        );
        topn.offer(vec![Value::Int64(1)]);
        assert!(topn.is_empty());
        assert_eq!(topn.offered(), 1);
    }

    #[test]
    fn fused_order_by_take_matches_unfused_execution() {
        let q = Query::from_source(SourceId(0))
            .order_by_desc(lam("s", col("s", "price")))
            .select(lam("s", col("s", "id")))
            .take(2)
            .into_expr();
        let canon = canonicalize(q);
        let spec = lower(&canon, &catalog()).unwrap();
        let table = sales_table();

        let mut fused = ExecState::new(&spec, &canon.params, vec![], &[sales_schema()]).unwrap();
        assert!(fused.topn_fused());
        fused.consume(&table);
        let fused_out = fused.finish();

        let mut unfused = ExecState::new(&spec, &canon.params, vec![], &[sales_schema()]).unwrap();
        unfused.disable_topn_fusion();
        assert!(!unfused.topn_fused());
        unfused.consume(&table);
        let unfused_out = unfused.finish();

        assert_eq!(fused_out, unfused_out);
        assert_eq!(
            fused_out.rows,
            vec![vec![Value::Int64(4)], vec![Value::Int64(3)]]
        );
    }

    #[test]
    fn merged_partial_states_match_sequential_execution_for_grouping() {
        let q = Query::from_source(SourceId(0))
            .group_by(lam("s", col("s", "city")))
            .select(lam(
                "g",
                Expr::Constructor {
                    name: "R".into(),
                    fields: vec![
                        (
                            "city".into(),
                            Expr::member(Expr::member(mrq_expr::var("g"), "Key"), "city"),
                        ),
                        (
                            "total".into(),
                            mrq_expr::builder::agg(
                                mrq_expr::AggFunc::Sum,
                                "g",
                                Some(lam("x", col("x", "price"))),
                            ),
                        ),
                        (
                            "avg".into(),
                            mrq_expr::builder::agg(
                                mrq_expr::AggFunc::Average,
                                "g",
                                Some(lam("x", col("x", "price"))),
                            ),
                        ),
                        (
                            "n".into(),
                            mrq_expr::builder::agg(mrq_expr::AggFunc::Count, "g", None),
                        ),
                    ],
                },
            ))
            .order_by(lam("r", col("r", "city")))
            .into_expr();
        let canon = canonicalize(q);
        let spec = lower(&canon, &catalog()).unwrap();
        let table = sales_table();
        let sequential = execute_once(&spec, &canon.params, &[&table], &[sales_schema()]).unwrap();

        let mut left = ExecState::new(&spec, &canon.params, vec![], &[sales_schema()]).unwrap();
        left.consume_range(&table, 0..2);
        let mut right = ExecState::new(&spec, &canon.params, vec![], &[sales_schema()]).unwrap();
        right.consume_range(&table, 2..table.len());
        left.merge(right);
        assert_eq!(left.consumed_rows(), 4);
        assert_eq!(left.finish(), sequential);
    }

    #[test]
    fn merged_plain_states_preserve_row_order() {
        let q = Query::from_source(SourceId(0))
            .select(lam("s", col("s", "id")))
            .into_expr();
        let canon = canonicalize(q);
        let spec = lower(&canon, &catalog()).unwrap();
        let table = sales_table();
        let mut left = ExecState::new(&spec, &canon.params, vec![], &[sales_schema()]).unwrap();
        left.consume_range(&table, 0..1);
        let mut right = ExecState::new(&spec, &canon.params, vec![], &[sales_schema()]).unwrap();
        right.consume_range(&table, 1..table.len());
        left.merge(right);
        let out = left.finish();
        assert_eq!(
            out.rows,
            (1..=4).map(|i| vec![Value::Int64(i)]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn indexed_join_matches_built_hash_table() {
        // Join sales to cities on the city name is a string key, which
        // indexes do not support; join on a synthetic integer key instead by
        // using the sales id against itself through a value table.
        let ids_schema = Schema::new(
            "Ids",
            vec![
                Field::new("key", DataType::Int64),
                Field::new("tag", DataType::Int64),
            ],
        );
        let ids = ValueTable::new(
            ids_schema.clone(),
            (1..=4)
                .map(|i| vec![Value::Int64(i), Value::Int64(i * 100)])
                .collect(),
        );
        let q = Query::from_source(SourceId(0))
            .join_query(
                Query::from_source(SourceId(1)),
                lam("s", col("s", "id")),
                lam("t", col("t", "key")),
                lam(
                    "s",
                    lam(
                        "t",
                        Expr::Constructor {
                            name: "ST".into(),
                            fields: vec![
                                ("id".into(), col("s", "id")),
                                ("tag".into(), col("t", "tag")),
                            ],
                        },
                    ),
                ),
            )
            .order_by(lam("r", col("r", "id")))
            .into_expr();
        let canon = canonicalize(q);
        let mut cat = catalog();
        cat.insert(SourceId(1), ids_schema.clone());
        let spec = lower(&canon, &cat).unwrap();
        let sales = sales_table();

        let reference = execute_once(
            &spec,
            &canon.params,
            &[&sales, &ids],
            &[sales_schema(), ids_schema.clone()],
        )
        .unwrap();

        // Build the index over the `key` column once, then execute with it.
        let mut index = JoinIndex::new();
        for row in 0..ids.len() {
            index.insert(ids.get_i64(row, 0) as u64, row);
        }
        assert_eq!(index.len(), 4);
        assert_eq!(index.distinct_keys(), 4);
        let mut state = ExecState::new_with_indexes(
            &spec,
            &canon.params,
            vec![&ids],
            &[sales_schema(), ids_schema],
            &[Some(&index)],
        )
        .unwrap();
        state.consume(&sales);
        assert_eq!(state.finish(), reference);
    }

    #[test]
    fn index_with_build_filters_is_rejected() {
        let q = Query::from_source(SourceId(0))
            .join_query(
                Query::from_source(SourceId(1)).where_(lam(
                    "c",
                    Expr::binary(BinaryOp::Ne, col("c", "country"), lit("DE")),
                )),
                lam("s", col("s", "city")),
                lam("c", col("c", "name")),
                lam(
                    "s",
                    lam(
                        "c",
                        Expr::Constructor {
                            name: "SC".into(),
                            fields: vec![("id".into(), col("s", "id"))],
                        },
                    ),
                ),
            )
            .into_expr();
        let canon = canonicalize(q);
        let spec = lower(&canon, &catalog()).unwrap();
        let cities = cities_table();
        let index = JoinIndex::new();
        let err = ExecState::new_with_indexes(
            &spec,
            &canon.params,
            vec![&cities],
            &[sales_schema(), cities_schema()],
            &[Some(&index)],
        )
        .err()
        .expect("filtered build sides cannot use an index");
        assert!(matches!(err, MrqError::Internal(_)));
    }

    #[test]
    fn partitioned_parallel_build_matches_sequential_build() {
        // Integer build keys with heavy duplication: the hash-partitioned
        // parallel build must produce identical per-key row lists (ascending
        // row order), so the joined output is bit-identical.
        let ids_schema = Schema::new(
            "Ids",
            vec![
                Field::new("key", DataType::Int64),
                Field::new("tag", DataType::Int64),
            ],
        );
        let ids = ValueTable::new(
            ids_schema.clone(),
            (0..600i64)
                .map(|i| vec![Value::Int64(i % 50), Value::Int64(i)])
                .collect(),
        );
        let big_sales_schema = Schema::new(
            "Sale",
            vec![
                Field::new("id", DataType::Int64),
                Field::new("key", DataType::Int64),
            ],
        );
        let sales = ValueTable::new(
            big_sales_schema.clone(),
            (0..2_000i64)
                .map(|i| vec![Value::Int64(i), Value::Int64(i % 64)])
                .collect(),
        );
        let q = Query::from_source(SourceId(0))
            .join_query(
                Query::from_source(SourceId(1)),
                lam("s", col("s", "key")),
                lam("t", col("t", "key")),
                lam(
                    "s",
                    lam(
                        "t",
                        Expr::Constructor {
                            name: "ST".into(),
                            fields: vec![
                                ("id".into(), col("s", "id")),
                                ("tag".into(), col("t", "tag")),
                            ],
                        },
                    ),
                ),
            )
            .into_expr();
        let canon = canonicalize(q);
        let mut cat = HashMap::new();
        cat.insert(SourceId(0), big_sales_schema.clone());
        cat.insert(SourceId(1), ids_schema.clone());
        let spec = lower(&canon, &cat).unwrap();
        let schemas = [big_sales_schema, ids_schema];

        let reference = execute_once(&spec, &canon.params, &[&sales, &ids], &schemas).unwrap();
        for threads in [2usize, 8] {
            let config = mrq_common::ParallelConfig {
                threads,
                min_rows_per_thread: 32,
                ..mrq_common::ParallelConfig::default()
            }
            .with_morsel_rows(64);
            let state = ExecState::new_parallel(
                &spec,
                &canon.params,
                vec![&ids],
                &schemas,
                &[None],
                config,
            )
            .unwrap();
            let out = consume_partitioned(state, &sales, config);
            assert_eq!(out, reference, "{threads} threads");
        }
    }

    #[test]
    fn string_build_keys_fall_back_to_the_sequential_build() {
        // A string join key must not take the partitioned path (interner ids
        // are first-seen-ordered); new_parallel falls back and matches.
        let q = Query::from_source(SourceId(0))
            .join_query(
                Query::from_source(SourceId(1)),
                lam("s", col("s", "city")),
                lam("c", col("c", "name")),
                lam(
                    "s",
                    lam(
                        "c",
                        Expr::Constructor {
                            name: "SC".into(),
                            fields: vec![
                                ("id".into(), col("s", "id")),
                                ("country".into(), col("c", "country")),
                            ],
                        },
                    ),
                ),
            )
            .into_expr();
        let canon = canonicalize(q);
        let spec = lower(&canon, &catalog()).unwrap();
        let sales = sales_table();
        let cities = cities_table();
        let schemas = [sales_schema(), cities_schema()];
        let reference = execute_once(&spec, &canon.params, &[&sales, &cities], &schemas).unwrap();
        let config = mrq_common::ParallelConfig {
            threads: 8,
            min_rows_per_thread: 1,
            ..mrq_common::ParallelConfig::default()
        };
        let state = ExecState::new_parallel(
            &spec,
            &canon.params,
            vec![&cities],
            &schemas,
            &[None],
            config,
        )
        .unwrap();
        let out = consume_partitioned(state, &sales, config);
        assert_eq!(out, reference);
    }

    #[test]
    fn sharded_join_index_round_trips() {
        let mut shards = vec![mrq_common::hash::FxHashMap::default(); 4];
        for key in 0..1_000u64 {
            let shard = JoinIndex::shard_index(key, 2);
            assert!(shard < 4);
            shards[shard]
                .entry(key)
                .or_insert_with(Vec::new)
                .push(key as usize);
        }
        let index = JoinIndex::from_shards(shards);
        assert_eq!(index.len(), 1_000);
        assert_eq!(index.distinct_keys(), 1_000);
        assert_eq!(index.shard_count(), 4);
        for key in 0..1_000u64 {
            assert_eq!(index.get(key), Some(&[key as usize][..]));
        }
        assert_eq!(index.get(5_000), None);
        // The single-shard (sequentially inserted) index agrees.
        let mut sequential = JoinIndex::new();
        for key in 0..1_000u64 {
            sequential.insert(key, key as usize);
        }
        assert_eq!(sequential.shard_count(), 1);
        for key in 0..1_000u64 {
            assert_eq!(sequential.get(key), index.get(key));
        }
    }

    #[test]
    fn string_predicates_evaluate() {
        let q = Query::from_source(SourceId(0))
            .where_(lam(
                "s",
                mrq_expr::str_method(
                    mrq_expr::QueryMethod::EndsWith,
                    col("s", "city"),
                    lit("don"),
                ),
            ))
            .count()
            .into_expr();
        let canon = canonicalize(q);
        let spec = lower(&canon, &catalog()).unwrap();
        let table = sales_table();
        let out = execute_once(&spec, &canon.params, &[&table], &[sales_schema()]).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int64(2)]]);
    }
}
