//! The combined managed/native strategy (§6): stage, then compute natively.
//!
//! Arbitrary managed collections cannot be handed to native code, so the
//! paper's third strategy generates *both* sides: managed code iterates the
//! collection, applies the filters, and copies only the columns the rest of
//! the query needs (the implicit projection of §6.1.1) into unmanaged
//! buffers; generated native code then does the heavy lifting over the
//! staged, flat data.
//!
//! §6.1.1 offers two views of a staged buffer page: an array of a generated
//! struct (row-wise, the paper's default) or one array per primitive column
//! (columnar). MRQ stages row-wise only, into the native engine's
//! [`RowStore`], so the native phase runs the same `ExecState<'_, RowStore>`
//! instantiation as the native engine. On TPC-H Q1 with full staging (SF
//! 0.05, 2 vCPUs) the two layouts measured as a tie, within noise.
//!
//! Two materialisation policies are reproduced:
//!
//! * **Full materialisation** (§6.1.1) — all qualifying rows are staged
//!   before native processing starts (large footprint, single hand-off).
//! * **Buffered materialisation** (§6.1.2) — a fixed-size buffer is staged
//!   and consumed repeatedly, keeping the footprint constant; only valid for
//!   queries whose native part can consume input incrementally (aggregation,
//!   join probe), exactly as in the paper.
//!
//! Two transfer policies for result construction are reproduced (§6.1.1,
//! §7.3):
//!
//! * **Max** — every column the query needs downstream is staged, so results
//!   are built entirely from native data.
//! * **Min** — only key/filter/aggregation columns are staged together with
//!   each row's index in the source collection; output columns are fetched
//!   from the original managed objects when results are constructed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mrq_codegen::exec::{ExecState, QueryOutput, TableAccess};
use mrq_codegen::spec::{ColumnRef, OutputExpr, QuerySpec, ScalarExpr};
use mrq_common::profile::{phases, CostBreakdown};
use mrq_common::{
    morsel, DataType, Field, MrqError, ParallelConfig, Result, Schema, Value, WorkStats,
};
use mrq_engine_csharp::HeapTable;
use mrq_engine_native::RowStore;
use std::time::{Duration, Instant};

/// How probe-side data is materialised into unmanaged memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Materialization {
    /// Stage everything, then process (§6.1.1).
    Full,
    /// Stage into a fixed-size buffer of this many rows and hand each full
    /// buffer to the native side (§6.1.2).
    Buffered {
        /// Rows per staging buffer.
        rows_per_buffer: usize,
    },
}

/// Which columns are shipped to the native side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferPolicy {
    /// Ship every column needed to build results natively.
    Max,
    /// Ship only the columns the native computation itself needs, plus the
    /// row's index; result columns are read back from the managed objects.
    Min,
}

/// Configuration of a hybrid execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HybridConfig {
    /// Materialisation policy.
    pub materialization: Materialization,
    /// Transfer policy.
    pub transfer: TransferPolicy,
    /// Degree of parallelism for staging (probe and build sides), the
    /// partitioned join build and native processing. The default
    /// ([`ParallelConfig::sequential`]) reproduces the paper's
    /// single-threaded behaviour exactly; with more threads each morsel
    /// worker filters its morsels of the managed collection (work-stolen
    /// from a shared cursor) into a thread-local staging shard and
    /// the partial native states merge in morsel order.
    pub parallel: ParallelConfig,
}

impl Default for HybridConfig {
    fn default() -> Self {
        HybridConfig {
            materialization: Materialization::Full,
            transfer: TransferPolicy::Max,
            parallel: ParallelConfig::sequential(),
        }
    }
}

impl HybridConfig {
    /// The paper's default buffer size (64 KB) expressed in rows for a
    /// typical staged row of ~32 bytes.
    pub fn buffered() -> Self {
        HybridConfig {
            materialization: Materialization::Buffered {
                rows_per_buffer: 2048,
            },
            ..HybridConfig::default()
        }
    }

    /// The same configuration with the given degree of parallelism.
    pub fn parallel(mut self, config: ParallelConfig) -> Self {
        self.parallel = config;
        self
    }

    /// The same configuration with `threads` morsel workers.
    pub fn with_threads(self, threads: usize) -> Self {
        self.parallel(ParallelConfig {
            threads: threads.max(1),
            min_rows_per_thread: 1024,
            ..ParallelConfig::default()
        })
    }
}

/// The outcome of a hybrid execution: the result plus the cost breakdown the
/// paper's Figures 8, 10 and 12 report, and the staging footprint.
#[derive(Debug, Clone)]
pub struct HybridRun {
    /// Query result.
    pub output: QueryOutput,
    /// Per-phase wall-clock breakdown.
    pub breakdown: CostBreakdown,
    /// Bytes copied into unmanaged staging buffers.
    pub staged_bytes: usize,
    /// Rows that qualified on the managed side and were staged.
    pub staged_rows: usize,
}

/// Which columns of the original spec are needed natively, in Min mode.
fn native_columns(spec: &QuerySpec, slot: usize, transfer: TransferPolicy) -> Vec<usize> {
    match transfer {
        TransferPolicy::Max => spec.referenced_columns(slot),
        TransferPolicy::Min => {
            // Keys, group keys, aggregate inputs and post filters must be
            // native; plain output columns are looked up from managed objects
            // at result-construction time.
            let mut cols = Vec::new();
            let mut push = |e: &ScalarExpr| {
                let mut refs = Vec::new();
                e.columns(&mut refs);
                for r in refs {
                    if r.slot == slot && !cols.contains(&r.col) {
                        cols.push(r.col);
                    }
                }
            };
            for j in &spec.joins {
                for e in j.build_keys.iter().chain(j.probe_keys.iter()) {
                    push(e);
                }
            }
            for e in spec.post_filters.iter().chain(spec.group_keys.iter()) {
                push(e);
            }
            for a in &spec.aggregates {
                if let Some(e) = &a.input {
                    push(e);
                }
            }
            // Sort keys live in the output; grouped outputs are computed
            // natively anyway. For non-grouped queries sort keys must also be
            // native.
            if !spec.is_grouped() {
                for k in &spec.sort {
                    if let OutputExpr::Scalar(e) = &spec.output[k.output_col].1 {
                        push(e);
                    }
                }
            }
            cols.sort_unstable();
            cols
        }
    }
}

/// Builds the staged schema for one slot: the projected columns (renamed to
/// their original names) plus, in Min mode, a trailing `__idx` column.
fn staged_schema(
    original: &Schema,
    cols: &[usize],
    with_index: bool,
    slot: usize,
) -> (Schema, Vec<(usize, usize)>) {
    let mut fields = Vec::new();
    let mut mapping = Vec::new(); // (original col, staged col)
    for (staged_idx, &col) in cols.iter().enumerate() {
        fields.push(original.field(col).clone());
        mapping.push((col, staged_idx));
    }
    if with_index {
        fields.push(Field::new("__idx", DataType::Int64));
    }
    (Schema::new(format!("Staged{slot}"), fields), mapping)
}

struct SlotStaging {
    /// original column -> staged column
    mapping: Vec<(usize, usize)>,
    schema: Schema,
    /// index of the `__idx` column, if present
    index_col: Option<usize>,
}

/// Executes a query with the hybrid strategy.
///
/// `tables[0]` is the managed probe-side collection; following tables match
/// `spec.joins` order. Filters on slot 0 and on join build sides are applied
/// on the managed side before staging, as in the paper.
pub fn execute(
    spec: &QuerySpec,
    params: &[Value],
    tables: &[&HeapTable<'_>],
    config: HybridConfig,
) -> Result<HybridRun> {
    if tables.len() != spec.joins.len() + 1 {
        return Err(MrqError::Internal(format!(
            "expected {} tables, got {}",
            spec.joins.len() + 1,
            tables.len()
        )));
    }
    // Managed-side staging filters evaluate parameters before the ExecState
    // guard runs, so under-bound prepared executions must fail here.
    spec.check_params(params)?;
    let mut breakdown = CostBreakdown::new();
    let min_mode = config.transfer == TransferPolicy::Min;
    // Min-mode result reconstruction from managed objects is only defined for
    // non-grouped queries (the paper uses it for sorting and the plain join);
    // grouped queries fall back to Max.
    let min_mode = min_mode && !spec.is_grouped();

    // ------------------------------------------------------------------
    // Plan the staging: per slot, which columns are shipped.
    // ------------------------------------------------------------------
    let mut slots: Vec<SlotStaging> = Vec::new();
    #[allow(clippy::needless_range_loop)]
    for slot in 0..=spec.joins.len() {
        let cols = native_columns(
            spec,
            slot,
            if min_mode {
                TransferPolicy::Min
            } else {
                TransferPolicy::Max
            },
        );
        let (schema, mapping) = staged_schema(tables[slot].schema(), &cols, min_mode, slot);
        let index_col = min_mode.then(|| schema.len() - 1);
        slots.push(SlotStaging {
            mapping,
            schema,
            index_col,
        });
    }

    // ------------------------------------------------------------------
    // Rewrite the spec against the staged layouts.
    // ------------------------------------------------------------------
    let remap = |c: ColumnRef| -> ColumnRef {
        let staged = &slots[c.slot];
        match staged.mapping.iter().find(|(orig, _)| *orig == c.col) {
            Some((_, staged_col)) => ColumnRef {
                slot: c.slot,
                col: *staged_col,
            },
            None => ColumnRef {
                slot: c.slot,
                col: usize::MAX, // unresolved: only legal for Min-mode outputs
            },
        }
    };
    let remap_expr = |e: &ScalarExpr| e.remap_columns(&remap);

    let mut native_spec = spec.clone();
    native_spec.root_filters.clear();
    for (j, join) in native_spec.joins.iter_mut().enumerate() {
        join.build_filters.clear();
        join.build_keys = spec.joins[j].build_keys.iter().map(remap_expr).collect();
        join.probe_keys = spec.joins[j].probe_keys.iter().map(remap_expr).collect();
    }
    native_spec.post_filters = spec.post_filters.iter().map(remap_expr).collect();
    native_spec.group_keys = spec.group_keys.iter().map(remap_expr).collect();
    for (a, orig) in native_spec
        .aggregates
        .iter_mut()
        .zip(spec.aggregates.iter())
    {
        a.input = orig.input.as_ref().map(remap_expr);
    }
    // Outputs: in Max mode, remap; in Min mode, replace plain scalar outputs
    // with the per-slot index columns and remember how to rebuild them.
    let mut min_output_slots: Vec<usize> = Vec::new();
    if min_mode {
        // Ship one index column per slot that any output references.
        let mut referenced_slots: Vec<usize> = Vec::new();
        for (_, o) in &spec.output {
            if let OutputExpr::Scalar(e) = o {
                let mut refs = Vec::new();
                e.columns(&mut refs);
                for r in refs {
                    if !referenced_slots.contains(&r.slot) {
                        referenced_slots.push(r.slot);
                    }
                }
            }
        }
        referenced_slots.sort_unstable();
        min_output_slots = referenced_slots;
        native_spec.output = min_output_slots
            .iter()
            .map(|&slot| {
                (
                    format!("__idx_{slot}"),
                    OutputExpr::Scalar(ScalarExpr::Column(ColumnRef {
                        slot,
                        col: slots[slot].index_col.expect("min mode has index columns"),
                    })),
                )
            })
            .collect();
        // Sort keys must be re-pointed at native columns appended after the
        // index outputs.
        let mut new_sort = Vec::new();
        for key in &spec.sort {
            if let OutputExpr::Scalar(e) = &spec.output[key.output_col].1 {
                native_spec.output.push((
                    format!("__sortkey_{}", key.output_col),
                    OutputExpr::Scalar(remap_expr(e)),
                ));
                new_sort.push(mrq_codegen::spec::SortKeySpec {
                    output_col: native_spec.output.len() - 1,
                    descending: key.descending,
                });
            }
        }
        native_spec.sort = new_sort;
        native_spec.hidden_outputs = 0;
        native_spec.output_schema = Schema::new(
            "MinStagedResult",
            native_spec
                .output
                .iter()
                .map(|(name, _)| Field::new(name.clone(), DataType::Int64))
                .collect(),
        );
    } else {
        for (_, o) in native_spec.output.iter_mut() {
            if let OutputExpr::Scalar(e) = o {
                *o = OutputExpr::Scalar(remap_expr(e));
            }
        }
    }

    // ------------------------------------------------------------------
    // Stage build sides (full materialisation always: hash tables need the
    // whole build input, §6.1.2).
    // ------------------------------------------------------------------
    let mut staged_bytes = 0usize;
    let mut staged_rows = 0usize;
    // Managed-side work accounting (`mrq_common::workcount`): the staging
    // scans and copies happen outside the native executor's fused loops, so
    // they are tallied here and folded into the execution state below.
    // Totals are derived from input/output lengths, not per-worker counts,
    // so they are identical whatever `config.parallel` says.
    let mut staging_work = WorkStats::default();
    let mut build_stores: Vec<RowStore> = Vec::new();
    for join in &spec.joins {
        let table = tables[join.slot];
        let store = breakdown.time(phases::STAGING, || {
            stage_table(
                table,
                &slots[join.slot],
                &join.build_filters,
                params,
                config.parallel,
            )
        });
        staged_bytes += store.payload_bytes();
        staged_rows += store.len();
        staging_work.scanned_rows(table.len() as u64);
        staging_work.staged_rows(store.len() as u64);
        build_stores.push(store);
    }

    // ------------------------------------------------------------------
    // Execute: stage the probe side (fully or buffered) and consume it.
    // Sequentially with one staging buffer, or morsel-parallel with one
    // thread-local staging shard per worker.
    // ------------------------------------------------------------------
    let slot_schemas: Vec<Schema> = slots.iter().map(|s| s.schema.clone()).collect();
    let build_refs: Vec<&RowStore> = build_stores.iter().collect();
    // Join hash tables over the staged build sides are themselves built
    // with hash-partitioned parallel workers (string build keys fall back
    // to the sequential build inside the executor).
    let none = vec![None; native_spec.joins.len()];
    let mut state = breakdown.time(phases::BUILD_HASH, || {
        ExecState::new_parallel(
            &native_spec,
            params,
            build_refs,
            &slot_schemas,
            &none,
            config.parallel,
        )
    })?;
    state.record_work(&staging_work);

    // Streaming: attach the serving layer's sink (if any) for incremental
    // publication while later morsels still stage. Min-transfer native rows
    // are `__idx_*` heap handles, not final output rows — they must be
    // rebuilt from the managed collections after the native pass — so Min
    // mode always delivers through the stream's residual output instead.
    if !min_mode {
        if let Some(sink) = mrq_common::stream::current() {
            state.attach_stream_sink(sink);
        }
    }

    let root = tables[0];
    let root_staging = &slots[0];
    let phase = native_phase(spec);

    /// Per-worker staging + consumption totals for one morsel range.
    struct RangeRun {
        /// Peak bytes live in this worker's staging buffer(s).
        staged_bytes: usize,
        staged_rows: usize,
        staging_time: Duration,
        native_time: Duration,
    }

    // Stages one contiguous row range into a worker-local buffer (one shard
    // under full materialisation, a reused fixed-size buffer under buffered
    // materialisation) and feeds it to `worker_state`. Shared by the
    // sequential path (on `state` directly) and every morsel worker (on a
    // fork of `state`). Staged `__idx` columns (Min transfer) hold absolute
    // row indexes, so Min-mode result reconstruction is oblivious to the
    // partitioning.
    let run_range = |worker_state: &mut ExecState<'_, RowStore>,
                     range: std::ops::Range<usize>|
     -> RangeRun {
        let mut run = RangeRun {
            staged_bytes: 0,
            staged_rows: 0,
            staging_time: Duration::ZERO,
            native_time: Duration::ZERO,
        };
        let chunk = match config.materialization {
            Materialization::Full => range.len().max(1),
            Materialization::Buffered { rows_per_buffer } => rows_per_buffer.max(1),
        };
        let mut cursor = range.start;
        loop {
            let end = (cursor + chunk).min(range.end);
            let start = Instant::now();
            let buffer = stage_range(root, cursor..end, root_staging, &spec.root_filters, params);
            run.staging_time += start.elapsed();
            run.staged_bytes = run.staged_bytes.max(buffer.payload_bytes());
            run.staged_rows += buffer.len();
            // Managed probe-side staging work: rows scanned from the managed
            // collection plus rows copied into the shard. The chunked
            // `consume` below then accounts the native scan of the staged
            // rows itself.
            worker_state.record_work(&WorkStats {
                rows_scanned: (end - cursor) as u64,
                staging_copies: buffer.len() as u64,
                ..WorkStats::default()
            });
            let start = Instant::now();
            worker_state.consume(&buffer);
            run.native_time += start.elapsed();
            cursor = end;
            if cursor >= range.end {
                break;
            }
        }
        run
    };

    // Lifecycle control: a cancelled/expired query stops between the
    // build-side staging above and the probe-side staging loop below (the
    // morsel fan-out then checks between morsels).
    mrq_common::cancel::checkpoint();
    let ranges = morsel::morsels(root.len(), config.parallel);
    if ranges.len() <= 1 {
        // Sequential (or single-morsel) fast path: no fork, no merge.
        let run = run_range(&mut state, 0..root.len());
        staged_bytes += run.staged_bytes;
        staged_rows += run.staged_rows;
        breakdown.add(phases::STAGING, run.staging_time);
        breakdown.add(phase, run.native_time);
    } else {
        // Morsel-parallel staging: every worker filters its morsel of the
        // managed collection into a thread-local `RowStore` shard and
        // immediately consumes it with a forked native state.
        // Workers come from the persistent pool; morsels come from the
        // pool's shared cursor; join hash tables were built once above and
        // are shared behind an `Arc`. Partial states merge in morsel order,
        // so result row order matches the sequential path exactly.
        // Streaming: the sink moves from the base state to the ordered
        // gather (forks never inherit it), so each shard's rows publish the
        // moment every earlier morsel has published — the same in-order
        // frontier the merge below reproduces.
        let sink = state.take_sink();
        let work = |_: usize, range: std::ops::Range<usize>| {
            let mut worker_state = state.fork();
            let run = run_range(&mut worker_state, range);
            (worker_state, run)
        };
        let publish = sink.as_ref().map(|sink| {
            |_: usize, partial: &mut (ExecState<'_, RowStore>, RangeRun)| {
                partial.0.flush_rows_to(sink)
            }
        });
        let partials = morsel::run_ordered(&ranges, config.parallel.threads, work, publish);
        // Per-phase wall-clock is estimated as the slowest single morsel or
        // the ideal per-worker share of the total, whichever is larger;
        // footprint is the sum of concurrently live shards.
        let workers = config.parallel.threads.min(ranges.len()).max(1) as u32;
        let mut max_staging = Duration::ZERO;
        let mut max_native = Duration::ZERO;
        let mut sum_staging = Duration::ZERO;
        let mut sum_native = Duration::ZERO;
        for (partial, run) in partials {
            state.merge(partial);
            staged_bytes += run.staged_bytes;
            staged_rows += run.staged_rows;
            max_staging = max_staging.max(run.staging_time);
            max_native = max_native.max(run.native_time);
            sum_staging += run.staging_time;
            sum_native += run.native_time;
        }
        breakdown.add(phases::STAGING, max_staging.max(sum_staging / workers));
        breakdown.add(phase, max_native.max(sum_native / workers));
    }

    // The staging→native boundary: every staged shard has merged into the
    // final state. Chaos tests inject here to prove a failure between
    // staging and finishing leaves peers and the pool untouched.
    mrq_common::fault::point("staging.merge")?;

    // ------------------------------------------------------------------
    // Finish natively, then (Min mode) rebuild result objects from the
    // original managed collections.
    // ------------------------------------------------------------------
    let native_out = breakdown.time(native_phase(spec), || state.finish());
    let output = if min_mode {
        breakdown.time(phases::RETURN_RESULT, || {
            rebuild_min_output(spec, params, tables, &min_output_slots, native_out)
        })?
    } else {
        breakdown.time(phases::RETURN_RESULT, || {
            // Result rows are already final; cloning them into the output is
            // the (small) result-construction cost.
            Ok::<QueryOutput, MrqError>(native_out)
        })?
    };

    Ok(HybridRun {
        output,
        breakdown,
        staged_bytes,
        staged_rows,
    })
}

/// Picks the phase label for the native part of a query (matching the
/// paper's breakdown figures).
fn native_phase(spec: &QuerySpec) -> &'static str {
    if !spec.joins.is_empty() {
        if spec.is_grouped() {
            phases::PROBE_RETURN
        } else {
            phases::BUILD_HASH
        }
    } else if spec.is_grouped() {
        phases::AGGREGATION
    } else if !spec.sort.is_empty() {
        phases::SORT
    } else {
        phases::PROBE_RETURN
    }
}

/// Stages qualifying rows of a managed build-side table. Morsel workers run
/// the managed-side filter evaluation and column reads (the expensive part
/// of staging) over morsels of the collection, each into its own shard, and
/// the shards are appended in morsel order — so the staged store is
/// byte-identical to a sequential pass. Sequential configs and tiny tables
/// stage in one morsel on the calling thread.
fn stage_table(
    table: &HeapTable<'_>,
    staging: &SlotStaging,
    filters: &[ScalarExpr],
    params: &[Value],
    config: ParallelConfig,
) -> RowStore {
    let mut shards = morsel::dispatch(table.len(), config, |_, range| {
        stage_range(table, range, staging, filters, params)
    })
    .into_iter();
    let mut store = shards.next().expect("at least one morsel");
    for shard in shards {
        store.append(shard);
    }
    store
}

/// Stages qualifying rows of a range of a managed table into a new store.
fn stage_range(
    table: &HeapTable<'_>,
    range: std::ops::Range<usize>,
    staging: &SlotStaging,
    filters: &[ScalarExpr],
    params: &[Value],
) -> RowStore {
    let mut store = RowStore::new(staging.schema.clone());
    let mut row_buf: Vec<Value> = vec![Value::Null; staging.schema.len()];
    'rows: for row in range {
        // Intra-morsel cancellation cadence, shared with every fused loop:
        // a no-op outside a cancel scope.
        if row.is_multiple_of(mrq_common::cancel::CHECK_EVERY_ROWS) {
            mrq_common::cancel::checkpoint();
        }
        for f in filters {
            if !eval_managed_predicate(f, table, row, params) {
                continue 'rows;
            }
        }
        for (orig, staged) in &staging.mapping {
            row_buf[*staged] = table.get_value(row, *orig);
        }
        if let Some(idx_col) = staging.index_col {
            row_buf[idx_col] = Value::Int64(row as i64);
        }
        store.push_values(&row_buf);
    }
    store
}

/// Evaluates a single-slot predicate against a managed table row. This is
/// the "apply predicates in C#" part of the hybrid strategy.
fn eval_managed_predicate(
    expr: &ScalarExpr,
    table: &HeapTable<'_>,
    row: usize,
    params: &[Value],
) -> bool {
    eval_managed_value(expr, table, row, params).as_bool()
}

fn eval_managed_value(
    expr: &ScalarExpr,
    table: &HeapTable<'_>,
    row: usize,
    params: &[Value],
) -> Value {
    match expr {
        ScalarExpr::Column(c) => table.get_value(row, c.col),
        ScalarExpr::Const(v) => v.clone(),
        ScalarExpr::Param(i) => params[*i].clone(),
        ScalarExpr::Binary { op, left, right } => {
            let l = eval_managed_value(left, table, row, params);
            let r = eval_managed_value(right, table, row, params);
            mrq_expr::canonical::eval_binary(*op, &l, &r).unwrap_or(Value::Bool(false))
        }
        ScalarExpr::Unary { op, expr } => {
            let v = eval_managed_value(expr, table, row, params);
            mrq_expr::canonical::eval_unary(*op, &v).unwrap_or(Value::Bool(false))
        }
        ScalarExpr::Str { op, target, arg } => {
            let t = eval_managed_value(target, table, row, params);
            let a = eval_managed_value(arg, table, row, params);
            let out = match (t.as_str(), a.as_str()) {
                (Some(t), Some(a)) => match op {
                    mrq_codegen::spec::StrOp::StartsWith => t.starts_with(a),
                    mrq_codegen::spec::StrOp::EndsWith => t.ends_with(a),
                    mrq_codegen::spec::StrOp::Contains => t.contains(a),
                },
                _ => false,
            };
            Value::Bool(out)
        }
    }
}

/// Min-mode result reconstruction: native execution produced, per result
/// row, the index of the original managed object(s); the real output columns
/// are read back from those objects.
fn rebuild_min_output(
    spec: &QuerySpec,
    params: &[Value],
    tables: &[&HeapTable<'_>],
    output_slots: &[usize],
    native_out: QueryOutput,
) -> Result<QueryOutput> {
    let work = native_out.work;
    let mut rows = Vec::with_capacity(native_out.rows.len());
    for native_row in &native_out.rows {
        // Map slot -> original row index.
        let mut slot_rows = vec![0usize; spec.joins.len() + 1];
        for (pos, &slot) in output_slots.iter().enumerate() {
            slot_rows[slot] = native_row[pos]
                .as_i64()
                .ok_or_else(|| MrqError::Internal("missing index column".into()))?
                as usize;
        }
        let mut row = Vec::with_capacity(spec.visible_outputs());
        for (_, o) in spec.output.iter().take(spec.visible_outputs()) {
            match o {
                OutputExpr::Scalar(e) => {
                    row.push(eval_multi_slot_value(e, tables, &slot_rows, params))
                }
                _ => {
                    return Err(MrqError::Internal(
                        "min mode requires scalar outputs".into(),
                    ))
                }
            }
        }
        rows.push(row);
    }
    Ok(QueryOutput {
        schema: spec.output_schema.clone(),
        rows,
        work,
    })
}

fn eval_multi_slot_value(
    expr: &ScalarExpr,
    tables: &[&HeapTable<'_>],
    slot_rows: &[usize],
    params: &[Value],
) -> Value {
    match expr {
        ScalarExpr::Column(c) => tables[c.slot].get_value(slot_rows[c.slot], c.col),
        ScalarExpr::Const(v) => v.clone(),
        ScalarExpr::Param(i) => params[*i].clone(),
        ScalarExpr::Binary { op, left, right } => {
            let l = eval_multi_slot_value(left, tables, slot_rows, params);
            let r = eval_multi_slot_value(right, tables, slot_rows, params);
            mrq_expr::canonical::eval_binary(*op, &l, &r).unwrap_or(Value::Null)
        }
        ScalarExpr::Unary { op, expr } => {
            let v = eval_multi_slot_value(expr, tables, slot_rows, params);
            mrq_expr::canonical::eval_unary(*op, &v).unwrap_or(Value::Null)
        }
        ScalarExpr::Str { .. } => Value::Bool(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrq_codegen::spec::lower;
    use mrq_common::{Date, Decimal};
    use mrq_expr::{canonicalize, col, lam, lit, BinaryOp, Expr, Query, SourceId};
    use mrq_mheap::{ClassDesc, Heap, ListId};
    use std::collections::HashMap;

    fn schema() -> Schema {
        Schema::new(
            "Sale",
            vec![
                Field::new("id", DataType::Int64),
                Field::new("city", DataType::Str),
                Field::new("price", DataType::Decimal),
                Field::new("day", DataType::Date),
            ],
        )
    }

    fn setup(n: i64) -> (Heap, ListId) {
        let mut heap = Heap::new();
        let class = heap.register_class(ClassDesc::from_schema(&schema()));
        let list = heap.new_list("sales", Some(class));
        for i in 0..n {
            let obj = heap.alloc(class);
            heap.set_i64(obj, 0, i);
            heap.set_str(obj, 1, if i % 3 == 0 { "London" } else { "Paris" });
            heap.set_decimal(obj, 2, Decimal::from_int(i % 10));
            heap.set_date(
                obj,
                3,
                Date::from_ymd(1995, 1, 1).add_days((i % 300) as i32),
            );
            heap.list_push(list, obj);
        }
        (heap, list)
    }

    fn agg_query() -> mrq_expr::CanonicalQuery {
        canonicalize(
            Query::from_source(SourceId(0))
                .where_(lam(
                    "s",
                    Expr::binary(BinaryOp::Eq, col("s", "city"), lit("London")),
                ))
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
                .into_expr(),
        )
    }

    #[test]
    fn full_and_buffered_materialisation_agree_with_the_managed_engine() {
        let (heap, list) = setup(500);
        let mut catalog = HashMap::new();
        catalog.insert(SourceId(0), schema());
        let canon = agg_query();
        let spec = lower(&canon, &catalog).unwrap();
        let table = HeapTable::new(&heap, list, schema());

        let reference = mrq_engine_csharp::execute(&spec, &canon.params, &[&table]).unwrap();
        let full = execute(&spec, &canon.params, &[&table], HybridConfig::default()).unwrap();
        let buffered = execute(
            &spec,
            &canon.params,
            &[&table],
            HybridConfig {
                materialization: Materialization::Buffered {
                    rows_per_buffer: 64,
                },
                transfer: TransferPolicy::Max,
                ..HybridConfig::default()
            },
        )
        .unwrap();
        assert_eq!(full.output, reference);
        assert_eq!(buffered.output, reference);
        assert!(full.staged_rows > 0);
        assert!(full.staged_bytes > 0);
        // Buffered staging never holds more than one buffer's worth of data.
        assert!(buffered.staged_bytes <= full.staged_bytes);
        // Both record staging and native phases.
        assert!(full.breakdown.get(phases::STAGING).is_some());
        assert!(full.breakdown.get(phases::AGGREGATION).is_some());
    }

    #[test]
    fn implicit_projection_stages_only_referenced_columns() {
        let (heap, list) = setup(100);
        let mut catalog = HashMap::new();
        catalog.insert(SourceId(0), schema());
        let canon = agg_query();
        let spec = lower(&canon, &catalog).unwrap();
        // The aggregation touches city and price only (plus the filter on
        // city), so the staged schema must have exactly those two columns.
        assert_eq!(spec.referenced_columns(0), vec![1, 2]);
        let table = HeapTable::new(&heap, list, schema());
        let run = execute(&spec, &canon.params, &[&table], HybridConfig::default()).unwrap();
        // 100/3 rows qualify, two columns staged.
        assert_eq!(run.staged_rows, 34);
    }

    #[test]
    fn parallel_staging_matches_sequential_for_every_policy() {
        let (heap, list) = setup(3_000);
        let mut catalog = HashMap::new();
        catalog.insert(SourceId(0), schema());
        let canon = agg_query();
        let spec = lower(&canon, &catalog).unwrap();
        let table = HeapTable::new(&heap, list, schema());
        for base in [HybridConfig::default(), HybridConfig::buffered()] {
            let sequential = execute(&spec, &canon.params, &[&table], base).unwrap();
            for threads in [2usize, 4, 8] {
                let config = base.parallel(ParallelConfig {
                    threads,
                    min_rows_per_thread: 64,
                    ..ParallelConfig::default()
                });
                let parallel = execute(&spec, &canon.params, &[&table], config).unwrap();
                assert_eq!(
                    parallel.output, sequential.output,
                    "{base:?} at {threads} threads"
                );
                assert_eq!(parallel.staged_rows, sequential.staged_rows);
                if base.materialization == Materialization::Full {
                    assert_eq!(parallel.staged_bytes, sequential.staged_bytes);
                }
                assert!(parallel.breakdown.get(phases::STAGING).is_some());
            }
        }
    }

    #[test]
    fn parallel_build_staging_matches_sequential_for_a_two_list_join() {
        let store_schema = Schema::new(
            "Store",
            vec![
                Field::new("id", DataType::Int64),
                Field::new("name", DataType::Str),
                Field::new("region", DataType::Str),
            ],
        );
        let (mut heap, sales) = setup(3_000);
        let class = heap.register_class(ClassDesc::from_schema(&store_schema));
        let stores = heap.new_list("stores", Some(class));
        for i in 0..2_000i64 {
            let obj = heap.alloc(class);
            heap.set_i64(obj, 0, i);
            heap.set_str(obj, 1, &format!("store-{i}"));
            heap.set_str(obj, 2, if i % 2 == 0 { "North" } else { "South" });
            heap.list_push(stores, obj);
        }
        let mut catalog = HashMap::new();
        catalog.insert(SourceId(0), schema());
        catalog.insert(SourceId(1), store_schema.clone());
        // The build side is filtered on the managed side and stages a
        // string column, so its shards exercise `RowStore::append`.
        let canon = canonicalize(
            Query::from_source(SourceId(0))
                .join_query(
                    Query::from_source(SourceId(1)).where_(lam(
                        "t",
                        Expr::binary(BinaryOp::Eq, col("t", "region"), lit("North")),
                    )),
                    lam("s", col("s", "id")),
                    lam("t", col("t", "id")),
                    lam(
                        "s",
                        lam(
                            "t",
                            Expr::Constructor {
                                name: "Out".into(),
                                fields: vec![
                                    ("id".into(), col("s", "id")),
                                    ("store".into(), col("t", "name")),
                                    ("price".into(), col("s", "price")),
                                ],
                            },
                        ),
                    ),
                )
                .into_expr(),
        );
        let spec = lower(&canon, &catalog).unwrap();
        let tables = [
            HeapTable::new(&heap, sales, schema()),
            HeapTable::new(&heap, stores, store_schema),
        ];
        let refs: Vec<&HeapTable<'_>> = tables.iter().collect();
        let reference = mrq_engine_csharp::execute(&spec, &canon.params, &refs).unwrap();
        let sequential = execute(&spec, &canon.params, &refs, HybridConfig::default()).unwrap();
        assert_eq!(sequential.output, reference);
        assert_eq!(sequential.output.rows.len(), 1_000);
        for threads in [1usize, 2, 8] {
            let config = HybridConfig::default().parallel(ParallelConfig {
                threads,
                min_rows_per_thread: 64,
                ..ParallelConfig::default()
            });
            let run = execute(&spec, &canon.params, &refs, config).unwrap();
            assert_eq!(run.output, sequential.output, "{threads} threads");
            assert_eq!(run.staged_rows, sequential.staged_rows, "{threads} threads");
            assert_eq!(
                run.staged_bytes, sequential.staged_bytes,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn parallel_min_transfer_rebuilds_from_absolute_indexes() {
        let (heap, list) = setup(2_000);
        let mut catalog = HashMap::new();
        catalog.insert(SourceId(0), schema());
        // Sort query: Min transfer stages sort keys + row indexes only and
        // rebuilds output columns from the managed objects afterwards.
        let canon = canonicalize(
            Query::from_source(SourceId(0))
                .where_(lam(
                    "s",
                    Expr::binary(
                        BinaryOp::Le,
                        col("s", "day"),
                        lit(Date::from_ymd(1995, 6, 1)),
                    ),
                ))
                .order_by(lam("s", col("s", "id")))
                .select(lam(
                    "s",
                    Expr::Constructor {
                        name: "Out".into(),
                        fields: vec![
                            ("id".into(), col("s", "id")),
                            ("city".into(), col("s", "city")),
                            ("price".into(), col("s", "price")),
                        ],
                    },
                ))
                .into_expr(),
        );
        let spec = lower(&canon, &catalog).unwrap();
        let table = HeapTable::new(&heap, list, schema());
        let min = HybridConfig {
            transfer: TransferPolicy::Min,
            ..HybridConfig::default()
        };
        let sequential = execute(&spec, &canon.params, &[&table], min).unwrap();
        for threads in [2usize, 8] {
            let parallel = execute(
                &spec,
                &canon.params,
                &[&table],
                min.parallel(ParallelConfig {
                    threads,
                    min_rows_per_thread: 32,
                    ..ParallelConfig::default()
                }),
            )
            .unwrap();
            assert_eq!(parallel.output, sequential.output, "{threads} threads");
        }
    }

    #[test]
    fn min_transfer_reconstructs_results_from_managed_objects() {
        let (heap, list) = setup(200);
        let mut catalog = HashMap::new();
        catalog.insert(SourceId(0), schema());
        // Sort query in the style of §7.2: filter, sort by price, project.
        let canon = canonicalize(
            Query::from_source(SourceId(0))
                .where_(lam(
                    "s",
                    Expr::binary(
                        BinaryOp::Le,
                        col("s", "day"),
                        lit(Date::from_ymd(1995, 6, 1)),
                    ),
                ))
                .order_by(lam("s", col("s", "price")))
                .select(lam(
                    "s",
                    Expr::Constructor {
                        name: "Out".into(),
                        fields: vec![
                            ("id".into(), col("s", "id")),
                            ("city".into(), col("s", "city")),
                            ("price".into(), col("s", "price")),
                        ],
                    },
                ))
                .into_expr(),
        );
        let spec = lower(&canon, &catalog).unwrap();
        let table = HeapTable::new(&heap, list, schema());
        let reference = mrq_engine_csharp::execute(&spec, &canon.params, &[&table]).unwrap();
        let min = execute(
            &spec,
            &canon.params,
            &[&table],
            HybridConfig {
                materialization: Materialization::Full,
                transfer: TransferPolicy::Min,
                ..HybridConfig::default()
            },
        )
        .unwrap();
        let max = execute(
            &spec,
            &canon.params,
            &[&table],
            HybridConfig {
                materialization: Materialization::Full,
                transfer: TransferPolicy::Max,
                ..HybridConfig::default()
            },
        )
        .unwrap();
        assert_eq!(min.output.rows.len(), reference.rows.len());
        assert_eq!(max.output, reference);
        // Sorting is by price with duplicate keys, so compare as multisets of
        // (price, id) pairs after verifying the price ordering.
        let prices: Vec<&Value> = min.output.rows.iter().map(|r| &r[2]).collect();
        assert!(prices.windows(2).all(|w| w[0] <= w[1]));
        let mut got: Vec<String> = min.output.rows.iter().map(|r| format!("{:?}", r)).collect();
        let mut want: Vec<String> = reference.rows.iter().map(|r| format!("{:?}", r)).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
        // Min ships fewer bytes than Max (it stages price + index instead of
        // id, city and price).
        assert!(min.staged_bytes < max.staged_bytes);
    }
}
