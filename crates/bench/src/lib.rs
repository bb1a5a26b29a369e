//! Benchmark harness: shared setup plus one function per paper figure/table.
//!
//! The `figures` binary (`cargo run -p mrq-bench --release --bin figures -- all`)
//! prints every series; the Criterion benches under `benches/` wrap the same
//! functions for statistically sound timing of individual points.
//!
//! Scale factor: the paper uses TPC-H SF 1 (≈6 M lineitem rows). The harness
//! defaults to a much smaller factor so a full reproduction run finishes on
//! laptop hardware; the factor is printed with every series and can be
//! overridden with the `MRQ_SF` environment variable
//! ([`mrq_tpch::gen::scale_from_env`]; `figures` exits with status 2 on an
//! invalid value). Relative behaviour — which strategy wins and by roughly
//! how much — is what the figures compare.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mrq_cachesim::CacheSim;
use mrq_codegen::exec::{QueryOutput, ValueTable};
use mrq_codegen::spec::{lower, QuerySpec};
use mrq_common::profile::CostBreakdown;
use mrq_common::{ParallelConfig, Schema, WorkStats};
use mrq_core::{Provider, QueryOptions, QueryStream, Strategy};
use mrq_dbms::ColumnTable;
use mrq_engine_csharp::{HeapTable, TracedHeapTable};
use mrq_engine_hybrid::{HybridConfig, Materialization, TransferPolicy};
use mrq_engine_native::RowStore;
use mrq_expr::{canonicalize, CanonicalQuery, Expr, SourceId};
use mrq_mheap::{Heap, ListId};
use mrq_tpch::gen::{GenConfig, TpchData};
use mrq_tpch::load::{schema_of, value_rows, HeapDataset, TABLE_NAMES};
use mrq_tpch::queries;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The strategies compared throughout the evaluation, in the paper's order.
pub const STRATEGY_NAMES: [&str; 5] = [
    "LINQ-to-Objects",
    "C# Code",
    "C Code",
    "C#/C Code",
    "C#/C Code (Buffer)",
];

/// All data representations of one TPC-H dataset: managed heap objects,
/// native row stores and the comparators' column tables.
pub struct Workbench {
    /// The generated base data.
    pub data: TpchData,
    /// Managed-heap representation (baseline, C#, hybrid strategies),
    /// shared with every provider [`Workbench::managed_provider`] builds.
    pub heap: Arc<Heap>,
    /// The managed list holding each table's objects.
    lists: HashMap<&'static str, ListId>,
    /// Native row stores per table (the §5 arrays of structs).
    pub stores: HashMap<&'static str, Arc<RowStore>>,
    /// Column tables per table (Table 1 comparators).
    pub columns: HashMap<&'static str, ColumnTable>,
    /// Scale factor used.
    pub scale_factor: f64,
}

impl Workbench {
    /// Generates and loads a dataset at the given scale factor.
    pub fn new(scale_factor: f64) -> Workbench {
        let data = TpchData::generate(GenConfig::scale(scale_factor));
        let dataset = HeapDataset::load(&data);
        let mut lists = HashMap::new();
        let mut stores = HashMap::new();
        let mut columns = HashMap::new();
        for table in TABLE_NAMES {
            lists.insert(table, dataset.list(table));
            let schema = schema_of(table);
            let rows = value_rows(&data, table);
            stores.insert(table, Arc::new(RowStore::from_rows(schema.clone(), &rows)));
            let names: Vec<&str> = schema.fields().iter().map(|f| f.name.as_str()).collect();
            columns.insert(table, ColumnTable::from_value_rows(&names, &rows));
        }
        Workbench {
            data,
            heap: Arc::new(dataset.heap),
            lists,
            stores,
            columns,
            scale_factor,
        }
    }

    /// A catalog mapping every TPC-H source id to its schema (plus the Q2
    /// inner-result schema when provided).
    pub fn catalog(&self, extra: Option<(SourceId, Schema)>) -> HashMap<SourceId, Schema> {
        let mut map = HashMap::new();
        for (i, table) in TABLE_NAMES.iter().enumerate() {
            map.insert(SourceId(i as u32), schema_of(table));
        }
        if let Some((id, schema)) = extra {
            map.insert(id, schema);
        }
        map
    }

    /// Lowers a workload expression against the TPC-H catalog.
    pub fn lower(&self, expr: Expr) -> (CanonicalQuery, QuerySpec) {
        let canon = canonicalize(expr);
        let spec = lower(&canon, &self.catalog(None)).expect("workload must lower");
        (canon, spec)
    }

    /// Managed tables (root first, then join build sides) for a spec.
    pub fn heap_tables(&self, spec: &QuerySpec) -> Vec<HeapTable<'_>> {
        let mut sources = vec![spec.root];
        sources.extend(spec.joins.iter().map(|j| j.source));
        sources
            .into_iter()
            .map(|s| {
                let table = queries::source_table(s);
                HeapTable::new(&self.heap, self.list(table), schema_of(table))
            })
            .collect()
    }

    /// The managed list holding a table's objects.
    fn list(&self, table: &str) -> ListId {
        self.lists[table]
    }

    /// Native row stores (root first, then join build sides) for a spec.
    pub fn row_stores(&self, spec: &QuerySpec) -> Vec<&RowStore> {
        let mut sources = vec![spec.root];
        sources.extend(spec.joins.iter().map(|j| j.source));
        sources
            .into_iter()
            .map(|s| &*self.stores[queries::source_table(s)])
            .collect()
    }

    /// Builds a provider with every table bound as a managed collection.
    pub fn managed_provider(&self) -> Provider<'static> {
        let mut provider = Provider::over_shared_heap(Arc::clone(&self.heap));
        for (i, table) in TABLE_NAMES.iter().enumerate() {
            provider.bind_managed(SourceId(i as u32), self.list(table), schema_of(table));
        }
        provider
    }
}

/// Runs one workload with one strategy and returns (elapsed, output).
pub fn run_strategy(
    bench: &Workbench,
    canon: &CanonicalQuery,
    spec: &QuerySpec,
    strategy: Strategy,
) -> (Duration, QueryOutput) {
    match strategy {
        Strategy::CompiledNative => {
            let tables = bench.row_stores(spec);
            let start = Instant::now();
            let out = mrq_engine_native::execute(spec, &canon.params, &tables).expect("native run");
            (start.elapsed(), out)
        }
        Strategy::CompiledNativeParallel(config) => {
            let tables = bench.row_stores(spec);
            let start = Instant::now();
            let out =
                mrq_engine_native::execute_parallel(spec, &canon.params, &tables, &[], config)
                    .expect("parallel native run");
            (start.elapsed(), out)
        }
        Strategy::LinqToObjects | Strategy::CompiledCSharp => {
            let tables = bench.heap_tables(spec);
            let refs: Vec<&HeapTable<'_>> = tables.iter().collect();
            let start = Instant::now();
            let out = match strategy {
                Strategy::LinqToObjects => mrq_engine_linq::execute(spec, &canon.params, &refs),
                _ => mrq_engine_csharp::execute(spec, &canon.params, &refs),
            }
            .expect("managed run");
            (start.elapsed(), out)
        }
        Strategy::Hybrid(config) => {
            let tables = bench.heap_tables(spec);
            let refs: Vec<&HeapTable<'_>> = tables.iter().collect();
            let start = Instant::now();
            let run =
                mrq_engine_hybrid::execute(spec, &canon.params, &refs, config).expect("hybrid run");
            (start.elapsed(), run.output)
        }
    }
}

/// Runs the hybrid strategy and returns its phase breakdown (Figures 8, 10
/// and 12).
pub fn run_hybrid_breakdown(
    bench: &Workbench,
    canon: &CanonicalQuery,
    spec: &QuerySpec,
    config: HybridConfig,
) -> CostBreakdown {
    let tables = bench.heap_tables(spec);
    let refs: Vec<&HeapTable<'_>> = tables.iter().collect();
    mrq_engine_hybrid::execute(spec, &canon.params, &refs, config)
        .expect("hybrid run")
        .breakdown
}

/// The five standard strategies of the figures.
pub fn standard_strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        ("LINQ-to-Objects", Strategy::LinqToObjects),
        ("C# Code", Strategy::CompiledCSharp),
        ("C Code", Strategy::CompiledNative),
        (
            "C#/C Code",
            Strategy::Hybrid(HybridConfig {
                materialization: Materialization::Full,
                transfer: TransferPolicy::Max,
                ..HybridConfig::default()
            }),
        ),
        (
            "C#/C Code (Buffer)",
            Strategy::Hybrid(HybridConfig {
                materialization: Materialization::Buffered {
                    rows_per_buffer: 2048,
                },
                transfer: TransferPolicy::Max,
                ..HybridConfig::default()
            }),
        ),
    ]
}

/// One measured point of a figure: strategy name, x value (selectivity or
/// query name) and elapsed time.
#[derive(Debug, Clone)]
pub struct Point {
    /// Strategy label.
    pub strategy: String,
    /// X-axis label (selectivity or query).
    pub x: String,
    /// Measured evaluation time.
    pub elapsed: Duration,
    /// Result cardinality (sanity check that every strategy computed the
    /// same thing).
    pub rows: usize,
}

/// Figure 7: the Q1 aggregation over a selection with varying selectivity.
pub fn fig07_aggregation(bench: &Workbench, selectivities: &[f64]) -> Vec<Point> {
    let mut points = Vec::new();
    for &sel in selectivities {
        let cutoff = bench.data.shipdate_for_selectivity(sel);
        let (canon, spec) = bench.lower(queries::q1_with_cutoff(cutoff));
        for (name, strategy) in standard_strategies() {
            let (elapsed, out) = run_strategy(bench, &canon, &spec, strategy);
            points.push(Point {
                strategy: name.to_string(),
                x: format!("{sel:.1}"),
                elapsed,
                rows: out.rows.len(),
            });
        }
    }
    points
}

/// Figure 9: sorting over a selection with varying selectivity. The hybrid
/// variant uses Min transfer (keys + indexes), as in the paper.
pub fn fig09_sort(bench: &Workbench, selectivities: &[f64]) -> Vec<Point> {
    let mut points = Vec::new();
    for &sel in selectivities {
        let cutoff = bench.data.shipdate_for_selectivity(sel);
        let (canon, spec) = bench.lower(queries::sort_micro(cutoff));
        let strategies: Vec<(&str, Strategy)> = vec![
            ("LINQ-to-Objects", Strategy::LinqToObjects),
            ("C# Code", Strategy::CompiledCSharp),
            ("C Code", Strategy::CompiledNative),
            (
                "C#/C Code (Min)",
                Strategy::Hybrid(HybridConfig {
                    materialization: Materialization::Full,
                    transfer: TransferPolicy::Min,
                    ..HybridConfig::default()
                }),
            ),
        ];
        for (name, strategy) in strategies {
            let (elapsed, out) = run_strategy(bench, &canon, &spec, strategy);
            points.push(Point {
                strategy: name.to_string(),
                x: format!("{sel:.1}"),
                elapsed,
                rows: out.rows.len(),
            });
        }
    }
    points
}

/// Figure 11: the Q3 join over selections with varying selectivity, with the
/// four hybrid variants (Min/Max × full/buffered).
pub fn fig11_join(bench: &Workbench, selectivities: &[f64]) -> Vec<Point> {
    let mut points = Vec::new();
    for &sel in selectivities {
        let ship_after = bench.data.shipdate_for_selectivity(1.0 - sel);
        let order_before = bench.data.orderdate_for_selectivity(sel);
        let (canon, spec) = bench.lower(queries::join_micro("BUILDING", ship_after, order_before));
        let mut strategies: Vec<(&str, Strategy)> = vec![
            ("LINQ-to-Objects", Strategy::LinqToObjects),
            ("C# Code", Strategy::CompiledCSharp),
            ("C Code", Strategy::CompiledNative),
        ];
        for (name, materialization) in [
            ("C#/C Code (Max)", Materialization::Full),
            (
                "C#/C Code (Max, Buffer)",
                Materialization::Buffered {
                    rows_per_buffer: 2048,
                },
            ),
        ] {
            strategies.push((
                name,
                Strategy::Hybrid(HybridConfig {
                    materialization,
                    transfer: TransferPolicy::Max,
                    ..HybridConfig::default()
                }),
            ));
        }
        for (name, materialization) in [
            ("C#/C Code (Min)", Materialization::Full),
            (
                "C#/C Code (Min, Buffer)",
                Materialization::Buffered {
                    rows_per_buffer: 2048,
                },
            ),
        ] {
            strategies.push((
                name,
                Strategy::Hybrid(HybridConfig {
                    materialization,
                    transfer: TransferPolicy::Min,
                    ..HybridConfig::default()
                }),
            ));
        }
        for (name, strategy) in strategies {
            let (elapsed, out) = run_strategy(bench, &canon, &spec, strategy);
            points.push(Point {
                strategy: name.to_string(),
                x: format!("{sel:.1}"),
                elapsed,
                rows: out.rows.len(),
            });
        }
    }
    points
}

/// The three TPC-H queries of Figures 13/14 and Table 1, as (name, runner)
/// pairs. Q2 executes its decorrelated two-step plan.
pub fn tpch_query_names() -> [&'static str; 3] {
    ["Q1", "Q2", "Q3"]
}

/// Runs a full TPC-H query (Q1, Q2 or Q3) with a strategy, handling Q2's
/// two-step plan, and returns (elapsed, rows).
pub fn run_tpch_query(bench: &Workbench, query: &str, strategy: Strategy) -> (Duration, usize) {
    match query {
        "Q1" => {
            let (canon, spec) = bench.lower(queries::q1());
            let (d, out) = run_strategy(bench, &canon, &spec, strategy);
            (d, out.rows.len())
        }
        "Q3" => {
            let (canon, spec) = bench.lower(queries::q3());
            let (d, out) = run_strategy(bench, &canon, &spec, strategy);
            (d, out.rows.len())
        }
        "Q2" => {
            let params = queries::Q2Params::default();
            let (inner_canon, inner_spec) = bench.lower(queries::q2_inner(&params));
            let start = Instant::now();
            let (_, inner_out) = run_strategy(bench, &inner_canon, &inner_spec, strategy);
            let inner_table = ValueTable::from_output(inner_out);
            // Outer step: bind the materialised inner result.
            let outer_expr = queries::q2_outer(&params);
            let canon = canonicalize(outer_expr);
            let catalog =
                bench.catalog(Some((queries::SRC_Q2_INNER, inner_table.schema().clone())));
            let spec = lower(&canon, &catalog).expect("q2 outer lowers");
            // The outer query joins against the materialised inner result,
            // which lives outside both the heap and the row stores; run it on
            // value tables regardless of strategy (its cost is dominated by
            // the inner step at every strategy, mirroring the paper's note
            // that Q2 is tiny compared to Q1/Q3).
            let mut tables: Vec<ValueTable> = Vec::new();
            let mut sources = vec![spec.root];
            sources.extend(spec.joins.iter().map(|j| j.source));
            for s in sources {
                if s == queries::SRC_Q2_INNER {
                    tables.push(inner_table.clone());
                } else {
                    let table = queries::source_table(s);
                    tables.push(ValueTable::new(
                        schema_of(table),
                        value_rows(&bench.data, table),
                    ));
                }
            }
            let refs: Vec<&ValueTable> = tables.iter().collect();
            let schemas: Vec<Schema> = tables.iter().map(|t| t.schema().clone()).collect();
            let out = mrq_codegen::exec::execute_once(&spec, &canon.params, &refs, &schemas)
                .expect("q2 outer runs");
            (start.elapsed(), out.rows.len())
        }
        other => panic!("unknown TPC-H query `{other}`"),
    }
}

/// Figure 13: Q1–Q3 evaluation time per strategy (report as % of the
/// baseline).
pub fn fig13_tpch(bench: &Workbench) -> Vec<Point> {
    let mut points = Vec::new();
    for query in tpch_query_names() {
        for (name, strategy) in standard_strategies() {
            let (elapsed, rows) = run_tpch_query(bench, query, strategy);
            points.push(Point {
                strategy: name.to_string(),
                x: query.to_string(),
                elapsed,
                rows,
            });
        }
    }
    points
}

/// Figure 14: last-level cache misses per strategy for Q1 (trace-driven
/// simulation; reported as % of the baseline). Joins are traced on Q3 as
/// well when `include_q3` is set (slower).
pub fn fig14_cache(bench: &Workbench, include_q3: bool) -> Vec<(String, String, u64)> {
    let mut out = Vec::new();
    let mut queries_to_run = vec!["Q1"];
    if include_q3 {
        queries_to_run.push("Q3");
    }
    for query in queries_to_run {
        let expr = match query {
            "Q1" => queries::q1(),
            _ => queries::q3(),
        };
        let (canon, spec) = bench.lower(expr);
        // Managed strategies (LINQ and C#) share the managed access pattern;
        // what differs is how many passes they make. Trace both.
        for (name, strategy) in [
            ("LINQ-to-Objects", Strategy::LinqToObjects),
            ("C# Code", Strategy::CompiledCSharp),
        ] {
            let mut sim = CacheSim::paper_llc();
            {
                let mut sources = vec![spec.root];
                sources.extend(spec.joins.iter().map(|j| j.source));
                // Each table needs its own tracer borrow; trace sequentially
                // by running the query once with tracing on the root table
                // only plus build tables untraced, which captures the
                // dominant traffic (the probe-side scan).
                let root_table = queries::source_table(spec.root);
                let traced_root =
                    HeapTable::new(&bench.heap, bench.list(root_table), schema_of(root_table))
                        .with_tracer(&mut sim);
                let mut tables: Vec<TracedHeapTable<'_>> = vec![traced_root];
                for s in &sources[1..] {
                    let table = queries::source_table(*s);
                    tables.push(TracedHeapTable::untraced(HeapTable::new(
                        &bench.heap,
                        bench.list(table),
                        schema_of(table),
                    )));
                }
                let refs: Vec<&TracedHeapTable<'_>> = tables.iter().collect();
                let schemas: Vec<Schema> = tables.iter().map(|t| t.schema().clone()).collect();
                match strategy {
                    Strategy::LinqToObjects => {
                        mrq_engine_linq::execute(&spec, &canon.params, &refs).expect("linq")
                    }
                    _ => mrq_codegen::exec::execute_once(&spec, &canon.params, &refs, &schemas)
                        .expect("csharp"),
                };
            }
            out.push((name.to_string(), query.to_string(), sim.stats().misses));
        }
        // Native strategy: the fused native loop's probe-side footprint is a
        // sequential walk over the referenced columns of the flat row store.
        out.push((
            "C Code".to_string(),
            query.to_string(),
            native_scan_misses(bench, &spec),
        ));
    }
    out
}

/// Simulates the native probe-side scan footprint for Figure 14: sequential
/// reads of every referenced column of every row of the flat row store.
pub fn native_scan_misses(bench: &Workbench, spec: &QuerySpec) -> u64 {
    use mrq_codegen::exec::TableAccess;
    use mrq_common::trace::MemTracer;
    let mut sim = CacheSim::paper_llc();
    let store = &bench.stores[queries::source_table(spec.root)];
    let cols = spec.referenced_columns(0);
    for row in 0..store.len() {
        for &col in &cols {
            sim.access(
                mrq_common::trace::AccessKind::NativeRead,
                store.field_address(row, col),
                8,
            );
        }
    }
    sim.stats().misses
}

/// Table 1: Q1 and Q3 across the DBMS comparators and the provider
/// strategies. Returns (system, query, elapsed).
pub fn table1(bench: &Workbench) -> Vec<(String, String, Duration)> {
    let mut rows = Vec::new();
    let cutoff = mrq_common::Date::from_ymd(1998, 12, 1).add_days(-90);
    let q3_date = mrq_common::Date::from_ymd(1995, 3, 15);
    for query in ["Q1", "Q3"] {
        // Interpreted row-store DBMS (SQL Server 2014 stand-in).
        let start = Instant::now();
        match query {
            "Q1" => {
                mrq_dbms::volcano::q1(&bench.columns["lineitem"], cutoff);
            }
            _ => {
                mrq_dbms::volcano::q3(
                    &bench.columns["customer"],
                    &bench.columns["orders"],
                    &bench.columns["lineitem"],
                    "BUILDING",
                    q3_date,
                );
            }
        }
        rows.push((
            "Interpreted row store (SQL Server-like)".to_string(),
            query.to_string(),
            start.elapsed(),
        ));

        // Compiled row store (Hekaton-like): the native engine.
        let (elapsed, _) = run_tpch_query(bench, query, Strategy::CompiledNative);
        rows.push((
            "Compiled row store (Hekaton-like)".to_string(),
            query.to_string(),
            elapsed,
        ));

        // Vectorised column store (VectorWise-like).
        let start = Instant::now();
        match query {
            "Q1" => {
                mrq_dbms::vector::q1(&bench.columns["lineitem"], cutoff);
            }
            _ => {
                mrq_dbms::vector::q3(
                    &bench.columns["customer"],
                    &bench.columns["orders"],
                    &bench.columns["lineitem"],
                    "BUILDING",
                    q3_date,
                );
            }
        }
        rows.push((
            "Vectorised column store (VectorWise-like)".to_string(),
            query.to_string(),
            start.elapsed(),
        ));

        // LINQ-to-objects and compiled C#/C over application objects.
        let (elapsed, _) = run_tpch_query(bench, query, Strategy::LinqToObjects);
        rows.push(("LINQ-to-objects".to_string(), query.to_string(), elapsed));
        let (elapsed, _) = run_tpch_query(bench, query, Strategy::Hybrid(HybridConfig::default()));
        rows.push(("Compiled C#/C code".to_string(), query.to_string(), elapsed));
    }
    rows
}

/// §7.1 extras: evaluation time as the number of `Sum` aggregates grows while
/// the staged data volume stays constant. Returns (strategy, aggregate count,
/// elapsed, rows).
pub fn agg_extras_aggregate_sweep(bench: &Workbench, counts: &[usize]) -> Vec<Point> {
    let cutoff = bench.data.shipdate_for_selectivity(1.0);
    let mut points = Vec::new();
    for &n in counts {
        let (canon, spec) = bench.lower(queries::aggregation_micro(cutoff, n));
        for (name, strategy) in [
            ("LINQ-to-Objects", Strategy::LinqToObjects),
            ("C# Code", Strategy::CompiledCSharp),
            ("C#/C Code", Strategy::Hybrid(HybridConfig::default())),
        ] {
            let (elapsed, out) = run_strategy(bench, &canon, &spec, strategy);
            points.push(Point {
                strategy: name.to_string(),
                x: format!("{n} aggregates"),
                elapsed,
                rows: out.rows.len(),
            });
        }
    }
    points
}

/// §7.1 extras: buffered staging with different buffer sizes versus full
/// materialisation, plus the staging footprint of each choice.
/// Returns (label, elapsed, staged bytes).
pub fn agg_extras_buffer_sweep(
    bench: &Workbench,
    rows_per_buffer: &[usize],
) -> Vec<(String, Duration, usize)> {
    let cutoff = bench.data.shipdate_for_selectivity(1.0);
    let (canon, spec) = bench.lower(queries::q1_with_cutoff(cutoff));
    let tables = bench.heap_tables(&spec);
    let refs: Vec<&HeapTable<'_>> = tables.iter().collect();
    let mut out = Vec::new();
    for &rows in rows_per_buffer {
        let start = Instant::now();
        let run = mrq_engine_hybrid::execute(
            &spec,
            &canon.params,
            &refs,
            HybridConfig {
                materialization: Materialization::Buffered {
                    rows_per_buffer: rows,
                },
                transfer: TransferPolicy::Max,
                ..HybridConfig::default()
            },
        )
        .expect("buffered run");
        out.push((
            format!("buffered ({rows} rows)"),
            start.elapsed(),
            run.staged_bytes,
        ));
    }
    let start = Instant::now();
    let run = mrq_engine_hybrid::execute(&spec, &canon.params, &refs, HybridConfig::default())
        .expect("full run");
    out.push((
        "full materialisation".to_string(),
        start.elapsed(),
        run.staged_bytes,
    ));
    out
}

/// Parallel-execution extension: Q1 aggregation over the native row store
/// with a growing worker count. Returns (threads, elapsed, rows).
pub fn parallel_sweep(bench: &Workbench, threads: &[usize]) -> Vec<(usize, Duration, usize)> {
    let (canon, spec) = bench.lower(queries::q1());
    let tables = bench.row_stores(&spec);
    threads
        .iter()
        .map(|&t| {
            let config = mrq_engine_native::ParallelConfig {
                threads: t,
                min_rows_per_thread: 1024,
                ..mrq_engine_native::ParallelConfig::default()
            };
            let start = Instant::now();
            let out =
                mrq_engine_native::execute_parallel(&spec, &canon.params, &tables, &[], config)
                    .expect("parallel run");
            (t, start.elapsed(), out.rows.len())
        })
        .collect()
}

/// Parallel-execution extension, cross-strategy: the Q1 aggregation at each
/// thread count for every strategy with a parallel path — compiled C# over
/// managed objects, compiled C over the native row store, and the hybrid
/// strategy under full and buffered staging. The x label is the thread
/// count; the 1-thread point of each strategy is its own baseline.
pub fn parallel_strategy_sweep(bench: &Workbench, threads: &[usize]) -> Vec<Point> {
    use mrq_common::ParallelConfig;
    let (canon, spec) = bench.lower(queries::q1());
    let stores = bench.row_stores(&spec);
    let heap_tables = bench.heap_tables(&spec);
    let heap_refs: Vec<&HeapTable<'_>> = heap_tables.iter().collect();
    let mut points = Vec::new();
    for &t in threads {
        let config = ParallelConfig {
            threads: t,
            min_rows_per_thread: 1024,
            ..ParallelConfig::default()
        };
        let mut record = |strategy: &str, elapsed: Duration, rows: usize| {
            points.push(Point {
                strategy: strategy.to_string(),
                x: format!("{t} threads"),
                elapsed,
                rows,
            });
        };
        let start = Instant::now();
        let out = mrq_engine_csharp::execute_parallel(&spec, &canon.params, &heap_refs, config)
            .expect("parallel C# run");
        record("C# Code", start.elapsed(), out.rows.len());

        let start = Instant::now();
        let out = mrq_engine_native::execute_parallel(&spec, &canon.params, &stores, &[], config)
            .expect("parallel native run");
        record("C Code", start.elapsed(), out.rows.len());

        for (name, base) in [
            ("C#/C Code", HybridConfig::default()),
            ("C#/C Code (Buffer)", HybridConfig::buffered()),
        ] {
            let start = Instant::now();
            let run =
                mrq_engine_hybrid::execute(&spec, &canon.params, &heap_refs, base.parallel(config))
                    .expect("parallel hybrid run");
            record(name, start.elapsed(), run.output.rows.len());
        }
    }
    points
}

/// Extension ablations beyond the paper's figures: each entry is
/// (claim, baseline elapsed, improved elapsed). Covers OrderBy+Take fusion,
/// join indexes, the heuristic optimizer and result recycling.
pub fn extension_claims(bench: &Workbench) -> Vec<(String, Duration, Duration)> {
    let mut out = Vec::new();

    // Top-N fusion: sort the filtered lineitem by price and keep the top 10,
    // with and without the fused bounded buffer.
    let cutoff = bench.data.shipdate_for_selectivity(1.0);
    let (canon, spec) = bench.lower(queries::sort_topn_micro(cutoff, 10));
    let tables = bench.row_stores(&spec);
    let schemas: Vec<Schema> = tables.iter().map(|t| t.schema().clone()).collect();
    let run_native = |fused: bool| {
        let start = Instant::now();
        let mut state =
            mrq_codegen::exec::ExecState::new(&spec, &canon.params, tables[1..].to_vec(), &schemas)
                .expect("state");
        if !fused {
            state.disable_topn_fusion();
        }
        state.consume(tables[0]);
        let rows = state.finish().rows.len();
        (start.elapsed(), rows)
    };
    let (unfused, rows_a) = run_native(false);
    let (fused, rows_b) = run_native(true);
    assert_eq!(rows_a, rows_b);
    out.push((
        "OrderBy+Take fusion (top-10 of sorted lineitem, native)".to_string(),
        unfused,
        fused,
    ));

    // Join index: the Q3 join probe with per-query hash build vs a pre-built
    // index on orders(o_orderkey) and customer(c_custkey). The naive shape is
    // used so the build sides are unfiltered (a filtered build side cannot
    // use the index), which is exactly when an index pays off.
    let date = mrq_common::Date::from_ymd(1995, 3, 15);
    let naive = queries::join_micro_naive("BUILDING", date, date);
    let optimized_expr =
        mrq_expr::optimize(naive.clone(), mrq_expr::OptimizerConfig::disabled()).expr;
    let (canon_j, spec_j) = bench.lower(optimized_expr);
    let tables_j = bench.row_stores(&spec_j);
    let start = Instant::now();
    let baseline = mrq_engine_native::execute(&spec_j, &canon_j.params, &tables_j).expect("join");
    let hash_build = start.elapsed();
    let orders_index =
        mrq_engine_native::HashIndex::build(&bench.stores["orders"], 0).expect("orders index");
    let customer_index =
        mrq_engine_native::HashIndex::build(&bench.stores["customer"], 0).expect("customer index");
    let start = Instant::now();
    let indexed = mrq_engine_native::execute_parallel(
        &spec_j,
        &canon_j.params,
        &tables_j,
        &[Some(&orders_index), Some(&customer_index)],
        mrq_engine_native::ParallelConfig::sequential(),
    )
    .expect("indexed join");
    let with_index = start.elapsed();
    assert_eq!(baseline.rows.len(), indexed.rows.len());
    out.push((
        "pre-built join indexes vs per-query hash build (Q3 join)".to_string(),
        hash_build,
        with_index,
    ));

    // Heuristic optimizer: the naive Q3 join (selections written after the
    // joins) evaluated as written vs after selection push-down.
    let (canon_n, spec_n) = bench.lower(naive.clone());
    let (canon_o, spec_o) =
        bench.lower(mrq_expr::optimize(naive, mrq_expr::OptimizerConfig::default()).expr);
    let (as_written, a) = run_strategy(bench, &canon_n, &spec_n, Strategy::CompiledCSharp);
    let (pushed_down, b) = run_strategy(bench, &canon_o, &spec_o, Strategy::CompiledCSharp);
    assert_eq!(a.rows.len(), b.rows.len());
    out.push((
        "selection push-down by the optimizer (naive Q3 join, compiled C#)".to_string(),
        as_written,
        pushed_down,
    ));

    // Result recycling: repeated parameter-identical Q1 through the provider.
    let provider = bench.managed_provider();
    let mut provider = provider;
    provider.set_result_recycling(true);
    let start = Instant::now();
    provider
        .execute(queries::q1(), Strategy::CompiledCSharp)
        .expect("first run");
    let cold = start.elapsed();
    let start = Instant::now();
    provider
        .execute(queries::q1(), Strategy::CompiledCSharp)
        .expect("recycled run");
    let warm = start.elapsed();
    out.push((
        "result recycling (repeated TPC-H Q1, compiled C#)".to_string(),
        cold,
        warm,
    ));
    out
}

/// Figure 14 with the full hierarchy model: per strategy and query, the
/// L1 / L2 / LLC miss counts of the probe-side access stream.
pub fn fig14_hierarchy(
    bench: &Workbench,
    include_q3: bool,
) -> Vec<(
    String,
    String,
    mrq_cachesim::LevelStats,
    mrq_cachesim::LevelStats,
    mrq_cachesim::LevelStats,
)> {
    use mrq_cachesim::CacheHierarchy;
    let mut out = Vec::new();
    let mut queries_to_run = vec!["Q1"];
    if include_q3 {
        queries_to_run.push("Q3");
    }
    for query in queries_to_run {
        let expr = match query {
            "Q1" => queries::q1(),
            _ => queries::q3(),
        };
        let (canon, spec) = bench.lower(expr);
        for (name, strategy) in [
            ("LINQ-to-Objects", Strategy::LinqToObjects),
            ("C# Code", Strategy::CompiledCSharp),
        ] {
            let mut sim = CacheHierarchy::paper_machine();
            {
                let root_table = queries::source_table(spec.root);
                let traced_root =
                    HeapTable::new(&bench.heap, bench.list(root_table), schema_of(root_table))
                        .with_tracer(&mut sim);
                let mut tables: Vec<TracedHeapTable<'_>> = vec![traced_root];
                let mut sources = vec![spec.root];
                sources.extend(spec.joins.iter().map(|j| j.source));
                for s in &sources[1..] {
                    let table = queries::source_table(*s);
                    tables.push(TracedHeapTable::untraced(HeapTable::new(
                        &bench.heap,
                        bench.list(table),
                        schema_of(table),
                    )));
                }
                let refs: Vec<&TracedHeapTable<'_>> = tables.iter().collect();
                let schemas: Vec<Schema> = tables.iter().map(|t| t.schema().clone()).collect();
                match strategy {
                    Strategy::LinqToObjects => {
                        mrq_engine_linq::execute(&spec, &canon.params, &refs).expect("linq")
                    }
                    _ => mrq_codegen::exec::execute_once(&spec, &canon.params, &refs, &schemas)
                        .expect("csharp"),
                };
            }
            out.push((
                name.to_string(),
                query.to_string(),
                sim.l1(),
                sim.l2(),
                sim.llc(),
            ));
        }
        // Native: sequential scan over the referenced columns of the flat
        // rows.
        let mut sim = CacheHierarchy::paper_machine();
        {
            use mrq_codegen::exec::TableAccess;
            use mrq_common::trace::MemTracer;
            let store = &bench.stores[queries::source_table(spec.root)];
            let cols = spec.referenced_columns(0);
            for row in 0..store.len() {
                for &col in &cols {
                    sim.access(
                        mrq_common::trace::AccessKind::NativeRead,
                        store.field_address(row, col),
                        8,
                    );
                }
            }
        }
        out.push((
            "C Code".to_string(),
            query.to_string(),
            sim.l1(),
            sim.l2(),
            sim.llc(),
        ));
    }
    out
}

/// The §2.3 micro-claims: fused vs per-aggregate-pass aggregation, and the
/// selection push-down of Q3. Returns (claim, baseline, improved).
pub fn micro_claims(bench: &Workbench) -> Vec<(String, Duration, Duration)> {
    let mut out = Vec::new();
    // Claim: computing all aggregates in one pass over each group is faster
    // than one pass per aggregate (LINQ vs compiled C# on Q1's aggregation).
    let (canon, spec) = bench.lower(queries::q1());
    let (linq, _) = run_strategy(bench, &canon, &spec, Strategy::LinqToObjects);
    let (fused, _) = run_strategy(bench, &canon, &spec, Strategy::CompiledCSharp);
    out.push((
        "single-pass aggregation vs per-aggregate passes (Q1)".to_string(),
        linq,
        fused,
    ));
    // Claim: pushing the selections below the join improves Q3.
    let date = mrq_common::Date::from_ymd(1995, 3, 15);
    let pushed = queries::join_micro("BUILDING", date, date);
    let (canon_p, spec_p) = bench.lower(pushed);
    let (with_pushdown, _) = run_strategy(bench, &canon_p, &spec_p, Strategy::CompiledCSharp);
    // Without push-down: the same join evaluated with the order-date and
    // segment filters applied after the join (post filters).
    let mut spec_np = spec_p.clone();
    for join in &mut spec_np.joins {
        spec_np.post_filters.append(&mut join.build_filters);
    }
    let tables = bench.heap_tables(&spec_np);
    let refs: Vec<&HeapTable<'_>> = tables.iter().collect();
    let start = Instant::now();
    let _ = mrq_engine_csharp::execute(&spec_np, &canon_p.params, &refs).expect("no-pushdown run");
    let without_pushdown = start.elapsed();
    out.push((
        "selection push-down below the Q3 join".to_string(),
        without_pushdown,
        with_pushdown,
    ));
    out
}

/// A hand-fused reference loop next to the engine run it bounds (ROADMAP
/// item 6a): the time `mrq_engine_native::execute` takes for a query, and
/// the time a loop written by hand for that one query takes over the same
/// [`RowStore`] through the same `TableAccess` getters, with the same
/// checked [`Decimal`](mrq_common::Decimal) arithmetic. The ratio is what
/// is left of the executor's per-row overhead.
#[derive(Debug, Clone)]
pub struct Ceiling {
    /// The query.
    pub query: &'static str,
    /// Best of several `mrq_engine_native::execute` runs.
    pub engine: Duration,
    /// Best of as many runs of the hand-fused loop.
    pub fused: Duration,
}

impl Ceiling {
    /// Engine time over hand-fused time.
    pub fn ratio(&self) -> f64 {
        self.engine.as_secs_f64() / self.fused.as_secs_f64()
    }
}

/// Times `query` through `mrq_engine_native::execute` and through its
/// hand-fused loop `fused`, alternating the two `reps` times so host noise
/// hits both alike, and keeps each side's fastest run. The loop's rows must
/// equal the engine's.
fn ceiling(
    bench: &Workbench,
    query: &'static str,
    expr: Expr,
    fused: impl Fn() -> Vec<Vec<mrq_common::Value>>,
) -> Result<Ceiling, String> {
    const REPS: usize = 15;
    let (canon, spec) = bench.lower(expr);
    let tables = bench.row_stores(&spec);
    let (mut engine, mut fused_best) = (Duration::MAX, Duration::MAX);
    for _ in 0..REPS {
        let start = Instant::now();
        let out = mrq_engine_native::execute(&spec, &canon.params, &tables).expect("native run");
        engine = engine.min(start.elapsed());
        let start = Instant::now();
        let rows = fused();
        fused_best = fused_best.min(start.elapsed());
        if rows != out.rows {
            return Err(format!(
                "{query}: the hand-fused loop disagrees with the engine\n  fused:  {rows:?}\n  engine: {:?}",
                out.rows
            ));
        }
    }
    Ok(Ceiling {
        query,
        engine,
        fused: fused_best,
    })
}

/// Times TPC-H Q1 and Q6 through `mrq_engine_native::execute` and through
/// hand-fused loops, and checks that each loop's rows equal the engine's.
/// A mismatch is an error naming the query and both row sets.
pub fn fused_ceilings(bench: &Workbench) -> Result<Vec<Ceiling>, String> {
    use mrq_codegen::exec::TableAccess;
    use mrq_common::{Date, Decimal, Value};
    let store = &*bench.stores["lineitem"];
    let schema = schema_of("lineitem");
    let at = |name: &str| schema.index_of(name).expect("lineitem column");
    let (quantity, price, discount, tax) = (
        at("l_quantity"),
        at("l_extendedprice"),
        at("l_discount"),
        at("l_tax"),
    );
    let (flag, status, shipdate) = (at("l_returnflag"), at("l_linestatus"), at("l_shipdate"));

    // Q1: filter on the ship date, group by (return flag, line status), and
    // eight aggregates in one pass. Four groups, found by a linear scan.
    let cutoff = Date::from_ymd(1998, 12, 1).add_days(-90);
    let q1 = ceiling(bench, "Q1", queries::q1(), || {
        #[derive(Default)]
        struct Group {
            key: (String, String),
            sum_qty: Decimal,
            sum_price: Decimal,
            sum_disc_price: Decimal,
            sum_charge: Decimal,
            sum_disc: Decimal,
            count: i64,
        }
        let mut groups: Vec<Group> = Vec::new();
        for r in 0..store.len() {
            if store.get_date(r, shipdate) > cutoff {
                continue;
            }
            let (f, s) = (store.get_str(r, flag), store.get_str(r, status));
            let g = match groups.iter().position(|g| g.key.0 == f && g.key.1 == s) {
                Some(g) => g,
                None => {
                    groups.push(Group {
                        key: (f.to_string(), s.to_string()),
                        ..Group::default()
                    });
                    groups.len() - 1
                }
            };
            let g = &mut groups[g];
            let (qty, ext, disc) = (
                store.get_decimal(r, quantity),
                store.get_decimal(r, price),
                store.get_decimal(r, discount),
            );
            let disc_price = ext * (Decimal::ONE - disc);
            g.sum_qty += qty;
            g.sum_price += ext;
            g.sum_disc_price += disc_price;
            g.sum_charge += disc_price * (Decimal::ONE + store.get_decimal(r, tax));
            g.sum_disc += disc;
            g.count += 1;
        }
        groups.sort_by(|a, b| a.key.cmp(&b.key));
        groups
            .into_iter()
            .map(|g| {
                let n = g.count as f64;
                vec![
                    Value::str(&g.key.0),
                    Value::str(&g.key.1),
                    Value::Decimal(g.sum_qty),
                    Value::Decimal(g.sum_price),
                    Value::Decimal(g.sum_disc_price),
                    Value::Decimal(g.sum_charge),
                    Value::Float64(g.sum_qty.to_f64() / n),
                    Value::Float64(g.sum_price.to_f64() / n),
                    Value::Float64(g.sum_disc.to_f64() / n),
                    Value::Int64(g.count),
                ]
            })
            .collect::<Vec<_>>()
    })?;

    // Q6: a conjunctive range filter and one sum.
    let (from, to) = (
        Date::from_ymd(1994, 1, 1),
        Date::from_ymd(1994, 1, 1).add_days(365),
    );
    let (low, high, max_qty) = (
        Decimal::from_raw(5),
        Decimal::from_raw(7),
        Decimal::from_int(24),
    );
    let q6 = ceiling(bench, "Q6", queries::q6(), || {
        let mut revenue = Decimal::ZERO;
        let mut any = false;
        for r in 0..store.len() {
            let date = store.get_date(r, shipdate);
            if date < from || date >= to {
                continue;
            }
            let disc = store.get_decimal(r, discount);
            if disc < low || disc > high || store.get_decimal(r, quantity) >= max_qty {
                continue;
            }
            revenue += store.get_decimal(r, price) * disc;
            any = true;
        }
        if any {
            vec![vec![Value::Decimal(revenue)]]
        } else {
            Vec::new()
        }
    })?;
    Ok(vec![q1, q6])
}

/// Measured compile cost (§7.4) of three TPC-H queries, as `(query, cold
/// compile, C# emission, C emission)`, each the best of 50 runs. A cold
/// compile is [`mrq_core::Provider::clear_compiled`] then
/// [`mrq_core::Provider::compile`] (optimise, canonicalise, lower and
/// type); emission is [`mrq_codegen::emit::emit_source`] over the lowered
/// spec, which executing a query never calls. Compiling that source with
/// csc or gcc (§7.4: ≈75 ms and ≈720 ms) is not reproduced: nothing here
/// invokes a compiler.
pub fn compile_costs(bench: &Workbench) -> Vec<(String, Duration, Duration, Duration)> {
    use mrq_codegen::emit::{emit_source, Backend};
    fn best_of_50<R>(mut run: impl FnMut() -> R) -> Duration {
        (0..50)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(run());
                start.elapsed()
            })
            .min()
            .unwrap_or_default()
    }
    let provider = bench.managed_provider();
    let mut out = Vec::new();
    for (name, expr) in [
        ("Q1", queries::q1()),
        ("Q3", queries::q3()),
        (
            "Q2 (inner)",
            queries::q2_inner(&queries::Q2Params::default()),
        ),
    ] {
        let cold = best_of_50(|| {
            provider.clear_compiled();
            provider.compile(expr.clone()).expect("compile")
        });
        let (_, spec) = provider.compile(expr).expect("compile");
        let csharp = best_of_50(|| emit_source(&spec, Backend::CSharp));
        let c = best_of_50(|| emit_source(&spec, Backend::C));
        out.push((name.to_string(), cold, csharp, c));
    }
    out
}

// ---------------------------------------------------------------------------
// Counted bench mode: deterministic work replay.
//
// Wall-clock numbers (the end-to-end benchmark in the repository's
// `benchmark/` package, and the Criterion benches above) jitter by several
// percent from run to run of the same binary on the same host. The counted
// mode replays fixed workload shapes and reports *work* instead — the
// per-query [`WorkStats`] counters threaded through every engine's fused
// loops, compilations, and simulated cache-hierarchy traffic. All of it is a
// pure function of (dataset, query, configuration): the TPC-H generator is
// seeded, simulated addresses use fixed bases, and every parallel point pins
// an explicit [`ParallelConfig`]. The rendered report is therefore
// byte-identical on any host, and the repository commits it as
// `BENCH_counted.json`; a test compares a fresh report with that file, so any
// change in work, up or down, is a reviewed diff of the baseline.
// ---------------------------------------------------------------------------

/// One point of the counted report: a stable `group/point/counter` name and
/// an exact count. Unlike [`Point`] there is no elapsed time — the value is
/// reproducible work, not a measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountedPoint {
    /// Stable point name (`counted_q1/linq/rows_scanned`).
    pub name: String,
    /// Exact count.
    pub value: u64,
}

/// Scale factor of the counted report. Fixed, because every counter scales
/// with it and the committed baseline is only comparable at one factor.
pub const COUNTED_SCALE_FACTOR: f64 = 0.002;

/// Executions of one statement behind each `counted_amortization` point.
const AMORTIZED_RUNS: u64 = 4;

/// The strategies of the counted report, with shell-friendly slugs. Every
/// entry pins a deterministic configuration: the hybrids stage sequentially
/// ([`HybridConfig::default`]/[`HybridConfig::buffered`]) so no counter
/// depends on the host's core count.
fn counted_strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        ("linq", Strategy::LinqToObjects),
        ("csharp", Strategy::CompiledCSharp),
        ("native", Strategy::CompiledNative),
        ("hybrid_full", Strategy::Hybrid(HybridConfig::default())),
        ("hybrid_buffer", Strategy::Hybrid(HybridConfig::buffered())),
    ]
}

/// Drains a counted stream, then waits for its task to finish, so the
/// provider's work stats include the stream's batch and row tallies (the
/// end of the stream is visible before the task records them).
fn drain(mut stream: QueryStream) {
    for batch in stream.by_ref() {
        batch.expect("streamed counted batch");
    }
    let start = Instant::now();
    while !stream.is_finished() {
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "stream task never finished"
        );
        std::thread::yield_now();
    }
}

fn push_work(out: &mut Vec<CountedPoint>, group: &str, point: &str, work: &WorkStats) {
    for (counter, value) in work.as_pairs() {
        out.push(CountedPoint {
            name: format!("{group}/{point}/{counter}"),
            value,
        });
    }
}

/// The deterministic counted report: Q1, Q6 and the Figure 11 join across
/// the strategies, prepared re-execution and its compile amortization, a
/// streamed scan, and the Figure 14 simulated cache hierarchy. Every value
/// is an exact count; repeated runs are byte-identical.
pub fn counted_report(bench: &Workbench) -> Vec<CountedPoint> {
    let mut out = Vec::new();

    // Q1 and Q6 across the five standard strategies (all sequential).
    for (group, expr) in [("counted_q1", queries::q1()), ("counted_q6", queries::q6())] {
        let (canon, spec) = bench.lower(expr);
        for (slug, strategy) in counted_strategies() {
            let (_, output) = run_strategy(bench, &canon, &spec, strategy);
            push_work(&mut out, group, slug, output.work_stats());
        }
    }

    // The Figure 11 join shape, per strategy, plus the native engine under
    // explicit 1/2/8-thread morsel configurations. Only `morsels_executed`
    // may differ across the thread points (it counts execution chunks); the
    // determinism suite holds every other counter invariant, and each point
    // is still an exact function of (rows, config) — never of the host.
    let ship_after = bench.data.shipdate_for_selectivity(0.5);
    let order_before = bench.data.orderdate_for_selectivity(0.5);
    let (canon, spec) = bench.lower(queries::join_micro("BUILDING", ship_after, order_before));
    for (slug, strategy) in counted_strategies() {
        let (_, output) = run_strategy(bench, &canon, &spec, strategy);
        push_work(&mut out, "counted_fig11_join", slug, output.work_stats());
    }
    for threads in [1usize, 2, 8] {
        let config = ParallelConfig {
            threads,
            min_rows_per_thread: 512,
            morsel_rows: 32 * 1024,
        };
        let (_, output) = run_strategy(
            bench,
            &canon,
            &spec,
            Strategy::CompiledNativeParallel(config),
        );
        push_work(
            &mut out,
            "counted_fig11_join",
            &format!("native_{threads}_threads"),
            output.work_stats(),
        );
    }

    // Prepared re-execution: a plan prepared once must repeat *identical*
    // execution work on every run — compilation happens outside the work
    // counters entirely. The amortization points count compilations
    // (plan-cache misses) over `AMORTIZED_RUNS` executions of the same
    // statement: at most once (at prepare) for the prepared plan — zero for
    // the hybrid, which reuses the plan the C# runs left in the shared
    // cache — and every time for an ad-hoc statement whose compiled
    // artefacts are dropped before each run.
    let stmt = queries::q6();
    let managed = bench.managed_provider().into_shared();
    let mut native = Provider::new();
    native.bind_native_shared(
        queries::SRC_LINEITEM,
        Arc::clone(&bench.stores[queries::source_table(queries::SRC_LINEITEM)]),
    );
    let native = native.into_shared();
    let mut amortization = Vec::new();
    for (slug, provider, strategy) in [
        ("csharp", &managed, Strategy::CompiledCSharp),
        (
            "hybrid",
            &managed,
            Strategy::Hybrid(HybridConfig::default()),
        ),
        ("native", &native, Strategy::CompiledNative),
    ] {
        let before = provider.plan_cache_stats().misses;
        let prepared = provider.prepare(stmt.clone(), strategy).expect("prepare");
        prepared.execute(&[]).expect("first prepared run");
        let first = provider.last_work_stats();
        for _ in 1..AMORTIZED_RUNS {
            prepared.execute(&[]).expect("prepared re-run");
        }
        let last = provider.last_work_stats();
        assert_eq!(
            first, last,
            "prepared re-execution must repeat identical work"
        );
        push_work(&mut out, "counted_prepared", slug, &last);
        let prepared_once = provider.plan_cache_stats().misses - before;

        let before = provider.plan_cache_stats().misses;
        for _ in 0..AMORTIZED_RUNS {
            provider.clear_compiled();
            provider
                .execute(stmt.clone(), strategy)
                .expect("ad-hoc run");
        }
        let compile_each = provider.plan_cache_stats().misses - before;
        for (point, value) in [
            ("prepared_once_compiles", prepared_once),
            ("compile_each_compiles", compile_each),
        ] {
            amortization.push(CountedPoint {
                name: format!("counted_amortization/{slug}/{point}"),
                value,
            });
        }
    }
    out.extend(amortization);

    // Streamed replay: the streaming tests' scan shape drained through
    // `submit_stream` with a pinned batch size. The sink re-chunks rows into
    // full `stream_batch_rows` batches regardless of the morsel schedule, so
    // `batches_streamed`/`rows_streamed` are exact functions of the row count
    // — every strategy here runs sequentially and every counter is stable.
    let scan = queries::scan_micro(bench.data.shipdate_for_selectivity(0.5));
    let stream_options = QueryOptions::default().with_stream_batch_rows(64);
    let managed = bench.managed_provider().into_shared();
    for (slug, strategy) in [
        ("linq", Strategy::LinqToObjects),
        ("csharp", Strategy::CompiledCSharp),
        ("hybrid", Strategy::Hybrid(HybridConfig::default())),
    ] {
        drain(managed.submit_stream(scan.clone(), strategy, stream_options));
        push_work(
            &mut out,
            "counted_streaming",
            slug,
            &managed.last_work_stats(),
        );
    }
    drain(native.submit_stream(scan, Strategy::CompiledNative, stream_options));
    push_work(
        &mut out,
        "counted_streaming",
        "native",
        &native.last_work_stats(),
    );

    // Simulated cache hierarchy (Figure 14): deterministic because both the
    // managed heap and the row stores hand out fixed simulated addresses.
    for (name, query, l1, l2, llc) in fig14_hierarchy(bench, true) {
        let slug = match name.as_str() {
            "LINQ-to-Objects" => "linq",
            "C# Code" => "csharp",
            _ => "native",
        };
        let group = if query == "Q1" {
            "counted_cache_q1"
        } else {
            "counted_cache_q3"
        };
        for (level, stats) in [("l1", l1), ("l2", l2), ("llc", llc)] {
            out.push(CountedPoint {
                name: format!("{group}/{slug}/{level}_accesses"),
                value: stats.accesses,
            });
            out.push(CountedPoint {
                name: format!("{group}/{slug}/{level}_misses"),
                value: stats.misses,
            });
        }
    }

    out
}

/// The counted report at [`COUNTED_SCALE_FACTOR`], rendered exactly as
/// `BENCH_counted.json` is committed: what the `counted` binary prints and
/// what the baseline test compares.
pub fn counted_artifact() -> String {
    let bench = Workbench::new(COUNTED_SCALE_FACTOR);
    render_counted_json(&counted_report(&bench), COUNTED_SCALE_FACTOR)
}

/// Renders counted points as one `    "group/point/counter": value,` line
/// per point inside a `groups` object, so a change in work shows as one
/// diff line per counter. The unit is `"count"` and no host information is
/// included: the file is byte-identical across machines. Zero-valued
/// counters are emitted too, so a counter moving off zero is a diff like
/// any other.
pub fn render_counted_json(points: &[CountedPoint], scale_factor: f64) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"scale_factor\": {scale_factor},\n"));
    out.push_str("  \"unit\": \"count\",\n");
    out.push_str("  \"groups\": {\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 < points.len() { "," } else { "" };
        out.push_str(&format!("    \"{}\": {}{}\n", p.name, p.value, sep));
    }
    out.push_str("  }\n}\n");
    out
}

/// Renders a set of points as a fixed-width table grouped by x value.
pub fn render_points(title: &str, points: &[Point], baseline: &str) -> String {
    let mut out = format!("== {title} ==\n");
    let mut xs: Vec<&str> = Vec::new();
    for p in points {
        if !xs.contains(&p.x.as_str()) {
            xs.push(&p.x);
        }
    }
    for x in xs {
        let base = points
            .iter()
            .find(|p| p.x == x && p.strategy == baseline)
            .map(|p| p.elapsed.as_secs_f64())
            .unwrap_or(f64::NAN);
        out.push_str(&format!("-- x = {x}\n"));
        for p in points.iter().filter(|p| p.x == x) {
            let pct = p.elapsed.as_secs_f64() / base * 100.0;
            out.push_str(&format!(
                "  {:<28} {:>10.3} ms   {:>6.1}% of baseline   ({} rows)\n",
                p.strategy,
                p.elapsed.as_secs_f64() * 1e3,
                pct,
                p.rows
            ));
        }
    }
    out
}

#[cfg(test)]
mod counted_tests {
    use super::*;

    #[test]
    fn render_prints_one_point_per_line() {
        let points = vec![
            CountedPoint {
                name: "counted_q1/linq/rows_scanned".to_string(),
                value: 12000,
            },
            CountedPoint {
                name: "counted_q1/linq/staging_copies".to_string(),
                value: 0,
            },
        ];
        let json = render_counted_json(&points, 0.002);
        // Exactly the `    "name": value,` shape the baseline test diffs
        // line by line: four-space indent, no separator on the last entry.
        assert!(json.contains("    \"counted_q1/linq/rows_scanned\": 12000,\n"));
        assert!(json.contains("    \"counted_q1/linq/staging_copies\": 0\n"));
        assert!(json.contains("\"unit\": \"count\""));
        assert!(json.ends_with("  }\n}\n"));
    }

    #[test]
    fn render_is_a_pure_function_of_its_points() {
        let points = vec![CountedPoint {
            name: "g/p/c".to_string(),
            value: 7,
        }];
        assert_eq!(
            render_counted_json(&points, 0.002),
            render_counted_json(&points, 0.002)
        );
    }
}
