//! Exactness of the per-query work counters: not just deterministic, but
//! equal to what the workload arithmetic says they must be.
//!
//! * A filter over N rows scans exactly N (the hybrid's staged re-scan is
//!   accounted on top, honestly).
//! * A selectivity-1 join over N probe × M build rows performs exactly N
//!   probe lookups, M build inserts and (for a one-column key) N key
//!   comparisons.
//! * Prepared re-execution repeats identical execution work: compilation
//!   contributes zero counters, and the cumulative totals advance by
//!   exactly one execution per run.
//! * Cancelled and deadline-expired queries report partial, monotonically
//!   non-decreasing stats without panicking.

use mrq_bench::{run_strategy, Workbench};
use mrq_codegen::exec::ExecState;
use mrq_codegen::TableAccess;
use mrq_common::cancel::{self, CancelReason, CancelToken};
use mrq_common::context::{self, QueryContext};
use mrq_common::{DataType, Decimal, Field, ParallelConfig, Schema, Value, WorkStats};
use mrq_core::{Provider, Strategy};
use mrq_engine_hybrid::HybridConfig;
use mrq_engine_native::RowStore;
use mrq_expr::{col, lam, Expr, Query, SourceId};
use mrq_tpch::queries;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

fn workbench() -> Workbench {
    Workbench::new(0.002)
}

// ---------------------------------------------------------------------------
// Filter over N rows scans exactly N
// ---------------------------------------------------------------------------

#[test]
fn filter_scans_exactly_the_table() {
    let wb = workbench();
    let (canon, spec) = wb.lower(queries::q6());
    let n = wb.row_stores(&spec)[0].len() as u64;
    assert!(n > 0, "the test dataset must not be empty");

    for (name, strategy) in [
        ("linq", Strategy::LinqToObjects),
        ("csharp", Strategy::CompiledCSharp),
        ("native", Strategy::CompiledNative),
    ] {
        let (_, out) = run_strategy(&wb, &canon, &spec, strategy);
        let work = out.work_stats();
        assert_eq!(
            work.rows_scanned, n,
            "{name}: a join-free filter reads each of the {n} rows exactly once"
        );
        assert_eq!(work.build_inserts, 0, "{name}: no join, no build");
        assert_eq!(work.probe_lookups, 0, "{name}: no join, no probes");
        assert!(
            work.rows_materialized < n,
            "{name}: q6 is selective, so fewer rows reach the output than were scanned"
        );
    }

    // The hybrid stages qualifying rows into native buffers and then runs
    // the fused loop over the staged copy: its scan counter honestly
    // reports the base scan *plus* the staged re-scan.
    for (name, config) in [
        ("hybrid_full", HybridConfig::default()),
        ("hybrid_buffer", HybridConfig::buffered()),
    ] {
        let (_, out) = run_strategy(&wb, &canon, &spec, Strategy::Hybrid(config));
        let work = out.work_stats();
        assert_eq!(
            work.rows_scanned,
            n + work.staging_copies,
            "{name}: base scan of {n} plus one re-scan per staged row"
        );
        assert!(
            work.staging_copies > 0,
            "{name}: q6 qualifies some rows, so staging must copy them"
        );
    }
}

// ---------------------------------------------------------------------------
// Selectivity-1 join: N probes against M build rows
// ---------------------------------------------------------------------------

const CITIES: i64 = 64;

fn sales_schema() -> Schema {
    Schema::new(
        "Sale",
        vec![
            Field::new("id", DataType::Int64),
            Field::new("city_id", DataType::Int64),
            Field::new("price", DataType::Decimal),
        ],
    )
}

fn cities_schema() -> Schema {
    Schema::new(
        "City",
        vec![
            Field::new("city_id", DataType::Int64),
            Field::new("population", DataType::Int64),
        ],
    )
}

/// Probe rows whose city ids all land in `0..CITIES`, so with a build side
/// covering exactly those ids every probe matches exactly one build row —
/// selectivity 1 by construction.
fn join_stores(sales: i64) -> (RowStore, RowStore) {
    let sales_rows: Vec<Vec<Value>> = (0..sales)
        .map(|i| {
            vec![
                Value::Int64(i),
                Value::Int64(i % CITIES),
                Value::Decimal(Decimal::from_int(i % 97)),
            ]
        })
        .collect();
    let cities_rows: Vec<Vec<Value>> = (0..CITIES)
        .map(|i| vec![Value::Int64(i), Value::Int64(i * 1_000)])
        .collect();
    (
        RowStore::from_rows(sales_schema(), &sales_rows),
        RowStore::from_rows(cities_schema(), &cities_rows),
    )
}

fn join_query() -> Expr {
    Query::from_source(SourceId(0))
        .join_query(
            Query::from_source(SourceId(1)),
            lam("s", col("s", "city_id")),
            lam("c", col("c", "city_id")),
            lam(
                "s",
                lam(
                    "c",
                    Expr::Constructor {
                        name: "SC".into(),
                        fields: vec![
                            ("id".into(), col("s", "id")),
                            ("population".into(), col("c", "population")),
                        ],
                    },
                ),
            ),
        )
        .into_expr()
}

#[test]
fn selectivity_one_join_probes_exactly_n() {
    let n = 6_000i64;
    let (sales, cities) = join_stores(n);
    let canon = mrq_expr::canonicalize(join_query());
    let mut catalog = HashMap::new();
    catalog.insert(SourceId(0), sales_schema());
    catalog.insert(SourceId(1), cities_schema());
    let spec = mrq_codegen::spec::lower(&canon, &catalog).expect("join lowers");

    let out = mrq_engine_native::execute(&spec, &canon.params, &[&sales, &cities])
        .expect("sequential native");
    assert_eq!(out.rows.len() as u64, n as u64, "selectivity really is 1");

    let work = out.work_stats();
    let (n, m) = (n as u64, CITIES as u64);
    assert_eq!(
        work.rows_scanned,
        n + m,
        "every probe row and every build row is read exactly once"
    );
    assert_eq!(
        work.build_inserts, m,
        "one insert per (unfiltered) build row"
    );
    assert_eq!(work.probe_lookups, n, "one hash lookup per probe row");
    // The join key is one encoded part, so comparisons count one per probe.
    assert_eq!(work.key_comparisons, n, "one key comparison per lookup");
    assert_eq!(
        work.rows_materialized, n,
        "every probe match reaches output"
    );

    // The same exact counts hold under a parallel partitioned build + probe
    // (the determinism suite holds this across shapes; this pins the value).
    let config = ParallelConfig {
        threads: 4,
        min_rows_per_thread: 16,
        morsel_rows: 64,
    };
    let parallel =
        mrq_engine_native::execute_parallel(&spec, &canon.params, &[&sales, &cities], &[], config)
            .expect("parallel native");
    assert_eq!(
        parallel.work_stats().partition_invariant(),
        work.partition_invariant(),
        "parallel execution performs the same probes, inserts and comparisons"
    );
}

// ---------------------------------------------------------------------------
// Prepared re-execution adds zero compile-side counters
// ---------------------------------------------------------------------------

/// Cumulative counters advance by exactly `last` when one more execution of
/// the same prepared plan runs.
fn assert_advanced_by_one_run(before: &WorkStats, after: &WorkStats, last: &WorkStats) {
    let mut expected = *before;
    expected.add(last);
    assert_eq!(
        *after, expected,
        "the cumulative totals must advance by exactly one execution"
    );
}

#[test]
fn prepared_reexecution_repeats_identical_work() {
    let wb = workbench();

    // Managed strategies through the provider's prepared-query path.
    let managed = wb.managed_provider().into_shared();
    for (name, strategy) in [
        ("csharp", Strategy::CompiledCSharp),
        ("hybrid", Strategy::Hybrid(HybridConfig::default())),
    ] {
        let prepared = managed
            .prepare(queries::q6(), strategy)
            .expect("prepare managed");
        prepared.execute(&[]).expect("first run");
        let first = managed.last_work_stats();
        let cum_first = managed.cumulative_work_stats();
        prepared.execute(&[]).expect("second run");
        let second = managed.last_work_stats();
        let cum_second = managed.cumulative_work_stats();
        assert_eq!(
            first, second,
            "{name}: re-executing a prepared plan repeats identical work — \
             compilation contributes zero counters"
        );
        assert!(first.total() > 0, "{name}: the execution reports work");
        assert_advanced_by_one_run(&cum_first, &cum_second, &second);
    }

    // The native store-backed provider.
    let mut native = Provider::new();
    native.bind_native_shared(
        queries::SRC_LINEITEM,
        Arc::clone(&wb.stores[queries::source_table(queries::SRC_LINEITEM)]),
    );
    let native = native.into_shared();
    let prepared = native
        .prepare(queries::q6(), Strategy::CompiledNative)
        .expect("prepare native");
    prepared.execute(&[]).expect("first run");
    let first = native.last_work_stats();
    let cum_first = native.cumulative_work_stats();
    prepared.execute(&[]).expect("second run");
    let second = native.last_work_stats();
    let cum_second = native.cumulative_work_stats();
    assert_eq!(first, second, "native: prepared re-execution repeats work");
    assert_advanced_by_one_run(&cum_first, &cum_second, &second);
}

// ---------------------------------------------------------------------------
// Cancelled / deadline-expired queries report partial monotone stats
// ---------------------------------------------------------------------------

fn assert_monotone(before: &WorkStats, after: &WorkStats, context: &str) {
    for ((counter, b), (_, a)) in before.as_pairs().iter().zip(after.as_pairs().iter()) {
        assert!(
            a >= b,
            "{context}: counter `{counter}` went backwards ({b} -> {a})"
        );
    }
}

#[test]
fn partial_stats_are_monotone_across_chunked_consumption() {
    let wb = workbench();
    let (canon, spec) = wb.lower(queries::q6());
    let stores = wb.row_stores(&spec);
    let schemas: Vec<Schema> = stores.iter().map(|t| t.schema().clone()).collect();
    let mut state =
        ExecState::new(&spec, &canon.params, stores[1..].to_vec(), &schemas).expect("exec state");

    let n = stores[0].len();
    let chunk = 1_000;
    let mut previous = WorkStats::default();
    let mut start = 0;
    while start < n {
        let end = (start + chunk).min(n);
        state.consume_range(stores[0], start..end);
        let work = *state.work();
        assert_monotone(&previous, &work, "chunked consume");
        assert_eq!(
            work.rows_scanned, end as u64,
            "the partial scan counter tracks exactly the rows consumed so far"
        );
        previous = work;
        start = end;
    }
    assert_eq!(
        previous.morsels_executed,
        n.div_ceil(chunk) as u64,
        "one execution chunk per consume_range call"
    );
    let out = state.finish();
    assert_eq!(
        out.work_stats(),
        &previous,
        "the finished output carries the accumulated counters"
    );
}

/// Runs one full consume inside a query context whose token is already
/// tripped; returns the reason the engine unwound with and the partial
/// stats left behind.
fn consume_until_tripped(token: CancelToken) -> (CancelReason, WorkStats) {
    let wb = workbench();
    let (canon, spec) = wb.lower(queries::q6());
    let stores = wb.row_stores(&spec);
    let schemas: Vec<Schema> = stores.iter().map(|t| t.schema().clone()).collect();
    let mut state =
        ExecState::new(&spec, &canon.params, stores[1..].to_vec(), &schemas).expect("exec state");
    let n = stores[0].len();
    assert!(
        n > cancel::CHECK_EVERY_ROWS,
        "the dataset must be large enough to reach a cancellation checkpoint"
    );

    let query = QueryContext::new(Arc::new(token), Default::default());
    let unwound = context::scope(query, || {
        catch_unwind(AssertUnwindSafe(|| state.consume_range(stores[0], 0..n)))
    });
    let payload = unwound.expect_err("a tripped token must stop the scan");
    let reason = *payload
        .downcast::<CancelReason>()
        .expect("the unwind payload is the cancel reason");

    // The state survives the unwind: its counters are readable, partial and
    // exact — the scan stopped at the first checkpoint.
    let work = *state.work();
    assert_eq!(
        work.rows_scanned,
        cancel::CHECK_EVERY_ROWS as u64,
        "the scan stopped at the first cancellation checkpoint"
    );
    assert!(
        work.rows_scanned < n as u64,
        "the reported stats are genuinely partial"
    );
    assert_monotone(&WorkStats::default(), &work, "partial stats");
    (reason, work)
}

#[test]
fn cancelled_query_reports_partial_stats_without_panicking() {
    let token = CancelToken::new();
    token.cancel();
    let (reason, work) = consume_until_tripped(token);
    assert_eq!(reason, CancelReason::Cancelled);
    assert!(work.rows_materialized <= work.rows_scanned);
}

#[test]
fn deadline_expired_query_reports_partial_stats_without_panicking() {
    let (reason, work) = consume_until_tripped(CancelToken::expiring(Instant::now()));
    assert_eq!(reason, CancelReason::DeadlineExceeded);
    assert!(work.rows_materialized <= work.rows_scanned);
}
