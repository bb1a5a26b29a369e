//! Streaming query results through `QueryStream`: ordered incremental
//! morsel gather, backpressure, cancellation-on-drop, and mid-stream
//! deadline expiry.
//!
//! The contract under test:
//! * concatenating every streamed batch reproduces `Provider::execute`'s
//!   rows bit for bit — for every strategy and thread count,
//!   and with deterministic batch boundaries (`stream_batch_rows`);
//! * shapes that cannot stream incrementally (grouped aggregation, sorts,
//!   Min-transfer hybrid) still deliver the full result as a final flush;
//! * dropping a stream mid-way cancels the query within roughly one
//!   checkpoint (backpressure bounds how far the producer ran ahead) and
//!   never blocks;
//! * a deadline that expires mid-stream surfaces as a trailing
//!   `DeadlineExceeded` item, after every batch published before it;
//! * a consumer that drains slowly never deadlocks against the bounded
//!   channel;
//! * the prepared front end streams identically to the ad-hoc one.

use mrq_bench::Workbench;
use mrq_common::{DataType, Date, Field, Schema, Value};
use mrq_core::{
    OwnedProvider, ParallelConfig, Provider, QueryError, QueryOptions, QueryStream, Strategy,
};
use mrq_engine_hybrid::HybridConfig;
use mrq_engine_native::RowStore;
use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
use mrq_tpch::queries;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const THREADS: [usize; 3] = [1, 2, 8];

fn workbench() -> &'static Workbench {
    static WB: OnceLock<Workbench> = OnceLock::new();
    WB.get_or_init(|| Workbench::new(0.002))
}

// A streamable scan (filter + projection over `lineitem`): rows can leave
// the engine as soon as their morsel completes at the ordered frontier.
use mrq_tpch::queries::scan_micro;

fn cutoff() -> Date {
    workbench().data.shipdate_for_selectivity(0.5)
}

fn parallel(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        min_rows_per_thread: 16,
        ..ParallelConfig::default()
    }
    .with_morsel_rows(64)
}

/// Drains a stream and returns (concatenated rows, batch sizes).
fn drain(stream: QueryStream) -> (Vec<Vec<Value>>, Vec<usize>) {
    let mut rows = Vec::new();
    let mut sizes = Vec::new();
    for batch in stream {
        let batch = batch.expect("streamed batch");
        sizes.push(batch.len());
        rows.extend(batch);
    }
    (rows, sizes)
}

/// Every strategy, every thread count: the streamed batch sequence
/// concatenates to exactly the materialised result, and the batch
/// boundaries themselves are deterministic (`stream_batch_rows`-sized full
/// batches plus one remainder), independent of the schedule.
#[test]
fn streamed_batches_concatenate_bit_identical_across_strategies_and_schedules() {
    let wb = workbench();
    let workload = scan_micro(cutoff());
    let reference = wb
        .managed_provider()
        .execute(workload.clone(), Strategy::CompiledCSharp)
        .expect("sequential reference");
    assert!(reference.rows.len() > 200, "workload too small to stream");
    let batch_rows = 7;
    let options = QueryOptions::default().with_stream_batch_rows(batch_rows);

    let expected_sizes: Vec<usize> = {
        let full = reference.rows.len() / batch_rows;
        let rem = reference.rows.len() % batch_rows;
        let mut sizes = vec![batch_rows; full];
        if rem > 0 {
            sizes.push(rem);
        }
        sizes
    };

    for &threads in &THREADS {
        let config = parallel(threads);
        let context = |name: &str| format!("{name} at {threads} threads");

        // Managed strategies share one provider.
        let mut managed = wb.managed_provider();
        managed.set_parallelism(config);
        let managed = managed.into_shared();
        for (name, strategy) in [
            ("linq", Strategy::LinqToObjects),
            ("csharp", Strategy::CompiledCSharp),
            ("hybrid", Strategy::Hybrid(HybridConfig::default())),
        ] {
            let stream = managed.submit_stream(workload.clone(), strategy, options);
            let (rows, sizes) = drain(stream);
            assert_eq!(rows, reference.rows, "{}: rows", context(name));
            assert_eq!(sizes, expected_sizes, "{}: batch sizes", context(name));
        }

        // Native strategy over the row store.
        let mut native = Provider::new();
        native.bind_native_shared(queries::SRC_LINEITEM, Arc::clone(&wb.stores["lineitem"]));
        let native = native.into_shared();
        let stream = native.submit_stream(
            workload.clone(),
            Strategy::CompiledNativeParallel(config),
            options,
        );
        let (rows, sizes) = drain(stream);
        assert_eq!(rows, reference.rows, "{}: rows", context("native"));
        assert_eq!(sizes, expected_sizes, "{}: batch sizes", context("native"));
    }
}

/// Blocking shapes — grouped aggregation (q1) and a sort — cannot publish
/// mid-execution; the stream must still deliver the complete result as
/// final batches, bit-identical to `execute`.
#[test]
fn blocking_shapes_stream_their_full_result_at_completion() {
    let wb = workbench();
    for workload in [queries::q1(), queries::sort_micro(cutoff())] {
        let provider = wb.managed_provider().into_shared();
        let reference = provider
            .execute(workload.clone(), Strategy::CompiledCSharp)
            .expect("reference");
        let stream = provider.submit_stream(
            workload.clone(),
            Strategy::CompiledCSharp,
            QueryOptions::default().with_stream_batch_rows(3),
        );
        let (rows, _) = drain(stream);
        assert_eq!(rows, reference.rows);
    }
}

/// Streamed work counters: the channel's batch/row tallies land in the
/// provider's work stats (and nowhere else — a non-streamed run records
/// zero).
#[test]
fn work_stats_count_streamed_batches_and_rows() {
    let wb = workbench();
    let workload = scan_micro(cutoff());
    let provider = wb.managed_provider().into_shared();

    let out = provider
        .execute(workload.clone(), Strategy::CompiledCSharp)
        .expect("materialised run");
    assert_eq!(out.work.batches_streamed, 0);
    assert_eq!(out.work.rows_streamed, 0);

    let stream = provider.submit_stream(
        workload.clone(),
        Strategy::CompiledCSharp,
        QueryOptions::default().with_stream_batch_rows(7),
    );
    let (rows, sizes) = drain(stream);
    // The stream ends before its task records the tallies.
    wait_for_tasks(&provider);
    let stats = provider.last_work_stats();
    assert_eq!(stats.batches_streamed, sizes.len() as u64);
    assert_eq!(stats.rows_streamed, rows.len() as u64);
}

// --- lifecycle tests over a large native store ---------------------------

const ROWS: i64 = 1_000_000;

fn big_schema() -> Schema {
    Schema::new(
        "N",
        vec![
            Field::new("n", DataType::Int64),
            Field::new("bucket", DataType::Int64),
        ],
    )
}

fn big_store() -> Arc<RowStore> {
    static STORE: OnceLock<Arc<RowStore>> = OnceLock::new();
    let store = STORE.get_or_init(|| {
        let rows: Vec<Vec<Value>> = (0..ROWS)
            .map(|i| vec![Value::Int64(i), Value::Int64(i % 97)])
            .collect();
        Arc::new(RowStore::from_rows(big_schema(), &rows))
    });
    Arc::clone(store)
}

/// A full-store streamable scan: every row passes the filter and is
/// projected, so the stream must move `ROWS` rows through the bounded
/// channel.
fn big_scan() -> Expr {
    Query::from_source(SourceId(0))
        .where_(lam(
            "x",
            Expr::binary(BinaryOp::Ge, col("x", "n"), lit(0i64)),
        ))
        .select(lam("x", col("x", "n")))
        .into_expr()
}

fn big_provider() -> OwnedProvider {
    let mut provider = Provider::new();
    provider.bind_native_shared(SourceId(0), big_store());
    provider.set_parallelism(ParallelConfig {
        threads: 2,
        min_rows_per_thread: 1024,
        ..ParallelConfig::default()
    });
    provider.into_shared()
}

/// Spins until every task submitted on `provider` released its clone —
/// which a task does only after recording its work.
fn wait_for_tasks(provider: &OwnedProvider) {
    let start = Instant::now();
    while Arc::strong_count(provider) > 1 {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "a task still holds the provider"
        );
        std::thread::yield_now();
    }
}

/// Dropping a stream after one batch cancels the query: backpressure keeps
/// the producer within a few checkpoints of the consumer, so the streamed
/// row count stays far below the full scan, and dropping the provider
/// returns without waiting on abandoned work.
#[test]
fn dropping_a_stream_mid_way_cancels_the_query() {
    let provider = big_provider();
    let mut stream = provider.submit_stream(
        big_scan(),
        Strategy::CompiledNative,
        QueryOptions::default(),
    );
    let first = stream.next_batch().expect("first batch").expect("rows");
    assert!(!first.is_empty());
    // Abandon the rest: the drop disconnects the channel and trips the
    // token without blocking; the task unwinds within one checkpoint.
    let start = Instant::now();
    drop(stream);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "stream drop stalled"
    );
    wait_for_tasks(&provider);
    let streamed = provider.cumulative_work_stats().rows_streamed;
    assert!(
        streamed < ROWS as u64 / 2,
        "cancel should stop the scan early, streamed {streamed} of {ROWS} rows"
    );
    // Provider teardown must not block.
    let start = Instant::now();
    drop(provider);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "dropping the provider stalled"
    );
}

/// A deadline that expires while batches are being consumed surfaces as a
/// trailing `DeadlineExceeded` item after the batches published before it —
/// and an already-expired deadline yields the error as the only item.
#[test]
fn deadline_expiry_mid_stream_surfaces_as_trailing_error() {
    let provider = big_provider();

    // Already expired at dispatch: no batches, just the error, then None.
    let mut stream = provider.submit_stream(
        big_scan(),
        Strategy::CompiledNative,
        QueryOptions::new().with_deadline(Duration::ZERO),
    );
    match stream.next_batch() {
        Some(Err(QueryError::DeadlineExceeded)) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(stream.next_batch().is_none());
    drop(stream);

    // Expires mid-stream: the consumer paces the query via backpressure, so
    // the scan cannot finish inside the budget; batches arrive until the
    // deadline trips, then exactly one DeadlineExceeded.
    let mut stream = provider.submit_stream(
        big_scan(),
        Strategy::CompiledNative,
        QueryOptions::new().with_deadline(Duration::from_millis(200)),
    );
    let mut batches = 0usize;
    let error = loop {
        match stream.next_batch() {
            Some(Ok(_)) => {
                batches += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            Some(Err(error)) => break error,
            None => panic!("stream ended without the deadline error"),
        }
    };
    assert!(
        matches!(error, QueryError::DeadlineExceeded),
        "expected DeadlineExceeded after {batches} batches, got {error:?}"
    );
    assert!(stream.next_batch().is_none());
}

/// A consumer that sleeps between batches exerts backpressure the whole
/// way down and still drains the complete result — no deadlock, no loss,
/// no reordering.
#[test]
fn slow_consumer_backpressures_without_deadlock_or_loss() {
    let wb = workbench();
    let workload = scan_micro(cutoff());
    let provider = wb.managed_provider().into_shared();
    let reference = provider
        .execute(workload.clone(), Strategy::CompiledCSharp)
        .expect("reference");
    let stream = provider.submit_stream(
        workload,
        Strategy::CompiledCSharp,
        QueryOptions::default().with_stream_batch_rows(512),
    );
    let mut rows = Vec::new();
    for batch in stream {
        rows.extend(batch.expect("batch"));
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(rows, reference.rows);
}

/// The prepared front end (`PreparedQuery::submit_stream`) and the ad-hoc
/// one stream the same rows as `execute` with the bindings applied, over
/// managed and native bindings.
#[test]
fn prepared_and_owned_streams_match_execute() {
    let wb = workbench();
    let workload = scan_micro(cutoff());
    let options = QueryOptions::default().with_stream_batch_rows(64);

    // Prepared over the managed heap.
    let provider = wb.managed_provider().into_shared();
    let prepared = provider
        .prepare(workload.clone(), Strategy::CompiledCSharp)
        .expect("prepare");
    let reference = prepared.execute(&[]).expect("prepared execute");
    let (rows, _) = drain(prepared.submit_stream(&[], options));
    assert_eq!(rows, reference.rows);

    // Ad-hoc and prepared over a native store.
    let store = Arc::new(RowStore::from_rows(
        mrq_tpch::load::schema_of("lineitem"),
        &mrq_tpch::load::value_rows(&wb.data, "lineitem"),
    ));
    let owned = {
        let mut provider = Provider::new();
        provider.bind_native_shared(queries::SRC_LINEITEM, Arc::clone(&store));
        provider.into_shared()
    };
    let native_reference = owned
        .execute(workload.clone(), Strategy::CompiledNative)
        .expect("native reference");
    assert_eq!(native_reference.rows, reference.rows);

    let (rows, _) = drain(owned.submit_stream(workload.clone(), Strategy::CompiledNative, options));
    assert_eq!(rows, reference.rows);

    let owned_prepared = owned
        .prepare(workload, Strategy::CompiledNative)
        .expect("owned prepare");
    let (rows, _) = drain(owned_prepared.submit_stream(&[], options));
    assert_eq!(rows, reference.rows);
}
