//! Query-lifecycle control through the serving layer: cooperative
//! cancellation, deadlines and QoS classes (`Provider::submit` with
//! `QueryOptions`, `QueryHandle::cancel`).
//!
//! The contract under test:
//! * an already-expired deadline resolves the handle at dispatch — the
//!   query never compiles, never executes a morsel;
//! * cancelling a long scan resolves the handle to `QueryError::Cancelled`
//!   while the pool stays fully drainable and usable;
//! * an uncancelled query running concurrently with a cancelled one on the
//!   same provider completes bit-identical to its sequential run;
//! * dropping a cancelled handle without joining never blocks, and the
//!   abandoned task still releases its provider.
//!
//! The "long scan" is sized so that the victim query costs hundreds of
//! milliseconds of work while the cancel is issued microseconds after
//! submission — whichever side of the dispatch check the cancel lands on
//! (before the task starts, or between two of its morsels), the handle must
//! resolve to `Cancelled`.

use mrq_common::{DataType, Field, Schema, Value};
use mrq_core::{
    OwnedProvider, ParallelConfig, Provider, QosClass, QueryError, QueryOptions, Strategy,
};
use mrq_engine_native::RowStore;
use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const ROWS: i64 = 1_500_000;

fn schema() -> Schema {
    Schema::new(
        "N",
        vec![
            Field::new("n", DataType::Int64),
            Field::new("bucket", DataType::Int64),
        ],
    )
}

/// One big shared store: building it costs more than every test in this
/// file, so it is materialised once per process.
fn store() -> Arc<RowStore> {
    static STORE: OnceLock<Arc<RowStore>> = OnceLock::new();
    let store = STORE.get_or_init(|| {
        let rows: Vec<Vec<Value>> = (0..ROWS)
            .map(|i| vec![Value::Int64(i), Value::Int64(i % 97)])
            .collect();
        Arc::new(RowStore::from_rows(schema(), &rows))
    });
    Arc::clone(store)
}

/// A full-store grouped aggregation: every row is touched, so the scan's
/// cost scales with `ROWS` and a mid-flight cancel always has morsels left
/// to abandon.
fn long_scan() -> Expr {
    Query::from_source(SourceId(0))
        .where_(lam(
            "x",
            Expr::binary(BinaryOp::Ge, col("x", "n"), lit(0i64)),
        ))
        .group_by(lam("x", col("x", "bucket")))
        .select(lam(
            "g",
            Expr::Constructor {
                name: "R".into(),
                fields: vec![
                    (
                        "bucket".into(),
                        Expr::member(Expr::member(mrq_expr::var("g"), "Key"), "bucket"),
                    ),
                    (
                        "n".into(),
                        mrq_expr::builder::agg(mrq_expr::AggFunc::Count, "g", None),
                    ),
                ],
            },
        ))
        .order_by(lam("r", col("r", "bucket")))
        .into_expr()
}

/// A provider over the shared store with many small morsels, so there are
/// plenty of cancellation points even on a 1-CPU host.
fn parallel_provider() -> OwnedProvider {
    let mut provider = Provider::new();
    provider.bind_native_shared(SourceId(0), store());
    provider.set_parallelism(ParallelConfig {
        threads: 2,
        min_rows_per_thread: 1024,
        ..ParallelConfig::default()
    });
    provider.into_shared()
}

fn sequential_reference() -> &'static mrq_codegen::exec::QueryOutput {
    static REFERENCE: OnceLock<mrq_codegen::exec::QueryOutput> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let mut provider = Provider::new();
        provider.bind_native_shared(SourceId(0), store());
        provider
            .execute(long_scan(), Strategy::CompiledNative)
            .expect("sequential reference")
    })
}

#[test]
fn zero_deadline_always_fires_before_any_morsel() {
    let provider = parallel_provider();
    for _ in 0..4 {
        let options = QueryOptions::new().with_deadline(Duration::ZERO);
        let handle = provider.submit(long_scan(), Strategy::CompiledNative, options);
        assert!(matches!(handle.join(), Err(QueryError::DeadlineExceeded)));
    }
    // Dispatch resolved every expired query before it reached the
    // compiler — the observable proof that no morsel (or anything else)
    // ever executed.
    assert_eq!(provider.plan_cache_stats().misses, 0);
    assert_eq!(provider.plan_cache_stats().hits, 0);
}

#[test]
fn cancel_before_start_resolves_immediately() {
    let provider = parallel_provider();
    let handle = provider.submit(long_scan(), Strategy::CompiledNative, QueryOptions::new());
    // Issued microseconds after submission: the scan (hundreds of ms of
    // work) cannot have completed, so the only admissible resolution is
    // Cancelled — at dispatch if the task had not started, at the next
    // morsel boundary if it had.
    handle.cancel();
    assert!(matches!(handle.join(), Err(QueryError::Cancelled)));
}

#[test]
fn cancelled_scan_resolves_cancelled_and_uncancelled_peer_stays_bit_identical() {
    let reference = sequential_reference();
    let provider = parallel_provider();
    // Queue the victim first, the peer second: the peer's tickets sit
    // behind the victim's, so abandoning the victim is also what frees the
    // pool for the peer.
    let victim = provider.submit(long_scan(), Strategy::CompiledNative, QueryOptions::new());
    let peer = provider.submit(long_scan(), Strategy::CompiledNative, QueryOptions::new());
    victim.cancel();
    assert!(matches!(victim.join(), Err(QueryError::Cancelled)));
    let out = peer.join().expect("uncancelled peer completes");
    assert_eq!(&out, reference, "peer bit-identical to the sequential run");
}

#[test]
fn cancel_mid_query_leaves_the_pool_drainable() {
    let reference = sequential_reference();
    let provider = parallel_provider();
    // Give the victim a head start so the cancel lands mid-execution (if
    // the pool was busy and it never started, the dispatch check covers
    // it — either way the pool must come back clean).
    let victim = provider.submit(long_scan(), Strategy::CompiledNative, QueryOptions::new());
    while !victim.is_finished() && provider.plan_cache_stats().misses == 0 {
        std::thread::yield_now();
    }
    victim.cancel();
    assert!(matches!(victim.join(), Err(QueryError::Cancelled)));
    // The pool serves subsequent work in full, through both front ends.
    let executed = provider
        .execute(long_scan(), Strategy::CompiledNative)
        .expect("execute after cancel");
    assert_eq!(&executed, reference);
    let submitted = provider
        .submit(
            long_scan(),
            Strategy::CompiledNative,
            QueryOptions::default(),
        )
        .join()
        .expect("submit after cancel");
    assert_eq!(&submitted, reference);
}

#[test]
fn dropping_a_cancelled_handle_does_not_deadlock_provider_drop() {
    let provider = parallel_provider();
    for _ in 0..3 {
        let handle = provider.submit(long_scan(), Strategy::CompiledNative, QueryOptions::new());
        handle.cancel();
        drop(handle); // returns at once; the task unwinds in the background
    }
    let weak = Arc::downgrade(&provider);
    drop(provider);
    // Every abandoned task resolves and releases its provider clone.
    let start = Instant::now();
    while weak.upgrade().is_some() {
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "a cancelled task never finished"
        );
        std::thread::yield_now();
    }
}

#[test]
fn intra_morsel_checkpoints_stop_a_giant_morsel_scan() {
    // Configure morsels so large the whole 1.5M-row scan fits in one or
    // two: before intra-morsel checkpoints, a claimed morsel always ran to
    // completion, so a cancel landing mid-morsel paid (up to) the entire
    // scan before resolving. The fused loops now checkpoint every ~4096
    // rows, so the cancelled query must resolve in a small fraction of the
    // full scan's wall time.
    let mut provider = Provider::new();
    provider.bind_native_shared(SourceId(0), store());
    provider.set_parallelism(
        ParallelConfig {
            threads: 2,
            min_rows_per_thread: 1024,
            ..ParallelConfig::default()
        }
        .with_morsel_rows(ROWS as usize),
    );
    let provider = provider.into_shared();
    let full = Instant::now();
    let reference = provider
        .execute(long_scan(), Strategy::CompiledNative)
        .expect("uncancelled giant-morsel scan");
    let full = full.elapsed();

    let victim = provider.submit(long_scan(), Strategy::CompiledNative, QueryOptions::new());
    // Let it reach execution (compile observed), then cancel mid-morsel.
    while !victim.is_finished() && provider.plan_cache_stats().hits == 0 {
        std::thread::yield_now();
    }
    let cancelled_at = Instant::now();
    victim.cancel();
    assert!(matches!(victim.join(), Err(QueryError::Cancelled)));
    let cancel_latency = cancelled_at.elapsed();
    // ~4096 rows of work (plus scheduling noise) versus 1.5M: anything
    // close to the full scan's wall time means the checkpoint never fired.
    assert!(
        cancel_latency < full,
        "cancel took {cancel_latency:?}, the full scan only {full:?} — \
         intra-morsel checkpoints are not firing"
    );
    // The pool is clean and subsequent runs are unaffected.
    let again = provider
        .execute(long_scan(), Strategy::CompiledNative)
        .expect("scan after intra-morsel cancel");
    assert_eq!(again, reference);
}

#[test]
fn maintenance_class_queries_complete_with_identical_results() {
    let reference = sequential_reference();
    let provider = parallel_provider();
    let maintenance = provider.submit(
        long_scan(),
        Strategy::CompiledNative,
        QueryOptions::maintenance(),
    );
    let interactive = provider.submit(long_scan(), Strategy::CompiledNative, QueryOptions::new());
    assert_eq!(&interactive.join().expect("interactive"), reference);
    assert_eq!(&maintenance.join().expect("maintenance"), reference);
}

#[test]
fn qos_classes_complete_with_identical_results() {
    let reference = sequential_reference();
    let provider = parallel_provider();
    let batch = provider.submit(
        long_scan(),
        Strategy::CompiledNative,
        QueryOptions::batch().with_deadline(Duration::from_secs(600)),
    );
    let interactive = provider.submit(
        long_scan(),
        Strategy::CompiledNative,
        QueryOptions::new().with_class(QosClass::Interactive),
    );
    assert_eq!(&interactive.join().expect("interactive"), reference);
    assert_eq!(&batch.join().expect("batch"), reference);
}

#[test]
fn cancellation_reaches_the_interpreted_baseline() {
    // The LINQ baseline has no morsels; its source enumerable checkpoints
    // every few thousand enumerated elements instead, so even the
    // single-threaded interpreted pipeline abandons a cancelled scan.
    use mrq_mheap::{ClassDesc, Heap};
    let rows = 400_000i64;
    let mut heap = Heap::new();
    let class = heap.register_class(ClassDesc::from_schema(&schema()));
    let list = heap.new_list("numbers", Some(class));
    for i in 0..rows {
        let obj = heap.alloc(class);
        heap.set_i64(obj, 0, i);
        heap.set_i64(obj, 1, i % 97);
        heap.list_push(list, obj);
    }
    let mut provider = Provider::over_shared_heap(Arc::new(heap));
    provider.bind_managed(SourceId(0), list, schema());
    let provider = provider.into_shared();
    let handle = provider.submit(long_scan(), Strategy::LinqToObjects, QueryOptions::new());
    handle.cancel();
    assert!(matches!(handle.join(), Err(QueryError::Cancelled)));
    // And with no cancel, the same statement completes.
    let out = provider
        .submit(
            long_scan(),
            Strategy::LinqToObjects,
            QueryOptions::default(),
        )
        .join()
        .expect("uncancelled baseline completes");
    assert_eq!(out.rows.len(), 97);
}
