//! Chaos suite: deterministic fault injection against the serving core.
//!
//! Every named fault point in `mrq_common::fault::POINTS` is armed in turn
//! with both failing actions (`err` and `panic`); in each round the victim
//! query fails cleanly with an error naming the point, a concurrent peer
//! whose execution path never traverses the armed point returns rows
//! bit-identical to the sequential reference, the pool drains, and a
//! subsequent identical query on the same provider succeeds. Arming is
//! counter-based (a fault fires on the Nth traversal), so every test here
//! replays identically — no timing, no randomness, no sleeps.
//!
//! The `hold` action freezes admitted submissions *at* the dispatch
//! boundary, which is what lets the overload tests assert exact
//! [`AdmissionStats`] and zero compilation traffic for shed statements
//! without a single sleep.
//!
//! The fault registry is process-global (so is the worker pool it
//! instruments), so these tests serialise on a lock and disarm everything
//! on entry and exit — including faults armed via `MRQ_FAULTS` by the CI
//! fault-injection cell.

use mrq_bench::Workbench;
use mrq_client::{Client, ClientError};
use mrq_codegen::exec::QueryOutput;
use mrq_common::fault::{self, FaultAction};
use mrq_common::{AdmissionConfig, DataType, Field, MrqError, ParallelConfig, Schema, Value};
use mrq_core::{OwnedProvider, Provider, QueryHandle, QueryOptions, Strategy};
use mrq_engine_hybrid::HybridConfig;
use mrq_engine_native::RowStore;
use mrq_expr::Expr;
use mrq_expr::{col, lam, lit, BinaryOp, Query, SourceId};
use mrq_protocol::Server;
use mrq_tpch::gen::{GenConfig, TpchData};
use mrq_tpch::load::{schema_of, value_rows};
use mrq_tpch::queries;
use std::future::Future;
use std::pin::Pin;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock};
use std::task::{Context, Wake, Waker};
use std::time::{Duration, Instant};

/// Serialises chaos tests on the process-global fault registry and leaves
/// it clean on both entry and exit (even if the test panics).
fn scoped() -> impl Drop {
    static SERIAL: Mutex<()> = Mutex::new(());
    struct Guard(#[allow(dead_code)] MutexGuard<'static, ()>);
    impl Drop for Guard {
        fn drop(&mut self) {
            fault::disarm_all();
        }
    }
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm_all();
    Guard(guard)
}

fn workbench() -> Workbench {
    Workbench::new(0.002)
}

/// A provider with every source of `workload` bound to native row stores.
fn native_provider(wb: &Workbench, workload: &Expr) -> Provider<'static> {
    let canon = mrq_expr::canonicalize(workload.clone());
    let spec = mrq_codegen::spec::lower(&canon, &wb.catalog(None)).expect("workload lowers");
    let mut provider = Provider::new();
    let mut sources = vec![spec.root];
    sources.extend(spec.joins.iter().map(|j| j.source));
    for s in &sources {
        provider.bind_native_shared(*s, Arc::clone(&wb.stores[queries::source_table(*s)]));
    }
    provider
}

/// Small-enough thresholds that the tiny test dataset actually splits into
/// several morsels per join build table.
fn par(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        min_rows_per_thread: 16,
        ..ParallelConfig::default()
    }
    .with_morsel_rows(64)
}

fn assert_rows(reference: &QueryOutput, out: &QueryOutput, context: &str) {
    assert_eq!(reference.schema, out.schema, "{context}: schema");
    assert_eq!(reference.rows, out.rows, "{context}: rows");
}

/// The two actions that make a victim fail; swept by every point test.
const FAILING: [FaultAction; 2] = [FaultAction::Err, FaultAction::Panic];

/// Points on the submitted-native path: the dispatch boundary, the engine
/// probe, and the completion latch. The peer is a compiled-C# query on a
/// separate managed provider — blocking `execute` never traverses
/// `pool.dispatch` or `future.complete`, and the C# engine never traverses
/// `engine.native.probe`.
#[test]
fn submitted_native_faults_fail_only_the_victim() {
    let _guard = scoped();
    let wb = workbench();
    let workload = queries::q1();
    let native = native_provider(&wb, &workload).into_shared();
    let managed = wb.managed_provider().into_shared();
    let native_ref = native
        .execute(workload.clone(), Strategy::CompiledNative)
        .expect("native reference");
    let peer_ref = managed
        .execute(workload.clone(), Strategy::CompiledCSharp)
        .expect("peer reference");
    for point in ["pool.dispatch", "engine.native.probe", "future.complete"] {
        for action in FAILING {
            fault::arm(point, action, 1);
            let victim = native.submit(
                workload.clone(),
                Strategy::CompiledNative,
                QueryOptions::default(),
            );
            // The peer runs while the fault is live.
            let peer = managed
                .execute(workload.clone(), Strategy::CompiledCSharp)
                .expect("peer survives");
            assert_rows(&peer_ref, &peer, &format!("{point}/{action:?}: peer"));
            let error = victim
                .join()
                .expect_err("the victim fails cleanly")
                .to_string();
            assert!(error.contains(point), "{point}/{action:?}: {error}");
            fault::disarm_all();
            // The pool drained and the same provider serves again.
            let retry = native
                .submit(
                    workload.clone(),
                    Strategy::CompiledNative,
                    QueryOptions::default(),
                )
                .join()
                .expect("post-fault retry");
            assert_rows(&native_ref, &retry, &format!("{point}/{action:?}: retry"));
        }
    }
}

/// Points on the managed engines: the LINQ scan, the compiled-C# probe,
/// and the hybrid staging→native hand-off. The peer strategy is chosen so
/// its path never traverses the armed point.
#[test]
fn managed_engine_faults_fail_only_the_victim() {
    let _guard = scoped();
    let wb = workbench();
    let workload = queries::q1();
    let managed = wb.managed_provider().into_shared();
    let reference = managed
        .execute(workload.clone(), Strategy::CompiledCSharp)
        .expect("reference");
    let cases: [(&str, Strategy, Strategy); 3] = [
        (
            "engine.linq.scan",
            Strategy::LinqToObjects,
            Strategy::CompiledCSharp,
        ),
        (
            "engine.csharp.probe",
            Strategy::CompiledCSharp,
            Strategy::LinqToObjects,
        ),
        (
            "staging.merge",
            Strategy::Hybrid(HybridConfig::default()),
            Strategy::CompiledCSharp,
        ),
    ];
    for (point, victim_strategy, peer_strategy) in cases {
        for action in FAILING {
            fault::arm(point, action, 1);
            let victim = managed.submit(workload.clone(), victim_strategy, QueryOptions::default());
            let peer = managed
                .execute(workload.clone(), peer_strategy)
                .expect("peer survives");
            assert_rows(&reference, &peer, &format!("{point}/{action:?}: peer"));
            let error = victim
                .join()
                .expect_err("the victim fails cleanly")
                .to_string();
            assert!(error.contains(point), "{point}/{action:?}: {error}");
            fault::disarm_all();
            let retry = managed
                .submit(workload.clone(), victim_strategy, QueryOptions::default())
                .join()
                .expect("post-fault retry");
            assert_rows(&reference, &retry, &format!("{point}/{action:?}: retry"));
        }
    }
}

/// `plancache.insert` fires inside the compile closure of
/// `Provider::prepare`: the statement fails cleanly, nothing is cached,
/// and the next prepare on the same provider compiles and caches normally.
#[test]
fn plan_cache_insert_faults_leave_the_cache_consistent() {
    let _guard = scoped();
    let wb = workbench();
    let workload = queries::q1();
    let native = native_provider(&wb, &workload).into_shared();
    for action in FAILING {
        fault::arm("plancache.insert", action, 1);
        let error = match native.prepare(workload.clone(), Strategy::CompiledNative) {
            Err(error) => error.to_string(),
            Ok(_) => panic!("prepare must fail while {action:?} is armed"),
        };
        assert!(error.contains("plancache.insert"), "{action:?}: {error}");
        // The failed compile cached nothing.
        assert_eq!(native.plan_cache_stats().entries, 0, "{action:?}");
        fault::disarm_all();
    }
    // Recovery: prepare compiles, caches, and executes.
    let prepared = native
        .prepare(workload.clone(), Strategy::CompiledNative)
        .expect("post-fault prepare");
    let out = prepared.execute(&[]).expect("prepared executes");
    let reference = native
        .execute(workload.clone(), Strategy::CompiledNative)
        .expect("reference");
    assert_rows(&reference, &out, "recovered prepare");
    assert_eq!(native.plan_cache_stats().entries, 1);
}

/// `join.build.shard` fires *inside a morsel on a pool worker* during the
/// parallel hash-join build, exercising the whole containment stack: the
/// worker's catch site captures the payload, the job retires its remaining
/// morsels, and the submitter gets a clean error naming the point. The
/// sequential peer never builds shards in parallel.
#[test]
fn pool_worker_panics_during_join_builds_are_contained() {
    let _guard = scoped();
    let wb = workbench();
    let workload = queries::q3();
    let native = native_provider(&wb, &workload).into_shared();
    let reference = native
        .execute(workload.clone(), Strategy::CompiledNative)
        .expect("sequential reference");
    let parallel = Strategy::CompiledNativeParallel(par(2));
    for action in FAILING {
        fault::arm("join.build.shard", action, 1);
        let victim = native.submit(workload.clone(), parallel, QueryOptions::default());
        // Sequential peer on the same provider: no parallel shard build.
        let peer = native
            .execute(workload.clone(), Strategy::CompiledNative)
            .expect("sequential peer survives");
        assert_rows(&reference, &peer, &format!("{action:?}: peer"));
        let error = victim
            .join()
            .expect_err("the victim fails cleanly")
            .to_string();
        assert!(error.contains("join.build.shard"), "{action:?}: {error}");
        fault::disarm_all();
        // The pool stays serviceable for the same parallel plan.
        let retry = native
            .submit(workload.clone(), parallel, QueryOptions::default())
            .join()
            .expect("post-panic parallel retry");
        assert_rows(&reference, &retry, &format!("{action:?}: retry"));
    }
}

/// Delay faults (the CI fault cell's configuration) perturb timing but
/// never results: every query still succeeds bit-identically.
#[test]
fn delay_faults_never_change_results() {
    let _guard = scoped();
    let wb = workbench();
    let workload = queries::q1();
    let native = native_provider(&wb, &workload).into_shared();
    let reference = native
        .execute(workload.clone(), Strategy::CompiledNative)
        .expect("reference");
    fault::arm_spec("pool.dispatch:delay, engine.native.probe:delay, future.complete:delay")
        .expect("benign spec arms");
    let out = native
        .submit(
            workload.clone(),
            Strategy::CompiledNative,
            QueryOptions::default(),
        )
        .join()
        .expect("delayed query succeeds");
    assert_rows(&reference, &out, "delayed");
    assert!(fault::fired("pool.dispatch"));
}

/// With nothing armed every point is a no-op — the exact state of the
/// default CI cells.
#[test]
fn disarmed_points_are_invisible() {
    let _guard = scoped();
    assert_eq!(fault::armed_count(), 0);
    let wb = workbench();
    let workload = queries::q1();
    let native = native_provider(&wb, &workload).into_shared();
    let reference = native
        .execute(workload.clone(), Strategy::CompiledNative)
        .expect("reference");
    let out = native
        .submit(
            workload.clone(),
            Strategy::CompiledNative,
            QueryOptions::default(),
        )
        .join()
        .expect("submitted");
    assert_rows(&reference, &out, "disarmed");
    assert_eq!(fault::hits("pool.dispatch"), 0);
}

/// The acceptance burst: a `hold` at `pool.dispatch` freezes every
/// admitted submission at the dispatch boundary (before compilation), so
/// the burst's admission outcomes, the exact [`mrq_core::AdmissionStats`],
/// and the zero-compilation guarantee for shed statements are all asserted
/// deterministically — then the hold is released and every admitted query
/// completes bit-identically.
#[test]
fn overload_burst_sheds_by_class_with_exact_stats() {
    let _guard = scoped();
    let wb = workbench();
    let workload = queries::q1();
    let mut native = native_provider(&wb, &workload);
    let reference = native
        .execute(workload.clone(), Strategy::CompiledNative)
        .expect("reference");
    let compiled_before = native.plan_cache_stats().misses;

    // 4 in-flight slots + 2 queue slots, reserve 1 per tier below
    // Interactive: class limits are Interactive 6, Batch 5, Maintenance 4.
    native.set_admission(AdmissionConfig::bounded(4, 2).with_reserve(1));
    let native = native.into_shared();
    fault::arm("pool.dispatch", FaultAction::Hold, 1);

    // (options, expected admission outcomes in submission order): `None`
    // is admitted, `Some((in_flight, limit))` is shed with those numbers.
    type Outcomes = &'static [Option<(usize, usize)>];
    let burst: [(QueryOptions, Outcomes); 3] = [
        (
            QueryOptions::maintenance(),
            &[None, None, None, None, Some((4, 4))],
        ),
        (QueryOptions::batch(), &[None, Some((5, 5))]),
        (QueryOptions::new(), &[None, Some((6, 6))]),
    ];
    let mut admitted = Vec::new();
    for (options, outcomes) in burst {
        for expected in outcomes {
            let handle = native.submit(workload.clone(), Strategy::CompiledNative, options);
            match expected {
                // Shed handles resolve immediately, without blocking.
                Some((in_flight, limit)) => match handle.try_join() {
                    Ok(Err(MrqError::Overloaded {
                        in_flight: seen,
                        limit: seen_limit,
                    })) => {
                        assert_eq!((seen, seen_limit), (*in_flight, *limit));
                    }
                    Ok(other) => panic!("expected an immediate Overloaded, got {other:?}"),
                    Err(_) => panic!("a shed handle must resolve immediately"),
                },
                None => admitted.push(handle),
            }
        }
    }

    // Exact, deterministic stats: admission is decided synchronously at
    // submission and the hold pins every admitted task pre-compilation.
    let stats = native.admission_stats();
    assert_eq!(stats.admitted, 6);
    assert_eq!(stats.shed, 3);
    assert_eq!(stats.peak_in_flight, 6);
    assert_eq!(stats.in_flight, 6);
    // Nothing compiled yet — shed (and held) statements generated zero
    // compilation traffic.
    assert_eq!(native.plan_cache_stats().misses, compiled_before);

    fault::release("pool.dispatch");
    for handle in admitted {
        let out = handle.join().expect("admitted queries complete");
        assert_rows(&reference, &out, "admitted after release");
    }
    // Every slot is free: a task releases its slot before it completes.
    assert_eq!(native.admission_stats().in_flight, 0);
    // The gate reopened: the same bounded provider serves again.
    let again = native
        .submit(
            workload.clone(),
            Strategy::CompiledNative,
            QueryOptions::default(),
        )
        .join()
        .expect("post-burst query");
    assert_rows(&reference, &again, "post-burst");
    assert_eq!(native.admission_stats().admitted, 7);
}

/// A provider over the shared TPC-H `lineitem` store, sealed with
/// the given admission limits.
fn lineitem_provider(admission: AdmissionConfig) -> OwnedProvider {
    let mut provider = Provider::new();
    provider.bind_native_shared(
        queries::SRC_LINEITEM,
        Arc::new(RowStore::from_rows(
            schema_of("lineitem"),
            &value_rows(tpch_data(), "lineitem"),
        )),
    );
    provider.set_admission(admission);
    provider.into_shared()
}

/// A waker that re-submits `workload` the moment it is woken and hands the
/// new handle back to the test thread.
struct Resubmit {
    provider: OwnedProvider,
    workload: Expr,
    sender: mpsc::Sender<QueryHandle>,
}

impl Wake for Resubmit {
    fn wake(self: Arc<Self>) {
        let handle = self.provider.submit(
            self.workload.clone(),
            Strategy::CompiledNative,
            QueryOptions::new(),
        );
        let _ = self.sender.send(handle);
    }
}

/// A query frees its admission slot *before* its result becomes visible.
/// With one slot, no queue and no reserve, a client that re-submits from
/// inside the completion waker fits only if the finished query already
/// released — otherwise its own finished query sheds it `Overloaded`. The
/// hold pins the first query before it runs, so the poll below always
/// registers the waker.
#[test]
fn a_resubmit_from_the_completion_waker_is_admitted() {
    let _guard = scoped();
    let workload = queries::q1();
    let provider = lineitem_provider(AdmissionConfig::bounded(1, 0).with_reserve(0));
    let reference = provider
        .execute(workload.clone(), Strategy::CompiledNative)
        .expect("reference");

    fault::arm("pool.dispatch", FaultAction::Hold, 1);
    let mut first = provider.submit(
        workload.clone(),
        Strategy::CompiledNative,
        QueryOptions::new(),
    );
    let (sender, resubmitted) = mpsc::channel();
    let waker = Waker::from(Arc::new(Resubmit {
        provider: provider.clone(),
        workload: workload.clone(),
        sender,
    }));
    assert!(Pin::new(&mut first)
        .poll(&mut Context::from_waker(&waker))
        .is_pending());
    fault::release("pool.dispatch");

    let second = resubmitted.recv().expect("the completion waker ran");
    assert_rows(&reference, &first.join().expect("first"), "first");
    let out = second
        .join()
        .expect("a re-submit from the completion waker is admitted");
    assert_rows(&reference, &out, "re-submitted");
    let stats = provider.admission_stats();
    assert_eq!((stats.admitted, stats.shed, stats.in_flight), (2, 0, 0));
}

/// Dropping a handle does not wait for its query: with the query
/// pinned at the dispatch boundary, the drop returns while the query is
/// still in flight, and the task finishes in the background once the hold
/// releases. The drop runs on a helper thread so a regression fails the
/// test instead of hanging it.
#[test]
fn owned_handles_drop_without_waiting_for_the_query() {
    let _guard = scoped();
    let workload = queries::q1();
    let provider = lineitem_provider(AdmissionConfig::unbounded());

    fault::arm("pool.dispatch", FaultAction::Hold, 1);
    let handle = provider.submit(
        workload.clone(),
        Strategy::CompiledNative,
        QueryOptions::new(),
    );
    let (dropped, done) = mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(handle);
        let _ = dropped.send(());
    });
    let returned = done.recv_timeout(Duration::from_secs(10));
    let still_held = provider.admission_stats().in_flight;
    fault::release("pool.dispatch");
    dropper.join().expect("the dropping thread");
    returned.expect("a handle's drop must not wait for its query");
    assert_eq!(still_held, 1, "the query was still in flight at the drop");

    // The abandoned query drains in the background; the provider serves on.
    provider
        .submit(workload, Strategy::CompiledNative, QueryOptions::new())
        .join()
        .expect("post-drop query");
    assert_eq!(provider.admission_stats().admitted, 2);
}

/// Shed statements never touch the plan cache: with a zero admission
/// budget, prepared and ad-hoc submissions are rejected before any cache
/// lookup or compilation, leaving every counter untouched.
#[test]
fn shed_statements_never_touch_the_plan_cache() {
    let _guard = scoped();
    let wb = workbench();
    let workload = queries::q1();
    let mut native = native_provider(&wb, &workload).into_shared();
    let reference = {
        let prepared = native
            .prepare(workload.clone(), Strategy::CompiledNative)
            .expect("warm prepare");
        prepared.execute(&[]).expect("warm execute")
    };
    let warm = native.plan_cache_stats();

    Arc::get_mut(&mut native)
        .expect("nothing else holds the provider")
        .set_admission(AdmissionConfig::bounded(0, 0).with_reserve(0));
    {
        // Re-preparing is a pure cache hit; submissions through it shed.
        let prepared = native
            .prepare(workload.clone(), Strategy::CompiledNative)
            .expect("prepare is not admission-gated");
        for _ in 0..16 {
            let error = prepared
                .submit(&[], QueryOptions::default())
                .join()
                .expect_err("shed");
            assert!(
                matches!(
                    error,
                    MrqError::Overloaded {
                        in_flight: 0,
                        limit: 0
                    }
                ),
                "{error}"
            );
        }
        // Ad-hoc submissions shed before the plan cache too.
        let error = native
            .submit(
                workload.clone(),
                Strategy::CompiledNative,
                QueryOptions::default(),
            )
            .join()
            .expect_err("ad-hoc shed");
        assert!(matches!(error, MrqError::Overloaded { .. }), "{error}");
    }
    let cold = native.plan_cache_stats();
    assert_eq!(
        cold.misses, warm.misses,
        "shed submissions caused no misses"
    );
    assert_eq!(
        cold.hits,
        warm.hits + 1,
        "only the re-prepare hit the cache"
    );
    assert_eq!(cold.entries, warm.entries);
    assert_eq!(native.admission_stats().shed, 17);

    // Lifting the limit restores service on the same provider.
    Arc::get_mut(&mut native)
        .expect("shed submissions spawn no task")
        .set_admission(AdmissionConfig::unbounded());
    let out = {
        let prepared = native
            .prepare(workload.clone(), Strategy::CompiledNative)
            .expect("prepare after reopen");
        prepared
            .submit(&[], QueryOptions::default())
            .join()
            .expect("submission after reopen")
    };
    assert_rows(&reference, &out, "after reopen");
}

// --- chaos over the wire -------------------------------------------------
//
// The same fault discipline, but with a real `mrq-protocol` server and a
// real `mrq-client` on a loopback socket in between: disconnects cancel,
// injected panics become typed error frames, and overload sheds cross the
// wire with their exact admission numbers. These cells serialise on the
// same `scoped()` guard as the in-process ones — the worker pool and the
// fault registry are process-global.

fn tpch_data() -> &'static TpchData {
    static DATA: OnceLock<TpchData> = OnceLock::new();
    DATA.get_or_init(|| TpchData::generate(GenConfig::scale(0.002)))
}

/// An owned native provider over shared TPC-H row stores — the 'static
/// provider shape a server needs.
fn served_native_provider(config: ParallelConfig) -> OwnedProvider {
    let data = tpch_data();
    let mut provider = Provider::new();
    for (source, table) in [
        (queries::SRC_LINEITEM, "lineitem"),
        (queries::SRC_ORDERS, "orders"),
        (queries::SRC_CUSTOMER, "customer"),
    ] {
        provider.bind_native_shared(
            source,
            Arc::new(RowStore::from_rows(
                schema_of(table),
                &value_rows(data, table),
            )),
        );
    }
    provider.set_parallelism(config);
    provider.into_shared()
}

const WIRE_ROWS: i64 = 1_000_000;

/// A large shared native store for the disconnect test: big enough that
/// socket and channel buffering cannot absorb the full scan, so an
/// uncancelled query would visibly keep streaming.
fn wire_big_store() -> Arc<RowStore> {
    static STORE: OnceLock<Arc<RowStore>> = OnceLock::new();
    Arc::clone(STORE.get_or_init(|| {
        let schema = Schema::new(
            "N",
            vec![
                Field::new("n", DataType::Int64),
                Field::new("bucket", DataType::Int64),
            ],
        );
        let rows: Vec<Vec<Value>> = (0..WIRE_ROWS)
            .map(|i| vec![Value::Int64(i), Value::Int64(i % 97)])
            .collect();
        Arc::new(RowStore::from_rows(schema, &rows))
    }))
}

fn wire_big_scan() -> Expr {
    Query::from_source(SourceId(0))
        .where_(lam(
            "x",
            Expr::binary(BinaryOp::Ge, col("x", "n"), lit(0i64)),
        ))
        .select(lam("x", col("x", "n")))
        .into_expr()
}

/// A client that disconnects mid-stream cancels the query server-side:
/// the provider's work counters stop advancing (polled to stability, no
/// magic sleeps in the pass path) far short of the full scan, and the
/// server keeps serving new connections.
#[test]
fn client_disconnect_mid_stream_cancels_the_query() {
    let _guard = scoped();
    let provider = {
        let mut provider = Provider::new();
        provider.bind_native_shared(SourceId(0), wire_big_store());
        provider.set_parallelism(ParallelConfig {
            threads: 2,
            min_rows_per_thread: 1024,
            ..ParallelConfig::default()
        });
        provider.into_shared()
    };
    let server = Server::start(provider.clone(), "127.0.0.1:0").expect("bind loopback server");

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut stream = client
        .query_stream(
            wire_big_scan(),
            Strategy::CompiledNative,
            QueryOptions::new().with_stream_batch_rows(256),
        )
        .expect("open stream");
    let first = stream
        .next_batch()
        .expect("first batch")
        .expect("first batch rows");
    assert!(!first.is_empty());
    // Disconnect with the stream still live: drop the whole client. The
    // server's next write fails, which drops its `QueryStream` and cancels
    // the query.
    let _ = stream;
    drop(client);

    // The engine-side row counter must stop advancing. Poll until two
    // consecutive readings agree, then hold that as the final count.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = provider.cumulative_work_stats().rows_streamed;
    let settled = loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = provider.cumulative_work_stats().rows_streamed;
        if now == last {
            break now;
        }
        last = now;
        assert!(
            Instant::now() < deadline,
            "work counters never settled after disconnect"
        );
    };
    assert!(
        settled < WIRE_ROWS as u64 / 2,
        "cancel should stop the scan early, streamed {settled} of {WIRE_ROWS} rows"
    );

    // The server survived the abandoned connection: a fresh client gets a
    // full answer.
    let reference = provider
        .execute(wire_big_scan(), Strategy::CompiledNative)
        .expect("in-process reference");
    let mut again = Client::connect(server.local_addr()).expect("reconnect");
    let got = again
        .query(
            wire_big_scan(),
            Strategy::CompiledNative,
            QueryOptions::new(),
        )
        .expect("query after disconnect");
    assert_eq!(got.rows.len(), reference.rows.len());
    assert_eq!(got.rows, reference.rows);
}

/// An injected panic inside the native engine surfaces to the client as a
/// typed error frame naming the fault point — never a hung connection —
/// and the same connection keeps serving afterwards.
#[test]
fn injected_panics_cross_the_wire_as_error_frames() {
    let _guard = scoped();
    let config = par(2);
    let provider = served_native_provider(config);
    let strategy = Strategy::CompiledNativeParallel(config);
    let workload = queries::q3();
    let reference = provider
        .execute(workload.clone(), strategy)
        .expect("in-process reference");
    let server = Server::start(provider.clone(), "127.0.0.1:0").expect("bind loopback server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    fault::arm("engine.native.probe", FaultAction::Panic, 1);
    match client.query(workload.clone(), strategy, QueryOptions::new()) {
        Err(ClientError::Query(error)) => {
            let message = error.to_string();
            assert!(
                message.contains("engine.native.probe"),
                "error frame should name the fault point, got: {message}"
            );
        }
        other => panic!("expected a typed error frame, got {other:?}"),
    }

    // The panic was contained to the victim: the same connection serves
    // the same statement bit-identically.
    let again = client
        .query(workload, strategy, QueryOptions::new())
        .expect("connection survives an injected panic");
    assert_eq!(again.schema, reference.schema);
    assert_eq!(again.rows, reference.rows);
}

/// Overload sheds cross the wire as `Overloaded` error frames carrying the
/// exact admission numbers, in deterministic submission order, while the
/// provider-side [`AdmissionStats`] stay exact — and admitted queries
/// complete bit-identical once the hold releases.
#[test]
fn overload_sheds_cross_the_wire_with_exact_admission_numbers() {
    let _guard = scoped();
    let workload = queries::q1();
    let provider = {
        let data = tpch_data();
        let mut provider = Provider::new();
        provider.bind_native_shared(
            queries::SRC_LINEITEM,
            Arc::new(RowStore::from_rows(
                schema_of("lineitem"),
                &value_rows(data, "lineitem"),
            )),
        );
        provider.set_parallelism(ParallelConfig::with_threads(2));
        provider.set_admission(AdmissionConfig::bounded(4, 2).with_reserve(1));
        provider.into_shared()
    };
    let reference = provider
        .execute(workload.clone(), Strategy::CompiledNative)
        .expect("in-process reference");
    let baseline_misses = provider.plan_cache_stats().misses;
    let server = Server::start(provider.clone(), "127.0.0.1:0").expect("bind loopback server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Freeze admitted work at the dispatch boundary so the shed pattern is
    // deterministic, then pipeline a 10-query burst on one connection. The
    // reader thread adjudicates in request order, so the outcome of every
    // index is exact: class limits are Maintenance 4, Batch 5,
    // Interactive 6.
    fault::arm("pool.dispatch", FaultAction::Hold, 1);
    type Expected = Option<(u64, u64)>; // None = admitted, Some = shed (in_flight, limit)
    let burst: [(QueryOptions, Expected); 10] = [
        (QueryOptions::maintenance(), None),
        (QueryOptions::maintenance(), None),
        (QueryOptions::maintenance(), None),
        (QueryOptions::maintenance(), None),
        (QueryOptions::maintenance(), Some((4, 4))),
        (QueryOptions::batch(), None),
        (QueryOptions::batch(), Some((5, 5))),
        (QueryOptions::batch(), Some((5, 5))),
        (QueryOptions::new(), None),
        (QueryOptions::new(), Some((6, 6))),
    ];
    let tickets: Vec<_> = burst
        .iter()
        .map(|(options, _)| {
            client
                .submit(workload.clone(), Strategy::CompiledNative, *options)
                .expect("submit burst query")
        })
        .collect();

    // Wait (in process — we co-host the provider) for the server to
    // adjudicate all ten, then check the exact stats while the hold pins
    // every admitted task pre-compilation.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = provider.admission_stats();
        if stats.admitted + stats.shed >= burst.len() as u64 {
            break;
        }
        assert!(Instant::now() < deadline, "admission never saw the burst");
        std::thread::sleep(Duration::from_millis(2));
    }
    let stats = provider.admission_stats();
    assert_eq!(stats.admitted, 6);
    assert_eq!(stats.shed, 4);
    assert_eq!(stats.peak_in_flight, 6);
    assert_eq!(stats.in_flight, 6);
    // Shed and held statements generated zero compilation traffic.
    assert_eq!(provider.plan_cache_stats().misses, baseline_misses);

    fault::release("pool.dispatch");
    for (ticket, (_, expected)) in tickets.into_iter().zip(&burst) {
        match (client.wait(ticket), expected) {
            (Ok(out), None) => {
                assert_eq!(out.schema, reference.schema);
                assert_eq!(out.rows, reference.rows);
            }
            (
                Err(ClientError::Query(MrqError::Overloaded { in_flight, limit })),
                Some((expected_in_flight, expected_limit)),
            ) => {
                // The exact admission numbers cross the wire intact.
                assert_eq!(
                    (in_flight as u64, limit as u64),
                    (*expected_in_flight, *expected_limit)
                );
            }
            (outcome, expected) => {
                panic!("burst outcome drifted: expected {expected:?}, got {outcome:?}")
            }
        }
    }

    // The gate reopened: the same connection serves again.
    let again = client
        .query(workload, Strategy::CompiledNative, QueryOptions::new())
        .expect("post-burst query");
    assert_eq!(again.rows, reference.rows);
    assert_eq!(provider.admission_stats().admitted, 7);
}
