//! The async serving front end through the public API: the `QueryHandle`
//! that `Provider::submit` / `OwnedProvider::submit` return, polled as a
//! future.
//!
//! The contract under test:
//! * a handle resolves **bit-identical** to `Provider::execute` of the same
//!   statement and strategy, borrowed or owned, at any thread count;
//! * the waker registered by `poll` is woken after a cancel — the handle
//!   resolves to `QueryError::Cancelled` without anyone blocking on it;
//! * a handle whose deadline already lapsed resolves to
//!   `QueryError::DeadlineExceeded` without compiling or executing
//!   anything;
//! * dropping an unresolved owned handle neither leaks its Arcs nor
//!   deadlocks `Provider::drop` — the in-flight task finishes in the
//!   background and every shared binding refcount returns to 1;
//! * many handles multiplex on **one** driver thread (a dependency-free
//!   ready-queue executor), interleaved across QoS classes.

use mrq_codegen::exec::QueryOutput;
use mrq_common::{DataType, Field, Schema, Value};
use mrq_core::{ParallelConfig, Provider, QueryError, QueryHandle, QueryOptions, Strategy};
use mrq_engine_native::RowStore;
use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// A dependency-free executor, small enough to live inside the test file.
// ---------------------------------------------------------------------------

struct Unpark(std::thread::Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Polls a single future to completion, parking between wakes.
fn block_on<F: Future>(future: F) -> F::Output {
    let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    let mut context = Context::from_waker(&waker);
    let mut future = pin!(future);
    loop {
        match future.as_mut().poll(&mut context) {
            Poll::Ready(output) => return output,
            Poll::Pending => std::thread::park(),
        }
    }
}

/// A waker that records it fired (for wake-after-cancel assertions).
struct FlagWaker {
    fired: Arc<AtomicBool>,
    thread: std::thread::Thread,
}

impl Wake for FlagWaker {
    fn wake(self: Arc<Self>) {
        self.fired.store(true, Ordering::SeqCst);
        self.thread.unpark();
    }
}

/// The ready-queue multiplexer from `examples/async_server.rs`, condensed:
/// drives every future on the calling thread, polling only woken tasks.
fn drive_all<'p>(futures: Vec<QueryHandle<'p>>) -> Vec<Result<QueryOutput, QueryError>> {
    struct Reactor {
        ready: Mutex<VecDeque<usize>>,
        driver: std::thread::Thread,
    }
    struct TaskWaker {
        index: usize,
        reactor: Arc<Reactor>,
    }
    impl Wake for TaskWaker {
        fn wake(self: Arc<Self>) {
            self.reactor.ready.lock().unwrap().push_back(self.index);
            self.reactor.driver.unpark();
        }
    }
    let reactor = Arc::new(Reactor {
        ready: Mutex::new((0..futures.len()).collect()),
        driver: std::thread::current(),
    });
    let mut slots: Vec<Option<QueryHandle<'p>>> = futures.into_iter().map(Some).collect();
    let mut results: Vec<Option<Result<QueryOutput, QueryError>>> =
        (0..slots.len()).map(|_| None).collect();
    let wakers: Vec<Waker> = (0..slots.len())
        .map(|index| {
            Waker::from(Arc::new(TaskWaker {
                index,
                reactor: Arc::clone(&reactor),
            }))
        })
        .collect();
    let mut pending = slots.len();
    while pending > 0 {
        let next = reactor.ready.lock().unwrap().pop_front();
        let Some(index) = next else {
            std::thread::park();
            continue;
        };
        let Some(future) = slots[index].as_mut() else {
            continue;
        };
        let mut context = Context::from_waker(&wakers[index]);
        if let Poll::Ready(result) = Pin::new(future).poll(&mut context) {
            results[index] = Some(result);
            slots[index] = None;
            pending -= 1;
        }
    }
    results.into_iter().map(|r| r.expect("driven")).collect()
}

// ---------------------------------------------------------------------------
// Workload.
// ---------------------------------------------------------------------------

fn schema() -> Schema {
    Schema::new(
        "N",
        vec![
            Field::new("n", DataType::Int64),
            Field::new("bucket", DataType::Int64),
        ],
    )
}

fn rows(n: i64) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| vec![Value::Int64(i), Value::Int64(i % 23)])
        .collect()
}

/// A grouped aggregation touching every row.
fn grouped_scan() -> Expr {
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

/// A selective filter + projection.
fn filter_scan(limit: i64) -> Expr {
    Query::from_source(SourceId(0))
        .where_(lam(
            "x",
            Expr::binary(BinaryOp::Lt, col("x", "n"), lit(limit)),
        ))
        .select(lam("x", col("x", "n")))
        .into_expr()
}

fn scheduler_configs() -> [ParallelConfig; 2] {
    [
        ParallelConfig::sequential(),
        ParallelConfig {
            threads: 4,
            min_rows_per_thread: 256,
            ..ParallelConfig::default()
        }
        .with_morsel_rows(1024),
    ]
}

// ---------------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------------

#[test]
fn borrowed_futures_resolve_bit_identical_to_execute() {
    let store = RowStore::from_rows(schema(), &rows(50_000));
    for config in scheduler_configs() {
        let mut provider = Provider::new();
        provider.bind_native(SourceId(0), &store);
        provider.set_parallelism(config);
        for stmt in [grouped_scan(), filter_scan(100)] {
            let reference = provider
                .execute(stmt.clone(), Strategy::CompiledNative)
                .unwrap();
            let future = provider.submit(stmt, Strategy::CompiledNative, QueryOptions::new());
            let out = block_on(future).unwrap();
            assert_eq!(
                out, reference,
                "async result drifted (threads={})",
                config.threads
            );
        }
    }
}

#[test]
fn owned_futures_escape_the_binding_scope_and_cross_threads() {
    let store = Arc::new(RowStore::from_rows(schema(), &rows(20_000)));
    let (provider, reference) = {
        // The binding scope: nothing borrowed survives it.
        let mut provider = Provider::new();
        provider.bind_native_shared(SourceId(0), Arc::clone(&store));
        let provider = provider.into_shared();
        let reference = provider
            .execute(grouped_scan(), Strategy::CompiledNative)
            .unwrap();
        (provider, reference)
    };
    // Futures minted here are 'static: collect them, ship them to another
    // thread, drive them there.
    let futures: Vec<QueryHandle<'static>> = (0..4)
        .map(|_| {
            provider.submit(
                grouped_scan(),
                Strategy::CompiledNative,
                QueryOptions::new(),
            )
        })
        .collect();
    let outputs = std::thread::spawn(move || drive_all(futures))
        .join()
        .expect("driver thread");
    for out in outputs {
        assert_eq!(out.unwrap(), reference);
    }
}

#[test]
fn a_cancelled_future_wakes_its_registered_waker() {
    let store = RowStore::from_rows(schema(), &rows(400_000));
    let mut provider = Provider::new();
    provider.bind_native(SourceId(0), &store);
    provider.set_parallelism(ParallelConfig {
        threads: 2,
        min_rows_per_thread: 256,
        ..ParallelConfig::default()
    });
    let mut future = provider.submit(
        grouped_scan(),
        Strategy::CompiledNative,
        QueryOptions::new(),
    );
    // Register a flag waker with one poll, then cancel. Completion — here
    // via cancellation's wake-on-retire — must fire the waker; the future
    // then resolves without any blocking join.
    let fired = Arc::new(AtomicBool::new(false));
    let waker = Waker::from(Arc::new(FlagWaker {
        fired: Arc::clone(&fired),
        thread: std::thread::current(),
    }));
    let mut context = Context::from_waker(&waker);
    let first = Pin::new(&mut future).poll(&mut context);
    future.cancel();
    if first.is_pending() {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !fired.load(Ordering::SeqCst) {
            assert!(
                Instant::now() < deadline,
                "waker not woken within 30s of cancel"
            );
            std::thread::park_timeout(Duration::from_millis(10));
        }
        match Pin::new(&mut future).poll(&mut context) {
            Poll::Ready(result) => match result {
                Err(QueryError::Cancelled) => {}
                Ok(out) => assert!(!out.rows.is_empty(), "completed before the cancel landed"),
                Err(other) => panic!("unexpected error: {other}"),
            },
            Poll::Pending => panic!("woken waker must mean Ready"),
        }
    } else {
        // Completed before the first poll returned: Ready already taken.
        match first {
            Poll::Ready(result) => {
                let _ = result.unwrap();
            }
            Poll::Pending => unreachable!(),
        }
    }
}

#[test]
fn deadline_expired_futures_resolve_without_executing() {
    let store = RowStore::from_rows(schema(), &rows(10_000));
    let mut provider = Provider::new();
    provider.bind_native(SourceId(0), &store);
    let future = provider.submit(
        grouped_scan(),
        Strategy::CompiledNative,
        QueryOptions::new().with_deadline(Duration::ZERO),
    );
    assert!(matches!(
        block_on(future),
        Err(QueryError::DeadlineExceeded)
    ));
    // Resolved at dispatch: the statement never reached the compiler.
    let stats = provider.stats();
    assert_eq!(stats.cache_misses, 0);
    assert_eq!(stats.cache_hits, 0);
}

#[test]
fn dropping_unresolved_owned_futures_neither_leaks_nor_deadlocks() {
    let store = Arc::new(RowStore::from_rows(schema(), &rows(200_000)));
    {
        let mut provider = Provider::new();
        provider.bind_native_shared(SourceId(0), Arc::clone(&store));
        provider.set_parallelism(ParallelConfig {
            threads: 2,
            min_rows_per_thread: 256,
            ..ParallelConfig::default()
        });
        let provider = provider.into_shared();
        let prepared = provider
            .prepare(grouped_scan(), Strategy::CompiledNative)
            .unwrap();
        // Submit and immediately drop, resolved or not: owned handles —
        // ad-hoc and prepared — must not block. Mix in cancelled ones and a
        // clone of the provider to exercise the teardown ordering.
        for i in 0..8 {
            let handle = if i < 4 {
                provider.submit(
                    grouped_scan(),
                    Strategy::CompiledNative,
                    QueryOptions::new(),
                )
            } else {
                prepared.submit(&[], QueryOptions::new())
            };
            if i % 2 == 0 {
                handle.cancel();
            }
            drop(handle);
        }
        let clone = provider.clone();
        drop(prepared);
        drop(provider);
        // The last clone's drop runs Provider::drop, which waits for every
        // in-flight task. If a task deadlocked against its own keep-alive
        // clone, this would hang (and the harness would time the test out).
        drop(clone);
    }
    // No leak: once the last provider clone (wherever it was dropped —
    // client thread or pool worker) released its Arcs, the store's refcount
    // is back to exactly this scope's handle. The background task may drop
    // its provider clone a beat after completing the latch, so poll briefly.
    let deadline = Instant::now() + Duration::from_secs(30);
    while Arc::strong_count(&store) > 1 {
        assert!(
            Instant::now() < deadline,
            "store Arc still held {} times 30s after teardown",
            Arc::strong_count(&store)
        );
        std::thread::yield_now();
    }
}

#[test]
fn many_futures_one_driver_interleave_across_classes_and_stealing_modes() {
    let store = RowStore::from_rows(schema(), &rows(60_000));
    let mut provider = Provider::new();
    provider.bind_native(SourceId(0), &store);
    provider.set_parallelism(
        ParallelConfig {
            threads: 4,
            min_rows_per_thread: 256,
            ..ParallelConfig::default()
        }
        .with_morsel_rows(2048),
    );
    let statements = [grouped_scan(), filter_scan(500), filter_scan(59_999)];
    let references: Vec<QueryOutput> = statements
        .iter()
        .map(|s| {
            provider
                .execute(s.clone(), Strategy::CompiledNative)
                .unwrap()
        })
        .collect();
    let futures: Vec<QueryHandle<'_>> = (0..12)
        .map(|i| {
            let options = match i % 3 {
                0 => QueryOptions::new(),
                1 => QueryOptions::batch(),
                _ => QueryOptions::maintenance(),
            };
            provider.submit(
                statements[i % statements.len()].clone(),
                Strategy::CompiledNative,
                options,
            )
        })
        .collect();
    let outputs = drive_all(futures);
    assert_eq!(outputs.len(), 12);
    for (i, out) in outputs.into_iter().enumerate() {
        assert_eq!(
            out.unwrap(),
            references[i % references.len()],
            "future {i} drifted"
        );
    }
}

#[test]
fn poll_join_and_handle_paths_agree_on_one_provider() {
    // The three consumption styles — execute, join, poll — interleaved on
    // one shared provider must all agree.
    let store = RowStore::from_rows(schema(), &rows(30_000));
    let mut provider = Provider::new();
    provider.bind_native(SourceId(0), &store);
    let reference = provider
        .execute(grouped_scan(), Strategy::CompiledNative)
        .unwrap();
    let handle = provider.submit(
        grouped_scan(),
        Strategy::CompiledNative,
        QueryOptions::default(),
    );
    let mut polled = provider.submit(
        grouped_scan(),
        Strategy::CompiledNative,
        QueryOptions::new(),
    );
    // Poll once, then join synchronously — blocking join and async poll
    // share one latch, so a handle may switch between them.
    let mut context = Context::from_waker(Waker::noop());
    let out = match Pin::new(&mut polled).poll(&mut context) {
        Poll::Ready(result) => result.unwrap(),
        Poll::Pending => polled.join().unwrap(),
    };
    assert_eq!(out, reference);
    assert_eq!(handle.join().unwrap(), reference);
}

#[test]
fn owned_provider_serves_managed_strategies_over_a_shared_heap() {
    use mrq_mheap::{ClassDesc, Heap};
    let schema = Schema::new(
        "Sale",
        vec![
            Field::new("id", DataType::Int64),
            Field::new("city", DataType::Str),
        ],
    );
    let mut heap = Heap::new();
    let class = heap.register_class(ClassDesc::from_schema(&schema));
    let list = heap.new_list("sales", Some(class));
    for i in 0..5_000i64 {
        let obj = heap.alloc(class);
        heap.set_i64(obj, 0, i);
        heap.set_str(obj, 1, if i % 2 == 0 { "London" } else { "Paris" });
        heap.list_push(list, obj);
    }
    let heap = Arc::new(heap);
    let mut provider = Provider::over_shared_heap(Arc::clone(&heap));
    provider.bind_managed(SourceId(0), list, schema);
    let provider = provider.into_shared();
    let stmt = Query::from_source(SourceId(0))
        .where_(lam(
            "s",
            Expr::binary(BinaryOp::Eq, col("s", "city"), lit("London")),
        ))
        .select(lam("s", col("s", "id")))
        .into_expr();
    let reference = provider
        .execute(stmt.clone(), Strategy::CompiledCSharp)
        .unwrap();
    assert_eq!(reference.rows.len(), 2_500);
    let futures: Vec<QueryHandle<'static>> = (0..4)
        .map(|_| provider.submit(stmt.clone(), Strategy::CompiledCSharp, QueryOptions::new()))
        .collect();
    for out in drive_all(futures) {
        assert_eq!(out.unwrap(), reference);
    }
}
