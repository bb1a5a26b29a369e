//! Concurrent serving: one shared `Provider`, one shared worker pool, many
//! clients at once.
//!
//! The contract under test is the strongest the workspace makes: a
//! `Provider` behind a plain `&` reference must serve 8 simultaneous
//! clients — through both the blocking [`Provider::execute`] path and the
//! queued [`Provider::submit`]/[`QueryHandle`] path — with every result
//! **bit-identical** to a sequential single-client run, while all parallel
//! work multiplexes over the process-wide persistent pool. A separate suite
//! pins the pool's shutdown ordering: dropping a dedicated pool drains
//! accepted work, then joins its workers.

use mrq_bench::Workbench;
use mrq_codegen::exec::QueryOutput;
use mrq_common::pool::{Publish, WorkerPool};
use mrq_common::ParallelConfig;
use mrq_core::{Provider, QueryOptions, Strategy};
use mrq_engine_hybrid::HybridConfig;
use mrq_tpch::queries;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const CLIENTS: usize = 8;

fn workbench() -> Workbench {
    Workbench::new(0.002)
}

/// The same scheduler shape `parallel_equivalence.rs` sweeps: low split
/// threshold and tiny morsels so the small test dataset genuinely fans out.
fn morsel_config(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        min_rows_per_thread: 16,
        ..ParallelConfig::default()
    }
    .with_morsel_rows(64)
}

/// The managed-strategy workloads of the parallel_equivalence suite.
fn workloads() -> Vec<mrq_expr::Expr> {
    vec![queries::q1(), queries::q3()]
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::CompiledCSharp,
        Strategy::Hybrid(HybridConfig::default()),
        Strategy::Hybrid(HybridConfig::buffered()),
    ]
}

/// 8 clients hammer one shared provider through blocking `execute` calls —
/// every workload × strategy — and every output must
/// be bit-identical (schema, rows, row order) to the sequential reference.
#[test]
fn eight_execute_clients_are_bit_identical_to_sequential() {
    let wb = workbench();
    let sequential = wb.managed_provider();
    let references: Vec<QueryOutput> = workloads()
        .into_iter()
        .map(|w| {
            sequential
                .execute(w, Strategy::CompiledCSharp)
                .expect("sequential reference")
        })
        .collect();

    let mut shared = wb.managed_provider();
    shared.set_parallelism(morsel_config(2));
    let shared = &shared;
    let references = &references;
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            scope.spawn(move || {
                // Clients interleave workloads and strategies in
                // different orders so the pool sees a mixed queue.
                for round in 0..2 {
                    for (w, workload) in workloads().into_iter().enumerate() {
                        let strategy = strategies()[(client + round + w) % strategies().len()];
                        let out = shared
                            .execute(workload, strategy)
                            .expect("concurrent execute");
                        assert_eq!(
                            out, references[w],
                            "client {client} round {round} workload {w} {strategy:?}"
                        );
                    }
                }
            });
        }
    });
}

/// The same contract through the queued front end: 8 clients submit
/// batches, poll/join in mixed order, and every joined result is
/// bit-identical to the sequential reference.
#[test]
fn eight_submit_clients_join_bit_identical_results() {
    let wb = workbench();
    let sequential = wb.managed_provider();
    let references: Vec<QueryOutput> = workloads()
        .into_iter()
        .map(|w| {
            sequential
                .execute(w, Strategy::CompiledCSharp)
                .expect("sequential reference")
        })
        .collect();

    let mut shared = wb.managed_provider();
    shared.set_parallelism(morsel_config(2));
    let shared = &shared.into_shared();
    let references = &references;
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            scope.spawn(move || {
                // Queue one handle per workload, then join out of order
                // (newest first) so completion order is decoupled from
                // submission order.
                let handles: Vec<_> = workloads()
                    .into_iter()
                    .map(|w| {
                        let strategy = strategies()[client % strategies().len()];
                        shared.submit(w, strategy, QueryOptions::default())
                    })
                    .collect();
                for (w, handle) in handles.into_iter().enumerate().rev() {
                    let out = handle.join().expect("submitted query");
                    assert_eq!(out, references[w], "client {client} workload {w}");
                }
            });
        }
    });
}

/// The native strategy under concurrent clients: row-store scans and
/// partitioned join builds through one shared provider.
#[test]
fn eight_native_clients_share_one_provider() {
    let wb = workbench();
    let workload = queries::q3();
    let canon = mrq_expr::canonicalize(workload.clone());
    let spec = mrq_codegen::spec::lower(&canon, &wb.catalog(None)).expect("lowers");
    let mut provider = Provider::new();
    let mut sources = vec![spec.root];
    sources.extend(spec.joins.iter().map(|j| j.source));
    for s in &sources {
        provider.bind_native_shared(*s, Arc::clone(&wb.stores[queries::source_table(*s)]));
    }
    let reference = provider
        .execute(workload.clone(), Strategy::CompiledNative)
        .expect("sequential native");
    provider.set_parallelism(morsel_config(2));
    let provider = &provider.into_shared();
    let reference = &reference;
    let workload = &workload;
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(move || {
                let handle = provider.submit(
                    workload.clone(),
                    Strategy::CompiledNative,
                    QueryOptions::default(),
                );
                let direct = provider
                    .execute(workload.clone(), Strategy::CompiledNative)
                    .expect("concurrent native execute");
                assert_eq!(&direct, reference);
                assert_eq!(&handle.join().expect("joined native query"), reference);
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Shutdown ordering
// ---------------------------------------------------------------------------

/// Dropping a dedicated pool must (1) finish every ticket accepted before
/// the drop, (2) join every worker thread before returning — i.e. after
/// `drop(pool)` returns there is no residual concurrency whatsoever.
#[test]
fn pool_drop_drains_accepted_work_then_joins_workers() {
    let completed = Arc::new(AtomicUsize::new(0));
    let pool = WorkerPool::new(2);
    for _ in 0..16 {
        let completed = Arc::clone(&completed);
        pool.spawn(Box::new(move || -> Publish {
            std::thread::sleep(std::time::Duration::from_millis(2));
            completed.fetch_add(1, Ordering::SeqCst);
            Box::new(|| {})
        }));
    }
    drop(pool);
    // Everything accepted ran before drop returned; nothing runs after.
    let after_drop = completed.load(Ordering::SeqCst);
    assert_eq!(after_drop, 16, "accepted tasks drained during shutdown");
    std::thread::sleep(std::time::Duration::from_millis(10));
    assert_eq!(
        completed.load(Ordering::SeqCst),
        after_drop,
        "no worker survived the drop"
    );
}

/// Queries in flight when their handles drop keep the provider (and the
/// collections it shares) alive until they finish, then release it: the
/// handle drop never blocks, and once the last task finished the pool holds
/// no reference into the provider. This is the shutdown ordering clients
/// rely on when a serving thread unwinds.
#[test]
fn in_flight_queries_finish_before_provider_teardown() {
    let wb = workbench();
    let reference;
    let weak;
    {
        let mut provider = wb.managed_provider();
        provider.set_parallelism(morsel_config(2));
        let provider = provider.into_shared();
        weak = Arc::downgrade(&provider);
        reference = provider
            .execute(queries::q1(), Strategy::CompiledCSharp)
            .expect("reference");
        for _ in 0..4 {
            // Dropped immediately: the query finishes in the background.
            drop(provider.submit(
                queries::q1(),
                Strategy::CompiledCSharp,
                QueryOptions::default(),
            ));
        }
        let joined = provider
            .submit(
                queries::q1(),
                Strategy::CompiledCSharp,
                QueryOptions::default(),
            )
            .join()
            .expect("joined");
        assert_eq!(joined, reference);
    } // the caller's clone drops here; the dropped queries may still run
    let start = std::time::Instant::now();
    while weak.upgrade().is_some() {
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "an in-flight query never released the provider"
        );
        std::thread::yield_now();
    }
    assert!(!reference.rows.is_empty());
}
