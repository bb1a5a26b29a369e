//! Async query serving: one driver thread multiplexing many in-flight
//! `QueryHandle`s, polled as futures, over the persistent worker pool.
//!
//! This is the full async stack end to end, with **zero dependencies
//! beyond std**:
//!
//! 1. an `OwnedProvider` is built in an inner scope over `Arc`-shared row
//!    stores and escapes it — the binding scope ends, the provider lives on;
//! 2. N interleaved clients submit their statements with
//!    `Provider::submit`, mixing QoS classes (Interactive
//!    probes, Batch analytics, a Maintenance sweep), a deadline, a
//!    mid-flight cancel, and one handle that is dropped unresolved;
//! 3. the shared mini-executor ([`mrq_common::executor`]: `block_on` plus
//!    the ready-queue multiplexer `drive_all`, both built on
//!    [`std::task::Wake`]) drives all of them on **one** driver thread:
//!    each poll registers a waker on the query's completion latch, the
//!    pool wakes it exactly once on completion, and the driver parks
//!    whenever nothing is ready — queries execute on pool workers the
//!    whole time (the network server in `mrq-protocol` drives each
//!    connection with the same executor's dynamic `Multiplexer`);
//! 4. every completed result is checked bit-identical to a sequential
//!    `Provider::execute` of the same statement;
//! 5. a **prepared** Q1 (`Provider::prepare`, one plan in the sharded
//!    plan cache) serves a sweep of shipdate cutoffs by re-binding the
//!    cached plan per request — each handle again bit-identical to the
//!    ad-hoc execution of the same statement;
//! 6. the same provider serves a **streamed** scan through
//!    `Provider::submit_stream`: batches are consumed asynchronously
//!    with `QueryStream::poll_next_batch` via `std::future::poll_fn` on the
//!    same mini-executor, the first batch arrives long before the full
//!    result would, the concatenation is bit-identical to `execute`, and a
//!    second stream dropped mid-way cancels its query without blocking;
//! 7. a second, admission-*bounded* provider takes a burst past its
//!    `max_in_flight`: Maintenance sheds first, then Batch, Interactive
//!    keeps its reserve — shed handles resolve immediately to
//!    `Overloaded` without compiling anything, and every admitted query
//!    still completes bit-identically (a `hold` fault at the dispatch
//!    boundary makes the burst deterministic).
//!
//! Run with `cargo run --release --example async_server`.
//! Knobs: `MRQ_SF` (scale factor, default 0.01), `MRQ_CLIENTS` (default 12).

use mrq_codegen::exec::QueryOutput;
use mrq_common::executor::{block_on, drive_all};
use mrq_common::fault::{self, FaultAction};
use mrq_common::Value;
use mrq_core::{
    AdmissionConfig, OwnedProvider, ParallelConfig, Provider, QueryError, QueryHandle,
    QueryOptions, Strategy,
};
use mrq_engine_native::RowStore;
use mrq_expr::optimize::{optimize, OptimizerConfig};
use mrq_expr::Expr;
use mrq_tpch::gen::{scale_from_env, GenConfig, TpchData};
use mrq_tpch::load::{schema_of, value_rows};
use mrq_tpch::queries;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The parameter bindings equivalent to running `stmt` ad hoc: optimize and
/// canonicalize exactly as the provider does, and take the lifted literals
/// in slot order.
fn bindings_for(stmt: Expr) -> Vec<Value> {
    mrq_expr::canonicalize(optimize(stmt, OptimizerConfig::default()).expr).params
}

// ---------------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------------

fn main() {
    let scale = scale_from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let clients: usize = std::env::var("MRQ_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
        .max(8);

    println!("generating TPC-H data at scale factor {scale} ...");
    let data = TpchData::generate(GenConfig::scale(scale));

    // Shared (Arc) stores: both providers below bind clones of these.
    let stores: Vec<_> = [
        (queries::SRC_LINEITEM, "lineitem"),
        (queries::SRC_ORDERS, "orders"),
        (queries::SRC_CUSTOMER, "customer"),
    ]
    .into_iter()
    .map(|(source, table)| {
        (
            source,
            Arc::new(RowStore::from_rows(
                schema_of(table),
                &value_rows(&data, table),
            )),
        )
    })
    .collect();

    // The binding scope: a provider bound over the shared stores, sealed
    // into an OwnedProvider (an Arc). Every pool task holds its own clone,
    // which is what makes the handles below 'static.
    let provider: OwnedProvider = {
        let mut provider = Provider::new();
        for (source, store) in &stores {
            provider.bind_native_shared(*source, Arc::clone(store));
        }
        // Per-query parallelism stays modest: the clients provide the
        // concurrency; the pool multiplexes all of them.
        provider.set_parallelism(ParallelConfig::with_threads(2));
        provider.into_shared()
    };

    // Sequential references for the bit-identity check.
    let workloads = [("Q1", queries::q1()), ("Q3", queries::q3())];
    let references: Vec<QueryOutput> = workloads
        .iter()
        .map(|(_, w)| {
            provider
                .execute(w.clone(), Strategy::CompiledNative)
                .expect("reference run")
        })
        .collect();

    // Warm-up: one handle through the minimal block_on executor.
    let (name, stmt) = &workloads[0];
    let out =
        block_on(provider.submit(stmt.clone(), Strategy::CompiledNative, QueryOptions::new()))
            .expect("warm-up query");
    assert_eq!(&out, &references[0]);
    println!("block_on warm-up: {name} -> {} rows ✓\n", out.rows.len());

    // N interleaved clients on one driver thread. Classes rotate
    // Interactive / Interactive / Batch / Maintenance — the serving mix the
    // WDRR queue weights (8:2:1) are built for.
    println!("multiplexing {clients} clients on one driver thread:");
    let wall = Instant::now();
    let mut expected = Vec::with_capacity(clients);
    let futures: Vec<QueryHandle> = (0..clients)
        .map(|client| {
            let (_, stmt) = &workloads[client % workloads.len()];
            expected.push(client % workloads.len());
            let options = match client % 4 {
                3 => QueryOptions::maintenance(),
                2 => QueryOptions::batch(),
                _ => QueryOptions::new(),
            };
            provider.submit(stmt.clone(), Strategy::CompiledNative, options)
        })
        .collect();
    assert!(
        futures.len() >= 8,
        "the demo multiplexes at least 8 futures"
    );
    let (results, polls) = drive_all(futures);
    let wall = wall.elapsed();

    for (client, result) in results.iter().enumerate() {
        let out = result.as_ref().expect("client query");
        assert_eq!(
            out, &references[expected[client]],
            "client {client}: result drifted from sequential execute"
        );
    }
    println!(
        "  {clients} queries, {polls} polls ({} per future), {:.2} ms wall",
        polls as f64 / clients as f64,
        wall.as_secs_f64() * 1e3,
    );
    println!("  every result bit-identical to sequential Provider::execute ✓\n");

    // Prepared-query serving: compile Q1 once into the sharded plan cache,
    // then serve each request by binding a fresh shipdate cutoff into the
    // cached plan. The handles behave exactly like ad-hoc ones — minus the
    // per-request optimize/lower/emit pipeline.
    println!("prepared-query serving:");
    let prepared = provider
        .prepare(workloads[0].1.clone(), Strategy::CompiledNative)
        .expect("prepare Q1");
    let selectivities = [0.25, 0.5, 0.75];
    let prepared_futures: Vec<QueryHandle> = selectivities
        .iter()
        .map(|s| {
            let stmt = queries::q1_with_cutoff(data.shipdate_for_selectivity(*s));
            prepared.submit(&bindings_for(stmt), QueryOptions::new())
        })
        .collect();
    let (prepared_results, _) = drive_all(prepared_futures);
    for (i, result) in prepared_results.iter().enumerate() {
        let out = result.as_ref().expect("prepared future");
        let stmt = queries::q1_with_cutoff(data.shipdate_for_selectivity(selectivities[i]));
        let reference = provider
            .execute(stmt, Strategy::CompiledNative)
            .expect("ad-hoc reference");
        assert_eq!(
            out, &reference,
            "prepared binding {i}: result drifted from ad-hoc execute"
        );
    }
    let stats = provider.plan_cache_stats();
    println!(
        "  {} bindings served from one plan, bit-identical to ad-hoc ✓ \
         (plan cache: {} entries, {} hits, {} misses)\n",
        selectivities.len(),
        stats.entries,
        stats.hits,
        stats.misses,
    );

    // Streaming results: a streamable scan (filter + projection, nothing
    // blocking) leaves the engine batch by batch at the ordered morsel
    // frontier. The consumer below is fully async — each batch is awaited
    // through `poll_next_batch` on the same dependency-free executor — and
    // the first rows arrive while most of the scan is still running.
    println!("streaming results (QueryStream):");
    let scan = queries::scan_micro(data.shipdate_for_selectivity(0.5));
    let scan_reference = provider
        .execute(scan.clone(), Strategy::CompiledNative)
        .expect("scan reference");
    let mut stream = provider.submit_stream(
        scan.clone(),
        Strategy::CompiledNative,
        QueryOptions::new().with_stream_batch_rows(1024),
    );
    let started = Instant::now();
    let mut first_batch_at = None;
    let mut streamed_rows = Vec::new();
    let mut batches = 0usize;
    while let Some(batch) = block_on(std::future::poll_fn(|cx| stream.poll_next_batch(cx))) {
        let batch = batch.expect("streamed batch");
        first_batch_at.get_or_insert_with(|| started.elapsed());
        batches += 1;
        streamed_rows.extend(batch);
    }
    let total = started.elapsed();
    assert_eq!(
        streamed_rows, scan_reference.rows,
        "streamed batches must concatenate to the materialised result"
    );
    println!(
        "  {} rows in {batches} batches: first batch after {:.3} ms, last after {:.3} ms",
        streamed_rows.len(),
        first_batch_at.expect("at least one batch").as_secs_f64() * 1e3,
        total.as_secs_f64() * 1e3,
    );
    println!("  concatenated batches bit-identical to Provider::execute ✓");

    // A stream dropped mid-way cancels its query: the channel disconnects,
    // the cancel token trips at the next checkpoint, and the owned task
    // unwinds in the background without blocking the drop.
    let mut abandoned = provider.submit_stream(
        scan,
        Strategy::CompiledNative,
        QueryOptions::new().with_stream_batch_rows(256),
    );
    let first = abandoned.next_batch().expect("first batch").expect("rows");
    let drop_started = Instant::now();
    drop(abandoned);
    println!(
        "  dropped after one batch ({} rows) -> cancelled, drop returned in {:.3} ms ✓\n",
        first.len(),
        drop_started.elapsed().as_secs_f64() * 1e3,
    );

    // Overload protection: a second provider over the same stores, sealed
    // with a *bounded* admission gate — 4 in-flight slots plus 2 queue
    // slots, reserving 1 slot per tier below Interactive. Class limits:
    // Interactive 6, Batch 5, Maintenance 4. A `hold` at the dispatch
    // boundary freezes every admitted task before it compiles, so the
    // burst's shed decisions (and stats) are fully deterministic.
    println!("overload protection (admission control):");
    let bounded: OwnedProvider = {
        let mut provider = Provider::new();
        for (source, store) in &stores {
            provider.bind_native_shared(*source, Arc::clone(store));
        }
        provider.set_parallelism(ParallelConfig::with_threads(2));
        provider.set_admission(AdmissionConfig::bounded(4, 2).with_reserve(1));
        provider.into_shared()
    };
    fault::disarm_all();
    fault::arm("pool.dispatch", FaultAction::Hold, 1);
    let burst: Vec<(&str, QueryOptions)> = (0..5)
        .map(|_| ("maintenance", QueryOptions::maintenance()))
        .chain((0..3).map(|_| ("batch", QueryOptions::batch())))
        .chain((0..2).map(|_| ("interactive", QueryOptions::new())))
        .collect();
    let burst_futures: Vec<QueryHandle> = burst
        .iter()
        .map(|(_, options)| {
            bounded.submit(workloads[0].1.clone(), Strategy::CompiledNative, *options)
        })
        .collect();
    let admission = bounded.admission_stats();
    println!(
        "  burst of {} statements -> {} admitted, {} shed (peak {} in flight)",
        burst.len(),
        admission.admitted,
        admission.shed,
        admission.peak_in_flight,
    );
    // Maintenance sheds first, then Batch; Interactive keeps its reserve.
    assert_eq!(
        (admission.admitted, admission.shed, admission.peak_in_flight),
        (6, 4, 6)
    );
    // Shed (and still-held) statements generated zero compilation traffic.
    assert_eq!(bounded.plan_cache_stats().misses, 0);
    fault::release("pool.dispatch");
    let (burst_results, _) = drive_all(burst_futures);
    let mut completed = 0usize;
    for ((class, _), result) in burst.iter().zip(&burst_results) {
        match result {
            Ok(out) => {
                assert_eq!(
                    out, &references[0],
                    "an admitted burst query drifted from sequential execute"
                );
                completed += 1;
            }
            Err(QueryError::Overloaded { in_flight, limit }) => println!(
                "  shed {class:<11} -> Overloaded ({in_flight} in flight, class limit {limit})"
            ),
            Err(other) => panic!("unexpected burst error: {other:?}"),
        }
    }
    println!("  {completed} admitted queries completed bit-identical after release ✓\n");
    drop(bounded);

    // Lifecycle through the async path.
    println!("lifecycle through futures:");

    // A zero budget resolves to DeadlineExceeded without executing.
    let doomed = provider.submit(
        workloads[0].1.clone(),
        Strategy::CompiledNative,
        QueryOptions::new().with_deadline(Duration::ZERO),
    );
    println!(
        "  zero deadline        -> {:?}",
        block_on(doomed).unwrap_err()
    );

    // Cancellation wakes the handle's waker within ~4096 rows.
    let victim = provider.submit(
        workloads[0].1.clone(),
        Strategy::CompiledNative,
        QueryOptions::new(),
    );
    victim.cancel();
    match block_on(victim) {
        Err(err) => println!("  cancelled future     -> {err:?}"),
        Ok(_) => println!("  cancelled future     -> completed before the cancel landed"),
    }

    // Dropping an unresolved handle is non-blocking: the task holds
    // its own provider clone and finishes in the background.
    let dropped = provider.submit(
        workloads[1].1.clone(),
        Strategy::CompiledNative,
        QueryOptions::batch(),
    );
    let drop_started = Instant::now();
    drop(dropped);
    println!(
        "  dropped unresolved   -> returned in {:.3} ms (task finishes in background)",
        drop_started.elapsed().as_secs_f64() * 1e3,
    );
}
