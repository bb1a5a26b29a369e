//! Concurrent query serving: N client threads sharing one `Provider`.
//!
//! The provider is `Sync` and all parallel work runs on the process-wide
//! persistent worker pool, so a single provider instance — one plan
//! cache, one set of bindings — can serve many clients at once. Each
//! client thread here queues its queries with `Provider::submit`, joins the
//! `QueryHandle`s, and records per-query latency; the main thread prints a
//! per-client latency line plus aggregate throughput, and verifies every
//! client saw results bit-identical to a sequential run. A closing section
//! demonstrates the lifecycle controls: a zero deadline firing at
//! dispatch, cooperative cancellation, and a Batch-class submission
//! (`QueryOptions` / `QueryHandle::cancel`).
//!
//! Run with `cargo run --release --example concurrent_clients`.
//! Knobs: `MRQ_SF` (scale factor, default 0.01), `MRQ_CLIENTS` (default 8),
//! `MRQ_QUERIES` (queries per client, default 20).

use mrq_core::{ParallelConfig, Provider, QueryOptions, Strategy};
use mrq_engine_native::RowStore;
use mrq_tpch::gen::{GenConfig, TpchData};
use mrq_tpch::load::{schema_of, value_rows};
use mrq_tpch::queries;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let scale = std::env::var("MRQ_SF")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.01);
    let clients = env_or("MRQ_CLIENTS", 8);
    let per_client = env_or("MRQ_QUERIES", 20);

    println!("generating TPC-H data at scale factor {scale} ...");
    let data = TpchData::generate(GenConfig::scale(scale));
    // One shared provider: bound once, then only `&provider` crosses
    // threads. Per-query parallelism stays modest (2 workers) because the
    // clients themselves provide the parallelism; the pool multiplexes all
    // of them over the same persistent workers.
    let mut provider = Provider::new();
    for (source, table) in [
        (queries::SRC_LINEITEM, "lineitem"),
        (queries::SRC_ORDERS, "orders"),
        (queries::SRC_CUSTOMER, "customer"),
    ] {
        let store = RowStore::from_rows(schema_of(table), &value_rows(&data, table));
        provider.bind_native_shared(source, Arc::new(store));
    }
    provider.set_parallelism(ParallelConfig::with_threads(2));
    let provider = provider.into_shared();

    // Sequential references for the bit-identity check.
    let workloads = [("Q1", queries::q1()), ("Q3", queries::q3())];
    let references: Vec<_> = workloads
        .iter()
        .map(|(_, w)| {
            provider
                .execute(w.clone(), Strategy::CompiledNative)
                .expect("reference run")
        })
        .collect();

    println!("{clients} clients x {per_client} queries each, one shared Provider\n");
    let provider = &provider;
    let references = &references;
    let workloads = &workloads;

    let wall = Instant::now();
    let per_client_stats: Vec<(usize, Vec<Duration>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(per_client);
                    for q in 0..per_client {
                        let (name, workload) = &workloads[(client + q) % workloads.len()];
                        let start = Instant::now();
                        let out = provider
                            .submit(
                                workload.clone(),
                                Strategy::CompiledNative,
                                QueryOptions::default(),
                            )
                            .join()
                            .expect("submitted query");
                        latencies.push(start.elapsed());
                        let reference = &references[(client + q) % workloads.len()];
                        assert_eq!(
                            &out, reference,
                            "client {client} {name}: result drifted from sequential"
                        );
                    }
                    (client, latencies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = wall.elapsed();

    for (client, mut latencies) in per_client_stats {
        latencies.sort();
        let total: Duration = latencies.iter().sum();
        let mean = total / latencies.len() as u32;
        let p95 = latencies[(latencies.len() * 95 / 100).min(latencies.len() - 1)];
        println!(
            "client {client}: {n:3} queries  mean {mean:7.2} ms  p95 {p95:7.2} ms",
            n = latencies.len(),
            mean = mean.as_secs_f64() * 1e3,
            p95 = p95.as_secs_f64() * 1e3,
        );
    }
    let total_queries = clients * per_client;
    println!(
        "\n{total_queries} queries in {:.2} s  ->  {:.1} queries/s across {clients} clients",
        wall.as_secs_f64(),
        total_queries as f64 / wall.as_secs_f64(),
    );
    println!("every result bit-identical to the sequential reference ✓");

    // ------------------------------------------------------------------
    // Lifecycle control: deadlines, cancellation and QoS classes.
    // ------------------------------------------------------------------
    println!("\nlifecycle control:");

    // A zero budget is already expired at dispatch: the handle resolves to
    // DeadlineExceeded before a single morsel runs.
    let doomed = provider.submit(
        queries::q1(),
        Strategy::CompiledNative,
        QueryOptions::new().with_deadline(Duration::ZERO),
    );
    println!("  zero deadline      -> {:?}", doomed.join().unwrap_err());

    // Cancellation is cooperative: the query abandons its remaining
    // morsels at the next boundary (or never starts, if the cancel lands
    // while it is still queued).
    let victim = provider.submit(
        queries::q1(),
        Strategy::CompiledNative,
        QueryOptions::default(),
    );
    victim.cancel();
    match victim.join() {
        Err(err) => println!("  cancelled query    -> {err:?}"),
        Ok(_) => println!("  cancelled query    -> completed before the cancel landed"),
    }

    // Batch-class work keeps flowing, de-weighted 4× against Interactive
    // tickets; a generous deadline completes normally.
    let batch = provider.submit(
        queries::q1(),
        Strategy::CompiledNative,
        QueryOptions::batch().with_deadline(Duration::from_secs(60)),
    );
    let out = batch.join().expect("batch-class query");
    assert_eq!(&out, &references[0]);
    println!(
        "  batch + 60s budget -> {} rows, still bit-identical ✓",
        out.rows.len()
    );
}
