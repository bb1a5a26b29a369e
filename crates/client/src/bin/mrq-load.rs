//! Load generator for the MRQ serving stack.
//!
//! Three modes, all reporting machine-readable JSON on stdout:
//!
//! * **closed loop** (default): `--connections` clients issue
//!   `--requests` unary queries back to back; latency is measured per
//!   round trip and reported as p50 / p99 / p999 plus overall qps. A
//!   self-hosted run (closed or open) also reports `plans`, the number of
//!   plans its server compiled.
//! * **open loop** (`--rate R`): requests are scheduled on a fixed global
//!   tick grid of `R` requests/second and latency is measured from each
//!   request's *scheduled* time, so queueing delay from a lagging server
//!   counts against it (no coordinated omission).
//! * **burst** (`--burst`): a deterministic overload demonstration — the
//!   self-hosted server gets a bounded admission gate, a `hold` fault
//!   freezes admitted work at the dispatch boundary, and a one-connection
//!   burst of 10 mixed-QoS queries must shed exactly 4 with `Overloaded`
//!   frames while the 6 admitted ones complete bit-identical to in-process
//!   execution after release. Exits nonzero on any mismatch.
//!
//! Without `--addr`, the process self-hosts an `mrq-protocol` server over
//! freshly generated TPC-H data (scale factor `MRQ_SF`, default 0.01; an
//! invalid value exits with status 2) on an ephemeral loopback port, runs
//! the workload against it, and shuts it down cleanly with a `Shutdown`
//! frame.

use mrq_client::{Client, ClientError, QueryResult};
use mrq_common::fault::{self, FaultAction};
use mrq_core::{
    AdmissionConfig, OwnedProvider, ParallelConfig, Provider, QueryError, QueryOptions, Strategy,
};
use mrq_engine_native::RowStore;
use mrq_protocol::Server;
use mrq_tpch::gen::{scale_from_env, GenConfig, TpchData};
use mrq_tpch::load::{schema_of, value_rows};
use mrq_tpch::queries;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    requests: usize,
    connections: usize,
    rate: Option<f64>,
    addr: Option<String>,
    burst: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        requests: 120,
        connections: 4,
        rate: None,
        addr: None,
        burst: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--requests" => args.requests = value("--requests").parse().expect("--requests"),
            "--connections" => {
                args.connections = value("--connections").parse().expect("--connections")
            }
            "--rate" => args.rate = Some(value("--rate").parse().expect("--rate")),
            "--addr" => args.addr = Some(value("--addr")),
            "--burst" => args.burst = true,
            other => panic!("unknown flag {other} (see the doc comment for usage)"),
        }
    }
    args.connections = args.connections.max(1);
    args
}

/// Builds the self-hosted provider: TPC-H stores behind `Arc`s, admission
/// from the environment unless `bounded_admission` asks for the burst
/// gate.
fn build_provider(data: &TpchData, bounded_admission: bool) -> OwnedProvider {
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
                &value_rows(data, table),
            )),
        )
    })
    .collect();
    let mut provider = Provider::new();
    for (source, store) in &stores {
        provider.bind_native_shared(*source, Arc::clone(store));
    }
    provider.set_parallelism(ParallelConfig::with_threads(2));
    provider.set_admission(if bounded_admission {
        AdmissionConfig::bounded(4, 2).with_reserve(1)
    } else {
        AdmissionConfig::from_env()
    });
    provider.into_shared()
}

fn percentile(sorted_micros: &[u64], q: f64) -> u64 {
    if sorted_micros.is_empty() {
        return 0;
    }
    let rank = ((sorted_micros.len() - 1) as f64 * q).round() as usize;
    sorted_micros[rank]
}

fn main() {
    let args = parse_args();
    let scale = scale_from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    if args.burst {
        if args.addr.is_some() {
            eprintln!("--burst requires the self-hosted server (it arms in-process faults)");
            std::process::exit(2);
        }
        run_burst(scale);
        return;
    }

    // Self-host unless pointed at an external server.
    let mut hosted: Option<(Server, OwnedProvider)> = None;
    let addr = match &args.addr {
        Some(addr) => addr.clone(),
        None => {
            let data = TpchData::generate(GenConfig::scale(scale));
            let provider = build_provider(&data, false);
            let server =
                Server::start(provider.clone(), "127.0.0.1:0").expect("bind loopback server");
            let addr = server.local_addr().to_string();
            hosted = Some((server, provider));
            addr
        }
    };

    let schedule: Option<(Instant, Duration)> = args.rate.map(|rate| {
        (
            Instant::now(),
            Duration::from_secs_f64(1.0 / rate.max(0.001)),
        )
    });
    let started = Instant::now();
    let workers: Vec<_> = (0..args.connections)
        .map(|worker| {
            let addr = addr.clone();
            let requests = args.requests;
            let connections = args.connections;
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut latencies = Vec::new();
                let mut shed = 0usize;
                let mut errors = 0usize;
                let mut index = worker;
                while index < requests {
                    let begin = match schedule {
                        // Open loop: latency clock starts at the request's
                        // scheduled tick, whether or not we are on time.
                        Some((epoch, interval)) => {
                            let tick = epoch + interval * (index as u32);
                            if let Some(wait) = tick.checked_duration_since(Instant::now()) {
                                std::thread::sleep(wait);
                            }
                            tick
                        }
                        None => Instant::now(),
                    };
                    let result =
                        client.query(queries::q1(), Strategy::CompiledNative, QueryOptions::new());
                    match result {
                        Ok(_) => latencies.push(begin.elapsed().as_micros() as u64),
                        Err(ClientError::Query(QueryError::Overloaded { .. })) => shed += 1,
                        Err(e) => {
                            eprintln!("request {index} failed: {e}");
                            errors += 1;
                        }
                    }
                    index += connections;
                }
                (latencies, shed, errors)
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let mut shed = 0usize;
    let mut errors = 0usize;
    for worker in workers {
        let (mut worker_latencies, worker_shed, worker_errors) = worker.join().expect("worker");
        latencies.append(&mut worker_latencies);
        shed += worker_shed;
        errors += worker_errors;
    }
    let duration = started.elapsed().as_secs_f64();
    latencies.sort_unstable();

    // Clean shutdown of the self-hosted server through the protocol, then
    // wait for the accept loop to exit.
    // A self-hosted run also reports how many plans the server compiled
    // (plan-cache misses): one per query shape, however many requests.
    let (shutdown, plans) = match hosted {
        Some((mut server, provider)) => {
            let mut control = Client::connect(&addr).expect("connect for shutdown");
            control.shutdown_server().expect("send shutdown");
            server.wait();
            let plans = provider.plan_cache_stats().misses;
            ("clean", format!(",\"plans\":{plans}"))
        }
        None => ("external", String::new()),
    };

    println!(
        "{{\"mode\":\"{}\",\"requests\":{},\"connections\":{},\"duration_s\":{:.3},\"qps\":{:.1},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"ok\":{},\"shed\":{},\"errors\":{},\"shutdown\":\"{}\"{}}}",
        if args.rate.is_some() { "open" } else { "closed" },
        args.requests,
        args.connections,
        duration,
        latencies.len() as f64 / duration.max(1e-9),
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        percentile(&latencies, 0.999),
        latencies.len(),
        shed,
        errors,
        shutdown,
        plans,
    );
    if errors > 0 {
        std::process::exit(1);
    }
}

/// The deterministic overload cell: mirrors `examples/async_server.rs`'s
/// in-process burst, but over the wire — sheds must arrive as typed
/// `Overloaded` error frames (never a hung connection) and the admitted
/// queries must complete bit-identical after the hold releases.
fn run_burst(scale: f64) {
    let data = TpchData::generate(GenConfig::scale(scale));
    let provider = build_provider(&data, true);
    let reference = provider
        .execute(queries::q1(), Strategy::CompiledNative)
        .expect("reference execution");
    // The reference execution above compiled the plan; sheds and held
    // submissions must add no plan-cache miss on top of this baseline.
    let baseline_misses = provider.plan_cache_stats().misses;
    let mut server = Server::start(provider.clone(), "127.0.0.1:0").expect("bind loopback server");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    // Freeze every admitted task at the dispatch boundary so the shed
    // pattern is deterministic: Maintenance sheds first, then Batch;
    // Interactive keeps its reserve.
    fault::disarm_all();
    fault::arm("pool.dispatch", FaultAction::Hold, 1);
    let burst: Vec<QueryOptions> = std::iter::repeat_n(QueryOptions::maintenance(), 5)
        .chain(std::iter::repeat_n(QueryOptions::batch(), 3))
        .chain(std::iter::repeat_n(QueryOptions::new(), 2))
        .collect();
    let tickets: Vec<_> = burst
        .iter()
        .map(|options| {
            client
                .submit(queries::q1(), Strategy::CompiledNative, *options)
                .expect("submit burst query")
        })
        .collect();

    // The client sends are pipelined; wait (in-process, we co-host the
    // provider) until the server has adjudicated all ten submissions.
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
    let mut failed = false;
    if (stats.admitted, stats.shed, stats.peak_in_flight) != (6, 4, 6) {
        eprintln!(
            "admission stats drifted: admitted={} shed={} peak={}",
            stats.admitted, stats.shed, stats.peak_in_flight
        );
        failed = true;
    }
    // Shed and still-held statements must not have compiled anything.
    if provider.plan_cache_stats().misses != baseline_misses {
        eprintln!("sheds generated plan-cache traffic");
        failed = true;
    }
    fault::release("pool.dispatch");

    let mut completed = 0usize;
    let mut shed = 0usize;
    for ticket in tickets {
        match client.wait(ticket) {
            Ok(QueryResult { schema, rows }) => {
                if schema != reference.schema || rows != reference.rows {
                    eprintln!("an admitted burst query drifted from in-process execution");
                    failed = true;
                }
                completed += 1;
            }
            Err(ClientError::Query(QueryError::Overloaded { in_flight, limit })) => {
                // The exact admission numbers cross the wire intact.
                if in_flight == 0 || limit == 0 {
                    eprintln!("Overloaded frame lost its admission numbers");
                    failed = true;
                }
                shed += 1;
            }
            Err(other) => {
                eprintln!("unexpected burst outcome: {other}");
                failed = true;
            }
        }
    }
    if (completed, shed) != (6, 4) {
        eprintln!("burst outcomes drifted: completed={completed} shed={shed}");
        failed = true;
    }

    client.shutdown_server().expect("send shutdown");
    drop(client);
    server.wait();

    println!(
        "{{\"mode\":\"burst\",\"admitted\":{},\"shed\":{},\"peak_in_flight\":{},\"completed\":{},\"shutdown\":\"clean\"}}",
        stats.admitted, stats.shed, stats.peak_in_flight, completed,
    );
    if failed {
        std::process::exit(1);
    }
}
