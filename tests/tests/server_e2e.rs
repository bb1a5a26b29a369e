//! End-to-end serving: a real `mrq-protocol` server on a loopback socket,
//! a real `mrq-client` on the other side, and the contract that nothing
//! about the wire changes an answer.
//!
//! * unary results over the socket are bit-identical to an in-process
//!   `Provider::execute` of the same statement — for every strategy, at
//!   every thread count {1, 2, 8};
//! * streamed batches concatenate to exactly the unary result, with the
//!   same deterministic batch boundaries as an in-process `QueryStream`;
//! * PREPARE / EXECUTE over the wire re-binds parameters exactly like
//!   `Provider::prepare` in process, including prepare-time defaults,
//!   streamed prepared execution, and typed errors for closed statements;
//! * concurrent clients with mixed QoS classes all complete with identical
//!   results — connection multiplexing never crosses answers;
//! * a connection's resources go when it does: connect/disconnect cycles
//!   leak no descriptors, and a protocol violation is answered with an
//!   id-0 error frame followed promptly by EOF.

use mrq_client::{Client, ClientError, QueryResult};
use mrq_codegen::exec::QueryOutput;
use mrq_common::{ParallelConfig, Schema, Value};
use mrq_core::{OwnedProvider, Provider, QueryOptions, Strategy};
use mrq_engine_hybrid::HybridConfig;
use mrq_engine_native::RowStore;
use mrq_expr::optimize::{optimize, OptimizerConfig};
use mrq_expr::{Expr, SourceId};
use mrq_mheap::{Heap, ListId};
use mrq_protocol::frame::{read_frame, write_frame, Request, Response};
use mrq_protocol::Server;
use mrq_tpch::gen::{GenConfig, TpchData};
use mrq_tpch::load::{schema_of, value_rows, HeapDataset, TABLE_NAMES};
use mrq_tpch::queries;
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

const THREADS: [usize; 3] = [1, 2, 8];

/// Shared test fixtures: one TPC-H generation, one managed heap, one set
/// of native row stores — servers are cheap to stand up per cell, data is
/// not.
struct Harness {
    data: TpchData,
    heap: Arc<Heap>,
    lists: Vec<(SourceId, ListId, Schema)>,
    stores: Vec<(SourceId, Arc<RowStore>)>,
}

fn harness() -> &'static Harness {
    static H: OnceLock<Harness> = OnceLock::new();
    H.get_or_init(|| {
        let data = TpchData::generate(GenConfig::scale(0.002));
        let heap_data = HeapDataset::load(&data);
        let lists = TABLE_NAMES
            .iter()
            .enumerate()
            .map(|(i, table)| (SourceId(i as u32), heap_data.list(table), schema_of(table)))
            .collect();
        let stores = [
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
        Harness {
            data,
            heap: Arc::new(heap_data.heap),
            lists,
            stores,
        }
    })
}

fn parallel(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        min_rows_per_thread: 16,
        ..ParallelConfig::default()
    }
    .with_morsel_rows(64)
}

fn managed_provider(config: ParallelConfig) -> OwnedProvider {
    let h = harness();
    let mut provider = Provider::over_shared_heap(Arc::clone(&h.heap));
    for (source, list, schema) in &h.lists {
        provider.bind_managed(*source, *list, schema.clone());
    }
    provider.set_parallelism(config);
    provider.into_shared()
}

fn native_provider(config: ParallelConfig) -> OwnedProvider {
    let h = harness();
    let mut provider = Provider::new();
    for (source, store) in &h.stores {
        provider.bind_native_shared(*source, Arc::clone(store));
    }
    provider.set_parallelism(config);
    provider.into_shared()
}

/// Stands up a loopback server over `provider` and connects one client.
/// Dropping the returned `Server` shuts it down.
fn serve(provider: &OwnedProvider) -> (Server, Client) {
    let server = Server::start(provider.clone(), "127.0.0.1:0").expect("bind loopback server");
    let client = Client::connect(server.local_addr()).expect("connect");
    (server, client)
}

fn managed_strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        ("linq", Strategy::LinqToObjects),
        ("csharp", Strategy::CompiledCSharp),
        ("hybrid", Strategy::Hybrid(HybridConfig::default())),
    ]
}

fn assert_matches_output(got: &QueryResult, reference: &QueryOutput, context: &str) {
    assert_eq!(got.schema, reference.schema, "{context}: schema");
    assert_eq!(got.rows, reference.rows, "{context}: rows");
}

/// The parameter bindings equivalent to executing `expr` ad hoc — same
/// canonicalisation the provider applies (see `prepared_equivalence.rs`).
fn bindings_for(expr: Expr) -> Vec<Value> {
    mrq_expr::canonicalize(optimize(expr, OptimizerConfig::default()).expr).params
}

/// Unary round trips: the socket, the codec and the server task plumbing
/// must not perturb a single bit of any result, under every strategy and
/// scheduler shape.
#[test]
fn unary_results_bit_identical_to_in_process_across_the_matrix() {
    let cutoff = harness().data.shipdate_for_selectivity(0.5);
    for (workload_name, workload) in [
        ("scan_micro", queries::scan_micro(cutoff)),
        ("q1", queries::q1()),
    ] {
        for &threads in &THREADS {
            let config = parallel(threads);
            let context = |name: &str| format!("{workload_name}/{name} at {threads} threads");

            let provider = managed_provider(config);
            let (_server, mut client) = serve(&provider);
            for (name, strategy) in managed_strategies() {
                let reference = provider
                    .execute(workload.clone(), strategy)
                    .expect("in-process reference");
                let got = client
                    .query(workload.clone(), strategy, QueryOptions::new())
                    .expect("wire query");
                assert_matches_output(&got, &reference, &context(name));
            }

            let provider = native_provider(config);
            let (_server, mut client) = serve(&provider);
            let strategy = Strategy::CompiledNativeParallel(config);
            let reference = provider
                .execute(workload.clone(), strategy)
                .expect("in-process native reference");
            let got = client
                .query(workload.clone(), strategy, QueryOptions::new())
                .expect("wire native query");
            assert_matches_output(&got, &reference, &context("native"));
        }
    }
}

/// Streamed batches over the socket concatenate to the unary result with
/// the same deterministic boundaries as an in-process stream: full
/// `stream_batch_rows`-sized batches plus one remainder.
#[test]
fn streamed_batches_concatenate_to_unary_over_the_wire() {
    let cutoff = harness().data.shipdate_for_selectivity(0.5);
    let workload = queries::scan_micro(cutoff);
    let batch_rows = 7;
    let options = QueryOptions::new().with_stream_batch_rows(batch_rows);

    let expected_sizes = |total: usize| -> Vec<usize> {
        let mut sizes = vec![batch_rows; total / batch_rows];
        if !total.is_multiple_of(batch_rows) {
            sizes.push(total % batch_rows);
        }
        sizes
    };

    for &threads in &THREADS {
        let config = parallel(threads);
        let context = |name: &str| format!("{name} at {threads} threads");

        let provider = managed_provider(config);
        let (_server, mut client) = serve(&provider);
        for (name, strategy) in managed_strategies() {
            let reference = provider
                .execute(workload.clone(), strategy)
                .expect("in-process reference");
            assert!(reference.rows.len() > 200, "workload too small to stream");
            let mut rows = Vec::new();
            let mut sizes = Vec::new();
            for batch in client
                .query_stream(workload.clone(), strategy, options)
                .expect("open stream")
            {
                let batch = batch.expect("streamed batch");
                sizes.push(batch.len());
                rows.extend(batch);
            }
            assert_eq!(rows, reference.rows, "{}: rows", context(name));
            assert_eq!(
                sizes,
                expected_sizes(reference.rows.len()),
                "{}: batch sizes",
                context(name)
            );
        }

        let provider = native_provider(config);
        let (_server, mut client) = serve(&provider);
        let strategy = Strategy::CompiledNativeParallel(config);
        let reference = provider
            .execute(workload.clone(), strategy)
            .expect("in-process native reference");
        let mut rows = Vec::new();
        let mut sizes = Vec::new();
        for batch in client
            .query_stream(workload.clone(), strategy, options)
            .expect("open native stream")
        {
            let batch = batch.expect("streamed batch");
            sizes.push(batch.len());
            rows.extend(batch);
        }
        assert_eq!(rows, reference.rows, "{}: rows", context("native"));
        assert_eq!(
            sizes,
            expected_sizes(reference.rows.len()),
            "{}: batch sizes",
            context("native")
        );
    }
}

/// PREPARE / EXECUTE over the wire: prepare-time defaults, re-binding with
/// a different statement instance's literals, streamed prepared execution,
/// and a typed error (not a hang) for a closed statement — after which the
/// connection keeps working.
#[test]
fn prepare_execute_rebinding_matches_adhoc_over_the_wire() {
    let h = harness();
    let prepare_cutoff = h.data.shipdate_for_selectivity(0.3);
    let execute_cutoff = h.data.shipdate_for_selectivity(0.7);
    let config = parallel(2);
    let stream_options = QueryOptions::new().with_stream_batch_rows(16);

    let shapes = [
        (
            "q1",
            queries::q1_with_cutoff(prepare_cutoff),
            queries::q1_with_cutoff(execute_cutoff),
        ),
        (
            "q3",
            queries::q3_with_params("BUILDING", prepare_cutoff),
            queries::q3_with_params("MACHINERY", execute_cutoff),
        ),
    ];

    let managed = managed_provider(config);
    let native = native_provider(config);
    let cells: Vec<(&OwnedProvider, Vec<(&'static str, Strategy)>)> = vec![
        (&managed, managed_strategies()),
        (
            &native,
            vec![("native", Strategy::CompiledNativeParallel(config))],
        ),
    ];

    for (provider, strategies) in cells {
        let (_server, mut client) = serve(provider);
        for (shape, prepare_stmt, execute_stmt) in &shapes {
            for (name, strategy) in &strategies {
                let context = format!("{shape}/{name}");
                let statement = client
                    .prepare(prepare_stmt.clone(), *strategy)
                    .expect("prepare over the wire");

                // Empty bindings re-execute with the constants captured at
                // prepare time.
                let defaults = client
                    .execute(statement, &[], QueryOptions::new())
                    .expect("execute with defaults");
                let reference = provider
                    .execute(prepare_stmt.clone(), *strategy)
                    .expect("in-process default reference");
                assert_matches_output(&defaults, &reference, &format!("{context}: defaults"));

                // Re-bind with the literals of a different instance of the
                // same statement shape.
                let bindings = bindings_for(execute_stmt.clone());
                assert_eq!(
                    bindings.len(),
                    statement.param_slots(),
                    "{context}: slot count"
                );
                let rebound = client
                    .execute(statement, &bindings, QueryOptions::new())
                    .expect("execute with re-bound parameters");
                let reference = provider
                    .execute(execute_stmt.clone(), *strategy)
                    .expect("in-process re-bound reference");
                assert_matches_output(&rebound, &reference, &format!("{context}: rebound"));

                // Streamed prepared execution concatenates to the unary
                // result.
                let mut rows = Vec::new();
                for batch in client
                    .execute_stream(statement, &bindings, stream_options)
                    .expect("open prepared stream")
                {
                    rows.extend(batch.expect("streamed batch"));
                }
                assert_eq!(rows, reference.rows, "{context}: streamed rows");

                // Closing the statement makes further executions a typed
                // error; the connection stays usable.
                client.close_statement(statement).expect("close statement");
                match client.execute(statement, &bindings, QueryOptions::new()) {
                    Err(ClientError::Query(_)) => {}
                    other => panic!("{context}: closed statement returned {other:?}"),
                }
                let again = client
                    .query(execute_stmt.clone(), *strategy, QueryOptions::new())
                    .expect("connection survives a statement error");
                assert_matches_output(&again, &reference, &format!("{context}: after error"));
            }
        }
    }
}

/// Many clients at once, across all three QoS classes: every query on
/// every connection gets exactly its own full answer.
#[test]
fn concurrent_clients_with_mixed_qos_classes_complete_identically() {
    let h = harness();
    let config = parallel(2);
    let provider = native_provider(config);
    let server = Server::start(provider.clone(), "127.0.0.1:0").expect("bind loopback server");
    let addr = server.local_addr().to_string();

    let cutoff = h.data.shipdate_for_selectivity(0.5);
    let strategy = Strategy::CompiledNativeParallel(config);
    let scan = queries::scan_micro(cutoff);
    let agg = queries::q1();
    let scan_ref = provider
        .execute(scan.clone(), strategy)
        .expect("scan reference");
    let agg_ref = provider
        .execute(agg.clone(), strategy)
        .expect("aggregation reference");

    const CLIENTS: usize = 6;
    const REQUESTS_PER_CLIENT: usize = 8;
    let completed = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|worker| {
                let (addr, strategy) = (&addr, &strategy);
                let (scan, agg) = (&scan, &agg);
                let (scan_ref, agg_ref) = (&scan_ref, &agg_ref);
                scope.spawn(move || {
                    let mut client = Client::connect(addr.as_str()).expect("connect");
                    let options = match worker % 3 {
                        0 => QueryOptions::new(),
                        1 => QueryOptions::batch(),
                        _ => QueryOptions::maintenance(),
                    };
                    let mut completed = 0usize;
                    for request in 0..REQUESTS_PER_CLIENT {
                        let (workload, reference) = if (worker + request) % 2 == 0 {
                            (scan, scan_ref)
                        } else {
                            (agg, agg_ref)
                        };
                        let got = client
                            .query(workload.clone(), *strategy, options)
                            .expect("concurrent query");
                        assert_matches_output(
                            &got,
                            reference,
                            &format!("client {worker} request {request}"),
                        );
                        completed += 1;
                    }
                    completed
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("worker"))
            .sum::<usize>()
    });
    assert_eq!(completed, CLIENTS * REQUESTS_PER_CLIENT);
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list open descriptors")
        .count()
}

/// A server that has seen many short connections holds no more descriptors
/// than one that has seen few: each connection releases everything it
/// duplicated once it ends.
#[test]
fn connect_disconnect_cycles_leak_no_descriptors() {
    let provider = native_provider(parallel(1));
    let server = Server::start(provider, "127.0.0.1:0").expect("bind loopback server");
    drop(Client::connect(server.local_addr()).expect("warm-up connect"));
    std::thread::sleep(Duration::from_millis(100));
    let before = open_fds();
    for _ in 0..200 {
        drop(Client::connect(server.local_addr()).expect("connect"));
    }
    // Connection threads finish asynchronously; give them a moment.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut after = open_fds();
    while after > before + 4 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        after = open_fds();
    }
    assert!(
        after <= before + 4,
        "{before} descriptors before 200 connections, {after} after"
    );
}

/// A frame that breaks the protocol is answered with the connection-level
/// (id 0) error frame, and the server then closes the connection instead of
/// leaving the client waiting.
#[test]
fn protocol_violation_gets_an_error_frame_then_eof() {
    let provider = native_provider(parallel(1));
    let server = Server::start(provider, "127.0.0.1:0").expect("bind loopback server");
    let mut socket = TcpStream::connect(server.local_addr()).expect("connect");
    socket
        .set_read_timeout(Some(Duration::from_secs(1)))
        .expect("read timeout");
    write_frame(&mut socket, &Request::hello().encode()).expect("send hello");
    let hello = read_frame(&mut socket)
        .expect("hello reply")
        .expect("frame");
    assert!(matches!(
        Response::decode(&hello),
        Ok(Response::Hello { .. })
    ));

    write_frame(&mut socket, &[0xFF]).expect("send a frame with an unknown tag");
    let error = read_frame(&mut socket)
        .expect("error reply")
        .expect("frame");
    assert!(matches!(
        Response::decode(&error),
        Ok(Response::Error { id: 0, .. })
    ));
    match read_frame(&mut socket) {
        Ok(None) => {}
        other => panic!("expected EOF within 1 s after the error frame, got {other:?}"),
    }
}

/// PREPARE types the statement: an ill-typed one is refused with a
/// `Codegen` error frame carrying `Provider::prepare`'s own error, and the
/// connection goes on serving the next request.
#[test]
fn prepare_rejects_an_ill_typed_statement_and_the_connection_serves_on() {
    use mrq_common::MrqError;
    use mrq_expr::{col, lam, lit, BinaryOp, Query};

    let provider = native_provider(parallel(1));
    let strategy = Strategy::CompiledNative;
    let ill_typed = Query::from_source(queries::SRC_LINEITEM)
        .where_(lam(
            "l",
            Expr::binary(BinaryOp::Gt, col("l", "l_shipdate"), lit(5i64)),
        ))
        .select(lam("l", col("l", "l_orderkey")))
        .into_expr();
    let expected = provider
        .prepare(ill_typed.clone(), strategy)
        .err()
        .expect("in-process prepare refuses the statement");
    assert!(matches!(expected, MrqError::Codegen(_)), "{expected}");
    let (_server, mut client) = serve(&provider);
    match client.prepare(ill_typed, strategy) {
        Err(ClientError::Query(error)) => assert_eq!(error, expected),
        other => panic!("prepare over the wire: expected the codegen error, got {other:?}"),
    }
    let reference = provider.execute(queries::q6(), strategy).expect("q6");
    let got = client
        .query(queries::q6(), strategy, QueryOptions::default())
        .expect("the connection serves the next request");
    assert_matches_output(&got, &reference, "after the refused prepare");
}

/// Median of `samples`, in milliseconds.
fn median_ms(mut samples: Vec<Duration>) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e3
}

/// A reply written as a 4-byte length prefix and a separate payload, with
/// Nagle's algorithm on, waits for the client's delayed ACK: ~40 ms per
/// round trip. One write per frame and `TCP_NODELAY` on the server socket
/// bring a small query's round trip down to its execution time.
#[test]
fn small_unary_round_trips_do_not_wait_for_a_delayed_ack() {
    let provider = native_provider(parallel(1));
    let (_server, mut client) = serve(&provider);
    let strategy = Strategy::CompiledNativeParallel(parallel(1));
    let q6 = queries::q6();
    let first = client
        .query(q6.clone(), strategy, QueryOptions::new())
        .expect("warm-up query");
    assert!(first.rows.len() <= 100, "{} rows", first.rows.len());
    let samples = (0..50)
        .map(|_| {
            let start = Instant::now();
            let got = client
                .query(q6.clone(), strategy, QueryOptions::new())
                .expect("wire query");
            assert_eq!(got, first);
            start.elapsed()
        })
        .collect();
    let median = median_ms(samples);
    assert!(median < 20.0, "median unary round trip {median:.1} ms");
}

/// The same stall hit every `Prepared` reply, which the server's reader
/// thread writes; PREPARE itself takes microseconds.
#[test]
fn prepare_round_trips_do_not_wait_for_a_delayed_ack() {
    let provider = native_provider(parallel(1));
    let (_server, mut client) = serve(&provider);
    let strategy = Strategy::CompiledNativeParallel(parallel(1));
    let samples = (0..10)
        .map(|_| {
            let start = Instant::now();
            client.prepare(queries::q6(), strategy).expect("prepare");
            start.elapsed()
        })
        .collect();
    let median = median_ms(samples);
    assert!(median < 20.0, "median prepare round trip {median:.1} ms");
}
