//! The per-layer metrics: each layer's public functions, timed from
//! outside, one layer at a time.
//!
//! The probes run on their own small dataset (SF 0.01), the same whichever
//! workload the traced run replays, with one seeded statement per template.
//! Each layer is named after its crate. The *layer walk* performs one
//! request as its decomposed public steps under one op id — encode, frame
//! transfer, decode, optimize, canonicalize, lower, execute, encode, frame
//! transfer, decode — so that the real `Client::query` round trip minus the
//! walk is what only spans inside the program can split further.

use crate::check::{self, digest, Digest, Digester};
use crate::env::{self, ManagedData, NativeData};
use crate::script::{self, Calendar, Rng, Template};
use crate::stats::{geomean, mean, median};
use crate::trace::Tracer;
use crate::workloads::STREAM_PACE;
use crate::Metric;
use mrq_client::{Client, ClientError};
use mrq_codegen::emit::{emit_source, Backend};
use mrq_codegen::spec::{lower, QuerySpec};
use mrq_common::profile::phases;
use mrq_common::{MrqError, ParallelConfig, Schema, Value, WorkStats};
use mrq_core::{OwnedProvider, QueryOptions, Strategy};
use mrq_engine_hybrid::HybridConfig;
use mrq_expr::{canonicalize, optimize, CanonicalQuery, Expr, OptimizerConfig, SourceId};
use mrq_protocol::{read_frame, write_frame, Request, Response, Server};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Scale factor of the probes' dataset.
const SF: f64 = 0.01;
/// Repetitions of a call that takes microseconds.
const MICRO_REPS: usize = 40;
/// Repetitions of an engine execution: more for the native paths, whose
/// differences are reported, three for the slow LINQ baseline.
const ENGINE_REPS: usize = 6;
const NATIVE_REPS: usize = 12;
const LINQ_REPS: usize = 3;
/// Repetitions of a round trip over the wire (each pays the ~48 ms stall).
const WIRE_REPS: usize = 6;
/// Streams sent back to back, and how much longer than a paced one marks
/// one as stalled: three quarters of the kernel's 40 ms delayed-ACK timeout.
const BACK_TO_BACK: usize = 24;
const DELAYED_ACK_NS: f64 = 30e6;
/// Rows per batch of the row-codec probe.
const CODEC_BATCH: usize = 256;

/// What the probes found.
pub struct Probes {
    /// Every per-layer metric that does not depend on the replayed workload.
    pub metrics: Vec<Metric>,
    /// Results compared with the oracle.
    pub attempted: u64,
    /// Results that differed from it.
    pub failed: u64,
    /// Submissions the probes' provider shed (expected: none).
    pub shed: u64,
}

/// Wall-clock of one call, in nanoseconds, and what it returned.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = black_box(f());
    (start.elapsed().as_nanos() as f64, out)
}

/// Median wall-clock of `f`, in nanoseconds, over one call per input.
fn time_each<I, T>(inputs: Vec<I>, mut f: impl FnMut(I) -> T) -> f64 {
    let mut ns: Vec<f64> = inputs
        .into_iter()
        .map(|input| timed(|| f(input)).0)
        .collect();
    median(&mut ns)
}

/// Median wall-clock of `f`, in nanoseconds, over `reps` calls.
fn time_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    time_each(vec![(); reps], |()| f())
}

fn clones<T: Clone>(value: &T, count: usize) -> Vec<T> {
    vec![value.clone(); count]
}

/// Mean over the templates of `a - b`.
fn mean_difference(a: &[f64], b: &[f64]) -> f64 {
    mean(&a.iter().zip(b).map(|(a, b)| a - b).collect::<Vec<_>>())
}

/// Geometric mean over the templates of `slow / fast`.
fn speedup(slow: &[f64], fast: &[f64]) -> f64 {
    geomean(
        &slow
            .iter()
            .zip(fast)
            .map(|(s, f)| s / f)
            .collect::<Vec<_>>(),
    )
}

fn engine_error(e: MrqError) -> String {
    e.to_string()
}

fn wire_error(e: ClientError) -> String {
    e.to_string()
}

/// Two ends of one loopback connection, both held by this thread, Nagle
/// off: the socket floor without a thread hand-off.
fn loopback_pair() -> Result<(TcpStream, TcpStream), String> {
    let io = |e: std::io::Error| format!("loopback pair: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let near = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
    let (far, _) = listener.accept().map_err(io)?;
    near.set_nodelay(true).map_err(io)?;
    far.set_nodelay(true).map_err(io)?;
    Ok((near, far))
}

/// Writes `payload` as one frame into `from` and reads it out of `to`.
fn transfer(from: &mut TcpStream, to: &mut TcpStream, payload: &[u8]) -> Result<Vec<u8>, String> {
    write_frame(from, payload).map_err(|e| format!("write_frame: {e}"))?;
    read_frame(to)
        .map_err(|e| format!("read_frame: {e}"))?
        .ok_or_else(|| "read_frame: peer closed".to_string())
}

fn query_request(expr: &Expr) -> Request {
    Request::Query {
        id: 1,
        streamed: false,
        strategy: Strategy::CompiledNative,
        options: QueryOptions::new(),
        expr: expr.clone(),
    }
}

/// One statement of the probes: a template of [`Template::SIX`] with seeded
/// literals, its plan as the provider compiles it, and the oracle's answer.
struct Statement {
    template: Template,
    expr: Expr,
    canonical: CanonicalQuery,
    spec: QuerySpec,
    oracle: Digest,
}

/// What the probes share: the data, a provider over it, the statements, and
/// the results so far.
struct Lab {
    native: NativeData,
    managed: ManagedData,
    catalog: HashMap<SourceId, Schema>,
    provider: OwnedProvider,
    calendar: Calendar,
    rng: Rng,
    statements: Vec<Statement>,
    scan: Expr,
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Lab {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    fn put_us(&mut self, name: &str, ns: f64) {
        self.put(name, ns / 1e3, "us");
    }

    fn put_ms(&mut self, name: impl Into<String>, ns: f64) {
        self.put(name, ns / 1e6, "ms");
    }

    fn verify(&mut self, got: Digest, want: Digest) {
        self.attempted += 1;
        self.failed += u64::from(got != want);
    }

    /// tpch, mheap: generates and loads the data, draws the statements and
    /// has the oracle answer them.
    fn load(seed: u64) -> Result<Lab, String> {
        let (generate_ns, data) = timed(|| env::generate(SF));
        let (rowstore_ns, native) = timed(|| NativeData::load_all(&data));
        let (heap_ns, managed) = timed(|| ManagedData::load(&data));
        let calendar = Calendar::of(&data);
        let mut rng = Rng::new(seed);
        let catalog = native.catalog();
        let managed_catalog = managed.catalog();
        let config = OptimizerConfig::default();
        let mut statements = Vec::new();
        for template in Template::SIX {
            let expr = script::instantiate(template, 0, 1, &calendar, &mut rng).expr;
            let canonical = canonicalize(optimize(expr.clone(), config).expr);
            let spec = lower(&canonical, &catalog).map_err(engine_error)?;
            let oracle = check::oracle(&expr, &managed_catalog, |spec, params| {
                let tables = managed.tables(spec);
                mrq_engine_linq::execute(spec, params, &tables.iter().collect::<Vec<_>>())
            })?;
            statements.push(Statement {
                template,
                expr,
                canonical,
                spec,
                oracle,
            });
        }
        let scan = script::instantiate(Template::Scan, 0, 1, &calendar, &mut rng).expr;
        let mut lab = Lab {
            provider: native.provider().into_shared(),
            native,
            managed,
            catalog,
            calendar,
            rng,
            statements,
            scan,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        lab.put("tpch.generate_s", generate_ns / 1e9, "s");
        lab.put("tpch.load_rowstore_s", rowstore_ns / 1e9, "s");
        lab.put("mheap.load_s", heap_ns / 1e9, "s");
        let heap = lab.managed.heap.stats();
        let user_bytes = lab.native.payload_bytes() as f64;
        lab.put(
            "mheap.bytes_per_user_byte",
            heap.bytes_allocated as f64 / user_bytes,
            "ratio",
        );
        let collections = heap.minor_collections + heap.full_collections;
        lab.put("mheap.collections", collections as f64, "count");
        Ok(lab)
    }

    /// expr, codegen, core: the steps of `Provider::compile`, one by one and
    /// together, and the plan cache behind `prepare`.
    fn compile_path(&mut self) -> Result<(), String> {
        let config = OptimizerConfig::default();
        let mut ns: [Vec<f64>; 6] = Default::default();
        for s in &self.statements {
            ns[0].push(time_each(clones(&s.expr, MICRO_REPS), |e| {
                optimize(e, config)
            }));
            let optimized = optimize(s.expr.clone(), config).expr;
            ns[1].push(time_each(clones(&optimized, MICRO_REPS), canonicalize));
            ns[2].push(time_reps(MICRO_REPS, || lower(&s.canonical, &self.catalog)));
            ns[3].push(time_reps(MICRO_REPS, || {
                // Both backends, as `compile` emits them.
                (
                    emit_source(&s.spec, Backend::CSharp),
                    emit_source(&s.spec, Backend::C),
                )
            }));
            ns[4].push(time_each(clones(&s.expr, MICRO_REPS), |e| {
                self.provider.clear_compiled();
                self.provider.compile(e)
            }));
            ns[5].push(time_each(clones(&s.expr, MICRO_REPS), |e| {
                self.provider.compile(e)
            }));
        }
        let names = [
            "expr.optimize_us",
            "expr.canonicalize_us",
            "codegen.lower_us",
            "codegen.emit_us",
            "core.compile_cold_us",
            "core.compile_hit_us",
        ];
        for (name, ns) in names.iter().zip(&ns) {
            self.put_us(name, mean(ns));
        }

        // Prepare each shape once, then four more times with fresh literals.
        for s in &self.statements {
            self.provider
                .prepare(s.expr.clone(), Strategy::CompiledNative)
                .map_err(engine_error)?;
        }
        let before = self.provider.plan_cache_stats();
        for _ in 0..4 {
            for template in Template::SIX {
                let fresh = script::instantiate(template, 0, 1, &self.calendar, &mut self.rng);
                self.provider
                    .prepare(fresh.expr, Strategy::CompiledNative)
                    .map_err(engine_error)?;
            }
        }
        let after = self.provider.plan_cache_stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        self.put(
            "core.plan_cache_hit_rate",
            hits as f64 / (hits + misses) as f64,
            "ratio",
        );
        Ok(())
    }

    /// engine-*, common.morsel, core: every engine's `execute` on every
    /// statement, checked against the oracle, and what the provider adds
    /// around the native one. Returns the in-process `submit().join()` time
    /// per statement, which the wire probe compares with.
    fn engines(&mut self) -> Result<Vec<f64>, String> {
        let par2 = ParallelConfig::with_threads(2);
        let hybrid = HybridConfig::default();
        // native, native par2, csharp, hybrid, linq
        let mut engine_ns: [Vec<f64>; 5] = Default::default();
        let (mut execute_ns, mut submit_ns) = (Vec::new(), Vec::new());
        let mut work = WorkStats::default();
        let mut result_rows = 0usize;
        let mut phase_time = [Duration::ZERO; 3]; // staging, native, return
        let (mut staged_bytes, mut staged_rows) = (0, 0);
        let mut results = Vec::new();
        for s in &self.statements {
            let (spec, params) = (&s.spec, s.canonical.params.as_slice());
            let stores = self.native.tables(spec);
            let heap_tables = self.managed.tables(spec);
            let objects: Vec<_> = heap_tables.iter().collect();

            // The three native paths are timed in turn, each starting the
            // turn equally often, so that a change in the machine's speed —
            // and the cold cache a call on another thread leaves behind —
            // falls on all of them alike and their differences mean
            // something.
            let (mut direct, mut executed, mut submitted) = (Vec::new(), Vec::new(), Vec::new());
            for turn in 0..3 * NATIVE_REPS {
                let (expr, options) = (s.expr.clone(), QueryOptions::new());
                match (turn + turn / 3) % 3 {
                    0 => direct.push(timed(|| mrq_engine_native::execute(spec, params, &stores)).0),
                    1 => executed
                        .push(timed(|| self.provider.execute(expr, Strategy::CompiledNative)).0),
                    _ => submitted.push(
                        timed(|| {
                            self.provider
                                .submit(expr, Strategy::CompiledNative, options)
                                .join()
                        })
                        .0,
                    ),
                }
            }
            engine_ns[0].push(median(&mut direct));
            execute_ns.push(median(&mut executed));
            submit_ns.push(median(&mut submitted));
            let out = mrq_engine_native::execute(spec, params, &stores).map_err(engine_error)?;
            work.add(out.work_stats());
            result_rows += out.rows.len();
            results.push((digest(&out.rows), s.oracle));

            engine_ns[1].push(time_reps(ENGINE_REPS, || {
                mrq_engine_native::execute_parallel(spec, params, &stores, &[], par2)
            }));
            let out = mrq_engine_native::execute_parallel(spec, params, &stores, &[], par2)
                .map_err(engine_error)?;
            results.push((digest(&out.rows), s.oracle));

            engine_ns[2].push(time_reps(ENGINE_REPS, || {
                mrq_engine_csharp::execute(spec, params, &objects)
            }));
            let out = mrq_engine_csharp::execute(spec, params, &objects).map_err(engine_error)?;
            results.push((digest(&out.rows), s.oracle));

            engine_ns[3].push(time_reps(ENGINE_REPS, || {
                mrq_engine_hybrid::execute(spec, params, &objects, hybrid)
            }));
            let run =
                mrq_engine_hybrid::execute(spec, params, &objects, hybrid).map_err(engine_error)?;
            results.push((digest(&run.output.rows), s.oracle));
            let phase = |name: &str| run.breakdown.get(name).unwrap_or_default();
            phase_time[0] += phase(phases::STAGING);
            phase_time[1] += phase(phases::AGGREGATION)
                + phase(phases::SORT)
                + phase(phases::BUILD_HASH)
                + phase(phases::PROBE_RETURN);
            phase_time[2] += phase(phases::RETURN_RESULT);
            staged_bytes += run.staged_bytes;
            staged_rows += run.staged_rows;

            engine_ns[4].push(time_reps(LINQ_REPS, || {
                mrq_engine_linq::execute(spec, params, &objects)
            }));
            let out = mrq_engine_linq::execute(spec, params, &objects).map_err(engine_error)?;
            results.push((digest(&out.rows), s.oracle));
        }
        for (got, want) in results {
            self.verify(got, want);
        }

        let engines = [
            ("engine-native", ""),
            ("engine-native", "par2_"),
            ("engine-csharp", ""),
            ("engine-hybrid", ""),
            ("engine-linq", ""),
        ];
        for ((engine, par), times) in engines.iter().zip(&engine_ns) {
            for (template, ns) in Template::SIX.iter().zip(times) {
                self.put_ms(format!("{engine}.{par}{}_ms", template.name()), *ns);
            }
        }
        self.put(
            "common.morsel.par2_speedup",
            speedup(&engine_ns[0], &engine_ns[1]),
            "ratio",
        );
        for e in [0, 2, 3] {
            let name = format!("{}.speedup_vs_linq", engines[e].0);
            self.put(name, speedup(&engine_ns[4], &engine_ns[e]), "ratio");
        }
        self.put_us(
            "core.execute_overhead_us",
            mean_difference(&execute_ns, &engine_ns[0]),
        );
        self.put_us(
            "core.submit_overhead_us",
            mean_difference(&submit_ns, &execute_ns),
        );
        let phase_names = ["staging_ms", "native_ms", "return_ms"];
        for (name, time) in phase_names.iter().zip(phase_time) {
            self.put_ms(format!("engine-hybrid.{name}"), time.as_nanos() as f64);
        }
        self.put("engine-hybrid.staged_bytes", staged_bytes as f64, "bytes");
        self.put("engine-hybrid.staged_rows", staged_rows as f64, "count");
        self.put(
            "codegen.exec.rows_scanned",
            work.rows_scanned as f64,
            "count",
        );
        self.put(
            "codegen.exec.build_inserts",
            work.build_inserts as f64,
            "count",
        );
        self.put(
            "codegen.exec.probe_lookups",
            work.probe_lookups as f64,
            "count",
        );
        self.put(
            "codegen.exec.rows_materialized",
            work.rows_materialized as f64,
            "count",
        );
        let per_result_row = work.rows_scanned as f64 / result_rows as f64;
        self.put(
            "codegen.exec.rows_scanned_per_result_row",
            per_result_row,
            "ratio",
        );
        Ok(submit_ns)
    }

    /// protocol: request frames of the statements, and row batches of the
    /// scan's result.
    fn codecs(&mut self, scan_rows: &[Vec<Value>]) {
        let (mut encode_ns, mut decode_ns) = (Vec::new(), Vec::new());
        let mut request_bytes = 0;
        for s in &self.statements {
            let request = query_request(&s.expr);
            let bytes = request.encode();
            request_bytes += bytes.len();
            encode_ns.push(time_reps(MICRO_REPS, || request.encode()));
            decode_ns.push(time_reps(MICRO_REPS, || Request::decode(&bytes)));
        }
        self.put_us("protocol.request_encode_us", mean(&encode_ns));
        self.put_us("protocol.request_decode_us", mean(&decode_ns));
        self.put("protocol.request_bytes", request_bytes as f64, "bytes");

        let batches: Vec<Response> = scan_rows
            .chunks_exact(CODEC_BATCH)
            .map(|rows| Response::Batch {
                id: 1,
                rows: rows.to_vec(),
            })
            .collect();
        let payloads: Vec<Vec<u8>> = batches.iter().map(Response::encode).collect();
        let encode_ns = time_each(batches.iter().collect(), Response::encode);
        let decode_ns = time_each(payloads.iter().collect(), |p: &Vec<u8>| Response::decode(p));
        let bytes: usize = payloads.iter().map(Vec::len).sum();
        let rows = (CODEC_BATCH * payloads.len()) as f64;
        self.put(
            "protocol.rows_encode_ns_per_row",
            encode_ns / CODEC_BATCH as f64,
            "ns",
        );
        self.put(
            "protocol.rows_decode_ns_per_row",
            decode_ns / CODEC_BATCH as f64,
            "ns",
        );
        self.put("protocol.bytes_per_row", bytes as f64 / rows, "bytes");
    }

    /// protocol: the socket floor, then the layer walk of every statement
    /// with a small result. Returns the walk's total time per statement.
    fn walk(&mut self, walker: &mut Tracer) -> Result<Vec<f64>, String> {
        let (mut near, mut far) = loopback_pair()?;
        let ping = [0u8; 64];
        let mut there_and_back = Vec::new();
        for _ in 0..5 * MICRO_REPS {
            let (ns, echoed) = timed(|| {
                transfer(&mut near, &mut far, &ping)
                    .and_then(|payload| transfer(&mut far, &mut near, &payload))
            });
            echoed?;
            there_and_back.push(ns);
        }
        self.put_us("protocol.frame_rtt_us", median(&mut there_and_back));

        let mut walk_ns = Vec::new();
        let mut results = Vec::new();
        for s in self.small() {
            let stores = self.native.tables(&s.spec);
            let mut totals = Vec::new();
            for _ in 0..ENGINE_REPS {
                walker.begin_op();
                let (ns, rows) = timed(|| {
                    walker.span("walk", |t| -> Result<Vec<Vec<Value>>, String> {
                        let request = query_request(&s.expr);
                        let bytes = t.span("Request::encode", |_| request.encode());
                        let bytes = t.span("write_frame+read_frame", |_| {
                            transfer(&mut near, &mut far, &bytes)
                        })?;
                        let request = t
                            .span("Request::decode", |_| Request::decode(&bytes))
                            .map_err(|e| e.to_string())?;
                        let Request::Query { id, expr, .. } = request else {
                            return Err("walk: the request decoded to another verb".into());
                        };
                        let optimized = t.span("mrq_expr::optimize", |_| {
                            optimize(expr, OptimizerConfig::default())
                        });
                        let canonical =
                            t.span("mrq_expr::canonicalize", |_| canonicalize(optimized.expr));
                        let spec = t
                            .span("codegen::spec::lower", |_| lower(&canonical, &self.catalog))
                            .map_err(engine_error)?;
                        let output = t
                            .span("mrq_engine_native::execute", |_| {
                                mrq_engine_native::execute(&spec, &canonical.params, &stores)
                            })
                            .map_err(engine_error)?;
                        let response = Response::Rows {
                            id,
                            schema: output.schema,
                            rows: output.rows,
                        };
                        let bytes = t.span("Response::encode", |_| response.encode());
                        let bytes = t.span("write_frame+read_frame", |_| {
                            transfer(&mut far, &mut near, &bytes)
                        })?;
                        match t.span("Response::decode", |_| Response::decode(&bytes)) {
                            Ok(Response::Rows { rows, .. }) => Ok(rows),
                            Ok(_) => Err("walk: the response decoded to another verb".into()),
                            Err(e) => Err(e.to_string()),
                        }
                    })
                });
                totals.push(ns);
                results.push((digest(&rows?), s.oracle));
            }
            walk_ns.push(median(&mut totals));
        }
        for (got, want) in results {
            self.verify(got, want);
        }
        Ok(walk_ns)
    }

    /// The statements with small results: what `serve_unary` sends.
    fn small(&self) -> impl Iterator<Item = &Statement> {
        self.statements
            .iter()
            .filter(|s| s.template != Template::Join)
    }

    /// client, protocol, core: round trips to a real server, compared with
    /// the in-process `submit().join()` (`submit_ns`, per statement) and the
    /// layer walk (`walk_ns`, per small statement); then the scan streamed
    /// in-process and over the wire. Returns the provider's shed count.
    fn wire(
        &mut self,
        submit_ns: &[f64],
        walk_ns: &[f64],
        scan_digest: Digest,
    ) -> Result<u64, String> {
        let mut server = Server::start(self.provider.clone(), "127.0.0.1:0")
            .map_err(|e| format!("server: {e}"))?;
        let addr = server.local_addr();
        let mut connect_ns = Vec::new();
        for _ in 0..2 * ENGINE_REPS {
            let (ns, client) = timed(|| Client::connect(addr));
            client.map_err(wire_error)?;
            connect_ns.push(ns);
        }
        self.put_us("client.connect_us", median(&mut connect_ns));

        let mut client = Client::connect(addr).map_err(wire_error)?;
        let (mut adhoc_ns, mut prepared_ns, mut prepare_ns) = (Vec::new(), Vec::new(), Vec::new());
        let mut results = Vec::new();
        for s in self.small() {
            let statement = client
                .prepare(s.expr.clone(), Strategy::CompiledNative)
                .map_err(wire_error)?;
            let (mut adhoc, mut prepared, mut prepare) = (Vec::new(), Vec::new(), Vec::new());
            // In turn, like the in-process calls of `engines`.
            for _ in 0..WIRE_REPS {
                let (expr, options) = (s.expr.clone(), QueryOptions::new());
                let (ns, result) = timed(|| client.query(expr, Strategy::CompiledNative, options));
                adhoc.push(ns);
                results.push((digest(&result.map_err(wire_error)?.rows), s.oracle));
                // Empty bindings: the literals captured at prepare time.
                let (ns, result) = timed(|| client.execute(statement, &[], options));
                prepared.push(ns);
                results.push((digest(&result.map_err(wire_error)?.rows), s.oracle));
                let expr = s.expr.clone();
                let (ns, again) = timed(|| client.prepare(expr, Strategy::CompiledNative));
                prepare.push(ns);
                again.map_err(wire_error)?;
            }
            adhoc_ns.push(median(&mut adhoc));
            prepared_ns.push(median(&mut prepared));
            prepare_ns.push(median(&mut prepare));
        }
        let small_submit_ns: Vec<f64> = self
            .statements
            .iter()
            .zip(submit_ns)
            .filter(|(s, _)| s.template != Template::Join)
            .map(|(_, ns)| *ns)
            .collect();
        self.put_us("client.prepare_us", mean(&prepare_ns));
        self.put_us(
            "client.adhoc_minus_prepared_us",
            mean_difference(&adhoc_ns, &prepared_ns),
        );
        self.put_ms(
            "protocol.wire_overhead_ms",
            mean_difference(&adhoc_ns, &small_submit_ns),
        );
        self.put_ms(
            "bench.walk_unattributed_ms",
            mean_difference(&adhoc_ns, walk_ns),
        );

        let (mut first_ns, mut drain_ns, mut wire_ns) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..ENGINE_REPS {
            let (expr, options) = (self.scan.clone(), QueryOptions::new());
            let start = Instant::now();
            let mut rows = Digester::default();
            for batch in self
                .provider
                .submit_stream(expr, Strategy::CompiledNative, options)
            {
                let batch = batch.map_err(engine_error)?;
                if rows.finish().rows == 0 {
                    first_ns.push(start.elapsed().as_nanos() as f64);
                }
                rows.push(&batch);
            }
            drain_ns.push(start.elapsed().as_nanos() as f64);
            results.push((rows.finish(), scan_digest));
        }
        // Over the wire on one connection: paced like `serve_stream`, then
        // back to back, where the tail of a stream can wait for a delayed ACK.
        let mut streamed = |pace: Duration| -> Result<(f64, Digest), String> {
            std::thread::sleep(pace);
            let (expr, options) = (self.scan.clone(), QueryOptions::new());
            let start = Instant::now();
            // Kept until the clock has stopped, like a `serve_stream` op.
            let batches = client
                .query_stream(expr, Strategy::CompiledNative, options)
                .map_err(wire_error)?
                .collect::<Result<Vec<_>, _>>()
                .map_err(wire_error)?;
            let ns = start.elapsed().as_nanos() as f64;
            let mut rows = Digester::default();
            for batch in &batches {
                rows.push(batch);
            }
            Ok((ns, rows.finish()))
        };
        for _ in 0..WIRE_REPS {
            let (ns, rows) = streamed(STREAM_PACE)?;
            wire_ns.push(ns);
            results.push((rows, scan_digest));
        }
        let paced_ns = median(&mut wire_ns);
        let mut stalled = 0;
        for _ in 0..BACK_TO_BACK {
            let (ns, rows) = streamed(Duration::ZERO)?;
            stalled += u32::from(ns > paced_ns + DELAYED_ACK_NS);
            results.push((rows, scan_digest));
        }
        for (got, want) in results {
            self.verify(got, want);
        }
        let rows_per_s = |ns: f64| scan_digest.rows as f64 / (ns / 1e9);
        let (drained, wired) = (rows_per_s(median(&mut drain_ns)), rows_per_s(paced_ns));
        self.put_us("core.stream_first_batch_us", median(&mut first_ns));
        self.put("core.stream_drain_rows_per_s", drained, "1/s");
        self.put("protocol.stream_wire_ratio", wired / drained, "ratio");
        self.put(
            "protocol.stream_stall_share",
            f64::from(stalled) / BACK_TO_BACK as f64,
            "ratio",
        );

        drop(client);
        server.shutdown();
        Ok(self.provider.admission_stats().shed)
    }
}

/// Runs every probe. `walker` records the layer walks.
pub fn probe(seed: u64, walker: &mut Tracer) -> Result<Probes, String> {
    let mut lab = Lab::load(seed)?;
    lab.compile_path()?;
    let submit_ns = lab.engines()?;
    let scan_rows = lab
        .provider
        .execute(lab.scan.clone(), Strategy::CompiledNative)
        .map_err(engine_error)?
        .rows;
    let scan_digest = check::oracle(&lab.scan, &lab.catalog, |spec, params| {
        mrq_engine_linq::execute(spec, params, &lab.native.tables(spec))
    })?;
    lab.verify(digest(&scan_rows), scan_digest);
    lab.codecs(&scan_rows);
    let walk_ns = lab.walk(walker)?;
    let shed = lab.wire(&submit_ns, &walk_ns, scan_digest)?;
    Ok(Probes {
        metrics: lab.metrics,
        attempted: lab.attempted,
        failed: lab.failed,
        shed,
    })
}
