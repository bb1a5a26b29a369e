//! The four workloads: what each sets up before the first timed op, and how
//! one of its clients performs one op through the program's public API.

use crate::check::{self, Digest};
use crate::env::{self, ManagedData, NativeData};
use crate::script::{self, Calendar, Op, Script, Template};
use crate::trace::Tracer;
use mrq_client::{Client, Statement};
use mrq_common::{ParallelConfig, Value};
use mrq_core::{OwnedProvider, QueryOptions, Strategy};
use mrq_engine_hybrid::HybridConfig;
use mrq_expr::{canonicalize, optimize, Expr, OptimizerConfig};
use mrq_protocol::Server;
use std::time::{Duration, Instant};

/// Names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "embedded_native",
    "embedded_managed",
    "serve_unary",
    "serve_stream",
];

/// Scale factor of the embedded workloads.
const EMBEDDED_SF: f64 = 0.02;
/// Scale factor of the served workloads.
const SERVED_SF: f64 = 0.01;
/// Client connections of `serve_unary`: `nproc` of the reference host, and
/// a closed loop — each waits for its reply before its next op.
const UNARY_CONNECTIONS: usize = 2;
/// `serve_stream` has one connection, and its client pauses before each op
/// for longer than the kernel's 40 ms delayed-ACK timeout. Streams issued
/// back to back are bistable on the seed commit, with one connection or
/// two: a client that sends its next request within that timeout of the
/// last reply puts its socket in interactive mode, and the tail of a stream
/// then waits 40 ms for an ACK (the server's sockets keep Nagle's algorithm
/// on) — on four ops in ten or nine in ten, depending on how fast the
/// machine happens to run (20 to 45 ops/s at one seed). No statistic of that
/// can be compared between runs. A client that pauses never sees the stall,
/// which leaves this workload measuring what it is for: bytes through the
/// row codec, the stream channel and the socket. The stall is not hidden:
/// every `serve_unary` op pays it, and `protocol.stream_stall_share` counts
/// it on back-to-back streams.
const STREAM_CONNECTIONS: usize = 1;
/// The pause of the `serve_stream` client before each op.
pub const STREAM_PACE: Duration = Duration::from_millis(50);

/// Statements per template in one pass, each with other literals and each
/// run once per variant.
const PER_TEMPLATE: usize = 3;
/// The small-result templates (≤ 100 rows) of `serve_unary`: all but the
/// join.
const SMALL: [Template; 5] = [
    Template::Q1,
    Template::Q6,
    Template::Q3,
    Template::SortTopN,
    Template::Agg,
];
/// Bulk scans `serve_stream` drains in one pass.
const SCANS: usize = 16;

/// The rows an op delivered, and when the first of them arrived.
pub struct Reply {
    /// Result rows in delivery order, one entry per batch (one in all for a
    /// unary op).
    pub batches: Vec<Vec<Vec<Value>>>,
    /// When the first batch was in the caller's hands; `None` for a unary
    /// op, whose first rows arrive with its last.
    pub first_rows: Option<Instant>,
}

impl Reply {
    fn unary(rows: Vec<Vec<Value>>) -> Reply {
        Reply {
            batches: vec![rows],
            first_rows: None,
        }
    }
}

/// One client of a workload: performs ops one at a time, each to its last
/// row, through the program's public API.
pub trait Caller: Send {
    /// Performs `op` on the statement `expr` (already cloned for this call).
    fn call(&mut self, op: Op, expr: Expr, tracer: &mut Tracer) -> Result<Reply, String>;
}

/// A workload ready for its first timed op.
pub struct Ready {
    /// One pass of ops.
    pub script: Script,
    /// The oracle's digest of each statement of the script.
    pub expected: Vec<Digest>,
    /// The clients; op `i` of a pass goes to client `i % callers.len()`.
    pub callers: Vec<Box<dyn Caller>>,
    /// How long a client pauses before each op, outside the op's clock.
    pub pace: Duration,
    /// The provider behind the callers (for admission statistics).
    pub provider: OwnedProvider,
    server: Option<Server>,
}

impl Ready {
    /// Submissions the admission gate shed so far (expected: none).
    pub fn shed(&self) -> u64 {
        self.provider.admission_stats().shed
    }

    /// Disconnects the clients and stops the server, waiting for its
    /// threads.
    pub fn teardown(mut self) {
        self.callers.clear();
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// In-process caller of both embedded workloads: `Provider::execute` with
/// the op's strategy.
struct Embedded {
    provider: OwnedProvider,
    strategies: Vec<Strategy>,
}

impl Caller for Embedded {
    fn call(&mut self, op: Op, expr: Expr, tracer: &mut Tracer) -> Result<Reply, String> {
        let strategy = self.strategies[op.variant];
        tracer
            .span("Provider::execute", |_| {
                self.provider.execute(expr, strategy)
            })
            .map(|output| Reply::unary(output.rows))
            .map_err(|e| e.to_string())
    }
}

/// `serve_unary`: variant 0 is an ad-hoc `Client::query`, variant 1 a
/// `Client::execute` of the template's statement, prepared once on this
/// connection, with the op's literals as bindings.
struct Unary {
    client: Client,
    /// Per statement of the script: its template's prepared handle on this
    /// connection, and its literals in slot order.
    prepared: Vec<(Statement, Vec<Value>)>,
}

impl Caller for Unary {
    fn call(&mut self, op: Op, expr: Expr, tracer: &mut Tracer) -> Result<Reply, String> {
        let result = if op.variant == 0 {
            tracer.span("Client::query", |_| {
                self.client
                    .query(expr, Strategy::CompiledNative, QueryOptions::new())
            })
        } else {
            let (statement, bindings) = &self.prepared[op.query];
            tracer.span("Client::execute", |_| {
                self.client
                    .execute(*statement, bindings, QueryOptions::new())
            })
        };
        result
            .map(|r| Reply::unary(r.rows))
            .map_err(|e| e.to_string())
    }
}

/// `serve_stream`: `Client::query_stream` drained to its end.
struct Streamed {
    client: Client,
}

impl Caller for Streamed {
    fn call(&mut self, _op: Op, expr: Expr, tracer: &mut Tracer) -> Result<Reply, String> {
        let mut stream = tracer
            .span("Client::query_stream", |_| {
                self.client
                    .query_stream(expr, Strategy::CompiledNative, QueryOptions::new())
            })
            .map_err(|e| e.to_string())?;
        let mut reply = Reply {
            batches: Vec::new(),
            first_rows: None,
        };
        while let Some(batch) = tracer
            .span("ClientStream::next_batch", |_| stream.next_batch())
            .map_err(|e| e.to_string())?
        {
            reply.first_rows.get_or_insert_with(Instant::now);
            reply.batches.push(batch);
        }
        Ok(reply)
    }
}

/// The literals of `expr` in prepared-statement slot order: what
/// `Provider::prepare` would capture as defaults for this statement.
fn bindings_of(expr: &Expr) -> Vec<Value> {
    canonicalize(optimize(expr.clone(), OptimizerConfig::default()).expr).params
}

/// A ready embedded workload: one in-process caller of `provider`.
fn embedded(
    script: Script,
    expected: Vec<Digest>,
    provider: OwnedProvider,
    strategies: Vec<Strategy>,
) -> Ready {
    Ready {
        script,
        expected,
        callers: vec![Box::new(Embedded {
            provider: provider.clone(),
            strategies,
        })],
        pace: Duration::ZERO,
        provider,
        server: None,
    }
}

/// Sets a workload up: generate, load, oracle, start. Everything here and
/// the warm-up that follows counts as `setup_s`.
pub fn setup(name: &str, seed: u64) -> Result<Ready, String> {
    let served = name.starts_with("serve_");
    let data = env::generate(if served { SERVED_SF } else { EMBEDDED_SF });
    let calendar = Calendar::of(&data);
    if name == "embedded_managed" {
        let managed = ManagedData::load(&data);
        let strategies = vec![
            Strategy::CompiledCSharp,
            Strategy::Hybrid(HybridConfig::default()),
            Strategy::Hybrid(HybridConfig::buffered()),
        ];
        let script = script::generate(
            seed,
            &calendar,
            &Template::SIX,
            PER_TEMPLATE,
            strategies.len(),
        );
        let catalog = managed.catalog();
        let expected = script
            .queries
            .iter()
            .map(|q| {
                check::oracle(&q.expr, &catalog, |spec, params| {
                    let tables = managed.tables(spec);
                    mrq_engine_linq::execute(spec, params, &tables.iter().collect::<Vec<_>>())
                })
            })
            .collect::<Result<_, _>>()?;
        let provider = managed.provider().into_shared();
        return Ok(embedded(script, expected, provider, strategies));
    }

    // The other three run over native row stores.
    let native = NativeData::load(&data);
    let script = match name {
        "embedded_native" => script::generate(seed, &calendar, &Template::SIX, PER_TEMPLATE, 2),
        "serve_unary" => script::generate(seed, &calendar, &SMALL, PER_TEMPLATE, 2),
        "serve_stream" => script::generate(seed, &calendar, &[Template::Scan], SCANS, 1),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let catalog = native.catalog();
    let expected = script
        .queries
        .iter()
        .map(|q| {
            check::oracle(&q.expr, &catalog, |spec, params| {
                mrq_engine_linq::execute(spec, params, &native.tables(spec))
            })
        })
        .collect::<Result<_, _>>()?;
    let provider = native.provider().into_shared();
    if !served {
        let strategies = vec![
            Strategy::CompiledNative,
            Strategy::CompiledNativeParallel(ParallelConfig::with_threads(2)),
        ];
        return Ok(embedded(script, expected, provider, strategies));
    }

    let wire = |e: mrq_client::ClientError| e.to_string();
    let server = Server::start(provider.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let unary = name == "serve_unary";
    let mut callers: Vec<Box<dyn Caller>> = Vec::new();
    let connections = if unary {
        UNARY_CONNECTIONS
    } else {
        STREAM_CONNECTIONS
    };
    for _ in 0..connections {
        let mut client = Client::connect(server.local_addr()).map_err(wire)?;
        if !unary {
            callers.push(Box::new(Streamed { client }));
            continue;
        }
        // One statement per template, prepared on this connection.
        let mut statements: Vec<(Template, Statement)> = Vec::new();
        let mut prepared = Vec::new();
        for query in &script.queries {
            let known = statements.iter().find(|(t, _)| *t == query.template);
            let statement = match known {
                Some((_, statement)) => *statement,
                None => {
                    let statement = client
                        .prepare(query.expr.clone(), Strategy::CompiledNative)
                        .map_err(wire)?;
                    statements.push((query.template, statement));
                    statement
                }
            };
            prepared.push((statement, bindings_of(&query.expr)));
        }
        callers.push(Box::new(Unary { client, prepared }));
    }
    Ok(Ready {
        script,
        expected,
        callers,
        pace: if unary { Duration::ZERO } else { STREAM_PACE },
        provider,
        server: Some(server),
    })
}
