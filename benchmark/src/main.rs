//! The MRQ benchmark: one workload per invocation.
//!
//! ```text
//! mrq-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run sets the workload up (three times over, to
//! report the median), measures passes over its script for `S` seconds with
//! tracing off, and prints the end-to-end metrics. With `--trace 1` it runs
//! the layer probes and the layer walk, replays passes with a span around
//! every public call, writes `benchmark/out/trace-NAME.json`, and prints
//! the per-layer metrics. Either way the last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`. The exit
//! code is 0 only if every op returned the oracle's rows.

mod check;
mod env;
mod layers;
mod run;
mod script;
mod stats;
mod trace;
mod workloads;

use run::Measured;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::Ready;

/// How often an untraced run sets its workload up; `setup_s` is the median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(bad("between 0 and 120 seconds"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload NAME")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`: expected one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything before the first timed op: set-up, then one checked warm-up
/// pass so that plans are compiled and caches hold what they will hold.
fn prepare(args: &Args) -> Result<Ready, String> {
    let mut ready = workloads::setup(&args.workload, args.seed)?;
    let mut off = untraced(&ready);
    let warm_up = run::measure(&mut ready, &mut off, Duration::ZERO);
    if warm_up.failed() > 0 {
        return Err(format!(
            "{} of {} warm-up ops failed",
            warm_up.failed(),
            warm_up.attempted()
        ));
    }
    Ok(ready)
}

fn untraced(ready: &Ready) -> Vec<Tracer> {
    ready.callers.iter().map(|_| Tracer::off()).collect()
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Host facts for the log and the trace file — never part of the metrics.
fn host() -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!("nproc={cpus} kernel={}", kernel.trim())
}

/// A metric as the driver reads it.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.value,
            m.unit
        );
    }
    line.push_str("}}");
    line
}

fn end_to_end(args: &Args) -> Result<(u64, u64, Vec<Metric>), String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut setups = Vec::new();
    let mut ready = loop {
        let start = Instant::now();
        let ready = prepare(args)?;
        setups.push(start.elapsed().as_secs_f64());
        if setups.len() == SETUPS {
            break ready;
        }
        ready.teardown();
    };
    let mut off = untraced(&ready);
    let measured = run::measure(&mut ready, &mut off, budget);
    let shed = ready.shed();
    ready.teardown();
    eprintln!(
        "{}: {} ops, {} latency samples, {shed} shed, set-ups {setups:.3?} s",
        args.workload,
        measured.attempted(),
        measured.samples(),
    );
    let metrics = vec![
        Metric::new("setup_s", stats::median(&mut setups), "s"),
        Metric::new("ops_per_s", measured.ops_per_s(), "1/s"),
        Metric::new("latency_p50_ms", measured.latency_p50_ms(), "ms"),
        Metric::new("latency_p95_ms", measured.latency_p95_ms(), "ms"),
        Metric::new("ttfr_p50_ms", measured.first_rows_p50_ms(), "ms"),
        Metric::new("rows_per_s", measured.rows_per_s(), "1/s"),
        Metric::new("ok_share", measured.ok_share(), "ratio"),
        Metric::new("peak_rss_mb", peak_rss_mb()?, "MB"),
    ];
    Ok((measured.attempted(), measured.failed(), metrics))
}

fn per_layer(args: &Args) -> Result<(u64, u64, Vec<Metric>), String> {
    let budget = Duration::from_secs_f64(args.seconds);
    let epoch = Instant::now();
    // The probes run first, in a process that has done nothing else, so
    // that they start from the same state whichever workload is replayed.
    let mut walker = Tracer::on(epoch, 0);
    let mut probes = layers::probe(args.seed, &mut walker)?;

    // Then the workload, an untraced and a traced pass in turn for half the
    // budget, so that both see the same machine state.
    let mut ready = prepare(args)?;
    let mut tracers: Vec<Tracer> = (0..ready.callers.len())
        .map(|thread| Tracer::on(epoch, thread as u64 + 1))
        .collect();
    let mut off = untraced(&ready);
    let (mut plain, mut traced) = (Measured::default(), Measured::default());
    let start = Instant::now();
    while start.elapsed() < budget / 2 {
        plain.merge(run::measure(&mut ready, &mut off, Duration::ZERO));
        traced.merge(run::measure(&mut ready, &mut tracers, Duration::ZERO));
    }
    let shed = ready.shed();
    ready.teardown();
    probes.metrics.push(Metric::new(
        "bench.trace_overhead_share",
        traced.ops_per_s() / plain.ops_per_s() - 1.0,
        "ratio",
    ));
    probes.metrics.push(Metric::new(
        "core.shed_count",
        (shed + probes.shed) as f64,
        "count",
    ));

    let mut spans = walker.into_spans();
    for tracer in tracers {
        spans.extend(tracer.into_spans());
    }
    let path = format!("benchmark/out/trace-{}.json", args.workload);
    std::fs::create_dir_all("benchmark/out")
        .and_then(|()| {
            std::fs::write(
                &path,
                trace::render(&args.workload, args.seed, &host(), &spans),
            )
        })
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!(
        "{}: {} traced and {} untraced ops, {} spans in {path}",
        args.workload,
        traced.attempted(),
        plain.attempted(),
        spans.len()
    );
    Ok((
        plain.attempted() + traced.attempted() + probes.attempted,
        plain.failed() + traced.failed() + probes.failed,
        probes.metrics,
    ))
}

fn main() {
    let outcome = parse_args().and_then(|args| {
        eprintln!(
            "mrq-benchmark {} seed={} seconds={} trace={} {}",
            args.workload,
            args.seed,
            args.seconds,
            args.trace as u8,
            host()
        );
        if args.trace {
            per_layer(&args)
        } else {
            end_to_end(&args)
        }
    });
    match outcome {
        Ok((attempted, failed, metrics)) => {
            if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
                // NaN is not JSON; better no result than one that cannot be read.
                eprintln!("mrq-benchmark: {} is {}", m.name, m.value);
                std::process::exit(2);
            }
            println!("{}", result_line(attempted, failed, &metrics));
            if failed > 0 {
                std::process::exit(1);
            }
        }
        Err(reason) => {
            eprintln!("mrq-benchmark: {reason}");
            std::process::exit(2);
        }
    }
}
