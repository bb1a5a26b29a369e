//! Drives the clients of a ready workload and reduces what they did to the
//! end-to-end metrics.
//!
//! A *pass* is one run through a client's share of the script: the same ops
//! every time, so the mix of work is fixed and `--seconds` only decides how
//! many whole passes a client makes. The clients run concurrently, each a
//! closed loop: the next op is issued once the last one's rows have been
//! checked and, in a paced workload, the client has paused. Every metric is
//! computed over every op of every pass; nothing is dropped.

use crate::check::{Digest, Digester};
use crate::script::Script;
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;
use crate::workloads::{Caller, Ready};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One op that completed with the oracle's rows.
struct Sample {
    /// Its place in the script.
    op: usize,
    latency: Duration,
    first_rows: Duration,
    rows: u64,
}

/// What one client did.
#[derive(Default)]
struct Tally {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    /// Sum of the latencies of every op attempted: the client's timed
    /// wall-clock, which leaves out the oracle checks and the pauses between
    /// its ops.
    busy: Duration,
}

/// What every client of a workload works through.
#[derive(Clone, Copy)]
struct Work<'a> {
    script: &'a Script,
    expected: &'a [Digest],
    /// Pause before each op, outside the op's clock.
    pace: Duration,
}

/// One pass of one client: every `stride`-th op starting at `first`.
fn pass(
    work: Work,
    caller: &mut dyn Caller,
    tracer: &mut Tracer,
    first: usize,
    stride: usize,
    tally: &mut Tally,
) {
    let Work {
        script,
        expected,
        pace,
    } = work;
    for (index, op) in script.ops.iter().enumerate().skip(first).step_by(stride) {
        let expr = script.queries[op.query].expr.clone();
        if !pace.is_zero() {
            std::thread::sleep(pace);
        }
        tracer.begin_op();
        let (result, start, end) = tracer.span("op", |t| {
            let start = Instant::now();
            let result = caller.call(*op, expr, t);
            (result, start, Instant::now())
        });
        tally.attempted += 1;
        tally.busy += end - start;
        // The oracle check runs after the op's clock has stopped.
        let checked = tracer.span("check", |_| {
            result.and_then(|reply| {
                let mut digester = Digester::default();
                for batch in &reply.batches {
                    digester.push(batch);
                }
                let got = digester.finish();
                let want = expected[op.query];
                if got == want {
                    Ok((reply.first_rows.unwrap_or(end) - start, got.rows))
                } else {
                    Err(format!(
                        "rows differ from the oracle: {got:?}, expected {want:?}"
                    ))
                }
            })
        });
        match checked {
            Ok((first_rows, rows)) => tally.samples.push(Sample {
                op: index,
                latency: end - start,
                first_rows,
                rows,
            }),
            Err(reason) => {
                tally.failed += 1;
                let template = script.queries[op.query].template.name();
                eprintln!(
                    "op {index} ({template}, variant {}) failed: {reason}",
                    op.variant
                );
            }
        }
    }
}

/// Whether `passes` passes begun at `start` have used up `budget`: another
/// pass is started as long as at least half of it is expected to fit.
fn spent(start: Instant, passes: u32, budget: Duration) -> bool {
    let elapsed = start.elapsed();
    elapsed + elapsed / (2 * passes) >= budget
}

/// What the clients of a workload did, one tally per client.
#[derive(Default)]
pub struct Measured {
    clients: Vec<Tally>,
}

/// Runs every client of `ready` for `budget`: all start together, client
/// `c` of `n` takes ops `c`, `c + n`, … of the script, and each makes whole
/// passes — at least one — until the budget is used up.
pub fn measure(ready: &mut Ready, tracers: &mut [Tracer], budget: Duration) -> Measured {
    let Ready {
        script,
        expected,
        callers,
        pace,
        ..
    } = ready;
    let work = Work {
        script,
        expected,
        pace: *pace,
    };
    let stride = callers.len();
    let start = Instant::now();
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = callers
            .iter_mut()
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(first, (caller, tracer))| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let mut passes = 0;
                    loop {
                        pass(work, &mut **caller, tracer, first, stride, &mut tally);
                        passes += 1;
                        if spent(start, passes, budget) {
                            return tally;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Measured { clients }
}

impl Measured {
    /// Adds what the same clients did in a later `measure`.
    pub fn merge(&mut self, later: Measured) {
        if self.clients.is_empty() {
            self.clients = later.clients;
            return;
        }
        for (mine, theirs) in self.clients.iter_mut().zip(later.clients) {
            mine.samples.extend(theirs.samples);
            mine.attempted += theirs.attempted;
            mine.failed += theirs.failed;
            mine.busy += theirs.busy;
        }
    }

    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum()
    }

    /// Ops that errored, were shed, or returned other rows than the oracle.
    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    /// Share of the attempted ops that completed with the oracle's rows.
    pub fn ok_share(&self) -> f64 {
        self.samples() as f64 / self.attempted() as f64
    }

    /// Successful ops: the sample count behind the latency percentiles.
    pub fn samples(&self) -> usize {
        self.clients.iter().map(|c| c.samples.len()).sum()
    }

    /// Each client's `count` over its successful ops per second of its timed
    /// wall-clock, summed over the clients: they run side by side.
    fn per_second(&self, count: impl Fn(&Sample) -> u64) -> f64 {
        self.clients
            .iter()
            .map(|c| c.samples.iter().map(&count).sum::<u64>() as f64 / c.busy.as_secs_f64())
            .sum()
    }

    /// Ops completed per second of timed wall-clock.
    pub fn ops_per_s(&self) -> f64 {
        self.per_second(|_| 1)
    }

    /// Result rows delivered per second of timed wall-clock.
    pub fn rows_per_s(&self) -> f64 {
        self.per_second(|s| s.rows)
    }

    fn samples_of(&self) -> impl Iterator<Item = &Sample> {
        self.clients.iter().flat_map(|c| &c.samples)
    }

    /// The latency of the script's median op, in ms. An op of the script
    /// runs once in every pass, and its latency is the mean over the passes.
    /// Pooling every execution instead would put the median exactly between
    /// two (template, variant) clusters of latencies — there is an even
    /// number of them, equally weighted — where it jumps from one to the
    /// other whenever the machine's speed shifts a few ops across.
    fn typical_ms(&self, of: impl Fn(&Sample) -> Duration) -> f64 {
        let mut by_op: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for sample in self.samples_of() {
            let ms = of(sample).as_secs_f64() * 1e3;
            by_op.entry(sample.op).or_default().push(ms);
        }
        let mut typical: Vec<f64> = by_op.values().map(|ms| mean(ms)).collect();
        median(&mut typical)
    }

    /// Latency, call to last row, of the script's median op, in ms.
    pub fn latency_p50_ms(&self) -> f64 {
        self.typical_ms(|s| s.latency)
    }

    /// Time to the first result rows of the script's median op, in ms.
    pub fn first_rows_p50_ms(&self) -> f64 {
        self.typical_ms(|s| s.first_rows)
    }

    /// 95th percentile of latency over every execution of every op, in ms:
    /// the tail, wherever it comes from.
    pub fn latency_p95_ms(&self) -> f64 {
        let mut ms: Vec<f64> = self
            .samples_of()
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect();
        quantile(&mut ms, 0.95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client that ran its share of `script_ops` ops (those ≡ `first`
    /// mod 2) in passes until `ops` were done; op `i` of the script took
    /// `ms(i)` every time and delivered two rows; the first `failed` ops
    /// delivered wrong ones.
    fn client(first: usize, ops: u64, failed: u64, ms: impl Fn(usize) -> u64) -> Tally {
        let script_ops = 10;
        let share: Vec<usize> = (first..script_ops).step_by(2).collect();
        let mut tally = Tally {
            attempted: ops,
            failed,
            ..Tally::default()
        };
        for (n, &op) in share.iter().cycle().take(ops as usize).enumerate() {
            let latency = Duration::from_millis(ms(op));
            tally.busy += latency;
            if n as u64 >= failed {
                tally.samples.push(Sample {
                    op,
                    latency,
                    first_rows: latency / 2,
                    rows: 2,
                });
            }
        }
        tally
    }

    #[test]
    fn rates_add_up_over_clients() {
        // 100 ops of 10 ms beside 50 ops of 20 ms: 100/s + 50/s.
        let measured = Measured {
            clients: vec![client(0, 100, 0, |_| 10), client(1, 50, 0, |_| 20)],
        };
        assert_eq!(measured.samples(), 150);
        assert_eq!(measured.ops_per_s(), 150.0);
        assert_eq!(measured.rows_per_s(), 300.0);
        assert_eq!(measured.ok_share(), 1.0);
    }

    #[test]
    fn the_median_is_of_the_script_and_the_tail_of_every_execution() {
        // Ops 0..10 of the script take 10, 20, … 100 ms, twenty times each.
        let ms = |op: usize| 10 * (op as u64 + 1);
        let measured = Measured {
            clients: vec![client(0, 100, 0, ms), client(1, 100, 0, ms)],
        };
        // Between the fifth op and the sixth.
        assert_eq!(measured.latency_p50_ms(), 55.0);
        assert_eq!(measured.first_rows_p50_ms(), 27.5);
        // 200 executions, the slowest twenty at 100 ms.
        assert_eq!(measured.latency_p95_ms(), 100.0);
    }

    #[test]
    fn a_failed_op_costs_its_time_and_counts_for_nothing() {
        let measured = Measured {
            clients: vec![client(0, 100, 25, |_| 10)],
        };
        assert_eq!((measured.attempted(), measured.failed()), (100, 25));
        assert_eq!(measured.ok_share(), 0.75);
        assert_eq!(measured.ops_per_s(), 75.0);
    }

    #[test]
    fn merging_adds_the_later_ops_to_the_same_clients() {
        let mut measured = Measured::default();
        measured.merge(Measured {
            clients: vec![client(0, 10, 0, |_| 10), client(1, 10, 1, |_| 10)],
        });
        measured.merge(Measured {
            clients: vec![client(0, 30, 0, |_| 10), client(1, 30, 0, |_| 10)],
        });
        assert_eq!((measured.attempted(), measured.failed()), (80, 1));
        assert_eq!(measured.samples(), 79);
        assert_eq!(measured.clients[1].busy, Duration::from_millis(400));
    }

    #[test]
    fn another_pass_is_started_while_half_of_it_fits() {
        let start = Instant::now() - Duration::from_millis(900);
        // Three passes in 900 ms: the next would end at 1200 ms.
        assert!(!spent(start, 3, Duration::from_millis(1100)));
        assert!(spent(start, 3, Duration::from_millis(1000)));
    }
}
