//! `counted` — the deterministic work-counting bench mode.
//!
//! Prints the counted report ([`mrq_bench::counted_artifact`]) to stdout.
//! Every value is an exact count — rows scanned, hash inserts, probe
//! lookups, compilations, simulated cache misses — so repeated runs are
//! byte-identical. The repository commits the output as
//! `BENCH_counted.json`, and `tests/tests/counted_baseline.rs` fails when a
//! fresh report differs from it in either direction. A change that moves
//! work regenerates the file and commits the diff:
//!
//! ```text
//! cargo run -q -p mrq-bench --release --bin counted > BENCH_counted.json
//! ```

fn main() {
    print!("{}", mrq_bench::counted_artifact());
}
