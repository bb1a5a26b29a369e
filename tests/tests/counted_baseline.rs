//! The committed counted baseline. `BENCH_counted.json` at the repository
//! root is the exact output of the `counted` binary: per-query work
//! counters, compilations and simulated cache traffic for fixed workload
//! shapes, all pure functions of the seeded dataset. A fresh report must
//! equal it byte for byte, so a change that adds *or removes* work fails
//! here until the file is regenerated and committed — the baseline's diff
//! is the review of what the change did to the work.

use mrq_bench::counted_artifact;
use std::collections::{BTreeMap, BTreeSet};

const BASELINE: &str = include_str!("../../BENCH_counted.json");

/// `name -> value` for every `"name": value` line of a rendered report.
fn points(report: &str) -> BTreeMap<&str, &str> {
    report
        .lines()
        .filter_map(|line| line.trim().strip_prefix('"')?.split_once("\": "))
        .map(|(name, value)| (name, value.trim_end_matches(',')))
        .collect()
}

#[test]
fn counted_report_matches_the_committed_baseline() {
    let fresh = counted_artifact();
    if fresh == BASELINE {
        return;
    }
    let (committed, now) = (points(BASELINE), points(&fresh));
    let names: BTreeSet<&str> = committed.keys().chain(now.keys()).copied().collect();
    let mut changed: Vec<String> = names
        .into_iter()
        .filter(|name| committed.get(name) != now.get(name))
        .map(|name| {
            format!(
                "  {name}: {} -> {}",
                committed.get(name).copied().unwrap_or("-"),
                now.get(name).copied().unwrap_or("-")
            )
        })
        .collect();
    if changed.is_empty() {
        changed.push("  (same points and values; order or layout differs)".to_string());
    }
    panic!(
        "counted work differs from BENCH_counted.json at {} point(s):\n{}\n\
         If the change is intended, regenerate the baseline and commit its diff:\n  \
         cargo run -q -p mrq-bench --release --bin counted > BENCH_counted.json",
        changed.len(),
        changed.join("\n")
    );
}
