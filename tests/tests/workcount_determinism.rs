//! Determinism contract of the per-query work counters
//! ([`mrq_common::workcount`]): the counted numbers the bench harness gates
//! on are only trustworthy if they are *exactly* reproducible.
//!
//! Two guarantees are pinned here:
//!
//! * **Repetition**: running the same query twice with the same strategy
//!   reports bit-identical [`WorkStats`] — including `morsels_executed`.
//! * **Scheduler invariance**: across threads {1, 2, 8}, every counter
//!   except `morsels_executed` is identical to the sequential engines'
//!   counts. `morsels_executed` counts execution chunks and is the single
//!   documented partitioning-dependent counter; the
//!   [`WorkStats::partition_invariant`] projection zeroes exactly it.

use mrq_bench::{run_strategy, Workbench};
use mrq_common::{ParallelConfig, WorkStats};
use mrq_core::Strategy;
use mrq_engine_csharp::HeapTable;
use mrq_engine_hybrid::HybridConfig;
use mrq_expr::Expr;
use mrq_tpch::queries;

const THREADS: [usize; 3] = [1, 2, 8];

fn workbench() -> Workbench {
    Workbench::new(0.002)
}

/// The q1 (grouped aggregation), q3 (join + group + sort) and q6 (filter +
/// fold) shapes: a scan-bound, a join-bound and a filter-bound workload.
fn shapes() -> Vec<(&'static str, Expr)> {
    vec![
        ("q1", queries::q1()),
        ("q3", queries::q3()),
        ("q6", queries::q6()),
    ]
}

/// All four strategy families (the hybrid in both materialisation modes).
fn strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        ("linq", Strategy::LinqToObjects),
        ("csharp", Strategy::CompiledCSharp),
        ("native", Strategy::CompiledNative),
        ("hybrid_full", Strategy::Hybrid(HybridConfig::default())),
        ("hybrid_buffer", Strategy::Hybrid(HybridConfig::buffered())),
    ]
}

/// A scheduler shape with explicit (host-independent) knobs and thresholds
/// low enough that the tiny test dataset really partitions.
fn config(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        min_rows_per_thread: 16,
        morsel_rows: 64,
    }
}

#[test]
fn repeated_runs_report_bit_identical_work() {
    let wb = workbench();
    for (shape, expr) in shapes() {
        let (canon, spec) = wb.lower(expr);
        for (name, strategy) in strategies() {
            let (_, first) = run_strategy(&wb, &canon, &spec, strategy);
            let (_, second) = run_strategy(&wb, &canon, &spec, strategy);
            assert_eq!(
                first.work_stats(),
                second.work_stats(),
                "{shape}/{name}: repeated runs must report identical work"
            );
            assert!(
                first.work_stats().total() > 0,
                "{shape}/{name}: a non-trivial query must report work"
            );
            assert!(
                first.work_stats().rows_scanned > 0,
                "{shape}/{name}: the scan counter must be wired up"
            );
        }
    }
}

#[test]
fn parallel_runs_are_repeatable_at_every_scheduler_shape() {
    let wb = workbench();
    for (shape, expr) in shapes() {
        let (canon, spec) = wb.lower(expr);
        for &threads in &THREADS {
            for (name, strategy) in [
                ("native", Strategy::CompiledNativeParallel(config(threads))),
                (
                    "hybrid",
                    Strategy::Hybrid(HybridConfig::default().parallel(config(threads))),
                ),
            ] {
                let (_, first) = run_strategy(&wb, &canon, &spec, strategy);
                let (_, second) = run_strategy(&wb, &canon, &spec, strategy);
                assert_eq!(
                    first.work_stats(),
                    second.work_stats(),
                    "{shape}/{name} at {threads} threads: \
                     repeated parallel runs must report identical work, \
                     morsel counter included"
                );
            }
        }
    }
}

/// Asserts the two stats agree on everything but the morsel counter, with a
/// per-counter message naming the first divergence.
fn assert_partition_invariant(reference: &WorkStats, parallel: &WorkStats, context: &str) {
    let expect = reference.partition_invariant();
    let got = parallel.partition_invariant();
    for ((counter, want), (_, have)) in expect.as_pairs().iter().zip(got.as_pairs().iter()) {
        assert_eq!(
            have, want,
            "{context}: counter `{counter}` must not depend on the scheduler shape"
        );
    }
}

#[test]
fn scheduler_shape_changes_only_the_morsel_counter() {
    let wb = workbench();
    for (shape, expr) in shapes() {
        let (canon, spec) = wb.lower(expr);
        let heap_tables = wb.heap_tables(&spec);
        let heap_refs: Vec<&HeapTable<'_>> = heap_tables.iter().collect();
        let stores = wb.row_stores(&spec);

        let csharp_ref =
            mrq_engine_csharp::execute(&spec, &canon.params, &heap_refs).expect("sequential C#");
        let native_ref =
            mrq_engine_native::execute(&spec, &canon.params, &stores).expect("sequential native");
        // The two sequential fused engines agree on the invariant counters
        // before any parallelism enters the picture.
        assert_partition_invariant(
            csharp_ref.work_stats(),
            native_ref.work_stats(),
            &format!("{shape}: sequential C# vs native"),
        );

        for &threads in &THREADS {
            let cfg = config(threads);
            let context = |engine: &str| format!("{shape}/{engine} at {threads} threads");

            let csharp = mrq_engine_csharp::execute_parallel(&spec, &canon.params, &heap_refs, cfg)
                .expect("parallel C#");
            assert_partition_invariant(
                csharp_ref.work_stats(),
                csharp.work_stats(),
                &context("csharp"),
            );

            let native =
                mrq_engine_native::execute_parallel(&spec, &canon.params, &stores, &[], cfg)
                    .expect("parallel native");
            assert_partition_invariant(
                native_ref.work_stats(),
                native.work_stats(),
                &context("native"),
            );

            let hybrid = mrq_engine_hybrid::execute(
                &spec,
                &canon.params,
                &heap_refs,
                HybridConfig::default().parallel(cfg),
            )
            .expect("parallel hybrid");
            // The hybrid's invariant counters match themselves across
            // shapes (its staging double-scan differs from the pure
            // fused engines by design, so compare to its own sequential
            // run).
            let hybrid_ref = mrq_engine_hybrid::execute(
                &spec,
                &canon.params,
                &heap_refs,
                HybridConfig::default(),
            )
            .expect("sequential hybrid");
            assert_partition_invariant(
                hybrid_ref.output.work_stats(),
                hybrid.output.work_stats(),
                &context("hybrid"),
            );
        }

        // The documented exception really is exercised: with 64-row morsels
        // over thousands of rows, an 8-thread native run splits the scan
        // into more than one execution chunk.
        let wide =
            mrq_engine_native::execute_parallel(&spec, &canon.params, &stores, &[], config(8))
                .expect("parallel native");
        assert!(
            wide.work_stats().morsels_executed > 1,
            "{shape}: an 8-thread run over 64-row morsels must execute several morsels \
             (got {})",
            wide.work_stats().morsels_executed
        );
        assert_eq!(
            native_ref.work_stats().morsels_executed,
            1,
            "{shape}: the sequential scan is one chunk"
        );
    }
}
