//! Result equivalence for the extension features: every new execution path
//! (parallel scan, pre-built join indexes, top-N fusion, the heuristic
//! optimizer, result recycling) must return exactly what the baseline
//! strategies return on the TPC-H workloads.

use mrq_bench::{run_strategy, standard_strategies, Workbench};
use mrq_core::{ParallelConfig, Strategy};
use mrq_engine_native::{execute_parallel, HashIndex};
use mrq_tpch::queries;

fn workbench() -> Workbench {
    Workbench::new(0.002)
}

/// Exact equality except for floating-point columns, which are compared with
/// a relative tolerance: parallel execution changes the order in which `f64`
/// averages accumulate, which perturbs the last few bits.
fn assert_outputs_match(
    actual: &mrq_codegen::exec::QueryOutput,
    expected: &mrq_codegen::exec::QueryOutput,
    context: &str,
) {
    use mrq_common::Value;
    assert_eq!(actual.schema, expected.schema, "{context}: schema");
    assert_eq!(
        actual.rows.len(),
        expected.rows.len(),
        "{context}: cardinality"
    );
    for (row, (a, e)) in actual.rows.iter().zip(expected.rows.iter()).enumerate() {
        for (col, (av, ev)) in a.iter().zip(e.iter()).enumerate() {
            match (av, ev) {
                (Value::Float64(x), Value::Float64(y)) => {
                    let tolerance = 1e-9 * y.abs().max(1.0);
                    assert!(
                        (x - y).abs() <= tolerance,
                        "{context}: row {row} col {col}: {x} vs {y}"
                    );
                }
                _ => assert_eq!(av, ev, "{context}: row {row} col {col}"),
            }
        }
    }
}

#[test]
fn parallel_native_matches_every_sequential_strategy_on_q1() {
    let wb = workbench();
    let (canon, spec) = wb.lower(queries::q1());
    let reference = run_strategy(&wb, &canon, &spec, Strategy::LinqToObjects).1;
    for (name, strategy) in standard_strategies() {
        let out = run_strategy(&wb, &canon, &spec, strategy).1;
        assert_eq!(out, reference, "{name} diverged");
    }
    for threads in [2, 4, 8] {
        let out = run_strategy(
            &wb,
            &canon,
            &spec,
            Strategy::CompiledNativeParallel(ParallelConfig {
                threads,
                min_rows_per_thread: 256,
                ..ParallelConfig::default()
            }),
        )
        .1;
        assert_outputs_match(
            &out,
            &reference,
            &format!("parallel with {threads} threads"),
        );
    }
}

#[test]
fn parallel_native_matches_sequential_on_the_q3_join() {
    let wb = workbench();
    let (canon, spec) = wb.lower(queries::q3());
    let reference = run_strategy(&wb, &canon, &spec, Strategy::CompiledNative).1;
    let parallel = run_strategy(
        &wb,
        &canon,
        &spec,
        Strategy::CompiledNativeParallel(ParallelConfig {
            threads: 4,
            min_rows_per_thread: 128,
            ..ParallelConfig::default()
        }),
    )
    .1;
    assert_eq!(parallel, reference);
    assert!(!reference.rows.is_empty());
}

#[test]
fn indexed_join_matches_hash_build_on_the_naive_q3_join() {
    let wb = workbench();
    let date = mrq_common::Date::from_ymd(1995, 3, 15);
    let naive = queries::join_micro_naive("BUILDING", date, date);
    let (canon, spec) = wb.lower(naive);
    let tables = wb.row_stores(&spec);
    let reference = mrq_engine_native::execute(&spec, &canon.params, &tables).unwrap();
    let orders_index = HashIndex::build(&wb.stores["orders"], 0).unwrap();
    let customer_index = HashIndex::build(&wb.stores["customer"], 0).unwrap();
    let indexed = execute_parallel(
        &spec,
        &canon.params,
        &tables,
        &[Some(&orders_index), Some(&customer_index)],
        ParallelConfig::sequential(),
    )
    .unwrap();
    assert_eq!(indexed, reference);
    let parallel_indexed = execute_parallel(
        &spec,
        &canon.params,
        &tables,
        &[Some(&orders_index), Some(&customer_index)],
        ParallelConfig {
            threads: 4,
            min_rows_per_thread: 128,
            ..ParallelConfig::default()
        },
    )
    .unwrap();
    assert_eq!(parallel_indexed, reference);
}

#[test]
fn the_optimized_naive_q3_join_matches_the_hand_optimized_form() {
    let wb = workbench();
    let date = mrq_common::Date::from_ymd(1995, 3, 15);
    let naive = queries::join_micro_naive("BUILDING", date, date);
    let optimized = mrq_expr::optimize(naive.clone(), mrq_expr::OptimizerConfig::default()).expr;

    let (canon_naive, spec_naive) = wb.lower(naive);
    let (canon_opt, spec_opt) = wb.lower(optimized);
    let (canon_hand, spec_hand) = wb.lower(queries::join_micro("BUILDING", date, date));

    // The hand-optimised query projects a different column set, so compare
    // row counts (the join semantics) plus the revenue column multisets.
    let naive_out = run_strategy(&wb, &canon_naive, &spec_naive, Strategy::CompiledCSharp).1;
    let opt_out = run_strategy(&wb, &canon_opt, &spec_opt, Strategy::CompiledCSharp).1;
    let hand_out = run_strategy(&wb, &canon_hand, &spec_hand, Strategy::CompiledCSharp).1;
    assert_eq!(naive_out.rows.len(), opt_out.rows.len());
    assert_eq!(opt_out.rows.len(), hand_out.rows.len());

    let revenue_multiset = |out: &mrq_codegen::exec::QueryOutput, col_name: &str| {
        let idx = out
            .schema
            .fields()
            .iter()
            .position(|f| f.name == col_name)
            .unwrap();
        let mut revenues: Vec<String> = out.rows.iter().map(|r| format!("{:?}", r[idx])).collect();
        revenues.sort();
        revenues
    };
    assert_eq!(
        revenue_multiset(&naive_out, "revenue_item"),
        revenue_multiset(&hand_out, "revenue_item")
    );
    assert_eq!(
        revenue_multiset(&opt_out, "revenue_item"),
        revenue_multiset(&hand_out, "revenue_item")
    );
}

#[test]
fn top_n_query_agrees_across_all_strategies() {
    let wb = workbench();
    let cutoff = wb.data.shipdate_for_selectivity(0.8);
    let (canon, spec) = wb.lower(queries::sort_topn_micro(cutoff, 25));
    let reference = run_strategy(&wb, &canon, &spec, Strategy::LinqToObjects).1;
    assert_eq!(reference.rows.len(), 25);
    for (name, strategy) in standard_strategies() {
        let out = run_strategy(&wb, &canon, &spec, strategy).1;
        assert_eq!(out.rows.len(), 25, "{name} row count");
        // Sort keys (extendedprice ascending) must agree even if ties are
        // broken differently.
        let prices = |o: &mrq_codegen::exec::QueryOutput| -> Vec<String> {
            o.rows.iter().map(|r| format!("{:?}", r[1])).collect()
        };
        assert_eq!(prices(&out), prices(&reference), "{name} ordering");
    }
}

#[test]
fn q2_and_q3_agree_across_all_strategies_at_small_scale() {
    let wb = workbench();
    for query in ["Q2", "Q3"] {
        let mut counts = Vec::new();
        for (name, strategy) in standard_strategies() {
            let (_, rows) = mrq_bench::run_tpch_query(&wb, query, strategy);
            counts.push((name, rows));
        }
        let first = counts[0].1;
        for (name, rows) in &counts {
            assert_eq!(
                *rows, first,
                "{query}: {name} returned a different cardinality"
            );
        }
    }
}

#[test]
fn q6_agrees_across_all_strategies_including_parallel() {
    let wb = workbench();
    let (canon, spec) = wb.lower(queries::q6());
    let reference = run_strategy(&wb, &canon, &spec, Strategy::LinqToObjects).1;
    assert_eq!(reference.rows.len(), 1, "Q6 is a single aggregate row");
    let mut strategies = standard_strategies();
    strategies.push((
        "C Code (parallel)",
        Strategy::CompiledNativeParallel(ParallelConfig {
            threads: 4,
            min_rows_per_thread: 256,
            ..ParallelConfig::default()
        }),
    ));
    for (name, strategy) in strategies {
        let out = run_strategy(&wb, &canon, &spec, strategy).1;
        assert_eq!(out, reference, "{name} diverged on Q6");
    }
}

#[test]
fn recycled_results_are_identical_to_fresh_executions() {
    let wb = workbench();
    let mut provider = wb.managed_provider();
    provider.set_result_recycling(true);
    let fresh = provider
        .execute(queries::q3(), Strategy::CompiledCSharp)
        .unwrap();
    let recycled = provider
        .execute(queries::q3(), Strategy::CompiledCSharp)
        .unwrap();
    assert_eq!(fresh, recycled);
    assert_eq!(provider.stats().recycling.hits, 1);
    // A different statement shape is not served from the result cache.
    let other = provider
        .execute(queries::q1(), Strategy::CompiledCSharp)
        .unwrap();
    assert_ne!(other.rows.len(), 0);
    assert_eq!(provider.stats().recycling.hits, 1);
}
