//! Prepared-vs-ad-hoc equivalence: a plan compiled once through
//! [`Provider::prepare`] and executed with parameter bindings must return
//! **bit-identical** rows to an ad-hoc [`Provider::execute`] of the same
//! statement with the bindings inlined as literals — for every strategy, at
//! every thread count {1, 2, 8}, and for
//! repeated re-executions of one plan under different bindings.
//!
//! This is the correctness contract that lets the plan cache sit on the
//! serving hot path: if prepared execution ever diverged from ad-hoc
//! execution, the compilation-amortization story (§7.4) would be buying
//! throughput with wrong answers.

use mrq_bench::Workbench;
use mrq_codegen::exec::QueryOutput;
use mrq_common::executor::block_on;
use mrq_common::{ParallelConfig, Value};
use mrq_core::{Provider, QueryOptions, Strategy};
use mrq_engine_hybrid::HybridConfig;
use mrq_expr::optimize::{optimize, OptimizerConfig};
use mrq_expr::Expr;
use mrq_tpch::queries;
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 8];

fn workbench() -> Workbench {
    Workbench::new(0.002)
}

fn config_for(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        // Low thresholds and tiny morsels so the small test dataset actually
        // splits and the shared cursor hands out many morsels.
        min_rows_per_thread: 16,
        ..ParallelConfig::default()
    }
    .with_morsel_rows(64)
}

/// The parameter bindings equivalent to executing `expr` ad hoc: optimize
/// and canonicalize exactly as the provider does, and take the lifted
/// literals in slot order. Statements of one shape lift their literals into
/// the same slots, so these bindings re-execute a plan prepared from any
/// same-shaped statement.
fn bindings_for(expr: Expr) -> Vec<Value> {
    mrq_expr::canonicalize(optimize(expr, OptimizerConfig::default()).expr).params
}

fn assert_bit_identical(reference: &QueryOutput, prepared: &QueryOutput, context: &str) {
    assert_eq!(reference.schema, prepared.schema, "{context}: schema");
    assert_eq!(reference.rows, prepared.rows, "{context}: rows");
}

/// The managed strategies (LINQ baseline, compiled C#, hybrid) across the
/// full scheduler sweep: one plan per (statement shape, strategy), executed
/// with the bindings of a *different* statement instance, versus that
/// instance run ad hoc.
#[test]
fn prepared_matches_adhoc_for_managed_strategies_across_scheduler_cells() {
    let wb = workbench();
    let prepare_cutoff = wb.data.shipdate_for_selectivity(0.3);
    let execute_cutoff = wb.data.shipdate_for_selectivity(0.7);
    let strategies: Vec<(&str, Strategy)> = vec![
        ("linq", Strategy::LinqToObjects),
        ("csharp", Strategy::CompiledCSharp),
        ("hybrid", Strategy::Hybrid(HybridConfig::default())),
        (
            "hybrid buffered",
            Strategy::Hybrid(HybridConfig::buffered()),
        ),
    ];
    for (shape, prepare_stmt, execute_stmt) in [
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
    ] {
        for &threads in &THREADS {
            let mut provider = wb.managed_provider();
            provider.set_parallelism(config_for(threads));
            let provider = provider.into_shared();
            for (name, strategy) in &strategies {
                let reference = provider
                    .execute(execute_stmt.clone(), *strategy)
                    .expect("ad-hoc reference");
                let prepared = provider
                    .prepare(prepare_stmt.clone(), *strategy)
                    .expect("prepare");
                let out = prepared
                    .execute(&bindings_for(execute_stmt.clone()))
                    .expect("prepared execution");
                let context = format!("{shape} {name} at {threads} threads");
                assert_bit_identical(&reference, &out, &context);
            }
        }
    }
}

/// The native strategy (sequential, provider-wide parallel and explicit
/// `CompiledNativeParallel`) across the same sweep.
#[test]
fn prepared_matches_adhoc_for_native_strategy_across_scheduler_cells() {
    let wb = workbench();
    let prepare_cutoff = wb.data.shipdate_for_selectivity(0.3);
    let execute_cutoff = wb.data.shipdate_for_selectivity(0.7);
    for (shape, prepare_stmt, execute_stmt) in [
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
    ] {
        let canon = mrq_expr::canonicalize(prepare_stmt.clone());
        let spec = mrq_codegen::spec::lower(&canon, &wb.catalog(None)).expect("lowers");
        let mut provider = Provider::new();
        let mut sources = vec![spec.root];
        sources.extend(spec.joins.iter().map(|j| j.source));
        for s in &sources {
            provider.bind_native_shared(*s, Arc::clone(&wb.stores[queries::source_table(*s)]));
        }
        let provider = provider.into_shared();
        let bindings = bindings_for(execute_stmt.clone());
        let reference = provider
            .execute(execute_stmt.clone(), Strategy::CompiledNative)
            .expect("ad-hoc sequential native");
        for &threads in &THREADS {
            let strategy = Strategy::CompiledNativeParallel(config_for(threads));
            let adhoc = provider
                .execute(execute_stmt.clone(), strategy)
                .expect("ad-hoc parallel native");
            assert_bit_identical(
                &reference,
                &adhoc,
                &format!("{shape} ad-hoc at {threads} threads"),
            );
            let prepared = provider
                .prepare(prepare_stmt.clone(), strategy)
                .expect("prepare");
            let out = prepared
                .execute(&bindings)
                .expect("prepared parallel native");
            assert_bit_identical(
                &reference,
                &out,
                &format!("{shape} native at {threads} threads"),
            );
        }
    }
}

/// One plan, many bindings: repeated re-execution of a single prepared
/// plan across a selectivity sweep matches ad-hoc execution instance by
/// instance, and the whole sweep costs exactly one compilation.
#[test]
fn one_plan_reexecutes_correctly_under_many_bindings() {
    let wb = workbench();
    let provider = wb.managed_provider().into_shared();
    let prepared = provider
        .prepare(
            queries::q1_with_cutoff(wb.data.shipdate_for_selectivity(0.1)),
            Strategy::CompiledCSharp,
        )
        .expect("prepare");
    let mut distinct = Vec::new();
    for selectivity in [0.05, 0.25, 0.5, 0.75, 0.95] {
        let stmt = queries::q1_with_cutoff(wb.data.shipdate_for_selectivity(selectivity));
        let reference = provider
            .execute(stmt.clone(), Strategy::CompiledCSharp)
            .expect("ad-hoc");
        let out = prepared.execute(&bindings_for(stmt)).expect("prepared");
        assert_bit_identical(&reference, &out, &format!("selectivity {selectivity}"));
        distinct.push(out.rows.len());
    }
    // The sweep actually exercised different bindings (the defaults alone
    // would produce one row count), and only one plan was ever compiled.
    distinct.dedup();
    assert!(distinct.len() > 1, "bindings changed the result");
    assert_eq!(provider.plan_cache_stats().entries, 1);
}

/// A Take count carried in a parameter slot is re-resolved per execution:
/// a cached plan must not freeze the count observed at prepare time. Covers
/// every strategy (the interpreted baseline and the ExecState engines take
/// different truncation paths).
#[test]
fn rebound_take_count_is_respected_by_every_strategy() {
    let wb = workbench();
    let cutoff = wb.data.shipdate_for_selectivity(0.9);
    let provider = wb.managed_provider().into_shared();
    for strategy in [
        Strategy::LinqToObjects,
        Strategy::CompiledCSharp,
        Strategy::Hybrid(HybridConfig::default()),
    ] {
        let prepared = provider
            .prepare(queries::sort_topn_micro(cutoff, 5), strategy)
            .expect("prepare");
        // Default bindings: the prepare-time count.
        assert_eq!(prepared.execute(&[]).expect("defaults").rows.len(), 5);
        for n in [1i64, 17, 42] {
            let stmt = queries::sort_topn_micro(cutoff, n);
            let reference = provider.execute(stmt.clone(), strategy).expect("ad-hoc");
            let out = prepared.execute(&bindings_for(stmt)).expect("prepared");
            assert_eq!(out.rows.len(), n as usize, "{strategy:?} take {n}");
            assert_bit_identical(&reference, &out, &format!("{strategy:?} take {n}"));
        }
    }
}

/// The queued and async front ends agree with the blocking one on the same
/// prepared plan, and respect [`QueryOptions`] (an already-expired deadline
/// resolves the handle without executing).
#[test]
fn prepared_submit_paths_match_execute_and_respect_options() {
    let wb = workbench();
    let cutoff = wb.data.shipdate_for_selectivity(0.5);
    let provider = wb.managed_provider().into_shared();
    let prepared = provider
        .prepare(queries::q1_with_cutoff(cutoff), Strategy::CompiledCSharp)
        .expect("prepare");
    let reference = prepared.execute(&[]).expect("blocking");

    let handle = prepared.submit(&[], QueryOptions::default());
    assert_bit_identical(&reference, &handle.join().expect("submitted"), "submit");

    let polled = block_on(prepared.submit(&[], QueryOptions::new()));
    assert_bit_identical(&reference, &polled.expect("polled"), "submit polled");

    let doomed = prepared.submit(
        &[],
        QueryOptions::new().with_deadline(std::time::Duration::ZERO),
    );
    assert!(matches!(
        doomed.join(),
        Err(mrq_core::QueryError::DeadlineExceeded)
    ));
}

/// The CI-matrix hook: the scheduler shape comes from the environment
/// (`MRQ_THREADS`), so every matrix cell checks
/// prepared-vs-ad-hoc equivalence under the parallel paths it names.
#[test]
fn env_selected_scheduler_config_prepared_matches_adhoc() {
    let mut env_config = ParallelConfig::from_env();
    env_config.min_rows_per_thread = 16;
    env_config.morsel_rows = env_config.morsel_rows.min(64);
    let wb = workbench();
    let prepare_stmt = queries::q1_with_cutoff(wb.data.shipdate_for_selectivity(0.2));
    let execute_stmt = queries::q1_with_cutoff(wb.data.shipdate_for_selectivity(0.8));
    let mut provider = wb.managed_provider();
    provider.set_parallelism(env_config);
    let provider = provider.into_shared();
    for strategy in [
        Strategy::CompiledCSharp,
        Strategy::Hybrid(HybridConfig::default()),
    ] {
        let reference = provider
            .execute(execute_stmt.clone(), strategy)
            .expect("ad-hoc");
        let prepared = provider
            .prepare(prepare_stmt.clone(), strategy)
            .expect("prepare");
        let out = prepared
            .execute(&bindings_for(execute_stmt.clone()))
            .expect("prepared");
        assert_bit_identical(
            &reference,
            &out,
            &format!(
                "{strategy:?} with env config (threads={})",
                env_config.threads
            ),
        );
    }
}
