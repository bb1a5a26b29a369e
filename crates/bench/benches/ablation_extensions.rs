//! Ablation: the design-choice extensions beyond the paper's figures —
//! OrderBy+Take fusion (§2.3 "independent operators"), pre-built join
//! indexes (§9), the heuristic optimizer's selection push-down (§2.3) and
//! query-result recycling (§9 / [15]).
use criterion::{criterion_group, criterion_main, Criterion};
use mrq_bench::{run_strategy, Workbench};
use mrq_codegen::exec::ExecState;
use mrq_common::Schema;
use mrq_core::Strategy;
use mrq_engine_native::{execute_parallel, HashIndex, ParallelConfig};
use mrq_tpch::queries;

fn bench(c: &mut Criterion) {
    let wb = Workbench::new(0.002);

    // OrderBy + Take fusion over the native row store.
    let cutoff = wb.data.shipdate_for_selectivity(1.0);
    let (canon, spec) = wb.lower(queries::sort_topn_micro(cutoff, 10));
    let tables = wb.row_stores(&spec);
    let schemas: Vec<Schema> = tables.iter().map(|t| t.schema().clone()).collect();
    let mut group = c.benchmark_group("ablation_topn_fusion");
    group.sample_size(10);
    for (label, fused) in [("full_sort_then_take", false), ("fused_topn", true)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut state =
                    ExecState::new(&spec, &canon.params, tables[1..].to_vec(), &schemas)
                        .expect("state");
                if !fused {
                    state.disable_topn_fusion();
                }
                state.consume(tables[0]);
                state.finish().rows.len()
            })
        });
    }
    group.finish();

    // Pre-built join indexes vs per-query hash builds on the Q3 join.
    let date = mrq_common::Date::from_ymd(1995, 3, 15);
    let naive = queries::join_micro_naive("BUILDING", date, date);
    let (canon_j, spec_j) = wb.lower(naive.clone());
    let tables_j = wb.row_stores(&spec_j);
    let orders_index = HashIndex::build(&wb.stores["orders"], 0).expect("orders index");
    let customer_index = HashIndex::build(&wb.stores["customer"], 0).expect("customer index");
    let mut group = c.benchmark_group("ablation_join_index");
    group.sample_size(10);
    group.bench_function("hash_build_per_query", |b| {
        b.iter(|| {
            mrq_engine_native::execute(&spec_j, &canon_j.params, &tables_j)
                .expect("join")
                .rows
                .len()
        })
    });
    group.bench_function("prebuilt_index", |b| {
        b.iter(|| {
            execute_parallel(
                &spec_j,
                &canon_j.params,
                &tables_j,
                &[Some(&orders_index), Some(&customer_index)],
                ParallelConfig::sequential(),
            )
            .expect("indexed join")
            .rows
            .len()
        })
    });
    group.finish();

    // Optimizer: the naive Q3 join as written vs after selection push-down.
    let (canon_n, spec_n) = wb.lower(naive.clone());
    let (canon_o, spec_o) =
        wb.lower(mrq_expr::optimize(naive, mrq_expr::OptimizerConfig::default()).expr);
    let mut group = c.benchmark_group("ablation_optimizer_pushdown");
    group.sample_size(10);
    group.bench_function("as_written", |b| {
        b.iter(|| {
            run_strategy(&wb, &canon_n, &spec_n, Strategy::CompiledCSharp)
                .1
                .rows
                .len()
        })
    });
    group.bench_function("pushed_down", |b| {
        b.iter(|| {
            run_strategy(&wb, &canon_o, &spec_o, Strategy::CompiledCSharp)
                .1
                .rows
                .len()
        })
    });
    group.finish();

    // Result recycling: repeated parameter-identical Q1 via the provider.
    let mut group = c.benchmark_group("ablation_result_recycling");
    group.sample_size(10);
    group.bench_function("no_recycling", |b| {
        let provider = wb.managed_provider();
        b.iter(|| {
            provider
                .execute(queries::q1(), Strategy::CompiledCSharp)
                .expect("run")
                .rows
                .len()
        })
    });
    group.bench_function("recycled", |b| {
        let mut provider = wb.managed_provider();
        provider.set_result_recycling(true);
        provider
            .execute(queries::q1(), Strategy::CompiledCSharp)
            .expect("warm-up");
        b.iter(|| {
            provider
                .execute(queries::q1(), Strategy::CompiledCSharp)
                .expect("run")
                .rows
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
