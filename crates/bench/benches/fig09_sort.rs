//! Criterion bench for Figure 9: sorting over a selection, per strategy.
use criterion::{criterion_group, criterion_main, Criterion};
use mrq_bench::{run_strategy, Workbench};
use mrq_core::Strategy;
use mrq_engine_hybrid::{HybridConfig, Materialization, TransferPolicy};
use mrq_tpch::queries;

fn bench(c: &mut Criterion) {
    let wb = Workbench::new(0.002);
    let cutoff = wb.data.shipdate_for_selectivity(0.5);
    let (canon, spec) = wb.lower(queries::sort_micro(cutoff));
    let strategies: Vec<(&str, Strategy)> = vec![
        ("LINQ-to-Objects", Strategy::LinqToObjects),
        ("C# Code", Strategy::CompiledCSharp),
        ("C Code", Strategy::CompiledNative),
        (
            "C#/C Code (Min)",
            Strategy::Hybrid(HybridConfig {
                materialization: Materialization::Full,
                transfer: TransferPolicy::Min,
                ..HybridConfig::default()
            }),
        ),
    ];
    let mut group = c.benchmark_group("fig09_sort_sel_0.5");
    group.sample_size(10);
    for (name, strategy) in strategies {
        group.bench_function(name, |b| {
            b.iter(|| run_strategy(&wb, &canon, &spec, strategy).1.rows.len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
