//! Ablation: staging policy (full vs buffered, varying buffer size) and the
//! number of aggregates (§7.1's extra experiments).
use criterion::{criterion_group, criterion_main, Criterion};
use mrq_bench::{run_strategy, Workbench};
use mrq_core::Strategy;
use mrq_engine_hybrid::{HybridConfig, Materialization, TransferPolicy};
use mrq_tpch::queries;

fn bench(c: &mut Criterion) {
    let wb = Workbench::new(0.002);
    let cutoff = wb.data.shipdate_for_selectivity(1.0);
    let (canon, spec) = wb.lower(queries::q1_with_cutoff(cutoff));
    let mut group = c.benchmark_group("ablation_staging_buffer_size");
    group.sample_size(10);
    for rows_per_buffer in [256usize, 2048, 16384] {
        group.bench_function(format!("buffered_{rows_per_buffer}"), |b| {
            let strategy = Strategy::Hybrid(HybridConfig {
                materialization: Materialization::Buffered { rows_per_buffer },
                transfer: TransferPolicy::Max,
                ..HybridConfig::default()
            });
            b.iter(|| run_strategy(&wb, &canon, &spec, strategy).1.rows.len())
        });
    }
    group.bench_function("full", |b| {
        let strategy = Strategy::Hybrid(HybridConfig::default());
        b.iter(|| run_strategy(&wb, &canon, &spec, strategy).1.rows.len())
    });
    group.finish();

    let mut group = c.benchmark_group("ablation_aggregate_count");
    group.sample_size(10);
    for n in [1usize, 4, 8] {
        let (canon, spec) = wb.lower(queries::aggregation_micro(cutoff, n));
        group.bench_function(format!("aggregates_{n}"), |b| {
            let strategy = Strategy::Hybrid(HybridConfig::default());
            b.iter(|| run_strategy(&wb, &canon, &spec, strategy).1.rows.len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
