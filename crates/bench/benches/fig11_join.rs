//! Criterion bench for Figure 11: the Q3 join over selections, per strategy,
//! plus a 1/2/8-thread sweep showing the parallel partitioned join build
//! (mirroring what `ablation_parallel` does for scans).
use criterion::{criterion_group, criterion_main, Criterion};
use mrq_bench::{run_strategy, standard_strategies, Workbench};
use mrq_engine_csharp::HeapTable;
use mrq_engine_hybrid::HybridConfig;
use mrq_engine_native::{execute_parallel, ParallelConfig};
use mrq_tpch::queries;

fn bench(c: &mut Criterion) {
    let wb = Workbench::new(0.002);
    let ship_after = wb.data.shipdate_for_selectivity(0.5);
    let order_before = wb.data.orderdate_for_selectivity(0.5);
    let (canon, spec) = wb.lower(queries::join_micro("BUILDING", ship_after, order_before));
    let mut group = c.benchmark_group("fig11_join_sel_0.5");
    group.sample_size(10);
    for (name, strategy) in standard_strategies() {
        group.bench_function(name, |b| {
            b.iter(|| run_strategy(&wb, &canon, &spec, strategy).1.rows.len())
        });
    }
    group.finish();

    // Thread sweep over the same join: the parallel partitioned build plus
    // the morsel-parallel probe, end to end (build included), for the native
    // row store and the hybrid strategy. The 1-thread point is the baseline
    // each speedup is read against.
    let tables = wb.row_stores(&spec);
    let heap_tables = wb.heap_tables(&spec);
    let heap_refs: Vec<&HeapTable<'_>> = heap_tables.iter().collect();
    let mut group = c.benchmark_group("fig11_join_parallel");
    group.sample_size(10);
    for threads in [1usize, 2, 8] {
        let config = ParallelConfig {
            threads,
            min_rows_per_thread: 512,
            ..ParallelConfig::default()
        };
        group.bench_function(format!("native_{threads}_threads"), |b| {
            b.iter(|| {
                execute_parallel(&spec, &canon.params, &tables, &[], config)
                    .expect("parallel join")
                    .rows
                    .len()
            })
        });
        group.bench_function(format!("hybrid_full_{threads}_threads"), |b| {
            let hybrid = HybridConfig::default().parallel(config);
            b.iter(|| {
                mrq_engine_hybrid::execute(&spec, &canon.params, &heap_refs, hybrid)
                    .expect("parallel hybrid join")
                    .output
                    .rows
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
