//! Demonstrates the plan cache: the same query pattern with different
//! parameters compiles once and reuses the artefact, exactly the
//! amortisation argument of §3/§7.4.
//!
//! Run with `cargo run --release --example query_cache_demo`.

use mrq_core::{Provider, Strategy};
use mrq_expr::SourceId;
use mrq_tpch::gen::{GenConfig, TpchData};
use mrq_tpch::load::{schema_of, HeapDataset, TABLE_NAMES};
use mrq_tpch::queries;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let data = TpchData::generate(GenConfig::scale(0.005));
    let heap_data = HeapDataset::load(&data);
    let lists = TABLE_NAMES.map(|table| heap_data.list(table));
    let mut provider = Provider::over_shared_heap(Arc::new(heap_data.heap));
    for (i, table) in TABLE_NAMES.iter().enumerate() {
        provider.bind_managed(SourceId(i as u32), lists[i], schema_of(table));
    }

    // The application issues the same query pattern with user-supplied
    // parameters (different selection cut-offs).
    for (i, selectivity) in [0.2, 0.4, 0.6, 0.8, 1.0].iter().enumerate() {
        let cutoff = data.shipdate_for_selectivity(*selectivity);
        let start = Instant::now();
        let out = provider
            .execute(queries::q1_with_cutoff(cutoff), Strategy::CompiledCSharp)
            .unwrap();
        let stats = provider.plan_cache_stats();
        println!(
            "run {i}: cutoff {cutoff}  {:>8.2} ms  {} groups   cache: {} misses / {} hits",
            start.elapsed().as_secs_f64() * 1e3,
            out.rows.len(),
            stats.misses,
            stats.hits,
        );
    }

    provider.clear_compiled();
    let start = Instant::now();
    provider.compile(queries::q1()).unwrap();
    println!(
        "\nwithout the cache every run would pay a cold compile, {:.1} µs here (measured; \
         the paper's C compiler adds ≈720 ms, not reproduced)",
        start.elapsed().as_secs_f64() * 1e6
    );
}
