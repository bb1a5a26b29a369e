//! Runs TPC-H Q1 and Q3 over a generated dataset loaded as managed objects
//! and as native arrays of structs, printing the reports and timings.
//!
//! Run with `cargo run --release --example tpch_reports`.

use mrq_core::{Provider, Strategy};
use mrq_engine_hybrid::HybridConfig;
use mrq_engine_native::RowStore;
use mrq_expr::SourceId;
use mrq_tpch::gen::{GenConfig, TpchData};
use mrq_tpch::load::{schema_of, value_rows, HeapDataset, TABLE_NAMES};
use mrq_tpch::queries;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let data = TpchData::generate(GenConfig::scale(0.01));
    let heap_data = HeapDataset::load(&data);
    // Native mirrors (arrays of structs) for the §5 strategy.
    let mut native = Provider::new();
    for (i, table) in TABLE_NAMES.iter().enumerate() {
        let store = RowStore::from_rows(schema_of(table), &value_rows(&data, table));
        native.bind_native_shared(SourceId(i as u32), Arc::new(store));
    }

    let lists = TABLE_NAMES.map(|table| heap_data.list(table));
    let mut provider = Provider::over_shared_heap(Arc::new(heap_data.heap));
    for (i, table) in TABLE_NAMES.iter().enumerate() {
        provider.bind_managed(SourceId(i as u32), lists[i], schema_of(table));
    }

    for (name, expr) in [("TPC-H Q1", queries::q1()), ("TPC-H Q3", queries::q3())] {
        println!("=== {name} ===");
        for (label, provider_ref, strategy) in [
            ("LINQ-to-objects", &provider, Strategy::LinqToObjects),
            ("compiled C#", &provider, Strategy::CompiledCSharp),
            (
                "hybrid C#/C",
                &provider,
                Strategy::Hybrid(HybridConfig::default()),
            ),
            (
                "compiled C (native rows)",
                &native,
                Strategy::CompiledNative,
            ),
        ] {
            let start = Instant::now();
            let out = provider_ref.execute(expr.clone(), strategy).unwrap();
            println!(
                "  {label:<26} {:>9.2} ms   ({} result rows)",
                start.elapsed().as_secs_f64() * 1e3,
                out.rows.len()
            );
            if label == "compiled C (native rows)" {
                print!("{}", out.render(4));
            }
        }
        println!();
    }
}
