//! Provider-level behaviour: caching, re-binding, GC interaction and cache-simulation ordering.

use mrq_bench::{fig14_cache, Workbench};
use mrq_common::{DataType, Field, Schema, Value};
use mrq_core::{Provider, Strategy};
use mrq_engine_native::RowStore;
use mrq_expr::{col, lam, Query, SourceId};
use mrq_tpch::load::{schema_of, HeapDataset, TABLE_NAMES};
use mrq_tpch::queries;
use mrq_xtests::small_dataset;
use std::sync::Arc;

/// A provider over the dataset's heap with every TPC-H table bound.
fn managed_provider(heap_data: HeapDataset) -> Provider<'static> {
    let lists = TABLE_NAMES.map(|table| heap_data.list(table));
    let mut provider = Provider::over_shared_heap(Arc::new(heap_data.heap));
    for (i, table) in TABLE_NAMES.iter().enumerate() {
        provider.bind_managed(SourceId(i as u32), lists[i], schema_of(table));
    }
    provider
}

#[test]
fn query_cache_amortises_compilation_across_parameters() {
    let data = small_dataset();
    let provider = managed_provider(HeapDataset::load(&data));
    for sel in [0.2, 0.5, 0.9] {
        let cutoff = data.shipdate_for_selectivity(sel);
        provider
            .execute(queries::q1_with_cutoff(cutoff), Strategy::CompiledCSharp)
            .unwrap();
    }
    let stats = provider.plan_cache_stats();
    assert_eq!(stats.misses, 1, "one compilation for the Q1 pattern");
    assert_eq!(stats.hits, 2);
}

/// Re-binding a source replaces its data: the next `execute` reads the new
/// store (new rows, new schema), with and without result recycling — a
/// recycled result of the old data is never served.
#[test]
fn rebinding_a_source_serves_the_new_rows() {
    let int_column = |name: &str| Field::new(name, DataType::Int64);
    let old_rows: Vec<Vec<Value>> = (0..10).map(|i| vec![Value::Int64(i)]).collect();
    let old = Arc::new(RowStore::from_rows(
        Schema::new("Old", vec![int_column("n")]),
        &old_rows,
    ));
    // Same row count, so only the re-bind itself can tell the two apart.
    let new_rows: Vec<Vec<Value>> = (0..10)
        .map(|i| vec![Value::Int64(100 + i), Value::Int64(-i)])
        .collect();
    let new = Arc::new(RowStore::from_rows(
        Schema::new("New", vec![int_column("n"), int_column("m")]),
        &new_rows,
    ));
    let stmt = || {
        Query::from_source(SourceId(0))
            .select(lam("x", col("x", "n")))
            .into_expr()
    };
    for recycling in [false, true] {
        let mut provider = Provider::new();
        provider.set_result_recycling(recycling);
        provider.bind_native_shared(SourceId(0), Arc::clone(&old));
        let before = provider.execute(stmt(), Strategy::CompiledNative).unwrap();
        assert_eq!(before.rows[0], vec![Value::Int64(0)]);
        provider.bind_native_shared(SourceId(0), Arc::clone(&new));
        let after = provider.execute(stmt(), Strategy::CompiledNative).unwrap();
        let want: Vec<Vec<Value>> = (0..10).map(|i| vec![Value::Int64(100 + i)]).collect();
        assert_eq!(after.rows, want, "recycling {recycling}");
    }
}

#[test]
fn results_survive_an_explicit_garbage_collection() {
    let data = small_dataset();
    let mut heap_data = HeapDataset::load(&data);
    heap_data.heap.collect_full();
    let provider = managed_provider(heap_data);
    let out = provider
        .execute(queries::q1(), Strategy::CompiledCSharp)
        .unwrap();
    assert!(!out.rows.is_empty());
}

#[test]
fn simulated_cpu_cache_ranks_strategies_like_figure_14() {
    let wb = Workbench::new(0.002);
    let rows = fig14_cache(&wb, false);
    let get = |name: &str| {
        rows.iter()
            .find(|(s, q, _)| s == name && q == "Q1")
            .map(|(_, _, m)| *m)
            .unwrap()
    };
    let linq = get("LINQ-to-Objects");
    let csharp = get("C# Code");
    let native = get("C Code");
    // The baseline re-iterates groups per aggregate; at tiny scale factors the
    // re-passes mostly hit, so allow a small tolerance rather than a strict
    // ordering (the paper's Figure 14 ordering emerges at larger scales).
    assert!(
        linq * 100 >= csharp * 90,
        "baseline must not miss materially less than compiled C# ({linq} vs {csharp})"
    );
    assert!(
        csharp > native,
        "managed object access must miss more than the flat row store ({csharp} vs {native})"
    );
}
