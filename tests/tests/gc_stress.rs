//! Garbage-collector interaction: the managed-heap simulator must keep query
//! results stable across minor and full collections, honour pinning (the
//! property §5 relies on for handing arrays to native code), and reclaim
//! unreachable temporaries created between queries.

use mrq_common::{DataType, Decimal, Field, Schema, Value};
use mrq_core::{Provider, Strategy};
use mrq_engine_csharp::HeapTable;
use mrq_expr::{canonicalize, col, lam, lit, BinaryOp, Expr, Query, SourceId};
use mrq_mheap::{ClassDesc, Heap, ListId};
use mrq_tpch::load::{schema_of, HeapDataset, TABLE_NAMES};
use mrq_tpch::queries;
use mrq_xtests::small_dataset;
use std::sync::Arc;

fn sale_schema() -> Schema {
    Schema::new(
        "Sale",
        vec![
            Field::new("id", DataType::Int64),
            Field::new("city", DataType::Str),
            Field::new("price", DataType::Decimal),
        ],
    )
}

fn populated_heap(n: i64) -> (Heap, ListId) {
    let mut heap = Heap::new();
    let class = heap.register_class(ClassDesc::from_schema(&sale_schema()));
    let list = heap.new_list("sales", Some(class));
    for i in 0..n {
        let obj = heap.alloc(class);
        heap.set_i64(obj, 0, i);
        heap.set_str(obj, 1, if i % 4 == 0 { "London" } else { "Paris" });
        heap.set_decimal(obj, 2, Decimal::from_int(i % 100));
        heap.list_push(list, obj);
    }
    (heap, list)
}

fn filter_statement() -> Expr {
    Query::from_source(SourceId(0))
        .where_(lam(
            "s",
            Expr::binary(BinaryOp::Eq, col("s", "city"), lit("London")),
        ))
        .select(lam("s", col("s", "price")))
        .into_expr()
}

#[test]
fn query_results_are_stable_across_repeated_collections() {
    let (heap, list) = populated_heap(2_000);
    let class = heap.class_by_name("Sale").unwrap();
    let mut heap = Arc::new(heap);
    let run = |heap: &Arc<Heap>| {
        let mut provider = Provider::over_shared_heap(Arc::clone(heap));
        provider.bind_managed(SourceId(0), list, sale_schema());
        provider
            .execute(filter_statement(), Strategy::CompiledCSharp)
            .unwrap()
    };
    let expected = run(&heap);
    assert_eq!(expected.rows.len(), 500);

    for round in 0..5 {
        // Each provider is gone by now, so the heap is exclusively ours.
        let heap_mut = Arc::get_mut(&mut heap).expect("no provider holds the heap");
        // Allocate unreachable temporaries, then collect.
        for i in 0..1_000 {
            let junk = heap_mut.alloc(class);
            heap_mut.set_i64(junk, 0, i);
            heap_mut.set_str(junk, 1, "garbage");
        }
        if round % 2 == 0 {
            heap_mut.collect_minor();
        } else {
            heap_mut.collect_full();
        }
        assert_eq!(run(&heap), expected, "round {round} changed the result");
    }
}

#[test]
fn every_strategy_survives_a_full_collection_on_tpch_data() {
    let data = small_dataset();
    let mut heap_data = HeapDataset::load(&data);
    heap_data.heap.collect_minor();
    heap_data.heap.collect_full();
    let lists = TABLE_NAMES.map(|table| heap_data.list(table));
    let mut provider = Provider::over_shared_heap(Arc::new(heap_data.heap));
    for (i, table) in TABLE_NAMES.iter().enumerate() {
        provider.bind_managed(SourceId(i as u32), lists[i], schema_of(table));
    }
    let linq = provider
        .execute(queries::q1(), Strategy::LinqToObjects)
        .unwrap();
    let csharp = provider
        .execute(queries::q1(), Strategy::CompiledCSharp)
        .unwrap();
    let hybrid = provider
        .execute(
            queries::q1(),
            Strategy::Hybrid(mrq_engine_hybrid::HybridConfig::default()),
        )
        .unwrap();
    assert_eq!(linq, csharp);
    assert_eq!(linq, hybrid);
}

#[test]
fn unreachable_temporaries_are_reclaimed() {
    let (mut heap, _list) = populated_heap(100);
    let class = heap.class_by_name("Sale").unwrap();
    let freed_before = heap.stats().objects_freed;
    let mut last = None;
    for _ in 0..5_000 {
        last = Some(heap.alloc(class));
    }
    let last = last.unwrap();
    assert!(heap.is_valid(last));
    // Not rooted anywhere: a full collection reclaims all of them.
    heap.collect_full();
    let freed = heap.stats().objects_freed - freed_before;
    assert!(
        freed >= 5_000,
        "all 5000 temporaries must be reclaimed (freed {freed})"
    );
    assert!(!heap.is_valid(last), "freed handles become invalid");
}

#[test]
fn pinned_objects_keep_their_address_across_collections() {
    let (mut heap, list) = populated_heap(300);
    let pinned = heap.list_get(list, 7);
    let moving = heap.list_get(list, 8);
    heap.pin(pinned);
    assert!(heap.is_pinned(pinned));
    let pinned_addr = heap.address_of(pinned);
    let class = heap.class_by_name("Sale").unwrap();
    // Create garbage so a copying collection actually relocates survivors.
    for _ in 0..2_000 {
        heap.alloc(class);
    }
    heap.collect_full();
    assert_eq!(
        heap.address_of(pinned),
        pinned_addr,
        "pinned objects must not move"
    );
    assert!(heap.is_valid(pinned));
    assert!(heap.is_valid(moving));
    // Field contents survive regardless of relocation.
    assert_eq!(heap.get_i64(pinned, 0), 7);
    assert_eq!(heap.get_i64(moving, 0), 8);
    heap.unpin(pinned);
    assert!(!heap.is_pinned(pinned));
}

#[test]
fn heap_tables_read_consistent_data_after_compaction() {
    let (mut heap, list) = populated_heap(1_000);
    let class = heap.class_by_name("Sale").unwrap();
    for _ in 0..3_000 {
        heap.alloc(class); // garbage interleaved with live objects
    }
    heap.collect_full();
    let table = HeapTable::new(&heap, list, sale_schema());
    let canon = canonicalize(filter_statement());
    let spec = mrq_codegen::spec::lower(&canon, &{
        let mut cat = std::collections::HashMap::new();
        cat.insert(SourceId(0), sale_schema());
        cat
    })
    .unwrap();
    let out = mrq_engine_csharp::execute(&spec, &canon.params, &[&table]).unwrap();
    assert_eq!(out.rows.len(), 250);
    // Every surviving object is still readable through the list.
    for i in 0..1_000 {
        let obj = heap.list_get(list, i);
        assert!(heap.is_valid(obj));
        assert_eq!(heap.get_i64(obj, 0), i as i64);
    }
    let _ = Value::Null;
}
