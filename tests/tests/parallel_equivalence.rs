//! Cross-strategy parallel equivalence: every strategy, at every degree of
//! parallelism, must return exactly what the single-threaded seed engines
//! return.
//!
//! Thread counts sweep {1, 2, 8}: 1 must take the engines' sequential paths,
//! 2 and 8 exercise morsel partitioning, worker-local staging shards and
//! partial-state merging. Comparisons are on sorted row text (duplicate sort
//! keys make row order within ties implementation-defined in principle, so
//! the suite asserts the multiset of rows plus the sort-key ordering), and
//! additionally on exact row order where the engines guarantee it.

use mrq_bench::Workbench;
use mrq_codegen::exec::QueryOutput;
use mrq_common::ParallelConfig;
use mrq_core::{Provider, Strategy};
use mrq_engine_csharp::HeapTable;
use mrq_engine_hybrid::{HybridConfig, Materialization, TransferPolicy};
use mrq_tpch::queries;
use std::sync::Arc;

const THREADS: [usize; 3] = [1, 2, 8];

fn workbench() -> Workbench {
    Workbench::new(0.002)
}

fn config_for(threads: usize) -> ParallelConfig {
    ParallelConfig {
        threads,
        // Low threshold so the tiny test dataset actually splits.
        min_rows_per_thread: 16,
        ..ParallelConfig::default()
    }
}

/// Like [`config_for`], but with a tiny morsel size so the shared cursor
/// actually hands out many morsels on the small test datasets.
fn morsel_config(threads: usize) -> ParallelConfig {
    config_for(threads).with_morsel_rows(64)
}

fn sorted_rows(out: &QueryOutput) -> Vec<String> {
    let mut rows: Vec<String> = out.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

fn assert_same(reference: &QueryOutput, parallel: &QueryOutput, context: &str) {
    assert_eq!(reference.schema, parallel.schema, "{context}: schema");
    assert_eq!(
        sorted_rows(reference),
        sorted_rows(parallel),
        "{context}: row multiset"
    );
}

/// The managed strategies (LINQ baseline, compiled C#, hybrid staging in all
/// four policy combinations) through the provider, with the provider-wide
/// degree of parallelism swept over {1, 2, 8}.
#[test]
fn managed_strategies_match_sequential_at_every_thread_count() {
    let wb = workbench();
    let strategies: Vec<(&str, Strategy)> = vec![
        ("linq", Strategy::LinqToObjects),
        ("csharp", Strategy::CompiledCSharp),
        ("hybrid full/max", Strategy::Hybrid(HybridConfig::default())),
        (
            "hybrid buffered/max",
            Strategy::Hybrid(HybridConfig::buffered()),
        ),
    ];
    for workload in [queries::q1(), queries::q3()] {
        let sequential = wb.managed_provider();
        let reference = sequential
            .execute(workload.clone(), Strategy::CompiledCSharp)
            .expect("sequential reference");
        for &threads in &THREADS {
            let mut provider = wb.managed_provider();
            provider.set_parallelism(config_for(threads));
            for (name, strategy) in &strategies {
                let out = provider
                    .execute(workload.clone(), *strategy)
                    .expect("parallel run");
                let context = format!("{name} at {threads} threads");
                assert_same(&reference, &out, &context);
                // Exact row order is preserved: morsels are contiguous and
                // partials merge in partition order.
                assert_eq!(reference.rows, out.rows, "{context}: row order");
            }
        }
    }
}

/// Min-transfer hybrid staging ships sort keys plus absolute row indexes and
/// rebuilds output columns from the original managed objects; the rebuilt
/// rows must match the fully-staged (Max) result at every thread count.
#[test]
fn min_transfer_result_construction_matches_at_every_thread_count() {
    let wb = workbench();
    let cutoff = wb.data.shipdate_for_selectivity(0.5);
    let workload = queries::sort_micro(cutoff);
    let provider = wb.managed_provider();
    let reference = provider
        .execute(workload.clone(), Strategy::CompiledCSharp)
        .expect("sequential reference");
    for &threads in &THREADS {
        for materialization in [
            Materialization::Full,
            Materialization::Buffered {
                rows_per_buffer: 256,
            },
        ] {
            let config = HybridConfig {
                materialization,
                transfer: TransferPolicy::Min,
                ..HybridConfig::default()
            }
            .parallel(config_for(threads));
            let out = provider
                .execute(workload.clone(), Strategy::Hybrid(config))
                .expect("min-transfer run");
            let context = format!("min transfer {materialization:?} at {threads} threads");
            assert_same(&reference, &out, &context);
            // The sort-key ordering must hold even when tie order is free.
            let keys: Vec<_> = out.rows.iter().map(|r| r[1].clone()).collect();
            assert!(
                keys.windows(2)
                    .all(|w| w[0].total_cmp(&w[1]) != std::cmp::Ordering::Greater),
                "{context}: sort keys ordered"
            );
        }
    }
}

/// The native strategy through the provider: explicit
/// `CompiledNativeParallel` configs and the provider-wide parallelism both
/// match the sequential native engine.
#[test]
fn native_strategy_matches_sequential_at_every_thread_count() {
    let wb = workbench();
    for workload in [queries::q1(), queries::q3()] {
        let canon = mrq_expr::canonicalize(workload.clone());
        let spec = mrq_codegen::spec::lower(&canon, &wb.catalog(None)).expect("lowers");
        let mut provider = Provider::new();
        let mut sources = vec![spec.root];
        sources.extend(spec.joins.iter().map(|j| j.source));
        for s in &sources {
            provider.bind_native_shared(*s, Arc::clone(&wb.stores[queries::source_table(*s)]));
        }
        let reference = provider
            .execute(workload.clone(), Strategy::CompiledNative)
            .expect("sequential native");
        for &threads in &THREADS {
            let explicit = provider
                .execute(
                    workload.clone(),
                    Strategy::CompiledNativeParallel(config_for(threads)),
                )
                .expect("explicit parallel native");
            assert_same(&reference, &explicit, &format!("explicit at {threads}"));
            assert_eq!(reference.rows, explicit.rows);
        }
        provider.set_parallelism(config_for(8));
        let implicit = provider
            .execute(workload.clone(), Strategy::CompiledNative)
            .expect("provider-parallel native");
        assert_same(&reference, &implicit, "provider-wide parallelism");
        assert_eq!(reference.rows, implicit.rows);
    }
}

/// The CI-matrix hook: the scheduler shape comes from the environment
/// (`MRQ_THREADS`, read by [`ParallelConfig::from_env`])
/// rather than from a hardcoded sweep, so every matrix cell exercises the
/// parallel paths it names on every push. Locally, with no `MRQ_*`
/// variables set, this runs the host-default configuration.
#[test]
fn env_selected_scheduler_config_matches_sequential() {
    // Keep the env thread count but lower the split thresholds so the tiny
    // test dataset actually parallelises; the matrix dimension is threads.
    let mut env_config = ParallelConfig::from_env();
    env_config.min_rows_per_thread = 16;
    env_config.morsel_rows = env_config.morsel_rows.min(64);
    let wb = workbench();

    // Managed strategies through a shared provider.
    for workload in [queries::q1(), queries::q3()] {
        let sequential = wb.managed_provider();
        let mut parallel = wb.managed_provider();
        parallel.set_parallelism(env_config);
        for (name, strategy) in [
            ("csharp", Strategy::CompiledCSharp),
            ("hybrid", Strategy::Hybrid(HybridConfig::default())),
        ] {
            let reference = sequential
                .execute(workload.clone(), strategy)
                .expect("sequential reference");
            let out = parallel.execute(workload.clone(), strategy).expect(name);
            let context = format!("{name} with env config (threads={})", env_config.threads);
            assert_same(&reference, &out, &context);
            // Every matrix cell also pins the counted-work contract: the
            // scheduler shape it names may only change `morsels_executed`.
            assert_eq!(
                parallel.last_work_stats().partition_invariant(),
                sequential.last_work_stats().partition_invariant(),
                "{context}: work counters"
            );
        }
    }

    // The native engine entry point with the same env-selected shape.
    let (canon, spec) = wb.lower(queries::q1());
    let stores = wb.row_stores(&spec);
    let reference =
        mrq_engine_native::execute(&spec, &canon.params, &stores).expect("sequential native");
    let parallel =
        mrq_engine_native::execute_parallel(&spec, &canon.params, &stores, &[], env_config)
            .expect("env-config native");
    assert_eq!(parallel, reference);
    assert_eq!(
        parallel.work_stats().partition_invariant(),
        reference.work_stats().partition_invariant(),
        "native env-config work counters"
    );
}

/// The direct engine entry points (bypassing the provider) agree with each
/// other across the heap, staged and native representations at 1/2/8
/// threads.
#[test]
fn engine_entry_points_agree_across_representations() {
    let wb = workbench();
    let (canon, spec) = wb.lower(queries::q1());
    let heap_tables = wb.heap_tables(&spec);
    let heap_refs: Vec<&HeapTable<'_>> = heap_tables.iter().collect();
    let stores = wb.row_stores(&spec);
    let reference =
        mrq_engine_csharp::execute(&spec, &canon.params, &heap_refs).expect("sequential C#");
    for &threads in &THREADS {
        let config = config_for(threads);
        let csharp = mrq_engine_csharp::execute_parallel(&spec, &canon.params, &heap_refs, config)
            .expect("parallel C#");
        assert_eq!(csharp, reference, "C# at {threads} threads");
        let native =
            mrq_engine_native::execute_parallel(&spec, &canon.params, &stores, &[], config)
                .expect("parallel native");
        assert_eq!(native, reference, "native at {threads} threads");
        let hybrid = mrq_engine_hybrid::execute(
            &spec,
            &canon.params,
            &heap_refs,
            HybridConfig::default().parallel(config),
        )
        .expect("parallel hybrid");
        assert_eq!(hybrid.output, reference, "hybrid at {threads} threads");
    }
    // Sanity: the workload is not trivially empty.
    assert!(!reference.rows.is_empty());
}

// ---------------------------------------------------------------------------
// Join-heavy coverage: parallel partitioned builds + skewed morsels
// ---------------------------------------------------------------------------

mod join_fixtures {
    use mrq_common::{DataType, Decimal, Field, Schema, Value};
    use mrq_engine_native::RowStore;
    use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
    use mrq_mheap::{ClassDesc, Heap, ListId};
    use std::collections::HashMap;

    pub fn sales_schema() -> Schema {
        Schema::new(
            "Sale",
            vec![
                Field::new("id", DataType::Int64),
                Field::new("city_id", DataType::Int64),
                Field::new("price", DataType::Decimal),
            ],
        )
    }

    pub fn cities_schema() -> Schema {
        Schema::new(
            "City",
            vec![
                Field::new("city_id", DataType::Int64),
                Field::new("population", DataType::Int64),
            ],
        )
    }

    /// Probe side with a heavily skewed build-key distribution: 80% of the
    /// rows hit city 0, so contiguous ranges carry wildly different probe
    /// work — exactly what the shared morsel cursor is for.
    pub fn sales_rows(n: i64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int64(i),
                    Value::Int64(if i % 10 < 8 { 0 } else { i % 64 }),
                    Value::Decimal(Decimal::from_int(i % 97)),
                ]
            })
            .collect()
    }

    pub fn cities_rows(n: i64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| vec![Value::Int64(i), Value::Int64(i * 1_000)])
            .collect()
    }

    pub fn stores(sales: i64, cities: i64) -> (RowStore, RowStore) {
        (
            RowStore::from_rows(sales_schema(), &sales_rows(sales)),
            RowStore::from_rows(cities_schema(), &cities_rows(cities)),
        )
    }

    /// The same data as managed heap objects (for the C# and hybrid paths).
    pub fn heap(sales: i64, cities: i64) -> (Heap, ListId, ListId) {
        let mut heap = Heap::new();
        let sale_class = heap.register_class(ClassDesc::from_schema(&sales_schema()));
        let city_class = heap.register_class(ClassDesc::from_schema(&cities_schema()));
        let sales_list = heap.new_list("sales", Some(sale_class));
        for row in sales_rows(sales) {
            let obj = heap.alloc(sale_class);
            heap.set_i64(obj, 0, row[0].as_i64().unwrap());
            heap.set_i64(obj, 1, row[1].as_i64().unwrap());
            heap.set_decimal(obj, 2, row[2].as_decimal().unwrap());
            heap.list_push(sales_list, obj);
        }
        let cities_list = heap.new_list("cities", Some(city_class));
        for row in cities_rows(cities) {
            let obj = heap.alloc(city_class);
            heap.set_i64(obj, 0, row[0].as_i64().unwrap());
            heap.set_i64(obj, 1, row[1].as_i64().unwrap());
            heap.list_push(cities_list, obj);
        }
        (heap, sales_list, cities_list)
    }

    pub fn catalog() -> HashMap<SourceId, Schema> {
        let mut map = HashMap::new();
        map.insert(SourceId(0), sales_schema());
        map.insert(SourceId(1), cities_schema());
        map
    }

    fn joined(filter_build: bool) -> Query {
        let build = if filter_build {
            // A build-side filter exercises the filtered parallel scatter.
            Query::from_source(SourceId(1)).where_(lam(
                "c",
                Expr::binary(BinaryOp::Ge, col("c", "population"), lit(2_000i64)),
            ))
        } else {
            Query::from_source(SourceId(1))
        };
        Query::from_source(SourceId(0)).join_query(
            build,
            lam("s", col("s", "city_id")),
            lam("c", col("c", "city_id")),
            lam(
                "s",
                lam(
                    "c",
                    Expr::Constructor {
                        name: "SC".into(),
                        fields: vec![
                            ("id".into(), col("s", "id")),
                            ("price".into(), col("s", "price")),
                            ("population".into(), col("c", "population")),
                        ],
                    },
                ),
            ),
        )
    }

    /// Plain join projection (row order must survive parallel merges).
    pub fn join_projection() -> Expr {
        joined(true).into_expr()
    }

    /// Join + grouped decimal aggregation (exact fixed-point merges) over a
    /// build side with a filter, sorted for a deterministic output order.
    pub fn join_aggregation() -> Expr {
        joined(false)
            .group_by(lam("r", col("r", "population")))
            .select(lam(
                "g",
                Expr::Constructor {
                    name: "R".into(),
                    fields: vec![
                        (
                            "population".into(),
                            Expr::member(Expr::member(mrq_expr::var("g"), "Key"), "population"),
                        ),
                        (
                            "total".into(),
                            mrq_expr::builder::agg(
                                mrq_expr::AggFunc::Sum,
                                "g",
                                Some(lam("x", col("x", "price"))),
                            ),
                        ),
                        (
                            "avg".into(),
                            mrq_expr::builder::agg(
                                mrq_expr::AggFunc::Average,
                                "g",
                                Some(lam("x", col("x", "price"))),
                            ),
                        ),
                        (
                            "n".into(),
                            mrq_expr::builder::agg(mrq_expr::AggFunc::Count, "g", None),
                        ),
                    ],
                },
            ))
            .order_by(lam("r", col("r", "population")))
            .into_expr()
    }
}

/// Join-heavy workloads (skewed build-key distribution, filtered build side,
/// grouped decimal aggregates) across every engine entry point, swept over
/// threads {1, 2, 8} with many small morsels: rows, order and decimal
/// aggregates must be bit-identical to the sequential engines.
#[test]
fn join_builds_match_sequential_with_skew() {
    use join_fixtures::*;
    let (sales_store, cities_store) = stores(6_000, 64);
    let (heap, sales_list, cities_list) = heap(6_000, 64);
    let sales_heap = HeapTable::new(&heap, sales_list, sales_schema());
    let cities_heap = HeapTable::new(&heap, cities_list, cities_schema());
    let heap_refs = [&sales_heap, &cities_heap];
    let store_refs = [&sales_store, &cities_store];

    for workload in [join_projection(), join_aggregation()] {
        let canon = mrq_expr::canonicalize(workload);
        let spec = mrq_codegen::spec::lower(&canon, &catalog()).expect("join lowers");
        let reference =
            mrq_engine_csharp::execute(&spec, &canon.params, &heap_refs).expect("sequential C#");
        let native_reference = mrq_engine_native::execute(&spec, &canon.params, &store_refs)
            .expect("sequential native");
        assert_eq!(reference, native_reference, "representations agree");
        assert!(!reference.rows.is_empty());

        for &threads in &THREADS {
            let config = morsel_config(threads);
            let context = format!("{threads} threads");
            let native =
                mrq_engine_native::execute_parallel(&spec, &canon.params, &store_refs, &[], config)
                    .expect("parallel native");
            assert_eq!(native, reference, "native {context}");
            let csharp =
                mrq_engine_csharp::execute_parallel(&spec, &canon.params, &heap_refs, config)
                    .expect("parallel C#");
            assert_eq!(csharp, reference, "C# {context}");
            for hybrid_base in [HybridConfig::default(), HybridConfig::buffered()] {
                let hybrid = mrq_engine_hybrid::execute(
                    &spec,
                    &canon.params,
                    &heap_refs,
                    hybrid_base.parallel(config),
                )
                .expect("parallel hybrid");
                assert_eq!(hybrid.output, reference, "hybrid {context}");
            }
        }
    }
}

/// An empty build side must produce an empty join result at every thread
/// count without panicking anywhere in the partitioned
/// build.
#[test]
fn empty_build_side_joins_match_sequential() {
    use join_fixtures::*;
    let (sales_store, cities_store) = stores(3_000, 0);
    let (heap, sales_list, cities_list) = heap(3_000, 0);
    let sales_heap = HeapTable::new(&heap, sales_list, sales_schema());
    let cities_heap = HeapTable::new(&heap, cities_list, cities_schema());
    let heap_refs = [&sales_heap, &cities_heap];
    let store_refs = [&sales_store, &cities_store];

    for workload in [join_projection(), join_aggregation()] {
        let canon = mrq_expr::canonicalize(workload);
        let spec = mrq_codegen::spec::lower(&canon, &catalog()).expect("join lowers");
        let reference =
            mrq_engine_csharp::execute(&spec, &canon.params, &heap_refs).expect("sequential C#");
        assert!(reference.rows.is_empty());
        for &threads in &THREADS {
            let config = morsel_config(threads);
            let native =
                mrq_engine_native::execute_parallel(&spec, &canon.params, &store_refs, &[], config)
                    .expect("parallel native");
            assert_eq!(native, reference);
            let csharp =
                mrq_engine_csharp::execute_parallel(&spec, &canon.params, &heap_refs, config)
                    .expect("parallel C#");
            assert_eq!(csharp, reference);
            let hybrid = mrq_engine_hybrid::execute(
                &spec,
                &canon.params,
                &heap_refs,
                HybridConfig::default().parallel(config),
            )
            .expect("parallel hybrid");
            assert_eq!(hybrid.output, reference);
        }
    }
}

/// The full TPC-H Q3 (string build keys on the customer side fall back to
/// the sequential build; integer keys partition) through the provider, at
/// every thread count: bit-identical to the sequential provider.
#[test]
fn q3_through_the_provider_matches_at_every_thread_count() {
    let wb = workbench();
    let sequential = wb.managed_provider();
    let reference = sequential
        .execute(queries::q3(), Strategy::CompiledCSharp)
        .expect("sequential reference");
    for &threads in &THREADS {
        let mut provider = wb.managed_provider();
        provider.set_parallelism(morsel_config(threads));
        for strategy in [
            Strategy::CompiledCSharp,
            Strategy::Hybrid(HybridConfig::default()),
        ] {
            let out = provider
                .execute(queries::q3(), strategy)
                .expect("parallel run");
            assert_eq!(
                reference.rows, out.rows,
                "{strategy:?} at {threads} threads"
            );
        }
    }
}
