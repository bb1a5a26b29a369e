//! Parallel analytics over a native row store: the §9 extensions in action.
//!
//! An application that opts into the §5 representation — fixed-length arrays
//! of structs — gets database machinery for free: pre-built hash indexes on
//! join keys, a morsel-partitioned parallel scan, and the fused top-N of
//! §2.3. This example loads a TPC-H subset into row stores and runs the Q3
//! join/aggregation with each of those features, printing the timings.
//!
//! Run with `cargo run --release --example parallel_analytics`.

use mrq_core::{ParallelConfig, Provider, Strategy};
use mrq_engine_native::{execute_parallel, HashIndex, RowStore};
use mrq_expr::SourceId;
use mrq_tpch::gen::{scale_from_env, GenConfig, TpchData};
use mrq_tpch::load::{schema_of, value_rows};
use mrq_tpch::queries;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let scale = scale_from_env().unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!("generating TPC-H data at scale factor {scale} ...");
    let data = TpchData::generate(GenConfig::scale(scale));

    // Load the three Q3 tables into native row stores (arrays of structs).
    let mut stores: HashMap<&str, Arc<RowStore>> = HashMap::new();
    for table in ["lineitem", "orders", "customer"] {
        let store = RowStore::from_rows(schema_of(table), &value_rows(&data, table));
        stores.insert(table, Arc::new(store));
    }
    println!(
        "loaded {} lineitem rows, {} orders, {} customers into row stores\n",
        data.lineitem.len(),
        data.orders.len(),
        data.customer.len()
    );

    // 1. The TPC-H Q1 aggregation through the provider: sequential vs the
    //    range-partitioned parallel scan (aggregation parallelises cleanly;
    //    small joins are dominated by the merge/thread overhead).
    let mut provider = Provider::new();
    provider.bind_native_shared(queries::SRC_LINEITEM, Arc::clone(&stores["lineitem"]));
    provider.bind_native_shared(queries::SRC_ORDERS, Arc::clone(&stores["orders"]));
    provider.bind_native_shared(queries::SRC_CUSTOMER, Arc::clone(&stores["customer"]));

    let start = Instant::now();
    let sequential = provider
        .execute(queries::q1(), Strategy::CompiledNative)
        .expect("sequential Q1");
    let sequential_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "Q1 sequential native:            {sequential_ms:8.2} ms  ({} result rows)",
        sequential.rows.len()
    );

    for threads in [2, 4, 8] {
        let start = Instant::now();
        let parallel = provider
            .execute(
                queries::q1(),
                Strategy::CompiledNativeParallel(ParallelConfig {
                    threads,
                    min_rows_per_thread: 2048,
                    ..ParallelConfig::default()
                }),
            )
            .expect("parallel Q1");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(parallel.rows.len(), sequential.rows.len());
        println!(
            "Q1 parallel native ({threads} threads):  {ms:8.2} ms  (speed-up {:.2}x)",
            sequential_ms / ms
        );
    }
    println!();

    // 2. The Q3 join probe with pre-built indexes on the join keys, compared
    //    to building hash tables per query.
    let date = mrq_common::Date::from_ymd(1995, 3, 15);
    let join = queries::join_micro_naive("BUILDING", date, date);
    let canon = mrq_expr::canonicalize(join);
    let mut catalog = HashMap::new();
    for (source, table) in [
        (queries::SRC_LINEITEM, "lineitem"),
        (queries::SRC_ORDERS, "orders"),
        (queries::SRC_CUSTOMER, "customer"),
    ] {
        catalog.insert(source, schema_of(table));
    }
    let spec = mrq_codegen::spec::lower(&canon, &catalog).expect("join lowers");
    let tables: Vec<&RowStore> = vec![&stores["lineitem"], &stores["orders"], &stores["customer"]];

    let start = Instant::now();
    let hash_build = mrq_engine_native::execute(&spec, &canon.params, &tables).expect("join");
    let hash_ms = start.elapsed().as_secs_f64() * 1e3;

    let build_start = Instant::now();
    let orders_index = HashIndex::build(&stores["orders"], 0).expect("orders index");
    let customer_index = HashIndex::build(&stores["customer"], 0).expect("customer index");
    let index_build_ms = build_start.elapsed().as_secs_f64() * 1e3;

    let start = Instant::now();
    let indexed = execute_parallel(
        &spec,
        &canon.params,
        &tables,
        &[Some(&orders_index), Some(&customer_index)],
        ParallelConfig::sequential(),
    )
    .expect("indexed join");
    let indexed_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(indexed.rows.len(), hash_build.rows.len());

    println!("Q3 join, hash tables built per query:  {hash_ms:8.2} ms");
    println!("Q3 join, pre-built key indexes:        {indexed_ms:8.2} ms  (index build, once: {index_build_ms:.2} ms)");

    let start = Instant::now();
    let both = execute_parallel(
        &spec,
        &canon.params,
        &tables,
        &[Some(&orders_index), Some(&customer_index)],
        ParallelConfig::with_threads(4),
    )
    .expect("parallel indexed join");
    println!(
        "Q3 join, indexes + 4 worker threads:   {:8.2} ms  ({} join rows)\n",
        start.elapsed().as_secs_f64() * 1e3,
        both.rows.len()
    );

    // 3. Top-N fusion: the §2.3 OrderBy + Take example over lineitem.
    let topn = queries::sort_topn_micro(data.shipdate_for_selectivity(1.0), 10);
    let start = Instant::now();
    let provider_out = provider
        .execute(topn, Strategy::CompiledNative)
        .expect("top-N query");
    println!(
        "top-10 of sorted lineitem (fused top-N): {:8.2} ms",
        start.elapsed().as_secs_f64() * 1e3
    );
    println!("most expensive items:");
    print!("{}", provider_out.render(5));
    let _ = SourceId(0);
}
