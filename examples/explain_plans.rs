//! Inspecting what the query provider does to a statement: heuristic
//! rewrites (§2.3), the generated C#- and C-style source (§4/§5), the
//! measured compile cost (§7.4), and the caches that amortise it
//! (compiled-query cache §3, result recycling §9).
//!
//! Run with `cargo run --release --example explain_plans`.

use mrq_codegen::emit::{emit_source, Backend};
use mrq_common::{DataType, Date, Decimal, Field, Schema};
use mrq_core::{Provider, QueryOptimizerConfig, Strategy};
use mrq_expr::{and_all, col, lam, lit, BinaryOp, Expr, Query, SourceId};
use mrq_mheap::{ClassDesc, Heap};
use std::sync::Arc;
use std::time::Instant;

const ORDERS: SourceId = SourceId(0);
const CUSTOMERS: SourceId = SourceId(1);

fn orders_schema() -> Schema {
    Schema::new(
        "Order",
        vec![
            Field::new("Id", DataType::Int64),
            Field::new("CustomerId", DataType::Int64),
            Field::new("Total", DataType::Decimal),
            Field::new("Placed", DataType::Date),
        ],
    )
}

fn customers_schema() -> Schema {
    Schema::new(
        "Customer",
        vec![
            Field::new("Id", DataType::Int64),
            Field::new("Segment", DataType::Str),
            Field::new("Name", DataType::Str),
        ],
    )
}

/// A statement written the "naive" way §2.3 warns about: the join first, all
/// filters afterwards on the joined records.
fn naive_statement(segment: &str) -> Expr {
    Query::from_source(ORDERS)
        .join_query(
            Query::from_source(CUSTOMERS),
            lam("o", col("o", "CustomerId")),
            lam("c", col("c", "Id")),
            lam(
                "o",
                lam(
                    "c",
                    Expr::Constructor {
                        name: "OC".into(),
                        fields: vec![
                            ("OrderId".into(), col("o", "Id")),
                            ("Total".into(), col("o", "Total")),
                            ("Placed".into(), col("o", "Placed")),
                            ("Segment".into(), col("c", "Segment")),
                            ("Customer".into(), col("c", "Name")),
                        ],
                    },
                ),
            ),
        )
        .where_(lam(
            "r",
            and_all(vec![
                Expr::binary(BinaryOp::Eq, col("r", "Segment"), lit(segment)),
                Expr::binary(
                    BinaryOp::Ge,
                    col("r", "Placed"),
                    lit(Date::from_ymd(1995, 1, 1)),
                ),
                Expr::binary(BinaryOp::Gt, col("r", "Total"), lit(Decimal::from_int(100))),
            ]),
        ))
        .order_by_desc(lam("r", col("r", "Total")))
        .take(5)
        .into_expr()
}

fn main() {
    // A small managed dataset so the statement actually runs.
    let mut heap = Heap::new();
    let order_class = heap.register_class(ClassDesc::from_schema(&orders_schema()));
    let customer_class = heap.register_class(ClassDesc::from_schema(&customers_schema()));
    let orders = heap.new_list("orders", Some(order_class));
    let customers = heap.new_list("customers", Some(customer_class));
    for i in 0..60i64 {
        let c = heap.alloc(customer_class);
        heap.set_i64(c, 0, i);
        heap.set_str(c, 1, if i % 3 == 0 { "BUILDING" } else { "MACHINERY" });
        heap.set_str(c, 2, &format!("Customer#{i:03}"));
        heap.list_push(customers, c);
    }
    for i in 0..600i64 {
        let o = heap.alloc(order_class);
        heap.set_i64(o, 0, i);
        heap.set_i64(o, 1, i % 60);
        heap.set_decimal(o, 2, Decimal::from_int((i * 37) % 500));
        heap.set_date(o, 3, Date::from_ymd(1994, 1, 1).add_days((i % 900) as i32));
        heap.list_push(orders, o);
    }

    let heap = Arc::new(heap);
    let mut provider = Provider::over_shared_heap(Arc::clone(&heap));
    provider.bind_managed(ORDERS, orders, orders_schema());
    provider.bind_managed(CUSTOMERS, customers, customers_schema());
    provider.set_result_recycling(true);

    let statement = naive_statement("BUILDING");
    println!("statement as written:\n  {statement}\n");

    // 1. What the optimizer did to it.
    println!("heuristic rewrites applied:");
    for rewrite in provider.explain_rewrites(statement.clone()) {
        println!("  - {rewrite}");
    }
    println!();

    // 2. Compile it (cold: optimise, canonicalise, lower), then the source
    //    the paper's system would generate and compile, emitted on request.
    let start = Instant::now();
    let (_, spec) = provider.compile(statement.clone()).unwrap();
    let cold = start.elapsed();
    for (style, backend) in [
        ("C#-style (§4)", Backend::CSharp),
        ("C-style (§5)", Backend::C),
    ] {
        println!("--- generated {style} source ---");
        println!("{}", provider.explain(statement.clone(), backend).unwrap());
    }

    // 3. What compiling cost here (§7.4), measured once each. Nothing runs
    //    csc or gcc on the listings, so the paper's compiler latency is not
    //    reproduced.
    println!("compile cost, measured (§7.4):");
    println!("  cold compile : {:>6.1} µs", cold.as_secs_f64() * 1e6);
    for backend in [Backend::CSharp, Backend::C] {
        let start = Instant::now();
        emit_source(&spec, backend);
        let emit = start.elapsed().as_secs_f64() * 1e6;
        println!("  emit {:<7} : {emit:>6.1} µs", format!("{backend:?}"));
    }
    println!();

    // 4. Execute it a few times with different parameters: one compilation,
    //    repeated executions, recycled results for repeated parameters.
    for segment in ["BUILDING", "MACHINERY", "BUILDING", "BUILDING"] {
        let out = provider
            .execute(naive_statement(segment), Strategy::CompiledCSharp)
            .unwrap();
        println!("top orders for segment {segment}:");
        print!("{}", out.render(3));
        println!();
    }
    let plans = provider.plan_cache_stats();
    println!(
        "provider statistics: {} compilation(s), {} plan-cache hit(s), {} recycled result(s)",
        plans.misses,
        plans.hits,
        provider.stats().recycling.hits
    );

    // 5. The same statement with the optimizer off evaluates the filters
    //    after the join, exactly as written — the §2.3 behaviour the paper
    //    measures a ~35 % penalty for on Q3.
    let mut unoptimized = Provider::over_shared_heap(heap);
    unoptimized.bind_managed(ORDERS, orders, orders_schema());
    unoptimized.bind_managed(CUSTOMERS, customers, customers_schema());
    unoptimized.set_optimizer(QueryOptimizerConfig::disabled());
    let start = std::time::Instant::now();
    let as_written = unoptimized
        .execute(naive_statement("BUILDING"), Strategy::CompiledCSharp)
        .unwrap();
    let unoptimized_elapsed = start.elapsed();
    provider.invalidate_results(); // time a real execution, not a recycled one
    let start = std::time::Instant::now();
    let pushed = provider
        .execute(naive_statement("MACHINERY"), Strategy::CompiledCSharp)
        .unwrap();
    let optimized_elapsed = start.elapsed();
    assert_eq!(as_written.rows.len(), 5);
    assert_eq!(pushed.rows.len(), 5);
    println!(
        "\nfilters evaluated after the join (as written): {:>7.3} ms",
        unoptimized_elapsed.as_secs_f64() * 1e3
    );
    println!(
        "filters pushed below the join (optimizer):     {:>7.3} ms",
        optimized_elapsed.as_secs_f64() * 1e3
    );
}
