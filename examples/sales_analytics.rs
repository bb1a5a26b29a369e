//! A sales-analytics workload in the style of the paper's §6 example:
//! grouped revenue per city with a join, executed with every strategy and
//! timed.
//!
//! Run with `cargo run --release --example sales_analytics`.

use mrq_common::{DataType, Date, Decimal, Field, Schema};
use mrq_core::{Provider, Strategy};
use mrq_engine_hybrid::HybridConfig;
use mrq_expr::{col, lam, lit, AggFunc, BinaryOp, Expr, Query, SourceId};
use mrq_mheap::{ClassDesc, Heap};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let sale_schema = Schema::new(
        "Sale",
        vec![
            Field::new("shop_id", DataType::Int64),
            Field::new("price", DataType::Decimal),
            Field::new("when", DataType::Date),
        ],
    );
    let shop_schema = Schema::new(
        "Shop",
        vec![
            Field::new("id", DataType::Int64),
            Field::new("city", DataType::Str),
        ],
    );
    let mut heap = Heap::new();
    let sale_class = heap.register_class(ClassDesc::from_schema(&sale_schema));
    let shop_class = heap.register_class(ClassDesc::from_schema(&shop_schema));
    let sales = heap.new_list("sales", Some(sale_class));
    let shops = heap.new_list("shops", Some(shop_class));
    let cities = ["London", "Paris", "Berlin", "Madrid"];
    for id in 0..40i64 {
        let obj = heap.alloc(shop_class);
        heap.set_i64(obj, 0, id);
        heap.set_str(obj, 1, cities[(id % 4) as usize]);
        heap.list_push(shops, obj);
    }
    for i in 0..200_000i64 {
        let obj = heap.alloc(sale_class);
        heap.set_i64(obj, 0, i % 40);
        heap.set_decimal(obj, 1, Decimal::new(5 + i % 95, 99));
        heap.set_date(
            obj,
            2,
            Date::from_ymd(1995, 1, 1).add_days((i % 1000) as i32),
        );
        heap.list_push(sales, obj);
    }

    let mut provider = Provider::over_shared_heap(Arc::new(heap));
    provider.bind_managed(SourceId(0), sales, sale_schema);
    provider.bind_managed(SourceId(1), shops, shop_schema);

    // Revenue per city for sales in 1996, largest first.
    let statement = Query::from_source(SourceId(0))
        .where_(lam(
            "s",
            Expr::binary(
                BinaryOp::Ge,
                col("s", "when"),
                lit(Date::from_ymd(1996, 1, 1)),
            ),
        ))
        .join_query(
            Query::from_source(SourceId(1)),
            lam("s", col("s", "shop_id")),
            lam("p", col("p", "id")),
            lam(
                "s",
                lam(
                    "p",
                    Expr::Constructor {
                        name: "SaleCity".into(),
                        fields: vec![
                            ("city".into(), col("p", "city")),
                            ("price".into(), col("s", "price")),
                        ],
                    },
                ),
            ),
        )
        .group_by(lam("x", col("x", "city")))
        .select(lam(
            "g",
            Expr::Constructor {
                name: "CityRevenue".into(),
                fields: vec![
                    (
                        "city".into(),
                        Expr::member(Expr::member(mrq_expr::var("g"), "Key"), "city"),
                    ),
                    (
                        "revenue".into(),
                        mrq_expr::builder::agg(
                            AggFunc::Sum,
                            "g",
                            Some(lam("x", col("x", "price"))),
                        ),
                    ),
                    (
                        "sales".into(),
                        mrq_expr::builder::agg(AggFunc::Count, "g", None),
                    ),
                ],
            },
        ))
        .order_by_desc(lam("r", col("r", "revenue")))
        .into_expr();

    for (name, strategy) in [
        ("LINQ-to-objects", Strategy::LinqToObjects),
        ("compiled C#", Strategy::CompiledCSharp),
        ("hybrid C#/C", Strategy::Hybrid(HybridConfig::default())),
        (
            "hybrid C#/C (buffered)",
            Strategy::Hybrid(HybridConfig::buffered()),
        ),
    ] {
        let start = Instant::now();
        let out = provider.execute(statement.clone(), strategy).unwrap();
        println!("{name:<25} {:>8.2} ms", start.elapsed().as_secs_f64() * 1e3);
        if name == "LINQ-to-objects" {
            print!("{}", out.render(5));
        }
    }
}
