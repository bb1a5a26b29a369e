//! Quickstart: query an application's in-memory collection through the
//! provider with every execution strategy.
//!
//! Run with `cargo run --release --example quickstart`.

use mrq_common::{DataType, Decimal, Field, Schema};
use mrq_core::{Provider, Strategy};
use mrq_engine_hybrid::HybridConfig;
use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
use mrq_mheap::{ClassDesc, Heap};
use std::sync::Arc;

fn main() {
    // 1. The application's data model: a list of Shop objects in the managed
    //    heap (the paper's running example from §2).
    let schema = Schema::new(
        "Shop",
        vec![
            Field::new("Name", DataType::Str),
            Field::new("Population", DataType::Int64),
            Field::new("Revenue", DataType::Decimal),
        ],
    );
    let mut heap = Heap::new();
    let class = heap.register_class(ClassDesc::from_schema(&schema));
    let shops = heap.new_list("shops", Some(class));
    for (name, population, revenue) in [
        ("London", 8_900_000i64, 1250),
        ("Paris", 2_100_000, 980),
        ("London", 8_900_000, 410),
        ("Berlin", 3_700_000, 620),
    ] {
        let obj = heap.alloc(class);
        heap.set_str(obj, 0, name);
        heap.set_i64(obj, 1, population);
        heap.set_decimal(obj, 2, Decimal::from_int(revenue));
        heap.list_push(shops, obj);
    }

    // 2. Bind the collection to a query provider (the QList wrapper of §3).
    let mut provider = Provider::over_shared_heap(Arc::new(heap));
    provider.bind_managed(SourceId(0), shops, schema);

    // 3. The paper's example statement:
    //    from s in shops where s.Name == "London" select s.Revenue
    let statement = Query::from_source(SourceId(0))
        .where_(lam(
            "s",
            Expr::binary(BinaryOp::Eq, col("s", "Name"), lit("London")),
        ))
        .select(lam("s", col("s", "Revenue")))
        .into_expr();
    println!("statement: {statement}\n");

    // 4. Execute it with each strategy; results are identical, costs differ.
    for (name, strategy) in [
        ("LINQ-to-objects (baseline)", Strategy::LinqToObjects),
        ("compiled C# (fused, managed)", Strategy::CompiledCSharp),
        (
            "hybrid C#/C (staged)",
            Strategy::Hybrid(HybridConfig::default()),
        ),
    ] {
        let out = provider.execute(statement.clone(), strategy).unwrap();
        println!("{name}:");
        print!("{}", out.render(10));
        println!();
    }

    // 5. Inspect the source the provider would compile (§4/§5 listings).
    println!("--- generated C#-style source ---");
    println!(
        "{}",
        provider
            .explain(statement.clone(), mrq_codegen::emit::Backend::CSharp)
            .unwrap()
    );
    println!("--- generated C-style source ---");
    println!(
        "{}",
        provider
            .explain(statement, mrq_codegen::emit::Backend::C)
            .unwrap()
    );
}
