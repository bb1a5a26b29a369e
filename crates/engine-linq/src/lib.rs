//! The LINQ-to-objects baseline (§2): a pull-based enumerable pipeline over
//! managed objects.
//!
//! This engine deliberately reproduces the execution paradigm whose
//! inefficiencies §2.3 of the paper catalogues:
//!
//! * every operator is its own boxed iterator (`MoveNext`-style dynamic
//!   dispatch per element per operator),
//! * predicates, selectors and key extractors are interpreted delegates that
//!   box every intermediate into a dynamic [`Value`],
//! * operators do not cooperate: `GroupBy` materialises each group, and
//!   **every aggregate of a group is computed in its own pass** over the
//!   group's elements,
//! * `OrderBy` sorts its entire input even when a `Take` follows,
//! * join results and intermediate records are materialised per element.
//!
//! The compiled strategies (the other engine crates) remove exactly these
//! overheads, which is what the paper's figures measure.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mrq_codegen::exec::{QueryOutput, TableAccess};
use mrq_codegen::spec::{AggSpec, OutputExpr, QuerySpec, ScalarExpr, StrOp};
use mrq_common::hash::FxHashMap;
use mrq_common::{DataType, MrqError, Result, Value, WorkCounters};
use mrq_expr::AggFunc;
use std::cell::Cell;
use std::rc::Rc;

/// One element flowing through the enumerable pipeline: the row index of the
/// object in each joined slot (a single-source element only uses slot 0).
#[derive(Clone)]
enum Item {
    Single(usize),
    Joined(Rc<Vec<usize>>),
}

impl Item {
    fn row(&self, slot: usize) -> usize {
        match self {
            Item::Single(r) => {
                debug_assert_eq!(slot, 0, "single-source element probed for slot {slot}");
                *r
            }
            Item::Joined(rows) => rows[slot],
        }
    }
}

type Pipe<'a> = Box<dyn Iterator<Item = Item> + 'a>;

/// Interprets a scalar expression against one pipeline element, boxing the
/// result as a [`Value`] — the per-element delegate-invocation overhead of
/// the baseline.
fn eval<T: TableAccess>(expr: &ScalarExpr, tables: &[&T], item: &Item, params: &[Value]) -> Value {
    match expr {
        ScalarExpr::Column(c) => tables[c.slot].get_value(item.row(c.slot), c.col),
        ScalarExpr::Const(v) => v.clone(),
        ScalarExpr::Param(i) => params[*i].clone(),
        ScalarExpr::Binary { op, left, right } => {
            let l = eval(left, tables, item, params);
            let r = eval(right, tables, item, params);
            mrq_expr::canonical::eval_binary(*op, &l, &r).unwrap_or(Value::Null)
        }
        ScalarExpr::Unary { op, expr } => {
            let v = eval(expr, tables, item, params);
            mrq_expr::canonical::eval_unary(*op, &v).unwrap_or(Value::Null)
        }
        ScalarExpr::Str { op, target, arg } => {
            let t = eval(target, tables, item, params);
            let a = eval(arg, tables, item, params);
            let out = match (t.as_str(), a.as_str()) {
                (Some(t), Some(a)) => match op {
                    StrOp::StartsWith => t.starts_with(a),
                    StrOp::EndsWith => t.ends_with(a),
                    StrOp::Contains => t.contains(a),
                },
                _ => false,
            };
            Value::Bool(out)
        }
    }
}

/// Computes one aggregate over a materialised group with its own full pass —
/// the paper's headline LINQ-to-objects inefficiency.
fn aggregate_pass<T: TableAccess>(
    agg: &AggSpec,
    group: &[Item],
    tables: &[&T],
    params: &[Value],
) -> Value {
    match agg.func {
        AggFunc::Count => Value::Int64(group.len() as i64),
        AggFunc::Sum => {
            let input = agg.input.as_ref().expect("sum needs a selector");
            match agg.dtype {
                DataType::Decimal => {
                    let mut total = mrq_common::Decimal::ZERO;
                    for item in group {
                        if let Some(d) = eval(input, tables, item, params).as_decimal() {
                            total += d;
                        }
                    }
                    Value::Decimal(total)
                }
                DataType::Float64 => {
                    let mut total = 0.0;
                    for item in group {
                        total += eval(input, tables, item, params).as_f64().unwrap_or(0.0);
                    }
                    Value::Float64(total)
                }
                _ => {
                    let mut total = 0i64;
                    for item in group {
                        total += eval(input, tables, item, params).as_i64().unwrap_or(0);
                    }
                    Value::Int64(total)
                }
            }
        }
        AggFunc::Average => {
            let input = agg.input.as_ref().expect("average needs a selector");
            // LINQ computes the count again for every aggregate rather than
            // sharing it (§2.3); reproduce that redundant pass.
            let count = group.len() as f64;
            if group.is_empty() {
                return Value::Null;
            }
            // Decimal averages accumulate exactly in fixed point (matching
            // the compiled engines, whose parallel merges rely on the
            // associativity of the exact sum); other inputs sum as f64.
            if agg.input_dtype == Some(DataType::Decimal) {
                let mut total = mrq_common::Decimal::ZERO;
                for item in group {
                    if let Some(d) = eval(input, tables, item, params).as_decimal() {
                        total += d;
                    }
                }
                return Value::Float64(total.to_f64() / count);
            }
            let mut total = 0.0;
            for item in group {
                total += eval(input, tables, item, params).as_f64().unwrap_or(0.0);
            }
            Value::Float64(total / count)
        }
        AggFunc::Min | AggFunc::Max => {
            let input = agg.input.as_ref().expect("min/max needs a selector");
            let mut best: Option<Value> = None;
            for item in group {
                let v = eval(input, tables, item, params);
                let better = match &best {
                    None => true,
                    Some(b) => {
                        let ord = v.total_cmp(b);
                        if agg.func == AggFunc::Min {
                            ord == std::cmp::Ordering::Less
                        } else {
                            ord == std::cmp::Ordering::Greater
                        }
                    }
                };
                if better {
                    best = Some(v);
                }
            }
            best.unwrap_or(Value::Null)
        }
    }
}

/// Executes a query spec with the LINQ-to-objects strategy. `tables[0]` is
/// the root collection; the rest follow `spec.joins` order.
pub fn execute<T: TableAccess>(
    spec: &QuerySpec,
    params: &[Value],
    tables: &[&T],
) -> Result<QueryOutput> {
    mrq_common::fault::point("engine.linq.scan")?;
    if tables.len() != spec.joins.len() + 1 {
        return Err(MrqError::Internal(format!(
            "expected {} tables, got {}",
            spec.joins.len() + 1,
            tables.len()
        )));
    }
    spec.check_params(params)?;
    let take = spec.effective_take(params)?;
    let slots = spec.joins.len() + 1;

    // Deterministic work accounting (`mrq_common::workcount`): the pipeline
    // closures below share these counters by reference, and the totals land
    // on the output. `Cell`s rather than a mutable borrow because several
    // boxed operator closures are alive at once.
    let rows_scanned = Cell::new(0u64);
    let probe_lookups = Cell::new(0u64);
    let key_comparisons = Cell::new(0u64);
    let rows_materialized = Cell::new(0u64);
    let mut build_inserts = 0u64;
    let scanned = &rows_scanned;

    // Source enumerable. The baseline pipeline has no morsels, so the
    // source itself is the cooperative cancellation point: at the shared
    // workspace cadence it checks the current scope's token (a no-op for
    // plain, unsubmitted execution).
    let mut enumerated = 0usize;
    let mut pipe: Pipe<'_> = Box::new((0..tables[0].len()).map(Item::Single).inspect(move |_| {
        scanned.set(scanned.get() + 1);
        enumerated += 1;
        if enumerated.is_multiple_of(mrq_common::cancel::CHECK_EVERY_ROWS) {
            mrq_common::cancel::checkpoint();
        }
    }));

    // One Where enumerable per conjunct: each adds its own per-element
    // dynamic dispatch, like chained LINQ Where calls.
    for filter in &spec.root_filters {
        let filter = filter.clone();
        pipe = Box::new(pipe.filter(move |item| eval(&filter, tables, item, params).as_bool()));
    }

    // Joins: LINQ's Join operator builds a lookup from the inner sequence,
    // then streams the outer sequence.
    for join in &spec.joins {
        // Inner sequence: its own Where pipeline, materialised into the
        // lookup (keys are boxed values).
        let mut lookup: FxHashMap<Vec<String>, Vec<usize>> = FxHashMap::default();
        let build_table = tables[join.slot];
        'inner: for row in 0..build_table.len() {
            rows_scanned.set(rows_scanned.get() + 1);
            let inner_item = Item::Single(row);
            // Build-side elements are evaluated against their own slot; wrap
            // the row index so column lookups resolve to the build table.
            let probe_item = Item::Joined(Rc::new(vec![row; slots]));
            for f in &join.build_filters {
                if !eval(f, tables, &probe_item, params).as_bool() {
                    continue 'inner;
                }
            }
            let key: Vec<String> = join
                .build_keys
                .iter()
                .map(|k| eval(k, tables, &probe_item, params).to_string())
                .collect();
            lookup.entry(key).or_default().push(row);
            build_inserts += 1;
            let _ = inner_item;
        }
        let lookup = Rc::new(lookup);
        let probe_keys = join.probe_keys.clone();
        let slot = join.slot;
        let probes = &probe_lookups;
        let comparisons = &key_comparisons;
        pipe = Box::new(pipe.flat_map(move |item| {
            let key: Vec<String> = probe_keys
                .iter()
                .map(|k| eval(k, tables, &item, params).to_string())
                .collect();
            probes.set(probes.get() + 1);
            comparisons.set(comparisons.get() + key.len() as u64);
            let matches = lookup.get(&key).cloned().unwrap_or_default();
            let base: Vec<usize> = match &item {
                Item::Single(r) => {
                    let mut v = vec![0usize; slots];
                    v[0] = *r;
                    v
                }
                Item::Joined(rows) => rows.as_ref().clone(),
            };
            matches.into_iter().map(move |m| {
                let mut rows = base.clone();
                rows[slot] = m;
                Item::Joined(Rc::new(rows))
            })
        }));
    }

    // Post-join filters.
    for filter in &spec.post_filters {
        let filter = filter.clone();
        pipe = Box::new(pipe.filter(move |item| eval(&filter, tables, item, params).as_bool()));
    }

    // Blocking operators.
    let mut rows: Vec<Vec<Value>> = if spec.is_grouped() {
        // GroupBy materialises every group...
        let mut order: Vec<Vec<String>> = Vec::new();
        let mut groups: FxHashMap<Vec<String>, (Vec<Value>, Vec<Item>)> = FxHashMap::default();
        for item in pipe {
            rows_materialized.set(rows_materialized.get() + 1);
            let key_values: Vec<Value> = spec
                .group_keys
                .iter()
                .map(|k| eval(k, tables, &item, params))
                .collect();
            let key: Vec<String> = key_values.iter().map(|v| v.to_string()).collect();
            if !groups.contains_key(&key) {
                order.push(key.clone());
                groups.insert(key.clone(), (key_values, Vec::new()));
            }
            groups.get_mut(&key).expect("inserted above").1.push(item);
        }
        // ...and the Select over the groups evaluates each aggregate with its
        // own pass over the group's elements.
        order
            .iter()
            .map(|key| {
                let (key_values, items) = &groups[key];
                spec.output
                    .iter()
                    .map(|(_, o)| match o {
                        OutputExpr::Key(i) => key_values[*i].clone(),
                        OutputExpr::Agg(i) => {
                            aggregate_pass(&spec.aggregates[*i], items, tables, params)
                        }
                        OutputExpr::Scalar(_) => unreachable!("grouped query"),
                    })
                    .collect()
            })
            .collect()
    } else {
        // Streamable shape (no sort, no Take, no hidden columns): when the
        // serving layer installed a stream scope, publish the collected rows
        // at the same cadence the source's cancel checkpoints use, so the
        // baseline bounds first-row latency exactly like the compiled
        // engines. Blocking shapes below keep buffering; their full result
        // ships as the stream's residual.
        let sink = if spec.sort.is_empty() && take.is_none() && spec.hidden_outputs == 0 {
            mrq_common::stream::current()
        } else {
            None
        };
        let mut out: Vec<Vec<Value>> = Vec::new();
        for item in pipe {
            rows_materialized.set(rows_materialized.get() + 1);
            out.push(
                spec.output
                    .iter()
                    .map(|(_, o)| match o {
                        OutputExpr::Scalar(e) => eval(e, tables, &item, params),
                        _ => unreachable!("non-grouped query"),
                    })
                    .collect(),
            );
            if let Some(sink) = &sink {
                if out.len() >= mrq_common::cancel::CHECK_EVERY_ROWS {
                    sink.send_rows(&mut out);
                }
            }
        }
        if let Some(sink) = &sink {
            sink.send_rows(&mut out);
        }
        out
    };

    // OrderBy sorts the full result, even under Take (§2.3).
    if !spec.sort.is_empty() {
        rows.sort_by(|a, b| {
            for key in &spec.sort {
                let ord = a[key.output_col].total_cmp(&b[key.output_col]);
                let ord = if key.descending { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
    }
    if let Some(n) = take {
        rows.truncate(n);
    }
    if spec.hidden_outputs > 0 {
        let visible = spec.visible_outputs();
        for row in &mut rows {
            row.truncate(visible);
        }
    }
    Ok(QueryOutput {
        schema: spec.output_schema.clone(),
        rows,
        work: WorkCounters {
            rows_scanned: rows_scanned.get(),
            build_inserts,
            probe_lookups: probe_lookups.get(),
            key_comparisons: key_comparisons.get(),
            rows_materialized: rows_materialized.get(),
            // The baseline is one single-threaded pass — never partitioned.
            morsels_executed: 1,
            // Streamed batch/row totals are folded in by the serving layer
            // from the channel's own counters at stream close.
            ..WorkCounters::default()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrq_codegen::spec::lower;
    use mrq_common::{Date, Decimal, Field, Schema};
    use mrq_engine_csharp::HeapTable;
    use mrq_expr::{canonicalize, col, lam, lit, BinaryOp, Expr, Query, SourceId};
    use mrq_mheap::{ClassDesc, Heap, ListId};
    use std::collections::HashMap;

    fn schema() -> Schema {
        Schema::new(
            "Sale",
            vec![
                Field::new("id", DataType::Int64),
                Field::new("city", DataType::Str),
                Field::new("price", DataType::Decimal),
                Field::new("day", DataType::Date),
            ],
        )
    }

    fn city_schema() -> Schema {
        Schema::new(
            "City",
            vec![
                Field::new("name", DataType::Str),
                Field::new("country", DataType::Str),
            ],
        )
    }

    fn setup() -> (Heap, ListId, ListId) {
        let mut heap = Heap::new();
        let sale = heap.register_class(ClassDesc::from_schema(&schema()));
        let city = heap.register_class(ClassDesc::from_schema(&city_schema()));
        let sales = heap.new_list("sales", Some(sale));
        let cities = heap.new_list("cities", Some(city));
        for i in 0..60i64 {
            let obj = heap.alloc(sale);
            heap.set_i64(obj, 0, i);
            heap.set_str(obj, 1, if i % 3 == 0 { "London" } else { "Paris" });
            heap.set_decimal(obj, 2, Decimal::from_int(i % 7));
            heap.set_date(
                obj,
                3,
                Date::from_ymd(1995, 1, 1).add_days((i % 200) as i32),
            );
            heap.list_push(sales, obj);
        }
        for (name, country) in [("London", "UK"), ("Paris", "FR")] {
            let obj = heap.alloc(city);
            heap.set_str(obj, 0, name);
            heap.set_str(obj, 1, country);
            heap.list_push(cities, obj);
        }
        (heap, sales, cities)
    }

    #[test]
    fn pipeline_results_match_the_compiled_engine_for_grouping() {
        let (heap, sales, _) = setup();
        let mut catalog = HashMap::new();
        catalog.insert(SourceId(0), schema());
        let canon = canonicalize(
            Query::from_source(SourceId(0))
                .where_(lam(
                    "s",
                    Expr::binary(BinaryOp::Gt, col("s", "price"), lit(Decimal::from_int(2))),
                ))
                .group_by(lam("s", col("s", "city")))
                .select(lam(
                    "g",
                    Expr::Constructor {
                        name: "R".into(),
                        fields: vec![
                            (
                                "city".into(),
                                Expr::member(Expr::member(mrq_expr::var("g"), "Key"), "city"),
                            ),
                            (
                                "total".into(),
                                mrq_expr::builder::agg(
                                    AggFunc::Sum,
                                    "g",
                                    Some(lam("x", col("x", "price"))),
                                ),
                            ),
                            (
                                "avg".into(),
                                mrq_expr::builder::agg(
                                    AggFunc::Average,
                                    "g",
                                    Some(lam("x", col("x", "price"))),
                                ),
                            ),
                            (
                                "n".into(),
                                mrq_expr::builder::agg(AggFunc::Count, "g", None),
                            ),
                        ],
                    },
                ))
                .order_by(lam("r", col("r", "city")))
                .into_expr(),
        );
        let spec = lower(&canon, &catalog).unwrap();
        let table = HeapTable::new(&heap, sales, schema());
        let linq = execute(&spec, &canon.params, &[&table]).unwrap();
        let compiled = mrq_engine_csharp::execute(&spec, &canon.params, &[&table]).unwrap();
        assert_eq!(linq, compiled);
    }

    #[test]
    fn join_and_sort_match_the_compiled_engine() {
        let (heap, sales, cities) = setup();
        let mut catalog = HashMap::new();
        catalog.insert(SourceId(0), schema());
        catalog.insert(SourceId(1), city_schema());
        let canon = canonicalize(
            Query::from_source(SourceId(0))
                .join_query(
                    Query::from_source(SourceId(1)),
                    lam("s", col("s", "city")),
                    lam("c", col("c", "name")),
                    lam(
                        "s",
                        lam(
                            "c",
                            Expr::Constructor {
                                name: "SC".into(),
                                fields: vec![
                                    ("id".into(), col("s", "id")),
                                    ("country".into(), col("c", "country")),
                                    ("price".into(), col("s", "price")),
                                ],
                            },
                        ),
                    ),
                )
                .order_by_desc(lam("r", col("r", "price")))
                .then_by(lam("r", col("r", "id")))
                .take(5)
                .into_expr(),
        );
        let spec = lower(&canon, &catalog).unwrap();
        let sales_table = HeapTable::new(&heap, sales, schema());
        let cities_table = HeapTable::new(&heap, cities, city_schema());
        let linq = execute(&spec, &canon.params, &[&sales_table, &cities_table]).unwrap();
        let compiled =
            mrq_engine_csharp::execute(&spec, &canon.params, &[&sales_table, &cities_table])
                .unwrap();
        assert_eq!(linq.rows.len(), 5);
        assert_eq!(linq, compiled);
    }
}
