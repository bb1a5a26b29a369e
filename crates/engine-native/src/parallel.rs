//! Parallel execution over native row stores.
//!
//! The paper explicitly leaves parallel execution to future work (§4, §9) but
//! notes that its database-centric plan shape makes existing parallelisation
//! strategies directly applicable. This module provides that extension for
//! the native strategy: the probe-side scan is range-partitioned across
//! workers of the persistent pool by the shared morsel scheduler
//! ([`mrq_common::morsel`] over [`mrq_common::pool::WorkerPool`] — no
//! thread is spawned per query), each worker runs the same fused pipeline
//! over its partition, and the partial states (group hash tables, aggregate
//! states, top-N buffers or plain result rows) are merged at the end. The
//! same scheduler drives the compiled-C# and hybrid engines' parallel
//! paths.
//!
//! Joins build their hash tables per worker unless a [`HashIndex`] is
//! supplied for the build side, in which case all workers share the
//! pre-built index. Result rows keep the enumeration order of the underlying
//! collection because partitions are contiguous and merged in partition
//! order.

use crate::index::HashIndex;
use crate::RowStore;
use mrq_codegen::exec::{consume_partitioned, ExecState, JoinIndex, QueryOutput};
use mrq_codegen::spec::QuerySpec;
use mrq_common::{MrqError, Result, Schema, Value};

pub use mrq_common::ParallelConfig;

/// Executes a fused query spec over row stores with `config.threads` workers.
/// `tables[0]` is the probe side; subsequent tables follow `spec.joins`
/// order. `indexes[j]`, when given and applicable, replaces the hash-table
/// build of join `j` (see [`HashIndex::serves`]).
///
/// Build-side hash tables are built exactly once, themselves in parallel
/// (hash-partitioned shards, see [`ExecState::new_parallel`]); the shared
/// morsel scheduler ([`mrq_common::morsel`]) then forks the state per
/// worker (the built tables are shared behind an `Arc`), runs the identical
/// fused pipeline over work-stolen or static morsels and merges the partial
/// states in morsel order, so row order is preserved for non-sorted
/// outputs and results are bit-identical to the sequential engine.
pub fn execute_parallel(
    spec: &QuerySpec,
    params: &[Value],
    tables: &[&RowStore],
    indexes: &[Option<&HashIndex>],
    config: ParallelConfig,
) -> Result<QueryOutput> {
    mrq_common::fault::point("engine.native.probe")?;
    if tables.len() != spec.joins.len() + 1 {
        return Err(MrqError::Internal(format!(
            "expected {} tables, got {}",
            spec.joins.len() + 1,
            tables.len()
        )));
    }
    let schemas: Vec<Schema> = tables.iter().map(|t| t.schema().clone()).collect();
    let join_indexes = resolve_indexes(spec, indexes)?;
    let root = tables[0];
    let builds: Vec<&RowStore> = tables[1..].to_vec();
    let base = ExecState::new_parallel(spec, params, builds, &schemas, &join_indexes, config)?;
    // Lifecycle control: a submitted query that was cancelled (or whose
    // deadline lapsed) during the join builds stops here rather than paying
    // for the probe scan; the scan itself then checks between morsels.
    mrq_common::cancel::checkpoint();
    Ok(consume_partitioned(base, root, config))
}

/// Maps per-join [`HashIndex`]es to executor join indexes, dropping any index
/// that does not serve its join (wrong column, filtered build side).
fn resolve_indexes<'a>(
    spec: &QuerySpec,
    indexes: &[Option<&'a HashIndex>],
) -> Result<Vec<Option<&'a JoinIndex>>> {
    if !indexes.is_empty() && indexes.len() != spec.joins.len() {
        return Err(MrqError::Internal(format!(
            "expected {} join indexes, got {}",
            spec.joins.len(),
            indexes.len()
        )));
    }
    Ok(spec
        .joins
        .iter()
        .enumerate()
        .map(|(j, join)| {
            indexes
                .get(j)
                .copied()
                .flatten()
                .filter(|index| index.serves(join))
                .map(|index| index.join_index())
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute;
    use mrq_codegen::spec::lower;
    use mrq_common::{DataType, Date, Decimal, Field};
    use mrq_expr::{canonicalize, col, lam, lit, BinaryOp, Expr, Query, SourceId};
    use std::collections::HashMap;

    fn sales_schema() -> Schema {
        Schema::new(
            "Sale",
            vec![
                Field::new("id", DataType::Int64),
                Field::new("city_id", DataType::Int64),
                Field::new("price", DataType::Decimal),
                Field::new("day", DataType::Date),
            ],
        )
    }

    fn cities_schema() -> Schema {
        Schema::new(
            "City",
            vec![
                Field::new("city_id", DataType::Int64),
                Field::new("population", DataType::Int64),
            ],
        )
    }

    fn sales_store(n: i64) -> RowStore {
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|i| {
                vec![
                    Value::Int64(i),
                    Value::Int64(i % 50),
                    Value::Decimal(Decimal::from_int(i % 97)),
                    Value::Date(Date::from_ymd(1995, 1, 1).add_days((i % 400) as i32)),
                ]
            })
            .collect();
        RowStore::from_rows(sales_schema(), &rows)
    }

    fn cities_store() -> RowStore {
        let rows: Vec<Vec<Value>> = (0..50i64)
            .map(|i| vec![Value::Int64(i), Value::Int64(i * 1000)])
            .collect();
        RowStore::from_rows(cities_schema(), &rows)
    }

    fn catalog() -> HashMap<SourceId, Schema> {
        let mut map = HashMap::new();
        map.insert(SourceId(0), sales_schema());
        map.insert(SourceId(1), cities_schema());
        map
    }

    fn agg_query() -> Expr {
        Query::from_source(SourceId(0))
            .where_(lam(
                "s",
                Expr::binary(
                    BinaryOp::Le,
                    col("s", "day"),
                    lit(Date::from_ymd(1996, 1, 1)),
                ),
            ))
            .group_by(lam("s", col("s", "city_id")))
            .select(lam(
                "g",
                Expr::Constructor {
                    name: "R".into(),
                    fields: vec![
                        (
                            "city_id".into(),
                            Expr::member(Expr::member(mrq_expr::var("g"), "Key"), "city_id"),
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
            .order_by(lam("r", col("r", "city_id")))
            .into_expr()
    }

    fn join_query() -> Expr {
        Query::from_source(SourceId(0))
            .join_query(
                Query::from_source(SourceId(1)),
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
                                ("population".into(), col("c", "population")),
                            ],
                        },
                    ),
                ),
            )
            .order_by(lam("r", col("r", "id")))
            .take(40)
            .into_expr()
    }

    #[test]
    fn parallel_aggregation_matches_sequential() {
        let canon = canonicalize(agg_query());
        let spec = lower(&canon, &catalog()).unwrap();
        let store = sales_store(4_000);
        let sequential = execute(&spec, &canon.params, &[&store]).unwrap();
        for threads in [1, 2, 4, 7] {
            let parallel = execute_parallel(
                &spec,
                &canon.params,
                &[&store],
                &[],
                ParallelConfig {
                    threads,
                    min_rows_per_thread: 100,
                    ..ParallelConfig::default()
                },
            )
            .unwrap();
            assert_eq!(parallel, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_join_with_topn_matches_sequential() {
        let canon = canonicalize(join_query());
        let spec = lower(&canon, &catalog()).unwrap();
        let sales = sales_store(3_000);
        let cities = cities_store();
        let sequential = execute(&spec, &canon.params, &[&sales, &cities]).unwrap();
        let index = HashIndex::build(&cities, 0).unwrap();
        let parallel = execute_parallel(
            &spec,
            &canon.params,
            &[&sales, &cities],
            &[Some(&index)],
            ParallelConfig {
                threads: 4,
                min_rows_per_thread: 64,
                ..ParallelConfig::default()
            },
        )
        .unwrap();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn indexed_sequential_execution_matches_hash_build() {
        let canon = canonicalize(join_query());
        let spec = lower(&canon, &catalog()).unwrap();
        let sales = sales_store(1_000);
        let cities = cities_store();
        let reference = execute(&spec, &canon.params, &[&sales, &cities]).unwrap();
        let index = HashIndex::build(&cities, 0).unwrap();
        let indexed = execute_parallel(
            &spec,
            &canon.params,
            &[&sales, &cities],
            &[Some(&index)],
            ParallelConfig::sequential(),
        )
        .unwrap();
        assert_eq!(indexed, reference);
    }

    #[test]
    fn inapplicable_index_falls_back_to_hash_build() {
        let canon = canonicalize(join_query());
        let spec = lower(&canon, &catalog()).unwrap();
        let sales = sales_store(500);
        let cities = cities_store();
        // Index on the wrong column: population instead of the join key.
        let wrong = HashIndex::build(&cities, 1).unwrap();
        assert!(!wrong.serves(&spec.joins[0]));
        let out = execute_parallel(
            &spec,
            &canon.params,
            &[&sales, &cities],
            &[Some(&wrong)],
            ParallelConfig::sequential(),
        )
        .unwrap();
        let reference = execute(&spec, &canon.params, &[&sales, &cities]).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn small_inputs_do_not_split() {
        let config = ParallelConfig {
            threads: 8,
            min_rows_per_thread: 4096,
            ..ParallelConfig::default()
        };
        assert_eq!(config.partitions_for(100), 1);
        assert_eq!(config.partitions_for(0), 1);
        assert_eq!(config.partitions_for(10_000), 3);
        assert_eq!(ParallelConfig::with_threads(1).partitions_for(1_000_000), 1);
    }

    #[test]
    fn row_order_is_preserved_for_unsorted_projections() {
        let q = Query::from_source(SourceId(0))
            .where_(lam(
                "s",
                Expr::binary(BinaryOp::Lt, col("s", "city_id"), lit(10i64)),
            ))
            .select(lam("s", col("s", "id")))
            .into_expr();
        let canon = canonicalize(q);
        let spec = lower(&canon, &catalog()).unwrap();
        let store = sales_store(2_000);
        let sequential = execute(&spec, &canon.params, &[&store]).unwrap();
        let parallel = execute_parallel(
            &spec,
            &canon.params,
            &[&store],
            &[],
            ParallelConfig {
                threads: 5,
                min_rows_per_thread: 1,
                ..ParallelConfig::default()
            },
        )
        .unwrap();
        assert_eq!(parallel, sequential);
        // Enumeration order: ids ascending as in the source collection.
        let ids: Vec<i64> = parallel
            .rows
            .iter()
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn mismatched_table_count_is_reported() {
        let canon = canonicalize(join_query());
        let spec = lower(&canon, &catalog()).unwrap();
        let sales = sales_store(10);
        let err = execute_parallel(
            &spec,
            &canon.params,
            &[&sales],
            &[],
            ParallelConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, MrqError::Internal(_)));
    }
}
