//! Equality hash indexes over native row stores.
//!
//! The paper lists index support as future work (§9): once data lives in
//! database-style arrays of structs, the classic IMDB machinery becomes
//! applicable. A [`HashIndex`] is built once over one column of a
//! [`RowStore`] and can then replace the per-query
//! hash-table build of every join whose build key is exactly that column —
//! the equivalent of a primary-key/foreign-key index in a relational engine.
//!
//! Only fixed-width key columns can be indexed (integers, dates, decimals,
//! booleans). String keys are excluded because the executor encodes probe-side
//! strings with a per-execution interner, so a persistent index could not
//! produce matching key encodings.

use crate::RowStore;
use mrq_codegen::exec::{JoinIndex, TableAccess};
use mrq_codegen::spec::{JoinSpec, ScalarExpr};
use mrq_common::{morsel, DataType, MrqError, ParallelConfig, Result, Value};

/// Encodes an indexable value into the executor's 64-bit key representation.
/// Must agree with the probe-side encoding used by the fused executor.
pub fn encode_key(value: &Value) -> Option<u64> {
    match value {
        Value::Bool(b) => Some(*b as u64),
        Value::Int32(i) => Some(*i as i64 as u64),
        Value::Int64(i) => Some(*i as u64),
        Value::Decimal(d) => Some(d.raw() as u64),
        Value::Date(d) => Some(d.epoch_days() as u32 as u64),
        Value::Float64(_) | Value::Str(_) | Value::Null => None,
    }
}

/// True if a column of this type can back a [`HashIndex`].
pub fn indexable(dtype: DataType) -> bool {
    matches!(
        dtype,
        DataType::Bool | DataType::Int32 | DataType::Int64 | DataType::Decimal | DataType::Date
    )
}

/// An equality index over one fixed-width column of a row store.
#[derive(Debug, Clone)]
pub struct HashIndex {
    column: usize,
    dtype: DataType,
    index: JoinIndex,
}

impl HashIndex {
    /// Builds an index over `column` of `store`.
    ///
    /// Returns [`MrqError::Unsupported`] for string or floating-point
    /// columns.
    pub fn build(store: &RowStore, column: usize) -> Result<Self> {
        let field = store
            .schema()
            .fields()
            .get(column)
            .ok_or_else(|| MrqError::Internal(format!("no column {column} to index")))?;
        if !indexable(field.dtype) {
            return Err(MrqError::Unsupported(format!(
                "cannot build a hash index over a {} column",
                field.dtype
            )));
        }
        let mut index = JoinIndex::new();
        for row in 0..store.len() {
            let key =
                encode_key(&store.get_value(row, column)).expect("indexable columns always encode");
            index.insert(key, row);
        }
        Ok(HashIndex {
            column,
            dtype: field.dtype,
            index,
        })
    }

    /// Builds an index over `column` of `store` with hash-partitioned
    /// parallel workers: morsels of the table are scanned by the shared
    /// scheduler ([`mrq_common::morsel`]), each worker scatters `(key, row)`
    /// pairs into per-shard buckets by [`JoinIndex::shard_index`], and the
    /// shards are finalised into per-shard maps in parallel with zero merge
    /// contention. Per-key row lists stay in ascending row order (morsel
    /// partials are gathered in morsel order), so lookups return exactly
    /// what [`HashIndex::build`] returns. Sequential configs and tiny
    /// stores fall back to the sequential build.
    pub fn build_parallel(store: &RowStore, column: usize, config: ParallelConfig) -> Result<Self> {
        let workers = config.partitions_for(store.len());
        if workers <= 1 {
            return Self::build(store, column);
        }
        let field = store
            .schema()
            .fields()
            .get(column)
            .ok_or_else(|| MrqError::Internal(format!("no column {column} to index")))?;
        if !indexable(field.dtype) {
            return Err(MrqError::Unsupported(format!(
                "cannot build a hash index over a {} column",
                field.dtype
            )));
        }
        let shard_count = workers.next_power_of_two();
        let bits = shard_count.trailing_zeros();
        let shards =
            morsel::build_hash_shards(store.len(), config, shard_count, |range, buckets| {
                for row in range {
                    let key = encode_key(&store.get_value(row, column))
                        .expect("indexable columns always encode");
                    buckets[JoinIndex::shard_index(key, bits)].push((key, row));
                }
            });
        Ok(HashIndex {
            column,
            dtype: field.dtype,
            index: JoinIndex::from_shards(shards),
        })
    }

    /// The indexed column.
    pub fn column(&self) -> usize {
        self.column
    }

    /// The indexed column's type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the indexed table was empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Number of distinct key values.
    pub fn distinct_keys(&self) -> usize {
        self.index.distinct_keys()
    }

    /// Rows whose key equals `value` (empty for non-indexable values).
    pub fn lookup(&self, value: &Value) -> &[usize] {
        encode_key(value)
            .and_then(|k| self.index.get(k))
            .unwrap_or(&[])
    }

    /// The executor-facing index.
    pub fn join_index(&self) -> &JoinIndex {
        &self.index
    }

    /// Whether this index can serve the given join: the build side must be
    /// unfiltered and its single key must be exactly the indexed column.
    pub fn serves(&self, join: &JoinSpec) -> bool {
        if !join.build_filters.is_empty() || join.build_keys.len() != 1 {
            return false;
        }
        matches!(
            &join.build_keys[0],
            ScalarExpr::Column(c) if c.slot == join.slot && c.col == self.column
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrq_common::{Date, Decimal, Field, Schema};

    fn store() -> RowStore {
        let schema = Schema::new(
            "T",
            vec![
                Field::new("key", DataType::Int64),
                Field::new("name", DataType::Str),
                Field::new("price", DataType::Decimal),
                Field::new("day", DataType::Date),
            ],
        );
        let rows: Vec<Vec<Value>> = (0..20i64)
            .map(|i| {
                vec![
                    Value::Int64(i % 5),
                    Value::str(format!("row{i}")),
                    Value::Decimal(Decimal::from_int(i)),
                    Value::Date(Date::from_ymd(1995, 1, 1).add_days(i as i32)),
                ]
            })
            .collect();
        RowStore::from_rows(schema, &rows)
    }

    #[test]
    fn builds_over_integer_columns_and_groups_duplicates() {
        let s = store();
        let index = HashIndex::build(&s, 0).unwrap();
        assert_eq!(index.len(), 20);
        assert_eq!(index.distinct_keys(), 5);
        assert_eq!(index.lookup(&Value::Int64(2)), &[2, 7, 12, 17]);
        assert!(index.lookup(&Value::Int64(99)).is_empty());
        assert_eq!(index.column(), 0);
        assert_eq!(index.dtype(), DataType::Int64);
    }

    #[test]
    fn builds_over_date_and_decimal_columns() {
        let s = store();
        let by_price = HashIndex::build(&s, 2).unwrap();
        assert_eq!(by_price.lookup(&Value::Decimal(Decimal::from_int(7))), &[7]);
        let by_day = HashIndex::build(&s, 3).unwrap();
        assert_eq!(
            by_day.lookup(&Value::Date(Date::from_ymd(1995, 1, 4))),
            &[3]
        );
    }

    #[test]
    fn string_columns_are_rejected() {
        let s = store();
        let err = HashIndex::build(&s, 1).unwrap_err();
        assert!(matches!(err, MrqError::Unsupported(_)));
        assert!(HashIndex::build(&s, 99).is_err());
    }

    #[test]
    fn lookup_of_non_indexable_value_is_empty() {
        let s = store();
        let index = HashIndex::build(&s, 0).unwrap();
        assert!(index.lookup(&Value::str("not a key")).is_empty());
        assert!(index.lookup(&Value::Null).is_empty());
    }

    #[test]
    fn parallel_index_build_matches_sequential() {
        let schema = Schema::new("T", vec![Field::new("key", DataType::Int64)]);
        // Skewed key distribution: most rows share key 0.
        let rows: Vec<Vec<Value>> = (0..5_000i64)
            .map(|i| vec![Value::Int64(if i % 10 < 8 { 0 } else { i % 97 })])
            .collect();
        let s = RowStore::from_rows(schema.clone(), &rows);
        let reference = HashIndex::build(&s, 0).unwrap();
        for threads in [1usize, 2, 8] {
            let config = ParallelConfig {
                threads,
                min_rows_per_thread: 64,
                ..ParallelConfig::default()
            }
            .with_morsel_rows(128);
            let parallel = HashIndex::build_parallel(&s, 0, config).unwrap();
            assert_eq!(parallel.len(), reference.len());
            assert_eq!(parallel.distinct_keys(), reference.distinct_keys());
            for key in 0..100i64 {
                assert_eq!(
                    parallel.lookup(&Value::Int64(key)),
                    reference.lookup(&Value::Int64(key)),
                    "key {key} at {threads} threads"
                );
            }
        }
        // An empty store builds an empty (sequential) index.
        let empty = RowStore::new(schema);
        let index = HashIndex::build_parallel(&empty, 0, ParallelConfig::with_threads(8)).unwrap();
        assert!(index.is_empty());
    }

    #[test]
    fn empty_store_builds_an_empty_index() {
        let schema = Schema::new("T", vec![Field::new("key", DataType::Int64)]);
        let s = RowStore::new(schema);
        let index = HashIndex::build(&s, 0).unwrap();
        assert!(index.is_empty());
        assert_eq!(index.distinct_keys(), 0);
    }
}
