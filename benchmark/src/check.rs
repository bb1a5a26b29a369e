//! Result checking against the LINQ-to-objects oracle.
//!
//! Every distinct statement of a script is evaluated once during set-up by
//! the interpreted enumerable engine (`mrq_engine_linq`) over the
//! *un-optimised* expression tree, and reduced to a row count plus an
//! order-sensitive checksum. Every timed op's rows are reduced the same way
//! after its clock has stopped; a difference makes the op a failure.

use mrq_codegen::exec::QueryOutput;
use mrq_codegen::spec::{lower, Catalog, QuerySpec};
use mrq_common::Value;
use mrq_expr::{canonicalize, Expr};

/// What a result is compared by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Number of rows.
    pub rows: u64,
    /// Order-sensitive hash of every value of every row.
    pub checksum: u64,
}

const K: u64 = 0x517C_C1B7_2722_0A95;

fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(K)
}

fn mix_value(hash: u64, value: &Value) -> u64 {
    // A tag per variant, so `Int32(1)` and `Int64(1)` differ; floats by bit
    // pattern, so NaN compares equal to itself.
    match value {
        Value::Null => mix(hash, 0),
        Value::Bool(b) => mix(mix(hash, 1), *b as u64),
        Value::Int32(v) => mix(mix(hash, 2), *v as u64),
        Value::Int64(v) => mix(mix(hash, 3), *v as u64),
        Value::Decimal(d) => mix(mix(hash, 4), d.raw() as u64),
        Value::Float64(f) => mix(mix(hash, 5), f.to_bits()),
        Value::Date(d) => mix(mix(hash, 6), d.epoch_days() as u64),
        Value::Str(s) => s
            .bytes()
            .fold(mix(mix(hash, 7), s.len() as u64), |h, b| mix(h, b as u64)),
    }
}

/// Folds result rows, delivered in one piece or in batches, into a digest.
#[derive(Default)]
pub struct Digester {
    rows: u64,
    hash: u64,
}

impl Digester {
    /// Adds the next rows of the result, in delivery order.
    pub fn push(&mut self, rows: &[Vec<Value>]) {
        for row in rows {
            self.rows += 1;
            // The row boundary is part of the hash: [[a], [b]] ≠ [[a, b]].
            self.hash = row.iter().fold(mix(self.hash, row.len() as u64), mix_value);
        }
    }

    /// The digest of everything pushed.
    pub fn finish(&self) -> Digest {
        Digest {
            rows: self.rows,
            checksum: self.hash,
        }
    }
}

/// The digest of a complete result.
pub fn digest(rows: &[Vec<Value>]) -> Digest {
    let mut digester = Digester::default();
    digester.push(rows);
    digester.finish()
}

/// The oracle's digest of one statement: `expr` canonicalised exactly as
/// written — without the heuristic rewrites the provider applies, so the
/// reference answer does not depend on the optimizer under test — lowered,
/// and handed to `linq`, which runs `mrq_engine_linq::execute` over the
/// caller's tables.
pub fn oracle(
    expr: &Expr,
    catalog: &dyn Catalog,
    linq: impl FnOnce(&QuerySpec, &[Value]) -> mrq_common::Result<QueryOutput>,
) -> Result<Digest, String> {
    let canonical = canonicalize(expr.clone());
    let spec = lower(&canonical, catalog).map_err(|e| format!("oracle lowering: {e}"))?;
    linq(&spec, &canonical.params)
        .map(|output| digest(&output.rows))
        .map_err(|e| format!("oracle execution: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrq_common::{Date, Decimal};

    fn rows() -> Vec<Vec<Value>> {
        vec![
            vec![
                Value::Int64(1),
                Value::str("a"),
                Value::Decimal(Decimal::from_raw(150)),
            ],
            vec![
                Value::Int64(2),
                Value::str("b"),
                Value::Date(Date::from_ymd(1995, 3, 15)),
            ],
            vec![Value::Int64(3), Value::Null, Value::Float64(f64::NAN)],
        ]
    }

    #[test]
    fn equal_results_have_equal_digests_even_with_nan() {
        assert_eq!(digest(&rows()), digest(&rows()));
        assert_eq!(digest(&rows()).rows, 3);
    }

    #[test]
    fn checksum_catches_a_swapped_row() {
        let mut swapped = rows();
        swapped.swap(0, 1);
        assert_eq!(digest(&swapped).rows, digest(&rows()).rows);
        assert_ne!(digest(&swapped).checksum, digest(&rows()).checksum);
    }

    #[test]
    fn checksum_catches_a_changed_value_a_changed_type_and_a_moved_boundary() {
        let mut changed = rows();
        changed[1][0] = Value::Int64(20);
        assert_ne!(digest(&changed), digest(&rows()));
        let mut retyped = rows();
        retyped[0][0] = Value::Int32(1);
        assert_ne!(digest(&retyped), digest(&rows()));
        let split = vec![vec![Value::Int64(1)], vec![Value::Int64(2)]];
        let joined = vec![vec![Value::Int64(1), Value::Int64(2)]];
        assert_ne!(digest(&split).checksum, digest(&joined).checksum);
    }

    #[test]
    fn batched_delivery_digests_like_one_piece() {
        let all = rows();
        let mut digester = Digester::default();
        digester.push(&all[..1]);
        digester.push(&all[1..]);
        assert_eq!(digester.finish(), digest(&all));
    }
}
