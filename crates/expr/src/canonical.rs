//! Canonicalisation: constant folding and parameter extraction.
//!
//! The paper's `ConstantEvaluator` (§3) walks the expression tree, evaluates
//! every sub-tree that does not depend on the source data and replaces it
//! with a constant node; the result is the query's *canonical form*, which
//! is then used as the cache key. The cache additionally reuses compiled
//! code when "the expression trees are essentially the same, but one or more
//! parameters in the query differ". We implement that by replacing every
//! remaining literal with a positional [`Expr::QueryParam`] and extracting
//! the literal values into a parameter vector.

use crate::tree::{BinaryOp, Expr, UnaryOp};
use crate::types::{binary_type, numeric_type, unary_type};
use mrq_common::error::division_by_zero;
use mrq_common::{DataType, Decimal, MrqError, Result, Value};

/// A query in canonical form: the parameterised tree plus the extracted
/// parameter bindings for this particular instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalQuery {
    /// The folded, parameterised expression tree.
    pub expr: Expr,
    /// Literal values extracted from the tree, indexed by
    /// [`Expr::QueryParam`] position.
    pub params: Vec<Value>,
    /// Structural hash of `expr` (the cache key).
    pub shape_hash: u64,
}

/// Evaluates constant sub-expressions (the `ConstantEvaluator` pass).
///
/// Folding is conservative: only arithmetic, comparisons and boolean
/// connectives over literal constants are evaluated. Anything touching a
/// parameter, member access or source survives untouched, and so does a
/// node whose evaluation fails (an ill-typed node, a zero divisor): the
/// lowering reports the first, each execution the second.
pub fn fold_constants(expr: Expr) -> Expr {
    expr.transform(&mut |node| match node {
        Expr::Binary { op, left, right } => match (left.as_ref(), right.as_ref()) {
            (Expr::Constant(l), Expr::Constant(r)) => match eval_binary(op, l, r) {
                Ok(v) => Expr::Constant(v),
                Err(_) => Expr::Binary { op, left, right },
            },
            _ => Expr::Binary { op, left, right },
        },
        Expr::Unary { op, expr } => match expr.as_ref() {
            Expr::Constant(v) => match eval_unary(op, v) {
                Ok(folded) => Expr::Constant(folded),
                Err(_) => Expr::Unary { op, expr },
            },
            _ => Expr::Unary { op, expr },
        },
        other => other,
    })
}

fn dtype(value: &Value) -> Result<DataType> {
    value
        .dtype()
        .ok_or_else(|| MrqError::Codegen("untyped null constant".into()))
}

/// `value`, of a numeric type, as a value of the numeric type `to`.
fn numeric(value: &Value, to: DataType) -> Value {
    match to {
        DataType::Int64 => value.as_i64().map(Value::Int64),
        DataType::Decimal => value.as_decimal().map(Value::Decimal),
        _ => value.as_f64().map(Value::Float64),
    }
    .expect("operand typed by the type table")
}

/// Evaluates `left op right` to a value of the type [`binary_type`] gives
/// the operands' types, or that type error. A zero integer or decimal
/// divisor is [`division_by_zero`]; float division is IEEE.
pub fn eval_binary(op: BinaryOp, left: &Value, right: &Value) -> Result<Value> {
    use BinaryOp::*;
    let (l, r) = (dtype(left)?, dtype(right)?);
    let out = binary_type(op, l, r)?;
    if let Some(t) = numeric_type(l, r).filter(|_| l != r) {
        // Two numeric types meet in the wider one.
        return eval_binary(op, &numeric(left, t), &numeric(right, t));
    }
    let int = |v: &Value| v.as_i64().expect("typed as an integer");
    Ok(match (op, left, right) {
        (And, a, b) => Value::Bool(a.as_bool() && b.as_bool()),
        (Or, a, b) => Value::Bool(a.as_bool() || b.as_bool()),
        (op, a, b) if op.is_comparison() => {
            let ord = a.total_cmp(b);
            Value::Bool(match op {
                Eq => ord.is_eq(),
                Ne => ord.is_ne(),
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                _ => ord.is_ge(),
            })
        }
        (_, Value::Date(a), Value::Date(b)) => {
            Value::Int64(a.epoch_days() as i64 - b.epoch_days() as i64)
        }
        (op, Value::Date(d), n) | (op, n, Value::Date(d)) => {
            let days = int(n) as i32;
            Value::Date(d.add_days(if op == Sub { -days } else { days }))
        }
        (op, Value::Int32(_) | Value::Int64(_), _) => {
            Value::Int64(arith_i64(op, int(left), int(right))?)
        }
        (op, Value::Decimal(a), Value::Decimal(b)) => Value::Decimal(arith_decimal(op, *a, *b)?),
        (op, Value::Float64(a), Value::Float64(b)) => Value::Float64(arith_f64(op, *a, *b)),
        _ => unreachable!("{out} computed from {l} and {r}"),
    })
}

/// Evaluates `op value` to a value of the type [`unary_type`] gives, or
/// that type error.
pub fn eval_unary(op: UnaryOp, value: &Value) -> Result<Value> {
    let out = unary_type(op, dtype(value)?)?;
    if op == UnaryOp::Not {
        return Ok(Value::Bool(!value.as_bool()));
    }
    Ok(match numeric(value, out) {
        Value::Int64(v) => Value::Int64(v.wrapping_neg()),
        Value::Decimal(d) => Value::Decimal(-d),
        v => Value::Float64(-v.as_f64().expect("typed as Float64")),
    })
}

fn overflow(symbol: &str) -> MrqError {
    MrqError::Internal(format!("`{symbol}` overflowed"))
}

/// C#'s default unchecked integer arithmetic, which is also what the
/// compiled closures compute in a release build.
fn arith_i64(op: BinaryOp, a: i64, b: i64) -> Result<i64> {
    Ok(match op {
        BinaryOp::Add => a.wrapping_add(b),
        BinaryOp::Sub => a.wrapping_sub(b),
        BinaryOp::Mul => a.wrapping_mul(b),
        _ if b == 0 => return Err(division_by_zero()),
        _ => a.checked_div(b).ok_or_else(|| overflow(op.symbol()))?,
    })
}

fn arith_decimal(op: BinaryOp, a: Decimal, b: Decimal) -> Result<Decimal> {
    match op {
        BinaryOp::Add => Ok(a + b),
        BinaryOp::Sub => Ok(a - b),
        BinaryOp::Mul => a.checked_mul(b).ok_or_else(|| overflow(op.symbol())),
        _ if b == Decimal::ZERO => Err(division_by_zero()),
        _ => Ok(Decimal::from_f64(a.to_f64() / b.to_f64())),
    }
}

fn arith_f64(op: BinaryOp, a: f64, b: f64) -> f64 {
    match op {
        BinaryOp::Add => a + b,
        BinaryOp::Sub => a - b,
        BinaryOp::Mul => a * b,
        _ => a / b,
    }
}

/// Puts a query in canonical form: folds constants, then replaces every
/// remaining literal (except the boolean produced by an empty predicate)
/// with a positional parameter and extracts the bindings.
pub fn canonicalize(expr: Expr) -> CanonicalQuery {
    let folded = fold_constants(expr);
    let mut params = Vec::new();
    let parameterised = folded.transform(&mut |node| match node {
        Expr::Constant(value) => {
            let index = params.len();
            params.push(value);
            Expr::QueryParam(index)
        }
        other => other,
    });
    let shape_hash = parameterised.structural_hash();
    CanonicalQuery {
        expr: parameterised,
        params,
        shape_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{col, lam, lit, Query};
    use crate::tree::SourceId;
    use mrq_common::Date;

    #[test]
    fn constant_arithmetic_is_folded() {
        // 1 + 2 * 3 (built right-assoc for the test) -> 7
        let e = Expr::binary(
            BinaryOp::Add,
            lit(1i64),
            Expr::binary(BinaryOp::Mul, lit(2i64), lit(3i64)),
        );
        assert_eq!(fold_constants(e), lit(7i64));
    }

    #[test]
    fn date_interval_arithmetic_is_folded() {
        // The Q1 predicate: shipdate <= date '1998-12-01' - 90
        let e = Expr::binary(
            BinaryOp::Le,
            col("l", "l_shipdate"),
            Expr::binary(BinaryOp::Sub, lit(Date::from_ymd(1998, 12, 1)), lit(90i64)),
        );
        let folded = fold_constants(e);
        match folded {
            Expr::Binary { right, .. } => {
                assert_eq!(*right, lit(Date::from_ymd(1998, 9, 2)));
            }
            other => panic!("unexpected shape {other:?}"),
        }
        // `integer + date` shifts too; `date − date` counts days.
        let (early, late) = (Date::from_ymd(1998, 9, 2), Date::from_ymd(1998, 12, 1));
        let shifted = Expr::binary(BinaryOp::Add, lit(90i64), lit(early));
        assert_eq!(fold_constants(shifted), lit(late));
        let days = Expr::binary(BinaryOp::Sub, lit(late), lit(early));
        assert_eq!(fold_constants(days), lit(90i64));
    }

    #[test]
    fn member_access_is_never_folded() {
        let e = Expr::binary(BinaryOp::Eq, col("s", "Name"), lit("London"));
        assert_eq!(fold_constants(e.clone()), e);
    }

    #[test]
    fn logical_and_comparison_folding() {
        assert_eq!(
            eval_binary(BinaryOp::And, &Value::Bool(true), &Value::Bool(false)),
            Ok(Value::Bool(false))
        );
        assert_eq!(
            eval_binary(BinaryOp::Lt, &Value::Int64(1), &Value::Int64(2)),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            eval_binary(BinaryOp::Eq, &Value::str("a"), &Value::str("a")),
            Ok(Value::Bool(true))
        );
        // Incompatible types are the type table's error.
        assert_eq!(
            eval_binary(BinaryOp::Eq, &Value::str("a"), &Value::Int64(1)),
            Err(MrqError::Codegen(
                "`==` is not defined over Str and Int64".into()
            ))
        );
        // A zero divisor is an error, and folding leaves the node to fail
        // at run time on every strategy alike.
        for zero in [Value::Int32(0), Value::Decimal(Decimal::ZERO)] {
            assert_eq!(
                eval_binary(BinaryOp::Div, &Value::Int64(1), &zero),
                Err(division_by_zero())
            );
            let node = Expr::binary(BinaryOp::Div, lit(1i64), Expr::Constant(zero));
            assert_eq!(fold_constants(node.clone()), node);
        }
        assert_eq!(
            eval_binary(BinaryOp::Div, &Value::Float64(1.0), &Value::Int64(0)),
            Ok(Value::Float64(f64::INFINITY))
        );
    }

    #[test]
    fn mixed_integer_and_decimal_operands_promote_to_decimal() {
        let two = Value::Int32(2);
        let price = Value::Decimal(Decimal::new(1, 25));
        assert_eq!(
            eval_binary(BinaryOp::Mul, &two, &price),
            Ok(Value::Decimal(Decimal::new(2, 50)))
        );
        assert_eq!(
            eval_binary(BinaryOp::Sub, &price, &Value::Int64(1)),
            Ok(Value::Decimal(Decimal::new(0, 25)))
        );
        // Comparisons are numeric, not by type rank.
        assert_eq!(
            eval_binary(BinaryOp::Gt, &price, &Value::Int64(1)),
            Ok(Value::Bool(true))
        );
        assert_eq!(
            eval_binary(BinaryOp::Lt, &Value::Int64(2), &price),
            Ok(Value::Bool(false))
        );
        assert_eq!(
            eval_binary(BinaryOp::Lt, &Value::Float64(1.2), &price),
            Ok(Value::Bool(true))
        );
        // Integer arithmetic is Int64, whatever the operands' widths, and
        // unchecked, as in C#.
        assert!(matches!(
            eval_binary(BinaryOp::Add, &two, &two),
            Ok(Value::Int64(4))
        ));
        assert_eq!(
            eval_binary(BinaryOp::Mul, &Value::Int64(i64::MAX), &two),
            Ok(Value::Int64(-2))
        );
    }

    #[test]
    fn unary_folding() {
        assert_eq!(
            eval_unary(UnaryOp::Not, &Value::Bool(true)),
            Ok(Value::Bool(false))
        );
        assert_eq!(
            eval_unary(UnaryOp::Neg, &Value::Int64(5)),
            Ok(Value::Int64(-5))
        );
        assert!(eval_unary(UnaryOp::Not, &Value::Int64(5)).is_err());
    }

    #[test]
    fn canonicalize_extracts_parameters_and_yields_stable_shape() {
        let build = |city: &str, population: i64| {
            Query::from_source(SourceId(0))
                .where_(lam(
                    "s",
                    Expr::binary(
                        BinaryOp::And,
                        Expr::binary(BinaryOp::Eq, col("s", "Name"), lit(city)),
                        Expr::binary(BinaryOp::Gt, col("s", "Population"), lit(population)),
                    ),
                ))
                .select(lam("s", col("s", "Population")))
                .into_expr()
        };
        let a = canonicalize(build("London", 100));
        let b = canonicalize(build("Paris", 2_000_000));
        assert_eq!(
            a.shape_hash, b.shape_hash,
            "same query shape must share a cache key"
        );
        assert_eq!(a.expr, b.expr);
        assert_eq!(a.params, vec![Value::str("London"), Value::Int64(100)]);
        assert_eq!(b.params, vec![Value::str("Paris"), Value::Int64(2_000_000)]);

        // A structurally different query gets a different key.
        let c = canonicalize(
            Query::from_source(SourceId(0))
                .where_(lam(
                    "s",
                    Expr::binary(BinaryOp::Eq, col("s", "Name"), lit("London")),
                ))
                .into_expr(),
        );
        assert_ne!(a.shape_hash, c.shape_hash);
    }

    #[test]
    fn canonicalize_folds_before_extracting() {
        // Take(5 + 5) must canonicalise to one parameter with value 10.
        let q = Query::from_source(SourceId(0))
            .take(0) // placeholder, replaced below
            .into_expr();
        let q = match q {
            Expr::Call {
                method,
                target,
                direction,
                ..
            } => Expr::Call {
                method,
                target,
                args: vec![Expr::binary(BinaryOp::Add, lit(5i64), lit(5i64))],
                direction,
            },
            _ => unreachable!(),
        };
        let canon = canonicalize(q);
        assert_eq!(canon.params, vec![Value::Int64(10)]);
    }
}
