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
use mrq_common::{Decimal, Value};

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
/// parameter, member access or source survives untouched.
pub fn fold_constants(expr: Expr) -> Expr {
    expr.transform(&mut |node| match node {
        Expr::Binary { op, left, right } => match (left.as_ref(), right.as_ref()) {
            (Expr::Constant(l), Expr::Constant(r)) => match eval_binary(op, l, r) {
                Some(v) => Expr::Constant(v),
                None => Expr::Binary { op, left, right },
            },
            _ => Expr::Binary { op, left, right },
        },
        Expr::Unary { op, expr } => match expr.as_ref() {
            Expr::Constant(v) => match eval_unary(op, v) {
                Some(folded) => Expr::Constant(folded),
                None => Expr::Unary { op, expr },
            },
            _ => Expr::Unary { op, expr },
        },
        other => other,
    })
}

/// Evaluates a binary operator over two constants, if defined.
pub fn eval_binary(op: BinaryOp, left: &Value, right: &Value) -> Option<Value> {
    use BinaryOp::*;
    // An integer meeting a decimal is promoted to a decimal, the typing the
    // lowering (`promote`) and the compiled executor apply.
    if let (Value::Decimal(_), Value::Int32(_) | Value::Int64(_))
    | (Value::Int32(_) | Value::Int64(_), Value::Decimal(_)) = (left, right)
    {
        let (l, r) = (left.as_decimal()?, right.as_decimal()?);
        return eval_binary(op, &Value::Decimal(l), &Value::Decimal(r));
    }
    if op.is_comparison() {
        // Comparable only when the dynamic types are compatible.
        if !comparable(left, right) {
            return None;
        }
        let ord = left.total_cmp(right);
        let out = match op {
            Eq => ord.is_eq(),
            Ne => !ord.is_eq(),
            Lt => ord.is_lt(),
            Le => ord.is_le(),
            Gt => ord.is_gt(),
            Ge => ord.is_ge(),
            _ => unreachable!(),
        };
        return Some(Value::Bool(out));
    }
    if op.is_logical() {
        return match (left, right, op) {
            (Value::Bool(a), Value::Bool(b), And) => Some(Value::Bool(*a && *b)),
            (Value::Bool(a), Value::Bool(b), Or) => Some(Value::Bool(*a || *b)),
            _ => None,
        };
    }
    // Arithmetic.
    match (left, right) {
        (Value::Int64(a), Value::Int64(b)) => arith_i64(op, *a, *b).map(Value::Int64),
        (Value::Int32(a), Value::Int32(b)) => {
            arith_i64(op, *a as i64, *b as i64).map(|v| Value::Int32(v as i32))
        }
        (Value::Int32(a), Value::Int64(b)) => arith_i64(op, *a as i64, *b).map(Value::Int64),
        (Value::Int64(a), Value::Int32(b)) => arith_i64(op, *a, *b as i64).map(Value::Int64),
        (Value::Decimal(a), Value::Decimal(b)) => arith_decimal(op, *a, *b).map(Value::Decimal),
        (Value::Float64(a), Value::Float64(b)) => arith_f64(op, *a, *b).map(Value::Float64),
        // Date arithmetic: date ± integer days (TPC-H Q1's `date - 90`).
        (Value::Date(d), Value::Int64(n)) => match op {
            Add => Some(Value::Date(d.add_days(*n as i32))),
            Sub => Some(Value::Date(d.add_days(-(*n as i32)))),
            _ => None,
        },
        (Value::Date(d), Value::Int32(n)) => match op {
            Add => Some(Value::Date(d.add_days(*n))),
            Sub => Some(Value::Date(d.add_days(-*n))),
            _ => None,
        },
        _ => None,
    }
}

/// Evaluates a unary operator over a constant, if defined.
pub fn eval_unary(op: UnaryOp, value: &Value) -> Option<Value> {
    match (op, value) {
        (UnaryOp::Not, Value::Bool(b)) => Some(Value::Bool(!b)),
        (UnaryOp::Neg, Value::Int32(v)) => Some(Value::Int32(-v)),
        (UnaryOp::Neg, Value::Int64(v)) => Some(Value::Int64(-v)),
        (UnaryOp::Neg, Value::Decimal(d)) => Some(Value::Decimal(-*d)),
        (UnaryOp::Neg, Value::Float64(v)) => Some(Value::Float64(-v)),
        _ => None,
    }
}

fn comparable(a: &Value, b: &Value) -> bool {
    match (a.dtype(), b.dtype()) {
        (Some(x), Some(y)) => {
            x == y
                || (x.is_numeric() && y.is_numeric())
                || matches!(
                    (a, b),
                    (
                        Value::Int32(_) | Value::Int64(_),
                        Value::Int32(_) | Value::Int64(_)
                    )
                )
        }
        _ => false,
    }
}

fn arith_i64(op: BinaryOp, a: i64, b: i64) -> Option<i64> {
    match op {
        BinaryOp::Add => a.checked_add(b),
        BinaryOp::Sub => a.checked_sub(b),
        BinaryOp::Mul => a.checked_mul(b),
        BinaryOp::Div => {
            if b == 0 {
                None
            } else {
                Some(a / b)
            }
        }
        _ => None,
    }
}

fn arith_decimal(op: BinaryOp, a: Decimal, b: Decimal) -> Option<Decimal> {
    match op {
        BinaryOp::Add => Some(a + b),
        BinaryOp::Sub => Some(a - b),
        BinaryOp::Mul => a.checked_mul(b),
        BinaryOp::Div => {
            if b == Decimal::ZERO {
                None
            } else {
                Some(Decimal::from_f64(a.to_f64() / b.to_f64()))
            }
        }
        _ => None,
    }
}

fn arith_f64(op: BinaryOp, a: f64, b: f64) -> Option<f64> {
    match op {
        BinaryOp::Add => Some(a + b),
        BinaryOp::Sub => Some(a - b),
        BinaryOp::Mul => Some(a * b),
        BinaryOp::Div => Some(a / b),
        _ => None,
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
            Some(Value::Bool(false))
        );
        assert_eq!(
            eval_binary(BinaryOp::Lt, &Value::Int64(1), &Value::Int64(2)),
            Some(Value::Bool(true))
        );
        assert_eq!(
            eval_binary(BinaryOp::Eq, &Value::str("a"), &Value::str("a")),
            Some(Value::Bool(true))
        );
        // Incompatible types refuse to fold rather than guessing.
        assert_eq!(
            eval_binary(BinaryOp::Eq, &Value::str("a"), &Value::Int64(1)),
            None
        );
        // Division by zero refuses to fold (the engine will surface the error
        // at run time exactly like the interpreted path would).
        assert_eq!(
            eval_binary(BinaryOp::Div, &Value::Int64(1), &Value::Int64(0)),
            None
        );
    }

    #[test]
    fn mixed_integer_and_decimal_operands_promote_to_decimal() {
        let two = Value::Int32(2);
        let price = Value::Decimal(Decimal::new(1, 25));
        assert_eq!(
            eval_binary(BinaryOp::Mul, &two, &price),
            Some(Value::Decimal(Decimal::new(2, 50)))
        );
        assert_eq!(
            eval_binary(BinaryOp::Sub, &price, &Value::Int64(1)),
            Some(Value::Decimal(Decimal::new(0, 25)))
        );
        // Comparisons are numeric, not by type rank.
        assert_eq!(
            eval_binary(BinaryOp::Gt, &price, &Value::Int64(1)),
            Some(Value::Bool(true))
        );
        assert_eq!(
            eval_binary(BinaryOp::Lt, &Value::Int64(2), &price),
            Some(Value::Bool(false))
        );
    }

    #[test]
    fn unary_folding() {
        assert_eq!(
            eval_unary(UnaryOp::Not, &Value::Bool(true)),
            Some(Value::Bool(false))
        );
        assert_eq!(
            eval_unary(UnaryOp::Neg, &Value::Int64(5)),
            Some(Value::Int64(-5))
        );
        assert_eq!(eval_unary(UnaryOp::Not, &Value::Int64(5)), None);
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
