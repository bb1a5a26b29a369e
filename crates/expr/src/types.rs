//! The type table: the result type of every operator over its operand types.
//!
//! In the paper, the C# compiler types the LINQ expression tree before the
//! provider sees it (§4–§6), so the generated code and the LINQ-to-objects
//! baseline follow one set of rules. Here every place that types a node asks
//! this table: the lowering (`mrq_codegen::spec`), the per-execution
//! compiler (`mrq_codegen::program`) and the values
//! [`crate::canonical::eval_binary`] computes for the baseline and for
//! constant folding.
//!
//! * Integer arithmetic is `Int64`. A float operand makes it `Float64`,
//!   else a decimal operand makes it `Decimal`.
//! * `date ± integer` and `integer + date` are dates; `date − date` is the
//!   `Int64` number of days between them. Any other arithmetic that touches
//!   a date is an error.
//! * The numeric types compare with each other; any other type compares
//!   only with itself.
//! * `&&`, `||` and `!` take `Bool` only; the string methods take two
//!   strings and return `Bool`.
//!
//! Every error is an [`MrqError::Codegen`] naming the operator and the
//! operand types.

use crate::tree::{BinaryOp, QueryMethod, UnaryOp};
use mrq_common::{DataType, MrqError, Result};

/// The result type of `l op r`.
pub fn binary_type(op: BinaryOp, l: DataType, r: DataType) -> Result<DataType> {
    use DataType::{Bool, Date, Int32, Int64};
    let int = |t: DataType| matches!(t, Int32 | Int64);
    let out = match op {
        BinaryOp::And | BinaryOp::Or => (l == Bool && r == Bool).then_some(Bool),
        _ if op.is_comparison() => (l == r || numeric_type(l, r).is_some()).then_some(Bool),
        BinaryOp::Add | BinaryOp::Sub if l == Date && int(r) => Some(Date),
        BinaryOp::Add if int(l) && r == Date => Some(Date),
        BinaryOp::Sub if l == Date && r == Date => Some(Int64),
        _ => numeric_type(l, r),
    };
    out.ok_or_else(|| {
        MrqError::Codegen(format!("`{}` is not defined over {l} and {r}", op.symbol()))
    })
}

/// The type two numeric operands are computed (and compared) in: `Float64`
/// over `Decimal` over `Int64`. `None` unless both are numeric.
pub fn numeric_type(l: DataType, r: DataType) -> Option<DataType> {
    use DataType::{Decimal, Float64, Int64};
    (l.is_numeric() && r.is_numeric()).then_some(if l == Float64 || r == Float64 {
        Float64
    } else if l == Decimal || r == Decimal {
        Decimal
    } else {
        Int64
    })
}

/// The result type of `op t`.
pub fn unary_type(op: UnaryOp, t: DataType) -> Result<DataType> {
    let (out, symbol) = match op {
        UnaryOp::Not => ((t == DataType::Bool).then_some(t), "!"),
        UnaryOp::Neg => (numeric_type(t, t), "-"),
    };
    out.ok_or_else(|| MrqError::Codegen(format!("`{symbol}` is not defined over {t}")))
}

/// The result type of the string method `target.method(arg)`.
pub fn method_type(method: QueryMethod, target: DataType, arg: DataType) -> Result<DataType> {
    use QueryMethod::{Contains, EndsWith, StartsWith};
    match (method, target, arg) {
        (StartsWith | EndsWith | Contains, DataType::Str, DataType::Str) => Ok(DataType::Bool),
        _ => Err(MrqError::Codegen(format!(
            "`{method:?}` is not defined over {target} and {arg}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use DataType::*;

    #[test]
    fn arithmetic_follows_one_rule() {
        assert_eq!(binary_type(BinaryOp::Add, Int32, Int32), Ok(Int64));
        assert_eq!(binary_type(BinaryOp::Mul, Int32, Decimal), Ok(Decimal));
        assert_eq!(binary_type(BinaryOp::Div, Decimal, Float64), Ok(Float64));
        assert_eq!(binary_type(BinaryOp::Sub, Date, Int32), Ok(Date));
        assert_eq!(binary_type(BinaryOp::Add, Int64, Date), Ok(Date));
        assert_eq!(binary_type(BinaryOp::Sub, Date, Date), Ok(Int64));
        for (op, l, r) in [
            (BinaryOp::Add, Date, Date),
            (BinaryOp::Sub, Int64, Date),
            (BinaryOp::Add, Decimal, Date),
            (BinaryOp::Mul, Date, Int64),
            (BinaryOp::Add, Str, Int64),
        ] {
            assert!(binary_type(op, l, r).is_err(), "{l} {op:?} {r}");
        }
        assert_eq!(
            binary_type(BinaryOp::Add, Date, Date),
            Err(MrqError::Codegen(
                "`+` is not defined over Date and Date".into()
            ))
        );
    }

    #[test]
    fn comparisons_and_connectives() {
        assert_eq!(binary_type(BinaryOp::Lt, Float64, Decimal), Ok(Bool));
        assert_eq!(binary_type(BinaryOp::Eq, Str, Str), Ok(Bool));
        assert!(binary_type(BinaryOp::Gt, Date, Int64).is_err());
        assert!(binary_type(BinaryOp::Eq, Str, Decimal).is_err());
        assert!(binary_type(BinaryOp::And, Int32, Bool).is_err());
        assert_eq!(unary_type(UnaryOp::Not, Bool), Ok(Bool));
        assert_eq!(unary_type(UnaryOp::Neg, Int32), Ok(Int64));
        assert!(unary_type(UnaryOp::Not, Int32).is_err());
        assert!(unary_type(UnaryOp::Neg, Date).is_err());
        assert_eq!(method_type(QueryMethod::Contains, Str, Str), Ok(Bool));
        assert!(method_type(QueryMethod::StartsWith, Int64, Str).is_err());
    }
}
