//! Serializers for the domain types that cross the wire: values, schemas,
//! expression trees, strategies, query options and errors.
//!
//! Layouts are documented in `docs/SERVING.md` (the wire-protocol
//! specification) and pinned by the golden-bytes test in
//! `tests/tests/wire_protocol.rs` — any change here is a protocol version
//! bump, not a refactor.

use crate::wire::{put_bool, put_f64, put_i32, put_i64, put_str, put_u32, put_u64, put_u8, Reader};
use crate::ProtocolError;
use mrq_common::{DataType, Date, Decimal, Field, MrqError, QosClass, Schema, Value};
use mrq_core::{ParallelConfig, QueryOptions, Strategy};
use mrq_engine_hybrid::{HybridConfig, Materialization, TransferPolicy};
use mrq_expr::{BinaryOp, Expr, QueryMethod, SortDirection, SourceId, UnaryOp};
use std::sync::Arc;
use std::time::Duration;

/// Maximum expression-tree nesting the decoder will follow. A hand-crafted
/// frame of nested unary nodes must exhaust this budget, not the thread's
/// stack — the cap bounds the recursive decoder to a depth that fits
/// comfortably in a 2 MiB test-thread stack even with debug-size frames,
/// while real query trees stay one order of magnitude below it.
pub const MAX_EXPR_DEPTH: usize = 256;

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

/// Encodes a [`Value`]: a one-byte type tag, then the payload. `Decimal`
/// travels as its raw fixed-point `i64`, `Date` as epoch days, `Float64` as
/// its IEEE-754 bit pattern — all lossless, so the bit-identity tests can
/// compare server results against in-process execution directly.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(buf, 0),
        Value::Bool(b) => {
            put_u8(buf, 1);
            put_bool(buf, *b);
        }
        Value::Int32(i) => {
            put_u8(buf, 2);
            put_i32(buf, *i);
        }
        Value::Int64(i) => {
            put_u8(buf, 3);
            put_i64(buf, *i);
        }
        Value::Decimal(d) => {
            put_u8(buf, 4);
            put_i64(buf, d.raw());
        }
        Value::Float64(f) => {
            put_u8(buf, 5);
            put_f64(buf, *f);
        }
        Value::Date(d) => {
            put_u8(buf, 6);
            put_i32(buf, d.epoch_days());
        }
        Value::Str(s) => {
            put_u8(buf, 7);
            put_str(buf, s);
        }
    }
}

/// Decodes a [`Value`]; see [`put_value`] for the layout.
pub fn get_value(r: &mut Reader<'_>) -> Result<Value, ProtocolError> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.bool()?),
        2 => Value::Int32(r.i32()?),
        3 => Value::Int64(r.i64()?),
        4 => Value::Decimal(Decimal::from_raw(r.i64()?)),
        5 => Value::Float64(r.f64()?),
        6 => Value::Date(Date::from_epoch_days(r.i32()?)),
        7 => Value::Str(Arc::from(r.str()?.as_str())),
        tag => return Err(ProtocolError::UnknownTag("value", tag)),
    })
}

// ---------------------------------------------------------------------------
// DataType / Schema / rows
// ---------------------------------------------------------------------------

fn put_dtype(buf: &mut Vec<u8>, d: DataType) {
    put_u8(
        buf,
        match d {
            DataType::Bool => 0,
            DataType::Int32 => 1,
            DataType::Int64 => 2,
            DataType::Decimal => 3,
            DataType::Float64 => 4,
            DataType::Date => 5,
            DataType::Str => 6,
        },
    );
}

fn get_dtype(r: &mut Reader<'_>) -> Result<DataType, ProtocolError> {
    Ok(match r.u8()? {
        0 => DataType::Bool,
        1 => DataType::Int32,
        2 => DataType::Int64,
        3 => DataType::Decimal,
        4 => DataType::Float64,
        5 => DataType::Date,
        6 => DataType::Str,
        tag => return Err(ProtocolError::UnknownTag("dtype", tag)),
    })
}

/// Encodes a [`Schema`]: type name, field count, then `name + dtype` per
/// field in declaration order.
pub fn put_schema(buf: &mut Vec<u8>, s: &Schema) {
    put_str(buf, s.name());
    put_u32(buf, s.fields().len() as u32);
    for f in s.fields() {
        put_str(buf, &f.name);
        put_dtype(buf, f.dtype);
    }
}

/// Decodes a [`Schema`]; see [`put_schema`].
pub fn get_schema(r: &mut Reader<'_>) -> Result<Schema, ProtocolError> {
    let name = r.str()?;
    let n = r.count()?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let fname = r.str()?;
        let dtype = get_dtype(r)?;
        fields.push(Field::new(fname, dtype));
    }
    Ok(Schema::new(name, fields))
}

/// Encodes a batch of rows: row count, then per row a column count and the
/// column values.
pub fn put_rows(buf: &mut Vec<u8>, rows: &[Vec<Value>]) {
    put_u32(buf, rows.len() as u32);
    for row in rows {
        put_u32(buf, row.len() as u32);
        for v in row {
            put_value(buf, v);
        }
    }
}

/// Decodes a batch of rows; see [`put_rows`].
pub fn get_rows(r: &mut Reader<'_>) -> Result<Vec<Vec<Value>>, ProtocolError> {
    let n = r.count()?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let cols = r.count()?;
        let mut row = Vec::with_capacity(cols);
        for _ in 0..cols {
            row.push(get_value(r)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Expr
// ---------------------------------------------------------------------------

fn put_method(buf: &mut Vec<u8>, m: QueryMethod) {
    put_u8(
        buf,
        match m {
            QueryMethod::Where => 0,
            QueryMethod::Select => 1,
            QueryMethod::GroupBy => 2,
            QueryMethod::OrderBy => 3,
            QueryMethod::ThenBy => 4,
            QueryMethod::Take => 5,
            QueryMethod::Join => 6,
            QueryMethod::Sum => 7,
            QueryMethod::Count => 8,
            QueryMethod::Average => 9,
            QueryMethod::Min => 10,
            QueryMethod::Max => 11,
            QueryMethod::First => 12,
            QueryMethod::StartsWith => 13,
            QueryMethod::EndsWith => 14,
            QueryMethod::Contains => 15,
        },
    );
}

fn get_method(r: &mut Reader<'_>) -> Result<QueryMethod, ProtocolError> {
    Ok(match r.u8()? {
        0 => QueryMethod::Where,
        1 => QueryMethod::Select,
        2 => QueryMethod::GroupBy,
        3 => QueryMethod::OrderBy,
        4 => QueryMethod::ThenBy,
        5 => QueryMethod::Take,
        6 => QueryMethod::Join,
        7 => QueryMethod::Sum,
        8 => QueryMethod::Count,
        9 => QueryMethod::Average,
        10 => QueryMethod::Min,
        11 => QueryMethod::Max,
        12 => QueryMethod::First,
        13 => QueryMethod::StartsWith,
        14 => QueryMethod::EndsWith,
        15 => QueryMethod::Contains,
        tag => return Err(ProtocolError::UnknownTag("method", tag)),
    })
}

fn put_binop(buf: &mut Vec<u8>, op: BinaryOp) {
    put_u8(
        buf,
        match op {
            BinaryOp::Eq => 0,
            BinaryOp::Ne => 1,
            BinaryOp::Lt => 2,
            BinaryOp::Le => 3,
            BinaryOp::Gt => 4,
            BinaryOp::Ge => 5,
            BinaryOp::And => 6,
            BinaryOp::Or => 7,
            BinaryOp::Add => 8,
            BinaryOp::Sub => 9,
            BinaryOp::Mul => 10,
            BinaryOp::Div => 11,
        },
    );
}

fn get_binop(r: &mut Reader<'_>) -> Result<BinaryOp, ProtocolError> {
    Ok(match r.u8()? {
        0 => BinaryOp::Eq,
        1 => BinaryOp::Ne,
        2 => BinaryOp::Lt,
        3 => BinaryOp::Le,
        4 => BinaryOp::Gt,
        5 => BinaryOp::Ge,
        6 => BinaryOp::And,
        7 => BinaryOp::Or,
        8 => BinaryOp::Add,
        9 => BinaryOp::Sub,
        10 => BinaryOp::Mul,
        11 => BinaryOp::Div,
        tag => return Err(ProtocolError::UnknownTag("binop", tag)),
    })
}

/// Encodes an [`Expr`] tree recursively, one tag byte per node.
pub fn put_expr(buf: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Constant(v) => {
            put_u8(buf, 0);
            put_value(buf, v);
        }
        Expr::QueryParam(i) => {
            put_u8(buf, 1);
            put_u64(buf, *i as u64);
        }
        Expr::Source(SourceId(id)) => {
            put_u8(buf, 2);
            put_u32(buf, *id);
        }
        Expr::Parameter(p) => {
            put_u8(buf, 3);
            put_str(buf, p);
        }
        Expr::Member { target, field } => {
            put_u8(buf, 4);
            put_str(buf, field);
            put_expr(buf, target);
        }
        Expr::Binary { op, left, right } => {
            put_u8(buf, 5);
            put_binop(buf, *op);
            put_expr(buf, left);
            put_expr(buf, right);
        }
        Expr::Unary { op, expr } => {
            put_u8(buf, 6);
            put_u8(buf, matches!(op, UnaryOp::Neg) as u8);
            put_expr(buf, expr);
        }
        Expr::Lambda { param, body } => {
            put_u8(buf, 7);
            put_str(buf, param);
            put_expr(buf, body);
        }
        Expr::Call {
            method,
            target,
            args,
            direction,
        } => {
            put_u8(buf, 8);
            put_method(buf, *method);
            put_u8(buf, matches!(direction, SortDirection::Descending) as u8);
            put_expr(buf, target);
            put_u32(buf, args.len() as u32);
            for a in args {
                put_expr(buf, a);
            }
        }
        Expr::Constructor { name, fields } => {
            put_u8(buf, 9);
            put_str(buf, name);
            put_u32(buf, fields.len() as u32);
            for (n, e) in fields {
                put_str(buf, n);
                put_expr(buf, e);
            }
        }
    }
}

/// Decodes an [`Expr`] tree, refusing nesting past [`MAX_EXPR_DEPTH`].
pub fn get_expr(r: &mut Reader<'_>) -> Result<Expr, ProtocolError> {
    get_expr_at(r, 0)
}

fn get_expr_at(r: &mut Reader<'_>, depth: usize) -> Result<Expr, ProtocolError> {
    if depth > MAX_EXPR_DEPTH {
        return Err(ProtocolError::TooDeep);
    }
    Ok(match r.u8()? {
        0 => Expr::Constant(get_value(r)?),
        1 => Expr::QueryParam(r.u64()? as usize),
        2 => Expr::Source(SourceId(r.u32()?)),
        3 => Expr::Parameter(r.str()?),
        4 => {
            let field = r.str()?;
            let target = Box::new(get_expr_at(r, depth + 1)?);
            Expr::Member { target, field }
        }
        5 => {
            let op = get_binop(r)?;
            let left = Box::new(get_expr_at(r, depth + 1)?);
            let right = Box::new(get_expr_at(r, depth + 1)?);
            Expr::Binary { op, left, right }
        }
        6 => {
            let op = if r.bool()? {
                UnaryOp::Neg
            } else {
                UnaryOp::Not
            };
            let expr = Box::new(get_expr_at(r, depth + 1)?);
            Expr::Unary { op, expr }
        }
        7 => {
            let param = r.str()?;
            let body = Box::new(get_expr_at(r, depth + 1)?);
            Expr::Lambda { param, body }
        }
        8 => {
            let method = get_method(r)?;
            let direction = if r.bool()? {
                SortDirection::Descending
            } else {
                SortDirection::Ascending
            };
            let target = Box::new(get_expr_at(r, depth + 1)?);
            let n = r.count()?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(get_expr_at(r, depth + 1)?);
            }
            Expr::Call {
                method,
                target,
                args,
                direction,
            }
        }
        9 => {
            let name = r.str()?;
            let n = r.count()?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let fname = r.str()?;
                fields.push((fname, get_expr_at(r, depth + 1)?));
            }
            Expr::Constructor { name, fields }
        }
        tag => return Err(ProtocolError::UnknownTag("expr", tag)),
    })
}

// ---------------------------------------------------------------------------
// Strategy / options
// ---------------------------------------------------------------------------

fn put_parallel(buf: &mut Vec<u8>, p: &ParallelConfig) {
    put_u64(buf, p.threads as u64);
    put_u64(buf, p.min_rows_per_thread as u64);
    put_u64(buf, p.morsel_rows as u64);
    // Reserved byte, formerly the `stealing` flag: always written as 1;
    // decoders check that it is a bool and ignore it.
    put_bool(buf, true);
}

fn get_parallel(r: &mut Reader<'_>) -> Result<ParallelConfig, ProtocolError> {
    let config = ParallelConfig {
        threads: r.u64()? as usize,
        min_rows_per_thread: r.u64()? as usize,
        morsel_rows: r.u64()? as usize,
    };
    r.bool()?;
    Ok(config)
}

/// Encodes a [`Strategy`], including the full parallel / hybrid
/// configurations so the server reproduces the client's execution plan
/// exactly.
pub fn put_strategy(buf: &mut Vec<u8>, s: &Strategy) {
    match s {
        Strategy::LinqToObjects => put_u8(buf, 0),
        Strategy::CompiledCSharp => put_u8(buf, 1),
        Strategy::CompiledNative => put_u8(buf, 2),
        Strategy::CompiledNativeParallel(p) => {
            put_u8(buf, 3);
            put_parallel(buf, p);
        }
        Strategy::Hybrid(h) => {
            put_u8(buf, 4);
            match h.materialization {
                Materialization::Full => put_u8(buf, 0),
                Materialization::Buffered { rows_per_buffer } => {
                    put_u8(buf, 1);
                    put_u64(buf, rows_per_buffer as u64);
                }
            }
            put_u8(buf, matches!(h.transfer, TransferPolicy::Min) as u8);
            // Reserved byte, formerly the staging layout: always written as
            // 0; decoders check that it is a bool and ignore it.
            put_bool(buf, false);
            put_parallel(buf, &h.parallel);
        }
    }
}

/// Decodes a [`Strategy`]; see [`put_strategy`].
pub fn get_strategy(r: &mut Reader<'_>) -> Result<Strategy, ProtocolError> {
    Ok(match r.u8()? {
        0 => Strategy::LinqToObjects,
        1 => Strategy::CompiledCSharp,
        2 => Strategy::CompiledNative,
        3 => Strategy::CompiledNativeParallel(get_parallel(r)?),
        4 => {
            let materialization = match r.u8()? {
                0 => Materialization::Full,
                1 => Materialization::Buffered {
                    rows_per_buffer: r.u64()? as usize,
                },
                tag => return Err(ProtocolError::UnknownTag("materialization", tag)),
            };
            let transfer = if r.bool()? {
                TransferPolicy::Min
            } else {
                TransferPolicy::Max
            };
            r.bool()?;
            let parallel = get_parallel(r)?;
            Strategy::Hybrid(HybridConfig {
                materialization,
                transfer,
                parallel,
            })
        }
        tag => return Err(ProtocolError::UnknownTag("strategy", tag)),
    })
}

/// Encodes [`QueryOptions`]: deadline presence flag + nanoseconds, QoS
/// class byte, streamed-batch row count.
pub fn put_options(buf: &mut Vec<u8>, o: &QueryOptions) {
    match o.deadline {
        None => put_bool(buf, false),
        Some(d) => {
            put_bool(buf, true);
            put_u64(buf, d.as_nanos() as u64);
        }
    }
    put_u8(
        buf,
        match o.class {
            QosClass::Interactive => 0,
            QosClass::Batch => 1,
            QosClass::Maintenance => 2,
        },
    );
    put_u64(buf, o.stream_batch_rows as u64);
}

/// Decodes [`QueryOptions`]; see [`put_options`].
pub fn get_options(r: &mut Reader<'_>) -> Result<QueryOptions, ProtocolError> {
    let deadline = if r.bool()? {
        Some(Duration::from_nanos(r.u64()?))
    } else {
        None
    };
    let class = match r.u8()? {
        0 => QosClass::Interactive,
        1 => QosClass::Batch,
        2 => QosClass::Maintenance,
        tag => return Err(ProtocolError::UnknownTag("qos", tag)),
    };
    let stream_batch_rows = r.u64()? as usize;
    Ok(QueryOptions {
        deadline,
        class,
        stream_batch_rows,
    })
}

// ---------------------------------------------------------------------------
// MrqError
// ---------------------------------------------------------------------------

/// Encodes an [`MrqError`] so execution failures cross the wire as typed
/// values, not strings — the client can still match on `Overloaded` and
/// read the exact in-flight / limit numbers the admission gate observed.
pub fn put_error(buf: &mut Vec<u8>, e: &MrqError) {
    match e {
        MrqError::UnknownField(s) => {
            put_u8(buf, 0);
            put_str(buf, s);
        }
        MrqError::TypeMismatch { expected, found } => {
            put_u8(buf, 1);
            put_str(buf, expected);
            put_str(buf, found);
        }
        MrqError::Unsupported(s) => {
            put_u8(buf, 2);
            put_str(buf, s);
        }
        MrqError::Codegen(s) => {
            put_u8(buf, 3);
            put_str(buf, s);
        }
        MrqError::Heap(s) => {
            put_u8(buf, 4);
            put_str(buf, s);
        }
        MrqError::Cancelled => put_u8(buf, 5),
        MrqError::DeadlineExceeded => put_u8(buf, 6),
        MrqError::Overloaded { in_flight, limit } => {
            put_u8(buf, 7);
            put_u64(buf, *in_flight as u64);
            put_u64(buf, *limit as u64);
        }
        MrqError::Internal(s) => {
            put_u8(buf, 8);
            put_str(buf, s);
        }
    }
}

/// Decodes an [`MrqError`]; see [`put_error`].
pub fn get_error(r: &mut Reader<'_>) -> Result<MrqError, ProtocolError> {
    Ok(match r.u8()? {
        0 => MrqError::UnknownField(r.str()?),
        1 => MrqError::TypeMismatch {
            expected: r.str()?,
            found: r.str()?,
        },
        2 => MrqError::Unsupported(r.str()?),
        3 => MrqError::Codegen(r.str()?),
        4 => MrqError::Heap(r.str()?),
        5 => MrqError::Cancelled,
        6 => MrqError::DeadlineExceeded,
        7 => MrqError::Overloaded {
            in_flight: r.u64()? as usize,
            limit: r.u64()? as usize,
        },
        8 => MrqError::Internal(r.str()?),
        tag => return Err(ProtocolError::UnknownTag("error", tag)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_value(v: Value) {
        let mut buf = Vec::new();
        put_value(&mut buf, &v);
        let mut r = Reader::new(&buf);
        let back = get_value(&mut r).unwrap();
        r.finish().unwrap();
        // Float64 NaN never compares equal; compare bit patterns instead.
        match (&v, &back) {
            (Value::Float64(a), Value::Float64(b)) => {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            _ => assert_eq!(v, back),
        }
    }

    #[test]
    fn values_round_trip() {
        round_trip_value(Value::Null);
        round_trip_value(Value::Bool(true));
        round_trip_value(Value::Int32(-7));
        round_trip_value(Value::Int64(i64::MAX));
        round_trip_value(Value::Decimal(Decimal::from_raw(-123_456)));
        round_trip_value(Value::Float64(f64::NAN));
        round_trip_value(Value::Date(Date::from_epoch_days(9000)));
        round_trip_value(Value::str("BRASS"));
    }

    #[test]
    fn deep_expr_is_rejected_not_overflowed() {
        let mut e = Expr::Parameter("x".into());
        for _ in 0..(MAX_EXPR_DEPTH + 8) {
            e = Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e),
            };
        }
        let mut buf = Vec::new();
        put_expr(&mut buf, &e);
        let mut r = Reader::new(&buf);
        assert!(matches!(get_expr(&mut r), Err(ProtocolError::TooDeep)));
    }

    #[test]
    fn strategies_round_trip() {
        let strategies = [
            Strategy::LinqToObjects,
            Strategy::CompiledCSharp,
            Strategy::CompiledNative,
            Strategy::CompiledNativeParallel(ParallelConfig {
                threads: 8,
                min_rows_per_thread: 1,
                morsel_rows: 1024,
            }),
            Strategy::Hybrid(HybridConfig {
                materialization: Materialization::Buffered {
                    rows_per_buffer: 4096,
                },
                transfer: TransferPolicy::Min,
                parallel: ParallelConfig::sequential(),
            }),
        ];
        for s in &strategies {
            let mut buf = Vec::new();
            put_strategy(&mut buf, s);
            let mut r = Reader::new(&buf);
            assert_eq!(&get_strategy(&mut r).unwrap(), s);
            r.finish().unwrap();
        }
    }
}
