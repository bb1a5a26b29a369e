//! The per-execution program: a [`QuerySpec`]'s expressions compiled into
//! closures that are monomorphic over one engine's [`TableAccess`].
//!
//! [`Program::compile`] runs once per execution, against that execution's
//! parameters and slot schemas. It types every node through `mrq_expr`'s
//! type table ([`binary_type`], [`unary_type`], [`method_type`]), resolves
//! each column read to the typed getter of its column, and folds constants
//! and parameters into the closures, so the fused loop in
//! [`crate::exec`] never inspects an expression node, a [`DataType`] or a
//! parameter while it scans. The table decides which operand types an
//! operator takes and what it returns; this module only builds the closure
//! for each pair the table allows, and an ill-typed tree is the table's
//! [`MrqError::Codegen`] here instead of a panic on every row. A zero
//! integer or decimal divisor ends the query through
//! [`mrq_common::abort_query`].
//!
//! **What stays the same as evaluating the tree.** Each closure makes the
//! [`TableAccess`] calls a walk of its expression makes, in the same order
//! and with the same `&&`/`||` short-circuiting; constants are folded only
//! where that skips no read. Results, [`mrq_common::WorkStats`] and the
//! traced cache behaviour of every engine are therefore unchanged by
//! compiling; only the per-row interpretation overhead goes.

use crate::exec::TableAccess;
use crate::spec::{AggSpec, ColumnRef, OutputExpr, QuerySpec, ScalarExpr, StrOp};
use mrq_common::error::{abort_query, division_by_zero};
use mrq_common::hash::FxHashMap;
use mrq_common::{DataType, Date, Decimal, MrqError, Result, Schema, Value};
use mrq_expr::{binary_type, method_type, numeric_type, unary_type, AggFunc, BinaryOp};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Key encoding
// ---------------------------------------------------------------------------

/// The most parts a group or join key may have.
pub(crate) const MAX_KEY_PARTS: usize = 6;

/// A fixed-capacity composite key of encoded 64-bit parts. Unused parts
/// stay zero, so equality may compare the whole array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KeyBuf {
    pub(crate) parts: [u64; MAX_KEY_PARTS],
    pub(crate) len: u8,
}

/// Hashes only the parts in use.
impl Hash for KeyBuf {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        for part in &self.parts[..self.len as usize] {
            state.write_u64(*part);
        }
    }
}

impl KeyBuf {
    pub(crate) fn new() -> Self {
        KeyBuf {
            parts: [0; MAX_KEY_PARTS],
            len: 0,
        }
    }

    /// Appends a part. Key arity is checked when the program is compiled.
    #[inline]
    pub(crate) fn push(&mut self, part: u64) {
        debug_assert!((self.len as usize) < MAX_KEY_PARTS);
        self.parts[self.len as usize] = part;
        self.len += 1;
    }
}

/// Packs a string of at most 7 bytes into one key part: its bytes in the
/// low seven bytes and `0x80 | len` in the top byte. The top bit keeps
/// packed parts apart from interned ids, which count up from zero.
#[inline]
fn pack_short(s: &str) -> Option<u64> {
    let bytes = s.as_bytes();
    if bytes.len() > 7 {
        return None;
    }
    let mut word = (0x80 | bytes.len() as u64) << 56;
    for (i, &byte) in bytes.iter().enumerate() {
        word |= (byte as u64) << (8 * i);
    }
    Some(word)
}

/// Encodes strings as key parts: short strings pack into the part itself,
/// longer ones are interned per execution (ids in first-seen order).
#[derive(Debug, Default, Clone)]
pub(crate) struct StringInterner {
    map: FxHashMap<String, u64>,
}

impl StringInterner {
    #[inline]
    pub(crate) fn encode(&mut self, s: &str) -> u64 {
        if let Some(word) = pack_short(s) {
            return word;
        }
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = self.map.len() as u64;
        self.map.insert(s.to_string(), id);
        id
    }
}

/// Encodes an already-materialised [`Value`] exactly as a compiled key part
/// encodes the same value read from a column. Used when merging partial
/// execution states, where group keys are only available as values.
pub(crate) fn key_part_of_value(value: &Value, interner: &mut StringInterner) -> u64 {
    match value {
        Value::Bool(b) => *b as u64,
        Value::Int32(i) => *i as i64 as u64,
        Value::Int64(i) => *i as u64,
        Value::Decimal(d) => d.raw() as u64,
        Value::Float64(f) => f.to_bits(),
        Value::Date(d) => d.epoch_days() as u32 as u64,
        Value::Str(s) => interner.encode(s),
        Value::Null => u64::MAX,
    }
}

// ---------------------------------------------------------------------------
// Aggregate state
// ---------------------------------------------------------------------------

/// One group's running state for one aggregate.
#[derive(Debug, Clone)]
pub(crate) enum AggState {
    Count(i64),
    SumI64(i64),
    SumDec(Decimal),
    SumF64(f64),
    Avg {
        sum: f64,
        count: i64,
    },
    /// Averages over decimal inputs accumulate exactly in fixed point, so
    /// they are associative: merging per-worker partial states yields the
    /// bit-identical result of a sequential scan at any thread count
    /// (float accumulation would drift by an ulp across morsel boundaries).
    AvgDec {
        sum: Decimal,
        count: i64,
    },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    pub(crate) fn new(spec: &AggSpec) -> AggState {
        match spec.func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Average => match spec.input_dtype {
                Some(DataType::Decimal) => AggState::AvgDec {
                    sum: Decimal::ZERO,
                    count: 0,
                },
                _ => AggState::Avg { sum: 0.0, count: 0 },
            },
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
            AggFunc::Sum => match spec.dtype {
                DataType::Decimal => AggState::SumDec(Decimal::ZERO),
                DataType::Float64 => AggState::SumF64(0.0),
                _ => AggState::SumI64(0),
            },
        }
    }

    pub(crate) fn finish(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int64(*n),
            AggState::SumI64(v) => Value::Int64(*v),
            AggState::SumDec(d) => Value::Decimal(*d),
            AggState::SumF64(v) => Value::Float64(*v),
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum / *count as f64)
                }
            }
            AggState::AvgDec { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum.to_f64() / *count as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.clone().unwrap_or(Value::Null),
        }
    }

    /// Folds another partial state of the same aggregate into this one (used
    /// when merging per-worker states after a parallel scan).
    pub(crate) fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (AggState::SumI64(a), AggState::SumI64(b)) => *a += b,
            (AggState::SumDec(a), AggState::SumDec(b)) => *a += *b,
            (AggState::SumF64(a), AggState::SumF64(b)) => *a += b,
            (
                AggState::Avg { sum, count },
                AggState::Avg {
                    sum: other_sum,
                    count: other_count,
                },
            ) => {
                *sum += other_sum;
                *count += other_count;
            }
            (
                AggState::AvgDec { sum, count },
                AggState::AvgDec {
                    sum: other_sum,
                    count: other_count,
                },
            ) => {
                *sum += *other_sum;
                *count += other_count;
            }
            (AggState::Min(a), AggState::Min(b)) => {
                if let Some(v) = b {
                    if a.as_ref()
                        .is_none_or(|cur| v.total_cmp(cur) == Ordering::Less)
                    {
                        *a = Some(v.clone());
                    }
                }
            }
            (AggState::Max(a), AggState::Max(b)) => {
                if let Some(v) = b {
                    if a.as_ref()
                        .is_none_or(|cur| v.total_cmp(cur) == Ordering::Greater)
                    {
                        *a = Some(v.clone());
                    }
                }
            }
            _ => panic!("merging mismatched aggregate states"),
        }
    }
}

// ---------------------------------------------------------------------------
// Closures
// ---------------------------------------------------------------------------

/// What one evaluation sees: the probe-side table, the build tables (slot
/// `s > 0` reads `builds[s - 1]`) and the current row of every slot.
pub(crate) struct Bound<'r, T> {
    root: &'r T,
    /// `rows[0]`, kept apart so root reads skip a bounds check.
    row: usize,
    builds: &'r [&'r T],
    rows: &'r [usize],
}

impl<'r, T> Bound<'r, T> {
    #[inline]
    pub(crate) fn new(root: &'r T, builds: &'r [&'r T], rows: &'r [usize]) -> Self {
        Bound {
            root,
            row: rows[0],
            builds,
            rows,
        }
    }
}

/// A column read resolved at compile time.
#[derive(Debug, Clone, Copy)]
struct Reader {
    slot: usize,
    col: usize,
    /// Which getter an integer read goes through.
    int: IntRead,
}

#[derive(Debug, Clone, Copy)]
enum IntRead {
    I64,
    I32,
}

impl Reader {
    fn new(c: ColumnRef) -> Self {
        Reader {
            slot: c.slot,
            col: c.col,
            int: IntRead::I64,
        }
    }

    fn int(c: ColumnRef, int: IntRead) -> Self {
        Reader {
            int,
            ..Reader::new(c)
        }
    }

    /// The table and row this read addresses.
    #[inline(always)]
    fn at<'r, T>(self, b: &Bound<'r, T>) -> (&'r T, usize) {
        if self.slot == 0 {
            (b.root, b.row)
        } else {
            (b.builds[self.slot - 1], b.rows[self.slot])
        }
    }

    #[inline(always)]
    fn str<'r, T: TableAccess>(self, b: &Bound<'r, T>) -> &'r str {
        let (table, row) = self.at(b);
        table.get_str(row, self.col)
    }
}

/// Types a column read can produce, each through its typed getter.
trait FromColumn<T>: Sized {
    fn read(b: &Bound<'_, T>, r: Reader) -> Self;
}

macro_rules! from_column {
    ($($t:ty => $get:ident),*) => {$(
        impl<T: TableAccess> FromColumn<T> for $t {
            #[inline(always)]
            fn read(b: &Bound<'_, T>, r: Reader) -> Self {
                let (table, row) = r.at(b);
                table.$get(row, r.col)
            }
        }
    )*};
}

from_column!(bool => get_bool, Decimal => get_decimal, f64 => get_f64, Date => get_date, Value => get_value);

impl<T: TableAccess> FromColumn<T> for i64 {
    #[inline(always)]
    fn read(b: &Bound<'_, T>, r: Reader) -> Self {
        let (table, row) = r.at(b);
        match r.int {
            IntRead::I64 => table.get_i64(row, r.col),
            IntRead::I32 => table.get_i32(row, r.col) as i64,
        }
    }
}

/// A compiled expression producing a `V` for the bound rows.
pub(crate) type Eval<'p, T, V> = Box<dyn Fn(&Bound<'_, T>) -> V + Send + Sync + 'p>;
/// A compiled aggregate update: evaluates the input and folds it into the
/// group's state.
type Accumulate<'p, T> = Box<dyn Fn(&Bound<'_, T>, &mut AggState) + Send + Sync + 'p>;

/// A typed compiled expression: a constant folded at compile time, a bare
/// column read, or a closure. Constants and column reads are inlined into
/// whichever closure consumes them, so only inner nodes cost a call.
enum Val<'p, T, V> {
    Const(V),
    Col(Reader),
    Fn(Eval<'p, T, V>),
}

impl<'p, T: 'p, V: FromColumn<T> + Clone + Send + Sync + 'p> Val<'p, T, V> {
    fn map<R>(self, f: impl Fn(V) -> R + Copy + Send + Sync + 'p) -> Val<'p, T, R> {
        match self {
            Val::Const(v) => Val::Const(f(v)),
            Val::Col(r) => Val::Fn(Box::new(move |b| f(V::read(b, r)))),
            Val::Fn(g) => Val::Fn(Box::new(move |b| f(g(b)))),
        }
    }

    fn into_fn(self) -> Eval<'p, T, V> {
        match self {
            Val::Const(v) => Box::new(move |_| v.clone()),
            Val::Col(r) => Box::new(move |b| V::read(b, r)),
            Val::Fn(f) => f,
        }
    }
}

impl<'p, T: 'p, V: Fold + FromColumn<T> + Clone + Send + Sync + 'p> Val<'p, T, V> {
    /// The update of an aggregate over this expression.
    fn accumulate(self) -> Accumulate<'p, T> {
        match self {
            Val::Const(v) => Box::new(move |_, state| v.clone().fold(state)),
            Val::Col(r) => Box::new(move |b, state| V::read(b, r).fold(state)),
            Val::Fn(f) => Box::new(move |b, state| f(b).fold(state)),
        }
    }
}

/// A value an aggregate folds in. Each state takes the type its input was
/// compiled to; a state never meets another type except a non-integer input
/// to an integer sum, which is read and dropped, as the tree did.
trait Fold {
    fn fold(self, state: &mut AggState);
}

impl Fold for i64 {
    #[inline(always)]
    fn fold(self, state: &mut AggState) {
        if let AggState::SumI64(acc) = state {
            *acc += self;
        }
    }
}

impl Fold for Decimal {
    #[inline(always)]
    fn fold(self, state: &mut AggState) {
        match state {
            AggState::SumDec(acc) => *acc += self,
            AggState::AvgDec { sum, count } => {
                *sum += self;
                *count += 1;
            }
            _ => {}
        }
    }
}

impl Fold for f64 {
    #[inline(always)]
    fn fold(self, state: &mut AggState) {
        match state {
            AggState::SumF64(acc) => *acc += self,
            AggState::Avg { sum, count } => {
                *sum += self;
                *count += 1;
            }
            _ => {}
        }
    }
}

impl Fold for Value {
    #[inline(always)]
    fn fold(self, state: &mut AggState) {
        let (best, keep) = match state {
            AggState::Min(best) => (best, Ordering::Less),
            AggState::Max(best) => (best, Ordering::Greater),
            _ => return,
        };
        if best.as_ref().is_none_or(|cur| self.total_cmp(cur) == keep) {
            *best = Some(self);
        }
    }
}

/// Builds a closure over two operands, one arm per way each operand is
/// held (constant, column read, call), evaluating the left before the
/// right: given the operand types, `|x| a, b => body` binds the bound rows
/// to `x` and the operands' values to `a` and `b`, and may take further
/// closure parameters.
macro_rules! zip_arms {
    ($l:expr, $r:expr, $ta:ty, $tb:ty, |$x:ident $(, $p:ident)*| $a:ident, $b:ident => $body:expr) => {
        match ($l, $r) {
            (Val::Const($a), Val::Const($b)) => Box::new(move |$x, $($p),*| {
                let _ = $x;
                $body
            }),
            (Val::Const($a), Val::Col(r)) => Box::new(move |$x, $($p),*| {
                let $b = <$tb>::read($x, r);
                $body
            }),
            (Val::Const($a), Val::Fn(r)) => Box::new(move |$x, $($p),*| {
                let $b = r($x);
                $body
            }),
            (Val::Col(l), Val::Const($b)) => Box::new(move |$x, $($p),*| {
                let $a = <$ta>::read($x, l);
                $body
            }),
            (Val::Col(l), Val::Col(r)) => Box::new(move |$x, $($p),*| {
                let $a = <$ta>::read($x, l);
                let $b = <$tb>::read($x, r);
                $body
            }),
            (Val::Col(l), Val::Fn(r)) => Box::new(move |$x, $($p),*| {
                let $a = <$ta>::read($x, l);
                let $b = r($x);
                $body
            }),
            (Val::Fn(l), Val::Const($b)) => Box::new(move |$x, $($p),*| {
                let $a = l($x);
                $body
            }),
            (Val::Fn(l), Val::Col(r)) => Box::new(move |$x, $($p),*| {
                let $a = l($x);
                let $b = <$tb>::read($x, r);
                $body
            }),
            (Val::Fn(l), Val::Fn(r)) => Box::new(move |$x, $($p),*| {
                let $a = l($x);
                let $b = r($x);
                $body
            }),
        }
    };
}

/// Combines two operands. Two constants are still combined per row, as the
/// tree did: folding could move a run-time fault (a zero divisor, an
/// overflow) to compile time.
fn zip<'p, T: 'p, A, B, R>(
    l: Val<'p, T, A>,
    r: Val<'p, T, B>,
    f: impl Fn(A, B) -> R + Copy + Send + Sync + 'p,
) -> Val<'p, T, R>
where
    A: FromColumn<T> + Copy + Send + Sync + 'p,
    B: FromColumn<T> + Copy + Send + Sync + 'p,
{
    Val::Fn(zip_arms!(l, r, A, B, |x| a, b => f(a, b)))
}

/// The aggregate update over `f(l, r)`: the operation and the fold in one
/// closure, so an aggregate over arithmetic costs one call per row.
fn zip_fold<'p, T: 'p, A, B, R>(
    l: Val<'p, T, A>,
    r: Val<'p, T, B>,
    f: impl Fn(A, B) -> R + Copy + Send + Sync + 'p,
) -> Accumulate<'p, T>
where
    A: FromColumn<T> + Copy + Send + Sync + 'p,
    B: FromColumn<T> + Copy + Send + Sync + 'p,
    R: Fold,
{
    zip_arms!(l, r, A, B, |x, state| a, b => f(a, b).fold(state))
}

/// `l && r`: a constant `false` on the left skips the right, as the tree's
/// short-circuit did; a constant on the right still evaluates the left.
fn and<'p, T: TableAccess + 'p>(l: Val<'p, T, bool>, r: Val<'p, T, bool>) -> Val<'p, T, bool> {
    match (l, r) {
        (Val::Const(false), _) => Val::Const(false),
        (Val::Const(true), r) | (r, Val::Const(true)) => r,
        (l, Val::Const(false)) => {
            // The left side still runs for its reads.
            let l = l.into_fn();
            Val::Fn(Box::new(move |x| {
                l(x);
                false
            }))
        }
        (l, r) => {
            let (l, r) = (l.into_fn(), r.into_fn());
            Val::Fn(Box::new(move |x| l(x) && r(x)))
        }
    }
}

/// `l || r`, with the same rules as [`and`].
fn or<'p, T: TableAccess + 'p>(l: Val<'p, T, bool>, r: Val<'p, T, bool>) -> Val<'p, T, bool> {
    match (l, r) {
        (Val::Const(true), _) => Val::Const(true),
        (Val::Const(false), r) | (r, Val::Const(false)) => r,
        (l, Val::Const(true)) => {
            let l = l.into_fn();
            Val::Fn(Box::new(move |x| {
                l(x);
                true
            }))
        }
        (l, r) => {
            let (l, r) = (l.into_fn(), r.into_fn());
            Val::Fn(Box::new(move |x| l(x) || r(x)))
        }
    }
}

/// A string operand: a constant, or a column read.
enum StrVal {
    Const(Arc<str>),
    Col(Reader),
}

/// Combines two string operands, evaluating the left before the right.
fn zip_str<'p, T: TableAccess + 'p>(
    l: StrVal,
    r: StrVal,
    f: impl Fn(&str, &str) -> bool + Copy + Send + Sync + 'p,
) -> Val<'p, T, bool> {
    Val::Fn(match (l, r) {
        (StrVal::Const(a), StrVal::Const(b)) => Box::new(move |_| f(&a, &b)),
        (StrVal::Col(l), StrVal::Const(b)) => Box::new(move |x| f(l.str(x), &b)),
        (StrVal::Const(a), StrVal::Col(r)) => Box::new(move |x| f(&a, r.str(x))),
        (StrVal::Col(l), StrVal::Col(r)) => Box::new(move |x| {
            let a = l.str(x);
            f(a, r.str(x))
        }),
    })
}

/// A compiled expression of the type the type table gave it. Every
/// integer is computed as an `i64`; a string is a constant or a column.
enum Typed<'p, T> {
    Int(Val<'p, T, i64>),
    Dec(Val<'p, T, Decimal>),
    F64(Val<'p, T, f64>),
    Date(Val<'p, T, Date>),
    Bool(Val<'p, T, bool>),
    Str(StrVal),
}

impl<'p, T: TableAccess + 'p> Typed<'p, T> {
    /// A constant or parameter, folded into the closures that read it.
    fn constant(v: &Value) -> Result<Self> {
        Ok(match v {
            Value::Bool(b) => Typed::Bool(Val::Const(*b)),
            Value::Int32(i) => Typed::Int(Val::Const(*i as i64)),
            Value::Int64(i) => Typed::Int(Val::Const(*i)),
            Value::Decimal(d) => Typed::Dec(Val::Const(*d)),
            Value::Float64(f) => Typed::F64(Val::Const(*f)),
            Value::Date(d) => Typed::Date(Val::Const(*d)),
            Value::Str(s) => Typed::Str(StrVal::Const(Arc::clone(s))),
            Value::Null => return Err(MrqError::Codegen("untyped null constant".into())),
        })
    }

    /// A read of column `c`, through the typed getter of its type.
    fn column(c: ColumnRef, dtype: DataType) -> Self {
        match dtype {
            DataType::Bool => Typed::Bool(Val::Col(Reader::new(c))),
            DataType::Int32 => Typed::Int(Val::Col(Reader::int(c, IntRead::I32))),
            DataType::Int64 => Typed::Int(Val::Col(Reader::new(c))),
            DataType::Decimal => Typed::Dec(Val::Col(Reader::new(c))),
            DataType::Float64 => Typed::F64(Val::Col(Reader::new(c))),
            DataType::Date => Typed::Date(Val::Col(Reader::new(c))),
            DataType::Str => Typed::Str(StrVal::Col(Reader::new(c))),
        }
    }

    /// The type the table sees (integers are `Int64` once computed).
    fn dtype(&self) -> DataType {
        match self {
            Typed::Int(_) => DataType::Int64,
            Typed::Dec(_) => DataType::Decimal,
            Typed::F64(_) => DataType::Float64,
            Typed::Date(_) => DataType::Date,
            Typed::Bool(_) => DataType::Bool,
            Typed::Str(_) => DataType::Str,
        }
    }

    fn into_dec(self) -> Val<'p, T, Decimal> {
        match self {
            Typed::Int(v) => v.map(Decimal::from_int),
            Typed::Dec(v) => v,
            Typed::F64(v) => v.map(Decimal::from_f64),
            _ => unreachable!("typed as a number by the type table"),
        }
    }

    fn into_f64(self) -> Val<'p, T, f64> {
        match self {
            Typed::Int(v) => v.map(|v| v as f64),
            Typed::Dec(v) => v.map(Decimal::to_f64),
            Typed::F64(v) => v,
            _ => unreachable!("typed as a number by the type table"),
        }
    }

    fn into_value(self) -> Val<'p, T, Value> {
        match self {
            Typed::Int(v) => v.map(Value::Int64),
            Typed::Dec(v) => v.map(Value::Decimal),
            Typed::F64(v) => v.map(Value::Float64),
            Typed::Date(v) => v.map(Value::Date),
            Typed::Bool(v) => v.map(Value::Bool),
            Typed::Str(StrVal::Const(s)) => Val::Const(Value::Str(s)),
            Typed::Str(StrVal::Col(r)) => Val::Col(r),
        }
    }

    /// The aggregate update over this value, converted to the type `state`
    /// accumulates. An integer sum takes integers only: it reads any other
    /// input and drops it, as the tree did.
    fn accumulate_into(self, state: &AggState) -> Accumulate<'p, T> {
        match (state, self) {
            (AggState::SumDec(_) | AggState::AvgDec { .. }, v) => v.into_dec().accumulate(),
            (AggState::SumF64(_) | AggState::Avg { .. }, v) => v.into_f64().accumulate(),
            (_, Typed::Int(v)) => v.accumulate(),
            (_, Typed::Dec(v)) => v.accumulate(),
            (_, Typed::F64(v)) => v.accumulate(),
            (_, other) => other.into_value().accumulate(),
        }
    }
}

/// Ordering of the operand types comparisons accept. Floats that do not
/// compare (NaN) order as equal, as the tree's comparison did.
trait Ordered: Copy + Send + Sync + 'static {
    fn order(self, other: Self) -> Ordering;
}

macro_rules! ordered_by_ord {
    ($($t:ty),*) => {$(
        impl Ordered for $t {
            #[inline]
            fn order(self, other: Self) -> Ordering {
                self.cmp(&other)
            }
        }
    )*};
}

ordered_by_ord!(i64, Decimal, Date, bool);

impl Ordered for f64 {
    #[inline]
    fn order(self, other: Self) -> Ordering {
        self.partial_cmp(&other).unwrap_or(Ordering::Equal)
    }
}

fn ordered<'p, T: 'p, V: Ordered + FromColumn<T>>(
    op: BinaryOp,
    l: Val<'p, T, V>,
    r: Val<'p, T, V>,
) -> Val<'p, T, bool> {
    match op {
        BinaryOp::Eq => zip(l, r, |a: V, b: V| a.order(b) == Ordering::Equal),
        BinaryOp::Ne => zip(l, r, |a: V, b: V| a.order(b) != Ordering::Equal),
        BinaryOp::Lt => zip(l, r, |a: V, b: V| a.order(b) == Ordering::Less),
        BinaryOp::Le => zip(l, r, |a: V, b: V| a.order(b) != Ordering::Greater),
        BinaryOp::Gt => zip(l, r, |a: V, b: V| a.order(b) == Ordering::Greater),
        _ => zip(l, r, |a: V, b: V| a.order(b) != Ordering::Less),
    }
}

fn ordered_str<'p, T: TableAccess + 'p>(op: BinaryOp, l: StrVal, r: StrVal) -> Val<'p, T, bool> {
    match op {
        BinaryOp::Eq => zip_str(l, r, |a, b| a == b),
        BinaryOp::Ne => zip_str(l, r, |a, b| a != b),
        BinaryOp::Lt => zip_str(l, r, |a, b| a < b),
        BinaryOp::Le => zip_str(l, r, |a, b| a <= b),
        BinaryOp::Gt => zip_str(l, r, |a, b| a > b),
        _ => zip_str(l, r, |a, b| a >= b),
    }
}

/// The two numeric operands of a comparison or arithmetic node, converted
/// to the type they meet in (`mrq_expr::numeric_type`).
enum Pair<'p, T> {
    Int(Val<'p, T, i64>, Val<'p, T, i64>),
    Dec(Val<'p, T, Decimal>, Val<'p, T, Decimal>),
    F64(Val<'p, T, f64>, Val<'p, T, f64>),
}

/// Integer division; a zero divisor ends the query.
#[inline]
fn int_div(x: i64, y: i64) -> i64 {
    if y == 0 {
        abort_query(division_by_zero());
    }
    x / y
}

/// Decimal division, through floats as the tree divided; a zero divisor
/// ends the query.
fn dec_div(a: Decimal, b: Decimal) -> Decimal {
    if b == Decimal::ZERO {
        abort_query(division_by_zero());
    }
    Decimal::from_f64(a.to_f64() / b.to_f64())
}

/// Applies `$zip` to the operands with the closure for `$op` over `$t`.
/// Integer `+ − ×` wrap, as in C# and the oracle's `eval_binary`, so a debug
/// build agrees with a release build.
macro_rules! by_op {
    (@ $op:expr, $zip:ident, $a:expr, $b:expr, $add:expr, $sub:expr, $mul:expr, $div:expr) => {
        match $op {
            BinaryOp::Add => $zip($a, $b, $add),
            BinaryOp::Sub => $zip($a, $b, $sub),
            BinaryOp::Mul => $zip($a, $b, $mul),
            _ => $zip($a, $b, $div),
        }
    };
    ($op:expr, $zip:ident, $a:expr, $b:expr, i64) => {
        by_op!(@ $op, $zip, $a, $b, i64::wrapping_add, i64::wrapping_sub, i64::wrapping_mul, int_div)
    };
    ($op:expr, $zip:ident, $a:expr, $b:expr, $t:ty, $div:expr) => {
        by_op!(@ $op, $zip, $a, $b, |x: $t, y: $t| x + y, |x: $t, y: $t| x - y, |x: $t, y: $t| x * y, $div)
    };
}

impl<'p, T: TableAccess + 'p> Pair<'p, T> {
    fn new(to: DataType, l: Typed<'p, T>, r: Typed<'p, T>) -> Self {
        match (to, l, r) {
            (DataType::Int64, Typed::Int(a), Typed::Int(b)) => Pair::Int(a, b),
            (DataType::Decimal, l, r) => Pair::Dec(l.into_dec(), r.into_dec()),
            (_, l, r) => Pair::F64(l.into_f64(), r.into_f64()),
        }
    }

    fn compare(self, op: BinaryOp) -> Val<'p, T, bool> {
        match self {
            Pair::Int(a, b) => ordered(op, a, b),
            Pair::Dec(a, b) => ordered(op, a, b),
            Pair::F64(a, b) => ordered(op, a, b),
        }
    }

    fn eval(self, op: BinaryOp) -> Typed<'p, T> {
        match self {
            Pair::Int(a, b) => Typed::Int(by_op!(op, zip, a, b, i64)),
            Pair::Dec(a, b) => Typed::Dec(by_op!(op, zip, a, b, Decimal, dec_div)),
            Pair::F64(a, b) => Typed::F64(by_op!(op, zip, a, b, f64, |x: f64, y: f64| x / y)),
        }
    }

    /// The aggregate update over the result, fused when the result already
    /// has the type `state` accumulates.
    fn accumulate(self, op: BinaryOp, state: &AggState) -> Accumulate<'p, T> {
        match (self, state) {
            (Pair::Int(a, b), AggState::SumI64(_)) => by_op!(op, zip_fold, a, b, i64),
            (Pair::Dec(a, b), AggState::SumDec(_) | AggState::AvgDec { .. }) => {
                by_op!(op, zip_fold, a, b, Decimal, dec_div)
            }
            (Pair::F64(a, b), AggState::SumF64(_) | AggState::Avg { .. }) => {
                by_op!(op, zip_fold, a, b, f64, |x: f64, y: f64| x / y)
            }
            (other, state) => other.eval(op).accumulate_into(state),
        }
    }
}

/// `l op r` over two compiled operands, of the type the type table gives
/// their types. The table decides which pairs are legal; the arms below only
/// build the closure for each legal pair.
fn binary<'p, T: TableAccess + 'p>(
    op: BinaryOp,
    l: Typed<'p, T>,
    r: Typed<'p, T>,
) -> Result<Typed<'p, T>> {
    let out = binary_type(op, l.dtype(), r.dtype())?;
    let meet = numeric_type(l.dtype(), r.dtype());
    Ok(match (l, r) {
        (Typed::Bool(l), Typed::Bool(r)) if op == BinaryOp::And => Typed::Bool(and(l, r)),
        (Typed::Bool(l), Typed::Bool(r)) if op == BinaryOp::Or => Typed::Bool(or(l, r)),
        (l, r) if op.is_comparison() => Typed::Bool(match (meet, l, r) {
            (Some(to), l, r) => Pair::new(to, l, r).compare(op),
            (None, Typed::Date(a), Typed::Date(b)) => ordered(op, a, b),
            (None, Typed::Bool(a), Typed::Bool(b)) => ordered(op, a, b),
            (None, Typed::Str(a), Typed::Str(b)) => ordered_str(op, a, b),
            _ => unreachable!("comparison typed by the type table"),
        }),
        (Typed::Date(a), Typed::Date(b)) => Typed::Int(zip(a, b, |a: Date, b: Date| {
            a.epoch_days() as i64 - b.epoch_days() as i64
        })),
        (Typed::Date(d), Typed::Int(n)) if op == BinaryOp::Sub => {
            Typed::Date(zip(d, n, |d: Date, n: i64| d.add_days(-(n as i32))))
        }
        (Typed::Date(d), Typed::Int(n)) => {
            Typed::Date(zip(d, n, |d: Date, n: i64| d.add_days(n as i32)))
        }
        (Typed::Int(n), Typed::Date(d)) => {
            Typed::Date(zip(n, d, |n: i64, d: Date| d.add_days(n as i32)))
        }
        (l, r) => Pair::new(out, l, r).eval(op),
    })
}

// ---------------------------------------------------------------------------
// The compiler
// ---------------------------------------------------------------------------

/// A compiled key part.
enum KeyPart<'p, T> {
    /// Folded at compile time.
    Const(u64),
    /// An integer column.
    Int(Reader),
    /// A date column.
    Date(Reader),
    /// A string column, packed or interned per row.
    Str(Reader),
    /// Anything else, already encoded.
    Word(Eval<'p, T, u64>),
}

/// A compiled group or join key.
pub(crate) struct Key<'p, T> {
    parts: Vec<KeyPart<'p, T>>,
}

impl<T: TableAccess> Key<'_, T> {
    /// Encodes the key of the bound rows, part by part.
    #[inline]
    pub(crate) fn encode(&self, b: &Bound<'_, T>, interner: &mut StringInterner) -> KeyBuf {
        let mut key = KeyBuf::new();
        for part in &self.parts {
            key.push(match part {
                KeyPart::Const(word) => *word,
                KeyPart::Int(r) => i64::read(b, *r) as u64,
                KeyPart::Date(r) => Date::read(b, *r).epoch_days() as u32 as u64,
                KeyPart::Str(r) => interner.encode(r.str(b)),
                KeyPart::Word(f) => f(b),
            });
        }
        key
    }

    /// True if encoding may intern a string. A long string's id depends on
    /// first-seen order, which only a sequential scan reproduces.
    pub(crate) fn interns(&self) -> bool {
        self.parts.iter().any(|p| matches!(p, KeyPart::Str(_)))
    }
}

/// Conjoined predicates, tested in order until one fails (a row a
/// predicate rejects is never shown to the next, as with the tree's list
/// of filters).
pub(crate) struct Filter<'p, T> {
    predicates: Vec<Eval<'p, T, bool>>,
}

impl<T> Filter<'_, T> {
    #[inline]
    pub(crate) fn passes(&self, b: &Bound<'_, T>) -> bool {
        self.predicates.iter().all(|p| p(b))
    }
}

/// One join level: the build side's filter and key, and the probe key.
pub(crate) struct JoinProgram<'p, T> {
    /// The slot build rows bind.
    pub(crate) slot: usize,
    pub(crate) build_filter: Filter<'p, T>,
    pub(crate) build_key: Key<'p, T>,
    pub(crate) probe_key: Key<'p, T>,
}

/// One aggregate's per-row update.
pub(crate) enum Accumulator<'p, T> {
    /// `Count()`, which has no input to evaluate.
    Count,
    /// Evaluates the input and folds it into the state.
    Fold(Accumulate<'p, T>),
}

impl<T> Accumulator<'_, T> {
    #[inline]
    pub(crate) fn update(&self, b: &Bound<'_, T>, state: &mut AggState) {
        match self {
            Accumulator::Count => {
                if let AggState::Count(n) = state {
                    *n += 1;
                }
            }
            Accumulator::Fold(f) => f(b, state),
        }
    }
}

/// What a row that survives every filter and probe feeds.
pub(crate) enum Emit<'p, T> {
    /// Grouped: the key, the key columns' values (read when a group is
    /// first seen), one accumulator per aggregate and their initial states.
    Group {
        key: Key<'p, T>,
        key_values: Vec<Eval<'p, T, Value>>,
        accumulators: Vec<Accumulator<'p, T>>,
        initial: Vec<AggState>,
    },
    /// Not grouped: one closure per output column.
    Rows(Vec<Eval<'p, T, Value>>),
}

/// A query spec compiled for one execution.
pub(crate) struct Program<'p, T> {
    pub(crate) root_filter: Filter<'p, T>,
    pub(crate) joins: Vec<JoinProgram<'p, T>>,
    pub(crate) post_filter: Filter<'p, T>,
    pub(crate) emit: Emit<'p, T>,
}

impl<'p, T: TableAccess + 'p> Program<'p, T> {
    /// Compiles `spec` against this execution's `params` and the schema of
    /// every slot (root first). Constant string key parts are encoded with
    /// `interner`, the execution's own. Too few `params` is an error.
    pub(crate) fn compile(
        spec: &QuerySpec,
        params: &[Value],
        slot_schemas: &[Schema],
        interner: &mut StringInterner,
    ) -> Result<Self> {
        spec.check_params(params)?;
        let compiler = Compiler {
            params,
            slot_schemas,
        };
        let root_filter = compiler.conjunction(&spec.root_filters)?;
        let joins = spec
            .joins
            .iter()
            .map(|join| {
                Ok(JoinProgram {
                    slot: join.slot,
                    build_filter: compiler.conjunction(&join.build_filters)?,
                    build_key: compiler.key(&join.build_keys, interner)?,
                    probe_key: compiler.key(&join.probe_keys, interner)?,
                })
            })
            .collect::<Result<_>>()?;
        let post_filter = compiler.conjunction(&spec.post_filters)?;
        let emit = if spec.is_grouped() {
            for (_, output) in &spec.output {
                if let OutputExpr::Scalar(_) = output {
                    return Err(MrqError::Codegen(
                        "scalar outputs are not allowed in grouped queries".into(),
                    ));
                }
            }
            Emit::Group {
                key: compiler.key(&spec.group_keys, interner)?,
                key_values: spec
                    .group_keys
                    .iter()
                    .map(|k| Ok(compiler.value(k)?.into_fn()))
                    .collect::<Result<_>>()?,
                accumulators: spec
                    .aggregates
                    .iter()
                    .map(|a| compiler.accumulator(a))
                    .collect::<Result<_>>()?,
                initial: spec.aggregates.iter().map(AggState::new).collect(),
            }
        } else {
            Emit::Rows(
                spec.output
                    .iter()
                    .map(|(name, output)| match output {
                        OutputExpr::Scalar(e) => Ok(compiler.value(e)?.into_fn()),
                        OutputExpr::Key(_) | OutputExpr::Agg(_) => Err(MrqError::Codegen(format!(
                            "output `{name}` needs grouping, but the query is not grouped"
                        ))),
                    })
                    .collect::<Result<_>>()?,
            )
        };
        Ok(Program {
            root_filter,
            joins,
            post_filter,
            emit,
        })
    }
}

/// Types and compiles expressions against one execution's parameters and
/// slot schemas.
struct Compiler<'s> {
    params: &'s [Value],
    slot_schemas: &'s [Schema],
}

impl Compiler<'_> {
    fn dtype(&self, c: ColumnRef) -> Result<DataType> {
        self.slot_schemas
            .get(c.slot)
            .and_then(|schema| schema.fields().get(c.col))
            .map(|field| field.dtype)
            .ok_or_else(|| {
                MrqError::Codegen(format!("column {} of slot {} is not bound", c.col, c.slot))
            })
    }

    /// The value of a constant or parameter node, `None` for other nodes.
    fn constant<'e>(&'e self, expr: &'e ScalarExpr) -> Result<Option<&'e Value>> {
        match expr {
            ScalarExpr::Const(v) => Ok(Some(v)),
            ScalarExpr::Param(i) => self
                .params
                .get(*i)
                .map(Some)
                .ok_or_else(|| MrqError::Codegen(format!("parameter {i} is not bound"))),
            _ => Ok(None),
        }
    }

    fn conjunction<'p, T: TableAccess + 'p>(
        &self,
        filters: &[ScalarExpr],
    ) -> Result<Filter<'p, T>> {
        let mut predicates = Vec::new();
        for f in filters {
            match self.typed(f)? {
                Typed::Bool(Val::Const(true)) => {}
                Typed::Bool(other) => predicates.push(other.into_fn()),
                other => {
                    return Err(MrqError::Codegen(format!(
                        "a filter must be Bool, found {}",
                        other.dtype()
                    )))
                }
            }
        }
        Ok(Filter { predicates })
    }

    /// Compiles an expression, typing every operator through the type
    /// table.
    fn typed<'p, T: TableAccess + 'p>(&self, expr: &ScalarExpr) -> Result<Typed<'p, T>> {
        if let Some(v) = self.constant(expr)? {
            return Typed::constant(v);
        }
        match expr {
            ScalarExpr::Column(c) => Ok(Typed::column(*c, self.dtype(*c)?)),
            ScalarExpr::Binary { op, left, right } => {
                binary(*op, self.typed(left)?, self.typed(right)?)
            }
            ScalarExpr::Unary { op, expr } => {
                let v = self.typed(expr)?;
                unary_type(*op, v.dtype())?;
                Ok(match v {
                    Typed::Bool(v) => Typed::Bool(v.map(|v: bool| !v)),
                    Typed::Int(v) => Typed::Int(v.map(i64::wrapping_neg)),
                    Typed::Dec(v) => Typed::Dec(v.map(|v: Decimal| -v)),
                    Typed::F64(v) => Typed::F64(v.map(|v: f64| -v)),
                    _ => unreachable!("operand typed by the type table"),
                })
            }
            ScalarExpr::Str { op, target, arg } => {
                let (t, a) = (self.typed::<T>(target)?, self.typed::<T>(arg)?);
                method_type(op.method(), t.dtype(), a.dtype())?;
                let (Typed::Str(t), Typed::Str(a)) = (t, a) else {
                    unreachable!("operands typed by the type table")
                };
                Ok(Typed::Bool(match op {
                    StrOp::StartsWith => zip_str(t, a, |t, a| t.starts_with(a)),
                    StrOp::EndsWith => zip_str(t, a, |t, a| t.ends_with(a)),
                    StrOp::Contains => zip_str(t, a, |t, a| t.contains(a)),
                }))
            }
            ScalarExpr::Const(_) | ScalarExpr::Param(_) => unreachable!("folded above"),
        }
    }

    /// An expression whose result is a [`Value`] (outputs, group key
    /// values, `Min`/`Max` inputs). A column keeps its own type.
    fn value<'p, T: TableAccess + 'p>(&self, expr: &ScalarExpr) -> Result<Val<'p, T, Value>> {
        match expr {
            ScalarExpr::Column(c) => {
                self.dtype(*c)?;
                Ok(Val::Col(Reader::new(*c)))
            }
            ScalarExpr::Const(v) => Ok(Val::Const(v.clone())),
            other => Ok(self.typed(other)?.into_value()),
        }
    }

    fn key<'p, T: TableAccess + 'p>(
        &self,
        parts: &[ScalarExpr],
        interner: &mut StringInterner,
    ) -> Result<Key<'p, T>> {
        let word = |v: Val<'p, T, u64>| match v {
            Val::Const(w) => KeyPart::Const(w),
            Val::Fn(f) => KeyPart::Word(f),
            Val::Col(_) => unreachable!("`map` wraps a column read in its closure"),
        };
        let parts = parts
            .iter()
            .map(|part| {
                Ok(match self.typed(part)? {
                    Typed::Int(Val::Col(r)) => KeyPart::Int(r),
                    Typed::Date(Val::Col(r)) => KeyPart::Date(r),
                    Typed::Str(StrVal::Col(r)) => KeyPart::Str(r),
                    Typed::Str(StrVal::Const(s)) => KeyPart::Const(interner.encode(&s)),
                    Typed::Int(v) => word(v.map(|v: i64| v as u64)),
                    Typed::Dec(v) => word(v.map(|d: Decimal| d.raw() as u64)),
                    Typed::F64(v) => word(v.map(f64::to_bits)),
                    Typed::Date(v) => word(v.map(|d: Date| d.epoch_days() as u32 as u64)),
                    Typed::Bool(v) => word(v.map(|b: bool| b as u64)),
                })
            })
            .collect::<Result<_>>()?;
        Ok(Key { parts })
    }

    /// The update of one aggregate, its input compiled in and converted to
    /// the type the aggregate's state accumulates.
    fn accumulator<'p, T: TableAccess + 'p>(&self, spec: &AggSpec) -> Result<Accumulator<'p, T>> {
        let state = AggState::new(spec);
        if let AggState::Count(_) = state {
            return Ok(Accumulator::Count);
        }
        let input = spec
            .input
            .as_ref()
            .ok_or_else(|| MrqError::Codegen(format!("{:?} requires an input", spec.func)))?;
        Ok(Accumulator::Fold(match (&state, input) {
            (AggState::Min(_) | AggState::Max(_), _) => self.value(input)?.accumulate(),
            (_, ScalarExpr::Binary { op, left, right }) => {
                let (l, r) = (self.typed(left)?, self.typed(right)?);
                let out = binary_type(*op, l.dtype(), r.dtype())?;
                if out.is_numeric() && l.dtype().is_numeric() && r.dtype().is_numeric() {
                    // Numeric arithmetic: the operation and the fold fuse.
                    Pair::new(out, l, r).accumulate(*op, &state)
                } else {
                    binary(*op, l, r)?.accumulate_into(&state)
                }
            }
            _ => self.typed(input)?.accumulate_into(&state),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_strings_pack_and_long_strings_intern() {
        let mut interner = StringInterner::default();
        let a = interner.encode("REG AIR");
        assert_eq!(a, interner.encode("REG AIR"));
        assert_ne!(a, interner.encode("REG AI"));
        // Packing keeps trailing NULs apart from shorter strings.
        assert_ne!(interner.encode("A"), interner.encode("A\0"));
        assert_ne!(interner.encode(""), 0);
        assert!(interner.map.is_empty(), "short strings never intern");
        let long = interner.encode("BUILDING");
        assert_eq!(long, 0);
        assert_eq!(interner.encode("AUTOMOBILE"), 1);
        assert_eq!(interner.encode("BUILDING"), long);
        // Packed parts never meet interned ids.
        assert!(a >> 63 == 1 && long >> 63 == 0);
        assert_eq!(key_part_of_value(&Value::str("REG AIR"), &mut interner), a);
    }
}
