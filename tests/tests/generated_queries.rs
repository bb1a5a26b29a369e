//! Generated-query differential suite: seeded random filter trees,
//! aggregate inputs and group keys, run through every compiled strategy and
//! compared row for row with the LINQ-to-objects baseline.
//!
//! The generator covers the expression shapes the compiled executor has to
//! type and evaluate:
//!
//! * `And`/`Or`/`Not` nesting over all six comparisons;
//! * int, decimal, date and string columns against literals sampled from
//!   the data (so predicates are neither always true nor always false), and
//!   same-typed column-to-column comparisons, across join slots too;
//! * mixed `Int × Decimal` arithmetic in comparisons and aggregate inputs;
//! * `date ± integer` and `integer + date` against date literals and date
//!   columns, and `date − date` days against sampled day counts;
//! * `StartsWith`/`EndsWith`/`Contains` with arguments cut from real values;
//! * `Sum`/`Avg`/`Min`/`Max`/`Count`, grouped by string keys on both sides
//!   of the executor's short-string packing threshold (`l_shipmode` is at
//!   most 7 bytes; `c_mktsegment`, reached through the Q3 join, is 8–10;
//!   `o_orderpriority` and `l_shipinstruct` mix both), plus projections
//!   (of columns, arithmetic, shifted dates, day counts, string methods and
//!   predicates) with and without a fused `OrderBy`+`Take`;
//! * a seeded tenth of ill-typed queries (`date + date`, `decimal ± date`,
//!   `−date`, a date compared with an integer, a number under `&&` or `!`):
//!   every strategy, the LINQ baseline included, must refuse each with the
//!   identical `MrqError::Codegen`.
//!
//! The hybrid runs under both transfer policies and both materialisations:
//! under Min transfer, a projection's outputs are computed from the managed
//! objects after the native pass, so every projected shape above reaches
//! that path too.
//!
//! Every query is a pure function of its seed. A failure prints the seed
//! and the query tree; to replay one seed alone, set [`REPLAY`] to it.
//!
//! The parallel native strategy takes its thread count from
//! [`ParallelConfig::from_env`], so each `MRQ_THREADS` cell of the CI
//! matrix runs the suite at its own degree of parallelism.

use mrq_codegen::exec::{QueryOutput, TableAccess};
use mrq_common::{Decimal, MrqError, ParallelConfig, Value};
use mrq_core::{Provider, Strategy};
use mrq_engine_hybrid::{HybridConfig, TransferPolicy};
use mrq_engine_native::RowStore;
use mrq_expr::builder::agg;
use mrq_expr::{
    col, lam, lit, str_method, var, AggFunc, BinaryOp, Expr, Query, QueryMethod, SourceId, UnaryOp,
};
use mrq_tpch::load::{schema_of, value_rows, HeapDataset, TABLE_NAMES};
use mrq_tpch::queries::{SRC_CUSTOMER, SRC_LINEITEM, SRC_ORDERS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Number of generated queries per run, split evenly over `PARTS` tests.
const QUERIES: u64 = 200;
const PARTS: u64 = 4;
/// Seed of the first query; query `i` uses `FIRST_SEED + i`.
const FIRST_SEED: u64 = 0x5eed_0000;
/// Set to `Some(seed)` to run exactly one generated query.
const REPLAY: Option<u64> = None;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Dec,
    Date,
    Str,
}

/// A column the generator may reference: its field name in the query's row
/// variable, and the base table its literals are sampled from.
#[derive(Debug, Clone, Copy)]
struct Column {
    name: &'static str,
    table: &'static str,
    ty: Ty,
}

const fn column(name: &'static str, table: &'static str, ty: Ty) -> Column {
    Column { name, table, ty }
}

/// Lineitem columns, usable in both query shapes (the join shape projects
/// every one of them into its joined record under the same name).
const LINEITEM: &[Column] = &[
    column("l_orderkey", "lineitem", Ty::Int),
    column("l_linenumber", "lineitem", Ty::Int),
    column("l_quantity", "lineitem", Ty::Dec),
    column("l_extendedprice", "lineitem", Ty::Dec),
    column("l_discount", "lineitem", Ty::Dec),
    column("l_tax", "lineitem", Ty::Dec),
    column("l_returnflag", "lineitem", Ty::Str),
    column("l_linestatus", "lineitem", Ty::Str),
    column("l_shipdate", "lineitem", Ty::Date),
    column("l_commitdate", "lineitem", Ty::Date),
    column("l_shipinstruct", "lineitem", Ty::Str),
    column("l_shipmode", "lineitem", Ty::Str),
];

/// Order and customer columns carried into the join shape's records.
const JOINED: &[Column] = &[
    column("o_orderdate", "orders", Ty::Date),
    column("o_orderpriority", "orders", Ty::Str),
    column("o_totalprice", "orders", Ty::Dec),
    column("o_shippriority", "orders", Ty::Int),
    column("c_mktsegment", "customer", Ty::Str),
    column("c_acctbal", "customer", Ty::Dec),
    column("c_nationkey", "customer", Ty::Int),
];

/// Group-key sets of the single-table shape.
const LINEITEM_KEYS: &[&[&str]] = &[
    &["l_shipmode"],
    &["l_returnflag", "l_linestatus"],
    &["l_shipinstruct"],
    &["l_linenumber"],
    &["l_shipmode", "l_returnflag"],
];

/// Group-key sets of the join shape.
const JOINED_KEYS: &[&[&str]] = &[
    &["c_mktsegment"],
    &["o_orderpriority"],
    &["c_mktsegment", "o_orderpriority"],
    &["c_mktsegment", "l_shipmode"],
];

/// The tables, in every representation the strategies read.
struct Fixture {
    managed: Provider<'static>,
    native: Provider<'static>,
    stores: HashMap<&'static str, Arc<RowStore>>,
    parallel: ParallelConfig,
}

impl Fixture {
    fn new() -> Fixture {
        let data = mrq_xtests::small_dataset();
        let dataset = HeapDataset::load(&data);
        let lists: Vec<_> = TABLE_NAMES.iter().map(|t| dataset.list(t)).collect();
        let mut managed = Provider::over_shared_heap(Arc::new(dataset.heap));
        let mut native = Provider::new();
        let mut stores = HashMap::new();
        for (i, table) in TABLE_NAMES.iter().enumerate() {
            let source = SourceId(i as u32);
            let schema = schema_of(table);
            managed.bind_managed(source, lists[i], schema.clone());
            let store = Arc::new(RowStore::from_rows(schema, &value_rows(&data, table)));
            native.bind_native_shared(source, Arc::clone(&store));
            stores.insert(*table, store);
        }
        // Keep the environment's thread count, but split the small dataset
        // into many morsels so forks and merges actually happen.
        let mut parallel = ParallelConfig::from_env();
        parallel.min_rows_per_thread = 16;
        parallel.morsel_rows = parallel.morsel_rows.min(256);
        Fixture {
            managed,
            native,
            stores,
            parallel,
        }
    }

    /// The value of `column` in a random row of its base table.
    fn sample(&self, rng: &mut SmallRng, column: Column) -> Value {
        let store = &self.stores[column.table];
        let schema = schema_of(column.table);
        let col = schema.index_of(column.name).expect("known column");
        let row = rng.gen_range(0..store.len());
        store.get_value(row, col)
    }
}

/// One generated numeric expression, kept alongside its `Expr` so the
/// generator can sample a literal of the right magnitude for comparisons.
enum Num {
    Col(Column),
    Arith(BinaryOp, Box<Num>, Box<Num>),
}

impl Num {
    fn ty(&self) -> Ty {
        match self {
            Num::Col(c) => c.ty,
            Num::Arith(_, l, r) => {
                if l.ty() == Ty::Dec || r.ty() == Ty::Dec {
                    Ty::Dec
                } else {
                    Ty::Int
                }
            }
        }
    }

    fn expr(&self, var: &str) -> Expr {
        match self {
            Num::Col(c) => col(var, c.name),
            Num::Arith(op, l, r) => Expr::binary(*op, l.expr(var), r.expr(var)),
        }
    }

    /// Columns read, in evaluation order (each sampled from one row of its
    /// table when a comparison literal is drawn).
    fn columns(&self, out: &mut Vec<Column>) {
        match self {
            Num::Col(c) => out.push(*c),
            Num::Arith(_, l, r) => {
                l.columns(out);
                r.columns(out);
            }
        }
    }
}

/// Evaluates a generated numeric tree over sampled column values; used only
/// to pick realistic comparison literals, never to check results.
fn eval_num(num: &Num, values: &mut impl Iterator<Item = Value>) -> Value {
    match num {
        Num::Col(_) => values.next().expect("one value per column"),
        Num::Arith(op, l, r) => {
            let (a, b) = (eval_num(l, values), eval_num(r, values));
            match (a.as_i64(), b.as_i64()) {
                (Some(a), Some(b)) => Value::Int64(match op {
                    BinaryOp::Add => a + b,
                    BinaryOp::Sub => a - b,
                    _ => a * b,
                }),
                _ => {
                    let (a, b) = (a.as_decimal().unwrap(), b.as_decimal().unwrap());
                    Value::Decimal(match op {
                        BinaryOp::Add => a + b,
                        BinaryOp::Sub => a - b,
                        _ => a * b,
                    })
                }
            }
        }
    }
}

const COMPARISONS: [BinaryOp; 6] = [
    BinaryOp::Eq,
    BinaryOp::Ne,
    BinaryOp::Lt,
    BinaryOp::Le,
    BinaryOp::Gt,
    BinaryOp::Ge,
];

struct Gen<'f> {
    rng: SmallRng,
    fixture: &'f Fixture,
    /// Columns in scope for this query's row variable.
    columns: Vec<Column>,
    var: &'static str,
}

impl Gen<'_> {
    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.rng.gen_range(0..items.len())]
    }

    fn column_of(&mut self, ty: Option<Ty>) -> Column {
        let candidates: Vec<Column> = self
            .columns
            .iter()
            .copied()
            .filter(|c| ty.is_none_or(|t| c.ty == t))
            .collect();
        self.pick(&candidates)
    }

    fn num(&mut self, depth: u32) -> Num {
        if depth == 0 || self.rng.gen_bool(0.5) {
            let ty = if self.rng.gen_bool(0.5) {
                Ty::Int
            } else {
                Ty::Dec
            };
            return Num::Col(self.column_of(Some(ty)));
        }
        let op = self.pick(&[BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul]);
        Num::Arith(
            op,
            Box::new(self.num(depth - 1)),
            Box::new(self.num(depth - 1)),
        )
    }

    /// A comparison literal for `num`: its value at one sampled row per
    /// column.
    fn num_literal(&mut self, num: &Num) -> Value {
        let mut columns = Vec::new();
        num.columns(&mut columns);
        let values: Vec<Value> = columns
            .into_iter()
            .map(|c| self.fixture.sample(&mut self.rng, c))
            .collect();
        let value = eval_num(num, &mut values.into_iter());
        match (num.ty(), value) {
            (Ty::Dec, Value::Int64(v)) => Value::Decimal(Decimal::from_int(v)),
            (_, v) => v,
        }
    }

    fn compare(&mut self, op: BinaryOp, left: Expr, right: Expr) -> Expr {
        if self.rng.gen_bool(0.2) {
            Expr::binary(op, right, left)
        } else {
            Expr::binary(op, left, right)
        }
    }

    fn predicate(&mut self, depth: u32) -> Expr {
        let leaf = depth == 0 || self.rng.gen_bool(0.35);
        let choice = if leaf {
            self.rng.gen_range(3..10)
        } else {
            self.rng.gen_range(0..10)
        };
        match choice {
            0 => Expr::binary(
                BinaryOp::And,
                self.predicate(depth - 1),
                self.predicate(depth - 1),
            ),
            1 => Expr::binary(
                BinaryOp::Or,
                self.predicate(depth - 1),
                self.predicate(depth - 1),
            ),
            2 => Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(self.predicate(depth - 1)),
            },
            3 | 4 => {
                // A column against a literal sampled from the data.
                let op = self.pick(&COMPARISONS);
                let column = self.column_of(None);
                let literal = self.fixture.sample(&mut self.rng, column);
                let left = col(self.var, column.name);
                self.compare(op, left, lit(literal))
            }
            5 => {
                // Arithmetic (often mixed Int × Decimal) against a literal.
                let op = self.pick(&COMPARISONS);
                let num = self.num(2);
                let literal = self.num_literal(&num);
                let left = num.expr(self.var);
                self.compare(op, left, lit(literal))
            }
            6 => {
                // Two columns of one type (across join slots when in scope).
                let op = self.pick(&COMPARISONS);
                let ty = self.pick(&[Ty::Int, Ty::Dec, Ty::Date, Ty::Str]);
                let (a, b) = (self.column_of(Some(ty)), self.column_of(Some(ty)));
                Expr::binary(op, col(self.var, a.name), col(self.var, b.name))
            }
            7 => self.string_method(),
            8 => {
                // Days between two dates against a sampled day count.
                let op = self.pick(&COMPARISONS);
                let (lag, days) = self.date_lag();
                self.compare(op, lag, lit(days))
            }
            _ => {
                // A shifted date against a sampled date or a date column.
                let op = self.pick(&COMPARISONS);
                let shifted = self.date_shift();
                let right = if self.rng.gen_bool(0.5) {
                    let column = self.column_of(Some(Ty::Date));
                    lit(self.fixture.sample(&mut self.rng, column))
                } else {
                    col(self.var, self.column_of(Some(Ty::Date)).name)
                };
                self.compare(op, shifted, right)
            }
        }
    }

    /// `StartsWith`/`EndsWith`/`Contains` over a string column, with an
    /// argument cut from one of its values.
    fn string_method(&mut self) -> Expr {
        let method = self.pick(&[
            QueryMethod::StartsWith,
            QueryMethod::EndsWith,
            QueryMethod::Contains,
        ]);
        let column = self.column_of(Some(Ty::Str));
        let text = self.fixture.sample(&mut self.rng, column);
        let text = text.as_str().expect("string column");
        let len = text.chars().count();
        let take = self.rng.gen_range(0..=len.min(4));
        let piece: String = match method {
            QueryMethod::StartsWith => text.chars().take(take).collect(),
            QueryMethod::EndsWith => text.chars().skip(len - take).collect(),
            _ => {
                let start = self.rng.gen_range(0..=len - take);
                text.chars().skip(start).take(take).collect()
            }
        };
        str_method(method, col(self.var, column.name), lit(piece))
    }

    fn date_column(&mut self) -> Expr {
        col(self.var, self.column_of(Some(Ty::Date)).name)
    }

    /// A date column shifted by up to 90 days: `date ± k` or `k + date`.
    fn date_shift(&mut self) -> Expr {
        let date = self.date_column();
        let days = lit(self.rng.gen_range(-90i64..=90));
        match self.rng.gen_range(0..3) {
            0 => Expr::binary(BinaryOp::Add, date, days),
            1 => Expr::binary(BinaryOp::Sub, date, days),
            _ => Expr::binary(BinaryOp::Add, days, date),
        }
    }

    /// `a − b` over two date columns, and the days between a sampled `a`
    /// and a sampled `b`.
    fn date_lag(&mut self) -> (Expr, i64) {
        let (a, b) = (
            self.column_of(Some(Ty::Date)),
            self.column_of(Some(Ty::Date)),
        );
        let mut days = |c: Column| {
            let value = self.fixture.sample(&mut self.rng, c);
            value.as_date().expect("date column").epoch_days() as i64
        };
        let lag = days(a) - days(b);
        let expr = Expr::binary(BinaryOp::Sub, col(self.var, a.name), col(self.var, b.name));
        (expr, lag)
    }

    /// A predicate the type table rejects.
    fn ill_typed(&mut self) -> Expr {
        let op = self.pick(&COMPARISONS);
        let number = |g: &mut Self| {
            let ty = g.pick(&[Ty::Int, Ty::Dec]);
            col(g.var, g.column_of(Some(ty)).name)
        };
        match self.rng.gen_range(0..6) {
            0 => {
                let sum = Expr::binary(BinaryOp::Add, self.date_column(), self.date_column());
                Expr::binary(op, sum, self.date_column())
            }
            1 => {
                let arith = self.pick(&[BinaryOp::Add, BinaryOp::Sub]);
                let decimal = col(self.var, self.column_of(Some(Ty::Dec)).name);
                let mixed = Expr::binary(arith, decimal, self.date_column());
                let date = self.date_column();
                self.compare(op, mixed, date)
            }
            2 => {
                let negated = Expr::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(self.date_column()),
                };
                Expr::binary(op, negated, self.date_column())
            }
            3 => {
                let days = if self.rng.gen_bool(0.5) {
                    col(self.var, self.column_of(Some(Ty::Int)).name)
                } else {
                    lit(self.rng.gen_range(0i64..10_000))
                };
                let date = self.date_column();
                self.compare(op, date, days)
            }
            4 => {
                let operand = number(self);
                let predicate = self.predicate(0);
                self.compare(BinaryOp::And, operand, predicate)
            }
            _ => Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(number(self)),
            },
        }
    }

    /// A filter of `depth`; when `ill_typed`, one ill-typed predicate is
    /// joined into it.
    fn filter(&mut self, depth: u32, ill_typed: bool) -> Expr {
        let filter = self.predicate(depth);
        if !ill_typed {
            return filter;
        }
        let bad = self.ill_typed();
        let op = self.pick(&[BinaryOp::And, BinaryOp::Or]);
        self.compare(op, filter, bad)
    }

    /// One aggregate of the group `g` over row variable `x`.
    fn aggregate(&mut self) -> Expr {
        let num = |g: &mut Self| Some(lam("x", g.num(2).expr("x")));
        match self.rng.gen_range(0..5) {
            0 => agg(AggFunc::Count, "g", None),
            1 => agg(AggFunc::Sum, "g", num(self)),
            2 => agg(AggFunc::Average, "g", num(self)),
            n => {
                let func = if n == 3 { AggFunc::Min } else { AggFunc::Max };
                let selector = if self.rng.gen_bool(0.5) {
                    let column = self.column_of(None);
                    col("x", column.name)
                } else {
                    self.num(2).expr("x")
                };
                agg(func, "g", Some(lam("x", selector)))
            }
        }
    }
}

/// `lineitem ⋈ orders ⋈ customer` (the Q3 join), projecting every generated
/// column into one record.
fn q3_join(lineitem_filter: Expr) -> Query {
    let lo_fields = LINEITEM
        .iter()
        .map(|c| (c.name.to_string(), col("l", c.name)))
        .chain(
            JOINED
                .iter()
                .filter(|c| c.table == "orders")
                .map(|c| (c.name.to_string(), col("o", c.name))),
        )
        .chain([("o_custkey".to_string(), col("o", "o_custkey"))])
        .collect();
    let loc_fields = LINEITEM
        .iter()
        .chain(JOINED.iter().filter(|c| c.table == "orders"))
        .map(|c| (c.name.to_string(), col("x", c.name)))
        .chain(
            JOINED
                .iter()
                .filter(|c| c.table == "customer")
                .map(|c| (c.name.to_string(), col("c", c.name))),
        )
        .collect();
    Query::from_source(SRC_LINEITEM)
        .where_(lam("l", lineitem_filter))
        .join_query(
            Query::from_source(SRC_ORDERS),
            lam("l", col("l", "l_orderkey")),
            lam("o", col("o", "o_orderkey")),
            lam(
                "l",
                lam(
                    "o",
                    Expr::Constructor {
                        name: "LO".into(),
                        fields: lo_fields,
                    },
                ),
            ),
        )
        .join_query(
            Query::from_source(SRC_CUSTOMER),
            lam("x", col("x", "o_custkey")),
            lam("c", col("c", "c_custkey")),
            lam(
                "x",
                lam(
                    "c",
                    Expr::Constructor {
                        name: "LOC".into(),
                        fields: loc_fields,
                    },
                ),
            ),
        )
}

/// Groups `query` by `keys` (fields of row variable `y`), emits the keys
/// and 1–4 generated aggregates, and orders by the keys.
fn grouped(generator: &mut Gen<'_>, query: Query, keys: &[&str]) -> Query {
    let key = Expr::Constructor {
        name: "K".into(),
        fields: keys.iter().map(|k| (k.to_string(), col("y", k))).collect(),
    };
    let mut fields: Vec<(String, Expr)> = keys
        .iter()
        .map(|k| {
            (
                k.to_string(),
                Expr::member(Expr::member(var("g"), "Key"), *k),
            )
        })
        .collect();
    for i in 0..generator.rng.gen_range(1..=4) {
        fields.push((format!("a{i}"), generator.aggregate()));
    }
    let mut query = query.group_by(lam("y", key)).select(lam(
        "g",
        Expr::Constructor {
            name: "R".into(),
            fields,
        },
    ));
    query = query.order_by(lam("r", col("r", keys[0])));
    for k in &keys[1..] {
        query = query.then_by(lam("r", col("r", k)));
    }
    query
}

/// The query for one seed: a filtered, grouped lineitem scan; the grouped
/// Q3 join with a generated post-join filter; or a filtered projection
/// (ordered by its unique key, sometimes with a fused `Take`). A tenth of
/// the seeds put an ill-typed predicate into the first filter, which the
/// returned flag reports.
fn generate(seed: u64, fixture: &Fixture) -> (Expr, bool) {
    let mut generator = Gen {
        rng: SmallRng::seed_from_u64(seed),
        fixture,
        columns: LINEITEM.to_vec(),
        var: "l",
    };
    let ill_typed = generator.rng.gen_bool(0.1);
    let query = match generator.rng.gen_range(0..3) {
        0 => {
            let filter = generator.filter(3, ill_typed);
            let keys = generator.pick(LINEITEM_KEYS);
            generator.var = "y";
            grouped(
                &mut generator,
                Query::from_source(SRC_LINEITEM).where_(lam("l", filter)),
                keys,
            )
        }
        1 => {
            let filter = generator.filter(2, ill_typed);
            let mut query = q3_join(filter);
            generator.columns.extend_from_slice(JOINED);
            generator.var = "y";
            if generator.rng.gen_bool(0.7) {
                query = query.where_(lam("y", generator.predicate(2)));
            }
            let keys = generator.pick(JOINED_KEYS);
            grouped(&mut generator, query, keys)
        }
        _ => {
            let filter = generator.filter(3, ill_typed);
            let mut fields = vec![
                ("l_orderkey".to_string(), col("l", "l_orderkey")),
                ("l_linenumber".to_string(), col("l", "l_linenumber")),
            ];
            for i in 0..generator.rng.gen_range(1..=3) {
                let value = match generator.rng.gen_range(0..6) {
                    0 => generator.num(2).expr("l"),
                    1 => col("l", generator.column_of(None).name),
                    2 => generator.date_shift(),
                    3 => generator.date_lag().0,
                    4 => generator.string_method(),
                    _ => generator.predicate(1),
                };
                fields.push((format!("v{i}"), value));
            }
            let mut query = Query::from_source(SRC_LINEITEM)
                .where_(lam("l", filter))
                .select(lam(
                    "l",
                    Expr::Constructor {
                        name: "P".into(),
                        fields,
                    },
                ));
            if generator.rng.gen_bool(0.5) {
                query = query
                    .order_by_desc(lam("r", col("r", "l_orderkey")))
                    .then_by(lam("r", col("r", "l_linenumber")));
                if generator.rng.gen_bool(0.5) {
                    query = query.take(generator.rng.gen_range(0..40));
                }
            }
            query
        }
    };
    (query.into_expr(), ill_typed)
}

fn strategies(fixture: &Fixture) -> Vec<(&'static str, &Provider<'static>, Strategy)> {
    vec![
        ("native", &fixture.native, Strategy::CompiledNative),
        (
            "native-parallel",
            &fixture.native,
            Strategy::CompiledNativeParallel(fixture.parallel),
        ),
        ("csharp", &fixture.managed, Strategy::CompiledCSharp),
        (
            "hybrid",
            &fixture.managed,
            Strategy::Hybrid(HybridConfig::default()),
        ),
        (
            "hybrid-buffered",
            &fixture.managed,
            Strategy::Hybrid(HybridConfig::buffered()),
        ),
        (
            "hybrid-min",
            &fixture.managed,
            Strategy::Hybrid(HybridConfig {
                transfer: TransferPolicy::Min,
                ..HybridConfig::default()
            }),
        ),
    ]
}

/// The head of a result, for failure messages.
fn summary(result: &Result<QueryOutput, MrqError>) -> String {
    match result {
        Ok(out) => format!(
            "{} rows: {:?}",
            out.rows.len(),
            &out.rows[..out.rows.len().min(5)]
        ),
        Err(e) => format!("error: {e}"),
    }
}

/// Runs one seed on every strategy. A well-typed query must return LINQ's
/// rows everywhere (`Some` of them); an ill-typed one LINQ's
/// `MrqError::Codegen` everywhere (`None`).
fn check(seed: u64, fixture: &Fixture) -> Result<Option<QueryOutput>, String> {
    let (expr, ill_typed) = generate(seed, fixture);
    let context = |what: String| format!("seed {seed:#x}: {what}\nquery: {expr}");
    let oracle = fixture
        .managed
        .execute(expr.clone(), Strategy::LinqToObjects);
    if ill_typed != matches!(oracle, Err(MrqError::Codegen(_))) {
        return Err(context(format!("linq: {}", summary(&oracle))));
    }
    for (name, provider, strategy) in strategies(fixture) {
        let out = provider.execute(expr.clone(), strategy);
        if out != oracle {
            return Err(context(format!(
                "{name} disagrees with linq\n  linq: {}\n  {name}: {}",
                summary(&oracle),
                summary(&out),
            )));
        }
    }
    Ok(oracle.ok())
}

/// Runs the seeds `FIRST_SEED + part * QUERIES / PARTS ..` of one part
/// (or only [`REPLAY`], in part 0) and reports every failure at once.
fn run_part(part: u64) {
    let seeds: Vec<u64> = match REPLAY {
        Some(seed) if part == 0 => vec![seed],
        Some(_) => return,
        None => {
            let per_part = QUERIES / PARTS;
            let start = FIRST_SEED + part * per_part;
            (start..start + per_part).collect()
        }
    };
    let fixture = Fixture::new();
    let mut failures = Vec::new();
    let mut nonempty = 0;
    for &seed in &seeds {
        match check(seed, &fixture) {
            Ok(out) => nonempty += usize::from(out.is_some_and(|out| !out.rows.is_empty())),
            Err(message) => failures.push(message),
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} generated queries failed:\n\n{}",
        failures.len(),
        seeds.len(),
        failures.join("\n\n")
    );
    // The generator samples literals from the data, so most queries keep
    // rows; a collapse to empty results would make the suite vacuous.
    if REPLAY.is_none() {
        assert!(
            nonempty * 2 > seeds.len(),
            "only {nonempty} of {} generated queries returned rows",
            seeds.len()
        );
    }
}

// The seeds are split over a few tests so the harness runs them on
// parallel threads.
#[test]
fn generated_queries_match_linq_part_0() {
    run_part(0);
}

#[test]
fn generated_queries_match_linq_part_1() {
    run_part(1);
}

#[test]
fn generated_queries_match_linq_part_2() {
    run_part(2);
}

#[test]
fn generated_queries_match_linq_part_3() {
    run_part(3);
}

#[test]
fn generator_is_a_pure_function_of_the_seed() {
    let fixture = Fixture::new();
    for seed in FIRST_SEED..FIRST_SEED + 8 {
        assert_eq!(generate(seed, &fixture), generate(seed, &fixture));
    }
    assert_ne!(
        generate(FIRST_SEED, &fixture),
        generate(FIRST_SEED + 1, &fixture)
    );
}

#[test]
fn packing_threshold_is_covered_on_both_sides() {
    // The key columns named in the module docs really straddle the 7-byte
    // threshold in the small dataset.
    let data = mrq_xtests::small_dataset();
    let max_len = |values: Vec<&str>| values.iter().map(|s| s.len()).max().unwrap();
    let min_len = |values: Vec<&str>| values.iter().map(|s| s.len()).min().unwrap();
    let shipmodes: Vec<&str> = data
        .lineitem
        .iter()
        .map(|l| l.l_shipmode.as_str())
        .collect();
    assert!(max_len(shipmodes) <= 7);
    let segments: Vec<&str> = data
        .customer
        .iter()
        .map(|c| c.c_mktsegment.as_str())
        .collect();
    assert!(min_len(segments.clone()) >= 8 && max_len(segments) <= 10);
    let priorities: Vec<&str> = data
        .orders
        .iter()
        .map(|o| o.o_orderpriority.as_str())
        .collect();
    assert!(min_len(priorities.clone()) <= 7 && max_len(priorities) > 7);
}
