//! Seeded op scripts.
//!
//! A script is one *pass* over a workload: a fixed number of ops, each a
//! query template instantiated with literals drawn from `--seed`, in an
//! order shuffled by the same seed. Passes repeat the script, so every
//! pass — on either side of a later comparison — does identical work.
//!
//! Literals are stratified: a template that appears `n` times in a pass
//! gets one literal set from each of `n` equal slices of its literal range,
//! and the seed only chooses the point inside each slice. Statements
//! therefore differ in text from op to op and from seed to seed, while the
//! work of a whole pass barely moves with the seed — which is what lets
//! runs with different seeds be compared at all.

use mrq_common::{Date, Decimal};
use mrq_expr::Expr;
use mrq_tpch::gen::{TpchData, SEGMENTS};
use mrq_tpch::queries;

/// The query templates the workloads draw from (`mrq_tpch::queries`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// `q1_with_cutoff`: scan + 4-group aggregation, 4 result rows.
    Q1,
    /// `q6_with_params`: scan + conjunctive filter + one sum, 1 row.
    Q6,
    /// `q3_with_params`: two joins + grouping + top-10.
    Q3,
    /// `join_micro`: the Q3 join without the grouping, a few hundred rows.
    Join,
    /// `sort_topn_micro`: filter + sort + `Take(n)`, `n` ≤ 100.
    SortTopN,
    /// `aggregation_micro` with four sums.
    Agg,
    /// `scan_micro` at ≈50% selectivity: the streamable bulk result.
    Scan,
}

impl Template {
    /// The six templates of the embedded workloads, in per-layer metric
    /// order (`engine-*.{q1,q6,q3,join,sort,agg}_ms`).
    pub const SIX: [Template; 6] = [
        Template::Q1,
        Template::Q6,
        Template::Q3,
        Template::Join,
        Template::SortTopN,
        Template::Agg,
    ];

    /// Short name used in metric names and trace spans.
    pub fn name(self) -> &'static str {
        match self {
            Template::Q1 => "q1",
            Template::Q6 => "q6",
            Template::Q3 => "q3",
            Template::Join => "join",
            Template::SortTopN => "sort",
            Template::Agg => "agg",
            Template::Scan => "scan",
        }
    }
}

/// splitmix64: the whole benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a function of `seed` alone.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The sorted `l_shipdate` values of the generated data, so a literal can
/// be chosen by the share of `lineitem` it selects.
pub struct Calendar {
    ship_days: Vec<i32>,
}

impl Calendar {
    /// Reads the ship dates off a generated dataset.
    pub fn of(data: &TpchData) -> Calendar {
        let mut ship_days: Vec<i32> = data
            .lineitem
            .iter()
            .map(|l| l.l_shipdate.epoch_days())
            .collect();
        ship_days.sort_unstable();
        Calendar { ship_days }
    }

    /// A calendar over explicit days (tests).
    #[cfg(test)]
    pub fn from_days(mut ship_days: Vec<i32>) -> Calendar {
        ship_days.sort_unstable();
        Calendar { ship_days }
    }

    /// The ship date at or below which a `share` of `lineitem` falls.
    pub fn ship_at(&self, share: f64) -> Date {
        let idx = ((self.ship_days.len() - 1) as f64 * share.clamp(0.0, 1.0)).round() as usize;
        Date::from_epoch_days(self.ship_days[idx])
    }
}

/// One distinct statement of a pass: a template with its literals inlined.
pub struct Query {
    /// The template it instantiates.
    pub template: Template,
    /// The expression tree handed to the program under test.
    pub expr: Expr,
}

/// One op: which statement, run which way (the workload defines what a
/// variant means — a strategy, or ad-hoc versus prepared).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into [`Script::queries`].
    pub query: usize,
    /// Index into the workload's variant list.
    pub variant: usize,
}

/// One pass of a workload.
pub struct Script {
    /// The distinct statements; the oracle evaluates each once.
    pub queries: Vec<Query>,
    /// Every (statement, variant) pair exactly once, in seeded order.
    pub ops: Vec<Op>,
}

/// Instantiates `template` with literals from slice `k` of `n` of its
/// literal range; `rng` picks the point inside the slice.
pub fn instantiate(template: Template, k: usize, n: usize, cal: &Calendar, rng: &mut Rng) -> Query {
    // A point in [lo, hi), inside the k-th of n equal slices.
    let mut within = |lo: f64, hi: f64| lo + (hi - lo) * (k as f64 + rng.unit()) / n as f64;
    let expr = match template {
        Template::Q1 => queries::q1_with_cutoff(cal.ship_at(within(0.90, 0.98))),
        Template::Q6 => {
            // One-year windows starting between 1993-01-01 and 1996-12-31.
            let from = Date::from_ymd(1993, 1, 1).add_days(within(0.0, 1460.0) as i32);
            let discount = Decimal::from_raw(5 + rng.below(3) as i64);
            let quantity = Decimal::from_int(24 + rng.below(2) as i64);
            queries::q6_with_params(from, discount, quantity)
        }
        Template::Q3 => {
            let date = Date::from_ymd(1995, 3, 1).add_days(within(0.0, 31.0) as i32);
            queries::q3_with_params(SEGMENTS[k % SEGMENTS.len()], date)
        }
        Template::Join => {
            // The segment is fixed per slice and the date range narrow: the
            // join's few hundred rows are most of what a pass delivers.
            let date = cal.ship_at(within(0.49, 0.51));
            queries::join_micro(SEGMENTS[k % SEGMENTS.len()], date, date)
        }
        Template::SortTopN => {
            // `take` is fixed per slice, so a pass delivers the same number
            // of rows whatever the seed.
            let take = 100 * (k as i64 + 1) / n as i64;
            queries::sort_topn_micro(cal.ship_at(within(0.45, 0.55)), take)
        }
        Template::Agg => queries::aggregation_micro(cal.ship_at(within(0.45, 0.55)), 4),
        Template::Scan => queries::scan_micro(cal.ship_at(within(0.48, 0.52))),
    };
    Query { template, expr }
}

/// Builds one pass: `count` statements of each of `templates`, every
/// statement run once per variant.
pub fn generate(
    seed: u64,
    cal: &Calendar,
    templates: &[Template],
    count: usize,
    variants: usize,
) -> Script {
    let mut rng = Rng::new(seed);
    let mut queries = Vec::new();
    for &template in templates {
        for k in 0..count {
            queries.push(instantiate(template, k, count, cal, &mut rng));
        }
    }
    let mut ops: Vec<Op> = (0..queries.len())
        .flat_map(|query| (0..variants).map(move |variant| Op { query, variant }))
        .collect();
    // Fisher–Yates, so neighbouring ops do not share a template.
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.below(i + 1));
    }
    Script { queries, ops }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn calendar() -> Calendar {
        // 1992-01-01 .. 1998-12-01, one row per day.
        let first = Date::from_ymd(1992, 1, 1).epoch_days();
        let last = Date::from_ymd(1998, 12, 1).epoch_days();
        Calendar::from_days((first..=last).collect())
    }

    const THREE: [Template; 3] = [Template::Q1, Template::Q6, Template::Join];

    fn texts(script: &Script) -> Vec<String> {
        script
            .queries
            .iter()
            .map(|q| format!("{:?}", q.expr))
            .collect()
    }

    #[test]
    fn equal_seeds_give_identical_scripts() {
        let cal = calendar();
        let a = generate(42, &cal, &THREE, 2, 2);
        let b = generate(42, &cal, &THREE, 2, 2);
        assert_eq!(texts(&a), texts(&b));
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn different_seeds_give_different_literals_and_order() {
        let cal = calendar();
        let a = generate(1, &cal, &THREE, 2, 2);
        let b = generate(2, &cal, &THREE, 2, 2);
        assert_ne!(texts(&a), texts(&b));
        assert_ne!(a.ops, b.ops);
    }

    #[test]
    fn a_pass_runs_every_statement_once_per_variant() {
        let script = generate(7, &calendar(), &THREE, 2, 3);
        assert_eq!(script.queries.len(), 6);
        assert_eq!(script.ops.len(), 18);
        let mut seen = script.ops.clone();
        seen.sort_by_key(|op| (op.query, op.variant));
        seen.dedup();
        assert_eq!(seen.len(), 18);
    }

    #[test]
    fn statements_of_one_template_share_a_shape_but_not_their_text() {
        let script = generate(9, &calendar(), &[Template::Q1], 4, 1);
        let shapes: Vec<u64> = script
            .queries
            .iter()
            .map(|q| mrq_expr::canonicalize(q.expr.clone()).shape_hash)
            .collect();
        assert!(shapes.windows(2).all(|w| w[0] == w[1]));
        let mut distinct = texts(&script);
        distinct.dedup();
        assert_eq!(distinct.len(), 4);
    }
}
