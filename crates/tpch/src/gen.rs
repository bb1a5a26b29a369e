//! The data generator.
//!
//! Deterministic given a seed and scale factor. Column distributions follow
//! the TPC-H specification for everything the evaluation queries read;
//! free-text columns (comments, addresses, part names) are short filler
//! strings, which keeps generation fast and does not affect any measured
//! query (documented in DESIGN.md).

use mrq_common::{Date, Decimal};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Scale-factor-1 base cardinalities.
const SF1_CUSTOMERS: f64 = 150_000.0;
const SF1_SUPPLIERS: f64 = 10_000.0;
const SF1_PARTS: f64 = 200_000.0;
const SF1_ORDERS: f64 = 1_500_000.0;

/// Market segments (`c_mktsegment`).
pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];
/// Order priorities.
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];
/// Ship modes.
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];
/// Ship instructions.
pub const SHIP_INSTRUCTIONS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];
/// Region names.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
/// Nation name / region index pairs (the 25 spec nations).
pub const NATIONS: [(&str, i32); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];
/// Part type syllables (p_type is "syllable1 syllable2 syllable3").
pub const TYPE_SYLLABLE_1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
/// Second syllable of p_type.
pub const TYPE_SYLLABLE_2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
/// Third syllable of p_type (Q2 filters on `%BRASS`).
pub const TYPE_SYLLABLE_3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];
/// Containers.
pub const CONTAINERS: [&str; 8] = [
    "SM CASE",
    "SM BOX",
    "MED BAG",
    "MED BOX",
    "LG CASE",
    "LG BOX",
    "JUMBO PACK",
    "WRAP BAG",
];

/// One `lineitem` row.
#[derive(Debug, Clone, PartialEq)]
pub struct Lineitem {
    /// Foreign key to the owning [`Order`].
    pub l_orderkey: i64,
    /// Foreign key to the [`Part`].
    pub l_partkey: i64,
    /// Foreign key to the [`Supplier`].
    pub l_suppkey: i64,
    /// Line number within the order.
    pub l_linenumber: i32,
    /// Quantity ordered.
    pub l_quantity: Decimal,
    /// Extended price (quantity x part retail price).
    pub l_extendedprice: Decimal,
    /// Discount fraction.
    pub l_discount: Decimal,
    /// Tax fraction.
    pub l_tax: Decimal,
    /// Return flag (`R`, `A` or `N`; the Q1 group key).
    pub l_returnflag: String,
    /// Line status (`O` or `F`; the Q1 group key).
    pub l_linestatus: String,
    /// Ship date (the Q1/Q3 filter column).
    pub l_shipdate: Date,
    /// Committed delivery date.
    pub l_commitdate: Date,
    /// Receipt date.
    pub l_receiptdate: Date,
    /// Shipping instructions.
    pub l_shipinstruct: String,
    /// Shipping mode.
    pub l_shipmode: String,
    /// Filler comment text.
    pub l_comment: String,
}

/// One `orders` row.
#[derive(Debug, Clone, PartialEq)]
pub struct Order {
    /// Primary key.
    pub o_orderkey: i64,
    /// Foreign key to the [`Customer`].
    pub o_custkey: i64,
    /// Order status (`O`, `F` or `P`).
    pub o_orderstatus: String,
    /// Total order price.
    pub o_totalprice: Decimal,
    /// Order date (the Q3 filter column).
    pub o_orderdate: Date,
    /// Priority bucket.
    pub o_orderpriority: String,
    /// Clerk identifier.
    pub o_clerk: String,
    /// Ship priority (a Q3 output column).
    pub o_shippriority: i32,
    /// Filler comment text.
    pub o_comment: String,
}

/// One `customer` row.
#[derive(Debug, Clone, PartialEq)]
pub struct Customer {
    /// Primary key.
    pub c_custkey: i64,
    /// Customer name.
    pub c_name: String,
    /// Street address.
    pub c_address: String,
    /// Foreign key to the [`Nation`].
    pub c_nationkey: i32,
    /// Phone number.
    pub c_phone: String,
    /// Account balance.
    pub c_acctbal: Decimal,
    /// Market segment (the Q3 filter column).
    pub c_mktsegment: String,
    /// Filler comment text.
    pub c_comment: String,
}

/// One `part` row.
#[derive(Debug, Clone, PartialEq)]
pub struct Part {
    /// Primary key.
    pub p_partkey: i64,
    /// Part name.
    pub p_name: String,
    /// Manufacturer.
    pub p_mfgr: String,
    /// Brand.
    pub p_brand: String,
    /// Type string (the Q2 filter column).
    pub p_type: String,
    /// Size (the Q2 filter column).
    pub p_size: i32,
    /// Container kind.
    pub p_container: String,
    /// Retail price.
    pub p_retailprice: Decimal,
    /// Filler comment text.
    pub p_comment: String,
}

/// One `supplier` row.
#[derive(Debug, Clone, PartialEq)]
pub struct Supplier {
    /// Primary key.
    pub s_suppkey: i64,
    /// Supplier name.
    pub s_name: String,
    /// Street address.
    pub s_address: String,
    /// Foreign key to the [`Nation`].
    pub s_nationkey: i32,
    /// Phone number.
    pub s_phone: String,
    /// Account balance (a Q2 output column).
    pub s_acctbal: Decimal,
    /// Filler comment text.
    pub s_comment: String,
}

/// One `partsupp` row.
#[derive(Debug, Clone, PartialEq)]
pub struct Partsupp {
    /// Composite key: the part.
    pub ps_partkey: i64,
    /// Composite key: the supplier.
    pub ps_suppkey: i64,
    /// Available quantity.
    pub ps_availqty: i32,
    /// Supply cost (Q2 minimises this).
    pub ps_supplycost: Decimal,
    /// Filler comment text.
    pub ps_comment: String,
}

/// One `nation` row.
#[derive(Debug, Clone, PartialEq)]
pub struct Nation {
    /// Primary key.
    pub n_nationkey: i32,
    /// Nation name.
    pub n_name: String,
    /// Foreign key to the [`Region`].
    pub n_regionkey: i32,
    /// Filler comment text.
    pub n_comment: String,
}

/// One `region` row.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Primary key.
    pub r_regionkey: i32,
    /// Region name.
    pub r_name: String,
    /// Filler comment text.
    pub r_comment: String,
}

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Scale factor; 1.0 is the paper's 1 GB dataset. Benches default to a
    /// smaller factor so they complete on laptop hardware.
    pub scale_factor: f64,
    /// RNG seed; the same seed and scale factor always produce the same
    /// dataset.
    pub seed: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            scale_factor: 0.01,
            seed: 0x7C48,
        }
    }
}

impl GenConfig {
    /// A config with the given scale factor and the default seed.
    pub fn scale(scale_factor: f64) -> Self {
        GenConfig {
            scale_factor,
            ..Default::default()
        }
    }
}

/// The scale factor named by the `MRQ_SF` environment variable, or the
/// default `0.01` when it is unset. A value that does not parse as a
/// positive, finite number is an error naming the value, never a silent
/// fallback: a typo such as `0.0o2` must not quietly run another size.
pub fn scale_from_env() -> Result<f64, String> {
    match std::env::var("MRQ_SF") {
        Ok(raw) => parse_scale(&raw),
        Err(std::env::VarError::NotPresent) => Ok(GenConfig::default().scale_factor),
        Err(std::env::VarError::NotUnicode(raw)) => {
            Err(format!("MRQ_SF={raw:?} is not valid UTF-8"))
        }
    }
}

/// The parse half of [`scale_from_env`].
fn parse_scale(raw: &str) -> Result<f64, String> {
    match raw.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!(
            "MRQ_SF={raw:?} is not a positive, finite scale factor"
        )),
    }
}

/// A fully generated dataset.
#[derive(Debug, Clone, Default)]
pub struct TpchData {
    /// Rows of the `lineitem` table.
    pub lineitem: Vec<Lineitem>,
    /// Rows of the `orders` table.
    pub orders: Vec<Order>,
    /// Rows of the `customer` table.
    pub customer: Vec<Customer>,
    /// Rows of the `part` table.
    pub part: Vec<Part>,
    /// Rows of the `supplier` table.
    pub supplier: Vec<Supplier>,
    /// Rows of the `partsupp` table.
    pub partsupp: Vec<Partsupp>,
    /// Rows of the `nation` table.
    pub nation: Vec<Nation>,
    /// Rows of the `region` table.
    pub region: Vec<Region>,
}

impl TpchData {
    /// Generates a dataset.
    pub fn generate(config: GenConfig) -> TpchData {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let sf = config.scale_factor;
        let n_customers = (SF1_CUSTOMERS * sf).ceil().max(10.0) as i64;
        let n_suppliers = (SF1_SUPPLIERS * sf).ceil().max(5.0) as i64;
        let n_parts = (SF1_PARTS * sf).ceil().max(20.0) as i64;
        let n_orders = (SF1_ORDERS * sf).ceil().max(30.0) as i64;

        let region = (0..5)
            .map(|i| Region {
                r_regionkey: i,
                r_name: REGIONS[i as usize].to_string(),
                r_comment: filler(&mut rng, 20),
            })
            .collect();

        let nation = NATIONS
            .iter()
            .enumerate()
            .map(|(i, (name, regionkey))| Nation {
                n_nationkey: i as i32,
                n_name: (*name).to_string(),
                n_regionkey: *regionkey,
                n_comment: filler(&mut rng, 20),
            })
            .collect();

        let supplier: Vec<Supplier> = (1..=n_suppliers)
            .map(|k| Supplier {
                s_suppkey: k,
                s_name: format!("Supplier#{k:09}"),
                s_address: filler(&mut rng, 15),
                s_nationkey: rng.gen_range(0..25),
                s_phone: phone(&mut rng),
                s_acctbal: Decimal::from_raw(rng.gen_range(-99_999..=999_999)),
                s_comment: filler(&mut rng, 25),
            })
            .collect();

        let customer: Vec<Customer> = (1..=n_customers)
            .map(|k| Customer {
                c_custkey: k,
                c_name: format!("Customer#{k:09}"),
                c_address: filler(&mut rng, 15),
                c_nationkey: rng.gen_range(0..25),
                c_phone: phone(&mut rng),
                c_acctbal: Decimal::from_raw(rng.gen_range(-99_999..=999_999)),
                c_mktsegment: SEGMENTS[rng.gen_range(0..SEGMENTS.len())].to_string(),
                c_comment: filler(&mut rng, 30),
            })
            .collect();

        let part: Vec<Part> = (1..=n_parts)
            .map(|k| {
                let mfgr = rng.gen_range(1..=5);
                let brand = rng.gen_range(1..=5);
                Part {
                    p_partkey: k,
                    p_name: filler(&mut rng, 20),
                    p_mfgr: format!("Manufacturer#{mfgr}"),
                    p_brand: format!("Brand#{mfgr}{brand}"),
                    p_type: format!(
                        "{} {} {}",
                        TYPE_SYLLABLE_1[rng.gen_range(0..TYPE_SYLLABLE_1.len())],
                        TYPE_SYLLABLE_2[rng.gen_range(0..TYPE_SYLLABLE_2.len())],
                        TYPE_SYLLABLE_3[rng.gen_range(0..TYPE_SYLLABLE_3.len())]
                    ),
                    p_size: rng.gen_range(1..=50),
                    p_container: CONTAINERS[rng.gen_range(0..CONTAINERS.len())].to_string(),
                    p_retailprice: Decimal::from_raw(
                        90_000 + (k % 2_000) * 100 + rng.gen_range(0..100i64),
                    ),
                    p_comment: filler(&mut rng, 10),
                }
            })
            .collect();

        // Each part is stocked by four suppliers.
        let mut partsupp = Vec::with_capacity((n_parts * 4) as usize);
        for p in 1..=n_parts {
            for j in 0..4 {
                partsupp.push(Partsupp {
                    ps_partkey: p,
                    ps_suppkey: ((p + j * (n_suppliers / 4).max(1)) % n_suppliers) + 1,
                    ps_availqty: rng.gen_range(1..=9999),
                    ps_supplycost: Decimal::from_raw(rng.gen_range(100..=100_000)),
                    ps_comment: filler(&mut rng, 15),
                });
            }
        }

        let epoch_start = Date::from_ymd(1992, 1, 1);
        let order_span_days = Date::from_ymd(1998, 8, 2).epoch_days() - epoch_start.epoch_days();
        let cutoff = Date::from_ymd(1995, 6, 17);

        let mut orders = Vec::with_capacity(n_orders as usize);
        let mut lineitem = Vec::with_capacity((n_orders * 4) as usize);
        for okey in 1..=n_orders {
            let custkey = rng.gen_range(1..=n_customers);
            let orderdate = epoch_start.add_days(rng.gen_range(0..=order_span_days));
            let lines = rng.gen_range(1..=7);
            let mut total = Decimal::ZERO;
            let mut any_open = false;
            let mut all_open = true;
            for line in 1..=lines {
                let partkey = rng.gen_range(1..=n_parts);
                let suppkey = rng.gen_range(1..=n_suppliers);
                let quantity = rng.gen_range(1..=50);
                let retail = 90_000 + (partkey % 2_000) * 100;
                let extendedprice = Decimal::from_raw(retail * quantity);
                let discount = Decimal::from_raw(rng.gen_range(0..=10));
                let tax = Decimal::from_raw(rng.gen_range(0..=8));
                let shipdate = orderdate.add_days(rng.gen_range(1..=121));
                let commitdate = orderdate.add_days(rng.gen_range(30..=90));
                let receiptdate = shipdate.add_days(rng.gen_range(1..=30));
                let linestatus = if shipdate > cutoff { "O" } else { "F" };
                let returnflag = if receiptdate <= cutoff {
                    if rng.gen_bool(0.5) {
                        "R"
                    } else {
                        "A"
                    }
                } else {
                    "N"
                };
                if linestatus == "O" {
                    any_open = true;
                } else {
                    all_open = false;
                }
                total += extendedprice;
                lineitem.push(Lineitem {
                    l_orderkey: okey,
                    l_partkey: partkey,
                    l_suppkey: suppkey,
                    l_linenumber: line,
                    l_quantity: Decimal::from_int(quantity),
                    l_extendedprice: extendedprice,
                    l_discount: discount,
                    l_tax: tax,
                    l_returnflag: returnflag.to_string(),
                    l_linestatus: linestatus.to_string(),
                    l_shipdate: shipdate,
                    l_commitdate: commitdate,
                    l_receiptdate: receiptdate,
                    l_shipinstruct: SHIP_INSTRUCTIONS[rng.gen_range(0..SHIP_INSTRUCTIONS.len())]
                        .to_string(),
                    l_shipmode: SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())].to_string(),
                    l_comment: filler(&mut rng, 10),
                });
            }
            let status = if all_open {
                "O"
            } else if any_open {
                "P"
            } else {
                "F"
            };
            orders.push(Order {
                o_orderkey: okey,
                o_custkey: custkey,
                o_orderstatus: status.to_string(),
                o_totalprice: total,
                o_orderdate: orderdate,
                o_orderpriority: PRIORITIES[rng.gen_range(0..PRIORITIES.len())].to_string(),
                o_clerk: format!("Clerk#{:09}", rng.gen_range(1..=1000)),
                o_shippriority: 0,
                o_comment: filler(&mut rng, 20),
            });
        }

        TpchData {
            lineitem,
            orders,
            customer,
            part,
            supplier,
            partsupp,
            nation,
            region,
        }
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.lineitem.len()
            + self.orders.len()
            + self.customer.len()
            + self.part.len()
            + self.supplier.len()
            + self.partsupp.len()
            + self.nation.len()
            + self.region.len()
    }

    /// The `l_shipdate` value below which roughly `selectivity` of lineitem
    /// rows fall. Used by the selectivity sweeps of §7.1–7.3: the paper keeps
    /// the Q1-style predicate but varies how much data qualifies.
    pub fn shipdate_for_selectivity(&self, selectivity: f64) -> Date {
        assert!((0.0..=1.0).contains(&selectivity));
        if self.lineitem.is_empty() {
            return Date::from_ymd(1998, 12, 1);
        }
        let mut dates: Vec<i32> = self
            .lineitem
            .iter()
            .map(|l| l.l_shipdate.epoch_days())
            .collect();
        dates.sort_unstable();
        let idx = ((dates.len() as f64 - 1.0) * selectivity).round() as usize;
        Date::from_epoch_days(dates[idx])
    }

    /// Same idea for `o_orderdate` (used by the join sweep of §7.3).
    pub fn orderdate_for_selectivity(&self, selectivity: f64) -> Date {
        assert!((0.0..=1.0).contains(&selectivity));
        if self.orders.is_empty() {
            return Date::from_ymd(1998, 8, 2);
        }
        let mut dates: Vec<i32> = self
            .orders
            .iter()
            .map(|o| o.o_orderdate.epoch_days())
            .collect();
        dates.sort_unstable();
        let idx = ((dates.len() as f64 - 1.0) * selectivity).round() as usize;
        Date::from_epoch_days(dates[idx])
    }
}

fn filler(rng: &mut SmallRng, len: usize) -> String {
    const WORDS: [&str; 12] = [
        "quick", "ironic", "final", "pending", "silent", "bold", "even", "regular", "express",
        "blithe", "dogged", "careful",
    ];
    let mut out = String::with_capacity(len + 8);
    while out.len() < len {
        if !out.is_empty() {
            out.push(' ');
        }
        out.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
    }
    out
}

fn phone(rng: &mut SmallRng) -> String {
    format!(
        "{}-{:03}-{:03}-{:04}",
        rng.gen_range(10..35),
        rng.gen_range(100..1000),
        rng.gen_range(100..1000),
        rng.gen_range(1000..10_000)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TpchData {
        TpchData::generate(GenConfig {
            scale_factor: 0.001,
            seed: 42,
        })
    }

    #[test]
    fn scale_parses_positive_finite_values_and_names_the_rest() {
        assert_eq!(parse_scale("0.002"), Ok(0.002));
        assert_eq!(parse_scale("1"), Ok(1.0));
        for bad in ["0.0o2", "", " 0.01", "0", "-0.5", "NaN", "inf"] {
            let err = parse_scale(bad).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TpchData::generate(GenConfig {
            scale_factor: 0.001,
            seed: 7,
        });
        let b = TpchData::generate(GenConfig {
            scale_factor: 0.001,
            seed: 7,
        });
        assert_eq!(a.lineitem, b.lineitem);
        assert_eq!(a.orders, b.orders);
        assert_eq!(a.customer, b.customer);
    }

    #[test]
    fn cardinality_ratios_track_the_spec() {
        let data = tiny();
        assert_eq!(data.region.len(), 5);
        assert_eq!(data.nation.len(), 25);
        assert_eq!(data.partsupp.len(), data.part.len() * 4);
        // lineitem averages ~4 lines per order.
        let ratio = data.lineitem.len() as f64 / data.orders.len() as f64;
        assert!((2.0..=6.0).contains(&ratio), "lines per order = {ratio}");
        assert!(data.customer.len() > data.supplier.len());
    }

    #[test]
    fn foreign_keys_are_within_range() {
        let data = tiny();
        let n_cust = data.customer.len() as i64;
        let n_part = data.part.len() as i64;
        let n_supp = data.supplier.len() as i64;
        let n_ord = data.orders.len() as i64;
        for o in &data.orders {
            assert!((1..=n_cust).contains(&o.o_custkey));
        }
        for l in &data.lineitem {
            assert!((1..=n_ord).contains(&l.l_orderkey));
            assert!((1..=n_part).contains(&l.l_partkey));
            assert!((1..=n_supp).contains(&l.l_suppkey));
        }
        for ps in &data.partsupp {
            assert!((1..=n_part).contains(&ps.ps_partkey));
            assert!((1..=n_supp).contains(&ps.ps_suppkey));
        }
        for c in &data.customer {
            assert!((0..25).contains(&c.c_nationkey));
        }
        for n in &data.nation {
            assert!((0..5).contains(&n.n_regionkey));
        }
    }

    #[test]
    fn lineitem_domains_match_the_spec() {
        let data = tiny();
        for l in &data.lineitem {
            assert!(l.l_quantity >= Decimal::from_int(1) && l.l_quantity <= Decimal::from_int(50));
            assert!(l.l_discount >= Decimal::ZERO && l.l_discount <= Decimal::from_raw(10));
            assert!(l.l_tax >= Decimal::ZERO && l.l_tax <= Decimal::from_raw(8));
            assert!(matches!(l.l_returnflag.as_str(), "R" | "A" | "N"));
            assert!(matches!(l.l_linestatus.as_str(), "O" | "F"));
            assert!(l.l_shipdate > Date::from_ymd(1991, 12, 31));
            assert!(l.l_receiptdate > l.l_shipdate);
        }
        // Both line statuses and all three return flags occur.
        let statuses: std::collections::HashSet<_> = data
            .lineitem
            .iter()
            .map(|l| l.l_linestatus.clone())
            .collect();
        assert_eq!(statuses.len(), 2);
        let flags: std::collections::HashSet<_> = data
            .lineitem
            .iter()
            .map(|l| l.l_returnflag.clone())
            .collect();
        assert_eq!(flags.len(), 3);
    }

    #[test]
    fn all_market_segments_and_brass_parts_occur() {
        let data = tiny();
        let segments: std::collections::HashSet<_> = data
            .customer
            .iter()
            .map(|c| c.c_mktsegment.clone())
            .collect();
        assert_eq!(segments.len(), SEGMENTS.len());
        assert!(
            data.part.iter().any(|p| p.p_type.ends_with("BRASS")),
            "Q2 needs BRASS parts"
        );
        assert!(data.part.iter().any(|p| !p.p_type.ends_with("BRASS")));
    }

    #[test]
    fn selectivity_helper_is_monotone_and_spans_the_domain() {
        let data = tiny();
        let d10 = data.shipdate_for_selectivity(0.1);
        let d50 = data.shipdate_for_selectivity(0.5);
        let d100 = data.shipdate_for_selectivity(1.0);
        assert!(d10 <= d50 && d50 <= d100);
        let count = |cutoff: Date| {
            data.lineitem
                .iter()
                .filter(|l| l.l_shipdate <= cutoff)
                .count() as f64
                / data.lineitem.len() as f64
        };
        assert!(
            (count(d50) - 0.5).abs() < 0.05,
            "selectivity 0.5 -> {}",
            count(d50)
        );
        assert!(count(d100) > 0.999);
    }

    #[test]
    fn scale_factor_scales_row_counts_roughly_linearly() {
        let small = TpchData::generate(GenConfig {
            scale_factor: 0.001,
            seed: 1,
        });
        let bigger = TpchData::generate(GenConfig {
            scale_factor: 0.002,
            seed: 1,
        });
        let ratio = bigger.lineitem.len() as f64 / small.lineitem.len() as f64;
        assert!((1.6..=2.4).contains(&ratio), "ratio {ratio}");
        assert!(bigger.total_rows() > small.total_rows());
    }
}
