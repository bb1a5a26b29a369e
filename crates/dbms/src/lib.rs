//! Comparator engines for the paper's Table 1.
//!
//! §7.5 compares the compiled-query provider against two in-memory DBMS
//! architectures: SQL Server 2014 (an interpreted row-store executor, plus
//! its Hekaton compiled mode) and VectorWise 3.0 (a vectorised column
//! store). Neither is available here, so this crate provides honest
//! architectural stand-ins running on the same machine and data:
//!
//! * [`volcano`] — a tuple-at-a-time, pull-based interpreted executor over a
//!   row representation (the "SQL Server interpreted" column of Table 1);
//! * [`vector`] — a vector-at-a-time column store with selection vectors
//!   (the "VectorWise" column).
//!
//! The Hekaton-like compiled row-store column of Table 1 is provided by
//! `mrq-engine-native` (compiled fused loops over flat rows), so it is not
//! duplicated here.
//!
//! Both engines implement TPC-H Q1 and Q3 (the paper could not run Q2 in
//! Hekaton's native mode either and reports a dash; we do the same).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mrq_common::{Date, Decimal, Value};

/// A typed column.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    I64(Vec<i64>),
    /// 32-bit integers.
    I32(Vec<i32>),
    /// Fixed-point decimals.
    Dec(Vec<Decimal>),
    /// Dates.
    Date(Vec<Date>),
    /// Dictionary-encoded strings: codes plus dictionary.
    Str {
        /// Per-row index into `dict` (first-seen assignment order).
        codes: Vec<u32>,
        /// The distinct string values, indexed by code.
        dict: Vec<String>,
    },
}

impl Column {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::I64(v) => v.len(),
            Column::I32(v) => v.len(),
            Column::Dec(v) => v.len(),
            Column::Date(v) => v.len(),
            Column::Str { codes, .. } => codes.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads one cell back as a dynamic value.
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::I64(v) => Value::Int64(v[row]),
            Column::I32(v) => Value::Int32(v[row]),
            Column::Dec(v) => Value::Decimal(v[row]),
            Column::Date(v) => Value::Date(v[row]),
            Column::Str { codes, dict } => Value::str(&dict[codes[row] as usize]),
        }
    }
}

/// A column-major table (the storage of both comparator engines; the volcano
/// engine reads it a tuple at a time, the vectorised engine a vector at a
/// time).
#[derive(Debug, Clone, Default)]
pub struct ColumnTable {
    /// Named columns in schema order.
    pub columns: Vec<(String, Column)>,
    /// Row count.
    pub rows: usize,
}

impl ColumnTable {
    /// Builds a column table from value rows in schema order.
    pub fn from_value_rows(names: &[&str], rows: &[Vec<Value>]) -> Self {
        let mut columns: Vec<(String, Column)> = Vec::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            let col = match rows.first().map(|r| &r[i]) {
                Some(Value::Int64(_)) => {
                    Column::I64(rows.iter().map(|r| r[i].as_i64().unwrap_or(0)).collect())
                }
                Some(Value::Int32(_)) => Column::I32(
                    rows.iter()
                        .map(|r| r[i].as_i64().unwrap_or(0) as i32)
                        .collect(),
                ),
                Some(Value::Decimal(_)) => Column::Dec(
                    rows.iter()
                        .map(|r| r[i].as_decimal().unwrap_or(Decimal::ZERO))
                        .collect(),
                ),
                Some(Value::Date(_)) => Column::Date(
                    rows.iter()
                        .map(|r| r[i].as_date().unwrap_or(Date::from_epoch_days(0)))
                        .collect(),
                ),
                _ => {
                    let mut dict: Vec<String> = Vec::new();
                    let mut codes = Vec::with_capacity(rows.len());
                    for r in rows {
                        let s = r[i].as_str().unwrap_or("");
                        let code = match dict.iter().position(|d| d == s) {
                            Some(c) => c as u32,
                            None => {
                                dict.push(s.to_string());
                                (dict.len() - 1) as u32
                            }
                        };
                        codes.push(code);
                    }
                    Column::Str { codes, dict }
                }
            };
            columns.push((name.to_string(), col));
        }
        ColumnTable {
            columns,
            rows: rows.len(),
        }
    }

    /// Finds a column by name.
    pub fn column(&self, name: &str) -> &Column {
        &self
            .columns
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("unknown column `{name}`"))
            .1
    }

    fn i64s(&self, name: &str) -> &[i64] {
        match self.column(name) {
            Column::I64(v) => v,
            _ => panic!("column `{name}` is not i64"),
        }
    }
    fn i32s(&self, name: &str) -> &[i32] {
        match self.column(name) {
            Column::I32(v) => v,
            _ => panic!("column `{name}` is not i32"),
        }
    }
    fn decs(&self, name: &str) -> &[Decimal] {
        match self.column(name) {
            Column::Dec(v) => v,
            _ => panic!("column `{name}` is not decimal"),
        }
    }
    fn dates(&self, name: &str) -> &[Date] {
        match self.column(name) {
            Column::Date(v) => v,
            _ => panic!("column `{name}` is not date"),
        }
    }
    fn strs(&self, name: &str) -> (&[u32], &[String]) {
        match self.column(name) {
            Column::Str { codes, dict } => (codes, dict),
            _ => panic!("column `{name}` is not string"),
        }
    }
}

/// The result row type shared by both comparators (column values in query
/// output order), so Table 1 runs can be cross-checked against the provider
/// engines.
pub type Row = Vec<Value>;

/// The vectorised (VectorWise-like) engine: selection vectors plus
/// column-at-a-time primitives.
pub mod vector {
    use super::*;
    use mrq_common::hash::FxHashMap;

    const VECTOR_SIZE: usize = 1024;

    /// TPC-H Q1 over a `lineitem` column table.
    pub fn q1(lineitem: &ColumnTable, cutoff: Date) -> Vec<Row> {
        let shipdate = lineitem.dates("l_shipdate");
        let qty = lineitem.decs("l_quantity");
        let price = lineitem.decs("l_extendedprice");
        let disc = lineitem.decs("l_discount");
        let tax = lineitem.decs("l_tax");
        let (rf_codes, rf_dict) = lineitem.strs("l_returnflag");
        let (ls_codes, ls_dict) = lineitem.strs("l_linestatus");

        #[derive(Default, Clone)]
        struct Acc {
            sum_qty: Decimal,
            sum_price: Decimal,
            sum_disc_price: Decimal,
            sum_charge: Decimal,
            sum_disc: Decimal,
            count: i64,
        }
        let mut groups: FxHashMap<(u32, u32), Acc> = FxHashMap::default();
        let mut order: Vec<(u32, u32)> = Vec::new();

        let mut sel = [0usize; VECTOR_SIZE];
        let mut start = 0;
        while start < lineitem.rows {
            let end = (start + VECTOR_SIZE).min(lineitem.rows);
            // Primitive 1: selection on ship date producing a selection
            // vector.
            let mut n = 0;
            for (i, &d) in shipdate[start..end].iter().enumerate() {
                if d <= cutoff {
                    sel[n] = start + i;
                    n += 1;
                }
            }
            // Primitive 2: grouped aggregation over the selected positions.
            for &row in &sel[..n] {
                let key = (rf_codes[row], ls_codes[row]);
                let acc = groups.entry(key).or_insert_with(|| {
                    order.push(key);
                    Acc::default()
                });
                let disc_price = price[row] * (Decimal::ONE - disc[row]);
                acc.sum_qty += qty[row];
                acc.sum_price += price[row];
                acc.sum_disc_price += disc_price;
                acc.sum_charge += disc_price * (Decimal::ONE + tax[row]);
                acc.sum_disc += disc[row];
                acc.count += 1;
            }
            start = end;
        }
        order.sort_by_key(|&(rf, ls)| (rf_dict[rf as usize].clone(), ls_dict[ls as usize].clone()));
        order
            .into_iter()
            .map(|key| {
                let acc = &groups[&key];
                vec![
                    Value::str(&rf_dict[key.0 as usize]),
                    Value::str(&ls_dict[key.1 as usize]),
                    Value::Decimal(acc.sum_qty),
                    Value::Decimal(acc.sum_price),
                    Value::Decimal(acc.sum_disc_price),
                    Value::Decimal(acc.sum_charge),
                    Value::Float64(acc.sum_qty.to_f64() / acc.count as f64),
                    Value::Float64(acc.sum_price.to_f64() / acc.count as f64),
                    Value::Float64(acc.sum_disc.to_f64() / acc.count as f64),
                    Value::Int64(acc.count),
                ]
            })
            .collect()
    }

    /// TPC-H Q3 over customer/orders/lineitem column tables.
    pub fn q3(
        customer: &ColumnTable,
        orders: &ColumnTable,
        lineitem: &ColumnTable,
        segment: &str,
        date: Date,
    ) -> Vec<Row> {
        // Build: qualifying customers.
        let (seg_codes, seg_dict) = customer.strs("c_mktsegment");
        let custkeys = customer.i64s("c_custkey");
        let seg_code = seg_dict.iter().position(|s| s == segment).map(|c| c as u32);
        let mut cust: FxHashMap<i64, ()> = FxHashMap::default();
        if let Some(code) = seg_code {
            for row in 0..customer.rows {
                if seg_codes[row] == code {
                    cust.insert(custkeys[row], ());
                }
            }
        }
        // Build: qualifying orders joined to customers.
        let o_key = orders.i64s("o_orderkey");
        let o_cust = orders.i64s("o_custkey");
        let o_date = orders.dates("o_orderdate");
        let o_prio = orders.i32s("o_shippriority");
        let mut order_map: FxHashMap<i64, (Date, i32)> = FxHashMap::default();
        for row in 0..orders.rows {
            if o_date[row] < date && cust.contains_key(&o_cust[row]) {
                order_map.insert(o_key[row], (o_date[row], o_prio[row]));
            }
        }
        // Probe lineitem vectors and aggregate revenue per order.
        let l_key = lineitem.i64s("l_orderkey");
        let l_ship = lineitem.dates("l_shipdate");
        let l_price = lineitem.decs("l_extendedprice");
        let l_disc = lineitem.decs("l_discount");
        let mut revenue: FxHashMap<i64, (Decimal, Date, i32)> = FxHashMap::default();
        for row in 0..lineitem.rows {
            if l_ship[row] > date {
                if let Some(&(odate, prio)) = order_map.get(&l_key[row]) {
                    let r = l_price[row] * (Decimal::ONE - l_disc[row]);
                    let entry = revenue
                        .entry(l_key[row])
                        .or_insert((Decimal::ZERO, odate, prio));
                    entry.0 += r;
                }
            }
        }
        let mut rows: Vec<(i64, Decimal, Date, i32)> = revenue
            .into_iter()
            .map(|(k, (rev, d, p))| (k, rev, d, p))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)));
        rows.truncate(10);
        rows.into_iter()
            .map(|(k, rev, d, p)| {
                vec![
                    Value::Int64(k),
                    Value::Decimal(rev),
                    Value::Date(d),
                    Value::Int32(p),
                ]
            })
            .collect()
    }
}

/// The interpreted tuple-at-a-time (Volcano-style) engine: every operator is
/// a boxed iterator of dynamic rows, every predicate a boxed closure.
pub mod volcano {
    use super::*;
    use mrq_common::hash::FxHashMap;

    type TupleIter<'a> = Box<dyn Iterator<Item = Row> + 'a>;

    fn scan(table: &ColumnTable) -> TupleIter<'_> {
        Box::new((0..table.rows).map(move |row| {
            table
                .columns
                .iter()
                .map(|(_, c)| c.value(row))
                .collect::<Row>()
        }))
    }

    fn filter<'a>(input: TupleIter<'a>, pred: Box<dyn Fn(&Row) -> bool + 'a>) -> TupleIter<'a> {
        Box::new(input.filter(move |row| pred(row)))
    }

    /// TPC-H Q1, interpreted tuple at a time.
    pub fn q1(lineitem: &ColumnTable, cutoff: Date) -> Vec<Row> {
        let ship_idx = lineitem
            .columns
            .iter()
            .position(|(n, _)| n == "l_shipdate")
            .expect("l_shipdate");
        let idx = |name: &str| {
            lineitem
                .columns
                .iter()
                .position(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("column {name}"))
        };
        let (qty_i, price_i, disc_i, tax_i, rf_i, ls_i) = (
            idx("l_quantity"),
            idx("l_extendedprice"),
            idx("l_discount"),
            idx("l_tax"),
            idx("l_returnflag"),
            idx("l_linestatus"),
        );
        let it = filter(
            scan(lineitem),
            Box::new(move |row| row[ship_idx].as_date().expect("date") <= cutoff),
        );
        #[derive(Default, Clone)]
        struct Acc {
            sum_qty: Decimal,
            sum_price: Decimal,
            sum_disc_price: Decimal,
            sum_charge: Decimal,
            sum_disc: Decimal,
            count: i64,
        }
        let mut groups: FxHashMap<(String, String), Acc> = FxHashMap::default();
        for row in it {
            let key = (
                row[rf_i].as_str().expect("str").to_string(),
                row[ls_i].as_str().expect("str").to_string(),
            );
            let acc = groups.entry(key).or_default();
            let price = row[price_i].as_decimal().expect("decimal");
            let disc = row[disc_i].as_decimal().expect("decimal");
            let tax = row[tax_i].as_decimal().expect("decimal");
            let disc_price = price * (Decimal::ONE - disc);
            acc.sum_qty += row[qty_i].as_decimal().expect("decimal");
            acc.sum_price += price;
            acc.sum_disc_price += disc_price;
            acc.sum_charge += disc_price * (Decimal::ONE + tax);
            acc.sum_disc += disc;
            acc.count += 1;
        }
        let mut keys: Vec<(String, String)> = groups.keys().cloned().collect();
        keys.sort();
        keys.into_iter()
            .map(|key| {
                let acc = &groups[&key];
                vec![
                    Value::str(&key.0),
                    Value::str(&key.1),
                    Value::Decimal(acc.sum_qty),
                    Value::Decimal(acc.sum_price),
                    Value::Decimal(acc.sum_disc_price),
                    Value::Decimal(acc.sum_charge),
                    Value::Float64(acc.sum_qty.to_f64() / acc.count as f64),
                    Value::Float64(acc.sum_price.to_f64() / acc.count as f64),
                    Value::Float64(acc.sum_disc.to_f64() / acc.count as f64),
                    Value::Int64(acc.count),
                ]
            })
            .collect()
    }

    /// TPC-H Q3, interpreted tuple at a time with hash joins.
    pub fn q3(
        customer: &ColumnTable,
        orders: &ColumnTable,
        lineitem: &ColumnTable,
        segment: &str,
        date: Date,
    ) -> Vec<Row> {
        let cidx = |name: &str| {
            customer
                .columns
                .iter()
                .position(|(n, _)| n == name)
                .unwrap()
        };
        let oidx = |name: &str| orders.columns.iter().position(|(n, _)| n == name).unwrap();
        let lidx = |name: &str| {
            lineitem
                .columns
                .iter()
                .position(|(n, _)| n == name)
                .unwrap()
        };
        let seg = segment.to_string();
        let (c_seg, c_key) = (cidx("c_mktsegment"), cidx("c_custkey"));
        let mut cust: FxHashMap<i64, ()> = FxHashMap::default();
        for row in filter(
            scan(customer),
            Box::new(move |row| row[c_seg].as_str() == Some(seg.as_str())),
        ) {
            cust.insert(row[c_key].as_i64().expect("custkey"), ());
        }
        let (o_key, o_cust, o_date, o_prio) = (
            oidx("o_orderkey"),
            oidx("o_custkey"),
            oidx("o_orderdate"),
            oidx("o_shippriority"),
        );
        let mut order_map: FxHashMap<i64, (Date, i32)> = FxHashMap::default();
        for row in filter(
            scan(orders),
            Box::new(move |row| row[o_date].as_date().expect("date") < date),
        ) {
            if cust.contains_key(&row[o_cust].as_i64().expect("custkey")) {
                order_map.insert(
                    row[o_key].as_i64().expect("orderkey"),
                    (
                        row[o_date].as_date().expect("date"),
                        row[o_prio].as_i64().expect("prio") as i32,
                    ),
                );
            }
        }
        let (l_key, l_ship, l_price, l_disc) = (
            lidx("l_orderkey"),
            lidx("l_shipdate"),
            lidx("l_extendedprice"),
            lidx("l_discount"),
        );
        let mut revenue: FxHashMap<i64, (Decimal, Date, i32)> = FxHashMap::default();
        for row in filter(
            scan(lineitem),
            Box::new(move |row| row[l_ship].as_date().expect("date") > date),
        ) {
            let key = row[l_key].as_i64().expect("orderkey");
            if let Some(&(odate, prio)) = order_map.get(&key) {
                let r = row[l_price].as_decimal().expect("decimal")
                    * (Decimal::ONE - row[l_disc].as_decimal().expect("decimal"));
                revenue.entry(key).or_insert((Decimal::ZERO, odate, prio)).0 += r;
            }
        }
        let mut rows: Vec<(i64, Decimal, Date, i32)> = revenue
            .into_iter()
            .map(|(k, (rev, d, p))| (k, rev, d, p))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)));
        rows.truncate(10);
        rows.into_iter()
            .map(|(k, rev, d, p)| {
                vec![
                    Value::Int64(k),
                    Value::Decimal(rev),
                    Value::Date(d),
                    Value::Int32(p),
                ]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lineitem_fixture() -> ColumnTable {
        let names = [
            "l_orderkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_returnflag",
            "l_linestatus",
            "l_shipdate",
        ];
        let mut rows = Vec::new();
        for i in 0..200i64 {
            rows.push(vec![
                Value::Int64(i / 4 + 1),
                Value::Decimal(Decimal::from_int(i % 50 + 1)),
                Value::Decimal(Decimal::from_int(100 + i)),
                Value::Decimal(Decimal::from_raw(i % 10)),
                Value::Decimal(Decimal::from_raw(i % 8)),
                Value::str(if i % 3 == 0 { "R" } else { "N" }),
                Value::str(if i % 2 == 0 { "F" } else { "O" }),
                Value::Date(Date::from_ymd(1995, 1, 1).add_days((i % 400) as i32)),
            ]);
        }
        ColumnTable::from_value_rows(&names, &rows)
    }

    #[test]
    fn column_table_round_trips_values() {
        let t = lineitem_fixture();
        assert_eq!(t.rows, 200);
        assert_eq!(t.column("l_orderkey").value(0), Value::Int64(1));
        assert_eq!(t.column("l_returnflag").value(0), Value::str("R"));
        assert_eq!(t.column("l_returnflag").len(), 200);
    }

    #[test]
    fn vectorised_and_volcano_q1_agree() {
        let t = lineitem_fixture();
        let cutoff = Date::from_ymd(1995, 12, 31);
        let v = vector::q1(&t, cutoff);
        let w = volcano::q1(&t, cutoff);
        assert_eq!(v.len(), w.len());
        assert!(!v.is_empty());
        assert_eq!(v, w);
        // Group count: returnflag × linestatus combinations present.
        assert!(v.len() <= 4);
        // Counts add up to the number of qualifying rows.
        let total: i64 = v.iter().map(|r| r[9].as_i64().unwrap()).sum();
        let qualifying = (0..200)
            .filter(|i| Date::from_ymd(1995, 1, 1).add_days(i % 400) <= cutoff)
            .count() as i64;
        assert_eq!(total, qualifying);
    }

    #[test]
    fn vectorised_and_volcano_q3_agree() {
        let customer = ColumnTable::from_value_rows(
            &["c_custkey", "c_mktsegment"],
            &(0..50i64)
                .map(|i| {
                    vec![
                        Value::Int64(i + 1),
                        Value::str(if i % 5 == 0 { "BUILDING" } else { "AUTOMOBILE" }),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let orders = ColumnTable::from_value_rows(
            &["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
            &(0..100i64)
                .map(|i| {
                    vec![
                        Value::Int64(i + 1),
                        Value::Int64(i % 50 + 1),
                        Value::Date(Date::from_ymd(1995, 1, 1).add_days((i % 200) as i32)),
                        Value::Int32(0),
                    ]
                })
                .collect::<Vec<_>>(),
        );
        let lineitem = lineitem_fixture();
        let date = Date::from_ymd(1995, 4, 1);
        let v = vector::q3(&customer, &orders, &lineitem, "BUILDING", date);
        let w = volcano::q3(&customer, &orders, &lineitem, "BUILDING", date);
        assert_eq!(v, w);
        assert!(v.len() <= 10);
    }
}
