//! Loaders: managed-heap materialisation and value-oriented row access.

use crate::gen::TpchData;
use crate::schema;
use mrq_common::{Schema, Value};
use mrq_mheap::{ClassDesc, ClassId, GcRef, Heap, ListId};

/// The eight table names in a fixed order (matching [`crate::queries`]'s
/// source-id constants).
pub const TABLE_NAMES: [&str; 8] = [
    "lineitem", "orders", "customer", "part", "supplier", "partsupp", "nation", "region",
];

/// Returns the schema of a table by name.
pub fn schema_of(table: &str) -> Schema {
    match table {
        "lineitem" => schema::lineitem(),
        "orders" => schema::orders(),
        "customer" => schema::customer(),
        "part" => schema::part(),
        "supplier" => schema::supplier(),
        "partsupp" => schema::partsupp(),
        "nation" => schema::nation(),
        "region" => schema::region(),
        other => panic!("unknown TPC-H table `{other}`"),
    }
}

/// Produces the rows of a table as `Vec<Value>` in schema column order.
/// Used by the native row-store loaders of other crates, and by the
/// result-equivalence tests.
pub fn value_rows(data: &TpchData, table: &str) -> Vec<Vec<Value>> {
    match table {
        "lineitem" => data
            .lineitem
            .iter()
            .map(|l| {
                vec![
                    Value::Int64(l.l_orderkey),
                    Value::Int64(l.l_partkey),
                    Value::Int64(l.l_suppkey),
                    Value::Int32(l.l_linenumber),
                    Value::Decimal(l.l_quantity),
                    Value::Decimal(l.l_extendedprice),
                    Value::Decimal(l.l_discount),
                    Value::Decimal(l.l_tax),
                    Value::str(&l.l_returnflag),
                    Value::str(&l.l_linestatus),
                    Value::Date(l.l_shipdate),
                    Value::Date(l.l_commitdate),
                    Value::Date(l.l_receiptdate),
                    Value::str(&l.l_shipinstruct),
                    Value::str(&l.l_shipmode),
                    Value::str(&l.l_comment),
                ]
            })
            .collect(),
        "orders" => data
            .orders
            .iter()
            .map(|o| {
                vec![
                    Value::Int64(o.o_orderkey),
                    Value::Int64(o.o_custkey),
                    Value::str(&o.o_orderstatus),
                    Value::Decimal(o.o_totalprice),
                    Value::Date(o.o_orderdate),
                    Value::str(&o.o_orderpriority),
                    Value::str(&o.o_clerk),
                    Value::Int32(o.o_shippriority),
                    Value::str(&o.o_comment),
                ]
            })
            .collect(),
        "customer" => data
            .customer
            .iter()
            .map(|c| {
                vec![
                    Value::Int64(c.c_custkey),
                    Value::str(&c.c_name),
                    Value::str(&c.c_address),
                    Value::Int32(c.c_nationkey),
                    Value::str(&c.c_phone),
                    Value::Decimal(c.c_acctbal),
                    Value::str(&c.c_mktsegment),
                    Value::str(&c.c_comment),
                ]
            })
            .collect(),
        "part" => data
            .part
            .iter()
            .map(|p| {
                vec![
                    Value::Int64(p.p_partkey),
                    Value::str(&p.p_name),
                    Value::str(&p.p_mfgr),
                    Value::str(&p.p_brand),
                    Value::str(&p.p_type),
                    Value::Int32(p.p_size),
                    Value::str(&p.p_container),
                    Value::Decimal(p.p_retailprice),
                    Value::str(&p.p_comment),
                ]
            })
            .collect(),
        "supplier" => data
            .supplier
            .iter()
            .map(|s| {
                vec![
                    Value::Int64(s.s_suppkey),
                    Value::str(&s.s_name),
                    Value::str(&s.s_address),
                    Value::Int32(s.s_nationkey),
                    Value::str(&s.s_phone),
                    Value::Decimal(s.s_acctbal),
                    Value::str(&s.s_comment),
                ]
            })
            .collect(),
        "partsupp" => data
            .partsupp
            .iter()
            .map(|ps| {
                vec![
                    Value::Int64(ps.ps_partkey),
                    Value::Int64(ps.ps_suppkey),
                    Value::Int32(ps.ps_availqty),
                    Value::Decimal(ps.ps_supplycost),
                    Value::str(&ps.ps_comment),
                ]
            })
            .collect(),
        "nation" => data
            .nation
            .iter()
            .map(|n| {
                vec![
                    Value::Int32(n.n_nationkey),
                    Value::str(&n.n_name),
                    Value::Int32(n.n_regionkey),
                    Value::str(&n.n_comment),
                ]
            })
            .collect(),
        "region" => data
            .region
            .iter()
            .map(|r| {
                vec![
                    Value::Int32(r.r_regionkey),
                    Value::str(&r.r_name),
                    Value::str(&r.r_comment),
                ]
            })
            .collect(),
        other => panic!("unknown TPC-H table `{other}`"),
    }
}

/// A TPC-H dataset materialised as managed objects: one class and one
/// managed list per table. This is the representation the baseline and
/// compiled-C# strategies query, and the source the hybrid strategy stages
/// from.
pub struct HeapDataset {
    /// The managed heap owning every record object.
    pub heap: Heap,
    classes: Vec<(String, ClassId)>,
    lists: Vec<(String, ListId)>,
}

impl HeapDataset {
    /// Loads a generated dataset into a fresh managed heap.
    pub fn load(data: &TpchData) -> HeapDataset {
        let mut heap = Heap::new();
        let mut classes = Vec::new();
        let mut lists = Vec::new();
        for table in TABLE_NAMES {
            let schema = schema_of(table);
            let class = heap.register_class(ClassDesc::from_schema(&schema));
            let list = heap.new_list(table, Some(class));
            classes.push((table.to_string(), class));
            lists.push((table.to_string(), list));
            for row in value_rows(data, table) {
                let obj = heap.alloc(class);
                for (idx, value) in row.iter().enumerate() {
                    heap.set_value(obj, idx, value);
                }
                heap.list_push(list, obj);
            }
        }
        HeapDataset {
            heap,
            classes,
            lists,
        }
    }

    /// The managed list holding a table's objects.
    pub fn list(&self, table: &str) -> ListId {
        self.lists
            .iter()
            .find(|(name, _)| name == table)
            .map(|(_, id)| *id)
            .unwrap_or_else(|| panic!("unknown table `{table}`"))
    }

    /// The class describing a table's record type.
    pub fn class(&self, table: &str) -> ClassId {
        self.classes
            .iter()
            .find(|(name, _)| name == table)
            .map(|(_, id)| *id)
            .unwrap_or_else(|| panic!("unknown table `{table}`"))
    }

    /// Convenience: the objects of a table.
    pub fn objects(&self, table: &str) -> &[GcRef] {
        self.heap.list_items(self.list(table))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenConfig;
    use mrq_common::DataType;

    fn tiny_data() -> TpchData {
        TpchData::generate(GenConfig {
            scale_factor: 0.001,
            seed: 3,
        })
    }

    #[test]
    fn value_rows_match_schema_arity_and_types() {
        let data = tiny_data();
        for table in TABLE_NAMES {
            let schema = schema_of(table);
            let rows = value_rows(&data, table);
            assert!(!rows.is_empty(), "{table} generated no rows");
            for row in rows.iter().take(5) {
                assert_eq!(row.len(), schema.len(), "{table} arity");
                for (value, field) in row.iter().zip(schema.fields()) {
                    assert_eq!(
                        value.dtype(),
                        Some(field.dtype),
                        "{table}.{} type",
                        field.name
                    );
                }
            }
        }
    }

    #[test]
    fn heap_dataset_round_trips_field_values() {
        let data = tiny_data();
        let ds = HeapDataset::load(&data);
        assert_eq!(ds.objects("lineitem").len(), data.lineitem.len());
        assert_eq!(ds.objects("region").len(), 5);

        let schema = schema_of("lineitem");
        let qty_idx = schema.index_of("l_quantity").unwrap();
        let flag_idx = schema.index_of("l_returnflag").unwrap();
        let ship_idx = schema.index_of("l_shipdate").unwrap();
        for (i, l) in data.lineitem.iter().take(50).enumerate() {
            let obj = ds.objects("lineitem")[i];
            assert_eq!(ds.heap.get_decimal(obj, qty_idx), l.l_quantity);
            assert_eq!(ds.heap.get_str(obj, flag_idx), l.l_returnflag);
            assert_eq!(ds.heap.get_date(obj, ship_idx), l.l_shipdate);
        }
    }

    #[test]
    fn heap_dataset_survives_a_full_collection() {
        let data = tiny_data();
        let mut ds = HeapDataset::load(&data);
        let before = ds.objects("orders").len();
        ds.heap.collect_full();
        assert_eq!(ds.objects("orders").len(), before);
        let schema = schema_of("orders");
        let key_idx = schema.index_of("o_orderkey").unwrap();
        let first = ds.objects("orders")[0];
        assert_eq!(ds.heap.get_i64(first, key_idx), data.orders[0].o_orderkey);
    }

    #[test]
    fn schema_of_rejects_unknown_tables() {
        assert_eq!(
            schema_of("lineitem").dtype_of("l_shipdate"),
            Some(DataType::Date)
        );
        let caught = std::panic::catch_unwind(|| schema_of("not_a_table"));
        assert!(caught.is_err());
    }
}
