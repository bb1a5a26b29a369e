//! The two data representations the workloads run over — native row stores
//! and the managed heap — loaded from one generated TPC-H dataset, each
//! with the provider the program under test is reached through.

use mrq_codegen::spec::QuerySpec;
use mrq_common::Schema;
use mrq_core::Provider;
use mrq_engine_csharp::HeapTable;
use mrq_engine_native::RowStore;
use mrq_expr::SourceId;
use mrq_mheap::{Heap, ListId};
use mrq_tpch::gen::{GenConfig, TpchData};
use mrq_tpch::load::{schema_of, value_rows, HeapDataset, TABLE_NAMES};
use std::collections::HashMap;
use std::sync::Arc;

/// The tables the query templates read (source ids 0, 1, 2).
const QUERIED_TABLES: usize = 3;

/// Generates the dataset: `TpchData::generate` with its fixed data seed, so
/// `--seed` never changes the data, only the literals and the op order.
pub fn generate(scale_factor: f64) -> TpchData {
    TpchData::generate(GenConfig::scale(scale_factor))
}

/// Source ids of a spec's tables: the root first, then each join's build
/// side — the order every engine's `execute` expects its tables in.
fn sources(spec: &QuerySpec) -> impl Iterator<Item = SourceId> + '_ {
    std::iter::once(spec.root).chain(spec.joins.iter().map(|j| j.source))
}

/// TPC-H as arrays of structs (§5).
pub struct NativeData {
    stores: Vec<Arc<RowStore>>,
}

impl NativeData {
    /// Loads the first `tables` tables of [`TABLE_NAMES`] into row stores.
    fn load_tables(data: &TpchData, tables: usize) -> NativeData {
        let stores = TABLE_NAMES[..tables]
            .iter()
            .map(|table| {
                Arc::new(RowStore::from_rows(
                    schema_of(table),
                    &value_rows(data, table),
                ))
            })
            .collect();
        NativeData { stores }
    }

    /// Loads the tables the templates read.
    pub fn load(data: &TpchData) -> NativeData {
        NativeData::load_tables(data, QUERIED_TABLES)
    }

    /// Loads all eight tables (what `HeapDataset::load` holds, so the two
    /// footprints can be compared).
    pub fn load_all(data: &TpchData) -> NativeData {
        NativeData::load_tables(data, TABLE_NAMES.len())
    }

    /// Bytes of row payload across the loaded stores.
    pub fn payload_bytes(&self) -> usize {
        self.stores.iter().map(|s| s.payload_bytes()).sum()
    }

    /// Schemas by source id, for lowering outside a provider.
    pub fn catalog(&self) -> HashMap<SourceId, Schema> {
        self.stores
            .iter()
            .enumerate()
            .map(|(i, store)| (SourceId(i as u32), store.schema().clone()))
            .collect()
    }

    /// The stores a spec reads, in engine order.
    pub fn tables(&self, spec: &QuerySpec) -> Vec<&RowStore> {
        sources(spec).map(|s| &*self.stores[s.0 as usize]).collect()
    }

    /// A provider with every loaded store bound (shared, so it can be
    /// sealed into an `OwnedProvider` for submission and serving).
    pub fn provider(&self) -> Provider<'static> {
        let mut provider = Provider::new();
        for (i, store) in self.stores.iter().enumerate() {
            provider.bind_native_shared(SourceId(i as u32), Arc::clone(store));
        }
        provider
    }
}

/// TPC-H as managed objects (§4, §6).
pub struct ManagedData {
    /// The managed heap holding every record object.
    pub heap: Arc<Heap>,
    lists: Vec<(ListId, Schema)>,
}

impl ManagedData {
    /// Loads the dataset into a fresh managed heap.
    pub fn load(data: &TpchData) -> ManagedData {
        let dataset = HeapDataset::load(data);
        let lists = TABLE_NAMES
            .iter()
            .map(|table| (dataset.list(table), schema_of(table)))
            .collect();
        ManagedData {
            heap: Arc::new(dataset.heap),
            lists,
        }
    }

    /// Schemas by source id, for lowering outside a provider.
    pub fn catalog(&self) -> HashMap<SourceId, Schema> {
        self.lists
            .iter()
            .enumerate()
            .map(|(i, (_, schema))| (SourceId(i as u32), schema.clone()))
            .collect()
    }

    /// The managed tables a spec reads, in engine order.
    pub fn tables(&self, spec: &QuerySpec) -> Vec<HeapTable<'_>> {
        sources(spec)
            .map(|s| {
                let (list, schema) = &self.lists[s.0 as usize];
                HeapTable::new(&self.heap, *list, schema.clone())
            })
            .collect()
    }

    /// `Provider::over_shared_heap` + `bind_managed` for every table.
    pub fn provider(&self) -> Provider<'static> {
        let mut provider = Provider::over_shared_heap(Arc::clone(&self.heap));
        for (i, (list, schema)) in self.lists.iter().enumerate() {
            provider.bind_managed(SourceId(i as u32), *list, schema.clone());
        }
        provider
    }
}
