//! A from-scratch TPC-H data generator plus the paper's query workloads.
//!
//! The paper evaluates every strategy on a scale-factor-1 TPC-H dataset
//! loaded into the application's memory space (§7). This crate provides:
//!
//! * [`gen`] — a deterministic, seedable generator for all eight TPC-H
//!   tables. Distributions of the columns the evaluation queries touch
//!   (dates, quantities, prices, discounts, flags, market segments, part
//!   types, regions) follow the specification closely enough that query
//!   selectivities and group cardinalities match; free-text columns are
//!   filler (documented substitution — no query reads them).
//! * [`schema`] — relational [`Schema`]s for each table.
//! * [`load`] — loaders that materialise a generated dataset as managed
//!   objects in an [`mrq_mheap::Heap`] (the representation the paper's
//!   baseline and C# strategies query) and value-oriented row iterators used
//!   by the native row-store loaders of other crates.
//! * [`queries`] — the evaluation workloads as expression trees: TPC-H Q1,
//!   the decorrelated Q2, Q3, and the selectivity-swept micro-workloads of
//!   §7.1–7.3 (aggregation, sorting, join).
//!
//! [`Schema`]: mrq_common::Schema

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gen;
pub mod load;
pub mod queries;
pub mod schema;

pub use gen::{GenConfig, TpchData};
pub use load::HeapDataset;
