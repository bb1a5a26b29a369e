//! Umbrella crate for the MRQ (Managed-Runtime Queries) workspace — a Rust
//! reproduction of *"Code Generation for Efficient Query Processing in
//! Managed Runtimes"* (Nagel, Bonetta, Viglas; PVLDB 7(12), 2014).
//!
//! This crate only re-exports the workspace members under one name and hosts
//! the runnable examples (`cargo run --release --example quickstart`). Start
//! with [`core`] for the query provider, [`expr`] for the statement builder
//! and `README.md` / `docs/ARCHITECTURE.md` for the map from paper sections
//! to modules.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use mrq_codegen as codegen;
pub use mrq_common as common;
pub use mrq_core as core;
pub use mrq_engine_csharp as engine_csharp;
pub use mrq_engine_hybrid as engine_hybrid;
pub use mrq_engine_linq as engine_linq;
pub use mrq_engine_native as engine_native;
pub use mrq_expr as expr;
pub use mrq_mheap as mheap;
pub use mrq_tpch as tpch;
