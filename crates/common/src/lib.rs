//! Shared foundations for the MRQ (Managed-Runtime Queries) workspace.
//!
//! This crate contains the pieces every other crate builds on:
//!
//! * the dynamic [`Value`] model and [`DataType`]s used by expression trees
//!   and by the interpreted (LINQ-to-objects-style) engine,
//! * fixed-point [`Decimal`] arithmetic and a compact [`Date`] type matching
//!   the TPC-H column domains,
//! * relational [`Schema`] / [`Field`] descriptions,
//! * the [`trace::MemTracer`] abstraction used to feed the last-level-cache
//!   simulator,
//! * the deterministic [`workcount::WorkCounters`] threaded through every
//!   engine's fused loops (the counted-work bench mode and its CI gate are
//!   built on these),
//! * the [`morsel`] scheduler ([`ParallelConfig`], fixed-size morsels
//!   handed out by a shared cursor, in-order gather) and the persistent
//!   [`pool::WorkerPool`] it runs on, shared by every parallel execution
//!   path and by concurrent query submission,
//! * the query-lifecycle controls layered on both: cooperative [`cancel`]
//!   tokens with lazy deadlines, and [`qos`] classes scheduled by weighted
//!   deficit round-robin over per-class ticket queues, carried together
//!   (with a streamed query's sink) in one per-query [`context`],
//! * the bounded in-order [`stream`] channel streamed queries publish row
//!   batches through (deterministic re-chunking, backpressure, and the
//!   [`stream::WakerSlot`] async latch shared with `mrq-core`'s futures),
//! * the dependency-free mini-[`executor`] every serving loop drives those
//!   futures and streams with ([`executor::block_on`],
//!   [`executor::drive_all`], and the dynamic [`executor::Multiplexer`]
//!   behind `mrq-protocol`'s per-connection server driver),
//! * the sharded concurrent LRU [`plancache`] the provider layer keys
//!   compiled plans by, with atomic hit/miss/eviction counters,
//! * the robustness layer under the serving core: [`admission`] gates
//!   (QoS-aware load shedding with [`MrqError::Overloaded`]) and the
//!   deterministic [`fault`]-injection registry used by the chaos suite,
//! * the [`profile::CostBreakdown`] phase timer used to reproduce the paper's
//!   cost-breakdown figures (Figures 8, 10 and 12), and
//! * small utilities (a fast integer hasher, error types).

#![warn(missing_docs)]

pub mod admission;
pub mod cancel;
pub mod context;
pub mod date;
pub mod decimal;
pub mod error;
pub mod executor;
pub mod fault;
pub mod hash;
pub mod morsel;
pub mod plancache;
pub mod pool;
pub mod profile;
pub mod qos;
pub mod schema;
pub mod stream;
pub mod trace;
pub mod value;
pub mod workcount;

pub use admission::{AdmissionConfig, AdmissionGate, AdmissionStats};
pub use date::Date;
pub use decimal::Decimal;
pub use error::{abort_query, panic_message, MrqError, Result};
pub use morsel::ParallelConfig;
pub use qos::{QosClass, QosWeights};
pub use schema::{Field, Schema};
pub use stream::{RowBatch, StreamReceiver, StreamSink, WakerSlot};
pub use value::{DataType, Value};
pub use workcount::{WorkCounters, WorkStats};
