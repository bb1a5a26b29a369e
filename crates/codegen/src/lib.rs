//! Query compilation: from expression trees to executable fused queries and
//! to generated source text.
//!
//! The paper's query provider translates a LINQ expression tree into a *code
//! tree* and then into source code (C#, C, or both) that evaluates the whole
//! query in a handful of tight loops (§§4–6). This crate is that middle
//! layer:
//!
//! * [`spec`] — lowers a canonicalised expression tree into a [`QuerySpec`]:
//!   the flattened, fused description of the query (scan, filters per
//!   source, left-deep hash joins, group-by keys, aggregates, sort keys,
//!   take, output columns), with every column reference resolved to a
//!   `(table slot, column index)` pair. This corresponds to the paper's
//!   expression-tree → code-tree translation plus the §6.2 object/native
//!   layout mapping.
//! * [`exec`] — the *compiled query templates*: a generic, monomorphic
//!   executor over a [`TableAccess`] implementation. Each engine instantiates
//!   the same fused algorithm over its own data representation (managed
//!   objects, native row store, staged buffers), exactly as the paper's
//!   generated C# and C code share structure but differ in data access. The
//!   executor is incremental (build → consume → finish) so the hybrid
//!   engine's buffered staging and the native engine's deferred execution
//!   both map onto it.
//! * [`emit`] — emits the C#-like and C-like source text the paper's
//!   provider would have compiled, and models the compilation cost the paper
//!   reports (§7.4). We do not invoke a compiler at run time (no JIT backend
//!   is available offline); the emitted source documents what would be
//!   compiled while the executor templates provide the compiled behaviour.
//!
//! [`QuerySpec`]: spec::QuerySpec
//! [`TableAccess`]: exec::TableAccess

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod emit;
pub mod exec;
pub mod spec;

pub use exec::{ExecState, QueryOutput, TableAccess};
pub use spec::{
    lower, AggSpec, ColumnRef, JoinSpec, OutputExpr, QuerySpec, ScalarExpr, SortKeySpec, StrOp,
};
