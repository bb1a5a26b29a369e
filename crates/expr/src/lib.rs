//! LINQ-style expression trees, the query builder, canonicalisation and the
//! heuristic optimizer.
//!
//! In the paper, a LINQ query statement is captured by the C# compiler as an
//! *expression tree* (§2.2, Figure 1): a `MethodCallExpression` chain whose
//! lambda arguments are themselves little ASTs. The custom query provider
//! then (§3):
//!
//! 1. evaluates constant sub-trees to put the tree in canonical form
//!    (`ConstantEvaluator`),
//! 2. consults a cache of already-compiled queries keyed by the canonical
//!    tree, treating embedded literals as parameters so the same compiled
//!    code is reused across parameter values, and
//! 3. hands the tree to the code generators.
//!
//! This crate reproduces the first step and the cache key of the second:
//! [`Expr`] is the tree, [`Query`] is the fluent builder standing in for the
//! C# query syntax, and [`canonical`] contains constant folding and parameter
//! extraction, whose [`CanonicalQuery`] (structural hash plus parameterised
//! tree) keys the provider's plan cache (`mrq_core::PlanCache`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod canonical;
pub mod optimize;
pub mod tree;

pub use builder::{and_all, col, lam, lit, member, param, str_method, var, Query};
pub use canonical::{canonicalize, fold_constants, CanonicalQuery};
pub use optimize::{optimize, Optimized, OptimizerConfig, Rewrite};
pub use tree::{AggFunc, BinaryOp, Expr, QueryMethod, SortDirection, SourceId, UnaryOp};
