//! Prepared queries: compile a statement once, execute it many times with
//! fresh parameter bindings.
//!
//! The paper's central trade (§7.4) is compilation cost against execution
//! speed: the compiled strategies beat the interpreted baseline only after
//! their up-front code-generation cost is amortized. A server handling
//! millions of requests pays that cost once per query *shape* — the
//! canonicalizer lifts every literal into a positional parameter slot, so
//! `price > 10` and `price > 99` share one plan — and executes the cached
//! plan for every request. This module is that serving path:
//!
//! * [`Provider::prepare`] compiles a statement through
//!   [`Provider::compile`] — the same bounded [`PlanCache`] (keyed by
//!   [`PlanKey`]: expression structure + the bound sources' schemas) that
//!   ad-hoc execution uses — and pairs the plan with a [`Strategy`] and the
//!   statement's literals as default bindings;
//! * the returned [`PreparedQuery`] executes the plan with caller-supplied
//!   bindings — blocking ([`PreparedQuery::execute`]), queued on the worker
//!   pool as a handle to join, poll or cancel ([`PreparedQuery::submit`]),
//!   or as an incremental batch stream ([`PreparedQuery::submit_stream`])
//!   — under exactly the same
//!   [`QueryOptions`] lifecycle (cancel, deadline, QoS class) as ad-hoc
//!   submission. It owns a clone of the provider's `Arc`, so it is
//!   `'static`, cloneable and shareable across server threads.
//!
//! Prepared execution is bit-identical to ad-hoc execution of the same
//! statement — the equivalence suite in `tests/prepared_equivalence.rs`
//! asserts this for every strategy × scheduler shape.
//!
//! [`PlanCache`]: crate::PlanCache
//! [`PlanKey`]: crate::PlanKey

use crate::stream::QueryStream;
use crate::{Job, OwnedProvider, Provider, QueryHandle, QueryOptions, Strategy};
use mrq_codegen::exec::QueryOutput;
use mrq_codegen::spec::QuerySpec;
use mrq_common::{Result, Value};
use mrq_expr::Expr;
use std::sync::Arc;

impl<'a> Provider<'a> {
    /// Compiles a statement once — through [`Provider::compile`] and so the
    /// provider's [`PlanCache`](crate::PlanCache) — and returns a [`PreparedQuery`] that
    /// executes the plan under `strategy` with fresh parameter bindings, any
    /// number of times.
    ///
    /// The statement is optimized and canonicalized exactly as
    /// [`Provider::execute`] would: every literal becomes a positional
    /// parameter slot, and the literal values observed at prepare time
    /// become the plan's *default* bindings. The cache key is the canonical
    /// structure plus the schemas of the bound sources, so a `prepare` of a
    /// shape already prepared or executed — under any strategy — is a cache
    /// hit that skips lowering entirely.
    ///
    /// # Examples
    ///
    /// ```
    /// use mrq_common::{DataType, Field, Schema, Value};
    /// use mrq_core::{Provider, Strategy};
    /// use mrq_engine_native::RowStore;
    /// use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
    /// use std::sync::Arc;
    ///
    /// let schema = Schema::new("N", vec![Field::new("n", DataType::Int64)]);
    /// let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int64(i)]).collect();
    /// let mut provider = Provider::new();
    /// provider.bind_native_shared(SourceId(0), Arc::new(RowStore::from_rows(schema, &rows)));
    /// let provider = provider.into_shared();
    ///
    /// // Prepare once: the literal 10 becomes parameter slot 0.
    /// let stmt = Query::from_source(SourceId(0))
    ///     .where_(lam("x", Expr::binary(BinaryOp::Lt, col("x", "n"), lit(10i64))))
    ///     .select(lam("x", col("x", "n")))
    ///     .into_expr();
    /// let prepared = provider.prepare(stmt, Strategy::CompiledNative)?;
    ///
    /// // Execute many times with different bindings — no recompilation.
    /// assert_eq!(prepared.execute(&[Value::Int64(10)])?.rows.len(), 10);
    /// assert_eq!(prepared.execute(&[Value::Int64(25)])?.rows.len(), 25);
    /// // No bindings: the literals captured at prepare time.
    /// assert_eq!(prepared.execute(&[])?.rows.len(), 10);
    ///
    /// // One compilation, served from the cache thereafter.
    /// assert_eq!(provider.plan_cache_stats().entries, 1);
    /// # Ok::<(), mrq_common::MrqError>(())
    /// ```
    pub fn prepare(self: &Arc<Self>, expr: Expr, strategy: Strategy) -> Result<PreparedQuery>
    where
        'a: 'static,
    {
        let (canonical, spec) = self.compile(expr)?;
        Ok(PreparedQuery {
            provider: Arc::clone(self),
            spec,
            strategy,
            shape_hash: canonical.shape_hash,
            defaults: canonical.params,
        })
    }
}

/// A statement compiled once, executable many times with fresh parameter
/// bindings — the handle [`Provider::prepare`] returns.
///
/// Bindings are positional: slot `i` replaces the `i`-th literal of the
/// original statement (in canonicalization order; [`PreparedQuery::defaults`]
/// shows the prepare-time values, so the order is inspectable). Passing an
/// empty slice executes with the defaults. Supplying fewer values than the
/// plan reads is an error, not a panic — every engine checks arity before
/// touching a slot.
///
/// All three front ends accept bindings:
/// [`execute`](PreparedQuery::execute) runs on the calling thread;
/// [`submit`](PreparedQuery::submit) queues on the worker pool and returns
/// a [`QueryHandle`] to join, poll or cancel;
/// [`submit_stream`](PreparedQuery::submit_stream) returns a
/// [`QueryStream`] of in-order row batches. The submitted paths skip
/// compilation on the worker — the plan rides along — but are otherwise
/// identical to ad-hoc submission, including [`QueryOptions`] deadlines,
/// cancellation and QoS classes.
///
/// The prepared query owns a clone of its provider's `Arc`: it is
/// `'static`, and cloning it is cheap.
#[derive(Clone)]
pub struct PreparedQuery {
    provider: OwnedProvider,
    spec: Arc<QuerySpec>,
    strategy: Strategy,
    shape_hash: u64,
    defaults: Vec<Value>,
}

impl PreparedQuery {
    /// Number of parameter slots the plan actually reads. Bindings must
    /// supply at least this many values (an empty slice means "use the
    /// defaults").
    pub fn param_slots(&self) -> usize {
        self.spec.param_slots
    }

    /// The literal values captured at prepare time, in slot order — what an
    /// empty bindings slice executes with.
    pub fn defaults(&self) -> &[Value] {
        &self.defaults
    }

    /// The strategy the plan was prepared for.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The lowered plan (shared with the cache; eviction never invalidates
    /// it).
    pub fn spec(&self) -> &QuerySpec {
        &self.spec
    }

    /// The parameter vector one execution uses: the caller's bindings, or
    /// the prepare-time defaults when `bindings` is empty. Arity is
    /// enforced downstream by [`QuerySpec::check_params`] so a submitted
    /// under-binding resolves its handle to an error instead of panicking a
    /// pool worker.
    fn params_for(&self, bindings: &[Value]) -> Vec<Value> {
        if bindings.is_empty() {
            &self.defaults
        } else {
            bindings
        }
        .to_vec()
    }

    /// The job one submission carries: the shared plan plus its parameters.
    fn job(&self, bindings: &[Value]) -> Job {
        Job::Prepared {
            shape_hash: self.shape_hash,
            plan: Arc::clone(&self.spec),
            params: self.params_for(bindings),
        }
    }

    /// Executes the prepared plan with the given bindings on the calling
    /// thread. Bit-identical to [`Provider::execute`] of the equivalent
    /// statement with the bindings inlined as literals; result recycling
    /// (when enabled) applies with the bound parameter values as part of
    /// the key.
    pub fn execute(&self, bindings: &[Value]) -> Result<QueryOutput> {
        self.provider.execute_plan(
            self.shape_hash,
            &self.spec,
            &self.params_for(bindings),
            self.strategy,
        )
    }

    /// Queues one execution with the given bindings on the worker pool and
    /// returns immediately with a [`QueryHandle`] — identical semantics to
    /// [`Provider::submit`] (deadline armed at submission, QoS class
    /// routing, waker-driven polling, non-blocking drop), minus the
    /// compilation (the plan rides along with the task). Pass
    /// `QueryOptions::default()` for no lifecycle controls.
    pub fn submit(&self, bindings: &[Value], options: QueryOptions) -> QueryHandle {
        let job = self.job(bindings);
        QueryHandle::new(self.provider.spawn(job, self.strategy, options, false))
    }

    /// Queues one execution with the given bindings and returns a
    /// [`QueryStream`] of in-order row batches — the prepared counterpart
    /// of [`Provider::submit_stream`], with the same ordered-frontier
    /// publication, deterministic batching and backpressure. Note that a
    /// streamed execution bypasses result recycling (its rows leave through
    /// the channel, so there is no complete output to cache or recycle).
    pub fn submit_stream(&self, bindings: &[Value], options: QueryOptions) -> QueryStream {
        let job = self.job(bindings);
        QueryStream::new(self.provider.spawn(job, self.strategy, options, true))
    }
}
