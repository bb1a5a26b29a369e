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
//! * [`Provider::prepare`] canonicalizes a statement, keys it by
//!   ([`PlanKey`]: expression structure + [`Strategy`] + the bound sources'
//!   schemas) and compiles it through the provider's shared [`PlanCache`]
//!   (a sharded LRU from [`mrq_common::plancache`], sized by
//!   `MRQ_PLAN_CACHE_SHARDS` / `MRQ_PLAN_CACHE_CAP`);
//! * the returned [`PreparedQuery`] executes the plan with caller-supplied
//!   bindings — blocking ([`PreparedQuery::execute`]), queued on the worker
//!   pool as a handle to join, poll or cancel ([`PreparedQuery::submit`]),
//!   or as an incremental batch stream ([`PreparedQuery::submit_stream`])
//!   — under exactly the same
//!   [`QueryOptions`] lifecycle (cancel, deadline, QoS class) as ad-hoc
//!   submission;
//! * [`OwnedProvider::prepare`] is the `'static` counterpart for sealed
//!   providers: its [`OwnedPreparedQuery`] mints handles that escape the
//!   binding scope.
//!
//! Prepared execution is bit-identical to ad-hoc execution of the same
//! statement — the equivalence suite in `tests/prepared_equivalence.rs`
//! asserts this for every strategy × scheduler shape.

use crate::stream::QueryStream;
use crate::{
    CompiledQuery, Job, OwnedProvider, Provider, ProviderCatalog, QueryHandle, QueryOptions,
    Strategy,
};
use mrq_codegen::emit::{emit_source, Backend};
use mrq_codegen::exec::QueryOutput;
use mrq_codegen::spec::{lower, QuerySpec};
use mrq_common::plancache::ShardedLru;
use mrq_common::{MrqError, Result, Schema, Value};
use mrq_expr::optimize::optimize;
use mrq_expr::{canonicalize, Expr};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// The identity of a cached plan: canonical expression structure, execution
/// [`Strategy`] (including any embedded parallel/hybrid configuration), and
/// the schemas of the sources the statement reads, in first-appearance
/// order.
///
/// Two statements that differ only in literal values produce equal keys
/// (literals are lifted into parameter slots before keying); changing the
/// strategy, or re-binding a source to a schema with different fields,
/// produces a different key and therefore a cache miss. Equality compares
/// the full canonical tree — the precomputed structural hash accelerates
/// shard selection and bucket lookup but never decides equality, so hash
/// collisions cannot alias two plans.
#[derive(Clone, PartialEq, Eq)]
pub struct PlanKey {
    shape_hash: u64,
    expr: Expr,
    strategy: Strategy,
    schemas: Vec<Schema>,
}

impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The canonical tree is folded into the precomputed structural hash;
        // strategy and schemas hash directly.
        self.shape_hash.hash(state);
        self.strategy.hash(state);
        self.schemas.hash(state);
    }
}

impl PlanKey {
    /// The canonical expression's structural hash (stable across literal
    /// values).
    pub fn shape_hash(&self) -> u64 {
        self.shape_hash
    }

    /// The strategy this plan was prepared for.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }
}

/// The concrete plan cache [`Provider::prepare`] compiles through: a
/// sharded LRU ([`mrq_common::plancache::ShardedLru`]) from [`PlanKey`] to
/// the compiled artefact. Share one across providers with
/// [`Provider::set_plan_cache`].
pub type PlanCache = ShardedLru<PlanKey, CompiledQuery>;

impl<'a> Provider<'a> {
    /// Compiles a statement once — through the shared [`PlanCache`] — and
    /// returns a [`PreparedQuery`] that executes the plan with fresh
    /// parameter bindings, any number of times.
    ///
    /// The statement is optimized and canonicalized exactly as
    /// [`Provider::execute`] would: every literal becomes a positional
    /// parameter slot, and the literal values observed at prepare time
    /// become the plan's *default* bindings. The cache key is the canonical
    /// structure plus `strategy` plus the schemas of the bound sources, so
    /// a repeated `prepare` of the same shape is a cache hit that skips
    /// lowering and code generation entirely.
    ///
    /// # Examples
    ///
    /// ```
    /// use mrq_common::{DataType, Field, Schema, Value};
    /// use mrq_core::{Provider, Strategy};
    /// use mrq_engine_native::RowStore;
    /// use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
    ///
    /// let schema = Schema::new("N", vec![Field::new("n", DataType::Int64)]);
    /// let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int64(i)]).collect();
    /// let store = RowStore::from_rows(schema, &rows);
    /// let mut provider = Provider::new();
    /// provider.bind_native(SourceId(0), &store);
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
    pub fn prepare(&self, expr: Expr, strategy: Strategy) -> Result<PreparedQuery<'_, 'a>> {
        let optimized = optimize(expr, self.optimizer);
        let canonical = canonicalize(optimized.expr);
        let rewrites = optimized.rewrites;
        let mut schemas = Vec::new();
        for source in canonical.expr.sources() {
            schemas.push(
                self.schema_of(source)
                    .ok_or_else(|| MrqError::Codegen(format!("source {source:?} is not bound")))?,
            );
        }
        let key = PlanKey {
            shape_hash: canonical.shape_hash,
            expr: canonical.expr.clone(),
            strategy,
            schemas,
        };
        let catalog = ProviderCatalog { provider: self };
        // The compile-and-insert composite is panic-isolated: a panic in
        // lowering/codegen (or injected at the `plancache.insert` fault
        // point) becomes a clean per-statement error, and the cache — whose
        // shard locks recover from poisoning — keeps serving other shapes.
        let compiled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.plan_cache.get_or_insert_with(&key, || {
                mrq_common::fault::point("plancache.insert")?;
                let start = Instant::now();
                let spec = lower(&canonical, &catalog)?;
                let csharp_source = emit_source(&spec, Backend::CSharp);
                let c_source = emit_source(&spec, Backend::C);
                Ok::<_, MrqError>(Arc::new(CompiledQuery {
                    spec,
                    csharp_source,
                    c_source,
                    rewrites,
                    generation_time: start.elapsed(),
                }))
            })
        }));
        let plan = match compiled {
            Ok(plan) => plan?,
            Err(payload) => return Err(MrqError::Internal(mrq_common::panic_message(payload))),
        };
        Ok(PreparedQuery {
            provider: self,
            plan: PreparedPlan {
                compiled: plan,
                strategy,
                shape_hash: canonical.shape_hash,
                defaults: canonical.params,
            },
        })
    }
}

/// What a prepared statement carries, borrowed or owned: the shared plan,
/// the strategy it was prepared for, its canonical shape, and the literal
/// values captured at prepare time.
#[derive(Clone)]
struct PreparedPlan {
    compiled: Arc<CompiledQuery>,
    strategy: Strategy,
    shape_hash: u64,
    defaults: Vec<Value>,
}

impl PreparedPlan {
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
            plan: Arc::clone(&self.compiled),
            params: self.params_for(bindings),
        }
    }

    /// One execution on the calling thread, through `provider`'s result
    /// recycling.
    fn execute(&self, provider: &Provider<'_>, bindings: &[Value]) -> Result<QueryOutput> {
        provider.execute_plan(
            self.shape_hash,
            &self.compiled.spec,
            &self.params_for(bindings),
            self.strategy,
        )
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
pub struct PreparedQuery<'p, 'a> {
    provider: &'p Provider<'a>,
    plan: PreparedPlan,
}

impl<'p, 'a> PreparedQuery<'p, 'a> {
    /// Number of parameter slots the plan actually reads. Bindings must
    /// supply at least this many values (an empty slice means "use the
    /// defaults").
    pub fn param_slots(&self) -> usize {
        self.plan.compiled.spec.param_slots
    }

    /// The literal values captured at prepare time, in slot order — what an
    /// empty bindings slice executes with.
    pub fn defaults(&self) -> &[Value] {
        &self.plan.defaults
    }

    /// The strategy the plan was prepared for.
    pub fn strategy(&self) -> Strategy {
        self.plan.strategy
    }

    /// The lowered plan (shared with the cache; eviction never invalidates
    /// it).
    pub fn spec(&self) -> &QuerySpec {
        &self.plan.compiled.spec
    }

    /// The full compiled artefact, including the generated sources.
    pub fn compiled(&self) -> &CompiledQuery {
        &self.plan.compiled
    }

    /// Executes the prepared plan with the given bindings on the calling
    /// thread. Bit-identical to [`Provider::execute`] of the equivalent
    /// statement with the bindings inlined as literals; result recycling
    /// (when enabled) applies with the bound parameter values as part of
    /// the key.
    pub fn execute(&self, bindings: &[Value]) -> Result<QueryOutput> {
        self.plan.execute(self.provider, bindings)
    }

    /// Queues one execution with the given bindings on the worker pool and
    /// returns immediately with a [`QueryHandle`] — identical semantics to
    /// [`Provider::submit`] (deadline armed at submission, QoS class
    /// routing, waker-driven polling), minus the compilation (the plan
    /// rides along with the task). Pass `QueryOptions::default()` for no
    /// lifecycle controls.
    pub fn submit(&self, bindings: &[Value], options: QueryOptions) -> QueryHandle<'p> {
        let job = self.plan.job(bindings);
        QueryHandle::new(
            Provider::spawn(self.provider, job, self.plan.strategy, options, false),
            None,
        )
    }

    /// Queues one execution with the given bindings and returns a
    /// [`QueryStream`] of in-order row batches — the prepared counterpart
    /// of [`Provider::submit_stream`], with the same ordered-frontier
    /// publication, deterministic batching and backpressure. Note that a
    /// streamed execution bypasses result recycling (its rows leave through
    /// the channel, so there is no complete output to cache or recycle).
    pub fn submit_stream(&self, bindings: &[Value], options: QueryOptions) -> QueryStream<'p> {
        let job = self.plan.job(bindings);
        QueryStream::new(
            Provider::spawn(self.provider, job, self.plan.strategy, options, true),
            None,
        )
    }
}

impl OwnedProvider {
    /// The `'static` counterpart of [`Provider::prepare`]: compiles through
    /// the sealed provider's [`PlanCache`] and returns an
    /// [`OwnedPreparedQuery`] whose handles escape the binding scope (and
    /// whose tasks each keep the provider alive with their own clone).
    pub fn prepare(&self, expr: Expr, strategy: Strategy) -> Result<OwnedPreparedQuery> {
        Ok(OwnedPreparedQuery {
            provider: self.clone(),
            plan: self.provider().prepare(expr, strategy)?.plan,
        })
    }
}

/// A prepared statement over a sealed [`OwnedProvider`]: cloneable,
/// `'static`, and shareable across server threads — each clone (and each
/// in-flight submission) keeps the provider and its bindings alive.
///
/// Binding semantics match [`PreparedQuery`]: positional values, empty
/// slice for the prepare-time defaults, arity checked before execution.
#[derive(Clone)]
pub struct OwnedPreparedQuery {
    provider: OwnedProvider,
    plan: PreparedPlan,
}

impl OwnedPreparedQuery {
    /// Number of parameter slots the plan reads.
    pub fn param_slots(&self) -> usize {
        self.plan.compiled.spec.param_slots
    }

    /// The literal values captured at prepare time, in slot order.
    pub fn defaults(&self) -> &[Value] {
        &self.plan.defaults
    }

    /// The strategy the plan was prepared for.
    pub fn strategy(&self) -> Strategy {
        self.plan.strategy
    }

    /// Executes the prepared plan with the given bindings on the calling
    /// thread.
    pub fn execute(&self, bindings: &[Value]) -> Result<QueryOutput> {
        self.plan.execute(&self.provider, bindings)
    }

    /// Queues one execution with the given bindings and returns a `'static`
    /// [`QueryHandle`] — the prepared counterpart of
    /// [`OwnedProvider::submit`], with the same unified
    /// `(bindings, options)` signature as [`PreparedQuery::submit`] and the
    /// same non-blocking drop.
    pub fn submit(&self, bindings: &[Value], options: QueryOptions) -> QueryHandle<'static> {
        let job = self.plan.job(bindings);
        let submission = self.provider.spawn(job, self.plan.strategy, options, false);
        QueryHandle::new(submission, self.provider.owner())
    }

    /// Queues one execution with the given bindings and returns a `'static`
    /// [`QueryStream`] of in-order row batches — the prepared counterpart
    /// of [`OwnedProvider::submit_stream`]: dropping it mid-way cancels the
    /// query without blocking, because the task keeps its own provider
    /// clone alive.
    pub fn submit_stream(&self, bindings: &[Value], options: QueryOptions) -> QueryStream<'static> {
        let job = self.plan.job(bindings);
        let submission = self.provider.spawn(job, self.plan.strategy, options, true);
        QueryStream::new(submission, self.provider.owner())
    }
}
