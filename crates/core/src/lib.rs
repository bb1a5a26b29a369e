//! The query provider — the paper's primary contribution, as a library.
//!
//! An application keeps its data in ordinary managed collections (lists of
//! objects in the [`mrq_mheap::Heap`]) and/or in native arrays of structs
//! ([`mrq_engine_native::RowStore`]). It then builds LINQ-style query
//! statements with [`mrq_expr::Query`], binds its collections to the query's
//! sources through a [`Provider`], and executes them with the strategy of its
//! choice:
//!
//! * [`Strategy::LinqToObjects`] — the baseline enumerable pipeline (§2),
//! * [`Strategy::CompiledCSharp`] — fused managed execution (§4),
//! * [`Strategy::CompiledNative`] — fused execution over native row stores
//!   (§5; requires native bindings),
//! * [`Strategy::Hybrid`] — managed filtering/staging plus native processing
//!   (§6), with full or buffered materialisation and Max/Min transfer.
//!
//! The provider canonicalises each statement (constant folding and parameter
//! extraction), consults the plan cache so that repeated query patterns skip
//! code generation (§3), lowers the tree to a fused
//! [`QuerySpec`], emits the C#/C source that the paper's system would
//! compile (available through [`Provider::explain`]) and dispatches to the
//! chosen engine. Execution is deferred: [`Provider::query`] returns a
//! [`DeferredQuery`] that does no work until its results are consumed.
//!
//! # Concurrent serving
//!
//! A `Provider` is [`Sync`]: once its sources are bound, any number of
//! client threads may call [`Provider::execute`] through a shared reference
//! simultaneously — the plan cache, result-recycling cache and
//! statistics are interior-mutable behind locks, and all parallel execution
//! runs on the process-wide persistent worker pool
//! ([`mrq_common::pool::WorkerPool`]), never on per-query threads. For
//! fire-and-forget submission, [`Provider::submit`] queues the whole query
//! onto that pool and returns a [`QueryHandle`] the client can poll or
//! join; pool scheduling is round-robin at morsel granularity, so a
//! long-running scan cannot starve short queries submitted after it. See
//! `docs/CONCURRENCY.md` for the full model.
//!
//! # Async serving
//!
//! The same [`QueryHandle`] is also a plain, executor-agnostic
//! [`std::future::Future`] whose waker hangs off the query's completion
//! latch, so one driver thread can multiplex thousands of in-flight
//! queries without blocking a thread per query. Bindings can be borrowed
//! (handles confined to the binding scope) or shared (`Arc`-backed, via
//! [`Provider::over_shared_heap`] / [`Provider::bind_native_shared`] /
//! [`Provider::bind_values_shared`]); a fully shared provider seals into an
//! [`OwnedProvider`] whose handles are `'static` and escape the scope
//! entirely. See `docs/SERVING.md` for the async model and
//! `examples/async_server.rs` for a dependency-free mini-executor driving
//! it end to end.
//!
//! [`QuerySpec`]: mrq_codegen::spec::QuerySpec

#![warn(missing_docs)]

use mrq_codegen::emit::{emit_source, Backend, CompileCostModel};
use mrq_codegen::exec::{QueryOutput, TableAccess, ValueTable};
use mrq_codegen::spec::{lower, Catalog, QuerySpec};
use mrq_common::cancel::{self, CancelReason, CancelToken, JobControl};
use mrq_common::plancache::ShardedLru;
use mrq_common::pool::WorkerPool;
use mrq_common::stream::{StreamReceiver, StreamSink};
use mrq_common::{fault, panic_message, AdmissionGate};
use mrq_common::{MrqError, Result, Schema, Value, WorkStats};
use mrq_engine_csharp::HeapTable;
use mrq_engine_hybrid::HybridConfig;
use mrq_engine_native::RowStore;
use mrq_expr::optimize::{optimize, OptimizerConfig, Rewrite};
use mrq_expr::{canonicalize, CanonicalQuery, Expr, SourceId};
use mrq_mheap::{Heap, ListId};
use parking_lot::Mutex;
use std::future::Future;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use crate::future::QueryState;

mod future;
mod owned;
mod prepared;
pub mod recycle;
pub mod stream;

pub use owned::OwnedProvider;
pub use prepared::{OwnedPreparedQuery, PreparedQuery};
pub use stream::QueryStream;

/// The row-batch payload type [`QueryStream`] yields, re-exported from
/// [`mrq_common::stream`].
pub use mrq_common::stream::RowBatch;

/// Sizing and counter snapshots of the shared [`PlanCache`], re-exported
/// from [`mrq_common::plancache`] under serving-layer names.
pub use mrq_common::plancache::{CacheConfig as PlanCacheConfig, CacheStats as PlanCacheStats};

/// The error type the serving layer resolves handles to — the same
/// [`mrq_common::MrqError`] every API in the workspace returns, re-exported
/// under the name its lifecycle variants ([`QueryError::Cancelled`],
/// [`QueryError::DeadlineExceeded`]) are discussed by.
pub use mrq_common::MrqError as QueryError;
pub use mrq_common::{AdmissionConfig, AdmissionStats};
pub use mrq_common::{QosClass, QosWeights};
pub use mrq_engine_hybrid::{Materialization, TransferPolicy};
pub use mrq_engine_native::ParallelConfig;
pub use mrq_expr::optimize::OptimizerConfig as QueryOptimizerConfig;
pub use recycle::{RecycleStats, ResultCache, ResultKey};

/// Which execution strategy to use for a statement.
///
/// The strategy picks the engine a compiled plan runs on, not the plan: the
/// lowered [`QuerySpec`] and its generated sources are the same for every
/// strategy, so one statement executed or prepared under several strategies
/// (and parallel configurations) shares one [`PlanCache`] entry.
///
/// [`QuerySpec`]: mrq_codegen::spec::QuerySpec
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The interpreted enumerable pipeline (baseline).
    LinqToObjects,
    /// Fused compiled execution over managed objects.
    CompiledCSharp,
    /// Fused compiled execution over native row stores.
    CompiledNative,
    /// Fused execution over native row stores, partitioned across worker
    /// threads (the parallel-execution extension of §9).
    CompiledNativeParallel(ParallelConfig),
    /// Managed staging plus native processing.
    Hybrid(HybridConfig),
}

/// Per-query options for every submission front end —
/// [`Provider::submit`] / [`Provider::submit_stream`] and their prepared
/// and owned mirrors: an
/// optional deadline, the QoS class the query's pool tickets are scheduled
/// under, and the streamed-batch size.
///
/// # Defaults (documented here, nowhere else)
///
/// [`QueryOptions::default`] (= [`QueryOptions::new`]) is:
///
/// * `deadline: None` — no wall-clock budget,
/// * `class: QosClass::Interactive` — the highest-weight serving class,
/// * `stream_batch_rows:` [`mrq_common::stream::default_batch_rows`] — the
///   `MRQ_STREAM_BATCH_ROWS` environment override if set to a positive
///   integer, else [`mrq_common::stream::DEFAULT_BATCH_ROWS`] (4096, the
///   cancel-checkpoint cadence). Only streamed submissions consult it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Wall-clock budget measured from submission — queue time counts
    /// against it. The deadline is *armed* at submission (no timer
    /// thread) and observed lazily at morsel boundaries; a budget of zero
    /// always resolves the handle to [`QueryError::DeadlineExceeded`]
    /// before a single morsel runs.
    pub deadline: Option<Duration>,
    /// Scheduling class for the pool's weighted per-class queues (default
    /// 8:2:1 Interactive:Batch:Maintenance grant weights, runtime-tunable
    /// via [`mrq_common::pool::WorkerPool::set_weights`]; see
    /// `docs/CONCURRENCY.md`).
    pub class: QosClass,
    /// Rows per batch in a [`Provider::submit_stream`] channel (clamped to
    /// at least 1). Smaller batches lower time-to-first-row and tighten
    /// backpressure; larger batches amortize channel hand-offs. Ignored by
    /// non-streamed submissions.
    pub stream_batch_rows: usize,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            deadline: None,
            class: QosClass::default(),
            stream_batch_rows: mrq_common::stream::default_batch_rows(),
        }
    }
}

impl QueryOptions {
    /// The defaults — see the [struct docs](QueryOptions#defaults-documented-here-nowhere-else).
    pub fn new() -> Self {
        QueryOptions::default()
    }

    /// Options for throughput work: [`QosClass::Batch`], no deadline.
    pub fn batch() -> Self {
        QueryOptions::new().with_class(QosClass::Batch)
    }

    /// Options for background housekeeping: [`QosClass::Maintenance`] — the
    /// class below Batch, granted only what the serving classes leave over
    /// (but never starved) — with no deadline.
    pub fn maintenance() -> Self {
        QueryOptions::new().with_class(QosClass::Maintenance)
    }

    /// The same options with a wall-clock budget from submission.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// The same options with an explicit scheduling class.
    pub fn with_class(mut self, class: QosClass) -> Self {
        self.class = class;
        self
    }

    /// The same options with an explicit streamed-batch size (rows per
    /// [`QueryStream`] batch; values below 1 are clamped to 1 at channel
    /// creation).
    pub fn with_stream_batch_rows(mut self, rows: usize) -> Self {
        self.stream_batch_rows = rows;
        self
    }
}

/// A borrowed-or-shared reference to bound data. Borrowed bindings pin the
/// provider (and everything submitted through it) to the owning stack
/// frame; shared (`Arc`) bindings are what let a fully-shared provider
/// become `'static` and seal into an [`OwnedProvider`].
enum SourceRef<'a, T> {
    Borrowed(&'a T),
    Shared(Arc<T>),
}

impl<T> SourceRef<'_, T> {
    fn get(&self) -> &T {
        match self {
            SourceRef::Borrowed(t) => t,
            SourceRef::Shared(t) => t,
        }
    }
}

/// How a source id is bound to data.
enum Binding<'a> {
    Managed { list: ListId, schema: Schema },
    Native(SourceRef<'a, RowStore>),
    Values(SourceRef<'a, ValueTable>),
}

/// One unit of submitted work: an ad-hoc statement (compiled — or fetched
/// from the plan cache — on the pool worker) or an already-prepared plan with
/// its parameters resolved at submission, which the worker only executes.
enum Job {
    Statement(Expr),
    Prepared {
        shape_hash: u64,
        plan: Arc<CompiledQuery>,
        params: Vec<Value>,
    },
}

/// What [`Provider::spawn`] hands a front end: the completion latch, the
/// cancel token, and — for a streamed submission — the receiving end of
/// its batch channel.
type Submission = (Arc<QueryState>, Arc<CancelToken>, Option<StreamReceiver>);

/// The identity of a cached plan: canonical expression structure and the
/// schemas of the sources the statement reads, in first-appearance order.
///
/// Two statements that differ only in literal values produce equal keys
/// (literals are lifted into parameter slots before keying); re-binding a
/// source to a schema with different fields produces a different key and
/// therefore a cache miss. The execution [`Strategy`] is not part of the
/// key — every strategy runs the same plan. Equality compares the full
/// canonical tree — the precomputed structural hash accelerates shard
/// selection and bucket lookup but never decides equality, so hash
/// collisions cannot alias two plans.
#[derive(Clone, PartialEq, Eq)]
pub struct PlanKey {
    shape_hash: u64,
    expr: Expr,
    schemas: Vec<Schema>,
}

impl Hash for PlanKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The canonical tree is folded into the precomputed structural hash;
        // the schemas hash directly.
        self.shape_hash.hash(state);
        self.schemas.hash(state);
    }
}

impl PlanKey {
    /// The canonical expression's structural hash (stable across literal
    /// values).
    pub fn shape_hash(&self) -> u64 {
        self.shape_hash
    }
}

/// The provider's one compile cache: a sharded, bounded LRU
/// ([`mrq_common::plancache::ShardedLru`]) from [`PlanKey`] to the compiled
/// artefact, behind [`Provider::compile`] and so behind every statement
/// front end — ad-hoc, prepared, streamed, explained. Share one across
/// providers with [`Provider::set_plan_cache`].
pub type PlanCache = ShardedLru<PlanKey, CompiledQuery>;

/// The compiled artefact cached per query pattern.
pub struct CompiledQuery {
    /// The fused query description.
    pub spec: QuerySpec,
    /// Generated managed source (what the §4 backend would compile).
    pub csharp_source: String,
    /// Generated native source (what the §5/§6 backend would compile).
    pub c_source: String,
    /// Heuristic rewrites applied before lowering (§2.3).
    pub rewrites: Vec<Rewrite>,
    /// Measured lowering + emission time for this pattern.
    pub generation_time: Duration,
}

/// Aggregated provider statistics (plan-cache counters are
/// [`Provider::plan_cache_stats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProviderStats {
    /// Result-recycling counters (all zero unless recycling is enabled).
    pub recycling: RecycleStats,
}

/// Binds sources to data and executes query statements.
pub struct Provider<'a> {
    heap: Option<SourceRef<'a, Heap>>,
    bindings: Vec<(SourceId, Binding<'a>)>,
    /// The one compile cache behind [`Provider::compile`], keyed by
    /// expression structure + source schemas. `Arc`-shared so several
    /// providers can serve one cache ([`Provider::set_plan_cache`]).
    plan_cache: Arc<PlanCache>,
    cost_model: CompileCostModel,
    optimizer: OptimizerConfig,
    recycling: bool,
    parallel: ParallelConfig,
    results: Mutex<ResultCache>,
    epoch: std::sync::atomic::AtomicU64,
    /// Submitted queries still running on the pool; `Drop` waits for zero,
    /// the second line of defence behind `QueryHandle`'s own drop-wait.
    in_flight: Arc<InFlight>,
    /// The admission gate every submission path consults *before* arming,
    /// compiling, or touching any cache: over the configured limits a
    /// submission is shed with [`QueryError::Overloaded`] instead of
    /// spawned. Unbounded by default (see [`Provider::set_admission`]).
    admission: AdmissionGate,
    /// Deterministic work accounting: the stats of the most recent execution
    /// plus the running total across every execution this provider served
    /// (see [`Provider::last_work_stats`]).
    work: Mutex<WorkTally>,
}

/// Last-execution + cumulative [`WorkStats`] behind the provider's lock.
#[derive(Debug, Clone, Copy, Default)]
struct WorkTally {
    last: WorkStats,
    cumulative: WorkStats,
}

/// Counter + latch for submitted queries in flight on the pool.
struct InFlight {
    count: StdMutex<usize>,
    zero: Condvar,
}

impl InFlight {
    fn lock(&self) -> std::sync::MutexGuard<'_, usize> {
        self.count.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn increment(&self) {
        *self.lock() += 1;
    }

    fn decrement(&self) {
        let mut count = self.lock();
        *count -= 1;
        if *count == 0 {
            drop(count);
            self.zero.notify_all();
        }
    }

    fn wait_for_zero(&self) {
        let mut count = self.lock();
        while *count > 0 {
            count = self.zero.wait(count).unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl Drop for Provider<'_> {
    /// Blocks until every submitted query finished, so a provider can never
    /// be torn down under a pool task that still references it — even if a
    /// [`QueryHandle`] was leaked without running its own drop-wait.
    fn drop(&mut self) {
        self.in_flight.wait_for_zero();
    }
}

impl<'a> Provider<'a> {
    /// Creates a provider without managed bindings (native-only use).
    pub fn new() -> Self {
        Provider {
            heap: None,
            bindings: Vec::new(),
            plan_cache: Arc::new(PlanCache::new(PlanCacheConfig::default())),
            cost_model: CompileCostModel::default(),
            optimizer: OptimizerConfig::default(),
            recycling: false,
            parallel: ParallelConfig::sequential(),
            results: Mutex::new(ResultCache::new()),
            epoch: std::sync::atomic::AtomicU64::new(0),
            in_flight: Arc::new(InFlight {
                count: StdMutex::new(0),
                zero: Condvar::new(),
            }),
            admission: AdmissionGate::default(),
            work: Mutex::new(WorkTally::default()),
        }
    }

    /// Sets the provider-wide degree of parallelism applied by the compiled
    /// strategies (§9 parallel-execution extension): `CompiledCSharp`,
    /// `CompiledNative` and `Hybrid` split their probe-side scan **and**
    /// their join hash-table builds into morsels across this many workers.
    /// The config also carries the morsel size
    /// ([`ParallelConfig::morsel_rows`], rows per morsel handed out by the
    /// shared cursor), which applies to every engine the provider
    /// dispatches to. A
    /// [`Strategy`] that carries its own [`ParallelConfig`]
    /// (`CompiledNativeParallel`, or `Hybrid` with a non-sequential
    /// [`HybridConfig::parallel`]) overrides this default. `LinqToObjects`
    /// always runs single-threaded — it reproduces the paper's baseline
    /// enumerable pipeline exactly.
    ///
    /// The default is [`ParallelConfig::sequential`], which matches the
    /// single-threaded seed engines bit-for-bit.
    ///
    /// Workers come from the process-wide persistent pool
    /// ([`mrq_common::pool::WorkerPool::global`]); raising `threads` grows
    /// the pool on first use rather than spawning threads per query.
    ///
    /// # Examples
    ///
    /// ```
    /// use mrq_core::{ParallelConfig, Provider};
    ///
    /// let mut provider = Provider::new();
    /// // Default: sequential — bit-identical to the single-threaded seed.
    /// assert!(provider.parallelism().is_sequential());
    ///
    /// // Opt in to 8-way morsel parallelism with 16k-row stolen morsels.
    /// provider.set_parallelism(
    ///     ParallelConfig::with_threads(8).with_morsel_rows(16 * 1024),
    /// );
    /// assert_eq!(provider.parallelism().threads, 8);
    /// ```
    pub fn set_parallelism(&mut self, config: ParallelConfig) -> &mut Self {
        self.parallel = config;
        self
    }

    /// The provider-wide degree of parallelism.
    pub fn parallelism(&self) -> ParallelConfig {
        self.parallel
    }

    /// Bounds concurrent submissions with an [`AdmissionConfig`]: once the
    /// limit for a QoS class is reached, further `submit`/`submit_stream`
    /// calls (and their prepared/owned counterparts) of
    /// that class resolve immediately to [`QueryError::Overloaded`] — no
    /// task is spawned, nothing is compiled, and no plan-cache traffic
    /// happens for the shed statement. Shedding is QoS-aware: Maintenance
    /// sheds first, then Batch, while Interactive keeps a reserved share
    /// of the budget (see `mrq_common::admission` for the exact
    /// arithmetic).
    ///
    /// The default is [`AdmissionConfig::from_env`] — unbounded unless
    /// `MRQ_MAX_IN_FLIGHT` / `MRQ_MAX_QUEUE_DEPTH` are set. Blocking
    /// [`Provider::execute`] calls are not gated; the gate protects the
    /// pool-backed submission paths a server exposes.
    ///
    /// # Examples
    ///
    /// ```
    /// use mrq_core::{AdmissionConfig, Provider};
    ///
    /// let mut provider = Provider::new();
    /// provider.set_admission(AdmissionConfig::bounded(64, 16));
    /// assert_eq!(provider.admission().total_slots(), 80);
    /// ```
    pub fn set_admission(&mut self, config: AdmissionConfig) -> &mut Self {
        self.admission.set_config(config);
        self
    }

    /// The admission limits currently enforced.
    pub fn admission(&self) -> AdmissionConfig {
        self.admission.config()
    }

    /// Admission accounting: submissions admitted, submissions shed with
    /// [`QueryError::Overloaded`], and the peak/current in-flight counts.
    pub fn admission_stats(&self) -> AdmissionStats {
        self.admission.stats()
    }

    /// Sets the heuristic-rewrite configuration applied before lowering
    /// (selection push-down, predicate reordering; §2.3). The default applies
    /// every rewrite; pass [`OptimizerConfig::disabled`] to evaluate operator
    /// chains exactly as written, as LINQ-to-objects does.
    pub fn set_optimizer(&mut self, config: OptimizerConfig) -> &mut Self {
        self.optimizer = config;
        self
    }

    /// The current heuristic-rewrite configuration.
    pub fn optimizer(&self) -> OptimizerConfig {
        self.optimizer
    }

    /// Enables or disables query-result recycling (§9 / \[15\]): repeated
    /// executions of the same statement with the same parameters over
    /// unchanged collections return the cached result without re-running the
    /// query. Applications that mutate objects in place must call
    /// [`Provider::invalidate_results`] after doing so.
    pub fn set_result_recycling(&mut self, enabled: bool) -> &mut Self {
        self.recycling = enabled;
        self
    }

    /// Drops every recycled result (call after mutating bound data in place).
    pub fn invalidate_results(&self) {
        self.epoch.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.results.lock().clear();
    }

    /// Replaces the plan cache behind [`Provider::compile`]. The default is a
    /// private [`PlanCacheConfig::default`] cache (8 shards × 32 plans);
    /// pass a shared `Arc` to let several providers — say, one per schema
    /// tenant — serve one cache, or a [`PlanCacheConfig::single_shard`]
    /// cache for deterministic LRU order.
    pub fn set_plan_cache(&mut self, cache: Arc<PlanCache>) -> &mut Self {
        self.plan_cache = cache;
        self
    }

    /// The plan cache behind [`Provider::compile`].
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// Snapshot of the plan cache's hit/miss/eviction counters and entry
    /// count.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Drops every compiled artefact from the plan cache (counters are
    /// preserved; plans still held by a [`PreparedQuery`] stay valid). This
    /// is the compile-every-time baseline the amortization benchmarks
    /// measure against.
    pub fn clear_compiled(&self) {
        self.plan_cache.clear();
    }

    /// Creates a provider over a managed heap.
    pub fn over_heap(heap: &'a Heap) -> Self {
        let mut provider = Provider::new();
        provider.heap = Some(SourceRef::Borrowed(heap));
        provider
    }

    /// Creates a provider over a *shared* managed heap: the `'static`
    /// counterpart of [`Provider::over_heap`], for providers that will be
    /// sealed into an [`OwnedProvider`]. The provider keeps the `Arc`
    /// alive; so does every in-flight owned submission.
    pub fn over_shared_heap(heap: Arc<Heap>) -> Provider<'static> {
        let mut provider = Provider::new();
        provider.heap = Some(SourceRef::Shared(heap));
        provider
    }

    /// Binds `source` to `binding`, replacing any earlier binding of it.
    /// A re-bind also invalidates recycled results, which may have been
    /// computed over the old data; cached plans need no invalidation, as
    /// their key holds the bound schemas.
    fn bind(&mut self, source: SourceId, binding: Binding<'a>) -> &mut Self {
        match self.bindings.iter_mut().find(|(id, _)| *id == source) {
            Some(slot) => {
                slot.1 = binding;
                self.invalidate_results();
            }
            None => self.bindings.push((source, binding)),
        }
        self
    }

    /// Binds a source id to a managed list (the `QList<T>` wrapper of §3).
    /// Every `bind_*` replaces an earlier binding of the same source.
    pub fn bind_managed(&mut self, source: SourceId, list: ListId, schema: Schema) -> &mut Self {
        self.bind(source, Binding::Managed { list, schema })
    }

    /// Binds a source id to a native row store (the array-of-structs case of
    /// §5).
    pub fn bind_native(&mut self, source: SourceId, store: &'a RowStore) -> &mut Self {
        self.bind(source, Binding::Native(SourceRef::Borrowed(store)))
    }

    /// Binds a source id to a *shared* native row store. Unlike
    /// [`Provider::bind_native`], the binding does not borrow: a provider
    /// whose bindings are all shared (or managed) is `'static` and can seal
    /// into an [`OwnedProvider`] whose handles escape the binding scope.
    pub fn bind_native_shared(&mut self, source: SourceId, store: Arc<RowStore>) -> &mut Self {
        self.bind(source, Binding::Native(SourceRef::Shared(store)))
    }

    /// Binds a source id to a materialised value table (used for multi-step
    /// queries such as the decorrelated Q2 inner result).
    pub fn bind_values(&mut self, source: SourceId, table: &'a ValueTable) -> &mut Self {
        self.bind(source, Binding::Values(SourceRef::Borrowed(table)))
    }

    /// Binds a source id to a *shared* materialised value table (the
    /// `'static` counterpart of [`Provider::bind_values`]; see
    /// [`Provider::bind_native_shared`]).
    pub fn bind_values_shared(&mut self, source: SourceId, table: Arc<ValueTable>) -> &mut Self {
        self.bind(source, Binding::Values(SourceRef::Shared(table)))
    }

    /// The bound managed heap, borrowed or shared.
    fn heap(&self) -> Option<&Heap> {
        self.heap.as_ref().map(SourceRef::get)
    }

    fn binding(&self, source: SourceId) -> Result<&Binding<'a>> {
        self.bindings
            .iter()
            .find(|(id, _)| *id == source)
            .map(|(_, b)| b)
            .ok_or_else(|| MrqError::Codegen(format!("source {source:?} is not bound")))
    }

    fn schema_of(&self, source: SourceId) -> Option<Schema> {
        match self.binding(source).ok()? {
            Binding::Managed { schema, .. } => Some(schema.clone()),
            Binding::Native(store) => Some(store.get().schema().clone()),
            Binding::Values(table) => Some(table.get().schema().clone()),
        }
    }

    /// Compiles (or fetches from the plan cache) the artefact for a
    /// statement: heuristic rewrites, canonicalisation, plan-cache lookup,
    /// and on a miss lowering and source emission. Every statement front
    /// end — [`Provider::execute`], [`Provider::prepare`], the ad-hoc
    /// `submit`/`submit_stream` paths and the `explain` family — compiles
    /// through here, so one shape compiles once whichever way it arrives.
    ///
    /// The cache key is the canonical structure plus the schemas of the
    /// bound sources ([`PlanKey`]). On a hit nothing is lowered or emitted.
    /// A miss lowers and emits outside the shard lock, and is
    /// panic-isolated: a panic in lowering/codegen (or injected at the
    /// `plancache.insert` fault point) becomes a clean per-statement error,
    /// and the cache — whose shard locks recover from poisoning — keeps
    /// serving other shapes.
    pub fn compile(&self, expr: Expr) -> Result<(CanonicalQuery, Arc<CompiledQuery>)> {
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
            schemas,
        };
        let catalog = ProviderCatalog { provider: self };
        let compiled = catch_unwind(AssertUnwindSafe(|| {
            self.plan_cache.get_or_insert_with(&key, || {
                fault::point("plancache.insert")?;
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
        match compiled {
            Ok(plan) => Ok((canonical, plan?)),
            Err(payload) => Err(MrqError::Internal(panic_message(payload))),
        }
    }

    /// Returns the generated source for a statement (the paper's listings).
    pub fn explain(&self, expr: Expr, backend: Backend) -> Result<String> {
        let (_, compiled) = self.compile(expr)?;
        Ok(match backend {
            Backend::CSharp => compiled.csharp_source.clone(),
            Backend::C => compiled.c_source.clone(),
        })
    }

    /// Returns the heuristic rewrites the optimizer applied to a statement.
    pub fn explain_rewrites(&self, expr: Expr) -> Result<Vec<Rewrite>> {
        let (_, compiled) = self.compile(expr)?;
        Ok(compiled.rewrites.clone())
    }

    /// The modelled compile cost of a statement for the given backend
    /// (§7.4): generation is measured, compiler latency is modelled.
    pub fn compile_cost(&self, expr: Expr, backend: Backend) -> Result<(Duration, Duration)> {
        let (_, compiled) = self.compile(expr)?;
        let source = match backend {
            Backend::CSharp => &compiled.csharp_source,
            Backend::C => &compiled.c_source,
        };
        Ok((
            compiled.generation_time + self.cost_model.generation_cost(source),
            self.cost_model.compile_cost(source, backend),
        ))
    }

    /// Builds a deferred query: nothing executes until the result is
    /// consumed.
    pub fn query(&'a self, expr: Expr, strategy: Strategy) -> DeferredQuery<'a> {
        DeferredQuery {
            provider: self,
            expr,
            strategy,
        }
    }

    /// Executes a statement immediately with the given strategy. When result
    /// recycling is enabled, a repeated statement with identical parameters
    /// over unchanged collections is served from the result cache.
    ///
    /// Takes `&self`, so a shared provider can serve many client threads at
    /// once; see [`Provider::submit`] for queued (non-blocking) submission.
    ///
    /// # Examples
    ///
    /// ```
    /// use mrq_common::{DataType, Field, Schema};
    /// use mrq_core::{Provider, Strategy};
    /// use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
    /// use mrq_mheap::{ClassDesc, Heap};
    ///
    /// // An application collection: four Sale objects on the managed heap.
    /// let schema = Schema::new(
    ///     "Sale",
    ///     vec![
    ///         Field::new("id", DataType::Int64),
    ///         Field::new("city", DataType::Str),
    ///     ],
    /// );
    /// let mut heap = Heap::new();
    /// let class = heap.register_class(ClassDesc::from_schema(&schema));
    /// let list = heap.new_list("sales", Some(class));
    /// for i in 0..4i64 {
    ///     let obj = heap.alloc(class);
    ///     heap.set_i64(obj, 0, i);
    ///     heap.set_str(obj, 1, if i % 2 == 0 { "London" } else { "Paris" });
    ///     heap.list_push(list, obj);
    /// }
    ///
    /// // Bind the collection and run a LINQ-style statement compiled to C#.
    /// let mut provider = Provider::over_heap(&heap);
    /// provider.bind_managed(SourceId(0), list, schema);
    /// let stmt = Query::from_source(SourceId(0))
    ///     .where_(lam(
    ///         "s",
    ///         Expr::binary(BinaryOp::Eq, col("s", "city"), lit("London")),
    ///     ))
    ///     .select(lam("s", col("s", "id")))
    ///     .into_expr();
    /// let out = provider.execute(stmt, Strategy::CompiledCSharp)?;
    /// assert_eq!(out.rows.len(), 2);
    /// # Ok::<(), mrq_common::MrqError>(())
    /// ```
    pub fn execute(&self, expr: Expr, strategy: Strategy) -> Result<QueryOutput> {
        let (canonical, compiled) = self.compile(expr)?;
        self.execute_plan(
            canonical.shape_hash,
            &compiled.spec,
            &canonical.params,
            strategy,
        )
    }

    /// The shared tail of [`Provider::execute`] and the prepared-query path:
    /// an already-lowered plan with resolved parameters, run through result
    /// recycling when enabled.
    fn execute_plan(
        &self,
        shape_hash: u64,
        spec: &QuerySpec,
        params: &[Value],
        strategy: Strategy,
    ) -> Result<QueryOutput> {
        // A streamed execution bypasses result recycling entirely: its
        // output rows are drained into the channel as they are produced, so
        // caching the residual would poison the cache with a partial result,
        // and serving a cache hit would stream nothing.
        if !self.recycling || mrq_common::stream::current().is_some() {
            return self.execute_compiled(spec, params, strategy);
        }
        let key = self.result_key(shape_hash, params, spec)?;
        if let Some(hit) = self.results.lock().lookup(&key) {
            // A recycled result required no execution work: its stats are
            // zero, and that zero is what `last_work_stats` records.
            let mut output = (*hit).clone();
            output.work = WorkStats::default();
            self.record_work(&output.work);
            return Ok(output);
        }
        let output = self.execute_compiled(spec, params, strategy)?;
        self.results.lock().insert(key, Arc::new(output.clone()));
        Ok(output)
    }

    /// Records one execution's work counters: `last` is replaced, the
    /// cumulative total accumulates.
    fn record_work(&self, work: &WorkStats) {
        let mut tally = self.work.lock();
        tally.last = *work;
        tally.cumulative.add(work);
    }

    /// The deterministic [`WorkStats`] of the most recently completed
    /// execution on this provider (zero before the first execution, and
    /// zero again after a result-recycling hit, which does no work). See
    /// [`mrq_common::workcount`] for the counter semantics and the
    /// determinism contract.
    pub fn last_work_stats(&self) -> WorkStats {
        self.work.lock().last
    }

    /// The running total of [`WorkStats`] across every execution this
    /// provider completed (all strategies, ad-hoc and prepared).
    pub fn cumulative_work_stats(&self) -> WorkStats {
        self.work.lock().cumulative
    }

    /// Queues a statement for execution on the persistent worker pool and
    /// returns immediately with a [`QueryHandle`] to poll or join.
    ///
    /// This is the concurrent-serving front end: any number of client
    /// threads may `submit` through a shared `&Provider` at once. Each
    /// submitted query runs as one pool task (growing the pool towards one
    /// worker per query in flight, up to its ceiling), and its parallel
    /// morsels are scheduled round-robin against every other query in
    /// flight — a long scan cannot starve short probes submitted after it.
    /// Results are identical to calling [`Provider::execute`] with the same
    /// statement and strategy.
    ///
    /// `options` carries the per-query lifecycle controls ([`QueryOptions`]
    /// — pass `QueryOptions::default()` for none); the same signature shape
    /// is mirrored on [`OwnedProvider`], [`PreparedQuery`] and
    /// [`OwnedPreparedQuery`], and by the streaming
    /// ([`Provider::submit_stream`]) front end.
    ///
    /// The handle can be joined, polled as a [`Future`], or cancelled. It
    /// borrows the provider: dropping it without joining blocks until the
    /// query finished, so in-flight work never outlives the provider or its
    /// bound collections. For `'static` handles that escape the binding
    /// scope — and drop without blocking — seal the provider into an
    /// [`OwnedProvider`].
    ///
    /// # Deadlines and scheduling class
    ///
    /// A deadline is armed *at submission* as a wall-clock instant on the
    /// query's cancel token — queue time counts against the budget — and
    /// observed *lazily* — between morsels, never inside one — so there is
    /// no timer thread and cancellation latency is bounded by one morsel
    /// ([`ParallelConfig::morsel_rows`] rows). A query whose deadline
    /// already passed when its task is granted (a zero budget, or queue
    /// time that exceeded the budget) resolves to
    /// [`QueryError::DeadlineExceeded`] without compiling or executing
    /// anything.
    ///
    /// The class picks which of the pool's weighted queues the query's
    /// tickets — its dispatch and every morsel of its parallel fan-outs —
    /// are granted from: with the default 8:2:1 weights,
    /// [`QosClass::Batch`] work keeps flowing but cedes four grants to
    /// [`QosClass::Interactive`] for each of its own whenever both are
    /// backlogged, and [`QosClass::Maintenance`] trickles below both.
    ///
    /// # Examples
    ///
    /// ```
    /// use mrq_common::{DataType, Field, Schema, Value};
    /// use mrq_core::{Provider, QueryError, QueryOptions, Strategy};
    /// use mrq_engine_native::RowStore;
    /// use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
    /// use std::time::Duration;
    ///
    /// let schema = Schema::new("N", vec![Field::new("n", DataType::Int64)]);
    /// let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int64(i)]).collect();
    /// let store = RowStore::from_rows(schema, &rows);
    /// let mut provider = Provider::new();
    /// provider.bind_native(SourceId(0), &store);
    /// let stmt = Query::from_source(SourceId(0))
    ///     .where_(lam("x", Expr::binary(BinaryOp::Lt, col("x", "n"), lit(10i64))))
    ///     .select(lam("x", col("x", "n")))
    ///     .into_expr();
    ///
    /// // Queue two instances; join them in either order.
    /// let a = provider.submit(stmt.clone(), Strategy::CompiledNative, QueryOptions::default());
    /// let b = provider.submit(stmt.clone(), Strategy::CompiledNative, QueryOptions::default());
    /// assert_eq!(b.join()?.rows.len(), 10);
    /// assert_eq!(a.join()?.rows.len(), 10);
    ///
    /// // Batch class with a generous budget: completes normally.
    /// let opts = QueryOptions::batch().with_deadline(Duration::from_secs(60));
    /// let handle = provider.submit(stmt.clone(), Strategy::CompiledNative, opts);
    /// assert_eq!(handle.join()?.rows.len(), 10);
    ///
    /// // A zero budget is already expired at dispatch: the handle resolves
    /// // to DeadlineExceeded before a single morsel runs.
    /// let doomed = QueryOptions::new().with_deadline(Duration::ZERO);
    /// let handle = provider.submit(stmt, Strategy::CompiledNative, doomed);
    /// assert!(matches!(handle.join(), Err(QueryError::DeadlineExceeded)));
    /// # Ok::<(), mrq_common::MrqError>(())
    /// ```
    pub fn submit(&self, expr: Expr, strategy: Strategy, options: QueryOptions) -> QueryHandle<'_> {
        QueryHandle::new(
            Self::spawn(self, Job::Statement(expr), strategy, options, false),
            None,
        )
    }

    /// Queues a statement and returns a [`QueryStream`] that yields its
    /// result as in-order row batches *while the query executes*, instead
    /// of one materialised [`QueryOutput`] at the end.
    ///
    /// Batches arrive in exactly the order [`Provider::execute`] would
    /// return the rows — the engines publish completed morsels at an
    /// ordered frontier, so concatenating every batch reproduces the
    /// materialised result bit for bit, for every strategy and scheduler
    /// configuration. Batch size is [`QueryOptions::stream_batch_rows`];
    /// the channel holds a bounded number of batches, so a consumer that
    /// stops reading exerts backpressure (workers pause at their next
    /// checkpoint) rather than letting results pile up in memory.
    ///
    /// Shapes whose output cannot exist before the end of execution —
    /// grouped aggregation, sorted or Take-limited results, hybrid
    /// Min/Max-transfer — still work: they deliver everything as one final
    /// flush at completion, with the same contents.
    ///
    /// Dropping the stream cancels the query through its
    /// [`CancelToken`] and waits for it to unwind — the streaming analogue
    /// of [`QueryHandle`]'s drop-wait — so in-flight work never outlives
    /// the provider's bindings.
    ///
    /// # Examples
    ///
    /// ```
    /// use mrq_common::{DataType, Field, Schema, Value};
    /// use mrq_core::{Provider, QueryOptions, Strategy};
    /// use mrq_engine_native::RowStore;
    /// use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
    ///
    /// let schema = Schema::new("N", vec![Field::new("n", DataType::Int64)]);
    /// let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int64(i)]).collect();
    /// let store = RowStore::from_rows(schema, &rows);
    /// let mut provider = Provider::new();
    /// provider.bind_native(SourceId(0), &store);
    /// let stmt = Query::from_source(SourceId(0))
    ///     .where_(lam("x", Expr::binary(BinaryOp::Lt, col("x", "n"), lit(10i64))))
    ///     .select(lam("x", col("x", "n")))
    ///     .into_expr();
    ///
    /// let options = QueryOptions::default().with_stream_batch_rows(4);
    /// let stream = provider.submit_stream(stmt, Strategy::CompiledNative, options);
    /// let mut total = 0;
    /// for batch in stream {
    ///     total += batch?.len();
    /// }
    /// assert_eq!(total, 10);
    /// # Ok::<(), mrq_common::MrqError>(())
    /// ```
    pub fn submit_stream(
        &self,
        expr: Expr,
        strategy: Strategy,
        options: QueryOptions,
    ) -> QueryStream<'_> {
        QueryStream::new(
            Self::spawn(self, Job::Statement(expr), strategy, options, true),
            None,
        )
    }

    /// Arms a submission's cancel token (deadline measured from now — queue
    /// time counts against the budget; `checked_add` saturates absurd
    /// budgets to "no deadline" instead of panicking) and pairs it with the
    /// [`JobControl`] every fan-out of the query will inherit.
    fn arm(options: &QueryOptions) -> (Arc<CancelToken>, JobControl) {
        let deadline = options
            .deadline
            .and_then(|budget| Instant::now().checked_add(budget));
        let token = Arc::new(match deadline {
            Some(at) => CancelToken::expiring(at),
            None => CancelToken::new(),
        });
        let control = JobControl {
            token: Arc::clone(&token),
            class: options.class,
        };
        (token, control)
    }

    /// Runs one submitted query on the calling (pool-worker) thread under
    /// its [`JobControl`]: the pre-dispatch token check, the cancel scope,
    /// and the query-boundary catch that turns checkpoint unwinds into
    /// their lifecycle errors and engine panics into [`MrqError::Internal`]
    /// — a panicking query must still complete its latch, or a joining
    /// client (or registered waker) would wait forever.
    ///
    /// When `sink` is set the query runs inside a stream scope: streamable
    /// shapes publish row batches through it while executing, and the
    /// returned [`QueryOutput`] holds only the unpublished residual rows.
    fn run_submitted(
        &self,
        control: &JobControl,
        job: Job,
        strategy: Strategy,
        sink: Option<&StreamSink>,
    ) -> Result<QueryOutput> {
        if let Some(reason) = control.token.check() {
            // Cancelled or expired while queued: resolve the handle
            // without compiling or executing a single morsel.
            return Err(MrqError::from(reason));
        }
        // The scope threads the token and class to every morsel fan-out
        // below; a tripped checkpoint unwinds with the reason, caught here
        // at the query boundary.
        match catch_unwind(AssertUnwindSafe(|| {
            fault::point("pool.dispatch")?;
            cancel::scope(control.clone(), || {
                let run = || match job {
                    Job::Statement(expr) => self.execute(expr, strategy),
                    Job::Prepared {
                        shape_hash,
                        plan,
                        params,
                    } => self.execute_plan(shape_hash, &plan.spec, &params, strategy),
                };
                match sink {
                    Some(sink) => mrq_common::stream::scope(sink.clone(), run),
                    None => run(),
                }
            })
        })) {
            Ok(result) => result,
            Err(payload) => Err(match payload.downcast::<CancelReason>() {
                Ok(reason) => MrqError::from(*reason),
                // Engine panics — and panics re-raised by the pool's
                // morsel-failure path — surface as a per-query error that
                // keeps the *original* payload message, so the client
                // learns what actually broke, not just that something did.
                Err(payload) => MrqError::Internal(panic_message(payload)),
            }),
        }
    }

    /// The one spawn path behind every `submit` and `submit_stream` front
    /// end, borrowed (`provider` is `&Provider`) or owned (`provider` is
    /// the task's own `Arc<Provider<'static>>` keep-alive). Returns the
    /// [`Submission`] the front end wraps in a [`QueryHandle`] or
    /// [`QueryStream`]; `streamed` decides whether the task runs inside a
    /// stream scope wired to a bounded batch channel.
    ///
    /// Admission runs first — before [`Provider::arm`], any compilation or
    /// any cache traffic, because shedding must stay cheap under exactly
    /// the load that makes it necessary. A shed submission queues no task:
    /// its state is already resolved to [`QueryError::Overloaded`] and, when
    /// streamed, its channel is already closed with that error.
    fn spawn<'p, P>(
        provider: P,
        job: Job,
        strategy: Strategy,
        options: QueryOptions,
        streamed: bool,
    ) -> Submission
    where
        P: Deref<Target = Provider<'a>> + Send + 'p,
    {
        if let Err(error) = provider.admission.try_admit(options.class) {
            let token = Arc::new(CancelToken::new());
            let receiver = streamed.then(|| {
                let (sink, receiver) = mrq_common::stream::channel(1, Arc::clone(&token));
                sink.close(Some(error.clone()));
                receiver
            });
            return (QueryState::completed(Err(error)), token, receiver);
        }
        let (token, control) = Self::arm(&options);
        let (sink, receiver) = if streamed {
            let (sink, receiver) =
                mrq_common::stream::channel(options.stream_batch_rows, Arc::clone(&token));
            (Some(sink), Some(receiver))
        } else {
            (None, None)
        };
        let state = QueryState::new();
        let completion = Arc::clone(&state);
        let in_flight = Arc::clone(&provider.in_flight);
        in_flight.increment();
        let task: Box<dyn FnOnce() + Send + 'p> = Box::new(move || {
            let mut result = provider.run_submitted(&control, job, strategy, sink.as_ref());
            if let Some(sink) = &sink {
                result = provider.finish_stream(sink, result);
            }
            // Free the admission slot before the result becomes visible: a
            // client woken by `complete` may re-submit at once and must not
            // be shed by its own finished query.
            provider.admission.release();
            completion.complete(result);
            // From here on the task never dereferences `provider`. The
            // decrement goes through the task's own `Arc<InFlight>`, and the
            // keep-alive `provider` drops when the task returns, after it:
            // if that is the last `Arc` clone, `Provider::drop` then sees
            // zero in flight instead of waiting on this very task.
            in_flight.decrement();
        });
        // SAFETY (lifetime erasure): the pool requires a `'static` task, but
        // the task holds `provider: P`, which is only `'p`. For the owned
        // path `P` is an `Arc<Provider<'static>>` and the erasure changes
        // nothing. For the borrowed path `P` is `&Provider`: every
        // dereference the task makes happens before `complete`, and a
        // borrowed `QueryHandle` or `QueryStream` holds that borrow until
        // `complete` — its `join` and `Drop` wait for it. If a handle is
        // leaked (`mem::forget`) instead, `Provider::drop` still waits for
        // the in-flight decrement before the provider and its borrowed
        // bindings can go away.
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
        WorkerPool::global().spawn_as(options.class, task);
        (state, token, receiver)
    }

    /// Finishes one streamed query: sends the residual rows the engine did
    /// not publish while executing, folds the channel's batch/row tallies
    /// into the output's [`WorkCounters`] (and this provider's work stats —
    /// [`Provider::record_work`] already ran inside `execute` *without*
    /// them, because the channel owns those counts until the stream
    /// closes), and closes the channel — with the query's error, if any,
    /// delivered after every batch published before the failure.
    fn finish_stream(&self, sink: &StreamSink, result: Result<QueryOutput>) -> Result<QueryOutput> {
        let mut result = result;
        if let Ok(out) = &mut result {
            let mut residual = std::mem::take(&mut out.rows);
            sink.send_rows(&mut residual);
        }
        let error = result.as_ref().err().cloned();
        sink.close(error);
        let (batches, rows) = sink.counters();
        if let Ok(out) = &mut result {
            out.work.streamed(batches, rows);
            self.record_stream_work(batches, rows);
        }
        result
    }

    /// Folds a finished stream's channel tallies into both work-stat
    /// registers (last + cumulative), which were recorded pre-close without
    /// them.
    fn record_stream_work(&self, batches: u64, rows: u64) {
        let mut tally = self.work.lock();
        tally.last.streamed(batches, rows);
        tally.cumulative.streamed(batches, rows);
    }

    /// The recycling identity of one statement instance: canonical shape,
    /// parameter values, bound-collection fingerprint and invalidation epoch.
    fn result_key(&self, shape_hash: u64, params: &[Value], spec: &QuerySpec) -> Result<ResultKey> {
        let mut sources = vec![spec.root];
        sources.extend(spec.joins.iter().map(|j| j.source));
        let mut fingerprint = Vec::with_capacity(sources.len());
        for source in sources {
            let rows = match self.binding(source)? {
                Binding::Managed { list, .. } => {
                    let heap = self.heap().ok_or_else(|| {
                        MrqError::Unsupported("managed bindings need a heap-backed provider".into())
                    })?;
                    heap.list_len(*list)
                }
                Binding::Native(store) => store.get().len(),
                Binding::Values(table) => table.get().rows().len(),
            };
            fingerprint.push((source, rows));
        }
        Ok(ResultKey {
            shape_hash,
            params: params.to_vec(),
            sources: fingerprint,
            epoch: self.epoch.load(std::sync::atomic::Ordering::SeqCst),
        })
    }

    /// Executes an already-lowered spec with bound parameters.
    pub fn execute_compiled(
        &self,
        spec: &QuerySpec,
        params: &[Value],
        strategy: Strategy,
    ) -> Result<QueryOutput> {
        let output = self.execute_compiled_inner(spec, params, strategy)?;
        self.record_work(&output.work);
        Ok(output)
    }

    /// The strategy dispatch behind [`Provider::execute_compiled`].
    fn execute_compiled_inner(
        &self,
        spec: &QuerySpec,
        params: &[Value],
        strategy: Strategy,
    ) -> Result<QueryOutput> {
        let mut sources = vec![spec.root];
        sources.extend(spec.joins.iter().map(|j| j.source));
        match strategy {
            Strategy::CompiledNative | Strategy::CompiledNativeParallel(_) => {
                let mut tables = Vec::new();
                for source in &sources {
                    match self.binding(*source)? {
                        Binding::Native(store) => tables.push(store.get()),
                        _ => {
                            return Err(MrqError::Unsupported(format!(
                                "source {source:?} is not bound to a native row store; \
                                 the native strategy requires arrays of structs (§5)"
                            )))
                        }
                    }
                }
                match strategy {
                    Strategy::CompiledNativeParallel(config) => {
                        mrq_engine_native::execute_parallel(spec, params, &tables, &[], config)
                    }
                    _ if !self.parallel.is_sequential() => mrq_engine_native::execute_parallel(
                        spec,
                        params,
                        &tables,
                        &[],
                        self.parallel,
                    ),
                    _ => mrq_engine_native::execute(spec, params, &tables),
                }
            }
            Strategy::LinqToObjects | Strategy::CompiledCSharp | Strategy::Hybrid(_) => {
                let heap = self.heap().ok_or_else(|| {
                    MrqError::Unsupported("managed strategies need a heap-backed provider".into())
                })?;
                // Managed strategies accept managed lists; value-table
                // bindings (materialised sub-query results) are loaded into
                // temporary managed tables is unnecessary — instead we reject
                // them for LINQ/C# and allow them only as join build sides by
                // materialising through a scratch list would complicate the
                // provider, so for now every source must be a managed list.
                let mut tables = Vec::new();
                for source in &sources {
                    match self.binding(*source)? {
                        Binding::Managed { list, schema } => {
                            tables.push(HeapTable::new(heap, *list, schema.clone()))
                        }
                        _ => {
                            return Err(MrqError::Unsupported(format!(
                                "source {source:?} is not bound to a managed list; \
                                 managed strategies query managed collections"
                            )))
                        }
                    }
                }
                let refs: Vec<&HeapTable<'_>> = tables.iter().collect();
                match strategy {
                    // The baseline reproduces the paper's single-threaded
                    // enumerable pipeline; it never parallelises.
                    Strategy::LinqToObjects => mrq_engine_linq::execute(spec, params, &refs),
                    Strategy::CompiledCSharp if !self.parallel.is_sequential() => {
                        mrq_engine_csharp::execute_parallel(spec, params, &refs, self.parallel)
                    }
                    Strategy::CompiledCSharp => mrq_engine_csharp::execute(spec, params, &refs),
                    Strategy::Hybrid(mut config) => {
                        // A strategy-level parallel setting wins; otherwise
                        // the provider-wide degree of parallelism applies.
                        if config.parallel.is_sequential() {
                            config.parallel = self.parallel;
                        }
                        mrq_engine_hybrid::execute(spec, params, &refs, config)
                            .map(|run| run.output)
                    }
                    Strategy::CompiledNative | Strategy::CompiledNativeParallel(_) => {
                        unreachable!()
                    }
                }
            }
        }
    }

    /// Result-recycling statistics.
    pub fn stats(&self) -> ProviderStats {
        ProviderStats {
            recycling: self.results.lock().stats(),
        }
    }
}

impl Default for Provider<'_> {
    fn default() -> Self {
        Self::new()
    }
}

struct ProviderCatalog<'p, 'a> {
    provider: &'p Provider<'a>,
}

impl Catalog for ProviderCatalog<'_, '_> {
    fn schema(&self, source: SourceId) -> Option<Schema> {
        self.provider.schema_of(source)
    }
}

/// A query whose execution is deferred until its result is consumed,
/// mirroring LINQ's deferred-execution semantics.
pub struct DeferredQuery<'a> {
    provider: &'a Provider<'a>,
    expr: Expr,
    strategy: Strategy,
}

impl DeferredQuery<'_> {
    /// Executes the query and returns all result rows.
    pub fn to_rows(&self) -> Result<Vec<Vec<Value>>> {
        Ok(self
            .provider
            .execute(self.expr.clone(), self.strategy)?
            .rows)
    }

    /// Executes the query and returns the full output (schema + rows).
    pub fn to_output(&self) -> Result<QueryOutput> {
        self.provider.execute(self.expr.clone(), self.strategy)
    }

    /// The statement text (C#-flavoured), for diagnostics.
    pub fn statement(&self) -> String {
        self.expr.to_string()
    }
}

/// A query queued on the worker pool by [`Provider::submit`] and its
/// prepared/owned counterparts — the one unary result type, which can be
/// joined, polled and cancelled.
///
/// The result is exactly what [`Provider::execute`] would have returned for
/// the same statement and strategy: `Ok(QueryOutput)` bit-identical to the
/// sequential engines, or the error — including [`QueryError::Cancelled`]
/// after [`QueryHandle::cancel`], [`QueryError::DeadlineExceeded`] when the
/// submission's deadline lapses, and [`QueryError::Overloaded`] when the
/// admission gate shed it. Three ways to observe it share one completion
/// latch, so they can be mixed on the same handle:
///
/// * **Join** — [`QueryHandle::join`] blocks until the query finished.
/// * **Try** — [`QueryHandle::try_join`] returns the result if it is ready
///   and hands the handle back otherwise. Never blocks.
/// * **Poll** — the handle is an [`Unpin`], executor-agnostic [`Future`]:
///   drive it from any executor, or from a ~15-line `block_on` (below).
///   Polling it, or joining it, after it returned [`Poll::Ready`] panics
///   (the result is moved out), like most one-shot futures.
///
/// # Waker lifecycle
///
/// Each `poll` stores the caller's [`std::task::Waker`] in the completion
/// latch (replacing a stale one, so re-registration across polls and
/// executor migrations is safe). The pool task wakes it **exactly once**,
/// when the query completes — normally, with an error, cancelled, or past
/// its deadline. The task releases its admission slot *before* it
/// completes the latch, so a waker that re-submits at once is admitted
/// into the slot its own finished query freed. Cancelled queries complete
/// within ~4096 rows (the intra-morsel checkpoint cadence): remaining
/// morsels retire unrun and the retirement itself fires the latch, so the
/// waker is not left waiting on work that will never run. Dropping the
/// handle unregisters its waker.
///
/// # Drop semantics
///
/// A *borrowed* handle (from a [`Provider`] or [`PreparedQuery`]) borrows
/// the provider for as long as it lives, which is what lets the queued task
/// safely reference the provider and its bound collections from a pool
/// worker: dropping it without joining blocks until the query finished (the
/// result is then discarded), mirroring `std::thread::scope`'s completion
/// guarantee. Even a handle leaked with `mem::forget` cannot outrun the
/// provider: the provider's own `Drop` waits for every submitted query
/// before returning.
///
/// An *owned* handle (from an [`OwnedProvider`] or [`OwnedPreparedQuery`])
/// is `'static` and its drop does not block: the in-flight task holds its
/// own provider clone, finishes in the background, and releases everything
/// it holds.
///
/// # Examples
///
/// A handle driven without any async runtime — a ~15-line `block_on` built
/// on [`std::task::Wake`] and thread parking (the same mini-executor
/// `examples/async_server.rs` uses to multiplex many of these on one
/// thread):
///
/// ```
/// # use mrq_common::{DataType, Field, Schema, Value};
/// # use mrq_core::{Provider, QueryOptions, Strategy};
/// # use mrq_engine_native::RowStore;
/// # use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
/// # use std::future::Future;
/// # use std::pin::pin;
/// # use std::sync::Arc;
/// # use std::task::{Context, Poll, Wake, Waker};
/// # struct Unpark(std::thread::Thread);
/// # impl Wake for Unpark {
/// #     fn wake(self: Arc<Self>) {
/// #         self.0.unpark();
/// #     }
/// # }
/// fn block_on<F: Future>(future: F) -> F::Output {
///     let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
///     let mut context = Context::from_waker(&waker);
///     let mut future = pin!(future);
///     loop {
///         match future.as_mut().poll(&mut context) {
///             Poll::Ready(output) => return output,
///             Poll::Pending => std::thread::park(),
///         }
///     }
/// }
///
/// # let schema = Schema::new("N", vec![Field::new("n", DataType::Int64)]);
/// # let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int64(i)]).collect();
/// # let store = RowStore::from_rows(schema, &rows);
/// # let mut provider = Provider::new();
/// # provider.bind_native(SourceId(0), &store);
/// # let stmt = Query::from_source(SourceId(0))
/// #     .where_(lam("x", Expr::binary(BinaryOp::Lt, col("x", "n"), lit(10i64))))
/// #     .select(lam("x", col("x", "n")))
/// #     .into_expr();
/// let handle = provider.submit(stmt, Strategy::CompiledNative, QueryOptions::new());
/// let out = block_on(handle)?;
/// assert_eq!(out.rows.len(), 10);
/// # Ok::<(), mrq_core::QueryError>(())
/// ```
///
/// Handles from a prepared plan: the statement compiles once
/// ([`Provider::prepare`]), then each `submit` binds fresh parameter values
/// — here the filter cutoff — and skips straight to execution. Every option
/// (deadline, QoS class, cancellation) works identically to an ad-hoc
/// submission:
///
/// ```
/// # use mrq_common::{DataType, Field, Schema, Value};
/// # use mrq_core::{Provider, QueryOptions, Strategy};
/// # use mrq_engine_native::RowStore;
/// # use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
/// # let schema = Schema::new("N", vec![Field::new("n", DataType::Int64)]);
/// # let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int64(i)]).collect();
/// # let store = RowStore::from_rows(schema, &rows);
/// # let mut provider = Provider::new();
/// # provider.bind_native(SourceId(0), &store);
/// # let stmt = Query::from_source(SourceId(0))
/// #     .where_(lam("x", Expr::binary(BinaryOp::Lt, col("x", "n"), lit(10i64))))
/// #     .select(lam("x", col("x", "n")))
/// #     .into_expr();
/// let prepared = provider.prepare(stmt, Strategy::CompiledNative)?;
/// for cutoff in [10i64, 25, 50] {
///     let handle = prepared.submit(&[Value::Int64(cutoff)], QueryOptions::new());
///     assert_eq!(handle.join()?.rows.len(), cutoff as usize);
/// }
/// assert_eq!(provider.plan_cache_stats().entries, 1);
/// # Ok::<(), mrq_core::QueryError>(())
/// ```
pub struct QueryHandle<'p> {
    state: Arc<QueryState>,
    token: Arc<CancelToken>,
    /// `Some` for handles from an `OwnedProvider`: the task keeps its own
    /// provider clone alive, so dropping the handle is non-blocking; this
    /// clone only marks the handle as owned. `None` for borrowed handles,
    /// whose drop must wait for the query.
    owner: Option<Arc<Provider<'static>>>,
    _provider: PhantomData<&'p ()>,
}

impl<'p> QueryHandle<'p> {
    fn new((state, token, _): Submission, owner: Option<Arc<Provider<'static>>>) -> Self {
        QueryHandle {
            state,
            token,
            owner,
            _provider: PhantomData,
        }
    }

    /// True once the query finished (successfully or not). Non-blocking.
    pub fn is_finished(&self) -> bool {
        self.state.is_finished()
    }

    /// Requests cooperative cancellation: flips the query's token, which is
    /// observed between morsels (and at the engines' phase boundaries) —
    /// a claimed morsel always finishes, so cancellation latency is bounded
    /// by one morsel's worth of work, never by the length of the query.
    /// Idempotent and non-blocking; if the query already completed, the
    /// completed result stands.
    ///
    /// # Examples
    ///
    /// ```
    /// use mrq_common::{DataType, Field, Schema, Value};
    /// use mrq_core::{Provider, QueryError, QueryOptions, Strategy};
    /// use mrq_engine_native::RowStore;
    /// use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
    ///
    /// let schema = Schema::new("N", vec![Field::new("n", DataType::Int64)]);
    /// let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int64(i)]).collect();
    /// let store = RowStore::from_rows(schema, &rows);
    /// let mut provider = Provider::new();
    /// provider.bind_native(SourceId(0), &store);
    /// let stmt = Query::from_source(SourceId(0))
    ///     .where_(lam("x", Expr::binary(BinaryOp::Lt, col("x", "n"), lit(10i64))))
    ///     .select(lam("x", col("x", "n")))
    ///     .into_expr();
    ///
    /// let handle = provider.submit(stmt, Strategy::CompiledNative, QueryOptions::default());
    /// handle.cancel(); // cooperative: takes effect at the next boundary
    /// match handle.join() {
    ///     // The query won the race and completed before the cancel landed.
    ///     Ok(out) => assert_eq!(out.rows.len(), 10),
    ///     // The cancel landed first: morsels were abandoned.
    ///     Err(QueryError::Cancelled) => {}
    ///     Err(other) => panic!("unexpected error: {other}"),
    /// }
    /// ```
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Blocks until the query finished and returns its result.
    pub fn join(self) -> Result<QueryOutput> {
        let result = self.state.wait_take();
        // `self` is dropped here; its drop-wait returns immediately because
        // the completion latch already fired.
        result
    }

    /// Polls for completion: returns the result if the query finished, or
    /// hands the handle back to try again later. Never blocks.
    #[allow(clippy::result_large_err)]
    pub fn try_join(self) -> std::result::Result<Result<QueryOutput>, QueryHandle<'p>> {
        if self.is_finished() {
            Ok(self.join())
        } else {
            Err(self)
        }
    }
}

impl Future for QueryHandle<'_> {
    type Output = Result<QueryOutput>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.state.poll_take(cx.waker())
    }
}

impl Drop for QueryHandle<'_> {
    /// Unregisters the waker; a borrowed handle then waits for the query,
    /// so abandoning it can never leave a pool task referencing a dead
    /// provider, while an owned handle returns at once — its task keeps
    /// its own provider clone alive.
    fn drop(&mut self) {
        self.state.clear_waker();
        if self.owner.is_none() {
            self.state.wait_finished();
        }
    }
}

/// `Provider` must stay shareable across client threads (the concurrent
/// serving front end depends on it); this fails to compile if a field ever
/// loses `Sync`.
#[allow(dead_code)]
fn _assert_provider_is_sync() {
    fn is_sync<T: Sync>() {}
    is_sync::<Provider<'static>>();
    fn is_send<T: Send>() {}
    is_send::<QueryHandle<'static>>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrq_common::{DataType, Decimal, Field};
    use mrq_expr::{col, lam, lit, BinaryOp, Query};
    use mrq_mheap::ClassDesc;

    fn schema() -> Schema {
        Schema::new(
            "Sale",
            vec![
                Field::new("id", DataType::Int64),
                Field::new("city", DataType::Str),
                Field::new("price", DataType::Decimal),
            ],
        )
    }

    fn heap_with_data() -> (Heap, ListId) {
        let mut heap = Heap::new();
        let class = heap.register_class(ClassDesc::from_schema(&schema()));
        let list = heap.new_list("sales", Some(class));
        for i in 0..50i64 {
            let obj = heap.alloc(class);
            heap.set_i64(obj, 0, i);
            heap.set_str(obj, 1, if i % 2 == 0 { "London" } else { "Paris" });
            heap.set_decimal(obj, 2, Decimal::from_int(i));
            heap.list_push(list, obj);
        }
        (heap, list)
    }

    fn statement(city: &str) -> Expr {
        Query::from_source(SourceId(0))
            .where_(lam(
                "s",
                Expr::binary(BinaryOp::Eq, col("s", "city"), lit(city)),
            ))
            .select(lam("s", col("s", "price")))
            .into_expr()
    }

    #[test]
    fn all_managed_strategies_return_identical_results() {
        let (heap, list) = heap_with_data();
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        let linq = provider
            .execute(statement("London"), Strategy::LinqToObjects)
            .unwrap();
        let csharp = provider
            .execute(statement("London"), Strategy::CompiledCSharp)
            .unwrap();
        let hybrid = provider
            .execute(
                statement("London"),
                Strategy::Hybrid(HybridConfig::default()),
            )
            .unwrap();
        assert_eq!(linq, csharp);
        assert_eq!(linq, hybrid);
        assert_eq!(linq.rows.len(), 25);
    }

    #[test]
    fn native_strategy_requires_native_bindings() {
        let (heap, list) = heap_with_data();
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        let err = provider
            .execute(statement("London"), Strategy::CompiledNative)
            .unwrap_err();
        assert!(matches!(err, MrqError::Unsupported(_)));
    }

    #[test]
    fn native_strategy_over_a_row_store() {
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| {
                vec![
                    Value::Int64(i),
                    Value::str(if i % 2 == 0 { "London" } else { "Paris" }),
                    Value::Decimal(Decimal::from_int(i)),
                ]
            })
            .collect();
        let store = RowStore::from_rows(schema(), &rows);
        let mut provider = Provider::new();
        provider.bind_native(SourceId(0), &store);
        let out = provider
            .execute(statement("Paris"), Strategy::CompiledNative)
            .unwrap();
        assert_eq!(out.rows.len(), 5);
    }

    #[test]
    fn query_cache_reuses_compiled_patterns_across_parameters() {
        let (heap, list) = heap_with_data();
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        provider
            .execute(statement("London"), Strategy::CompiledCSharp)
            .unwrap();
        provider
            .execute(statement("Paris"), Strategy::CompiledCSharp)
            .unwrap();
        let stats = provider.plan_cache_stats();
        assert_eq!(stats.misses, 1, "one compilation for the pattern");
        assert!(stats.hits >= 1, "second instance must hit the cache");
    }

    #[test]
    fn result_recycling_serves_repeated_statements_from_the_cache() {
        let (heap, list) = heap_with_data();
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        provider.set_result_recycling(true);
        let first = provider
            .execute(statement("London"), Strategy::CompiledCSharp)
            .unwrap();
        let second = provider
            .execute(statement("London"), Strategy::CompiledCSharp)
            .unwrap();
        assert_eq!(first, second);
        let stats = provider.stats();
        assert_eq!(stats.recycling.hits, 1);
        assert_eq!(stats.recycling.misses, 1);
        // A different parameter is a different result identity.
        provider
            .execute(statement("Paris"), Strategy::CompiledCSharp)
            .unwrap();
        assert_eq!(provider.stats().recycling.misses, 2);
        // Invalidation drops every recycled result.
        provider.invalidate_results();
        provider
            .execute(statement("London"), Strategy::CompiledCSharp)
            .unwrap();
        assert_eq!(provider.stats().recycling.misses, 3);
    }

    #[test]
    fn recycling_is_invalidated_when_the_collection_grows() {
        let (mut heap, list) = heap_with_data();
        let class = heap.class_by_name("Sale").unwrap();
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        provider.set_result_recycling(true);
        let before = provider
            .execute(statement("London"), Strategy::CompiledCSharp)
            .unwrap();
        assert_eq!(before.rows.len(), 25);
        drop(provider);
        // Append one more qualifying object; the fingerprint changes, so the
        // stale result is not reused.
        let obj = heap.alloc(class);
        heap.set_i64(obj, 0, 100);
        heap.set_str(obj, 1, "London");
        heap.set_decimal(obj, 2, Decimal::from_int(100));
        heap.list_push(list, obj);
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        provider.set_result_recycling(true);
        let after = provider
            .execute(statement("London"), Strategy::CompiledCSharp)
            .unwrap();
        assert_eq!(after.rows.len(), 26);
    }

    #[test]
    fn optimizer_pushes_filters_and_reports_rewrites() {
        let (heap, list) = heap_with_data();
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        // A filter written after a projection: the optimizer pushes it onto
        // the source, LINQ-to-objects would evaluate it after projecting.
        let naive = Query::from_source(SourceId(0))
            .select(lam(
                "s",
                Expr::Constructor {
                    name: "P".into(),
                    fields: vec![
                        ("city".into(), col("s", "city")),
                        ("price".into(), col("s", "price")),
                    ],
                },
            ))
            .where_(lam(
                "p",
                Expr::binary(BinaryOp::Eq, col("p", "city"), lit("London")),
            ))
            .into_expr();
        let rewrites = provider.explain_rewrites(naive.clone()).unwrap();
        assert!(!rewrites.is_empty());
        let optimized_out = provider
            .execute(naive.clone(), Strategy::CompiledCSharp)
            .unwrap();

        // The same statement with the filter already written before the
        // projection must give identical results.
        let hand_pushed = Query::from_source(SourceId(0))
            .where_(lam(
                "s",
                Expr::binary(BinaryOp::Eq, col("s", "city"), lit("London")),
            ))
            .select(lam(
                "s",
                Expr::Constructor {
                    name: "P".into(),
                    fields: vec![
                        ("city".into(), col("s", "city")),
                        ("price".into(), col("s", "price")),
                    ],
                },
            ))
            .into_expr();
        let reference = provider
            .execute(hand_pushed, Strategy::CompiledCSharp)
            .unwrap();
        assert_eq!(optimized_out.rows, reference.rows);
        assert_eq!(optimized_out.rows.len(), 25);

        // Without the rewrite, the filter-after-projection shape is outside
        // the compiled subset — the push-down is what makes it compilable,
        // exactly the "programmer must understand query processing" point of
        // §2.3.
        let mut plain = Provider::over_heap(&heap);
        plain.bind_managed(SourceId(0), list, schema());
        plain.set_optimizer(OptimizerConfig::disabled());
        let err = plain.execute(naive, Strategy::CompiledCSharp).unwrap_err();
        assert!(matches!(err, MrqError::Unsupported(_)));
    }

    #[test]
    fn parallel_native_strategy_matches_sequential_native() {
        let rows: Vec<Vec<Value>> = (0..10_000)
            .map(|i| {
                vec![
                    Value::Int64(i),
                    Value::str(if i % 2 == 0 { "London" } else { "Paris" }),
                    Value::Decimal(Decimal::from_int(i % 100)),
                ]
            })
            .collect();
        let store = RowStore::from_rows(schema(), &rows);
        let mut provider = Provider::new();
        provider.bind_native(SourceId(0), &store);
        let sequential = provider
            .execute(statement("London"), Strategy::CompiledNative)
            .unwrap();
        let parallel = provider
            .execute(
                statement("London"),
                Strategy::CompiledNativeParallel(ParallelConfig {
                    threads: 4,
                    min_rows_per_thread: 256,
                    ..ParallelConfig::default()
                }),
            )
            .unwrap();
        assert_eq!(sequential, parallel);
        assert_eq!(parallel.rows.len(), 5_000);
    }

    #[test]
    fn provider_parallelism_applies_to_every_compiled_strategy() {
        let (heap, list) = heap_with_data();
        let mut sequential = Provider::over_heap(&heap);
        sequential.bind_managed(SourceId(0), list, schema());
        let mut parallel = Provider::over_heap(&heap);
        parallel.bind_managed(SourceId(0), list, schema());
        parallel.set_parallelism(ParallelConfig {
            threads: 4,
            min_rows_per_thread: 8,
            ..ParallelConfig::default()
        });
        assert_eq!(parallel.parallelism().threads, 4);
        for strategy in [
            Strategy::LinqToObjects,
            Strategy::CompiledCSharp,
            Strategy::Hybrid(HybridConfig::default()),
            Strategy::Hybrid(HybridConfig::buffered()),
        ] {
            let reference = sequential.execute(statement("London"), strategy).unwrap();
            let out = parallel.execute(statement("London"), strategy).unwrap();
            assert_eq!(out, reference, "{strategy:?}");
        }
        // A strategy-level parallel setting overrides the provider's.
        let strategy = Strategy::Hybrid(HybridConfig::default().with_threads(2));
        let reference = sequential
            .execute(
                statement("London"),
                Strategy::Hybrid(HybridConfig::default()),
            )
            .unwrap();
        assert_eq!(
            parallel.execute(statement("London"), strategy).unwrap(),
            reference
        );
    }

    #[test]
    fn submitted_queries_join_with_execute_identical_results() {
        let (heap, list) = heap_with_data();
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        let reference = provider
            .execute(statement("London"), Strategy::CompiledCSharp)
            .unwrap();
        let handle = provider.submit(
            statement("London"),
            Strategy::CompiledCSharp,
            QueryOptions::default(),
        );
        assert_eq!(handle.join().unwrap(), reference);
        // Polling: try_join either completes or hands the handle back.
        let mut pending = provider.submit(
            statement("Paris"),
            Strategy::CompiledCSharp,
            QueryOptions::default(),
        );
        let out = loop {
            match pending.try_join() {
                Ok(result) => break result.unwrap(),
                Err(handle) => {
                    pending = handle;
                    std::thread::yield_now();
                }
            }
        };
        assert_eq!(out.rows.len(), 25);
    }

    #[test]
    fn submitted_query_errors_surface_on_join() {
        let (heap, list) = heap_with_data();
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        // Native strategy over a managed binding is an error; it must travel
        // through the pool to the joining client, not panic a worker.
        let handle = provider.submit(
            statement("London"),
            Strategy::CompiledNative,
            QueryOptions::default(),
        );
        assert!(matches!(
            handle.join().unwrap_err(),
            MrqError::Unsupported(_)
        ));
    }

    #[test]
    fn expired_deadlines_resolve_before_compilation() {
        let (heap, list) = heap_with_data();
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        let options = QueryOptions::new().with_deadline(Duration::ZERO);
        let handle = provider.submit(statement("London"), Strategy::CompiledCSharp, options);
        assert!(matches!(handle.join(), Err(MrqError::DeadlineExceeded)));
        // The expired query was resolved at dispatch: it never reached the
        // compiler, let alone a morsel.
        let stats = provider.plan_cache_stats();
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn batch_class_queries_with_generous_deadlines_complete_normally() {
        let (heap, list) = heap_with_data();
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        let reference = provider
            .execute(statement("London"), Strategy::CompiledCSharp)
            .unwrap();
        let options = QueryOptions::batch().with_deadline(Duration::from_secs(600));
        assert_eq!(options.class, QosClass::Batch);
        let handle = provider.submit(statement("London"), Strategy::CompiledCSharp, options);
        assert_eq!(handle.join().unwrap(), reference);
    }

    #[test]
    fn cancelling_a_finished_query_keeps_its_result() {
        let (heap, list) = heap_with_data();
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        let handle = provider.submit(
            statement("Paris"),
            Strategy::CompiledCSharp,
            QueryOptions::default(),
        );
        // Wait for completion, then cancel: the completed result stands.
        while !handle.is_finished() {
            std::thread::yield_now();
        }
        handle.cancel();
        assert_eq!(handle.join().unwrap().rows.len(), 25);
    }

    #[test]
    fn provider_drop_waits_for_leaked_handles() {
        let (heap, list) = heap_with_data();
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        // Leak the handle: its drop-wait never runs, so the only thing
        // keeping the pool task from outliving the provider is the
        // provider's own in-flight wait on drop.
        std::mem::forget(provider.submit(
            statement("London"),
            Strategy::CompiledCSharp,
            QueryOptions::default(),
        ));
        drop(provider); // must block until the leaked query finished
    }

    #[test]
    fn dropped_handles_complete_before_the_provider_unbinds() {
        let (heap, list) = heap_with_data();
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        for _ in 0..4 {
            // Dropping without joining blocks until done; the provider (and
            // heap) must outlive the in-flight query, which this exercises
            // under miri-visible rules by dropping immediately.
            drop(provider.submit(
                statement("London"),
                Strategy::CompiledCSharp,
                QueryOptions::default(),
            ));
        }
        let stats = provider.plan_cache_stats();
        assert_eq!(stats.misses, 1, "pattern compiled once, then cached");
    }

    #[test]
    fn a_shared_provider_serves_concurrent_clients() {
        let (heap, list) = heap_with_data();
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        provider.set_parallelism(ParallelConfig {
            threads: 2,
            min_rows_per_thread: 8,
            ..ParallelConfig::default()
        });
        let reference = provider
            .execute(statement("London"), Strategy::CompiledCSharp)
            .unwrap();
        let provider = &provider;
        let reference = &reference;
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(move || {
                    for _ in 0..4 {
                        let out = provider
                            .execute(statement("London"), Strategy::CompiledCSharp)
                            .unwrap();
                        assert_eq!(&out, reference);
                    }
                });
            }
        });
    }

    #[test]
    fn deferred_queries_execute_on_consumption_and_explain_emits_source() {
        let (heap, list) = heap_with_data();
        let mut provider = Provider::over_heap(&heap);
        provider.bind_managed(SourceId(0), list, schema());
        let q = provider.query(statement("London"), Strategy::CompiledCSharp);
        assert!(q.statement().contains("Where"));
        let rows = q.to_rows().unwrap();
        assert_eq!(rows.len(), 25);

        let cs = provider
            .explain(statement("London"), Backend::CSharp)
            .unwrap();
        assert!(cs.contains("foreach"));
        let c = provider.explain(statement("London"), Backend::C).unwrap();
        assert!(c.contains("EvaluateQuery"));
        let (generation, compile) = provider
            .compile_cost(statement("London"), Backend::C)
            .unwrap();
        assert!(compile > generation);
    }
}
