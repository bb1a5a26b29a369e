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
//! lowering (§3), lowers the tree to a fused, typed [`QuerySpec`] and
//! dispatches to the chosen engine, which runs the spec compiled to
//! closures. The C#/C source the paper's system would compile is emitted
//! only on request, by [`Provider::explain`].
//!
//! # Ownership
//!
//! Bound data is shared, never borrowed: a provider holds its heap and row
//! stores as `Arc`s ([`Provider::over_shared_heap`],
//! [`Provider::bind_native_shared`]), and submission runs on an
//! [`OwnedProvider`] — an `Arc<Provider>` ([`Provider::into_shared`]).
//! Every pool task holds its own clone of that `Arc`, so handles, streams
//! and prepared queries are `'static`, cross threads freely, and drop
//! without blocking.
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
//! queries without blocking a thread per query. See `docs/SERVING.md` for
//! the async model and `examples/async_server.rs` for a dependency-free
//! mini-executor driving it end to end.
//!
//! [`QuerySpec`]: mrq_codegen::spec::QuerySpec

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mrq_codegen::emit::{emit_source, Backend};
use mrq_codegen::exec::{QueryOutput, TableAccess};
use mrq_codegen::spec::{lower, Catalog, QuerySpec};
use mrq_common::cancel::{CancelReason, CancelToken};
use mrq_common::context::{self, QueryContext};
use mrq_common::plancache::ShardedLru;
use mrq_common::pool::{Publish, WorkerPool};
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
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use crate::future::QueryState;

mod future;
mod prepared;
pub mod recycle;
pub mod stream;

pub use prepared::PreparedQuery;
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
/// lowered [`QuerySpec`] is the same for every strategy, so one statement
/// executed or prepared under several strategies (and parallel
/// configurations) shares one [`PlanCache`] entry.
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
/// mirrors: an optional deadline, the QoS class the query's pool tickets are scheduled
/// under, and the streamed-batch size.
///
/// # Defaults (documented here, nowhere else)
///
/// [`QueryOptions::default`] (= [`QueryOptions::new`]) is:
///
/// * `deadline: None` — no wall-clock budget,
/// * `class: QosClass::Interactive` — the highest-weight serving class,
/// * `stream_batch_rows:` [`mrq_common::stream::DEFAULT_BATCH_ROWS`]
///   (4096, the cancel-checkpoint cadence). Only streamed submissions
///   consult it; [`QueryOptions::with_stream_batch_rows`] overrides it per
///   query.
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
            stream_batch_rows: mrq_common::stream::DEFAULT_BATCH_ROWS,
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

/// How a source id is bound to data.
enum Binding {
    Managed { list: ListId, schema: Schema },
    Native(Arc<RowStore>),
}

/// One unit of submitted work: an ad-hoc statement (compiled — or fetched
/// from the plan cache — on the pool worker) or an already-prepared plan with
/// its parameters resolved at submission, which the worker only executes.
enum Job {
    Statement(Expr),
    Prepared {
        shape_hash: u64,
        plan: Arc<QuerySpec>,
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
/// ([`mrq_common::plancache::ShardedLru`]) from [`PlanKey`] to the lowered
/// [`QuerySpec`], behind [`Provider::compile`] and so behind every statement
/// front end — ad-hoc, prepared, streamed, explained. Share one across
/// providers with [`Provider::set_plan_cache`].
///
/// [`QuerySpec`]: mrq_codegen::spec::QuerySpec
pub type PlanCache = ShardedLru<PlanKey, QuerySpec>;

/// Aggregated provider statistics (plan-cache counters are
/// [`Provider::plan_cache_stats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ProviderStats {
    /// Result-recycling counters (all zero unless recycling is enabled).
    pub recycling: RecycleStats,
}

/// Binds sources to data and executes query statements.
///
/// Every constructor returns a `Provider<'static>`; submission runs on the
/// `Arc`-shared [`OwnedProvider`] that [`Provider::into_shared`] seals it
/// into.
pub struct Provider<'a> {
    heap: Option<Arc<Heap>>,
    bindings: Vec<(SourceId, Binding)>,
    /// The one compile cache behind [`Provider::compile`], keyed by
    /// expression structure + source schemas. `Arc`-shared so several
    /// providers can serve one cache ([`Provider::set_plan_cache`]).
    plan_cache: Arc<PlanCache>,
    optimizer: OptimizerConfig,
    recycling: bool,
    parallel: ParallelConfig,
    results: Mutex<ResultCache>,
    epoch: std::sync::atomic::AtomicU64,
    /// The admission gate every submission path consults *before* arming,
    /// compiling, or touching any cache: over the configured limits a
    /// submission is shed with [`QueryError::Overloaded`] instead of
    /// spawned. Unbounded by default (see [`Provider::set_admission`]).
    admission: AdmissionGate,
    /// Deterministic work accounting: the stats of the most recent execution
    /// plus the running total across every execution this provider served
    /// (see [`Provider::last_work_stats`]).
    work: Mutex<WorkTally>,
    /// The provider's only lifetime, which nothing borrows: every
    /// constructor returns `Provider<'static>`, and the methods that hand
    /// the provider to a pool task require `'a: 'static`. It remains
    /// because the benchmark's `NativeData::provider` and
    /// `ManagedData::provider` (`benchmark/src/env.rs:84,134`) name the
    /// type as `Provider<'static>`.
    _lifetime: PhantomData<&'a ()>,
}

/// Last-execution + cumulative [`WorkStats`] behind the provider's lock.
#[derive(Debug, Clone, Copy, Default)]
struct WorkTally {
    last: WorkStats,
    cumulative: WorkStats,
}

/// An `Arc`-shared [`Provider`], the form submission runs on: every
/// `submit`/`submit_stream`/`prepare` takes `self: &Arc<Provider>`, and each
/// pool task holds its own clone. Built with [`Provider::into_shared`].
///
/// # Examples
///
/// A handle that outlives the scope that built the provider and is joined
/// on a different thread:
///
/// ```
/// use mrq_common::{DataType, Field, Schema, Value};
/// use mrq_core::{OwnedProvider, Provider, QueryOptions, Strategy};
/// use mrq_engine_native::RowStore;
/// use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
/// use std::sync::Arc;
///
/// let schema = Schema::new("N", vec![Field::new("n", DataType::Int64)]);
/// let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int64(i)]).collect();
/// let store = Arc::new(RowStore::from_rows(schema, &rows));
///
/// let provider: OwnedProvider = {
///     // The binding scope: nothing from it escapes except the Arcs.
///     let mut provider = Provider::new();
///     provider.bind_native_shared(SourceId(0), Arc::clone(&store));
///     provider.into_shared()
/// };
///
/// let stmt = Query::from_source(SourceId(0))
///     .where_(lam("x", Expr::binary(BinaryOp::Lt, col("x", "n"), lit(10i64))))
///     .select(lam("x", col("x", "n")))
///     .into_expr();
/// let handle = provider.submit(stmt, Strategy::CompiledNative, QueryOptions::new());
///
/// // `handle` is 'static: hand it to another thread and join it there.
/// let rows = std::thread::spawn(move || handle.join())
///     .join()
///     .expect("driver thread")?
///     .rows;
/// assert_eq!(rows.len(), 10);
/// # Ok::<(), mrq_core::QueryError>(())
/// ```
pub type OwnedProvider = Arc<Provider<'static>>;

impl<'a> Provider<'a> {
    /// Creates a provider without managed bindings (native-only use).
    pub fn new() -> Provider<'static> {
        Provider {
            heap: None,
            bindings: Vec::new(),
            plan_cache: Arc::new(PlanCache::new(PlanCacheConfig::default())),
            optimizer: OptimizerConfig::default(),
            recycling: false,
            parallel: ParallelConfig::sequential(),
            results: Mutex::new(ResultCache::new()),
            epoch: std::sync::atomic::AtomicU64::new(0),
            admission: AdmissionGate::default(),
            work: Mutex::new(WorkTally::default()),
            _lifetime: PhantomData,
        }
    }

    /// Seals a fully bound provider into an [`OwnedProvider`], the shared
    /// form that submission and serving run on. Configuration is fixed at
    /// sealing time: set parallelism, the optimizer and recycling first.
    pub fn into_shared(self) -> OwnedProvider
    where
        'a: 'static,
    {
        Arc::new(self)
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
    /// calls (and their prepared counterparts) of
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

    /// Drops every lowered plan from the plan cache (counters are
    /// preserved; plans still held by a [`PreparedQuery`] stay valid). This
    /// is the compile-every-time baseline the amortization benchmarks
    /// measure against.
    pub fn clear_compiled(&self) {
        self.plan_cache.clear();
    }

    /// Creates a provider over a shared managed heap. The provider keeps
    /// the `Arc` alive, and so does every query in flight on it.
    pub fn over_shared_heap(heap: Arc<Heap>) -> Provider<'static> {
        let mut provider = Provider::new();
        provider.heap = Some(heap);
        provider
    }

    /// Binds `source` to `binding`, replacing any earlier binding of it.
    /// A re-bind also invalidates recycled results, which may have been
    /// computed over the old data; cached plans need no invalidation, as
    /// their key holds the bound schemas.
    fn bind(&mut self, source: SourceId, binding: Binding) -> &mut Self {
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

    /// Binds a source id to a shared native row store (the array-of-structs
    /// case of §5).
    pub fn bind_native_shared(&mut self, source: SourceId, store: Arc<RowStore>) -> &mut Self {
        self.bind(source, Binding::Native(store))
    }

    fn binding(&self, source: SourceId) -> Result<&Binding> {
        self.bindings
            .iter()
            .find(|(id, _)| *id == source)
            .map(|(_, b)| b)
            .ok_or_else(|| MrqError::Codegen(format!("source {source:?} is not bound")))
    }

    fn schema_of(&self, source: SourceId) -> Option<Schema> {
        match self.binding(source).ok()? {
            Binding::Managed { schema, .. } => Some(schema.clone()),
            Binding::Native(store) => Some(store.schema().clone()),
        }
    }

    /// Compiles (or fetches from the plan cache) the lowered plan for a
    /// statement: heuristic rewrites, canonicalisation, plan-cache lookup,
    /// and on a miss lowering (which types every node). Every statement
    /// front end — [`Provider::execute`], [`Provider::prepare`], the ad-hoc
    /// `submit`/`submit_stream` paths and [`Provider::explain`] — compiles
    /// through here, so one shape compiles once whichever way it arrives.
    ///
    /// The cache key is the canonical structure plus the schemas of the
    /// bound sources ([`PlanKey`]). On a hit nothing is lowered. A miss
    /// lowers outside the shard lock, and is panic-isolated: a panic in
    /// lowering (or injected at the `plancache.insert` fault point) becomes a
    /// clean per-statement error, and the cache — whose shard locks recover
    /// from poisoning — keeps serving other shapes.
    pub fn compile(&self, expr: Expr) -> Result<(CanonicalQuery, Arc<QuerySpec>)> {
        let canonical = canonicalize(optimize(expr, self.optimizer).expr);
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
        let plan = query_boundary(|| {
            self.plan_cache.get_or_insert_with(&key, || {
                fault::point("plancache.insert")?;
                Ok::<_, MrqError>(Arc::new(lower(&canonical, &catalog)?))
            })
        })?;
        Ok((canonical, plan))
    }

    /// Returns the source the paper's system would compile for a statement
    /// under `backend` (its listings), emitted from the cached plan on each
    /// call.
    pub fn explain(&self, expr: Expr, backend: Backend) -> Result<String> {
        let (_, spec) = self.compile(expr)?;
        Ok(emit_source(&spec, backend))
    }

    /// Returns the heuristic rewrites the optimizer applies to a statement —
    /// the same pass [`Provider::compile`] runs first.
    pub fn explain_rewrites(&self, expr: Expr) -> Vec<Rewrite> {
        optimize(expr, self.optimizer).rewrites
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
    /// use std::sync::Arc;
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
    /// let mut provider = Provider::over_shared_heap(Arc::new(heap));
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
        let (canonical, spec) = self.compile(expr)?;
        self.execute_plan(canonical.shape_hash, &spec, &canonical.params, strategy)
    }

    /// The shared tail of [`Provider::execute`], the prepared-query path and
    /// submitted queries: an already-lowered plan with resolved parameters,
    /// run through result recycling when enabled.
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
        if !self.recycling || context::current().is_some_and(|cx| cx.sink.is_some()) {
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
    /// is mirrored on [`PreparedQuery`] and by the streaming
    /// ([`Provider::submit_stream`]) front end.
    ///
    /// The handle can be joined, polled as a [`Future`], or cancelled. It is
    /// `'static`: the pool task holds its own clone of the provider's `Arc`,
    /// so the handle may cross threads, and dropping it without joining
    /// abandons the result without blocking.
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
    /// use std::sync::Arc;
    /// use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
    /// use std::time::Duration;
    ///
    /// let schema = Schema::new("N", vec![Field::new("n", DataType::Int64)]);
    /// let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int64(i)]).collect();
    /// let mut provider = Provider::new();
    /// provider.bind_native_shared(SourceId(0), Arc::new(RowStore::from_rows(schema, &rows)));
    /// let provider = provider.into_shared();
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
    pub fn submit(
        self: &Arc<Self>,
        expr: Expr,
        strategy: Strategy,
        options: QueryOptions,
    ) -> QueryHandle
    where
        'a: 'static,
    {
        QueryHandle::new(self.spawn(Job::Statement(expr), strategy, options, false))
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
    /// Dropping the stream cancels the query through its [`CancelToken`]
    /// without blocking; the task unwinds at its next checkpoint.
    ///
    /// # Examples
    ///
    /// ```
    /// use mrq_common::{DataType, Field, Schema, Value};
    /// use mrq_core::{Provider, QueryOptions, Strategy};
    /// use mrq_engine_native::RowStore;
    /// use std::sync::Arc;
    /// use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
    ///
    /// let schema = Schema::new("N", vec![Field::new("n", DataType::Int64)]);
    /// let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int64(i)]).collect();
    /// let mut provider = Provider::new();
    /// provider.bind_native_shared(SourceId(0), Arc::new(RowStore::from_rows(schema, &rows)));
    /// let provider = provider.into_shared();
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
        self: &Arc<Self>,
        expr: Expr,
        strategy: Strategy,
        options: QueryOptions,
    ) -> QueryStream
    where
        'a: 'static,
    {
        QueryStream::new(self.spawn(Job::Statement(expr), strategy, options, true))
    }

    /// Builds a submission's [`QueryContext`]: arms its cancel token
    /// (deadline measured from now — queue time counts against the budget;
    /// `checked_add` saturates absurd budgets to "no deadline" instead of
    /// panicking), takes its class from `options` and, when `streamed`,
    /// opens the bounded batch channel whose sink the context carries and
    /// whose receiver is returned beside it.
    fn arm(options: &QueryOptions, streamed: bool) -> (QueryContext, Option<StreamReceiver>) {
        let deadline = options
            .deadline
            .and_then(|budget| Instant::now().checked_add(budget));
        let token = Arc::new(match deadline {
            Some(at) => CancelToken::expiring(at),
            None => CancelToken::new(),
        });
        let mut query = QueryContext::new(token, options.class);
        let receiver = streamed.then(|| {
            let (sink, receiver) =
                mrq_common::stream::channel(options.stream_batch_rows, Arc::clone(&query.token));
            query.sink = Some(sink);
            receiver
        });
        (query, receiver)
    }

    /// Runs one submitted query on the calling (pool-worker) thread under
    /// its [`QueryContext`]: the pre-dispatch token check, the context
    /// scope, and the dispatch fault point, then the compile and the
    /// execution's tail, which each catch their own unwinds. Nothing
    /// unwinds out of here — a panicking query must still complete its
    /// latch, or a joining client (or registered waker) would wait forever.
    ///
    /// When the context holds a sink, streamable shapes publish row
    /// batches through it while executing, and the returned
    /// [`QueryOutput`] holds only the unpublished residual rows.
    fn run_submitted(
        &self,
        query: &QueryContext,
        job: Job,
        strategy: Strategy,
    ) -> Result<QueryOutput> {
        if let Some(reason) = query.token.check() {
            // Cancelled or expired while queued: resolve the handle
            // without compiling or executing a single morsel.
            return Err(MrqError::from(reason));
        }
        // The scope threads the token, class and sink to every engine and
        // morsel fan-out below; a tripped checkpoint unwinds with the
        // reason to the execution's query boundary.
        context::scope(query.clone(), || {
            query_boundary(|| fault::point("pool.dispatch"))?;
            match job {
                Job::Statement(expr) => self.execute(expr, strategy),
                Job::Prepared {
                    shape_hash,
                    plan,
                    params,
                } => self.execute_plan(shape_hash, &plan, &params, strategy),
            }
        })
    }

    /// The one spawn path behind every `submit` and `submit_stream` front
    /// end; the task owns a clone of the provider's `Arc`. Returns the
    /// [`Submission`] the front end wraps in a [`QueryHandle`] or
    /// [`QueryStream`]; `streamed` decides whether the task's context
    /// carries a sink wired to a bounded batch channel.
    ///
    /// Admission runs first — before [`Provider::arm`], any compilation or
    /// any cache traffic, because shedding must stay cheap under exactly
    /// the load that makes it necessary. A shed submission queues no task:
    /// its state is already resolved to [`QueryError::Overloaded`] and, when
    /// streamed, its channel is already closed with that error.
    fn spawn(
        self: &Arc<Self>,
        job: Job,
        strategy: Strategy,
        options: QueryOptions,
        streamed: bool,
    ) -> Submission
    where
        'a: 'static,
    {
        if let Err(error) = self.admission.try_admit(options.class) {
            let token = Arc::new(CancelToken::new());
            let receiver = streamed.then(|| {
                let (sink, receiver) = mrq_common::stream::channel(1, Arc::clone(&token));
                sink.close(Some(error.clone()));
                receiver
            });
            return (QueryState::completed(Err(error)), token, receiver);
        }
        let (query, receiver) = Self::arm(&options, streamed);
        let token = Arc::clone(&query.token);
        let state = QueryState::new();
        let completion = Arc::clone(&state);
        let provider = Arc::clone(self);
        let task = Box::new(move || {
            let mut result = provider.run_submitted(&query, job, strategy);
            if let Some(sink) = &query.sink {
                result = provider.finish_stream(sink, result);
            }
            // Free the admission slot before the result becomes visible: a
            // client woken by `complete` may re-submit at once and must not
            // be shed by its own finished query.
            provider.admission.release();
            // Release the task's provider clone before the result becomes
            // visible too: once `join` or `is_finished` returns, the pool
            // holds no reference to the provider or its bound data.
            drop(provider);
            Box::new(move || completion.complete(result)) as Publish
        });
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
                    let heap = self.heap.as_deref().ok_or_else(|| {
                        MrqError::Unsupported("managed bindings need a heap-backed provider".into())
                    })?;
                    heap.list_len(*list)
                }
                Binding::Native(store) => store.len(),
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

    /// Executes an already-lowered spec with bound parameters: the tail
    /// every execution front end shares, run inside the query boundary, so
    /// no panic or abort unwinds out of it.
    pub fn execute_compiled(
        &self,
        spec: &QuerySpec,
        params: &[Value],
        strategy: Strategy,
    ) -> Result<QueryOutput> {
        let output = query_boundary(|| self.execute_compiled_inner(spec, params, strategy))?;
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
                        Binding::Native(store) => tables.push(&**store),
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
                let heap = self.heap.as_deref().ok_or_else(|| {
                    MrqError::Unsupported("managed strategies need a heap-backed provider".into())
                })?;
                // Managed strategies read managed lists only: a source bound
                // to a row store is `Unsupported` here.
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

impl Default for Provider<'static> {
    fn default() -> Self {
        Self::new()
    }
}

/// The query boundary, the one place the provider catches an unwind: a
/// tripped checkpoint becomes its lifecycle error, an
/// [`mrq_common::abort_query`] (a zero divisor) the error it carries, and
/// any other panic — an engine's, or one the pool re-raises from a morsel —
/// [`MrqError::Internal`] with the *original* payload message, so the
/// caller learns what actually broke, not just that something did.
fn query_boundary<R>(run: impl FnOnce() -> Result<R>) -> Result<R> {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        Err(match payload.downcast::<CancelReason>() {
            Ok(reason) => MrqError::from(*reason),
            Err(payload) => match payload.downcast::<MrqError>() {
                Ok(error) => *error,
                Err(payload) => MrqError::Internal(panic_message(payload)),
            },
        })
    })
}

struct ProviderCatalog<'p, 'a> {
    provider: &'p Provider<'a>,
}

impl Catalog for ProviderCatalog<'_, '_> {
    fn schema(&self, source: SourceId) -> Option<Schema> {
        self.provider.schema_of(source)
    }
}

/// A query queued on the worker pool by [`Provider::submit`] and its
/// prepared counterpart — the one unary result type, which can be joined,
/// polled and cancelled.
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
/// A handle is `'static` and its drop never blocks: the pool task holds its
/// own clone of the provider's `Arc`, finishes in the background, and
/// releases that clone before it completes the latch.
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
/// # let mut provider = Provider::new();
/// # provider.bind_native_shared(SourceId(0), Arc::new(RowStore::from_rows(schema, &rows)));
/// # let provider = provider.into_shared();
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
/// # use std::sync::Arc;
/// # use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
/// # let schema = Schema::new("N", vec![Field::new("n", DataType::Int64)]);
/// # let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int64(i)]).collect();
/// # let mut provider = Provider::new();
/// # provider.bind_native_shared(SourceId(0), Arc::new(RowStore::from_rows(schema, &rows)));
/// # let provider = provider.into_shared();
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
pub struct QueryHandle {
    state: Arc<QueryState>,
    token: Arc<CancelToken>,
}

impl QueryHandle {
    fn new((state, token, _): Submission) -> Self {
        QueryHandle { state, token }
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
    /// use std::sync::Arc;
    /// use mrq_expr::{col, lam, lit, BinaryOp, Expr, Query, SourceId};
    ///
    /// let schema = Schema::new("N", vec![Field::new("n", DataType::Int64)]);
    /// let rows: Vec<Vec<Value>> = (0..100).map(|i| vec![Value::Int64(i)]).collect();
    /// let mut provider = Provider::new();
    /// provider.bind_native_shared(SourceId(0), Arc::new(RowStore::from_rows(schema, &rows)));
    /// let provider = provider.into_shared();
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
        self.state.wait_take()
    }

    /// Polls for completion: returns the result if the query finished, or
    /// hands the handle back to try again later. Never blocks.
    #[allow(clippy::result_large_err)]
    pub fn try_join(self) -> std::result::Result<Result<QueryOutput>, QueryHandle> {
        if self.is_finished() {
            Ok(self.join())
        } else {
            Err(self)
        }
    }
}

impl Future for QueryHandle {
    type Output = Result<QueryOutput>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.state.poll_take(cx.waker())
    }
}

impl Drop for QueryHandle {
    /// Unregisters the waker. Never blocks: the task finishes on its own.
    fn drop(&mut self) {
        self.state.clear_waker();
    }
}

/// The serving layer must stay thread-mobile: a shared provider serves
/// many client threads, and the handles, streams and prepared queries it
/// mints cross threads. This fails to compile if a field regresses.
#[allow(dead_code)]
fn _assert_serving_types_are_send_sync() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<OwnedProvider>();
    send_sync::<PreparedQuery>();
    fn send_unpin<T: Send + Unpin>() {}
    send_unpin::<QueryHandle>();
    send_unpin::<QueryStream>();
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

    fn heap_with_data() -> (Arc<Heap>, ListId) {
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
        (Arc::new(heap), list)
    }

    /// A provider over [`heap_with_data`] with the list bound to source 0.
    fn managed_provider() -> Provider<'static> {
        let (heap, list) = heap_with_data();
        let mut provider = Provider::over_shared_heap(heap);
        provider.bind_managed(SourceId(0), list, schema());
        provider
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
        let provider = managed_provider();
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
        let provider = managed_provider();
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
        let mut provider = Provider::new();
        provider.bind_native_shared(SourceId(0), Arc::new(RowStore::from_rows(schema(), &rows)));
        let out = provider
            .execute(statement("Paris"), Strategy::CompiledNative)
            .unwrap();
        assert_eq!(out.rows.len(), 5);
    }

    #[test]
    fn query_cache_reuses_compiled_patterns_across_parameters() {
        let provider = managed_provider();
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
        let mut provider = managed_provider();
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
        let mut provider = Provider::over_shared_heap(Arc::clone(&heap));
        provider.bind_managed(SourceId(0), list, schema());
        provider.set_result_recycling(true);
        let before = provider
            .execute(statement("London"), Strategy::CompiledCSharp)
            .unwrap();
        assert_eq!(before.rows.len(), 25);
        drop(provider);
        // Append one more qualifying object; the fingerprint changes, so the
        // stale result is not reused.
        let heap_mut = Arc::get_mut(&mut heap).expect("the provider is gone");
        let class = heap_mut.class_by_name("Sale").unwrap();
        let obj = heap_mut.alloc(class);
        heap_mut.set_i64(obj, 0, 100);
        heap_mut.set_str(obj, 1, "London");
        heap_mut.set_decimal(obj, 2, Decimal::from_int(100));
        heap_mut.list_push(list, obj);
        let mut provider = Provider::over_shared_heap(Arc::clone(&heap));
        provider.bind_managed(SourceId(0), list, schema());
        provider.set_result_recycling(true);
        let after = provider
            .execute(statement("London"), Strategy::CompiledCSharp)
            .unwrap();
        assert_eq!(after.rows.len(), 26);
    }

    #[test]
    fn optimizer_pushes_filters_and_reports_rewrites() {
        let provider = managed_provider();
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
        let rewrites = provider.explain_rewrites(naive.clone());
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
        let mut plain = managed_provider();
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
        let mut provider = Provider::new();
        provider.bind_native_shared(SourceId(0), Arc::new(RowStore::from_rows(schema(), &rows)));
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
        let mut sequential = Provider::over_shared_heap(Arc::clone(&heap));
        sequential.bind_managed(SourceId(0), list, schema());
        let mut parallel = Provider::over_shared_heap(Arc::clone(&heap));
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
        let provider = managed_provider().into_shared();
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
        let provider = managed_provider().into_shared();
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
        let provider = managed_provider().into_shared();
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
        let provider = managed_provider().into_shared();
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
        let provider = managed_provider().into_shared();
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

    /// Spins until at most `clones` references to the provider remain: a
    /// task releases its own when its query finishes.
    fn wait_for_clones(provider: &std::sync::Weak<Provider<'static>>, clones: usize) {
        let start = Instant::now();
        while provider.strong_count() > clones {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "tasks still hold the provider"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_leaked_handle_does_not_leak_its_provider() {
        let provider = managed_provider().into_shared();
        let weak = Arc::downgrade(&provider);
        // Leak the handle and drop the caller's provider at once: the task's
        // own clone keeps the provider alive until the query completes, and
        // then releases it, so nothing outlives the query.
        std::mem::forget(provider.submit(
            statement("London"),
            Strategy::CompiledCSharp,
            QueryOptions::default(),
        ));
        drop(provider);
        wait_for_clones(&weak, 0);
    }

    #[test]
    fn dropped_handles_do_not_block_and_their_queries_finish() {
        let provider = managed_provider().into_shared();
        for _ in 0..4 {
            drop(provider.submit(
                statement("London"),
                Strategy::CompiledCSharp,
                QueryOptions::default(),
            ));
        }
        wait_for_clones(&Arc::downgrade(&provider), 1);
        let stats = provider.plan_cache_stats();
        assert_eq!(stats.misses, 1, "pattern compiled once, then cached");
        assert_eq!(stats.hits, 3);
    }

    #[test]
    fn a_shared_provider_serves_concurrent_clients() {
        let mut provider = managed_provider();
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
    fn explain_emits_both_listings_in_full() {
        let provider = managed_provider();
        let csharp = "\
// generated by the MRQ query provider (managed backend)
public static class Executor {
  public static IEnumerable<Result> Execute(IEnumerable<Source0> data_0, ...) {
  foreach (var elem_0 in data_0) {
    if (!((slot0->col1 == ctx->param_0))) continue;
    yield return new Result { value = slot0->col2 };
  }
    yield break;
  }
}
";
        let c = "\
/* generated by the MRQ query provider (native backend) */
int EvaluateQuery(Context* ctx) {
  for (i = ctx->curr_elem; i < ctx->input_sze; i++) {
    if (!((slot0->col1 == ctx->param_0))) continue;
    ctx->out_elem = (Result){ value = slot0->col2 };
    ctx->curr_elem = i + 1;
    return 1;
  }
  return 0;
}
";
        for (backend, listing) in [(Backend::CSharp, csharp), (Backend::C, c)] {
            let explained = provider.explain(statement("London"), backend).unwrap();
            assert_eq!(explained, listing, "{backend:?}");
        }
        // Emission is on demand: the plan cache holds one lowered spec.
        assert_eq!(provider.plan_cache_stats().entries, 1);
    }
}
