//! The persistent worker pool behind every parallel code path.
//!
//! Earlier revisions spawned scoped threads per query: each parallel scan,
//! join build or staging pass paid a `thread::spawn`/`join` round trip, and
//! nothing survived from one query to the next. This module replaces that
//! with a process-wide pool of long-lived workers that all queries share —
//! the prerequisite for serving many concurrent clients from one provider
//! (and, later, for NUMA pinning: workers now exist long enough to pin).
//!
//! # Architecture
//!
//! A [`WorkerPool`] owns a set of OS threads and one ticket queue per
//! [`QosClass`], scheduled by weighted deficit round-robin
//! ([`crate::qos::ClassQueues`]). A ticket is either
//!
//! * a **morsel ticket** — permission to run *one* morsel of a blocking
//!   [`WorkerPool::run_morsels`] call (the unit every engine's scan, build
//!   and staging loop decomposes into), or
//! * a **task ticket** — a detached one-shot job, used by
//!   `Provider::submit` to run a whole query on the pool.
//!
//! ## Fairness
//!
//! Across classes, grants follow the weighted deficit round-robin of
//! [`crate::qos`]: with the default 8:2:1 weights, Interactive tickets
//! receive four grants for every Batch grant (and eight for every
//! Maintenance grant) whenever the classes are backlogged, and a newly
//! arrived Interactive ticket waits for at most the lower classes'
//! remaining credit (three grants) before dispatching. Weights are
//! runtime-tunable via [`WorkerPool::set_weights`]. Within a
//! class, workers always pop the *front* ticket and, after finishing a
//! morsel, requeue its job's ticket at the *back* of its class. Scheduling
//! therefore round-robins between every job of a class at morsel
//! granularity: a long scan holds at most as many workers as it has live
//! tickets, and a short probe that arrives later gets its first worker
//! after at most one morsel's worth of delay per worker — a long scan
//! cannot starve short probes.
//!
//! ## Cancellation
//!
//! A job may carry a [`QueryContext`]: its class queues the tickets, and
//! every morsel claim checks its token. Once the token trips — explicit
//! cancel or a lapsed deadline — remaining morsels are claimed and retired
//! *without running*, so workers abandon the job within one in-progress
//! morsel and the queue drains at memory speed. The blocking submitter
//! still waits for the completion latch (claimed morsels finish; skipped
//! ones just decrement it), which keeps the lifetime-erasure safety
//! argument unchanged.
//!
//! Cancellation also reaches *inside* a claimed morsel: a job's runner
//! executes under its query context ([`crate::context::scope`]) on every
//! thread that claims a morsel, so the intra-morsel checkpoints the fused
//! loops plant every few thousand rows can trip mid-morsel. (The pool
//! removes the context's stream sink first, so a morsel cannot publish
//! rows behind the in-order gather's back.) The resulting unwind carries a
//! [`CancelReason`] payload and is treated as retirement, not as a panic: the morsel's latch count still decrements,
//! so the moment the last in-flight morsel retires the completion latch
//! fires — which is what wakes a blocked `join` *or a registered async
//! waker* promptly after a cancel (wake-on-retire), instead of after the
//! rest of the morsel's rows.
//!
//! ## Panic isolation
//!
//! A panicking morsel must not take down the worker that ran it, the
//! sibling queries sharing the pool, or — since PR 7 — the submitting
//! caller's process either. The catch site records the *first* panic's
//! payload message on the job and flips its failed flag; from that moment
//! the job is treated exactly like a cancelled one (remaining morsels are
//! claimed and retired unrun, the queue drains at memory speed), and the
//! submitting `run_morsels` frame re-raises the unwind with the **original
//! payload string** once the latch fires. The serving layer catches that
//! unwind at the query boundary and surfaces it as a per-query
//! `MrqError::Internal(payload)` through the query's `QueryHandle`,
//! joined or polled — one query fails, its neighbours and the pool itself
//! stay serviceable.
//!
//! ## Concurrency capping
//!
//! A `run_morsels` job with a degree-of-parallelism budget of `max_workers`
//! announces `max_workers - 1` tickets (the calling thread is the remaining
//! worker: it claims morsels from the same cursor while it waits). Because a
//! ticket is requeued only after its morsel completes, at most
//! `max_workers - 1` pool workers ever run the job simultaneously — a
//! query's [`ParallelConfig::threads`](crate::ParallelConfig::threads) stays
//! an upper bound even when the pool is larger.
//!
//! ## Deadlock freedom
//!
//! The caller of `run_morsels` participates until the morsel cursor is
//! exhausted, so every job completes even if no pool worker ever picks it
//! up. Queries submitted as task tickets run `run_morsels` *on* a worker;
//! the same self-draining argument applies, so nesting jobs inside tasks
//! cannot deadlock regardless of pool size.
//!
//! ## Streaming backpressure
//!
//! A streamed query's morsel runner ([`crate::morsel::run_ordered`]) may
//! *block inside a morsel* while publishing rows to a full bounded channel
//! ([`crate::stream`]). From the pool's perspective that is just a long
//! morsel: the worker is held, the job's ticket is not requeued until the
//! morsel ends, and sibling jobs keep dispatching on the remaining workers
//! under the usual WDRR fairness — a lagging consumer slows its own query,
//! not the pool. The wait itself re-checks the query's cancel token on
//! a short tick, so cancellation and deadlines still cut through.
//!
//! ## Lifecycle
//!
//! [`WorkerPool::global`] lazily initialises the shared process-wide pool;
//! it grows on demand (up to a small multiple of the host's CPU count) and
//! lives for the process. Dedicated pools from [`WorkerPool::new`] shut down
//! gracefully on drop: accepted tickets are drained, then workers exit and
//! are joined — nothing accepted is abandoned.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

use crate::cancel::CancelReason;
use crate::context::{self, QueryContext};
use crate::qos::{ClassQueues, QosClass, QosWeights};

/// A lifetime-erased borrow of the caller's morsel runner.
///
/// `run_morsels` erases the closure's lifetime so pool workers (which are
/// `'static`) can call it; the submitting call blocks until every claimed
/// morsel has finished and no unclaimed morsel remains, so the borrow never
/// outlives the frame that owns the closure (the hand-rolled equivalent of
/// `std::thread::scope`'s guarantee).
type Runner = &'static (dyn Fn(usize) + Sync);

/// One blocking fan-out: `total` morsels handed out by an atomic cursor.
struct MorselJob {
    runner: Runner,
    /// Number of morsels in the job; cursor values `>= total` mean drained.
    total: usize,
    /// The shared steal cursor: `fetch_add(1)` claims the next morsel.
    cursor: AtomicUsize,
    /// Morsels not yet *completed* (claimed-and-running or unclaimed).
    pending: AtomicUsize,
    /// Set when any morsel panicked; the job aborts (remaining morsels
    /// retire unrun) and the submitting call re-raises the captured
    /// payload.
    failed: AtomicBool,
    /// The first panicking morsel's payload (first panic wins; later ones
    /// are retired morsels anyway).
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// The query context every morsel runs under (its sink removed): the
    /// class the tickets are queued (and requeued) under, and the token
    /// that, once tripped, retires claimed morsels without running them.
    context: Option<QueryContext>,
    /// Completion latch the submitting thread waits on.
    done: Mutex<bool>,
    /// Notified when `pending` reaches zero.
    done_cv: Condvar,
}

impl MorselJob {
    /// Claims and runs morsels from the shared cursor until it is drained.
    /// Returns after running at least zero morsels; panics are recorded on
    /// the job rather than unwinding through the pool. Once the job's
    /// cancel token trips this degenerates into claim-and-retire, so a
    /// cancelled job drains at memory speed.
    fn drain(&self) {
        loop {
            let m = self.cursor.fetch_add(1, Ordering::Relaxed);
            if m >= self.total {
                return;
            }
            self.run_one(m);
        }
    }

    /// The class this job's tickets are queued under.
    fn class(&self) -> QosClass {
        self.context
            .as_ref()
            .map_or(QosClass::Interactive, |cx| cx.class)
    }

    /// True once the job stopped doing useful work — its token tripped
    /// (cancelled or past deadline) *or* a morsel panicked. Both retire
    /// remaining morsels unrun: after a panic the job's result is already
    /// decided, so running more morsels only burns pool capacity the
    /// sibling queries need.
    fn is_aborted(&self) -> bool {
        let context = self.context.as_ref();
        self.failed.load(Ordering::Acquire) || context.is_some_and(|cx| cx.token.is_tripped())
    }

    /// Runs a single claimed morsel and does the completion bookkeeping.
    /// A claimed morsel of a cancelled job is *retired* instead of run: the
    /// completion latch must still fire (the submitting frame waits on it),
    /// but no more work executes.
    fn run_one(&self, m: usize) {
        // `m < total`, so the submitting `run_morsels` frame is still
        // blocked in its wait loop (pending > 0 until we decrement below)
        // and the runner borrow is live.
        if !self.is_aborted() {
            let runner = self.runner;
            // The runner executes under the job's context, so the
            // intra-morsel checkpoints inside the fused loops fire on pool
            // workers too, not only on the submitting thread.
            let result = match &self.context {
                Some(job_context) => catch_unwind(AssertUnwindSafe(|| {
                    context::scope(job_context.clone(), || runner(m))
                })),
                None => catch_unwind(AssertUnwindSafe(|| runner(m))),
            };
            if let Err(payload) = result {
                // A checkpoint unwind is cancellation, not a crash: the
                // token tripped mid-morsel and the morsel retires early.
                // The latch decrement below still runs, so the submitter
                // (and, through it, any registered waker) is released as
                // soon as the last in-flight morsel retires.
                if !payload.is::<CancelReason>() {
                    let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                    drop(slot);
                    self.failed.store(true, Ordering::Release);
                }
            }
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            *self.done.lock().unwrap_or_else(|e| e.into_inner()) = true;
            self.done_cv.notify_all();
        }
    }

    /// True while unclaimed morsels remain (used to decide requeueing).
    fn has_unclaimed(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.total
    }
}

/// The last step of a detached [`Task`]: makes its result visible, e.g.
/// by completing the submitter's latch and waking it.
pub type Publish = Box<dyn FnOnce() + Send + 'static>;

/// A detached one-shot task (a submitted query): does its work on a pool
/// worker and returns the [`Publish`] step. The worker counts as spare
/// while it publishes, so a submitter that is woken by the result and
/// submits again at once does not grow the pool (see
/// [`WorkerPool::spawn_as`]).
pub type Task = Box<dyn FnOnce() -> Publish + Send + 'static>;

/// A unit of pool work in the shared FIFO.
enum Ticket {
    /// Run one morsel of the job, then requeue if morsels remain.
    Morsel(Arc<MorselJob>),
    /// Run a detached one-shot task, then publish its result.
    Task(Task),
}

/// Queue state behind the pool mutex.
struct Queue {
    /// Per-class ticket FIFOs under weighted deficit round-robin.
    tickets: ClassQueues<Ticket>,
    /// Workers spawned so far (monotonic until shutdown).
    workers: usize,
    /// Workers that will look at the queue before running anything else:
    /// parked on `work`, or publishing a finished task's result.
    spare: usize,
    /// Set by `Drop`; workers drain the queue, then exit.
    shutdown: bool,
}

/// State shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<Queue>,
    work: Condvar,
    /// Hard ceiling on worker count.
    max_workers: usize,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Reserves worker slots up to `n` (clamped to the ceiling; none after
    /// shutdown) and returns `(first, count)` for
    /// [`WorkerPool::start_workers`].
    fn reserve(&self, q: &mut Queue, n: usize) -> (usize, usize) {
        let n = n.min(self.max_workers);
        if q.shutdown || q.workers >= n {
            return (0, 0);
        }
        let first = q.workers;
        q.workers = n;
        (first, n - first)
    }

    /// The long-lived worker body: pop front ticket, run it, repeat.
    /// Tickets left in the queue at shutdown are drained before exiting, so
    /// a dropped pool never abandons accepted work.
    fn worker_loop(&self) {
        loop {
            let ticket = {
                let mut q = self.lock();
                loop {
                    if let Some(t) = q.tickets.pop_front() {
                        break t;
                    }
                    if q.shutdown {
                        return;
                    }
                    q.spare += 1;
                    q = self.work.wait(q).unwrap_or_else(|e| e.into_inner());
                    q.spare -= 1;
                }
            };
            match ticket {
                Ticket::Task(task) => {
                    // A panicking task must not take the worker down; the
                    // submitter observes the failure through its own
                    // completion channel (see `Provider::submit`).
                    let Ok(publish) = catch_unwind(AssertUnwindSafe(task)) else {
                        continue;
                    };
                    // Spare before the result is visible: the submitter it
                    // wakes may submit again at once, and that ticket can
                    // wait the few microseconds until this worker is back.
                    self.lock().spare += 1;
                    let _ = catch_unwind(AssertUnwindSafe(publish));
                    self.lock().spare -= 1;
                }
                Ticket::Morsel(job) => {
                    let m = job.cursor.fetch_add(1, Ordering::Relaxed);
                    if m >= job.total {
                        // Job drained while the ticket was queued: retire it.
                        continue;
                    }
                    job.run_one(m);
                    if job.has_unclaimed() {
                        if job.is_aborted() {
                            // Abandon the job (cancelled or failed):
                            // claim-and-retire everything left instead of
                            // requeueing, so the submitter's latch fires now
                            // rather than one queue round trip per dead
                            // morsel later.
                            job.drain();
                            continue;
                        }
                        // Requeue *after* running (this is what caps a job's
                        // concurrency at its ticket count) and at the *back*
                        // of its class (this is what makes scheduling
                        // round-robin fair within the class).
                        let mut q = self.lock();
                        q.tickets.push_back(job.class(), Ticket::Morsel(job));
                        drop(q);
                        self.work.notify_one();
                    }
                }
            }
        }
    }
}

/// A persistent pool of worker threads shared by every parallel code path.
///
/// See the [module docs](self) for the scheduling model. Most code never
/// constructs one: the morsel scheduler and the provider use
/// [`WorkerPool::global`]. Dedicated pools are for tests and embedders that
/// need deterministic shutdown.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Creates a pool with `workers` threads spawned eagerly and the
    /// default 8:2:1 Interactive:Batch:Maintenance grant weights.
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool::with_weights(workers, QosWeights::default())
    }

    /// Creates a pool with `workers` threads spawned eagerly and explicit
    /// per-class grant weights (see [`crate::qos::QosWeights`]). For
    /// embedders and tests; the global pool always uses the defaults.
    pub fn with_weights(workers: usize, weights: QosWeights) -> WorkerPool {
        let pool = WorkerPool::with_max(default_max_workers(), weights);
        pool.ensure_workers(workers);
        pool
    }

    /// Creates an empty pool with the given worker ceiling.
    fn with_max(max_workers: usize, weights: QosWeights) -> WorkerPool {
        WorkerPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue {
                    tickets: ClassQueues::new(weights),
                    workers: 0,
                    spare: 0,
                    shutdown: false,
                }),
                work: Condvar::new(),
                max_workers: max_workers.max(1),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The lazily-initialised process-wide pool every query shares. It grows
    /// on demand as parallel jobs and submitted queries arrive and lives for
    /// the process (its idle workers sleep on a condvar and cost nothing).
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::with_max(default_max_workers(), QosWeights::default()))
    }

    /// Grows the pool to at least `n` workers (clamped to the pool ceiling).
    /// Never shrinks; idle workers persist across queries by design.
    pub fn ensure_workers(&self, n: usize) {
        let slots = self.shared.reserve(&mut self.shared.lock(), n);
        self.start_workers(slots);
    }

    /// Starts the worker threads for slots reserved with
    /// [`Shared::reserve`]. Thread creation happens outside the queue lock:
    /// it is slow enough that holding the mutex across it would stall every
    /// worker pop and ticket push in the process.
    fn start_workers(&self, (first, count): (usize, usize)) {
        if count == 0 {
            return;
        }
        let mut spawned = Vec::with_capacity(count);
        for i in 0..count {
            let shared = Arc::clone(&self.shared);
            let name = format!("mrq-worker-{}", first + i + 1);
            let handle = std::thread::Builder::new()
                .name(name)
                .spawn(move || shared.worker_loop())
                .expect("spawning a pool worker");
            spawned.push(handle);
        }
        self.handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend(spawned);
    }

    /// Number of workers currently alive.
    pub fn worker_count(&self) -> usize {
        self.shared.lock().workers
    }

    /// Replaces the per-class grant weights on the live ticket queue
    /// ([`ClassQueues::set_weights`]): takes effect at the next grant, with
    /// every class's credit reset to its new weight so the new ratio
    /// applies immediately. Queued tickets are untouched. This is the
    /// runtime-reweighting knob — throttle Batch/Maintenance during a
    /// traffic spike (or open them up overnight) without draining the pool.
    pub fn set_weights(&self, weights: QosWeights) {
        self.shared.lock().tickets.set_weights(weights);
    }

    /// The current per-class grant weights.
    pub fn weights(&self) -> QosWeights {
        self.shared.lock().tickets.weights()
    }

    /// Number of tickets waiting in the queue (diagnostics/tests).
    pub fn queued(&self) -> usize {
        self.shared.lock().tickets.len()
    }

    /// Runs `run(m)` once for every `m in 0..total` using at most
    /// `max_workers` threads (pool workers plus the calling thread), and
    /// blocks until all of them finished. Morsels are claimed from a shared
    /// atomic cursor, so idle threads steal whatever remains.
    ///
    /// With a `context`, every morsel runs under it with its sink removed
    /// (see the [module docs](self)): tickets queue under its class, and
    /// every morsel claim checks its token — once the token trips,
    /// remaining morsels are retired unrun and the call returns as soon as
    /// in-progress morsels finish. The caller is responsible for noticing
    /// the trip afterwards (the morsel layer does, unwinding with the
    /// [`CancelReason`]). Without one, tickets queue under
    /// [`QosClass::Interactive`] and nothing is checked.
    ///
    /// The calling thread always participates, which makes the call complete
    /// even on an empty or saturated pool. Panics inside `run` are caught on
    /// the worker, the remaining morsels retire unrun, and the unwind is
    /// re-raised here with the original panic payload message once the
    /// fan-out's latch fires.
    pub fn run_morsels(
        &self,
        total: usize,
        max_workers: usize,
        context: Option<QueryContext>,
        run: &(dyn Fn(usize) + Sync),
    ) {
        if total == 0 {
            return;
        }
        let context = context.map(|context| QueryContext {
            sink: None,
            ..context
        });
        // SAFETY (lifetime erasure): this frame does not return until the
        // job's completion latch fires, i.e. until every morsel that could
        // call `run` has finished; see `Runner`. (Cancellation only *skips*
        // runner calls; it never lets the latch fire early.)
        let runner: Runner = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Runner>(run) };
        let job = Arc::new(MorselJob {
            runner,
            total,
            cursor: AtomicUsize::new(0),
            pending: AtomicUsize::new(total),
            failed: AtomicBool::new(false),
            panic: Mutex::new(None),
            context,
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });
        // With `max_workers <= 1` there are no tickets: the caller runs
        // every morsel itself, under the same context and checks.
        let tickets = max_workers.saturating_sub(1).min(total);
        self.ensure_workers(tickets);
        {
            let mut q = self.shared.lock();
            for _ in 0..tickets {
                q.tickets
                    .push_back(job.class(), Ticket::Morsel(Arc::clone(&job)));
            }
        }
        self.shared.work.notify_all();
        // Participate: claim morsels alongside the pool workers.
        job.drain();
        // Wait for stragglers (morsels claimed by workers, still running).
        let mut done = job.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = job.done_cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
        drop(done);
        if job.failed.load(Ordering::Acquire) {
            let payload = job
                .panic
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .unwrap_or_else(|| Box::new("a pool worker panicked while running a morsel"));
            // Re-raise the *original* payload so callers (and the serving
            // layer's query-boundary catch) see what actually went wrong,
            // not a generic pool message; an `abort_query` error arrives as
            // it was raised. `resume_unwind` skips the panic hook — the
            // original panic already printed through it at the catch site's
            // thread.
            std::panic::resume_unwind(payload);
        }
    }

    /// Queues a detached one-shot task (a submitted query) under
    /// [`QosClass::Interactive`]. See [`WorkerPool::spawn_as`].
    pub fn spawn(&self, task: Task) {
        self.spawn_as(QosClass::Interactive, task);
    }

    /// Queues a detached one-shot task (a submitted query) under the given
    /// class. The pool grows by one worker (up to its ceiling) when the
    /// queue holds more tickets than there are spare workers to take them,
    /// so concurrent clients get concurrent workers; beyond the ceiling,
    /// tasks queue and run as workers free up — Batch-class tasks behind
    /// Interactive ones per the class weights. A worker counts as spare
    /// while it publishes a finished task's result, so a client that
    /// submits again the moment its answer arrives reuses that worker
    /// instead of adding one (and, with it, another malloc arena). Panics
    /// inside the task are caught and dropped — submitters report failures
    /// through their own channel.
    pub fn spawn_as(&self, class: QosClass, task: Task) {
        let slots = {
            let mut q = self.shared.lock();
            q.tickets.push_back(class, Ticket::Task(task));
            if q.tickets.len() > q.spare {
                let n = q.workers + 1;
                self.shared.reserve(&mut q, n)
            } else {
                (0, 0)
            }
        };
        self.shared.work.notify_one();
        self.start_workers(slots);
    }
}

impl Drop for WorkerPool {
    /// Graceful shutdown: workers drain every accepted ticket, then exit,
    /// and are joined before `drop` returns — no accepted work is abandoned
    /// and no thread outlives the pool.
    fn drop(&mut self) {
        {
            let mut q = self.shared.lock();
            q.shutdown = true;
        }
        self.shared.work.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().unwrap_or_else(|e| e.into_inner()));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Ceiling for pool growth: enough headroom for concurrent clients to
/// over-subscribe a little, without letting a submission storm spawn
/// unbounded threads.
fn default_max_workers() -> usize {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cpus * 4).max(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use std::sync::mpsc;

    #[test]
    fn run_morsels_runs_every_index_exactly_once() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run_morsels(100, 4, None, &|m| {
            hits[m].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn completes_on_an_empty_pool_via_caller_participation() {
        let pool = WorkerPool::with_max(4, QosWeights::default()); // zero workers spawned
        let sum = AtomicUsize::new(0);
        pool.run_morsels(50, 8, None, &|m| {
            sum.fetch_add(m, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..50).sum::<usize>());
        assert_eq!(pool.worker_count(), 4, "grows to its ceiling on demand");
    }

    #[test]
    fn morsel_panics_propagate_to_the_submitter_with_their_payload() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_morsels(10, 3, None, &|m| {
                if m == 4 {
                    panic!("boom");
                }
            });
        }));
        // The submitter sees the *original* payload, not a generic pool
        // message.
        let payload = result.unwrap_err();
        assert_eq!(crate::error::panic_message(payload), "boom");
        // The pool survives: subsequent jobs still run.
        let hits = AtomicUsize::new(0);
        pool.run_morsels(8, 3, None, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn a_failed_job_retires_its_remaining_morsels_unrun() {
        // Drive a MorselJob directly on one thread so the schedule is
        // exact: morsel 0 runs, morsel 1 panics (caught), morsels 2 and 3
        // must retire unrun, and the completion latch must still fire.
        let hits = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&hits);
        let runner: Runner = Box::leak(Box::new(move |m: usize| {
            if m == 1 {
                panic!("shard 1 exploded");
            }
            counter.fetch_add(1, Ordering::Relaxed);
        }));
        let job = MorselJob {
            runner,
            total: 4,
            cursor: AtomicUsize::new(0),
            pending: AtomicUsize::new(4),
            failed: AtomicBool::new(false),
            panic: Mutex::new(None),
            context: None,
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        };
        job.drain();
        assert!(job.failed.load(Ordering::Acquire));
        assert_eq!(hits.load(Ordering::Relaxed), 1, "morsels 2 and 3 retired");
        assert_eq!(
            job.panic
                .lock()
                .unwrap()
                .take()
                .map(crate::error::panic_message)
                .as_deref(),
            Some("shard 1 exploded")
        );
        assert!(
            *job.done.lock().unwrap(),
            "the latch fired despite the failure"
        );
    }

    const WAIT: std::time::Duration = std::time::Duration::from_secs(10);

    /// A task that does `work` and publishes nothing.
    fn task(work: impl FnOnce() + Send + 'static) -> Task {
        Box::new(move || -> Publish {
            work();
            Box::new(|| {})
        })
    }

    /// Spawns `n` detached tasks that each report `arrived`, block until
    /// their own release message, then report `done`. Returns the release
    /// senders and the arrival and completion receivers.
    fn spawn_gated(
        pool: &WorkerPool,
        n: usize,
    ) -> (
        Vec<mpsc::Sender<()>>,
        mpsc::Receiver<usize>,
        mpsc::Receiver<usize>,
    ) {
        let (arrived_tx, arrived) = mpsc::channel();
        let (done_tx, done) = mpsc::channel();
        let releases = (0..n)
            .map(|i| {
                let (release, gate) = mpsc::channel::<()>();
                let (arrived_tx, done_tx) = (arrived_tx.clone(), done_tx.clone());
                pool.spawn(task(move || {
                    arrived_tx.send(i).unwrap();
                    gate.recv_timeout(WAIT).expect("released");
                    done_tx.send(i).unwrap();
                }));
                release
            })
            .collect();
        (releases, arrived, done)
    }

    #[test]
    fn detached_tasks_run_and_growth_follows_in_flight_count() {
        // Three tasks that block until released can only all arrive if
        // they run at once, on three workers; none finishes before the
        // last is spawned, so the pool grows to exactly three.
        let pool = WorkerPool::with_max(8, QosWeights::default());
        let (releases, arrived, done) = spawn_gated(&pool, 3);
        for _ in 0..3 {
            arrived.recv_timeout(WAIT).expect("every task runs at once");
        }
        for release in &releases {
            release.send(()).unwrap();
        }
        for _ in 0..3 {
            done.recv_timeout(WAIT).expect("every task finishes");
        }
        assert_eq!(pool.worker_count(), 3);
    }

    #[test]
    fn detached_tasks_queue_behind_the_worker_ceiling() {
        // Five tasks in flight on a pool capped at two: two run, three
        // wait in the queue, and all five finish once released.
        let pool = WorkerPool::with_max(2, QosWeights::default());
        let (releases, arrived, done) = spawn_gated(&pool, 5);
        assert_eq!(pool.worker_count(), 2);
        for release in &releases {
            release.send(()).unwrap();
        }
        let mut finished: Vec<usize> = (0..5)
            .map(|_| done.recv_timeout(WAIT).expect("every task finishes"))
            .collect();
        finished.sort_unstable();
        assert_eq!(finished, vec![0, 1, 2, 3, 4]);
        assert_eq!(arrived.try_iter().count(), 5);
        assert_eq!(pool.worker_count(), 2);
    }

    /// Submits the next link of a chain from the publish step, the way a
    /// client woken by its answer submits its next query.
    fn chain(pool: &Arc<WorkerPool>, left: usize, done: mpsc::Sender<usize>) -> Task {
        let pool = Arc::clone(pool);
        Box::new(move || -> Publish {
            Box::new(move || {
                if left == 0 {
                    let workers = pool.worker_count();
                    drop(pool);
                    done.send(workers).unwrap();
                } else {
                    pool.spawn(chain(&pool, left - 1, done));
                }
            })
        })
    }

    #[test]
    fn tasks_submitted_from_a_publish_step_reuse_the_publishing_worker() {
        // The publishing worker counts as spare, so 20 back-to-back tasks,
        // each submitted as its predecessor publishes, run on one worker.
        let pool = Arc::new(WorkerPool::with_max(8, QosWeights::default()));
        let (done_tx, done) = mpsc::channel();
        pool.spawn(chain(&pool, 20, done_tx));
        assert_eq!(done.recv_timeout(WAIT).expect("the chain finishes"), 1);
    }

    #[test]
    fn drop_drains_accepted_tickets_before_joining() {
        let done = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::new(1);
        for _ in 0..20 {
            let done = Arc::clone(&done);
            pool.spawn(task(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                done.fetch_add(1, Ordering::Relaxed);
            }));
        }
        drop(pool); // must block until all 20 accepted tasks ran
        assert_eq!(done.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn pre_cancelled_jobs_never_run_a_morsel_and_the_pool_stays_usable() {
        let pool = WorkerPool::new(2);
        let context = QueryContext::new(Arc::new(CancelToken::new()), QosClass::Batch);
        context.token.cancel();
        let hits = AtomicUsize::new(0);
        pool.run_morsels(100, 4, Some(context), &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(
            hits.load(Ordering::Relaxed),
            0,
            "every morsel retired unrun"
        );
        // The pool drains and serves the next (uncancelled) job in full.
        let ran = AtomicUsize::new(0);
        pool.run_morsels(32, 4, None, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn caller_only_path_checks_the_token_between_morsels() {
        // max_workers = 1 queues no tickets, so the caller runs alone:
        // cancelling inside morsel 0 must stop the fan-out after exactly
        // one morsel — deterministic, no other thread involved.
        let pool = WorkerPool::new(0);
        let context = QueryContext::new(Arc::new(CancelToken::new()), QosClass::Interactive);
        let hits = AtomicUsize::new(0);
        let cancel = Arc::clone(&context.token);
        pool.run_morsels(50, 1, Some(context), &|m| {
            hits.fetch_add(1, Ordering::Relaxed);
            if m == 0 {
                cancel.cancel();
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn mid_flight_cancellation_completes_the_latch() {
        // Cancel from inside the first executed morsel of a pooled fan-out:
        // the call must still return (latch fires via retirement) and later
        // jobs must run. How many morsels ran before the flag became
        // visible is timing-dependent; that it *returns* is the invariant.
        let pool = WorkerPool::new(3);
        let context = QueryContext::new(Arc::new(CancelToken::new()), QosClass::Interactive);
        let cancel = Arc::clone(&context.token);
        let hits = AtomicUsize::new(0);
        pool.run_morsels(256, 4, Some(context), &|_| {
            cancel.cancel();
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.load(Ordering::Relaxed) <= 256);
        let ran = AtomicUsize::new(0);
        pool.run_morsels(16, 4, None, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn interactive_tickets_dispatch_within_five_grants_behind_batch() {
        // The WDRR acceptance bound, on the pool's own ticket type and with
        // its default 8:2:1 weights: an Interactive ticket queued behind
        // saturating Batch and Maintenance work is granted within 5 ticket
        // grants (one grant plus the lower classes' remaining credit, 2+1),
        // at every phase of the lower-class credit cycle. Pure queue
        // arithmetic — deterministic, no threads, no sleeps.
        let noop_ticket = || Ticket::Task(task(|| {}));
        for phase in 0..8 {
            let mut queues: ClassQueues<Ticket> = ClassQueues::new(QosWeights::default());
            for _ in 0..64 {
                queues.push_back(QosClass::Batch, noop_ticket());
                queues.push_back(QosClass::Maintenance, noop_ticket());
            }
            for _ in 0..phase {
                assert!(queues.pop_front().is_some());
            }
            let marker = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&marker);
            queues.push_back(
                QosClass::Interactive,
                Ticket::Task(task(move || flag.store(true, Ordering::Relaxed))),
            );
            let mut granted_at = None;
            for grant in 1..=5 {
                if let Some(Ticket::Task(task)) = queues.pop_front() {
                    task()();
                }
                if marker.load(Ordering::Relaxed) {
                    granted_at = Some(grant);
                    break;
                }
            }
            assert!(
                granted_at.is_some_and(|g| g <= 5),
                "phase {phase}: interactive ticket not granted within 5 grants"
            );
        }
    }

    #[test]
    fn reweighting_the_ticket_queue_is_deterministic_and_immediate() {
        // Runtime QoS reweighting on the pool's own ticket type, as pure
        // queue arithmetic — no threads, no sleeps. Tag each ticket with
        // its class through a side channel so the grant order is visible.
        use std::sync::Mutex as StdMutex;
        let order: Arc<StdMutex<Vec<QosClass>>> = Arc::new(StdMutex::new(Vec::new()));
        let ticket = |class: QosClass| {
            let order = Arc::clone(&order);
            Ticket::Task(task(move || order.lock().unwrap().push(class)))
        };
        let mut queues: ClassQueues<Ticket> = ClassQueues::new(QosWeights::default());
        for _ in 0..32 {
            queues.push_back(QosClass::Interactive, ticket(QosClass::Interactive));
            queues.push_back(QosClass::Batch, ticket(QosClass::Batch));
            queues.push_back(QosClass::Maintenance, ticket(QosClass::Maintenance));
        }
        let grant = |queues: &mut ClassQueues<Ticket>| {
            if let Some(Ticket::Task(task)) = queues.pop_front() {
                task()();
            }
        };
        // One default round: 8 I, 2 B, 1 M.
        for _ in 0..11 {
            grant(&mut queues);
        }
        {
            let seen = order.lock().unwrap();
            assert_eq!(
                seen.iter().filter(|c| **c == QosClass::Interactive).count(),
                8
            );
            assert_eq!(seen.iter().filter(|c| **c == QosClass::Batch).count(), 2);
            assert_eq!(
                seen.iter().filter(|c| **c == QosClass::Maintenance).count(),
                1
            );
        }
        // Reweight to 1:1:1: the very next 6 grants alternate I, B, M twice.
        queues.set_weights(QosWeights::new(1, 1, 1));
        order.lock().unwrap().clear();
        for _ in 0..6 {
            grant(&mut queues);
        }
        assert_eq!(
            *order.lock().unwrap(),
            vec![
                QosClass::Interactive,
                QosClass::Batch,
                QosClass::Maintenance,
                QosClass::Interactive,
                QosClass::Batch,
                QosClass::Maintenance,
            ]
        );
    }

    #[test]
    fn pool_reweighting_and_maintenance_class_round_trip() {
        // API smoke for the live-pool knob: reweight, observe, run work in
        // every class including Maintenance, restore.
        let pool = WorkerPool::new(1);
        assert_eq!(pool.weights(), QosWeights::default());
        pool.set_weights(QosWeights::new(4, 2, 1));
        assert_eq!(pool.weights(), QosWeights::new(4, 2, 1));
        let ran = Arc::new(AtomicUsize::new(0));
        for class in QosClass::ALL {
            let ran = Arc::clone(&ran);
            pool.spawn_as(
                class,
                task(move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        let hits = AtomicUsize::new(0);
        // A class-only job: an unarmed token that never trips.
        let context = QueryContext::new(Arc::new(CancelToken::new()), QosClass::Maintenance);
        pool.run_morsels(16, 2, Some(context), &|_| {
            let job_context = context::current().expect("morsels run under the job's context");
            assert_eq!(job_context.class, QosClass::Maintenance);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 16);
        drop(pool); // drains the three spawned tasks before joining
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn intra_morsel_checkpoint_unwinds_retire_the_morsel_without_a_panic() {
        // A runner that trips its own token and immediately checkpoints
        // unwinds with a CancelReason *inside* the morsel. The pool must
        // treat that as retirement: the fan-out returns (latch fires), no
        // "worker panicked" is re-raised, and the job ran at most a handful
        // of morsels before the trip became visible.
        let pool = WorkerPool::new(2);
        let context = QueryContext::new(Arc::new(CancelToken::new()), QosClass::Interactive);
        let cancel_handle = Arc::clone(&context.token);
        let hits = AtomicUsize::new(0);
        pool.run_morsels(64, 3, Some(context), &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
            cancel_handle.cancel();
            // run_one installs the job's context on every thread that
            // claims a morsel, the submitting thread included, mirroring
            // how the fused loops' checkpoints behave inside a morsel.
            crate::cancel::checkpoint();
            unreachable!("the checkpoint above must unwind: the token is tripped");
        });
        let ran = hits.load(Ordering::Relaxed);
        assert!(ran >= 1, "at least the first morsel started");
        // The pool survives and serves the next job in full.
        let again = AtomicUsize::new(0);
        pool.run_morsels(8, 3, None, &|_| {
            again.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(again.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn concurrent_jobs_share_the_pool_fairly() {
        // Two jobs fan out at once from two submitter threads; both must
        // complete with every morsel run exactly once.
        let pool = Arc::new(WorkerPool::new(4));
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
                    pool.run_morsels(64, 4, None, &|m| {
                        hits[m].fetch_add(1, Ordering::Relaxed);
                    });
                    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                });
            }
        });
    }
}
