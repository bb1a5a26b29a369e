//! The dependency-free mini-executor behind every serving loop in the
//! workspace: [`block_on`], the batch multiplexer [`drive_all`], and the
//! dynamic [`Multiplexer`] the network server drives connections with.
//!
//! The serving futures (`QueryHandle`, `QueryStream::poll_next_batch`) are
//! executor-agnostic — each poll registers the caller's waker on the
//! query's completion latch or the stream channel's waker slot, and the
//! pool wakes it when something happens. Nothing here spawns threads or
//! takes dependencies: an executor over those primitives is a ready queue,
//! a park, and a [`Wake`] impl.
//!
//! Three shapes cover every caller:
//!
//! * [`block_on`] drives **one** future on the calling thread — poll,
//!   park, repeat.
//! * [`drive_all`] drives a **fixed batch** of futures to completion on
//!   one thread, polling only tasks whose wakers fired, and reports how
//!   many polls that took (the measure of how little work waker-driven
//!   multiplexing does). `examples/async_server.rs` multiplexes its
//!   clients through this.
//! * [`Multiplexer`] is the **open-ended** variant: tasks are injected
//!   while the driver runs (from other threads, through a cloneable
//!   [`MuxHandle`]), which is exactly the shape of a network connection —
//!   a reader thread turns request frames into in-flight queries, one
//!   driver thread polls whichever of them made progress. `mrq-protocol`'s
//!   server runs one per connection.

use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::{pin, Pin};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll, Wake, Waker};

/// Unparks the blocked thread when the future completes: the whole of
/// [`block_on`]'s reactor.
struct Unpark(std::thread::Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Drives a single future to completion on the calling thread: poll, park
/// until woken, repeat. No runtime, no queues — the minimal executor.
///
/// # Examples
///
/// ```
/// let out = mrq_common::executor::block_on(async { 2 + 2 });
/// assert_eq!(out, 4);
/// ```
pub fn block_on<F: Future>(future: F) -> F::Output {
    let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
    let mut context = Context::from_waker(&waker);
    let mut future = pin!(future);
    loop {
        match future.as_mut().poll(&mut context) {
            Poll::Ready(output) => return output,
            Poll::Pending => std::thread::park(),
        }
    }
}

/// The batch multiplexer's shared state: indices of tasks whose wakers
/// fired, plus the driver thread to unpark.
struct Reactor {
    ready: Mutex<VecDeque<usize>>,
    driver: std::thread::Thread,
}

/// One task's waker: enqueue my index, unpark the driver. Completion wakes
/// each future exactly once, so each index is enqueued at most once beyond
/// the initial seeding.
struct TaskWaker {
    index: usize,
    reactor: Arc<Reactor>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.reactor.ready.lock().unwrap().push_back(self.index);
        self.reactor.driver.unpark();
    }
}

/// Drives every future in the batch to completion on the calling thread,
/// polling only tasks whose wakers fired (after one seeding poll each).
/// Returns the outputs in submission order plus the total number of polls.
///
/// With wake-exactly-once futures (like `QueryHandle`) this settles at
/// roughly two polls per task: the seed and the completion.
///
/// # Examples
///
/// ```
/// use mrq_common::executor::drive_all;
///
/// let futures: Vec<_> = (0..4).map(|i| Box::pin(async move { i * i })).collect();
/// let (outputs, polls) = drive_all(futures);
/// assert_eq!(outputs, vec![0, 1, 4, 9]);
/// assert!(polls >= outputs.len());
/// ```
pub fn drive_all<F: Future + Unpin>(futures: Vec<F>) -> (Vec<F::Output>, usize) {
    let reactor = Arc::new(Reactor {
        ready: Mutex::new((0..futures.len()).collect()),
        driver: std::thread::current(),
    });
    let mut slots: Vec<Option<F>> = futures.into_iter().map(Some).collect();
    let mut results: Vec<Option<F::Output>> = (0..slots.len()).map(|_| None).collect();
    let wakers: Vec<Waker> = (0..slots.len())
        .map(|index| {
            Waker::from(Arc::new(TaskWaker {
                index,
                reactor: Arc::clone(&reactor),
            }))
        })
        .collect();
    let mut pending = slots.len();
    let mut polls = 0usize;
    while pending > 0 {
        let next = reactor.ready.lock().unwrap().pop_front();
        let Some(index) = next else {
            std::thread::park(); // nothing ready: wait for a completion
            continue;
        };
        let Some(future) = slots[index].as_mut() else {
            continue; // spurious wake after completion
        };
        polls += 1;
        let mut context = Context::from_waker(&wakers[index]);
        if let Poll::Ready(result) = Pin::new(future).poll(&mut context) {
            results[index] = Some(result);
            slots[index] = None;
            pending -= 1;
        }
    }
    (
        results.into_iter().map(|r| r.expect("driven")).collect(),
        polls,
    )
}

/// A poll-style task the [`Multiplexer`] drives: poll until `Ready(())`,
/// then drop. The boxed-closure shape (rather than a boxed future) keeps
/// the driver loop free of pinning ceremony and lets a task interleave
/// blocking work — writing a frame to a socket — between polls of an
/// inner future or stream.
pub type MuxTask = Box<dyn FnMut(&mut Context<'_>) -> Poll<()> + Send>;

/// What the driver should do next, decided under the state lock.
enum Step {
    /// Poll this task (taken out of the map while polled).
    Poll(u64, MuxTask),
    /// Nothing ready: park until a waker or an injection fires.
    Park,
    /// Closed and drained: the driver returns.
    Done,
}

struct MuxState {
    /// In-flight tasks by id. A task being polled is temporarily absent —
    /// its waker still enqueues the id, and the driver re-checks the map.
    tasks: HashMap<u64, MuxTask>,
    /// Ids whose wakers fired (or that were just spawned), FIFO.
    ready: VecDeque<u64>,
    next_id: u64,
    /// Set by [`MuxHandle::close`]: no further spawns; the driver exits
    /// once every remaining task completed.
    closed: bool,
    /// The driver thread, registered by [`Multiplexer::run`] so wakers and
    /// injections can unpark it.
    driver: Option<std::thread::Thread>,
}

struct MuxShared {
    state: Mutex<MuxState>,
    /// Signals [`MuxHandle::close`] callers that the driver drained.
    drained: Condvar,
}

impl MuxShared {
    fn lock(&self) -> MutexGuard<'_, MuxState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn unpark_driver(state: &MuxState) {
        if let Some(driver) = &state.driver {
            driver.unpark();
        }
    }
}

/// One task's waker: enqueue my id and unpark the driver. Stale wakes
/// (after the task completed) enqueue an id the driver no longer finds in
/// the map and skips.
struct MuxWaker {
    id: u64,
    shared: Arc<MuxShared>,
}

impl Wake for MuxWaker {
    fn wake(self: Arc<Self>) {
        let mut state = self.shared.lock();
        state.ready.push_back(self.id);
        MuxShared::unpark_driver(&state);
    }
}

/// A dynamic single-thread task multiplexer: the open-ended counterpart of
/// [`drive_all`]. One thread calls [`Multiplexer::run`] and becomes the
/// driver; any number of other threads inject tasks through cloned
/// [`MuxHandle`]s while it runs. The driver polls only tasks whose wakers
/// fired and parks otherwise, so thousands of in-flight queries cost one
/// parked thread — the serving shape `docs/SERVING.md` specifies, and the
/// per-connection engine of `mrq-protocol`'s server (reader thread injects,
/// driver thread polls and writes response frames).
///
/// # Examples
///
/// ```
/// use mrq_common::executor::Multiplexer;
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use std::sync::Arc;
/// use std::task::Poll;
///
/// let mux = Multiplexer::new();
/// let handle = mux.handle();
/// let hits = Arc::new(AtomicUsize::new(0));
/// for _ in 0..3 {
///     let hits = Arc::clone(&hits);
///     handle.spawn(Box::new(move |_cx| {
///         hits.fetch_add(1, Ordering::SeqCst);
///         Poll::Ready(())
///     }));
/// }
/// handle.close();
/// mux.run();
/// assert_eq!(hits.load(Ordering::SeqCst), 3);
/// ```
pub struct Multiplexer {
    shared: Arc<MuxShared>,
}

impl Default for Multiplexer {
    fn default() -> Self {
        Multiplexer::new()
    }
}

impl Multiplexer {
    /// A fresh multiplexer with no tasks and no driver.
    pub fn new() -> Multiplexer {
        Multiplexer {
            shared: Arc::new(MuxShared {
                state: Mutex::new(MuxState {
                    tasks: HashMap::new(),
                    ready: VecDeque::new(),
                    next_id: 0,
                    closed: false,
                    driver: None,
                }),
                drained: Condvar::new(),
            }),
        }
    }

    /// A cloneable injector for this multiplexer; hand one to every thread
    /// that creates work.
    pub fn handle(&self) -> MuxHandle {
        MuxHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the driver loop on the calling thread until the multiplexer is
    /// [closed](MuxHandle::close) *and* every task completed. Returns the
    /// total number of task polls.
    ///
    /// Tasks run (and are dropped) on this thread. A task that returns
    /// `Pending` without having registered the provided waker anywhere is
    /// never polled again until something else wakes it — the standard
    /// future contract.
    pub fn run(&self) -> usize {
        {
            let mut state = self.shared.lock();
            state.driver = Some(std::thread::current());
        }
        let mut polls = 0usize;
        loop {
            let step = {
                let mut state = self.shared.lock();
                match state.ready.pop_front() {
                    // Take the task out while polling it so the state lock
                    // is not held across user code; a concurrent wake for
                    // the id lands in `ready` and is honoured next round.
                    Some(id) => match state.tasks.remove(&id) {
                        Some(task) => Step::Poll(id, task),
                        None => continue, // stale wake after completion
                    },
                    None if state.closed && state.tasks.is_empty() => Step::Done,
                    None => Step::Park,
                }
            };
            match step {
                Step::Poll(id, mut task) => {
                    polls += 1;
                    let waker = Waker::from(Arc::new(MuxWaker {
                        id,
                        shared: Arc::clone(&self.shared),
                    }));
                    let mut context = Context::from_waker(&waker);
                    match task(&mut context) {
                        Poll::Ready(()) => drop(task),
                        Poll::Pending => {
                            let mut state = self.shared.lock();
                            state.tasks.insert(id, task);
                        }
                    }
                }
                Step::Park => std::thread::park(),
                Step::Done => break,
            }
        }
        self.shared.drained.notify_all();
        polls
    }
}

/// The injection side of a [`Multiplexer`]: spawn tasks from any thread
/// while the driver runs, then [`close`](MuxHandle::close) to let it
/// drain and return.
#[derive(Clone)]
pub struct MuxHandle {
    shared: Arc<MuxShared>,
}

impl MuxHandle {
    /// Injects a task and marks it ready for a seeding poll. Returns the
    /// task's id. Spawning after [`close`](MuxHandle::close) drops the
    /// task immediately (its queries cancel through their own drop
    /// semantics) and returns `None`.
    pub fn spawn(&self, task: MuxTask) -> Option<u64> {
        let mut state = self.shared.lock();
        if state.closed {
            return None;
        }
        let id = state.next_id;
        state.next_id += 1;
        state.tasks.insert(id, task);
        state.ready.push_back(id);
        MuxShared::unpark_driver(&state);
        Some(id)
    }

    /// Closes the multiplexer: no further spawns are accepted, and the
    /// driver returns once every in-flight task completed. Does not block;
    /// pair with [`MuxHandle::wait_drained`] or join the driver thread to
    /// synchronise.
    pub fn close(&self) {
        let mut state = self.shared.lock();
        state.closed = true;
        MuxShared::unpark_driver(&state);
    }

    /// Blocks until the driver drained after a [`close`](MuxHandle::close).
    pub fn wait_drained(&self) {
        let mut state = self.shared.lock();
        while !(state.closed && state.tasks.is_empty() && state.ready.is_empty()) {
            state = self
                .shared
                .drained
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The number of tasks currently in flight (polled or waiting).
    pub fn in_flight(&self) -> usize {
        self.shared.lock().tasks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    #[test]
    fn block_on_completes_an_async_block() {
        assert_eq!(block_on(async { 41 + 1 }), 42);
    }

    #[test]
    fn drive_all_returns_outputs_in_submission_order() {
        let futures: Vec<_> = (0..8).map(|i| Box::pin(async move { i })).collect();
        let (outputs, polls) = drive_all(futures);
        assert_eq!(outputs, (0..8).collect::<Vec<_>>());
        assert_eq!(polls, 8, "immediately-ready futures poll exactly once");
    }

    #[test]
    fn multiplexer_drives_tasks_injected_while_running() {
        let mux = Multiplexer::new();
        let handle = mux.handle();
        let done = Arc::new(AtomicUsize::new(0));
        let injector = {
            let handle = handle.clone();
            let done = Arc::clone(&done);
            thread::spawn(move || {
                for _ in 0..16 {
                    let done = Arc::clone(&done);
                    handle.spawn(Box::new(move |_cx| {
                        done.fetch_add(1, Ordering::SeqCst);
                        Poll::Ready(())
                    }));
                }
                handle.close();
            })
        };
        let polls = mux.run();
        injector.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 16);
        assert_eq!(polls, 16);
        handle.wait_drained();
        assert_eq!(handle.in_flight(), 0);
    }

    #[test]
    fn multiplexer_repolls_only_woken_tasks() {
        // A task that stays pending once, wakes itself from another thread,
        // then completes: exactly two polls.
        let mux = Multiplexer::new();
        let handle = mux.handle();
        let polled = Arc::new(AtomicUsize::new(0));
        {
            let polled = Arc::clone(&polled);
            handle.spawn(Box::new(move |cx| {
                if polled.fetch_add(1, Ordering::SeqCst) == 0 {
                    let waker = cx.waker().clone();
                    thread::spawn(move || waker.wake());
                    Poll::Pending
                } else {
                    Poll::Ready(())
                }
            }));
        }
        handle.close();
        let polls = mux.run();
        assert_eq!(polled.load(Ordering::SeqCst), 2);
        assert_eq!(polls, 2);
    }

    #[test]
    fn spawning_after_close_is_rejected() {
        let mux = Multiplexer::new();
        let handle = mux.handle();
        handle.close();
        assert!(handle.spawn(Box::new(|_cx| Poll::Ready(()))).is_none());
        mux.run();
    }
}
