//! The waker-slot + condvar completion latch behind
//! [`QueryHandle`](crate::QueryHandle) and
//! [`QueryStream`](crate::QueryStream).
//!
//! A submitted query completes exactly once, on a pool worker.
//! [`QueryState`] is a condvar latch extended with a *waker slot*: an async
//! caller's [`Waker`], registered by `QueryHandle::poll`, is stored next to
//! the condvar and woken exactly once when the task completes. Blocking
//! `join` and async `poll` therefore coexist on one latch — a handle can be
//! polled a few times from a mini-executor and then `join`ed synchronously,
//! or the other way round — and one serving thread can multiplex thousands
//! of in-flight queries without a blocked OS thread per query. See
//! `docs/SERVING.md` for the waker lifecycle in full.

use mrq_codegen::exec::QueryOutput;
use mrq_common::{Result, WakerSlot};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Poll, Waker};

/// Completion channel between a submitted query task and its handle or
/// stream: a condvar latch (blocking `join`) plus a waker slot (async
/// `poll`), completed exactly once by the pool task.
pub(crate) struct QueryState {
    slot: Mutex<QuerySlot>,
    done: Condvar,
}

struct QuerySlot {
    /// True once the task finished (stays true after the result is taken).
    finished: bool,
    /// The outcome, present from completion until the handle takes it.
    result: Option<Result<QueryOutput>>,
    /// The waker of the most recent `poll`, if any. Completion takes and
    /// wakes it exactly once; re-polling before completion replaces it
    /// (the latest poll's waker wins, per the `Future` contract). The same
    /// [`WakerSlot`] type backs the stream channel's per-batch wakes.
    waker: WakerSlot,
}

impl QueryState {
    pub(crate) fn new() -> Arc<QueryState> {
        Arc::new(QueryState {
            slot: Mutex::new(QuerySlot {
                finished: false,
                result: None,
                waker: WakerSlot::new(),
            }),
            done: Condvar::new(),
        })
    }

    /// A latch that is already resolved to `result`: what a shed
    /// submission's handle or stream wraps. No task exists; `join`/`poll`
    /// return immediately and drop-waits are trivially satisfied.
    pub(crate) fn completed(result: Result<QueryOutput>) -> Arc<QueryState> {
        Arc::new(QueryState {
            slot: Mutex::new(QuerySlot {
                finished: true,
                result: Some(result),
                waker: WakerSlot::new(),
            }),
            done: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, QuerySlot> {
        self.slot.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Completes the latch: publishes the result, releases every blocked
    /// `join`, and wakes the registered waker (if any) exactly once. The
    /// waker is invoked *after* the slot lock is released, so a waker that
    /// immediately re-polls from another thread cannot deadlock against
    /// this call.
    ///
    /// Completion is panic-isolated: this latch is the last line between a
    /// finished task and a joiner blocked forever, so the
    /// `future.complete` fault point (and any panic it injects) is caught
    /// here and folded into the published result rather than allowed to
    /// skip the notify.
    pub(crate) fn complete(&self, result: Result<QueryOutput>) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let result = match catch_unwind(AssertUnwindSafe(|| {
            mrq_common::fault::point("future.complete")
        })) {
            Ok(Ok(())) => result,
            Ok(Err(injected)) => Err(injected),
            Err(payload) => Err(mrq_common::MrqError::Internal(mrq_common::panic_message(
                payload,
            ))),
        };
        let waker = {
            let mut slot = self.lock();
            slot.result = Some(result);
            slot.finished = true;
            slot.waker.take()
        };
        self.done.notify_all();
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// True once the task finished. Non-blocking.
    pub(crate) fn is_finished(&self) -> bool {
        self.lock().finished
    }

    /// Blocks until the task finished, then takes the result.
    pub(crate) fn wait_take(&self) -> Result<QueryOutput> {
        let mut slot = self.lock();
        while !slot.finished {
            slot = self.done.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
        slot.result
            .take()
            .expect("a query result is joined at most once")
    }

    /// Blocks until the task finished without consuming the result.
    pub(crate) fn wait_finished(&self) {
        let mut slot = self.lock();
        while !slot.finished {
            slot = self.done.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// One async poll step: takes the result if the task finished, else
    /// registers (or refreshes) `waker` to be woken on completion.
    pub(crate) fn poll_take(&self, waker: &Waker) -> Poll<Result<QueryOutput>> {
        let mut slot = self.lock();
        if slot.finished {
            return Poll::Ready(
                slot.result
                    .take()
                    .expect("a QueryHandle must not be polled after it returned Ready"),
            );
        }
        // Re-registration across polls: the slot keeps an equivalent waker,
        // replaces a stale one (an executor may migrate the task between
        // polls).
        slot.waker.register(waker);
        Poll::Pending
    }

    /// Drops any registered waker (called when a handle is dropped before
    /// completion, so the completing task does not wake a dead task slot).
    pub(crate) fn clear_waker(&self) {
        self.lock().waker.clear();
    }
}
