//! Bounded, in-order row-batch channels for streaming query results.
//!
//! A streamed query publishes rows *while later morsels still run*: the
//! engines push completed rows into a [`StreamSink`], the serving layer
//! hands the matching [`StreamReceiver`] to the client behind a
//! `QueryStream`, and the channel in between enforces three properties:
//!
//! * **Order.** Rows arrive in the exact order the sequential gather would
//!   have produced them (the morsel scheduler publishes slot *m* only after
//!   every slot `< m`, see [`crate::morsel::run_ordered`]), so the
//!   concatenated batches are bit-identical to the buffered `QueryOutput`.
//! * **Backpressure.** The queue holds at most [`CHANNEL_BATCHES`] batches.
//!   A producer that finds it full blocks on a condvar — which stalls the
//!   publication frontier and, transitively, the workers — until the
//!   consumer drains a batch, the receiver is dropped, or the query's
//!   [`CancelToken`] trips. The wait re-checks the token on a short tick so
//!   deadlines and cancellation are honoured even while the consumer lags.
//! * **Determinism.** Rows are re-chunked into fixed `batch_rows`-sized
//!   batches as they pass through (the final batch may be short), so batch
//!   boundaries — and the [`batches_streamed`](StreamSink::counters) /
//!   `rows_streamed` counters — depend only on the total row sequence,
//!   never on how morsels were partitioned or interleaved.
//!
//! The sink side travels in the query's [`crate::context::QueryContext`],
//! installed once on the query's driving thread; engines read it at entry
//! and attach it explicitly to their execution state. Pool morsels run
//! under the context with the sink removed, so worker closures never see
//! it and caller participation in *other* queries' morsels cannot misroute
//! rows.
//!
//! [`WakerSlot`] — the register/take half of an async waker latch — lives
//! here because both this channel's receiver and `mrq-core`'s completion
//! latch (`future.rs`) share the same wake-exactly-once discipline.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::task::{Poll, Waker};
use std::time::Duration;

use crate::cancel::CancelToken;
use crate::value::Value;
use crate::MrqError;

/// One batch of result rows, in output order. Concatenating every batch a
/// stream yields reconstructs `QueryOutput::rows` exactly.
pub type RowBatch = Vec<Vec<Value>>;

/// Maximum number of full batches buffered in the channel before producers
/// block. Small on purpose: the channel is a hand-off buffer, not a spool —
/// a lagging consumer is supposed to stall the workers (that is the
/// backpressure contract), not grow memory.
pub const CHANNEL_BATCHES: usize = 8;

/// How long a blocked producer sleeps between re-checks of the cancel
/// token while the queue is full. Bounds cancellation latency under
/// backpressure without a timer thread.
const FULL_QUEUE_TICK: Duration = Duration::from_millis(5);

/// Defensive re-check tick for a blocking consumer wait; every producer
/// exit notifies the condvar, so this only matters if a producer dies in a
/// way that skips its close path.
const RECV_TICK: Duration = Duration::from_millis(100);

/// Default rows per streamed batch when `QueryOptions` does not override
/// it. Matches [`crate::cancel::CHECK_EVERY_ROWS`] so one engine flush at
/// checkpoint cadence fills roughly one batch.
pub const DEFAULT_BATCH_ROWS: usize = crate::cancel::CHECK_EVERY_ROWS;

/// A single-waker latch: `register` stores the most recent waker (skipping
/// the clone when [`Waker::will_wake`] says it is the same task), `take`
/// removes it for waking *after* the protecting lock is released. Shared by
/// the stream channel and `mrq-core`'s query-completion latch.
#[derive(Debug, Default)]
pub struct WakerSlot(Option<Waker>);

impl WakerSlot {
    /// An empty slot.
    pub fn new() -> WakerSlot {
        WakerSlot(None)
    }

    /// Stores `waker` as the task to wake, replacing a stale one. A waker
    /// that [`Waker::will_wake`] the stored one is not re-cloned.
    pub fn register(&mut self, waker: &Waker) {
        match &self.0 {
            Some(existing) if existing.will_wake(waker) => {}
            _ => self.0 = Some(waker.clone()),
        }
    }

    /// Removes and returns the registered waker. The caller must invoke
    /// [`Waker::wake`] only after releasing whatever lock guards this slot,
    /// so an executor that polls inline cannot deadlock re-entering it.
    pub fn take(&mut self) -> Option<Waker> {
        self.0.take()
    }

    /// Drops the registered waker without waking it (a future that is being
    /// dropped deregisters itself).
    pub fn clear(&mut self) {
        self.0 = None;
    }
}

/// Everything both endpoints share, guarded by one mutex.
#[derive(Debug)]
struct ChannelState {
    /// Completed fixed-size batches, oldest first.
    queue: VecDeque<RowBatch>,
    /// Rows accumulated toward the next batch (always `< batch_rows` long
    /// between sink calls).
    buffer: RowBatch,
    /// Producer called [`StreamSink::close`]; no more batches will arrive.
    finished: bool,
    /// Terminal error, delivered once after the queue drains.
    error: Option<MrqError>,
    /// The receiver was dropped; producers stop publishing.
    receiver_gone: bool,
    /// Consumer task to wake when a batch or the end of stream arrives.
    waker: WakerSlot,
    /// Full batches pushed into the queue (the final short batch counts).
    batches_streamed: u64,
    /// Rows accepted by the sink, whether or not yet batched.
    rows_streamed: u64,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<ChannelState>,
    /// Producers wait here while the queue is full.
    producer_cv: Condvar,
    /// A blocking consumer waits here while the queue is empty.
    consumer_cv: Condvar,
    /// Re-chunking size; every queued batch except the last holds exactly
    /// this many rows.
    batch_rows: usize,
}

impl Shared {
    /// Locks the state, recovering from poison: the channel's invariants
    /// hold at every await/unlock point, and a poisoned-side panic is
    /// already reported through the query's error path.
    fn lock(&self) -> MutexGuard<'_, ChannelState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The producer endpoint: engines push rows, the channel re-chunks them
/// into `batch_rows`-sized batches and blocks when the consumer lags.
/// Cloneable so the serving layer can keep one for the final residual
/// flush while the engine holds another; all clones feed the same queue.
#[derive(Debug, Clone)]
pub struct StreamSink {
    shared: Arc<Shared>,
    token: Arc<CancelToken>,
}

impl StreamSink {
    /// Appends `rows` (drained) to the stream. Full batches become visible
    /// to the consumer immediately; a partial remainder is buffered until
    /// more rows arrive or [`close`](StreamSink::close) flushes it.
    ///
    /// Returns `false` once publishing is pointless — the receiver was
    /// dropped or the query's token tripped. Callers treat that as "stop
    /// flushing" (the cooperative cancel checkpoint unwinds the query
    /// itself); rows not yet transferred stay drained and are dropped.
    pub fn send_rows(&self, rows: &mut Vec<Vec<Value>>) -> bool {
        let mut guard = self.shared.lock();
        if guard.receiver_gone {
            rows.clear();
            return false;
        }
        for row in rows.drain(..) {
            guard.buffer.push(row);
            guard.rows_streamed += 1;
            if guard.buffer.len() >= self.shared.batch_rows {
                let batch = std::mem::take(&mut guard.buffer);
                guard = match self.enqueue(guard, batch) {
                    Some(reacquired) => reacquired,
                    None => return false,
                };
            }
        }
        true
    }

    /// Marks the stream finished. With `error == None` the buffered partial
    /// batch is flushed first (so the stream's total row sequence is exact);
    /// with an error the partial batch is discarded — the consumer receives
    /// every already-queued batch, then the error. Idempotent; the first
    /// close wins.
    pub fn close(&self, error: Option<MrqError>) {
        let mut guard = self.shared.lock();
        if guard.finished {
            return;
        }
        if error.is_none() && !guard.buffer.is_empty() && !guard.receiver_gone {
            let batch = std::mem::take(&mut guard.buffer);
            guard = match self.enqueue(guard, batch) {
                Some(reacquired) => reacquired,
                // Receiver gone or token tripped mid-flush: finish anyway.
                None => self.shared.lock(),
            };
        }
        guard.buffer.clear();
        guard.finished = true;
        if guard.error.is_none() {
            guard.error = error;
        }
        let waker = guard.waker.take();
        drop(guard);
        self.shared.consumer_cv.notify_all();
        self.shared.producer_cv.notify_all();
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    /// `(batches_streamed, rows_streamed)` so far — deterministic for a
    /// given query because batches are re-chunked from the total ordered
    /// row sequence, independent of morsel partitioning.
    pub fn counters(&self) -> (u64, u64) {
        let guard = self.shared.lock();
        (guard.batches_streamed, guard.rows_streamed)
    }

    /// Waits for queue capacity, pushes `batch`, wakes the consumer, and
    /// re-acquires the lock. `None` means publishing stopped (receiver
    /// dropped or token tripped); the batch is discarded.
    fn enqueue(
        &self,
        mut guard: MutexGuard<'_, ChannelState>,
        batch: RowBatch,
    ) -> Option<MutexGuard<'_, ChannelState>> {
        loop {
            if guard.receiver_gone {
                return None;
            }
            if guard.queue.len() < CHANNEL_BATCHES {
                break;
            }
            if self.token.is_tripped() {
                return None;
            }
            guard = self
                .shared
                .producer_cv
                .wait_timeout(guard, FULL_QUEUE_TICK)
                .map(|(reacquired, _timeout)| reacquired)
                .unwrap_or_else(|poison| poison.into_inner().0);
        }
        guard.queue.push_back(batch);
        guard.batches_streamed += 1;
        let waker = guard.waker.take();
        drop(guard);
        self.shared.consumer_cv.notify_all();
        if let Some(waker) = waker {
            waker.wake();
        }
        Some(self.shared.lock())
    }
}

/// The consumer endpoint. Dropping it disconnects the channel: queued
/// batches are freed and every subsequent producer call returns `false`
/// immediately, so workers blocked on backpressure unblock at once.
#[derive(Debug)]
pub struct StreamReceiver {
    shared: Arc<Shared>,
}

impl StreamReceiver {
    /// Blocks until the next batch is available. Returns `Some(Ok(batch))`
    /// per batch in order, then — after the producer closed — `Some(Err)`
    /// exactly once if the query failed, else `None` for a clean end.
    pub fn recv_blocking(&mut self) -> Option<crate::Result<RowBatch>> {
        let mut guard = self.shared.lock();
        loop {
            if let Some(batch) = guard.queue.pop_front() {
                drop(guard);
                self.shared.producer_cv.notify_all();
                return Some(Ok(batch));
            }
            if guard.finished {
                return guard.error.take().map(Err);
            }
            guard = self
                .shared
                .consumer_cv
                .wait_timeout(guard, RECV_TICK)
                .map(|(reacquired, _timeout)| reacquired)
                .unwrap_or_else(|poison| poison.into_inner().0);
        }
    }

    /// Non-blocking poll: yields the next batch, the terminal error, or end
    /// of stream; otherwise registers `waker` (replacing a stale one, as in
    /// the query-completion latch) and returns [`Poll::Pending`]. The waker
    /// is woken exactly once per state change, after the lock is released.
    pub fn poll_recv(&mut self, waker: &Waker) -> Poll<Option<crate::Result<RowBatch>>> {
        let mut guard = self.shared.lock();
        if let Some(batch) = guard.queue.pop_front() {
            drop(guard);
            self.shared.producer_cv.notify_all();
            return Poll::Ready(Some(Ok(batch)));
        }
        if guard.finished {
            return Poll::Ready(guard.error.take().map(Err));
        }
        guard.waker.register(waker);
        Poll::Pending
    }

    /// Drops a waker registered by [`poll_recv`](StreamReceiver::poll_recv)
    /// without waking it (called when the owning future/stream is dropped).
    pub fn clear_waker(&mut self) {
        self.shared.lock().waker.clear();
    }
}

impl Drop for StreamReceiver {
    fn drop(&mut self) {
        let mut guard = self.shared.lock();
        guard.receiver_gone = true;
        guard.queue.clear();
        guard.buffer.clear();
        drop(guard);
        // Unblock any producer waiting on backpressure; it observes
        // `receiver_gone` and stops publishing.
        self.shared.producer_cv.notify_all();
    }
}

/// Creates a bounded stream channel re-chunking rows into
/// `batch_rows`-sized batches (clamped to at least 1). `token` is the
/// query's cancel token: producers blocked on a full queue re-check it so
/// cancellation and deadlines cut through backpressure.
pub fn channel(batch_rows: usize, token: Arc<CancelToken>) -> (StreamSink, StreamReceiver) {
    let shared = Arc::new(Shared {
        state: Mutex::new(ChannelState {
            queue: VecDeque::new(),
            buffer: Vec::new(),
            finished: false,
            error: None,
            receiver_gone: false,
            waker: WakerSlot::new(),
            batches_streamed: 0,
            rows_streamed: 0,
        }),
        producer_cv: Condvar::new(),
        consumer_cv: Condvar::new(),
        batch_rows: batch_rows.max(1),
    });
    (
        StreamSink {
            shared: Arc::clone(&shared),
            token,
        },
        StreamReceiver { shared },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::task::Wake;

    fn rows(range: std::ops::Range<i64>) -> Vec<Vec<Value>> {
        range.map(|n| vec![Value::Int64(n)]).collect()
    }

    #[test]
    fn rechunks_into_fixed_batches_and_flushes_remainder_on_close() {
        let (sink, mut receiver) = channel(4, Arc::new(CancelToken::new()));
        assert!(sink.send_rows(&mut rows(0..3)));
        assert!(sink.send_rows(&mut rows(3..10)));
        sink.close(None);
        let mut collected = Vec::new();
        let mut sizes = Vec::new();
        while let Some(batch) = receiver.recv_blocking() {
            let batch = batch.expect("clean stream");
            sizes.push(batch.len());
            collected.extend(batch);
        }
        assert_eq!(sizes, vec![4, 4, 2], "fixed chunks, short tail");
        assert_eq!(collected, rows(0..10));
        assert_eq!(sink.counters(), (3, 10));
    }

    #[test]
    fn error_is_delivered_once_after_queued_batches() {
        let (sink, mut receiver) = channel(2, Arc::new(CancelToken::new()));
        assert!(sink.send_rows(&mut rows(0..3)));
        sink.close(Some(MrqError::DeadlineExceeded));
        assert_eq!(receiver.recv_blocking(), Some(Ok(rows(0..2))));
        // The partial third row is discarded on an error close.
        assert_eq!(
            receiver.recv_blocking(),
            Some(Err(MrqError::DeadlineExceeded))
        );
        assert_eq!(receiver.recv_blocking(), None, "error delivered once");
    }

    #[test]
    fn receiver_drop_disconnects_producers() {
        let (sink, receiver) = channel(1, Arc::new(CancelToken::new()));
        // Fill the queue to capacity so a further send would block.
        assert!(sink.send_rows(&mut rows(0..CHANNEL_BATCHES as i64)));
        drop(receiver);
        let mut more = rows(100..200);
        assert!(!sink.send_rows(&mut more), "disconnected sink refuses rows");
        sink.close(None); // must not block or panic
    }

    #[test]
    fn tripped_token_unblocks_a_backpressured_producer() {
        let token = Arc::new(CancelToken::new());
        let (sink, _receiver) = channel(1, Arc::clone(&token));
        assert!(sink.send_rows(&mut rows(0..CHANNEL_BATCHES as i64)));
        token.cancel();
        // Queue is full and nobody is draining: only the token re-check
        // can let this return (false), proving cancel cuts backpressure.
        assert!(!sink.send_rows(&mut rows(0..2)));
    }

    #[test]
    fn poll_recv_registers_waker_and_wakes_on_publish() {
        struct CountingWake(AtomicUsize);
        impl Wake for CountingWake {
            fn wake(self: Arc<Self>) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let wake = Arc::new(CountingWake(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&wake));
        let (sink, mut receiver) = channel(2, Arc::new(CancelToken::new()));
        assert!(receiver.poll_recv(&waker).is_pending());
        assert!(receiver.poll_recv(&waker).is_pending(), "re-poll is fine");
        assert!(sink.send_rows(&mut rows(0..2)));
        assert_eq!(wake.0.load(Ordering::SeqCst), 1, "woken exactly once");
        assert_eq!(
            receiver.poll_recv(&waker),
            Poll::Ready(Some(Ok(rows(0..2))))
        );
        assert!(receiver.poll_recv(&waker).is_pending());
        sink.close(None);
        assert_eq!(wake.0.load(Ordering::SeqCst), 2);
        assert_eq!(receiver.poll_recv(&waker), Poll::Ready(None));
    }

    #[test]
    fn scope_installs_and_restores_the_sink() {
        use crate::context::{current, scope, QueryContext};
        use crate::qos::QosClass;
        let has_sink = || current().is_some_and(|cx| cx.sink.is_some());
        assert!(current().is_none());
        let token = Arc::new(CancelToken::new());
        let (sink, _receiver) = channel(4, Arc::clone(&token));
        let outer = QueryContext {
            token,
            class: QosClass::Interactive,
            sink: Some(sink),
        };
        scope(outer, || {
            assert!(has_sink());
            let (inner, _rx) = channel(2, Arc::new(CancelToken::new()));
            let inner = QueryContext {
                sink: Some(inner),
                ..QueryContext::new(Arc::new(CancelToken::new()), QosClass::Batch)
            };
            scope(inner, || assert!(has_sink()));
            assert!(has_sink(), "outer sink restored");
        });
        assert!(current().is_none());
    }

    #[test]
    fn default_batch_rows_matches_checkpoint_cadence() {
        assert_eq!(DEFAULT_BATCH_ROWS, crate::cancel::CHECK_EVERY_ROWS);
    }
}
