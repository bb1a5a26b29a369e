//! The streaming front end: [`QueryStream`], an in-order sequence of row
//! batches from a query that is still executing.
//!
//! `Provider::submit_stream` wires a submitted query to a bounded batch
//! channel ([`mrq_common::stream`]): streamable shapes publish completed
//! morsels at an ordered frontier while the query runs, and the stream
//! yields them as `Vec<Vec<Value>>` batches in exactly the order the
//! materialised [`QueryOutput`](mrq_codegen::exec::QueryOutput) would hold
//! the rows. Concatenating every batch therefore reproduces
//! `Provider::execute`'s result bit for bit — for every strategy, thread
//! count and morsel size — while the first batch arrives after roughly
//! one checkpoint of work instead of after the whole scan (time-to-first-row
//! vs time-to-last-row; see `docs/SERVING.md`).
//!
//! The channel is bounded ([`mrq_common::stream::CHANNEL_BATCHES`] batches):
//! a consumer that stops reading exerts backpressure — workers pause at
//! their next intra-morsel checkpoint — instead of letting the result pile
//! up in memory. Dropping the stream disconnects the channel and trips the
//! query's [`CancelToken`], so an abandoned stream costs at most one more
//! checkpoint interval of work.

use crate::future::QueryState;
use crate::Submission;
use mrq_common::cancel::CancelToken;
use mrq_common::stream::{RowBatch, StreamReceiver};
use mrq_common::Result;
use std::marker::PhantomData;
use std::sync::Arc;
use std::task::{Context, Poll};

/// A query in flight on the worker pool, consumed as in-order row batches
/// while it executes.
///
/// Returned by `Provider::submit_stream` (borrowed — the stream cannot
/// outlive the provider), `OwnedProvider::submit_stream` (`'static`), and
/// the prepared-query equivalents. Three consumption styles share the one
/// channel:
///
/// * **Blocking iteration** — `for batch in stream { ... }`; the stream is
///   an [`Iterator`] of `Result<RowBatch>`.
/// * **Blocking, one batch at a time** — [`QueryStream::next_batch`].
/// * **Async** — [`QueryStream::poll_next_batch`] registers the caller's
///   waker on the channel (same waker-slot design as
///   [`QueryHandle`](crate::QueryHandle)) and wakes it when the next batch
///   is published, the query fails, or the stream ends.
///
/// Batch boundaries are deterministic: rows are re-chunked into
/// `QueryOptions::stream_batch_rows`-sized batches from the totally ordered
/// output sequence, so the batch sequence — not just its concatenation — is
/// identical across scheduler configurations.
///
/// # Error and end-of-stream semantics
///
/// The stream yields `Some(Ok(batch))` per batch, then either `None` (the
/// query completed; every row was delivered) or one `Some(Err(_))` — the
/// query's lifecycle error (cancelled, deadline exceeded, engine failure)
/// delivered *after* every batch that was published before the failure,
/// then `None` forever. A deadline that expires mid-stream therefore
/// surfaces as a trailing
/// [`QueryError::DeadlineExceeded`](crate::QueryError::DeadlineExceeded)
/// item, exactly where the row sequence stops.
///
/// # Drop semantics
///
/// Dropping the stream — consumed to the end or abandoned mid-way —
/// disconnects the channel and cancels the query via its token. A borrowed
/// stream then waits for the task to unwind (the same lifetime-erasure
/// safety contract as [`QueryHandle`](crate::QueryHandle)'s drop-wait;
/// bounded by one checkpoint, since the disconnect unblocks any producer
/// waiting on a full channel). A stream from an
/// [`OwnedProvider`](crate::OwnedProvider) (`owner.is_some()`) skips the
/// wait entirely — its task keeps the provider alive on its own.
pub struct QueryStream<'p> {
    /// `Some` until `Drop` takes it; disconnecting the receiver *before*
    /// waiting for the task is what bounds the drop-wait.
    receiver: Option<StreamReceiver>,
    state: Arc<QueryState>,
    token: Arc<CancelToken>,
    /// `Some` for streams from an `OwnedProvider`: the task keeps its own
    /// provider handle alive, so dropping the stream is non-blocking.
    owner: Option<Arc<crate::Provider<'static>>>,
    _provider: PhantomData<&'p ()>,
}

impl<'p> QueryStream<'p> {
    pub(crate) fn new(
        (state, token, receiver): Submission,
        owner: Option<Arc<crate::Provider<'static>>>,
    ) -> QueryStream<'p> {
        QueryStream {
            receiver,
            state,
            token,
            owner,
            _provider: PhantomData,
        }
    }

    /// Blocks until the next batch is published and returns it — or the
    /// query's error (once, after all pre-failure batches), or `None` at
    /// end of stream. The iterator facade calls exactly this.
    pub fn next_batch(&mut self) -> Option<Result<RowBatch>> {
        self.receiver.as_mut()?.recv_blocking()
    }

    /// One async poll step: returns the next batch if one is queued,
    /// otherwise registers (or refreshes) the caller's waker to be woken
    /// when a batch is published or the stream closes.
    ///
    /// `Poll::Ready(None)` is the end of the stream; like most one-shot
    /// wake protocols the waker is woken once per published batch, so a
    /// driver should poll until `Pending` before parking. The stream is
    /// `Unpin`; no pinning ceremony is needed.
    pub fn poll_next_batch(&mut self, cx: &mut Context<'_>) -> Poll<Option<Result<RowBatch>>> {
        match self.receiver.as_mut() {
            Some(receiver) => receiver.poll_recv(cx.waker()),
            None => Poll::Ready(None),
        }
    }

    /// Requests cooperative cancellation without consuming the stream:
    /// workers stop at their next checkpoint (~4096 rows), already-published
    /// batches remain readable, and the stream then yields
    /// [`QueryError::Cancelled`](crate::QueryError::Cancelled) — unless the
    /// query completed first. Idempotent and non-blocking.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// True once the query's task finished (successfully or not) — the
    /// channel may still hold published batches to drain. Non-blocking.
    pub fn is_finished(&self) -> bool {
        self.state.is_finished()
    }
}

impl Iterator for QueryStream<'_> {
    type Item = Result<RowBatch>;

    fn next(&mut self) -> Option<Result<RowBatch>> {
        self.next_batch()
    }
}

impl Drop for QueryStream<'_> {
    /// Disconnects the channel (unblocking any backpressured producer),
    /// trips the cancel token, and — for borrowed streams only — waits for
    /// the task to finish, so in-flight work never outlives the provider's
    /// bindings.
    fn drop(&mut self) {
        drop(self.receiver.take());
        self.token.cancel();
        if self.owner.is_none() {
            self.state.wait_finished();
        }
    }
}
