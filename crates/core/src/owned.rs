//! The owned-provider handle: an `Arc`-based `'static` path into the
//! serving layer, so queries — and especially [`QueryHandle`]s polled as
//! futures — can escape the binding scope.
//!
//! A borrowed [`Provider`] pins every handle and stream to the stack frame
//! that owns the bound collections; safe, but a server cannot hand such a
//! handle to another thread, park it in a connection table, or outlive the
//! scope that built the provider. [`OwnedProvider`] lifts that limit: the
//! provider and its bindings live behind one [`Arc`], every in-flight task
//! holds its own clone, and the handles it returns are `'static` — drive
//! them from any thread or mini-executor, drop them early without blocking,
//! and let the last clone standing tear everything down.
//!
//! Building one requires `'static` bindings, which is exactly what the
//! shared-binding constructors provide ([`Provider::over_shared_heap`],
//! [`Provider::bind_native_shared`], [`Provider::bind_values_shared`]):
//! bind `Arc<RowStore>` / `Arc<Heap>` / `Arc<ValueTable>` handles instead
//! of borrows and the borrow checker lets [`Provider::into_shared`] seal
//! the provider. A provider with any non-`'static` borrow simply cannot be
//! sealed — the escape hatch is compile-time-gated, not runtime-checked.

use crate::stream::QueryStream;
use crate::{Job, Provider, QueryHandle, QueryOptions, Strategy, Submission};
use mrq_expr::Expr;
use std::ops::Deref;
use std::sync::Arc;

impl Provider<'static> {
    /// Seals a fully-bound provider into a shareable, `'static`
    /// [`OwnedProvider`]. Only a provider whose bindings are all owned or
    /// shared (`Arc`-backed, via [`Provider::over_shared_heap`] /
    /// [`Provider::bind_native_shared`] / [`Provider::bind_values_shared`],
    /// plus managed lists, which never borrow) satisfies the `'static`
    /// bound — borrowed bindings are rejected at compile time.
    ///
    /// Configuration is fixed at sealing time: set parallelism, the
    /// optimizer and recycling before calling this (the shared provider is
    /// immutable, which is what makes handing it to many threads sound).
    pub fn into_shared(self) -> OwnedProvider {
        OwnedProvider {
            inner: Arc::new(self),
        }
    }
}

/// A shareable `'static` handle to a sealed [`Provider`]: the owned half of
/// the serving layer.
///
/// Cloning is an `Arc` clone; every clone (and every in-flight
/// [`OwnedProvider::submit`] task) keeps the provider and its bound
/// collections alive. All of [`Provider`]'s read-side API is available
/// through `Deref` — [`Provider::execute`], [`Provider::stats`], … — and
/// `submit` here returns a `QueryHandle<'static>` instead of a borrowed
/// one.
///
/// Teardown is ordered by construction: the provider's own `Drop` waits for
/// in-flight submissions, and a task drops its provider clone only *after*
/// decrementing the in-flight count, so the last clone — wherever it is
/// dropped, client thread or pool worker — never deadlocks.
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
#[derive(Clone)]
pub struct OwnedProvider {
    inner: Arc<Provider<'static>>,
}

impl OwnedProvider {
    /// Queues a statement on the worker pool and returns a `'static`
    /// [`QueryHandle`] that can escape this scope entirely.
    ///
    /// Same unified signature as [`Provider::submit`] and identical
    /// semantics — same waker lifecycle, deadline arming at submission, QoS
    /// class routing, and bit-identical results — with one difference: the
    /// spawned task carries its own provider clone, so the handle can cross
    /// threads and outlive the sealing scope, and its `Drop` is
    /// non-blocking. Dropping an unresolved handle abandons the *result*,
    /// not the provider: the task finishes (or retires, if cancelled) in
    /// the background and releases its clone, and `Provider::drop` still
    /// waits for it before the bindings go away.
    pub fn submit(
        &self,
        expr: Expr,
        strategy: Strategy,
        options: QueryOptions,
    ) -> QueryHandle<'static> {
        QueryHandle::new(
            self.spawn(Job::Statement(expr), strategy, options, false),
            self.owner(),
        )
    }

    /// Queues a statement and returns a `'static` [`QueryStream`] of
    /// in-order row batches, the owned counterpart of
    /// [`Provider::submit_stream`] — same ordered-frontier publication,
    /// deterministic batching and backpressure, but the stream can cross
    /// threads, and dropping it mid-way cancels the query *without
    /// blocking*: the task holds its own provider clone and unwinds in the
    /// background.
    pub fn submit_stream(
        &self,
        expr: Expr,
        strategy: Strategy,
        options: QueryOptions,
    ) -> QueryStream<'static> {
        QueryStream::new(
            self.spawn(Job::Statement(expr), strategy, options, true),
            self.owner(),
        )
    }

    /// [`Provider::spawn`] with a provider clone as the task's keep-alive.
    pub(crate) fn spawn(
        &self,
        job: Job,
        strategy: Strategy,
        options: QueryOptions,
        streamed: bool,
    ) -> Submission {
        Provider::spawn(Arc::clone(&self.inner), job, strategy, options, streamed)
    }

    /// The marker an owned handle or stream stores to make its drop
    /// non-blocking.
    pub(crate) fn owner(&self) -> Option<Arc<Provider<'static>>> {
        Some(Arc::clone(&self.inner))
    }

    /// The sealed provider itself (also reachable through `Deref`).
    pub fn provider(&self) -> &Provider<'static> {
        &self.inner
    }
}

impl Deref for OwnedProvider {
    type Target = Provider<'static>;

    fn deref(&self) -> &Provider<'static> {
        &self.inner
    }
}

/// The owned serving path must stay fully thread-mobile: handles clone and
/// cross threads, and the handles they mint are `'static`, `Send` and
/// `Unpin`. This fails to compile if any field regresses.
#[allow(dead_code)]
fn _assert_owned_provider_is_send_sync() {
    fn assert_both<T: Send + Sync>() {}
    assert_both::<OwnedProvider>();
    fn assert_send_unpin<T: Send + Unpin>() {}
    assert_send_unpin::<QueryHandle<'static>>();
    assert_send_unpin::<QueryStream<'static>>();
}
