//! The per-query execution context, installed once on the thread that
//! drives a query.
//!
//! [`QueryContext`] bundles what the layers below the serving front end
//! need of a submitted query: its [`CancelToken`], the [`QosClass`] its
//! pool tickets queue under and, when streamed, its [`StreamSink`]. One
//! thread-local holds it; the serving layer installs it with [`scope`] once
//! per pool task. [`crate::cancel::checkpoint`] checks its token, the
//! morsel scheduler hands it to the pool with every fan-out, and the
//! engines read the sink once at entry. The pool runs every morsel — the
//! driving thread's included — under the context *without* the sink, so a
//! fork can never publish rows out of order.

use std::cell::RefCell;
use std::sync::Arc;

use crate::cancel::CancelToken;
use crate::qos::QosClass;
use crate::stream::StreamSink;

/// The lifecycle context of one in-flight query.
#[derive(Debug, Clone)]
pub struct QueryContext {
    /// The query's cancellation/deadline token.
    pub token: Arc<CancelToken>,
    /// The class every ticket this query enqueues is scheduled under.
    pub class: QosClass,
    /// Where a streamed query publishes its rows; `None` for buffered
    /// execution and always `None` inside a pool morsel.
    pub sink: Option<StreamSink>,
}

impl QueryContext {
    /// A context with the given token and class and no stream sink.
    pub fn new(token: Arc<CancelToken>, class: QosClass) -> QueryContext {
        QueryContext {
            token,
            class,
            sink: None,
        }
    }
}

thread_local! {
    /// The context of the query this thread is running, if any; read in
    /// place by [`crate::cancel::checkpoint`], which must not clone it.
    pub(crate) static CURRENT: RefCell<Option<QueryContext>> = const { RefCell::new(None) };
}

/// Runs `f` with `context` installed as the thread's current query
/// context; the previous context (if any) is restored afterwards,
/// including on unwind.
pub fn scope<R>(context: QueryContext, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<QueryContext>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|current| *current.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(CURRENT.with(|current| current.borrow_mut().replace(context)));
    f()
}

/// The context installed on this thread by the nearest [`scope`], if any.
/// Plain (unsubmitted) execution runs with none.
pub fn current() -> Option<QueryContext> {
    CURRENT.with(|current| current.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morsel::run_ordered;
    use crate::stream::channel;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::{Duration, Instant};

    fn context(class: QosClass, with_sink: bool) -> QueryContext {
        let token = Arc::new(CancelToken::new());
        let sink = with_sink.then(|| channel(4, Arc::clone(&token)).0);
        QueryContext { token, class, sink }
    }

    /// `(class, has_sink)` of the installed context.
    fn seen() -> Option<(QosClass, bool)> {
        current().map(|cx| (cx.class, cx.sink.is_some()))
    }

    #[test]
    fn scopes_nest_restore_and_unwind_with_and_without_a_sink() {
        assert_eq!(seen(), None);
        scope(context(QosClass::Interactive, true), || {
            assert_eq!(seen(), Some((QosClass::Interactive, true)));
            scope(context(QosClass::Batch, false), || {
                assert_eq!(seen(), Some((QosClass::Batch, false)));
            });
            assert_eq!(seen(), Some((QosClass::Interactive, true)), "nested");
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                scope(context(QosClass::Maintenance, false), || {
                    assert_eq!(seen(), Some((QosClass::Maintenance, false)));
                    resume_unwind(Box::new(()));
                })
            }));
            assert!(unwound.is_err());
            assert_eq!(seen(), Some((QosClass::Interactive, true)), "unwound");
        });
        assert_eq!(seen(), None);
    }

    #[test]
    fn morsels_run_with_the_querys_token_and_class_but_no_sink() {
        let query = context(QosClass::Batch, true);
        let token = Arc::clone(&query.token);
        let driver = std::thread::current().id();
        let driver_ran = AtomicBool::new(false);
        let ranges: Vec<_> = (0..12).map(|m| m..m + 1).collect();
        let on_driver = scope(query, || {
            assert_eq!(
                seen(),
                Some((QosClass::Batch, true)),
                "the driver has the sink"
            );
            let morsel = |m: usize, _| {
                let cx = current().expect("a morsel runs under the query's context");
                assert!(Arc::ptr_eq(&cx.token, &token), "morsel {m}: token");
                assert_eq!(cx.class, QosClass::Batch, "morsel {m}: class");
                assert!(cx.sink.is_none(), "morsel {m} saw the sink");
                // Hold a pool worker until the driving thread has run a
                // morsel of its own (bounded), so both kinds are checked.
                let on_driver = std::thread::current().id() == driver;
                driver_ran.fetch_or(on_driver, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while !driver_ran.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                on_driver
            };
            run_ordered(&ranges, 2, morsel, None::<fn(usize, &mut bool)>)
        });
        assert!(on_driver.contains(&true), "the driving thread ran a morsel");
        assert_eq!(seen(), None);
    }
}
