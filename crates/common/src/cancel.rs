//! Cooperative query cancellation and deadlines.
//!
//! A [`CancelToken`] is one atomic flag plus an optional armed deadline.
//! The serving layer creates one per submitted query, the client flips it
//! (`QueryHandle::cancel` in `mrq-core`) or the deadline passes, and the
//! execution layer *checks* it at cheap, well-defined points — between
//! morsels of a pool fan-out ([`crate::pool`]), between join-build shards,
//! and at the engines' phase boundaries. Nothing is pre-empted: a claimed
//! morsel always runs to completion, so cancellation latency is bounded by
//! one morsel's worth of work ([`crate::ParallelConfig::morsel_rows`]),
//! never by the length of the query.
//!
//! Deadlines are lazy: arming one stores an [`Instant`]; there is no timer
//! thread. The token trips the first time anything checks it after the
//! deadline passed, which by construction is at a morsel boundary.
//!
//! # Propagation
//!
//! The token travels in the query's [`crate::context::QueryContext`].
//! [`checkpoint`] unwinds with the [`CancelReason`] as panic payload (via
//! [`std::panic::resume_unwind`], so no panic hook fires): the pool retires
//! a morsel that unwinds, and the serving layer catches the unwind at the
//! query boundary and resolves the handle to the matching error. Without a
//! context — every plain `Provider::execute` call — checkpoints are no-ops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::MrqError;

/// Rows between intra-morsel cooperative-cancellation checkpoints inside
/// the engines' fused scan/probe, build and staging loops (and the LINQ
/// baseline's source enumerable). One shared cadence keeps the documented
/// "~4096 rows" worst-case cancel latency true of every engine; the
/// power-of-two value keeps the per-row cost to one predictable modulus
/// branch, and outside a query context each checkpoint is a no-op.
pub const CHECK_EVERY_ROWS: usize = 4096;

/// Why a query was stopped before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The token's flag was flipped by an explicit `cancel()` call.
    Cancelled,
    /// The token's armed deadline passed.
    DeadlineExceeded,
}

impl From<CancelReason> for MrqError {
    fn from(reason: CancelReason) -> MrqError {
        match reason {
            CancelReason::Cancelled => MrqError::Cancelled,
            CancelReason::DeadlineExceeded => MrqError::DeadlineExceeded,
        }
    }
}

/// A cooperative cancellation flag with an optional lazy deadline.
///
/// Cheap to check (one relaxed atomic load; one clock read when a deadline
/// is armed) and checked only *between* units of work, never inside them.
///
/// # Examples
///
/// ```
/// use mrq_common::cancel::{CancelReason, CancelToken};
///
/// let token = CancelToken::new();
/// assert!(token.check().is_none());
/// token.cancel();
/// assert_eq!(token.check(), Some(CancelReason::Cancelled));
///
/// // An already-expired deadline trips on the first check.
/// let expired = CancelToken::expiring(std::time::Instant::now());
/// assert_eq!(expired.check(), Some(CancelReason::DeadlineExceeded));
/// ```
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline; it only trips if [`CancelToken::cancel`]
    /// is called.
    pub fn new() -> CancelToken {
        CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: None,
        }
    }

    /// A token armed with a deadline: it trips on the first check at or
    /// after `deadline` (there is no timer thread — deadlines are observed
    /// lazily at morsel boundaries).
    pub fn expiring(deadline: Instant) -> CancelToken {
        CancelToken {
            cancelled: AtomicBool::new(false),
            deadline: Some(deadline),
        }
    }

    /// Flips the flag. Idempotent; an explicit cancel wins over a deadline
    /// that passes later (the reported reason stays `Cancelled`).
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Returns why the token tripped, or `None` while work may proceed.
    pub fn check(&self) -> Option<CancelReason> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Some(CancelReason::Cancelled);
        }
        match self.deadline {
            Some(deadline) if Instant::now() >= deadline => Some(CancelReason::DeadlineExceeded),
            _ => None,
        }
    }

    /// True once the token tripped (cancelled or past its deadline).
    pub fn is_tripped(&self) -> bool {
        self.check().is_some()
    }
}

/// A cooperative cancellation point: if the current query context's token
/// tripped, unwinds with its [`CancelReason`] as payload (silently — no
/// panic hook runs); otherwise does nothing. Engines call this at phase
/// boundaries (after a join build, between staging and processing); the
/// morsel scheduler calls it between morsels. Outside a
/// [`crate::context::scope`] it is a no-op.
pub fn checkpoint() {
    let tripped = crate::context::CURRENT.with(|current| {
        current
            .borrow()
            .as_ref()
            .and_then(|context| context.token.check())
    });
    if let Some(reason) = tripped {
        std::panic::resume_unwind(Box::new(reason));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{current, scope, QueryContext};
    use crate::qos::QosClass;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fresh_tokens_do_not_trip_and_cancel_is_sticky() {
        let token = CancelToken::new();
        assert!(!token.is_tripped());
        token.cancel();
        token.cancel();
        assert_eq!(token.check(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn deadlines_trip_lazily_and_explicit_cancel_wins() {
        let token = CancelToken::expiring(Instant::now() + Duration::from_secs(600));
        assert!(!token.is_tripped(), "future deadline must not trip");
        let expired = CancelToken::expiring(Instant::now());
        assert_eq!(expired.check(), Some(CancelReason::DeadlineExceeded));
        expired.cancel();
        assert_eq!(expired.check(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn checkpoint_is_a_noop_outside_a_scope() {
        checkpoint(); // must not unwind
        assert!(current().is_none());
    }

    #[test]
    fn checkpoint_unwinds_with_the_reason_inside_a_tripped_scope() {
        let token = Arc::new(CancelToken::new());
        token.cancel();
        let context = QueryContext::new(token, QosClass::Batch);
        let result = catch_unwind(AssertUnwindSafe(|| scope(context, checkpoint)));
        let payload = result.expect_err("tripped scope must unwind");
        assert_eq!(
            *payload.downcast::<CancelReason>().expect("reason payload"),
            CancelReason::Cancelled
        );
        // The scope was restored on unwind: this thread has no context left.
        assert!(current().is_none());
        checkpoint(); // and checkpoints are no-ops again
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = QueryContext::new(Arc::new(CancelToken::new()), QosClass::Interactive);
        let inner = QueryContext::new(Arc::new(CancelToken::new()), QosClass::Batch);
        let inner_token = Arc::clone(&inner.token);
        scope(outer, || {
            assert_eq!(current().unwrap().class, QosClass::Interactive);
            scope(inner, || {
                assert_eq!(current().unwrap().class, QosClass::Batch);
                // Checkpoints read the innermost token only.
                inner_token.cancel();
                let result = catch_unwind(AssertUnwindSafe(checkpoint));
                assert!(result.is_err(), "inner tripped token must unwind");
            });
            assert_eq!(current().unwrap().class, QosClass::Interactive);
            checkpoint(); // the outer token is untripped
        });
        assert!(current().is_none());
    }
}
