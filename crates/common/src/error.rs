//! Error handling shared across the workspace.

use std::fmt;

/// Convenient result alias used across the MRQ crates.
pub type Result<T> = std::result::Result<T, MrqError>;

/// The error type produced by query translation and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrqError {
    /// An expression tree referenced a field that does not exist in the
    /// schema it was evaluated against.
    UnknownField(String),
    /// An operation was applied to values of an incompatible type.
    TypeMismatch {
        /// What the operation expected.
        expected: String,
        /// What it actually received.
        found: String,
    },
    /// A query shape is not supported by the engine it was routed to
    /// (mirrors the type restrictions of the paper's §5 native-only path).
    Unsupported(String),
    /// Code generation failed (malformed expression tree, unbound lambda
    /// parameter, etc.).
    Codegen(String),
    /// The managed heap ran out of space or an invalid handle was used.
    Heap(String),
    /// The query was cancelled through its handle before it completed
    /// (cooperative: the flag is observed between morsels, so a claimed
    /// morsel always finishes first).
    Cancelled,
    /// The query's deadline passed before it completed. Deadlines are
    /// observed lazily at the same morsel boundaries as cancellation; an
    /// already-expired deadline resolves at dispatch, before any morsel
    /// runs.
    DeadlineExceeded,
    /// The serving layer refused the submission at admission: the number
    /// of in-flight submissions had reached the limit for the query's QoS
    /// class (see `mrq_common::admission`). Shedding happens before any
    /// compilation or plan-cache traffic, so a rejected statement costs
    /// almost nothing and the caller can retry once load subsides.
    Overloaded {
        /// In-flight submissions observed when the request was shed.
        in_flight: usize,
        /// The admission limit that applied to the request's QoS class.
        limit: usize,
    },
    /// Anything else.
    Internal(String),
}

impl fmt::Display for MrqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrqError::UnknownField(name) => write!(f, "unknown field `{name}`"),
            MrqError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            MrqError::Unsupported(what) => write!(f, "unsupported query shape: {what}"),
            MrqError::Codegen(what) => write!(f, "code generation failed: {what}"),
            MrqError::Heap(what) => write!(f, "managed heap error: {what}"),
            MrqError::Cancelled => write!(f, "query cancelled"),
            MrqError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            MrqError::Overloaded { in_flight, limit } => write!(
                f,
                "server overloaded: {in_flight} submissions in flight (class limit {limit})"
            ),
            MrqError::Internal(what) => write!(f, "internal error: {what}"),
        }
    }
}

impl std::error::Error for MrqError {}

/// The error a query ends with when an integer or decimal division meets a
/// zero divisor, on every strategy (C# throws `DivideByZeroException`
/// there).
pub fn division_by_zero() -> MrqError {
    MrqError::Internal("division by zero".into())
}

/// Ends the running query with `error` from code that cannot return one (a
/// compiled per-row closure, the baseline's evaluator). It unwinds, without
/// running the panic hook, to the provider's query boundary, which ends the
/// query with `error` itself. Kept out of line: its callers are per-row
/// code.
#[cold]
#[inline(never)]
pub fn abort_query(error: MrqError) -> ! {
    std::panic::resume_unwind(Box::new(error))
}

/// Extract a human-readable message from a panic payload.
///
/// `std::panic::catch_unwind` hands back a `Box<dyn Any + Send>`; in
/// practice the payload is a `String` (from `panic!("{x}")` or from the
/// fault-injection layer's `resume_unwind`) or a `&'static str` (from
/// `panic!("literal")`). Anything else gets a fixed fallback so callers
/// never lose the fact that a panic happened.
///
/// The serving layer uses this at every catch site so the *original*
/// panic message — not a generic "a worker panicked" string — survives
/// into the [`MrqError::Internal`] surfaced to the submitter.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(message) => (*message).to_string(),
            Err(_) => "panic with a non-string payload".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(
            MrqError::UnknownField("l_tax".into()).to_string(),
            "unknown field `l_tax`"
        );
        let e = MrqError::TypeMismatch {
            expected: "Decimal".into(),
            found: "Str".into(),
        };
        assert!(e.to_string().contains("Decimal"));
        assert!(e.to_string().contains("Str"));
    }

    #[test]
    fn errors_are_cloneable_and_comparable() {
        let e = MrqError::Unsupported("user-defined constructor".into());
        assert_eq!(e.clone(), e);
    }

    #[test]
    fn overloaded_reports_both_numbers() {
        let e = MrqError::Overloaded {
            in_flight: 64,
            limit: 48,
        };
        let text = e.to_string();
        assert!(text.contains("64"), "{text}");
        assert!(text.contains("48"), "{text}");
    }

    #[test]
    fn panic_messages_survive_all_payload_shapes() {
        let owned: Box<dyn std::any::Any + Send> = Box::new("boom".to_string());
        assert_eq!(panic_message(owned), "boom");
        let literal: Box<dyn std::any::Any + Send> = Box::new("bang");
        assert_eq!(panic_message(literal), "bang");
        let other: Box<dyn std::any::Any + Send> = Box::new(42usize);
        assert_eq!(panic_message(other), "panic with a non-string payload");
    }
}
