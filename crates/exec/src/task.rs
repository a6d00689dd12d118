//! Task-level panic capture.
//!
//! Every combinator of [`crate::Exec`] propagates a task's panic to the
//! caller, re-raised with the task index and message attached (see
//! [`crate::Exec::par_ranges`]). A caller that wants a failure domain of its
//! own — the campaign wraps each cell attempt this way — runs the body under
//! [`catch_task`], which turns a panic into a [`TaskError`] value.

use std::any::Any;
use std::fmt;
use std::panic::AssertUnwindSafe;

/// A contained task panic: which task, and its downcast payload message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// Index of the failing task.
    pub index: usize,
    /// The downcast panic payload.
    pub message: String,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for TaskError {}

/// Extracts a human-readable message from a panic payload.
///
/// Recognizes the two payload types `panic!` produces (`&str` and `String`);
/// anything else is reported opaquely.
#[must_use]
pub fn payload_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `f` as an isolated task: a panic is caught and converted into a
/// [`TaskError`] carrying `index` and the downcast payload message.
///
/// The `AssertUnwindSafe` is sound for the pool's usage contract: each task's
/// result is a pure function of its index and inputs, and a failing task's
/// partial state is discarded wholesale (retries rebuild from scratch), so no
/// broken invariant can be observed after an unwind.
pub fn catch_task<R>(index: usize, f: impl FnOnce() -> R) -> Result<R, TaskError> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| TaskError {
        index,
        message: payload_message(payload.as_ref()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catch_task_passes_results_through() {
        assert_eq!(catch_task(3, || 40 + 2), Ok(42));
    }

    #[test]
    fn catch_task_reports_index_and_message() {
        let err = catch_task::<()>(7, || panic!("boom {}", 13)).unwrap_err();
        assert_eq!(err.index, 7);
        assert_eq!(err.message, "boom 13");
        assert_eq!(err.to_string(), "task 7 panicked: boom 13");
    }

    #[test]
    fn non_string_payload_is_opaque_but_safe() {
        let err = catch_task::<()>(0, || std::panic::panic_any(17_u32)).unwrap_err();
        assert_eq!(err.message, "<non-string panic payload>");
    }
}
