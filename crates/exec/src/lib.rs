//! Deterministic parallel execution runtime for the DETERRENT workspace.
//!
//! The paper parallelizes its dominant offline cost over 64 processes; this
//! crate is the reproduction's equivalent — a small runtime that lets every
//! hot path (Monte-Carlo probability estimation, the compatibility funnel's
//! witness sweeps and cone enumeration, PPO rollout collection) scale with
//! the hardware while keeping one invariant:
//!
//! > **Results are bit-identical at any thread count.**
//!
//! Three design rules make that hold:
//!
//! 1. **Static chunking, ordered merge.** [`Exec::par_ranges`] splits an
//!    index range into contiguous chunks and returns per-chunk results *in
//!    chunk order*, so callers reassemble outputs positionally instead of in
//!    completion order.
//! 2. **Seed splitting.** [`split_seed`] derives an independent RNG stream
//!    per *task index* (not per worker), so random-pattern generation does
//!    not depend on which thread ran which task.
//! 3. **Per-task purity.** Workers may keep mutable scratch state (see
//!    [`Exec::par_map_with`]) but each task's result must be a function of
//!    the task index and inputs only.
//!
//! The thread count is a single knob: `0` resolves to the
//! `DETERRENT_THREADS` environment variable when set, otherwise to
//! [`std::thread::available_parallelism`]. Every parallel call records task
//! and timing counters in an [`ExecStats`] surface for speedup reporting.
//!
//! [`Exec`] is the one executor: it spawns scoped threads per call (nothing
//! to hold between calls, ~20–100 µs to dispatch) and splits work with one
//! static chunk rule, so a caller's results depend only on the inputs.
//!
//! # Failures
//!
//! Every combinator has one failure contract: a panicking task propagates
//! to the caller, re-raised with the failing task index and the downcast
//! payload message attached instead of a bare join failure. Containing a
//! panic is the caller's choice: [`catch_task`] runs one task body under
//! [`std::panic::catch_unwind`] and returns a [`TaskError`] carrying the
//! index and message, which is how the campaign gives each cell attempt its
//! own failure domain.
//!
//! # Example
//!
//! ```
//! use exec::{split_seed, Exec};
//!
//! let exec = Exec::new(2);
//! let squares = exec.par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Per-task seed streams are independent of the thread count.
//! let a = Exec::new(1).par_index_map(8, |i| split_seed(7, i as u64));
//! let b = Exec::new(4).par_index_map(8, |i| split_seed(7, i as u64));
//! assert_eq!(a, b);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;
mod seed;
mod stats;
mod task;

pub use pool::Exec;
pub use seed::split_seed;
pub use stats::ExecStats;
pub use task::{catch_task, TaskError};

/// Environment variable consulted by [`Exec::new`] when the thread knob is 0.
pub const THREADS_ENV_VAR: &str = "DETERRENT_THREADS";
