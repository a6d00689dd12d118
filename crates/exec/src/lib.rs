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
//! # Fault containment
//!
//! Panics and cancellation are part of the execution contract rather than
//! process-fatal events. The isolated combinators
//! ([`Exec::par_map_isolated`], [`Exec::try_par_map`]) wrap each task in
//! [`std::panic::catch_unwind`] and convert a panic into a [`TaskError`]
//! carrying the task index and payload message, so one exploding task cannot
//! tear down the pool. A cooperative [`CancelToken`] (shared via
//! [`Exec::cancel_token`]) is consulted at chunk and task boundaries; after
//! it fires, unstarted tasks report [`TaskFailure::Cancelled`]. The legacy
//! infallible combinators still propagate panics, but re-raised with the
//! failing task index and message attached instead of a bare join failure.
//! [`ExecStats`] counts both contained panics and cancelled tasks.
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
pub use seed::{split_seed, SeedStream};
pub use stats::ExecStats;
pub use task::{catch_task, CancelToken, TaskError, TaskFailure};

/// Environment variable consulted by [`Exec::new`] when the thread knob is 0.
pub const THREADS_ENV_VAR: &str = "DETERRENT_THREADS";
