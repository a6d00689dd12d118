//! The scoped-thread execution pool.

use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use telemetry::{Counter, SpanContext, Telemetry};

use crate::stats::StatsCell;
use crate::task::{catch_task, payload_message};
use crate::{ExecStats, THREADS_ENV_VAR};

/// The chunk-splitting rule of [`Exec`]: `0..n` divides into contiguous
/// ranges of this length (the last possibly shorter), one per worker.
fn chunk_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads.min(n))
}

/// Pre-resolved telemetry handles so the hot dispatch path pays one branch
/// when telemetry is off and no registry lookups when it is on.
#[derive(Debug)]
struct ExecTelemetry {
    telemetry: Telemetry,
    /// Span to parent `exec.call` dispatch spans under (a session's stage
    /// context, a campaign attempt, …); `None` emits root spans.
    parent: Option<SpanContext>,
    calls: Counter,
    tasks: Counter,
}

/// A deterministic parallel executor with a fixed worker count.
///
/// `Exec` owns no long-lived threads: every parallel call spawns scoped
/// workers (joined before the call returns), so borrowing local data in task
/// closures works naturally and a dropped `Exec` leaks nothing. Splitting is
/// *static* — an index range is divided into one contiguous chunk per worker
/// and results are merged in chunk order — so outputs are independent of
/// scheduling and thread count.
///
/// A panicking task propagates to the caller, re-raised with its task index
/// and message attached; callers that need a failure domain of their own
/// wrap the task body in [`crate::catch_task`].
#[derive(Debug)]
pub struct Exec {
    threads: usize,
    stats: StatsCell,
    telemetry: Option<Box<ExecTelemetry>>,
}

impl Default for Exec {
    fn default() -> Self {
        Self::new(0)
    }
}

impl Exec {
    /// Creates an executor with `threads` workers.
    ///
    /// `0` means "auto": the `DETERRENT_THREADS` environment variable when
    /// set to a positive integer, otherwise
    /// [`std::thread::available_parallelism`].
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = if threads > 0 {
            threads
        } else {
            std::env::var(THREADS_ENV_VAR)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&t| t > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                })
        };
        Self {
            threads,
            stats: StatsCell::default(),
            telemetry: None,
        }
    }

    /// An executor that runs everything inline on the calling thread,
    /// ignoring the environment. Useful as the serial reference in
    /// determinism tests and for callers that must not spawn.
    #[must_use]
    pub fn serial() -> Self {
        Self {
            threads: 1,
            stats: StatsCell::default(),
            telemetry: None,
        }
    }

    /// Attaches a telemetry handle. Every parallel dispatch then emits one
    /// `exec.call` span (child of `parent` when given) and maintains the
    /// `exec.calls` / `exec.tasks` counters, mirroring [`ExecStats`]
    /// exactly; the call's wall time is the span's `wall_ns` vary key.
    /// Telemetry is strictly out-of-band: chunking, ordering, and results
    /// are unaffected.
    /// A disabled handle detaches.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, parent: Option<SpanContext>) {
        self.telemetry = telemetry.is_enabled().then(|| {
            Box::new(ExecTelemetry {
                calls: telemetry.counter("exec.calls"),
                tasks: telemetry.counter("exec.tasks"),
                parent,
                telemetry,
            })
        });
    }

    /// The resolved worker count (always at least 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the accumulated task/timing counters.
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        self.stats.snapshot()
    }

    /// Splits `0..n` into one contiguous range per worker, runs `work` on
    /// each range concurrently, and returns the per-range results **in range
    /// order**.
    ///
    /// This is the primitive the other combinators build on. The caller's
    /// `work` must make each range's result independent of how `0..n` was
    /// chunked (e.g. fold with an associative operation, or return per-index
    /// values) — then the merged output is bit-identical at any thread
    /// count.
    ///
    /// # Panics
    ///
    /// A panic inside `work` propagates to the caller, re-raised with the
    /// failing task range and the downcast payload message attached (the
    /// original payload text is preserved as a substring).
    pub fn par_ranges<R, F>(&self, n: usize, work: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let span = self.telemetry.as_ref().map(|t| {
            let mut span = match &t.parent {
                Some(ctx) => t.telemetry.child_span(ctx, "exec.call"),
                None => t.telemetry.span("exec.call"),
            };
            span.attr_u64("tasks", n as u64);
            // Whether a dispatch happens at all can depend on which
            // session computed a shared artifact first, so dispatch spans
            // opt out of the canonical (thread-invariance) projection.
            span.vary(telemetry::NONDET_VARY_KEY, telemetry::Value::Bool(true));
            span
        });
        let busy_before = self
            .telemetry
            .as_ref()
            .map(|_| self.stats.snapshot().busy_nanos);
        let call_start = Instant::now();
        let results = if n == 0 {
            Vec::new()
        } else if self.threads <= 1 || n == 1 {
            let busy_start = Instant::now();
            let r = work(0..n);
            self.stats
                .record_busy(busy_start.elapsed().as_nanos() as u64);
            vec![r]
        } else {
            let chunk = chunk_size(n, self.threads);
            let work = &work;
            let stats = &self.stats;
            crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .step_by(chunk)
                    .map(|lo| {
                        let hi = (lo + chunk).min(n);
                        let handle = scope.spawn(move |_| {
                            let busy_start = Instant::now();
                            let r = work(lo..hi);
                            stats.record_busy(busy_start.elapsed().as_nanos() as u64);
                            r
                        });
                        (lo..hi, handle)
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|(range, h)| {
                        h.join().unwrap_or_else(|payload| {
                            panic!(
                                "exec worker panicked on tasks {}..{}: {}",
                                range.start,
                                range.end,
                                payload_message(payload.as_ref())
                            )
                        })
                    })
                    .collect()
            })
            .expect("exec thread scope")
        };
        let wall_ns = call_start.elapsed().as_nanos() as u64;
        self.stats.record_call(n as u64, wall_ns);
        if let Some(t) = &self.telemetry {
            t.calls.inc(1);
            t.tasks.inc(n as u64);
            if let Some(mut span) = span {
                span.vary_u64("wall_ns", wall_ns);
                if let Some(before) = busy_before {
                    let busy = self.stats.snapshot().busy_nanos.saturating_sub(before);
                    span.vary_u64("busy_ns", busy);
                }
                span.close();
            }
        }
        results
    }

    /// Applies `f` to every index in `0..n` and returns the results in index
    /// order.
    ///
    /// # Panics
    ///
    /// A panic inside `f` propagates to the caller, re-raised with the exact
    /// failing index and the downcast payload message attached.
    pub fn par_index_map<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.par_ranges(n, |range| {
            range
                .map(|i| catch_task(i, || f(i)).unwrap_or_else(|e| panic!("exec {e}")))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Applies `f(index, item)` to every item and returns the results in
    /// item order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.par_index_map(items.len(), |i| f(i, &items[i]))
    }

    /// Like [`Exec::par_map`], but each worker first builds one scratch
    /// value with `init` and reuses it across all its items — the pattern
    /// for expensive per-thread state such as packed-word simulation
    /// buffers.
    ///
    /// `f` must not let the result depend on the scratch *history* (only on
    /// the current item), otherwise chunk boundaries would leak into the
    /// output.
    pub fn par_map_with<S, T, R, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        self.par_ranges(items.len(), |range| {
            let mut scratch = init();
            range
                .map(|i| f(&mut scratch, i, &items[i]))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Runs `a` and `b` as two tasks — concurrently when the executor has
    /// more than one worker, one after the other otherwise — and returns
    /// both results. Each closure may hold its own `&mut` borrows, so two
    /// computations over disjoint state (a policy network and a value
    /// network, say) can proceed side by side. When each task's result
    /// depends only on its own inputs, neither depends on the thread count.
    ///
    /// # Panics
    ///
    /// A panic inside either task propagates like [`Exec::par_index_map`]'s,
    /// naming task 0 (`a`) or task 1 (`b`).
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        enum Either<L, R> {
            Left(L),
            Right(R),
        }
        // `par_index_map` wants a shared `Fn`; each cell hands its `FnOnce`
        // to the one task that runs it.
        fn take<F>(cell: &Mutex<Option<F>>) -> F {
            cell.lock()
                .expect("a join cell is locked only to take its task")
                .take()
                .expect("each join task runs once")
        }
        let a = Mutex::new(Some(a));
        let b = Mutex::new(Some(b));
        let mut results = self
            .par_index_map(2, |i| {
                if i == 0 {
                    Either::Left(take(&a)())
                } else {
                    Either::Right(take(&b)())
                }
            })
            .into_iter();
        match (results.next(), results.next()) {
            (Some(Either::Left(ra)), Some(Either::Right(rb))) => (ra, rb),
            _ => unreachable!("par_index_map returns results in index order"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split_seed;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn resolves_thread_counts() {
        assert_eq!(Exec::new(3).threads(), 3);
        assert_eq!(Exec::serial().threads(), 1);
        assert!(Exec::new(0).threads() >= 1);
    }

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let reference: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let exec = Exec::new(threads);
            assert_eq!(exec.par_map(&items, |_, &x| x * 3 + 1), reference);
        }
    }

    #[test]
    fn par_ranges_covers_exactly_once() {
        let exec = Exec::new(4);
        let ranges = exec.par_ranges(10, |r| r);
        let flat: Vec<usize> = ranges.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
        assert!(exec.par_ranges(0, |r| r).is_empty());
    }

    #[test]
    fn seeded_work_is_thread_count_independent() {
        let run = |threads| {
            Exec::new(threads).par_index_map(64, |i| {
                // Stand-in for per-chunk RNG streams.
                split_seed(0xDEAD, i as u64).wrapping_mul(i as u64 + 1)
            })
        };
        assert_eq!(run(1), run(4));
        assert_eq!(run(1), run(7));
    }

    #[test]
    fn par_map_with_builds_one_scratch_per_worker() {
        let inits = AtomicUsize::new(0);
        let exec = Exec::new(4);
        let items: Vec<u32> = (0..100).collect();
        let out = exec.par_map_with(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<u32>::with_capacity(8)
            },
            |scratch, _, &x| {
                scratch.clear();
                scratch.push(x);
                scratch[0] + 1
            },
        );
        assert_eq!(out, (1..=100).collect::<Vec<_>>());
        assert!(inits.load(Ordering::Relaxed) <= 4, "at most one per worker");
    }

    #[test]
    fn join_runs_both_tasks_with_mutable_borrows() {
        for threads in [1, 2, 4] {
            let exec = Exec::new(threads);
            let (mut left, mut right) = (vec![1u64, 2], vec![3u64]);
            let (a, b) = exec.join(
                || {
                    left.push(10);
                    left.iter().sum::<u64>()
                },
                || {
                    right.push(20);
                    right.len()
                },
            );
            assert_eq!((a, b), (13, 2), "{threads} threads");
            assert_eq!((left.len(), right.len()), (3, 2));
            assert_eq!(exec.stats().tasks, 2);
        }
    }

    #[test]
    #[should_panic(expected = "task 1")]
    fn join_reports_the_panicking_task() {
        let _ = Exec::new(2).join(|| 0, || -> u32 { panic!("right side") });
    }

    #[test]
    fn stats_count_calls_and_tasks() {
        let exec = Exec::new(2);
        let _ = exec.par_index_map(10, |i| i);
        let _ = exec.par_index_map(5, |i| i);
        let s = exec.stats();
        assert_eq!(s.calls, 2);
        assert_eq!(s.tasks, 15);
        assert!(s.speedup() > 0.0);
    }

    #[test]
    fn telemetry_counters_mirror_exec_stats() {
        use telemetry::{MemorySink, Telemetry};
        for threads in [1, 4] {
            let sink = MemorySink::new();
            let tele = Telemetry::new(vec![Box::new(sink.clone())]);
            let mut exec = Exec::new(threads);
            exec.set_telemetry(tele.clone(), None);
            let items: Vec<u32> = (0..32).collect();
            let _ = exec.par_map(&items, |_, &x| x);
            let _ = exec.par_index_map(8, |i| i);
            let stats = exec.stats();
            assert_eq!((stats.calls, stats.tasks), (2, 40));
            assert_eq!(tele.counter("exec.calls").get(), stats.calls);
            assert_eq!(tele.counter("exec.tasks").get(), stats.tasks);
            // One "exec.call" span per dispatch, with the task count as a
            // deterministic attribute.
            let spans: Vec<_> = sink
                .events()
                .into_iter()
                .filter(|e| e.name == "exec.call")
                .collect();
            assert_eq!(spans.len() as u64, stats.calls, "threads={threads}");
            assert_eq!(spans[0].attr_u64("tasks"), Some(32));
        }
    }

    #[test]
    #[should_panic(expected = "task 7 panicked: kaboom")]
    fn legacy_path_reports_failing_index_and_message() {
        let _ = Exec::new(4).par_index_map(32, |i| {
            assert!(i != 7, "kaboom");
            i
        });
    }
}
