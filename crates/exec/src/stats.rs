//! Task and timing counters of an [`crate::Exec`] runtime.

use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of the work an [`crate::Exec`] has performed so far.
///
/// `busy_nanos` sums the wall time of every worker chunk, while `wall_nanos`
/// sums the wall time of the parallel calls themselves — their ratio is the
/// realized parallel speedup over a hypothetical serial execution of the
/// same chunks (1.0 on one thread, approaching the thread count under
/// perfect scaling).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of parallel calls (`par_ranges` / `par_map` / …) issued.
    pub calls: u64,
    /// Total tasks (item or index units) processed across all calls.
    pub tasks: u64,
    /// Summed wall time of all worker chunks, in nanoseconds.
    pub busy_nanos: u64,
    /// Summed wall time of the parallel calls, in nanoseconds.
    pub wall_nanos: u64,
}

impl ExecStats {
    /// The work done between `before` and `self`, each field saturating at
    /// zero.
    #[must_use]
    pub fn since(self, before: ExecStats) -> ExecStats {
        ExecStats {
            calls: self.calls.saturating_sub(before.calls),
            tasks: self.tasks.saturating_sub(before.tasks),
            busy_nanos: self.busy_nanos.saturating_sub(before.busy_nanos),
            wall_nanos: self.wall_nanos.saturating_sub(before.wall_nanos),
        }
    }

    /// Realized speedup: worker-busy time divided by call wall time.
    ///
    /// Returns 1.0 when nothing has run yet.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 1.0;
        }
        self.busy_nanos as f64 / self.wall_nanos as f64
    }
}

/// Interior-mutable accumulator behind `&Exec`.
#[derive(Debug, Default)]
pub(crate) struct StatsCell {
    calls: AtomicU64,
    tasks: AtomicU64,
    busy_nanos: AtomicU64,
    wall_nanos: AtomicU64,
}

impl StatsCell {
    pub(crate) fn record_call(&self, tasks: u64, wall_nanos: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.tasks.fetch_add(tasks, Ordering::Relaxed);
        self.wall_nanos.fetch_add(wall_nanos, Ordering::Relaxed);
    }

    pub(crate) fn record_busy(&self, busy_nanos: u64) {
        self.busy_nanos.fetch_add(busy_nanos, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ExecStats {
        ExecStats {
            calls: self.calls.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
            wall_nanos: self.wall_nanos.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_of_empty_stats_is_one() {
        assert_eq!(ExecStats::default().speedup(), 1.0);
    }

    #[test]
    fn cell_accumulates_calls_and_busy_time() {
        let cell = StatsCell::default();
        cell.record_call(10, 100);
        cell.record_busy(300);
        let s = cell.snapshot();
        assert_eq!(s.calls, 1);
        assert_eq!(s.tasks, 10);
        assert_eq!(s.wall_nanos, 100);
        assert_eq!(s.busy_nanos, 300);
        assert!((s.speedup() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn since_subtracts_every_field_and_saturates() {
        let before = ExecStats {
            calls: 1,
            tasks: 10,
            busy_nanos: 300,
            wall_nanos: 100,
        };
        let after = ExecStats {
            calls: 3,
            tasks: 25,
            busy_nanos: 900,
            wall_nanos: 50,
        };
        let delta = after.since(before);
        assert_eq!(
            delta,
            ExecStats {
                calls: 2,
                tasks: 15,
                busy_nanos: 600,
                wall_nanos: 0,
            }
        );
        assert_eq!(before.since(after).calls, 0);
    }
}
