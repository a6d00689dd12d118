//! Typed metric registry: counters and fixed-bucket latency histograms,
//! with a Prometheus-text snapshot exporter.
//!
//! Handles ([`Counter`], [`Histogram`]) are cheap `Arc` clones of
//! atomics, so instrumented hot paths pay one relaxed atomic op per update
//! and never take the registry lock. A handle obtained from a *disabled*
//! [`crate::Telemetry`] is a no-op, which keeps call sites unconditional.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Upper bounds (inclusive, nanoseconds) of the fixed histogram buckets:
/// 1µs … 100s in decades, plus an implicit `+Inf` overflow bucket.
pub const LATENCY_BUCKET_BOUNDS_NS: [u64; 9] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
];

/// A monotonically increasing counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// A handle that ignores all updates (used when telemetry is disabled).
    #[must_use]
    pub fn noop() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter.
    pub fn inc(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value (0 for a no-op handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Default)]
struct HistogramCell {
    /// One count per bound in [`LATENCY_BUCKET_BOUNDS_NS`] plus `+Inf`.
    buckets: [AtomicU64; LATENCY_BUCKET_BOUNDS_NS.len() + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket latency histogram handle (nanosecond observations).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// A handle that ignores all updates (used when telemetry is disabled).
    #[must_use]
    pub fn noop() -> Self {
        Self::default()
    }

    /// Records one observation of `nanos`.
    pub fn observe_nanos(&self, nanos: u64) {
        let Some(cell) = &self.cell else { return };
        let idx = LATENCY_BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| nanos <= bound)
            .unwrap_or(LATENCY_BUCKET_BOUNDS_NS.len());
        cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(nanos, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// A snapshot of one histogram, as captured by
/// [`MetricRegistry::histogram_snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (non-cumulative), `+Inf` last.
    pub buckets: Vec<u64>,
    /// Sum of all observed nanoseconds.
    pub sum_nanos: u64,
    /// Total number of observations.
    pub count: u64,
}

#[derive(Debug, Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
}

/// The shared metric registry behind a [`crate::Telemetry`] handle.
///
/// Metric names use dotted paths (`exec.calls`); [`render_text`]
/// sanitizes them to Prometheus identifiers (`exec_calls`).
///
/// [`render_text`]: MetricRegistry::render_text
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    inner: Arc<Registry>,
}

impl MetricRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (registering on first use) the counter named `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("counter map poisoned");
        let cell = map.entry(name.to_string()).or_default();
        Counter {
            cell: Some(Arc::clone(cell)),
        }
    }

    /// Returns (registering on first use) the histogram named `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self
            .inner
            .histograms
            .lock()
            .expect("histogram map poisoned");
        let cell = map.entry(name.to_string()).or_default();
        Histogram {
            cell: Some(Arc::clone(cell)),
        }
    }

    /// A snapshot of every counter, in name order.
    #[must_use]
    pub fn counter_snapshot(&self) -> BTreeMap<String, u64> {
        let map = self.inner.counters.lock().expect("counter map poisoned");
        map.iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect()
    }

    /// A snapshot of every histogram, in name order.
    #[must_use]
    pub fn histogram_snapshot(&self) -> BTreeMap<String, HistogramSnapshot> {
        let map = self
            .inner
            .histograms
            .lock()
            .expect("histogram map poisoned");
        map.iter()
            .map(|(name, cell)| {
                (
                    name.clone(),
                    HistogramSnapshot {
                        buckets: cell
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                        sum_nanos: cell.sum.load(Ordering::Relaxed),
                        count: cell.count.load(Ordering::Relaxed),
                    },
                )
            })
            .collect()
    }

    /// Renders every metric in the Prometheus text exposition format.
    ///
    /// Dotted metric names are sanitized (`.` → `_`); histogram buckets are
    /// cumulative with `le` labels in seconds, per convention.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counter_snapshot() {
            let id = sanitize(&name);
            let _ = writeln!(out, "# TYPE {id} counter");
            let _ = writeln!(out, "{id} {value}");
        }
        for (name, snap) in self.histogram_snapshot() {
            let id = sanitize(&name);
            let _ = writeln!(out, "# TYPE {id} histogram");
            let mut cumulative = 0u64;
            for (i, count) in snap.buckets.iter().enumerate() {
                cumulative += count;
                let le = LATENCY_BUCKET_BOUNDS_NS
                    .get(i)
                    .map_or("+Inf".to_string(), |&ns| format!("{}", ns as f64 / 1e9));
                let _ = writeln!(out, "{id}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{id}_sum {}", snap.sum_nanos as f64 / 1e9);
            let _ = writeln!(out, "{id}_count {}", snap.count);
        }
        out
    }
}

/// Maps a dotted metric name to a valid Prometheus identifier.
fn sanitize(name: &str) -> String {
    let mut id: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if id.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        id.insert(0, '_');
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_cells_by_name() {
        let registry = MetricRegistry::new();
        let a = registry.counter("exec.calls");
        let b = registry.counter("exec.calls");
        a.inc(3);
        b.inc(4);
        assert_eq!(a.get(), 7);
        assert_eq!(registry.counter_snapshot()["exec.calls"], 7);
    }

    #[test]
    fn noop_handles_ignore_updates() {
        let c = Counter::noop();
        c.inc(5);
        assert_eq!(c.get(), 0);
        let h = Histogram::noop();
        h.observe_nanos(1);
        assert!(h.cell.is_none());
    }

    #[test]
    fn histogram_buckets_and_render() {
        let registry = MetricRegistry::new();
        let h = registry.histogram("stage.wall_nanos");
        h.observe_nanos(500); // ≤ 1µs bucket
        h.observe_nanos(2_000_000); // ≤ 10ms bucket
        h.observe_nanos(u64::MAX / 2); // +Inf bucket
        let snap = &registry.histogram_snapshot()["stage.wall_nanos"];
        assert_eq!(snap.count, 3);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[LATENCY_BUCKET_BOUNDS_NS.len()], 1);

        registry.counter("exec.calls").inc(2);
        let text = registry.render_text();
        assert!(text.contains("# TYPE exec_calls counter\nexec_calls 2\n"));
        assert!(text.contains("stage_wall_nanos_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("stage_wall_nanos_count 3"));
    }
}
