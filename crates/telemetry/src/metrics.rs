//! Typed metric registry: monotonic counters, with a Prometheus-text
//! snapshot exporter.
//!
//! A [`Counter`] handle is a cheap `Arc` clone of an atomic, so
//! instrumented hot paths pay one relaxed atomic op per update and never
//! take the registry lock. A handle obtained from a *disabled*
//! [`crate::Telemetry`] is a no-op, which keeps call sites unconditional.
//! Wall times are not metrics: they are `vary` keys on the spans that
//! measured them, so a metrics snapshot of a deterministic run is itself
//! deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

/// The shared metric registry behind a [`crate::Telemetry`] handle.
///
/// Metric names use dotted paths (`exec.calls`); [`render_text`]
/// sanitizes them to Prometheus identifiers (`exec_calls`).
///
/// [`render_text`]: MetricRegistry::render_text
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    counters: Arc<Mutex<BTreeMap<String, Arc<AtomicU64>>>>,
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
        let mut map = self.counters.lock().expect("counter map poisoned");
        let cell = map.entry(name.to_string()).or_default();
        Counter {
            cell: Some(Arc::clone(cell)),
        }
    }

    /// A snapshot of every counter, in name order.
    #[must_use]
    pub fn counter_snapshot(&self) -> BTreeMap<String, u64> {
        let map = self.counters.lock().expect("counter map poisoned");
        map.iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect()
    }

    /// Renders every metric in the Prometheus text exposition format.
    ///
    /// Dotted metric names are sanitized (`.` → `_`).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counter_snapshot() {
            let id = sanitize(&name);
            let _ = writeln!(out, "# TYPE {id} counter");
            let _ = writeln!(out, "{id} {value}");
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
        assert!(c.cell.is_none());
    }

    #[test]
    fn counters_render_as_prometheus_text() {
        let registry = MetricRegistry::new();
        registry.counter("exec.calls").inc(2);
        registry.counter("campaign.cells").inc(8);
        assert_eq!(
            registry.render_text(),
            "# TYPE campaign_cells counter\ncampaign_cells 8\n\
             # TYPE exec_calls counter\nexec_calls 2\n"
        );
    }
}
