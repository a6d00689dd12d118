//! Unified telemetry for the DETERRENT reproduction: hierarchical spans,
//! a typed metric registry, and machine-readable run traces.
//!
//! The repo's determinism contract — bit-identical results at any thread
//! count — forces observability to be **strictly out-of-band**: nothing
//! here may touch report stdout or alter computation. This crate therefore
//! separates every recorded fact into either a deterministic attribute
//! (`attrs`, identical at any thread count) or a nondeterministic one
//! (`vary`: wall times, span ids, shared-counter deltas), and CI compares
//! the canonical projection of a trace at threads 1 vs 4 byte-for-byte
//! (see [`canonicalize_trace`] and the `trace-check` binary).
//!
//! # Handles
//!
//! [`Telemetry`] is a cheap clonable handle; [`Telemetry::disabled`] makes
//! every operation a no-op so instrumented code never branches on an
//! `Option`. An enabled handle fans each closed [`Span`] out to its
//! [`TraceSink`]s ([`JsonlSink`] for `--trace-out`, adapters for stderr
//! rendering) and shares one [`MetricRegistry`] whose [`Counter`] handles
//! are lock-free atomics.
//!
//! ```
//! use telemetry::{MemorySink, Telemetry};
//!
//! let sink = MemorySink::new();
//! let telemetry = Telemetry::new(vec![Box::new(sink.clone())]);
//! let mut span = telemetry.span("campaign");
//! span.attr_u64("cells", 8);
//! let mut child = span.child("cell.0");
//! child.attr_str("outcome", "ok");
//! telemetry.counter("campaign.cells").inc(1);
//! child.close();
//! span.close();
//! telemetry.flush_metrics();
//!
//! let events = sink.events();
//! assert_eq!(events.len(), 3); // cell.0, campaign, metrics flush
//! assert_eq!(events[0].path, "campaign/cell.0");
//! assert_eq!(events[2].attr_u64("campaign.cells"), Some(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod metrics;
mod sink;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub use event::{
    canonicalize_trace, parse_trace, EventKind, TraceEvent, NONDET_VARY_KEY, TRACE_SCHEMA_VERSION,
};
pub use json::{obj, Value};
pub use metrics::{Counter, MetricRegistry};
pub use sink::{JsonlSink, MemorySink, TraceSink};

/// Environment variable naming a JSONL trace output file; binaries honor
/// it as the default for their `--trace-out` flag.
pub const TRACE_OUT_ENV_VAR: &str = "DETERRENT_TRACE_OUT";

struct Shared {
    sinks: Vec<Box<dyn TraceSink>>,
    next_id: AtomicU64,
    epoch: Instant,
    metrics: MetricRegistry,
}

/// A clonable telemetry handle: span factory, metric registry, and sink
/// fan-out. See the crate docs for the usage model.
#[derive(Clone, Default)]
pub struct Telemetry {
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A handle on which every operation is a no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled handle fanning events out to `sinks` (which may be
    /// empty — metrics still accumulate).
    #[must_use]
    pub fn new(sinks: Vec<Box<dyn TraceSink>>) -> Self {
        Self {
            shared: Some(Arc::new(Shared {
                sinks,
                next_id: AtomicU64::new(1),
                epoch: Instant::now(),
                metrics: MetricRegistry::new(),
            })),
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The metric registry, if enabled.
    #[must_use]
    pub fn metrics(&self) -> Option<&MetricRegistry> {
        self.shared.as_ref().map(|s| &s.metrics)
    }

    /// The counter named `name` (a no-op handle when disabled).
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        self.metrics()
            .map_or_else(Counter::noop, |m| m.counter(name))
    }

    /// Opens a root span named `name`.
    #[must_use]
    pub fn span(&self, name: &str) -> Span {
        self.open_span(name, 0, name.to_string())
    }

    /// Opens a span named `name` under the span identified by `parent`.
    #[must_use]
    pub fn child_span(&self, parent: &SpanContext, name: &str) -> Span {
        if parent.path.is_empty() {
            return self.span(name);
        }
        self.open_span(name, parent.id, format!("{}/{name}", parent.path))
    }

    fn open_span(&self, name: &str, parent: u64, path: String) -> Span {
        let Some(shared) = &self.shared else {
            return Span { state: None };
        };
        let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
        Span {
            state: Some(SpanState {
                telemetry: self.clone(),
                id,
                parent,
                name: name.to_string(),
                path,
                start: Instant::now(),
                start_ns: shared.epoch.elapsed().as_nanos() as u64,
                attrs: BTreeMap::new(),
                vary: BTreeMap::new(),
            }),
        }
    }

    /// Emits a `metrics` event carrying a snapshot of the registry's
    /// counters in `attrs`, then flushes the sinks. A no-op when disabled.
    pub fn flush_metrics(&self) {
        let Some(shared) = &self.shared else { return };
        let mut attrs = BTreeMap::new();
        for (name, value) in shared.metrics.counter_snapshot() {
            attrs.insert(name, Value::u64(value));
        }
        let event = TraceEvent {
            kind: EventKind::Metrics,
            name: "registry".to_string(),
            path: "metrics".to_string(),
            id: shared.next_id.fetch_add(1, Ordering::Relaxed),
            parent: 0,
            start_ns: shared.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
            attrs,
            vary: BTreeMap::new(),
        };
        self.emit(&event);
        self.flush();
    }

    /// Flushes every sink.
    pub fn flush(&self) {
        if let Some(shared) = &self.shared {
            for sink in &shared.sinks {
                sink.flush();
            }
        }
    }

    fn emit(&self, event: &TraceEvent) {
        if let Some(shared) = &self.shared {
            for sink in &shared.sinks {
                sink.event(event);
            }
        }
    }
}

/// The identity of an open span, used to parent children created in other
/// components. For a disabled handle the context is empty and children
/// created from it are no-ops too.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanContext {
    /// Span id (0 when disabled).
    pub id: u64,
    /// Slash-joined path from the root (empty when disabled).
    pub path: String,
}

struct SpanState {
    telemetry: Telemetry,
    id: u64,
    parent: u64,
    name: String,
    path: String,
    start: Instant,
    start_ns: u64,
    attrs: BTreeMap<String, Value>,
    vary: BTreeMap<String, Value>,
}

/// An open span. Closing (or dropping) it emits one [`TraceEvent`] to
/// every sink; spans from a disabled [`Telemetry`] do nothing.
///
/// Keep deterministic facts in `attr_*` and anything that can differ
/// between equally-seeded runs (timings, shared-counter deltas, error
/// text) in `vary_*` — the thread-invariance CI gate compares only the
/// former.
pub struct Span {
    state: Option<SpanState>,
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut dbg = f.debug_struct("Span");
        if let Some(state) = &self.state {
            dbg.field("path", &state.path).field("id", &state.id);
        }
        dbg.finish_non_exhaustive()
    }
}

impl Span {
    /// This span's identity, for parenting children elsewhere.
    #[must_use]
    pub fn context(&self) -> SpanContext {
        self.state
            .as_ref()
            .map_or_else(SpanContext::default, |s| SpanContext {
                id: s.id,
                path: s.path.clone(),
            })
    }

    /// Opens a child span.
    #[must_use]
    pub fn child(&self, name: &str) -> Span {
        match &self.state {
            Some(state) => state.telemetry.child_span(&self.context(), name),
            None => Span { state: None },
        }
    }

    /// Sets a deterministic attribute.
    pub fn attr(&mut self, key: &str, value: Value) {
        if let Some(state) = &mut self.state {
            state.attrs.insert(key.to_string(), value);
        }
    }

    /// Sets a deterministic `u64` attribute.
    pub fn attr_u64(&mut self, key: &str, value: u64) {
        self.attr(key, Value::u64(value));
    }

    /// Sets a deterministic `f64` attribute.
    pub fn attr_f64(&mut self, key: &str, value: f64) {
        self.attr(key, Value::f64(value));
    }

    /// Sets a deterministic string attribute.
    pub fn attr_str(&mut self, key: &str, value: &str) {
        self.attr(key, Value::str(value));
    }

    /// Sets a deterministic bool attribute.
    pub fn attr_bool(&mut self, key: &str, value: bool) {
        self.attr(key, Value::Bool(value));
    }

    /// Sets a nondeterministic attribute.
    pub fn vary(&mut self, key: &str, value: Value) {
        if let Some(state) = &mut self.state {
            state.vary.insert(key.to_string(), value);
        }
    }

    /// Sets a nondeterministic `u64` attribute.
    pub fn vary_u64(&mut self, key: &str, value: u64) {
        self.vary(key, Value::u64(value));
    }

    /// Sets a nondeterministic string attribute.
    pub fn vary_str(&mut self, key: &str, value: &str) {
        self.vary(key, Value::str(value));
    }

    /// Closes the span, emitting its event with the measured duration.
    pub fn close(mut self) {
        self.finish(EventKind::Span);
    }

    /// Emits the span as an instantaneous mark (`dur_ns` = 0) instead of
    /// an interval — for point events like a cell starting.
    pub fn mark(mut self) {
        self.finish(EventKind::Mark);
    }

    fn finish(&mut self, kind: EventKind) {
        let Some(state) = self.state.take() else {
            return;
        };
        let dur_ns = match kind {
            EventKind::Span => state.start.elapsed().as_nanos() as u64,
            _ => 0,
        };
        let event = TraceEvent {
            kind,
            name: state.name,
            path: state.path,
            id: state.id,
            parent: state.parent,
            start_ns: state.start_ns,
            dur_ns,
            attrs: state.attrs,
            vary: state.vary,
        };
        state.telemetry.emit(&event);
    }
}

impl Drop for Span {
    /// A span dropped without an explicit [`Span::close`] (early return,
    /// unwinding) still emits its event.
    fn drop(&mut self) {
        self.finish(EventKind::Span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.is_enabled());
        let mut span = telemetry.span("root");
        span.attr_u64("x", 1);
        let child = telemetry.child_span(&span.context(), "child");
        assert_eq!(child.context(), SpanContext::default());
        child.close();
        span.close();
        telemetry.counter("c").inc(5);
        assert_eq!(telemetry.counter("c").get(), 0);
        telemetry.flush_metrics();
    }

    #[test]
    fn spans_nest_and_emit_on_close_or_drop() {
        let sink = MemorySink::new();
        let telemetry = Telemetry::new(vec![Box::new(sink.clone())]);
        let root = telemetry.span("campaign");
        let ctx = root.context();
        {
            let mut child = telemetry.child_span(&ctx, "cell.1");
            child.attr_str("outcome", "ok");
            // Dropped, not closed: must still emit.
        }
        root.close();
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "cell.1");
        assert_eq!(events[0].path, "campaign/cell.1");
        assert_eq!(events[0].parent, ctx.id);
        assert_eq!(events[0].attr_str("outcome"), Some("ok"));
        assert_eq!(events[1].name, "campaign");
        assert_eq!(events[1].parent, 0);
    }

    #[test]
    fn marks_have_zero_duration() {
        let sink = MemorySink::new();
        let telemetry = Telemetry::new(vec![Box::new(sink.clone())]);
        telemetry.span("cell_start").mark();
        let events = sink.events();
        assert_eq!(events[0].kind, EventKind::Mark);
        assert_eq!(events[0].dur_ns, 0);
    }

    #[test]
    fn metrics_flush_snapshots_registry() {
        let sink = MemorySink::new();
        let telemetry = Telemetry::new(vec![Box::new(sink.clone())]);
        telemetry.counter("exec.calls").inc(3);
        telemetry.flush_metrics();
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Metrics);
        assert_eq!(events[0].attr_u64("exec.calls"), Some(3));
        assert!(
            events[0].vary.is_empty(),
            "a counter snapshot has no wall times"
        );
    }

    #[test]
    fn lines_validate_against_the_schema() {
        let sink = MemorySink::new();
        let telemetry = Telemetry::new(vec![Box::new(sink.clone())]);
        let mut span = telemetry.span("analyze");
        span.attr_bool("cache_hit", true);
        span.vary_u64("wall_ns", 12);
        span.close();
        telemetry.flush_metrics();
        for event in sink.events() {
            let parsed = TraceEvent::parse_line(&event.to_line()).unwrap();
            assert_eq!(parsed, event);
        }
    }
}
