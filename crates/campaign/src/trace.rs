//! Stderr rendering of campaign progress from the run's telemetry.
//!
//! [`StderrTraceSink`] turns trace events into the `[campaign] …` progress
//! lines the CLI prints. Every input of a line comes from event
//! attributes; the θ token is carried verbatim as the raw JSON number, so
//! `θ=0.18` round-trips exactly.

use deterrent_core::Stage;
use telemetry::{EventKind, TraceEvent, TraceSink, Value};

/// A [`TraceSink`] that renders campaign trace events as the
/// `[campaign] …` stderr progress lines.
///
/// Rendering rules:
///
/// * a `cell_start` mark → the `cell N start:` line;
/// * a closed pipeline-stage span under a `cell.N` path → the
///   `cell N <stage>:` line (`warm`/`computed` from the `cache_hit` attr,
///   wall seconds from the span's `wall_ns`);
/// * a closed `cell.N` span → the `cell N done:` line — except cancelled
///   cells, which never started.
///
/// Everything else (attempt spans, `exec.call` dispatch spans, metric
/// flushes) renders nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrTraceSink;

impl StderrTraceSink {
    /// Constructs the sink.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl TraceSink for StderrTraceSink {
    fn event(&self, event: &TraceEvent) {
        if let Some(line) = render_trace_line(event) {
            eprintln!("{line}");
        }
    }
}

/// Renders one trace event as its stderr progress line, or `None` for
/// events the progress stream does not report.
pub(crate) fn render_trace_line(event: &TraceEvent) -> Option<String> {
    match event.kind {
        EventKind::Mark if event.name == "cell_start" => {
            let Some(Value::Num(theta)) = event.attrs.get("theta") else {
                return None;
            };
            Some(format!(
                "[campaign] cell {} start: {} θ={theta} seed={}",
                event.attr_u64("index")?,
                event.attr_str("netlist")?,
                event.attr_u64("seed")?,
            ))
        }
        EventKind::Span if Stage::ALL.iter().any(|s| s.name() == event.name) => {
            let index = cell_index_of(&event.path)?;
            let wall_seconds = event.vary_u64("wall_ns")? as f64 / 1e9;
            let cache_hit = event.vary.get("cache_hit").and_then(Value::as_bool)?;
            Some(format!(
                "[campaign] cell {index} {}: {} in {wall_seconds:.3}s",
                event.name,
                if cache_hit { "warm" } else { "computed" }
            ))
        }
        EventKind::Span if event.name.starts_with("cell.") => {
            if event.attrs.contains_key("cancelled") {
                return None;
            }
            Some(format!(
                "[campaign] cell {} done: {} rare nets, {} sets, {} patterns",
                event.attr_u64("index")?,
                event.attr_u64("rare_nets")?,
                event.attr_u64("sets")?,
                event.attr_u64("patterns")?,
            ))
        }
        _ => None,
    }
}

/// Extracts `N` from the first `cell.N` segment of a span path
/// (`campaign/cell.3/attempt.0/train` → `3`).
fn cell_index_of(path: &str) -> Option<usize> {
    path.split('/')
        .find_map(|segment| segment.strip_prefix("cell."))
        .and_then(|n| n.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{MemorySink, Telemetry};

    #[test]
    fn renders_the_three_legacy_lines() {
        let sink = MemorySink::new();
        let tele = Telemetry::new(vec![Box::new(sink.clone())]);
        let mut cell = tele.span("cell.3");
        cell.attr_u64("index", 3);
        cell.attr_str("netlist", "c2670");
        cell.attr_f64("theta", 0.18);
        cell.attr_u64("seed", 7);

        let mut start = cell.child("cell_start");
        start.attr_u64("index", 3);
        start.attr_str("netlist", "c2670");
        start.attr_f64("theta", 0.18);
        start.attr_u64("seed", 7);
        start.mark();

        let mut attempt = cell.child("attempt.0");
        attempt.attr_u64("attempt", 0);
        let mut stage = attempt.child("train");
        stage.attr_str("stage", "train");
        stage.vary("cache_hit", Value::Bool(false));
        stage.vary_u64("wall_ns", 12_345_678);
        stage.close();
        attempt.close();

        cell.attr_str("outcome", "ok");
        cell.attr_u64("rare_nets", 5);
        cell.attr_u64("sets", 2);
        cell.attr_u64("patterns", 8);
        cell.close();

        let lines: Vec<String> = sink.events().iter().filter_map(render_trace_line).collect();
        assert_eq!(
            lines,
            vec![
                "[campaign] cell 3 start: c2670 θ=0.18 seed=7".to_string(),
                "[campaign] cell 3 train: computed in 0.012s".to_string(),
                "[campaign] cell 3 done: 5 rare nets, 2 sets, 8 patterns".to_string(),
            ]
        );
    }

    #[test]
    fn cancelled_cells_render_nothing() {
        let sink = MemorySink::new();
        let tele = Telemetry::new(vec![Box::new(sink.clone())]);
        let mut cell = tele.span("cell.1");
        cell.attr_u64("index", 1);
        cell.attr_bool("cancelled", true);
        cell.close();
        assert!(sink.events().iter().all(|e| render_trace_line(e).is_none()));
    }

    #[test]
    fn cell_index_parses_from_nested_paths() {
        assert_eq!(cell_index_of("campaign/cell.3/attempt.0/train"), Some(3));
        assert_eq!(cell_index_of("cell.12/attempt.1/analyze"), Some(12));
        assert_eq!(cell_index_of("campaign/metrics"), None);
    }
}
