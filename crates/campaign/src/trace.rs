//! Stderr rendering of campaign progress, shared between the legacy
//! [`crate::StderrProgress`] sink and the telemetry-driven
//! [`StderrTraceSink`].
//!
//! Both paths produce byte-identical `[campaign] …` lines: the render
//! functions here are the single source of the formats, and
//! [`StderrTraceSink`] reconstructs their inputs from trace-event
//! attributes (the θ token is carried verbatim as the raw JSON number, so
//! `θ=0.18` round-trips exactly).

use telemetry::{EventKind, TraceEvent, TraceSink, Value};

/// Names of the pipeline-stage spans emitted by
/// `deterrent_core::DeterrentSession` — the spans the stderr sink renders
/// as per-stage progress lines.
const STAGE_SPAN_NAMES: [&str; 6] = [
    "estimate",
    "analyze",
    "build_graph",
    "train",
    "select",
    "generate",
];

/// The `[campaign] cell N start: …` line.
pub(crate) fn render_cell_start(index: usize, netlist: &str, theta: &str, seed: u64) -> String {
    format!("[campaign] cell {index} start: {netlist} θ={theta} seed={seed}")
}

/// The `[campaign] cell N <stage>: …` line.
pub(crate) fn render_stage_finished(
    index: usize,
    stage: &str,
    cache_hit: bool,
    wall_seconds: f64,
) -> String {
    format!(
        "[campaign] cell {index} {stage}: {} in {wall_seconds:.3}s",
        if cache_hit { "warm" } else { "computed" }
    )
}

/// The `[campaign] cell N done: …` line.
pub(crate) fn render_cell_done(
    index: usize,
    rare_nets: usize,
    sets: usize,
    patterns: usize,
) -> String {
    format!("[campaign] cell {index} done: {rare_nets} rare nets, {sets} sets, {patterns} patterns")
}

/// A [`TraceSink`] that renders campaign trace events as the classic
/// `[campaign] …` stderr progress lines — the same bytes
/// [`crate::StderrProgress`] prints, reconstructed from event attributes.
///
/// Rendering rules:
///
/// * a `cell_start` mark → the `cell N start:` line;
/// * a closed pipeline-stage span under a `cell.N` path → the
///   `cell N <stage>:` line (`warm`/`computed` from the `cache_hit` attr,
///   wall seconds from the span's `wall_ns`);
/// * a closed `cell.N` span → the `cell N done:` line — except cancelled
///   cells, which the legacy sink never reported either.
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
fn render_trace_line(event: &TraceEvent) -> Option<String> {
    match event.kind {
        EventKind::Mark if event.name == "cell_start" => {
            let theta = match event.attrs.get("theta") {
                Some(Value::Num(token)) => token.clone(),
                _ => return None,
            };
            Some(render_cell_start(
                event.attr_u64("index")? as usize,
                event.attr_str("netlist")?,
                &theta,
                event.attr_u64("seed")?,
            ))
        }
        EventKind::Span if STAGE_SPAN_NAMES.contains(&event.name.as_str()) => {
            let index = cell_index_of(&event.path)?;
            let wall_seconds = event.vary_u64("wall_ns")? as f64 / 1e9;
            let cache_hit = event.vary.get("cache_hit").and_then(Value::as_bool)?;
            Some(render_stage_finished(
                index,
                &event.name,
                cache_hit,
                wall_seconds,
            ))
        }
        EventKind::Span if event.name.starts_with("cell.") => {
            if event.attrs.contains_key("cancelled") {
                return None;
            }
            Some(render_cell_done(
                event.attr_u64("index")? as usize,
                event.attr_u64("rare_nets")? as usize,
                event.attr_u64("sets")? as usize,
                event.attr_u64("patterns")? as usize,
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
