//! The self-describing trace event: the one record type every
//! [`crate::TraceSink`] consumes and every JSONL trace line encodes.
//!
//! # Schema (version [`TRACE_SCHEMA_VERSION`])
//!
//! Every line is one JSON object with exactly these keys:
//!
//! | key        | type   | meaning                                          |
//! |------------|--------|--------------------------------------------------|
//! | `schema`   | number | schema version (currently 1)                     |
//! | `kind`     | string | `"span"`, `"mark"`, or `"metrics"`               |
//! | `name`     | string | span/event name (`"train"`, `"cell.3"`, …)       |
//! | `path`     | string | slash-joined span path from the root             |
//! | `id`       | number | span id, unique within the process               |
//! | `parent`   | number | parent span id (0 = root)                        |
//! | `start_ns` | number | start offset from the telemetry epoch            |
//! | `dur_ns`   | number | duration (0 for marks and metrics flushes)       |
//! | `attrs`    | object | **deterministic** attributes — identical at any  |
//! |            |        | thread count for the same run                    |
//! | `vary`     | object | nondeterministic attributes (wall times, global  |
//! |            |        | counter deltas, error strings)                   |
//!
//! The `attrs`/`vary` split is what makes the thread-invariance gate
//! possible: the **canonical projection** of an event keeps only
//! `{schema, kind, name, path, attrs}`. Sorting the canonical lines of a
//! trace yields a byte-identical document at threads 1 and 4, even though
//! ids, timings, and line order differ.
//!
//! Two classes of events are excluded from the canonical projection
//! because their very *existence* is scheduling-dependent, not just their
//! timings: `metrics` flushes (cumulative counters fold in
//! scheduling-attributed work) and any event carrying the reserved
//! [`NONDET_VARY_KEY`] vary key — emitters set it on spans whose
//! attachment point depends on which thread got there first (e.g. an
//! executor dispatch under whichever session computed a shared artifact).

use std::collections::BTreeMap;

use crate::json::{self, Value};

/// Version stamped into the `schema` field of every event.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Reserved `vary` key marking an event whose *presence* (not just its
/// timings) is scheduling-dependent. Such events are valid trace lines but
/// are dropped by [`canonicalize_trace`], so two runs of the same workload
/// at different thread counts still canonicalize identically.
pub const NONDET_VARY_KEY: &str = "nondet";

/// What a [`TraceEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A closed span: a named interval with attributes.
    Span,
    /// An instantaneous point event (`dur_ns` = 0).
    Mark,
    /// A metric-registry flush; counters land in `attrs` and `vary` is
    /// empty.
    Metrics,
}

impl EventKind {
    /// The `kind` field token.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Mark => "mark",
            EventKind::Metrics => "metrics",
        }
    }

    /// Parses a `kind` field token.
    #[must_use]
    pub fn parse(token: &str) -> Option<Self> {
        match token {
            "span" => Some(EventKind::Span),
            "mark" => Some(EventKind::Mark),
            "metrics" => Some(EventKind::Metrics),
            _ => None,
        }
    }
}

/// One telemetry event (see the module docs for the line schema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// What the event describes.
    pub kind: EventKind,
    /// Span/event name.
    pub name: String,
    /// Slash-joined span path from the root.
    pub path: String,
    /// Span id, unique within the emitting process.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Start offset in nanoseconds from the telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for marks and metrics flushes).
    pub dur_ns: u64,
    /// Deterministic attributes (thread-count invariant).
    pub attrs: BTreeMap<String, Value>,
    /// Nondeterministic attributes (timings, global deltas, messages).
    pub vary: BTreeMap<String, Value>,
}

impl TraceEvent {
    /// The full event as a JSON value.
    #[must_use]
    pub fn to_value(&self) -> Value {
        json::obj([
            ("schema", Value::u64(TRACE_SCHEMA_VERSION)),
            ("kind", Value::str(self.kind.as_str())),
            ("name", Value::str(&*self.name)),
            ("path", Value::str(&*self.path)),
            ("id", Value::u64(self.id)),
            ("parent", Value::u64(self.parent)),
            ("start_ns", Value::u64(self.start_ns)),
            ("dur_ns", Value::u64(self.dur_ns)),
            ("attrs", Value::Obj(self.attrs.clone())),
            ("vary", Value::Obj(self.vary.clone())),
        ])
    }

    /// The full event as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        self.to_value().to_json()
    }

    /// Whether this event belongs to the canonical projection: `metrics`
    /// flushes and events flagged with [`NONDET_VARY_KEY`] do not.
    #[must_use]
    pub fn is_canonical(&self) -> bool {
        self.kind != EventKind::Metrics && !self.vary.contains_key(NONDET_VARY_KEY)
    }

    /// The canonical projection: only the thread-invariant fields
    /// `{schema, kind, name, path, attrs}`, serialized with sorted keys.
    #[must_use]
    pub fn canonical_line(&self) -> String {
        json::obj([
            ("schema", Value::u64(TRACE_SCHEMA_VERSION)),
            ("kind", Value::str(self.kind.as_str())),
            ("name", Value::str(&*self.name)),
            ("path", Value::str(&*self.path)),
            ("attrs", Value::Obj(self.attrs.clone())),
        ])
        .to_json()
    }

    /// A deterministic attribute as a `u64`, if present and numeric.
    #[must_use]
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attrs.get(key).and_then(Value::as_u64)
    }

    /// A deterministic attribute as a string, if present.
    #[must_use]
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attrs.get(key).and_then(Value::as_str)
    }

    /// A nondeterministic attribute as a `u64`, if present and numeric.
    #[must_use]
    pub fn vary_u64(&self, key: &str) -> Option<u64> {
        self.vary.get(key).and_then(Value::as_u64)
    }

    /// Parses and validates one JSONL trace line against the schema.
    ///
    /// Rejects malformed JSON, missing or extra top-level keys, wrong field
    /// types, unknown `kind` tokens, and unsupported schema versions.
    pub fn parse_line(line: &str) -> Result<Self, String> {
        let value = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let Value::Obj(map) = value else {
            return Err("top level is not an object".to_string());
        };
        const KEYS: [&str; 10] = [
            "schema", "kind", "name", "path", "id", "parent", "start_ns", "dur_ns", "attrs", "vary",
        ];
        for key in map.keys() {
            if !KEYS.contains(&key.as_str()) {
                return Err(format!("unknown top-level key {key:?}"));
            }
        }
        let get = |key: &str| map.get(key).ok_or_else(|| format!("missing key {key:?}"));
        let num = |key: &str| {
            get(key)?
                .as_u64()
                .ok_or_else(|| format!("key {key:?} is not an unsigned integer"))
        };
        let text = |key: &str| {
            get(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("key {key:?} is not a string"))
        };
        let object = |key: &str| {
            get(key)?
                .as_obj()
                .cloned()
                .ok_or_else(|| format!("key {key:?} is not an object"))
        };
        let schema = num("schema")?;
        if schema != TRACE_SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema version {schema} (expected {TRACE_SCHEMA_VERSION})"
            ));
        }
        let kind_token = text("kind")?;
        let kind =
            EventKind::parse(&kind_token).ok_or_else(|| format!("unknown kind {kind_token:?}"))?;
        let event = TraceEvent {
            kind,
            name: text("name")?,
            path: text("path")?,
            id: num("id")?,
            parent: num("parent")?,
            start_ns: num("start_ns")?,
            dur_ns: num("dur_ns")?,
            attrs: object("attrs")?,
            vary: object("vary")?,
        };
        if event.name.is_empty() {
            return Err("empty event name".to_string());
        }
        if event.path.is_empty() {
            return Err("empty event path".to_string());
        }
        Ok(event)
    }
}

/// Validates every line of a JSONL trace document and returns the parsed
/// events. The error names the first offending line (1-based).
pub fn parse_trace(document: &str) -> Result<Vec<TraceEvent>, String> {
    document
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| TraceEvent::parse_line(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Canonicalizes a JSONL trace document: validates every line, drops the
/// non-canonical events (see [`TraceEvent::is_canonical`]), projects the
/// rest to their thread-invariant fields, and sorts the result. Two runs
/// of the same deterministic workload yield byte-identical output here
/// regardless of thread count or event interleaving.
///
/// # Errors
///
/// Returns the first schema violation, naming its line.
pub fn canonicalize_trace(document: &str) -> Result<String, String> {
    let mut lines: Vec<String> = parse_trace(document)?
        .iter()
        .filter(|e| e.is_canonical())
        .map(TraceEvent::canonical_line)
        .collect();
    lines.sort_unstable();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEvent {
        TraceEvent {
            kind: EventKind::Span,
            name: "train".to_string(),
            path: "campaign/cell.0/attempt.0/train".to_string(),
            id: 7,
            parent: 3,
            start_ns: 10,
            dur_ns: 25,
            attrs: [("items".to_string(), Value::u64(12))]
                .into_iter()
                .collect(),
            vary: [("wall_ns".to_string(), Value::u64(25))]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn line_round_trips_through_validation() {
        let event = sample();
        let parsed = TraceEvent::parse_line(&event.to_line()).unwrap();
        assert_eq!(parsed, event);
    }

    #[test]
    fn rejects_schema_violations() {
        let good = sample().to_line();
        assert!(TraceEvent::parse_line(&good.replace("\"schema\":1", "\"schema\":2")).is_err());
        assert!(
            TraceEvent::parse_line(&good.replace("\"kind\":\"span\"", "\"kind\":\"x\"")).is_err()
        );
        assert!(TraceEvent::parse_line(&good.replace("\"id\":7", "\"id\":\"7\"")).is_err());
        assert!(TraceEvent::parse_line(&good.replace("\"vary\"", "\"extra\"")).is_err());
        assert!(TraceEvent::parse_line("not json").is_err());
    }

    #[test]
    fn canonicalization_strips_nondeterminism_and_sorts() {
        let mut a = sample();
        let mut b = sample();
        b.name = "select".to_string();
        b.path = "campaign/cell.0/attempt.0/select".to_string();
        // Different ids, timings, and line order; same canonical sets.
        let doc_one = format!("{}\n{}\n", a.to_line(), b.to_line());
        a.id = 99;
        a.start_ns = 12345;
        a.vary.insert("wall_ns".to_string(), Value::u64(999));
        b.parent = 42;
        let doc_two = format!("{}\n{}\n", b.to_line(), a.to_line());
        assert_ne!(doc_one, doc_two);
        assert_eq!(
            canonicalize_trace(&doc_one).unwrap(),
            canonicalize_trace(&doc_two).unwrap()
        );
    }

    #[test]
    fn canonicalization_drops_nondeterministic_events() {
        let keep = sample();
        let mut metrics = sample();
        metrics.kind = EventKind::Metrics;
        let mut flagged = sample();
        flagged
            .vary
            .insert(NONDET_VARY_KEY.to_string(), Value::Bool(true));
        assert!(keep.is_canonical());
        assert!(!metrics.is_canonical());
        assert!(!flagged.is_canonical());
        let doc = format!(
            "{}\n{}\n{}\n",
            keep.to_line(),
            metrics.to_line(),
            flagged.to_line()
        );
        assert_eq!(
            canonicalize_trace(&doc).unwrap(),
            format!("{}\n", keep.canonical_line())
        );
    }
}
