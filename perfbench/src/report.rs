//! Metric names, the result line, and the recorded reference digests.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.generate_s", "s"),
    ("sim.estimate_s", "s"),
    ("sim.candidates", "count"),
    ("compat.build_s", "s"),
    ("compat.singletons_s", "s"),
    ("compat.tier1_s", "s"),
    ("compat.tier2_s", "s"),
    ("compat.tier3_s", "s"),
    ("compat.pairs_total", "count"),
    ("compat.pairs_witnessed", "count"),
    ("compat.pairs_pruned", "count"),
    ("compat.pairs_enumerated", "count"),
    ("compat.pairs_sat", "count"),
    ("compat.singleton_sat", "count"),
    ("compat.sat_free_ratio", "ratio"),
    ("sat.decisions", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.pair_queries_per_s", "1/s"),
    ("rl.collect_s", "s"),
    ("rl.update_s", "s"),
    ("rl.updates", "count"),
    ("rl.env_steps", "count"),
    ("rl.sample_passes", "count"),
    ("rl.sample_passes_per_s", "1/s"),
    ("select.rollout_s", "s"),
    ("select.pick_s", "s"),
    ("select.rollouts", "count"),
    ("select.harvested", "count"),
    ("generate.s", "s"),
    ("generate.sat_queries", "count"),
    ("generate.witness_reused", "count"),
    ("generate.patterns_per_set", "ratio"),
    ("exec.busy_s", "s"),
    ("exec.tasks", "count"),
    ("exec.utilization", "ratio"),
    ("store.bytes_written", "bytes"),
    ("store.open_ms", "ms"),
    ("store.read_ms.estimate", "ms"),
    ("store.read_ms.analyze", "ms"),
    ("store.read_ms.build_graph", "ms"),
    ("store.read_ms.train", "ms"),
    ("store.read_ms.select", "ms"),
    ("store.read_ms.generate", "ms"),
    ("store.disk_hits", "count"),
    ("store.computed", "count"),
    ("trojan.coverage_s", "s"),
    ("telemetry.overhead_pct", "%"),
    ("unattributed_pct", "%"),
];

/// Named measurements of one run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Records the seconds elapsed since `start` under `name` and returns
    /// them.
    pub fn time(&mut self, name: &'static str, start: Instant) -> f64 {
        let seconds = start.elapsed().as_secs_f64();
        self.set(name, seconds);
        seconds
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn extend(&mut self, other: &Metrics) {
        self.0.extend(other.0.iter().map(|(k, v)| (*k, *v)));
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    if q == 0.5 && sorted.len().is_multiple_of(2) {
        let i = sorted.len() / 2;
        return (sorted[i - 1] + sorted[i]) / 2.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, read 0).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over `table`, in table order.
pub fn metrics_json(table: &[(&str, &str)], metrics: &Metrics) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(metrics.get(name)),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The last line of a run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics_json}}}"
    )
}

/// One recorded reference: the digests a workload's outputs must have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    pub adjacency: u64,
    pub patterns: Option<u64>,
}

/// The key a reference is recorded under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReferenceKey {
    pub workload: String,
    pub scale: &'static str,
    pub netlist_seed: u64,
    pub pipeline_seed: u64,
}

impl ReferenceKey {
    /// The line recording `reference` under this key.
    pub fn line(&self, reference: &Reference) -> String {
        let patterns = reference
            .patterns
            .map_or_else(|| "-".to_string(), |p| format!("{p:016x}"));
        format!(
            "{} {} {} {} {:016x} {}",
            self.workload,
            self.scale,
            self.netlist_seed,
            self.pipeline_seed,
            reference.adjacency,
            patterns
        )
    }
}

/// Looks `key` up in a reference file: whitespace-separated lines of
/// `workload scale netlist_seed pipeline_seed adjacency patterns`, digests
/// in hex, `-` for a workload without patterns, `#` starting a comment.
pub fn lookup_reference(path: &Path, key: &ReferenceKey) -> Result<Option<Reference>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read reference file {}: {e}", path.display()))?;
    let hex = |s: &str| {
        u64::from_str_radix(s, 16).map_err(|_| format!("bad digest {s:?} in {}", path.display()))
    };
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.is_empty() || fields[0].starts_with('#') {
            continue;
        }
        let [workload, scale, netlist_seed, pipeline_seed, adjacency, patterns] = fields[..] else {
            return Err(format!("malformed reference line {line:?}"));
        };
        if workload == key.workload
            && scale == key.scale
            && netlist_seed == key.netlist_seed.to_string()
            && pipeline_seed == key.pipeline_seed.to_string()
        {
            let patterns = match patterns {
                "-" => None,
                p => Some(hex(p)?),
            };
            return Ok(Some(Reference {
                adjacency: hex(adjacency)?,
                patterns,
            }));
        }
    }
    Ok(None)
}
