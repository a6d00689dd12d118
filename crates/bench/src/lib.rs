//! Shared plumbing for the benchmark harness.
//!
//! Every table and figure of the DETERRENT paper has a corresponding binary
//! in `src/bin/` (`table1`, `table2`, `fig2`, `fig3`, `fig5`, `fig6`,
//! `fig7`). The binaries share the helpers in this library: building the
//! benchmark netlists (scaled down by default so the whole suite runs in
//! minutes on a laptop; pass `--full` for paper-sized profiles), planting the
//! Trojan populations, and running each test-generation technique.
//!
//! Every DETERRENT run goes through a [`deterrent_core::DeterrentSession`]
//! backed by the instance's shared [`ArtifactStore`], so an ablation grid
//! (Table 1, Figures 2–3) performs rare-net analysis and compatibility-graph
//! construction exactly once per `(netlist, θ)` — the binaries assert this
//! via the store's hit/miss counters ([`BenchInstance::assert_offline_reuse`]).
//!
//! # Example
//!
//! [`HarnessOptions`] turns the shared CLI flags into scaled netlists and
//! a matching pipeline configuration:
//!
//! ```
//! use deterrent_bench::HarnessOptions;
//! use netlist::synth::BenchmarkProfile;
//!
//! let options = HarnessOptions::default(); // --scale 20, seed 2022
//! let nl = options.netlist(&BenchmarkProfile::c2670());
//! assert!(nl.num_logic_gates() < 775, "profiles are shrunk by default");
//! let config = options.deterrent_config();
//! assert_eq!(config.seed, options.seed);
//! assert!(config.cache_policy.is_unbounded(), "no --cache-max-bytes given");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

use baselines::{Atpg, Mero, RandomPatterns, Tarmac, TestGenerator, Tgrl};
use deterrent_core::{ArtifactStore, DeterrentConfig, DeterrentResult, DeterrentSession};
use netlist::synth::BenchmarkProfile;
use netlist::Netlist;
use sim::rare::RareNetAnalysis;
use sim::TestPattern;
use telemetry::{JsonlSink, Telemetry, TraceSink, TRACE_OUT_ENV_VAR};
use trojan::{CoverageEvaluator, Trojan, TrojanGenerator};

/// How aggressively the paper-sized benchmark profiles are shrunk.
///
/// The default scale of 20 turns c2670's 775 gates into ≈ 40 and MIPS's
/// 23 511 into ≈ 1 175, keeping every experiment's *shape* while finishing in
/// seconds. `--full` (scale 1) reproduces the paper-sized profiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessOptions {
    /// Divisor applied to every benchmark profile.
    pub scale: usize,
    /// Number of Trojans planted per benchmark (the paper uses 100).
    pub num_trojans: usize,
    /// Trigger width of the planted Trojans (the paper's default is 4).
    pub trigger_width: usize,
    /// Master seed.
    pub seed: u64,
    /// Persistent artifact-cache directory (`--cache-dir`). Also honours
    /// the `DETERRENT_CACHE_DIR` environment variable when unset; `None`
    /// with no variable means memory-only caching.
    pub cache_dir: Option<PathBuf>,
    /// Cache size budget in bytes (`--cache-max-bytes`, `k`/`m`/`g`
    /// suffixes accepted). Also honours `DETERRENT_CACHE_MAX_BYTES` when
    /// unset; `None` with no variable means unbounded.
    pub cache_max_bytes: Option<u64>,
    /// `--expect-warm`: after the run, assert that the persistent cache
    /// served every stage (zero recomputations) — the CI cache-reuse gate.
    pub expect_warm: bool,
    /// `--trace-out FILE`: write a JSONL telemetry trace of every session
    /// the harness runs. Also honours `DETERRENT_TRACE_OUT` when unset;
    /// `None` with no variable disables telemetry entirely. Tracing is
    /// out-of-band: stdout is byte-identical with or without it.
    pub trace_out: Option<PathBuf>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        Self {
            scale: 20,
            num_trojans: 50,
            trigger_width: 4,
            seed: 2022,
            cache_dir: None,
            cache_max_bytes: None,
            expect_warm: false,
            trace_out: None,
        }
    }
}

impl HarnessOptions {
    /// Parses command-line arguments: `--full` (paper-sized), `--scale N`,
    /// `--trojans N`, `--width N`, `--seed N`, `--cache-dir DIR`,
    /// `--cache-max-bytes N[k|m|g]`, `--expect-warm`,
    /// `--trace-out FILE`.
    #[must_use]
    pub fn from_args() -> Self {
        let mut options = Self::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => {
                    options.scale = 1;
                    options.num_trojans = 100;
                }
                "--scale" if i + 1 < args.len() => {
                    options.scale = args[i + 1].parse().unwrap_or(options.scale);
                    i += 1;
                }
                "--trojans" if i + 1 < args.len() => {
                    options.num_trojans = args[i + 1].parse().unwrap_or(options.num_trojans);
                    i += 1;
                }
                "--width" if i + 1 < args.len() => {
                    options.trigger_width = args[i + 1].parse().unwrap_or(options.trigger_width);
                    i += 1;
                }
                "--seed" if i + 1 < args.len() => {
                    options.seed = args[i + 1].parse().unwrap_or(options.seed);
                    i += 1;
                }
                "--cache-dir" if i + 1 < args.len() => {
                    options.cache_dir = Some(PathBuf::from(&args[i + 1]));
                    i += 1;
                }
                "--cache-max-bytes" if i + 1 < args.len() => {
                    options.cache_max_bytes = deterrent_core::parse_bytes(&args[i + 1]);
                    i += 1;
                }
                "--expect-warm" => {
                    options.expect_warm = true;
                }
                "--trace-out" if i + 1 < args.len() => {
                    options.trace_out = Some(PathBuf::from(&args[i + 1]));
                    i += 1;
                }
                _ => {}
            }
            i += 1;
        }
        if options.trace_out.is_none() {
            if let Ok(path) = std::env::var(TRACE_OUT_ENV_VAR) {
                if !path.trim().is_empty() {
                    options.trace_out = Some(PathBuf::from(path));
                }
            }
        }
        options
    }

    /// A telemetry handle honouring `--trace-out` / `DETERRENT_TRACE_OUT`:
    /// a JSONL sink on the named file, or the zero-cost disabled handle
    /// when no trace was requested (or the file cannot be created — the
    /// harness warns and runs untraced rather than failing an experiment).
    #[must_use]
    pub fn telemetry(&self) -> Telemetry {
        match &self.trace_out {
            Some(path) => match JsonlSink::create(path) {
                Ok(sink) => {
                    let sinks: Vec<Box<dyn TraceSink>> = vec![Box::new(sink)];
                    Telemetry::new(sinks)
                }
                Err(e) => {
                    eprintln!("[bench] cannot create trace file {}: {e}", path.display());
                    Telemetry::disabled()
                }
            },
            None => Telemetry::disabled(),
        }
    }

    /// An artifact store honouring the harness cache knobs: disk-backed
    /// when `--cache-dir` (or `DETERRENT_CACHE_DIR`) names a directory —
    /// bounded per `--cache-max-bytes` / `DETERRENT_CACHE_MAX_BYTES` —
    /// memory-only otherwise.
    #[must_use]
    pub fn store(&self) -> ArtifactStore {
        let config = self.deterrent_config();
        match config.resolved_cache_dir() {
            Some(dir) => ArtifactStore::with_disk_policy(dir, config.resolved_cache_policy()),
            None => ArtifactStore::new(),
        }
    }

    /// Builds the netlist for `profile` at the configured scale.
    #[must_use]
    pub fn netlist(&self, profile: &BenchmarkProfile) -> Netlist {
        let scaled = if self.scale <= 1 {
            profile.clone()
        } else {
            profile.scaled(self.scale)
        };
        scaled.generate(self.seed)
    }

    /// A DETERRENT configuration sized to the harness scale. The analysis
    /// section matches what [`BenchInstance::prepare`] runs (8192 patterns at
    /// the harness seed), so grid cells built on this config share the
    /// instance's cached [`deterrent_core::RareArtifact`].
    #[must_use]
    pub fn deterrent_config(&self) -> DeterrentConfig {
        let base = if self.scale <= 1 {
            DeterrentConfig::paper_preset()
        } else {
            DeterrentConfig::fast_preset()
                .with_episodes(120)
                .with_eval_rollouts(48)
                .with_k_patterns(24)
        };
        let mut base = base
            .with_probability_patterns(BenchInstance::ANALYSIS_PATTERNS)
            .with_seed(self.seed);
        if let Some(dir) = &self.cache_dir {
            base = base.with_cache_dir(dir.clone());
        }
        base.cache_policy.max_bytes = self.cache_max_bytes;
        base
    }
}

/// One prepared benchmark instance: the netlist, its rare-net analysis, a
/// planted Trojan population, and the artifact store every DETERRENT run on
/// this instance shares.
#[derive(Debug)]
pub struct BenchInstance {
    /// Benchmark name (from the profile).
    pub name: String,
    /// The golden netlist.
    pub netlist: Netlist,
    /// Rare-net analysis at the given threshold (a clone of the cached
    /// artifact's payload, kept for Trojan generation and reporting).
    pub analysis: RareNetAnalysis,
    /// The planted Trojans used for coverage evaluation.
    pub trojans: Vec<Trojan>,
    /// The analysis configuration the instance was prepared with; every
    /// [`BenchInstance::run_deterrent`] call is pinned to it so grid cells
    /// hit the cached artifacts.
    config: DeterrentConfig,
    store: ArtifactStore,
    telemetry: Telemetry,
}

impl BenchInstance {
    /// Probability-estimation pattern budget used by every instance.
    pub const ANALYSIS_PATTERNS: usize = 8192;

    /// Prepares a benchmark instance for `profile`: generate the netlist, run
    /// rare-net analysis at `threshold` (cached in the instance store), and
    /// plant the Trojan population.
    ///
    /// When the design does not admit triggers of the requested width the
    /// width is reduced (down to 2) until sampling succeeds — the scaled-down
    /// profiles occasionally need this.
    #[must_use]
    pub fn prepare(profile: &BenchmarkProfile, options: &HarnessOptions, threshold: f64) -> Self {
        let netlist = options.netlist(profile);
        let config = options.deterrent_config().with_threshold(threshold);
        let store = options.store();
        let telemetry = options.telemetry();
        let analysis = {
            let mut session = DeterrentSession::with_store(&netlist, config.clone(), store.clone());
            session.set_telemetry(telemetry.clone(), None);
            session.analyze().analysis().clone()
        };
        let mut generator = TrojanGenerator::new(&netlist, options.seed ^ 0x7707);
        let mut width = options.trigger_width;
        let mut trojans = Vec::new();
        while width >= 2 {
            trojans = generator.sample_many(&analysis, width, options.num_trojans);
            if trojans.len() >= options.num_trojans.min(10) {
                break;
            }
            width -= 1;
        }
        Self {
            name: profile.name.clone(),
            netlist,
            analysis,
            trojans,
            config,
            store,
            telemetry,
        }
    }

    /// The artifact store shared by every DETERRENT run on this instance.
    #[must_use]
    pub fn store(&self) -> ArtifactStore {
        self.store.clone()
    }

    /// Trigger coverage (%) of `patterns` against the planted Trojans.
    #[must_use]
    pub fn coverage(&self, patterns: &[TestPattern]) -> f64 {
        if self.trojans.is_empty() {
            return 0.0;
        }
        CoverageEvaluator::new(&self.netlist, self.trojans.clone())
            .evaluate(patterns)
            .coverage_percent()
    }

    /// Full coverage report (for cumulative curves).
    #[must_use]
    pub fn coverage_report(&self, patterns: &[TestPattern]) -> trojan::CoverageReport {
        CoverageEvaluator::new(&self.netlist, self.trojans.clone()).evaluate(patterns)
    }

    /// Runs the DETERRENT pipeline on this instance through a session
    /// sharing the instance store, so repeated calls (ablation grids) reuse
    /// the cached analysis and graph.
    ///
    /// The config's analysis section and seed are pinned to the instance's;
    /// `k` (the number of compatible sets turned into patterns) and the
    /// number of greedy evaluation rollouts are scaled with the rare-net
    /// count, mirroring how the paper tunes `k` per benchmark (e.g. 1304
    /// patterns for MIPS but only 8 for c2670).
    #[must_use]
    pub fn run_deterrent(&self, mut config: DeterrentConfig) -> DeterrentResult {
        config.analysis = self.config.analysis;
        config.seed = self.config.seed;
        config.select.k_patterns = config.select.k_patterns.max(self.analysis.len());
        config.select.eval_rollouts = config.select.eval_rollouts.max(self.analysis.len());
        let mut session = DeterrentSession::with_store(&self.netlist, config, self.store.clone());
        session.set_telemetry(self.telemetry.clone(), None);
        session.run()
    }

    /// Asserts (via the store's hit/miss counters) that an ablation grid of
    /// `cells` DETERRENT runs performed rare-net analysis and
    /// compatibility-graph construction at most **once** for this instance —
    /// computed on a cold cache, or loaded from the persistent disk tier on
    /// a warm one, but never recomputed by a grid cell.
    ///
    /// # Panics
    ///
    /// Panics when any cell recomputed the analysis or the graph.
    pub fn assert_offline_reuse(&self, cells: usize) {
        let counters = self.store.counters();
        assert_eq!(
            counters.analyze.misses + counters.analyze.disk_hits,
            1,
            "rare-net analysis must enter the store exactly once per (netlist, θ); counters: {counters:?}"
        );
        assert_eq!(
            counters.analyze.hits, cells as u64,
            "every grid cell must reuse the prepared analysis; counters: {counters:?}"
        );
        assert_eq!(
            counters.build_graph.misses + counters.build_graph.disk_hits,
            1,
            "the compatibility graph must enter the store exactly once per (netlist, θ); counters: {counters:?}"
        );
        assert_eq!(
            counters.build_graph.hits,
            cells.saturating_sub(1) as u64,
            "every later grid cell must reuse the graph; counters: {counters:?}"
        );
    }

    /// Epilogue every bench binary calls after its experiment: prints the
    /// per-stage store counters to **stderr** (stdout stays byte-identical
    /// between cold and warm runs, which the CI cache-reuse gate compares)
    /// and, under `--expect-warm`, asserts the persistent cache served every
    /// stage.
    ///
    /// # Panics
    ///
    /// Panics when `--expect-warm` was given and any stage recomputed, hit
    /// a corrupt file, or the store has no disk tier at all.
    pub fn finish(&self, options: &HarnessOptions) {
        print_store_summary(&self.store);
        if self.telemetry.is_enabled() {
            self.telemetry.flush_metrics();
        }
        if options.expect_warm {
            assert_warm(&self.store);
        }
    }
}

/// Prints one stderr line per stage with the store's tier-by-tier counters,
/// in a stable machine-greppable format:
///
/// ```text
/// [store] analyze: mem_hits=2 disk_hits=1 computed=0 disk_misses=0 corrupt=0
/// ```
///
/// `computed` is the number of lookups no cache tier could serve (the
/// stage's `misses` counter). The CI cache-reuse gate greps these lines to
/// prove a warm run recomputed nothing.
pub fn print_store_summary(store: &ArtifactStore) {
    eprint!("{}", store.summary());
}

/// Asserts every stage of the run was served from the cache — zero
/// recomputations and zero corrupt files (the `--expect-warm` contract).
///
/// # Panics
///
/// Panics when the store has no disk tier, recomputed any stage, or hit a
/// corrupt artifact file.
pub fn assert_warm(store: &ArtifactStore) {
    let counters = store.counters();
    assert!(
        store.disk_dir().is_some(),
        "--expect-warm requires --cache-dir (or DETERRENT_CACHE_DIR)"
    );
    assert_eq!(
        counters.total_misses(),
        0,
        "--expect-warm: every stage must be served from the cache; counters: {counters:?}"
    );
    assert_eq!(
        counters.total_disk_corrupt(),
        0,
        "--expect-warm: no artifact file may be corrupt; counters: {counters:?}"
    );
    assert!(
        counters.total_disk_hits() > 0,
        "--expect-warm: the disk tier never served anything — was the cache populated?; counters: {counters:?}"
    );
    eprintln!(
        "[store] --expect-warm satisfied: {} disk hit(s), 0 recomputations",
        counters.total_disk_hits()
    );
}

/// Coverage and test length of one technique on one benchmark (a cell group
/// of Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct TechniqueResult {
    /// Technique name.
    pub technique: String,
    /// Number of test patterns.
    pub test_length: usize,
    /// Trigger coverage in percent.
    pub coverage: f64,
}

/// Runs every baseline plus DETERRENT on `instance` and returns one
/// [`TechniqueResult`] per technique, in Table 2 column order.
#[must_use]
pub fn run_all_techniques(
    instance: &BenchInstance,
    options: &HarnessOptions,
) -> Vec<TechniqueResult> {
    let seed = options.seed;
    let mut results = Vec::new();

    // TGRL first: its test length sets the budget for Random and TARMAC, the
    // same protocol the paper uses for a fair comparison.
    let tgrl_episodes = if options.scale <= 1 { 400 } else { 40 };
    let tgrl_patterns =
        Tgrl::new(tgrl_episodes, seed).generate(&instance.netlist, &instance.analysis);
    let budget = tgrl_patterns.len().max(8);

    let random_patterns =
        RandomPatterns::new(budget, seed).generate(&instance.netlist, &instance.analysis);
    let atpg_patterns = Atpg::new(seed).generate(&instance.netlist, &instance.analysis);
    let tarmac_patterns = Tarmac::new(budget, seed).generate(&instance.netlist, &instance.analysis);
    let mero_patterns =
        Mero::new(5, budget * 50, seed).generate(&instance.netlist, &instance.analysis);
    let deterrent = instance.run_deterrent(options.deterrent_config());

    for (name, patterns) in [
        ("Random", &random_patterns),
        ("TestMAX", &atpg_patterns),
        ("MERO", &mero_patterns),
        ("TARMAC", &tarmac_patterns),
        ("TGRL", &tgrl_patterns),
        ("DETERRENT", &deterrent.patterns),
    ] {
        results.push(TechniqueResult {
            technique: name.to_string(),
            test_length: patterns.len(),
            coverage: instance.coverage(patterns),
        });
    }
    results
}

/// Formats a Table-2-style row group as aligned text.
#[must_use]
pub fn format_results_table(
    design: &str,
    rare_nets: usize,
    gates: usize,
    rows: &[TechniqueResult],
) -> String {
    let mut out = format!(
        "{design}: {gates} gates, {rare_nets} rare nets\n  {:<28} {:>12} {:>10}\n",
        "technique", "test length", "cov (%)"
    );
    for r in rows {
        out.push_str(&format!(
            "  {:<28} {:>12} {:>10.1}\n",
            r.technique, r.test_length, r.coverage
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_and_scaling() {
        let options = HarnessOptions::default();
        assert_eq!(options.scale, 20);
        let nl = options.netlist(&BenchmarkProfile::c2670());
        assert!(nl.num_logic_gates() < 200);
    }

    #[test]
    fn prepare_produces_trojans_and_coverage_runs() {
        let options = HarnessOptions {
            num_trojans: 10,
            trigger_width: 2,
            ..HarnessOptions::default()
        };
        let instance = BenchInstance::prepare(&BenchmarkProfile::c2670(), &options, 0.2);
        assert!(!instance.trojans.is_empty());
        let random = RandomPatterns::new(32, 1).generate(&instance.netlist, &instance.analysis);
        let cov = instance.coverage(&random);
        assert!((0.0..=100.0).contains(&cov));
    }

    #[test]
    fn grid_cells_share_the_offline_stages() {
        let options = HarnessOptions {
            num_trojans: 5,
            trigger_width: 2,
            ..HarnessOptions::default()
        };
        let instance = BenchInstance::prepare(&BenchmarkProfile::c2670(), &options, 0.2);
        let base = options.deterrent_config().with_episodes(20);
        let a = instance.run_deterrent(base.clone());
        let b = instance.run_deterrent(
            base.clone()
                .with_ablation(deterrent_core::RewardMode::EndOfEpisode, true),
        );
        instance.assert_offline_reuse(2);
        assert_eq!(a.rare_nets, b.rare_nets, "both cells saw the same graph");
    }

    #[test]
    fn table_formatting_contains_all_rows() {
        let rows = vec![
            TechniqueResult {
                technique: "Random".into(),
                test_length: 10,
                coverage: 12.5,
            },
            TechniqueResult {
                technique: "DETERRENT".into(),
                test_length: 3,
                coverage: 99.0,
            },
        ];
        let text = format_results_table("c2670", 43, 775, &rows);
        assert!(text.contains("Random") && text.contains("DETERRENT"));
        assert!(text.contains("99.0"));
    }
}
