//! The three workloads: set-up, timed operations and output checks.
//!
//! Every operation runs under `catch_unwind`; a panic or a failed output
//! check counts as a failed operation and the run goes on.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use deterrent_core::{ArtifactStore, DeterrentConfig, DeterrentSession, StoreCounters};
use netlist::synth::BenchmarkProfile;
use netlist::Netlist;
use sim::rare::RareNetAnalysis;
use telemetry::{JsonlSink, Telemetry};
use trojan::{CoverageEvaluator, Trojan, TrojanGenerator};

use crate::layers::{self, Outputs, SessionArtifacts};
use crate::report::{
    self, lookup_reference, median, metrics_json, num, quantile, quote, Metrics, Reference,
    ReferenceKey, END_TO_END, PER_LAYER,
};

/// Worker threads of every session and re-drive.
pub const THREADS: usize = 2;
const THETA: f64 = 0.1;
const SETUP_MAX_REPEATS: usize = 1000;
const SETUP_WINDOW: Duration = Duration::from_millis(500);
const SETUP_PROCESSES: usize = 5;
const TROJANS: usize = 100;
const TROJAN_WIDTH: usize = 4;
const DEFAULT_NETLIST_SEED: u64 = 3;
const DEFAULT_PIPELINE_SEED: u64 = 1;
/// Upper bound on operations per timed loop, whatever their speed.
const MAX_OPS: usize = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One cold six-stage session on full-size c2670.
    Session,
    /// The offline phase (`estimate → analyze → build_graph`) on half-size
    /// c5315.
    Offline,
    /// Sessions served entirely from a populated disk cache.
    Warm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Session, Workload::Offline, Workload::Warm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Session => "c2670_session",
            Workload::Offline => "c5315_offline",
            Workload::Warm => "c2670_warm",
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    /// Workload seed: plants the Trojan population.
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub netlist_seed: u64,
    pub pipeline_seed: u64,
    /// Shrinks every netlist 20× and training to a few episodes.
    pub toy: bool,
    pub reference: Option<PathBuf>,
    pub work_dir: PathBuf,
    pub commit: String,
    /// Prints the observed digests as a reference line on stderr.
    pub record: bool,
    /// Fresh processes `setup_s` is timed in (0 times it in this one).
    pub setup_processes: usize,
    /// Only times the set-up and prints `<setup_s> <netlist.generate_s>`.
    pub setup_only: bool,
}

pub const USAGE: &str = "usage: perfbench --workload <c2670_session|c5315_offline|c2670_warm> \
    --seed <n> --seconds <s> --trace <0|1> [--netlist-seed <n>] [--pipeline-seed <n>] [--toy] \
    [--reference <file>] [--work-dir <dir>] [--commit <id>] [--record] [--setup-processes <n>] \
    [--setup-only]";

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let mut args = Args {
            workload: Workload::Session,
            seed: 0,
            seconds: 0.0,
            trace: false,
            netlist_seed: DEFAULT_NETLIST_SEED,
            pipeline_seed: DEFAULT_PIPELINE_SEED,
            toy: false,
            reference: None,
            work_dir: PathBuf::from(format!(".bench_work/{}", std::process::id())),
            commit: "unknown".to_string(),
            record: false,
            setup_processes: SETUP_PROCESSES,
            setup_only: false,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let number = |v: String| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    let w = Workload::ALL.into_iter().find(|w| w.name() == v);
                    workload = Some(w.ok_or_else(|| format!("unknown workload {v:?}"))?);
                }
                "--seed" => seed = Some(number(value()?)?),
                "--seconds" => {
                    let v = value()?;
                    let s: f64 = v
                        .parse()
                        .map_err(|_| format!("--seconds: bad value {v:?}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(format!("--seconds must be positive, got {v}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                    })
                }
                "--netlist-seed" => args.netlist_seed = number(value()?)?,
                "--pipeline-seed" => args.pipeline_seed = number(value()?)?,
                "--toy" => args.toy = true,
                "--reference" => args.reference = Some(PathBuf::from(value()?)),
                "--work-dir" => args.work_dir = PathBuf::from(value()?),
                "--commit" => args.commit = value()?,
                "--record" => args.record = true,
                "--setup-processes" => args.setup_processes = number(value()?)? as usize,
                "--setup-only" => args.setup_only = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        args.seed = seed.ok_or("--seed is required")?;
        args.seconds = seconds.ok_or("--seconds is required")?;
        args.trace = trace.ok_or("--trace is required")?;
        Ok(args)
    }
}

/// The resolved inputs of one workload.
struct Spec {
    workload: Workload,
    profile: BenchmarkProfile,
    config: DeterrentConfig,
    key: ReferenceKey,
}

impl Spec {
    fn new(args: &Args) -> Self {
        let (profile, episodes) = match args.workload {
            Workload::Session => (BenchmarkProfile::c2670(), 200),
            Workload::Offline => (BenchmarkProfile::c5315().scaled(2), 200),
            // The warm workload reads what a cold session writes; 16
            // episodes write nearly the same bytes as 200 and keep set-up
            // short.
            Workload::Warm => (BenchmarkProfile::c2670(), 16),
        };
        let mut config = DeterrentConfig::paper_preset()
            .with_episodes(episodes)
            .with_threshold(THETA)
            .with_seed(args.pipeline_seed)
            .with_threads(THREADS);
        let profile = if args.toy {
            config = config.with_episodes(8).with_eval_rollouts(16);
            profile.scaled(20)
        } else {
            profile
        };
        Spec {
            workload: args.workload,
            profile,
            config,
            key: ReferenceKey {
                workload: args.workload.name().to_string(),
                scale: if args.toy { "toy" } else { "paper" },
                netlist_seed: args.netlist_seed,
                pipeline_seed: args.pipeline_seed,
            },
        }
    }

    /// Whether the workload runs the stages after `build_graph`.
    fn full(&self) -> bool {
        self.workload != Workload::Offline
    }

    /// The shape every paper-scale run must have a recorded reference for.
    fn is_default_shape(&self) -> bool {
        self.key.scale == "paper"
            && self.key.netlist_seed == DEFAULT_NETLIST_SEED
            && self.key.pipeline_seed == DEFAULT_PIPELINE_SEED
    }
}

/// Output checks against the recorded reference.
struct Checker {
    reference: Option<Reference>,
    /// Set when the default shape has no recorded reference: every
    /// operation then fails its check.
    missing: Option<String>,
    status: &'static str,
}

impl Checker {
    fn load(args: &Args, spec: &Spec) -> Result<Self, String> {
        let reference = match &args.reference {
            Some(path) if !args.record => lookup_reference(path, &spec.key)?,
            _ => None,
        };
        let missing = (reference.is_none() && spec.is_default_shape() && !args.record)
            .then(|| format!("no reference recorded for {:?}", spec.key));
        let status = match (&reference, &missing) {
            (Some(_), _) => "matched",
            (None, Some(_)) => "missing",
            (None, None) if args.record => "recording",
            (None, None) => "none",
        };
        Ok(Checker {
            reference,
            missing,
            status,
        })
    }

    fn check(&self, outputs: &Outputs) -> Result<(), String> {
        if let Some(missing) = &self.missing {
            return Err(missing.clone());
        }
        let Some(reference) = &self.reference else {
            return Ok(());
        };
        if outputs.adjacency != reference.adjacency {
            return Err(format!(
                "adjacency digest {:016x} differs from the reference {:016x}",
                outputs.adjacency, reference.adjacency
            ));
        }
        if reference.patterns.is_some() && outputs.patterns != reference.patterns {
            return Err(format!(
                "pattern digest {:016x?} differs from the reference {:016x?}",
                outputs.patterns, reference.patterns
            ));
        }
        Ok(())
    }
}

fn same(what: &str, got: &Outputs, want: &Outputs) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what} differ: got {got:016x?}, expected {want:016x?}"
        ))
    }
}

/// Attempted and failed operations of one run.
#[derive(Debug, Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Runs one operation; a panic or an `Err` counts as a failure.
    fn run<T>(&mut self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(value)) => Some(value),
            Ok(Err(e)) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
            Err(_) => {
                self.failed += 1;
                eprintln!("perfbench: {what} panicked");
                None
            }
        }
    }
}

/// Calls `op` at least once, then again until `budget` has elapsed.
fn time_boxed(budget: Duration, mut op: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || (start.elapsed() < budget && i < MAX_OPS) {
        op(i);
        i += 1;
    }
}

/// What set-up leaves for the timed part.
struct Prepared {
    netlist: Netlist,
    generate_s: f64,
    trojans: Vec<Trojan>,
    /// The populated cache of the warm workload and the cold session's
    /// artifacts.
    cold: Option<(PathBuf, SessionArtifacts)>,
}

/// Generates the netlist, plants the Trojan population and, for the warm
/// workload, populates a disk cache with one cold session.
fn setup(spec: &Spec, work: &Path, repeat: usize, trojan_seed: u64) -> Result<Prepared, String> {
    let t = Instant::now();
    let netlist = spec.profile.generate(spec.key.netlist_seed);
    let generate_s = t.elapsed().as_secs_f64();
    let trojans = if spec.full() {
        let analysis = RareNetAnalysis::estimate(
            &netlist,
            THETA,
            spec.config.analysis.probability_patterns,
            trojan_seed,
        );
        TrojanGenerator::new(&netlist, trojan_seed).sample_many(&analysis, TROJAN_WIDTH, TROJANS)
    } else {
        Vec::new()
    };
    let cold = if spec.workload == Workload::Warm {
        let dir = work.join(format!("warm-{repeat}"));
        let _ = fs::remove_dir_all(&dir);
        let store = ArtifactStore::with_disk(&dir);
        let mut session = DeterrentSession::with_store(&netlist, spec.config.clone(), store);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _ = session.run();
            layers::session_artifacts(&mut session, true)
        }))
        .map_err(|_| "the cold session populating the cache panicked".to_string())?;
        Some((dir, result))
    } else {
        None
    };
    Ok(Prepared {
        netlist,
        generate_s,
        trojans,
        cold,
    })
}

/// One cold run of the workload's stages on a fresh store.
struct ColdRun {
    wall: f64,
    artifacts: SessionArtifacts,
    bytes_written: u64,
    counters: StoreCounters,
}

/// Runs the workload's stages cold: the whole session on a fresh disk
/// store, or the offline phase on a fresh memory store. With `trace`, the
/// session reports to a `JsonlSink` at that path.
fn cold_run(
    spec: &Spec,
    netlist: &Netlist,
    dir: &Path,
    trace: Option<&Path>,
) -> Result<ColdRun, String> {
    let _ = fs::remove_dir_all(dir);
    let store = if spec.full() {
        ArtifactStore::with_disk(dir)
    } else {
        ArtifactStore::new()
    };
    let mut session = DeterrentSession::with_store(netlist, spec.config.clone(), store.clone());
    let telemetry = attach(&mut session, trace)?;
    let t = Instant::now();
    if spec.full() {
        let _ = session.run();
    } else {
        let rare = session.analyze();
        let _ = session.build_graph(&rare);
    }
    telemetry.flush();
    let wall = t.elapsed().as_secs_f64();
    let counters = store.counters();
    let artifacts = layers::session_artifacts(&mut session, spec.full());
    let bytes_written = dir_size(dir);
    let _ = fs::remove_dir_all(dir);
    Ok(ColdRun {
        wall,
        artifacts,
        bytes_written,
        counters,
    })
}

/// Attaches a `JsonlSink` at `trace` to the session; a disabled handle
/// without one.
fn attach(session: &mut DeterrentSession<'_>, trace: Option<&Path>) -> Result<Telemetry, String> {
    let Some(path) = trace else {
        return Ok(Telemetry::disabled());
    };
    let sink =
        JsonlSink::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let telemetry = Telemetry::new(vec![Box::new(sink)]);
    session.set_telemetry(telemetry.clone(), None);
    Ok(telemetry)
}

/// One warm session over the populated cache at `dir`; checks that it
/// recomputed nothing and that every artifact equals the cold one.
fn warm_session(
    spec: &Spec,
    netlist: &Netlist,
    dir: &Path,
    trace: Option<&Path>,
    cold: &Outputs,
) -> Result<f64, String> {
    let start = Instant::now();
    let store = ArtifactStore::with_disk(dir);
    let mut session = DeterrentSession::with_store(netlist, spec.config.clone(), store.clone());
    let telemetry = attach(&mut session, trace)?;
    let _ = session.run();
    telemetry.flush();
    let wall = start.elapsed().as_secs_f64();
    check_warm(&store, &mut session, cold)?;
    Ok(wall)
}

fn check_warm(
    store: &ArtifactStore,
    session: &mut DeterrentSession<'_>,
    cold: &Outputs,
) -> Result<(), String> {
    let computed = store.counters().total_misses();
    if computed != 0 {
        return Err(format!("a warm session recomputed {computed} stages"));
    }
    same(
        "warm and cold artifacts",
        &layers::session_artifacts(session, true).outputs,
        cold,
    )
}

/// A warm session driven stage by stage: `(wall, [open, stages...], counters)`
/// with every time in milliseconds.
fn warm_staged(
    spec: &Spec,
    netlist: &Netlist,
    dir: &Path,
    cold: &Outputs,
) -> Result<(f64, [f64; 7], StoreCounters), String> {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let store = ArtifactStore::with_disk(dir);
    let open = ms(start);
    let mut session = DeterrentSession::with_store(netlist, spec.config.clone(), store.clone());
    let t = Instant::now();
    let _ = session.estimate();
    let estimate = ms(t);
    let t = Instant::now();
    let rare = session.analyze();
    let analyze = ms(t);
    let t = Instant::now();
    let graph = session.build_graph(&rare);
    let build_graph = ms(t);
    let t = Instant::now();
    let policy = session.train(&graph);
    let train = ms(t);
    let t = Instant::now();
    let sets = session.select(&graph, &policy);
    let select = ms(t);
    let t = Instant::now();
    let _ = session.generate(&graph, &policy, &sets);
    let generate = ms(t);
    let wall = ms(start);
    let counters = store.counters();
    check_warm(&store, &mut session, cold)?;
    Ok((
        wall,
        [
            open,
            estimate,
            analyze,
            build_graph,
            train,
            select,
            generate,
        ],
        counters,
    ))
}

const STAGE_READS: [&str; 7] = [
    "store.open_ms",
    "store.read_ms.estimate",
    "store.read_ms.analyze",
    "store.read_ms.build_graph",
    "store.read_ms.train",
    "store.read_ms.select",
    "store.read_ms.generate",
];

/// Outputs a user reads off a session: test length, trigger coverage and
/// the share of set members the patterns drive to their rare value.
#[derive(Debug, Clone, Copy)]
struct Quality {
    patterns: usize,
    coverage_pct: f64,
    activation_pct: f64,
    coverage_s: f64,
}

fn quality(netlist: &Netlist, trojans: &[Trojan], artifacts: &SessionArtifacts) -> Quality {
    let t = Instant::now();
    let coverage = CoverageEvaluator::new(netlist, trojans.to_vec()).evaluate(&artifacts.patterns);
    let coverage_s = t.elapsed().as_secs_f64();
    let graph = artifacts.graph.graph();
    let values: Vec<_> = artifacts
        .patterns
        .iter()
        .map(|p| sim::simulate(netlist, p))
        .collect();
    let (mut active, mut targets) = (0usize, 0usize);
    for set in &artifacts.sets {
        let wanted = graph.targets(set);
        targets += wanted.len();
        active += values
            .iter()
            .map(|v| {
                wanted
                    .iter()
                    .filter(|&&(net, rare)| v.value(net) == rare)
                    .count()
            })
            .max()
            .unwrap_or(0);
    }
    Quality {
        patterns: artifacts.patterns.len(),
        coverage_pct: coverage.coverage_percent(),
        activation_pct: 100.0 * active as f64 / targets.max(1) as f64,
        coverage_s,
    }
}

/// Gates, rare nets, pairs and SAT-resolved pairs of the workload.
#[derive(Debug, Clone, Copy, Default)]
struct Shape {
    gates: usize,
    rare_nets: usize,
    pairs: u64,
    sat_pairs: u64,
}

/// The two printed lines of a run, plus the reference line its outputs
/// would record.
pub struct Outcome {
    pub context: String,
    pub result: String,
    pub reference_line: Option<String>,
}

/// State shared by the workload runs.
struct Run<'a> {
    spec: &'a Spec,
    args: &'a Args,
    prepared: &'a Prepared,
    checker: Checker,
    ops: Ops,
    metrics: Metrics,
    quality: Option<Quality>,
    shape: Option<Shape>,
    outputs: Option<Outputs>,
    warm_latency_ms: Vec<f64>,
}

impl Run<'_> {
    fn dir(&self, name: &str) -> PathBuf {
        self.args.work_dir.join(name)
    }

    /// Records shape, quality and digests from the first successful run.
    fn observe(&mut self, artifacts: &SessionArtifacts) {
        if self.shape.is_none() {
            let stats = artifacts.graph.graph().stats();
            self.shape = Some(Shape {
                gates: self.prepared.netlist.num_logic_gates(),
                rare_nets: artifacts.graph.graph().len(),
                pairs: stats.pairs_total,
                sat_pairs: stats.pairs_sat_resolved,
            });
            self.outputs = Some(artifacts.outputs);
        }
        if self.spec.full() && self.quality.is_none() {
            self.quality = Some(quality(
                &self.prepared.netlist,
                &self.prepared.trojans,
                artifacts,
            ));
        }
    }

    /// Timed cold runs (session and offline workloads, untraced).
    fn cold_untraced(&mut self, budget: Duration) {
        let mut walls = Vec::new();
        let dir = self.dir("store");
        time_boxed(budget, |i| {
            let (spec, netlist) = (self.spec, &self.prepared.netlist);
            let (checker, first) = (&self.checker, self.outputs);
            let done = self.ops.run(&format!("cold run {i}"), || {
                let run = cold_run(spec, netlist, &dir, None)?;
                checker.check(&run.artifacts.outputs)?;
                if let Some(first) = &first {
                    same("repeated cold runs", &run.artifacts.outputs, first)?;
                }
                Ok(run)
            });
            if let Some(run) = done {
                walls.push(run.wall);
                self.observe(&run.artifacts);
            }
        });
        eprintln!("perfbench: cold run walls {walls:.3?} s");
        self.metrics.set("wall_s", median(&walls));
    }

    /// The traced cold run: untraced, with a `JsonlSink`, and re-driven
    /// layer by layer, each checked against the untraced artifacts.
    fn cold_traced(&mut self) {
        let (spec, netlist) = (self.spec, &self.prepared.netlist);
        let dir = self.dir("store");
        let checker = &self.checker;
        let base = self.ops.run("untraced cold run", || {
            let run = cold_run(spec, netlist, &dir, None)?;
            checker.check(&run.artifacts.outputs)?;
            Ok(run)
        });
        let want = base.as_ref().map(|b| b.artifacts.outputs);
        let missing = || "no untraced run to compare with".to_string();
        let trace_path = self.dir("trace.jsonl");
        let traced = self.ops.run("JsonlSink-traced cold run", || {
            let run = cold_run(spec, netlist, &dir, Some(&trace_path))?;
            same(
                "traced and untraced artifacts",
                &run.artifacts.outputs,
                &want.ok_or_else(missing)?,
            )?;
            Ok(run.wall)
        });
        let layers = self.ops.run("re-driven cold run", || {
            let (outputs, metrics) = layers::redrive(netlist, &spec.config, spec.full());
            same(
                "re-driven and session artifacts",
                &outputs,
                &want.ok_or_else(missing)?,
            )?;
            Ok(metrics)
        });
        if let Some(layers) = layers {
            self.metrics.extend(&layers);
        }
        if let Some(base) = base {
            if let Some(traced) = traced {
                self.metrics.set(
                    "telemetry.overhead_pct",
                    100.0 * (traced - base.wall) / base.wall,
                );
            }
            self.metrics
                .set("store.bytes_written", base.bytes_written as f64);
            self.metrics
                .set("store.disk_hits", base.counters.total_disk_hits() as f64);
            self.metrics
                .set("store.computed", base.counters.total_misses() as f64);
            self.observe(&base.artifacts);
            if let Some(q) = self.quality {
                self.metrics.set("trojan.coverage_s", q.coverage_s);
            }
        }
    }

    fn cold_outputs(&self) -> (PathBuf, Outputs) {
        let (dir, artifacts) = self
            .prepared
            .cold
            .as_ref()
            .expect("warm set-up populated a cache");
        (dir.clone(), artifacts.outputs)
    }

    /// Timed warm sessions (untraced).
    fn warm_untraced(&mut self, budget: Duration) {
        let (dir, cold) = self.cold_outputs();
        let mut walls = Vec::new();
        time_boxed(budget, |i| {
            let (spec, netlist) = (self.spec, &self.prepared.netlist);
            if let Some(wall) = self.ops.run(&format!("warm session {i}"), || {
                warm_session(spec, netlist, &dir, None, &cold)
            }) {
                walls.push(wall);
            }
        });
        self.metrics.set("wall_s", median(&walls));
        self.warm_latency_ms = walls.iter().map(|w| w * 1e3).collect();
    }

    /// Warm sessions in three equal slices: untraced, with a `JsonlSink`,
    /// and driven stage by stage.
    fn warm_traced(&mut self, budget: Duration) {
        let (dir, cold) = self.cold_outputs();
        let (spec, netlist) = (self.spec, &self.prepared.netlist);
        let slice = budget / 3;
        let trace_path = self.dir("trace.jsonl");
        let mut walls = [Vec::new(), Vec::new()];
        for (k, trace) in [None, Some(trace_path.as_path())].into_iter().enumerate() {
            time_boxed(slice, |i| {
                if let Some(wall) = self.ops.run(&format!("warm session {i}"), || {
                    warm_session(spec, netlist, &dir, trace, &cold)
                }) {
                    walls[k].push(wall);
                }
            });
        }
        let (base, traced) = (median(&walls[0]), median(&walls[1]));
        if base > 0.0 && traced > 0.0 {
            self.metrics
                .set("telemetry.overhead_pct", 100.0 * (traced - base) / base);
        }
        let mut parts: [Vec<f64>; 7] = Default::default();
        let mut unattributed = Vec::new();
        let mut counters = None;
        time_boxed(slice, |i| {
            if let Some((wall, times, c)) =
                self.ops.run(&format!("staged warm session {i}"), || {
                    warm_staged(spec, netlist, &dir, &cold)
                })
            {
                for (part, t) in parts.iter_mut().zip(times) {
                    part.push(t);
                }
                unattributed.push(100.0 * (wall - times.iter().sum::<f64>()) / wall);
                counters = Some(c);
            }
        });
        for (name, part) in STAGE_READS.iter().zip(&parts) {
            self.metrics.set(name, median(part));
        }
        self.metrics.set("unattributed_pct", median(&unattributed));
        if let Some(c) = counters {
            self.metrics
                .set("store.disk_hits", c.total_disk_hits() as f64);
            self.metrics.set("store.computed", c.total_misses() as f64);
        }
    }
}

/// Sets up repeatedly, at least once and until [`SETUP_WINDOW`] is
/// filled, so a cheap set-up's median is steady too. Returns the median
/// set-up and netlist-generation seconds and the last set-up's result.
fn timed_setups(spec: &Spec, args: &Args) -> Result<(f64, f64, Prepared), String> {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut prepared: Option<Prepared> = None;
    let start = Instant::now();
    for repeat in 0..SETUP_MAX_REPEATS {
        if repeat > 0 && start.elapsed() >= SETUP_WINDOW {
            break;
        }
        let t = Instant::now();
        let p = setup(spec, &args.work_dir, repeat, args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        generate_s.push(p.generate_s);
        if let Some((dir, _)) = prepared.replace(p).and_then(|old| old.cold) {
            let _ = fs::remove_dir_all(dir);
        }
    }
    let prepared = prepared.expect("set-up ran at least once");
    Ok((median(&setup_s), median(&generate_s), prepared))
}

/// `--setup-only`: times the set-up in this process and returns the line
/// `<setup_s> <netlist.generate_s>` for the parent run to collect.
pub fn setup_only(args: &Args) -> Result<String, String> {
    let spec = Spec::new(args);
    let (setup_s, generate_s, prepared) = timed_setups(&spec, args)?;
    if let Some((dir, _)) = &prepared.cold {
        let _ = fs::remove_dir_all(dir);
    }
    Ok(format!("{setup_s} {generate_s}"))
}

/// Times the set-up in `args.setup_processes` fresh processes, one after
/// the other, and returns the medians over them. A process's address
/// layout alone can move a single-threaded set-up by ~1.5×, so one
/// process's median is not a steady figure.
fn setup_in_processes(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    for i in 0..args.setup_processes {
        let mut child = std::process::Command::new(&exe);
        child.args([
            "--workload",
            args.workload.name(),
            "--trace",
            "0",
            "--setup-only",
        ]);
        child.arg("--seed").arg(args.seed.to_string());
        child.arg("--seconds").arg(args.seconds.to_string());
        child
            .arg("--netlist-seed")
            .arg(args.netlist_seed.to_string());
        child
            .arg("--pipeline-seed")
            .arg(args.pipeline_seed.to_string());
        child
            .arg("--work-dir")
            .arg(args.work_dir.join(format!("setup-{i}")));
        if args.toy {
            child.arg("--toy");
        }
        let out = child
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run a set-up process: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let parsed: Vec<f64> = text
            .split_whitespace()
            .filter_map(|v| v.parse().ok())
            .collect();
        let [s, g] = parsed[..] else {
            return Err(format!("set-up process failed ({}): {text:?}", out.status));
        };
        setup_s.push(s);
        generate_s.push(g);
    }
    Ok((median(&setup_s), median(&generate_s)))
}

/// Runs one workload as `args` asks.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let spec = Spec::new(args);
    fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.work_dir.display()))?;
    let checker = Checker::load(args, &spec)?;

    let (mut setup_s, mut generate_s, prepared) = timed_setups(&spec, args)?;
    if args.setup_processes > 0 {
        (setup_s, generate_s) = setup_in_processes(args)?;
    }

    let mut run = Run {
        spec: &spec,
        args,
        prepared: &prepared,
        checker,
        ops: Ops::default(),
        metrics: Metrics::default(),
        quality: None,
        shape: None,
        outputs: None,
        warm_latency_ms: Vec::new(),
    };
    if let Some((_, cold)) = &prepared.cold {
        // The warm workload's outputs are the cold session's; check them
        // once against the reference.
        run.observe(cold);
        let outputs = cold.outputs;
        let checker = &run.checker;
        run.ops.run("cold session populating the cache", || {
            checker.check(&outputs)
        });
    }
    let budget = Duration::from_secs_f64(args.seconds);
    match (spec.workload, args.trace) {
        (Workload::Warm, false) => run.warm_untraced(budget),
        (Workload::Warm, true) => run.warm_traced(budget),
        (_, false) => run.cold_untraced(budget),
        (_, true) => run.cold_traced(),
    }

    let mut metrics = run.metrics;
    metrics.set("setup_s", setup_s);
    metrics.set("netlist.generate_s", generate_s);
    metrics.set("peak_rss_mb", peak_rss_mb());
    let (attempted, failed) = (run.ops.attempted, run.ops.failed);
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let result = report::result_line(
        failed == 0,
        attempted,
        failed,
        &metrics_json(table, &metrics),
    );
    let reference_line = run.outputs.map(|o| {
        spec.key.line(&Reference {
            adjacency: o.adjacency,
            patterns: o.patterns,
        })
    });
    let context = context_line(
        args,
        &run.checker,
        run.shape,
        run.quality,
        &run.warm_latency_ms,
        &metrics,
        (attempted, failed),
    );
    if let Some((dir, _)) = &prepared.cold {
        let _ = fs::remove_dir_all(dir);
    }
    let _ = fs::remove_dir_all(&args.work_dir);
    Ok(Outcome {
        context,
        result,
        reference_line,
    })
}

/// `{"context": {...}}`: where and on what the run measured, and every
/// user-facing output by name and unit (`null` where the workload has
/// none).
fn context_line(
    args: &Args,
    checker: &Checker,
    shape: Option<Shape>,
    quality: Option<Quality>,
    warm_ms: &[f64],
    metrics: &Metrics,
    (attempted, failed): (u64, u64),
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let shape = shape.unwrap_or_default();
    let value = |v: Option<f64>, unit: &str| match v {
        Some(v) => format!("{{\"value\": {}, \"unit\": {}}}", num(v), quote(unit)),
        None => "null".to_string(),
    };
    let untraced = !args.trace;
    let warm = args.workload == Workload::Warm && untraced;
    let outputs = [
        (
            "wall_s",
            value(untraced.then(|| metrics.get("wall_s")), "s"),
        ),
        ("setup_s", value(Some(metrics.get("setup_s")), "s")),
        ("peak_rss_mb", value(Some(metrics.get("peak_rss_mb")), "MB")),
        (
            "patterns",
            value(quality.map(|q| q.patterns as f64), "count"),
        ),
        ("coverage_pct", value(quality.map(|q| q.coverage_pct), "%")),
        (
            "activation_pct",
            value(quality.map(|q| q.activation_pct), "%"),
        ),
        ("warm_p50_ms", value(warm.then(|| median(warm_ms)), "ms")),
        (
            "warm_p95_ms",
            value(warm.then(|| quantile(warm_ms, 0.95)), "ms"),
        ),
        ("ops", value(Some(attempted as f64), "count")),
        ("ops_failed", value(Some(failed as f64), "count")),
    ];
    let outputs: Vec<String> = outputs
        .iter()
        .map(|(name, v)| format!("{}: {v}", quote(name)))
        .collect();
    format!(
        "{{\"context\": {{\"workload\": {}, \"trace\": {}, \"seed\": {}, \"netlist_seed\": {}, \
         \"pipeline_seed\": {}, \"scale\": {}, \"commit\": {}, \"nproc\": {nproc}, \
         \"threads\": {THREADS}, \"seconds\": {}, \"shape\": {{\"gates\": {}, \"rare_nets\": {}, \
         \"pairs\": {}, \"sat_pairs\": {}}}, \"reference\": {}, \"outputs\": {{{}}}}}}}",
        quote(args.workload.name()),
        u8::from(args.trace),
        args.seed,
        args.netlist_seed,
        args.pipeline_seed,
        quote(if args.toy { "toy" } else { "paper" }),
        quote(&args.commit),
        num(args.seconds),
        shape.gates,
        shape.rare_nets,
        shape.pairs,
        shape.sat_pairs,
        quote(checker.status),
        outputs.join(", ")
    )
}

/// Total bytes of the regular files under `dir` (0 when it does not exist).
fn dir_size(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(m) if m.is_dir() => dir_size(&entry.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
