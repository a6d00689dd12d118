//! Campaign sweeps over the DETERRENT pipeline.
//!
//! The paper's evaluation is a *campaign*: the same pipeline swept over
//! many benchmarks, rareness thresholds θ, and seeds (Table 2 runs every
//! technique over eight designs; TARMAC/TGRL-style coverage harnesses
//! repeat that per seed). This crate turns the staged
//! [`deterrent_core::DeterrentSession`] API into exactly that kind of
//! engine:
//!
//! * [`CampaignPlan`] — a grid of [`NetlistSpec`]s × θ × seeds over one
//!   base [`deterrent_core::DeterrentConfig`], expanded in a deterministic
//!   order by [`CampaignPlan::cells`].
//! * [`CampaignPlan::run`] — schedules every cell on the deterministic
//!   parallel runtime ([`exec::Exec`]), one
//!   [`deterrent_core::DeterrentSession`] per cell, all sharing one
//!   (optionally disk-backed and size-bounded) [`ArtifactStore`]. Progress
//!   leaves the run through one channel, [`RunPolicy::telemetry`]: cell,
//!   attempt, and stage spans that [`StderrTraceSink`] renders as the
//!   `[campaign] …` stderr lines. The resulting [`CampaignReport`]
//!   contains only deterministic quantities, so its TSV/Markdown
//!   rendering is **bit-identical at any thread count** and across warm
//!   restarts from the cache.
//! * Binaries: `deterrent-campaign` (run a sweep from the command line)
//!   and `deterrent-cache` (`stats` / `gc` / `verify` maintenance of a
//!   cache directory; see the binary sources for flag tables).
//!
//! # Failure domains
//!
//! Every cell runs in its own failure domain:
//! [`CampaignPlan::run_with_policy`] wraps each attempt in
//! [`exec::catch_task`], retries with deterministic backoff
//! ([`RunPolicy::max_retries`]), enforces an optional per-cell wall-clock
//! deadline, and reports what happened in a [`CellOutcome`] column of the
//! report. A seeded [`deterrent_core::FaultPlan`] can inject panics and
//! timeouts into the domains (each site at most once), so the recovery
//! paths are ordinary tested code and a faulted run's report is
//! byte-identical to a clean run's in every data column. A
//! [`Checkpoint`] file records completed rows so a killed campaign
//! resumes without recomputing them; [`RunPolicy::max_failures`] cancels
//! the remaining cells once real (non-recoverable) failures accumulate.
//!
//! # Example
//!
//! ```
//! use campaign::{CampaignPlan, NetlistSpec};
//! use deterrent_core::DeterrentConfig;
//! use netlist::synth::BenchmarkProfile;
//!
//! let plan = CampaignPlan {
//!     netlists: vec![NetlistSpec::new(BenchmarkProfile::c2670(), 20, 1)],
//!     thetas: vec![0.15, 0.2],
//!     seeds: vec![1, 2],
//!     base: DeterrentConfig::fast_preset(),
//!     cell_threads: 1,
//! };
//! // One netlist × two θ × two seeds = four cells, θ-major within a netlist.
//! let cells = plan.cells();
//! assert_eq!(cells.len(), 4);
//! assert_eq!(cells[0].theta, 0.15);
//! assert_eq!(cells[0].seed, 1);
//! assert_eq!(cells[3].theta, 0.2);
//! assert_eq!(cells[3].seed, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod spec;
mod trace;

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use deterrent_core::{
    ArtifactStore, CacheEvents, DeterrentConfig, DeterrentResult, DeterrentSession, FaultKind,
    FaultPlan, Stage, StoreCounters, QUIET_ENV_VAR,
};
use exec::{catch_task, split_seed, Exec, ExecStats};
use netlist::synth::BenchmarkProfile;
use netlist::Netlist;
use telemetry::{Counter, Span, SpanContext, Telemetry, Value, NONDET_VARY_KEY};

pub use checkpoint::{Checkpoint, SavedRow};
pub use spec::{base_config_for, PlanSpec};
pub use trace::StderrTraceSink;

/// Marker substring of the panic a [`RunPolicy::cell_deadline`] expiry
/// raises inside a cell's failure domain — how the retry loop tells a
/// deadline expiry apart from an ordinary panic and classifies it as
/// [`CellOutcome::TimedOut`].
pub const DEADLINE_MARKER: &str = "cell deadline exceeded";

/// One benchmark of a campaign: a synthetic profile, the divisor applied
/// to its paper-sized gate counts, and the generation seed.
#[derive(Debug, Clone)]
pub struct NetlistSpec {
    /// Display label (the profile's benchmark name).
    pub label: String,
    profile: BenchmarkProfile,
    /// Divisor applied to the profile (1 = paper-sized).
    pub scale: usize,
    /// Seed of the deterministic netlist generator.
    pub netlist_seed: u64,
}

impl NetlistSpec {
    /// A spec for `profile` shrunk by `scale` (1 = paper-sized), generated
    /// with `netlist_seed`.
    #[must_use]
    pub fn new(profile: BenchmarkProfile, scale: usize, netlist_seed: u64) -> Self {
        Self {
            label: profile.name.clone(),
            profile,
            scale,
            netlist_seed,
        }
    }

    /// Generates the netlist (deterministic in the spec).
    #[must_use]
    pub fn build(&self) -> Netlist {
        let profile = if self.scale <= 1 {
            self.profile.clone()
        } else {
            self.profile.scaled(self.scale)
        };
        profile.generate(self.netlist_seed)
    }
}

/// Looks up a benchmark profile by its lowercase name (`c2670`, `c5315`,
/// `c6288`, `c7552`, `s13207`, `s15850`, `s35932`, `mips`) — the names the
/// `deterrent-campaign --netlists` flag accepts.
#[must_use]
pub fn profile_by_name(name: &str) -> Option<BenchmarkProfile> {
    match name {
        "c2670" => Some(BenchmarkProfile::c2670()),
        "c5315" => Some(BenchmarkProfile::c5315()),
        "c6288" => Some(BenchmarkProfile::c6288()),
        "c7552" => Some(BenchmarkProfile::c7552()),
        "s13207" => Some(BenchmarkProfile::s13207()),
        "s15850" => Some(BenchmarkProfile::s15850()),
        "s35932" => Some(BenchmarkProfile::s35932()),
        "mips" => Some(BenchmarkProfile::mips()),
        _ => None,
    }
}

/// One cell of the expanded grid: which netlist, θ, and seed to run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// Position in [`CampaignPlan::cells`] order (also the report row).
    pub index: usize,
    /// Label of the netlist spec.
    pub netlist: String,
    /// Index into [`CampaignPlan::netlists`].
    pub netlist_index: usize,
    /// Rareness threshold θ of this cell.
    pub theta: f64,
    /// Master pipeline seed of this cell.
    pub seed: u64,
}

/// A grid of pipeline runs: netlists × θ × seeds over one base config.
///
/// [`CampaignPlan::run`] executes the grid on the deterministic parallel
/// runtime with one shared [`ArtifactStore`], which is where campaigns pay
/// off: reruns (and overlapping grids) are served from the cache, and a
/// bounded cache (see [`deterrent_core::CachePolicy`]) keeps long sweeps
/// from growing the cache dir without limit.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// The benchmarks to sweep.
    pub netlists: Vec<NetlistSpec>,
    /// The rareness thresholds θ to sweep.
    pub thetas: Vec<f64>,
    /// The master seeds to sweep.
    pub seeds: Vec<u64>,
    /// Base configuration of every cell; each cell replaces only θ, the
    /// seed, and the thread knob.
    pub base: DeterrentConfig,
    /// Worker threads of each cell's *session* executor (0 is clamped to
    /// 1: campaign-level parallelism comes from the campaign executor, so
    /// cells default to serial sessions and results stay bit-identical
    /// whichever level the parallelism lives at).
    pub cell_threads: usize,
}

impl CampaignPlan {
    /// Expands the grid in deterministic report order: netlists outermost,
    /// then θ, then seeds.
    #[must_use]
    pub fn cells(&self) -> Vec<CampaignCell> {
        let mut cells = Vec::with_capacity(self.len());
        for (netlist_index, spec) in self.netlists.iter().enumerate() {
            for &theta in &self.thetas {
                for &seed in &self.seeds {
                    cells.push(CampaignCell {
                        index: cells.len(),
                        netlist: spec.label.clone(),
                        netlist_index,
                        theta,
                        seed,
                    });
                }
            }
        }
        cells
    }

    /// Number of cells in the grid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.netlists.len() * self.thetas.len() * self.seeds.len()
    }

    /// `true` when the grid is empty along any axis.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs every cell of the grid on `exec` with the default
    /// [`RunPolicy`] (bounded retries, no deadline, no faults, no
    /// checkpoint), sharing `store` across all sessions. The report rows
    /// are in [`CampaignPlan::cells`] order regardless of which thread ran
    /// which cell, and contain only deterministic quantities — rendering
    /// the report is bit-identical at any thread count and across warm
    /// restarts from a persistent cache. Progress goes out only through
    /// [`RunPolicy::telemetry`], so use [`CampaignPlan::run_with_policy`]
    /// to watch it.
    #[must_use]
    pub fn run(&self, store: &ArtifactStore, exec: &Exec) -> CampaignReport {
        self.run_with_policy(store, exec, &RunPolicy::default())
    }

    /// Like [`CampaignPlan::run`], but with explicit fault-tolerance
    /// machinery: each cell runs in its own failure domain (panics are
    /// contained by [`exec::catch_task`] and retried up to
    /// [`RunPolicy::max_retries`] times with deterministic backoff), an
    /// optional per-cell wall-clock deadline converts runaway cells into
    /// [`CellOutcome::TimedOut`], a [`deterrent_core::FaultPlan`] injects
    /// deterministic panics/timeouts for testing, completed rows persist
    /// to a [`Checkpoint`] for kill-and-resume, and
    /// [`RunPolicy::max_failures`] cancels the rest of the grid once
    /// terminal failures accumulate.
    ///
    /// Because injected faults fire at most once per cell and retried
    /// attempts recompute from the same deterministic inputs, every
    /// recovered cell's data columns are bit-identical to a fault-free
    /// run — only the outcome column records that recovery happened.
    #[must_use]
    pub fn run_with_policy(
        &self,
        store: &ArtifactStore,
        exec: &Exec,
        policy: &RunPolicy,
    ) -> CampaignReport {
        let netlists: Vec<Netlist> = self.netlists.iter().map(NetlistSpec::build).collect();
        let cells = self.cells();
        let checkpoint = policy.checkpoint.as_ref().map(Checkpoint::open);
        // A fresh flag per run: cancellation never leaks across runs.
        let cancel = AtomicBool::new(false);
        let failures = AtomicUsize::new(0);
        let tele = &policy.telemetry;
        let mut run_span = tele.span("campaign");
        run_span.attr_u64("cells", cells.len() as u64);
        run_span.attr_u64("netlists", self.netlists.len() as u64);
        run_span.attr_u64("thetas", self.thetas.len() as u64);
        run_span.attr_u64("seeds", self.seeds.len() as u64);
        let run_ctx = run_span.context();
        let counters_before = store.counters();
        let events_before = store.cache_events();
        let exec_before = exec.stats();
        let checkpoint_writes = tele.counter("campaign.checkpoint_writes");
        let checkpoint_write_failures = tele.counter("campaign.checkpoint_write_failures");
        let env = CellEnv {
            plan: self,
            netlists: &netlists,
            store,
            policy,
            checkpoint: checkpoint.as_ref(),
            cancel: &cancel,
            failures: &failures,
            run_ctx: &run_ctx,
            checkpoint_writes: &checkpoint_writes,
            checkpoint_write_failures: &checkpoint_write_failures,
        };
        env.resolve_estimates(&cells, exec);
        let results = exec.par_map(&cells, |_, cell| env.execute(cell));
        let report = CampaignReport { cells: results };
        finish_run_span(
            run_span,
            tele.is_enabled(),
            &report,
            store,
            &counters_before,
            &events_before,
            exec_before,
            exec.stats(),
        );
        report
    }

    /// The effective config of one cell: the base with the cell's θ, seed,
    /// and session thread count.
    fn cell_config(&self, cell: &CampaignCell) -> DeterrentConfig {
        self.base
            .clone()
            .with_threshold(cell.theta)
            .with_seed(cell.seed)
            .with_threads(self.cell_threads.max(1))
    }

    /// One cell's failure domain: up to `1 + max_retries` attempts, each
    /// wrapped in [`exec::catch_task`], with deterministic seeded backoff
    /// between attempts. Fault-plan timeouts consume an attempt without
    /// consuming wall clock; fault-plan panics unwind through the same
    /// containment as real ones.
    fn run_cell(
        &self,
        cell: &CampaignCell,
        netlist: &Netlist,
        store: &ArtifactStore,
        policy: &RunPolicy,
        key: u64,
        cell_ctx: &SpanContext,
    ) -> CellResult {
        let tele = &policy.telemetry;
        let mut last_failure: Option<AttemptFailure> = None;
        for attempt in 0..=policy.max_retries {
            let mut attempt_span = tele.child_span(cell_ctx, &format!("attempt.{attempt}"));
            attempt_span.attr_u64("attempt", u64::from(attempt));
            if attempt > 0 {
                // Seeded backoff: the duration is a pure function of
                // (cell key, attempt) — wall clock never enters the
                // decision, so retried runs stay deterministic.
                let millis = 1 + split_seed(key ^ BACKOFF_SALT, u64::from(attempt)) % 8;
                attempt_span.attr_u64("backoff_ms", millis);
                std::thread::sleep(Duration::from_millis(millis));
            }
            if let Some(plan) = &policy.faults {
                if plan.should_inject(FaultKind::CellTimeout, key) {
                    // Simulated deadline expiry: a timed-out attempt that
                    // consumes no wall clock.
                    attempt_span.attr_str("result", "timeout");
                    attempt_span.attr_bool("injected", true);
                    attempt_span.close();
                    last_failure = Some(AttemptFailure::Timeout);
                    continue;
                }
            }
            let attempt_ctx = attempt_span.context();
            let attempt_tele = tele.clone();
            let attempt_result = catch_task(cell.index, move || {
                if let Some(plan) = &policy.faults {
                    if plan.should_inject(FaultKind::CellPanic, key) {
                        panic!("injected cell fault (plan seed {})", plan.seed());
                    }
                }
                let mut session =
                    DeterrentSession::with_store(netlist, self.cell_config(cell), store.clone());
                session.set_telemetry(attempt_tele, Some(attempt_ctx));
                let result = run_stages(&mut session, policy.cell_deadline);
                (result, session.exec_stats())
            });
            match attempt_result {
                Ok((result, exec_stats)) => {
                    let outcome = if attempt == 0 {
                        CellOutcome::Ok
                    } else {
                        CellOutcome::Retried(attempt)
                    };
                    attempt_span.attr_str("result", "ok");
                    // Executor totals depend on which session computed the
                    // shared artifacts, so they are nondeterministic facts.
                    attempt_span.vary_u64("exec_calls", exec_stats.calls);
                    attempt_span.vary_u64("exec_tasks", exec_stats.tasks);
                    attempt_span.close();
                    return match result {
                        Some(result) => CellResult::new(cell, netlist, &result, outcome),
                        None => CellResult::unrun(cell, netlist, outcome),
                    };
                }
                Err(err) => {
                    let failure = if err.message.contains(DEADLINE_MARKER) {
                        AttemptFailure::Timeout
                    } else {
                        AttemptFailure::Panic(err.message)
                    };
                    attempt_span.attr_str(
                        "result",
                        match failure {
                            AttemptFailure::Timeout => "timeout",
                            AttemptFailure::Panic(_) => "panic",
                        },
                    );
                    if let AttemptFailure::Panic(message) = &failure {
                        attempt_span.vary_str("error", message);
                    }
                    attempt_span.close();
                    last_failure = Some(failure);
                }
            }
        }
        let outcome = match last_failure {
            Some(AttemptFailure::Timeout) => CellOutcome::TimedOut,
            Some(AttemptFailure::Panic(message)) => CellOutcome::Failed(message),
            None => CellOutcome::Failed("no attempts ran".to_string()),
        };
        CellResult::unrun(cell, netlist, outcome)
    }

    /// Content fingerprint of one cell: netlist spec (label, scale,
    /// generation seed) ⊕ the semantic fields of the cell's effective
    /// config (θ and the master seed included;
    /// [`DeterrentConfig::content_fingerprint`] excludes threads and cache
    /// knobs). This is the checkpoint row key and the fault-injection site
    /// identity, so both survive replanning as long as the cell means the
    /// same computation.
    fn cell_key(&self, cell: &CampaignCell) -> u64 {
        let spec = &self.netlists[cell.netlist_index];
        let config_fp = self
            .base
            .clone()
            .with_threshold(cell.theta)
            .with_seed(cell.seed)
            .content_fingerprint();
        let mut hash = fnv1a_bytes(0xcbf2_9ce4_8422_2325, b"campaign/cell");
        hash = fnv1a_bytes(hash, spec.label.as_bytes());
        for v in [
            spec.scale as u64,
            spec.netlist_seed,
            cell.theta.to_bits(),
            cell.seed,
            config_fp,
        ] {
            hash = fnv1a_bytes(hash, &v.to_le_bytes());
        }
        hash
    }
}

/// Salt decorrelating backoff durations from fault-plan decisions on the
/// same cell key.
const BACKOFF_SALT: u64 = 0xBAC0_FF5A_17ED_0001;

fn fnv1a_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why one attempt of a cell failed (the loop keeps only the last).
enum AttemptFailure {
    Timeout,
    Panic(String),
}

/// Drives one attempt's session through analyze → build_graph → train →
/// select → generate, checking `deadline` after each stage: the first stage
/// to finish past it panics with [`DEADLINE_MARKER`], which the cell's
/// failure domain contains and classifies as [`CellOutcome::TimedOut`].
/// Checking at stage boundaries keeps the session free of cancellation
/// plumbing while still bounding every attempt to roughly one stage past
/// its budget. `None` when the graph is empty (no rare nets at this θ): the
/// row's data columns are zero.
fn run_stages(
    session: &mut DeterrentSession<'_>,
    deadline: Option<Duration>,
) -> Option<DeterrentResult> {
    let start = Instant::now();
    let check = |stage: Stage| {
        if let Some(limit) = deadline {
            let elapsed = start.elapsed();
            if elapsed > limit {
                panic!("{DEADLINE_MARKER}: {elapsed:?} > {limit:?} after {stage}");
            }
        }
    };
    let rare = session.analyze();
    check(Stage::Analyze);
    let graph = session.build_graph(&rare);
    check(Stage::BuildGraph);
    if graph.graph().is_empty() {
        return None;
    }
    let policy = session.train(&graph);
    check(Stage::Train);
    let sets = session.select(&graph, &policy);
    check(Stage::Select);
    let result = session.generate(&graph, &policy, &sets);
    check(Stage::Generate);
    Some(result)
}

/// Fault-tolerance knobs of [`CampaignPlan::run_with_policy`].
#[derive(Debug, Clone)]
pub struct RunPolicy {
    /// Retries after a failed attempt (so `1 + max_retries` attempts per
    /// cell). Default 2 — enough to absorb one injected timeout *and* one
    /// injected panic on the same cell.
    pub max_retries: u32,
    /// Wall-clock budget of one attempt, checked by the attempt after each
    /// stage; an attempt past it panics with [`DEADLINE_MARKER`] (contained
    /// and classified as [`CellOutcome::TimedOut`]). `None` = unlimited.
    pub cell_deadline: Option<Duration>,
    /// Cancel every not-yet-started cell once this many cells have failed
    /// terminally (not recovered by a retry); `Some(1)` is fail-fast.
    /// `None` = never.
    pub max_failures: Option<usize>,
    /// Deterministic fault-injection schedule for the cell failure
    /// domains. (Thread the same plan into the store via
    /// [`ArtifactStore::with_disk_policy_faults`] to also fault the disk
    /// tier.)
    pub faults: Option<FaultPlan>,
    /// Checkpoint file recording completed rows for kill-and-resume.
    pub checkpoint: Option<PathBuf>,
    /// Telemetry handle the run emits spans and counters through. The
    /// default (disabled) handle costs nothing and emits nothing; attach
    /// sinks with [`telemetry::Telemetry::new`] to capture a trace. All
    /// telemetry is out-of-band: the [`CampaignReport`] is byte-identical
    /// with or without it, at any thread count.
    pub telemetry: Telemetry,
}

impl Default for RunPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            cell_deadline: None,
            max_failures: None,
            faults: None,
            checkpoint: None,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// `true` when [`QUIET_ENV_VAR`] requests stderr silence (`"1"`, after
/// trimming). Gates the checkpoint-write warning; the failure is still
/// counted in the `campaign.checkpoint_write_failures` telemetry counter.
fn quiet_requested() -> bool {
    std::env::var(QUIET_ENV_VAR).is_ok_and(|v| v.trim() == "1")
}

/// Everything one cell's failure domain reads, borrowed from
/// [`CampaignPlan::run_with_policy`]'s stack frame and shared by every
/// worker of the run.
struct CellEnv<'a> {
    plan: &'a CampaignPlan,
    netlists: &'a [Netlist],
    store: &'a ArtifactStore,
    policy: &'a RunPolicy,
    checkpoint: Option<&'a Checkpoint>,
    cancel: &'a AtomicBool,
    failures: &'a AtomicUsize,
    run_ctx: &'a SpanContext,
    checkpoint_writes: &'a Counter,
    checkpoint_write_failures: &'a Counter,
}

impl CellEnv<'_> {
    /// Resolves every distinct estimate artifact of the pending cells once,
    /// on `exec`, before any cell runs. Every θ of a (netlist, seed) at or
    /// below the retention ceiling shares one estimate, so cells racing on
    /// a cold store would otherwise each compute it. Groups whose cells are
    /// all restored from the checkpoint are skipped. A panic here is
    /// contained: the cells then resolve the estimate themselves, each
    /// inside its own failure domain.
    fn resolve_estimates(&self, cells: &[CampaignCell], exec: &Exec) {
        let plan = self.plan;
        let mut seen = HashSet::new();
        let pending: Vec<&CampaignCell> = cells
            .iter()
            .filter(|cell| {
                self.checkpoint
                    .is_none_or(|c| c.get(plan.cell_key(cell)).is_none())
            })
            .filter(|cell| {
                let retain = plan.cell_config(cell).analysis.effective_retain();
                seen.insert((cell.netlist_index, cell.seed, retain.to_bits()))
            })
            .collect();
        exec.par_map(&pending, |_, cell| {
            let mut span = self
                .policy
                .telemetry
                .child_span(self.run_ctx, Stage::Estimate.name());
            // Shared groundwork rather than a cell's own work, so it stays
            // out of the per-cell canonical projection.
            span.vary(NONDET_VARY_KEY, Value::Bool(true));
            let netlist = &self.netlists[cell.netlist_index];
            let resolved = catch_task(cell.index, || {
                let mut session = DeterrentSession::with_store(
                    netlist,
                    plan.cell_config(cell),
                    self.store.clone(),
                );
                let _ = session.estimate();
                // A cache hit dispatches no executor work.
                session.exec_stats().calls == 0
            });
            match resolved {
                Ok(cache_hit) => span.vary("cache_hit", Value::Bool(cache_hit)),
                Err(err) => span.vary_str("error", &err.message),
            }
            span.close();
        });
    }

    /// Runs one cell end to end: checkpoint restore, cancellation check,
    /// the retry loop ([`CampaignPlan::run_cell`]), checkpoint recording,
    /// and failure accounting for [`RunPolicy::max_failures`].
    fn execute(&self, cell: &CampaignCell) -> CellResult {
        let tele = &self.policy.telemetry;
        let key = self.plan.cell_key(cell);
        let netlist = &self.netlists[cell.netlist_index];
        let mut cell_span = tele.child_span(self.run_ctx, &format!("cell.{}", cell.index));
        cell_span.attr_u64("index", cell.index as u64);
        cell_span.attr_str("netlist", &cell.netlist);
        cell_span.attr_f64("theta", cell.theta);
        cell_span.attr_u64("seed", cell.seed);
        if let Some(saved) = self.checkpoint.and_then(|c| c.get(key)) {
            let row = CellResult::from_saved(cell, &saved);
            cell_span.attr_bool("restored", true);
            close_cell_span(cell_span, &row);
            return row;
        }
        if self.cancel.load(Ordering::Relaxed) {
            let row =
                CellResult::unrun(cell, netlist, CellOutcome::Failed("cancelled".to_string()));
            // Which cells a fail-fast cancellation catches unstarted
            // depends on scheduling, so the span opts out of the
            // canonical (thread-invariance) projection.
            cell_span.attr_bool("cancelled", true);
            cell_span.vary(NONDET_VARY_KEY, Value::Bool(true));
            close_cell_span(cell_span, &row);
            return row;
        }
        let mut start_mark = cell_span.child("cell_start");
        start_mark.attr_u64("index", cell.index as u64);
        start_mark.attr_str("netlist", &cell.netlist);
        start_mark.attr_f64("theta", cell.theta);
        start_mark.attr_u64("seed", cell.seed);
        start_mark.mark();
        let row = self.plan.run_cell(
            cell,
            netlist,
            self.store,
            self.policy,
            key,
            &cell_span.context(),
        );
        if row.outcome.recovered() {
            if let Some(ckpt) = self.checkpoint {
                match ckpt.record(key, row.to_saved()) {
                    Ok(()) => self.checkpoint_writes.inc(1),
                    Err(e) => {
                        self.checkpoint_write_failures.inc(1);
                        if !quiet_requested() {
                            eprintln!("[campaign] warning: checkpoint write failed: {e}");
                        }
                    }
                }
            }
        } else {
            let seen = self.failures.fetch_add(1, Ordering::Relaxed) + 1;
            if self.policy.max_failures.is_some_and(|limit| seen >= limit) {
                self.cancel.store(true, Ordering::Relaxed);
            }
        }
        close_cell_span(cell_span, &row);
        row
    }
}

/// Closes the root `campaign` span with the outcome tally in `attrs` and
/// the store/cache/executor deltas in `vary` — the deltas go in `vary`
/// because the store may be shared with other concurrent work, and which
/// tier served an artifact depends on scheduling when a disk tier backs
/// the run.
#[allow(clippy::too_many_arguments)]
fn finish_run_span(
    mut run_span: Span,
    enabled: bool,
    report: &CampaignReport,
    store: &ArtifactStore,
    counters_before: &StoreCounters,
    events_before: &CacheEvents,
    exec_before: ExecStats,
    exec_after: ExecStats,
) {
    if enabled {
        let mut tally = [0u64; 4];
        for row in &report.cells {
            tally[match row.outcome {
                CellOutcome::Ok => 0,
                CellOutcome::Retried(_) => 1,
                CellOutcome::TimedOut => 2,
                CellOutcome::Failed(_) => 3,
            }] += 1;
        }
        run_span.attr_u64("ok", tally[0]);
        run_span.attr_u64("retried", tally[1]);
        run_span.attr_u64("timeout", tally[2]);
        run_span.attr_u64("failed", tally[3]);
        let counters_after = store.counters();
        for (stage, after) in counters_after.stages() {
            let delta = after.since(counters_before.stage(stage));
            let name = stage.name();
            run_span.vary_u64(&format!("store.{name}.mem_hits"), delta.hits);
            run_span.vary_u64(&format!("store.{name}.computed"), delta.misses);
            run_span.vary_u64(&format!("store.{name}.disk_hits"), delta.disk_hits);
            run_span.vary_u64(&format!("store.{name}.disk_misses"), delta.disk_misses);
            run_span.vary_u64(&format!("store.{name}.disk_corrupt"), delta.disk_corrupt);
        }
        let events = store.cache_events().since(*events_before);
        run_span.vary_u64("cache.corrupt", events.corrupt);
        run_span.vary_u64("cache.version_mismatch", events.version_mismatch);
        run_span.vary_u64("cache.io", events.io);
        run_span.vary_u64("cache.evictions", events.budget_evictions);
        let exec = exec_after.since(exec_before);
        run_span.vary_u64("exec.calls", exec.calls);
        run_span.vary_u64("exec.tasks", exec.tasks);
        run_span.vary_u64("exec.busy_nanos", exec.busy_nanos);
    }
    run_span.close();
}

/// Closes a cell span with the row's outcome and data columns. Outcome
/// kind, retry count, and the deterministic data columns go in `attrs`
/// (thread-count invariant); a failure's free-text reason goes in `vary`
/// (panic messages can carry durations).
fn close_cell_span(mut span: Span, row: &CellResult) {
    span.attr_str("outcome", row.outcome.kind());
    if let CellOutcome::Retried(n) = row.outcome {
        span.attr_u64("retries", u64::from(n));
    }
    if let CellOutcome::Failed(reason) = &row.outcome {
        span.vary_str("error", reason);
    }
    span.attr_u64("gates", row.gates as u64);
    span.attr_u64("rare_nets", row.rare_nets as u64);
    span.attr_u64("sets", row.sets as u64);
    span.attr_u64("patterns", row.patterns as u64);
    span.attr_u64("max_compatible_set", row.max_compatible_set as u64);
    span.close();
}

/// How one cell's failure domain concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// Succeeded on the first attempt.
    Ok,
    /// Succeeded after this many retries; the data columns are
    /// bit-identical to a first-try success.
    Retried(u32),
    /// Every attempt ran past the cell deadline (real or injected); the
    /// data columns are zero.
    TimedOut,
    /// Every attempt panicked; the string is the last panic message. The
    /// data columns are zero.
    Failed(String),
}

impl CellOutcome {
    /// `true` when the cell produced its result (first try or retried) —
    /// the outcomes a checkpoint persists and a chaos gate accepts.
    #[must_use]
    pub fn recovered(&self) -> bool {
        matches!(self, Self::Ok | Self::Retried(_))
    }

    /// The outcome's kind as a static token: `ok`, `retried`, `timeout`,
    /// or `failed`. This is what cell spans carry in their deterministic
    /// `attrs`; the retry count and failure reason ride separately (the
    /// count as another attr, the free-text reason in `vary`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Ok => "ok",
            Self::Retried(_) => "retried",
            Self::TimedOut => "timeout",
            Self::Failed(_) => "failed",
        }
    }

    /// The outcome as the report's single-token column value: `ok`,
    /// `retried:N`, `timeout`, or `failed:<reason>` (reason whitespace
    /// flattened so the TSV stays one row per cell).
    #[must_use]
    pub fn column(&self) -> String {
        match self {
            Self::Ok => "ok".to_string(),
            Self::Retried(n) => format!("retried:{n}"),
            Self::TimedOut => "timeout".to_string(),
            Self::Failed(reason) => {
                format!("failed:{}", reason.replace(['\t', '\n', '\r'], " "))
            }
        }
    }
}

/// Deterministic outcome of one cell, a row of the [`CampaignReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The cell that produced this row.
    pub cell: CampaignCell,
    /// Logic gates of the (scaled) netlist.
    pub gates: usize,
    /// Rare nets found at this cell's θ.
    pub rare_nets: usize,
    /// Compatible sets selected (`k` largest distinct).
    pub sets: usize,
    /// Test patterns generated.
    pub patterns: usize,
    /// Largest compatible set harvested.
    pub max_compatible_set: usize,
    /// How the cell's failure domain concluded.
    pub outcome: CellOutcome,
}

impl CellResult {
    fn new(
        cell: &CampaignCell,
        netlist: &Netlist,
        result: &DeterrentResult,
        outcome: CellOutcome,
    ) -> Self {
        Self {
            cell: cell.clone(),
            gates: netlist.num_logic_gates(),
            rare_nets: result.rare_nets.len(),
            sets: result.sets.len(),
            patterns: result.patterns.len(),
            max_compatible_set: result.metrics.max_compatible_set,
            outcome,
        }
    }

    /// A row for a cell that produced no result (timed out, failed, or
    /// cancelled): data columns zero, gates still known from the netlist.
    fn unrun(cell: &CampaignCell, netlist: &Netlist, outcome: CellOutcome) -> Self {
        Self {
            cell: cell.clone(),
            gates: netlist.num_logic_gates(),
            rare_nets: 0,
            sets: 0,
            patterns: 0,
            max_compatible_set: 0,
            outcome,
        }
    }

    /// A row restored from a checkpoint without recomputing the cell.
    fn from_saved(cell: &CampaignCell, saved: &SavedRow) -> Self {
        Self {
            cell: cell.clone(),
            gates: saved.gates as usize,
            rare_nets: saved.rare_nets as usize,
            sets: saved.sets as usize,
            patterns: saved.patterns as usize,
            max_compatible_set: saved.max_compatible_set as usize,
            outcome: if saved.retries == 0 {
                CellOutcome::Ok
            } else {
                CellOutcome::Retried(saved.retries)
            },
        }
    }

    /// The checkpoint-persisted slice of this row (recovered rows only).
    fn to_saved(&self) -> SavedRow {
        SavedRow {
            retries: match self.outcome {
                CellOutcome::Retried(n) => n,
                _ => 0,
            },
            gates: self.gates as u64,
            rare_nets: self.rare_nets as u64,
            sets: self.sets as u64,
            patterns: self.patterns as u64,
            max_compatible_set: self.max_compatible_set as u64,
        }
    }
}

/// The collected rows of a campaign, in plan order.
///
/// Rows hold only quantities that are bit-identical at any thread count
/// and across warm cache restarts — no wall clocks, no cache counters —
/// so [`CampaignReport::to_tsv`] / [`CampaignReport::to_markdown`] output
/// can be `cmp`-gated in CI. Cache-tier counters belong on stderr (see
/// [`ArtifactStore::summary`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// One row per cell, in [`CampaignPlan::cells`] order.
    pub cells: Vec<CellResult>,
}

impl CampaignReport {
    const COLUMNS: [&'static str; 9] = [
        "netlist",
        "theta",
        "seed",
        "gates",
        "rare_nets",
        "sets",
        "patterns",
        "max_compatible_set",
        "outcome",
    ];

    fn row(r: &CellResult) -> [String; 9] {
        [
            r.cell.netlist.clone(),
            format!("{}", r.cell.theta),
            format!("{}", r.cell.seed),
            format!("{}", r.gates),
            format!("{}", r.rare_nets),
            format!("{}", r.sets),
            format!("{}", r.patterns),
            format!("{}", r.max_compatible_set),
            r.outcome.column(),
        ]
    }

    /// `true` when every cell recovered (outcome `ok` or `retried:N`) —
    /// the success criterion of chaos gates and the campaign CLI's exit
    /// code.
    #[must_use]
    pub fn all_recovered(&self) -> bool {
        self.cells.iter().all(|r| r.outcome.recovered())
    }

    /// One-line outcome tally, e.g. `ok=6 retried=2 timeout=0 failed=0`.
    #[must_use]
    pub fn outcome_summary(&self) -> String {
        let (mut ok, mut retried, mut timeout, mut failed) = (0u64, 0u64, 0u64, 0u64);
        for r in &self.cells {
            match r.outcome {
                CellOutcome::Ok => ok += 1,
                CellOutcome::Retried(_) => retried += 1,
                CellOutcome::TimedOut => timeout += 1,
                CellOutcome::Failed(_) => failed += 1,
            }
        }
        format!("ok={ok} retried={retried} timeout={timeout} failed={failed}")
    }

    /// The report as tab-separated values with a header row.
    #[must_use]
    pub fn to_tsv(&self) -> String {
        let mut out = Self::COLUMNS.join("\t");
        out.push('\n');
        for r in &self.cells {
            out.push_str(&Self::row(r).join("\t"));
            out.push('\n');
        }
        out
    }

    /// The report as a GitHub-flavoured Markdown table.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", Self::COLUMNS.join(" | "));
        let _ = writeln!(out, "|{}", "---|".repeat(Self::COLUMNS.len()));
        for r in &self.cells {
            let _ = writeln!(out, "| {} |", Self::row(r).join(" | "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan() -> CampaignPlan {
        CampaignPlan {
            netlists: vec![
                NetlistSpec::new(BenchmarkProfile::c2670(), 25, 3),
                NetlistSpec::new(BenchmarkProfile::c5315(), 30, 3),
            ],
            thetas: vec![0.18, 0.22],
            seeds: vec![7, 8],
            base: DeterrentConfig::fast_preset()
                .with_probability_patterns(1024)
                .with_episodes(12)
                .with_eval_rollouts(4)
                .with_k_patterns(4),
            cell_threads: 1,
        }
    }

    #[test]
    fn cells_expand_in_deterministic_order() {
        let plan = tiny_plan();
        let cells = plan.cells();
        assert_eq!(cells.len(), plan.len());
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].netlist, "c2670");
        assert_eq!((cells[0].theta, cells[0].seed), (0.18, 7));
        assert_eq!((cells[1].theta, cells[1].seed), (0.18, 8));
        assert_eq!((cells[2].theta, cells[2].seed), (0.22, 7));
        assert_eq!(cells[7].netlist, "c5315");
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
    }

    #[test]
    fn report_is_bit_identical_at_any_thread_count() {
        let plan = tiny_plan();
        let serial = plan.run(&ArtifactStore::new(), &Exec::new(1));
        let parallel = plan.run(&ArtifactStore::new(), &Exec::new(4));
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_tsv(), parallel.to_tsv());
        assert_eq!(serial.to_markdown(), parallel.to_markdown());
        assert_eq!(serial.cells.len(), 8);
    }

    #[test]
    fn shared_store_makes_reruns_warm() {
        let plan = tiny_plan();
        let store = ArtifactStore::new();
        let exec = Exec::new(1);
        let cold = plan.run(&store, &exec);
        let misses_after_cold = store.counters().total_misses();
        assert!(misses_after_cold > 0);
        let warm = plan.run(&store, &exec);
        assert_eq!(cold, warm, "warm rerun must reproduce the report");
        assert_eq!(
            store.counters().total_misses(),
            misses_after_cold,
            "the rerun must not compute anything new"
        );
    }

    #[test]
    fn theta_sweep_estimates_once_with_concurrent_workers() {
        use telemetry::{MemorySink, Telemetry};

        let plan = CampaignPlan {
            netlists: vec![NetlistSpec::new(BenchmarkProfile::c2670(), 25, 3)],
            thetas: vec![0.10, 0.12, 0.14, 0.2],
            seeds: vec![7],
            ..tiny_plan()
        };
        let sink = MemorySink::new();
        let policy = RunPolicy {
            telemetry: Telemetry::new(vec![Box::new(sink.clone())]),
            ..RunPolicy::default()
        };
        let store = ArtifactStore::new();
        let report = plan.run_with_policy(&store, &Exec::new(2), &policy);
        assert!(report.all_recovered());
        let counters = store.counters();
        assert_eq!(counters.estimate.misses, 1, "one estimation: {counters:?}");
        assert_eq!(counters.analyze.misses, 4, "one thresholding per θ");
        // The trace records that single estimation as the one cold
        // estimate span.
        let cold = sink
            .events()
            .iter()
            .filter(|e| e.name == "estimate")
            .filter(|e| e.vary.get("cache_hit").and_then(Value::as_bool) == Some(false))
            .count();
        assert_eq!(cold, 1);
        assert_eq!(report, plan.run(&ArtifactStore::new(), &Exec::new(1)));
    }

    #[test]
    fn progress_renders_through_the_trace_sink() {
        use telemetry::{MemorySink, Telemetry};

        let mut plan = tiny_plan();
        plan.netlists.truncate(1);
        plan.thetas.truncate(1);
        let sink = MemorySink::new();
        let policy = RunPolicy {
            telemetry: Telemetry::new(vec![Box::new(sink.clone())]),
            ..RunPolicy::default()
        };
        let report = plan.run_with_policy(&ArtifactStore::new(), &Exec::new(2), &policy);
        assert!(report.all_recovered());
        let lines: Vec<String> = sink
            .events()
            .iter()
            .filter_map(trace::render_trace_line)
            .collect();
        let count = |needle: &str| lines.iter().filter(|l| l.contains(needle)).count();
        assert_eq!(count(" start: "), 2, "{lines:#?}");
        assert_eq!(count(" done: "), 2, "{lines:#?}");
        // Six stages per cell (θ=0.18 on c2670/25 finds rare nets, so every
        // stage runs).
        assert!(
            count(": computed in ") + count(": warm in ") >= 2 * 2,
            "{lines:#?}"
        );
        assert!(lines.iter().all(|l| l.starts_with("[campaign] cell ")));
    }

    /// A smaller grid for the fault-tolerance tests: two cells, one
    /// netlist.
    fn two_cell_plan() -> CampaignPlan {
        let mut plan = tiny_plan();
        plan.netlists.truncate(1);
        plan.seeds.truncate(1);
        plan
    }

    /// The report TSV minus the outcome column — the projection that must
    /// be byte-identical between clean and faulted runs.
    fn data_projection(tsv: &str) -> String {
        tsv.lines()
            .map(|line| match line.rfind('\t') {
                Some(cut) => &line[..cut],
                None => line,
            })
            .fold(String::new(), |mut out, line| {
                out.push_str(line);
                out.push('\n');
                out
            })
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "deterrent-campaign-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn faulted_run_recovers_bit_identical_at_any_thread_count() {
        let plan = two_cell_plan();
        let cache = temp_dir("chaos");
        let _ = std::fs::remove_dir_all(&cache);

        // Clean cold run populates the disk tier and fixes the expected
        // data bytes.
        let clean_store = ArtifactStore::with_disk(&cache);
        let clean = plan.run(&clean_store, &Exec::new(1));
        assert!(clean.all_recovered());
        let expected = data_projection(&clean.to_tsv());

        // Warm faulted runs: fresh memory tier, same disk tier, so every
        // lookup exercises the faulted disk path; cell panics and
        // timeouts fire on top. Each run gets a fresh plan instance (the
        // fire-once state must not leak between runs).
        let spec = "seed=11,panic=1000,timeout=1000,corrupt=800,io=300,evict=500";
        for threads in [1, 4] {
            let faults = deterrent_core::FaultPlan::parse(spec).expect("spec");
            let store = ArtifactStore::with_disk_policy_faults(
                &cache,
                deterrent_core::CachePolicy::default(),
                Some(faults.clone()),
            );
            let policy = RunPolicy {
                faults: Some(faults.clone()),
                ..RunPolicy::default()
            };
            let report = plan.run_with_policy(&store, &Exec::new(threads), &policy);
            assert!(
                report.all_recovered(),
                "fire-once faults always heal (threads={threads}): {}",
                report.outcome_summary()
            );
            assert_eq!(
                data_projection(&report.to_tsv()),
                expected,
                "data columns bit-identical under faults at threads={threads}"
            );
            let counts = faults.counts();
            assert!(counts.panics >= 1, "≥1 injected panic: {counts:?}");
            assert!(counts.timeouts >= 1, "≥1 injected timeout: {counts:?}");
            assert!(
                counts.corrupt_reads + counts.io_errors + counts.eviction_races >= 1,
                "≥1 injected disk fault: {counts:?}"
            );
            // Every outcome records the recovery.
            for row in &report.cells {
                assert!(
                    matches!(row.outcome, CellOutcome::Retried(_)),
                    "panic+timeout at rate 1000 forces retries: {:?}",
                    row.outcome
                );
            }
            // The store healed whatever the plan corrupted.
            let events = store.cache_events();
            assert_eq!(
                events.corrupt + events.io,
                counts.corrupt_reads + counts.io_errors,
                "every injected disk fault was classified: {events:?} vs {counts:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&cache);
    }

    #[test]
    fn zero_deadline_times_out_deterministically() {
        let plan = two_cell_plan();
        let policy = RunPolicy {
            max_retries: 1,
            cell_deadline: Some(Duration::ZERO),
            ..RunPolicy::default()
        };
        let store = ArtifactStore::new();
        let a = plan.run_with_policy(&store, &Exec::new(1), &policy);
        // Every attempt stops at the first stage boundary (after analyze):
        // nothing from build_graph on ever ran.
        let counters = store.counters();
        assert_eq!(counters.build_graph.misses, 0);
        assert_eq!(counters.train.misses, 0);
        let b = plan.run_with_policy(&ArtifactStore::new(), &Exec::new(4), &policy);
        assert_eq!(a.to_tsv(), b.to_tsv(), "timeouts render identically");
        assert!(!a.all_recovered());
        for row in &a.cells {
            assert_eq!(row.outcome, CellOutcome::TimedOut);
            assert_eq!((row.rare_nets, row.patterns), (0, 0), "no data columns");
            assert!(row.gates > 0, "gates are known without running");
        }
        assert_eq!(a.outcome_summary(), "ok=0 retried=0 timeout=2 failed=0");

        // A generous deadline never fires.
        let relaxed = RunPolicy {
            cell_deadline: Some(Duration::from_secs(3600)),
            ..policy
        };
        let c = plan.run_with_policy(&ArtifactStore::new(), &Exec::new(1), &relaxed);
        assert!(c.cells.iter().all(|row| row.outcome == CellOutcome::Ok));
    }

    #[test]
    fn fail_fast_cancels_unstarted_cells() {
        let plan = two_cell_plan();
        let policy = RunPolicy {
            max_retries: 0,
            cell_deadline: Some(Duration::ZERO),
            max_failures: Some(1),
            ..RunPolicy::default()
        };
        // Serial executor: the first cell times out, cancelling the rest.
        let report = plan.run_with_policy(&ArtifactStore::new(), &Exec::serial(), &policy);
        assert_eq!(report.cells[0].outcome, CellOutcome::TimedOut);
        assert_eq!(
            report.cells[1].outcome,
            CellOutcome::Failed("cancelled".to_string())
        );
    }

    #[test]
    fn max_failures_cancels_after_the_threshold() {
        let plan = tiny_plan();
        let policy = RunPolicy {
            max_retries: 0,
            cell_deadline: Some(Duration::ZERO),
            max_failures: Some(2),
            ..RunPolicy::default()
        };
        // Serial executor: cells 0 and 1 time out, the second failure
        // reaches the threshold, and cells 2..8 never start.
        let report = plan.run_with_policy(&ArtifactStore::new(), &Exec::serial(), &policy);
        let outcomes: Vec<String> = report.cells.iter().map(|r| r.outcome.column()).collect();
        let mut expected = vec!["timeout".to_string(); 2];
        expected.resize(8, "failed:cancelled".to_string());
        assert_eq!(outcomes, expected);
    }

    #[test]
    fn checkpoint_resume_recomputes_only_unfinished_cells() {
        let plan = two_cell_plan();
        let ckpt = temp_dir("ckpt").join("campaign.ckpt");
        let _ = std::fs::remove_dir_all(ckpt.parent().unwrap());
        let policy = RunPolicy {
            checkpoint: Some(ckpt.clone()),
            ..RunPolicy::default()
        };

        let store1 = ArtifactStore::new();
        let first = plan.run_with_policy(&store1, &Exec::new(1), &policy);
        assert!(first.all_recovered());
        assert!(store1.counters().total_misses() > 0);

        // Full resume: every cell restored, nothing recomputed.
        let store2 = ArtifactStore::new();
        let resumed = plan.run_with_policy(&store2, &Exec::new(1), &policy);
        assert_eq!(resumed, first, "restored rows reproduce the report");
        assert_eq!(
            store2.counters().total_misses(),
            0,
            "a fully checkpointed campaign computes nothing"
        );

        // Partial resume: grow the grid; only the new cells compute.
        let mut bigger = plan.clone();
        bigger.seeds.push(8);
        let store3 = ArtifactStore::new();
        let grown = bigger.run_with_policy(&store3, &Exec::new(1), &policy);
        assert!(grown.all_recovered());
        assert_eq!(grown.cells.len(), 4);
        assert_eq!(
            store3.counters().analyze.misses,
            2,
            "exactly the two new cells ran their analyze stage"
        );
        // The restored rows are byte-identical to the first run's.
        let old_rows: Vec<&CellResult> = grown.cells.iter().filter(|r| r.cell.seed == 7).collect();
        assert_eq!(old_rows.len(), 2);
        for (restored, original) in old_rows.iter().zip(&first.cells) {
            assert_eq!(
                (restored.rare_nets, restored.sets, restored.patterns),
                (original.rare_nets, original.sets, original.patterns)
            );
        }

        // A semantic config change invalidates the checkpoint keys.
        let mut changed = plan.clone();
        changed.base = changed.base.with_episodes(13);
        let store4 = ArtifactStore::new();
        let rerun = changed.run_with_policy(&store4, &Exec::new(1), &policy);
        assert!(rerun.all_recovered());
        assert!(
            store4.counters().total_misses() > 0,
            "changed semantics must recompute despite the checkpoint"
        );
        let _ = std::fs::remove_dir_all(ckpt.parent().unwrap());
    }

    #[test]
    fn profiles_resolve_by_name() {
        for name in [
            "c2670", "c5315", "c6288", "c7552", "s13207", "s15850", "s35932", "mips",
        ] {
            assert!(profile_by_name(name).is_some(), "{name}");
        }
        assert!(profile_by_name("b17").is_none());
    }

    #[test]
    fn telemetry_spans_cover_the_whole_campaign() {
        use telemetry::{EventKind, MemorySink, Telemetry};

        let plan = two_cell_plan();
        let sink = MemorySink::new();
        let policy = RunPolicy {
            telemetry: Telemetry::new(vec![Box::new(sink.clone())]),
            ..RunPolicy::default()
        };
        let store = ArtifactStore::new();
        let report = plan.run_with_policy(&store, &Exec::new(2), &policy);
        assert!(report.all_recovered());

        let events = sink.events();
        let run = events
            .iter()
            .find(|e| e.name == "campaign")
            .expect("one campaign root span");
        assert_eq!(run.kind, EventKind::Span);
        assert_eq!(run.parent, 0);
        assert_eq!(run.attr_u64("cells"), Some(2));
        assert_eq!(run.attr_u64("ok"), Some(2));
        assert_eq!(run.attr_u64("failed"), Some(0));
        // The run span reconciles with the store's own counters: the two
        // cold cells computed every stage.
        let computed: u64 = store
            .counters()
            .stages()
            .iter()
            .map(|(_, c)| c.misses)
            .sum();
        let traced: u64 = Stage::ALL
            .iter()
            .map(|s| {
                run.vary_u64(&format!("store.{}.computed", s.name()))
                    .unwrap()
            })
            .sum();
        assert_eq!(traced, computed);

        // One cell span + one start mark + one attempt span per cell,
        // each under the right parent.
        for index in 0..2 {
            let cell = events
                .iter()
                .find(|e| e.name == format!("cell.{index}"))
                .unwrap_or_else(|| panic!("cell.{index} span"));
            assert_eq!(cell.parent, run.id);
            assert_eq!(cell.attr_str("outcome"), Some("ok"));
            assert_eq!(cell.attr_str("netlist"), Some("c2670"));
            let mark = events
                .iter()
                .find(|e| {
                    e.kind == EventKind::Mark
                        && e.path == format!("campaign/cell.{index}/cell_start")
                })
                .expect("start mark");
            assert_eq!(mark.parent, cell.id);
            let attempt = events
                .iter()
                .find(|e| e.path == format!("campaign/cell.{index}/attempt.0"))
                .expect("attempt span");
            assert_eq!(attempt.parent, cell.id);
            assert_eq!(attempt.attr_str("result"), Some("ok"));
            // All five pipeline stages ran inside the attempt.
            for stage in Stage::ALL {
                assert!(
                    events
                        .iter()
                        .any(|e| e.path
                            == format!("campaign/cell.{index}/attempt.0/{}", stage.name())),
                    "stage span {} for cell {index}",
                    stage.name()
                );
            }
        }
        // Cell data columns mirror the report rows exactly.
        for row in &report.cells {
            let span = events
                .iter()
                .find(|e| e.name == format!("cell.{}", row.cell.index))
                .expect("cell span");
            assert_eq!(span.attr_u64("rare_nets"), Some(row.rare_nets as u64));
            assert_eq!(span.attr_u64("sets"), Some(row.sets as u64));
            assert_eq!(span.attr_u64("patterns"), Some(row.patterns as u64));
        }
    }

    #[test]
    fn checkpoint_write_failure_is_counted() {
        use telemetry::{MemorySink, Telemetry};

        let plan = two_cell_plan();
        let dir = temp_dir("ckpt-fail");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        // A checkpoint path whose parent is a regular file: every row
        // write fails with NotADirectory, exercising the warning path.
        let blocker = dir.join("blocker");
        std::fs::write(&blocker, b"not a directory").expect("blocker");
        let tele = Telemetry::new(vec![Box::new(MemorySink::new())]);
        let policy = RunPolicy {
            checkpoint: Some(blocker.join("campaign.ckpt")),
            telemetry: tele.clone(),
            ..RunPolicy::default()
        };
        let report = plan.run_with_policy(&ArtifactStore::new(), &Exec::new(1), &policy);
        assert!(report.all_recovered(), "write failures never fail cells");
        assert_eq!(
            tele.counter("campaign.checkpoint_write_failures").get(),
            2,
            "both rows failed to persist and were counted"
        );
        assert_eq!(tele.counter("campaign.checkpoint_writes").get(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
