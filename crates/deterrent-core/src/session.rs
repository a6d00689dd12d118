//! The staged DETERRENT session — the crate's primary API.
//!
//! A [`DeterrentSession`] binds one netlist to one [`DeterrentConfig`] and
//! exposes the pipeline as six explicit, individually cacheable stages:
//!
//! | stage | method | artifact |
//! |---|---|---|
//! | ❶ probability estimation | [`DeterrentSession::estimate`] | [`ProbArtifact`] |
//! | ❷ rare-net thresholding | [`DeterrentSession::analyze`] | [`RareArtifact`] |
//! | ❸ compatibility graph | [`DeterrentSession::build_graph`] | [`GraphArtifact`] |
//! | ❹ PPO training | [`DeterrentSession::train`] | [`PolicyArtifact`] |
//! | ❺ harvest & selection | [`DeterrentSession::select`] | [`SetsArtifact`] |
//! | ❻ pattern generation | [`DeterrentSession::generate`] | [`crate::DeterrentResult`] |
//!
//! Each artifact is cheaply clonable and keyed by the netlist fingerprint,
//! the stage's own config section, the seed, and the upstream artifact's key
//! — never the thread count. The estimate stage's key deliberately excludes
//! the rareness threshold θ: [`DeterrentSession::analyze`] always resolves
//! through [`DeterrentSession::estimate`] and layers θ on top, so a θ-sweep
//! pays for Monte-Carlo estimation exactly once per (netlist, seed) and
//! re-thresholds cheaply per θ. Sessions that share an [`ArtifactStore`]
//! (see [`DeterrentSession::with_store`]) therefore recompute only the
//! stages whose inputs actually changed, which is exactly what the paper's
//! evaluation grids need: Table 1 and Figures 2–3 rerun the same
//! netlist/graph under reward/masking/exploration ablations, and the
//! threshold-transfer experiment shares one estimation across every θ.
//!
//! All stages run on **one** shared deterministic executor, so estimation,
//! graph construction, and rollout collection all contribute to
//! [`DeterrentSession::exec_stats`]. Results are bit-identical at any
//! thread count.

use std::time::Instant;

use exec::{Exec, ExecStats};
use netlist::Netlist;
use rl::{train_parallel, CollectOptions, ParallelTrainOptions, PpoTrainer};
use sat::CircuitOracle;
use sim::rare::RareNetAnalysis;
use sim::RareNetEstimate;
use telemetry::{Span, SpanContext, Telemetry};

use crate::artifact::{
    graph_key, imported_rare_key, patterns_key, policy_key, prob_key, rare_key, sets_key, Cached,
    GeneratedPatterns, PatternsArtifact, ProbArtifact, SelectedSets, TrainedPolicy,
};
use crate::codec::DiskIo;
use crate::{
    generate_patterns_with, select_k_largest, ArtifactStore, CacheEvents, CompatSetEnv,
    CompatibilityGraph, DeterrentConfig, DeterrentResult, GraphArtifact, PolicyArtifact,
    RareArtifact, SetsArtifact, StageCounters, TrainingMetrics,
};

/// In-flight telemetry for one stage invocation: the open span plus the
/// counter baselines needed to report per-stage deltas when it closes.
struct StageTrace {
    span: Span,
    exec_before: ExecStats,
    counters_before: StageCounters,
    events_before: CacheEvents,
    io_before: DiskIo,
}

/// A staged DETERRENT pipeline bound to one netlist and one configuration.
///
/// See the module docs for the stage/artifact model. The typical
/// single-run flow is [`DeterrentSession::run`]; grids drive the stages
/// explicitly or share an [`ArtifactStore`] across per-cell sessions.
///
/// # Example
///
/// ```
/// use deterrent_core::{ArtifactStore, DeterrentConfig, DeterrentSession, RewardMode};
/// use netlist::synth::BenchmarkProfile;
///
/// let netlist = BenchmarkProfile::c2670().scaled(30).generate(1);
/// let config = DeterrentConfig::fast_preset().with_threshold(0.2);
/// let store = ArtifactStore::new();
///
/// // Cell 1: the final architecture.
/// let mut session = DeterrentSession::with_store(&netlist, config.clone(), store.clone());
/// let baseline = session.run();
///
/// // Cell 2: reward ablation — analysis and graph are served from the store.
/// let ablated = config.with_ablation(RewardMode::EndOfEpisode, true);
/// let mut session = DeterrentSession::with_store(&netlist, ablated, store.clone());
/// let _ = session.run();
/// assert_eq!(store.counters().analyze.misses, 1);
/// assert_eq!(store.counters().build_graph.misses, 1);
/// assert!(!baseline.patterns.is_empty());
/// ```
pub struct DeterrentSession<'a> {
    netlist: &'a Netlist,
    netlist_fp: u64,
    config: DeterrentConfig,
    exec: Exec,
    store: ArtifactStore,
    telemetry: Telemetry,
    trace_parent: Option<SpanContext>,
}

impl std::fmt::Debug for DeterrentSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeterrentSession")
            .field("netlist", &self.netlist.name())
            .field("netlist_fp", &self.netlist_fp)
            .field("config", &self.config)
            .field("threads", &self.exec.threads())
            .finish()
    }
}

impl<'a> DeterrentSession<'a> {
    /// Creates a session with a fresh private [`ArtifactStore`]. When the
    /// config names a cache directory (the `cache_dir` knob or the
    /// `DETERRENT_CACHE_DIR` environment variable,
    /// [`DeterrentConfig::resolved_cache_dir`]), the store is backed by the
    /// persistent disk tier there — bounded per the config's
    /// [`DeterrentConfig::resolved_cache_policy`] — so artifacts survive
    /// the process and a repeat invocation recomputes nothing.
    #[must_use]
    pub fn new(netlist: &'a Netlist, config: DeterrentConfig) -> Self {
        let store = match config.resolved_cache_dir() {
            Some(dir) => ArtifactStore::with_disk_policy(dir, config.resolved_cache_policy()),
            None => ArtifactStore::new(),
        };
        Self::with_store(netlist, config, store)
    }

    /// Creates a session sharing `store` — the way ablation grids reuse the
    /// stages whose inputs did not change between cells.
    #[must_use]
    pub fn with_store(netlist: &'a Netlist, config: DeterrentConfig, store: ArtifactStore) -> Self {
        let exec = Exec::new(config.threads);
        Self {
            netlist,
            netlist_fp: netlist.content_fingerprint(),
            config,
            exec,
            store,
            telemetry: Telemetry::disabled(),
            trace_parent: None,
        }
    }

    /// The netlist the session is bound to.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &DeterrentConfig {
        &self.config
    }

    /// Replaces the configuration — the idiomatic way to step one session
    /// through an ablation grid. Already-cached artifacts stay valid; only
    /// stages whose config section changed will recompute. Changing the
    /// thread knob rebuilds the executor (and resets its stats).
    pub fn set_config(&mut self, config: DeterrentConfig) {
        if config.threads != self.config.threads {
            self.exec = Exec::new(config.threads);
            // A rebuilt executor must keep reporting into the same trace.
            self.exec
                .set_telemetry(self.telemetry.clone(), self.trace_parent.clone());
        }
        self.config = config;
    }

    /// Attaches a telemetry handle — the session's only progress channel.
    /// Every stage invocation then emits one span named after the
    /// [`Stage`](crate::Stage) — a child of `parent` when given (the
    /// campaign parents stage spans under the cell attempt) — carrying the
    /// stage's output cardinality (`items`), wall time (`wall_ns`), whether
    /// it was a cache hit (`cache_hit`), and cache-tier and executor
    /// deltas; the session executor emits per-dispatch `exec.call` spans.
    /// Telemetry is strictly out-of-band: artifacts, caching, and results
    /// are unaffected. A disabled handle detaches.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, parent: Option<SpanContext>) {
        self.exec.set_telemetry(telemetry.clone(), parent.clone());
        self.telemetry = telemetry;
        self.trace_parent = parent;
    }

    /// A handle to the session's artifact store (clones share the cache).
    #[must_use]
    pub fn store(&self) -> ArtifactStore {
        self.store.clone()
    }

    /// Task/timing counters of the session's shared executor, accumulated
    /// across every stage run so far (estimation, witness harvest, funnel
    /// tiers, rollout collection). Cache hits contribute nothing — the work
    /// never ran.
    #[must_use]
    pub fn exec_stats(&self) -> ExecStats {
        self.exec.stats()
    }

    /// Runs one cached stage: looks `A`'s artifact up at `key` (memory →
    /// disk), else computes and inserts it, all inside the stage span.
    ///
    /// The span closes with the stage identity and its output cardinality
    /// `items` — retained candidate nets (estimate), rare nets (analyze),
    /// resolved pairs (build_graph), episodes (train), selected sets
    /// (select), or generated patterns (generate) — as deterministic
    /// attributes, and `cache_hit`, the wall time and the cache-tier,
    /// disk-traffic (`store_read_bytes`, `store_written_bytes`,
    /// `store_read_ns`, `store_decode_ns`) and executor deltas as
    /// nondeterministic ones; `vary` adds the stage's own keys, given the
    /// artifact and whether it was a cache hit. Everything downstream of
    /// *which session computed a shared artifact* is scheduling-dependent
    /// when the store is shared (a concurrent session may compute the
    /// artifact first), so only the stage identity and its deterministic
    /// payload size stay in `attrs`.
    fn run_stage<A: Cached>(
        &self,
        key: u64,
        compute: impl FnOnce() -> A,
        vary: impl FnOnce(&mut Span, &A, bool),
    ) -> A {
        let stage = A::STAGE;
        let trace = self.telemetry.is_enabled().then(|| StageTrace {
            span: match &self.trace_parent {
                Some(ctx) => self.telemetry.child_span(ctx, stage.name()),
                None => self.telemetry.span(stage.name()),
            },
            exec_before: self.exec.stats(),
            counters_before: self.store.counters().stage(stage),
            events_before: self.store.cache_events(),
            io_before: self.store.disk_io(stage),
        });
        let start = Instant::now();
        let (artifact, cache_hit) = match self.store.lookup::<A>(key) {
            Some(found) => (found, true),
            None => {
                let artifact = compute();
                self.store.insert(&artifact);
                (artifact, false)
            }
        };
        let wall_ns = start.elapsed().as_nanos() as u64;
        let Some(mut trace) = trace else {
            return artifact;
        };
        let span = &mut trace.span;
        vary(span, &artifact, cache_hit);
        span.attr_str("stage", stage.name());
        span.attr_u64("items", artifact.items());
        span.vary("cache_hit", telemetry::Value::Bool(cache_hit));
        let exec = self.exec.stats().since(trace.exec_before);
        span.vary_u64("exec_calls", exec.calls);
        span.vary_u64("exec_tasks", exec.tasks);
        span.vary_u64("wall_ns", wall_ns);
        span.vary_u64("exec_busy_ns", exec.busy_nanos);
        let c = self
            .store
            .counters()
            .stage(stage)
            .since(trace.counters_before);
        span.vary_u64("store_mem_hits", c.hits);
        span.vary_u64("store_computed", c.misses);
        span.vary_u64("store_disk_hits", c.disk_hits);
        span.vary_u64("store_disk_misses", c.disk_misses);
        span.vary_u64("store_disk_corrupt", c.disk_corrupt);
        let e = self.store.cache_events().since(trace.events_before);
        span.vary_u64("cache_corrupt", e.corrupt);
        span.vary_u64("cache_version_mismatch", e.version_mismatch);
        span.vary_u64("cache_io", e.io);
        span.vary_u64("cache_evictions", e.budget_evictions);
        let io = self.store.disk_io(stage).since(trace.io_before);
        span.vary_u64("store_read_bytes", io.read_bytes);
        span.vary_u64("store_written_bytes", io.written_bytes);
        span.vary_u64("store_read_ns", io.read_nanos);
        span.vary_u64("store_decode_ns", io.decode_nanos);
        self.telemetry
            .histogram("stage.wall_nanos")
            .observe_nanos(wall_ns);
        trace.span.close();
        artifact
    }

    /// Stage ❶ — Monte-Carlo probability estimation with the single-pass
    /// compacting witness harvest, at the configured pattern budget,
    /// retention ceiling, and seed. Cached by (netlist, pattern budget,
    /// retention ceiling, seed) — the rareness threshold θ is deliberately
    /// absent, so every θ of a sweep shares this artifact.
    pub fn estimate(&mut self) -> ProbArtifact {
        let key = prob_key(self.netlist_fp, &self.config.analysis, self.config.seed);
        let compute = || {
            let estimate = RareNetEstimate::estimate_with(
                self.netlist,
                self.config.analysis.effective_retain(),
                self.config.analysis.probability_patterns,
                self.config.seed,
                &self.exec,
            );
            ProbArtifact::new(key, estimate)
        };
        self.run_stage(key, compute, |_, _, _| {})
    }

    /// Stage ❷ — rare-net analysis at the configured threshold θ: resolves
    /// the shared [`DeterrentSession::estimate`] artifact (cache or
    /// compute), then thresholds it. Cached by (prob key, θ); the
    /// thresholding itself is a pure prefix slice, so a new θ over a warm
    /// estimate costs no simulation at all — the result is bit-identical to
    /// a from-scratch analysis at that θ.
    pub fn analyze(&mut self) -> RareArtifact {
        let probs = self.estimate();
        let theta = self.config.analysis.rareness_threshold;
        let key = rare_key(probs.key, theta);
        let compute = || RareArtifact::new(key, probs.estimate().threshold(theta));
        self.run_stage(key, compute, |_, _, _| {})
    }

    /// Registers an externally computed analysis as a [`RareArtifact`],
    /// keyed by its *content* so equal analyses share downstream artifacts.
    /// This is how the paper's threshold-transfer experiment (train at
    /// θ = 0.14, evaluate at θ = 0.10) and callers with bespoke estimation
    /// settings enter the session world; follow it with
    /// [`DeterrentSession::run_from`].
    pub fn import_analysis(&mut self, analysis: RareNetAnalysis) -> RareArtifact {
        let key = imported_rare_key(self.netlist_fp, &analysis);
        self.run_stage(key, || RareArtifact::new(key, analysis), |_, _, _| {})
    }

    /// Stage ❸ — pairwise-compatibility graph over `rare`'s rare nets.
    /// Cached by (rare key, compat config); built on the session executor.
    pub fn build_graph(&mut self, rare: &RareArtifact) -> GraphArtifact {
        let key = graph_key(rare.key, &self.config.compat);
        let compute = || {
            let graph = CompatibilityGraph::build_on(
                self.netlist,
                rare.analysis(),
                self.config.compat.strategy,
                &self.exec,
            );
            GraphArtifact::new(key, graph, rare.analysis().threshold())
        };
        let vary = |span: &mut Span, artifact: &GraphArtifact, cache_hit: bool| {
            // An all-SAT build's solver counters depend on how its pairs
            // were chunked across workers (each worker owns an incremental
            // solver whose learned clauses carry across its chunk) → vary.
            // The funnel's fixed sweep lanes make its counters
            // thread-independent, but one key cannot be both.
            let s = artifact.graph().stats();
            span.vary_u64("sat_decisions", s.solver.decisions);
            span.vary_u64("sat_conflicts", s.solver.conflicts);
            span.vary_u64("sat_propagations", s.solver.propagations);
            span.vary_u64("sat_learned_clauses", s.solver.learned_clauses);
            span.vary_u64("sat_restarts", s.solver.restarts);
            span.vary_u64("sat_reduces", s.solver.reduces);
            span.vary_u64("sat_deleted_clauses", s.solver.deleted_clauses);
            span.vary_u64("sat_peak_learnts", s.solver.peak_learnts);
            // The tier times are measured only by the build itself; the
            // cached graph does not carry them.
            if !cache_hit {
                span.vary_u64("tier1_ns", s.tier1_nanos);
                span.vary_u64("tier2_ns", s.tier2_nanos);
                span.vary_u64("tier3_ns", s.tier3_nanos);
                span.vary_u64("tier3_probe_ns", s.tier3_probe_nanos);
                span.vary_u64("tier3_sweep_ns", s.tier3_sweep_nanos);
            }
        };
        self.run_stage(key, compute, vary)
    }

    /// Stage ❹ — PPO training over the compatible-set MDP of `graph`.
    /// Cached by (graph key, train config, seed).
    ///
    /// # Panics
    ///
    /// Panics if the graph has no rare nets (check
    /// [`CompatibilityGraph::is_empty`] first, or use
    /// [`DeterrentSession::run`] which short-circuits to an empty result).
    pub fn train(&mut self, graph: &GraphArtifact) -> PolicyArtifact {
        let key = policy_key(graph.key, &self.config.train, self.config.seed);
        let compute = || {
            let train = &self.config.train;
            let proto_env = CompatSetEnv::new(self.netlist, graph.graph(), &self.config);
            let mut trainer = PpoTrainer::new(
                graph.graph().len(),
                graph.graph().len(),
                &train.ppo,
                self.config.seed,
            );
            let options = ParallelTrainOptions {
                episodes: train.episodes,
                max_steps: train.steps_per_episode,
                round_episodes: train.rollout_round,
                seed: self.config.seed,
            };
            let finish = |env: &mut CompatSetEnv<'_>| (env.take_harvest(), env.exact_sat_checks());
            let outcome = train_parallel(&proto_env, &mut trainer, &options, &self.exec, finish);

            let mut harvested_sets = Vec::new();
            let mut env_sat_checks = 0u64;
            for (sets, checks) in outcome.harvests {
                harvested_sets.extend(sets);
                env_sat_checks += checks;
            }
            PolicyArtifact::new(
                key,
                TrainedPolicy {
                    trainer,
                    report: outcome.report,
                    harvested_sets,
                    env_sat_checks,
                },
            )
        };
        self.run_stage(key, compute, |_, _, _| {})
    }

    /// Stage ❺ — greedy evaluation rollouts from the trained policy plus
    /// `k`-largest selection over the combined training + evaluation
    /// harvest. Cached by (policy key, select config, seed).
    ///
    /// The evaluation episode streams continue where the training streams
    /// ended (`first_episode = episodes`), so training and evaluation never
    /// share an RNG stream.
    pub fn select(&mut self, graph: &GraphArtifact, policy: &PolicyArtifact) -> SetsArtifact {
        debug_assert_eq!(
            policy_key(graph.key, &self.config.train, self.config.seed),
            policy.key,
            "select: the policy artifact does not belong to this graph/config"
        );
        let key = sets_key(policy.key, &self.config.select, self.config.seed);
        let compute = || {
            let proto_env = CompatSetEnv::new(self.netlist, graph.graph(), &self.config);
            let finish = |env: &mut CompatSetEnv<'_>| (env.take_harvest(), env.exact_sat_checks());
            let eval = rl::collect_episodes(
                &proto_env,
                &policy.policy().trainer,
                &CollectOptions {
                    count: self.config.select.eval_rollouts,
                    max_steps: self.config.train.steps_per_episode,
                    seed: self.config.seed,
                    first_episode: self.config.train.episodes as u64,
                    greedy: true,
                },
                &self.exec,
                finish,
            );

            let mut harvested: Vec<Vec<usize>> = policy.policy().harvested_sets.clone();
            let mut eval_env_sat_checks = 0u64;
            for outcome in eval {
                let (sets, checks) = outcome.harvest;
                harvested.extend(sets);
                eval_env_sat_checks += checks;
            }
            let max_compatible_set = harvested.iter().map(Vec::len).max().unwrap_or(0);
            let harvested_total = harvested.len();
            let sets = select_k_largest(&harvested, self.config.select.k_patterns);
            SetsArtifact::new(
                key,
                SelectedSets {
                    sets,
                    max_compatible_set,
                    eval_env_sat_checks,
                    harvested_total,
                },
            )
        };
        self.run_stage(key, compute, |_, _, _| {})
    }

    /// Stage ❻ — SAT/witness pattern generation over the selected sets,
    /// assembling the final [`DeterrentResult`]. Cached by (sets key) as a
    /// [`PatternsArtifact`], so a fully warm session performs zero SAT
    /// justification.
    pub fn generate(
        &mut self,
        graph: &GraphArtifact,
        policy: &PolicyArtifact,
        sets: &SetsArtifact,
    ) -> DeterrentResult {
        let key = patterns_key(sets.key);
        let compute = || {
            let mut oracle = CircuitOracle::new(self.netlist);
            let (patterns, stats) = generate_patterns_with(&mut oracle, graph.graph(), sets.sets());
            PatternsArtifact::new(key, GeneratedPatterns { patterns, stats })
        };
        let generated = self.run_stage(key, compute, |_, _, _| {});
        let gen_stats = generated.generated().stats;
        let trained = policy.policy();
        let selected = sets.selected();
        DeterrentResult {
            patterns: generated.patterns().to_vec(),
            sets: sets.sets().to_vec(),
            rare_nets: graph.graph().rare_nets().to_vec(),
            rareness_threshold: graph.rareness_threshold,
            metrics: TrainingMetrics {
                episodes_per_minute: trained.report.episodes_per_minute(),
                steps_per_minute: trained.report.steps_per_minute(),
                max_compatible_set: selected.max_compatible_set,
                final_mean_reward: trained.final_mean_reward(),
                loss_history: trained.trainer.loss_history().to_vec(),
                env_sat_checks: trained.env_sat_checks + selected.eval_env_sat_checks,
                patterns_witness_reused: gen_stats.witness_reused,
                pattern_sat_queries: gen_stats.sat_queries,
            },
        }
    }

    /// Runs all six stages: estimate → analyze → build_graph → train →
    /// select → generate.
    pub fn run(&mut self) -> DeterrentResult {
        let rare = self.analyze();
        self.run_from(&rare)
    }

    /// Runs the pipeline from an existing rare-net artifact (stages ❸–❻).
    pub fn run_from(&mut self, rare: &RareArtifact) -> DeterrentResult {
        let graph = self.build_graph(rare);
        if graph.graph().is_empty() {
            return DeterrentResult {
                patterns: Vec::new(),
                sets: Vec::new(),
                rare_nets: Vec::new(),
                rareness_threshold: graph.rareness_threshold,
                metrics: TrainingMetrics::default(),
            };
        }
        let policy = self.train(&graph);
        let sets = self.select(&graph, &policy);
        self.generate(&graph, &policy, &sets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompatCheck, RewardMode, Stage};
    use netlist::synth::BenchmarkProfile;

    fn small_netlist() -> Netlist {
        BenchmarkProfile::c2670().scaled(20).generate(3)
    }

    fn fast_config() -> DeterrentConfig {
        DeterrentConfig::fast_preset().with_threshold(0.2)
    }

    #[test]
    fn staged_run_equals_monolithic_run() {
        let nl = small_netlist();
        let config = fast_config();
        let mut session = DeterrentSession::new(&nl, config.clone());
        let rare = session.analyze();
        let graph = session.build_graph(&rare);
        let policy = session.train(&graph);
        let sets = session.select(&graph, &policy);
        let staged = session.generate(&graph, &policy, &sets);

        let monolithic = DeterrentSession::new(&nl, config).run();
        assert_eq!(staged.patterns, monolithic.patterns);
        assert_eq!(staged.sets, monolithic.sets);
        assert_eq!(staged.rare_nets, monolithic.rare_nets);
        assert_eq!(
            staged.metrics.max_compatible_set,
            monolithic.metrics.max_compatible_set
        );
        assert_eq!(
            staged.metrics.env_sat_checks,
            monolithic.metrics.env_sat_checks
        );
    }

    #[test]
    fn shared_store_reuses_upstream_stages_across_ablation_cells() {
        let nl = small_netlist();
        let store = ArtifactStore::new();
        let base = fast_config().with_episodes(20);
        let cells = [
            base.clone(),
            base.clone().with_ablation(RewardMode::EndOfEpisode, true),
            base.clone().with_ablation(RewardMode::AllSteps, false),
            base.clone().with_compat_check(CompatCheck::ExactSat),
        ];
        for config in cells {
            let mut session = DeterrentSession::with_store(&nl, config, store.clone());
            let _ = session.run();
        }
        let counters = store.counters();
        assert_eq!(counters.estimate.misses, 1, "one estimation for the grid");
        assert_eq!(counters.estimate.hits, 3);
        assert_eq!(counters.analyze.misses, 1, "one analysis for the grid");
        assert_eq!(counters.analyze.hits, 3);
        assert_eq!(counters.build_graph.misses, 1, "one graph for the grid");
        assert_eq!(counters.build_graph.hits, 3);
        assert_eq!(counters.train.misses, 4, "every cell trains differently");
    }

    #[test]
    fn theta_sweep_shares_one_estimation() {
        let nl = small_netlist();
        let store = ArtifactStore::new();
        for theta in [0.10, 0.12, 0.14, 0.2] {
            let mut session = DeterrentSession::with_store(
                &nl,
                fast_config().with_threshold(theta),
                store.clone(),
            );
            let swept = session.analyze();
            // Each θ cell is bit-identical to a from-scratch analysis.
            let fresh = RareNetAnalysis::estimate(&nl, theta, 4096, DeterrentConfig::DEFAULT_SEED);
            assert_eq!(swept.analysis().rare_nets(), fresh.rare_nets());
            assert_eq!(
                swept.analysis().witnesses().unwrap().raw_rows(),
                fresh.witnesses().unwrap().raw_rows()
            );
        }
        let c = store.counters();
        assert_eq!(c.estimate.misses, 1, "one estimation per (netlist, seed)");
        assert_eq!(c.estimate.hits, 3);
        assert_eq!(c.analyze.misses, 4, "one cheap thresholding per θ");
    }

    #[test]
    fn set_config_steps_one_session_through_a_grid() {
        let nl = small_netlist();
        let base = fast_config().with_episodes(20);
        let mut session = DeterrentSession::new(&nl, base.clone());
        let a = session.run();
        session.set_config(base.clone().with_ablation(RewardMode::EndOfEpisode, true));
        let b = session.run();
        let counters = session.store().counters();
        assert_eq!(counters.analyze.misses, 1);
        assert_eq!(counters.build_graph.misses, 1);
        assert_eq!(counters.train.misses, 2);
        assert_eq!(a.rare_nets, b.rare_nets, "same graph under both rewards");
    }

    #[test]
    fn empty_graph_short_circuits() {
        let nl = netlist::samples::c17();
        let config = DeterrentConfig::fast_preset().with_threshold(0.01);
        let mut session = DeterrentSession::new(&nl, config);
        let result = session.run();
        assert!(result.patterns.is_empty());
        assert!(result.sets.is_empty());
    }

    #[test]
    fn faulted_disk_tier_heals_to_bit_identical_results() {
        use crate::{CachePolicy, FaultKind, FaultPlan};

        let root = std::env::temp_dir().join(format!(
            "deterrent-fault-store-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let nl = small_netlist();
        let config = fast_config().with_episodes(20);

        // Cold run populates the disk tier.
        let cold_store = ArtifactStore::with_disk(&root);
        let cold = DeterrentSession::with_store(&nl, config.clone(), cold_store).run();

        // First warm run: every disk load returns corrupt bytes (full-rate
        // corruption fires once per site), recovery recomputes and re-stores,
        // and the result must not change.
        let plan = FaultPlan::quiet(5).with_rate(FaultKind::CorruptRead, 1000);
        let store = ArtifactStore::with_disk_policy_faults(
            &root,
            CachePolicy::default(),
            Some(plan.clone()),
        );
        let warm = DeterrentSession::with_store(&nl, config.clone(), store.clone()).run();
        assert_eq!(warm.patterns, cold.patterns, "faults never change results");
        assert_eq!(warm.rare_nets, cold.rare_nets);
        assert_eq!(warm.sets, cold.sets);

        let counts = plan.counts();
        assert!(
            counts.corrupt_reads >= 1,
            "full-rate corrupt reads fired: {counts:?}"
        );
        let events = store.cache_events();
        assert_eq!(
            events.corrupt, counts.corrupt_reads,
            "every injected corruption was classified and counted"
        );
        let counters = store.counters();
        for (_, c) in counters.stages() {
            assert_eq!(
                c.misses,
                c.disk_misses + c.disk_corrupt,
                "the tier invariant holds under faults"
            );
        }
        assert!(
            counters.total_disk_corrupt() >= 1,
            "faults surfaced as corrupt-lookup misses"
        );

        // Second warm run, fresh memory tier, fresh schedule: every disk
        // interaction hits an injected I/O error instead. Same healed result.
        let io_plan = FaultPlan::quiet(7).with_rate(FaultKind::IoError, 1000);
        let io_store = ArtifactStore::with_disk_policy_faults(
            &root,
            CachePolicy::default(),
            Some(io_plan.clone()),
        );
        let io_warm = DeterrentSession::with_store(&nl, config, io_store.clone()).run();
        assert_eq!(
            io_warm.patterns, cold.patterns,
            "io faults heal identically"
        );
        let io_counts = io_plan.counts();
        assert!(
            io_counts.io_errors >= 1,
            "full-rate io errors fired: {io_counts:?}"
        );
        let io_events = io_store.cache_events();
        assert!(
            io_events.io >= 1,
            "injected io failures were classified and counted: {io_events:?}"
        );
        for (_, c) in io_store.counters().stages() {
            assert_eq!(c.misses, c.disk_misses + c.disk_corrupt);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn telemetry_spans_cover_every_stage() {
        use telemetry::{MemorySink, SpanContext, Telemetry};

        let nl = small_netlist();
        let sink = MemorySink::new();
        let tele = Telemetry::new(vec![Box::new(sink.clone())]);
        let parent = SpanContext {
            id: 42,
            path: "campaign/cell.0/attempt.0".to_string(),
        };
        let mut session = DeterrentSession::new(&nl, fast_config());
        session.set_telemetry(tele.clone(), Some(parent.clone()));
        let _ = session.run();

        let events = sink.events();
        let stage_spans: Vec<_> = events
            .iter()
            .filter(|e| Stage::ALL.iter().any(|s| s.name() == e.name))
            .collect();
        assert_eq!(stage_spans.len(), 6, "one span per stage");
        for (stage, span) in Stage::ALL.iter().zip(&stage_spans) {
            assert_eq!(span.name, stage.name(), "stages emit in pipeline order");
            assert_eq!(span.parent, parent.id);
            assert_eq!(span.path, format!("{}/{}", parent.path, stage.name()));
            assert_eq!(span.attr_str("stage"), Some(stage.name()));
            assert_eq!(
                span.vary.get("cache_hit").and_then(|v| v.as_bool()),
                Some(false)
            );
            assert!(span.vary_u64("wall_ns").is_some());
            assert!(span.vary_u64("store_computed").is_some());
        }
        // The session executor's dispatch spans ride along under the same
        // parent, and their count matches the executor's own counters.
        let dispatches = events.iter().filter(|e| e.name == "exec.call").count() as u64;
        assert_eq!(dispatches, session.exec_stats().calls);
        assert_eq!(tele.counter("exec.tasks").get(), session.exec_stats().tasks);
        // A warm rerun flags every pre-generate stage as a cache hit.
        let warm_sink = MemorySink::new();
        let warm_tele = Telemetry::new(vec![Box::new(warm_sink.clone())]);
        let mut warm = DeterrentSession::with_store(&nl, fast_config(), session.store());
        warm.set_telemetry(warm_tele, None);
        let _ = warm.run();
        for event in warm_sink.events() {
            if Stage::ALL.iter().any(|s| s.name() == event.name) && event.name != "generate" {
                assert_eq!(
                    event.vary.get("cache_hit").and_then(|v| v.as_bool()),
                    Some(true),
                    "warm {} must be a cache hit",
                    event.name
                );
                assert_eq!(event.parent, 0, "no parent context → root spans");
                assert_eq!(event.path, event.name);
            }
        }
    }

    #[test]
    fn stage_spans_report_disk_traffic_as_vary_keys() {
        use telemetry::{MemorySink, Telemetry};

        let root = std::env::temp_dir().join(format!(
            "deterrent-disk-io-spans-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let nl = small_netlist();
        let traced_run = || {
            let sink = MemorySink::new();
            let store = ArtifactStore::with_disk(&root);
            let mut session = DeterrentSession::with_store(&nl, fast_config(), store);
            session.set_telemetry(Telemetry::new(vec![Box::new(sink.clone())]), None);
            let _ = session.run();
            sink.events()
                .into_iter()
                .filter(|e| e.attr_str("stage").is_some())
                .collect::<Vec<_>>()
        };
        let keys = [
            "store_read_bytes",
            "store_written_bytes",
            "store_read_ns",
            "store_decode_ns",
        ];
        let cold = traced_run();
        let warm = traced_run();
        assert_eq!(cold.len(), 6);
        assert_eq!(warm.len(), 6);
        for (cold, warm) in cold.iter().zip(&warm) {
            for key in keys {
                assert!(!cold.attrs.contains_key(key), "{key} stays out of attrs");
                assert!(!warm.attrs.contains_key(key), "{key} stays out of attrs");
            }
            let stage = &cold.name;
            assert!(cold.vary_u64("store_written_bytes").unwrap() > 0, "{stage}");
            assert_eq!(cold.vary_u64("store_read_bytes"), Some(0), "{stage}");
            assert_eq!(cold.vary_u64("store_decode_ns"), Some(0), "{stage}");
            // The warm run reads back exactly what the cold run wrote.
            assert_eq!(
                warm.vary_u64("store_read_bytes"),
                cold.vary_u64("store_written_bytes"),
                "{stage}"
            );
            assert_eq!(warm.vary_u64("store_written_bytes"), Some(0), "{stage}");
            assert!(warm.vary_u64("store_read_ns").is_some());
            assert!(warm.vary_u64("store_decode_ns").is_some());
            // Only a computing build_graph has tier times to report.
            for key in [
                "tier1_ns",
                "tier2_ns",
                "tier3_ns",
                "tier3_probe_ns",
                "tier3_sweep_ns",
            ] {
                assert_eq!(cold.vary.contains_key(key), stage == "build_graph");
                assert!(!warm.vary.contains_key(key), "{stage}: {key}");
                assert!(!cold.attrs.contains_key(key), "{key} stays out of attrs");
            }
            if stage == "build_graph" {
                let ns = |key| cold.vary_u64(key).expect("tier time");
                assert!(ns("tier3_probe_ns") + ns("tier3_sweep_ns") <= ns("tier3_ns"));
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn exec_stats_cover_estimation() {
        let nl = small_netlist();
        let mut session = DeterrentSession::new(&nl, fast_config());
        let _ = session.analyze();
        let after_analyze = session.exec_stats();
        assert!(
            after_analyze.calls >= 1,
            "the single compacting estimation pass must run on the session \
             executor, got {after_analyze:?}"
        );
        let rare = session.analyze();
        let _ = session.run_from(&rare);
        assert!(session.exec_stats().calls >= after_analyze.calls);
        assert!(session.exec_stats().tasks >= after_analyze.tasks);
    }
}
