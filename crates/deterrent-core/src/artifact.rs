//! Cache-keyed stage artifacts and the store that shares them.
//!
//! Every stage of a [`crate::DeterrentSession`] produces a cheaply clonable
//! artifact (the heavy payload lives behind an [`Arc`]) whose **key** is a
//! stable fingerprint of exactly the inputs that can change the stage's
//! output: the netlist's behavioural content, the stage's own config
//! section, the master seed, and the key of the upstream artifact. Thread
//! counts are deliberately excluded — the deterministic parallel runtime
//! guarantees bit-identical results at any worker count, so a graph built at
//! one thread is served verbatim to a four-thread session.
//!
//! An [`ArtifactStore`] is a shareable handle (clone it freely); ablation
//! grids hand one store to every cell's session so only the stages whose
//! config slice actually changed are recomputed. Per-stage hit/miss counters
//! make the reuse auditable.
//!
//! # The persistent disk tier
//!
//! A store created with [`ArtifactStore::with_disk`] additionally persists
//! every artifact to `<cache_dir>/<stage>/<key:016x>.dtc` using the
//! hand-rolled versioned binary codec in [`crate::codec`] (little-endian
//! fields, magic + format-version + checksum header, atomic
//! rename-on-write; see that module's docs for the exact layout and the
//! versioning policy). Lookups then go **memory → disk → compute**: a disk
//! hit decodes the file, promotes the artifact into the memory tier, and
//! counts in [`StageCounters::disk_hits`]; corrupt, truncated,
//! version-mismatched, or I/O-failing files are treated as misses (counted
//! in [`StageCounters::disk_corrupt`], classified per-kind in
//! [`crate::CacheEvents`], and announced by one rate-limited stderr warning
//! unless `DETERRENT_QUIET=1`), recomputed, and overwritten. Because
//! keys never include the thread count and the codec round-trips every
//! payload bit-exactly, a warm-from-disk run is bit-identical to a cold run
//! at any thread count — which is what lets a second CLI invocation of the
//! bench binaries skip estimation, graph construction, training, selection,
//! and generation entirely.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use rl::{PpoConfig, PpoTrainer, TrainReport};
use sim::rare::RareNetAnalysis;
use sim::{PatternSource, RareNetEstimate, TestPattern};

use crate::cache::{CacheError, CacheErrorKind, CacheEvents};
use crate::codec::{self, DiskLookup, DiskStage, DiskStore};
use crate::fault::FaultPlan;
use crate::{
    AnalysisConfig, CachePolicy, CompatConfig, CompatibilityGraph, PatternGenStats, RareNetSet,
    SelectConfig, TrainConfig,
};

// ───────────────────────── fingerprinting ─────────────────────────

/// Incremental FNV-1a over explicitly serialized fields: stable across runs
/// and platforms, unlike [`std::collections::hash_map::DefaultHasher`].
#[derive(Clone, Copy)]
pub(crate) struct Fp(u64);

impl Fp {
    pub(crate) fn new(tag: &str) -> Self {
        Fp(0xcbf2_9ce4_8422_2325).bytes(tag.as_bytes())
    }

    pub(crate) fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub(crate) fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Bulk variant for large word arrays (witness-bank rows): one
    /// xor + multiply per word instead of eight. Weaker per-bit diffusion
    /// than the byte-wise path, which is fine for content identity — and
    /// ~8× cheaper on the banks' millions of words.
    pub(crate) fn words(mut self, words: &[u64]) -> Self {
        for &w in words {
            self.0 ^= w;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub(crate) fn usize(self, v: usize) -> Self {
        self.u64(v as u64)
    }

    pub(crate) fn f64(self, v: f64) -> Self {
        self.u64(v.to_bits())
    }

    pub(crate) fn bool(self, v: bool) -> Self {
        self.u64(u64::from(v))
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

fn fp_ppo(fp: Fp, ppo: &PpoConfig) -> Fp {
    let mut fp = fp
        .f64(ppo.gamma)
        .f64(ppo.gae_lambda)
        .f64(ppo.clip_epsilon)
        .f64(ppo.entropy_coef)
        .f64(ppo.value_coef)
        .f64(ppo.learning_rate)
        .usize(ppo.epochs)
        .usize(ppo.batch_size)
        .usize(ppo.hidden_sizes.len());
    for &h in &ppo.hidden_sizes {
        fp = fp.usize(h);
    }
    fp
}

fn fp_solver(fp: Fp, config: &sat::SolverConfig) -> Fp {
    let fp = match config.restarts {
        sat::RestartPolicy::Luby { unit } => fp.u64(0).u64(unit),
        sat::RestartPolicy::Geometric { first } => fp.u64(1).u64(first),
    };
    fp.bool(config.clause_deletion)
        .u64(config.learnt_cap_min)
        .u64(config.learnt_cap_growth_percent)
        .u64(config.learnt_cap_origin_divisor)
}

fn fp_compat(fp: Fp, config: &CompatConfig) -> Fp {
    match config.strategy {
        crate::CompatStrategy::AllSat => fp.u64(0),
        crate::CompatStrategy::Funnel(f) => fp_solver(
            fp.u64(1)
                .bool(f.sim_witnesses)
                .bool(f.structural_pruning)
                .u64(u64::from(f.max_support)),
            &f.solver,
        ),
    }
}

/// Fingerprint of every *semantic* field of a
/// [`crate::DeterrentConfig`] — the four stage sections plus the master
/// seed — excluding the thread knob and the cache settings, which never
/// affect results. See [`crate::DeterrentConfig::content_fingerprint`].
pub(crate) fn config_fingerprint(config: &crate::DeterrentConfig) -> u64 {
    let fp = Fp::new("deterrent/config")
        .f64(config.analysis.rareness_threshold)
        .usize(config.analysis.probability_patterns)
        .f64(config.analysis.witness_retain_threshold);
    let fp = fp_compat(fp, &config.compat);
    let fp = fp
        .u64(config.train.reward_mode as u64)
        .bool(config.train.masking)
        .u64(config.train.compat_check as u64)
        .usize(config.train.episodes)
        .usize(config.train.steps_per_episode)
        .usize(config.train.rollout_round);
    fp_ppo(fp, &config.train.ppo)
        .usize(config.select.eval_rollouts)
        .usize(config.select.k_patterns)
        .u64(config.seed)
        .finish()
}

/// Key of a [`ProbArtifact`] computed by the session's estimate stage:
/// netlist content × pattern budget × retention ceiling × seed. θ is
/// deliberately absent — every θ of a sweep shares this key, which is what
/// makes a θ-sweep pay for Monte-Carlo estimation exactly once per
/// (netlist, seed).
pub(crate) fn prob_key(netlist_fp: u64, config: &AnalysisConfig, seed: u64) -> u64 {
    Fp::new("deterrent/estimate")
        .u64(netlist_fp)
        .f64(config.effective_retain())
        .usize(config.probability_patterns)
        .u64(seed)
        .finish()
}

/// Key of a [`RareArtifact`] computed by the session's own analyze stage:
/// θ layered on top of the prob key, so re-thresholding the shared
/// estimation is the only work a new θ pays for.
pub(crate) fn rare_key(prob_key: u64, theta: f64) -> u64 {
    Fp::new("deterrent/threshold")
        .u64(prob_key)
        .f64(theta)
        .finish()
}

/// Key of an imported (externally computed) analysis: a fingerprint of its
/// *content* — rare nets, threshold, and witness bank — so two sessions
/// importing equal analyses share downstream artifacts.
pub(crate) fn imported_rare_key(netlist_fp: u64, analysis: &RareNetAnalysis) -> u64 {
    let mut fp = Fp::new("deterrent/import")
        .u64(netlist_fp)
        .f64(analysis.threshold())
        .usize(analysis.len());
    for r in analysis.rare_nets() {
        fp = fp
            .usize(r.net.index())
            .bool(r.rare_value)
            .f64(r.probability);
    }
    match analysis.witnesses() {
        None => fp = fp.u64(0),
        Some(bank) => {
            fp = fp.u64(1).usize(bank.num_patterns());
            for t in 0..bank.len() {
                fp = fp.words(bank.row(t));
            }
            fp = match bank.source() {
                None => fp.u64(0),
                Some(PatternSource::Random { width, seed }) => fp.u64(1).usize(width).u64(seed),
                Some(PatternSource::Exhaustive { width }) => fp.u64(2).usize(width),
            };
        }
    }
    fp.finish()
}

/// Key of a [`GraphArtifact`] derived from the rare artifact `parent`.
pub(crate) fn graph_key(parent: u64, config: &CompatConfig) -> u64 {
    fp_compat(Fp::new("deterrent/graph").u64(parent), config).finish()
}

/// Key of a [`PolicyArtifact`] derived from the graph artifact `parent`.
pub(crate) fn policy_key(parent: u64, config: &TrainConfig, seed: u64) -> u64 {
    let fp = Fp::new("deterrent/train")
        .u64(parent)
        .u64(config.reward_mode as u64)
        .bool(config.masking)
        .u64(config.compat_check as u64)
        .usize(config.episodes)
        .usize(config.steps_per_episode)
        .usize(config.rollout_round)
        .u64(seed);
    fp_ppo(fp, &config.ppo).finish()
}

/// Key of a [`SetsArtifact`] derived from the policy artifact `parent`.
pub(crate) fn sets_key(parent: u64, config: &SelectConfig, seed: u64) -> u64 {
    Fp::new("deterrent/select")
        .u64(parent)
        .usize(config.eval_rollouts)
        .usize(config.k_patterns)
        .u64(seed)
        .finish()
}

/// Key of a [`PatternsArtifact`] derived from the sets artifact `parent`.
/// Generation has no config section of its own — the selected sets (whose
/// key already chains netlist → analysis → graph → policy) determine the
/// patterns completely.
pub(crate) fn patterns_key(parent: u64) -> u64 {
    Fp::new("deterrent/generate").u64(parent).finish()
}

// ───────────────────────── artifacts ─────────────────────────

/// Output of the estimate stage: the θ-independent half of rare-net
/// analysis — signal probabilities for every net plus the rarest-first
/// candidate list and compacted witness rows retained up to the
/// configured retention ceiling — behind an [`Arc`].
///
/// [`sim::RareNetEstimate::threshold`] turns this into the
/// [`RareArtifact`] of any θ up to the ceiling by slicing a prefix, so a
/// θ-sweep re-simulates nothing.
#[derive(Debug, Clone)]
pub struct ProbArtifact {
    pub(crate) key: u64,
    estimate: Arc<RareNetEstimate>,
}

impl ProbArtifact {
    pub(crate) fn new(key: u64, estimate: RareNetEstimate) -> Self {
        Self {
            key,
            estimate: Arc::new(estimate),
        }
    }

    /// The cache key (netlist fingerprint ⊕ pattern budget ⊕ retention
    /// ceiling ⊕ seed — never θ).
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The shared estimation result.
    #[must_use]
    pub fn estimate(&self) -> &RareNetEstimate {
        &self.estimate
    }

    /// Number of candidate nets retained below the retention ceiling.
    #[must_use]
    pub fn num_candidates(&self) -> usize {
        self.estimate.num_candidates()
    }
}

/// Output of the analyze stage: the rare-net analysis (with its retained
/// witness bank) behind an [`Arc`].
#[derive(Debug, Clone)]
pub struct RareArtifact {
    pub(crate) key: u64,
    analysis: Arc<RareNetAnalysis>,
}

impl RareArtifact {
    pub(crate) fn new(key: u64, analysis: RareNetAnalysis) -> Self {
        Self {
            key,
            analysis: Arc::new(analysis),
        }
    }

    /// The cache key (prob-artifact key ⊕ θ for session-computed
    /// analyses; a content fingerprint for imported ones).
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The rare-net analysis.
    #[must_use]
    pub fn analysis(&self) -> &RareNetAnalysis {
        &self.analysis
    }

    /// Number of rare nets found.
    #[must_use]
    pub fn len(&self) -> usize {
        self.analysis.len()
    }

    /// `true` when no net is rare at the threshold.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.analysis.is_empty()
    }
}

/// Output of the build-graph stage: the pairwise-compatibility graph behind
/// an [`Arc`], plus the threshold it answers for.
#[derive(Debug, Clone)]
pub struct GraphArtifact {
    pub(crate) key: u64,
    graph: Arc<CompatibilityGraph>,
    pub(crate) rareness_threshold: f64,
    pub(crate) build_seconds: f64,
}

impl GraphArtifact {
    pub(crate) fn new(
        key: u64,
        graph: CompatibilityGraph,
        rareness_threshold: f64,
        build_seconds: f64,
    ) -> Self {
        Self {
            key,
            graph: Arc::new(graph),
            rareness_threshold,
            build_seconds,
        }
    }

    /// The cache key (rare-artifact key ⊕ compat config).
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The compatibility graph.
    #[must_use]
    pub fn graph(&self) -> &CompatibilityGraph {
        &self.graph
    }

    /// The rareness threshold of the originating analysis.
    #[must_use]
    pub fn rareness_threshold(&self) -> f64 {
        self.rareness_threshold
    }

    /// Wall-clock seconds the (cold) build took.
    #[must_use]
    pub fn build_seconds(&self) -> f64 {
        self.build_seconds
    }
}

/// Payload of a [`PolicyArtifact`].
#[derive(Debug)]
pub struct TrainedPolicy {
    /// The trained PPO agent (frozen; the select stage rolls it out
    /// greedily).
    pub trainer: PpoTrainer,
    /// Episode rewards/lengths, losses, wall clock.
    pub report: TrainReport,
    /// Episode-final compatible sets harvested during training, in episode
    /// order.
    pub harvested_sets: Vec<Vec<usize>>,
    /// Exact SAT compatibility checks spent inside training environments
    /// (non-zero only under [`crate::CompatCheck::ExactSat`]).
    pub env_sat_checks: u64,
    /// Wall-clock seconds of the (cold) training run.
    pub training_seconds: f64,
    /// Mean reward over the last 10% of training episodes.
    pub final_mean_reward: f64,
}

/// Output of the train stage: the trained policy and its training harvest,
/// behind an [`Arc`].
#[derive(Debug, Clone)]
pub struct PolicyArtifact {
    pub(crate) key: u64,
    inner: Arc<TrainedPolicy>,
}

impl PolicyArtifact {
    pub(crate) fn new(key: u64, inner: TrainedPolicy) -> Self {
        Self {
            key,
            inner: Arc::new(inner),
        }
    }

    /// The cache key (graph-artifact key ⊕ train config ⊕ seed).
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The trained policy and its training harvest.
    #[must_use]
    pub fn policy(&self) -> &TrainedPolicy {
        &self.inner
    }
}

/// Payload of a [`SetsArtifact`].
#[derive(Debug)]
pub struct SelectedSets {
    /// The `k` largest distinct compatible sets, largest first.
    pub sets: Vec<RareNetSet>,
    /// Size of the largest harvested compatible set (training + evaluation).
    pub max_compatible_set: usize,
    /// Exact SAT checks spent inside the greedy evaluation environments.
    pub eval_env_sat_checks: u64,
    /// Total candidate sets harvested before selection.
    pub harvested_total: usize,
}

/// Output of the select stage: the chosen compatible sets, behind an
/// [`Arc`].
#[derive(Debug, Clone)]
pub struct SetsArtifact {
    pub(crate) key: u64,
    inner: Arc<SelectedSets>,
}

impl SetsArtifact {
    pub(crate) fn new(key: u64, inner: SelectedSets) -> Self {
        Self {
            key,
            inner: Arc::new(inner),
        }
    }

    /// The cache key (policy-artifact key ⊕ select config ⊕ seed).
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The selection result.
    #[must_use]
    pub fn selected(&self) -> &SelectedSets {
        &self.inner
    }

    /// The selected sets, largest first.
    #[must_use]
    pub fn sets(&self) -> &[RareNetSet] {
        &self.inner.sets
    }
}

/// Payload of a [`PatternsArtifact`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedPatterns {
    /// The generated test patterns, deduplicated, in selected-set order.
    pub patterns: Vec<TestPattern>,
    /// How the patterns were produced (witness reuse vs SAT queries).
    pub stats: PatternGenStats,
}

/// Output of the generate stage: the concrete test patterns, behind an
/// [`Arc`]. Cached so a fully warm session skips even the SAT/witness
/// justification of the selected sets.
#[derive(Debug, Clone)]
pub struct PatternsArtifact {
    pub(crate) key: u64,
    inner: Arc<GeneratedPatterns>,
}

impl PatternsArtifact {
    pub(crate) fn new(key: u64, inner: GeneratedPatterns) -> Self {
        Self {
            key,
            inner: Arc::new(inner),
        }
    }

    /// The cache key (sets-artifact key).
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The generated patterns and their generation stats.
    #[must_use]
    pub fn generated(&self) -> &GeneratedPatterns {
        &self.inner
    }

    /// The generated test patterns.
    #[must_use]
    pub fn patterns(&self) -> &[TestPattern] {
        &self.inner.patterns
    }
}

// ───────────────────────── the store ─────────────────────────

/// The six stages of a [`crate::DeterrentSession`], in pipeline order —
/// the axis of [`StoreCounters`] and the names of the session's telemetry
/// spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Monte-Carlo signal-probability estimation with single-pass
    /// compacting witness harvest — the θ-independent half of rare-net
    /// analysis, shared by every θ a sweep visits.
    Estimate,
    /// Rare-net thresholding at θ over the shared estimation artifact.
    Analyze,
    /// Pairwise-compatibility graph construction.
    BuildGraph,
    /// PPO training over the compatible-set MDP.
    Train,
    /// Harvest of greedy evaluation rollouts and `k`-largest set selection.
    Select,
    /// SAT/witness test-pattern generation.
    Generate,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::Estimate,
        Stage::Analyze,
        Stage::BuildGraph,
        Stage::Train,
        Stage::Select,
        Stage::Generate,
    ];

    /// Human-readable stage name (also the stage's span name).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Estimate => "estimate",
            Stage::Analyze => "analyze",
            Stage::BuildGraph => "build_graph",
            Stage::Train => "train",
            Stage::Select => "select",
            Stage::Generate => "generate",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Hit/miss counters of one cached stage, split by tier.
///
/// With a disk tier attached, every lookup resolves to exactly one of
/// `hits` (memory), `disk_hits`, or `misses` (computed); `disk_misses` and
/// `disk_corrupt` subdivide the misses by what the disk probe found, so
/// `misses == disk_misses + disk_corrupt` whenever a disk tier is present.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Lookups served from the in-memory tier.
    pub hits: u64,
    /// Lookups that had to compute (and then inserted into every tier).
    pub misses: u64,
    /// Lookups served by decoding a valid artifact file from the disk tier
    /// (the artifact is then promoted into the memory tier).
    pub disk_hits: u64,
    /// Disk probes that found no artifact file.
    pub disk_misses: u64,
    /// Disk probes that found a corrupt, truncated, or version-mismatched
    /// file — treated as a miss; the recomputed artifact overwrites it.
    pub disk_corrupt: u64,
}

/// Per-stage hit/miss counters of an [`ArtifactStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// Estimate-stage counters.
    pub estimate: StageCounters,
    /// Analyze-stage counters.
    pub analyze: StageCounters,
    /// Build-graph-stage counters.
    pub build_graph: StageCounters,
    /// Train-stage counters.
    pub train: StageCounters,
    /// Select-stage counters.
    pub select: StageCounters,
    /// Generate-stage counters.
    pub generate: StageCounters,
}

impl StoreCounters {
    /// The counters of `stage`.
    #[must_use]
    pub fn stage(&self, stage: Stage) -> StageCounters {
        match stage {
            Stage::Estimate => self.estimate,
            Stage::Analyze => self.analyze,
            Stage::BuildGraph => self.build_graph,
            Stage::Train => self.train,
            Stage::Select => self.select,
            Stage::Generate => self.generate,
        }
    }

    /// `(stage, counters)` for every cached stage, in pipeline order.
    #[must_use]
    pub fn stages(&self) -> [(Stage, StageCounters); 6] {
        [
            (Stage::Estimate, self.estimate),
            (Stage::Analyze, self.analyze),
            (Stage::BuildGraph, self.build_graph),
            (Stage::Train, self.train),
            (Stage::Select, self.select),
            (Stage::Generate, self.generate),
        ]
    }

    /// Total memory-tier hits across all stages.
    #[must_use]
    pub fn total_hits(&self) -> u64 {
        self.stages().iter().map(|(_, c)| c.hits).sum()
    }

    /// Total computations (lookups no tier could serve) across all stages.
    #[must_use]
    pub fn total_misses(&self) -> u64 {
        self.stages().iter().map(|(_, c)| c.misses).sum()
    }

    /// Total disk-tier hits across all stages.
    #[must_use]
    pub fn total_disk_hits(&self) -> u64 {
        self.stages().iter().map(|(_, c)| c.disk_hits).sum()
    }

    /// Total corrupt artifact files encountered across all stages.
    #[must_use]
    pub fn total_disk_corrupt(&self) -> u64 {
        self.stages().iter().map(|(_, c)| c.disk_corrupt).sum()
    }
}

#[derive(Debug, Default)]
struct StoreInner {
    prob: HashMap<u64, ProbArtifact>,
    rare: HashMap<u64, RareArtifact>,
    graph: HashMap<u64, GraphArtifact>,
    policy: HashMap<u64, PolicyArtifact>,
    sets: HashMap<u64, SetsArtifact>,
    patterns: HashMap<u64, PatternsArtifact>,
    counters: StoreCounters,
}

/// A shareable, thread-safe store of stage artifacts.
///
/// Cloning the store clones a *handle*: all clones see the same cache. Hand
/// one store to every cell of an ablation grid (via
/// [`crate::DeterrentSession::with_store`]) and the shared prefix of the
/// pipeline — typically rare-net analysis and the compatibility graph — is
/// computed once.
///
/// A store created with [`ArtifactStore::with_disk`] adds a persistent tier
/// under a cache directory: lookups go memory → disk → compute, inserts
/// write both tiers, and invalid files silently recompute (see the
/// module docs). Stores sharing one directory — concurrently, even
/// across processes — are safe: files are written atomically, so racing
/// writers at worst duplicate identical work.
///
/// Lookups and inserts are individually atomic but a miss does not reserve
/// its key: two *simultaneous* sessions racing on the same cold key will
/// each compute the artifact (both correct and identical — last insert
/// wins) and each count a miss. Drive grid cells sequentially, or warm the
/// store first, when the counters feed assertions.
#[derive(Debug, Clone, Default)]
pub struct ArtifactStore {
    inner: Arc<Mutex<StoreInner>>,
    disk: Option<Arc<DiskStore>>,
}

/// Generates the memory → disk → compute lookup and the write-both-tiers
/// insert for one cached stage (the six stages differ only in artifact
/// type, map field, counter field, and codec functions).
macro_rules! stage_cache {
    (
        $(#[$doc:meta])*
        $lookup:ident, $insert:ident, $map:ident, $counter:ident, $stage:expr,
        $artifact:ty, $encode:path, $decode:path
    ) => {
        $(#[$doc])*
        pub(crate) fn $lookup(&self, key: u64) -> Option<$artifact> {
            {
                let mut inner = self.lock();
                if let Some(found) = inner.$map.get(&key).cloned() {
                    inner.counters.$counter.hits += 1;
                    return Some(found);
                }
            }
            // Memory miss; probe the disk tier (no lock held during I/O).
            let disk_result = self
                .disk
                .as_ref()
                .map(|disk| match disk.load($stage, key) {
                    DiskLookup::Hit(payload) => match $decode(key, &payload) {
                        Ok(artifact) => DiskLookup::Hit(artifact),
                        Err(e) => DiskLookup::Failed(CacheError::new(
                            CacheErrorKind::Corrupt,
                            $stage.stage(),
                            key,
                            format!("payload decode failed: {e:?}"),
                        )),
                    },
                    DiskLookup::Miss => DiskLookup::Miss,
                    DiskLookup::Failed(err) => DiskLookup::Failed(err),
                });
            if let Some(DiskLookup::Failed(err)) = &disk_result {
                if let Some(disk) = &self.disk {
                    disk.note_failure(err);
                }
            }
            let mut inner = self.lock();
            let c = &mut inner.counters.$counter;
            match disk_result {
                Some(DiskLookup::Hit(artifact)) => {
                    c.disk_hits += 1;
                    inner.$map.insert(key, artifact.clone());
                    Some(artifact)
                }
                Some(DiskLookup::Miss) => {
                    c.disk_misses += 1;
                    c.misses += 1;
                    None
                }
                Some(DiskLookup::Failed(_)) => {
                    c.disk_corrupt += 1;
                    c.misses += 1;
                    None
                }
                None => {
                    c.misses += 1;
                    None
                }
            }
        }

        pub(crate) fn $insert(&self, artifact: &$artifact) {
            self.lock().$map.insert(artifact.key, artifact.clone());
            if let Some(disk) = &self.disk {
                disk.store($stage, artifact.key, &$encode(artifact, disk.slim_policy()));
            }
        }
    };
}

impl ArtifactStore {
    /// A fresh, empty, memory-only store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A store backed by the persistent disk tier at `cache_dir` (created
    /// on first write), with the default unbounded [`CachePolicy`].
    /// Artifacts already on disk — from earlier runs or other processes —
    /// are served without recomputation.
    #[must_use]
    pub fn with_disk(cache_dir: impl Into<PathBuf>) -> Self {
        Self::with_disk_policy(cache_dir, CachePolicy::default())
    }

    /// Like [`ArtifactStore::with_disk`], but with an explicit
    /// [`CachePolicy`]: size budgets are enforced (LRU-first) after every
    /// insert, and `slim_policy` switches train-stage artifacts to the slim
    /// codec variant. Policies never affect results — only which lookups
    /// are served warm — so they are excluded from every cache key.
    #[must_use]
    pub fn with_disk_policy(cache_dir: impl Into<PathBuf>, policy: CachePolicy) -> Self {
        Self::with_disk_policy_faults(cache_dir, policy, None)
    }

    /// Like [`ArtifactStore::with_disk_policy`], but threading an optional
    /// [`FaultPlan`] into the disk tier: the plan deterministically injects
    /// corrupt reads, transient I/O errors, and eviction races at seeded
    /// `(stage, key)` sites (each at most once), exercising exactly the
    /// recover-by-recompute paths real faults would take. A `None` plan is
    /// identical to [`ArtifactStore::with_disk_policy`].
    #[must_use]
    pub fn with_disk_policy_faults(
        cache_dir: impl Into<PathBuf>,
        policy: CachePolicy,
        faults: Option<FaultPlan>,
    ) -> Self {
        Self {
            inner: Arc::default(),
            disk: Some(Arc::new(DiskStore::with_faults(
                cache_dir.into(),
                policy,
                faults,
            ))),
        }
    }

    /// The disk-tier cache directory, when one is attached.
    #[must_use]
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_deref().map(DiskStore::root)
    }

    /// Classified disk-tier failure counters ([`CacheEvents`]): how many
    /// lookups hit corrupt, version-mismatched, or I/O-failing artifact
    /// files (all healed by recompute), and how many files budget
    /// enforcement evicted. All zero for a memory-only store.
    #[must_use]
    pub fn cache_events(&self) -> CacheEvents {
        self.disk
            .as_deref()
            .map(DiskStore::events)
            .unwrap_or_default()
    }

    /// The per-stage counters rendered as the stable, machine-greppable
    /// `[store]` summary lines the bench and campaign binaries print to
    /// stderr (one line for the disk tier location, then one per stage):
    ///
    /// ```text
    /// [store] analyze: mem_hits=2 disk_hits=1 computed=0 disk_misses=0 corrupt=0
    /// ```
    ///
    /// `computed` is the number of lookups no cache tier could serve (the
    /// stage's `misses` counter). CI gates grep these lines to prove a warm
    /// run recomputed nothing.
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let counters = self.counters();
        let mut out = String::new();
        match self.disk_dir() {
            Some(dir) => {
                let _ = writeln!(out, "[store] disk tier at {}", dir.display());
            }
            None => out.push_str("[store] memory-only (no cache dir)\n"),
        }
        for (stage, c) in counters.stages() {
            let _ = writeln!(
                out,
                "[store] {stage}: mem_hits={} disk_hits={} computed={} disk_misses={} corrupt={}",
                c.hits, c.disk_hits, c.misses, c.disk_misses, c.disk_corrupt
            );
        }
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().expect("artifact store lock poisoned")
    }

    /// Per-stage hit/miss counters so far.
    #[must_use]
    pub fn counters(&self) -> StoreCounters {
        self.lock().counters
    }

    /// Number of artifacts currently cached in memory (all stages).
    #[must_use]
    pub fn len(&self) -> usize {
        let inner = self.lock();
        inner.prob.len()
            + inner.rare.len()
            + inner.graph.len()
            + inner.policy.len()
            + inner.sets.len()
            + inner.patterns.len()
    }

    /// `true` when nothing is cached in memory.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached artifact from the memory tier and zeroes the
    /// counters. Artifact files in the disk tier are left in place (they
    /// will serve subsequent lookups as disk hits).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.prob.clear();
        inner.rare.clear();
        inner.graph.clear();
        inner.policy.clear();
        inner.sets.clear();
        inner.patterns.clear();
        inner.counters = StoreCounters::default();
    }

    stage_cache!(
        lookup_prob,
        insert_prob,
        prob,
        estimate,
        DiskStage::Estimate,
        ProbArtifact,
        codec::encode_prob,
        codec::decode_prob
    );

    stage_cache!(
        lookup_rare,
        insert_rare,
        rare,
        analyze,
        DiskStage::Analyze,
        RareArtifact,
        codec::encode_rare,
        codec::decode_rare
    );

    stage_cache!(
        lookup_graph,
        insert_graph,
        graph,
        build_graph,
        DiskStage::Graph,
        GraphArtifact,
        codec::encode_graph,
        codec::decode_graph
    );

    stage_cache!(
        lookup_policy,
        insert_policy,
        policy,
        train,
        DiskStage::Train,
        PolicyArtifact,
        codec::encode_policy,
        codec::decode_policy
    );

    stage_cache!(
        lookup_sets,
        insert_sets,
        sets,
        select,
        DiskStage::Select,
        SetsArtifact,
        codec::encode_sets,
        codec::decode_sets
    );

    stage_cache!(
        lookup_patterns,
        insert_patterns,
        patterns,
        generate,
        DiskStage::Generate,
        PatternsArtifact,
        codec::encode_patterns,
        codec::decode_patterns
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::synth::BenchmarkProfile;

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(Stage::ALL.len(), 6);
        assert_eq!(Stage::Estimate.to_string(), "estimate");
        assert_eq!(Stage::Analyze.to_string(), "analyze");
        assert_eq!(Stage::Generate.name(), "generate");
    }

    #[test]
    fn fingerprints_are_stable_and_field_sensitive() {
        let cfg = AnalysisConfig::default();
        let a = prob_key(1, &cfg, 7);
        assert_eq!(a, prob_key(1, &cfg, 7), "same inputs, same key");
        assert_ne!(a, prob_key(2, &cfg, 7), "netlist matters");
        assert_ne!(a, prob_key(1, &cfg, 8), "seed matters");
        let wider = AnalysisConfig {
            witness_retain_threshold: 0.4,
            ..cfg
        };
        assert_ne!(a, prob_key(1, &wider, 7), "retention ceiling matters");
        let tighter = AnalysisConfig {
            rareness_threshold: 0.09,
            ..cfg
        };
        assert_eq!(
            a,
            prob_key(1, &tighter, 7),
            "θ below the ceiling never touches the prob key"
        );
        assert_ne!(rare_key(a, 0.10), rare_key(a, 0.14), "θ layers on top");
        assert_ne!(rare_key(a, 0.10), prob_key(1, &cfg, 7), "distinct tags");
    }

    #[test]
    fn stage_keys_chain() {
        let compat = CompatConfig::default();
        let g1 = graph_key(1, &compat);
        let g2 = graph_key(2, &compat);
        assert_ne!(g1, g2, "a different parent invalidates downstream");
        let train = TrainConfig::default();
        assert_ne!(policy_key(g1, &train, 3), policy_key(g2, &train, 3));
        assert_ne!(policy_key(g1, &train, 3), policy_key(g1, &train, 4));
    }

    #[test]
    fn imported_keys_reflect_content() {
        let nl = BenchmarkProfile::c2670().scaled(25).generate(3);
        let fp = nl.content_fingerprint();
        let a = RareNetAnalysis::estimate(&nl, 0.2, 1024, 1);
        let b = RareNetAnalysis::estimate(&nl, 0.2, 1024, 1);
        assert_eq!(imported_rare_key(fp, &a), imported_rare_key(fp, &b));
        let c = RareNetAnalysis::estimate(&nl, 0.2, 1024, 2);
        assert_ne!(
            imported_rare_key(fp, &a),
            imported_rare_key(fp, &c),
            "different estimation seeds give different witness banks"
        );
    }

    #[test]
    fn store_counts_hits_and_misses() {
        let store = ArtifactStore::new();
        assert!(store.is_empty());
        assert!(store.lookup_rare(42).is_none());
        let nl = BenchmarkProfile::c2670().scaled(30).generate(1);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 512, 1);
        store.insert_rare(&RareArtifact::new(42, analysis));
        assert!(store.lookup_rare(42).is_some());
        let shared = store.clone();
        assert!(shared.lookup_rare(42).is_some(), "clones share the cache");
        let c = store.counters();
        assert_eq!(c.analyze.misses, 1);
        assert_eq!(c.analyze.hits, 2);
        assert_eq!(store.len(), 1);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.counters(), StoreCounters::default());
    }
}
