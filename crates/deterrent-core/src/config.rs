//! Configuration of the DETERRENT pipeline, split into per-stage sections.
//!
//! Each section configures exactly one stage of a
//! [`crate::DeterrentSession`] and is fingerprinted independently, so a
//! change to (say) the reward mode invalidates only the training artifact
//! while the rare-net analysis and compatibility graph stay cached.

use std::path::PathBuf;

use rl::PpoConfig;

use crate::{parse_bytes, CachePolicy, CompatStrategy};

/// When the agent receives its reward (Section 3.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RewardMode {
    /// Reward `|s_{t+1}|²` at every compatible step (the final architecture).
    #[default]
    AllSteps,
    /// Reward 0 at intermediate steps and `|s_T|²` at the end of the episode
    /// (the faster but slightly weaker variant of Table 1).
    EndOfEpisode,
}

/// How a candidate action's compatibility with the current state is checked
/// during an environment step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompatCheck {
    /// Use the precomputed pairwise-compatibility graph (the final
    /// architecture; cheap per step).
    #[default]
    PairwiseGraph,
    /// Run a full SAT justification of `state ∪ {action}` on every step (the
    /// naive formulation of Section 3.1; faithful to the paper's "a few
    /// seconds per check" bottleneck and used by the Table 1 ablation).
    ExactSat,
}

/// Stage ❶ — rare-net analysis (Monte-Carlo probability estimation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisConfig {
    /// Rareness threshold θ below which nets count as rare (paper default
    /// 0.1).
    pub rareness_threshold: f64,
    /// Number of random patterns used to estimate signal probabilities.
    pub probability_patterns: usize,
    /// Retention ceiling of the shared estimation artifact: the single
    /// estimation pass keeps candidates and witness rows for every net
    /// rarer than `max(witness_retain_threshold, rareness_threshold)`, so
    /// one [`crate::DeterrentSession::estimate`] artifact can be
    /// re-thresholded at any θ up to that ceiling without re-simulating.
    /// Raising it above θ widens the θ range one estimation covers at the
    /// cost of more retained witness words; it never changes any
    /// thresholded result.
    pub witness_retain_threshold: f64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        Self {
            rareness_threshold: 0.1,
            probability_patterns: 16 * 1024,
            witness_retain_threshold: 0.25,
        }
    }
}

impl AnalysisConfig {
    /// The retention threshold the estimation stage actually uses: the
    /// configured ceiling, bumped up to the rareness threshold so the
    /// session's own θ is always covered.
    #[must_use]
    pub fn effective_retain(&self) -> f64 {
        self.witness_retain_threshold.max(self.rareness_threshold)
    }
}

/// Stage ❷ — offline pairwise-compatibility graph construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompatConfig {
    /// How the graph is computed: the simulation-first funnel (default) or
    /// one SAT query per pair (the paper's offline phase). Both yield
    /// bit-identical graphs. The funnel's enumeration tier runs a fixed
    /// per-pair cost model up to [`crate::FunnelOptions::max_support`].
    pub strategy: CompatStrategy,
}

/// Stage ❸ — PPO training over the compatible-set MDP.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Reward schedule.
    pub reward_mode: RewardMode,
    /// Whether invalid actions are masked out (Section 3.3).
    pub masking: bool,
    /// Per-step compatibility check implementation.
    pub compat_check: CompatCheck,
    /// PPO hyper-parameters (entropy coefficient and λ implement Section
    /// 3.4).
    pub ppo: PpoConfig,
    /// Number of training episodes.
    pub episodes: usize,
    /// Episode length `T` (maximum actions per episode). Also bounds the
    /// greedy evaluation rollouts of the selection stage.
    pub steps_per_episode: usize,
    /// Episodes collected per frozen-policy round during parallel rollout
    /// collection. Fixed independently of the thread count so trajectories
    /// (and therefore training) do not depend on the hardware.
    pub rollout_round: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            reward_mode: RewardMode::AllSteps,
            masking: true,
            compat_check: CompatCheck::PairwiseGraph,
            ppo: PpoConfig::boosted_exploration(),
            episodes: 300,
            steps_per_episode: 64,
            rollout_round: 8,
        }
    }
}

/// Stage ❹ — harvest/selection of the compatible sets that become patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectConfig {
    /// Number of greedy evaluation rollouts used to harvest additional
    /// maximal sets after training.
    pub eval_rollouts: usize,
    /// `k` — how many of the largest distinct compatible sets become test
    /// patterns.
    pub k_patterns: usize,
}

impl Default for SelectConfig {
    fn default() -> Self {
        Self {
            eval_rollouts: 64,
            k_patterns: 32,
        }
    }
}

/// Every knob of the DETERRENT pipeline, grouped by stage.
///
/// The defaults correspond to the paper's final architecture: all-steps
/// reward, action masking, pairwise-graph compatibility checks, and boosted
/// exploration (entropy coefficient 1.0, GAE λ = 0.99).
///
/// `threads` and `seed` are session-wide: the seed feeds every stochastic
/// component, and the thread count sizes the deterministic parallel runtime
/// without ever affecting results (so it is excluded from artifact cache
/// keys).
#[derive(Debug, Clone, PartialEq)]
pub struct DeterrentConfig {
    /// Rare-net analysis (stage ❶).
    pub analysis: AnalysisConfig,
    /// Compatibility-graph construction (stage ❷).
    pub compat: CompatConfig,
    /// PPO training (stage ❸).
    pub train: TrainConfig,
    /// Set harvest and selection (stage ❹).
    pub select: SelectConfig,
    /// Worker threads of the deterministic parallel runtime, driving
    /// probability estimation, witness harvesting, every compatibility-funnel
    /// tier, and PPO rollout collection (the paper throws 64 processes at the
    /// offline phase). `0` resolves through [`exec::Exec::new`]: the
    /// `DETERRENT_THREADS` environment variable when set, otherwise all
    /// available cores. Results are bit-identical at any thread count.
    pub threads: usize,
    /// RNG seed controlling every stochastic component.
    pub seed: u64,
    /// Directory of the persistent artifact cache. `None` (the default)
    /// falls back to the `DETERRENT_CACHE_DIR` environment variable; when
    /// neither is set, sessions created with
    /// [`crate::DeterrentSession::new`] cache in memory only. Like the
    /// thread knob, the cache directory never affects results (artifacts
    /// round-trip bit-exactly) and is excluded from every cache key.
    pub cache_dir: Option<PathBuf>,
    /// Size budget of the persistent cache's disk tier. The default is
    /// unbounded. When [`CachePolicy::max_bytes`] is unset, sessions fall
    /// back to the `DETERRENT_CACHE_MAX_BYTES` environment variable (a
    /// byte count, optionally with a `k`/`m`/`g` suffix — see
    /// [`crate::parse_bytes`]). Like `cache_dir`, the policy never affects
    /// results — only which lookups are served warm — and is excluded from
    /// every cache key.
    pub cache_policy: CachePolicy,
}

impl Default for DeterrentConfig {
    fn default() -> Self {
        Self {
            analysis: AnalysisConfig::default(),
            compat: CompatConfig::default(),
            train: TrainConfig::default(),
            select: SelectConfig::default(),
            threads: 0,
            seed: Self::DEFAULT_SEED,
            cache_dir: None,
            cache_policy: CachePolicy::default(),
        }
    }
}

impl DeterrentConfig {
    /// The seed the pipeline defaults ship with.
    pub const DEFAULT_SEED: u64 = 0xDE7E88EA7;

    /// Name of the environment variable consulted when
    /// [`DeterrentConfig::cache_dir`] is `None`.
    pub const CACHE_DIR_ENV: &'static str = "DETERRENT_CACHE_DIR";

    /// Name of the environment variable consulted when
    /// [`CachePolicy::max_bytes`] is `None`: a byte count, optionally with
    /// a `k`/`m`/`g` suffix (see [`crate::parse_bytes`]). Unparsable
    /// values are ignored (unbounded).
    pub const CACHE_MAX_BYTES_ENV: &'static str = "DETERRENT_CACHE_MAX_BYTES";

    /// A configuration sized for unit tests and examples: few episodes, small
    /// networks, small pattern budgets. Finishes in well under a second on
    /// scaled-down benchmark profiles.
    #[must_use]
    pub fn fast_preset() -> Self {
        Self {
            analysis: AnalysisConfig {
                probability_patterns: 4096,
                ..AnalysisConfig::default()
            },
            train: TrainConfig {
                ppo: PpoConfig {
                    hidden_sizes: vec![32, 32],
                    batch_size: 128,
                    ..PpoConfig::boosted_exploration()
                },
                episodes: 60,
                steps_per_episode: 24,
                ..TrainConfig::default()
            },
            select: SelectConfig {
                eval_rollouts: 16,
                k_patterns: 16,
            },
            ..Self::default()
        }
    }

    /// The paper-style configuration used by the full benchmark harness:
    /// longer training and larger networks.
    #[must_use]
    pub fn paper_preset() -> Self {
        Self {
            train: TrainConfig {
                episodes: 2000,
                steps_per_episode: 128,
                rollout_round: 16,
                ..TrainConfig::default()
            },
            select: SelectConfig {
                eval_rollouts: 256,
                k_patterns: 64,
            },
            ..Self::default()
        }
    }

    /// Returns a copy with the rareness threshold θ replaced.
    #[must_use]
    pub fn with_threshold(mut self, theta: f64) -> Self {
        self.analysis.rareness_threshold = theta;
        self
    }

    /// Returns a copy with the probability-estimation pattern budget
    /// replaced.
    #[must_use]
    pub fn with_probability_patterns(mut self, patterns: usize) -> Self {
        self.analysis.probability_patterns = patterns;
        self
    }

    /// Returns a copy with the estimation retention ceiling replaced (see
    /// [`AnalysisConfig::witness_retain_threshold`]). θ-sweeps set this to
    /// the sweep's largest θ (or leave the default 0.25, which covers every
    /// valid θ ≤ 0.25) so all cells share one estimation artifact.
    #[must_use]
    pub fn with_witness_retain(mut self, retain: f64) -> Self {
        self.analysis.witness_retain_threshold = retain;
        self
    }

    /// Returns a copy with the master seed replaced.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with the worker-thread knob replaced (0 = auto).
    /// Thread counts never affect results, only wall clock.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns a copy with the persistent-cache directory replaced.
    /// Cache directories never affect results, only wall clock.
    #[must_use]
    pub fn with_cache_dir(mut self, cache_dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(cache_dir.into());
        self
    }

    /// The effective persistent-cache directory: the explicit
    /// [`DeterrentConfig::cache_dir`] knob, else the non-empty
    /// `DETERRENT_CACHE_DIR` environment variable, else `None` (memory-only
    /// caching).
    #[must_use]
    pub fn resolved_cache_dir(&self) -> Option<PathBuf> {
        if self.cache_dir.is_some() {
            return self.cache_dir.clone();
        }
        std::env::var_os(Self::CACHE_DIR_ENV)
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    }

    /// The effective cache policy: [`DeterrentConfig::cache_policy`], with
    /// a missing global budget filled from the `DETERRENT_CACHE_MAX_BYTES`
    /// environment variable (ignored when unset, empty, or unparsable).
    #[must_use]
    pub fn resolved_cache_policy(&self) -> CachePolicy {
        let mut policy = self.cache_policy;
        if policy.max_bytes.is_none() {
            policy.max_bytes = std::env::var(Self::CACHE_MAX_BYTES_ENV)
                .ok()
                .as_deref()
                .and_then(parse_bytes);
        }
        policy
    }

    /// Returns a copy with the persistent-cache policy replaced. Policies
    /// never affect results, only wall clock and disk footprint.
    #[must_use]
    pub fn with_cache_policy(mut self, policy: CachePolicy) -> Self {
        self.cache_policy = policy;
        self
    }

    /// Returns a copy with the persistent cache bounded at `max_bytes`
    /// (LRU eviction on insert; see [`CachePolicy`]).
    #[must_use]
    pub fn with_cache_max_bytes(mut self, max_bytes: u64) -> Self {
        self.cache_policy.max_bytes = Some(max_bytes);
        self
    }

    /// Returns a copy with the training episode budget replaced.
    #[must_use]
    pub fn with_episodes(mut self, episodes: usize) -> Self {
        self.train.episodes = episodes;
        self
    }

    /// Returns a copy with the per-step compatibility check replaced (the
    /// Table 1 exact-SAT ablation).
    #[must_use]
    pub fn with_compat_check(mut self, check: CompatCheck) -> Self {
        self.train.compat_check = check;
        self
    }

    /// Returns a copy with the graph-construction strategy replaced.
    #[must_use]
    pub fn with_strategy(mut self, strategy: CompatStrategy) -> Self {
        self.compat.strategy = strategy;
        self
    }

    /// Returns a copy with `k` (sets turned into patterns) replaced.
    #[must_use]
    pub fn with_k_patterns(mut self, k: usize) -> Self {
        self.select.k_patterns = k;
        self
    }

    /// Returns a copy with the greedy evaluation rollout budget replaced.
    #[must_use]
    pub fn with_eval_rollouts(mut self, rollouts: usize) -> Self {
        self.select.eval_rollouts = rollouts;
        self
    }

    /// Returns a copy with the reward/masking ablation of Figure 2 applied.
    #[must_use]
    pub fn with_ablation(mut self, reward_mode: RewardMode, masking: bool) -> Self {
        self.train.reward_mode = reward_mode;
        self.train.masking = masking;
        self
    }

    /// Returns a copy with default (non-boosted) exploration, for the
    /// Figure 3 comparison.
    #[must_use]
    pub fn with_default_exploration(mut self) -> Self {
        self.train.ppo.entropy_coef = 0.01;
        self.train.ppo.gae_lambda = 0.95;
        self
    }

    /// A stable fingerprint of every field that can change pipeline
    /// *results*: the four stage sections and the master seed. The thread
    /// knob and the cache settings are excluded — they only move work
    /// around, never change outputs. Two configs with equal fingerprints
    /// produce bit-identical pipelines, which is what lets a campaign
    /// checkpoint recognise rows computed by an equivalent earlier run.
    #[must_use]
    pub fn content_fingerprint(&self) -> u64 {
        crate::artifact::config_fingerprint(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_final_architecture() {
        let c = DeterrentConfig::default();
        assert_eq!(c.train.reward_mode, RewardMode::AllSteps);
        assert!(c.train.masking);
        assert_eq!(c.train.compat_check, CompatCheck::PairwiseGraph);
        assert!(matches!(c.compat.strategy, CompatStrategy::Funnel(_)));
        assert!((c.train.ppo.entropy_coef - 1.0).abs() < 1e-12);
        assert!((c.train.ppo.gae_lambda - 0.99).abs() < 1e-12);
        assert!((c.analysis.rareness_threshold - 0.1).abs() < 1e-12);
        assert_eq!(c.seed, DeterrentConfig::DEFAULT_SEED);
    }

    #[test]
    fn ablation_builder() {
        let c = DeterrentConfig::default().with_ablation(RewardMode::EndOfEpisode, false);
        assert_eq!(c.train.reward_mode, RewardMode::EndOfEpisode);
        assert!(!c.train.masking);
    }

    #[test]
    fn exploration_toggle() {
        let c = DeterrentConfig::default().with_default_exploration();
        assert!(c.train.ppo.entropy_coef < 0.5);
        assert!(c.train.ppo.gae_lambda < 0.99);
    }

    #[test]
    fn stage_builders_touch_only_their_section() {
        let base = DeterrentConfig::fast_preset();
        let c = base.clone().with_threshold(0.2).with_seed(9);
        assert!((c.analysis.rareness_threshold - 0.2).abs() < 1e-12);
        assert_eq!(c.seed, 9);
        assert_eq!(c.train, base.train, "train section untouched");
        assert_eq!(c.compat, base.compat, "compat section untouched");
        assert_eq!(c.select, base.select, "select section untouched");
    }

    #[test]
    fn content_fingerprint_tracks_semantics_only() {
        let base = DeterrentConfig::fast_preset();
        let fp = base.content_fingerprint();
        assert_eq!(fp, base.clone().content_fingerprint(), "stable");
        assert_eq!(
            fp,
            base.clone().with_threads(8).content_fingerprint(),
            "threads are non-semantic"
        );
        assert_eq!(
            fp,
            base.clone()
                .with_cache_dir("/tmp/elsewhere")
                .with_cache_max_bytes(1024)
                .content_fingerprint(),
            "cache settings are non-semantic"
        );
        assert_ne!(fp, base.clone().with_seed(123).content_fingerprint());
        assert_ne!(fp, base.clone().with_threshold(0.33).content_fingerprint());
        assert_ne!(
            fp,
            base.clone().with_witness_retain(0.4).content_fingerprint(),
            "retention ceiling moves the estimation artifact"
        );
        assert_ne!(fp, base.clone().with_episodes(1).content_fingerprint());
        assert_ne!(
            fp,
            base.clone()
                .with_ablation(RewardMode::EndOfEpisode, false)
                .content_fingerprint()
        );
    }

    #[test]
    fn effective_retain_never_drops_below_theta() {
        let c = AnalysisConfig::default();
        assert!((c.effective_retain() - 0.25).abs() < 1e-12);
        let wide = AnalysisConfig {
            rareness_threshold: 0.4,
            ..c
        };
        assert!((wide.effective_retain() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn presets_differ_in_scale() {
        assert!(
            DeterrentConfig::fast_preset().train.episodes
                < DeterrentConfig::paper_preset().train.episodes
        );
    }
}
