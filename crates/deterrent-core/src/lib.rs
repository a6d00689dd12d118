//! DETERRENT — Detecting Trojans using Reinforcement Learning (DAC 2022).
//!
//! This crate implements the paper's primary contribution: a reinforcement
//! learning agent that searches for *maximal sets of compatible rare nets*
//! of a gate-level netlist and turns the `k` largest sets into a compact test
//! pattern set that activates rare Trojan triggers.
//!
//! # The staged session API
//!
//! The primary entry point is [`DeterrentSession`], which exposes the
//! pipeline (Figure 4 of the paper) as six typed stages, each returning a
//! cheaply clonable, cache-keyed artifact:
//!
//! 1. [`DeterrentSession::estimate`] → [`ProbArtifact`] — Monte-Carlo
//!    signal-probability estimation with a single-pass compacting witness
//!    harvest ([`sim::RareNetEstimate`]), keyed *without* the rareness
//!    threshold θ so every θ of a sweep shares it.
//! 2. [`DeterrentSession::analyze`] → [`RareArtifact`] — rare-net
//!    identification by thresholding the shared estimate at θ
//!    ([`sim::rare::RareNetAnalysis`]), a pure prefix slice of the
//!    estimate's candidates and witness bank.
//! 3. [`DeterrentSession::build_graph`] → [`GraphArtifact`] — offline
//!    pairwise compatibility ([`CompatibilityGraph`]). The paper answers
//!    every pair with SAT across 64 processes; this implementation runs a
//!    three-tier simulation-first funnel (retained Monte-Carlo witnesses →
//!    cone-support pruning and cost-model-driven exhaustive cone enumeration
//!    → cone-restricted incremental SAT) that reaches the bit-identical
//!    graph with a fraction of the SAT queries.
//! 4. [`DeterrentSession::train`] → [`PolicyArtifact`] — PPO over the
//!    compatible-set MDP ([`CompatSetEnv`]) with action masking,
//!    configurable reward mode, and boosted exploration.
//! 5. [`DeterrentSession::select`] → [`SetsArtifact`] — greedy evaluation
//!    rollouts plus `k`-largest distinct set selection.
//! 6. [`DeterrentSession::generate`] → [`DeterrentResult`] — SAT/witness
//!    justification of each selected set into a concrete test pattern.
//!
//! Artifacts live in an [`ArtifactStore`] keyed by (netlist fingerprint,
//! per-stage config section, seed, upstream key) — never the thread count —
//! with hit/miss counters. Sessions sharing a store recompute only the
//! stages whose inputs changed, which is what the paper's evaluation grids
//! need: the Table 1 / Figure 2–3 ablations share one analysis and one
//! graph across all cells, and threshold transfer shares one estimation
//! across every θ.
//!
//! A session reports progress through one channel, its
//! [`telemetry::Telemetry`] handle ([`DeterrentSession::set_telemetry`]):
//! every stage invocation closes one span named after its [`Stage`],
//! carrying the stage's output cardinality (`items`), wall time
//! (`wall_ns`), whether the artifact came from the cache (`cache_hit`), and
//! the store and executor deltas.
//!
//! [`DeterrentConfig`] groups its knobs by stage ([`AnalysisConfig`],
//! [`CompatConfig`], [`TrainConfig`], [`SelectConfig`]) with `with_*`
//! builder methods for the common ablations.
//!
//! ```
//! use deterrent_core::{DeterrentConfig, DeterrentSession};
//! use netlist::synth::BenchmarkProfile;
//!
//! let netlist = BenchmarkProfile::c2670().scaled(30).generate(1);
//! let config = DeterrentConfig::fast_preset().with_threshold(0.2);
//! let mut session = DeterrentSession::new(&netlist, config);
//! let rare = session.analyze();
//! let graph = session.build_graph(&rare);
//! let policy = session.train(&graph);
//! let sets = session.select(&graph, &policy);
//! let result = session.generate(&graph, &policy, &sets);
//! assert!(!result.patterns.is_empty());
//! ```
//!
//! [`DeterrentSession::run`] runs all six stages in one call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
pub mod cache;
mod codec;
mod compat;
mod config;
mod env;
mod fault;
mod pipeline;
mod selection;
mod session;

pub use artifact::{
    ArtifactStore, GeneratedPatterns, GraphArtifact, PatternsArtifact, PolicyArtifact,
    ProbArtifact, RareArtifact, SelectedSets, SetsArtifact, Stage, StageCounters, StoreCounters,
    TrainedPolicy,
};
pub use cache::{
    parse_bytes, CacheError, CacheErrorKind, CacheEvents, CachePolicy, CacheStats, Eviction,
    GcReport, StageUsage, VerifyReport,
};
pub use codec::{decode_record, encode_record, QUIET_ENV_VAR, SLIM_LOSS_KEEP};
pub use compat::{
    CompatStats, CompatStrategy, CompatibilityGraph, FunnelOptions, MAX_ENUMERATION_SUPPORT,
};
pub use config::{
    AnalysisConfig, CompatCheck, CompatConfig, DeterrentConfig, RewardMode, SelectConfig,
    TrainConfig,
};
pub use env::CompatSetEnv;
pub use fault::{FaultCounts, FaultKind, FaultPlan, FAULT_PLAN_ENV_VAR};
pub use pipeline::{DeterrentResult, TrainingMetrics};
pub use selection::{
    generate_patterns, generate_patterns_with, select_k_largest, PatternGenStats, RareNetSet,
};
pub use session::DeterrentSession;
