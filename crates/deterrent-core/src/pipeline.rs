//! The result types of a DETERRENT run (Figure 4 of the paper), as
//! assembled by [`crate::DeterrentSession::generate`].

use exec::ExecStats;
use rl::PpoLosses;
use sim::rare::RareNet;
use sim::TestPattern;

use crate::RareNetSet;

/// Metrics of a full pipeline run, matching the quantities reported in
/// Table 1 and Figures 2–3 of the paper.
#[derive(Debug, Clone, Default)]
pub struct TrainingMetrics {
    /// Episodes completed per minute of wall-clock time.
    pub episodes_per_minute: f64,
    /// Environment steps per minute of wall-clock time.
    pub steps_per_minute: f64,
    /// Size of the largest compatible set found during training/evaluation.
    pub max_compatible_set: usize,
    /// Mean reward over the last 10% of episodes.
    pub final_mean_reward: f64,
    /// `(total_env_steps, losses)` per PPO update — the loss curve of Fig. 3.
    pub loss_history: Vec<(u64, PpoLosses)>,
    /// Wall-clock seconds spent in RL training.
    pub training_seconds: f64,
    /// SAT queries spent building the pairwise-compatibility graph.
    pub compat_sat_queries: u64,
    /// Unordered rare-net pairs the compatibility graph resolved.
    pub compat_pairs_total: u64,
    /// Pairs resolved by a retained simulation witness (tier 1, no SAT).
    pub compat_pairs_witnessed: u64,
    /// Pairs resolved by disjoint cone supports (tier 2, no SAT).
    pub compat_pairs_pruned: u64,
    /// Pairs resolved by bounded exhaustive cone enumeration (tier 2, no
    /// SAT).
    pub compat_pairs_enumerated: u64,
    /// Pairs struck incompatible by implication probing (tier 3, no query).
    pub compat_pairs_probe_struck: u64,
    /// Pairs struck compatible by a resimulated sweep model (tier 3, no
    /// query of their own).
    pub compat_pairs_sweep_struck: u64,
    /// Pairs that needed a SAT query (tier 3). Witnessed + pruned +
    /// enumerated + probe-struck + sweep-struck + SAT partition the total.
    pub compat_pairs_sat: u64,
    /// Aggregate CDCL solver counters across every solver the graph build
    /// created (singleton oracle, tier-3 probe oracle and sweep lanes).
    pub compat_solver: sat::SolverStats,
    /// Exact SAT checks performed inside the environment (non-zero only for
    /// the naive all-SAT formulation).
    pub env_sat_checks: u64,
    /// Worker threads of the deterministic parallel runtime.
    pub threads_used: usize,
    /// Wall-clock seconds spent building the compatibility graph (the cold
    /// build; a cache hit reports the originating build's time).
    pub compat_build_seconds: f64,
    /// Selected sets turned into patterns by reusing a concrete simulation
    /// witness instead of a SAT justification.
    pub patterns_witness_reused: u64,
    /// SAT justification queries spent generating patterns (including greedy
    /// repair retries).
    pub pattern_sat_queries: u64,
    /// Task/timing counters of the session's shared parallel runtime across
    /// **every** stage that actually ran — probability estimation, witness
    /// harvest, funnel tiers, and rollout collection;
    /// [`ExecStats::speedup`] is the realized parallel speedup. Stages
    /// served from the artifact cache contribute nothing (their work never
    /// ran).
    pub exec_stats: ExecStats,
}

/// Output of a full DETERRENT run.
#[derive(Debug, Clone)]
pub struct DeterrentResult {
    /// The generated test patterns (at most `k`, often fewer after
    /// deduplication).
    pub patterns: Vec<TestPattern>,
    /// The selected compatible rare-net sets, largest first.
    pub sets: Vec<RareNetSet>,
    /// The rare nets the agent operated over.
    pub rare_nets: Vec<RareNet>,
    /// Rareness threshold used.
    pub rareness_threshold: f64,
    /// Training-phase metrics.
    pub metrics: TrainingMetrics,
}

impl DeterrentResult {
    /// Number of generated test patterns (the "Test Length" column of
    /// Table 2).
    #[must_use]
    pub fn test_length(&self) -> usize {
        self.patterns.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::{DeterrentConfig, DeterrentSession, RewardMode};
    use netlist::synth::BenchmarkProfile;
    use netlist::Netlist;
    use sim::rare::RareNetAnalysis;
    use sim::Simulator;
    use trojan::{CoverageEvaluator, TrojanGenerator};

    fn small_netlist() -> Netlist {
        BenchmarkProfile::c2670().scaled(20).generate(3)
    }

    #[test]
    fn full_pipeline_produces_patterns_that_hit_rare_nets() {
        let nl = small_netlist();
        let config = DeterrentConfig::fast_preset().with_threshold(0.2);
        let result = DeterrentSession::new(&nl, config).run();
        assert!(!result.rare_nets.is_empty());
        assert!(!result.patterns.is_empty());
        assert!(result.test_length() <= 16);
        assert!(result.metrics.max_compatible_set >= 1);
        assert!(result.metrics.episodes_per_minute > 0.0);

        // Every pattern activates at least one rare net at its rare value.
        let sim = Simulator::new(&nl);
        for p in &result.patterns {
            let values = sim.run(p);
            assert!(result
                .rare_nets
                .iter()
                .any(|r| values.value(r.net) == r.rare_value));
        }
    }

    #[test]
    fn pipeline_detects_planted_trojans_better_than_nothing() {
        let nl = small_netlist();
        let config = DeterrentConfig::fast_preset()
            .with_threshold(0.2)
            .with_seed(5);
        let result = DeterrentSession::new(&nl, config).run();

        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 4096, 9);
        let mut gen = TrojanGenerator::new(&nl, 77);
        let trojans = gen.sample_many(&analysis, 2, 20);
        if trojans.is_empty() {
            return; // seed produced no valid 2-wide triggers; other tests cover this
        }
        let evaluator = CoverageEvaluator::new(&nl, trojans);
        let report = evaluator.evaluate(&result.patterns);
        assert!(
            report.detected > 0,
            "DETERRENT patterns should trigger at least one planted Trojan"
        );
    }

    #[test]
    fn end_of_episode_mode_runs_and_reports_metrics() {
        let nl = small_netlist();
        let config = DeterrentConfig::fast_preset()
            .with_threshold(0.2)
            .with_ablation(RewardMode::EndOfEpisode, true)
            .with_episodes(20);
        let result = DeterrentSession::new(&nl, config).run();
        assert!(result.metrics.steps_per_minute > 0.0);
    }

    #[test]
    fn empty_rare_net_set_yields_empty_result() {
        let nl = netlist::samples::c17();
        // Nothing in c17 is rare at θ = 0.01.
        let config = DeterrentConfig::fast_preset().with_threshold(0.01);
        let result = DeterrentSession::new(&nl, config).run();
        assert!(result.patterns.is_empty());
        assert!(result.sets.is_empty());
    }

    #[test]
    fn threshold_transfer_reuses_external_analysis() {
        let nl = small_netlist();
        let loose = RareNetAnalysis::estimate(&nl, 0.25, 4096, 2);
        let config = DeterrentConfig::fast_preset().with_episodes(20);
        let mut session = DeterrentSession::new(&nl, config);
        let rare = session.import_analysis(loose);
        let result = session.run_from(&rare);
        assert!((result.rareness_threshold - 0.25).abs() < 1e-12);
    }
}
