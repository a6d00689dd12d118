//! The result types of a DETERRENT run (Figure 4 of the paper), as
//! assembled by [`crate::DeterrentSession::generate`].

use rl::PpoLosses;
use sim::rare::RareNet;
use sim::TestPattern;

use crate::RareNetSet;

/// Metrics of a full pipeline run, matching the quantities reported in
/// Table 1 and Figures 2–3 of the paper. The two rates are the run's only
/// measurements (replayed from the training report on a warm run); graph
/// counters live in [`crate::CompatStats`] and executor counters in
/// [`crate::DeterrentSession::exec_stats`].
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
    /// Exact SAT checks performed inside the environment (non-zero only for
    /// the naive all-SAT formulation).
    pub env_sat_checks: u64,
    /// Selected sets turned into patterns by reusing a concrete simulation
    /// witness instead of a SAT justification.
    pub patterns_witness_reused: u64,
    /// SAT justification queries spent generating patterns (including greedy
    /// repair retries).
    pub pattern_sat_queries: u64,
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
