//! The exec runtime's contract, checked end to end: every stage of the
//! pipeline produces **bit-identical** results at any thread count.
//!
//! Covered surfaces: signal-probability estimates, harvested witness banks,
//! the compatibility adjacency matrix, and the full pipeline's selected sets
//! and generated pattern sets (which exercise parallel PPO rollout
//! collection).

use deterrent_repro::deterrent_core::{CompatibilityGraph, Deterrent, DeterrentConfig};
use deterrent_repro::exec::Exec;
use deterrent_repro::netlist::synth::BenchmarkProfile;
use deterrent_repro::sim::rare::RareNetAnalysis;
use deterrent_repro::sim::SignalProbabilities;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

#[test]
fn probability_estimates_are_bit_identical_across_thread_counts() {
    let nl = BenchmarkProfile::c2670().scaled(20).generate(7);
    let reference = SignalProbabilities::estimate_with(&nl, 4096, 9, &Exec::serial());
    for threads in THREAD_COUNTS {
        let estimate = SignalProbabilities::estimate_with(&nl, 4096, 9, &Exec::new(threads));
        assert_eq!(
            reference.as_slice(),
            estimate.as_slice(),
            "{threads} threads"
        );
    }
}

#[test]
fn rare_net_analysis_and_witnesses_are_thread_count_invariant() {
    let nl = BenchmarkProfile::c5315().scaled(40).generate(3);
    let reference = RareNetAnalysis::estimate_with(&nl, 0.2, 2048, 5, &Exec::serial());
    for threads in THREAD_COUNTS {
        let analysis = RareNetAnalysis::estimate_with(&nl, 0.2, 2048, 5, &Exec::new(threads));
        assert_eq!(reference.rare_nets(), analysis.rare_nets(), "{threads}");
        let (a, b) = (
            reference.witnesses().expect("bank retained"),
            analysis.witnesses().expect("bank retained"),
        );
        assert_eq!(a.num_patterns(), b.num_patterns());
        for t in 0..a.len() {
            assert_eq!(a.row(t), b.row(t), "{threads} threads, row {t}");
        }
    }
}

#[test]
fn adjacency_matrix_is_bit_identical_across_thread_counts() {
    let nl = BenchmarkProfile::c2670().scaled(20).generate(7);
    let analysis = RareNetAnalysis::estimate(&nl, 0.2, 4096, 5);
    let reference = CompatibilityGraph::build(&nl, &analysis, 1);
    for threads in THREAD_COUNTS {
        let graph = CompatibilityGraph::build(&nl, &analysis, threads);
        assert_eq!(reference.adjacency(), graph.adjacency(), "{threads}");
        assert_eq!(reference.rare_nets(), graph.rare_nets(), "{threads}");
    }
}

#[test]
fn pipeline_patterns_and_sets_are_bit_identical_across_thread_counts() {
    let nl = BenchmarkProfile::c2670().scaled(20).generate(11);
    let run = |threads: usize| {
        let config = DeterrentConfig::fast_preset()
            .with_threshold(0.2)
            .with_episodes(30)
            .with_eval_rollouts(8)
            .with_threads(threads);
        Deterrent::new(&nl, config).run()
    };
    let reference = run(1);
    assert!(
        !reference.patterns.is_empty(),
        "profile must produce patterns"
    );
    for threads in THREAD_COUNTS {
        let result = run(threads);
        assert_eq!(reference.sets, result.sets, "{threads} threads: sets");
        assert_eq!(
            reference.patterns, result.patterns,
            "{threads} threads: patterns"
        );
        assert_eq!(
            reference.rare_nets, result.rare_nets,
            "{threads} threads: rare nets"
        );
        assert_eq!(
            reference.metrics.max_compatible_set, result.metrics.max_compatible_set,
            "{threads} threads: harvest"
        );
        assert_eq!(
            reference.metrics.patterns_witness_reused, result.metrics.patterns_witness_reused,
            "{threads} threads: witness reuse"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Adjacency determinism holds across random profiles, thresholds, and
    /// pattern budgets — not just the hand-picked acceptance profile.
    #[test]
    fn adjacency_determinism_holds_on_random_profiles(
        scale in 10usize..30,
        seed in any::<u64>(),
        theta_percent in 10u32..30,
        patterns_exp in 9u32..12,
    ) {
        let nl = BenchmarkProfile::c2670().scaled(scale).generate(seed);
        let theta = f64::from(theta_percent) / 100.0;
        let analysis = RareNetAnalysis::estimate(&nl, theta, 1usize << patterns_exp, seed ^ 1);
        let serial = CompatibilityGraph::build(&nl, &analysis, 1);
        let parallel = CompatibilityGraph::build(&nl, &analysis, 3);
        prop_assert_eq!(serial.adjacency(), parallel.adjacency());
    }
}
