//! Artifact-cache correctness of the staged session API.
//!
//! The contract under test: a session rerun whose config slices did not
//! change hits the cache for every cached stage (counter-asserted) and
//! produces **bit-identical** `DeterrentResult`s to a cold session and to
//! a one-call `DeterrentSession::run()` on a private store — at one worker
//! thread and at four (`DeterrentConfig::threads` pins the exec runtime
//! exactly like `DETERRENT_THREADS` does for knob-0 configs; CI additionally
//! runs this whole file under a `DETERRENT_THREADS={1,4}` matrix).

use deterrent_repro::deterrent_core::{
    ArtifactStore, DeterrentConfig, DeterrentResult, DeterrentSession, RewardMode,
};
use deterrent_repro::netlist::synth::BenchmarkProfile;
use deterrent_repro::netlist::Netlist;

fn test_netlist() -> Netlist {
    BenchmarkProfile::c2670().scaled(20).generate(11)
}

fn test_config() -> DeterrentConfig {
    DeterrentConfig::fast_preset()
        .with_threshold(0.2)
        .with_episodes(30)
        .with_eval_rollouts(8)
}

fn assert_bit_identical(a: &DeterrentResult, b: &DeterrentResult, label: &str) {
    assert_eq!(a.patterns, b.patterns, "{label}: patterns");
    assert_eq!(a.sets, b.sets, "{label}: sets");
    assert_eq!(a.rare_nets, b.rare_nets, "{label}: rare nets");
    assert_eq!(
        a.rareness_threshold.to_bits(),
        b.rareness_threshold.to_bits(),
        "{label}: threshold"
    );
    assert_eq!(
        a.metrics.max_compatible_set, b.metrics.max_compatible_set,
        "{label}: max compatible set"
    );
    assert_eq!(
        a.metrics.env_sat_checks, b.metrics.env_sat_checks,
        "{label}: env SAT checks"
    );
    assert_eq!(
        a.metrics.patterns_witness_reused, b.metrics.patterns_witness_reused,
        "{label}: witness reuse"
    );
}

#[test]
fn warm_rerun_hits_every_cached_stage_and_is_bit_identical() {
    let nl = test_netlist();
    for threads in [1usize, 4] {
        let config = test_config().with_threads(threads);
        let store = ArtifactStore::new();

        let mut cold = DeterrentSession::with_store(&nl, config.clone(), store.clone());
        let cold_result = cold.run();
        let after_cold = store.counters();
        assert_eq!(after_cold.total_hits(), 0, "{threads} threads: cold run");
        assert_eq!(after_cold.analyze.misses, 1);
        assert_eq!(after_cold.build_graph.misses, 1);
        assert_eq!(after_cold.train.misses, 1);
        assert_eq!(after_cold.select.misses, 1);

        let mut warm = DeterrentSession::with_store(&nl, config.clone(), store.clone());
        let warm_result = warm.run();
        let after_warm = store.counters();
        assert_eq!(
            after_warm.total_misses(),
            after_cold.total_misses(),
            "{threads} threads: warm run must recompute nothing"
        );
        assert_eq!(after_warm.analyze.hits, 1, "{threads} threads");
        assert_eq!(after_warm.build_graph.hits, 1, "{threads} threads");
        assert_eq!(after_warm.train.hits, 1, "{threads} threads");
        assert_eq!(after_warm.select.hits, 1, "{threads} threads");

        assert_bit_identical(
            &cold_result,
            &warm_result,
            &format!("warm vs cold at {threads} threads"),
        );

        // A one-call run on a private store is the same computation.
        let private = DeterrentSession::new(&nl, config).run();
        assert_bit_identical(
            &private,
            &cold_result,
            &format!("private store at {threads} threads"),
        );
    }
}

#[test]
fn results_and_cache_keys_are_thread_count_invariant() {
    let nl = test_netlist();
    let store = ArtifactStore::new();

    // Cold at 1 thread populates the store…
    let mut serial =
        DeterrentSession::with_store(&nl, test_config().with_threads(1), store.clone());
    let serial_result = serial.run();

    // …and a 4-thread session hits every cached stage: thread counts are
    // excluded from artifact keys because results cannot depend on them.
    let mut parallel =
        DeterrentSession::with_store(&nl, test_config().with_threads(4), store.clone());
    let parallel_result = parallel.run();
    let counters = store.counters();
    assert_eq!(counters.total_misses(), 6, "one miss per cached stage");
    assert_eq!(counters.estimate.hits, 1);
    assert_eq!(counters.analyze.hits, 1);
    assert_eq!(counters.build_graph.hits, 1);
    assert_eq!(counters.train.hits, 1);
    assert_eq!(counters.select.hits, 1);
    assert_eq!(counters.generate.hits, 1);
    assert_bit_identical(
        &serial_result,
        &parallel_result,
        "1 vs 4 threads, shared store",
    );

    // And a fully cold 4-thread session (private store) still agrees bit for
    // bit — the cache never substitutes for determinism, it only skips work.
    let mut cold4 = DeterrentSession::new(&nl, test_config().with_threads(4));
    let cold4_result = cold4.run();
    assert_bit_identical(&serial_result, &cold4_result, "1 vs 4 threads, cold");
}

#[test]
fn changing_a_downstream_slice_preserves_upstream_artifacts() {
    let nl = test_netlist();
    let store = ArtifactStore::new();
    let base = test_config();

    let mut first = DeterrentSession::with_store(&nl, base.clone(), store.clone());
    let _ = first.run();

    // A train-section change invalidates training and selection only.
    let ablated = base.clone().with_ablation(RewardMode::EndOfEpisode, true);
    let mut second = DeterrentSession::with_store(&nl, ablated, store.clone());
    let _ = second.run();
    let counters = store.counters();
    assert_eq!(counters.analyze.misses, 1);
    assert_eq!(counters.analyze.hits, 1);
    assert_eq!(counters.build_graph.misses, 1);
    assert_eq!(counters.build_graph.hits, 1);
    assert_eq!(counters.train.misses, 2, "ablation retrains");
    assert_eq!(counters.select.misses, 2, "new policy, new selection");

    // A θ change invalidates thresholding and everything downstream — but
    // not the θ-independent estimation artifact.
    let tighter = base.with_threshold(0.15);
    let mut third = DeterrentSession::with_store(&nl, tighter, store.clone());
    let _ = third.run();
    let counters = store.counters();
    assert_eq!(counters.estimate.misses, 1, "θ never touches the estimate");
    assert_eq!(counters.analyze.misses, 2, "new θ, new analysis");
    assert_eq!(counters.build_graph.misses, 2, "new analysis, new graph");
}

#[test]
fn session_exec_stats_include_estimation_tasks() {
    // The session's single shared executor must account for the estimation
    // + witness-harvest parallel calls, not only for the stages after it.
    let nl = test_netlist();
    let config = test_config();
    let mut session = DeterrentSession::new(&nl, config.clone());
    let _ = session.analyze();
    let estimation_stats = session.exec_stats();
    assert!(
        estimation_stats.calls >= 1,
        "the single compacting estimation pass must run on the session executor: {estimation_stats:?}"
    );
    // Estimation processes the pattern stream in 64-pattern chunks: at least
    // patterns/64 tasks must be visible before any later stage runs.
    let min_tasks = (config.analysis.probability_patterns / 64) as u64;
    assert!(
        estimation_stats.tasks >= min_tasks,
        "expected ≥{min_tasks} estimation tasks, got {estimation_stats:?}"
    );

    let rare = session.analyze();
    let _ = session.run_from(&rare);
    let after_run = session.exec_stats();
    assert!(
        after_run.calls > estimation_stats.calls,
        "later stages accumulate onto the same executor"
    );
    assert!(after_run.tasks >= estimation_stats.tasks);

    // A one-call run's executor stats cover estimation too.
    let mut one_call = DeterrentSession::new(&nl, config);
    let _ = one_call.run();
    assert!(
        one_call.exec_stats().tasks >= min_tasks,
        "one-call stats must include estimation: {:?}",
        one_call.exec_stats()
    );
}
