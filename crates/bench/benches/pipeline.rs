//! Criterion benchmarks of the end-to-end pipelines: DETERRENT and each
//! baseline on a scaled c2670 profile. One benchmark per Table 2 technique
//! plus the reward-mode ablation of Table 1 / Figure 2.

use baselines::{Atpg, RandomPatterns, Tarmac, TestGenerator, Tgrl};
use criterion::{criterion_group, criterion_main, Criterion};
use deterrent_core::{DeterrentConfig, DeterrentResult, DeterrentSession, RewardMode};
use netlist::synth::BenchmarkProfile;
use sim::rare::RareNetAnalysis;

fn setup() -> (netlist::Netlist, RareNetAnalysis) {
    let nl = BenchmarkProfile::c2670().scaled(25).generate(3);
    let analysis = RareNetAnalysis::estimate(&nl, 0.2, 4096, 3);
    (nl, analysis)
}

/// One pipeline run over the shared analysis, on a fresh session.
fn run_deterrent(
    nl: &netlist::Netlist,
    config: DeterrentConfig,
    analysis: &RareNetAnalysis,
) -> DeterrentResult {
    let mut session = DeterrentSession::new(nl, config);
    let rare = session.import_analysis(analysis.clone());
    session.run_from(&rare)
}

fn small_config() -> DeterrentConfig {
    DeterrentConfig::fast_preset()
        .with_episodes(30)
        .with_eval_rollouts(8)
        .with_k_patterns(8)
}

fn bench_deterrent(c: &mut Criterion) {
    let (nl, analysis) = setup();
    c.bench_function("pipeline/deterrent_allsteps_masked", |b| {
        b.iter(|| run_deterrent(&nl, small_config(), &analysis))
    });
    c.bench_function("pipeline/deterrent_endofepisode", |b| {
        b.iter(|| {
            let config = small_config().with_ablation(RewardMode::EndOfEpisode, true);
            run_deterrent(&nl, config, &analysis)
        })
    });
    c.bench_function("pipeline/deterrent_no_masking", |b| {
        b.iter(|| {
            let config = small_config().with_ablation(RewardMode::AllSteps, false);
            run_deterrent(&nl, config, &analysis)
        })
    });
}

fn bench_baselines(c: &mut Criterion) {
    let (nl, analysis) = setup();
    c.bench_function("pipeline/random_64", |b| {
        b.iter(|| RandomPatterns::new(64, 1).generate(&nl, &analysis))
    });
    c.bench_function("pipeline/tarmac_16_cliques", |b| {
        b.iter(|| Tarmac::new(16, 1).generate(&nl, &analysis))
    });
    c.bench_function("pipeline/tgrl_10_episodes", |b| {
        b.iter(|| Tgrl::new(10, 1).generate(&nl, &analysis))
    });
    c.bench_function("pipeline/atpg", |b| {
        b.iter(|| Atpg::new(1).generate(&nl, &analysis))
    });
}

criterion_group! {
    name = pipeline;
    config = Criterion::default().sample_size(10);
    targets = bench_deterrent, bench_baselines
}
criterion_main!(pipeline);
