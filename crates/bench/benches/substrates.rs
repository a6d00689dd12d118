//! Criterion micro-benchmarks of the substrates: bit-parallel simulation,
//! SAT justification, compatibility-graph construction, and PPO updates.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use deterrent_core::CompatibilityGraph;
use exec::Exec;
use netlist::synth::BenchmarkProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{PpoConfig, PpoTrainer, Transition};
use sat::CircuitOracle;
use sim::rare::RareNetAnalysis;
use sim::{Simulator, TestPattern};

fn bench_simulation(c: &mut Criterion) {
    let nl = BenchmarkProfile::c5315().scaled(8).generate(1);
    let sim = Simulator::new(&nl);
    let mut rng = StdRng::seed_from_u64(1);
    let patterns = TestPattern::random_batch(nl.num_scan_inputs(), 64, &mut rng);
    c.bench_function("sim/packed_batch_64", |b| {
        b.iter(|| sim.run_batch(&patterns))
    });
    c.bench_function("sim/scalar_single", |b| b.iter(|| sim.run(&patterns[0])));
}

fn bench_probability(c: &mut Criterion) {
    let nl = BenchmarkProfile::c2670().scaled(10).generate(1);
    c.bench_function("sim/rare_net_analysis_4096", |b| {
        b.iter(|| RareNetAnalysis::estimate(&nl, 0.1, 4096, 7))
    });
}

fn bench_sat(c: &mut Criterion) {
    let nl = BenchmarkProfile::c2670().scaled(10).generate(1);
    let analysis = RareNetAnalysis::estimate(&nl, 0.2, 4096, 7);
    let targets = analysis.targets();
    c.bench_function("sat/encode_oracle", |b| b.iter(|| CircuitOracle::new(&nl)));
    if targets.len() >= 2 {
        c.bench_function("sat/pairwise_justify", |b| {
            b.iter_batched(
                || CircuitOracle::new(&nl),
                |mut oracle| oracle.justify(&targets[..2]),
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_compat_graph(c: &mut Criterion) {
    let nl = BenchmarkProfile::c2670().scaled(15).generate(1);
    let analysis = RareNetAnalysis::estimate(&nl, 0.2, 4096, 7);
    c.bench_function("deterrent/compat_graph_serial", |b| {
        b.iter(|| CompatibilityGraph::build(&nl, &analysis, 1))
    });
    c.bench_function("deterrent/compat_graph_4_threads", |b| {
        b.iter(|| CompatibilityGraph::build(&nl, &analysis, 4))
    });
}

/// A paper-shaped PPO batch: 256 transitions over 315 rare nets, each state
/// a 0/1 membership vector and each mask the nets still compatible with the
/// set, so masks shrink as the set grows (about 60% of pairs compatible,
/// as at c2670).
fn ppo_batch(config: &PpoConfig) -> PpoTrainer {
    const NETS: usize = 315;
    let mut rng = StdRng::seed_from_u64(5);
    let compatible: Vec<Vec<bool>> = (0..NETS)
        .map(|_| (0..NETS).map(|_| rng.gen_bool(0.6)).collect())
        .collect();
    let mut trainer = PpoTrainer::new(NETS, NETS, config, 3);
    let mut action_rng = StdRng::seed_from_u64(3);
    while trainer.pending_transitions() < 256 {
        let mut state = vec![0.0; NETS];
        let mut mask = vec![true; NETS];
        loop {
            let (action, log_prob, value) = trainer.policy_step(&state, &mask, &mut action_rng);
            let mut next_state = state.clone();
            next_state[action] = 1.0;
            let next_mask: Vec<bool> = (0..NETS)
                .map(|n| mask[n] && n != action && compatible[action.min(n)][action.max(n)])
                .collect();
            let done = !next_mask.contains(&true) || trainer.pending_transitions() == 255;
            let size = next_state.iter().sum::<f64>();
            trainer.record(Transition {
                state,
                mask,
                action,
                reward: size * size,
                done,
                log_prob,
                value,
            });
            if done {
                break;
            }
            (state, mask) = (next_state, next_mask);
        }
    }
    trainer
}

fn bench_ppo(c: &mut Criterion) {
    let config = PpoConfig {
        batch_size: 256,
        hidden_sizes: vec![64, 64],
        ..PpoConfig::boosted_exploration()
    };
    c.bench_function("rl/ppo_update_315x256", |b| {
        b.iter_batched(
            || ppo_batch(&config),
            |mut trainer| trainer.update(),
            BatchSize::SmallInput,
        )
    });
    let exec = Exec::new(2);
    c.bench_function("rl/ppo_update_315x256_2_threads", |b| {
        b.iter_batched(
            || ppo_batch(&config),
            |mut trainer| trainer.update_on(&exec),
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = substrates;
    config = Criterion::default().sample_size(10);
    targets = bench_simulation, bench_probability, bench_sat, bench_compat_graph, bench_ppo
}
criterion_main!(substrates);
