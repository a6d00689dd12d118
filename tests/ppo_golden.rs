//! Golden digests of the `train` stage: the PPO agent's weights, Adam
//! moments, loss history and training harvest, pinned bit-for-bit.
//!
//! The digests were recorded with the dense reference kernels (every input
//! column and every output row multiplied). The exact-sparse kernels skip
//! only terms that add an exact zero, so they must reproduce the same bits,
//! with action masking on and with the masking-off ablation, at one worker
//! thread and at four.

use deterrent_repro::deterrent_core::{
    ArtifactStore, DeterrentConfig, DeterrentSession, RewardMode,
};
use deterrent_repro::netlist::synth::BenchmarkProfile;
use deterrent_repro::rl::PolicySnapshot;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for x in xs {
            self.u64(x.to_bits());
        }
    }
}

fn digest(snapshot: &PolicySnapshot, harvest: &[Vec<usize>]) -> u64 {
    let mut h = Fnv::new();
    h.u64(snapshot.total_steps);
    h.u64(snapshot.total_updates);
    h.f64s(&snapshot.policy_params);
    h.f64s(&snapshot.value_params);
    for opt in [&snapshot.policy_opt, &snapshot.value_opt] {
        h.f64s(&opt.m);
        h.f64s(&opt.v);
        h.u64(opt.steps);
    }
    h.u64(snapshot.loss_history.len() as u64);
    for (steps, l) in &snapshot.loss_history {
        h.u64(*steps);
        for x in [l.policy_loss, l.entropy_loss, l.value_loss, l.total_loss] {
            h.u64(x.to_bits());
        }
    }
    h.u64(harvest.len() as u64);
    for set in harvest {
        h.u64(set.len() as u64);
        for &net in set {
            h.u64(net as u64);
        }
    }
    h.0
}

/// Runs the `train` stage on `threads` workers and digests its artifact.
fn train_digest(masking: bool, threads: usize) -> u64 {
    let netlist = BenchmarkProfile::c2670().scaled(20).generate(11);
    let config = DeterrentConfig::fast_preset()
        .with_threshold(0.2)
        .with_episodes(200)
        .with_ablation(RewardMode::AllSteps, masking)
        .with_threads(threads);
    // A fresh memory store, so the stage trains even when a disk cache is
    // configured through the environment.
    let mut session = DeterrentSession::with_store(&netlist, config, ArtifactStore::new());
    let rare = session.analyze();
    let graph = session.build_graph(&rare);
    assert!(graph.graph().len() > 1, "profile must keep rare nets");
    let policy = session.train(&graph);
    let trained = policy.policy();
    assert!(trained.trainer.total_updates() > 0, "training must update");
    digest(&trained.trainer.snapshot(), &trained.harvested_sets)
}

const MASKED: u64 = 874_410_852_222_140_332;
const UNMASKED: u64 = 4_332_343_425_428_367_953;

#[test]
fn masked_training_matches_the_dense_kernel_digest() {
    for threads in [1, 4] {
        assert_eq!(train_digest(true, threads), MASKED, "{threads} threads");
    }
}

#[test]
fn unmasked_training_matches_the_dense_kernel_digest() {
    for threads in [1, 4] {
        assert_eq!(train_digest(false, threads), UNMASKED, "{threads} threads");
    }
}
