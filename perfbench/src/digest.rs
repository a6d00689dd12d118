//! Content digests of pipeline artifacts, used to check outputs against a
//! recorded reference and to prove two runs produced the same bytes.

use deterrent_core::{CompatibilityGraph, RareNetSet};
use rl::{PolicySnapshot, TrainReport};
use sim::rare::{RareNet, RareNetAnalysis};
use sim::{RareNetEstimate, TestPattern, WitnessBank};

/// 64-bit FNV-1a over a stream of words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, word: u64) -> &mut Self {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn usize(&mut self, n: usize) -> &mut Self {
        self.u64(n as u64)
    }

    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    pub fn f64s(&mut self, xs: &[f64]) -> &mut Self {
        self.usize(xs.len());
        for &x in xs {
            self.f64(x);
        }
        self
    }

    pub fn bools(&mut self, bits: &[bool]) -> &mut Self {
        self.usize(bits.len());
        for chunk in bits.chunks(64) {
            let word = chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &b)| w | (u64::from(b) << i));
            self.u64(word);
        }
        self
    }

    pub fn sets(&mut self, sets: &[Vec<usize>]) -> &mut Self {
        self.usize(sets.len());
        for set in sets {
            self.usize(set.len());
            for &x in set {
                self.usize(x);
            }
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn rare_nets(h: &mut Fnv, nets: &[RareNet]) {
    h.usize(nets.len());
    for r in nets {
        h.usize(r.net.index())
            .u64(u64::from(r.rare_value))
            .f64(r.probability);
    }
}

fn bank(h: &mut Fnv, bank: Option<&WitnessBank>) {
    let rows = bank.map_or(&[][..], WitnessBank::raw_rows);
    h.usize(rows.len());
    for &w in rows {
        h.u64(w);
    }
}

pub fn estimate(e: &RareNetEstimate) -> u64 {
    let mut h = Fnv::new();
    h.f64(e.retain())
        .usize(e.num_candidates())
        .f64s(e.probabilities().as_slice());
    bank(&mut h, Some(e.bank()));
    h.finish()
}

pub fn analysis(a: &RareNetAnalysis) -> u64 {
    let mut h = Fnv::new();
    h.f64(a.threshold()).f64s(a.probabilities().as_slice());
    rare_nets(&mut h, a.rare_nets());
    bank(&mut h, a.witnesses());
    h.finish()
}

/// The graph's rare nets and adjacency: what the offline phase produces,
/// independent of how (or on how many threads) it was computed.
pub fn adjacency(g: &CompatibilityGraph) -> u64 {
    let mut h = Fnv::new();
    rare_nets(&mut h, g.rare_nets());
    h.bools(g.adjacency());
    h.finish()
}

/// [`adjacency`] plus the deterministic tier counts of the funnel.
pub fn graph(g: &CompatibilityGraph) -> u64 {
    let s = g.stats();
    let mut h = Fnv::new();
    h.u64(adjacency(g))
        .usize(s.candidate_rare_nets)
        .usize(s.kept_rare_nets)
        .u64(s.singleton_sim_resolved)
        .u64(s.singleton_sat_queries)
        .u64(s.pairs_total)
        .u64(s.pairs_sim_witnessed)
        .u64(s.pairs_structurally_pruned)
        .u64(s.pairs_cone_enumerated)
        .u64(s.pairs_sat_resolved);
    h.finish()
}

/// The trained agent (weights, optimizer state, loss curve) plus the
/// training trajectory summary and harvest.
pub fn policy(snapshot: &PolicySnapshot, report: &TrainReport, harvest: &[Vec<usize>]) -> u64 {
    let mut h = Fnv::new();
    h.u64(snapshot.total_steps)
        .u64(snapshot.total_updates)
        .f64s(&snapshot.policy_params)
        .f64s(&snapshot.value_params);
    for opt in [&snapshot.policy_opt, &snapshot.value_opt] {
        h.f64(opt.learning_rate)
            .f64s(&opt.m)
            .f64s(&opt.v)
            .u64(opt.steps);
    }
    h.usize(snapshot.loss_history.len());
    for (steps, l) in &snapshot.loss_history {
        h.u64(*steps)
            .f64(l.policy_loss)
            .f64(l.entropy_loss)
            .f64(l.value_loss)
            .f64(l.total_loss);
    }
    h.f64s(&report.episode_rewards);
    h.usize(report.episode_lengths.len());
    for &n in &report.episode_lengths {
        h.usize(n);
    }
    h.sets(harvest);
    h.finish()
}

pub fn sets(sets: &[RareNetSet], max_compatible_set: usize, harvested_total: usize) -> u64 {
    let mut h = Fnv::new();
    h.sets(sets)
        .usize(max_compatible_set)
        .usize(harvested_total);
    h.finish()
}

pub fn patterns(patterns: &[TestPattern]) -> u64 {
    let mut h = Fnv::new();
    h.usize(patterns.len());
    for p in patterns {
        h.bools(p.bits());
    }
    h.finish()
}
