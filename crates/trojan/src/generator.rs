//! Random, SAT-validated Trojan sampling.

use netlist::Netlist;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sat::CircuitOracle;
use sim::rare::RareNetAnalysis;

use crate::Trojan;

/// Samples random Trojans whose triggers are drawn from the rare nets of a
/// design and are validated to be activatable (satisfiable) with a SAT check,
/// reproducing the evaluation methodology of the paper.
#[derive(Debug)]
pub struct TrojanGenerator<'a> {
    netlist: &'a Netlist,
    oracle: CircuitOracle<'a>,
    rng: StdRng,
    attempts: u64,
    rejected: u64,
}

impl<'a> TrojanGenerator<'a> {
    /// Creates a generator for `netlist` seeded with `seed`.
    #[must_use]
    pub fn new(netlist: &'a Netlist, seed: u64) -> Self {
        Self {
            netlist,
            oracle: CircuitOracle::new(netlist),
            rng: StdRng::seed_from_u64(seed),
            attempts: 0,
            rejected: 0,
        }
    }

    /// Samples one valid Trojan with a trigger of exactly `width` rare nets
    /// drawn from `analysis`. Returns `None` if no satisfiable trigger of the
    /// requested width could be found within a bounded number of attempts.
    pub fn sample(&mut self, analysis: &RareNetAnalysis, width: usize) -> Option<Trojan> {
        let rare = analysis.rare_nets();
        if rare.len() < width || width == 0 {
            return None;
        }
        let outputs = self.netlist.primary_outputs();
        let max_attempts = 200;
        for _ in 0..max_attempts {
            self.attempts += 1;
            let mut indices: Vec<usize> = (0..rare.len()).collect();
            indices.shuffle(&mut self.rng);
            let trigger: Vec<_> = indices[..width]
                .iter()
                .map(|&i| (rare[i].net, rare[i].rare_value))
                .collect();
            if self.oracle.is_compatible(&trigger) {
                let payload_output = outputs[self.rng.gen_range(0..outputs.len())];
                return Some(Trojan::new(trigger, payload_output));
            }
            self.rejected += 1;
        }
        None
    }

    /// Samples up to `count` valid Trojans of the given trigger `width`.
    ///
    /// Fewer Trojans are returned when the design does not admit that many
    /// satisfiable triggers within the attempt budget — small designs at wide
    /// trigger widths legitimately run out.
    pub fn sample_many(
        &mut self,
        analysis: &RareNetAnalysis,
        width: usize,
        count: usize,
    ) -> Vec<Trojan> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            match self.sample(analysis, width) {
                Some(t) => out.push(t),
                None => break,
            }
        }
        out
    }

    /// Total trigger candidates tried so far.
    #[must_use]
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Candidates rejected by the SAT validity check so far.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::synth::BenchmarkProfile;
    use sim::{Simulator, TestPattern};

    fn small_design() -> Netlist {
        BenchmarkProfile::c2670().scaled(15).generate(21)
    }

    #[test]
    fn sampled_trojans_are_satisfiable() {
        let nl = small_design();
        let analysis = RareNetAnalysis::estimate(&nl, 0.15, 4096, 5);
        assert!(analysis.len() >= 4, "need rare nets for this test");
        let mut gen = TrojanGenerator::new(&nl, 1);
        let trojans = gen.sample_many(&analysis, 2, 10);
        assert!(!trojans.is_empty());
        // Re-validate each trigger independently and check activation in sim.
        let mut oracle = CircuitOracle::new(&nl);
        let sim = Simulator::new(&nl);
        for t in &trojans {
            assert_eq!(t.width(), 2);
            let bits = oracle.justify(&t.trigger).expect("trigger is satisfiable");
            let pattern = TestPattern::new(bits);
            let values = sim.run(&pattern);
            assert!(t.is_triggered_by(&values));
        }
        assert!(gen.attempts() >= trojans.len() as u64);
    }

    #[test]
    fn impossible_width_returns_none() {
        let nl = small_design();
        let analysis = RareNetAnalysis::estimate(&nl, 0.15, 2048, 5);
        let mut gen = TrojanGenerator::new(&nl, 2);
        assert!(gen.sample(&analysis, analysis.len() + 10).is_none());
        assert!(gen.sample(&analysis, 0).is_none());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let nl = small_design();
        let analysis = RareNetAnalysis::estimate(&nl, 0.15, 2048, 5);
        let t1 = TrojanGenerator::new(&nl, 9).sample_many(&analysis, 2, 5);
        let t2 = TrojanGenerator::new(&nl, 9).sample_many(&analysis, 2, 5);
        assert_eq!(t1, t2);
    }

    #[test]
    fn payload_targets_are_primary_outputs() {
        let nl = small_design();
        let analysis = RareNetAnalysis::estimate(&nl, 0.15, 2048, 5);
        let mut gen = TrojanGenerator::new(&nl, 3);
        for t in gen.sample_many(&analysis, 2, 5) {
            assert!(nl.primary_outputs().contains(&t.payload_output));
        }
    }
}
