//! A TGRL-style baseline (Pan & Mishra, ASP-DAC 2021): RL over test-pattern
//! bit flips guided by a rareness/testability heuristic.

use netlist::Netlist;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::{PpoConfig, PpoTrainer, Transition};
use sim::rare::RareNetAnalysis;
use sim::{Simulator, TestPattern};

use crate::TestGenerator;

/// Reimplementation of the TGRL idea.
///
/// TGRL's states and actions are *test patterns* and *probabilistic bit
/// flips*: starting from a random pattern, an RL agent flips input bits to
/// maximize a heuristic combining the rareness and testability of the nets
/// the pattern activates. Every improving pattern encountered along the way
/// is emitted. The approach attains good coverage, but — as the paper points
/// out — only with a very large number of patterns, because the search is not
/// organized around joint (set-level) trigger conditions.
///
/// This reproduction keeps the architecture (PPO over bit-flip actions, a
/// rareness-weighted activation score as reward) while using the same
/// from-scratch RL substrate as DETERRENT, so the comparison isolates the
/// *formulation* difference rather than the learning machinery.
#[derive(Debug, Clone)]
pub struct Tgrl {
    episodes: usize,
    seed: u64,
}

impl Tgrl {
    /// Creates a TGRL-style generator that runs `episodes` bit-flip episodes.
    #[must_use]
    pub fn new(episodes: usize, seed: u64) -> Self {
        Self {
            episodes: episodes.max(1),
            seed,
        }
    }

    /// Rareness-weighted activation score of a pattern: the sum over rare
    /// nets activated at their rare value of `1 / max(p, ε)`, so rarer nets
    /// contribute more (the rareness part of TGRL's heuristic; testability is
    /// folded into the same weight in this reproduction).
    fn score(values: &sim::NetValues, analysis: &RareNetAnalysis) -> f64 {
        analysis
            .rare_nets()
            .iter()
            .filter(|r| values.value(r.net) == r.rare_value)
            .map(|r| 1.0 / r.probability.max(1e-3))
            .sum()
    }
}

impl TestGenerator for Tgrl {
    fn name(&self) -> &'static str {
        "TGRL"
    }

    fn generate(&mut self, netlist: &Netlist, analysis: &RareNetAnalysis) -> Vec<TestPattern> {
        let width = netlist.num_scan_inputs();
        let sim = Simulator::new(netlist);
        let mut rng = StdRng::seed_from_u64(self.seed);
        if analysis.is_empty() {
            return vec![TestPattern::random(width, &mut rng)];
        }

        let config = PpoConfig {
            hidden_sizes: vec![32],
            batch_size: 128,
            ..PpoConfig::default()
        };
        let mut trainer = PpoTrainer::new(width, width, &config, self.seed);
        // The bit-flip action stream, apart from the pattern stream `rng`.
        let mut action_rng = StdRng::seed_from_u64(self.seed);
        let steps_per_episode = width.clamp(4, 48);
        let mut emitted: Vec<TestPattern> = Vec::new();

        for _ in 0..self.episodes {
            let mut pattern = TestPattern::random(width, &mut rng);
            let mut best_score = Self::score(&sim.run(&pattern), analysis);
            if best_score > 0.0 && !emitted.contains(&pattern) {
                emitted.push(pattern.clone());
            }
            for _ in 0..steps_per_episode {
                let state: Vec<f64> = pattern.iter().map(f64::from).collect();
                let (bit, log_prob, value) = trainer.policy_step(&state, &[], &mut action_rng);
                pattern.flip_bit(bit);
                let score = Self::score(&sim.run(&pattern), analysis);
                let reward = score - best_score;
                if score > best_score {
                    best_score = score;
                }
                // TGRL emits every pattern that excites rare logic, which is
                // exactly why its test sets are large.
                if score > 0.0 && !emitted.contains(&pattern) {
                    emitted.push(pattern.clone());
                }
                trainer.record(Transition {
                    state,
                    mask: vec![],
                    action: bit,
                    reward,
                    done: false,
                    log_prob,
                    value,
                });
            }
            trainer.update_if_ready();
        }
        if emitted.is_empty() {
            emitted.push(TestPattern::random(width, &mut rng));
        }
        emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;
    use netlist::synth::BenchmarkProfile;

    #[test]
    fn emits_many_patterns_that_excite_rare_nets() {
        let nl = BenchmarkProfile::c2670().scaled(25).generate(4);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 1);
        let mut gen = Tgrl::new(20, 3);
        let patterns = gen.generate(&nl, &analysis);
        assert!(!patterns.is_empty());
        let sim = Simulator::new(&nl);
        for p in patterns.iter().take(20) {
            let values = sim.run(p);
            assert!(analysis
                .rare_nets()
                .iter()
                .any(|r| values.value(r.net) == r.rare_value));
        }
    }

    #[test]
    fn test_length_is_much_larger_than_episode_count_budgeted_patterns() {
        // The defining weakness reproduced: TGRL's emitted pattern count grows
        // with search effort.
        let nl = BenchmarkProfile::c2670().scaled(25).generate(4);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 1);
        let short = Tgrl::new(5, 3).generate(&nl, &analysis).len();
        let long = Tgrl::new(40, 3).generate(&nl, &analysis).len();
        assert!(long >= short);
    }

    /// 64-bit FNV-1a over the pattern count and every pattern's bits.
    fn patterns_digest(patterns: &[TestPattern]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        };
        for byte in (patterns.len() as u64).to_le_bytes() {
            eat(byte);
        }
        for p in patterns {
            for byte in (p.width() as u64).to_le_bytes() {
                eat(byte);
            }
            p.iter().for_each(|bit| eat(u8::from(bit)));
        }
        h
    }

    #[test]
    fn emitted_patterns_are_pinned() {
        // Pins TGRL's bit-flip search, and so the `table2` TGRL row: its
        // PPO action stream, network initialization and update schedule.
        let nl = BenchmarkProfile::c2670().scaled(25).generate(4);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 1);
        let patterns = Tgrl::new(40, 3).generate(&nl, &analysis);
        assert_eq!(
            (patterns.len(), patterns_digest(&patterns)),
            (684, 0xe5b5_85a8_fad9_a2a3),
            "TGRL output moved"
        );
    }

    #[test]
    fn handles_no_rare_nets() {
        let nl = samples::c17();
        let analysis = RareNetAnalysis::exhaustive(&nl, 0.01);
        let patterns = Tgrl::new(3, 1).generate(&nl, &analysis);
        assert_eq!(patterns.len(), 1);
    }
}
