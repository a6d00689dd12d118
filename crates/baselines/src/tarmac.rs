//! TARMAC: trigger activation by repeated maximal-clique sampling (Lyu &
//! Mishra, IEEE TCAD 2021).

use netlist::Netlist;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sat::CircuitOracle;
use sim::rare::RareNetAnalysis;
use sim::TestPattern;

use crate::TestGenerator;

/// TARMAC transforms test generation into a clique-cover problem on the
/// rare-net *compatibility graph* and repeatedly samples random maximal
/// cliques, generating one SAT-justified pattern per clique.
///
/// Because cliques are sampled randomly (rather than learned), covering all
/// trigger combinations needs many samples — the source of TARMAC's large
/// test length that DETERRENT improves on.
#[derive(Debug, Clone)]
pub struct Tarmac {
    num_cliques: usize,
    seed: u64,
}

impl Tarmac {
    /// Creates a TARMAC generator that samples `num_cliques` maximal cliques.
    #[must_use]
    pub fn new(num_cliques: usize, seed: u64) -> Self {
        Self {
            num_cliques: num_cliques.max(1),
            seed,
        }
    }
}

impl TestGenerator for Tarmac {
    fn name(&self) -> &'static str {
        "TARMAC"
    }

    fn generate(&mut self, netlist: &Netlist, analysis: &RareNetAnalysis) -> Vec<TestPattern> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut oracle = CircuitOracle::new(netlist);
        let rare: Vec<_> = analysis
            .rare_nets()
            .iter()
            .filter(|r| oracle.is_compatible(&[(r.net, r.rare_value)]))
            .copied()
            .collect();
        let width = netlist.num_scan_inputs();
        if rare.is_empty() {
            return vec![TestPattern::random(width, &mut rng)];
        }

        // Pairwise compatibility adjacency, computed lazily per queried pair
        // and memoized (TARMAC recomputes compatibility on demand during
        // clique growth).
        let n = rare.len();
        let mut memo: Vec<Option<bool>> = vec![None; n * n];
        let compatible =
            |oracle: &mut CircuitOracle<'_>, memo: &mut Vec<Option<bool>>, i: usize, j: usize| {
                if i == j {
                    return false;
                }
                let key = i * n + j;
                if let Some(v) = memo[key] {
                    return v;
                }
                let v = oracle.is_compatible(&[
                    (rare[i].net, rare[i].rare_value),
                    (rare[j].net, rare[j].rare_value),
                ]);
                memo[key] = Some(v);
                memo[j * n + i] = Some(v);
                v
            };

        let mut patterns = Vec::with_capacity(self.num_cliques);
        for _ in 0..self.num_cliques {
            // Grow a random maximal clique.
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut rng);
            let mut clique: Vec<usize> = vec![order[0]];
            for &cand in &order[1..] {
                if clique
                    .iter()
                    .all(|&m| compatible(&mut oracle, &mut memo, m, cand))
                {
                    clique.push(cand);
                }
            }
            // Justify the clique; shrink greedily if joint justification fails
            // (pairwise compatibility does not imply joint satisfiability).
            loop {
                let targets: Vec<_> = clique
                    .iter()
                    .map(|&i| (rare[i].net, rare[i].rare_value))
                    .collect();
                if let Some(bits) = oracle.justify(&targets) {
                    let pattern = TestPattern::new(bits);
                    if !patterns.contains(&pattern) {
                        patterns.push(pattern);
                    }
                    break;
                }
                if clique.pop().is_none() {
                    break;
                }
            }
        }
        if patterns.is_empty() {
            patterns.push(TestPattern::random(width, &mut rng));
        }
        patterns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;
    use netlist::synth::BenchmarkProfile;
    use sim::Simulator;

    #[test]
    fn cliques_translate_into_activating_patterns() {
        let nl = BenchmarkProfile::c2670().scaled(25).generate(4);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 1);
        let mut gen = Tarmac::new(8, 5);
        let patterns = gen.generate(&nl, &analysis);
        assert!(!patterns.is_empty());
        assert!(patterns.len() <= 8);
        let sim = Simulator::new(&nl);
        for p in &patterns {
            let values = sim.run(p);
            assert!(
                analysis
                    .rare_nets()
                    .iter()
                    .any(|r| values.value(r.net) == r.rare_value),
                "TARMAC pattern must excite at least one rare net"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let nl = BenchmarkProfile::c2670().scaled(30).generate(4);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 1024, 1);
        let a = Tarmac::new(4, 11).generate(&nl, &analysis);
        let b = Tarmac::new(4, 11).generate(&nl, &analysis);
        assert_eq!(a, b);
    }

    #[test]
    fn handles_designs_without_rare_nets() {
        let nl = samples::c17();
        let analysis = RareNetAnalysis::exhaustive(&nl, 0.01);
        let patterns = Tarmac::new(4, 2).generate(&nl, &analysis);
        assert_eq!(patterns.len(), 1);
    }
}
