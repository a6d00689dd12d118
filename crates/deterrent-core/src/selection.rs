//! Set selection and SAT-based test-pattern generation (steps 4–5 of the
//! pipeline).

use sat::CircuitOracle;
use sim::TestPattern;

use crate::CompatibilityGraph;

/// A set of rare nets, stored as sorted indices into
/// [`CompatibilityGraph::rare_nets`].
pub type RareNetSet = Vec<usize>;

/// Picks the `k` largest *distinct* sets from the harvested episode-final
/// sets, as the paper does after training.
///
/// Sets are canonicalized (sorted, deduplicated) before comparison; ties are
/// broken deterministically by lexicographic order.
#[must_use]
pub fn select_k_largest(sets: &[Vec<usize>], k: usize) -> Vec<RareNetSet> {
    if k == 0 {
        return Vec::new();
    }
    let mut canonical: Vec<RareNetSet> = sets
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| {
            let mut c = s.clone();
            c.sort_unstable();
            c.dedup();
            c
        })
        .collect();
    canonical.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    canonical.dedup();
    // Drop sets that are strict subsets of an earlier (larger) kept set: they
    // cannot add coverage and would waste test length.
    let mut kept: Vec<RareNetSet> = Vec::new();
    for set in canonical {
        let subsumed = kept
            .iter()
            .any(|larger| set.iter().all(|x| larger.binary_search(x).is_ok()));
        if !subsumed {
            kept.push(set);
            if kept.len() == k {
                break;
            }
        }
    }
    kept
}

/// How the patterns of one [`generate_patterns_with`] call were produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PatternGenStats {
    /// Sets resolved by reusing a concrete simulation witness — the
    /// estimation run already exhibited a pattern driving the whole set, so
    /// no SAT justification was needed.
    pub witness_reused: u64,
    /// SAT justification queries spent (one per attempt, including the
    /// greedy repair retries of unsatisfiable sets).
    pub sat_queries: u64,
}

/// Generates one test pattern per selected set using the SAT oracle.
///
/// Sets whose joint activation was already *witnessed* during the
/// probability-estimation run skip SAT entirely: the witness bank retained by
/// the [`CompatibilityGraph`] re-materializes the concrete simulated pattern
/// ([`CompatibilityGraph::joint_witness_pattern`]). Pairwise compatibility
/// does not always imply joint satisfiability, so a set whose full
/// conjunction is UNSAT is repaired by greedily dropping its last members
/// until the remainder is satisfiable (singletons of rare nets are always
/// satisfiable by construction of the rare-net analysis, because the rare
/// value was observed in simulation). Duplicate patterns are removed while
/// preserving order.
#[must_use]
pub fn generate_patterns_with(
    oracle: &mut CircuitOracle<'_>,
    graph: &CompatibilityGraph,
    sets: &[RareNetSet],
) -> (Vec<TestPattern>, PatternGenStats) {
    let mut stats = PatternGenStats::default();
    let mut patterns: Vec<TestPattern> = Vec::with_capacity(sets.len());
    let push_unique = |patterns: &mut Vec<TestPattern>, pattern: TestPattern| {
        if !patterns.contains(&pattern) {
            patterns.push(pattern);
        }
    };
    for set in sets {
        if let Some(pattern) = graph.joint_witness_pattern(set) {
            stats.witness_reused += 1;
            push_unique(&mut patterns, pattern);
            continue;
        }
        let mut working = set.clone();
        while !working.is_empty() {
            let targets = graph.targets(&working);
            stats.sat_queries += 1;
            if let Some(bits) = oracle.justify(&targets) {
                push_unique(&mut patterns, TestPattern::new(bits));
                break;
            }
            working.pop();
        }
    }
    (patterns, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::synth::BenchmarkProfile;
    use sim::rare::RareNetAnalysis;
    use sim::Simulator;

    #[test]
    fn k_largest_dedupes_and_sorts_by_size() {
        let sets = vec![
            vec![3, 1],
            vec![1, 3], // duplicate of the first after canonicalization
            vec![5, 2, 9],
            vec![2], // subset of {2,5,9}
            vec![7, 8, 4, 6],
            vec![],
        ];
        let picked = select_k_largest(&sets, 3);
        assert_eq!(picked.len(), 3);
        assert_eq!(picked[0], vec![4, 6, 7, 8]);
        assert_eq!(picked[1], vec![2, 5, 9]);
        assert_eq!(picked[2], vec![1, 3]);
        assert!(
            select_k_largest(&sets, 0).is_empty(),
            "k = 0 selects nothing"
        );
    }

    #[test]
    fn k_larger_than_available_returns_everything_distinct() {
        let sets = vec![vec![1], vec![2], vec![1]];
        let picked = select_k_largest(&sets, 10);
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn subsets_are_subsumed() {
        let sets = vec![vec![1, 2, 3], vec![2, 3], vec![3]];
        let picked = select_k_largest(&sets, 10);
        assert_eq!(picked, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn generated_patterns_activate_their_sets() {
        let nl = BenchmarkProfile::c2670().scaled(20).generate(14);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 3);
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        if graph.len() < 2 {
            return; // nothing meaningful to test on this seed
        }
        // Build greedy compatible sets as stand-ins for harvested RL sets.
        let mut sets = Vec::new();
        for start in 0..graph.len().min(6) {
            let mut set = vec![start];
            for j in 0..graph.len() {
                if graph.compatible_with_all(&set, j) {
                    set.push(j);
                }
            }
            sets.push(set);
        }
        let selected = select_k_largest(&sets, 4);
        let mut oracle = CircuitOracle::new(&nl);
        let patterns = generate_patterns_with(&mut oracle, &graph, &selected).0;
        assert!(!patterns.is_empty());
        let sim = Simulator::new(&nl);
        // Every generated pattern must activate at least one rare net at its
        // rare value (it was produced by justifying such targets).
        for p in &patterns {
            let values = sim.run(p);
            let hits = graph
                .rare_nets()
                .iter()
                .filter(|r| values.value(r.net) == r.rare_value)
                .count();
            assert!(hits > 0, "pattern {p} activates no rare net");
        }
    }

    #[test]
    fn witnessed_sets_skip_sat_and_their_patterns_activate() {
        let nl = BenchmarkProfile::c2670().scaled(20).generate(7);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 8192, 5);
        let graph = CompatibilityGraph::build(&nl, &analysis, 1);
        if graph.len() < 2 {
            return;
        }
        // Sim-witnessed pairs exist on this profile (see the funnel tests);
        // each such pair must be generated without any SAT query.
        let mut witnessed_sets = Vec::new();
        for i in 0..graph.len() {
            for j in (i + 1)..graph.len() {
                if graph.joint_witness_pattern(&[i, j]).is_some() {
                    witnessed_sets.push(vec![i, j]);
                }
            }
        }
        assert!(
            !witnessed_sets.is_empty(),
            "profile should have sim-witnessed pairs"
        );
        let mut oracle = CircuitOracle::new(&nl);
        let queries_before = oracle.num_queries();
        let (patterns, stats) = generate_patterns_with(&mut oracle, &graph, &witnessed_sets);
        assert_eq!(stats.witness_reused, witnessed_sets.len() as u64);
        assert_eq!(stats.sat_queries, 0);
        assert_eq!(oracle.num_queries(), queries_before);
        // Reused witnesses are real activating patterns, not just claims
        // (patterns may be fewer than sets after deduplication).
        assert!(!patterns.is_empty());
        let sim = Simulator::new(&nl);
        for set in &witnessed_sets {
            let pattern = graph.joint_witness_pattern(set).unwrap();
            assert!(
                sim.activates(&pattern, &graph.targets(set)),
                "witness pattern must drive its whole set"
            );
        }
    }

    #[test]
    fn duplicate_patterns_are_removed() {
        let nl = BenchmarkProfile::c2670().scaled(20).generate(14);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 3);
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        if graph.is_empty() {
            return;
        }
        let mut oracle = CircuitOracle::new(&nl);
        let sets = vec![vec![0], vec![0]];
        let patterns = generate_patterns_with(&mut oracle, &graph, &sets).0;
        assert_eq!(patterns.len(), 1);
    }
}
