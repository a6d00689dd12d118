//! Repository-level property-based tests spanning multiple crates.

use deterrent_repro::deterrent_core::{CompatStrategy, CompatibilityGraph};
use deterrent_repro::exec::Exec;
use deterrent_repro::netlist::synth::BenchmarkProfile;
use deterrent_repro::netlist::{bench, samples, GateKind, InputSupports, Netlist, NetlistBuilder};
use deterrent_repro::sat::{CircuitOracle, Cnf, Lit, Solver, Var};
use deterrent_repro::sim::rare::RareNetAnalysis;
use deterrent_repro::sim::{ConeSimulator, Simulator, TestPattern};
use proptest::prelude::*;

/// Builds a small random combinational netlist from a proptest strategy.
fn arbitrary_netlist() -> impl Strategy<Value = deterrent_repro::netlist::Netlist> {
    (2usize..6, 4usize..40, any::<u64>()).prop_map(|(inputs, gates, seed)| {
        let profile = BenchmarkProfile {
            name: format!("prop_{inputs}_{gates}"),
            num_inputs: inputs.max(2),
            num_outputs: 2,
            num_flip_flops: 0,
            num_gates: gates,
            rare_cones: 2,
            rare_cone_width: (3, 4),
        };
        profile.generate(seed)
    })
}

/// One of the small hand-written sample designs the funnel property test
/// runs against.
fn funnel_sample_netlist() -> impl Strategy<Value = Netlist> {
    (0usize..4).prop_map(|choice| match choice {
        0 => samples::c17(),
        1 => samples::majority5(),
        2 => samples::rare_chain(5),
        _ => samples::rare_chain(7),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The packed 64-way simulator always agrees with the scalar simulator.
    #[test]
    fn packed_simulation_matches_scalar(nl in arbitrary_netlist(), seed in any::<u64>()) {
        let sim = Simulator::new(&nl);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let patterns = TestPattern::random_batch(nl.num_scan_inputs(), 16, &mut rng);
        let packed = sim.run_batch(&patterns);
        for (i, p) in patterns.iter().enumerate() {
            let scalar = sim.run(p);
            for (id, _) in nl.iter() {
                prop_assert_eq!(packed.value(id, i), scalar.value(id));
            }
        }
    }

    /// Netlists survive a .bench round trip structurally intact.
    #[test]
    fn bench_round_trip(nl in arbitrary_netlist()) {
        let text = bench::write(&nl);
        let back = bench::parse(nl.name(), &text).expect("reparse");
        prop_assert_eq!(back.num_gates(), nl.num_gates());
        prop_assert_eq!(back.num_outputs(), nl.num_outputs());
        prop_assert_eq!(back.depth(), nl.depth());
    }

    /// Any pattern returned by the SAT oracle really does justify the
    /// requested targets when simulated.
    #[test]
    fn oracle_patterns_verify_in_simulation(nl in arbitrary_netlist(), idx in any::<prop::sample::Index>(), value in any::<bool>()) {
        let internal = nl.internal_nets();
        prop_assume!(!internal.is_empty());
        let target = internal[idx.index(internal.len())];
        let mut oracle = CircuitOracle::new(&nl);
        if let Some(bits) = oracle.justify(&[(target, value)]) {
            let sim = Simulator::new(&nl);
            let pattern = TestPattern::new(bits);
            prop_assert_eq!(sim.run(&pattern).value(target), value);
        }
    }

    /// The CDCL solver agrees with brute force on small random CNFs.
    #[test]
    fn solver_agrees_with_brute_force(clauses in prop::collection::vec(prop::collection::vec((0u32..8, any::<bool>()), 1..4), 1..24)) {
        let mut cnf = Cnf::with_vars(8);
        for clause in &clauses {
            cnf.add_clause(clause.iter().map(|&(v, pol)| Lit::new(Var(v), pol)));
        }
        let mut solver = Solver::from_cnf(&cnf);
        let solver_sat = solver.solve(&[]).is_sat();
        let brute_sat = (0u32..(1 << 8)).any(|code| {
            let assignment: Vec<bool> = (0..8).map(|i| (code >> i) & 1 == 1).collect();
            cnf.eval(&assignment) == Some(true)
        });
        prop_assert_eq!(solver_sat, brute_sat);
    }

    /// Gate evaluation is consistent between the scalar and packed paths for
    /// arbitrary fanin vectors.
    #[test]
    fn gate_eval_packed_consistency(bits in prop::collection::vec(any::<bool>(), 1..6)) {
        for kind in [GateKind::And, GateKind::Nand, GateKind::Or, GateKind::Nor, GateKind::Xor, GateKind::Xnor] {
            let scalar = kind.eval(&bits);
            let words: Vec<u64> = bits.iter().map(|&b| if b { 1 } else { 0 }).collect();
            let packed = kind.eval_packed(&words) & 1 == 1;
            prop_assert_eq!(scalar, packed, "{}", kind);
        }
    }

    /// Every SAT-free verdict of the compatibility funnel agrees with
    /// full-netlist SAT ground truth: sim witnesses only claim compatible
    /// pairs, disjoint supports reduce pairs to their singletons, exhaustive
    /// cone enumeration is exact, and the assembled funnel graph is
    /// bit-identical to the all-SAT graph.
    #[test]
    fn funnel_verdicts_agree_with_sat_ground_truth(
        nl in funnel_sample_netlist(),
        theta_pct in 8usize..45,
        patterns_exp in 6usize..11,
        seed in any::<u64>(),
    ) {
        let theta = theta_pct as f64 / 100.0;
        let analysis = RareNetAnalysis::estimate(&nl, theta, 1 << patterns_exp, seed);
        prop_assume!(!analysis.is_empty());

        let mut truth_oracle = CircuitOracle::new(&nl);
        let bank = analysis.witnesses().expect("estimate retains witnesses");
        let targets = analysis.targets();
        let roots: Vec<_> = targets.iter().map(|&(net, _)| net).collect();
        let supports = InputSupports::compute(&nl, &roots);
        let mut cone_sim = ConeSimulator::new(&nl, 10);

        for i in 0..targets.len() {
            for j in (i + 1)..targets.len() {
                let pair = [targets[i], targets[j]];
                let truth = truth_oracle.is_compatible(&pair);
                // Tier 1: a joint witness is a constructive compatibility proof.
                if bank.pair_witnessed(i, j) {
                    prop_assert!(truth, "witnessed pair ({i},{j}) must be SAT-compatible");
                }
                // Tier 2a: disjoint supports reduce the pair to its singletons.
                if supports.disjoint(i, j) {
                    let both = truth_oracle.is_compatible(&pair[..1])
                        && truth_oracle.is_compatible(&pair[1..]);
                    prop_assert_eq!(truth, both, "disjoint pair ({}, {})", i, j);
                }
                // Tier 2b: bounded exhaustive cone enumeration is exact.
                if let Some(verdict) = cone_sim.decide(&pair) {
                    prop_assert_eq!(verdict, truth, "enumerated pair ({}, {})", i, j);
                }
            }
        }

        // End to end: the funnel graph equals the all-SAT graph bit for bit.
        let all_sat =
            CompatibilityGraph::build_on(&nl, &analysis, CompatStrategy::AllSat, &Exec::new(1));
        let funnel = CompatibilityGraph::build(&nl, &analysis, 1);
        prop_assert_eq!(funnel.adjacency(), all_sat.adjacency());
        prop_assert_eq!(funnel.rare_nets(), all_sat.rare_nets());
    }

    /// Adding gates through the builder never produces invalid netlists.
    #[test]
    fn builder_validation_is_total(arity in 1usize..5, count in 1usize..20, seed in any::<u64>()) {
        let mut b = NetlistBuilder::new("prop");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pool = vec![b.input("a"), b.input("c")];
        for i in 0..count {
            let kind = [GateKind::And, GateKind::Or, GateKind::Nand, GateKind::Xor][i % 4];
            let fanin: Vec<_> = (0..arity)
                .map(|_| pool[rand::Rng::gen_range(&mut rng, 0..pool.len())])
                .collect();
            let mut dedup = fanin.clone();
            dedup.dedup();
            if let Ok(id) = b.gate(kind, format!("g{i}"), &dedup) {
                pool.push(id);
            }
        }
        let last = *pool.last().expect("non-empty");
        b.output(last);
        let nl = b.build().expect("builder-constructed netlists are valid");
        prop_assert!(nl.num_gates() >= 3);
    }
}

use rand::SeedableRng;
