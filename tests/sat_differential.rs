//! Differential-testing harness guarding the raw-speed SAT core.
//!
//! Every generated instance is solved two ways — the default configuration
//! and a stress configuration with pathologically tight restart/deletion
//! knobs (restart every handful of conflicts, reduce the clause DB from a
//! floor of four) — and cross-checked against a brute-force model
//! enumerator (instances stay ≤ 2^12 assignments, well
//! inside enumeration range and inside the debug-build per-decision
//! heap-vs-linear-scan assert budget). The checks:
//!
//! - both solver configurations report the same verdict as brute force,
//!   both on the initial clause set and after an incremental clause add;
//! - every SAT model actually satisfies the formula and the assumptions;
//! - after UNSAT under assumptions, each solver's reported unsat-assumption
//!   subset draws only from the assumption set and is itself UNSAT in
//!   conjunction with the formula (verified by brute force);
//! - every literal `Solver::probe` reports implied holds in every model of
//!   the formula under the probed assumptions, a refuted probe means the
//!   assumptions really are UNSAT, and a probe leaves the solver's verdicts
//!   untouched;
//! - on random gate DAGs, `CircuitOracle::justify_within` — deciding only
//!   the scan inputs of a target pair's union support — agrees with a
//!   brute-force simulation of every input pattern, and a returned pattern
//!   drives both targets whatever the bits outside that support are;
//! - a failing case dumps a `dimacs::write_repro` file to the temp dir and
//!   names it in the failure message, so the instance replays offline.
//!
//! Seeds are deterministic (the proptest stub derives its RNG from the test
//! name), so a failure reproduces by rerunning the test.

use std::fmt::Write as _;

use deterrent_repro::netlist::{self, GateKind, NetId, Netlist, NetlistBuilder};
use deterrent_repro::sat::{
    dimacs, CircuitOracle, Cnf, Lit, SolveResult, Solver, SolverConfig, Var,
};
use deterrent_repro::sim::{Simulator, TestPattern};
use proptest::prelude::*;

/// Restarts every few conflicts and reduces the learned DB from a floor of
/// four clauses — deliberately pathological so deletion, watch/reason repair,
/// and Luby scheduling fire constantly even on tiny instances.
fn stress_config() -> SolverConfig {
    SolverConfig {
        restart_unit: 2,
        learnt_cap_min: 4,
        learnt_cap_growth_percent: 105,
        learnt_cap_origin_divisor: 0,
    }
}

/// Brute-force satisfiability of `cnf ∧ assumptions` by total enumeration.
fn brute_force_sat(cnf: &Cnf, assumptions: &[Lit]) -> bool {
    let n = cnf.num_vars();
    assert!(n <= 20, "instance too large to enumerate");
    (0u32..1 << n).any(|mask| {
        let assignment: Vec<bool> = (0..n).map(|v| mask >> v & 1 == 1).collect();
        assumptions
            .iter()
            .all(|l| assignment[l.var().index()] == l.polarity())
            && cnf.eval(&assignment) == Some(true)
    })
}

/// Dumps the instance as a DIMACS repro file and returns a description of
/// where it went, for inclusion in the failure message.
fn dump_repro(cnf: &Cnf, assumptions: &[Lit], tag: &str) -> String {
    let path =
        std::env::temp_dir().join(format!("sat-differential-{}-{tag}.cnf", std::process::id()));
    match std::fs::write(&path, dimacs::write_repro(cnf, assumptions)) {
        Ok(()) => format!("repro dumped to {}", path.display()),
        Err(e) => format!("repro dump failed: {e}"),
    }
}

/// One differential check of `cnf ∧ assumptions` on a live solver, against
/// brute force. Returns an error description on divergence.
fn check_solver(
    name: &str,
    solver: &mut Solver,
    cnf: &Cnf,
    assumptions: &[Lit],
) -> Result<(), String> {
    let expected = brute_force_sat(cnf, assumptions);
    let result = solver.solve(assumptions);
    match &result {
        SolveResult::Sat(model) => {
            if !expected {
                return Err(format!("{name}: SAT but brute force says UNSAT"));
            }
            if cnf.eval(model) != Some(true) {
                return Err(format!("{name}: model does not satisfy the formula"));
            }
            if let Some(l) = assumptions
                .iter()
                .find(|l| model[l.var().index()] != l.polarity())
            {
                return Err(format!("{name}: model violates assumption {l}"));
            }
        }
        SolveResult::Unsat => {
            if expected {
                return Err(format!("{name}: UNSAT but brute force says SAT"));
            }
            let subset = solver.unsat_assumptions().to_vec();
            if let Some(l) = subset.iter().find(|l| !assumptions.contains(l)) {
                return Err(format!("{name}: unsat subset contains non-assumption {l}"));
            }
            if brute_force_sat(cnf, &subset) {
                let mut msg = format!("{name}: reported unsat-assumption subset [");
                for l in &subset {
                    let _ = write!(msg, "{} ", l.to_dimacs());
                }
                msg.push_str("] is satisfiable with the formula");
                return Err(msg);
            }
        }
    }
    Ok(())
}

/// Clause spec → concrete clause over `num_vars` variables.
fn build_clause(spec: &[(prop::sample::Index, bool)], num_vars: usize) -> Vec<Lit> {
    spec.iter()
        .map(|(idx, pol)| Var(idx.index(num_vars) as u32).lit(*pol))
        .collect()
}

/// Gate kinds the random DAGs draw from (sources included, so constant
/// cones and cones with an empty support occur).
const DAG_KINDS: [GateKind; 10] = [
    GateKind::Buf,
    GateKind::Not,
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Const0,
    GateKind::Const1,
];

/// A random combinational DAG over `inputs` primary inputs and `flops` scan
/// flip-flops: each gate spec picks a kind and fanins among earlier nets.
fn random_dag(
    inputs: usize,
    flops: usize,
    gate_specs: &[(prop::sample::Index, Vec<prop::sample::Index>)],
) -> Netlist {
    let mut b = NetlistBuilder::new("dag");
    let mut pool: Vec<NetId> = (0..inputs).map(|i| b.input(format!("i{i}"))).collect();
    let flop_ids: Vec<NetId> = (0..flops)
        .map(|f| b.dff(format!("q{f}"), pool[0]))
        .collect();
    pool.extend(&flop_ids);
    for (g, (kind, fanin)) in gate_specs.iter().enumerate() {
        let kind = DAG_KINDS[kind.index(DAG_KINDS.len())];
        let mut fanin: Vec<NetId> = fanin.iter().map(|f| pool[f.index(pool.len())]).collect();
        fanin.sort_unstable();
        fanin.dedup();
        fanin.truncate(kind.max_fanin());
        if let Ok(id) = b.gate(kind, format!("g{g}"), &fanin) {
            pool.push(id);
        }
    }
    // Close the flops' next-state loop onto the last net.
    let last = *pool.last().expect("non-empty pool");
    for &ff in &flop_ids {
        b.set_dff_data(ff, last).expect("flop data");
    }
    b.output(last);
    b.build().expect("valid DAG")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1100))]
    /// The main differential sweep: ≥1000 random instances, each solved in
    /// two increments (initial clause set, then an incremental add) under a
    /// random assumption set, on both solver configurations.
    #[test]
    fn solver_configurations_agree_with_brute_force(
        num_vars in 3usize..=10,
        clause_specs in prop::collection::vec(
            prop::collection::vec((any::<prop::sample::Index>(), any::<bool>()), 1..4),
            1..37,
        ),
        assumption_specs in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<bool>()),
            0..5,
        ),
        split in any::<prop::sample::Index>(),
    ) {
        let clauses: Vec<Vec<Lit>> = clause_specs
            .iter()
            .map(|spec| build_clause(spec, num_vars))
            .collect();
        let assumptions: Vec<Lit> = assumption_specs
            .iter()
            .map(|(idx, pol)| Var(idx.index(num_vars) as u32).lit(*pol))
            .collect();
        let split = split.index(clauses.len() + 1);

        let mut phase1 = Cnf::with_vars(num_vars);
        for c in &clauses[..split] {
            phase1.add_clause(c.iter().copied());
        }
        let mut full = Cnf::with_vars(num_vars);
        for c in &clauses {
            full.add_clause(c.iter().copied());
        }

        let configs = [("default", SolverConfig::default()), ("stress", stress_config())];
        let mut verdicts: Vec<bool> = Vec::new();
        for (name, config) in configs {
            let mut solver = Solver::from_cnf_with_config(&phase1, config);
            // Instances where phase 1 mentions fewer variables than the
            // assumptions need are still legal: reserve the full range.
            while solver.num_vars() < num_vars {
                solver.new_var();
            }
            // Phase 1: no assumptions.
            if let Err(e) = check_solver(name, &mut solver, &phase1, &[]) {
                let repro = dump_repro(&phase1, &[], &format!("{name}-phase1"));
                prop_assert!(false, "{e} ({repro})");
            }
            // Phase 2: incremental clause add, then solve under assumptions.
            for c in &clauses[split..] {
                solver.add_clause(c.iter().copied());
            }
            if let Err(e) = check_solver(name, &mut solver, &full, &assumptions) {
                let repro = dump_repro(&full, &assumptions, &format!("{name}-phase2"));
                prop_assert!(false, "{e} ({repro})");
            }
            verdicts.push(solver.solve(&assumptions).is_sat());
        }
        // All configurations must agree with each other (they already agree
        // with brute force individually; this pins the pairwise property the
        // harness advertises).
        prop_assert!(
            verdicts.windows(2).all(|w| w[0] == w[1]),
            "configurations disagree: {verdicts:?}"
        );
    }

    /// Unit-propagation probes against brute force, on a solver that has
    /// already searched (so learned clauses take part in the propagation).
    #[test]
    fn probe_implications_hold_in_every_model(
        num_vars in 3usize..=10,
        clause_specs in prop::collection::vec(
            prop::collection::vec((any::<prop::sample::Index>(), any::<bool>()), 1..4),
            1..37,
        ),
        assumption_specs in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<bool>()),
            0..4,
        ),
    ) {
        let mut cnf = Cnf::with_vars(num_vars);
        for spec in &clause_specs {
            cnf.add_clause(build_clause(spec, num_vars));
        }
        let assumptions: Vec<Lit> = assumption_specs
            .iter()
            .map(|(idx, pol)| Var(idx.index(num_vars) as u32).lit(*pol))
            .collect();
        let expected = brute_force_sat(&cnf, &assumptions);
        for (name, config) in [("default", SolverConfig::default()), ("stress", stress_config())] {
            let mut solver = Solver::from_cnf_with_config(&cnf, config);
            solver.reserve_vars(num_vars);
            let _ = solver.solve(&[]);
            match solver.probe(&assumptions) {
                None => {
                    if expected {
                        let repro = dump_repro(&cnf, &assumptions, &format!("{name}-probe"));
                        prop_assert!(false, "{name}: probe refuted SAT assumptions ({repro})");
                    }
                }
                Some(implied) => {
                    for &l in &implied {
                        let mut refuting = assumptions.clone();
                        refuting.push(!l);
                        if brute_force_sat(&cnf, &refuting) {
                            let repro = dump_repro(&cnf, &assumptions, &format!("{name}-probe"));
                            prop_assert!(false, "{name}: implied {l} fails in a model ({repro})");
                        }
                    }
                }
            }
            prop_assert_eq!(solver.solve(&assumptions).is_sat(), expected, "{} after probe", name);
        }
    }

    /// `justify_within` over a pair's union input support against brute
    /// force, on both solver configurations. Each oracle answers every pair
    /// of the case in turn, followed by a plain `justify` of the same pair,
    /// so decide-restricted and full searches share learned clauses and the
    /// decision heap (whose every pick the debug build checks).
    #[test]
    fn justify_within_union_support_matches_brute_force(
        inputs in 1usize..=6,
        flops in 0usize..=2,
        gate_specs in prop::collection::vec(
            (
                any::<prop::sample::Index>(),
                prop::collection::vec(any::<prop::sample::Index>(), 1..4),
            ),
            1..24,
        ),
        pair_specs in prop::collection::vec(
            (
                any::<prop::sample::Index>(),
                any::<bool>(),
                any::<prop::sample::Index>(),
                any::<bool>(),
            ),
            1..6,
        ),
    ) {
        let nl = random_dag(inputs, flops, &gate_specs);
        let nets: Vec<NetId> = nl.iter().map(|(id, _)| id).collect();
        let width = nl.num_scan_inputs();
        let sim = Simulator::new(&nl);
        let pattern = |mask: u32| TestPattern::new((0..width).map(|p| mask >> p & 1 == 1).collect());
        let every_pattern: Vec<TestPattern> = (0..1u32 << width).map(pattern).collect();
        let pairs: Vec<[(NetId, bool); 2]> = pair_specs
            .iter()
            .map(|(a, va, b, vb)| [(nets[a.index(nets.len())], *va), (nets[b.index(nets.len())], *vb)])
            .collect();
        for (name, config) in [("default", SolverConfig::default()), ("stress", stress_config())] {
            let mut oracle = CircuitOracle::lazy(&nl, config);
            for targets in &pairs {
                let expected = every_pattern.iter().any(|p| sim.activates(p, targets));
                let support = netlist::input_supports(&nl, &[targets[0].0, targets[1].0])
                    .union_ones(0, 1);
                let got = oracle.justify_within(targets, &support);
                prop_assert_eq!(got.is_some(), expected, "{}: verdict on {:?}", name, targets);
                if let Some(bits) = got {
                    for fill in [false, true] {
                        let filled: Vec<bool> = (0..width)
                            .map(|p| if support.contains(&p) { bits[p] } else { fill })
                            .collect();
                        prop_assert!(
                            sim.activates(&TestPattern::new(filled), targets),
                            "{}: support bits of {:?} miss the targets with fill {}",
                            name,
                            targets,
                            fill
                        );
                    }
                }
                prop_assert_eq!(
                    oracle.justify(targets).is_some(),
                    expected,
                    "{}: full search after justify_within on {:?}",
                    name,
                    targets
                );
            }
        }
    }

    /// DIMACS round-trip: parse(write(cnf)) reproduces the formula, and the
    /// repro format round-trips the assumption set alongside it.
    #[test]
    fn dimacs_round_trips(
        num_vars in 1usize..=12,
        clause_specs in prop::collection::vec(
            prop::collection::vec((any::<prop::sample::Index>(), any::<bool>()), 1..5),
            0..25,
        ),
        assumption_specs in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<bool>()),
            0..6,
        ),
    ) {
        let mut cnf = Cnf::with_vars(num_vars);
        for spec in &clause_specs {
            cnf.add_clause(build_clause(spec, num_vars));
        }
        let assumptions: Vec<Lit> = assumption_specs
            .iter()
            .map(|(idx, pol)| Var(idx.index(num_vars) as u32).lit(*pol))
            .collect();

        let reparsed = dimacs::parse(&dimacs::write(&cnf)).expect("writer output must parse");
        prop_assert_eq!(&reparsed, &cnf);

        let (cnf2, assumptions2) =
            dimacs::parse_repro(&dimacs::write_repro(&cnf, &assumptions))
                .expect("repro output must parse");
        prop_assert_eq!(&cnf2, &cnf);
        prop_assert_eq!(&assumptions2, &assumptions);
    }
}

/// The solver-level counters visible through the public API behave sanely
/// under the stress configuration: restarts and reductions actually happen
/// across a batch of instances, and the live learned count stays under the
/// (growing) cap.
#[test]
fn stress_configuration_restarts_and_reduces() {
    // A pigeonhole instance (n+1 pigeons, n holes) is UNSAT and forces a
    // conflict-rich resolution search — ideal for exercising restarts and
    // deletion deterministically.
    let pigeons = 6u32;
    let holes = pigeons - 1;
    let mut cnf = Cnf::with_vars((pigeons * holes) as usize);
    let var = |p: u32, h: u32| Var(p * holes + h);
    for p in 0..pigeons {
        cnf.add_clause((0..holes).map(|h| var(p, h).positive()));
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                cnf.add_clause([var(p1, h).negative(), var(p2, h).negative()]);
            }
        }
    }
    let mut solver = Solver::from_cnf_with_config(&cnf, stress_config());
    assert_eq!(solver.solve(&[]), SolveResult::Unsat);
    let stats = solver.stats();
    assert!(stats.restarts > 0, "Luby unit 2 must restart: {stats:?}");
    assert!(stats.reduces > 0, "cap floor 4 must reduce: {stats:?}");
    assert!(stats.deleted_clauses > 0);
    // Deletion must actually bound the live set: the high-water mark stays
    // below the total ever learned. (The live count itself may legitimately
    // exceed the tiny cap when the survivors are binary or locked — those
    // are never deletable.)
    assert!(stats.peak_learnts < stats.learned_clauses);
    assert!(stats.peak_learnts >= solver.live_learnts());
}
