//! Tseitin encoding of gate-level netlists into CNF.
//!
//! Primary inputs and scan flip-flop outputs are free variables; every
//! combinational gate contributes the standard Tseitin clauses relating its
//! output variable to its fanin variables. Flip-flop *data* inputs impose no
//! constraint on the flop output (full-scan semantics: the flop can be loaded
//! with any value through the scan chain).

use netlist::{GateKind, NetId, Netlist};

use crate::types::{Cnf, Lit, Var};

/// Emits the Tseitin clauses of every combinational gate in `nets` into
/// `cnf`, mapping nets to variables through `net_vars` (fanins must be
/// mapped too). Returns the number of gates encoded.
///
/// [`crate::CircuitOracle::new`] encodes every net with the identity map
/// (net `i` is variable `i`, auxiliaries after the nets);
/// [`crate::CircuitOracle::lazy`] encodes one cone at a time.
pub(crate) fn encode_nets_into(
    netlist: &Netlist,
    nets: &[NetId],
    net_vars: &[u32],
    cnf: &mut Cnf,
) -> usize {
    let mut encoded = 0usize;
    for &id in nets {
        let gate = netlist.gate(id);
        if matches!(gate.kind, GateKind::Input | GateKind::Dff) {
            continue;
        }
        let y = Var(net_vars[id.index()]);
        let fanin: Vec<Var> = gate
            .fanin
            .iter()
            .map(|f| Var(net_vars[f.index()]))
            .collect();
        encode_gate(gate.kind, y, &fanin, cnf);
        encoded += 1;
    }
    encoded
}

/// Emits the Tseitin clauses of one gate into `cnf`; XOR/XNOR chains
/// allocate their auxiliary variables from `cnf`.
fn encode_gate(kind: GateKind, y: Var, fanin: &[Var], cnf: &mut Cnf) {
    match kind {
        GateKind::Input | GateKind::Dff => {}
        GateKind::Const0 => cnf.add_clause([y.negative()]),
        GateKind::Const1 => cnf.add_clause([y.positive()]),
        GateKind::Buf => encode_equal(cnf, y, fanin[0], false),
        GateKind::Not => encode_equal(cnf, y, fanin[0], true),
        GateKind::And => encode_and(cnf, y, fanin, false),
        GateKind::Nand => encode_and(cnf, y, fanin, true),
        GateKind::Or => encode_or(cnf, y, fanin, false),
        GateKind::Nor => encode_or(cnf, y, fanin, true),
        GateKind::Xor => encode_xor(cnf, y, fanin, false),
        GateKind::Xnor => encode_xor(cnf, y, fanin, true),
    }
}

fn encode_equal(cnf: &mut Cnf, y: Var, a: Var, invert: bool) {
    // y == a (or y == ¬a when invert).
    cnf.add_clause([y.negative(), a.lit(!invert)]);
    cnf.add_clause([y.positive(), a.lit(invert)]);
}

fn encode_and(cnf: &mut Cnf, y: Var, fanin: &[Var], invert: bool) {
    // z = AND(fanin); y = z or ¬z depending on invert.
    // (¬z ∨ a_i) for each i, and (z ∨ ¬a_1 ∨ … ∨ ¬a_k).
    let y_pos = y.lit(!invert); // literal that is true when z is true
    let y_neg = y.lit(invert);
    for &a in fanin {
        cnf.add_clause([y_neg, a.positive()]);
    }
    let mut long: Vec<Lit> = vec![y_pos];
    long.extend(fanin.iter().map(|a| a.negative()));
    cnf.add_clause(long);
}

fn encode_or(cnf: &mut Cnf, y: Var, fanin: &[Var], invert: bool) {
    // z = OR(fanin); y = z or ¬z depending on invert.
    let y_pos = y.lit(!invert);
    let y_neg = y.lit(invert);
    for &a in fanin {
        cnf.add_clause([y_pos, a.negative()]);
    }
    let mut long: Vec<Lit> = vec![y_neg];
    long.extend(fanin.iter().map(|a| a.positive()));
    cnf.add_clause(long);
}

fn encode_xor2(cnf: &mut Cnf, y: Var, a: Var, b: Var) {
    // y = a ⊕ b.
    cnf.add_clause([y.negative(), a.positive(), b.positive()]);
    cnf.add_clause([y.negative(), a.negative(), b.negative()]);
    cnf.add_clause([y.positive(), a.negative(), b.positive()]);
    cnf.add_clause([y.positive(), a.positive(), b.negative()]);
}

fn encode_xor(cnf: &mut Cnf, y: Var, fanin: &[Var], invert: bool) {
    match fanin.len() {
        0 => cnf.add_clause([y.lit(invert)]),
        1 => encode_equal(cnf, y, fanin[0], invert),
        _ => {
            // Chain: acc = a0 ⊕ a1 ⊕ … with fresh intermediates, then tie the
            // final accumulator to y (inverted for XNOR).
            let mut acc = fanin[0];
            for (i, &next) in fanin.iter().enumerate().skip(1) {
                let out = if i == fanin.len() - 1 && !invert {
                    y
                } else {
                    cnf.new_var()
                };
                encode_xor2(cnf, out, acc, next);
                acc = out;
            }
            if invert {
                encode_equal(cnf, y, acc, true);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;
    use netlist::samples;
    use netlist::synth::BenchmarkProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sim::{Simulator, TestPattern};

    /// Encodes every net of `nl` with the identity map (net `i` is variable
    /// `i`), returning the formula and the number of gates encoded.
    fn encode_all(nl: &Netlist) -> (Cnf, usize) {
        let n = nl.num_gates();
        let mut cnf = Cnf::with_vars(n);
        let identity: Vec<u32> = (0..n as u32).collect();
        let nets: Vec<NetId> = nl.iter().map(|(id, _)| id).collect();
        let encoded = encode_nets_into(nl, &nets, &identity, &mut cnf);
        (cnf, encoded)
    }

    fn lit(net: NetId, value: bool) -> Lit {
        Var(net.index() as u32).lit(value)
    }

    /// For every gate kind and a set of random patterns, the CNF must be
    /// satisfiable exactly when the circuit produces the asserted values.
    #[test]
    fn encoding_agrees_with_simulation() {
        let designs = vec![
            samples::c17(),
            samples::majority5(),
            samples::adder4(),
            samples::scan_counter3(),
            BenchmarkProfile::c2670().scaled(25).generate(2),
        ];
        let mut rng = StdRng::seed_from_u64(11);
        for nl in designs {
            let (cnf, _) = encode_all(&nl);
            let sim = Simulator::new(&nl);
            let scan = nl.scan_inputs();
            for _ in 0..10 {
                let pattern = TestPattern::random(scan.len(), &mut rng);
                let values = sim.run(&pattern);
                let mut solver = Solver::from_cnf(&cnf);
                // Assume the scan inputs take the pattern's values; every net
                // must then be forced to its simulated value.
                let assumptions: Vec<Lit> = scan
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| lit(s, pattern.bit(i)))
                    .collect();
                let result = solver.solve(&assumptions);
                let model = result.model().expect("consistent assignment is SAT");
                for (id, gate) in nl.iter() {
                    if matches!(gate.kind, GateKind::Dff) {
                        continue;
                    }
                    assert_eq!(
                        model[id.index()],
                        values.value(id),
                        "{}: net {} under {pattern}",
                        nl.name(),
                        nl.net_name(id)
                    );
                }
            }
        }
    }

    #[test]
    fn contradictory_targets_are_unsat() {
        let nl = samples::c17();
        let (cnf, _) = encode_all(&nl);
        let mut solver = Solver::from_cnf(&cnf);
        let g10 = nl.net_by_name("G10").unwrap();
        // G10 = NAND(G1, G3): G10=0 requires G1=1 and G3=1, so asserting
        // G10=0 together with G1=0 is UNSAT.
        let g1 = nl.net_by_name("G1").unwrap();
        let res = solver.solve(&[lit(g10, false), lit(g1, false)]);
        assert!(!res.is_sat());
    }

    #[test]
    fn xor_chain_encoding_has_aux_vars() {
        let nl = samples::adder4();
        let (cnf, _) = encode_all(&nl);
        assert!(cnf.num_vars() >= nl.num_gates());
    }

    #[test]
    fn var_mapping_is_dense_prefix() {
        // With the identity map the nets occupy variables 0..num_gates and
        // every combinational gate is encoded exactly once.
        let nl = samples::c17();
        let (cnf, encoded) = encode_all(&nl);
        assert_eq!(cnf.num_vars(), nl.num_gates());
        assert_eq!(encoded, nl.num_logic_gates());
    }
}
