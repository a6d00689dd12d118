//! Tseitin encoding of gate-level netlists into CNF.

use netlist::{GateKind, NetId, Netlist};

use crate::types::{Cnf, Lit, Var};

/// Tseitin encoder mapping nets of a [`Netlist`] to CNF variables.
///
/// Primary inputs and scan flip-flop outputs are free variables; every
/// combinational gate contributes the standard Tseitin clauses relating its
/// output variable to its fanin variables. Flip-flop *data* inputs impose no
/// constraint on the flop output (full-scan semantics: the flop can be loaded
/// with any value through the scan chain).
///
/// The whole netlist is encoded with the identity net-to-variable mapping
/// (net `i` is variable `i`); auxiliary variables follow the nets.
/// [`crate::ConeOracle`] reuses the same per-gate clauses to encode fanin
/// cones lazily.
#[derive(Debug, Clone)]
pub struct CircuitEncoder {
    cnf: Cnf,
    /// Nets of the encoded netlist: variables `0..num_nets` are nets.
    num_nets: usize,
    encoded_gates: usize,
}

impl CircuitEncoder {
    /// Encodes the whole `netlist` into CNF; net `i` maps to variable `i`.
    #[must_use]
    pub fn new(netlist: &Netlist) -> Self {
        let n = netlist.num_gates();
        let mut cnf = Cnf::with_vars(n);
        let net_vars: Vec<u32> = (0..n as u32).collect();
        let all_nets: Vec<NetId> = netlist.iter().map(|(id, _)| id).collect();
        let encoded_gates = encode_nets_into(netlist, &all_nets, &net_vars, &mut cnf);
        Self {
            cnf,
            num_nets: n,
            encoded_gates,
        }
    }

    /// The CNF variable representing `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to the encoded netlist.
    #[must_use]
    pub fn var(&self, net: NetId) -> Var {
        assert!(
            net.index() < self.num_nets,
            "net {net} is not in the encoded netlist"
        );
        Var(net.index() as u32)
    }

    /// The literal asserting that `net` carries `value`.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to the encoded netlist.
    #[must_use]
    pub fn lit(&self, net: NetId, value: bool) -> Lit {
        self.var(net).lit(value)
    }

    /// Number of combinational gates whose clauses are in the formula.
    #[must_use]
    pub fn encoded_gates(&self) -> usize {
        self.encoded_gates
    }

    /// The encoded formula.
    #[must_use]
    pub fn cnf(&self) -> &Cnf {
        &self.cnf
    }
}

/// Emits the Tseitin clauses of every combinational gate in `nets` into
/// `cnf`, mapping nets to variables through `net_vars` (fanins must be
/// mapped too). Returns the number of gates encoded.
///
/// Shared by [`CircuitEncoder::new`] and the lazy per-cone encoding of
/// [`crate::ConeOracle`].
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
        encode_gate(gate.kind, y, &fanin, &mut |cnf| cnf.new_var(), cnf);
        encoded += 1;
    }
    encoded
}

/// Emits the Tseitin clauses of one gate into `cnf`. `fresh` allocates
/// auxiliary variables (used by XOR/XNOR chains); it receives `cnf` so
/// callers can allocate from the same variable space the clauses land in.
fn encode_gate(
    kind: GateKind,
    y: Var,
    fanin: &[Var],
    fresh: &mut impl FnMut(&mut Cnf) -> Var,
    cnf: &mut Cnf,
) {
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
        GateKind::Xor => encode_xor(cnf, y, fanin, false, fresh),
        GateKind::Xnor => encode_xor(cnf, y, fanin, true, fresh),
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

fn encode_xor(
    cnf: &mut Cnf,
    y: Var,
    fanin: &[Var],
    invert: bool,
    fresh: &mut impl FnMut(&mut Cnf) -> Var,
) {
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
                    fresh(cnf)
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
            let enc = CircuitEncoder::new(&nl);
            let sim = Simulator::new(&nl);
            let scan = nl.scan_inputs();
            for _ in 0..10 {
                let pattern = TestPattern::random(scan.len(), &mut rng);
                let values = sim.run(&pattern);
                let mut solver = Solver::from_cnf(enc.cnf());
                // Assume the scan inputs take the pattern's values; every net
                // must then be forced to its simulated value.
                let assumptions: Vec<Lit> = scan
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| enc.lit(s, pattern.bit(i)))
                    .collect();
                let result = solver.solve(&assumptions);
                let model = result.model().expect("consistent assignment is SAT");
                for (id, gate) in nl.iter() {
                    if matches!(gate.kind, netlist::GateKind::Dff) {
                        continue;
                    }
                    assert_eq!(
                        model[enc.var(id).index()],
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
        let enc = CircuitEncoder::new(&nl);
        let mut solver = Solver::from_cnf(enc.cnf());
        let g10 = nl.net_by_name("G10").unwrap();
        // G10 = NAND(G1, G3): G10=0 requires G1=1 and G3=1, so asserting
        // G10=0 together with G1=0 is UNSAT.
        let g1 = nl.net_by_name("G1").unwrap();
        let res = solver.solve(&[enc.lit(g10, false), enc.lit(g1, false)]);
        assert!(!res.is_sat());
    }

    #[test]
    fn xor_chain_encoding_has_aux_vars() {
        let nl = samples::adder4();
        let enc = CircuitEncoder::new(&nl);
        assert!(enc.cnf().num_vars() >= nl.num_gates());
    }

    #[test]
    fn var_mapping_is_dense_prefix() {
        let nl = samples::c17();
        let enc = CircuitEncoder::new(&nl);
        for (id, _) in nl.iter() {
            assert_eq!(enc.var(id).index(), id.index());
        }
    }
}
