//! The justification oracle used by the DETERRENT pipeline.
//!
//! [`CircuitOracle`] answers "is there an input pattern that drives these
//! nets to these values?" with one persistent assumption-based CDCL solver.
//! Its two constructors differ only in when the netlist is encoded:
//!
//! * [`CircuitOracle::new`] Tseitin-encodes the **whole netlist** up front.
//!   Best when queries touch nets scattered all over the design.
//! * [`CircuitOracle::lazy`] encodes **on demand**: a query only adds
//!   clauses for the not-yet-encoded part of the union of its targets'
//!   fanin cones. Best for the offline compatibility phase, where each query
//!   touches two small cones and most of the design is never mentioned.

use netlist::{GateKind, NetId, Netlist};

use crate::encoder::encode_nets_into;
use crate::solver::{SolveResult, Solver, SolverConfig};
use crate::types::{Cnf, Lit, Var};

/// Marks a net whose cone no query has reached yet.
const UNENCODED: u32 = u32::MAX;

/// Answers "is there an input pattern that drives these nets to these
/// values?" queries against one netlist.
///
/// One incremental [`Solver`] stays alive across queries, which are posed
/// as assumptions, so the learned clauses from earlier compatibility checks
/// speed up later ones — this mirrors how the paper amortizes its offline
/// SAT work. The Tseitin clauses of a gate are added at most once: all of
/// them at construction ([`CircuitOracle::new`]), or the first time a
/// query's fanin cone reaches the gate ([`CircuitOracle::lazy`]), so a lazy
/// formula (and the variable range the decision heuristic scans) grows only
/// with the union of the cones actually queried.
///
/// Returned patterns are assignments to [`netlist::Netlist::scan_inputs`] in
/// that order (primary inputs first, then scan flip-flops), i.e. the same
/// convention as `sim::TestPattern`.
#[derive(Debug, Clone)]
pub struct CircuitOracle<'a> {
    netlist: &'a Netlist,
    solver: Solver,
    /// Net index -> solver variable, [`UNENCODED`] until the net's cone is
    /// first touched by a query.
    net_vars: Vec<u32>,
    scan_inputs: Vec<NetId>,
    queries: u64,
    encoded_gates: u64,
}

impl<'a> CircuitOracle<'a> {
    /// Encodes the whole `netlist` (net `i` is variable `i`, XOR-chain
    /// auxiliaries follow the nets) under the default solver configuration.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        let n = netlist.num_gates();
        let net_vars: Vec<u32> = (0..n as u32).collect();
        let nets: Vec<NetId> = netlist.iter().map(|(id, _)| id).collect();
        let mut cnf = Cnf::with_vars(n);
        let encoded_gates = encode_nets_into(netlist, &nets, &net_vars, &mut cnf) as u64;
        Self {
            netlist,
            solver: Solver::from_cnf(&cnf),
            net_vars,
            scan_inputs: netlist.scan_inputs(),
            queries: 0,
            encoded_gates,
        }
    }

    /// Creates an empty oracle over `netlist` that encodes cones on demand;
    /// no clauses are generated until the first query.
    #[must_use]
    pub fn lazy(netlist: &'a Netlist, config: SolverConfig) -> Self {
        Self {
            netlist,
            solver: Solver::with_config(config),
            net_vars: vec![UNENCODED; netlist.num_gates()],
            scan_inputs: netlist.scan_inputs(),
            queries: 0,
            encoded_gates: 0,
        }
    }

    /// Number of scan inputs (width of returned patterns).
    #[must_use]
    pub fn pattern_width(&self) -> usize {
        self.scan_inputs.len()
    }

    /// Number of justification queries answered so far.
    #[must_use]
    pub fn num_queries(&self) -> u64 {
        self.queries
    }

    /// Number of combinational gates encoded so far (monotone over the
    /// oracle's lifetime, bounded by the netlist's gate count).
    #[must_use]
    pub fn encoded_gates(&self) -> u64 {
        self.encoded_gates
    }

    /// Adds the Tseitin clauses for every not-yet-encoded gate in the fanin
    /// cone of `root` (a no-op when the cone is already encoded).
    pub fn encode_cone(&mut self, root: NetId) {
        if self.net_vars[root.index()] != UNENCODED {
            // The root has a variable, which by construction means its whole
            // cone is already encoded.
            return;
        }
        // Collect the unencoded part of the cone (DFS pruned at encoded
        // nets), then assign variables and emit clauses.
        let mut stack = vec![root];
        let mut fresh_nets: Vec<NetId> = Vec::new();
        while let Some(id) = stack.pop() {
            if self.net_vars[id.index()] != UNENCODED {
                continue;
            }
            // Reserve with a placeholder so the DFS visits each net once;
            // real variables are assigned below in deterministic id order.
            self.net_vars[id.index()] = UNENCODED - 1;
            fresh_nets.push(id);
            let gate = self.netlist.gate(id);
            if matches!(gate.kind, GateKind::Input | GateKind::Dff) {
                continue;
            }
            for &f in &gate.fanin {
                if self.net_vars[f.index()] == UNENCODED {
                    stack.push(f);
                }
            }
        }
        fresh_nets.sort_unstable();
        for &id in &fresh_nets {
            self.net_vars[id.index()] = self.solver.new_var().0;
        }
        // Auxiliary (XOR-chain) variables are allocated through a scratch Cnf
        // whose variable space is kept aligned with the solver's.
        let mut scratch = Cnf::with_vars(self.solver.num_vars());
        self.encoded_gates +=
            encode_nets_into(self.netlist, &fresh_nets, &self.net_vars, &mut scratch) as u64;
        for clause in scratch.clauses() {
            self.solver.add_clause(clause.iter().copied());
        }
    }

    /// The solver literal asserting `net = value`, or `None` while the
    /// net's cone is not encoded.
    #[must_use]
    pub fn lit(&self, net: NetId, value: bool) -> Option<Lit> {
        let v = self.net_vars[net.index()];
        (v != UNENCODED).then(|| Var(v).lit(value))
    }

    /// Unit propagation from `targets` without search ([`Solver::probe`]),
    /// encoding their cones on demand: the literals every input pattern that
    /// drives all targets must also satisfy, or `None` when propagation
    /// alone refutes the targets. Nets are mapped back through
    /// [`CircuitOracle::lit`].
    pub fn probe(&mut self, targets: &[(NetId, bool)]) -> Option<Vec<Lit>> {
        let assumptions = self.assumptions(targets);
        self.solver.probe(&assumptions)
    }

    /// Encodes the targets' cones and returns their literals.
    fn assumptions(&mut self, targets: &[(NetId, bool)]) -> Vec<Lit> {
        for &(net, _) in targets {
            self.encode_cone(net);
        }
        targets
            .iter()
            .map(|&(net, value)| Var(self.net_vars[net.index()]).lit(value))
            .collect()
    }

    /// Searches for a scan-input assignment that simultaneously drives every
    /// `(net, value)` pair in `targets`, encoding the union of their cones on
    /// demand. Returns the pattern bits (in scan-input order; inputs outside
    /// every queried cone default to 0) or `None` when the targets are
    /// jointly unjustifiable.
    pub fn justify(&mut self, targets: &[(NetId, bool)]) -> Option<Vec<bool>> {
        self.queries += 1;
        let assumptions = self.assumptions(targets);
        let result = self.solver.solve(&assumptions);
        self.pattern(result)
    }

    /// [`CircuitOracle::justify`] branching only on the scan inputs at
    /// positions `inputs` of [`netlist::Netlist::scan_inputs`]
    /// ([`Solver::solve_within`]), as PODEM does. `inputs` must cover the
    /// scan-input support of every target (the OR of their
    /// [`netlist::input_supports`] rows): fixing those inputs then
    /// propagates every cone gate, so the verdict is exact. A returned
    /// pattern drives the targets through its bits at `inputs`, whatever
    /// the bits outside them are.
    pub fn justify_within(
        &mut self,
        targets: &[(NetId, bool)],
        inputs: &[usize],
    ) -> Option<Vec<bool>> {
        self.queries += 1;
        let assumptions = self.assumptions(targets);
        // An input no target's cone reaches is still unencoded, and its value
        // does not matter.
        let decide: Vec<Var> = inputs
            .iter()
            .filter_map(|&p| self.lit(self.scan_inputs[p], true).map(Lit::var))
            .collect();
        let result = self.solver.solve_within(&assumptions, &decide);
        self.pattern(result)
    }

    /// The scan-input bits of a SAT result (inputs outside every encoded
    /// cone read 0), or `None` on UNSAT.
    fn pattern(&self, result: SolveResult) -> Option<Vec<bool>> {
        let model = result.model()?;
        Some(
            self.scan_inputs
                .iter()
                .map(|&si| {
                    let v = self.net_vars[si.index()];
                    v != UNENCODED && model[v as usize]
                })
                .collect(),
        )
    }

    /// Returns `true` when an input pattern exists that drives every target
    /// simultaneously (the paper's *compatibility* relation).
    pub fn is_compatible(&mut self, targets: &[(NetId, bool)]) -> bool {
        self.justify(targets).is_some()
    }

    /// Accumulated solver statistics.
    #[must_use]
    pub fn solver_stats(&self) -> crate::SolverStats {
        self.solver.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;
    use netlist::synth::BenchmarkProfile;
    use sim::{Simulator, TestPattern};

    #[test]
    fn justify_rare_chain_root() {
        let nl = samples::rare_chain(5);
        let mut oracle = CircuitOracle::new(&nl);
        let root = nl.net_by_name("and4").unwrap();
        let bits = oracle.justify(&[(root, true)]).expect("SAT");
        assert!(bits.iter().all(|&b| b));
        assert_eq!(oracle.pattern_width(), 5);
        assert_eq!(oracle.num_queries(), 1);
    }

    #[test]
    fn justified_patterns_verify_in_simulation() {
        let nl = BenchmarkProfile::c2670().scaled(20).generate(8);
        let analysis = sim::rare::RareNetAnalysis::estimate(&nl, 0.2, 2048, 3);
        let mut oracle = CircuitOracle::new(&nl);
        let sim = Simulator::new(&nl);
        let mut justified = 0;
        for rare in analysis.rare_nets() {
            if let Some(bits) = oracle.justify(&[(rare.net, rare.rare_value)]) {
                let pattern = TestPattern::new(bits);
                assert!(
                    sim.activates(&pattern, &[(rare.net, rare.rare_value)]),
                    "SAT pattern must activate {}",
                    nl.net_name(rare.net)
                );
                justified += 1;
            }
        }
        assert!(justified > 0, "at least one rare net should be justifiable");
    }

    #[test]
    fn impossible_targets_are_rejected() {
        let nl = samples::c17();
        let mut oracle = CircuitOracle::new(&nl);
        let g10 = nl.net_by_name("G10").unwrap();
        let g1 = nl.net_by_name("G1").unwrap();
        // G10 = NAND(G1, G3) = 0 forces G1 = 1.
        assert!(!oracle.is_compatible(&[(g10, false), (g1, false)]));
        assert!(oracle.is_compatible(&[(g10, false), (g1, true)]));
    }

    #[test]
    fn incremental_queries_reuse_solver() {
        let nl = samples::majority5();
        let mut oracle = CircuitOracle::new(&nl);
        let maj = nl.net_by_name("maj").unwrap();
        for _ in 0..5 {
            assert!(oracle.is_compatible(&[(maj, true)]));
            assert!(oracle.is_compatible(&[(maj, false)]));
        }
        assert_eq!(oracle.num_queries(), 10);
    }

    #[test]
    fn conflicting_same_net_targets_unsat() {
        let nl = samples::c17();
        let mut oracle = CircuitOracle::new(&nl);
        let g22 = nl.net_by_name("G22").unwrap();
        assert!(!oracle.is_compatible(&[(g22, true), (g22, false)]));
    }

    #[test]
    fn cone_oracle_agrees_with_full_oracle() {
        let nl = BenchmarkProfile::c2670().scaled(20).generate(8);
        let analysis = sim::rare::RareNetAnalysis::estimate(&nl, 0.2, 2048, 3);
        let targets = analysis.targets();
        let mut full = CircuitOracle::new(&nl);
        let mut cone = CircuitOracle::lazy(&nl, SolverConfig::default());
        // Singletons and all pairs over a prefix must agree exactly.
        let k = targets.len().min(8);
        for i in 0..k {
            assert_eq!(
                full.is_compatible(&targets[i..=i]),
                cone.is_compatible(&targets[i..=i]),
                "singleton {i}"
            );
            for j in (i + 1)..k {
                let pair = [targets[i], targets[j]];
                assert_eq!(
                    full.is_compatible(&pair),
                    cone.is_compatible(&pair),
                    "pair ({i},{j})"
                );
            }
        }
        assert_eq!(cone.num_queries(), (k + k * (k - 1) / 2) as u64);
        // The eager oracle maps net `i` to variable `i` and encodes every
        // gate up front.
        for (id, _) in nl.iter() {
            assert_eq!(full.lit(id, true), Some(Var(id.index() as u32).positive()));
        }
        assert_eq!(full.encoded_gates(), nl.num_logic_gates() as u64);
        // Lazy encoding never exceeds the design size and in practice stays
        // well below it on cone-structured queries.
        assert!(cone.encoded_gates() <= nl.num_logic_gates() as u64);
    }

    #[test]
    fn cone_oracle_patterns_verify_in_simulation() {
        let nl = BenchmarkProfile::c5315().scaled(40).generate(5);
        let analysis = sim::rare::RareNetAnalysis::estimate(&nl, 0.2, 2048, 9);
        let mut oracle = CircuitOracle::lazy(&nl, SolverConfig::default());
        let sim = Simulator::new(&nl);
        let mut justified = 0;
        for rare in analysis.rare_nets() {
            if let Some(bits) = oracle.justify(&[(rare.net, rare.rare_value)]) {
                assert_eq!(bits.len(), oracle.pattern_width());
                let pattern = TestPattern::new(bits);
                assert!(
                    sim.activates(&pattern, &[(rare.net, rare.rare_value)]),
                    "lazy-oracle pattern must activate {}",
                    nl.net_name(rare.net)
                );
                justified += 1;
            }
        }
        assert!(justified > 0, "at least one rare net should be justifiable");
    }

    #[test]
    fn cone_oracle_encodes_incrementally() {
        let nl = samples::c17();
        let mut oracle = CircuitOracle::lazy(&nl, SolverConfig::default());
        assert_eq!(oracle.encoded_gates(), 0);
        let g22 = nl.net_by_name("G22").unwrap();
        let g23 = nl.net_by_name("G23").unwrap();
        assert!(oracle.is_compatible(&[(g22, true)]));
        let after_first = oracle.encoded_gates();
        assert!(after_first > 0);
        // Re-querying the same cone adds no clauses.
        assert!(oracle.is_compatible(&[(g22, false)]));
        assert_eq!(oracle.encoded_gates(), after_first);
        // A second, overlapping cone only adds its new gates.
        assert!(oracle.is_compatible(&[(g23, true)]));
        assert!(oracle.encoded_gates() > after_first);
        assert!(oracle.encoded_gates() <= nl.num_logic_gates() as u64);
    }

    #[test]
    fn cone_oracle_probe_propagates_through_the_cone() {
        let nl = samples::c17();
        let mut oracle = CircuitOracle::lazy(&nl, SolverConfig::default());
        let [g1, g3, g10, g22] = ["G1", "G3", "G10", "G22"].map(|n| nl.net_by_name(n).unwrap());
        assert_eq!(oracle.lit(g10, false), None);
        // G10 = NAND(G1, G3) = 0 forces both inputs to 1.
        let implied = oracle.probe(&[(g10, false)]).expect("consistent");
        for net in [g1, g3] {
            assert!(implied.contains(&oracle.lit(net, true).unwrap()));
        }
        // Probing encodes no more than the queried cone, and answers no
        // justification query.
        assert_eq!(oracle.lit(g22, true), None);
        assert_eq!(oracle.num_queries(), 0);
        assert_eq!(oracle.probe(&[(g10, false), (g1, false)]), None);
        assert!(oracle.is_compatible(&[(g10, false)]));
    }

    #[test]
    fn cone_oracle_rejects_impossible_targets() {
        let nl = samples::c17();
        let mut oracle = CircuitOracle::lazy(&nl, SolverConfig::default());
        let g10 = nl.net_by_name("G10").unwrap();
        let g1 = nl.net_by_name("G1").unwrap();
        assert!(!oracle.is_compatible(&[(g10, false), (g1, false)]));
        assert!(oracle.is_compatible(&[(g10, false), (g1, true)]));
        assert!(!oracle.is_compatible(&[(g10, true), (g10, false)]));
    }
}
