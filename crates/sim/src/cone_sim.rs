//! Exhaustive cone simulation: exact joint-justifiability verdicts without
//! SAT.
//!
//! A set of targets can only be constrained by the gates in the union of
//! their fanin cones, and that cone reads only a subset of the scan inputs
//! (its *support*). When the support is small — common for the deep, narrow
//! cones rare nets sit on — simply enumerating every assignment of the
//! support inputs with 64-way packed words decides the query **exactly**:
//! either some assignment drives all targets at once (compatible, with a
//! concrete witness) or provably none does (incompatible). Unlike random
//! witness mining this resolves *both* polarities, so it can discharge the
//! incompatible pairs that would otherwise always fall through to SAT.

use netlist::{GateKind, NetId, Netlist};

/// Words whose bit `b` equals bit `t` of the pattern index `b`, for
/// `t < 6` — the classic exhaustive-enumeration seed masks.
const SEED_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Reusable exhaustive cone decider bound to one netlist.
///
/// Scratch buffers are shared across [`ConeSimulator::decide`] calls, so a
/// long run of pair queries allocates only once.
#[derive(Debug, Clone)]
pub struct ConeSimulator<'a> {
    netlist: &'a Netlist,
    support_limit: u32,
    /// Scan-input position per net (`u32::MAX` = not a scan input).
    scan_pos: Vec<u32>,
    /// Position of each net in the netlist's topological order.
    topo_pos: Vec<u32>,
    /// Stamped visited buffer for cone DFS.
    visited: Vec<u64>,
    stamp: u64,
    /// Packed value per net, valid for cone nets of the current chunk.
    words: Vec<u64>,
    fanin_buf: Vec<u64>,
}

impl<'a> ConeSimulator<'a> {
    /// Creates a decider that enumerates supports of up to `support_limit`
    /// scan inputs (`2^support_limit` assignments; 20 ≈ one million, still
    /// microseconds for the small cones this targets).
    ///
    /// # Panics
    ///
    /// Panics if `support_limit` exceeds 26 (the enumeration would stop being
    /// "cheap" in any meaningful sense).
    #[must_use]
    pub fn new(netlist: &'a Netlist, support_limit: u32) -> Self {
        assert!(support_limit <= 26, "support limit above 2^26 is not cheap");
        let n = netlist.num_gates();
        let mut scan_pos = vec![u32::MAX; n];
        for (pos, si) in netlist.scan_inputs().into_iter().enumerate() {
            scan_pos[si.index()] = pos as u32;
        }
        let mut topo_pos = vec![0u32; n];
        for (pos, &id) in netlist.topo_order().iter().enumerate() {
            topo_pos[id.index()] = pos as u32;
        }
        Self {
            netlist,
            support_limit,
            scan_pos,
            topo_pos,
            visited: vec![0; n],
            stamp: 0,
            words: vec![0; n],
            fanin_buf: Vec::with_capacity(8),
        }
    }

    /// The configured support limit.
    #[must_use]
    pub fn support_limit(&self) -> u32 {
        self.support_limit
    }

    /// Decides exactly whether some input pattern drives every `(net, value)`
    /// pair in `targets` simultaneously, by enumerating all assignments of
    /// the scan inputs in the union fanin-cone support.
    ///
    /// Returns `None` when the support exceeds the configured limit (the
    /// query is then better left to SAT), `Some(verdict)` otherwise.
    #[must_use]
    pub fn decide(&mut self, targets: &[(NetId, bool)]) -> Option<bool> {
        let limit = self.support_limit;
        self.decide_if(targets, |support, _| support <= limit)
    }

    /// Like [`ConeSimulator::decide`], but the caller chooses per query
    /// whether enumeration is worthwhile: after the union cone is collected,
    /// `admit(support_size, cone_size)` is consulted (cone size counts every
    /// net in the union transitive fanin, inputs included). Returning `false`
    /// declines the query (`None`), leaving it to SAT.
    ///
    /// This is the hook for cost-model-driven budgets — enumeration costs
    /// `2^support / 64 · cone_size` word operations, which the caller can
    /// weigh against its estimate of a SAT query on the same cone. The
    /// configured support limit still applies as a hard ceiling.
    #[must_use]
    pub fn decide_if(
        &mut self,
        targets: &[(NetId, bool)],
        admit: impl FnOnce(u32, usize) -> bool,
    ) -> Option<bool> {
        if targets.is_empty() {
            return Some(true);
        }
        // ── Collect the union cone and its support. ────────────────────────
        self.stamp += 1;
        let stamp = self.stamp;
        let mut stack: Vec<NetId> = Vec::new();
        for &(net, _) in targets {
            if self.visited[net.index()] != stamp {
                self.visited[net.index()] = stamp;
                stack.push(net);
            }
        }
        let mut cone: Vec<NetId> = Vec::new();
        let mut support: Vec<(NetId, usize)> = Vec::new();
        while let Some(id) = stack.pop() {
            cone.push(id);
            let pos = self.scan_pos[id.index()];
            if pos != u32::MAX {
                support.push((id, pos as usize));
            }
            let gate = self.netlist.gate(id);
            if matches!(gate.kind, GateKind::Input | GateKind::Dff) {
                continue;
            }
            for &f in &gate.fanin {
                if self.visited[f.index()] != stamp {
                    self.visited[f.index()] = stamp;
                    stack.push(f);
                }
            }
        }
        let k = support.len() as u32;
        if k > self.support_limit || !admit(k, cone.len()) {
            return None;
        }

        // Evaluation order: the netlist's topological order restricted to the
        // cone's combinational gates.
        cone.sort_unstable_by_key(|id| self.topo_pos[id.index()]);

        // ── Enumerate all 2^k assignments, 64 per chunk. ───────────────────
        let total: u64 = 1u64 << k;
        let chunks = total.div_ceil(64).max(1);
        for chunk in 0..chunks {
            for (t, &(net, _)) in support.iter().enumerate() {
                self.words[net.index()] = if t < 6 {
                    SEED_MASKS[t]
                } else if (chunk >> (t - 6)) & 1 == 1 {
                    u64::MAX
                } else {
                    0
                };
            }
            for &id in &cone {
                let gate = self.netlist.gate(id);
                if matches!(gate.kind, GateKind::Input | GateKind::Dff) {
                    continue;
                }
                self.fanin_buf.clear();
                self.fanin_buf
                    .extend(gate.fanin.iter().map(|&f| self.words[f.index()]));
                self.words[id.index()] = gate.kind.eval_packed(&self.fanin_buf);
            }
            // Patterns past `total` in a sub-64 enumeration repeat earlier
            // assignments of the support inputs, so no masking is needed for
            // an existence check.
            let joint = targets.iter().fold(u64::MAX, |acc, &(net, value)| {
                let w = self.words[net.index()];
                acc & if value { w } else { !w }
            });
            if joint != 0 {
                return Some(true);
            }
        }
        Some(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;
    use netlist::synth::BenchmarkProfile;

    #[test]
    fn agrees_with_known_c17_facts() {
        let nl = samples::c17();
        let mut decider = ConeSimulator::new(&nl, 16);
        let g10 = nl.net_by_name("G10").unwrap();
        let g1 = nl.net_by_name("G1").unwrap();
        // G10 = NAND(G1, G3) = 0 forces G1 = 1.
        assert_eq!(decider.decide(&[(g10, false), (g1, false)]), Some(false));
        assert_eq!(decider.decide(&[(g10, false), (g1, true)]), Some(true));
        assert_eq!(decider.decide(&[(g10, true)]), Some(true));
        assert_eq!(decider.decide(&[(g10, true), (g10, false)]), Some(false));
        assert_eq!(decider.decide(&[]), Some(true));
    }

    #[test]
    fn respects_the_support_limit() {
        let nl = samples::adder4();
        let cout = nl.net_by_name("cout3").unwrap();
        // cout3's cone reads all 9 scan inputs.
        let mut tight = ConeSimulator::new(&nl, 4);
        assert_eq!(tight.decide(&[(cout, true)]), None);
        let mut loose = ConeSimulator::new(&nl, 9);
        assert_eq!(loose.decide(&[(cout, true)]), Some(true));
    }

    #[test]
    fn decide_if_consults_the_predicate_with_cone_facts() {
        let nl = samples::c17();
        let g22 = nl.net_by_name("G22").unwrap();
        let mut decider = ConeSimulator::new(&nl, 16);
        // Record what the predicate sees, then decline.
        let mut seen = None;
        assert_eq!(
            decider.decide_if(&[(g22, true)], |support, cone| {
                seen = Some((support, cone));
                false
            }),
            None,
            "a declining predicate must leave the query to SAT"
        );
        let (support, cone) = seen.expect("predicate consulted");
        // G22's cone reads G1, G2, G3, G6 and spans G10/G16/G11/G22 + inputs.
        assert_eq!(support, 4);
        assert_eq!(cone, 8);
        // Admitting yields the same verdict as the plain limit path.
        assert_eq!(decider.decide_if(&[(g22, true)], |_, _| true), Some(true));
        assert_eq!(decider.decide(&[(g22, true)]), Some(true));
    }

    #[test]
    fn rare_chain_root_both_polarities() {
        let nl = samples::rare_chain(6);
        let root = nl.net_by_name("and5").unwrap();
        let any = nl.net_by_name("any").unwrap();
        let mut decider = ConeSimulator::new(&nl, 10);
        assert_eq!(decider.decide(&[(root, true)]), Some(true));
        // root=1 needs all-ones, which forces the OR of all inputs to 1.
        assert_eq!(decider.decide(&[(root, true), (any, false)]), Some(false));
        assert_eq!(decider.decide(&[(root, false), (any, false)]), Some(true));
    }

    #[test]
    fn matches_scalar_support_enumeration_on_scaled_profile() {
        // Independent cross-check: enumerate the union support with the
        // *scalar whole-netlist* simulator (inputs outside the support pinned
        // to 0 — they cannot influence the cone by definition of support).
        let nl = BenchmarkProfile::c2670().scaled(20).generate(7);
        let analysis = crate::rare::RareNetAnalysis::estimate(&nl, 0.2, 1024, 2);
        let targets = analysis.targets();
        let mut decider = ConeSimulator::new(&nl, 14);
        let sim = crate::Simulator::new(&nl);
        let roots: Vec<_> = targets.iter().map(|&(net, _)| net).collect();
        let supports = netlist::input_supports(&nl, &roots);
        let width = nl.num_scan_inputs();
        let mut checked = 0;
        for i in 0..targets.len().min(12) {
            for j in (i + 1)..targets.len().min(12) {
                let pair = [targets[i], targets[j]];
                let Some(verdict) = decider.decide(&pair) else {
                    continue;
                };
                let union: Vec<usize> = (0..width)
                    .filter(|&p| supports.get(i, p) || supports.get(j, p))
                    .collect();
                assert!(union.len() <= 14, "limit should have bounded this");
                let brute = (0u64..1 << union.len()).any(|code| {
                    let mut bits = vec![false; width];
                    for (t, &pos) in union.iter().enumerate() {
                        bits[pos] = (code >> t) & 1 == 1;
                    }
                    sim.activates(&crate::TestPattern::new(bits), &pair)
                });
                assert_eq!(verdict, brute, "pair ({i},{j})");
                checked += 1;
            }
        }
        assert!(checked > 0, "expected at least one decidable pair");
    }
}
