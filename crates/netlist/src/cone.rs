//! Fanin-cone exploration: transitive fanin and scan-input supports.
//!
//! Justifying a net only ever constrains the gates in its transitive fanin
//! (its *cone*) — the rest of the netlist is irrelevant to the query. Two
//! facts follow that the compatibility funnel exploits:
//!
//! * a SAT justification can encode the cone alone instead of the whole
//!   netlist, and
//! * two nets whose cones read **disjoint** sets of scan inputs can be
//!   justified independently and the two partial patterns merged, so their
//!   pairwise compatibility reduces to the two individual justifiabilities.

use crate::{BitMatrix, GateKind, NetId, Netlist};

/// Computes the transitive fanin of `roots`: every gate (including primary
/// inputs and flip-flop sources, and the roots themselves) on a combinational
/// path into a root. The result is sorted by net id.
///
/// DFF *data* inputs are next-state logic and do not extend the cone under
/// the full-scan assumption.
#[must_use]
pub fn transitive_fanin(netlist: &Netlist, roots: &[NetId]) -> Vec<NetId> {
    let mut visited = vec![false; netlist.num_gates()];
    let mut stack: Vec<NetId> = Vec::new();
    for &r in roots {
        if !visited[r.index()] {
            visited[r.index()] = true;
            stack.push(r);
        }
    }
    let mut cone = Vec::new();
    while let Some(id) = stack.pop() {
        cone.push(id);
        let gate = netlist.gate(id);
        if matches!(gate.kind, GateKind::Input | GateKind::Dff) {
            continue;
        }
        for &f in &gate.fanin {
            if !visited[f.index()] {
                visited[f.index()] = true;
                stack.push(f);
            }
        }
    }
    cone.sort_unstable();
    cone
}

/// Scan-input supports of `roots`: row `i` has bit `p` set when scan input
/// `p` (a position in [`Netlist::scan_inputs`]) can influence `roots[i]`.
/// Two rows that do not intersect identify a structurally independent pair.
#[must_use]
pub fn input_supports(netlist: &Netlist, roots: &[NetId]) -> BitMatrix {
    let scan = netlist.scan_inputs();
    // Scan-input position per net (u32::MAX = not a scan input).
    let mut scan_pos = vec![u32::MAX; netlist.num_gates()];
    for (pos, &si) in scan.iter().enumerate() {
        scan_pos[si.index()] = pos as u32;
    }

    let mut supports = BitMatrix::new(roots.len(), scan.len());
    // Stamped visited buffer shared across roots to avoid re-allocation.
    let mut visited = vec![u32::MAX; netlist.num_gates()];
    let mut stack: Vec<NetId> = Vec::new();
    for (i, &root) in roots.iter().enumerate() {
        let stamp = i as u32;
        visited[root.index()] = stamp;
        stack.push(root);
        while let Some(id) = stack.pop() {
            let pos = scan_pos[id.index()];
            if pos != u32::MAX {
                supports.set(i, pos as usize, true);
            }
            let gate = netlist.gate(id);
            if matches!(gate.kind, GateKind::Input | GateKind::Dff) {
                continue;
            }
            for &f in &gate.fanin {
                if visited[f.index()] != stamp {
                    visited[f.index()] = stamp;
                    stack.push(f);
                }
            }
        }
    }
    supports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{samples, NetlistBuilder};

    #[test]
    fn transitive_fanin_of_c17_output() {
        let nl = samples::c17();
        let g22 = nl.net_by_name("G22").unwrap();
        let cone = transitive_fanin(&nl, &[g22]);
        assert!(cone.contains(&g22));
        // G22 = NAND(G10, G16); G10 = NAND(G1, G3); G16 = NAND(G2, G11);
        // G11 = NAND(G3, G6) -> inputs G1, G2, G3, G6 but not G7.
        for name in ["G10", "G16", "G11", "G1", "G2", "G3", "G6"] {
            assert!(cone.contains(&nl.net_by_name(name).unwrap()), "{name}");
        }
        assert!(!cone.contains(&nl.net_by_name("G7").unwrap()));
        // Sorted by id.
        assert!(cone.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn supports_of_independent_subcircuits_are_disjoint() {
        // Two AND cones over distinct inputs plus one gate mixing them.
        let mut b = NetlistBuilder::new("split");
        let a0 = b.input("a0");
        let a1 = b.input("a1");
        let b0 = b.input("b0");
        let b1 = b.input("b1");
        let left = b.gate(crate::GateKind::And, "left", &[a0, a1]).unwrap();
        let right = b.gate(crate::GateKind::And, "right", &[b0, b1]).unwrap();
        let mix = b.gate(crate::GateKind::Or, "mix", &[left, right]).unwrap();
        b.output(mix);
        let nl = b.build().unwrap();

        let supports = input_supports(&nl, &[left, right, mix]);
        assert_eq!((supports.rows(), supports.cols()), (3, 4));
        assert!(!supports.intersects(0, 1));
        assert!(supports.intersects(0, 2));
        assert!(supports.intersects(1, 2));
        assert_eq!(supports.count(0), 2);
        assert_eq!(supports.count(2), 4);
        assert_eq!(supports.union_count(0, 1), 4);
        assert_eq!(supports.union_count(0, 2), 4);
        assert_eq!(supports.union_count(1, 1), 2);
        assert_eq!(supports.row(0), &[0b0011]);
        assert_eq!(supports.row(1), &[0b1100]);
    }

    #[test]
    fn supports_cover_whole_cone_on_samples() {
        let nl = samples::adder4();
        let roots: Vec<_> = nl.internal_nets();
        let supports = input_supports(&nl, &roots);
        let scan = nl.scan_inputs();
        for (i, &root) in roots.iter().enumerate() {
            let cone = transitive_fanin(&nl, &[root]);
            let expected: Vec<bool> = scan.iter().map(|si| cone.contains(si)).collect();
            assert_eq!(supports.row_bools(i), expected, "root {root}");
        }
    }

    #[test]
    fn dff_data_edges_do_not_extend_cones() {
        let mut b = NetlistBuilder::new("seq");
        let a = b.input("a");
        let q = b.dff("q", a);
        let g = b.gate(crate::GateKind::And, "g", &[a, q]).unwrap();
        b.set_dff_data(q, g).unwrap();
        b.output(g);
        let nl = b.build().unwrap();
        // The cone of q is just q itself: its data input is next-state logic.
        assert_eq!(transitive_fanin(&nl, &[q]), vec![q]);
        let supports = input_supports(&nl, &[q, g]);
        assert_eq!(supports.count(0), 1);
        assert_eq!(supports.count(1), 2);
    }
}
