//! Funnel equivalence across thread counts, with pinned SAT work.
//!
//! This suite builds the compatibility graph on a scaled c2670 and on a
//! planted-Trojan variant of it, at one and at four worker threads, and
//! demands:
//!
//! - bit-identical adjacency matrices (and identical kept rare-net lists);
//! - identical tier verdict counts (sim-witnessed / structurally pruned /
//!   cone-enumerated / probe-struck / sweep-struck / SAT-resolved pair
//!   totals and the singleton split);
//! - identical CDCL work counters: tier 3 runs on a fixed number of solver
//!   lanes, so the solvers' decisions do not depend on the thread count.
//!
//! The default funnel resolves both workloads without a single SAT query,
//! so its tier verdicts are pinned (any routing drift fails) and a second
//! pass turns off witnesses and enumeration to force every singleton and
//! every pair into tier 3, where the solver probes, sweeps and decides the
//! whole graph. That pass pins its SAT queries, its strikes and the
//! solver's (decisions, conflicts, propagations), so any change to the
//! solver's search shows up here as a counter drift.

use deterrent_repro::deterrent_core::{CompatStrategy, CompatibilityGraph, FunnelOptions};
use deterrent_repro::exec::Exec;
use deterrent_repro::netlist::synth::BenchmarkProfile;
use deterrent_repro::netlist::Netlist;
use deterrent_repro::sim::rare::RareNetAnalysis;
use deterrent_repro::trojan::TrojanGenerator;

fn build(
    netlist: &Netlist,
    analysis: &RareNetAnalysis,
    funnel: FunnelOptions,
    threads: usize,
) -> CompatibilityGraph {
    CompatibilityGraph::build_on(
        netlist,
        analysis,
        CompatStrategy::Funnel(funnel),
        &Exec::new(threads),
    )
}

/// The routing slice of [`deterrent_repro::deterrent_core::CompatStats`]:
/// everything except timings and CDCL work counters.
fn tier_verdicts(g: &CompatibilityGraph) -> [u64; 10] {
    let s = g.stats();
    [
        s.candidate_rare_nets as u64,
        s.kept_rare_nets as u64,
        s.singleton_sim_resolved,
        s.singleton_sat_queries,
        s.pairs_sim_witnessed,
        s.pairs_structurally_pruned,
        s.pairs_cone_enumerated,
        s.pairs_probe_struck,
        s.pairs_sweep_struck,
        s.pairs_sat_resolved,
    ]
}

/// Builds `funnel` at 1 and 4 threads and checks each build against
/// `reference`: same kept rare nets, same adjacency, and the same tier
/// verdicts and solver counters as the build on one thread. Returns the
/// one-thread build.
fn assert_thread_independent(
    netlist: &Netlist,
    analysis: &RareNetAnalysis,
    funnel: FunnelOptions,
    reference: &CompatibilityGraph,
    label: &str,
) -> CompatibilityGraph {
    let single = build(netlist, analysis, funnel, 1);
    for threads in [1usize, 4] {
        let g = build(netlist, analysis, funnel, threads);
        assert_eq!(
            g.rare_nets(),
            reference.rare_nets(),
            "{label}: kept rare nets differ ({threads} threads)"
        );
        assert_eq!(
            g.matrix(),
            reference.matrix(),
            "{label}: adjacency differs ({threads} threads)"
        );
        assert_eq!(
            tier_verdicts(&g),
            tier_verdicts(&single),
            "{label}: tier verdict counts differ ({threads} threads)"
        );
        assert_eq!(
            g.stats().solver,
            single.stats().solver,
            "{label}: solver counters differ ({threads} threads)"
        );
    }
    single
}

/// `default_verdicts` pins the default funnel's tier verdicts;
/// `forced_queries` pins the (singleton, pair) SAT queries of the forced pass,
/// `forced_strikes` its (probe-struck, sweep-struck) pairs and
/// `forced_solver` its solver's (decisions, conflicts, propagations).
fn assert_equivalent_on(
    netlist: &Netlist,
    label: &str,
    default_verdicts: [u64; 10],
    forced_queries: (u64, u64),
    forced_strikes: (u64, u64),
    forced_solver: (u64, u64, u64),
) {
    let analysis = RareNetAnalysis::estimate(netlist, 0.2, 8192, 17);
    let reference = build(netlist, &analysis, FunnelOptions::default(), 1);
    assert_eq!(
        tier_verdicts(&reference),
        default_verdicts,
        "{label}: default funnel routing drifted"
    );
    assert_thread_independent(
        netlist,
        &analysis,
        FunnelOptions::default(),
        &reference,
        label,
    );

    // Without witnesses or enumeration every singleton is a SAT query and
    // every pair reaches tier 3, so the solver decides the whole graph.
    let forced = FunnelOptions {
        sim_witnesses: false,
        max_support: 0,
        ..FunnelOptions::default()
    };
    let sat_label = format!("{label}, forced SAT");
    let s = *assert_thread_independent(netlist, &analysis, forced, &reference, &sat_label).stats();
    assert_eq!(
        (s.singleton_sat_queries, s.pairs_sat_resolved),
        forced_queries,
        "{sat_label}: SAT query counts drifted"
    );
    assert_eq!(
        s.singleton_sat_queries, s.candidate_rare_nets as u64,
        "{sat_label}: a singleton bypassed SAT"
    );
    assert_eq!(
        (s.pairs_probe_struck, s.pairs_sweep_struck),
        forced_strikes,
        "{sat_label}: tier-3 strike counts drifted"
    );
    assert_eq!(
        (
            s.solver.decisions,
            s.solver.conflicts,
            s.solver.propagations
        ),
        forced_solver,
        "{sat_label}: solver counters drifted"
    );
    assert_eq!(
        (s.pairs_sim_witnessed, s.pairs_cone_enumerated),
        (0, 0),
        "{sat_label}: a pair bypassed tier 3"
    );
    assert_eq!(
        s.pairs_structurally_pruned
            + s.pairs_probe_struck
            + s.pairs_sweep_struck
            + s.pairs_sat_resolved,
        s.pairs_total,
        "{sat_label}: the tiers do not partition the pairs"
    );
}

#[test]
fn clean_netlist_adjacency_is_solver_and_thread_independent() {
    let netlist = BenchmarkProfile::c2670().scaled(20).generate(100);
    assert_equivalent_on(
        &netlist,
        "clean c2670@20",
        [19, 17, 19, 0, 50, 0, 86, 0, 0, 0],
        (19, 59),
        (77, 0),
        (413, 11, 3299),
    );
}

#[test]
fn infected_netlist_adjacency_is_solver_and_thread_independent() {
    let netlist = BenchmarkProfile::c2670().scaled(20).generate(100);
    let analysis = RareNetAnalysis::estimate(&netlist, 0.2, 8192, 2);
    let mut adversary = TrojanGenerator::new(&netlist, 8);
    let trojan = adversary
        .sample(&analysis, 2)
        .expect("scaled c2670 admits a 2-trigger Trojan");
    let infected = deterrent_repro::trojan::infect(&netlist, &trojan).expect("infect");
    assert_equivalent_on(
        &infected,
        "infected c2670@20",
        [21, 18, 21, 0, 57, 0, 96, 0, 0, 0],
        (21, 65),
        (87, 1),
        (446, 15, 3725),
    );
}
