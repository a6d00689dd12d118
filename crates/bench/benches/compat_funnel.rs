//! Criterion benchmark comparing compatibility-graph construction strategies:
//! the all-SAT baseline vs the three-tier simulation-first funnel.

use criterion::{criterion_group, criterion_main, Criterion};
use deterrent_core::{CompatStrategy, CompatibilityGraph};
use exec::Exec;
use netlist::synth::BenchmarkProfile;
use sim::rare::RareNetAnalysis;

fn setup() -> (netlist::Netlist, RareNetAnalysis) {
    let nl = BenchmarkProfile::c2670().scaled(20).generate(3);
    let analysis = RareNetAnalysis::estimate(&nl, 0.2, 8192, 3);
    (nl, analysis)
}

fn bench_strategies(c: &mut Criterion) {
    let (nl, analysis) = setup();
    let serial = Exec::new(1);
    let parallel = Exec::new(4);
    c.bench_function("compat/all_sat_serial", |b| {
        b.iter(|| CompatibilityGraph::build_on(&nl, &analysis, CompatStrategy::AllSat, &serial))
    });
    c.bench_function("compat/funnel_serial", |b| {
        b.iter(|| CompatibilityGraph::build_on(&nl, &analysis, CompatStrategy::default(), &serial))
    });
    c.bench_function("compat/funnel_4_threads", |b| {
        b.iter(|| {
            CompatibilityGraph::build_on(&nl, &analysis, CompatStrategy::default(), &parallel)
        })
    });
}

criterion_group! {
    name = compat_funnel;
    config = Criterion::default().sample_size(10);
    targets = bench_strategies
}
criterion_main!(compat_funnel);
