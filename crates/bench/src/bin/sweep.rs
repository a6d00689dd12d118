//! Perf-trajectory benchmark: a timed fig7-style rareness-threshold sweep
//! that emits a schema-versioned `BENCH_sweep.json` for CI to archive.
//!
//! The sweep runs the full pipeline at four θ values over one shared
//! artifact store, twice: cold (empty store) and warm (same store again).
//! With the split analyze stage the cold sweep performs exactly **one**
//! Monte-Carlo probability estimation — the estimate artifact is keyed
//! without θ — and the warm sweep recomputes nothing; both facts are
//! asserted here, and the wall-clock numbers plus per-stage cache hit
//! rates land in the JSON report so regressions show up as a trajectory,
//! not an anecdote.
//!
//! ```text
//! cargo run --release -p deterrent-bench --bin sweep -- --out BENCH_sweep.json
//! ```
//!
//! The human-readable summary goes to stderr; stdout stays silent so the
//! binary composes with shell pipelines.

use std::time::Instant;

use deterrent_bench::{print_store_summary, HarnessOptions};
use deterrent_core::{ArtifactStore, DeterrentSession, StoreCounters};
use netlist::synth::BenchmarkProfile;

/// Bump when a field changes meaning or disappears; adding fields is
/// backward-compatible and needs no bump.
const SCHEMA_VERSION: u32 = 1;

const THETAS: [f64; 4] = [0.10, 0.11, 0.12, 0.14];

/// One full-pipeline pass over every θ; returns total patterns generated
/// (a cheap checksum that the sweep really ran end to end).
fn run_sweep(netlist: &netlist::Netlist, options: &HarnessOptions, store: &ArtifactStore) -> usize {
    THETAS
        .iter()
        .map(|&theta| {
            let config = options.deterrent_config().with_threshold(theta);
            let mut session = DeterrentSession::with_store(netlist, config, store.clone());
            let rare = session.analyze();
            session.run_from(&rare).test_length()
        })
        .sum()
}

/// `"stage": {"mem_hits": H, "disk_hits": D, "computed": C, "hit_rate": R}`
/// for every stage, from the counter *delta* of one sweep pass.
fn stages_json(before: &StoreCounters, after: &StoreCounters) -> String {
    let entries: Vec<String> = after
        .stages()
        .iter()
        .zip(before.stages().iter())
        .map(|((stage, a), (_, b))| {
            let delta = a.since(*b);
            let (hits, disk_hits, computed) = (delta.hits, delta.disk_hits, delta.misses);
            let lookups = hits + disk_hits + computed;
            let rate = if lookups == 0 {
                0.0
            } else {
                (hits + disk_hits) as f64 / lookups as f64
            };
            format!(
                "\"{stage}\": {{\"mem_hits\": {hits}, \"disk_hits\": {disk_hits}, \
                 \"computed\": {computed}, \"hit_rate\": {rate:.4}}}"
            )
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn main() {
    let options = HarnessOptions::from_args();
    let profile = BenchmarkProfile::c6288();
    let netlist = options.netlist(&profile);
    let store = options.store();
    let zero = StoreCounters::default();

    let cold_start = Instant::now();
    let cold_patterns = run_sweep(&netlist, &options, &store);
    let cold_seconds = cold_start.elapsed().as_secs_f64();
    let after_cold = store.counters();

    let warm_start = Instant::now();
    let warm_patterns = run_sweep(&netlist, &options, &store);
    let warm_seconds = warm_start.elapsed().as_secs_f64();
    let after_warm = store.counters();

    // The contract this benchmark exists to track: one estimation per
    // (netlist, seed) however many θ the sweep visits, and a warm sweep
    // that recomputes nothing.
    let estimation_runs_cold = after_cold.estimate.misses + after_cold.estimate.disk_hits;
    assert_eq!(
        estimation_runs_cold, 1,
        "cold sweep must pay for estimation exactly once: {after_cold:?}"
    );
    let warm_computed = after_warm.total_misses() - after_cold.total_misses();
    assert_eq!(
        warm_computed, 0,
        "warm sweep must recompute nothing: {after_warm:?}"
    );
    assert_eq!(cold_patterns, warm_patterns, "cache changed the results");

    let thetas: Vec<String> = THETAS.iter().map(|t| t.to_string()).collect();
    let json = format!(
        "{{\n  \"schema_version\": {SCHEMA_VERSION},\n  \"benchmark\": \"theta_sweep\",\n  \
         \"netlist\": \"{}\",\n  \"gates\": {},\n  \"scale\": {},\n  \"seed\": {},\n  \
         \"thetas\": [{}],\n  \"cold_wall_seconds\": {cold_seconds:.6},\n  \
         \"warm_wall_seconds\": {warm_seconds:.6},\n  \
         \"estimation_runs_cold\": {estimation_runs_cold},\n  \
         \"estimation_runs_warm\": {warm_computed},\n  \
         \"total_patterns\": {cold_patterns},\n  \
         \"cold_stages\": {},\n  \"warm_stages\": {}\n}}\n",
        profile.name,
        netlist.num_logic_gates(),
        options.scale,
        options.seed,
        thetas.join(", "),
        stages_json(&zero, &after_cold),
        stages_json(&after_cold, &after_warm),
    );
    let path = options
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_sweep.json".into());
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));

    eprintln!(
        "[sweep] {} θ values on {} ({} gates): cold {cold_seconds:.3}s, warm {warm_seconds:.3}s, \
         1 estimation — report at {}",
        THETAS.len(),
        profile.name,
        netlist.num_logic_gates(),
        path.display()
    );
    print_store_summary(&store);
    if options.expect_warm {
        deterrent_bench::assert_warm(&store);
    }
}
