//! Tier-breakdown and parallel-speedup report of the simulation-first
//! compatibility funnel.
//!
//! Builds the pairwise-compatibility graph of a scaled benchmark profile
//! twice — once with the paper's all-SAT offline phase and once with the
//! three-tier funnel — verifies the adjacency matrices are bit-identical,
//! and reports how each tier resolved the pairs (tier 3 split into pairs
//! struck by implication probing, pairs struck by a resimulated sweep model,
//! and pairs given a SAT query of their own) plus the reduction in pairwise
//! SAT queries. The offline phase (probability estimation, witness
//! harvest, funnel tiers) is additionally timed at one thread and at
//! `--threads` workers; the deterministic exec runtime guarantees both runs
//! produce the identical graph, so the ratio is a pure wall-clock speedup.
//!
//! Usage: `funnel [--scale N] [--seed N] [--theta F] [--patterns N]
//! [--threads N] [--limit K] [--min-speedup F] [--cache-dir DIR]
//! [--expect-reduction] [--cap-min N]` (defaults match the acceptance
//! profile: c2670 at scale 20, θ = 0.2, and the paper's 100k random-pattern
//! budget). The enumeration tier runs the per-pair cost model up to a union
//! support of 26 scan inputs; `--limit K` lowers that ceiling to K (`--limit 0` disables enumeration, K > 26 is a usage error).
//! `--threads 0` resolves via `DETERRENT_THREADS`/available cores. A
//! non-zero `--min-speedup` turns the speedup report into a gate, skipped
//! when the host has fewer cores than workers (a 1-core box cannot exhibit
//! wall-clock speedup).
//! `--cache-dir DIR` persists the (untimed) all-SAT reference graph in the
//! artifact cache at DIR, so repeat invocations skip the most expensive
//! untimed step; the timed funnel phases always recompute — they are the
//! measurement. A reference served from the cache carries no tier times,
//! so its "pairwise tiers wall clock" cell reads `cached`.
//!
//! `--expect-reduction` gates on the learned-clause database actually being
//! reduced at least once (and staying bounded below the total learned).
//! `--cap-min N` forces the learned-clause cap floor to N (and drops the
//! `originals / 3` term), so reductions demonstrably fire even on small
//! instances that learn few clauses.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use deterrent_core::{
    ArtifactStore, CompatStrategy, CompatibilityGraph, DeterrentConfig, DeterrentSession,
    FunnelOptions, MAX_ENUMERATION_SUPPORT,
};
use exec::Exec;
use netlist::synth::BenchmarkProfile;
use netlist::Netlist;
use sat::SolverConfig;
use sim::rare::RareNetAnalysis;

struct Args {
    scale: usize,
    seed: u64,
    theta: f64,
    patterns: usize,
    threads: usize,
    /// Enumeration support ceiling of the cost model (0 = off).
    max_support: u32,
    min_speedup: f64,
    /// Persistent artifact-cache directory for the all-SAT reference graph.
    cache_dir: Option<PathBuf>,
    /// Gate: the learned-clause database must have been reduced ≥ 1 time.
    expect_reduction: bool,
    /// Override of the solver's learned-clause cap floor. Also drops the
    /// MiniSat-style `originals / 3` term so the override actually binds on
    /// small instances (where few clauses are ever learned).
    cap_min: Option<u64>,
}

impl Args {
    fn solver(&self) -> SolverConfig {
        let mut config = SolverConfig::default();
        if let Some(cap) = self.cap_min {
            config.learnt_cap_min = cap;
            config.learnt_cap_origin_divisor = 0;
        }
        config
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 20,
        seed: 3,
        theta: 0.2,
        patterns: 100_000,
        threads: 1,
        max_support: MAX_ENUMERATION_SUPPORT,
        min_speedup: 0.0,
        cache_dir: None,
        expect_reduction: false,
        cap_min: None,
    };
    // A typo here would otherwise run the acceptance gate on the default
    // configuration while claiming the requested one, so parse strictly.
    fn parse_or_die<T: std::str::FromStr>(flag: &str, v: &str) -> T {
        v.parse().unwrap_or_else(|_| {
            eprintln!("error: invalid value {v:?} for {flag}");
            std::process::exit(2);
        })
    }
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        let value = argv.get(i + 1);
        match (argv[i].as_str(), value) {
            ("--scale", Some(v)) => args.scale = parse_or_die("--scale", v),
            ("--seed", Some(v)) => args.seed = parse_or_die("--seed", v),
            ("--theta", Some(v)) => args.theta = parse_or_die("--theta", v),
            ("--patterns", Some(v)) => args.patterns = parse_or_die("--patterns", v),
            ("--threads", Some(v)) => args.threads = parse_or_die("--threads", v),
            ("--limit", Some(v)) => args.max_support = parse_or_die("--limit", v),
            ("--min-speedup", Some(v)) => args.min_speedup = parse_or_die("--min-speedup", v),
            ("--cache-dir", Some(v)) => args.cache_dir = Some(PathBuf::from(v)),
            ("--expect-reduction", _) => {
                args.expect_reduction = true;
                i += 1;
                continue;
            }
            ("--cap-min", Some(v)) => args.cap_min = Some(parse_or_die("--cap-min", v)),
            (flag, _) => {
                eprintln!(
                    "error: unknown or valueless flag {flag:?} (expected --scale/--seed/--theta/--patterns/--threads/--limit/--min-speedup/--cache-dir/--cap-min <value> or --expect-reduction)"
                );
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if args.scale == 0 {
        eprintln!("error: --scale must be at least 1");
        std::process::exit(2);
    }
    if !(args.theta > 0.0 && args.theta <= 0.5) {
        eprintln!("error: --theta must be in (0, 0.5], got {}", args.theta);
        std::process::exit(2);
    }
    if args.patterns == 0 {
        eprintln!("error: --patterns must be at least 1");
        std::process::exit(2);
    }
    if args.max_support > MAX_ENUMERATION_SUPPORT {
        eprintln!(
            "error: --limit must be at most {MAX_ENUMERATION_SUPPORT}, got {}",
            args.max_support
        );
        std::process::exit(2);
    }
    args
}

/// One full offline phase — probability estimation + witness harvest +
/// funnel graph build — on `threads` workers.
fn offline_phase(
    netlist: &Netlist,
    args: &Args,
    threads: usize,
) -> (RareNetAnalysis, CompatibilityGraph, Duration) {
    let start = Instant::now();
    let exec = Exec::new(threads.max(1));
    let analysis =
        RareNetAnalysis::estimate_with(netlist, args.theta, args.patterns, args.seed, &exec);
    let strategy = CompatStrategy::Funnel(FunnelOptions {
        max_support: args.max_support,
        solver: args.solver(),
    });
    let graph = CompatibilityGraph::build_on(netlist, &analysis, strategy, &exec);
    (analysis, graph, start.elapsed())
}

/// Best-of-N wall clock of the offline phase, returning the last run's
/// outputs (all runs produce bit-identical results by construction).
fn timed_phase(
    netlist: &Netlist,
    args: &Args,
    threads: usize,
) -> (RareNetAnalysis, CompatibilityGraph, Duration) {
    const RUNS: usize = 3;
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..RUNS {
        let (analysis, graph, elapsed) = offline_phase(netlist, args, threads);
        best = best.min(elapsed);
        out = Some((analysis, graph));
    }
    let (analysis, graph) = out.expect("at least one run");
    (analysis, graph, best)
}

fn main() {
    let args = parse_args();
    let profile = if args.scale == 1 {
        BenchmarkProfile::c2670()
    } else {
        BenchmarkProfile::c2670().scaled(args.scale)
    };
    let netlist = profile.generate(args.seed);
    let threads = Exec::new(args.threads).threads();
    println!(
        "design {}: {} gates ({} logic), {} scan inputs, {} worker thread(s)",
        netlist.name(),
        netlist.num_gates(),
        netlist.num_logic_gates(),
        netlist.num_scan_inputs(),
        threads,
    );
    match args.max_support {
        0 => println!("enumeration: disabled (--limit 0)"),
        k => println!("enumeration: per-pair cost model, max support {k}"),
    }

    // ── Deterministic parallel speedup of the offline phase. ───────────────
    let (serial_analysis, serial_graph, serial_time) = timed_phase(&netlist, &args, 1);
    let (analysis, funnel, parallel_time) = if threads == 1 {
        // One thread is both the baseline and the measurement — don't pay
        // for the phase twice.
        (serial_analysis, serial_graph.clone(), serial_time)
    } else {
        timed_phase(&netlist, &args, threads)
    };
    assert_eq!(
        serial_graph.matrix(),
        funnel.matrix(),
        "exec runtime must be bit-identical at any thread count"
    );
    println!(
        "rare nets at θ = {}: {} ({} simulated patterns retained as witnesses)",
        args.theta,
        analysis.len(),
        analysis
            .witnesses()
            .map_or(0, sim::WitnessBank::num_patterns),
    );

    // ── All-SAT reference for the query-reduction gate. ────────────────────
    // With `--cache-dir` the reference goes through a disk-backed session
    // keyed by the analysis *content*, so a repeat invocation loads the
    // graph (and its SAT-query stats) instead of paying for the all-SAT
    // build again. The timed phases above always recompute — they are the
    // measurement, and caching them would measure the cache.
    let (all_sat, all_sat_cached) = if let Some(dir) = &args.cache_dir {
        let store = ArtifactStore::with_disk(dir.clone());
        let config = DeterrentConfig::default()
            .with_threads(threads)
            .with_strategy(CompatStrategy::AllSat);
        let mut session = DeterrentSession::with_store(&netlist, config, store.clone());
        let rare = session.import_analysis(analysis.clone());
        let artifact = session.build_graph(&rare);
        let cached = store.counters().build_graph.disk_hits > 0;
        if cached {
            eprintln!(
                "(all-SAT reference served from the persistent cache at {})",
                dir.display()
            );
        }
        (artifact.graph().clone(), cached)
    } else {
        let graph = CompatibilityGraph::build_on(
            &netlist,
            &analysis,
            CompatStrategy::AllSat,
            &Exec::new(threads),
        );
        (graph, false)
    };

    assert_eq!(
        funnel.matrix(),
        all_sat.matrix(),
        "funnel adjacency must be bit-identical to the all-SAT result"
    );
    println!("\nadjacency matrices are bit-identical ✓ (all-SAT, funnel ×1, funnel ×{threads})");

    let fs = funnel.stats();
    let along = all_sat.stats();
    println!(
        "\n{:<34} {:>12} {:>12}",
        "offline phase", "all-SAT", "funnel"
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "kept rare nets", along.kept_rare_nets, fs.kept_rare_nets
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "pairs total", along.pairs_total, fs.pairs_total
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "  tier 1: sim-witnessed", along.pairs_sim_witnessed, fs.pairs_sim_witnessed
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "  tier 2: structurally pruned",
        along.pairs_structurally_pruned,
        fs.pairs_structurally_pruned
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "  tier 2: cone-enumerated", along.pairs_cone_enumerated, fs.pairs_cone_enumerated
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "  tier 3: probe-struck", along.pairs_probe_struck, fs.pairs_probe_struck
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "  tier 3: sweep-struck", along.pairs_sweep_struck, fs.pairs_sweep_struck
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "  tier 3: SAT-resolved", along.pairs_sat_resolved, fs.pairs_sat_resolved
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "singleton SAT queries", along.singleton_sat_queries, fs.singleton_sat_queries
    );
    println!(
        "{:<34} {:>12} {:>12}",
        "total SAT queries",
        along.total_sat_queries(),
        fs.total_sat_queries()
    );
    // Both sides measured the same way: the pairwise-tier wall clock of one
    // graph build (the funnel's probability estimation is shared setup, not
    // part of this comparison).
    let along_wall = if all_sat_cached {
        "cached".to_string()
    } else {
        format!("{:.1?}", Duration::from_nanos(along.tier_nanos_total()))
    };
    println!(
        "{:<34} {:>12} {:>12.1?}",
        "pairwise tiers wall clock",
        along_wall,
        Duration::from_nanos(fs.tier_nanos_total()),
    );
    println!(
        "\nfunnel tier wall clock (×{threads}): tier1 {:?}, tier2 {:?}, tier3 {:?} \
         (probe {:?}, sweep {:?})",
        Duration::from_nanos(fs.tier1_nanos),
        Duration::from_nanos(fs.tier2_nanos),
        Duration::from_nanos(fs.tier3_nanos),
        Duration::from_nanos(fs.tier3_probe_nanos),
        Duration::from_nanos(fs.tier3_sweep_nanos),
    );

    let pairwise_reduction = if fs.pairwise_sat_queries() == 0 {
        f64::INFINITY
    } else {
        along.pairwise_sat_queries() as f64 / fs.pairwise_sat_queries() as f64
    };
    println!(
        "\npairwise SAT queries: {} -> {} ({pairwise_reduction:.1}x reduction, {:.1}% of pairs SAT-free)",
        along.pairwise_sat_queries(),
        fs.pairwise_sat_queries(),
        100.0 * fs.sat_free_pair_fraction()
    );

    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64().max(1e-12);
    println!(
        "offline phase wall clock: {serial_time:.1?} (1 thread) -> {parallel_time:.1?} ({threads} thread(s)): {speedup:.2}x speedup"
    );

    // ── SAT-core internals of the funnel build (greppable one-liners). ─────
    let sv = fs.solver;
    println!(
        "\nsolver counters: decisions={} conflicts={} propagations={} restarts={}",
        sv.decisions, sv.conflicts, sv.propagations, sv.restarts
    );
    println!(
        "learned clauses: learned={} deleted={} reduces={} peak_live={}",
        sv.learned_clauses, sv.deleted_clauses, sv.reduces, sv.peak_learnts
    );

    let mut failed = false;
    if args.expect_reduction {
        // "Bounded" means deletion actually held the live learned set below
        // the total ever learned — not merely that the reducer ran.
        if sv.reduces >= 1 && sv.deleted_clauses >= 1 && sv.peak_learnts < sv.learned_clauses {
            println!(
                "acceptance: learned-clause DB reduced {}x, peak {} of {} learned ✓",
                sv.reduces, sv.peak_learnts, sv.learned_clauses
            );
        } else {
            println!(
                "acceptance: FAILED — expected learned-clause reduction (reduces={} deleted={} peak={} learned={})",
                sv.reduces, sv.deleted_clauses, sv.peak_learnts, sv.learned_clauses
            );
            failed = true;
        }
    }
    if pairwise_reduction >= 5.0 {
        println!("acceptance: ≥5x pairwise SAT reduction ✓");
    } else {
        println!("acceptance: FAILED — reduction below 5x");
        failed = true;
    }
    if args.min_speedup > 0.0 {
        let host_cores =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        if host_cores < threads {
            // A wall-clock speedup cannot exceed the host's core count; on a
            // box with fewer cores than requested workers the gate would
            // measure the scheduler, not the runtime. Determinism is still
            // asserted above either way.
            println!(
                "acceptance: speedup gate skipped — host exposes {host_cores} core(s) for {threads} requested worker(s)"
            );
        } else if speedup >= args.min_speedup {
            println!(
                "acceptance: ≥{:.1}x offline-phase speedup at {threads} threads ✓",
                args.min_speedup
            );
        } else {
            println!(
                "acceptance: FAILED — speedup {speedup:.2}x below {:.1}x",
                args.min_speedup
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
