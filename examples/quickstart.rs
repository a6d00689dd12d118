//! Quickstart: drive the staged DETERRENT session on a synthetic
//! c2670-profile netlist, watch per-stage progress through the session's
//! telemetry, and inspect the generated test patterns.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use deterrent_repro::deterrent_core::{DeterrentConfig, DeterrentSession};
use deterrent_repro::netlist::synth::BenchmarkProfile;
use deterrent_repro::sim::Simulator;
use telemetry::{Telemetry, TraceEvent, TraceSink, Value};

/// Prints one line per closed stage span: the stage's output cardinality
/// (`items`), its wall time (`wall_ns`), and whether its artifact came from
/// the cache (`cache_hit`). Other spans (executor dispatches) carry no
/// `stage` attribute and print nothing.
struct StageLines;

impl TraceSink for StageLines {
    fn event(&self, event: &TraceEvent) {
        let (Some(stage), Some(items), Some(wall_ns)) = (
            event.attr_str("stage"),
            event.attr_u64("items"),
            event.vary_u64("wall_ns"),
        ) else {
            return;
        };
        let cached = event.vary.get("cache_hit").and_then(Value::as_bool) == Some(true);
        println!(
            "  [{stage}] {items} items in {:.1} ms{}",
            wall_ns as f64 / 1e6,
            if cached { " (cached)" } else { "" }
        );
    }
}

fn main() {
    // 1. Build (or load) a gate-level netlist. Here we generate the synthetic
    //    c2670-profile benchmark scaled down for a fast demo; use
    //    `netlist::bench::parse` to load a real ISCAS .bench file instead.
    let netlist = BenchmarkProfile::c2670().scaled(15).generate(42);
    println!(
        "design {}: {} gates, {} scan inputs",
        netlist.name(),
        netlist.num_logic_gates(),
        netlist.num_scan_inputs()
    );

    // 2. Open a staged session and run the five stages explicitly: rare-net
    //    analysis, offline pairwise compatibility, PPO training with action
    //    masking, set selection, SAT pattern generation. Each stage returns a
    //    cache-keyed artifact you can reuse across configs.
    //    Pass `--cache-dir DIR` (or set DETERRENT_CACHE_DIR) to persist the
    //    artifacts on disk: a second invocation then skips every stage.
    let mut config = DeterrentConfig::fast_preset();
    if let Some(dir) = deterrent_repro::cache_dir_arg() {
        config = config.with_cache_dir(dir);
    }
    let mut session = DeterrentSession::new(&netlist, config);
    session.set_telemetry(Telemetry::new(vec![Box::new(StageLines)]), None);
    println!("stages:");
    let rare = session.analyze();
    let graph = session.build_graph(&rare);
    let policy = session.train(&graph);
    let sets = session.select(&graph, &policy);
    let result = session.generate(&graph, &policy, &sets);
    println!(
        "rare nets: {}   largest compatible set: {}   patterns: {}",
        result.rare_nets.len(),
        result.metrics.max_compatible_set,
        result.test_length()
    );

    // 3. Rerunning any stage is free — artifacts come from the session store.
    let again = session.analyze();
    assert_eq!(again.key(), rare.key());
    println!(
        "store: {} artifacts, {} hits / {} misses",
        session.store().len(),
        session.store().counters().total_hits(),
        session.store().counters().total_misses()
    );

    // 4. Inspect the patterns: each one drives a whole set of rare nets to
    //    their rare values simultaneously.
    let sim = Simulator::new(&netlist);
    for (i, pattern) in result.patterns.iter().enumerate().take(5) {
        let values = sim.run(pattern);
        let excited = rare
            .analysis()
            .rare_nets()
            .iter()
            .filter(|r| values.value(r.net) == r.rare_value)
            .count();
        println!("pattern {i}: {pattern} excites {excited} rare nets");
    }
}
