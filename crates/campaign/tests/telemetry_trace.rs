//! End-to-end telemetry invariants over a faulted campaign.
//!
//! The contract under test (CI enforces the binary-level version in the
//! chaos job):
//!
//! 1. Telemetry is out-of-band — a traced report is byte-identical to an
//!    untraced one, at any thread count.
//! 2. Every emitted event is a schema-valid trace line.
//! 3. The canonical projection of the trace is byte-identical at
//!    threads 1 and 4.
//! 4. Trace counters reconcile exactly with the runtime's own counters
//!    ([`exec::ExecStats`], store tier counters, cache events).

use campaign::{CampaignPlan, NetlistSpec, RunPolicy};
use deterrent_core::{ArtifactStore, CachePolicy, DeterrentConfig, FaultPlan};
use exec::Exec;
use netlist::synth::BenchmarkProfile;
use telemetry::{canonicalize_trace, parse_trace, MemorySink, Telemetry, TraceEvent};

/// The chaos plan's eight-cell grid (mirrors the unit suite's tiny plan).
fn plan() -> CampaignPlan {
    CampaignPlan {
        netlists: vec![
            NetlistSpec::new(BenchmarkProfile::c2670(), 25, 3),
            NetlistSpec::new(BenchmarkProfile::c5315(), 30, 3),
        ],
        thetas: vec![0.18, 0.22],
        seeds: vec![7, 8],
        base: DeterrentConfig::fast_preset()
            .with_probability_patterns(1024)
            .with_episodes(12)
            .with_eval_rollouts(4)
            .with_k_patterns(4),
        cell_threads: 1,
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "deterrent-telemetry-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Renders a captured event list as the JSONL document a
/// [`telemetry::JsonlSink`] would have written.
fn to_document(events: &[TraceEvent]) -> String {
    events.iter().fold(String::new(), |mut doc, e| {
        doc.push_str(&e.to_line());
        doc.push('\n');
        doc
    })
}

#[test]
fn traced_faulted_campaign_is_valid_invariant_and_reconciled() {
    let plan = plan();
    let cache = temp_dir("chaos");
    let _ = std::fs::remove_dir_all(&cache);

    // Clean cold run (untraced) populates the disk tier and fixes the
    // expected report bytes.
    let clean_store = ArtifactStore::with_disk(&cache);
    let clean = plan.run(&clean_store, &Exec::new(1));
    assert!(clean.all_recovered());
    let untraced_tsv = clean.to_tsv();

    let spec = "seed=11,panic=1000,timeout=1000,corrupt=800,io=300";
    let mut canonicals = Vec::new();
    let mut tsvs = Vec::new();
    for threads in [1usize, 4] {
        let faults = FaultPlan::parse(spec).expect("spec");
        let store = ArtifactStore::with_disk_policy_faults(
            &cache,
            CachePolicy::default(),
            Some(faults.clone()),
        );
        let sink = MemorySink::new();
        let policy = RunPolicy {
            faults: Some(faults),
            telemetry: Telemetry::new(vec![Box::new(sink.clone())]),
            ..RunPolicy::default()
        };
        let exec = Exec::new(threads);
        let report = plan.run_with_policy(&store, &exec, &policy);
        assert!(report.all_recovered(), "threads={threads}");

        // (2) Every event validates against the schema.
        let document = to_document(&sink.events());
        let events = parse_trace(&document)
            .unwrap_or_else(|e| panic!("threads={threads}: schema violation: {e}"));
        assert!(!events.is_empty());

        // (4) The run span's tallies match the report, and its store and
        // executor deltas match the store's and the executor's own
        // counters.
        let run = events
            .iter()
            .find(|e| e.name == "campaign")
            .expect("campaign root span");
        let recovered = report
            .cells
            .iter()
            .filter(|r| r.outcome.recovered())
            .count() as u64;
        assert_eq!(
            run.attr_u64("ok").unwrap() + run.attr_u64("retried").unwrap(),
            recovered
        );
        assert_eq!(run.attr_u64("cells"), Some(report.cells.len() as u64));
        let counters = store.counters();
        for (stage, c) in counters.stages() {
            let name = stage.name();
            assert_eq!(
                run.vary_u64(&format!("store.{name}.computed")),
                Some(c.misses),
                "threads={threads}: store.{name}.computed"
            );
            assert_eq!(
                run.vary_u64(&format!("store.{name}.disk_hits")),
                Some(c.disk_hits),
                "threads={threads}: store.{name}.disk_hits"
            );
        }
        let cache_events = store.cache_events();
        assert_eq!(run.vary_u64("cache.corrupt"), Some(cache_events.corrupt));
        assert_eq!(run.vary_u64("cache.io"), Some(cache_events.io));
        let exec_stats = exec.stats();
        assert_eq!(run.vary_u64("exec.calls"), Some(exec_stats.calls));
        assert_eq!(run.vary_u64("exec.tasks"), Some(exec_stats.tasks));

        // One cell span per cell, its outcome kind matching the report.
        for row in &report.cells {
            let span = events
                .iter()
                .find(|e| e.name == format!("cell.{}", row.cell.index))
                .unwrap_or_else(|| panic!("threads={threads}: cell.{} span", row.cell.index));
            assert_eq!(span.attr_str("outcome"), Some(row.outcome.kind()));
            assert_eq!(span.attr_u64("patterns"), Some(row.patterns as u64));
        }

        canonicals.push(canonicalize_trace(&document).expect("canonicalizes"));
        tsvs.push(report.to_tsv());
    }

    // (1) Out-of-band: traced faulted warm runs reproduce the clean
    // report's data bytes; the full traced reports agree across thread
    // counts (the fault plan fires on the same sites either way).
    assert_eq!(
        tsvs[0], tsvs[1],
        "report bytes differ between threads 1 and 4"
    );
    let data = |tsv: &str| {
        tsv.lines()
            .map(|l| l.rsplit_once('\t').map_or(l, |(data, _)| data).to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        data(&tsvs[0]),
        data(&untraced_tsv),
        "faulted traced run must reproduce the clean data columns"
    );

    // (3) Canonical projections are byte-identical at threads 1 and 4.
    assert_eq!(
        canonicals[0], canonicals[1],
        "canonical trace differs between threads 1 and 4"
    );

    let _ = std::fs::remove_dir_all(&cache);
}
