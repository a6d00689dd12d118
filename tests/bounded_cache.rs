//! The bounded disk cache: budgets, LRU order, read pinning, and the
//! offline maintenance API.
//!
//! The contract under test extends `tests/disk_cache.rs`: with a
//! [`CachePolicy`] attached, the cache directory never exceeds its byte
//! budget after an insert; victims are chosen least-recently-used by the
//! artifacts' modification-time stamps (which survive process boundaries —
//! emulated here with fresh stores on one directory); and artifacts *read*
//! by a store are never evicted by that same store.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use deterrent_repro::deterrent_core::cache::{cache_stats, gc, verify};
use deterrent_repro::deterrent_core::{
    ArtifactStore, CachePolicy, DeterrentConfig, DeterrentResult, DeterrentSession,
};
use deterrent_repro::netlist::synth::BenchmarkProfile;
use deterrent_repro::netlist::Netlist;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "deterrent-bounded-cache-{}-{}-{tag}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn test_netlist() -> Netlist {
    BenchmarkProfile::c2670().scaled(20).generate(11)
}

fn test_config(seed: u64) -> DeterrentConfig {
    DeterrentConfig::fast_preset()
        .with_threshold(0.2)
        .with_episodes(24)
        .with_eval_rollouts(8)
        .with_seed(seed)
}

fn run_with(netlist: &Netlist, config: DeterrentConfig, store: &ArtifactStore) -> DeterrentResult {
    DeterrentSession::with_store(netlist, config, store.clone()).run()
}

/// Every file in the stage directories under `dir` with its size.
fn cache_files(dir: &Path) -> BTreeMap<PathBuf, u64> {
    let mut files = BTreeMap::new();
    let Ok(stages) = fs::read_dir(dir) else {
        return files;
    };
    for stage in stages.flatten() {
        if let Ok(entries) = fs::read_dir(stage.path()) {
            for entry in entries.flatten() {
                if let Ok(meta) = entry.metadata() {
                    files.insert(entry.path(), meta.len());
                }
            }
        }
    }
    files
}

fn total_bytes(dir: &Path) -> u64 {
    cache_files(dir).values().sum()
}

/// The `.dtc` artifact paths under `dir`, sorted.
fn artifact_paths(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = cache_files(dir)
        .into_keys()
        .filter(|p| p.extension().is_some_and(|e| e == "dtc"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn max_bytes_is_enforced_on_insert() {
    let nl = test_netlist();

    // Measure the unbounded footprint of a two-seed grid first.
    let unbounded_dir = temp_cache_dir("unbounded");
    let unbounded_store = ArtifactStore::with_disk(&unbounded_dir);
    let baseline_a = run_with(&nl, test_config(1), &unbounded_store);
    let baseline_b = run_with(&nl, test_config(2), &unbounded_store);
    let unbounded_total = total_bytes(&unbounded_dir);
    assert!(unbounded_total > 0);

    // Two thirds of that budget must force evictions — and the directory
    // must end every insert under budget, which subsumes ending the run
    // under budget.
    let budget = unbounded_total * 2 / 3;
    let bounded_dir = temp_cache_dir("bounded");
    let bounded_store = ArtifactStore::with_disk_policy(
        &bounded_dir,
        CachePolicy::default().with_max_bytes(budget),
    );
    let bounded_a = run_with(&nl, test_config(1), &bounded_store);
    let bounded_b = run_with(&nl, test_config(2), &bounded_store);

    assert!(
        total_bytes(&bounded_dir) <= budget,
        "cache size {} exceeds the {budget}-byte budget",
        total_bytes(&bounded_dir)
    );
    assert!(
        artifact_paths(&bounded_dir).len() < artifact_paths(&unbounded_dir).len(),
        "a budget two thirds of the unbounded footprint must evict something"
    );
    // Budgets never affect results.
    assert_eq!(baseline_a.patterns, bounded_a.patterns);
    assert_eq!(baseline_b.patterns, bounded_b.patterns);
    assert_eq!(baseline_a.sets, bounded_a.sets);
    assert_eq!(baseline_b.sets, bounded_b.sets);

    let _ = fs::remove_dir_all(&unbounded_dir);
    let _ = fs::remove_dir_all(&bounded_dir);
}

#[test]
fn per_stage_budget_prunes_only_the_oversized_stage() {
    let nl = test_netlist();
    let dir = temp_cache_dir("per-stage");

    // Unbounded first: measure the train directory (policy artifacts
    // dominate the cache — the motivating observation).
    let store = ArtifactStore::with_disk(&dir);
    for seed in [1, 2, 3] {
        let _ = run_with(&nl, test_config(seed), &store);
    }
    let train_dir_bytes = || -> u64 {
        fs::read_dir(dir.join("train"))
            .map(|it| {
                it.flatten()
                    .filter_map(|e| e.metadata().ok().map(|m| m.len()))
                    .sum()
            })
            .unwrap_or(0)
    };
    let full_train = train_dir_bytes();
    assert!(full_train > 0);
    let analyze_count = artifact_paths(&dir)
        .iter()
        .filter(|p| p.parent().is_some_and(|d| d.ends_with("analyze")))
        .count();
    assert_eq!(analyze_count, 3);

    // A fresh store with a per-stage cap of ~half the train directory
    // evicts oldest policies on the next insert and leaves every other
    // stage alone.
    let capped = ArtifactStore::with_disk_policy(
        &dir,
        CachePolicy::default().with_per_stage_max(full_train / 2),
    );
    let _ = run_with(&nl, test_config(4), &capped);
    assert!(
        train_dir_bytes() <= full_train / 2,
        "train dir must fit its cap"
    );
    let analyze_after = artifact_paths(&dir)
        .iter()
        .filter(|p| p.parent().is_some_and(|d| d.ends_with("analyze")))
        .count();
    assert_eq!(analyze_after, 4, "other stages keep every artifact");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn lru_order_is_respected_across_processes() {
    let nl = test_netlist();
    let dir = temp_cache_dir("lru");

    // "Process" 1 populates seed 1 then seed 2 (seed 1's stamps older).
    let writer = ArtifactStore::with_disk(&dir);
    let baseline = run_with(&nl, test_config(1), &writer);
    let seed1_files = artifact_paths(&dir);
    let _ = run_with(&nl, test_config(2), &writer);
    let both = total_bytes(&dir);

    // "Process" 2 (a fresh store) re-reads seed 1, refreshing its access
    // stamps — now seed *2* is the least recently used.
    let toucher = ArtifactStore::with_disk(&dir);
    let warm = run_with(&nl, test_config(1), &toucher);
    assert_eq!(toucher.counters().total_misses(), 0, "seed 1 fully warm");
    assert_eq!(warm.patterns, baseline.patterns, "warm restore matches");

    // "Process" 3 inserts seed 3 under a budget that only holds two seeds'
    // worth (plus slack for per-seed size variance in loss histories and
    // harvests): the LRU victims must be seed 2's files, not the
    // recently-touched seed 1's.
    let budget = both + 8192;
    let evictor =
        ArtifactStore::with_disk_policy(&dir, CachePolicy::default().with_max_bytes(budget));
    let _ = run_with(&nl, test_config(3), &evictor);
    assert!(total_bytes(&dir) <= budget);
    for path in &seed1_files {
        assert!(
            path.exists(),
            "recently-used seed-1 artifact {path:?} was evicted before stale seed-2 files"
        );
    }
    // And a fourth store still serves seed 1 fully warm.
    let reader = ArtifactStore::with_disk(&dir);
    let again = run_with(&nl, test_config(1), &reader);
    assert_eq!(reader.counters().total_misses(), 0, "seed 1 still warm");
    assert_eq!(warm.patterns, again.patterns);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn eviction_never_claims_an_artifact_read_by_the_current_run() {
    let nl = test_netlist();
    let dir = temp_cache_dir("pinned");

    // Populate seeds 1 and 2 unbounded.
    let writer = ArtifactStore::with_disk(&dir);
    let _ = run_with(&nl, test_config(1), &writer);
    let seed1_files = artifact_paths(&dir);
    let _ = run_with(&nl, test_config(2), &writer);
    let both = total_bytes(&dir);

    // A bounded store *reads* seed 1 (pinning it), after which another
    // process makes seed 2 the most recently used — so pure LRU would now
    // evict seed 1 first.
    let budget = both + 8192;
    let bounded =
        ArtifactStore::with_disk_policy(&dir, CachePolicy::default().with_max_bytes(budget));
    let _ = run_with(&nl, test_config(1), &bounded);
    assert_eq!(bounded.counters().total_misses(), 0);
    let freshen = ArtifactStore::with_disk(&dir);
    let _ = run_with(&nl, test_config(2), &freshen);
    assert_eq!(freshen.counters().total_misses(), 0);

    // The bounded store now inserts seed 3, forcing evictions. Stamp-wise
    // seed 1 is the oldest, but the store read it this run — the pin must
    // divert eviction to seed 2.
    let _ = run_with(&nl, test_config(3), &bounded);
    assert!(total_bytes(&dir) <= budget);
    for path in &seed1_files {
        assert!(
            path.exists(),
            "artifact {path:?} was read by this store and must not be evicted by it"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn per_stage_cap_keeps_cheap_stages_warm_across_campaign_reruns() {
    // The CI bounded-cache gate in miniature: a four-seed "campaign" run
    // against a cache whose per-stage cap only the train directory
    // exceeds. The five cheap stages must be fully retained (and therefore
    // fully warm on the rerun); train recomputes for the evicted cells.
    // A tight *global* LRU budget cannot promise this — a cyclic rescan of
    // a working set larger than the budget is the classic LRU scan
    // anomaly, evicting every artifact just before it is needed — which is
    // exactly why the per-stage knob exists (policy files dominate).
    let nl = test_netlist();
    let seeds = [1u64, 2, 3, 4];

    // Self-calibrate: measure the unbounded train-directory footprint.
    let probe_dir = temp_cache_dir("probe");
    let probe = ArtifactStore::with_disk(&probe_dir);
    let baselines: Vec<DeterrentResult> = seeds
        .iter()
        .map(|&s| run_with(&nl, test_config(s), &probe))
        .collect();
    let train_bytes = |dir: &Path| -> u64 {
        fs::read_dir(dir.join("train"))
            .map(|it| {
                it.flatten()
                    .filter_map(|e| e.metadata().ok().map(|m| m.len()))
                    .sum()
            })
            .unwrap_or(0)
    };
    let cap = train_bytes(&probe_dir) * 5 / 8; // holds 2 of 4 policies
    let _ = fs::remove_dir_all(&probe_dir);

    let dir = temp_cache_dir("campaign");
    let policy = CachePolicy::default().with_per_stage_max(cap);
    let cold = ArtifactStore::with_disk_policy(&dir, policy);
    for &s in &seeds {
        let _ = run_with(&nl, test_config(s), &cold);
    }
    assert!(
        train_bytes(&dir) <= cap,
        "train dir over its cap after cold run"
    );

    // Rerun from a fresh store (a new process): every retained stage is
    // 100% warm; only train recomputes, and only for evicted cells.
    let warm = ArtifactStore::with_disk_policy(&dir, policy);
    for (&s, baseline) in seeds.iter().zip(&baselines) {
        let rerun = run_with(&nl, test_config(s), &warm);
        assert_eq!(baseline.patterns, rerun.patterns, "seed {s}");
        assert_eq!(baseline.sets, rerun.sets, "seed {s}");
    }
    let counters = warm.counters();
    for (stage, c) in [
        ("estimate", counters.estimate),
        ("analyze", counters.analyze),
        ("build_graph", counters.build_graph),
        ("select", counters.select),
        ("generate", counters.generate),
    ] {
        assert_eq!(c.misses, 0, "{stage} must be fully retained: {c:?}");
        assert_eq!(c.disk_hits, seeds.len() as u64, "{stage}: {c:?}");
    }
    assert!(counters.train.misses > 0, "the capped stage recomputes");
    assert_eq!(counters.total_disk_corrupt(), 0);
    assert!(
        train_bytes(&dir) <= cap,
        "train dir over its cap after rerun"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn maintenance_api_stats_verify_and_gc() {
    let nl = test_netlist();
    let dir = temp_cache_dir("maintenance");
    let store = ArtifactStore::with_disk(&dir);
    let _ = run_with(&nl, test_config(1), &store);
    let _ = run_with(&nl, test_config(2), &store);

    // Stats agree with a filesystem walk.
    let stats = cache_stats(&dir).expect("stats");
    assert_eq!(stats.total_files(), 12, "two seeds × six stages");
    assert_eq!(stats.total_bytes(), total_bytes(&dir));

    // A clean cache verifies clean (healing is a no-op).
    let clean = verify(&dir, true);
    assert!(clean.is_clean(), "{clean:?}");
    assert_eq!(clean.valid, 12);

    // Corrupt one artifact and leave an access-stamp sidecar behind, as a
    // cache written by an older format version would.
    let victim = artifact_paths(&dir).pop().unwrap();
    let mut bytes = fs::read(&victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x40;
    fs::write(&victim, &bytes).unwrap();
    let leftover = dir.join("analyze").join("deadbeefdeadbeef.lru");
    fs::write(&leftover, 7u64.to_le_bytes()).unwrap();

    // Report-only verify finds it and leaves it in place; healing verify
    // deletes it; afterwards the cache is clean again.
    let found = verify(&dir, false);
    assert_eq!(found.corrupt, vec![victim.clone()]);
    assert!(!found.is_clean() && victim.exists());
    assert!(found.io_errors.is_empty(), "corruption is not an I/O error");
    let healed = verify(&dir, true);
    assert_eq!(healed.corrupt, vec![victim.clone()]);
    assert!(!victim.exists(), "healing removes the corrupt file");
    assert!(verify(&dir, true).is_clean());

    // gc removes the leftover `.lru` and prunes LRU-first to a budget.
    let before = cache_stats(&dir).unwrap().total_bytes();
    let report = gc(&dir, &CachePolicy::default().with_max_bytes(before / 2)).expect("gc");
    assert_eq!(report.stale_removed, 1);
    assert!(!leftover.exists());
    assert!(report.evicted_files > 0);
    assert!(report.bytes_remaining <= before / 2);
    assert_eq!(report.bytes_remaining, total_bytes(&dir));

    // What survived still verifies.
    assert!(verify(&dir, true).is_clean());
    let _ = fs::remove_dir_all(&dir);
}
