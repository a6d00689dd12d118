//! Robustness of the persistent disk-backed artifact cache.
//!
//! The contract under test: a cache directory behaves as a pure
//! accelerator. Warm-from-disk runs are bit-identical to cold runs at any
//! thread count; corrupted, truncated, or version-mismatched artifact files
//! silently fall back to recomputation (and are overwritten with valid
//! files); and concurrent sessions sharing one directory never interfere.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use deterrent_repro::deterrent_core::{
    ArtifactStore, DeterrentConfig, DeterrentResult, DeterrentSession,
};
use deterrent_repro::netlist::synth::BenchmarkProfile;
use deterrent_repro::netlist::Netlist;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty, test-unique cache directory under the system temp dir.
fn temp_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "deterrent-disk-cache-{}-{}-{tag}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn test_netlist() -> Netlist {
    BenchmarkProfile::c2670().scaled(20).generate(11)
}

fn test_config() -> DeterrentConfig {
    DeterrentConfig::fast_preset()
        .with_threshold(0.2)
        .with_episodes(30)
        .with_eval_rollouts(8)
}

fn run_with(netlist: &Netlist, config: DeterrentConfig, store: &ArtifactStore) -> DeterrentResult {
    DeterrentSession::with_store(netlist, config, store.clone()).run()
}

fn assert_bit_identical(a: &DeterrentResult, b: &DeterrentResult, label: &str) {
    assert_eq!(a.patterns, b.patterns, "{label}: patterns");
    assert_eq!(a.sets, b.sets, "{label}: sets");
    assert_eq!(a.rare_nets, b.rare_nets, "{label}: rare nets");
    assert_eq!(
        a.rareness_threshold.to_bits(),
        b.rareness_threshold.to_bits(),
        "{label}: threshold"
    );
    assert_eq!(
        a.metrics.max_compatible_set, b.metrics.max_compatible_set,
        "{label}: max compatible set"
    );
    assert_eq!(
        a.metrics.final_mean_reward.to_bits(),
        b.metrics.final_mean_reward.to_bits(),
        "{label}: final mean reward"
    );
    assert_eq!(
        a.metrics.loss_history.len(),
        b.metrics.loss_history.len(),
        "{label}: loss history length"
    );
    for (i, (x, y)) in a
        .metrics
        .loss_history
        .iter()
        .zip(&b.metrics.loss_history)
        .enumerate()
    {
        assert_eq!(x.0, y.0, "{label}: loss step {i}");
        assert_eq!(
            x.1.total_loss.to_bits(),
            y.1.total_loss.to_bits(),
            "{label}: loss value {i}"
        );
    }
    assert_eq!(
        a.metrics.patterns_witness_reused, b.metrics.patterns_witness_reused,
        "{label}: witness reuse"
    );
    assert_eq!(
        a.metrics.pattern_sat_queries, b.metrics.pattern_sat_queries,
        "{label}: pattern SAT queries"
    );
}

/// Every `.dtc` artifact file under `dir`, sorted for determinism.
fn artifact_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let Ok(stages) = fs::read_dir(dir) else {
        return files;
    };
    for stage in stages.flatten() {
        if let Ok(entries) = fs::read_dir(stage.path()) {
            for entry in entries.flatten() {
                if entry.path().extension().is_some_and(|e| e == "dtc") {
                    files.push(entry.path());
                }
            }
        }
    }
    files.sort();
    files
}

#[test]
fn warm_from_disk_is_bit_identical_to_cold_at_any_thread_count() {
    let nl = test_netlist();
    let dir = temp_cache_dir("warm");

    // Cold at 1 thread populates the directory.
    let cold_store = ArtifactStore::with_disk(&dir);
    let cold = run_with(&nl, test_config().with_threads(1), &cold_store);
    assert_eq!(cold_store.counters().total_disk_hits(), 0, "cold run");
    assert_eq!(cold_store.counters().total_misses(), 6);
    assert_eq!(artifact_files(&dir).len(), 6, "one file per stage");

    // Fresh processes (fresh stores) at 1 and 4 threads recompute nothing:
    // thread counts are excluded from the keys, and the codec round-trips
    // every payload bit-exactly.
    for threads in [1usize, 4] {
        let warm_store = ArtifactStore::with_disk(&dir);
        let warm = run_with(&nl, test_config().with_threads(threads), &warm_store);
        let counters = warm_store.counters();
        assert_eq!(
            counters.total_misses(),
            0,
            "warm at {threads} threads recomputes nothing: {counters:?}"
        );
        assert_eq!(counters.total_disk_hits(), 6, "{threads} threads");
        assert_eq!(counters.total_disk_corrupt(), 0, "{threads} threads");
        assert_bit_identical(
            &cold,
            &warm,
            &format!("warm from disk at {threads} threads"),
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_truncated_and_version_mismatched_files_fall_back_to_recompute() {
    let nl = test_netlist();
    let dir = temp_cache_dir("corrupt");
    let cold = run_with(&nl, test_config(), &ArtifactStore::with_disk(&dir));

    let files = artifact_files(&dir);
    assert_eq!(files.len(), 6);
    // Damage every stage's file a different way: garbage header, flipped
    // magic, truncated payload, wrong format version, flipped payload bit.
    for (i, path) in files.iter().enumerate() {
        let mut bytes = fs::read(path).unwrap();
        match i % 5 {
            0 => bytes = b"not a cache artifact at all".to_vec(),
            1 => bytes[0] ^= 0xFF,
            2 => bytes.truncate(bytes.len() / 2),
            3 => bytes[8] = bytes[8].wrapping_add(1),
            _ => {
                let last = bytes.len() - 1;
                bytes[last] ^= 0x01;
            }
        }
        fs::write(path, &bytes).unwrap();
    }

    // The next run silently recomputes everything — no panic, identical
    // results — and counts each damaged file as corrupt.
    let store = ArtifactStore::with_disk(&dir);
    let recomputed = run_with(&nl, test_config(), &store);
    let counters = store.counters();
    assert_eq!(counters.total_disk_hits(), 0, "{counters:?}");
    assert_eq!(counters.total_disk_corrupt(), 6, "{counters:?}");
    assert_eq!(counters.total_misses(), 6, "{counters:?}");
    assert_bit_identical(&cold, &recomputed, "recomputed over corrupt cache");

    // Recomputation overwrote the damaged files: a third run is fully warm.
    let healed = ArtifactStore::with_disk(&dir);
    let warm = run_with(&nl, test_config(), &healed);
    let counters = healed.counters();
    assert_eq!(counters.total_disk_hits(), 6, "{counters:?}");
    assert_eq!(counters.total_misses(), 0, "{counters:?}");
    assert_bit_identical(&cold, &warm, "healed cache");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn greedy_rerolls_from_a_restored_policy_match_the_trained_one() {
    // A changed select section invalidates the sets artifact but not the
    // policy artifact, so the warm run re-rolls greedily from the policy
    // decoded off disk: it must agree bit for bit with a cold run.
    let nl = test_netlist();
    let dir = temp_cache_dir("reroll");
    let _ = run_with(&nl, test_config(), &ArtifactStore::with_disk(&dir));
    let reroll = test_config().with_eval_rollouts(12);
    let store = ArtifactStore::with_disk(&dir);
    let warm = run_with(&nl, reroll.clone(), &store);
    let counters = store.counters();
    assert_eq!(counters.train.disk_hits, 1, "{counters:?}");
    assert_eq!(counters.select.misses, 1, "{counters:?}");
    let cold = run_with(&nl, reroll, &ArtifactStore::new());
    assert_bit_identical(&cold, &warm, "re-rolled from a restored policy");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_sessions_sharing_one_cache_dir_do_not_interfere() {
    let dir = temp_cache_dir("concurrent");

    // Two threads race whole cold pipelines against the same directory
    // (distinct stores, so every artifact is written twice — the writes
    // must not clobber each other mid-file thanks to rename-on-write).
    let results: Vec<DeterrentResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let dir = dir.clone();
                scope.spawn(move || {
                    let nl = test_netlist();
                    run_with(&nl, test_config(), &ArtifactStore::with_disk(dir))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_bit_identical(&results[0], &results[1], "racing cold sessions");

    // Whatever interleaving happened, the directory now serves a fully warm
    // run with valid files only.
    let nl = test_netlist();
    let store = ArtifactStore::with_disk(&dir);
    let warm = run_with(&nl, test_config(), &store);
    let counters = store.counters();
    assert_eq!(counters.total_misses(), 0, "{counters:?}");
    assert_eq!(counters.total_disk_corrupt(), 0, "{counters:?}");
    assert_eq!(counters.total_disk_hits(), 6, "{counters:?}");
    assert_bit_identical(&results[0], &warm, "warm after the race");
    // No stray files survived the writers: the cache holds only
    // `<stage>/<key:016x>.dtc` artifacts — no temp files, no sidecars, and
    // nothing at the root.
    for stage in fs::read_dir(&dir).unwrap().flatten() {
        assert!(
            stage.path().is_dir(),
            "unexpected file {:?} at the cache root",
            stage.file_name()
        );
        for entry in fs::read_dir(stage.path()).unwrap().flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let is_artifact = name.strip_suffix(".dtc").is_some_and(|stem| {
                stem.len() == 16 && stem.bytes().all(|b| b.is_ascii_hexdigit())
            });
            assert!(
                is_artifact,
                "unexpected leftover file {name:?} in the cache"
            );
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cache_dir_config_knob_and_env_var_attach_the_disk_tier() {
    let nl = test_netlist();
    let dir = temp_cache_dir("knob");

    let config = test_config().with_cache_dir(&dir);
    assert_eq!(config.resolved_cache_dir().as_deref(), Some(dir.as_path()));
    let session = DeterrentSession::new(&nl, config);
    assert_eq!(session.store().disk_dir(), Some(dir.as_path()));

    // Without the knob the session is memory-only (the env-var path cannot
    // be exercised here: setting process-wide environment variables would
    // race the other tests in this harness).
    let plain = test_config();
    if std::env::var_os(DeterrentConfig::CACHE_DIR_ENV).is_none() {
        assert_eq!(plain.resolved_cache_dir(), None);
        let session = DeterrentSession::new(&nl, plain);
        assert_eq!(session.store().disk_dir(), None);
    }
    let _ = fs::remove_dir_all(&dir);
}
