//! Cache budgets, LRU eviction, and offline maintenance of the disk tier.
//!
//! Without a budget the persistent artifact cache grows without bound:
//! every distinct key writes a file and nothing ever deletes one. This
//! module makes the disk tier *self-maintaining*:
//!
//! * [`CachePolicy`] — a size budget ([`CachePolicy::max_bytes`] for the
//!   whole cache, [`CachePolicy::per_stage_max`] per stage directory)
//!   enforced **on every insert** (see the `codec` module docs for the
//!   on-disk format).
//! * LRU ordering by each artifact's own **modification time**, which the
//!   store sets explicitly on insert and on every disk hit — *not* by file
//!   `atime`: CI runners and many production mounts are `noatime`, so
//!   access times cannot be trusted. Stamps are monotonic within a process
//!   (wall-clock nanoseconds fused with an atomic counter), so stores in
//!   different processes sharing one directory still agree on recency to
//!   wall-clock precision.
//! * An eviction guarantee: an artifact **read by the current process is
//!   never evicted by that process** (the store pins every disk hit), so a
//!   long campaign can re-open artifacts it already used without them
//!   vanishing mid-run. Freshly *inserted* artifacts are evictable — they
//!   are already in the memory tier, so deleting the file costs nothing
//!   until the next process.
//! * Offline maintenance entry points used by the `deterrent-cache` CLI:
//!   [`cache_stats`] (per-stage file counts and bytes), [`gc`] (prune
//!   stale files, corrupt files, and over-budget artifacts), and
//!   [`verify`] (validate every file's header + checksum, optionally
//!   healing by deletion, with I/O errors reported separately from
//!   corruption so CI can gate on the distinction).
//!
//! Budgets never affect results — only which lookups are served warm. The
//! [`crate::DeterrentConfig::cache_policy`] knob and the
//! `DETERRENT_CACHE_MAX_BYTES` environment variable (see
//! [`crate::DeterrentConfig::resolved_cache_policy`]) configure the policy
//! for sessions; [`crate::ArtifactStore::with_disk_policy`] sets it
//! directly.
//!
//! # Choosing between the two budgets
//!
//! A *global* budget smaller than a campaign's whole working set hits the
//! classic **LRU scan anomaly** on reruns: a cyclic rescan evicts every
//! artifact just before it is needed, so the second sweep runs cold even
//! though it stays under budget (output is still byte-identical — budgets
//! never change results, only wall clock). When the goal is "keep the
//! cheap stages warm and shed the expensive ones", use
//! [`CachePolicy::per_stage_max`]: on the default campaign grid a cell
//! writes about 120 kB of train-stage files (159 kB for the largest)
//! against about 78 kB for the other five stages together, so a cap that
//! only the `train/` directory exceeds retains
//! estimate/analyze/graph/select/generate in full across reruns and
//! confines recomputation (and the anomaly) to the train stage.
//! The CI bounded-cache gate does exactly this. Use `max_bytes` as the
//! hard disk ceiling and `per_stage_max` as the retention shaper.

use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::codec;
use crate::Stage;

/// Classification of a disk-tier failure.
///
/// Every ad-hoc "treat as corrupt" path of the disk tier now produces one of
/// these kinds, so failure events are countable and distinguishable (see
/// [`CacheEvents`]) while the recovery semantics stay exactly what they
/// were: recompute and heal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheErrorKind {
    /// The file's magic, stage tag, key, length, checksum, or payload
    /// structure is invalid.
    Corrupt,
    /// The header is intact but carries a different format version (an old
    /// or future cache — recomputed, never migrated).
    VersionMismatch,
    /// The file or directory could not be read or written.
    Io,
    /// A budget-driven eviction removed the artifact.
    Budget,
}

impl CacheErrorKind {
    /// Stable lower-case name (`corrupt`, `version-mismatch`, `io`,
    /// `budget`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Corrupt => "corrupt",
            Self::VersionMismatch => "version-mismatch",
            Self::Io => "io",
            Self::Budget => "budget",
        }
    }
}

/// A classified disk-tier failure: what kind, which artifact, and a short
/// human-readable detail. All variants heal the same way (the stage
/// recomputes and overwrites), so this type is informational — it feeds the
/// [`CacheEvents`] counters and the rate-limited heal warning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheError {
    /// The failure class.
    pub kind: CacheErrorKind,
    /// The stage whose artifact failed.
    pub stage: Stage,
    /// The artifact cache key.
    pub key: u64,
    /// Short description of what exactly failed.
    pub detail: String,
}

impl CacheError {
    pub(crate) fn new(
        kind: CacheErrorKind,
        stage: Stage,
        key: u64,
        detail: impl Into<String>,
    ) -> Self {
        Self {
            kind,
            stage,
            key,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} artifact {}/{:016x}: {}",
            self.kind.name(),
            self.stage,
            self.key,
            self.detail
        )
    }
}

impl std::error::Error for CacheError {}

/// Per-kind counters of every disk-tier failure event a store has seen,
/// including budget-driven evictions. Counting is additional to — never a
/// replacement for — the per-stage [`crate::StageCounters`]: a corrupt
/// lookup still counts in `disk_corrupt` exactly as before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheEvents {
    /// Structurally invalid files encountered (header, checksum, or payload
    /// decode failures).
    pub corrupt: u64,
    /// Files with an intact header but a different format version.
    pub version_mismatch: u64,
    /// Read or write I/O errors (including injected ones).
    pub io: u64,
    /// Artifacts evicted by budget enforcement.
    pub budget_evictions: u64,
}

impl CacheEvents {
    /// The events between `before` and `self`, each kind saturating at
    /// zero.
    #[must_use]
    pub fn since(self, before: CacheEvents) -> CacheEvents {
        CacheEvents {
            corrupt: self.corrupt.saturating_sub(before.corrupt),
            version_mismatch: self
                .version_mismatch
                .saturating_sub(before.version_mismatch),
            io: self.io.saturating_sub(before.io),
            budget_evictions: self
                .budget_evictions
                .saturating_sub(before.budget_evictions),
        }
    }

    /// Total failure events across all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.corrupt + self.version_mismatch + self.io + self.budget_evictions
    }
}

/// Size budget of the persistent disk tier.
///
/// The default policy is unbounded (both budgets `None`). Budgets are
/// enforced on every insert: after writing a new artifact the store evicts
/// least-recently-used files (skipping any artifact this process has read)
/// until the cache fits. A policy never changes results, only what is
/// served warm, so it is excluded from every cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CachePolicy {
    /// Maximum total bytes of the cache's artifact files, or `None` for
    /// unbounded.
    pub max_bytes: Option<u64>,
    /// Maximum bytes per stage directory, applied before the global
    /// budget. Useful because train-stage artifacts dominate (about 1.6×
    /// the other five stages combined on the default campaign grid).
    pub per_stage_max: Option<u64>,
}

impl CachePolicy {
    /// An unbounded policy (the default).
    #[must_use]
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A policy bounding the whole cache at `max_bytes`.
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// Returns a copy bounding every stage directory at `per_stage_max`.
    #[must_use]
    pub fn with_per_stage_max(mut self, per_stage_max: u64) -> Self {
        self.per_stage_max = Some(per_stage_max);
        self
    }

    /// `true` when neither budget is set (no insert-time eviction runs).
    #[must_use]
    pub fn is_unbounded(&self) -> bool {
        self.max_bytes.is_none() && self.per_stage_max.is_none()
    }
}

/// Parses a human-friendly byte count: a plain integer, or one with a
/// `k`/`m`/`g` suffix (powers of 1024, case-insensitive). Used by the
/// `--cache-max-bytes` CLI flags and the `DETERRENT_CACHE_MAX_BYTES`
/// environment variable.
///
/// ```
/// use deterrent_core::parse_bytes;
/// assert_eq!(parse_bytes("65536"), Some(65536));
/// assert_eq!(parse_bytes("64k"), Some(64 * 1024));
/// assert_eq!(parse_bytes("2M"), Some(2 * 1024 * 1024));
/// assert_eq!(parse_bytes("1g"), Some(1024 * 1024 * 1024));
/// assert_eq!(parse_bytes("nope"), None);
/// ```
#[must_use]
pub fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, multiplier) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 1024u64),
        b'm' | b'M' => (&s[..s.len() - 1], 1024 * 1024),
        b'g' | b'G' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(multiplier))
}

/// Disk usage of one stage directory, reported by [`cache_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageUsage {
    /// Which stage.
    pub stage: Stage,
    /// Number of artifact files.
    pub files: u64,
    /// Bytes of artifact files.
    pub bytes: u64,
}

/// Disk usage of a cache directory, per stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStats {
    /// Per-stage usage, in stage-tag order (the `estimate` stage was added
    /// after the original five, so it reports last).
    pub stages: [StageUsage; 6],
}

impl CacheStats {
    /// Total artifact files across all stages.
    #[must_use]
    pub fn total_files(&self) -> u64 {
        self.stages.iter().map(|s| s.files).sum()
    }

    /// Total artifact bytes across all stages.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.bytes).sum()
    }

    /// Estimates the working set of the campaign that produced this cache:
    /// the bytes the directory would hold if *every* stage still had as
    /// many files as the most-populated stage does now.
    ///
    /// Each campaign cell writes roughly one artifact per stage, so the
    /// most-populated stage's file count approximates the cell count even
    /// after budget eviction has thinned the others; scaling every stage's
    /// mean file size back up to that count reconstructs the pre-eviction
    /// footprint. On an unevicted cache this equals [`total_bytes`]
    /// (every stage has the same count), so the estimate never shrinks
    /// below actual usage. A `max_bytes` budget under this value will
    /// churn on reruns (the LRU scan anomaly — see the module docs).
    ///
    /// [`total_bytes`]: CacheStats::total_bytes
    #[must_use]
    pub fn working_set_estimate(&self) -> u64 {
        let max_files = self.stages.iter().map(|s| s.files).max().unwrap_or(0);
        self.stages
            .iter()
            .filter(|s| s.files > 0)
            .map(|s| {
                let scaled = u128::from(s.bytes) * u128::from(max_files) / u128::from(s.files);
                u64::try_from(scaled).unwrap_or(u64::MAX)
            })
            .sum()
    }
}

/// Measures the disk usage of the cache at `root`, per stage. A missing
/// directory (nothing cached yet) reports zeroes; unreadable directories
/// are an error.
///
/// # Errors
///
/// Returns any I/O error encountered while listing the stage directories.
pub fn cache_stats(root: &Path) -> io::Result<CacheStats> {
    let entries = codec::scan_entries(root)?;
    let mut stages = Stage::BY_TAG.map(|stage| StageUsage {
        stage,
        files: 0,
        bytes: 0,
    });
    for entry in &entries {
        let slot = &mut stages[entry.stage.tag() as usize - 1];
        slot.files += 1;
        slot.bytes += entry.bytes;
    }
    Ok(CacheStats { stages })
}

/// What [`gc`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Artifacts evicted to fit the policy budgets (LRU first).
    pub evicted_files: u64,
    /// Bytes freed by budget eviction.
    pub evicted_bytes: u64,
    /// Corrupt or unreadable artifact files removed.
    pub corrupt_removed: u64,
    /// Stale files removed: `.tmp-*` residue of a writer killed before
    /// its atomic rename, and the `.lru` sidecars and `gen.ctr` file that
    /// format versions before 6 kept.
    pub stale_removed: u64,
    /// Bytes remaining in the cache after the sweep.
    pub bytes_remaining: u64,
}

/// Garbage-collects the cache at `root`: removes stale files (temp files
/// left by torn writes, and the sidecars and generation file of older
/// format versions), removes corrupt artifact files (bad header, version,
/// key, or checksum), and then evicts least-recently-used artifacts until
/// the cache fits `policy`'s budgets. Nothing is pinned — offline gc
/// assumes no run is in flight; the in-process insert-time enforcement is
/// what protects a live run's working set.
///
/// # Errors
///
/// Returns any I/O error encountered while listing the stage directories
/// (individual unreadable files are treated as corrupt, not errors).
pub fn gc(root: &Path, policy: &CachePolicy) -> io::Result<GcReport> {
    let mut report = GcReport::default();

    // Stale files are invisible to scan_entries (they have no `.dtc`
    // extension), so they never serve reads — but their bytes leak until
    // an offline sweep removes them.
    for stale in codec::scan_stale_files(root)? {
        if fs::remove_file(&stale).is_ok() {
            report.stale_removed += 1;
        }
    }

    let mut entries = codec::scan_entries(root)?;

    // Remove corrupt artifacts (validate header + checksum in full).
    entries.retain(|entry| {
        if codec::validate_file(&entry.artifact, entry.stage, entry.key) {
            true
        } else {
            let _ = fs::remove_file(&entry.artifact);
            report.corrupt_removed += 1;
            false
        }
    });

    let evict = codec::plan_evictions(&entries, policy, &HashSet::new());
    for index in evict {
        let entry = &entries[index];
        let _ = fs::remove_file(&entry.artifact);
        report.evicted_files += 1;
        report.evicted_bytes += entry.bytes;
    }
    report.bytes_remaining = cache_stats(root)?.total_bytes();
    Ok(report)
}

/// What [`verify`] found. `is_clean` / exit-code mapping: corruption and
/// I/O errors are deliberately separate so callers (the `deterrent-cache
/// verify` CLI, CI gates) can distinguish "the cache had bad files, which
/// were healed and will simply recompute" from "the cache could not be
/// inspected at all".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Artifact files whose header and checksum validated.
    pub valid: u64,
    /// Artifact files that failed validation (and were deleted when
    /// healing).
    pub corrupt: Vec<PathBuf>,
    /// Whether corrupt files were deleted (`heal` was set).
    pub healed: bool,
    /// Paths that could not be inspected, with the error text.
    pub io_errors: Vec<(PathBuf, String)>,
}

impl VerifyReport {
    /// `true` when every file validated and every directory was readable.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty() && self.io_errors.is_empty()
    }
}

/// Verifies every artifact file under `root` against the codec's header
/// and payload checksum. With `heal`, corrupt files are deleted (the
/// next run recomputes them); without it they are only reported. I/O
/// errors (unreadable directories or files) are collected in
/// [`VerifyReport::io_errors`], never conflated with corruption.
#[must_use]
pub fn verify(root: &Path, heal: bool) -> VerifyReport {
    let mut report = VerifyReport {
        healed: heal,
        ..VerifyReport::default()
    };
    let entries = match codec::scan_entries(root) {
        Ok(entries) => entries,
        Err(e) => {
            report.io_errors.push((root.to_path_buf(), e.to_string()));
            return report;
        }
    };
    for entry in &entries {
        match fs::read(&entry.artifact) {
            Ok(bytes) => {
                if codec::validate_bytes(&bytes, entry.stage, entry.key) {
                    report.valid += 1;
                } else {
                    if heal {
                        let _ = fs::remove_file(&entry.artifact);
                    }
                    report.corrupt.push(entry.artifact.clone());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                // Raced with an eviction or concurrent writer; not an error.
            }
            Err(e) => {
                report
                    .io_errors
                    .push((entry.artifact.clone(), e.to_string()));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_events_since_subtracts_every_kind_and_saturates() {
        let before = CacheEvents {
            corrupt: 1,
            version_mismatch: 2,
            io: 3,
            budget_evictions: 9,
        };
        let after = CacheEvents {
            corrupt: 4,
            version_mismatch: 2,
            io: 7,
            budget_evictions: 5,
        };
        let delta = after.since(before);
        assert_eq!(
            delta,
            CacheEvents {
                corrupt: 3,
                version_mismatch: 0,
                io: 4,
                budget_evictions: 0,
            }
        );
    }

    #[test]
    fn parse_bytes_handles_suffixes_and_rejects_garbage() {
        assert_eq!(parse_bytes(" 42 "), Some(42));
        assert_eq!(parse_bytes("1K"), Some(1024));
        assert_eq!(parse_bytes("3m"), Some(3 << 20));
        assert_eq!(parse_bytes("2G"), Some(2 << 30));
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("k"), None);
        assert_eq!(parse_bytes("12q"), None);
        assert_eq!(parse_bytes("-5"), None);
    }

    #[test]
    fn policy_builders_compose() {
        let policy = CachePolicy::unbounded()
            .with_max_bytes(1 << 20)
            .with_per_stage_max(1 << 18);
        assert_eq!(policy.max_bytes, Some(1 << 20));
        assert_eq!(policy.per_stage_max, Some(1 << 18));
        assert!(!policy.is_unbounded());
        assert!(CachePolicy::default().is_unbounded());
    }

    #[test]
    fn working_set_estimate_reconstructs_evicted_stages() {
        let usage = |stage, files, bytes| StageUsage {
            stage,
            files,
            bytes,
        };
        // Unevicted cache: estimate equals actual usage.
        let full = CacheStats {
            stages: [
                usage(Stage::Analyze, 4, 400),
                usage(Stage::BuildGraph, 4, 800),
                usage(Stage::Train, 4, 4000),
                usage(Stage::Select, 4, 200),
                usage(Stage::Generate, 4, 200),
                usage(Stage::Estimate, 4, 600),
            ],
        };
        assert_eq!(full.working_set_estimate(), full.total_bytes());

        // Eviction thinned the train stage to one of four files: the
        // estimate scales its mean file size back up to four.
        let evicted = CacheStats {
            stages: [
                usage(Stage::Analyze, 4, 400),
                usage(Stage::BuildGraph, 4, 800),
                usage(Stage::Train, 1, 1000),
                usage(Stage::Select, 4, 200),
                usage(Stage::Generate, 4, 200),
                usage(Stage::Estimate, 4, 600),
            ],
        };
        assert_eq!(evicted.working_set_estimate(), 6200);
        assert!(evicted.working_set_estimate() > evicted.total_bytes());

        // Empty cache estimates zero.
        let empty = cache_stats(Path::new("/definitely/not/a/real/dir")).unwrap();
        assert_eq!(empty.working_set_estimate(), 0);
    }

    #[test]
    fn stats_of_missing_root_are_zero() {
        let stats = cache_stats(Path::new("/definitely/not/a/real/dir")).expect("missing is ok");
        assert_eq!(stats.total_files(), 0);
        assert_eq!(stats.total_bytes(), 0);
        assert_eq!(stats.stages.len(), 6);
    }

    #[test]
    fn verify_of_missing_root_is_clean() {
        let report = verify(Path::new("/definitely/not/a/real/dir"), true);
        assert!(report.is_clean());
        assert_eq!(report.valid, 0);
    }

    #[test]
    fn cache_error_classification_and_display() {
        let err = CacheError::new(
            CacheErrorKind::Corrupt,
            Stage::Analyze,
            0xAB,
            "checksum mismatch".to_string(),
        );
        assert_eq!(err.kind, CacheErrorKind::Corrupt);
        assert_eq!(
            err.to_string(),
            "corrupt artifact analyze/00000000000000ab: checksum mismatch"
        );
        assert_eq!(CacheErrorKind::VersionMismatch.name(), "version-mismatch");
        assert_eq!(CacheErrorKind::Io.name(), "io");
        assert_eq!(CacheErrorKind::Budget.name(), "budget");
        let events = CacheEvents {
            corrupt: 1,
            version_mismatch: 2,
            io: 3,
            budget_evictions: 4,
        };
        assert_eq!(events.total(), 10);
    }

    #[test]
    fn gc_heals_torn_writes_without_panicking() {
        use crate::codec::DiskStore;

        let root = std::env::temp_dir().join(format!(
            "deterrent-gc-torn-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&root);
        let disk = DiskStore::with_faults(root.clone(), CachePolicy::default(), None);
        disk.store(Stage::Analyze, 0xFEED, b"whole artifact payload");

        // Simulate a writer killed between temp-file creation and rename:
        // a stale temp file plus a truncated (torn) artifact.
        let stage_dir = root.join(Stage::Analyze.dir());
        fs::write(
            stage_dir.join(".tmp-99999-0-000000000000feed"),
            b"partial bytes of a dead writer",
        )
        .unwrap();
        let artifact = stage_dir.join(format!("{:016x}.dtc", 0xFEED_u64));
        let whole = fs::read(&artifact).unwrap();
        fs::write(&artifact, &whole[..whole.len() / 2]).unwrap();

        let report = gc(&root, &CachePolicy::default()).expect("gc survives torn state");
        assert_eq!(report.stale_removed, 1, "stale temp file removed");
        assert_eq!(report.corrupt_removed, 1, "torn artifact removed");
        assert!(!stage_dir.join(".tmp-99999-0-000000000000feed").exists());
        assert!(!artifact.exists());

        // The healed cache is simply cold again.
        assert!(matches!(
            disk.load(Stage::Analyze, 0xFEED, |payload| Ok(payload.len())),
            codec::DiskLookup::Miss
        ));
        let clean = gc(&root, &CachePolicy::default()).expect("second gc");
        assert_eq!(clean.stale_removed, 0);
        assert_eq!(clean.corrupt_removed, 0);
        let _ = fs::remove_dir_all(&root);
    }
}
