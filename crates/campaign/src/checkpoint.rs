//! Crash-safe campaign checkpoints.
//!
//! A [`Checkpoint`] records the rows of every *completed* cell (outcome
//! `Ok` or `Retried` — failed cells are never persisted, so a resumed run
//! retries them) keyed by a content fingerprint of everything that can
//! change the cell's result: the netlist spec, θ, the seed, and the
//! semantic fields of the base config
//! ([`deterrent_core::DeterrentConfig::content_fingerprint`]). Killing a
//! campaign and rerunning it with the same `--checkpoint` file therefore
//! recomputes only the unfinished cells; changing any semantic knob changes
//! the keys and naturally invalidates the stale rows.
//!
//! The file reuses the artifact codec's versioned record container
//! ([`deterrent_core::encode_record`]): magic, format version, a
//! checkpoint-specific tag, and the codec's payload checksum, rewritten
//! atomically (temp file + rename) after every completed cell. A missing,
//! torn, corrupt, or version-skewed file loads as an *empty* checkpoint —
//! the worst case is recomputation, never a wrong report.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use deterrent_core::{decode_record, encode_record};

/// Record tag of campaign checkpoint files inside the shared container
/// format (distinct from every artifact stage tag).
const CHECKPOINT_TAG: u32 = 0x434B_5031; // "CKP1"

/// The persisted slice of one completed cell: everything needed to emit
/// its report row again without recomputing the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SavedRow {
    /// Retries the cell needed before succeeding (0 = first try).
    pub retries: u32,
    /// Logic gates of the cell's netlist.
    pub gates: u64,
    /// Rare nets found.
    pub rare_nets: u64,
    /// Compatible sets selected.
    pub sets: u64,
    /// Test patterns generated.
    pub patterns: u64,
    /// Largest compatible set harvested.
    pub max_compatible_set: u64,
}

/// A disk-backed map of completed cell keys to their [`SavedRow`]s. All
/// methods take `&self`; the row map is internally locked, so the campaign
/// executor's worker threads can record completions concurrently.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    rows: Mutex<HashMap<u64, SavedRow>>,
}

impl Checkpoint {
    /// Opens the checkpoint at `path`, loading any rows a previous run
    /// persisted. A missing file starts empty; an unreadable or invalid
    /// one (torn write, version skew, foreign bytes) is treated as empty
    /// too — resuming then recomputes everything, which is always safe.
    #[must_use]
    pub fn open(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let rows = fs::read(&path)
            .ok()
            .and_then(|bytes| decode_record(CHECKPOINT_TAG, &bytes).ok())
            .and_then(|payload| parse_rows(&payload))
            .unwrap_or_default();
        Self {
            path: path.clone(),
            rows: Mutex::new(rows),
        }
    }

    /// The row a previous run persisted for `key`, if any.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<SavedRow> {
        self.lock().get(&key).copied()
    }

    /// Number of completed rows currently recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no completed rows are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records a completed cell and atomically rewrites the file, so a
    /// kill at any instant leaves either the previous complete checkpoint
    /// or the new complete one on disk.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the rewrite fails; the in-memory row is
    /// kept either way (the next successful record persists it too).
    pub fn record(&self, key: u64, row: SavedRow) -> io::Result<()> {
        let payload = {
            let mut rows = self.lock();
            rows.insert(key, row);
            serialize_rows(&rows)
        };
        let bytes = encode_record(CHECKPOINT_TAG, &payload);
        let temp = self.path.with_extension("tmp");
        if let Some(dir) = self.path.parent().filter(|d| !d.as_os_str().is_empty()) {
            fs::create_dir_all(dir)?;
        }
        fs::write(&temp, &bytes)?;
        fs::rename(&temp, &self.path)
    }

    /// The file this checkpoint persists to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, SavedRow>> {
        self.rows.lock().expect("checkpoint lock poisoned")
    }
}

/// Serializes the row map in ascending key order (deterministic bytes for
/// a given set of rows, independent of completion order).
fn serialize_rows(rows: &HashMap<u64, SavedRow>) -> Vec<u8> {
    let mut keys: Vec<u64> = rows.keys().copied().collect();
    keys.sort_unstable();
    let mut out = Vec::with_capacity(8 + keys.len() * 52);
    out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
    for key in keys {
        let row = &rows[&key];
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&row.retries.to_le_bytes());
        for v in [
            row.gates,
            row.rare_nets,
            row.sets,
            row.patterns,
            row.max_compatible_set,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Inverse of [`serialize_rows`]; `None` on any structural mismatch.
fn parse_rows(payload: &[u8]) -> Option<HashMap<u64, SavedRow>> {
    const ROW_LEN: usize = 8 + 4 + 5 * 8;
    let count = usize::try_from(u64::from_le_bytes(payload.get(..8)?.try_into().ok()?)).ok()?;
    let body = payload.get(8..)?;
    if body.len() != count.checked_mul(ROW_LEN)? {
        return None;
    }
    let mut rows = HashMap::with_capacity(count);
    for chunk in body.chunks_exact(ROW_LEN) {
        let u64_at = |at: usize| u64::from_le_bytes(chunk[at..at + 8].try_into().expect("8"));
        let key = u64_at(0);
        let retries = u32::from_le_bytes(chunk[8..12].try_into().expect("4"));
        rows.insert(
            key,
            SavedRow {
                retries,
                gates: u64_at(12),
                rare_nets: u64_at(20),
                sets: u64_at(28),
                patterns: u64_at(36),
                max_compatible_set: u64_at(44),
            },
        );
    }
    Some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "deterrent-ckpt-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn sample(n: u64) -> SavedRow {
        SavedRow {
            retries: n as u32,
            gates: 100 + n,
            rare_nets: 10 + n,
            sets: 4 + n,
            patterns: 4 + n,
            max_compatible_set: 3 + n,
        }
    }

    #[test]
    fn round_trips_across_reopen() {
        let path = temp_path("roundtrip");
        let _ = fs::remove_file(&path);
        let ckpt = Checkpoint::open(&path);
        assert!(ckpt.is_empty(), "missing file starts empty");
        ckpt.record(7, sample(1)).unwrap();
        ckpt.record(9, sample(2)).unwrap();
        let reopened = Checkpoint::open(&path);
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get(7), Some(sample(1)));
        assert_eq!(reopened.get(9), Some(sample(2)));
        assert_eq!(reopened.get(8), None);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn serialized_bytes_are_order_independent() {
        let mut a = HashMap::new();
        a.insert(1, sample(1));
        a.insert(2, sample(2));
        let mut b = HashMap::new();
        b.insert(2, sample(2));
        b.insert(1, sample(1));
        assert_eq!(serialize_rows(&a), serialize_rows(&b));
    }

    #[test]
    fn invalid_files_load_as_empty() {
        let path = temp_path("invalid");
        fs::write(&path, b"not a checkpoint at all").unwrap();
        assert!(Checkpoint::open(&path).is_empty(), "foreign bytes");
        // A torn write of a valid record (truncated tail) is empty too.
        let ckpt = Checkpoint::open(&path);
        ckpt.record(1, sample(1)).unwrap();
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(Checkpoint::open(&path).is_empty(), "torn record");
        let _ = fs::remove_file(&path);
    }
}
