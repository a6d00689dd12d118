//! Hand-rolled binary codec and disk tier for the persistent artifact cache.
//!
//! The offline container has no serde (the `serde` feature hooks in
//! `netlist` stay placeholders), so stage artifacts are persisted with an
//! explicit little-endian binary format. One artifact per file at
//! `<cache_dir>/<stage>/<key:016x>.dtc`:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"DTRNTC\x01\n"
//! 8       4     format version (u32 LE) — bumped on any layout change
//! 12      4     stage tag (u32 LE): 1 analyze, 2 graph, 3 train,
//!               4 select, 5 generate, 6 estimate
//! 16      8     artifact cache key (u64 LE) — must match the file name
//! 24      8     payload length in bytes (u64 LE)
//! 32      8     checksum of the payload bytes (u64 LE, see below)
//! 40      …     payload (stage-specific field stream, all LE)
//! ```
//!
//! The checksum is FNV-1a's xor-multiply step applied to little-endian
//! `u64` words instead of bytes, in four independent lanes, with the tail
//! bytes and the payload length folded in (see [`checksum`]). It only
//! detects corruption; cache keys are a separate field-wise fingerprint.
//!
//! Every multi-byte integer and float is little-endian (`f64` as its IEEE-754
//! bit pattern), so files written on any supported host decode on any other.
//! Writes go to a unique temp file in the destination directory followed by
//! an atomic rename, so readers never observe a partially written artifact —
//! concurrent sessions sharing a cache directory at worst write the same
//! bytes twice. Each stage has exactly one payload layout: what is written
//! is every result the stage produced, each stored once, so a warm run
//! restores it bit for bit. Wall clocks are not results and are not stored —
//! the graph's tier times read 0 after a decode — with one exception: the
//! training report's `wall_seconds`, from which Table 1's rates are printed
//! identically on a warm rerun. Every other payload is the same bytes on
//! every run and at any thread count (an all-SAT graph's CDCL counters,
//! which follow how its pairs were chunked across workers, aside).
//!
//! **Versioning policy:** there is no migration path. A file whose magic,
//! version, stage tag, key, length, or checksum does not match — or whose
//! payload fails structural validation — is treated exactly like a missing
//! file: the stage recomputes and the file is overwritten. Corruption is
//! counted per stage in [`crate::StageCounters::disk_corrupt`]. The format
//! version is bumped on **any** observable layout change, including new
//! key derivations (see [`FORMAT_VERSION`] for the history). Bumping the
//! version is always safe — old caches silently recompute — so when in
//! doubt, bump.
//!
//! # Access stamps and eviction
//!
//! An artifact's recency is its own file modification time. Inserts stamp
//! the temp file through its open handle before the rename (a rename keeps
//! the mtime), and every disk hit restamps the file through the handle it
//! was read from, so a hit creates, renames, or rewrites no file. Stamps
//! come from [`next_stamp`]: wall-clock nanoseconds bumped past every stamp
//! the process already issued, so they strictly increase within a process
//! and order across processes to wall-clock precision. File `atime` is
//! never used — `noatime` mounts (most CI runners) do not update it.
//! Restamping is best-effort: when it fails the artifact keeps its older
//! stamp and is merely evicted sooner.
//!
//! When a [`crate::CachePolicy`] sets a budget, every insert enforces it:
//! the store scans the cache directory, applies the per-stage budget, then
//! the global one, deleting least-recently-stamped artifacts until the
//! cache fits. Artifacts this process has *read* are pinned and never
//! evicted by it (see [`crate::cache`]); freshly inserted artifacts are
//! fair game — they are already in the memory tier.

use std::collections::HashSet;
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use netlist::{BitMatrix, NetId};
use rl::{AdamSnapshot, PolicySnapshot, PpoConfig, PpoLosses, PpoTrainer, TrainReport};
use sim::rare::{RareNet, RareNetAnalysis};
use sim::{PatternSource, RareNetEstimate, SignalProbabilities, TestPattern, WitnessBank};

use crate::artifact::{
    GeneratedPatterns, GraphArtifact, PatternsArtifact, ProbArtifact, RareArtifact, SelectedSets,
    SetsArtifact, TrainedPolicy,
};
use crate::cache::{CacheError, CacheErrorKind, CacheEvents};
use crate::fault::{FaultKind, FaultPlan};
use crate::{CompatStats, CompatibilityGraph, PatternGenStats, PolicyArtifact, Stage};

/// File magic: "DETERRENT cache", with a version-0 sentinel byte and a
/// newline so accidental text-mode mangling breaks the magic.
const MAGIC: [u8; 8] = *b"DTRNTC\x01\n";

/// Bumped whenever any payload layout changes; old files then read as
/// version mismatches and are silently recomputed. Version 1 was the
/// initial format; version 2 added a train-stage payload variant byte;
/// version 3 split the fused analyze artifact into estimate (stage tag 6)
/// and re-keyed threshold payloads; version 4 extended `CompatStats` with
/// SAT solver counters and self-tuned enumeration-budget fields; version 5
/// dropped the budget fields again with the single fixed enumeration cost
/// model; version 6 dropped the train-stage variant byte with the one
/// remaining variant; version 7 added the tier-3 probe and sweep pair
/// counters to `CompatStats`; version 8 replaced the bytewise FNV-1a
/// payload checksum with the word-wise [`checksum`] (payloads unchanged);
/// version 9 dropped every wall clock but the training report's, and every
/// value stored twice, from the graph and train payloads.
pub(crate) const FORMAT_VERSION: u32 = 9;

const HEADER_LEN: usize = 40;

/// File extension of on-disk artifacts.
pub(crate) const FILE_EXT: &str = "dtc";

/// Why a payload failed to decode. Internal: every variant is handled
/// identically (treat the file as a cache miss and overwrite it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DecodeError {
    /// The byte stream ended before the field stream did, or a length field
    /// exceeds the remaining bytes.
    Truncated,
    /// A field value is structurally impossible (bad enum tag, inconsistent
    /// lengths, out-of-domain scalar).
    Malformed(&'static str),
}

pub(crate) type Decode<T> = Result<T, DecodeError>;

// ───────────────────────── primitives ─────────────────────────

/// Little-endian field-stream writer.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Self { buf: Vec::new() }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64_slice(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    fn u64_slice(&mut self, vs: &[u64]) {
        self.usize(vs.len());
        for &v in vs {
            self.u64(v);
        }
    }

    fn usize_slice(&mut self, vs: &[usize]) {
        self.usize(vs.len());
        for &v in vs {
            self.usize(v);
        }
    }

    fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian field-stream reader over a checksum-validated payload.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn take(&mut self, n: usize) -> Decode<&'a [u8]> {
        if self.buf.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Decode<u8> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Decode<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Malformed("bool")),
        }
    }

    fn u64(&mut self) -> Decode<u64> {
        Ok(le_u64(self.take(8)?))
    }

    fn usize(&mut self) -> Decode<usize> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Malformed("usize"))
    }

    fn f64(&mut self) -> Decode<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length prefix for elements of `elem_bytes` each, rejecting
    /// lengths the remaining buffer cannot possibly hold (so corrupt length
    /// fields fail fast instead of attempting huge allocations).
    fn len(&mut self, elem_bytes: usize) -> Decode<usize> {
        let n = self.usize()?;
        if n.checked_mul(elem_bytes.max(1))
            .is_none_or(|total| total > self.buf.len())
        {
            return Err(DecodeError::Truncated);
        }
        Ok(n)
    }

    /// A length-prefixed run of 8-byte words, bounds-checked once for the
    /// whole run.
    fn words(&mut self) -> Decode<std::slice::ChunksExact<'a, u8>> {
        let n = self.len(8)?;
        Ok(self.take(n * 8)?.chunks_exact(8))
    }

    fn f64_vec(&mut self) -> Decode<Vec<f64>> {
        Ok(self.words()?.map(|w| f64::from_bits(le_u64(w))).collect())
    }

    fn u64_vec(&mut self) -> Decode<Vec<u64>> {
        Ok(self.words()?.map(le_u64).collect())
    }

    fn usize_vec(&mut self) -> Decode<Vec<usize>> {
        self.words()?
            .map(|w| usize::try_from(le_u64(w)).map_err(|_| DecodeError::Malformed("usize")))
            .collect()
    }

    fn done(&self) -> Decode<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Malformed("trailing bytes"))
        }
    }
}

/// An 8-byte little-endian word.
fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One checksum step: FNV-1a's xor-multiply on a whole word, then a rotate
/// so the high bits the multiply produces feed back into the low ones.
/// For a fixed word it is a bijection of the state, and for a fixed state
/// a bijection of the word.
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(FNV_PRIME).rotate_left(31)
}

/// The payload checksum in file and record headers.
///
/// Consecutive 32-byte blocks feed four independent lanes one
/// little-endian word each, so the lanes' multiplies overlap instead of
/// forming one dependent chain per byte. The lanes, then the remaining bytes as zero-padded words, then the
/// length are mixed into one state. Every [`mix`] is a bijection in each
/// argument, so changing any one aligned word of the payload always
/// changes the checksum.
fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [
        FNV_OFFSET,
        FNV_OFFSET.rotate_left(16),
        FNV_OFFSET.rotate_left(32),
        FNV_OFFSET.rotate_left(48),
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        lanes[0] = mix(lanes[0], le_u64(&block[..8]));
        lanes[1] = mix(lanes[1], le_u64(&block[8..16]));
        lanes[2] = mix(lanes[2], le_u64(&block[16..24]));
        lanes[3] = mix(lanes[3], le_u64(&block[24..]));
    }
    let mut state = lanes.into_iter().fold(FNV_OFFSET, mix);
    for tail in blocks.remainder().chunks(8) {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        state = mix(state, u64::from_le_bytes(word));
    }
    mix(state, bytes.len() as u64)
}

// ───────────────────────── shared sub-codecs ─────────────────────────

fn w_rare_nets(w: &mut Writer, nets: &[RareNet]) {
    w.usize(nets.len());
    for r in nets {
        w.u64(r.net.index() as u64);
        w.bool(r.rare_value);
        w.f64(r.probability);
    }
}

fn r_rare_nets(r: &mut Reader<'_>) -> Decode<Vec<RareNet>> {
    let n = r.len(17)?;
    (0..n)
        .map(|_| {
            let net = r.u64()?;
            let net =
                NetId(u32::try_from(net).map_err(|_| DecodeError::Malformed("net id range"))?);
            Ok(RareNet {
                net,
                rare_value: r.bool()?,
                probability: r.f64()?,
            })
        })
        .collect()
}

fn w_witness_bank(w: &mut Writer, bank: Option<&WitnessBank>) {
    let Some(bank) = bank else {
        w.u8(0);
        return;
    };
    w.u8(1);
    w.usize(bank.len());
    for &(net, value) in bank.targets() {
        w.u64(net.index() as u64);
        w.bool(value);
    }
    w.usize(bank.num_chunks());
    w.usize(bank.num_patterns());
    w.u64_slice(bank.raw_rows());
    match bank.source() {
        None => w.u8(0),
        Some(PatternSource::Random { width, seed }) => {
            w.u8(1);
            w.usize(width);
            w.u64(seed);
        }
        Some(PatternSource::Exhaustive { width }) => {
            w.u8(2);
            w.usize(width);
        }
    }
}

fn r_witness_bank(r: &mut Reader<'_>) -> Decode<Option<WitnessBank>> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let n = r.len(9)?;
            let targets: Vec<(NetId, bool)> = (0..n)
                .map(|_| {
                    let net = u32::try_from(r.u64()?)
                        .map_err(|_| DecodeError::Malformed("net id range"))?;
                    Ok((NetId(net), r.bool()?))
                })
                .collect::<Decode<_>>()?;
            let num_chunks = r.usize()?;
            if num_chunks.checked_mul(64).is_none() {
                return Err(DecodeError::Malformed("witness chunk count"));
            }
            let num_patterns = r.usize()?;
            let rows = r.u64_vec()?;
            if rows.len() != targets.len().saturating_mul(num_chunks) {
                return Err(DecodeError::Malformed("witness rows shape"));
            }
            let source = match r.u8()? {
                0 => None,
                1 => Some(PatternSource::Random {
                    width: r.usize()?,
                    seed: r.u64()?,
                }),
                2 => Some(PatternSource::Exhaustive { width: r.usize()? }),
                _ => return Err(DecodeError::Malformed("pattern source tag")),
            };
            Ok(Some(WitnessBank::from_raw_parts(
                targets,
                num_chunks,
                num_patterns,
                rows,
                source,
            )))
        }
        _ => Err(DecodeError::Malformed("witness bank tag")),
    }
}

fn w_bool_slice_packed(w: &mut Writer, bits: &[bool]) {
    w.usize(bits.len());
    for word_bits in bits.chunks(64) {
        let mut word = 0u64;
        for (i, &b) in word_bits.iter().enumerate() {
            word |= u64::from(b) << i;
        }
        w.u64(word);
    }
}

fn r_bool_vec_packed(r: &mut Reader<'_>) -> Decode<Vec<bool>> {
    let n = r.usize()?;
    let bytes = n
        .div_ceil(64)
        .checked_mul(8)
        .ok_or(DecodeError::Truncated)?;
    let words = r.take(bytes)?;
    let mut bits = Vec::with_capacity(n);
    for word in words.chunks_exact(8).map(le_u64) {
        let count = (n - bits.len()).min(64);
        bits.extend((0..count).map(|i| word >> i & 1 == 1));
    }
    Ok(bits)
}

fn w_sets(w: &mut Writer, sets: &[Vec<usize>]) {
    w.usize(sets.len());
    for set in sets {
        w.usize_slice(set);
    }
}

fn r_sets(r: &mut Reader<'_>) -> Decode<Vec<Vec<usize>>> {
    let n = r.len(8)?;
    (0..n).map(|_| r.usize_vec()).collect()
}

fn w_losses(w: &mut Writer, losses: &[(u64, PpoLosses)]) {
    w.usize(losses.len());
    for &(steps, l) in losses {
        w.u64(steps);
        w.f64(l.policy_loss);
        w.f64(l.entropy_loss);
        w.f64(l.value_loss);
        w.f64(l.total_loss);
    }
}

fn r_losses(r: &mut Reader<'_>) -> Decode<Vec<(u64, PpoLosses)>> {
    let n = r.len(40)?;
    (0..n)
        .map(|_| {
            Ok((
                r.u64()?,
                PpoLosses {
                    policy_loss: r.f64()?,
                    entropy_loss: r.f64()?,
                    value_loss: r.f64()?,
                    total_loss: r.f64()?,
                },
            ))
        })
        .collect()
}

fn w_adam(w: &mut Writer, adam: &AdamSnapshot) {
    w.f64(adam.learning_rate);
    w.f64_slice(&adam.m);
    w.f64_slice(&adam.v);
    w.u64(adam.steps);
}

fn r_adam(r: &mut Reader<'_>, num_params: usize) -> Decode<AdamSnapshot> {
    let snapshot = AdamSnapshot {
        learning_rate: r.f64()?,
        m: r.f64_vec()?,
        v: r.f64_vec()?,
        steps: r.u64()?,
    };
    if snapshot.m.len() != num_params || snapshot.v.len() != num_params {
        return Err(DecodeError::Malformed("adam moment shape"));
    }
    Ok(snapshot)
}

/// Parameter count of an MLP with the given layer sizes.
fn mlp_params(layer_sizes: &[usize]) -> Decode<usize> {
    if layer_sizes.len() < 2 || layer_sizes.contains(&0) {
        return Err(DecodeError::Malformed("mlp layer sizes"));
    }
    let mut total = 0usize;
    for pair in layer_sizes.windows(2) {
        total = pair[0]
            .checked_mul(pair[1])
            .and_then(|w| total.checked_add(w))
            .and_then(|t| t.checked_add(pair[1]))
            .ok_or(DecodeError::Malformed("mlp size overflow"))?;
    }
    Ok(total)
}

// ───────────────────────── payload codecs ─────────────────────────

pub(crate) fn encode_prob(artifact: &ProbArtifact) -> Vec<u8> {
    let estimate = artifact.estimate();
    let mut w = Writer::new();
    w.f64(estimate.retain());
    w.usize(estimate.probabilities().num_patterns());
    w.f64_slice(estimate.probabilities().as_slice());
    w_witness_bank(&mut w, Some(estimate.bank()));
    w.finish()
}

pub(crate) fn decode_prob(key: u64, payload: &[u8]) -> Decode<ProbArtifact> {
    let mut r = Reader::new(payload);
    let retain = r.f64()?;
    if !(retain > 0.0 && retain <= 0.5) {
        return Err(DecodeError::Malformed("retain domain"));
    }
    let num_patterns = r.usize()?;
    if num_patterns == 0 {
        return Err(DecodeError::Malformed("zero patterns"));
    }
    let prob_one = r.f64_vec()?;
    let bank = r_witness_bank(&mut r)?.ok_or(DecodeError::Malformed("missing witness bank"))?;
    r.done()?;
    if bank
        .targets()
        .iter()
        .any(|&(net, _)| net.index() >= prob_one.len())
    {
        return Err(DecodeError::Malformed("candidate net range"));
    }
    let estimate = RareNetEstimate::from_raw_parts(
        retain,
        SignalProbabilities::from_raw_parts(prob_one, num_patterns),
        bank,
    );
    Ok(ProbArtifact::new(key, estimate))
}

pub(crate) fn encode_rare(artifact: &RareArtifact) -> Vec<u8> {
    let analysis = artifact.analysis();
    let mut w = Writer::new();
    w.f64(analysis.threshold());
    w_rare_nets(&mut w, analysis.rare_nets());
    w.usize(analysis.probabilities().num_patterns());
    w.f64_slice(analysis.probabilities().as_slice());
    w_witness_bank(&mut w, analysis.witnesses());
    w.finish()
}

pub(crate) fn decode_rare(key: u64, payload: &[u8]) -> Decode<RareArtifact> {
    let mut r = Reader::new(payload);
    let threshold = r.f64()?;
    if !(threshold > 0.0 && threshold <= 0.5) {
        return Err(DecodeError::Malformed("threshold domain"));
    }
    let rare_nets = r_rare_nets(&mut r)?;
    let num_patterns = r.usize()?;
    if num_patterns == 0 {
        return Err(DecodeError::Malformed("zero patterns"));
    }
    let prob_one = r.f64_vec()?;
    let witnesses = r_witness_bank(&mut r)?;
    r.done()?;
    let analysis = RareNetAnalysis::from_raw_parts(
        threshold,
        rare_nets,
        SignalProbabilities::from_raw_parts(prob_one, num_patterns),
        witnesses,
    );
    Ok(RareArtifact::new(key, analysis))
}

fn w_stats(w: &mut Writer, stats: &CompatStats) {
    w.usize(stats.candidate_rare_nets);
    w.usize(stats.kept_rare_nets);
    w.u64(stats.singleton_sim_resolved);
    w.u64(stats.singleton_sat_queries);
    w.u64(stats.pairs_total);
    w.u64(stats.pairs_sim_witnessed);
    w.u64(stats.pairs_structurally_pruned);
    w.u64(stats.pairs_cone_enumerated);
    w.u64(stats.pairs_probe_struck);
    w.u64(stats.pairs_sweep_struck);
    w.u64(stats.pairs_sat_resolved);
    w.u64(stats.solver.conflicts);
    w.u64(stats.solver.decisions);
    w.u64(stats.solver.propagations);
    w.u64(stats.solver.learned_clauses);
    w.u64(stats.solver.restarts);
    w.u64(stats.solver.reduces);
    w.u64(stats.solver.deleted_clauses);
    w.u64(stats.solver.peak_learnts);
}

fn r_stats(r: &mut Reader<'_>) -> Decode<CompatStats> {
    Ok(CompatStats {
        candidate_rare_nets: r.usize()?,
        kept_rare_nets: r.usize()?,
        singleton_sim_resolved: r.u64()?,
        singleton_sat_queries: r.u64()?,
        pairs_total: r.u64()?,
        pairs_sim_witnessed: r.u64()?,
        pairs_structurally_pruned: r.u64()?,
        pairs_cone_enumerated: r.u64()?,
        pairs_probe_struck: r.u64()?,
        pairs_sweep_struck: r.u64()?,
        pairs_sat_resolved: r.u64()?,
        solver: sat::SolverStats {
            conflicts: r.u64()?,
            decisions: r.u64()?,
            propagations: r.u64()?,
            learned_clauses: r.u64()?,
            restarts: r.u64()?,
            reduces: r.u64()?,
            deleted_clauses: r.u64()?,
            peak_learnts: r.u64()?,
        },
        ..CompatStats::default()
    })
}

pub(crate) fn encode_graph(artifact: &GraphArtifact) -> Vec<u8> {
    let graph = artifact.graph();
    let mut w = Writer::new();
    w.f64(artifact.rareness_threshold());
    w_rare_nets(&mut w, graph.rare_nets());
    let n = graph.len();
    w.usize(n * n);
    for word in graph.matrix().to_stream() {
        w.u64(word);
    }
    w_stats(&mut w, graph.stats());
    w_witness_bank(&mut w, graph.witness_bank());
    w.usize_slice(graph.witness_rows());
    w.finish()
}

pub(crate) fn decode_graph(key: u64, payload: &[u8]) -> Decode<GraphArtifact> {
    let mut r = Reader::new(payload);
    let rareness_threshold = r.f64()?;
    let rare_nets = r_rare_nets(&mut r)?;
    let n = rare_nets.len();
    if Some(r.usize()?) != n.checked_mul(n) {
        return Err(DecodeError::Malformed("adjacency shape"));
    }
    let stream: Vec<u64> = r
        .take((n * n).div_ceil(64) * 8)?
        .chunks_exact(8)
        .map(le_u64)
        .collect();
    let adjacency = BitMatrix::from_stream(n, n, &stream);
    if (0..n).any(|i| adjacency.get(i, i)) {
        return Err(DecodeError::Malformed("adjacency self-loop"));
    }
    let stats = r_stats(&mut r)?;
    let witnesses = r_witness_bank(&mut r)?;
    let witness_rows = r.usize_vec()?;
    if witness_rows.len() != rare_nets.len() {
        return Err(DecodeError::Malformed("witness rows length"));
    }
    r.done()?;
    let graph =
        CompatibilityGraph::from_raw_parts(rare_nets, adjacency, stats, witnesses, witness_rows);
    Ok(GraphArtifact::new(key, graph, rareness_threshold))
}

fn w_ppo_config(w: &mut Writer, config: &PpoConfig) {
    w.f64(config.gamma);
    w.f64(config.gae_lambda);
    w.f64(config.clip_epsilon);
    w.f64(config.entropy_coef);
    w.f64(config.value_coef);
    w.f64(config.learning_rate);
    w.usize(config.epochs);
    w.usize(config.batch_size);
    w.usize_slice(&config.hidden_sizes);
}

fn r_ppo_config(r: &mut Reader<'_>) -> Decode<PpoConfig> {
    Ok(PpoConfig {
        gamma: r.f64()?,
        gae_lambda: r.f64()?,
        clip_epsilon: r.f64()?,
        entropy_coef: r.f64()?,
        value_coef: r.f64()?,
        learning_rate: r.f64()?,
        epochs: r.usize()?,
        batch_size: r.usize()?,
        hidden_sizes: r.usize_vec()?,
    })
}

pub(crate) fn encode_policy(artifact: &PolicyArtifact) -> Vec<u8> {
    let trained = artifact.policy();
    let snapshot = trained.trainer.snapshot();
    debug_assert_eq!(trained.report.losses, snapshot.loss_history);
    let mut w = Writer::new();
    w_ppo_config(&mut w, &snapshot.config);
    w.usize(snapshot.num_actions);
    w.u64(snapshot.total_steps);
    w.u64(snapshot.total_updates);
    w_losses(&mut w, &snapshot.loss_history);
    w.usize_slice(&snapshot.policy_layer_sizes);
    w.f64_slice(&snapshot.policy_params);
    w_adam(&mut w, &snapshot.policy_opt);
    w.usize_slice(&snapshot.value_layer_sizes);
    w.f64_slice(&snapshot.value_params);
    w_adam(&mut w, &snapshot.value_opt);
    w.f64_slice(&trained.report.episode_rewards);
    w.usize_slice(&trained.report.episode_lengths);
    w.f64(trained.report.wall_seconds);
    w_sets(&mut w, &trained.harvested_sets);
    w.u64(trained.env_sat_checks);
    w.finish()
}

pub(crate) fn decode_policy(key: u64, payload: &[u8]) -> Decode<PolicyArtifact> {
    let mut r = Reader::new(payload);
    let config = r_ppo_config(&mut r)?;
    let num_actions = r.usize()?;
    if num_actions == 0 {
        return Err(DecodeError::Malformed("zero actions"));
    }
    let total_steps = r.u64()?;
    let total_updates = r.u64()?;
    let loss_history = r_losses(&mut r)?;
    let policy_layer_sizes = r.usize_vec()?;
    let policy_param_count = mlp_params(&policy_layer_sizes)?;
    let policy_params = r.f64_vec()?;
    if policy_params.len() != policy_param_count {
        return Err(DecodeError::Malformed("policy param shape"));
    }
    let policy_opt = r_adam(&mut r, policy_param_count)?;
    let value_layer_sizes = r.usize_vec()?;
    let value_param_count = mlp_params(&value_layer_sizes)?;
    let value_params = r.f64_vec()?;
    if value_params.len() != value_param_count {
        return Err(DecodeError::Malformed("value param shape"));
    }
    let value_opt = r_adam(&mut r, value_param_count)?;
    let snapshot = PolicySnapshot {
        config,
        num_actions,
        total_steps,
        total_updates,
        loss_history,
        policy_layer_sizes,
        policy_params,
        value_layer_sizes,
        value_params,
        policy_opt,
        value_opt,
    };
    // The report's loss curve is the trainer's own history of its one
    // training run, so it is stored once, in the snapshot.
    let report = TrainReport {
        episode_rewards: r.f64_vec()?,
        episode_lengths: r.usize_vec()?,
        losses: snapshot.loss_history.clone(),
        wall_seconds: r.f64()?,
    };
    let harvested_sets = r_sets(&mut r)?;
    let env_sat_checks = r.u64()?;
    r.done()?;
    let trainer = PpoTrainer::from_snapshot(snapshot);
    Ok(PolicyArtifact::new(
        key,
        TrainedPolicy {
            trainer,
            report,
            harvested_sets,
            env_sat_checks,
        },
    ))
}

pub(crate) fn encode_sets(artifact: &SetsArtifact) -> Vec<u8> {
    let selected = artifact.selected();
    let mut w = Writer::new();
    w_sets(&mut w, &selected.sets);
    w.usize(selected.max_compatible_set);
    w.u64(selected.eval_env_sat_checks);
    w.usize(selected.harvested_total);
    w.finish()
}

pub(crate) fn decode_sets(key: u64, payload: &[u8]) -> Decode<SetsArtifact> {
    let mut r = Reader::new(payload);
    let sets = r_sets(&mut r)?;
    let selected = SelectedSets {
        sets,
        max_compatible_set: r.usize()?,
        eval_env_sat_checks: r.u64()?,
        harvested_total: r.usize()?,
    };
    r.done()?;
    Ok(SetsArtifact::new(key, selected))
}

pub(crate) fn encode_patterns(artifact: &PatternsArtifact) -> Vec<u8> {
    let generated = artifact.generated();
    let mut w = Writer::new();
    w.usize(generated.patterns.len());
    for pattern in &generated.patterns {
        let bits: Vec<bool> = (0..pattern.width()).map(|i| pattern.bit(i)).collect();
        w_bool_slice_packed(&mut w, &bits);
    }
    w.u64(generated.stats.witness_reused);
    w.u64(generated.stats.sat_queries);
    w.finish()
}

pub(crate) fn decode_patterns(key: u64, payload: &[u8]) -> Decode<PatternsArtifact> {
    let mut r = Reader::new(payload);
    let n = r.len(8)?;
    let patterns: Vec<TestPattern> = (0..n)
        .map(|_| Ok(TestPattern::new(r_bool_vec_packed(&mut r)?)))
        .collect::<Decode<_>>()?;
    let stats = PatternGenStats {
        witness_reused: r.u64()?,
        sat_queries: r.u64()?,
    };
    r.done()?;
    Ok(PatternsArtifact::new(
        key,
        GeneratedPatterns { patterns, stats },
    ))
}

// ───────────────────────── the disk tier ─────────────────────────

/// Result of probing the disk tier for one key. Generic so the store can
/// map the validated payload bytes into a decoded artifact in place.
pub(crate) enum DiskLookup<T> {
    /// Header and checksum validated; the payload is ready to use.
    Hit(T),
    /// No file for this key.
    Miss,
    /// A file exists but could not be used; the [`CacheError`] classifies
    /// why (corrupt / version-mismatch / io). The caller recomputes and
    /// overwrites it — same heal semantics for every kind.
    Failed(CacheError),
}

/// Process-unique suffix counter for temp files, so concurrent writers in
/// one process never collide (cross-process uniqueness comes from the pid).
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Last access stamp handed out by [`next_stamp`], so stamps are strictly
/// monotonic within the process even when the wall clock stalls or steps
/// backwards.
static LAST_STAMP: AtomicU64 = AtomicU64::new(0);

/// Nanoseconds from the epoch to `time` (0 before the epoch, saturating
/// far in the future).
fn epoch_nanos(time: SystemTime) -> u64 {
    time.duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// A fresh access stamp: wall-clock nanoseconds since the epoch, bumped
/// past every stamp this process already issued. Strictly increasing
/// in-process; ordered across processes to wall-clock precision — exactly
/// what LRU needs (ties across processes are broken deterministically by
/// stage and key at eviction time).
pub(crate) fn next_stamp() -> u64 {
    let now = epoch_nanos(SystemTime::now());
    let prev = LAST_STAMP
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |last| {
            Some(now.max(last.saturating_add(1)))
        })
        .expect("fetch_update closure never returns None");
    now.max(prev.saturating_add(1))
}

/// Stamps `file` with a fresh [`next_stamp`] as its modification time,
/// through the open handle.
fn stamp(file: &fs::File) -> std::io::Result<()> {
    file.set_modified(UNIX_EPOCH + Duration::from_nanos(next_stamp()))
}

/// One artifact on disk, as seen by the eviction and maintenance scans:
/// its stage, key, file size, and access stamp (the file's modification
/// time in epoch nanoseconds; 0, ordering it oldest, when the platform
/// cannot report it).
#[derive(Debug, Clone)]
pub(crate) struct CacheEntry {
    pub(crate) stage: Stage,
    pub(crate) key: u64,
    pub(crate) bytes: u64,
    pub(crate) stamp: u64,
    pub(crate) artifact: PathBuf,
}

/// Lists every artifact under `root` with its size and access stamp. A
/// missing root or stage directory contributes nothing; other I/O errors
/// while listing are returned. Temp files are not entries.
pub(crate) fn scan_entries(root: &Path) -> std::io::Result<Vec<CacheEntry>> {
    let mut entries = Vec::new();
    for stage in Stage::BY_TAG {
        let dir = root.join(stage.dir());
        let listing = match fs::read_dir(&dir) {
            Ok(listing) => listing,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        for item in listing {
            let item = item?;
            let path = item.path();
            if path.extension().and_then(|e| e.to_str()) != Some(FILE_EXT) {
                continue;
            }
            let Some(key) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok())
            else {
                continue;
            };
            let Ok(meta) = item.metadata() else { continue };
            entries.push(CacheEntry {
                stage,
                key,
                bytes: meta.len(),
                stamp: meta.modified().map_or(0, epoch_nanos),
                artifact: path,
            });
        }
    }
    Ok(entries)
}

/// Classifies `bytes` as a complete artifact file for `(stage, key)`:
/// magic, format version, stage tag, key, payload length, and payload
/// [`checksum`]. Payload *structure* is not decoded — that happens at
/// load time — but every bit of the file is covered by the checksum.
///
/// An intact header with a different format version classifies as
/// [`CacheErrorKind::VersionMismatch`]; every other failure is
/// [`CacheErrorKind::Corrupt`].
pub(crate) fn classify_bytes(bytes: &[u8], stage: Stage, key: u64) -> Result<(), CacheError> {
    let fail =
        |kind: CacheErrorKind, detail: String| Err(CacheError::new(kind, stage, key, detail));
    if bytes.len() < HEADER_LEN {
        return fail(
            CacheErrorKind::Corrupt,
            format!("short file ({} bytes)", bytes.len()),
        );
    }
    if bytes[..8] != MAGIC {
        return fail(CacheErrorKind::Corrupt, "bad magic".to_string());
    }
    let field_u32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4"));
    let field_u64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8"));
    let version = field_u32(8);
    if version != FORMAT_VERSION {
        return fail(
            CacheErrorKind::VersionMismatch,
            format!("format version {version} (expected {FORMAT_VERSION})"),
        );
    }
    if field_u32(12) != stage.tag() {
        return fail(CacheErrorKind::Corrupt, "stage tag mismatch".to_string());
    }
    if field_u64(16) != key {
        return fail(CacheErrorKind::Corrupt, "key mismatch".to_string());
    }
    if field_u64(24) != (bytes.len() - HEADER_LEN) as u64 {
        return fail(
            CacheErrorKind::Corrupt,
            "payload length mismatch".to_string(),
        );
    }
    if field_u64(32) != checksum(&bytes[HEADER_LEN..]) {
        return fail(CacheErrorKind::Corrupt, "checksum mismatch".to_string());
    }
    Ok(())
}

/// Boolean view of [`classify_bytes`] for the maintenance scans, which
/// treat every failure kind identically.
pub(crate) fn validate_bytes(bytes: &[u8], stage: Stage, key: u64) -> bool {
    classify_bytes(bytes, stage, key).is_ok()
}

/// Reads and validates the artifact file at `path` (see [`validate_bytes`]).
/// Unreadable counts as invalid.
pub(crate) fn validate_file(path: &Path, stage: Stage, key: u64) -> bool {
    fs::read(path).is_ok_and(|bytes| validate_bytes(&bytes, stage, key))
}

/// Plans which of `entries` to evict so the cache fits `policy`: first
/// each stage is brought under [`crate::CachePolicy::per_stage_max`], then
/// the whole cache under [`crate::CachePolicy::max_bytes`], evicting
/// least-recently-stamped first (ties broken by stage then key, so the
/// plan is deterministic). Entries in `pinned` are never selected.
/// Returns indices into `entries`.
pub(crate) fn plan_evictions(
    entries: &[CacheEntry],
    policy: &crate::CachePolicy,
    pinned: &HashSet<(Stage, u64)>,
) -> Vec<usize> {
    if policy.is_unbounded() {
        return Vec::new();
    }
    // LRU order: oldest stamp first, deterministic tie-break.
    let mut order: Vec<usize> = (0..entries.len()).collect();
    order.sort_by_key(|&i| (entries[i].stamp, entries[i].stage.tag(), entries[i].key));

    let evictable = |entry: &CacheEntry| !pinned.contains(&(entry.stage, entry.key));
    let mut evicted = vec![false; entries.len()];

    if let Some(per_stage) = policy.per_stage_max {
        for stage in Stage::BY_TAG {
            let mut stage_total: u64 = entries
                .iter()
                .filter(|e| e.stage == stage)
                .map(|e| e.bytes)
                .sum();
            for &i in &order {
                if stage_total <= per_stage {
                    break;
                }
                let entry = &entries[i];
                if entry.stage == stage && !evicted[i] && evictable(entry) {
                    evicted[i] = true;
                    stage_total -= entry.bytes;
                }
            }
        }
    }

    if let Some(max_bytes) = policy.max_bytes {
        let mut total: u64 = entries
            .iter()
            .enumerate()
            .filter(|(i, _)| !evicted[*i])
            .map(|(_, e)| e.bytes)
            .sum();
        for &i in &order {
            if total <= max_bytes {
                break;
            }
            if !evicted[i] && evictable(&entries[i]) {
                evicted[i] = true;
                total -= entries[i].bytes;
            }
        }
    }

    order.retain(|&i| evicted[i]);
    order
}

/// Per-kind failure-event accumulator behind `&DiskStore`.
#[derive(Debug, Default)]
struct EventCell {
    corrupt: AtomicU64,
    version_mismatch: AtomicU64,
    io: AtomicU64,
    budget_evictions: AtomicU64,
}

impl EventCell {
    fn snapshot(&self) -> CacheEvents {
        CacheEvents {
            corrupt: self.corrupt.load(Ordering::Relaxed),
            version_mismatch: self.version_mismatch.load(Ordering::Relaxed),
            io: self.io.load(Ordering::Relaxed),
            budget_evictions: self.budget_evictions.load(Ordering::Relaxed),
        }
    }
}

/// Disk-tier traffic of one stage: the bytes moved and where the read
/// time goes. Totals since the store opened; callers diff two snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DiskIo {
    /// Artifact-file bytes read, headers included.
    pub(crate) read_bytes: u64,
    /// Artifact-file bytes written, headers included.
    pub(crate) written_bytes: u64,
    /// Nanoseconds spent opening, reading and validating artifact files
    /// (header and checksum).
    pub(crate) read_nanos: u64,
    /// Nanoseconds spent decoding validated payloads into artifacts.
    pub(crate) decode_nanos: u64,
}

impl DiskIo {
    /// The traffic between `before` and `self`.
    pub(crate) fn since(self, before: DiskIo) -> DiskIo {
        DiskIo {
            read_bytes: self.read_bytes.saturating_sub(before.read_bytes),
            written_bytes: self.written_bytes.saturating_sub(before.written_bytes),
            read_nanos: self.read_nanos.saturating_sub(before.read_nanos),
            decode_nanos: self.decode_nanos.saturating_sub(before.decode_nanos),
        }
    }
}

/// [`DiskIo`] accumulator behind `&DiskStore`.
#[derive(Debug, Default)]
struct IoCell {
    read_bytes: AtomicU64,
    written_bytes: AtomicU64,
    read_nanos: AtomicU64,
    decode_nanos: AtomicU64,
}

impl IoCell {
    fn snapshot(&self) -> DiskIo {
        DiskIo {
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            written_bytes: self.written_bytes.load(Ordering::Relaxed),
            read_nanos: self.read_nanos.load(Ordering::Relaxed),
            decode_nanos: self.decode_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Nanoseconds since `start`, saturating.
fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Environment variable that silences the rate-limited heal warning when
/// set to `1`.
pub const QUIET_ENV_VAR: &str = "DETERRENT_QUIET";

/// The persistent tier of an [`crate::ArtifactStore`]: one file per artifact
/// under `<root>/<stage>/<key:016x>.dtc`, whose modification time is its
/// access stamp (see the [module docs](self)). All operations are
/// best-effort — I/O errors on write are swallowed (the cache is an
/// accelerator, not a store of record) and unusable files are reported as
/// [`DiskLookup::Failed`] with a classified [`CacheError`].
///
/// The store enforces its [`crate::CachePolicy`] budgets after every
/// insert, and pins every `(stage, key)` it has served from disk so the
/// current process never evicts its own working set.
///
/// An attached [`FaultPlan`] deterministically injects faults — short
/// reads, checksum flips, `ErrorKind::Other` on open/rename, eviction
/// races — so the recovery paths are exercised by tests and CI instead of
/// waiting for real corruption.
#[derive(Debug)]
pub(crate) struct DiskStore {
    root: PathBuf,
    policy: crate::CachePolicy,
    /// `(stage, key)` pairs this process has read from disk — protected
    /// from this store's budget enforcement.
    pinned: std::sync::Mutex<HashSet<(Stage, u64)>>,
    /// Optional deterministic fault-injection schedule.
    faults: Option<FaultPlan>,
    /// Per-kind failure-event counters.
    events: EventCell,
    /// Per-stage traffic, indexed by [`Stage::tag`] − 1.
    io: [IoCell; 6],
    /// Whether the one rate-limited heal warning has been printed.
    warned: std::sync::atomic::AtomicBool,
}

impl DiskStore {
    pub(crate) fn with_faults(
        root: PathBuf,
        policy: crate::CachePolicy,
        faults: Option<FaultPlan>,
    ) -> Self {
        Self {
            root,
            policy,
            pinned: std::sync::Mutex::default(),
            faults,
            events: EventCell::default(),
            io: Default::default(),
            warned: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Snapshot of the per-kind failure-event counters.
    pub(crate) fn events(&self) -> CacheEvents {
        self.events.snapshot()
    }

    fn io_cell(&self, stage: Stage) -> &IoCell {
        &self.io[stage.tag() as usize - 1]
    }

    /// Snapshot of `stage`'s traffic counters.
    pub(crate) fn io(&self, stage: Stage) -> DiskIo {
        self.io_cell(stage).snapshot()
    }

    /// Counts a classified lookup failure and emits the rate-limited heal
    /// warning (first failure per store only; silenced by
    /// `DETERRENT_QUIET=1`). Counters always run; only the warning is
    /// rate-limited.
    pub(crate) fn note_failure(&self, err: &CacheError) {
        let counter = match err.kind {
            CacheErrorKind::Corrupt => &self.events.corrupt,
            CacheErrorKind::VersionMismatch => &self.events.version_mismatch,
            CacheErrorKind::Io => &self.events.io,
            CacheErrorKind::Budget => &self.events.budget_evictions,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if self.warned.swap(true, Ordering::Relaxed) {
            return;
        }
        if std::env::var(QUIET_ENV_VAR).is_ok_and(|v| v.trim() == "1") {
            return;
        }
        eprintln!(
            "[store] warning: healing {err} (recomputing; later heals are \
             silent — set {QUIET_ENV_VAR}=1 to silence this line)"
        );
    }

    /// The stable fault-injection site identity of `(stage, key)`.
    fn fault_site(stage: Stage, key: u64) -> u64 {
        u64::from(stage.tag()).rotate_left(56) ^ key
    }

    pub(crate) fn root(&self) -> &Path {
        &self.root
    }

    fn file_path(&self, stage: Stage, key: u64) -> PathBuf {
        self.root
            .join(stage.dir())
            .join(format!("{key:016x}.{FILE_EXT}"))
    }

    fn lock_pinned(&self) -> std::sync::MutexGuard<'_, HashSet<(Stage, u64)>> {
        self.pinned.lock().expect("disk store pin lock poisoned")
    }

    /// Reads and validates the artifact file for `(stage, key)` and decodes
    /// its payload in place. A hit pins the artifact against eviction by
    /// this process and restamps the file through the handle it was read
    /// from; a payload that fails to decode is a corrupt file. An attached
    /// [`FaultPlan`] may deterministically inject an open error, an
    /// eviction race (reported as a clean miss), a short read, or a
    /// checksum flip.
    pub(crate) fn load<T>(
        &self,
        stage: Stage,
        key: u64,
        decode: impl FnOnce(&[u8]) -> Decode<T>,
    ) -> DiskLookup<T> {
        let site = Self::fault_site(stage, key);
        if let Some(plan) = &self.faults {
            if plan.should_inject(FaultKind::IoError, site) {
                let injected = std::io::Error::other("injected transient fault");
                return DiskLookup::Failed(CacheError::new(
                    CacheErrorKind::Io,
                    stage,
                    key,
                    format!("open failed: {injected}"),
                ));
            }
        }
        let io = self.io_cell(stage);
        let start = Instant::now();
        let read = fs::File::open(self.file_path(stage, key)).and_then(|mut file| {
            // Sized from the metadata, so the read never grows the buffer.
            let len = usize::try_from(file.metadata()?.len()).unwrap_or(0);
            let mut bytes = Vec::with_capacity(len);
            file.read_to_end(&mut bytes)?;
            Ok((file, bytes))
        });
        let (file, mut bytes) = match read {
            Ok(read) => read,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return DiskLookup::Miss,
            Err(e) => {
                return DiskLookup::Failed(CacheError::new(
                    CacheErrorKind::Io,
                    stage,
                    key,
                    format!("read failed: {e}"),
                ))
            }
        };
        io.read_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        if let Some(plan) = &self.faults {
            if plan.should_inject(FaultKind::EvictionRace, site) {
                // The file vanished between scan and read: a clean miss.
                return DiskLookup::Miss;
            }
            if plan.should_inject(FaultKind::CorruptRead, site) {
                if site & 1 == 0 {
                    bytes.truncate(bytes.len() / 2);
                } else if let Some(last) = bytes.last_mut() {
                    *last ^= 0xFF;
                }
            }
        }
        let valid = classify_bytes(&bytes, stage, key);
        io.read_nanos
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        if let Err(err) = valid {
            return DiskLookup::Failed(err);
        }
        let start = Instant::now();
        let decoded = decode(&bytes[HEADER_LEN..]);
        io.decode_nanos
            .fetch_add(nanos_since(start), Ordering::Relaxed);
        let artifact = match decoded {
            Ok(artifact) => artifact,
            Err(e) => {
                return DiskLookup::Failed(CacheError::new(
                    CacheErrorKind::Corrupt,
                    stage,
                    key,
                    format!("payload decode failed: {e:?}"),
                ))
            }
        };
        self.lock_pinned().insert((stage, key));
        // Best-effort: a failed restamp leaves the older stamp, so the
        // artifact is merely evicted sooner.
        let _ = stamp(&file);
        DiskLookup::Hit(artifact)
    }

    /// Atomically writes the artifact file for `(stage, key)`: the header
    /// and the payload go to a process-unique temp file in the destination
    /// directory, which is stamped and then renamed into place (so a
    /// concurrent reader sees the old complete file or the new complete
    /// file, never a partial one). Then enforces the cache policy's
    /// budgets. Best-effort: I/O failures leave the cache cold but never
    /// the caller broken.
    pub(crate) fn store(&self, stage: Stage, key: u64, payload: &[u8]) {
        let dir = self.root.join(stage.dir());
        if fs::create_dir_all(&dir).is_err() {
            self.events.io.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if let Some(plan) = &self.faults {
            if plan.should_inject(FaultKind::IoError, Self::fault_site(stage, key)) {
                // Injected rename failure: the artifact stays cold on disk
                // (the memory tier still holds it), counted like any real
                // write error.
                self.events.io.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&stage.tag().to_le_bytes());
        header.extend_from_slice(&key.to_le_bytes());
        header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        header.extend_from_slice(&checksum(payload).to_le_bytes());
        if write_atomically(&dir, &self.file_path(stage, key), &[&header, payload], key) {
            self.io_cell(stage)
                .written_bytes
                .fetch_add((HEADER_LEN + payload.len()) as u64, Ordering::Relaxed);
        } else {
            self.events.io.fetch_add(1, Ordering::Relaxed);
        }
        self.enforce_budget();
    }

    /// Brings the cache directory under the policy's budgets, deleting
    /// least-recently-stamped artifacts first. Artifacts this process has
    /// read are pinned and survive; freshly inserted ones are evictable
    /// (the memory tier still holds them). Best-effort.
    fn enforce_budget(&self) {
        if self.policy.is_unbounded() {
            return;
        }
        // Held from scan to delete so concurrent inserts of this store
        // never plan over the same listing and evict twice.
        let pinned = self.lock_pinned();
        let Ok(entries) = scan_entries(&self.root) else {
            return;
        };
        for i in plan_evictions(&entries, &self.policy, &pinned) {
            let _ = fs::remove_file(&entries[i].artifact);
            self.events.budget_evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Size of the header [`encode_record`] prepends.
const RECORD_HEADER_LEN: usize = 32;

/// Wraps `payload` in the codec's versioned record container: the cache
/// MAGIC, the current format version, a caller-chosen record `tag`, the
/// payload length, and the payload checksum (32 bytes of header).
/// Used for non-artifact files that want the same torn-write and
/// version-skew protection as artifacts — e.g. campaign checkpoint files.
#[must_use]
pub fn encode_record(tag: u32, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&tag.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&checksum(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Validates and unwraps a record produced by [`encode_record`] with the
/// same `tag`, returning the payload bytes.
///
/// # Errors
///
/// Returns a short description when the magic, format version, tag,
/// length, or checksum does not match — callers treat any error like a
/// missing file (recompute from scratch), mirroring the artifact
/// versioning policy.
pub fn decode_record(tag: u32, bytes: &[u8]) -> Result<Vec<u8>, String> {
    if bytes.len() < RECORD_HEADER_LEN {
        return Err(format!("short record ({} bytes)", bytes.len()));
    }
    if bytes[..8] != MAGIC {
        return Err("bad magic".to_string());
    }
    let field_u32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4"));
    let field_u64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8"));
    let version = field_u32(8);
    if version != FORMAT_VERSION {
        return Err(format!(
            "format version {version} (expected {FORMAT_VERSION})"
        ));
    }
    let found_tag = field_u32(12);
    if found_tag != tag {
        return Err(format!("record tag {found_tag:#x} (expected {tag:#x})"));
    }
    let payload = &bytes[RECORD_HEADER_LEN..];
    if field_u64(16) != payload.len() as u64 {
        return Err("payload length mismatch".to_string());
    }
    if field_u64(24) != checksum(payload) {
        return Err("checksum mismatch".to_string());
    }
    Ok(payload.to_vec())
}

/// Lists the stale files under `root` that offline maintenance (gc) may
/// remove: `.tmp-*` residue of a writer killed between temp-file creation
/// and rename (live writers hold a temp file only for one write), plus the
/// `.lru` access-stamp sidecars and the root `gen.ctr` generation file that
/// format versions before 6 kept next to the artifacts.
pub(crate) fn scan_stale_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut stale = Vec::new();
    let generation_file = root.join("gen.ctr");
    if generation_file.is_file() {
        stale.push(generation_file);
    }
    for stage in Stage::BY_TAG {
        let dir = root.join(stage.dir());
        let listing = match fs::read_dir(&dir) {
            Ok(listing) => listing,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
            Err(e) => return Err(e),
        };
        for item in listing {
            let path = item?.path();
            let is_temp = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(".tmp-"));
            if is_temp || path.extension().is_some_and(|e| e == "lru") {
                stale.push(path);
            }
        }
    }
    stale.sort();
    Ok(stale)
}

/// Writes `parts` back to back to `dest` via a process-unique temp file in
/// `dir`, stamps it (see [`next_stamp`]; a rename keeps the modification
/// time), and renames it into place. Returns whether the rename happened.
fn write_atomically(dir: &Path, dest: &Path, parts: &[&[u8]], key: u64) -> bool {
    let temp = dir.join(format!(
        ".tmp-{}-{}-{key:016x}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    let written = fs::File::create(&temp)
        .and_then(|mut f| {
            for part in parts {
                f.write_all(part)?;
            }
            // Best-effort: unstamped, the file keeps the time of the write.
            let _ = stamp(&f);
            Ok(())
        })
        .is_ok();
    if written && fs::rename(&temp, dest).is_ok() {
        return true;
    }
    let _ = fs::remove_file(&temp);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::synth::BenchmarkProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dtc-codec-{}-{}-{tag}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Loads `(stage, key)` with a decoder that copies the payload out.
    fn load_bytes(disk: &DiskStore, stage: Stage, key: u64) -> DiskLookup<Vec<u8>> {
        disk.load(stage, key, |payload| Ok(payload.to_vec()))
    }

    fn sample_analysis() -> RareNetAnalysis {
        let nl = BenchmarkProfile::c2670().scaled(25).generate(3);
        RareNetAnalysis::estimate(&nl, 0.2, 1024, 7)
    }

    #[test]
    fn rare_payload_round_trips_bit_exactly() {
        let analysis = sample_analysis();
        let artifact = RareArtifact::new(42, analysis);
        let payload = encode_rare(&artifact);
        let decoded = decode_rare(42, &payload).expect("decode");
        let (a, b) = (artifact.analysis(), decoded.analysis());
        assert_eq!(a.threshold().to_bits(), b.threshold().to_bits());
        assert_eq!(a.rare_nets(), b.rare_nets());
        assert_eq!(a.probabilities().as_slice(), b.probabilities().as_slice());
        assert_eq!(
            a.probabilities().num_patterns(),
            b.probabilities().num_patterns()
        );
        let (wa, wb) = (a.witnesses().unwrap(), b.witnesses().unwrap());
        assert_eq!(wa.targets(), wb.targets());
        assert_eq!(wa.raw_rows(), wb.raw_rows());
        assert_eq!(wa.source(), wb.source());
        // The rebuilt by-net index answers lookups identically.
        for r in a.rare_nets() {
            assert_eq!(a.position(r.net), b.position(r.net));
        }
    }

    #[test]
    fn prob_payload_round_trips_and_rethresholds_bit_exactly() {
        let nl = BenchmarkProfile::c2670().scaled(25).generate(3);
        let estimate = RareNetEstimate::estimate(&nl, 0.25, 1024, 7);
        let artifact = ProbArtifact::new(11, estimate);
        let payload = encode_prob(&artifact);
        let decoded = decode_prob(11, &payload).expect("decode");
        let (a, b) = (artifact.estimate(), decoded.estimate());
        assert_eq!(a.retain().to_bits(), b.retain().to_bits());
        assert_eq!(a.probabilities().as_slice(), b.probabilities().as_slice());
        assert_eq!(
            a.probabilities().num_patterns(),
            b.probabilities().num_patterns()
        );
        assert_eq!(a.bank().targets(), b.bank().targets());
        assert_eq!(a.bank().raw_rows(), b.bank().raw_rows());
        assert_eq!(a.bank().source(), b.bank().source());
        // The decoded estimate re-thresholds to bit-identical analyses.
        for theta in [0.1, 0.2, 0.25] {
            let (ta, tb) = (a.threshold(theta), b.threshold(theta));
            assert_eq!(ta.rare_nets(), tb.rare_nets());
            assert_eq!(
                ta.witnesses().unwrap().raw_rows(),
                tb.witnesses().unwrap().raw_rows()
            );
        }
    }

    /// Decodes `payload` cut at every offset (each prefix must be an error,
    /// not a panic) and with one trailing byte (rejected as such).
    fn assert_every_cut_fails<T>(payload: &[u8], decode: impl Fn(&[u8]) -> Decode<T>) {
        assert!(decode(payload).is_ok(), "the whole payload decodes");
        for cut in 0..payload.len() {
            assert!(decode(&payload[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = payload.to_vec();
        long.push(0);
        assert!(matches!(
            decode(&long),
            Err(DecodeError::Malformed("trailing bytes"))
        ));
    }

    #[test]
    fn prob_payload_corruption_is_an_error_not_a_panic() {
        let nl = BenchmarkProfile::c2670().scaled(25).generate(3);
        let artifact = ProbArtifact::new(3, RareNetEstimate::estimate(&nl, 0.25, 512, 9));
        let payload = encode_prob(&artifact);
        assert_every_cut_fails(&payload, |p| decode_prob(3, p));
        // An out-of-domain retain threshold is rejected up front.
        let mut bad = payload;
        bad[..8].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert!(matches!(
            decode_prob(3, &bad),
            Err(DecodeError::Malformed("retain domain"))
        ));
    }

    #[test]
    fn v2_fused_analyze_files_are_clean_misses_and_heal() {
        let root = temp_root("v2-migration");
        let disk = DiskStore::with_faults(root.clone(), crate::CachePolicy::default(), None);
        // Hand-craft a format-version-2 file — the pre-split fused analyze
        // layout — exactly where a v3 threshold artifact would live.
        let key = 0x1234u64;
        let payload = b"pre-split fused analyze payload";
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&Stage::Analyze.tag().to_le_bytes());
        bytes.extend_from_slice(&key.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&checksum(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        let dir = root.join(Stage::Analyze.dir());
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(format!("{key:016x}.{FILE_EXT}")), &bytes).unwrap();
        // The old file classifies as version skew — a clean miss, no panic.
        match load_bytes(&disk, Stage::Analyze, key) {
            DiskLookup::Failed(err) => {
                assert_eq!(err.kind, crate::cache::CacheErrorKind::VersionMismatch);
                disk.note_failure(&err);
            }
            _ => panic!("v2 file must classify as a failed lookup"),
        }
        assert_eq!(disk.events().version_mismatch, 1);
        // Recompute-and-overwrite heals it into a servable v3 file.
        disk.store(Stage::Analyze, key, b"fresh v3 payload");
        match load_bytes(&disk, Stage::Analyze, key) {
            DiskLookup::Hit(fresh) => assert_eq!(fresh, b"fresh v3 payload"),
            _ => panic!("healed file must serve"),
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn graph_payload_round_trips_bit_exactly() {
        let nl = BenchmarkProfile::c2670().scaled(25).generate(3);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 1024, 7);
        let graph = CompatibilityGraph::build(&nl, &analysis, 1);
        let artifact = GraphArtifact::new(9, graph, analysis.threshold());
        let payload = encode_graph(&artifact);
        let decoded = decode_graph(9, &payload).expect("decode");
        assert_eq!(artifact.graph().matrix(), decoded.graph().matrix());
        assert_eq!(artifact.graph().rare_nets(), decoded.graph().rare_nets());
        // Every counter round-trips; the tier times are not persisted.
        let untimed = CompatStats {
            tier1_nanos: 0,
            tier2_nanos: 0,
            tier3_nanos: 0,
            tier3_probe_nanos: 0,
            tier3_sweep_nanos: 0,
            ..*artifact.graph().stats()
        };
        assert_eq!(&untimed, decoded.graph().stats());
        assert_eq!(
            artifact.graph().witness_rows(),
            decoded.graph().witness_rows()
        );
        assert_eq!(
            artifact.rareness_threshold().to_bits(),
            decoded.rareness_threshold().to_bits()
        );
        // Witness pattern materialization survives the round trip.
        if artifact.graph().len() >= 2 {
            for i in 0..artifact.graph().len() {
                for j in (i + 1)..artifact.graph().len() {
                    assert_eq!(
                        artifact.graph().joint_witness_pattern(&[i, j]),
                        decoded.graph().joint_witness_pattern(&[i, j]),
                    );
                }
            }
        }
    }

    #[test]
    fn graph_payload_bytes_are_independent_of_threads_and_runs() {
        let nl = BenchmarkProfile::c2670().scaled(25).generate(3);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 1024, 7);
        let encoded = |threads: usize| {
            let exec = exec::Exec::new(threads);
            let graph = CompatibilityGraph::build_on(
                &nl,
                &analysis,
                crate::CompatStrategy::default(),
                &exec,
            );
            encode_graph(&GraphArtifact::new(9, graph, analysis.threshold()))
        };
        let serial = encoded(1);
        assert!(encoded(1) == serial, "two builds at one thread");
        assert!(encoded(4) == serial, "one thread against four");
    }

    #[test]
    fn sets_and_patterns_payloads_round_trip() {
        let sets_artifact = SetsArtifact::new(
            5,
            SelectedSets {
                sets: vec![vec![0, 2, 5], vec![1], vec![]],
                max_compatible_set: 3,
                eval_env_sat_checks: 17,
                harvested_total: 99,
            },
        );
        let decoded = decode_sets(5, &encode_sets(&sets_artifact)).expect("sets");
        assert_eq!(decoded.selected().sets, sets_artifact.selected().sets);
        assert_eq!(decoded.selected().harvested_total, 99);

        let patterns_artifact = PatternsArtifact::new(
            6,
            GeneratedPatterns {
                patterns: vec![
                    TestPattern::from_bit_string("1011_0010_1"),
                    TestPattern::zeros(64),
                    TestPattern::ones(65),
                    TestPattern::default(),
                ],
                stats: PatternGenStats {
                    witness_reused: 3,
                    sat_queries: 2,
                },
            },
        );
        let decoded = decode_patterns(6, &encode_patterns(&patterns_artifact)).expect("patterns");
        assert_eq!(
            decoded.generated().patterns,
            patterns_artifact.generated().patterns
        );
        assert_eq!(
            decoded.generated().stats,
            patterns_artifact.generated().stats
        );
    }

    #[test]
    fn truncated_and_malformed_payloads_are_errors_not_panics() {
        let artifact = RareArtifact::new(1, sample_analysis());
        let payload = encode_rare(&artifact);
        assert_every_cut_fails(&payload, |p| decode_rare(1, p));
        // A length field pointing past the buffer fails fast.
        let mut huge = payload;
        let len_at = 8; // rare-net count lives right after the threshold
        huge[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_rare(1, &huge).is_err());
    }

    #[test]
    fn graph_and_policy_payloads_fail_at_every_cut() {
        let nl = BenchmarkProfile::c2670().scaled(25).generate(3);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 1024, 7);
        let graph = CompatibilityGraph::build(&nl, &analysis, 1);
        let graph = GraphArtifact::new(9, graph, analysis.threshold());
        assert_every_cut_fails(&encode_graph(&graph), |p| decode_graph(9, p));
        assert_every_cut_fails(&encode_policy(&sample_policy(4)), |p| decode_policy(4, p));
    }

    #[test]
    fn bulk_decoders_reject_length_prefixes_past_the_buffer() {
        // Each prefix is followed by one 8-byte word and claims more. The
        // huge ones would abort the test if a decoder allocated first.
        for n in [2u64, 9, 1 << 40, u64::MAX / 8 + 1, u64::MAX] {
            let mut bytes = n.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0xAB; 8]);
            let truncated = Some(DecodeError::Truncated);
            let reader = || Reader::new(&bytes);
            assert_eq!(reader().f64_vec().err(), truncated, "f64_vec, {n}");
            assert_eq!(reader().u64_vec().err(), truncated, "u64_vec, {n}");
            assert_eq!(reader().usize_vec().err(), truncated, "usize_vec, {n}");
            assert_eq!(r_sets(&mut reader()).err(), truncated, "sets, {n}");
            assert_eq!(
                r_rare_nets(&mut reader()).err(),
                truncated,
                "rare nets, {n}"
            );
        }
        // One word holds 64 packed bits.
        for n in [65u64, 1 << 40, u64::MAX] {
            let mut bytes = n.to_le_bytes().to_vec();
            bytes.extend_from_slice(&[0xAB; 8]);
            assert_eq!(
                r_bool_vec_packed(&mut Reader::new(&bytes)).err(),
                Some(DecodeError::Truncated),
                "packed bits, {n}"
            );
        }
    }

    /// The payload bytes of one fixed small build, pinned across commits:
    /// a layout change that keeps each round trip exact but moves a bit of
    /// the stored graph or witness bank fails here.
    #[test]
    fn payload_checksums_are_pinned() {
        let nl = BenchmarkProfile::c2670().scaled(25).generate(3);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 1024, 7);
        let graph = CompatibilityGraph::build(&nl, &analysis, 1);
        let graph = encode_graph(&GraphArtifact::new(9, graph, analysis.threshold()));
        let estimate = RareNetEstimate::estimate(&nl, 0.25, 1024, 7);
        let prob = encode_prob(&ProbArtifact::new(11, estimate));
        assert_eq!(
            (graph.len(), checksum(&graph)),
            (2966, 0xa3f6_b0e2_7dfb_80d5)
        );
        assert_eq!((prob.len(), checksum(&prob)), (3673, 0x874f_15c7_dc5a_edaa));
    }

    #[test]
    fn graph_decoder_rejects_self_loops_and_impossible_chunk_counts() {
        let nl = BenchmarkProfile::c2670().scaled(25).generate(3);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 1024, 7);
        let graph = CompatibilityGraph::build(&nl, &analysis, 1);
        let n = graph.len();
        assert!(n > 0);
        let artifact = GraphArtifact::new(9, graph, analysis.threshold());
        let payload = encode_graph(&artifact);
        // The adjacency stream starts after the threshold, the rare-net
        // list and the bit count; bit 0 is the pair (0, 0).
        let stream_at = 8 + 8 + 17 * n + 8;
        let mut looped = payload.clone();
        looped[stream_at] |= 1;
        assert_eq!(
            decode_graph(9, &looped).err(),
            Some(DecodeError::Malformed("adjacency self-loop"))
        );
        let mut shape = payload;
        shape[stream_at - 8..stream_at].copy_from_slice(&((n * n + 1) as u64).to_le_bytes());
        assert_eq!(
            decode_graph(9, &shape).err(),
            Some(DecodeError::Malformed("adjacency shape"))
        );
        // A bank with no targets holds no row words for any chunk count,
        // but a count past `usize::MAX / 64` is still rejected.
        let mut w = Writer::new();
        w.u8(1);
        w.usize(0);
        w.usize(usize::MAX / 32);
        w.usize(64);
        w.u64_slice(&[]);
        w.u8(0);
        let bytes = w.finish();
        assert_eq!(
            r_witness_bank(&mut Reader::new(&bytes)).err(),
            Some(DecodeError::Malformed("witness chunk count"))
        );
    }

    #[test]
    fn checksum_is_pinned() {
        // Two full blocks and a 9-byte tail: every lane and the tail path.
        let bytes: Vec<u8> = (0u8..73).collect();
        assert_eq!(checksum(&bytes), 0x8b1d_c77a_4669_a1a5);
        assert_eq!(checksum(&[]), 0x36d5_de3d_9cb3_9188);
    }

    #[test]
    fn checksum_detects_every_single_byte_change_and_an_appended_zero() {
        for len in 0..=100usize {
            let patterned: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(37) ^ 0x5A)
                .collect();
            for payload in [patterned, vec![0u8; len]] {
                let sum = checksum(&payload);
                for at in 0..len {
                    for flip in [0x01u8, 0x80, 0xFF] {
                        let mut changed = payload.clone();
                        changed[at] ^= flip;
                        assert_ne!(checksum(&changed), sum, "len {len}, byte {at} ^ {flip:#x}");
                    }
                }
                let mut longer = payload;
                longer.push(0);
                assert_ne!(checksum(&longer), sum, "len {len} plus a zero byte");
            }
        }
    }

    /// A small trained policy: enough updates for non-zero Adam moments
    /// and a loss history.
    fn sample_policy(key: u64) -> PolicyArtifact {
        let config = PpoConfig {
            batch_size: 16,
            hidden_sizes: vec![8],
            ..PpoConfig::default()
        };
        let mut trainer = PpoTrainer::new(3, 4, &config, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let state = vec![1.0, 0.0, 1.0];
        for _ in 0..48 {
            let (action, log_prob, value) = trainer.policy_step(&state, &[], &mut rng);
            trainer.record(rl::Transition {
                state: state.clone(),
                mask: vec![],
                action,
                reward: f64::from(u8::from(action == 1)),
                done: true,
                log_prob,
                value,
            });
            trainer.update_if_ready();
        }
        assert!(trainer.total_updates() > 0);
        let report = TrainReport {
            episode_rewards: vec![0.5, 1.0],
            episode_lengths: vec![3, 4],
            losses: trainer.loss_history().to_vec(),
            wall_seconds: 0.25,
        };
        PolicyArtifact::new(
            key,
            TrainedPolicy {
                trainer,
                report,
                harvested_sets: vec![vec![0, 2], vec![1]],
                env_sat_checks: 3,
            },
        )
    }

    /// Every field of `snapshot`, floats as their bit patterns.
    fn snapshot_bits(snapshot: &PolicySnapshot) -> Vec<u64> {
        let floats = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut bits = vec![
            snapshot.num_actions as u64,
            snapshot.total_steps,
            snapshot.total_updates,
        ];
        for (steps, l) in &snapshot.loss_history {
            bits.push(*steps);
            bits.extend(floats(&[
                l.policy_loss,
                l.entropy_loss,
                l.value_loss,
                l.total_loss,
            ]));
        }
        let nets = [
            (
                &snapshot.policy_layer_sizes,
                &snapshot.policy_params,
                &snapshot.policy_opt,
            ),
            (
                &snapshot.value_layer_sizes,
                &snapshot.value_params,
                &snapshot.value_opt,
            ),
        ];
        for (sizes, params, opt) in nets {
            bits.extend(sizes.iter().map(|&n| n as u64));
            bits.extend(floats(params));
            bits.push(opt.learning_rate.to_bits());
            bits.extend(floats(&opt.m));
            bits.extend(floats(&opt.v));
            bits.push(opt.steps);
        }
        bits
    }

    #[test]
    fn policy_restored_through_the_disk_tier_matches_from_snapshot() {
        let root = temp_root("policy-restore");
        let disk = DiskStore::with_faults(root.clone(), crate::CachePolicy::default(), None);
        let key = 0x5eed;
        let artifact = sample_policy(key);
        let trained = &artifact.policy().trainer;
        let snapshot = trained.snapshot();
        disk.store(Stage::Train, key, &encode_policy(&artifact));
        let DiskLookup::Hit(restored) = disk.load(Stage::Train, key, |p| decode_policy(key, p))
        else {
            panic!("expected a disk hit");
        };
        let restored = &restored.policy().trainer;
        let direct = PpoTrainer::from_snapshot(snapshot.clone());

        let restored_bits = snapshot_bits(&restored.snapshot());
        assert_eq!(
            restored_bits,
            snapshot_bits(&direct.snapshot()),
            "params, Adam moments and loss history"
        );
        assert_eq!(
            restored_bits,
            snapshot_bits(&snapshot),
            "snapshot() is a fixed point"
        );
        for state in [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.5, -0.5, 0.25]] {
            let greedy = trained.best_action(&state, &[]);
            assert_eq!(restored.best_action(&state, &[]), greedy);
            assert_eq!(direct.best_action(&state, &[]), greedy);
            let mask = [true, false, true, true];
            assert_eq!(
                restored.best_action(&state, &mask),
                trained.best_action(&state, &mask)
            );
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn disk_store_validates_header_version_key_and_checksum() {
        let root = temp_root("header");
        let disk = DiskStore::with_faults(root.clone(), crate::CachePolicy::default(), None);
        assert!(matches!(
            load_bytes(&disk, Stage::Analyze, 7),
            DiskLookup::Miss
        ));
        disk.store(Stage::Analyze, 7, b"payload bytes");
        match load_bytes(&disk, Stage::Analyze, 7) {
            DiskLookup::Hit(payload) => assert_eq!(payload, b"payload bytes"),
            _ => panic!("expected hit"),
        }
        // Wrong stage and wrong key are misses (different files).
        assert!(matches!(
            load_bytes(&disk, Stage::BuildGraph, 7),
            DiskLookup::Miss
        ));
        assert!(matches!(
            load_bytes(&disk, Stage::Analyze, 8),
            DiskLookup::Miss
        ));

        let path = disk.file_path(Stage::Analyze, 7);
        let original = fs::read(&path).unwrap();

        // Route each failure through note_failure, as the artifact store
        // does, so the event counters are exercised too.
        let failure_kind = |lookup: DiskLookup<Vec<u8>>| match lookup {
            DiskLookup::Failed(err) => {
                disk.note_failure(&err);
                err.kind
            }
            _ => panic!("expected a classified failure"),
        };

        // Bad magic.
        let mut bad = original.clone();
        bad[0] ^= 0xFF;
        fs::write(&path, &bad).unwrap();
        assert_eq!(
            failure_kind(load_bytes(&disk, Stage::Analyze, 7)),
            crate::cache::CacheErrorKind::Corrupt
        );

        // Wrong format version with an intact magic classifies as
        // version skew, not corruption.
        let mut bad = original.clone();
        bad[8] = bad[8].wrapping_add(1);
        fs::write(&path, &bad).unwrap();
        assert_eq!(
            failure_kind(load_bytes(&disk, Stage::Analyze, 7)),
            crate::cache::CacheErrorKind::VersionMismatch
        );

        // Truncated payload.
        fs::write(&path, &original[..original.len() - 3]).unwrap();
        assert_eq!(
            failure_kind(load_bytes(&disk, Stage::Analyze, 7)),
            crate::cache::CacheErrorKind::Corrupt
        );

        // Flipped payload bit (checksum mismatch).
        let mut bad = original.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        fs::write(&path, &bad).unwrap();
        assert_eq!(
            failure_kind(load_bytes(&disk, Stage::Analyze, 7)),
            crate::cache::CacheErrorKind::Corrupt
        );

        // Every failure above was counted and classified.
        let events = disk.events();
        assert_eq!(events.corrupt, 3);
        assert_eq!(events.version_mismatch, 1);
        assert_eq!(events.io, 0);
        assert_eq!(events.total(), 4);

        // Overwriting heals the file.
        disk.store(Stage::Analyze, 7, b"payload bytes");
        assert!(matches!(
            load_bytes(&disk, Stage::Analyze, 7),
            DiskLookup::Hit(_)
        ));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn budget_enforcement_counts_other_stores_artifacts() {
        let root = temp_root("cross-store");
        let policy = crate::CachePolicy::default().with_max_bytes(200);
        // Two stores sharing one directory, as two CLI processes would.
        let a = DiskStore::with_faults(root.clone(), policy, None);
        let b = DiskStore::with_faults(root.clone(), policy, None);

        b.store(Stage::Analyze, 1, &[0u8; 48]);
        // A writes behind B's back.
        a.store(Stage::Analyze, 2, &[0u8; 48]);
        // B's next insert accounts for A's artifact when enforcing the
        // budget, and evicts by stamp across both stores.
        b.store(Stage::Analyze, 3, &[0u8; 48]);
        let on_disk = scan_entries(&root).unwrap();
        let total: u64 = on_disk.iter().map(|e| e.bytes).sum();
        assert!(total <= 200, "cache over budget: {total}");
        let mut keys: Vec<u64> = on_disk.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![2, 3], "LRU evicted the oldest key across stores");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    #[cfg(unix)]
    fn disk_hits_restamp_the_artifact_in_place() {
        let root = temp_root("restamp");
        let disk = DiskStore::with_faults(root.clone(), crate::CachePolicy::default(), None);
        disk.store(Stage::Analyze, 1, b"older");
        disk.store(Stage::Analyze, 2, b"newer");
        let stamp_of = |key: u64| {
            let entries = scan_entries(&root).unwrap();
            entries.iter().find(|e| e.key == key).unwrap().stamp
        };
        assert!(stamp_of(1) < stamp_of(2), "inserts are stamped in order");
        let inode = |key: u64| {
            use std::os::unix::fs::MetadataExt as _;
            fs::metadata(disk.file_path(Stage::Analyze, key))
                .unwrap()
                .ino()
        };
        let before = inode(1);
        assert!(matches!(
            load_bytes(&disk, Stage::Analyze, 1),
            DiskLookup::Hit(_)
        ));
        assert!(stamp_of(1) > stamp_of(2), "a hit makes the artifact newest");
        assert_eq!(inode(1), before, "a hit rewrites no file");
        let names: Vec<String> = fs::read_dir(root.join(Stage::Analyze.dir()))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 2, "only the two artifacts: {names:?}");
        let _ = fs::remove_dir_all(&root);
    }
}
