//! Witness harvesting: mining a Monte-Carlo simulation run for patterns that
//! *prove* rare-net facts.
//!
//! The DETERRENT offline phase asks, for every unordered pair of rare nets,
//! whether one input pattern can drive both to their rare values at once.
//! The probability-estimation run already simulated thousands of random
//! patterns — any pattern under which two rare nets were both observed at
//! their rare values is a constructive *witness* of compatibility, making a
//! SAT query for that pair unnecessary. A [`WitnessBank`] stores, per target
//! `(net, rare_value)`, one bit per simulated pattern ("did this pattern
//! drive the net to that value?"), so a pairwise check is a word-wise AND
//! over the two rows.

use exec::{split_seed, Exec};
use netlist::{BitMatrix, NetId, Netlist};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::{PackedValues, Simulator, TestPattern};

/// A pattern stream, defined per 64-pattern chunk. It is the one definition
/// of the patterns every simulation pass reads
/// ([`Simulator::run_chunk_into`]), and it lets a [`WitnessBank`] turn a
/// witness *index* back into the concrete [`TestPattern`] that produced it
/// (reused downstream instead of a SAT justification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternSource {
    /// Uniformly random patterns: chunk `c` draws one `next_u64` per scan
    /// input (in [`netlist::Netlist::scan_inputs`] order) from
    /// `StdRng::seed_from_u64(split_seed(seed, c))`, and pattern `p` of the
    /// chunk assigns input `i` the bit `(draw_i >> p) & 1`. Chunks are
    /// independent streams, so a pass over them is bit-identical at any
    /// thread count.
    Random {
        /// Scan-input width of the patterns.
        width: usize,
        /// Master seed of the per-chunk streams.
        seed: u64,
    },
    /// Exhaustive enumeration of all `2^width` patterns: pattern `i` assigns
    /// scan input `b` the bit `(i >> b) & 1`.
    Exhaustive {
        /// Scan-input width of the patterns.
        width: usize,
    },
}

impl PatternSource {
    /// The random stream of `num_patterns` patterns (rounded up to whole
    /// chunks) over `netlist`'s scan inputs, and its chunk count.
    ///
    /// # Panics
    ///
    /// Panics if `num_patterns` is zero.
    pub(crate) fn random(netlist: &Netlist, num_patterns: usize, seed: u64) -> (Self, usize) {
        assert!(num_patterns > 0, "need at least one pattern");
        let width = netlist.num_scan_inputs();
        (Self::Random { width, seed }, num_patterns.div_ceil(64))
    }

    /// The exhaustive stream over `netlist`'s scan inputs, and its chunk
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 24 scan inputs.
    pub(crate) fn exhaustive(netlist: &Netlist) -> (Self, usize) {
        let width = netlist.num_scan_inputs();
        assert!(width <= 24, "exhaustive enumeration limited to 24 inputs");
        (Self::Exhaustive { width }, (1usize << width).div_ceil(64))
    }

    /// Scan-input width of the patterns.
    pub(crate) fn width(&self) -> usize {
        match *self {
            PatternSource::Random { width, .. } | PatternSource::Exhaustive { width } => width,
        }
    }

    /// Number of patterns in chunk `chunk`: 64, except for the last chunk of
    /// an exhaustive stream whose `2^width` is not a multiple of 64.
    #[must_use]
    pub fn chunk_len(&self, chunk: usize) -> usize {
        match *self {
            PatternSource::Random { .. } => 64,
            PatternSource::Exhaustive { width } => {
                (1usize << width).saturating_sub(64 * chunk).min(64)
            }
        }
    }

    /// The packed input words of chunk `chunk`: called once per scan input,
    /// in order, it returns the word whose bit `p` is that input's value
    /// under pattern `64 * chunk + p`.
    pub(crate) fn chunk_words(&self, chunk: usize) -> impl FnMut(usize) -> u64 {
        let mut rng = match *self {
            PatternSource::Random { seed, .. } => {
                Some(StdRng::seed_from_u64(split_seed(seed, chunk as u64)))
            }
            PatternSource::Exhaustive { .. } => None,
        };
        move |b| match rng.as_mut() {
            Some(rng) => rng.next_u64(),
            None => (0..64).fold(0, |w, p| {
                w | (u64::from(((64 * chunk + p) >> b) & 1 == 1) << p)
            }),
        }
    }

    /// Materializes pattern `index` of the stream.
    #[must_use]
    pub fn pattern(&self, index: usize) -> TestPattern {
        let mut word = self.chunk_words(index / 64);
        (0..self.width())
            .map(|b| (word(b) >> (index % 64)) & 1 == 1)
            .collect()
    }
}

/// Per-target witness bitmaps harvested from a simulation run.
///
/// Row `t` has one bit per simulated pattern; bit set means the pattern drove
/// `targets[t].0` to `targets[t].1`. Padding bits of the final partial chunk
/// are always zero, so row intersections never produce false witnesses.
#[derive(Debug, Clone)]
pub struct WitnessBank {
    targets: Vec<(NetId, bool)>,
    num_patterns: usize,
    /// `targets × (64 · chunks)`: word `c` of row `t` covers chunk `c`.
    rows: BitMatrix,
    /// How to re-materialize the underlying patterns, when known.
    source: Option<PatternSource>,
}

impl WitnessBank {
    /// Re-simulates the `num_patterns` random patterns generated from `seed`
    /// (the [`PatternSource::Random`] stream of
    /// [`crate::SignalProbabilities::estimate`]) and harvests witnesses for
    /// `targets` only. This is the replay reference: the single compacting
    /// pass behind [`crate::RareNetEstimate`] must reproduce its rows bit for
    /// bit. Memory stays proportional to `targets.len()` rather than the
    /// netlist size.
    ///
    /// # Panics
    ///
    /// Panics if `num_patterns` is zero.
    #[must_use]
    pub fn harvest(
        netlist: &Netlist,
        targets: &[(NetId, bool)],
        num_patterns: usize,
        seed: u64,
    ) -> Self {
        Self::harvest_with(netlist, targets, num_patterns, seed, &Exec::serial())
    }

    /// Like [`WitnessBank::harvest`], replaying the chunks in parallel on
    /// `exec`. Chunk streams are seed-split, so the bank is bit-identical at
    /// any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `num_patterns` is zero.
    #[must_use]
    pub fn harvest_with(
        netlist: &Netlist,
        targets: &[(NetId, bool)],
        num_patterns: usize,
        seed: u64,
        exec: &Exec,
    ) -> Self {
        let (source, num_chunks) = PatternSource::random(netlist, num_patterns, seed);
        let mut rows = vec![0u64; targets.len() * num_chunks];
        if !targets.is_empty() {
            // Workers fill chunk-major blocks `local[k * targets + t]` for
            // their contiguous chunk ranges; the merge transposes into the
            // row-major bank layout in chunk order.
            let blocks = exec.par_ranges(num_chunks, |range| {
                let sim = Simulator::new(netlist);
                let mut packed = PackedValues::scratch();
                let mut local = vec![0u64; range.len() * targets.len()];
                for (k, c) in range.clone().enumerate() {
                    sim.run_chunk_into(&source, c, &mut packed);
                    for (t, &(net, value)) in targets.iter().enumerate() {
                        let word = packed.word(net);
                        local[k * targets.len() + t] = if value { word } else { !word };
                    }
                }
                (range.start, local)
            });
            for (start, local) in blocks {
                for (k, chunk_words) in local.chunks_exact(targets.len()).enumerate() {
                    for (t, &word) in chunk_words.iter().enumerate() {
                        rows[t * num_chunks + start + k] = word;
                    }
                }
            }
        }
        Self {
            targets: targets.to_vec(),
            num_patterns: num_chunks * 64,
            rows: BitMatrix::from_words(targets.len(), num_chunks * 64, rows),
            source: Some(source),
        }
    }

    /// The harvested targets, in row order.
    #[must_use]
    pub fn targets(&self) -> &[(NetId, bool)] {
        &self.targets
    }

    /// Number of targets (rows).
    #[must_use]
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Returns `true` when the bank holds no targets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Number of patterns each row covers.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// Number of 64-pattern chunks per row.
    #[must_use]
    pub fn num_chunks(&self) -> usize {
        self.rows.cols() / 64
    }

    /// All row words, row-major (`row(t)` is
    /// `raw_rows()[t * num_chunks .. (t + 1) * num_chunks]`).
    #[must_use]
    pub fn raw_rows(&self) -> &[u64] {
        self.rows.words()
    }

    /// Rebuilds a bank from its raw parts — the inverse of
    /// [`WitnessBank::targets`] / [`WitnessBank::num_chunks`] /
    /// [`WitnessBank::num_patterns`] / [`WitnessBank::raw_rows`] /
    /// [`WitnessBank::source`]. Exists so callers persisting an analysis
    /// (e.g. a disk-backed artifact cache) can round-trip it bit-exactly
    /// without a serde dependency.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != targets.len() * num_chunks`, or if
    /// `64 * num_chunks` overflows `usize`.
    #[must_use]
    pub fn from_raw_parts(
        targets: Vec<(NetId, bool)>,
        num_chunks: usize,
        num_patterns: usize,
        rows: Vec<u64>,
        source: Option<PatternSource>,
    ) -> Self {
        let patterns = num_chunks.checked_mul(64).expect("chunk count overflows");
        Self {
            rows: BitMatrix::from_words(targets.len(), patterns, rows),
            targets,
            num_patterns,
            source,
        }
    }

    /// The witness bitmap of target `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn row(&self, t: usize) -> &[u64] {
        self.rows.row(t)
    }

    /// Whether any simulated pattern drove target `t` to its value — a
    /// constructive proof that the target is individually justifiable.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    #[must_use]
    pub fn has_witness(&self, t: usize) -> bool {
        self.rows.count(t) > 0
    }

    /// Whether some single simulated pattern drove targets `a` and `b` to
    /// their values simultaneously — a constructive proof of pairwise
    /// compatibility requiring two ANDs per 64 patterns.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    #[must_use]
    pub fn pair_witnessed(&self, a: usize, b: usize) -> bool {
        self.rows.intersects(a, b)
    }

    /// The index of the first simulated pattern that drove *every* target in
    /// `set` to its value at once, or `None` when no pattern did (or `set`
    /// is empty). Combine with [`WitnessBank::pattern`] to obtain the
    /// concrete pattern and skip a SAT justification for the set.
    #[must_use]
    pub fn set_witness_index(&self, set: &[usize]) -> Option<usize> {
        if set.is_empty() {
            return None;
        }
        (0..self.num_chunks()).find_map(|c| {
            let joint = set
                .iter()
                .fold(u64::MAX, |acc, &t| acc & self.rows.row(t)[c]);
            (joint != 0).then(|| c * 64 + joint.trailing_zeros() as usize)
        })
    }

    /// How the underlying pattern stream can be re-materialized, if known.
    #[must_use]
    pub fn source(&self) -> Option<PatternSource> {
        self.source
    }

    /// Materializes simulated pattern `index`, when the bank knows its
    /// [`PatternSource`] and `index` is in range.
    #[must_use]
    pub fn pattern(&self, index: usize) -> Option<TestPattern> {
        if index >= self.num_patterns {
            return None;
        }
        Some(self.source?.pattern(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rare::RareNetAnalysis;
    use netlist::samples;

    /// The witness bank of the exhaustive analysis of `nl` at `theta`.
    fn exhaustive_bank(nl: &Netlist, theta: f64) -> WitnessBank {
        RareNetAnalysis::exhaustive(nl, theta)
            .witnesses()
            .expect("exhaustive analyses keep a bank")
            .clone()
    }

    fn row_of(bank: &WitnessBank, net: NetId) -> usize {
        bank.targets()
            .iter()
            .position(|&(n, _)| n == net)
            .expect("net is banked")
    }

    #[test]
    fn trace_and_harvest_agree_on_random_run() {
        let nl = samples::majority5();
        let targets: Vec<(NetId, bool)> = nl
            .internal_nets()
            .into_iter()
            .map(|id| (id, true))
            .collect();
        let harvested = WitnessBank::harvest(&nl, &targets, 512, 11);
        // The trace side materializes every pattern of the stream and
        // simulates it through the pattern-batch path, not the chunk path.
        let (source, chunks) = PatternSource::random(&nl, 512, 11);
        assert_eq!(harvested.num_patterns(), 512);
        assert_eq!(harvested.num_chunks(), chunks);
        let sim = Simulator::new(&nl);
        for c in 0..chunks {
            let patterns: Vec<TestPattern> =
                (64 * c..64 * (c + 1)).map(|i| source.pattern(i)).collect();
            let trace = sim.run_batch(&patterns);
            for (t, &(net, _)) in targets.iter().enumerate() {
                assert_eq!(
                    harvested.row(t)[c],
                    trace.word(net),
                    "target {t}, chunk {c}"
                );
            }
        }
    }

    #[test]
    fn rare_chain_witness_counts_match_theory() {
        let nl = samples::rare_chain(4);
        let root = nl.net_by_name("and3").unwrap();
        let any = nl.net_by_name("any").unwrap();
        let bank = exhaustive_bank(&nl, 0.1);
        let (r, a) = (row_of(&bank, root), row_of(&bank, any));
        assert_eq!(bank.targets()[r], (root, true));
        assert_eq!(bank.targets()[a], (any, false), "the OR's rare value is 0");
        // Exactly one of the 16 exhaustive patterns sets the AND-chain root,
        // and exactly one clears the OR.
        assert_eq!(bank.num_patterns(), 16);
        assert_eq!(bank.rows.count(r), 1);
        assert_eq!(bank.rows.count(a), 1);
        assert!(bank.has_witness(r));
        // 1111 sets the root, 0000 clears the OR: no pattern does both.
        assert!(!bank.pair_witnessed(r, a));
    }

    #[test]
    fn partial_chunk_padding_is_masked() {
        // rare_chain(3) has 3 inputs -> 8 exhaustive patterns, one partial
        // chunk. The OR's row is inverted (rare value 0), and its padding
        // bits must not leak witnesses.
        let nl = samples::rare_chain(3);
        let any = nl.net_by_name("any").unwrap();
        let bank = exhaustive_bank(&nl, 0.3);
        let a = row_of(&bank, any);
        assert_eq!(bank.targets()[a], (any, false));
        assert_eq!(bank.row(a), &[1], "only pattern 000 gives any=0");
        assert_eq!(bank.rows.count(a), 1);
    }

    #[test]
    fn exhaustive_bank_bits_match_scalar_simulation() {
        for width in [3, 7] {
            let nl = samples::rare_chain(width);
            let bank = exhaustive_bank(&nl, 0.5);
            let source = bank.source().expect("exhaustive banks have a source");
            assert_eq!(source, PatternSource::Exhaustive { width });
            assert_eq!(bank.num_patterns(), 1 << width);
            assert!(!bank.is_empty());
            let sim = Simulator::new(&nl);
            for i in 0..bank.num_chunks() * 64 {
                let values = (i < bank.num_patterns()).then(|| sim.run(&source.pattern(i)));
                for (t, &(net, value)) in bank.targets().iter().enumerate() {
                    let bit = (bank.row(t)[i / 64] >> (i % 64)) & 1 == 1;
                    let expected = values.as_ref().is_some_and(|v| v.value(net) == value);
                    assert_eq!(bit, expected, "width {width}, pattern {i}, target {t}");
                }
            }
        }
    }

    #[test]
    fn parallel_harvest_is_bit_identical_to_serial() {
        let nl = netlist::synth::BenchmarkProfile::c2670()
            .scaled(10)
            .generate(6);
        let targets: Vec<(NetId, bool)> = nl
            .internal_nets()
            .into_iter()
            .take(20)
            .map(|id| (id, true))
            .collect();
        let serial = WitnessBank::harvest(&nl, &targets, 1000, 13);
        for threads in [2, 5] {
            let parallel = WitnessBank::harvest_with(&nl, &targets, 1000, 13, &Exec::new(threads));
            for t in 0..targets.len() {
                assert_eq!(serial.row(t), parallel.row(t), "{threads} threads, row {t}");
            }
        }
    }

    #[test]
    fn materialized_witness_patterns_activate_their_sets() {
        let nl = netlist::synth::BenchmarkProfile::c2670()
            .scaled(15)
            .generate(4);
        let targets: Vec<(NetId, bool)> = nl
            .internal_nets()
            .into_iter()
            .take(12)
            .map(|id| (id, true))
            .collect();
        let bank = WitnessBank::harvest(&nl, &targets, 512, 21);
        let sim = crate::Simulator::new(&nl);
        let mut verified = 0;
        for a in 0..targets.len() {
            for b in (a + 1)..targets.len() {
                if let Some(idx) = bank.set_witness_index(&[a, b]) {
                    let pattern = bank.pattern(idx).expect("harvested banks have a source");
                    assert!(
                        sim.activates(&pattern, &[targets[a], targets[b]]),
                        "witness {idx} must drive targets {a} and {b}"
                    );
                    verified += 1;
                }
            }
        }
        assert!(verified > 0, "expected at least one joint witness");
        assert!(bank.pattern(bank.num_patterns()).is_none());
    }

    #[test]
    fn exhaustive_source_materializes_index_bits() {
        let nl = samples::rare_chain(4);
        let root = nl.net_by_name("and3").unwrap();
        let bank = exhaustive_bank(&nl, 0.1);
        let idx = bank
            .set_witness_index(&[row_of(&bank, root)])
            .expect("all-ones witnesses root");
        assert_eq!(idx, 15, "only pattern 1111 sets the AND-chain root");
        let pattern = bank.pattern(idx).unwrap();
        assert_eq!(pattern.to_string(), "1111");
        // Without a source the bank cannot materialize.
        let sourceless = WitnessBank::from_raw_parts(
            bank.targets().to_vec(),
            bank.num_chunks(),
            bank.num_patterns(),
            bank.raw_rows().to_vec(),
            None,
        );
        assert!(sourceless.pattern(idx).is_none());
    }

    #[test]
    fn pair_witnesses_prove_compatibility() {
        // G1 is a primary input, which no rare-net analysis banks, so the
        // rows come from the replay harvest.
        let nl = samples::c17();
        let g10 = nl.net_by_name("G10").unwrap();
        let g1 = nl.net_by_name("G1").unwrap();
        let bank = WitnessBank::harvest(&nl, &[(g10, false), (g1, false), (g1, true)], 256, 3);
        // G10 = NAND(G1, G3) = 0 forces G1 = 1: no joint witness with G1=0,
        // but plenty with G1=1.
        assert!(!bank.pair_witnessed(0, 1));
        assert!(bank.pair_witnessed(0, 2));
        assert!(bank.set_witness_index(&[0, 2]).is_some());
        assert!(bank.set_witness_index(&[]).is_none());
    }
}
