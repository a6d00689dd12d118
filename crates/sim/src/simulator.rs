//! Scalar and 64-way bit-parallel gate-level simulation.

use netlist::{GateKind, NetId, Netlist};

use crate::{PatternSource, TestPattern};

/// Net values produced by simulating a single pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetValues {
    values: Vec<bool>,
}

impl NetValues {
    /// The simulated value of `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` does not belong to the simulated netlist.
    #[must_use]
    pub fn value(&self, net: NetId) -> bool {
        self.values[net.index()]
    }

    /// All net values indexed by [`NetId`].
    #[must_use]
    pub fn as_slice(&self) -> &[bool] {
        &self.values
    }
}

/// Net values for a batch of up to 64 patterns, one bit per pattern packed
/// into a `u64` word per net.
#[derive(Debug, Clone)]
pub struct PackedValues {
    words: Vec<u64>,
    batch: usize,
}

impl PackedValues {
    /// The value of `net` under pattern `pattern_idx` of the batch.
    ///
    /// # Panics
    ///
    /// Panics if `pattern_idx >= batch_len()` or `net` is out of range.
    #[must_use]
    pub fn value(&self, net: NetId, pattern_idx: usize) -> bool {
        assert!(pattern_idx < self.batch, "pattern index out of range");
        (self.words[net.index()] >> pattern_idx) & 1 == 1
    }

    /// Packed word (one bit per pattern) for `net`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    #[must_use]
    pub fn word(&self, net: NetId) -> u64 {
        self.words[net.index()]
    }

    /// Number of patterns in this batch (at most 64).
    #[must_use]
    pub fn batch_len(&self) -> usize {
        self.batch
    }

    /// All packed words indexed by [`NetId`].
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// An empty buffer for [`Simulator::run_batch_into`] and
    /// [`Simulator::run_chunk_into`], letting a long run of batches reuse one
    /// allocation.
    #[must_use]
    pub fn scratch() -> Self {
        Self {
            words: Vec::new(),
            batch: 0,
        }
    }

    /// Number of patterns in the batch for which `net` is 1.
    #[must_use]
    pub fn count_ones(&self, net: NetId) -> u32 {
        let mask = if self.batch == 64 {
            u64::MAX
        } else {
            (1u64 << self.batch) - 1
        };
        (self.words[net.index()] & mask).count_ones()
    }
}

/// A reusable simulator bound to one netlist.
///
/// The simulator caches the topological order and the scan-input list, so
/// repeated [`Simulator::run`] / [`Simulator::run_batch`] calls avoid
/// re-deriving them. It borrows the netlist, keeping the netlist usable by
/// other components (SAT encoder, Trojan inserter) at the same time.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    scan_inputs: Vec<NetId>,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for `netlist`.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        Self {
            netlist,
            scan_inputs: netlist.scan_inputs(),
        }
    }

    /// The netlist this simulator is bound to.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Simulates a single pattern and returns every net value.
    ///
    /// # Panics
    ///
    /// Panics if the pattern width does not match
    /// [`netlist::Netlist::num_scan_inputs`].
    #[must_use]
    pub fn run(&self, pattern: &TestPattern) -> NetValues {
        assert_eq!(
            pattern.width(),
            self.scan_inputs.len(),
            "pattern width must equal the number of scan inputs"
        );
        let n = self.netlist.num_gates();
        let mut values = vec![false; n];
        for (i, &si) in self.scan_inputs.iter().enumerate() {
            values[si.index()] = pattern.bit(i);
        }
        let mut fanin_buf: Vec<bool> = Vec::with_capacity(8);
        for &id in self.netlist.topo_order() {
            let gate = self.netlist.gate(id);
            match gate.kind {
                GateKind::Input | GateKind::Dff => {}
                kind => {
                    fanin_buf.clear();
                    fanin_buf.extend(gate.fanin.iter().map(|&f| values[f.index()]));
                    values[id.index()] = kind.eval(&fanin_buf);
                }
            }
        }
        NetValues { values }
    }

    /// Simulates up to 64 patterns at once using bit-parallel words.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty, contains more than 64 entries, or any
    /// pattern has the wrong width.
    #[must_use]
    pub fn run_batch(&self, patterns: &[TestPattern]) -> PackedValues {
        let mut out = PackedValues::scratch();
        self.run_batch_into(patterns, &mut out);
        out
    }

    /// Like [`Simulator::run_batch`], but reuses `out`'s allocation — the
    /// per-thread scratch pattern for long simulation runs.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Simulator::run_batch`].
    pub fn run_batch_into(&self, patterns: &[TestPattern], out: &mut PackedValues) {
        assert!(
            !patterns.is_empty(),
            "batch must contain at least one pattern"
        );
        assert!(patterns.len() <= 64, "batch holds at most 64 patterns");
        for p in patterns {
            assert_eq!(
                p.width(),
                self.scan_inputs.len(),
                "pattern width must equal the number of scan inputs"
            );
        }
        self.run_packed_into(patterns.len(), out, |i| {
            patterns
                .iter()
                .enumerate()
                .fold(0, |w, (p, pat)| w | (u64::from(pat.bit(i)) << p))
        });
    }

    /// Simulates chunk `chunk` of `source` — the 64 patterns (fewer for the
    /// last chunk of a short exhaustive stream, see
    /// [`PatternSource::chunk_len`]) starting at pattern `64 * chunk` —
    /// directly in packed form and into a reusable buffer.
    ///
    /// This is the only way a pattern stream is simulated: probability
    /// estimation, the compacting witness pass and witness harvesting all
    /// read their chunks through it. Generating packed words directly
    /// (instead of materializing 64 [`TestPattern`]s) keeps the hot loop
    /// free of allocations, which is what lets parallel simulation workers
    /// scale instead of fighting over the allocator.
    ///
    /// # Panics
    ///
    /// Panics if the source's width differs from the number of scan inputs.
    pub fn run_chunk_into(&self, source: &PatternSource, chunk: usize, out: &mut PackedValues) {
        assert_eq!(
            source.width(),
            self.scan_inputs.len(),
            "pattern width must equal the number of scan inputs"
        );
        self.run_packed_into(source.chunk_len(chunk), out, source.chunk_words(chunk));
    }

    /// The packed kernel: sets scan input `i` (in
    /// [`netlist::Netlist::scan_inputs`] order) to `input_word(i)`, then
    /// evaluates every gate in topological order.
    fn run_packed_into(
        &self,
        batch: usize,
        out: &mut PackedValues,
        mut input_word: impl FnMut(usize) -> u64,
    ) {
        out.words.clear();
        out.words.resize(self.netlist.num_gates(), 0);
        out.batch = batch;
        let words = &mut out.words;
        for (i, &si) in self.scan_inputs.iter().enumerate() {
            words[si.index()] = input_word(i);
        }
        let mut fanin_buf: Vec<u64> = Vec::with_capacity(8);
        for &id in self.netlist.topo_order() {
            let gate = self.netlist.gate(id);
            match gate.kind {
                GateKind::Input | GateKind::Dff => {}
                kind => {
                    fanin_buf.clear();
                    fanin_buf.extend(gate.fanin.iter().map(|&f| words[f.index()]));
                    words[id.index()] = kind.eval_packed(&fanin_buf);
                }
            }
        }
    }

    /// Simulates an arbitrary number of patterns, invoking `visit` with the
    /// packed values of each 64-pattern chunk. The second argument of `visit`
    /// is the index of the first pattern in the chunk.
    pub fn run_chunked<F>(&self, patterns: &[TestPattern], mut visit: F)
    where
        F: FnMut(&PackedValues, usize),
    {
        for (chunk_idx, chunk) in patterns.chunks(64).enumerate() {
            let packed = self.run_batch(chunk);
            visit(&packed, chunk_idx * 64);
        }
    }

    /// Convenience: returns `true` if `pattern` drives every `(net, value)`
    /// pair in `targets` simultaneously.
    #[must_use]
    pub fn activates(&self, pattern: &TestPattern, targets: &[(NetId, bool)]) -> bool {
        let values = self.run(pattern);
        targets.iter().all(|&(net, v)| values.value(net) == v)
    }
}

/// One-shot convenience wrapper around [`Simulator::run`].
///
/// # Panics
///
/// Panics if the pattern width does not match the netlist's scan input count.
#[must_use]
pub fn simulate(netlist: &Netlist, pattern: &TestPattern) -> NetValues {
    Simulator::new(netlist).run(pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn c17_known_vectors() {
        let nl = samples::c17();
        let sim = Simulator::new(&nl);
        let g22 = nl.net_by_name("G22").unwrap();
        let g23 = nl.net_by_name("G23").unwrap();
        // All zeros: G10=1, G11=1, G16=1, G19=1 => G22 = NAND(1,1)=0, G23=0.
        let v = sim.run(&TestPattern::zeros(5));
        assert!(!v.value(g22));
        assert!(!v.value(g23));
        // All ones: G10=0, G11=0, G16=1, G19=1 => G22=1, G23=0.
        let v = sim.run(&TestPattern::ones(5));
        assert!(v.value(g22));
        assert!(!v.value(g23));
    }

    #[test]
    fn adder_adds() {
        let nl = samples::adder4();
        let sim = Simulator::new(&nl);
        // Inputs are a0..a3, b0..b3, cin in scan order.
        for (a, b, cin) in [(3u8, 5u8, 0u8), (15, 15, 1), (9, 6, 1), (0, 0, 0)] {
            let mut bits = Vec::new();
            for i in 0..4 {
                bits.push((a >> i) & 1 == 1);
            }
            for i in 0..4 {
                bits.push((b >> i) & 1 == 1);
            }
            bits.push(cin == 1);
            let v = sim.run(&TestPattern::new(bits));
            let mut sum = 0u16;
            for i in 0..4 {
                let s = nl.net_by_name(&format!("sum{i}")).unwrap();
                if v.value(s) {
                    sum |= 1 << i;
                }
            }
            let cout = nl.net_by_name("cout3").unwrap();
            if v.value(cout) {
                sum |= 1 << 4;
            }
            assert_eq!(sum, u16::from(a) + u16::from(b) + u16::from(cin));
        }
    }

    #[test]
    fn packed_matches_scalar() {
        let nl = netlist::synth::BenchmarkProfile::c2670()
            .scaled(20)
            .generate(3);
        let sim = Simulator::new(&nl);
        let mut rng = StdRng::seed_from_u64(17);
        let patterns = TestPattern::random_batch(nl.num_scan_inputs(), 64, &mut rng);
        let packed = sim.run_batch(&patterns);
        for (i, p) in patterns.iter().enumerate() {
            let scalar = sim.run(p);
            for (id, _) in nl.iter() {
                assert_eq!(
                    packed.value(id, i),
                    scalar.value(id),
                    "net {id} pattern {i}"
                );
            }
        }
    }

    #[test]
    fn majority_votes() {
        let nl = samples::majority5();
        let sim = Simulator::new(&nl);
        let maj = nl.net_by_name("maj").unwrap();
        let cases = [
            ("11100", true),
            ("11000", false),
            ("10101", true),
            ("00000", false),
            ("11111", true),
        ];
        for (bits, expect) in cases {
            let v = sim.run(&TestPattern::from_bit_string(bits));
            assert_eq!(v.value(maj), expect, "{bits}");
        }
    }

    #[test]
    fn scan_counter_full_scan_semantics() {
        let nl = samples::scan_counter3();
        let sim = Simulator::new(&nl);
        // Scan inputs: en, q0, q1, q2. Overflow only when en=1 and q=111.
        let ovf = nl.net_by_name("ovf").unwrap();
        assert!(sim.activates(&TestPattern::from_bit_string("1111"), &[(ovf, true)]));
        assert!(sim.activates(&TestPattern::from_bit_string("1011"), &[(ovf, false)]));
    }

    #[test]
    fn run_chunked_visits_all_patterns() {
        let nl = samples::c17();
        let sim = Simulator::new(&nl);
        let mut rng = StdRng::seed_from_u64(5);
        let patterns = TestPattern::random_batch(5, 130, &mut rng);
        let mut seen = 0usize;
        sim.run_chunked(&patterns, |packed, base| {
            seen += packed.batch_len();
            assert!(base % 64 == 0);
        });
        assert_eq!(seen, 130);
    }

    #[test]
    fn run_batch_into_reuses_scratch_and_matches_run_batch() {
        let nl = samples::majority5();
        let sim = Simulator::new(&nl);
        let mut rng = StdRng::seed_from_u64(8);
        let mut scratch = PackedValues::scratch();
        for _ in 0..3 {
            let patterns = TestPattern::random_batch(5, 64, &mut rng);
            sim.run_batch_into(&patterns, &mut scratch);
            let fresh = sim.run_batch(&patterns);
            assert_eq!(scratch.words(), fresh.words());
            assert_eq!(scratch.batch_len(), fresh.batch_len());
        }
    }

    #[test]
    #[should_panic(expected = "pattern width")]
    fn wrong_width_panics() {
        let nl = samples::c17();
        let _ = Simulator::new(&nl).run(&TestPattern::zeros(3));
    }

    #[test]
    fn count_ones_masks_partial_batches() {
        let nl = samples::c17();
        let sim = Simulator::new(&nl);
        let patterns = vec![TestPattern::zeros(5), TestPattern::ones(5)];
        let packed = sim.run_batch(&patterns);
        let g1 = nl.net_by_name("G1").unwrap();
        assert_eq!(packed.count_ones(g1), 1);
        assert_eq!(packed.batch_len(), 2);
    }
}
