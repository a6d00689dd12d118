//! Rare-net extraction — step ❶ of the DETERRENT flow.
//!
//! A net is *rare* at threshold `θ` when the probability of its less likely
//! logic value is strictly below `θ` under uniformly random input patterns.
//! Rare nets are the candidate trigger nets an adversary would pick, and they
//! form the action space of the DETERRENT RL agent.

use exec::Exec;
use netlist::{GateKind, NetId, Netlist};

use crate::compact::compacting_pass;
use crate::witness::{PatternSource, WitnessBank};
use crate::SignalProbabilities;

/// A rare net: the net id, the rare logic value, and its estimated
/// probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RareNet {
    /// The rare net.
    pub net: NetId,
    /// The logic value the net rarely takes (the trigger value).
    pub rare_value: bool,
    /// Estimated probability of the net taking `rare_value`.
    pub probability: f64,
}

/// Result of rare-net analysis on one netlist at one threshold.
#[derive(Debug, Clone)]
pub struct RareNetAnalysis {
    threshold: f64,
    rare_nets: Vec<RareNet>,
    probabilities: SignalProbabilities,
    /// `(net, position)` pairs sorted by net id for O(log n) lookup.
    by_net: Vec<(NetId, u32)>,
    /// Witness bitmaps of the estimation run, one row per rare net (in
    /// `rare_nets` order); `None` only when rebuilt from raw parts without
    /// one.
    witnesses: Option<WitnessBank>,
}

impl RareNetAnalysis {
    /// Runs rare-net analysis with Monte-Carlo probability estimation using
    /// `num_patterns` random patterns and the given `seed`.
    ///
    /// Only internal combinational nets are considered (primary inputs and
    /// scan flip-flop outputs are controllable directly, so an adversary gains
    /// no stealth from using them, and prior work excludes them too).
    ///
    /// The packed simulation words of the estimation run are retained per
    /// rare net as a [`WitnessBank`], so downstream passes (the compatibility
    /// funnel) can resolve pairwise queries without SAT. The bank is
    /// harvested *during* the estimation pass with streaming compaction (see
    /// [`RareNetEstimate`]), so no pattern is ever simulated twice and
    /// witness memory stays proportional to the rare-net count rather than
    /// the design size.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `(0, 0.5]` or `num_patterns` is zero.
    #[must_use]
    pub fn estimate(netlist: &Netlist, threshold: f64, num_patterns: usize, seed: u64) -> Self {
        Self::estimate_with(netlist, threshold, num_patterns, seed, &Exec::serial())
    }

    /// Like [`RareNetAnalysis::estimate`], but runs the single estimation
    /// pass in parallel on `exec`. Bit-identical to the serial path at any
    /// thread count (the pattern stream is seed-split per 64-pattern chunk).
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `(0, 0.5]` or `num_patterns` is zero.
    #[must_use]
    pub fn estimate_with(
        netlist: &Netlist,
        threshold: f64,
        num_patterns: usize,
        seed: u64,
        exec: &Exec,
    ) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 0.5,
            "rareness threshold must be in (0, 0.5]"
        );
        RareNetEstimate::estimate_with(netlist, threshold, num_patterns, seed, exec)
            .threshold(threshold)
    }

    /// Runs rare-net analysis using exhaustive (exact) probabilities; only
    /// feasible for small circuits. The enumeration runs the same single
    /// compacting pass as [`RareNetAnalysis::estimate`], over
    /// [`PatternSource::Exhaustive`], so witnesses are retained the same way.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `(0, 0.5]` or the netlist has more than
    /// 24 scan inputs.
    #[must_use]
    pub fn exhaustive(netlist: &Netlist, threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 0.5,
            "rareness threshold must be in (0, 0.5]"
        );
        let (source, chunks) = PatternSource::exhaustive(netlist);
        let (probabilities, bank, _) =
            compacting_pass(netlist, &source, chunks, threshold, &Exec::serial());
        RareNetEstimate::from_raw_parts(threshold, probabilities, bank).threshold(threshold)
    }

    /// The rareness threshold used.
    #[must_use]
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The rare nets, sorted by increasing probability.
    #[must_use]
    pub fn rare_nets(&self) -> &[RareNet] {
        &self.rare_nets
    }

    /// Number of rare nets found.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rare_nets.len()
    }

    /// Returns `true` when no net is rare at the threshold.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rare_nets.is_empty()
    }

    /// The `(net, rare_value)` pairs, convenient for SAT justification calls.
    #[must_use]
    pub fn targets(&self) -> Vec<(NetId, bool)> {
        self.rare_nets
            .iter()
            .map(|r| (r.net, r.rare_value))
            .collect()
    }

    /// The underlying signal probabilities.
    #[must_use]
    pub fn probabilities(&self) -> &SignalProbabilities {
        &self.probabilities
    }

    /// Looks up the rare-net record for `net`, if it is rare.
    ///
    /// O(log n) via an index sorted by net id (the `rare_nets` list itself is
    /// sorted by probability, so it cannot be searched directly).
    #[must_use]
    pub fn find(&self, net: NetId) -> Option<&RareNet> {
        self.by_net
            .binary_search_by_key(&net, |&(n, _)| n)
            .ok()
            .map(|i| &self.rare_nets[self.by_net[i].1 as usize])
    }

    /// Position of `net` in [`RareNetAnalysis::rare_nets`], if it is rare.
    #[must_use]
    pub fn position(&self, net: NetId) -> Option<usize> {
        self.by_net
            .binary_search_by_key(&net, |&(n, _)| n)
            .ok()
            .map(|i| self.by_net[i].1 as usize)
    }

    /// Witness bitmaps harvested from the estimation run (one row per rare
    /// net, in `rare_nets` order), or `None` when the analysis was rebuilt
    /// from raw parts without one.
    #[must_use]
    pub fn witnesses(&self) -> Option<&WitnessBank> {
        self.witnesses.as_ref()
    }

    /// Rebuilds an analysis from its raw parts — the inverse of
    /// [`RareNetAnalysis::threshold`] / [`RareNetAnalysis::rare_nets`] /
    /// [`RareNetAnalysis::probabilities`] / [`RareNetAnalysis::witnesses`].
    /// The by-net lookup index is rederived; `rare_nets` must already be in
    /// the canonical order (rarest first, ties by net id) an estimation run
    /// produces. Exists so callers persisting an analysis (e.g. a disk-backed
    /// artifact cache) can round-trip it bit-exactly without a serde
    /// dependency.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is not in `(0, 0.5]`.
    #[must_use]
    pub fn from_raw_parts(
        threshold: f64,
        rare_nets: Vec<RareNet>,
        probabilities: SignalProbabilities,
        witnesses: Option<WitnessBank>,
    ) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 0.5,
            "rareness threshold must be in (0, 0.5]"
        );
        let mut by_net: Vec<(NetId, u32)> = rare_nets
            .iter()
            .enumerate()
            .map(|(pos, r)| (r.net, pos as u32))
            .collect();
        by_net.sort_unstable_by_key(|&(net, _)| net);
        Self {
            threshold,
            rare_nets,
            probabilities,
            by_net,
            witnesses,
        }
    }
}

/// The rare nets of `netlist` at `threshold` in canonical order: rarest
/// first, ties by net id. The compacting pass orders its bank by it, so
/// re-thresholding an estimate is a prefix of the bank.
pub(crate) fn collect_rare(
    netlist: &Netlist,
    threshold: f64,
    probabilities: &SignalProbabilities,
) -> Vec<RareNet> {
    let mut rare_nets = Vec::new();
    for (id, gate) in netlist.iter() {
        if matches!(gate.kind, GateKind::Input | GateKind::Dff) {
            continue;
        }
        let (rare_value, probability) = probabilities.rare_value(id);
        if probability < threshold {
            rare_nets.push(RareNet {
                net: id,
                rare_value,
                probability,
            });
        }
    }
    rare_nets.sort_by(|a, b| {
        a.probability
            .partial_cmp(&b.probability)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.net.cmp(&b.net))
    });
    rare_nets
}

/// The θ-independent half of rare-net analysis: estimated signal
/// probabilities plus a witness bank over every net that is rare at the
/// `retain` threshold, harvested in a single compacting simulation pass that
/// buffers words only for nets that can still be rare.
///
/// Thresholding is a pure prefix operation: the candidate rows are stored
/// rarest-first, so [`RareNetEstimate::threshold`] at any `θ ≤ retain`
/// produces a [`RareNetAnalysis`] bit-identical to
/// [`RareNetAnalysis::estimate`] at that θ — without re-simulating anything.
/// A θ-sweep therefore pays for Monte-Carlo estimation exactly once per
/// (netlist, pattern budget, seed).
#[derive(Debug, Clone)]
pub struct RareNetEstimate {
    retain: f64,
    probabilities: SignalProbabilities,
    /// Witness rows for the rare-at-`retain` candidates, rarest-first.
    bank: WitnessBank,
    /// Candidate records in bank-row order (derived from the bank targets
    /// and the probabilities; kept denormalized for cheap prefix slicing).
    candidates: Vec<RareNet>,
    /// Memory high-water mark of the compacting pass, in packed words.
    peak_retained_words: usize,
}

impl RareNetEstimate {
    /// Runs the single-pass compacting estimation on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `retain` is not in `(0, 0.5]` or `num_patterns` is zero.
    #[must_use]
    pub fn estimate(netlist: &Netlist, retain: f64, num_patterns: usize, seed: u64) -> Self {
        Self::estimate_with(netlist, retain, num_patterns, seed, &Exec::serial())
    }

    /// Like [`RareNetEstimate::estimate`], parallelized over `exec` with the
    /// standard bit-identical-at-any-thread-count guarantee.
    ///
    /// # Panics
    ///
    /// Panics if `retain` is not in `(0, 0.5]` or `num_patterns` is zero.
    #[must_use]
    pub fn estimate_with(
        netlist: &Netlist,
        retain: f64,
        num_patterns: usize,
        seed: u64,
        exec: &Exec,
    ) -> Self {
        let (source, chunks) = PatternSource::random(netlist, num_patterns, seed);
        let (probabilities, bank, peak) = compacting_pass(netlist, &source, chunks, retain, exec);
        Self {
            peak_retained_words: peak,
            ..Self::from_raw_parts(retain, probabilities, bank)
        }
    }

    /// The retention threshold: the estimate can be re-thresholded at any
    /// `θ ≤ retain`.
    #[must_use]
    pub fn retain(&self) -> f64 {
        self.retain
    }

    /// The underlying signal probabilities.
    #[must_use]
    pub fn probabilities(&self) -> &SignalProbabilities {
        &self.probabilities
    }

    /// The candidate witness bank (every net rare at `retain`, rarest-first).
    #[must_use]
    pub fn bank(&self) -> &WitnessBank {
        &self.bank
    }

    /// Number of rare-at-`retain` candidate nets.
    #[must_use]
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// Memory high-water mark of the compacting estimation pass, in packed
    /// 64-pattern words: the sum over workers of the most words each held
    /// at once, always below the `gates × patterns/64` that buffering every
    /// net would cost. Zero when the estimate was decoded from a cache rather
    /// than computed.
    #[must_use]
    pub fn peak_retained_words(&self) -> usize {
        self.peak_retained_words
    }

    /// Thresholds the estimate at `theta`, producing the same
    /// [`RareNetAnalysis`] a from-scratch [`RareNetAnalysis::estimate`] at
    /// `theta` would — rare nets, probabilities, and witness rows all
    /// bit-identical — without any simulation.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is not in `(0, 0.5]` or exceeds the estimate's
    /// `retain` threshold (nets rare at such a θ may have been compacted
    /// away; re-estimate with a larger `retain` instead).
    #[must_use]
    pub fn threshold(&self, theta: f64) -> RareNetAnalysis {
        assert!(
            theta > 0.0 && theta <= 0.5,
            "rareness threshold must be in (0, 0.5]"
        );
        assert!(
            theta <= self.retain,
            "threshold {theta} exceeds the estimate's retention threshold {}",
            self.retain
        );
        // Candidates are sorted rarest-first, so the rare set at θ is a
        // prefix, and so are its bank rows.
        let k = self.candidates.partition_point(|r| r.probability < theta);
        let rare_nets = self.candidates[..k].to_vec();
        let num_chunks = self.bank.num_chunks();
        let witnesses = WitnessBank::from_raw_parts(
            self.bank.targets()[..k].to_vec(),
            num_chunks,
            self.bank.num_patterns(),
            self.bank.raw_rows()[..k * num_chunks].to_vec(),
            self.bank.source(),
        );
        RareNetAnalysis::from_raw_parts(
            theta,
            rare_nets,
            self.probabilities.clone(),
            Some(witnesses),
        )
    }

    /// Rebuilds an estimate from its raw parts — the inverse of
    /// [`RareNetEstimate::retain`] / [`RareNetEstimate::probabilities`] /
    /// [`RareNetEstimate::bank`]. The candidate records are rederived from
    /// the bank targets and the probabilities. Exists so callers persisting
    /// an estimate (e.g. a disk-backed artifact cache) can round-trip it
    /// bit-exactly without a serde dependency. `peak_retained_words` is not
    /// part of the round-trip (it describes the original computation, not
    /// the artifact) and is restored as zero.
    ///
    /// # Panics
    ///
    /// Panics if `retain` is not in `(0, 0.5]`.
    #[must_use]
    pub fn from_raw_parts(
        retain: f64,
        probabilities: SignalProbabilities,
        bank: WitnessBank,
    ) -> Self {
        assert!(
            retain > 0.0 && retain <= 0.5,
            "retention threshold must be in (0, 0.5]"
        );
        let candidates = bank
            .targets()
            .iter()
            .map(|&(net, rare_value)| RareNet {
                net,
                rare_value,
                probability: probabilities.rare_value(net).1,
            })
            .collect();
        Self {
            retain,
            probabilities,
            bank,
            candidates,
            peak_retained_words: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;
    use netlist::synth::BenchmarkProfile;

    #[test]
    fn rare_chain_root_is_rare() {
        let nl = samples::rare_chain(6);
        let analysis = RareNetAnalysis::exhaustive(&nl, 0.1);
        let root = nl.net_by_name("and5").unwrap();
        let rec = analysis.find(root).expect("root must be rare");
        assert!(rec.rare_value);
        assert!((rec.probability - 1.0 / 64.0).abs() < 1e-12);
        // The OR of all inputs is not rare at 0.1 (p0 = 1/64 is rare though!).
        let any = nl.net_by_name("any").unwrap();
        let any_rec = analysis.find(any).expect("p(any=0)=1/64 is rare");
        assert!(!any_rec.rare_value);
    }

    #[test]
    fn threshold_monotonicity() {
        let nl = BenchmarkProfile::c6288().scaled(10).generate(9);
        let loose = RareNetAnalysis::estimate(&nl, 0.14, 4096, 1);
        let tight = RareNetAnalysis::estimate(&nl, 0.10, 4096, 1);
        assert!(loose.len() >= tight.len());
        // Every net rare at the tight threshold is rare at the loose one.
        for r in tight.rare_nets() {
            assert!(loose.find(r.net).is_some());
        }
    }

    #[test]
    fn inputs_never_rare() {
        let nl = samples::c17();
        let analysis = RareNetAnalysis::exhaustive(&nl, 0.45);
        for &pi in nl.primary_inputs() {
            assert!(analysis.find(pi).is_none());
        }
    }

    #[test]
    fn majority_terms_rare_at_point14_not_point1() {
        let nl = samples::majority5();
        let at14 = RareNetAnalysis::exhaustive(&nl, 0.14);
        let at10 = RareNetAnalysis::exhaustive(&nl, 0.10);
        let term = nl.net_by_name("t_0_1_2").unwrap();
        assert!(at14.find(term).is_some(), "AND3 has p=0.125 < 0.14");
        assert!(at10.find(term).is_none(), "0.125 is not < 0.10");
    }

    #[test]
    fn synthetic_profiles_contain_rare_nets() {
        let nl = BenchmarkProfile::c2670().scaled(10).generate(4);
        let analysis = RareNetAnalysis::estimate(&nl, 0.1, 4096, 2);
        assert!(
            analysis.len() >= 4,
            "expected at least 4 rare nets, got {}",
            analysis.len()
        );
    }

    #[test]
    fn sorted_by_probability() {
        let nl = BenchmarkProfile::c2670().scaled(10).generate(4);
        let analysis = RareNetAnalysis::estimate(&nl, 0.1, 2048, 2);
        for w in analysis.rare_nets().windows(2) {
            assert!(w[0].probability <= w[1].probability);
        }
    }

    #[test]
    #[should_panic(expected = "rareness threshold")]
    fn bad_threshold_panics() {
        let nl = samples::c17();
        let _ = RareNetAnalysis::exhaustive(&nl, 0.7);
    }

    /// The pre-split construction: estimate probabilities, threshold, then
    /// replay the pattern stream to harvest witnesses for the rare nets.
    /// Kept only as the reference the single-pass path is compared against.
    fn legacy_two_pass(
        netlist: &Netlist,
        threshold: f64,
        num_patterns: usize,
        seed: u64,
        exec: &Exec,
    ) -> RareNetAnalysis {
        let probabilities = SignalProbabilities::estimate_with(netlist, num_patterns, seed, exec);
        let rare_nets = collect_rare(netlist, threshold, &probabilities);
        let targets: Vec<(NetId, bool)> = rare_nets.iter().map(|r| (r.net, r.rare_value)).collect();
        let witnesses = WitnessBank::harvest_with(netlist, &targets, num_patterns, seed, exec);
        RareNetAnalysis::from_raw_parts(threshold, rare_nets, probabilities, Some(witnesses))
    }

    fn assert_analyses_identical(a: &RareNetAnalysis, b: &RareNetAnalysis) {
        assert_eq!(a.threshold(), b.threshold());
        assert_eq!(a.rare_nets(), b.rare_nets());
        assert_eq!(a.probabilities().as_slice(), b.probabilities().as_slice());
        let (wa, wb) = (a.witnesses().unwrap(), b.witnesses().unwrap());
        assert_eq!(wa.targets(), wb.targets());
        assert_eq!(wa.num_patterns(), wb.num_patterns());
        assert_eq!(wa.raw_rows(), wb.raw_rows());
        assert_eq!(wa.source(), wb.source());
    }

    #[test]
    fn single_pass_estimate_matches_legacy_two_pass_bit_exactly() {
        let nl = BenchmarkProfile::c6288().scaled(10).generate(9);
        for theta in [0.10, 0.14] {
            let legacy = legacy_two_pass(&nl, theta, 2048, 1, &Exec::serial());
            let single = RareNetAnalysis::estimate(&nl, theta, 2048, 1);
            assert_analyses_identical(&legacy, &single);
        }
    }

    #[test]
    fn shared_estimate_rethresholds_to_per_theta_analyses() {
        let nl = BenchmarkProfile::c6288().scaled(10).generate(9);
        let estimate = RareNetEstimate::estimate(&nl, 0.14, 2048, 1);
        for theta in [0.10, 0.11, 0.12, 0.13, 0.14] {
            let direct = RareNetAnalysis::estimate(&nl, theta, 2048, 1);
            let shared = estimate.threshold(theta);
            assert_analyses_identical(&direct, &shared);
        }
        assert_eq!(estimate.num_candidates(), estimate.threshold(0.14).len());
    }

    #[test]
    fn estimate_is_bit_identical_across_thread_counts() {
        let nl = BenchmarkProfile::c2670().scaled(10).generate(4);
        let serial = RareNetEstimate::estimate(&nl, 0.12, 1024, 3);
        for threads in [2, 4] {
            let exec = Exec::new(threads);
            let parallel = RareNetEstimate::estimate_with(&nl, 0.12, 1024, 3, &exec);
            assert_eq!(
                serial.probabilities().as_slice(),
                parallel.probabilities().as_slice(),
                "{threads} threads"
            );
            assert_eq!(serial.bank().targets(), parallel.bank().targets());
            assert_eq!(serial.bank().raw_rows(), parallel.bank().raw_rows());
        }
    }

    #[test]
    fn estimate_round_trips_through_raw_parts() {
        let nl = BenchmarkProfile::c2670().scaled(10).generate(4);
        let estimate = RareNetEstimate::estimate(&nl, 0.12, 1024, 3);
        let rebuilt = RareNetEstimate::from_raw_parts(
            estimate.retain(),
            estimate.probabilities().clone(),
            estimate.bank().clone(),
        );
        let (a, b) = (estimate.threshold(0.1), rebuilt.threshold(0.1));
        assert_analyses_identical(&a, &b);
        assert_eq!(rebuilt.peak_retained_words(), 0);
    }

    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// FNV-1a over the 64-bit words of everything an exhaustive analysis
    /// holds: probability bits and pattern count, the rare nets, and the
    /// witness bank's targets, chunk count, pattern count, raw rows and
    /// source.
    fn exhaustive_digest(nl: &Netlist, theta: f64) -> u64 {
        let analysis = RareNetAnalysis::exhaustive(nl, theta);
        let probs = analysis.probabilities();
        let mut words: Vec<u64> = probs.as_slice().iter().map(|p| p.to_bits()).collect();
        words.push(probs.num_patterns() as u64);
        for r in analysis.rare_nets() {
            words.extend([r.net.index() as u64, u64::from(r.rare_value)]);
            words.push(r.probability.to_bits());
        }
        let bank = analysis
            .witnesses()
            .expect("exhaustive analyses keep a bank");
        for &(net, value) in bank.targets() {
            words.extend([net.index() as u64, u64::from(value)]);
        }
        words.extend([bank.num_chunks() as u64, bank.num_patterns() as u64]);
        words.extend_from_slice(bank.raw_rows());
        match bank.source() {
            Some(PatternSource::Exhaustive { width }) => words.extend([2, width as u64]),
            other => panic!("exhaustive bank has source {other:?}"),
        }
        fnv1a(words)
    }

    #[test]
    fn exhaustive_analysis_bytes_are_pinned() {
        // Recorded before exhaustive analysis moved onto the compacting
        // pass: one FNV-1a per circuit over its digests at each θ.
        // rare_chain(3) is one partial chunk; rare_chain(7) and (10) span
        // several chunks.
        let cases = [
            (
                "rare_chain(3)",
                samples::rare_chain(3),
                0x709e_26e9_9557_cc31,
            ),
            (
                "rare_chain(7)",
                samples::rare_chain(7),
                0x4edf_670a_f8bd_33e4,
            ),
            (
                "rare_chain(10)",
                samples::rare_chain(10),
                0xc0ea_a198_b7e3_19c7,
            ),
            ("majority5", samples::majority5(), 0x530f_4942_71f7_6408),
            ("c17", samples::c17(), 0x88f3_cfa2_0955_a7a0),
            ("adder4", samples::adder4(), 0x83b3_d580_4300_99c3),
            (
                "scan_counter3",
                samples::scan_counter3(),
                0xfdfb_b045_58bf_8bb7,
            ),
        ];
        for (name, nl, pinned) in &cases {
            let thetas = [0.01, 0.1, 0.3, 0.45, 0.5];
            let got = fnv1a(thetas.map(|theta| exhaustive_digest(nl, theta)));
            assert_eq!(got, *pinned, "{name}: digest {got:#018x}");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the estimate's retention threshold")]
    fn thresholding_above_retain_panics() {
        let nl = samples::c17();
        let estimate = RareNetEstimate::estimate(&nl, 0.1, 64, 1);
        let _ = estimate.threshold(0.2);
    }
}
