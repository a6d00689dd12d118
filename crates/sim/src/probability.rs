//! Monte-Carlo signal-probability estimation.
//!
//! Probabilities are counted over a [`PatternSource`], which defines its
//! patterns **per 64-pattern chunk**: random chunk `c` of master seed `s` is
//! generated from its own RNG seeded with [`exec::split_seed`]`(s, c)`.
//! Chunks are therefore independent work units and the estimate is
//! bit-identical whether the chunks are simulated on one thread or many
//! ([`SignalProbabilities::estimate_with`]).

use exec::Exec;
use netlist::{NetId, Netlist};

use crate::{PackedValues, PatternSource, Simulator};

/// Estimated probability of each net being logic 1 under uniformly random
/// scan-input patterns.
///
/// This is the quantity the rareness threshold of the paper is defined over:
/// a net is *rare* when `min(p, 1 - p)` falls below the threshold.
#[derive(Debug, Clone)]
pub struct SignalProbabilities {
    prob_one: Vec<f64>,
    num_patterns: usize,
}

impl SignalProbabilities {
    /// Estimates signal probabilities by simulating `num_patterns` uniformly
    /// random patterns (rounded up to a multiple of 64) generated from `seed`,
    /// on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if `num_patterns` is zero.
    #[must_use]
    pub fn estimate(netlist: &Netlist, num_patterns: usize, seed: u64) -> Self {
        Self::estimate_with(netlist, num_patterns, seed, &Exec::serial())
    }

    /// Like [`SignalProbabilities::estimate`], but simulates the 64-pattern
    /// chunks in parallel on `exec`. The result is **bit-identical** at any
    /// thread count because each chunk's patterns come from an independent
    /// seed-split RNG stream and the per-chunk one-counts merge by integer
    /// addition.
    ///
    /// # Panics
    ///
    /// Panics if `num_patterns` is zero.
    #[must_use]
    pub fn estimate_with(netlist: &Netlist, num_patterns: usize, seed: u64, exec: &Exec) -> Self {
        let (source, chunks) = PatternSource::random(netlist, num_patterns, seed);
        Self::run(netlist, &source, chunks, exec)
    }

    /// Computes exact probabilities for every net by exhaustive enumeration of
    /// all input combinations ([`PatternSource::Exhaustive`]). Only feasible
    /// for small circuits (≤ 24 scan inputs); used as a reference in tests.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than 24 scan inputs.
    #[must_use]
    pub fn exhaustive(netlist: &Netlist) -> Self {
        let (source, chunks) = PatternSource::exhaustive(netlist);
        Self::run(netlist, &source, chunks, &Exec::serial())
    }

    /// The plain reference pass: simulates chunks `0..chunks` of `source`
    /// and counts ones. Each worker simulates a contiguous range of chunks
    /// with reusable scratch; the per-worker counts merge by integer
    /// addition, so the result is the same at any thread count.
    fn run(netlist: &Netlist, source: &PatternSource, chunks: usize, exec: &Exec) -> Self {
        let n = netlist.num_gates();
        let blocks = exec.par_ranges(chunks, |range| {
            let sim = Simulator::new(netlist);
            let mut packed = PackedValues::scratch();
            let mut ones = vec![0u64; n];
            for c in range {
                sim.run_chunk_into(source, c, &mut packed);
                for (id, _) in netlist.iter() {
                    ones[id.index()] += u64::from(packed.count_ones(id));
                }
            }
            ones
        });
        let mut ones = vec![0u64; n];
        for block in blocks {
            for (acc, part) in ones.iter_mut().zip(&block) {
                *acc += part;
            }
        }
        let total: usize = (0..chunks).map(|c| source.chunk_len(c)).sum();
        Self {
            prob_one: ones.iter().map(|&c| c as f64 / total as f64).collect(),
            num_patterns: total,
        }
    }

    /// Probability that `net` evaluates to logic 1.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for the analysed netlist.
    #[must_use]
    pub fn prob_one(&self, net: NetId) -> f64 {
        self.prob_one[net.index()]
    }

    /// Probability that `net` evaluates to logic 0.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for the analysed netlist.
    #[must_use]
    pub fn prob_zero(&self, net: NetId) -> f64 {
        1.0 - self.prob_one[net.index()]
    }

    /// The probability of the *rarer* of the two logic values of `net`,
    /// together with that value. This is what rareness thresholds compare
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range for the analysed netlist.
    #[must_use]
    pub fn rare_value(&self, net: NetId) -> (bool, f64) {
        let p1 = self.prob_one[net.index()];
        if p1 <= 0.5 {
            (true, p1)
        } else {
            (false, 1.0 - p1)
        }
    }

    /// Number of patterns the estimate is based on.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.num_patterns
    }

    /// All `prob(net = 1)` values indexed by [`NetId`].
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.prob_one
    }

    /// Rebuilds an estimate from its raw parts — the inverse of
    /// [`SignalProbabilities::as_slice`] + [`SignalProbabilities::num_patterns`].
    /// Exists so callers persisting an analysis (e.g. a disk-backed artifact
    /// cache) can round-trip it bit-exactly without a serde dependency.
    ///
    /// # Panics
    ///
    /// Panics if `num_patterns` is zero.
    #[must_use]
    pub fn from_raw_parts(prob_one: Vec<f64>, num_patterns: usize) -> Self {
        assert!(num_patterns > 0, "need at least one pattern");
        Self {
            prob_one,
            num_patterns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;

    #[test]
    fn rare_chain_probabilities_match_theory() {
        let nl = samples::rare_chain(4);
        let exact = SignalProbabilities::exhaustive(&nl);
        let root = nl.net_by_name("and3").unwrap();
        assert!((exact.prob_one(root) - 1.0 / 16.0).abs() < 1e-12);
        let (value, p) = exact.rare_value(root);
        assert!(value);
        assert!((p - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn estimate_converges_to_exact() {
        let nl = samples::majority5();
        let exact = SignalProbabilities::exhaustive(&nl);
        let est = SignalProbabilities::estimate(&nl, 20_000, 7);
        for (id, _) in nl.iter() {
            assert!(
                (exact.prob_one(id) - est.prob_one(id)).abs() < 0.03,
                "net {id}: exact {} vs est {}",
                exact.prob_one(id),
                est.prob_one(id)
            );
        }
    }

    #[test]
    fn inputs_are_unbiased() {
        let nl = samples::c17();
        let est = SignalProbabilities::estimate(&nl, 4096, 3);
        for &pi in nl.primary_inputs() {
            assert!((est.prob_one(pi) - 0.5).abs() < 0.05);
        }
        assert_eq!(est.num_patterns(), 4096);
    }

    #[test]
    fn estimate_is_bit_identical_across_thread_counts() {
        let nl = netlist::synth::BenchmarkProfile::c2670()
            .scaled(10)
            .generate(2);
        let serial = SignalProbabilities::estimate(&nl, 2048, 11);
        for threads in [2, 3, 8] {
            let exec = Exec::new(threads);
            let parallel = SignalProbabilities::estimate_with(&nl, 2048, 11, &exec);
            assert_eq!(serial.as_slice(), parallel.as_slice(), "{threads} threads");
        }
    }

    #[test]
    fn prob_zero_is_complement() {
        let nl = samples::c17();
        let est = SignalProbabilities::estimate(&nl, 512, 3);
        for (id, _) in nl.iter() {
            assert!((est.prob_one(id) + est.prob_zero(id) - 1.0).abs() < 1e-12);
        }
    }
}
