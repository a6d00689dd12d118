//! The single compacting simulation pass behind every witness bank.
//!
//! Rare-net analysis needs two things from one pattern stream: the signal
//! probability of every net, and a witness row for every net that turns out
//! rare. Which nets are rare is known only once the whole stream has been
//! counted, and buffering every net's words until then costs
//! O(gates · patterns/64) memory. This pass keeps the raw words only of nets
//! that can still be *rare* at some threshold ≤ `retain`, dropping a net's
//! buffered words the moment both of its logic values have provably been
//! seen too often. Random estimation ([`crate::RareNetEstimate`]) and
//! exhaustive analysis ([`crate::rare::RareNetAnalysis::exhaustive`]) both
//! run it, over their [`PatternSource`].
//!
//! The drop rule is sound under any chunk partitioning: workers publish
//! their one/zero counts to shared monotone counters, and a net is dropped
//! only when the *observed* count already forces the final probability of
//! both values to ≥ `retain`. Counters only grow toward their final values,
//! so a net whose rarer value ends below `retain` can never satisfy the rule
//! on any worker — its words survive in full. Which non-rare nets get
//! dropped *when* depends on scheduling, so only memory varies with thread
//! count; the probabilities equal [`SignalProbabilities::estimate_with`]'s
//! and the bank rows equal [`crate::WitnessBank::harvest_with`]'s replay,
//! bit for bit, at any thread count.

use std::sync::atomic::{AtomicU64, Ordering};

use exec::Exec;
use netlist::{GateKind, NetId, Netlist};

use crate::rare::collect_rare;
use crate::{PackedValues, PatternSource, SignalProbabilities, Simulator, WitnessBank};

/// Simulates chunks `0..chunks` of `source` once, returning the signal
/// probabilities, the [`WitnessBank`] of every net rare at `retain` (in
/// [`collect_rare`] order, each row oriented to the rare value with padding
/// bits cleared), and the memory high-water mark of the pass: the sum of the
/// per-worker peaks of simultaneously buffered packed words.
///
/// # Panics
///
/// Panics if `retain` is not in `(0, 0.5]`.
pub(crate) fn compacting_pass(
    netlist: &Netlist,
    source: &PatternSource,
    chunks: usize,
    retain: f64,
    exec: &Exec,
) -> (SignalProbabilities, WitnessBank, usize) {
    assert!(
        retain > 0.0 && retain <= 0.5,
        "retention threshold must be in (0, 0.5]"
    );
    let n = netlist.num_gates();
    let total: usize = (0..chunks).map(|c| source.chunk_len(c)).sum();
    // Only internal combinational nets can be rare (inputs and flip-flops
    // are excluded from rare-net analysis), so only they need word rows.
    let candidate: Vec<bool> = netlist
        .iter()
        .map(|(_, gate)| !matches!(gate.kind, GateKind::Input | GateKind::Dff))
        .collect();
    // Monotone cross-worker value counters. Observed counts never exceed the
    // final ones, so the drop rule below is conservative regardless of how
    // worker progress interleaves.
    let seen_ones: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let seen_zeros: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    // The drop rule mirrors the candidate rule (`rare_value(net).1 < retain`)
    // in the exact same f64 expressions, so rounding can never drop a net
    // the final probabilities declare rare.
    let one_side_common = |ones: u64| (ones as f64 / total as f64) >= retain;
    let zero_side_common =
        |zeros: u64| (1.0 - ((total as u64 - zeros) as f64 / total as f64)) >= retain;
    let blocks = exec.par_ranges(chunks, |range| {
        let sim = Simulator::new(netlist);
        let mut packed = PackedValues::scratch();
        let mut ones = vec![0u64; n];
        let mut rows: Vec<Option<Vec<u64>>> = candidate
            .iter()
            .map(|&c| if c { Some(Vec::new()) } else { None })
            .collect();
        let mut live_words = 0usize;
        let mut peak = 0usize;
        let start = range.start;
        for c in range {
            sim.run_chunk_into(source, c, &mut packed);
            let len = source.chunk_len(c) as u64;
            for (id, _) in netlist.iter() {
                let i = id.index();
                let w_ones = u64::from(packed.count_ones(id));
                ones[i] += w_ones;
                if !candidate[i] {
                    continue;
                }
                let obs_ones = seen_ones[i].fetch_add(w_ones, Ordering::Relaxed) + w_ones;
                let obs_zeros =
                    seen_zeros[i].fetch_add(len - w_ones, Ordering::Relaxed) + (len - w_ones);
                if let Some(row) = rows[i].as_mut() {
                    if one_side_common(obs_ones) && zero_side_common(obs_zeros) {
                        live_words -= row.len();
                        rows[i] = None;
                    } else {
                        row.push(packed.word(id));
                        live_words += 1;
                        peak = peak.max(live_words);
                    }
                }
            }
        }
        (start, ones, rows, peak)
    });
    // Deterministic merge: per-net one-counts add up in chunk order.
    let mut ones = vec![0u64; n];
    let mut peak_words = 0usize;
    for (_, block_ones, _, peak) in &blocks {
        for (acc, part) in ones.iter_mut().zip(block_ones) {
            *acc += part;
        }
        peak_words += peak;
    }
    let prob_one: Vec<f64> = ones.iter().map(|&c| c as f64 / total as f64).collect();
    let probabilities = SignalProbabilities::from_raw_parts(prob_one, total);
    // The bank's nets are decided only by the final probabilities — never by
    // what the workers happened to drop — so its targets and rows are
    // identical at any thread count.
    let targets: Vec<(NetId, bool)> = collect_rare(netlist, retain, &probabilities)
        .iter()
        .map(|r| (r.net, r.rare_value))
        .collect();
    let mut rows = vec![0u64; targets.len() * chunks];
    for (start, _, block_rows, _) in &blocks {
        for (t, &(net, value)) in targets.iter().enumerate() {
            let row = block_rows[net.index()]
                .as_ref()
                .expect("a net rare at `retain` is never dropped by any worker");
            for (c, &word) in (*start..).zip(row) {
                let oriented = if value { word } else { !word };
                rows[t * chunks + c] = oriented & (u64::MAX >> (64 - source.chunk_len(c)));
            }
        }
    }
    let bank = WitnessBank::from_raw_parts(targets, chunks, total, rows, Some(*source));
    (probabilities, bank, peak_words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RareNetEstimate;
    use netlist::synth::BenchmarkProfile;

    fn random_pass(
        nl: &Netlist,
        num_patterns: usize,
        seed: u64,
        retain: f64,
        exec: &Exec,
    ) -> (SignalProbabilities, WitnessBank, usize) {
        let (source, chunks) = PatternSource::random(nl, num_patterns, seed);
        compacting_pass(nl, &source, chunks, retain, exec)
    }

    #[test]
    fn probabilities_match_plain_estimation_bit_exactly() {
        let nl = BenchmarkProfile::c2670().scaled(10).generate(4);
        let plain = SignalProbabilities::estimate(&nl, 2048, 7);
        let (compact, _, _) = random_pass(&nl, 2048, 7, 0.25, &Exec::serial());
        assert_eq!(plain.as_slice(), compact.as_slice());
        assert_eq!(plain.num_patterns(), compact.num_patterns());
    }

    #[test]
    fn retained_rows_match_full_trace_at_any_thread_count() {
        let nl = BenchmarkProfile::c6288().scaled(10).generate(9);
        let probs = SignalProbabilities::estimate(&nl, 1024, 5);
        // The full trace: every net's word of every chunk, kept by the test.
        let (source, chunks) = PatternSource::random(&nl, 1024, 5);
        let sim = Simulator::new(&nl);
        let mut packed = PackedValues::scratch();
        let full: Vec<Vec<u64>> = (0..chunks)
            .map(|c| {
                sim.run_chunk_into(&source, c, &mut packed);
                nl.iter().map(|(id, _)| packed.word(id)).collect()
            })
            .collect();
        for threads in [1, 2, 4] {
            let (p, bank, _) = compacting_pass(&nl, &source, chunks, 0.25, &Exec::new(threads));
            assert_eq!(p.as_slice(), probs.as_slice(), "{threads} threads");
            assert!(!bank.is_empty(), "expected rare nets at retain 0.25");
            for (t, &(net, value)) in bank.targets().iter().enumerate() {
                assert!(p.rare_value(net).1 < 0.25);
                for (c, words) in full.iter().enumerate() {
                    let word = words[net.index()];
                    let expected = if value { word } else { !word };
                    assert_eq!(
                        bank.row(t)[c],
                        expected & (u64::MAX >> (64 - source.chunk_len(c))),
                        "{threads} threads, chunk {c}, net {net}"
                    );
                }
            }
        }
    }

    #[test]
    fn retained_set_is_exactly_the_sub_retain_nets() {
        let nl = BenchmarkProfile::c2670().scaled(10).generate(4);
        let (probs, bank, _) = random_pass(&nl, 4096, 2, 0.2, &Exec::serial());
        for (id, gate) in nl.iter() {
            let eligible = !matches!(gate.kind, GateKind::Input | GateKind::Dff);
            let (rare_value, p) = probs.rare_value(id);
            let expected = (eligible && p < 0.2).then_some((id, rare_value));
            let banked = bank.targets().iter().find(|&&(net, _)| net == id);
            assert_eq!(banked.copied(), expected, "net {id}");
        }
    }

    #[test]
    fn peak_retained_words_stay_strictly_below_full_retention() {
        // The acceptance bound of the compacting pass: the memory
        // high-water mark must be strictly below the O(gates · patterns/64)
        // words that buffering every net's words would hold.
        let nl = BenchmarkProfile::c2670().scaled(10).generate(4);
        let patterns = 8192;
        let chunks = patterns / 64;
        let (_, _, peak) = random_pass(&nl, patterns, 2, 0.25, &Exec::serial());
        let full_retention = nl.num_gates() * chunks;
        assert!(
            peak < full_retention,
            "peak {peak} must be strictly below the full-retention bound {full_retention}"
        );
        // It is not just barely below: most nets are balanced and die within
        // the first few chunks, so compaction should win by a wide margin.
        assert!(
            peak < full_retention / 2,
            "peak {peak} should be well below {full_retention}"
        );
    }

    #[test]
    fn compact_rows_reproduce_harvested_witness_banks() {
        let nl = BenchmarkProfile::c6288().scaled(15).generate(3);
        for threads in [1, 2, 4] {
            let (probs, bank, _) = random_pass(&nl, 1024, 11, 0.25, &Exec::new(threads));
            assert!(!bank.is_empty(), "expected rare nets at retain 0.25");
            for &(net, value) in bank.targets() {
                assert_eq!(probs.rare_value(net).0, value);
                assert!(probs.rare_value(net).1 < 0.25);
            }
            let replayed = WitnessBank::harvest(&nl, bank.targets(), 1024, 11);
            assert_eq!(bank.num_chunks(), replayed.num_chunks());
            assert_eq!(bank.num_patterns(), replayed.num_patterns());
            assert_eq!(bank.source(), replayed.source());
            assert_eq!(
                bank.raw_rows(),
                replayed.raw_rows(),
                "{threads} threads: compacted rows differ from the replay"
            );
        }
    }

    #[test]
    #[should_panic(expected = "retention threshold")]
    fn bad_retain_panics() {
        let nl = netlist::samples::c17();
        let _ = RareNetEstimate::estimate(&nl, 0.7, 64, 1);
    }
}
