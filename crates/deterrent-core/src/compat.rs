//! Offline pairwise-compatibility computation over rare nets.
//!
//! DETERRENT's offline phase decides, for every unordered pair of rare nets,
//! whether one input pattern can drive both to their rare values at once.
//! The paper answers every pair with an exact SAT justification, thrown at 64
//! processes. This module instead runs a **simulation-first funnel** that
//! reaches the same (bit-identical) adjacency with a fraction of the SAT
//! work:
//!
//! 1. **Tier 1 — sim witnesses.** The Monte-Carlo patterns already simulated
//!    for probability estimation are mined ([`sim::WitnessBank`]): any
//!    pattern under which both nets were observed at their rare values is a
//!    constructive proof of compatibility, costing one AND per 64 patterns.
//! 2. **Tier 2 — structural pruning.** Pairs whose fanin cones read disjoint
//!    sets of scan inputs ([`netlist::input_supports`]) can be justified
//!    independently and the partial patterns merged, so the pair is
//!    compatible exactly when both nets are individually justifiable — which
//!    the singleton stage already established. Pairs whose **union** support
//!    is small are decided exactly by bounded exhaustive cone enumeration
//!    ([`sim::ConeSimulator`]): unlike random witnesses this proves
//!    *incompatibility* too, discharging the pairs that would otherwise
//!    always fall through to SAT. No pairwise SAT either way.
//!    A pair is only handed to enumeration when its union support (one
//!    popcount over the two support rows) is under the ceiling, so the many
//!    wide pairs never pay for a cone walk.
//! 3. **Tier 3 — implication probing, then SAT sweeping.** Only the
//!    survivors reach a solver, always a lazily cone-encoded
//!    [`sat::CircuitOracle::lazy`], in two exact steps:
//!    - *Probing* (the static learning of SOCRATES, Schulz et al. 1988):
//!      every kept rare net's rare value is propagated — unit propagation
//!      only, no search — on one oracle with every kept cone encoded. A
//!      pair is incompatible when either net's rare value forces the other
//!      to its non-rare value.
//!    - *Sweeping* (the counterexample resimulation of FRAIG sweeping,
//!      Mishchenko et al. 2005): the remaining pairs are solved in input
//!      order, in rounds of 64 spread over [`SWEEP_LANES`] persistent
//!      oracles. A query decides only the scan inputs of the pair's union
//!      support ([`sat::CircuitOracle::justify_within`]), as PODEM (Goel
//!      1981) branches only on inputs: fixing them propagates every gate of
//!      both cones, so the verdict is exact without assigning the rest of
//!      the lane's encoding. Each SAT model, its inputs outside that support
//!      filled pseudo-randomly, is resimulated 64 to a word — an always-on
//!      assert checks that it drives its own pair — and every later pending
//!      pair whose two rare values one model drives is compatible without a
//!      query of its own.
//!
//!    Every strike is a logical consequence or a concrete simulated witness,
//!    so the adjacency stays bit-identical to all-SAT. The lane count is a
//!    constant, so the models — and with them every tier count and CDCL
//!    counter — do not depend on the thread count.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use exec::Exec;
use netlist::{BitMatrix, NetId, Netlist};
use sat::{CircuitOracle, SolverConfig, SolverStats};
use sim::rare::{RareNet, RareNetAnalysis};
use sim::{ConeSimulator, Simulator, TestPattern, WitnessBank};

/// Below this many pairs the tier-1 witness sweep stays on the calling
/// thread: each check is a handful of word ANDs, so spawning workers would
/// cost more than the sweep itself. Results are identical either way.
const TIER1_PARALLEL_MIN_PAIRS: usize = 4096;

/// Largest union support bounded cone enumeration sweeps (`2^26` packed
/// assignments); [`FunnelOptions::max_support`] is clamped to it.
pub const MAX_ENUMERATION_SUPPORT: u32 = 26;

/// Persistent oracles the tier-3 sweep spreads each round over, scheduled on
/// the executor. A constant rather than the thread count: models depend on
/// solver state, so fixed lanes keep every tier count and CDCL counter
/// independent of how many threads run them.
const SWEEP_LANES: usize = 2;

/// SAT queries per sweep round: one model per bit of a simulation word.
const SWEEP_ROUND: usize = 64;

/// Word-op-equivalent fixed cost of one cone-restricted SAT query (encoding
/// and solver setup) in the enumeration cost model.
const SAT_BASE_WORD_OPS: u64 = 1 << 18;

/// Word-op-equivalent marginal SAT cost per union-cone gate.
const SAT_PER_GATE_WORD_OPS: u64 = 256;

/// The enumeration cost model of tier 2: whether a query whose union cone
/// reads `support` scan inputs and spans `cone` gates should be decided by
/// bounded exhaustive enumeration instead of SAT.
///
/// Enumerating costs `2^support / 64 · cone` word operations, both known
/// before committing; a SAT query on the same cone costs roughly
/// `SAT_BASE_WORD_OPS + SAT_PER_GATE_WORD_OPS · cone`. The constants are
/// calibrated against this repo's CDCL solver on the synthetic ISCAS
/// profiles, weighted a little toward enumeration because packed sweeps are
/// branch-free and parallelize perfectly. Comparing the two per pair lets a
/// support-19 pair over a 25-gate cone enumerate while a support-16 pair
/// over a 50 000-gate cone goes to SAT, which no fixed support cutoff does.
/// The verdict is exact either way: the model only chooses *where* the
/// answer comes from, never *what* it is.
fn admits(max_support: u32, support: u32, cone: usize) -> bool {
    if support > max_support.min(MAX_ENUMERATION_SUPPORT) {
        return false;
    }
    let enum_word_ops = (1u64 << support).div_ceil(64).saturating_mul(cone as u64);
    let sat_word_ops =
        SAT_BASE_WORD_OPS.saturating_add(SAT_PER_GATE_WORD_OPS.saturating_mul(cone as u64));
    enum_word_ops <= sat_word_ops
}

/// Per-tier toggles of the compatibility funnel. Disabling a tier pushes its
/// pairs down to the next one; tier 3 (probing and sweeping on
/// cone-restricted oracles) always runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunnelOptions {
    /// Tier 1: resolve pairs from retained simulation witnesses.
    pub sim_witnesses: bool,
    /// Tier 2: resolve pairs whose cone supports are disjoint.
    pub structural_pruning: bool,
    /// Tier 2: the union-support ceiling of bounded exhaustive cone
    /// enumeration (the only SAT-free tier that can prove a pair
    /// *incompatible*), clamped to [`MAX_ENUMERATION_SUPPORT`]. Below it a
    /// fixed per-pair cost model decides between enumeration and SAT. `0`
    /// turns enumeration off.
    pub max_support: u32,
    /// Configuration of every CDCL solver the build creates (restart unit,
    /// learned-clause cap). Verdicts — and therefore the adjacency — are
    /// solver-configuration-independent; only the work to reach them
    /// changes.
    pub solver: SolverConfig,
}

impl Default for FunnelOptions {
    fn default() -> Self {
        Self {
            sim_witnesses: true,
            structural_pruning: true,
            max_support: MAX_ENUMERATION_SUPPORT,
            solver: SolverConfig::default(),
        }
    }
}

/// How the compatibility graph is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompatStrategy {
    /// One SAT justification per pair on whole-netlist oracles (the
    /// paper's offline phase, and the reference the funnel is checked
    /// against).
    AllSat,
    /// The three-tier simulation-first funnel, with probing and sweeping
    /// in tier 3.
    Funnel(FunnelOptions),
}

impl Default for CompatStrategy {
    fn default() -> Self {
        CompatStrategy::Funnel(FunnelOptions::default())
    }
}

/// How each singleton and pair of the graph was resolved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompatStats {
    /// Rare nets fed into the singleton filter.
    pub candidate_rare_nets: usize,
    /// Rare nets kept (individually justifiable).
    pub kept_rare_nets: usize,
    /// Singletons resolved by simulation — a retained witness or an
    /// exhaustive cone enumeration — without SAT.
    pub singleton_sim_resolved: u64,
    /// Singleton SAT justification queries.
    pub singleton_sat_queries: u64,
    /// Unordered pairs over the kept rare nets.
    pub pairs_total: u64,
    /// Pairs resolved by tier 1 (joint simulation witness).
    pub pairs_sim_witnessed: u64,
    /// Pairs resolved by tier 2 (disjoint cone supports).
    pub pairs_structurally_pruned: u64,
    /// Pairs resolved by tier 2 (bounded exhaustive cone enumeration).
    pub pairs_cone_enumerated: u64,
    /// Pairs struck incompatible by tier-3 implication probing (no query).
    pub pairs_probe_struck: u64,
    /// Pairs struck compatible by a resimulated tier-3 sweep model (no
    /// query of their own).
    pub pairs_sweep_struck: u64,
    /// Pairs resolved by a SAT query of their own (tier 3). The six pair
    /// counters partition [`CompatStats::pairs_total`].
    pub pairs_sat_resolved: u64,
    /// Wall nanoseconds spent in tier 1 (joint-witness sweep). The three
    /// tier times are measurements of the build that produced this graph:
    /// the artifact codec does not persist them, so they read 0 on a graph
    /// decoded from the disk cache (the `build_graph` span records them).
    pub tier1_nanos: u64,
    /// Wall nanoseconds spent in tier 2 (structural pruning + bounded cone
    /// enumeration).
    pub tier2_nanos: u64,
    /// Wall nanoseconds spent in tier 3 (probing and sweeping the
    /// survivors).
    pub tier3_nanos: u64,
    /// The part of [`CompatStats::tier3_nanos`] spent in implication
    /// probing (not persisted either).
    pub tier3_probe_nanos: u64,
    /// The part of [`CompatStats::tier3_nanos`] spent in SAT sweeping (not
    /// persisted either).
    pub tier3_sweep_nanos: u64,
    /// Aggregate CDCL statistics over every solver the build created
    /// (singleton oracle, probe oracle and sweep lanes). A funnel build's
    /// totals are independent of the thread count, like its adjacency and
    /// tier counts; an all-SAT build's depend on how its pairs were chunked
    /// across workers.
    pub solver: SolverStats,
}

impl CompatStats {
    /// Pairwise SAT queries spent (one per SAT-resolved pair).
    #[must_use]
    pub fn pairwise_sat_queries(&self) -> u64 {
        self.pairs_sat_resolved
    }

    /// All SAT queries spent (singleton + pairwise).
    #[must_use]
    pub fn total_sat_queries(&self) -> u64 {
        self.singleton_sat_queries + self.pairs_sat_resolved
    }

    /// Fraction of pairs resolved without SAT, in `[0, 1]`.
    #[must_use]
    pub fn sat_free_pair_fraction(&self) -> f64 {
        if self.pairs_total == 0 {
            return 1.0;
        }
        1.0 - self.pairs_sat_resolved as f64 / self.pairs_total as f64
    }

    /// Total wall nanoseconds across the three pairwise tiers.
    #[must_use]
    pub fn tier_nanos_total(&self) -> u64 {
        self.tier1_nanos + self.tier2_nanos + self.tier3_nanos
    }
}

/// The SAT oracle a strategy resolves singletons with (and all-SAT its
/// pairs), so both strategies share one code path: the funnel encodes cones
/// lazily, all-SAT encodes the whole netlist (one oracle per worker, as the
/// paper does).
fn strategy_oracle(netlist: &Netlist, strategy: CompatStrategy) -> CircuitOracle<'_> {
    match strategy {
        CompatStrategy::Funnel(f) => CircuitOracle::lazy(netlist, f.solver),
        CompatStrategy::AllSat => CircuitOracle::new(netlist),
    }
}

/// Sets the verdict of the unordered pair `(i, j)` in both rows.
fn set_pair(adjacency: &mut BitMatrix, i: usize, j: usize, compatible: bool) {
    adjacency.set(i, j, compatible);
    adjacency.set(j, i, compatible);
}

/// Tier 3, step 1 — implication probing. Propagates every rare net's rare
/// value on one fresh oracle with every cone encoded, and returns the
/// refutations: bit `j` of row `i` is set when `i`'s rare value forces `j`
/// to its non-rare value, so no pattern drives both. The probe oracle's
/// counters are merged into `solver_stats`.
fn probe_refutations(
    netlist: &Netlist,
    rare_nets: &[RareNet],
    config: SolverConfig,
    solver_stats: &mut SolverStats,
) -> BitMatrix {
    let mut oracle = CircuitOracle::lazy(netlist, config);
    for r in rare_nets {
        oracle.encode_cone(r.net);
    }
    // (code of j's non-rare literal, j), sorted for lookup by literal.
    let mut non_rare: Vec<(usize, usize)> = rare_nets
        .iter()
        .enumerate()
        .map(|(j, r)| {
            let lit = oracle.lit(r.net, !r.rare_value).expect("cone encoded");
            (lit.code(), j)
        })
        .collect();
    non_rare.sort_unstable();
    let mut refuted = BitMatrix::new(rare_nets.len(), rare_nets.len());
    for (i, r) in rare_nets.iter().enumerate() {
        // A kept net is justifiable, so its probe is never refuted.
        let Some(implied) = oracle.probe(&[(r.net, r.rare_value)]) else {
            continue;
        };
        for lit in implied {
            let from = non_rare.partition_point(|&(code, _)| code < lit.code());
            for &(_, j) in non_rare[from..]
                .iter()
                .take_while(|&&(c, _)| c == lit.code())
            {
                refuted.set(i, j, true);
            }
        }
    }
    solver_stats.merge(&oracle.solver_stats());
    refuted
}

/// Tier 3, step 2 — SAT sweeping over the pairs probing left.
struct Sweep<'a> {
    netlist: &'a Netlist,
    rare_nets: &'a [RareNet],
    supports: &'a BitMatrix,
    config: SolverConfig,
}

impl Sweep<'_> {
    /// Resolves `pending` (in input order) in rounds of [`SWEEP_ROUND`]
    /// queries spread over [`SWEEP_LANES`] persistent oracles. After each
    /// round its models are resimulated 64 to a word, and every later
    /// pending pair some model drives both nets of to their rare values is
    /// struck compatible.
    fn run(
        &self,
        mut pending: Vec<(usize, usize)>,
        exec: &Exec,
        adjacency: &mut BitMatrix,
        stats: &mut CompatStats,
    ) {
        let n = self.rare_nets.len();
        let lanes: Vec<Mutex<CircuitOracle<'_>>> = (0..SWEEP_LANES)
            .map(|_| Mutex::new(CircuitOracle::lazy(self.netlist, self.config)))
            .collect();
        let sim = Simulator::new(self.netlist);
        let mut rare_words = vec![0u64; n];
        let mut round = 0u64;
        while !pending.is_empty() {
            let batch: Vec<(usize, usize)> =
                pending.drain(..SWEEP_ROUND.min(pending.len())).collect();
            // Lane `l` solves slots l, l + SWEEP_LANES, … in slot order.
            let per_lane: Vec<Vec<Option<Vec<bool>>>> = exec.par_index_map(SWEEP_LANES, |lane| {
                let mut oracle = lanes[lane].lock().expect("lane oracle");
                batch
                    .iter()
                    .skip(lane)
                    .step_by(SWEEP_LANES)
                    .map(|&(i, j)| {
                        // The pair's union support: the only inputs its query
                        // decides.
                        oracle.justify_within(&self.targets(i, j), &self.supports.union_ones(i, j))
                    })
                    .collect()
            });
            let mut per_lane: Vec<_> = per_lane.into_iter().map(Vec::into_iter).collect();
            let mut models = Vec::with_capacity(batch.len());
            let mut solved = Vec::with_capacity(batch.len());
            for (slot, &(i, j)) in batch.iter().enumerate() {
                let model = per_lane[slot % SWEEP_LANES]
                    .next()
                    .expect("one verdict per slot");
                set_pair(adjacency, i, j, model.is_some());
                if let Some(bits) = model {
                    models.push(self.fill_dont_cares(bits, i, j, round, slot));
                    solved.push((i, j));
                }
            }
            stats.pairs_sat_resolved += batch.len() as u64;
            round += 1;
            if models.is_empty() {
                continue;
            }
            let values = sim.run_batch(&models);
            let mask = u64::MAX >> (64 - models.len());
            for (word, r) in rare_words.iter_mut().zip(self.rare_nets) {
                let w = values.word(r.net);
                *word = if r.rare_value { w } else { !w } & mask;
            }
            // The models decided only their pairs' supports, so every one of
            // them is checked against its own pair, the last round's too.
            for (b, &(i, j)) in solved.iter().enumerate() {
                assert!(
                    (rare_words[i] & rare_words[j]) >> b & 1 == 1,
                    "sweep model of pair ({i}, {j}) does not drive it"
                );
            }
            pending.retain(|&(i, j)| {
                if rare_words[i] & rare_words[j] == 0 {
                    return true;
                }
                set_pair(adjacency, i, j, true);
                stats.pairs_sweep_struck += 1;
                false
            });
        }
        for lane in lanes {
            let oracle = lane.into_inner().expect("lane oracle");
            stats.solver.merge(&oracle.solver_stats());
        }
    }

    fn targets(&self, i: usize, j: usize) -> [(NetId, bool); 2] {
        let (a, b) = (self.rare_nets[i], self.rare_nets[j]);
        [(a.net, a.rare_value), (b.net, b.rare_value)]
    }

    /// The pattern of a model of pair `(i, j)`: the model's bits on the
    /// pair's union support (which decide both nets), and outside it bits
    /// hashed from `(round, slot)`, so the pattern also samples the rest of
    /// the design.
    fn fill_dont_cares(
        &self,
        mut bits: Vec<bool>,
        i: usize,
        j: usize,
        round: u64,
        slot: usize,
    ) -> TestPattern {
        let (row_i, row_j) = (self.supports.row(i), self.supports.row(j));
        let key = round << 6 | slot as u64;
        for (block, chunk) in bits.chunks_mut(64).enumerate() {
            let support = row_i[block] | row_j[block];
            let fill = exec::split_seed(key, block as u64);
            for (bit, value) in chunk.iter_mut().enumerate() {
                if support >> bit & 1 == 0 {
                    *value = fill >> bit & 1 == 1;
                }
            }
        }
        TestPattern::new(bits)
    }
}

/// Pairwise compatibility of the rare nets of one design.
///
/// Two rare nets are *compatible* when a single input pattern can drive both
/// to their rare values simultaneously. DETERRENT computes this relation for
/// every pair offline and uses it for action masking and cheap per-step state
/// transitions.
///
/// Rare nets are referred to by their index into
/// [`CompatibilityGraph::rare_nets`], which preserves the order of the
/// originating [`RareNetAnalysis`].
#[derive(Debug, Clone)]
pub struct CompatibilityGraph {
    rare_nets: Vec<RareNet>,
    /// `n × n`: row `i` holds the partners of rare net `i`; no self-loops.
    adjacency: BitMatrix,
    /// The adjacency as row-major bools, built on first use by
    /// [`CompatibilityGraph::adjacency`].
    bools: OnceLock<Vec<bool>>,
    stats: CompatStats,
    /// The estimation run's witness bank, retained for downstream pattern
    /// reuse (rows are indexed by *candidate* position, see `witness_rows`).
    witnesses: Option<WitnessBank>,
    /// Bank row of each kept rare net: `witness_rows[graph_idx]` is the
    /// candidate index of `rare_nets[graph_idx]` in the originating analysis.
    witness_rows: Vec<usize>,
}

impl CompatibilityGraph {
    /// Computes the graph with the default (funnel) strategy and `threads`
    /// worker threads for the parallel tiers. `0` resolves through
    /// [`Exec::new`]: the `DETERRENT_THREADS` environment variable, else all
    /// available cores.
    ///
    /// Rare nets whose rare value is individually unjustifiable (possible
    /// when Monte-Carlo probability estimation reports ≈0 for a value the
    /// logic can never produce) are dropped up front: they can never be part
    /// of an activatable trigger, so neither the adversary nor the agent has
    /// any use for them.
    #[must_use]
    pub fn build(netlist: &Netlist, analysis: &RareNetAnalysis, threads: usize) -> Self {
        Self::build_on(
            netlist,
            analysis,
            CompatStrategy::default(),
            &Exec::new(threads),
        )
    }

    /// Computes the graph with an explicit strategy on a caller-provided
    /// executor — the build's task and timing counters then land in that
    /// executor's [`exec::ExecStats`]. Every strategy produces the identical
    /// adjacency matrix at any thread count; they differ only in how much
    /// SAT work is spent reaching it.
    #[must_use]
    pub fn build_on(
        netlist: &Netlist,
        analysis: &RareNetAnalysis,
        strategy: CompatStrategy,
        exec: &Exec,
    ) -> Self {
        let funnel = match strategy {
            CompatStrategy::AllSat => FunnelOptions {
                sim_witnesses: false,
                structural_pruning: false,
                max_support: 0,
                solver: SolverConfig::default(),
            },
            CompatStrategy::Funnel(f) => f,
        };
        let mut stats = CompatStats {
            candidate_rare_nets: analysis.len(),
            ..CompatStats::default()
        };

        // Witness rows are indexed like `analysis.rare_nets()`.
        let bank: Option<&WitnessBank> = if funnel.sim_witnesses {
            analysis.witnesses()
        } else {
            None
        };

        let max_support = funnel.max_support.min(MAX_ENUMERATION_SUPPORT);
        let mut cone_sim = (max_support > 0).then(|| ConeSimulator::new(netlist, max_support));

        // ── Singleton stage: keep only individually justifiable nets. ──────
        // The oracle is created on first SAT need; with witnesses attached it
        // usually never is, and when it is, it carries over to tier 3.
        let mut singleton_oracle: Option<CircuitOracle<'_>> = None;
        let mut rare_nets: Vec<RareNet> = Vec::with_capacity(analysis.len());
        let mut kept_candidate_idx: Vec<usize> = Vec::with_capacity(analysis.len());
        for (ci, r) in analysis.rare_nets().iter().enumerate() {
            let target = [(r.net, r.rare_value)];
            let justifiable = if bank.is_some_and(|b| b.has_witness(ci)) {
                stats.singleton_sim_resolved += 1;
                true
            } else if let Some(verdict) = cone_sim
                .as_mut()
                .and_then(|d| d.decide_if(&target, |k, cone| admits(max_support, k, cone)))
            {
                stats.singleton_sim_resolved += 1;
                verdict
            } else {
                stats.singleton_sat_queries += 1;
                singleton_oracle
                    .get_or_insert_with(|| strategy_oracle(netlist, strategy))
                    .is_compatible(&target)
            };
            if justifiable {
                rare_nets.push(*r);
                kept_candidate_idx.push(ci);
            }
        }
        let n = rare_nets.len();
        stats.kept_rare_nets = n;
        stats.pairs_total = (n * n.saturating_sub(1) / 2) as u64;
        let mut adjacency = BitMatrix::new(n, n);
        // Retained for downstream witness-pattern reuse — a funnel
        // capability. All-SAT builds model the paper's baseline (and serve
        // as its cost reference), so they neither reuse witnesses nor pay
        // for copying the bank's rows.
        let witnesses = match strategy {
            CompatStrategy::Funnel(_) => analysis.witnesses().cloned(),
            CompatStrategy::AllSat => None,
        };
        if n == 0 {
            if let Some(oracle) = &singleton_oracle {
                stats.solver.merge(&oracle.solver_stats());
            }
            return Self::from_raw_parts(
                rare_nets,
                adjacency,
                stats,
                witnesses,
                kept_candidate_idx,
            );
        }

        // ── Tier 1: joint simulation witnesses. ────────────────────────────
        // Pair-chunk parallel word-AND sweep; each pair's verdict is a pure
        // function of the bank, so the chunked merge is order-exact.
        let tier1_start = Instant::now();
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .collect();
        let mut unresolved: Vec<(usize, usize)> = Vec::with_capacity(pairs.len());
        if let Some(bank) = bank {
            let sweep = |&(i, j): &(u32, u32)| {
                bank.pair_witnessed(
                    kept_candidate_idx[i as usize],
                    kept_candidate_idx[j as usize],
                )
            };
            let witnessed: Vec<bool> = if pairs.len() >= TIER1_PARALLEL_MIN_PAIRS {
                exec.par_map(&pairs, |_, pair| sweep(pair))
            } else {
                pairs.iter().map(sweep).collect()
            };
            for (&(i, j), hit) in pairs.iter().zip(witnessed) {
                let (i, j) = (i as usize, j as usize);
                if hit {
                    set_pair(&mut adjacency, i, j, true);
                    stats.pairs_sim_witnessed += 1;
                } else {
                    unresolved.push((i, j));
                }
            }
        } else {
            unresolved.extend(pairs.iter().map(|&(i, j)| (i as usize, j as usize)));
        }
        stats.tier1_nanos = tier1_start.elapsed().as_nanos() as u64;

        // ── Tier 2: disjoint cone supports, then bounded enumeration. ──────
        // The funnel computes the supports once: they also gate enumeration
        // and mask the sweep's don't-care inputs in tier 3.
        let tier2_start = Instant::now();
        let supports = match strategy {
            CompatStrategy::Funnel(_) if !unresolved.is_empty() => {
                let roots: Vec<NetId> = rare_nets.iter().map(|r| r.net).collect();
                Some(netlist::input_supports(netlist, &roots))
            }
            _ => None,
        };
        if let Some(supports) = supports.as_ref().filter(|_| funnel.structural_pruning) {
            unresolved.retain(|&(i, j)| {
                if !supports.intersects(i, j) {
                    // Both nets are individually justifiable (singleton stage)
                    // over disjoint inputs, so the partial patterns merge.
                    set_pair(&mut adjacency, i, j, true);
                    stats.pairs_structurally_pruned += 1;
                    false
                } else {
                    true
                }
            });
        }
        if let Some(supports) = supports
            .as_ref()
            .filter(|_| cone_sim.is_some() && !unresolved.is_empty())
        {
            // Enumeration is the funnel's dominant SAT-free cost (up to
            // `2^ceiling` packed assignments per pair), so it fans out across
            // pair chunks with one scratch ConeSimulator per worker. Each
            // verdict depends only on its pair — the merge is order-exact.
            // A pair over the support ceiling is declined before its cone
            // walk: `decide_if` would decline it too, after the walk.
            let verdicts: Vec<Option<bool>> = exec.par_map_with(
                &unresolved,
                || ConeSimulator::new(netlist, max_support),
                |cone_sim, _, &(i, j)| {
                    if supports.union_count(i, j) > max_support as usize {
                        return None;
                    }
                    cone_sim.decide_if(
                        &[
                            (rare_nets[i].net, rare_nets[i].rare_value),
                            (rare_nets[j].net, rare_nets[j].rare_value),
                        ],
                        |k, cone| admits(max_support, k, cone),
                    )
                },
            );
            let mut verdicts = verdicts.into_iter();
            unresolved.retain(
                |&(i, j)| match verdicts.next().expect("one verdict per pair") {
                    Some(compatible) => {
                        set_pair(&mut adjacency, i, j, compatible);
                        stats.pairs_cone_enumerated += 1;
                        false
                    }
                    None => true,
                },
            );
        }
        stats.tier2_nanos = tier2_start.elapsed().as_nanos() as u64;

        // ── Tier 3: probing and sweeping (funnel), else SAT per pair. ──────
        let tier3_start = Instant::now();
        if let Some(supports) = supports.as_ref().filter(|_| !unresolved.is_empty()) {
            // The refutation rows are dropped, with the probe oracle, before
            // the sweep's lanes grow their own.
            let refuted = probe_refutations(netlist, &rare_nets, funnel.solver, &mut stats.solver);
            unresolved.retain(|&(i, j)| {
                let struck = refuted.get(i, j) || refuted.get(j, i);
                stats.pairs_probe_struck += u64::from(struck);
                !struck
            });
            drop(refuted);
            stats.tier3_probe_nanos = tier3_start.elapsed().as_nanos() as u64;
            let sweep_start = Instant::now();
            let sweep = Sweep {
                netlist,
                rare_nets: &rare_nets,
                supports,
                config: funnel.solver,
            };
            sweep.run(
                std::mem::take(&mut unresolved),
                exec,
                &mut adjacency,
                &mut stats,
            );
            stats.tier3_sweep_nanos = sweep_start.elapsed().as_nanos() as u64;
        }
        // All-SAT, the reference: one query per pair.
        stats.pairs_sat_resolved += unresolved.len() as u64;
        let results: Vec<(usize, usize, bool)> = if unresolved.is_empty() {
            Vec::new()
        } else if exec.threads() <= 1 || unresolved.len() < 64 {
            // Reuse the singleton-stage oracle when one was built: its
            // encoding work and learned clauses carry over into the pairwise
            // queries.
            let oracle = singleton_oracle.get_or_insert_with(|| strategy_oracle(netlist, strategy));
            unresolved
                .iter()
                .map(|&(i, j)| {
                    let compatible = oracle.is_compatible(&[
                        (rare_nets[i].net, rare_nets[i].rare_value),
                        (rare_nets[j].net, rare_nets[j].rare_value),
                    ]);
                    (i, j, compatible)
                })
                .collect()
        } else {
            // One worker's tier-3 output: pair verdicts plus its oracle's
            // aggregate CDCL counters.
            type RangeVerdicts = (Vec<(usize, usize, bool)>, SolverStats);
            let rare_nets = &rare_nets;
            let unresolved = &unresolved;
            let per_range: Vec<RangeVerdicts> = exec.par_ranges(unresolved.len(), move |range| {
                let mut oracle = strategy_oracle(netlist, strategy);
                let verdicts = range
                    .map(|idx| {
                        let (i, j) = unresolved[idx];
                        let compatible = oracle.is_compatible(&[
                            (rare_nets[i].net, rare_nets[i].rare_value),
                            (rare_nets[j].net, rare_nets[j].rare_value),
                        ]);
                        (i, j, compatible)
                    })
                    .collect::<Vec<_>>();
                (verdicts, oracle.solver_stats())
            });
            let mut flat = Vec::with_capacity(unresolved.len());
            for (verdicts, solver) in per_range {
                flat.extend(verdicts);
                stats.solver.merge(&solver);
            }
            flat
        };
        for (i, j, compatible) in results {
            set_pair(&mut adjacency, i, j, compatible);
        }
        stats.tier3_nanos = tier3_start.elapsed().as_nanos() as u64;
        if let Some(oracle) = &singleton_oracle {
            stats.solver.merge(&oracle.solver_stats());
        }

        Self::from_raw_parts(rare_nets, adjacency, stats, witnesses, kept_candidate_idx)
    }

    /// The rare nets the graph is defined over, in analysis order.
    #[must_use]
    pub fn rare_nets(&self) -> &[RareNet] {
        &self.rare_nets
    }

    /// Number of rare nets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rare_nets.len()
    }

    /// Returns `true` when there are no rare nets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rare_nets.is_empty()
    }

    /// Whether rare nets `i` and `j` are pairwise compatible.
    ///
    /// A net is not considered compatible with itself (adding a net twice is
    /// never useful).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    #[must_use]
    pub fn is_compatible(&self, i: usize, j: usize) -> bool {
        assert!(
            i < self.len() && j < self.len(),
            "rare-net index out of range"
        );
        i != j && self.adjacency.get(i, j)
    }

    /// Whether `candidate` is pairwise compatible with every member of `set`.
    #[must_use]
    pub fn compatible_with_all(&self, set: &[usize], candidate: usize) -> bool {
        !set.contains(&candidate) && set.iter().all(|&m| self.is_compatible(m, candidate))
    }

    /// Number of compatible (unordered) pairs.
    #[must_use]
    pub fn num_compatible_pairs(&self) -> usize {
        (0..self.len())
            .map(|i| self.adjacency.count(i))
            .sum::<usize>()
            / 2
    }

    /// The `n × n` adjacency: row `i` holds the partners of rare net `i`
    /// (symmetric, no self-loops).
    #[must_use]
    pub fn matrix(&self) -> &BitMatrix {
        &self.adjacency
    }

    /// The adjacency as one `bool` per ordered pair, row after row, built
    /// on first call.
    ///
    /// Kept only for the frozen benchmark package, whose adjacency digest
    /// hashes this view; delete it once that digest hashes
    /// [`CompatibilityGraph::matrix`] rows instead.
    #[must_use]
    pub fn adjacency(&self) -> &[bool] {
        self.bools.get_or_init(|| {
            (0..self.adjacency.rows())
                .flat_map(|i| self.adjacency.row_bools(i))
                .collect()
        })
    }

    /// How each singleton and pair was resolved.
    #[must_use]
    pub fn stats(&self) -> &CompatStats {
        &self.stats
    }

    /// Total SAT queries spent building the graph (singleton + pairwise).
    #[must_use]
    pub fn sat_queries(&self) -> u64 {
        self.stats.total_sat_queries()
    }

    /// The witness bank of the originating analysis, if one was retained.
    /// Rows are indexed by candidate position; translate graph indices with
    /// the mapping behind [`CompatibilityGraph::joint_witness_pattern`].
    #[must_use]
    pub fn witness_bank(&self) -> Option<&WitnessBank> {
        self.witnesses.as_ref()
    }

    /// A concrete simulated pattern observed to drive *every* rare net of
    /// `set` (indices into [`CompatibilityGraph::rare_nets`]) to its rare
    /// value at once, when the estimation run witnessed one and the bank can
    /// re-materialize its patterns. Such a pattern makes a SAT justification
    /// of the set unnecessary.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn joint_witness_pattern(&self, set: &[usize]) -> Option<TestPattern> {
        let bank = self.witnesses.as_ref()?;
        let rows: Vec<usize> = set.iter().map(|&i| self.witness_rows[i]).collect();
        let index = bank.set_witness_index(&rows)?;
        bank.pattern(index)
    }

    /// The `(net, rare_value)` targets of the rare nets selected by `set`
    /// (indices into [`CompatibilityGraph::rare_nets`]).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn targets(&self, set: &[usize]) -> Vec<(netlist::NetId, bool)> {
        set.iter()
            .map(|&i| (self.rare_nets[i].net, self.rare_nets[i].rare_value))
            .collect()
    }

    /// Codec support: the witness-bank row (candidate index in the
    /// originating analysis) of each kept rare net.
    pub(crate) fn witness_rows(&self) -> &[usize] {
        &self.witness_rows
    }

    /// Codec support: reassembles a graph from the raw parts exposed by
    /// [`CompatibilityGraph::rare_nets`], [`CompatibilityGraph::matrix`],
    /// [`CompatibilityGraph::stats`], [`CompatibilityGraph::witness_bank`],
    /// and [`CompatibilityGraph::witness_rows`]. The caller is responsible
    /// for internal consistency (the disk-cache decoder validates lengths
    /// before calling).
    pub(crate) fn from_raw_parts(
        rare_nets: Vec<RareNet>,
        adjacency: BitMatrix,
        stats: CompatStats,
        witnesses: Option<WitnessBank>,
        witness_rows: Vec<usize>,
    ) -> Self {
        Self {
            rare_nets,
            adjacency,
            bools: OnceLock::new(),
            stats,
            witnesses,
            witness_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;
    use netlist::synth::BenchmarkProfile;

    /// The six pair tiers, summed.
    fn pairs_partitioned(s: &CompatStats) -> u64 {
        s.pairs_sim_witnessed
            + s.pairs_structurally_pruned
            + s.pairs_cone_enumerated
            + s.pairs_probe_struck
            + s.pairs_sweep_struck
            + s.pairs_sat_resolved
    }

    /// Probing and sweeping strike real pairs, stay exact, and route every
    /// pair identically — with identical CDCL counters — at any thread
    /// count.
    #[test]
    fn probe_and_sweep_are_exact_and_thread_independent() {
        let nl = BenchmarkProfile::c5315().scaled(10).generate(3);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 2);
        let reference =
            CompatibilityGraph::build_on(&nl, &analysis, CompatStrategy::AllSat, &Exec::new(1));
        // Without witnesses or enumeration, tier 3 sees most pairs.
        let strategy = CompatStrategy::Funnel(FunnelOptions {
            sim_witnesses: false,
            max_support: 0,
            ..FunnelOptions::default()
        });
        let build =
            |threads| CompatibilityGraph::build_on(&nl, &analysis, strategy, &Exec::new(threads));
        let serial = build(1);
        let s = *serial.stats();
        assert_eq!(serial.adjacency, reference.adjacency);
        assert_eq!(pairs_partitioned(&s), s.pairs_total);
        assert!(s.pairs_probe_struck > 0, "{s:?}");
        assert!(s.pairs_sweep_struck > 0, "{s:?}");
        assert!(s.pairs_sat_resolved < s.pairs_total / 2, "{s:?}");
        for threads in [2, 4] {
            let g = build(threads);
            assert_eq!(g.adjacency, reference.adjacency);
            let t = *g.stats();
            let tiers = |s: &CompatStats| {
                [
                    s.pairs_sim_witnessed,
                    s.pairs_structurally_pruned,
                    s.pairs_cone_enumerated,
                    s.pairs_probe_struck,
                    s.pairs_sweep_struck,
                    s.pairs_sat_resolved,
                ]
            };
            assert_eq!(tiers(&t), tiers(&s), "{threads} threads");
            assert_eq!(t.solver, s.solver, "{threads} threads");
        }
    }

    #[test]
    fn graph_is_symmetric_and_irreflexive() {
        let nl = BenchmarkProfile::c2670().scaled(20).generate(7);
        let analysis = RareNetAnalysis::estimate(&nl, 0.15, 2048, 1);
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        assert!(graph.len() <= analysis.len());
        for i in 0..graph.len() {
            assert!(!graph.is_compatible(i, i));
            for j in 0..graph.len() {
                assert_eq!(graph.is_compatible(i, j), graph.is_compatible(j, i));
            }
        }
    }

    #[test]
    fn parallel_and_serial_builds_agree() {
        let nl = BenchmarkProfile::c5315().scaled(40).generate(3);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 2);
        let serial = CompatibilityGraph::build(&nl, &analysis, 1);
        let parallel = CompatibilityGraph::build(&nl, &analysis, 4);
        assert_eq!(serial.adjacency, parallel.adjacency);
    }

    /// The acceptance property of the funnel: every strategy and every tier
    /// combination produces the identical adjacency matrix.
    #[test]
    fn all_strategies_produce_identical_adjacency() {
        for (profile, seed) in [
            (BenchmarkProfile::c2670().scaled(20), 7u64),
            (BenchmarkProfile::c5315().scaled(40), 3u64),
        ] {
            let nl = profile.generate(seed);
            let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 5);
            let reference =
                CompatibilityGraph::build_on(&nl, &analysis, CompatStrategy::AllSat, &Exec::new(1));
            let variants = [
                FunnelOptions::default(),
                FunnelOptions {
                    sim_witnesses: false,
                    ..FunnelOptions::default()
                },
                FunnelOptions {
                    structural_pruning: false,
                    ..FunnelOptions::default()
                },
                FunnelOptions {
                    max_support: 18,
                    ..FunnelOptions::default()
                },
                FunnelOptions {
                    max_support: 0,
                    ..FunnelOptions::default()
                },
                // A solver that restarts and reduces its learned clauses
                // constantly.
                FunnelOptions {
                    solver: SolverConfig {
                        restart_unit: 2,
                        learnt_cap_min: 4,
                        learnt_cap_growth_percent: 105,
                        learnt_cap_origin_divisor: 0,
                    },
                    ..FunnelOptions::default()
                },
            ];
            let exec = Exec::new(2);
            for (v, funnel) in variants.into_iter().enumerate() {
                let graph = CompatibilityGraph::build_on(
                    &nl,
                    &analysis,
                    CompatStrategy::Funnel(funnel),
                    &exec,
                );
                assert_eq!(
                    graph.adjacency,
                    reference.adjacency,
                    "variant {v} diverged on {}",
                    nl.name()
                );
                assert_eq!(graph.rare_nets, reference.rare_nets);
            }
        }
    }

    #[test]
    fn cost_model_scales_with_cone_size() {
        let max = MAX_ENUMERATION_SUPPORT;
        // A tiny cone affords deep enumeration…
        assert!(admits(max, 16, 20));
        // …but the same support is declined on a cone three orders larger,
        // where 2^16/64 · cone word ops dwarf one SAT query.
        assert!(!admits(max, 16, 50_000));
        // Small supports are always worth enumerating (≤ one chunk).
        assert!(admits(max, 6, 50_000));
        // Deeper than any fixed cutoff of 18 on small cones (2^19/64 · 25 ≈
        // 205k word ops, under the SAT estimate).
        assert!(admits(max, 19, 25));
        // The support ceiling binds regardless of cone size, and is clamped.
        assert!(!admits(max, 27, 1));
        assert!(!admits(40, 27, 1));
        assert!(admits(18, 18, 1));
        assert!(!admits(18, 19, 1));
    }

    #[test]
    fn funnel_spends_fewer_sat_queries_than_all_sat() {
        let nl = BenchmarkProfile::c2670().scaled(20).generate(7);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 8192, 5);
        let all_sat =
            CompatibilityGraph::build_on(&nl, &analysis, CompatStrategy::AllSat, &Exec::new(1));
        let funnel = CompatibilityGraph::build(&nl, &analysis, 1);
        assert_eq!(funnel.adjacency, all_sat.adjacency);
        assert!(
            funnel.sat_queries() < all_sat.sat_queries(),
            "funnel {} vs all-SAT {}",
            funnel.sat_queries(),
            all_sat.sat_queries()
        );
        // All-SAT resolves every pair with a query.
        assert_eq!(
            all_sat.stats().pairwise_sat_queries(),
            all_sat.stats().pairs_total
        );
    }

    #[test]
    fn stats_tiers_partition_the_pairs() {
        let nl = BenchmarkProfile::c5315().scaled(40).generate(9);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 4096, 4);
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        let s = graph.stats();
        assert_eq!(pairs_partitioned(s), s.pairs_total);
        assert_eq!(s.kept_rare_nets, graph.len());
        assert!(s.kept_rare_nets <= s.candidate_rare_nets);
        assert_eq!(
            s.singleton_sim_resolved + s.singleton_sat_queries,
            s.candidate_rare_nets as u64
        );
        assert!(s.kept_rare_nets <= s.candidate_rare_nets);
        assert!((0.0..=1.0).contains(&s.sat_free_pair_fraction()));
        // Every sim-witnessed pair is a compatible pair.
        assert!(graph.num_compatible_pairs() as u64 >= s.pairs_sim_witnessed);
    }

    #[test]
    fn singleton_sat_only_for_never_observed_nets() {
        // A rare net whose value was observed even once in simulation is
        // justifiable for free; only nets with estimated probability exactly
        // zero can need a singleton SAT query, and bounded cone enumeration
        // may discharge even those.
        let nl = BenchmarkProfile::c2670().scaled(20).generate(11);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 6);
        let graph = CompatibilityGraph::build(&nl, &analysis, 1);
        let never_observed = analysis
            .rare_nets()
            .iter()
            .filter(|r| r.probability == 0.0)
            .count() as u64;
        assert!(graph.stats().singleton_sat_queries <= never_observed);
        assert_eq!(
            graph.stats().singleton_sim_resolved + graph.stats().singleton_sat_queries,
            analysis.len() as u64
        );
    }

    #[test]
    fn matches_direct_sat_queries() {
        let nl = BenchmarkProfile::c2670().scaled(25).generate(5);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 3);
        let graph = CompatibilityGraph::build(&nl, &analysis, 1);
        let mut oracle = CircuitOracle::new(&nl);
        let rare = graph.rare_nets();
        for i in 0..graph.len().min(8) {
            for j in (i + 1)..graph.len().min(8) {
                let expect = oracle.is_compatible(&[
                    (rare[i].net, rare[i].rare_value),
                    (rare[j].net, rare[j].rare_value),
                ]);
                assert_eq!(graph.is_compatible(i, j), expect, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn mutually_exclusive_rare_values_are_incompatible() {
        // In the majority circuit at threshold 0.45, both polarities of many
        // nets are not rare, but t_0_1_2=1 and the OR output maj=0 cannot hold
        // together (any satisfied AND3 term forces maj=1).
        let nl = samples::majority5();
        let analysis = RareNetAnalysis::exhaustive(&nl, 0.45);
        let graph = CompatibilityGraph::build(&nl, &analysis, 1);
        let t = nl.net_by_name("t_0_1_2").unwrap();
        let maj = nl.net_by_name("maj").unwrap();
        let ti = graph.rare_nets().iter().position(|r| r.net == t);
        let mi = graph.rare_nets().iter().position(|r| r.net == maj);
        if let (Some(ti), Some(mi)) = (ti, mi) {
            // t rare value is 1 (p=0.125); maj rare value is 0 (p=0.5)? maj has
            // p(1)=0.5 so it is not rare at 0.45; guard for that case.
            assert!(!graph.is_compatible(ti, mi) || graph.rare_nets()[mi].rare_value);
        }
        assert!(graph.num_compatible_pairs() <= graph.len() * (graph.len().saturating_sub(1)) / 2);
    }

    #[test]
    fn compatible_with_all_members() {
        let nl = BenchmarkProfile::c2670().scaled(25).generate(9);
        let analysis = RareNetAnalysis::estimate(&nl, 0.2, 2048, 4);
        let graph = CompatibilityGraph::build(&nl, &analysis, 2);
        if graph.len() >= 3 {
            // A singleton set is compatible with any neighbour of its element.
            for j in 0..graph.len() {
                assert_eq!(
                    graph.compatible_with_all(&[0], j),
                    graph.is_compatible(0, j)
                );
            }
            // A member is never compatible with a set containing it.
            assert!(!graph.compatible_with_all(&[1], 1));
        }
        // Every pair is accounted for by exactly one tier.
        let s = graph.stats();
        assert_eq!(pairs_partitioned(s), s.pairs_total);
    }

    #[test]
    fn empty_analysis_gives_empty_graph() {
        let nl = samples::c17();
        // c17 NANDs have no nets below 0.15 — but be robust either way.
        let analysis = RareNetAnalysis::exhaustive(&nl, 0.01);
        let graph = CompatibilityGraph::build(&nl, &analysis, 4);
        assert!(graph.len() <= analysis.len());
        if graph.is_empty() {
            assert_eq!(graph.num_compatible_pairs(), 0);
        }
    }
}
