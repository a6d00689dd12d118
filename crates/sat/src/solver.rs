//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! The implementation follows the classic MiniSat recipe: two watched
//! literals per clause, first-UIP conflict analysis, activity-based (VSIDS)
//! decision heuristics with phase saving, restarts, and incremental solving
//! under assumptions. [`SolverConfig`] tunes two fixed mechanisms:
//!
//! - **Luby restarts** — search episode `i` of a solve call may spend
//!   `restart_unit * luby(i)` conflicts before restarting.
//! - **Learned-clause deletion** — learned clauses carry their own activity
//!   (bumped when a clause participates in conflict analysis, decayed per
//!   conflict); when the live learned-clause count exceeds a cap,
//!   [`reduce_db`](Solver::reduce_db) deletes the low-activity half of the
//!   deletable learned clauses (binary clauses and clauses locked as reasons
//!   are always kept), compacts the clause arena, and repairs the watch lists
//!   and reason indices. The cap grows geometrically after each reduction so
//!   long searches still converge.
//!
//! The differential harness in `tests/sat_differential.rs` solves every
//! generated instance under the default and a stress configuration and
//! checks each verdict against a brute-force model enumerator.
//!
//! When a solve under assumptions returns UNSAT because an assumption is
//! contradicted, [`Solver::unsat_assumptions`] exposes the subset of the
//! assumption literals responsible (MiniSat's `analyzeFinal`).
//!
//! [`Solver::solve_within`] is the same search branching only on a given
//! variable set (a circuit query's cone inputs, as in PODEM), returning SAT
//! once those are assigned without conflict. It keeps its first
//! assumption's decision level across calls, so a run of queries that share
//! their first assumption propagates it once (the assumption-trail reuse of
//! Hickey & Bacchus, SAT 2019).

use crate::order::{before, VarOrder};
use crate::types::{Clause, Cnf, Lit, Var};

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// The formula is satisfiable; the model assigns every variable (after
    /// [`Solver::solve_within`], only the decided and propagated values are
    /// part of a model).
    Sat(Vec<bool>),
    /// The formula is unsatisfiable (under the given assumptions, if any).
    Unsat,
}

impl SolveResult {
    /// Returns `true` for [`SolveResult::Sat`].
    #[must_use]
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// The model, if satisfiable.
    #[must_use]
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            SolveResult::Sat(m) => Some(m),
            SolveResult::Unsat => None,
        }
    }
}

/// The Luby sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
/// (`i` is 1-based).
#[must_use]
pub fn luby(mut i: u64) -> u64 {
    debug_assert!(i >= 1);
    loop {
        // Smallest k with 2^k - 1 >= i.
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        // Recurse on the tail: luby(i - 2^(k-1) + 1).
        i -= (1u64 << (k - 1)) - 1;
    }
}

/// Tunable solver behaviour: the restart unit and the learned-clause cap.
/// Restarts always follow the Luby sequence and learned-clause deletion is
/// always on; `Default` is the configuration every production path uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Luby restart unit: search episode `i` (1-based, within one `solve`
    /// call) may spend `restart_unit * luby(i)` conflicts before restarting.
    pub restart_unit: u64,
    /// Floor of the learned-clause cap. The effective initial cap is
    /// `max(learnt_cap_min, original_clauses / learnt_cap_origin_divisor)`.
    pub learnt_cap_min: u64,
    /// Cap growth per reduction, in percent (110 = ×1.1 per `reduce_db`).
    pub learnt_cap_growth_percent: u64,
    /// Divisor of the original-clause count in the cap floor (MiniSat keeps
    /// up to a third of the original count, divisor 3). `0` drops the
    /// originals term entirely, making `learnt_cap_min` the sole floor —
    /// useful to force reductions on small instances (stress tests, CI
    /// gates) where few clauses are ever learned.
    pub learnt_cap_origin_divisor: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            restart_unit: 128,
            learnt_cap_min: 256,
            learnt_cap_growth_percent: 110,
            learnt_cap_origin_divisor: 3,
        }
    }
}

impl SolverConfig {
    /// Conflict budget of search episode `episode` (1-based) of a solve call.
    fn restart_budget(self, episode: u64) -> u64 {
        self.restart_unit.saturating_mul(luby(episode))
    }
}

/// Search statistics accumulated over the lifetime of a [`Solver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of learned clauses.
    pub learned_clauses: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of `reduce_db` runs (learned-clause database reductions).
    pub reduces: u64,
    /// Total learned clauses deleted by `reduce_db`.
    pub deleted_clauses: u64,
    /// High-water mark of simultaneously live learned clauses.
    pub peak_learnts: u64,
}

impl SolverStats {
    /// Accumulates `other` into `self` (sums counters, max for the peak).
    /// Used to aggregate statistics across per-worker solver instances.
    pub fn merge(&mut self, other: &SolverStats) {
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.learned_clauses += other.learned_clauses;
        self.restarts += other.restarts;
        self.reduces += other.reduces;
        self.deleted_clauses += other.deleted_clauses;
        self.peak_learnts = self.peak_learnts.max(other.peak_learnts);
    }
}

const UNASSIGNED: u8 = 2;

/// Per-clause bookkeeping parallel to the clause arena.
#[derive(Debug, Clone, Copy)]
struct ClauseMeta {
    /// Learned (deletable) vs. original (permanent).
    learned: bool,
    /// Clause activity (bumped when the clause resolves a conflict).
    activity: f64,
}

/// A CDCL SAT solver.
///
/// Clauses are added with [`Solver::add_clause`]; [`Solver::solve`] may be
/// called repeatedly with different assumption sets (incremental usage), and
/// more clauses may be added between calls.
///
/// # Example
///
/// ```
/// use sat::{Lit, Solver, Var};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var();
/// let b = solver.new_var();
/// solver.add_clause([a.positive(), b.positive()]);
/// solver.add_clause([a.negative()]);
/// let result = solver.solve(&[]);
/// let model = result.model().expect("satisfiable");
/// assert!(!model[a.index()] && model[b.index()]);
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    config: SolverConfig,
    clauses: Vec<Clause>,
    /// Parallel to `clauses`: learned flag + clause activity.
    meta: Vec<ClauseMeta>,
    /// watches[lit.code()] = indices of clauses currently watching `lit`.
    watches: Vec<Vec<usize>>,
    /// Current value per variable: 0 = false, 1 = true, 2 = unassigned.
    values: Vec<u8>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Reason clause index for each implied variable (usize::MAX = decision).
    reason: Vec<usize>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    propagate_head: usize,
    activity: Vec<f64>,
    activity_inc: f64,
    /// Clause-activity increment (decayed per conflict).
    clause_inc: f64,
    /// Decision order: activity-keyed max-heap over the variables
    /// (MiniSat's `order_heap`), making each decision O(log vars) instead of
    /// an O(vars) scan. Assigned variables may linger in the heap (lazy
    /// removal on pop) and are re-inserted when backtracking unassigns them.
    order: VarOrder,
    /// Saved phase per variable for phase-saving.
    phase: Vec<bool>,
    seen: Vec<bool>,
    unsat: bool,
    /// Live (non-deleted) learned clauses.
    live_learnts: u64,
    /// Number of original (non-learned) clauses, for the cap floor.
    original_clauses: u64,
    /// Current learned-clause cap; 0 = not yet initialised.
    learnt_cap: u64,
    /// Assumption subset responsible for the last assumption-level UNSAT.
    conflict_assumptions: Vec<Lit>,
    /// The first assumption of the last [`Solver::solve_within`] while the
    /// solver rests at decision level 1 holding its decision (and the unit
    /// propagation closure of it); `None` whenever it rests at level 0.
    held: Option<Lit>,
    stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver with the default configuration.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(SolverConfig::default())
    }

    /// Creates an empty solver with an explicit configuration.
    #[must_use]
    pub fn with_config(config: SolverConfig) -> Self {
        Self {
            config,
            clauses: Vec::new(),
            meta: Vec::new(),
            watches: Vec::new(),
            values: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            propagate_head: 0,
            activity: Vec::new(),
            activity_inc: 1.0,
            clause_inc: 1.0,
            order: VarOrder::default(),
            phase: Vec::new(),
            seen: Vec::new(),
            unsat: false,
            live_learnts: 0,
            original_clauses: 0,
            learnt_cap: 0,
            conflict_assumptions: Vec::new(),
            held: None,
            stats: SolverStats::default(),
        }
    }

    /// Creates a solver preloaded with the clauses of `cnf`.
    #[must_use]
    pub fn from_cnf(cnf: &Cnf) -> Self {
        Self::from_cnf_with_config(cnf, SolverConfig::default())
    }

    /// Creates a configured solver preloaded with the clauses of `cnf`.
    #[must_use]
    pub fn from_cnf_with_config(cnf: &Cnf, config: SolverConfig) -> Self {
        let mut solver = Self::with_config(config);
        solver.reserve_vars(cnf.num_vars());
        for clause in cnf.clauses() {
            solver.add_clause(clause.iter().copied());
        }
        solver
    }

    /// The configuration this solver was built with.
    #[must_use]
    pub fn config(&self) -> SolverConfig {
        self.config
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.values.len() as u32);
        self.values.push(UNASSIGNED);
        self.level.push(0);
        self.reason.push(usize::MAX);
        self.activity.push(0.0);
        self.order.push_new_var(&self.activity);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Ensures at least `n` variables exist.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.values.len() < n {
            self.new_var();
        }
    }

    /// Number of variables currently known to the solver.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.values.len()
    }

    /// Number of clauses (original + live learned).
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of live (non-deleted) learned clauses.
    #[must_use]
    pub fn live_learnts(&self) -> u64 {
        self.live_learnts
    }

    /// Current learned-clause cap (0 until the first cap check with clause
    /// deletion enabled).
    #[must_use]
    pub fn learnt_cap(&self) -> u64 {
        self.learnt_cap
    }

    /// Accumulated search statistics.
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// After an UNSAT [`Solver::solve`] under assumptions, the subset of the
    /// assumption literals responsible for the conflict (MiniSat's
    /// `analyzeFinal`). Empty when the formula itself is UNSAT (independent
    /// of the assumptions) or when the last solve was SAT.
    ///
    /// The conjunction of the formula with just these assumptions is
    /// guaranteed UNSAT — the differential harness verifies this against a
    /// brute-force enumerator.
    #[must_use]
    pub fn unsat_assumptions(&self) -> &[Lit] {
        &self.conflict_assumptions
    }

    fn value_lit(&self, lit: Lit) -> u8 {
        let v = self.values[lit.var().index()];
        if v == UNASSIGNED {
            UNASSIGNED
        } else if (v == 1) == lit.polarity() {
            1
        } else {
            0
        }
    }

    /// Adds a clause. Duplicate literals are removed and tautological clauses
    /// are ignored. Adding the empty clause makes the solver permanently
    /// unsatisfiable. A level held by [`Solver::solve_within`] is dropped
    /// first: clauses are added at decision level 0.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        self.backtrack_to(0);
        let mut clause: Clause = lits.into_iter().collect();
        for lit in &clause {
            self.reserve_vars(lit.var().index() + 1);
        }
        clause.sort_by_key(|l| l.code());
        clause.dedup();
        // Tautology check (x ∨ ¬x).
        if clause.windows(2).any(|w| w[0].var() == w[1].var()) {
            return;
        }
        // Remove literals already false at level 0; skip clause if any literal
        // is already true at level 0.
        if clause.iter().any(|&l| self.value_lit(l) == 1) {
            return;
        }
        clause.retain(|&l| self.value_lit(l) != 0);

        match clause.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(clause[0], usize::MAX) || self.propagate().is_some() {
                    self.unsat = true;
                }
            }
            _ => {
                let idx = self.clauses.len();
                self.watches[clause[0].code()].push(idx);
                self.watches[clause[1].code()].push(idx);
                self.clauses.push(clause);
                self.meta.push(ClauseMeta {
                    learned: false,
                    activity: 0.0,
                });
                self.original_clauses += 1;
            }
        }
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Assigns `lit` to true with the given reason. Returns `false` if `lit`
    /// is already false (conflict at the caller's level).
    fn enqueue(&mut self, lit: Lit, reason: usize) -> bool {
        match self.value_lit(lit) {
            0 => false,
            1 => true,
            _ => {
                let v = lit.var().index();
                self.values[v] = u8::from(lit.polarity());
                self.level[v] = self.decision_level() as u32;
                self.reason[v] = reason;
                self.phase[v] = lit.polarity();
                self.trail.push(lit);
                true
            }
        }
    }

    /// Unit propagation. Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<usize> {
        while self.propagate_head < self.trail.len() {
            let p = self.trail[self.propagate_head];
            self.propagate_head += 1;
            self.stats.propagations += 1;
            // Literal ¬p became false; visit clauses watching ¬p.
            let false_lit = !p;
            let mut watch_list = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < watch_list.len() {
                let ci = watch_list[i];
                // Ensure the false literal is at position 1.
                if self.clauses[ci][0] == false_lit {
                    self.clauses[ci].swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci][1], false_lit);
                let first = self.clauses[ci][0];
                if self.value_lit(first) == 1 {
                    // Clause already satisfied; keep watching.
                    i += 1;
                    continue;
                }
                // Look for a replacement watch.
                let mut replaced = false;
                for k in 2..self.clauses[ci].len() {
                    let cand = self.clauses[ci][k];
                    if self.value_lit(cand) != 0 {
                        self.clauses[ci].swap(1, k);
                        self.watches[cand.code()].push(ci);
                        watch_list.swap_remove(i);
                        replaced = true;
                        break;
                    }
                }
                if replaced {
                    continue;
                }
                // No replacement: clause is unit or conflicting.
                if self.value_lit(first) == 0 {
                    // Conflict: restore remaining watches and report.
                    self.watches[false_lit.code()].extend_from_slice(&watch_list);
                    self.propagate_head = self.trail.len();
                    return Some(ci);
                }
                let ok = self.enqueue(first, ci);
                debug_assert!(ok);
                i += 1;
            }
            // Put back whatever remains in the (possibly shrunk) list, merged
            // with watches added during replacement search.
            let existing = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut merged = watch_list;
            merged.extend(existing);
            self.watches[false_lit.code()] = merged;
        }
        None
    }

    fn bump_activity(&mut self, var: Var) {
        let a = &mut self.activity[var.index()];
        *a += self.activity_inc;
        if *a > 1e100 {
            for act in &mut self.activity {
                *act *= 1e-100;
            }
            self.activity_inc *= 1e-100;
            self.order.rebuild(&self.activity);
        }
        self.order.bumped(var.index() as u32, &self.activity);
    }

    fn decay_activity(&mut self) {
        self.activity_inc /= 0.95;
    }

    fn bump_clause(&mut self, ci: usize) {
        let a = &mut self.meta[ci].activity;
        *a += self.clause_inc;
        if *a > 1e20 {
            for m in &mut self.meta {
                m.activity *= 1e-20;
            }
            self.clause_inc *= 1e-20;
        }
    }

    fn decay_clause_activity(&mut self) {
        self.clause_inc /= 0.999;
    }

    /// First-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: usize) -> (Clause, usize) {
        let mut learned: Clause = Vec::new();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut trail_idx = self.trail.len();
        let current_level = self.decision_level() as u32;
        let mut to_clear: Vec<Var> = Vec::new();

        loop {
            if self.meta[confl].learned {
                self.bump_clause(confl);
            }
            let clause = self.clauses[confl].clone();
            let start = usize::from(p.is_some());
            for &q in &clause[start..] {
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    to_clear.push(v);
                    self.bump_activity(v);
                    if self.level[v.index()] == current_level {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Find the next literal on the trail (at the current level) to
            // resolve on.
            loop {
                trail_idx -= 1;
                let lit = self.trail[trail_idx];
                if self.seen[lit.var().index()] {
                    p = Some(lit);
                    break;
                }
            }
            let p_lit = p.expect("resolution literal");
            self.seen[p_lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learned.insert(0, !p_lit);
                break;
            }
            confl = self.reason[p_lit.var().index()];
            debug_assert_ne!(confl, usize::MAX, "implied literal must have a reason");
        }

        for v in to_clear {
            self.seen[v.index()] = false;
        }

        // Backtrack level = highest level among learned[1..].
        let backtrack_level = learned[1..]
            .iter()
            .map(|l| self.level[l.var().index()] as usize)
            .max()
            .unwrap_or(0);

        // Move a literal of the backtrack level to position 1 so the watched
        // literals are correct after backjumping.
        if learned.len() > 1 {
            let (pos, _) = learned[1..]
                .iter()
                .enumerate()
                .max_by_key(|(_, l)| self.level[l.var().index()])
                .expect("non-empty");
            learned.swap(1, pos + 1);
        }

        (learned, backtrack_level)
    }

    /// MiniSat's `analyzeFinal`: `false_assumption` was found false while
    /// establishing the assumption levels. Walks the implication graph
    /// backwards and collects the subset of assumption decisions responsible.
    /// All decisions on the trail at this point are assumptions (branching
    /// only starts once every assumption level is established).
    fn analyze_final(&mut self, false_assumption: Lit) -> Vec<Lit> {
        let mut out = vec![false_assumption];
        if self.decision_level() == 0 {
            return out;
        }
        let v0 = false_assumption.var().index();
        if self.level[v0] > 0 {
            self.seen[v0] = true;
        }
        let start = self.trail_lim[0];
        for i in (start..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var().index();
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            let r = self.reason[v];
            if r == usize::MAX {
                // A decision — at this stage of the search, an assumption.
                // `false_assumption`'s own variable may be on the trail as an
                // earlier assumption with the opposite polarity; that
                // assumption is part of the responsible set too.
                out.push(lit);
            } else {
                for &q in &self.clauses[r][1..] {
                    if self.level[q.var().index()] > 0 {
                        self.seen[q.var().index()] = true;
                    }
                }
            }
        }
        self.seen[v0] = false;
        out
    }

    /// Backtracks to `level`; below level 1 the held level goes with it.
    fn backtrack_to(&mut self, level: usize) {
        if level == 0 {
            self.held = None;
        }
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("non-root level");
            while self.trail.len() > lim {
                let lit = self.trail.pop().expect("trail entry");
                let v = lit.var().index();
                self.values[v] = UNASSIGNED;
                self.reason[v] = usize::MAX;
                self.order.insert(v as u32, &self.activity);
            }
        }
        self.propagate_head = self.trail.len();
    }

    /// Current learned-clause cap, initialising it on first use. The cap
    /// floor tracks the original clause count
    /// (`max(min, originals / divisor)`, divisor 0 = min alone),
    /// and the cap itself grows by `learnt_cap_growth_percent` after every
    /// reduction.
    fn current_learnt_cap(&mut self) -> u64 {
        let origin_floor = match self.config.learnt_cap_origin_divisor {
            0 => 0,
            d => self.original_clauses / d,
        };
        let floor = self.config.learnt_cap_min.max(origin_floor);
        if self.learnt_cap < floor {
            self.learnt_cap = floor;
        }
        self.learnt_cap
    }

    /// Deletes the low-activity half of the deletable learned clauses and
    /// compacts the clause arena.
    ///
    /// A learned clause is deletable unless it is binary (cheap and
    /// valuable) or currently locked as the reason of an assigned variable.
    /// After compaction every watch list is rebuilt from clause positions
    /// 0/1 (the watched-literal invariant maintained by `propagate`) and the
    /// reason indices of all assigned variables are remapped. Safe at any
    /// decision level: deleted clauses are learned (logically redundant) and
    /// never reasons, so soundness and the implication graph are preserved.
    fn reduce_db(&mut self) {
        // Locked = reason of some currently-assigned variable.
        let mut locked = vec![false; self.clauses.len()];
        for &lit in &self.trail {
            let r = self.reason[lit.var().index()];
            if r != usize::MAX {
                locked[r] = true;
            }
        }
        let mut candidates: Vec<usize> = (0..self.clauses.len())
            .filter(|&ci| self.meta[ci].learned && !locked[ci] && self.clauses[ci].len() > 2)
            .collect();
        // Delete the low-activity half (ties broken by clause index so the
        // outcome is deterministic).
        candidates.sort_by(|&a, &b| {
            self.meta[a]
                .activity
                .total_cmp(&self.meta[b].activity)
                .then(a.cmp(&b))
        });
        let n_delete = candidates.len() / 2;
        if n_delete == 0 {
            // Nothing deletable: grow the cap so the check does not fire on
            // every conflict.
            self.learnt_cap = self
                .learnt_cap
                .saturating_mul(self.config.learnt_cap_growth_percent)
                / 100;
            return;
        }
        let mut remove = vec![false; self.clauses.len()];
        for &ci in &candidates[..n_delete] {
            remove[ci] = true;
        }

        // Compact the arena, building the old→new index remap.
        let mut remap = vec![usize::MAX; self.clauses.len()];
        let mut next = 0usize;
        for old in 0..self.clauses.len() {
            if !remove[old] {
                if old != next {
                    self.clauses.swap(old, next);
                    self.meta.swap(old, next);
                }
                remap[old] = next;
                next += 1;
            }
        }
        self.clauses.truncate(next);
        self.meta.truncate(next);

        // Rebuild every watch list from clause positions 0/1.
        for w in &mut self.watches {
            w.clear();
        }
        for (ci, clause) in self.clauses.iter().enumerate() {
            self.watches[clause[0].code()].push(ci);
            self.watches[clause[1].code()].push(ci);
        }

        // Remap reason indices (locked clauses were kept, so every live
        // reason survives).
        for &lit in &self.trail {
            let r = &mut self.reason[lit.var().index()];
            if *r != usize::MAX {
                debug_assert_ne!(remap[*r], usize::MAX, "reason clause deleted");
                *r = remap[*r];
            }
        }

        self.live_learnts -= n_delete as u64;
        self.stats.reduces += 1;
        self.stats.deleted_clauses += n_delete as u64;
        self.learnt_cap = self
            .learnt_cap
            .saturating_mul(self.config.learnt_cap_growth_percent)
            / 100;
    }

    /// Next decision variable: the unassigned variable of maximum activity,
    /// ties to the lowest index. O(log vars) via the order heap; assigned
    /// entries popped on the way are dropped (backtracking re-inserts them).
    fn pick_branch_var(&mut self) -> Option<Var> {
        let picked = loop {
            match self.order.pop(&self.activity) {
                None => break None,
                Some(v) if self.values[v as usize] == UNASSIGNED => break Some(Var(v)),
                Some(_) => {}
            }
        };
        #[cfg(debug_assertions)]
        assert_eq!(
            picked,
            self.pick_branch_var_linear(),
            "order heap must reproduce the linear scan's decision"
        );
        picked
    }

    /// Next decision variable of [`Solver::solve_within`]: the unassigned
    /// variable of `decide` that the order heap would rank first.
    fn pick_branch_var_within(&self, decide: &[Var]) -> Option<Var> {
        decide
            .iter()
            .map(|var| var.0)
            .filter(|&v| self.values[v as usize] == UNASSIGNED)
            .reduce(|best, v| {
                if before(&self.activity, v, best) {
                    v
                } else {
                    best
                }
            })
            .map(Var)
    }

    /// The original O(vars) scan, kept as the reference the heap is checked
    /// against on every decision in debug builds.
    #[cfg(debug_assertions)]
    fn pick_branch_var_linear(&self) -> Option<Var> {
        let mut best: Option<(f64, usize)> = None;
        for (i, &v) in self.values.iter().enumerate() {
            if v == UNASSIGNED {
                let act = self.activity[i];
                match best {
                    Some((b, _)) if act <= b => {}
                    _ => best = Some((act, i)),
                }
            }
        }
        best.map(|(_, i)| Var(i as u32))
    }

    /// Solves the formula under the given `assumptions` (literals forced true
    /// for this call only).
    ///
    /// The solver state (learned clauses, activities, saved phases) persists
    /// across calls, making repeated related queries fast.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_deciding(assumptions, None)
    }

    /// [`Solver::solve`] branching only on the variables of `decide`: the
    /// same CDCL loop, whose decisions pick the unassigned `decide` variable
    /// of highest activity (ties to the lowest index) and which returns SAT
    /// as soon as every one of them is assigned without conflict. The
    /// model's values outside what the decisions propagated are saved
    /// phases, not a model of the whole formula.
    ///
    /// **Precondition:** fixing every `decide` variable must, by unit
    /// propagation alone, fix every variable that the assumptions depend on
    /// — e.g. `decide` holds every primary input of the Tseitin-encoded
    /// cones of the assumption literals, as PODEM branches only on inputs.
    /// Then a conflict-free assignment of `decide` propagates every cone
    /// gate to its simulated value with the assumptions holding, which
    /// extends to a model of the formula; learned clauses are implied by the
    /// formula, so they never exclude one. Both verdicts are exact, and SAT
    /// is reached without deciding the variables the assumptions do not
    /// reach.
    ///
    /// The call ends at decision level 1 instead of 0 when level 1 holds the
    /// decision of its first assumption, and the next `solve_within` whose
    /// first assumption is the same literal starts from that level: it
    /// neither re-decides nor re-propagates it (one decision fewer). The
    /// held level is the unit-propagation closure of that literal under the
    /// current clauses — a backjump to level 1 asserts and propagates there
    /// — so both verdicts stay exact. Every other entry drops it first:
    /// [`Solver::solve`], [`Solver::probe`], [`Solver::add_clause`], a
    /// `solve_within` with another first assumption, and within a call a
    /// restart or a backjump to level 0.
    pub fn solve_within(&mut self, assumptions: &[Lit], decide: &[Var]) -> SolveResult {
        for var in decide {
            self.reserve_vars(var.index() + 1);
        }
        self.solve_deciding(assumptions, Some(decide))
    }

    /// The loop behind [`Solver::solve`] (`decide = None`: branch on every
    /// variable) and [`Solver::solve_within`].
    fn solve_deciding(&mut self, assumptions: &[Lit], decide: Option<&[Var]>) -> SolveResult {
        let reuse = decide.is_some()
            && self
                .held
                .is_some_and(|held| assumptions.first() == Some(&held));
        if !self.enter_root(assumptions, reuse) {
            return SolveResult::Unsat;
        }

        let mut episode = 1u64;
        loop {
            let budget = self.config.restart_budget(episode);
            match self.search(assumptions, decide, budget) {
                SearchOutcome::Sat(model) => {
                    self.finish(assumptions, decide.is_some());
                    return SolveResult::Sat(model);
                }
                SearchOutcome::Unsat => {
                    self.finish(assumptions, decide.is_some());
                    return SolveResult::Unsat;
                }
                SearchOutcome::Restart => {
                    self.stats.restarts += 1;
                    self.backtrack_to(0);
                    episode += 1;
                }
            }
        }
    }

    /// The common start of [`Solver::solve`] and [`Solver::probe`]: clears
    /// the last unsat core, allocates the assumptions' variables, and
    /// propagates at level 0 — or, with `reuse_held`, backtracks only to the
    /// held level 1, which is already at fixpoint. Returns `false` when the
    /// formula is UNSAT whatever the assumptions.
    fn enter_root(&mut self, assumptions: &[Lit], reuse_held: bool) -> bool {
        self.conflict_assumptions.clear();
        if self.unsat {
            return false;
        }
        for lit in assumptions {
            self.reserve_vars(lit.var().index() + 1);
        }
        if reuse_held {
            self.backtrack_to(1);
            #[cfg(debug_assertions)]
            self.check_held_level();
            return true;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return false;
        }
        true
    }

    /// The end of a solve call: back to level 0, or, after a
    /// [`Solver::solve_within`] (`within`) whose level 1 holds the decision
    /// of its first assumption, to level 1, which is then held.
    fn finish(&mut self, assumptions: &[Lit], within: bool) {
        let held = assumptions.first().copied().filter(|&first| {
            within
                && self
                    .trail_lim
                    .first()
                    .is_some_and(|&start| self.trail.get(start) == Some(&first))
        });
        self.backtrack_to(usize::from(held.is_some()));
        self.held = held;
    }

    /// Checks the held level against a fresh propagation of its literal from
    /// level 0, run on a clone so that the solver's own state (watch order
    /// included) is the same as in a release build: the two literal sets
    /// must be equal.
    #[cfg(debug_assertions)]
    fn check_held_level(&self) {
        let held = self.held.expect("a held level");
        let mut kept = self.trail[self.trail_lim[0]..].to_vec();
        let mut fresh = self
            .clone()
            .probe(&[held])
            .expect("a held level is consistent");
        kept.sort_unstable_by_key(|l| l.code());
        fresh.sort_unstable_by_key(|l| l.code());
        assert_eq!(
            kept, fresh,
            "held level must equal the propagation closure of {held:?}"
        );
    }

    /// Unit propagation under `assumptions`, without search: the
    /// assumptions are asserted together at one decision level, propagated
    /// to fixpoint, and the solver backtracks to level 0 before returning.
    ///
    /// Returns the literals that became true at that level (the
    /// assumptions included, literals already fixed at level 0 excluded) —
    /// each holds in every model of the formula under the assumptions — or
    /// `None` when propagation alone proves the assumptions UNSAT. This is
    /// the static-learning probe of SOCRATES: cheap, sound, and incomplete
    /// (a `Some` does not mean the assumptions are satisfiable).
    pub fn probe(&mut self, assumptions: &[Lit]) -> Option<Vec<Lit>> {
        if !self.enter_root(assumptions, false) {
            return None;
        }
        self.trail_lim.push(self.trail.len());
        let start = self.trail.len();
        let consistent = assumptions.iter().all(|&lit| self.enqueue(lit, usize::MAX))
            && self.propagate().is_none();
        let implied = consistent.then(|| self.trail[start..].to_vec());
        self.backtrack_to(0);
        implied
    }

    fn search(
        &mut self,
        assumptions: &[Lit],
        decide: Option<&[Var]>,
        conflict_budget: u64,
    ) -> SearchOutcome {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SearchOutcome::Unsat;
                }
                let (learned, backtrack_level) = self.analyze(confl);
                self.backtrack_to(backtrack_level);
                let asserting = learned[0];
                if learned.len() == 1 {
                    let ok = self.enqueue(asserting, usize::MAX);
                    if !ok {
                        self.unsat = true;
                        return SearchOutcome::Unsat;
                    }
                } else {
                    let idx = self.clauses.len();
                    self.watches[learned[0].code()].push(idx);
                    self.watches[learned[1].code()].push(idx);
                    self.clauses.push(learned);
                    self.meta.push(ClauseMeta {
                        learned: true,
                        activity: 0.0,
                    });
                    self.bump_clause(idx);
                    self.stats.learned_clauses += 1;
                    self.live_learnts += 1;
                    self.stats.peak_learnts = self.stats.peak_learnts.max(self.live_learnts);
                    let ok = self.enqueue(asserting, idx);
                    debug_assert!(ok);
                }
                self.decay_activity();
                self.decay_clause_activity();
                if self.live_learnts > self.current_learnt_cap() {
                    self.reduce_db();
                }
                if conflicts_here >= conflict_budget && self.decision_level() > assumptions.len() {
                    return SearchOutcome::Restart;
                }
            } else {
                // Decide.
                if self.decision_level() < assumptions.len() {
                    let lit = assumptions[self.decision_level()];
                    match self.value_lit(lit) {
                        0 => {
                            self.conflict_assumptions = self.analyze_final(lit);
                            return SearchOutcome::Unsat;
                        }
                        1 => {
                            // Already true: open an empty decision level so the
                            // assumption indexing stays aligned.
                            self.trail_lim.push(self.trail.len());
                        }
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.stats.decisions += 1;
                            let ok = self.enqueue(lit, usize::MAX);
                            debug_assert!(ok);
                        }
                    }
                    continue;
                }
                let next = match decide {
                    None => self.pick_branch_var(),
                    Some(decide) => self.pick_branch_var_within(decide),
                };
                match next {
                    None => {
                        // Every decision variable is assigned: build the model.
                        let model = self
                            .values
                            .iter()
                            .enumerate()
                            .map(|(i, &v)| {
                                if v == UNASSIGNED {
                                    self.phase[i]
                                } else {
                                    v == 1
                                }
                            })
                            .collect();
                        return SearchOutcome::Sat(model);
                    }
                    Some(var) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = var.lit(self.phase[var.index()]);
                        let ok = self.enqueue(lit, usize::MAX);
                        debug_assert!(ok);
                    }
                }
            }
        }
    }
}

enum SearchOutcome {
    Sat(Vec<bool>),
    Unsat,
    Restart,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: i64) -> Lit {
        Lit::from_dimacs(v)
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let mut s = Solver::new();
        s.add_clause([lit(1)]);
        assert!(s.solve(&[]).is_sat());

        let mut s = Solver::new();
        s.add_clause([lit(1)]);
        s.add_clause([lit(-1)]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve(&[]).is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        s.add_clause([]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn simple_implication_chain() {
        // (¬1 ∨ 2) ∧ (¬2 ∨ 3) ∧ (1) forces 3.
        let mut s = Solver::new();
        s.add_clause([lit(-1), lit(2)]);
        s.add_clause([lit(-2), lit(3)]);
        s.add_clause([lit(1)]);
        let model = s.solve(&[]).model().unwrap().to_vec();
        assert!(model[0] && model[1] && model[2]);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // Pigeons p in {1,2,3}, holes h in {1,2}: var(p,h) = 2(p-1)+h.
        let var = |p: i64, h: i64| 2 * (p - 1) + h;
        let mut s = Solver::new();
        for p in 1..=3 {
            s.add_clause([lit(var(p, 1)), lit(var(p, 2))]);
        }
        for h in 1..=2 {
            for p1 in 1..=3 {
                for p2 in (p1 + 1)..=3 {
                    s.add_clause([lit(-var(p1, h)), lit(-var(p2, h))]);
                }
            }
        }
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_restrict_and_release() {
        // (1 ∨ 2) with assumption ¬1 forces 2; assumptions don't persist.
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]);
        let m = s.solve(&[lit(-1)]).model().unwrap().to_vec();
        assert!(!m[0] && m[1]);
        // Conflicting assumptions => UNSAT under assumptions, SAT without.
        assert_eq!(s.solve(&[lit(-1), lit(-2)]), SolveResult::Unsat);
        assert!(s.solve(&[]).is_sat());
        assert!(s.solve(&[lit(1)]).is_sat());
    }

    #[test]
    fn unsat_assumption_subset_is_reported() {
        // (1 ∨ 2): assumptions [¬1, ¬2] are jointly contradictory; assumption
        // 3 is irrelevant and must not appear in the reported subset.
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]);
        assert_eq!(s.solve(&[lit(3), lit(-1), lit(-2)]), SolveResult::Unsat);
        let subset = s.unsat_assumptions().to_vec();
        assert!(subset.contains(&lit(-2)) && subset.contains(&lit(-1)));
        assert!(!subset.contains(&lit(3)));
        // A SAT call clears the subset.
        assert!(s.solve(&[lit(1)]).is_sat());
        assert!(s.unsat_assumptions().is_empty());
    }

    #[test]
    fn unsat_assumptions_empty_for_formula_level_unsat() {
        let mut s = Solver::new();
        s.add_clause([lit(1)]);
        s.add_clause([lit(-1)]);
        assert_eq!(s.solve(&[lit(2)]), SolveResult::Unsat);
        assert!(s.unsat_assumptions().is_empty());
    }

    #[test]
    fn directly_contradictory_assumptions() {
        // x and ¬x assumed together: the subset is {x, ¬x} (both polarities).
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]); // keep var 1 known to the solver
        assert_eq!(s.solve(&[lit(1), lit(-1)]), SolveResult::Unsat);
        let subset = s.unsat_assumptions().to_vec();
        assert!(subset.contains(&lit(1)) && subset.contains(&lit(-1)));
    }

    #[test]
    fn xor_chain_sat() {
        // x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, x1 ⊕ x3 = 0 is satisfiable.
        let mut s = Solver::new();
        // x1 ⊕ x2: (1∨2) ∧ (¬1∨¬2)
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(-1), lit(-2)]);
        s.add_clause([lit(2), lit(3)]);
        s.add_clause([lit(-2), lit(-3)]);
        // x1 ⊕ x3 = 0: (¬1∨3) ∧ (1∨¬3)
        s.add_clause([lit(-1), lit(3)]);
        s.add_clause([lit(1), lit(-3)]);
        let m = s.solve(&[]).model().unwrap().to_vec();
        assert!(m[0] ^ m[1]);
        assert!(m[1] ^ m[2]);
        assert!(!(m[0] ^ m[2]));
    }

    #[test]
    fn model_satisfies_random_3sat() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(99);
        for round in 0..30 {
            let cnf = random_3sat(&mut rng, 12, 40);
            let mut solver = Solver::from_cnf(&cnf);
            match solver.solve(&[]) {
                SolveResult::Sat(model) => {
                    assert_eq!(cnf.eval(&model), Some(true), "round {round}: bad model");
                }
                SolveResult::Unsat => assert!(
                    !brute_force_sat(&cnf, &[]),
                    "round {round}: solver said UNSAT but a model exists"
                ),
            }
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64 + 1), e, "luby({})", i + 1);
        }
    }

    #[test]
    fn restart_budgets_follow_their_policies() {
        let config = SolverConfig {
            restart_unit: 100,
            ..SolverConfig::default()
        };
        assert_eq!(config.restart_budget(1), 100);
        assert_eq!(config.restart_budget(3), 200);
        assert_eq!(config.restart_budget(7), 400);
    }

    /// Brute-force satisfiability of `cnf ∧ assumptions` by total
    /// enumeration (at most 14 variables).
    fn brute_force_sat(cnf: &Cnf, assumptions: &[Lit]) -> bool {
        let n = cnf.num_vars();
        assert!(n <= 14, "instance too large to enumerate");
        (0u32..1 << n).any(|mask| {
            let assignment: Vec<bool> = (0..n).map(|v| mask >> v & 1 == 1).collect();
            assumptions
                .iter()
                .all(|l| assignment[l.var().index()] == l.polarity())
                && cnf.eval(&assignment) == Some(true)
        })
    }

    /// Restarts every 16 conflicts and reduces the learned DB from a floor
    /// of four clauses, so deletion fires on instances small enough to
    /// enumerate.
    fn tiny_cap_config() -> SolverConfig {
        SolverConfig {
            restart_unit: 16,
            learnt_cap_min: 4,
            learnt_cap_growth_percent: 110,
            learnt_cap_origin_divisor: 0,
        }
    }

    /// A random 3-SAT formula over `num_vars` variables.
    fn random_3sat(rng: &mut impl rand::Rng, num_vars: usize, num_clauses: usize) -> Cnf {
        let mut cnf = Cnf::with_vars(num_vars);
        for _ in 0..num_clauses {
            let clause: Vec<Lit> = (0..3)
                .map(|_| Var(rng.gen_range(0..num_vars) as u32).lit(rng.gen_bool(0.5)))
                .collect();
            cnf.add_clause(clause);
        }
        cnf
    }

    /// Random instances at the 3-SAT phase transition solved with an
    /// artificially tiny cap: clause deletion must fire, keep the live count
    /// within the (growing) cap, and agree with brute-force enumeration on
    /// every verdict.
    #[test]
    fn reduce_db_fires_and_preserves_verdicts() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let mut total = SolverStats::default();
        for round in 0..40 {
            let cnf = random_3sat(&mut rng, 14, 60);
            let mut solver = Solver::from_cnf_with_config(&cnf, tiny_cap_config());
            let result = solver.solve(&[]);
            assert_eq!(result.is_sat(), brute_force_sat(&cnf, &[]), "round {round}");
            if let SolveResult::Sat(m) = &result {
                assert_eq!(cnf.eval(m), Some(true), "round {round}: bad model");
            }
            assert!(
                solver.live_learnts() <= solver.learnt_cap(),
                "round {round}"
            );
            assert!(solver.stats().peak_learnts >= solver.live_learnts());
            total.merge(&solver.stats());
        }
        assert!(total.reduces > 0, "no reduction fired: {total:?}");
        assert!(total.deleted_clauses > 0);
    }

    /// Clause deletion must stay sound across incremental solve calls: the
    /// same solver instance is queried repeatedly under assumptions while
    /// its learned DB is being reduced, and every verdict matches
    /// brute-force enumeration.
    #[test]
    fn reduce_db_sound_under_incremental_assumptions() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        let num_vars = 14;
        let cnf = random_3sat(&mut rng, num_vars, 56);
        let mut solver = Solver::from_cnf_with_config(&cnf, tiny_cap_config());
        for q in 0..30 {
            let a = Var(rng.gen_range(0..num_vars) as u32).lit(rng.gen_bool(0.5));
            let b = Var(rng.gen_range(0..num_vars) as u32).lit(rng.gen_bool(0.5));
            let assumptions = [a, b];
            let result = solver.solve(&assumptions);
            assert_eq!(
                result.is_sat(),
                brute_force_sat(&cnf, &assumptions),
                "query {q}: verdict differs from brute force"
            );
            if let SolveResult::Sat(m) = &result {
                assert_eq!(cnf.eval(m), Some(true), "query {q}: bad model");
                assert!(assumptions
                    .iter()
                    .all(|l| m[l.var().index()] == l.polarity()));
            }
        }
    }

    #[test]
    fn duplicate_and_tautological_clauses_handled() {
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(1), lit(1)]);
        s.add_clause([lit(2), lit(-2)]); // tautology, ignored
        assert!(s.solve(&[]).is_sat());
        assert_eq!(s.num_clauses(), 0); // unit went straight to the trail
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]);
        assert!(s.solve(&[]).is_sat());
        s.add_clause([lit(-1)]);
        s.add_clause([lit(-2)]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn fresh_ties_break_by_lowest_variable_index() {
        // All activities are zero on a fresh solver, so the old linear scan
        // decided the lowest-index unassigned variable first; the order heap
        // must reproduce that. With saved phase `false`, deciding ¬1 forces 2
        // from (1∨2), then ¬3 forces 4 from (3∨4).
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2)]);
        s.add_clause([lit(3), lit(4)]);
        let model = s.solve(&[]).model().unwrap().to_vec();
        assert_eq!(model, vec![false, true, false, true]);
        assert_eq!(s.stats().decisions, 2, "one decision per clause");
    }

    #[test]
    fn solve_within_decides_only_the_given_variables() {
        // Variable 3 is AND(1, 2); the clause (4 ∨ 5) lies outside its cone.
        let mut s = Solver::new();
        s.add_clause([lit(-3), lit(1)]);
        s.add_clause([lit(-3), lit(2)]);
        s.add_clause([lit(3), lit(-1), lit(-2)]);
        s.add_clause([lit(4), lit(5)]);
        let cone_inputs = [Var(0), Var(1)];
        // ¬3 with fresh ties and saved phase `false`: decide ¬1, then ¬2
        // (every input is fixed), and stop before 4 or 5 is touched.
        let model = s
            .solve_within(&[lit(-3)], &cone_inputs)
            .model()
            .unwrap()
            .to_vec();
        assert!(!model[0] && !model[1]);
        assert_eq!(s.stats().decisions, 3, "the assumption and both inputs");
        // 3 propagates both inputs: no decision beyond the assumption.
        let model = s
            .solve_within(&[lit(3)], &cone_inputs)
            .model()
            .unwrap()
            .to_vec();
        assert!(model[0] && model[1]);
        assert_eq!(s.stats().decisions, 4);
        // The same first assumption starts from its held level, where ¬1 is
        // already refuted: no decision at all.
        assert_eq!(
            s.solve_within(&[lit(3), lit(-1)], &cone_inputs),
            SolveResult::Unsat
        );
        assert_eq!(s.stats().decisions, 4);
        // A full solve afterwards drops the held level and decides outside
        // the cone too: 3, then ¬4.
        assert!(s.solve(&[lit(3)]).is_sat());
        assert_eq!(s.stats().decisions, 6);
    }

    /// Adds `out = AND(a, b)` (`or: false`) or `out = OR(a, b)` (`or: true`)
    /// in DIMACS numbering.
    fn gate(s: &mut Solver, or: bool, out: i64, a: i64, b: i64) {
        let (o, x, y) = if or { (-out, -a, -b) } else { (out, a, b) };
        s.add_clause([lit(-o), lit(x)]);
        s.add_clause([lit(-o), lit(y)]);
        s.add_clause([lit(o), lit(-x), lit(-y)]);
    }

    /// Three cones, 3 = AND(1, 2), 6 = OR(4, 5) and 9 = AND(7, 8), and
    /// their six inputs.
    fn three_cones() -> (Solver, [Var; 6]) {
        let mut s = Solver::new();
        gate(&mut s, false, 3, 1, 2);
        gate(&mut s, true, 6, 4, 5);
        gate(&mut s, false, 9, 7, 8);
        (s, [1, 2, 4, 5, 7, 8].map(|v| Var(v - 1)))
    }

    #[test]
    fn solve_within_reuses_a_shared_first_assumption() {
        let (mut s, inputs) = three_cones();
        assert!(s.solve_within(&[lit(3), lit(-6)], &inputs).is_sat());
        assert_eq!((s.decision_level(), s.held), (1, Some(lit(3))));
        let before = s.stats();
        let model = s.solve_within(&[lit(3), lit(9)], &inputs);
        let after = s.stats();
        // A fresh solver answering only the second query finds the same
        // model, deciding 3 and propagating 3, 1 and 2 on the way.
        let (mut fresh, _) = three_cones();
        assert_eq!(fresh.solve_within(&[lit(3), lit(9)], &inputs), model);
        assert_eq!(
            model.model().unwrap(),
            [true, true, true, false, false, false, true, true, true]
        );
        assert_eq!(
            after.decisions - before.decisions + 1,
            fresh.stats().decisions
        );
        assert_eq!(
            after.propagations - before.propagations + 3,
            fresh.stats().propagations
        );
        assert_eq!(s.held, Some(lit(3)));
    }

    #[test]
    fn add_clause_solve_and_probe_drop_the_held_level() {
        let (mut s, inputs) = three_cones();
        let by_code = |lits: Option<Vec<Lit>>| {
            let mut lits = lits.expect("consistent");
            lits.sort_by_key(|l| l.code());
            lits
        };
        // Under the held 3, ¬1 would be refuted; from level 0 it forces ¬3.
        assert!(s.solve_within(&[lit(3), lit(9)], &inputs).is_sat());
        assert_eq!(by_code(s.probe(&[lit(-1)])), [lit(-1), lit(-3)]);
        assert_eq!((s.decision_level(), s.held), (0, None));
        assert!(s.solve_within(&[lit(3), lit(9)], &inputs).is_sat());
        assert!(s.solve(&[lit(-3)]).is_sat());
        assert_eq!((s.decision_level(), s.held), (0, None));
        // The unit ¬1 is added at level 0, under which 3 is refuted.
        assert!(s.solve_within(&[lit(3), lit(9)], &inputs).is_sat());
        s.add_clause([lit(-1)]);
        assert_eq!((s.decision_level(), s.held), (0, None));
        assert_eq!(
            s.solve_within(&[lit(3), lit(9)], &inputs),
            SolveResult::Unsat
        );
        assert_eq!(s.unsat_assumptions(), [lit(3)]);
        assert_eq!((s.decision_level(), s.held), (0, None));
    }

    #[test]
    fn unsat_at_the_second_assumption_keeps_the_held_level() {
        let (mut s, inputs) = three_cones();
        assert_eq!(
            s.solve_within(&[lit(3), lit(-1)], &inputs),
            SolveResult::Unsat
        );
        let mut core = s.unsat_assumptions().to_vec();
        core.sort_by_key(|l| l.code());
        assert_eq!(core, [lit(-1), lit(3)]);
        assert_eq!((s.decision_level(), s.held), (1, Some(lit(3))));
        // 3 is not decided again: 9, then ¬4 and ¬5.
        assert!(s.solve_within(&[lit(3), lit(9)], &inputs).is_sat());
        assert_eq!(s.stats().decisions, 1 + 3);
    }

    #[test]
    fn a_new_first_assumption_or_a_learned_unit_drops_the_held_level() {
        let (mut s, inputs) = three_cones();
        // 10 forces both 11 and ¬11: only a conflict refutes it.
        s.add_clause([lit(-10), lit(11)]);
        s.add_clause([lit(-10), lit(-11)]);
        assert!(s.solve_within(&[lit(3), lit(9)], &inputs).is_sat());
        // Another first assumption decides both assumptions afresh (then ¬4
        // and ¬5) and holds its own level.
        let decisions = s.stats().decisions;
        assert!(s.solve_within(&[lit(9), lit(3)], &inputs).is_sat());
        assert_eq!(s.stats().decisions, decisions + 4);
        assert_eq!(s.held, Some(lit(9)));
        // Deciding 10 on the held level conflicts; the learned unit ¬10
        // backjumps to level 0, so 9 is decided again before 10 is found
        // false, and its level is held anew.
        let decisions = s.stats().decisions;
        assert_eq!(
            s.solve_within(&[lit(9), lit(10)], &inputs),
            SolveResult::Unsat
        );
        assert_eq!(s.stats().decisions, decisions + 2);
        assert_eq!(s.stats().conflicts, 1);
        assert_eq!(s.unsat_assumptions(), [lit(10)]);
        assert_eq!((s.decision_level(), s.held), (1, Some(lit(9))));
    }

    /// The held level's debug check compares it with a fresh propagation:
    /// a level that is not its literal's closure trips it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "held level must equal")]
    fn a_held_level_that_is_not_its_closure_trips_the_debug_check() {
        let (mut s, inputs) = three_cones();
        assert!(s.solve_within(&[lit(3), lit(9)], &inputs).is_sat());
        // Level 1 holds 3, 1 and 2, not the closure of 9.
        s.held = Some(lit(9));
        let _ = s.solve_within(&[lit(9), lit(3)], &inputs);
    }

    /// `solve` never holds a level, so a sequence of `solve` calls does the
    /// same work as before held levels existed (counters pinned from that
    /// solver), restarts and clause-database reductions included.
    #[test]
    fn solve_sequences_keep_their_counters() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let num_vars = 14;
        let cnf = random_3sat(&mut rng, num_vars, 58);
        let config = SolverConfig {
            restart_unit: 1,
            ..tiny_cap_config()
        };
        let mut s = Solver::from_cnf_with_config(&cnf, config);
        for _ in 0..40 {
            let assumptions: Vec<Lit> = (0..2)
                .map(|_| Var(rng.gen_range(0..num_vars) as u32).lit(rng.gen_bool(0.5)))
                .collect();
            let _ = s.solve(&assumptions);
        }
        let st = s.stats();
        assert_eq!(
            (
                st.decisions,
                st.conflicts,
                st.propagations,
                st.restarts,
                st.reduces
            ),
            (141, 9, 456, 2, 1)
        );
    }

    #[test]
    fn heap_decisions_match_linear_reference_on_random_instances() {
        // `pick_branch_var` asserts heap-vs-linear-scan agreement on *every*
        // decision in debug builds; driving a batch of conflict-heavy random
        // instances (bumps, restarts, backtracking, incremental reuse)
        // exercises that assertion thoroughly.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(123);
        for _ in 0..20 {
            let num_vars = 30;
            let mut solver = Solver::new();
            for _ in 0..120 {
                let clause: Vec<Lit> = (0..3)
                    .map(|_| Var(rng.gen_range(0..num_vars) as u32).lit(rng.gen_bool(0.5)))
                    .collect();
                solver.add_clause(clause);
            }
            let first = solver.solve(&[]);
            // Incremental re-solve under assumptions keeps the heap coherent
            // across backtrack_to(0) boundaries.
            let assumption = Var(0).lit(rng.gen_bool(0.5));
            let _ = solver.solve(&[assumption]);
            let second = solver.solve(&[]);
            assert_eq!(first.is_sat(), second.is_sat());
            assert!(solver.stats().decisions > 0);
        }
    }

    #[test]
    fn stats_accumulate_and_merge() {
        let mut s = Solver::new();
        s.add_clause([lit(1), lit(2), lit(3)]);
        s.add_clause([lit(-1), lit(-2)]);
        let _ = s.solve(&[]);
        assert!(s.stats().decisions > 0);

        let mut total = SolverStats::default();
        total.merge(&s.stats());
        total.merge(&s.stats());
        assert_eq!(total.decisions, 2 * s.stats().decisions);
        assert_eq!(total.peak_learnts, s.stats().peak_learnts);
    }
}
