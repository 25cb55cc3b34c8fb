//! A CDCL SAT solver.
//!
//! Implements the standard loop: unit propagation with two watched
//! literals, first-UIP conflict analysis with clause learning, activity
//! (VSIDS-style) branching, and geometric restarts. The theory layer
//! drives it lazily: each full propositional model is checked against the
//! theories and refuted with a blocking clause when theory-inconsistent.

use dsolve_logic::deadline_expired;
use dsolve_obs::{micro, MicroCounter};
use std::fmt;
use std::time::Instant;

/// A propositional variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BVar(pub u32);

/// A literal: a variable with a polarity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: BVar) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    pub fn neg(v: BVar) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Literal of `v` with the given sign (`true` = positive).
    pub fn new(v: BVar, sign: bool) -> Lit {
        if sign {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> BVar {
        BVar(self.0 >> 1)
    }

    /// Whether this is a positive literal.
    pub fn sign(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", if self.sign() { "" } else { "~" }, self.var().0)
    }
}

/// Result of a SAT search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// A model was found (consult [`CdclSolver::model_value`]).
    Sat,
    /// The clause set is unsatisfiable.
    Unsat,
    /// The search budget (deadline or conflict cap) ran out first.
    Unknown,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Assign {
    Unassigned,
    True,
    False,
}

type ClauseRef = usize;

/// The CDCL solver.
///
/// # Examples
///
/// ```
/// use dsolve_smt::{BVar, CdclSolver, Lit, SatResult};
/// let mut s = CdclSolver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// s.add_clause(vec![Lit::pos(a), Lit::pos(b)]);
/// s.add_clause(vec![Lit::neg(a)]);
/// assert_eq!(s.solve(), SatResult::Sat);
/// assert_eq!(s.model_value(b), true);
/// ```
pub struct CdclSolver {
    nvars: usize,
    clauses: Vec<Vec<Lit>>,
    /// Watch lists indexed by literal.
    watches: Vec<Vec<ClauseRef>>,
    assign: Vec<Assign>,
    /// Decision level per variable.
    level: Vec<u32>,
    /// Antecedent clause per variable (for conflict analysis).
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    act_inc: f64,
    /// Empty clause added directly.
    unsat: bool,
    /// Original literals of lemmas added while a scope was open, kept
    /// so [`CdclSolver::pop_scope`] can replay them unsimplified (the
    /// in-place clause may have had literals stripped against scoped
    /// level-0 units, which would bake scoped assumptions into a
    /// clause that outlives the scope).
    lemma_store: Vec<Vec<Lit>>,
    /// Open scopes: clause count, root-trail length, lemma-store
    /// length, and the `unsat` flag at push time.
    scope_marks: Vec<(usize, usize, usize, bool)>,
    /// Lifetime work counters, incremented inline by the hot loops and
    /// flushed as deltas to the thread-local micro accumulator at each
    /// [`CdclSolver::solve_within`] call.
    n_decisions: u64,
    n_propagations: u64,
    n_conflicts: u64,
    n_learned_clauses: u64,
    n_learned_literals: u64,
}

impl Default for CdclSolver {
    fn default() -> CdclSolver {
        CdclSolver::new()
    }
}

impl CdclSolver {
    /// Creates an empty solver.
    pub fn new() -> CdclSolver {
        CdclSolver {
            nvars: 0,
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            act_inc: 1.0,
            unsat: false,
            lemma_store: Vec::new(),
            scope_marks: Vec::new(),
            n_decisions: 0,
            n_propagations: 0,
            n_conflicts: 0,
            n_learned_clauses: 0,
            n_learned_literals: 0,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> BVar {
        let v = BVar(u32::try_from(self.nvars).expect("too many SAT variables"));
        self.nvars += 1;
        self.assign.push(Assign::Unassigned);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.nvars
    }

    /// Adds a clause. May only be called between `solve` calls (the solver
    /// backtracks to level 0 before returning, and blocking clauses are
    /// added there). Clauses added while a scope is open are discarded by
    /// the matching [`CdclSolver::pop_scope`].
    pub fn add_clause(&mut self, lits: Vec<Lit>) {
        self.add_clause_inner(lits);
    }

    /// Adds a *lemma*: a clause the caller guarantees is valid in the
    /// background theory (a theory blocking clause, an axiom instance, a
    /// saturation lemma). Lemmas survive [`CdclSolver::pop_scope`] — on
    /// pop they are replayed from their original literals, so scoped
    /// level-0 simplification cannot leak into the retained clause.
    pub fn add_lemma(&mut self, lits: Vec<Lit>) {
        if !self.scope_marks.is_empty() {
            self.lemma_store.push(lits.clone());
        }
        self.add_clause_inner(lits);
    }

    /// Opens an assertion scope. The solver first backtracks to level 0,
    /// so the scope mark cleanly separates root-level state.
    pub fn push_scope(&mut self) {
        self.reset_to_root();
        self.scope_marks.push((
            self.clauses.len(),
            self.trail.len(),
            self.lemma_store.len(),
            self.unsat,
        ));
    }

    /// Closes the innermost scope: drops every clause added since the
    /// matching [`CdclSolver::push_scope`] (scoped asserts *and* learned
    /// clauses, which may depend on them), unassigns root-trail entries
    /// made since, and replays retained lemmas. Unit propagation is
    /// restarted from the trail head, restoring the propagation fixpoint
    /// of the surviving clause set.
    pub fn pop_scope(&mut self) {
        self.reset_to_root();
        let (clause_mark, trail_mark, lemma_mark, was_unsat) =
            self.scope_marks.pop().expect("pop without matching push");
        // Unassign root-level assignments made inside the scope. Reasons
        // of surviving prefix entries always predate the scope's clauses
        // (a reason is recorded at enqueue time), so truncation below
        // cannot dangle them.
        while self.trail.len() > trail_mark {
            let l = self.trail.pop().expect("nonempty trail");
            let v = l.var().0 as usize;
            self.assign[v] = Assign::Unassigned;
            self.reason[v] = None;
        }
        self.prop_head = 0;
        // Drop scoped clauses and any watch-list entries pointing at them.
        for w in &mut self.watches {
            w.retain(|&cref| cref < clause_mark);
        }
        self.clauses.truncate(clause_mark);
        self.unsat = was_unsat;
        // Replay lemmas recorded inside the scope; if an enclosing scope
        // is still open, add_lemma re-records them for its pop.
        let replay: Vec<Vec<Lit>> = self.lemma_store.split_off(lemma_mark);
        for lits in replay {
            self.add_lemma(lits);
        }
    }

    fn add_clause_inner(&mut self, mut lits: Vec<Lit>) {
        debug_assert!(self.trail_lim.is_empty(), "add_clause above level 0");
        // Simplify: dedupe, drop tautologies and false literals.
        lits.sort();
        lits.dedup();
        let mut i = 0;
        while i + 1 < lits.len() {
            if lits[i].var() == lits[i + 1].var() {
                return; // x ∨ ¬x: tautology
            }
            i += 1;
        }
        lits.retain(|l| self.value(*l) != Assign::False || self.level[l.var().0 as usize] > 0);
        if lits.iter().any(|l| self.value(*l) == Assign::True && self.level[l.var().0 as usize] == 0) {
            return; // already satisfied at level 0
        }
        match lits.len() {
            0 => self.unsat = true,
            1 => {
                if !self.enqueue(lits[0], None) {
                    self.unsat = true;
                }
            }
            _ => {
                let cref = self.clauses.len();
                self.watches[lits[0].negate().index()].push(cref);
                self.watches[lits[1].negate().index()].push(cref);
                self.clauses.push(lits);
            }
        }
    }

    fn value(&self, l: Lit) -> Assign {
        match self.assign[l.var().0 as usize] {
            Assign::Unassigned => Assign::Unassigned,
            Assign::True => {
                if l.sign() {
                    Assign::True
                } else {
                    Assign::False
                }
            }
            Assign::False => {
                if l.sign() {
                    Assign::False
                } else {
                    Assign::True
                }
            }
        }
    }

    /// The root trail: the literals fixed at decision level 0, in the
    /// order they were assigned. After `solve` returned `Sat` these are
    /// the model's literals that hold in every model of the current
    /// clause set.
    pub(crate) fn root_trail(&self) -> &[Lit] {
        &self.trail[..self.trail_lim.first().copied().unwrap_or(self.trail.len())]
    }

    /// The model value of `v` after `solve` returned `Sat`.
    pub fn model_value(&self, v: BVar) -> bool {
        matches!(self.assign[v.0 as usize], Assign::True)
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) -> bool {
        match self.value(l) {
            Assign::True => true,
            Assign::False => false,
            Assign::Unassigned => {
                let v = l.var().0 as usize;
                self.assign[v] = if l.sign() { Assign::True } else { Assign::False };
                self.level[v] = self.decision_level();
                self.reason[v] = reason;
                self.trail.push(l);
                true
            }
        }
    }

    /// Unit propagation; returns a conflicting clause on conflict.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.prop_head < self.trail.len() {
            let l = self.trail[self.prop_head];
            self.prop_head += 1;
            // Clauses watching ¬l need attention.
            let mut ws = std::mem::take(&mut self.watches[l.index()]);
            let mut keep = Vec::with_capacity(ws.len());
            let mut conflict = None;
            while let Some(cref) = ws.pop() {
                if conflict.is_some() {
                    keep.push(cref);
                    continue;
                }
                let false_lit = l.negate();
                // Normalize: watched literals are clause[0] and clause[1].
                {
                    let c = &mut self.clauses[cref];
                    if c[0] == false_lit {
                        c.swap(0, 1);
                    }
                }
                if self.value(self.clauses[cref][0]) == Assign::True {
                    keep.push(cref);
                    continue;
                }
                // Find a new watch.
                let mut found = false;
                for k in 2..self.clauses[cref].len() {
                    if self.value(self.clauses[cref][k]) != Assign::False {
                        self.clauses[cref].swap(1, k);
                        let w = self.clauses[cref][1].negate().index();
                        self.watches[w].push(cref);
                        found = true;
                        break;
                    }
                }
                if found {
                    continue;
                }
                // Clause is unit or conflicting.
                keep.push(cref);
                let first = self.clauses[cref][0];
                self.n_propagations += 1;
                if !self.enqueue(first, Some(cref)) {
                    conflict = Some(cref);
                }
            }
            self.watches[l.index()].extend(keep);
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    fn bump(&mut self, v: BVar) {
        self.activity[v.0 as usize] += self.act_inc;
        if self.activity[v.0 as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.act_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns (learnt clause, backtrack level).
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = Vec::new();
        let mut seen = vec![false; self.nvars];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = confl;
        let mut trail_idx = self.trail.len();

        loop {
            let start = usize::from(p.is_some());
            let lits: Vec<Lit> = self.clauses[cref][start..].to_vec();
            for q in lits {
                let v = q.var();
                if !seen[v.0 as usize] && self.level[v.0 as usize] > 0 {
                    seen[v.0 as usize] = true;
                    self.bump(v);
                    if self.level[v.0 as usize] == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal from the trail.
            loop {
                trail_idx -= 1;
                let l = self.trail[trail_idx];
                if seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found UIP candidate").var();
            seen[pv.0 as usize] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            cref = self.reason[pv.0 as usize].expect("non-decision has a reason");
        }
        let uip = p.expect("first UIP").negate();
        let mut clause = vec![uip];
        clause.extend(learnt);
        // Backtrack level: second-highest level in the clause.
        let bt = clause[1..]
            .iter()
            .map(|l| self.level[l.var().0 as usize])
            .max()
            .unwrap_or(0);
        // Put a literal of the backtrack level at position 1 for watching.
        if clause.len() > 1 {
            let pos = clause[1..]
                .iter()
                .position(|l| self.level[l.var().0 as usize] == bt)
                .expect("literal at backtrack level")
                + 1;
            clause.swap(1, pos);
        }
        (clause, bt)
    }

    fn backtrack(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail nonempty");
                let v = l.var().0 as usize;
                self.assign[v] = Assign::Unassigned;
                self.reason[v] = None;
            }
            self.prop_head = self.trail.len().min(self.prop_head);
        }
        self.prop_head = self.trail.len().min(self.prop_head);
    }

    /// Backtracks to decision level 0 (used by the theory layer before
    /// adding a blocking clause).
    pub fn reset_to_root(&mut self) {
        self.backtrack(0);
        self.prop_head = 0;
    }

    fn decide(&mut self) -> Option<Lit> {
        let mut best: Option<BVar> = None;
        for v in 0..self.nvars {
            if self.assign[v] == Assign::Unassigned {
                match best {
                    None => best = Some(BVar(v as u32)),
                    Some(b) => {
                        if self.activity[v] > self.activity[b.0 as usize] {
                            best = Some(BVar(v as u32));
                        }
                    }
                }
            }
        }
        // Default phase: negative (tends to keep atoms "false", which
        // suits blocking-clause enumeration over mostly-conjunctive VCs).
        best.map(Lit::neg)
    }

    /// Runs the CDCL search to completion with no budget.
    pub fn solve(&mut self) -> SatResult {
        self.solve_within(None, u64::MAX)
    }

    /// Runs the CDCL search, giving up with [`SatResult::Unknown`] when
    /// the deadline passes or more than `max_conflicts` conflicts occur.
    ///
    /// The deadline is polled every [`DEADLINE_POLL_CONFLICTS`] conflicts
    /// (and at each restart), so expiry is detected promptly on hard
    /// instances without a syscall per propagation. On `Unknown` the
    /// solver backtracks to level 0 and stays usable.
    pub fn solve_within(&mut self, deadline: Option<Instant>, max_conflicts: u64) -> SatResult {
        let base = (
            self.n_decisions,
            self.n_propagations,
            self.n_conflicts,
            self.n_learned_clauses,
            self.n_learned_literals,
        );
        let r = self.solve_within_inner(deadline, max_conflicts);
        micro::add(MicroCounter::SatDecisions, self.n_decisions - base.0);
        micro::add(MicroCounter::SatPropagations, self.n_propagations - base.1);
        micro::add(MicroCounter::SatConflicts, self.n_conflicts - base.2);
        micro::add(MicroCounter::SatLearnedClauses, self.n_learned_clauses - base.3);
        micro::add(MicroCounter::SatLearnedLiterals, self.n_learned_literals - base.4);
        r
    }

    fn solve_within_inner(&mut self, deadline: Option<Instant>, max_conflicts: u64) -> SatResult {
        /// How many conflicts pass between deadline polls.
        const DEADLINE_POLL_CONFLICTS: u64 = 64;

        if self.unsat {
            return SatResult::Unsat;
        }
        if deadline_expired(deadline) {
            return SatResult::Unknown;
        }
        let mut conflicts_total = 0u64;
        let mut conflicts_since_restart = 0usize;
        let mut restart_limit = 100usize;
        loop {
            if let Some(confl) = self.propagate() {
                if self.decision_level() == 0 {
                    self.unsat = true;
                    return SatResult::Unsat;
                }
                conflicts_total += 1;
                self.n_conflicts += 1;
                if conflicts_total > max_conflicts
                    || (conflicts_total.is_multiple_of(DEADLINE_POLL_CONFLICTS)
                        && deadline_expired(deadline))
                {
                    self.backtrack(0);
                    self.prop_head = 0;
                    return SatResult::Unknown;
                }
                conflicts_since_restart += 1;
                self.act_inc *= 1.05;
                let (clause, bt) = self.analyze(confl);
                self.n_learned_clauses += 1;
                self.n_learned_literals += clause.len() as u64;
                self.backtrack(bt);
                if clause.len() == 1 {
                    if !self.enqueue(clause[0], None) {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                } else {
                    let cref = self.clauses.len();
                    self.watches[clause[0].negate().index()].push(cref);
                    self.watches[clause[1].negate().index()].push(cref);
                    let unit = clause[0];
                    self.clauses.push(clause);
                    if !self.enqueue(unit, Some(cref)) {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                }
            } else if conflicts_since_restart >= restart_limit {
                conflicts_since_restart = 0;
                restart_limit = restart_limit * 3 / 2;
                self.backtrack(0);
            } else {
                match self.decide() {
                    None => return SatResult::Sat,
                    Some(l) => {
                        self.n_decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let ok = self.enqueue(l, None);
                        debug_assert!(ok, "decision literal was assigned");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut CdclSolver, n: usize) -> Vec<BVar> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn empty_problem_is_sat() {
        let mut s = CdclSolver::new();
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn unit_conflict() {
        let mut s = CdclSolver::new();
        let v = lits(&mut s, 1);
        s.add_clause(vec![Lit::pos(v[0])]);
        s.add_clause(vec![Lit::neg(v[0])]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn simple_propagation_chain() {
        let mut s = CdclSolver::new();
        let v = lits(&mut s, 3);
        s.add_clause(vec![Lit::pos(v[0])]);
        s.add_clause(vec![Lit::neg(v[0]), Lit::pos(v[1])]);
        s.add_clause(vec![Lit::neg(v[1]), Lit::pos(v[2])]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(v[0]) && s.model_value(v[1]) && s.model_value(v[2]));
    }

    #[test]
    fn pigeonhole_two_in_one() {
        // 2 pigeons, 1 hole: p00, p10, ¬p00∨¬p10 — unsat.
        let mut s = CdclSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(vec![Lit::pos(v[0])]);
        s.add_clause(vec![Lit::pos(v[1])]);
        s.add_clause(vec![Lit::neg(v[0]), Lit::neg(v[1])]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_pigeons_2_holes() {
        // PHP(3,2): unsat and requires real search.
        let mut s = CdclSolver::new();
        // p[i][j]: pigeon i in hole j.
        let p: Vec<Vec<BVar>> = (0..3).map(|_| lits(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(vec![Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(vec![Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn satisfiable_3cnf() {
        let mut s = CdclSolver::new();
        let v = lits(&mut s, 4);
        s.add_clause(vec![Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
        s.add_clause(vec![Lit::neg(v[0]), Lit::pos(v[3])]);
        s.add_clause(vec![Lit::neg(v[1]), Lit::neg(v[3])]);
        s.add_clause(vec![Lit::neg(v[2]), Lit::pos(v[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        // Verify the model satisfies every clause.
        let model = |l: Lit| s.model_value(l.var()) == l.sign();
        assert!(model(Lit::pos(v[0])) || model(Lit::pos(v[1])) || model(Lit::pos(v[2])));
    }

    #[test]
    fn incremental_blocking_clauses() {
        // Enumerate models of (a ∨ b) by blocking each; exactly 3 models.
        let mut s = CdclSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(vec![Lit::pos(v[0]), Lit::pos(v[1])]);
        let mut count = 0;
        while s.solve() == SatResult::Sat {
            count += 1;
            assert!(count <= 3, "too many models");
            let block: Vec<Lit> = v
                .iter()
                .map(|&x| Lit::new(x, !s.model_value(x)))
                .collect();
            s.reset_to_root();
            s.add_clause(block);
        }
        assert_eq!(count, 3);
    }

    #[test]
    fn conflict_cap_reports_unknown_and_keeps_solver_usable() {
        // PHP(4,3) takes more than one conflict to refute.
        let mut s = CdclSolver::new();
        let p: Vec<Vec<BVar>> = (0..4).map(|_| lits(&mut s, 3)).collect();
        for row in &p {
            s.add_clause(row.iter().map(|&v| Lit::pos(v)).collect());
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..3 {
            for i1 in 0..4 {
                for i2 in (i1 + 1)..4 {
                    s.add_clause(vec![Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve_within(None, 1), SatResult::Unknown);
        // The same solver, given full budget, still decides the instance.
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn expired_deadline_reports_unknown() {
        let mut s = CdclSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(vec![Lit::pos(v[0]), Lit::pos(v[1])]);
        let past = Instant::now() - std::time::Duration::from_millis(1);
        assert_eq!(s.solve_within(Some(past), u64::MAX), SatResult::Unknown);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn pop_discards_scoped_clauses() {
        let mut s = CdclSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(vec![Lit::pos(v[0]), Lit::pos(v[1])]);
        s.push_scope();
        s.add_clause(vec![Lit::neg(v[0])]);
        s.add_clause(vec![Lit::neg(v[1])]);
        assert_eq!(s.solve(), SatResult::Unsat);
        s.pop_scope();
        // The base instance is satisfiable again.
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(v[0]) || s.model_value(v[1]));
        // And a fresh scoped constraint can still flip each variable.
        s.push_scope();
        s.add_clause(vec![Lit::neg(v[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(v[1]));
        s.pop_scope();
    }

    #[test]
    fn lemmas_survive_pop() {
        // Block a model inside a scope via add_lemma; after pop the
        // blocking clause still constrains the search.
        let mut s = CdclSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(vec![Lit::pos(v[0]), Lit::pos(v[1])]);
        s.push_scope();
        s.add_lemma(vec![Lit::neg(v[0]), Lit::pos(v[1])]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.pop_scope();
        s.add_clause(vec![Lit::pos(v[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        // The retained lemma ¬a ∨ b forces b once a holds.
        assert!(s.model_value(v[1]));
    }

    #[test]
    fn unit_lemma_survives_pop() {
        let mut s = CdclSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(vec![Lit::pos(v[0]), Lit::pos(v[1])]);
        s.push_scope();
        s.add_lemma(vec![Lit::neg(v[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(v[1]));
        s.pop_scope();
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(!s.model_value(v[0]), "unit lemma lost across pop");
    }

    #[test]
    fn lemma_simplified_under_scoped_unit_replays_unsimplified() {
        // Inside the scope, unit ¬a lets add_lemma strip `a` from the
        // stored clause (a ∨ b → b). After pop the lemma must act as the
        // original a ∨ b: with ¬b asserted, a must still be available.
        let mut s = CdclSolver::new();
        let v = lits(&mut s, 2);
        s.push_scope();
        s.add_clause(vec![Lit::neg(v[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.reset_to_root();
        s.add_lemma(vec![Lit::pos(v[0]), Lit::pos(v[1])]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(v[1]));
        s.pop_scope();
        s.add_clause(vec![Lit::neg(v[1])]);
        assert_eq!(
            s.solve(),
            SatResult::Sat,
            "a truncated lemma would make this unsat"
        );
        assert!(s.model_value(v[0]));
    }

    #[test]
    fn nested_scopes_with_search_between() {
        let mut s = CdclSolver::new();
        let v = lits(&mut s, 3);
        s.add_clause(vec![Lit::pos(v[0]), Lit::pos(v[1]), Lit::pos(v[2])]);
        s.push_scope();
        s.add_clause(vec![Lit::neg(v[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.push_scope();
        s.add_clause(vec![Lit::neg(v[1])]);
        s.add_clause(vec![Lit::neg(v[2])]);
        assert_eq!(s.solve(), SatResult::Unsat);
        s.pop_scope();
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(v[1]) || s.model_value(v[2]));
        s.pop_scope();
        s.add_clause(vec![Lit::neg(v[1]), Lit::neg(v[2])]);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn scoped_unsat_flag_restores() {
        let mut s = CdclSolver::new();
        let v = lits(&mut s, 1);
        s.push_scope();
        s.add_clause(vec![Lit::pos(v[0])]);
        s.add_clause(vec![Lit::neg(v[0])]);
        assert_eq!(s.solve(), SatResult::Unsat);
        s.pop_scope();
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn new_vars_inside_scope_stay_usable_after_pop() {
        let mut s = CdclSolver::new();
        let a = s.new_var();
        s.push_scope();
        let b = s.new_var();
        s.add_clause(vec![Lit::pos(b)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(b));
        s.pop_scope();
        // b still exists as a free variable.
        s.add_clause(vec![Lit::neg(b), Lit::pos(a)]);
        s.add_clause(vec![Lit::pos(b)]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(a));
    }

    #[test]
    fn root_trail_holds_level_zero_literals_in_order() {
        // b is a unit, a follows from it; c is free and must be decided,
        // so it is not on the root trail.
        let mut s = CdclSolver::new();
        let v = lits(&mut s, 3);
        s.add_clause(vec![Lit::pos(v[1])]);
        s.add_clause(vec![Lit::neg(v[1]), Lit::neg(v[0])]);
        s.add_clause(vec![Lit::pos(v[2]), Lit::neg(v[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.root_trail(), &[Lit::pos(v[1]), Lit::neg(v[0])]);
        s.reset_to_root();
        s.add_clause(vec![Lit::pos(v[2])]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(
            s.root_trail(),
            &[Lit::pos(v[1]), Lit::neg(v[0]), Lit::pos(v[2])]
        );
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = CdclSolver::new();
        let v = lits(&mut s, 2);
        s.add_clause(vec![Lit::pos(v[0]), Lit::pos(v[0])]);
        s.add_clause(vec![Lit::pos(v[1]), Lit::neg(v[1])]); // tautology: ignored
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.model_value(v[0]));
    }
}
