//! A CDCL SAT solver.
//!
//! Implements the standard loop: unit propagation with two watched
//! literals, first-UIP conflict analysis with clause learning, activity
//! (VSIDS-style) branching, and geometric restarts. The theory layer
//! drives it lazily: each full propositional model is checked against the
//! theories and refuted with a blocking clause when theory-inconsistent.
//!
//! A session's solver keeps every variable of its earlier checks, so no
//! per-operation cost may grow with the variable count. Decisions come
//! from an order heap (MiniSat's, Eén & Sörensson 2003) that always
//! yields what a scan of every variable would: the unassigned variable
//! of greatest activity, the lowest index on ties. Propagation reuses
//! one spare watch buffer, a pop touches only the watch lists of the
//! clauses it drops, and conflict analysis reuses its `seen` marks.

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

/// Activity above which every activity is scaled by `1e-100`.
const ACTIVITY_LIMIT: f64 = 1e100;

/// The decision order: a binary max-heap of variables, greatest activity
/// first and the lower index first on equal activity. Every unassigned
/// variable is in the heap. An assigned one may linger until it reaches
/// the top, where [`CdclSolver::decide`] drops it.
#[derive(Default)]
struct OrderHeap {
    heap: Vec<u32>,
    /// Each variable's position in `heap`, or [`OrderHeap::ABSENT`].
    pos: Vec<u32>,
}

impl OrderHeap {
    const ABSENT: u32 = u32::MAX;

    /// Whether `a` comes before `b`: the scan's choice between the two.
    fn before(activity: &[f64], a: u32, b: u32) -> bool {
        let (x, y) = (activity[a as usize], activity[b as usize]);
        x > y || (x == y && a < b)
    }

    /// Makes room for one more variable, outside the heap.
    fn grow(&mut self) {
        self.pos.push(Self::ABSENT);
    }

    fn insert(&mut self, v: u32, activity: &[f64]) {
        if self.pos[v as usize] == Self::ABSENT {
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1, activity);
        }
    }

    /// Restores the order after `v`'s activity grew.
    fn increased(&mut self, v: u32, activity: &[f64]) {
        let i = self.pos[v as usize];
        if i != Self::ABSENT {
            self.sift_up(i as usize, activity);
        }
    }

    /// Removes and returns the first variable.
    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("nonempty heap");
        self.pos[top as usize] = Self::ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Re-heapifies the whole heap, for when activities changed at once.
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::before(activity, v, self.heap[parent]) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, v);
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::before(activity, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            if !Self::before(activity, self.heap[child], v) {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, v);
    }

    fn place(&mut self, i: usize, v: u32) {
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }
}

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
    /// An empty buffer that [`CdclSolver::propagate`] fills with the
    /// entries a watch list keeps, then swaps in for that list.
    watch_spare: Vec<ClauseRef>,
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
    order: OrderHeap,
    /// Conflict analysis's per-variable marks, all `false` between calls.
    seen: Vec<bool>,
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
            watch_spare: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            act_inc: 1.0,
            order: OrderHeap::default(),
            seen: Vec::new(),
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
        self.seen.push(false);
        self.order.grow();
        self.order.insert(v.0, &self.activity);
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
        self.unassign_trail_to(trail_mark);
        self.prop_head = 0;
        // Drop scoped clauses and their watch-list entries. A clause is
        // watched only through its first two literals, so only those
        // lists can hold it.
        let mut lists: Vec<usize> = self.clauses[clause_mark..]
            .iter()
            .flat_map(|c| [c[0].negate().index(), c[1].negate().index()])
            .collect();
        lists.sort_unstable();
        lists.dedup();
        for w in lists {
            self.watches[w].retain(|&cref| cref < clause_mark);
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
        if lits
            .iter()
            .any(|l| self.value(*l) == Assign::True && self.level[l.var().0 as usize] == 0)
        {
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
                self.assign[v] = if l.sign() {
                    Assign::True
                } else {
                    Assign::False
                };
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
            // Clauses watching ¬l need attention. The entries that stay
            // go to the spare buffer, in visiting order, and it becomes
            // the list: no clause moves its watch onto ¬l, which is false.
            let mut ws = std::mem::take(&mut self.watches[l.index()]);
            let mut keep = std::mem::take(&mut self.watch_spare);
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
            debug_assert!(self.watches[l.index()].is_empty() && ws.is_empty());
            self.watches[l.index()] = keep;
            self.watch_spare = ws;
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    fn bump(&mut self, v: BVar) {
        self.activity[v.0 as usize] += self.act_inc;
        if self.activity[v.0 as usize] > ACTIVITY_LIMIT {
            self.rescale_activity();
        } else {
            self.order.increased(v.0, &self.activity);
        }
    }

    /// Scales every activity and the increment by `1e-100`. Scaling can
    /// round distinct activities to one value, which the tie rule then
    /// orders by index, so the order heap is rebuilt.
    fn rescale_activity(&mut self) {
        for a in &mut self.activity {
            *a *= 1e-100;
        }
        self.act_inc *= 1e-100;
        self.order.rebuild(&self.activity);
    }

    /// First-UIP conflict analysis. Returns (learnt clause, backtrack level).
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut cref = confl;
        let mut trail_idx = self.trail.len();

        loop {
            let start = usize::from(p.is_some());
            // Bumping touches no clause, so the clause is read in place.
            for k in start..self.clauses[cref].len() {
                let q = self.clauses[cref][k];
                let v = q.var();
                if !self.seen[v.0 as usize] && self.level[v.0 as usize] > 0 {
                    self.seen[v.0 as usize] = true;
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
                if self.seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found UIP candidate").var();
            self.seen[pv.0 as usize] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            cref = self.reason[pv.0 as usize].expect("non-decision has a reason");
        }
        // Every current-level mark was cleared on the walk; the learnt
        // literals hold the rest.
        for l in &learnt {
            self.seen[l.var().0 as usize] = false;
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
        if self.decision_level() > level {
            let lim = self.trail_lim[level as usize];
            self.trail_lim.truncate(level as usize);
            self.unassign_trail_to(lim);
        }
        self.prop_head = self.trail.len().min(self.prop_head);
    }

    /// Unassigns the trail entries past `len`, returning their variables
    /// to the order heap.
    fn unassign_trail_to(&mut self, len: usize) {
        while self.trail.len() > len {
            let v = self.trail.pop().expect("nonempty trail").var().0;
            self.assign[v as usize] = Assign::Unassigned;
            self.reason[v as usize] = None;
            self.order.insert(v, &self.activity);
        }
    }

    /// Backtracks to decision level 0 (used by the theory layer before
    /// adding a blocking clause).
    pub fn reset_to_root(&mut self) {
        self.backtrack(0);
        self.prop_head = 0;
    }

    /// The unassigned variable of greatest activity (the lowest index on
    /// ties), as a negative literal. Assigned variables met on top of the
    /// order heap leave it; backtracking puts them back once unassigned.
    fn decide(&mut self) -> Option<Lit> {
        // The trail holds exactly the assigned variables, so a full model
        // shows without a pop: its assigned variables stay in the heap,
        // and the reset after it has nothing to re-insert.
        let best = if self.trail.len() == self.nvars {
            None
        } else {
            loop {
                let v = self
                    .order
                    .pop(&self.activity)
                    .expect("every unassigned variable is in the heap");
                if self.assign[v as usize] == Assign::Unassigned {
                    break Some(BVar(v));
                }
            }
        };
        #[cfg(test)]
        assert_eq!(best, self.scan_decision(), "order heap left the scan");
        // Default phase: negative (tends to keep atoms "false", which
        // suits blocking-clause enumeration over mostly-conjunctive VCs).
        best.map(Lit::neg)
    }

    /// The linear scan the order heap replaced, kept as its test oracle.
    #[cfg(test)]
    fn scan_decision(&self) -> Option<BVar> {
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
        best
    }

    /// Makes the next bump cross [`ACTIVITY_LIMIT`], so that the search
    /// takes the rescale path at its next conflict.
    #[cfg(test)]
    fn force_rescale(&mut self) {
        self.act_inc = ACTIVITY_LIMIT;
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
        micro::add(
            MicroCounter::SatLearnedClauses,
            self.n_learned_clauses - base.3,
        );
        micro::add(
            MicroCounter::SatLearnedLiterals,
            self.n_learned_literals - base.4,
        );
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
    use proptest::prelude::*;

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
            let block: Vec<Lit> = v.iter().map(|&x| Lit::new(x, !s.model_value(x))).collect();
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

    /// One step of a random solver session, as the SMT layer drives it.
    #[derive(Clone, Debug)]
    enum Op {
        Push,
        Pop,
        NewVar,
        Clause(Vec<(u8, bool)>),
        Lemma(Vec<(u8, bool)>),
        Solve,
        /// A lemma refuting the current model (solving first if there
        /// is none) on these variables, like a theory blocking clause.
        Block(Vec<u8>),
        /// Rescale every activity this many times now, and once more at
        /// the next conflict. Repeated scaling rounds small activities
        /// together (to 0 at last), so the tie rule reorders them.
        Rescale(usize),
    }

    /// Op sequences over variable indices below `max_var` (taken modulo
    /// the live variable count); `Rescale` only when `rescale` is set.
    fn arb_ops(max_var: u8, rescale: bool) -> impl Strategy<Value = Vec<Op>> {
        let kinds = if rescale { 12u8 } else { 11 };
        let lits = prop::collection::vec((0..max_var, any::<bool>()), 1..4);
        prop::collection::vec(
            (0..kinds, lits).prop_map(|(k, lits)| match k {
                0 => Op::Push,
                1 => Op::Pop,
                2 => Op::NewVar,
                3..=5 => Op::Clause(lits),
                6 => Op::Lemma(lits),
                7 => Op::Solve,
                8..=10 => Op::Block(lits.into_iter().map(|(v, _)| v).collect()),
                _ => Op::Rescale(lits.len() + 1),
            }),
            1..40,
        )
    }

    /// The clauses and lemmas added in one open scope. A pop drops the
    /// clauses and hands the lemmas to the enclosing scope.
    #[derive(Default)]
    struct Frame {
        clauses: Vec<Vec<Lit>>,
        lemmas: Vec<Vec<Lit>>,
    }

    /// A solver under random ops, with the clauses it must satisfy.
    struct Harness {
        s: CdclSolver,
        vars: Vec<BVar>,
        max_vars: usize,
        frames: Vec<Frame>,
        /// The answer of the last `solve`, while no clause was added since.
        last: Option<SatResult>,
        /// Whether every `solve` is checked against brute force.
        brute_force: bool,
    }

    impl Harness {
        fn new(nvars: usize, max_vars: usize, brute_force: bool) -> Harness {
            let mut s = CdclSolver::new();
            let vars = lits(&mut s, nvars);
            Harness {
                s,
                vars,
                max_vars,
                frames: vec![Frame::default()],
                last: None,
                brute_force,
            }
        }

        fn var(&self, v: u8) -> BVar {
            self.vars[v as usize % self.vars.len()]
        }

        fn add(&mut self, c: Vec<Lit>, lemma: bool) {
            self.s.reset_to_root();
            let frame = self.frames.last_mut().expect("root frame");
            if lemma {
                self.s.add_lemma(c.clone());
                frame.lemmas.push(c);
            } else {
                self.s.add_clause(c.clone());
                frame.clauses.push(c);
            }
            self.last = None;
        }

        fn solve(&mut self) {
            let r = self.s.solve();
            self.last = Some(r);
            if self.brute_force {
                assert_eq!(
                    r == SatResult::Sat,
                    self.brute_force_sat(),
                    "solve gave {r:?}"
                );
                if r == SatResult::Sat {
                    for c in self.live() {
                        let holds = c.iter().any(|&l| self.s.model_value(l.var()) == l.sign());
                        assert!(holds, "model falsifies {c:?}");
                    }
                }
            }
        }

        fn apply(&mut self, op: &Op) {
            match op {
                Op::Push => {
                    self.s.push_scope();
                    self.frames.push(Frame::default());
                    self.last = None;
                }
                Op::Pop if self.frames.len() > 1 => {
                    self.s.pop_scope();
                    let popped = self.frames.pop().expect("open scope");
                    let enclosing = self.frames.last_mut().expect("root frame");
                    enclosing.lemmas.extend(popped.lemmas);
                    self.last = None;
                }
                Op::NewVar if self.vars.len() < self.max_vars => {
                    self.vars.push(self.s.new_var());
                    self.last = None;
                }
                Op::Pop | Op::NewVar => {}
                Op::Clause(lits) | Op::Lemma(lits) => {
                    let c = lits.iter().map(|&(v, sign)| Lit::new(self.var(v), sign));
                    self.add(c.collect(), matches!(op, Op::Lemma(_)));
                }
                Op::Solve => self.solve(),
                Op::Block(vs) => {
                    if self.last.is_none() {
                        self.solve();
                    }
                    if self.last == Some(SatResult::Sat) {
                        let c = vs.iter().map(|&v| {
                            let v = self.var(v);
                            Lit::new(v, !self.s.model_value(v))
                        });
                        self.add(c.collect(), true);
                    }
                }
                Op::Rescale(times) => {
                    for _ in 0..*times {
                        self.s.rescale_activity();
                    }
                    self.s.force_rescale();
                }
            }
        }

        /// Every clause the solver must satisfy now.
        fn live(&self) -> impl Iterator<Item = &Vec<Lit>> {
            self.frames
                .iter()
                .flat_map(|f| f.clauses.iter().chain(&f.lemmas))
        }

        /// Whether some assignment to the variables satisfies `live`.
        fn brute_force_sat(&self) -> bool {
            (0u32..1 << self.vars.len()).any(|bits| {
                self.live()
                    .all(|c| c.iter().any(|l| (bits >> l.var().0 & 1 == 1) == l.sign()))
            })
        }
    }

    #[cfg(feature = "slow-proptest")]
    const CASES: u32 = 2048;
    #[cfg(not(feature = "slow-proptest"))]
    const CASES: u32 = 256;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// Random scope/clause/lemma/solve/block sequences with forced
        /// activity rescales, closed by blocking models until the
        /// clauses run out of them, rescaling between blocks: `decide`
        /// asserts at every decision (under `cfg(test)`) that the order
        /// heap picks the variable a scan of every variable picks.
        #[test]
        fn decide_matches_scan_oracle(nvars in 2usize..10, ops in arb_ops(14, true)) {
            let mut h = Harness::new(nvars, 14, false);
            for op in &ops {
                h.apply(op);
            }
            let every: Vec<u8> = (0..14).collect();
            for round in 0..32 {
                h.apply(&Op::Block(every.clone()));
                if h.last == Some(SatResult::Unsat) {
                    break;
                }
                if round % 4 == 3 {
                    h.apply(&Op::Rescale(round % 3 + 1));
                }
            }
        }

        /// Through scopes, lemmas and blocking clauses, every `solve`
        /// agrees with brute force over at most 8 variables, and a `Sat`
        /// model satisfies every live clause.
        #[test]
        fn solve_matches_brute_force(nvars in 1usize..5, ops in arb_ops(8, false)) {
            let mut h = Harness::new(nvars, 8, true);
            for op in ops.iter().chain([&Op::Solve]) {
                h.apply(op);
            }
        }
    }
}
