//! Theory combination: EUF + linear integer arithmetic (+ ground arrays
//! and canonicalized sets riding on EUF).
//!
//! A propositional model is checked by asserting each theory atom to the
//! congruence closure and/or the simplex and propagating equalities
//! between the two in a Nelson–Oppen style loop, the *closure*:
//!
//! * EUF-derived equalities over shared integer terms become simplex
//!   rows — a spanning set of each class, since equality is transitive;
//! * simplex-implied equalities (pairs that can be separated in neither
//!   direction) are pushed back into EUF.
//!
//! Each round checks the rational relaxation and EUF, and sends EUF's
//! equalities over, before it branches on integers and probes for the
//! equalities the integer solution suggests.
//!
//! The DPLL(T) loop keeps one [`TheoryContext`] for the lifetime of its
//! session (one query, or every check of a batch or scope stack), and
//! its engines are never rebuilt. Its stack of *frames* mirrors the SAT core's root trail: the
//! literals fixed at decision level 0, which every model of a query
//! shares, and the scoped checks of a session share their prefix. A
//! frame asserts a segment of root literals once, under its own engine
//! scope, and keeps the verdict of their closure (closing them when a
//! second model reuses the frame; the first model's closure covers
//! them). A model is checked by matching the frames against its root
//! trail by (atom, polarity) in trail order — popping back to the common
//! prefix and pushing one frame for the rest — and then asserting the
//! model's other literals under one more scope, popped afterwards.
//! Simplex variables and rows are
//! definitions, not assertions, so they outlive scopes and are cached:
//! one variable per term and one slack row per linear form for the
//! context's life, and one difference row per pair of variables (for an
//! equality sent over, or a separation probe run on the live tableau
//! under a scope) until the scope that made it is popped.
//!
//! On conflict, the engines *explain* it: every fact carries the literals
//! it rests on — each asserted literal itself, an EUF→simplex equality
//! its proof-forest path, a simplex→EUF equality the Farkas rows of both
//! separation probes — and the conflicting engine's explanation, mapped
//! back to literals, is the core. No context verdict blocks a model on
//! its own say: an Unsat explanation becomes the core once one closure
//! on fresh engines confirms it, as DPLL(T) solvers block a model with
//! the theory explanation itself. An explanation that fails
//! confirmation sends the model to fresh engines ([`check_assignment`]),
//! so a wrong frame costs time, never soundness. So do a context verdict
//! of Unknown and an integer conflict that branch-and-bound found: that
//! explanation records one search, and the same search from a cold
//! tableau may branch differently and run out of nodes, so it is not
//! something a fresh check can reliably confirm. Every core is thus a
//! literal set that one closure on fresh engines refuted on its own,
//! with or without `--certify`: that confirmation is a Valid answer's
//! certificate (`certify.rs`).

use crate::cnf::{Atom, AtomId, Atoms};
use crate::euf::{Euf, EufResult};
use crate::simplex::{LpResult, Simplex};
use crate::term::{LinExpr, Term, TermArena, TermId};
use crate::Rat;
use dsolve_logic::{deadline_expired, Budget, Resource, Sort};
use dsolve_obs::{micro, MicroCounter, TheoryKind};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Resource limits for one theory check (per propositional model).
#[derive(Clone, Copy, Debug)]
pub struct TheoryBudget {
    /// Branch-and-bound node cap for each integer feasibility check.
    pub bb_nodes: u64,
    /// Absolute wall-clock deadline, if any.
    pub deadline: Option<Instant>,
}

impl Default for TheoryBudget {
    fn default() -> TheoryBudget {
        TheoryBudget {
            bb_nodes: Budget::default().max_bb_nodes,
            deadline: None,
        }
    }
}

/// Outcome of a theory check over a full assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryResult {
    /// The assignment is theory-consistent.
    Sat,
    /// Conflict; the payload lists literals of the assignment that
    /// together are inconsistent, in atom order (a confirmed
    /// explanation, or the whole assignment when none was confirmed).
    Unsat(Vec<(AtomId, bool)>),
    /// The check's budget ran out before consistency was decided; the
    /// payload names the exhausted resource.
    Unknown(Resource),
}

/// Verdict of one closure.
#[derive(Clone, Debug)]
enum Consistency {
    Sat,
    /// Inconsistent; the payload is the explanation, literals in atom
    /// order.
    Unsat(Vec<(AtomId, bool)>),
    /// Inconsistent over the integers only, refuted by branch-and-bound
    /// (see [`Simplex::conflict_searched`]), with its explanation. Fresh
    /// engines take it as `Unsat`; the context re-decides such a model on
    /// fresh engines rather than confirm one search by another.
    Searched(Vec<(AtomId, bool)>),
    Unknown(Resource),
}

/// Checks a full atom assignment for theory consistency on fresh
/// engines.
pub fn check_assignment(
    atoms: &Atoms,
    assignment: &[(AtomId, bool)],
    budget: &TheoryBudget,
) -> TheoryResult {
    micro::add(MicroCounter::TheoryAssignments, 1);
    Fresh {
        atoms,
        assignment,
        budget,
    }
    .decide()
}

/// Closures on fresh engines over subsets of one model: the model's own
/// check and confirmation. A core is a literal set one of these closures
/// refuted on its own, which makes it the certificate of a Valid answer
/// (see `certify.rs`).
struct Fresh<'a> {
    atoms: &'a Atoms,
    assignment: &'a [(AtomId, bool)],
    budget: &'a TheoryBudget,
}

impl Fresh<'_> {
    /// Decides the whole model. The core is the closure's explanation
    /// once a second closure confirms it, and the whole model otherwise.
    fn decide(&self) -> TheoryResult {
        let explanation = match self.closure(self.assignment) {
            Consistency::Sat => return TheoryResult::Sat,
            // The full check could not be decided: neither verdict is safe.
            Consistency::Unknown(r) => return TheoryResult::Unknown(r),
            Consistency::Unsat(explanation) | Consistency::Searched(explanation) => explanation,
        };
        if self.is_unsat(&explanation) {
            return TheoryResult::Unsat(explanation);
        }
        micro::add(MicroCounter::TheoryCoreFallbacks, 1);
        let mut all = self.assignment.to_vec();
        all.sort_unstable();
        TheoryResult::Unsat(all)
    }

    /// The closure of `lits` on fresh engines.
    fn closure(&self, lits: &[(AtomId, bool)]) -> Consistency {
        Engines::default().assert_and_close(self.atoms, lits.iter().copied(), self.budget)
    }

    /// Whether `lits` are inconsistent.
    fn is_unsat(&self, lits: &[(AtomId, bool)]) -> bool {
        matches!(
            self.closure(lits),
            Consistency::Unsat(_) | Consistency::Searched(_)
        )
    }

    /// Turns a context explanation into a core, but only once fresh
    /// engines confirm it is inconsistent; otherwise the model is
    /// re-decided on fresh engines, and the explanation is never the
    /// core.
    fn confirm(&self, explanation: Vec<(AtomId, bool)>) -> TheoryResult {
        if self.is_unsat(&explanation) {
            return TheoryResult::Unsat(explanation);
        }
        micro::add(MicroCounter::TheoryCoreFallbacks, 1);
        self.decide()
    }
}

/// Persistent theory state for one DPLL(T) loop: warm engines under a
/// stack of root frames (see the module docs).
#[derive(Default)]
pub struct TheoryContext {
    engines: Engines,
    frames: Vec<Frame>,
}

/// A segment of root literals asserted under one engine scope, with the
/// verdict of closing it together with every frame below — `None` until
/// a second model reuses the frame: the first model's own closure covers
/// the frame's literals too, so a frame only one model sees is never
/// closed on its own.
struct Frame {
    lits: Vec<(AtomId, bool)>,
    verdict: Option<Consistency>,
}

impl TheoryContext {
    /// An empty context.
    pub fn new() -> TheoryContext {
        TheoryContext::default()
    }

    /// Checks one propositional model over `atoms`, like
    /// [`check_assignment`]. `root` lists the model's root literals —
    /// those the SAT core fixed at decision level 0 — in trail order;
    /// each also appears in `assignment`.
    pub fn check(
        &mut self,
        atoms: &Atoms,
        assignment: &[(AtomId, bool)],
        root: &[(AtomId, bool)],
        budget: &TheoryBudget,
    ) -> TheoryResult {
        micro::add(MicroCounter::TheoryAssignments, 1);
        let covered = self.sync_frames(atoms, root, budget);
        let top = self
            .frames
            .last()
            .map_or(Some(Consistency::Sat), |f| f.verdict.clone());
        let verdict = match top {
            Some(Consistency::Sat) | None => {
                let mut in_frames = vec![false; atoms.len()];
                for &(aid, _) in &root[..covered] {
                    in_frames[aid.index()] = true;
                }
                let rest: Vec<(AtomId, bool)> = assignment
                    .iter()
                    .copied()
                    .filter(|(aid, _)| !in_frames[aid.index()])
                    .collect();
                if rest.is_empty() {
                    // The frames are the whole model.
                    if top.is_some() {
                        return TheoryResult::Sat;
                    }
                    self.close_top(atoms, budget)
                } else {
                    self.engines.push();
                    let verdict = self.engines.assert_and_close(atoms, rest, budget);
                    self.engines.pop();
                    verdict
                }
            }
            Some(verdict) => verdict,
        };
        let fresh = Fresh {
            atoms,
            assignment,
            budget,
        };
        match verdict {
            Consistency::Sat => TheoryResult::Sat,
            Consistency::Unsat(explanation) => fresh.confirm(explanation),
            Consistency::Searched(_) | Consistency::Unknown(_) => fresh.decide(),
        }
    }

    /// Pops the frames that no longer match `root`, closes the top frame
    /// if this model reuses it, and, unless that frame is inconsistent or
    /// undecided, pushes one frame for the rest of `root`. Returns how
    /// many root literals the frames cover.
    fn sync_frames(
        &mut self,
        atoms: &Atoms,
        root: &[(AtomId, bool)],
        budget: &TheoryBudget,
    ) -> usize {
        let mut covered = 0;
        let mut keep = 0;
        for f in &self.frames {
            if !root[covered..].starts_with(&f.lits) {
                break;
            }
            covered += f.lits.len();
            keep += 1;
        }
        while self.frames.len() > keep {
            self.frames.pop();
            self.engines.pop();
        }
        if self.frames.last().is_some_and(|f| f.verdict.is_none()) {
            self.close_top(atoms, budget);
        }
        let open = self
            .frames
            .last()
            .is_none_or(|f| matches!(f.verdict, Some(Consistency::Sat)));
        if open && covered < root.len() {
            micro::add(MicroCounter::TheoryFrames, 1);
            let lits = root[covered..].to_vec();
            self.engines.push();
            let verdict = self
                .engines
                .assert_lits(atoms, lits.iter().copied())
                .err()
                .map(|explanation| {
                    micro::add(MicroCounter::TheoryChecks, 1);
                    Consistency::Unsat(explanation)
                });
            covered = root.len();
            self.frames.push(Frame { lits, verdict });
        }
        covered
    }

    /// Closes the top frame, records its verdict and returns it.
    fn close_top(&mut self, atoms: &Atoms, budget: &TheoryBudget) -> Consistency {
        micro::add(MicroCounter::TheoryChecks, 1);
        let verdict = self.engines.close(atoms, budget);
        self.frames.last_mut().expect("a frame to close").verdict = Some(verdict.clone());
        verdict
    }
}

/// EUF + simplex + the Nelson–Oppen bookkeeping between them, all under
/// one scope stack.
#[derive(Default)]
struct Engines {
    euf: Euf,
    simplex: Simplex,
    /// The simplex variable of each term that has one.
    var_of: HashMap<TermId, usize>,
    /// The slack of each row, by its combination of variables (sorted by
    /// variable): one per linear form, one per difference `va − vb`.
    rows: HashMap<Vec<(usize, Rat)>, usize>,
    /// The difference rows' keys in creation order, to remove them with
    /// their scope.
    row_log: Vec<Vec<(usize, Rat)>>,
    /// Asserted literals, in order; reasons rest on positions here.
    lits: Vec<(AtomId, bool)>,
    /// The literal positions each engine reason tag rests on.
    reasons: Vec<Vec<usize>>,
    /// Both sides of every asserted disequality.
    diseq_terms: Vec<TermId>,
    /// EUF equalities asserted to the simplex, and the order they were
    /// sent in (to undo them).
    sent: HashSet<(TermId, TermId)>,
    sent_log: Vec<(TermId, TermId)>,
    /// Per open scope: the lengths of `lits`, `reasons`, `diseq_terms`,
    /// `sent_log` and `row_log` at push time.
    scopes: Vec<[usize; 5]>,
}

impl Engines {
    fn push(&mut self) {
        self.euf.push();
        self.simplex.push();
        self.scopes.push([
            self.lits.len(),
            self.reasons.len(),
            self.diseq_terms.len(),
            self.sent_log.len(),
            self.row_log.len(),
        ]);
    }

    fn pop(&mut self) {
        let [lits, reasons, diseqs, sent, rows] =
            self.scopes.pop().expect("pop without matching push");
        self.euf.pop();
        self.simplex.pop();
        self.lits.truncate(lits);
        self.reasons.truncate(reasons);
        self.diseq_terms.truncate(diseqs);
        for key in self.sent_log.drain(sent..) {
            self.sent.remove(&key);
        }
        // Difference rows made in the scope carry no bound once it is
        // popped. There is one per pair probed or equated, so keeping them
        // would make every later check pay for a number of rows that grows
        // with the square of the terms; linear forms are few and recur.
        let made: Vec<Vec<(usize, Rat)>> = self.row_log.drain(rows..).collect();
        for key in made.into_iter().rev() {
            let slack = self.rows.remove(&key).expect("logged row");
            self.simplex.remove_row(slack);
        }
    }

    /// A new reason tag resting on the literal positions `lits`.
    fn add_reason(&mut self, lits: Vec<usize>) -> u32 {
        let r = u32::try_from(self.reasons.len()).expect("reason overflow");
        self.reasons.push(lits);
        r
    }

    /// The literal positions behind a set of reason tags, sorted and
    /// unique.
    fn expand(&self, reasons: &[u32]) -> Vec<usize> {
        let mut out: Vec<usize> = reasons
            .iter()
            .flat_map(|&r| self.reasons[r as usize].iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The literals behind a set of reason tags, in atom order: an
    /// explanation.
    fn explain(&self, reasons: &[u32]) -> Vec<(AtomId, bool)> {
        let mut out: Vec<(AtomId, bool)> = self
            .expand(reasons)
            .into_iter()
            .map(|p| self.lits[p])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The simplex variable of `t`, created on first use (a fixed one for
    /// an integer constant). `t` is registered with EUF on every call, so
    /// that shared terms take part in congruence in the current scope.
    fn var(&mut self, arena: &TermArena, t: TermId) -> usize {
        self.euf.add_term(arena, t);
        if let Some(&v) = self.var_of.get(&t) {
            return v;
        }
        let v = match arena.term(t) {
            Term::Int(k) => self.simplex.new_const(Rat::from_int(*k)),
            _ => self.simplex.new_var(*arena.sort(t) == Sort::Int),
        };
        self.var_of.insert(t, v);
        v
    }

    /// The slack of the row `Σ c·v` over `combo`, made on first use; a
    /// `scoped` row is removed when the scope that made it is popped.
    fn row(&mut self, mut combo: Vec<(usize, Rat)>, scoped: bool) -> usize {
        combo.sort_unstable_by_key(|&(v, _)| v);
        if let Some(&slack) = self.rows.get(&combo) {
            return slack;
        }
        let slack = self.simplex.add_row(&combo);
        if scoped {
            self.row_log.push(combo.clone());
        }
        self.rows.insert(combo, slack);
        slack
    }

    /// The slack row of `lin`'s non-constant part.
    fn form_row(&mut self, arena: &TermArena, lin: &LinExpr) -> usize {
        let combo = lin
            .terms
            .iter()
            .map(|(&t, &c)| (self.var(arena, t), c))
            .collect();
        self.row(combo, false)
    }

    /// The row `va − vb` for `va < vb` (callers bound it symmetrically).
    fn diff_row(&mut self, va: usize, vb: usize) -> usize {
        let (lo, hi) = (va.min(vb), va.max(vb));
        self.row(vec![(lo, Rat::ONE), (hi, Rat::from_int(-1))], true)
    }

    /// Asserts `lo ≤ lin ≤ hi` for reason `why`; on an immediate
    /// conflict, the reasons behind it.
    fn assert_lin(
        &mut self,
        arena: &TermArena,
        lin: &LinExpr,
        lo: Option<Rat>,
        hi: Option<Rat>,
        why: u32,
    ) -> Result<(), Vec<u32>> {
        if let Some(c) = lin.as_constant() {
            return if lo.is_none_or(|l| l <= c) && hi.is_none_or(|h| c <= h) {
                Ok(())
            } else {
                Err(vec![why])
            };
        }
        let row = self.form_row(arena, lin);
        let c = lin.constant;
        if hi.is_none_or(|h| self.simplex.assert_upper(row, h - c, Some(why)))
            && lo.is_none_or(|l| self.simplex.assert_lower(row, l - c, Some(why)))
        {
            Ok(())
        } else {
            Err(self.simplex.conflict().to_vec())
        }
    }

    /// Asserts one literal, its reason resting on the literal alone; on an
    /// immediate conflict — a constant literal false on its own, or a
    /// bound clashing with an earlier one — returns the explanation.
    fn assert_lit(
        &mut self,
        atoms: &Atoms,
        (aid, val): (AtomId, bool),
    ) -> Result<(), Vec<(AtomId, bool)>> {
        let arena = &atoms.arena;
        let pos = self.lits.len();
        self.lits.push((aid, val));
        let why = self.add_reason(vec![pos]);
        let clash = match atoms.atom(aid) {
            Atom::Eq { a, b, lin } => {
                if val {
                    self.euf.assert_eq(arena, *a, *b, why);
                    match lin {
                        Some(lin) => {
                            self.assert_lin(arena, lin, Some(Rat::ZERO), Some(Rat::ZERO), why)
                        }
                        None => Ok(()),
                    }
                } else {
                    self.euf.assert_ne(arena, *a, *b, why);
                    self.diseq_terms.extend([*a, *b]);
                    Ok(())
                }
            }
            // lin ≤ 0, or over the integers ¬(lin ≤ 0) ⟺ lin ≥ 1, on the
            // same row.
            Atom::IntLe(lin) if val => self.assert_lin(arena, lin, None, Some(Rat::ZERO), why),
            Atom::IntLe(lin) => self.assert_lin(arena, lin, Some(Rat::ONE), None, why),
            Atom::BoolTerm(t) => {
                self.euf.assert_eq(arena, *t, atoms.bool_const(val), why);
                Ok(())
            }
        };
        clash.map_err(|reasons| self.explain(&reasons))
    }

    /// Asserts `lits`, stopping at the first immediate conflict.
    fn assert_lits(
        &mut self,
        atoms: &Atoms,
        lits: impl IntoIterator<Item = (AtomId, bool)>,
    ) -> Result<(), Vec<(AtomId, bool)>> {
        lits.into_iter()
            .try_for_each(|lit| self.assert_lit(atoms, lit))
    }

    /// Asserts `lits` and closes: one Nelson–Oppen closure.
    fn assert_and_close(
        &mut self,
        atoms: &Atoms,
        lits: impl IntoIterator<Item = (AtomId, bool)>,
        budget: &TheoryBudget,
    ) -> Consistency {
        micro::add(MicroCounter::TheoryChecks, 1);
        match self.assert_lits(atoms, lits) {
            Ok(()) => self.close(atoms, budget),
            Err(explanation) => Consistency::Unsat(explanation),
        }
    }

    /// The Nelson–Oppen loop over everything asserted in the open scopes.
    fn close(&mut self, atoms: &Atoms, budget: &TheoryBudget) -> Consistency {
        let arena = &atoms.arena;
        // The terms EUF holds are those of the asserted literals and their
        // subterms. Integer constants among them get (fixed) simplex
        // variables, so that implied equalities with literals are
        // discoverable (x ≤ 0 ∧ x ≥ 0 ⟹ x = 0 reaching EUF). Simplex →
        // EUF candidates are the terms EUF could *use*: arguments of
        // applications, constants, and disequality sides.
        let terms = self.euf.terms().to_vec();
        let mut interesting: HashSet<TermId> = self.diseq_terms.iter().copied().collect();
        for &t in &terms {
            match arena.term(t) {
                Term::App(_, args) => interesting.extend(args.iter().copied()),
                Term::Int(_) => {
                    self.var(arena, t);
                    interesting.insert(t);
                }
                Term::Var(..) | Term::Bool(_) => {}
            }
        }
        // Shared terms, in simplex-variable order.
        let mut shared: Vec<TermId> = terms
            .into_iter()
            .filter(|t| self.var_of.contains_key(t))
            .collect();
        shared.sort_unstable_by_key(|t| self.var_of[t]);
        let ints: Vec<usize> = shared
            .iter()
            .filter(|&&t| *arena.sort(t) == Sort::Int)
            .map(|t| self.var_of[t])
            .collect();
        let candidates: Vec<TermId> = shared
            .iter()
            .copied()
            .filter(|t| interesting.contains(t))
            .collect();

        // Arithmetic is checked first in every round, so that when a
        // pure-arithmetic conflict exists it is the one that gets
        // explained: its core blocks a whole region of models rather than
        // one combination of EUF facts. Each round runs the rational
        // simplex and EUF, and sends EUF's equalities over, before it
        // branches on integers: an equality can make the relaxation
        // infeasible outright, and a confirmation over a subset of the
        // literals must not meet the branching first (without the bounds
        // of the whole model, the search may not finish).
        loop {
            if micro::time(TheoryKind::Simplex, || self.simplex.check()) == LpResult::Unsat {
                return Consistency::Unsat(self.explain(self.simplex.conflict()));
            }
            if micro::time(TheoryKind::Euf, || self.euf.check()) == EufResult::Unsat {
                return Consistency::Unsat(self.explain(self.euf.conflict()));
            }
            // EUF → simplex, each equality resting on its proof-forest
            // path.
            let mut changed = false;
            for (a, b) in self.euf.spanning_equalities(&shared) {
                let key = if a <= b { (a, b) } else { (b, a) };
                if !self.sent.insert(key) {
                    continue;
                }
                self.sent_log.push(key);
                let why = self.add_reason(self.expand(&self.euf.explain(a, b)));
                let row = self.diff_row(self.var_of[&a], self.var_of[&b]);
                if !(self.simplex.assert_lower(row, Rat::ZERO, Some(why))
                    && self.simplex.assert_upper(row, Rat::ZERO, Some(why)))
                {
                    return Consistency::Unsat(self.explain(self.simplex.conflict()));
                }
                changed = true;
            }
            if changed {
                continue;
            }
            match micro::time(TheoryKind::Simplex, || {
                self.simplex
                    .check_int_among(&ints, budget.bb_nodes, budget.deadline)
            }) {
                LpResult::Sat => {}
                LpResult::Unsat => {
                    let explanation = self.explain(self.simplex.conflict());
                    return if self.simplex.conflict_searched() {
                        Consistency::Searched(explanation)
                    } else {
                        Consistency::Unsat(explanation)
                    };
                }
                LpResult::Unknown => {
                    return Consistency::Unknown(if deadline_expired(budget.deadline) {
                        Resource::Deadline
                    } else {
                        Resource::BranchBoundNodes
                    })
                }
            }
            // Simplex → EUF. The probes are simplex work, so they are
            // timed as such.
            let new_eq = micro::time(TheoryKind::Simplex, || {
                self.propagate_forced(arena, &candidates)
            });
            if !new_eq {
                return Consistency::Sat;
            }
        }
    }

    /// Asserts to EUF every equality the simplex forces among
    /// `candidates` that EUF lacks, each resting on the explanations of
    /// both failed separations; returns whether there was one.
    fn propagate_forced(&mut self, arena: &TermArena, candidates: &[TermId]) -> bool {
        // Only pairs equal in the current (integer) solution can be
        // forced. The probes move the solution, so it is read up front.
        let vals: Vec<Rat> = candidates
            .iter()
            .map(|t| self.simplex.value(self.var_of[t]))
            .collect();
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        order.sort_by_key(|&i| vals[i]);
        let mut new_eq = false;
        for group in order.chunk_by(|&i, &j| vals[i] == vals[j]) {
            for (k, &i) in group.iter().enumerate() {
                for &j in &group[k + 1..] {
                    let (a, b) = (candidates[i], candidates[j]);
                    if self.euf.same_class(a, b) {
                        continue;
                    }
                    if let Some(forced) = self.forced_equal(self.var_of[&a], self.var_of[&b]) {
                        let why = self.add_reason(self.expand(&forced));
                        self.euf.assert_eq(arena, a, b, why);
                        new_eq = true;
                    }
                }
            }
        }
        new_eq
    }

    /// The reasons that force `va = vb`, or `None` when the two can take
    /// different values. Both strict directions are tested over the
    /// rationals (rational inseparability implies integer equality), each
    /// as a bound on the pair's difference row under a scope on the live
    /// tableau.
    fn forced_equal(&mut self, va: usize, vb: usize) -> Option<Vec<u32>> {
        micro::add(MicroCounter::TheoryProbes, 1);
        let row = self.diff_row(va, vb);
        let mut forced = Vec::new();
        for below in [true, false] {
            // |va − vb| ≥ 1 (integer separation; all our terms are
            // integers). The probe bound carries no reason, so a
            // refutation names only the facts that force equality.
            self.simplex.push();
            let bounded = if below {
                self.simplex.assert_upper(row, Rat::from_int(-1), None)
            } else {
                self.simplex.assert_lower(row, Rat::ONE, None)
            };
            let separable = bounded && self.simplex.check() == LpResult::Sat;
            if !separable {
                forced.extend_from_slice(self.simplex.conflict());
            }
            self.simplex.pop();
            if separable {
                return None;
            }
        }
        Some(forced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsolve_logic::{parse_pred, Pred, SortEnv, Symbol};

    fn lits_of(preds: &[&str], env: &SortEnv) -> (Atoms, Vec<(AtomId, bool)>) {
        let mut atoms = Atoms::new();
        let mut out = Vec::new();
        for s in preds {
            let p = parse_pred(s).unwrap();
            match p {
                Pred::Atom(rel, a, b) => {
                    let (id, pos) = atoms.atom_of_rel(rel, &a, &b, env);
                    out.push((id, pos));
                }
                Pred::Not(inner) => {
                    let Pred::Atom(rel, a, b) = *inner else {
                        panic!()
                    };
                    let (id, pos) = atoms.atom_of_rel(rel, &a, &b, env);
                    out.push((id, !pos));
                }
                Pred::Term(e) => {
                    let id = atoms.atom_of_term(&e, env);
                    out.push((id, true));
                }
                _ => panic!("test literals must be atoms"),
            }
        }
        (atoms, out)
    }

    fn env() -> SortEnv {
        let mut env = SortEnv::new();
        for v in ["x", "y", "z", "w"] {
            env.bind(Symbol::new(v), Sort::Int);
        }
        env.bind(Symbol::new("p"), Sort::Obj(Symbol::new("t")));
        env.bind(Symbol::new("q"), Sort::Obj(Symbol::new("t")));
        env.declare_func(
            Symbol::new("f"),
            dsolve_logic::FuncSort::new(vec![Sort::Int], Sort::Int),
        );
        env
    }

    #[test]
    fn arithmetic_conflict() {
        let env = env();
        let (atoms, lits) = lits_of(&["x < y", "y < x"], &env);
        assert!(matches!(
            check_assignment(&atoms, &lits, &TheoryBudget::default()),
            TheoryResult::Unsat(_)
        ));
    }

    #[test]
    fn arithmetic_sat() {
        let env = env();
        let (atoms, lits) = lits_of(&["x < y", "y < z"], &env);
        assert_eq!(
            check_assignment(&atoms, &lits, &TheoryBudget::default()),
            TheoryResult::Sat
        );
    }

    #[test]
    fn euf_congruence_conflict() {
        let env = env();
        let (atoms, lits) = lits_of(&["x = y", "f(x) != f(y)"], &env);
        assert!(matches!(
            check_assignment(&atoms, &lits, &TheoryBudget::default()),
            TheoryResult::Unsat(_)
        ));
    }

    #[test]
    fn cross_theory_equality_propagation() {
        // x <= y, y <= x (arith) forces x = y, so f(x) != f(y) conflicts.
        let env = env();
        let (atoms, lits) = lits_of(&["x <= y", "y <= x", "f(x) != f(y)"], &env);
        assert!(matches!(
            check_assignment(&atoms, &lits, &TheoryBudget::default()),
            TheoryResult::Unsat(_)
        ));
    }

    #[test]
    fn constant_equality_propagation() {
        // x <= 0 and x >= 0 implies x = 0.
        let env = env();
        let (atoms, lits) = lits_of(&["x <= 0", "0 <= x", "x != 0"], &env);
        assert!(matches!(
            check_assignment(&atoms, &lits, &TheoryBudget::default()),
            TheoryResult::Unsat(_)
        ));
    }

    #[test]
    fn equality_feeds_arithmetic() {
        // x = y (EUF+lin), y < x is a conflict through the linear form.
        let env = env();
        let (atoms, lits) = lits_of(&["x = y", "y < x"], &env);
        assert!(matches!(
            check_assignment(&atoms, &lits, &TheoryBudget::default()),
            TheoryResult::Unsat(_)
        ));
    }

    #[test]
    fn explained_core_is_small() {
        let env = env();
        let (atoms, lits) = lits_of(&["x < y", "z < w", "y < x"], &env);
        let TheoryResult::Unsat(core) = check_assignment(&atoms, &lits, &TheoryBudget::default())
        else {
            panic!("expected conflict");
        };
        // The z < w literal is irrelevant.
        assert_eq!(core, vec![lits[0], lits[2]]);
    }

    #[test]
    fn unconfirmed_explanation_is_never_the_core() {
        // x < y ∧ z < w is a satisfiable subset of an inconsistent model,
        // as a wrong context explanation would be: confirmation rejects
        // it, and the model's own closure on fresh engines gives the core.
        let env = env();
        let (atoms, lits) = lits_of(&["x < y", "z < w", "y < x"], &env);
        let budget = TheoryBudget::default();
        let fresh = Fresh {
            atoms: &atoms,
            assignment: &lits,
            budget: &budget,
        };
        micro::drain();
        let subset = vec![lits[0], lits[1]];
        let TheoryResult::Unsat(core) = fresh.confirm(subset.clone()) else {
            panic!("the model is inconsistent");
        };
        assert_ne!(core, subset);
        assert_eq!(core, vec![lits[0], lits[2]]);
        let counts = micro::drain().micro;
        assert_eq!(counts[MicroCounter::TheoryCoreFallbacks.index()], 1);
        assert!(fresh.is_unsat(&core), "the core must refute on its own");
    }

    /// The core of an infeasible literal set, as the predicates its
    /// literals came from, asserting that its explanation passed
    /// confirmation. (Each test runs on its own thread, so the
    /// thread-local counters hold this check alone.)
    fn core_of<'a>(preds: &[&'a str]) -> Vec<&'a str> {
        let env = env();
        let (atoms, lits) = lits_of(preds, &env);
        let result = check_assignment(&atoms, &lits, &TheoryBudget::default());
        let counts = micro::drain().micro;
        assert_eq!(
            counts[MicroCounter::TheoryCoreFallbacks.index()],
            0,
            "fallback fired"
        );
        // The model's closure and the one that confirms its explanation.
        assert_eq!(counts[MicroCounter::TheoryChecks.index()], 2);
        let TheoryResult::Unsat(core) = result else {
            panic!("expected a conflict, got {result:?}");
        };
        core.iter()
            .map(|lit| preds[lits.iter().position(|l| l == lit).expect("a model literal")])
            .collect()
    }

    #[test]
    fn core_follows_cross_theory_explanation() {
        // x ≤ y ∧ y ≤ x forces x = y into EUF, where it clashes with
        // f(x) ≠ f(y); z < w is no part of it.
        assert_eq!(
            core_of(&["x <= y", "y <= x", "f(x) != f(y)", "z < w"]),
            ["x <= y", "y <= x", "f(x) != f(y)"]
        );
    }

    #[test]
    fn arithmetic_conflict_is_explained_before_euf() {
        // Both an EUF conflict (p = q, p ≠ q) and a bounds conflict
        // (x < y, y < x) are present; arithmetic is checked first, so
        // the core is the pair of bounds.
        assert_eq!(
            core_of(&["p = q", "p != q", "x < y", "y < x"]),
            ["x < y", "y < x"]
        );
    }

    #[test]
    fn euf_conflict_explained_through_congruence() {
        assert_eq!(
            core_of(&["z < w", "x = y", "f(x) != f(y)"]),
            ["x = y", "f(x) != f(y)"]
        );
    }

    #[test]
    fn constant_clash_explained_through_arithmetic() {
        // x ≤ 0 ∧ 0 ≤ x makes x = 0 (a simplex → EUF equality resting
        // on both bounds), so f(x) ≠ f(0) fails by congruence.
        assert_eq!(
            core_of(&["w < z", "x <= 0", "0 <= x", "f(x) != f(0)"]),
            ["x <= 0", "0 <= x", "f(x) != f(0)"]
        );
    }

    #[test]
    fn exhausted_bb_budget_is_unknown_not_sat() {
        // 2x = 1 (as x + x = 1) forces integer branching; a zero-node
        // budget must answer Unknown, never a silent Sat.
        let env = env();
        let (atoms, lits) = lits_of(&["x + x = 1"], &env);
        let starved = TheoryBudget {
            bb_nodes: 0,
            deadline: None,
        };
        assert_eq!(
            check_assignment(&atoms, &lits, &starved),
            TheoryResult::Unknown(Resource::BranchBoundNodes)
        );
        assert!(matches!(
            check_assignment(&atoms, &lits, &TheoryBudget::default()),
            TheoryResult::Unsat(_)
        ));
    }

    #[test]
    fn opposite_root_polarity_gets_its_own_frame() {
        // Both checks hold atom A (x ≤ 0) first on the root trail, with
        // opposite polarities. Were the frame built for A matched by atom
        // alone, the second model (¬A ∧ ¬B: 0 < x < 1, no integer) would
        // be checked against x ≤ 0 and pass.
        let env = env();
        let (atoms, lits) = lits_of(&["x <= 0", "1 <= x"], &env);
        let (a, b) = (lits[0].0, lits[1].0);
        let budget = TheoryBudget::default();
        let mut ctx = TheoryContext::new();
        micro::drain();
        let first = [(a, true), (b, false)];
        assert_eq!(
            ctx.check(&atoms, &first, &first[..1], &budget),
            TheoryResult::Sat
        );
        let second = [(a, false), (b, false)];
        let TheoryResult::Unsat(core) = ctx.check(&atoms, &second, &second[..1], &budget) else {
            panic!("0 < x < 1 has no integer solution");
        };
        assert_eq!(core, second);
        let counts = micro::drain().micro;
        assert_eq!(counts[MicroCounter::TheoryFrames.index()], 2);
        assert_eq!(counts[MicroCounter::TheoryCoreFallbacks.index()], 0);
        assert_eq!(counts[MicroCounter::TheoryAssignments.index()], 2);
        // Each model's closure, and one confirming the second's
        // explanation.
        assert_eq!(counts[MicroCounter::TheoryChecks.index()], 3);
    }

    #[test]
    fn frames_are_reused_along_a_common_prefix() {
        // Three checks over one root prefix [x < y]: the first builds its
        // frame, the second extends it with y < z, the third pops back to
        // the prefix and extends it with z < x — a conflict only with the
        // second frame's literal, which must be gone.
        let env = env();
        let (atoms, lits) = lits_of(&["x < y", "y < z", "z < x"], &env);
        let budget = TheoryBudget::default();
        let mut ctx = TheoryContext::new();
        micro::drain();
        let base = [lits[0]];
        assert_eq!(ctx.check(&atoms, &base, &base, &budget), TheoryResult::Sat);
        let two = [lits[0], lits[1]];
        assert_eq!(ctx.check(&atoms, &two, &two, &budget), TheoryResult::Sat);
        let other = [lits[0], lits[2]];
        assert_eq!(
            ctx.check(&atoms, &other, &other, &budget),
            TheoryResult::Sat
        );
        let all = [lits[0], lits[1], lits[2]];
        assert!(matches!(
            ctx.check(&atoms, &all, &other, &budget),
            TheoryResult::Unsat(_)
        ));
        let counts = micro::drain().micro;
        // [x<y], [y<z] on top of it, [z<x] on top of it again; the last
        // check reuses both frames of its root and puts y < z in the
        // model's own scope.
        assert_eq!(counts[MicroCounter::TheoryFrames.index()], 3);
        assert_eq!(counts[MicroCounter::TheoryCoreFallbacks.index()], 0);
    }

    #[test]
    fn obj_disequality_sat() {
        let env = env();
        let (atoms, lits) = lits_of(&["p != q"], &env);
        assert_eq!(
            check_assignment(&atoms, &lits, &TheoryBudget::default()),
            TheoryResult::Sat
        );
    }

    #[test]
    fn transitive_obj_equality_conflict() {
        let env = env();
        let (atoms, lits) = lits_of(&["p = q", "p != q"], &env);
        assert!(matches!(
            check_assignment(&atoms, &lits, &TheoryBudget::default()),
            TheoryResult::Unsat(_)
        ));
    }
}
