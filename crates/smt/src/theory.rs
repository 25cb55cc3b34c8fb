//! Theory combination: EUF + linear integer arithmetic (+ ground arrays
//! and canonicalized sets riding on EUF).
//!
//! A full propositional model is checked by asserting each theory atom to
//! the congruence closure and/or the simplex and propagating equalities
//! between the two in a Nelson–Oppen style loop:
//!
//! * EUF-derived equalities over shared integer terms become simplex rows;
//! * simplex-implied equalities (pairs that can be separated in neither
//!   direction) are pushed back into EUF.
//!
//! Each check builds fresh engines over the subterm closure of the
//! literals it is given, never the whole (session-long) term arena.
//!
//! On conflict, the engines *explain* it: every fact carries the literals
//! it rests on — each asserted literal itself, an EUF→simplex equality
//! its proof-forest path, a simplex→EUF equality the Farkas rows of both
//! separation probes — and the conflicting engine's explanation, mapped
//! back to literals, is the core. The core is confirmed by one plain
//! check and then shrunk by deletion, which at that size costs a handful
//! of checks instead of re-solving the whole model O(core·log n) times.
//! An explanation that fails confirmation falls back to deletion over
//! the whole model, so a wrong explanation costs time, never soundness.

use crate::cnf::{Atom, AtomId, Atoms};
use crate::euf::{Euf, EufResult};
use crate::simplex::{LpResult, Simplex};
use crate::term::{Term, TermArena, TermId};
use crate::Rat;
use dsolve_logic::{deadline_expired, Budget, Resource, Sort};
use dsolve_obs::{micro, theory as theory_timer, MicroCounter, TheoryKind};
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
    /// Conflict; the payload lists indices into the assignment slice that
    /// together are inconsistent (a minimized core).
    Unsat(Vec<usize>),
    /// The check's budget ran out before consistency was decided; the
    /// payload names the exhausted resource.
    Unknown(Resource),
}

/// Internal verdict of one consistency probe.
enum Consistency {
    Sat,
    /// Inconsistent; the payload is the explanation (sorted indices into
    /// the assignment, a subset of the probed ones).
    Unsat(Vec<usize>),
    Unknown(Resource),
}

/// Checks a full atom assignment for theory consistency.
///
/// `minimize` requests a small core; callers skip it when one blocking
/// clause of any size already ends the search (purely conjunctive
/// queries).
pub fn check_assignment(
    atoms: &Atoms,
    assignment: &[(AtomId, bool)],
    minimize: bool,
    budget: &TheoryBudget,
) -> TheoryResult {
    micro::add(MicroCounter::TheoryAssignments, 1);
    let all: Vec<usize> = (0..assignment.len()).collect();
    let explanation = match consistent(atoms, assignment, &all, budget) {
        Consistency::Sat => return TheoryResult::Sat,
        // The full check could not be decided: neither verdict is safe.
        Consistency::Unknown(r) => return TheoryResult::Unknown(r),
        Consistency::Unsat(explanation) => explanation,
    };
    if !minimize {
        return TheoryResult::Unsat(all);
    }
    let core = if matches!(
        consistent(atoms, assignment, &explanation, budget),
        Consistency::Unsat(_)
    ) {
        explanation
    } else {
        micro::add(MicroCounter::TheoryCoreFallbacks, 1);
        all
    };
    TheoryResult::Unsat(shrink(atoms, assignment, core, budget))
}

/// Chunked deletion minimization of an inconsistent `core`: drop halves
/// while the conflict persists, then shrink the chunk size — O(core·log
/// n) checks instead of O(n) for the typical small core. An Unknown
/// trial keeps the chunk (the core stays a superset of a real conflict,
/// which is sound — just less minimal).
fn shrink(
    atoms: &Atoms,
    assignment: &[(AtomId, bool)],
    mut core: Vec<usize>,
    budget: &TheoryBudget,
) -> Vec<usize> {
    let mut chunk = (core.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < core.len() {
            let hi = (i + chunk).min(core.len());
            let mut trial = Vec::with_capacity(core.len());
            trial.extend_from_slice(&core[..i]);
            trial.extend_from_slice(&core[hi..]);
            if matches!(
                consistent(atoms, assignment, &trial, budget),
                Consistency::Unsat(_)
            ) {
                core = trial;
            } else {
                i = hi;
            }
        }
        if chunk == 1 {
            return core;
        }
        chunk /= 2;
    }
}

/// The linear-arithmetic side of one check: the simplex plus the map
/// from shared terms to its variables.
struct Lra<'a> {
    arena: &'a TermArena,
    simplex: Simplex,
    var_of: HashMap<TermId, usize>,
    /// Terms with a simplex variable, in creation order.
    shared: Vec<TermId>,
}

impl Lra<'_> {
    /// The simplex variable of `t`, created on first use (and `t`
    /// registered with EUF, so that shared terms take part in
    /// congruence).
    fn var(&mut self, euf: &mut Euf, t: TermId) -> usize {
        if let Some(&v) = self.var_of.get(&t) {
            return v;
        }
        let is_int = *self.arena.sort(t) == Sort::Int;
        let v = self.simplex.new_var(is_int);
        self.var_of.insert(t, v);
        self.shared.push(t);
        euf.add_term(t);
        v
    }

    /// The slack variable of `lin`'s non-constant part.
    fn row(&mut self, euf: &mut Euf, lin: &crate::LinExpr) -> usize {
        let combo: Vec<(usize, Rat)> = lin
            .terms
            .iter()
            .map(|(t, c)| (self.var(euf, *t), *c))
            .collect();
        self.simplex.add_row(&combo)
    }

    /// Asserts `lin ≤ 0` for reason `why`; `false` on immediate conflict.
    fn assert_le(&mut self, euf: &mut Euf, lin: &crate::LinExpr, why: u32) -> bool {
        if let Some(c) = lin.as_constant() {
            return c <= Rat::ZERO;
        }
        let row = self.row(euf, lin);
        self.simplex.assert_upper(row, -lin.constant, Some(why))
    }

    /// Asserts `lin = 0` for reason `why`; `false` on immediate conflict.
    fn assert_eq(&mut self, euf: &mut Euf, lin: &crate::LinExpr, why: u32) -> bool {
        if let Some(c) = lin.as_constant() {
            return c.is_zero();
        }
        let row = self.row(euf, lin);
        self.simplex.assert_upper(row, -lin.constant, Some(why))
            && self.simplex.assert_lower(row, -lin.constant, Some(why))
    }
}

/// The literals each reason rests on: `lits[r]` lists indices into the
/// assignment. Reasons are the tags handed to the engines.
#[derive(Default)]
struct Reasons {
    lits: Vec<Vec<usize>>,
}

impl Reasons {
    /// A new reason resting on `lits`.
    fn add(&mut self, lits: Vec<usize>) -> u32 {
        let r = u32::try_from(self.lits.len()).expect("reason overflow");
        self.lits.push(lits);
        r
    }

    /// The literals behind a set of engine reasons, sorted and unique.
    fn expand(&self, reasons: &[u32]) -> Vec<usize> {
        let mut out: Vec<usize> = reasons
            .iter()
            .flat_map(|&r| self.lits[r as usize].iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Whether the subset (`indices` into `assignment`) is theory-consistent,
/// with an explanation when it is not.
fn consistent(
    atoms: &Atoms,
    assignment: &[(AtomId, bool)],
    indices: &[usize],
    budget: &TheoryBudget,
) -> Consistency {
    micro::add(MicroCounter::TheoryChecks, 1);
    let mut euf = Euf::new(&atoms.arena);
    let mut lra = Lra {
        arena: &atoms.arena,
        simplex: Simplex::new(),
        var_of: HashMap::new(),
        shared: Vec::new(),
    };
    let mut reasons = Reasons::default();
    let true_id = atoms.bool_const(true);
    let false_id = atoms.bool_const(false);

    // Assert each literal to the relevant solver(s), its reason resting
    // on the literal alone.
    let mut diseq_terms: Vec<TermId> = Vec::new();
    for &ix in indices {
        let (aid, val) = assignment[ix];
        let why = reasons.add(vec![ix]);
        let ok = match atoms.atom(aid) {
            Atom::Eq { a, b, lin } => {
                if val {
                    euf.assert_eq(*a, *b, why);
                    lin.as_ref()
                        .is_none_or(|lin| lra.assert_eq(&mut euf, lin, why))
                } else {
                    euf.assert_ne(*a, *b, why);
                    diseq_terms.push(*a);
                    diseq_terms.push(*b);
                    true
                }
            }
            Atom::IntLe(lin) => {
                if val {
                    lra.assert_le(&mut euf, lin, why)
                } else {
                    // ¬(lin ≤ 0) ⟺ −lin + 1 ≤ 0 over integers.
                    let mut neg = lin.clone().scale(Rat::from_int(-1));
                    neg.constant += Rat::ONE;
                    lra.assert_le(&mut euf, &neg, why)
                }
            }
            Atom::BoolTerm(t) => {
                euf.assert_eq(*t, if val { true_id } else { false_id }, why);
                true
            }
        };
        if !ok {
            // A constant literal false on its own, or a bound clashing
            // with an earlier one (whose explanation already names this
            // literal).
            let mut conflict = lra.simplex.conflict().to_vec();
            conflict.push(why);
            return Consistency::Unsat(reasons.expand(&conflict));
        }
    }

    // Seed the integer constants among the check's terms, so implied
    // equalities with literals are discoverable (e.g. x ≤ 0 ∧ x ≥ 0 ⟹
    // x = 0 reaching EUF). A constant's value needs no reason.
    let terms = euf.terms().to_vec();
    for &t in &terms {
        if let Term::Int(k) = atoms.arena.term(t) {
            let v = lra.var(&mut euf, t);
            let ok = lra.simplex.assert_lower(v, Rat::from_int(*k), None)
                && lra.simplex.assert_upper(v, Rat::from_int(*k), None);
            debug_assert!(ok, "constant bounds are consistent");
        }
    }

    // Simplex → EUF candidates: only pairs EUF could *use* matter —
    // arguments of applications, constants, and disequality sides.
    let mut interesting: HashSet<TermId> = diseq_terms.into_iter().collect();
    for &t in &terms {
        match atoms.arena.term(t) {
            Term::App(_, args) => interesting.extend(args.iter().copied()),
            Term::Int(_) => {
                interesting.insert(t);
            }
            _ => {}
        }
    }
    let candidates: Vec<TermId> = lra
        .shared
        .iter()
        .copied()
        .filter(|t| interesting.contains(t))
        .collect();

    // Nelson–Oppen propagation loop. Arithmetic is checked first in
    // every round, so that when a pure-arithmetic conflict exists it is
    // the one that gets explained: its core blocks a whole region of
    // models rather than one combination of EUF facts.
    let mut sent_to_simplex: HashSet<(TermId, TermId)> = HashSet::new();
    loop {
        let lp_verdict = theory_timer::time(TheoryKind::Simplex, || {
            lra.simplex
                .check_int_within(budget.bb_nodes, budget.deadline)
        });
        if lp_verdict == LpResult::Unsat {
            return Consistency::Unsat(reasons.expand(lra.simplex.conflict()));
        }
        if theory_timer::time(TheoryKind::Euf, || euf.check()) == EufResult::Unsat {
            return Consistency::Unsat(reasons.expand(euf.conflict()));
        }
        if lp_verdict == LpResult::Unknown {
            let r = if deadline_expired(budget.deadline) {
                Resource::Deadline
            } else {
                Resource::BranchBoundNodes
            };
            return Consistency::Unknown(r);
        }
        // EUF → simplex, each equality resting on its proof-forest path.
        let mut changed = false;
        for (a, b) in euf.equalities_among(&lra.shared) {
            let key = if a <= b { (a, b) } else { (b, a) };
            if sent_to_simplex.insert(key) {
                let why = reasons.add(reasons.expand(&euf.explain(a, b)));
                let (va, vb) = (lra.var_of[&a], lra.var_of[&b]);
                let row = lra
                    .simplex
                    .add_row(&[(va, Rat::ONE), (vb, Rat::from_int(-1))]);
                if !(lra.simplex.assert_lower(row, Rat::ZERO, Some(why))
                    && lra.simplex.assert_upper(row, Rat::ZERO, Some(why)))
                {
                    return Consistency::Unsat(reasons.expand(lra.simplex.conflict()));
                }
                changed = true;
            }
        }
        if changed {
            continue;
        }
        // Simplex → EUF: implied equalities among the candidates, each
        // resting on the explanations of both failed separations. The
        // scan is simplex work (each candidate pair probes cloned
        // tableaux), so it is timed as such.
        let new_eq = theory_timer::time(TheoryKind::Simplex, || {
            let mut new_eq = false;
            for i in 0..candidates.len() {
                for j in (i + 1)..candidates.len() {
                    let (a, b) = (candidates[i], candidates[j]);
                    if euf.same_class(a, b) {
                        continue;
                    }
                    let (va, vb) = (lra.var_of[&a], lra.var_of[&b]);
                    if lra.simplex.value(va) != lra.simplex.value(vb) {
                        continue;
                    }
                    if let Some(forced) = forced_equal(&lra.simplex, va, vb) {
                        let why = reasons.add(reasons.expand(&forced));
                        euf.assert_eq(a, b, why);
                        new_eq = true;
                    }
                }
            }
            new_eq
        });
        if !new_eq {
            return Consistency::Sat;
        }
    }
}

/// The reasons that force `va = vb`, or `None` when the two can take
/// different values (tested in both strict directions over the
/// rationals; rational inseparability implies integer equality).
fn forced_equal(simplex: &Simplex, va: usize, vb: usize) -> Option<Vec<u32>> {
    let mut forced = Vec::new();
    for (lo, hi) in [(va, vb), (vb, va)] {
        let mut s = simplex.clone();
        let row = s.add_row(&[(lo, Rat::ONE), (hi, Rat::from_int(-1))]);
        // lo - hi <= -1 (integer separation; all our terms are
        // integers). The probe bound carries no reason, so a refutation
        // names only the facts that force equality.
        if s.assert_upper(row, Rat::from_int(-1), None) && s.check() == LpResult::Sat {
            return None;
        }
        forced.extend_from_slice(s.conflict());
    }
    Some(forced)
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
                    let Pred::Atom(rel, a, b) = *inner else { panic!() };
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
            check_assignment(&atoms, &lits, true, &TheoryBudget::default()),
            TheoryResult::Unsat(_)
        ));
    }

    #[test]
    fn arithmetic_sat() {
        let env = env();
        let (atoms, lits) = lits_of(&["x < y", "y < z"], &env);
        assert_eq!(check_assignment(&atoms, &lits, true, &TheoryBudget::default()), TheoryResult::Sat);
    }

    #[test]
    fn euf_congruence_conflict() {
        let env = env();
        let (atoms, lits) = lits_of(&["x = y", "f(x) != f(y)"], &env);
        assert!(matches!(
            check_assignment(&atoms, &lits, true, &TheoryBudget::default()),
            TheoryResult::Unsat(_)
        ));
    }

    #[test]
    fn cross_theory_equality_propagation() {
        // x <= y, y <= x (arith) forces x = y, so f(x) != f(y) conflicts.
        let env = env();
        let (atoms, lits) = lits_of(&["x <= y", "y <= x", "f(x) != f(y)"], &env);
        assert!(matches!(
            check_assignment(&atoms, &lits, true, &TheoryBudget::default()),
            TheoryResult::Unsat(_)
        ));
    }

    #[test]
    fn constant_equality_propagation() {
        // x <= 0 and x >= 0 implies x = 0.
        let env = env();
        let (atoms, lits) = lits_of(&["x <= 0", "0 <= x", "x != 0"], &env);
        assert!(matches!(
            check_assignment(&atoms, &lits, true, &TheoryBudget::default()),
            TheoryResult::Unsat(_)
        ));
    }

    #[test]
    fn equality_feeds_arithmetic() {
        // x = y (EUF+lin), y < x is a conflict through the linear form.
        let env = env();
        let (atoms, lits) = lits_of(&["x = y", "y < x"], &env);
        assert!(matches!(
            check_assignment(&atoms, &lits, true, &TheoryBudget::default()),
            TheoryResult::Unsat(_)
        ));
    }

    #[test]
    fn minimized_core_is_small() {
        let env = env();
        let (atoms, lits) = lits_of(&["x < y", "z < w", "y < x"], &env);
        let TheoryResult::Unsat(core) = check_assignment(&atoms, &lits, true, &TheoryBudget::default()) else {
            panic!("expected conflict");
        };
        // The z < w literal is irrelevant.
        assert_eq!(core.len(), 2);
        assert!(core.contains(&0) && core.contains(&2));
    }

    /// The core of an infeasible literal set, asserting that its
    /// explanation passed confirmation. (Each test runs on its own
    /// thread, so the thread-local counters hold this check alone.)
    fn core_of(lits: &[&str]) -> Vec<usize> {
        let env = env();
        let (atoms, lits) = lits_of(lits, &env);
        let result = check_assignment(&atoms, &lits, true, &TheoryBudget::default());
        let counts = micro::drain();
        assert_eq!(
            counts[MicroCounter::TheoryCoreFallbacks.index()],
            0,
            "fallback fired"
        );
        assert!(counts[MicroCounter::TheoryChecks.index()] >= 2);
        let TheoryResult::Unsat(core) = result else {
            panic!("expected a conflict, got {result:?}");
        };
        core
    }

    #[test]
    fn core_follows_cross_theory_explanation() {
        // x ≤ y ∧ y ≤ x forces x = y into EUF, where it clashes with
        // f(x) ≠ f(y); z < w is no part of it.
        assert_eq!(
            core_of(&["x <= y", "y <= x", "f(x) != f(y)", "z < w"]),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn arithmetic_conflict_is_explained_before_euf() {
        // Both an EUF conflict (p = q, p ≠ q) and a bounds conflict
        // (x < y, y < x) are present; arithmetic is checked first, so
        // the core is the pair of bounds.
        assert_eq!(core_of(&["p = q", "p != q", "x < y", "y < x"]), vec![2, 3]);
    }

    #[test]
    fn euf_conflict_explained_through_congruence() {
        assert_eq!(core_of(&["z < w", "x = y", "f(x) != f(y)"]), vec![1, 2]);
    }

    #[test]
    fn constant_clash_explained_through_arithmetic() {
        // x ≤ 0 ∧ 0 ≤ x makes x = 0 (a simplex → EUF equality resting
        // on both bounds), so f(x) ≠ f(0) fails by congruence.
        assert_eq!(
            core_of(&["w < z", "x <= 0", "0 <= x", "f(x) != f(0)"]),
            vec![1, 2, 3]
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
            check_assignment(&atoms, &lits, true, &starved),
            TheoryResult::Unknown(Resource::BranchBoundNodes)
        );
        assert!(matches!(
            check_assignment(&atoms, &lits, true, &TheoryBudget::default()),
            TheoryResult::Unsat(_)
        ));
    }

    #[test]
    fn obj_disequality_sat() {
        let env = env();
        let (atoms, lits) = lits_of(&["p != q"], &env);
        assert_eq!(check_assignment(&atoms, &lits, true, &TheoryBudget::default()), TheoryResult::Sat);
    }

    #[test]
    fn transitive_obj_equality_conflict() {
        let env = env();
        let (atoms, lits) = lits_of(&["p = q", "p != q"], &env);
        assert!(matches!(
            check_assignment(&atoms, &lits, true, &TheoryBudget::default()),
            TheoryResult::Unsat(_)
        ));
    }
}
