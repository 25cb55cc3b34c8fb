//! SMT sessions: a persistent encoder + SAT core with assertion scopes,
//! and the one lazy DPLL(T) loop every query runs.
//!
//! A [`Session`] keeps the atom table, term arena, CNF variable map,
//! and the CDCL clause database alive across many related queries, so
//! that checking dozens of consequents under one antecedent re-encodes
//! only the consequent instead of the whole formula. A scalar query is
//! a one-shot session: one assertion, one check. Scoped assertions
//! are undone by [`Session::pop`] via the SAT core's clause watermark;
//! everything *definitional or theory-valid* — Tseitin variables for
//! split equalities, set-saturation lemmas, array-axiom instances, and
//! theory blocking clauses — is retained across pops, because a valid
//! clause can never change a verdict, only speed it up.
//!
//! The preprocessing pipeline is `canonicalize sets → encode`, then,
//! over the encoded conjunction, `saturate set lemmas → instantiate
//! array axioms`. Set canonicalization runs per asserted predicate
//! (sound because it distributes over conjunction). If-then-else terms
//! are lifted where the term arena meets them, one variable per distinct
//! `ite` for the session's life, each defined by retained clauses (see
//! [`crate::TermArena::flatten`]); so the session keeps no rewritten copy
//! of an assertion, and borrows its sort environment.
//! Saturation runs over the full asserted conjunction at each check,
//! through a [`SaturationMemo`] that lives as long as the session: it
//! hands out only the lemmas the session has not been given before, in
//! the order a memo-less pass over the conjunction lists them, each as
//! one clause over the session's atoms, and it spends that pass's
//! budget, so a check's truncation flag and the clauses it adds are
//! exactly those of regenerating the list and dropping the lemmas
//! already encoded. Array-axiom instances (over the conjunction alone:
//! a set lemma only recombines the conjunction's own set terms) are
//! regenerated at each check, encoded like assertions, and deduplicated
//! against a monotone seen-set (the instantiation watermark).
//!
//! The atom ↔ SAT-variable map is the encoder's ([`EncodeCtx`]), which
//! every model's assignment, root literals and blocking clause read. A
//! check keeps no certificate of its own: each theory core was confirmed
//! on fresh engines before it blocked a model, which certifies an
//! `Unsat` answer, and under `--certify` a `Sat` answer's countermodel is
//! evaluated against the asserted predicates (`certify.rs`).

use crate::arrays::array_axiom_lemmas;
use crate::certify::certify_model;
use crate::cnf::{encode_incremental, encode_ite_definitions, AtomId, Atoms, EncodeCtx};
use crate::sat::{CdclSolver, Lit, SatResult};
use crate::sets::{canonicalize_sets, LemmaClause, Saturation, SaturationMemo};
use crate::solver::{certification_unknown, SmtResult};
use crate::theory::{TheoryBudget, TheoryContext, TheoryResult};
use dsolve_logic::{deadline_expired, Budget, Exhaustion, Phase, Pred, Resource, SortEnv};
use dsolve_obs::{micro, TheoryKind};
use std::collections::HashSet;
use std::time::Instant;

/// Persistent state for one solving session.
pub(crate) struct Session<'env> {
    env: &'env SortEnv,
    atoms: Atoms,
    ctx: EncodeCtx,
    sat: CdclSolver,
    /// Canonicalized asserted predicates, in assertion order. Scopes
    /// truncate this on pop.
    asserted: Vec<Pred>,
    /// How many of `asserted` have been encoded into the SAT core.
    encoded_upto: usize,
    /// Open scopes: the length of `asserted` at push time.
    scopes: Vec<usize>,
    /// Set saturation across the session's checks; it knows which set
    /// lemmas the session has encoded. Monotone, like `lemma_seen`.
    saturation: SaturationMemo,
    /// Array-axiom lemmas already encoded, across the whole session.
    /// Monotone: retained lemma clauses survive pops, so this never
    /// shrinks.
    lemma_seen: HashSet<Pred>,
    /// Whether to certify a `Sat` answer's countermodel against the
    /// asserted predicates. (An `Unsat` answer is certified by the
    /// confirmation every theory core passes before it blocks a model.)
    certify: bool,
    /// Theory engines for the session's lifetime, holding one frame per
    /// segment of the SAT core's root trail.
    theory: TheoryContext,
}

/// The theory lemmas of one check.
pub(crate) struct CheckLemmas {
    /// Set-saturation lemma clauses the session has not been given
    /// before, and whether the saturation budget ran out.
    pub(crate) sets: Saturation,
    /// Array-axiom instances over the conjunction, encoded ones included.
    pub(crate) arrays: Vec<Pred>,
}

impl<'env> Session<'env> {
    /// Creates an empty session over `env`.
    pub(crate) fn new(env: &'env SortEnv, certify: bool) -> Session<'env> {
        Session {
            env,
            atoms: Atoms::new(),
            ctx: EncodeCtx::new(),
            sat: CdclSolver::new(),
            asserted: Vec::new(),
            encoded_upto: 0,
            scopes: Vec::new(),
            saturation: SaturationMemo::default(),
            lemma_seen: HashSet::new(),
            certify,
            theory: TheoryContext::new(),
        }
    }

    /// The atom table and sort environment, for tests that build the
    /// session's clauses by other means.
    #[cfg(test)]
    pub(crate) fn atoms_and_env(&mut self) -> (&mut Atoms, &SortEnv) {
        (&mut self.atoms, self.env)
    }

    /// Opens an assertion scope.
    ///
    /// Encoding of pending assertions is flushed *first*: clauses for a
    /// predicate asserted outside this scope must enter the SAT core
    /// below the scope's clause watermark, or [`Session::pop`] would
    /// discard them while `encoded_upto` still counts them as encoded.
    pub(crate) fn push(&mut self) {
        self.encode_pending();
        self.scopes.push(self.asserted.len());
        self.sat.push_scope();
    }

    /// Closes the innermost scope, dropping its assertions (clauses,
    /// root-level units) while keeping every retained lemma.
    pub(crate) fn pop(&mut self) {
        let mark = self.scopes.pop().expect("pop without matching push");
        self.asserted.truncate(mark);
        self.encoded_upto = self.encoded_upto.min(mark);
        self.sat.pop_scope();
    }

    /// Asserts `p` (conjoined with everything previously asserted).
    /// Set canonicalization happens here, per predicate; the encoding
    /// itself is deferred to [`Session::check`].
    pub(crate) fn assert_pred(&mut self, p: &Pred) {
        let canon = micro::time(TheoryKind::Sets, || canonicalize_sets(p));
        self.asserted.push(canon);
    }

    fn grow_sat(&mut self) {
        while self.sat.num_vars() < self.ctx.num_vars() {
            self.sat.new_var();
        }
    }

    /// Encodes assertions not yet in the SAT core, at the current scope
    /// depth. Clause additions require root level, so a prior `Sat`
    /// answer's trail is unwound first.
    pub(crate) fn encode_pending(&mut self) {
        if self.encoded_upto == self.asserted.len() {
            return;
        }
        self.sat.reset_to_root();
        while self.encoded_upto < self.asserted.len() {
            let p = &self.asserted[self.encoded_upto];
            self.encoded_upto += 1;
            let unit = encode_incremental(p, &mut self.atoms, self.env, &mut self.ctx);
            self.grow_sat();
            for c in unit.clauses {
                self.sat.add_clause(c);
            }
            for c in unit.lemma_clauses {
                self.sat.add_lemma(c);
            }
        }
    }

    /// Decides satisfiability of the asserted conjunction: the lazy
    /// DPLL(T) loop. Entry budgets (query cap, overall deadline) are the
    /// caller's responsibility.
    pub(crate) fn check(&mut self, budget: &Budget, deadline: Option<Instant>) -> SmtResult {
        // A previous check may have returned Sat with decisions still on
        // the trail; clause additions require root level.
        self.sat.reset_to_root();

        // Encode assertions made since the last push/check at the
        // current scope depth; the lemmas are derived over their atoms.
        self.encode_pending();
        let lemmas = self.derive_lemmas(budget.max_saturation_lemmas);

        // Encode lemmas new to the session as retained clauses (the memo
        // hands out only new set lemmas; array lemmas are filtered
        // here). Each lemma is valid on its own (guarded ground
        // instances), so retention across pops cannot flip a verdict.
        // The set lemmas' terms may lift `ite`s, defined next.
        for clause in &lemmas.sets.clauses {
            self.add_lemma_clause(clause);
        }
        let definitions = encode_ite_definitions(&mut self.atoms, self.env, &mut self.ctx);
        self.grow_sat();
        for c in definitions {
            self.sat.add_lemma(c);
        }
        for lem in lemmas.arrays {
            if !self.lemma_seen.contains(&lem) {
                self.encode_lemma(&lem);
                self.lemma_seen.insert(lem);
            }
        }

        // Every atom needs a SAT variable before model extraction (atoms
        // from popped scopes linger in the table; their values are
        // unconstrained, which is sound — the theory layer refutes any
        // inconsistent polarity with a blocking lemma, and a consistent
        // polarity extension always exists). Variables go to atoms in
        // atom order. Blocking clauses add no atoms, so every model of
        // this check assigns the same variables.
        for i in 0..self.atoms.len() {
            self.ctx.var_of_atom(AtomId(i as u32));
        }
        self.grow_sat();

        let theory_budget = TheoryBudget {
            bb_nodes: budget.max_bb_nodes,
            deadline,
        };
        let mut conflicts = 0u64;
        loop {
            let sat_verdict = micro::time(TheoryKind::Sat, || {
                self.sat.solve_within(deadline, budget.max_sat_conflicts)
            });
            match sat_verdict {
                // Every core that blocked a model was confirmed on fresh
                // engines first: that is this answer's certificate.
                SatResult::Unsat => return SmtResult::Unsat,
                SatResult::Unknown => {
                    let resource = if deadline_expired(deadline) {
                        Resource::Deadline
                    } else {
                        Resource::SatConflicts
                    };
                    return SmtResult::Unknown(Exhaustion::new(Phase::Sat, resource));
                }
                SatResult::Sat => {
                    let assignment: Vec<(AtomId, bool)> = self
                        .ctx
                        .atom_vars()
                        .map(|(aid, v)| (aid, self.sat.model_value(v)))
                        .collect();
                    let root = root_literals(&self.sat, &self.ctx);
                    match self
                        .theory
                        .check(&self.atoms, &assignment, &root, &theory_budget)
                    {
                        TheoryResult::Sat if lemmas.sets.truncated => {
                            // A truncated saturation pass only *weakens*
                            // the formula: an `Unsat` stays sound, but
                            // this model may be an artifact of the
                            // missing lemmas.
                            return SmtResult::Unknown(Exhaustion::with_detail(
                                Phase::Saturation,
                                Resource::SaturationLemmas,
                                format!("cap {}", budget.max_saturation_lemmas),
                            ));
                        }
                        TheoryResult::Sat => {
                            if self.certify {
                                if let Err(why) = certify_model(
                                    &self.asserted,
                                    &mut self.atoms,
                                    self.env,
                                    &assignment,
                                ) {
                                    return certification_unknown(why.into());
                                }
                            }
                            return SmtResult::Sat;
                        }
                        TheoryResult::Unknown(resource) => {
                            return SmtResult::Unknown(Exhaustion::new(Phase::Simplex, resource));
                        }
                        TheoryResult::Unsat(core) => {
                            conflicts += 1;
                            if conflicts > budget.max_theory_conflicts {
                                return SmtResult::Unknown(Exhaustion::with_detail(
                                    Phase::Smt,
                                    Resource::TheoryConflicts,
                                    format!("cap {}", budget.max_theory_conflicts),
                                ));
                            }
                            // Theory blocking clauses are valid facts and
                            // therefore retained lemmas: a refuted atom
                            // combination stays refuted in every scope.
                            let block: Vec<Lit> = core
                                .iter()
                                .map(|&(aid, val)| Lit::new(self.ctx.var_of_atom(aid), !val))
                                .collect();
                            self.sat.reset_to_root();
                            self.sat.add_lemma(block);
                        }
                    }
                }
            }
        }
    }

    /// This check's theory lemmas, over the *full* current conjunction,
    /// once it is encoded: saturation interacts across asserted
    /// predicates. Array instantiation reads the conjunction alone, as no
    /// set lemma adds a `Sel` or `Upd` term or an index.
    pub(crate) fn derive_lemmas(&mut self, max_saturation_lemmas: u64) -> CheckLemmas {
        // A literal `false` conjunct makes the conjunction `false`, which
        // has no set terms and no array terms.
        let asserted: &[Pred] = if self.asserted.contains(&Pred::False) {
            &[]
        } else {
            &self.asserted
        };
        let sets = micro::time(TheoryKind::Sets, || {
            self.saturation
                .saturate(asserted, max_saturation_lemmas, &mut self.atoms, self.env)
        });
        let arrays = micro::time(TheoryKind::Arrays, || array_axiom_lemmas(asserted));
        CheckLemmas { sets, arrays }
    }

    /// Adds a lemma clause over the session's atoms as a retained clause.
    fn add_lemma_clause(&mut self, clause: &LemmaClause) {
        let lits = clause
            .iter()
            .map(|&(aid, val)| Lit::new(self.ctx.var_of_atom(aid), val))
            .collect();
        self.grow_sat();
        self.sat.add_lemma(lits);
    }

    /// Encodes `lem` as retained lemma clauses.
    fn encode_lemma(&mut self, lem: &Pred) {
        let unit = encode_incremental(lem, &mut self.atoms, self.env, &mut self.ctx);
        self.grow_sat();
        for c in unit.clauses.into_iter().chain(unit.lemma_clauses) {
            self.sat.add_lemma(c);
        }
    }
}

/// The theory literals among the SAT core's root trail, in trail order.
fn root_literals(sat: &CdclSolver, ctx: &EncodeCtx) -> Vec<(AtomId, bool)> {
    sat.root_trail()
        .iter()
        .filter_map(|l| ctx.atom_of_var(l.var()).map(|aid| (aid, l.sign())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsolve_logic::{parse_pred, FuncSort, Sort, Symbol};
    use proptest::prelude::*;

    #[cfg(feature = "slow-proptest")]
    const CASES: u32 = 256;
    #[cfg(not(feature = "slow-proptest"))]
    const CASES: u32 = 32;

    /// Integers, a boolean flag, a unary uninterpreted function, three
    /// set variables and a map.
    fn env() -> SortEnv {
        let mut env = SortEnv::new();
        for v in ["x", "y", "z"] {
            env.bind(Symbol::new(v), Sort::Int);
        }
        env.bind(Symbol::new("b"), Sort::Bool);
        for v in ["s", "t", "u"] {
            env.bind(Symbol::new(v), Sort::Set);
        }
        env.bind(Symbol::new("m"), Sort::Map);
        env.declare_func(Symbol::new("f"), FuncSort::new(vec![Sort::Int], Sort::Int));
        env
    }

    /// The atom pool of the crate's scratch-oracle suite: arithmetic, UF
    /// congruence, set facts whose verdicts need saturation lemmas, an
    /// `ite` inside a union, and map reads through (nested) updates,
    /// whose read-over-write instances a scope pop must not lose.
    const ATOMS: [&str; 23] = [
        "x < y",
        "x <= y",
        "y < z",
        "x = y + 1",
        "x + y <= z",
        "0 <= x",
        "x != z",
        "z <= 3",
        "b",
        "f(x) = f(y)",
        "f(x) <= f(z)",
        "f(z) = y",
        "x in s",
        "s = union(t, single(x))",
        "s = t",
        "y in union(s, t)",
        "t = u",
        "s = t => t = union(s, t)",
        "u = union(t, single(x)) && t = union(u, single(x))",
        "s = union(single(x), (if x < y then t else u))",
        "Sel(m, x) = y",
        "Sel(Upd(m, x, y), z) = y",
        "Sel(Upd(Upd(m, x, 1), y, 2), z) = Sel(m, z)",
    ];

    /// Atoms combined by ¬, ∧, ∨, ⇒ up to a small depth.
    fn arb_pred() -> BoxedStrategy<Pred> {
        (0usize..ATOMS.len())
            .prop_map(|i| parse_pred(ATOMS[i]).unwrap())
            .prop_recursive(3, 16, 2, |inner| {
                prop_oneof![
                    inner.clone().prop_map(Pred::not),
                    (inner.clone(), inner.clone()).prop_map(|(p, q)| Pred::and(vec![p, q])),
                    (inner.clone(), inner.clone()).prop_map(|(p, q)| Pred::or(vec![p, q])),
                    (inner.clone(), inner).prop_map(|(p, q)| Pred::imp(p, q)),
                ]
            })
    }

    /// Checks `session` and a one-shot session on the conjunction of the
    /// live assertions `frames`, asserting that both are definite and
    /// agree; returns the verdict.
    fn check_both(session: &mut Session, env: &SortEnv, frames: &[Vec<Pred>]) -> SmtResult {
        let budget = Budget::default();
        let conj = Pred::and(frames.concat());
        let mut one_shot = Session::new(env, false);
        one_shot.assert_pred(&conj);
        let want = one_shot.check(&budget, None);
        let got = session.check(&budget, None);
        assert!(
            matches!(
                (&got, &want),
                (SmtResult::Sat, SmtResult::Sat) | (SmtResult::Unsat, SmtResult::Unsat)
            ),
            "scoped {got:?} vs one-shot {want:?} on `{conj}`"
        );
        got
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// Interleaved assert/push/check/pop through one session: at every
        /// check (and once at the end) the verdict is a one-shot session's
        /// on the conjunction of the live assertions.
        #[test]
        fn scoped_checks_match_one_shot(
            ops in prop::collection::vec((0u8..4, arb_pred()), 1..14),
        ) {
            let env = env();
            let mut session = Session::new(&env, false);
            // Mirror of the session's assertion stack: one frame per scope.
            let mut frames: Vec<Vec<Pred>> = vec![Vec::new()];
            for (op, p) in ops {
                match op {
                    0 => {
                        session.push();
                        frames.push(Vec::new());
                    }
                    1 => {
                        if frames.len() > 1 {
                            session.pop();
                            frames.pop();
                        }
                    }
                    2 => {
                        session.assert_pred(&p);
                        frames.last_mut().unwrap().push(p);
                    }
                    _ => {
                        check_both(&mut session, &env, &frames);
                    }
                }
            }
            check_both(&mut session, &env, &frames);
        }
    }

    /// A fixed sequence covering the subtle pop interactions: lemma
    /// retention across pops, base facts encoded while a scope was open,
    /// and an `ite` lifted inside a popped scope, whose variable a later
    /// scope reuses and whose definition must still be in force.
    #[test]
    fn pop_reassert_sequence_matches_one_shot() {
        let env = env();
        let mut session = Session::new(&env, false);
        let mut frames: Vec<Vec<Pred>> = vec![Vec::new()];
        let mut step = |session: &mut Session, op: &str, want: Option<SmtResult>| {
            match op {
                "push" => {
                    session.push();
                    frames.push(Vec::new());
                }
                "pop" => {
                    session.pop();
                    frames.pop();
                }
                p => {
                    let p = parse_pred(p).unwrap();
                    session.assert_pred(&p);
                    frames.last_mut().unwrap().push(p);
                }
            }
            if let Some(want) = want {
                assert_eq!(check_both(session, &env, &frames), want, "after `{op}`");
            }
        };
        let (sat, unsat) = (Some(SmtResult::Sat), Some(SmtResult::Unsat));
        step(&mut session, "x < y", sat.clone());
        step(&mut session, "push", None);
        step(&mut session, "y < x", unsat.clone());
        step(&mut session, "pop", None);
        // The base fact must still be in force after the pop.
        step(&mut session, "push", None);
        step(&mut session, "y <= x", unsat.clone());
        step(&mut session, "pop", None);
        // Set facts across a scope boundary: the ACI1 identity is refuted
        // inside the scope (its saturation lemmas are retained) and the
        // base conjunction is satisfiable again after the pop.
        step(&mut session, "s = union(t, single(x))", None);
        step(&mut session, "push", None);
        step(&mut session, "not (s = union(single(x), t))", unsat.clone());
        step(&mut session, "pop", sat.clone());
        // An `ite` first lifted in a scope keeps its definition after the
        // pop: with x < y it is x, so z = x.
        step(&mut session, "push", None);
        step(&mut session, "z = (if x < y then x else y)", sat.clone());
        step(&mut session, "pop", None);
        step(&mut session, "push", None);
        step(
            &mut session,
            "z = (if x < y then x else y) && z != x",
            unsat,
        );
        step(&mut session, "pop", sat);
    }
}
