//! What certifies each definite verdict.
//!
//! With `--certify`, every definite answer the lazy-SMT loop produces
//! carries a certificate that does *not* trust the CNF encoding or the
//! CDCL search:
//!
//! * a **Sat** answer (an *Invalid* implication) carries its countermodel
//!   — the truth value the SAT model assigns to every theory atom.
//!   [`certify_model`] walks each asserted predicate's boolean structure
//!   with the [`eval_pred`] evaluator, re-interning each leaf through the
//!   deterministic [`Atoms`] table, and must find every one *true* under
//!   the model. (For a validity query the solved formula is the negated
//!   implication `antecedent ∧ ¬consequent`, so "true" means the
//!   implication is falsified.) Theory consistency of the model was
//!   already established by the theory check that accepted it.
//! * an **Unsat** answer (a *Valid* implication) is certified by its
//!   theory cores. Every core that blocks a model has already been
//!   refuted by one closure on fresh engines
//!   ([`crate::theory`]'s confirmation), with or without `--certify`, so
//!   every blocking clause the propositional refutation leaned on is
//!   theory-justified when the search ends. Replaying the cores after
//!   the search would run the same closures on the same literals again;
//!   nothing is replayed.
//!
//! A certificate that fails never flips a verdict: the caller
//! downgrades the answer to `Unknown` with
//! [`dsolve_logic::Resource::Certification`].

use crate::cnf::{AtomId, Atoms};
use dsolve_logic::{Pred, SortEnv};

/// Certifies a `Sat` answer: every predicate of `asserted` must hold
/// under `model` (an `ite` evaluates as the variable the arena lifted it
/// to). Returns what failed otherwise.
pub(crate) fn certify_model(
    asserted: &[Pred],
    atoms: &mut Atoms,
    env: &SortEnv,
    model: &[(AtomId, bool)],
) -> Result<(), &'static str> {
    for q in asserted {
        match eval_pred(q, atoms, env, model) {
            Some(true) => {}
            Some(false) => return Err("countermodel does not satisfy an asserted predicate"),
            None => return Err("countermodel leaves an asserted predicate undetermined"),
        }
    }
    Ok(())
}

/// Truth value of `p` under a per-atom model, or `None` when a leaf has
/// no model value.
///
/// Leaves are mapped through the same [`Atoms`] interner the encoder
/// used, so a leaf that was encoded resolves to its original atom (and
/// therefore has a value in any full model). Leaves the encoder
/// short-circuited away (inside an absorbed conjunct, say) may intern
/// fresh atoms with no value; connectives therefore evaluate in
/// three-valued logic, so a determined connective never fails on an
/// undetermined irrelevant operand.
fn eval_pred(p: &Pred, atoms: &mut Atoms, env: &SortEnv, model: &[(AtomId, bool)]) -> Option<bool> {
    // Solver models are dense and ordered (entry `i` is atom `i`), so
    // indexing is the common case; the scan covers sparse test models.
    let value = |aid: AtomId| match model.get(aid.index()) {
        Some(&(a, v)) if a == aid => Some(v),
        _ => model.iter().find(|(a, _)| *a == aid).map(|&(_, v)| v),
    };
    match p {
        Pred::True => Some(true),
        Pred::False => Some(false),
        Pred::Atom(rel, a, b) => {
            let (aid, pos) = atoms.atom_of_rel(*rel, a, b, env);
            value(aid).map(|v| v == pos)
        }
        Pred::Term(e) => {
            let aid = atoms.atom_of_term(e, env);
            value(aid)
        }
        Pred::Not(q) => eval_pred(q, atoms, env, model).map(|v| !v),
        Pred::And(ps) => {
            let mut out = Some(true);
            for q in ps {
                match eval_pred(q, atoms, env, model) {
                    Some(false) => return Some(false),
                    Some(true) => {}
                    None => out = None,
                }
            }
            out
        }
        Pred::Or(ps) => {
            let mut out = Some(false);
            for q in ps {
                match eval_pred(q, atoms, env, model) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => out = None,
                }
            }
            out
        }
        Pred::Imp(a, b) => match (
            eval_pred(a, atoms, env, model),
            eval_pred(b, atoms, env, model),
        ) {
            (Some(false), _) | (_, Some(true)) => Some(true),
            (Some(true), Some(false)) => Some(false),
            _ => None,
        },
        Pred::Iff(a, b) => match (
            eval_pred(a, atoms, env, model),
            eval_pred(b, atoms, env, model),
        ) {
            (Some(x), Some(y)) => Some(x == y),
            _ => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{encode_incremental, EncodeCtx};
    use crate::{SmtSolver, SolverConfig, Validity};
    use dsolve_logic::{parse_pred, Budget, Sort, Symbol};
    use dsolve_obs::{micro, MicroCounter, Obs};

    fn env() -> SortEnv {
        let mut env = SortEnv::new();
        for v in ["x", "y", "z"] {
            env.bind(Symbol::new(v), Sort::Int);
        }
        env
    }

    #[test]
    fn eval_agrees_with_encoded_atoms() {
        let env = env();
        let mut atoms = Atoms::new();
        let p = parse_pred("x < y && (y < z || x = z)").unwrap();
        // Intern the leaves the way the encoder would.
        let _ = encode_incremental(&p, &mut atoms, &env, &mut EncodeCtx::new());
        // Model: x<y true, y<z false, x=z true.
        let model: Vec<(AtomId, bool)> = (0..atoms.len())
            .map(|i| (AtomId(i as u32), i != 1))
            .collect();
        assert_eq!(eval_pred(&p, &mut atoms, &env, &model), Some(true));
        // Flip the x<y leaf: the conjunction fails.
        let model2: Vec<(AtomId, bool)> = model
            .iter()
            .map(|&(a, v)| (a, if a.index() == 0 { false } else { v }))
            .collect();
        assert_eq!(eval_pred(&p, &mut atoms, &env, &model2), Some(false));
    }

    #[test]
    fn undetermined_leaf_is_three_valued() {
        let env = env();
        let mut atoms = Atoms::new();
        let p = parse_pred("x < y || y < z").unwrap();
        // Only intern the first leaf; the second has no model value.
        let first = parse_pred("x < y").unwrap();
        let Pred::Atom(rel, a, b) = &first else {
            panic!()
        };
        let (aid, _) = atoms.atom_of_rel(*rel, a, b, &env);
        // A true determined disjunct decides the whole disjunction.
        assert_eq!(eval_pred(&p, &mut atoms, &env, &[(aid, true)]), Some(true));
        // A false one leaves it undetermined.
        assert_eq!(eval_pred(&p, &mut atoms, &env, &[(aid, false)]), None);
    }

    /// The closures and certificate counts of deciding `x < y ⇒ x ≠ y`
    /// on a one-shot session, whose refutation blocks one model: `x < y`
    /// with `x = y`.
    fn closures_deciding_one_conflict(certify: bool) -> (Validity, u64, u64, u64) {
        let env = env();
        let obs = Obs::new();
        let mut smt = SmtSolver::with_config(
            SolverConfig {
                certify,
                ..SolverConfig::default()
            },
            Budget::default(),
        );
        smt.set_obs(obs.clone());
        // Each test runs on its own thread: nothing else is in its
        // accumulator, which the query drains into `obs`.
        micro::drain();
        let verdict = smt.check_valid(
            &env,
            &parse_pred("x < y").unwrap(),
            &parse_pred("x != y").unwrap(),
        );
        let snap = obs.snapshot(0);
        (
            verdict,
            snap.micro[MicroCounter::TheoryChecks.index()],
            snap.certs_checked,
            snap.certs_failed,
        )
    }

    /// A Valid answer's certificate is the confirmation its cores passed
    /// in the search: certifying it runs no closure of its own.
    #[test]
    fn valid_answer_is_certified_by_its_confirmed_cores() {
        let plain = closures_deciding_one_conflict(false);
        let certified = closures_deciding_one_conflict(true);
        // The model's closure and the one that confirms its explanation.
        assert_eq!(plain, (Validity::Valid, 2, 0, 0));
        assert_eq!(certified, (Validity::Valid, 2, 1, 0));
    }
}
