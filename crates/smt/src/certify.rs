//! Independent verdict certification.
//!
//! With `--certify`, every definite answer the lazy-SMT loop produces is
//! replayed through a checker that does *not* trust the CNF encoding or
//! the CDCL search:
//!
//! * a **Sat** answer (an *Invalid* implication) carries its countermodel
//!   — the truth value the SAT model assigns to every theory atom. The
//!   [`eval_pred`] evaluator walks each asserted (preprocessed) predicate's
//!   boolean structure, re-interning each leaf through the deterministic
//!   [`Atoms`] table, and must find every one *true* under the model.
//!   (For a validity query the solved formula is the negated implication
//!   `antecedent ∧ ¬consequent`, so "true" means the implication is
//!   falsified.) Theory consistency of the model was already established
//!   by the theory check that accepted it.
//! * an **Unsat** answer (a *Valid* implication) carries the theory
//!   conflict cores learned along the way. [`certify_unsat`] re-submits
//!   each core — a small set of atom/polarity literals — to the theory
//!   stack, which must refute it again. This confirms every blocking
//!   clause the propositional refutation leaned on was theory-justified.
//!
//! A certificate that fails to replay never flips a verdict: the caller
//! downgrades the answer to `Unknown` with
//! [`dsolve_logic::Resource::Certification`].

use crate::cnf::{AtomId, Atoms};
use crate::theory::{refuted_on_fresh_engines, TheoryBudget};
use dsolve_logic::{Pred, SortEnv};

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
pub(crate) fn eval_pred(
    p: &Pred,
    atoms: &mut Atoms,
    env: &SortEnv,
    model: &[(AtomId, bool)],
) -> Option<bool> {
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

/// Certifies an `Unsat` answer: every recorded theory core must still be
/// refuted by the theory stack. Returns an error description on failure.
///
/// Each core replays as one closure on fresh engines, which decides it:
/// the core is certified when that closure refutes it, whatever its
/// explanation.
pub(crate) fn certify_unsat(
    atoms: &Atoms,
    cores: &[Vec<(AtomId, bool)>],
    budget: &TheoryBudget,
) -> Result<(), String> {
    for (i, core) in cores.iter().enumerate() {
        match refuted_on_fresh_engines(atoms, core, budget) {
            Ok(true) => {}
            Ok(false) => {
                return Err(format!(
                    "theory core {i} of {} replayed satisfiable",
                    cores.len()
                ));
            }
            Err(r) => {
                return Err(format!(
                    "theory core {i} of {} could not be replayed ({r})",
                    cores.len()
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{encode_incremental, EncodeCtx};
    use dsolve_logic::{parse_pred, Sort, Symbol};
    use dsolve_obs::{micro, MicroCounter};

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

    #[test]
    fn unsat_core_replay() {
        let env = env();
        let mut atoms = Atoms::new();
        let p = parse_pred("x < y && y < x").unwrap();
        let _ = encode_incremental(&p, &mut atoms, &env, &mut EncodeCtx::new());
        // Both inequalities asserted true form a refutable core.
        let core: Vec<(AtomId, bool)> =
            (0..atoms.len()).map(|i| (AtomId(i as u32), true)).collect();
        let budget = TheoryBudget {
            bb_nodes: 400,
            deadline: None,
        };
        micro::drain();
        assert!(certify_unsat(&atoms, std::slice::from_ref(&core), &budget).is_ok());
        // One closure decides the replayed core. (Each test runs on its
        // own thread, so the thread-local counters hold this replay.)
        let counts = micro::drain().micro;
        assert_eq!(counts[MicroCounter::TheoryChecks.index()], 1);
        // A satisfiable "core" must be rejected.
        let sat_core = vec![core[0]];
        assert!(certify_unsat(&atoms, &[sat_core], &budget).is_err());
    }
}
