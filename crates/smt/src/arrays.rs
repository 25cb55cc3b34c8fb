//! McCarthy array-axiom instantiation.
//!
//! The paper (§5.2) combines polymorphic refinements with the classical
//! `Sel`/`Upd` operators and their read-over-write axioms:
//!
//! ```text
//! ∀m,i,v.   Sel(Upd(m,i,v), i) = v
//! ∀m,i,j,v. i = j ∨ Sel(Upd(m,i,v), j) = Sel(m, j)
//! ```
//!
//! Our ground solver cannot hold quantified facts, so this pass
//! instantiates them eagerly: for every update term `Upd(m,i,v)` and every
//! read index `j` occurring in the formula, it conjoins
//!
//! ```text
//! (j = i  ⇒ Sel(Upd(m,i,v), j) = v) ∧ (j ≠ i ⇒ Sel(Upd(m,i,v), j) = Sel(m, j))
//! ```
//!
//! iterating because the right-hand side introduces reads over the inner
//! map `m` (the nesting depth of updates bounds the iteration). Reads over
//! *variables* equated to update terms are connected by congruence
//! closure, so the unconditional instances above suffice.

use dsolve_logic::{Expr, Pred};
use dsolve_obs::{micro, MicroCounter};
use std::collections::BTreeSet;

/// Ground instances of the read-over-write axioms for the conjunction
/// of `conjuncts`. Every returned predicate is a valid axiom instance on
/// its own, so incremental callers may retain them across assertion
/// scopes. Empty when no conjunct contains an `Upd` term.
pub fn array_axiom_lemmas<'a>(conjuncts: impl IntoIterator<Item = &'a Pred>) -> Vec<Pred> {
    let mut upds: BTreeSet<Expr> = BTreeSet::new();
    let mut indices: BTreeSet<Expr> = BTreeSet::new();
    for p in conjuncts {
        collect_pred(p, &mut upds, &mut indices);
    }
    if upds.is_empty() {
        return Vec::new();
    }

    let mut lemmas: Vec<Pred> = Vec::new();
    let mut pairs = 0u64;
    let mut done: BTreeSet<(Expr, Expr)> = BTreeSet::new();
    // Iterate: lemmas mention Sel(m, j) for inner maps m which may
    // themselves be updates.
    let mut frontier: Vec<Expr> = upds.iter().cloned().collect();
    while let Some(u) = frontier.pop() {
        let Expr::Upd(m, i, v) = &u else { continue };
        for j in indices.clone() {
            if !done.insert((u.clone(), j.clone())) {
                continue;
            }
            pairs += 1;
            let read = Expr::sel(u.clone(), j.clone());
            let hit = Pred::imp(
                Pred::eq(j.clone(), (**i).clone()),
                Pred::eq(read.clone(), (**v).clone()),
            );
            let inner_read = Expr::sel((**m).clone(), j.clone());
            let miss = Pred::imp(
                Pred::ne(j.clone(), (**i).clone()),
                Pred::eq(read, inner_read),
            );
            lemmas.push(hit);
            lemmas.push(miss);
            if matches!(**m, Expr::Upd(..)) {
                frontier.push((**m).clone());
            }
        }
    }
    micro::add(MicroCounter::ArraysPairsInstantiated, pairs);
    micro::add(MicroCounter::ArraysAxiomInstances, lemmas.len() as u64);
    lemmas
}

fn collect_pred(p: &Pred, upds: &mut BTreeSet<Expr>, indices: &mut BTreeSet<Expr>) {
    match p {
        Pred::True | Pred::False => {}
        Pred::Atom(_, a, b) => {
            collect_expr(a, upds, indices);
            collect_expr(b, upds, indices);
        }
        Pred::And(ps) | Pred::Or(ps) => {
            for q in ps {
                collect_pred(q, upds, indices);
            }
        }
        Pred::Not(q) => collect_pred(q, upds, indices),
        Pred::Imp(a, b) | Pred::Iff(a, b) => {
            collect_pred(a, upds, indices);
            collect_pred(b, upds, indices);
        }
        Pred::Term(e) => collect_expr(e, upds, indices),
    }
}

fn collect_expr(e: &Expr, upds: &mut BTreeSet<Expr>, indices: &mut BTreeSet<Expr>) {
    match e {
        Expr::Var(_) | Expr::Int(_) | Expr::Bool(_) | Expr::SetEmpty => {}
        Expr::Binop(_, a, b) | Expr::SetUnion(a, b) => {
            collect_expr(a, upds, indices);
            collect_expr(b, upds, indices);
        }
        Expr::Neg(a) | Expr::SetSingle(a) => collect_expr(a, upds, indices),
        Expr::Ite(c, t, f) => {
            collect_pred(c, upds, indices);
            collect_expr(t, upds, indices);
            collect_expr(f, upds, indices);
        }
        Expr::App(_, args) => {
            for a in args {
                collect_expr(a, upds, indices);
            }
        }
        Expr::Sel(m, i) => {
            indices.insert((**i).clone());
            collect_expr(m, upds, indices);
            collect_expr(i, upds, indices);
        }
        Expr::Upd(m, i, v) => {
            upds.insert(e.clone());
            // Write indices are also interesting read points.
            indices.insert((**i).clone());
            collect_expr(m, upds, indices);
            collect_expr(i, upds, indices);
            collect_expr(v, upds, indices);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsolve_logic::parse_pred;

    /// The lemmas for `src`, conjoined for display.
    fn lemmas(src: &str) -> String {
        Pred::and(array_axiom_lemmas([&parse_pred(src).unwrap()])).to_string()
    }

    #[test]
    fn no_updates_no_lemmas() {
        let p = parse_pred("Sel(m, i) = 0").unwrap();
        assert!(array_axiom_lemmas([&p]).is_empty());
    }

    #[test]
    fn read_over_write_instantiated() {
        let s = lemmas("mp = Upd(m, k, 1) && Sel(mp, j) = 0");
        // The hit case for index j over Upd(m, k, 1) must be present.
        assert!(s.contains("(j = k) => (Sel(Upd(m, k, 1), j) = 1)"), "{s}");
        // And the miss case connecting to the inner map.
        assert!(
            s.contains("(j != k) => (Sel(Upd(m, k, 1), j) = Sel(m, j))"),
            "{s}"
        );
    }

    #[test]
    fn write_index_is_a_read_point() {
        let s = lemmas("mp = Upd(m, k, 1)");
        assert!(s.contains("(k = k) => (Sel(Upd(m, k, 1), k) = 1)"), "{s}");
    }

    #[test]
    fn nested_updates_iterate() {
        let s = lemmas("mp = Upd(Upd(m, a, 1), b, 2) && Sel(mp, j) = 0");
        // Outer miss introduces Sel(Upd(m,a,1), j); the inner update must
        // also be instantiated at j.
        assert!(
            s.contains("(j != a) => (Sel(Upd(m, a, 1), j) = Sel(m, j))"),
            "{s}"
        );
    }

    #[test]
    fn conjuncts_share_one_instantiation() {
        // An update in one conjunct is read at the index another one
        // mentions: the lemmas of the parts are those of the conjunction.
        let upd = parse_pred("mp = Upd(m, k, 1)").unwrap();
        let read = parse_pred("Sel(mp, j) = 0").unwrap();
        assert_eq!(
            array_axiom_lemmas([&upd, &read]),
            array_axiom_lemmas([&Pred::and(vec![upd.clone(), read.clone()])])
        );
    }
}
