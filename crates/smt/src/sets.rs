//! Canonicalization for the finite-set theory.
//!
//! The paper's `elts`-style measures use the SMT solver's "decidable
//! theory of sets" built from `empty`, `single`, and `union`. Union is
//! associative, commutative, and idempotent with unit `empty` (ACI1), so
//! we rewrite every set-sorted term into a canonical right-nested union of
//! sorted, de-duplicated leaves. After canonicalization, terms equal
//! modulo ACI1 are *syntactically identical* and congruence closure
//! finishes the job.
//!
//! Membership atoms over constructor-built sets are expanded:
//! `e ∈ single(a)` becomes `e = a`, `e ∈ union(s,t)` distributes, and
//! `e ∈ empty` is `false`; membership in an opaque set term stays as an
//! uninterpreted atom.

use dsolve_logic::{Expr, Pred, Rel};
use dsolve_obs::{micro, MicroCounter};

/// Rewrites all set-sorted subterms of `p` into ACI1 canonical form and
/// expands membership over constructor-built sets.
pub fn canonicalize_sets(p: &Pred) -> Pred {
    match p {
        Pred::True | Pred::False => p.clone(),
        Pred::Atom(Rel::In, e, s) => {
            let e = canon_expr(e);
            let s = canon_expr(s);
            expand_membership(&e, &s)
        }
        Pred::Atom(rel, a, b) => Pred::Atom(*rel, canon_expr(a), canon_expr(b)),
        Pred::And(ps) => Pred::And(ps.iter().map(canonicalize_sets).collect()),
        Pred::Or(ps) => Pred::Or(ps.iter().map(canonicalize_sets).collect()),
        Pred::Not(q) => Pred::Not(Box::new(canonicalize_sets(q))),
        Pred::Imp(a, b) => Pred::Imp(
            Box::new(canonicalize_sets(a)),
            Box::new(canonicalize_sets(b)),
        ),
        Pred::Iff(a, b) => Pred::Iff(
            Box::new(canonicalize_sets(a)),
            Box::new(canonicalize_sets(b)),
        ),
        Pred::Term(e) => Pred::Term(canon_expr(e)),
    }
}

fn expand_membership(e: &Expr, s: &Expr) -> Pred {
    match s {
        Expr::SetEmpty => Pred::False,
        Expr::SetSingle(a) => Pred::eq(e.clone(), (**a).clone()),
        Expr::SetUnion(l, r) => Pred::or(vec![
            expand_membership(e, l),
            expand_membership(e, r),
        ]),
        opaque => Pred::mem(e.clone(), opaque.clone()),
    }
}

/// Canonicalizes an expression (recursing into non-set structure too).
fn canon_expr(e: &Expr) -> Expr {
    match e {
        Expr::SetEmpty | Expr::SetSingle(_) | Expr::SetUnion(_, _) => canon_set(e),
        Expr::Var(_) | Expr::Int(_) | Expr::Bool(_) => e.clone(),
        Expr::Binop(op, a, b) => {
            Expr::Binop(*op, Box::new(canon_expr(a)), Box::new(canon_expr(b)))
        }
        Expr::Neg(a) => Expr::Neg(Box::new(canon_expr(a))),
        Expr::Ite(c, t, f) => Expr::Ite(
            Box::new(canonicalize_sets(c)),
            Box::new(canon_expr(t)),
            Box::new(canon_expr(f)),
        ),
        Expr::App(f, args) => Expr::App(*f, args.iter().map(canon_expr).collect()),
        Expr::Sel(m, i) => Expr::sel(canon_expr(m), canon_expr(i)),
        Expr::Upd(m, i, v) => Expr::upd(canon_expr(m), canon_expr(i), canon_expr(v)),
    }
}

/// Flattens a set term to sorted, de-duplicated leaves and rebuilds a
/// right-nested union.
fn canon_set(e: &Expr) -> Expr {
    let mut leaves: Vec<Expr> = Vec::new();
    flatten_set(e, &mut leaves);
    // Sort by display form (stable, deterministic) and de-duplicate.
    leaves.sort_by_key(|l| l.to_string());
    leaves.dedup();
    match leaves.len() {
        0 => Expr::SetEmpty,
        _ => {
            let mut it = leaves.into_iter().rev();
            let mut acc = it.next().expect("nonempty");
            for l in it {
                acc = Expr::union(l, acc);
            }
            acc
        }
    }
}

fn flatten_set(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::SetEmpty => {}
        Expr::SetUnion(a, b) => {
            flatten_set(a, out);
            flatten_set(b, out);
        }
        Expr::SetSingle(x) => out.push(Expr::single(canon_expr(x))),
        // Opaque leaf (variable or measure application): canonicalize its
        // arguments but keep it atomic.
        other => out.push(canon_expr(other)),
    }
}

/// Ground *leaf-substitution* lemmas for the set theory.
///
/// ACI1 canonicalization is syntactic, so an equality discovered at solve
/// time (`elts xs = empty`, `elts zs = union(elts xs, elts ys)`) cannot
/// re-flatten the union terms that mention its left-hand side. This pass
/// closes the gap with guarded ground instances: for every canonical union
/// term `u` with leaf `x`, and every set equality atom `s = t` in the
/// formula with `s` syntactically equal to `x` (either orientation),
///
/// ```text
/// s = t  ⇒  u = canon(u[x := t])
/// ```
///
/// New union terms produced on the right enter the worklist, bounded by
/// the `max_lemmas` saturation budget. Singleton injectivity
/// (`single a = single b ⇒ a = b`) is instantiated for the singleton
/// leaves present. Each lemma is a valid fact of the set theory, so
/// incremental callers feed them to the SAT core as retained lemma
/// clauses.
///
/// Returns the lemmas plus a flag that is `true` when the lemma budget
/// ran out before saturation completed. A truncated lemma set only ever
/// *weakens* the formula, so `Unsat` answers derived from it remain
/// sound — but a `Sat` answer may be spurious, and callers must report
/// the truncation rather than trust it.
///
/// Call on a formula that is already in canonical form (see
/// [`canonicalize_sets`]).
pub fn set_saturation_lemma_list(p: &Pred, max_lemmas: u64) -> (Vec<Pred>, bool) {
    use std::collections::BTreeSet;

    // Collect equality pairs over set-shaped sides and all union terms.
    let mut pairs: BTreeSet<(Expr, Expr)> = BTreeSet::new();
    let mut unions: BTreeSet<Expr> = BTreeSet::new();
    let mut singles: BTreeSet<Expr> = BTreeSet::new();
    collect(p, &mut pairs, &mut unions, &mut singles);

    let mut lemmas: Vec<Pred> = Vec::new();
    let mut seen: BTreeSet<Expr> = unions.clone();
    let mut work: Vec<Expr> = unions.into_iter().collect();
    let mut budget = max_lemmas;
    let mut truncated = false;
    let mut union_terms = 0u64;

    'saturate: while let Some(u) = work.pop() {
        union_terms += 1;
        let mut leaves = Vec::new();
        flatten_set(&u, &mut leaves);
        for x in &leaves {
            for (s, t) in &pairs {
                if s == x {
                    if budget == 0 {
                        truncated = true;
                        break 'saturate;
                    }
                    budget -= 1;
                    // Rebuild with x replaced by the leaves of t.
                    let rest: Vec<Expr> =
                        leaves.iter().filter(|l| *l != x).cloned().collect();
                    let mut repl = rest;
                    flatten_set(t, &mut repl);
                    let rebuilt = canon_of_leaves(repl);
                    if rebuilt != u {
                        lemmas.push(Pred::imp(
                            Pred::eq(s.clone(), t.clone()),
                            Pred::eq(u.clone(), rebuilt.clone()),
                        ));
                        if matches!(rebuilt, Expr::SetUnion(..)) && seen.insert(rebuilt.clone())
                        {
                            work.push(rebuilt);
                        }
                    }
                }
            }
        }
    }

    // Non-emptiness: any canonical set containing a singleton leaf is
    // distinct from `empty` (an axiom of the finite-set theory the
    // measure examples of §4.2 rely on for dead-branch detection).
    for u in &seen {
        let mut leaves = Vec::new();
        flatten_set(u, &mut leaves);
        if leaves.iter().any(|l| matches!(l, Expr::SetSingle(_))) {
            lemmas.push(Pred::ne(u.clone(), Expr::SetEmpty));
        }
    }
    for s in &singles {
        lemmas.push(Pred::ne(s.clone(), Expr::SetEmpty));
    }

    // Singleton injectivity.
    let singles: Vec<Expr> = singles.into_iter().collect();
    for (i, a) in singles.iter().enumerate() {
        for b in &singles[i + 1..] {
            if let (Expr::SetSingle(ea), Expr::SetSingle(eb)) = (a, b) {
                lemmas.push(Pred::imp(
                    Pred::eq(a.clone(), b.clone()),
                    Pred::eq((**ea).clone(), (**eb).clone()),
                ));
            }
        }
    }

    micro::add(MicroCounter::SetsUnionTerms, union_terms);
    micro::add(MicroCounter::SetsSaturationLemmas, lemmas.len() as u64);
    (lemmas, truncated)
}

fn canon_of_leaves(mut leaves: Vec<Expr>) -> Expr {
    leaves.sort_by_key(|l| l.to_string());
    leaves.dedup();
    match leaves.len() {
        0 => Expr::SetEmpty,
        _ => {
            let mut it = leaves.into_iter().rev();
            let mut acc = it.next().expect("nonempty");
            for l in it {
                acc = Expr::union(l, acc);
            }
            acc
        }
    }
}

fn collect(
    p: &Pred,
    pairs: &mut std::collections::BTreeSet<(Expr, Expr)>,
    unions: &mut std::collections::BTreeSet<Expr>,
    singles: &mut std::collections::BTreeSet<Expr>,
) {
    match p {
        Pred::True | Pred::False => {}
        Pred::Atom(rel, a, b) => {
            collect_sets_expr(a, unions, singles);
            collect_sets_expr(b, unions, singles);
            if matches!(rel, Rel::Eq | Rel::Ne) && is_setish(a) && is_setish(b) {
                pairs.insert((a.clone(), b.clone()));
                pairs.insert((b.clone(), a.clone()));
            }
        }
        Pred::And(ps) | Pred::Or(ps) => {
            for q in ps {
                collect(q, pairs, unions, singles);
            }
        }
        Pred::Not(q) => collect(q, pairs, unions, singles),
        Pred::Imp(a, b) | Pred::Iff(a, b) => {
            collect(a, pairs, unions, singles);
            collect(b, pairs, unions, singles);
        }
        Pred::Term(e) => collect_sets_expr(e, unions, singles),
    }
}

/// Conservative syntactic set-ness: constructors are definitely sets;
/// variables and applications might be. A spurious pair over non-set terms
/// only generates lemmas when its side occurs as a union leaf, so the
/// over-approximation is harmless.
fn is_setish(e: &Expr) -> bool {
    matches!(
        e,
        Expr::SetEmpty | Expr::SetSingle(_) | Expr::SetUnion(..) | Expr::Var(_) | Expr::App(..)
    )
}

fn collect_sets_expr(
    e: &Expr,
    unions: &mut std::collections::BTreeSet<Expr>,
    singles: &mut std::collections::BTreeSet<Expr>,
) {
    match e {
        Expr::SetUnion(a, b) => {
            unions.insert(e.clone());
            collect_sets_expr(a, unions, singles);
            collect_sets_expr(b, unions, singles);
        }
        Expr::SetSingle(x) => {
            singles.insert(e.clone());
            collect_sets_expr(x, unions, singles);
        }
        Expr::SetEmpty | Expr::Var(_) | Expr::Int(_) | Expr::Bool(_) => {}
        Expr::Binop(_, a, b) => {
            collect_sets_expr(a, unions, singles);
            collect_sets_expr(b, unions, singles);
        }
        Expr::Neg(a) => collect_sets_expr(a, unions, singles),
        Expr::Ite(c, t, f) => {
            let mut pairs = std::collections::BTreeSet::new();
            collect(c, &mut pairs, unions, singles);
            collect_sets_expr(t, unions, singles);
            collect_sets_expr(f, unions, singles);
        }
        Expr::App(_, args) => {
            for a in args {
                collect_sets_expr(a, unions, singles);
            }
        }
        Expr::Sel(m, i) => {
            collect_sets_expr(m, unions, singles);
            collect_sets_expr(i, unions, singles);
        }
        Expr::Upd(m, i, v) => {
            collect_sets_expr(m, unions, singles);
            collect_sets_expr(i, unions, singles);
            collect_sets_expr(v, unions, singles);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsolve_logic::parse_pred;

    fn canon(s: &str) -> String {
        canonicalize_sets(&parse_pred(s).unwrap()).to_string()
    }

    #[test]
    fn commutativity_collapses() {
        assert_eq!(canon("union(a, b) = union(b, a)"), canon("union(a, b) = union(a, b)"));
    }

    #[test]
    fn associativity_collapses() {
        assert_eq!(
            canon("union(union(a, b), c) = d"),
            canon("union(a, union(b, c)) = d")
        );
    }

    #[test]
    fn idempotence_and_unit() {
        assert_eq!(canon("union(a, a) = a"), "(a = a)");
        assert_eq!(canon("union(a, empty) = a"), "(a = a)");
        assert_eq!(canon("union(empty, empty) = empty"), "(empty = empty)");
    }

    #[test]
    fn singles_sort_with_measures() {
        // The classic elts fact: union(single x, elts xs) in any order.
        let a = canon("elts(VV) = union(single(x), elts(xs))");
        let b = canon("elts(VV) = union(elts(xs), single(x))");
        assert_eq!(a, b);
    }

    #[test]
    fn membership_expansion() {
        assert_eq!(canon("x in empty"), "false");
        assert_eq!(canon("x in single(y)"), "(x = y)");
        assert_eq!(canon("x in union(single(y), s)"), "((x in s) || (x = y))");
        assert_eq!(canon("x in s"), "(x in s)");
    }

    #[test]
    fn saturation_budget_reports_truncation() {
        // An equality whose right side mentions a union keeps producing
        // fresh union terms; a tiny budget must flag truncation.
        let p = parse_pred("s = union(single(x), t) && union(s, u) = w").unwrap();
        let (_, truncated_tiny) = set_saturation_lemma_list(&p, 0);
        assert!(truncated_tiny, "zero lemma budget must report truncation");
        let (full, truncated_full) = set_saturation_lemma_list(&p, 200);
        assert!(!truncated_full, "default budget saturates this formula");
        // The lemmas rewrite the union over `s` with its definition.
        assert!(Pred::and(full).to_string().contains("single(x)"));
    }

    #[test]
    fn nested_sets_inside_apps() {
        let a = canon("f(union(b, a)) = f(union(a, b))");
        // Both sides identical after canonicalization.
        let Pred::Atom(_, l, r) = canonicalize_sets(&parse_pred("f(union(b, a)) = f(union(a, b))").unwrap()) else {
            panic!()
        };
        assert_eq!(l, r);
        assert!(a.contains("union(a, b)"));
    }
}
