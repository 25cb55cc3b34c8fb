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
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

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
        Expr::SetUnion(l, r) => Pred::or(vec![expand_membership(e, l), expand_membership(e, r)]),
        opaque => Pred::mem(e.clone(), opaque.clone()),
    }
}

/// Canonicalizes an expression (recursing into non-set structure too).
fn canon_expr(e: &Expr) -> Expr {
    match e {
        Expr::SetEmpty | Expr::SetSingle(_) | Expr::SetUnion(_, _) => canon_set(e),
        Expr::Var(_) | Expr::Int(_) | Expr::Bool(_) => e.clone(),
        Expr::Binop(op, a, b) => Expr::Binop(*op, Box::new(canon_expr(a)), Box::new(canon_expr(b))),
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
    canon_of_leaves(leaves)
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

/// Sorts leaves by display form (stable, deterministic), de-duplicates
/// them and rebuilds a right-nested union.
fn canon_of_leaves(mut leaves: Vec<Expr>) -> Expr {
    leaves.sort_by_cached_key(|l| l.to_string());
    leaves.dedup();
    right_nested_union(leaves)
}

/// `union(l1, union(l2, … ln))`, or `empty` for no leaves.
fn right_nested_union(leaves: Vec<Expr>) -> Expr {
    let mut it = leaves.into_iter().rev();
    let Some(mut acc) = it.next() else {
        return Expr::SetEmpty;
    };
    for l in it {
        acc = Expr::union(l, acc);
    }
    acc
}

/// Ground *leaf-substitution* lemmas for the set theory, derived once
/// from `p` on a fresh [`SaturationMemo`]: every lemma of the pass is new
/// to it. See [`SaturationMemo::saturate`] for the lemmas and the
/// truncation flag.
///
/// Call on a formula that is already in canonical form (see
/// [`canonicalize_sets`]).
pub fn set_saturation_lemma_list(p: &Pred, max_lemmas: u64) -> (Vec<Pred>, bool) {
    SaturationMemo::default().saturate(p, max_lemmas)
}

/// Set saturation for the lifetime of one SMT session.
///
/// Every check of a session saturates its whole asserted conjunction
/// again (saturation interacts across asserted predicates), and most of
/// a check's lemmas were handed out by an earlier one: each consequent
/// of a batch re-derives its antecedent's. The memo interns set terms to
/// ids, caches each term's flattened leaves and each `(union, leaf,
/// replacement)` rewrite, and records every lemma it has handed out, so
/// a repeated derivation costs a few id lookups instead of rebuilding,
/// cloning and hashing a lemma predicate. Nothing is forgotten on a
/// scope pop: the session retains every lemma clause across pops, so a
/// lemma handed out once never needs handing out again.
#[derive(Default)]
pub(crate) struct SaturationMemo {
    /// Interned set terms, indexed by id.
    terms: Vec<MemoTerm>,
    /// The id of each interned term.
    ids: HashMap<Expr, u32>,
    /// `(union, leaf, replacement)` → the union with that leaf replaced
    /// by the replacement's leaves. An entry exists exactly when its
    /// substitution lemma (if the rewrite changes the union) was handed
    /// out.
    rewrites: HashMap<(u32, u32, u32), u32>,
    /// Set terms whose non-emptiness lemma was handed out.
    nonempty: HashSet<u32>,
    /// Singleton pairs whose injectivity lemma was handed out.
    injective: HashSet<(u32, u32)>,
}

struct MemoTerm {
    expr: Expr,
    /// The term's leaves as [`flatten_set`] lists them, on first use.
    leaves: Option<Arc<[u32]>>,
    /// The display form, for terms that occur as leaves: canonical leaf
    /// order sorts by it.
    key: Option<Box<str>>,
}

impl SaturationMemo {
    /// The ground leaf-substitution lemmas of `p` that this memo has not
    /// handed out before, plus a flag that is `true` when the lemma
    /// budget ran out before saturation completed.
    ///
    /// ACI1 canonicalization is syntactic, so an equality discovered at
    /// solve time (`elts xs = empty`, `elts zs = union(elts xs, elts ys)`)
    /// cannot re-flatten the union terms that mention its left-hand side.
    /// This pass closes the gap with guarded ground instances: for every
    /// canonical union term `u` with leaf `x`, and every set equality
    /// atom `s = t` in the formula with `s` syntactically equal to `x`
    /// (either orientation),
    ///
    /// ```text
    /// s = t  ⇒  u = canon(u[x := t])
    /// ```
    ///
    /// New union terms produced on the right enter the worklist, bounded
    /// by the `max_lemmas` budget, which every (union, leaf, pair) match
    /// of this call spends, handed out before or not. Non-emptiness
    /// (`u ≠ empty` for sets with a singleton leaf) and singleton
    /// injectivity (`single a = single b ⇒ a = b`) are instantiated for
    /// the terms present. Each lemma is a valid fact of the set theory,
    /// so sessions feed them to the SAT core as retained lemma clauses.
    ///
    /// The pass, its order and its budget are those of a memo-less pass
    /// over `p`; the result is that pass's lemma list minus the lemmas
    /// this memo handed out before, in the same order. The micro-counters
    /// count the whole pass (`SetsSaturationLemmas` every lemma it
    /// derives, new or not).
    ///
    /// A truncated lemma set only ever *weakens* the formula, so `Unsat`
    /// answers derived from it remain sound — but a `Sat` answer may be
    /// spurious, and callers must report the truncation rather than
    /// trust it.
    ///
    /// Call on a formula that is already in canonical form (see
    /// [`canonicalize_sets`]).
    pub(crate) fn saturate(&mut self, p: &Pred, max_lemmas: u64) -> (Vec<Pred>, bool) {
        // Collect equality pairs over set-shaped sides and all union terms.
        let mut pairs: BTreeSet<(Expr, Expr)> = BTreeSet::new();
        let mut unions: BTreeSet<Expr> = BTreeSet::new();
        let mut singles: BTreeSet<Expr> = BTreeSet::new();
        collect(p, &mut pairs, &mut unions, &mut singles);

        // The right sides paired with each left side, in pair order.
        let mut partners: HashMap<u32, Vec<u32>> = HashMap::new();
        for (s, t) in pairs {
            let s = self.intern(s);
            let t = self.intern(t);
            partners.entry(s).or_default().push(t);
        }

        let mut lemmas: Vec<Pred> = Vec::new();
        let mut derived = 0u64;
        let mut work: Vec<u32> = unions.into_iter().map(|u| self.intern(u)).collect();
        let mut seen: HashSet<u32> = work.iter().copied().collect();
        let mut budget = max_lemmas;
        let mut truncated = false;
        let mut union_terms = 0u64;

        'saturate: while let Some(u) = work.pop() {
            union_terms += 1;
            let leaves = self.leaves(u);
            for &x in leaves.iter() {
                let Some(ts) = partners.get(&x) else { continue };
                for &t in ts {
                    if budget == 0 {
                        truncated = true;
                        break 'saturate;
                    }
                    budget -= 1;
                    let rebuilt = match self.rewrites.get(&(u, x, t)) {
                        Some(&rebuilt) => rebuilt,
                        None => {
                            let rebuilt = self.rewrite(&leaves, x, t);
                            self.rewrites.insert((u, x, t), rebuilt);
                            if rebuilt != u {
                                lemmas.push(Pred::imp(
                                    Pred::eq(self.expr(x).clone(), self.expr(t).clone()),
                                    Pred::eq(self.expr(u).clone(), self.expr(rebuilt).clone()),
                                ));
                            }
                            rebuilt
                        }
                    };
                    if rebuilt != u {
                        derived += 1;
                        if matches!(self.expr(rebuilt), Expr::SetUnion(..)) && seen.insert(rebuilt)
                        {
                            work.push(rebuilt);
                        }
                    }
                }
            }
        }

        // Non-emptiness: any canonical set containing a singleton leaf is
        // distinct from `empty` (an axiom of the finite-set theory the
        // measure examples of §4.2 rely on for dead-branch detection).
        // The memo-less pass lists these in term order.
        let mut fresh: Vec<u32> = Vec::new();
        for &u in &seen {
            let leaves = self.leaves(u);
            if leaves
                .iter()
                .any(|&l| matches!(self.expr(l), Expr::SetSingle(_)))
            {
                derived += 1;
                if self.nonempty.insert(u) {
                    fresh.push(u);
                }
            }
        }
        fresh.sort_by(|&a, &b| self.expr(a).cmp(self.expr(b)));
        let singles: Vec<u32> = singles.into_iter().map(|s| self.intern(s)).collect();
        derived += singles.len() as u64;
        for &s in &singles {
            if self.nonempty.insert(s) {
                fresh.push(s);
            }
        }
        for u in fresh {
            lemmas.push(Pred::ne(self.expr(u).clone(), Expr::SetEmpty));
        }

        // Singleton injectivity.
        for (i, &a) in singles.iter().enumerate() {
            for &b in &singles[i + 1..] {
                derived += 1;
                if !self.injective.insert((a, b)) {
                    continue;
                }
                if let (Expr::SetSingle(ea), Expr::SetSingle(eb)) = (self.expr(a), self.expr(b)) {
                    lemmas.push(Pred::imp(
                        Pred::eq(self.expr(a).clone(), self.expr(b).clone()),
                        Pred::eq((**ea).clone(), (**eb).clone()),
                    ));
                }
            }
        }

        micro::add(MicroCounter::SetsUnionTerms, union_terms);
        micro::add(MicroCounter::SetsSaturationLemmas, derived);
        (lemmas, truncated)
    }

    fn expr(&self, id: u32) -> &Expr {
        &self.terms[id as usize].expr
    }

    fn intern(&mut self, e: Expr) -> u32 {
        match self.ids.entry(e) {
            Entry::Occupied(o) => *o.get(),
            Entry::Vacant(v) => {
                let id = self.terms.len() as u32;
                self.terms.push(MemoTerm {
                    expr: v.key().clone(),
                    leaves: None,
                    key: None,
                });
                v.insert(id);
                id
            }
        }
    }

    /// The leaves of term `id`, as [`flatten_set`] lists them.
    fn leaves(&mut self, id: u32) -> Arc<[u32]> {
        if let Some(leaves) = &self.terms[id as usize].leaves {
            return Arc::clone(leaves);
        }
        let mut exprs = Vec::new();
        flatten_set(self.expr(id), &mut exprs);
        let leaves: Arc<[u32]> = exprs
            .into_iter()
            .map(|l| {
                let l = self.intern(l);
                let term = &mut self.terms[l as usize];
                if term.key.is_none() {
                    term.key = Some(term.expr.to_string().into());
                }
                l
            })
            .collect();
        self.terms[id as usize].leaves = Some(Arc::clone(&leaves));
        leaves
    }

    /// The canonical union of `leaves` with `x` replaced by the leaves of
    /// `t`: [`canon_of_leaves`] over ids, with the display forms cached.
    fn rewrite(&mut self, leaves: &[u32], x: u32, t: u32) -> u32 {
        let mut repl: Vec<u32> = leaves.iter().copied().filter(|&l| l != x).collect();
        repl.extend(self.leaves(t).iter().copied());
        let key = |l: u32| self.terms[l as usize].key.as_deref();
        repl.sort_by(|&a, &b| key(a).cmp(&key(b)));
        repl.dedup();
        let canon = right_nested_union(repl.into_iter().map(|l| self.expr(l).clone()).collect());
        self.intern(canon)
    }
}

fn collect(
    p: &Pred,
    pairs: &mut BTreeSet<(Expr, Expr)>,
    unions: &mut BTreeSet<Expr>,
    singles: &mut BTreeSet<Expr>,
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

fn collect_sets_expr(e: &Expr, unions: &mut BTreeSet<Expr>, singles: &mut BTreeSet<Expr>) {
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
            let mut pairs = BTreeSet::new();
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
    use crate::arrays::array_axiom_lemmas;
    use crate::session::Session;
    use dsolve_logic::{parse_pred, Sort, SortEnv, Symbol};
    use proptest::prelude::*;

    fn canon(s: &str) -> String {
        canonicalize_sets(&parse_pred(s).unwrap()).to_string()
    }

    #[test]
    fn commutativity_collapses() {
        assert_eq!(
            canon("union(a, b) = union(b, a)"),
            canon("union(a, b) = union(a, b)")
        );
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
        let Pred::Atom(_, l, r) =
            canonicalize_sets(&parse_pred("f(union(b, a)) = f(union(a, b))").unwrap())
        else {
            panic!()
        };
        assert_eq!(l, r);
        assert!(a.contains("union(a, b)"));
    }

    /// The per-check saturation pass without a memo: every union, leaf
    /// and pair rewritten and every lemma rebuilt on each call. The test
    /// oracle of [`SaturationMemo`]. Returns the lemmas, the truncation
    /// flag, and the number of union terms taken off the worklist.
    fn oracle_lemma_list(p: &Pred, max_lemmas: u64) -> (Vec<Pred>, bool, u64) {
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
                        let mut repl: Vec<Expr> =
                            leaves.iter().filter(|l| *l != x).cloned().collect();
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
        (lemmas, truncated, union_terms)
    }

    #[cfg(feature = "slow-proptest")]
    const CASES: u32 = 256;
    #[cfg(not(feature = "slow-proptest"))]
    const CASES: u32 = 32;

    fn memo_env() -> SortEnv {
        let mut env = SortEnv::new();
        for v in ["x", "y", "z"] {
            env.bind(Symbol::new(v), Sort::Int);
        }
        for v in ["s", "t", "u"] {
            env.bind(Symbol::new(v), Sort::Set);
        }
        for v in ["m", "n"] {
            env.bind(Symbol::new(v), Sort::Map);
        }
        env
    }

    /// Set-heavy atoms: the set facts of the SMT differential suite
    /// (unions over equated set variables), singletons, and array terms
    /// inside and beside sets.
    const POOL: [&str; 14] = [
        "t = u",
        "s = t => t = union(s, t)",
        "u = union(t, single(x)) && t = union(u, single(x))",
        "s = union(t, single(x))",
        "s = t",
        "y in union(s, t)",
        "s = single(x)",
        "t = single(y)",
        "single(x) = single(z)",
        "u = union(single(y), single(z))",
        "s = empty",
        "union(s, single(y)) = union(t, u)",
        "s = union(t, single(Sel(m, x)))",
        "n = Upd(m, x, 1) && Sel(n, y) = 0",
    ];

    fn arb_pred() -> BoxedStrategy<Pred> {
        (0usize..POOL.len())
            .prop_map(|i| parse_pred(POOL[i]).unwrap())
            .prop_recursive(2, 8, 2, |inner| {
                prop_oneof![
                    inner.clone().prop_map(Pred::not),
                    (inner.clone(), inner.clone()).prop_map(|(p, q)| Pred::and(vec![p, q])),
                    (inner.clone(), inner).prop_map(|(p, q)| Pred::imp(p, q)),
                ]
            })
    }

    /// One check of [`session_saturation_matches_oracle`]: the session's
    /// lemmas against the oracle's over the live assertions.
    fn check_against_oracle(
        session: &mut Session,
        frames: &[Vec<Pred>],
        offered: &mut HashSet<Pred>,
        cap: u64,
    ) {
        let conj = Pred::and(frames.concat());
        let (all, truncated, union_terms) = oracle_lemma_list(&conj, cap);
        let new: Vec<Pred> = all
            .iter()
            .filter(|l| offered.insert((*l).clone()))
            .cloned()
            .collect();
        micro::drain();
        let got = session.derive_lemmas(cap);
        let work = micro::drain();
        assert_eq!(got.sets, new, "new lemmas, cap {cap}, on `{conj}`");
        assert_eq!(
            got.saturation_truncated, truncated,
            "truncation, cap {cap}, on `{conj}`"
        );
        assert_eq!(
            work.micro[MicroCounter::SetsSaturationLemmas.index()],
            all.len() as u64,
            "lemmas derived, cap {cap}, on `{conj}`"
        );
        assert_eq!(
            work.micro[MicroCounter::SetsUnionTerms.index()],
            union_terms,
            "union terms, cap {cap}, on `{conj}`"
        );
        assert_eq!(
            got.arrays,
            array_axiom_lemmas(std::iter::once(&conj).chain(&all)),
            "array lemmas, cap {cap}, on `{conj}`"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// Random assert/push/check/pop sequences through one session:
        /// at every check, the memo hands out exactly the oracle's lemmas
        /// minus those the session was given before, in the oracle's
        /// order, with the oracle's truncation flag, counters and array
        /// lemmas, at every saturation cap.
        #[test]
        fn session_saturation_matches_oracle(
            ops in prop::collection::vec((0u8..4, arb_pred()), 1..16),
        ) {
            for cap in [0, 1, 3, 200] {
                let mut session = Session::new(memo_env(), true, false);
                let mut frames: Vec<Vec<Pred>> = vec![Vec::new()];
                let mut offered = HashSet::new();
                for (op, p) in &ops {
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
                            session.assert_pred(p);
                            frames.last_mut().unwrap().push(canonicalize_sets(p));
                        }
                        _ => check_against_oracle(&mut session, &frames, &mut offered, cap),
                    }
                }
                check_against_oracle(&mut session, &frames, &mut offered, cap);
            }
        }
    }
}
