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

use crate::cnf::{AtomId, Atoms};
use crate::term::{Term, TermId};
use dsolve_logic::{Expr, Pred, Rel, SortEnv};
use dsolve_obs::{micro, MicroCounter};
use std::cmp::Ordering;
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

/// Ground *leaf-substitution* lemmas for the set theory, as predicates,
/// plus the truncation flag: the memo-less pass that
/// [`SaturationMemo::saturate`] reproduces, every union, leaf and pair
/// rewritten and every lemma rebuilt. Sessions never call it; it is the
/// reference their lemma clauses are tested against.
///
/// Call on a formula that is already in canonical form (see
/// [`canonicalize_sets`]).
pub fn set_saturation_lemma_list(p: &Pred, max_lemmas: u64) -> (Vec<Pred>, bool) {
    let (lemmas, truncated, _) = saturation_pass(p, max_lemmas);
    (lemmas, truncated)
}

/// [`set_saturation_lemma_list`], with the number of union terms taken
/// off the worklist.
fn saturation_pass(p: &Pred, max_lemmas: u64) -> (Vec<Pred>, bool, u64) {
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
                    let mut repl: Vec<Expr> = leaves.iter().filter(|l| *l != x).cloned().collect();
                    flatten_set(t, &mut repl);
                    let rebuilt = canon_of_leaves(repl);
                    if rebuilt != u {
                        lemmas.push(Pred::imp(
                            Pred::eq(s.clone(), t.clone()),
                            Pred::eq(u.clone(), rebuilt.clone()),
                        ));
                        if matches!(rebuilt, Expr::SetUnion(..)) && seen.insert(rebuilt.clone()) {
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

/// A lemma clause: literals over the session's atoms, `true` for the
/// atom itself and `false` for its negation.
pub(crate) type LemmaClause = Vec<(AtomId, bool)>;

/// What one check's saturation hands the SAT core.
pub(crate) struct Saturation {
    /// The lemma clauses the memo has not handed out before, in order.
    pub(crate) clauses: Vec<LemmaClause>,
    /// Whether the lemma budget ran out before saturation completed.
    pub(crate) truncated: bool,
}

/// Set saturation for the lifetime of one SMT session.
///
/// Every check of a session saturates its whole asserted conjunction
/// again (saturation interacts across asserted predicates), and most of
/// a check's lemmas were handed out by an earlier one: each consequent
/// of a batch re-derives its antecedent's. The memo interns set terms to
/// ids, caches each term's flattened leaves and each `(union, leaf,
/// replacement)` rewrite, and records every lemma it has handed out, so
/// a repeated derivation costs a few id lookups. A rewrite's union is
/// its sorted leaf ids, with no expression built for it. Each lemma is
/// handed out as one clause over the session's atoms, its terms the
/// session arena's (a union a rewrite built becomes `$union` nodes over
/// its leaves' terms). Nothing is forgotten on a scope pop: the session
/// retains every lemma clause across pops, so a lemma handed out once
/// never needs handing out again.
#[derive(Default)]
pub(crate) struct SaturationMemo {
    /// Interned set terms, indexed by id.
    terms: Vec<MemoTerm>,
    /// The id of each interned expression.
    ids: HashMap<Expr, u32>,
    /// The id of each union, by its leaves (for a canonical union, the
    /// one leaf list that spells it).
    unions: HashMap<Arc<[u32]>, u32>,
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

#[derive(Default)]
struct MemoTerm {
    /// The expression the term was interned from; `None` for a union
    /// only a rewrite built.
    expr: Option<Expr>,
    /// The term's leaves as [`flatten_set`] lists them, on first use
    /// (from creation on, for unions).
    leaves: Option<Arc<[u32]>>,
    /// The display form, for terms that occur as leaves: canonical leaf
    /// order sorts by it.
    key: Option<Box<str>>,
    /// The term in the session's arena, once a lemma mentions it.
    term: Option<TermId>,
}

impl SaturationMemo {
    /// The ground leaf-substitution lemmas of the conjunction of
    /// `conjuncts` that this memo has not handed out before, as clauses
    /// over `atoms` (whose terms are sorted by `env`), plus a flag that is
    /// `true` when the lemma budget ran out before saturation completed.
    /// An `ite` in a lemma's terms is lifted as flattening lifts it, so
    /// its definition waits in the arena for the encoder.
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
    /// s = t  ⇒  u = canon(u[x := t])      the clause [¬(x = t), u = r]
    /// ```
    ///
    /// New union terms produced on the right enter the worklist, bounded
    /// by the `max_lemmas` budget, which every (union, leaf, pair) match
    /// of this call spends, handed out before or not. Non-emptiness
    /// (`[¬(u = empty)]` for sets with a singleton leaf) and singleton
    /// injectivity (`[¬(single a = single b), a = b]`) are instantiated
    /// for the terms present. Each lemma is a valid fact of the set
    /// theory, so sessions feed them to the SAT core as retained lemma
    /// clauses. A guard's atom is the asserted equality's own.
    ///
    /// The pass, its order and its budget are those of the memo-less
    /// [`set_saturation_lemma_list`] over the conjunction; the result is
    /// the clauses of that pass's lemmas minus the lemmas this memo
    /// handed out before, in the same order. The micro-counters count the
    /// whole pass (`SetsSaturationLemmas` every lemma it derives, new or
    /// not).
    ///
    /// A truncated lemma set only ever *weakens* the formula, so `Unsat`
    /// answers derived from it remain sound — but a `Sat` answer may be
    /// spurious, and callers must report the truncation rather than
    /// trust it.
    ///
    /// Call on formulas already in canonical form (see
    /// [`canonicalize_sets`]).
    pub(crate) fn saturate(
        &mut self,
        conjuncts: &[Pred],
        max_lemmas: u64,
        atoms: &mut Atoms,
        env: &SortEnv,
    ) -> Saturation {
        // Collect equality pairs over set-shaped sides and all union terms.
        let mut pairs: BTreeSet<(Expr, Expr)> = BTreeSet::new();
        let mut unions: BTreeSet<Expr> = BTreeSet::new();
        let mut singles: BTreeSet<Expr> = BTreeSet::new();
        for p in conjuncts {
            collect(p, &mut pairs, &mut unions, &mut singles);
        }

        // The right sides paired with each left side, in pair order.
        let mut partners: HashMap<u32, Vec<u32>> = HashMap::new();
        for (s, t) in pairs {
            let s = self.intern(s);
            let t = self.intern(t);
            partners.entry(s).or_default().push(t);
        }

        let mut out = Saturation {
            clauses: Vec::new(),
            truncated: false,
        };
        let mut derived = 0u64;
        let mut work: Vec<u32> = unions.into_iter().map(|u| self.intern(u)).collect();
        let mut seen: HashSet<u32> = work.iter().copied().collect();
        let mut budget = max_lemmas;
        let mut union_terms = 0u64;

        'saturate: while let Some(u) = work.pop() {
            union_terms += 1;
            let leaves = self.leaves(u);
            for &x in leaves.iter() {
                let Some(ts) = partners.get(&x) else { continue };
                for &t in ts {
                    if budget == 0 {
                        out.truncated = true;
                        break 'saturate;
                    }
                    budget -= 1;
                    let rebuilt = match self.rewrites.get(&(u, x, t)) {
                        Some(&rebuilt) => rebuilt,
                        None => {
                            let rebuilt = self.rewrite(&leaves, x, t);
                            self.rewrites.insert((u, x, t), rebuilt);
                            if rebuilt != u {
                                let guard = self.eq_atom(x, t, atoms, env);
                                let conclusion = self.eq_atom(u, rebuilt, atoms, env);
                                out.clauses.push(vec![(guard, false), (conclusion, true)]);
                            }
                            rebuilt
                        }
                    };
                    if rebuilt != u {
                        derived += 1;
                        if self.is_union(rebuilt) && seen.insert(rebuilt) {
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
            if leaves.iter().any(|&l| self.is_single(l)) {
                derived += 1;
                if self.nonempty.insert(u) {
                    fresh.push(u);
                }
            }
        }
        fresh.sort_by(|&a, &b| self.cmp_unions(a, b));
        let singles: Vec<u32> = singles.into_iter().map(|s| self.intern(s)).collect();
        derived += singles.len() as u64;
        for &s in &singles {
            if self.nonempty.insert(s) {
                fresh.push(s);
            }
        }
        for u in fresh {
            let u = self.term_of(u, atoms, env);
            let empty = atoms.arena.empty_set();
            out.clauses.push(vec![(atoms.eq_atom(u, empty), false)]);
        }

        // Singleton injectivity.
        for (i, &a) in singles.iter().enumerate() {
            for &b in &singles[i + 1..] {
                derived += 1;
                if !self.injective.insert((a, b)) {
                    continue;
                }
                let guard = self.eq_atom(a, b, atoms, env);
                let ea = self.element(a, atoms, env);
                let eb = self.element(b, atoms, env);
                out.clauses
                    .push(vec![(guard, false), (atoms.eq_atom(ea, eb), true)]);
            }
        }

        micro::add(MicroCounter::SetsUnionTerms, union_terms);
        micro::add(MicroCounter::SetsSaturationLemmas, derived);
        out
    }

    fn intern(&mut self, e: Expr) -> u32 {
        if let Some(&id) = self.ids.get(&e) {
            return id;
        }
        let id = if matches!(e, Expr::SetUnion(..)) {
            // A union a rewrite already built is this one.
            let leaves = self.leaves_of(&e);
            match self.unions.get(&leaves) {
                Some(&id) => id,
                None => {
                    let id = self.push(MemoTerm {
                        expr: Some(e.clone()),
                        leaves: Some(Arc::clone(&leaves)),
                        ..MemoTerm::default()
                    });
                    self.unions.insert(leaves, id);
                    id
                }
            }
        } else {
            self.push(MemoTerm {
                expr: Some(e.clone()),
                ..MemoTerm::default()
            })
        };
        self.ids.insert(e, id);
        id
    }

    fn push(&mut self, term: MemoTerm) -> u32 {
        let id = u32::try_from(self.terms.len()).expect("saturation memo overflow");
        self.terms.push(term);
        id
    }

    /// The leaves of term `id`, as [`flatten_set`] lists them.
    fn leaves(&mut self, id: u32) -> Arc<[u32]> {
        let term = &self.terms[id as usize];
        if let Some(leaves) = &term.leaves {
            return Arc::clone(leaves);
        }
        let mut exprs = Vec::new();
        let expr = term.expr.as_ref();
        flatten_set(
            expr.expect("a term without leaves has its expression"),
            &mut exprs,
        );
        let leaves = self.intern_leaves(exprs);
        self.terms[id as usize].leaves = Some(Arc::clone(&leaves));
        leaves
    }

    /// The interned leaves of `e`, each with its display form.
    fn leaves_of(&mut self, e: &Expr) -> Arc<[u32]> {
        let mut exprs = Vec::new();
        flatten_set(e, &mut exprs);
        self.intern_leaves(exprs)
    }

    fn intern_leaves(&mut self, exprs: Vec<Expr>) -> Arc<[u32]> {
        exprs
            .into_iter()
            .map(|l| {
                let l = self.intern(l);
                let term = &mut self.terms[l as usize];
                if term.key.is_none() {
                    term.key = term.expr.as_ref().map(|e| e.to_string().into());
                }
                l
            })
            .collect()
    }

    /// Whether term `id` is a union: one built by a rewrite, or one
    /// interned from an expression.
    fn is_union(&self, id: u32) -> bool {
        self.terms[id as usize]
            .expr
            .as_ref()
            .is_none_or(|e| matches!(e, Expr::SetUnion(..)))
    }

    fn is_single(&self, id: u32) -> bool {
        matches!(self.terms[id as usize].expr, Some(Expr::SetSingle(_)))
    }

    /// The canonical union of `leaves` with `x` replaced by the leaves of
    /// `t`: [`canon_of_leaves`] over ids, with the display forms cached.
    fn rewrite(&mut self, leaves: &[u32], x: u32, t: u32) -> u32 {
        let mut repl: Vec<u32> = leaves.iter().copied().filter(|&l| l != x).collect();
        repl.extend(self.leaves(t).iter().copied());
        let key = |l: u32| self.terms[l as usize].key.as_deref();
        repl.sort_by(|&a, &b| key(a).cmp(&key(b)));
        repl.dedup();
        match repl[..] {
            [] => self.intern(Expr::SetEmpty),
            [leaf] => leaf,
            _ => {
                let leaves: Arc<[u32]> = repl.into();
                if let Some(&id) = self.unions.get(&leaves) {
                    return id;
                }
                let id = self.push(MemoTerm {
                    leaves: Some(Arc::clone(&leaves)),
                    ..MemoTerm::default()
                });
                self.unions.insert(leaves, id);
                id
            }
        }
    }

    /// Orders two unions as `Expr`'s derived order orders their
    /// right-nested forms, from their leaves: leaf by leaf, and a union
    /// that ends first (its tail a leaf, not a union) first.
    fn cmp_unions(&self, a: u32, b: u32) -> Ordering {
        let leaves = |id: u32| {
            self.terms[id as usize]
                .leaves
                .as_deref()
                .unwrap_or_default()
        };
        let expr = |id: u32| self.terms[id as usize].expr.as_ref();
        let (mut a, mut b) = (leaves(a), leaves(b));
        loop {
            match (a, b) {
                ([x], [y]) => return expr(*x).cmp(&expr(*y)),
                ([_], _) => return Ordering::Less,
                (_, [_]) => return Ordering::Greater,
                ([x, ra @ ..], [y, rb @ ..]) => match expr(*x).cmp(&expr(*y)) {
                    Ordering::Equal => (a, b) = (ra, rb),
                    order => return order,
                },
                _ => unreachable!("a union has two leaves or more"),
            }
        }
    }

    /// The atom `lhs = rhs` over the terms of two memo terms.
    fn eq_atom(&mut self, lhs: u32, rhs: u32, atoms: &mut Atoms, env: &SortEnv) -> AtomId {
        let lhs = self.term_of(lhs, atoms, env);
        let rhs = self.term_of(rhs, atoms, env);
        atoms.eq_atom(lhs, rhs)
    }

    /// The arena term of the element of singleton `single`.
    fn element(&mut self, single: u32, atoms: &mut Atoms, env: &SortEnv) -> TermId {
        let single = self.term_of(single, atoms, env);
        match atoms.arena.term(single) {
            Term::App(_, args) => args[0],
            _ => unreachable!("a singleton flattens to `$single`"),
        }
    }

    /// The arena term of memo term `id`: its expression flattened, or for
    /// a union a rewrite built, `$union` nodes over its leaves' terms,
    /// right-nested as flattening the union's expression would build them.
    fn term_of(&mut self, id: u32, atoms: &mut Atoms, env: &SortEnv) -> TermId {
        if let Some(t) = self.terms[id as usize].term {
            return t;
        }
        let t = match &self.terms[id as usize].expr {
            Some(e) => atoms.arena.flatten(e, env),
            None => {
                let leaves = self.leaves(id);
                let terms: Vec<TermId> = leaves
                    .iter()
                    .map(|&l| self.term_of(l, atoms, env))
                    .collect();
                let mut rev = terms.into_iter().rev();
                let last = rev.next().expect("a union has leaves");
                rev.fold(last, |acc, l| atoms.arena.union(l, acc))
            }
        };
        self.terms[id as usize].term = Some(t);
        t
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
    use dsolve_logic::{parse_pred, Sort, Symbol};
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

    /// The clause of an oracle lemma over the session's atoms: an
    /// implication is `[¬guard, conclusion]`, an atom its own literal.
    fn clause_of(lemma: &Pred, atoms: &mut Atoms, env: &SortEnv) -> LemmaClause {
        let mut lit = |p: &Pred| match p {
            Pred::Atom(rel, a, b) => atoms.atom_of_rel(*rel, a, b, env),
            other => panic!("lemma literal `{other}` is no atom"),
        };
        match lemma {
            Pred::Imp(guard, conclusion) => {
                let (g, pos) = lit(guard);
                vec![(g, !pos), lit(conclusion)]
            }
            atom => vec![lit(atom)],
        }
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
        let (all, truncated, union_terms) = saturation_pass(&conj, cap);
        session.encode_pending();
        micro::drain();
        let got = session.derive_lemmas(cap);
        let work = micro::drain();
        let (atoms, env) = session.atoms_and_env();
        let new: Vec<LemmaClause> = all
            .iter()
            .filter(|l| offered.insert((*l).clone()))
            .map(|l| clause_of(l, atoms, env))
            .collect();
        assert_eq!(got.sets.clauses, new, "new lemmas, cap {cap}, on `{conj}`");
        assert_eq!(
            got.sets.truncated, truncated,
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
        let arrays = array_axiom_lemmas([&conj]);
        assert_eq!(
            arrays,
            array_axiom_lemmas(std::iter::once(&conj).chain(&all)),
            "set lemmas add array instances, cap {cap}, on `{conj}`"
        );
        assert_eq!(got.arrays, arrays, "array lemmas, cap {cap}, on `{conj}`");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// Random assert/push/check/pop sequences through one session:
        /// at every check, the memo hands out exactly the clauses of the
        /// oracle's lemmas minus those the session was given before, in
        /// the oracle's order, with the oracle's truncation flag and
        /// counters, at every saturation cap; and the set lemmas add no
        /// array instance.
        #[test]
        fn session_saturation_matches_oracle(
            ops in prop::collection::vec((0u8..4, arb_pred()), 1..16),
        ) {
            let env = memo_env();
            for cap in [0, 1, 3, 200] {
                let mut session = Session::new(&env, false);
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
