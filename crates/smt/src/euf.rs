//! Congruence closure for equality with uninterpreted functions.
//!
//! The classic union-find + signature-table algorithm: asserted equalities
//! merge classes, congruent applications (same head, pairwise-equal
//! arguments) are merged transitively, and a conflict is reported when a
//! disequality spans one class or a class contains two distinct constants
//! (integer literals, `true`/`false`).
//!
//! The engine works on the terms it is given, not on the whole arena:
//! asserting a literal registers its terms and their subterms, and the
//! congruence and conflict passes range over those alone. It does not
//! borrow the arena — a long-lived engine sees the arena grow between
//! checks — so each call that may register terms takes it, and an
//! application's head symbol is stored when the application is
//! registered.
//!
//! Every merge also records a *proof-forest* edge — the asserted equality
//! behind it, or the congruence of two applications — so that two terms
//! in one class can be explained by the reasons on the forest path
//! between them, recursing into the arguments of congruence edges
//! (Nieuwenhuis & Oliveras, *Fast congruence closure and extensions*,
//! 2007). A conflict is explained this way ([`Euf::conflict`]).

use crate::{Term, TermArena, TermId};
use dsolve_logic::Symbol;
use dsolve_obs::{micro, MicroCounter};
use std::collections::HashMap;

/// Result of a congruence-closure run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EufResult {
    /// The asserted literals are consistent in EUF.
    Sat,
    /// A conflict was detected (merged disequality or clashing constants).
    Unsat,
}

/// Why two terms were merged.
#[derive(Clone, Copy, Debug)]
enum Why {
    /// An asserted equality, with the caller's reason tag.
    Asserted(u32),
    /// Two applications with one head and pairwise-equal arguments.
    Congruent,
}

/// One performed merge: the union-find link it set (for undo) and the
/// proof-forest edge it added between the two terms that caused it.
#[derive(Clone, Copy, Debug)]
struct Merge {
    child: u32,
    root: u32,
    rank_bumped: bool,
    a: u32,
    b: u32,
    why: Why,
}

/// Congruence closure engine over the terms of a [`TermArena`].
///
/// Terms are numbered locally in registration order. The engine
/// supports assertion scopes: [`Euf::push`] snapshots the state and
/// [`Euf::pop`] rolls back every merge (with its proof-forest edge),
/// disequality, pending assertion, and term registration made since,
/// by replaying the merge trail in reverse. Union is by rank *without*
/// path compression — compressed parent pointers could skip across a
/// scope boundary and survive the rollback — so `find` stays O(log n)
/// instead of O(α(n)), a fine trade at this scale.
#[derive(Default)]
pub struct Euf {
    /// Local number of each registered term.
    local: HashMap<TermId, u32>,
    /// Registered terms, by local number.
    terms: Vec<TermId>,
    /// Local numbers of each registered term's arguments (empty unless
    /// it is an application).
    args: Vec<Vec<u32>>,
    /// Registered applications with their head symbols, and
    /// interpreted constants.
    apps: Vec<(u32, Symbol)>,
    consts: Vec<u32>,
    parent: Vec<u32>,
    rank: Vec<u32>,
    /// Proof-forest adjacency: indices into `merges` of each term's
    /// edges, in creation order.
    adj: Vec<Vec<u32>>,
    /// Asserted disequalities, with reason tags.
    diseqs: Vec<(u32, u32, u32)>,
    /// Asserted equalities with reason tags, append-only; `applied`
    /// marks how many have been merged into the union-find so far. A
    /// rollback rewinds `applied` instead of losing assertions that were
    /// merged late.
    eqs: Vec<(u32, u32, u32)>,
    applied: usize,
    /// Performed merges, in order: the undo trail and the proof forest.
    merges: Vec<Merge>,
    /// Scope marks, one per open scope.
    scopes: Vec<ScopeMark>,
    /// Reasons behind the last conflict.
    conflict: Vec<u32>,
    /// Lifetime work counters, flushed as deltas to the thread-local
    /// micro accumulator at the end of each [`Euf::check`].
    n_merges: u64,
    n_congruence_pairs: u64,
}

/// Watermarks of one open scope: the lengths of the merge trail, the
/// assertion logs and the registration lists, and the `applied` cursor,
/// at push time.
#[derive(Clone, Copy, Debug)]
struct ScopeMark {
    merges: usize,
    diseqs: usize,
    eqs: usize,
    applied: usize,
    terms: usize,
    apps: usize,
    consts: usize,
}

impl Euf {
    /// Creates an empty closure engine.
    pub fn new() -> Euf {
        Euf::default()
    }

    /// Registers `t` (a term of `arena`) and its subterms — a no-op for
    /// known terms — so that congruence covers them until the scope
    /// that registered them is popped.
    pub(crate) fn add_term(&mut self, arena: &TermArena, t: TermId) {
        self.intern(arena, t);
    }

    /// Registers `t` and its subterms; returns `t`'s local number.
    fn intern(&mut self, arena: &TermArena, t: TermId) -> u32 {
        if let Some(&l) = self.local.get(&t) {
            return l;
        }
        let term = arena.term(t);
        let args = match term {
            Term::App(_, args) => args.iter().map(|&a| self.intern(arena, a)).collect(),
            _ => Vec::new(),
        };
        let l = u32::try_from(self.terms.len()).expect("EUF term overflow");
        match term {
            Term::App(f, _) => self.apps.push((l, *f)),
            Term::Int(_) | Term::Bool(_) => self.consts.push(l),
            Term::Var(..) => {}
        }
        self.local.insert(t, l);
        self.terms.push(t);
        self.args.push(args);
        self.parent.push(l);
        self.rank.push(0);
        self.adj.push(Vec::new());
        l
    }

    /// The registered terms, in registration order (every subterm before
    /// the terms containing it).
    pub(crate) fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Opens an assertion scope; [`Euf::pop`] undoes everything asserted
    /// and merged after this call.
    pub fn push(&mut self) {
        self.scopes.push(ScopeMark {
            merges: self.merges.len(),
            diseqs: self.diseqs.len(),
            eqs: self.eqs.len(),
            applied: self.applied,
            terms: self.terms.len(),
            apps: self.apps.len(),
            consts: self.consts.len(),
        });
    }

    /// Closes the innermost scope, rolling back merges (and their
    /// proof-forest edges) in reverse order, discarding scoped
    /// disequalities and equalities, and unregistering the terms
    /// registered since — every merge that touched them is among those
    /// rolled back, so the engine is exactly as it was at push time.
    /// The `applied` cursor rewinds to its push-time value, so pre-scope
    /// equalities that were merged *inside* the scope (and hence rolled
    /// back with it) are re-merged by the next [`Euf::check`].
    pub fn pop(&mut self) {
        let mark = self.scopes.pop().expect("pop without matching push");
        while self.merges.len() > mark.merges {
            let m = self.merges.pop().expect("nonempty merge trail");
            self.parent[m.child as usize] = m.child;
            if m.rank_bumped {
                self.rank[m.root as usize] -= 1;
            }
            // Edges are appended in order, so the newest is last in both
            // endpoints' lists.
            self.adj[m.a as usize].pop();
            self.adj[m.b as usize].pop();
        }
        self.diseqs.truncate(mark.diseqs);
        self.eqs.truncate(mark.eqs);
        self.applied = mark.applied;
        for t in self.terms.drain(mark.terms..) {
            self.local.remove(&t);
        }
        self.args.truncate(mark.terms);
        self.parent.truncate(mark.terms);
        self.rank.truncate(mark.terms);
        self.adj.truncate(mark.terms);
        self.apps.truncate(mark.apps);
        self.consts.truncate(mark.consts);
    }

    fn find(&self, mut l: u32) -> u32 {
        while self.parent[l as usize] != l {
            l = self.parent[l as usize];
        }
        l
    }

    /// Asserts `a = b` (terms of `arena`) for reason `why`.
    pub fn assert_eq(&mut self, arena: &TermArena, a: TermId, b: TermId, why: u32) {
        let (a, b) = (self.intern(arena, a), self.intern(arena, b));
        self.eqs.push((a, b, why));
    }

    /// Asserts `a != b` (terms of `arena`) for reason `why`.
    pub fn assert_ne(&mut self, arena: &TermArena, a: TermId, b: TermId, why: u32) {
        let (a, b) = (self.intern(arena, a), self.intern(arena, b));
        self.diseqs.push((a, b, why));
    }

    /// Computes the closure and checks consistency; on `Unsat`,
    /// [`Euf::conflict`] explains the conflict.
    pub fn check(&mut self) -> EufResult {
        let base = (self.n_merges, self.n_congruence_pairs);
        // Fixpoint: merge unapplied asserted pairs, then recompute
        // congruences until no new merge appears. Congruence-derived
        // merges go straight into the union-find (recorded on the merge
        // trail), not into `eqs`, so a rollback never replays them.
        loop {
            while self.applied < self.eqs.len() {
                let (a, b, why) = self.eqs[self.applied];
                self.applied += 1;
                self.merge(a, b, Why::Asserted(why));
            }
            if !self.propagate_congruences() {
                break;
            }
        }
        micro::add(MicroCounter::EufMerges, self.n_merges - base.0);
        micro::add(
            MicroCounter::EufCongruencePairs,
            self.n_congruence_pairs - base.1,
        );
        match self.find_conflict() {
            Some(conflict) => {
                self.conflict = conflict;
                EufResult::Unsat
            }
            None => EufResult::Sat,
        }
    }

    /// The reasons behind the last `Unsat` from [`Euf::check`],
    /// unordered and possibly repeated.
    pub fn conflict(&self) -> &[u32] {
        &self.conflict
    }

    /// Whether `a` and `b` are in the same class (call after
    /// [`Euf::check`]). An unregistered term is its own class.
    pub fn same_class(&self, a: TermId, b: TermId) -> bool {
        match (self.local.get(&a), self.local.get(&b)) {
            (Some(&la), Some(&lb)) => self.find(la) == self.find(lb),
            _ => a == b,
        }
    }

    /// The reasons that put `a` and `b` in one class (call after
    /// [`Euf::check`]; both must be registered and in the same class).
    pub(crate) fn explain(&self, a: TermId, b: TermId) -> Vec<u32> {
        let mut out = Vec::new();
        self.explain_into(self.local[&a], self.local[&b], &mut out);
        out
    }

    fn merge(&mut self, a: u32, b: u32, why: Why) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        let (child, root) = if self.rank[ra as usize] < self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let rank_bumped = self.rank[child as usize] == self.rank[root as usize];
        if rank_bumped {
            self.rank[root as usize] += 1;
        }
        self.parent[child as usize] = root;
        let edge = u32::try_from(self.merges.len()).expect("EUF merge overflow");
        self.adj[a as usize].push(edge);
        self.adj[b as usize].push(edge);
        self.merges.push(Merge {
            child,
            root,
            rank_bumped,
            a,
            b,
            why,
        });
        self.n_merges += 1;
    }

    /// One congruence pass over the registered applications; returns
    /// true if any merge was performed.
    fn propagate_congruences(&mut self) -> bool {
        let mut sigs: HashMap<(Symbol, Vec<u32>), u32> = HashMap::new();
        let mut congruent: Vec<(u32, u32)> = Vec::new();
        for &(l, f) in &self.apps {
            let canon: Vec<u32> = self.args[l as usize]
                .iter()
                .map(|&a| self.find(a))
                .collect();
            match sigs.entry((f, canon)) {
                std::collections::hash_map::Entry::Occupied(prev) => {
                    let other = *prev.get();
                    if self.find(other) != self.find(l) {
                        self.n_congruence_pairs += 1;
                        congruent.push((other, l));
                    }
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(l);
                }
            }
        }
        let changed = !congruent.is_empty();
        for (a, b) in congruent {
            self.merge(a, b, Why::Congruent);
        }
        changed
    }

    /// The explanation of the first violated disequality or constant
    /// clash, if any.
    fn find_conflict(&self) -> Option<Vec<u32>> {
        for &(a, b, why) in &self.diseqs {
            if self.find(a) == self.find(b) {
                let mut out = vec![why];
                self.explain_into(a, b, &mut out);
                return Some(out);
            }
        }
        // Two distinct constants in one class (hash-consing makes any two
        // registered constants distinct).
        let mut const_of_class: HashMap<u32, u32> = HashMap::new();
        for &c in &self.consts {
            match const_of_class.entry(self.find(c)) {
                std::collections::hash_map::Entry::Occupied(prev) => {
                    let mut out = Vec::new();
                    self.explain_into(*prev.get(), c, &mut out);
                    return Some(out);
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(c);
                }
            }
        }
        None
    }

    /// Appends the reasons for `a = b` to `out`: the asserted edges on
    /// the proof-forest path, and for each congruence edge on it, the
    /// explanations of its argument pairs. A congruence edge's arguments
    /// were already joined by older edges when it was added, so the
    /// recursion only descends to older edges and terminates; each edge
    /// is expanded once.
    fn explain_into(&self, a: u32, b: u32, out: &mut Vec<u32>) {
        let mut expanded = vec![false; self.merges.len()];
        let mut todo = vec![(a, b)];
        while let Some((x, y)) = todo.pop() {
            for e in self.path(x, y) {
                if std::mem::replace(&mut expanded[e as usize], true) {
                    continue;
                }
                let m = self.merges[e as usize];
                match m.why {
                    Why::Asserted(why) => out.push(why),
                    Why::Congruent => todo.extend(
                        self.args[m.a as usize]
                            .iter()
                            .copied()
                            .zip(self.args[m.b as usize].iter().copied()),
                    ),
                }
            }
        }
    }

    /// The proof-forest edges on the path from `a` to `b` (one tree, so
    /// the path is unique), found by breadth-first search.
    fn path(&self, a: u32, b: u32) -> Vec<u32> {
        if a == b {
            return Vec::new();
        }
        // Node → (predecessor, edge used to reach it).
        let mut via: HashMap<u32, (u32, u32)> = HashMap::new();
        let mut frontier = std::collections::VecDeque::from([a]);
        'search: while let Some(n) = frontier.pop_front() {
            for &e in &self.adj[n as usize] {
                let m = &self.merges[e as usize];
                let next = if m.a == n { m.b } else { m.a };
                if next == a || via.contains_key(&next) {
                    continue;
                }
                via.insert(next, (n, e));
                if next == b {
                    break 'search;
                }
                frontier.push_back(next);
            }
        }
        let mut edges = Vec::new();
        let mut n = b;
        while n != a {
            let (prev, e) = via[&n];
            edges.push(e);
            n = prev;
        }
        edges
    }

    /// Equalities that span every class among the given terms: each
    /// registered term paired with the first registered term of its class
    /// in `terms` order — used for Nelson–Oppen equality propagation.
    /// Equality is transitive, so this linear-size set implies every
    /// merged pair.
    pub(crate) fn spanning_equalities(&self, terms: &[TermId]) -> Vec<(TermId, TermId)> {
        let mut first: HashMap<u32, TermId> = HashMap::new();
        let mut out = Vec::new();
        for &t in terms {
            let Some(&l) = self.local.get(&t) else {
                continue;
            };
            match first.entry(self.find(l)) {
                std::collections::hash_map::Entry::Occupied(f) => out.push((*f.get(), t)),
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(t);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsolve_logic::{Sort, Symbol};

    fn setup() -> (TermArena, Vec<TermId>) {
        let mut a = TermArena::new();
        let s = Sort::Int;
        let x = a.intern(Term::Var(Symbol::new("x"), s.clone()), s.clone());
        let y = a.intern(Term::Var(Symbol::new("y"), s.clone()), s.clone());
        let z = a.intern(Term::Var(Symbol::new("z"), s.clone()), s.clone());
        let fx = a.intern(Term::App(Symbol::new("f"), vec![x]), s.clone());
        let fy = a.intern(Term::App(Symbol::new("f"), vec![y]), s.clone());
        let ffx = a.intern(Term::App(Symbol::new("f"), vec![fx]), s.clone());
        (a, vec![x, y, z, fx, fy, ffx])
    }

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn congruence_merges_applications() {
        let (arena, ids) = setup();
        let (x, y, _, fx, fy, _) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        let mut euf = Euf::new();
        euf.add_term(&arena, fx);
        euf.add_term(&arena, fy);
        euf.assert_eq(&arena, x, y, 0);
        assert_eq!(euf.check(), EufResult::Sat);
        assert!(euf.same_class(fx, fy));
    }

    #[test]
    fn transitivity_and_conflict() {
        let (arena, ids) = setup();
        let (x, y, z) = (ids[0], ids[1], ids[2]);
        let mut euf = Euf::new();
        euf.assert_eq(&arena, x, y, 0);
        euf.assert_eq(&arena, y, z, 1);
        euf.assert_ne(&arena, x, z, 2);
        assert_eq!(euf.check(), EufResult::Unsat);
        assert_eq!(sorted(euf.conflict().to_vec()), vec![0, 1, 2]);
    }

    #[test]
    fn congruence_chain_conflict() {
        // x = f(x), plus f(f(x)) != x is a conflict: f(x)=f(f(x)) by
        // congruence from x=f(x), hence x = f(x) = f(f(x)).
        let (arena, ids) = setup();
        let (x, fx, ffx) = (ids[0], ids[3], ids[5]);
        let mut euf = Euf::new();
        euf.assert_eq(&arena, x, fx, 0);
        euf.assert_ne(&arena, ffx, x, 1);
        assert_eq!(euf.check(), EufResult::Unsat);
        assert_eq!(sorted(euf.conflict().to_vec()), vec![0, 1]);
    }

    #[test]
    fn distinct_constants_conflict() {
        let mut a = TermArena::new();
        let one = a.intern(Term::Int(1), Sort::Int);
        let two = a.intern(Term::Int(2), Sort::Int);
        let x = a.intern(Term::Var(Symbol::new("x"), Sort::Int), Sort::Int);
        let mut euf = Euf::new();
        euf.assert_eq(&a, x, one, 0);
        euf.assert_eq(&a, x, two, 1);
        assert_eq!(euf.check(), EufResult::Unsat);
        assert_eq!(sorted(euf.conflict().to_vec()), vec![0, 1]);
    }

    #[test]
    fn bool_constants_distinct() {
        let mut a = TermArena::new();
        let t = a.intern(Term::Bool(true), Sort::Bool);
        let f = a.intern(Term::Bool(false), Sort::Bool);
        let mut euf = Euf::new();
        euf.assert_eq(&a, t, f, 0);
        assert_eq!(euf.check(), EufResult::Unsat);
    }

    #[test]
    fn consistent_disequalities() {
        let (arena, ids) = setup();
        let (x, y) = (ids[0], ids[1]);
        let mut euf = Euf::new();
        euf.assert_ne(&arena, x, y, 0);
        assert_eq!(euf.check(), EufResult::Sat);
        assert!(!euf.same_class(x, y));
    }

    #[test]
    fn spanning_equalities_link_each_member_to_the_first() {
        let (arena, ids) = setup();
        let (x, y, z, fx) = (ids[0], ids[1], ids[2], ids[3]);
        let mut euf = Euf::new();
        euf.add_term(&arena, z);
        euf.assert_eq(&arena, x, y, 0);
        euf.assert_eq(&arena, y, z, 1);
        assert_eq!(euf.check(), EufResult::Sat);
        // One class {x, y, z}: two edges from x, not all three pairs; an
        // unregistered term (f(x)) takes no part.
        let eqs = euf.spanning_equalities(&[fx, x, y, z]);
        assert_eq!(eqs, vec![(x, y), (x, z)]);
    }

    #[test]
    fn only_registered_terms_take_part() {
        // f(x) and f(y) are in the arena but never registered, so the
        // closure does not touch them.
        let (arena, ids) = setup();
        let (x, y, fx, fy) = (ids[0], ids[1], ids[3], ids[4]);
        let mut euf = Euf::new();
        euf.assert_eq(&arena, x, y, 0);
        assert_eq!(euf.check(), EufResult::Sat);
        assert_eq!(euf.terms(), &[x, y]);
        assert!(!euf.same_class(fx, fy));
    }

    #[test]
    fn explanation_names_path_and_argument_literals_only() {
        // x = y (0) makes f(x) = f(y) by congruence; f(y) = z (1) puts z
        // in the class, and so does the unrelated z = w (2). Explaining
        // f(x) = z needs the path f(x)—f(y)—z and the congruence's
        // argument pair x = y, but not the edge to w.
        let (mut arena, ids) = setup();
        let (x, y, z, fx, fy) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        let w = arena.intern(Term::Var(Symbol::new("w"), Sort::Int), Sort::Int);
        let mut euf = Euf::new();
        euf.assert_eq(&arena, x, y, 0);
        euf.assert_eq(&arena, fy, z, 1);
        euf.assert_eq(&arena, z, w, 2);
        euf.add_term(&arena, fx);
        assert_eq!(euf.check(), EufResult::Sat);
        assert!(euf.same_class(fx, w));
        assert_eq!(sorted(euf.explain(fx, z)), vec![0, 1]);
        assert_eq!(sorted(euf.explain(fx, w)), vec![0, 1, 2]);
        assert_eq!(euf.explain(w, w), Vec::<u32>::new());
    }

    #[test]
    fn explanation_never_names_a_popped_literal() {
        // Inside a scope, x = z (1) and z = y (2) join x and y first;
        // after pop only the base x = y (0) explains them.
        let (arena, ids) = setup();
        let (x, y, z, fx, fy) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        let mut euf = Euf::new();
        euf.add_term(&arena, fx);
        euf.add_term(&arena, fy);
        euf.push();
        euf.assert_eq(&arena, x, z, 1);
        euf.assert_eq(&arena, z, y, 2);
        assert_eq!(euf.check(), EufResult::Sat);
        assert_eq!(sorted(euf.explain(fx, fy)), vec![1, 2]);
        euf.pop();
        euf.assert_eq(&arena, x, y, 0);
        euf.assert_ne(&arena, fx, fy, 3);
        assert_eq!(euf.check(), EufResult::Unsat);
        assert_eq!(sorted(euf.conflict().to_vec()), vec![0, 3]);
        assert_eq!(sorted(euf.explain(fx, fy)), vec![0]);
    }

    #[test]
    fn pop_rolls_back_scoped_merges() {
        let (arena, ids) = setup();
        let (x, y, z, fx, fy) = (ids[0], ids[1], ids[2], ids[3], ids[4]);
        let mut euf = Euf::new();
        euf.add_term(&arena, fx);
        euf.add_term(&arena, fy);
        euf.assert_eq(&arena, x, y, 0);
        assert_eq!(euf.check(), EufResult::Sat);
        euf.push();
        euf.assert_eq(&arena, y, z, 1);
        euf.assert_ne(&arena, x, z, 2);
        assert_eq!(euf.check(), EufResult::Unsat);
        euf.pop();
        // Base-scope facts survive, scoped ones are gone.
        assert_eq!(euf.check(), EufResult::Sat);
        assert!(euf.same_class(x, y));
        assert!(euf.same_class(fx, fy));
        assert!(!euf.same_class(x, z));
    }

    #[test]
    fn pop_replays_unchecked_base_equalities() {
        // An equality asserted *before* push but first merged (by check)
        // *inside* the scope must survive the pop: the applied cursor
        // rewinds with the scope and the next check re-merges it.
        let (arena, ids) = setup();
        let (x, y, z) = (ids[0], ids[1], ids[2]);
        let mut euf = Euf::new();
        euf.assert_eq(&arena, x, y, 0);
        euf.push();
        euf.assert_eq(&arena, y, z, 1);
        assert_eq!(euf.check(), EufResult::Sat);
        euf.pop();
        assert_eq!(euf.check(), EufResult::Sat);
        assert!(euf.same_class(x, y));
        assert!(!euf.same_class(x, z));
    }

    #[test]
    fn nested_scopes_unwind_in_order() {
        let (arena, ids) = setup();
        let (x, y, z) = (ids[0], ids[1], ids[2]);
        let mut euf = Euf::new();
        euf.push();
        euf.assert_eq(&arena, x, y, 0);
        assert_eq!(euf.check(), EufResult::Sat);
        euf.push();
        euf.assert_eq(&arena, y, z, 1);
        assert_eq!(euf.check(), EufResult::Sat);
        assert!(euf.same_class(x, z));
        euf.pop();
        assert_eq!(euf.check(), EufResult::Sat);
        assert!(euf.same_class(x, y));
        assert!(!euf.same_class(x, z));
        euf.pop();
        assert_eq!(euf.check(), EufResult::Sat);
        assert!(!euf.same_class(x, y));
    }

    #[test]
    fn pop_unregisters_scoped_terms() {
        // f(x) is registered inside a scope; after pop it is gone (the
        // congruence passes no longer visit it) and a new scope can
        // register it afresh.
        let (arena, ids) = setup();
        let (x, y, fx, fy) = (ids[0], ids[1], ids[3], ids[4]);
        let mut euf = Euf::new();
        euf.assert_eq(&arena, x, y, 0);
        euf.push();
        euf.add_term(&arena, fx);
        euf.add_term(&arena, fy);
        assert_eq!(euf.check(), EufResult::Sat);
        assert!(euf.same_class(fx, fy));
        euf.pop();
        assert_eq!(euf.terms(), &[x, y]);
        assert_eq!(euf.check(), EufResult::Sat);
        euf.push();
        euf.assert_ne(&arena, fx, fy, 1);
        assert_eq!(euf.check(), EufResult::Unsat);
        assert_eq!(sorted(euf.conflict().to_vec()), vec![0, 1]);
        euf.pop();
        assert_eq!(euf.check(), EufResult::Sat);
    }

    #[test]
    fn terms_registered_after_a_check_are_covered() {
        let (mut arena, ids) = setup();
        let (x, y) = (ids[0], ids[1]);
        let gx = arena.intern(Term::App(Symbol::new("g"), vec![x]), Sort::Int);
        let gy = arena.intern(Term::App(Symbol::new("g"), vec![y]), Sort::Int);
        let mut euf = Euf::new();
        euf.assert_eq(&arena, x, y, 0);
        assert_eq!(euf.check(), EufResult::Sat);
        // Register new applications after the first check; congruence
        // must still fire.
        euf.add_term(&arena, gx);
        euf.add_term(&arena, gy);
        assert_eq!(euf.check(), EufResult::Sat);
        assert!(euf.same_class(gx, gy));
    }

    #[test]
    fn congruence_merges_do_not_survive_pop() {
        // Congruence-derived merges are recorded only on the merge trail,
        // never in the assertion log, so pop must fully undo them.
        let (arena, ids) = setup();
        let (x, y, fx, fy) = (ids[0], ids[1], ids[3], ids[4]);
        let mut euf = Euf::new();
        euf.add_term(&arena, fx);
        euf.add_term(&arena, fy);
        euf.push();
        euf.assert_eq(&arena, x, y, 0);
        assert_eq!(euf.check(), EufResult::Sat);
        assert!(euf.same_class(fx, fy));
        euf.pop();
        assert_eq!(euf.check(), EufResult::Sat);
        assert!(!euf.same_class(fx, fy));
        assert!(!euf.same_class(x, y));
    }
}
