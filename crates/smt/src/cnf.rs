//! Atomization and Tseitin CNF encoding.
//!
//! Predicates are split into *theory atoms* (equalities, linear
//! inequalities, boolean terms) mapped to SAT variables, and their boolean
//! structure is encoded into CNF clauses. Integer inequalities are
//! normalized — strict relations tightened (`a < b` becomes `a ≤ b − 1`),
//! coefficients scaled to coprime integers, constants ceiling-tightened —
//! so equivalent atoms share one SAT variable. The `ite` terms flattening
//! lifts (see [`TermArena::flatten`]) are defined by retained clauses.

use crate::term::heads;
use crate::{BVar, LinExpr, Lit, Rat, Term, TermArena, TermId};
use dsolve_logic::{Expr, Pred, Rel, Sort, SortEnv, Symbol};
use std::collections::HashMap;

/// Identifier of a theory atom.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u32);

impl AtomId {
    /// Index form.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A theory atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Atom {
    /// `a = b`; `lin` carries `a − b` when both sides are integers so the
    /// equality also reaches the arithmetic solver.
    Eq {
        /// Left term.
        a: TermId,
        /// Right term.
        b: TermId,
        /// Linear form `a − b` for integer-sorted equalities.
        lin: Option<LinExpr>,
    },
    /// `lin ≤ 0` over integer atoms (already tightened/normalized).
    IntLe(LinExpr),
    /// A boolean-sorted term asserted true.
    BoolTerm(TermId),
}

/// What identifies an atom: its sides for an equality (ordered by id;
/// the linear form follows from them), the normalized form of an
/// inequality, the term of a boolean atom.
#[derive(PartialEq, Eq, Hash)]
enum AtomKey {
    Eq(TermId, TermId),
    Le(LinExpr),
    Bool(TermId),
}

/// The atom table built during encoding.
pub struct Atoms {
    /// Term arena shared with the theory solvers.
    pub arena: TermArena,
    defs: Vec<Atom>,
    dedup: HashMap<AtomKey, AtomId>,
    true_id: TermId,
    false_id: TermId,
}

impl Default for Atoms {
    fn default() -> Atoms {
        Atoms::new()
    }
}

impl Atoms {
    /// Creates an empty atom table (with the boolean constants
    /// pre-interned for the theory layer).
    pub fn new() -> Atoms {
        let mut arena = TermArena::new();
        let true_id = arena.intern(Term::Bool(true), Sort::Bool);
        let false_id = arena.intern(Term::Bool(false), Sort::Bool);
        Atoms {
            arena,
            defs: Vec::new(),
            dedup: HashMap::new(),
            true_id,
            false_id,
        }
    }

    /// The arena id of the boolean constant `b`.
    pub fn bool_const(&self, b: bool) -> TermId {
        if b {
            self.true_id
        } else {
            self.false_id
        }
    }

    /// Number of atoms.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// The definition of an atom.
    pub fn atom(&self, id: AtomId) -> &Atom {
        &self.defs[id.index()]
    }

    fn intern(&mut self, key: AtomKey, def: impl FnOnce(&TermArena) -> Atom) -> AtomId {
        if let Some(&id) = self.dedup.get(&key) {
            return id;
        }
        let id = AtomId(u32::try_from(self.defs.len()).expect("atom table overflow"));
        self.defs.push(def(&self.arena));
        self.dedup.insert(key, id);
        id
    }

    /// The atom `lhs = rhs` over two arena terms: the atom
    /// [`Atoms::atom_of_rel`] gives `Rel::Eq` between any two expressions
    /// that flatten to `lhs` and `rhs`, in that order. Integer-sorted
    /// sides carry their linear difference.
    pub fn eq_atom(&mut self, lhs: TermId, rhs: TermId) -> AtomId {
        let int = *self.arena.sort(lhs) == Sort::Int && *self.arena.sort(rhs) == Sort::Int;
        self.eq_atom_of(lhs, rhs, int)
    }

    /// The equality atom over `lhs` and `rhs`, its linear form `lhs − rhs`
    /// when `int`.
    fn eq_atom_of(&mut self, lhs: TermId, rhs: TermId, int: bool) -> AtomId {
        let (a, b) = if lhs <= rhs { (lhs, rhs) } else { (rhs, lhs) };
        self.intern(AtomKey::Eq(a, b), |arena| {
            let lin = int.then(|| arena.linear_form(lhs).minus(&arena.linear_form(rhs)));
            Atom::Eq { a, b, lin }
        })
    }

    /// The atom of `lin ≤ 0`, already normalized.
    fn le_atom(&mut self, lin: LinExpr) -> AtomId {
        self.intern(AtomKey::Le(lin.clone()), |_| Atom::IntLe(lin))
    }

    /// The atom of boolean term `t`.
    fn bool_atom(&mut self, t: TermId) -> AtomId {
        self.intern(AtomKey::Bool(t), |_| Atom::BoolTerm(t))
    }

    /// Normalizes `lin ≤ 0`: integer coefficients, coprime, constant
    /// tightened to its ceiling (sound because every atom is
    /// integer-valued).
    fn normalize_le(mut lin: LinExpr) -> LinExpr {
        // Scale to integer coefficients.
        let mut denom_lcm: i128 = lin.constant.denom();
        for c in lin.terms.values() {
            let d = c.denom();
            denom_lcm = denom_lcm / gcd(denom_lcm, d) * d;
        }
        lin = lin.scale(Rat::new(denom_lcm, 1));
        // Divide by the gcd of the variable coefficients.
        let mut g: i128 = 0;
        for c in lin.terms.values() {
            g = gcd(g, c.numer());
        }
        if g > 1 {
            lin = lin.scale(Rat::new(1, g));
        }
        // Tighten the constant: Σa·x + c ≤ 0 ⟺ Σa·x + ⌈c⌉ ≤ 0 over ints.
        lin.constant = lin.constant.ceil();
        lin
    }

    /// Returns the atom (and polarity) for `a rel b` between two flattened
    /// / linearized sides.
    ///
    /// The polarity flag handles relations encoded as negations of an
    /// existing atom (`Ne` is `¬Eq`).
    pub fn atom_of_rel(
        &mut self,
        rel: Rel,
        lhs: &Expr,
        rhs: &Expr,
        env: &SortEnv,
    ) -> (AtomId, bool) {
        let lsort = env.sort_of(lhs);
        let rsort = env.sort_of(rhs);
        let both_int = lsort == Some(Sort::Int) && rsort == Some(Sort::Int);
        match rel {
            Rel::Le | Rel::Lt | Rel::Ge | Rel::Gt if both_int => {
                // Reduce to lin ≤ 0 with integer tightening.
                let la = self.arena.linearize(lhs, env);
                let lb = self.arena.linearize(rhs, env);
                let lin = match rel {
                    Rel::Le => la.minus(&lb),
                    Rel::Lt => {
                        let mut l = la.minus(&lb);
                        l.constant += Rat::ONE;
                        l
                    }
                    Rel::Ge => lb.minus(&la),
                    Rel::Gt => {
                        let mut l = lb.minus(&la);
                        l.constant += Rat::ONE;
                        l
                    }
                    _ => unreachable!(),
                };
                (self.le_atom(Self::normalize_le(lin)), true)
            }
            Rel::Eq | Rel::Ne => {
                let ta = self.arena.flatten(lhs, env);
                let tb = self.arena.flatten(rhs, env);
                (self.eq_atom_of(ta, tb, both_int), rel == Rel::Eq)
            }
            Rel::In | Rel::Sub => {
                // Uninterpreted membership/subset predicate over terms.
                let ta = self.arena.flatten(lhs, env);
                let tb = self.arena.flatten(rhs, env);
                let head = if rel == Rel::In {
                    heads().member
                } else {
                    heads().subset
                };
                let t = self.arena.intern(Term::App(head, vec![ta, tb]), Sort::Bool);
                (self.bool_atom(t), true)
            }
            // Ordering over non-integers: treated as an uninterpreted
            // boolean term (sound: no facts are derivable from it).
            _ => {
                let ta = self.arena.flatten(lhs, env);
                let tb = self.arena.flatten(rhs, env);
                let t = self.arena.intern(
                    Term::App(Symbol::new(&format!("$rel_{rel}")), vec![ta, tb]),
                    Sort::Bool,
                );
                (self.bool_atom(t), true)
            }
        }
    }

    /// Returns the atom for a boolean term.
    pub fn atom_of_term(&mut self, e: &Expr, env: &SortEnv) -> AtomId {
        let t = self.arena.flatten(e, env);
        self.bool_atom(t)
    }

    /// Interns a normalized `lin ≤ 0` atom directly (used by the encoder
    /// to split integer equalities into a pair of inequalities).
    pub fn int_le_atom(&mut self, lin: LinExpr) -> AtomId {
        self.le_atom(Self::normalize_le(lin))
    }
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Persistent encoder state shared across incremental encoding steps.
///
/// The atom ↔ SAT-variable tables, the variable counter, and the set of
/// already-split integer equalities all grow monotonically; an
/// assertion-scope pop never shrinks them (stale variables are merely
/// unconstrained, and the eq-split clauses are emitted as retained
/// lemmas, keeping `split_eqs` truthful across pops).
#[derive(Default)]
pub struct EncodeCtx {
    /// The SAT variable of each atom that has one, by atom index.
    var_of_atom: Vec<Option<BVar>>,
    /// The atom of each SAT variable, by variable index (`None` for a
    /// Tseitin variable); its length is the number of variables.
    atom_of_var: Vec<Option<AtomId>>,
    split_eqs: std::collections::HashSet<AtomId>,
}

impl EncodeCtx {
    /// Creates an empty context.
    pub fn new() -> EncodeCtx {
        EncodeCtx::default()
    }

    /// Total SAT variables allocated so far (atoms + Tseitin gates).
    pub fn num_vars(&self) -> usize {
        self.atom_of_var.len()
    }

    /// Allocates a fresh SAT variable.
    fn fresh(&mut self) -> BVar {
        let v = BVar(u32::try_from(self.num_vars()).expect("too many SAT variables"));
        self.atom_of_var.push(None);
        v
    }

    /// The SAT variable of atom `a`, allocating one on first use.
    pub fn var_of_atom(&mut self, a: AtomId) -> BVar {
        if let Some(&Some(v)) = self.var_of_atom.get(a.index()) {
            return v;
        }
        let v = self.fresh();
        self.atom_of_var[v.0 as usize] = Some(a);
        if self.var_of_atom.len() <= a.index() {
            self.var_of_atom.resize(a.index() + 1, None);
        }
        self.var_of_atom[a.index()] = Some(v);
        v
    }

    /// The atom SAT variable `v` stands for; `None` for a Tseitin
    /// variable.
    pub(crate) fn atom_of_var(&self, v: BVar) -> Option<AtomId> {
        self.atom_of_var[v.0 as usize]
    }

    /// Each atom that has a SAT variable, with its variable, in atom
    /// order.
    pub(crate) fn atom_vars(&self) -> impl Iterator<Item = (AtomId, BVar)> + '_ {
        self.var_of_atom
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (AtomId(i as u32), v)))
    }
}

/// Clauses produced by one incremental encoding step.
pub struct EncodedUnit {
    /// Clauses asserting the predicate — valid only while its scope is.
    pub clauses: Vec<Vec<Lit>>,
    /// Definitional clauses that are valid independent of any assertion
    /// and must survive scope pops: integer-equality splits
    /// `eq ↔ le₁ ∧ le₂`, matching the persistence of
    /// [`EncodeCtx::split_eqs`], and the definitions of lifted `ite`
    /// terms, matching the arena's.
    pub lemma_clauses: Vec<Vec<Lit>>,
}

/// Encodes `p` (asserted true) on top of persistent encoder state,
/// returning only the new clauses. Atoms and SAT variables already known
/// to `ctx` are reused, which is what makes re-asserting predicates
/// under a shared antecedent cheap. The definition of every `ite` term
/// the arena has lifted and not yet defined, `p`'s own included, is
/// among the lemma clauses.
pub fn encode_incremental(
    p: &Pred,
    atoms: &mut Atoms,
    env: &SortEnv,
    ctx: &mut EncodeCtx,
) -> EncodedUnit {
    let mut enc = Encoder::new(atoms, env, ctx);
    match enc.lit_of(p) {
        EncLit::Const(true) => {}
        EncLit::Const(false) => enc.clauses.push(vec![]),
        EncLit::Lit(l) => enc.clauses.push(vec![l]),
    }
    enc.define_ites();
    EncodedUnit {
        clauses: enc.clauses,
        lemma_clauses: enc.lemma_clauses,
    }
}

/// The clauses defining every `ite` term the arena has lifted and not
/// yet defined (by terms built outside the encoder: set lemmas,
/// certificates), all of them retained.
pub(crate) fn encode_ite_definitions(
    atoms: &mut Atoms,
    env: &SortEnv,
    ctx: &mut EncodeCtx,
) -> Vec<Vec<Lit>> {
    let mut enc = Encoder::new(atoms, env, ctx);
    enc.define_ites();
    enc.lemma_clauses
}

#[derive(Clone, Copy)]
enum EncLit {
    Const(bool),
    Lit(Lit),
}

/// The polarities under which a subformula can be asserted.
#[derive(Clone, Copy)]
struct PolaritySet {
    pos: bool,
    neg: bool,
}

impl PolaritySet {
    const POS: PolaritySet = PolaritySet {
        pos: true,
        neg: false,
    };
    const BOTH: PolaritySet = PolaritySet {
        pos: true,
        neg: true,
    };

    fn flip(self) -> PolaritySet {
        PolaritySet {
            pos: self.neg,
            neg: self.pos,
        }
    }
}

struct Encoder<'a> {
    atoms: &'a mut Atoms,
    env: &'a SortEnv,
    ctx: &'a mut EncodeCtx,
    clauses: Vec<Vec<Lit>>,
    lemma_clauses: Vec<Vec<Lit>>,
}

impl<'a> Encoder<'a> {
    fn new(atoms: &'a mut Atoms, env: &'a SortEnv, ctx: &'a mut EncodeCtx) -> Encoder<'a> {
        Encoder {
            atoms,
            env,
            ctx,
            clauses: Vec::new(),
            lemma_clauses: Vec::new(),
        }
    }

    /// Defines every `ite` term lifted and not yet defined, those lifted
    /// while defining one included: for `v` standing for `ite(c, t, f)`,
    /// the clauses `¬c ∨ v = t` and `c ∨ v = f`, a constant `c` keeping
    /// only the branch it takes. Every clause is retained, `c`'s Tseitin
    /// gates too, since the arena keeps `v` for the session.
    fn define_ites(&mut self) {
        loop {
            let lifted = self.atoms.arena.take_undefined();
            if lifted.is_empty() {
                return;
            }
            for (v, ite) in lifted {
                let Expr::Ite(c, t, f) = &*ite else {
                    unreachable!("only `ite` terms are lifted")
                };
                let gates = self.clauses.len();
                let cond = self.lit_of_polarity(c, PolaritySet::BOTH);
                self.lemma_clauses.extend(self.clauses.drain(gates..));
                for (branch, taken) in [(t, true), (f, false)] {
                    let guard = match cond {
                        EncLit::Const(b) if b == taken => None,
                        EncLit::Const(_) => continue,
                        EncLit::Lit(l) if taken => Some(l.negate()),
                        EncLit::Lit(l) => Some(l),
                    };
                    let b = self.atoms.arena.flatten(branch, self.env);
                    let eq = self.atoms.eq_atom(v, b);
                    let eq = Lit::pos(self.var_of_atom(eq));
                    self.lemma_clauses
                        .push(guard.into_iter().chain([eq]).collect());
                }
            }
        }
    }

    fn fresh(&mut self) -> BVar {
        self.ctx.fresh()
    }

    fn var_of_atom(&mut self, a: AtomId) -> BVar {
        self.ctx.var_of_atom(a)
    }

    fn lit_of(&mut self, p: &Pred) -> EncLit {
        self.lit_of_polarity(p, PolaritySet::POS)
    }

    fn lit_of_polarity(&mut self, p: &Pred, pol: PolaritySet) -> EncLit {
        match p {
            Pred::True => EncLit::Const(true),
            Pred::False => EncLit::Const(false),
            Pred::Atom(rel, a, b) => {
                let (aid, pos) = self.atoms.atom_of_rel(*rel, a, b, self.env);
                let v = self.var_of_atom(aid);
                // Integer equalities that may occur *negated* are defined
                // as the conjunction of two inequalities so the strict
                // complement reaches the arithmetic solver (EUF alone
                // cannot refute `x≤y ∧ y≤x ∧ x≠y`). Positive-only
                // occurrences skip the split, keeping conjunctive queries
                // free of boolean choice.
                let atom_neg_possible = if pos { pol.neg } else { pol.pos };
                if atom_neg_possible {
                    if let Atom::Eq { lin: Some(lin), .. } = self.atoms.atom(aid).clone() {
                        if self.ctx.split_eqs.insert(aid) {
                            let le1 = self.atoms.int_le_atom(lin.clone());
                            let le2 = self.atoms.int_le_atom(lin.scale(Rat::from_int(-1)));
                            let v1 = self.var_of_atom(le1);
                            let v2 = self.var_of_atom(le2);
                            let eq = Lit::pos(v);
                            // eq ↔ (le1 ∧ le2): definitional, so emitted
                            // as retained lemmas (split_eqs persists
                            // across scope pops and the clauses must too).
                            self.lemma_clauses.push(vec![eq.negate(), Lit::pos(v1)]);
                            self.lemma_clauses.push(vec![eq.negate(), Lit::pos(v2)]);
                            self.lemma_clauses
                                .push(vec![eq, Lit::neg(v1), Lit::neg(v2)]);
                        }
                    }
                }
                EncLit::Lit(Lit::new(v, pos))
            }
            Pred::Term(e) => {
                let aid = self.atoms.atom_of_term(e, self.env);
                let v = self.var_of_atom(aid);
                EncLit::Lit(Lit::pos(v))
            }
            Pred::Not(q) => match self.lit_of_polarity(q, pol.flip()) {
                EncLit::Const(b) => EncLit::Const(!b),
                EncLit::Lit(l) => EncLit::Lit(l.negate()),
            },
            Pred::And(ps) => self.gate(ps, true, pol),
            Pred::Or(ps) => self.gate(ps, false, pol),
            Pred::Imp(p, q) => {
                let disj = Pred::Or(vec![Pred::Not(p.clone()), (**q).clone()]);
                self.lit_of_polarity(&disj, pol)
            }
            Pred::Iff(p, q) => {
                let lp = self.lit_of_polarity(p, PolaritySet::BOTH);
                let lq = self.lit_of_polarity(q, PolaritySet::BOTH);
                match (lp, lq) {
                    (EncLit::Const(a), EncLit::Const(b)) => EncLit::Const(a == b),
                    (EncLit::Const(true), EncLit::Lit(l))
                    | (EncLit::Lit(l), EncLit::Const(true)) => EncLit::Lit(l),
                    (EncLit::Const(false), EncLit::Lit(l))
                    | (EncLit::Lit(l), EncLit::Const(false)) => EncLit::Lit(l.negate()),
                    (EncLit::Lit(a), EncLit::Lit(b)) => {
                        let g = Lit::pos(self.fresh());
                        // g ↔ (a ↔ b)
                        self.clauses.push(vec![g.negate(), a.negate(), b]);
                        self.clauses.push(vec![g.negate(), a, b.negate()]);
                        self.clauses.push(vec![g, a, b]);
                        self.clauses.push(vec![g, a.negate(), b.negate()]);
                        EncLit::Lit(g)
                    }
                }
            }
        }
    }

    /// And/Or gate: `conj` selects conjunction.
    fn gate(&mut self, ps: &[Pred], conj: bool, pol: PolaritySet) -> EncLit {
        let mut lits = Vec::new();
        for p in ps {
            match self.lit_of_polarity(p, pol) {
                EncLit::Const(b) => {
                    if b != conj {
                        // Absorbing element.
                        return EncLit::Const(!conj);
                    }
                }
                EncLit::Lit(l) => lits.push(l),
            }
        }
        match lits.len() {
            0 => EncLit::Const(conj),
            1 => EncLit::Lit(lits[0]),
            _ => {
                let g = Lit::pos(self.fresh());
                if conj {
                    // g → each li; (¬l1 ∨ ... ∨ ¬ln) → ¬g reversed.
                    let mut big = vec![g];
                    for l in &lits {
                        self.clauses.push(vec![g.negate(), *l]);
                        big.push(l.negate());
                    }
                    self.clauses.push(big);
                } else {
                    let mut big = vec![g.negate()];
                    for l in &lits {
                        self.clauses.push(vec![g, l.negate()]);
                        big.push(*l);
                    }
                    self.clauses.push(big);
                }
                EncLit::Lit(g)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsolve_logic::parse_pred;

    fn env() -> SortEnv {
        let mut env = SortEnv::new();
        for v in ["x", "y", "z"] {
            env.bind(Symbol::new(v), Sort::Int);
        }
        env.bind(Symbol::new("s"), Sort::Set);
        env.bind(Symbol::new("flag"), Sort::Bool);
        env
    }

    #[test]
    fn equivalent_inequalities_share_atoms() {
        let mut atoms = Atoms::new();
        let env = env();
        let p1 = parse_pred("x < y").unwrap();
        let p2 = parse_pred("x + 1 <= y").unwrap();
        let Pred::Atom(r1, a1, b1) = &p1 else {
            panic!()
        };
        let Pred::Atom(r2, a2, b2) = &p2 else {
            panic!()
        };
        let (id1, _) = atoms.atom_of_rel(*r1, a1, b1, &env);
        let (id2, _) = atoms.atom_of_rel(*r2, a2, b2, &env);
        assert_eq!(id1, id2);
    }

    #[test]
    fn scaled_inequalities_share_atoms() {
        let mut atoms = Atoms::new();
        let env = env();
        let p1 = parse_pred("2 * x <= 2 * y").unwrap();
        let p2 = parse_pred("x <= y").unwrap();
        let Pred::Atom(r1, a1, b1) = &p1 else {
            panic!()
        };
        let Pred::Atom(r2, a2, b2) = &p2 else {
            panic!()
        };
        let (id1, _) = atoms.atom_of_rel(*r1, a1, b1, &env);
        let (id2, _) = atoms.atom_of_rel(*r2, a2, b2, &env);
        assert_eq!(id1, id2);
    }

    #[test]
    fn ne_is_negated_eq() {
        let mut atoms = Atoms::new();
        let env = env();
        let p1 = parse_pred("x = y").unwrap();
        let p2 = parse_pred("x != y").unwrap();
        let Pred::Atom(r1, a1, b1) = &p1 else {
            panic!()
        };
        let Pred::Atom(r2, a2, b2) = &p2 else {
            panic!()
        };
        let (id1, pos1) = atoms.atom_of_rel(*r1, a1, b1, &env);
        let (id2, pos2) = atoms.atom_of_rel(*r2, a2, b2, &env);
        assert_eq!(id1, id2);
        assert!(pos1);
        assert!(!pos2);
    }

    #[test]
    fn int_equality_has_linear_form() {
        let mut atoms = Atoms::new();
        let env = env();
        let p = parse_pred("x = y + 1").unwrap();
        let Pred::Atom(r, a, b) = &p else { panic!() };
        let (id, _) = atoms.atom_of_rel(*r, a, b, &env);
        assert!(matches!(atoms.atom(id), Atom::Eq { lin: Some(_), .. }));
    }

    #[test]
    fn set_equality_has_no_linear_form() {
        let mut atoms = Atoms::new();
        let env = env();
        let p = parse_pred("s = union(s, s)").unwrap();
        let Pred::Atom(r, a, b) = &p else { panic!() };
        let (id, _) = atoms.atom_of_rel(*r, a, b, &env);
        assert!(matches!(atoms.atom(id), Atom::Eq { lin: None, .. }));
    }

    /// Encodes `p` on a fresh context: its clauses, definitional
    /// clauses first.
    fn encode(p: &Pred, atoms: &mut Atoms, ctx: &mut EncodeCtx) -> Vec<Vec<Lit>> {
        let unit = encode_incremental(p, atoms, &env(), ctx);
        let mut clauses = unit.lemma_clauses;
        clauses.extend(unit.clauses);
        clauses
    }

    #[test]
    fn encode_produces_clauses() {
        let mut atoms = Atoms::new();
        let mut ctx = EncodeCtx::new();
        let p = parse_pred("x < y && (y < z || flag)").unwrap();
        let clauses = encode(&p, &mut atoms, &mut ctx);
        assert!(!clauses.is_empty());
        assert!(ctx.num_vars() >= atoms.len());
    }

    #[test]
    fn an_ite_is_defined_once_by_retained_clauses() {
        let mut atoms = Atoms::new();
        let mut ctx = EncodeCtx::new();
        let p = parse_pred("z = (if x < y && y < z then x else y)").unwrap();
        let unit = encode_incremental(&p, &mut atoms, &env(), &mut ctx);
        // The assertion is one unit clause. Retained: the condition's
        // and-gate (three clauses), `¬c ∨ v = x` and `c ∨ v = y`.
        assert_eq!(unit.clauses.len(), 1);
        assert_eq!(unit.lemma_clauses.len(), 5);
        let again = encode_incremental(&p, &mut atoms, &env(), &mut ctx);
        assert_eq!(again.clauses, unit.clauses);
        assert!(again.lemma_clauses.is_empty());
    }

    #[test]
    fn encode_constant_true_is_empty() {
        let mut atoms = Atoms::new();
        assert!(encode(&Pred::True, &mut atoms, &mut EncodeCtx::new()).is_empty());
    }

    #[test]
    fn encode_constant_false_is_empty_clause() {
        let mut atoms = Atoms::new();
        assert_eq!(
            encode(&Pred::False, &mut atoms, &mut EncodeCtx::new()),
            vec![Vec::<Lit>::new()]
        );
    }
}
