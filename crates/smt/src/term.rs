//! Hash-consed first-order terms shared by the theory solvers.
//!
//! `logic::Expr` trees are flattened into a term DAG. Interpreted
//! structure (linear arithmetic) is split off into [`LinExpr`]s whose
//! "atoms" are ids of non-arithmetic terms; everything else (measures,
//! `Sel`/`Upd`, set constructors, non-linear products) becomes an
//! uninterpreted application handled by congruence closure.
//!
//! An if-then-else term is lifted where flattening meets it: the arena
//! gives each distinct `ite(c, t, f)` one fresh variable `v` and queues
//! its definition (`c ⇒ v = t`, `¬c ⇒ v = f`), which the encoder emits
//! as clauses. So every caller flattens raw terms, and an `ite` met again
//! (in another assertion, a lemma or a certificate) is the same variable.

use crate::Rat;
use dsolve_logic::{Binop, Expr, Sort, SortEnv, Symbol};
use dsolve_obs::{micro, MicroCounter};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifier of a hash-consed term in a [`TermArena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Index form, for dense arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A flattened term node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Term {
    /// Integer constant.
    Int(i64),
    /// Boolean constant (an EUF individual; `true ≠ false` is built in).
    Bool(bool),
    /// Free variable with its sort, or the variable a lifted `ite`
    /// stands for.
    Var(Symbol, Sort),
    /// Uninterpreted application (measures, `Sel`, `Upd`, set ops,
    /// non-linear arithmetic). Reserved head symbols are produced by
    /// [`TermArena::flatten`]: `$sel`, `$upd`, `$union`, `$single`,
    /// `$empty`, `$mul`, `$div`, `$mod`, `$in`.
    App(Symbol, Vec<TermId>),
}

/// The reserved head symbols, interned once per process.
pub(crate) struct Heads {
    pub(crate) add: Symbol,
    pub(crate) sub: Symbol,
    pub(crate) mul: Symbol,
    pub(crate) div: Symbol,
    pub(crate) modulo: Symbol,
    pub(crate) sel: Symbol,
    pub(crate) upd: Symbol,
    pub(crate) empty: Symbol,
    pub(crate) single: Symbol,
    pub(crate) union: Symbol,
    pub(crate) member: Symbol,
    pub(crate) subset: Symbol,
}

/// The reserved head symbols.
pub(crate) fn heads() -> &'static Heads {
    static HEADS: OnceLock<Heads> = OnceLock::new();
    HEADS.get_or_init(|| Heads {
        add: Symbol::new("$add"),
        sub: Symbol::new("$sub"),
        mul: Symbol::new("$mul"),
        div: Symbol::new("$div"),
        modulo: Symbol::new("$mod"),
        sel: Symbol::new("$sel"),
        upd: Symbol::new("$upd"),
        empty: Symbol::new("$empty"),
        single: Symbol::new("$single"),
        union: Symbol::new("$union"),
        member: Symbol::new("$in"),
        subset: Symbol::new("$subset"),
    })
}

/// Arena of hash-consed terms.
#[derive(Default)]
pub struct TermArena {
    terms: Vec<Term>,
    sorts: Vec<Sort>,
    dedup: HashMap<Term, TermId>,
    /// The variable each lifted `ite` term stands for.
    ites: HashMap<Arc<Expr>, TermId>,
    /// Lifted `ite` terms whose definitions the encoder has not taken
    /// yet, with their variables, in lifting order.
    undefined: Vec<(TermId, Arc<Expr>)>,
}

impl TermArena {
    /// Creates an empty arena.
    pub fn new() -> TermArena {
        TermArena::default()
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Interns a term with an explicit sort.
    pub fn intern(&mut self, t: Term, sort: Sort) -> TermId {
        if let Some(&id) = self.dedup.get(&t) {
            return id;
        }
        let id = TermId(u32::try_from(self.terms.len()).expect("term arena overflow"));
        self.dedup.insert(t.clone(), id);
        self.terms.push(t);
        self.sorts.push(sort);
        id
    }

    /// The node for `id`.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// The sort of `id`.
    pub fn sort(&self, id: TermId) -> &Sort {
        &self.sorts[id.index()]
    }

    /// All ids, in creation order.
    pub fn ids(&self) -> impl Iterator<Item = TermId> {
        (0..self.terms.len() as u32).map(TermId)
    }

    /// Flattens a `logic` expression into the arena, lifting each `ite`
    /// it meets (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics on variables missing from `env` (callers bind every free
    /// variable).
    pub fn flatten(&mut self, e: &Expr, env: &SortEnv) -> TermId {
        let h = heads();
        match e {
            Expr::Int(v) => self.intern(Term::Int(*v), Sort::Int),
            Expr::Bool(b) => self.intern(Term::Bool(*b), Sort::Bool),
            Expr::Var(x) => {
                let sort = env
                    .sort_of_var(*x)
                    .cloned()
                    .unwrap_or_else(|| panic!("unbound variable `{x}` reached the solver"));
                self.intern(Term::Var(*x, sort.clone()), sort)
            }
            Expr::Neg(a) => {
                // -a = 0 - a; keep arithmetic interpreted via LinExpr, but
                // when an arena term is needed, represent as $mul(-1, a).
                let ta = self.flatten(a, env);
                let m1 = self.intern(Term::Int(-1), Sort::Int);
                self.intern(Term::App(h.mul, vec![m1, ta]), Sort::Int)
            }
            Expr::Binop(op, a, b) => {
                let ta = self.flatten(a, env);
                let tb = self.flatten(b, env);
                let head = match op {
                    Binop::Add => h.add,
                    Binop::Sub => h.sub,
                    Binop::Mul => h.mul,
                    Binop::Div => h.div,
                    Binop::Mod => h.modulo,
                };
                self.intern(Term::App(head, vec![ta, tb]), Sort::Int)
            }
            Expr::Ite(_, t, f) => {
                if let Some(&v) = self.ites.get(e) {
                    return v;
                }
                let sort = env
                    .sort_of(t)
                    .or_else(|| env.sort_of(f))
                    .unwrap_or(Sort::Int);
                let v = self.intern(Term::Var(Symbol::fresh("ite"), sort.clone()), sort);
                micro::add(MicroCounter::IteExpansions, 1);
                let ite = Arc::new(e.clone());
                self.ites.insert(Arc::clone(&ite), v);
                self.undefined.push((v, ite));
                v
            }
            Expr::App(f, args) => {
                let targs: Vec<TermId> = args.iter().map(|a| self.flatten(a, env)).collect();
                let ret = env
                    .sort_of_func(*f)
                    .map(|fs| fs.ret.clone())
                    .unwrap_or(Sort::Obj(Symbol::new("unknown")));
                self.intern(Term::App(*f, targs), ret)
            }
            Expr::Sel(m, i) => {
                let tm = self.flatten(m, env);
                let ti = self.flatten(i, env);
                self.intern(Term::App(h.sel, vec![tm, ti]), Sort::Int)
            }
            Expr::Upd(m, i, v) => {
                let tm = self.flatten(m, env);
                let ti = self.flatten(i, env);
                let tv = self.flatten(v, env);
                self.intern(Term::App(h.upd, vec![tm, ti, tv]), Sort::Map)
            }
            Expr::SetEmpty => self.empty_set(),
            Expr::SetSingle(x) => {
                let tx = self.flatten(x, env);
                self.intern(Term::App(h.single, vec![tx]), Sort::Set)
            }
            Expr::SetUnion(a, b) => {
                let ta = self.flatten(a, env);
                let tb = self.flatten(b, env);
                self.union(ta, tb)
            }
        }
    }

    /// Takes the `ite` terms lifted since the last call, each with the
    /// variable that stands for it. Every one must be defined, since
    /// flattening will not queue it again.
    pub(crate) fn take_undefined(&mut self) -> Vec<(TermId, Arc<Expr>)> {
        std::mem::take(&mut self.undefined)
    }

    /// The term `empty`.
    pub fn empty_set(&mut self) -> TermId {
        self.intern(Term::App(heads().empty, vec![]), Sort::Set)
    }

    /// The term `union(a, b)`.
    pub fn union(&mut self, a: TermId, b: TermId) -> TermId {
        self.intern(Term::App(heads().union, vec![a, b]), Sort::Set)
    }

    /// The linear form of an integer term, as [`TermArena::linearize`]
    /// gives it for any expression that flattens to `id`: `$add`, `$sub`
    /// and products with a constant side are interpreted, every other
    /// term is an atom.
    pub fn linear_form(&self, id: TermId) -> LinExpr {
        let h = heads();
        match self.term(id) {
            Term::Int(v) => LinExpr::constant(Rat::from_int(*v)),
            Term::App(f, args) if *f == h.add || *f == h.sub => {
                let mut la = self.linear_form(args[0]);
                let lb = self.linear_form(args[1]);
                let sign = if *f == h.add { 1 } else { -1 };
                la.add_assign(&lb.scale(Rat::from_int(sign)));
                la
            }
            Term::App(f, args) if *f == h.mul => {
                let la = self.linear_form(args[0]);
                let lb = self.linear_form(args[1]);
                if let Some(c) = la.as_constant() {
                    lb.scale(c)
                } else if let Some(c) = lb.as_constant() {
                    la.scale(c)
                } else {
                    LinExpr::atom(id)
                }
            }
            _ => LinExpr::atom(id),
        }
    }

    /// Linearizes an integer expression into `constant + Σ coeff·atom`.
    ///
    /// Non-arithmetic subterms (variables, applications) become atoms keyed
    /// by their arena id; products with a constant side distribute, other
    /// products fall back to an uninterpreted `$mul` atom.
    pub fn linearize(&mut self, e: &Expr, env: &SortEnv) -> LinExpr {
        match e {
            Expr::Int(v) => LinExpr::constant(Rat::from_int(*v)),
            Expr::Neg(a) => self.linearize(a, env).scale(Rat::from_int(-1)),
            Expr::Binop(Binop::Add, a, b) => {
                let mut la = self.linearize(a, env);
                la.add_assign(&self.linearize(b, env));
                la
            }
            Expr::Binop(Binop::Sub, a, b) => {
                let mut la = self.linearize(a, env);
                la.add_assign(&self.linearize(b, env).scale(Rat::from_int(-1)));
                la
            }
            Expr::Binop(Binop::Mul, a, b) => {
                let la = self.linearize(a, env);
                let lb = self.linearize(b, env);
                if let Some(c) = la.as_constant() {
                    lb.scale(c)
                } else if let Some(c) = lb.as_constant() {
                    la.scale(c)
                } else {
                    // Non-linear: opaque atom.
                    let id = self.flatten(e, env);
                    LinExpr::atom(id)
                }
            }
            Expr::Binop(Binop::Div | Binop::Mod, _, _) => {
                let id = self.flatten(e, env);
                LinExpr::atom(id)
            }
            _ => {
                let id = self.flatten(e, env);
                LinExpr::atom(id)
            }
        }
    }

    /// Renders a term for diagnostics.
    pub fn display(&self, id: TermId) -> String {
        match self.term(id) {
            Term::Int(v) => v.to_string(),
            Term::Bool(b) => b.to_string(),
            Term::Var(x, _) => x.to_string(),
            Term::App(f, args) => {
                let parts: Vec<String> = args.iter().map(|a| self.display(*a)).collect();
                format!("{f}({})", parts.join(", "))
            }
        }
    }
}

impl fmt::Debug for TermArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TermArena[{} terms]", self.terms.len())
    }
}

/// A linear combination `constant + Σ coeff·atom` over term atoms.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LinExpr {
    /// Constant offset.
    pub constant: Rat,
    /// Coefficients per atom id (no zero coefficients are stored).
    pub terms: BTreeMap<TermId, Rat>,
}

impl LinExpr {
    /// The constant linear expression.
    pub fn constant(c: Rat) -> LinExpr {
        LinExpr {
            constant: c,
            terms: BTreeMap::new(),
        }
    }

    /// A single atom with coefficient one.
    pub fn atom(id: TermId) -> LinExpr {
        let mut terms = BTreeMap::new();
        terms.insert(id, Rat::ONE);
        LinExpr {
            constant: Rat::ZERO,
            terms,
        }
    }

    /// If the expression is a constant, returns it.
    pub fn as_constant(&self) -> Option<Rat> {
        if self.terms.is_empty() {
            Some(self.constant)
        } else {
            None
        }
    }

    /// Scales by a rational.
    #[must_use]
    pub fn scale(mut self, c: Rat) -> LinExpr {
        if c.is_zero() {
            return LinExpr::constant(Rat::ZERO);
        }
        self.constant = self.constant * c;
        for v in self.terms.values_mut() {
            *v = *v * c;
        }
        self
    }

    /// Adds another linear expression in place.
    pub fn add_assign(&mut self, other: &LinExpr) {
        self.constant += other.constant;
        for (id, c) in &other.terms {
            let entry = self.terms.entry(*id).or_insert(Rat::ZERO);
            *entry += *c;
            if entry.is_zero() {
                self.terms.remove(id);
            }
        }
    }

    /// `self - other`.
    #[must_use]
    pub fn minus(&self, other: &LinExpr) -> LinExpr {
        let mut out = self.clone();
        out.add_assign(&other.clone().scale(Rat::from_int(-1)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsolve_logic::parse_expr;

    fn env() -> SortEnv {
        let mut env = SortEnv::new();
        for v in ["x", "y", "z", "i", "j"] {
            env.bind(Symbol::new(v), Sort::Int);
        }
        env.bind(Symbol::new("m"), Sort::Map);
        env
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut a = TermArena::new();
        let env = env();
        let e = parse_expr("x + y").unwrap();
        let t1 = a.flatten(&e, &env);
        let t2 = a.flatten(&e, &env);
        assert_eq!(t1, t2);
    }

    #[test]
    fn linearize_combines_terms() {
        let mut a = TermArena::new();
        let env = env();
        let e = parse_expr("x + 2 * x + 3 - 1").unwrap();
        let l = a.linearize(&e, &env);
        assert_eq!(l.constant, Rat::from_int(2));
        assert_eq!(l.terms.len(), 1);
        let coeff = *l.terms.values().next().unwrap();
        assert_eq!(coeff, Rat::from_int(3));
    }

    #[test]
    fn linearize_cancellation() {
        let mut a = TermArena::new();
        let env = env();
        let e = parse_expr("x - x").unwrap();
        let l = a.linearize(&e, &env);
        assert_eq!(l.as_constant(), Some(Rat::ZERO));
    }

    #[test]
    fn nonlinear_becomes_atom() {
        let mut a = TermArena::new();
        let env = env();
        let e = parse_expr("x * y").unwrap();
        let l = a.linearize(&e, &env);
        assert!(l.as_constant().is_none());
        assert_eq!(l.terms.len(), 1);
        let (id, _) = l.terms.iter().next().unwrap();
        assert!(matches!(a.term(*id), Term::App(f, _) if f.as_str() == "$mul"));
    }

    #[test]
    fn sel_is_an_int_atom() {
        let mut a = TermArena::new();
        let env = env();
        let e = parse_expr("Sel(m, i) + 1").unwrap();
        let l = a.linearize(&e, &env);
        assert_eq!(l.constant, Rat::from_int(1));
        assert_eq!(l.terms.len(), 1);
    }

    #[test]
    fn linear_form_of_a_flattened_expr_is_its_linearization() {
        let env = env();
        for src in [
            "x + 2 * y - 3",
            "-(x - y)",
            "-1 * x",
            "x * y + 1",
            "(x + 1) * 3",
            "x / 2 + x mod 3",
            "Sel(m, i) - 1",
            "2 * (3 * x) - 0 * y",
        ] {
            let e = parse_expr(src).unwrap();
            let mut a = TermArena::new();
            let id = a.flatten(&e, &env);
            assert_eq!(a.linear_form(id), a.linearize(&e, &env), "{src}");
        }
    }

    #[test]
    fn an_ite_met_twice_is_lifted_once() {
        let env = env();
        let e = parse_expr("(if x < y then x else y) + (if x < y then x else y)").unwrap();
        let mut a = TermArena::new();
        micro::drain();
        let sum = a.flatten(&e, &env);
        let Term::App(_, args) = a.term(sum).clone() else {
            panic!("a sum flattens to `$add`");
        };
        assert_eq!(args[0], args[1]);
        assert!(matches!(a.term(args[0]), Term::Var(v, Sort::Int) if v.is_fresh()));
        let undefined = a.take_undefined();
        assert_eq!(undefined.len(), 1);
        assert_eq!(undefined[0].0, args[0]);
        assert_eq!(micro::drain().micro[MicroCounter::IteExpansions.index()], 1);
        // Met again after its definition was taken, it is the same
        // variable, and nothing is queued.
        assert_eq!(a.flatten(&e, &env), sum);
        assert!(a.take_undefined().is_empty());
    }

    #[test]
    fn minus_subtracts() {
        let mut a = TermArena::new();
        let env = env();
        let l1 = a.linearize(&parse_expr("x + 3").unwrap(), &env);
        let l2 = a.linearize(&parse_expr("x + 1").unwrap(), &env);
        let d = l1.minus(&l2);
        assert_eq!(d.as_constant(), Some(Rat::from_int(2)));
    }
}
