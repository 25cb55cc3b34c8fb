//! Refinement types with recursive and polymorphic refinements.
//!
//! This module is the data model for §4 and §5 of the paper:
//!
//! * [`Refinement`] — a conjunction of concrete predicates and liquid
//!   variables `κ`, each under a *pending substitution* `θ` (§4.3);
//! * [`Rho`] — a recursive refinement matrix: one refinement per
//!   constructor per field;
//! * [`RType`] — refinement types: refined bases, dependent functions,
//!   dependent tuples, refined polytype-variable instances `α·θ` (§5),
//!   and refined datatypes carrying a top matrix, *inner* matrices for
//!   the recursive positions of the μ-body, and a top-level value
//!   refinement (where measure facts live);
//! * [`RScheme`] — type schemes quantified over (possibly witnessed)
//!   refined polytype variables `α⟨x:τ⟩`.

use dsolve_logic::{Expr, Pred, Subst, Symbol};
use dsolve_nanoml::MlType;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

/// A liquid (refinement) variable `κ`, to be solved by the fixpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KVar(pub u32);

impl KVar {
    /// Allocates a globally fresh liquid variable.
    pub fn fresh() -> KVar {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        KVar(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl fmt::Display for KVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// One conjunct of a refinement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RefAtom {
    /// A concrete predicate over `ν` and program variables.
    Conc(Pred),
    /// A liquid variable to be solved.
    KVar(KVar),
}

/// A refinement: a conjunction of atoms, each under its own pending
/// substitution (applied to the atom once `κ` is solved; applied eagerly
/// to concrete predicates).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Refinement {
    /// The conjuncts with their pending substitutions.
    pub atoms: Vec<(Subst, RefAtom)>,
}

impl Refinement {
    /// The trivial refinement `⊤`.
    pub fn top() -> Refinement {
        Refinement::default()
    }

    /// A single concrete predicate.
    pub fn pred(p: Pred) -> Refinement {
        match p {
            Pred::True => Refinement::top(),
            p => Refinement {
                atoms: vec![(Subst::new(), RefAtom::Conc(p))],
            },
        }
    }

    /// A fresh liquid variable refinement.
    pub fn fresh_kvar() -> Refinement {
        Refinement {
            atoms: vec![(Subst::new(), RefAtom::KVar(KVar::fresh()))],
        }
    }

    /// The exact refinement `ν = e` ("selfification").
    pub fn exactly(e: Expr) -> Refinement {
        Refinement::pred(Pred::eq(Expr::nu(), e))
    }

    /// Whether the refinement is syntactically `⊤`.
    pub fn is_top(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Conjunction of two refinements.
    #[must_use]
    pub fn and(&self, other: &Refinement) -> Refinement {
        let mut atoms = self.atoms.clone();
        atoms.extend(other.atoms.iter().cloned());
        Refinement { atoms }
    }

    /// Applies a substitution: concrete predicates are rewritten eagerly,
    /// `κ` atoms accumulate it as pending.
    #[must_use]
    pub fn subst(&self, theta: &Subst) -> Refinement {
        if theta.is_empty() {
            return self.clone();
        }
        Refinement {
            atoms: self
                .atoms
                .iter()
                .map(|(s, a)| match a {
                    RefAtom::Conc(p) => (
                        Subst::new(),
                        RefAtom::Conc(theta.apply_pred(&s.apply_pred(p))),
                    ),
                    RefAtom::KVar(k) => (s.clone().compose(theta), RefAtom::KVar(*k)),
                })
                .collect(),
        }
    }

    /// Single-variable substitution convenience.
    #[must_use]
    pub fn subst1(&self, var: Symbol, with: &Expr) -> Refinement {
        self.subst(&Subst::single(var, with.clone()))
    }

    /// The liquid variables mentioned.
    pub fn kvars(&self) -> Vec<KVar> {
        self.atoms
            .iter()
            .filter_map(|(_, a)| match a {
                RefAtom::KVar(k) => Some(*k),
                RefAtom::Conc(_) => None,
            })
            .collect()
    }

    /// Resolves to a concrete predicate under a `κ` assignment lookup.
    pub fn concretize(&self, lookup: &impl Fn(KVar) -> Pred) -> Pred {
        Pred::and(
            self.atoms
                .iter()
                .map(|(s, a)| match a {
                    RefAtom::Conc(p) => s.apply_pred(p),
                    RefAtom::KVar(k) => s.apply_pred(&lookup(*k)),
                })
                .collect(),
        )
    }
}

impl fmt::Display for Refinement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.atoms.is_empty() {
            return write!(f, "true");
        }
        for (i, (s, a)) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, " && ")?;
            }
            match a {
                RefAtom::Conc(p) => write!(f, "{p}")?,
                RefAtom::KVar(k) => write!(f, "{s}{k}")?,
            }
        }
        Ok(())
    }
}

/// A recursive refinement matrix: `entries[(ctor_ix, field_ix)]` refines
/// the given field of the given constructor (absent entries are `⊤`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Rho {
    /// Matrix entries.
    pub entries: BTreeMap<(usize, usize), Refinement>,
}

impl Rho {
    /// The all-`⊤` matrix.
    pub fn top() -> Rho {
        Rho::default()
    }

    /// The entry at `(ctor, field)` (`⊤` when absent).
    pub fn entry(&self, ctor: usize, field: usize) -> Refinement {
        self.entries
            .get(&(ctor, field))
            .cloned()
            .unwrap_or_default()
    }

    /// Sets an entry.
    pub fn set(&mut self, ctor: usize, field: usize, r: Refinement) {
        if !r.is_top() {
            self.entries.insert((ctor, field), r);
        }
    }

    /// Pointwise conjunction (the paper's normalization of adjacent
    /// refinements `(ρ)(ρ')`).
    #[must_use]
    pub fn compose(&self, other: &Rho) -> Rho {
        let mut out = self.clone();
        for (k, r) in &other.entries {
            let merged = out.entry(k.0, k.1).and(r);
            out.entries.insert(*k, merged);
        }
        out
    }

    /// Applies a substitution to every entry.
    #[must_use]
    pub fn subst(&self, theta: &Subst) -> Rho {
        Rho {
            entries: self
                .entries
                .iter()
                .map(|(k, r)| (*k, r.subst(theta)))
                .collect(),
        }
    }

    /// All liquid variables in the matrix.
    pub fn kvars(&self) -> Vec<KVar> {
        self.entries.values().flat_map(|r| r.kvars()).collect()
    }

    /// Whether every entry is `⊤`.
    pub fn is_top(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for Rho {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, ((c, j), r)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{c}.{j}:{r}")?;
        }
        write!(f, "⟩")
    }
}

/// Base types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaseTy {
    /// Integers.
    Int,
    /// Booleans.
    Bool,
    /// Unit.
    Unit,
}

/// A refined datatype occurrence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataRType {
    /// Type constructor name.
    pub name: Symbol,
    /// Refined type arguments.
    pub targs: Vec<RType>,
    /// Top recursive refinement matrix (applied at the next unfold).
    pub rho: Rho,
    /// Inner matrices: for each *recursive field position* `(ctor,
    /// field)` of the μ-body, the matrix applied to that sub-structure.
    /// Entry predicates may mention the canonical field names of the
    /// enclosing constructor (see [`field_name`]) and are renamed to the
    /// actual binders at unfold time.
    pub inner: BTreeMap<(usize, usize), Rho>,
    /// Top-level refinement of the value itself (measure facts).
    pub refinement: Refinement,
}

/// The canonical logical name of field `field` of constructor `ctor` of
/// datatype `decl` — the μ-bound names `x₁, x₂, …` of the paper, made
/// globally unambiguous.
pub fn field_name(decl: Symbol, ctor: Symbol, field: usize) -> Symbol {
    Symbol::new(&format!("{decl}#{ctor}#{field}"))
}

/// Creates a *witness* variable for a refined polytype quantifier
/// `α⟨x:τ⟩` (§5). Witness names are syntactically reserved so that
/// pending substitutions on polytype instances track exactly the
/// witnesses — ordinary program-variable substitutions rewrite pending
/// right-hand sides but never extend the pending domain.
pub fn witness_symbol(tag: &str) -> Symbol {
    Symbol::new(&format!("wit#{tag}"))
}

/// Whether a symbol is a witness variable.
pub fn is_witness(s: Symbol) -> bool {
    s.as_str().starts_with("wit#")
}

/// A refinement type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RType {
    /// A refined base type `{ν:B | r}`.
    Base(BaseTy, Refinement),
    /// A dependent function `x:T₁ → T₂` (the binder may occur in `T₂`).
    Fun(Symbol, Box<RType>, Box<RType>),
    /// A dependent tuple `⟨x₁:T₁; …; xₙ:Tₙ⟩` (later refinements may
    /// mention earlier binders).
    Tuple(Vec<(Symbol, RType)>),
    /// A refined polytype-variable instance `{ν : α·θ | r}` — `θ` is the
    /// pending substitution of §5 (`α[y/x]`), applied when `α` is
    /// instantiated.
    TyVar(u32, Subst, Refinement),
    /// A refined datatype.
    Data(DataRType),
}

impl RType {
    /// `{ν:int | ⊤}`.
    pub fn int() -> RType {
        RType::Base(BaseTy::Int, Refinement::top())
    }

    /// `{ν:bool | ⊤}`.
    pub fn bool() -> RType {
        RType::Base(BaseTy::Bool, Refinement::top())
    }

    /// `unit`.
    pub fn unit() -> RType {
        RType::Base(BaseTy::Unit, Refinement::top())
    }

    /// `{ν:int | p}`.
    pub fn int_pred(p: Pred) -> RType {
        RType::Base(BaseTy::Int, Refinement::pred(p))
    }

    /// The top-level refinement of a value type (`⊤` for functions).
    pub fn refinement(&self) -> Refinement {
        match self {
            RType::Base(_, r) | RType::TyVar(_, _, r) => r.clone(),
            RType::Data(d) => d.refinement.clone(),
            RType::Fun(..) | RType::Tuple(_) => Refinement::top(),
        }
    }

    /// Replaces the top-level refinement.
    #[must_use]
    pub fn with_refinement(&self, r: Refinement) -> RType {
        match self {
            RType::Base(b, _) => RType::Base(*b, r),
            RType::TyVar(v, s, _) => RType::TyVar(*v, s.clone(), r),
            RType::Data(d) => RType::Data(DataRType {
                refinement: r,
                ..d.clone()
            }),
            other => other.clone(),
        }
    }

    /// Conjoins a refinement onto the top level (the `(e)(ρ…)`
    /// strengthening of [▷-PROD]).
    #[must_use]
    pub fn strengthen(&self, r: &Refinement) -> RType {
        if r.is_top() {
            return self.clone();
        }
        self.with_refinement(self.refinement().and(r))
    }

    /// Strengthens with `ν = e` when the type admits a refinement.
    #[must_use]
    pub fn selfify(&self, e: Expr) -> RType {
        match self {
            RType::Fun(..) | RType::Tuple(_) => self.clone(),
            _ => self.strengthen(&Refinement::exactly(e)),
        }
    }

    /// Applies a substitution to every refinement (capture is avoided by
    /// construction: binders are globally fresh symbols).
    #[must_use]
    pub fn subst(&self, theta: &Subst) -> RType {
        if theta.is_empty() {
            return self.clone();
        }
        match self {
            RType::Base(b, r) => RType::Base(*b, r.subst(theta)),
            RType::Fun(x, t1, t2) => {
                RType::Fun(*x, Box::new(t1.subst(theta)), Box::new(t2.subst(theta)))
            }
            RType::Tuple(fields) => {
                RType::Tuple(fields.iter().map(|(x, t)| (*x, t.subst(theta))).collect())
            }
            RType::TyVar(v, pending, r) => {
                // Rewrite the pending right-hand sides; extend the domain
                // only with witness variables (see [`witness_symbol`]).
                let mut new_pending = Subst::new();
                for (x, e) in pending.pairs() {
                    new_pending = new_pending.then(*x, theta.apply_expr(e));
                }
                for (x, e) in theta.pairs() {
                    if is_witness(*x) {
                        new_pending = new_pending.then(*x, e.clone());
                    }
                }
                RType::TyVar(*v, new_pending, r.subst(theta))
            }
            RType::Data(d) => RType::Data(DataRType {
                name: d.name,
                targs: d.targs.iter().map(|t| t.subst(theta)).collect(),
                rho: d.rho.subst(theta),
                inner: d.inner.iter().map(|(k, m)| (*k, m.subst(theta))).collect(),
                refinement: d.refinement.subst(theta),
            }),
        }
    }

    /// Single-variable substitution convenience.
    #[must_use]
    pub fn subst1(&self, var: Symbol, with: &Expr) -> RType {
        self.subst(&Subst::single(var, with.clone()))
    }

    /// The ML shape (refinement erasure), given a resolver for type
    /// variables.
    pub fn shape(&self) -> MlType {
        match self {
            RType::Base(BaseTy::Int, _) => MlType::Int,
            RType::Base(BaseTy::Bool, _) => MlType::Bool,
            RType::Base(BaseTy::Unit, _) => MlType::Unit,
            RType::Fun(_, a, b) => MlType::Arrow(Box::new(a.shape()), Box::new(b.shape())),
            RType::Tuple(fields) => MlType::Tuple(fields.iter().map(|(_, t)| t.shape()).collect()),
            RType::TyVar(v, _, _) => MlType::Var(*v),
            RType::Data(d) => MlType::Data(d.name, d.targs.iter().map(|t| t.shape()).collect()),
        }
    }

    /// All liquid variables in the type.
    pub fn kvars(&self) -> Vec<KVar> {
        let mut out = Vec::new();
        self.collect_kvars(&mut out);
        out
    }

    fn collect_kvars(&self, out: &mut Vec<KVar>) {
        match self {
            RType::Base(_, r) | RType::TyVar(_, _, r) => out.extend(r.kvars()),
            RType::Fun(_, a, b) => {
                a.collect_kvars(out);
                b.collect_kvars(out);
            }
            RType::Tuple(fields) => {
                for (_, t) in fields {
                    t.collect_kvars(out);
                }
            }
            RType::Data(d) => {
                out.extend(d.refinement.kvars());
                out.extend(d.rho.kvars());
                for m in d.inner.values() {
                    out.extend(m.kvars());
                }
                for t in &d.targs {
                    t.collect_kvars(out);
                }
            }
        }
    }
}

impl fmt::Display for RType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RType::Base(b, r) => {
                let name = match b {
                    BaseTy::Int => "int",
                    BaseTy::Bool => "bool",
                    BaseTy::Unit => "unit",
                };
                if r.is_top() {
                    write!(f, "{name}")
                } else {
                    write!(f, "{{VV:{name} | {r}}}")
                }
            }
            RType::Fun(x, a, b) => write!(f, "{x}:{a} -> {b}"),
            RType::Tuple(fields) => {
                write!(f, "⟨")?;
                for (i, (x, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{x}:{t}")?;
                }
                write!(f, "⟩")
            }
            RType::TyVar(v, pending, r) => {
                if r.is_top() {
                    write!(f, "'t{v}{pending}")
                } else {
                    write!(f, "{{VV:'t{v}{pending} | {r}}}")
                }
            }
            RType::Data(d) => {
                if !d.refinement.is_top() {
                    write!(f, "{{VV:")?;
                }
                if !d.targs.is_empty() {
                    write!(f, "(")?;
                    for (i, t) in d.targs.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{t}")?;
                    }
                    write!(f, ") ")?;
                }
                if !d.rho.is_top() {
                    write!(f, "({}) ", d.rho)?;
                }
                write!(f, "{}", d.name)?;
                for ((c, j), m) in &d.inner {
                    if !m.is_top() {
                        write!(f, " inner[{c}.{j}]={m}")?;
                    }
                }
                if !d.refinement.is_top() {
                    write!(f, " | {}}}", d.refinement)?;
                }
                Ok(())
            }
        }
    }
}

/// A quantified refined polytype variable `α` or `α⟨x:τ⟩`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RVarDecl {
    /// The ML type-variable id.
    pub var: u32,
    /// Optional witness binder `⟨x:τ⟩` that instantiations may mention.
    pub witness: Option<(Symbol, MlType)>,
}

/// A refinement type scheme `∀ᾱ.T`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RScheme {
    /// Quantified variables, aligned with the ML scheme's order.
    pub vars: Vec<RVarDecl>,
    /// Body.
    pub ty: RType,
}

impl RScheme {
    /// A monomorphic scheme.
    pub fn mono(ty: RType) -> RScheme {
        RScheme { vars: vec![], ty }
    }
}

impl fmt::Display for RScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.vars.is_empty() {
            write!(f, "forall")?;
            for v in &self.vars {
                match &v.witness {
                    Some((x, t)) => write!(f, " 't{}⟨{x}:{t}⟩", v.var)?,
                    None => write!(f, " 't{}", v.var)?,
                }
            }
            write!(f, ". ")?;
        }
        write!(f, "{}", self.ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsolve_logic::parse_pred;

    #[test]
    fn refinement_and_flattens() {
        let a = Refinement::pred(parse_pred("0 < VV").unwrap());
        let b = Refinement::top();
        assert_eq!(a.and(&b).atoms.len(), 1);
        assert!(Refinement::pred(Pred::True).is_top());
    }

    #[test]
    fn subst_is_eager_on_concrete_pending_on_kvars() {
        let x = Symbol::new("x");
        let mut r = Refinement::pred(parse_pred("x <= VV").unwrap());
        r.atoms.push((Subst::new(), RefAtom::KVar(KVar::fresh())));
        let s = r.subst1(x, &Expr::int(3));
        match &s.atoms[0].1 {
            RefAtom::Conc(p) => assert_eq!(p.to_string(), "(3 <= VV)"),
            _ => panic!(),
        }
        match &s.atoms[1] {
            (theta, RefAtom::KVar(_)) => assert_eq!(theta.to_string(), "[3/x]"),
            _ => panic!(),
        }
    }

    #[test]
    fn rho_compose_conjoins() {
        let mut r1 = Rho::top();
        r1.set(1, 0, Refinement::pred(parse_pred("0 < VV").unwrap()));
        let mut r2 = Rho::top();
        r2.set(1, 0, Refinement::pred(parse_pred("x <= VV").unwrap()));
        r2.set(1, 1, Refinement::pred(parse_pred("VV < 9").unwrap()));
        let c = r1.compose(&r2);
        assert_eq!(c.entry(1, 0).atoms.len(), 2);
        assert_eq!(c.entry(1, 1).atoms.len(), 1);
        assert!(c.entry(0, 0).is_top());
    }

    #[test]
    fn selfify_strengthens() {
        let t = RType::int().selfify(Expr::var("x"));
        assert_eq!(t.to_string(), "{VV:int | (VV = x)}");
        // Functions are unaffected.
        let f = RType::Fun(
            Symbol::new("a"),
            Box::new(RType::int()),
            Box::new(RType::int()),
        );
        assert_eq!(f.selfify(Expr::var("x")), f);
    }

    #[test]
    fn shape_erases_refinements() {
        let t = RType::Data(DataRType {
            name: Symbol::new("list"),
            targs: vec![RType::int_pred(parse_pred("0 < VV").unwrap())],
            rho: Rho::top(),
            inner: BTreeMap::new(),
            refinement: Refinement::pred(parse_pred("len(VV) = 3").unwrap()),
        });
        assert_eq!(t.shape(), MlType::list(MlType::Int));
    }

    #[test]
    fn tyvar_pending_tracks_witnesses_only() {
        let t = RType::TyVar(0, Subst::new(), Refinement::top());
        // Ordinary program variables do not extend the pending domain…
        let t2 = t.subst1(Symbol::new("x"), &Expr::var("k"));
        let RType::TyVar(_, pending, _) = &t2 else {
            panic!()
        };
        assert!(pending.is_empty());
        // …witness variables do.
        let w = witness_symbol("t");
        let t3 = t.subst1(w, &Expr::var("k"));
        let RType::TyVar(_, pending, _) = &t3 else {
            panic!()
        };
        assert_eq!(pending.to_string(), format!("[k/{w}]"));
        // And later substitutions rewrite pending right-hand sides.
        let t4 = t3.subst1(Symbol::new("k"), &Expr::int(7));
        let RType::TyVar(_, pending, _) = &t4 else {
            panic!()
        };
        assert_eq!(pending.to_string(), format!("[7/{w}]"));
    }

    #[test]
    fn kvars_collected_from_all_positions() {
        let mut rho = Rho::top();
        rho.set(0, 0, Refinement::fresh_kvar());
        let mut inner = BTreeMap::new();
        let mut im = Rho::top();
        im.set(1, 0, Refinement::fresh_kvar());
        inner.insert((1, 1), im);
        let t = RType::Data(DataRType {
            name: Symbol::new("list"),
            targs: vec![RType::Base(BaseTy::Int, Refinement::fresh_kvar())],
            rho,
            inner,
            refinement: Refinement::fresh_kvar(),
        });
        assert_eq!(t.kvars().len(), 4);
    }

    #[test]
    fn field_names_are_canonical() {
        assert_eq!(
            field_name(Symbol::new("list"), Symbol::new("Cons"), 0),
            field_name(Symbol::new("list"), Symbol::new("Cons"), 0)
        );
        assert_ne!(
            field_name(Symbol::new("list"), Symbol::new("Cons"), 0),
            field_name(Symbol::new("list"), Symbol::new("Cons"), 1)
        );
    }
}
