//! Terms of the refinement logic.

use crate::{Pred, Symbol};
use std::collections::BTreeSet;
use std::fmt;

/// Binary arithmetic operators. Multiplication is syntactically allowed but
/// the solver only interprets it when one side is a constant (linear
/// fragment); other products are treated as uninterpreted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Binop {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication (linear occurrences only are interpreted).
    Mul,
    /// Euclidean division (uninterpreted except by constants).
    Div,
    /// Modulus (uninterpreted except by constants).
    Mod,
}

impl fmt::Display for Binop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Binop::Add => "+",
            Binop::Sub => "-",
            Binop::Mul => "*",
            Binop::Div => "/",
            Binop::Mod => "mod",
        };
        write!(f, "{s}")
    }
}

/// A first-order term.
///
/// Terms include program variables, integer literals, linear arithmetic,
/// applications of uninterpreted functions (measures such as `elts` or
/// `ht`), McCarthy map operations `Sel`/`Upd`, and finite-set constructors.
///
/// # Examples
///
/// ```
/// use dsolve_logic::{Expr, Symbol};
/// let e = Expr::var("x").add(Expr::int(1));
/// assert_eq!(e.to_string(), "(x + 1)");
/// assert!(e.free_vars().contains(&Symbol::new("x")));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Expr {
    /// A variable (program variable, the value variable `ν`, or a `★`).
    Var(Symbol),
    /// An integer literal.
    Int(i64),
    /// A boolean literal.
    Bool(bool),
    /// A binary arithmetic operation.
    Binop(Binop, Box<Expr>, Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// If-then-else at the term level (used by measure bodies, e.g. the
    /// height measure of AVL trees).
    Ite(Box<Pred>, Box<Expr>, Box<Expr>),
    /// Application of an uninterpreted function or measure.
    App(Symbol, Vec<Expr>),
    /// McCarthy map read `Sel(m, i)`.
    Sel(Box<Expr>, Box<Expr>),
    /// McCarthy map write `Upd(m, i, v)`.
    Upd(Box<Expr>, Box<Expr>, Box<Expr>),
    /// The empty set.
    SetEmpty,
    /// The singleton set `{e}`.
    SetSingle(Box<Expr>),
    /// Set union.
    SetUnion(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// A variable term.
    pub fn var(name: impl Into<Symbol>) -> Expr {
        Expr::Var(name.into())
    }

    /// The value variable `ν`.
    pub fn nu() -> Expr {
        Expr::Var(Symbol::value_var())
    }

    /// An integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    /// `self + rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Binop(Binop::Add, Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Binop(Binop::Sub, Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Binop(Binop::Mul, Box::new(self), Box::new(rhs))
    }

    /// An application `f(args)` of an uninterpreted function or measure.
    pub fn app(f: impl Into<Symbol>, args: Vec<Expr>) -> Expr {
        Expr::App(f.into(), args)
    }

    /// `Sel(map, key)`.
    pub fn sel(map: Expr, key: Expr) -> Expr {
        Expr::Sel(Box::new(map), Box::new(key))
    }

    /// `Upd(map, key, val)`.
    pub fn upd(map: Expr, key: Expr, val: Expr) -> Expr {
        Expr::Upd(Box::new(map), Box::new(key), Box::new(val))
    }

    /// The singleton set `{e}`.
    pub fn single(e: Expr) -> Expr {
        Expr::SetSingle(Box::new(e))
    }

    /// The union of two sets.
    pub fn union(a: Expr, b: Expr) -> Expr {
        Expr::SetUnion(Box::new(a), Box::new(b))
    }

    /// Capture-free substitution of `with` for the variable `var`.
    ///
    /// The logic has no term-level binders, so substitution is structural.
    pub fn subst(&self, var: Symbol, with: &Expr) -> Expr {
        match self {
            Expr::Var(x) => {
                if *x == var {
                    with.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Int(_) | Expr::Bool(_) | Expr::SetEmpty => self.clone(),
            Expr::Binop(op, a, b) => Expr::Binop(
                *op,
                Box::new(a.subst(var, with)),
                Box::new(b.subst(var, with)),
            ),
            Expr::Neg(a) => Expr::Neg(Box::new(a.subst(var, with))),
            Expr::Ite(c, t, e) => Expr::Ite(
                Box::new(c.subst(var, with)),
                Box::new(t.subst(var, with)),
                Box::new(e.subst(var, with)),
            ),
            Expr::App(f, args) => Expr::App(*f, args.iter().map(|a| a.subst(var, with)).collect()),
            Expr::Sel(m, i) => Expr::sel(m.subst(var, with), i.subst(var, with)),
            Expr::Upd(m, i, v) => {
                Expr::upd(m.subst(var, with), i.subst(var, with), v.subst(var, with))
            }
            Expr::SetSingle(e) => Expr::single(e.subst(var, with)),
            Expr::SetUnion(a, b) => Expr::union(a.subst(var, with), b.subst(var, with)),
        }
    }

    /// All variables occurring in the term.
    pub fn free_vars(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    pub(crate) fn collect_vars(&self, out: &mut BTreeSet<Symbol>) {
        match self {
            Expr::Var(x) => {
                out.insert(*x);
            }
            Expr::Int(_) | Expr::Bool(_) | Expr::SetEmpty => {}
            Expr::Binop(_, a, b) | Expr::SetUnion(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Neg(a) | Expr::SetSingle(a) => a.collect_vars(out),
            Expr::Ite(c, t, e) => {
                c.collect_vars(out);
                t.collect_vars(out);
                e.collect_vars(out);
            }
            Expr::App(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Expr::Sel(m, i) => {
                m.collect_vars(out);
                i.collect_vars(out);
            }
            Expr::Upd(m, i, v) => {
                m.collect_vars(out);
                i.collect_vars(out);
                v.collect_vars(out);
            }
        }
    }

    /// Collects the function symbols applied anywhere in the term.
    pub(crate) fn collect_funcs(&self, out: &mut BTreeSet<Symbol>) {
        match self {
            Expr::Var(_) | Expr::Int(_) | Expr::Bool(_) | Expr::SetEmpty => {}
            Expr::Binop(_, a, b) | Expr::SetUnion(a, b) | Expr::Sel(a, b) => {
                a.collect_funcs(out);
                b.collect_funcs(out);
            }
            Expr::Neg(a) | Expr::SetSingle(a) => a.collect_funcs(out),
            Expr::Ite(c, t, e) => {
                c.collect_funcs(out);
                t.collect_funcs(out);
                e.collect_funcs(out);
            }
            Expr::App(f, args) => {
                out.insert(*f);
                for a in args {
                    a.collect_funcs(out);
                }
            }
            Expr::Upd(m, i, v) => {
                m.collect_funcs(out);
                i.collect_funcs(out);
                v.collect_funcs(out);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(x) => write!(f, "{x}"),
            Expr::Int(v) => write!(f, "{v}"),
            Expr::Bool(b) => write!(f, "{b}"),
            Expr::Binop(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::Neg(a) => write!(f, "(- {a})"),
            Expr::Ite(c, t, e) => write!(f, "(if {c} then {t} else {e})"),
            Expr::App(g, args) => {
                write!(f, "{g}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Sel(m, i) => write!(f, "Sel({m}, {i})"),
            Expr::Upd(m, i, v) => write!(f, "Upd({m}, {i}, {v})"),
            Expr::SetEmpty => write!(f, "empty"),
            Expr::SetSingle(e) => write!(f, "single({e})"),
            Expr::SetUnion(a, b) => write!(f, "union({a}, {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substitution_replaces_all_occurrences() {
        let x = Symbol::new("x");
        let e = Expr::var("x").add(Expr::var("x").mul(Expr::var("y")));
        let r = e.subst(x, &Expr::int(3));
        assert_eq!(r.to_string(), "(3 + (3 * y))");
    }

    #[test]
    fn substitution_enters_apps_and_sets() {
        let x = Symbol::new("x");
        let e = Expr::union(
            Expr::single(Expr::var("x")),
            Expr::app("elts", vec![Expr::var("x")]),
        );
        let r = e.subst(x, &Expr::var("z"));
        assert_eq!(r.to_string(), "union(single(z), elts(z))");
    }

    #[test]
    fn free_vars_are_collected() {
        let e = Expr::sel(Expr::var("m"), Expr::var("i")).add(Expr::int(2));
        let fv = e.free_vars();
        assert!(fv.contains(&Symbol::new("m")));
        assert!(fv.contains(&Symbol::new("i")));
        assert_eq!(fv.len(), 2);
    }
}
