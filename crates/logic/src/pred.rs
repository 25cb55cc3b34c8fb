//! Quantifier-free refinement predicates.

use crate::{Expr, Symbol};
use std::collections::BTreeSet;
use std::fmt;

/// Relational operators of atomic predicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rel {
    /// Equality (any sort).
    Eq,
    /// Disequality (any sort).
    Ne,
    /// Strictly less-than (integers).
    Lt,
    /// Less-or-equal (integers).
    Le,
    /// Strictly greater-than (integers).
    Gt,
    /// Greater-or-equal (integers).
    Ge,
    /// Set membership `e ∈ s`.
    In,
    /// Subset `s1 ⊆ s2`.
    Sub,
}

impl Rel {
    /// The relation with its arguments swapped (`a R b` iff `b R.flip() a`).
    ///
    /// `In` and `Sub` are not symmetric-flippable in this sense and are
    /// returned unchanged; callers never flip them.
    pub fn flip(self) -> Rel {
        match self {
            Rel::Eq => Rel::Eq,
            Rel::Ne => Rel::Ne,
            Rel::Lt => Rel::Gt,
            Rel::Le => Rel::Ge,
            Rel::Gt => Rel::Lt,
            Rel::Ge => Rel::Le,
            Rel::In => Rel::In,
            Rel::Sub => Rel::Sub,
        }
    }

    /// The negated relation, when expressible as another relation.
    pub fn negate(self) -> Option<Rel> {
        match self {
            Rel::Eq => Some(Rel::Ne),
            Rel::Ne => Some(Rel::Eq),
            Rel::Lt => Some(Rel::Ge),
            Rel::Le => Some(Rel::Gt),
            Rel::Gt => Some(Rel::Le),
            Rel::Ge => Some(Rel::Lt),
            Rel::In | Rel::Sub => None,
        }
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rel::Eq => "=",
            Rel::Ne => "!=",
            Rel::Lt => "<",
            Rel::Le => "<=",
            Rel::Gt => ">",
            Rel::Ge => ">=",
            Rel::In => "in",
            Rel::Sub => "subset",
        };
        write!(f, "{s}")
    }
}

/// A quantifier-free predicate over [`Expr`] terms.
///
/// # Examples
///
/// ```
/// use dsolve_logic::{Expr, Pred};
/// // 0 < ν
/// let p = Pred::lt(Expr::int(0), Expr::nu());
/// assert_eq!(p.to_string(), "(0 < VV)");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pred {
    /// `⊤`.
    True,
    /// `⊥`.
    False,
    /// An atomic relation between two terms.
    Atom(Rel, Expr, Expr),
    /// Conjunction.
    And(Vec<Pred>),
    /// Disjunction.
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// Implication.
    Imp(Box<Pred>, Box<Pred>),
    /// Bi-implication.
    Iff(Box<Pred>, Box<Pred>),
    /// A boolean-sorted term used as a predicate (e.g. a boolean variable
    /// or an uninterpreted boolean function application).
    Term(Expr),
}

impl Pred {
    /// `a = b`.
    pub fn eq(a: Expr, b: Expr) -> Pred {
        Pred::Atom(Rel::Eq, a, b)
    }

    /// `a != b`.
    pub fn ne(a: Expr, b: Expr) -> Pred {
        Pred::Atom(Rel::Ne, a, b)
    }

    /// `a < b`.
    pub fn lt(a: Expr, b: Expr) -> Pred {
        Pred::Atom(Rel::Lt, a, b)
    }

    /// `a <= b`.
    pub fn le(a: Expr, b: Expr) -> Pred {
        Pred::Atom(Rel::Le, a, b)
    }

    /// Set membership `e ∈ s`.
    pub fn mem(e: Expr, s: Expr) -> Pred {
        Pred::Atom(Rel::In, e, s)
    }

    /// Conjunction that flattens units and nested conjunctions.
    pub fn and(ps: Vec<Pred>) -> Pred {
        let mut out = Vec::new();
        for p in ps {
            match p {
                Pred::True => {}
                Pred::False => return Pred::False,
                Pred::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Pred::True,
            1 => out.pop().expect("len checked"),
            _ => Pred::And(out),
        }
    }

    /// Disjunction that flattens units and nested disjunctions.
    pub fn or(ps: Vec<Pred>) -> Pred {
        let mut out = Vec::new();
        for p in ps {
            match p {
                Pred::False => {}
                Pred::True => return Pred::True,
                Pred::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Pred::False,
            1 => out.pop().expect("len checked"),
            _ => Pred::Or(out),
        }
    }

    /// Logical negation, pushing through literals where cheap.
    #[allow(clippy::should_implement_trait)]
    pub fn not(p: Pred) -> Pred {
        match p {
            Pred::True => Pred::False,
            Pred::False => Pred::True,
            Pred::Not(inner) => *inner,
            Pred::Atom(rel, a, b) => match rel.negate() {
                Some(nrel) => Pred::Atom(nrel, a, b),
                None => Pred::Not(Box::new(Pred::Atom(rel, a, b))),
            },
            other => Pred::Not(Box::new(other)),
        }
    }

    /// Implication `p ⇒ q`.
    pub fn imp(p: Pred, q: Pred) -> Pred {
        match (p, q) {
            (Pred::True, q) => q,
            (Pred::False, _) => Pred::True,
            (_, Pred::True) => Pred::True,
            (p, q) => Pred::Imp(Box::new(p), Box::new(q)),
        }
    }

    /// Bi-implication `p ⇔ q`.
    pub fn iff(p: Pred, q: Pred) -> Pred {
        Pred::Iff(Box::new(p), Box::new(q))
    }

    /// Capture-free substitution of `with` for `var`.
    pub fn subst(&self, var: Symbol, with: &Expr) -> Pred {
        match self {
            Pred::True | Pred::False => self.clone(),
            Pred::Atom(rel, a, b) => Pred::Atom(*rel, a.subst(var, with), b.subst(var, with)),
            Pred::And(ps) => Pred::And(ps.iter().map(|p| p.subst(var, with)).collect()),
            Pred::Or(ps) => Pred::Or(ps.iter().map(|p| p.subst(var, with)).collect()),
            Pred::Not(p) => Pred::Not(Box::new(p.subst(var, with))),
            Pred::Imp(p, q) => {
                Pred::Imp(Box::new(p.subst(var, with)), Box::new(q.subst(var, with)))
            }
            Pred::Iff(p, q) => {
                Pred::Iff(Box::new(p.subst(var, with)), Box::new(q.subst(var, with)))
            }
            Pred::Term(e) => Pred::Term(e.subst(var, with)),
        }
    }

    /// Substitutes the value variable `ν` with `with`.
    pub fn subst_nu(&self, with: &Expr) -> Pred {
        self.subst(Symbol::value_var(), with)
    }

    /// All variables occurring in the predicate.
    pub fn free_vars(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    pub(crate) fn collect_vars(&self, out: &mut BTreeSet<Symbol>) {
        match self {
            Pred::True | Pred::False => {}
            Pred::Atom(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Pred::And(ps) | Pred::Or(ps) => {
                for p in ps {
                    p.collect_vars(out);
                }
            }
            Pred::Not(p) => p.collect_vars(out),
            Pred::Imp(p, q) | Pred::Iff(p, q) => {
                p.collect_vars(out);
                q.collect_vars(out);
            }
            Pred::Term(e) => e.collect_vars(out),
        }
    }

    /// Collects the function symbols applied anywhere in the predicate.
    pub(crate) fn collect_funcs(&self, out: &mut BTreeSet<Symbol>) {
        match self {
            Pred::True | Pred::False => {}
            Pred::Atom(_, a, b) => {
                a.collect_funcs(out);
                b.collect_funcs(out);
            }
            Pred::And(ps) | Pred::Or(ps) => {
                for p in ps {
                    p.collect_funcs(out);
                }
            }
            Pred::Not(p) => p.collect_funcs(out),
            Pred::Imp(p, q) | Pred::Iff(p, q) => {
                p.collect_funcs(out);
                q.collect_funcs(out);
            }
            Pred::Term(e) => e.collect_funcs(out),
        }
    }

    /// Splits a conjunction into its conjuncts (a non-conjunction is a
    /// singleton).
    pub fn conjuncts(self) -> Vec<Pred> {
        match self {
            Pred::And(ps) => ps,
            Pred::True => vec![],
            p => vec![p],
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::False => write!(f, "false"),
            Pred::Atom(rel, a, b) => write!(f, "({a} {rel} {b})"),
            Pred::And(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " && ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Pred::Or(ps) => {
                write!(f, "(")?;
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
            Pred::Not(p) => write!(f, "(not {p})"),
            Pred::Imp(p, q) => write!(f, "({p} => {q})"),
            Pred::Iff(p, q) => write!(f, "({p} <=> {q})"),
            Pred::Term(e) => write!(f, "{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_flattens_and_short_circuits() {
        let p = Pred::and(vec![
            Pred::True,
            Pred::and(vec![Pred::lt(Expr::int(0), Expr::nu()), Pred::True]),
        ]);
        assert_eq!(p.to_string(), "(0 < VV)");
        assert_eq!(Pred::and(vec![Pred::False, Pred::True]), Pred::False);
        assert_eq!(Pred::and(vec![]), Pred::True);
    }

    #[test]
    fn or_flattens_and_short_circuits() {
        assert_eq!(Pred::or(vec![Pred::True, Pred::False]), Pred::True);
        assert_eq!(Pred::or(vec![]), Pred::False);
    }

    #[test]
    fn not_pushes_through_atoms() {
        let p = Pred::not(Pred::lt(Expr::var("x"), Expr::var("y")));
        assert_eq!(p, Pred::Atom(Rel::Ge, Expr::var("x"), Expr::var("y")));
        assert_eq!(Pred::not(Pred::not(Pred::True)), Pred::True);
    }

    #[test]
    fn subst_nu_rewrites_value_var() {
        let p = Pred::le(Expr::var("x"), Expr::nu());
        let q = p.subst_nu(&Expr::var("k"));
        assert_eq!(q.to_string(), "(x <= k)");
    }

    #[test]
    fn rel_flip_and_negate() {
        assert_eq!(Rel::Lt.flip(), Rel::Gt);
        assert_eq!(Rel::Le.negate(), Some(Rel::Gt));
        assert_eq!(Rel::In.negate(), None);
    }

    #[test]
    fn conjuncts_split() {
        let p = Pred::and(vec![
            Pred::lt(Expr::int(0), Expr::nu()),
            Pred::le(Expr::var("x"), Expr::nu()),
        ]);
        assert_eq!(p.conjuncts().len(), 2);
        assert_eq!(Pred::True.conjuncts().len(), 0);
    }
}
