//! Pending substitutions.
//!
//! Liquid type inference manipulates *templates* whose refinements contain
//! liquid variables `κ` under **pending substitutions** `θ·κ` (§4.3 of the
//! paper): the substitution is recorded now and applied once `κ` is solved.
//! Polymorphic refinements use the same machinery for `α[y/x]` instances.

use crate::{Expr, Pred, Symbol};
use std::fmt;

/// A sequence of single-variable substitutions applied left-to-right.
///
/// `Subst` is ordered: `[e1/x]; [e2/y]` first replaces `x`, then `y` in the
/// result, which matters when `e1` mentions `y`.
///
/// # Examples
///
/// ```
/// use dsolve_logic::{Expr, Pred, Subst, Symbol};
/// let theta = Subst::new()
///     .then(Symbol::new("x"), Expr::var("y"))
///     .then(Symbol::new("y"), Expr::int(1));
/// let p = theta.apply_pred(&Pred::lt(Expr::var("x"), Expr::nu()));
/// assert_eq!(p.to_string(), "(1 < VV)");
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Subst {
    pairs: Vec<(Symbol, Expr)>,
}

impl Subst {
    /// The empty substitution.
    pub fn new() -> Subst {
        Subst::default()
    }

    /// A one-element substitution `[with/var]`.
    pub fn single(var: Symbol, with: Expr) -> Subst {
        Subst {
            pairs: vec![(var, with)],
        }
    }

    /// Appends `[with/var]` to be applied after the existing pairs.
    #[must_use]
    pub fn then(mut self, var: Symbol, with: Expr) -> Subst {
        self.pairs.push((var, with));
        self
    }

    /// Concatenates two pending substitutions (`self` first).
    #[must_use]
    pub fn compose(mut self, later: &Subst) -> Subst {
        self.pairs.extend(later.pairs.iter().cloned());
        self
    }

    /// Whether no substitution is pending.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The pairs in application order.
    pub fn pairs(&self) -> &[(Symbol, Expr)] {
        &self.pairs
    }

    /// Applies the substitution to a term.
    pub fn apply_expr(&self, e: &Expr) -> Expr {
        let mut cur = e.clone();
        for (x, with) in &self.pairs {
            cur = cur.subst(*x, with);
        }
        cur
    }

    /// Applies the substitution to a predicate.
    pub fn apply_pred(&self, p: &Pred) -> Pred {
        let mut cur = p.clone();
        for (x, with) in &self.pairs {
            cur = cur.subst(*x, with);
        }
        cur
    }

    /// Telescopes a pending polytype-instance substitution (§5.1): when an
    /// `α[x1/x]` instance is itself instantiated at `[y/x2]`, the result is
    /// `α[y/x]` if `x1 = x2` and `α[x1/x]` otherwise.
    ///
    /// Operationally we keep substitutions eager, so telescoping falls out
    /// of ordinary left-to-right application; this helper exists for the
    /// liquid crate to normalize instance chains for display and hashing.
    #[must_use]
    pub fn telescope(&self) -> Subst {
        let mut out: Vec<(Symbol, Expr)> = Vec::new();
        for (x, with) in &self.pairs {
            // Rewrite earlier replacements by the later pair, mirroring
            // sequential application.
            for (_, w) in out.iter_mut() {
                *w = w.subst(*x, with);
            }
            out.push((*x, with.clone()));
        }
        Subst { pairs: out }
    }
}

impl fmt::Display for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (x, e) in &self.pairs {
            write!(f, "[{e}/{x}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_application_order_matters() {
        let x = Symbol::new("x");
        let y = Symbol::new("y");
        let theta = Subst::new().then(x, Expr::var("y")).then(y, Expr::int(7));
        // x -> y, then y -> 7, so x ends at 7.
        assert_eq!(theta.apply_expr(&Expr::var("x")), Expr::int(7));

        let theta_rev = Subst::new().then(y, Expr::int(7)).then(x, Expr::var("y"));
        // y -> 7 happens first, then x -> y: x ends at the *variable* y.
        assert_eq!(theta_rev.apply_expr(&Expr::var("x")), Expr::var("y"));
    }

    #[test]
    fn compose_concatenates() {
        let a = Subst::single(Symbol::new("x"), Expr::int(1));
        let b = Subst::single(Symbol::new("y"), Expr::int(2));
        let c = a.compose(&b);
        assert_eq!(c.pairs().len(), 2);
        assert_eq!(
            c.apply_expr(&Expr::var("x").add(Expr::var("y")))
                .to_string(),
            "(1 + 2)"
        );
    }

    #[test]
    fn telescope_resolves_chains() {
        // [x1/x][y/x1] telescopes so that x maps to y.
        let x = Symbol::new("x");
        let x1 = Symbol::new("x1");
        let theta = Subst::new()
            .then(x, Expr::var("x1"))
            .then(x1, Expr::var("y"));
        let t = theta.telescope();
        assert_eq!(t.apply_expr(&Expr::var("x")), Expr::var("y"));
        assert_eq!(t.pairs()[0].1, Expr::var("y"));
    }

    #[test]
    fn display_form() {
        let theta = Subst::single(Symbol::new("k"), Expr::var("i"));
        assert_eq!(theta.to_string(), "[i/k]");
    }
}
