//! Sort checking for terms and predicates.
//!
//! Well-formedness of refinements ([WF-REFINE] in the paper) requires that a
//! refinement predicate is a boolean expression over the environment. The
//! sort checker validates exactly that, and is also used to prune qualifier
//! instantiations to sort-correct ones.

use crate::{Binop, Expr, FuncSort, Pred, Rel, Sort, Symbol};
use std::collections::HashMap;

/// A sort environment: sorts for variables and uninterpreted functions.
#[derive(Clone, Debug, Default)]
pub struct SortEnv {
    vars: HashMap<Symbol, Sort>,
    funcs: HashMap<Symbol, FuncSort>,
}

impl SortEnv {
    /// Creates an empty environment.
    pub fn new() -> SortEnv {
        SortEnv::default()
    }

    /// Binds a variable to a sort (shadowing any previous binding).
    pub fn bind(&mut self, x: Symbol, s: Sort) {
        self.vars.insert(x, s);
    }

    /// Declares an uninterpreted function.
    pub fn declare_func(&mut self, f: Symbol, fs: FuncSort) {
        self.funcs.insert(f, fs);
    }

    /// Looks up a variable's sort.
    pub fn sort_of_var(&self, x: Symbol) -> Option<&Sort> {
        self.vars.get(&x)
    }

    /// Looks up a function's sort.
    pub fn sort_of_func(&self, f: Symbol) -> Option<&FuncSort> {
        self.funcs.get(&f)
    }

    /// Iterates over all variable bindings.
    pub fn vars(&self) -> impl Iterator<Item = (&Symbol, &Sort)> {
        self.vars.iter()
    }

    /// Infers the sort of a term, or `None` if ill-sorted.
    pub fn sort_of(&self, e: &Expr) -> Option<Sort> {
        match e {
            Expr::Var(x) => self.vars.get(x).cloned(),
            Expr::Int(_) => Some(Sort::Int),
            Expr::Bool(_) => Some(Sort::Bool),
            Expr::Binop(op, a, b) => {
                let sa = self.sort_of(a)?;
                let sb = self.sort_of(b)?;
                match op {
                    Binop::Add | Binop::Sub | Binop::Mul | Binop::Div | Binop::Mod => {
                        if sa == Sort::Int && sb == Sort::Int {
                            Some(Sort::Int)
                        } else {
                            None
                        }
                    }
                }
            }
            Expr::Neg(a) => {
                if self.sort_of(a)? == Sort::Int {
                    Some(Sort::Int)
                } else {
                    None
                }
            }
            Expr::Ite(c, t, f) => {
                if !self.wellsorted(c) {
                    return None;
                }
                let st = self.sort_of(t)?;
                let sf = self.sort_of(f)?;
                if st.compatible(&sf) {
                    Some(st)
                } else {
                    None
                }
            }
            Expr::App(f, args) => {
                let fs = self.funcs.get(f)?;
                if fs.args.len() != args.len() {
                    return None;
                }
                for (a, expect) in args.iter().zip(&fs.args) {
                    let got = self.sort_of(a)?;
                    if !got.compatible(expect) {
                        return None;
                    }
                }
                Some(fs.ret.clone())
            }
            Expr::Sel(m, i) => {
                if self.sort_of(m)? == Sort::Map && self.sort_of(i)?.is_numeric() {
                    // Map contents are integers in our embedding; richer
                    // codomains are modelled with uninterpreted wrappers.
                    Some(Sort::Int)
                } else {
                    None
                }
            }
            Expr::Upd(m, i, v) => {
                if self.sort_of(m)? == Sort::Map
                    && self.sort_of(i)?.is_numeric()
                    && self.sort_of(v)? == Sort::Int
                {
                    Some(Sort::Map)
                } else {
                    None
                }
            }
            Expr::SetEmpty => Some(Sort::Set),
            Expr::SetSingle(e) => {
                self.sort_of(e)?;
                Some(Sort::Set)
            }
            Expr::SetUnion(a, b) => {
                if self.sort_of(a)? == Sort::Set && self.sort_of(b)? == Sort::Set {
                    Some(Sort::Set)
                } else {
                    None
                }
            }
        }
    }

    /// Whether a predicate is well-sorted under the environment.
    pub fn wellsorted(&self, p: &Pred) -> bool {
        match p {
            Pred::True | Pred::False => true,
            Pred::Atom(rel, a, b) => {
                let (Some(sa), Some(sb)) = (self.sort_of(a), self.sort_of(b)) else {
                    return false;
                };
                match rel {
                    Rel::Eq | Rel::Ne => sa.compatible(&sb),
                    Rel::Lt | Rel::Le | Rel::Gt | Rel::Ge => sa == Sort::Int && sb == Sort::Int,
                    Rel::In => sb == Sort::Set,
                    Rel::Sub => sa == Sort::Set && sb == Sort::Set,
                }
            }
            Pred::And(ps) | Pred::Or(ps) => ps.iter().all(|p| self.wellsorted(p)),
            Pred::Not(p) => self.wellsorted(p),
            Pred::Imp(p, q) | Pred::Iff(p, q) => self.wellsorted(p) && self.wellsorted(q),
            Pred::Term(e) => self.sort_of(e) == Some(Sort::Bool),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> SortEnv {
        let mut env = SortEnv::new();
        env.bind(Symbol::new("x"), Sort::Int);
        env.bind(Symbol::new("b"), Sort::Bool);
        env.bind(Symbol::new("s"), Sort::Set);
        env.bind(Symbol::new("m"), Sort::Map);
        env.bind(Symbol::new("xs"), Sort::Obj(Symbol::new("list")));
        env.declare_func(
            Symbol::new("elts"),
            FuncSort::new(vec![Sort::Obj(Symbol::new("list"))], Sort::Set),
        );
        env
    }

    #[test]
    fn arithmetic_sorts() {
        let env = env();
        assert_eq!(
            env.sort_of(&Expr::var("x").add(Expr::int(1))),
            Some(Sort::Int)
        );
        assert_eq!(env.sort_of(&Expr::var("b").add(Expr::int(1))), None);
    }

    #[test]
    fn measure_application_sorts() {
        let env = env();
        let e = Expr::app("elts", vec![Expr::var("xs")]);
        assert_eq!(env.sort_of(&e), Some(Sort::Set));
        // Wrong arity is rejected.
        let bad = Expr::app("elts", vec![Expr::var("xs"), Expr::var("x")]);
        assert_eq!(env.sort_of(&bad), None);
    }

    #[test]
    fn sel_upd_sorts() {
        let env = env();
        assert_eq!(
            env.sort_of(&Expr::sel(Expr::var("m"), Expr::var("x"))),
            Some(Sort::Int)
        );
        assert_eq!(
            env.sort_of(&Expr::upd(Expr::var("m"), Expr::var("x"), Expr::int(0))),
            Some(Sort::Map)
        );
        assert_eq!(
            env.sort_of(&Expr::sel(Expr::var("s"), Expr::var("x"))),
            None
        );
    }

    #[test]
    fn wellsorted_preds() {
        let env = env();
        assert!(env.wellsorted(&Pred::lt(Expr::var("x"), Expr::int(3))));
        assert!(!env.wellsorted(&Pred::lt(Expr::var("s"), Expr::int(3))));
        assert!(env.wellsorted(&Pred::mem(Expr::var("x"), Expr::var("s"))));
        assert!(env.wellsorted(&Pred::Term(Expr::var("b"))));
        assert!(!env.wellsorted(&Pred::Term(Expr::var("x"))));
        // Set equality is fine; set order is not.
        assert!(env.wellsorted(&Pred::eq(
            Expr::var("s"),
            Expr::union(Expr::SetEmpty, Expr::var("s"))
        )));
    }

    #[test]
    fn obj_equality_across_tags_allowed() {
        let mut env = env();
        env.bind(Symbol::new("ys"), Sort::Obj(Symbol::new("a")));
        assert!(env.wellsorted(&Pred::eq(Expr::var("xs"), Expr::var("ys"))));
    }
}
