//! Sorts of the refinement logic.
//!
//! The paper embeds implication checks into the decidable combination EUFA
//! (equality + uninterpreted functions + linear arithmetic), extended with
//! McCarthy map operators (`Sel`/`Upd`) and a theory of finite sets for
//! `elts`-style measures. Each logical term carries one of these sorts.

use crate::Symbol;
use std::fmt;

/// The sort (logical type) of a term.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Sort {
    /// Mathematical integers (linear arithmetic).
    Int,
    /// Booleans.
    Bool,
    /// Finite sets built from `empty`, `single`, and `union`.
    Set,
    /// McCarthy maps (arrays) with `Sel`/`Upd`.
    Map,
    /// Uninterpreted individuals; carries a tag naming the source ML type
    /// (datatype values, type-variable instances, closures).
    ///
    /// Two `Obj` sorts with different tags are still *distinct* sorts: a
    /// qualifier placeholder of sort `Obj("list")` is never instantiated
    /// with a variable of sort `Obj("tree")`.
    Obj(Symbol),
}

impl Sort {
    /// A generic object sort used when the precise source type is unknown.
    pub fn obj() -> Sort {
        Sort::Obj(Symbol::new("obj"))
    }

    /// Whether terms of this sort may appear in arithmetic atoms.
    pub fn is_numeric(&self) -> bool {
        matches!(self, Sort::Int)
    }

    /// Whether two sorts are compatible for placeholder instantiation and
    /// equality atoms.
    ///
    /// All `Obj` sorts are mutually compatible with each other (ML type
    /// variables erase to plain objects, so an `Obj("a")` qualifier must
    /// be allowed to meet an `Obj("list")` variable), but never with the
    /// interpreted sorts.
    pub fn compatible(&self, other: &Sort) -> bool {
        match (self, other) {
            (Sort::Obj(_), Sort::Obj(_)) => true,
            (a, b) => a == b,
        }
    }
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Int => write!(f, "int"),
            Sort::Bool => write!(f, "bool"),
            Sort::Set => write!(f, "set"),
            Sort::Map => write!(f, "map"),
            Sort::Obj(tag) => write!(f, "obj<{tag}>"),
        }
    }
}

/// The sort of an uninterpreted function (measure, selector, primitive).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FuncSort {
    /// Argument sorts, in order.
    pub args: Vec<Sort>,
    /// Result sort.
    pub ret: Sort,
}

impl FuncSort {
    /// Creates a function sort.
    pub fn new(args: Vec<Sort>, ret: Sort) -> FuncSort {
        FuncSort { args, ret }
    }
}

impl fmt::Display for FuncSort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in &self.args {
            write!(f, "{a} -> ")?;
        }
        write!(f, "{}", self.ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obj_sorts_are_mutually_compatible() {
        let a = Sort::Obj(Symbol::new("a"));
        let b = Sort::Obj(Symbol::new("list"));
        assert!(a.compatible(&b));
        assert!(!a.compatible(&Sort::Int));
        assert!(Sort::Int.compatible(&Sort::Int));
        assert!(!Sort::Set.compatible(&Sort::Map));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Sort::Int.to_string(), "int");
        assert_eq!(Sort::obj().to_string(), "obj<obj>");
        let fs = FuncSort::new(vec![Sort::obj()], Sort::Set);
        assert_eq!(fs.to_string(), "obj<obj> -> set");
    }

    #[test]
    fn numeric_check() {
        assert!(Sort::Int.is_numeric());
        assert!(!Sort::Bool.is_numeric());
        assert!(!Sort::Set.is_numeric());
    }
}
