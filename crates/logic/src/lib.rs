//! # dsolve-logic
//!
//! The quantifier-free refinement logic underlying *Type-based Data
//! Structure Verification* (PLDI 2009): terms and predicates in the
//! decidable combination of equality, uninterpreted functions, linear
//! integer arithmetic (EUFA), McCarthy map operators, and finite sets —
//! plus the *logical qualifiers* (with `★` placeholders) from which liquid
//! types are inferred.
//!
//! This crate is purely syntactic: construction, substitution (including
//! the *pending substitutions* used by liquid templates and polymorphic
//! refinements), sort checking, qualifier instantiation, and a concrete
//! syntax parser. Deciding validity lives in `dsolve-smt`.
//!
//! ## Example
//!
//! ```
//! use dsolve_logic::{parse_pred, Qualifier, Sort, SortEnv, Symbol};
//!
//! // The paper's running qualifier set Q = {0 < ν, ★ <= ν}.
//! let q1 = Qualifier::new("Pos", parse_pred("0 < VV").unwrap());
//! let q2 = Qualifier::new("UB", parse_pred("_ <= VV").unwrap());
//!
//! let mut env = SortEnv::new();
//! env.bind(Symbol::new("i"), Sort::Int);
//!
//! let qstar = dsolve_logic::instantiate_all(&[q1, q2], &env, &Sort::Int);
//! assert_eq!(qstar.len(), 2); // 0 < ν  and  i <= ν
//! ```

#![warn(missing_docs)]

mod budget;
mod expr;
mod fault;
mod parse;
mod pred;
mod qualifier;
mod sort;
mod sortck;
mod subst;
mod symbol;

pub use budget::{deadline_expired, Budget, Exhaustion, Outcome, Phase, Resource};
pub use expr::{Binop, Expr};
pub use fault::{FaultPlan, FaultPoint};
pub use parse::{parse_expr, parse_pred, ParsePredError};
pub use pred::{Pred, Rel};
pub use qualifier::{instantiate_all, Instantiator, Qualifier};
pub use sort::{FuncSort, Sort};
pub use sortck::SortEnv;
pub use subst::Subst;
pub use symbol::Symbol;
