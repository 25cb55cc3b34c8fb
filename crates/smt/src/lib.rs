//! # dsolve-smt
//!
//! A from-scratch SMT solver for the decidable fragment the paper's
//! verifier targets: quantifier-free formulas over **e**quality,
//! **u**ninterpreted **f**unctions and linear integer **a**rithmetic
//! (EUFA), extended with ground McCarthy array operators (`Sel`/`Upd`)
//! and an ACI1 theory of finite sets (`empty`/`single`/`union`).
//!
//! The original DSOLVE used Z3 [de Moura & Bjørner, TACAS 2008]; this
//! crate substitutes a self-contained lazy-SMT stack so the verifier runs
//! with zero system dependencies:
//!
//! * [`CdclSolver`] — conflict-driven clause learning SAT core;
//! * [`Euf`] — congruence closure;
//! * [`Simplex`] — general simplex with integer branch-and-bound;
//! * array-axiom instantiation and set canonicalization preprocessing,
//!   with if-then-else terms lifted by the [`TermArena`] that flattens
//!   them, one variable per distinct `ite` per session;
//! * a Nelson–Oppen-style combination loop with equality propagation.
//!
//! Every query is a validity check of an implication. Every
//! incompleteness escape hatch (wall-clock deadline, query cap,
//! branch-and-bound budget, conflict budgets, saturation-lemma cap — see
//! [`dsolve_logic::Budget`]) is *reported*: the three-valued
//! [`SmtSolver::check_valid`] / [`SmtSolver::check_valid_many`] APIs
//! return `Unknown` with a structured [`dsolve_logic::Exhaustion`] when
//! a limit is hit. The boolean façade [`SmtSolver::is_valid`] resolves
//! `Unknown` toward *rejecting* a verification condition, so a verifier
//! built on it stays sound. (Satisfiability of `p` is the invalidity of
//! `p ⇒ false`.)
//!
//! ## Example
//!
//! ```
//! use dsolve_logic::{parse_pred, Sort, SortEnv, Symbol};
//! use dsolve_smt::SmtSolver;
//!
//! let mut env = SortEnv::new();
//! env.bind(Symbol::new("i"), Sort::Int);
//! env.bind(Symbol::new("k"), Sort::Int);
//!
//! let mut smt = SmtSolver::new();
//! // The divide-by-zero obligation from Fig. 1 of the paper:
//! // 1 <= i and i <= k imply k != 0.
//! let lhs = parse_pred("1 <= i && i <= k").unwrap();
//! let rhs = parse_pred("k != 0").unwrap();
//! assert!(smt.is_valid(&env, &lhs, &rhs));
//! ```

#![warn(missing_docs)]

mod arrays;
mod cache;
mod certify;
mod cnf;
mod euf;
mod rational;
mod sat;
mod session;
mod sets;
mod simplex;
mod solver;
mod term;
mod theory;

pub use arrays::array_axiom_lemmas;
pub use cache::QueryCache;
pub use cnf::{encode_incremental, Atom, AtomId, Atoms, EncodeCtx, EncodedUnit};
pub use euf::{Euf, EufResult};
pub use rational::Rat;
pub use sat::{BVar, CdclSolver, Lit, SatResult};
pub use sets::{canonicalize_sets, set_saturation_lemma_list};
pub use simplex::{LpResult, Simplex};
pub use solver::{SmtResult, SmtSolver, SolverConfig, Validity};
pub use term::{LinExpr, Term, TermArena, TermId};
pub use theory::{check_assignment, TheoryBudget, TheoryContext, TheoryResult};
