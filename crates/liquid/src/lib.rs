//! # dsolve-liquid
//!
//! The paper's primary contribution: a refinement type system for NanoML
//! with **recursive refinements** (§4) and **polymorphic refinements**
//! (§5), verified by **liquid type inference** — abstract interpretation
//! over conjunctions of logical qualifiers [Rondon et al., PLDI 2008] —
//! with implications discharged by the `dsolve-smt` solver.
//!
//! The pipeline:
//!
//! 1. [`Gen`] walks a typed program emitting *simple* subtyping
//!    constraints: structural subtyping (functions, tuples, refined
//!    datatypes with their ρ-matrices, refined polytype instances) is
//!    split eagerly by [`split`];
//! 2. [`solve`] runs the iterative-weakening fixpoint over qualifier
//!    instantiations;
//! 3. concrete obligations (asserts, division safety, `.mlq` specs) are
//!    checked under the solved assignment.
//!
//! ## Example: Fig. 1 of the paper, end to end
//!
//! ```
//! use dsolve_liquid::{verify_source, MeasureEnv};
//! use dsolve_logic::{parse_pred, Qualifier};
//!
//! let src = r#"
//! let rec range i j = if i > j then [] else i :: range (i + 1) j
//! let rec fold_left f acc xs =
//!   match xs with
//!   | [] -> acc
//!   | x :: rest -> fold_left f (f acc x) rest
//! let harmonic n =
//!   let ds = range 1 n in
//!   fold_left (fun s k -> s + 10000 / k) 0 ds
//! "#;
//! // The paper's qualifier set Q = {0 < ν, ★ ≤ ν}.
//! let quals = vec![
//!     Qualifier::new("Pos", parse_pred("0 < VV").unwrap()),
//!     Qualifier::new("UB", parse_pred("_ <= VV").unwrap()),
//! ];
//! let result = verify_source(src, MeasureEnv::new(), quals, vec![]).unwrap();
//! assert!(result.is_safe(), "{:?}", result.errors.first().map(|e| e.to_string()));
//! ```

#![warn(missing_docs)]

mod builtins;
mod constraint;
mod embed;
mod env;
mod gen;
mod measure;
mod rtype;
mod solve;
mod subtype;
mod template;
mod verify;

pub use builtins::builtin_schemes;
pub use constraint::{LiquidError, Origin, SubC};
pub use env::{fresh_refinement, GlobalEnv, KEnv, KInfo, LiquidEnv};
pub use gen::Gen;
pub use measure::{sort_of_mltype, Measure, MeasureCase, MeasureEnv, MeasureError};
pub use rtype::{
    field_name, is_witness, witness_symbol, BaseTy, DataRType, KVar, RScheme, RType, RVarDecl,
    RefAtom, Refinement, Rho,
};
pub use solve::{solve, PartitionStat, Solution, SolveConfig, SolveStats};
pub use subtype::split;
pub use template::{
    fresh, freshen, instantiate, instantiate_with, map_key_binder, rtype_of_shape, unfold_ctor,
    up_field_name,
};
pub use verify::{verify_source, Spec, Verifier, VerifyResult};
