//! Subtyping constraints over refinements.

use crate::env::LiquidEnv;
use crate::rtype::{KVar, Refinement};
use dsolve_nanoml::MlType;
use std::fmt;

/// Why a constraint exists (drives error reporting).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Origin {
    /// An `assert` in the program.
    Assert {
        /// Source line of the assertion.
        line: u32,
    },
    /// A function-application argument obligation.
    App {
        /// Printable callee description.
        callee: String,
    },
    /// A divisor-nonzero obligation.
    Div {
        /// Printable context.
        context: String,
    },
    /// A user specification from the `.mlq` file.
    Spec {
        /// The specified top-level name.
        name: String,
    },
    /// Internal flow (joins, folds, generalization...).
    Flow(&'static str),
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Assert { line } => write!(f, "assert on line {line}"),
            Origin::App { callee } => write!(f, "argument of `{callee}`"),
            Origin::Div { context } => write!(f, "divisor in {context}"),
            Origin::Spec { name } => write!(f, "specification of `{name}`"),
            Origin::Flow(what) => write!(f, "{what}"),
        }
    }
}

/// A *simple* subtyping constraint: under the environment, the left
/// refinement must imply the right one (both about a `ν` of the given
/// shape). The right side is either a liquid variable template (solved by
/// weakening) or concrete (checked after the fixpoint).
#[derive(Clone)]
pub struct SubC {
    /// Environment snapshot.
    pub env: LiquidEnv,
    /// Shape of the value `ν` both refinements describe.
    pub nu_shape: MlType,
    /// Left (stronger) refinement.
    pub lhs: Refinement,
    /// Right (weaker) refinement.
    pub rhs: Refinement,
    /// Provenance.
    pub origin: Origin,
}

impl SubC {
    /// The liquid variables this constraint *reads* (left side and
    /// environment) — used to build the solver's dependency index.
    pub fn reads(&self) -> Vec<KVar> {
        let mut out = self.lhs.kvars();
        for x in self.env.domain() {
            if let Some(s) = self.env.lookup(x) {
                out.extend(s.ty.kvars());
            }
        }
        out
    }

    /// The liquid variables on the right side (written/refined).
    pub fn writes(&self) -> Vec<KVar> {
        self.rhs.kvars()
    }
}

impl fmt::Debug for SubC {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SubC[{}] {{..Γ..}} ⊢ {} <: {} @ {}",
            self.nu_shape, self.lhs, self.rhs, self.origin
        )
    }
}

/// An error produced by the verifier.
#[derive(Clone, Debug)]
pub struct LiquidError {
    /// Human-readable message.
    pub msg: String,
    /// The origin of the failed obligation, when known.
    pub origin: Option<Origin>,
}

impl LiquidError {
    /// Creates an internal error.
    pub fn internal(msg: impl Into<String>) -> LiquidError {
        LiquidError {
            msg: msg.into(),
            origin: None,
        }
    }
}

impl fmt::Display for LiquidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.origin {
            Some(o) => write!(f, "{} ({o})", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for LiquidError {}
