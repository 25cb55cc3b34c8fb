//! Resource governance for the verification pipeline.
//!
//! Every layer of the stack — CDCL search, simplex branch-and-bound, set
//! saturation, the liquid fixpoint — can in principle run unboundedly
//! long on adversarial input. A [`Budget`] declares explicit limits for
//! each of those dimensions; the solvers check them cooperatively and,
//! when one runs out, surface a structured [`Exhaustion`] instead of
//! silently guessing an answer or hanging. The three-valued [`Outcome`]
//! replaces the old boolean notion of success: `Safe`, `Unsafe`, or
//! `Unknown` with a machine-readable reason.

use std::fmt;
use std::time::{Duration, Instant};

/// Pipeline phase in which a resource ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// NanoML parsing, resolution, or Hindley–Milner inference.
    Frontend,
    /// `.mlq` / `.quals` specification processing.
    Spec,
    /// Liquid constraint generation.
    ConstraintGen,
    /// The liquid fixpoint (iterative weakening) loop.
    Fixpoint,
    /// The final concrete-obligation checking pass.
    ObligationCheck,
    /// The top-level SMT query loop (lazy DPLL(T)).
    Smt,
    /// The CDCL propositional search.
    Sat,
    /// Simplex branch-and-bound over the integers.
    Simplex,
    /// Array-axiom / set-lemma saturation.
    Saturation,
    /// The job driver itself (e.g. a caught panic).
    Driver,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::Frontend => "frontend",
            Phase::Spec => "spec",
            Phase::ConstraintGen => "constraint-gen",
            Phase::Fixpoint => "fixpoint",
            Phase::ObligationCheck => "obligation-check",
            Phase::Smt => "smt",
            Phase::Sat => "sat",
            Phase::Simplex => "simplex",
            Phase::Saturation => "saturation",
            Phase::Driver => "driver",
        };
        f.write_str(s)
    }
}

/// The resource that ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The wall-clock deadline expired.
    Deadline,
    /// The cap on SMT queries was reached.
    SmtQueries,
    /// The cap on theory conflicts within one SMT query was reached.
    TheoryConflicts,
    /// The cap on CDCL conflicts within one SAT search was reached.
    SatConflicts,
    /// The cap on branch-and-bound nodes was reached.
    BranchBoundNodes,
    /// The cap on saturation lemmas was reached.
    SaturationLemmas,
    /// The cap on liquid fixpoint iterations was reached.
    FixpointIterations,
    /// The job panicked and was isolated by the driver.
    Panic,
    /// The verdict's certificate (under `--certify`, an Invalid answer's
    /// countermodel) failed, so the verdict was withdrawn rather than
    /// reported unchecked.
    Certification,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resource::Deadline => "deadline",
            Resource::SmtQueries => "smt-queries",
            Resource::TheoryConflicts => "theory-conflicts",
            Resource::SatConflicts => "sat-conflicts",
            Resource::BranchBoundNodes => "branch-bound-nodes",
            Resource::SaturationLemmas => "saturation-lemmas",
            Resource::FixpointIterations => "fixpoint-iterations",
            Resource::Panic => "panic",
            Resource::Certification => "certification",
        };
        f.write_str(s)
    }
}

/// A structured record of a budget running out: which resource, in which
/// phase, with an optional human-readable detail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exhaustion {
    /// Where in the pipeline the limit was hit.
    pub phase: Phase,
    /// Which limit was hit.
    pub resource: Resource,
    /// Free-form elaboration (e.g. the cap's value), may be empty.
    pub detail: String,
}

impl Exhaustion {
    /// Creates an exhaustion record without detail text.
    pub fn new(phase: Phase, resource: Resource) -> Exhaustion {
        Exhaustion {
            phase,
            resource,
            detail: String::new(),
        }
    }

    /// Creates an exhaustion record with detail text.
    pub fn with_detail(phase: Phase, resource: Resource, detail: impl Into<String>) -> Exhaustion {
        Exhaustion {
            phase,
            resource,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Exhaustion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} exhausted in {}", self.resource, self.phase)?;
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

/// Three-valued verification outcome.
///
/// `Unknown` means the pipeline could neither prove nor refute the
/// program within its budget — it is *not* evidence of a bug, and it
/// must never silently degrade into `Safe`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Every obligation was proven.
    Safe,
    /// At least one obligation failed with full budget available.
    Unsafe,
    /// A resource ran out (or a panic was isolated) before the verdict
    /// could be trusted.
    Unknown(Exhaustion),
}

impl Outcome {
    /// Whether the outcome is `Safe`.
    pub fn is_safe(&self) -> bool {
        matches!(self, Outcome::Safe)
    }

    /// Whether the outcome is `Unknown`.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Outcome::Unknown(_))
    }

    /// The exhaustion record, if the outcome is `Unknown`.
    pub fn exhaustion(&self) -> Option<&Exhaustion> {
        match self {
            Outcome::Unknown(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Safe => f.write_str("SAFE"),
            Outcome::Unsafe => f.write_str("UNSAFE"),
            Outcome::Unknown(e) => write!(f, "UNKNOWN: {e}"),
        }
    }
}

/// Declarative resource limits for one verification run.
///
/// The defaults reproduce the historical hardcoded caps (400 B&B nodes,
/// 200 saturation lemmas, 20 000 theory conflicts, 2 000 000 fixpoint
/// iterations) — but exhausting them now reports [`Exhaustion`] instead
/// of silently answering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock limit for the whole run; `None` = unlimited.
    pub timeout: Option<Duration>,
    /// Cap on SMT queries issued by one run; `None` = unlimited.
    pub max_smt_queries: Option<u64>,
    /// Cap on theory conflicts within one SMT query.
    pub max_theory_conflicts: u64,
    /// Cap on CDCL conflicts within one propositional search.
    pub max_sat_conflicts: u64,
    /// Cap on branch-and-bound nodes per integer feasibility check.
    pub max_bb_nodes: u64,
    /// Cap on lemmas produced by one set-saturation pass.
    pub max_saturation_lemmas: u64,
    /// Cap on liquid fixpoint iterations.
    pub max_fixpoint_iterations: u64,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget {
            timeout: None,
            max_smt_queries: None,
            max_theory_conflicts: 20_000,
            max_sat_conflicts: 2_000_000,
            max_bb_nodes: 400,
            max_saturation_lemmas: 200,
            max_fixpoint_iterations: 2_000_000,
        }
    }
}

impl Budget {
    /// The default budget with a wall-clock timeout.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget {
            timeout: Some(timeout),
            ..Budget::default()
        }
    }

    /// Converts the relative timeout into an absolute deadline starting
    /// now. Returns `None` when the budget has no timeout.
    pub fn deadline_from_now(&self) -> Option<Instant> {
        self.timeout.map(|t| Instant::now() + t)
    }
}

/// Whether an absolute deadline has passed. `None` never expires.
pub fn deadline_expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_display_is_machine_greppable() {
        let e = Exhaustion::with_detail(Phase::Simplex, Resource::BranchBoundNodes, "cap 400");
        assert_eq!(
            Outcome::Unknown(e).to_string(),
            "UNKNOWN: branch-bound-nodes exhausted in simplex (cap 400)"
        );
        assert_eq!(Outcome::Safe.to_string(), "SAFE");
        assert_eq!(Outcome::Unsafe.to_string(), "UNSAFE");
    }

    #[test]
    fn default_budget_matches_historical_caps() {
        let b = Budget::default();
        assert_eq!(b.max_bb_nodes, 400);
        assert_eq!(b.max_saturation_lemmas, 200);
        assert_eq!(b.max_theory_conflicts, 20_000);
        assert!(b.timeout.is_none());
        assert!(b.deadline_from_now().is_none());
    }

    #[test]
    fn zero_timeout_expires_immediately() {
        let b = Budget::with_timeout(Duration::from_secs(0));
        let d = b.deadline_from_now();
        assert!(deadline_expired(d));
        assert!(!deadline_expired(None));
    }
}
