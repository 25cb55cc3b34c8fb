//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] names one *fault point* in the pipeline and the
//! occurrence at which it should fire. Plans are parsed from the
//! `--inject-fault` CLI flag or the `DSOLVE_FAULT` environment variable
//! (`point` or `point@N`, e.g. `worker-panic@2`) and threaded explicitly
//! through the solver configuration — there is no process-global state,
//! so concurrently running tests never observe each other's faults.
//!
//! Firing is purely counter-based (no randomness, no clocks): the same
//! plan against the same input faults at exactly the same place on every
//! run, which is what makes the fault-matrix differential tests
//! reproducible.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A named place in the pipeline where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Panic in worker 0's first constraint check of fixpoint round `N`.
    WorkerPanic,
    /// Panic in the `N`-th job run under panic isolation, before its
    /// pipeline starts.
    JobPanic,
    /// Simulated incremental SMT-session failure mid-scope.
    SessionFail,
    /// Poison one shard of the shared query cache.
    CachePoison,
    /// Simulated trace-writer I/O error.
    TraceIo,
    /// Simulated per-query SMT timeout.
    QueryTimeout,
}

impl FaultPoint {
    /// The spec-string name of this fault point.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::WorkerPanic => "worker-panic",
            FaultPoint::JobPanic => "job-panic",
            FaultPoint::SessionFail => "session-fail",
            FaultPoint::CachePoison => "cache-poison",
            FaultPoint::TraceIo => "trace-io",
            FaultPoint::QueryTimeout => "query-timeout",
        }
    }

    /// Every known fault point, for help text and matrix tests.
    pub fn all() -> &'static [FaultPoint] {
        &[
            FaultPoint::WorkerPanic,
            FaultPoint::JobPanic,
            FaultPoint::SessionFail,
            FaultPoint::CachePoison,
            FaultPoint::TraceIo,
            FaultPoint::QueryTimeout,
        ]
    }

    fn from_name(s: &str) -> Option<FaultPoint> {
        FaultPoint::all().iter().copied().find(|p| p.name() == s)
    }
}

impl fmt::Display for FaultPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic single-fault plan: fire `point` at its `at`-th
/// opportunity (1-based).
///
/// Two triggering styles exist, chosen by the instrumentation site:
///
/// * [`FaultPlan::fire`] counts *occurrences* of the point (e.g. the
///   `at`-th SMT query times out);
/// * [`FaultPlan::fire_at`] matches an externally supplied *index*
///   (e.g. the panic fires in fixpoint round `at`), so the trigger does
///   not depend on how often the site is polled.
///
/// # Examples
///
/// ```
/// use dsolve_logic::{FaultPlan, FaultPoint};
///
/// let plan = FaultPlan::parse("query-timeout@3").unwrap();
/// assert_eq!(plan.point(), FaultPoint::QueryTimeout);
/// assert!(!plan.fire(FaultPoint::QueryTimeout)); // occurrence 1
/// assert!(!plan.fire(FaultPoint::QueryTimeout)); // occurrence 2
/// assert!(plan.fire(FaultPoint::QueryTimeout)); // occurrence 3: fault
/// assert!(!plan.fire(FaultPoint::SessionFail)); // other points never fire
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    point: FaultPoint,
    at: u64,
    hits: AtomicU64,
    fired: AtomicU64,
}

impl FaultPlan {
    /// Creates a plan that fires `point` at its `at`-th opportunity
    /// (values below 1 are clamped to 1).
    pub fn new(point: FaultPoint, at: u64) -> FaultPlan {
        FaultPlan {
            point,
            at: at.max(1),
            hits: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        }
    }

    /// Parses a spec of the form `point` or `point@N` (a bare name means
    /// `@1`). Returns a human-readable error for unknown points or a bad
    /// count.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        let (name, at) = match spec.split_once('@') {
            None => (spec, 1),
            Some((name, n)) => {
                let at: u64 = n
                    .parse()
                    .map_err(|_| format!("bad fault occurrence `{n}` in `{spec}`"))?;
                if at == 0 {
                    return Err(format!("fault occurrence must be >= 1 in `{spec}`"));
                }
                (name, at)
            }
        };
        let point = FaultPoint::from_name(name).ok_or_else(|| {
            let known: Vec<&str> = FaultPoint::all().iter().map(|p| p.name()).collect();
            format!("unknown fault point `{name}` (known: {})", known.join(", "))
        })?;
        Ok(FaultPlan::new(point, at))
    }

    /// Reads a plan from the `DSOLVE_FAULT` environment variable.
    /// `Ok(None)` when unset or empty; `Err` when set but malformed.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("DSOLVE_FAULT") {
            Ok(s) if !s.trim().is_empty() => FaultPlan::parse(&s).map(Some),
            _ => Ok(None),
        }
    }

    /// The fault point this plan targets.
    pub fn point(&self) -> FaultPoint {
        self.point
    }

    /// The 1-based occurrence (or index, for [`FaultPlan::fire_at`]) at
    /// which the fault fires.
    pub fn at(&self) -> u64 {
        self.at
    }

    /// Occurrence-counted trigger: returns `true` exactly when this is
    /// the `at`-th call for the plan's own point. Calls for other points
    /// are free and never fire.
    pub fn fire(&self, point: FaultPoint) -> bool {
        if point != self.point {
            return false;
        }
        let n = self.hits.fetch_add(1, Ordering::Relaxed) + 1;
        if n == self.at {
            self.fired.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Index-matched trigger: returns `true` when `point` matches the
    /// plan and `index` equals the planned occurrence. Unlike
    /// [`FaultPlan::fire`], polling does not advance any counter, so the
    /// trigger is stable under call-site reordering.
    pub fn fire_at(&self, point: FaultPoint, index: u64) -> bool {
        if point == self.point && index == self.at {
            self.fired.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// How many times the fault has actually fired.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.point, self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_bare_name_means_first_occurrence() {
        let p = FaultPlan::parse("session-fail").unwrap();
        assert_eq!(p.point(), FaultPoint::SessionFail);
        assert_eq!(p.at(), 1);
        assert!(p.fire(FaultPoint::SessionFail));
        assert!(!p.fire(FaultPoint::SessionFail), "fires exactly once");
        assert_eq!(p.fired(), 1);
    }

    #[test]
    fn parse_with_occurrence() {
        let p = FaultPlan::parse(" worker-panic@2 ").unwrap();
        assert_eq!(p.point(), FaultPoint::WorkerPanic);
        assert_eq!(p.at(), 2);
        assert_eq!(p.to_string(), "worker-panic@2");
    }

    #[test]
    fn parse_rejects_unknown_and_malformed() {
        assert!(FaultPlan::parse("nonesuch").is_err());
        assert!(FaultPlan::parse("worker-panic@zero").is_err());
        assert!(FaultPlan::parse("worker-panic@0").is_err());
        let err = FaultPlan::parse("bogus").unwrap_err();
        assert!(
            err.contains("worker-panic"),
            "error lists known points: {err}"
        );
    }

    #[test]
    fn fire_at_matches_index_without_counting() {
        let p = FaultPlan::new(FaultPoint::WorkerPanic, 3);
        assert!(!p.fire_at(FaultPoint::WorkerPanic, 1));
        assert!(!p.fire_at(FaultPoint::WorkerPanic, 2));
        // Polling does not consume: index 3 still fires later, repeatedly.
        assert!(p.fire_at(FaultPoint::WorkerPanic, 3));
        assert!(p.fire_at(FaultPoint::WorkerPanic, 3));
        assert!(!p.fire_at(FaultPoint::SessionFail, 3));
        assert_eq!(p.fired(), 2);
    }

    #[test]
    fn every_point_round_trips_through_parse() {
        for &pt in FaultPoint::all() {
            let p = FaultPlan::parse(pt.name()).unwrap();
            assert_eq!(p.point(), pt);
        }
    }
}
