//! The public SMT interface: validity of implications between
//! quantifier-free EUFA + arrays + sets predicates.
//!
//! Architecture (lazy SMT): preprocess (set canonicalization, array axiom
//! instantiation) → atomize + Tseitin-encode, lifting if-then-else terms
//! as the term arena meets them → CDCL enumeration with full-model theory
//! checks, each conflict blocked by its confirmed theory explanation.
//! Every query runs that pipeline in a `Session` on the negated
//! implication: a scalar query, or a batch of one consequent, on a
//! one-shot session, the consequents of a larger batch on one shared
//! session; every query is accounted by one routine
//! (`SmtSolver::query`). No session outlives the call that opened it.

use crate::cache::QueryCache;
use crate::session::Session;
use dsolve_logic::{
    deadline_expired, Budget, Exhaustion, FaultPlan, FaultPoint, Phase, Pred, Resource, SortEnv,
};
use dsolve_obs::{log_error, Obs, QueryOrigin};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Configuration knobs. The resource limits are not among them: a
/// solver takes its [`Budget`] apart ([`SmtSolver::with_config`]).
#[derive(Clone, Copy, Debug)]
pub struct SolverConfig {
    /// Memoize validity queries (structural hash of the implication).
    pub cache: bool,
    /// Certify every Invalid answer: its countermodel must satisfy the
    /// asserted predicates under a structural predicate evaluator. (A
    /// Valid answer needs no extra check: each of its theory cores was
    /// refuted on fresh engines before it blocked a model.) A failed
    /// certificate downgrades the answer to `Unknown` with
    /// [`Resource::Certification`]; it never flips it.
    pub certify: bool,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            cache: true,
            certify: false,
        }
    }
}

/// Three-valued satisfiability verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SmtResult {
    /// A theory-consistent model exists.
    Sat,
    /// No model exists.
    Unsat,
    /// A budget ran out before the query was decided.
    Unknown(Exhaustion),
}

/// Three-valued validity verdict for `antecedent ⇒ consequent`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Validity {
    /// The implication holds in every model.
    Valid,
    /// A countermodel exists.
    Invalid,
    /// A budget ran out before the query was decided.
    Unknown(Exhaustion),
}

/// A reusable SMT solver for refinement implication checks.
///
/// # Examples
///
/// ```
/// use dsolve_logic::{parse_pred, Sort, SortEnv, Symbol};
/// use dsolve_smt::SmtSolver;
///
/// let mut env = SortEnv::new();
/// env.bind(Symbol::new("x"), Sort::Int);
/// env.bind(Symbol::new("y"), Sort::Int);
///
/// let mut smt = SmtSolver::new();
/// let lhs = parse_pred("x < y").unwrap();
/// let rhs = parse_pred("x != y").unwrap();
/// assert!(smt.is_valid(&env, &lhs, &rhs));
/// assert!(!smt.is_valid(&env, &rhs, &lhs));
/// ```
pub struct SmtSolver {
    config: SolverConfig,
    /// Resource limits (deadline, query cap, per-query search caps).
    /// Exhausting any of them yields a reported `Unknown`, never a
    /// silently guessed verdict.
    budget: Budget,
    /// Validity memo table. Private by default; [`SmtSolver::share_cache`]
    /// installs a handle shared with other solvers (parallel fixpoint
    /// workers, the obligation pass).
    cache: Arc<QueryCache>,
    /// Queries charged against `budget.max_smt_queries`. Shared via
    /// [`SmtSolver::share_query_counter`] so the cap covers the *sum*
    /// across concurrent solvers, not each one separately.
    queries: Arc<AtomicU64>,
    /// Absolute wall-clock deadline for all queries on this solver.
    deadline: Option<Instant>,
    /// Whether `deadline` has been initialized (either explicitly via
    /// [`SmtSolver::set_deadline`] or lazily from `budget.timeout` on the
    /// first query).
    deadline_armed: bool,
    /// Queries this solver solved. The registry counts the total across
    /// solvers; this count is the solver's own share, which the fixpoint
    /// reports per worker.
    solved: u64,
    /// Why the first query this solver solved came back `Unknown`. The
    /// registry counts undecided queries; this names the first one's
    /// exhausted resource, which the fixpoint reports when undecided
    /// weakening queries taint a failed obligation.
    first_unknown: Option<Exhaustion>,
    /// Observability handle: metrics registry, query latency histogram,
    /// and per-constraint cost attribution. Disabled by default;
    /// [`SmtSolver::set_obs`] installs the pipeline's live handle.
    obs: Obs,
    /// Provenance stamped on every subsequently solved query (the
    /// liquid solver sets it before discharging each constraint).
    origin: Option<QueryOrigin>,
    /// Deterministic fault-injection plan (`--inject-fault`). `None` in
    /// production; threaded explicitly instead of process-global so
    /// concurrent solves never observe each other's faults.
    fault: Option<Arc<FaultPlan>>,
}

impl Default for SmtSolver {
    fn default() -> SmtSolver {
        SmtSolver {
            config: SolverConfig::default(),
            budget: Budget::default(),
            cache: QueryCache::shared(),
            queries: Arc::new(AtomicU64::new(0)),
            deadline: None,
            deadline_armed: false,
            solved: 0,
            first_unknown: None,
            obs: Obs::off(),
            origin: None,
            fault: None,
        }
    }
}

impl SmtSolver {
    /// Creates a solver with the default configuration.
    pub fn new() -> SmtSolver {
        SmtSolver::default()
    }

    /// Creates a solver with an explicit configuration and budget.
    pub fn with_config(config: SolverConfig, budget: Budget) -> SmtSolver {
        SmtSolver {
            config,
            budget,
            ..SmtSolver::default()
        }
    }

    /// Installs a shared validity cache (replacing the private one), so
    /// this solver reuses — and contributes — answers across solvers.
    pub fn share_cache(&mut self, cache: Arc<QueryCache>) {
        self.cache = cache;
    }

    /// Installs a shared query counter: `budget.max_smt_queries` then
    /// caps the total across every solver holding the same counter.
    pub fn share_query_counter(&mut self, queries: Arc<AtomicU64>) {
        self.queries = queries;
    }

    /// Installs an observability handle. Every metrics-relevant event
    /// (check requested, cache hit, query solved, undecided or refused,
    /// session opened, scoped check) records into its registry, the one
    /// store of query accounting.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Stamps the provenance attributed to subsequently solved queries
    /// (`None` clears it). The liquid fixpoint sets this before each
    /// constraint so query cost rolls up per program location.
    pub fn set_origin(&mut self, origin: Option<QueryOrigin>) {
        self.origin = origin;
    }

    /// Installs a deterministic fault-injection plan (`None` clears it).
    pub fn set_fault(&mut self, fault: Option<Arc<FaultPlan>>) {
        self.fault = fault;
    }

    /// Whether `point` fires now under the installed plan (occurrence
    /// counted; always `false` with no plan).
    fn fault_fires(&self, point: FaultPoint) -> bool {
        self.fault.as_ref().is_some_and(|f| f.fire(point))
    }

    /// The injected verdict for the `query-timeout` fault point.
    fn injected_timeout() -> Exhaustion {
        Exhaustion::with_detail(Phase::Smt, Resource::Deadline, "injected query-timeout")
    }

    /// Queries charged so far against the (possibly shared) cap.
    pub fn queries_charged(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Queries this solver solved (its share of the registry's
    /// `smt_queries`).
    pub fn solved_queries(&self) -> u64 {
        self.solved
    }

    /// The exhaustion of the first query this solver solved that came
    /// back `Unknown` (a refused query is not solved).
    pub fn first_unknown(&self) -> Option<&Exhaustion> {
        self.first_unknown.as_ref()
    }

    /// Pins the absolute wall-clock deadline for every subsequent query.
    ///
    /// Callers that share one deadline across several phases (e.g. the
    /// liquid fixpoint) set it here instead of relying on the lazy
    /// conversion of `budget.timeout`, which would restart the clock at
    /// the first query.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
        self.deadline_armed = true;
    }

    /// The deadline in effect, arming it from the budget's relative
    /// timeout on first use.
    fn effective_deadline(&mut self) -> Option<Instant> {
        if !self.deadline_armed {
            self.deadline = self.budget.deadline_from_now();
            self.deadline_armed = true;
        }
        self.deadline
    }

    /// Whether the query cap has been used up (counting both kinds of
    /// top-level queries, summed across every solver sharing the
    /// counter).
    fn query_budget_exhausted(&self) -> bool {
        self.budget
            .max_smt_queries
            .is_some_and(|cap| self.queries.load(Ordering::Relaxed) >= cap)
    }

    /// Checks the per-query entry budgets (query cap, deadline). Returns
    /// the exhaustion to report, if any.
    fn entry_exhaustion(&mut self) -> Option<Exhaustion> {
        if self.query_budget_exhausted() {
            let cap = self.budget.max_smt_queries.unwrap_or(0);
            return Some(Exhaustion::with_detail(
                Phase::Smt,
                Resource::SmtQueries,
                format!("cap {cap}"),
            ));
        }
        if deadline_expired(self.effective_deadline()) {
            return Some(Exhaustion::new(Phase::Smt, Resource::Deadline));
        }
        None
    }

    /// Decides validity of `antecedent ⇒ consequent` under `env`,
    /// reporting `Unknown` when a budget runs out.
    ///
    /// The cache is consulted *before* any budget is charged: a hit
    /// costs no query from `--max-smt-queries` (it does no solving),
    /// and is served even after the cap is exhausted.
    pub fn check_valid(&mut self, env: &SortEnv, antecedent: &Pred, consequent: &Pred) -> Validity {
        self.query(antecedent, consequent, |smt, deadline| {
            smt.one_shot(env, &negation(antecedent, consequent), deadline)
        })
    }

    /// Rolls a certification outcome into metrics, logging failures with
    /// query provenance. No-op unless `certify` is on. Every definite
    /// verdict counts as checked: an Invalid one by its countermodel, a
    /// Valid one by its confirmed theory cores.
    fn note_certification(&self, verdict: &Validity) {
        if !self.config.certify {
            return;
        }
        match verdict {
            Validity::Valid | Validity::Invalid => {
                self.obs.metrics().smt_certs_checked.incr();
            }
            Validity::Unknown(e) if e.resource == Resource::Certification => {
                self.obs.metrics().smt_certs_failed.incr();
                match &self.origin {
                    Some(o) => log_error!(
                        "certification failed for constraint {} ({}, round {}, worker {}): {}",
                        o.constraint,
                        o.label,
                        o.round,
                        o.worker,
                        e.detail
                    ),
                    None => log_error!("certification failed: {}", e.detail),
                }
            }
            Validity::Unknown(_) => {}
        }
    }

    /// Decides validity of `antecedent ⇒ consequent` under `env`.
    ///
    /// Boolean façade over [`SmtSolver::check_valid`]: incomplete corners
    /// (exhausted budgets, expired deadlines) resolve to *invalid*, never
    /// to *valid* — the verifier stays sound but may lose precision.
    /// Callers that need to distinguish "refuted" from "ran out of
    /// budget" use [`SmtSolver::check_valid`] directly.
    pub fn is_valid(&mut self, env: &SortEnv, antecedent: &Pred, consequent: &Pred) -> bool {
        matches!(
            self.check_valid(env, antecedent, consequent),
            Validity::Valid
        )
    }

    /// Decides validity of `antecedent ⇒ consequentᵢ` for every
    /// consequent, encoding and preprocessing the antecedent *once* and
    /// deciding each consequent under a pushed assertion scope. A batch
    /// of one consequent has nothing to share, so it is decided as
    /// [`SmtSolver::check_valid`] decides it, on a one-shot session.
    ///
    /// Verdicts agree with per-query [`SmtSolver::check_valid`] (both
    /// run the same session pipeline), and definite answers populate the
    /// same shared [`QueryCache`], so parallel workers benefit from each
    /// other's batches. Cache hits are served without charging the query
    /// budget; each miss charges one query against `--max-smt-queries`,
    /// exactly like the scalar path.
    pub fn check_valid_many(
        &mut self,
        env: &SortEnv,
        antecedent: &Pred,
        consequents: &[Pred],
    ) -> Vec<Validity> {
        if let [consequent] = consequents {
            return vec![self.check_valid(env, antecedent, consequent)];
        }
        // Opened by the first consequent this batch solves.
        let mut shared: Option<Session> = None;
        consequents
            .iter()
            .map(|consequent| {
                self.query(antecedent, consequent, |smt, deadline| {
                    if smt.fault_fires(FaultPoint::SessionFail) {
                        // Injected session failure mid-batch: drop the
                        // shared session (later consequents reopen it) and
                        // re-decide this query on a fresh one-shot session.
                        shared = None;
                        return smt.one_shot(env, &negation(antecedent, consequent), deadline);
                    }
                    // The first solved consequent pays for opening the
                    // session and asserting the antecedent: that is query
                    // time too.
                    let session = shared.get_or_insert_with(|| {
                        let mut session = smt.open_session(env);
                        session.assert_pred(antecedent);
                        session
                    });
                    smt.obs.metrics().smt_scoped_checks.incr();
                    session.push();
                    session.assert_pred(&Pred::not(consequent.clone()));
                    let verdict = session.check(&smt.budget, deadline);
                    session.pop();
                    verdict
                })
            })
            .collect()
    }

    /// The one accounting path of every query: cache lookup → entry
    /// budgets → the `query-timeout` fault → charge → `solve` (given the
    /// deadline) → certification note → trace record → cache insert.
    ///
    /// `solve` decides the negation of `antecedent ⇒ consequent`
    /// (`Unsat` means valid). Only definite answers are cached: an
    /// `Unknown` under one budget may well be decidable under a larger
    /// one.
    fn query(
        &mut self,
        antecedent: &Pred,
        consequent: &Pred,
        solve: impl FnOnce(&mut SmtSolver, Option<Instant>) -> SmtResult,
    ) -> Validity {
        self.obs.metrics().smt_checks.incr();
        let cached = if self.config.cache {
            self.cache.get(antecedent, consequent)
        } else {
            None
        };
        if let Some(valid) = cached {
            self.obs.metrics().smt_cache_hits.incr();
            return if valid {
                Validity::Valid
            } else {
                Validity::Invalid
            };
        }
        let refused = self.entry_exhaustion().or_else(|| {
            self.fault_fires(FaultPoint::QueryTimeout)
                .then(Self::injected_timeout)
        });
        if let Some(e) = refused {
            self.obs.metrics().smt_refused.incr();
            return Validity::Unknown(e);
        }
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.solved += 1;
        self.obs.metrics().smt_queries.incr();
        let deadline = self.effective_deadline();
        let qstart = Instant::now();
        let verdict = match solve(self, deadline) {
            SmtResult::Unsat => Validity::Valid,
            SmtResult::Sat => Validity::Invalid,
            SmtResult::Unknown(e) => Validity::Unknown(e),
        };
        self.note_certification(&verdict);
        let name = match &verdict {
            Validity::Valid => "valid",
            Validity::Invalid => "invalid",
            Validity::Unknown(e) => {
                self.obs.metrics().smt_unknown.incr();
                self.first_unknown.get_or_insert_with(|| e.clone());
                "unknown"
            }
        };
        self.obs.record_query(self.origin.as_ref(), qstart, name);
        if self.config.cache {
            match verdict {
                Validity::Valid => self.cache.insert(antecedent, consequent, true),
                Validity::Invalid => self.cache.insert(antecedent, consequent, false),
                Validity::Unknown(_) => {}
            }
        }
        verdict
    }

    /// Opens a session that serves several checks (a batch), counted in
    /// the registry's `smt_sessions`. A one-shot session is not.
    fn open_session<'env>(&mut self, env: &'env SortEnv) -> Session<'env> {
        self.obs.metrics().smt_sessions.incr();
        self.new_session(env)
    }

    /// Decides `p` on a fresh session that lives for this one check.
    fn one_shot(&self, env: &SortEnv, p: &Pred, deadline: Option<Instant>) -> SmtResult {
        let mut session = self.new_session(env);
        session.assert_pred(p);
        session.check(&self.budget, deadline)
    }

    /// An empty session over `env` with this solver's settings.
    fn new_session<'env>(&self, env: &'env SortEnv) -> Session<'env> {
        Session::new(env, self.config.certify)
    }
}

/// The formula whose unsatisfiability proves `antecedent ⇒ consequent`.
fn negation(antecedent: &Pred, consequent: &Pred) -> Pred {
    Pred::and(vec![antecedent.clone(), Pred::not(consequent.clone())])
}

/// The downgraded verdict for a certificate that failed.
pub(crate) fn certification_unknown(why: String) -> SmtResult {
    SmtResult::Unknown(Exhaustion::with_detail(
        Phase::Smt,
        Resource::Certification,
        why,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsolve_logic::{parse_pred, FuncSort, Sort, Symbol};

    fn env() -> SortEnv {
        let mut env = SortEnv::new();
        for v in ["x", "y", "z", "i", "j", "k", "n", "w"] {
            env.bind(Symbol::new(v), Sort::Int);
        }
        env.bind(Symbol::new("m"), Sort::Map);
        env.bind(Symbol::new("mp"), Sort::Map);
        env.bind(Symbol::new("s"), Sort::Set);
        env.bind(Symbol::new("t"), Sort::Set);
        env.bind(Symbol::new("xs"), Sort::Obj(Symbol::new("list")));
        env.bind(Symbol::new("ys"), Sort::Obj(Symbol::new("list")));
        env.declare_func(
            Symbol::new("elts"),
            FuncSort::new(vec![Sort::Obj(Symbol::new("list"))], Sort::Set),
        );
        env.declare_func(
            Symbol::new("len"),
            FuncSort::new(vec![Sort::Obj(Symbol::new("list"))], Sort::Int),
        );
        env
    }

    /// Installs a fresh registry on `smt`, so the test reads its own
    /// counts (the placeholder `Obs::off()` registry is process-wide).
    fn observed(mut smt: SmtSolver) -> (SmtSolver, Obs) {
        let obs = Obs::new();
        smt.set_obs(obs.clone());
        (smt, obs)
    }

    fn valid(lhs: &str, rhs: &str) -> bool {
        let env = env();
        let mut smt = SmtSolver::new();
        smt.is_valid(&env, &parse_pred(lhs).unwrap(), &parse_pred(rhs).unwrap())
    }

    #[test]
    fn arithmetic_validities() {
        assert!(valid("x < y", "x <= y"));
        assert!(valid("x < y", "x != y"));
        assert!(valid("x <= y && y <= x", "x = y"));
        assert!(valid("x = y + 1", "y < x"));
        assert!(!valid("x <= y", "x < y"));
        assert!(!valid("x <= y && y <= z", "x < z"));
        assert!(!valid("true", "x < y"));
    }

    #[test]
    fn integer_tightening() {
        // Over the integers x < y ⇒ x + 1 ≤ y.
        assert!(valid("x < y", "x + 1 <= y"));
        // And x < y ∧ y < x + 2 pins y = x + 1.
        assert!(valid("x < y && y < x + 2", "y = x + 1"));
        // Three strict steps over the integers: x + 3 <= w.
        assert!(valid("x < y && y < z && z < w", "x + 2 < w"));
    }

    #[test]
    fn euf_validities() {
        assert!(valid("x = y", "len(xs) = len(xs)"));
        assert!(valid("xs = ys", "elts(xs) = elts(ys)"));
        assert!(valid("x = y && len(xs) = x", "len(xs) = y"));
        assert!(!valid("elts(xs) = elts(ys)", "xs = ys"));
    }

    #[test]
    fn set_validities() {
        assert!(valid(
            "s = union(single(x), elts(xs))",
            "s = union(elts(xs), single(x))"
        ));
        assert!(valid("elts(xs) = empty", "union(elts(xs), s) = s"));
        assert!(valid("true", "x in single(x)"));
        assert!(!valid("true", "x in s"));
        // Transitivity of set equality through a measure chain.
        assert!(valid("elts(xs) = s && s = t", "elts(xs) = t"));
    }

    #[test]
    fn array_validities() {
        assert!(valid("mp = Upd(m, k, 1)", "Sel(mp, k) = 1"));
        assert!(valid(
            "mp = Upd(m, k, 1) && j != k",
            "Sel(mp, j) = Sel(m, j)"
        ));
        assert!(!valid("mp = Upd(m, k, 1)", "Sel(mp, j) = 1"));
        // The malloc pattern: after setting p's bit, any other address
        // keeps its bit.
        assert!(valid("Sel(m, x) = 0 && x != k", "Sel(Upd(m, k, 1), x) = 0"));
    }

    #[test]
    fn ite_validities() {
        // The AVL height measure shape.
        assert!(valid(
            "z = (if x < y then 1 + y else 1 + x)",
            "z > x && z > y"
        ));
        assert!(valid("z = (if x < y then y else x)", "z >= x"));
    }

    #[test]
    fn guard_reasoning() {
        // Path-sensitive fact: under branch x < y the else is dead.
        assert!(valid("x < y => z = 1 && (not (x < y)) => z = 2", "true"));
        assert!(valid(
            "(x < y => z = 1) && (not (x < y) => z = 2)",
            "z = 1 || z = 2"
        ));
    }

    #[test]
    fn inconsistent_antecedent_proves_anything() {
        assert!(valid("x < x", "false"));
        assert!(valid("x = 1 && x = 2", "y = 99"));
        // Set disjointness facts are not decided either way; just make
        // sure the query completes without panicking.
        let _ = valid(
            "elts(xs) = empty && elts(xs) = union(single(x), s)",
            "false",
        );
    }

    #[test]
    fn sat_api() {
        // A formula is satisfiable exactly when it does not imply false.
        assert!(!valid("x < y && y < z", "false"));
        assert!(valid("x < y && y < x", "false"));
    }

    #[test]
    fn cache_hits_count() {
        let env = env();
        let (mut smt, obs) = observed(SmtSolver::new());
        let l = parse_pred("x < y").unwrap();
        let r = parse_pred("x <= y").unwrap();
        assert!(smt.is_valid(&env, &l, &r));
        assert!(smt.is_valid(&env, &l, &r));
        let m = obs.metrics();
        assert_eq!((m.smt_checks.get(), m.smt_cache_hits.get()), (2, 1));
        assert_eq!((m.smt_queries.get(), smt.solved_queries()), (1, 1));
    }

    #[test]
    fn uninterpreted_division_is_conservative() {
        // Division semantics are not interpreted, so this is not provable…
        assert!(!valid("x = 4", "x / 2 = 2"));
        // …but congruence over division still holds.
        assert!(valid("x = y", "x / 2 = y / 2"));
    }

    #[test]
    fn query_cap_reports_unknown() {
        let env = env();
        let mut smt = SmtSolver::with_config(
            SolverConfig::default(),
            Budget {
                max_smt_queries: Some(1),
                ..Budget::default()
            },
        );
        let l = parse_pred("x < y").unwrap();
        let r = parse_pred("x <= y").unwrap();
        assert_eq!(smt.check_valid(&env, &l, &r), Validity::Valid);
        // A *distinct* query needs solving and the cap is spent.
        let r2 = parse_pred("x != y").unwrap();
        match smt.check_valid(&env, &l, &r2) {
            Validity::Unknown(e) => {
                assert_eq!(e.phase, Phase::Smt);
                assert_eq!(e.resource, Resource::SmtQueries);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        // The boolean façade degrades soundly: not proven.
        assert!(!smt.is_valid(&env, &l, &r2));
    }

    #[test]
    fn cache_hits_do_not_charge_query_budget() {
        // Pin of the budget-accounting fix: a repeat of an answered
        // query is a cache hit, does no solving, and must be served —
        // and charged nothing — even once the cap is exhausted.
        let env = env();
        let (mut smt, obs) = observed(SmtSolver::with_config(
            SolverConfig::default(),
            Budget {
                max_smt_queries: Some(1),
                ..Budget::default()
            },
        ));
        let l = parse_pred("x < y").unwrap();
        let r = parse_pred("x <= y").unwrap();
        assert_eq!(smt.check_valid(&env, &l, &r), Validity::Valid);
        assert_eq!(smt.queries_charged(), 1);
        for _ in 0..3 {
            assert_eq!(smt.check_valid(&env, &l, &r), Validity::Valid);
        }
        assert_eq!(smt.queries_charged(), 1, "cache hits burned query budget");
        assert_eq!(obs.metrics().smt_cache_hits.get(), 3);
    }

    #[test]
    fn check_valid_many_agrees_with_scalar() {
        let env = env();
        let antecedent = parse_pred("x < y && y < z").unwrap();
        let consequents: Vec<Pred> = ["x < z", "x <= z", "z < x", "x != z", "z = x", "x + 2 <= z"]
            .iter()
            .map(|s| parse_pred(s).unwrap())
            .collect();
        let (mut batch, obs) = observed(SmtSolver::new());
        let got = batch.check_valid_many(&env, &antecedent, &consequents);
        for (c, got) in consequents.iter().zip(&got) {
            let mut scalar = SmtSolver::new();
            let want = scalar.check_valid(&env, &antecedent, c);
            assert_eq!(*got, want, "verdict mismatch on `{c}`");
        }
        // One session served the whole batch.
        assert_eq!(obs.metrics().smt_sessions.get(), 1);
        assert_eq!(
            obs.metrics().smt_scoped_checks.get(),
            consequents.len() as u64
        );
    }

    #[test]
    fn injected_query_timeout_refuses_one_batched_check() {
        // A batched check takes the query-timeout fault like any other
        // query: the armed occurrence is refused before it is charged or
        // opens the session, and the next consequents are decided.
        let env = env();
        let (mut smt, obs) = observed(SmtSolver::new());
        smt.set_fault(Some(Arc::new(FaultPlan::parse("query-timeout@1").unwrap())));
        let antecedent = parse_pred("x < y").unwrap();
        let consequents: Vec<Pred> = ["x != y", "y < x", "x <= y"]
            .iter()
            .map(|s| parse_pred(s).unwrap())
            .collect();
        let got = smt.check_valid_many(&env, &antecedent, &consequents);
        match &got[0] {
            Validity::Unknown(e) => {
                assert_eq!(e.resource, Resource::Deadline);
                assert_eq!(e.detail, "injected query-timeout");
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        assert_eq!(got[1..], [Validity::Invalid, Validity::Valid]);
        let m = obs.metrics();
        assert_eq!((m.smt_queries.get(), m.smt_refused.get()), (2, 1));
        assert_eq!((m.smt_sessions.get(), m.smt_scoped_checks.get()), (1, 2));
        assert_eq!(smt.queries_charged(), 2);
    }

    #[test]
    fn check_valid_many_theory_lemmas() {
        // Exercise the retained-lemma paths: arrays and sets under a
        // shared antecedent.
        let env = env();
        let antecedent = parse_pred("mp = Upd(m, k, 1) && j != k").unwrap();
        let consequents: Vec<Pred> = ["Sel(mp, k) = 1", "Sel(mp, j) = Sel(m, j)", "Sel(mp, j) = 1"]
            .iter()
            .map(|s| parse_pred(s).unwrap())
            .collect();
        let mut smt = SmtSolver::new();
        let got = smt.check_valid_many(&env, &antecedent, &consequents);
        assert_eq!(
            got,
            vec![Validity::Valid, Validity::Valid, Validity::Invalid]
        );
        let ant2 = parse_pred("s = union(single(x), elts(xs)) && elts(xs) = empty").unwrap();
        let cons2: Vec<Pred> = ["s = single(x)", "s = empty", "x in s"]
            .iter()
            .map(|s| parse_pred(s).unwrap())
            .collect();
        let got2 = smt.check_valid_many(&env, &ant2, &cons2);
        for (c, got) in cons2.iter().zip(&got2) {
            let mut scalar = SmtSolver::new();
            assert_eq!(*got, scalar.check_valid(&env, &ant2, c), "on `{c}`");
        }
    }

    #[test]
    fn check_valid_many_populates_shared_cache() {
        let env = env();
        let cache = crate::QueryCache::shared();
        let antecedent = parse_pred("x < y").unwrap();
        let consequents = vec![parse_pred("x <= y").unwrap(), parse_pred("x != y").unwrap()];
        let mut batch = SmtSolver::new();
        batch.share_cache(Arc::clone(&cache));
        let _ = batch.check_valid_many(&env, &antecedent, &consequents);
        // A different solver sharing the cache answers from it.
        let (mut other, obs) = observed(SmtSolver::new());
        other.share_cache(cache);
        assert_eq!(
            other.check_valid(&env, &antecedent, &consequents[0]),
            Validity::Valid
        );
        assert_eq!(obs.metrics().smt_cache_hits.get(), 1);
        assert_eq!(other.solved_queries(), 0);
    }

    #[test]
    fn expired_deadline_reports_unknown() {
        let env = env();
        let mut smt = SmtSolver::new();
        smt.set_deadline(Some(Instant::now() - std::time::Duration::from_millis(1)));
        let p = parse_pred("x < y").unwrap();
        match smt.check_valid(&env, &p, &Pred::False) {
            Validity::Unknown(e) => assert_eq!(e.resource, Resource::Deadline),
            other => panic!("expected Unknown, got {other:?}"),
        }
        // Clearing the deadline restores normal service.
        smt.set_deadline(None);
        assert_eq!(smt.check_valid(&env, &p, &Pred::False), Validity::Invalid);
    }

    #[test]
    fn zero_timeout_budget_arms_lazily_and_reports_unknown() {
        let env = env();
        let mut smt = SmtSolver::with_config(
            SolverConfig::default(),
            Budget::with_timeout(std::time::Duration::from_secs(0)),
        );
        let l = parse_pred("x < y").unwrap();
        let r = parse_pred("x <= y").unwrap();
        match smt.check_valid(&env, &l, &r) {
            Validity::Unknown(e) => assert_eq!(e.resource, Resource::Deadline),
            other => panic!("expected Unknown, got {other:?}"),
        }
        assert!(!smt.is_valid(&env, &l, &r));
    }

    #[test]
    fn exhausted_bb_budget_demotes_to_unknown_not_sat() {
        // x + x = 1 has a rational solution but no integer one; with no
        // branch-and-bound nodes the solver must admit it cannot tell.
        let env = env();
        let mut smt = SmtSolver::with_config(
            SolverConfig::default(),
            Budget {
                max_bb_nodes: 0,
                ..Budget::default()
            },
        );
        let p = parse_pred("x + x = 1").unwrap();
        match smt.check_valid(&env, &p, &Pred::False) {
            Validity::Unknown(e) => {
                assert_eq!(e.phase, Phase::Simplex);
                assert_eq!(e.resource, Resource::BranchBoundNodes);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
        // With the default budget the same formula is refuted outright.
        let mut full = SmtSolver::new();
        assert_eq!(full.check_valid(&env, &p, &Pred::False), Validity::Valid);
    }

    #[test]
    fn unknown_is_not_cached() {
        let env = env();
        let (mut smt, obs) = observed(SmtSolver::with_config(
            SolverConfig::default(),
            Budget {
                max_bb_nodes: 0,
                ..Budget::default()
            },
        ));
        let l = parse_pred("x + x = 1").unwrap();
        let r = parse_pred("false").unwrap();
        assert!(matches!(
            smt.check_valid(&env, &l, &r),
            Validity::Unknown(_)
        ));
        assert!(matches!(
            smt.check_valid(&env, &l, &r),
            Validity::Unknown(_)
        ));
        let m = obs.metrics();
        assert_eq!(m.smt_cache_hits.get(), 0);
        // Both were solved, and both came back undecided.
        assert_eq!((m.smt_queries.get(), m.smt_unknown.get()), (2, 2));
    }

    #[test]
    fn range_invariant_shape() {
        // The Fig. 1 `range` fold obligation:
        // i <= v (element) and i >= 1 implies 0 < v.
        assert!(valid("i <= x && 1 <= i", "0 < x"));
    }

    #[test]
    fn sorted_cons_obligation() {
        // Fig. 2 insert: x <= y and y <= v implies x <= v.
        assert!(valid("x <= y && y <= w", "x <= w"));
    }
}
