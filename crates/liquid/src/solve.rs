//! The liquid fixpoint solver: iterative weakening over qualifier
//! instantiations [Rondon et al., PLDI 2008], with the SMT solver
//! discharging each implication.
//!
//! Each liquid variable `κ` starts at the strongest conjunction of
//! well-sorted instantiations of the qualifier set in its scope. Every
//! constraint whose right side is `θ·κ` removes from `A(κ)` the
//! qualifiers the left side fails to imply; the process is monotone and
//! terminates. Constraints with concrete right sides are verified under
//! the final assignment and produce the reported errors.
//!
//! # Parallel mode
//!
//! With `jobs > 1` the solver runs the fixpoint in *rounds*: the pending
//! worklist is drained, partitioned into groups of constraints with
//! disjoint **write** κ-sets (constraints writing a common κ always land
//! in the same partition), and each partition is checked on its own
//! worker thread against a read-only snapshot of the assignment. Reads
//! may cross partitions and see one-round-stale values; that is ordinary
//! chaotic iteration of a monotone operator — every constraint reading a
//! changed κ is re-enqueued after the merge, so the iteration still
//! converges to the same greatest fixpoint the sequential schedule
//! finds. Weakenings are merged in deterministic (worker, κ) order, and
//! all workers share one [`QueryCache`] and one atomic query counter so
//! `--max-smt-queries` caps the *total* across threads.

use crate::constraint::{LiquidError, SubC};
use crate::env::{GlobalEnv, KEnv};
use crate::rtype::{KVar, RefAtom};
use dsolve_logic::{
    deadline_expired, Budget, Exhaustion, FaultPlan, FaultPoint, Instantiator, Outcome, Phase,
    Pred, Qualifier, Resource, Symbol,
};
use dsolve_obs::{log_debug, log_info, Obs, ObsPhase, QueryOrigin};
use dsolve_smt::{QueryCache, SmtSolver, SolverConfig, Validity};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Statistics from a solver run.
#[derive(Clone, Debug, Default)]
pub struct SolveStats {
    /// Number of liquid variables.
    pub kvars: usize,
    /// Total initial qualifier instantiations.
    pub initial_quals: usize,
    /// Wall-clock time spent building the initial assignment `Q★` (part
    /// of `fixpoint_time`).
    pub qstar_time: Duration,
    /// Distinct κ scope signatures `Q★` was built for; κs with the same
    /// signature share one instantiation.
    pub qstar_scopes: usize,
    /// SMT queries actually *solved* during this run (each charged one
    /// unit against `--max-smt-queries`). Sourced from the metrics
    /// registry — the single accounting authority — so cache hits are
    /// excluded and the total always equals the sum of
    /// `worker_queries`.
    pub smt_queries: u64,
    /// Fixpoint iterations (constraint re-checks).
    pub iterations: u64,
    /// Wall-clock time spent in the weakening fixpoint.
    pub fixpoint_time: Duration,
    /// Wall-clock time spent checking concrete obligations.
    pub obligation_time: Duration,
    /// Worker threads used (1 = sequential).
    pub jobs: usize,
    /// Fixpoint rounds: barrier rounds in parallel mode, BFS levels of
    /// the worklist in sequential mode (0 when no constraint was ever
    /// queued).
    pub rounds: u64,
    /// Constraints in the largest single partition of any round.
    pub max_partition: usize,
    /// SMT queries issued per worker (index = worker id).
    pub worker_queries: Vec<u64>,
    /// Constraint checks per worker (aggregate partition sizes).
    pub worker_checks: Vec<u64>,
    /// Validity checks answered from the query cache, across all
    /// workers (from the metrics registry).
    pub cache_hits: u64,
    /// Validity checks requested of the SMT layer across all workers
    /// (from the metrics registry): `cache_hits + cache_misses`.
    pub cache_lookups: u64,
    /// Incremental SMT sessions opened across all workers (0 when
    /// incremental solving is disabled).
    pub smt_sessions: u64,
    /// Consequents decided under an assertion scope inside those
    /// sessions; `smt_scoped_checks / smt_sessions` is the average
    /// batch size — how much antecedent encoding was reused.
    pub smt_scoped_checks: u64,
    /// Per-round, per-partition fixpoint work (sequential mode reports
    /// one partition per round on worker 0).
    pub partition_stats: Vec<PartitionStat>,
    /// Qualifier-count trajectory per weakened κ: `(name, points)` where
    /// each point is `(round, count)` and the first point is the initial
    /// instantiation count at round 0. κs that never weaken are omitted.
    /// Sorted by κ name.
    pub kvar_trajectories: Vec<(String, Vec<(u64, usize)>)>,
    /// κs that were still in motion when the fixpoint was cut short:
    /// everything written by constraints left on the worklist. Empty on
    /// a converged run.
    pub churning_kvars: Vec<String>,
}

/// One partition's share of one fixpoint round: how many constraints a
/// worker checked and how long that took wall-clock.
#[derive(Clone, Debug)]
pub struct PartitionStat {
    /// 1-based fixpoint round.
    pub round: u64,
    /// Worker index within the round (always 0 in sequential mode).
    pub worker: usize,
    /// Constraints checked in this partition.
    pub constraints: u64,
    /// Wall-clock time spent on this partition.
    pub wall: Duration,
}

impl SolveStats {
    /// Cache hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }
}

/// The result of solving.
pub struct Solution {
    /// Final qualifier assignment per liquid variable.
    pub assignment: HashMap<KVar, Vec<Pred>>,
    /// Errors from concrete obligations that failed.
    pub errors: Vec<LiquidError>,
    /// Run statistics.
    pub stats: SolveStats,
    /// The first budget exhaustion that tainted the run, if any. When
    /// set, an empty `errors` list does **not** mean the module was
    /// proven safe.
    pub exhaustion: Option<Exhaustion>,
}

impl Solution {
    /// The solved refinement of `κ` as a single predicate.
    pub fn pred_of(&self, k: KVar) -> Pred {
        Pred::and(self.assignment.get(&k).cloned().unwrap_or_default())
    }

    /// The three-valued outcome of the run. Any exhaustion forces
    /// `Unknown`: a fixpoint cut short leaves the assignment too strong,
    /// so even clean obligations cannot be trusted as `Safe`.
    pub fn outcome(&self) -> Outcome {
        if let Some(e) = &self.exhaustion {
            Outcome::Unknown(e.clone())
        } else if self.errors.is_empty() {
            Outcome::Safe
        } else {
            Outcome::Unsafe
        }
    }
}

/// Solver configuration.
#[derive(Clone, Debug, Default)]
pub struct SolveConfig {
    /// SMT configuration. Its `budget` field is ignored: `budget` below
    /// is the single source of truth and is pushed into the SMT solver.
    pub smt: SolverConfig,
    /// Resource limits for the whole run (deadline, query cap, fixpoint
    /// iteration cap, per-query search caps).
    pub budget: Budget,
    /// Fixpoint worker threads: `0` = one per available CPU, `1` = the
    /// sequential solver, `n` = exactly `n` workers.
    pub jobs: usize,
    /// Disables incremental (assertion-scope) SMT batching: every
    /// implication goes through the scratch `check_valid` path. The
    /// `DSOLVE_NO_INCREMENTAL` environment variable forces this too.
    pub no_incremental: bool,
    /// Observability handle: the metrics registry every SMT query and
    /// fixpoint event records into, plus the optional trace sink.
    /// Cloning the config shares the handle (it is an `Arc`), so one
    /// registry spans all phases of a verification job.
    pub obs: Obs,
    /// Deterministic fault-injection plan (`--inject-fault` /
    /// `DSOLVE_FAULT`), shared with every SMT solver this run creates so
    /// occurrence counts span workers. `None` in production runs.
    pub fault: Option<Arc<FaultPlan>>,
}

/// Whether this run batches implications through incremental SMT
/// sessions (the default) or issues every query from scratch.
fn use_incremental(config: &SolveConfig) -> bool {
    !config.no_incremental && std::env::var_os("DSOLVE_NO_INCREMENTAL").is_none()
}

/// Resolves `config.jobs` (`0` = available parallelism).
pub fn effective_jobs(config: &SolveConfig) -> usize {
    match config.jobs {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Runs the iterative-weakening fixpoint.
pub fn solve(
    genv: &GlobalEnv,
    kenv: &KEnv,
    subs: &[SubC],
    quals: &[Qualifier],
    config: &SolveConfig,
) -> Solution {
    let jobs = effective_jobs(config);
    if jobs <= 1 {
        solve_sequential(genv, kenv, subs, quals, config)
    } else {
        solve_parallel(genv, kenv, subs, quals, config, jobs)
    }
}

/// The initial assignment: all well-sorted qualifier instantiations per
/// κ scope, traced as the `qstar` span of the fixpoint.
fn initial_assignment(
    kenv: &KEnv,
    quals: &[Qualifier],
    obs: &Obs,
    stats: &mut SolveStats,
) -> HashMap<KVar, Vec<Pred>> {
    let started = Instant::now();
    let _span = obs.span("fixpoint", "qstar");
    let mut assignment: HashMap<KVar, Vec<Pred>> = HashMap::new();
    let mut qstar = Instantiator::new(quals);
    for k in kenv.kvars() {
        let info = kenv.info(k).expect("registered kvar");
        let insts = qstar.instantiate(&info.scope, &info.nu_sort).to_vec();
        stats.initial_quals += insts.len();
        assignment.insert(k, insts);
    }
    stats.kvars = assignment.len();
    stats.qstar_scopes = qstar.scopes();
    // The memo holds a copy of every distinct list: free it before the
    // fixpoint starts, and count the freeing as part of this step.
    drop(qstar);
    stats.qstar_time = started.elapsed();
    assignment
}

/// A read view over the assignment: a base map plus (in workers) a local
/// overlay holding this partition's own weakenings.
struct View<'a> {
    base: &'a HashMap<KVar, Vec<Pred>>,
    local: Option<&'a HashMap<KVar, Vec<Pred>>>,
}

impl View<'_> {
    fn get(&self, k: KVar) -> Vec<Pred> {
        if let Some(local) = self.local {
            if let Some(v) = local.get(&k) {
                return v.clone();
            }
        }
        self.base.get(&k).cloned().unwrap_or_default()
    }

    fn pred_of(&self, k: KVar) -> Pred {
        Pred::and(self.get(k))
    }
}

/// Checks one constraint, weakening the κs on its right side. Returns
/// `(κ, survivors)` for every κ whose candidate set shrank.
///
/// Query accounting happens inside the SMT solver (metrics registry +
/// per-solver `solved_queries`); this function no longer counts.
fn weaken_constraint(
    genv: &GlobalEnv,
    c: &SubC,
    view: &View<'_>,
    smt: &mut SmtSolver,
    incremental: bool,
) -> Vec<(KVar, Vec<Pred>)> {
    let lookup = |k: KVar| view.pred_of(k);
    let (mut sorts, antecedent) = c.env.embed(genv, &lookup);
    bind_nu(&mut sorts, &c.nu_shape);
    let lhs = filter_wellsorted(&sorts, c.lhs.concretize(&lookup));

    // Check each κ atom on the right; collect survivors.
    let mut weakened: Vec<(KVar, Vec<Pred>)> = Vec::new();
    for (theta, atom) in &c.rhs.atoms {
        let RefAtom::KVar(k) = atom else { continue };
        let quals_k = view.get(*k);
        if quals_k.is_empty() {
            continue;
        }
        // Relevance pruning: during weakening, restrict the
        // antecedent to conjuncts transitively sharing variables
        // with the left side and the candidate qualifiers. Always
        // sound (weakens the antecedent); dramatically shrinks the
        // per-query formulas.
        let rhs_preds: Vec<Pred> = quals_k.iter().map(|q| theta.apply_pred(q)).collect();
        let mut seeds: std::collections::BTreeSet<Symbol> = lhs.free_vars();
        for p in &rhs_preds {
            seeds.extend(p.free_vars());
        }
        let pruned = prune_conjuncts(antecedent.clone(), &mut seeds);
        let lhs_full = Pred::and(vec![pruned, lhs.clone()]);
        // Pruning is a fast path, not a semantics: failures are
        // retried against the full antecedent before a qualifier is
        // dropped for good.
        let lhs_unpruned = Pred::and(vec![antecedent.clone(), lhs.clone()]);
        let lhs_conjuncts: std::collections::HashSet<Pred> =
            lhs_full.clone().conjuncts().into_iter().collect();
        // Partition the candidates: syntactic hits, ill-sorted
        // transports, and the rest — checked in bisected groups
        // (most candidates survive most checks, so testing the whole
        // conjunction first usually costs a single query).
        let mut kept = Vec::with_capacity(quals_k.len());
        let mut to_check: Vec<(Pred, Pred)> = Vec::new();
        let prev_len = quals_k.len();
        for (q, rhs_q) in quals_k.into_iter().zip(rhs_preds) {
            if lhs_conjuncts.contains(&rhs_q) {
                kept.push(q);
            } else if sorts.wellsorted(&rhs_q) {
                to_check.push((q, rhs_q));
            }
        }
        if incremental {
            check_group_batched(smt, &sorts, &lhs_full, Some(&lhs_unpruned), &to_check, &mut kept);
        } else {
            check_group(smt, &sorts, &lhs_full, Some(&lhs_unpruned), &to_check, &mut kept);
        }
        if kept.len() < prev_len {
            if dsolve_obs::log::enabled(dsolve_obs::log::Level::Debug) {
                let removed: Vec<String> = view
                    .get(*k)
                    .iter()
                    .filter(|q| !kept.contains(q))
                    .map(ToString::to_string)
                    .collect();
                let lhs_state: Vec<String> = c
                    .lhs
                    .kvars()
                    .iter()
                    .map(|lk| format!("{lk}={}", view.pred_of(*lk)))
                    .collect();
                log_debug!(
                    "weaken {k} at [{}]: drop {removed:?}\n    lhs: {lhs_full}\n    raw-lhs: {} raw-rhs: {}\n    lhs-assignment: {lhs_state:?}",
                    c.origin, c.lhs, c.rhs
                );
            }
            weakened.push((*k, kept));
        }
    }
    weakened
}

/// Checks the concrete right-hand conjuncts of one constraint under the
/// final assignment. Returns the errors and the first exhaustion hit.
fn check_obligations(
    genv: &GlobalEnv,
    c: &SubC,
    assignment: &HashMap<KVar, Vec<Pred>>,
    smt: &mut SmtSolver,
    incremental: bool,
) -> (Vec<LiquidError>, Option<Exhaustion>) {
    let mut errors = Vec::new();
    let mut exhaustion: Option<Exhaustion> = None;
    let lookup =
        |k: KVar| Pred::and(assignment.get(&k).cloned().unwrap_or_default());
    let (mut sorts, antecedent) = c.env.embed(genv, &lookup);
    bind_nu(&mut sorts, &c.nu_shape);
    let lhs = filter_wellsorted(&sorts, c.lhs.concretize(&lookup));
    let lhs_full = Pred::and(vec![antecedent, lhs]);
    // Collect the concrete conjuncts first so the incremental path can
    // decide them all in one session (the antecedent is encoded once);
    // errors are still emitted in atom order, identical to the scalar
    // path.
    let mut obligations: Vec<(Pred, bool)> = Vec::new();
    for (theta, atom) in &c.rhs.atoms {
        let RefAtom::Conc(p) = atom else { continue };
        let rhs = theta.apply_pred(p);
        let wellsorted = sorts.wellsorted(&rhs);
        obligations.push((rhs, wellsorted));
    }
    let mut batched = if incremental {
        let rhss: Vec<Pred> = obligations
            .iter()
            .filter(|(_, ws)| *ws)
            .map(|(rhs, _)| rhs.clone())
            .collect();
        if rhss.len() > 1 {
            Some(smt.check_valid_many(&sorts, &lhs_full, &rhss).into_iter())
        } else {
            None
        }
    } else {
        None
    };
    for (rhs, wellsorted) in obligations {
        if !wellsorted {
            errors.push(LiquidError {
                msg: format!("obligation `{rhs}` is ill-sorted"),
                origin: Some(c.origin.clone()),
            });
            continue;
        }
        let verdict = match batched.as_mut().and_then(Iterator::next) {
            Some(v) => v,
            None => smt.check_valid(&sorts, &lhs_full, &rhs),
        };
        match verdict {
            Validity::Valid => continue,
            Validity::Unknown(e) => {
                // The obligation is neither proven nor refuted:
                // report it as unproven and taint the outcome.
                errors.push(LiquidError {
                    msg: format!("obligation `{rhs}` unproven: {e}"),
                    origin: Some(c.origin.clone()),
                });
                exhaustion.get_or_insert(e);
                continue;
            }
            Validity::Invalid => {}
        }
        {
            let msg = if dsolve_obs::log::enabled(dsolve_obs::log::Level::Debug) {
                let ks: Vec<String> = c
                    .lhs
                    .kvars()
                    .iter()
                    .map(|lk| {
                        format!(
                            "{lk}={}",
                            Pred::and(assignment.get(lk).cloned().unwrap_or_default())
                        )
                    })
                    .collect();
                format!(
                    "cannot prove `{rhs}`\n    from: {lhs_full}\n    raw: {} | {ks:?}",
                    c.lhs
                )
            } else {
                format!("cannot prove `{rhs}`")
            };
            errors.push(LiquidError {
                msg,
                origin: Some(c.origin.clone()),
            });
        }
    }
    (errors, exhaustion)
}

/// The single-threaded solver (`--jobs 1`): one worklist, one SMT
/// solver, immediate (Gauss–Seidel) assignment updates.
fn solve_sequential(
    genv: &GlobalEnv,
    kenv: &KEnv,
    subs: &[SubC],
    quals: &[Qualifier],
    config: &SolveConfig,
) -> Solution {
    let budget = config.budget;
    let deadline = budget.deadline_from_now();
    let obs = config.obs.clone();
    let base = MetricsBaseline::capture(&obs);
    // Cache-poison injection: give the run a shared cache with one shard
    // poisoned, exercising the lock-recovery path end to end.
    let poison_cache = config
        .fault
        .as_ref()
        .filter(|f| f.fire(FaultPoint::CachePoison))
        .map(|_| {
            let cache = QueryCache::shared();
            cache.poison_all_shards();
            cache
        });
    let make_solver = || {
        let mut smt = SmtSolver::with_config(SolverConfig {
            budget,
            ..config.smt
        });
        // Pin the absolute deadline so the SMT clock does not restart at
        // the first query.
        smt.set_deadline(deadline);
        smt.set_obs(obs.clone());
        smt.set_fault(config.fault.clone());
        if let Some(c) = &poison_cache {
            smt.share_cache(Arc::clone(c));
        }
        smt
    };
    let mut smt = make_solver();
    let incremental = use_incremental(config);
    let mut exhaustion: Option<Exhaustion> = None;
    let fixpoint_start = Instant::now();
    let fixpoint_span = obs.phase_span(ObsPhase::Fixpoint);
    let mut stats = SolveStats {
        jobs: 1,
        ..SolveStats::default()
    };
    log_info!("solve: {} constraints, {} kvars", subs.len(), kenv.len());

    let mut assignment = initial_assignment(kenv, quals, &obs, &mut stats);
    log_info!("solve: initial quals = {}", stats.initial_quals);

    // Provenance labels, one per constraint (shared with the SMT layer
    // via `Arc`, formatted once).
    let labels = constraint_labels(subs, &obs);

    // Dependency index: κ → constraints that *read* it.
    let mut readers: HashMap<KVar, Vec<usize>> = HashMap::new();
    for (i, c) in subs.iter().enumerate() {
        for k in c.reads() {
            readers.entry(k).or_default().push(i);
        }
    }

    // Worklist: every constraint with a κ on the right.
    let mut queue: VecDeque<usize> = subs
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.writes().is_empty())
        .map(|(i, _)| i)
        .collect();
    let mut queued: HashSet<usize> = queue.iter().copied().collect();

    // The sequential worklist has no barriers, but a BFS level structure
    // still exists: everything initially queued is "round 1", whatever
    // those iterations enqueue is "round 2", and so on. The round number
    // feeds provenance, the trace, the per-round partition stats, and —
    // counted on this path too — `stats.rounds`.
    let mut round: u64 = 1;
    let mut round_left = queue.len();
    let mut round_start = Instant::now();
    let mut round_checked = 0u64;
    let mut traj: HashMap<KVar, Vec<(u64, usize)>> = HashMap::new();

    {
        // Round spans nest inside the phase span, one after another.
        let mut round_span = obs.tracing().then(|| {
            obs.span("fixpoint", "round 1")
                .arg("constraints", round_left as u64)
        });
        while let Some(ci) = queue.pop_front() {
            queued.remove(&ci);
            if round_left == 0 {
                stats.partition_stats.push(PartitionStat {
                    round,
                    worker: 0,
                    constraints: round_checked,
                    wall: round_start.elapsed(),
                });
                round_checked = 0;
                round_start = Instant::now();
                round += 1;
                round_left = queue.len() + 1;
                // Close the finished round before the next one opens.
                drop(round_span.take());
                round_span = obs.tracing().then(|| {
                    obs.span("fixpoint", format!("round {round}"))
                        .arg("constraints", round_left as u64)
                });
            }
            round_left -= 1;
            stats.iterations += 1;
            obs.metrics().fixpoint_iterations.incr();
            obs.metrics().queue_depth.set(queue.len() as i64);
            if stats.iterations.is_multiple_of(50) {
                log_info!(
                    "fixpoint: iter={} queue={} smt={} at [{}]",
                    stats.iterations,
                    queue.len(),
                    obs.metrics().smt_queries.get() - base.queries,
                    subs[ci].origin
                );
            }
            if stats.iterations > budget.max_fixpoint_iterations {
                // The worklist is not drained: the assignment may still
                // be too strong, so nothing downstream can be trusted as
                // Safe. The popped constraint goes back so the churn
                // report below sees it as pending.
                queue.push_front(ci);
                exhaustion = Some(Exhaustion::with_detail(
                    Phase::Fixpoint,
                    Resource::FixpointIterations,
                    format!("cap {}", budget.max_fixpoint_iterations),
                ));
                break;
            }
            if deadline_expired(deadline) {
                queue.push_front(ci);
                exhaustion = Some(Exhaustion::new(Phase::Fixpoint, Resource::Deadline));
                break;
            }
            round_checked += 1;
            let view = View {
                base: &assignment,
                local: None,
            };
            smt.set_origin(Some(QueryOrigin {
                constraint: ci as u32,
                label: labels[ci].clone(),
                round,
                worker: 0,
            }));
            // Injected worker panic: fires on the first constraint of
            // round `at`, caught and quarantined like a real one. The
            // `fired() == 1` guard keeps repeat polls in the same round
            // from firing again (`fire_at` does not consume).
            let inject = config.fault.as_ref().is_some_and(|f| {
                f.fire_at(FaultPoint::WorkerPanic, round) && f.fired() == 1
            });
            let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if inject {
                    panic!("injected worker panic (round {round})");
                }
                weaken_constraint(genv, &subs[ci], &view, &mut smt, incremental)
            }));
            let weakened = match checked {
                Ok(w) => w,
                Err(_) => {
                    // Quarantine: conservatively weaken every κ this
                    // constraint writes to ⊤ (sound — weakening is
                    // monotone), taint the run, and rebuild the solver
                    // in case the panic left it mid-session.
                    obs.metrics().workers_quarantined.incr();
                    exhaustion.get_or_insert(Exhaustion::with_detail(
                        Phase::Fixpoint,
                        Resource::Panic,
                        format!(
                            "constraint check panicked at [{}]; its κs weakened to true",
                            subs[ci].origin
                        ),
                    ));
                    smt = make_solver();
                    subs[ci]
                        .writes()
                        .into_iter()
                        .map(|k| (k, Vec::new()))
                        .collect()
                }
            };
            for (k, kept) in weakened {
                let n = kept.len();
                let prev = assignment.insert(k, kept);
                record_trajectory(&mut traj, k, round, prev.map_or(0, |v| v.len()), n);
                for &r in readers.get(&k).map(Vec::as_slice).unwrap_or(&[]) {
                    if !subs[r].writes().is_empty() && queued.insert(r) {
                        queue.push_back(r);
                    }
                }
                // Also re-check this constraint's siblings writing k.
                if queued.insert(ci) {
                    queue.push_back(ci);
                }
            }
        }
    }

    // Close out the last (possibly partial) round and count rounds on
    // the sequential path too — `fixpoint_rounds` used to stay 0 at
    // `--jobs 1` even after thousands of iterations.
    if round_checked > 0 {
        stats.partition_stats.push(PartitionStat {
            round,
            worker: 0,
            constraints: round_checked,
            wall: round_start.elapsed(),
        });
    }
    if stats.iterations > 0 {
        stats.rounds = round;
        obs.metrics().fixpoint_rounds.add(stats.rounds);
    }
    stats.kvar_trajectories = finish_trajectories(traj);
    if exhaustion.is_some() {
        stats.churning_kvars = churn_names(subs, queue.iter().copied());
        name_churn(&mut exhaustion, &stats.churning_kvars);
    }

    stats.fixpoint_time = fixpoint_start.elapsed();
    drop(fixpoint_span);

    // Final pass: concrete right-hand conjuncts.
    let obligation_start = Instant::now();
    let mut errors = Vec::new();
    {
        let _obligation_span = obs.phase_span(ObsPhase::Obligations);
        for (ci, c) in subs.iter().enumerate() {
            let has_conc = c
                .rhs
                .atoms
                .iter()
                .any(|(_, a)| matches!(a, RefAtom::Conc(_)));
            if !has_conc {
                continue;
            }
            smt.set_origin(Some(QueryOrigin {
                constraint: ci as u32,
                label: labels[ci].clone(),
                round: 0,
                worker: 0,
            }));
            let (errs, exh) = check_obligations(genv, c, &assignment, &mut smt, incremental);
            errors.extend(errs);
            if let Some(e) = exh {
                exhaustion.get_or_insert(e);
            }
        }
    }

    stats.obligation_time = obligation_start.elapsed();
    base.fill(&obs, &mut stats);
    stats.worker_queries = vec![smt.stats.solved_queries];
    stats.worker_checks = vec![stats.iterations];
    if let Some(c) = &poison_cache {
        obs.metrics().cache_poison_recoveries.add(c.poison_recoveries());
    }
    taint_refused_unsafe(&base, &obs, &errors, &mut exhaustion);

    Solution {
        assignment,
        errors,
        stats,
        exhaustion,
    }
}

/// Counter values at solve entry: per-solve stats are reported as deltas
/// against these, so a driver-level `Obs` shared across several `verify`
/// calls (spec specialization retries the whole pipeline) still yields
/// correct per-solve numbers.
struct MetricsBaseline {
    queries: u64,
    checks: u64,
    hits: u64,
    sessions: u64,
    scoped: u64,
    refused: u64,
}

impl MetricsBaseline {
    fn capture(obs: &Obs) -> MetricsBaseline {
        let m = obs.metrics();
        MetricsBaseline {
            queries: m.smt_queries.get(),
            checks: m.smt_checks.get(),
            hits: m.smt_cache_hits.get(),
            sessions: m.smt_sessions.get(),
            scoped: m.smt_scoped_checks.get(),
            refused: m.smt_refused.get(),
        }
    }

    /// Whether any SMT query was refused (expired deadline, exhausted
    /// cap, or an injected `query-timeout`) since solve entry.
    fn any_refused(&self, obs: &Obs) -> bool {
        obs.metrics().smt_refused.get() > self.refused
    }

    /// Writes the registry deltas into `stats` — the metrics registry is
    /// the single accounting authority for query counts.
    fn fill(&self, obs: &Obs, stats: &mut SolveStats) {
        let m = obs.metrics();
        stats.smt_queries = m.smt_queries.get() - self.queries;
        stats.cache_hits = m.smt_cache_hits.get() - self.hits;
        stats.cache_lookups = m.smt_checks.get() - self.checks;
        stats.smt_sessions = m.smt_sessions.get() - self.sessions;
        stats.smt_scoped_checks = m.smt_scoped_checks.get() - self.scoped;
    }
}

/// Degrades an `Unsafe`-bound run to `Unknown` when any SMT query was
/// refused. A refused weakening query drops its qualifier — sound for
/// inference, but the resulting assignment can be strictly weaker than
/// the true fixpoint, so a failing obligation under it is not evidence
/// of a bug. A clean run is unaffected: every kept qualifier and every
/// obligation was genuinely proven, so `Safe` stands even after
/// refusals.
fn taint_refused_unsafe(
    base: &MetricsBaseline,
    obs: &Obs,
    errors: &[LiquidError],
    exhaustion: &mut Option<Exhaustion>,
) {
    if exhaustion.is_none() && !errors.is_empty() && base.any_refused(obs) {
        *exhaustion = Some(Exhaustion::with_detail(
            Phase::Fixpoint,
            Resource::SmtQueries,
            "refused SMT queries may have over-weakened the assignment; \
             failed obligations are unreliable"
                .to_string(),
        ));
    }
}

/// Appends a `(round, count)` trajectory point for `k`, seeding the
/// series with the pre-weakening count at round 0 and collapsing
/// multiple updates within one round to the last value.
fn record_trajectory(
    traj: &mut HashMap<KVar, Vec<(u64, usize)>>,
    k: KVar,
    round: u64,
    prev_len: usize,
    new_len: usize,
) {
    let points = traj.entry(k).or_insert_with(|| vec![(0, prev_len)]);
    match points.last_mut() {
        Some(last) if last.0 == round => last.1 = new_len,
        _ => points.push((round, new_len)),
    }
}

/// Renders the trajectory map as name-sorted `SolveStats` rows.
fn finish_trajectories(
    traj: HashMap<KVar, Vec<(u64, usize)>>,
) -> Vec<(String, Vec<(u64, usize)>)> {
    let mut out: Vec<(String, Vec<(u64, usize)>)> = traj
        .into_iter()
        .map(|(k, pts)| (k.to_string(), pts))
        .collect();
    out.sort();
    out
}

/// Names the κs written by constraints still pending when the fixpoint
/// was cut short. κs that changed in the current round are covered too:
/// their writers and readers are re-enqueued on every change, so the
/// pending worklist's write-set is exactly the set still in motion.
fn churn_names(subs: &[SubC], pending: impl IntoIterator<Item = usize>) -> Vec<String> {
    let mut ks: std::collections::BTreeSet<KVar> = std::collections::BTreeSet::new();
    for ci in pending {
        ks.extend(subs[ci].writes());
    }
    ks.into_iter().map(|k| k.to_string()).collect()
}

/// Folds the still-churning κ names into a fixpoint exhaustion's detail
/// text so an UNKNOWN verdict names the variables that refused to
/// converge.
fn name_churn(exhaustion: &mut Option<Exhaustion>, churning: &[String]) {
    let Some(e) = exhaustion else { return };
    if e.phase != Phase::Fixpoint || churning.is_empty() {
        return;
    }
    let shown = churning.len().min(8);
    let mut list = churning[..shown].join(", ");
    if churning.len() > shown {
        use std::fmt::Write as _;
        let _ = write!(list, " (+{} more)", churning.len() - shown);
    }
    if e.detail.is_empty() {
        e.detail = format!("still-churning: {list}");
    } else {
        e.detail = format!("{}; still-churning: {list}", e.detail);
    }
}

/// Formats one provenance label per constraint. Skipped entirely (empty
/// `Arc<str>`s) on a disabled handle so label formatting never shows up
/// in un-observed runs.
fn constraint_labels(subs: &[SubC], obs: &Obs) -> Vec<std::sync::Arc<str>> {
    if obs.enabled() {
        subs.iter()
            .map(|c| std::sync::Arc::from(c.origin.to_string().as_str()))
            .collect()
    } else {
        let empty: std::sync::Arc<str> = std::sync::Arc::from("");
        vec![empty; subs.len()]
    }
}

/// What one fixpoint worker reports back for its partition.
struct WorkerReport {
    /// Constraints checked.
    checked: u64,
    /// SMT queries this worker's solver actually solved (its private
    /// `solved_queries` counter; session/cache totals come from the
    /// metrics registry instead).
    queries: u64,
    /// `(constraint, κ, survivors)` for every weakening, in processing
    /// order. The constraint index is kept so the merge can mirror the
    /// sequential solver's re-enqueue policy.
    weakened: Vec<(usize, KVar, Vec<Pred>)>,
    /// First budget exhaustion this worker hit, if any.
    exhaustion: Option<Exhaustion>,
    /// Wall-clock time this worker spent on its partition.
    wall: Duration,
}

/// Groups a round's constraints so that any two constraints writing a
/// common κ share a partition (union–find over written κs), then bins
/// the groups onto `jobs` workers, largest first. Returns non-empty
/// partitions, each sorted by constraint index.
fn partition_round(
    round: &[usize],
    writes: &[Vec<KVar>],
    jobs: usize,
) -> Vec<Vec<usize>> {
    // Union–find over positions in `round`.
    let mut parent: Vec<usize> = (0..round.len()).collect();
    fn find(parent: &mut [usize], i: usize) -> usize {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = i;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    let mut owner: HashMap<KVar, usize> = HashMap::new();
    for (pos, &ci) in round.iter().enumerate() {
        for &k in &writes[ci] {
            match owner.get(&k) {
                None => {
                    owner.insert(k, pos);
                }
                Some(&prev) => {
                    let a = find(&mut parent, prev);
                    let b = find(&mut parent, pos);
                    if a != b {
                        // Attach the later root to the earlier one so
                        // component ids stay deterministic.
                        parent[b.max(a)] = a.min(b);
                    }
                }
            }
        }
    }
    // Components keyed by root position, in first-appearance order.
    let mut components: Vec<Vec<usize>> = Vec::new();
    let mut comp_of_root: HashMap<usize, usize> = HashMap::new();
    for (pos, &ci) in round.iter().enumerate() {
        let root = find(&mut parent, pos);
        let cix = *comp_of_root.entry(root).or_insert_with(|| {
            components.push(Vec::new());
            components.len() - 1
        });
        components[cix].push(ci);
    }
    // Longest-processing-time binning: sort components by size
    // (descending, stable), assign each to the least-loaded worker.
    let mut order: Vec<usize> = (0..components.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(components[i].len()));
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); jobs];
    let mut load = vec![0usize; jobs];
    for i in order {
        let w = (0..jobs).min_by_key(|&b| load[b]).unwrap_or(0);
        load[w] += components[i].len();
        bins[w].extend(components[i].iter().copied());
    }
    let mut out: Vec<Vec<usize>> = bins.into_iter().filter(|b| !b.is_empty()).collect();
    for b in &mut out {
        b.sort_unstable();
    }
    out
}

/// The round-based parallel solver (`--jobs > 1`). See the module docs
/// for the schedule and its soundness argument.
fn solve_parallel(
    genv: &GlobalEnv,
    kenv: &KEnv,
    subs: &[SubC],
    quals: &[Qualifier],
    config: &SolveConfig,
    jobs: usize,
) -> Solution {
    let budget = config.budget;
    let deadline = budget.deadline_from_now();
    let obs = config.obs.clone();
    let base = MetricsBaseline::capture(&obs);
    let cache = QueryCache::shared();
    if let Some(f) = &config.fault {
        if f.fire(FaultPoint::CachePoison) {
            cache.poison_all_shards();
        }
    }
    let query_counter = Arc::new(AtomicU64::new(0));
    let make_solver = || {
        let mut smt = SmtSolver::with_config(SolverConfig {
            budget,
            ..config.smt
        });
        smt.set_deadline(deadline);
        smt.share_cache(Arc::clone(&cache));
        smt.share_query_counter(Arc::clone(&query_counter));
        smt.set_obs(obs.clone());
        smt.set_fault(config.fault.clone());
        smt
    };

    let incremental = use_incremental(config);
    let mut exhaustion: Option<Exhaustion> = None;
    let fixpoint_start = Instant::now();
    let fixpoint_span = obs.phase_span(ObsPhase::Fixpoint);
    let mut stats = SolveStats {
        jobs,
        worker_queries: vec![0; jobs],
        worker_checks: vec![0; jobs],
        ..SolveStats::default()
    };
    log_info!(
        "solve[{jobs} jobs]: {} constraints, {} kvars",
        subs.len(),
        kenv.len()
    );

    let mut assignment = initial_assignment(kenv, quals, &obs, &mut stats);
    let labels = constraint_labels(subs, &obs);

    // Dependency indices.
    let mut readers: HashMap<KVar, Vec<usize>> = HashMap::new();
    for (i, c) in subs.iter().enumerate() {
        for k in c.reads() {
            readers.entry(k).or_default().push(i);
        }
    }
    let writes: Vec<Vec<KVar>> = subs.iter().map(SubC::writes).collect();

    let mut queue: Vec<usize> = (0..subs.len())
        .filter(|&i| !writes[i].is_empty())
        .collect();
    let mut queued: HashSet<usize> = queue.iter().copied().collect();
    let mut traj: HashMap<KVar, Vec<(u64, usize)>> = HashMap::new();

    while !queue.is_empty() {
        if deadline_expired(deadline) {
            exhaustion = Some(Exhaustion::new(Phase::Fixpoint, Resource::Deadline));
            stats.churning_kvars = churn_names(subs, queue.iter().copied());
            name_churn(&mut exhaustion, &stats.churning_kvars);
            break;
        }
        // Deterministic round: pending constraints in index order.
        let mut round: Vec<usize> = std::mem::take(&mut queue);
        queued.clear();
        round.sort_unstable();
        // Iteration budget: split off what exceeds the remainder (the
        // sequential solver exhausts *before* processing the first
        // over-cap constraint, so a zero remainder exhausts here too).
        // The dropped tail still feeds the churn report.
        let remaining = budget.max_fixpoint_iterations.saturating_sub(stats.iterations);
        let dropped: Vec<usize> = if (round.len() as u64) > remaining {
            round.split_off(remaining as usize)
        } else {
            Vec::new()
        };
        let over_cap = !dropped.is_empty();
        if round.is_empty() {
            exhaustion = Some(Exhaustion::with_detail(
                Phase::Fixpoint,
                Resource::FixpointIterations,
                format!("cap {}", budget.max_fixpoint_iterations),
            ));
            stats.churning_kvars = churn_names(subs, dropped);
            name_churn(&mut exhaustion, &stats.churning_kvars);
            break;
        }

        let partitions = partition_round(&round, &writes, jobs);
        stats.rounds += 1;
        obs.metrics().fixpoint_rounds.incr();
        let round_no = stats.rounds;
        stats.max_partition = stats
            .max_partition
            .max(partitions.iter().map(Vec::len).max().unwrap_or(0));
        log_info!(
            "fixpoint round {}: {} constraints in {} partitions (max {})",
            stats.rounds,
            round.len(),
            partitions.len(),
            partitions.iter().map(Vec::len).max().unwrap_or(0)
        );
        let round_span = obs.tracing().then(|| {
            obs.span("fixpoint", format!("round {round_no}"))
                .arg("constraints", round.len() as u64)
                .arg("partitions", partitions.len() as u64)
        });

        let snapshot = &assignment;
        let labels_ref = &labels;
        let obs_ref = &obs;
        let fault_ref = &config.fault;
        let reports: Vec<WorkerReport> = std::thread::scope(|s| {
            let handles: Vec<_> = partitions
                .iter()
                .enumerate()
                .map(|(w, part)| {
                    let mut smt = make_solver();
                    s.spawn(move || {
                        let started = Instant::now();
                        // Injected worker panic: worker 0 dies at the
                        // start of round `at`, exercising the quarantine
                        // path below.
                        if w == 0
                            && fault_ref
                                .as_ref()
                                .is_some_and(|f| f.fire_at(FaultPoint::WorkerPanic, round_no))
                        {
                            panic!("injected worker panic (round {round_no})");
                        }
                        let mut local: HashMap<KVar, Vec<Pred>> = HashMap::new();
                        let mut report = WorkerReport {
                            checked: 0,
                            queries: 0,
                            weakened: Vec::new(),
                            exhaustion: None,
                            wall: Duration::ZERO,
                        };
                        for &ci in part {
                            if deadline_expired(deadline) {
                                report.exhaustion = Some(Exhaustion::new(
                                    Phase::Fixpoint,
                                    Resource::Deadline,
                                ));
                                break;
                            }
                            report.checked += 1;
                            obs_ref.metrics().fixpoint_iterations.incr();
                            let view = View {
                                base: snapshot,
                                local: Some(&local),
                            };
                            smt.set_origin(Some(QueryOrigin {
                                constraint: ci as u32,
                                label: labels_ref[ci].clone(),
                                round: round_no,
                                worker: w as u32,
                            }));
                            let weakened =
                                weaken_constraint(genv, &subs[ci], &view, &mut smt, incremental);
                            for (k, kept) in weakened {
                                local.insert(k, kept.clone());
                                report.weakened.push((ci, k, kept));
                            }
                        }
                        report.queries = smt.stats.solved_queries;
                        report.wall = started.elapsed();
                        report
                    })
                })
                .collect();
            handles
                .into_iter()
                .zip(&partitions)
                .map(|(h, part)| {
                    h.join().unwrap_or_else(|_| {
                        // A worker died (injected or real): quarantine
                        // its partition. Every κ the partition writes is
                        // conservatively weakened to ⊤ — sound, since
                        // weakening is monotone — and the run is tainted
                        // so the outcome degrades to Unknown rather than
                        // claiming Safe from a partial fixpoint.
                        obs_ref.metrics().workers_quarantined.incr();
                        WorkerReport {
                            checked: 0,
                            queries: 0,
                            weakened: part
                                .iter()
                                .flat_map(|&ci| {
                                    writes[ci].iter().map(move |&k| (ci, k, Vec::new()))
                                })
                                .collect(),
                            exhaustion: Some(Exhaustion::with_detail(
                                Phase::Fixpoint,
                                Resource::Panic,
                                format!(
                                    "fixpoint worker panicked; quarantined {} constraints",
                                    part.len()
                                ),
                            )),
                            wall: Duration::ZERO,
                        }
                    })
                })
                .collect()
        });
        drop(round_span);

        // Deterministic merge: workers are ordered, partitions have
        // disjoint write-sets, and each worker reports weakenings in
        // its own processing order — so the final value of every κ is
        // unambiguous.
        for (w, report) in reports.iter().enumerate() {
            stats.iterations += report.checked;
            stats.worker_queries[w] += report.queries;
            stats.worker_checks[w] += report.checked;
            stats.partition_stats.push(PartitionStat {
                round: round_no,
                worker: w,
                constraints: report.checked,
                wall: report.wall,
            });
            if let Some(e) = &report.exhaustion {
                exhaustion.get_or_insert(e.clone());
            }
            for (ci, k, kept) in &report.weakened {
                let n = kept.len();
                let prev = assignment.insert(*k, kept.clone());
                record_trajectory(&mut traj, *k, round_no, prev.map_or(0, |v| v.len()), n);
                for &r in readers.get(k).map(Vec::as_slice).unwrap_or(&[]) {
                    if !writes[r].is_empty() && queued.insert(r) {
                        queue.push(r);
                    }
                }
                // Mirror the sequential schedule: the weakening
                // constraint itself is re-checked next round.
                if queued.insert(*ci) {
                    queue.push(*ci);
                }
            }
        }
        obs.metrics().queue_depth.set(queue.len() as i64);
        if over_cap && exhaustion.is_none() {
            exhaustion = Some(Exhaustion::with_detail(
                Phase::Fixpoint,
                Resource::FixpointIterations,
                format!("cap {}", budget.max_fixpoint_iterations),
            ));
        }
        if exhaustion.is_some() {
            stats.churning_kvars =
                churn_names(subs, queue.iter().copied().chain(dropped));
            name_churn(&mut exhaustion, &stats.churning_kvars);
            break;
        }
    }
    stats.kvar_trajectories = finish_trajectories(traj);

    stats.fixpoint_time = fixpoint_start.elapsed();
    drop(fixpoint_span);

    // Final pass: concrete right-hand conjuncts, fanned out in chunks
    // and merged back in constraint order so the error list is identical
    // to the sequential one.
    let obligation_start = Instant::now();
    let targets: Vec<usize> = (0..subs.len())
        .filter(|&i| {
            subs[i]
                .rhs
                .atoms
                .iter()
                .any(|(_, a)| matches!(a, RefAtom::Conc(_)))
        })
        .collect();
    let chunk = targets.len().div_ceil(jobs.max(1)).max(1);
    let assignment_ref = &assignment;
    let labels_ref = &labels;
    let obligation_span = obs.phase_span(ObsPhase::Obligations);
    let mut obligation_results: Vec<(usize, Vec<LiquidError>, Option<Exhaustion>)> =
        std::thread::scope(|s| {
            let handles: Vec<_> = targets
                .chunks(chunk)
                .enumerate()
                .map(|(w, part)| {
                    let mut smt = make_solver();
                    s.spawn(move || {
                        let mut out = Vec::new();
                        for &ci in part {
                            smt.set_origin(Some(QueryOrigin {
                                constraint: ci as u32,
                                label: labels_ref[ci].clone(),
                                round: 0,
                                worker: w as u32,
                            }));
                            let (errs, exh) = check_obligations(
                                genv,
                                &subs[ci],
                                assignment_ref,
                                &mut smt,
                                incremental,
                            );
                            out.push((ci, errs, exh));
                        }
                        (out, smt.stats.solved_queries)
                    })
                })
                .collect();
            let mut merged = Vec::new();
            for (w, h) in handles.into_iter().enumerate() {
                match h.join() {
                    Ok((out, queries)) => {
                        if w < stats.worker_queries.len() {
                            stats.worker_queries[w] += queries;
                        }
                        merged.extend(out);
                    }
                    Err(_) => {
                        // An obligation worker died: its chunk is
                        // unchecked, so the run cannot claim Safe —
                        // taint it and degrade to Unknown.
                        obs.metrics().workers_quarantined.incr();
                        exhaustion.get_or_insert(Exhaustion::with_detail(
                            Phase::ObligationCheck,
                            Resource::Panic,
                            "obligation worker panicked; its chunk is unchecked".to_string(),
                        ));
                    }
                }
            }
            merged
        });
    drop(obligation_span);
    obligation_results.sort_by_key(|(ci, _, _)| *ci);
    let mut errors = Vec::new();
    for (_, errs, exh) in obligation_results {
        errors.extend(errs);
        if let Some(e) = exh {
            exhaustion.get_or_insert(e);
        }
    }

    stats.obligation_time = obligation_start.elapsed();
    base.fill(&obs, &mut stats);
    obs.metrics()
        .cache_poison_recoveries
        .add(cache.poison_recoveries());
    taint_refused_unsafe(&base, &obs, &errors, &mut exhaustion);

    Solution {
        assignment,
        errors,
        stats,
        exhaustion,
    }
}

/// Checks a group of candidate qualifiers against one antecedent,
/// bisecting on failure: valid groups cost one query regardless of size.
/// Individual failures are retried against `full` (the unpruned
/// antecedent) when provided.
fn check_group(
    smt: &mut SmtSolver,
    sorts: &dsolve_logic::SortEnv,
    lhs: &Pred,
    full: Option<&Pred>,
    group: &[(Pred, Pred)],
    kept: &mut Vec<Pred>,
) {
    match group {
        [] => {}
        [(q, rhs_q)] => {
            let mut ok = smt.is_valid(sorts, lhs, rhs_q);
            if !ok {
                if let Some(full) = full {
                    if full != lhs {
                        ok = smt.is_valid(sorts, full, rhs_q);
                    }
                }
            }
            if ok {
                kept.push(q.clone());
            }
        }
        _ => {
            let all = Pred::and(group.iter().map(|(_, r)| r.clone()).collect());
            if smt.is_valid(sorts, lhs, &all) {
                kept.extend(group.iter().map(|(q, _)| q.clone()));
            } else {
                let mid = group.len() / 2;
                check_group(smt, sorts, lhs, full, &group[..mid], kept);
                check_group(smt, sorts, lhs, full, &group[mid..], kept);
            }
        }
    }
}

/// The incremental counterpart of [`check_group`]: the all-survive case
/// still costs one (cacheable) conjunction query, but a mixed group is
/// decided candidate-by-candidate in a single SMT session — the
/// antecedent is encoded once and each consequent checked under its own
/// assertion scope — instead of bisecting (which re-encodes the
/// antecedent at every split). Failures are retried against `full`, again
/// as one batch.
fn check_group_batched(
    smt: &mut SmtSolver,
    sorts: &dsolve_logic::SortEnv,
    lhs: &Pred,
    full: Option<&Pred>,
    group: &[(Pred, Pred)],
    kept: &mut Vec<Pred>,
) {
    if group.len() <= 1 {
        return check_group(smt, sorts, lhs, full, group, kept);
    }
    let all = Pred::and(group.iter().map(|(_, r)| r.clone()).collect());
    if smt.is_valid(sorts, lhs, &all) {
        kept.extend(group.iter().map(|(q, _)| q.clone()));
        return;
    }
    let rhss: Vec<Pred> = group.iter().map(|(_, r)| r.clone()).collect();
    let verdicts = smt.check_valid_many(sorts, lhs, &rhss);
    let mut failed: Vec<&(Pred, Pred)> = Vec::new();
    for (pair, v) in group.iter().zip(&verdicts) {
        if matches!(v, Validity::Valid) {
            kept.push(pair.0.clone());
        } else {
            failed.push(pair);
        }
    }
    // Pruning is a fast path, not a semantics: retry failures against
    // the unpruned antecedent before dropping a qualifier for good.
    if failed.is_empty() {
        return;
    }
    let Some(full) = full else { return };
    if full == lhs {
        return;
    }
    let retry: Vec<Pred> = failed.iter().map(|(_, r)| r.clone()).collect();
    let verdicts = smt.check_valid_many(sorts, full, &retry);
    for (pair, v) in failed.into_iter().zip(&verdicts) {
        if matches!(v, Validity::Valid) {
            kept.push(pair.0.clone());
        }
    }
}

/// Keeps the conjuncts transitively relevant to the seed variables
/// (variable-free conjuncts such as `false` are always kept).
fn prune_conjuncts(
    p: Pred,
    seeds: &mut std::collections::BTreeSet<Symbol>,
) -> Pred {
    let conjuncts = p.conjuncts();
    if conjuncts.len() <= 12 {
        return Pred::and(conjuncts);
    }
    let fvs: Vec<std::collections::BTreeSet<Symbol>> =
        conjuncts.iter().map(Pred::free_vars).collect();
    let mut keep = vec![false; conjuncts.len()];
    // Variable-free conjuncts carry reachability information (`false`).
    for (i, fv) in fvs.iter().enumerate() {
        if fv.is_empty() {
            keep[i] = true;
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for (i, fv) in fvs.iter().enumerate() {
            if keep[i] || fv.is_empty() {
                continue;
            }
            if fv.iter().any(|v| seeds.contains(v)) {
                keep[i] = true;
                seeds.extend(fv.iter().copied());
                changed = true;
            }
        }
    }
    Pred::and(
        conjuncts
            .into_iter()
            .zip(keep)
            .filter_map(|(c, k)| if k { Some(c) } else { None })
            .collect(),
    )
}

fn bind_nu(sorts: &mut dsolve_logic::SortEnv, shape: &dsolve_nanoml::MlType) {
    sorts.bind(
        Symbol::value_var(),
        crate::measure::sort_of_mltype(shape),
    );
}

fn filter_wellsorted(sorts: &dsolve_logic::SortEnv, p: Pred) -> Pred {
    Pred::and(
        p.conjuncts()
            .into_iter()
            .filter(|c| sorts.wellsorted(c))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Origin;
    use crate::env::{fresh_refinement, LiquidEnv};
    use crate::measure::MeasureEnv;
    use crate::rtype::{RType, Refinement};
    use dsolve_logic::{parse_pred, Sort, SortEnv};
    use dsolve_nanoml::{DataEnv, MlType};

    fn genv() -> GlobalEnv {
        GlobalEnv::new(DataEnv::with_builtins(), MeasureEnv::new())
    }

    fn quals() -> Vec<Qualifier> {
        vec![
            Qualifier::new("Pos", parse_pred("0 < VV").unwrap()),
            Qualifier::new("UB", parse_pred("_ <= VV").unwrap()),
        ]
    }

    fn seq_config() -> SolveConfig {
        SolveConfig {
            jobs: 1,
            ..SolveConfig::default()
        }
    }

    #[test]
    fn single_kvar_keeps_implied_qualifiers() {
        let genv = genv();
        let mut kenv = KEnv::new();
        let mut scope = SortEnv::new();
        scope.bind(Symbol::new("i"), Sort::Int);
        let r = fresh_refinement(&mut kenv, scope, &MlType::Int);
        let env = LiquidEnv::new().bind(Symbol::new("i"), RType::int());
        // {ν = i + 1} with i ≥ 1 flows into κ.
        let sub = SubC {
            env: env.bind(
                Symbol::new("i"),
                RType::int_pred(parse_pred("1 <= VV").unwrap()),
            ),
            nu_shape: MlType::Int,
            lhs: Refinement::pred(parse_pred("VV = i + 1").unwrap()),
            rhs: r.clone(),
            origin: Origin::Flow("test"),
        };
        let sol = solve(&genv, &kenv, &[sub], &quals(), &seq_config());
        assert!(sol.errors.is_empty());
        let k = r.kvars()[0];
        let p = sol.pred_of(k).to_string();
        // Both 0 < ν and i ≤ ν survive.
        assert!(p.contains("(0 < VV)"), "{p}");
        assert!(p.contains("(i <= VV)"), "{p}");
    }

    #[test]
    fn unimplied_qualifiers_are_weakened_away() {
        let genv = genv();
        let mut kenv = KEnv::new();
        let scope = SortEnv::new();
        let r = fresh_refinement(&mut kenv, scope, &MlType::Int);
        // ⊤ flows into κ: nothing survives.
        let sub = SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: Refinement::top(),
            rhs: r.clone(),
            origin: Origin::Flow("test"),
        };
        let sol = solve(&genv, &kenv, &[sub], &quals(), &seq_config());
        assert_eq!(sol.pred_of(r.kvars()[0]), Pred::True);
    }

    #[test]
    fn chained_kvars_propagate() {
        let genv = genv();
        let mut kenv = KEnv::new();
        let r1 = fresh_refinement(&mut kenv, SortEnv::new(), &MlType::Int);
        let r2 = fresh_refinement(&mut kenv, SortEnv::new(), &MlType::Int);
        // {0 < ν} <: κ1, κ1 <: κ2: both keep Pos.
        let subs = vec![
            SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: Refinement::pred(parse_pred("0 < VV && VV = 3").unwrap()),
                rhs: r1.clone(),
                origin: Origin::Flow("t"),
            },
            SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: r1.clone(),
                rhs: r2.clone(),
                origin: Origin::Flow("t"),
            },
        ];
        let sol = solve(&genv, &kenv, &subs, &quals(), &seq_config());
        assert_eq!(sol.pred_of(r2.kvars()[0]).to_string(), "(0 < VV)");
    }

    #[test]
    fn weakening_is_transitive_through_cycles() {
        // κ1 <: κ2 and κ2 <: κ1 with {0 < ν} into κ1 only via a
        // weaker source {ν = 0} — everything must drain.
        let genv = genv();
        let mut kenv = KEnv::new();
        let r1 = fresh_refinement(&mut kenv, SortEnv::new(), &MlType::Int);
        let r2 = fresh_refinement(&mut kenv, SortEnv::new(), &MlType::Int);
        let subs = vec![
            SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: Refinement::pred(parse_pred("VV = 0").unwrap()),
                rhs: r1.clone(),
                origin: Origin::Flow("t"),
            },
            SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: r1.clone(),
                rhs: r2.clone(),
                origin: Origin::Flow("t"),
            },
            SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: r2.clone(),
                rhs: r1.clone(),
                origin: Origin::Flow("t"),
            },
        ];
        let sol = solve(&genv, &kenv, &subs, &quals(), &seq_config());
        // 0 < ν does not hold of ν = 0.
        assert_eq!(sol.pred_of(r1.kvars()[0]), Pred::True);
        assert_eq!(sol.pred_of(r2.kvars()[0]), Pred::True);
    }

    #[test]
    fn concrete_obligations_reported() {
        let genv = genv();
        let kenv = KEnv::new();
        let sub = SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: Refinement::pred(parse_pred("0 <= VV").unwrap()),
            rhs: Refinement::pred(parse_pred("0 < VV").unwrap()),
            origin: Origin::Assert { line: 42 },
        };
        let sol = solve(&genv, &kenv, &[sub], &quals(), &seq_config());
        assert_eq!(sol.errors.len(), 1);
        assert!(sol.errors[0].to_string().contains("line 42"));
    }

    #[test]
    fn zero_timeout_reports_unknown_deadline_not_hang() {
        let genv = genv();
        let kenv = KEnv::new();
        let sub = SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: Refinement::pred(parse_pred("0 < VV").unwrap()),
            rhs: Refinement::pred(parse_pred("0 <= VV").unwrap()),
            origin: Origin::Assert { line: 7 },
        };
        let config = SolveConfig {
            budget: Budget::with_timeout(std::time::Duration::from_secs(0)),
            ..seq_config()
        };
        let sol = solve(&genv, &kenv, &[sub], &quals(), &config);
        let e = sol.exhaustion.as_ref().expect("exhaustion recorded");
        assert_eq!(e.resource, dsolve_logic::Resource::Deadline);
        assert!(sol.outcome().is_unknown());
        // The undecided obligation is surfaced, not silently dropped.
        assert_eq!(sol.errors.len(), 1);
        assert!(sol.errors[0].to_string().contains("unproven"), "{}", sol.errors[0]);
    }

    #[test]
    fn exhausted_fixpoint_taints_outcome() {
        let genv = genv();
        let mut kenv = KEnv::new();
        let r = fresh_refinement(&mut kenv, SortEnv::new(), &MlType::Int);
        let sub = SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: Refinement::pred(parse_pred("0 < VV").unwrap()),
            rhs: r,
            origin: Origin::Flow("t"),
        };
        let config = SolveConfig {
            budget: Budget {
                max_fixpoint_iterations: 0,
                ..Budget::default()
            },
            ..seq_config()
        };
        let sol = solve(&genv, &kenv, &[sub], &quals(), &config);
        let e = sol.exhaustion.as_ref().expect("exhaustion recorded");
        assert_eq!(e.phase, dsolve_logic::Phase::Fixpoint);
        assert_eq!(e.resource, dsolve_logic::Resource::FixpointIterations);
        // No obligation failed, yet the run must not claim Safe.
        assert!(sol.errors.is_empty());
        assert!(sol.outcome().is_unknown());
    }

    #[test]
    fn exhausted_query_budget_reports_unproven_obligation() {
        let genv = genv();
        let kenv = KEnv::new();
        let sub = SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: Refinement::pred(parse_pred("0 < VV").unwrap()),
            rhs: Refinement::pred(parse_pred("0 <= VV").unwrap()),
            origin: Origin::Assert { line: 9 },
        };
        let config = SolveConfig {
            budget: Budget {
                max_smt_queries: Some(0),
                ..Budget::default()
            },
            ..seq_config()
        };
        let sol = solve(&genv, &kenv, &[sub], &quals(), &config);
        let e = sol.exhaustion.as_ref().expect("exhaustion recorded");
        assert_eq!(e.resource, dsolve_logic::Resource::SmtQueries);
        assert!(sol.outcome().is_unknown());
    }

    #[test]
    fn concrete_obligation_uses_solved_kvars() {
        let genv = genv();
        let mut kenv = KEnv::new();
        let r = fresh_refinement(&mut kenv, SortEnv::new(), &MlType::Int);
        let subs = vec![
            SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: Refinement::pred(parse_pred("VV = 5").unwrap()),
                rhs: r.clone(),
                origin: Origin::Flow("t"),
            },
            SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: r.clone(),
                rhs: Refinement::pred(parse_pred("0 < VV").unwrap()),
                origin: Origin::Assert { line: 1 },
            },
        ];
        let sol = solve(&genv, &kenv, &subs, &quals(), &seq_config());
        assert!(sol.errors.is_empty(), "{:?}", sol.errors.first().map(|e| e.to_string()));
    }

    /// A chain/diamond of κ constraints exercising multi-round parallel
    /// weakening with cross-partition reads.
    fn diamond_case() -> (GlobalEnv, KEnv, Vec<SubC>) {
        let genv = genv();
        let mut kenv = KEnv::new();
        let mut rs = Vec::new();
        for _ in 0..6 {
            rs.push(fresh_refinement(&mut kenv, SortEnv::new(), &MlType::Int));
        }
        let mut subs = vec![SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: Refinement::pred(parse_pred("0 < VV && VV = 7").unwrap()),
            rhs: rs[0].clone(),
            origin: Origin::Flow("source"),
        }];
        // κ0 → κ1, κ0 → κ2, κ1 → κ3, κ2 → κ3, κ3 → κ4, κ4 → κ5.
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)] {
            subs.push(SubC {
                env: LiquidEnv::new(),
                nu_shape: MlType::Int,
                lhs: rs[a].clone(),
                rhs: rs[b].clone(),
                origin: Origin::Flow("edge"),
            });
        }
        // A weaker source into κ2 forces weakening down one diamond leg.
        subs.push(SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: Refinement::pred(parse_pred("VV = 0").unwrap()),
            rhs: rs[2].clone(),
            origin: Origin::Flow("weak-source"),
        });
        // A concrete obligation at the sink.
        subs.push(SubC {
            env: LiquidEnv::new(),
            nu_shape: MlType::Int,
            lhs: rs[5].clone(),
            rhs: Refinement::pred(parse_pred("0 < VV").unwrap()),
            origin: Origin::Assert { line: 99 },
        });
        (genv, kenv, subs)
    }

    #[test]
    fn parallel_matches_sequential_on_diamond() {
        let (genv, kenv, subs) = diamond_case();
        let seq = solve(&genv, &kenv, &subs, &quals(), &seq_config());
        let par = solve(
            &genv,
            &kenv,
            &subs,
            &quals(),
            &SolveConfig {
                jobs: 4,
                ..SolveConfig::default()
            },
        );
        assert_eq!(par.stats.jobs, 4);
        assert!(par.stats.rounds > 0);
        // Same assignment, same verdict, same error list.
        let dump = |s: &Solution| {
            let mut ks: Vec<_> = s.assignment.keys().copied().collect();
            ks.sort();
            ks.iter().map(|k| format!("{k}={}", s.pred_of(*k))).collect::<Vec<_>>()
        };
        assert_eq!(dump(&seq), dump(&par));
        assert_eq!(
            seq.errors.iter().map(ToString::to_string).collect::<Vec<_>>(),
            par.errors.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        assert_eq!(seq.outcome(), par.outcome());
    }

    #[test]
    fn sequential_counts_rounds_and_trajectories() {
        let (genv, kenv, subs) = diamond_case();
        let sol = solve(&genv, &kenv, &subs, &quals(), &seq_config());
        // Satellite fix: rounds are counted at --jobs 1 too.
        assert!(sol.stats.rounds > 0);
        assert!(!sol.stats.partition_stats.is_empty());
        let covered: u64 = sol.stats.partition_stats.iter().map(|p| p.constraints).sum();
        assert_eq!(covered, sol.stats.iterations);
        assert!(!sol.stats.kvar_trajectories.is_empty());
        for (k, pts) in &sol.stats.kvar_trajectories {
            assert_eq!(pts[0].0, 0, "{k} baseline is at round 0");
            for w in pts.windows(2) {
                assert!(w[0].0 < w[1].0, "{k} rounds strictly increase");
                assert!(w[0].1 >= w[1].1, "{k} weakening is monotone");
            }
        }
        // A converged run has no churn.
        assert!(sol.stats.churning_kvars.is_empty());
    }

    #[test]
    fn exhausted_fixpoint_names_churning_kvars() {
        let (genv, kenv, subs) = diamond_case();
        let config = SolveConfig {
            budget: Budget {
                max_fixpoint_iterations: 2,
                ..Budget::default()
            },
            ..seq_config()
        };
        let sol = solve(&genv, &kenv, &subs, &quals(), &config);
        let e = sol.exhaustion.as_ref().expect("exhaustion recorded");
        assert_eq!(e.resource, Resource::FixpointIterations);
        assert!(!sol.stats.churning_kvars.is_empty());
        assert!(e.detail.contains("still-churning"), "{}", e.detail);
    }

    #[test]
    fn parallel_partition_stats_cover_rounds() {
        let (genv, kenv, subs) = diamond_case();
        let par = solve(
            &genv,
            &kenv,
            &subs,
            &quals(),
            &SolveConfig {
                jobs: 4,
                ..SolveConfig::default()
            },
        );
        assert!(!par.stats.partition_stats.is_empty());
        let covered: u64 = par.stats.partition_stats.iter().map(|p| p.constraints).sum();
        assert_eq!(covered, par.stats.iterations);
        let max_round = par.stats.partition_stats.iter().map(|p| p.round).max().unwrap();
        assert_eq!(max_round, par.stats.rounds);
        assert!(!par.stats.kvar_trajectories.is_empty());
        assert!(par.stats.churning_kvars.is_empty());
    }

    #[test]
    fn partition_round_keeps_shared_writers_together() {
        // Constraints 0 and 2 write κ0; constraint 1 writes κ1.
        let k0 = KVar(0);
        let k1 = KVar(1);
        let writes = vec![vec![k0], vec![k1], vec![k0]];
        let parts = partition_round(&[0, 1, 2], &writes, 2);
        assert_eq!(parts.len(), 2);
        let with_0 = parts.iter().find(|p| p.contains(&0)).unwrap();
        assert!(with_0.contains(&2), "writers of κ0 split: {parts:?}");
        // Partitions are sorted and disjoint.
        for p in &parts {
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(*p, sorted);
        }
    }

    #[test]
    fn parallel_zero_iteration_budget_exhausts() {
        let (genv, kenv, subs) = diamond_case();
        let config = SolveConfig {
            jobs: 2,
            budget: Budget {
                max_fixpoint_iterations: 0,
                ..Budget::default()
            },
            ..SolveConfig::default()
        };
        let sol = solve(&genv, &kenv, &subs, &quals(), &config);
        let e = sol.exhaustion.as_ref().expect("exhaustion recorded");
        assert_eq!(e.resource, dsolve_logic::Resource::FixpointIterations);
        assert!(sol.outcome().is_unknown());
    }

    #[test]
    fn injected_worker_panic_degrades_sequentially() {
        let (genv, kenv, subs) = diamond_case();
        let config = SolveConfig {
            fault: Some(Arc::new(FaultPlan::parse("worker-panic@1").unwrap())),
            ..seq_config()
        };
        let sol = solve(&genv, &kenv, &subs, &quals(), &config);
        let e = sol.exhaustion.as_ref().expect("panic taints the run");
        assert_eq!(e.resource, Resource::Panic);
        assert_eq!(e.phase, Phase::Fixpoint);
        // The run degrades to Unknown — never a flipped definite verdict.
        assert!(sol.outcome().is_unknown());
        assert!(config.obs.metrics().workers_quarantined.get() >= 1);
    }

    #[test]
    fn injected_worker_panic_quarantines_parallel_partition() {
        let (genv, kenv, subs) = diamond_case();
        let config = SolveConfig {
            jobs: 4,
            fault: Some(Arc::new(FaultPlan::parse("worker-panic@1").unwrap())),
            ..SolveConfig::default()
        };
        let sol = solve(&genv, &kenv, &subs, &quals(), &config);
        let e = sol.exhaustion.as_ref().expect("panic taints the run");
        assert_eq!(e.resource, Resource::Panic);
        assert!(sol.outcome().is_unknown());
        assert!(config.obs.metrics().workers_quarantined.get() >= 1);
    }

    #[test]
    fn injected_cache_poison_is_recovered_transparently() {
        let (genv, kenv, subs) = diamond_case();
        let clean = solve(&genv, &kenv, &subs, &quals(), &seq_config());
        let config = SolveConfig {
            jobs: 2,
            fault: Some(Arc::new(FaultPlan::parse("cache-poison").unwrap())),
            ..SolveConfig::default()
        };
        let sol = solve(&genv, &kenv, &subs, &quals(), &config);
        // Poisoned shards recover; the verdict is unchanged.
        assert_eq!(sol.outcome(), clean.outcome());
        assert!(config.obs.metrics().cache_poison_recoveries.get() >= 1);
    }

    #[test]
    fn parallel_query_cap_is_global_across_workers() {
        let (genv, kenv, subs) = diamond_case();
        let config = SolveConfig {
            jobs: 4,
            budget: Budget {
                max_smt_queries: Some(3),
                ..Budget::default()
            },
            ..SolveConfig::default()
        };
        let sol = solve(&genv, &kenv, &subs, &quals(), &config);
        // The cap covers the sum across workers (a per-worker cap of 3
        // would allow 12 solves). Only solved queries charge the cap —
        // cache hits are free — so depending on what the shared cache
        // holds when the cap trips, the sink obligation is either left
        // undecided (Unknown tainted by the query cap) or refuted
        // against the over-weakened assignment (Unsafe). It can never
        // be proven Safe on 3 queries.
        match sol.outcome() {
            Outcome::Safe => panic!("3 queries cannot prove the diamond safe"),
            Outcome::Unknown(e) => {
                assert_eq!(e.resource, dsolve_logic::Resource::SmtQueries);
            }
            Outcome::Unsafe => assert!(!sol.errors.is_empty()),
        }
    }
}
