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
//! # Schedule
//!
//! One driver runs the fixpoint at every worker count, in *rounds*. A
//! round is the whole worklist in the order it was queued (FIFO), split
//! into at most `jobs` slices with disjoint **write** κ-sets
//! (constraints writing a common κ share a slice), each in round order.
//! A round with one slice — every round at `--jobs 1` — is checked on
//! the calling thread, weakening the assignment in place. Several slices
//! are checked on worker threads, each against the round's snapshot
//! under a private overlay of its own weakenings, and merged afterwards
//! in worker order.
//!
//! After a worker weakens `κ`, it queues each reader of `κ` for the next
//! round, except a reader still ahead of it in its own slice: that one
//! reads the new list when its turn comes. It then queues the weakening
//! constraint itself, and the merge appends each worker's queue in
//! worker order, every constraint once. At one worker this is exactly a
//! FIFO worklist, and a round is one breadth-first level of it. Reads
//! across slices may see one-round-stale values; that is ordinary
//! chaotic iteration of a monotone operator — every constraint reading a
//! changed κ is checked again — so every schedule converges to the same
//! greatest fixpoint.
//!
//! All solvers of a run share one [`QueryCache`] and one atomic query
//! counter, so `--max-smt-queries` caps the *total* across workers.

use crate::constraint::{LiquidError, SubC};
use crate::embed::{EmbedCache, View};
use crate::env::{GlobalEnv, KEnv};
use crate::rtype::{KVar, RefAtom};
use dsolve_logic::{
    deadline_expired, Budget, Exhaustion, FaultPlan, FaultPoint, Instantiator, Outcome, Phase,
    Pred, Qualifier, Resource, Symbol,
};
use dsolve_obs::{log_debug, log_info, Obs, ObsPhase, QueryOrigin};
use dsolve_smt::{QueryCache, SmtSolver, SolverConfig, Validity};
use std::cell::LazyCell;
use std::collections::{BTreeSet, HashMap, HashSet};
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
    /// Fixpoint iterations (constraint re-checks).
    pub iterations: u64,
    /// Wall-clock time spent in the weakening fixpoint.
    pub fixpoint_time: Duration,
    /// Wall-clock time spent checking concrete obligations.
    pub obligation_time: Duration,
    /// Fixpoint workers (1 = every round on the calling thread).
    pub jobs: usize,
    /// Fixpoint rounds: each one the whole worklist, in queue order (0
    /// when no constraint was ever queued).
    pub rounds: u64,
    /// Constraints in the largest single partition of any round.
    pub max_partition: usize,
    /// SMT queries solved per worker (index = worker id). They sum to
    /// the job registry's `smt_queries`, which holds the run's total
    /// along with its cache and session counts.
    pub worker_queries: Vec<u64>,
    /// Constraint checks per worker (aggregate partition sizes).
    pub worker_checks: Vec<u64>,
    /// Per-round, per-partition fixpoint work (one partition per round
    /// at `--jobs 1`).
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
    /// Environment nodes concretized into the embedding cache: each
    /// node's first embedding, plus one rebuild whenever a κ list it
    /// reads has shrunk since.
    pub embed_nodes_built: u64,
    /// Environment node embeddings served from the cache unchanged.
    pub embed_nodes_reused: u64,
    /// The most nodes the embedding caches could have had to build: one
    /// per distinct node per cache, plus one per shrink of each κ the
    /// node reads. `embed_nodes_built` never exceeds it.
    pub embed_nodes_bound: u64,
}

/// One partition's share of one fixpoint round: how many constraints a
/// worker checked and how long that took wall-clock.
#[derive(Clone, Debug)]
pub struct PartitionStat {
    /// 1-based fixpoint round.
    pub round: u64,
    /// Worker index within the round (always 0 at `--jobs 1`).
    pub worker: usize,
    /// Constraints checked in this partition.
    pub constraints: u64,
    /// Wall-clock time spent on this partition.
    pub wall: Duration,
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
    /// SMT configuration: query caching, array axioms, certification.
    pub smt: SolverConfig,
    /// Resource limits for the whole run (deadline, query cap, fixpoint
    /// iteration cap, per-query search caps), the SMT solvers' included.
    pub budget: Budget,
    /// Fixpoint workers: `0` = one per available CPU, `n` = at most `n`
    /// slices per round (`1` runs every round on the calling thread).
    pub jobs: usize,
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

/// Resolves `config.jobs` (`0` = available parallelism).
pub fn effective_jobs(config: &SolveConfig) -> usize {
    match config.jobs {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Runs the iterative-weakening fixpoint, then checks the concrete
/// obligations under its assignment. See the module docs for the
/// schedule.
pub fn solve(
    genv: &GlobalEnv,
    kenv: &KEnv,
    subs: &[SubC],
    quals: &[Qualifier],
    config: &SolveConfig,
) -> Solution {
    let jobs = effective_jobs(config);
    let budget = config.budget;
    let deadline = budget.deadline_from_now();
    let obs = config.obs.clone();
    let refused_at_entry = obs.metrics().smt_refused.get();
    let unknown_at_entry = obs.metrics().smt_unknown.get();
    let query_cache = QueryCache::shared();
    if config
        .fault
        .as_ref()
        .is_some_and(|f| f.fire(FaultPoint::CachePoison))
    {
        query_cache.poison_all_shards();
    }
    let query_counter = Arc::new(AtomicU64::new(0));
    let mut slots: Vec<Slot> = (0..jobs)
        .map(|id| {
            let mut smt = SmtSolver::with_config(config.smt, budget);
            // Pin the absolute deadline so the SMT clock does not restart
            // at the first query.
            smt.set_deadline(deadline);
            smt.share_cache(Arc::clone(&query_cache));
            smt.share_query_counter(Arc::clone(&query_counter));
            smt.set_obs(obs.clone());
            smt.set_fault(config.fault.clone());
            Slot {
                id,
                smt,
                cache: EmbedCache::default(),
            }
        })
        .collect();

    let fixpoint_start = Instant::now();
    let fixpoint_span = obs.phase_span(ObsPhase::Fixpoint);
    let mut stats = SolveStats {
        jobs,
        worker_checks: vec![0; jobs],
        ..SolveStats::default()
    };
    log_info!(
        "solve: {} constraints, {} kvars, {jobs} jobs",
        subs.len(),
        kenv.len()
    );
    let mut fix = Fixpoint {
        assignment: initial_assignment(kenv, quals, &obs, &mut stats),
        shrinks: HashMap::new(),
        traj: HashMap::new(),
    };
    log_info!("solve: initial quals = {}", stats.initial_quals);

    let writes: Vec<Vec<KVar>> = subs.iter().map(SubC::writes).collect();
    // Dependency index: κ → the constraints that read it and write a κ.
    let mut readers: HashMap<KVar, Vec<usize>> = HashMap::new();
    for (i, c) in subs.iter().enumerate() {
        if !writes[i].is_empty() {
            for k in c.reads() {
                readers.entry(k).or_default().push(i);
            }
        }
    }
    let labels = constraint_labels(subs, &obs);
    let ctx = Ctx {
        genv,
        subs,
        writes: &writes,
        readers: &readers,
        labels: &labels,
        obs: &obs,
        fault: config.fault.as_deref(),
        deadline,
    };

    // Round 1: every constraint with a κ on the right, in index order.
    let mut queue: Vec<usize> = (0..subs.len()).filter(|&i| !writes[i].is_empty()).collect();
    let mut queued = vec![false; subs.len()];
    // What a round cut short left unchecked; the fixpoint stops there.
    let mut unchecked: Vec<usize> = Vec::new();
    let mut exhaustion: Option<Exhaustion> = None;
    while !queue.is_empty() && unchecked.is_empty() {
        if deadline_expired(deadline) {
            exhaustion = Some(Exhaustion::new(Phase::Fixpoint, Resource::Deadline));
            break;
        }
        let mut round = std::mem::take(&mut queue);
        for &ci in &round {
            queued[ci] = false;
        }
        let left = budget
            .max_fixpoint_iterations
            .saturating_sub(stats.iterations);
        if round.len() as u64 > left {
            unchecked = round.split_off(left as usize);
            exhaustion.get_or_insert(Exhaustion::with_detail(
                Phase::Fixpoint,
                Resource::FixpointIterations,
                format!("cap {}", budget.max_fixpoint_iterations),
            ));
            if round.is_empty() {
                break;
            }
        }
        stats.rounds += 1;
        obs.metrics().fixpoint_rounds.incr();
        let round_no = stats.rounds;
        let size = round.len();
        let slices = partition_round(round, &writes, jobs);
        let largest = slices.iter().map(Vec::len).max().unwrap_or(0);
        stats.max_partition = stats.max_partition.max(largest);
        log_info!(
            "fixpoint round {round_no}: {size} constraints in {} partitions (max {largest})",
            slices.len()
        );
        let round_span = obs.tracing().then(|| {
            obs.span("fixpoint", format!("round {round_no}"))
                .arg("constraints", size as u64)
                .arg("partitions", slices.len() as u64)
        });
        let reports: Vec<SliceReport> = if let [slice] = slices.as_slice() {
            let store = Store::InPlace(&mut fix);
            vec![check_slice(&ctx, round_no, &mut slots[0], slice, store)]
        } else {
            let snapshot = &fix.assignment;
            let ctx = &ctx;
            std::thread::scope(|s| {
                let handles: Vec<_> = slots
                    .iter_mut()
                    .zip(&slices)
                    .map(|(slot, slice)| {
                        s.spawn(move || {
                            let store = Store::Overlay(snapshot, HashMap::new());
                            check_slice(ctx, round_no, slot, slice, store)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .zip(&slices)
                    .map(|(h, slice)| {
                        h.join().unwrap_or_else(|_| {
                            // The worker died outside a check: every κ its
                            // slice writes is weakened to ⊤ (sound, since
                            // weakening is monotone), and the unchecked
                            // slice stops the fixpoint.
                            obs.metrics().workers_quarantined.incr();
                            SliceReport {
                                weakened: slice
                                    .iter()
                                    .flat_map(|&ci| &writes[ci])
                                    .map(|&k| (k, Vec::new()))
                                    .collect(),
                                exhaustion: Some(Exhaustion::with_detail(
                                    Phase::Fixpoint,
                                    Resource::Panic,
                                    format!(
                                        "fixpoint worker panicked; quarantined {} constraints",
                                        slice.len()
                                    ),
                                )),
                                ..SliceReport::default()
                            }
                        })
                    })
                    .collect()
            })
        };
        drop(round_span);

        // Merge in worker order. Slices write disjoint κs, so the final
        // value of every κ is unambiguous.
        for (w, (report, slice)) in reports.into_iter().zip(&slices).enumerate() {
            stats.iterations += report.checked as u64;
            stats.worker_checks[w] += report.checked as u64;
            stats.partition_stats.push(PartitionStat {
                round: round_no,
                worker: w,
                constraints: report.checked as u64,
                wall: report.wall,
            });
            if let Some(e) = report.exhaustion {
                exhaustion.get_or_insert(e);
            }
            for (k, kept) in report.weakened {
                fix.weaken(k, kept, round_no);
            }
            unchecked.extend_from_slice(&slice[report.checked..]);
            for ci in report.requeue {
                if !std::mem::replace(&mut queued[ci], true) {
                    queue.push(ci);
                }
            }
        }
    }
    stats.kvar_trajectories = finish_trajectories(std::mem::take(&mut fix.traj));
    if exhaustion.is_some() {
        stats.churning_kvars = churn_names(subs, queue.iter().chain(&unchecked).copied());
        name_churn(&mut exhaustion, &stats.churning_kvars);
    }
    stats.fixpoint_time = fixpoint_start.elapsed();
    drop(fixpoint_span);

    // Final pass: the concrete right sides, split over up to `jobs`
    // chunks of consecutive constraints, merged back in chunk order.
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
    let chunks: Vec<&[usize]> = targets
        .chunks(targets.len().div_ceil(jobs).max(1))
        .collect();
    let assignment = &fix.assignment;
    let obligation_span = obs.phase_span(ObsPhase::Obligations);
    let results: Vec<Option<ChunkResult>> = if chunks.len() <= 1 {
        vec![Some(check_chunk(&ctx, &mut slots[0], &targets, assignment))]
    } else {
        let ctx = &ctx;
        std::thread::scope(|s| {
            let handles: Vec<_> = slots
                .iter_mut()
                .zip(chunks)
                .map(|(slot, chunk)| s.spawn(move || check_chunk(ctx, slot, chunk, assignment)))
                .collect();
            handles.into_iter().map(|h| h.join().ok()).collect()
        })
    };
    drop(obligation_span);
    let mut errors = Vec::new();
    for result in results {
        let Some((errs, exh)) = result else {
            // An obligation worker died: its chunk is unchecked, so the
            // run cannot claim Safe.
            obs.metrics().workers_quarantined.incr();
            exhaustion.get_or_insert(Exhaustion::with_detail(
                Phase::ObligationCheck,
                Resource::Panic,
                "obligation worker panicked; its chunk is unchecked".to_string(),
            ));
            continue;
        };
        errors.extend(errs);
        if let Some(e) = exh {
            exhaustion.get_or_insert(e);
        }
    }

    stats.obligation_time = obligation_start.elapsed();
    stats.worker_queries = slots.iter().map(|s| s.smt.solved_queries()).collect();
    for slot in &slots {
        stats.embed_nodes_built += slot.cache.built;
        stats.embed_nodes_reused += slot.cache.reused;
        stats.embed_nodes_bound += slot.cache.build_bound(&fix.shrinks);
    }
    obs.metrics()
        .cache_poison_recoveries
        .add(query_cache.poison_recoveries());
    let refused = obs.metrics().smt_refused.get() > refused_at_entry;
    let undecided = obs.metrics().smt_unknown.get() - unknown_at_entry;
    let first_undecided = slots.iter().find_map(|s| s.smt.first_unknown());
    taint_unreliable_unsafe(
        refused,
        undecided,
        first_undecided,
        &errors,
        &mut exhaustion,
    );

    Solution {
        assignment: fix.assignment,
        errors,
        stats,
        exhaustion,
    }
}

/// One worker's SMT solver and embedding cache, kept across rounds and
/// into the obligation pass. A cache's stamps hold against the single,
/// shrink-only history its worker sees: the merged assignment plus the
/// worker's own weakenings.
struct Slot<'s> {
    /// Worker index (provenance, fault injection).
    id: usize,
    smt: SmtSolver,
    cache: EmbedCache<'s>,
}

/// What every worker reads: the constraints, their dependency index,
/// and the run's settings.
struct Ctx<'a, 's> {
    genv: &'a GlobalEnv,
    subs: &'s [SubC],
    /// The κs each constraint writes.
    writes: &'a [Vec<KVar>],
    /// κ → the constraints that read it and write a κ.
    readers: &'a HashMap<KVar, Vec<usize>>,
    /// Provenance label per constraint.
    labels: &'a [Arc<str>],
    obs: &'a Obs,
    fault: Option<&'a FaultPlan>,
    deadline: Option<Instant>,
}

/// The assignment, with the history the embedding caches' bound and the
/// convergence telemetry read.
struct Fixpoint {
    assignment: HashMap<KVar, Vec<Pred>>,
    /// How many times each κ's list shrank.
    shrinks: HashMap<KVar, u64>,
    /// `(round, count)` points per weakened κ.
    traj: HashMap<KVar, Vec<(u64, usize)>>,
}

impl Fixpoint {
    /// Replaces `k`'s list by `kept` in `round`. A list only ever
    /// shrinks, or is emptied again by quarantine: the embedding caches'
    /// stamps rely on that. `k`'s trajectory starts at its old count at
    /// round 0, and updates within one round collapse to the last.
    fn weaken(&mut self, k: KVar, kept: Vec<Pred>, round: u64) {
        let n = kept.len();
        let prev = self.assignment.insert(k, kept).map_or(0, |v| v.len());
        debug_assert!(
            n < prev || n == 0 && prev == 0,
            "{k}'s list must shrink or stay empty, not go from {prev} to {n}"
        );
        if n < prev {
            *self.shrinks.entry(k).or_default() += 1;
        }
        let points = self.traj.entry(k).or_insert_with(|| vec![(0, prev)]);
        match points.last_mut() {
            Some(last) if last.0 == round => last.1 = n,
            _ => points.push((round, n)),
        }
    }
}

/// Where a worker reads the assignment and puts its weakenings.
enum Store<'a> {
    /// The round's only slice weakens the assignment in place.
    InPlace(&'a mut Fixpoint),
    /// One slice of several reads the round's snapshot under a private
    /// overlay of its own weakenings; the merge applies them afterwards.
    Overlay(&'a HashMap<KVar, Vec<Pred>>, HashMap<KVar, Vec<Pred>>),
}

impl Store<'_> {
    fn view(&self) -> View<'_> {
        match self {
            Store::InPlace(fix) => View {
                base: &fix.assignment,
                local: None,
            },
            Store::Overlay(base, local) => View {
                base,
                local: Some(local),
            },
        }
    }
}

/// What one worker reports for its slice of a round.
#[derive(Default)]
struct SliceReport {
    /// Constraints checked: a prefix of the slice, short of all of it
    /// only when the deadline expired.
    checked: usize,
    /// `(κ, survivors)` per overlay weakening, in order, for the merge to
    /// apply (empty when the worker weakened in place).
    weakened: Vec<(KVar, Vec<Pred>)>,
    /// Constraints to check next round, in the order they were queued.
    requeue: Vec<usize>,
    /// The first deadline expiry or quarantine.
    exhaustion: Option<Exhaustion>,
    /// Wall-clock time spent on the slice.
    wall: Duration,
}

/// Checks one slice of a round in order, weakening through `store`, and
/// queues what the weakenings may have falsified.
fn check_slice<'s>(
    ctx: &Ctx<'_, 's>,
    round: u64,
    slot: &mut Slot<'s>,
    slice: &[usize],
    mut store: Store<'_>,
) -> SliceReport {
    let started = Instant::now();
    let mut report = SliceReport::default();
    // Queued and not yet checked: the rest of the slice, then what this
    // worker queued for the next round.
    let mut pending: HashSet<usize> = slice.iter().copied().collect();
    for &ci in slice {
        if deadline_expired(ctx.deadline) {
            report.exhaustion = Some(Exhaustion::new(Phase::Fixpoint, Resource::Deadline));
            break;
        }
        pending.remove(&ci);
        // Injected worker panic: worker 0's first check of round `at`,
        // quarantined like a real one.
        let inject = slot.id == 0
            && report.checked == 0
            && ctx
                .fault
                .is_some_and(|f| f.fire_at(FaultPoint::WorkerPanic, round));
        report.checked += 1;
        ctx.obs.metrics().fixpoint_iterations.incr();
        slot.smt.set_origin(Some(QueryOrigin {
            constraint: ci as u32,
            label: ctx.labels[ci].clone(),
            round,
            worker: slot.id as u32,
        }));
        let view = store.view();
        let checked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if inject {
                panic!("injected worker panic (round {round})");
            }
            let c = &ctx.subs[ci];
            weaken_constraint(ctx.genv, c, &view, &mut slot.cache, &mut slot.smt)
        }));
        let weakened = checked.unwrap_or_else(|_| {
            // Quarantine: weaken every κ this constraint writes to ⊤
            // (sound, since weakening is monotone) and taint the run. The
            // solver stays: an SMT session lives only inside one call.
            ctx.obs.metrics().workers_quarantined.incr();
            report.exhaustion.get_or_insert_with(|| {
                Exhaustion::with_detail(
                    Phase::Fixpoint,
                    Resource::Panic,
                    format!(
                        "constraint check panicked at [{}]; its κs weakened to true",
                        ctx.subs[ci].origin
                    ),
                )
            });
            ctx.writes[ci].iter().map(|&k| (k, Vec::new())).collect()
        });
        for (k, kept) in weakened {
            match &mut store {
                Store::InPlace(fix) => fix.weaken(k, kept, round),
                Store::Overlay(_, local) => {
                    local.insert(k, kept.clone());
                    report.weakened.push((k, kept));
                }
            }
            // A reader still ahead in this slice reads the new list when
            // its turn comes; every other reader is checked next round,
            // and so is this constraint.
            for &r in ctx.readers.get(&k).map_or(&[][..], Vec::as_slice) {
                if pending.insert(r) {
                    report.requeue.push(r);
                }
            }
            if pending.insert(ci) {
                report.requeue.push(ci);
            }
        }
    }
    report.wall = started.elapsed();
    report
}

/// The errors of one obligation chunk, and its first exhaustion.
type ChunkResult = (Vec<LiquidError>, Option<Exhaustion>);

/// Checks the concrete obligations of `targets`, in order, on one
/// worker's solver and embedding cache.
fn check_chunk<'s>(
    ctx: &Ctx<'_, 's>,
    slot: &mut Slot<'s>,
    targets: &[usize],
    assignment: &HashMap<KVar, Vec<Pred>>,
) -> ChunkResult {
    let mut errors = Vec::new();
    let mut exhaustion = None;
    for &ci in targets {
        slot.smt.set_origin(Some(QueryOrigin {
            constraint: ci as u32,
            label: ctx.labels[ci].clone(),
            round: 0,
            worker: slot.id as u32,
        }));
        let c = &ctx.subs[ci];
        let (errs, exh) =
            check_obligations(ctx.genv, c, assignment, &mut slot.cache, &mut slot.smt);
        errors.extend(errs);
        if let Some(e) = exh {
            exhaustion.get_or_insert(e);
        }
    }
    (errors, exhaustion)
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

/// Checks one constraint, weakening the κs on its right side. Returns
/// `(κ, survivors)`, once per κ, for every κ whose candidate set shrank.
///
/// Query accounting happens inside the SMT solver (the job's metrics
/// registry, plus each solver's own `solved_queries`).
fn weaken_constraint<'s>(
    genv: &GlobalEnv,
    c: &'s SubC,
    view: &View<'_>,
    cache: &mut EmbedCache<'s>,
    smt: &mut SmtSolver,
) -> Vec<(KVar, Vec<Pred>)> {
    let emb = cache.embed(genv, c, view);
    let (sorts, lhs) = (&emb.sorts, &emb.lhs);
    let lhs_vars = lhs.free_vars();
    // Pruning is a fast path, not a semantics: failures are retried
    // against the full antecedent before a qualifier is dropped for good.
    // Most checks never retry, so it is built on first use.
    let lhs_unpruned = LazyCell::new(|| Pred::and(vec![emb.antecedent(), lhs.clone()]));

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
        let mut seeds: BTreeSet<Symbol> = lhs_vars.clone();
        for p in &rhs_preds {
            seeds.extend(p.free_vars());
        }
        let lhs_full = Pred::and(vec![emb.pruned(&mut seeds), lhs.clone()]);
        let lhs_conjuncts: HashSet<&Pred> = conjuncts(&lhs_full).iter().collect();
        // Partition the candidates: syntactic hits, ill-sorted
        // transports, and the rest — checked as one group (most
        // candidates survive most checks, so testing the whole
        // conjunction first usually costs a single query).
        let mut kept = Vec::with_capacity(quals_k.len());
        let mut to_check: Vec<(Pred, Pred)> = Vec::new();
        for (q, rhs_q) in quals_k.iter().zip(rhs_preds) {
            if lhs_conjuncts.contains(&rhs_q) {
                kept.push(q.clone());
            } else if sorts.wellsorted(&rhs_q) {
                to_check.push((q.clone(), rhs_q));
            }
        }
        check_group(smt, sorts, &lhs_full, &lhs_unpruned, &to_check, &mut kept);
        if kept.len() < quals_k.len() {
            if dsolve_obs::log::enabled(dsolve_obs::log::Level::Debug) {
                let removed: Vec<String> = quals_k
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
            // A κ under two substitutions is checked twice against the
            // same list; the last atom's survivors win, and the re-check
            // of this constraint drops what the other atom refuted.
            match weakened.iter_mut().find(|(w, _)| w == k) {
                Some(slot) => slot.1 = kept,
                None => weakened.push((*k, kept)),
            }
        }
    }
    weakened
}

/// The conjuncts of `p` (a non-conjunction is a singleton).
fn conjuncts(p: &Pred) -> &[Pred] {
    match p {
        Pred::And(ps) => ps,
        Pred::True => &[],
        p => std::slice::from_ref(p),
    }
}

/// Checks the concrete right-hand conjuncts of one constraint under the
/// final assignment. Returns the errors and the first exhaustion hit.
fn check_obligations<'s>(
    genv: &GlobalEnv,
    c: &'s SubC,
    assignment: &HashMap<KVar, Vec<Pred>>,
    cache: &mut EmbedCache<'s>,
    smt: &mut SmtSolver,
) -> (Vec<LiquidError>, Option<Exhaustion>) {
    let mut errors = Vec::new();
    let mut exhaustion: Option<Exhaustion> = None;
    let view = View {
        base: assignment,
        local: None,
    };
    let emb = cache.embed(genv, c, &view);
    let sorts = &emb.sorts;
    let lhs_full = Pred::and(vec![emb.antecedent(), emb.lhs.clone()]);
    // Collect the concrete conjuncts first so several can be decided in
    // one session (the antecedent is encoded once); errors are still
    // emitted in atom order.
    let mut obligations: Vec<(Pred, bool)> = Vec::new();
    for (theta, atom) in &c.rhs.atoms {
        let RefAtom::Conc(p) = atom else { continue };
        let rhs = theta.apply_pred(p);
        let wellsorted = sorts.wellsorted(&rhs);
        obligations.push((rhs, wellsorted));
    }
    let rhss: Vec<Pred> = obligations
        .iter()
        .filter(|(_, ws)| *ws)
        .map(|(rhs, _)| rhs.clone())
        .collect();
    let mut verdicts = smt.check_valid_many(sorts, &lhs_full, &rhss).into_iter();
    for (rhs, wellsorted) in obligations {
        if !wellsorted {
            errors.push(LiquidError {
                msg: format!("obligation `{rhs}` is ill-sorted"),
                origin: Some(c.origin.clone()),
            });
            continue;
        }
        match verdicts
            .next()
            .expect("a verdict per well-sorted obligation")
        {
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

/// Degrades an `Unsafe`-bound run to `Unknown` when any SMT query was
/// `refused` (expired deadline, exhausted cap, or an injected
/// `query-timeout`) or solved but `undecided` (it came back `Unknown`,
/// e.g. under the saturation-lemma cap). Either kind of weakening query
/// drops its qualifier — sound for inference, but the resulting
/// assignment can be strictly weaker than the true fixpoint, so a
/// failing obligation under it is not evidence of a bug. An undecided
/// run names the resource of its first undecided query. A clean run is
/// unaffected: every kept qualifier and every obligation was genuinely
/// proven, so `Safe` stands even after refusals.
fn taint_unreliable_unsafe(
    refused: bool,
    undecided: u64,
    first_undecided: Option<&Exhaustion>,
    errors: &[LiquidError],
    exhaustion: &mut Option<Exhaustion>,
) {
    if exhaustion.is_some() || errors.is_empty() {
        return;
    }
    if refused {
        *exhaustion = Some(Exhaustion::with_detail(
            Phase::Fixpoint,
            Resource::SmtQueries,
            "refused SMT queries may have over-weakened the assignment; \
             failed obligations are unreliable"
                .to_string(),
        ));
    } else if let Some(first) = first_undecided.filter(|_| undecided > 0) {
        *exhaustion = Some(Exhaustion::with_detail(
            Phase::Fixpoint,
            first.resource,
            format!(
                "{undecided} undecided SMT queries may have over-weakened the \
                 assignment; failed obligations are unreliable (first: {first})"
            ),
        ));
    }
}

/// Renders the trajectory map as name-sorted `SolveStats` rows.
fn finish_trajectories(traj: HashMap<KVar, Vec<(u64, usize)>>) -> Vec<(String, Vec<(u64, usize)>)> {
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

/// Splits a round into at most `jobs` slices such that constraints
/// writing a common κ share a slice (union–find over written κs), and
/// bins the groups, largest first, onto the least-loaded slice. Every
/// slice keeps the round's order; empty slices are dropped.
fn partition_round(round: Vec<usize>, writes: &[Vec<KVar>], jobs: usize) -> Vec<Vec<usize>> {
    if jobs <= 1 {
        // One bin holds every group: the round itself.
        return vec![round];
    }
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
    // Components of positions keyed by root, in first-appearance order.
    let mut components: Vec<Vec<usize>> = Vec::new();
    let mut comp_of_root: HashMap<usize, usize> = HashMap::new();
    for pos in 0..round.len() {
        let root = find(&mut parent, pos);
        let cix = *comp_of_root.entry(root).or_insert_with(|| {
            components.push(Vec::new());
            components.len() - 1
        });
        components[cix].push(pos);
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
    bins.into_iter()
        .filter(|b| !b.is_empty())
        .map(|mut b| {
            b.sort_unstable();
            b.into_iter().map(|pos| round[pos]).collect()
        })
        .collect()
}

/// Checks a group of candidate qualifiers against one antecedent,
/// keeping the survivors. Two or more candidates first try their
/// conjunction: one (cacheable) query settles the common all-survive
/// case. Otherwise the group is one batch
/// ([`SmtSolver::check_valid_many`]). Pruning is a fast path, not a
/// semantics: the failures are retried as one batch against `full` (the
/// unpruned antecedent, forced only then) before a qualifier is dropped
/// for good.
fn check_group(
    smt: &mut SmtSolver,
    sorts: &dsolve_logic::SortEnv,
    lhs: &Pred,
    full: &LazyCell<Pred, impl FnOnce() -> Pred>,
    group: &[(Pred, Pred)],
    kept: &mut Vec<Pred>,
) {
    if group.len() > 1 {
        let all = Pred::and(group.iter().map(|(_, r)| r.clone()).collect());
        if smt.is_valid(sorts, lhs, &all) {
            kept.extend(group.iter().map(|(q, _)| q.clone()));
            return;
        }
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
    if failed.is_empty() {
        return;
    }
    let full: &Pred = full;
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
        assert!(
            sol.errors[0].to_string().contains("unproven"),
            "{}",
            sol.errors[0]
        );
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
    fn undecided_weakening_taints_unsafe_to_unknown() {
        // κ's candidate `0 < VV` is not implied, but under a zero lemma
        // budget saturation of the set facts is truncated, so its query
        // comes back Unknown rather than refuted. The obligation then
        // fails under the weakened κ: the verdict must not be a definite
        // UNSAFE.
        let genv = genv();
        let mut kenv = KEnv::new();
        let mut scope = SortEnv::new();
        scope.bind(Symbol::new("y"), Sort::Int);
        let r = fresh_refinement(&mut kenv, scope, &MlType::Int);
        let env = LiquidEnv::new().bind(Symbol::new("y"), RType::int());
        let subs = vec![
            SubC {
                env: env.clone(),
                nu_shape: MlType::Int,
                lhs: Refinement::pred(
                    parse_pred("0 <= VV && single(VV) = single(y) && union(single(VV), single(y)) != empty")
                        .unwrap(),
                ),
                rhs: r.clone(),
                origin: Origin::Flow("t"),
            },
            SubC {
                env,
                nu_shape: MlType::Int,
                lhs: r,
                rhs: Refinement::pred(parse_pred("0 < VV").unwrap()),
                origin: Origin::Assert { line: 3 },
            },
        ];
        let sol = solve(&genv, &kenv, &subs, &quals(), &seq_config());
        assert_eq!(
            sol.outcome(),
            Outcome::Unsafe,
            "the obligation is refuted with saturation"
        );
        let config = SolveConfig {
            budget: Budget {
                max_saturation_lemmas: 0,
                ..Budget::default()
            },
            ..seq_config()
        };
        let sol = solve(&genv, &kenv, &subs, &quals(), &config);
        assert_eq!(sol.errors.len(), 1);
        assert!(config.obs.metrics().smt_unknown.get() > 0);
        match sol.outcome() {
            Outcome::Unknown(e) => {
                assert_eq!(e.resource, dsolve_logic::Resource::SaturationLemmas, "{e}");
            }
            other => panic!("expected UNKNOWN, got {other:?}"),
        }
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
        assert!(
            sol.errors.is_empty(),
            "{:?}",
            sol.errors.first().map(|e| e.to_string())
        );
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
    fn four_workers_match_one_on_diamond() {
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
            ks.iter()
                .map(|k| format!("{k}={}", s.pred_of(*k)))
                .collect::<Vec<_>>()
        };
        assert_eq!(dump(&seq), dump(&par));
        assert_eq!(
            seq.errors
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>(),
            par.errors
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        );
        assert_eq!(seq.outcome(), par.outcome());
    }

    #[test]
    fn one_worker_counts_rounds_and_trajectories() {
        let (genv, kenv, subs) = diamond_case();
        let sol = solve(&genv, &kenv, &subs, &quals(), &seq_config());
        assert!(sol.stats.rounds > 0);
        assert!(!sol.stats.partition_stats.is_empty());
        let covered: u64 = sol
            .stats
            .partition_stats
            .iter()
            .map(|p| p.constraints)
            .sum();
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
    fn four_workers_partition_stats_cover_rounds() {
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
        let covered: u64 = par
            .stats
            .partition_stats
            .iter()
            .map(|p| p.constraints)
            .sum();
        assert_eq!(covered, par.stats.iterations);
        let max_round = par
            .stats
            .partition_stats
            .iter()
            .map(|p| p.round)
            .max()
            .unwrap();
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
        let parts = partition_round(vec![2, 1, 0], &writes, 2);
        assert_eq!(parts.len(), 2);
        // The writers of κ0 share a slice, in round order.
        assert!(parts.contains(&vec![2, 0]), "{parts:?}");
        assert!(parts.contains(&vec![1]), "{parts:?}");
        // One worker's slice is the round itself.
        assert_eq!(
            partition_round(vec![2, 1, 0], &writes, 1),
            vec![vec![2, 1, 0]]
        );
    }

    #[test]
    fn two_workers_zero_iteration_budget_exhausts() {
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

    /// A panicking check quarantines its own constraint and taints the
    /// run, at any worker count; the fixpoint keeps going and converges.
    #[test]
    fn injected_worker_panic_quarantines_one_check() {
        let (genv, kenv, subs) = diamond_case();
        for jobs in [1, 4] {
            let config = SolveConfig {
                jobs,
                fault: Some(Arc::new(FaultPlan::parse("worker-panic@1").unwrap())),
                ..SolveConfig::default()
            };
            let sol = solve(&genv, &kenv, &subs, &quals(), &config);
            let e = sol.exhaustion.as_ref().expect("panic taints the run");
            assert_eq!(e.resource, Resource::Panic);
            assert_eq!(e.phase, Phase::Fixpoint);
            assert!(
                e.detail.contains("constraint check panicked"),
                "{}",
                e.detail
            );
            // The run degrades to Unknown — never a flipped definite verdict.
            assert!(sol.outcome().is_unknown());
            assert_eq!(config.obs.metrics().workers_quarantined.get(), 1);
            assert!(sol.stats.churning_kvars.is_empty(), "jobs={jobs}");
        }
    }

    /// One worker reproduces the FIFO worklist schedule: a round is one
    /// breadth-first level of it. The figures are the classic worklist's
    /// on the diamond.
    #[test]
    fn driver_one_worker_keeps_the_worklist_schedule() {
        let (genv, kenv, subs) = diamond_case();
        let config = SolveConfig {
            obs: Obs::new(),
            ..seq_config()
        };
        let sol = solve(&genv, &kenv, &subs, &quals(), &config);
        let s = &sol.stats;
        let sizes: Vec<u64> = s.partition_stats.iter().map(|p| p.constraints).collect();
        assert_eq!(sizes, [8, 2, 2, 2, 1]);
        assert!(s.partition_stats.iter().all(|p| p.worker == 0));
        assert_eq!((s.iterations, s.rounds, s.max_partition), (15, 5, 8));
        let m = config.obs.metrics();
        let counts = (
            m.smt_queries.get(),
            m.smt_cache_hits.get(),
            m.smt_checks.get(),
        );
        assert_eq!(counts, (2, 3, 5));
        assert_eq!(s.worker_queries, [2]);
        assert_eq!(s.worker_checks, [15]);
        // κ names come from a process-wide counter: compare the points.
        let mut traj: Vec<&[(u64, usize)]> = s
            .kvar_trajectories
            .iter()
            .map(|(_, pts)| &pts[..])
            .collect();
        traj.sort();
        assert_eq!(
            traj,
            [
                [(0, 1), (1, 0)],
                [(0, 1), (2, 0)],
                [(0, 1), (3, 0)],
                [(0, 1), (4, 0)]
            ]
        );
    }

    /// An iteration cap of `n` checks exactly `n` constraints, and says
    /// so, at any worker count.
    #[test]
    fn driver_iteration_cap_counts_the_checks_run() {
        let (genv, kenv, subs) = diamond_case();
        for jobs in [1, 2] {
            for cap in [1, 2, 3, 5] {
                let config = SolveConfig {
                    jobs,
                    budget: Budget {
                        max_fixpoint_iterations: cap,
                        ..Budget::default()
                    },
                    ..SolveConfig::default()
                };
                let sol = solve(&genv, &kenv, &subs, &quals(), &config);
                let s = &sol.stats;
                let checked: u64 = s.partition_stats.iter().map(|p| p.constraints).sum();
                let ctx = format!("jobs={jobs} cap={cap}");
                assert_eq!(s.iterations, cap, "{ctx}");
                assert_eq!(checked, cap, "{ctx}");
                assert_eq!(s.worker_checks.iter().sum::<u64>(), cap, "{ctx}");
                assert_eq!(config.obs.metrics().fixpoint_iterations.get(), cap, "{ctx}");
                let e = sol.exhaustion.as_ref().expect("the cap is hit");
                assert_eq!(e.resource, Resource::FixpointIterations, "{ctx}");
            }
        }
    }

    /// A quarantined check keeps the run's query budget: the cap holds
    /// and the per-worker counts sum to the run's total.
    #[test]
    fn driver_quarantine_keeps_the_query_budget() {
        let (genv, kenv, subs) = diamond_case();
        for jobs in [1, 2] {
            for fault in [None, Some("worker-panic@1"), Some("worker-panic@2")] {
                let config = SolveConfig {
                    jobs,
                    budget: Budget {
                        max_smt_queries: Some(1),
                        ..Budget::default()
                    },
                    obs: Obs::new(),
                    fault: fault.map(|f| Arc::new(FaultPlan::parse(f).unwrap())),
                    ..SolveConfig::default()
                };
                let sol = solve(&genv, &kenv, &subs, &quals(), &config);
                let queries = config.obs.metrics().smt_queries.get();
                let ctx = format!("jobs={jobs} fault={fault:?}");
                assert!(queries <= 1, "{ctx}: {queries} queries");
                assert_eq!(
                    sol.stats.worker_queries.iter().sum::<u64>(),
                    queries,
                    "{ctx}"
                );
            }
        }
    }

    /// Every assignment write goes through `Fixpoint::weaken`, whose
    /// debug assertion holds each κ list to shrinking, or staying empty:
    /// the embedding cache's stamps rely on it. This drives it through
    /// each write site — in place, the merge of several workers, and
    /// quarantine under both — and checks what each site wrote.
    #[test]
    fn every_assignment_write_shrinks() {
        let (genv, kenv, subs) = diamond_case();
        let panic_at_1 = || Some(Arc::new(FaultPlan::parse("worker-panic@1").unwrap()));
        for (jobs, fault) in [(1, None), (4, None), (1, panic_at_1()), (4, panic_at_1())] {
            let config = SolveConfig {
                jobs,
                fault,
                ..SolveConfig::default()
            };
            let quarantine = config.fault.is_some();
            let sol = solve(&genv, &kenv, &subs, &quals(), &config);
            assert!(!sol.stats.kvar_trajectories.is_empty());
            for (k, pts) in &sol.stats.kvar_trajectories {
                for w in pts.windows(2) {
                    assert!(
                        w[1].1 < w[0].1 || w[1].1 == 0,
                        "jobs={jobs} quarantine={quarantine}: {k} went {pts:?}"
                    );
                }
            }
            if quarantine {
                assert_eq!(config.obs.metrics().workers_quarantined.get(), 1);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must shrink or stay empty")]
    fn a_growing_kvar_list_trips_the_shrink_assertion() {
        let k = KVar(u32::MAX);
        let mut fix = Fixpoint {
            assignment: HashMap::from([(k, vec![Pred::True])]),
            shrinks: HashMap::new(),
            traj: HashMap::new(),
        };
        fix.weaken(k, vec![Pred::True, Pred::False], 1);
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
