//! Typed metrics registry: lock-striped counters, gauges, and log-scale
//! histograms.
//!
//! Every instrument is wait-free for writers. [`Counter`] stripes its
//! total over cache-line-aligned atomics indexed by a per-thread stripe
//! id, so `--jobs N` workers bump disjoint lines instead of bouncing one
//! hot word between cores. Reads ([`Counter::get`]) sum the stripes and
//! are only used at reporting boundaries, never in hot paths.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Number of counter stripes. A small power of two: enough to separate
/// the handful of worker threads the fixpoint spawns, cheap to sum.
pub const STRIPES: usize = 16;

/// One cache line worth of counter, so adjacent stripes never share a
/// line and concurrent workers do not false-share.
#[repr(align(64))]
#[derive(Default)]
struct Stripe(AtomicU64);

/// Global source of per-thread stripe indices. Threads claim stripes
/// round-robin at first use; with `STRIPES` ≥ worker count each worker
/// effectively owns a line.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_STRIPE: usize =
        NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

/// Monotone counter striped over cache lines.
#[derive(Default)]
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` to the calling thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        MY_STRIPE.with(|&s| self.stripes[s].0.fetch_add(n, Ordering::Relaxed));
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Sums all stripes. Reporting-path only; values written by other
    /// threads before a happens-before edge (e.g. a join) are included.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Number of histogram buckets. Bucket `i` counts samples whose
/// microsecond value has `i` significant bits: bucket 0 holds `0µs`,
/// bucket `i` holds `[2^(i-1), 2^i)` µs, and the last bucket absorbs
/// everything from ~17 s up.
pub const HIST_BUCKETS: usize = 26;

/// Fixed log2-bucket latency histogram over microseconds.
///
/// Buckets are plain (unstriped) atomics: one histogram record per SMT
/// query is orders of magnitude rarer than the solver work producing
/// it, so contention is negligible while the sum stays exact.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HIST_BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a sample of `us` microseconds.
#[inline]
pub fn bucket_of(us: u64) -> usize {
    ((64 - us.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive lower bound (µs) of bucket `i`.
pub fn bucket_floor_us(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one duration sample.
    pub fn record(&self, d: Duration) {
        let us = d.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns
            .fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Copies out the bucket counts.
    pub fn buckets(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// Pipeline phases with dedicated wall-time accumulators. The order is
/// the pipeline order; `NAMES` must stay in sync.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObsPhase {
    /// NanoML parsing.
    Parse,
    /// Datatype registration and name resolution.
    Resolve,
    /// Hindley–Milner type inference.
    Infer,
    /// `.mlq` spec parsing and specialization.
    Spec,
    /// Liquid constraint generation and splitting.
    ConstraintGen,
    /// Iterative-weakening fixpoint.
    Fixpoint,
    /// Concrete obligation checks under the solved assignment.
    Obligations,
}

/// Number of [`ObsPhase`] variants.
pub const NPHASES: usize = 7;

impl ObsPhase {
    /// Snake-case names used in trace events and JSON snapshots.
    pub const NAMES: [&'static str; NPHASES] = [
        "parse",
        "resolve",
        "infer",
        "spec",
        "constraint_gen",
        "fixpoint",
        "obligations",
    ];

    /// Index into phase-keyed arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The snake-case name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self.index()]
    }
}

/// Theory components with dedicated solve-time accumulators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TheoryKind {
    /// CDCL propositional search.
    Sat,
    /// Congruence closure.
    Euf,
    /// Linear integer arithmetic (branch-and-bound simplex).
    Simplex,
    /// Array axiom instantiation.
    Arrays,
    /// Set canonicalization and saturation lemmas.
    Sets,
}

/// Number of [`TheoryKind`] variants.
pub const NTHEORIES: usize = 5;

impl TheoryKind {
    /// Snake-case names used in JSON snapshots.
    pub const NAMES: [&'static str; NTHEORIES] = ["sat", "euf", "simplex", "arrays", "sets"];

    /// Index into theory-keyed arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The snake-case name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self.index()]
    }
}

/// Per-theory micro-counters: the work items behind the wall time in
/// `theory_ns`. Each of the five engines exports at least two, so a
/// slow benchmark can be localized not just to an engine but to the
/// operation inside it (pivots vs branch-and-bound, merges vs
/// congruence churn, decisions vs propagations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MicroCounter {
    /// SAT branching decisions.
    SatDecisions,
    /// SAT unit propagations (literals enqueued by watch lists).
    SatPropagations,
    /// SAT conflicts analyzed.
    SatConflicts,
    /// Clauses learned from conflict analysis.
    SatLearnedClauses,
    /// Total literals across learned clauses (avg length = lits/clauses).
    SatLearnedLiterals,
    /// EUF union operations actually performed (equal roots excluded).
    EufMerges,
    /// EUF congruence pairs discovered while propagating a merge.
    EufCongruencePairs,
    /// Simplex pivot operations.
    SimplexPivots,
    /// Branch-and-bound nodes explored (integer feasibility search).
    SimplexBbNodes,
    /// Deepest branch-and-bound recursion reached (high-water mark).
    SimplexBbMaxDepth,
    /// Ground read-over-write axiom instances conjoined.
    ArraysAxiomInstances,
    /// Distinct (update-term, index) pairs instantiated.
    ArraysPairsInstantiated,
    /// Set-saturation lemmas emitted.
    SetsSaturationLemmas,
    /// Union terms popped off the saturation worklist.
    SetsUnionTerms,
    /// `ite` terms lifted to a fresh defined variable: each distinct
    /// term once per SMT session.
    IteExpansions,
    /// Propositional models handed to the theory layer for a
    /// consistency verdict (one per `check_assignment` call).
    TheoryAssignments,
    /// Nelson–Oppen closures run (EUF + simplex + equality exchange to
    /// a verdict): each root frame's, each model's, and the fresh one
    /// that confirms a conflict explanation before it becomes a core.
    TheoryChecks,
    /// Conflict explanations that failed their confirming check, so the
    /// model was re-decided on fresh engines instead.
    TheoryCoreFallbacks,
    /// Root frames built: segments of decision-level-0 literals asserted
    /// once into the persistent theory context and closed there.
    TheoryFrames,
    /// Separation probes run: candidate pairs tested for a
    /// simplex-forced equality (up to two LP checks each).
    TheoryProbes,
}

/// Number of [`MicroCounter`] variants.
pub const NMICRO: usize = 20;

impl MicroCounter {
    /// Snake-case names used in JSON snapshots, prefixed by engine.
    pub const NAMES: [&'static str; NMICRO] = [
        "sat_decisions",
        "sat_propagations",
        "sat_conflicts",
        "sat_learned_clauses",
        "sat_learned_literals",
        "euf_merges",
        "euf_congruence_pairs",
        "simplex_pivots",
        "simplex_bb_nodes",
        "simplex_bb_max_depth",
        "arrays_axiom_instances",
        "arrays_pairs_instantiated",
        "sets_saturation_lemmas",
        "sets_union_terms",
        "ite_expansions",
        "theory_assignments",
        "theory_checks",
        "theory_core_fallbacks",
        "theory_frames",
        "theory_probes",
    ];

    /// All variants, in index order.
    pub const ALL: [MicroCounter; NMICRO] = [
        MicroCounter::SatDecisions,
        MicroCounter::SatPropagations,
        MicroCounter::SatConflicts,
        MicroCounter::SatLearnedClauses,
        MicroCounter::SatLearnedLiterals,
        MicroCounter::EufMerges,
        MicroCounter::EufCongruencePairs,
        MicroCounter::SimplexPivots,
        MicroCounter::SimplexBbNodes,
        MicroCounter::SimplexBbMaxDepth,
        MicroCounter::ArraysAxiomInstances,
        MicroCounter::ArraysPairsInstantiated,
        MicroCounter::SetsSaturationLemmas,
        MicroCounter::SetsUnionTerms,
        MicroCounter::IteExpansions,
        MicroCounter::TheoryAssignments,
        MicroCounter::TheoryChecks,
        MicroCounter::TheoryCoreFallbacks,
        MicroCounter::TheoryFrames,
        MicroCounter::TheoryProbes,
    ];

    /// Index into micro-keyed arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The snake-case name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self.index()]
    }

    /// High-water counters merge by `max` instead of summing: the
    /// global value is the deepest any single query went, not a total.
    pub fn is_high_water(self) -> bool {
        matches!(self, MicroCounter::SimplexBbMaxDepth)
    }
}

/// Registry-side storage for micro-counters. Plain (unstriped) atomics:
/// values are merged once per solved query from the thread-local
/// accumulator, never bumped from hot loops, so contention is
/// negligible.
pub struct MicroTable {
    cells: [AtomicU64; NMICRO],
}

impl Default for MicroTable {
    fn default() -> Self {
        MicroTable {
            cells: [(); NMICRO].map(|_| AtomicU64::new(0)),
        }
    }
}

impl MicroTable {
    /// Creates a zeroed table.
    pub fn new() -> Self {
        MicroTable::default()
    }

    /// Merges one query's drained accumulator: summing counters
    /// `fetch_add`, high-water counters `fetch_max`.
    pub fn merge(&self, vals: &[u64; NMICRO]) {
        for (c, (&v, cell)) in MicroCounter::ALL.iter().zip(vals.iter().zip(&self.cells)) {
            if v == 0 {
                continue;
            }
            if c.is_high_water() {
                cell.fetch_max(v, Ordering::Relaxed);
            } else {
                cell.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    /// Copies out the current values.
    pub fn get(&self) -> [u64; NMICRO] {
        let mut out = [0u64; NMICRO];
        for (o, c) in out.iter_mut().zip(&self.cells) {
            *o = c.load(Ordering::Relaxed);
        }
        out
    }
}

/// The typed metrics registry: every instrument the pipeline records
/// into, by name. One registry per verification job.
#[derive(Default)]
pub struct Metrics {
    /// Validity checks requested of the SMT layer (cache hits included).
    pub smt_checks: Counter,
    /// Checks answered from the shared query cache.
    pub smt_cache_hits: Counter,
    /// Queries actually solved (charged against `--max-smt-queries`).
    pub smt_queries: Counter,
    /// Solved queries whose verdict was `Unknown` (a search cap, the
    /// deadline mid-query, or a failed certificate).
    pub smt_unknown: Counter,
    /// Queries refused on entry by budget/deadline exhaustion.
    pub smt_refused: Counter,
    /// Incremental sessions opened.
    pub smt_sessions: Counter,
    /// Push/pop-scoped checks inside incremental sessions.
    pub smt_scoped_checks: Counter,
    /// Definite verdicts certified (`--certify` only): an Invalid one by
    /// its countermodel, a Valid one by its confirmed theory cores.
    pub smt_certs_checked: Counter,
    /// Invalid verdicts downgraded to `Unknown` because their
    /// countermodel failed (`--certify` only).
    pub smt_certs_failed: Counter,
    /// Query-cache shard locks found poisoned and recovered.
    pub cache_poison_recoveries: Counter,
    /// Fixpoint/obligation workers that panicked and were quarantined
    /// (their partitions conservatively weakened).
    pub workers_quarantined: Counter,
    /// Fixpoint weakening iterations (constraint re-checks).
    pub fixpoint_iterations: Counter,
    /// Fixpoint rounds (each one the whole worklist, in queue order).
    pub fixpoint_rounds: Counter,
    /// Wall time per solved SMT query.
    pub query_time: Histogram,
    /// Wall time per pipeline phase, nanoseconds, indexed by [`ObsPhase`].
    pub phase_ns: [Counter; NPHASES],
    /// Solve time per theory component, nanoseconds, indexed by
    /// [`TheoryKind`].
    pub theory_ns: [Counter; NTHEORIES],
    /// Per-theory work-item counts, indexed by [`MicroCounter`].
    pub micro: MicroTable,
}

impl Metrics {
    /// Creates a zeroed registry.
    pub fn new() -> Self {
        Metrics::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = std::sync::Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn histogram_buckets_are_log2_of_us() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_floor_us(0), 0);
        assert_eq!(bucket_floor_us(1), 1);
        assert_eq!(bucket_floor_us(11), 1024);
    }

    #[test]
    fn micro_table_sums_and_maxes() {
        let t = MicroTable::new();
        let mut a = [0u64; NMICRO];
        a[MicroCounter::SimplexPivots.index()] = 10;
        a[MicroCounter::SimplexBbMaxDepth.index()] = 3;
        t.merge(&a);
        a[MicroCounter::SimplexPivots.index()] = 5;
        a[MicroCounter::SimplexBbMaxDepth.index()] = 2;
        t.merge(&a);
        let got = t.get();
        assert_eq!(got[MicroCounter::SimplexPivots.index()], 15);
        // High-water: max of 3 and 2, not the sum.
        assert_eq!(got[MicroCounter::SimplexBbMaxDepth.index()], 3);
    }

    #[test]
    fn micro_names_cover_every_engine() {
        for kind in TheoryKind::NAMES {
            let exported = MicroCounter::NAMES
                .iter()
                .filter(|n| n.starts_with(&format!("{kind}_")))
                .count();
            assert!(exported >= 2, "{kind} exports {exported} micro-counters");
        }
    }

    #[test]
    fn histogram_totals_match() {
        let h = Histogram::new();
        for us in [0u64, 1, 5, 1000, 2_000_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.buckets().iter().sum::<u64>(), 5);
        assert_eq!(h.sum_ns(), (1 + 5 + 1000 + 2_000_000) * 1000);
    }
}
