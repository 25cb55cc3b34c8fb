//! The set path, end to end, on the three Fig. 10 rows whose `elts`
//! measures reach the SAT core as set-saturation lemmas (list-sort,
//! splay-heap and heap).
//!
//! Each row runs at `--jobs 1` under a fixpoint-iteration cap, so it
//! does the same work on every run and stops at the cap with UNKNOWN
//! (fixpoint-iterations). At `--jobs 1` that work is bit-reproducible:
//! the pins are the queries solved, the undecided ones, and the set
//! saturation counters (lemmas derived and union terms taken off the
//! worklist). A change to how set lemmas are derived or encoded that
//! alters a single lemma, the order lemmas reach the SAT core, or a
//! query verdict moves at least one of them. The caps keep each row
//! under half a second in a debug build.
//!
//! The set counters also depend on the process's symbol history:
//! canonical unions order their leaves by display form, and fresh
//! symbols (`fld%280`) are numbered process-wide. So the rows run in
//! this order, in one test, in a test binary of their own; run alone,
//! a row can derive a few lemmas more or less.

use dsolve_bench::load;
use dsolve_logic::{Outcome, Resource};
use dsolve_obs::MicroCounter;

/// Row, fixpoint-iteration cap, and the pinned `smt_queries`,
/// `smt_unknown`, `SetsSaturationLemmas` and `SetsUnionTerms`.
const PINS: &[(&str, u64, [u64; 4])] = &[
    ("listsort", 120, [170, 8, 8_797, 1_022]),
    ("splayheap", 30, [54, 1, 5_611, 459]),
    ("heap", 10, [17, 0, 1_592, 211]),
];

#[test]
fn set_rows_keep_their_work_under_a_cap() {
    for &(name, cap, want) in PINS {
        let mut job = load(name).unwrap_or_else(|e| panic!("{name}: load failed: {e}"));
        job.config.jobs = 1;
        job.config.budget.max_fixpoint_iterations = cap;
        let res = job
            .run()
            .unwrap_or_else(|e| panic!("{name}: front end failed: {e}"));
        assert!(
            matches!(res.outcome(), Outcome::Unknown(e) if e.resource == Resource::FixpointIterations),
            "{name}: expected UNKNOWN (fixpoint-iterations) at cap {cap}, got {}",
            res.outcome()
        );
        let m = &res.metrics;
        let got = [
            m.queries,
            m.unknown,
            m.micro[MicroCounter::SetsSaturationLemmas.index()],
            m.micro[MicroCounter::SetsUnionTerms.index()],
        ];
        assert_eq!(
            got, want,
            "{name} at cap {cap}: [smt_queries, smt_unknown, sets_saturation_lemmas, sets_union_terms]"
        );
    }
}
