//! Overhead guard: with tracing disabled, the instrumented solver must
//! stay within a few percent of a run with observability fully off
//! (disabled `Obs` handle *and* the theory timers and micro-counters
//! switched off — the pre-instrumentation configuration).
//!
//! The workload is a small in-memory module rather than a release
//! benchmark so the guard runs in the ordinary debug test suite. Times
//! are min-of-N with interleaved measurement order, and the bound keeps
//! a small absolute slack so scheduler noise on a loaded single-CPU
//! machine cannot flake the suite while a real regression (per-query
//! formatting, lock contention on the hot path) still trips it.

use dsolve::Job;
use dsolve_obs::{micro, Obs};
use std::time::{Duration, Instant};

const SOURCE: &str = r#"
let rec range i j = if i > j then [] else i :: range (i + 1) j
let rec fold_left f acc xs =
  match xs with
  | [] -> acc
  | x :: rest -> fold_left f (f acc x) rest
let harmonic n =
  let ds = range 1 n in
  fold_left (fun s k -> s + 10000 / k) 0 ds
let rec rev_aux acc xs =
  match xs with
  | [] -> acc
  | x :: rest -> rev_aux (x :: acc) rest
let use_rev xs = rev_aux [] xs
"#;

const QUALS: &str = "qualif Pos : 0 < VV\nqualif Ub : _ <= VV\nqualif Nn : 0 <= VV\n";

fn timed_run(obs: Obs) -> Duration {
    let mut j = Job::from_sources("overhead", SOURCE, "", QUALS);
    j.config.jobs = 1;
    j.config.obs = obs;
    let start = Instant::now();
    let res = j.run().unwrap();
    let t = start.elapsed();
    assert!(res.is_safe());
    t
}

#[test]
fn metrics_overhead_within_bound() {
    // Warm up allocator, caches, and lazy statics off the clock.
    timed_run(Obs::off());
    timed_run(Obs::new());

    let rounds = 5;
    let mut baseline = Duration::MAX;
    let mut instrumented = Duration::MAX;
    for _ in 0..rounds {
        // Interleave so drift (thermal, noisy neighbors) hits both arms.
        // The baseline switches off every instrumentation layer — the
        // Obs handle, and the theory timers and micro-counters behind
        // their one switch — so the bound honestly charges everything
        // this crate added.
        micro::set_enabled(false);
        baseline = baseline.min(timed_run(Obs::off()));
        micro::set_enabled(true);
        instrumented = instrumented.min(timed_run(Obs::new()));
    }
    micro::set_enabled(true);

    // 3% relative plus 25ms absolute: the relative term is the contract,
    // the absolute term absorbs timer granularity on a fast workload.
    let bound = baseline.mul_f64(1.03) + Duration::from_millis(25);
    assert!(
        instrumented <= bound,
        "instrumented min {instrumented:?} exceeds bound {bound:?} (baseline min {baseline:?})"
    );
}
