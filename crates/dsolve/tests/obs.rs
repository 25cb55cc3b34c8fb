//! Observability integration tests: accounting invariants between the
//! metrics registry and `SolveStats`, determinism of per-constraint
//! query attribution, and trace well-formedness on abnormal runs.

use dsolve::Job;
use dsolve_obs::trace::{parse_json, validate_trace_file};
use dsolve_obs::{MicroCounter, Obs, ObsPhase, TheoryKind};
use std::collections::HashMap;
use std::time::Duration;

/// A module that exercises the full pipeline: recursion, lists, an
/// assertion obligation, and enough qualifiers to force real weakening.
const SOURCE: &str = r#"
let rec range i j = if i > j then [] else i :: range (i + 1) j
let rec fold_left f acc xs =
  match xs with
  | [] -> acc
  | x :: rest -> fold_left f (f acc x) rest
let harmonic n =
  let ds = range 1 n in
  fold_left (fun s k -> s + 10000 / k) 0 ds
"#;

const QUALS: &str = "qualif Pos : 0 < VV\nqualif Ub : _ <= VV\n";

fn job(jobs: usize) -> Job {
    let mut j = Job::from_sources("obs-test", SOURCE, "", QUALS);
    j.config.jobs = jobs;
    j.config.obs = Obs::new();
    j
}

/// The invariants every run must satisfy, regardless of worker count:
/// checks split exactly into hits and misses, misses split exactly into
/// solved and refused queries, and the latency histogram saw exactly one
/// sample per solved query.
fn assert_invariants(snap: &dsolve_obs::Snapshot) {
    assert_eq!(
        snap.checks,
        snap.cache_hits + snap.cache_misses,
        "checks must equal hits + misses"
    );
    assert_eq!(
        snap.cache_misses,
        snap.queries + snap.refused,
        "misses must equal solved + refused queries"
    );
    assert_eq!(
        snap.query_time_count, snap.queries,
        "histogram samples must equal solved queries"
    );
    assert_eq!(
        snap.query_time_buckets.iter().sum::<u64>(),
        snap.queries,
        "histogram bucket totals must equal solved queries"
    );
}

#[test]
fn accounting_consistent_sequential() {
    let j = job(1);
    let obs = j.config.obs.clone();
    let res = j.run().unwrap();
    assert!(res.is_safe());

    let snap = obs.snapshot(5);
    assert_invariants(&snap);
    assert!(snap.queries > 0, "the module must exercise the solver");

    // The registry is the single source of truth: SolveStats agrees with
    // it, and the per-worker counts sum to the shared total.
    let s = &res.result.stats;
    assert_eq!(s.smt_queries, snap.queries);
    assert_eq!(s.cache_hits, snap.cache_hits);
    assert_eq!(s.cache_lookups, snap.checks);
    assert_eq!(s.smt_sessions, snap.sessions);
    assert_eq!(s.smt_scoped_checks, snap.scoped_checks);
    assert_eq!(s.worker_queries.iter().sum::<u64>(), s.smt_queries);

    // The JobResult snapshot is taken from the same registry.
    assert_eq!(res.metrics.queries, snap.queries);

    // Cost attribution covers every solved query.
    let (_, attributed) = obs.costs().totals();
    assert_eq!(attributed, snap.queries);
}

#[test]
fn accounting_consistent_across_workers() {
    let j = job(4);
    let obs = j.config.obs.clone();
    let res = j.run().unwrap();
    assert!(res.is_safe());

    let snap = obs.snapshot(5);
    assert_invariants(&snap);
    let s = &res.result.stats;
    assert_eq!(
        s.worker_queries.iter().sum::<u64>(),
        s.smt_queries,
        "per-worker counts must sum to the shared total"
    );
    assert_eq!(s.smt_queries, snap.queries);
    assert_eq!(s.cache_hits, snap.cache_hits);
    assert_eq!(s.cache_lookups, snap.checks);
}

/// The registry's `fixpoint` phase time is the time `SolveStats`
/// reports: the phase span opens with the fixpoint clock, before the
/// qualifier instantiation and the dependency index, so none of the
/// fixpoint's work falls outside every phase of a trace.
#[test]
fn fixpoint_phase_time_matches_solve_stats() {
    for jobs in [1, 2] {
        let mut j = Job::from_path(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../benchmarks/stablesort.ml"
        ))
        .unwrap();
        j.config.jobs = jobs;
        j.config.obs = Obs::new();
        let obs = j.config.obs.clone();
        let res = j.run().unwrap();
        assert!(res.is_safe());
        let phase = Duration::from_nanos(obs.snapshot(0).phase_ns[ObsPhase::Fixpoint.index()]);
        let solve = res.result.stats.fixpoint_time;
        let gap = phase.abs_diff(solve);
        assert!(
            gap <= Duration::from_millis(1) + solve / 50,
            "jobs={jobs}: fixpoint phase {phase:?} vs SolveStats {solve:?}"
        );
    }
}

#[test]
fn per_constraint_query_counts_deterministic() {
    let counts = |top: Vec<dsolve_obs::ConstraintCost>| -> HashMap<u32, u64> {
        top.into_iter().map(|c| (c.constraint, c.queries)).collect()
    };
    let run = || {
        let j = job(1);
        let obs = j.config.obs.clone();
        j.run().unwrap();
        counts(obs.costs().top(usize::MAX))
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "sequential query attribution must be deterministic");
}

/// Runs the dsolve binary on the standard module with `--stats-json`
/// and returns the parsed stats document. A fresh process per run: the
/// symbol interner and fresh-name counter are process-global, so only
/// process-identical runs are comparable bit for bit.
fn cli_stats_run(dir: &std::path::Path, tag: &str, jobs: &str, scratch: bool) -> String {
    let out_path = dir.join(format!("stats-{tag}.json"));
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_dsolve"));
    cmd.arg(dir.join("m.ml"))
        .arg("--quiet")
        .arg("--jobs")
        .arg(jobs)
        .arg("--stats-json")
        .arg(&out_path);
    if scratch {
        cmd.env("DSOLVE_NO_INCREMENTAL", "1");
    }
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "dsolve failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::read_to_string(&out_path).unwrap()
}

/// The `micro` object of a `--stats-json` document, as sorted text.
fn micro_fields(stats: &str) -> Vec<(String, f64)> {
    let doc = dsolve_obs::parse_json(stats).unwrap();
    let mut fields: Vec<(String, f64)> = doc
        .get("metrics")
        .and_then(|m| m.get("micro"))
        .and_then(dsolve_obs::Json::as_obj)
        .expect("stats-json carries metrics.micro")
        .iter()
        .map(|(k, v)| (k.clone(), v.as_num().unwrap()))
        .collect();
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    fields
}

/// Theory micro-counters are exact work counts, not samples: running
/// the binary twice on the same module under the same configuration
/// must reproduce them bit for bit. Pinned for sequential incremental
/// and sequential from-scratch SMT. (Parallel workers race on the
/// shared query cache, so at jobs > 1 only the verdict, query counts,
/// and the structural invariants below are reproducible — the per-run
/// theory work legitimately varies by a fraction of a percent.)
#[test]
fn micro_counters_deterministic_across_identical_runs() {
    let dir = std::env::temp_dir().join(format!("dsolve-obs-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("m.ml"), SOURCE).unwrap();
    std::fs::write(dir.join("m.quals"), QUALS).unwrap();

    for (jobs, scratch) in [("1", false), ("1", true)] {
        let a = micro_fields(&cli_stats_run(&dir, "a", jobs, scratch));
        let b = micro_fields(&cli_stats_run(&dir, "b", jobs, scratch));
        assert!(
            a.iter().any(|(_, v)| *v > 0.0),
            "the module must produce theory work (jobs={jobs})"
        );
        assert_eq!(
            a, b,
            "micro counters must be deterministic at jobs={jobs} scratch={scratch}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Structural invariants that hold in every configuration: counters
/// agree with the theory timers and with each other.
#[test]
fn micro_counter_invariants_hold_across_configs() {
    for (jobs, scratch) in [(1usize, false), (4, false), (1, true)] {
        let mut j = job(jobs);
        j.config.no_incremental = scratch;
        let obs = j.config.obs.clone();
        let res = j.run().unwrap();
        assert!(res.is_safe());
        let snap = obs.snapshot(5);
        let m = &snap.micro;
        let ctx = format!("jobs={jobs} no_incremental={scratch}");

        // Work implies time: any counted simplex pivot ran inside a
        // timed simplex region. (The converse is not an invariant — a
        // query can spend simplex time on a tableau that never pivots.)
        if m[MicroCounter::SimplexPivots as usize] > 0 {
            assert!(
                snap.theory_ns[TheoryKind::Simplex as usize] > 0,
                "pivots without simplex time ({ctx})"
            );
        }
        if m[MicroCounter::EufMerges as usize] > 0 {
            assert!(
                snap.theory_ns[TheoryKind::Euf as usize] > 0,
                "EUF merges without EUF time ({ctx})"
            );
        }
        // Conflict analysis learns at most one clause per conflict.
        assert!(
            m[MicroCounter::SatLearnedClauses as usize] <= m[MicroCounter::SatConflicts as usize],
            "learned clauses must not exceed conflicts ({ctx})"
        );
        // The B&B high-water depth is bounded by the node count: depth
        // only grows along a chain of visited nodes.
        assert!(
            m[MicroCounter::SimplexBbMaxDepth as usize] <= m[MicroCounter::SimplexBbNodes as usize],
            "bb_max_depth must not exceed bb_nodes ({ctx})"
        );
        // This module genuinely exercises the core engines.
        assert!(m[MicroCounter::SimplexPivots as usize] > 0, "no pivots ({ctx})");
        assert!(m[MicroCounter::EufMerges as usize] > 0, "no merges ({ctx})");
        assert!(
            m[MicroCounter::SatPropagations as usize] > 0,
            "no propagations ({ctx})"
        );
    }
}

/// A trace's complete spans as `(name, thread, start µs, end µs)`.
/// Timestamps are whole microseconds: start and duration are each
/// truncated, so a span can appear to end up to 1 µs past the true end
/// of the span containing it.
fn trace_spans(path: &std::path::Path) -> Vec<(String, u64, u64, u64)> {
    let text = std::fs::read_to_string(path).unwrap();
    let events = parse_json(&text).unwrap();
    events
        .as_arr()
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .map(|e| {
            let num = |k: &str| e.get(k).and_then(|v| v.as_num()).unwrap() as u64;
            let name = e.get("name").and_then(|n| n.as_str()).unwrap();
            (
                name.to_string(),
                num("tid"),
                num("ts"),
                num("ts") + num("dur"),
            )
        })
        .collect()
}

/// Whether `span` lies inside a `fixpoint` phase span of its thread.
fn inside_fixpoint(spans: &[(String, u64, u64, u64)], span: &(String, u64, u64, u64)) -> bool {
    spans
        .iter()
        .any(|f| f.0 == "fixpoint" && f.1 == span.1 && f.2 <= span.2 && span.3 <= f.3 + 1)
}

/// Asserts that the trace's fixpoint `round` spans lie inside the
/// `fixpoint` phase span of their thread, one after another without
/// overlap, and returns how many there are.
fn assert_rounds_nest_in_fixpoint(path: &std::path::Path) -> usize {
    let spans = trace_spans(path);
    let mut rounds: Vec<_> = spans.iter().filter(|s| s.0.starts_with("round ")).collect();
    rounds.sort_by_key(|s| s.2);
    for r in &rounds {
        assert!(
            inside_fixpoint(&spans, r),
            "{} [{}, {}] lies outside every fixpoint span",
            r.0,
            r.2,
            r.3
        );
    }
    for w in rounds.windows(2) {
        assert!(
            w[0].3 <= w[1].2,
            "{} [{}, {}] overlaps {} [{}, {}]",
            w[0].0,
            w[0].2,
            w[0].3,
            w[1].0,
            w[1].2,
            w[1].3
        );
    }
    rounds.len()
}

#[test]
fn round_spans_are_disjoint_and_inside_fixpoint() {
    let path = std::env::temp_dir().join(format!("dsolve-obs-rounds-{}.json", std::process::id()));
    let mut j = job(1);
    j.config.obs = Obs::with_trace(&path).unwrap();
    let obs = j.config.obs.clone();
    let res = j.run().unwrap();
    assert!(res.is_safe());
    obs.finish();
    validate_trace_file(&path).unwrap();
    let rounds = assert_rounds_nest_in_fixpoint(&path);
    assert!(
        rounds >= 2,
        "the module must take several rounds, got {rounds}"
    );
    assert_eq!(rounds as u64, res.result.stats.rounds);
    let _ = std::fs::remove_file(&path);
}

/// Building `Q★` is the first step of the fixpoint: its time is part of
/// the fixpoint's, κs share scope signatures, and its `qstar` span lies
/// inside the `fixpoint` phase span and closes before round 1 opens.
#[test]
fn qstar_is_the_first_step_of_the_fixpoint() {
    for jobs in [1, 2] {
        let path = std::env::temp_dir().join(format!(
            "dsolve-obs-qstar-{jobs}-{}.json",
            std::process::id()
        ));
        let mut j = Job::from_path(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../benchmarks/stablesort.ml"
        ))
        .unwrap();
        j.config.jobs = jobs;
        j.config.obs = Obs::with_trace(&path).unwrap();
        let obs = j.config.obs.clone();
        let res = j.run().unwrap();
        assert!(res.is_safe());
        obs.finish();
        validate_trace_file(&path).unwrap();
        let s = &res.result.stats;
        assert!(
            s.qstar_time <= s.fixpoint_time,
            "jobs={jobs}: qstar {:?} vs fixpoint {:?}",
            s.qstar_time,
            s.fixpoint_time
        );
        assert!(
            0 < s.qstar_scopes && s.qstar_scopes <= s.kvars,
            "jobs={jobs}: {} scopes for {} kvars",
            s.qstar_scopes,
            s.kvars
        );
        let spans = trace_spans(&path);
        let qstar: Vec<_> = spans.iter().filter(|s| s.0 == "qstar").collect();
        assert_eq!(qstar.len(), 1, "jobs={jobs}: one qstar span");
        let q = qstar[0];
        assert!(
            inside_fixpoint(&spans, q),
            "jobs={jobs}: {q:?} outside fixpoint"
        );
        let round1 = spans
            .iter()
            .find(|s| s.0 == "round 1")
            .expect("a round 1 span");
        assert!(
            q.1 == round1.1 && q.3 <= round1.2,
            "jobs={jobs}: {q:?} does not end before {round1:?}"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn trace_valid_after_budget_exhaustion() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("dsolve-obs-deadline-{}.json", std::process::id()));
    let mut j = job(1);
    j.config.budget = dsolve_logic::Budget::with_timeout(Duration::from_secs(0));
    j.config.obs = Obs::with_trace(&path).unwrap();
    let obs = j.config.obs.clone();
    let res = j.run().unwrap();
    assert!(res.outcome().exhaustion().is_some());
    obs.finish();
    let summary = validate_trace_file(&path).unwrap();
    // Every span guard was dropped on the early exit, so complete events
    // for the phases that ran are present and well-formed.
    assert!(summary.has_span("parse"), "{:?}", summary.names);
    assert!(summary.has_span("fixpoint"), "{:?}", summary.names);
    assert_rounds_nest_in_fixpoint(&path);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_valid_after_isolated_panic() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("dsolve-obs-panic-{}.json", std::process::id()));
    let mut j = job(1);
    j.name = "obs-panic-job".into();
    j.config.obs = Obs::with_trace(&path).unwrap();
    let obs = j.config.obs.clone();
    // The hook matches on the job name, so concurrent tests keep running
    // normally.
    std::env::set_var("DSOLVE_FORCE_PANIC", "obs-panic-job");
    let r = j.run_isolated();
    std::env::remove_var("DSOLVE_FORCE_PANIC");
    assert!(matches!(r, Err(dsolve::JobError::Panic(_))));
    obs.finish();
    // The trace must still parse: finish() closes the array even though
    // the run died.
    validate_trace_file(&path).unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn trace_names_queries_by_source_location() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("dsolve-obs-origin-{}.json", std::process::id()));
    let mut j = Job::from_sources(
        "obs-origin",
        "let f x = assert (x >= 0); x\nlet use = f 1\n",
        "",
        "qualif N : 0 <= VV\n",
    );
    j.config.jobs = 1;
    j.config.obs = Obs::with_trace(&path).unwrap();
    let obs = j.config.obs.clone();
    let res = j.run().unwrap();
    assert!(res.is_safe());
    obs.finish();
    let summary = validate_trace_file(&path).unwrap();
    assert!(
        summary.has_span_prefix("assert on line"),
        "expected a query span named after the assert, got {:?}",
        summary.names
    );
    assert!(summary.has_span_prefix("round "), "{:?}", summary.names);
    assert_rounds_nest_in_fixpoint(&path);
    let _ = std::fs::remove_file(&path);
}

/// The `--stats-json` embedding-cache counters of one `--jobs 1` CLI
/// run on stablesort, as `(built, reused)`.
fn cli_embed_counts(tag: &str) -> (f64, f64) {
    let path = std::env::temp_dir().join(format!(
        "dsolve-obs-embed-{tag}-{}.json",
        std::process::id()
    ));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dsolve"))
        .arg(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../benchmarks/stablesort.ml"
        ))
        .args(["--quiet", "--jobs", "1", "--stats-json"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let doc = dsolve_obs::parse_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&path);
    let num = |key: &str| doc.get(key).and_then(dsolve_obs::Json::as_num).expect(key);
    (num("embed_nodes_built"), num("embed_nodes_reused"))
}

/// The embedding cache is attributed: constraints share environment
/// nodes, so nodes are both built and reused; `--jobs 1` counts repeat
/// exactly across processes; and no run builds more nodes than the
/// (node, stamp) pairs it can produce — one per distinct node held by a
/// cache, plus one per shrink of each κ the node reads.
#[test]
fn embed_cache_counts_are_reproducible_and_bounded() {
    let a = cli_embed_counts("a");
    let b = cli_embed_counts("b");
    assert_eq!(a, b, "jobs=1 embedding counts must be reproducible");
    for jobs in [1, 2] {
        let mut j = Job::from_path(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../benchmarks/stablesort.ml"
        ))
        .unwrap();
        j.config.jobs = jobs;
        let res = j.run().unwrap();
        assert!(res.is_safe());
        let s = &res.result.stats;
        assert!(s.embed_nodes_built > 0, "jobs={jobs}: nothing built");
        assert!(s.embed_nodes_reused > 0, "jobs={jobs}: no node shared");
        assert!(
            s.embed_nodes_built <= s.embed_nodes_bound,
            "jobs={jobs}: built {} nodes, at most {} (node, stamp) pairs",
            s.embed_nodes_built,
            s.embed_nodes_bound
        );
    }
}
