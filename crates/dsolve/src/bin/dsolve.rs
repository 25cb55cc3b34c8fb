//! The `dsolve` command-line verifier.
//!
//! ```text
//! dsolve <module.ml> [--quals <file>] [--mlq <file>] [--annot]
//!        [--annot-out <file>] [--stats] [--stats-json <file>]
//!        [--trace-out <file>] [--quiet] [--timeout <secs>]
//!        [--max-smt-queries <n>] [--jobs <n>] [--certify]
//!        [--inject-fault <point[@N]>]
//! ```
//!
//! `--stats` prints run statistics to stderr, including the theory
//! micro-counters (simplex pivots, branch-and-bound nodes, EUF merges,
//! SAT conflicts, …) and the fixpoint convergence report (rounds,
//! per-round breakdown, still-churning κs on UNKNOWN). `--stats-json`
//! writes the same data — plus per-κ qualifier trajectories and the
//! full metrics snapshot — as one machine-readable JSON object.
//!
//! `--annot-out` writes the inferred liquid types to a `.annot` file, as
//! the original DSOLVE did. `--timeout` and `--max-smt-queries` bound
//! the run; an exhausted budget reports `UNKNOWN` with the reason.
//! `--jobs` sets the fixpoint worker count (default: one per available
//! CPU; at `--jobs 1` every round runs on the calling thread).
//!
//! `--certify` certifies every definite SMT verdict: an Invalid answer's
//! countermodel must satisfy the asserted predicates under an
//! independent evaluator, and a Valid answer rests on theory cores that
//! were each refuted on fresh engines before they blocked a model (a
//! check that runs with or without the flag); a failed certificate
//! downgrades the answer to `UNKNOWN` rather than ever flipping it. `--inject-fault` (or the
//! `DSOLVE_FAULT` environment variable) arms one deterministic fault
//! point — `worker-panic`, `job-panic`, `session-fail`, `cache-poison`,
//! `trace-io`, or `query-timeout`, optionally `@N` for the N-th
//! occurrence — used by the fault-matrix robustness tests; a faulted run
//! either matches the clean verdict or degrades to `UNKNOWN` (exit 2).
//!
//! `--trace-out` writes a Chrome `trace_event` JSON file (open it in
//! `chrome://tracing` or Perfetto) with spans for every pipeline phase,
//! fixpoint round, and individual SMT query named by the NanoML source
//! location it discharges. `--quiet` silences progress and warning
//! output (errors still print); the `DSOLVE_LOG` environment variable
//! (`error|warn|info|debug`) picks a level explicitly.
//!
//! By default `<module>.quals` and `<module>.mlq` next to the module are
//! used when present. Exit status: 0 = safe, 1 = unsafe, 2 = unknown
//! (budget exhausted, isolated panic, quarantined worker, or failed
//! certificate), 3 = front-end/spec errors or bad usage.

use dsolve::{Job, JobError};
use dsolve_logic::{FaultPlan, FaultPoint};
use dsolve_obs::{log_error, Obs};
use std::process::ExitCode;

fn usage() -> ExitCode {
    log_error!(
        "usage: dsolve <module.ml> [--quals <file>] [--mlq <file>] [--annot] [--annot-out <file>] [--stats] [--stats-json <file>] [--trace-out <file>] [--quiet] [--timeout <secs>] [--max-smt-queries <n>] [--jobs <n>] [--certify] [--inject-fault <point[@N]>]"
    );
    ExitCode::from(3)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ml: Option<String> = None;
    let mut quals: Option<String> = None;
    let mut mlq: Option<String> = None;
    let mut annot = false;
    let mut annot_out: Option<String> = None;
    let mut stats = false;
    let mut stats_json_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut quiet = false;
    let mut timeout: Option<u64> = None;
    let mut max_smt_queries: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut certify = false;
    let mut inject_fault: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quals" => match it.next() {
                Some(f) => quals = Some(f.clone()),
                None => return usage(),
            },
            "--mlq" => match it.next() {
                Some(f) => mlq = Some(f.clone()),
                None => return usage(),
            },
            "--annot" => annot = true,
            "--annot-out" => match it.next() {
                Some(f) => annot_out = Some(f.clone()),
                None => return usage(),
            },
            "--stats" => stats = true,
            "--stats-json" => match it.next() {
                Some(f) => stats_json_out = Some(f.clone()),
                None => return usage(),
            },
            "--trace-out" => match it.next() {
                Some(f) => trace_out = Some(f.clone()),
                None => return usage(),
            },
            "--quiet" => quiet = true,
            "--timeout" => match it.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(secs) => timeout = Some(secs),
                None => return usage(),
            },
            "--max-smt-queries" => match it.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(n) => max_smt_queries = Some(n),
                None => return usage(),
            },
            "--jobs" => match it.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) if n > 0 => jobs = Some(n),
                _ => return usage(),
            },
            "--certify" => certify = true,
            "--inject-fault" => match it.next() {
                Some(f) => inject_fault = Some(f.clone()),
                None => return usage(),
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            f if !f.starts_with('-') && ml.is_none() => ml = Some(f.to_owned()),
            _ => return usage(),
        }
    }
    let Some(ml) = ml else { return usage() };
    if quiet {
        dsolve_obs::log::set_level(dsolve_obs::log::Level::Error);
    }

    let mut job = match Job::from_path(&ml) {
        Ok(j) => j,
        Err(e) => {
            log_error!("dsolve: {e}");
            return ExitCode::from(3);
        }
    };
    if let Some(q) = quals {
        match std::fs::read_to_string(&q) {
            Ok(s) => job.quals = s,
            Err(e) => {
                log_error!("dsolve: cannot read `{q}`: {e}");
                return ExitCode::from(3);
            }
        }
    }
    if let Some(s) = mlq {
        match std::fs::read_to_string(&s) {
            Ok(text) => job.mlq = text,
            Err(e) => {
                log_error!("dsolve: cannot read `{s}`: {e}");
                return ExitCode::from(3);
            }
        }
    }
    if let Some(secs) = timeout {
        job.config.budget.timeout = Some(std::time::Duration::from_secs(secs));
    }
    if let Some(n) = max_smt_queries {
        job.config.budget.max_smt_queries = Some(n);
    }
    if let Some(n) = jobs {
        job.config.jobs = n;
    }
    job.config.smt.certify = certify;
    // `--inject-fault` wins over the `DSOLVE_FAULT` environment variable.
    let fault = {
        let parsed = match &inject_fault {
            Some(spec) => FaultPlan::parse(spec).map(Some),
            None => FaultPlan::from_env(),
        };
        match parsed {
            Ok(p) => p.map(std::sync::Arc::new),
            Err(e) => {
                log_error!("dsolve: {e}");
                return ExitCode::from(3);
            }
        }
    };
    job.config.fault = fault.clone();
    let obs = match &trace_out {
        Some(path) => match Obs::with_trace(std::path::Path::new(path)) {
            Ok(o) => o,
            Err(e) => {
                log_error!("dsolve: cannot open trace file `{path}`: {e}");
                return ExitCode::from(3);
            }
        },
        None => Obs::new(),
    };
    job.config.obs = obs.clone();
    if let Some(f) = &fault {
        if f.fire(FaultPoint::TraceIo) {
            obs.simulate_trace_io_failure();
        }
    }

    let outcome = job.run_isolated();
    // Flush the trace before reporting: every span guard is dropped by
    // now (run_isolated catches panics), so the event list is complete.
    obs.finish();
    match outcome {
        Err(e @ JobError::Panic(_)) => {
            // An isolated panic is an Unknown verdict, not a crash.
            println!("{}: {}", job.name, e.outcome());
            ExitCode::from(2)
        }
        Err(e) => {
            log_error!("dsolve: {e}");
            ExitCode::from(3)
        }
        Ok(res) => {
            if annot || annot_out.is_some() {
                let mut names: Vec<_> = res.result.inferred.iter().collect();
                names.sort_by_key(|(n, _)| n.as_str());
                let mut rendered = String::new();
                for (name, scheme) in names {
                    rendered.push_str(&format!("{name} :: {scheme}\n"));
                }
                if annot {
                    print!("{rendered}");
                }
                if let Some(path) = &annot_out {
                    if let Err(e) = std::fs::write(path, rendered) {
                        log_error!("dsolve: cannot write `{path}`: {e}");
                    }
                }
            }
            if stats {
                let reg = &res.metrics;
                eprintln!(
                    "loc={} annotations={} constraints={} kvars={} smt_queries={} smt_unknown={} time={:.3}s frontend={:.3}s gen={:.3}s fixpoint={:.3}s obligations={:.3}s",
                    res.loc,
                    res.annotations,
                    res.result.num_constraints,
                    res.result.stats.kvars,
                    reg.queries,
                    reg.unknown,
                    res.time.as_secs_f64(),
                    res.frontend_time.as_secs_f64(),
                    res.result.gen_time.as_secs_f64(),
                    res.result.stats.fixpoint_time.as_secs_f64(),
                    res.result.stats.obligation_time.as_secs_f64()
                );
                let s = &res.result.stats;
                eprintln!(
                    "qstar: instances={} kvars={} scopes={} time={:.3}s",
                    s.initial_quals,
                    s.kvars,
                    s.qstar_scopes,
                    s.qstar_time.as_secs_f64()
                );
                eprintln!(
                    "jobs={} rounds={} max_partition={} cache_hits={}/{} ({:.1}%) worker_queries={:?}",
                    s.jobs,
                    s.rounds,
                    s.max_partition,
                    reg.cache_hits,
                    reg.checks,
                    100.0 * reg.cache_hit_rate(),
                    s.worker_queries
                );
                eprintln!(
                    "smt_sessions={} scoped_checks={} asserts_per_session={:.1}",
                    reg.sessions,
                    reg.scoped_checks,
                    reg.asserts_per_session()
                );
                eprintln!(
                    "embed: nodes_built={} nodes_reused={} bound={}",
                    s.embed_nodes_built, s.embed_nodes_reused, s.embed_nodes_bound
                );
                let micro: Vec<String> = dsolve_obs::MicroCounter::NAMES
                    .iter()
                    .zip(&res.metrics.micro)
                    .filter(|(_, &v)| v > 0)
                    .map(|(n, v)| format!("{n}={v}"))
                    .collect();
                if !micro.is_empty() {
                    eprintln!("micro: {}", micro.join(" "));
                }
                let m = |c: dsolve_obs::MicroCounter| res.metrics.micro[c.index()];
                let assignments = m(dsolve_obs::MicroCounter::TheoryAssignments);
                if assignments > 0 {
                    let checks = m(dsolve_obs::MicroCounter::TheoryChecks);
                    eprintln!(
                        "theory: assignments={assignments} checks={checks} ({:.1} per assignment) frames={} probes={} core_fallbacks={}",
                        checks as f64 / assignments as f64,
                        m(dsolve_obs::MicroCounter::TheoryFrames),
                        m(dsolve_obs::MicroCounter::TheoryProbes),
                        m(dsolve_obs::MicroCounter::TheoryCoreFallbacks)
                    );
                }
                if res.metrics.query_time_count > 0 {
                    // Self-describing latency histogram: `floor_us:count`
                    // pairs, each floor the bucket's inclusive lower
                    // bound in microseconds.
                    let cells: Vec<String> = res
                        .metrics
                        .query_time_buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(i, c)| format!("{}us:{c}", dsolve_obs::bucket_floor_us(i)))
                        .collect();
                    eprintln!(
                        "query_time: n={} mean={:.1}us [{}]",
                        res.metrics.query_time_count,
                        res.metrics.query_time_sum_ns as f64
                            / 1000.0
                            / res.metrics.query_time_count as f64,
                        cells.join(" ")
                    );
                }
                if !s.kvar_trajectories.is_empty() {
                    eprintln!(
                        "convergence: {} of {} kvars weakened over {} rounds",
                        s.kvar_trajectories.len(),
                        s.kvars,
                        s.rounds
                    );
                }
                if !s.churning_kvars.is_empty() {
                    eprintln!(
                        "still churning at exhaustion: {}",
                        s.churning_kvars.join(", ")
                    );
                }
                if !res.metrics.top_constraints.is_empty() {
                    eprintln!("top constraints by SMT time:");
                    for c in &res.metrics.top_constraints {
                        eprintln!(
                            "  {:>8.3}ms {:>5} queries  c{} [{}]",
                            c.total_ns as f64 / 1e6,
                            c.queries,
                            c.constraint,
                            c.label
                        );
                    }
                }
            }
            if let Some(path) = &stats_json_out {
                let json = dsolve::stats_json(&job.name, &res);
                if let Err(e) = std::fs::write(path, json) {
                    log_error!("dsolve: cannot write `{path}`: {e}");
                }
            }
            use dsolve_logic::Outcome;
            println!("{}: {}", job.name, res.outcome());
            match res.outcome() {
                Outcome::Safe => ExitCode::SUCCESS,
                Outcome::Unsafe => {
                    for e in &res.result.errors {
                        println!("  {e}");
                    }
                    ExitCode::from(1)
                }
                Outcome::Unknown(_) => {
                    for e in &res.result.errors {
                        println!("  {e}");
                    }
                    ExitCode::from(2)
                }
            }
        }
    }
}
