//! Regenerates Figure 10 of the paper: one row per benchmark with LOC,
//! manual annotations, verification time, properties, and status, plus
//! the paper's numbers for comparison.
//!
//! ```text
//! cargo run --release -p dsolve-bench --bin figure10 \
//!     [--timeout <secs>] [--jobs <n>] [--json <path>] [--stats]
//!     [--certify] [rows...]
//! ```
//!
//! Naming rows runs only those (in the table's order); an unknown row
//! or option is a usage error (exit 3) that lists the rows.
//!
//! Each benchmark runs under panic isolation: a pathological module
//! reports `UNKNOWN (panic …)` and the suite keeps going. `--timeout`
//! bounds every job's wall clock; exhausted budgets likewise surface as
//! `UNKNOWN` rows instead of hanging the table. `--jobs` sets the
//! fixpoint worker count (0 = one per CPU). `--certify` certifies every
//! definite SMT verdict (each countermodel against the asserted
//! predicates; a Valid verdict by its confirmed theory cores), and the
//! `certs_checked`/`certs_failed` counters land in each row's metrics.
//! `--json` writes a machine-readable record per benchmark (wall time,
//! SMT queries, cache hits, jobs, `Q★` size and time) for trend tracking — see
//! `BENCH_figure10.json`. The `DSOLVE_FAULT` environment variable arms
//! one deterministic fault (`point[@N]`, as `dsolve --inject-fault`),
//! shared by every row, so `job-panic@2` panics the second row.

use dsolve::{JobError, Row, Status, Table};
use dsolve_bench::{load, BENCHMARKS};
use dsolve_logic::FaultPlan;
use dsolve_obs::{Obs, Snapshot};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One benchmark's machine-readable record.
struct JsonRow {
    name: String,
    outcome: String,
    wall_s: f64,
    jobs: usize,
    /// `Q★` instances, distinct κ scope signatures, and seconds.
    initial_quals: usize,
    qstar_scopes: usize,
    qstar_s: f64,
    /// Environment nodes the embedding cache concretized, and reused.
    embed_nodes_built: u64,
    embed_nodes_reused: u64,
    /// Observability roll-up: counters (the row's query, cache and
    /// session counts among them), phase/theory nanoseconds, the
    /// query-latency histogram, and top expensive constraints. Present
    /// on every row — an UNKNOWN or panicked run reports whatever it
    /// recorded before stopping.
    metrics: Snapshot,
}

fn main() {
    let mut timeout: Option<u64> = None;
    let mut jobs: Option<usize> = None;
    let mut json_path: Option<String> = None;
    let mut stats = false;
    let mut certify = false;
    let mut filter: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--stats" => stats = true,
            "--certify" => certify = true,
            "--timeout" => match args.next().and_then(|s| s.parse::<u64>().ok()) {
                Some(secs) => timeout = Some(secs),
                None => usage("--timeout needs a number of seconds"),
            },
            "--jobs" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) => jobs = Some(n),
                None => usage("--jobs needs a worker count"),
            },
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => usage("--json needs a path"),
            },
            _ if BENCHMARKS.iter().any(|b| b.name == a) => filter.push(a),
            _ => {
                let rows: Vec<&str> = BENCHMARKS.iter().map(|b| b.name).collect();
                let kind = if a.starts_with('-') { "option" } else { "row" };
                usage(&format!("unknown {kind} `{a}` (rows: {})", rows.join(", ")));
            }
        }
    }

    let fault = match FaultPlan::from_env() {
        Ok(plan) => plan.map(Arc::new),
        Err(e) => usage(&e),
    };

    let mut table = Table::new();
    let mut records: Vec<JsonRow> = Vec::new();
    println!("Reproducing Fig. 10 (paper numbers in brackets)\n");
    for b in BENCHMARKS {
        if !filter.is_empty() && !filter.iter().any(|f| f == b.name) {
            continue;
        }
        eprint!("verifying {:<12} ... ", b.name);
        let job = match load(b.name) {
            Ok(mut j) => {
                if let Some(secs) = timeout {
                    j.config.budget.timeout = Some(Duration::from_secs(secs));
                }
                if let Some(n) = jobs {
                    j.config.jobs = n;
                }
                j.config.smt.certify = certify;
                j.config.fault = fault.clone();
                // Fresh registry per benchmark so each row's metrics
                // cover exactly one job.
                j.config.obs = Obs::new();
                j
            }
            Err(e) => {
                eprintln!("load error: {e}");
                table.push(error_row(b.name, b.properties, &e, Duration::ZERO));
                continue;
            }
        };
        let obs = job.config.obs.clone();
        let started = Instant::now();
        let outcome = job.run_isolated();
        let wall = started.elapsed();
        match outcome {
            Err(e) => {
                // One bad job (front-end error or isolated panic) must
                // not take down the rest of the suite. Its time is what
                // it ran before failing, so a wall-time gate never sees
                // a failed row as instant.
                eprintln!("{e}");
                table.push(error_row(b.name, b.properties, &e, wall));
                records.push(JsonRow {
                    name: b.name.into(),
                    outcome: format!("{}", e.outcome()),
                    wall_s: wall.as_secs_f64(),
                    jobs: jobs.unwrap_or(0),
                    initial_quals: 0,
                    qstar_scopes: 0,
                    qstar_s: 0.0,
                    embed_nodes_built: 0,
                    embed_nodes_reused: 0,
                    metrics: obs.snapshot(5),
                });
            }
            Ok(res) => {
                eprintln!(
                    "{} in {:.1}s [paper: {}s]",
                    res.outcome(),
                    res.time.as_secs_f64(),
                    b.paper_time_s
                );
                if !res.is_safe() {
                    for e in res.result.errors.iter().take(3) {
                        eprintln!("    {e}");
                    }
                }
                let s = &res.result.stats;
                if stats {
                    let m = &res.metrics;
                    eprintln!(
                        "    smt_queries={} cache_hits={}/{} sessions={} scoped_checks={} asserts_per_session={:.1}",
                        m.queries,
                        m.cache_hits,
                        m.checks,
                        m.sessions,
                        m.scoped_checks,
                        m.asserts_per_session(),
                    );
                }
                records.push(JsonRow {
                    name: b.name.into(),
                    outcome: format!("{}", res.outcome()),
                    wall_s: res.time.as_secs_f64(),
                    jobs: s.jobs,
                    initial_quals: s.initial_quals,
                    qstar_scopes: s.qstar_scopes,
                    qstar_s: s.qstar_time.as_secs_f64(),
                    embed_nodes_built: s.embed_nodes_built,
                    embed_nodes_reused: s.embed_nodes_reused,
                    metrics: res.metrics.clone(),
                });
                table.push(Row::from_result(
                    format!(
                        "{} [{} LOC, {} ann, {}s]",
                        b.name, b.paper_loc, b.paper_annotations, b.paper_time_s
                    ),
                    b.properties,
                    &res,
                ));
            }
        }
    }
    println!("{table}");
    if let Some(path) = json_path {
        let json = render_json(&records);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("figure10: cannot write `{path}`: {e}");
            std::process::exit(3);
        }
        eprintln!("wrote {path}");
    }
    if !table.all_safe() {
        std::process::exit(1);
    }
}

/// Reports a usage error and exits 3.
fn usage(msg: &str) -> ! {
    eprintln!("figure10: {msg}");
    std::process::exit(3);
}

/// Renders the records as a JSON array (hand-rolled: the scalar fields
/// are numbers or known-shape strings, and [`Snapshot::to_json`] escapes
/// the provenance labels it embeds).
fn render_json(records: &[JsonRow]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        // The outcome can carry an exhaustion detail with quotes-free
        // text; keep only the leading word to stay safely quotable.
        let outcome = r.outcome.split([':', ' ']).next().unwrap_or("UNKNOWN");
        let m = &r.metrics;
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"outcome\": \"{}\", \"wall_s\": {:.6}, \"smt_queries\": {}, \"cache_hits\": {}, \"cache_lookups\": {}, \"smt_sessions\": {}, \"smt_scoped_checks\": {}, \"jobs\": {}, \"initial_quals\": {}, \"qstar_scopes\": {}, \"qstar_s\": {:.6}, \"embed_nodes_built\": {}, \"embed_nodes_reused\": {},",
            r.name, outcome, r.wall_s, m.queries, m.cache_hits, m.checks, m.sessions,
            m.scoped_checks, r.jobs, r.initial_quals, r.qstar_scopes, r.qstar_s,
            r.embed_nodes_built, r.embed_nodes_reused
        );
        let _ = writeln!(out, "   \"metrics\": {}}}{}", m.to_json(3), sep);
    }
    out.push_str("]\n");
    out
}

fn error_row(name: &str, properties: &str, e: &JobError, time: Duration) -> Row {
    let status = match e {
        JobError::Panic(_) => Status::from(&e.outcome()),
        _ => Status::Error(e.to_string()),
    };
    Row {
        program: name.into(),
        loc: 0,
        annotations: 0,
        time,
        properties: properties.into(),
        status,
    }
}
