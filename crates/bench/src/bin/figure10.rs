//! Regenerates Figure 10 of the paper: one row per benchmark with LOC,
//! manual annotations, verification time, properties, and status, plus
//! the paper's numbers for comparison.
//!
//! ```text
//! cargo run --release -p dsolve-bench --bin figure10 \
//!     [--timeout <secs>] [--jobs <n>] [--json <path>] [--stats]
//!     [--certify] [names...]
//! ```
//!
//! Each benchmark runs under panic isolation: a pathological module
//! reports `UNKNOWN (panic …)` and the suite keeps going. `--timeout`
//! bounds every job's wall clock; exhausted budgets likewise surface as
//! `UNKNOWN` rows instead of hanging the table. `--jobs` sets the
//! fixpoint worker count (0 = one per CPU). `--certify` replays every
//! definite SMT verdict through the independent certifier (the
//! `certs_checked`/`certs_failed` counters land in each row's metrics).
//! `--json` writes a machine-readable record per benchmark (wall time,
//! SMT queries, cache hits, jobs, `Q★` size and time) for trend tracking — see
//! `BENCH_figure10.json`.

use dsolve::{JobError, Row, Status, Table};
use dsolve_bench::{load, BENCHMARKS};
use dsolve_obs::{Obs, Snapshot};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One benchmark's machine-readable record.
struct JsonRow {
    name: String,
    outcome: String,
    wall_s: f64,
    smt_queries: u64,
    cache_hits: u64,
    cache_lookups: u64,
    smt_sessions: u64,
    smt_scoped_checks: u64,
    jobs: usize,
    /// `Q★` instances, distinct κ scope signatures, and seconds.
    initial_quals: usize,
    qstar_scopes: usize,
    qstar_s: f64,
    /// Environment nodes the embedding cache concretized, and reused.
    embed_nodes_built: u64,
    embed_nodes_reused: u64,
    /// Observability roll-up: counters, phase/theory nanoseconds, the
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
                None => {
                    eprintln!("figure10: --timeout needs a number of seconds");
                    std::process::exit(3);
                }
            },
            "--jobs" => match args.next().and_then(|s| s.parse::<usize>().ok()) {
                Some(n) => jobs = Some(n),
                None => {
                    eprintln!("figure10: --jobs needs a worker count");
                    std::process::exit(3);
                }
            },
            "--json" => match args.next() {
                Some(p) => json_path = Some(p),
                None => {
                    eprintln!("figure10: --json needs a path");
                    std::process::exit(3);
                }
            },
            _ => filter.push(a),
        }
    }

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
                    smt_queries: 0,
                    cache_hits: 0,
                    cache_lookups: 0,
                    smt_sessions: 0,
                    smt_scoped_checks: 0,
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
                    let reuse = if s.smt_sessions == 0 {
                        0.0
                    } else {
                        s.smt_scoped_checks as f64 / s.smt_sessions as f64
                    };
                    eprintln!(
                        "    smt_queries={} cache_hits={}/{} sessions={} scoped_checks={} asserts_per_session={reuse:.1}",
                        s.smt_queries,
                        s.cache_hits,
                        s.cache_lookups,
                        s.smt_sessions,
                        s.smt_scoped_checks,
                    );
                }
                records.push(JsonRow {
                    name: b.name.into(),
                    outcome: format!("{}", res.outcome()),
                    wall_s: res.time.as_secs_f64(),
                    smt_queries: s.smt_queries,
                    cache_hits: s.cache_hits,
                    cache_lookups: s.cache_lookups,
                    smt_sessions: s.smt_sessions,
                    smt_scoped_checks: s.smt_scoped_checks,
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
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"outcome\": \"{}\", \"wall_s\": {:.6}, \"smt_queries\": {}, \"cache_hits\": {}, \"cache_lookups\": {}, \"smt_sessions\": {}, \"smt_scoped_checks\": {}, \"jobs\": {}, \"initial_quals\": {}, \"qstar_scopes\": {}, \"qstar_s\": {:.6}, \"embed_nodes_built\": {}, \"embed_nodes_reused\": {},",
            r.name, outcome, r.wall_s, r.smt_queries, r.cache_hits, r.cache_lookups,
            r.smt_sessions, r.smt_scoped_checks, r.jobs, r.initial_quals, r.qstar_scopes,
            r.qstar_s, r.embed_nodes_built, r.embed_nodes_reused
        );
        let _ = writeln!(out, "   \"metrics\": {}}}{}", r.metrics.to_json(3), sep);
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
