//! `benchmark` — times dsolve on one workload and checks every verdict.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml --bin benchmark -- \
//!     --workload <fig10-verify|fig10-capped|fleet|fig10-verify-j2|all> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
//! ```
//!
//! Prints a per-program table and every metric with its unit and sample
//! count, then, as the last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` pairs each run with a traced run
//! and reports the per-layer metrics. `--json FILE` also writes the full
//! record (per-program rows, work counters, verdict shares) for
//! `bench-diff`. Exit codes: 0 all verdicts right, 1 a wrong verdict,
//! 3 usage or set-up error. `all` runs each workload in its own process,
//! so that peak memory is per workload.

use dsolve_perfbench::measure::{measure, reference, speed_scale, Run, Sample};
use dsolve_perfbench::metrics::{self, median, Metric};
use dsolve_perfbench::workload::{self, Judgement, Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

const USAGE: &str = "usage: benchmark --workload <name|all> [--seed N] [--seconds S] \
[--trace 0|1] [--json FILE]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 25.0,
        trace: false,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--json" => args.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(3);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_one(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(3)
        }
    }
}

/// `--json FILE` for workload `w` of an `all` run: `FILE` with the
/// workload name before its extension.
fn json_for(path: &Path, w: &str) -> PathBuf {
    let stem = path
        .file_stem()
        .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
    let ext = path
        .extension()
        .map_or_else(String::new, |e| format!(".{}", e.to_string_lossy()));
    path.with_file_name(format!("{stem}.{w}{ext}"))
}

/// Runs every workload in a child process of its own, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::from(3);
        }
    };
    let mut worst = 0u8;
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(p) = &args.json {
            cmd.arg("--json").arg(json_for(p, w));
        }
        let code = match cmd.status() {
            Ok(s) => s.code().map_or(3, |c| c.clamp(0, 255) as u8),
            Err(e) => {
                eprintln!("benchmark: cannot run workload {w}: {e}");
                3
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}

/// Runs one workload; `Ok(false)` when a verdict is wrong.
fn run_one(args: &Args) -> Result<bool, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut loaded = None;
    let mut before = reference();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let w = workload::load(&args.workload)?;
        let elapsed = start.elapsed().as_secs_f64();
        let after = reference();
        setups.push(elapsed * speed_scale(before, after));
        before = after;
        loaded = Some(w);
    }
    let w = loaded.expect("SETUP_REPS > 0");
    let setup_s = median(&setups);

    let trace_dir = if args.trace {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
        let dir = exe.with_file_name("perfbench-trace").join(&w.name);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Some(dir)
    } else {
        None
    };
    let run = measure(&w, args.seconds, args.seed, trace_dir.as_deref())?;

    let all = run.untraced.iter().chain(&run.traced).flatten();
    let attempted = all.clone().count();
    let failed = all
        .clone()
        .filter(|s| s.judgement != Judgement::Right)
        .count();
    let correct = all.clone().all(|s| s.judgement != Judgement::Wrong);
    let shares = metrics::shares(&w, &run);
    let counters: Vec<Metric> = metrics::per_layer(&run)
        .into_iter()
        .filter(|m| m.unit == "count")
        .collect();
    let reported = if args.trace {
        metrics::per_layer_traced(&run)
    } else {
        metrics::end_to_end(&run, setup_s)
    };

    print_report(args, &w, &run, &reported, &setups, &shares);
    if let Some(dir) = &trace_dir {
        println!("traces: {}", dir.display());
    }
    let result = metrics::result_json(correct, attempted, failed, &reported);
    if let Some(path) = &args.json {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"jobs\": {},\n \
             \"result\": {result},\n \"shares\": {{\"decided_share\": {}, \"proved_share\": {}, \
             \"failed_share\": {}}},\n \"counters\": {},\n \"programs\": [{}]}}\n",
            w.name,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            w.jobs,
            shares.decided,
            shares.proved,
            shares.failed,
            metrics::metrics_json(&counters),
            program_rows(&w, &run).join(", "),
        );
        std::fs::write(path, record)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{result}");
    Ok(correct)
}

/// The leading word of a run's verdict (`SAFE`, `UNSAFE`, `UNKNOWN`,
/// `ERROR`).
fn verdict_word(s: &Sample) -> &'static str {
    match &s.outcome {
        Ok(dsolve_logic::Outcome::Safe) => "SAFE",
        Ok(dsolve_logic::Outcome::Unsafe) => "UNSAFE",
        Ok(dsolve_logic::Outcome::Unknown(_)) => "UNKNOWN",
        Err(_) => "ERROR",
    }
}

fn program_rows(w: &Workload, run: &Run) -> Vec<String> {
    w.programs
        .iter()
        .zip(&run.untraced)
        .map(|(p, samples)| {
            let times: Vec<f64> = samples.iter().map(Sample::seconds).collect();
            let wrong = samples.iter().filter(|s| s.judgement != Judgement::Right).count();
            format!(
                "{{\"name\": \"{}\", \"verdict\": \"{}\", \"runs\": {}, \"not_right\": {wrong}, \"median_s\": {}}}",
                p.name,
                samples.first().map_or("NONE", verdict_word),
                samples.len(),
                median(&times)
            )
        })
        .collect()
}

fn print_report(
    args: &Args,
    w: &Workload,
    run: &Run,
    reported: &[Metric],
    setups: &[f64],
    shares: &metrics::Shares,
) {
    let runs: usize = run.untraced.iter().map(Vec::len).sum();
    println!(
        "workload {}: {} programs, jobs {}, seed {}, {} s{}",
        w.name,
        w.programs.len(),
        w.jobs,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    for (p, samples) in w.programs.iter().zip(&run.untraced) {
        let scaled: Vec<f64> = samples.iter().map(Sample::seconds).collect();
        let raw: Vec<f64> = samples.iter().map(|s| s.elapsed).collect();
        let flag = match samples.iter().map(|s| s.judgement).max_by_key(|j| *j as u8) {
            Some(Judgement::Wrong) => "  WRONG",
            Some(Judgement::Failed) => "  FAILED",
            _ => "",
        };
        println!(
            "  {:<24} {:<8} {:>3} runs  median {:.3} s (unscaled {:.3} s){flag}",
            p.name,
            samples.first().map_or("NONE", verdict_word),
            samples.len(),
            median(&scaled),
            median(&raw)
        );
    }
    let scales: Vec<f64> = run.untraced.iter().flatten().map(|s| s.scale).collect();
    println!(
        "  host speed scale: median {:.3} over {} runs",
        median(&scales),
        scales.len()
    );
    let n = w.programs.len();
    for m in reported {
        let basis = match m.name {
            "wall_s" | "geomean_s" => format!("{n} per-program medians of {runs} runs"),
            "setup_s" => format!("median of {} set-ups", setups.len()),
            "peak_rss_mb" => "VmHWM after the first pass".to_string(),
            _ => format!("{n} programs, {runs} runs"),
        };
        println!("  {:<28} {:>14.6} {:<6} ({basis})", m.name, m.value, m.unit);
    }
    println!(
        "  decided_share {:.3}, proved_share {:.3}, failed_share {:.3} ({runs} runs)",
        shares.decided, shares.proved, shares.failed
    );
}
