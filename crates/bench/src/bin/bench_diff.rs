//! Benchmark regression gate over two `figure10 --json` files.
//!
//! ```text
//! bench_diff <baseline.json> <current.json>
//!     [--smoke] [--wall-threshold <pct>] [--query-threshold <pct>]
//! ```
//!
//! Exit status: 0 when the current run is no worse than the baseline,
//! 1 on a regression (verdict change, missing row, any change in a
//! `--jobs 1` row's SMT queries, cache lookups or fixpoint iterations,
//! or — outside `--smoke` — a wall-time or SMT-query increase past the
//! threshold, default +20%), 3 on usage or I/O errors. `--smoke` ignores
//! wall times (a committed baseline was produced on a different machine)
//! and reports other counter changes without failing the gate.

use dsolve_bench::diff::{diff, DiffOptions};

fn usage() -> ! {
    eprintln!(
        "usage: bench_diff <baseline.json> <current.json> [--smoke] \
         [--wall-threshold <pct>] [--query-threshold <pct>]"
    );
    std::process::exit(3);
}

fn read(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_diff: cannot read `{path}`: {e}");
            std::process::exit(3);
        }
    }
}

fn main() {
    let mut opts = DiffOptions::default();
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => opts.smoke = true,
            "--wall-threshold" => match args.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(pct) if pct > 0.0 => opts.wall_threshold = pct / 100.0,
                _ => usage(),
            },
            "--query-threshold" => match args.next().and_then(|s| s.parse::<f64>().ok()) {
                Some(pct) if pct > 0.0 => opts.query_threshold = pct / 100.0,
                _ => usage(),
            },
            "--help" | "-h" => usage(),
            f if !f.starts_with('-') => files.push(f.to_owned()),
            _ => usage(),
        }
    }
    let [baseline, current] = files.as_slice() else {
        usage()
    };
    let report = match diff(&read(baseline), &read(current), &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_diff: {e}");
            std::process::exit(3);
        }
    };
    for n in &report.notes {
        println!("note: {n}");
    }
    for r in &report.regressions {
        println!("REGRESSION: {r}");
    }
    if report.ok() {
        println!(
            "bench_diff: OK ({} mode, {} notes)",
            if opts.smoke { "smoke" } else { "full" },
            report.notes.len()
        );
    } else {
        println!("bench_diff: {} regression(s)", report.regressions.len());
        std::process::exit(1);
    }
}
