//! `dsolve-fleet` — the differential verification fleet.
//!
//! Generates a seeded, deterministic stream of NanoML datatype programs
//! (see `dsolve_nanoml::genprog`), runs each through the config
//! differential matrix (worker counts × cache × certify, and every
//! fault-injection point), and checks two oracles: no `SAFE` verdict
//! on a violation-seeded program (soundness vs. the interpreter), and
//! verdict agreement across configs modulo the degrade-to-`UNKNOWN`
//! lattice. Disagreements are auto-minimized into reproducers.
//!
//! ```text
//! dsolve-fleet --seed 42 --count 500 --matrix full
//! dsolve-fleet --seed 7 --count 100 --minimize --out-dir /tmp/repros
//! ```
//!
//! Exit codes: `0` clean, `1` at least one disagreement, `3` usage.

use dsolve::fleet::{
    disagreement_judge, fleet_budget, matrix_entries, minimize, run_fleet, CaseSources,
    FleetOptions, FleetVerdict, Matrix,
};
use dsolve_nanoml::genprog::{Expectation, Shape};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: dsolve-fleet [--seed N] [--count N] [--matrix soundness|quick|full] \
[--minimize] [--out-dir DIR] [--quiet]";

struct Args {
    seed: u64,
    count: u64,
    matrix: Matrix,
    minimize: bool,
    out_dir: Option<PathBuf>,
    quiet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 42,
        count: 100,
        matrix: Matrix::Full,
        minimize: false,
        out_dir: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--count" => {
                args.count = value("--count")?
                    .parse()
                    .map_err(|e| format!("--count: {e}"))?;
            }
            "--matrix" => {
                let v = value("--matrix")?;
                args.matrix =
                    Matrix::parse(&v).ok_or_else(|| format!("--matrix: unknown level '{v}'"))?;
            }
            "--minimize" => args.minimize = true,
            "--out-dir" => args.out_dir = Some(PathBuf::from(value("--out-dir")?)),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("dsolve-fleet: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(3);
        }
    };

    // Fault-injection entries panic by design and are caught by
    // `run_isolated`; the default hook would spray a backtrace per
    // injected fault. Real panics still surface as UNKNOWN(panic)
    // verdicts and matrix disagreements.
    std::panic::set_hook(Box::new(|_| {}));

    let opts = FleetOptions {
        matrix: args.matrix,
        ..FleetOptions::new(args.seed, args.count)
    };
    let summary = run_fleet(&opts);

    // Shape / expectation distribution and per-config verdict histogram.
    let mut shapes: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut violating = 0u64;
    let mut histogram: BTreeMap<String, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for case in &summary.cases {
        let shape = match case.program.shape {
            Shape::Arith => "arith",
            Shape::List => "list",
            Shape::Tree => "tree",
        };
        *shapes.entry(shape).or_default() += 1;
        if matches!(case.program.expectation, Expectation::Violating { .. }) {
            violating += 1;
        }
        for (label, v) in &case.verdicts {
            let bucket = match v {
                FleetVerdict::Safe => "safe",
                FleetVerdict::Unsafe => "unsafe",
                FleetVerdict::Unknown => "unknown",
                FleetVerdict::Error(_) => "error",
            };
            *histogram
                .entry(label.clone())
                .or_default()
                .entry(bucket)
                .or_default() += 1;
        }
    }

    if !args.quiet {
        let shape_str: Vec<String> = shapes.iter().map(|(s, n)| format!("{s}={n}")).collect();
        println!(
            "fleet: seed={} count={} configs={} shapes[{}] violating={} safe-constructed={}",
            args.seed,
            args.count,
            matrix_entries(args.matrix).len(),
            shape_str.join(" "),
            violating,
            args.count - violating,
        );
        for (label, buckets) in &histogram {
            let b: Vec<String> = buckets.iter().map(|(k, n)| format!("{k}={n}")).collect();
            println!("  {label:<22} {}", b.join(" "));
        }
        println!("digest: {:016x}", summary.digest);
    }

    if summary.disagreements.is_empty() {
        if !args.quiet {
            println!("fleet: no disagreements");
        }
        return ExitCode::SUCCESS;
    }

    eprintln!("fleet: {} disagreement(s)", summary.disagreements.len());
    for (name, d) in &summary.disagreements {
        eprintln!("  {name}: {d}");
    }

    if args.minimize {
        let out_dir = args
            .out_dir
            .unwrap_or_else(|| PathBuf::from("fleet-repros"));
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("dsolve-fleet: cannot create {}: {e}", out_dir.display());
            return ExitCode::from(3);
        }
        for case in summary.cases.iter().filter(|c| c.disagreement.is_some()) {
            let d = case.disagreement.clone().expect("filtered");
            let mut judge = disagreement_judge(d.clone(), args.matrix, fleet_budget());
            let min = minimize(CaseSources::of(&case.program), &mut judge, 400);
            let stem = out_dir.join(&case.program.name);
            let write = |ext: &str, body: &str| std::fs::write(stem.with_extension(ext), body);
            let expect = format!(
                "# disagreement: {d}\n# expectation: {:?}\n",
                case.program.expectation
            );
            if let Err(e) = write("ml", &min.source)
                .and_then(|()| write("mlq", &min.mlq))
                .and_then(|()| write("quals", &min.quals))
                .and_then(|()| write("expect", &expect))
            {
                eprintln!("dsolve-fleet: cannot write reproducer: {e}");
            } else {
                eprintln!(
                    "  minimized {} to {} source line(s) -> {}.ml",
                    case.program.name,
                    min.source_lines(),
                    stem.display()
                );
            }
        }
    }

    ExitCode::FAILURE
}
