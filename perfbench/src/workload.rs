//! The four workloads: which programs each runs, under which budget and
//! worker count, and what answer each program must get.

use dsolve_logic::{Budget, Outcome, Resource};
use dsolve_nanoml::genprog::{generate, Expectation, FleetRng};
use std::path::{Path, PathBuf};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["fig10-verify", "fig10-capped", "fleet", "fig10-verify-j2"];

/// The Fig. 10 rows that reach a verdict: each is run to SAFE with no cap.
pub const FIG10_VERIFY: &[&str] = &["ralist", "stablesort", "malloc", "bdd", "subvsolve"];

/// The Fig. 10 rows that do not reach a verdict, each with the liquid
/// fixpoint-iteration cap it runs under. A cap does the same work on
/// every run, so the time is not censored by a wall clock. Where a row
/// has one iteration whose queries are expensive (listsort 233, heap 52,
/// unionfind 98), the cap sits just past it, so that stuck iteration is
/// what gets timed; vec and map are expensive from their first
/// iterations on.
pub const FIG10_CAPPED: &[(&str, u64)] = &[
    ("listsort", 233),
    ("splayheap", 100),
    ("heap", 52),
    ("map", 10),
    ("redblack", 100),
    ("unionfind", 98),
    ("vec", 20),
];

/// The generator seed of the `fleet` workload. The program set is fixed
/// so that every `--seed` measures the same work: across generator
/// seeds, the time of 60 programs varies by ±15%. `--seed` only orders
/// the runs.
pub const FLEET_SEED: u64 = 42;

/// Programs in the `fleet` workload: `generate(FLEET_SEED, i)` for
/// `i < FLEET_COUNT`.
pub const FLEET_COUNT: u64 = 60;

/// The answer a program is known to have.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// A Fig. 10 row, which the paper verifies: it must be SAFE.
    Proved,
    /// Runs clean under the interpreter: SAFE, or UNSAFE because liquid
    /// inference is incomplete.
    Clean,
    /// Fails an assertion under the interpreter: SAFE would be unsound.
    Violating,
}

/// How one run of a program compares with its known answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Judgement {
    /// The verdict agrees with the known answer, or the program stopped
    /// at the workload's own cap.
    Right,
    /// A job error, a panic, or UNKNOWN for any resource other than the
    /// workload's own cap.
    Failed,
    /// The verdict contradicts the known answer.
    Wrong,
}

/// Judges one verdict. `cap` is the resource whose exhaustion the
/// workload expects (its own cap), if any.
pub fn judge(expect: Expect, cap: Option<Resource>, outcome: &Outcome) -> Judgement {
    match (outcome, expect) {
        (Outcome::Safe, Expect::Violating) | (Outcome::Unsafe, Expect::Proved) => Judgement::Wrong,
        (Outcome::Safe | Outcome::Unsafe, _) => Judgement::Right,
        (Outcome::Unknown(e), _) if Some(e.resource) == cap => Judgement::Right,
        (Outcome::Unknown(_), _) => Judgement::Failed,
    }
}

/// One input program with its known answer and budget.
#[derive(Clone, Debug)]
pub struct Program {
    /// Row or generated-program name.
    pub name: String,
    /// NanoML source.
    pub source: String,
    /// `.mlq` specification.
    pub mlq: String,
    /// `.quals` qualifiers.
    pub quals: String,
    /// The known answer.
    pub expect: Expect,
    /// Resource limits for one run.
    pub budget: Budget,
}

/// A named set of programs run with one worker count.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Workload name.
    pub name: String,
    /// Fixpoint worker threads.
    pub jobs: usize,
    /// The resource the workload's budgets cap, whose exhaustion is an
    /// expected UNKNOWN.
    pub cap: Option<Resource>,
    /// The programs, in definition order.
    pub programs: Vec<Program>,
}

impl Workload {
    /// A random order of the program indices, drawn from `rng`.
    pub fn shuffled(&self, rng: &mut FleetRng) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.programs.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        order
    }
}

/// The repository's `benchmarks/` directory.
pub fn benchmarks_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("benchmarks")
}

/// Reads Fig. 10 row `name` from `dir` with the given budget.
pub fn fig10_row(dir: &Path, name: &str, budget: Budget) -> Result<Program, String> {
    let read = |ext: &str| {
        let path = dir.join(format!("{name}.{ext}"));
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    Ok(Program {
        name: name.to_string(),
        source: read("ml")?,
        mlq: read("mlq")?,
        quals: read("quals")?,
        expect: Expect::Proved,
        budget,
    })
}

/// Generated fleet program `index` with its interpreter-confirmed answer.
pub fn fleet_program(seed: u64, index: u64) -> Program {
    let p = generate(seed, index);
    Program {
        expect: match p.expectation {
            Expectation::Safe => Expect::Clean,
            Expectation::Violating { .. } => Expect::Violating,
        },
        name: p.name,
        source: p.source,
        mlq: p.mlq,
        quals: p.quals,
        budget: dsolve::fleet::fleet_budget(),
    }
}

/// Builds workload `name`: reads or generates its inputs and checks that
/// each one parses. This is the benchmark's set-up.
pub fn load(name: &str) -> Result<Workload, String> {
    let dir = benchmarks_dir();
    let verify = |jobs: usize| -> Result<Workload, String> {
        Ok(Workload {
            name: name.to_string(),
            jobs,
            cap: None,
            programs: FIG10_VERIFY
                .iter()
                .map(|row| fig10_row(&dir, row, Budget::default()))
                .collect::<Result<_, _>>()?,
        })
    };
    let w = match name {
        "fig10-verify" => verify(1)?,
        "fig10-verify-j2" => verify(2)?,
        "fig10-capped" => Workload {
            name: name.to_string(),
            jobs: 1,
            cap: Some(Resource::FixpointIterations),
            programs: FIG10_CAPPED
                .iter()
                .map(|&(row, cap)| {
                    let budget = Budget {
                        max_fixpoint_iterations: cap,
                        ..Budget::default()
                    };
                    fig10_row(&dir, row, budget)
                })
                .collect::<Result<_, _>>()?,
        },
        "fleet" => Workload {
            name: name.to_string(),
            jobs: 1,
            cap: Some(Resource::SmtQueries),
            programs: (0..FLEET_COUNT)
                .map(|i| fleet_program(FLEET_SEED, i))
                .collect(),
        },
        other => {
            return Err(format!(
                "unknown workload `{other}` (known: {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    validate(&w)?;
    Ok(w)
}

/// Checks that every program and qualifier file parses, so that the
/// timed runs meet no malformed input.
pub fn validate(w: &Workload) -> Result<(), String> {
    for p in &w.programs {
        dsolve_nanoml::parse_program(&p.source).map_err(|e| format!("{}: {e}", p.name))?;
        dsolve::parse_quals(&p.quals).map_err(|e| format!("{}: {e}", p.name))?;
    }
    Ok(())
}
