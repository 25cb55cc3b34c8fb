//! The differential verification fleet.
//!
//! Runs generated NanoML programs ([`dsolve_nanoml::genprog`]) through a
//! **config differential matrix** — worker counts, query cache on/off,
//! `--certify`, and every deterministic fault-injection point — and
//! checks two oracles:
//!
//! 1. **Soundness vs. the interpreter.** Generation is oracle-aware: a
//!    violation-seeded program concretely fails its assertion under the
//!    big-step interpreter, so any configuration reporting `SAFE` for it
//!    has a soundness bug.
//! 2. **Verdict agreement modulo the degrade lattice.** All
//!    configurations must agree on the verdict, except that any of them
//!    may degrade to `UNKNOWN` (budgets, injected faults, failed
//!    certificates). Two *definite* verdicts that differ (`SAFE` vs
//!    `UNSAFE`) are a determinism/robustness bug.
//!
//! Any disagreement is shrunk by [`minimize`] — a delta-debugging loop
//! that drops top-level items, drops qualifier lines and `.mlq`
//! paragraphs, and shrinks integer literals, re-checking the
//! disagreement after each candidate reduction — into a minimal
//! reproducer for the regression corpus
//! (`crates/dsolve/tests/corpus/`).

use crate::driver::{Job, JobError, JobResult};
use dsolve_liquid::SolveConfig;
use dsolve_logic::{Budget, FaultPlan, FaultPoint, Outcome};
use dsolve_nanoml::genprog::{first_assert_failure, generate, Expectation, GenProgram};
use dsolve_obs::Obs;
use std::fmt;
use std::sync::Arc;

/// Runs one program through the whole pipeline with an explicit
/// configuration — the single in-process entry point shared by the
/// fleet, the `dsolve` CLI, and the `figure10` harness (all of which go
/// through [`Job`]).
///
/// # Errors
///
/// Front-end failures (parse/resolve/HM/spec) and isolated panics;
/// verification failures are reported in the result.
pub fn run_program(
    name: &str,
    source: &str,
    mlq: &str,
    quals: &str,
    config: SolveConfig,
) -> Result<JobResult, JobError> {
    let mut job = Job::from_sources(name, source, mlq, quals);
    job.config = config;
    job.run_isolated()
}

/// A fleet verdict: the three-valued outcome plus `Error` for programs
/// the front end rejected (which the generator promises never happens —
/// an `Error` is itself a fleet failure).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FleetVerdict {
    /// Verified safe.
    Safe,
    /// An obligation concretely failed.
    Unsafe,
    /// Degraded: budget, fault, quarantine, or failed certificate.
    Unknown,
    /// Front-end error (carries the message).
    Error(String),
}

impl FleetVerdict {
    /// Whether this is a definite (non-degradable) verdict.
    pub fn definite(&self) -> bool {
        matches!(self, FleetVerdict::Safe | FleetVerdict::Unsafe)
    }

    fn of(result: &Result<JobResult, JobError>) -> FleetVerdict {
        match result {
            Ok(res) => match res.outcome() {
                Outcome::Safe => FleetVerdict::Safe,
                Outcome::Unsafe => FleetVerdict::Unsafe,
                Outcome::Unknown(_) => FleetVerdict::Unknown,
            },
            Err(JobError::Panic(_)) => FleetVerdict::Unknown,
            Err(e) => FleetVerdict::Error(e.to_string()),
        }
    }
}

impl fmt::Display for FleetVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetVerdict::Safe => f.write_str("SAFE"),
            FleetVerdict::Unsafe => f.write_str("UNSAFE"),
            FleetVerdict::Unknown => f.write_str("UNKNOWN"),
            FleetVerdict::Error(m) => write!(f, "ERROR({m})"),
        }
    }
}

/// How much of the config matrix a fleet run exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Matrix {
    /// Sequential clean config only — the pure solver-vs-interpreter
    /// soundness oracle, cheapest per program.
    Soundness,
    /// Clean configs across the {jobs, cache, certify} dimensions, one
    /// toggle each.
    Quick,
    /// `Quick` plus every deterministic fault-injection point.
    Full,
}

impl Matrix {
    /// Parses a `--matrix` argument.
    pub fn parse(s: &str) -> Option<Matrix> {
        match s {
            "soundness" => Some(Matrix::Soundness),
            "quick" => Some(Matrix::Quick),
            "full" => Some(Matrix::Full),
            _ => None,
        }
    }
}

/// One configuration in the differential matrix.
#[derive(Clone, Copy)]
pub struct MatrixEntry {
    /// Stable label used in reports and digests.
    pub label: &'static str,
    /// Worker threads.
    jobs: usize,
    /// Disable the shared query cache.
    no_cache: bool,
    /// Certify every definite SMT verdict.
    certify: bool,
    /// Fault-injection spec (`point[@N]`), if any.
    fault: Option<&'static str>,
}

impl MatrixEntry {
    const fn clean(label: &'static str, jobs: usize, no_cache: bool, certify: bool) -> MatrixEntry {
        MatrixEntry {
            label,
            jobs,
            no_cache,
            certify,
            fault: None,
        }
    }

    const fn faulty(label: &'static str, jobs: usize, fault: &'static str) -> MatrixEntry {
        MatrixEntry {
            label,
            jobs,
            no_cache: false,
            certify: false,
            fault: Some(fault),
        }
    }

    /// Builds the [`SolveConfig`] for this entry. Fault plans are
    /// created fresh per run — their occurrence counters are stateful.
    pub fn config(&self, budget: Budget) -> SolveConfig {
        let mut c = SolveConfig {
            budget,
            jobs: self.jobs,
            obs: Obs::new(),
            ..SolveConfig::default()
        };
        c.smt.cache = !self.no_cache;
        c.smt.certify = self.certify;
        if let Some(spec) = self.fault {
            c.fault = Some(Arc::new(
                FaultPlan::parse(spec).expect("matrix fault specs are valid"),
            ));
        }
        c
    }
}

/// The clean baseline configuration every differential compares against.
const BASELINE: MatrixEntry = MatrixEntry::clean("seq", 1, false, false);

/// The config entries of each matrix level. `Full` covers {jobs 1/4} ×
/// {cache on/off} and {jobs 1/4} × {certify}, plus one entry per
/// fault-injection point.
pub fn matrix_entries(matrix: Matrix) -> &'static [MatrixEntry] {
    const SOUNDNESS: &[MatrixEntry] = &[BASELINE];
    const QUICK: &[MatrixEntry] = &[
        BASELINE,
        MatrixEntry::clean("par4", 4, false, false),
        MatrixEntry::clean("nocache", 1, true, false),
        MatrixEntry::clean("certify", 1, false, true),
    ];
    const FULL: &[MatrixEntry] = &[
        BASELINE,
        MatrixEntry::clean("par4", 4, false, false),
        MatrixEntry::clean("nocache", 1, true, false),
        MatrixEntry::clean("certify", 1, false, true),
        MatrixEntry::clean("par4-nocache", 4, true, false),
        MatrixEntry::clean("par4-certify", 4, false, true),
        MatrixEntry::faulty("fault-worker-panic", 2, "worker-panic@1"),
        MatrixEntry::faulty("fault-session-fail", 1, "session-fail@1"),
        MatrixEntry::faulty("fault-cache-poison", 2, "cache-poison"),
        MatrixEntry::faulty("fault-query-timeout", 1, "query-timeout@2"),
        MatrixEntry::faulty("fault-trace-io", 1, "trace-io"),
    ];
    match matrix {
        Matrix::Soundness => SOUNDNESS,
        Matrix::Quick => QUICK,
        Matrix::Full => FULL,
    }
}

/// A disagreement the fleet's oracles caught.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Disagreement {
    /// A violation-seeded program (the interpreter concretely fails its
    /// assertion) was reported `SAFE` — a soundness bug.
    Soundness {
        /// Configs that reported `SAFE`.
        configs: Vec<String>,
    },
    /// Two configurations reported differing *definite* verdicts —
    /// outside the degrade-to-`UNKNOWN` lattice.
    MatrixFlip {
        /// First config label and its verdict.
        a: (String, FleetVerdict),
        /// Second config label and its conflicting verdict.
        b: (String, FleetVerdict),
    },
    /// The front end rejected a generated program (generator bug).
    FrontendError {
        /// Config label and error message.
        config: String,
        /// The front-end error.
        message: String,
    },
}

impl fmt::Display for Disagreement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Disagreement::Soundness { configs } => {
                write!(
                    f,
                    "soundness: SAFE on violation-seeded program under {}",
                    configs.join(", ")
                )
            }
            Disagreement::MatrixFlip { a, b } => {
                write!(f, "matrix flip: {}={} vs {}={}", a.0, a.1, b.0, b.1)
            }
            Disagreement::FrontendError { config, message } => {
                write!(f, "front-end error under {config}: {message}")
            }
        }
    }
}

/// One program's trip through the matrix.
#[derive(Clone, Debug)]
pub struct CaseReport {
    /// The generated program.
    pub program: GenProgram,
    /// `(config label, verdict)` per matrix entry, in matrix order.
    pub verdicts: Vec<(String, FleetVerdict)>,
    /// The disagreement, if the oracles caught one.
    pub disagreement: Option<Disagreement>,
}

/// Runs one generated program through every matrix entry and applies
/// both oracles.
pub fn run_case(program: &GenProgram, matrix: Matrix, budget: Budget) -> CaseReport {
    let mut verdicts: Vec<(String, FleetVerdict)> = Vec::new();
    for entry in matrix_entries(matrix) {
        let mut config = entry.config(budget);
        // `trace-io` only fires on the trace-writer path, so this entry
        // attaches a real (throwaway) trace sink and fails it, the same
        // way the CLI does.
        let mut trace_path = None;
        if entry.fault == Some("trace-io") {
            let path = std::env::temp_dir().join(format!(
                "dsolve-fleet-trace-{}-{}.json",
                std::process::id(),
                program.name
            ));
            if let Ok(obs) = Obs::with_trace(&path) {
                if let Some(plan) = &config.fault {
                    if plan.fire(FaultPoint::TraceIo) {
                        obs.simulate_trace_io_failure();
                    }
                }
                config.obs = obs;
                trace_path = Some(path);
            }
        }
        let result = run_program(
            &program.name,
            &program.source,
            &program.mlq,
            &program.quals,
            config,
        );
        if let Some(path) = trace_path {
            let _ = std::fs::remove_file(path);
        }
        verdicts.push((entry.label.to_string(), FleetVerdict::of(&result)));
    }
    let disagreement = check_verdicts(program.expectation, &verdicts);
    CaseReport {
        program: program.clone(),
        verdicts,
        disagreement,
    }
}

/// Applies the soundness and lattice-agreement oracles to a verdict set.
pub fn check_verdicts(
    expectation: Expectation,
    verdicts: &[(String, FleetVerdict)],
) -> Option<Disagreement> {
    for (label, v) in verdicts {
        if let FleetVerdict::Error(message) = v {
            return Some(Disagreement::FrontendError {
                config: label.clone(),
                message: message.clone(),
            });
        }
    }
    if matches!(expectation, Expectation::Violating { .. }) {
        let safe: Vec<String> = verdicts
            .iter()
            .filter(|(_, v)| *v == FleetVerdict::Safe)
            .map(|(l, _)| l.clone())
            .collect();
        if !safe.is_empty() {
            return Some(Disagreement::Soundness { configs: safe });
        }
    }
    // Agreement modulo the degrade lattice: all *definite* verdicts must
    // coincide; UNKNOWN is always an allowed degradation.
    let mut first_definite: Option<&(String, FleetVerdict)> = None;
    for pair in verdicts {
        if !pair.1.definite() {
            continue;
        }
        match first_definite {
            None => first_definite = Some(pair),
            Some(a) if a.1 != pair.1 => {
                return Some(Disagreement::MatrixFlip {
                    a: (a.0.clone(), a.1.clone()),
                    b: (pair.0.clone(), pair.1.clone()),
                });
            }
            Some(_) => {}
        }
    }
    None
}

/// Options for a whole fleet run.
#[derive(Clone, Copy, Debug)]
pub struct FleetOptions {
    /// Fleet seed: pins programs *and* verdicts.
    pub seed: u64,
    /// Number of programs to generate.
    pub count: u64,
    /// Matrix level.
    pub matrix: Matrix,
    /// Per-run resource budget. The default is deterministic (no
    /// wall-clock deadline, a generous query cap), so a fleet run's
    /// verdicts are a pure function of the seed.
    pub budget: Budget,
}

impl FleetOptions {
    /// Deterministic defaults for `seed`/`count`.
    pub fn new(seed: u64, count: u64) -> FleetOptions {
        FleetOptions {
            seed,
            count,
            matrix: Matrix::Full,
            budget: fleet_budget(),
        }
    }
}

/// The fleet's per-run budget: deterministic (no wall clock) but
/// bounded (query cap), so a hung config degrades to `UNKNOWN` instead
/// of stalling the fleet and verdicts never depend on host speed.
pub fn fleet_budget() -> Budget {
    Budget {
        max_smt_queries: Some(50_000),
        ..Budget::default()
    }
}

/// Summary of a fleet run.
#[derive(Clone, Debug)]
pub struct FleetSummary {
    /// Every case, in index order.
    pub cases: Vec<CaseReport>,
    /// `(program name, disagreement)` for each failing case.
    pub disagreements: Vec<(String, Disagreement)>,
    /// Order-sensitive FNV digest over `(name, config, verdict)` — two
    /// runs of the same seed must produce the same digest (the fleet's
    /// end-to-end determinism check).
    pub digest: u64,
}

/// Runs the whole fleet: generate, verify across the matrix, apply the
/// oracles.
pub fn run_fleet(opts: &FleetOptions) -> FleetSummary {
    let mut cases = Vec::new();
    let mut disagreements = Vec::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut absorb = |s: &str| {
        for b in s.bytes() {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x100_0000_01b3);
        }
    };
    for i in 0..opts.count {
        let program = generate(opts.seed, i);
        let report = run_case(&program, opts.matrix, opts.budget);
        absorb(&program.name);
        for (label, v) in &report.verdicts {
            absorb(label);
            absorb(&v.to_string());
        }
        if let Some(d) = &report.disagreement {
            disagreements.push((program.name.clone(), d.clone()));
        }
        cases.push(report);
    }
    FleetSummary {
        cases,
        disagreements,
        digest,
    }
}

// ---------------------------------------------------------------------
// Delta-debugging minimizer
// ---------------------------------------------------------------------

/// The three source files of a fleet case, as the minimizer shrinks
/// them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaseSources {
    /// NanoML module source.
    pub source: String,
    /// `.mlq` specification.
    pub mlq: String,
    /// `.quals` qualifiers.
    pub quals: String,
}

impl CaseSources {
    /// Extracts the shrinkable sources from a generated program.
    pub fn of(p: &GenProgram) -> CaseSources {
        CaseSources {
            source: p.source.clone(),
            mlq: p.mlq.clone(),
            quals: p.quals.clone(),
        }
    }

    /// Non-blank source line count (the "≤ 30 lines" metric).
    pub fn source_lines(&self) -> usize {
        self.source.lines().filter(|l| !l.trim().is_empty()).count()
    }
}

/// Splits a module into top-level items: a new item starts at a line
/// whose first column is non-blank, except `and` continuations.
fn split_items(source: &str) -> Vec<String> {
    let mut items: Vec<String> = Vec::new();
    for line in source.lines() {
        let starts_item =
            line.chars().next().is_some_and(|c| !c.is_whitespace()) && !line.starts_with("and ");
        if starts_item || items.is_empty() {
            items.push(line.to_string());
        } else {
            let last = items.last_mut().expect("non-empty");
            last.push('\n');
            last.push_str(line);
        }
    }
    items.retain(|i| !i.trim().is_empty());
    items
}

/// Splits an `.mlq` file into blank-line-separated paragraphs
/// (measures, rhos, val specs).
fn split_paragraphs(mlq: &str) -> Vec<String> {
    mlq.split("\n\n")
        .map(str::trim_end)
        .filter(|p| !p.trim().is_empty())
        .map(str::to_string)
        .collect()
}

/// Delta-debugging minimizer: shrinks `sources` while `judge` keeps
/// returning `true` ("the disagreement still reproduces").
///
/// Reduction passes, iterated to a fixpoint:
/// 1. drop whole top-level items (functions, datatypes, checks) —
///    bottom-up, so checks go before the library they use;
/// 2. drop `.mlq` paragraphs and `.quals` lines;
/// 3. shrink integer literals in the module source (towards `0`, `1`,
///    and half).
///
/// `judge` is called once per candidate; reductions it rejects are
/// rolled back. The result is 1-minimal with respect to these
/// reductions. `max_judge_calls` bounds the work (the judge typically
/// re-runs the verifier).
pub fn minimize(
    sources: CaseSources,
    judge: &mut dyn FnMut(&CaseSources) -> bool,
    max_judge_calls: usize,
) -> CaseSources {
    let mut best = sources;
    let mut calls = 0usize;
    let mut try_candidate =
        |best: &mut CaseSources, candidate: CaseSources, calls: &mut usize| -> bool {
            if *calls >= max_judge_calls || candidate == *best {
                return false;
            }
            *calls += 1;
            if judge(&candidate) {
                *best = candidate;
                true
            } else {
                false
            }
        };

    for _round in 0..8 {
        let mut changed = false;

        // 1. Drop top-level items, bottom-up.
        let items = split_items(&best.source);
        for i in (0..items.len()).rev() {
            let current = split_items(&best.source);
            if i >= current.len() {
                continue;
            }
            let mut kept = current.clone();
            kept.remove(i);
            let candidate = CaseSources {
                source: kept.join("\n"),
                ..best.clone()
            };
            changed |= try_candidate(&mut best, candidate, &mut calls);
        }

        // 2a. Drop `.mlq` paragraphs.
        let paras = split_paragraphs(&best.mlq);
        for i in (0..paras.len()).rev() {
            let current = split_paragraphs(&best.mlq);
            if i >= current.len() {
                continue;
            }
            let mut kept = current.clone();
            kept.remove(i);
            let mlq = if kept.is_empty() {
                String::new()
            } else {
                kept.join("\n\n") + "\n"
            };
            let candidate = CaseSources {
                mlq,
                ..best.clone()
            };
            changed |= try_candidate(&mut best, candidate, &mut calls);
        }

        // 2b. Drop `.quals` lines.
        let quals: Vec<&str> = best.quals.lines().collect();
        for i in (0..quals.len()).rev() {
            let current: Vec<String> = best.quals.lines().map(str::to_string).collect();
            if i >= current.len() {
                continue;
            }
            let mut kept = current.clone();
            kept.remove(i);
            let quals = if kept.is_empty() {
                String::new()
            } else {
                kept.join("\n") + "\n"
            };
            let candidate = CaseSources {
                quals,
                ..best.clone()
            };
            changed |= try_candidate(&mut best, candidate, &mut calls);
        }

        // 3. Shrink integer literals in the module source.
        changed |= shrink_literals(&mut best, &mut |b, c| try_candidate(b, c, &mut calls));

        if !changed || calls >= max_judge_calls {
            break;
        }
    }
    best
}

/// One pass of literal shrinking over the module source: for each
/// maximal digit run, try `0`, `1`, and `n/2`.
fn shrink_literals(
    best: &mut CaseSources,
    try_candidate: &mut dyn FnMut(&mut CaseSources, CaseSources) -> bool,
) -> bool {
    let mut changed = false;
    let mut pos = 0usize;
    loop {
        let src = best.source.clone();
        let bytes = src.as_bytes();
        // Find the next digit run at or after `pos`.
        let Some(start) = (pos..bytes.len()).find(|&i| bytes[i].is_ascii_digit()) else {
            break;
        };
        let end = (start..bytes.len())
            .find(|&i| !bytes[i].is_ascii_digit())
            .unwrap_or(bytes.len());
        let lit = &src[start..end];
        let n: u64 = lit.parse().unwrap_or(0);
        let mut replaced = false;
        for candidate_val in [0u64, 1, n / 2] {
            if candidate_val.to_string() == lit || (candidate_val == 0 && n == 0) {
                continue;
            }
            let mut s = String::with_capacity(src.len());
            s.push_str(&src[..start]);
            s.push_str(&candidate_val.to_string());
            s.push_str(&src[end..]);
            let candidate = CaseSources {
                source: s,
                ..best.clone()
            };
            if try_candidate(best, candidate) {
                changed = true;
                replaced = true;
                break;
            }
        }
        // Move past this literal (in the possibly-updated source the
        // replacement is never longer than the original).
        pos = if replaced { start + 1 } else { end };
        if pos >= best.source.len() {
            break;
        }
    }
    changed
}

/// Builds a judge that reproduces a specific disagreement with the real
/// pipeline: re-runs only the configs involved (plus the interpreter
/// for soundness cases).
pub fn disagreement_judge(
    disagreement: Disagreement,
    matrix: Matrix,
    budget: Budget,
) -> impl FnMut(&CaseSources) -> bool {
    let entries = matrix_entries(matrix);
    let entry_of = move |label: &str| entries.iter().find(|e| e.label == label).copied();
    move |s: &CaseSources| {
        let verdict = |entry: &MatrixEntry| {
            FleetVerdict::of(&run_program(
                "minimize",
                &s.source,
                &s.mlq,
                &s.quals,
                entry.config(budget),
            ))
        };
        match &disagreement {
            Disagreement::Soundness { configs } => {
                // The interpreter must still concretely fail an assertion.
                if !matches!(first_assert_failure(&s.source), Ok(Some(_))) {
                    return false;
                }
                configs
                    .iter()
                    .any(|label| entry_of(label).is_some_and(|e| verdict(&e) == FleetVerdict::Safe))
            }
            Disagreement::MatrixFlip { a, b } => {
                let (Some(ea), Some(eb)) = (entry_of(&a.0), entry_of(&b.0)) else {
                    return false;
                };
                let (va, vb) = (verdict(&ea), verdict(&eb));
                va.definite() && vb.definite() && va != vb
            }
            Disagreement::FrontendError { config, .. } => {
                entry_of(config).is_some_and(|e| matches!(verdict(&e), FleetVerdict::Error(_)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_items_respects_continuations() {
        let src = "let a = 1\nlet rec f x =\n  match x with\n  | [] -> 0\nand g y = f y\nlet b = 2";
        let items = split_items(src);
        assert_eq!(items.len(), 3);
        assert!(items[1].contains("and g"));
    }

    #[test]
    fn lattice_allows_unknown_but_not_flips() {
        let v = |s: &str| match s {
            "S" => FleetVerdict::Safe,
            "U" => FleetVerdict::Unsafe,
            _ => FleetVerdict::Unknown,
        };
        let mk = |vs: &[&str]| -> Vec<(String, FleetVerdict)> {
            vs.iter()
                .enumerate()
                .map(|(i, s)| (format!("c{i}"), v(s)))
                .collect()
        };
        assert_eq!(
            check_verdicts(Expectation::Safe, &mk(&["S", "S", "?"])),
            None
        );
        assert_eq!(
            check_verdicts(Expectation::Safe, &mk(&["U", "?", "U"])),
            None
        );
        assert!(matches!(
            check_verdicts(Expectation::Safe, &mk(&["S", "U"])),
            Some(Disagreement::MatrixFlip { .. })
        ));
        assert!(matches!(
            check_verdicts(Expectation::Violating { line: 1 }, &mk(&["S", "S"])),
            Some(Disagreement::Soundness { .. })
        ));
        // UNSAFE on a violation-seeded program is the *expected* answer.
        assert_eq!(
            check_verdicts(Expectation::Violating { line: 1 }, &mk(&["U", "?"])),
            None
        );
    }

    #[test]
    fn minimizer_reaches_small_core() {
        // A judge that only cares about one line surviving.
        let sources = CaseSources {
            source: "let a = 1\nlet b = 2\nlet keep = assert (0 <= 1)\nlet c = 3".into(),
            mlq: "measure m : 'a list -> int =\n| Nil -> 0\n| Cons (x, xs) -> 1 + m(xs)\n".into(),
            quals: "qualif Nat : 0 <= VV\nqualif Ub : _ <= VV\n".into(),
        };
        let mut judge = |s: &CaseSources| s.source.contains("keep");
        let min = minimize(sources, &mut judge, 1000);
        assert_eq!(min.source, "let keep = assert (0 <= 1)");
        assert_eq!(min.mlq, "");
        assert_eq!(min.quals, "");
    }
}
