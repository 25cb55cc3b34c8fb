//! The DSOLVE driver: ties a `.ml` module, its `.mlq` specification, and
//! its `.quals` qualifiers into one verification run with timing and a
//! Figure-10-style report row.

use crate::spec::{parse_mlq, parse_quals, SpecError, SpecFile};
use dsolve_liquid::{builtin_schemes, MeasureEnv, SolveConfig, Verifier, VerifyResult};
use dsolve_logic::{Exhaustion, FaultPoint, Outcome, Phase, Qualifier, Resource, SortEnv};
use dsolve_nanoml::{infer_program, parse_program, resolve_program, DataEnv};
use dsolve_obs::ObsPhase;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// A complete verification job.
pub struct Job {
    /// Module name (for reports).
    pub name: String,
    /// NanoML source.
    pub source: String,
    /// `.mlq` specification source (may be empty).
    pub mlq: String,
    /// `.quals` qualifier source (may be empty).
    pub quals: String,
    /// Solver configuration.
    pub config: SolveConfig,
}

/// The outcome of running a job.
pub struct JobResult {
    /// Verification outcome.
    pub result: VerifyResult,
    /// Wall-clock verification time (excludes parsing).
    pub time: Duration,
    /// Wall-clock time in the front end (parse, resolve, HM inference,
    /// spec processing).
    pub frontend_time: Duration,
    /// Lines of code (non-blank, non-comment) in the module.
    pub loc: usize,
    /// Number of manual qualifier annotations.
    pub annotations: usize,
    /// Number of measures in the specification.
    pub measures: usize,
    /// Observability snapshot for this job: counters, phase/theory time,
    /// query-latency histogram, and the top expensive constraints (taken
    /// from the job's [`SolveConfig::obs`] registry after verification).
    pub metrics: dsolve_obs::Snapshot,
}

impl JobResult {
    /// Whether the module verified within budget.
    pub fn is_safe(&self) -> bool {
        self.result.is_safe()
    }

    /// The three-valued verdict.
    pub fn outcome(&self) -> &Outcome {
        &self.result.outcome
    }
}

/// An error running a job (front-end failures and isolated panics).
#[derive(Debug)]
pub enum JobError {
    /// Parse/resolve/type error in the module.
    Frontend(String),
    /// Error in the `.mlq` or `.quals` file.
    Spec(SpecError),
    /// IO error loading files.
    Io(std::io::Error),
    /// The job panicked and was isolated by [`Job::run_isolated`].
    Panic(String),
}

impl JobError {
    /// The outcome a failed job contributes to a report: front-end and
    /// spec failures are definite errors, an isolated panic is `Unknown`.
    pub fn outcome(&self) -> Outcome {
        match self {
            JobError::Panic(msg) => Outcome::Unknown(Exhaustion::with_detail(
                Phase::Driver,
                Resource::Panic,
                msg.clone(),
            )),
            JobError::Frontend(_) | JobError::Spec(_) | JobError::Io(_) => Outcome::Unsafe,
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Frontend(m) => write!(f, "{m}"),
            JobError::Spec(e) => write!(f, "{e}"),
            JobError::Io(e) => write!(f, "io error: {e}"),
            JobError::Panic(m) => write!(f, "panic: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<SpecError> for JobError {
    fn from(e: SpecError) -> JobError {
        JobError::Spec(e)
    }
}

impl From<std::io::Error> for JobError {
    fn from(e: std::io::Error) -> JobError {
        JobError::Io(e)
    }
}

impl Job {
    /// Creates a job from in-memory sources.
    pub fn from_sources(
        name: impl Into<String>,
        source: impl Into<String>,
        mlq: impl Into<String>,
        quals: impl Into<String>,
    ) -> Job {
        Job {
            name: name.into(),
            source: source.into(),
            mlq: mlq.into(),
            quals: quals.into(),
            config: SolveConfig::default(),
        }
    }

    /// Loads `base.ml` with optional `base.mlq` and `base.quals` files
    /// next to it.
    ///
    /// # Errors
    ///
    /// Fails if the `.ml` file cannot be read.
    pub fn from_path(ml_path: impl AsRef<Path>) -> Result<Job, JobError> {
        let ml_path = ml_path.as_ref();
        let source = std::fs::read_to_string(ml_path)?;
        let read_opt = |ext: &str| -> String {
            std::fs::read_to_string(ml_path.with_extension(ext)).unwrap_or_default()
        };
        Ok(Job {
            name: ml_path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "module".into()),
            source,
            mlq: read_opt("mlq"),
            quals: read_opt("quals"),
            config: SolveConfig::default(),
        })
    }

    /// Counts non-blank, non-comment source lines (the paper's LOC
    /// metric).
    pub fn loc(&self) -> usize {
        count_loc(&self.source)
    }

    /// Runs the job.
    ///
    /// # Errors
    ///
    /// Front-end failures (parse, resolve, HM type errors, malformed
    /// specs). Verification *failures* are reported in the result, not as
    /// errors.
    pub fn run(&self) -> Result<JobResult, JobError> {
        let obs = self.config.obs.clone();
        let frontend_start = Instant::now();
        let prog = {
            let _span = obs.phase_span(ObsPhase::Parse);
            parse_program(&self.source).map_err(|e| JobError::Frontend(e.to_string()))?
        };
        let (prog, data) = {
            let _span = obs.phase_span(ObsPhase::Resolve);
            let mut data = DataEnv::with_builtins();
            data.add_program(&prog.datatypes)
                .map_err(|e| JobError::Frontend(e.to_string()))?;
            let prog =
                resolve_program(&prog, &data).map_err(|e| JobError::Frontend(e.to_string()))?;
            (prog, data)
        };

        let spec_span = obs.phase_span(ObsPhase::Spec);
        let spec_file: SpecFile = parse_mlq(&self.mlq, &data)?;
        let mut quals: Vec<Qualifier> = parse_quals(&self.quals)?;
        let annotations = quals.len() + spec_file.qualifiers.len();
        quals.extend(spec_file.qualifiers.iter().cloned());
        // §6: qualifiers scraped from the properties to be proved.
        quals.extend(crate::spec::scrape_qualifiers(&spec_file.specs));

        let mut measures = MeasureEnv::new();
        for m in &spec_file.measures {
            measures
                .add(m.clone(), &data, &SortEnv::new())
                .map_err(|e| JobError::Frontend(e.to_string()))?;
        }
        drop(spec_span);

        let (ml_builtins, _) = builtin_schemes();
        let mut typed = {
            let _span = obs.phase_span(ObsPhase::Infer);
            infer_program(&prog, &data, &ml_builtins)
                .map_err(|e| JobError::Frontend(e.to_string()))?
        };

        // Specifications act as the module interface: a binding whose
        // inferred ML scheme is *more general* than its spec (e.g. a
        // witness parameter like union-find's `rank`, §6.1) is
        // specialized to the spec's shape before verification, so the
        // invariants are expressible inside the body.
        for spec in &spec_file.specs {
            let spec_shape = spec.scheme.ty.shape();
            for tl in &mut typed.lets {
                for b in &mut tl.binds {
                    if b.name != spec.name {
                        continue;
                    }
                    let scheme = dsolve_nanoml::Scheme {
                        vars: b.scheme.vars.clone(),
                        ty: b.scheme.ty.clone(),
                    };
                    if let Some(inst) = dsolve_nanoml::match_instantiation(&scheme, &spec_shape) {
                        // Split the instantiation into renamings (spec
                        // variable for inferred variable — the binding
                        // stays polymorphic under the spec's ids) and
                        // proper specializations (the quantifier is
                        // dropped). Renamings must keep their target in
                        // `vars`: dropping it would leave a free type
                        // variable that can never be instantiated at
                        // occurrences.
                        let mut map = std::collections::HashMap::new();
                        let mut vars: Vec<u32> = Vec::new();
                        for (v, t) in b.scheme.vars.iter().copied().zip(inst) {
                            match t {
                                dsolve_nanoml::MlType::Var(u) => {
                                    if u != v {
                                        map.insert(v, dsolve_nanoml::MlType::Var(u));
                                    }
                                    if !vars.contains(&u) {
                                        vars.push(u);
                                    }
                                }
                                t => {
                                    map.insert(v, t);
                                }
                            }
                        }
                        if !map.is_empty() {
                            b.scheme.ty = b.scheme.ty.apply(&map);
                            b.scheme.vars = vars;
                            dsolve_nanoml::apply_types(&mut b.rhs, &map);
                        }
                    }
                }
            }
        }

        let verifier = Verifier::new(data, measures)
            .with_qualifiers(quals)
            .with_specs(spec_file.specs.clone())
            .with_config(self.config.clone());
        let frontend_time = frontend_start.elapsed();

        let start = Instant::now();
        let result = verifier.verify(&typed);
        let time = start.elapsed();

        Ok(JobResult {
            result,
            time,
            frontend_time,
            loc: self.loc(),
            annotations,
            measures: spec_file.measures.len(),
            metrics: obs.snapshot(5),
        })
    }

    /// Runs the job with panic isolation: a panic anywhere in the
    /// pipeline is caught and reported as [`JobError::Panic`], so a
    /// suite driver can keep going after one pathological module.
    ///
    /// The `job-panic@N` fault point in `config.fault` panics the `N`-th
    /// isolated run under that plan, exercising this path end to end.
    ///
    /// # Errors
    ///
    /// Everything [`Job::run`] reports, plus `Panic` for caught panics.
    pub fn run_isolated(&self) -> Result<JobResult, JobError> {
        catch_unwind(AssertUnwindSafe(|| {
            if self
                .config
                .fault
                .as_ref()
                .is_some_and(|f| f.fire(FaultPoint::JobPanic))
            {
                panic!("injected job panic in `{}`", self.name);
            }
            self.run()
        }))
        .unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            Err(JobError::Panic(msg))
        })
    }
}

/// Counts non-blank lines outside `(* ... *)` comments.
pub fn count_loc(src: &str) -> usize {
    let mut count = 0usize;
    let mut depth = 0i32;
    for line in src.lines() {
        let mut meaningful = false;
        let b = line.as_bytes();
        let mut i = 0;
        while i < b.len() {
            if i + 1 < b.len() && b[i] == b'(' && b[i + 1] == b'*' {
                depth += 1;
                i += 2;
            } else if i + 1 < b.len() && b[i] == b'*' && b[i + 1] == b')' {
                depth -= 1;
                i += 2;
            } else {
                if depth == 0 && !b[i].is_ascii_whitespace() {
                    meaningful = true;
                }
                i += 1;
            }
        }
        if meaningful {
            count += 1;
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_counting_skips_comments_and_blanks() {
        let src = "let x = 1\n\n(* a\n   comment *)\nlet y = 2  (* trailing *)\n";
        assert_eq!(count_loc(src), 2);
    }

    #[test]
    fn runs_fig1_job() {
        let job = Job::from_sources(
            "fig1",
            r#"
let rec range i j = if i > j then [] else i :: range (i + 1) j
let rec fold_left f acc xs =
  match xs with
  | [] -> acc
  | x :: rest -> fold_left f (f acc x) rest
let harmonic n =
  let ds = range 1 n in
  fold_left (fun s k -> s + 10000 / k) 0 ds
"#,
            "",
            "qualif Pos : 0 < VV\nqualif Ub : _ <= VV\n",
        );
        let res = job.run().unwrap();
        assert!(
            res.is_safe(),
            "{:?}",
            res.result.errors.first().map(|e| e.to_string())
        );
        assert_eq!(res.annotations, 2);
        assert_eq!(res.loc, 8);
    }

    #[test]
    fn runs_sortedness_job_via_mlq() {
        let job = Job::from_sources(
            "sort",
            r#"
let rec insert x vs =
  match vs with
  | [] -> [x]
  | y :: ys -> if x < y then x :: y :: ys else y :: insert x ys
let rec insertsort xs =
  match xs with
  | [] -> []
  | x :: rest -> insert x (insertsort rest)
"#,
            r#"
measure elts : 'a list -> set =
| Nil -> empty
| Cons (x, xs) -> union(single(x), elts(xs))

rho Sorted on list =
| Cons (h, t) -> t : [ Cons (h2, t2) -> h2 : { h <= VV } ]

val insertsort : xs : 'a list -> {VV : 'a list @Sorted | elts(VV) = elts(xs)}
"#,
            "qualif Ub : _ <= VV\nqualif E1 : elts(VV) = elts(_)\nqualif E2 : elts(VV) = union(single(_), elts(_))\n",
        );
        let res = job.run().unwrap();
        assert!(
            res.is_safe(),
            "{:?}",
            res.result
                .errors
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn reports_bugs() {
        let job = Job::from_sources(
            "bug",
            "let f x = assert (x = 0); x\nlet use = f 1\n",
            "",
            "",
        );
        let res = job.run().unwrap();
        assert!(!res.is_safe());
    }

    #[test]
    fn frontend_errors_are_job_errors() {
        let job = Job::from_sources("bad", "let x = ", "", "");
        assert!(matches!(job.run(), Err(JobError::Frontend(_))));
    }

    #[test]
    fn isolated_panic_is_reported_not_propagated() {
        let mut job = Job::from_sources("panicky-test-job", "let one = 1\n", "", "");
        job.config.fault = Some(std::sync::Arc::new(
            dsolve_logic::FaultPlan::parse("job-panic").unwrap(),
        ));
        let r = job.run_isolated();
        match r {
            Err(JobError::Panic(msg)) => {
                assert!(msg.contains("panicky-test-job"), "{msg}");
            }
            other => panic!("expected Panic, got {:?}", other.map(|_| "JobResult")),
        }
        // The fault fired once: the next run goes through normally.
        if let Err(e) = job.run_isolated() {
            panic!("unexpected error after the fault fired: {e}");
        }
    }

    #[test]
    fn tiny_deadline_yields_unknown_not_hang() {
        let mut job = Job::from_sources(
            "deadline",
            "let f x = assert (x >= 0); x\nlet use = f 1\n",
            "",
            "qualif N : 0 <= VV\n",
        );
        job.config.budget = dsolve_logic::Budget::with_timeout(Duration::from_secs(0));
        let res = job.run().unwrap();
        let outcome = res.outcome();
        let e = outcome.exhaustion().expect("unknown outcome");
        assert_eq!(e.resource, Resource::Deadline);
        assert!(!res.is_safe());
    }
}
