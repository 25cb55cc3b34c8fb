//! The end-to-end verification pipeline.
//!
//! Couples the front end (parse → resolve → infer) with constraint
//! generation, the fixpoint solver, and specification checking. This is
//! the library-level equivalent of running DSOLVE on a `.ml` module with
//! its `.mlq` and `.quals` files.

use crate::builtins::builtin_schemes;
use crate::constraint::{LiquidError, Origin};
use crate::env::{GlobalEnv, LiquidEnv};
use crate::gen::Gen;
use crate::measure::MeasureEnv;
use crate::rtype::{RScheme, RType};
use crate::solve::{solve, Solution, SolveConfig, SolveStats};
use crate::subtype::split;
use dsolve_logic::{Outcome, Qualifier, Symbol};
use dsolve_nanoml::{infer_program, parse_program, resolve_program, DataEnv, Scheme, TProgram};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A named specification: the inferred type of a top-level binding must
/// be a subtype of the given scheme.
#[derive(Clone, Debug)]
pub struct Spec {
    /// The top-level name being specified.
    pub name: Symbol,
    /// The required refined scheme.
    pub scheme: RScheme,
}

/// The result of a verification run.
pub struct VerifyResult {
    /// Three-valued verdict: `Safe`, `Unsafe`, or `Unknown` with the
    /// budget exhaustion that prevented a definite answer.
    pub outcome: Outcome,
    /// Verification errors (obligations that failed or, under an
    /// exhausted budget, could not be decided).
    pub errors: Vec<LiquidError>,
    /// The solved refinement schemes of the top-level bindings.
    pub inferred: HashMap<Symbol, RScheme>,
    /// Solver statistics (including fixpoint/obligation wall-clock time).
    pub stats: SolveStats,
    /// Number of generated subtyping constraints.
    pub num_constraints: usize,
    /// Wall-clock time spent in constraint generation and spec splitting.
    pub gen_time: Duration,
}

impl VerifyResult {
    /// Whether every obligation was proven within budget.
    pub fn is_safe(&self) -> bool {
        self.outcome.is_safe()
    }
}

/// The verifier: global context plus configuration.
pub struct Verifier {
    genv: GlobalEnv,
    quals: Vec<Qualifier>,
    specs: Vec<Spec>,
    config: SolveConfig,
}

impl Verifier {
    /// Creates a verifier over the given datatypes and measures.
    pub fn new(data: DataEnv, measures: MeasureEnv) -> Verifier {
        Verifier {
            genv: GlobalEnv::new(data, measures),
            quals: Vec::new(),
            specs: Vec::new(),
            config: SolveConfig::default(),
        }
    }

    /// Adds logical qualifiers (the `.quals` file).
    pub fn with_qualifiers(mut self, quals: Vec<Qualifier>) -> Verifier {
        self.quals.extend(quals);
        self
    }

    /// Adds specifications to check (the `val` entries of a `.mlq` file).
    pub fn with_specs(mut self, specs: Vec<Spec>) -> Verifier {
        self.specs.extend(specs);
        self
    }

    /// Overrides the solver configuration.
    pub fn with_config(mut self, config: SolveConfig) -> Verifier {
        self.config = config;
        self
    }

    /// The global environment (for spec parsing etc.).
    pub fn genv(&self) -> &GlobalEnv {
        &self.genv
    }

    /// Verifies a typed program.
    pub fn verify(&self, prog: &TProgram) -> VerifyResult {
        let (_, builtin_rts) = builtin_schemes();
        let mut env = LiquidEnv::new();
        for (name, scheme) in builtin_rts {
            env = env.bind_scheme(name, scheme);
        }
        let gen_start = Instant::now();
        let gen_span = self
            .config
            .obs
            .phase_span(dsolve_obs::ObsPhase::ConstraintGen);
        let mut gen = Gen::new(&self.genv);
        let final_env = match gen.program(prog, env) {
            Ok(e) => e,
            Err(e) => {
                return VerifyResult {
                    outcome: Outcome::Unsafe,
                    errors: vec![e],
                    inferred: HashMap::new(),
                    stats: SolveStats::default(),
                    num_constraints: 0,
                    gen_time: gen_start.elapsed(),
                }
            }
        };

        // Specification obligations.
        let mut spec_errors = Vec::new();
        for spec in &self.specs {
            match final_env.lookup(spec.name) {
                None => spec_errors.push(LiquidError {
                    msg: format!("specified name `{}` is not defined", spec.name),
                    origin: Some(Origin::Spec {
                        name: spec.name.to_string(),
                    }),
                }),
                Some(got) => {
                    if let Err(e) = self.check_spec(&mut gen, &final_env, got.clone(), spec) {
                        spec_errors.push(e);
                    }
                }
            }
        }

        let num_constraints = gen.subs.len();
        drop(gen_span);
        let gen_time = gen_start.elapsed();
        let mut solution: Solution =
            solve(&self.genv, &gen.kenv, &gen.subs, &self.quals, &self.config);
        solution.errors.extend(spec_errors);

        // Concretize the inferred schemes.
        let mut inferred = HashMap::new();
        for tl in &prog.lets {
            for b in &tl.binds {
                if let Some(s) = final_env.lookup(b.name) {
                    inferred.insert(b.name, concretize_scheme(s, &solution));
                }
            }
        }

        // The outcome accounts for spec errors appended after solving.
        let outcome = match solution.exhaustion.clone() {
            Some(e) => Outcome::Unknown(e),
            None if solution.errors.is_empty() => Outcome::Safe,
            None => Outcome::Unsafe,
        };
        VerifyResult {
            outcome,
            errors: solution.errors,
            inferred,
            stats: solution.stats,
            num_constraints,
            gen_time,
        }
    }

    /// Emits the subtyping obligation `inferred <: spec`.
    ///
    /// The inferred scheme may be *more general* than the specification
    /// (e.g. polymorphic where the spec fixes `int`), so the inferred
    /// scheme is instantiated at the specification's shape ([L-INST]) and
    /// the resulting type checked against the spec body.
    fn check_spec(
        &self,
        gen: &mut Gen<'_>,
        env: &LiquidEnv,
        got: RScheme,
        spec: &Spec,
    ) -> Result<(), LiquidError> {
        let spec_shape = spec.scheme.ty.shape();
        let got_ml = Scheme {
            vars: got.vars.iter().map(|v| v.var).collect(),
            ty: got.ty.shape(),
        };
        let inst = dsolve_nanoml::match_instantiation(&got_ml, &spec_shape).ok_or_else(|| {
            LiquidError {
                msg: format!(
                    "specification shape `{}` does not match inferred `{}`",
                    spec_shape, got_ml.ty
                ),
                origin: Some(Origin::Spec {
                    name: spec.name.to_string(),
                }),
            }
        })?;
        let got_ty = crate::template::instantiate(&self.genv, &mut gen.kenv, env, &got, &inst);
        split(
            &self.genv,
            env,
            &got_ty,
            &spec.scheme.ty,
            &Origin::Spec {
                name: spec.name.to_string(),
            },
            &mut gen.subs,
        )
    }
}

fn concretize_scheme(s: &RScheme, sol: &Solution) -> RScheme {
    RScheme {
        vars: s.vars.clone(),
        ty: concretize_rtype(&s.ty, sol),
    }
}

fn concretize_rtype(t: &RType, sol: &Solution) -> RType {
    use crate::rtype::{DataRType, RefAtom, Refinement, Rho};
    let conc_ref = |r: &Refinement| -> Refinement {
        let mut out = Refinement::top();
        for (theta, atom) in &r.atoms {
            let p = match atom {
                RefAtom::Conc(p) => theta.apply_pred(p),
                RefAtom::KVar(k) => theta.apply_pred(&sol.pred_of(*k)),
            };
            out = out.and(&Refinement::pred(p));
        }
        out
    };
    let conc_rho = |m: &Rho| -> Rho {
        let mut out = Rho::top();
        for ((c, j), r) in &m.entries {
            out.set(*c, *j, conc_ref(r));
        }
        out
    };
    match t {
        RType::Base(b, r) => RType::Base(*b, conc_ref(r)),
        RType::TyVar(v, theta, r) => RType::TyVar(*v, theta.clone(), conc_ref(r)),
        RType::Fun(x, a, b) => RType::Fun(
            *x,
            Box::new(concretize_rtype(a, sol)),
            Box::new(concretize_rtype(b, sol)),
        ),
        RType::Tuple(fs) => RType::Tuple(
            fs.iter()
                .map(|(x, t)| (*x, concretize_rtype(t, sol)))
                .collect(),
        ),
        RType::Data(d) => RType::Data(DataRType {
            name: d.name,
            targs: d.targs.iter().map(|t| concretize_rtype(t, sol)).collect(),
            rho: conc_rho(&d.rho),
            inner: d.inner.iter().map(|(k, m)| (*k, conc_rho(m))).collect(),
            refinement: conc_ref(&d.refinement),
        }),
    }
}

/// Convenience: parse, resolve, type, and verify a source module with the
/// given measures, qualifiers, and specs.
///
/// # Errors
///
/// Front-end failures (parse/resolve/type errors) are reported as a
/// single-element error list.
pub fn verify_source(
    src: &str,
    measures: MeasureEnv,
    quals: Vec<Qualifier>,
    specs: Vec<Spec>,
) -> Result<VerifyResult, String> {
    let prog = parse_program(src).map_err(|e| e.to_string())?;
    let mut data = DataEnv::with_builtins();
    data.add_program(&prog.datatypes)
        .map_err(|e| e.to_string())?;
    let prog = resolve_program(&prog, &data).map_err(|e| e.to_string())?;
    let (ml_builtins, _) = builtin_schemes();
    let typed = infer_program(&prog, &data, &ml_builtins).map_err(|e| e.to_string())?;
    let verifier = Verifier::new(data, measures)
        .with_qualifiers(quals)
        .with_specs(specs);
    Ok(verifier.verify(&typed))
}
