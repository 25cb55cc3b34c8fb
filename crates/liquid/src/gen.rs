//! Constraint generation: the liquid typing rules over typed NanoML.
//!
//! Walks [`TExpr`] trees synthesizing refinement types and emitting
//! simple subtyping constraints ([L-APP], [L-IF], [L-LET], [L-FIX] with
//! Mycroft instantiation, [L-SUM-M]/[L-FOLD-M] at constructions,
//! [L-UNFOLD-M]/[L-MATCH-M] at matches, and the `assert`/division
//! obligations).
//!
//! Synthesis is in A-normal-form style: operand expressions that are not
//! variables or literals are bound to fresh names, and the (extended)
//! environment is threaded to the continuation so result refinements stay
//! well-scoped. Binding forms (`let`, `if`, `match`) confine those
//! temporaries by re-typing their result at a fresh template well-formed
//! in the outer environment ([L-LET]'s well-formedness side condition).

use crate::constraint::{LiquidError, Origin, SubC};
use crate::env::{GlobalEnv, KEnv, LiquidEnv};
use crate::rtype::{BaseTy, RScheme, RType, RVarDecl, Refinement};
use crate::subtype::split;
use crate::template::{fresh, fresh_named, instantiate, unfold_ctor};
use dsolve_logic::{Expr, Pred, Rel, Symbol};
use dsolve_nanoml::{
    match_instantiation, MlType, PrimOp, Scheme, TBind, TExpr, TExprKind, TProgram,
};

/// The constraint generator.
pub struct Gen<'g> {
    genv: &'g GlobalEnv,
    /// Liquid-variable scope registry (shared with the solver).
    pub kenv: KEnv,
    /// Generated subtyping constraints.
    pub subs: Vec<SubC>,
}

impl<'g> Gen<'g> {
    /// Creates a generator.
    pub fn new(genv: &'g GlobalEnv) -> Gen<'g> {
        Gen {
            genv,
            kenv: KEnv::new(),
            subs: Vec::new(),
        }
    }

    /// Generates constraints for a whole program, returning the final
    /// environment (with every top-level name bound to its inferred
    /// template scheme).
    pub fn program(
        &mut self,
        prog: &TProgram,
        mut env: LiquidEnv,
    ) -> Result<LiquidEnv, LiquidError> {
        for tl in &prog.lets {
            env = self.bind_group(&env, tl.recursive, &tl.binds)?;
        }
        Ok(env)
    }

    /// Processes one binding group ([L-LET] / [L-FIX]).
    pub fn bind_group(
        &mut self,
        env: &LiquidEnv,
        recursive: bool,
        binds: &[TBind],
    ) -> Result<LiquidEnv, LiquidError> {
        if recursive {
            // Mycroft's rule: bind every name to a fresh template scheme
            // (well-formed in the *outer* env) before checking bodies, so
            // recursive occurrences instantiate polymorphically.
            let mut env2 = env.clone();
            let mut templates = Vec::new();
            for b in binds {
                let t = fresh_named(
                    self.genv,
                    &mut self.kenv,
                    env,
                    &b.scheme.ty,
                    &lam_params(&b.rhs),
                );
                env2 = env2.bind_scheme(b.name, rscheme_of(&b.scheme, t.clone()));
                templates.push(t);
            }
            for (b, t) in binds.iter().zip(&templates) {
                let (env_rhs, got) = self.synth(&env2, &b.rhs)?;
                split(
                    self.genv,
                    &env_rhs,
                    &got,
                    t,
                    &Origin::Flow("recursive binding"),
                    &mut self.subs,
                )?;
            }
            Ok(env2)
        } else {
            let mut env2 = env.clone();
            for b in binds {
                let (_, got) = self.synth(env, &b.rhs)?;
                env2 = env2.bind_scheme(b.name, rscheme_of(&b.scheme, got));
            }
            Ok(env2)
        }
    }

    /// Synthesizes a refinement type, returning the (possibly extended)
    /// environment to use for the continuation.
    pub fn synth(&mut self, env: &LiquidEnv, e: &TExpr) -> Result<(LiquidEnv, RType), LiquidError> {
        match &e.kind {
            TExprKind::Var(x, inst) => {
                let scheme = env
                    .lookup(*x)
                    .ok_or_else(|| {
                        LiquidError::internal(format!("unbound variable `{x}` in liquid env"))
                    })?
                    .clone();
                let t = if scheme.vars.is_empty() {
                    scheme.ty.clone()
                } else {
                    // [L-INST]: reconstruct the ML instantiation when the
                    // HM pass recorded none (monomorphic recursive
                    // occurrences — Mycroft's rule).
                    let ml_inst = if inst.len() == scheme.vars.len() {
                        inst.clone()
                    } else {
                        let shape = Scheme {
                            vars: scheme.vars.iter().map(|v| v.var).collect(),
                            ty: scheme.ty.shape(),
                        };
                        match_instantiation(&shape, &e.ty).ok_or_else(|| {
                            LiquidError::internal(format!(
                                "cannot instantiate `{x}` : {} at {}",
                                shape.ty, e.ty
                            ))
                        })?
                    };
                    instantiate(self.genv, &mut self.kenv, env, &scheme, &ml_inst)
                };
                Ok((env.clone(), t.selfify(Expr::Var(*x))))
            }
            TExprKind::Int(v) => Ok((
                env.clone(),
                RType::Base(BaseTy::Int, Refinement::exactly(Expr::int(*v))),
            )),
            TExprKind::Bool(b) => Ok((
                env.clone(),
                RType::Base(
                    BaseTy::Bool,
                    Refinement::pred(if *b {
                        Pred::Term(Expr::nu())
                    } else {
                        Pred::not(Pred::Term(Expr::nu()))
                    }),
                ),
            )),
            TExprKind::Unit => Ok((env.clone(), RType::unit())),
            TExprKind::Prim(op, a, b) => self.synth_prim(env, e, *op, a, b),
            TExprKind::Neg(a) => {
                let (env2, ea) = self.name(env, a)?;
                Ok((
                    env2,
                    RType::Base(BaseTy::Int, Refinement::exactly(Expr::int(0).sub(ea))),
                ))
            }
            TExprKind::Not(a) => {
                let (env2, ea) = self.name(env, a)?;
                Ok((
                    env2,
                    RType::Base(
                        BaseTy::Bool,
                        Refinement::pred(Pred::iff(
                            Pred::Term(Expr::nu()),
                            Pred::not(Pred::Term(ea)),
                        )),
                    ),
                ))
            }
            TExprKind::Lam(x, body) => {
                // Name the whole λ-chain after the source parameters so
                // qualifiers and specs can refer to them.
                let tmpl = fresh_named(self.genv, &mut self.kenv, env, &e.ty, &lam_params(e));
                let RType::Fun(x0, dom, ran) = tmpl else {
                    return Err(LiquidError::internal("lambda with non-arrow template"));
                };
                let ran = ran.subst1(x0, &Expr::Var(*x));
                let env2 = env.bind(*x, (*dom).clone());
                let (env_body, got) = self.synth(&env2, body)?;
                split(
                    self.genv,
                    &env_body,
                    &got,
                    &ran,
                    &Origin::Flow("function body"),
                    &mut self.subs,
                )?;
                Ok((env.clone(), RType::Fun(*x, dom, Box::new(ran))))
            }
            TExprKind::App(f, a) => {
                let (env1, tf) = self.synth(env, f)?;
                let RType::Fun(x, dom, ran) = tf else {
                    return Err(LiquidError::internal(format!(
                        "application of non-function type `{tf}`"
                    )));
                };
                let (env2, ta) = self.synth(&env1, a)?;
                let (env3, ea) = self.name_with(&env2, a, ta.clone())?;
                split(
                    self.genv,
                    &env3,
                    &ta.selfify(ea.clone()),
                    &dom,
                    &Origin::App {
                        callee: describe(f),
                    },
                    &mut self.subs,
                )?;
                Ok((env3, ran.subst1(x, &ea)))
            }
            TExprKind::Let(x, scheme, rhs, body) => {
                let (env_rhs, trhs) = self.synth(env, rhs)?;
                let env2 = env_rhs.bind_scheme(*x, rscheme_of(scheme, trhs));
                let (env_body, tbody) = self.synth(&env2, body)?;
                let t = self.join(env, &env_body, tbody, &e.ty, "let body")?;
                Ok((env.clone(), t))
            }
            TExprKind::LetRec(binds, body) => {
                let env2 = self.bind_group(env, true, binds)?;
                let (env_body, tbody) = self.synth(&env2, body)?;
                let t = self.join(env, &env_body, tbody, &e.ty, "letrec body")?;
                Ok((env.clone(), t))
            }
            TExprKind::LetTuple(names, rhs, body) => {
                let (env_rhs, trhs) = self.synth(env, rhs)?;
                let RType::Tuple(fields) = trhs else {
                    return Err(LiquidError::internal("tuple binding of non-tuple type"));
                };
                let mut env2 = env_rhs;
                let mut fields = fields;
                for (i, name) in names.iter().enumerate() {
                    let (binder, t) = fields[i].clone();
                    env2 = env2.bind(*name, t.selfify(Expr::Var(*name)));
                    for (_, later) in fields.iter_mut().skip(i + 1) {
                        *later = later.subst1(binder, &Expr::Var(*name));
                    }
                }
                let (env_body, tbody) = self.synth(&env2, body)?;
                let t = self.join(env, &env_body, tbody, &e.ty, "let-tuple body")?;
                Ok((env.clone(), t))
            }
            TExprKind::If(c, t, f) => {
                let (envc0, tc) = self.synth(env, c)?;
                let (envc, ec) = self.name_with(&envc0, c, tc)?;
                let join = fresh(self.genv, &mut self.kenv, env, &e.ty);
                let then_env = envc.guard(Pred::Term(ec.clone()));
                let (then_env2, tt) = self.synth(&then_env, t)?;
                split(
                    self.genv,
                    &then_env2,
                    &tt,
                    &join,
                    &Origin::Flow("then branch"),
                    &mut self.subs,
                )?;
                let else_env = envc.guard(Pred::not(Pred::Term(ec)));
                let (else_env2, tf) = self.synth(&else_env, f)?;
                split(
                    self.genv,
                    &else_env2,
                    &tf,
                    &join,
                    &Origin::Flow("else branch"),
                    &mut self.subs,
                )?;
                Ok((env.clone(), join))
            }
            TExprKind::Tuple(es) => {
                let mut env2 = env.clone();
                let mut fields = Vec::new();
                for sub in es {
                    let (env3, t) = self.synth(&env2, sub)?;
                    let (env4, ex) = self.name_with(&env3, sub, t.clone())?;
                    env2 = env4;
                    fields.push((Symbol::fresh("fld"), t.selfify(ex)));
                }
                Ok((env2, RType::Tuple(fields)))
            }
            TExprKind::Ctor(cname, targs, args) => self.synth_ctor(env, e, *cname, targs, args),
            TExprKind::Match(scrut, arms) => {
                let (env_s, tscrut) = self.synth(env, scrut)?;
                let (env0, es) = self.name_with(&env_s, scrut, tscrut.clone())?;
                let RType::Data(d) = &tscrut else {
                    return Err(LiquidError::internal("match on non-datatype type"));
                };
                let decl = self
                    .genv
                    .data
                    .decl(d.name)
                    .ok_or_else(|| LiquidError::internal("unknown datatype in match"))?
                    .clone();
                let join = fresh(self.genv, &mut self.kenv, env, &e.ty);
                for arm in arms {
                    let cix = decl
                        .ctor_names
                        .iter()
                        .position(|c| *c == arm.ctor)
                        .ok_or_else(|| LiquidError::internal("unknown ctor in match"))?;
                    let field_tys = unfold_ctor(self.genv, d, cix, &arm.binders);
                    let mut env_arm = env0.clone();
                    for (b, t) in arm.binders.iter().zip(&field_tys) {
                        env_arm = env_arm.bind(*b, t.selfify(Expr::Var(*b)));
                    }
                    // [L-MATCH-M] measure guards.
                    let guard =
                        self.genv
                            .measures
                            .match_guard(d.name, arm.ctor, es.clone(), &arm.binders);
                    env_arm = env_arm.guard(guard);
                    let (env_b, tb) = self.synth(&env_arm, &arm.body)?;
                    split(
                        self.genv,
                        &env_b,
                        &tb,
                        &join,
                        &Origin::Flow("match arm"),
                        &mut self.subs,
                    )?;
                }
                Ok((env.clone(), join))
            }
            TExprKind::Assert(a, line) => {
                let (env1, ta) = self.synth(env, a)?;
                let (env2, ea) = self.name_with(&env1, a, ta.clone())?;
                split(
                    self.genv,
                    &env2,
                    &ta.selfify(ea),
                    &RType::Base(BaseTy::Bool, Refinement::pred(Pred::Term(Expr::nu()))),
                    &Origin::Assert { line: *line },
                    &mut self.subs,
                )?;
                Ok((env2, RType::unit()))
            }
        }
    }

    fn synth_prim(
        &mut self,
        env: &LiquidEnv,
        e: &TExpr,
        op: PrimOp,
        a: &TExpr,
        b: &TExpr,
    ) -> Result<(LiquidEnv, RType), LiquidError> {
        let (env1, ea) = self.name(env, a)?;
        let (env2, eb) = self.name(&env1, b)?;
        let int_like = |t: &MlType| matches!(t, MlType::Int | MlType::Var(_));
        let t = match op {
            PrimOp::Add => RType::Base(BaseTy::Int, Refinement::exactly(ea.add(eb))),
            PrimOp::Sub => RType::Base(BaseTy::Int, Refinement::exactly(ea.sub(eb))),
            PrimOp::Mul => RType::Base(BaseTy::Int, Refinement::exactly(ea.mul(eb))),
            PrimOp::Div | PrimOp::Mod => {
                // The paper's division safety: (/) : int → {ν≠0} → int.
                let (env3, tb) = self.synth(&env2, b)?;
                split(
                    self.genv,
                    &env3,
                    &tb.selfify(eb.clone()),
                    &RType::int_pred(Pred::ne(Expr::nu(), Expr::int(0))),
                    &Origin::Div {
                        context: describe(e),
                    },
                    &mut self.subs,
                )?;
                let expr = match op {
                    PrimOp::Div => {
                        Expr::Binop(dsolve_logic::Binop::Div, Box::new(ea), Box::new(eb))
                    }
                    _ => Expr::Binop(dsolve_logic::Binop::Mod, Box::new(ea), Box::new(eb)),
                };
                return Ok((env3, RType::Base(BaseTy::Int, Refinement::exactly(expr))));
            }
            PrimOp::Eq | PrimOp::Ne | PrimOp::Lt | PrimOp::Le | PrimOp::Gt | PrimOp::Ge => {
                let rel = match op {
                    PrimOp::Eq => Rel::Eq,
                    PrimOp::Ne => Rel::Ne,
                    PrimOp::Lt => Rel::Lt,
                    PrimOp::Le => Rel::Le,
                    PrimOp::Gt => Rel::Gt,
                    PrimOp::Ge => Rel::Ge,
                    _ => unreachable!(),
                };
                // Exact boolean semantics when the operands embed into
                // the logic (ints, type variables via the total-order
                // embedding; equality also covers first-order data).
                let exact = match (&rel, &a.ty) {
                    (Rel::Eq | Rel::Ne, t) => !matches!(t, MlType::Arrow(..)),
                    (_, t) => int_like(t),
                };
                if exact {
                    RType::Base(
                        BaseTy::Bool,
                        Refinement::pred(Pred::iff(
                            Pred::Term(Expr::nu()),
                            Pred::Atom(rel, ea, eb),
                        )),
                    )
                } else {
                    RType::bool()
                }
            }
            PrimOp::And => RType::Base(
                BaseTy::Bool,
                Refinement::pred(Pred::iff(
                    Pred::Term(Expr::nu()),
                    Pred::and(vec![Pred::Term(ea), Pred::Term(eb)]),
                )),
            ),
            PrimOp::Or => RType::Base(
                BaseTy::Bool,
                Refinement::pred(Pred::iff(
                    Pred::Term(Expr::nu()),
                    Pred::or(vec![Pred::Term(ea), Pred::Term(eb)]),
                )),
            ),
        };
        Ok((env2, t))
    }

    /// [L-SUM-M] + [L-FOLD-M]: constructions check their arguments
    /// against a fresh folded template and carry exact measure facts.
    fn synth_ctor(
        &mut self,
        env: &LiquidEnv,
        e: &TExpr,
        cname: Symbol,
        _targs: &[MlType],
        args: &[TExpr],
    ) -> Result<(LiquidEnv, RType), LiquidError> {
        let tmpl = fresh(self.genv, &mut self.kenv, env, &e.ty);
        let RType::Data(d) = &tmpl else {
            return Err(LiquidError::internal("constructor with non-data template"));
        };
        let sig = self
            .genv
            .data
            .ctor(cname)
            .ok_or_else(|| LiquidError::internal(format!("unknown constructor `{cname}`")))?
            .clone();

        // Name the arguments (binding non-variables).
        let mut env2 = env.clone();
        let mut argsyms = Vec::new();
        let mut argexprs = Vec::new();
        let mut argtys = Vec::new();
        for a in args {
            let (env3, t) = self.synth(&env2, a)?;
            let (env4, ex) = self.name_with(&env3, a, t.clone())?;
            env2 = env4;
            let sym = match &ex {
                Expr::Var(s) => *s,
                _ => {
                    let s = Symbol::fresh("carg");
                    env2 = env2.bind(s, t.selfify(ex.clone()));
                    s
                }
            };
            argsyms.push(sym);
            argexprs.push(Expr::Var(sym));
            argtys.push(t);
        }

        let field_tys = unfold_ctor(self.genv, d, sig.index, &argsyms);
        for ((t, sym), ft) in argtys.iter().zip(&argsyms).zip(&field_tys) {
            split(
                self.genv,
                &env2,
                &t.selfify(Expr::Var(*sym)),
                ft,
                &Origin::Flow("constructor argument"),
                &mut self.subs,
            )?;
        }
        let measure_facts = self.genv.measures.ctor_refinement(d.name, cname, &argexprs);
        // [L-SUM-M]: the refinement of every *other* constructor is ⊥ —
        // `cname` is the only inhabited summand, so entries for the
        // other products hold vacuously (e.g. `[]` satisfies any element
        // invariant).
        let mut dead = crate::rtype::Rho::top();
        let decl = self
            .genv
            .data
            .decl(d.name)
            .ok_or_else(|| LiquidError::internal("unknown datatype at ctor"))?;
        for (c2, fields) in decl.ctor_fields.iter().enumerate() {
            if c2 == sig.index {
                continue;
            }
            for j in 0..fields.len() {
                dead.set(c2, j, Refinement::pred(Pred::False));
            }
        }
        // The outer refinement is exactly the measure facts: the
        // template's fresh κ would otherwise assert the full qualifier
        // set with no constraint grounding it from below (constructions
        // only ever appear on the *left* of subtyping), which is unsound
        // — any ungrounded instance, e.g. `llen(ν) = llen(zs)` for some
        // in-scope `zs`, would flow downstream as an assumed fact.
        let result = match tmpl {
            RType::Data(dd) => RType::Data(crate::rtype::DataRType {
                rho: dd.rho.compose(&dead),
                refinement: Refinement::top(),
                ..dd
            }),
            other => other,
        };
        Ok((env2, result.strengthen(&Refinement::pred(measure_facts))))
    }

    /// [L-LET] well-formedness at joins: when the body type may mention
    /// locally bound names, re-type it at a fresh template well-formed in
    /// the outer environment.
    fn join(
        &mut self,
        outer: &LiquidEnv,
        inner: &LiquidEnv,
        t: RType,
        shape: &MlType,
        what: &'static str,
    ) -> Result<RType, LiquidError> {
        let join = fresh(self.genv, &mut self.kenv, outer, shape);
        split(
            self.genv,
            inner,
            &t,
            &join,
            &Origin::Flow(what),
            &mut self.subs,
        )?;
        Ok(join)
    }

    /// Names an expression in the logic: variables and literals are used
    /// directly, anything else is let-bound to a fresh symbol.
    fn name(&mut self, env: &LiquidEnv, e: &TExpr) -> Result<(LiquidEnv, Expr), LiquidError> {
        match &e.kind {
            TExprKind::Var(x, _) => Ok((env.clone(), Expr::Var(*x))),
            TExprKind::Int(v) => Ok((env.clone(), Expr::int(*v))),
            TExprKind::Bool(b) => Ok((env.clone(), Expr::Bool(*b))),
            _ => {
                let (env2, t) = self.synth(env, e)?;
                let z = Symbol::fresh("tmp");
                Ok((env2.bind(z, t), Expr::Var(z)))
            }
        }
    }

    /// Like [`Gen::name`], reusing an already synthesized type.
    fn name_with(
        &mut self,
        env: &LiquidEnv,
        e: &TExpr,
        t: RType,
    ) -> Result<(LiquidEnv, Expr), LiquidError> {
        match &e.kind {
            TExprKind::Var(x, _) => Ok((env.clone(), Expr::Var(*x))),
            TExprKind::Int(v) => Ok((env.clone(), Expr::int(*v))),
            TExprKind::Bool(b) => Ok((env.clone(), Expr::Bool(*b))),
            _ => {
                let z = Symbol::fresh("tmp");
                Ok((env.bind(z, t), Expr::Var(z)))
            }
        }
    }
}

/// Wraps an inferred refinement type with the ML scheme's quantifiers.
fn rscheme_of(scheme: &Scheme, ty: RType) -> RScheme {
    RScheme {
        vars: scheme
            .vars
            .iter()
            .map(|v| RVarDecl {
                var: *v,
                witness: None,
            })
            .collect(),
        ty,
    }
}

/// The λ-chain parameter names of a right-hand side.
fn lam_params(e: &TExpr) -> Vec<Symbol> {
    let mut out = Vec::new();
    let mut cur = e;
    while let TExprKind::Lam(x, body) = &cur.kind {
        out.push(*x);
        cur = body;
    }
    out
}

fn describe(e: &TExpr) -> String {
    match &e.kind {
        TExprKind::Var(x, _) => x.to_string(),
        TExprKind::App(f, _) => describe(f),
        TExprKind::Prim(op, _, _) => format!("primitive `{op}`"),
        _ => "expression".to_string(),
    }
}
