//! Hindley–Milner type inference (Algorithm W) for NanoML.
//!
//! Produces fully annotated [`TExpr`] trees. Recursive bindings are typed
//! with Milner's rule (monomorphic recursion) and then generalized — the
//! liquid phase re-instantiates the generalized scheme at recursive call
//! sites (Mycroft's rule, §4.3 of the paper), which stays decidable
//! because the ML derivation was already fixed here.

use crate::ast::{Expr, Pattern, PrimOp, Program};
use crate::texpr::{TArm, TBind, TExpr, TExprKind, TProgram, TTopLet};
use crate::types::{DataEnv, MlType, Scheme};
use dsolve_logic::Symbol;
use std::collections::HashMap;
use std::fmt;

/// A type inference error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

/// The value environment: schemes for in-scope variables.
pub type TypeEnv = HashMap<Symbol, Scheme>;

/// Infers types for a resolved program.
///
/// `prelude` supplies schemes for built-in functions (map primitives,
/// `random`, etc.).
///
/// # Errors
///
/// Returns the first unification or scoping error encountered.
pub fn infer_program(
    prog: &Program,
    data: &DataEnv,
    prelude: &TypeEnv,
) -> Result<TProgram, TypeError> {
    let mut ctx = Infer::new(data);
    let mut env = prelude.clone();
    let mut out = TProgram::default();
    for tl in &prog.lets {
        let binds = if tl.recursive {
            ctx.infer_rec_group(
                &env,
                &tl.binds
                    .iter()
                    .map(|b| (b.name, b.body.clone()))
                    .collect::<Vec<_>>(),
            )?
        } else {
            let mut bs = Vec::new();
            for b in &tl.binds {
                let rhs = ctx.infer(&env, &b.body)?;
                let scheme = ctx.generalize(&env, &rhs.ty);
                bs.push(TBind {
                    name: b.name,
                    scheme,
                    rhs,
                });
            }
            bs
        };
        for b in &binds {
            env.insert(b.name, b.scheme.clone());
        }
        out.lets.push(TTopLet {
            recursive: tl.recursive,
            binds,
            line: tl.line,
        });
    }
    // Zonk the whole tree.
    for tl in &mut out.lets {
        for b in &mut tl.binds {
            ctx.zonk_texpr(&mut b.rhs);
            b.scheme.ty = ctx.resolve(&b.scheme.ty);
        }
    }
    Ok(out)
}

/// Infers the type of a standalone expression (for tests and specs).
pub fn infer_expr(e: &Expr, data: &DataEnv, env: &TypeEnv) -> Result<TExpr, TypeError> {
    let mut ctx = Infer::new(data);
    let mut t = ctx.infer(env, e)?;
    ctx.zonk_texpr(&mut t);
    Ok(t)
}

/// Matches a generalized scheme against a concrete occurrence type,
/// returning the instantiation of the scheme's quantified variables.
///
/// Used by the liquid phase to apply Mycroft's rule at recursive call
/// sites: the occurrence was typed monomorphically, so matching
/// reconstructs how the quantifiers specialize there.
pub fn match_instantiation(scheme: &Scheme, occurrence: &MlType) -> Option<Vec<MlType>> {
    let mut binding: HashMap<u32, MlType> = HashMap::new();
    if !match_ty(&scheme.ty, occurrence, &scheme.vars, &mut binding) {
        return None;
    }
    Some(
        scheme
            .vars
            .iter()
            .map(|v| binding.get(v).cloned().unwrap_or(MlType::Var(*v)))
            .collect(),
    )
}

fn match_ty(
    pat: &MlType,
    t: &MlType,
    quantified: &[u32],
    binding: &mut HashMap<u32, MlType>,
) -> bool {
    match (pat, t) {
        (MlType::Var(v), _) if quantified.contains(v) => match binding.get(v) {
            Some(prev) => prev == t,
            None => {
                binding.insert(*v, t.clone());
                true
            }
        },
        (MlType::Var(a), MlType::Var(b)) => a == b,
        (MlType::Int, MlType::Int)
        | (MlType::Bool, MlType::Bool)
        | (MlType::Unit, MlType::Unit) => true,
        (MlType::Arrow(a1, b1), MlType::Arrow(a2, b2)) => {
            match_ty(a1, a2, quantified, binding) && match_ty(b1, b2, quantified, binding)
        }
        (MlType::Tuple(xs), MlType::Tuple(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|(x, y)| match_ty(x, y, quantified, binding))
        }
        (MlType::Data(n1, xs), MlType::Data(n2, ys)) => {
            n1 == n2
                && xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|(x, y)| match_ty(x, y, quantified, binding))
        }
        _ => false,
    }
}

struct Infer<'a> {
    data: &'a DataEnv,
    subst: Vec<Option<MlType>>,
}

impl<'a> Infer<'a> {
    fn new(data: &'a DataEnv) -> Infer<'a> {
        Infer {
            data,
            subst: Vec::new(),
        }
    }

    fn fresh(&mut self) -> MlType {
        let v = self.subst.len() as u32;
        self.subst.push(None);
        MlType::Var(v)
    }

    /// Deeply resolves a type under the current substitution.
    fn resolve(&self, t: &MlType) -> MlType {
        match t {
            MlType::Var(v) => match self.subst.get(*v as usize).and_then(|s| s.as_ref()) {
                Some(inner) => self.resolve(&inner.clone()),
                None => t.clone(),
            },
            MlType::Int | MlType::Bool | MlType::Unit => t.clone(),
            MlType::Arrow(a, b) => {
                MlType::Arrow(Box::new(self.resolve(a)), Box::new(self.resolve(b)))
            }
            MlType::Tuple(ts) => MlType::Tuple(ts.iter().map(|t| self.resolve(t)).collect()),
            MlType::Data(n, ts) => MlType::Data(*n, ts.iter().map(|t| self.resolve(t)).collect()),
        }
    }

    fn unify(&mut self, a: &MlType, b: &MlType) -> Result<(), TypeError> {
        let a = self.resolve(a);
        let b = self.resolve(b);
        match (&a, &b) {
            (MlType::Var(v), _) => self.bind(*v, &b),
            (_, MlType::Var(v)) => self.bind(*v, &a),
            (MlType::Int, MlType::Int)
            | (MlType::Bool, MlType::Bool)
            | (MlType::Unit, MlType::Unit) => Ok(()),
            (MlType::Arrow(a1, b1), MlType::Arrow(a2, b2)) => {
                self.unify(a1, a2)?;
                self.unify(b1, b2)
            }
            (MlType::Tuple(xs), MlType::Tuple(ys)) if xs.len() == ys.len() => {
                for (x, y) in xs.iter().zip(ys) {
                    self.unify(x, y)?;
                }
                Ok(())
            }
            (MlType::Data(n1, xs), MlType::Data(n2, ys)) if n1 == n2 && xs.len() == ys.len() => {
                for (x, y) in xs.iter().zip(ys) {
                    self.unify(x, y)?;
                }
                Ok(())
            }
            _ => Err(TypeError(format!("cannot unify `{a}` with `{b}`"))),
        }
    }

    fn bind(&mut self, v: u32, t: &MlType) -> Result<(), TypeError> {
        if let MlType::Var(w) = t {
            if *w == v {
                return Ok(());
            }
        }
        if t.free_vars().contains(&v) {
            return Err(TypeError(format!("occurs check failed: 't{v} in `{t}`")));
        }
        self.subst[v as usize] = Some(t.clone());
        Ok(())
    }

    fn instantiate(&mut self, scheme: &Scheme) -> (MlType, Vec<MlType>) {
        let inst: Vec<MlType> = scheme.vars.iter().map(|_| self.fresh()).collect();
        let map: HashMap<u32, MlType> = scheme
            .vars
            .iter()
            .copied()
            .zip(inst.iter().cloned())
            .collect();
        (scheme.ty.apply(&map), inst)
    }

    fn generalize(&self, env: &TypeEnv, ty: &MlType) -> Scheme {
        let ty = self.resolve(ty);
        let mut env_vars: Vec<u32> = Vec::new();
        for s in env.values() {
            env_vars.extend(self.resolve(&s.ty).free_vars());
        }
        let vars: Vec<u32> = ty
            .free_vars()
            .into_iter()
            .filter(|v| !env_vars.contains(v))
            .collect();
        Scheme { vars, ty }
    }

    fn infer(&mut self, env: &TypeEnv, e: &Expr) -> Result<TExpr, TypeError> {
        match e {
            Expr::Var(x) => {
                let scheme = env
                    .get(x)
                    .ok_or_else(|| TypeError(format!("unbound variable `{x}`")))?
                    .clone();
                let (ty, inst) = self.instantiate(&scheme);
                Ok(TExpr {
                    ty,
                    kind: TExprKind::Var(*x, inst),
                })
            }
            Expr::Int(v) => Ok(TExpr {
                ty: MlType::Int,
                kind: TExprKind::Int(*v),
            }),
            Expr::Bool(b) => Ok(TExpr {
                ty: MlType::Bool,
                kind: TExprKind::Bool(*b),
            }),
            Expr::Unit => Ok(TExpr {
                ty: MlType::Unit,
                kind: TExprKind::Unit,
            }),
            Expr::Prim(op, a, b) => {
                let ta = self.infer(env, a)?;
                let tb = self.infer(env, b)?;
                let ty = match op {
                    PrimOp::Add | PrimOp::Sub | PrimOp::Mul | PrimOp::Div | PrimOp::Mod => {
                        self.unify(&ta.ty, &MlType::Int)?;
                        self.unify(&tb.ty, &MlType::Int)?;
                        MlType::Int
                    }
                    PrimOp::And | PrimOp::Or => {
                        self.unify(&ta.ty, &MlType::Bool)?;
                        self.unify(&tb.ty, &MlType::Bool)?;
                        MlType::Bool
                    }
                    _ => {
                        // Polymorphic comparison.
                        self.unify(&ta.ty, &tb.ty)?;
                        MlType::Bool
                    }
                };
                Ok(TExpr {
                    ty,
                    kind: TExprKind::Prim(*op, Box::new(ta), Box::new(tb)),
                })
            }
            Expr::Neg(a) => {
                let ta = self.infer(env, a)?;
                self.unify(&ta.ty, &MlType::Int)?;
                Ok(TExpr {
                    ty: MlType::Int,
                    kind: TExprKind::Neg(Box::new(ta)),
                })
            }
            Expr::Not(a) => {
                let ta = self.infer(env, a)?;
                self.unify(&ta.ty, &MlType::Bool)?;
                Ok(TExpr {
                    ty: MlType::Bool,
                    kind: TExprKind::Not(Box::new(ta)),
                })
            }
            Expr::Lam(x, body) => {
                let dom = self.fresh();
                let mut env2 = env.clone();
                env2.insert(*x, Scheme::mono(dom.clone()));
                let tb = self.infer(&env2, body)?;
                Ok(TExpr {
                    ty: MlType::Arrow(Box::new(dom), Box::new(tb.ty.clone())),
                    kind: TExprKind::Lam(*x, Box::new(tb)),
                })
            }
            Expr::App(f, a) => {
                let tf = self.infer(env, f)?;
                let ta = self.infer(env, a)?;
                let ret = self.fresh();
                self.unify(
                    &tf.ty,
                    &MlType::Arrow(Box::new(ta.ty.clone()), Box::new(ret.clone())),
                )?;
                Ok(TExpr {
                    ty: ret,
                    kind: TExprKind::App(Box::new(tf), Box::new(ta)),
                })
            }
            Expr::Let(x, rhs, body) => {
                let trhs = self.infer(env, rhs)?;
                let scheme = self.generalize(env, &trhs.ty);
                let mut env2 = env.clone();
                env2.insert(*x, scheme.clone());
                let tbody = self.infer(&env2, body)?;
                Ok(TExpr {
                    ty: tbody.ty.clone(),
                    kind: TExprKind::Let(*x, scheme, Box::new(trhs), Box::new(tbody)),
                })
            }
            Expr::LetRec(x, rhs, body) => {
                let binds = self.infer_rec_group(env, &[(*x, (**rhs).clone())])?;
                let mut env2 = env.clone();
                for b in &binds {
                    env2.insert(b.name, b.scheme.clone());
                }
                let tbody = self.infer(&env2, body)?;
                Ok(TExpr {
                    ty: tbody.ty.clone(),
                    kind: TExprKind::LetRec(binds, Box::new(tbody)),
                })
            }
            Expr::LetTuple(binders, rhs, body) => {
                let trhs = self.infer(env, rhs)?;
                let parts: Vec<MlType> = binders.iter().map(|_| self.fresh()).collect();
                self.unify(&trhs.ty, &MlType::Tuple(parts.clone()))?;
                let mut env2 = env.clone();
                let names: Vec<Symbol> = binders
                    .iter()
                    .map(|b| b.expect("resolve materializes binders"))
                    .collect();
                for (n, t) in names.iter().zip(&parts) {
                    env2.insert(*n, Scheme::mono(t.clone()));
                }
                let tbody = self.infer(&env2, body)?;
                Ok(TExpr {
                    ty: tbody.ty.clone(),
                    kind: TExprKind::LetTuple(names, Box::new(trhs), Box::new(tbody)),
                })
            }
            Expr::If(c, t, f) => {
                let tc = self.infer(env, c)?;
                self.unify(&tc.ty, &MlType::Bool)?;
                let tt = self.infer(env, t)?;
                let tf = self.infer(env, f)?;
                self.unify(&tt.ty, &tf.ty)?;
                Ok(TExpr {
                    ty: tt.ty.clone(),
                    kind: TExprKind::If(Box::new(tc), Box::new(tt), Box::new(tf)),
                })
            }
            Expr::Tuple(es) => {
                let ts: Vec<TExpr> = es
                    .iter()
                    .map(|e| self.infer(env, e))
                    .collect::<Result<_, _>>()?;
                Ok(TExpr {
                    ty: MlType::Tuple(ts.iter().map(|t| t.ty.clone()).collect()),
                    kind: TExprKind::Tuple(ts),
                })
            }
            Expr::Ctor(name, args) => {
                let sig = self
                    .data
                    .ctor(*name)
                    .ok_or_else(|| TypeError(format!("unknown constructor `{name}`")))?
                    .clone();
                let targs: Vec<MlType> = (0..sig.arity_params).map(|_| self.fresh()).collect();
                let map: HashMap<u32, MlType> = (0..sig.arity_params as u32)
                    .zip(targs.iter().cloned())
                    .collect();
                let targs_exprs: Vec<TExpr> = args
                    .iter()
                    .map(|a| self.infer(env, a))
                    .collect::<Result<_, _>>()?;
                for (field, arg) in sig.fields.iter().zip(&targs_exprs) {
                    self.unify(&field.apply(&map), &arg.ty)?;
                }
                Ok(TExpr {
                    ty: MlType::Data(sig.datatype, targs),
                    kind: TExprKind::Ctor(*name, vec![], targs_exprs),
                })
            }
            Expr::Match(scrut, arms) => {
                let tscrut = self.infer(env, scrut)?;
                let first = match &arms[0].pattern {
                    Pattern::Ctor { name, .. } => *name,
                    _ => return Err(TypeError("unresolved match pattern".into())),
                };
                let sig = self
                    .data
                    .ctor(first)
                    .ok_or_else(|| TypeError(format!("unknown constructor `{first}`")))?
                    .clone();
                let targs: Vec<MlType> = (0..sig.arity_params).map(|_| self.fresh()).collect();
                self.unify(&tscrut.ty, &MlType::Data(sig.datatype, targs.clone()))?;
                let map: HashMap<u32, MlType> = (0..sig.arity_params as u32)
                    .zip(targs.iter().cloned())
                    .collect();
                let result = self.fresh();
                let mut tarms = Vec::new();
                for arm in arms {
                    let Pattern::Ctor { name, binders } = &arm.pattern else {
                        return Err(TypeError("unresolved match pattern".into()));
                    };
                    let asig = self
                        .data
                        .ctor(*name)
                        .ok_or_else(|| TypeError(format!("unknown constructor `{name}`")))?
                        .clone();
                    let mut env2 = env.clone();
                    let names: Vec<Symbol> = binders
                        .iter()
                        .map(|b| b.expect("resolve materializes binders"))
                        .collect();
                    for (n, f) in names.iter().zip(&asig.fields) {
                        env2.insert(*n, Scheme::mono(f.apply(&map)));
                    }
                    let tbody = self.infer(&env2, &arm.body)?;
                    self.unify(&tbody.ty, &result)?;
                    tarms.push(TArm {
                        ctor: *name,
                        binders: names,
                        body: tbody,
                    });
                }
                Ok(TExpr {
                    ty: result,
                    kind: TExprKind::Match(Box::new(tscrut), tarms),
                })
            }
            Expr::Assert(a, line) => {
                let ta = self.infer(env, a)?;
                self.unify(&ta.ty, &MlType::Bool)?;
                Ok(TExpr {
                    ty: MlType::Unit,
                    kind: TExprKind::Assert(Box::new(ta), *line),
                })
            }
        }
    }

    fn infer_rec_group(
        &mut self,
        env: &TypeEnv,
        binds: &[(Symbol, Expr)],
    ) -> Result<Vec<TBind>, TypeError> {
        let mut env2 = env.clone();
        let monos: Vec<MlType> = binds.iter().map(|_| self.fresh()).collect();
        for ((name, _), m) in binds.iter().zip(&monos) {
            env2.insert(*name, Scheme::mono(m.clone()));
        }
        let mut rhss = Vec::new();
        for ((_, rhs), m) in binds.iter().zip(&monos) {
            let trhs = self.infer(&env2, rhs)?;
            self.unify(&trhs.ty, m)?;
            rhss.push(trhs);
        }
        Ok(binds
            .iter()
            .zip(rhss)
            .map(|((name, _), rhs)| {
                let scheme = self.generalize(env, &rhs.ty);
                TBind {
                    name: *name,
                    scheme,
                    rhs,
                }
            })
            .collect())
    }

    /// Deeply resolves all types in a typed tree, and fills in the
    /// datatype instantiation on constructors (recorded lazily).
    fn zonk_texpr(&self, t: &mut TExpr) {
        t.ty = self.resolve(&t.ty);
        match &mut t.kind {
            TExprKind::Var(_, inst) => {
                for i in inst {
                    *i = self.resolve(i);
                }
            }
            TExprKind::Int(_) | TExprKind::Bool(_) | TExprKind::Unit => {}
            TExprKind::Prim(_, a, b) => {
                self.zonk_texpr(a);
                self.zonk_texpr(b);
            }
            TExprKind::Neg(a) | TExprKind::Not(a) => self.zonk_texpr(a),
            TExprKind::Lam(_, b) => self.zonk_texpr(b),
            TExprKind::App(f, a) => {
                self.zonk_texpr(f);
                self.zonk_texpr(a);
            }
            TExprKind::Let(_, scheme, rhs, body) => {
                scheme.ty = self.resolve(&scheme.ty);
                self.zonk_texpr(rhs);
                self.zonk_texpr(body);
            }
            TExprKind::LetRec(binds, body) => {
                for b in binds {
                    b.scheme.ty = self.resolve(&b.scheme.ty);
                    self.zonk_texpr(&mut b.rhs);
                }
                self.zonk_texpr(body);
            }
            TExprKind::LetTuple(_, rhs, body) => {
                self.zonk_texpr(rhs);
                self.zonk_texpr(body);
            }
            TExprKind::If(c, a, b) => {
                self.zonk_texpr(c);
                self.zonk_texpr(a);
                self.zonk_texpr(b);
            }
            TExprKind::Tuple(es) => {
                for e in es {
                    self.zonk_texpr(e);
                }
            }
            TExprKind::Ctor(_, targs, args) => {
                // The node type is Data(dt, params): record them.
                if targs.is_empty() {
                    if let MlType::Data(_, params) = &t.ty {
                        *targs = params.clone();
                    }
                }
                for a in args {
                    self.zonk_texpr(a);
                }
            }
            TExprKind::Match(s, arms) => {
                self.zonk_texpr(s);
                for a in arms {
                    self.zonk_texpr(&mut a.body);
                }
            }
            TExprKind::Assert(a, _) => self.zonk_texpr(a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr_str, parse_program};
    use crate::resolve::{resolve_expr, resolve_program};

    fn setup(src: &str) -> (Program, DataEnv) {
        let prog = parse_program(src).unwrap();
        let mut data = DataEnv::with_builtins();
        data.add_program(&prog.datatypes).unwrap();
        let prog = resolve_program(&prog, &data).unwrap();
        (prog, data)
    }

    fn infer_src(src: &str) -> TProgram {
        let (prog, data) = setup(src);
        infer_program(&prog, &data, &TypeEnv::new()).unwrap()
    }

    #[test]
    fn infers_identity_polymorphically() {
        let tp = infer_src("let id x = x");
        let s = tp.scheme_of(Symbol::new("id")).unwrap();
        assert_eq!(s.vars.len(), 1);
        assert!(matches!(&s.ty, MlType::Arrow(a, b) if a == b));
    }

    #[test]
    fn infers_range_type() {
        let tp = infer_src("let rec range i j = if i > j then [] else i :: range (i + 1) j");
        let s = tp.scheme_of(Symbol::new("range")).unwrap();
        assert_eq!(s.ty.to_string(), "(int -> (int -> (int) list))");
        assert!(s.vars.is_empty());
    }

    #[test]
    fn infers_insert_sort_types() {
        let tp = infer_src(
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
        );
        let s = tp.scheme_of(Symbol::new("insertsort")).unwrap();
        assert_eq!(s.vars.len(), 1);
        let MlType::Arrow(a, b) = &s.ty else { panic!() };
        assert_eq!(a, b);
        assert!(matches!(&**a, MlType::Data(n, _) if *n == Symbol::new("list")));
    }

    #[test]
    fn infers_datatype_ctors() {
        let tp = infer_src(
            r#"
type 'a tree = Leaf | Node of 'a tree * 'a * 'a tree
let singleton x = Node (Leaf, x, Leaf)
"#,
        );
        let s = tp.scheme_of(Symbol::new("singleton")).unwrap();
        assert_eq!(s.vars.len(), 1);
        let MlType::Arrow(_, r) = &s.ty else { panic!() };
        assert!(matches!(&**r, MlType::Data(n, _) if *n == Symbol::new("tree")));
    }

    #[test]
    fn rejects_ill_typed_programs() {
        let (prog, data) = setup("let bad = 1 + true");
        assert!(infer_program(&prog, &data, &TypeEnv::new()).is_err());
    }

    #[test]
    fn rejects_occurs_check() {
        let (prog, data) = setup("let selfapp f = f f");
        assert!(infer_program(&prog, &data, &TypeEnv::new()).is_err());
    }

    #[test]
    fn var_occurrences_record_instantiations() {
        let tp = infer_src("let id x = x\nlet use = id 3");
        let TExprKind::App(f, _) = &tp.lets[1].binds[0].rhs.kind else {
            panic!()
        };
        let TExprKind::Var(name, inst) = &f.kind else {
            panic!()
        };
        assert_eq!(*name, Symbol::new("id"));
        assert_eq!(inst, &vec![MlType::Int]);
    }

    #[test]
    fn mutual_recursion_group() {
        let tp = infer_src(
            "let rec even n = if n = 0 then true else odd (n - 1)\nand odd n = if n = 0 then false else even (n - 1)",
        );
        assert_eq!(tp.lets[0].binds.len(), 2);
        for b in &tp.lets[0].binds {
            assert_eq!(b.scheme.ty.to_string(), "(int -> bool)");
        }
    }

    #[test]
    fn match_instantiation_reconstructs() {
        let scheme = Scheme {
            vars: vec![0],
            ty: MlType::Arrow(
                Box::new(MlType::Var(0)),
                Box::new(MlType::list(MlType::Var(0))),
            ),
        };
        let occ = MlType::Arrow(Box::new(MlType::Int), Box::new(MlType::list(MlType::Int)));
        assert_eq!(match_instantiation(&scheme, &occ), Some(vec![MlType::Int]));
        // Conflicting instantiation fails.
        let bad = MlType::Arrow(Box::new(MlType::Int), Box::new(MlType::list(MlType::Bool)));
        assert_eq!(match_instantiation(&scheme, &bad), None);
    }

    #[test]
    fn ctor_records_type_args_after_zonk() {
        let tp = infer_src("let l = [1; 2]");
        let TExprKind::Ctor(_, targs, _) = &tp.lets[0].binds[0].rhs.kind else {
            panic!()
        };
        assert_eq!(targs, &vec![MlType::Int]);
    }

    #[test]
    fn standalone_expr_inference() {
        let data = DataEnv::with_builtins();
        let e = parse_expr_str("fun x -> x + 1").unwrap();
        let e = resolve_expr(&e, &data).unwrap();
        let t = infer_expr(&e, &data, &TypeEnv::new()).unwrap();
        assert_eq!(t.ty.to_string(), "(int -> int)");
    }
}
