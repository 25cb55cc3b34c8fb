//! Post-parse resolution: constructor arities, match normalization.
//!
//! The paper's `match-with` rule assumes exactly one arm per constructor,
//! each binding plain variables. This pass normalizes parsed programs to
//! that shape:
//!
//! * constructor applications `C (e1, ..., en)` parsed as a single tuple
//!   argument are spread to `n` fields when the declared arity is `n`;
//! * tuple-pattern matches become `LetTuple`;
//! * catch-all arms (`_ -> e` / `x -> e`) are expanded into one arm per
//!   missing constructor (a named catch-all first binds the scrutinee);
//! * arms are sorted into declaration order and checked for exhaustiveness
//!   and duplicates;
//! * every `_` binder is materialized as a fresh variable.

use crate::ast::{Arm, Expr, Pattern, Program, TopBind, TopLet};
use crate::types::DataEnv;
use dsolve_logic::Symbol;
use std::fmt;

/// An error found during resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolveError(pub String);

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "resolve error: {}", self.0)
    }
}

impl std::error::Error for ResolveError {}

/// Resolves a whole program in place.
pub fn resolve_program(prog: &Program, env: &DataEnv) -> Result<Program, ResolveError> {
    let mut out = prog.clone();
    for tl in &mut out.lets {
        let TopLet { binds, .. } = tl;
        for TopBind { body, .. } in binds {
            *body = resolve_expr(body, env)?;
        }
    }
    Ok(out)
}

/// Resolves a single expression.
pub fn resolve_expr(e: &Expr, env: &DataEnv) -> Result<Expr, ResolveError> {
    Ok(match e {
        Expr::Var(_) | Expr::Int(_) | Expr::Bool(_) | Expr::Unit => e.clone(),
        Expr::Prim(op, a, b) => Expr::Prim(
            *op,
            Box::new(resolve_expr(a, env)?),
            Box::new(resolve_expr(b, env)?),
        ),
        Expr::Neg(a) => Expr::Neg(Box::new(resolve_expr(a, env)?)),
        Expr::Not(a) => Expr::Not(Box::new(resolve_expr(a, env)?)),
        Expr::Lam(x, b) => Expr::Lam(*x, Box::new(resolve_expr(b, env)?)),
        Expr::App(f, a) => Expr::App(
            Box::new(resolve_expr(f, env)?),
            Box::new(resolve_expr(a, env)?),
        ),
        Expr::Let(x, rhs, body) => Expr::Let(
            *x,
            Box::new(resolve_expr(rhs, env)?),
            Box::new(resolve_expr(body, env)?),
        ),
        Expr::LetRec(x, rhs, body) => Expr::LetRec(
            *x,
            Box::new(resolve_expr(rhs, env)?),
            Box::new(resolve_expr(body, env)?),
        ),
        Expr::LetTuple(bs, rhs, body) => Expr::LetTuple(
            bs.iter()
                .map(|b| Some(b.unwrap_or_else(|| Symbol::fresh("unused"))))
                .collect(),
            Box::new(resolve_expr(rhs, env)?),
            Box::new(resolve_expr(body, env)?),
        ),
        Expr::If(c, t, f) => Expr::If(
            Box::new(resolve_expr(c, env)?),
            Box::new(resolve_expr(t, env)?),
            Box::new(resolve_expr(f, env)?),
        ),
        Expr::Tuple(es) => Expr::Tuple(
            es.iter()
                .map(|e| resolve_expr(e, env))
                .collect::<Result<_, _>>()?,
        ),
        Expr::Ctor(name, args) => {
            let sig = env
                .ctor(*name)
                .ok_or_else(|| ResolveError(format!("unknown constructor `{name}`")))?;
            let arity = sig.fields.len();
            let mut args: Vec<Expr> = args
                .iter()
                .map(|a| resolve_expr(a, env))
                .collect::<Result<_, _>>()?;
            // Spread a single tuple argument across a multi-field ctor.
            if arity > 1 && args.len() == 1 {
                if let Expr::Tuple(es) = &args[0] {
                    if es.len() == arity {
                        args = es.clone();
                    }
                }
            }
            if args.len() != arity {
                return Err(ResolveError(format!(
                    "constructor `{name}` expects {arity} argument(s), got {}",
                    args.len()
                )));
            }
            Expr::Ctor(*name, args)
        }
        Expr::Match(scrut, arms) => resolve_match(scrut, arms, env)?,
        Expr::Assert(a, line) => Expr::Assert(Box::new(resolve_expr(a, env)?), *line),
    })
}

fn resolve_match(scrut: &Expr, arms: &[Arm], env: &DataEnv) -> Result<Expr, ResolveError> {
    let scrut = resolve_expr(scrut, env)?;
    if arms.is_empty() {
        return Err(ResolveError("empty match".into()));
    }
    // Irrefutable single-arm matches.
    match (&arms[0].pattern, arms.len()) {
        (Pattern::Tuple(bs), 1) => {
            let body = resolve_expr(&arms[0].body, env)?;
            return Ok(Expr::LetTuple(
                bs.iter()
                    .map(|b| Some(b.unwrap_or_else(|| Symbol::fresh("unused"))))
                    .collect(),
                Box::new(scrut),
                Box::new(body),
            ));
        }
        (Pattern::Any(b), 1) => {
            let body = resolve_expr(&arms[0].body, env)?;
            let name = b.unwrap_or_else(|| Symbol::fresh("unused"));
            return Ok(Expr::Let(name, Box::new(scrut), Box::new(body)));
        }
        _ => {}
    }
    // Constructor match: identify the datatype from the first ctor arm.
    let first_ctor = arms
        .iter()
        .find_map(|a| match &a.pattern {
            Pattern::Ctor { name, .. } => Some(*name),
            _ => None,
        })
        .ok_or_else(|| ResolveError("match arms mix tuples and wildcards".into()))?;
    let datatype = env
        .ctor(first_ctor)
        .ok_or_else(|| ResolveError(format!("unknown constructor `{first_ctor}`")))?
        .datatype;
    let decl = env.decl(datatype).expect("ctor's datatype exists").clone();

    // If a named catch-all exists, bind the scrutinee first so expanded
    // arms can refer to it.
    let catchall = arms
        .iter()
        .position(|a| matches!(a.pattern, Pattern::Any(_)));
    if let Some(ix) = catchall {
        if ix != arms.len() - 1 {
            return Err(ResolveError("catch-all arm must be last in a match".into()));
        }
        if let Pattern::Any(Some(x)) = arms[ix].pattern {
            // Rebind: let x = scrut in match x with ...
            let mut renamed = arms.to_vec();
            renamed[ix].pattern = Pattern::Any(None);
            let inner = resolve_match(&Expr::Var(x), &renamed, env)?;
            return Ok(Expr::Let(x, Box::new(scrut), Box::new(inner)));
        }
    }

    // Collect one arm per constructor, expanding the catch-all.
    let mut per_ctor: Vec<Option<Arm>> = vec![None; decl.ctor_names.len()];
    for arm in arms {
        match &arm.pattern {
            Pattern::Ctor { name, binders } => {
                let sig = env
                    .ctor(*name)
                    .ok_or_else(|| ResolveError(format!("unknown constructor `{name}`")))?;
                if sig.datatype != datatype {
                    return Err(ResolveError(format!(
                        "constructor `{name}` does not belong to `{datatype}`"
                    )));
                }
                if binders.len() != sig.fields.len() {
                    return Err(ResolveError(format!(
                        "constructor `{name}` has {} field(s), pattern binds {}",
                        sig.fields.len(),
                        binders.len()
                    )));
                }
                if per_ctor[sig.index].is_some() {
                    return Err(ResolveError(format!(
                        "duplicate arm for constructor `{name}`"
                    )));
                }
                per_ctor[sig.index] = Some(Arm {
                    pattern: Pattern::Ctor {
                        name: *name,
                        binders: binders
                            .iter()
                            .map(|b| Some(b.unwrap_or_else(|| Symbol::fresh("unused"))))
                            .collect(),
                    },
                    body: resolve_expr(&arm.body, env)?,
                });
            }
            Pattern::Any(None) => {
                for (i, slot) in per_ctor.iter_mut().enumerate() {
                    if slot.is_none() {
                        let arity = decl.ctor_fields[i].len();
                        *slot = Some(Arm {
                            pattern: Pattern::Ctor {
                                name: decl.ctor_names[i],
                                binders: (0..arity)
                                    .map(|_| Some(Symbol::fresh("unused")))
                                    .collect(),
                            },
                            body: resolve_expr(&arm.body, env)?,
                        });
                    }
                }
            }
            Pattern::Any(Some(_)) => unreachable!("handled above"),
            Pattern::Tuple(_) => {
                return Err(ResolveError(
                    "tuple pattern cannot appear among constructor arms".into(),
                ))
            }
        }
    }
    let mut final_arms = Vec::new();
    for (i, slot) in per_ctor.into_iter().enumerate() {
        match slot {
            Some(a) => final_arms.push(a),
            None => {
                return Err(ResolveError(format!(
                    "non-exhaustive match: missing constructor `{}`",
                    decl.ctor_names[i]
                )))
            }
        }
    }
    Ok(Expr::Match(Box::new(scrut), final_arms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr_str, parse_program};

    fn env_with(src: &str) -> DataEnv {
        let prog = parse_program(src).unwrap();
        let mut env = DataEnv::with_builtins();
        env.add_program(&prog.datatypes).unwrap();
        env
    }

    #[test]
    fn spreads_ctor_tuple_args() {
        let env = env_with("type t = N of int * int");
        let e = parse_expr_str("N (1, 2)").unwrap();
        let r = resolve_expr(&e, &env).unwrap();
        let Expr::Ctor(_, args) = r else { panic!() };
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn match_arms_sorted_and_exhaustive() {
        let env = DataEnv::with_builtins();
        let e = parse_expr_str("match l with x :: xs -> 1 | [] -> 0").unwrap();
        let r = resolve_expr(&e, &env).unwrap();
        let Expr::Match(_, arms) = r else { panic!() };
        // Declaration order: Nil first.
        let Pattern::Ctor { name, .. } = &arms[0].pattern else {
            panic!()
        };
        assert_eq!(*name, Symbol::new("Nil"));
    }

    #[test]
    fn wildcard_expands_to_missing_ctors() {
        let env = env_with("type c = R | B | G");
        let e = parse_expr_str("match x with R -> 1 | _ -> 0").unwrap();
        let r = resolve_expr(&e, &env).unwrap();
        let Expr::Match(_, arms) = r else { panic!() };
        assert_eq!(arms.len(), 3);
    }

    #[test]
    fn named_catchall_binds_scrutinee() {
        let env = DataEnv::with_builtins();
        let e = parse_expr_str("match f y with x :: xs -> x | other -> 0").unwrap();
        let r = resolve_expr(&e, &env).unwrap();
        assert!(matches!(r, Expr::Let(name, _, _) if name == Symbol::new("other")));
    }

    #[test]
    fn non_exhaustive_rejected() {
        let env = DataEnv::with_builtins();
        let e = parse_expr_str("match l with x :: xs -> 1").unwrap();
        assert!(resolve_expr(&e, &env).is_err());
    }

    #[test]
    fn duplicate_arm_rejected() {
        let env = DataEnv::with_builtins();
        let e = parse_expr_str("match l with [] -> 0 | [] -> 1 | x :: y -> 2").unwrap();
        assert!(resolve_expr(&e, &env).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let env = DataEnv::with_builtins();
        let e = parse_expr_str("match l with Cons x -> 0 | [] -> 1").unwrap();
        assert!(resolve_expr(&e, &env).is_err());
    }

    #[test]
    fn tuple_match_becomes_let_tuple() {
        let env = DataEnv::with_builtins();
        let e = parse_expr_str("match p with (a, b) -> a + b").unwrap();
        let r = resolve_expr(&e, &env).unwrap();
        assert!(matches!(r, Expr::LetTuple(_, _, _)));
    }
}
