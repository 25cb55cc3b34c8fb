//! Built-in refined schemes: the finite-map primitives of §5 with
//! polymorphic refinements *and* the McCarthy `Sel`/`Upd` strengthening
//! of §5.2, plus `diverge` and `random`.

use crate::rtype::{RScheme, RType, RVarDecl, Refinement};
use crate::template::map_key_binder;
use dsolve_logic::{Expr, Pred, Subst, Symbol};
use dsolve_nanoml::{MlType, Scheme, TypeEnv};
use std::collections::{BTreeMap, HashMap};

/// Fixed type-variable ids for the built-in schemes (far above anything
/// inference allocates during a normal run, purely for readability — the
/// ids are scheme-local anyway).
const ALPHA: u32 = 9_000_000;
const BETA: u32 = 9_000_001;

fn tyvar(v: u32) -> RType {
    RType::TyVar(v, Subst::new(), Refinement::top())
}

fn tyvar_sub(v: u32, theta: Subst) -> RType {
    RType::TyVar(v, theta, Refinement::top())
}

fn witness() -> Symbol {
    crate::rtype::witness_symbol("map")
}

/// The refined map type `(i:α, β[i/x]) Map.t`.
fn map_rtype(extra: Refinement) -> RType {
    RType::Data(crate::rtype::DataRType {
        name: Symbol::new("map"),
        targs: vec![
            tyvar(ALPHA),
            tyvar_sub(BETA, Subst::single(witness(), Expr::Var(map_key_binder()))),
        ],
        rho: crate::rtype::Rho::top(),
        inner: BTreeMap::new(),
        refinement: extra,
    })
}

fn fun(x: Symbol, a: RType, b: RType) -> RType {
    RType::Fun(x, Box::new(a), Box::new(b))
}

/// The ML map type `(α, β) map`.
fn map_mltype() -> MlType {
    MlType::map(MlType::Var(ALPHA), MlType::Var(BETA))
}

/// Both environments for the built-ins: ML schemes (for Hindley–Milner)
/// and refined schemes (for the liquid phase).
pub fn builtin_schemes() -> (TypeEnv, HashMap<Symbol, RScheme>) {
    let mut ml = TypeEnv::new();
    let mut rt = HashMap::new();
    let a = MlType::Var(ALPHA);
    let b = MlType::Var(BETA);
    let ab = vec![ALPHA, BETA];
    let decls = || {
        vec![
            RVarDecl {
                var: ALPHA,
                witness: None,
            },
            RVarDecl {
                var: BETA,
                witness: Some((witness(), MlType::Var(ALPHA))),
            },
        ]
    };

    // new : int → (i:α, β[i/x]) map
    ml.insert(
        Symbol::new("new"),
        Scheme {
            vars: ab.clone(),
            ty: MlType::Arrow(Box::new(MlType::Int), Box::new(map_mltype())),
        },
    );
    rt.insert(
        Symbol::new("new"),
        RScheme {
            vars: decls(),
            ty: fun(
                Symbol::new("size"),
                RType::int(),
                map_rtype(Refinement::top()),
            ),
        },
    );

    // set : m:map → k:α → d:β[k/x] → {ν:map | ν = Upd(m,k,d)}
    let (m, k, d) = (Symbol::new("m"), Symbol::new("k"), Symbol::new("d"));
    ml.insert(
        Symbol::new("set"),
        Scheme {
            vars: ab.clone(),
            ty: MlType::Arrow(
                Box::new(map_mltype()),
                Box::new(MlType::Arrow(
                    Box::new(a.clone()),
                    Box::new(MlType::Arrow(Box::new(b.clone()), Box::new(map_mltype()))),
                )),
            ),
        },
    );
    rt.insert(
        Symbol::new("set"),
        RScheme {
            vars: decls(),
            ty: fun(
                m,
                map_rtype(Refinement::top()),
                fun(
                    k,
                    tyvar(ALPHA),
                    fun(
                        d,
                        tyvar_sub(BETA, Subst::single(witness(), Expr::Var(k))),
                        map_rtype(Refinement::pred(Pred::eq(
                            Expr::nu(),
                            Expr::upd(Expr::Var(m), Expr::Var(k), Expr::Var(d)),
                        ))),
                    ),
                ),
            ),
        },
    );

    // get : m:map → k:α → {ν:β[k/x] | ν = Sel(m,k)}
    ml.insert(
        Symbol::new("get"),
        Scheme {
            vars: ab.clone(),
            ty: MlType::Arrow(
                Box::new(map_mltype()),
                Box::new(MlType::Arrow(Box::new(a.clone()), Box::new(b.clone()))),
            ),
        },
    );
    rt.insert(
        Symbol::new("get"),
        RScheme {
            vars: decls(),
            ty: fun(
                m,
                map_rtype(Refinement::top()),
                fun(
                    k,
                    tyvar(ALPHA),
                    RType::TyVar(
                        BETA,
                        Subst::single(witness(), Expr::Var(k)),
                        Refinement::pred(Pred::eq(
                            Expr::nu(),
                            Expr::sel(Expr::Var(m), Expr::Var(k)),
                        )),
                    ),
                ),
            ),
        },
    );

    // mem : m:map → k:α → bool
    ml.insert(
        Symbol::new("mem"),
        Scheme {
            vars: ab.clone(),
            ty: MlType::Arrow(
                Box::new(map_mltype()),
                Box::new(MlType::Arrow(Box::new(a.clone()), Box::new(MlType::Bool))),
            ),
        },
    );
    rt.insert(
        Symbol::new("mem"),
        RScheme {
            vars: decls(),
            ty: fun(
                m,
                map_rtype(Refinement::top()),
                fun(k, tyvar(ALPHA), RType::bool()),
            ),
        },
    );

    // diverge : α → β with an inconsistent result (never returns).
    ml.insert(
        Symbol::new("diverge"),
        Scheme {
            vars: ab.clone(),
            ty: MlType::Arrow(Box::new(a.clone()), Box::new(b.clone())),
        },
    );
    rt.insert(
        Symbol::new("diverge"),
        RScheme {
            vars: vec![
                RVarDecl {
                    var: ALPHA,
                    witness: None,
                },
                RVarDecl {
                    var: BETA,
                    witness: None,
                },
            ],
            ty: fun(
                Symbol::new("u"),
                tyvar(ALPHA),
                RType::TyVar(BETA, Subst::new(), Refinement::pred(Pred::False)),
            ),
        },
    );

    // random : α → int (unconstrained).
    ml.insert(
        Symbol::new("random"),
        Scheme {
            vars: vec![ALPHA],
            ty: MlType::Arrow(Box::new(a), Box::new(MlType::Int)),
        },
    );
    rt.insert(
        Symbol::new("random"),
        RScheme {
            vars: vec![RVarDecl {
                var: ALPHA,
                witness: None,
            }],
            ty: fun(Symbol::new("u"), tyvar(ALPHA), RType::int()),
        },
    );

    (ml, rt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ml_and_refined_schemes_align() {
        let (ml, rt) = builtin_schemes();
        for (name, scheme) in &rt {
            let m = ml.get(name).expect("ml scheme exists");
            assert_eq!(
                m.vars.len(),
                scheme.vars.len(),
                "quantifier arity of `{name}`"
            );
            assert_eq!(m.ty, scheme.ty.shape(), "shape of `{name}`");
        }
    }

    #[test]
    fn get_result_carries_sel_fact() {
        let (_, rt) = builtin_schemes();
        let get = &rt[&Symbol::new("get")];
        let s = get.ty.to_string();
        assert!(s.contains("Sel(m, k)"), "{s}");
    }

    #[test]
    fn set_result_carries_upd_fact() {
        let (_, rt) = builtin_schemes();
        let set = &rt[&Symbol::new("set")];
        let s = set.ty.to_string();
        assert!(s.contains("Upd(m, k, d)"), "{s}");
    }

    #[test]
    fn beta_has_witness() {
        let (_, rt) = builtin_schemes();
        let get = &rt[&Symbol::new("get")];
        assert!(get.vars[1].witness.is_some());
        assert!(get.vars[0].witness.is_none());
    }

    #[test]
    fn diverge_output_is_inconsistent() {
        let (_, rt) = builtin_schemes();
        let d = &rt[&Symbol::new("diverge")];
        let RType::Fun(_, _, out) = &d.ty else {
            panic!()
        };
        assert!(out.to_string().contains("false"));
    }
}
