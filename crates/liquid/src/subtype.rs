//! Decidable subtyping: splitting structural subtyping into simple
//! refinement implications (Fig. 6, Fig. 8, Fig. 9).
//!
//! Function subtyping is contravariant/covariant; tuples use [<:-PROD]
//! with environment extension; refined polytype instances use
//! [<:-REFVAR]; datatypes use [<:-REC]: the matrices are applied one
//! level (with shared fresh binders), recursive positions are compared by
//! the *pointwise local subtyping* of their composed matrices at one more
//! level of fresh binders — the coinductive reading of the rule.

use crate::constraint::{LiquidError, Origin, SubC};
use crate::env::{GlobalEnv, LiquidEnv};
use crate::rtype::{DataRType, RType, Refinement, Rho};
use crate::template::{map_key_binder, rtype_of_shape, unfold_ctor};
use dsolve_logic::{Expr, Pred, Symbol};
use dsolve_nanoml::MlType;
use std::collections::HashMap;

/// Splits `lhs <: rhs` under `env` into simple constraints, appended to
/// `out`.
///
/// # Errors
///
/// Fails on shape mismatches, which indicate a bug upstream (HM inference
/// guarantees equal shapes).
pub fn split(
    genv: &GlobalEnv,
    env: &LiquidEnv,
    lhs: &RType,
    rhs: &RType,
    origin: &Origin,
    out: &mut Vec<SubC>,
) -> Result<(), LiquidError> {
    // Mutually recursive datatype declarations could make structural
    // splitting cycle; the fuel bound degrades those (rare) corners to a
    // top-level-refinement comparison, which is conservative.
    split_fuel(genv, env, lhs, rhs, origin, out, 64)
}

#[allow(clippy::too_many_arguments)]
fn split_fuel(
    genv: &GlobalEnv,
    env: &LiquidEnv,
    lhs: &RType,
    rhs: &RType,
    origin: &Origin,
    out: &mut Vec<SubC>,
    fuel: u32,
) -> Result<(), LiquidError> {
    if fuel == 0 {
        push_sub(
            env,
            &lhs.shape(),
            &lhs.refinement(),
            &rhs.refinement(),
            origin,
            out,
        );
        return Ok(());
    }
    let fuel = fuel - 1;
    match (lhs, rhs) {
        (RType::Base(b1, r1), RType::Base(b2, r2)) if b1 == b2 => {
            push_sub(env, &lhs.shape(), r1, r2, origin, out);
            let _ = fuel;
            Ok(())
        }
        (RType::TyVar(v1, th1, r1), RType::TyVar(v2, th2, r2)) if v1 == v2 => {
            // [<:-REFVAR]: the pending substitutions must map witnesses to
            // provably equal values. Only witnesses present on *both*
            // sides constrain: a side without the witness came from a
            // context whose instantiations cannot mention it.
            let th1 = th1.telescope();
            let th2 = th2.telescope();
            let d1: Vec<Symbol> = th1.pairs().iter().map(|(x, _)| *x).collect();
            let domain: Vec<Symbol> = th2
                .pairs()
                .iter()
                .map(|(x, _)| *x)
                .filter(|x| d1.contains(x))
                .collect();
            for x in domain {
                let e1 = th1.apply_expr(&Expr::Var(x));
                let e2 = th2.apply_expr(&Expr::Var(x));
                if e1 != e2 {
                    out.push(SubC {
                        env: env.clone(),
                        nu_shape: MlType::Var(*v1),
                        lhs: Refinement::top(),
                        rhs: Refinement::pred(Pred::eq(e1, e2)),
                        origin: origin.clone(),
                    });
                }
            }
            push_sub(env, &MlType::Var(*v1), r1, r2, origin, out);
            Ok(())
        }
        (RType::Fun(x1, a1, b1), RType::Fun(x2, a2, b2)) => {
            split_fuel(genv, env, a2, a1, origin, out, fuel)?;
            let env2 = env.bind(*x2, (**a2).clone());
            let b1s = b1.subst1(*x1, &Expr::Var(*x2));
            split_fuel(genv, &env2, &b1s, b2, origin, out, fuel)
        }
        (RType::Tuple(f1), RType::Tuple(f2)) if f1.len() == f2.len() => {
            let mut env2 = env.clone();
            let mut l: Vec<(Symbol, RType)> = f1.clone();
            let mut r: Vec<(Symbol, RType)> = f2.clone();
            for i in 0..l.len() {
                let z = Symbol::fresh("z");
                let (x1, t1) = l[i].clone();
                let (x2, t2) = r[i].clone();
                split_fuel(genv, &env2, &t1, &t2, origin, out, fuel)?;
                // Bind the common name and rewrite later fields.
                env2 = env2.bind(z, t1.selfify(Expr::Var(z)));
                for (_, later) in l.iter_mut().skip(i + 1) {
                    *later = later.subst1(x1, &Expr::Var(z));
                }
                for (_, later) in r.iter_mut().skip(i + 1) {
                    *later = later.subst1(x2, &Expr::Var(z));
                }
            }
            Ok(())
        }
        (RType::Data(d1), RType::Data(d2)) if d1.name == d2.name => {
            if d1.name == Symbol::new("map") {
                split_map(genv, env, d1, d2, origin, out, fuel)
            } else {
                split_data(genv, env, d1, d2, origin, out, fuel)
            }
        }
        _ => Err(LiquidError {
            msg: format!("shape mismatch in subtyping: `{lhs}` vs `{rhs}`"),
            origin: Some(origin.clone()),
        }),
    }
}

fn push_sub(
    env: &LiquidEnv,
    shape: &MlType,
    lhs: &Refinement,
    rhs: &Refinement,
    origin: &Origin,
    out: &mut Vec<SubC>,
) {
    if rhs.is_top() {
        return;
    }
    out.push(SubC {
        env: env.clone(),
        nu_shape: shape.clone(),
        lhs: lhs.clone(),
        rhs: rhs.clone(),
        origin: origin.clone(),
    });
}

/// Finite maps (§5): keys invariant, values compared under a shared
/// binding of the canonical key binder.
#[allow(clippy::too_many_arguments)]
fn split_map(
    genv: &GlobalEnv,
    env: &LiquidEnv,
    d1: &DataRType,
    d2: &DataRType,
    origin: &Origin,
    out: &mut Vec<SubC>,
    fuel: u32,
) -> Result<(), LiquidError> {
    push_sub(
        env,
        &RType::Data(d1.clone()).shape(),
        &d1.refinement,
        &d2.refinement,
        origin,
        out,
    );
    // Keys: invariant (the proviso OCaml already enforces, §6 Bdd).
    split_fuel(genv, env, &d1.targs[0], &d2.targs[0], origin, out, fuel)?;
    split_fuel(genv, env, &d2.targs[0], &d1.targs[0], origin, out, fuel)?;
    // Values: bind a fresh key and compare.
    let k = Symbol::fresh("key");
    let env2 = env.bind(k, d1.targs[0].clone().selfify(Expr::Var(k)));
    let v1 = d1.targs[1].subst1(map_key_binder(), &Expr::Var(k));
    let v2 = d2.targs[1].subst1(map_key_binder(), &Expr::Var(k));
    split_fuel(genv, &env2, &v1, &v2, origin, out, fuel)
}

/// Refined datatypes ([<:-REC] with the coinductive one-level reading).
#[allow(clippy::too_many_arguments)]
fn split_data(
    genv: &GlobalEnv,
    env: &LiquidEnv,
    d1: &DataRType,
    d2: &DataRType,
    origin: &Origin,
    out: &mut Vec<SubC>,
    fuel: u32,
) -> Result<(), LiquidError> {
    let shape = RType::Data(d1.clone()).shape();
    push_sub(env, &shape, &d1.refinement, &d2.refinement, origin, out);
    // Type arguments are NOT compared directly: element flows go through
    // the per-constructor field comparisons below, which conjoin the
    // matrix entries — comparing bare targs would demand uniform element
    // refinements and defeat position-dependent invariants like
    // sortedness.
    let Some(decl) = genv.data.decl(d1.name) else {
        return Err(LiquidError::internal(format!(
            "unknown datatype `{}` in subtyping",
            d1.name
        )));
    };
    let decl = decl.clone();
    for c in 0..decl.ctor_names.len() {
        let binders: Vec<Symbol> = decl.ctor_fields[c]
            .iter()
            .map(|_| Symbol::fresh("fld"))
            .collect();
        let lf = unfold_ctor(genv, d1, c, &binders);
        let rf = unfold_ctor(genv, d2, c, &binders);
        let mut env_c = env.clone();
        for j in 0..lf.len() {
            match (&lf[j], &rf[j]) {
                // Recursive positions: compare composed matrices
                // pointwise at one more level of fresh binders, instead
                // of recursing into `split` (which would not terminate).
                (RType::Data(s1), RType::Data(s2)) if s1.name == d1.name && s2.name == d1.name => {
                    push_sub(&env_c, &shape, &s1.refinement, &s2.refinement, origin, out);
                    split_matrices(
                        genv,
                        &env_c,
                        &decl,
                        (d1, &s1.rho),
                        (d2, &s2.rho),
                        origin,
                        out,
                        fuel,
                    )?;
                }
                (t1, t2) => {
                    split_fuel(genv, &env_c, t1, t2, origin, out, fuel)?;
                }
            }
            env_c = env_c.bind(binders[j], lf[j].selfify(Expr::Var(binders[j])));
        }
    }
    Ok(())
}

/// Local subtyping between two composed matrices: for every constructor,
/// bind fresh fields (assuming the left-hand field types) and compare the
/// full field types — type arguments strengthened by the matrix entries
/// for parameter positions, entry-to-entry implications at recursive
/// positions (one level; deeper levels are renamings).
#[allow(clippy::too_many_arguments)]
fn split_matrices(
    genv: &GlobalEnv,
    env: &LiquidEnv,
    decl: &dsolve_nanoml::DeclSig,
    lhs: (&DataRType, &Rho),
    rhs: (&DataRType, &Rho),
    origin: &Origin,
    out: &mut Vec<SubC>,
    fuel: u32,
) -> Result<(), LiquidError> {
    let (d1, m1) = lhs;
    let (d2, m2) = rhs;
    let params1: HashMap<u32, RType> = d1
        .targs
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u32, t.clone()))
        .collect();
    let params2: HashMap<u32, RType> = d2
        .targs
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u32, t.clone()))
        .collect();
    let targ_shapes: Vec<MlType> = d1.targs.iter().map(RType::shape).collect();
    for c2 in 0..decl.ctor_names.len() {
        let cname2 = decl.ctor_names[c2];
        let mut env2 = env.clone();
        let mut theta = dsolve_logic::Subst::new();
        for (f2, fshape) in decl.ctor_fields[c2].iter().enumerate() {
            let ws = Symbol::fresh("w");
            theta = theta.then(crate::rtype::field_name(d1.name, cname2, f2), Expr::Var(ws));
            let e1 = m1.entry(c2, f2).subst(&theta);
            let e2 = m2.entry(c2, f2).subst(&theta);
            let fs = {
                let map: HashMap<u32, MlType> = targ_shapes
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (i as u32, t.clone()))
                    .collect();
                fshape.apply(&map)
            };
            let lhs_t = field_rtype(fshape, &params1, &e1);
            if is_rec_field(decl, d1.name, fshape) {
                // Entry-to-entry only; the sub-structure's own matrices
                // are α-renamings of the ones being compared.
                push_sub(&env2, &fs, &e1, &e2, origin, out);
            } else {
                let rhs_t = field_rtype(fshape, &params2, &e2);
                split_fuel(genv, &env2, &lhs_t, &rhs_t, origin, out, fuel)?;
            }
            // Bind the field at its left-hand type for later entries of
            // the same product.
            env2 = env2.bind(ws, lhs_t.selfify(Expr::Var(ws)));
        }
    }
    Ok(())
}

fn field_rtype(fshape: &MlType, params: &HashMap<u32, RType>, entry: &Refinement) -> RType {
    let base = match fshape {
        MlType::Var(i) => params
            .get(i)
            .cloned()
            .unwrap_or_else(|| rtype_of_shape(fshape, params)),
        other => rtype_of_shape(other, params),
    };
    base.strengthen(entry)
}

fn is_rec_field(decl: &dsolve_nanoml::DeclSig, name: Symbol, fshape: &MlType) -> bool {
    match fshape {
        MlType::Data(n, args) if *n == name && args.len() == decl.params => args
            .iter()
            .enumerate()
            .all(|(i, a)| *a == MlType::Var(i as u32)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::KEnv;
    use crate::measure::MeasureEnv;
    use crate::rtype::{BaseTy, RefAtom};
    use crate::template;
    use dsolve_logic::{parse_pred, Subst};
    use dsolve_nanoml::DataEnv;
    use std::collections::BTreeMap;

    fn genv() -> GlobalEnv {
        GlobalEnv::new(DataEnv::with_builtins(), MeasureEnv::new())
    }

    fn int_p(s: &str) -> RType {
        RType::int_pred(parse_pred(s).unwrap())
    }

    #[test]
    fn base_subtyping_yields_one_constraint() {
        let genv = genv();
        let mut out = Vec::new();
        split(
            &genv,
            &LiquidEnv::new(),
            &int_p("0 < VV"),
            &int_p("0 <= VV"),
            &Origin::Flow("test"),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].nu_shape, MlType::Int);
    }

    #[test]
    fn top_rhs_generates_nothing() {
        let genv = genv();
        let mut out = Vec::new();
        split(
            &genv,
            &LiquidEnv::new(),
            &int_p("0 < VV"),
            &RType::int(),
            &Origin::Flow("test"),
            &mut out,
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn function_subtyping_is_contravariant() {
        let genv = genv();
        let x = Symbol::new("x");
        let f1 = RType::Fun(x, Box::new(int_p("0 <= VV")), Box::new(int_p("x < VV")));
        let y = Symbol::new("y");
        let f2 = RType::Fun(y, Box::new(int_p("0 < VV")), Box::new(int_p("y <= VV")));
        let mut out = Vec::new();
        split(
            &genv,
            &LiquidEnv::new(),
            &f1,
            &f2,
            &Origin::Flow("t"),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        // First constraint: arguments flipped (0 < ν ⇒ 0 ≤ ν).
        assert!(out[0].lhs.to_string().contains("0 < VV"));
        assert!(out[0].rhs.to_string().contains("0 <= VV"));
        // Second: results in env with y bound.
        assert!(out[1].env.lookup(y).is_some());
    }

    #[test]
    fn refvar_pending_substitutions_must_agree() {
        let genv = genv();
        let wit = Symbol::new("xw");
        let t1 = RType::TyVar(0, Subst::single(wit, Expr::var("k1")), Refinement::top());
        let t2 = RType::TyVar(0, Subst::single(wit, Expr::var("k2")), Refinement::top());
        let mut out = Vec::new();
        split(
            &genv,
            &LiquidEnv::new(),
            &t1,
            &t2,
            &Origin::Flow("t"),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rhs.to_string(), "(k1 = k2)");
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let genv = genv();
        let mut out = Vec::new();
        assert!(split(
            &genv,
            &LiquidEnv::new(),
            &RType::int(),
            &RType::bool(),
            &Origin::Flow("t"),
            &mut out
        )
        .is_err());
    }

    /// `int list≤ <: int list≠` (judgment (7) of the paper) splits into a
    /// local entry implication `z ≤ ν ⇒ z ≠ ν`.
    #[test]
    fn sorted_list_subtype_of_distinct_list() {
        let genv = genv();
        let list = Symbol::new("list");
        let cons = Symbol::new("Cons");
        let mk = |pred: &str| {
            let mut inner_m = Rho::top();
            inner_m.set(
                1,
                0,
                Refinement::pred(
                    parse_pred(&format!(
                        "{} {pred} VV",
                        template::up_field_name(list, cons, 0)
                    ))
                    .unwrap(),
                ),
            );
            let mut inner = BTreeMap::new();
            inner.insert((1, 1), inner_m);
            DataRType {
                name: list,
                targs: vec![RType::int()],
                rho: Rho::top(),
                inner,
                refinement: Refinement::top(),
            }
        };
        let le = mk("<=");
        let ne = mk("!=");
        let mut out = Vec::new();
        split(
            &genv,
            &LiquidEnv::new(),
            &RType::Data(le),
            &RType::Data(ne),
            &Origin::Flow("t"),
            &mut out,
        )
        .unwrap();
        // Find the entry implication.
        let found = out.iter().any(|c| {
            let l = c.lhs.to_string();
            let r = c.rhs.to_string();
            l.contains("<= VV") && r.contains("!= VV")
        });
        assert!(found, "constraints: {out:?}");
    }

    #[test]
    fn data_subtype_covers_targs_and_kvars() {
        let genv = genv();
        let mut kenv = KEnv::new();
        let env = LiquidEnv::new();
        let lhs = template::fresh(&genv, &mut kenv, &env, &MlType::list(MlType::Int));
        let rhs = template::fresh(&genv, &mut kenv, &env, &MlType::list(MlType::Int));
        let mut out = Vec::new();
        split(&genv, &env, &lhs, &rhs, &Origin::Flow("t"), &mut out).unwrap();
        // Every constraint's rhs is a kvar template.
        assert!(!out.is_empty());
        for c in &out {
            assert!(c
                .rhs
                .atoms
                .iter()
                .all(|(_, a)| matches!(a, RefAtom::KVar(_))));
        }
    }

    #[test]
    fn map_values_compared_under_key_binding() {
        let genv = genv();
        let key = template::map_key_binder();
        let mk = |p: &str| {
            RType::Data(DataRType {
                name: Symbol::new("map"),
                targs: vec![
                    RType::int(),
                    RType::Base(BaseTy::Int, Refinement::pred(parse_pred(p).unwrap())),
                ],
                rho: Rho::top(),
                inner: BTreeMap::new(),
                refinement: Refinement::top(),
            })
        };
        let m1 = mk(&format!("{key} < VV"));
        let m2 = mk(&format!("{key} <= VV"));
        let mut out = Vec::new();
        split(
            &genv,
            &LiquidEnv::new(),
            &m1,
            &m2,
            &Origin::Flow("t"),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        // The canonical key binder was renamed to a fresh shared key.
        assert!(!out[0].lhs.to_string().contains("map#key"));
        assert!(out[0].lhs.to_string().contains("< VV"));
        assert!(out[0].rhs.to_string().contains("<= VV"));
    }

    #[test]
    fn tuple_dependencies_rebound() {
        let genv = genv();
        let a1 = Symbol::new("a1");
        let t1 = RType::Tuple(vec![
            (a1, int_p("0 < VV")),
            (Symbol::new("b1"), int_p("a1 < VV")),
        ]);
        let a2 = Symbol::new("a2");
        let t2 = RType::Tuple(vec![
            (a2, RType::int()),
            (Symbol::new("b2"), int_p("a2 <= VV")),
        ]);
        let mut out = Vec::new();
        split(
            &genv,
            &LiquidEnv::new(),
            &t1,
            &t2,
            &Origin::Flow("t"),
            &mut out,
        )
        .unwrap();
        // Second field: both sides reference the SAME fresh binder.
        let last = out.last().unwrap();
        let l = last.lhs.to_string();
        let r = last.rhs.to_string();
        let zl = l.split(' ').next().unwrap().trim_start_matches('(');
        assert!(r.contains(zl), "lhs={l} rhs={r}");
    }
}
