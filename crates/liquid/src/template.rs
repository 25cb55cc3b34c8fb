//! Template creation, scheme instantiation, and unfolding.
//!
//! *Templates* are refinement types whose every refinable position holds a
//! fresh liquid variable `κ` (registered with its scope for qualifier
//! instantiation). *Unfolding* implements the ρ-application judgment
//! `(ρ) T ▷ T'` of Fig. 8 together with the `t ↦ (ρ)μt.T` substitution
//! and normalization: constructor field types are produced with the
//! matrix entries conjoined and, at recursive positions, the inner matrix
//! promoted onto the top matrix.

use crate::env::{fresh_refinement, GlobalEnv, KEnv, LiquidEnv};
use crate::measure::sort_of_mltype;
use crate::rtype::{field_name, BaseTy, DataRType, RScheme, RType, Refinement, Rho};
use dsolve_logic::{Expr, SortEnv, Subst, Symbol};
use dsolve_nanoml::MlType;
use std::collections::{BTreeMap, HashMap};

/// Canonical name for a reference from an *inner* matrix entry to a field
/// of the enclosing constructor (substituted at the unfold that promotes
/// the matrix).
pub fn up_field_name(decl: Symbol, ctor: Symbol, field: usize) -> Symbol {
    Symbol::new(&format!("{decl}#{ctor}#{field}#up"))
}

/// The canonical key binder of the built-in finite map type: the `i` of
/// `(i:α, β[i/x]) Map.t` (§5.1).
pub fn map_key_binder() -> Symbol {
    Symbol::new("map#key")
}

/// Builds a plain (all-`⊤`) refinement type from an ML shape, wiring the
/// given refined types in for datatype/tyvar parameter positions.
pub fn rtype_of_shape(shape: &MlType, params: &HashMap<u32, RType>) -> RType {
    match shape {
        MlType::Int => RType::int(),
        MlType::Bool => RType::bool(),
        MlType::Unit => RType::unit(),
        MlType::Var(v) => params
            .get(v)
            .cloned()
            .unwrap_or_else(|| RType::TyVar(*v, Subst::new(), Refinement::top())),
        MlType::Arrow(a, b) => RType::Fun(
            Symbol::fresh("arg"),
            Box::new(rtype_of_shape(a, params)),
            Box::new(rtype_of_shape(b, params)),
        ),
        MlType::Tuple(ts) => RType::Tuple(
            ts.iter()
                .map(|t| (Symbol::fresh("fld"), rtype_of_shape(t, params)))
                .collect(),
        ),
        MlType::Data(n, ts) => RType::Data(DataRType {
            name: *n,
            targs: ts.iter().map(|t| rtype_of_shape(t, params)).collect(),
            rho: Rho::top(),
            inner: BTreeMap::new(),
            refinement: Refinement::top(),
        }),
    }
}

/// The ML shape of a constructor field with the datatype's parameters
/// instantiated at the given argument shapes.
fn field_shape(field: &MlType, targ_shapes: &[MlType]) -> MlType {
    let map: HashMap<u32, MlType> = targ_shapes
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u32, t.clone()))
        .collect();
    field.apply(&map)
}

/// Whether a declaration field is the regular recursive occurrence of its
/// own datatype.
fn is_recursive_field(decl_name: Symbol, nparams: usize, field: &MlType) -> bool {
    match field {
        MlType::Data(n, args) if *n == decl_name && args.len() == nparams => args
            .iter()
            .enumerate()
            .all(|(i, a)| *a == MlType::Var(i as u32)),
        _ => false,
    }
}

/// Creates a fresh template of the given shape: a `κ` at every refinable
/// position, each registered in `kenv` with its scope.
pub fn fresh(genv: &GlobalEnv, kenv: &mut KEnv, env: &LiquidEnv, shape: &MlType) -> RType {
    fresh_named(genv, kenv, env, shape, &[])
}

/// Like [`fresh`], but the outermost arrow binders take the given
/// (program) names, so qualifiers can refer to function parameters by
/// name — the paper's inferred signatures (`range :: i:int → j:int → …`)
/// name binders after the source parameters.
pub fn fresh_named(
    genv: &GlobalEnv,
    kenv: &mut KEnv,
    env: &LiquidEnv,
    shape: &MlType,
    param_names: &[Symbol],
) -> RType {
    let scope = env.sort_env(genv);
    fresh_arrows(genv, kenv, &scope, shape, param_names)
}

fn fresh_arrows(
    genv: &GlobalEnv,
    kenv: &mut KEnv,
    scope: &SortEnv,
    shape: &MlType,
    param_names: &[Symbol],
) -> RType {
    match (shape, param_names.split_first()) {
        (MlType::Arrow(a, b), Some((name, rest))) => {
            let ta = fresh_in_scope(genv, kenv, scope, a);
            let mut scope2 = scope.clone();
            scope2.bind(*name, sort_of_mltype(a));
            let tb = fresh_arrows(genv, kenv, &scope2, b, rest);
            RType::Fun(*name, Box::new(ta), Box::new(tb))
        }
        _ => fresh_in_scope(genv, kenv, scope, shape),
    }
}

fn fresh_in_scope(genv: &GlobalEnv, kenv: &mut KEnv, scope: &SortEnv, shape: &MlType) -> RType {
    match shape {
        MlType::Int => RType::Base(BaseTy::Int, fresh_refinement(kenv, scope.clone(), shape)),
        MlType::Bool => RType::Base(BaseTy::Bool, fresh_refinement(kenv, scope.clone(), shape)),
        MlType::Unit => RType::unit(),
        MlType::Var(v) => RType::TyVar(
            *v,
            Subst::new(),
            fresh_refinement(kenv, scope.clone(), shape),
        ),
        MlType::Arrow(a, b) => {
            let x = Symbol::fresh("arg");
            let ta = fresh_in_scope(genv, kenv, scope, a);
            let mut scope2 = scope.clone();
            scope2.bind(x, sort_of_mltype(a));
            let tb = fresh_in_scope(genv, kenv, &scope2, b);
            RType::Fun(x, Box::new(ta), Box::new(tb))
        }
        MlType::Tuple(ts) => {
            let mut scope2 = scope.clone();
            let mut fields = Vec::new();
            for t in ts {
                let x = Symbol::fresh("fld");
                let tt = fresh_in_scope(genv, kenv, &scope2, t);
                scope2.bind(x, sort_of_mltype(t));
                fields.push((x, tt));
            }
            RType::Tuple(fields)
        }
        MlType::Data(n, ts) if *n == Symbol::new("map") => {
            // Finite maps: the value type's refinements may mention the
            // canonical key binder.
            let tkey = fresh_in_scope(genv, kenv, scope, &ts[0]);
            let mut scope2 = scope.clone();
            scope2.bind(map_key_binder(), sort_of_mltype(&ts[0]));
            let tval = fresh_in_scope(genv, kenv, &scope2, &ts[1]);
            RType::Data(DataRType {
                name: *n,
                targs: vec![tkey, tval],
                rho: Rho::top(),
                inner: BTreeMap::new(),
                refinement: fresh_refinement(kenv, scope.clone(), shape),
            })
        }
        MlType::Data(n, ts) => {
            let targs: Vec<RType> = ts
                .iter()
                .map(|t| fresh_in_scope(genv, kenv, scope, t))
                .collect();
            let targ_shapes: Vec<MlType> = ts.clone();
            let mut rho = Rho::top();
            let mut inner = BTreeMap::new();
            if let Some(decl) = genv.data.decl(*n) {
                for (c, cname) in decl.ctor_names.iter().enumerate() {
                    // Top matrix entries: scope gains earlier canonical
                    // fields.
                    let mut cscope = scope.clone();
                    for (j, fshape) in decl.ctor_fields[c].iter().enumerate() {
                        let fs = field_shape(fshape, &targ_shapes);
                        rho.set(c, j, fresh_refinement(kenv, cscope.clone(), &fs));
                        cscope.bind(field_name(*n, *cname, j), sort_of_mltype(&fs));
                    }
                    // Inner matrices at recursive positions.
                    let mut upscope = scope.clone();
                    for (j, fshape) in decl.ctor_fields[c].iter().enumerate() {
                        if is_recursive_field(*n, decl.params, fshape) {
                            let mut m = Rho::top();
                            for (c2, cname2) in decl.ctor_names.iter().enumerate() {
                                let mut escope = upscope.clone();
                                for (f2, fshape2) in decl.ctor_fields[c2].iter().enumerate() {
                                    let fs2 = field_shape(fshape2, &targ_shapes);
                                    m.set(c2, f2, fresh_refinement(kenv, escope.clone(), &fs2));
                                    escope.bind(field_name(*n, *cname2, f2), sort_of_mltype(&fs2));
                                }
                            }
                            inner.insert((c, j), m);
                        }
                        let fs = field_shape(fshape, &targ_shapes);
                        upscope.bind(up_field_name(*n, *cname, j), sort_of_mltype(&fs));
                    }
                }
            }
            RType::Data(DataRType {
                name: *n,
                targs,
                rho,
                inner,
                refinement: fresh_refinement(kenv, scope.clone(), shape),
            })
        }
    }
}

/// Renames all function/tuple binders of a type to fresh names
/// (instantiating a stored scheme must not capture).
pub fn freshen(t: &RType) -> RType {
    match t {
        RType::Base(..) | RType::TyVar(..) => t.clone(),
        RType::Fun(x, a, b) => {
            let x2 = Symbol::fresh(x.as_str());
            let b2 = b.subst1(*x, &Expr::Var(x2));
            RType::Fun(x2, Box::new(freshen(a)), Box::new(freshen(&b2)))
        }
        RType::Tuple(fields) => {
            let mut out = Vec::new();
            let mut rest: Vec<(Symbol, RType)> = fields.clone();
            for i in 0..rest.len() {
                let (x, t) = rest[i].clone();
                let x2 = Symbol::fresh(x.as_str());
                for (_, later) in rest.iter_mut().skip(i + 1) {
                    *later = later.subst1(x, &Expr::Var(x2));
                }
                out.push((x2, freshen(&t)));
            }
            RType::Tuple(out)
        }
        RType::Data(d) => RType::Data(DataRType {
            name: d.name,
            targs: d.targs.iter().map(freshen).collect(),
            rho: d.rho.clone(),
            inner: d.inner.clone(),
            refinement: d.refinement.clone(),
        }),
    }
}

/// Instantiates a refinement scheme at the given ML types ([L-INST] /
/// [L-REFINST]): each quantified `α` is replaced by a fresh template of
/// the instantiation shape (scoped with the witness binder for
/// `α⟨x:τ⟩`), with pending substitutions applied and instance
/// refinements conjoined.
pub fn instantiate(
    genv: &GlobalEnv,
    kenv: &mut KEnv,
    env: &LiquidEnv,
    scheme: &RScheme,
    ml_inst: &[MlType],
) -> RType {
    // Witness types are stated over the scheme's own variables (e.g. the
    // map value's witness has the *key* type α); resolve them at this
    // instantiation so the witness gets the right sort.
    let ml_map: HashMap<u32, MlType> = scheme
        .vars
        .iter()
        .map(|d| d.var)
        .zip(ml_inst.iter().cloned())
        .collect();
    let mut map: HashMap<u32, RType> = HashMap::new();
    for (decl, ml) in scheme.vars.iter().zip(ml_inst) {
        let mut scope = env.sort_env(genv);
        if let Some((wit, wty)) = &decl.witness {
            scope.bind(*wit, sort_of_mltype(&wty.apply(&ml_map)));
        }
        let t = fresh_in_scope(genv, kenv, &scope, ml);
        map.insert(decl.var, t);
    }
    let body = freshen(&scheme.ty);
    replace_tyvars(&body, &map)
}

/// Instantiates a scheme *exactly* (no fresh templates): quantified
/// variables are replaced by the given refined types. Used for built-in
/// schemes whose instantiations are fixed by the caller and in tests.
pub fn instantiate_with(scheme: &RScheme, args: &[RType]) -> RType {
    let map: HashMap<u32, RType> = scheme
        .vars
        .iter()
        .zip(args)
        .map(|(d, t)| (d.var, t.clone()))
        .collect();
    replace_tyvars(&freshen(&scheme.ty), &map)
}

fn replace_tyvars(t: &RType, map: &HashMap<u32, RType>) -> RType {
    match t {
        RType::Base(..) => t.clone(),
        RType::TyVar(v, pending, r) => match map.get(v) {
            Some(inst) => inst.subst(pending).strengthen(&r.clone()),
            None => t.clone(),
        },
        RType::Fun(x, a, b) => RType::Fun(
            *x,
            Box::new(replace_tyvars(a, map)),
            Box::new(replace_tyvars(b, map)),
        ),
        RType::Tuple(fields) => RType::Tuple(
            fields
                .iter()
                .map(|(x, t)| (*x, replace_tyvars(t, map)))
                .collect(),
        ),
        RType::Data(d) => RType::Data(DataRType {
            name: d.name,
            targs: d.targs.iter().map(|t| replace_tyvars(t, map)).collect(),
            rho: d.rho.clone(),
            inner: d.inner.clone(),
            refinement: d.refinement.clone(),
        }),
    }
}

/// Unfolds one constructor of a refined datatype ([L-UNFOLD-M]): returns
/// the refined field types with the matrix entries applied, canonical
/// field references bound to `binders`, and — at recursive positions —
/// the inner matrix promoted onto the top matrix.
pub fn unfold_ctor(
    genv: &GlobalEnv,
    d: &DataRType,
    ctor_ix: usize,
    binders: &[Symbol],
) -> Vec<RType> {
    let decl = genv.data.decl(d.name).expect("datatype is declared");
    let cname = decl.ctor_names[ctor_ix];
    let fields = &decl.ctor_fields[ctor_ix];
    assert_eq!(binders.len(), fields.len(), "binder arity");

    // Substitutions for this unfold level.
    let mut subst_top = Subst::new();
    let mut subst_up = Subst::new();
    for (k, b) in binders.iter().enumerate() {
        subst_top = subst_top.then(field_name(d.name, cname, k), Expr::Var(*b));
        subst_up = subst_up.then(up_field_name(d.name, cname, k), Expr::Var(*b));
    }

    let params: HashMap<u32, RType> = d
        .targs
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u32, t.clone()))
        .collect();

    fields
        .iter()
        .enumerate()
        .map(|(j, fshape)| {
            let entry = d.rho.entry(ctor_ix, j).subst(&subst_top);
            if is_recursive_field(d.name, decl.params, fshape) {
                let promoted = d
                    .inner
                    .get(&(ctor_ix, j))
                    .cloned()
                    .unwrap_or_default()
                    .subst(&subst_up);
                RType::Data(DataRType {
                    name: d.name,
                    targs: d.targs.clone(),
                    rho: promoted.compose(&d.rho),
                    inner: d.inner.clone(),
                    refinement: entry,
                })
            } else {
                match fshape {
                    MlType::Var(i) => params
                        .get(i)
                        .cloned()
                        .unwrap_or_else(|| RType::TyVar(*i, Subst::new(), Refinement::top()))
                        .strengthen(&entry),
                    other => rtype_of_shape(other, &params).strengthen(&entry),
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::MeasureEnv;
    use dsolve_logic::parse_pred;
    use dsolve_nanoml::DataEnv;

    fn genv() -> GlobalEnv {
        GlobalEnv::new(DataEnv::with_builtins(), MeasureEnv::new())
    }

    /// Builds `int list≤`: the sorted-list type of §4 — trivial top
    /// matrix, inner matrix at the tail saying every element of the tail
    /// is at least the enclosing head.
    fn sorted_int_list() -> DataRType {
        let list = Symbol::new("list");
        let cons = Symbol::new("Cons");
        let mut inner_m = Rho::top();
        // Entry (Cons, 0): head of any deeper product ≥ enclosing head.
        inner_m.set(
            1,
            0,
            Refinement::pred(
                parse_pred(&format!("{} <= VV", up_field_name(list, cons, 0))).unwrap(),
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
    }

    #[test]
    fn fresh_template_registers_scopes() {
        let genv = genv();
        let mut kenv = KEnv::new();
        let env = LiquidEnv::new().bind(Symbol::new("n"), RType::int());
        let t = fresh(&genv, &mut kenv, &env, &MlType::list(MlType::Int));
        // κs: 1 top + targ(1) + rho(Cons has 2 fields) + inner (1 rec pos
        // × (0 + 2) entries) = 1 + 1 + 2 + 2 = 6.
        assert_eq!(t.kvars().len(), 6);
        assert_eq!(kenv.len(), 6);
        // Every κ scope sees `n`.
        for k in t.kvars() {
            let info = kenv.info(k).unwrap();
            assert!(info.scope.sort_of_var(Symbol::new("n")).is_some());
        }
    }

    #[test]
    fn inner_matrix_scope_sees_enclosing_fields() {
        let genv = genv();
        let mut kenv = KEnv::new();
        let env = LiquidEnv::new();
        let t = fresh(&genv, &mut kenv, &env, &MlType::list(MlType::Int));
        let RType::Data(d) = &t else { panic!() };
        let m = d.inner.get(&(1, 1)).expect("tail inner matrix");
        let entry = m.entry(1, 0);
        let k = entry.kvars()[0];
        let info = kenv.info(k).unwrap();
        // The inner entry for the deeper head can mention the enclosing
        // head via its #up name.
        let up = up_field_name(Symbol::new("list"), Symbol::new("Cons"), 0);
        assert!(info.scope.sort_of_var(up).is_some());
    }

    #[test]
    fn unfold_sorted_list_threads_head_bound() {
        let genv = genv();
        let d = sorted_int_list();
        let h = Symbol::new("h");
        let t = Symbol::new("t");
        let fields = unfold_ctor(&genv, &d, 1, &[h, t]);
        assert_eq!(fields.len(), 2);
        // Head: plain int.
        assert_eq!(fields[0].to_string(), "int");
        // Tail: a list whose top matrix now bounds every head by `h`.
        let RType::Data(dt) = &fields[1] else {
            panic!()
        };
        let e = dt.rho.entry(1, 0);
        assert_eq!(
            e.concretize(&|_| dsolve_logic::Pred::True).to_string(),
            "(h <= VV)"
        );
        // And the inner matrix persists for deeper levels.
        assert!(dt.inner.contains_key(&(1, 1)));
    }

    #[test]
    fn double_unfold_accumulates_bounds() {
        let genv = genv();
        let d = sorted_int_list();
        let (h1, t1) = (Symbol::new("h1"), Symbol::new("t1"));
        let fields = unfold_ctor(&genv, &d, 1, &[h1, t1]);
        let RType::Data(d2) = &fields[1] else {
            panic!()
        };
        let (h2, t2) = (Symbol::new("h2"), Symbol::new("t2"));
        let fields2 = unfold_ctor(&genv, d2, 1, &[h2, t2]);
        // Second head is ≥ h1.
        let head2 = &fields2[0];
        let r = head2.refinement().concretize(&|_| dsolve_logic::Pred::True);
        assert_eq!(r.to_string(), "(h1 <= VV)");
        // Third-level heads are ≥ h2 and ≥ h1.
        let RType::Data(d3) = &fields2[1] else {
            panic!()
        };
        let e = d3.rho.entry(1, 0).concretize(&|_| dsolve_logic::Pred::True);
        assert_eq!(e.to_string(), "((h2 <= VV) && (h1 <= VV))");
    }

    #[test]
    fn unfold_nil_has_no_fields() {
        let genv = genv();
        let d = sorted_int_list();
        assert!(unfold_ctor(&genv, &d, 0, &[]).is_empty());
    }

    #[test]
    fn instantiate_applies_pending_substs() {
        // A scheme like `get`'s tail: ∀β⟨x:int⟩. k:int → β[k/x].
        let beta = 7u32;
        let wit = Symbol::new("xw");
        let k = Symbol::new("k");
        let scheme = RScheme {
            vars: vec![crate::rtype::RVarDecl {
                var: beta,
                witness: Some((wit, MlType::Int)),
            }],
            ty: RType::Fun(
                k,
                Box::new(RType::int()),
                Box::new(RType::TyVar(
                    beta,
                    Subst::single(wit, Expr::Var(k)),
                    Refinement::top(),
                )),
            ),
        };
        // Instantiate β with {ν:int | x!wit <= ν}.
        let inst = RType::Base(
            BaseTy::Int,
            Refinement::pred(parse_pred("xw <= VV").unwrap()),
        );
        let t = instantiate_with(&scheme, &[inst]);
        let RType::Fun(k2, _, ret) = &t else { panic!() };
        let r = ret.refinement().concretize(&|_| dsolve_logic::Pred::True);
        // Pending [k/x] applied: the result says k2 <= ν.
        assert_eq!(r.to_string(), format!("({k2} <= VV)"));
    }

    #[test]
    fn rtype_of_shape_wires_params() {
        let mut params = HashMap::new();
        params.insert(0u32, RType::int_pred(parse_pred("0 < VV").unwrap()));
        let t = rtype_of_shape(&MlType::list(MlType::Var(0)), &params);
        let RType::Data(d) = &t else { panic!() };
        assert_eq!(d.targs[0].to_string(), "{VV:int | (0 < VV)}");
    }

    #[test]
    fn freshen_renames_binders_consistently() {
        let x = Symbol::new("x");
        let t = RType::Fun(
            x,
            Box::new(RType::int()),
            Box::new(RType::int_pred(parse_pred("x < VV").unwrap())),
        );
        let f = freshen(&t);
        let RType::Fun(x2, _, ret) = &f else { panic!() };
        assert_ne!(*x2, x);
        let r = ret.refinement().concretize(&|_| dsolve_logic::Pred::True);
        assert_eq!(r.to_string(), format!("({x2} < VV)"));
    }
}
