//! Property tests for the refinement logic: substitution algebra,
//! printer/parser round-trips, and `Q★` instantiation against a
//! brute-force oracle.

use dsolve_logic::{
    parse_pred, Expr, FuncSort, Instantiator, Pred, Qualifier, Rel, Sort, SortEnv, Subst, Symbol,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_var() -> impl Strategy<Value = Symbol> {
    prop_oneof![
        Just(Symbol::new("x")),
        Just(Symbol::new("y")),
        Just(Symbol::new("z")),
        Just(Symbol::value_var()),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        arb_var().prop_map(Expr::Var),
        (-20i64..20).prop_map(Expr::int),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::union(Expr::single(a), Expr::single(b))),
        ]
    })
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    let atom = prop_oneof![
        (arb_expr(), arb_expr()).prop_map(|(a, b)| Pred::lt(a, b)),
        (arb_expr(), arb_expr()).prop_map(|(a, b)| Pred::eq(a, b)),
        (arb_expr(), arb_expr()).prop_map(|(a, b)| Pred::le(a, b)),
        Just(Pred::True),
        Just(Pred::False),
    ];
    atom.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Pred::And),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Pred::Or),
            inner.clone().prop_map(|p| Pred::Not(Box::new(p))),
            (inner.clone(), inner).prop_map(|(a, b)| Pred::Imp(Box::new(a), Box::new(b))),
        ]
    })
}

proptest! {
    /// Substituting a variable that does not occur is the identity.
    #[test]
    fn subst_absent_var_is_identity(p in arb_pred()) {
        let fresh = Symbol::new("not_in_any_generated_pred");
        prop_assert_eq!(p.subst(fresh, &Expr::int(7)), p);
    }

    /// After substituting `x := c` (a constant), `x` no longer occurs.
    #[test]
    fn subst_eliminates_variable(p in arb_pred()) {
        let x = Symbol::new("x");
        let q = p.subst(x, &Expr::int(3));
        prop_assert!(!q.free_vars().contains(&x));
    }

    /// Sequential pending substitutions agree with nested eager ones.
    #[test]
    fn subst_sequencing(p in arb_pred()) {
        let x = Symbol::new("x");
        let y = Symbol::new("y");
        let theta = Subst::new()
            .then(x, Expr::var("y"))
            .then(y, Expr::int(5));
        let sequential = theta.apply_pred(&p);
        let nested = p.subst(x, &Expr::var("y")).subst(y, &Expr::int(5));
        prop_assert_eq!(sequential, nested);
    }

    /// Printing and parsing reach a fixpoint after one normalization
    /// pass (the parser's smart constructors push negations into atoms,
    /// so the first round-trip may rewrite; the second must not).
    #[test]
    fn display_parse_roundtrip(p in arb_pred()) {
        let printed = p.to_string();
        let once = parse_pred(&printed);
        prop_assert!(once.is_ok(), "failed to reparse `{}`", printed);
        let normal = once.unwrap().to_string();
        let twice = parse_pred(&normal);
        prop_assert!(twice.is_ok(), "failed to reparse normalized `{}`", normal);
        prop_assert_eq!(twice.unwrap().to_string(), normal);
    }

    /// Free variables are preserved by double negation.
    #[test]
    fn not_not_preserves_free_vars(p in arb_pred()) {
        let q = Pred::not(Pred::not(p.clone()));
        prop_assert_eq!(q.free_vars(), p.free_vars());
    }
}

/// The brute-force `Q★` enumerator that [`Instantiator`] replaced, kept
/// as its oracle: for each qualifier, substitute every candidate (sorted
/// by name, ANF temporaries excluded) into every star, sort-check each
/// instance with `ν` bound at `nu_sort`, and keep the first of each
/// printed form.
fn oracle_instantiate_all(quals: &[Qualifier], env: &SortEnv, nu_sort: &Sort) -> Vec<Pred> {
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    for q in quals {
        for p in oracle_instantiate(q, env, nu_sort) {
            if seen.insert(p.to_string()) {
                out.push(p);
            }
        }
    }
    out
}

fn oracle_instantiate(q: &Qualifier, env: &SortEnv, nu_sort: &Sort) -> Vec<Pred> {
    let stars = q.stars();
    let mut scratch = env.clone();
    scratch.bind(Symbol::value_var(), nu_sort.clone());
    let mut candidates: Vec<Symbol> = env
        .vars()
        .map(|(s, _)| *s)
        .filter(|s| {
            if s.is_star() || *s == Symbol::value_var() {
                return false;
            }
            let name = s.as_str();
            !(name.starts_with("tmp%")
                || name.starts_with("carg%")
                || name.starts_with("seq%")
                || name.starts_with("ite%")
                || name.starts_with("unused%")
                || name.starts_with("toplevel%"))
        })
        .collect();
    candidates.sort_by_key(|s| s.as_str());
    let mut out = Vec::new();
    let mut seen = BTreeSet::new();
    oracle_enumerate(
        &stars,
        &candidates,
        &scratch,
        q.pred.clone(),
        &mut out,
        &mut seen,
    );
    out
}

fn oracle_enumerate(
    stars: &[Symbol],
    candidates: &[Symbol],
    env: &SortEnv,
    partial: Pred,
    out: &mut Vec<Pred>,
    seen: &mut BTreeSet<String>,
) {
    match stars.split_first() {
        None => {
            if env.wellsorted(&partial) && seen.insert(partial.to_string()) {
                out.push(partial);
            }
        }
        Some((star, rest)) => {
            for c in candidates {
                let next = partial.subst(*star, &Expr::Var(*c));
                oracle_enumerate(rest, candidates, env, next, out, seen);
            }
        }
    }
}

const MEASURES: [&str; 3] = ["len", "elts", "ht"];

fn arb_sort() -> impl Strategy<Value = Sort> {
    prop_oneof![
        Just(Sort::Int),
        Just(Sort::Bool),
        Just(Sort::Set),
        Just(Sort::Map),
        Just(Sort::Obj(Symbol::new("list"))),
        Just(Sort::Obj(Symbol::new("tree"))),
    ]
}

/// A scope: program variables of every sort, ANF temporaries, possibly a
/// binding of `ν` itself, and measures declared at random sorts.
fn arb_scope() -> impl Strategy<Value = SortEnv> {
    const NAMES: [&str; 10] = ["a", "b", "xs", "ys", "t", "m", "s", "tmp%1", "carg%2", "VV"];
    let vars = prop::collection::vec((0usize..NAMES.len(), arb_sort()), 0..9);
    let measures = prop::collection::vec((0usize..MEASURES.len(), arb_sort(), arb_sort()), 0..4);
    (vars, measures).prop_map(|(vars, measures)| {
        let mut env = SortEnv::new();
        for (i, sort) in vars {
            env.bind(Symbol::new(NAMES[i]), sort);
        }
        for (f, arg, ret) in measures {
            env.declare_func(Symbol::new(MEASURES[f]), FuncSort::new(vec![arg], ret));
        }
        env
    })
}

/// The scope every case also checks: a little of everything, with the
/// measures at the sorts the templates below expect.
fn rich_scope() -> SortEnv {
    let list = Sort::Obj(Symbol::new("list"));
    let tree = Sort::Obj(Symbol::new("tree"));
    let mut env = SortEnv::new();
    for (x, sort) in [
        ("a", Sort::Int),
        ("b", Sort::Int),
        ("flag", Sort::Bool),
        ("s", Sort::Set),
        ("m", Sort::Map),
        ("xs", list.clone()),
        ("ys", list.clone()),
        ("t", tree.clone()),
        ("tmp%1", Sort::Int),
    ] {
        env.bind(Symbol::new(x), sort);
    }
    env.declare_func(
        Symbol::new("len"),
        FuncSort::new(vec![list.clone()], Sort::Int),
    );
    env.declare_func(Symbol::new("elts"), FuncSort::new(vec![list], Sort::Set));
    env.declare_func(Symbol::new("ht"), FuncSort::new(vec![tree], Sort::Int));
    env
}

fn arb_leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (0usize..3).prop_map(|i| Expr::Var(Symbol::star(i))),
        (0usize..3).prop_map(|i| Expr::Var(Symbol::star(i))),
        Just(Expr::nu()),
        Just(Expr::var("a")),
        Just(Expr::var("tmp%1")),
        (0i64..3).prop_map(Expr::int),
        Just(Expr::SetEmpty),
    ]
}

fn arb_term() -> impl Strategy<Value = Expr> {
    arb_leaf().prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (0usize..MEASURES.len(), inner.clone())
                .prop_map(|(f, a)| Expr::app(MEASURES[f], vec![a])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::union(a, b)),
            inner.clone().prop_map(Expr::single),
            (inner.clone(), inner.clone()).prop_map(|(m, i)| Expr::sel(m, i)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| Expr::Ite(
                Box::new(Pred::le(c, Expr::int(1))),
                Box::new(t),
                Box::new(e)
            )),
        ]
    })
}

/// Qualifiers with 0–3 stars: random ones over atoms, measure
/// applications, `ite`, set union and `Sel`, and templates shaped like
/// the benchmarks' qualifiers (which are well-sorted more often).
fn arb_qualifier() -> impl Strategy<Value = Qualifier> {
    let atom = prop_oneof![
        (arb_term(), arb_term()).prop_map(|(a, b)| Pred::eq(a, b)),
        (arb_term(), arb_term()).prop_map(|(a, b)| Pred::le(a, b)),
        (arb_term(), arb_term()).prop_map(|(a, b)| Pred::mem(a, b)),
        (arb_term(), arb_term()).prop_map(|(a, b)| Pred::Atom(Rel::Sub, a, b)),
        arb_term().prop_map(Pred::Term),
    ];
    let random = atom.prop_recursive(1, 4, 2, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..3).prop_map(Pred::And),
            inner.prop_map(Pred::not),
        ]
    });
    let template = prop_oneof![
        Just("_ <= VV"),
        Just("VV < _ + _"),
        Just("VV = len(_)"),
        Just("len(VV) = len(_) + 1"),
        Just("elts(VV) = union(elts(_), elts(_))"),
        Just("elts(VV) = union(single(_), elts(_))"),
        Just("_ in elts(VV)"),
        Just("Sel(_, VV) = 1"),
        Just("ht(VV) <= (if ht(_0) < ht(_1) then 1 + ht(_1) else 1 + ht(_0))"),
        Just("(_0 <= VV) && (VV <= _1) && (_2 = _0)"),
        Just("not (VV = _)"),
        Just("a <= VV"),
        Just("0 < VV"),
    ]
    .prop_map(|src| parse_pred(src).unwrap())
    .boxed();
    prop_oneof![random, template.clone(), template].prop_map(|p| Qualifier::new("q", p))
}

proptest! {
    /// The sort-directed, memoized instantiator builds exactly the brute
    /// force's `Q★`, element for element, for every scope — the first
    /// time a signature is seen and from the memo afterwards, and when a
    /// scope differs from an earlier one only in a temporary.
    #[test]
    fn qstar_matches_brute_force_oracle(
        quals in prop::collection::vec(arb_qualifier(), 1..6),
        scopes in prop::collection::vec((arb_scope(), arb_sort()), 1..4),
        nu_sort in arb_sort(),
    ) {
        let mut scopes = scopes;
        scopes.push((rich_scope(), nu_sort));
        let mut qstar = Instantiator::new(&quals);
        for pass in 0..2 {
            for (env, nu_sort) in &scopes {
                let want = oracle_instantiate_all(&quals, env, nu_sort);
                prop_assert_eq!(qstar.instantiate(env, nu_sort), want.as_slice(), "pass {}", pass);
                let mut with_temp = env.clone();
                with_temp.bind(Symbol::new("seq%9"), Sort::Int);
                prop_assert_eq!(qstar.instantiate(&with_temp, nu_sort), want.as_slice());
            }
        }
        prop_assert!(qstar.scopes() <= scopes.len());
    }
}
