//! Regression and edge-case tests for the SMT solver, collected from
//! the verification-condition shapes the liquid engine generates.

use dsolve_logic::{parse_pred, Budget, FuncSort, Sort, SortEnv, Symbol};
use dsolve_obs::Obs;
use dsolve_smt::{SmtSolver, SolverConfig};

fn env() -> SortEnv {
    let mut env = SortEnv::new();
    for v in [
        "x", "y", "z", "i", "j", "k", "n", "w", "a", "b", "ka", "kb", "ra", "rb", "px",
    ] {
        env.bind(Symbol::new(v), Sort::Int);
    }
    for m in ["m", "mp", "rank", "parent0", "parent1", "parent2"] {
        env.bind(Symbol::new(m), Sort::Map);
    }
    for l in ["xs", "ys", "zs"] {
        env.bind(Symbol::new(l), Sort::Obj(Symbol::new("list")));
    }
    env.declare_func(
        Symbol::new("elts"),
        FuncSort::new(vec![Sort::Obj(Symbol::new("list"))], Sort::Set),
    );
    env.declare_func(
        Symbol::new("len"),
        FuncSort::new(vec![Sort::Obj(Symbol::new("list"))], Sort::Int),
    );
    env
}

fn valid(lhs: &str, rhs: &str) -> bool {
    let mut smt = SmtSolver::new();
    smt.is_valid(&env(), &parse_pred(lhs).unwrap(), &parse_pred(rhs).unwrap())
}

#[test]
fn union_find_rank_chain() {
    // The path-compression obligation: x's root is strictly above x.
    assert!(valid(
        "px = Sel(parent0, x) && px != x \
         && (x = px || Sel(rank, x) < Sel(rank, px)) \
         && Sel(rank, px) <= Sel(rank, ra)",
        "Sel(rank, x) < Sel(rank, ra)"
    ));
}

#[test]
fn union_bump_case() {
    // Bumping a root's rank preserves strict ordering for its children.
    assert!(valid(
        "Sel(rank, a) < Sel(rank, ra) && ka = Sel(rank, ra)",
        "Sel(Upd(rank, ra, ka + 1), a) < Sel(Upd(rank, ra, ka + 1), ra) || a = ra"
    ));
}

#[test]
fn malloc_bit_preservation() {
    // Setting p's bit does not disturb other free addresses.
    assert!(valid(
        "Sel(m, a) = 0 && Sel(m, b) = 1 && a != b",
        "Sel(Upd(m, b, 0), a) = 0"
    ));
    // An address with bit 0 differs from every address with bit 1.
    assert!(valid("Sel(m, a) = 0 && Sel(m, b) = 1", "a != b"));
}

#[test]
fn nested_updates_read_through() {
    assert!(valid(
        "mp = Upd(Upd(m, i, 1), j, 2) && k != i && k != j",
        "Sel(mp, k) = Sel(m, k)"
    ));
    assert!(valid("mp = Upd(Upd(m, i, 1), i, 2)", "Sel(mp, i) = 2"));
}

#[test]
fn set_chains_with_multiple_rewrites() {
    // The mergesort Elts chain: two hypothesis rewrites on each side.
    assert!(valid(
        "elts(zs) = union(single(x), elts(xs)) \
         && elts(ys) = union(single(x), elts(xs))",
        "elts(zs) = elts(ys)"
    ));
}

#[test]
fn singleton_disjointness() {
    assert!(valid("elts(xs) = single(x)", "elts(xs) != empty"));
    assert!(valid(
        "elts(xs) = union(single(x), elts(ys)) && elts(zs) = empty",
        "elts(xs) != elts(zs)"
    ));
}

#[test]
fn singleton_injectivity() {
    assert!(valid("single(x) = single(y)", "x = y"));
}

#[test]
fn ite_both_branches() {
    assert!(valid("z = (if x < y then y else x)", "z >= x && z >= y"));
    assert!(!valid("z = (if x < y then y else x)", "z > x"));
}

#[test]
fn boolean_iff_structure() {
    assert!(valid("x < y <=> y > x", "true"));
    assert!(valid("(x < y <=> i < j) && x < y", "i < j"));
}

#[test]
fn tightening_chains() {
    // Three strict steps force a gap of three.
    assert!(valid("x < y && y < z && z < w", "x + 3 <= w"));
    assert!(!valid("x < y && y < z && z < w", "x + 4 <= w"));
}

#[test]
fn mixed_euf_and_arith() {
    assert!(valid(
        "len(xs) = n && len(ys) = n + 1 && xs = zs",
        "len(ys) = len(zs) + 1"
    ));
}

#[test]
fn negated_equality_via_bounds() {
    assert!(valid("x != y && x <= y", "x < y"));
    assert!(valid("x != 0 && 0 <= x", "1 <= x"));
}

#[test]
fn cache_toggle_same_answers() {
    let cases = [
        ("x < y", "x <= y", true),
        ("x <= y", "x < y", false),
        ("single(x) = single(y)", "x = y", true),
    ];
    // Each solver records into a registry of its own.
    let (cached_obs, uncached_obs) = (Obs::new(), Obs::new());
    let mut cached = SmtSolver::new();
    cached.set_obs(cached_obs.clone());
    let mut uncached = SmtSolver::with_config(
        SolverConfig {
            cache: false,
            ..SolverConfig::default()
        },
        Budget::default(),
    );
    uncached.set_obs(uncached_obs.clone());
    let e = env();
    for (l, r, want) in cases {
        let lp = parse_pred(l).unwrap();
        let rp = parse_pred(r).unwrap();
        assert_eq!(cached.is_valid(&e, &lp, &rp), want);
        assert_eq!(uncached.is_valid(&e, &lp, &rp), want);
        // And again, exercising the cache-hit path.
        assert_eq!(cached.is_valid(&e, &lp, &rp), want);
    }
    assert!(cached_obs.metrics().smt_cache_hits.get() >= 3);
    assert_eq!(uncached_obs.metrics().smt_cache_hits.get(), 0);
}

#[test]
fn deep_guard_nesting() {
    assert!(valid(
        "(a = 1 => (b = 2 => (i = 3 => j = 4))) && a = 1 && b = 2 && i = 3",
        "j = 4"
    ));
}

#[test]
fn multiplication_by_constants_is_linear() {
    assert!(valid("y = 3 * x && x > 0", "y >= 3"));
    assert!(valid("y = 2 * x", "y != 1 || x = 1 - x"));
}

#[test]
fn uninterpreted_products_still_congruent() {
    assert!(valid("x = y", "x * z = y * z"));
    assert!(!valid("x * z = y * z", "x = y"));
}

#[test]
fn large_conjunction_stays_fast() {
    // 40 chained bounds — exercises the simplex at a size the verifier
    // routinely produces; must complete essentially instantly.
    let mut env = SortEnv::new();
    let mut parts = Vec::new();
    for i in 0..40 {
        env.bind(Symbol::new(&format!("v{i}")), Sort::Int);
        if i > 0 {
            parts.push(format!("v{} < v{}", i - 1, i));
        }
    }
    let lhs = parse_pred(&parts.join(" && ")).unwrap();
    let rhs = parse_pred("v0 + 39 <= v39").unwrap();
    let mut smt = SmtSolver::new();
    let t0 = std::time::Instant::now();
    assert!(smt.is_valid(&env, &lhs, &rhs));
    assert!(t0.elapsed().as_secs() < 5, "took {:?}", t0.elapsed());
}
