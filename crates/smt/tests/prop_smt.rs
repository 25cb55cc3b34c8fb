//! Property tests for the SMT solver: soundness of UNSAT answers against
//! brute-force enumeration, and internal consistency of the validity
//! interface.

use dsolve_logic::{Expr, Pred, Rel, Sort, SortEnv, Symbol};
use dsolve_smt::SmtSolver;
use proptest::prelude::*;

const VARS: [&str; 3] = ["x", "y", "z"];
const BOUND: i64 = 4;

fn env() -> SortEnv {
    let mut env = SortEnv::new();
    for v in VARS {
        env.bind(Symbol::new(v), Sort::Int);
    }
    env
}

/// A random linear atom `a*x + b*y + c*z + d REL 0`.
fn arb_atom() -> impl Strategy<Value = (Vec<i64>, i64, Rel)> {
    (
        prop::collection::vec(-3i64..=3, VARS.len()),
        -6i64..=6,
        prop_oneof![Just(Rel::Le), Just(Rel::Lt), Just(Rel::Eq), Just(Rel::Ne)],
    )
}

fn atom_pred(coeffs: &[i64], d: i64, rel: Rel) -> Pred {
    let mut e = Expr::int(d);
    for (c, v) in coeffs.iter().zip(VARS) {
        e = e.add(Expr::int(*c).mul(Expr::var(v)));
    }
    Pred::Atom(rel, e, Expr::int(0))
}

fn eval_atom(coeffs: &[i64], d: i64, rel: Rel, vals: &[i64]) -> bool {
    let s: i64 = d + coeffs.iter().zip(vals).map(|(c, v)| c * v).sum::<i64>();
    match rel {
        Rel::Le => s <= 0,
        Rel::Lt => s < 0,
        Rel::Eq => s == 0,
        Rel::Ne => s != 0,
        _ => unreachable!(),
    }
}

/// Box constraints so every variable is bounded; brute force then decides
/// the system exactly.
fn boxed(mut conj: Vec<Pred>) -> Pred {
    for v in VARS {
        conj.push(Pred::le(Expr::int(-BOUND), Expr::var(v)));
        conj.push(Pred::le(Expr::var(v), Expr::int(BOUND)));
    }
    Pred::and(conj)
}

fn brute_force_sat(atoms: &[(Vec<i64>, i64, Rel)]) -> bool {
    let r = -BOUND..=BOUND;
    for x in r.clone() {
        for y in r.clone() {
            for z in r.clone() {
                let vals = [x, y, z];
                if atoms
                    .iter()
                    .all(|(c, d, rel)| eval_atom(c, *d, *rel, &vals))
                {
                    return true;
                }
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// If brute force finds a model in the box, the solver must not
    /// claim UNSAT — the soundness direction the verifier depends on.
    #[test]
    fn unsat_answers_are_sound(atoms in prop::collection::vec(arb_atom(), 1..5)) {
        let conj: Vec<Pred> = atoms
            .iter()
            .map(|(c, d, rel)| atom_pred(c, *d, *rel))
            .collect();
        let formula = boxed(conj);
        let mut smt = SmtSolver::new();
        // Satisfiable exactly when it does not imply false.
        let solver_sat = !smt.is_valid(&env(), &formula, &Pred::False);
        let brute_sat = brute_force_sat(&atoms);
        if brute_sat {
            prop_assert!(solver_sat, "solver claimed UNSAT for satisfiable `{formula}`");
        } else {
            // Fully boxed integer systems are within the solver's
            // complete fragment, so we also check the other direction.
            prop_assert!(!solver_sat, "solver claimed SAT for unsatisfiable `{formula}`");
        }
    }

    /// Every predicate implies itself, and an inconsistent antecedent
    /// implies anything.
    #[test]
    fn validity_reflexivity(atoms in prop::collection::vec(arb_atom(), 1..4)) {
        let conj: Vec<Pred> = atoms
            .iter()
            .map(|(c, d, rel)| atom_pred(c, *d, *rel))
            .collect();
        let p = Pred::and(conj);
        let mut smt = SmtSolver::new();
        prop_assert!(smt.is_valid(&env(), &p, &p));
        prop_assert!(smt.is_valid(&env(), &Pred::False, &p));
    }

    /// Weakening: a conjunction implies each of its conjuncts.
    #[test]
    fn conjunction_implies_conjuncts(atoms in prop::collection::vec(arb_atom(), 2..5)) {
        let conj: Vec<Pred> = atoms
            .iter()
            .map(|(c, d, rel)| atom_pred(c, *d, *rel))
            .collect();
        let whole = Pred::and(conj.clone());
        let mut smt = SmtSolver::new();
        for part in conj {
            prop_assert!(
                smt.is_valid(&env(), &whole, &part),
                "`{whole}` should imply `{part}`"
            );
        }
    }

    /// EUF congruence: x = y implies f(x) = f(y) for random argument
    /// tuples built from the variables.
    #[test]
    fn congruence_holds(picks in prop::collection::vec(0usize..VARS.len(), 1..3)) {
        let mut env = env();
        env.declare_func(
            Symbol::new("f"),
            dsolve_logic::FuncSort::new(vec![Sort::Int; picks.len()], Sort::Int),
        );
        let args1: Vec<Expr> = picks.iter().map(|i| Expr::var(VARS[*i])).collect();
        // Replace x by y everywhere.
        let args2: Vec<Expr> = picks
            .iter()
            .map(|i| if VARS[*i] == "x" { Expr::var("y") } else { Expr::var(VARS[*i]) })
            .collect();
        let lhs = Pred::eq(Expr::var("x"), Expr::var("y"));
        let rhs = Pred::eq(Expr::app("f", args1), Expr::app("f", args2));
        let mut smt = SmtSolver::new();
        prop_assert!(smt.is_valid(&env, &lhs, &rhs));
    }
}
