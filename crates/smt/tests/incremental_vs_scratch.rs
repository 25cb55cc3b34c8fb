//! Differential tests: every SMT session — a scalar query's one-shot
//! session and a batch — must agree with a scratch oracle on every
//! verdict. (Scoped assert/push/check/pop sequences through one session
//! are held to one-shot sessions by the crate's own
//! `session::tests::scoped_checks_match_one_shot`.)
//!
//! The oracle ([`scratch_sat`]) is built here from the public API and
//! shares neither the session nor the persistent theory context: it
//! preprocesses the whole formula at once (set canonicalization, with
//! the set-saturation and array-axiom lemmas conjoined into it as
//! predicates), encodes it in one step (which lifts its if-then-else
//! terms, as every encoding does), and runs a CDCL search whose every
//! model is checked on fresh theory engines, blocking the core of each
//! inconsistent one.
//!
//! Two surfaces are exercised over randomly generated well-sorted
//! predicates (linear arithmetic, booleans, uninterpreted functions,
//! finite sets and arrays):
//!
//! 1. `check_valid_many`, and scalar `check_valid`, vs the oracle per
//!    consequent;
//! 2. repeated batches on one solver (session reuse + cache warmup).
//!
//! Known-answer cases then pin each kind of set lemma: each is decided
//! by one lemma of one kind, so a session that drops it answers wrong.
//!
//! Case counts are deliberately small so `cargo test` stays fast; build
//! with `--features slow-proptest` for a deeper local run.

use dsolve_logic::{
    parse_pred, Budget, Exhaustion, FuncSort, Phase, Pred, Resource, Sort, SortEnv, Symbol,
};
use dsolve_smt::{
    array_axiom_lemmas, canonicalize_sets, check_assignment, encode_incremental,
    set_saturation_lemma_list, AtomId, Atoms, BVar, CdclSolver, EncodeCtx, Lit, SatResult,
    SmtResult, SmtSolver, TheoryBudget, TheoryResult, Validity,
};
use proptest::prelude::*;

#[cfg(feature = "slow-proptest")]
const CASES: u32 = 256;
#[cfg(not(feature = "slow-proptest"))]
const CASES: u32 = 32;

/// Fixed environment: integers, a boolean flag, a unary uninterpreted
/// function, three set variables and a map.
fn env() -> SortEnv {
    let mut env = SortEnv::new();
    for v in ["x", "y", "z"] {
        env.bind(Symbol::new(v), Sort::Int);
    }
    env.bind(Symbol::new("b"), Sort::Bool);
    env.bind(Symbol::new("s"), Sort::Set);
    env.bind(Symbol::new("t"), Sort::Set);
    env.bind(Symbol::new("u"), Sort::Set);
    env.bind(Symbol::new("m"), Sort::Map);
    env.declare_func(Symbol::new("f"), FuncSort::new(vec![Sort::Int], Sort::Int));
    env
}

/// The scratch oracle: decides `p` under the default budget with
/// whole-formula preprocessing, one encoding, and a lazy DPLL(T) search
/// that checks every propositional model on fresh theory engines.
fn scratch_sat(env: &SortEnv, p: &Pred) -> SmtResult {
    let budget = Budget::default();
    let p = canonicalize_sets(p);
    let (set_lemmas, truncated) = set_saturation_lemma_list(&p, budget.max_saturation_lemmas);
    let p = Pred::and(std::iter::once(p).chain(set_lemmas).collect());
    let array_lemmas = array_axiom_lemmas([&p]);
    let p = Pred::and(std::iter::once(p).chain(array_lemmas).collect());

    let mut atoms = Atoms::new();
    let mut ctx = EncodeCtx::new();
    let unit = encode_incremental(&p, &mut atoms, env, &mut ctx);
    let vars: Vec<BVar> = (0..atoms.len())
        .map(|i| ctx.var_of_atom(AtomId(i as u32)))
        .collect();
    let mut sat = CdclSolver::new();
    while sat.num_vars() < ctx.num_vars() {
        sat.new_var();
    }
    for clause in unit.lemma_clauses.into_iter().chain(unit.clauses) {
        sat.add_clause(clause);
    }
    let theory_budget = TheoryBudget {
        bb_nodes: budget.max_bb_nodes,
        deadline: None,
    };
    for _ in 0..=budget.max_theory_conflicts {
        match sat.solve_within(None, budget.max_sat_conflicts) {
            SatResult::Unsat => return SmtResult::Unsat,
            SatResult::Unknown => {
                return SmtResult::Unknown(Exhaustion::new(Phase::Sat, Resource::SatConflicts))
            }
            SatResult::Sat => {}
        }
        let model: Vec<(AtomId, bool)> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (AtomId(i as u32), sat.model_value(v)))
            .collect();
        match check_assignment(&atoms, &model, &theory_budget) {
            TheoryResult::Sat if truncated => {
                return SmtResult::Unknown(Exhaustion::with_detail(
                    Phase::Saturation,
                    Resource::SaturationLemmas,
                    format!("cap {}", budget.max_saturation_lemmas),
                ))
            }
            TheoryResult::Sat => return SmtResult::Sat,
            TheoryResult::Unknown(r) => {
                return SmtResult::Unknown(Exhaustion::new(Phase::Simplex, r))
            }
            TheoryResult::Unsat(core) => {
                let block = core
                    .iter()
                    .map(|&(aid, val)| Lit::new(vars[aid.index()], !val))
                    .collect();
                sat.reset_to_root();
                sat.add_clause(block);
            }
        }
    }
    SmtResult::Unknown(Exhaustion::with_detail(
        Phase::Smt,
        Resource::TheoryConflicts,
        format!("cap {}", budget.max_theory_conflicts),
    ))
}

/// The oracle's verdict on `antecedent ⇒ consequent`: the negation is
/// unsatisfiable exactly when the implication is valid.
fn scratch_valid(env: &SortEnv, antecedent: &Pred, consequent: &Pred) -> Validity {
    match scratch_sat(
        env,
        &Pred::and(vec![antecedent.clone(), Pred::not(consequent.clone())]),
    ) {
        SmtResult::Unsat => Validity::Valid,
        SmtResult::Sat => Validity::Invalid,
        SmtResult::Unknown(e) => Validity::Unknown(e),
    }
}

/// The atom pool. Every entry parses and is well-sorted under [`env`];
/// together they cover arithmetic, UF congruence, set reasoning and
/// arrays. Entries 18 and 19 are small set facts over equated set
/// variables whose verdicts need set-saturation lemmas, not just
/// canonical forms and congruence: `union(s, t) = t` once `s = t`
/// (idempotence), and `t = u` from the two unions over them. A session
/// that drops those lemmas disagrees with the oracle on them. Entry 20
/// puts an `ite` in a union, so set lemmas mention a union with an
/// `ite` leaf, whose terms the session must build without flattening
/// the `ite`. The last three read a map, once directly and twice through
/// updates, one nested in another, so their verdicts can need
/// read-over-write instances, of the inner update too.
const ATOMS: [&str; 23] = [
    "x < y",
    "x <= y",
    "y < z",
    "x = y + 1",
    "x + y <= z",
    "0 <= x",
    "x != z",
    "z <= 3",
    "b",
    "f(x) = f(y)",
    "f(x) <= f(z)",
    "f(z) = y",
    "x in s",
    "s = union(t, single(x))",
    "s = t",
    "y in union(s, t)",
    "t = u",
    "s = t => t = union(s, t)",
    "u = union(t, single(x)) && t = union(u, single(x))",
    "s = union(single(x), (if x < y then t else u))",
    "Sel(m, x) = y",
    "Sel(Upd(m, x, y), z) = y",
    "Sel(Upd(Upd(m, x, 1), y, 2), z) = Sel(m, z)",
];

fn arb_atom() -> BoxedStrategy<Pred> {
    (0usize..ATOMS.len())
        .prop_map(|i| parse_pred(ATOMS[i]).unwrap())
        .boxed()
}

/// Random predicates: atoms combined by ¬, ∧, ∨, ⇒ up to a small depth.
fn arb_pred() -> BoxedStrategy<Pred> {
    arb_atom().prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Pred::not),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Pred::and(vec![p, q])),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| Pred::or(vec![p, q])),
            (inner.clone(), inner).prop_map(|(p, q)| Pred::imp(p, q)),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// One batched session over `consequents` must return exactly the
    /// verdicts the oracle computes one by one, and so must a scalar
    /// query (a one-shot session) per consequent.
    #[test]
    fn batched_verdicts_match_scratch(
        antecedent in arb_pred(),
        consequents in prop::collection::vec(arb_pred(), 1..6),
    ) {
        let env = env();
        let mut batch = SmtSolver::new();
        let got = batch.check_valid_many(&env, &antecedent, &consequents);
        prop_assert_eq!(got.len(), consequents.len());
        for (c, got) in consequents.iter().zip(&got) {
            let want = scratch_valid(&env, &antecedent, c);
            prop_assert_eq!(
                got,
                &want,
                "batched disagrees with scratch on `{}` under `{}`",
                c,
                antecedent
            );
            let scalar = SmtSolver::new().check_valid(&env, &antecedent, c);
            prop_assert_eq!(
                &scalar,
                &want,
                "scalar disagrees with scratch on `{}` under `{}`",
                c,
                antecedent
            );
        }
    }

    /// Session reuse: two different batches issued on the *same* solver
    /// (second session, warm cache) still agree with the oracle.
    #[test]
    fn repeated_batches_stay_correct(
        a1 in arb_pred(),
        a2 in arb_pred(),
        consequents in prop::collection::vec(arb_pred(), 1..4),
    ) {
        let env = env();
        let mut inc = SmtSolver::new();
        let _ = inc.check_valid_many(&env, &a1, &consequents);
        let got = inc.check_valid_many(&env, &a2, &consequents);
        for (c, got) in consequents.iter().zip(&got) {
            let want = scratch_valid(&env, &a2, c);
            prop_assert_eq!(
                got,
                &want,
                "warm solver disagrees with scratch on `{}` under `{}`",
                c,
                a2
            );
        }
    }
}

/// A batch whose consequents are each asserted in a scope that is
/// popped before the next: the antecedent's facts, encoded while the
/// first scope was open, stay in force.
#[test]
fn pop_reassert_sequence_matches_scratch() {
    let env = env();
    let mut batch = SmtSolver::new();
    let ant = parse_pred("x < y && s = union(t, empty)").unwrap();
    let cons: Vec<Pred> = ["s = t", "x <= y", "y <= x", "t = s"]
        .iter()
        .map(|s| parse_pred(s).unwrap())
        .collect();
    let want = vec![
        Validity::Valid,
        Validity::Valid,
        Validity::Invalid,
        Validity::Valid,
    ];
    assert_eq!(batch.check_valid_many(&env, &ant, &cons), want);
    // The oracle knows the same answers.
    let oracle: Vec<Validity> = cons.iter().map(|c| scratch_valid(&env, &ant, c)).collect();
    assert_eq!(oracle, want);
}

/// A set lemma through an `ite` leaf: `union(s, t)` rewritten by
/// `s = union(single(x), ite)` is the consequent's union only if the
/// session's terms for the `ite` (a variable standing for it, in the
/// guard and in the rewritten union) stay tied to the `ite`s the
/// assertions were encoded with.
#[test]
fn ite_leaf_lemma_matches_scratch() {
    let env = env();
    let ant = parse_pred("s = union(single(x), (if x < y then t else u))").unwrap();
    let cons =
        parse_pred("union(s, t) = union(single(x), union(t, (if x < y then t else u)))").unwrap();
    assert_eq!(scratch_valid(&env, &ant, &cons), Validity::Valid);
    assert_eq!(
        SmtSolver::new().check_valid(&env, &ant, &cons),
        Validity::Valid
    );
    let batch = SmtSolver::new().check_valid_many(&env, &ant, &[cons.clone(), cons]);
    assert_eq!(batch, vec![Validity::Valid, Validity::Valid]);
}

/// Decides `antecedent ⇒ consequent` by a scalar query, a batch and the
/// scratch oracle, and asserts that all three answer `want`. In the batch
/// the consequent comes second, so the antecedent's lemmas are handed
/// out by the first check and must still be in force in the second.
fn known_answer(antecedent: &str, consequent: &str, want: Validity) {
    let env = env();
    let antecedent = parse_pred(antecedent).unwrap();
    let consequent = parse_pred(consequent).unwrap();
    assert_eq!(
        scratch_valid(&env, &antecedent, &consequent),
        want,
        "scratch on `{antecedent} => {consequent}`"
    );
    assert_eq!(
        SmtSolver::new().check_valid(&env, &antecedent, &consequent),
        want,
        "scalar on `{antecedent} => {consequent}`"
    );
    let first = parse_pred("x <= x").unwrap();
    let batch = SmtSolver::new().check_valid_many(&env, &antecedent, &[first, consequent.clone()]);
    assert_eq!(batch[1], want, "batch on `{antecedent} => {consequent}`");
}

/// A substitution lemma: `t = union(s, single(x)) ⇒ union(s, t) =
/// union(s, single(x))`. Congruence alone cannot equate the two unions:
/// replacing the leaf `t` re-flattens `union(s, union(s, single(x)))`,
/// whose duplicate leaf only the canonical rewrite drops.
#[test]
fn substitution_lemma_reflattens_a_union() {
    known_answer(
        "t = union(s, single(x))",
        "union(s, t) = union(s, single(x))",
        Validity::Valid,
    );
}

/// A non-emptiness lemma: a union with a singleton leaf is not `empty`.
#[test]
fn union_with_a_singleton_leaf_is_not_empty() {
    known_answer(
        "s = union(t, single(x))",
        "not (s = empty)",
        Validity::Valid,
    );
}

/// An injectivity lemma: `single(x) = single(y) ⇒ x = y`.
#[test]
fn equal_singletons_have_equal_elements() {
    known_answer("single(x) = single(y)", "x = y", Validity::Valid);
}

/// A read-over-write hit: `Sel(Upd(m, x, y), z)` is `y` when `z = x`.
#[test]
fn read_over_write_hit() {
    known_answer("z = x", "Sel(Upd(m, x, y), z) = y", Validity::Valid);
}

/// A read-over-write miss: an update at `x` leaves the map unchanged at
/// any `z ≠ x`.
#[test]
fn read_over_write_miss() {
    known_answer(
        "z != x",
        "Sel(Upd(m, x, y), z) = Sel(m, z)",
        Validity::Valid,
    );
}

/// A read through two nested updates: the outer update misses (`z ≠ y`),
/// so the read reaches the inner update, whose own hit instance at `z`
/// (or at its write index `x = z`) decides it.
#[test]
fn read_through_nested_updates_needs_the_inner_instances() {
    known_answer(
        "z = x && z != y",
        "Sel(Upd(Upd(m, x, 1), y, 2), z) = 1",
        Validity::Valid,
    );
}
