//! Theory-solver oracles: the simplex and congruence-closure engines
//! checked against brute-force reference implementations on randomly
//! generated small instances, including through push/pop scopes; the
//! conflict cores of the combined theory check held to the same oracles;
//! the persistent theory context held to fresh checks; and map reads
//! through updates decided by brute force over small finite maps.
//!
//! Case counts are deliberately small so `cargo test` stays fast; build
//! with `--features slow-proptest` for a deeper local run.

use dsolve_logic::{parse_pred, Budget, Expr, Pred, Rel, Sort, SortEnv, Symbol};
use dsolve_obs::MicroCounter;
use dsolve_smt::{
    check_assignment, AtomId, Atoms, Euf, EufResult, LpResult, Rat, Simplex, SmtSolver,
    SolverConfig, Term, TermArena, TermId, TheoryBudget, TheoryContext, TheoryResult, Validity,
};
use proptest::prelude::*;

#[cfg(feature = "slow-proptest")]
const CASES: u32 = 256;
#[cfg(not(feature = "slow-proptest"))]
const CASES: u32 = 48;

const NVARS: usize = 3;
const BOUND: i64 = 4;

/// One linear constraint `c·x REL d` with `REL ∈ {≤, ≥, =}`.
type Constraint = (Vec<i64>, i64, u8);

fn arb_constraint() -> impl Strategy<Value = Constraint> {
    (prop::collection::vec(-3i64..=3, NVARS), -6i64..=6, 0u8..3)
}

fn eval(c: &Constraint, vals: &[i64; NVARS]) -> bool {
    let s: i64 = c.0.iter().zip(vals).map(|(a, v)| a * v).sum();
    match c.2 {
        0 => s <= c.1,
        1 => s >= c.1,
        _ => s == c.1,
    }
}

/// Exhaustive integer feasibility over the `[-BOUND, BOUND]^3` box.
fn brute_feasible(cs: &[Constraint]) -> bool {
    let r = -BOUND..=BOUND;
    for x in r.clone() {
        for y in r.clone() {
            for z in r.clone() {
                let vals = [x, y, z];
                if cs.iter().all(|c| eval(c, &vals)) {
                    return true;
                }
            }
        }
    }
    false
}

/// Builds a boxed tableau over `NVARS` integer variables and asserts
/// `cs` as slack-variable bounds. Returns `None` when an assertion hits
/// an immediate conflict (which is itself an Unsat answer).
fn assert_all(simplex: &mut Simplex, vars: &[usize], cs: &[Constraint]) -> bool {
    for c in cs {
        let combo: Vec<(usize, Rat)> =
            c.0.iter()
                .zip(vars)
                .filter(|(a, _)| **a != 0)
                .map(|(a, v)| (*v, Rat::from_int(*a)))
                .collect();
        let d = Rat::from_int(c.1);
        if combo.is_empty() {
            // Constant constraint: 0 REL d.
            let holds = match c.2 {
                0 => 0 <= c.1,
                1 => 0 >= c.1,
                _ => c.1 == 0,
            };
            if !holds {
                return false;
            }
            continue;
        }
        let s = simplex.add_row(&combo);
        let ok = match c.2 {
            0 => simplex.assert_upper(s, d, None),
            1 => simplex.assert_lower(s, d, None),
            _ => simplex.assert_lower(s, d, None) && simplex.assert_upper(s, d, None),
        };
        if !ok {
            return false;
        }
    }
    true
}

fn boxed_simplex() -> (Simplex, Vec<usize>) {
    let mut simplex = Simplex::new();
    let vars: Vec<usize> = (0..NVARS).map(|_| simplex.new_var(true)).collect();
    for &v in &vars {
        assert!(simplex.assert_lower(v, Rat::from_int(-BOUND), None));
        assert!(simplex.assert_upper(v, Rat::from_int(BOUND), None));
    }
    (simplex, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Integer branch-and-bound over a fully boxed system is complete:
    /// its verdict must equal exhaustive enumeration.
    #[test]
    fn simplex_matches_brute_force(
        cs in prop::collection::vec(arb_constraint(), 1..5),
    ) {
        let (mut simplex, vars) = boxed_simplex();
        let expected = brute_feasible(&cs);
        if !assert_all(&mut simplex, &vars, &cs) {
            prop_assert!(!expected, "immediate conflict on feasible {cs:?}");
        } else {
            match simplex.check_int() {
                LpResult::Sat => prop_assert!(expected, "Sat on infeasible {cs:?}"),
                LpResult::Unsat => prop_assert!(!expected, "Unsat on feasible {cs:?}"),
                LpResult::Unknown => prop_assert!(false, "budget exhausted on {cs:?}"),
            }
        }
    }

    /// Scoped constraints do not leak: asserting `extra` inside a scope
    /// and popping must leave the base system's verdict unchanged.
    #[test]
    fn simplex_scopes_match_brute_force(
        base in prop::collection::vec(arb_constraint(), 1..4),
        extra in prop::collection::vec(arb_constraint(), 1..4),
    ) {
        let (mut simplex, vars) = boxed_simplex();
        if !assert_all(&mut simplex, &vars, &base) {
            prop_assert!(!brute_feasible(&base));
        } else {
            simplex.push();
            let mut both: Vec<Constraint> = base.clone();
            both.extend(extra.iter().cloned());
            if assert_all(&mut simplex, &vars, &extra) {
                let got = simplex.check_int();
                let expected = brute_feasible(&both);
                prop_assert_eq!(
                    got,
                    if expected { LpResult::Sat } else { LpResult::Unsat },
                    "scoped verdict wrong for {:?}",
                    both
                );
            }
            simplex.pop();
            let got = simplex.check_int();
            let expected = brute_feasible(&base);
            prop_assert_eq!(
                got,
                if expected { LpResult::Sat } else { LpResult::Unsat },
                "popped verdict wrong for base {:?}",
                base
            );
        }
    }
}

// ---------------------------------------------------------------------
// EUF vs a naive fixpoint congruence closure.
// ---------------------------------------------------------------------

/// Builds the fixed term universe: four variables, two distinct
/// constants, `f` applied to each variable, and `f(f(a))`.
fn universe() -> (TermArena, Vec<TermId>) {
    let mut arena = TermArena::new();
    let mut terms = Vec::new();
    let vars: Vec<TermId> = ["a", "b", "c", "d"]
        .iter()
        .map(|v| {
            arena.intern(
                Term::Var(dsolve_logic::Symbol::new(v), Sort::Int),
                Sort::Int,
            )
        })
        .collect();
    terms.extend(vars.iter().copied());
    terms.push(arena.intern(Term::Int(0), Sort::Int));
    terms.push(arena.intern(Term::Int(1), Sort::Int));
    let f = dsolve_logic::Symbol::new("f");
    let apps: Vec<TermId> = vars
        .iter()
        .map(|&v| arena.intern(Term::App(f, vec![v]), Sort::Int))
        .collect();
    terms.extend(apps.iter().copied());
    terms.push(arena.intern(Term::App(f, vec![apps[0]]), Sort::Int));
    (arena, terms)
}

/// Reference congruence closure: repeated passes merging asserted
/// equalities and congruent applications until fixpoint, then conflict
/// detection on disequalities and distinct interpreted constants.
fn naive_closure(
    arena: &TermArena,
    eqs: &[(TermId, TermId)],
    nes: &[(TermId, TermId)],
) -> EufResult {
    let ids: Vec<TermId> = arena.ids().collect();
    let n = ids.len();
    let mut repr: Vec<usize> = (0..n).collect();
    fn find(repr: &[usize], mut i: usize) -> usize {
        while repr[i] != i {
            i = repr[i];
        }
        i
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &(a, b) in eqs {
            let (ra, rb) = (find(&repr, a.index()), find(&repr, b.index()));
            if ra != rb {
                repr[ra.max(rb)] = ra.min(rb);
                changed = true;
            }
        }
        // Congruence: merge applications with the same head whose
        // arguments are pairwise congruent.
        for i in 0..n {
            for j in (i + 1)..n {
                let (Term::App(fi, ai), Term::App(fj, aj)) =
                    (arena.term(ids[i]), arena.term(ids[j]))
                else {
                    continue;
                };
                if fi != fj || ai.len() != aj.len() {
                    continue;
                }
                let congruent = ai
                    .iter()
                    .zip(aj)
                    .all(|(x, y)| find(&repr, x.index()) == find(&repr, y.index()));
                let (ri, rj) = (find(&repr, i), find(&repr, j));
                if congruent && ri != rj {
                    repr[ri.max(rj)] = ri.min(rj);
                    changed = true;
                }
            }
        }
    }
    for &(a, b) in nes {
        if find(&repr, a.index()) == find(&repr, b.index()) {
            return EufResult::Unsat;
        }
    }
    // Two distinct interpreted constants in one class is a conflict.
    for i in 0..n {
        for j in (i + 1)..n {
            let (Term::Int(x), Term::Int(y)) = (arena.term(ids[i]), arena.term(ids[j])) else {
                continue;
            };
            if x != y && find(&repr, i) == find(&repr, j) {
                return EufResult::Unsat;
            }
        }
    }
    EufResult::Sat
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Congruence closure agrees with the naive fixpoint closure on
    /// random (dis)equality sets over the fixed universe, and the
    /// explanation of a conflict is itself a conflict.
    #[test]
    fn euf_matches_naive_closure(
        eq_picks in prop::collection::vec((0usize..11, 0usize..11), 0..6),
        ne_picks in prop::collection::vec((0usize..11, 0usize..11), 0..4),
    ) {
        let (arena, terms) = universe();
        let eqs: Vec<(TermId, TermId)> =
            eq_picks.iter().map(|&(i, j)| (terms[i], terms[j])).collect();
        // A term is never disequal to itself by construction choice:
        // skip reflexive picks (they would make every run trivially
        // Unsat).
        let nes: Vec<(TermId, TermId)> = ne_picks
            .iter()
            .filter(|&&(i, j)| i != j)
            .map(|&(i, j)| (terms[i], terms[j]))
            .collect();
        // Reason tags: equality i is i, disequality j is eqs.len() + j.
        let mut euf = Euf::new();
        for (i, &(a, b)) in eqs.iter().enumerate() {
            euf.assert_eq(&arena, a, b, i as u32);
        }
        for (j, &(a, b)) in nes.iter().enumerate() {
            euf.assert_ne(&arena, a, b, (eqs.len() + j) as u32);
        }
        let got = euf.check();
        let want = naive_closure(&arena, &eqs, &nes);
        prop_assert_eq!(&got, &want, "eqs {:?} nes {:?}", eqs, nes);
        if got == EufResult::Unsat {
            let named = |i: usize| euf.conflict().contains(&(i as u32));
            let core_eqs: Vec<_> = (0..eqs.len()).filter(|&i| named(i)).map(|i| eqs[i]).collect();
            let core_nes: Vec<_> =
                (0..nes.len()).filter(|&j| named(eqs.len() + j)).map(|j| nes[j]).collect();
            prop_assert_eq!(
                naive_closure(&arena, &core_eqs, &core_nes),
                EufResult::Unsat,
                "explanation {:?} of eqs {:?} nes {:?} is consistent",
                euf.conflict(),
                eqs,
                nes
            );
        }
    }

    /// Scoped equalities roll back: check-pop-check agrees with the
    /// naive closure of the base assertions alone.
    #[test]
    fn euf_scopes_match_naive_closure(
        base_eqs in prop::collection::vec((0usize..11, 0usize..11), 0..4),
        base_nes in prop::collection::vec((0usize..11, 0usize..11), 0..3),
        scoped_eqs in prop::collection::vec((0usize..11, 0usize..11), 1..4),
    ) {
        let (arena, terms) = universe();
        let eqs: Vec<(TermId, TermId)> =
            base_eqs.iter().map(|&(i, j)| (terms[i], terms[j])).collect();
        let nes: Vec<(TermId, TermId)> = base_nes
            .iter()
            .filter(|&&(i, j)| i != j)
            .map(|&(i, j)| (terms[i], terms[j]))
            .collect();
        let extra: Vec<(TermId, TermId)> =
            scoped_eqs.iter().map(|&(i, j)| (terms[i], terms[j])).collect();
        let mut euf = Euf::new();
        for &(a, b) in &eqs {
            euf.assert_eq(&arena, a, b, 0);
        }
        for &(a, b) in &nes {
            euf.assert_ne(&arena, a, b, 0);
        }
        let base_verdict = euf.check();
        prop_assert_eq!(&base_verdict, &naive_closure(&arena, &eqs, &nes));
        euf.push();
        let mut all = eqs.clone();
        all.extend(extra.iter().copied());
        for &(a, b) in &extra {
            euf.assert_eq(&arena, a, b, 0);
        }
        prop_assert_eq!(euf.check(), naive_closure(&arena, &all, &nes));
        euf.pop();
        prop_assert_eq!(euf.check(), base_verdict, "verdict changed after pop");
    }
}

// ---------------------------------------------------------------------
// Verdict certification vs brute force on boxed linear implications.
// ---------------------------------------------------------------------

const IMP_VARS: [&str; 3] = ["x", "y", "z"];

fn imp_env() -> SortEnv {
    let mut env = SortEnv::new();
    for v in IMP_VARS {
        env.bind(Symbol::new(v), Sort::Int);
    }
    env
}

/// A random linear atom `a·x + b·y + c·z + d REL 0`.
fn arb_linear_atom() -> impl Strategy<Value = (Vec<i64>, i64, Rel)> {
    (
        prop::collection::vec(-3i64..=3, IMP_VARS.len()),
        -6i64..=6,
        prop_oneof![Just(Rel::Le), Just(Rel::Lt), Just(Rel::Eq), Just(Rel::Ne)],
    )
}

fn linear_pred(coeffs: &[i64], d: i64, rel: Rel) -> Pred {
    let mut e = Expr::int(d);
    for (c, v) in coeffs.iter().zip(IMP_VARS) {
        e = e.add(Expr::int(*c).mul(Expr::var(v)));
    }
    Pred::Atom(rel, e, Expr::int(0))
}

fn eval_linear(coeffs: &[i64], d: i64, rel: Rel, vals: &[i64; 3]) -> bool {
    let s: i64 = d + coeffs.iter().zip(vals).map(|(c, v)| c * v).sum::<i64>();
    match rel {
        Rel::Le => s <= 0,
        Rel::Lt => s < 0,
        Rel::Eq => s == 0,
        Rel::Ne => s != 0,
        _ => unreachable!(),
    }
}

/// The antecedent boxes every variable into `[-BOUND, BOUND]`, so the
/// implication is decided exactly by integer enumeration.
fn boxed_antecedent(atoms: &[(Vec<i64>, i64, Rel)]) -> Pred {
    let mut conj: Vec<Pred> = atoms
        .iter()
        .map(|(c, d, r)| linear_pred(c, *d, *r))
        .collect();
    for v in IMP_VARS {
        conj.push(Pred::le(Expr::int(-BOUND), Expr::var(v)));
        conj.push(Pred::le(Expr::var(v), Expr::int(BOUND)));
    }
    Pred::and(conj)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Under `--certify`, every definite verdict on a boxed linear
    /// implication must survive its own certificate — an `Invalid`
    /// answer's countermodel evaluates to *true* on the negated
    /// implication (it falsifies `antecedent ⇒ consequent`), and a
    /// `Valid` answer rests on theory cores each refuted on fresh engines
    /// before it blocked a model — and the verdict itself must agree with
    /// exhaustive enumeration. A failed certificate would surface as an
    /// `Unknown` verdict and a nonzero `certs_failed` counter; both are
    /// asserted impossible here.
    #[test]
    fn certified_verdicts_match_brute_force(
        lhs_atoms in prop::collection::vec(arb_linear_atom(), 1..4),
        rhs_atom in arb_linear_atom(),
    ) {
        let obs = dsolve_obs::Obs::new();
        let mut smt = SmtSolver::with_config(
            SolverConfig {
                certify: true,
                cache: false,
            },
            Budget::default(),
        );
        smt.set_obs(obs.clone());
        let env = imp_env();
        let lhs = boxed_antecedent(&lhs_atoms);
        let (rc, rd, rr) = &rhs_atom;
        let rhs = linear_pred(rc, *rd, *rr);

        // Exhaustive ground truth over the box.
        let mut expect_valid = true;
        let r = -BOUND..=BOUND;
        'outer: for x in r.clone() {
            for y in r.clone() {
                for z in r.clone() {
                    let vals = [x, y, z];
                    let ante = lhs_atoms
                        .iter()
                        .all(|(c, d, rel)| eval_linear(c, *d, *rel, &vals));
                    if ante && !eval_linear(rc, *rd, *rr, &vals) {
                        expect_valid = false;
                        break 'outer;
                    }
                }
            }
        }

        let verdict = smt.check_valid(&env, &lhs, &rhs);
        match verdict {
            Validity::Valid => prop_assert!(
                expect_valid,
                "certified Valid on refutable `{lhs} => {rhs}`"
            ),
            Validity::Invalid => prop_assert!(
                !expect_valid,
                "certified Invalid on valid `{lhs} => {rhs}`"
            ),
            Validity::Unknown(e) => prop_assert!(
                false,
                "certificate or budget failed on `{lhs} => {rhs}`: {e}"
            ),
        }
        let snap = obs.snapshot(0);
        prop_assert_eq!(snap.certs_failed, 0, "a certificate failed to replay");
        prop_assert!(snap.certs_checked >= 1, "no certificate was checked");
    }
}

// ---------------------------------------------------------------------
// Theory conflict cores vs brute force over EUF + integer arithmetic.
// ---------------------------------------------------------------------

/// The integer terms literals range over: x, y, z, f(x), f(y).
const CORE_TERMS: usize = 5;
/// Every term is boxed into `[-CORE_BOX, CORE_BOX]`.
const CORE_BOX: i64 = 1;

/// A literal over the core terms.
#[derive(Clone, Debug)]
enum CoreLit {
    /// `Σ cᵢ·tᵢ + d REL 0`.
    Linear(Vec<i64>, i64, Rel),
    /// `tᵢ = tⱼ` (or `≠` when the flag is false), a direct EUF
    /// (dis)equality.
    Terms(usize, usize, bool),
}

fn core_term(i: usize) -> Expr {
    match i {
        0..=2 => Expr::var(IMP_VARS[i]),
        _ => Expr::app("f", vec![Expr::var(IMP_VARS[i - 3])]),
    }
}

fn core_env() -> SortEnv {
    let mut env = imp_env();
    env.declare_func(
        Symbol::new("f"),
        dsolve_logic::FuncSort::new(vec![Sort::Int], Sort::Int),
    );
    env
}

fn arb_core_lit() -> impl Strategy<Value = CoreLit> {
    prop_oneof![
        (
            prop::collection::vec(-2i64..=2, CORE_TERMS),
            -3i64..=3,
            prop_oneof![Just(Rel::Le), Just(Rel::Lt), Just(Rel::Eq), Just(Rel::Ne)],
        )
            .prop_map(|(c, d, r)| CoreLit::Linear(c, d, r)),
        (0..CORE_TERMS, 1..CORE_TERMS, any::<bool>()).prop_map(|(i, k, eq)| {
            let j = (i + k) % CORE_TERMS;
            CoreLit::Terms(i, j, eq)
        }),
    ]
}

impl CoreLit {
    fn holds(&self, v: &[i64; CORE_TERMS]) -> bool {
        match self {
            CoreLit::Linear(c, d, rel) => {
                let s: i64 = d + c.iter().zip(v).map(|(a, b)| a * b).sum::<i64>();
                match rel {
                    Rel::Le => s <= 0,
                    Rel::Lt => s < 0,
                    Rel::Eq => s == 0,
                    _ => s != 0,
                }
            }
            CoreLit::Terms(i, j, eq) => (v[*i] == v[*j]) == *eq,
        }
    }

    /// The literal as an atom of `atoms`, with the polarity that makes
    /// it true.
    fn atom(&self, atoms: &mut Atoms, env: &SortEnv) -> (AtomId, bool) {
        let (rel, lhs, rhs) = match self {
            CoreLit::Linear(c, d, rel) => {
                let mut e = Expr::int(*d);
                for (i, &ci) in c.iter().enumerate().filter(|(_, &ci)| ci != 0) {
                    e = e.add(Expr::int(ci).mul(core_term(i)));
                }
                (*rel, e, Expr::int(0))
            }
            CoreLit::Terms(i, j, eq) => {
                let rel = if *eq { Rel::Eq } else { Rel::Ne };
                (rel, core_term(*i), core_term(*j))
            }
        };
        atoms.atom_of_rel(rel, &lhs, &rhs, env)
    }
}

/// The box literals `-CORE_BOX ≤ tᵢ ≤ CORE_BOX`.
fn core_box() -> Vec<CoreLit> {
    (0..CORE_TERMS)
        .flat_map(|i| {
            let unit = |s: i64| {
                (0..CORE_TERMS)
                    .map(|k| if k == i { s } else { 0 })
                    .collect()
            };
            [
                CoreLit::Linear(unit(1), -CORE_BOX, Rel::Le),
                CoreLit::Linear(unit(-1), -CORE_BOX, Rel::Le),
            ]
        })
        .collect()
}

/// Whether some assignment in the box satisfies every literal, with `f`
/// functional (x = y forces f(x) = f(y)).
fn core_feasible(lits: &[&CoreLit]) -> bool {
    let r = -CORE_BOX..=CORE_BOX;
    for x in r.clone() {
        for y in r.clone() {
            for z in r.clone() {
                for fx in r.clone() {
                    for fy in r.clone() {
                        if x == y && fx != fy {
                            continue;
                        }
                        let v = [x, y, z, fx, fy];
                        if lits.iter().all(|l| l.holds(&v)) {
                            return true;
                        }
                    }
                }
            }
        }
    }
    false
}

/// The literals a core names, each as a literal of `model` it equals.
fn of_model<'a>(
    core: &[(AtomId, bool)],
    model: &'a [((AtomId, bool), CoreLit)],
) -> Vec<&'a CoreLit> {
    core.iter()
        .map(|lit| {
            let (_, l) = model
                .iter()
                .find(|(m, _)| m == lit)
                .expect("a core literal is a model literal");
            l
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Every conflict core the theory check returns is itself infeasible
    /// under the brute-force oracle, and each is an explanation that
    /// passed its confirming check (no fallback to the whole assignment).
    #[test]
    fn theory_cores_are_infeasible(
        extra in prop::collection::vec(arb_core_lit(), 2..8),
    ) {
        let env = core_env();
        let mut lits = core_box();
        lits.extend(extra);
        let mut atoms = Atoms::new();
        let assignment: Vec<(AtomId, bool)> =
            lits.iter().map(|l| l.atom(&mut atoms, &env)).collect();
        let all: Vec<&CoreLit> = lits.iter().collect();
        let feasible = core_feasible(&all);

        dsolve_obs::micro::drain();
        let result = check_assignment(&atoms, &assignment, &TheoryBudget::default());
        let counts = dsolve_obs::micro::drain().micro;
        prop_assert_eq!(
            counts[MicroCounter::TheoryCoreFallbacks.index()],
            0,
            "an explanation failed confirmation on {:?}",
            lits
        );
        if let TheoryResult::Unsat(core) = result {
            prop_assert!(!feasible, "Unsat on the feasible set {:?}", lits);
            let model: Vec<((AtomId, bool), CoreLit)> =
                assignment.iter().copied().zip(lits.iter().cloned()).collect();
            let core_lits = of_model(&core, &model);
            prop_assert!(
                !core_feasible(&core_lits),
                "core {:?} of {:?} is feasible",
                core_lits,
                lits
            );
        }
    }
}

// ---------------------------------------------------------------------
// The persistent theory context vs fresh checks.
// ---------------------------------------------------------------------

/// One step against a context: push a segment of root literals, pop the
/// last segment, or check a model made of the root literals plus some
/// others.
#[derive(Clone, Debug)]
enum CtxOp {
    Push(Vec<CoreLit>),
    Pop,
    Check(Vec<CoreLit>),
}

fn arb_ctx_op() -> impl Strategy<Value = CtxOp> {
    prop_oneof![
        prop::collection::vec(arb_core_lit(), 1..4).prop_map(CtxOp::Push),
        Just(CtxOp::Pop),
        prop::collection::vec(arb_core_lit(), 0..4).prop_map(CtxOp::Check),
    ]
}

/// Appends the literals whose atoms `taken` lacks (a trail assigns each
/// atom once) to `out`, with the literal they came from.
fn add_fresh_atoms(
    lits: &[CoreLit],
    atoms: &mut Atoms,
    env: &SortEnv,
    taken: &mut Vec<AtomId>,
    out: &mut Vec<((AtomId, bool), CoreLit)>,
) {
    for l in lits {
        let lit = l.atom(atoms, env);
        if !taken.contains(&lit.0) {
            taken.push(lit.0);
            out.push((lit, l.clone()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// A context driven through random push/check/pop sequences — its
    /// root trail a stack of literal segments over a growing atom table,
    /// the box at the bottom — answers every model as a fresh
    /// `check_assignment` does; every core it returns is infeasible under
    /// the brute-force oracle; and no explanation ever fails its
    /// confirming check.
    #[test]
    fn context_matches_fresh_checks(
        ops in prop::collection::vec(arb_ctx_op(), 1..12),
    ) {
        let env = core_env();
        let budget = TheoryBudget::default();
        let mut atoms = Atoms::new();
        let mut ctx = TheoryContext::new();
        let mut segments: Vec<Vec<((AtomId, bool), CoreLit)>> = Vec::new();
        let mut bottom = Vec::new();
        add_fresh_atoms(&core_box(), &mut atoms, &env, &mut Vec::new(), &mut bottom);
        segments.push(bottom);
        for op in ops {
            let mut taken: Vec<AtomId> =
                segments.iter().flatten().map(|((aid, _), _)| *aid).collect();
            match op {
                CtxOp::Push(lits) => {
                    let mut seg = Vec::new();
                    add_fresh_atoms(&lits, &mut atoms, &env, &mut taken, &mut seg);
                    segments.push(seg);
                }
                CtxOp::Pop => {
                    if segments.len() > 1 {
                        segments.pop();
                    }
                }
                CtxOp::Check(others) => {
                    let mut model: Vec<((AtomId, bool), CoreLit)> =
                        segments.iter().flatten().cloned().collect();
                    let root: Vec<(AtomId, bool)> = model.iter().map(|(lit, _)| *lit).collect();
                    add_fresh_atoms(&others, &mut atoms, &env, &mut taken, &mut model);
                    let assignment: Vec<(AtomId, bool)> =
                        model.iter().map(|(lit, _)| *lit).collect();
                    dsolve_obs::micro::drain();
                    let got = ctx.check(&atoms, &assignment, &root, &budget);
                    let counts = dsolve_obs::micro::drain().micro;
                    prop_assert_eq!(
                        counts[MicroCounter::TheoryCoreFallbacks.index()],
                        0,
                        "a context explanation failed confirmation on {:?}",
                        model
                    );
                    let want = check_assignment(&atoms, &assignment, &budget);
                    match (&got, &want) {
                        (TheoryResult::Sat, TheoryResult::Sat) => {}
                        (TheoryResult::Unsat(core), TheoryResult::Unsat(_)) => {
                            let core_lits = of_model(core, &model);
                            prop_assert!(
                                !core_feasible(&core_lits),
                                "core {:?} of {:?} is feasible",
                                core_lits,
                                model
                            );
                        }
                        _ => prop_assert!(
                            false,
                            "context says {:?}, fresh engines {:?}, on {:?}",
                            got,
                            want,
                            model
                        ),
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Map reads vs brute force over maps on {0, 1, 2}.
// ---------------------------------------------------------------------

/// The index atoms: two of `x`, `y`, `z` are equal.
const INDEX_ATOMS: [&str; 3] = ["x = y", "y = z", "x = z"];

/// Map atoms over `x`, `y`, `z` and a map `m`. Every index and written
/// value is `x`, `y`, `z` or a constant in {0, 1, 2}, and `m` itself is
/// read only at `x`, `y` or `z`. Under the box (`0 ≤ v ≤ 2` and
/// `0 ≤ Sel(m, v) ≤ 2` for each v) every value an atom observes is then
/// in {0, 1, 2}, so an implication has a countermodel exactly when it
/// has one among the 27 index assignments and 27 maps on {0, 1, 2}. The
/// first three are the map atoms of the differential pool
/// (incremental_vs_scratch.rs). The rest read through an update at its
/// write index (decided by a hit instance), at an index the antecedent
/// may make another (a miss instance), or through two nested updates
/// (instances of the inner update).
const MAP_ATOMS: &[&str] = &[
    "Sel(m, x) = y",
    "Sel(Upd(m, x, y), z) = y",
    "Sel(Upd(Upd(m, x, 1), y, 2), z) = Sel(m, z)",
    "Sel(Upd(m, x, y), x) = y",
    "Sel(Upd(m, y, 0), x) = Sel(m, x)",
    "Sel(Upd(m, x, 2), z) = Sel(m, z)",
    "Sel(Upd(Upd(m, x, 1), y, 2), x) = 1",
    "Sel(Upd(Upd(m, x, 1), y, 2), z) = 1",
    "Sel(m, z) = 1",
    "Sel(m, x) = Sel(m, z)",
];

fn map_env() -> SortEnv {
    let mut env = imp_env();
    env.bind(Symbol::new("m"), Sort::Map);
    env
}

/// `atom` or its negation (a disequality: `Pred::not` pushes through
/// atoms).
fn literal(atom: &str, positive: bool) -> Pred {
    let atom = parse_pred(atom).unwrap();
    if positive {
        atom
    } else {
        Pred::not(atom)
    }
}

fn arb_map_lit() -> impl Strategy<Value = Pred> {
    (0..MAP_ATOMS.len(), any::<bool>()).prop_map(|(i, positive)| literal(MAP_ATOMS[i], positive))
}

/// An antecedent's literals: each index atom asserted, negated or left
/// out, then up to two map literals.
fn arb_map_antecedent() -> impl Strategy<Value = Vec<Pred>> {
    (
        prop::collection::vec(0u8..3, INDEX_ATOMS.len()),
        prop::collection::vec(arb_map_lit(), 0..3),
    )
        .prop_map(|(picks, maps)| {
            INDEX_ATOMS
                .iter()
                .zip(picks)
                .filter(|&(_, pick)| pick > 0)
                .map(|(atom, pick)| literal(atom, pick == 1))
                .chain(maps)
                .collect()
        })
}

/// The box that keeps every observed value in {0, 1, 2}.
fn map_box() -> Vec<Pred> {
    IMP_VARS
        .iter()
        .map(|v| {
            parse_pred(&format!(
                "0 <= {v} && {v} <= 2 && 0 <= Sel(m, {v}) && Sel(m, {v}) <= 2"
            ))
            .unwrap()
        })
        .collect()
}

/// The value of an integer term of the pool at indices `v` (of `x`, `y`,
/// `z`) and map `m`.
fn map_int(e: &Expr, v: &[i64; 3], m: &[i64; 3]) -> i64 {
    match e {
        Expr::Int(n) => *n,
        Expr::Var(s) => v[IMP_VARS.iter().position(|n| s.as_str() == *n).unwrap()],
        Expr::Sel(map, i) => map_value(map, v, m)[map_int(i, v, m) as usize],
        _ => unreachable!("`{e}` is not an integer term of the pool"),
    }
}

/// The map a map term of the pool denotes: `m` with the term's updates
/// written into it, innermost first.
fn map_value(e: &Expr, v: &[i64; 3], m: &[i64; 3]) -> [i64; 3] {
    match e {
        Expr::Var(_) => *m,
        Expr::Upd(map, i, x) => {
            let mut out = map_value(map, v, m);
            out[map_int(i, v, m) as usize] = map_int(x, v, m);
            out
        }
        _ => unreachable!("`{e}` is not a map term of the pool"),
    }
}

fn map_holds(p: &Pred, v: &[i64; 3], m: &[i64; 3]) -> bool {
    match p {
        Pred::Atom(Rel::Eq, a, b) => map_int(a, v, m) == map_int(b, v, m),
        Pred::Atom(Rel::Ne, a, b) => map_int(a, v, m) != map_int(b, v, m),
        _ => unreachable!("`{p}` is not a literal of the pool"),
    }
}

/// Whether `literals ⇒ consequent` holds at every index assignment and
/// every map on {0, 1, 2}.
fn map_valid(literals: &[Pred], consequent: &Pred) -> bool {
    let point = |n: usize| [(n % 3) as i64, (n / 3 % 3) as i64, (n / 9) as i64];
    (0..27).all(|vi| {
        (0..27).all(|mi| {
            let (v, m) = (point(vi), point(mi));
            !literals.iter().all(|l| map_holds(l, &v, &m)) || map_holds(consequent, &v, &m)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// A batch and a scalar query per consequent decide boxed
    /// implications over map reads as brute force with true
    /// read-over-write semantics does. The oracle shares no code with
    /// the solver's array-axiom instantiation, so a session that drops
    /// hit instances, miss instances or the instances of an inner update
    /// answers Invalid where brute force finds no countermodel.
    #[test]
    fn map_reads_match_brute_force(
        literals in arb_map_antecedent(),
        consequents in prop::collection::vec(arb_map_lit(), 1..4),
    ) {
        let env = map_env();
        let antecedent = Pred::and(literals.iter().cloned().chain(map_box()).collect());
        let batch = SmtSolver::new().check_valid_many(&env, &antecedent, &consequents);
        for (c, got) in consequents.iter().zip(&batch) {
            let want = if map_valid(&literals, c) {
                Validity::Valid
            } else {
                Validity::Invalid
            };
            prop_assert_eq!(got, &want, "batch on `{} => {}`", antecedent, c);
            let scalar = SmtSolver::new().check_valid(&env, &antecedent, c);
            prop_assert_eq!(&scalar, &want, "scalar on `{} => {}`", antecedent, c);
        }
    }
}
