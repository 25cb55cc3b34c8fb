//! Differential-fleet integration tests: determinism, oracle ground
//! truth, a small soundness smoke, and minimizer behaviour (including
//! the "injected disagreement shrinks to ≤ 30 lines" acceptance check).
//!
//! `--features slow-proptest` unlocks a deep fixed-seed soak.

use dsolve::fleet::{
    check_verdicts, disagreement_judge, fleet_budget, minimize, run_fleet, run_program,
    CaseSources, Disagreement, FleetOptions, FleetVerdict, Matrix,
};
use dsolve_liquid::SolveConfig;
use dsolve_nanoml::genprog::{first_assert_failure, generate, Expectation};

/// Injected-fault entries panic by design; keep test output readable.
fn hush_panics() {
    let _ = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
}

/// Debug builds solve ~5-10× slower; keep tier-1 wall clock in check
/// (release runs and the `slow-proptest` soak cover the larger counts).
const SMOKE_COUNT: u64 = if cfg!(debug_assertions) { 3 } else { 8 };
const JUDGE_CALLS: usize = if cfg!(debug_assertions) { 40 } else { 120 };

#[test]
fn generation_is_pure_in_the_seed() {
    for i in 0..40 {
        let a = generate(7, i);
        let b = generate(7, i);
        assert_eq!(a.source, b.source, "program {i} differs between calls");
        assert_eq!(a.mlq, b.mlq);
        assert_eq!(a.quals, b.quals);
        assert_eq!(a.expectation, b.expectation);
    }
}

#[test]
fn expectations_are_ground_truth() {
    // The interpreter re-confirms every generated expectation: this is
    // the invariant that makes a SAFE verdict on a violation-seeded
    // program a soundness bug rather than generator noise.
    for i in 0..40 {
        let p = generate(99, i);
        let failure = first_assert_failure(&p.source).expect("generated programs evaluate");
        match p.expectation {
            Expectation::Safe => assert_eq!(failure, None, "{}: unexpected failure", p.name),
            Expectation::Violating { line } => {
                assert_eq!(failure, Some(line), "{}: wrong failure line", p.name);
            }
        }
    }
}

#[test]
fn fleet_run_is_deterministic() {
    hush_panics();
    let opts = FleetOptions {
        matrix: Matrix::Quick,
        ..FleetOptions::new(3, SMOKE_COUNT)
    };
    let a = run_fleet(&opts);
    let b = run_fleet(&opts);
    assert_eq!(a.digest, b.digest, "same seed must give same verdicts");
    assert_eq!(a.disagreements.len(), b.disagreements.len());
}

#[test]
fn small_fleet_has_no_disagreements() {
    hush_panics();
    let opts = FleetOptions {
        matrix: Matrix::Quick,
        ..FleetOptions::new(42, SMOKE_COUNT)
    };
    let summary = run_fleet(&opts);
    let msgs: Vec<String> = summary
        .disagreements
        .iter()
        .map(|(n, d)| format!("{n}: {d}"))
        .collect();
    assert!(msgs.is_empty(), "fleet disagreements: {msgs:?}");
}

#[cfg(feature = "slow-proptest")]
#[test]
fn deep_fleet_has_no_disagreements() {
    hush_panics();
    let opts = FleetOptions {
        matrix: Matrix::Full,
        ..FleetOptions::new(42, 500)
    };
    let summary = run_fleet(&opts);
    let msgs: Vec<String> = summary
        .disagreements
        .iter()
        .map(|(n, d)| format!("{n}: {d}"))
        .collect();
    assert!(msgs.is_empty(), "fleet disagreements: {msgs:?}");
}

#[test]
fn lattice_rejects_flips_and_tolerates_unknowns() {
    let verdicts = vec![
        ("a".to_string(), FleetVerdict::Safe),
        ("b".to_string(), FleetVerdict::Unknown),
        ("c".to_string(), FleetVerdict::Safe),
    ];
    assert!(check_verdicts(Expectation::Safe, &verdicts).is_none());

    let flipped = vec![
        ("a".to_string(), FleetVerdict::Safe),
        ("b".to_string(), FleetVerdict::Unsafe),
    ];
    assert!(matches!(
        check_verdicts(Expectation::Safe, &flipped),
        Some(Disagreement::MatrixFlip { .. })
    ));
}

/// The acceptance check: a deliberately broken config (one that reports
/// SAFE on a violation-seeded program) is minimized to a reproducer of
/// at most 30 source lines.
#[test]
fn injected_disagreement_is_minimized_to_a_small_reproducer() {
    // Find a violation-seeded generated program.
    let p = (0..50)
        .map(|i| generate(42, i))
        .find(|p| matches!(p.expectation, Expectation::Violating { .. }))
        .expect("seed 42 generates violating programs");

    // A "broken always-SAFE verifier": the judge reproduces the
    // disagreement iff the interpreter still concretely fails an
    // assertion (the broken config would still claim SAFE for any
    // program, so only ground truth constrains the shrink).
    let mut judge = |s: &CaseSources| matches!(first_assert_failure(&s.source), Ok(Some(_)));
    let min = minimize(CaseSources::of(&p), &mut judge, 600);

    assert!(
        matches!(first_assert_failure(&min.source), Ok(Some(_))),
        "minimized program must still fail concretely"
    );
    assert!(
        min.source_lines() <= 30,
        "reproducer has {} lines (> 30):\n{}",
        min.source_lines(),
        min.source
    );
    // The shrink should do real work: the checks need at most a couple
    // of library functions, so most of the program drops away.
    assert!(
        min.source_lines() < p.source.lines().count(),
        "minimizer made no progress"
    );
}

/// Same shape but with the real pipeline in the judge: reproduce a
/// definite verdict from the actual solver while shrinking.
#[test]
fn minimizer_with_real_solver_judge() {
    let p = (0..50)
        .map(|i| generate(42, i))
        .find(|p| matches!(p.expectation, Expectation::Violating { .. }))
        .expect("seed 42 generates violating programs");

    // Reproduce "the sequential config reports a definite non-SAFE
    // verdict on a concretely-failing program".
    let mut judge = |s: &CaseSources| {
        if !matches!(first_assert_failure(&s.source), Ok(Some(_))) {
            return false;
        }
        let mut config = SolveConfig {
            budget: fleet_budget(),
            jobs: 1,
            ..SolveConfig::default()
        };
        config.smt.cache = true;
        match run_program("minimize", &s.source, &s.mlq, &s.quals, config) {
            Ok(res) => !res.is_safe(),
            Err(_) => false,
        }
    };
    let min = minimize(CaseSources::of(&p), &mut judge, JUDGE_CALLS);
    assert!(min.source_lines() <= 30);
    assert!(matches!(first_assert_failure(&min.source), Ok(Some(_))));
}

#[test]
fn disagreement_judge_reproduces_soundness_bugs() {
    // Regression for the constructor-template soundness bug the fleet
    // found (ungrounded fresh κ on constructions): this program was
    // verified SAFE before the fix. The judge must report "not
    // reproduced" now.
    let source = "let zs = [9; 9; 9]\n\
                  let rec append xs ys = match xs with | [] -> ys | x :: rest -> x :: append rest ys\n\
                  let rec rev xs = match xs with | [] -> [] | x :: rest -> append (rev rest) [x]\n\
                  let rec memb x xs = match xs with | [] -> false | y :: ys -> if x = y then true else memb x ys\n\
                  let check0 = assert (memb 0 (rev (append [] [1; 1; 0; 1])) = false)";
    let mlq = "measure llen : 'a list -> int =\n| Nil -> 0\n| Cons (x, xs) -> 1 + llen(xs)\n";
    let quals = "qualif LenEq : llen(VV) = llen(_)\n";
    let sources = CaseSources {
        source: source.to_string(),
        mlq: mlq.to_string(),
        quals: quals.to_string(),
    };
    let d = Disagreement::Soundness {
        configs: vec!["seq".to_string()],
    };
    let mut judge = disagreement_judge(d, Matrix::Soundness, fleet_budget());
    assert!(
        !judge(&sources),
        "soundness bug reproduced: constructor templates are ungrounded again"
    );
}
