//! Workspace integration tests: the full pipeline (parser → HM →
//! constraint generation → fixpoint → SMT) on the paper's figures, plus
//! verifier/interpreter agreement.
//!
//! The heavyweight Fig. 10 benchmarks run in release mode via
//! `cargo run --release -p dsolve-bench --bin figure10`; here we keep the
//! fast ones so `cargo test --workspace` stays snappy in debug builds.

use dsolve_suite::dsolve::Job;
use dsolve_suite::logic::Symbol;
use dsolve_suite::nanoml::{
    builtin_env, parse_program, resolve_program, DataEnv, EvalError, Evaluator, Value,
};

fn run_value(src: &str, name: &str) -> Result<Value, EvalError> {
    let prog = parse_program(src).unwrap();
    let mut data = DataEnv::with_builtins();
    data.add_program(&prog.datatypes).unwrap();
    let prog = resolve_program(&prog, &data).unwrap();
    let env = Evaluator::new().eval_program(&prog, &builtin_env())?;
    Ok(env[&Symbol::new(name)].clone())
}

#[test]
fn fig1_divide_by_zero_verifies_and_runs() {
    let src = r#"
let rec range i j = if i > j then [] else i :: range (i + 1) j
let rec fold_left f acc xs =
  match xs with
  | [] -> acc
  | x :: rest -> fold_left f (f acc x) rest
let harmonic n =
  let ds = range 1 n in
  fold_left (fun s k -> s + 10000 / k) 0 ds
let result = harmonic 4
"#;
    let res = Job::from_sources("fig1", src, "", "qualif P : 0 < VV\nqualif U : _ <= VV")
        .run()
        .unwrap();
    assert!(
        res.is_safe(),
        "{:?}",
        res.result.errors.first().map(ToString::to_string)
    );
    assert_eq!(run_value(src, "result").unwrap(), Value::Int(20833));
}

#[test]
fn fig1_without_qualifiers_cannot_prove_division() {
    let src = r#"
let rec range i j = if i > j then [] else i :: range (i + 1) j
let rec fold_left f acc xs =
  match xs with
  | [] -> acc
  | x :: rest -> fold_left f (f acc x) rest
let harmonic n =
  let ds = range 1 n in
  fold_left (fun s k -> s + 10000 / k) 0 ds
"#;
    let res = Job::from_sources("fig1-noquals", src, "", "")
        .run()
        .unwrap();
    assert!(!res.is_safe(), "division must be unprovable without Q");
}

#[test]
fn fig2_insertion_sort_sorted_via_mlq() {
    let src = r#"
let rec insert x vs =
  match vs with
  | [] -> [x]
  | y :: ys -> if x < y then x :: y :: ys else y :: insert x ys
let rec insertsort xs =
  match xs with
  | [] -> []
  | x :: rest -> insert x (insertsort rest)
"#;
    let mlq = r#"
rho Sorted on list =
| Cons (h, t) -> t : [ Cons (h2, t2) -> h2 : { h <= VV } ]
val insertsort : xs : 'a list -> {VV : 'a list @Sorted}
"#;
    let res = Job::from_sources("fig2", src, mlq, "qualif Ub : _ <= VV")
        .run()
        .unwrap();
    assert!(
        res.is_safe(),
        "{:?}",
        res.result.errors.first().map(ToString::to_string)
    );
}

#[test]
fn fig3_memo_fib_verifies_and_runs() {
    let src = r#"
let fib i =
  let rec f t0 n =
    if mem t0 n then (t0, get t0 n)
    else if n <= 2 then (t0, 1)
    else
      let (t1, r1) = f t0 (n - 1) in
      let (t2, r2) = f t1 (n - 2) in
      let r = r1 + r2 in
      (set t2 n r, r)
  in
  let (tfin, r) = f (new 17) i in
  r
let result = fib 25
"#;
    let mlq = "val fib : i : int -> {VV : int | (1 <= VV) && (i - 1 <= VV)}";
    let res = Job::from_sources(
        "fig3",
        src,
        mlq,
        "qualif A : 1 <= VV\nqualif B : _ - 1 <= VV",
    )
    .run()
    .unwrap();
    assert!(
        res.is_safe(),
        "{:?}",
        res.result.errors.first().map(ToString::to_string)
    );
    assert_eq!(run_value(src, "result").unwrap(), Value::Int(75025));
}

#[test]
fn fig4_build_dag_acyclic() {
    let src = r#"
let rec build_dag k n g =
  if k <= 0 then (n, g)
  else
    let node = random 0 in
    if node < 0 then (n, g)
    else if node >= n then (n, g)
    else
      let succs = get g node in
      let g2 = set g node ((n + 1) :: succs) in
      build_dag (k - 1) (n + 1) g2
"#;
    let mlq = r#"
val build_dag : k : int -> n : int
  -> g : (int, {VV : int list elems { KEY < VV }}) map
  -> (int * (int, {VV : int list elems { KEY < VV }}) map)
"#;
    let res = Job::from_sources("fig4", src, mlq, "qualif S : KEY < VV\nqualif U : VV < _")
        .run()
        .unwrap();
    assert!(
        res.is_safe(),
        "{:?}",
        res.result.errors.first().map(ToString::to_string)
    );
}

#[test]
fn verifier_and_interpreter_agree_on_asserts() {
    // A program whose assert genuinely fails at runtime must be UNSAFE,
    // and one that holds must be SAFE — differential soundness check.
    let bad = "let f x = assert (x * x > x); x\nlet use = f 1\n";
    let res = Job::from_sources("bad", bad, "", "").run().unwrap();
    assert!(!res.is_safe());
    let bad_run = run_value(bad, "use");
    assert!(matches!(bad_run, Err(EvalError::AssertFailed(_))));

    let good = "let f x = assert (x + 1 > x); x\nlet use = f 1\n";
    let res = Job::from_sources("good", good, "", "").run().unwrap();
    assert!(
        res.is_safe(),
        "{:?}",
        res.result.errors.first().map(ToString::to_string)
    );
    assert_eq!(run_value(good, "use").unwrap(), Value::Int(1));
}

#[test]
fn measures_detect_unreachable_branches() {
    // The paper's §4.2 example: after consing, the Nil arm is dead, so
    // `assert false` inside it verifies.
    let src = r#"
let check a =
  let b = 1 :: a in
  match b with
  | x :: xs -> ()
  | [] -> assert false
"#;
    // As in the paper, the contradiction comes from the set theory:
    // elts b = empty clashes with elts b = union(single 1, elts a).
    let mlq = r#"
measure elts : 'a list -> set =
| Nil -> empty
| Cons (x, xs) -> union(single(x), elts(xs))
"#;
    let res = Job::from_sources("dead", src, mlq, "").run().unwrap();
    assert!(
        res.is_safe(),
        "{:?}",
        res.result.errors.first().map(ToString::to_string)
    );
}

#[test]
fn cross_crate_reexports_compose() {
    // The umbrella crate exposes every layer.
    use dsolve_suite::logic::parse_pred;
    use dsolve_suite::smt::SmtSolver;
    let mut env = dsolve_suite::logic::SortEnv::new();
    env.bind(Symbol::new("x"), dsolve_suite::logic::Sort::Int);
    let mut smt = SmtSolver::new();
    assert!(smt.is_valid(
        &env,
        &parse_pred("x > 1").unwrap(),
        &parse_pred("x > 0").unwrap()
    ));
}
