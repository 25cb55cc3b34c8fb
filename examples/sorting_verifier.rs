//! Recursive refinements (§4): sortedness of insertion sort, positive
//! and negative, plus a differential check between the verifier's
//! verdict and actual runtime behaviour on random inputs.
//!
//! ```text
//! cargo run --release --example sorting_verifier
//! ```

use dsolve_suite::dsolve::Job;
use dsolve_suite::logic::Symbol;
use dsolve_suite::nanoml::{
    builtin_env, parse_program, resolve_program, DataEnv, Evaluator, Value,
};

const GOOD: &str = r#"
let rec insert x vs =
  match vs with
  | [] -> [x]
  | y :: ys -> if x < y then x :: y :: ys else y :: insert x ys

let rec insertsort xs =
  match xs with
  | [] -> []
  | x :: rest -> insert x (insertsort rest)
"#;

const MLQ: &str = r#"
measure elts : 'a list -> set =
| Nil -> empty
| Cons (x, xs) -> union(single(x), elts(xs))

rho Sorted on list =
| Cons (h, t) -> t : [ Cons (h2, t2) -> h2 : { h <= VV } ]

val insertsort : xs : 'a list -> {VV : 'a list @Sorted | elts(VV) = elts(xs)}
"#;

const QUALS: &str = r#"
qualif Ub : _ <= VV
qualif EltsEq : elts(VV) = elts(_)
qualif EltsCons : elts(VV) = union(single(_), elts(_))
"#;

fn main() {
    // The correct sort verifies...
    let good = Job::from_sources("insertsort", GOOD, MLQ, QUALS)
        .run()
        .expect("front end");
    assert!(
        good.is_safe(),
        "{:?}",
        good.result
            .errors
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    println!("verified: insertsort returns a sorted permutation of its input");
    if let Some(s) = good.result.inferred.get(&Symbol::new("insert")) {
        println!("  inferred insert :: {s}");
    }

    // ...and the classic flipped-comparison bug is caught.
    let buggy_src = GOOD.replace("if x < y", "if x > y");
    let buggy = Job::from_sources("buggy", &buggy_src, MLQ, QUALS)
        .run()
        .expect("front end");
    assert!(!buggy.is_safe());
    println!(
        "rejected the flipped-comparison bug: {}",
        buggy.result.errors[0]
    );

    // Differential: run the verified sort on pseudo-random inputs and
    // check the runtime results agree with the verdict.
    let prog = parse_program(GOOD).unwrap();
    let mut data = DataEnv::with_builtins();
    data.add_program(&prog.datatypes).unwrap();
    let prog = resolve_program(&prog, &data).unwrap();
    let env = Evaluator::new()
        .eval_program(&prog, &builtin_env())
        .unwrap();
    let sortf = env[&Symbol::new("insertsort")].clone();

    let mut seed = 0x9e3779b97f4a7c15u64;
    for case in 0..50 {
        let len = (case % 17) as usize;
        let mut input = Vec::new();
        for _ in 0..len {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            input.push(Value::Int((seed % 1000) as i64 - 500));
        }
        let mut ev = Evaluator::new();
        let out = ev.apply(sortf.clone(), Value::list(input.clone())).unwrap();
        let got: Vec<i64> = out
            .as_list()
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        let mut want: Vec<i64> = input.iter().map(|v| v.as_int().unwrap()).collect();
        want.sort_unstable();
        assert_eq!(got, want, "case {case}");
    }
    println!("differential check: 50 random inputs sorted correctly at runtime");
}
