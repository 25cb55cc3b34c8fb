//! Quickstart: verify and run Fig. 1 of the paper.
//!
//! `harmonic` divides by every element of `range 1 n`; the verifier
//! proves every divisor is nonzero from the qualifier set
//! `Q = {0 < ν, ★ ≤ ν}`, and the interpreter then runs the program.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dsolve_suite::liquid::{verify_source, MeasureEnv};
use dsolve_suite::logic::{parse_pred, Qualifier, Symbol};
use dsolve_suite::nanoml::{
    builtin_env, parse_program, resolve_program, DataEnv, Evaluator, Value,
};

const SRC: &str = r#"
let rec range i j =
  if i > j then []
  else
    let is = range (i + 1) j in
    i :: is

let rec fold_left f acc xs =
  match xs with
  | [] -> acc
  | x :: rest -> fold_left f (f acc x) rest

let harmonic n =
  let ds = range 1 n in
  fold_left (fun s k -> s + 10000 / k) 0 ds

let result = harmonic 10
"#;

fn main() {
    // 1. Verify: division safety via liquid type inference.
    let quals = vec![
        Qualifier::new("Pos", parse_pred("0 < VV").unwrap()),
        Qualifier::new("Ub", parse_pred("_ <= VV").unwrap()),
    ];
    let outcome = verify_source(SRC, MeasureEnv::new(), quals, vec![]).expect("front end");
    assert!(
        outcome.is_safe(),
        "verification failed: {:?}",
        outcome
            .errors
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    println!("verified: every division in `harmonic` is safe");
    println!(
        "  ({} constraints, {} liquid variables, {} SMT queries)",
        outcome.num_constraints,
        outcome.stats.kvars,
        outcome.stats.worker_queries.iter().sum::<u64>()
    );
    for name in ["range", "harmonic"] {
        if let Some(s) = outcome.inferred.get(&Symbol::new(name)) {
            println!("  {name} :: {s}");
        }
    }

    // 2. Run the very same program.
    let prog = parse_program(SRC).unwrap();
    let mut data = DataEnv::with_builtins();
    data.add_program(&prog.datatypes).unwrap();
    let prog = resolve_program(&prog, &data).unwrap();
    let env = Evaluator::new()
        .eval_program(&prog, &builtin_env())
        .unwrap();
    let result = env[&Symbol::new("result")].clone();
    println!("harmonic 10 = {result:?} (scaled by 10000)");
    assert_eq!(result, Value::Int(29288));
}
