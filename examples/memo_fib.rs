//! Polymorphic refinements (§2.2, Fig. 3): the memoized fibonacci.
//!
//! The memo table's polymorphic refinement is instantiated so that every
//! key `i` maps to a value `≥ 1` and `≥ i − 1`; the verifier concludes
//! `fib i ≥ i − 1` — and the interpreter confirms memoization works.
//!
//! ```text
//! cargo run --release --example memo_fib
//! ```

use dsolve_suite::dsolve::Job;
use dsolve_suite::logic::Symbol;
use dsolve_suite::nanoml::{
    builtin_env, parse_program, resolve_program, DataEnv, Evaluator, Value,
};

const SRC: &str = r#"
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

let result = fib 40
"#;

const MLQ: &str = r#"
val fib : i : int -> {VV : int | (1 <= VV) && (i - 1 <= VV)}
"#;

const QUALS: &str = r#"
qualif One : 1 <= VV
qualif Fib : _ - 1 <= VV
"#;

fn main() {
    let job = Job::from_sources("memo_fib", SRC, MLQ, QUALS);
    let res = job.run().expect("front end");
    assert!(
        res.is_safe(),
        "{:?}",
        res.result
            .errors
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    println!(
        "verified: fib i >= 1 and fib i >= i - 1  ({} qualifiers, {:.2}s)",
        res.annotations,
        res.time.as_secs_f64()
    );

    let prog = parse_program(SRC).unwrap();
    let mut data = DataEnv::with_builtins();
    data.add_program(&prog.datatypes).unwrap();
    let prog = resolve_program(&prog, &data).unwrap();
    let env = Evaluator::new()
        .eval_program(&prog, &builtin_env())
        .unwrap();
    let v = env[&Symbol::new("result")].clone();
    println!("fib 40 = {v:?} (memoized: linear, not exponential)");
    assert_eq!(v, Value::Int(102_334_155));
}
