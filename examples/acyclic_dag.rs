//! Recursive + polymorphic refinements together (§2.2, Fig. 4): building
//! a directed graph whose edges always point to strictly larger node
//! ids — hence acyclic — checked both statically (the `DAG` map type of
//! eq. (3)) and dynamically (a runtime scan over the built graph).
//!
//! ```text
//! cargo run --release --example acyclic_dag
//! ```

use dsolve_suite::dsolve::Job;
use dsolve_suite::logic::Symbol;
use dsolve_suite::nanoml::{
    builtin_env, parse_program, resolve_program, DataEnv, Evaluator, Value,
};

const SRC: &str = r#"
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

let g0 = set (new 17) 0 []
let built = build_dag 50 1 g0
"#;

const MLQ: &str = r#"
val build_dag : k : int -> n : int
  -> g : (int, {VV : int list elems { KEY < VV }}) map
  -> (int * (int, {VV : int list elems { KEY < VV }}) map)
"#;

const QUALS: &str = r#"
qualif Succ : KEY < VV
qualif UbN : VV < _
"#;

fn main() {
    // Static: each node's successors exceed it, so no cycles (eq. (3)).
    let res = Job::from_sources("acyclic_dag", SRC, MLQ, QUALS)
        .run()
        .expect("front end");
    assert!(
        res.is_safe(),
        "{:?}",
        res.result
            .errors
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
    );
    println!("verified: build_dag maintains the DAG invariant of §2.2 (3)");

    // Dynamic: run it and double-check every edge points forward.
    let prog = parse_program(SRC).unwrap();
    let mut data = DataEnv::with_builtins();
    data.add_program(&prog.datatypes).unwrap();
    let prog = resolve_program(&prog, &data).unwrap();
    let env = Evaluator::new()
        .eval_program(&prog, &builtin_env())
        .unwrap();
    let Value::Tuple(parts) = env[&Symbol::new("built")].clone() else {
        panic!("expected an (n, g) pair")
    };
    let n = parts[0].as_int().unwrap();
    let Value::Map(g) = &parts[1] else {
        panic!("expected a map")
    };
    let mut edges = 0usize;
    for (k, v) in g.iter() {
        let key = k.as_int().unwrap();
        for succ in v.as_list().unwrap() {
            let s = succ.as_int().unwrap();
            assert!(s > key, "edge {key} -> {s} would break acyclicity");
            edges += 1;
        }
    }
    println!("ran build_dag: {n} nodes, {edges} edges, all forward - acyclic");
}
