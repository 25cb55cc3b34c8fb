//! Property tests for the NanoML front end and interpreter:
//! arithmetic agrees with Rust, sorting programs really sort, and
//! inference is stable across runs.

use dsolve_logic::Symbol;
use dsolve_nanoml::{
    builtin_env, infer_program, parse_program, resolve_program, DataEnv, Evaluator, TypeEnv, Value,
};
use proptest::prelude::*;

/// A random arithmetic expression over two fixed variables, rendered as
/// both NanoML source and a Rust closure.
#[derive(Clone, Debug)]
enum Arith {
    A,
    B,
    Lit(i8),
    Add(Box<Arith>, Box<Arith>),
    Sub(Box<Arith>, Box<Arith>),
    Mul(Box<Arith>, Box<Arith>),
}

impl Arith {
    fn source(&self) -> String {
        match self {
            Arith::A => "a".into(),
            Arith::B => "b".into(),
            Arith::Lit(v) => {
                if *v < 0 {
                    format!("(0 - {})", -(*v as i64))
                } else {
                    v.to_string()
                }
            }
            Arith::Add(x, y) => format!("({} + {})", x.source(), y.source()),
            Arith::Sub(x, y) => format!("({} - {})", x.source(), y.source()),
            Arith::Mul(x, y) => format!("({} * {})", x.source(), y.source()),
        }
    }

    fn eval(&self, a: i64, b: i64) -> i64 {
        match self {
            Arith::A => a,
            Arith::B => b,
            Arith::Lit(v) => *v as i64,
            Arith::Add(x, y) => x.eval(a, b).wrapping_add(y.eval(a, b)),
            Arith::Sub(x, y) => x.eval(a, b).wrapping_sub(y.eval(a, b)),
            Arith::Mul(x, y) => x.eval(a, b).wrapping_mul(y.eval(a, b)),
        }
    }
}

fn arb_arith() -> impl Strategy<Value = Arith> {
    let leaf = prop_oneof![
        Just(Arith::A),
        Just(Arith::B),
        any::<i8>().prop_map(Arith::Lit),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Arith::Add(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Arith::Sub(Box::new(x), Box::new(y))),
            (inner.clone(), inner).prop_map(|(x, y)| Arith::Mul(Box::new(x), Box::new(y))),
        ]
    })
}

fn run_program(src: &str, name: &str) -> Value {
    let prog = parse_program(src).unwrap();
    let mut data = DataEnv::with_builtins();
    data.add_program(&prog.datatypes).unwrap();
    let prog = resolve_program(&prog, &data).unwrap();
    let env = Evaluator::new()
        .eval_program(&prog, &builtin_env())
        .unwrap();
    env[&Symbol::new(name)].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The interpreter's arithmetic agrees with Rust's.
    #[test]
    fn arithmetic_matches_rust(e in arb_arith(), a in -50i64..50, b in -50i64..50) {
        let src = format!("let f a b = {}\nlet result = f ({}) ({})",
            e.source(),
            if a < 0 { format!("0 - {}", -a) } else { a.to_string() },
            if b < 0 { format!("0 - {}", -b) } else { b.to_string() });
        let got = run_program(&src, "result");
        prop_assert_eq!(got, Value::Int(e.eval(a, b)));
    }

    /// Insertion sort in NanoML sorts, for arbitrary inputs.
    #[test]
    fn insertsort_sorts(xs in prop::collection::vec(-100i64..100, 0..24)) {
        let items = xs
            .iter()
            .map(|v| if *v < 0 { format!("0 - {}", -v) } else { v.to_string() })
            .collect::<Vec<_>>()
            .join("; ");
        let src = format!(
            r#"
let rec insert x vs =
  match vs with
  | [] -> [x]
  | y :: ys -> if x < y then x :: y :: ys else y :: insert x ys
let rec insertsort l =
  match l with
  | [] -> []
  | x :: rest -> insert x (insertsort rest)
let result = insertsort [{items}]
"#
        );
        let got: Vec<i64> = run_program(&src, "result")
            .as_list()
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        let mut want = xs.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Type inference is deterministic: two runs give the same scheme.
    #[test]
    fn inference_is_deterministic(n in 0usize..5) {
        let src = format!(
            "let rec iter k f x = if k <= {n} then x else iter (k - 1) f (f x)"
        );
        let parse = || {
            let prog = parse_program(&src).unwrap();
            let mut data = DataEnv::with_builtins();
            data.add_program(&prog.datatypes).unwrap();
            let prog = resolve_program(&prog, &data).unwrap();
            infer_program(&prog, &data, &TypeEnv::new()).unwrap()
        };
        let a = parse();
        let b = parse();
        prop_assert_eq!(
            a.lets[0].binds[0].scheme.ty.to_string(),
            b.lets[0].binds[0].scheme.ty.to_string()
        );
    }

    /// Comparison chains evaluate consistently with Rust.
    #[test]
    fn comparisons_match_rust(a in -20i64..20, b in -20i64..20) {
        let fmt = |v: i64| if v < 0 { format!("(0 - {})", -v) } else { v.to_string() };
        let src = format!(
            "let result = if {a} < {b} then 1 else if {a} = {b} then 0 else 0 - 1",
            a = fmt(a),
            b = fmt(b)
        );
        let want = match a.cmp(&b) {
            std::cmp::Ordering::Less => 1,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => -1,
        };
        prop_assert_eq!(run_program(&src, "result"), Value::Int(want));
    }
}
