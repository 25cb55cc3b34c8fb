//! A big-step interpreter for NanoML.
//!
//! Implements the paper's call-by-value dynamic semantics (with implicit
//! fold/unfold). Used by the examples to *run* the verified programs, and
//! by the test suite for differential checks (e.g. the verified sorts
//! really sort).

use crate::ast::{Expr, Pattern, PrimOp};
use dsolve_logic::Symbol;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;

/// A runtime value.
#[derive(Clone)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Unit.
    Unit,
    /// Tuple.
    Tuple(Vec<Value>),
    /// Constructed datatype value.
    Data(Symbol, Vec<Value>),
    /// A closure.
    Closure(Rc<Closure>),
    /// A native (built-in) function, possibly partially applied.
    Native(Rc<Native>, Vec<Value>),
    /// A persistent finite map (the §5 primitive).
    Map(Rc<BTreeMap<Value, Value>>),
}

/// A user-defined closure.
pub struct Closure {
    /// Parameter name.
    pub param: Symbol,
    /// Body expression.
    pub body: Expr,
    /// Captured environment.
    pub env: Env,
    /// Recursive group this closure belongs to (re-bound at call time).
    pub recs: Vec<(Symbol, Rc<RefCell<Option<Value>>>)>,
}

/// A native built-in.
pub struct Native {
    /// Display name.
    pub name: &'static str,
    /// Number of arguments before the function fires.
    pub arity: usize,
    /// Implementation.
    #[allow(clippy::type_complexity)]
    pub f: Box<dyn Fn(&[Value]) -> Result<Value, EvalError>>,
}

/// The runtime environment.
pub type Env = HashMap<Symbol, Value>;

/// A runtime error (the "stuck" states the type system rules out, plus
/// assertion failures which refinement typing is meant to prevent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// `assert` saw `false` (with the source line).
    AssertFailed(u32),
    /// Division or modulus by zero.
    DivByZero,
    /// An unbound variable was referenced.
    Unbound(Symbol),
    /// A non-function was applied, a non-bool tested, etc.
    Stuck(String),
    /// Explicit nontermination marker (`diverge ()` in specs).
    Diverged,
    /// Evaluation step budget exhausted.
    OutOfFuel,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::AssertFailed(line) => write!(f, "assertion failed on line {line}"),
            EvalError::DivByZero => write!(f, "division by zero"),
            EvalError::Unbound(x) => write!(f, "unbound variable `{x}` at runtime"),
            EvalError::Stuck(m) => write!(f, "stuck: {m}"),
            EvalError::Diverged => write!(f, "diverged"),
            EvalError::OutOfFuel => write!(f, "evaluation fuel exhausted"),
        }
    }
}

impl std::error::Error for EvalError {}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Unit => write!(f, "()"),
            Value::Tuple(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v:?}")?;
                }
                write!(f, ")")
            }
            Value::Data(c, args) if *c == Symbol::new("Cons") || *c == Symbol::new("Nil") => {
                // Pretty-print lists.
                write!(f, "[")?;
                let mut cur = self.clone();
                let mut first = true;
                loop {
                    match cur {
                        Value::Data(c, args) if c == Symbol::new("Cons") => {
                            if !first {
                                write!(f, "; ")?;
                            }
                            first = false;
                            write!(f, "{:?}", args[0])?;
                            cur = args[1].clone();
                        }
                        _ => break,
                    }
                }
                write!(f, "]")?;
                let _ = args;
                Ok(())
            }
            Value::Data(c, args) => {
                write!(f, "{c}")?;
                if !args.is_empty() {
                    write!(f, "(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a:?}")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
            Value::Closure(_) => write!(f, "<fun>"),
            Value::Native(n, _) => write!(f, "<native {}>", n.name),
            Value::Map(m) => write!(f, "<map of {} entries>", m.len()),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.try_cmp(other) == Some(Ordering::Equal)
    }
}

impl Value {
    /// Structural comparison over first-order values (`None` for
    /// functions, which OCaml would also reject at runtime).
    pub fn try_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Unit, Value::Unit) => Some(Ordering::Equal),
            (Value::Tuple(xs), Value::Tuple(ys)) if xs.len() == ys.len() => {
                for (x, y) in xs.iter().zip(ys) {
                    match x.try_cmp(y)? {
                        Ordering::Equal => {}
                        o => return Some(o),
                    }
                }
                Some(Ordering::Equal)
            }
            (Value::Data(c1, xs), Value::Data(c2, ys)) => {
                if c1 != c2 {
                    return Some(c1.as_str().cmp(c2.as_str()));
                }
                for (x, y) in xs.iter().zip(ys) {
                    match x.try_cmp(y)? {
                        Ordering::Equal => {}
                        o => return Some(o),
                    }
                }
                Some(xs.len().cmp(&ys.len()))
            }
            (Value::Map(a), Value::Map(b)) => {
                if Rc::ptr_eq(a, b) {
                    Some(Ordering::Equal)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// Builds a NanoML list value from a Rust iterator of values.
    pub fn list(items: impl IntoIterator<Item = Value>) -> Value {
        let items: Vec<Value> = items.into_iter().collect();
        let mut acc = Value::Data(Symbol::new("Nil"), vec![]);
        for v in items.into_iter().rev() {
            acc = Value::Data(Symbol::new("Cons"), vec![v, acc]);
        }
        acc
    }

    /// Converts a NanoML list value back into a vector.
    pub fn as_list(&self) -> Option<Vec<Value>> {
        let mut out = Vec::new();
        let mut cur = self.clone();
        loop {
            match cur {
                Value::Data(c, args) if c == Symbol::new("Cons") => {
                    out.push(args[0].clone());
                    cur = args[1].clone();
                }
                Value::Data(c, _) if c == Symbol::new("Nil") => return Some(out),
                _ => return None,
            }
        }
    }

    /// Extracts an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }
}

impl Eq for Value {}

// Intentionally weaker than `Ord`: higher-order values compare as `None`
// here but panic in `cmp`, which map keys rely on.
#[allow(clippy::non_canonical_partial_ord_impl)]
impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Value) -> Option<Ordering> {
        self.try_cmp(other)
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Value) -> Ordering {
        self.try_cmp(other)
            .expect("map keys must be first-order values")
    }
}

/// The evaluator, with a fuel budget to keep tests terminating.
pub struct Evaluator {
    fuel: u64,
}

impl Default for Evaluator {
    fn default() -> Evaluator {
        Evaluator::new()
    }
}

impl Evaluator {
    /// Creates an evaluator with a generous default budget.
    pub fn new() -> Evaluator {
        Evaluator { fuel: 50_000_000 }
    }

    /// Creates an evaluator with an explicit step budget.
    pub fn with_fuel(fuel: u64) -> Evaluator {
        Evaluator { fuel }
    }

    /// Evaluates an expression.
    pub fn eval(&mut self, env: &Env, e: &Expr) -> Result<Value, EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::OutOfFuel);
        }
        self.fuel -= 1;
        match e {
            Expr::Var(x) => env.get(x).cloned().ok_or(EvalError::Unbound(*x)),
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Unit => Ok(Value::Unit),
            Expr::Prim(op, a, b) => {
                // Short-circuit booleans first.
                if matches!(op, PrimOp::And | PrimOp::Or) {
                    let va = self.eval(env, a)?;
                    let Value::Bool(ba) = va else {
                        return Err(EvalError::Stuck("non-bool in &&/||".into()));
                    };
                    return match (op, ba) {
                        (PrimOp::And, false) => Ok(Value::Bool(false)),
                        (PrimOp::Or, true) => Ok(Value::Bool(true)),
                        _ => self.eval(env, b),
                    };
                }
                let va = self.eval(env, a)?;
                let vb = self.eval(env, b)?;
                self.prim(*op, va, vb)
            }
            Expr::Neg(a) => match self.eval(env, a)? {
                Value::Int(v) => Ok(Value::Int(-v)),
                _ => Err(EvalError::Stuck("negation of non-int".into())),
            },
            Expr::Not(a) => match self.eval(env, a)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                _ => Err(EvalError::Stuck("`not` of non-bool".into())),
            },
            Expr::Lam(x, body) => Ok(Value::Closure(Rc::new(Closure {
                param: *x,
                body: (**body).clone(),
                env: env.clone(),
                recs: vec![],
            }))),
            Expr::App(f, a) => {
                let vf = self.eval(env, f)?;
                let va = self.eval(env, a)?;
                self.apply(vf, va)
            }
            Expr::Let(x, rhs, body) => {
                let v = self.eval(env, rhs)?;
                let mut env2 = env.clone();
                env2.insert(*x, v);
                self.eval(&env2, body)
            }
            Expr::LetRec(x, rhs, body) => {
                let env2 = self.bind_rec_group(env, &[(*x, (**rhs).clone())])?;
                self.eval(&env2, body)
            }
            Expr::LetTuple(binders, rhs, body) => {
                let v = self.eval(env, rhs)?;
                let Value::Tuple(vs) = v else {
                    return Err(EvalError::Stuck("tuple binding of non-tuple".into()));
                };
                if vs.len() != binders.len() {
                    return Err(EvalError::Stuck("tuple arity mismatch".into()));
                }
                let mut env2 = env.clone();
                for (b, v) in binders.iter().zip(vs) {
                    if let Some(name) = b {
                        env2.insert(*name, v);
                    }
                }
                self.eval(&env2, body)
            }
            Expr::If(c, t, f) => match self.eval(env, c)? {
                Value::Bool(true) => self.eval(env, t),
                Value::Bool(false) => self.eval(env, f),
                _ => Err(EvalError::Stuck("if on non-bool".into())),
            },
            Expr::Tuple(es) => {
                let vs: Vec<Value> = es
                    .iter()
                    .map(|e| self.eval(env, e))
                    .collect::<Result<_, _>>()?;
                Ok(Value::Tuple(vs))
            }
            Expr::Ctor(name, args) => {
                let vs: Vec<Value> = args
                    .iter()
                    .map(|e| self.eval(env, e))
                    .collect::<Result<_, _>>()?;
                Ok(Value::Data(*name, vs))
            }
            Expr::Match(scrut, arms) => {
                let v = self.eval(env, scrut)?;
                let Value::Data(tag, fields) = &v else {
                    return Err(EvalError::Stuck("match on non-datatype".into()));
                };
                for arm in arms {
                    if let Pattern::Ctor { name, binders } = &arm.pattern {
                        if name == tag {
                            let mut env2 = env.clone();
                            for (b, f) in binders.iter().zip(fields) {
                                if let Some(n) = b {
                                    env2.insert(*n, f.clone());
                                }
                            }
                            return self.eval(&env2, &arm.body);
                        }
                    }
                }
                Err(EvalError::Stuck(format!("no arm for constructor `{tag}`")))
            }
            Expr::Assert(a, line) => match self.eval(env, a)? {
                Value::Bool(true) => Ok(Value::Unit),
                Value::Bool(false) => Err(EvalError::AssertFailed(*line)),
                _ => Err(EvalError::Stuck("assert on non-bool".into())),
            },
        }
    }

    /// Evaluates a whole program, returning the final environment.
    pub fn eval_program(
        &mut self,
        prog: &crate::ast::Program,
        builtins: &Env,
    ) -> Result<Env, EvalError> {
        let mut env = builtins.clone();
        for tl in &prog.lets {
            if tl.recursive {
                let binds: Vec<(Symbol, Expr)> =
                    tl.binds.iter().map(|b| (b.name, b.body.clone())).collect();
                env = self.bind_rec_group(&env, &binds)?;
            } else {
                for b in &tl.binds {
                    let v = self.eval(&env, &b.body)?;
                    env.insert(b.name, v);
                }
            }
        }
        Ok(env)
    }

    fn bind_rec_group(&mut self, env: &Env, binds: &[(Symbol, Expr)]) -> Result<Env, EvalError> {
        // Tie the knot with shared slots.
        let slots: Vec<(Symbol, Rc<RefCell<Option<Value>>>)> = binds
            .iter()
            .map(|(n, _)| (*n, Rc::new(RefCell::new(None))))
            .collect();
        let mut env2 = env.clone();
        for (name, rhs) in binds {
            let Expr::Lam(param, body) = rhs else {
                return Err(EvalError::Stuck(format!(
                    "`let rec {name}` must bind a function"
                )));
            };
            let clo = Value::Closure(Rc::new(Closure {
                param: *param,
                body: (**body).clone(),
                env: env.clone(),
                recs: slots.clone(),
            }));
            env2.insert(*name, clo.clone());
        }
        for ((_, slot), (name, _)) in slots.iter().zip(binds) {
            *slot.borrow_mut() = Some(env2[name].clone());
        }
        Ok(env2)
    }

    /// Applies a function value.
    pub fn apply(&mut self, f: Value, arg: Value) -> Result<Value, EvalError> {
        match f {
            Value::Closure(clo) => {
                let mut env = clo.env.clone();
                for (name, slot) in &clo.recs {
                    if let Some(v) = slot.borrow().clone() {
                        env.insert(*name, v);
                    }
                }
                env.insert(clo.param, arg);
                self.eval(&env, &clo.body)
            }
            Value::Native(n, mut partial) => {
                partial.push(arg);
                if partial.len() == n.arity {
                    (n.f)(&partial)
                } else {
                    Ok(Value::Native(n, partial))
                }
            }
            _ => Err(EvalError::Stuck("application of non-function".into())),
        }
    }

    fn prim(&mut self, op: PrimOp, a: Value, b: Value) -> Result<Value, EvalError> {
        use PrimOp::*;
        match op {
            Add | Sub | Mul | Div | Mod => {
                let (Value::Int(x), Value::Int(y)) = (&a, &b) else {
                    return Err(EvalError::Stuck("arithmetic on non-int".into()));
                };
                let r = match op {
                    Add => x.wrapping_add(*y),
                    Sub => x.wrapping_sub(*y),
                    Mul => x.wrapping_mul(*y),
                    Div => {
                        if *y == 0 {
                            return Err(EvalError::DivByZero);
                        }
                        x / y
                    }
                    Mod => {
                        if *y == 0 {
                            return Err(EvalError::DivByZero);
                        }
                        x % y
                    }
                    _ => unreachable!(),
                };
                Ok(Value::Int(r))
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                let ord = a
                    .try_cmp(&b)
                    .ok_or_else(|| EvalError::Stuck("comparison of functions".into()))?;
                let r = match op {
                    Eq => ord == Ordering::Equal,
                    Ne => ord != Ordering::Equal,
                    Lt => ord == Ordering::Less,
                    Le => ord != Ordering::Greater,
                    Gt => ord == Ordering::Greater,
                    Ge => ord != Ordering::Less,
                    _ => unreachable!(),
                };
                Ok(Value::Bool(r))
            }
            And | Or => unreachable!("short-circuited in eval"),
        }
    }
}

/// The built-in runtime environment: the finite-map primitives of §5
/// (`new`, `set`, `get`, `mem`), plus `random` (deterministic LCG) and
/// `diverge`.
pub fn builtin_env() -> Env {
    let mut env = Env::new();
    fn native(
        name: &'static str,
        arity: usize,
        f: impl Fn(&[Value]) -> Result<Value, EvalError> + 'static,
    ) -> Value {
        Value::Native(
            Rc::new(Native {
                name,
                arity,
                f: Box::new(f),
            }),
            vec![],
        )
    }
    env.insert(
        Symbol::new("new"),
        native("new", 1, |_| Ok(Value::Map(Rc::new(BTreeMap::new())))),
    );
    env.insert(
        Symbol::new("set"),
        native("set", 3, |args| {
            let Value::Map(m) = &args[0] else {
                return Err(EvalError::Stuck("set on non-map".into()));
            };
            // Keys are first-order values; the `Rc` inside `Value` never
            // mutates through a key.
            #[allow(clippy::mutable_key_type)]
            let mut m2 = (**m).clone();
            m2.insert(args[1].clone(), args[2].clone());
            Ok(Value::Map(Rc::new(m2)))
        }),
    );
    env.insert(
        Symbol::new("get"),
        native("get", 2, |args| {
            let Value::Map(m) = &args[0] else {
                return Err(EvalError::Stuck("get on non-map".into()));
            };
            m.get(&args[1]).cloned().ok_or(EvalError::Diverged)
        }),
    );
    env.insert(
        Symbol::new("mem"),
        native("mem", 2, |args| {
            let Value::Map(m) = &args[0] else {
                return Err(EvalError::Stuck("mem on non-map".into()));
            };
            Ok(Value::Bool(m.contains_key(&args[1])))
        }),
    );
    env.insert(
        Symbol::new("diverge"),
        native("diverge", 1, |_| Err(EvalError::Diverged)),
    );
    // Deterministic pseudo-random source (the verifier treats it as an
    // unconstrained int, the runtime gives replayable values).
    let state = Rc::new(RefCell::new(0x2545F4914F6CDD1Du64));
    env.insert(
        Symbol::new("random"),
        native("random", 1, move |_| {
            let mut s = state.borrow_mut();
            *s ^= *s << 13;
            *s ^= *s >> 7;
            *s ^= *s << 17;
            Ok(Value::Int((*s % 1_000_000) as i64))
        }),
    );
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr_str, parse_program};
    use crate::resolve::{resolve_expr, resolve_program};
    use crate::types::DataEnv;

    fn run(src: &str) -> Value {
        let data = DataEnv::with_builtins();
        let e = parse_expr_str(src).unwrap();
        let e = resolve_expr(&e, &data).unwrap();
        Evaluator::new().eval(&builtin_env(), &e).unwrap()
    }

    fn run_program(src: &str, main: &str) -> Result<Value, EvalError> {
        let prog = parse_program(src).unwrap();
        let mut data = DataEnv::with_builtins();
        data.add_program(&prog.datatypes).unwrap();
        let prog = resolve_program(&prog, &data).unwrap();
        let env = Evaluator::new().eval_program(&prog, &builtin_env())?;
        Ok(env[&Symbol::new(main)].clone())
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(run("1 + 2 * 3"), Value::Int(7));
        assert_eq!(run("7 mod 3"), Value::Int(1));
        assert_eq!(run("if 1 < 2 then 10 else 20"), Value::Int(10));
        assert_eq!(run("(1, 2) = (1, 2)"), Value::Bool(true));
    }

    #[test]
    fn division_by_zero_errors() {
        let data = DataEnv::with_builtins();
        let e = resolve_expr(&parse_expr_str("1 / 0").unwrap(), &data).unwrap();
        assert_eq!(
            Evaluator::new().eval(&builtin_env(), &e),
            Err(EvalError::DivByZero)
        );
    }

    #[test]
    fn recursion_and_lists() {
        let v = run("let rec range i j = if i > j then [] else i :: range (i + 1) j in range 1 5");
        let items = v.as_list().unwrap();
        assert_eq!(
            items
                .iter()
                .map(|v| v.as_int().unwrap())
                .collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
    }

    #[test]
    fn fig1_harmonic_runs() {
        let src = r#"
let rec range i j = if i > j then [] else i :: range (i + 1) j
let rec fold_left f acc xs =
  match xs with
  | [] -> acc
  | x :: rest -> fold_left f (f acc x) rest
let harmonic n =
  let ds = range 1 n in
  fold_left (fun s k -> s + 10000 / k) 0 ds
let result = harmonic 5
"#;
        assert_eq!(run_program(src, "result").unwrap(), Value::Int(22833));
    }

    #[test]
    fn fig2_insertsort_sorts() {
        let src = r#"
let rec insert x vs =
  match vs with
  | [] -> [x]
  | y :: ys -> if x < y then x :: y :: ys else y :: insert x ys
let rec insertsort xs =
  match xs with
  | [] -> []
  | x :: rest -> insert x (insertsort rest)
let result = insertsort [3; 1; 4; 1; 5; 9; 2; 6]
"#;
        let v = run_program(src, "result").unwrap();
        let ints: Vec<i64> = v
            .as_list()
            .unwrap()
            .iter()
            .map(|v| v.as_int().unwrap())
            .collect();
        assert_eq!(ints, vec![1, 1, 2, 3, 4, 5, 6, 9]);
    }

    #[test]
    fn map_primitives() {
        let v = run("let m = new 17 in let m2 = set m 1 10 in get m2 1");
        assert_eq!(v, Value::Int(10));
        let v = run("let m = new 17 in mem m 3");
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn assert_failure_reports_line() {
        let data = DataEnv::with_builtins();
        let e = resolve_expr(&parse_expr_str("assert (1 > 2)").unwrap(), &data).unwrap();
        assert_eq!(
            Evaluator::new().eval(&builtin_env(), &e),
            Err(EvalError::AssertFailed(1))
        );
    }

    #[test]
    fn mutual_recursion_at_runtime() {
        let src = r#"
let rec even n = if n = 0 then true else odd (n - 1)
and odd n = if n = 0 then false else even (n - 1)
let result = even 10
"#;
        assert_eq!(run_program(src, "result").unwrap(), Value::Bool(true));
    }

    #[test]
    fn memo_fib_from_fig3() {
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
  let (_, r) = f (new 17) i in
  r
let result = fib 30
"#;
        assert_eq!(run_program(src, "result").unwrap(), Value::Int(832040));
    }

    #[test]
    fn fuel_limits_runaway_recursion() {
        let src = "let rec loop x = loop x in loop 1";
        let data = DataEnv::with_builtins();
        let e = resolve_expr(&parse_expr_str(src).unwrap(), &data).unwrap();
        // The evaluator recurses on the host stack, so use a small budget
        // (each fuel unit is roughly one nested frame here).
        let mut ev = Evaluator::with_fuel(500);
        assert_eq!(ev.eval(&builtin_env(), &e), Err(EvalError::OutOfFuel));
    }

    #[test]
    fn out_of_domain_get_diverges() {
        let data = DataEnv::with_builtins();
        let e = resolve_expr(&parse_expr_str("get (new 17) 5").unwrap(), &data).unwrap();
        assert_eq!(
            Evaluator::new().eval(&builtin_env(), &e),
            Err(EvalError::Diverged)
        );
    }
}
