//! Focused verification scenarios: one rule or mechanism each.

use dsolve_liquid::{verify_source, MeasureEnv, RScheme, RType, Spec};
use dsolve_logic::{parse_pred, Qualifier, Symbol};

fn quals(qs: &[&str]) -> Vec<Qualifier> {
    qs.iter()
        .enumerate()
        .map(|(i, q)| Qualifier::new(format!("Q{i}"), parse_pred(q).unwrap()))
        .collect()
}

fn safe(src: &str, qs: &[&str]) -> bool {
    verify_source(src, MeasureEnv::new(), quals(qs), vec![])
        .unwrap()
        .is_safe()
}

#[test]
fn branch_guards_flow_into_asserts() {
    assert!(safe(
        "let f x y = if x < y then assert (x <= y) else assert (y <= x)",
        &[]
    ));
}

#[test]
fn boolean_connectives_are_exact() {
    assert!(safe(
        "let f a b = if a < 0 && b < 0 then assert (a + b < 0) else ()",
        &[]
    ));
    assert!(safe(
        "let f a = if a < 0 || a > 10 then assert (a <> 5) else ()",
        &[]
    ));
    assert!(safe(
        "let f a = if not (a < 0) then assert (a >= 0) else ()",
        &[]
    ));
}

#[test]
fn arithmetic_selfification_is_exact() {
    assert!(safe("let f x = let y = x + 1 in assert (y > x)", &[]));
    assert!(safe("let f x = let y = x * 2 in assert (y = x + x)", &[]));
    assert!(safe("let f x = let y = 0 - x in assert (x + y = 0)", &[]));
}

#[test]
fn division_needs_nonzero_divisor() {
    assert!(!safe("let f x = 10 / x\nlet use = f 0", &[]));
    assert!(safe("let f x = if x > 0 then 10 / x else 0", &["0 < VV"]));
}

#[test]
fn letrec_infers_invariants_via_qualifiers() {
    // Classic accumulator loop: result ≥ initial.
    assert!(safe(
        r#"
let rec sum n acc = if n <= 0 then acc else sum (n - 1) (acc + n)
let check k = assert (sum k 0 >= 0)
"#,
        &["0 <= VV", "_ <= VV"]
    ));
}

#[test]
fn tuples_carry_dependencies() {
    assert!(safe(
        r#"
let minmax a b = if a < b then (a, b) else (b, a)
let check a b =
  let (lo, hi) = minmax a b in
  assert (lo <= hi)
"#,
        &["_ <= VV", "VV <= _"]
    ));
}

#[test]
fn polymorphic_instantiation_carries_refinements() {
    // `id` at {ν > 0} must keep positivity.
    assert!(safe(
        r#"
let id x = x
let check y = if y > 0 then assert (id y > 0) else ()
"#,
        &["0 < VV"]
    ));
}

#[test]
fn higher_order_arguments_respect_domains() {
    // `apply` calls f on a positive value only.
    assert!(safe(
        r#"
let apply f = f 5
let check u = apply (fun v -> assert (v > 0))
"#,
        &["0 < VV"]
    ));
    // And the negative twin.
    assert!(!safe(
        r#"
let apply f = f 0
let check u = apply (fun v -> assert (v > 0))
"#,
        &["0 < VV"]
    ));
}

#[test]
fn diverge_makes_branches_unreachable() {
    assert!(safe(
        r#"
let f x = if x < 0 then diverge () else x
let check y = assert (f y >= 0)
"#,
        &["0 <= VV"]
    ));
}

#[test]
fn spec_failures_name_the_function() {
    let spec = Spec {
        name: Symbol::new("f"),
        scheme: RScheme {
            vars: vec![],
            ty: RType::Fun(
                Symbol::new("x"),
                Box::new(RType::int()),
                Box::new(RType::int_pred(parse_pred("0 < VV").unwrap())),
            ),
        },
    };
    let r = verify_source(
        "let f x = x",
        MeasureEnv::new(),
        quals(&["0 < VV"]),
        vec![spec],
    )
    .unwrap();
    assert!(!r.is_safe());
    assert!(r.errors[0].to_string().contains("specification of `f`"));
}

#[test]
fn inferred_signature_uses_parameter_names() {
    let r = verify_source(
        "let rec range i j = if i > j then [] else i :: range (i + 1) j",
        MeasureEnv::new(),
        quals(&["_ <= VV"]),
        vec![],
    )
    .unwrap();
    let s = r.inferred[&Symbol::new("range")].to_string();
    assert!(s.starts_with("i:int -> j:int ->"), "{s}");
    // The element bound of Fig. 1: every element is at least i.
    assert!(s.contains("(i <= VV)"), "{s}");
}

#[test]
fn mutual_recursion_verifies() {
    // Exact truth of `even 0` is call-site specific (beyond qualifier
    // inference); the tautology over the returned boolean is provable.
    assert!(safe(
        r#"
let rec even n = if n = 0 then true else odd (n - 1)
and odd n = if n = 0 then false else even (n - 1)
let check u =
  let b = even 0 in
  assert (b || not b)
"#,
        &[]
    ));
}

#[test]
fn nested_datatypes_flow_refinements() {
    // A pair list where the verifier must track element positivity
    // through a user datatype.
    assert!(safe(
        r#"
type 'a boxed = B of 'a
let unbox b = match b with B x -> x
let check u =
  let b = B 7 in
  assert (unbox b > 0)
"#,
        &["0 < VV"]
    ));
}

#[test]
fn bool_refinement_rejects_always_false_assert() {
    let r = verify_source("let f u = assert false", MeasureEnv::new(), vec![], vec![]).unwrap();
    assert!(!r.is_safe());
}
