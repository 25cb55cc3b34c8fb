//! Seeded, deterministic generation of NanoML datatype programs for the
//! differential verification fleet (`dsolve-fleet`).
//!
//! Every generated program is **oracle-aware**: its assertions are built
//! against values the big-step [`Evaluator`] computed at generation time,
//! so the generator *knows* the ground truth before the verifier ever
//! sees the program.
//!
//! * A [`Expectation::Safe`] program's assertions all evaluate to `true`
//!   on the seeded inputs — they follow from how the program was built
//!   (the generator probes each candidate assertion with the interpreter
//!   and pins the observed value into the predicate).
//! * A [`Expectation::Violating`] program carries exactly one assertion
//!   that was deliberately perturbed (off-by-delta constant or flipped
//!   relation) so the interpreter hits `AssertFailed` on a concrete
//!   input. A verifier that reports `SAFE` for such a program has a
//!   soundness bug — the fleet catches that end to end.
//!
//! Generation is fully deterministic: the same `(fleet_seed, index)`
//! always produces byte-identical `.ml`/`.mlq`/`.quals` sources. Every
//! top-level item is rendered on a single source line, which keeps the
//! delta-debugging minimizer's unit of reduction ("drop one line")
//! aligned with the unit of meaning ("drop one function or check").

use crate::eval::{builtin_env, EvalError, Evaluator, Value};
use crate::infer::{infer_program, TypeEnv};
use crate::parser::{parse_expr_str, parse_program};
use crate::resolve::{resolve_expr, resolve_program};
use crate::types::DataEnv;
use std::fmt;

/// A tiny splitmix64 PRNG: deterministic, seedable, dependency-free.
/// Used for all fleet randomness so `--seed` fully pins a run.
#[derive(Clone, Debug)]
pub struct FleetRng(u64);

impl FleetRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> FleetRng {
        FleetRng(seed)
    }

    /// Next raw 64-bit value (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + (self.below((hi - lo + 1) as u64) as i64)
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// Mixes a fleet seed, program index, and retry attempt into a
/// per-program seed (FNV-style so neighbouring indices diverge fast).
fn mix_seed(fleet_seed: u64, index: u64, attempt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ fleet_seed;
    for v in [index, attempt] {
        h ^= v;
        h = h.wrapping_mul(0x100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// The ground truth the generator established for a program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// Every assertion holds on the seeded inputs (interpreter-checked
    /// at generation time). The verifier may still report `UNSAFE`
    /// (incompleteness) or `UNKNOWN` (budget) — but those are quality
    /// signals, not soundness bugs.
    Safe,
    /// One assertion fails on a concrete input; the interpreter hits
    /// `AssertFailed` at `line`. A `SAFE` verdict is a soundness bug.
    Violating {
        /// 1-based source line of the violated assertion.
        line: u32,
    },
}

/// The program-shape family a generated program was drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// First-order integer arithmetic (abs/max/clamp/sumto…).
    Arith,
    /// Built-in `list` programs (length/sum/append/rev/insertsort…).
    List,
    /// A generated binary-tree datatype with insert/size/member….
    Tree,
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Shape::Arith => "arith",
            Shape::List => "list",
            Shape::Tree => "tree",
        })
    }
}

/// One generated fleet program: NanoML source plus `.mlq`/`.quals`
/// specifications and the generator's ground-truth expectation.
#[derive(Clone, Debug)]
pub struct GenProgram {
    /// Stable name (`fleet-<seed>-<index>`), used in reports and repro
    /// file stems.
    pub name: String,
    /// The fleet seed this program came from.
    pub fleet_seed: u64,
    /// The program's index within the fleet.
    pub index: u64,
    /// Shape family.
    pub shape: Shape,
    /// Ground truth established by the interpreter at generation time.
    pub expectation: Expectation,
    /// NanoML module source (one top-level item per line).
    pub source: String,
    /// `.mlq` specification source (measures / val specs; may be empty).
    pub mlq: String,
    /// `.quals` qualifier source.
    pub quals: String,
    /// Number of `assert` checks in the program.
    pub checks: usize,
}

/// Generates the `index`-th program of the fleet seeded by `fleet_seed`.
///
/// Deterministic: identical arguments produce identical programs. The
/// generator validates its own output with the interpreter (and HM
/// inference) and retries with a derived seed on the rare internal
/// mismatch, so the result is always a well-formed, well-typed program
/// whose `expectation` is interpreter-verified.
pub fn generate(fleet_seed: u64, index: u64) -> GenProgram {
    for attempt in 0..8 {
        let mut rng = FleetRng::new(mix_seed(fleet_seed, index, attempt));
        if let Some(p) = try_generate(&mut rng, fleet_seed, index) {
            return p;
        }
    }
    // Unreachable in practice; a deterministic, trivially-correct floor.
    GenProgram {
        name: format!("fleet-{fleet_seed}-{index}"),
        fleet_seed,
        index,
        shape: Shape::Arith,
        expectation: Expectation::Safe,
        source: "let check0 = assert (0 <= 1)".into(),
        mlq: String::new(),
        quals: "qualif Nat : 0 <= VV\n".into(),
        checks: 1,
    }
}

/// Generates `count` programs for one fleet seed.
pub fn generate_fleet(fleet_seed: u64, count: u64) -> Vec<GenProgram> {
    (0..count).map(|i| generate(fleet_seed, i)).collect()
}

/// Runs a module through parse → resolve → eval and reports the first
/// assertion failure, if any.
///
/// This is the fleet's ground-truth oracle: `Ok(Some(line))` means the
/// program concretely violates the assertion on `line`, `Ok(None)` means
/// the seeded run completes cleanly.
///
/// # Errors
///
/// Parse/resolve failures and non-assertion runtime errors (stuck terms,
/// unbound names, fuel exhaustion) — a minimizer candidate that breaks
/// the program this way is *not* a reproducer.
pub fn first_assert_failure(source: &str) -> Result<Option<u32>, String> {
    let prog = parse_program(source).map_err(|e| e.to_string())?;
    let mut data = DataEnv::with_builtins();
    data.add_program(&prog.datatypes)
        .map_err(|e| e.to_string())?;
    let prog = resolve_program(&prog, &data).map_err(|e| e.to_string())?;
    match Evaluator::with_fuel(5_000_000).eval_program(&prog, &builtin_env()) {
        Ok(_) => Ok(None),
        Err(EvalError::AssertFailed(line)) => Ok(Some(line)),
        Err(e) => Err(e.to_string()),
    }
}

// ---------------------------------------------------------------------
// Function catalog
// ---------------------------------------------------------------------

/// One library function template: a name, the other templates it calls,
/// and its single-line rendering (a couple embed a random constant).
struct FunTemplate {
    name: &'static str,
    deps: &'static [&'static str],
    render: fn(&mut FleetRng) -> String,
}

const ARITH_FUNS: &[FunTemplate] = &[
    FunTemplate {
        name: "abs",
        deps: &[],
        render: |_| "let abs x = if x < 0 then 0 - x else x".into(),
    },
    FunTemplate {
        name: "max2",
        deps: &[],
        render: |_| "let max2 a b = if a < b then b else a".into(),
    },
    FunTemplate {
        name: "min2",
        deps: &[],
        render: |_| "let min2 a b = if a < b then a else b".into(),
    },
    FunTemplate {
        name: "double",
        deps: &[],
        render: |_| "let double x = x + x".into(),
    },
    FunTemplate {
        name: "square",
        deps: &[],
        render: |_| "let square x = x * x".into(),
    },
    FunTemplate {
        name: "addk",
        deps: &[],
        render: |rng| format!("let addk x = x + {}", render_int(rng.int(-5, 9))),
    },
    FunTemplate {
        name: "sumto",
        deps: &[],
        render: |_| "let rec sumto n = if n <= 0 then 0 else n + sumto (n - 1)".into(),
    },
    FunTemplate {
        name: "clamp",
        deps: &["max2", "min2"],
        render: |_| "let clamp lo hi x = max2 lo (min2 hi x)".into(),
    },
];

const LIST_FUNS: &[FunTemplate] = &[
    FunTemplate {
        name: "length",
        deps: &[],
        render: |_| {
            "let rec length xs = match xs with | [] -> 0 | x :: rest -> 1 + length rest".into()
        },
    },
    FunTemplate {
        name: "sum",
        deps: &[],
        render: |_| "let rec sum xs = match xs with | [] -> 0 | x :: rest -> x + sum rest".into(),
    },
    FunTemplate {
        name: "append",
        deps: &[],
        render: |_| {
            "let rec append xs ys = match xs with | [] -> ys | x :: rest -> x :: append rest ys"
                .into()
        },
    },
    FunTemplate {
        name: "rev",
        deps: &["append"],
        render: |_| {
            "let rec rev xs = match xs with | [] -> [] | x :: rest -> append (rev rest) [x]".into()
        },
    },
    FunTemplate {
        name: "mapinc",
        deps: &[],
        render: |_| {
            "let rec mapinc xs = match xs with | [] -> [] | x :: rest -> (x + 1) :: mapinc rest"
                .into()
        },
    },
    FunTemplate {
        name: "insert",
        deps: &[],
        render: |_| {
            "let rec insert x vs = match vs with | [] -> [x] | y :: ys -> if x < y then x :: y :: ys else y :: insert x ys".into()
        },
    },
    FunTemplate {
        name: "insertsort",
        deps: &["insert"],
        render: |_| {
            "let rec insertsort xs = match xs with | [] -> [] | x :: rest -> insert x (insertsort rest)".into()
        },
    },
    FunTemplate {
        name: "maxl",
        deps: &["max2"],
        render: |_| {
            "let rec maxl xs d = match xs with | [] -> d | x :: rest -> max2 x (maxl rest d)".into()
        },
    },
    FunTemplate {
        name: "range",
        deps: &[],
        render: |_| "let rec range i j = if i > j then [] else i :: range (i + 1) j".into(),
    },
    FunTemplate {
        name: "replicate",
        deps: &[],
        render: |_| {
            "let rec replicate n x = if n <= 0 then [] else x :: replicate (n - 1) x".into()
        },
    },
    FunTemplate {
        name: "memb",
        deps: &[],
        render: |_| {
            "let rec memb x xs = match xs with | [] -> false | y :: ys -> if x = y then true else memb x ys".into()
        },
    },
];

const TREE_FUNS: &[FunTemplate] = &[
    FunTemplate {
        name: "tinsert",
        deps: &[],
        render: |_| {
            "let rec tinsert x t = match t with | Lf -> Nd (x, Lf, Lf) | Nd (y, l, r) -> if x < y then Nd (y, tinsert x l, r) else Nd (y, l, tinsert x r)".into()
        },
    },
    FunTemplate {
        name: "build",
        deps: &["tinsert"],
        render: |_| {
            "let rec build xs = match xs with | [] -> Lf | y :: rest -> tinsert y (build rest)"
                .into()
        },
    },
    FunTemplate {
        name: "tsize",
        deps: &[],
        render: |_| {
            "let rec tsize t = match t with | Lf -> 0 | Nd (y, l, r) -> 1 + tsize l + tsize r"
                .into()
        },
    },
    FunTemplate {
        name: "tsum",
        deps: &[],
        render: |_| {
            "let rec tsum t = match t with | Lf -> 0 | Nd (y, l, r) -> y + tsum l + tsum r".into()
        },
    },
    FunTemplate {
        name: "tmemb",
        deps: &[],
        render: |_| {
            "let rec tmemb x t = match t with | Lf -> false | Nd (y, l, r) -> if x = y then true else if x < y then tmemb x l else tmemb x r".into()
        },
    },
    FunTemplate {
        name: "theight",
        deps: &["max2"],
        render: |_| {
            "let rec theight t = match t with | Lf -> 0 | Nd (y, l, r) -> 1 + max2 (theight l) (theight r)".into()
        },
    },
];

/// Renders an integer literal; negatives go through `0 - n` because the
/// NanoML surface has no negative literals.
fn render_int(n: i64) -> String {
    if n < 0 {
        format!("(0 - {})", -n)
    } else {
        n.to_string()
    }
}

/// Renders a concrete int-list literal like `[3; 1; 4]`.
fn render_list(rng: &mut FleetRng, consts: &mut Vec<i64>) -> String {
    let len = rng.below(6);
    let mut items = Vec::new();
    for _ in 0..len {
        let v = rng.int(-9, 9);
        consts.push(v);
        items.push(render_int(v));
    }
    format!("[{}]", items.join("; "))
}

// ---------------------------------------------------------------------
// Per-shape check builders
// ---------------------------------------------------------------------

/// A candidate assertion body. Whether it is boolean- or
/// integer-valued is discovered by probing the interpreter, not tracked
/// here.
struct CheckLhs {
    text: String,
}

/// Builds an integer expression usable as an argument (parenthesized
/// when compound).
fn int_arg(
    rng: &mut FleetRng,
    has: &dyn Fn(&str) -> bool,
    depth: u32,
    consts: &mut Vec<i64>,
) -> String {
    if depth == 0 || rng.chance(1, 2) {
        let v = rng.int(-9, 9);
        consts.push(v);
        return render_int(v);
    }
    let mut opts: Vec<&str> = Vec::new();
    for f in ["abs", "double", "addk", "max2", "min2"] {
        if has(f) {
            opts.push(f);
        }
    }
    if opts.is_empty() {
        let v = rng.int(-9, 9);
        consts.push(v);
        return render_int(v);
    }
    let f = *rng.pick(&opts);
    let inner = match f {
        "max2" | "min2" => format!(
            "{f} {} {}",
            int_arg(rng, has, depth - 1, consts),
            int_arg(rng, has, depth - 1, consts)
        ),
        _ => format!("{f} {}", int_arg(rng, has, depth - 1, consts)),
    };
    format!("({inner})")
}

/// Builds a list expression usable as an argument.
fn list_arg(
    rng: &mut FleetRng,
    has: &dyn Fn(&str) -> bool,
    depth: u32,
    consts: &mut Vec<i64>,
) -> String {
    if depth == 0 || rng.chance(1, 2) {
        return render_list(rng, consts);
    }
    let mut opts: Vec<&str> = Vec::new();
    for f in [
        "append",
        "rev",
        "mapinc",
        "insert",
        "insertsort",
        "range",
        "replicate",
    ] {
        if has(f) {
            opts.push(f);
        }
    }
    if opts.is_empty() {
        return render_list(rng, consts);
    }
    let f = *rng.pick(&opts);
    let inner = match f {
        "append" => format!(
            "append {} {}",
            list_arg(rng, has, depth - 1, consts),
            list_arg(rng, has, depth - 1, consts)
        ),
        "rev" | "mapinc" | "insertsort" => {
            format!("{f} {}", list_arg(rng, has, depth - 1, consts))
        }
        "insert" => format!(
            "insert {} {}",
            int_arg(rng, has, 0, consts),
            list_arg(rng, has, depth - 1, consts)
        ),
        "range" => {
            let lo = rng.int(-3, 3);
            let hi = lo + rng.int(-1, 5);
            consts.push(lo);
            consts.push(hi);
            format!("range {} {}", render_int(lo), render_int(hi))
        }
        "replicate" => {
            let n = rng.int(0, 5);
            consts.push(n);
            format!(
                "replicate {} {}",
                render_int(n),
                int_arg(rng, has, 0, consts)
            )
        }
        _ => unreachable!(),
    };
    format!("({inner})")
}

/// Builds one candidate check body for the shape.
fn check_lhs(
    rng: &mut FleetRng,
    shape: Shape,
    has: &dyn Fn(&str) -> bool,
    consts: &mut Vec<i64>,
) -> CheckLhs {
    match shape {
        Shape::Arith => {
            let mut opts: Vec<&str> = Vec::new();
            for f in [
                "abs", "max2", "min2", "double", "square", "addk", "sumto", "clamp",
            ] {
                if has(f) {
                    opts.push(f);
                }
            }
            let f = *rng.pick(&opts);
            let text = match f {
                "max2" | "min2" => format!(
                    "{f} {} {}",
                    int_arg(rng, has, 1, consts),
                    int_arg(rng, has, 1, consts)
                ),
                "clamp" => {
                    let lo = rng.int(-5, 2);
                    let hi = lo + rng.int(0, 7);
                    consts.push(lo);
                    consts.push(hi);
                    format!(
                        "clamp {} {} {}",
                        render_int(lo),
                        render_int(hi),
                        int_arg(rng, has, 1, consts)
                    )
                }
                "sumto" => {
                    let n = rng.int(0, 7);
                    consts.push(n);
                    format!("sumto {}", render_int(n))
                }
                _ => format!("{f} {}", int_arg(rng, has, 1, consts)),
            };
            CheckLhs { text }
        }
        Shape::List => {
            let mut opts: Vec<&str> = Vec::new();
            for f in ["length", "sum", "maxl", "memb"] {
                if has(f) {
                    opts.push(f);
                }
            }
            let f = *rng.pick(&opts);
            match f {
                "maxl" => CheckLhs {
                    text: format!(
                        "maxl {} {}",
                        list_arg(rng, has, 2, consts),
                        int_arg(rng, has, 0, consts)
                    ),
                },
                "memb" => CheckLhs {
                    text: format!(
                        "memb {} {}",
                        int_arg(rng, has, 0, consts),
                        list_arg(rng, has, 2, consts)
                    ),
                },
                _ => CheckLhs {
                    text: format!("{f} {}", list_arg(rng, has, 2, consts)),
                },
            }
        }
        Shape::Tree => {
            let mut opts: Vec<&str> = Vec::new();
            for f in ["tsize", "tsum", "theight", "tmemb"] {
                if has(f) {
                    opts.push(f);
                }
            }
            let f = *rng.pick(&opts);
            let tree = format!("(build {})", list_arg(rng, has, 1, consts));
            match f {
                "tmemb" => CheckLhs {
                    text: format!("tmemb {} {tree}", int_arg(rng, has, 0, consts)),
                },
                _ => CheckLhs {
                    text: format!("{f} {tree}"),
                },
            }
        }
    }
}

// ---------------------------------------------------------------------
// Generation proper
// ---------------------------------------------------------------------

/// Selects a template subset with transitive dependencies, preserving
/// catalog order (so rendered programs define before use).
fn select_funs<'a>(rng: &mut FleetRng, catalog: &'a [FunTemplate]) -> Vec<&'a FunTemplate> {
    let mut wanted: Vec<bool> = catalog.iter().map(|_| rng.chance(3, 5)).collect();
    if !wanted.iter().any(|w| *w) {
        let i = rng.below(catalog.len() as u64) as usize;
        wanted[i] = true;
    }
    // Close over dependencies (deps always appear earlier in a catalog
    // or in the arith prelude handled by the caller).
    loop {
        let mut changed = false;
        for i in 0..catalog.len() {
            if !wanted[i] {
                continue;
            }
            for d in catalog[i].deps {
                if let Some(j) = catalog.iter().position(|t| t.name == *d) {
                    if !wanted[j] {
                        wanted[j] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    catalog
        .iter()
        .zip(wanted)
        .filter_map(|(t, w)| w.then_some(t))
        .collect()
}

/// Adds `name` (and its same-catalog dependencies) to `chosen`, keeping
/// catalog order so definitions precede uses.
fn force_include<'a>(chosen: &mut Vec<&'a FunTemplate>, catalog: &'a [FunTemplate], name: &str) {
    let Some(f) = catalog.iter().find(|f| f.name == name) else {
        return;
    };
    if !chosen.iter().any(|g| g.name == name) {
        for d in f.deps {
            force_include(chosen, catalog, d);
        }
        chosen.push(f);
        chosen.sort_by_key(|f| catalog.iter().position(|g| g.name == f.name));
    }
}

fn try_generate(rng: &mut FleetRng, fleet_seed: u64, index: u64) -> Option<GenProgram> {
    let shape = match rng.below(10) {
        0..=2 => Shape::Arith,
        3..=6 => Shape::List,
        _ => Shape::Tree,
    };
    let violating = rng.chance(2, 5);

    // Assemble the library: an optional datatype plus catalog functions.
    let mut lines: Vec<String> = Vec::new();
    let mut names: Vec<&'static str> = Vec::new();
    if shape == Shape::Tree {
        lines.push("type 'a tr = Lf | Nd of 'a * 'a tr * 'a tr".into());
    }
    let mut chosen: Vec<&FunTemplate> = Vec::new();
    match shape {
        Shape::Arith => chosen.extend(select_funs(rng, ARITH_FUNS)),
        Shape::List | Shape::Tree => {
            // A small arith prelude (deps like max2 plus material for
            // integer arguments), then the shape's own catalog.
            let mut prelude = select_funs(rng, ARITH_FUNS);
            let shape_funs = if shape == Shape::List {
                let mut t = select_funs(rng, LIST_FUNS);
                // At least one check-capable (int/bool-returning) entry.
                if !t
                    .iter()
                    .any(|f| matches!(f.name, "length" | "sum" | "maxl" | "memb"))
                {
                    let pick = *rng.pick(&["length", "sum", "memb"]);
                    force_include(&mut t, LIST_FUNS, pick);
                }
                t
            } else {
                let mut t = select_funs(rng, TREE_FUNS);
                // Trees are only interesting with a builder, and need at
                // least one observer for the checks.
                force_include(&mut t, TREE_FUNS, "build");
                if !t
                    .iter()
                    .any(|f| matches!(f.name, "tsize" | "tsum" | "theight" | "tmemb"))
                {
                    let pick = *rng.pick(&["tsize", "tsum", "tmemb"]);
                    force_include(&mut t, TREE_FUNS, pick);
                }
                t
            };
            // Pull in cross-catalog deps (maxl/theight need max2).
            for f in &shape_funs {
                for d in f.deps {
                    if let Some(p) = ARITH_FUNS.iter().find(|t| t.name == *d) {
                        if !prelude.iter().any(|t| t.name == *d) {
                            prelude.push(p);
                        }
                    }
                }
            }
            prelude.sort_by_key(|f| ARITH_FUNS.iter().position(|g| g.name == f.name));
            chosen.extend(prelude);
            chosen.extend(shape_funs);
        }
    }
    for f in &chosen {
        lines.push((f.render)(rng));
        names.push(f.name);
    }

    // Evaluate the library once; probes run against this environment.
    let lib_src = lines.join("\n");
    let prog = parse_program(&lib_src).ok()?;
    let mut data = DataEnv::with_builtins();
    data.add_program(&prog.datatypes).ok()?;
    let resolved = resolve_program(&prog, &data).ok()?;
    let env = Evaluator::with_fuel(5_000_000)
        .eval_program(&resolved, &builtin_env())
        .ok()?;
    let probe = |text: &str| -> Option<Value> {
        let e = parse_expr_str(text).ok()?;
        let e = resolve_expr(&e, &data).ok()?;
        Evaluator::with_fuel(1_000_000).eval(&env, &e).ok()
    };
    let has = |name: &str| names.contains(&name);

    // Build checks, each pinned to its interpreter-observed value.
    let mut consts: Vec<i64> = Vec::new();
    let n_checks = 1 + rng.below(4);
    let violating_at = rng.below(n_checks);
    let mut violated_line: Option<u32> = None;
    for ci in 0..n_checks {
        let lhs = check_lhs(rng, shape, &has, &mut consts);
        let value = probe(&lhs.text)?;
        let make_violating = violating && ci == violating_at;
        let pred = match value {
            Value::Bool(b) => {
                let want = if make_violating { !b } else { b };
                if want && rng.chance(1, 2) {
                    lhs.text.clone()
                } else {
                    format!("{} = {}", lhs.text, want)
                }
            }
            Value::Int(v) => {
                let d = rng.int(0, 3);
                if make_violating {
                    let delta = if rng.chance(1, 2) {
                        rng.int(1, 3)
                    } else {
                        -rng.int(1, 3)
                    };
                    consts.push(v + delta);
                    match rng.below(3) {
                        0 => format!("{} = {}", lhs.text, render_int(v + delta)),
                        1 => format!("{} > {}", lhs.text, render_int(v)),
                        _ => format!("{} < {}", lhs.text, render_int(v)),
                    }
                } else {
                    consts.push(v);
                    match rng.below(4) {
                        0 => format!("{} = {}", lhs.text, render_int(v)),
                        1 => format!("{} >= {}", lhs.text, render_int(v - d)),
                        2 => format!("{} <= {}", lhs.text, render_int(v + d)),
                        _ => format!("{} < {}", lhs.text, render_int(v + 1 + d)),
                    }
                }
            }
            _ => return None,
        };
        lines.push(format!("let check{ci} = assert ({pred})"));
        if make_violating {
            violated_line = Some(lines.len() as u32);
        }
    }

    let source = lines.join("\n");

    // Ground truth: the interpreter must agree with the construction.
    let expectation = match first_assert_failure(&source) {
        Ok(None) if !violating => Expectation::Safe,
        Ok(Some(line)) if violating && Some(line) == violated_line => {
            Expectation::Violating { line }
        }
        _ => return None,
    };

    // The verifier's front end must accept the program (HM inference —
    // no built-in schemes needed, the catalog avoids map primitives).
    let full = parse_program(&source).ok()?;
    let mut full_data = DataEnv::with_builtins();
    full_data.add_program(&full.datatypes).ok()?;
    let full_resolved = resolve_program(&full, &full_data).ok()?;
    infer_program(&full_resolved, &full_data, &TypeEnv::new()).ok()?;

    let mlq = render_mlq(rng, shape, &has);
    let quals = render_quals(rng, shape, &consts, !mlq.is_empty());

    Some(GenProgram {
        name: format!("fleet-{fleet_seed}-{index}"),
        fleet_seed,
        index,
        shape,
        expectation,
        source,
        mlq,
        quals,
        checks: n_checks as usize,
    })
}

/// Renders the `.mlq` specification: shape-appropriate measures and, when
/// the canonical function is present, a provably-correct `val` spec.
fn render_mlq(rng: &mut FleetRng, shape: Shape, has: &dyn Fn(&str) -> bool) -> String {
    let mut out = String::new();
    match shape {
        Shape::Arith => {}
        Shape::List => {
            if rng.chance(1, 2) {
                out.push_str(
                    "measure llen : 'a list -> int =\n| Nil -> 0\n| Cons (x, xs) -> 1 + llen(xs)\n",
                );
                if has("length") && rng.chance(1, 2) {
                    out.push_str("\nval length : xs : 'a list -> {VV : int | VV = llen(xs)}\n");
                }
            }
        }
        Shape::Tree => {
            if rng.chance(1, 2) {
                out.push_str(
                    "measure sz : 'a tr -> int =\n| Lf -> 0\n| Nd (x, l, r) -> 1 + sz(l) + sz(r)\n",
                );
                if has("tsize") && rng.chance(1, 2) {
                    out.push_str("\nval tsize : t : 'a tr -> {VV : int | VV = sz(t)}\n");
                }
            }
        }
    }
    out
}

/// Renders the `.quals` qualifier file from the constants the checks
/// mention plus a few standard shapes. Qualifiers only affect
/// completeness (which programs the verifier can prove), never
/// soundness, so random subsetting here widens the config space safely.
fn render_quals(rng: &mut FleetRng, shape: Shape, consts: &[i64], has_mlq: bool) -> String {
    let mut out = String::from("qualif Nat : 0 <= VV\n");
    if rng.chance(2, 3) {
        out.push_str("qualif Ub : _ <= VV\n");
    }
    if rng.chance(1, 2) {
        out.push_str("qualif Lb : VV <= _\n");
    }
    let mut seen: Vec<i64> = Vec::new();
    for &c in consts {
        if seen.contains(&c) || seen.len() >= 4 {
            continue;
        }
        seen.push(c);
        let i = seen.len();
        match rng.below(3) {
            0 => out.push_str(&format!("qualif C{i}a : VV = {c}\n")),
            1 => out.push_str(&format!("qualif C{i}b : VV <= {c}\n")),
            _ => out.push_str(&format!("qualif C{i}c : {c} <= VV\n")),
        }
    }
    if has_mlq {
        match shape {
            Shape::List => {
                out.push_str("qualif LenNat : 0 <= llen(VV)\n");
                if rng.chance(1, 2) {
                    out.push_str("qualif LenEq : llen(VV) = llen(_)\n");
                }
            }
            Shape::Tree => {
                out.push_str("qualif SzNat : 0 <= sz(VV)\n");
            }
            Shape::Arith => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = FleetRng::new(7);
        let mut b = FleetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for i in 0..12 {
            let p = generate(42, i);
            let q = generate(42, i);
            assert_eq!(p.source, q.source, "index {i}");
            assert_eq!(p.mlq, q.mlq, "index {i}");
            assert_eq!(p.quals, q.quals, "index {i}");
            assert_eq!(p.expectation, q.expectation, "index {i}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<String> = (0..8).map(|i| generate(1, i).source).collect();
        let b: Vec<String> = (0..8).map(|i| generate(2, i).source).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn expectations_match_the_interpreter() {
        for i in 0..40 {
            let p = generate(7, i);
            let got = first_assert_failure(&p.source).unwrap_or_else(|e| {
                panic!(
                    "{}: interpreter error on generated program: {e}\n{}",
                    p.name, p.source
                )
            });
            match p.expectation {
                Expectation::Safe => {
                    assert_eq!(
                        got, None,
                        "{}: safe program failed at runtime\n{}",
                        p.name, p.source
                    );
                }
                Expectation::Violating { line } => {
                    assert_eq!(
                        got,
                        Some(line),
                        "{}: expected violation at line {line}\n{}",
                        p.name,
                        p.source
                    );
                }
            }
        }
    }

    #[test]
    fn both_expectations_are_generated() {
        let fleet = generate_fleet(3, 30);
        assert!(fleet.iter().any(|p| p.expectation == Expectation::Safe));
        assert!(fleet
            .iter()
            .any(|p| matches!(p.expectation, Expectation::Violating { .. })));
    }

    #[test]
    fn all_shapes_are_generated() {
        let fleet = generate_fleet(5, 40);
        for shape in [Shape::Arith, Shape::List, Shape::Tree] {
            assert!(fleet.iter().any(|p| p.shape == shape), "missing {shape}");
        }
    }
}
