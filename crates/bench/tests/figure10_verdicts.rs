//! Verdict regression tests over the Fig. 10 benchmark suite.
//!
//! Two pins against past regressions ride here: `malloc` must verify
//! SAFE (a spec-specialization renaming bug once collapsed its scheme
//! and made it UNSAFE with zero SMT queries), and `redblack` must make
//! it *through the front end* (its `ok` measure contains `||` inside a
//! case body, which the `.mlq` parser once mis-split as a case
//! separator and rejected outright).
//!
//! These run in debug mode under `cargo test --workspace`, so the
//! deadline-bound benchmarks get a token budget: the assertion there is
//! only "front end + generation succeed and the verdict is never
//! UNSAFE", which is exactly what a budget-limited run must guarantee.

use dsolve_bench::load;
use dsolve_logic::Outcome;
use std::time::Duration;

/// Benchmarks that verify SAFE quickly even unoptimized.
const FAST_SAFE: &[&str] = &["stablesort", "malloc", "subvsolve", "ralist"];

/// Benchmarks that exhaust a small budget (or, for `bdd`, are simply
/// too slow for a debug build): the front end must succeed and the
/// outcome must be SAFE or UNKNOWN, never UNSAFE and never a
/// front-end/spec error.
const SLOW_OR_HEAVY: &[&str] = &[
    "listsort",
    "map",
    "redblack",
    "vec",
    "heap",
    "splayheap",
    "unionfind",
    "bdd",
];

#[test]
fn figure10_verdicts() {
    for name in FAST_SAFE {
        let res = load(name)
            .unwrap_or_else(|e| panic!("{name}: load failed: {e}"))
            .run()
            .unwrap_or_else(|e| panic!("{name}: front end failed: {e}"));
        assert!(
            matches!(res.outcome(), Outcome::Safe),
            "{name}: expected SAFE, got {} ({:?})",
            res.outcome(),
            res.result.errors.first().map(ToString::to_string)
        );
    }
    for name in SLOW_OR_HEAVY {
        let mut job = load(name).unwrap_or_else(|e| panic!("{name}: load failed: {e}"));
        job.config.budget.timeout = Some(Duration::from_secs(1));
        // A budget-limited run may be UNKNOWN but must never flip to
        // UNSAFE, and must get past the front end (the redblack pin).
        let res = job
            .run()
            .unwrap_or_else(|e| panic!("{name}: front end failed: {e}"));
        assert!(
            !matches!(res.outcome(), Outcome::Unsafe),
            "{name}: budget-limited run reported UNSAFE: {:?}",
            res.result.errors.first().map(ToString::to_string)
        );
    }
}

/// Canonicalizes rendering noise that varies between any two in-process
/// runs, parallel or not: fresh-symbol counters (`fld%280` vs `fld%888`
/// — the interner is process-global, so the second run starts higher)
/// and the order of conjuncts inside a κ's solved refinement (qualifier
/// instantiation order follows symbol ids). Conjunctions always render
/// parenthesized, so sorting ` && `-separated parts inside each
/// balanced `(...)` group, innermost first, is a faithful canonical
/// form.
fn canon(s: &str) -> String {
    // fld%280 → fld%_
    let mut noctr = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        noctr.push(c);
        if c == '%' {
            while chars.peek().is_some_and(char::is_ascii_digit) {
                chars.next();
            }
            noctr.push('_');
        }
    }
    sort_conjuncts(&noctr)
}

fn sort_conjuncts(s: &str) -> String {
    let b = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < b.len() {
        if b[i] == b'(' {
            // Find the matching close paren.
            let mut depth = 1;
            let mut j = i + 1;
            while j < b.len() && depth > 0 {
                match b[j] {
                    b'(' => depth += 1,
                    b')' => depth -= 1,
                    _ => {}
                }
                j += 1;
            }
            let inner = sort_conjuncts(&s[i + 1..j - 1]);
            // Split the interior on top-level " && " and sort.
            let ib = inner.as_bytes();
            let mut parts: Vec<&str> = Vec::new();
            let (mut depth, mut start, mut k) = (0i32, 0usize, 0usize);
            while k < ib.len() {
                match ib[k] {
                    b'(' => depth += 1,
                    b')' => depth -= 1,
                    b' ' if depth == 0 && inner[k..].starts_with(" && ") => {
                        parts.push(&inner[start..k]);
                        start = k + 4;
                        k += 3;
                    }
                    _ => {}
                }
                k += 1;
            }
            parts.push(&inner[start..]);
            parts.sort_unstable();
            out.push('(');
            out.push_str(&parts.join(" && "));
            out.push(')');
            i = j;
        } else {
            // Safe: '(' and ')' are ASCII, so slicing between them
            // stays on char boundaries.
            let next = s[i..].find('(').map_or(s.len(), |off| i + off);
            out.push_str(&s[i..next]);
            i = next;
        }
    }
    out
}

/// `--jobs 1` and `--jobs 4` must agree on everything observable: the
/// verdict, the error list, and the inferred types (the rendered form
/// of the final κ assignment), up to the in-process rendering noise
/// `canon` removes.
#[test]
fn parallel_and_sequential_verdicts_agree() {
    for name in ["stablesort", "malloc", "subvsolve"] {
        let run = |jobs: usize| {
            let mut job = load(name).unwrap();
            job.config.jobs = jobs;
            let res = job.run().unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut inferred: Vec<String> = res
                .result
                .inferred
                .iter()
                .map(|(n, scheme)| canon(&format!("{n} :: {scheme}")))
                .collect();
            inferred.sort();
            let errors: Vec<String> = res
                .result
                .errors
                .iter()
                .map(|e| canon(&e.to_string()))
                .collect();
            (format!("{}", res.outcome()), errors, inferred)
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(
            seq.0, par.0,
            "{name}: verdict differs between jobs=1 and jobs=4"
        );
        assert_eq!(
            seq.1, par.1,
            "{name}: error list differs between jobs=1 and jobs=4"
        );
        assert_eq!(
            seq.2, par.2,
            "{name}: inferred types differ between jobs=1 and jobs=4"
        );
    }
}

/// Runs one benchmark and returns its observable surface (verdict,
/// canonicalized errors, canonicalized sorted inferred types).
fn observe(name: &str, jobs: usize, certify: bool) -> (String, Vec<String>, Vec<String>) {
    let mut job = load(name).unwrap();
    job.config.jobs = jobs;
    job.config.smt.certify = certify;
    let res = job.run().unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut inferred: Vec<String> = res
        .result
        .inferred
        .iter()
        .map(|(n, scheme)| canon(&format!("{n} :: {scheme}")))
        .collect();
    inferred.sort();
    let errors: Vec<String> = res
        .result
        .errors
        .iter()
        .map(|e| canon(&e.to_string()))
        .collect();
    (format!("{}", res.outcome()), errors, inferred)
}

/// Solving under `--jobs 4` stays deterministic: two runs produce
/// identical observables, and they match the sequential run.
#[test]
fn parallel_incremental_is_deterministic() {
    for name in ["stablesort", "subvsolve"] {
        let a = observe(name, 4, false);
        let b = observe(name, 4, false);
        assert_eq!(a, b, "{name}: jobs=4 runs differ");
        let seq = observe(name, 1, false);
        assert_eq!(a, seq, "{name}: jobs=4 differs from the sequential run");
    }
}

/// The full {jobs 1, 4} × {certify on, off} cross-product on the
/// fastest smoke benchmarks: every cell must produce the same observable
/// surface as the base configuration. Certification checks each
/// definite SMT verdict's certificate, so this is also
/// the pin that certification never *changes* a verdict — it may only
/// degrade one to UNKNOWN, and on these all-SAFE rows it must not even
/// do that.
#[test]
fn config_cross_product_agrees_on_smoke_set() {
    for name in ["malloc", "ralist"] {
        let base = observe(name, 1, false);
        assert_eq!(base.0, "SAFE", "{name}: smoke benchmark no longer SAFE");
        for jobs in [1, 4] {
            for certify in [false, true] {
                let got = observe(name, jobs, certify);
                assert_eq!(
                    got, base,
                    "{name}: jobs={jobs} certify={certify} disagrees with base"
                );
            }
        }
    }
}

/// Two malloc runs that must stay SAFE: with the query cache off, and
/// with sixteen inert qualifiers added to `Q★` (each is instantiated,
/// and the fixpoint weakens it away).
#[test]
fn malloc_stays_safe_without_the_cache_or_with_inert_qualifiers() {
    let mut uncached = load("malloc").unwrap();
    uncached.config.smt.cache = false;
    let mut padded = load("malloc").unwrap();
    for i in 0..16 {
        padded
            .quals
            .push_str(&format!("\nqualif Pad{i} : VV <= _ + {i}"));
    }
    for (label, job) in [("the cache off", uncached), ("inert qualifiers", padded)] {
        let res = job.run().unwrap_or_else(|e| panic!("{label}: {e}"));
        assert!(
            matches!(res.outcome(), Outcome::Safe),
            "malloc with {label}: {} ({:?})",
            res.outcome(),
            res.result.errors.first().map(ToString::to_string)
        );
    }
}
