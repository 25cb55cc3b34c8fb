//! Benchmark regression gate: compares two `figure10 --json` files.
//!
//! The *baseline* is the blessed run (committed, or from the previous
//! commit); the *current* file is the run under test. Rows are matched
//! by benchmark name. Two modes:
//!
//! - **default**: a verdict change, a missing row, a wall-time increase
//!   of at least `wall_threshold` (default +20%, ignoring sub-50 ms
//!   noise), or an SMT-query-count increase of at least
//!   `query_threshold` is a regression.
//! - **smoke** (`--smoke`): verdict-strict only. Wall times are ignored
//!   entirely (the committed baseline was produced on a different
//!   machine) and counter changes are reported but never fail the gate.
//!
//! In both modes, a row that ran at `"jobs": 1` on both sides must repeat
//! its work exactly: those runs are bit-reproducible, so any change in
//! `smt_queries`, `cache_lookups` or `metrics.fixpoint_iterations`, up or
//! down, is a regression. Rows at other worker counts keep the rules
//! above.
//!
//! Micro-counter shifts (simplex pivots, SAT conflicts, …) are always
//! reported as context, never gating: they move legitimately whenever
//! the search is touched.

use dsolve_obs::{parse_json, Json};

/// Comparison thresholds and mode.
#[derive(Clone, Debug)]
pub struct DiffOptions {
    /// Relative wall-time increase that fails the gate (0.2 = +20%).
    pub wall_threshold: f64,
    /// Relative SMT-query increase that fails the gate.
    pub query_threshold: f64,
    /// Verdict-strict mode: ignore wall time, never gate on counters.
    pub smoke: bool,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            wall_threshold: 0.20,
            query_threshold: 0.20,
            smoke: false,
        }
    }
}

/// The outcome of a comparison.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Gate failures — non-empty means nonzero exit.
    pub regressions: Vec<String>,
    /// Informational lines (improvements, counter shifts, new rows).
    pub notes: Vec<String>,
}

impl DiffReport {
    /// Whether the gate passes.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

fn rows(doc: &Json) -> Vec<(&str, &Json)> {
    doc.as_arr()
        .map(|items| {
            items
                .iter()
                .filter_map(|r| r.get("name").and_then(Json::as_str).map(|n| (n, r)))
                .collect()
        })
        .unwrap_or_default()
}

fn num(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

/// The work counters a `--jobs 1` row must repeat exactly.
fn exact_counters(row: &Json) -> [(&'static str, Option<f64>); 3] {
    let metric = |key| {
        row.get("metrics")
            .and_then(|m| m.get(key))
            .and_then(Json::as_num)
    };
    [
        ("smt_queries", row.get("smt_queries").and_then(Json::as_num)),
        (
            "cache_lookups",
            row.get("cache_lookups").and_then(Json::as_num),
        ),
        ("fixpoint_iterations", metric("fixpoint_iterations")),
    ]
}

fn micro(row: &Json) -> Vec<(String, u64)> {
    row.get("metrics")
        .and_then(|m| m.get("micro"))
        .and_then(Json::as_obj)
        .map(|fields| {
            fields
                .iter()
                .map(|(k, v)| (k.clone(), v.as_num().unwrap_or(0.0) as u64))
                .collect()
        })
        .unwrap_or_default()
}

/// Compares two `figure10 --json` documents (JSON text).
///
/// # Errors
///
/// Malformed JSON in either input.
pub fn diff(baseline: &str, current: &str, opts: &DiffOptions) -> Result<DiffReport, String> {
    let base_doc = parse_json(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur_doc = parse_json(current).map_err(|e| format!("current: {e}"))?;
    let base = rows(&base_doc);
    let cur = rows(&cur_doc);
    let mut report = DiffReport::default();

    for (name, b) in &base {
        let Some((_, c)) = cur.iter().find(|(n, _)| n == name) else {
            report.regressions.push(format!(
                "{name}: present in baseline, missing from current run"
            ));
            continue;
        };
        let b_outcome = b.get("outcome").and_then(Json::as_str).unwrap_or("?");
        let c_outcome = c.get("outcome").and_then(Json::as_str).unwrap_or("?");
        if b_outcome != c_outcome {
            report.regressions.push(format!(
                "{name}: verdict changed {b_outcome} -> {c_outcome}"
            ));
            continue;
        }
        let b_wall = num(b, "wall_s");
        let c_wall = num(c, "wall_s");
        if !opts.smoke && b_wall >= 0.05 && c_wall > b_wall * (1.0 + opts.wall_threshold) {
            report.regressions.push(format!(
                "{name}: wall time {b_wall:.3}s -> {c_wall:.3}s (+{:.0}%, threshold +{:.0}%)",
                100.0 * (c_wall - b_wall) / b_wall,
                100.0 * opts.wall_threshold
            ));
        } else if !opts.smoke && c_wall > 0.05 && c_wall < b_wall * (1.0 - opts.wall_threshold) {
            report.notes.push(format!(
                "{name}: wall time improved {b_wall:.3}s -> {c_wall:.3}s"
            ));
        }
        let sequential = num(b, "jobs") == 1.0 && num(c, "jobs") == 1.0;
        if sequential {
            for ((key, bv), (_, cv)) in exact_counters(b).into_iter().zip(exact_counters(c)) {
                if bv != cv {
                    let show =
                        |v: Option<f64>| v.map_or("missing".to_string(), |v| format!("{v:.0}"));
                    report.regressions.push(format!(
                        "{name}: {key} {} -> {} (exact at --jobs 1)",
                        show(bv),
                        show(cv)
                    ));
                }
            }
        }
        let b_q = num(b, "smt_queries");
        let c_q = num(c, "smt_queries");
        if !sequential && b_q > 0.0 && c_q > b_q * (1.0 + opts.query_threshold) {
            let line = format!(
                "{name}: smt_queries {b_q:.0} -> {c_q:.0} (+{:.0}%)",
                100.0 * (c_q - b_q) / b_q
            );
            if opts.smoke {
                report.notes.push(line);
            } else {
                report.regressions.push(line);
            }
        }
        // Micro-counter context: large shifts in theory work, never
        // gating.
        let c_micro = micro(c);
        for (key, bv) in micro(b) {
            let cv = c_micro
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(0, |(_, v)| *v);
            let (lo, hi) = (bv.min(cv), bv.max(cv));
            if hi >= 100 && (lo == 0 || hi as f64 / lo as f64 >= 2.0) {
                report
                    .notes
                    .push(format!("{name}: micro {key} {bv} -> {cv}"));
            }
        }
    }
    for (name, _) in &cur {
        if !base.iter().any(|(n, _)| n == name) {
            report
                .notes
                .push(format!("{name}: new row (not in baseline)"));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, outcome: &str, wall: f64, queries: u64, pivots: u64) -> String {
        counted_row(
            1,
            name,
            outcome,
            wall,
            queries,
            2 * queries,
            3 * queries,
            pivots,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn counted_row(
        jobs: u64,
        name: &str,
        outcome: &str,
        wall: f64,
        queries: u64,
        lookups: u64,
        iterations: u64,
        pivots: u64,
    ) -> String {
        format!(
            "{{\"name\": \"{name}\", \"outcome\": \"{outcome}\", \"wall_s\": {wall:.3}, \
             \"smt_queries\": {queries}, \"cache_lookups\": {lookups}, \"jobs\": {jobs}, \
             \"metrics\": {{ \"fixpoint_iterations\": {iterations}, \
             \"micro\": {{ \"simplex_pivots\": {pivots} }} }}}}"
        )
    }

    fn doc(rows: &[String]) -> String {
        format!("[\n{}\n]", rows.join(",\n"))
    }

    #[test]
    fn identical_inputs_pass() {
        let d = doc(&[row("ralist", "SAFE", 1.0, 100, 500)]);
        let r = diff(&d, &d, &DiffOptions::default()).unwrap();
        assert!(r.ok(), "{:?}", r.regressions);
    }

    #[test]
    fn twenty_percent_wall_regression_fails_default_mode() {
        let b = doc(&[row("ralist", "SAFE", 1.0, 100, 500)]);
        let c = doc(&[row("ralist", "SAFE", 1.25, 100, 500)]);
        let r = diff(&b, &c, &DiffOptions::default()).unwrap();
        assert!(!r.ok());
        assert!(
            r.regressions[0].contains("wall time"),
            "{:?}",
            r.regressions
        );
    }

    #[test]
    fn smoke_mode_ignores_wall_but_not_verdicts() {
        let b = doc(&[row("ralist", "SAFE", 1.0, 100, 500)]);
        let slow = doc(&[row("ralist", "SAFE", 10.0, 100, 500)]);
        let opts = DiffOptions {
            smoke: true,
            ..DiffOptions::default()
        };
        assert!(diff(&b, &slow, &opts).unwrap().ok());
        let flipped = doc(&[row("ralist", "UNSAFE", 1.0, 100, 500)]);
        let r = diff(&b, &flipped, &opts).unwrap();
        assert!(!r.ok());
        assert!(r.regressions[0].contains("verdict"), "{:?}", r.regressions);
    }

    #[test]
    fn query_growth_gates_default_but_only_notes_in_smoke() {
        let b = doc(&[counted_row(2, "map", "SAFE", 1.0, 100, 200, 300, 500)]);
        let c = doc(&[counted_row(2, "map", "SAFE", 1.0, 200, 400, 600, 500)]);
        assert!(!diff(&b, &c, &DiffOptions::default()).unwrap().ok());
        let opts = DiffOptions {
            smoke: true,
            ..DiffOptions::default()
        };
        let r = diff(&b, &c, &opts).unwrap();
        assert!(r.ok());
        assert!(
            r.notes.iter().any(|n| n.contains("smt_queries")),
            "{:?}",
            r.notes
        );
    }

    #[test]
    fn any_jobs_one_counter_change_gates_both_modes() {
        let b = doc(&[counted_row(1, "ralist", "SAFE", 1.0, 100, 200, 300, 500)]);
        let changed = [
            (
                "smt_queries",
                counted_row(1, "ralist", "SAFE", 1.0, 99, 200, 300, 500),
            ),
            (
                "cache_lookups",
                counted_row(1, "ralist", "SAFE", 1.0, 100, 201, 300, 500),
            ),
            (
                "fixpoint_iterations",
                counted_row(1, "ralist", "SAFE", 1.0, 100, 200, 299, 500),
            ),
        ]
        .map(|(key, row)| (key, doc(&[row])));
        for smoke in [false, true] {
            let opts = DiffOptions {
                smoke,
                ..DiffOptions::default()
            };
            for (key, c) in &changed {
                let r = diff(&b, c, &opts).unwrap();
                assert_eq!(
                    r.regressions.len(),
                    1,
                    "smoke={smoke} {key}: {:?}",
                    r.regressions
                );
                assert!(r.regressions[0].contains(key), "{:?}", r.regressions);
            }
            // Micro-counter and wall-time shifts stay outside the exact gate.
            let moved = doc(&[counted_row(1, "ralist", "SAFE", 1.1, 100, 200, 300, 900)]);
            assert!(diff(&b, &moved, &opts).unwrap().ok(), "smoke={smoke}");
        }
    }

    #[test]
    fn rows_not_at_jobs_one_are_exempt_from_the_exact_gate() {
        let smoke = DiffOptions {
            smoke: true,
            ..DiffOptions::default()
        };
        for (b_jobs, c_jobs) in [(2, 2), (1, 2), (2, 1), (0, 0)] {
            let b = doc(&[counted_row(
                b_jobs, "ralist", "SAFE", 1.0, 100, 200, 300, 500,
            )]);
            let c = doc(&[counted_row(
                c_jobs, "ralist", "SAFE", 1.0, 105, 190, 310, 500,
            )]);
            for opts in [DiffOptions::default(), smoke.clone()] {
                let r = diff(&b, &c, &opts).unwrap();
                assert!(r.ok(), "jobs {b_jobs} -> {c_jobs}: {:?}", r.regressions);
            }
        }
    }

    #[test]
    fn missing_row_is_a_regression_and_micro_shifts_are_notes() {
        let b = doc(&[
            row("map", "SAFE", 1.0, 100, 500),
            row("heap", "SAFE", 1.0, 100, 500),
        ]);
        let c = doc(&[row("map", "SAFE", 1.0, 100, 5000)]);
        let r = diff(&b, &c, &DiffOptions::default()).unwrap();
        assert_eq!(r.regressions.len(), 1);
        assert!(r.regressions[0].contains("heap"), "{:?}", r.regressions);
        assert!(
            r.notes.iter().any(|n| n.contains("simplex_pivots")),
            "{:?}",
            r.notes
        );
    }
}
