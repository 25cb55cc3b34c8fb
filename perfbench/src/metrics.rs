//! End-to-end and per-layer metrics computed from a workload run, and
//! their JSON rendering.

use crate::measure::{Run, RunData, Sample, TRACE_LAYERS};
use crate::workload::{Judgement, Workload};
use dsolve_logic::Outcome;
use dsolve_obs::{MicroCounter, TheoryKind};

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The median of `xs` (the mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles by the rule of Python's `statistics.quantiles(xs, n=4)`
/// (the "exclusive" method); a single value is its own quartiles.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (i, o) in (1..4i64).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *o = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sum over programs of the median of `f` over each program's samples
/// (samples without a value are skipped).
fn sum_of_medians(per_program: &[Vec<Sample>], f: impl Fn(&Sample) -> Option<f64>) -> f64 {
    per_program
        .iter()
        .map(|samples| {
            let xs: Vec<f64> = samples.iter().filter_map(&f).collect();
            median(&xs)
        })
        .sum()
}

/// Per-program medians of the untraced samples' scaled run times.
pub fn program_medians(run: &Run) -> Vec<f64> {
    run.untraced
        .iter()
        .map(|s| median(&s.iter().map(Sample::seconds).collect::<Vec<_>>()))
        .collect()
}

/// The end-to-end metrics: seconds per pass (the sum of per-program
/// medians), their geometric mean, the peak resident memory after the
/// first pass, and the median set-up time. Times are scaled to the
/// reference host speed (see `measure::reference`).
pub fn end_to_end(run: &Run, setup_s: f64) -> Vec<Metric> {
    let medians = program_medians(run);
    let wall_s: f64 = medians.iter().sum();
    let geomean_s = (medians.iter().map(|m| m.ln()).sum::<f64>() / medians.len() as f64).exp();
    vec![
        Metric {
            name: "wall_s",
            unit: "s",
            value: wall_s,
        },
        Metric {
            name: "geomean_s",
            unit: "s",
            value: geomean_s,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: run.first_pass_peak_rss_mb,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: setup_s,
        },
    ]
}

type Extract = fn(&RunData) -> f64;

fn theory_s(d: &RunData, t: TheoryKind) -> f64 {
    d.metrics.theory_ns[t.index()] as f64 / 1e9
}

fn micro(d: &RunData, c: MicroCounter) -> f64 {
    d.metrics.micro[c.index()] as f64
}

fn query_s(d: &RunData) -> f64 {
    d.metrics.query_time_sum_ns as f64 / 1e9
}

fn phase_s(d: &RunData, name: &str) -> f64 {
    let i = dsolve_obs::ObsPhase::NAMES
        .iter()
        .position(|n| *n == name)
        .expect("known phase");
    d.metrics.phase_ns[i] as f64 / 1e9
}

/// Per-layer quantities of one run, each summed over programs (of the
/// per-program median), named after the crate or engine doing the work.
pub const LAYER_SUMS: &[(&str, &str, Extract)] = &[
    ("simplex.s", "s", |d| theory_s(d, TheoryKind::Simplex)),
    ("simplex.pivots", "count", |d| {
        micro(d, MicroCounter::SimplexPivots)
    }),
    ("simplex.bb_nodes", "count", |d| {
        micro(d, MicroCounter::SimplexBbNodes)
    }),
    ("euf.s", "s", |d| theory_s(d, TheoryKind::Euf)),
    ("euf.merges", "count", |d| micro(d, MicroCounter::EufMerges)),
    ("euf.congruence_pairs", "count", |d| {
        micro(d, MicroCounter::EufCongruencePairs)
    }),
    ("sets.s", "s", |d| theory_s(d, TheoryKind::Sets)),
    ("sets.saturation_lemmas", "count", |d| {
        micro(d, MicroCounter::SetsSaturationLemmas)
    }),
    ("sat.s", "s", |d| theory_s(d, TheoryKind::Sat)),
    ("sat.decisions", "count", |d| {
        micro(d, MicroCounter::SatDecisions)
    }),
    ("sat.propagations", "count", |d| {
        micro(d, MicroCounter::SatPropagations)
    }),
    ("sat.conflicts", "count", |d| {
        micro(d, MicroCounter::SatConflicts)
    }),
    ("arrays.s", "s", |d| theory_s(d, TheoryKind::Arrays)),
    ("arrays.axiom_instances", "count", |d| {
        micro(d, MicroCounter::ArraysAxiomInstances)
    }),
    ("smt.checks", "count", |d| d.metrics.checks as f64),
    ("smt.queries", "count", |d| d.metrics.queries as f64),
    ("smt.query_s", "s", query_s),
    ("smt.outside_theory_s", "s", |d| {
        query_s(d) - d.metrics.theory_ns.iter().sum::<u64>() as f64 / 1e9
    }),
    ("smt.sessions", "count", |d| d.metrics.sessions as f64),
    ("smt.scoped_checks", "count", |d| {
        d.metrics.scoped_checks as f64
    }),
    ("smt.ite_expansions", "count", |d| {
        micro(d, MicroCounter::IteExpansions)
    }),
    ("smt.cache_hits", "count", |d| d.metrics.cache_hits as f64),
    ("liquid.gen_s", "s", |d| d.gen_s),
    ("liquid.constraints", "count", |d| d.constraints as f64),
    ("liquid.kvars", "count", |d| d.kvars as f64),
    ("liquid.fixpoint_s", "s", |d| d.fixpoint_s),
    ("liquid.obligations_s", "s", |d| d.obligations_s),
    ("liquid.iterations", "count", |d| d.iterations as f64),
    ("liquid.rounds", "count", |d| d.rounds as f64),
    ("liquid.checks", "count", |d| {
        d.worker_checks.iter().sum::<u64>() as f64
    }),
    ("liquid.own_s", "s", |d| {
        d.fixpoint_s + d.obligations_s - query_s(d)
    }),
    ("nanoml.parse_s", "s", |d| phase_s(d, "parse")),
    ("nanoml.resolve_s", "s", |d| phase_s(d, "resolve")),
    ("nanoml.infer_s", "s", |d| phase_s(d, "infer")),
    ("dsolve.spec_s", "s", |d| phase_s(d, "spec")),
    ("dsolve.frontend_s", "s", |d| d.frontend_s),
];

/// The busiest worker's checks and the mean worker's checks.
fn worker_max_mean(d: &RunData) -> (f64, f64) {
    let w = &d.worker_checks;
    let max = w.iter().copied().max().unwrap_or(0) as f64;
    (max, ratio(w.iter().sum::<u64>() as f64, w.len() as f64))
}

/// The per-layer metrics of an untraced run. Times are scaled like the
/// run times they are part of.
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let data = |f: Extract| move |s: &Sample| s.data.as_ref().map(f);
    let mut out: Vec<Metric> = LAYER_SUMS
        .iter()
        .map(|&(name, unit, f)| {
            let scaled = |s: &Sample| {
                s.data
                    .as_ref()
                    .map(|d| if unit == "s" { f(d) * s.scale } else { f(d) })
            };
            Metric {
                name,
                unit,
                value: sum_of_medians(&run.untraced, scaled),
            }
        })
        .collect();
    let get =
        |out: &[Metric], name: &str| out.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    let derived = [
        (
            "smt.query_mean_us",
            "us",
            ratio(get(&out, "smt.query_s") * 1e6, get(&out, "smt.queries")),
        ),
        (
            "smt.cache_hit_rate",
            "ratio",
            ratio(get(&out, "smt.cache_hits"), get(&out, "smt.checks")),
        ),
    ];
    out.extend(
        derived
            .into_iter()
            .map(|(name, unit, value)| Metric { name, unit, value }),
    );
    let max_partition = run
        .untraced
        .iter()
        .flatten()
        .filter_map(|s| s.data.as_ref().map(|d| d.max_partition as f64))
        .fold(0.0, f64::max);
    let busiest = sum_of_medians(&run.untraced, data(|d| worker_max_mean(d).0));
    let mean = sum_of_medians(&run.untraced, data(|d| worker_max_mean(d).1));
    out.push(Metric {
        name: "liquid.max_partition",
        unit: "count",
        value: max_partition,
    });
    out.push(Metric {
        name: "liquid.worker_imbalance",
        unit: "ratio",
        value: ratio(busiest, mean),
    });
    out
}

/// The per-layer metrics of a traced run: [`per_layer`] of its untraced
/// samples, the traced samples' self time per trace layer, the share of
/// traced wall time those self times cover, and the cost of tracing.
pub fn per_layer_traced(run: &Run) -> Vec<Metric> {
    let mut out = per_layer(run);
    let mut covered = 0.0;
    for (i, &name) in TRACE_LAYERS.iter().enumerate() {
        let value = sum_of_medians(&run.traced, |s| s.trace.map(|t| t[i] * s.scale));
        covered += value;
        out.push(Metric {
            name,
            unit: "s",
            value,
        });
    }
    let traced_wall = sum_of_medians(&run.traced, |s| Some(s.seconds()));
    let untraced_wall = sum_of_medians(&run.untraced, |s| Some(s.seconds()));
    out.push(Metric {
        name: "trace.coverage",
        unit: "ratio",
        value: ratio(covered, traced_wall),
    });
    out.push(Metric {
        name: "obs.trace_overhead_s",
        unit: "s",
        value: traced_wall - untraced_wall,
    });
    out
}

/// Verdict shares over every untraced sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shares {
    /// Share of runs that reached SAFE or UNSAFE.
    pub decided: f64,
    /// Share of runs of programs without a concrete violation that
    /// reached SAFE.
    pub proved: f64,
    /// Share of runs that failed or gave a wrong verdict.
    pub failed: f64,
}

/// Computes [`Shares`] over the untraced samples of `run`.
pub fn shares(w: &Workload, run: &Run) -> Shares {
    let (mut n, mut decided, mut safe_n, mut proved, mut failed) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (p, samples) in w.programs.iter().zip(&run.untraced) {
        for s in samples {
            n += 1.0;
            if matches!(s.outcome, Ok(Outcome::Safe | Outcome::Unsafe)) {
                decided += 1.0;
            }
            if p.expect != crate::workload::Expect::Violating {
                safe_n += 1.0;
                if matches!(s.outcome, Ok(Outcome::Safe)) {
                    proved += 1.0;
                }
            }
            if s.judgement != Judgement::Right {
                failed += 1.0;
            }
        }
    }
    Shares {
        decided: ratio(decided, n),
        proved: ratio(proved, safe_n),
        failed: ratio(failed, n),
    }
}

/// Renders `metrics` as a JSON object of `{"value", "unit"}` objects.
/// Values keep every digit (Rust's shortest round-trip form).
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The one-line result object: correctness, runs attempted and failed,
/// and the metrics.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            quartiles(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]),
            [2.75, 5.5, 8.25]
        );
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
