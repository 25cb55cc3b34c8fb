//! `bench-diff` — compares two sets of `benchmark --json` records.
//!
//! ```text
//! bench-diff [--bounds BENCHMARK.json] PARENT_DIR CHANGE_DIR
//! ```
//!
//! Every `*.json` file in a directory is one run. For each workload and
//! end-to-end metric it prints both sides' median and quartiles and
//! classifies the change, using the metric's direction and bound from
//! `BENCHMARK.json`:
//!
//! * `improved` — every change run beats every parent run, or the
//!   medians differ by more than the parent's interquartile range in
//!   the better direction and the change wins at least 9 in 10 of all
//!   (parent, change) pairs;
//! * `unresolved` — otherwise, when the parent's interquartile range is
//!   wider than the bound;
//! * `regressed` — the change's median is worse than the parent's by
//!   more than the bound;
//! * `unchanged` — otherwise.
//!
//! Work counters of workloads run at `--jobs 1` must be identical across
//! the runs of each side; counters that differ between the sides are
//! listed. Exit codes: 0 nothing regressed, 1 a regression, a missing
//! metric or irreproducible counters, 3 usage or unreadable input.

use dsolve_obs::{parse_json, Json};
use dsolve_perfbench::metrics::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: bench-diff [--bounds BENCHMARK.json] PARENT_DIR CHANGE_DIR";

/// One end-to-end metric's contract from `BENCHMARK.json`.
struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

/// The runs of one side, by workload.
#[derive(Default)]
struct Side {
    /// Metric name → values, one per untraced run.
    metrics: BTreeMap<String, Vec<f64>>,
    /// Counter sets, one per run, when the workload runs at `--jobs 1`.
    counters: Vec<BTreeMap<String, f64>>,
}

/// The `value` of each `{"value", "unit"}` field of a metrics object.
fn values(obj: Option<&Json>) -> BTreeMap<String, f64> {
    obj.and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_num()?)))
        .collect()
}

fn load_side(dir: &Path) -> Result<BTreeMap<String, Side>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut sides: BTreeMap<String, Side> = BTreeMap::new();
    for f in files {
        let text =
            std::fs::read_to_string(&f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let doc = parse_json(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{}: no workload", f.display()))?;
        let side = sides.entry(workload.to_string()).or_default();
        if doc.get("trace").and_then(Json::as_num) == Some(0.0) {
            let metrics = values(doc.get("result").and_then(|r| r.get("metrics")));
            for (k, v) in metrics {
                side.metrics.entry(k).or_default().push(v);
            }
        }
        if doc.get("jobs").and_then(Json::as_num) == Some(1.0) {
            side.counters.push(values(doc.get("counters")));
        }
    }
    Ok(sides)
}

fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?;
    entries
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("end_to_end entry without `{k}`"))
            };
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                unit: field("unit")?.as_str().unwrap_or_default().to_string(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_num().unwrap_or(0.0),
            })
        })
        .collect()
}

/// Classifies one metric; see the module documentation.
fn classify(b: &Bound, parent: &[f64], change: &[f64]) -> &'static str {
    // `better(x, y)`: x reads better than y.
    let better = |x: f64, y: f64| if b.lower_is_better { x < y } else { x > y };
    let (pm, cm) = (median(parent), median(change));
    let [pq1, _, pq3] = quartiles(parent);
    let iqr = pq3 - pq1;
    let pairs = parent.len() * change.len();
    let wins = change
        .iter()
        .map(|&c| parent.iter().filter(|&&p| better(c, p)).count())
        .sum::<usize>();
    let worse = if b.lower_is_better { cm - pm } else { pm - cm };
    if wins == pairs {
        "improved"
    } else if iqr > b.bound * pm.abs() {
        "unresolved"
    } else if worse > b.bound * pm.abs() {
        "regressed"
    } else if -worse > iqr && wins * 10 >= pairs * 9 {
        "improved"
    } else {
        "unchanged"
    }
}

fn run(bounds_path: &Path, parent_dir: &Path, change_dir: &Path) -> Result<bool, String> {
    let bounds = load_bounds(bounds_path)?;
    let parent = load_side(parent_dir)?;
    let change = load_side(change_dir)?;
    let mut ok = true;
    let empty = Side::default();
    let workloads: std::collections::BTreeSet<&String> =
        parent.keys().chain(change.keys()).collect();
    println!(
        "{:<16} {:<12} {:>11} {:>23} {:>11} {:>23}  verdict",
        "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]"
    );
    for w in workloads {
        let (p, c) = (
            parent.get(w).unwrap_or(&empty),
            change.get(w).unwrap_or(&empty),
        );
        for b in &bounds {
            let (Some(pv), Some(cv)) = (p.metrics.get(&b.name), c.metrics.get(&b.name)) else {
                println!("{w:<16} {:<12} missing on one side", b.name);
                ok = false;
                continue;
            };
            let class = classify(b, pv, cv);
            ok &= class != "regressed";
            let [pq1, _, pq3] = quartiles(pv);
            let [cq1, _, cq3] = quartiles(cv);
            println!(
                "{w:<16} {:<12} {:>11.4} [{pq1:>10.4}, {pq3:>10.4}] {:>11.4} [{cq1:>10.4}, {cq3:>10.4}]  {class} \
                 ({} vs {} runs, {}, bound {:.0}%)",
                b.name,
                median(pv),
                median(cv),
                pv.len(),
                cv.len(),
                b.unit,
                b.bound * 100.0
            );
        }
        for (label, side) in [("parent", p), ("change", c)] {
            if side.counters.windows(2).any(|pair| pair[0] != pair[1]) {
                println!("{w:<16} counters differ between {label} runs at --jobs 1");
                ok = false;
            }
        }
        if let (Some(pc), Some(cc)) = (p.counters.first(), c.counters.first()) {
            for (k, pv) in pc {
                let cv = cc.get(k).copied().unwrap_or(f64::NAN);
                if cv != *pv {
                    println!("{w:<16} counter {k}: {pv} -> {cv}");
                }
            }
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let mut bounds = "BENCHMARK.json".to_string();
    let mut dirs = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bounds" => match it.next() {
                Some(p) => bounds = p,
                None => {
                    eprintln!("bench-diff: --bounds needs a path\n{USAGE}");
                    return ExitCode::from(3);
                }
            },
            _ => dirs.push(a),
        }
    }
    let [parent, change] = dirs.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(3);
    };
    match run(Path::new(&bounds), Path::new(parent), Path::new(change)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench-diff: {e}");
            ExitCode::from(3)
        }
    }
}
