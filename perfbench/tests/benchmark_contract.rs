//! The benchmark's contract, checked in process on reduced workloads:
//! every metric `BENCHMARK.json` names is emitted with its unit, work
//! counters at `--jobs 1` do not depend on the run or the order, and a
//! wrong verdict fails the correctness check.

use dsolve_logic::{Budget, Outcome, Resource};
use dsolve_obs::{parse_json, Json};
use dsolve_perfbench::measure::{measure, run_once, Run};
use dsolve_perfbench::metrics::{end_to_end, per_layer, per_layer_traced, result_json, Metric};
use dsolve_perfbench::workload::{
    benchmarks_dir, fig10_row, fleet_program, judge, Expect, Judgement, Workload, FLEET_SEED,
};
use std::path::Path;

/// stablesort to a verdict and listsort under a 50-iteration cap.
fn reduced_fig10() -> Workload {
    let dir = benchmarks_dir();
    let capped = Budget {
        max_fixpoint_iterations: 50,
        ..Budget::default()
    };
    Workload {
        name: "reduced-fig10".into(),
        jobs: 1,
        cap: Some(Resource::FixpointIterations),
        programs: vec![
            fig10_row(&dir, "stablesort", Budget::default()).unwrap(),
            fig10_row(&dir, "listsort", capped).unwrap(),
        ],
    }
}

/// The first five fleet programs.
fn reduced_fleet() -> Workload {
    Workload {
        name: "reduced-fleet".into(),
        jobs: 1,
        cap: Some(Resource::SmtQueries),
        programs: (0..5).map(|i| fleet_program(FLEET_SEED, i)).collect(),
    }
}

/// `(name, unit)` of every entry in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn names_units(ms: &[Metric]) -> Vec<(String, String)> {
    let mut v: Vec<_> = ms
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    v.sort();
    v
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

fn counters(run: &Run) -> Vec<Metric> {
    per_layer(run)
        .into_iter()
        .filter(|m| m.unit == "count")
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("benchmark-contract-trace");
    std::fs::create_dir_all(&dir).unwrap();
    for w in [reduced_fig10(), reduced_fleet()] {
        let run = measure(&w, 0.0, 1, Some(&dir)).unwrap();
        let e2e = end_to_end(&run, 0.01);
        assert_eq!(
            names_units(&e2e),
            sorted(declared("end_to_end")),
            "{}",
            w.name
        );
        let layers = per_layer_traced(&run);
        assert_eq!(
            names_units(&layers),
            sorted(declared("per_layer")),
            "{}",
            w.name
        );

        // The result line parses and carries the contract's keys.
        let line = result_json(true, 4, 0, &e2e);
        let doc = parse_json(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_num), Some(4.0));
        let wall = doc.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert!(wall.get("value").and_then(Json::as_num).unwrap() > 0.0);

        // Traced self times account for the traced runs' wall time.
        let coverage = layers
            .iter()
            .find(|m| m.name == "trace.coverage")
            .unwrap()
            .value;
        assert!(
            (0.9..=1.1).contains(&coverage),
            "{}: coverage {coverage}",
            w.name
        );
    }
}

#[test]
fn jobs1_counters_repeat_across_runs_and_orders() {
    for w in [reduced_fig10(), reduced_fleet()] {
        let a = measure(&w, 0.0, 1, None).unwrap();
        // The same programs after other jobs ran in this process, in the
        // opposite order.
        let mut reversed = w.clone();
        reversed.programs.reverse();
        let b = measure(&reversed, 0.0, 2, None).unwrap();
        assert_eq!(counters(&a), counters(&b), "{}", w.name);
        assert!(counters(&a).iter().any(|m| m.value > 0.0));
    }
}

#[test]
fn fabricated_safe_on_a_violating_program_is_wrong() {
    let mut w = reduced_fleet();
    let i = (0..)
        .map(|i| fleet_program(FLEET_SEED, i))
        .position(|p| p.expect == Expect::Violating)
        .unwrap();
    w.programs = vec![fleet_program(FLEET_SEED, i as u64)];
    let real = run_once(&w, 0, None).unwrap();
    assert_eq!(real.judgement, Judgement::Right, "{:?}", real.outcome);
    assert_eq!(
        judge(Expect::Violating, w.cap, &Outcome::Safe),
        Judgement::Wrong
    );
    // A Fig. 10 row reported UNSAFE is wrong too; UNKNOWN at another
    // resource than the workload's cap is a failure, not a verdict.
    assert_eq!(
        judge(Expect::Proved, None, &Outcome::Unsafe),
        Judgement::Wrong
    );
    let deadline = dsolve_logic::Exhaustion::new(dsolve_logic::Phase::Fixpoint, Resource::Deadline);
    assert_eq!(
        judge(
            Expect::Clean,
            Some(Resource::SmtQueries),
            &Outcome::Unknown(deadline)
        ),
        Judgement::Failed
    );
}
