//! Machine-readable single-run statistics (`dsolve --stats-json`).
//!
//! One JSON object per run: verdict, sizes, phase times, the solver's
//! convergence telemetry (rounds, per-partition breakdown, per-κ
//! qualifier trajectories, still-churning κs), and the full
//! observability snapshot (counters, theory micro-counters, latency
//! histogram, top constraints) as emitted in `BENCH_figure10.json`.

use crate::driver::JobResult;
use dsolve_logic::Outcome;
use dsolve_obs::escape_into;
use std::fmt::Write as _;

/// `s` as a quoted JSON string.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(&mut out, s);
    out.push('"');
    out
}

/// Renders one run's statistics as a JSON object.
pub fn stats_json(name: &str, res: &JobResult) -> String {
    let st = &res.result.stats;
    let m = &res.metrics;
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"name\": {},", quoted(name));
    let (verdict, reason) = match res.outcome() {
        Outcome::Safe => ("safe".to_string(), None),
        Outcome::Unsafe => ("unsafe".to_string(), None),
        Outcome::Unknown(e) => ("unknown".to_string(), Some(e.to_string())),
    };
    let _ = writeln!(s, "  \"outcome\": \"{verdict}\",");
    if let Some(r) = reason {
        let _ = writeln!(s, "  \"reason\": {},", quoted(&r));
    }
    let _ = writeln!(s, "  \"loc\": {},", res.loc);
    let _ = writeln!(s, "  \"annotations\": {},", res.annotations);
    let _ = writeln!(s, "  \"constraints\": {},", res.result.num_constraints);
    let _ = writeln!(s, "  \"kvars\": {},", st.kvars);
    let _ = writeln!(s, "  \"initial_quals\": {},", st.initial_quals);
    let _ = writeln!(s, "  \"qstar_scopes\": {},", st.qstar_scopes);
    let _ = writeln!(s, "  \"qstar_s\": {:.6},", st.qstar_time.as_secs_f64());
    let _ = writeln!(s, "  \"time_s\": {:.6},", res.time.as_secs_f64());
    let _ = writeln!(
        s,
        "  \"frontend_s\": {:.6},",
        res.frontend_time.as_secs_f64()
    );
    let _ = writeln!(s, "  \"gen_s\": {:.6},", res.result.gen_time.as_secs_f64());
    let _ = writeln!(
        s,
        "  \"fixpoint_s\": {:.6},",
        st.fixpoint_time.as_secs_f64()
    );
    let _ = writeln!(
        s,
        "  \"obligation_s\": {:.6},",
        st.obligation_time.as_secs_f64()
    );
    let _ = writeln!(s, "  \"smt_queries\": {},", m.queries);
    let _ = writeln!(s, "  \"iterations\": {},", st.iterations);
    let _ = writeln!(s, "  \"jobs\": {},", st.jobs);
    let _ = writeln!(s, "  \"rounds\": {},", st.rounds);
    let _ = writeln!(s, "  \"max_partition\": {},", st.max_partition);
    let _ = writeln!(s, "  \"cache_hits\": {},", m.cache_hits);
    let _ = writeln!(s, "  \"cache_lookups\": {},", m.checks);
    let _ = writeln!(s, "  \"smt_sessions\": {},", m.sessions);
    let _ = writeln!(s, "  \"smt_scoped_checks\": {},", m.scoped_checks);
    let _ = writeln!(s, "  \"embed_nodes_built\": {},", st.embed_nodes_built);
    let _ = writeln!(s, "  \"embed_nodes_reused\": {},", st.embed_nodes_reused);
    let wq: Vec<String> = st.worker_queries.iter().map(u64::to_string).collect();
    let _ = writeln!(s, "  \"worker_queries\": [{}],", wq.join(", "));
    let parts: Vec<String> = st
        .partition_stats
        .iter()
        .map(|p| {
            format!(
                "{{ \"round\": {}, \"worker\": {}, \"constraints\": {}, \"wall_us\": {} }}",
                p.round,
                p.worker,
                p.constraints,
                p.wall.as_micros()
            )
        })
        .collect();
    let _ = writeln!(s, "  \"partition_stats\": [{}],", parts.join(", "));
    let trajs: Vec<String> = st
        .kvar_trajectories
        .iter()
        .map(|(k, pts)| {
            let pts: Vec<String> = pts.iter().map(|(r, n)| format!("[{r}, {n}]")).collect();
            format!("{}: [{}]", quoted(k), pts.join(", "))
        })
        .collect();
    let _ = writeln!(s, "  \"kvar_trajectories\": {{ {} }},", trajs.join(", "));
    let churn: Vec<String> = st.churning_kvars.iter().map(|k| quoted(k)).collect();
    let _ = writeln!(s, "  \"churning_kvars\": [{}],", churn.join(", "));
    let _ = writeln!(s, "  \"metrics\": {}", m.to_json(2));
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Job;

    #[test]
    fn stats_json_is_well_formed_and_self_describing() {
        let job = Job::from_sources(
            "jsonstats",
            "let f x = if x < 0 then 0 - x else x\nlet ok = assert (f (0 - 2) >= 0)",
            "",
            "qualif NonNeg : 0 <= VV",
        );
        let res = job.run().unwrap();
        let json = stats_json("jsonstats", &res);
        let v = dsolve_obs::parse_json(&json).expect("stats JSON parses");
        assert_eq!(v.get("outcome").and_then(|o| o.as_str()), Some("safe"));
        // Sequential runs now report rounds (the satellite fix) and the
        // convergence telemetry keys are always present.
        for key in [
            "initial_quals",
            "qstar_scopes",
            "qstar_s",
            "embed_nodes_built",
            "embed_nodes_reused",
            "rounds",
            "partition_stats",
            "kvar_trajectories",
            "churning_kvars",
            "metrics",
        ] {
            assert!(v.get(key).is_some(), "missing key {key}");
        }
        assert!(v.get("rounds").unwrap().as_num().unwrap() >= 1.0);
        let metrics = v.get("metrics").unwrap();
        assert!(metrics.get("micro").is_some(), "micro counters embedded");
    }
}
