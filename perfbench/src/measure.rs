//! The timed loop: runs a workload's programs back to back, one at a
//! time, for a fixed number of seconds, and keeps what each run returns.

use crate::workload::{judge, Judgement, Workload};
use dsolve::JobResult;
use dsolve_liquid::SolveConfig;
use dsolve_logic::Outcome;
use dsolve_nanoml::genprog::FleetRng;
use dsolve_obs::{Obs, Snapshot};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::path::Path;
use std::time::{Duration, Instant};

/// Seconds [`reference`] takes on the host speed every reported time is
/// scaled to (its time on the benchmark's host when that host is idle).
pub const REFERENCE_S: f64 = 0.009;

/// Times a fixed computation (hashing, sorting and allocating, like the
/// solver; about 9 ms) and returns its seconds. The benchmark's host
/// runs the same work up to 1.8 times slower for stretches of seconds to
/// minutes, as other tenants load it, so each program run is timed
/// between two runs of this computation on the same thread and scaled
/// by them (see [`speed_scale`]). Changes to dsolve cannot move it.
pub fn reference() -> f64 {
    let start = Instant::now();
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut keys = Vec::with_capacity(1 << 16);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in 0..1u64 << 16 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x & 0xF_FFFF, i);
        keys.push(x);
    }
    keys.sort_unstable();
    let mut acc = keys.iter().fold(0u64, |acc, k| {
        acc.wrapping_add(map.get(&(k & 0xF_FFFF)).copied().unwrap_or(1))
    });
    let mut live: Vec<Vec<u64>> = Vec::new();
    for i in 0..60_000u64 {
        let mut v = Vec::with_capacity((i % 17) as usize + 1);
        v.push(i ^ acc);
        live.push(v);
        if live.len() > 512 {
            acc = acc.wrapping_add(live.swap_remove((i % 512) as usize)[0]);
        }
    }
    std::hint::black_box((acc, live.to_vec()));
    start.elapsed().as_secs_f64()
}

/// The factor that scales a time measured between reference runs taking
/// `before` and `after` seconds to the host speed of [`REFERENCE_S`].
pub fn speed_scale(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_S / (before + after)
}

/// What one run of one program returned, without the inferred types.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Seconds spent in `dsolve::run_program`.
    pub elapsed: f64,
    /// [`speed_scale`] of the reference runs around this run.
    pub scale: f64,
    /// The verdict, or the job error's message.
    pub outcome: Result<Outcome, String>,
    /// How the verdict compares with the known answer.
    pub judgement: Judgement,
    /// Timings and counters the run returned; `None` after a job error.
    pub data: Option<RunData>,
    /// Self time per trace layer, seconds, for a traced run.
    pub trace: Option<[f64; TRACE_LAYERS.len()]>,
}

impl Sample {
    /// The run's time scaled to the reference host speed.
    pub fn seconds(&self) -> f64 {
        self.elapsed * self.scale
    }
}

/// The parts of a [`JobResult`] the metrics use.
#[derive(Clone, Debug)]
pub struct RunData {
    /// `JobResult::frontend_time`, seconds.
    pub frontend_s: f64,
    /// `VerifyResult::gen_time`, seconds.
    pub gen_s: f64,
    /// `SolveStats::fixpoint_time`, seconds.
    pub fixpoint_s: f64,
    /// `SolveStats::obligation_time`, seconds.
    pub obligations_s: f64,
    /// `VerifyResult::num_constraints`.
    pub constraints: u64,
    /// `SolveStats::kvars`.
    pub kvars: u64,
    /// `SolveStats::iterations`.
    pub iterations: u64,
    /// `SolveStats::rounds`.
    pub rounds: u64,
    /// `SolveStats::max_partition`.
    pub max_partition: u64,
    /// `SolveStats::worker_checks`.
    pub worker_checks: Vec<u64>,
    /// The job's metrics registry.
    pub metrics: Snapshot,
}

impl RunData {
    fn of(r: &JobResult) -> RunData {
        let s = &r.result.stats;
        RunData {
            frontend_s: r.frontend_time.as_secs_f64(),
            gen_s: r.result.gen_time.as_secs_f64(),
            fixpoint_s: s.fixpoint_time.as_secs_f64(),
            obligations_s: s.obligation_time.as_secs_f64(),
            constraints: r.result.num_constraints as u64,
            kvars: s.kvars as u64,
            iterations: s.iterations,
            rounds: s.rounds,
            max_partition: s.max_partition as u64,
            worker_checks: s.worker_checks.clone(),
            metrics: r.metrics.clone(),
        }
    }
}

/// Every sample of one workload run, per program in definition order.
#[derive(Debug, Default)]
pub struct Run {
    /// Untraced samples per program.
    pub untraced: Vec<Vec<Sample>>,
    /// Traced samples per program (empty unless tracing).
    pub traced: Vec<Vec<Sample>>,
    /// The process's peak resident memory after the first pass, in MB.
    pub first_pass_peak_rss_mb: f64,
}

/// Layers of a folded trace, named by the span frames that belong to
/// them. Query events carry the asking constraint's label, so every
/// frame not named here is an SMT query.
pub const TRACE_LAYERS: &[&str] = &[
    "trace.outside_phases_s",
    "trace.nanoml_s",
    "trace.spec_s",
    "trace.liquid_gen_s",
    "trace.liquid_fixpoint_s",
    "trace.liquid_obligations_s",
    "trace.smt_s",
];

fn trace_layer(frame: &str) -> usize {
    match frame {
        "workload" | "program" => 0,
        "parse" | "resolve" | "infer" => 1,
        "spec" => 2,
        "constraint_gen" => 3,
        "fixpoint" => 4,
        "obligations" => 5,
        _ => 6,
    }
}

/// Runs program `i` of `w` once. With `trace_file`, the run streams a
/// Chrome trace there, wrapped in `workload`/`program` spans, and the
/// sample carries the trace folded into per-layer self time.
pub fn run_once(w: &Workload, i: usize, trace_file: Option<&Path>) -> Result<Sample, String> {
    let p = &w.programs[i];
    let obs = match trace_file {
        Some(path) => Obs::with_trace(path)
            .map_err(|e| format!("cannot create trace {}: {e}", path.display()))?,
        None => Obs::new(),
    };
    let config = SolveConfig {
        budget: p.budget,
        jobs: w.jobs,
        obs: obs.clone(),
        ..SolveConfig::default()
    };
    let start = Instant::now();
    let result = {
        let _workload = obs
            .span("workload", "workload")
            .arg("name", w.name.as_str());
        let _program = obs.span("program", "program").arg("name", p.name.as_str());
        dsolve::run_program(&p.name, &p.source, &p.mlq, &p.quals, config)
    };
    let elapsed = start.elapsed().as_secs_f64();
    obs.finish();
    let (outcome, judgement, data) = match &result {
        Ok(r) => (
            Ok(r.outcome().clone()),
            judge(p.expect, w.cap, r.outcome()),
            Some(RunData::of(r)),
        ),
        Err(e) => (Err(e.to_string()), Judgement::Failed, None),
    };
    drop(result);
    let trace = match trace_file {
        Some(path) => Some(fold_trace(path)?),
        None => None,
    };
    Ok(Sample {
        elapsed,
        scale: 1.0,
        outcome,
        judgement,
        data,
        trace,
    })
}

/// Folds the calling thread's spans in a trace file into self time per
/// [`TRACE_LAYERS`] entry, in seconds. Only this thread's spans count:
/// fixpoint workers run inside the fixpoint span of this thread, so
/// their time is already that span's, and counting it again would add
/// CPU time to wall time. Fixpoint round spans are left out: the
/// sequential solver opens round 1 before the fixpoint span and each
/// round before the previous one closes, so they do not nest, and their
/// time belongs to the fixpoint layer either way.
pub fn fold_trace(path: &Path) -> Result<[f64; TRACE_LAYERS.len()], String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
    let tid = format!("\"tid\":{},", dsolve_obs::trace::trace_tid());
    let events: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with('{') && l.contains(&tid) && !l.contains("\"cat\":\"fixpoint\""))
        .map(|l| l.trim_end_matches(','))
        .collect();
    let folded = dsolve::profile::collapse_trace(&format!("[\n{}\n]", events.join(",\n")))?;
    let mut layers = [0.0; TRACE_LAYERS.len()];
    for line in folded.lines() {
        let (stack, us) = line.rsplit_once(' ').ok_or("malformed folded line")?;
        let us: f64 = us.parse().map_err(|_| "malformed folded value")?;
        let leaf = stack.rsplit(';').next().unwrap_or(stack);
        layers[trace_layer(leaf)] += us / 1e6;
    }
    Ok(layers)
}

/// Runs `w` for `seconds`, in passes that run each program once. The
/// first pass runs every program in definition order, so the memory
/// peak it leaves is the same on every run; the symbol interner keeps
/// every fresh name a job creates, so the peak at exit would grow with
/// the number of passes. Later passes run in an order drawn from
/// `seed`, each program only if its last run fits in the time left, and
/// the run ends with the first pass in which none fits.
/// With `trace_dir`, each untraced run is followed by a traced run of the
/// same program, whose trace is written to `trace_dir/<program>.json`.
/// A [`reference`] run precedes and follows every program run.
pub fn measure(
    w: &Workload,
    seconds: f64,
    seed: u64,
    trace_dir: Option<&Path>,
) -> Result<Run, String> {
    let n = w.programs.len();
    let mut run = Run {
        untraced: vec![Vec::new(); n],
        traced: vec![Vec::new(); n],
        first_pass_peak_rss_mb: 0.0,
    };
    let mut last = vec![0.0f64; n];
    let mut rng = FleetRng::new(seed);
    let mut before = reference();
    let mut timed = |i: usize, trace: Option<&Path>| -> Result<Sample, String> {
        let mut s = run_once(w, i, trace)?;
        let after = reference();
        s.scale = speed_scale(before, after);
        before = after;
        Ok(s)
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    for pass in 0.. {
        let mut ran = false;
        let order = if pass == 0 {
            (0..n).collect()
        } else {
            w.shuffled(&mut rng)
        };
        for i in order {
            let left = deadline
                .saturating_duration_since(Instant::now())
                .as_secs_f64();
            if pass > 0 && last[i] > left {
                continue;
            }
            let s = timed(i, None)?;
            last[i] = s.elapsed;
            run.untraced[i].push(s);
            if let Some(dir) = trace_dir {
                let t = timed(i, Some(&dir.join(format!("{}.json", w.programs[i].name))))?;
                last[i] += t.elapsed;
                run.traced[i].push(t);
            }
            ran = true;
        }
        if pass == 0 {
            run.first_pass_peak_rss_mb = crate::peak_rss_mb()?;
        }
        if !ran {
            break;
        }
    }
    Ok(run)
}
