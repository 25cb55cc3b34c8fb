//! # dsolve-perfbench
//!
//! The benchmark every performance claim about dsolve is measured with:
//! time to a verdict on the Fig. 10 rows and on generated fleet
//! programs, taken from outside the pipeline through the public
//! `dsolve::run_program` entry point, with each verdict checked against
//! the program's known answer and every cost attributed to the layer
//! that spent it. See `README.md` for the workloads and metrics.

pub mod measure;
pub mod metrics;
pub mod workload;

/// This process's peak resident set size (`VmHWM`), in MB.
///
/// # Errors
///
/// When `/proc/self/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
