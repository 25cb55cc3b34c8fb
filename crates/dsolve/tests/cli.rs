//! Integration tests for the `dsolve` command-line binary.

use std::io::Write;
use std::process::Command;

fn write_temp(dir: &std::path::Path, name: &str, contents: &str) {
    let mut f = std::fs::File::create(dir.join(name)).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
}

fn dsolve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dsolve"))
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dsolve-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn safe_module_exits_zero() {
    let dir = tempdir("safe");
    write_temp(
        &dir,
        "m.ml",
        "let abs x = if x < 0 then 0 - x else x\nlet ok = assert (abs (0 - 2) >= 0)\n",
    );
    write_temp(&dir, "m.quals", "qualif N : 0 <= VV\n");
    let out = dsolve().arg(dir.join("m.ml")).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("SAFE"), "{stdout}");
}

#[test]
fn unsafe_module_exits_one_with_line() {
    let dir = tempdir("unsafe");
    write_temp(&dir, "m.ml", "let f x = assert (x > 0); x\nlet bad = f 0\n");
    let out = dsolve().arg(dir.join("m.ml")).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("UNSAFE"), "{stdout}");
    assert!(stdout.contains("line 1"), "{stdout}");
}

#[test]
fn frontend_error_exits_three() {
    let dir = tempdir("parse");
    write_temp(&dir, "m.ml", "let x = ");
    let out = dsolve().arg(dir.join("m.ml")).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn annot_prints_inferred_types() {
    let dir = tempdir("annot");
    write_temp(
        &dir,
        "m.ml",
        "let rec range i j = if i > j then [] else i :: range (i + 1) j\n",
    );
    write_temp(&dir, "m.quals", "qualif U : _ <= VV\n");
    let out = dsolve()
        .arg(dir.join("m.ml"))
        .arg("--annot")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    // The inferred element bound of Fig. 1: i <= ν on the result list.
    assert!(stdout.contains("range ::"), "{stdout}");
    assert!(stdout.contains("i <= VV"), "{stdout}");
}

#[test]
fn stats_go_to_stderr() {
    let dir = tempdir("stats");
    write_temp(&dir, "m.ml", "let one = 1\n");
    let out = dsolve()
        .arg(dir.join("m.ml"))
        .arg("--stats")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("constraints="), "{stderr}");
}

#[test]
fn bad_usage_exits_three() {
    let out = dsolve().arg("--quals").output().unwrap();
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn zero_timeout_exits_two_with_unknown_reason() {
    let dir = tempdir("timeout");
    write_temp(
        &dir,
        "m.ml",
        "let f x = assert (x >= 0); x\nlet use = f 1\n",
    );
    write_temp(&dir, "m.quals", "qualif N : 0 <= VV\n");
    let out = dsolve()
        .arg(dir.join("m.ml"))
        .arg("--timeout")
        .arg("0")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("UNKNOWN"), "{stdout}");
    assert!(stdout.contains("deadline"), "{stdout}");
}

#[test]
fn query_cap_exits_two_with_unknown_reason() {
    let dir = tempdir("qcap");
    write_temp(
        &dir,
        "m.ml",
        "let f x = assert (x >= 0); x\nlet use = f 1\n",
    );
    write_temp(&dir, "m.quals", "qualif N : 0 <= VV\n");
    let out = dsolve()
        .arg(dir.join("m.ml"))
        .arg("--max-smt-queries")
        .arg("0")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("UNKNOWN"), "{stdout}");
    assert!(stdout.contains("smt-queries"), "{stdout}");
}

#[test]
fn forced_panic_is_isolated_and_exits_two() {
    let dir = tempdir("panic");
    write_temp(&dir, "m.ml", "let one = 1\n");
    let out = dsolve()
        .arg(dir.join("m.ml"))
        .args(["--inject-fault", "job-panic"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("UNKNOWN"), "{stdout}");
    assert!(stdout.contains("panic"), "{stdout}");
}

#[test]
fn non_numeric_timeout_is_bad_usage() {
    let out = dsolve().arg("--timeout").arg("soon").output().unwrap();
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn trace_out_writes_valid_chrome_trace() {
    let dir = tempdir("traceout");
    write_temp(
        &dir,
        "m.ml",
        "let f x = assert (x >= 0); x\nlet use = f 1\n",
    );
    write_temp(&dir, "m.quals", "qualif N : 0 <= VV\n");
    let trace = dir.join("m.trace.json");
    let out = dsolve()
        .arg(dir.join("m.ml"))
        .arg("--trace-out")
        .arg(&trace)
        .arg("--jobs")
        .arg("1")
        .output()
        .unwrap();
    assert!(out.status.success());
    let summary = dsolve_obs::trace::validate_trace_file(&trace).unwrap();
    for phase in [
        "parse",
        "resolve",
        "infer",
        "constraint_gen",
        "fixpoint",
        "obligations",
    ] {
        assert!(
            summary.has_span(phase),
            "missing `{phase}` in {:?}",
            summary.names
        );
    }
    assert!(summary.has_span_prefix("round "), "{:?}", summary.names);
    assert!(
        summary.has_span_prefix("assert on line"),
        "queries must be named by provenance: {:?}",
        summary.names
    );
}

#[test]
fn trace_out_survives_forced_panic() {
    let dir = tempdir("tracepanic");
    write_temp(&dir, "m.ml", "let one = 1\n");
    let trace = dir.join("m.trace.json");
    let out = dsolve()
        .arg(dir.join("m.ml"))
        .arg("--trace-out")
        .arg(&trace)
        .args(["--inject-fault", "job-panic"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // The array is closed after the isolated panic: still valid JSON.
    dsolve_obs::trace::validate_trace_file(&trace).unwrap();
}

#[test]
fn trace_out_unwritable_path_is_clean_error() {
    let dir = tempdir("tracebadpath");
    write_temp(&dir, "m.ml", "let one = 1\n");
    let bad = dir.join("no-such-dir").join("deeper").join("t.json");
    let out = dsolve()
        .arg(dir.join("m.ml"))
        .arg("--trace-out")
        .arg(&bad)
        .output()
        .unwrap();
    // A clean CLI error: exit 3 with a pointed message, no panic.
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot open trace file"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn bad_inject_fault_spec_is_clean_error() {
    let dir = tempdir("badfault");
    write_temp(&dir, "m.ml", "let one = 1\n");
    let out = dsolve()
        .arg(dir.join("m.ml"))
        .arg("--inject-fault")
        .arg("nonesuch")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The error names the known fault points.
    assert!(stderr.contains("worker-panic"), "{stderr}");
}

#[test]
fn injected_trace_io_failure_leaves_verdict_intact() {
    let dir = tempdir("traceiofault");
    write_temp(
        &dir,
        "m.ml",
        "let f x = assert (x >= 0); x\nlet use = f 1\n",
    );
    write_temp(&dir, "m.quals", "qualif N : 0 <= VV\n");
    let trace = dir.join("m.trace.json");
    let out = dsolve()
        .arg(dir.join("m.ml"))
        .arg("--trace-out")
        .arg(&trace)
        .arg("--inject-fault")
        .arg("trace-io")
        .output()
        .unwrap();
    // The writer failure is absorbed: verification is unaffected.
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SAFE"), "{stdout}");
    // The truncated trace still parses (viewers tolerate it too).
    dsolve_obs::trace::validate_trace_file(&trace).unwrap();
}

#[test]
fn injected_query_timeout_degrades_to_unknown() {
    let dir = tempdir("qtimeoutfault");
    // No qualifiers: the first SMT query is the obligation itself, so
    // `query-timeout@1` deterministically lands on it.
    write_temp(
        &dir,
        "m.ml",
        "let f x = assert (x >= 0); x\nlet use = f 1\n",
    );
    let out = dsolve()
        .arg(dir.join("m.ml"))
        .arg("--inject-fault")
        .arg("query-timeout@1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("UNKNOWN"), "{stdout}");
    assert!(stdout.contains("injected query-timeout"), "{stdout}");
}

#[test]
fn dsolve_fault_env_is_honored() {
    let dir = tempdir("faultenv");
    write_temp(
        &dir,
        "m.ml",
        "let f x = assert (x >= 0); x\nlet use = f 1\n",
    );
    let out = dsolve()
        .arg(dir.join("m.ml"))
        .env("DSOLVE_FAULT", "query-timeout@1")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("UNKNOWN"), "{stdout}");
}

#[test]
fn quiet_silences_progress_output() {
    let dir = tempdir("quiet");
    write_temp(&dir, "m.ml", "let one = assert (1 > 0)\n");
    let noisy = dsolve()
        .arg(dir.join("m.ml"))
        .args(["--jobs", "1"])
        .env("DSOLVE_LOG", "info")
        .output()
        .unwrap();
    let noisy_err = String::from_utf8_lossy(&noisy.stderr);
    assert!(noisy_err.contains("solve:"), "{noisy_err}");
    let quiet = dsolve()
        .arg(dir.join("m.ml"))
        .args(["--jobs", "1", "--quiet"])
        .env("DSOLVE_LOG", "info")
        .output()
        .unwrap();
    let quiet_err = String::from_utf8_lossy(&quiet.stderr);
    assert!(
        !quiet_err.contains("solve:"),
        "--quiet must suppress progress: {quiet_err}"
    );
    assert!(quiet.status.success());
}

#[test]
fn stats_report_top_constraints_with_provenance() {
    let dir = tempdir("topstats");
    write_temp(
        &dir,
        "m.ml",
        "let f x = assert (x >= 0); x\nlet use = f 1\n",
    );
    write_temp(&dir, "m.quals", "qualif N : 0 <= VV\n");
    let out = dsolve()
        .arg(dir.join("m.ml"))
        .arg("--stats")
        .arg("--jobs")
        .arg("1")
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("top constraints by SMT time:"), "{stderr}");
    assert!(
        stderr.contains("assert on line"),
        "top constraints must carry NanoML source provenance: {stderr}"
    );
}

#[test]
fn annot_out_writes_file() {
    let dir = tempdir("annotout");
    write_temp(
        &dir,
        "m.ml",
        "let rec range i j = if i > j then [] else i :: range (i + 1) j\n",
    );
    write_temp(&dir, "m.quals", "qualif U : _ <= VV\n");
    let out_path = dir.join("m.annot");
    let out = dsolve()
        .arg(dir.join("m.ml"))
        .arg("--annot-out")
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(out.status.success());
    let rendered = std::fs::read_to_string(&out_path).unwrap();
    assert!(rendered.contains("range ::"), "{rendered}");
}
