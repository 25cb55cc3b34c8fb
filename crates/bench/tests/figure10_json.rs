//! The `figure10 --json` record of a row that fails: its `wall_s` is the
//! time the row ran before failing, never a placeholder zero that a
//! wall-time gate would read as an instant run.

use dsolve_obs::parse_json;
use std::process::Command;

#[test]
fn panicked_row_records_its_wall_time() {
    let path = std::env::temp_dir().join(format!("figure10-panic-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_figure10"))
        .args([
            "--json",
            path.to_str().expect("utf-8 temp path"),
            "stablesort",
        ])
        .env("DSOLVE_FORCE_PANIC", "stablesort")
        .output()
        .expect("figure10 runs");
    // The panicked row is not SAFE, so the suite exits 1.
    assert_eq!(
        out.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("figure10 wrote its record");
    let _ = std::fs::remove_file(&path);
    let rows = parse_json(&text).expect("valid JSON");
    let rows = rows.as_arr().expect("an array of rows");
    assert_eq!(rows.len(), 1, "{text}");
    let row = &rows[0];
    assert_eq!(row.get("name").and_then(|v| v.as_str()), Some("stablesort"));
    assert_eq!(
        row.get("outcome").and_then(|v| v.as_str()),
        Some("UNKNOWN"),
        "{text}"
    );
    let wall = row.get("wall_s").and_then(|v| v.as_num()).expect("wall_s");
    assert!(
        wall > 0.0,
        "a failed row must record the time it ran: {text}"
    );
}

/// A row that reaches its verdict records the embedding cache's
/// counters: environment nodes built, and reused across constraints.
#[test]
fn verified_row_records_embedding_counters() {
    let path = std::env::temp_dir().join(format!("figure10-embed-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_figure10"))
        .args([
            "--jobs",
            "1",
            "--json",
            path.to_str().expect("utf-8 temp path"),
            "stablesort",
        ])
        .output()
        .expect("figure10 runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("figure10 wrote its record");
    let _ = std::fs::remove_file(&path);
    let rows = parse_json(&text).expect("valid JSON");
    let row = &rows.as_arr().expect("an array of rows")[0];
    for key in ["embed_nodes_built", "embed_nodes_reused"] {
        let n = row.get(key).and_then(|v| v.as_num()).expect(key);
        assert!(n > 0.0, "{key} = {n}: {text}");
    }
}
