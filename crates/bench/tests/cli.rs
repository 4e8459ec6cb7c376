//! End-to-end CLI contracts of the `scenario` binary, exercised by
//! spawning the real executable (`CARGO_BIN_EXE_scenario`):
//!
//! * `run … --stdout` must emit **exactly one JSON document on stdout**
//!   — the regression that motivated moving every table/diagnostic to
//!   stderr, where a `## title` header used to corrupt piped JSON;
//! * `run … --out FILE` writes the report to exactly that path, creating
//!   its directories;
//! * `trace …` must write a parseable Chrome-trace file with at least
//!   one span, and exit zero.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The workspace root (the committed spec paths are relative to it).
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels under the workspace root")
}

fn scenario_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_scenario"))
}

#[test]
fn run_stdout_is_pure_json() {
    let spec = workspace_root().join("examples/scenarios/table3_fcfs.json");
    let out = scenario_bin()
        .args(["run", spec.to_str().unwrap(), "--stdout"])
        .output()
        .expect("scenario binary runs");
    assert!(
        out.status.success(),
        "scenario run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    // The whole stream must parse — any diagnostic interleaved with the
    // JSON (the old `## title` table header) breaks piping into jq.
    let parsed: serde_json::Value = serde_json::from_str(&stdout).unwrap_or_else(|e| {
        panic!("stdout of `scenario run --stdout` is not pure JSON ({e}):\n{stdout}")
    });
    let reports = parsed
        .as_array()
        .expect("--stdout must emit a report array");
    assert_eq!(reports.len(), 1, "one unseeded spec, one report");
    // The human-facing table still exists — on stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("## scenario run"),
        "the diagnostic table moved off stderr:\n{stderr}"
    );
}

#[test]
fn run_out_is_a_file_path_with_its_directories_created() {
    let spec = workspace_root().join("examples/scenarios/table3_fcfs.json");
    let dir = std::env::temp_dir().join(format!("scenario_run_out_{}", std::process::id()));
    let out_file = dir.join("nested").join("x.json");
    let out = scenario_bin()
        .args([
            "run",
            spec.to_str().unwrap(),
            "--out",
            out_file.to_str().unwrap(),
        ])
        .output()
        .expect("scenario binary runs");
    let json = std::fs::read_to_string(&out_file);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        out.status.success(),
        "scenario run --out failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = json.expect("the report was written to the --out path verbatim");
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("the report is valid JSON");
    assert!(parsed.get("label").is_some(), "{json}");
}

#[test]
fn trace_subcommand_writes_a_parseable_chrome_trace() {
    let spec = workspace_root().join("examples/scenarios/table3_fcfs.json");
    let out_file: PathBuf =
        std::env::temp_dir().join(format!("hpcsim_trace_smoke_{}.json", std::process::id()));
    let out = scenario_bin()
        .args([
            "trace",
            spec.to_str().unwrap(),
            "--out",
            out_file.to_str().unwrap(),
        ])
        .output()
        .expect("scenario binary runs");
    assert!(
        out.status.success(),
        "scenario trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&out_file).expect("trace file was written");
    let _ = std::fs::remove_file(&out_file);
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("trace file is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("the trace has a traceEvents array");
    assert!(
        !events.is_empty(),
        "the trace must contain at least one span"
    );
    for key in ["name", "ph", "ts", "dur", "pid", "tid"] {
        assert!(
            events[0].get(key).is_some(),
            "trace events need the `{key}` field for chrome://tracing"
        );
    }
}
