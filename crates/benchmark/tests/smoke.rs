//! Every workload at the smoke scale, timed and traced, through the built
//! binary: each metric `BENCHMARK.json` names is emitted with its unit,
//! every output check passes, and the traced runs compute their coverage.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing `{key}` in {v:?}")),
        _ => panic!("`{key}`: not an object: {v:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Number(n) => n.as_f64(),
        other => panic!("not a number: {other:?}"),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        other => panic!("not an array: {other:?}"),
    }
}

/// `(name, unit)` of every metric of a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text_ = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc: Value = serde_json::from_str(&text_).expect("BENCHMARK.json parses");
    items(field(&doc, section))
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

/// Runs the benchmark binary; returns every result line it printed.
fn run(args: &[&str]) -> Vec<Value> {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "benchmark {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with(r#"{"correct""#))
        .map(|l| serde_json::from_str(l).expect("result lines parse"))
        .collect()
}

fn assert_metrics(lines: &[Value], section: &str) {
    assert_eq!(lines.len(), 4, "one result line per workload");
    for line in lines {
        assert_eq!(field(line, "correct"), &Value::Bool(true));
        assert_eq!(number(field(line, "failed")), 0.0);
        assert!(number(field(line, "attempted")) >= 1.0);
        let metrics = field(line, "metrics");
        for (name, unit) in declared(section) {
            let m = field(metrics, &name);
            assert_eq!(text(field(m, "unit")), unit, "unit of {name}");
            assert!(number(field(m, "value")).is_finite(), "{name} is a number");
        }
    }
}

#[test]
fn smoke_runs_every_workload_with_every_declared_metric() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let timed = dir.join("smoke-timed.json");
    let timed_path = timed.to_str().expect("utf-8 path");
    let lines = run(&["--workload", "all", "--smoke", "--out", timed_path]);
    assert_metrics(&lines, "end_to_end");
    for line in &lines {
        let metrics = field(line, "metrics");
        for name in ["throughput", "setup_s", "peak_rss_mb"] {
            assert!(
                number(field(field(metrics, name), "value")) > 0.0,
                "{name} > 0"
            );
        }
    }

    let traced = run(&["--workload", "all", "--smoke", "--trace", "1"]);
    assert_metrics(&traced, "per_layer");
    for line in &traced {
        let coverage = number(field(
            field(field(line, "metrics"), "trace.coverage_pct"),
            "value",
        ));
        assert!(
            coverage > 90.0 && coverage <= 100.0 + 1e-9,
            "coverage {coverage}"
        );
    }

    // --compare reads what --out wrote; a run against itself is neither
    // better nor worse.
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--compare", timed_path, timed_path])
        .output()
        .expect("compare runs");
    assert!(out.status.success());
    let report = String::from_utf8_lossy(&out.stdout);
    for workload in ["train", "deploy", "sched-1m", "cluster-4p"] {
        assert!(report.contains(&format!("## {workload}")), "{report}");
    }
    assert!(
        !report.contains("better") && !report.contains("worse"),
        "{report}"
    );
}

#[test]
fn usage_errors_exit_2() {
    let status = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary runs")
            .status
            .code()
    };
    assert_eq!(status(&[]), Some(2));
    assert_eq!(status(&["--workload", "nope", "--smoke"]), Some(2));
    assert_eq!(status(&["--workload", "train", "--trace", "2"]), Some(2));
}
