//! End-to-end CLI tests: exit codes, the JSON report schema, the ratchet
//! bless flow on a synthetic mini-repo, and the real repo staying clean.

use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn simlint_bin() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_simlint"));
    // The ratchet env var must not leak in from the caller's shell.
    c.env_remove("SIMLINT_BLESS");
    c
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

/// A throwaway repo skeleton with one kernel source file and an empty
/// results/ directory, rooted under the target dir.
struct MiniRepo {
    root: PathBuf,
}

impl MiniRepo {
    fn new(tag: &str, kernel_src: &str) -> MiniRepo {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("mini_{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        for dir in [
            "crates/hpcsim/src",
            "results",
            "examples/scenarios",
            "tests",
        ] {
            std::fs::create_dir_all(root.join(dir)).unwrap();
        }
        std::fs::write(root.join("crates/hpcsim/src/lib.rs"), kernel_src).unwrap();
        MiniRepo { root }
    }

    fn write(&self, rel: &str, content: &str) {
        std::fs::write(self.root.join(rel), content).unwrap();
    }
}

#[test]
fn real_repo_is_clean_and_exits_zero() {
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(repo_root())
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "simlint found violations in the repo:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn json_report_matches_schema() {
    let out = simlint_bin()
        .args(["check", "--format", "json", "--root"])
        .arg(repo_root())
        .output()
        .unwrap();
    let doc = serde_json::from_str::<Value>(&String::from_utf8(out.stdout).unwrap())
        .expect("report parses");
    assert_eq!(doc.get("version").and_then(Value::as_u64), Some(1));
    let findings = doc.get("findings").and_then(Value::as_array).unwrap();
    let summary = doc.get("summary").unwrap();
    assert_eq!(
        summary.get("total").and_then(Value::as_u64),
        Some(findings.len() as u64)
    );
    assert_eq!(
        summary.get("clean"),
        Some(&Value::Bool(findings.is_empty()))
    );
    assert!(
        summary
            .get("files_checked")
            .and_then(Value::as_u64)
            .unwrap()
            > 10
    );
    for f in findings {
        for key in ["file", "line", "rule", "function", "message"] {
            assert!(f.get(key).is_some(), "finding missing {key}: {f:?}");
        }
    }
}

#[test]
fn violation_exits_one_and_lands_in_the_report() {
    let mini = MiniRepo::new(
        "violation",
        "pub fn now_ms() -> u128 {\n    std::time::Instant::now().elapsed().as_millis()\n}\n",
    );
    let report_path = mini.root.join("report.json");
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .arg("--out")
        .arg(&report_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("crates/hpcsim/src/lib.rs:2: [wall-clock]"),
        "diagnostic should be file:line-addressed:\n{text}"
    );
    // --out writes the same findings as JSON regardless of --format.
    let doc =
        serde_json::from_str::<Value>(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    let findings = doc.get("findings").and_then(Value::as_array).unwrap();
    assert_eq!(findings.len(), 1);
    assert_eq!(
        findings[0].get("rule").and_then(Value::as_str),
        Some("wall-clock")
    );
}

#[test]
fn invalid_scenario_json_is_flagged() {
    let mini = MiniRepo::new("scenario", "pub fn quiet() {}\n");
    mini.write("examples/scenarios/broken.json", "{\"jobs\": [1, 2,]}");
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("[pin-coverage]"), "{text}");
    assert!(text.contains("broken.json"), "{text}");
}

#[test]
fn unreferenced_pin_is_flagged_until_readme_mentions_it() {
    let mini = MiniRepo::new("orphan", "pub fn quiet() {}\n");
    mini.write("results/orphan_pin.json", "{\"rows\": []}");
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("orphan_pin.json"));

    mini.write(
        "results/README.md",
        "| `orphan_pin.json` | regenerated by hand |\n",
    );
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .output()
        .unwrap();
    assert!(out.status.success());
}

#[test]
fn ratchet_blesses_then_catches_drift() {
    let allowed = "pub fn earliest_fit(xs: &[u32]) -> Vec<u32> {\n    \
         // simlint: allow(hot-alloc) — mini-repo fixture\n    xs.to_vec()\n}\n";
    let mini = MiniRepo::new("ratchet", allowed);

    // Allowed-but-uninventoried: the ratchet refuses until blessed.
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("inventory missing"));

    // Bless via the env var (the CI/README spelling), then re-check clean.
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .env("SIMLINT_BLESS", "1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let inv = std::fs::read_to_string(mini.root.join("results/hot_alloc_inventory.json")).unwrap();
    assert!(inv.contains("earliest_fit"));
    assert!(inv.contains("mini-repo fixture"));
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .output()
        .unwrap();
    assert!(out.status.success());

    // A *new* un-allowed allocation fails even with a blessed inventory…
    mini.write(
        "crates/hpcsim/src/lib.rs",
        &format!(
            "{allowed}pub fn conservative_pass(v: &[u32]) -> Vec<u32> {{\n    v.to_vec()\n}}\n"
        ),
    );
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("conservative_pass"));

    // …and removing the allowed site makes the inventory stale: the
    // ratchet only tightens through an explicit re-bless.
    mini.write("crates/hpcsim/src/lib.rs", "pub fn quiet() {}\n");
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("stale inventory entry"));
}

#[test]
fn hot_set_ratchet_catches_a_renamed_seed() {
    // The acceptance scenario: rename a seeded hot fn without re-blessing
    // and the committed hot set no longer matches the derivation.
    let src = "pub fn earliest_fit(xs: &[u32]) -> u32 {\n    scan(xs)\n}\n\
               fn scan(xs: &[u32]) -> u32 {\n    xs.len() as u32\n}\n";
    let mini = MiniRepo::new("hotdrift", src);
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .env("SIMLINT_BLESS", "1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let hot = std::fs::read_to_string(mini.root.join("results/hot_set.json")).unwrap();
    assert!(
        hot.contains("earliest_fit") && hot.contains("scan"),
        "{hot}"
    );

    mini.write(
        "crates/hpcsim/src/lib.rs",
        &src.replace("earliest_fit", "fastest_fit"),
    );
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("[hot-set]"), "{text}");
    assert!(text.contains("earliest_fit"), "{text}");
}

#[test]
fn diff_reports_only_new_findings() {
    let one = "pub fn now_ms() -> u128 {\n    std::time::Instant::now().elapsed().as_millis()\n}\n";
    let mini = MiniRepo::new("diff", one);
    let baseline = mini.root.join("baseline.json");
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .arg("--out")
        .arg(&baseline)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));

    // Same findings as the baseline → clean diff, exit 0 even though the
    // full report is not clean.
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .arg("--diff")
        .arg(&baseline)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 new finding(s)"));

    // A second violation: only it shows up, and the exit code flips.
    mini.write(
        "crates/hpcsim/src/lib.rs",
        &format!("{one}pub fn stamp() -> std::time::SystemTime {{\n    std::time::SystemTime::now()\n}}\n"),
    );
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .arg("--diff")
        .arg(&baseline)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("SystemTime"), "{text}");
    assert!(
        !text.contains("Instant"),
        "baseline finding resurfaced:\n{text}"
    );
    // (two mentions of SystemTime in the added fn → two new findings)
    assert!(text.contains("2 new finding(s)"), "{text}");
}

#[test]
fn diff_is_line_insensitive_for_baseline_findings() {
    let mini = MiniRepo::new(
        "diffshift",
        "pub fn now_ms() -> u128 {\n    std::time::Instant::now().elapsed().as_millis()\n}\n",
    );
    let baseline = mini.root.join("baseline.json");
    simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .arg("--out")
        .arg(&baseline)
        .output()
        .unwrap();
    // Unrelated lines above shift the finding; the diff stays clean.
    mini.write(
        "crates/hpcsim/src/lib.rs",
        "// a comment\n// another\npub fn now_ms() -> u128 {\n    std::time::Instant::now().elapsed().as_millis()\n}\n",
    );
    let out = simlint_bin()
        .args(["check", "--root"])
        .arg(&mini.root)
        .arg("--diff")
        .arg(&baseline)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn usage_errors_exit_two() {
    for args in [vec![], vec!["frobnicate"], vec!["check", "--format", "xml"]] {
        let out = simlint_bin().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
    }
}
