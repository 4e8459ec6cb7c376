//! pin-coverage — committed result pins must be referenced, scenario
//! files must be valid JSON.
//!
//! A byte pin in `results/` only protects the project while some test
//! actually compares against it; an orphaned pin silently becomes dead
//! weight that drifts from the code. And a scenario file with a JSON typo
//! fails at *use* time, in whichever smoke run happens to load it. This
//! rule closes both gaps statically:
//!
//! - every top-level `results/*.json` must be mentioned by filename in a
//!   test (root `tests/`, any `crates/*/tests/`) or in
//!   `results/README.md`, and must parse as JSON;
//! - every `examples/scenarios/*.json` must parse as JSON.

use crate::report::Finding;
use std::path::Path;

pub const RULE: &str = "pin-coverage";

pub fn check(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();

    // Reference corpus: all test sources plus the results README.
    let mut corpus = String::new();
    for dir in test_dirs(root) {
        collect_text(&dir, &mut corpus);
    }
    if let Ok(readme) = std::fs::read_to_string(root.join("results/README.md")) {
        corpus.push_str(&readme);
    }

    for path in json_files(&root.join("results")) {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let rel = format!("results/{name}");
        // The ratchet baselines and the derived hot set are simlint's own
        // artifacts — simlint is the test that reads them, so the
        // reference requirement is satisfied by construction (parse
        // validation below still applies).
        let is_own_artifact = crate::inventory::SPECS.iter().any(|spec| rel == spec.rel)
            || rel == crate::graph::HOT_SET_REL;
        if !is_own_artifact && !corpus.contains(&name) {
            out.push(Finding::new(
                RULE,
                &rel,
                0,
                None,
                format!(
                    "pin `{name}` is referenced by no test and not listed in results/README.md; \
                     orphaned pins drift — wire it up or delete it"
                ),
            ));
        }
        check_parses(&path, &rel, &mut out);
    }

    for path in json_files(&root.join("examples/scenarios")) {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        check_parses(&path, &format!("examples/scenarios/{name}"), &mut out);
    }

    out
}

fn check_parses(path: &Path, rel: &str, out: &mut Vec<Finding>) {
    match std::fs::read_to_string(path) {
        Ok(text) => {
            if let Err(e) = serde::parse_value(&text) {
                out.push(Finding::new(
                    RULE,
                    rel,
                    0,
                    None,
                    format!("not valid JSON: {}", e.0),
                ));
            }
        }
        Err(e) => out.push(Finding::new(RULE, rel, 0, None, format!("unreadable: {e}"))),
    }
}

/// Top-level `*.json` files of `dir` (no recursion — `results/agents/`
/// and friends manage their own contracts), sorted for stable output.
fn json_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let p = e.path();
            if p.is_file() && p.extension().is_some_and(|x| x == "json") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// `tests/` at the root plus every `crates/*/tests/`.
fn test_dirs(root: &Path) -> Vec<std::path::PathBuf> {
    let mut out = vec![root.join("tests")];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            let t = e.path().join("tests");
            if t.is_dir() {
                out.push(t);
            }
        }
    }
    out.sort();
    out
}

/// Appends the contents of every `.rs` file under `dir` (recursively —
/// test trees may nest fixtures/helpers) to `corpus`.
fn collect_text(dir: &Path, corpus: &mut String) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_text(&p, corpus);
        } else if p.extension().is_some_and(|x| x == "rs") {
            if let Ok(text) = std::fs::read_to_string(&p) {
                corpus.push_str(&text);
            }
        }
    }
}
