//! Per-rule fixture tests: each `bad_*` fixture trips exactly its rule,
//! each `ok_*` variant is clean, and the corpus is checked under the same
//! engine entry (`check_source`) the repo walk uses — same path scoping,
//! same allow handling.

use simlint::check_source;

/// Runs a fixture as if it lived in the hpcsim kernel crate.
fn check_fixture(name: &str) -> simlint::FileOutcome {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let content = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    check_source(&format!("crates/hpcsim/src/{name}"), &content)
}

fn rules_of(outcome: &simlint::FileOutcome) -> Vec<&str> {
    outcome.findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn bad_wall_clock_trips_only_wall_clock() {
    let out = check_fixture("bad_wall_clock.rs");
    assert!(!out.findings.is_empty());
    assert!(rules_of(&out).iter().all(|r| *r == "wall-clock"), "{out:?}");
    // Both the Instant read and the SystemTime mentions are caught.
    assert!(out.findings.iter().any(|f| f.message.contains("Instant")));
    assert!(out
        .findings
        .iter()
        .any(|f| f.message.contains("SystemTime")));
    // Findings carry the enclosing fn and a real line.
    let read = out
        .findings
        .iter()
        .find(|f| f.message.contains("Instant"))
        .unwrap();
    assert_eq!(read.function.as_deref(), Some("epoch_stamp"));
    assert!(read.line > 0);
}

#[test]
fn allowed_wall_clock_is_clean() {
    let out = check_fixture("ok_wall_clock_allowed.rs");
    assert!(out.findings.is_empty(), "{out:?}");
}

#[test]
fn bad_unordered_iter_trips_only_unordered_iter() {
    let out = check_fixture("bad_unordered_iter.rs");
    assert_eq!(out.findings.len(), 2, "{out:?}");
    assert!(rules_of(&out).iter().all(|r| *r == "unordered-iter"));
    // One method-call form, one for-loop form; keyed `.get` is not flagged.
    assert!(out.findings.iter().any(|f| f.message.contains(".iter()")));
    assert!(out.findings.iter().any(|f| f.message.contains("for … in")));
    assert!(!out.findings.iter().any(|f| f.message.contains("get")));
}

#[test]
fn allowed_unordered_iter_is_clean() {
    let out = check_fixture("ok_unordered_iter_allowed.rs");
    assert!(out.findings.is_empty(), "{out:?}");
}

#[test]
fn bad_hot_alloc_trips_only_hot_alloc() {
    let out = check_fixture("bad_hot_alloc.rs");
    assert_eq!(out.findings.len(), 4, "{out:?}");
    assert!(rules_of(&out).iter().all(|r| *r == "hot-alloc"));
    assert!(out
        .findings
        .iter()
        .all(|f| f.function.as_deref() == Some("earliest_fit")));
    // The identical allocation in the unregistered fn is not flagged.
    assert!(!out
        .findings
        .iter()
        .any(|f| f.function.as_deref() == Some("warm_helper")));
    for pattern in ["Vec::new", ".to_vec()", "format!", ".clone()"] {
        assert!(
            out.findings.iter().any(|f| f.message.contains(pattern)),
            "missing {pattern}: {out:?}"
        );
    }
}

#[test]
fn allowed_hot_alloc_becomes_inventory_candidate() {
    let out = check_fixture("ok_hot_alloc_allowed.rs");
    assert!(out.findings.is_empty(), "{out:?}");
    assert_eq!(out.allowed.len(), 1);
    let hit = &out.allowed[0];
    assert_eq!(hit.rule, "hot-alloc");
    assert_eq!(hit.function, "earliest_fit");
    assert_eq!(hit.pattern, ".to_vec()");
    assert!(hit.reason.contains("owned Vec"));
}

#[test]
fn hot_alloc_allow_without_reason_is_rejected() {
    let out = check_source(
        "crates/hpcsim/src/profile.rs",
        "pub fn earliest_fit(xs: &[u32]) -> Vec<u32> {\n    xs.to_vec() // simlint: allow(hot-alloc)\n}\n",
    );
    assert_eq!(out.findings.len(), 1, "{out:?}");
    assert!(out.findings[0].message.contains("needs a reason"));
    assert!(out.allowed.is_empty());
}

#[test]
fn bad_panic_path_trips_only_panic_path() {
    let out = check_fixture("bad_panic_path.rs");
    assert_eq!(out.findings.len(), 4, "{out:?}");
    assert!(rules_of(&out).iter().all(|r| *r == "panic-path"));
    // All four panic sources in the seeded fn are caught…
    assert!(out
        .findings
        .iter()
        .all(|f| f.function.as_deref() == Some("advance")));
    for pattern in [".unwrap()", ".expect()", "panic!", "indexing"] {
        assert!(
            out.findings.iter().any(|f| f.message.contains(pattern)),
            "missing {pattern}: {out:?}"
        );
    }
    // …while the identical unwrap/index outside the hot closure is not.
    assert!(!out
        .findings
        .iter()
        .any(|f| f.function.as_deref() == Some("cold_report")));
}

#[test]
fn allowed_panic_path_becomes_inventory_candidate() {
    let out = check_fixture("ok_panic_path_allowed.rs");
    assert!(out.findings.is_empty(), "{out:?}");
    assert_eq!(out.allowed.len(), 2, "{out:?}");
    assert!(out.allowed.iter().all(|h| h.rule == "panic-path"));
    assert!(out.allowed.iter().all(|h| !h.reason.is_empty()));
}

#[test]
fn bad_float_order_trips_only_float_order() {
    let out = check_fixture("bad_float_order.rs");
    assert_eq!(out.findings.len(), 2, "{out:?}");
    assert!(rules_of(&out).iter().all(|r| *r == "float-order"));
    // The parallel reduction and the accumulating loop are both caught;
    // the sequential slice sum in `ordered_total` is not.
    assert!(out
        .findings
        .iter()
        .any(|f| f.function.as_deref() == Some("total")));
    assert!(out
        .findings
        .iter()
        .any(|f| f.function.as_deref() == Some("loop_total")));
    assert!(!out
        .findings
        .iter()
        .any(|f| f.function.as_deref() == Some("ordered_total")));
}

#[test]
fn allowed_float_order_becomes_inventory_candidate() {
    let out = check_fixture("ok_float_order_allowed.rs");
    assert!(out.findings.is_empty(), "{out:?}");
    assert_eq!(out.allowed.len(), 1, "{out:?}");
    assert_eq!(out.allowed[0].rule, "float-order");
}

#[test]
fn bad_time_cast_trips_only_time_cast() {
    let out = check_fixture("bad_time_cast.rs");
    assert_eq!(out.findings.len(), 3, "{out:?}");
    assert!(rules_of(&out).iter().all(|r| *r == "time-cast"));
    // u32/i64/f32 casts on time-named values are lossy; the f64 cast and
    // the non-time `count as u32` are not flagged.
    for target in ["u32", "i64", "f32"] {
        assert!(
            out.findings.iter().any(|f| f.message.contains(target)),
            "missing {target}: {out:?}"
        );
    }
}

#[test]
fn allowed_time_cast_becomes_inventory_candidate() {
    let out = check_fixture("ok_time_cast_allowed.rs");
    assert!(out.findings.is_empty(), "{out:?}");
    assert_eq!(out.allowed.len(), 1, "{out:?}");
    assert_eq!(out.allowed[0].rule, "time-cast");
}

#[test]
fn bad_sync_audit_trips_only_sync_audit() {
    let out = check_fixture("bad_sync_audit.rs");
    assert!(out.findings.len() >= 5, "{out:?}");
    assert!(rules_of(&out).iter().all(|r| *r == "sync-audit"));
    for pattern in ["static mut", "RefCell", "Mutex", "Atomic*"] {
        assert!(
            out.findings.iter().any(|f| f.message.contains(pattern)),
            "missing {pattern}: {out:?}"
        );
    }
    // The `use std::cell::RefCell;` declaration is not a use site: only
    // the field type on line 10 counts.
    assert_eq!(
        out.findings
            .iter()
            .filter(|f| f.message.contains("RefCell"))
            .count(),
        1,
        "{out:?}"
    );
}

#[test]
fn allowed_sync_audit_becomes_inventory_candidate() {
    let out = check_fixture("ok_sync_audit_allowed.rs");
    assert!(out.findings.is_empty(), "{out:?}");
    assert_eq!(out.allowed.len(), 1, "{out:?}");
    assert_eq!(out.allowed[0].rule, "sync-audit");
}

#[test]
fn unused_allow_is_uniform_across_ratcheted_rules() {
    for rule in [
        "hot-alloc",
        "panic-path",
        "float-order",
        "time-cast",
        "sync-audit",
    ] {
        let src = format!("// simlint: allow({rule}) — stale\npub fn quiet() {{}}\n");
        let out = check_source("crates/hpcsim/src/x.rs", &src);
        assert_eq!(out.findings.len(), 1, "{rule}: {out:?}");
        assert_eq!(out.findings[0].rule, "unused-allow");
        assert!(out.findings[0].message.contains(rule), "{rule}: {out:?}");
    }
}

#[test]
fn bad_probe_gating_trips_only_probe_gating() {
    let out = check_fixture("bad_probe_gating.rs");
    assert_eq!(out.findings.len(), 1, "{out:?}");
    assert_eq!(out.findings[0].rule, "probe-gating");
    assert!(out.findings[0].message.contains("on_queue_depth"));
}

#[test]
fn gated_probe_calls_are_clean() {
    let out = check_fixture("ok_probe_gating_gated.rs");
    assert!(out.findings.is_empty(), "{out:?}");
}

#[test]
fn unused_allow_is_reported() {
    let out = check_source(
        "crates/hpcsim/src/whatever.rs",
        "// simlint: allow(wall-clock) — nothing here needs it\npub fn quiet() {}\n",
    );
    assert_eq!(out.findings.len(), 1, "{out:?}");
    assert_eq!(out.findings[0].rule, "unused-allow");
}

#[test]
fn non_kernel_paths_are_out_of_scope() {
    let content = std::fs::read_to_string(format!(
        "{}/tests/fixtures/bad_wall_clock.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    // Bench binaries and foreign crates are exempt by path.
    for path in [
        "crates/bench/src/bin/speed_probe.rs",
        "vendor/serde/src/lib.rs",
    ] {
        let out = check_source(path, &content);
        assert!(out.findings.is_empty(), "{path} should be exempt");
    }
}

#[test]
fn edge_crates_get_determinism_rules_but_not_hot_path_discipline() {
    // swf/rlbf feed the byte-pinned schedules: wall-clock and
    // unordered-iter apply there too…
    let wall = std::fs::read_to_string(format!(
        "{}/tests/fixtures/bad_wall_clock.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    for path in ["crates/swf/src/lib.rs", "crates/rlbf/src/env.rs"] {
        let out = check_source(path, &wall);
        assert!(
            out.findings.iter().any(|f| f.rule == "wall-clock"),
            "{path}: {out:?}"
        );
    }
    // …but the hot-path/parallel-readiness rules stay kernel-only.
    for fixture in ["bad_hot_alloc.rs", "bad_panic_path.rs", "bad_sync_audit.rs"] {
        let content = std::fs::read_to_string(format!(
            "{}/tests/fixtures/{fixture}",
            env!("CARGO_MANIFEST_DIR")
        ))
        .unwrap();
        let out = check_source("crates/rlbf/src/train.rs", &content);
        assert!(out.findings.is_empty(), "{fixture} in rlbf: {out:?}");
    }
}

#[test]
fn observe_layer_is_exempt_from_wall_clock_but_not_unordered_iter() {
    let src = "\
use std::collections::HashMap;
use std::time::Instant;
pub fn snapshot(counts: &HashMap<usize, u32>) -> f64 {
    let t = Instant::now();
    for (_, v) in counts.iter() {
        let _ = v;
    }
    t.elapsed().as_secs_f64()
}
";
    let out = check_source("crates/hpcsim/src/observe.rs", src);
    assert!(
        out.findings.iter().all(|f| f.rule == "unordered-iter"),
        "{out:?}"
    );
    assert_eq!(out.findings.len(), 1);
}

#[test]
fn cfg_test_modules_are_exempt() {
    let src = "\
#[cfg(test)]
mod tests {
    pub fn earliest_fit(xs: &[u32]) -> Vec<u32> {
        let t = std::time::Instant::now();
        let _ = t;
        xs.to_vec()
    }
}
";
    let out = check_source("crates/hpcsim/src/profile.rs", src);
    assert!(out.findings.is_empty(), "{out:?}");
}

#[test]
fn injected_clone_in_earliest_fit_is_caught() {
    // The acceptance-criteria scenario, at the unit level: a stray
    // `.clone()` added to the availability-profile scan must be flagged
    // (the CLI test exercises the same via the ratchet on the real file).
    // Single-file analysis sees a smaller hot closure than the repo walk
    // (allows for hits only reachable cross-file read as unused here), so
    // assert on the *delta* the injection causes, not on absolute counts.
    let real = std::fs::read_to_string(format!(
        "{}/../hpcsim/src/profile.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    let before = check_source("crates/hpcsim/src/profile.rs", &real);
    assert!(
        !before
            .findings
            .iter()
            .any(|f| f.rule == "hot-alloc" && f.function.as_deref() == Some("earliest_fit")),
        "{before:?}"
    );

    let sabotaged = real.replacen(
        "let not_before = not_before.max(self.now);",
        "let not_before = not_before.max(self.now);\n        let _leak = self.buckets.clone();",
        1,
    );
    assert_ne!(real, sabotaged, "injection anchor missing from profile.rs");
    let after = check_source("crates/hpcsim/src/profile.rs", &sabotaged);
    let new: Vec<_> = after
        .findings
        .iter()
        .filter(|f| !before.findings.contains(f))
        .collect();
    assert_eq!(new.len(), 1, "{new:?}");
    assert_eq!(new[0].rule, "hot-alloc");
    assert_eq!(new[0].function.as_deref(), Some("earliest_fit"));
}

/// PR 8's hand-maintained hot-fn registry, verbatim. The call-graph pass
/// replaced it; this proves the derived closure does not regress its
/// coverage — every name the registry protected is still hot somewhere.
const PR8_HAND_REGISTRY: &[&str] = &[
    "earliest_fit",
    "earliest_avail",
    "avail_at",
    "next_candidate_after",
    "next_shortfall_after",
    "insert_contrib",
    "remove_contrib",
    "conservative_pass",
    "easy_pass",
    "easy_pass_with_order",
    "backfill",
    "backfill_candidates",
    "plan_conservative_starts",
    "conservative_starts",
    "shadow_extra",
    "would_delay",
    "would_delay_reserved",
    "estimated_start",
    "estimated_start_shared",
    "estimated_start_scratch",
    "best_move",
    "route",
    "reroute",
    "reroute_pass",
    "seek",
    "rebuild",
    "advance",
    "apply_due_events",
    "start_ready_jobs",
    "start_job",
    "schedule",
    "pop",
    "pop_until",
    "on_enqueue",
    "on_dequeue",
    "on_start",
    "on_complete",
    "on_resort",
];

#[test]
fn derived_hot_set_covers_the_retired_hand_registry() {
    // Derive live from the real kernel sources — same inputs the repo
    // walk uses — rather than trusting the committed artifact (the
    // hot-set ratchet already pins that to this derivation).
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    for dir in ["crates/desim/src", "crates/hpcsim/src"] {
        collect_rs(std::path::Path::new(&format!("{root}/{dir}")), &mut paths);
    }
    paths.sort();
    let files: Vec<simlint::source::SourceFile> = paths
        .iter()
        .map(|p| {
            let rel = p
                .strip_prefix(&root)
                .unwrap()
                .to_string_lossy()
                .trim_start_matches('/')
                .replace('\\', "/");
            simlint::source::SourceFile::parse(&rel, &std::fs::read_to_string(p).unwrap())
        })
        .collect();
    let hot = simlint::graph::CallGraph::build(&files).hot_set();
    let names = hot.names();
    let missing: Vec<_> = PR8_HAND_REGISTRY
        .iter()
        .filter(|n| !names.contains(**n))
        .collect();
    assert!(
        missing.is_empty(),
        "derived hot set lost registry coverage: {missing:?}"
    );
}

fn collect_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}
