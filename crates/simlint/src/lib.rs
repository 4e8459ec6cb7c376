//! simlint — project-invariant static analysis for the simulation kernel.
//!
//! The test suite defends this repo's invariants *dynamically*; simlint
//! states the statable ones at the source level and checks them in CI,
//! before anything runs:
//!
//! | rule            | invariant                                               | scope                    |
//! |-----------------|---------------------------------------------------------|--------------------------|
//! | `wall-clock`    | no wall-clock reads                                     | kernel + swf/rlbf        |
//! | `unordered-iter`| no iteration over hash-ordered collections              | kernel + swf/rlbf        |
//! | `hot-alloc`     | hot functions don't allocate (ratcheted inventory)      | kernel                   |
//! | `panic-path`    | hot functions don't panic (ratcheted inventory)         | kernel                   |
//! | `float-order`   | no float reduction over order-unstable iteration        | kernel (ratcheted)       |
//! | `time-cast`     | no lossy `as` casts on time values                      | kernel (ratcheted)       |
//! | `sync-audit`    | shared-mutability machinery is inventoried              | kernel (ratcheted)       |
//! | `probe-gating`  | probe hooks sit behind `P::ENABLED`                     | kernel                   |
//! | `macro-fn`      | no `fn` defined inside a `macro_rules!` body            | kernel + swf/rlbf        |
//! | `hot-set`       | the derived hot set matches `results/hot_set.json`      | repo                     |
//! | `pin-coverage`  | result pins are referenced; scenario JSON parses        | repo                     |
//!
//! "Hot" is no longer a hand list: a call-graph pass ([`graph`]) derives
//! the transitive closure from the seed entry points and ratchets it as
//! `results/hot_set.json`. Escapes are inline:
//! `// simlint: allow(<rule>) — <reason>` on the offending line or the
//! line above. The ratcheted rules additionally feed the committed
//! inventories (see [`inventory`]), re-blessed via `SIMLINT_BLESS=1`.
//! The analysis is built on a small hand-rolled Rust lexer — see
//! `src/lexer.rs` for why; JSON is read and written through the vendored
//! `serde` value tree.

pub mod graph;
pub mod inventory;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;

use graph::{CallGraph, HotSet};
use inventory::AllowedHit;
use report::{Finding, Report};
use rules::RatchetHit;
use source::SourceFile;
use std::path::Path;

/// What one source file contributes to a run.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Violations (allow directives already applied).
    pub findings: Vec<Finding>,
    /// Allowed ratcheted hits (hot-alloc, panic-path, sync-audit,
    /// float-order, time-cast), destined for the inventories.
    pub allowed: Vec<AllowedHit>,
}

/// Which rules a source file is subject to, decided by path.
struct RuleScope {
    wall_clock: bool,
    unordered_iter: bool,
    hot_alloc: bool,
    probe_gating: bool,
    panic_path: bool,
    float_order: bool,
    time_cast: bool,
    sync_audit: bool,
}

fn scope_for(rel_path: &str) -> Option<RuleScope> {
    if !rel_path.ends_with(".rs") {
        return None;
    }
    let kernel =
        rel_path.starts_with("crates/desim/src/") || rel_path.starts_with("crates/hpcsim/src/");
    // Trace generation and env stepping feed the byte-pinned schedules
    // too: the determinism rules (wall-clock, unordered-iter) extend to
    // them, but the hot-path/parallel-readiness discipline stays
    // kernel-only.
    let edge = rel_path.starts_with("crates/swf/src/") || rel_path.starts_with("crates/rlbf/src/");
    if !kernel && !edge {
        return None;
    }
    if edge {
        return Some(RuleScope {
            wall_clock: true,
            unordered_iter: true,
            hot_alloc: false,
            probe_gating: false,
            panic_path: false,
            float_order: false,
            time_cast: false,
            sync_audit: false,
        });
    }
    // The observe layer is the sanctioned measurement boundary: it may
    // read the wall clock, it allocates only when recording is on, and it
    // is where probe hooks terminate.
    let observe = rel_path.contains("observe");
    // Probe trait definitions (and their no-op impls) are the callee side
    // of the gating contract, not call sites.
    let probe_def = rel_path.ends_with("/probe.rs");
    // The audit layer is cold by construction (guarded by `audit_on`).
    let cold = observe || rel_path.contains("audit");
    // The sanctioned sync module: desim's replicated-run machinery today,
    // `desim/src/sync/` once the threadsafe split lands.
    let sanctioned_sync = rel_path == "crates/desim/src/replicate.rs"
        || rel_path.starts_with("crates/desim/src/sync/");
    Some(RuleScope {
        wall_clock: !observe,
        unordered_iter: true,
        hot_alloc: !cold,
        probe_gating: !observe && !probe_def,
        panic_path: !cold,
        float_order: true,
        time_cast: true,
        sync_audit: !sanctioned_sync,
    })
}

/// Splits a ratcheted rule's raw hits into hard violations and allowed
/// inventory candidates. An allow without a reason is itself a violation
/// — the inventory records *why* each blessed site is acceptable.
fn apply_ratchet(
    rule: &'static str,
    hits: Vec<RatchetHit>,
    sf: &SourceFile,
    out: &mut FileOutcome,
) {
    for hit in hits {
        let function = (!hit.function.is_empty()).then_some(hit.function.as_str());
        match sf.allow_for(rule, hit.line) {
            Some(d) if d.reason.is_empty() => out.findings.push(Finding::new(
                rule,
                &sf.rel_path,
                hit.line,
                function,
                format!(
                    "allow({rule}) needs a reason — the inventory records *why* \
                     {} at this site is acceptable",
                    hit.pattern
                ),
            )),
            Some(d) => out.allowed.push(AllowedHit {
                rule,
                file: sf.rel_path.clone(),
                line: hit.line,
                function: hit.function,
                pattern: hit.pattern,
                reason: d.reason.clone(),
            }),
            None => out.findings.push(Finding::new(
                rule,
                &sf.rel_path,
                hit.line,
                function,
                hit.message,
            )),
        }
    }
}

/// Runs every in-scope rule over one analyzed file against a hot set.
fn check_parsed(sf: &SourceFile, scope: &RuleScope, hot: &HotSet) -> FileOutcome {
    let mut out = FileOutcome::default();

    let apply = |findings: Vec<Finding>, out: &mut FileOutcome| {
        for f in findings {
            if sf.allow_for(&f.rule, f.line).is_none() {
                out.findings.push(f);
            }
        }
    };

    if scope.wall_clock {
        apply(rules::wall_clock::check(sf), &mut out);
    }
    if scope.unordered_iter {
        apply(rules::unordered_iter::check(sf), &mut out);
    }
    if scope.probe_gating {
        apply(rules::probe_gating::check(sf), &mut out);
    }
    // Every analyzed file: a fn hidden in a macro body is invisible to the
    // call graph wherever it lives.
    apply(rules::macro_fn::check(sf), &mut out);
    if scope.hot_alloc {
        apply_ratchet(
            rules::hot_alloc::RULE,
            rules::hot_alloc::hits(sf, hot),
            sf,
            &mut out,
        );
    }
    if scope.panic_path {
        apply_ratchet(
            rules::panic_path::RULE,
            rules::panic_path::hits(sf, hot),
            sf,
            &mut out,
        );
    }
    if scope.float_order {
        apply_ratchet(
            rules::float_order::RULE,
            rules::float_order::hits(sf),
            sf,
            &mut out,
        );
    }
    if scope.time_cast {
        apply_ratchet(
            rules::time_cast::RULE,
            rules::time_cast::hits(sf),
            sf,
            &mut out,
        );
    }
    if scope.sync_audit {
        apply_ratchet(
            rules::sync_audit::RULE,
            rules::sync_audit::hits(sf),
            sf,
            &mut out,
        );
    }

    // A directive nothing consumed is itself a defect: stale allows hide
    // future violations on their line.
    for d in &sf.allows {
        if !d.used.get() {
            out.findings.push(Finding::new(
                "unused-allow",
                &sf.rel_path,
                d.line,
                None,
                format!(
                    "allow({}) matches no finding on this or the next line; delete it",
                    d.rule
                ),
            ));
        }
    }

    out
}

/// Checks one in-memory source file (the unit fixtures funnel through
/// here). `rel_path` decides rule applicability; the hot set is derived
/// from this file alone, so intra-file reachability from the seed entry
/// points is what counts.
pub fn check_source(rel_path: &str, content: &str) -> FileOutcome {
    let Some(scope) = scope_for(rel_path) else {
        return FileOutcome::default();
    };
    let sf = SourceFile::parse(rel_path, content);
    let hot = CallGraph::build(std::slice::from_ref(&sf)).hot_set();
    check_parsed(&sf, &scope, &hot)
}

/// Walks the scanned crates, builds the whole-workspace call graph,
/// derives the hot set, and runs every rule; `bless` rewrites the hot
/// set and the inventories instead of diffing against them.
pub fn check_repo(root: &Path, bless: bool) -> std::io::Result<Report> {
    let mut report = Report::default();

    // Pass 1: parse everything in scope.
    let mut paths = Vec::new();
    for crate_dir in [
        "crates/desim/src",
        "crates/hpcsim/src",
        "crates/swf/src",
        "crates/rlbf/src",
    ] {
        walk_rs(&root.join(crate_dir), &mut paths);
    }
    paths.sort();

    let mut files: Vec<SourceFile> = Vec::new();
    let mut scopes: Vec<RuleScope> = Vec::new();
    for path in paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Some(scope) = scope_for(&rel) else {
            continue;
        };
        let content = std::fs::read_to_string(&path)?;
        files.push(SourceFile::parse(&rel, &content));
        scopes.push(scope);
    }
    source::mark_cfg_test_files(&mut files);

    // Pass 2: the call graph spans the kernel crates (all files at once,
    // so a kernel fn called only from another file is still hot). The
    // swf/rlbf edge crates are deliberately outside it: the rules the
    // hot set drives are kernel-scoped, and name fan-out through edge
    // crates (`.step()`, `.len()`) would only pollute the ratchet.
    let sfs: Vec<&SourceFile> = files
        .iter()
        .filter(|sf| {
            sf.rel_path.starts_with("crates/desim/src/")
                || sf.rel_path.starts_with("crates/hpcsim/src/")
        })
        .collect();
    let graph = CallGraph::build_refs(&sfs);
    let hot = graph.hot_set();
    report.hot_functions = hot.len();

    // Pass 3: rules per file.
    let mut allowed: Vec<AllowedHit> = Vec::new();
    for (sf, scope) in files.iter().zip(&scopes) {
        let mut outcome = check_parsed(sf, scope, &hot);
        report.findings.append(&mut outcome.findings);
        allowed.append(&mut outcome.allowed);
        report.files_checked += 1;
    }

    report.inventoried = allowed.len();
    if bless {
        graph::bless(root, &hot)?;
        for spec in inventory::SPECS {
            inventory::bless(root, spec, &allowed)?;
        }
    } else {
        report.findings.append(&mut graph::check(root, &hot));
        for spec in inventory::SPECS {
            report
                .findings
                .append(&mut inventory::check(root, spec, &allowed));
        }
    }

    report
        .findings
        .append(&mut rules::pin_coverage::check(root));

    report.findings.sort();
    Ok(report)
}

fn walk_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            walk_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}
