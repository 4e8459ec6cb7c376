//! The ratchet inventories.
//!
//! Some rules are ratchets, not bans: an *allowed* hit (with a reason) is
//! legal but must appear in a committed, machine-readable inventory, so
//! the blessed surface only ever changes by deliberate, reviewed
//! re-blessing. Three inventories cover the ratcheted rules:
//!
//! | file                                       | rules                               |
//! |--------------------------------------------|-------------------------------------|
//! | `results/hot_alloc_inventory.json`         | `hot-alloc`                         |
//! | `results/panic_path_inventory.json`        | `panic-path`                        |
//! | `results/parallel_readiness_inventory.json`| `sync-audit`, `float-order`, `time-cast` |
//!
//! Entries are keyed by `(rule, file, function, pattern)` with an
//! occurrence count and the reason from the allow comment. The check
//! fails when code and inventory disagree in either direction:
//!
//! - an allowed hit not in the inventory → stale (someone added an allow
//!   without re-blessing);
//! - an inventory entry with no matching hit → also stale (the hit was
//!   fixed; the inventory must shrink to match).
//!
//! Un-allowed hits never reach this module — they are hard violations
//! reported by the engine directly. Re-bless with
//! `SIMLINT_BLESS=1 cargo run -p simlint -- check` (or `--bless`).

use crate::report::{object, to_pretty_json, Finding};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One committed inventory file and the rules it ratchets.
pub struct RatchetSpec {
    pub rel: &'static str,
    pub rules: &'static [&'static str],
}

pub const HOT_ALLOC: RatchetSpec = RatchetSpec {
    rel: "results/hot_alloc_inventory.json",
    rules: &["hot-alloc"],
};

pub const PANIC_PATH: RatchetSpec = RatchetSpec {
    rel: "results/panic_path_inventory.json",
    rules: &["panic-path"],
};

pub const PARALLEL_READINESS: RatchetSpec = RatchetSpec {
    rel: "results/parallel_readiness_inventory.json",
    rules: &["sync-audit", "float-order", "time-cast"],
};

pub const SPECS: &[&RatchetSpec] = &[&HOT_ALLOC, &PANIC_PATH, &PARALLEL_READINESS];

/// One allowed hit as the engine found it in the source.
#[derive(Debug, Clone)]
pub struct AllowedHit {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    /// Enclosing fn; empty for file-level hits (e.g. a `RefCell` field).
    pub function: String,
    pub pattern: &'static str,
    pub reason: String,
}

type Key = (String, String, String, String); // (rule, file, function, pattern)

/// Groups allowed hits for one spec into inventory form:
/// key → (count, reasons).
fn group<'a>(
    spec: &RatchetSpec,
    hits: impl Iterator<Item = &'a AllowedHit>,
) -> BTreeMap<Key, (u64, Vec<String>)> {
    let mut out: BTreeMap<Key, (u64, Vec<String>)> = BTreeMap::new();
    for h in hits.filter(|h| spec.rules.contains(&h.rule)) {
        let e = out
            .entry((
                h.rule.to_string(),
                h.file.clone(),
                h.function.clone(),
                h.pattern.to_string(),
            ))
            .or_default();
        e.0 += 1;
        if !h.reason.is_empty() && !e.1.contains(&h.reason) {
            e.1.push(h.reason.clone());
        }
    }
    out
}

/// Compares the allowed hits against one committed inventory.
pub fn check(root: &Path, spec: &RatchetSpec, hits: &[AllowedHit]) -> Vec<Finding> {
    let mut out = Vec::new();
    let current = group(spec, hits.iter());
    let label = spec.rules[0];

    let baseline = match std::fs::read_to_string(root.join(spec.rel)) {
        Ok(text) => match parse_baseline(&text, spec) {
            Ok(b) => b,
            Err(e) => {
                out.push(Finding::new(
                    label,
                    spec.rel,
                    0,
                    None,
                    format!("inventory unreadable ({e}); re-bless with SIMLINT_BLESS=1"),
                ));
                return out;
            }
        },
        Err(_) => {
            // No inventory and nothing to inventory is the vacuous-clean
            // state (fresh checkouts of repos without ratcheted allows).
            if !current.is_empty() {
                out.push(Finding::new(
                    label,
                    spec.rel,
                    0,
                    None,
                    format!(
                        "inventory missing ({} allowed {} hit(s) found); \
                         create it with SIMLINT_BLESS=1",
                        current.values().map(|(c, _)| c).sum::<u64>(),
                        spec.rules.join("/"),
                    ),
                ));
            }
            return out;
        }
    };

    for (key, (count, _)) in &current {
        let (rule, file, function, pattern) = key;
        match baseline.get(key) {
            None => {
                let line = hits
                    .iter()
                    .find(|h| h.rule == rule.as_str() && h.file == *file && h.function == *function)
                    .map(|h| h.line)
                    .unwrap_or(0);
                out.push(Finding::new(
                    rule,
                    file,
                    line,
                    Some(function).filter(|f| !f.is_empty()).map(String::as_str),
                    format!(
                        "allowed {pattern} in `{function}` is not in the committed {}; \
                         re-bless with SIMLINT_BLESS=1 so the ratchet stays honest",
                        spec.rel
                    ),
                ));
            }
            Some(base_count) if base_count != count => {
                out.push(Finding::new(
                    rule,
                    file,
                    0,
                    Some(function).filter(|f| !f.is_empty()).map(String::as_str),
                    format!(
                        "inventory says {base_count}× {pattern} in `{function}` but the code \
                         has {count}×; re-bless with SIMLINT_BLESS=1"
                    ),
                ));
            }
            Some(_) => {}
        }
    }

    for (key, base_count) in &baseline {
        let (rule, _file, function, pattern) = key;
        if !current.contains_key(key) {
            out.push(Finding::new(
                rule,
                spec.rel,
                0,
                None,
                format!(
                    "stale inventory entry: {base_count}× {pattern} in `{function}` \
                     no longer exists — shrink the inventory with SIMLINT_BLESS=1"
                ),
            ));
        }
    }

    out
}

/// Rewrites one inventory from the current allowed hits. A spec with no
/// hits and no existing file is skipped (vacuous mini-repos don't grow
/// empty inventories).
pub fn bless(root: &Path, spec: &RatchetSpec, hits: &[AllowedHit]) -> std::io::Result<()> {
    let grouped = group(spec, hits.iter());
    let path = root.join(spec.rel);
    if grouped.is_empty() && !path.exists() {
        return Ok(());
    }
    let entries: Vec<Value> = grouped
        .into_iter()
        .map(|((rule, file, function, pattern), (count, reasons))| {
            object(vec![
                ("rule", rule.to_value()),
                ("file", file.to_value()),
                ("function", function.to_value()),
                ("pattern", pattern.to_value()),
                ("count", count.to_value()),
                ("reason", reasons.join("; ").to_value()),
            ])
        })
        .collect();
    let doc = object(vec![
        ("version", 1u64.to_value()),
        ("entries", Value::Array(entries)),
    ]);
    std::fs::write(path, to_pretty_json(&doc))
}

fn parse_baseline(text: &str, spec: &RatchetSpec) -> Result<BTreeMap<Key, u64>, String> {
    let doc = serde::parse_value(text).map_err(|e| e.0)?;
    let entries = doc
        .get("entries")
        .and_then(Value::as_array)
        .ok_or("missing `entries` array")?;
    let mut out = BTreeMap::new();
    for e in entries {
        let field = |k: &str| {
            e.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry missing `{k}`"))
        };
        // Pre-v2 inventories had no `rule` field; default to the spec's
        // primary rule so old baselines parse (re-bless upgrades them).
        let rule = e
            .get("rule")
            .and_then(Value::as_str)
            .unwrap_or(spec.rules[0])
            .to_string();
        let key = (rule, field("file")?, field("function")?, field("pattern")?);
        let count = e
            .get("count")
            .and_then(Value::as_u64)
            .ok_or("entry missing `count`")?;
        out.insert(key, count);
    }
    Ok(out)
}
