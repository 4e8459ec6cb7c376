//! Output checks: per-cell outcomes, job conservation, determinism across
//! passes, and the outcomes pinned in `expected.json` at the default seed.

use hpcsim::Telemetry;
use serde::Serialize;
use serde_json::Value;

/// The deterministic outcome of one scenario cell, window set or epoch.
#[derive(Debug, Clone)]
pub struct Cell {
    pub label: String,
    /// Mean bounded slowdown (the quantity the paper reports).
    pub bsld: f64,
    /// Named integer outcomes. `jobs`, `completed` and `dropped` are
    /// checked for conservation when present.
    pub counts: Vec<(&'static str, u64)>,
    /// Kernel counters, when the cell ran under a `Recorder`.
    pub telemetry: Option<Telemetry>,
}

impl Cell {
    /// Same label, same bsld bits, same counts (telemetry aside: the
    /// untraced passes do not collect it).
    pub fn same_outcome(&self, other: &Cell) -> bool {
        self.label == other.label
            && self.bsld.to_bits() == other.bsld.to_bits()
            && self.counts == other.counts
    }

    fn count(&self, name: &str) -> Option<u64> {
        self.counts
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }

    /// Problems every cell is checked for, at every seed.
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !(self.bsld.is_finite() && self.bsld >= 1.0) {
            out.push(format!(
                "{}: bsld {} is not a finite value ≥ 1",
                self.label, self.bsld
            ));
        }
        if let (Some(jobs), Some(completed), Some(dropped)) = (
            self.count("jobs"),
            self.count("completed"),
            self.count("dropped"),
        ) {
            if completed + dropped != jobs {
                out.push(format!(
                    "{}: {completed} completed + {dropped} dropped != {jobs} jobs",
                    self.label
                ));
            }
        }
        out
    }

    /// The pinned form: bsld bits, counts, and telemetry when present.
    fn pin(&self, with_telemetry: bool) -> Value {
        let mut entries = vec![(
            "bsld_bits".to_string(),
            format!("{:#018x}", self.bsld.to_bits()).to_value(),
        )];
        entries.extend(
            self.counts
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_value())),
        );
        if let (true, Some(t)) = (with_telemetry, &self.telemetry) {
            entries.push(("telemetry".into(), t.to_value()));
        }
        Value::Object(entries)
    }
}

/// Counts operations and collects what went wrong.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub warnings: Vec<String>,
    /// Traced mirrors whose outcome differed from the untraced pass.
    pub mirror_mismatches: u64,
}

impl Checks {
    /// Counts one operation (a cell, window set or epoch); it fails when
    /// `problems` is not empty.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures.extend(problems);
        }
    }

    pub fn warn(&mut self, msg: String) {
        eprintln!("warning: {msg}");
        self.warnings.push(msg);
    }

    /// Compares a mirror's cells with the pass it re-drives.
    pub fn mirror_matches(&mut self, what: &str, mirror: &[Cell], pass: &[Cell]) {
        let same =
            mirror.len() == pass.len() && mirror.iter().zip(pass).all(|(a, b)| a.same_outcome(b));
        if !same {
            self.mirror_mismatches += 1;
            self.warn(format!(
                "{what}: the mirror's outcome differs from the pass it re-drives \
                 (per-layer numbers of this run describe different work)"
            ));
        }
    }
}

/// The pinned outcomes, as committed.
const EXPECTED: &str = include_str!("../expected.json");

/// Where `BENCHMARK_BLESS=1` writes the pins.
const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected.json");

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn field_mut<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(entries) = v else {
        panic!("expected.json: `{key}`'s parent is not an object");
    };
    if let Some(i) = entries.iter().position(|(k, _)| k == key) {
        &mut entries[i].1
    } else {
        entries.push((key.to_string(), Value::Object(Vec::new())));
        &mut entries.last_mut().expect("just pushed").1
    }
}

/// Checks `cells` against the pins for (`scale`, `workload`). Telemetry is
/// compared only when `with_telemetry` (the recorded mirror's cells).
pub fn check_pins(
    scale: &str,
    workload: &str,
    cells: &[Cell],
    with_telemetry: bool,
    checks: &mut Checks,
) {
    let root: Value = serde_json::from_str(EXPECTED).expect("expected.json parses");
    let pins = field(&root, scale).and_then(|s| field(s, workload));
    for cell in cells {
        let problems = match pins.and_then(|p| field(p, &cell.label)) {
            None => vec![format!(
                "{workload}/{}: no pinned outcome in expected.json for the {scale} scale \
                 (pin it with BENCHMARK_BLESS=1)",
                cell.label
            )],
            Some(pinned) => {
                let mut got = cell.pin(with_telemetry);
                let mut want = pinned.clone();
                if !with_telemetry {
                    if let Value::Object(e) = &mut want {
                        e.retain(|(k, _)| k != "telemetry");
                    }
                }
                if let Value::Object(e) = &mut got {
                    e.sort_by(|a, b| a.0.cmp(&b.0));
                }
                if let Value::Object(e) = &mut want {
                    e.sort_by(|a, b| a.0.cmp(&b.0));
                }
                if got == want {
                    Vec::new()
                } else {
                    vec![format!(
                        "{workload}/{}: outcome differs from expected.json\n     got  {}\n     want {}",
                        cell.label,
                        serde_json::to_string(&got).unwrap_or_default(),
                        serde_json::to_string(&want).unwrap_or_default()
                    )]
                }
            }
        };
        checks.op(problems);
    }
}

/// Rewrites the pins of (`scale`, `workload`) in the source tree's
/// `expected.json` from `cells`.
pub fn bless(scale: &str, workload: &str, cells: &[Cell]) {
    let text = std::fs::read_to_string(EXPECTED_PATH).unwrap_or_else(|_| "{}".into());
    let mut root: Value = serde_json::from_str(&text).unwrap_or(Value::Object(Vec::new()));
    let pins = field_mut(field_mut(&mut root, scale), workload);
    *pins = Value::Object(
        cells
            .iter()
            .map(|c| (c.label.clone(), c.pin(true)))
            .collect(),
    );
    let json = serde_json::to_string_pretty(&root).expect("pins serialize");
    std::fs::write(EXPECTED_PATH, json + "\n").expect("can write expected.json");
    eprintln!(
        "blessed {} {workload} cells into {EXPECTED_PATH}",
        cells.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(bsld: f64, completed: u64) -> Cell {
        Cell {
            label: "c".into(),
            bsld,
            counts: vec![("jobs", 10), ("completed", completed), ("dropped", 1)],
            telemetry: None,
        }
    }

    #[test]
    fn conservation_and_bsld_are_checked() {
        assert!(cell(2.0, 9).problems().is_empty());
        assert_eq!(cell(2.0, 8).problems().len(), 1);
        assert_eq!(cell(f64::NAN, 9).problems().len(), 1);
        assert_eq!(cell(0.5, 9).problems().len(), 1);
    }

    #[test]
    fn outcomes_compare_bitwise() {
        assert!(cell(2.0, 9).same_outcome(&cell(2.0, 9)));
        assert!(!cell(2.0, 9).same_outcome(&cell(2.0 + f64::EPSILON * 2.0, 9)));
        let mut checks = Checks::default();
        checks.mirror_matches("x", &[cell(2.0, 9)], &[cell(3.0, 9)]);
        assert_eq!(checks.mirror_mismatches, 1);
        checks.op(vec!["bad".into()]);
        checks.op(Vec::new());
        assert_eq!((checks.attempted, checks.failed), (2, 1));
    }

    #[test]
    fn missing_pins_fail() {
        let mut checks = Checks::default();
        check_pins("no-such-scale", "w", &[cell(2.0, 9)], true, &mut checks);
        assert_eq!(checks.failed, 1);
    }
}
