//! In-memory span tracing for the traced run.
//!
//! The benchmark times calls into the repository's public functions from
//! outside: each call becomes a [`Span`] with a name, its causing span, and
//! the episode or scenario cell it belongs to. The process runs on one CPU
//! (see `main.rs`), so spans nest strictly on one thread. The kernel's own
//! phase spans (from an `hpcsim::Recorder`) are folded in as per-span
//! [`PhaseTotal`]s, because a 1M-job run yields millions of them.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub parent: Option<usize>,
    pub cell: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Leaf time inside a span that was measured by someone else (the kernel's
/// phase recorder): `count` phases of `name` totalling `total_ns`.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTotal {
    pub span: usize,
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
}

/// Records spans.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    phases: Vec<PhaseTotal>,
    open: Vec<usize>,
    /// The cell new spans belong to.
    pub cell: u64,
    enabled: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            phases: Vec::new(),
            open: Vec::new(),
            cell: 0,
            enabled: true,
        }
    }

    /// A tracer that records nothing, for the untraced runs of the same
    /// code.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            cell: self.cell,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Attributes externally measured phase time to the innermost open
    /// span (the kernel's `Recorder` spans inside an `execute` call).
    pub fn add_phase(&mut self, name: &'static str, count: u64, total_ns: u64) {
        if !self.enabled {
            return;
        }
        let span = *self.open.last().expect("phases belong to an open span");
        self.phases.push(PhaseTotal {
            span,
            name,
            count,
            total_ns,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Total duration (s) of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Self time per span, in ns: its duration minus the union of its
    /// children's intervals and its phase time. The self times of all
    /// spans and phases add up to the wall time the top-level spans cover,
    /// so layer shares add up to the traced run's coverage.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                children[p].push((
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                ));
            }
        }
        let mut phase_ns = vec![0u64; self.spans.len()];
        for p in &self.phases {
            phase_ns[p.span] += p.total_ns;
        }
        self.spans
            .iter()
            .zip(children)
            .zip(phase_ns)
            .map(|((s, c), phases)| s.dur_ns().saturating_sub(union_ns(c) + phases))
            .collect()
    }

    /// Self time (s) by span or phase name, summed.
    pub fn layer_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_default() += ns as f64 / 1e9;
        }
        for p in &self.phases {
            *out.entry(p.name).or_default() += p.total_ns as f64 / 1e9;
        }
        out
    }

    /// Wall time (s) covered by top-level spans.
    pub fn covered_s(&self) -> f64 {
        let roots = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        union_ns(roots) as f64 / 1e9
    }

    /// `{"spans": [{id, parent, cell, name, start_us, end_us}],
    /// "phases": [{span, name, count, total_us}]}`.
    pub fn to_json(&self) -> serde_json::Value {
        use serde::Serialize;
        use serde_json::Value;
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Object(vec![
                    ("id".into(), id.to_value()),
                    ("parent".into(), s.parent.to_value()),
                    ("cell".into(), s.cell.to_value()),
                    ("name".into(), s.name.to_value()),
                    ("start_us".into(), (s.start_ns as f64 / 1e3).to_value()),
                    ("end_us".into(), (s.end_ns as f64 / 1e3).to_value()),
                ])
            })
            .collect();
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("span".into(), p.span.to_value()),
                    ("name".into(), p.name.to_value()),
                    ("count".into(), p.count.to_value()),
                    ("total_us".into(), (p.total_ns as f64 / 1e3).to_value()),
                ])
            })
            .collect();
        Value::Object(vec![
            ("spans".into(), Value::Array(spans)),
            ("phases".into(), Value::Array(phases)),
        ])
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> serde_json::Value {
        use serde::Serialize;
        use serde_json::Value;
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), s.name.to_value()),
                    ("ph".into(), "X".to_value()),
                    ("ts".into(), (s.start_ns as f64 / 1e3).to_value()),
                    ("dur".into(), (s.dur_ns() as f64 / 1e3).to_value()),
                    ("pid".into(), 1u32.to_value()),
                    ("tid".into(), 1u32.to_value()),
                    (
                        "args".into(),
                        Value::Object(vec![("cell".into(), s.cell.to_value())]),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("displayTimeUnit".into(), "ms".to_value()),
            ("traceEvents".into(), Value::Array(events)),
        ])
    }
}

/// Length of the union of half-open intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            parent,
            cell: 0,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            spans,
            ..Tracer::new()
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) with children [10,30) and [30,50), and a
        // grandchild [12,18) under the first.
        let t = tracer(vec![
            span(None, "root", 0, 100),
            span(Some(0), "a", 10, 30),
            span(Some(0), "b", 30, 50),
            span(Some(1), "c", 12, 18),
        ]);
        let s = t.self_ns();
        assert_eq!(s, vec![60, 14, 20, 6]);
        assert_eq!(s.iter().sum::<u64>(), 100);
        assert_eq!(t.covered_s(), 100e-9);
    }

    #[test]
    fn overlapping_children_count_once_and_phases_are_leaves() {
        // Children [0,80) and [20,40) overlap: together they cover 80 ns.
        let mut t = tracer(vec![
            span(None, "parent", 0, 100),
            span(Some(0), "work", 0, 80),
            span(Some(0), "work", 20, 40),
        ]);
        assert_eq!(t.self_ns()[0], 20);
        t.phases.push(PhaseTotal {
            span: 1,
            name: "phase",
            count: 3,
            total_ns: 30,
        });
        assert_eq!(t.self_ns(), vec![20, 50, 20]);
        let layers = t.layer_seconds();
        assert!((layers["phase"] - 30e-9).abs() < 1e-18);
        assert!((layers["work"] - 70e-9).abs() < 1e-18);
        assert!((layers["parent"] - 20e-9).abs() < 1e-18);
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.cell = 7;
            t.span("inner", |t| t.span("leaf", |_| ()));
        });
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.cell))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", None, 0),
                ("inner", Some(0), 7),
                ("leaf", Some(1), 7)
            ]
        );
        assert!(t.covered_s() > 0.0);
        assert!(Tracer::off().span("x", |t| t.spans().is_empty()));
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(5, 10), (0, 3), (2, 6), (20, 21)]), 11);
        assert_eq!(union_ns(Vec::new()), 0);
    }
}
