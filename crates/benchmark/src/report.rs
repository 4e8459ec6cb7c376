//! Result rows, provenance, the result line, and `--compare`.

use crate::stats::{relative_gain, verdict, Summary};
use serde::{Deserialize, Serialize};

/// An end-to-end metric: what a user of the workload sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// The share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

impl EndToEnd {
    /// `BENCHMARK.json`'s name for the direction.
    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }
}

/// The end-to-end metrics every workload reports (`BENCHMARK.json` lists
/// the same names, units, directions and bounds).
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "throughput",
        unit: "items/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer a workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("trace.wall_s", "s"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.mirror_mismatches", "count"),
    ("swf.share_pct", "%"),
    ("rlbf.env_new.share_pct", "%"),
    ("rlbf.observe.share_pct", "%"),
    ("rlbf.env_step.share_pct", "%"),
    ("rlbf.act.share_pct", "%"),
    ("rlbf.pretrain.share_pct", "%"),
    ("ppo.buffer.share_pct", "%"),
    ("ppo.update.share_pct", "%"),
    ("hpcsim.execute.share_pct", "%"),
    ("hpcsim.arrival_batch.share_pct", "%"),
    ("hpcsim.backfill_scan.share_pct", "%"),
    ("hpcsim.conservative_pass.share_pct", "%"),
    ("hpcsim.reroute_pass.share_pct", "%"),
    ("bench.share_pct", "%"),
    ("rlbf.decisions", "count"),
    ("rlbf.episodes", "count"),
    ("rlbf.baseline_pct_of_env_new", "%"),
    ("pretrain.samples", "count"),
    ("ppo.batch_samples", "count"),
    ("ppo.pi_iters_run", "count"),
    ("ppo.v_iters_run", "count"),
    ("tinynn.policy_gflops", "GFLOP/s"),
    ("tinynn.value_gflops", "GFLOP/s"),
    ("desim.events", "count"),
    ("desim.heap_depth_mean", "count"),
    ("hpcsim.backfill_attempts_per_job", "ratio"),
    ("hpcsim.backfill_hit_ratio", "ratio"),
    ("hpcsim.fit_calls_per_job", "ratio"),
    ("hpcsim.buckets_per_fit", "ratio"),
    ("hpcsim.edge_ops_per_job", "ratio"),
    ("hpcsim.repair_entries_per_job", "ratio"),
    ("router.evals_per_job", "ratio"),
    ("router.plan_reuse_ratio", "ratio"),
    ("migration.candidates_per_job", "ratio"),
    ("migration.accept_ratio", "ratio"),
    ("platform.kills", "count"),
    ("quality.rlbf_bsld", "bsld"),
    ("quality.easy_bsld", "bsld"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    pub name: String,
    pub unit: String,
    /// "higher" / "lower" for end-to-end metrics; `None` for layer rows.
    pub better: Option<String>,
    pub bound: Option<f64>,
    pub stats: Summary,
}

impl Row {
    pub fn layer(name: &str, unit: &str, stats: Summary) -> Row {
        Row {
            name: name.into(),
            unit: unit.into(),
            better: None,
            bound: None,
            stats,
        }
    }
}

/// Where and how a result was produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    pub git_rev: String,
    /// `None` when the working directory is not a git checkout.
    pub git_dirty: Option<bool>,
    /// CPUs of the host (the benchmark itself runs on one of them).
    pub nproc: usize,
    pub cpu_model: String,
    pub rayon_threads: usize,
    pub rustc: String,
}

impl Provenance {
    pub fn collect() -> Provenance {
        let (git_rev, git_dirty) = git_state();
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Provenance {
            git_rev,
            git_dirty,
            nproc: cpuinfo
                .lines()
                .filter(|l| l.starts_with("processor"))
                .count()
                .max(1),
            cpu_model: cpuinfo
                .lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map_or_else(|| "unknown".into(), |m| m.trim().to_string()),
            rayon_threads: rayon::current_num_threads(),
            rustc: env!("BENCHMARK_RUSTC").into(),
        }
    }

    pub fn host(&self) -> String {
        format!("{} × {}", self.nproc, self.cpu_model)
    }
}

/// The commit and dirty flag of the checkout in the working directory.
/// Only asks git when `.git` is right here, so git never searches the
/// directories above the checkout.
fn git_state() -> (String, Option<bool>) {
    if !std::path::Path::new(".git").exists() {
        return ("unknown".into(), None);
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
    (rev, dirty)
}

/// The outcome of one workload run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub workload: String,
    pub traced: bool,
    pub smoke: bool,
    pub seed: u64,
    pub seconds: f64,
    pub provenance: Provenance,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub warnings: Vec<String>,
    pub end_to_end: Vec<Row>,
    pub per_layer: Vec<Row>,
}

impl WorkloadResult {
    /// The metrics of the result line: every end-to-end metric of an
    /// untraced run, every per-layer metric of a traced one.
    fn reported_metrics(&self) -> Vec<&Row> {
        if self.traced {
            PER_LAYER
                .iter()
                .filter_map(|(name, _)| self.per_layer.iter().find(|r| r.name == *name))
                .collect()
        } else {
            self.end_to_end.iter().collect()
        }
    }

    /// The one-line JSON result: `{correct, attempted, failed, metrics}`.
    pub fn result_line(&self) -> String {
        use serde_json::Value;
        let metrics = self
            .reported_metrics()
            .into_iter()
            .map(|r| {
                (
                    r.name.clone(),
                    Value::Object(vec![
                        ("value".into(), r.stats.median.to_value()),
                        ("unit".into(), r.unit.to_value()),
                    ]),
                )
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".into(), self.correct.to_value()),
            ("attempted".into(), self.attempted.to_value()),
            ("failed".into(), self.failed.to_value()),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("result line serializes")
    }

    /// A human-readable table on stderr.
    pub fn print(&self) {
        let p = &self.provenance;
        eprintln!(
            "\n## {}{} · seed {} · {} s · {}\n   rev {}{} · host {} · rayon {} threads · {}",
            self.workload,
            if self.traced { " (traced)" } else { "" },
            self.seed,
            self.seconds,
            if self.smoke {
                "smoke scale"
            } else {
                "full scale"
            },
            p.git_rev,
            match p.git_dirty {
                Some(true) => " (dirty)",
                _ => "",
            },
            p.host(),
            p.rayon_threads,
            p.rustc
        );
        eprintln!(
            "   checks: {} attempted, {} failed{}",
            self.attempted,
            self.failed,
            if self.correct {
                ""
            } else {
                " — OUTPUTS INCORRECT"
            }
        );
        for f in &self.failures {
            eprintln!("   FAIL {f}");
        }
        for w in &self.warnings {
            eprintln!("   warn {w}");
        }
        eprintln!(
            "   {:<38} {:>9} {:>5} {:>13} {:>13} {:>13} {:>13} {:>13} {:>16} {:>9}",
            "metric", "unit", "n", "median", "q1", "q3", "min", "max", "tail", "bound"
        );
        for r in self.end_to_end.iter().chain(&self.per_layer) {
            let s = &r.stats;
            eprintln!(
                "   {:<38} {:>9} {:>5} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>13.6} {:>16} {:>9}",
                r.name,
                r.unit,
                s.n,
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.tail.map_or("-".into(), |(p, v)| format!("p{p}={v:.3}")),
                r.bound.map_or("-".into(), |b| format!(
                    "{}{:.0}%",
                    if r.better.as_deref() == Some("higher") {
                        "-"
                    } else {
                        "+"
                    },
                    b * 100.0
                )),
            );
        }
    }
}

/// Prints, per workload and metric, both sides' medians and quartiles,
/// the change, and a verdict; then the per-layer deltas.
pub fn compare(a: &[WorkloadResult], b: &[WorkloadResult]) -> String {
    let mut out = String::new();
    for rb in b {
        let Some(ra) = a
            .iter()
            .find(|r| r.workload == rb.workload && r.traced == rb.traced)
        else {
            out += &format!("\n## {}: missing from the baseline\n", rb.workload);
            continue;
        };
        out += &format!(
            "\n## {}{}  (A {} · B {})\n",
            rb.workload,
            if rb.traced { " (traced)" } else { "" },
            short(&ra.provenance.git_rev),
            short(&rb.provenance.git_rev)
        );
        out += &format!(
            "   {:<38} {:>13} {:>27} {:>13} {:>27} {:>9}  verdict\n",
            "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "Δ%"
        );
        for row in &rb.end_to_end {
            let Some(base) = ra.end_to_end.iter().find(|r| r.name == row.name) else {
                continue;
            };
            let higher = row.better.as_deref() == Some("higher");
            let bound = row.bound.unwrap_or(0.0);
            let v = verdict(&base.stats, &row.stats, higher, bound);
            out += &format_pair(base, row, v.label());
        }
        if !rb.per_layer.is_empty() {
            out += "   per layer:\n";
            for row in &rb.per_layer {
                if let Some(base) = ra.per_layer.iter().find(|r| r.name == row.name) {
                    out += &format_pair(base, row, "");
                }
            }
        }
    }
    out
}

fn format_pair(a: &Row, b: &Row, verdict: &str) -> String {
    let delta = relative_gain(a.stats.median, b.stats.median, true) * 100.0;
    format!(
        "   {:<38} {:>13.6} [{:>12.6}, {:>12.6}] {:>13.6} [{:>12.6}, {:>12.6}] {:>+8.2}%  {}\n",
        b.name,
        a.stats.median,
        a.stats.q1,
        a.stats.q3,
        b.stats.median,
        b.stats.q1,
        b.stats.q3,
        delta,
        verdict
    )
}

fn short(rev: &str) -> &str {
    &rev[..rev.len().min(10)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(traced: bool, throughput: &[f64]) -> WorkloadResult {
        WorkloadResult {
            workload: "w".into(),
            traced,
            smoke: true,
            seed: 1,
            seconds: 1.0,
            provenance: Provenance::collect(),
            correct: true,
            attempted: 3,
            failed: 0,
            failures: Vec::new(),
            warnings: Vec::new(),
            end_to_end: vec![Row {
                name: "throughput".into(),
                unit: "items/s".into(),
                better: Some("higher".into()),
                bound: Some(0.1),
                stats: Summary::of(throughput),
            }],
            per_layer: vec![Row::layer("desim.events", "count", Summary::exact(5.0))],
        }
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let section = |name: &str| -> Vec<serde_json::Value> { serde::field(&doc, name).unwrap() };
        let declared: Vec<(String, String, String, f64)> = section("end_to_end")
            .iter()
            .map(|m| {
                (
                    serde::field(m, "name").unwrap(),
                    serde::field(m, "unit").unwrap(),
                    serde::field(m, "better").unwrap(),
                    serde::field(m, "bound").unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better().into(), m.bound))
            .collect();
        assert_eq!(declared, ours);
        let declared: Vec<(String, String)> = section("per_layer")
            .iter()
            .map(|m| {
                (
                    serde::field(m, "name").unwrap(),
                    serde::field(m, "unit").unwrap(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared, ours);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let r = result(false, &[1.0, 2.0, 3.0]);
        let v: serde_json::Value = serde_json::from_str(&r.result_line()).unwrap();
        let serde_json::Value::Object(entries) = v else {
            panic!("the result line is an object");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(r
            .result_line()
            .contains(r#""throughput":{"value":2.0,"unit":"items/s"}"#));
        // A traced run reports the per-layer metrics instead.
        let t = result(true, &[1.0]);
        assert!(t
            .result_line()
            .contains(r#""desim.events":{"value":5.0,"unit":"count"}"#));
        assert!(!t.result_line().contains("throughput"));
    }

    #[test]
    fn compare_reports_a_verdict_per_metric() {
        let a = [result(false, &[100.0, 101.0, 99.0])];
        let b = [result(false, &[150.0, 151.0, 149.0])];
        let text = compare(&a, &b);
        assert!(text.contains("throughput"), "{text}");
        assert!(text.contains("+50.00%  better"), "{text}");
        assert!(text.contains("desim.events"), "{text}");
        let worse = compare(&b, &a);
        assert!(worse.contains("worse"), "{worse}");
    }
}
