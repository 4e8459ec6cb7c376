//! Kernel-vs-seed throughput probe. Prints a table and writes
//! `results/bench_kernel.json` — the committed speedup numbers referenced
//! by ARCHITECTURE.md and the PR notes.
//!
//! "seed" is the full seed cost model preserved in `hpcsim::reference`:
//! linear-scan engine + naive availability profile + seed pass logic,
//! run through `hpcsim::reference::run_seed_scheduler` on the same trace,
//! policy and backfilling as the kernel row's spec. Both sides realize
//! identical schedules (pinned by the `event_equivalence` suite), so this
//! measures engines, not algorithms.
//!
//! ```text
//! cargo run --release -p bench --bin speed_probe            # quick sizes
//! cargo run --release -p bench --bin speed_probe -- --full  # adds 100k
//! cargo run --release -p bench --bin speed_probe -- --partitions 2,4
//! cargo run --release -p bench --bin speed_probe -- --backfill cons --jobs 1000000
//! cargo run --release -p bench --bin speed_probe -- --migration
//! cargo run --release -p bench --bin speed_probe -- --backfill cons --jobs 10000 --floor 60000
//! ```
//!
//! * `--partitions N[,M…]` adds kernel-only rows for N-partition splits of
//!   the probe cluster (least-loaded routing; the seed engine has no
//!   partitioned mode, so there is no baseline column for those rows).
//! * `--backfill easy|cons` filters the probe (and skips the
//!   `bench_kernel.json` refresh, so a partial probe never clobbers the
//!   committed grid); `--jobs N[,M…]` replaces the size grid — any size
//!   goes, e.g. `--backfill cons --jobs 1000000` is the 1M-job
//!   conservative run the incremental planner makes routine.
//! * `--migration` times the decision-point migration scenarios (the
//!   `migration` bin's 2-/4-partition grid) end-to-end and merges the
//!   rows into `results/bench_migration_perf.json` under `--phase`
//!   (default `pr5-incremental`): rows of *other* phases are preserved,
//!   so the committed file keeps the frozen pre-incremental baseline next
//!   to the refreshed numbers — the perf trajectory in one file.
//! * `--floor J` exits nonzero if any measured kernel row falls below `J`
//!   jobs/sec — the CI perf smoke that keeps quadratic rebuilds from
//!   silently returning.
//! * `--telemetry` threads a [`Recorder`] probe through every timed run
//!   (so `--floor` then gates the *instrumented* throughput — the CI
//!   probe-overhead smoke runs the same floor with and without this
//!   flag), prints the deterministic counters per size, and merges the
//!   rows into `results/telemetry_scale.json` — the heap-depth and
//!   bucket-scan distributions the calendar-queue roadmap item needs.

use bench::{results_dir, write_json, TRACE_SEED};
use hpcsim::prelude::*;
use serde::Serialize;
use std::time::Instant;
use swf::{Trace, TracePreset, TraceSource};

#[derive(Serialize)]
struct Row {
    trace: String,
    jobs: usize,
    backfill: String,
    kernel_ms: f64,
    kernel_jobs_per_sec: f64,
    /// `None` for sizes where the seed cost model is impractically slow.
    seed_ms: Option<f64>,
    seed_jobs_per_sec: Option<f64>,
    speedup: Option<f64>,
}

#[derive(Serialize)]
struct TelemetryRow {
    trace: String,
    jobs: usize,
    backfill: String,
    telemetry: Telemetry,
}

#[derive(Serialize)]
struct MigrationRow {
    phase: String,
    scenario: String,
    parts: usize,
    router: String,
    backfill: String,
    reroute: String,
    jobs: usize,
    migrations: usize,
    wall_ms: f64,
    jobs_per_sec: f64,
}

fn time(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

fn arg_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let migration = args.iter().any(|a| a == "--migration");
    let telemetry = args.iter().any(|a| a == "--telemetry");
    let backfill_filter = arg_value(&args, "--backfill").map(|s| s.to_ascii_lowercase());
    let jobs_override: Option<Vec<usize>> = arg_value(&args, "--jobs").map(|list| {
        list.split(',')
            .map(|v| v.parse().expect("--jobs N[,M…]"))
            .collect()
    });
    let floor: Option<f64> = arg_value(&args, "--floor").map(|v| v.parse().expect("--floor J"));
    let phase = arg_value(&args, "--phase")
        .cloned()
        .unwrap_or_else(|| "pr5-incremental".to_string());
    let partitions: Vec<usize> = arg_value(&args, "--partitions")
        .map(|list| {
            list.split(',')
                .map(|v| v.parse().expect("--partitions N[,M…]"))
                .collect()
        })
        .unwrap_or_default();
    let preset = TracePreset::Lublin1;
    let mut rows = Vec::new();
    let mut telemetry_rows = Vec::new();

    // A backfill-filtered probe never refreshes bench_kernel.json (it
    // would drop the other backfill's committed rows); seed-baseline
    // timing only serves that file, so filtered runs skip it too. A
    // telemetry probe times the *instrumented* kernel path, so its rows
    // must never clobber the committed uninstrumented grid either.
    let filtered = backfill_filter.is_some() || telemetry;
    // A migration-only invocation (no explicit size grid) measures just
    // the migration scenarios: it must not rewrite the committed
    // bench_kernel.json grid with the small default sizes.
    let base_requested = jobs_override.is_some() || full || !partitions.is_empty() || !migration;
    let cases: Vec<(usize, bool)> = match &jobs_override {
        // The seed cost model is cubic-ish in practice: only time it at
        // sizes where a rep finishes in seconds.
        Some(ns) => ns.iter().map(|&n| (n, n <= 10_000)).collect(),
        None if !base_requested => Vec::new(),
        None if full => vec![(1_000, true), (10_000, true), (100_000, false)],
        None => vec![(1_000, true), (10_000, true)],
    };

    let backfills: Vec<(&str, Backfill)> = [
        ("EASY", Backfill::Easy(RuntimeEstimator::RequestTime)),
        (
            "CONS",
            Backfill::Conservative(RuntimeEstimator::RequestTime),
        ),
    ]
    .into_iter()
    .filter(|(label, _)| {
        backfill_filter
            .as_deref()
            .is_none_or(|f| label.eq_ignore_ascii_case(f))
    })
    .collect();
    if backfills.is_empty() {
        eprintln!(
            "--backfill {:?} matches nothing (use easy|cons)",
            backfill_filter.as_deref().unwrap_or("")
        );
        std::process::exit(1);
    }

    for &(n, seed_feasible) in &cases {
        let source = TraceSource::Preset {
            preset,
            jobs: n,
            seed: TRACE_SEED,
        };
        // Materialize once, outside the timed region: the probe measures
        // engines, not trace generation (`scenario::execute` is the
        // engine step over an already-materialized trace).
        let trace = source.materialize().expect("preset sources materialize");
        let reps = (20_000 / n).clamp(1, 20);
        for &(label, bf) in &backfills {
            let spec = ScenarioSpec::builder(source.clone()).backfill(bf).build();
            let k = if telemetry {
                time(reps, || {
                    std::hint::black_box(
                        hpcsim::scenario::execute_recorded(&trace, &spec, Recorder::default())
                            .expect("spec runs"),
                    );
                })
            } else {
                time(reps, || {
                    std::hint::black_box(
                        hpcsim::scenario::execute(&trace, &spec).expect("spec runs"),
                    );
                })
            };
            if telemetry {
                telemetry_rows.push(collect_telemetry(&trace, &spec, preset.name(), label));
            }
            let s = (seed_feasible && !filtered).then(|| {
                time(reps.min(3), || {
                    std::hint::black_box(hpcsim::reference::run_seed_scheduler(
                        &trace,
                        spec.policy,
                        bf,
                    ));
                })
            });
            println!(
                "{n:>7} jobs {label}  kernel {:>9.1} ms ({:>8.0} jobs/s)   seed {}   speedup {}",
                k * 1e3,
                n as f64 / k,
                s.map_or("      (skipped)".into(), |s| format!(
                    "{:>9.1} ms ({:>8.0} jobs/s)",
                    s * 1e3,
                    n as f64 / s
                )),
                s.map_or("    -".into(), |s| format!("{:>5.2}x", s / k)),
            );
            rows.push(Row {
                trace: preset.name().to_string(),
                jobs: n,
                backfill: label.to_string(),
                kernel_ms: k * 1e3,
                kernel_jobs_per_sec: n as f64 / k,
                seed_ms: s.map(|s| s * 1e3),
                seed_jobs_per_sec: s.map(|s| n as f64 / s),
                speedup: s.map(|s| s / k),
            });
        }
    }

    for &parts in &partitions {
        let n = 10_000;
        let source = TraceSource::PartitionedPreset {
            preset,
            parts,
            jobs: n,
            seed: TRACE_SEED,
        };
        let layout = source.layout().expect("partitioned source has a layout");
        let trace = source
            .materialize()
            .expect("partitioned source materializes");
        let jobs = trace.len();
        for &(label, bf) in &backfills {
            let spec = ScenarioSpec::builder(source.clone())
                .platform(Platform::from_layout(&layout, RouterSpec::LeastLoaded))
                .backfill(bf)
                .build();
            let k = time(2, || {
                std::hint::black_box(hpcsim::scenario::execute(&trace, &spec).expect("spec runs"));
            });
            println!(
                "{jobs:>7} jobs {label}  kernel {:>9.1} ms ({:>8.0} jobs/s)   {parts}-partition (no seed baseline)",
                k * 1e3,
                jobs as f64 / k,
            );
            rows.push(Row {
                trace: source.label(),
                jobs,
                backfill: label.to_string(),
                kernel_ms: k * 1e3,
                kernel_jobs_per_sec: jobs as f64 / k,
                seed_ms: None,
                seed_jobs_per_sec: None,
                speedup: None,
            });
        }
    }

    if !filtered && !rows.is_empty() {
        write_json("bench_kernel", &rows);
    } else if filtered && base_requested {
        eprintln!("filtered probe: skipping the bench_kernel.json refresh");
    }

    if !telemetry_rows.is_empty() {
        write_telemetry_rows(&telemetry_rows);
    }

    if migration {
        run_migration_rows(&phase, &backfills);
    }

    if let Some(floor) = floor {
        // An empty measurement set must fail loudly, not pass vacuously —
        // a typo'd filter would otherwise turn the CI gate into a no-op.
        if rows.is_empty() {
            eprintln!("--floor given but no kernel rows were measured (check the filters)");
            std::process::exit(1);
        }
        let worst = rows
            .iter()
            .map(|r| r.kernel_jobs_per_sec)
            .fold(f64::INFINITY, f64::min);
        if !floor_passes(worst, floor) {
            eprintln!("PERF REGRESSION: slowest kernel row {worst:.0} jobs/s < floor {floor:.0}");
            std::process::exit(1);
        }
        println!("perf floor ok: slowest kernel row {worst:.0} jobs/s ≥ floor {floor:.0}");
    }
}

/// The `--floor` acceptance predicate, explicit about its boundary: a row
/// **exactly at** the floor passes (`>=`), and a NaN measurement fails —
/// the negated-`<` formulation this replaces silently passed NaN, which
/// would have turned a broken measurement into a green CI gate.
fn floor_passes(worst_jobs_per_sec: f64, floor: f64) -> bool {
    worst_jobs_per_sec >= floor
}

/// One recorded (counters-only) run of `spec` over `trace`, reduced to a
/// committed-artifact row. The schedule realized under the recorder is
/// bitwise the uninstrumented one; only the telemetry is kept.
fn collect_telemetry(
    trace: &Trace,
    spec: &ScenarioSpec,
    trace_label: &str,
    backfill: &str,
) -> TelemetryRow {
    let (_, rec) = hpcsim::scenario::execute_recorded(trace, spec, Recorder::default())
        .expect("kernel spec runs recorded");
    let t = rec.telemetry().clone();
    eprintln!(
        "{:>7} jobs {backfill}  telemetry: {} events (heap peak {} mean {:.1}), \
         backfill {}/{} hits, {} repairs, {} fit calls / {} buckets",
        trace.len(),
        t.events,
        t.heap_depth_peak,
        t.heap_depth_mean(),
        t.backfill_hits,
        t.backfill_attempts,
        t.plan_repairs.iter().map(|r| r.count).sum::<u64>(),
        t.earliest_fit_calls,
        t.earliest_fit_buckets_scanned,
    );
    TelemetryRow {
        trace: trace_label.to_string(),
        jobs: trace.len(),
        backfill: backfill.to_string(),
        telemetry: t,
    }
}

/// Merges freshly measured telemetry rows into
/// `results/telemetry_scale.json` by (trace, jobs, backfill) key: a
/// partial probe (e.g. the CI 10k smoke) replaces only the cells it
/// re-measured, so the committed 100k/1M distributions survive. The
/// counters are deterministic, so a re-measured cell is byte-identical.
fn write_telemetry_rows(rows: &[TelemetryRow]) {
    fn key(row: &serde_json::Value) -> (String, u64, String) {
        let field = |k: &str| -> serde_json::Value {
            let serde_json::Value::Object(fields) = row else {
                return serde_json::Value::Null;
            };
            fields
                .iter()
                .find(|(name, _)| name == k)
                .map(|(_, v)| v.clone())
                .unwrap_or(serde_json::Value::Null)
        };
        let as_str = |v: serde_json::Value| match v {
            serde_json::Value::String(s) => s,
            other => serde_json::to_string(&other).unwrap_or_default(),
        };
        let jobs = match field("jobs") {
            serde_json::Value::Number(n) => n.as_f64() as u64,
            _ => 0,
        };
        (as_str(field("trace")), jobs, as_str(field("backfill")))
    }
    let path = results_dir().join("telemetry_scale.json");
    let mut merged: Vec<serde_json::Value> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str::<Vec<serde_json::Value>>(&s).ok())
        .unwrap_or_default();
    let fresh: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            let json = serde_json::to_string(r).expect("row serializes");
            serde_json::from_str(&json).expect("row round-trips")
        })
        .collect();
    let fresh_keys: Vec<_> = fresh.iter().map(key).collect();
    merged.retain(|r| !fresh_keys.contains(&key(r)));
    merged.extend(fresh);
    merged.sort_by_key(key);
    write_json("telemetry_scale", &merged);
}

/// Times the decision-point migration scenarios (the `migration` bin's
/// grid, timing-focused) and merges the rows into
/// `results/bench_migration_perf.json` under `phase`, preserving rows of
/// other phases — before/after numbers live in the same file.
fn run_migration_rows(phase: &str, backfills: &[(&str, Backfill)]) {
    const DECISION_POINTS: ReroutePolicy = ReroutePolicy::AtDecisionPoints {
        max_moves_per_job: 3,
        min_gain_secs: 60.0,
    };
    let routers = [
        RouterSpec::LeastLoaded,
        RouterSpec::EarliestStart(RuntimeEstimator::RequestTime),
    ];
    let mut rows: Vec<MigrationRow> = Vec::new();
    for parts in [2usize, 4] {
        let source = TraceSource::PartitionedPreset {
            preset: TracePreset::Lublin1,
            parts,
            jobs: 10_000,
            seed: TRACE_SEED,
        };
        let layout = source.layout().expect("partitioned source has a layout");
        let trace = source
            .materialize()
            .expect("partitioned source materializes");
        for router in routers {
            for &(label, bf) in backfills {
                let spec = ScenarioSpec::builder(source.clone())
                    .platform(Platform::from_layout(&layout, router).rerouted(DECISION_POINTS))
                    .policy(Policy::Fcfs)
                    .backfill(bf)
                    .build();
                let t0 = Instant::now();
                let result = hpcsim::scenario::execute(&trace, &spec).expect("spec runs");
                let wall = t0.elapsed().as_secs_f64();
                println!(
                    "{:>7} jobs {label}  {}p decision-points {:<14} {:>8.1} ms ({:>7.0} jobs/s, {} moves)",
                    trace.len(),
                    parts,
                    router.label(),
                    wall * 1e3,
                    trace.len() as f64 / wall,
                    result.migrations,
                );
                rows.push(MigrationRow {
                    phase: phase.to_string(),
                    scenario: source.label(),
                    parts,
                    router: router.label().to_string(),
                    backfill: label.to_string(),
                    reroute: DECISION_POINTS.label().to_string(),
                    jobs: trace.len(),
                    migrations: result.migrations,
                    wall_ms: wall * 1e3,
                    jobs_per_sec: trace.len() as f64 / wall,
                });
            }
        }
    }
    // Merge with the committed file: keep every row of other phases (the
    // frozen pre-incremental baseline), and replace only the
    // (phase, backfill) cells actually re-measured — a backfill-filtered
    // probe must not drop the other backfill's committed rows.
    fn field_str(row: &serde_json::Value, key: &str) -> String {
        let serde_json::Value::Object(fields) = row else {
            return String::new();
        };
        match fields.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
            Some(serde_json::Value::String(s)) => s.clone(),
            Some(other) => serde_json::to_string(other).unwrap_or_default(),
            None => String::new(),
        }
    }
    let path = results_dir().join("bench_migration_perf.json");
    let mut merged: Vec<serde_json::Value> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str::<Vec<serde_json::Value>>(&s).ok())
        .unwrap_or_default();
    let measured: Vec<&str> = backfills.iter().map(|&(label, _)| label).collect();
    merged.retain(|r| {
        field_str(r, "phase") != phase || !measured.contains(&field_str(r, "backfill").as_str())
    });
    merged.extend(rows.iter().map(|r| {
        let json = serde_json::to_string(r).expect("row serializes");
        serde_json::from_str(&json).expect("row round-trips")
    }));
    merged.sort_by_key(|r| {
        (
            field_str(r, "phase"),
            // Numeric sort: "16" must not order before "2".
            field_str(r, "parts").parse::<u64>().unwrap_or(0),
            field_str(r, "router"),
            field_str(r, "backfill"),
        )
    });
    write_json("bench_migration_perf", &merged);
}

#[cfg(test)]
mod tests {
    use super::floor_passes;

    #[test]
    fn floor_boundary_is_inclusive_and_nan_fails() {
        // Exactly at the floor passes; infinitesimally below fails.
        assert!(floor_passes(60_000.0, 60_000.0));
        assert!(!floor_passes(59_999.9, 60_000.0));
        assert!(floor_passes(60_000.1, 60_000.0));
        // A NaN measurement is a broken probe, never a green gate.
        assert!(!floor_passes(f64::NAN, 60_000.0));
        // Degenerate-but-defined edges.
        assert!(floor_passes(f64::INFINITY, 60_000.0));
        assert!(!floor_passes(f64::NEG_INFINITY, 60_000.0));
    }
}
