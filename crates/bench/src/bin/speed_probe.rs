//! Kernel throughput probe: the deterministic telemetry counters and the
//! CI throughput floor. Prints one kernel row per (size, backfill).
//!
//! ```text
//! cargo run --release -p bench --bin speed_probe            # 1k/10k, EASY + CONS
//! cargo run --release -p bench --bin speed_probe -- --backfill cons --jobs 10000 --floor 60000
//! cargo run --release -p bench --bin speed_probe -- --telemetry --backfill cons --jobs 10000,100000,1000000
//! ```
//!
//! * `--backfill easy|cons` probes one backfill only; `--jobs N[,M…]`
//!   replaces the 1k/10k size grid with any positive sizes.
//! * `--floor J` exits nonzero if any measured kernel row falls below `J`
//!   jobs/sec — the CI perf smoke that keeps quadratic rebuilds from
//!   silently returning.
//! * `--telemetry` threads a [`Recorder`] probe through every timed run
//!   (so `--floor` then gates the *instrumented* throughput — the CI
//!   probe-overhead smoke runs the same floor with and without this
//!   flag), prints the deterministic counters per size, and merges the
//!   rows into `results/telemetry_scale.json`.
//!
//! Any other argument is rejected. Repeatable wall-clock numbers (reps,
//! spread, provenance) come from `crates/benchmark` (`sched-1m`,
//! `cluster-4p`); the kernel-vs-seed comparison is the `kernel` criterion
//! bench.

use bench::{results_dir, write_json, TRACE_SEED};
use hpcsim::prelude::*;
use serde::Serialize;
use std::time::Instant;
use swf::{Trace, TracePreset, TraceSource};

const USAGE: &str =
    "usage: speed_probe [--backfill easy|cons] [--jobs N[,M...]] [--telemetry] [--floor J]";

const BACKFILLS: [(&str, Backfill); 2] = [
    ("EASY", Backfill::Easy(RuntimeEstimator::RequestTime)),
    (
        "CONS",
        Backfill::Conservative(RuntimeEstimator::RequestTime),
    ),
];

/// One probe run's configuration, as parsed from the command line.
#[derive(Debug, PartialEq)]
struct Args {
    backfills: Vec<(&'static str, Backfill)>,
    jobs: Vec<usize>,
    telemetry: bool,
    floor: Option<f64>,
}

/// Parses the probe's arguments, rejecting anything that is not one of
/// its four flags (with its value), a flag missing its value, and a
/// `--jobs` entry that is not a positive integer.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        backfills: BACKFILLS.to_vec(),
        jobs: vec![1_000, 10_000],
        telemetry: false,
        floor: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--telemetry" {
            parsed.telemetry = true;
            continue;
        }
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--backfill" => {
                let name = value()?;
                parsed.backfills = BACKFILLS
                    .into_iter()
                    .filter(|(label, _)| label.eq_ignore_ascii_case(name))
                    .collect();
                if parsed.backfills.is_empty() {
                    return Err(format!("--backfill {name:?} is not easy or cons"));
                }
            }
            "--jobs" => {
                parsed.jobs = value()?
                    .split(',')
                    .map(|v| {
                        v.parse()
                            .ok()
                            .filter(|&n: &usize| n > 0)
                            .ok_or_else(|| format!("--jobs entry {v:?} is not a positive integer"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--floor" => {
                let v = value()?;
                let floor = v
                    .parse()
                    .map_err(|_| format!("--floor {v:?} is not a number"))?;
                parsed.floor = Some(floor);
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(parsed)
}

#[derive(Serialize)]
struct TelemetryRow {
    trace: String,
    jobs: usize,
    backfill: String,
    telemetry: Telemetry,
}

fn time(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("speed_probe: {e}. {USAGE}");
        std::process::exit(2);
    });
    let preset = TracePreset::Lublin1;
    let mut worst = f64::INFINITY;
    let mut telemetry_rows = Vec::new();

    for &n in &args.jobs {
        let source = TraceSource::Preset {
            preset,
            jobs: n,
            seed: TRACE_SEED,
        };
        // Materialize once, outside the timed region: the probe measures
        // the engine, not trace generation (`scenario::execute` is the
        // engine step over an already-materialized trace).
        let trace = source.materialize().expect("preset sources materialize");
        let reps = (20_000 / n).clamp(1, 20);
        for &(label, bf) in &args.backfills {
            let spec = ScenarioSpec::builder(source.clone()).backfill(bf).build();
            let k = if args.telemetry {
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
            if args.telemetry {
                telemetry_rows.push(collect_telemetry(&trace, &spec, preset.name(), label));
            }
            let jobs_per_sec = n as f64 / k;
            println!(
                "{n:>7} jobs {label}  kernel {:>9.1} ms ({jobs_per_sec:>8.0} jobs/s)",
                k * 1e3,
            );
            worst = worst.min(jobs_per_sec);
        }
    }

    if args.telemetry {
        write_telemetry_rows(&telemetry_rows);
    }

    if let Some(floor) = args.floor {
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
        use serde_json::Value;
        let text = |k: &str| row.get(k).and_then(Value::as_str).unwrap_or_default();
        let jobs = row.get("jobs").and_then(Value::as_u64).unwrap_or(0);
        (text("trace").into(), jobs, text("backfill").into())
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

#[cfg(test)]
mod tests {
    use super::{floor_passes, parse_args, Args, BACKFILLS};

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

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

    #[test]
    fn ci_command_lines_parse() {
        let plain = parse("--backfill cons --jobs 10000 --floor 60000").unwrap();
        assert_eq!(
            plain,
            Args {
                backfills: vec![BACKFILLS[1]],
                jobs: vec![10_000],
                telemetry: false,
                floor: Some(60_000.0),
            }
        );
        let recorded = parse("--telemetry --backfill cons --jobs 10000 --floor 60000").unwrap();
        assert_eq!(
            recorded,
            Args {
                telemetry: true,
                ..plain
            }
        );
        // No arguments: both backfills over the 1k/10k grid, no gate.
        let default = parse("").unwrap();
        assert_eq!(default.backfills, BACKFILLS.to_vec());
        assert_eq!(default.jobs, vec![1_000, 10_000]);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for line in [
            "--migration",
            "--bogus-flag",
            "--partitions 2,4",
            "--jobs 0",
            "--jobs 1000,0",
            "--jobs 1000,",
            "--jobs -5",
            "--backfill fifo",
            "--backfill cons --jobs 10000 --floor",
            "--jobs",
            "--floor fast",
        ] {
            assert!(parse(line).is_err(), "{line:?} must be rejected");
        }
    }
}
