//! `scenario` — run any committed experiment spec from the command line.
//!
//! Any cell of the paper's experiment grid is reproducible from a JSON
//! spec file: heuristic specs execute directly, agent specs load their
//! checkpoint through the RL bridge (or, when the slot has no checkpoint
//! but embeds a `TrainConfig`, train first and then deploy — one file is
//! the whole experiment), and specs with a seed list fan out via
//! `desim::Replicator`.
//!
//! ```text
//! cargo run -p bench --bin scenario -- run examples/scenarios/table3_fcfs.json
//! cargo run -p bench --bin scenario -- run spec.json --out out/report.json
//! cargo run -p bench --bin scenario -- run spec.json --stdout
//! cargo run -p bench --bin scenario -- trace examples/scenarios/trace_demo.json
//! cargo run -p bench --bin scenario -- explain examples/scenarios/audit_demo.json --job 17
//! cargo run -p bench --bin scenario -- audit examples/scenarios/audit_demo.json --out log.json
//! cargo run -p bench --bin scenario -- audit-diff a_audit.json b_audit.json
//! cargo run -p bench --bin scenario -- examples [dir]   # (re)emit example specs
//! ```
//!
//! `run` writes the uniform `RunReport` (or report list, for seeded
//! specs) as pretty JSON to `results/<spec stem>.json`, or to the file
//! path given with `--out` (its directories are created); the output is
//! fully deterministic, so committed reports can be compared
//! byte-for-byte (see `tests/scenario_reproduce.rs`). Everything
//! human-facing (tables, progress, warnings) goes to **stderr**: with
//! `--stdout`, stdout carries exactly one JSON document and nothing
//! else, so the output can be piped into `jq` or another tool.
//!
//! `trace` executes a kernel spec with the span-tracing recorder and
//! writes the phase spans as Chrome-trace JSON (load it in
//! `chrome://tracing` or Perfetto). Exits nonzero if the run produced no
//! spans — the CI trace smoke treats an empty trace as a broken probe.
//!
//! `explain` executes a kernel spec with the decision-forensics audit
//! probe and prints a human-readable narrative of the run (or of one
//! job's lifecycle with `--job ID`) to stdout. `audit` writes the full
//! audit log — typed per-job records, wait-cause attribution, Gantt
//! timeline — as JSON. `audit-diff` compares two exported logs and
//! reports the **first divergent record** (exit 1); identical logs exit
//! 0.

use bench::{report_table, TRACE_SEED};
use hpcsim::prelude::*;
use swf::{TracePreset, TraceSource};

/// The canonical example specs committed under `examples/scenarios/`.
///
/// `table3_fcfs` must stay identical to the FCFS row of the
/// `table3_policies` binary — the reproduce test pins its report
/// byte-for-byte against `results/table3_fcfs.json`.
fn example_specs() -> Vec<(&'static str, ScenarioSpec)> {
    let table3_fcfs = ScenarioSpec::builder(TraceSource::Preset {
        preset: TracePreset::Lublin1,
        jobs: 1000,
        seed: TRACE_SEED,
    })
    .policy(Policy::Fcfs)
    .backfill(Backfill::Easy(RuntimeEstimator::RequestTime))
    .metrics(vec![
        MetricKind::BoundedSlowdown,
        MetricKind::Wait,
        MetricKind::Utilization,
    ])
    .build();

    let multi_partition_2p = ScenarioSpec::builder(TraceSource::PartitionedPreset {
        preset: TracePreset::Lublin1,
        parts: 2,
        jobs: 800,
        seed: TRACE_SEED,
    })
    .platform(Platform::from_layout(
        &swf::table2_partitions(TracePreset::Lublin1, 2),
        RouterSpec::LeastLoaded,
    ))
    .policy(Policy::Fcfs)
    .backfill(Backfill::Conservative(RuntimeEstimator::RequestTime))
    .metrics(vec![MetricKind::BoundedSlowdown, MetricKind::Utilization])
    .build();

    let replicated_windows = ScenarioSpec::builder(TraceSource::Preset {
        preset: TracePreset::SdscSp2,
        jobs: 2000,
        seed: TRACE_SEED,
    })
    .policy(Policy::Sjf)
    .backfill(Backfill::Easy(RuntimeEstimator::RequestTime))
    .windows(5, 256, TRACE_SEED)
    .seeds(hpcsim::scenario::replication_seeds(TRACE_SEED, 4))
    .build();

    // An RL experiment in the same file format: env + train configs live
    // in the agent slot (train with `rlbf::train_from_spec`, then deploy).
    let rl_cfg = rlbf::TrainConfig::smoke();
    let rl_smoke = ScenarioSpec::builder(TraceSource::Preset {
        preset: TracePreset::Lublin2,
        jobs: 600,
        seed: TRACE_SEED,
    })
    .policy(Policy::Fcfs)
    .agent(rlbf::agent_slot(&rl_cfg.env, Some(&rl_cfg), None))
    .windows(3, 128, TRACE_SEED)
    .build();

    // A spec that exercises every traced simulation phase in one run:
    // conservative backfilling (conservative pass + backfill scan) on a
    // 2-partition cluster with decision-point re-routing (reroute pass),
    // at a size where the phase structure is visible in a profiler.
    let trace_demo = ScenarioSpec::builder(TraceSource::PartitionedPreset {
        preset: TracePreset::Lublin1,
        parts: 2,
        jobs: 10_000,
        seed: TRACE_SEED,
    })
    .platform(
        Platform::from_layout(
            &swf::table2_partitions(TracePreset::Lublin1, 2),
            RouterSpec::LeastLoaded,
        )
        .rerouted(ReroutePolicy::AtDecisionPoints {
            max_moves_per_job: 3,
            min_gain_secs: 60.0,
        }),
    )
    .policy(Policy::Fcfs)
    .backfill(Backfill::Conservative(RuntimeEstimator::RequestTime))
    .telemetry(true)
    .build();

    // A compact decision-forensics spec: conservative backfilling on a
    // 2-partition cluster with decision-point migration, so the audit log
    // exhibits every record kind the explain/audit-diff CI smokes read —
    // submissions with router candidates, reservation starts, skip
    // reasons, plan repairs and migrations.
    let audit_demo = ScenarioSpec::builder(TraceSource::PartitionedPreset {
        preset: TracePreset::Lublin1,
        parts: 2,
        jobs: 800,
        seed: TRACE_SEED,
    })
    .platform(
        Platform::from_layout(
            &swf::table2_partitions(TracePreset::Lublin1, 2),
            RouterSpec::LeastLoaded,
        )
        .rerouted(ReroutePolicy::AtDecisionPoints {
            max_moves_per_job: 3,
            min_gain_secs: 60.0,
        }),
    )
    .policy(Policy::Fcfs)
    .backfill(Backfill::Conservative(RuntimeEstimator::RequestTime))
    .audit(true)
    .build();

    // The dynamic-machine demo: the audit_demo platform perturbed by an
    // explicit, replayable event trace — a mid-run outage on partition 0
    // (kills + resubmits land in the audit log) and a later maintenance
    // drain of partition 1 (the reroute pass evacuates its queue). The
    // reproduce test pins its report byte-for-byte.
    let failure_demo = ScenarioSpec::builder(TraceSource::PartitionedPreset {
        preset: TracePreset::Lublin1,
        parts: 2,
        jobs: 800,
        seed: TRACE_SEED,
    })
    .platform(
        Platform::from_layout(
            &swf::table2_partitions(TracePreset::Lublin1, 2),
            RouterSpec::LeastLoaded,
        )
        .rerouted(ReroutePolicy::AtDecisionPoints {
            max_moves_per_job: 3,
            min_gain_secs: 60.0,
        }),
    )
    .policy(Policy::Fcfs)
    .backfill(Backfill::Conservative(RuntimeEstimator::RequestTime))
    .audit(true)
    .events(PlatformEventSpec {
        trace: vec![
            PlatformEvent::NodeFail {
                at: 150_000.0,
                part: 0,
                procs: 100,
            },
            PlatformEvent::NodeRepair {
                at: 220_000.0,
                part: 0,
                procs: 100,
            },
            PlatformEvent::DrainStart {
                at: 260_000.0,
                part: 1,
            },
            PlatformEvent::DrainEnd {
                at: 330_000.0,
                part: 1,
            },
        ],
        processes: Vec::new(),
        failure_policy: FailurePolicy::KillResubmit,
    })
    .build();

    vec![
        ("table3_fcfs", table3_fcfs),
        ("multi_partition_2p", multi_partition_2p),
        ("replicated_windows", replicated_windows),
        ("rl_smoke", rl_smoke),
        ("trace_demo", trace_demo),
        ("audit_demo", audit_demo),
        ("failure_demo", failure_demo),
    ]
}

fn usage() -> ! {
    eprintln!(
        "usage: scenario run <spec.json> [--out FILE] [--stdout] [--perturb EVENTS]\n       \
         scenario trace <spec.json> [--out FILE] [--perturb EVENTS]\n       \
         scenario explain <spec.json> [--job ID] [--perturb EVENTS]\n       \
         scenario audit <spec.json> [--out FILE] [--perturb EVENTS]\n       \
         scenario audit-diff <a_audit.json> <b_audit.json>\n       \
         scenario examples [dir]"
    );
    std::process::exit(2);
}

/// Applies a `--perturb events.json` overlay: the file holds one
/// serialized [`PlatformEventSpec`] that **replaces** the spec's own
/// event stream, so any committed spec can be rerun under a perturbation
/// trace without editing the spec file.
fn apply_perturb_overlay(spec: &mut ScenarioSpec, args: &[String]) {
    let Some(i) = args.iter().position(|a| a == "--perturb") else {
        return;
    };
    let Some(path) = args.get(i + 1) else {
        eprintln!("error: --perturb takes a path to a platform-events JSON file");
        std::process::exit(2);
    };
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let events: PlatformEventSpec = match serde_json::from_str(&json) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("error: cannot parse {path} as a platform-event spec: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "perturbing with {path}: {} explicit events, {} generative processes",
        events.trace.len(),
        events.processes.len()
    );
    spec.events = events;
}

/// Loads a spec file or exits with the parse/read error — the shared
/// entry gate of every spec-consuming subcommand.
fn load_spec_or_exit(path: &str) -> ScenarioSpec {
    match ScenarioSpec::load(path) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs a spec under the audit probe or exits with the error (agent
/// specs and windows protocols cannot be audited).
fn run_audited_or_exit(spec: &ScenarioSpec) -> (RunReport, hpcsim::AuditLog) {
    match hpcsim::scenario::run_audited(spec) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// The file path after `--out`, if given.
fn out_arg(args: &[String]) -> Option<String> {
    let i = args.iter().position(|a| a == "--out")?;
    args.get(i + 1).cloned()
}

/// Writes `contents` to the file at `path` verbatim, creating its parent
/// directories.
fn write_file(path: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("can create the output dir");
    }
    std::fs::write(path, contents).expect("can write the output file");
    eprintln!("wrote {path}");
}

/// The default `results/<stem>_<suffix>.json` output path for a spec.
fn derived_out(path: &str, suffix: &str) -> String {
    let stem = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "scenario".into());
    format!("results/{stem}_{suffix}.json")
}

/// The `"records"` array of an exported audit log, re-serialized one
/// JSON string per record for order-sensitive comparison.
fn audit_records_or_exit(path: &str) -> Vec<String> {
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let value: serde::Value = match serde_json::from_str(&json) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: cannot parse {path}: {e}");
            std::process::exit(1);
        }
    };
    let Some(records) = value.get("records").and_then(serde::Value::as_array) else {
        eprintln!("error: {path} has no \"records\" array — not an audit log export?");
        std::process::exit(1);
    };
    records
        .iter()
        .map(|r| serde_json::to_string(r).expect("record re-serializes"))
        .collect()
}

/// An agent spec with a seed list: one `rlbf::train` per seed
/// (Replicator-parallel), then every seed's agent deployed under the
/// spec's protocol — one report per seed, stamped with it.
fn run_agent_sweep(spec: &ScenarioSpec) -> Result<Vec<RunReport>, String> {
    eprintln!(
        "agent spec with {} training seeds — running a train sweep …",
        spec.seeds.len()
    );
    let sweep = rlbf::train_sweep_spec(spec, None)?;
    eprintln!(
        "train-set bsld across seeds: {:.2} ± {:.2} (best seed {:#x})",
        sweep.report.final_mean, sweep.report.final_std, sweep.report.best_seed
    );
    sweep
        .results
        .iter()
        .zip(&sweep.report.seeds)
        .map(|(result, &seed)| {
            let agent = rlbf::RlbfAgent::from_training(result, spec.trace.label());
            rlbf::run_spec_with_agent(spec, &agent).map(|mut report| {
                report.seed = Some(seed);
                report
            })
        })
        .collect()
}

/// Executes one spec, training the agent slot first when it has no
/// checkpoint to deploy.
fn run_one(spec: &ScenarioSpec) -> Result<RunReport, String> {
    let needs_training = matches!(
        &spec.scheduler,
        SchedulerSpec::Agent(slot) if slot.checkpoint.is_none()
    );
    if needs_training {
        eprintln!("agent slot has no checkpoint — training from the spec first …");
        let result = rlbf::train_from_spec(spec)?;
        let agent = rlbf::RlbfAgent::from_training(&result, spec.trace.label());
        rlbf::run_spec_with_agent(spec, &agent)
    } else {
        rlbf::run_spec(spec)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let path = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let mut spec = load_spec_or_exit(path);
            apply_perturb_overlay(&mut spec, &args);
            let reports: Vec<RunReport> = if spec.seeds.is_empty() {
                match run_one(&spec) {
                    Ok(r) => vec![r],
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
            } else if matches!(spec.scheduler, SchedulerSpec::Agent(_)) {
                // An agent spec's seeds are *training* seeds — run the
                // full train sweep and deploy every seed's agent. (Decided
                // before attempting replication: run_replicated's trace
                // re-seeding checks would otherwise mask this path for
                // seedless sources such as SWF files.)
                match run_agent_sweep(&spec) {
                    Ok(rs) => rs,
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
            } else {
                // Seeded heuristic sweeps fan out via the Replicator.
                match hpcsim::scenario::run_replicated(&spec) {
                    Ok(rs) => rs,
                    Err(e) => {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                }
            };
            for r in &reports {
                if r.dropped_jobs > 0 {
                    eprintln!(
                        "warning: {}: {} of {} trace jobs fit no partition and were \
                         dropped (metrics describe the remaining {})",
                        r.label,
                        r.dropped_jobs,
                        r.jobs + r.dropped_jobs,
                        r.jobs
                    );
                }
            }
            report_table(&format!("scenario run {path}"), &reports);
            if args.iter().any(|a| a == "--stdout") {
                let json = serde_json::to_string_pretty(&reports).expect("reports serialize");
                println!("{json}");
            } else {
                let out = out_arg(&args).unwrap_or_else(|| {
                    let stem = std::path::Path::new(path)
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .unwrap_or_else(|| "scenario".into());
                    let out = bench::results_dir().join(format!("{stem}.json"));
                    out.to_string_lossy().into_owned()
                });
                // Single-shot runs commit as one report object.
                let json = if reports.len() == 1 {
                    serde_json::to_string_pretty(&reports[0])
                } else {
                    serde_json::to_string_pretty(&reports)
                };
                write_file(&out, &json.expect("reports serialize"));
            }
        }
        Some("trace") => {
            let path = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let mut spec = load_spec_or_exit(path);
            apply_perturb_overlay(&mut spec, &args);
            let (report, recorder) = match hpcsim::scenario::run_recorded(&spec) {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            };
            let spans = recorder.spans().len();
            if spans == 0 {
                eprintln!(
                    "error: the run produced no spans — the probe is disconnected \
                     (this is a bug, not an empty workload)"
                );
                std::process::exit(1);
            }
            let telemetry = report
                .telemetry
                .as_ref()
                .expect("recorded runs always attach telemetry");
            eprintln!(
                "{}: {} jobs, {} events, {spans} spans across the simulation phases",
                report.label, report.jobs, telemetry.events
            );
            let out = out_arg(&args).unwrap_or_else(|| derived_out(path, "trace"));
            write_file(&out, &recorder.chrome_trace_json());
            eprintln!("(open {out} in chrome://tracing or Perfetto)");
        }
        Some("explain") => {
            let path = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let mut spec = load_spec_or_exit(path);
            apply_perturb_overlay(&mut spec, &args);
            let job = args.iter().position(|a| a == "--job").map(|i| {
                args.get(i + 1)
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| {
                        eprintln!("error: --job takes a numeric job id");
                        std::process::exit(1);
                    })
            });
            let (report, log) = run_audited_or_exit(&spec);
            eprintln!(
                "{}: {} jobs, {} audit records",
                report.label,
                report.jobs,
                log.records.len()
            );
            // The narrative is the product of this subcommand: stdout.
            print!("{}", log.explain(job));
        }
        Some("audit") => {
            let path = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let mut spec = load_spec_or_exit(path);
            apply_perturb_overlay(&mut spec, &args);
            let (report, log) = run_audited_or_exit(&spec);
            eprintln!(
                "{}: {} jobs, {} audit records",
                report.label,
                report.jobs,
                log.records.len()
            );
            let out = out_arg(&args).unwrap_or_else(|| derived_out(path, "audit"));
            write_file(&out, &log.to_json_pretty());
        }
        Some("audit-diff") => {
            let a_path = args.get(1).map(String::as_str).unwrap_or_else(|| usage());
            let b_path = args.get(2).map(String::as_str).unwrap_or_else(|| usage());
            let a = audit_records_or_exit(a_path);
            let b = audit_records_or_exit(b_path);
            let divergent = (0..a.len().min(b.len())).find(|&i| a[i] != b[i]);
            match divergent {
                Some(i) => {
                    eprintln!("logs diverge at record {i}:");
                    eprintln!("  {a_path}: {}", a[i]);
                    eprintln!("  {b_path}: {}", b[i]);
                    std::process::exit(1);
                }
                None if a.len() != b.len() => {
                    let i = a.len().min(b.len());
                    let (longer, extra) = if a.len() > b.len() {
                        (a_path, &a[i])
                    } else {
                        (b_path, &b[i])
                    };
                    eprintln!("logs agree on the first {i} records, then {longer} continues:");
                    eprintln!("  {longer}: {extra}");
                    std::process::exit(1);
                }
                None => {
                    println!("no divergence ({} records)", a.len());
                }
            }
        }
        Some("examples") => {
            let dir = std::path::PathBuf::from(
                args.get(1)
                    .map(String::as_str)
                    .unwrap_or("examples/scenarios"),
            );
            std::fs::create_dir_all(&dir).expect("can create the examples dir");
            for (name, spec) in example_specs() {
                let path = dir.join(format!("{name}.json"));
                spec.save(&path).expect("can write example spec");
                eprintln!("wrote {}", path.display());
            }
        }
        _ => usage(),
    }
}
