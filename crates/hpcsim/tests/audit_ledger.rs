//! The audit log against the run's other ledgers:
//!
//! * its exported per-partition utilization curve is, on a one-partition
//!   machine, exactly the schedule's [`utilization_timeline`];
//! * its `PlanRepaired` records add up to the telemetry repair counters
//!   (`plan_repairs`, `repair_len_hist`) of the same run;
//! * auditing a run leaves its telemetry exactly as an unaudited run
//!   leaves it.

use hpcsim::observe::{Histogram, RepairRow, REPAIR_CAUSES};
use hpcsim::prelude::*;
use hpcsim::timeline::utilization_timeline;
use serde::Value;
use swf::TracePreset;

/// The number under `key` of a JSON object.
fn number(v: &Value, key: &str) -> f64 {
    let Some(Value::Number(n)) = v.get(key) else {
        panic!("expected a number under {key:?}");
    };
    n.as_f64()
}

#[test]
fn audit_export_utilization_is_the_schedule_timeline() {
    let trace = TracePreset::Lublin1.generate(300, 5);
    for backfill in [
        Backfill::Easy(RuntimeEstimator::RequestTime),
        Backfill::Conservative(RuntimeEstimator::RequestTime),
    ] {
        let (result, probe) = run_scheduler_probed(
            &trace,
            Policy::Fcfs,
            backfill,
            &ClusterSpec::homogeneous(trace.cluster_procs()),
            RouterSpec::Affinity.build(),
            ReroutePolicy::AtSubmission,
            &PlatformEventSpec::default(),
            AuditProbe::new(),
        )
        .expect("an empty event spec installs");
        let export: Value = serde_json::from_str(&probe.into_log().to_json_pretty()).unwrap();
        let timeline = export.get("timeline").and_then(Value::as_array);
        let exported = timeline.unwrap()[0]
            .get("utilization")
            .and_then(Value::as_array)
            .expect("partition 0 exports a utilization array");
        let expected = utilization_timeline(&result.completed, 64);
        assert_eq!(exported.len(), expected.len(), "{backfill:?}");
        for (e, s) in exported.iter().zip(&expected) {
            assert_eq!(number(e, "time").to_bits(), s.time.to_bits());
            assert_eq!(number(e, "busy"), s.busy as f64, "at t={}", s.time);
        }
    }
}

#[test]
fn telemetry_repair_counters_are_the_audited_repairs() {
    // Conservative backfilling on a split machine, routed by size class
    // and re-routed at decision points: arrivals, early completions
    // (requests overestimate runtimes) and migrations all invalidate plans.
    let trace = TracePreset::SdscSp2.generate(1000, 11);
    let total = trace.cluster_procs();
    let cluster = ClusterSpec::new(vec![
        PartitionSpec::new("a", total / 2, 1.0),
        PartitionSpec::new("b", total - total / 2, 1.0),
    ]);
    let (_, probe) = run_scheduler_probed(
        &trace,
        Policy::Fcfs,
        Backfill::Conservative(RuntimeEstimator::RequestTime),
        &cluster,
        RouterSpec::Affinity.build(),
        ReroutePolicy::AtDecisionPoints {
            max_moves_per_job: 2,
            min_gain_secs: 0.0,
        },
        &PlatformEventSpec::default(),
        AuditProbe::new(),
    )
    .expect("an empty event spec installs");
    let (log, telemetry) = probe.into_log_and_telemetry();

    let mut rows: Vec<RepairRow> = REPAIR_CAUSES
        .iter()
        .map(|c| RepairRow {
            cause: c.name().to_string(),
            count: 0,
            entries: 0,
        })
        .collect();
    let mut lengths = Histogram::default();
    for r in &log.records {
        if let AuditRecord::PlanRepaired { cause, entries, .. } = *r {
            let row = rows
                .iter_mut()
                .find(|row| row.cause == cause.name())
                .unwrap();
            row.count += 1;
            row.entries += entries as u64;
            lengths.record(entries as u64);
        }
    }
    let fired = rows.iter().filter(|r| r.count > 0).count();
    assert!(fired >= 3, "only {fired} repair causes fired: {rows:?}");
    assert_eq!(telemetry.plan_repairs, rows);
    assert_eq!(telemetry.repair_len_hist, lengths);
}

/// A committed example spec, read from the workspace root.
fn example_spec(name: &str) -> ScenarioSpec {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios")
        .join(name);
    ScenarioSpec::load(&path).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn auditing_a_run_leaves_its_telemetry_unchanged() {
    // Forensics must not do counted work: the audited run's counters,
    // collected by the recorder inside `AuditProbe`, equal a plain
    // `Recorder` run's field for field. Plan repairs and, in the failure
    // demo, platform events, kills and resubmissions reach the counters
    // only as records, so this also checks `AuditProbe` forwards them.
    // The third run adds a drain of the express partition that evacuates
    // queued jobs, which the demo's own drain never does.
    for (name, extra_drain) in [
        ("audit_demo.json", false),
        ("failure_demo.json", false),
        ("failure_demo.json", true),
    ] {
        let mut spec = example_spec(name);
        spec.telemetry = true;
        if extra_drain {
            spec.events.trace.extend([
                PlatformEvent::DrainStart {
                    at: 130_000.0,
                    part: 1,
                },
                PlatformEvent::DrainEnd {
                    at: 150_000.0,
                    part: 1,
                },
            ]);
        }
        let (trace, _) = scenario::materialize(&spec, None).unwrap();
        let (_, recorder) = scenario::execute_recorded(&trace, &spec, Recorder::default()).unwrap();
        let plain = recorder.into_telemetry();
        assert!(plain.plan_repairs.iter().any(|r| r.count > 0), "{name}");
        if !spec.events.is_empty() {
            assert!(
                plain.platform_events > 0 && plain.platform_kills > 0,
                "{name}"
            );
            assert!(plain.platform_resubmits > 0, "{name}");
        }
        assert_eq!(plain.platform_drain_evacuations > 0, extra_drain, "{name}");
        let (report, _) = scenario::run_audited(&spec).unwrap();
        let audited = report.telemetry.expect("the spec asks for telemetry");
        assert_eq!(audited, plain, "{name}: auditing changed the telemetry");
    }
}
