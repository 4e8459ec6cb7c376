//! Reproducibility pins for the committed scenario artifacts:
//!
//! * every spec under `examples/scenarios/` must parse and round-trip;
//! * `examples/scenarios/table3_fcfs.json` must regenerate
//!   `results/table3_fcfs.json` **byte-identically** — a Table 3 row is
//!   reproducible from its committed config file alone;
//! * that committed report must also match the corresponding row of
//!   `results/table3_policies.json` (the full-table binary and the
//!   single-spec runner agree);
//! * the audit logs of the two demo specs keep their exact bytes, pinned
//!   by hash (the logs themselves are too large to commit).
//!
//! Run from the workspace root (the paths are workspace-relative, as in
//! the CI smoke steps).

use rlbackfill::hpcsim::scenario::{self, RunReport, ScenarioSpec};
use rlbackfill::hpcsim::{Backfill, MetricKind, Policy, RuntimeEstimator, SchedulerSpec};
use rlbackfill::swf::{TracePreset, TraceSource};

/// Must equal `bench::TRACE_SEED` (the facade crate does not depend on
/// the bench crate, so the constant is restated here; the spec-equality
/// assertion below fails if they ever drift).
const TRACE_SEED: u64 = 20240914;

fn read(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path} (run from the workspace root): {e}"))
}

/// The FCFS Table 3 row spec, as `table3_policies` and
/// `scenario examples` construct it.
fn expected_table3_fcfs() -> ScenarioSpec {
    ScenarioSpec::builder(TraceSource::Preset {
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
    .build()
}

#[test]
fn committed_example_specs_parse_and_round_trip() {
    let dir = std::path::Path::new("examples/scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples/scenarios exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        seen += 1;
        let json = std::fs::read_to_string(&path).unwrap();
        let spec = ScenarioSpec::from_json(&json)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert_eq!(
            ScenarioSpec::from_json(&spec.to_json_pretty()).unwrap(),
            spec,
            "{} does not round-trip",
            path.display()
        );
    }
    assert!(
        seen >= 4,
        "expected the committed example specs, saw {seen}"
    );
}

#[test]
fn committed_spec_is_the_table3_fcfs_row() {
    let spec = ScenarioSpec::from_json(&read("examples/scenarios/table3_fcfs.json")).unwrap();
    assert_eq!(spec, expected_table3_fcfs());
}

#[test]
fn table3_fcfs_report_reproduces_byte_identically() {
    let spec = ScenarioSpec::from_json(&read("examples/scenarios/table3_fcfs.json")).unwrap();
    let committed = read("results/table3_fcfs.json");
    let regenerated = scenario::run(&spec).expect("spec runs").to_json_pretty();
    assert_eq!(
        regenerated, committed,
        "results/table3_fcfs.json is not the byte-exact report of its committed spec"
    );
}

#[test]
fn audit_demo_report_reproduces_byte_identically() {
    // The decision-forensics snapshot: the report embeds the aggregate
    // wait-cause attribution, so this pin enforces that the audit layer
    // is a pure function of the engine's decision structure — a diff
    // here means the kernel *decides differently*, even when the
    // schedule pins stay green.
    let spec = ScenarioSpec::from_json(&read("examples/scenarios/audit_demo.json")).unwrap();
    assert!(spec.audit, "the demo spec must opt into auditing");
    let committed = read("results/audit_demo.json");
    let regenerated = scenario::run(&spec).expect("spec runs").to_json_pretty();
    assert_eq!(
        regenerated, committed,
        "results/audit_demo.json is not the byte-exact report of its committed spec"
    );
}

#[test]
fn failure_demo_report_reproduces_byte_identically() {
    // The dynamic-machine snapshot: a mid-run outage (kills, resubmits,
    // wasted work) plus a maintenance drain, replayed from an explicit
    // event trace. The pin covers the robustness block too — a diff here
    // means the fault layer itself became nondeterministic.
    let spec = ScenarioSpec::from_json(&read("examples/scenarios/failure_demo.json")).unwrap();
    assert!(
        !spec.events.is_empty(),
        "the demo spec must carry platform events"
    );
    let committed = read("results/failure_demo.json");
    let regenerated = scenario::run(&spec).expect("spec runs").to_json_pretty();
    assert_eq!(
        regenerated, committed,
        "results/failure_demo.json is not the byte-exact report of its committed spec"
    );
    let report = RunReport::from_json(&committed).unwrap();
    let rob = report.robustness.expect("perturbed run reports robustness");
    assert!(rob.kills > 0, "the outage must land while jobs are running");
    assert!(rob.resubmits > 0);
    assert!(rob.wasted_node_seconds > 0.0);
}

/// FNV-1a, 64-bit.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn demo_audit_logs_reproduce_byte_identically() {
    // Every record, wait breakdown and timeline sample of the exported
    // log (`scenario audit <spec> --out`), for the migration demo and
    // the failure demo (kills, resubmissions, a drain). A diff here means
    // the engine decided differently or reported a decision differently.
    for (name, records, hash) in [
        ("audit_demo", 8398, 0xfb52_f09c_80fa_3c0a_u64),
        ("failure_demo", 7669, 0x291d_4015_8466_2c86),
    ] {
        let path = format!("examples/scenarios/{name}.json");
        let spec = ScenarioSpec::from_json(&read(&path)).unwrap();
        let (_, log) = scenario::run_audited(&spec).expect("spec runs");
        assert_eq!(log.records.len(), records, "{name}");
        let got = fnv1a_64(log.to_json_pretty().as_bytes());
        assert_eq!(got, hash, "{name}: audit log bytes moved ({got:#018x})");
    }
}

#[test]
fn table3_policies_fcfs_row_matches_the_committed_report() {
    let committed = RunReport::from_json(&read("results/table3_fcfs.json")).unwrap();
    let table: Vec<RunReport> =
        serde_json::from_str(&read("results/table3_policies.json")).unwrap();
    let fcfs = table
        .iter()
        .find(|r| r.spec.policy == Policy::Fcfs)
        .expect("table3_policies.json has an FCFS row");
    assert_eq!(fcfs, &committed);
}

#[test]
fn rl_smoke_spec_carries_its_training_config() {
    // The committed RL example embeds EnvConfig + TrainConfig in the
    // agent slot: the whole experiment is one file.
    let spec = ScenarioSpec::from_json(&read("examples/scenarios/rl_smoke.json")).unwrap();
    let slot = match &spec.scheduler {
        SchedulerSpec::Agent(slot) => slot,
        other => panic!("rl_smoke must hold an agent slot, got {other:?}"),
    };
    assert!(slot.env.is_some() && slot.train.is_some());
    let cfg = rlbackfill::rlbf::scenario::spec_train_config(&spec).expect("slot decodes");
    assert_eq!(cfg, {
        let mut expected = rlbackfill::rlbf::TrainConfig::smoke();
        expected.base_policy = spec.policy;
        expected.platform = spec.platform.clone();
        expected
    });
}
