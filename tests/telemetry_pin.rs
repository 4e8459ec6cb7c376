//! Byte pin for the committed telemetry counter snapshot:
//! `results/telemetry_table3.json` must be exactly the counters a
//! telemetry-enabled run of `examples/scenarios/table3_fcfs.json`
//! collects. The counters are a pure function of the schedule and the
//! engine's internal decision structure, so this doubles as a
//! differential oracle: an optimization that changes *how* the kernel
//! reaches the same schedule (extra repairs, different bucket walks,
//! lost cache hits) trips this pin even though the schedule pins stay
//! green.
//!
//! The 10k-job cells of `results/telemetry_scale.json` are pinned the
//! same way, so the conservative planner's counters (`plan_repairs`,
//! `repair_len_hist`, `bucket_scan_hist`) are checked by `cargo test`
//! and not only by the `speed_probe` CI step that rewrites the file.
//!
//! Run from the workspace root (paths are workspace-relative, as in the
//! CI smoke steps).

use rlbackfill::hpcsim::scenario::{self, ScenarioSpec};
use rlbackfill::hpcsim::{Backfill, Recorder, RuntimeEstimator, Telemetry};
use rlbackfill::swf::{TracePreset, TraceSource};
use serde_json::Value;

fn read(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path} (run from the workspace root): {e}"))
}

#[test]
fn table3_telemetry_counters_reproduce_byte_identically() {
    let mut spec = ScenarioSpec::from_json(&read("examples/scenarios/table3_fcfs.json")).unwrap();
    spec.telemetry = true;
    let report = scenario::run(&spec).expect("spec runs");
    let telemetry = report
        .telemetry
        .expect("telemetry-enabled runs attach counters");
    // Intentional engine-structure changes re-bless the snapshot with
    //   RLBF_BLESS=1 cargo test --test telemetry_pin
    // (then review the diff like any other pin move).
    if std::env::var_os("RLBF_BLESS").is_some() {
        std::fs::write("results/telemetry_table3.json", telemetry.to_json_pretty())
            .expect("can write the snapshot");
        return;
    }
    let committed = read("results/telemetry_table3.json");
    assert_eq!(
        telemetry.to_json_pretty(),
        committed,
        "results/telemetry_table3.json is not the byte-exact counter \
         snapshot of the committed table3_fcfs spec — if the engine's \
         decision structure changed intentionally, re-bless it with \
         RLBF_BLESS=1 (see results/README.md) and review the diff"
    );
    // And the committed snapshot itself round-trips through the parser.
    let parsed = Telemetry::from_json(&committed).expect("committed snapshot parses");
    assert_eq!(parsed, telemetry);
}

#[test]
fn telemetry_counters_are_plausible_for_the_table3_workload() {
    // Sanity floor under the byte pin: 1000 jobs ⇒ at least one event per
    // job (arrival + completion), a nonzero heap depth, and backfill
    // activity on a congested Lublin trace.
    let telemetry = Telemetry::from_json(&read("results/telemetry_table3.json")).unwrap();
    assert!(telemetry.events >= 2_000, "arrivals + completions");
    assert!(telemetry.heap_depth_peak > 0);
    assert!(telemetry.heap_depth_mean() > 0.0);
    assert!(telemetry.backfill_attempts >= telemetry.backfill_hits);
    assert!(telemetry.backfill_hits > 0, "EASY must backfill something");
}

#[test]
fn telemetry_scale_10k_cells_reproduce_byte_identically() {
    // The recipe `speed_probe --telemetry` measures: a Lublin-1 preset
    // trace under the bench crate's trace seed, FCFS, request-time
    // estimates.
    let source = TraceSource::Preset {
        preset: TracePreset::Lublin1,
        jobs: 10_000,
        seed: 20240914,
    };
    let trace = source.materialize().expect("preset sources materialize");
    let rows: Vec<Value> =
        serde_json::from_str(&read("results/telemetry_scale.json")).expect("committed rows parse");
    for (label, backfill) in [
        (
            "CONS",
            Backfill::Conservative(RuntimeEstimator::RequestTime),
        ),
        ("EASY", Backfill::Easy(RuntimeEstimator::RequestTime)),
    ] {
        let spec = ScenarioSpec::builder(source.clone())
            .backfill(backfill)
            .build();
        let (_, rec) = scenario::execute_recorded(&trace, &spec, Recorder::default())
            .expect("kernel spec runs recorded");
        let row = rows
            .iter()
            .find(|row| {
                row.get("trace").and_then(Value::as_str) == Some("Lublin-1")
                    && row.get("jobs").and_then(Value::as_u64) == Some(10_000)
                    && row.get("backfill").and_then(Value::as_str) == Some(label)
            })
            .unwrap_or_else(|| panic!("no Lublin-1 10000 {label} cell"));
        let telemetry = row.get("telemetry").expect("the cell has telemetry");
        let committed = serde_json::to_string_pretty(telemetry).unwrap();
        assert_eq!(
            rec.telemetry().to_json_pretty(),
            committed,
            "the Lublin-1 10000 {label} cell of results/telemetry_scale.json is not \
             the byte-exact counter snapshot of a recorded run"
        );
        assert_eq!(&Telemetry::from_json(&committed).unwrap(), rec.telemetry());
    }
}
