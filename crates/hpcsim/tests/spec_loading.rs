//! Spec-file loading must fail *readably*: a missing or malformed
//! `scenario run <spec.json>` input names the offending path (and, for
//! parse failures, the offending field) instead of panicking — the
//! `scenario` binary prints these errors verbatim and exits nonzero.

use hpcsim::prelude::*;

fn fixture(name: &str) -> std::path::PathBuf {
    // Integration tests run with the crate root as cwd.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn missing_spec_file_names_the_path() {
    let path = fixture("does_not_exist.json");
    let err = ScenarioSpec::load(&path).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("cannot read"), "{msg}");
    assert!(msg.contains("does_not_exist.json"), "{msg}");
}

#[test]
fn corrupt_spec_file_names_path_and_field() {
    let path = fixture("corrupt_spec.json");
    let err = ScenarioSpec::load(&path).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("cannot parse"), "{msg}");
    assert!(msg.contains("corrupt_spec.json"), "{msg}");
    // The fixture is missing the `scheduler` field (and carries a string
    // where `jobs` expects a number) — the error must name what is wrong,
    // not just that something is.
    assert!(
        msg.contains("scheduler") || msg.contains("jobs") || msg.contains("expected"),
        "error does not identify the offending field: {msg}"
    );
}

#[test]
fn unparsable_json_is_a_clean_error() {
    let dir = std::env::temp_dir();
    let path = dir.join("hpcsim_truncated_spec.json");
    std::fs::write(&path, "{\"trace\": {\"Preset\"").unwrap();
    let err = ScenarioSpec::load(&path).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("cannot parse"), "{msg}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn removed_seed_engines_are_a_parse_error() {
    // Every scenario runs on the kernel; the seed engines are differential
    // oracles, not spec values. A spec naming one must fail to load with an
    // error that names the file and the rejected variant.
    let spec = ScenarioSpec::builder(swf::TraceSource::Preset {
        preset: swf::TracePreset::Lublin1,
        jobs: 10,
        seed: 1,
    })
    .build();
    let json = spec
        .to_json_pretty()
        .replace("\"engine\": \"Kernel\"", "\"engine\": \"Reference\"");
    assert!(
        json.contains("\"Reference\""),
        "the fixture must name the engine"
    );
    let path = std::env::temp_dir().join("hpcsim_reference_engine_spec.json");
    std::fs::write(&path, json).unwrap();
    let err = ScenarioSpec::load(&path).unwrap_err();
    std::fs::remove_file(&path).ok();
    let msg = err.to_string();
    assert!(msg.contains("cannot parse"), "{msg}");
    assert!(msg.contains("hpcsim_reference_engine_spec.json"), "{msg}");
    assert!(msg.contains("Reference"), "{msg}");
}

#[test]
fn valid_specs_still_load() {
    // The loader's error paths must not break the happy path: write a
    // valid spec and read it back.
    let spec = ScenarioSpec::builder(swf::TraceSource::Preset {
        preset: swf::TracePreset::Lublin1,
        jobs: 10,
        seed: 1,
    })
    .build();
    let dir = std::env::temp_dir();
    let path = dir.join("hpcsim_valid_spec.json");
    spec.save(&path).unwrap();
    assert_eq!(ScenarioSpec::load(&path).unwrap(), spec);
    std::fs::remove_file(&path).ok();
}

#[test]
fn impossible_machines_are_a_parse_error() {
    // `ClusterSpec::new` and `PartitionSpec::new` reject these shapes; a
    // spec file must not slip past them. Each would otherwise run and drop
    // or mis-time every job.
    let spec = ScenarioSpec::builder(swf::TraceSource::Preset {
        preset: swf::TracePreset::Lublin1,
        jobs: 50,
        seed: 1,
    })
    .cluster(
        ClusterSpec::new(vec![PartitionSpec::new("main", 256, 1.0)]),
        RouterSpec::LeastLoaded,
    )
    .build();
    let json = spec.to_json_pretty();
    let key = "\"parts\": [";
    let open = json.find(key).expect("spec names its partitions") + key.len();
    let close = open + json[open..].find(']').unwrap();
    let no_parts = format!("{}{}", &json[..open], &json[close..]);
    let cases = [
        ("parts", no_parts),
        ("procs", json.replace("\"procs\": 256", "\"procs\": 0")),
        ("speed", json.replace("\"speed\": 1.0", "\"speed\": 0.0")),
        ("speed", json.replace("\"speed\": 1.0", "\"speed\": -1.0")),
    ];
    let path = std::env::temp_dir().join("hpcsim_impossible_machine_spec.json");
    for (field, bad) in cases {
        assert_ne!(bad, json, "the `{field}` edit must change the fixture");
        std::fs::write(&path, bad).unwrap();
        let msg = ScenarioSpec::load(&path).unwrap_err().to_string();
        assert!(msg.contains("cannot parse"), "{msg}");
        assert!(msg.contains("hpcsim_impossible_machine_spec.json"), "{msg}");
        assert!(msg.contains(&format!("`{field}`")), "{msg}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn windows_without_windows_are_a_parse_error() {
    // Zero windows, or windows of zero jobs, have no job to average: a run
    // would report an impossible bsld (0, or NaN from the agent side).
    let json = ScenarioSpec::builder(swf::TraceSource::Preset {
        preset: swf::TracePreset::Lublin1,
        jobs: 50,
        seed: 1,
    })
    .windows(5, 16, 7)
    .build()
    .to_json_pretty();
    let cases = [
        ("samples", json.replace("\"samples\": 5", "\"samples\": 0")),
        (
            "window_len",
            json.replace("\"window_len\": 16", "\"window_len\": 0"),
        ),
    ];
    let path = std::env::temp_dir().join("hpcsim_empty_windows_spec.json");
    for (field, bad) in cases {
        assert_ne!(bad, json, "the `{field}` edit must change the fixture");
        std::fs::write(&path, bad).unwrap();
        let msg = ScenarioSpec::load(&path).unwrap_err().to_string();
        assert!(msg.contains("cannot parse"), "{msg}");
        assert!(msg.contains("hpcsim_empty_windows_spec.json"), "{msg}");
        assert!(msg.contains(&format!("`{field}`")), "{msg}");
    }
    std::fs::remove_file(&path).ok();
}
