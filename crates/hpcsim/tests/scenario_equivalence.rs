//! Pins `scenario::run` **bitwise** to the seed-pinned low-level engines
//! (`run_scheduler` / `run_scheduler_on_rerouted`) across Policy × Backfill ×
//! router, so the declarative redesign cannot drift from the engines the
//! equivalence suite already ties to the seed implementation.
//!
//! The contract: a spec is *pure data* — executing it must produce the
//! exact schedule (same `(id, start)` pairs, same metrics bits) as
//! hand-rolled plumbing over the same trace, platform and heuristic.

use hpcsim::prelude::*;
use hpcsim::state::CompletedJob;
use hpcsim::Phase;
use std::sync::Arc;
use swf::{TracePreset, TraceSource};

const JOBS: usize = 400;
const SEED: u64 = 1123;

fn source() -> TraceSource {
    TraceSource::Preset {
        preset: TracePreset::SdscSp2,
        jobs: JOBS,
        seed: SEED,
    }
}

fn all_backfills() -> Vec<Backfill> {
    vec![
        Backfill::None,
        Backfill::Easy(RuntimeEstimator::RequestTime),
        Backfill::Easy(RuntimeEstimator::ActualRuntime),
        Backfill::Easy(RuntimeEstimator::NoisyActual {
            max_over_frac: 0.4,
            seed: 11,
        }),
        Backfill::EasyOrdered(RuntimeEstimator::RequestTime, Policy::Sjf),
        Backfill::Conservative(RuntimeEstimator::RequestTime),
    ]
}

fn schedule_of(completed: &[CompletedJob]) -> Vec<(usize, f64)> {
    let mut v: Vec<(usize, f64)> = completed.iter().map(|c| (c.job.id, c.start)).collect();
    v.sort_by_key(|&(id, _)| id);
    v
}

#[test]
fn scenario_run_equals_run_scheduler_for_every_policy_and_backfill() {
    let trace = source().materialize().unwrap();
    for policy in Policy::ALL {
        for backfill in all_backfills() {
            let spec = ScenarioSpec::builder(source())
                .policy(policy)
                .backfill(backfill)
                .record_schedule(true)
                .build();
            let report = hpcsim::scenario::run(&spec).unwrap();
            let direct = run_scheduler(&trace, policy, backfill);
            assert_eq!(
                report.metrics, direct.metrics,
                "metrics drifted: {policy} {backfill:?}"
            );
            assert_eq!(
                schedule_of(report.schedule.as_ref().unwrap()),
                schedule_of(&direct.completed),
                "schedule drifted: {policy} {backfill:?}"
            );
        }
    }
}

#[test]
fn scenario_run_equals_run_scheduler_on_under_every_router() {
    // A partitioned workload: the spec's platform names the cluster +
    // router; the direct call builds the identical pieces by hand.
    let parts = 3;
    let w = swf::partitioned_preset(TracePreset::Lublin1, parts, JOBS, SEED);
    let cluster = ClusterSpec::from_layout(&w.layout);
    let src = TraceSource::PartitionedPreset {
        preset: TracePreset::Lublin1,
        parts,
        jobs: JOBS,
        seed: SEED,
    };
    let routers: Vec<(RouterSpec, Arc<dyn hpcsim::cluster::Router>)> = vec![
        (RouterSpec::Affinity, Arc::new(StaticAffinity)),
        (RouterSpec::LeastLoaded, Arc::new(LeastLoaded)),
        (
            RouterSpec::EarliestStart(RuntimeEstimator::RequestTime),
            Arc::new(EarliestStart::default()),
        ),
    ];
    for policy in [Policy::Fcfs, Policy::Sjf] {
        for backfill in [
            Backfill::Easy(RuntimeEstimator::RequestTime),
            Backfill::Conservative(RuntimeEstimator::RequestTime),
        ] {
            for (router_spec, router) in &routers {
                let spec = ScenarioSpec::builder(src.clone())
                    .policy(policy)
                    .backfill(backfill)
                    .cluster(cluster.clone(), *router_spec)
                    .record_schedule(true)
                    .build();
                let report = hpcsim::scenario::run(&spec).unwrap();
                let direct = run_scheduler_on_rerouted(
                    &w.trace,
                    policy,
                    backfill,
                    &cluster,
                    Arc::clone(router),
                    ReroutePolicy::AtSubmission,
                );
                assert_eq!(
                    report.metrics,
                    direct.metrics,
                    "metrics drifted: {policy} {backfill:?} {}",
                    router_spec.label()
                );
                assert_eq!(
                    schedule_of(report.schedule.as_ref().unwrap()),
                    schedule_of(&direct.completed),
                    "schedule drifted: {policy} {backfill:?} {}",
                    router_spec.label()
                );
            }
        }
    }
}

#[test]
fn at_submission_reroute_is_bitwise_inert_across_routers_and_policies() {
    // An explicit `reroute: AtSubmission` spec must realize the exact
    // schedule of (a) the same spec without the field and (b) the direct
    // `run_scheduler_on_rerouted` engines — the migration subsystem cannot perturb
    // default runs, for any router × policy.
    let parts = 3;
    let w = swf::partitioned_preset(TracePreset::Lublin1, parts, JOBS, SEED);
    let cluster = ClusterSpec::from_layout(&w.layout);
    let src = TraceSource::PartitionedPreset {
        preset: TracePreset::Lublin1,
        parts,
        jobs: JOBS,
        seed: SEED,
    };
    let routers: Vec<(RouterSpec, Arc<dyn hpcsim::cluster::Router>)> = vec![
        (RouterSpec::Affinity, Arc::new(StaticAffinity)),
        (RouterSpec::LeastLoaded, Arc::new(LeastLoaded)),
        (
            RouterSpec::EarliestStart(RuntimeEstimator::RequestTime),
            Arc::new(EarliestStart::default()),
        ),
    ];
    for policy in Policy::ALL {
        for (router_spec, router) in &routers {
            let implicit = ScenarioSpec::builder(src.clone())
                .policy(policy)
                .cluster(cluster.clone(), *router_spec)
                .record_schedule(true)
                .build();
            let explicit = ScenarioSpec::builder(src.clone())
                .policy(policy)
                .cluster(cluster.clone(), *router_spec)
                .reroute(ReroutePolicy::AtSubmission)
                .record_schedule(true)
                .build();
            assert_eq!(implicit, explicit, "AtSubmission is the default");
            let report = hpcsim::scenario::run(&explicit).unwrap();
            let direct = run_scheduler_on_rerouted(
                &w.trace,
                policy,
                Backfill::Easy(RuntimeEstimator::RequestTime),
                &cluster,
                Arc::clone(router),
                ReroutePolicy::AtSubmission,
            );
            assert_eq!(
                report.metrics,
                direct.metrics,
                "metrics drifted: {policy} {}",
                router_spec.label()
            );
            assert_eq!(
                schedule_of(report.schedule.as_ref().unwrap()),
                schedule_of(&direct.completed),
                "schedule drifted: {policy} {}",
                router_spec.label()
            );
            assert_eq!(report.jobs + report.dropped_jobs, w.trace.len());
        }
    }
}

#[test]
fn empty_platform_event_stream_is_bitwise_inert_across_routers_and_policies() {
    // The fault layer's zero-cost contract: a spec carrying an explicit
    // *empty* `events` block must serialize, run and report byte-for-byte
    // identically to the same spec without the field — for every router ×
    // policy. A diff here means a static machine pays for the dynamic
    // layer, and every committed report pin in the repo is at risk.
    let parts = 2;
    let w = swf::partitioned_preset(TracePreset::Lublin1, parts, JOBS, SEED);
    let cluster = ClusterSpec::from_layout(&w.layout);
    let src = TraceSource::PartitionedPreset {
        preset: TracePreset::Lublin1,
        parts,
        jobs: JOBS,
        seed: SEED,
    };
    for policy in [Policy::Fcfs, Policy::Sjf, Policy::F1] {
        for router_spec in [
            RouterSpec::Affinity,
            RouterSpec::LeastLoaded,
            RouterSpec::EarliestStart(RuntimeEstimator::RequestTime),
        ] {
            let plain = ScenarioSpec::builder(src.clone())
                .policy(policy)
                .cluster(cluster.clone(), router_spec)
                .record_schedule(true)
                .build();
            let with_empty = ScenarioSpec::builder(src.clone())
                .policy(policy)
                .cluster(cluster.clone(), router_spec)
                .record_schedule(true)
                .events(hpcsim::platform::PlatformEventSpec::default())
                .build();
            assert_eq!(plain, with_empty, "an empty event spec is the default");
            let spec_json = with_empty.to_json_pretty();
            assert!(
                !spec_json.contains("\"events\""),
                "empty events must be omitted from spec JSON"
            );
            let a = hpcsim::scenario::run(&plain).unwrap();
            let b = hpcsim::scenario::run(&with_empty).unwrap();
            assert_eq!(
                a.to_json_pretty(),
                b.to_json_pretty(),
                "report bytes drifted: {policy} {}",
                router_spec.label()
            );
            assert!(b.robustness.is_none(), "no events, no robustness block");
            assert!(
                !b.to_json_pretty().contains("\"robustness\""),
                "unperturbed reports must not grow a robustness field"
            );
        }
    }
}

#[test]
fn decision_point_migration_changes_partitioned_schedules() {
    // The counterpart of the inertness pin: with migration on, the same
    // spec must realize a *different* schedule (otherwise the subsystem
    // is dead code), while still conserving every job.
    let parts = 2;
    let w = swf::partitioned_preset(TracePreset::Lublin1, parts, JOBS, SEED);
    let cluster = ClusterSpec::from_layout(&w.layout);
    let src = TraceSource::PartitionedPreset {
        preset: TracePreset::Lublin1,
        parts,
        jobs: JOBS,
        seed: SEED,
    };
    let build = |reroute| {
        ScenarioSpec::builder(src.clone())
            .cluster(cluster.clone(), RouterSpec::LeastLoaded)
            .reroute(reroute)
            .record_schedule(true)
            .build()
    };
    let pinned = hpcsim::scenario::run(&build(ReroutePolicy::AtSubmission)).unwrap();
    let migrated = hpcsim::scenario::run(&build(ReroutePolicy::AtDecisionPoints {
        max_moves_per_job: 3,
        min_gain_secs: 0.0,
    }))
    .unwrap();
    assert_eq!(migrated.jobs + migrated.dropped_jobs, w.trace.len());
    assert_eq!(pinned.jobs, migrated.jobs);
    assert_ne!(
        schedule_of(pinned.schedule.as_ref().unwrap()),
        schedule_of(migrated.schedule.as_ref().unwrap()),
        "decision-point migration must change the realized schedule"
    );
}

#[test]
fn degenerate_platform_is_bitwise_flat_regardless_of_router() {
    // The one-partition spec must reproduce the flat engine exactly under
    // every router — the cluster-subsystem invariant, restated at the
    // scenario layer.
    let trace = source().materialize().unwrap();
    let flat = run_scheduler(
        &trace,
        Policy::Fcfs,
        Backfill::Easy(RuntimeEstimator::RequestTime),
    );
    for router in RouterSpec::ALL {
        for reroute in [
            ReroutePolicy::AtSubmission,
            // Migration is inert on a single partition: the degenerate
            // equivalence holds even with re-routing enabled.
            ReroutePolicy::AtDecisionPoints {
                max_moves_per_job: 3,
                min_gain_secs: 0.0,
            },
        ] {
            let spec = ScenarioSpec::builder(source())
                .cluster(ClusterSpec::homogeneous(trace.cluster_procs()), router)
                .reroute(reroute)
                .record_schedule(true)
                .build();
            let report = hpcsim::scenario::run(&spec).unwrap();
            assert_eq!(report.metrics, flat.metrics, "{}", router.label());
            assert_eq!(
                schedule_of(report.schedule.as_ref().unwrap()),
                schedule_of(&flat.completed),
                "{}",
                router.label()
            );
        }
    }
}

#[test]
fn telemetry_flag_does_not_perturb_schedule_or_committed_bytes() {
    // `telemetry: true` must change only the report's telemetry section:
    // same metrics bits, same schedule, and the telemetry-off report's
    // JSON must not mention the field at all (the committed byte pins
    // predate it).
    for backfill in [
        Backfill::Easy(RuntimeEstimator::RequestTime),
        Backfill::Conservative(RuntimeEstimator::RequestTime),
    ] {
        let build = |telemetry| {
            ScenarioSpec::builder(source())
                .backfill(backfill)
                .telemetry(telemetry)
                .record_schedule(true)
                .build()
        };
        let plain = hpcsim::scenario::run(&build(false)).unwrap();
        let observed = hpcsim::scenario::run(&build(true)).unwrap();
        assert_eq!(plain.metrics, observed.metrics, "{backfill:?}");
        assert_eq!(
            schedule_of(plain.schedule.as_ref().unwrap()),
            schedule_of(observed.schedule.as_ref().unwrap()),
            "telemetry collection perturbed the schedule: {backfill:?}"
        );
        assert!(plain.telemetry.is_none());
        assert!(
            !plain.to_json_pretty().contains("\"telemetry\""),
            "a telemetry-off report must serialize without the field"
        );
        let t = observed.telemetry.as_ref().expect("opted in");
        assert!(t.events > 0, "{backfill:?} collected no events");
        // Round-trip: the report with telemetry parses back equal.
        let back = RunReport::from_json(&observed.to_json_pretty()).unwrap();
        assert_eq!(back, observed);
    }
}

#[test]
fn windows_telemetry_is_the_merge_of_per_window_counters() {
    // Under the Windows protocol the report's telemetry must be exactly
    // the per-window counters summed (peaks maxed) — checked here against
    // a manual window loop over the recorded runner.
    let trace = source().materialize().unwrap();
    let (samples, window_len, wseed) = (4, 96, 77);
    let spec = ScenarioSpec::builder(source())
        .windows(samples, window_len, wseed)
        .telemetry(true)
        .build();
    let report = hpcsim::scenario::run(&spec).unwrap();
    let t = report
        .telemetry
        .expect("windows runs still collect counters");

    let windows = hpcsim::scenario::sample_windows(&trace, samples, window_len, wseed);
    let mut expected = Telemetry::default();
    for w in &windows {
        let (_, rec) = run_scheduler_probed(
            w,
            Policy::Fcfs,
            Backfill::Easy(RuntimeEstimator::RequestTime),
            &ClusterSpec::homogeneous(w.cluster_procs()),
            Arc::new(StaticAffinity),
            ReroutePolicy::AtSubmission,
            &PlatformEventSpec::default(),
            Recorder::default(),
        )
        .expect("an empty event spec installs");
        expected.merge(rec.telemetry());
    }
    assert_eq!(t, expected);
}

#[test]
fn run_recorded_matches_run_and_traces_every_phase() {
    // The span-tracing entry point must realize the identical report as
    // `run` (modulo the attached telemetry) and cover all four simulation
    // phases on a migration-enabled conservative spec.
    let parts = 2;
    let w = swf::partitioned_preset(TracePreset::Lublin1, parts, JOBS, SEED);
    let spec = ScenarioSpec::builder(TraceSource::PartitionedPreset {
        preset: TracePreset::Lublin1,
        parts,
        jobs: JOBS,
        seed: SEED,
    })
    .cluster(ClusterSpec::from_layout(&w.layout), RouterSpec::LeastLoaded)
    .reroute(ReroutePolicy::AtDecisionPoints {
        max_moves_per_job: 3,
        min_gain_secs: 60.0,
    })
    .backfill(Backfill::Conservative(RuntimeEstimator::RequestTime))
    .record_schedule(true)
    .build();
    let plain = hpcsim::scenario::run(&spec).unwrap();
    let (recorded, recorder) = hpcsim::scenario::run_recorded(&spec).unwrap();
    assert_eq!(plain.metrics, recorded.metrics);
    assert_eq!(
        schedule_of(plain.schedule.as_ref().unwrap()),
        schedule_of(recorded.schedule.as_ref().unwrap())
    );
    let spans = recorder.spans();
    assert!(!spans.is_empty());
    for phase in [
        Phase::ArrivalBatch,
        Phase::ReroutePass,
        Phase::ConservativePass,
        Phase::BackfillScan,
    ] {
        assert!(
            spans.iter().any(|s| s.phase == phase),
            "no {} span recorded",
            phase.name()
        );
    }
    // The Chrome-trace export is one well-formed JSON object carrying
    // one complete ("ph": "X") event per span.
    let json = recorder.chrome_trace_json();
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("trace JSON parses");
    let events = parsed
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("trace has a traceEvents array");
    assert_eq!(events.len(), spans.len());
}

#[test]
fn windows_protocol_matches_manual_window_loop() {
    // The §4.3 protocol through the spec == sampling the same windows by
    // hand and averaging the per-window metrics.
    let trace = source().materialize().unwrap();
    let (samples, window_len, wseed) = (5, 96, 77);
    let spec = ScenarioSpec::builder(source())
        .windows(samples, window_len, wseed)
        .build();
    let report = hpcsim::scenario::run(&spec).unwrap();

    let windows = hpcsim::scenario::sample_windows(&trace, samples, window_len, wseed);
    let per: Vec<Metrics> = windows
        .iter()
        .map(|w| {
            run_scheduler(
                w,
                Policy::Fcfs,
                Backfill::Easy(RuntimeEstimator::RequestTime),
            )
            .metrics
        })
        .collect();
    assert_eq!(report.metrics, hpcsim::scenario::mean_metrics(&per));
}
