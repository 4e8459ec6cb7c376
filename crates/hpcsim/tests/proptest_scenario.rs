//! Serde round-trip property tests for the scenario layer: any
//! [`ScenarioSpec`] the builder can produce must survive
//! JSON-serialize → parse **exactly** (`PartialEq`), because committed
//! spec files are the reproducibility contract of the experiment grid.

use hpcsim::cluster::{ClusterSpec, PartitionSpec};
use hpcsim::prelude::*;
use hpcsim::scenario::SelectedMetric;
use proptest::prelude::*;
use swf::{TracePreset, TraceSource};

fn arb_preset() -> impl Strategy<Value = TracePreset> {
    prop_oneof![
        Just(TracePreset::SdscSp2),
        Just(TracePreset::Hpc2n),
        Just(TracePreset::Lublin1),
        Just(TracePreset::Lublin2),
    ]
}

fn arb_source() -> impl Strategy<Value = TraceSource> {
    prop_oneof![
        (arb_preset(), 1usize..5000, any::<u64>())
            .prop_map(|(preset, jobs, seed)| TraceSource::Preset { preset, jobs, seed }),
        (arb_preset(), 2usize..=4, 1usize..5000, any::<u64>()).prop_map(
            |(preset, parts, jobs, seed)| TraceSource::PartitionedPreset {
                preset,
                parts,
                jobs,
                seed,
            }
        ),
        (
            16u32..512,
            100.0f64..2000.0,
            500.0f64..20000.0,
            1.0f64..32.0,
            1usize..5000,
            any::<u64>(),
        )
            .prop_map(|(procs, it, rt, nt, jobs, seed)| TraceSource::Lublin {
                procs,
                mean_interarrival: it,
                mean_runtime: rt,
                mean_procs: nt,
                jobs,
                seed,
            }),
        (
            16u32..512,
            2usize..=4,
            0.2f64..1.2,
            1usize..5000,
            any::<u64>()
        )
            .prop_map(
                |(total, parts, load, jobs, seed)| TraceSource::PartitionedLublin {
                    layout: swf::split_cluster(total.max(parts as u32), parts),
                    load,
                    jobs,
                    seed,
                }
            ),
        (0u32..1000).prop_map(|stem| TraceSource::SwfFile {
            path: format!("traces/archive-{stem}.swf"),
        }),
    ]
}

fn arb_estimator() -> impl Strategy<Value = RuntimeEstimator> {
    prop_oneof![
        Just(RuntimeEstimator::RequestTime),
        Just(RuntimeEstimator::ActualRuntime),
        (0.01f64..2.0, any::<u64>()).prop_map(|(max_over_frac, seed)| {
            RuntimeEstimator::NoisyActual {
                max_over_frac,
                seed,
            }
        }),
    ]
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Fcfs),
        Just(Policy::Sjf),
        Just(Policy::Wfp3),
        Just(Policy::F1),
    ]
}

fn arb_backfill() -> impl Strategy<Value = Backfill> {
    prop_oneof![
        Just(Backfill::None),
        arb_estimator().prop_map(Backfill::Easy),
        (arb_estimator(), arb_policy()).prop_map(|(e, p)| Backfill::EasyOrdered(e, p)),
        arb_estimator().prop_map(Backfill::Conservative),
    ]
}

fn arb_router() -> impl Strategy<Value = RouterSpec> {
    prop_oneof![
        Just(RouterSpec::Affinity),
        Just(RouterSpec::LeastLoaded),
        arb_estimator().prop_map(RouterSpec::EarliestStart),
    ]
}

fn arb_reroute() -> impl Strategy<Value = ReroutePolicy> {
    prop_oneof![
        Just(ReroutePolicy::AtSubmission),
        (0u32..8, 0.0f64..3600.0).prop_map(|(max_moves_per_job, min_gain_secs)| {
            ReroutePolicy::AtDecisionPoints {
                max_moves_per_job,
                min_gain_secs,
            }
        }),
    ]
}

fn arb_platform() -> impl Strategy<Value = Platform> {
    let cluster = proptest::collection::vec((1u32..256, 0.25f64..4.0), 1..4).prop_map(|parts| {
        ClusterSpec::new(
            parts
                .into_iter()
                .enumerate()
                .map(|(i, (procs, speed))| PartitionSpec::new(format!("p{i}"), procs, speed))
                .collect(),
        )
    });
    (any::<bool>(), cluster, arb_router(), arb_reroute()).prop_map(
        |(flat, cluster, router, reroute)| Platform {
            cluster: if flat { None } else { Some(cluster) },
            router,
            reroute,
        },
    )
}

fn arb_scheduler() -> impl Strategy<Value = SchedulerSpec> {
    let agent =
        (any::<bool>(), 0u32..100, any::<bool>()).prop_map(|(with_checkpoint, ckpt, with_env)| {
            SchedulerSpec::Agent(AgentSlot {
                checkpoint: with_checkpoint.then(|| format!("results/agents/a{ckpt}.json")),
                // An opaque config payload, as the RL crate would embed.
                env: with_env.then(|| {
                    serde_json::Value::Object(vec![(
                        "max_obsv_size".to_string(),
                        serde_json::Value::Number(serde::Number::U64(64)),
                    )])
                }),
                train: None,
            })
        });
    prop_oneof![arb_backfill().prop_map(SchedulerSpec::Heuristic), agent]
}

fn arb_protocol() -> impl Strategy<Value = Protocol> {
    prop_oneof![
        Just(Protocol::FullTrace),
        (1usize..20, 8usize..2048, any::<u64>()).prop_map(|(samples, window_len, seed)| {
            Protocol::Windows {
                samples,
                window_len,
                seed,
            }
        }),
    ]
}

fn arb_metric() -> impl Strategy<Value = MetricKind> {
    prop_oneof![
        Just(MetricKind::BoundedSlowdown),
        Just(MetricKind::Slowdown),
        Just(MetricKind::Wait),
        Just(MetricKind::MaxWait),
        Just(MetricKind::Turnaround),
        Just(MetricKind::Utilization),
        Just(MetricKind::Makespan),
    ]
}

fn arb_platform_event() -> impl Strategy<Value = PlatformEvent> {
    prop_oneof![
        (0.0f64..1e6, 0usize..4, 1u32..64).prop_map(|(at, part, procs)| PlatformEvent::NodeFail {
            at,
            part,
            procs
        }),
        (0.0f64..1e6, 0usize..4, 1u32..64)
            .prop_map(|(at, part, procs)| PlatformEvent::NodeRepair { at, part, procs }),
        (0.0f64..1e6, 0usize..4).prop_map(|(at, part)| PlatformEvent::DrainStart { at, part }),
        (0.0f64..1e6, 0usize..4).prop_map(|(at, part)| PlatformEvent::DrainEnd { at, part }),
        (0.0f64..1e6, 0usize..4, 0u32..64).prop_map(|(at, part, procs)| PlatformEvent::Resize {
            at,
            part,
            procs
        }),
    ]
}

fn arb_events() -> impl Strategy<Value = PlatformEventSpec> {
    let part = prop_oneof![Just(None), (0usize..4).prop_map(Some)];
    let process = (
        (any::<u64>(), 1.0f64..1e6),
        (100.0f64..1e5, 10.0f64..1e4),
        (1u32..64, part),
    )
        .prop_map(
            |((seed, until), (mtbf_secs, repair_secs), (procs, part))| FailureProcess {
                seed,
                until,
                mtbf_secs,
                repair_secs,
                procs,
                part,
            },
        );
    let policy = prop_oneof![
        Just(FailurePolicy::KillResubmit),
        (0.0f64..1e4).prop_map(|overhead_secs| FailurePolicy::CheckpointRestart { overhead_secs }),
    ];
    (
        proptest::collection::vec(arb_platform_event(), 0..4),
        proptest::collection::vec(process, 0..3),
        policy,
    )
        .prop_map(|(trace, processes, failure_policy)| PlatformEventSpec {
            trace,
            processes,
            failure_policy,
        })
}

#[allow(clippy::type_complexity)]
fn arb_spec() -> impl Strategy<Value = ScenarioSpec> {
    let name =
        (any::<bool>(), 0u32..100).prop_map(|(named, n)| named.then(|| format!("custom row {n}")));
    (
        (name, arb_source(), arb_platform()),
        (arb_policy(), arb_scheduler()),
        (
            arb_protocol(),
            proptest::collection::vec(any::<u64>(), 0..8),
            proptest::collection::vec(arb_metric(), 0..5),
            (any::<bool>(), any::<bool>(), any::<bool>()),
            arb_events(),
        ),
    )
        .prop_map(
            |(
                (name, trace, platform),
                (policy, scheduler),
                (protocol, seeds, metrics, (record_schedule, telemetry, audit), events),
            )| ScenarioSpec {
                name,
                trace,
                platform,
                policy,
                scheduler,
                engine: Engine::Kernel,
                protocol,
                seeds,
                metrics,
                record_schedule,
                telemetry,
                audit,
                events,
            },
        )
}

proptest! {
    #[test]
    fn specs_round_trip_through_json(spec in arb_spec()) {
        let json = spec.to_json_pretty();
        let back = ScenarioSpec::from_json(&json).expect("round-trip parse");
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn specs_round_trip_through_compact_json(spec in arb_spec()) {
        let json = serde_json::to_string(&spec).expect("serializes");
        let back: ScenarioSpec = serde_json::from_str(&json).expect("parses");
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn labels_are_deterministic_and_nonempty(spec in arb_spec()) {
        prop_assert_eq!(spec.label(), spec.label());
        // A named spec uses the name verbatim; unnamed labels are derived.
        if let Some(name) = &spec.name {
            prop_assert_eq!(&spec.label(), name);
        } else {
            prop_assert!(!spec.label().is_empty());
        }
    }

    #[test]
    fn reports_round_trip_through_json(spec in arb_spec(), seed in any::<u64>(), seeded in any::<bool>()) {
        // Reports must round-trip regardless of whether the spec is
        // runnable here (agent slots, missing SWF files): build one
        // directly over synthetic metrics.
        let metrics = hpcsim::Metrics::of(&[], 4);
        let report = hpcsim::scenario::make_report(&spec, seeded.then_some(seed), metrics, 0, None);
        prop_assert_eq!(&report.label, &spec.label());
        let back = RunReport::from_json(&report.to_json_pretty()).expect("report parses");
        prop_assert_eq!(back, report);
    }

    #[test]
    fn selected_metrics_default_to_bsld(spec in arb_spec()) {
        let metrics = hpcsim::Metrics::of(&[], 4);
        let report = hpcsim::scenario::make_report(&spec, None, metrics, 0, None);
        if spec.metrics.is_empty() {
            prop_assert_eq!(
                report.selected,
                vec![SelectedMetric { metric: "bsld".into(), value: 0.0 }]
            );
        } else {
            prop_assert_eq!(report.selected.len(), spec.metrics.len());
        }
    }
}
