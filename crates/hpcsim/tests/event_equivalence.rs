//! End-to-end cluster checks on the kernel alone: a one-partition cluster
//! realizes the flat engine's schedule bitwise under every router, and a
//! heterogeneous split completes every routed job exactly once. The
//! kernel-vs-seed differential suite runs in hpcsim's unit tests
//! (`reference::equivalence`), beside the test-only seed engine.

use hpcsim::prelude::*;
use std::sync::Arc;

/// All backfill strategies exercised by the paper's experiments.
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
        Backfill::Conservative(RuntimeEstimator::ActualRuntime),
    ]
}

/// The schedule as a canonical `(id, start)` list, sorted by id.
fn schedule_of(completed: &[hpcsim::state::CompletedJob]) -> Vec<(usize, f64)> {
    let mut v: Vec<(usize, f64)> = completed.iter().map(|c| (c.job.id, c.start)).collect();
    v.sort_by_key(|&(id, _)| id);
    v
}

#[test]
fn one_partition_cluster_matches_homogeneous_engine_bitwise() {
    // The degenerate ClusterSpec must reproduce the flat engine's schedule
    // bitwise for every Policy × Backfill, under every router (a router on
    // a one-partition machine has exactly one legal answer — routing
    // strategy must be unobservable). The flat engine is itself pinned to
    // the seed engine by hpcsim's `reference::equivalence` unit tests, so
    // transitively: cluster == seed.
    let routers: Vec<Arc<dyn Router>> = vec![
        Arc::new(StaticAffinity),
        Arc::new(LeastLoaded),
        Arc::new(EarliestStart::default()),
    ];
    for preset in [swf::TracePreset::Lublin2, swf::TracePreset::SdscSp2] {
        let trace = preset.generate(500, 77);
        let spec = ClusterSpec::homogeneous(trace.cluster_procs());
        for policy in Policy::ALL {
            for backfill in all_backfills() {
                let flat = run_scheduler(&trace, policy, backfill);
                for router in &routers {
                    let clustered = run_scheduler_on_rerouted(
                        &trace,
                        policy,
                        backfill,
                        &spec,
                        Arc::clone(router),
                        ReroutePolicy::AtSubmission,
                    );
                    assert_eq!(
                        schedule_of(&clustered.completed),
                        schedule_of(&flat.completed),
                        "one-partition cluster diverged: {policy} {backfill:?} {router:?}"
                    );
                    assert_eq!(
                        clustered.metrics.mean_bounded_slowdown,
                        flat.metrics.mean_bounded_slowdown
                    );
                }
            }
        }
    }
}

#[test]
fn multi_partition_runs_complete_under_every_router() {
    // Not an equivalence check (partitioned schedules legitimately differ)
    // but the end-to-end guarantee: every routed job completes exactly
    // once, under every policy × backfill × router, on a heterogeneous
    // 3-partition split.
    let w = swf::partitioned_preset(swf::TracePreset::Lublin1, 3, 400, 13);
    let spec = ClusterSpec::from_layout(&w.layout);
    let routers: Vec<Arc<dyn Router>> = vec![
        Arc::new(StaticAffinity),
        Arc::new(LeastLoaded),
        Arc::new(EarliestStart::default()),
    ];
    for policy in Policy::ALL {
        for backfill in all_backfills() {
            for router in &routers {
                let r = run_scheduler_on_rerouted(
                    &w.trace,
                    policy,
                    backfill,
                    &spec,
                    Arc::clone(router),
                    ReroutePolicy::AtSubmission,
                );
                assert_eq!(
                    r.completed.len(),
                    w.trace.len(),
                    "jobs lost: {policy} {backfill:?} {router:?}"
                );
                let mut ids: Vec<usize> = r.completed.iter().map(|c| c.job.id).collect();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(ids.len(), w.trace.len(), "duplicate completions");
            }
        }
    }
}
