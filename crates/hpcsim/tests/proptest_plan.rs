//! Differential property suite for the incremental reservation planner
//! (`hpcsim::plan`): a conservative schedule driven by the persistent
//! per-partition planner must be **bitwise identical** to one driven by a
//! from-scratch replan at every decision point, across random
//! arrival/completion/migration interleavings — heterogeneous clusters,
//! under- and over-estimated runtimes (early/late completions), every
//! policy (including WFP3's re-sort path) and decision-point re-routing.
//!
//! This is the end-to-end counterpart of the planner's per-pass debug
//! oracle: the oracle checks each repaired plan against a fresh replan in
//! place; this suite checks that the *realized schedules* coincide, which
//! also covers the backfill-ordering glue in `conservative_pass` and the
//! shared router-plan scratch (`RouterPlanCache`) exercised by the
//! re-route pass.

use hpcsim::cluster::{ClusterSpec, EarliestStart, LeastLoaded, PartitionSpec, StaticAffinity};
use hpcsim::plan::from_scratch_conservative_starts;
use hpcsim::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;
use swf::{Job, Trace};

#[derive(Debug, Clone, Copy)]
enum RouterKind {
    Affinity,
    LeastLoaded,
    EarliestStart,
}

fn make_router(kind: RouterKind) -> Arc<dyn Router> {
    match kind {
        RouterKind::Affinity => Arc::new(StaticAffinity),
        RouterKind::LeastLoaded => Arc::new(LeastLoaded),
        RouterKind::EarliestStart => Arc::new(EarliestStart::default()),
    }
}

#[derive(Debug, Clone)]
struct Case {
    trace: Trace,
    spec: ClusterSpec,
    policy: Policy,
    router: RouterKind,
    reroute: ReroutePolicy,
    estimator: RuntimeEstimator,
}

fn arb_case() -> impl Strategy<Value = Case> {
    let jobs = proptest::collection::vec(
        (
            0.0f64..2_000.0, // submit
            1u32..=16,       // procs (≤ smallest partition: nothing drops)
            1.0f64..400.0,   // runtime
            0.5f64..3.0,     // request = runtime * factor (under/over-estimates)
        ),
        1..120,
    );
    let parts = proptest::collection::vec(
        (
            16u32..=64,
            prop_oneof![
                Just(1.0f64),
                Just(1.0f64),
                Just(1.0f64),
                Just(2.0),
                Just(1.35)
            ],
        ),
        1..=3,
    );
    let policy = prop_oneof![
        Just(Policy::Fcfs),
        Just(Policy::Sjf),
        Just(Policy::Wfp3),
        Just(Policy::F1)
    ];
    let router = prop_oneof![
        Just(RouterKind::Affinity),
        Just(RouterKind::LeastLoaded),
        Just(RouterKind::EarliestStart)
    ];
    let reroute = prop_oneof![
        Just(ReroutePolicy::AtSubmission),
        (1u32..=3, 0.0f64..120.0).prop_map(|(m, g)| ReroutePolicy::AtDecisionPoints {
            max_moves_per_job: m,
            min_gain_secs: g,
        }),
    ];
    let estimator = prop_oneof![
        Just(RuntimeEstimator::RequestTime).boxed(),
        Just(RuntimeEstimator::RequestTime).boxed(),
        Just(RuntimeEstimator::RequestTime).boxed(),
        Just(RuntimeEstimator::ActualRuntime).boxed(),
        (0.0f64..1.0, 0u64..100)
            .prop_map(|(f, s)| RuntimeEstimator::NoisyActual {
                max_over_frac: f,
                seed: s,
            })
            .boxed(),
    ];
    (jobs, parts, policy, router, reroute, estimator).prop_map(
        |(mut jobs, parts, policy, router, reroute, estimator)| {
            jobs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let total: u32 = parts.iter().map(|&(p, _)| p).sum();
            let jobs: Vec<Job> = jobs
                .into_iter()
                .enumerate()
                .map(|(id, (submit, procs, runtime, factor))| {
                    Job::new(id, submit, procs, runtime, runtime * factor)
                })
                .collect();
            let spec = ClusterSpec::new(
                parts
                    .iter()
                    .enumerate()
                    .map(|(i, &(procs, speed))| PartitionSpec::new(format!("p{i}"), procs, speed))
                    .collect(),
            );
            Case {
                trace: Trace::new("prop", total, jobs),
                spec,
                policy,
                router,
                reroute,
                estimator,
            }
        },
    )
}

fn schedule(sim: &Simulation) -> Vec<(usize, u64)> {
    let mut s: Vec<(usize, u64)> = sim
        .completed()
        .iter()
        .map(|c| (c.job.id, c.start.to_bits()))
        .collect();
    s.sort_unstable();
    s
}

/// Drives the simulation with the production conservative pass (the
/// kernel engine's incremental planner).
fn run_incremental(case: &Case) -> Simulation {
    let mut sim = Simulation::with_cluster_rerouted(
        &case.trace,
        case.policy,
        case.spec.clone(),
        make_router(case.router),
        case.reroute,
    );
    while sim.advance() == SimEvent::BackfillOpportunity {
        hpcsim::conservative::conservative_pass(&mut sim, case.estimator);
    }
    sim
}

/// Drives an identical simulation, but every pass re-derives the plan
/// from scratch (`from_scratch_conservative_starts`) — the seed-pinned
/// semantics, bypassing the persistent planner entirely.
fn run_scratch(case: &Case) -> Simulation {
    let mut sim = Simulation::with_cluster_rerouted(
        &case.trace,
        case.policy,
        case.spec.clone(),
        make_router(case.router),
        case.reroute,
    );
    while sim.advance() == SimEvent::BackfillOpportunity {
        let starts = from_scratch_conservative_starts(
            sim.now(),
            sim.free_procs(),
            sim.running(),
            sim.queue(),
            case.estimator,
        );
        let mut started = 0;
        for pos in starts {
            if sim.backfill(pos - started).is_ok() {
                started += 1;
            }
        }
    }
    sim
}

proptest! {
    /// Incremental plan repair realizes the same schedule as a
    /// from-scratch replan at every decision point — bitwise, including
    /// migration counts, across random event interleavings.
    #[test]
    fn incremental_repair_matches_from_scratch_replan(case in arb_case()) {
        let inc = run_incremental(&case);
        let scr = run_scratch(&case);
        prop_assert!(
            inc.completed().len() + inc.dropped_jobs() == case.trace.len(),
            "incremental run lost jobs"
        );
        prop_assert_eq!(inc.migrations(), scr.migrations());
        prop_assert_eq!(inc.dropped_jobs(), scr.dropped_jobs());
        prop_assert_eq!(schedule(&inc), schedule(&scr));
    }
}
