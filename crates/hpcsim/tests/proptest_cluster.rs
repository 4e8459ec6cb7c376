//! Property tests for the multi-partition cluster engine: per-partition
//! free-processor accounting must never go negative or exceed the
//! partition size, queues must only hold jobs that fit their partition,
//! and every routed job must complete exactly once — across random traces,
//! random heterogeneous 2–4 partition specs, every router, and both
//! heuristic and adversarial interactive driving.

use hpcsim::cluster::{
    ClusterSpec, EarliestStart, LeastLoaded, PartitionSpec, ReroutePolicy, Router, StaticAffinity,
};
use hpcsim::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;
use swf::{Job, Trace};

/// Asserts every per-partition invariant at one paused instant.
fn check_invariants(sim: &Simulation) {
    for (i, part) in sim.partitions().iter().enumerate() {
        // `free` is unsigned, so "never negative" is enforced by
        // construction; the subtraction paths would panic in debug builds.
        // What can drift is the conservation law:
        let running: u32 = part.running().iter().map(|r| r.job.procs).sum();
        assert!(
            part.free() <= part.procs(),
            "partition {i}: free {} exceeds size {}",
            part.free(),
            part.procs()
        );
        assert_eq!(
            part.free() + running,
            part.procs(),
            "partition {i}: free {} + running {} != size {}",
            part.free(),
            running,
            part.procs()
        );
        for j in part.queue() {
            assert!(
                j.procs <= part.procs(),
                "partition {i}: queued job {} is wider than the partition",
                j.id
            );
        }
        for r in part.running() {
            assert!(r.job.procs <= part.procs());
        }
    }
}

/// A random contended workload on a 48-processor machine.
fn arb_trace() -> impl Strategy<Value = Trace> {
    let job = (
        0.0f64..20_000.0, // submit
        1u32..=24,        // procs (fits the smallest generated partition split)
        1.0f64..10_000.0, // runtime
        1.0f64..2.5,      // request multiplier
    );
    proptest::collection::vec(job, 1..80).prop_map(|specs| {
        let jobs: Vec<Job> = specs
            .into_iter()
            .enumerate()
            .map(|(i, (submit, procs, runtime, over))| {
                Job::new(i, submit, procs, runtime * over, runtime)
            })
            .collect();
        Trace::new("prop", 48, jobs)
    })
}

/// A random 2–4 partition spec over 48 processors; the first partition is
/// always wide enough (24) for every generated job, the rest vary in size
/// and speed.
fn arb_spec() -> impl Strategy<Value = ClusterSpec> {
    let extra = (
        4u32..=24,
        prop_oneof![Just(0.8f64), Just(1.0), Just(1.35), Just(1.6)],
    );
    proptest::collection::vec(extra, 1..4).prop_map(|extras| {
        let mut parts = vec![PartitionSpec::new("base", 24, 1.0)];
        for (i, (procs, speed)) in extras.into_iter().enumerate() {
            parts.push(PartitionSpec::new(format!("p{i}"), procs, speed));
        }
        ClusterSpec::new(parts)
    })
}

fn arb_router() -> impl Strategy<Value = Arc<dyn Router>> {
    prop_oneof![
        Just(Arc::new(StaticAffinity) as Arc<dyn Router>),
        Just(Arc::new(LeastLoaded) as Arc<dyn Router>),
        Just(Arc::new(EarliestStart::default()) as Arc<dyn Router>),
    ]
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Fcfs),
        Just(Policy::Sjf),
        Just(Policy::Wfp3),
        Just(Policy::F1)
    ]
}

/// Decision-point migration configurations, including degenerate budgets
/// and prohibitive gain thresholds.
fn arb_reroute() -> impl Strategy<Value = ReroutePolicy> {
    (
        0u32..=4,
        prop_oneof![Just(0.0f64), Just(60.0), Just(3600.0)],
    )
        .prop_map(
            |(max_moves_per_job, min_gain_secs)| ReroutePolicy::AtDecisionPoints {
                max_moves_per_job,
                min_gain_secs,
            },
        )
}

/// Like [`arb_trace`], but with jobs up to twice the widest partition so
/// runs exercise the unroutable-drop path too.
fn arb_trace_with_unroutable() -> impl Strategy<Value = Trace> {
    let job = (
        0.0f64..20_000.0, // submit
        1u32..=48,        // procs — up to 2× the widest partition (24)
        1.0f64..10_000.0, // runtime
        1.0f64..2.5,      // request multiplier
    );
    proptest::collection::vec(job, 1..80).prop_map(|specs| {
        let jobs: Vec<Job> = specs
            .into_iter()
            .enumerate()
            .map(|(i, (submit, procs, runtime, over))| {
                Job::new(i, submit, procs, runtime * over, runtime)
            })
            .collect();
        Trace::new("prop", 48, jobs)
    })
}

proptest! {
    /// EASY-driven partitioned runs: invariants hold at every decision
    /// point and every job completes.
    #[test]
    fn partition_accounting_holds_under_easy(
        trace in arb_trace(),
        spec in arb_spec(),
        router in arb_router(),
        policy in arb_policy(),
    ) {
        let mut sim = Simulation::with_cluster_rerouted(
            &trace,
            policy,
            spec,
            router,
            ReroutePolicy::AtSubmission,
        );
        let mut guard = 0usize;
        loop {
            let ev = sim.advance();
            check_invariants(&sim);
            if ev == SimEvent::Done {
                break;
            }
            hpcsim::easy::easy_pass(&mut sim, RuntimeEstimator::RequestTime);
            check_invariants(&sim);
            guard += 1;
            prop_assert!(guard < 50_000, "no progress");
        }
        prop_assert_eq!(sim.completed().len(), trace.len());
    }

    /// Adversarial interactive driving: greedily backfill the *last*
    /// candidate at every opportunity (the scripted driver most likely to
    /// disturb accounting), then let the run finish.
    #[test]
    fn partition_accounting_holds_under_greedy_driving(
        trace in arb_trace(),
        spec in arb_spec(),
        router in arb_router(),
    ) {
        let mut sim = Simulation::with_cluster_rerouted(
            &trace,
            Policy::Fcfs,
            spec,
            router,
            ReroutePolicy::AtSubmission,
        );
        let mut guard = 0usize;
        while sim.advance() == SimEvent::BackfillOpportunity {
            check_invariants(&sim);
            while let Some(&idx) = sim.backfill_candidates().last() {
                sim.backfill(idx).unwrap();
                check_invariants(&sim);
            }
            guard += 1;
            prop_assert!(guard < 50_000, "no progress");
        }
        check_invariants(&sim);
        prop_assert_eq!(sim.completed().len(), trace.len());
        for part in sim.partitions() {
            prop_assert_eq!(part.free(), part.procs());
        }
    }

    /// Decision-point migration conserves jobs (`completed + dropped =
    /// trace`) and never violates per-partition accounting, across random
    /// traces (including unroutable jobs), cluster shapes, routers,
    /// policies and reroute configurations.
    #[test]
    fn migration_conserves_jobs_and_accounting(
        trace in arb_trace_with_unroutable(),
        spec in arb_spec(),
        router in arb_router(),
        policy in arb_policy(),
        reroute in arb_reroute(),
    ) {
        let budget = match reroute {
            ReroutePolicy::AtDecisionPoints { max_moves_per_job, .. } => max_moves_per_job,
            ReroutePolicy::AtSubmission => 0,
        };
        let mut sim =
            Simulation::with_cluster_rerouted(&trace, policy, spec, router, reroute);
        let mut guard = 0usize;
        loop {
            let ev = sim.advance();
            check_invariants(&sim);
            if ev == SimEvent::Done {
                break;
            }
            hpcsim::easy::easy_pass(&mut sim, RuntimeEstimator::RequestTime);
            check_invariants(&sim);
            guard += 1;
            prop_assert!(guard < 50_000, "no progress");
        }
        // Conservation: migration must not lose or duplicate jobs.
        prop_assert_eq!(sim.completed().len() + sim.dropped_jobs(), trace.len());
        prop_assert!(sim.migrations() <= trace.len() * budget as usize);
        // Every job completed exactly once.
        let mut ids: Vec<usize> = sim.completed().iter().map(|c| c.job.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), sim.completed().len());
        for part in sim.partitions() {
            prop_assert_eq!(part.free(), part.procs());
        }
    }
}
