//! Parity of probed and unprobed decision-point re-routing.
//!
//! An unprobed run skips `Router::reroute` for a waiting job that no
//! other unfrozen partition admits, while a counting probe (`Recorder`)
//! asks the router about every candidate. The skipped calls could never
//! have moved a job, so both runs must realize the same schedule:
//!
//! * **parity property** — random traces on 3–4 partitions of unequal
//!   width and speed, random policies, EASY/conservative backfilling,
//!   small move budgets and random drains and node failures: the
//!   unprobed and the `Recorder` run agree bit for bit on the schedule
//!   and on every robustness counter, the probed run asks the router
//!   once per counted candidate, and the unprobed run never asks more;
//! * **pinned call counts** — the 4-partition Lublin-1 cell with
//!   conservative backfilling and least-loaded routing: both runs'
//!   router calls are pinned, which shows the saving without a clock.

use hpcsim::cluster::{
    ClusterSpec, ClusterView, EarliestStart, LeastLoaded, PartitionSpec, RerouteDecision,
    ReroutePolicy, Router, StaticAffinity,
};
use hpcsim::platform::{FailurePolicy, PlatformEvent, PlatformEventSpec};
use hpcsim::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use swf::{Job, Trace, TracePreset, TraceSource};

/// A router that counts the `reroute` calls it answers and delegates
/// every decision to `inner`.
#[derive(Debug)]
struct Counting {
    inner: Arc<dyn Router>,
    calls: AtomicU64,
}

impl Counting {
    fn new(inner: Arc<dyn Router>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            calls: AtomicU64::new(0),
        })
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl Router for Counting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&self, job: &Job, view: &ClusterView<'_>) -> usize {
        self.inner.route(job, view)
    }

    fn reroute(&self, job: &Job, view: &ClusterView<'_>, from: usize) -> Option<RerouteDecision> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.reroute(job, view, from)
    }
}

/// The realized schedule, bit for bit, in completion order.
fn bits(result: &ScheduleResult) -> Vec<(usize, u64, u32, u64, u64, u64)> {
    result
        .completed
        .iter()
        .map(|c| {
            (
                c.job.id,
                c.start.to_bits(),
                c.job.procs,
                c.job.submit.to_bits(),
                c.job.runtime.to_bits(),
                c.job.request_time.to_bits(),
            )
        })
        .collect()
}

/// What one run produced: the schedule, the router's `reroute` calls,
/// and the candidates a `Recorder` counted (0 unprobed).
struct Run {
    result: ScheduleResult,
    calls: u64,
    candidates: u64,
}

#[allow(clippy::too_many_arguments)]
fn run(
    trace: &Trace,
    policy: Policy,
    backfill: Backfill,
    spec: &ClusterSpec,
    router: &Arc<dyn Router>,
    reroute: ReroutePolicy,
    events: &PlatformEventSpec,
    probed: bool,
) -> Run {
    let counting = Counting::new(Arc::clone(router));
    let shared = Arc::clone(&counting) as Arc<dyn Router>;
    let (result, candidates) = if probed {
        let (result, rec) = run_scheduler_probed(
            trace,
            policy,
            backfill,
            spec,
            shared,
            reroute,
            events,
            Recorder::new(false),
        )
        .expect("valid event spec");
        (result, rec.telemetry().migration_candidates)
    } else {
        let (result, _) = run_scheduler_probed(
            trace, policy, backfill, spec, shared, reroute, events, NoopProbe,
        )
        .expect("valid event spec");
        (result, 0)
    };
    Run {
        result,
        calls: counting.calls(),
        candidates,
    }
}

/// A contended workload whose widest jobs fit only the 32-processor base
/// partition: those are the candidates an unprobed run skips.
fn arb_trace() -> impl Strategy<Value = Trace> {
    let job = (
        0.0f64..20_000.0, // submit
        1u32..=32,        // procs
        1.0f64..10_000.0, // runtime
        1.0f64..2.5,      // request multiplier
    );
    proptest::collection::vec(job, 20..80).prop_map(|specs| {
        let jobs: Vec<Job> = specs
            .into_iter()
            .enumerate()
            .map(|(i, (submit, procs, runtime, over))| {
                Job::new(i, submit, procs, runtime * over, runtime)
            })
            .collect();
        Trace::new("prop", 64, jobs)
    })
}

/// A 32-processor base partition plus 2–3 narrower partitions at
/// speeds other than 1.
fn arb_spec() -> impl Strategy<Value = ClusterSpec> {
    let extra = (4u32..=20, prop_oneof![Just(0.8f64), Just(1.35), Just(1.6)]);
    proptest::collection::vec(extra, 2..4).prop_map(|extras| {
        let mut parts = vec![PartitionSpec::new("base", 32, 1.0)];
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
    prop_oneof![Just(Policy::Fcfs), Just(Policy::Sjf), Just(Policy::Wfp3)]
}

fn arb_backfill() -> impl Strategy<Value = Backfill> {
    prop_oneof![
        Just(Backfill::Easy(RuntimeEstimator::RequestTime)),
        Just(Backfill::Conservative(RuntimeEstimator::RequestTime)),
    ]
}

fn arb_reroute() -> impl Strategy<Value = ReroutePolicy> {
    (1u32..=3, prop_oneof![Just(0.0f64), Just(60.0)]).prop_map(
        |(max_moves_per_job, min_gain_secs)| ReroutePolicy::AtDecisionPoints {
            max_moves_per_job,
            min_gain_secs,
        },
    )
}

fn arb_failure_policy() -> impl Strategy<Value = FailurePolicy> {
    prop_oneof![
        Just(FailurePolicy::KillResubmit),
        (0.0f64..600.0)
            .prop_map(|overhead_secs| FailurePolicy::CheckpointRestart { overhead_secs }),
    ]
}

/// A node failure with its repair, or a drain with its end; `part_raw`
/// is reduced modulo the partition count.
#[derive(Debug, Clone, Copy)]
enum Disturbance {
    Outage {
        at: f64,
        part_raw: usize,
        procs: u32,
        repair_after: f64,
    },
    Drain {
        at: f64,
        part_raw: usize,
        len: f64,
    },
}

fn arb_disturbance() -> impl Strategy<Value = Disturbance> {
    prop_oneof![
        ((0.0f64..25_000.0, 0usize..4), (1u32..24, 10.0f64..8_000.0)).prop_map(
            |((at, part_raw), (procs, repair_after))| Disturbance::Outage {
                at,
                part_raw,
                procs,
                repair_after,
            }
        ),
        (0.0f64..25_000.0, 0usize..4, 10.0f64..8_000.0)
            .prop_map(|(at, part_raw, len)| Disturbance::Drain { at, part_raw, len }),
    ]
}

fn build_events(
    disturbances: &[Disturbance],
    parts: usize,
    failure_policy: FailurePolicy,
) -> PlatformEventSpec {
    let mut trace = Vec::new();
    for d in disturbances {
        match *d {
            Disturbance::Outage {
                at,
                part_raw,
                procs,
                repair_after,
            } => {
                let part = part_raw % parts;
                trace.push(PlatformEvent::NodeFail { at, part, procs });
                trace.push(PlatformEvent::NodeRepair {
                    at: at + repair_after,
                    part,
                    procs,
                });
            }
            Disturbance::Drain { at, part_raw, len } => {
                let part = part_raw % parts;
                trace.push(PlatformEvent::DrainStart { at, part });
                trace.push(PlatformEvent::DrainEnd { at: at + len, part });
            }
        }
    }
    PlatformEventSpec {
        trace,
        processes: Vec::new(),
        failure_policy,
    }
}

proptest! {
    /// Skipping the router for jobs no other partition can take leaves
    /// the schedule and every counter of the run unchanged.
    #[test]
    fn unprobed_and_recorded_reroute_runs_agree(
        trace in arb_trace(),
        spec in arb_spec(),
        router in arb_router(),
        policy in arb_policy(),
        backfill in arb_backfill(),
        reroute in arb_reroute(),
        disturbances in proptest::collection::vec(arb_disturbance(), 0..6),
        failure_policy in arb_failure_policy(),
    ) {
        let events = build_events(&disturbances, spec.partitions().len(), failure_policy);
        let plain = run(&trace, policy, backfill, &spec, &router, reroute, &events, false);
        let recorded = run(&trace, policy, backfill, &spec, &router, reroute, &events, true);
        prop_assert_eq!(bits(&plain.result), bits(&recorded.result));
        prop_assert_eq!(plain.result.dropped_jobs, recorded.result.dropped_jobs);
        prop_assert_eq!(plain.result.migrations, recorded.result.migrations);
        prop_assert_eq!(plain.result.kills, recorded.result.kills);
        prop_assert_eq!(plain.result.resubmits, recorded.result.resubmits);
        prop_assert_eq!(
            plain.result.wasted_node_seconds.to_bits(),
            recorded.result.wasted_node_seconds.to_bits()
        );
        // The probed run asks about every candidate it counts; the
        // unprobed run asks about a subset of the same candidates.
        prop_assert_eq!(recorded.calls, recorded.candidates);
        prop_assert!(plain.calls <= recorded.calls);
    }
}

/// The benchmark's trace seed (`bench::TRACE_SEED`).
const TRACE_SEED: u64 = 20240914;

/// The 4-partition Lublin-1 cell with conservative backfilling, least-
/// loaded routing and 3 moves per job at a 60 s minimum gain, on 1 000
/// generated jobs. The unprobed run asks the router about 6 941 of the
/// 15 496 candidates the `Recorder` run counts; the rest are jobs that no
/// other unfrozen partition admits.
#[test]
fn unprobed_reroute_calls_are_pinned_on_the_four_partition_cell() {
    let source = TraceSource::PartitionedPreset {
        preset: TracePreset::Lublin1,
        parts: 4,
        jobs: 1_000,
        seed: TRACE_SEED,
    };
    let spec = ClusterSpec::from_layout(&source.layout().expect("partitioned layout"));
    let trace = source
        .materialize()
        .expect("partitioned preset materializes");
    let router = Arc::new(LeastLoaded) as Arc<dyn Router>;
    let reroute = ReroutePolicy::AtDecisionPoints {
        max_moves_per_job: 3,
        min_gain_secs: 60.0,
    };
    let backfill = Backfill::Conservative(RuntimeEstimator::RequestTime);
    let events = PlatformEventSpec::default();
    let plain = run(
        &trace,
        Policy::Fcfs,
        backfill,
        &spec,
        &router,
        reroute,
        &events,
        false,
    );
    let recorded = run(
        &trace,
        Policy::Fcfs,
        backfill,
        &spec,
        &router,
        reroute,
        &events,
        true,
    );
    assert_eq!(bits(&plain.result), bits(&recorded.result));
    assert_eq!(plain.result.migrations, recorded.result.migrations);
    assert!(plain.result.migrations > 0);
    assert_eq!(recorded.calls, recorded.candidates);
    assert_eq!((plain.calls, recorded.calls), (6_941, 15_496));
}
