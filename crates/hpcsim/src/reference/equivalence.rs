//! Differential property tests: the `desim`-kernel simulator must produce
//! the **identical realized schedule** as the preserved seed stepping
//! engine for every base policy × backfilling strategy, over randomized
//! Lublin-model workloads and adversarial hand-shaped traces.
//!
//! "Identical" means the same `(job id → start time)` mapping — bitwise
//! equal starts, no tolerance — and therefore identical metrics. Completion
//! *order* within a simultaneous batch is not part of the contract (the
//! seed engine's `swap_remove` scan order is an implementation accident).

use super::{run_scheduler_reference, run_seed_scheduler, ReferenceSimulation};
use crate::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;
use swf::{Job, Trace};

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
fn schedule_of(completed: &[crate::state::CompletedJob]) -> Vec<(usize, f64)> {
    let mut v: Vec<(usize, f64)> = completed.iter().map(|c| (c.job.id, c.start)).collect();
    v.sort_by_key(|&(id, _)| id);
    v
}

fn assert_equivalent(trace: &Trace, policy: Policy, backfill: Backfill) {
    let kernel = run_scheduler(trace, policy, backfill);
    let seed = run_scheduler_reference(trace, policy, backfill);
    assert_eq!(
        schedule_of(&kernel.completed),
        schedule_of(&seed.completed),
        "schedule diverged: {policy} {backfill:?} on {} ({} jobs)",
        trace.name(),
        trace.len()
    );
    assert_eq!(
        kernel.metrics.mean_bounded_slowdown, seed.metrics.mean_bounded_slowdown,
        "metrics diverged: {policy} {backfill:?}"
    );
    assert_eq!(kernel.metrics.utilization, seed.metrics.utilization);
    assert_eq!(kernel.metrics.makespan, seed.metrics.makespan);
    // The full seed cost model (seed engine + naive profile + seed pass
    // logic) must realize the same schedule too: it is the seed's own pass
    // logic, not only its engine loop.
    let naive = run_seed_scheduler(trace, policy, backfill);
    assert_eq!(
        schedule_of(&kernel.completed),
        schedule_of(&naive.completed),
        "naive baseline diverged: {policy} {backfill:?}"
    );
    // The instrumented kernel run (live Recorder probe) must be bitwise
    // the NoopProbe run — telemetry observes, never steers — and its
    // counters must be identical when the same run repeats (they feed a
    // byte-pinned artifact, so any nondeterminism is a bug).
    let (recorded, rec) = run_recorded(trace, policy, backfill);
    assert_eq!(
        schedule_of(&kernel.completed),
        schedule_of(&recorded.completed),
        "recorder probe perturbed the schedule: {policy} {backfill:?}"
    );
    assert_eq!(kernel.metrics, recorded.metrics);
    let (_, rec2) = run_recorded(trace, policy, backfill);
    assert_eq!(
        rec.telemetry(),
        rec2.telemetry(),
        "telemetry counters are nondeterministic: {policy} {backfill:?}"
    );
}

/// The kernel on the trace's flat machine with a live [`Recorder`] probe.
fn run_recorded(trace: &Trace, policy: Policy, backfill: Backfill) -> (ScheduleResult, Recorder) {
    run_scheduler_probed(
        trace,
        policy,
        backfill,
        &ClusterSpec::homogeneous(trace.cluster_procs()),
        Arc::new(StaticAffinity),
        ReroutePolicy::AtSubmission,
        &PlatformEventSpec::default(),
        Recorder::default(),
    )
    .expect("an empty event spec installs")
}

/// A random but well-formed workload on a small cluster, shaped to create
/// plenty of contention (and therefore decision points).
fn arb_trace() -> impl Strategy<Value = Trace> {
    let job = (
        0.0f64..30_000.0, // submit
        1u32..=32,        // procs
        1.0f64..15_000.0, // runtime
        1.0f64..3.0,      // request multiplier
    );
    proptest::collection::vec(job, 1..100).prop_map(|specs| {
        let jobs: Vec<Job> = specs
            .into_iter()
            .enumerate()
            .map(|(i, (submit, procs, runtime, over))| {
                Job::new(i, submit, procs, runtime * over, runtime)
            })
            .collect();
        Trace::new("prop", 32, jobs)
    })
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Fcfs),
        Just(Policy::Sjf),
        Just(Policy::Wfp3),
        Just(Policy::F1)
    ]
}

fn arb_backfill() -> impl Strategy<Value = Backfill> {
    let opts: Vec<_> = all_backfills()
        .into_iter()
        .map(|b| Just(b).boxed())
        .collect();
    proptest::strategy::Union::new(opts)
}

proptest! {
    /// Random contended traces: every policy × backfill pair agrees.
    #[test]
    fn kernel_matches_seed_on_random_traces(
        trace in arb_trace(),
        policy in arb_policy(),
        backfill in arb_backfill(),
    ) {
        let kernel = run_scheduler(&trace, policy, backfill);
        let seed = run_scheduler_reference(&trace, policy, backfill);
        prop_assert_eq!(schedule_of(&kernel.completed), schedule_of(&seed.completed));
        prop_assert_eq!(
            kernel.metrics.mean_bounded_slowdown,
            seed.metrics.mean_bounded_slowdown
        );
    }
}

#[test]
fn kernel_matches_seed_on_lublin_presets() {
    // The calibrated Table 2 workloads (the traces every experiment runs
    // on), full policy × backfill sweep at a size with deep queues.
    for preset in [swf::TracePreset::Lublin1, swf::TracePreset::Lublin2] {
        let trace = preset.generate(600, 2024);
        for policy in Policy::ALL {
            for backfill in all_backfills() {
                assert_equivalent(&trace, policy, backfill);
            }
        }
    }
}

#[test]
fn kernel_matches_seed_on_overestimated_standins() {
    // SDSC-SP2/HPC2N stand-ins carry real overestimation, which makes the
    // EASY vs EASY-AR paths diverge — both engines must diverge the same
    // way.
    for preset in [swf::TracePreset::SdscSp2, swf::TracePreset::Hpc2n] {
        let trace = preset.generate(500, 7);
        for backfill in all_backfills() {
            assert_equivalent(&trace, Policy::Fcfs, backfill);
        }
    }
}

#[test]
fn kernel_matches_seed_on_simultaneous_event_pileups() {
    // Adversarial shape: many identical submit instants and identical
    // runtimes so arrivals and completions coincide exactly — the case
    // where heap ordering vs linear scans could plausibly diverge.
    let jobs: Vec<Job> = (0..60)
        .map(|i| {
            Job::new(
                i,
                ((i / 6) as f64) * 100.0, // six jobs per submit instant
                1 + (i as u32 % 4),
                100.0,
                100.0,
            )
        })
        .collect();
    let trace = Trace::new("pileup", 8, jobs);
    for policy in Policy::ALL {
        for backfill in all_backfills() {
            assert_equivalent(&trace, policy, backfill);
        }
    }
}

#[test]
fn kernel_matches_seed_under_interactive_driving() {
    // Drive both engines through the raw decision-point API with the same
    // scripted driver, checking the paused states agree at every
    // opportunity. Every third opportunity, the first included, runs an
    // EASY pass (starts that skip the ground-truth delay check); the others
    // backfill the last candidate through the checked `backfill`, whose
    // outcome must match the seed engine's from-scratch check. The kernel
    // builds its ground-truth profile at the first checked call, from the
    // live running set, and must keep it exact across the unchecked starts
    // after it. SDSC-SP2 overestimates its runtimes, so EASY's estimated
    // shadow and the ground truth part ways there; on both traces some
    // checked backfills really do delay the reserved job.
    for trace in [
        swf::TracePreset::Lublin2.generate(300, 55),
        swf::TracePreset::SdscSp2.generate(600, 55),
    ] {
        let mut kernel = Simulation::new(&trace, Policy::Fcfs);
        let mut seed = ReferenceSimulation::new(&trace, Policy::Fcfs);
        let (mut opportunities, mut easy_starts, mut delays) = (0, 0, 0);
        loop {
            let (a, b) = (kernel.advance(), seed.advance());
            assert_eq!(a, b, "event stream diverged");
            if a == SimEvent::Done {
                break;
            }
            assert_eq!(kernel.now(), seed.now(), "paused at different times");
            assert_eq!(kernel.free_procs(), seed.free_procs());
            assert_eq!(kernel.queue(), seed.queue(), "queue order diverged");
            let (ca, cb) = (kernel.backfill_candidates(), seed.backfill_candidates());
            assert_eq!(ca, cb);
            if opportunities % 3 == 0 {
                let est = RuntimeEstimator::RequestTime;
                let started = crate::easy::easy_pass(&mut kernel, est);
                let seed_started = crate::easy::easy_pass(&mut seed, est);
                assert_eq!(started, seed_started, "EASY pass diverged");
                easy_starts += started;
            } else if let Some(&idx) = ca.last() {
                let ra = kernel.backfill(idx).unwrap();
                let rb = seed.backfill(idx).unwrap();
                assert_eq!(ra, rb, "backfill outcome diverged");
                delays += usize::from(ra.delays_reserved);
            }
            opportunities += 1;
        }
        assert_eq!(
            schedule_of(kernel.completed()),
            schedule_of(seed.completed())
        );
        assert!(easy_starts > 0, "no EASY pass started a job");
        assert!(delays > 0, "no checked backfill delayed the reserved job");
    }
}

/// A random contended workload with under- and over-estimated runtimes, on
/// a flat machine as wide as one to three 16–64-processor partitions (the
/// trace half of `tests/proptest_plan.rs`'s cluster cases).
#[derive(Debug, Clone)]
struct Case {
    trace: Trace,
    policy: Policy,
    estimator: RuntimeEstimator,
}

fn arb_case() -> impl Strategy<Value = Case> {
    let jobs = proptest::collection::vec(
        (
            0.0f64..2_000.0, // submit
            1u32..=16,       // procs (≤ the narrowest machine: nothing drops)
            1.0f64..400.0,   // runtime
            0.5f64..3.0,     // request = runtime * factor (under/over-estimates)
        ),
        1..120,
    );
    let parts = proptest::collection::vec(16u32..=64, 1..=3);
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
    (jobs, parts, arb_policy(), estimator).prop_map(|(mut jobs, parts, policy, estimator)| {
        jobs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: u32 = parts.iter().sum();
        let jobs: Vec<Job> = jobs
            .into_iter()
            .enumerate()
            .map(|(id, (submit, procs, runtime, factor))| {
                Job::new(id, submit, procs, runtime, runtime * factor)
            })
            .collect();
        Case {
            trace: Trace::new("prop", total, jobs),
            policy,
            estimator,
        }
    })
}

proptest! {
    /// The flat one-partition machine stays pinned to the seed reference
    /// engine under the incremental planner (conservative and EASY).
    #[test]
    fn flat_machine_stays_pinned_to_reference_engine(case in arb_case()) {
        for backfill in [
            Backfill::Conservative(case.estimator),
            Backfill::Easy(case.estimator),
        ] {
            let kernel = run_scheduler(&case.trace, case.policy, backfill);
            let reference = run_scheduler_reference(
                &case.trace,
                case.policy,
                backfill,
            );
            let key = |r: &ScheduleResult| {
                let mut s: Vec<(usize, u64)> = r
                    .completed
                    .iter()
                    .map(|c| (c.job.id, c.start.to_bits()))
                    .collect();
                s.sort_unstable();
                s
            };
            prop_assert_eq!(key(&kernel), key(&reference));
        }
    }
}
