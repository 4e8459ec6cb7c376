//! Well-formedness property suite for the decision-forensics audit layer
//! (`hpcsim::observe::audit`), across random traces, policies, backfilling
//! strategies, cluster shapes, routers and re-route policies:
//!
//! * **schedule neutrality** — the audited run realizes the bitwise
//!   identical schedule to the unprobed run;
//! * **per-job record grammar** — every job's records read
//!   `Submitted → (skips | migrations)* → Started → Completed`, with
//!   dropped jobs carrying exactly one `Dropped` record and no breakdown;
//! * **reconciliation** — record counts match the `ScheduleResult`
//!   (starts = completions = completed jobs, drops = dropped jobs,
//!   migration records = migration count);
//! * **attribution** — each job's wait-cause components sum to its total
//!   wait, per job and in the aggregate table;
//! * **determinism** — the same inputs produce the identical log
//!   (`first_divergence` finds nothing).

use hpcsim::cluster::{ClusterSpec, PartitionSpec};
use hpcsim::prelude::*;
use hpcsim::{AuditLog, AuditProbe, AuditRecord};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use swf::{Trace, TracePreset};

fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        prop_oneof![
            Just(TracePreset::SdscSp2),
            Just(TracePreset::Hpc2n),
            Just(TracePreset::Lublin1),
            Just(TracePreset::Lublin2),
        ],
        40usize..250,
        any::<u64>(),
    )
        .prop_map(|(preset, jobs, seed)| preset.generate(jobs, seed))
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
        Just(Backfill::Easy(RuntimeEstimator::RequestTime)),
        Just(Backfill::Easy(RuntimeEstimator::ActualRuntime)),
        Just(Backfill::EasyOrdered(
            RuntimeEstimator::RequestTime,
            Policy::Sjf
        )),
        Just(Backfill::Conservative(RuntimeEstimator::RequestTime)),
    ]
}

fn arb_router() -> impl Strategy<Value = RouterSpec> {
    prop_oneof![
        Just(RouterSpec::Affinity),
        Just(RouterSpec::LeastLoaded),
        Just(RouterSpec::EarliestStart(RuntimeEstimator::RequestTime)),
    ]
}

fn arb_reroute() -> impl Strategy<Value = ReroutePolicy> {
    prop_oneof![
        Just(ReroutePolicy::AtSubmission),
        (1u32..=3, 0.0f64..300.0).prop_map(|(max_moves_per_job, min_gain_secs)| {
            ReroutePolicy::AtDecisionPoints {
                max_moves_per_job,
                min_gain_secs,
            }
        }),
    ]
}

/// Flat machine, or a 2-way split of the trace's machine (narrow
/// partitions drop the trace's widest jobs — that is the point: the
/// `Dropped` reconciliation needs nonzero drops sometimes).
fn cluster_for(trace: &Trace, split: Option<f64>) -> ClusterSpec {
    match split {
        None => ClusterSpec::homogeneous(trace.cluster_procs()),
        Some(frac) => {
            let total = trace.cluster_procs();
            let a = ((total as f64 * frac) as u32).clamp(1, total - 1);
            ClusterSpec::new(vec![
                PartitionSpec::new("a", a, 1.0),
                PartitionSpec::new("b", total - a, 1.0),
            ])
        }
    }
}

fn assert_close(sum: f64, total: f64, what: &str) {
    assert!(
        (sum - total).abs() <= 1e-6 * total.abs().max(1.0),
        "{what}: components {sum} vs total {total}"
    );
}

/// The audit log's structural invariants against the realized schedule.
fn check_well_formed(log: &AuditLog, result: &ScheduleResult) {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    let mut per_job: BTreeMap<usize, Vec<&AuditRecord>> = BTreeMap::new();
    for r in &log.records {
        *counts.entry(r.kind()).or_default() += 1;
        if let Some(j) = r.job() {
            per_job.entry(j).or_default().push(r);
        }
    }
    let n = |kind: &str| counts.get(kind).copied().unwrap_or(0);
    assert_eq!(n("started"), result.completed.len(), "one start per job");
    assert_eq!(n("completed"), result.completed.len());
    assert_eq!(n("dropped"), result.dropped_jobs);
    assert_eq!(n("migrated"), result.migrations);
    assert_eq!(log.job_waits.len(), result.completed.len());

    for (job, records) in &per_job {
        if matches!(records[0], AuditRecord::Dropped { .. }) {
            assert_eq!(
                records.len(),
                1,
                "job {job}: dropped jobs get exactly one record"
            );
            assert!(log.breakdown(*job).is_none());
            continue;
        }
        assert!(
            matches!(records[0], AuditRecord::Submitted { .. }),
            "job {job}: lifecycle must open with Submitted, got {:?}",
            records[0]
        );
        let si = records
            .iter()
            .position(|r| matches!(r, AuditRecord::Started { .. }))
            .unwrap_or_else(|| panic!("job {job}: no Started record"));
        assert_eq!(
            records.len(),
            si + 2,
            "job {job}: Completed must immediately follow Started and close the lifecycle"
        );
        assert!(
            matches!(records[si + 1], AuditRecord::Completed { .. }),
            "job {job}: last record must be Completed, got {:?}",
            records[si + 1]
        );
        for r in &records[1..si] {
            assert!(
                matches!(
                    r,
                    AuditRecord::BackfillSkipped { .. } | AuditRecord::Migrated { .. }
                ),
                "job {job}: only skips/migrations may occur while queued, got {r:?}"
            );
        }
        let mut last = f64::NEG_INFINITY;
        for r in records {
            assert!(
                r.time() >= last,
                "job {job}: records must be time-ordered ({} after {last})",
                r.time()
            );
            last = r.time();
        }
    }

    for wb in &log.job_waits {
        assert_close(
            wb.components.iter().sum(),
            wb.wait,
            &format!("job {} wait breakdown", wb.job),
        );
    }
    let attr = log.attribution();
    assert_eq!(attr.jobs as usize, result.completed.len());
    assert_close(
        attr.components_sum(),
        attr.total_wait,
        "aggregate attribution",
    );
}

#[allow(clippy::too_many_arguments)]
fn run_audited_pair(
    trace: &Trace,
    policy: Policy,
    backfill: Backfill,
    cluster: &ClusterSpec,
    router: Arc<dyn hpcsim::Router>,
    reroute: ReroutePolicy,
) -> (ScheduleResult, AuditLog) {
    let plain =
        run_scheduler_on_rerouted(trace, policy, backfill, cluster, router.clone(), reroute);
    let (audited, probe) = run_scheduler_probed(
        trace,
        policy,
        backfill,
        cluster,
        router,
        reroute,
        &PlatformEventSpec::default(),
        AuditProbe::new(),
    )
    .expect("an empty event spec installs");
    assert_eq!(
        plain.completed, audited.completed,
        "the audit probe must not perturb the schedule"
    );
    assert_eq!(plain.dropped_jobs, audited.dropped_jobs);
    assert_eq!(plain.migrations, audited.migrations);
    (audited, probe.into_log())
}

proptest! {
    #[test]
    fn flat_runs_produce_well_formed_deterministic_logs(
        trace in arb_trace(),
        policy in arb_policy(),
        backfill in arb_backfill(),
    ) {
        let cluster = cluster_for(&trace, None);
        let router = RouterSpec::Affinity.build();
        let (result, log) = run_audited_pair(
            &trace, policy, backfill, &cluster, router.clone(),
            ReroutePolicy::AtSubmission,
        );
        check_well_formed(&log, &result);
        let (_, log2) = run_audited_pair(
            &trace, policy, backfill, &cluster, router,
            ReroutePolicy::AtSubmission,
        );
        prop_assert_eq!(log.first_divergence(&log2), None);
        prop_assert_eq!(log, log2);
    }

    #[test]
    fn clustered_runs_produce_well_formed_deterministic_logs(
        trace in arb_trace(),
        policy in arb_policy(),
        backfill in arb_backfill(),
        router in arb_router(),
        reroute in arb_reroute(),
        split in 0.3f64..0.7,
    ) {
        let cluster = cluster_for(&trace, Some(split));
        let (result, log) = run_audited_pair(
            &trace, policy, backfill, &cluster, router.build(), reroute,
        );
        check_well_formed(&log, &result);
        let (_, log2) = run_audited_pair(
            &trace, policy, backfill, &cluster, router.build(), reroute,
        );
        prop_assert_eq!(log.first_divergence(&log2), None);
        prop_assert_eq!(log, log2);
    }
}
