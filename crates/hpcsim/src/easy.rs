//! EASY backfilling (Lifka 1995) with a pluggable runtime estimator.
//!
//! At a backfilling opportunity, EASY grants the blocked head job (the
//! *reserved job* / `rjob`) a reservation at its **shadow time** — the
//! earliest time enough processors will be free according to the runtime
//! estimates of the running jobs. It then scans the remaining queue in
//! priority order and starts any job that fits the free processors and
//! either (a) is estimated to finish before the shadow time, or (b) uses
//! only the **extra** processors that will still be free once the reserved
//! job starts.
//!
//! The estimator is the crux of the paper's Figure 1/2 trade-off: a tighter
//! estimate moves the shadow time earlier (reserved job starts sooner) but
//! shrinks the backfilling window (fewer jobs squeeze in). This module
//! implements exactly that geometry; the paper's Figure 2 invariant is
//! covered by `reservation_moves_left_as_estimate_tightens` below.

use crate::estimator::RuntimeEstimator;
use crate::observe::audit::SkipReason;
use crate::policy::Policy;
use crate::state::BackfillSim;

/// Runs one EASY backfilling pass at the current opportunity, scanning the
/// waiting queue in the base policy's priority order. Returns the number of
/// jobs backfilled.
///
/// Generic over [`BackfillSim`], so the same pass drives the kernel
/// [`crate::state::Simulation`] and the test-only seed engine
/// `reference::ReferenceSimulation`. The simulation must be
/// paused at a [`crate::state::SimEvent::BackfillOpportunity`].
pub fn easy_pass<S: BackfillSim>(sim: &mut S, estimator: RuntimeEstimator) -> usize {
    let order = sim.policy();
    easy_pass_with_order(sim, estimator, order)
}

/// EASY backfilling with an explicit scan order over the candidates,
/// independent of the base policy. The paper's reward baseline uses FCFS as
/// the base policy with **SJF-ordered** backfilling (§3.4), which is this
/// function with `order = Policy::Sjf`.
pub fn easy_pass_with_order<S: BackfillSim>(
    sim: &mut S,
    estimator: RuntimeEstimator,
    order: Policy,
) -> usize {
    let now = sim.now();
    sim.phase_begin(crate::observe::Phase::BackfillScan);
    // Shadow time and extra processors of the reserved job, from the
    // engine's release profile (the kernel engine keeps it persistent —
    // see `crate::plan` — the reference engine rebuilds from scratch).
    let Some((shadow, mut extra)) = sim.shadow_extra(estimator) else {
        sim.phase_end(crate::observe::Phase::BackfillScan);
        return 0;
    };

    let mut backfilled = 0;
    loop {
        // Re-scan after every start: indices shift and the free count drops.
        let pick = sim
            .queue()
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, j)| {
                if j.procs > sim.free_procs() {
                    return false;
                }
                let est_end = now + estimator.estimate(j);
                est_end <= shadow || j.procs <= extra
            })
            .min_by(|(_, a), (_, b)| order.order(a, b, now))
            .map(|(i, j)| (i, *j));
        let Some((idx, job)) = pick else { break };
        let uses_extra = now + estimator.estimate(&job) > shadow;
        sim.start_backfill(idx)
            .expect("candidate was validated against free procs"); // simlint: allow(panic-path) — candidate was re-validated against free procs just above; Err means the fit check lied
        if uses_extra {
            extra -= job.procs;
        }
        backfilled += 1;
    }
    // Forensics: once no candidate fits, a job that fits the free
    // processors was passed over because it would end after the shadow
    // while exceeding the extra — it would delay the reserved job.
    sim.audit_skips(SkipReason::ShadowViolation);
    sim.phase_end(crate::observe::Phase::BackfillScan);
    backfilled
}

/// The reserved job's shadow time and extra-processor count under the given
/// estimator — exposed for tests, observation encodings and diagnostics.
/// Always computed from scratch (read-only access); the scheduling pass
/// itself goes through [`BackfillSim::shadow_extra`].
pub fn shadow_and_extra<S: BackfillSim + ?Sized>(
    sim: &S,
    estimator: RuntimeEstimator,
) -> Option<(f64, u32)> {
    crate::plan::from_scratch_shadow_extra(
        sim.now(),
        sim.free_procs(),
        sim.running(),
        sim.queue(),
        estimator,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::state::{SimEvent, Simulation};
    use swf::{Job, Trace};

    fn run_easy(trace: &Trace, policy: Policy, est: RuntimeEstimator) -> Simulation {
        let mut sim = Simulation::new(trace, policy);
        while sim.advance() == SimEvent::BackfillOpportunity {
            easy_pass(&mut sim, est);
        }
        sim
    }

    /// Cluster 4: a 3-proc blocker until t=100, a reserved 4-proc job, and a
    /// 1-proc job of runtime `short_rt`.
    fn scenario(short_rt: f64) -> Trace {
        Trace::new(
            "s",
            4,
            vec![
                Job::new(0, 0.0, 3, 100.0, 100.0),
                Job::new(1, 10.0, 4, 100.0, 100.0),
                Job::new(2, 20.0, 1, short_rt, short_rt),
            ],
        )
    }

    #[test]
    fn easy_backfills_job_finishing_before_shadow() {
        let sim = run_easy(&scenario(50.0), Policy::Fcfs, RuntimeEstimator::RequestTime);
        let c2 = sim.completed().iter().find(|c| c.job.id == 2).unwrap();
        assert_eq!(c2.start, 20.0, "short job should backfill immediately");
        let c1 = sim.completed().iter().find(|c| c.job.id == 1).unwrap();
        assert_eq!(c1.start, 100.0, "reserved job must not be delayed");
    }

    #[test]
    fn easy_backfills_on_extra_processors() {
        // Cluster 8: blocker uses 4 until t=100; reserved job wants 6;
        // at the shadow 8 are free, extra = 2. A 2-proc long job may run on
        // the extra processors even though it ends after the shadow.
        let t = Trace::new(
            "s",
            8,
            vec![
                Job::new(0, 0.0, 4, 100.0, 100.0),
                Job::new(1, 10.0, 6, 100.0, 100.0),
                Job::new(2, 20.0, 2, 500.0, 500.0),
            ],
        );
        let sim = run_easy(&t, Policy::Fcfs, RuntimeEstimator::RequestTime);
        let c2 = sim.completed().iter().find(|c| c.job.id == 2).unwrap();
        assert_eq!(c2.start, 20.0);
        let c1 = sim.completed().iter().find(|c| c.job.id == 1).unwrap();
        assert_eq!(c1.start, 100.0);
    }

    #[test]
    fn easy_refuses_job_that_would_delay_reservation() {
        // The 1-proc job runs 500s > shadow(100) and extra is 0
        // (reserved job wants the whole machine).
        let sim = run_easy(
            &scenario(500.0),
            Policy::Fcfs,
            RuntimeEstimator::RequestTime,
        );
        let c1 = sim.completed().iter().find(|c| c.job.id == 1).unwrap();
        assert_eq!(
            c1.start, 100.0,
            "reserved job must start at its shadow time"
        );
        let c2 = sim.completed().iter().find(|c| c.job.id == 2).unwrap();
        assert!(c2.start >= 100.0, "long job must wait for the reservation");
    }

    #[test]
    fn reservation_moves_left_as_estimate_tightens() {
        // Figure 2's geometry: the blocker requests 1000s but actually runs
        // 100s. Under RequestTime the shadow is 1000; under ActualRuntime
        // it is 100 — and the backfilling window shrinks accordingly.
        let t = Trace::new(
            "s",
            4,
            vec![
                Job::new(0, 0.0, 3, 1000.0, 100.0),
                Job::new(1, 10.0, 4, 100.0, 100.0),
                Job::new(2, 20.0, 1, 400.0, 400.0),
            ],
        );
        let mut sim = Simulation::new(&t, Policy::Fcfs);
        assert_eq!(sim.advance(), SimEvent::BackfillOpportunity);
        let (shadow_req, _) = shadow_and_extra(&sim, RuntimeEstimator::RequestTime).unwrap();
        let (shadow_ar, _) = shadow_and_extra(&sim, RuntimeEstimator::ActualRuntime).unwrap();
        assert_eq!(shadow_req, 1000.0);
        assert_eq!(shadow_ar, 100.0);

        // With the loose estimate, the 400s job backfills (400+20 < 1000);
        // with the tight estimate it must not (420 > 100).
        let backfilled = easy_pass(&mut sim, RuntimeEstimator::RequestTime);
        assert_eq!(backfilled, 1);

        let mut sim2 = Simulation::new(&t, Policy::Fcfs);
        assert_eq!(sim2.advance(), SimEvent::BackfillOpportunity);
        assert_eq!(easy_pass(&mut sim2, RuntimeEstimator::ActualRuntime), 0);
    }

    #[test]
    fn easy_never_delays_reserved_job_under_request_time_on_synthetic_traces() {
        // On traces where request == actual (Lublin presets), estimates are
        // exact, so EASY's no-delay guarantee must hold exactly: the
        // reserved job's start equals its shadow time whenever we checked.
        let t = swf::TracePreset::Lublin1.generate(400, 9);
        let mut sim = Simulation::new(&t, Policy::Fcfs);
        while sim.advance() == SimEvent::BackfillOpportunity {
            let reserved = *sim.reserved_job().unwrap();
            let (shadow, _) = shadow_and_extra(&sim, RuntimeEstimator::RequestTime).unwrap();
            easy_pass(&mut sim, RuntimeEstimator::RequestTime);
            let (shadow_after, _) = shadow_and_extra(&sim, RuntimeEstimator::RequestTime)
                .filter(|_| sim.reserved_job().map(|j| j.id) == Some(reserved.id))
                .unwrap_or((shadow, 0));
            assert!(
                shadow_after <= shadow + 1e-6,
                "backfilling pushed the reserved job's shadow from {shadow} to {shadow_after}"
            );
        }
        assert_eq!(sim.completed().len(), t.len());
    }

    #[test]
    fn easy_improves_over_no_backfill_on_congested_trace() {
        use crate::metrics::Metrics;
        let t = swf::TracePreset::Lublin2.generate(600, 5);
        let easy = run_easy(&t, Policy::Fcfs, RuntimeEstimator::RequestTime);
        let mut none = Simulation::new(&t, Policy::Fcfs);
        while none.advance() != SimEvent::Done {}
        let m_easy = Metrics::of(easy.completed(), t.cluster_procs());
        let m_none = Metrics::of(none.completed(), t.cluster_procs());
        assert!(
            m_easy.mean_bounded_slowdown <= m_none.mean_bounded_slowdown,
            "EASY ({}) should not lose to no-backfill ({})",
            m_easy.mean_bounded_slowdown,
            m_none.mean_bounded_slowdown
        );
    }
}
