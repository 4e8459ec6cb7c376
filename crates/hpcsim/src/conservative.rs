//! Conservative backfilling (Mu'alem & Feitelson 2001).
//!
//! Unlike EASY, which reserves only for the head job, conservative
//! backfilling grants **every** queued job a reservation in priority order;
//! a job may start early only if doing so delays no earlier reservation.
//! This trades backfilling aggressiveness for predictability, and is the
//! classic comparison point the paper's related-work section cites.
//!
//! Implementation: planning is delegated to
//! [`BackfillSim::plan_conservative_starts`] — the kernel engine repairs
//! its persistent per-partition reservation plan incrementally (see
//! [`crate::plan`]), the seed reference engine re-derives the plan from
//! scratch; both return the same start set bitwise. Jobs whose planned
//! start is *now* are started.

use crate::estimator::RuntimeEstimator;
use crate::observe::audit::SkipReason;
use crate::observe::Phase;
use crate::state::BackfillSim;

/// Runs one conservative backfilling pass at the current opportunity.
/// Returns the number of jobs started early. Generic over [`BackfillSim`]
/// (kernel and reference engines share this pass).
pub fn conservative_pass<S: BackfillSim>(sim: &mut S, estimator: RuntimeEstimator) -> usize {
    // Plan-time queue positions, ascending and head-free. Each successful
    // backfill removes one job ahead of every later position, so the live
    // index is the planned position minus the starts so far — no rescans
    // of the queue per started job.
    sim.phase_begin(Phase::ConservativePass);
    let starts = sim.plan_conservative_starts(estimator);
    sim.phase_end(Phase::ConservativePass);
    sim.phase_begin(Phase::BackfillScan);
    let mut started = 0;
    for &pos in &starts {
        let idx = pos - started;
        debug_assert!(idx > 0, "the reserved head is never in the start set");
        // A conservative start honours the job's planned reservation
        // slot; label it so the audit log distinguishes it from an
        // opportunistic EASY-style backfill.
        sim.audit_mark_reservation_start();
        if sim.start_backfill(idx).is_ok() {
            started += 1;
        }
    }
    sim.return_starts(starts);
    // Forensics: under conservative semantics a job the plan left queued
    // either lacks processors right now or would push back an earlier
    // reservation.
    sim.audit_skips(SkipReason::WouldDelayReserved);
    sim.phase_end(Phase::BackfillScan);
    started
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::policy::Policy;
    use crate::state::{SimEvent, Simulation};
    use swf::{Job, Trace};

    fn run_conservative(trace: &Trace, policy: Policy, est: RuntimeEstimator) -> Simulation {
        let mut sim = Simulation::new(trace, policy);
        while sim.advance() == SimEvent::BackfillOpportunity {
            conservative_pass(&mut sim, est);
        }
        sim
    }

    #[test]
    fn conservative_backfills_harmless_short_job() {
        let t = Trace::new(
            "s",
            4,
            vec![
                Job::new(0, 0.0, 3, 100.0, 100.0),
                Job::new(1, 10.0, 4, 100.0, 100.0),
                Job::new(2, 20.0, 1, 50.0, 50.0),
            ],
        );
        let sim = run_conservative(&t, Policy::Fcfs, RuntimeEstimator::RequestTime);
        let c2 = sim.completed().iter().find(|c| c.job.id == 2).unwrap();
        assert_eq!(c2.start, 20.0);
        let c1 = sim.completed().iter().find(|c| c.job.id == 1).unwrap();
        assert_eq!(c1.start, 100.0);
    }

    #[test]
    fn conservative_protects_all_reservations_not_just_the_head() {
        // Cluster 4. Blocker: 3 procs to t=100. Queue: J1 (4p, reserved at
        // 100), J2 (3p, reserved after J1 at 200), J3 (1p, 150s).
        // EASY would admit J3 on J1's extra... no extra here; but the key
        // conservative property: J3's fit must respect J2's reservation too.
        let t = Trace::new(
            "s",
            4,
            vec![
                Job::new(0, 0.0, 3, 100.0, 100.0),
                Job::new(1, 10.0, 4, 100.0, 100.0),
                Job::new(2, 11.0, 3, 100.0, 100.0),
                Job::new(3, 20.0, 1, 150.0, 150.0),
            ],
        );
        let sim = run_conservative(&t, Policy::Fcfs, RuntimeEstimator::RequestTime);
        // J3 running [20,170) would overlap J1's reservation [100,200) on a
        // full machine — conservative must refuse it at t=20.
        let c3 = sim.completed().iter().find(|c| c.job.id == 3).unwrap();
        assert!(
            c3.start >= 100.0,
            "J3 must not start at 20, got {}",
            c3.start
        );
        let c1 = sim.completed().iter().find(|c| c.job.id == 1).unwrap();
        assert_eq!(c1.start, 100.0);
    }

    #[test]
    fn conservative_completes_every_job() {
        let t = swf::TracePreset::Lublin1.generate(400, 11);
        let sim = run_conservative(&t, Policy::Sjf, RuntimeEstimator::RequestTime);
        assert_eq!(sim.completed().len(), t.len());
    }

    #[test]
    fn conservative_not_worse_than_no_backfill() {
        let t = swf::TracePreset::Lublin2.generate(500, 13);
        let cons = run_conservative(&t, Policy::Fcfs, RuntimeEstimator::RequestTime);
        let mut none = Simulation::new(&t, Policy::Fcfs);
        while none.advance() != SimEvent::Done {}
        let m_cons = Metrics::of(cons.completed(), t.cluster_procs());
        let m_none = Metrics::of(none.completed(), t.cluster_procs());
        assert!(m_cons.mean_bounded_slowdown <= m_none.mean_bounded_slowdown * 1.05);
    }
}
