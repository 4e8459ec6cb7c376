//! Base scheduling policies — the priority functions of Table 3.
//!
//! Each policy assigns a *score* to every waiting job; the job with the
//! **lowest** score is selected next (min-first convention, matching the
//! formulas as printed in the paper):
//!
//! | Policy | score(t) |
//! |--------|----------|
//! | FCFS   | `st` (submission time) |
//! | SJF    | `rt` (requested runtime) |
//! | WFP3   | `−(wt/rt)³ · nt` |
//! | F1     | `log10(rt) · nt + 870 · log10(st)` |
//!
//! WFP3 (Tang et al. 2009) boosts jobs the longer they wait relative to
//! their size; F1 (Carastan-Santos & de Camargo, SC'17) is the
//! regression-learned function that paper found best for minimizing
//! bounded slowdown.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use swf::Job;

/// A base scheduling policy (Table 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Policy {
    /// First-Come-First-Serve: priority by submission order.
    Fcfs,
    /// Shortest-Job-First: priority by requested runtime.
    Sjf,
    /// WFP3: favors jobs that have waited long relative to their runtime,
    /// weighted by their processor request.
    Wfp3,
    /// F1: the machine-learned priority function of Carastan-Santos & de
    /// Camargo (2017), the state of the art for minimizing bounded slowdown.
    F1,
}

impl Policy {
    /// All four policies, in Table 3 order.
    pub const ALL: [Policy; 4] = [Policy::Fcfs, Policy::Sjf, Policy::Wfp3, Policy::F1];

    /// The policy's score for `job` at simulation time `now` (lower runs
    /// first). `rt`/`st` are clamped to ≥ 1 s so the logarithms and ratios
    /// are well-defined for jobs submitted at t = 0.
    pub fn score(&self, job: &Job, now: f64) -> f64 {
        let st = job.submit.max(1.0);
        let rt = job.request_time.max(1.0);
        let nt = job.procs as f64;
        match self {
            Policy::Fcfs => st,
            Policy::Sjf => rt,
            Policy::Wfp3 => {
                let wt = (now - job.submit).max(0.0);
                -(wt / rt).powi(3) * nt
            }
            Policy::F1 => rt.log10() * nt + 870.0 * st.log10(),
        }
    }

    /// The queue's total order at time `now`: by score, ties broken by
    /// submission time, then id, so the schedule is deterministic.
    /// `Less` means `a` runs first.
    pub(crate) fn order(&self, a: &Job, b: &Job, now: f64) -> Ordering {
        self.score(a, now)
            .total_cmp(&self.score(b, now))
            .then(a.submit.total_cmp(&b.submit))
            .then(a.id.cmp(&b.id))
    }

    /// Sorts a queue in place so the highest-priority job comes first
    /// (the `(score, submit, id)` order).
    pub fn sort_queue(&self, queue: &mut [Job], now: f64) {
        queue.sort_by(|a, b| self.order(a, b, now));
    }

    /// Whether the score of a fixed job can change as time advances.
    /// Time-independent policies (FCFS, SJF, F1 — functions of `st`, `rt`,
    /// `nt` only) keep a sorted queue sorted until the next arrival, which
    /// lets the event kernel skip per-event re-sorts; WFP3 scores grow with
    /// waiting time, so its queue must be re-sorted whenever time moves.
    pub fn time_dependent(&self) -> bool {
        matches!(self, Policy::Wfp3)
    }

    /// Name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Fcfs => "FCFS",
            Policy::Sjf => "SJF",
            Policy::Wfp3 => "WFP3",
            Policy::F1 => "F1",
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Policy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "fcfs" => Ok(Policy::Fcfs),
            "sjf" => Ok(Policy::Sjf),
            "wfp3" => Ok(Policy::Wfp3),
            "f1" => Ok(Policy::F1),
            other => Err(format!("unknown policy {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: usize, submit: f64, procs: u32, request: f64) -> Job {
        Job::new(id, submit, procs, request, request)
    }

    #[test]
    fn fcfs_orders_by_submission() {
        let mut q = vec![job(0, 50.0, 1, 10.0), job(1, 10.0, 1, 99999.0)];
        Policy::Fcfs.sort_queue(&mut q, 100.0);
        assert_eq!(q[0].id, 1);
    }

    #[test]
    fn sjf_orders_by_request_time() {
        let mut q = vec![job(0, 0.0, 1, 500.0), job(1, 90.0, 1, 10.0)];
        Policy::Sjf.sort_queue(&mut q, 100.0);
        assert_eq!(q[0].id, 1);
    }

    #[test]
    fn wfp3_favors_long_waiting_jobs() {
        // Same size and request; the one waiting longer must come first.
        let mut q = vec![job(0, 90.0, 4, 100.0), job(1, 0.0, 4, 100.0)];
        Policy::Wfp3.sort_queue(&mut q, 100.0);
        assert_eq!(q[0].id, 1);
    }

    #[test]
    fn wfp3_weighs_processor_count() {
        // Equal wait/request ratio; the wider job gets the bigger boost.
        let mut q = vec![job(0, 0.0, 2, 100.0), job(1, 0.0, 64, 100.0)];
        Policy::Wfp3.sort_queue(&mut q, 100.0);
        assert_eq!(q[0].id, 1);
    }

    #[test]
    fn f1_prefers_short_narrow_early_jobs() {
        // F1 grows with log10(rt)*nt and strongly with submission time.
        let early_short = job(0, 10.0, 2, 60.0);
        let late_long = job(1, 1000.0, 32, 36000.0);
        assert!(Policy::F1.score(&early_short, 0.0) < Policy::F1.score(&late_long, 0.0));
    }

    #[test]
    fn f1_handles_time_zero_submission() {
        let j = job(0, 0.0, 1, 100.0);
        assert!(Policy::F1.score(&j, 0.0).is_finite());
    }

    #[test]
    fn wfp3_zero_wait_score_is_zero() {
        let j = job(0, 100.0, 8, 600.0);
        assert_eq!(Policy::Wfp3.score(&j, 100.0), 0.0);
    }

    #[test]
    fn sort_is_deterministic_on_ties() {
        let mut q = vec![job(2, 0.0, 1, 100.0), job(1, 0.0, 1, 100.0)];
        Policy::Sjf.sort_queue(&mut q, 0.0);
        assert_eq!(q[0].id, 1);
    }

    #[test]
    fn policy_from_str_round_trips() {
        for p in Policy::ALL {
            assert_eq!(p.name().parse::<Policy>().unwrap(), p);
        }
        assert!("lifo".parse::<Policy>().is_err());
    }
}
