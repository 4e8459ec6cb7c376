//! Observation encoding (paper §3.2).
//!
//! The observation has three parts: the current job queue, the selected
//! (reserved) job, and the resource availability. Jobs are **sorted by
//! submission time**; when more than `MAX_OBSV_SIZE` jobs wait, the FCFS-
//! first `MAX_OBSV_SIZE` are kept; fewer are zero-padded. The reserved job
//! is included "as a normal job in the queue" but masked so the agent can
//! never pick it. Resource availability is **appended to every job
//! vector** rather than being a separate padded scalar — the paper calls
//! this out as the key for the kernel network to work.

use hpcsim::{BackfillSim, Simulation};
use serde::{Deserialize, Serialize};
use swf::Job;
use tinynn::Matrix;

/// Number of features per job vector. See [`job_features`] for the layout.
pub const JOB_FEATURES: usize = 12;

/// Default observation window (paper §3.3.2: "by default it is 128 …
/// many HPC job management systems like Slurm also limit pending jobs by
/// the same order of magnitude").
pub const DEFAULT_MAX_OBSV_SIZE: usize = 128;

/// The largest `max_obsv_size` the agent accepts (5460). The value
/// network indexes the nonzero entries of its flattened input,
/// `(max_obsv_size + 1) · JOB_FEATURES` of them, with `u16` positions.
pub const MAX_SUPPORTED_OBSV_SIZE: usize = (1 << 16) / JOB_FEATURES - 1;

/// Observation-encoding configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObsConfig {
    /// Maximum number of job slots (`MAX_OBSV_SIZE`); an agent takes at
    /// most [`MAX_SUPPORTED_OBSV_SIZE`].
    pub max_obsv_size: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            max_obsv_size: DEFAULT_MAX_OBSV_SIZE,
        }
    }
}

/// One encoded decision-point observation.
///
/// The feature matrix has `max_obsv_size + 1` rows: one per job slot plus a
/// final **skip row** — a pseudo-job carrying only the availability and
/// reservation features, whose kernel score becomes the logit of the skip
/// action (declining the rest of the current backfilling opportunity).
/// EASY can refuse a harmful backfill; without a skip action the agent
/// would be forced to pick *some* fitting job even when every choice delays
/// the reserved job, turning the violation penalty into unavoidable noise.
/// Scoring the skip row with the same kernel keeps the decision
/// state-dependent ("skip when nothing safe fits"), unlike a global bias
/// (see DESIGN.md).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// `(max_obsv_size + 1) × JOB_FEATURES` matrix; padding rows are all
    /// zeros; the last row is the skip pseudo-job.
    pub features: Matrix,
    /// Valid-action mask over all rows (job fits and is not reserved; the
    /// skip row is valid iff the environment allows skipping).
    pub mask: Vec<bool>,
    /// Slot → waiting-queue index (into [`BackfillSim::queue`]) for action
    /// execution; `None` for padding and for the skip row.
    pub queue_index: Vec<Option<usize>>,
}

impl Observation {
    /// Number of job slots (excluding the skip row).
    pub fn slots(&self) -> usize {
        self.mask.len() - 1
    }

    /// The index of the skip action (the last row).
    pub fn skip_action(&self) -> usize {
        self.mask.len() - 1
    }

    /// Whether the skip action is allowed in this observation.
    pub fn skip_allowed(&self) -> bool {
        self.mask[self.skip_action()]
    }

    /// True if at least one *job* can be backfilled.
    pub fn has_valid_action(&self) -> bool {
        self.mask[..self.skip_action()].iter().any(|&m| m)
    }
}

/// The reserved job's estimated reservation, precomputed once per decision
/// point and folded into every job vector (the paper: the backfilling
/// decision "depends on the estimated Reservation Time of the selected
/// job, the estimated runtime of queued jobs, and many other
/// considerations", §1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowInfo {
    /// `shadow − now`: seconds until the reserved job is estimated to
    /// start (request-time estimates, like EASY uses).
    pub time_to_shadow: f64,
    /// Processors still free at the shadow time once the reserved job
    /// starts (EASY's "extra" processors).
    pub extra_procs: u32,
}

/// The active partition's context at a decision point, folded into every
/// job vector so the agent observes per-partition load on multi-partition
/// clusters (on the degenerate one-partition cluster these collapse to the
/// whole-machine availability and 1.0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionCtx {
    /// Free processors of the active partition / the partition's size.
    pub free_frac: f64,
    /// The partition's speed factor relative to the fastest partition of
    /// the cluster (1.0 when homogeneous).
    pub rel_speed: f64,
}

impl PartitionCtx {
    /// The context of the simulation's active partition.
    pub fn of(sim: &Simulation) -> Self {
        let part = &sim.partitions()[sim.active_partition()];
        let max_speed = sim
            .spec()
            .partitions()
            .iter()
            .map(|p| p.speed)
            .fold(f64::NEG_INFINITY, f64::max);
        Self {
            free_frac: part.free() as f64 / part.procs() as f64,
            rel_speed: part.speed() / max_speed,
        }
    }
}

/// Encodes the feature vector of one job (normalized to roughly `[0, 1]`):
///
/// | idx | feature |
/// |-----|---------|
/// | 0 | waiting time, saturating at ~1 for day-long waits |
/// | 1 | requested runtime, log-scaled against a 48 h cap |
/// | 2 | requested processors / cluster size |
/// | 3 | fits the free processors right now (0/1) |
/// | 4 | free processors / cluster size (availability, appended per job) |
/// | 5 | is the reserved job (0/1) |
/// | 6 | real-job indicator (1; padding rows stay 0) |
/// | 7 | time until the reserved job's estimated reservation, saturating |
/// | 8 | estimated to finish before the reservation (0/1) |
/// | 9 | fits the extra processors at the reservation (0/1) |
/// | 10 | active partition's free processors / partition size |
/// | 11 | active partition's speed relative to the cluster's fastest |
///
/// Features 7–9 give the kernel network exactly what EASY's admission rule
/// reads, so EASY-like restraint is inside the hypothesis class and the
/// agent learns *when to deviate* from it rather than having to rediscover
/// reservations from scratch. Features 10–11 are the per-partition context
/// (see [`PartitionCtx`]): on a one-partition cluster they reduce to the
/// whole-machine availability (duplicating feature 4) and a constant 1.0.
pub fn job_features(
    job: &Job,
    now: f64,
    free: u32,
    cluster: u32,
    reserved: bool,
    shadow: ShadowInfo,
    part: PartitionCtx,
) -> [f64; JOB_FEATURES] {
    let wait = (now - job.submit).max(0.0);
    let rt_cap: f64 = 48.0 * 3600.0;
    [
        wait / (wait + 3600.0),
        ((1.0 + job.request_time).ln() / (1.0 + rt_cap).ln()).min(1.0),
        job.procs as f64 / cluster as f64,
        if job.procs <= free { 1.0 } else { 0.0 },
        free as f64 / cluster as f64,
        if reserved { 1.0 } else { 0.0 },
        1.0,
        shadow.time_to_shadow / (shadow.time_to_shadow + 3600.0),
        if job.request_time <= shadow.time_to_shadow {
            1.0
        } else {
            0.0
        },
        if job.procs <= shadow.extra_procs {
            1.0
        } else {
            0.0
        },
        part.free_frac,
        part.rel_speed,
    ]
}

/// Builds the observation for the simulation's current backfilling
/// opportunity. `encode` allows the skip action; use
/// [`encode_with_skip`] to control it.
pub fn encode(sim: &Simulation, cfg: &ObsConfig) -> Observation {
    encode_with_skip(sim, cfg, true)
}

/// [`encode`] with explicit control over the skip action's availability.
pub fn encode_with_skip(sim: &Simulation, cfg: &ObsConfig, skip_allowed: bool) -> Observation {
    let n_slots = cfg.max_obsv_size;
    let mut features = Matrix::zeros(n_slots + 1, JOB_FEATURES);
    let mut mask = vec![false; n_slots + 1];
    let mut queue_index = vec![None; n_slots + 1];

    let reserved_id = sim.reserved_job().map(|j| j.id);
    let now = sim.now();
    let free = sim.free_procs();
    let cluster = sim.cluster_procs();
    let part = PartitionCtx::of(sim);
    let shadow = hpcsim::easy::shadow_and_extra(sim, hpcsim::RuntimeEstimator::RequestTime)
        .map(|(shadow_time, extra)| ShadowInfo {
            time_to_shadow: (shadow_time - now).max(0.0),
            extra_procs: extra,
        })
        .unwrap_or(ShadowInfo {
            time_to_shadow: 0.0,
            extra_procs: free,
        });

    // Sort by submission time (FCFS), and keep the FCFS-first slice on
    // overflow (paper §3.3.2).
    let mut order: Vec<usize> = (0..sim.queue().len()).collect();
    order.sort_by(|&a, &b| {
        let (ja, jb) = (&sim.queue()[a], &sim.queue()[b]);
        ja.submit.total_cmp(&jb.submit).then(ja.id.cmp(&jb.id))
    });

    for (slot, &qidx) in order.iter().take(n_slots).enumerate() {
        let job = &sim.queue()[qidx];
        let reserved = Some(job.id) == reserved_id;
        let f = job_features(job, now, free, cluster, reserved, shadow, part);
        for (c, &v) in f.iter().enumerate() {
            features.set(slot, c, v);
        }
        queue_index[slot] = Some(qidx);
        mask[slot] = !reserved && job.procs <= free;
    }

    // The skip pseudo-job: no size, no runtime, no wait — only the shared
    // context (availability, reservation outlook, partition state) the
    // kernel can use to decide that declining beats every candidate.
    features.set(n_slots, 4, free as f64 / cluster as f64);
    features.set(
        n_slots,
        7,
        shadow.time_to_shadow / (shadow.time_to_shadow + 3600.0),
    );
    features.set(n_slots, 10, part.free_frac);
    features.set(n_slots, 11, part.rel_speed);
    mask[n_slots] = skip_allowed;

    Observation {
        features,
        mask,
        queue_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcsim::{Policy, SimEvent};
    use swf::Trace;

    fn opportunity_sim() -> Simulation {
        // Cluster 4, everyone submitted at t=0 (FCFS ties broken by id):
        // blocker (3p) starts, reserved (4p) blocks, two 1p jobs fit the
        // single free processor, the 2p job does not.
        let t = Trace::new(
            "t",
            4,
            vec![
                Job::new(0, 0.0, 3, 100.0, 100.0),
                Job::new(1, 0.0, 4, 100.0, 100.0),
                Job::new(2, 0.0, 1, 10.0, 10.0),
                Job::new(3, 0.0, 1, 10.0, 10.0),
                Job::new(4, 0.0, 2, 10.0, 10.0),
            ],
        );
        let mut sim = Simulation::new(&t, Policy::Fcfs);
        assert_eq!(sim.advance(), SimEvent::BackfillOpportunity);
        assert_eq!(sim.queue().len(), 4);
        sim
    }

    #[test]
    fn encode_masks_reserved_and_oversized_jobs() {
        let sim = opportunity_sim();
        let obs = encode(&sim, &ObsConfig { max_obsv_size: 8 });
        // Queue (by submit): job1 (reserved), job2, job3, job4 (2p > 1 free).
        assert!(!obs.mask[0], "reserved job must be masked");
        assert!(obs.mask[1]);
        assert!(obs.mask[2]);
        assert!(!obs.mask[3], "2-proc job does not fit 1 free proc");
        let skip = obs.skip_action();
        assert!(obs.mask[4..skip].iter().all(|&m| !m), "padding is masked");
        assert!(obs.mask[skip], "skip action is allowed by default");
    }

    #[test]
    fn encode_marks_reserved_flag_and_validity() {
        let sim = opportunity_sim();
        let obs = encode(&sim, &ObsConfig { max_obsv_size: 8 });
        assert_eq!(obs.features.get(0, 5), 1.0, "slot 0 is the reserved job");
        assert_eq!(obs.features.get(1, 5), 0.0);
        // Real rows carry the indicator, padding rows are all-zero.
        assert_eq!(obs.features.get(3, 6), 1.0);
        assert_eq!(obs.features.row_slice(4), &[0.0; JOB_FEATURES]);
    }

    #[test]
    fn encode_appends_availability_to_every_job_vector() {
        let sim = opportunity_sim();
        let obs = encode(&sim, &ObsConfig { max_obsv_size: 8 });
        for slot in 0..4 {
            assert_eq!(obs.features.get(slot, 4), 0.25, "1 of 4 procs free");
        }
    }

    #[test]
    fn encode_sorts_by_submission_time_not_policy_order() {
        // Under SJF the live queue is sorted [J1(rt 10), J3(rt 50),
        // J2(rt 500)], but the observation must present submission order
        // J1, J2, J3 (paper §3.2).
        let t = Trace::new(
            "t",
            4,
            vec![
                Job::new(0, 0.0, 3, 1000.0, 1000.0), // blocker, 1 proc free
                Job::new(1, 1.0, 2, 10.0, 10.0),     // SJF head, blocked
                Job::new(2, 2.0, 1, 500.0, 500.0),
                Job::new(3, 3.0, 1, 50.0, 50.0),
            ],
        );
        let mut sim = Simulation::new(&t, Policy::Sjf);
        loop {
            assert_eq!(sim.advance(), SimEvent::BackfillOpportunity);
            if sim.queue().len() == 3 {
                break;
            }
        }
        assert_eq!(sim.queue()[1].id, 3, "SJF must rank J3 before J2");
        let obs = encode(&sim, &ObsConfig { max_obsv_size: 8 });
        let ids: Vec<usize> = obs
            .queue_index
            .iter()
            .flatten()
            .map(|&q| sim.queue()[q].id)
            .collect();
        assert_eq!(ids, vec![1, 2, 3], "slots must follow submission order");
    }

    #[test]
    fn overflow_keeps_fcfs_first_jobs() {
        // Blocker leaves 1 processor free; a 2p head blocks; a stream of 1p
        // jobs arrives. Advance (declining every opportunity) until the
        // queue outgrows the observation window.
        let mut jobs = vec![
            Job::new(0, 0.0, 3, 1000.0, 1000.0),
            Job::new(1, 1.0, 2, 100.0, 100.0),
        ];
        for i in 2..20 {
            jobs.push(Job::new(i, i as f64, 1, 500.0, 500.0));
        }
        let t = Trace::new("t", 4, jobs);
        let mut sim = Simulation::new(&t, Policy::Fcfs);
        loop {
            assert_eq!(sim.advance(), SimEvent::BackfillOpportunity);
            if sim.queue().len() >= 8 {
                break;
            }
        }
        let obs = encode(&sim, &ObsConfig { max_obsv_size: 4 });
        assert_eq!(obs.slots(), 4);
        // All job slots are filled, with the earliest-submitted waiting
        // jobs; the final slot is the skip row.
        assert!(obs.queue_index[..obs.skip_action()]
            .iter()
            .all(Option::is_some));
        assert!(obs.queue_index[obs.skip_action()].is_none());
        let kept: Vec<usize> = obs.queue_index.iter().flatten().copied().collect();
        let max_kept_submit = kept
            .iter()
            .map(|&q| sim.queue()[q].submit)
            .fold(0.0f64, f64::max);
        let min_dropped_submit = (0..sim.queue().len())
            .filter(|q| !kept.contains(q))
            .map(|q| sim.queue()[q].submit)
            .fold(f64::INFINITY, f64::min);
        assert!(max_kept_submit <= min_dropped_submit);
    }

    fn whole_machine() -> PartitionCtx {
        PartitionCtx {
            free_frac: 0.5,
            rel_speed: 1.0,
        }
    }

    #[test]
    fn features_are_bounded() {
        let shadow = ShadowInfo {
            time_to_shadow: 1e9,
            extra_procs: 3,
        };
        let j = Job::new(0, 0.0, 128, 1e9, 1e9);
        let f = job_features(&j, 1e9, 64, 128, false, shadow, whole_machine());
        for (i, v) in f.iter().enumerate() {
            assert!((0.0..=1.5).contains(v), "feature {i} out of range: {v}");
        }
    }

    #[test]
    fn shadow_features_mirror_easy_admission() {
        let shadow = ShadowInfo {
            time_to_shadow: 500.0,
            extra_procs: 2,
        };
        // Finishes before the reservation.
        let short = Job::new(0, 0.0, 4, 400.0, 400.0);
        let f = job_features(&short, 0.0, 8, 16, false, shadow, whole_machine());
        assert_eq!((f[8], f[9]), (1.0, 0.0));
        // Too long, but narrow enough for the extra processors.
        let narrow = Job::new(1, 0.0, 2, 4000.0, 4000.0);
        let f = job_features(&narrow, 0.0, 8, 16, false, shadow, whole_machine());
        assert_eq!((f[8], f[9]), (0.0, 1.0));
        // Inadmissible either way.
        let bad = Job::new(2, 0.0, 4, 4000.0, 4000.0);
        let f = job_features(&bad, 0.0, 8, 16, false, shadow, whole_machine());
        assert_eq!((f[8], f[9]), (0.0, 0.0));
    }

    #[test]
    fn partition_features_collapse_on_homogeneous_clusters() {
        // One-partition cluster: the partition availability equals the
        // whole-machine availability and the relative speed is 1.0.
        let sim = opportunity_sim();
        let obs = encode(&sim, &ObsConfig { max_obsv_size: 8 });
        for slot in 0..4 {
            assert_eq!(obs.features.get(slot, 10), obs.features.get(slot, 4));
            assert_eq!(obs.features.get(slot, 11), 1.0);
        }
        let skip = obs.skip_action();
        assert_eq!(obs.features.get(skip, 11), 1.0);
    }

    #[test]
    fn partition_features_report_the_active_partition() {
        use hpcsim::{ClusterSpec, PartitionSpec, StaticAffinity};
        use std::sync::Arc;
        // Partition "small" (4p, speed 0.5 of the fastest): blocker 3p,
        // 4p head blocked, 1p candidate — the opportunity is in "small".
        let t = Trace::new(
            "t",
            12,
            vec![
                Job::new(0, 0.0, 3, 100.0, 100.0),
                Job::new(1, 10.0, 4, 100.0, 100.0),
                Job::new(2, 20.0, 1, 10.0, 10.0),
            ],
        );
        let spec = ClusterSpec::new(vec![
            PartitionSpec::new("big", 8, 2.0),
            PartitionSpec::new("small", 4, 1.0),
        ]);
        let mut sim = Simulation::with_cluster_rerouted(
            &t,
            hpcsim::Policy::Fcfs,
            spec,
            Arc::new(StaticAffinity),
            hpcsim::ReroutePolicy::AtSubmission,
        );
        assert_eq!(sim.advance(), SimEvent::BackfillOpportunity);
        assert_eq!(sim.active_partition(), 1);
        let obs = encode(&sim, &ObsConfig { max_obsv_size: 8 });
        // 1 of the partition's 4 procs is free; speed 1.0 vs fastest 2.0.
        assert_eq!(obs.features.get(0, 10), 0.25);
        assert_eq!(obs.features.get(0, 11), 0.5);
        // Feature 4 normalizes the same free count by the whole machine,
        // so 10 carries partition-local signal feature 4 cannot.
        assert_eq!(obs.features.get(0, 4), 1.0 / 12.0);
    }
}
