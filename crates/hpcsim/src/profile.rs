//! Resource-availability profiles over future time.
//!
//! A profile answers "how many processors will be free at time t, given the
//! currently running jobs (under some runtime estimate) and any future
//! reservations already granted?". It is the planning structure behind both
//! EASY (computing the reserved job's shadow time) and conservative
//! backfilling (granting every queued job a reservation).
//!
//! # Representation
//!
//! The seed implementation kept an unsorted `(time, delta)` list and
//! answered every query by re-summing it; PR 1 replaced it with a sorted
//! `Vec` of edges carrying a running prefix availability — `O(log n)`
//! point queries, but `O(n)` per insert (memmove plus a suffix update of
//! every later edge's stored availability) and an `O(n)` shortfall sweep
//! per `earliest_fit`, which kept a conservative pass quadratic in queue
//! depth.
//!
//! This version is an **edge timeline**: edges live in time-ordered
//! buckets of bounded width, each bucket carrying its delta sum and the
//! min/max of its internal prefix availability. That turns every
//! operation into "locate bucket + touch one bucket + scan bucket
//! summaries":
//!
//! * insert/remove — `O(log n)` bucket location plus an `O(B)` rewrite of
//!   one bucket (`B` = bucket width, a constant), with occasional bucket
//!   splits; no suffix updates ever;
//! * [`AvailabilityProfile::avail_at`] — one pass over bucket summaries
//!   plus a binary search in the boundary bucket;
//! * [`AvailabilityProfile::earliest_fit`] — a candidate/shortfall cursor
//!   walk that **skips whole buckets** whose prefix-availability range
//!   rules them out, instead of materializing a shortfall list per query.
//!
//! Edges are **reference-counted**: profiles now support exact removal
//! ([`AvailabilityProfile::remove_release`] /
//! [`AvailabilityProfile::remove_usage`]) so a long-lived profile can be
//! maintained incrementally as jobs start, finish and migrate (see
//! `crate::plan`), instead of being rebuilt from the running set at every
//! decision point. A merged edge whose contributions all went away is
//! dropped outright (it must stop being an `earliest_fit` candidate); a
//! merged edge that still has live contributions survives even when its
//! net delta is zero — exactly the edge set a from-scratch rebuild over
//! the live contributions would produce.
//!
//! Query *semantics* are identical to the seed (same candidate instants,
//! same strict/inclusive comparisons, same float arithmetic), which the
//! differential property suite (`tests/proptest_profile.rs`, pinning this
//! implementation against a retained naive reference) and the equivalence
//! suite pin down.

use crate::observe::ProfileStats;
use crate::state::RunningJob;

/// Target bucket width. Buckets split once they reach `2 * BUCKET_WIDTH`
/// edges; they are never re-merged (a bucket that empties is removed).
const BUCKET_WIDTH: usize = 64;

/// A piecewise-constant availability timeline starting at `now`.
///
/// Internally a bucketed, time-sorted list of merged
/// `(time, delta, refs)` edges over a baseline of `free` processors.
/// Deltas are integers, so availability values are exact (no float
/// accumulation error) and independent of insertion order.
#[derive(Debug, Clone)]
pub struct AvailabilityProfile {
    now: f64,
    free: i64,
    /// Non-empty buckets, globally sorted by time.
    buckets: Vec<Bucket>,
    /// Retired edge storage, reused when a new bucket is needed — the
    /// allocation-reuse half of `reset_to_running`.
    spare: Vec<Edge>,
    /// Passive operation counters (see [`crate::observe`]).
    stats: ProfileStats,
}

#[derive(Debug, Clone, Copy)]
struct Edge {
    time: f64,
    /// Net delta of all live contributions merged at this time.
    delta: i64,
    /// Prefix sum of deltas within the bucket, up to and including this
    /// edge. Availability at this edge = baseline + sum of earlier
    /// buckets' `sum` + `prefix`.
    prefix: i64,
    /// Live contributions merged at this time; the edge is dropped when
    /// it reaches zero.
    refs: u32,
}

#[derive(Debug, Clone, Default)]
struct Bucket {
    edges: Vec<Edge>,
    /// Sum of all deltas in this bucket.
    sum: i64,
    /// Minimum of `prefix` over the bucket's edges.
    min_prefix: i64,
    /// Maximum of `prefix` over the bucket's edges.
    max_prefix: i64,
}

impl Bucket {
    /// Recomputes `prefix` for every edge and the bucket summaries.
    fn refresh(&mut self) {
        let mut sum = 0;
        let mut min = i64::MAX;
        let mut max = i64::MIN;
        for e in &mut self.edges {
            sum += e.delta;
            e.prefix = sum;
            min = min.min(sum);
            max = max.max(sum);
        }
        self.sum = sum;
        self.min_prefix = min;
        self.max_prefix = max;
    }

    fn last_time(&self) -> f64 {
        self.edges.last().expect("buckets are never empty").time // simlint: allow(panic-path) — a profile always carries its terminal edge; empty means construction broke
    }
}

impl AvailabilityProfile {
    /// A profile with `free` processors available from `now` on.
    pub fn new(now: f64, free: u32) -> Self {
        Self {
            now,
            free: free as i64,
            buckets: Vec::new(), // simlint: allow(hot-alloc) — Vec::new allocates nothing; the buffer grows once and is reused
            spare: Vec::new(), // simlint: allow(hot-alloc) — Vec::new allocates nothing; the buffer grows once and is reused
            stats: ProfileStats::default(),
        }
    }

    /// The release profile of `running` at `now`: `free` baseline
    /// processors plus one release per running job at `end(job)`, clamped
    /// to `now` — the from-scratch derivation every scratch profile and
    /// debug oracle starts from.
    pub fn of_running(
        now: f64,
        free: u32,
        running: &[RunningJob],
        end: impl Fn(&RunningJob) -> f64,
    ) -> Self {
        let mut prof = Self::new(now, free);
        prof.reset_to_running(now, free, running, end);
        prof
    }

    /// [`AvailabilityProfile::of_running`] in place: empties the profile
    /// and rebuilds it, keeping one bucket's allocation for reuse — the
    /// scratch-buffer path of the router's per-batch plan cache. The
    /// passive counters carry over.
    pub fn reset_to_running(
        &mut self,
        now: f64,
        free: u32,
        running: &[RunningJob],
        end: impl Fn(&RunningJob) -> f64,
    ) {
        self.now = now;
        self.free = free as i64;
        if let Some(mut b) = self.buckets.pop() {
            b.edges.clear();
            self.spare = b.edges;
        }
        self.buckets.clear();
        for r in running {
            self.add_release(end(r), r.job.procs);
        }
    }

    /// The profile's passive operation counters. `reset_to_running` keeps
    /// them cumulative (a reused scratch profile reports its whole history);
    /// [`AvailabilityProfile::clear_stats`] zeroes them.
    pub fn stats(&self) -> &ProfileStats {
        &self.stats
    }

    /// Zeroes the passive counters — called when a profile is cloned into
    /// a new role so the clone does not re-report its source's history.
    pub fn clear_stats(&mut self) {
        self.stats = ProfileStats::default();
    }

    /// A fresh bucket backed by the spare allocation when available.
    fn fresh_bucket(&mut self) -> Bucket {
        let mut edges = std::mem::take(&mut self.spare);
        edges.clear();
        Bucket {
            edges,
            ..Bucket::default()
        }
    }

    /// The profile's time origin.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Moves the time origin forward without touching the edges. Edges
    /// now in the past keep contributing to availability at every
    /// queryable instant and stop being `earliest_fit` candidates —
    /// exactly the behavior of a from-scratch rebuild that clamps them
    /// to `now` (pinned by the differential property suite).
    pub fn advance_to(&mut self, now: f64) {
        debug_assert!(now >= self.now, "profiles only move forward in time");
        self.now = now;
    }

    /// Adjusts the baseline free-processor count by `delta` — how a
    /// persistent profile tracks jobs claiming and releasing processors
    /// *now* (future edges describe everything else).
    pub fn shift_baseline(&mut self, delta: i64) {
        self.free += delta;
    }

    /// The baseline free-processor count (availability before any edge).
    pub fn baseline(&self) -> i64 {
        self.free
    }

    /// Number of live (merged) edges.
    pub fn edge_count(&self) -> usize {
        self.buckets.iter().map(|b| b.edges.len()).sum()
    }

    /// The merged `(time, delta)` edges in time order — exposed for the
    /// differential tests and the planner's debug oracle.
    pub fn edges(&self) -> impl Iterator<Item = (f64, i64)> + '_ {
        self.buckets
            .iter()
            .flat_map(|b| b.edges.iter().map(|e| (e.time, e.delta)))
    }

    /// Records that `procs` processors are released at `time` (a running
    /// job's estimated completion). Times before `now` are clamped.
    pub fn add_release(&mut self, time: f64, procs: u32) {
        self.insert_contrib(time.max(self.now), procs as i64);
    }

    /// Records a release at exactly `time` without clamping to `now` — the
    /// persistent-planner insertion path: its removal recomputes the same
    /// time from the same operands and must match the stored edge bitwise
    /// even after the clock has passed it. Un-clamped past edges are
    /// query-equivalent to clamped ones for every `not_before ≥ now`.
    pub(crate) fn add_release_raw(&mut self, time: f64, procs: u32) {
        self.insert_contrib(time, procs as i64);
    }

    /// Retracts a release previously recorded at exactly `time` (bitwise)
    /// — the removal a persistent profile applies when the job actually
    /// finishes. The caller must pass the post-clamp time it was added at.
    pub fn remove_release(&mut self, time: f64, procs: u32) {
        self.remove_contrib(time, procs as i64);
    }

    /// Records a planned occupation of `procs` processors on
    /// `[start, end)` (a granted reservation).
    pub fn add_usage(&mut self, start: f64, end: f64, procs: u32) {
        let start = start.max(self.now);
        if end <= start {
            return;
        }
        self.insert_contrib(start, -(procs as i64));
        self.insert_contrib(end, procs as i64);
    }

    /// Retracts a usage previously recorded with exactly these (bitwise)
    /// post-clamp bounds — how a retired or invalidated reservation
    /// leaves a persistent plan profile.
    pub fn remove_usage(&mut self, start: f64, end: f64, procs: u32) {
        if end <= start {
            return;
        }
        self.remove_contrib(start, -(procs as i64));
        self.remove_contrib(end, procs as i64);
    }

    /// Index of the bucket an edge at `time` belongs in: the first bucket
    /// whose last edge is not before `time`, or the last bucket.
    fn bucket_for(&self, time: f64) -> usize {
        let idx = self
            .buckets
            .partition_point(|b| b.last_time().total_cmp(&time).is_lt());
        idx.min(self.buckets.len().saturating_sub(1))
    }

    /// Merges one contribution into the timeline.
    fn insert_contrib(&mut self, time: f64, delta: i64) {
        self.stats.edge_inserts += 1;
        if self.buckets.is_empty() {
            let mut b = self.fresh_bucket();
            b.edges.push(Edge {
                time,
                delta,
                prefix: 0,
                refs: 1,
            });
            b.refresh();
            self.buckets.push(b);
            return;
        }
        let bi = self.bucket_for(time);
        let bucket = &mut self.buckets[bi]; // simlint: allow(panic-path) — bucket/edge indices come from this profile's own binary search; in-bounds by construction
        let idx = bucket
            .edges
            .partition_point(|e| e.time.total_cmp(&time).is_lt());
        if bucket.edges.get(idx).is_some_and(|e| e.time == time) {
            bucket.edges[idx].delta += delta; // simlint: allow(panic-path) — bucket/edge indices come from this profile's own binary search; in-bounds by construction
            bucket.edges[idx].refs += 1; // simlint: allow(panic-path) — bucket/edge indices come from this profile's own binary search; in-bounds by construction
        } else {
            bucket.edges.insert(
                idx,
                Edge {
                    time,
                    delta,
                    prefix: 0,
                    refs: 1,
                },
            );
        }
        bucket.refresh();
        if bucket.edges.len() >= 2 * BUCKET_WIDTH {
            let tail = bucket.edges.split_off(BUCKET_WIDTH);
            bucket.refresh();
            let mut next = Bucket {
                edges: tail,
                ..Bucket::default()
            };
            next.refresh();
            self.buckets.insert(bi + 1, next);
        }
    }

    /// Retracts one contribution; the matching edge must exist at exactly
    /// `time`. Edges with no remaining contributions are dropped (they
    /// must stop being fit candidates), empty buckets with them.
    fn remove_contrib(&mut self, time: f64, delta: i64) {
        self.stats.edge_removes += 1;
        debug_assert!(!self.buckets.is_empty(), "removal from an empty profile");
        let bi = self.bucket_for(time);
        let bucket = &mut self.buckets[bi]; // simlint: allow(panic-path) — bucket/edge indices come from this profile's own binary search; in-bounds by construction
        let idx = bucket
            .edges
            .partition_point(|e| e.time.total_cmp(&time).is_lt());
        let Some(e) = bucket.edges.get_mut(idx).filter(|e| e.time == time) else {
            debug_assert!(false, "no edge at t={time} to remove");
            return;
        };
        e.delta -= delta;
        e.refs -= 1;
        if e.refs == 0 {
            debug_assert_eq!(e.delta, 0, "contribution accounting out of sync");
            bucket.edges.remove(idx);
        }
        if bucket.edges.is_empty() {
            let b = self.buckets.remove(bi);
            self.spare = b.edges;
        } else {
            bucket.refresh();
        }
    }

    /// Availability just after `time` (edges at exactly `time` included).
    pub fn avail_at(&self, time: f64) -> i64 {
        let mut base = self.free;
        for b in &self.buckets {
            if b.last_time().total_cmp(&time).is_le() {
                base += b.sum;
                continue;
            }
            let idx = b.edges.partition_point(|e| e.time.total_cmp(&time).is_le());
            if idx > 0 {
                base += b.edges[idx - 1].prefix; // simlint: allow(panic-path) — bucket/edge indices come from this profile's own binary search; in-bounds by construction
            }
            return base;
        }
        base
    }

    /// First edge strictly after `lower` whose availability meets
    /// `demand`, with that availability — the next `earliest_fit`
    /// candidate. Skips whole buckets whose availability range stays
    /// below demand.
    ///
    /// Like [`Self::avail_at`], each call accumulates `base` by walking
    /// the bucket summaries from the front — a tight scan over ~n/64
    /// two-word structs, deliberately preferred over maintaining global
    /// cumulative sums (which would put the suffix update back into
    /// every insert). A fit blocked by many shortfalls repeats that
    /// summary walk per shortfall; if that ever shows up in profiles,
    /// resume the walk from the previous bucket index instead.
    fn next_candidate_after(&self, lower: f64, demand: i64, steps: &mut u64) -> Option<f64> {
        let mut base = self.free;
        for b in &self.buckets {
            *steps += 1;
            if b.last_time().total_cmp(&lower).is_le() {
                base += b.sum;
                continue;
            }
            if base + b.max_prefix >= demand {
                let idx = b
                    .edges
                    .partition_point(|e| e.time.total_cmp(&lower).is_le());
                // simlint: allow(panic-path) — bucket/edge indices come from this profile's own binary search; in-bounds by construction
                for e in &b.edges[idx..] {
                    if base + e.prefix >= demand {
                        return Some(e.time);
                    }
                }
            }
            base += b.sum;
        }
        None
    }

    /// First edge strictly after `lower` whose availability falls below
    /// `demand` — the next shortfall that can block a fit window. Skips
    /// whole buckets whose availability range stays at or above demand.
    fn next_shortfall_after(&self, lower: f64, demand: i64, steps: &mut u64) -> Option<f64> {
        let mut base = self.free;
        for b in &self.buckets {
            *steps += 1;
            if b.last_time().total_cmp(&lower).is_le() {
                base += b.sum;
                continue;
            }
            if base + b.min_prefix < demand {
                let idx = b
                    .edges
                    .partition_point(|e| e.time.total_cmp(&lower).is_le());
                // simlint: allow(panic-path) — bucket/edge indices come from this profile's own binary search; in-bounds by construction
                for e in &b.edges[idx..] {
                    if base + e.prefix < demand {
                        return Some(e.time);
                    }
                }
            }
            base += b.sum;
        }
        None
    }

    /// The earliest time ≥ `not_before` at which `procs` processors are
    /// continuously available for `duration` seconds.
    ///
    /// Candidate start times are `not_before` itself and every edge time
    /// after it; between edges availability is constant, so these are the
    /// only minima. A candidate is feasible when availability at the start
    /// is sufficient and no *shortfall edge* (availability below demand)
    /// lies strictly inside `(start, start + duration)`. Returns
    /// `f64::INFINITY` if the demand can never be met (caller bug: demand
    /// exceeds the cluster).
    ///
    /// The walk advances two implicit cursors: a blocked candidate jumps
    /// the search past the shortfall that blocked it (every candidate in
    /// between is provably blocked by the same shortfall), so each query
    /// touches a bucket's interior at most once per blocking shortfall.
    pub fn earliest_fit(&mut self, procs: u32, duration: f64, not_before: f64) -> f64 {
        let not_before = not_before.max(self.now);
        let demand = procs as i64;

        let mut steps = 0u64;
        let mut cand = Some(not_before).filter(|&c| self.avail_at(c) >= demand);
        let mut lower = not_before;
        let fit = loop {
            let c = match cand.take() {
                Some(c) => c,
                None => match self.next_candidate_after(lower, demand, &mut steps) {
                    Some(c) => c,
                    None => break f64::INFINITY,
                },
            };
            match self.next_shortfall_after(c, demand, &mut steps) {
                None => break c,
                Some(s) if s >= c + duration => break c,
                Some(s) => lower = s,
            }
        };
        self.stats.fit_calls += 1;
        self.stats.buckets_scanned += steps;
        self.stats.scan_hist.record(steps);
        fit
    }

    /// The earliest time ≥ `now` at which `procs` processors are available
    /// (ignoring how long they stay available) — the EASY *shadow time* for
    /// the reserved job when the profile only contains releases.
    pub fn earliest_avail(&mut self, procs: u32) -> f64 {
        self.earliest_fit(procs, 0.0, self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_is_constant() {
        let mut p = AvailabilityProfile::new(10.0, 8);
        assert_eq!(p.avail_at(10.0), 8);
        assert_eq!(p.avail_at(1e9), 8);
        assert_eq!(p.earliest_fit(8, 100.0, 10.0), 10.0);
        assert_eq!(p.earliest_fit(9, 100.0, 10.0), f64::INFINITY);
    }

    #[test]
    fn releases_accumulate() {
        let mut p = AvailabilityProfile::new(0.0, 2);
        p.add_release(100.0, 4);
        p.add_release(200.0, 2);
        assert_eq!(p.avail_at(0.0), 2);
        assert_eq!(p.avail_at(100.0), 6);
        assert_eq!(p.avail_at(250.0), 8);
        assert_eq!(p.earliest_avail(6), 100.0);
        assert_eq!(p.earliest_avail(7), 200.0);
    }

    #[test]
    fn usage_blocks_an_interval() {
        let mut p = AvailabilityProfile::new(0.0, 8);
        p.add_usage(50.0, 150.0, 6);
        // 4 procs for 100s: fits immediately only if it ends by t=50.
        assert_eq!(p.earliest_fit(4, 40.0, 0.0), 0.0);
        assert_eq!(p.earliest_fit(4, 100.0, 0.0), 150.0);
        // 2 procs fit through the blocked window.
        assert_eq!(p.earliest_fit(2, 1000.0, 0.0), 0.0);
    }

    #[test]
    fn fit_respects_not_before() {
        let mut p = AvailabilityProfile::new(0.0, 8);
        assert_eq!(p.earliest_fit(4, 10.0, 500.0), 500.0);
    }

    #[test]
    fn usage_before_now_is_clamped() {
        let mut p = AvailabilityProfile::new(100.0, 4);
        p.add_usage(0.0, 200.0, 2);
        assert_eq!(p.avail_at(100.0), 2);
        assert_eq!(p.avail_at(200.0), 4);
    }

    #[test]
    fn zero_length_usage_is_ignored() {
        let mut p = AvailabilityProfile::new(0.0, 4);
        p.add_usage(10.0, 10.0, 4);
        assert_eq!(p.avail_at(10.0), 4);
        p.remove_usage(10.0, 10.0, 4);
        assert_eq!(p.edge_count(), 0);
    }

    #[test]
    fn reservation_chain_stacks_correctly() {
        // Conservative-backfilling shape: running job releases at t=100,
        // a reservation claims [100, 200), a second fit must land at 200.
        let mut p = AvailabilityProfile::new(0.0, 0);
        p.add_release(100.0, 4);
        p.add_usage(100.0, 200.0, 4);
        assert_eq!(p.earliest_fit(4, 50.0, 0.0), 200.0);
    }

    #[test]
    fn merged_edges_keep_their_breakpoint() {
        // A release and a usage-start at the same instant net to zero, but
        // the instant must remain a candidate/checkpoint time.
        let mut p = AvailabilityProfile::new(0.0, 4);
        p.add_release(100.0, 4);
        p.add_usage(100.0, 200.0, 4);
        assert_eq!(p.avail_at(100.0), 4);
        assert_eq!(p.avail_at(150.0), 4);
        assert_eq!(p.earliest_fit(8, 10.0, 0.0), 200.0);
    }

    #[test]
    fn interleaved_inserts_match_batch_semantics() {
        // Insert edges out of time order; the sorted timeline must agree
        // with a brute-force sum at every probe point.
        let spec: &[(f64, f64, u32)] = &[
            (300.0, 500.0, 3),
            (100.0, 400.0, 2),
            (50.0, 350.0, 1),
            (400.0, 410.0, 6),
        ];
        let mut p = AvailabilityProfile::new(0.0, 8);
        for &(s, e, c) in spec {
            p.add_usage(s, e, c);
        }
        let brute = |t: f64| -> i64 {
            8 - spec
                .iter()
                .filter(|&&(s, e, _)| s <= t && t < e)
                .map(|&(_, _, c)| c as i64)
                .sum::<i64>()
        };
        for t in [
            0.0, 50.0, 99.9, 100.0, 300.0, 349.0, 350.0, 400.0, 409.0, 410.0, 500.0,
        ] {
            assert_eq!(p.avail_at(t), brute(t), "at t={t}");
        }
    }

    #[test]
    fn removal_undoes_addition_exactly() {
        let mut p = AvailabilityProfile::new(0.0, 8);
        p.add_release(100.0, 4);
        p.add_usage(50.0, 150.0, 6);
        p.add_usage(50.0, 150.0, 2);
        p.remove_usage(50.0, 150.0, 6);
        assert_eq!(p.avail_at(50.0), 6);
        assert_eq!(p.avail_at(100.0), 10);
        p.remove_usage(50.0, 150.0, 2);
        p.remove_release(100.0, 4);
        assert_eq!(p.edge_count(), 0);
        for t in [0.0, 50.0, 100.0, 150.0] {
            assert_eq!(p.avail_at(t), 8, "at t={t}");
        }
    }

    #[test]
    fn removal_keeps_surviving_breakpoints() {
        // Release +4 and usage-start -4 merge to a zero-delta edge at
        // t=100. Removing the usage must leave the release's breakpoint;
        // removing the release too must drop the edge entirely.
        let mut p = AvailabilityProfile::new(0.0, 4);
        p.add_release(100.0, 4);
        p.add_usage(100.0, 200.0, 4);
        p.remove_usage(100.0, 200.0, 4);
        assert_eq!(p.avail_at(100.0), 8);
        assert_eq!(p.edge_count(), 1);
        p.remove_release(100.0, 4);
        assert_eq!(p.edge_count(), 0);
    }

    #[test]
    fn stale_edges_behave_like_a_clamped_rebuild() {
        // A release inserted in the future, then the clock moves past it:
        // queries at or after the new `now` must see it exactly as if the
        // profile had been rebuilt with the release clamped to `now`.
        let mut p = AvailabilityProfile::new(0.0, 2);
        p.add_release(100.0, 4);
        p.add_release(500.0, 2);
        p.advance_to(300.0);
        let mut rebuilt = AvailabilityProfile::new(300.0, 2);
        rebuilt.add_release(100.0, 4); // clamps to 300
        rebuilt.add_release(500.0, 2);
        for t in [300.0, 400.0, 500.0, 600.0] {
            assert_eq!(p.avail_at(t), rebuilt.avail_at(t), "at t={t}");
        }
        assert_eq!(
            p.earliest_fit(7, 10.0, 300.0),
            rebuilt.earliest_fit(7, 10.0, 300.0)
        );
        assert_eq!(p.earliest_fit(6, 10.0, 300.0), 300.0);
    }

    #[test]
    fn baseline_shift_tracks_starts_and_completions() {
        let mut p = AvailabilityProfile::new(0.0, 8);
        // A job claims 6 procs now, releasing at t=100.
        p.shift_baseline(-6);
        p.add_release(100.0, 6);
        assert_eq!(p.avail_at(0.0), 2);
        assert_eq!(p.avail_at(100.0), 8);
        // It completes exactly on time.
        p.advance_to(100.0);
        p.remove_release(100.0, 6);
        p.shift_baseline(6);
        assert_eq!(p.avail_at(100.0), 8);
        assert_eq!(p.edge_count(), 0);
    }

    #[test]
    fn reset_reuses_the_profile() {
        let mut p = AvailabilityProfile::new(0.0, 4);
        for i in 0..300 {
            p.add_usage(i as f64, i as f64 + 10.0, 1);
        }
        p.reset_to_running(50.0, 16, &[], RunningJob::end);
        assert_eq!(p.edge_count(), 0);
        assert_eq!(p.avail_at(50.0), 16);
        assert_eq!(p.earliest_fit(16, 10.0, 0.0), 50.0);
        // Releases before the new origin clamp to it.
        let running = [RunningJob {
            job: swf::Job::new(0, 0.0, 4, 40.0, 40.0),
            start: 0.0,
        }];
        p.reset_to_running(50.0, 12, &running, RunningJob::end);
        assert_eq!(p.edges().collect::<Vec<_>>(), vec![(50.0, 4)]);
        assert_eq!(p.avail_at(50.0), 16);
    }

    #[test]
    fn passive_stats_count_ops_and_scans() {
        let mut p = AvailabilityProfile::new(0.0, 8);
        p.add_usage(50.0, 150.0, 6); // two edges
        p.earliest_fit(4, 100.0, 0.0);
        p.remove_usage(50.0, 150.0, 6);
        let s = p.stats().clone();
        assert_eq!(s.edge_inserts, 2);
        assert_eq!(s.edge_removes, 2);
        assert_eq!(s.fit_calls, 1);
        assert_eq!(s.scan_hist.total(), 1);
        // Cloning copies the history; clearing starts a fresh role.
        let mut q = p.clone();
        q.clear_stats();
        assert_eq!(q.stats(), &crate::observe::ProfileStats::default());
        assert_eq!(p.stats(), &s);
    }

    #[test]
    fn bucket_splits_preserve_query_results() {
        // Enough distinct edges to force several splits; compare against
        // brute force at every edge time.
        let mut p = AvailabilityProfile::new(0.0, 64);
        let spec: Vec<(f64, f64, u32)> = (0..400)
            .map(|i| {
                let s = ((i * 37) % 1000) as f64;
                (s, s + 5.0 + (i % 13) as f64, 1 + (i % 5) as u32)
            })
            .collect();
        for &(s, e, c) in &spec {
            p.add_usage(s, e, c);
        }
        let brute = |t: f64| -> i64 {
            64 - spec
                .iter()
                .filter(|&&(s, e, _)| s <= t && t < e)
                .map(|&(_, _, c)| c as i64)
                .sum::<i64>()
        };
        for i in 0..1030 {
            let t = i as f64;
            assert_eq!(p.avail_at(t), brute(t), "at t={t}");
        }
    }
}
