//! Property tests for the availability profile — the planning structure
//! under both EASY's shadow computation and conservative backfilling.
//!
//! Since the bucketed edge timeline landed (PR 5) the profile also
//! supports exact removal and baseline shifts, so the invariant suite is
//! joined by a **differential** suite: a retained naive reference profile
//! (the PR-1 sorted-`Vec` implementation, kept verbatim below) is driven
//! with the same operation sequence and must agree with the production
//! implementation on `avail_at`, `earliest_fit` and `earliest_avail` at
//! every probe point — including equal-time edges, zero-length usages,
//! and removal interleavings rebuilt from the surviving contributions.

use hpcsim::profile::AvailabilityProfile;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The retained naive reference: the PR-1 flat sorted-Vec profile.
// ---------------------------------------------------------------------

/// The pre-bucketing implementation, preserved as the differential
/// oracle: sorted edge list, O(n) insert with a suffix availability
/// update, O(n) shortfall sweep per fit query.
struct NaiveProfile {
    now: f64,
    free: i64,
    edges: Vec<NaiveEdge>,
}

#[derive(Clone, Copy)]
struct NaiveEdge {
    time: f64,
    delta: i64,
    avail: i64,
}

impl NaiveProfile {
    fn new(now: f64, free: u32) -> Self {
        Self {
            now,
            free: free as i64,
            edges: Vec::new(),
        }
    }

    fn add_release(&mut self, time: f64, procs: u32) {
        self.insert_edge(time.max(self.now), procs as i64);
    }

    fn add_usage(&mut self, start: f64, end: f64, procs: u32) {
        let start = start.max(self.now);
        if end <= start {
            return;
        }
        self.insert_edge(start, -(procs as i64));
        self.insert_edge(end, procs as i64);
    }

    fn insert_edge(&mut self, time: f64, delta: i64) {
        let idx = self
            .edges
            .partition_point(|e| e.time.total_cmp(&time).is_lt());
        let insert_at = if self.edges.get(idx).is_some_and(|e| e.time == time) {
            self.edges[idx].delta += delta;
            idx
        } else {
            let avail_before = if idx == 0 {
                self.free
            } else {
                self.edges[idx - 1].avail
            };
            self.edges.insert(
                idx,
                NaiveEdge {
                    time,
                    delta,
                    avail: avail_before,
                },
            );
            idx
        };
        for e in &mut self.edges[insert_at..] {
            e.avail += delta;
        }
    }

    fn avail_at(&self, time: f64) -> i64 {
        let idx = self
            .edges
            .partition_point(|e| e.time.total_cmp(&time).is_le());
        if idx == 0 {
            self.free
        } else {
            self.edges[idx - 1].avail
        }
    }

    fn earliest_fit(&self, procs: u32, duration: f64, not_before: f64) -> f64 {
        let not_before = not_before.max(self.now);
        let demand = procs as i64;
        let shortfalls: Vec<f64> = self
            .edges
            .iter()
            .filter(|e| e.avail < demand)
            .map(|e| e.time)
            .collect();
        let window_clear = |start: f64| -> bool {
            let end = start + duration;
            let next = shortfalls.partition_point(|&t| t.total_cmp(&start).is_le());
            shortfalls.get(next).is_none_or(|&t| t >= end)
        };
        if self.avail_at(not_before) >= demand && window_clear(not_before) {
            return not_before;
        }
        let first = self
            .edges
            .partition_point(|e| e.time.total_cmp(&not_before).is_le());
        for e in &self.edges[first..] {
            if e.avail >= demand && window_clear(e.time) {
                return e.time;
            }
        }
        f64::INFINITY
    }

    fn earliest_avail(&self, procs: u32) -> f64 {
        self.earliest_fit(procs, 0.0, self.now)
    }
}

// ---------------------------------------------------------------------
// Operation sequences driven against both implementations.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Event {
    Release { time: f64, procs: u32 },
    Usage { start: f64, len: f64, procs: u32 },
}

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    let release =
        (0.0f64..10_000.0, 1u32..16).prop_map(|(time, procs)| Event::Release { time, procs });
    let usage = (0.0f64..10_000.0, 1.0f64..5_000.0, 1u32..16)
        .prop_map(|(start, len, procs)| Event::Usage { start, len, procs });
    proptest::collection::vec(prop_oneof![release, usage], 0..20)
}

/// Edge-heavy sequences with deliberate time collisions (small discrete
/// time grid) and zero-length usages, plus a removal mask: removed events
/// are first added, then retracted, so the survivors must behave exactly
/// like a fresh build over them.
fn arb_collision_events() -> impl Strategy<Value = (Vec<Event>, Vec<bool>)> {
    let release = (0u32..40, 1u32..16).prop_map(|(slot, procs)| Event::Release {
        time: slot as f64 * 25.0,
        procs,
    });
    let usage = (0u32..40, 0u32..200, 1u32..16).prop_map(|(slot, len, procs)| Event::Usage {
        start: slot as f64 * 25.0,
        len: len as f64, // 0 is a legal (ignored) zero-length usage
        procs,
    });
    proptest::collection::vec(prop_oneof![release, usage], 0..40).prop_flat_map(|events| {
        let n = events.len();
        (
            Just(events),
            proptest::collection::vec(any::<bool>(), n..=n),
        )
    })
}

fn build(free: u32, events: &[Event]) -> AvailabilityProfile {
    let mut p = AvailabilityProfile::new(0.0, free);
    for e in events {
        match *e {
            Event::Release { time, procs } => p.add_release(time, procs),
            Event::Usage { start, len, procs } => p.add_usage(start, start + len, procs),
        }
    }
    p
}

fn build_naive(free: u32, events: &[Event]) -> NaiveProfile {
    let mut p = NaiveProfile::new(0.0, free);
    for e in events {
        match *e {
            Event::Release { time, procs } => p.add_release(time, procs),
            Event::Usage { start, len, procs } => p.add_usage(start, start + len, procs),
        }
    }
    p
}

/// Probe instants that cover every breakpoint and the space between.
fn probe_times(events: &[Event]) -> Vec<f64> {
    let mut ts = vec![0.0, 1e9];
    for e in events {
        match *e {
            Event::Release { time, .. } => ts.push(time),
            Event::Usage { start, len, .. } => {
                ts.push(start);
                ts.push(start + len);
            }
        }
    }
    for i in 0..ts.len().min(40) {
        ts.push(ts[i] + 0.5);
        ts.push((ts[i] - 0.5).max(0.0));
    }
    ts
}

proptest! {
    /// The bucketed timeline and the retained naive reference agree on
    /// every query, for identical operation sequences.
    #[test]
    fn bucketed_matches_naive_reference(
        free in 8u32..64,
        events in arb_events(),
        procs in 1u32..8,
        duration in 1.0f64..5_000.0,
        not_before in 0.0f64..5_000.0,
    ) {
        let mut p = build(free, &events);
        let naive = build_naive(free, &events);
        for &t in &probe_times(&events) {
            prop_assert!(p.avail_at(t) == naive.avail_at(t), "avail_at({}) diverged", t);
            let a = p.earliest_fit(procs, duration, t);
            let b = naive.earliest_fit(procs, duration, t);
            prop_assert!(a.to_bits() == b.to_bits(), "earliest_fit(.., {}): {} vs {}", t, a, b);
        }
        let a = p.earliest_fit(procs, duration, not_before);
        let b = naive.earliest_fit(procs, duration, not_before);
        prop_assert_eq!(a.to_bits(), b.to_bits());
        prop_assert_eq!(
            p.earliest_avail(procs).to_bits(),
            naive.earliest_avail(procs).to_bits()
        );
    }

    /// Removal is exact: adding every event and retracting a masked
    /// subset leaves a profile that answers every query like a fresh
    /// build over the survivors — on collision-heavy grids with merged
    /// equal-time edges and zero-length usages.
    #[test]
    fn removal_equals_rebuild_of_survivors(
        free in 8u32..64,
        (events, removed) in arb_collision_events(),
        procs in 1u32..8,
        duration in 1.0f64..2_000.0,
    ) {
        let mut p = build(free, &events);
        for (e, &gone) in events.iter().zip(&removed) {
            if !gone {
                continue;
            }
            match *e {
                Event::Release { time, procs } => p.remove_release(time, procs),
                Event::Usage { start, len, procs } => p.remove_usage(start, start + len, procs),
            }
        }
        let survivors: Vec<Event> = events
            .iter()
            .zip(&removed)
            .filter(|(_, &gone)| !gone)
            .map(|(e, _)| e.clone())
            .collect();
        let fresh = build(free, &survivors);
        let naive = build_naive(free, &survivors);
        prop_assert!(p.edge_count() == fresh.edge_count(), "edge multiset differs");
        for &t in &probe_times(&events) {
            prop_assert!(p.avail_at(t) == naive.avail_at(t), "avail_at({}) diverged", t);
            let a = p.earliest_fit(procs, duration, t);
            let b = naive.earliest_fit(procs, duration, t);
            prop_assert!(a.to_bits() == b.to_bits(), "earliest_fit(.., {}) diverged", t);
        }
    }

    /// Whatever `earliest_fit` returns satisfies the demand over the whole
    /// requested interval (checked at the start and at every breakpoint
    /// inside it), and no earlier event time would have worked.
    #[test]
    fn earliest_fit_is_feasible_and_minimal(
        free in 8u32..64,
        events in arb_events(),
        procs in 1u32..8,
        duration in 1.0f64..5_000.0,
        not_before in 0.0f64..5_000.0,
    ) {
        let mut p = build(free, &events);
        let t = p.earliest_fit(procs, duration, not_before);
        prop_assert!(t.is_finite(), "demand below baseline free must always fit");
        prop_assert!(t >= not_before);

        // Feasibility over [t, t+duration).
        let check_times: Vec<f64> = std::iter::once(t)
            .chain((0..200).map(|i| t + duration * (i as f64 + 0.5) / 200.0))
            .collect();
        for &ct in &check_times {
            if ct < t + duration {
                prop_assert!(
                    p.avail_at(ct) >= procs as i64,
                    "availability {} < {} at {}",
                    p.avail_at(ct), procs, ct
                );
            }
        }

        // Minimality: starting exactly at `not_before` (if earlier than t)
        // must be infeasible somewhere in its window.
        if t > not_before + 1e-9 {
            let infeasible = (0..400).any(|i| {
                let ct = not_before + duration * i as f64 / 400.0;
                ct < not_before + duration && p.avail_at(ct) < procs as i64
            });
            prop_assert!(infeasible, "earliest_fit skipped a feasible earlier start");
        }
    }

    /// Availability never goes below `baseline − claimed` and releases only
    /// ever increase it.
    #[test]
    fn releases_are_monotone(
        free in 1u32..64,
        releases in proptest::collection::vec((0.0f64..10_000.0, 1u32..16), 0..20),
    ) {
        let mut p = AvailabilityProfile::new(0.0, free);
        for &(time, procs) in &releases {
            p.add_release(time, procs);
        }
        let mut times: Vec<f64> = releases.iter().map(|&(t, _)| t).collect();
        times.push(0.0);
        times.push(1e9);
        times.sort_by(f64::total_cmp);
        let mut prev = i64::MIN;
        for &t in &times {
            let a = p.avail_at(t);
            prop_assert!(a >= prev, "availability decreased without usage");
            prev = a;
        }
    }
}
