//! Schedule timelines: utilization over time and text Gantt rendering.
//!
//! Backfilling quality is visible in the *shape* of utilization (EASY fills
//! the troughs in front of wide reserved jobs); this module turns a
//! realized schedule into that shape — used by the examples, by
//! EXPERIMENTS.md narratives, and for eyeballing schedules in tests.

use crate::state::CompletedJob;

/// One sample of cluster usage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationSample {
    /// Sample time, seconds.
    pub time: f64,
    /// Processors busy at `time`.
    pub busy: u32,
}

/// Samples processor usage over the schedule's makespan at `samples`
/// equally spaced instants (piecewise-exact: occupancy is evaluated at
/// each instant, not averaged).
pub fn utilization_timeline(completed: &[CompletedJob], samples: usize) -> Vec<UtilizationSample> {
    window_timeline(
        completed.iter().map(|c| (c.start, c.end(), c.job.procs)),
        samples,
    )
}

/// Samples the processor usage of `(start, end, procs)` execution windows
/// at `samples` equally spaced instants (the midpoints of `samples` equal
/// slices of the windows' span) — the sweep behind
/// [`utilization_timeline`] and the audit log's per-partition curves.
///
/// Implemented as a single sweep over time-sorted start/end edges merged
/// with the sorted sample instants — `O((n + samples) log n)` instead of
/// the seed's `O(n × samples)` rescan, which dominated figure generation
/// on 10K-job schedules.
pub fn window_timeline(
    windows: impl Iterator<Item = (f64, f64, u32)>,
    samples: usize,
) -> Vec<UtilizationSample> {
    if samples == 0 {
        return Vec::new();
    }
    // A window occupies `procs` on [start, end): at sample instant t it
    // counts iff start <= t && t < end, i.e. apply +procs edges with
    // time <= t and -procs edges with time <= t.
    let mut start = f64::INFINITY;
    let mut end = 0.0f64;
    let mut edges: Vec<(f64, i64)> = Vec::with_capacity(2 * windows.size_hint().0);
    for (s, e, procs) in windows {
        start = start.min(s);
        end = end.max(e);
        edges.push((s, procs as i64));
        edges.push((e, -(procs as i64)));
    }
    if edges.is_empty() {
        return Vec::new();
    }
    let span = (end - start).max(1e-9);
    edges.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut busy = 0i64;
    let mut next_edge = 0;
    (0..samples)
        .map(|i| {
            let t = start + span * (i as f64 + 0.5) / samples as f64;
            while edges.get(next_edge).is_some_and(|&(et, _)| et <= t) {
                busy += edges[next_edge].1;
                next_edge += 1;
            }
            debug_assert!(busy >= 0, "negative occupancy at t={t}");
            UtilizationSample {
                time: t,
                busy: busy as u32,
            }
        })
        .collect()
}

/// Fraction of capacity busy, averaged over the sampled timeline.
pub fn mean_sampled_utilization(completed: &[CompletedJob], cluster: u32, samples: usize) -> f64 {
    let tl = utilization_timeline(completed, samples);
    if tl.is_empty() {
        return 0.0;
    }
    tl.iter().map(|s| s.busy as f64).sum::<f64>() / (cluster as f64 * tl.len() as f64)
}

/// Renders the utilization timeline as a fixed-width ASCII sparkline
/// (8 levels). Handy in examples and debugging sessions.
pub fn utilization_sparkline(completed: &[CompletedJob], cluster: u32, width: usize) -> String {
    const LEVELS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    utilization_timeline(completed, width)
        .iter()
        .map(|s| {
            let frac = (s.busy as f64 / cluster as f64).clamp(0.0, 1.0);
            LEVELS[(frac * 8.0).round() as usize]
        })
        .collect()
}

/// A text Gantt chart: one row per job (capped), `#` spans its execution.
/// Rows are sorted by start time. Intended for small schedules in examples
/// and failing-test output.
pub fn gantt(completed: &[CompletedJob], width: usize, max_rows: usize) -> String {
    if completed.is_empty() || width == 0 {
        return String::new();
    }
    let start = completed
        .iter()
        .map(|c| c.start)
        .fold(f64::INFINITY, f64::min);
    let end = completed.iter().map(|c| c.end()).fold(0.0f64, f64::max);
    let span = (end - start).max(1e-9);
    let mut rows: Vec<&CompletedJob> = completed.iter().collect();
    rows.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.job.id.cmp(&b.job.id)));
    let mut out = String::new();
    for c in rows.into_iter().take(max_rows) {
        let from = (((c.start - start) / span) * width as f64).floor() as usize;
        let to = ((((c.end()) - start) / span) * width as f64).ceil() as usize;
        let from = from.min(width.saturating_sub(1));
        let to = to.clamp(from + 1, width);
        let mut line = vec![b'.'; width];
        for cell in &mut line[from..to] {
            *cell = b'#';
        }
        out.push_str(&format!(
            "job {:>4} x{:<3} |{}|\n",
            c.job.id,
            c.job.procs,
            String::from_utf8_lossy(&line)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use crate::runner::{run_scheduler, Backfill};
    use swf::{Job, Trace};

    fn schedule() -> Vec<CompletedJob> {
        let t = Trace::new(
            "t",
            4,
            vec![
                Job::new(0, 0.0, 4, 100.0, 100.0),
                Job::new(1, 0.0, 2, 100.0, 100.0),
                Job::new(2, 0.0, 2, 100.0, 100.0),
            ],
        );
        run_scheduler(&t, Policy::Fcfs, Backfill::None).completed
    }

    #[test]
    fn timeline_reflects_occupancy() {
        // Job 0 (4p) runs [0,100), jobs 1+2 (2p each) run [100,200).
        let completed = schedule();
        let tl = utilization_timeline(&completed, 10);
        assert_eq!(tl.len(), 10);
        for s in &tl {
            assert_eq!(s.busy, 4, "fully busy at t={}", s.time);
        }
    }

    #[test]
    fn empty_schedule_yields_empty_timeline() {
        assert!(utilization_timeline(&[], 10).is_empty());
        assert_eq!(mean_sampled_utilization(&[], 4, 10), 0.0);
        assert_eq!(gantt(&[], 40, 10), "");
    }

    #[test]
    fn mean_sampled_utilization_matches_known_schedule() {
        let completed = schedule();
        let u = mean_sampled_utilization(&completed, 4, 1000);
        assert!((u - 1.0).abs() < 1e-9, "util {u}");
    }

    #[test]
    fn sparkline_has_requested_width_and_levels() {
        let completed = schedule();
        let s = utilization_sparkline(&completed, 4, 24);
        assert_eq!(s.chars().count(), 24);
        assert!(s.chars().all(|c| c == '█'), "fully busy schedule: {s}");
    }

    #[test]
    fn gantt_rows_are_sorted_and_bounded() {
        let completed = schedule();
        let g = gantt(&completed, 20, 2);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 2, "row cap respected");
        assert!(lines[0].contains("job    0"));
        assert!(lines[0].contains('#'));
    }

    #[test]
    fn sweep_matches_brute_force_rescan() {
        // The sweep must agree with the seed's direct per-sample filter on
        // an irregular schedule (overlaps, ties, gaps).
        let t = Trace::new(
            "b",
            16,
            (0..120)
                .map(|i| {
                    Job::new(
                        i,
                        (i as f64 * 37.0) % 500.0,
                        1 + (i as u32 * 7) % 9,
                        10.0 + (i as f64 * 13.0) % 400.0,
                        10.0 + (i as f64 * 13.0) % 400.0,
                    )
                })
                .collect(),
        );
        let completed = run_scheduler(
            &t,
            Policy::Fcfs,
            Backfill::Easy(crate::RuntimeEstimator::RequestTime),
        )
        .completed;
        let tl = utilization_timeline(&completed, 257);
        for s in &tl {
            let brute: u32 = completed
                .iter()
                .filter(|c| c.start <= s.time && s.time < c.end())
                .map(|c| c.job.procs)
                .sum();
            assert_eq!(s.busy, brute, "at t={}", s.time);
        }
    }

    #[test]
    fn gantt_span_marks_execution_window() {
        // A single job occupying the first half of the span.
        let completed = vec![
            CompletedJob {
                job: Job::new(0, 0.0, 1, 50.0, 50.0),
                start: 0.0,
            },
            CompletedJob {
                job: Job::new(1, 0.0, 1, 50.0, 50.0),
                start: 50.0,
            },
        ];
        let g = gantt(&completed, 10, 10);
        let first = g.lines().next().unwrap();
        let bar: String = first.chars().skip_while(|&c| c != '|').collect();
        assert!(bar.starts_with("|#####"), "bar was {bar}");
        assert!(bar.contains('.'), "second half must be idle");
    }
}
