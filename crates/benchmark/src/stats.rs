//! Sample statistics for timings, and the verdict rule of `--compare`.

use serde::{Deserialize, Serialize};

/// Order statistics of one metric's samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    pub median: f64,
    /// First and third quartiles, by the method of Python's
    /// `statistics.quantiles(values, n=4)` (the "exclusive" method), so a
    /// spread computed here matches one computed from the raw values.
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    /// The highest of p90/p99/p99.9 that has at least ten samples beyond
    /// it, as `[percentile, value]`; `None` below twenty samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `samples`, which must not be empty.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&s);
        Summary {
            n: s.len(),
            median,
            q1,
            q3,
            min: s[0],
            max: s[s.len() - 1],
            tail: tail_percentile(s.len()).map(|p| (p as f64 / 10.0, percentile(&s, p))),
        }
    }

    /// A single exact value (a deterministic count).
    pub fn exact(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// Interquartile range as a share of the median.
    pub fn rel_spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Quartiles of sorted data, Python `statistics.quantiles(n=4)` style:
/// linear interpolation at positions `i·(n+1)/4`, clamped to the data.
fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Nearest rank of the percentile `permille / 10` among `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The highest reported percentile (in ‰: p90, p99, p99.9) with at least
/// ten samples beyond it.
fn tail_percentile(n: usize) -> Option<usize> {
    [999, 990, 900].into_iter().find(|&p| n - rank(n, p) >= 10)
}

/// Nearest-rank percentile of sorted data.
fn percentile(sorted: &[f64], permille: usize) -> f64 {
    sorted[rank(sorted.len(), permille) - 1]
}

/// The outcome of comparing one metric between a baseline and a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The run-to-run spread of either side exceeds the metric's bound, so
    /// a difference of the size the bound guards cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges candidate `b` against baseline `a`: worse when `b`'s median is
/// worse by more than `bound` (a share of `a`'s median); better when it is
/// better by more than the larger relative spread of the two sides;
/// unresolved when either spread exceeds the bound, unless the two sides'
/// samples do not overlap at all.
pub fn verdict(a: &Summary, b: &Summary, higher_is_better: bool, bound: f64) -> Verdict {
    let gain = relative_gain(a.median, b.median, higher_is_better);
    // Every sample of one side beats every sample of the other.
    let separated = b.min > a.max || b.max < a.min;
    let spread = a.rel_spread().max(b.rel_spread());
    if spread > bound && !separated {
        Verdict::Unresolved
    } else if gain < -bound {
        Verdict::Worse
    } else if gain > spread {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// How much better `b` is than `a`, as a share of `a` (negative = worse).
pub fn relative_gain(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let d = (b - a) / a.abs();
    if higher_is_better {
        d
    } else {
        -d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[4.0, 2.0, 1.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        assert_eq!((s.min, s.max, s.n), (1.0, 4.0, 4));
        let one = Summary::exact(7.0);
        assert_eq!(
            (one.q1, one.median, one.q3, one.rel_spread()),
            (7.0, 7.0, 7.0, 0.0)
        );
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(999), Some(900));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
        let s = Summary::of(&(1..=1000).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.tail, Some((99.0, 990.0)));
        assert_eq!(Summary::of(&[1.0; 5]).tail, None);
    }

    fn around(median: f64, spread: f64) -> Summary {
        Summary::of(&[
            median * (1.0 - spread),
            median * (1.0 - spread / 2.0),
            median,
            median * (1.0 + spread / 2.0),
            median * (1.0 + spread),
        ])
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = around(100.0, 0.02);
        // Throughput (higher is better).
        assert_eq!(
            verdict(&base, &around(130.0, 0.02), true, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &around(80.0, 0.02), true, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &around(95.0, 0.02), true, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &around(101.0, 0.02), true, 0.1),
            Verdict::Unchanged
        );
        // A time (lower is better): the same numbers flip.
        assert_eq!(
            verdict(&base, &around(80.0, 0.02), false, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &around(130.0, 0.02), false, 0.1),
            Verdict::Worse
        );
        // Spread wider than the bound: unresolved, even for a large move...
        let noisy = around(100.0, 0.5);
        assert_eq!(verdict(&base, &noisy, true, 0.1), Verdict::Unresolved);
        assert_eq!(
            verdict(&noisy, &around(85.0, 0.5), true, 0.1),
            Verdict::Unresolved
        );
        // ...unless the two sides do not overlap at all.
        assert_eq!(
            verdict(&noisy, &around(400.0, 0.5), true, 0.1),
            Verdict::Better
        );
    }
}
