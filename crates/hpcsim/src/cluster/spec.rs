//! Cluster shape: named partitions with sizes and relative speed factors.

use serde::{Deserialize, Serialize, Value};

/// One partition of the cluster: a named pool of identical processors with
/// a relative speed factor.
///
/// Speed is relative to the trace's reference hardware: a job whose trace
/// runtime is `r` seconds executes in `r / speed` wall-clock seconds on
/// this partition (and its user estimate scales the same way — users
/// request wall-clock allocations on the machine they submit to).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PartitionSpec {
    /// Human-readable partition name (e.g. `"batch"`, `"express"`).
    pub name: String,
    /// Number of processors in this partition.
    pub procs: u32,
    /// Relative speed factor (1.0 = reference hardware).
    pub speed: f64,
}

impl PartitionSpec {
    /// A named partition with the given size and speed.
    pub fn new(name: impl Into<String>, procs: u32, speed: f64) -> Self {
        Self::checked(name.into(), procs, speed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The partition, or what makes it impossible.
    fn checked(name: String, procs: u32, speed: f64) -> Result<Self, String> {
        if procs == 0 {
            return Err("partition `procs` must be at least one processor, got 0".into());
        }
        if !(speed.is_finite() && speed > 0.0) {
            return Err(format!(
                "partition `speed` factor must be positive and finite, got {speed}"
            ));
        }
        Ok(Self { name, procs, speed })
    }
}

/// Spec files must meet [`PartitionSpec::new`]'s checks: a zero-processor
/// or zero-speed partition would otherwise drop or mis-time every job.
impl Deserialize for PartitionSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Self::checked(
            serde::field(v, "name")?,
            serde::field(v, "procs")?,
            serde::field(v, "speed")?,
        )
        .map_err(serde::Error::msg)
    }
}

/// The shape of a (possibly heterogeneous) cluster: an ordered list of
/// partitions. The single-partition, speed-1.0 spec is the degenerate case
/// that reproduces the homogeneous engine bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterSpec {
    parts: Vec<PartitionSpec>,
}

impl ClusterSpec {
    /// A cluster from an explicit partition list.
    pub fn new(parts: Vec<PartitionSpec>) -> Self {
        Self::checked(parts).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The cluster, or why it is impossible.
    fn checked(parts: Vec<PartitionSpec>) -> Result<Self, &'static str> {
        if parts.is_empty() {
            return Err("cluster `parts` must list at least one partition");
        }
        Ok(Self { parts })
    }

    /// The degenerate homogeneous spec: one partition, speed 1.0. A
    /// [`crate::Simulation`] built on this spec realizes bitwise-identical
    /// schedules to the flat engine (pinned by the equivalence suite).
    pub fn homogeneous(procs: u32) -> Self {
        Self::new(vec![PartitionSpec::new("main", procs, 1.0)])
    }

    /// Builds a spec from a workload-side [`swf::PartitionLayout`] list.
    pub fn from_layout(layout: &[swf::PartitionLayout]) -> Self {
        Self::new(
            layout
                .iter()
                .map(|p| PartitionSpec::new(p.name.clone(), p.procs, p.speed))
                .collect(),
        )
    }

    /// The partitions, in routing-preference order.
    pub fn partitions(&self) -> &[PartitionSpec] {
        &self.parts
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the spec holds no partitions (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Total processors across all partitions.
    pub fn total_procs(&self) -> u32 {
        self.parts.iter().map(|p| p.procs).sum()
    }

    /// The widest partition — the maximum routable job width.
    pub fn max_partition_procs(&self) -> u32 {
        self.parts.iter().map(|p| p.procs).max().unwrap_or(0)
    }

    /// Whether this is the degenerate homogeneous shape (one partition at
    /// reference speed).
    pub fn is_degenerate(&self) -> bool {
        self.parts.len() == 1 && self.parts[0].speed == 1.0
    }
}

/// Spec files must meet [`ClusterSpec::new`]'s check: an empty machine
/// would otherwise run a scenario that schedules no job.
impl Deserialize for ClusterSpec {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Self::checked(serde::field(v, "parts")?).map_err(serde::Error::msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_is_degenerate() {
        let s = ClusterSpec::homogeneous(128);
        assert!(s.is_degenerate());
        assert_eq!(s.total_procs(), 128);
        assert_eq!(s.max_partition_procs(), 128);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn totals_and_widest_across_partitions() {
        let s = ClusterSpec::new(vec![
            PartitionSpec::new("base", 96, 1.0),
            PartitionSpec::new("express", 32, 1.35),
        ]);
        assert!(!s.is_degenerate());
        assert_eq!(s.total_procs(), 128);
        assert_eq!(s.max_partition_procs(), 96);
    }

    #[test]
    fn from_layout_round_trips() {
        let layout = swf::split_cluster(256, 4);
        let s = ClusterSpec::from_layout(&layout);
        assert_eq!(s.len(), 4);
        assert_eq!(s.total_procs(), 256);
        for (a, b) in s.partitions().iter().zip(&layout) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.procs, b.procs);
            assert_eq!(a.speed, b.speed);
        }
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn empty_spec_panics() {
        let _ = ClusterSpec::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_speed_panics() {
        let _ = PartitionSpec::new("x", 4, 0.0);
    }
}
