//! Parser and writer for the Standard Workload Format (SWF).
//!
//! SWF is the trace format of the Parallel Workloads Archive (Feitelson,
//! Tsafrir & Krakov 2014): header comment lines start with `;` (the header
//! carries metadata such as `MaxProcs`), and each data line holds 18
//! whitespace-separated integer fields, with `-1` denoting "unknown".
//!
//! The reproduction environment cannot ship the archive traces, but this
//! parser lets the library consume the real SDSC-SP2/HPC2N files verbatim if
//! a user supplies them (see `TracePreset` docs for the synthetic stand-ins).

use crate::job::Job;
use crate::trace::Trace;
use std::io::{BufRead, Write};

/// One raw SWF record with all 18 standard fields.
///
/// Field semantics follow the SWF specification; `-1` means missing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwfRecord {
    pub job_number: i64,
    pub submit_time: f64,
    pub wait_time: f64,
    pub run_time: f64,
    pub allocated_procs: i64,
    pub avg_cpu_time: f64,
    pub used_memory: i64,
    pub requested_procs: i64,
    pub requested_time: f64,
    pub requested_memory: i64,
    pub status: i64,
    pub user_id: i64,
    pub group_id: i64,
    pub executable: i64,
    pub queue: i64,
    pub partition: i64,
    pub preceding_job: i64,
    pub think_time: f64,
}

impl SwfRecord {
    /// Converts the raw record into the simulation [`Job`] model, resolving
    /// `-1` fields the way archive consumers conventionally do: requested
    /// processors fall back to allocated processors, and the requested time
    /// falls back to the actual runtime.
    ///
    /// Returns `None` for records that cannot be simulated (no processor
    /// count at all, one too wide for `u32`, or a cancelled job that never
    /// ran and has no runtime).
    pub fn to_job(&self) -> Option<Job> {
        let procs = if self.requested_procs > 0 {
            self.requested_procs
        } else if self.allocated_procs > 0 {
            self.allocated_procs
        } else {
            return None;
        };
        let procs = u32::try_from(procs).ok()?;
        let runtime = if self.run_time > 0.0 {
            self.run_time
        } else if self.requested_time > 0.0 {
            // Jobs with unknown runtime but a known request: treat as
            // running to a fraction of their request (archive convention is
            // to drop them; we keep a conservative 1-second floor via
            // Job::new only when the request is also missing).
            return None;
        } else {
            return None;
        };
        let request_time = if self.requested_time > 0.0 {
            self.requested_time
        } else {
            runtime
        };
        Some(Job::new(
            self.job_number.max(0) as usize,
            self.submit_time.max(0.0),
            procs,
            request_time,
            runtime,
        ))
    }
}

/// Errors produced while parsing an SWF stream.
#[derive(Debug)]
pub enum SwfError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A data line had fewer than 18 fields or a non-numeric field.
    Malformed { line: usize, reason: String },
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfError::Io(e) => write!(f, "swf io error: {e}"),
            SwfError::Malformed { line, reason } => {
                write!(f, "malformed swf line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for SwfError {}

impl From<std::io::Error> for SwfError {
    fn from(e: std::io::Error) -> Self {
        SwfError::Io(e)
    }
}

/// Result of parsing an SWF stream: the records plus header metadata.
#[derive(Debug, Clone)]
pub struct SwfFile {
    /// Records in file order.
    pub records: Vec<SwfRecord>,
    /// `MaxProcs` from the header, if present.
    pub max_procs: Option<u32>,
    /// `MaxNodes` from the header, if present.
    pub max_nodes: Option<u32>,
    /// Raw header comment lines (without the leading `;`).
    pub header: Vec<String>,
}

impl SwfFile {
    /// Converts the parsed file into a [`Trace`]. The cluster size is taken
    /// from the `MaxProcs` header (falling back to `MaxNodes`, then to the
    /// largest job in the trace).
    pub fn into_trace(self, name: impl Into<String>) -> Trace {
        let jobs: Vec<Job> = self.records.iter().filter_map(SwfRecord::to_job).collect();
        let cluster = self
            .max_procs
            .or(self.max_nodes)
            .or_else(|| jobs.iter().map(|j| j.procs).max())
            .unwrap_or(1);
        Trace::new(name, cluster, jobs)
    }
}

fn parse_field(tok: &str, line: usize, what: &str) -> Result<f64, SwfError> {
    let v = tok.parse::<f64>().map_err(|_| SwfError::Malformed {
        line,
        reason: format!("field `{what}` is not numeric: {tok:?}"),
    })?;
    // `"nan".parse::<f64>()` succeeds, and a NaN submit time would only
    // blow up much later (the trace sorts arrivals by submit time) with
    // no pointer back to the offending record — reject it here instead.
    if !v.is_finite() {
        return Err(SwfError::Malformed {
            line,
            reason: format!("field `{what}` is not finite: {tok:?}"),
        });
    }
    Ok(v)
}

/// A positive `key: value` header count. Zero counts as absent, so a
/// `MaxProcs: 0` header falls back like a missing one instead of sizing
/// an empty cluster.
fn header_value(line: &str, key: &str) -> Option<u32> {
    let rest = line
        .trim()
        .strip_prefix(key)?
        .trim_start_matches(':')
        .trim();
    rest.split_whitespace()
        .next()?
        .parse()
        .ok()
        .filter(|&n| n > 0)
}

/// Parses an SWF stream.
pub fn parse_swf<R: BufRead>(reader: R) -> Result<SwfFile, SwfError> {
    let mut records = Vec::new();
    let mut header = Vec::new();
    let mut max_procs = None;
    let mut max_nodes = None;

    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix(';') {
            let comment = comment.trim();
            if max_procs.is_none() {
                max_procs = header_value(comment, "MaxProcs");
            }
            if max_nodes.is_none() {
                max_nodes = header_value(comment, "MaxNodes");
            }
            header.push(comment.to_string());
            continue;
        }
        let toks: Vec<&str> = trimmed.split_whitespace().collect();
        if toks.len() < 18 {
            return Err(SwfError::Malformed {
                line: lineno,
                reason: format!("expected 18 fields, found {}", toks.len()),
            });
        }
        let f = |i: usize, what: &str| parse_field(toks[i], lineno, what);
        records.push(SwfRecord {
            job_number: f(0, "job_number")? as i64,
            submit_time: f(1, "submit_time")?,
            wait_time: f(2, "wait_time")?,
            run_time: f(3, "run_time")?,
            allocated_procs: f(4, "allocated_procs")? as i64,
            avg_cpu_time: f(5, "avg_cpu_time")?,
            used_memory: f(6, "used_memory")? as i64,
            requested_procs: f(7, "requested_procs")? as i64,
            requested_time: f(8, "requested_time")?,
            requested_memory: f(9, "requested_memory")? as i64,
            status: f(10, "status")? as i64,
            user_id: f(11, "user_id")? as i64,
            group_id: f(12, "group_id")? as i64,
            executable: f(13, "executable")? as i64,
            queue: f(14, "queue")? as i64,
            partition: f(15, "partition")? as i64,
            preceding_job: f(16, "preceding_job")? as i64,
            think_time: f(17, "think_time")?,
        });
    }

    Ok(SwfFile {
        records,
        max_procs,
        max_nodes,
        header,
    })
}

/// Parses an SWF file from disk.
pub fn parse_swf_file(path: impl AsRef<std::path::Path>) -> Result<SwfFile, SwfError> {
    let file = std::fs::File::open(path)?;
    parse_swf(std::io::BufReader::new(file))
}

/// Writes a trace as a minimal-but-valid SWF stream (all 18 fields; fields
/// the [`Job`] model does not carry are emitted as `-1`).
pub fn write_swf<W: Write>(trace: &Trace, mut w: W) -> std::io::Result<()> {
    writeln!(w, "; MaxProcs: {}", trace.cluster_procs())?;
    writeln!(w, "; Generated by the rlbackfilling `swf` crate")?;
    for j in trace.jobs() {
        writeln!(
            w,
            "{} {} -1 {} {} -1 -1 {} {} -1 1 -1 -1 -1 -1 -1 -1 -1",
            j.id, j.submit, j.runtime, j.procs, j.procs, j.request_time
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const SAMPLE: &str = "\
; Version: 2.2
; MaxProcs: 128
; MaxNodes: 64
1 0 5 100 4 -1 -1 4 300 -1 1 7 1 -1 1 -1 -1 -1
2 60 0 50 8 -1 -1 -1 -1 -1 1 7 1 -1 1 -1 -1 -1
3 120 0 -1 -1 -1 -1 -1 -1 -1 5 7 1 -1 1 -1 -1 -1
";

    #[test]
    fn parses_header_metadata() {
        let f = parse_swf(Cursor::new(SAMPLE)).unwrap();
        assert_eq!(f.max_procs, Some(128));
        assert_eq!(f.max_nodes, Some(64));
        assert_eq!(f.records.len(), 3);
    }

    #[test]
    fn record_to_job_resolves_missing_fields() {
        let f = parse_swf(Cursor::new(SAMPLE)).unwrap();
        let j1 = f.records[0].to_job().unwrap();
        assert_eq!((j1.procs, j1.request_time, j1.runtime), (4, 300.0, 100.0));
        // Record 2: requested procs/time missing -> fall back to allocated/runtime.
        let j2 = f.records[1].to_job().unwrap();
        assert_eq!((j2.procs, j2.request_time, j2.runtime), (8, 50.0, 50.0));
        // Record 3: nothing usable -> skipped.
        assert!(f.records[2].to_job().is_none());
    }

    #[test]
    fn into_trace_uses_max_procs() {
        let f = parse_swf(Cursor::new(SAMPLE)).unwrap();
        let t = f.into_trace("sample");
        assert_eq!(t.cluster_procs(), 128);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn zero_header_counts_fall_back_to_the_widest_job() {
        let zeros = SAMPLE
            .replace("MaxProcs: 128", "MaxProcs: 0")
            .replace("MaxNodes: 64", "MaxNodes: 0");
        let f = parse_swf(Cursor::new(zeros)).unwrap();
        assert_eq!((f.max_procs, f.max_nodes), (None, None));
        assert_eq!(f.into_trace("zeros").cluster_procs(), 8);
    }

    #[test]
    fn processor_counts_beyond_u32_drop_the_record() {
        let wide = "1 0 5 100 4294967297 -1 -1 4294967297 300 -1 1 7 1 -1 1 -1 -1 -1\n";
        let f = parse_swf(Cursor::new(wide)).unwrap();
        assert!(f.records[0].to_job().is_none());
    }

    #[test]
    fn short_line_is_an_error() {
        let err = parse_swf(Cursor::new("1 2 3\n")).unwrap_err();
        assert!(matches!(err, SwfError::Malformed { line: 1, .. }));
    }

    #[test]
    fn non_numeric_field_is_an_error() {
        let bad = "1 0 5 100 4 -1 -1 4 oops -1 1 7 1 -1 1 -1 -1 -1\n";
        let err = parse_swf(Cursor::new(bad)).unwrap_err();
        assert!(err.to_string().contains("requested_time"));
    }

    #[test]
    fn non_finite_field_is_an_error_with_line_number() {
        // Rust's f64 parser accepts "nan"/"inf"; without the finite check
        // this record parsed fine and the NaN submit time panicked the
        // trace's arrival sort long after the file was read.
        let bad = "; MaxProcs: 16\n1 0 5 100 4 -1 -1 4 300 -1 1 7 1 -1 1 -1 -1 -1\n2 nan 0 50 8 -1 -1 -1 -1 -1 1 7 1 -1 1 -1 -1 -1\n";
        let err = parse_swf(Cursor::new(bad)).unwrap_err();
        assert!(matches!(&err, SwfError::Malformed { line: 3, .. }), "{err}");
        assert!(err.to_string().contains("submit_time"));
        assert!(err.to_string().contains("not finite"));
        let inf = "1 inf 5 100 4 -1 -1 4 300 -1 1 7 1 -1 1 -1 -1 -1\n";
        assert!(parse_swf(Cursor::new(inf)).is_err());
    }

    #[test]
    fn write_then_parse_round_trips_jobs() {
        use crate::job::Job;
        let t = Trace::new(
            "rt",
            32,
            vec![
                Job::new(0, 0.0, 4, 200.0, 100.0),
                Job::new(1, 30.0, 8, 500.0, 400.0),
            ],
        );
        let mut buf = Vec::new();
        write_swf(&t, &mut buf).unwrap();
        let t2 = parse_swf(Cursor::new(buf)).unwrap().into_trace("rt");
        assert_eq!(t2.cluster_procs(), 32);
        assert_eq!(t2.jobs(), t.jobs());
    }
}
