//! The repository's benchmark: four workloads of the RLBackfilling
//! pipeline, their end-to-end metrics, and a traced run that splits each
//! workload's wall time by layer. See `README.md` for the metrics, the
//! workloads and why each exists.
//!
//! ```text
//! cargo run --release --manifest-path crates/benchmark/Cargo.toml -- \
//!     --workload <train|deploy|sched-1m|cluster-4p|all> [--seed N] [--seconds S]
//!     [--trace 0|1] [--out FILE] [--spans FILE] [--smoke]
//! cargo run --release --manifest-path crates/benchmark/Cargo.toml -- --compare A.json B.json
//! ```
//!
//! The last line on stdout is `{"correct", "attempted", "failed",
//! "metrics"}`; a human-readable table goes to stderr. The run exits 1 when
//! an output check fails, 2 on a usage error.

mod checks;
mod report;
mod spans;
mod stats;
mod workloads;

use report::WorkloadResult;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use workloads::{cluster, deploy, run_timed, run_traced, sched, train, Ctx, Workload, NAMES};

const USAGE: &str = "usage: benchmark --workload <train|deploy|sched-1m|cluster-4p|all> \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spans FILE] [--smoke]\n       \
benchmark --compare A.json B.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    /// Seconds of timed passes: the run length every benchmark run is
    /// given (`run_seconds` in `BENCHMARK.json`). Defaults to 20, or 0 at
    /// the smoke scale and when re-pinning `expected.json`.
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: bench::TRACE_SEED,
        seconds: None,
        trace: false,
        out: None,
        spans: None,
        smoke: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--out" => a.out = Some(value()?),
            "--spans" => a.spans = Some(value()?),
            "--smoke" => a.smoke = true,
            "--compare" => {
                let first = value()?;
                a.compare = Some((first, value()?));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workload.is_none() && a.compare.is_none() {
        return Err("--workload or --compare is required".into());
    }
    Ok(a)
}

fn run<W: Workload>(name: &str, ctx: &Ctx, traced: bool) -> WorkloadResult {
    if traced {
        run_traced::<W>(name, ctx)
    } else {
        run_timed::<W>(name, ctx)
    }
}

fn run_one(name: &str, args: &Args) -> Result<WorkloadResult, String> {
    let quick = args.smoke || std::env::var_os("BENCHMARK_BLESS").is_some();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if quick { 0.0 } else { 20.0 }),
        smoke: args.smoke,
        spans: args.spans.clone(),
    };
    Ok(match name {
        train::NAME => run::<train::Train>(name, &ctx, args.trace),
        deploy::NAME => run::<deploy::Deploy>(name, &ctx, args.trace),
        sched::NAME => run::<sched::Sched>(name, &ctx, args.trace),
        cluster::NAME => run::<cluster::Cluster>(name, &ctx, args.trace),
        other => {
            return Err(format!(
                "unknown workload {other:?} (one of {NAMES:?} or all)"
            ))
        }
    })
}

fn write_results(path: &str, results: &[WorkloadResult]) -> Result<(), String> {
    let json = serde_json::to_string_pretty(&results.to_vec()).expect("results serialize");
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))
}

fn read_results(path: &str) -> Result<Vec<WorkloadResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs every workload in a child process of its own, one after another,
/// so each reports its own peak RSS; merges their `--out` results.
fn run_all(raw: &[String], args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    let mut ok = true;
    for name in NAMES {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--workload" | "--out" | "--spans" => {
                    it.next();
                }
                _ => child_args.push(a.clone()),
            }
        }
        child_args.extend(["--workload".into(), name.into()]);
        let part = args.out.as_ref().map(|o| format!("{o}.{name}.part"));
        if let Some(p) = &part {
            child_args.extend(["--out".into(), p.clone()]);
        }
        if let Some(s) = &args.spans {
            let stem = s.trim_end_matches(".json");
            child_args.extend(["--spans".into(), format!("{stem}-{name}.json")]);
        }
        let mut child = Command::new(&exe)
            .args(&child_args)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        for line in BufReader::new(stdout).lines() {
            println!("{}", line.map_err(|e| e.to_string())?);
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        ok &= status.success();
        if let Some(p) = part {
            results.extend(read_results(&p)?);
            std::fs::remove_file(&p).map_err(|e| format!("cannot remove {p}: {e}"))?;
        }
    }
    if let Some(out) = &args.out {
        write_results(out, &results)?;
    }
    Ok(ok)
}

/// Restricts this thread — and every thread and child process it starts
/// later — to the first CPU it may run on, so rayon sees one thread.
///
/// On a 2-vCPU Xeon virtual machine on a shared host, eight seeds of
/// `train` and of `deploy`, run alternately pinned and not, spread 26% and
/// 22% unpinned (interquartile range over the median) but 12% and 7%
/// pinned: whichever vCPU the host slows down sets the pace of every
/// rayon join. Parallel scaling is therefore not measured.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    let mut mask = [0u8; 128];
    // SAFETY: pid 0 is the calling thread; the kernel writes at most
    // `mask.len()` bytes into the buffer, which lives for the call.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return;
    }
    let Some(first) = (0..mask.len() * 8).find(|&cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0) else {
        return;
    };
    let mut one = [0u8; 128];
    one[first / 8] = 1 << (first % 8);
    // SAFETY: as above; the kernel only reads `one.len()` bytes.
    if unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) } != 0 {
        eprintln!("warning: cannot pin to CPU {first}; timings will use every CPU");
    }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() {}

fn main() -> ExitCode {
    pin_to_one_cpu();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        read_results(a)
            .and_then(|a| Ok((a, read_results(b)?)))
            .map(|(a, b)| {
                print!("{}", report::compare(&a, &b));
                true
            })
    } else if args.workload.as_deref() == Some("all") {
        run_all(&raw, &args)
    } else {
        let name = args.workload.as_deref().expect("parse requires a workload");
        run_one(name, &args).and_then(|r| {
            r.print();
            if let Some(out) = &args.out {
                write_results(out, std::slice::from_ref(&r))?;
            }
            println!("{}", r.result_line());
            Ok(r.correct)
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
