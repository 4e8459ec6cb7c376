//! The four workloads and the harness that runs them.
//!
//! Each workload is a closed loop driven by this one process: the next
//! call starts when the previous one returns. A workload has three views
//! of the same work:
//!
//! * [`Workload::pass`] — the entry points a user calls (`rlbf::train`,
//!   `rlbf::run_spec_with_agent`, `hpcsim::scenario::run` / `execute`),
//!   timed with tracing off for the end-to-end metrics;
//! * [`Workload::mirror`] — the same work re-driven from finer public
//!   calls with spans around each, plus the kernel's `Recorder` counters.
//!   Run once untraced to count work and check outputs, and once traced
//!   for the per-layer numbers. Its outcome is compared bit for bit with
//!   the pass it re-drives;
//! * [`Workload::setup`] — what must exist before the first pass.

pub mod cluster;
pub mod deploy;
pub mod sched;
pub mod train;

use crate::checks::{bless, check_pins, Cell, Checks};
use crate::report::{Provenance, Row, WorkloadResult, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::Summary;
use hpcsim::prelude::*;
use hpcsim::Phase;
use std::collections::BTreeMap;
use std::time::Instant;
use swf::Trace;

/// The workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [train::NAME, deploy::NAME, sched::NAME, cluster::NAME];

/// Set-up runs per timed run, at least; cheap set-ups repeat until
/// [`SETUP_SECONDS`] have passed (at most [`SETUP_MAX_REPS`] times), so
/// `setup_s`, their median, is steady even when one set-up takes 100 µs.
const SETUP_REPS: usize = 5;
const SETUP_SECONDS: f64 = 0.25;
const SETUP_MAX_REPS: usize = 1000;

/// Timed passes per run, at least.
const MIN_PASSES: usize = 3;

/// What one run is asked to do.
pub struct Ctx {
    pub seed: u64,
    /// Seconds of timed passes (timed runs).
    pub seconds: f64,
    pub smoke: bool,
    /// Where a traced run writes its spans.
    pub spans: Option<String>,
}

impl Ctx {
    pub fn scale(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }

    /// Pins in `expected.json` apply at the default seed only.
    fn pinned(&self) -> bool {
        self.seed == bench::TRACE_SEED
    }
}

/// What a mirror run produced besides its cells.
pub struct Mirror {
    pub cells: Vec<Cell>,
    /// Work items of one pass (the unit of `throughput`).
    pub items: f64,
    /// Per-layer counts and ratios of this workload.
    pub rows: Vec<Row>,
    /// Kernel counters merged over every recorded cell, and the jobs
    /// those cells scheduled.
    pub telemetry: Telemetry,
    pub recorded_jobs: u64,
}

impl Mirror {
    fn new(items: f64) -> Mirror {
        Mirror {
            cells: Vec::new(),
            items,
            rows: Vec::new(),
            telemetry: Telemetry::default(),
            recorded_jobs: 0,
        }
    }

    pub fn row(&mut self, name: &str, unit: &str, value: f64) {
        self.rows
            .push(Row::layer(name, unit, Summary::exact(value)));
    }
}

pub trait Workload {
    type Input;
    /// Whatever the traced mirror hands to [`Workload::after_trace`].
    type Extra;

    /// Whether the cells' outcomes are pinned in `expected.json`
    /// (training is not: its float sums depend on the thread count).
    const PINNED: bool = true;

    fn setup(ctx: &Ctx, t: &mut Tracer) -> Self::Input;
    fn pass(ctx: &Ctx, input: &Self::Input) -> Vec<Cell>;
    fn mirror(ctx: &Ctx, input: &Self::Input, t: &mut Tracer) -> (Mirror, Self::Extra);
    /// Per-layer rows measured after the traced pass (outside its wall).
    fn after_trace(
        _ctx: &Ctx,
        _input: &Self::Input,
        _extra: Self::Extra,
        _t: &Tracer,
        _rows: &mut Vec<Row>,
    ) {
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Checks a mirror's cells: every-seed problems, and the pins.
fn check_mirror<W: Workload>(ctx: &Ctx, name: &str, m: &Mirror, checks: &mut Checks) {
    for c in &m.cells {
        checks.op(c.problems());
    }
    if W::PINNED && ctx.pinned() {
        if std::env::var_os("BENCHMARK_BLESS").is_some() {
            bless(ctx.scale(), name, &m.cells);
        } else {
            check_pins(ctx.scale(), name, &m.cells, true, checks);
        }
    }
}

/// Checks one pass's cells against the first pass and the mirror.
fn check_pass<W: Workload>(
    ctx: &Ctx,
    name: &str,
    cells: &[Cell],
    first: &mut Option<Vec<Cell>>,
    mirror: &[Cell],
    checks: &mut Checks,
) {
    match first {
        None => {
            for c in cells {
                checks.op(c.problems());
            }
            if W::PINNED && ctx.pinned() && std::env::var_os("BENCHMARK_BLESS").is_none() {
                check_pins(ctx.scale(), name, cells, false, checks);
            }
            checks.mirror_matches(name, mirror, cells);
            *first = Some(cells.to_vec());
        }
        Some(reference) => {
            for (c, r) in cells.iter().zip(reference.iter()) {
                let mut problems = c.problems();
                if !c.same_outcome(r) {
                    problems.push(format!(
                        "{name}/{}: outcome changed between passes",
                        c.label
                    ));
                }
                checks.op(problems);
            }
        }
    }
}

/// A timed run: set-up several times, one untraced mirror to count work
/// and check outputs, then passes until `ctx.seconds` have elapsed.
pub fn run_timed<W: Workload>(name: &str, ctx: &Ctx) -> WorkloadResult {
    let mut checks = Checks::default();
    let mut setup = Vec::new();
    let mut input = None;
    let start = Instant::now();
    while setup.len() < SETUP_REPS || (secs(start) < SETUP_SECONDS && setup.len() < SETUP_MAX_REPS)
    {
        drop(input.take());
        let t0 = Instant::now();
        input = Some(W::setup(ctx, &mut Tracer::off()));
        setup.push(secs(t0));
    }
    let input = input.expect("set up at least once");
    let (mirror, _) = W::mirror(ctx, &input, &mut Tracer::off());
    check_mirror::<W>(ctx, name, &mirror, &mut checks);

    let mut throughput = Vec::new();
    let mut first = None;
    let start = Instant::now();
    while throughput.len() < MIN_PASSES || secs(start) < ctx.seconds {
        let t0 = Instant::now();
        let cells = W::pass(ctx, &input);
        throughput.push(mirror.items / secs(t0));
        check_pass::<W>(ctx, name, &cells, &mut first, &mirror.cells, &mut checks);
    }
    let values = [
        Summary::of(&throughput),
        Summary::of(&setup),
        Summary::exact(peak_rss_mb()),
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, stats)| Row {
            name: m.name.into(),
            unit: m.unit.into(),
            better: Some(m.better().into()),
            bound: Some(m.bound),
            stats,
        })
        .collect();
    result(name, ctx, false, checks, end_to_end, mirror.rows)
}

/// A traced run: set-up and one mirror pass under spans, bracketing two
/// untraced passes that give the tracing overhead.
pub fn run_traced<W: Workload>(name: &str, ctx: &Ctx) -> WorkloadResult {
    let mut checks = Checks::default();
    let mut t = Tracer::new();
    let input = W::setup(ctx, &mut t);
    let setup_wall = t.now_ns();

    // The first pass warms caches; the second is the reference wall.
    let mut passes = Vec::new();
    let mut untraced = 0.0;
    for _ in 0..2 {
        let t0 = Instant::now();
        passes.push(W::pass(ctx, &input));
        untraced = secs(t0);
    }

    let m0 = t.now_ns();
    let (mut mirror, extra) = W::mirror(ctx, &input, &mut t);
    let traced = (t.now_ns() - m0) as f64 / 1e9;
    let wall = setup_wall as f64 / 1e9 + traced;
    check_mirror::<W>(ctx, name, &mirror, &mut checks);
    let mut first = None;
    for cells in &passes {
        check_pass::<W>(ctx, name, cells, &mut first, &mirror.cells, &mut checks);
    }

    let mut rows = vec![
        exact("trace.wall_s", "s", wall),
        exact("trace.coverage_pct", "%", 100.0 * t.covered_s() / wall),
        exact(
            "trace.overhead_pct",
            "%",
            100.0 * (traced - untraced) / untraced,
        ),
        exact(
            "trace.mirror_mismatches",
            "count",
            checks.mirror_mismatches as f64,
        ),
    ];
    rows.extend(layer_shares(&t, wall));
    rows.append(&mut mirror.rows);
    rows.extend(telemetry_rows(&mirror.telemetry, mirror.recorded_jobs));
    W::after_trace(ctx, &input, extra, &t, &mut rows);
    // Every per-layer metric is reported; a layer this workload never
    // calls reads 0.
    for (metric, unit) in PER_LAYER {
        if !rows.iter().any(|r| r.name == metric) {
            rows.push(exact(metric, unit, 0.0));
        }
    }
    rows.extend(call_rows(&t));
    rows.push(exact("trace.peak_rss_mb", "MB", peak_rss_mb()));
    if let Some(path) = &ctx.spans {
        write_spans(&t, path);
    }
    result(name, ctx, true, checks, Vec::new(), rows)
}

fn result(
    name: &str,
    ctx: &Ctx,
    traced: bool,
    checks: Checks,
    end_to_end: Vec<Row>,
    per_layer: Vec<Row>,
) -> WorkloadResult {
    WorkloadResult {
        workload: name.into(),
        traced,
        smoke: ctx.smoke,
        seed: ctx.seed,
        seconds: ctx.seconds,
        provenance: Provenance::collect(),
        correct: checks.failed == 0,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.failures,
        warnings: checks.warnings,
        end_to_end,
        per_layer,
    }
}

pub fn exact(name: &str, unit: &str, value: f64) -> Row {
    Row::layer(name, unit, Summary::exact(value))
}

/// The layer each span or kernel phase belongs to, for the shares.
fn layer_of(span: &str) -> &'static str {
    match span {
        s if s.starts_with("swf.") => "swf.share_pct",
        "rlbf.env_new" => "rlbf.env_new.share_pct",
        "rlbf.observe" => "rlbf.observe.share_pct",
        "rlbf.env_step" => "rlbf.env_step.share_pct",
        "rlbf.act_sample" | "rlbf.act_greedy" => "rlbf.act.share_pct",
        "rlbf.pretrain" => "rlbf.pretrain.share_pct",
        "ppo.buffer" => "ppo.buffer.share_pct",
        "ppo.update" => "ppo.update.share_pct",
        "hpcsim.execute" => "hpcsim.execute.share_pct",
        "hpcsim.arrival_batch" => "hpcsim.arrival_batch.share_pct",
        "hpcsim.backfill_scan" => "hpcsim.backfill_scan.share_pct",
        "hpcsim.conservative_pass" => "hpcsim.conservative_pass.share_pct",
        "hpcsim.reroute_pass" => "hpcsim.reroute_pass.share_pct",
        _ => "bench.share_pct",
    }
}

/// Each layer's wall-clock self time as a share of the traced wall.
fn layer_shares(t: &Tracer, wall: f64) -> Vec<Row> {
    let mut shares: BTreeMap<&str, f64> = BTreeMap::new();
    let mut rows = Vec::new();
    for (name, s) in t.layer_seconds() {
        *shares.entry(layer_of(name)).or_default() += 100.0 * s / wall;
        rows.push(exact(&format!("self_s.{name}"), "s", s));
    }
    let mut out: Vec<Row> = shares
        .into_iter()
        .map(|(name, pct)| exact(name, "%", pct))
        .collect();
    out.extend(rows);
    out
}

/// Per-call durations of every span name (µs), with their tail.
fn call_rows(t: &Tracer) -> Vec<Row> {
    let mut names: Vec<&str> = t.spans().iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            Row::layer(
                &format!("call_us.{name}"),
                "us",
                Summary::of(&t.durations_us(name)),
            )
        })
        .collect()
}

/// Work ratios from the kernel counters of every recorded cell.
fn telemetry_rows(tel: &Telemetry, jobs: u64) -> Vec<Row> {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let repairs: u64 = tel.plan_repairs.iter().map(|r| r.entries).sum();
    vec![
        exact("desim.events", "count", tel.events as f64),
        exact("desim.heap_depth_mean", "count", tel.heap_depth_mean()),
        exact(
            "hpcsim.backfill_attempts_per_job",
            "ratio",
            ratio(tel.backfill_attempts, jobs),
        ),
        exact(
            "hpcsim.backfill_hit_ratio",
            "ratio",
            ratio(tel.backfill_hits, tel.backfill_attempts),
        ),
        exact(
            "hpcsim.fit_calls_per_job",
            "ratio",
            ratio(tel.earliest_fit_calls, jobs),
        ),
        exact(
            "hpcsim.buckets_per_fit",
            "ratio",
            ratio(tel.earliest_fit_buckets_scanned, tel.earliest_fit_calls),
        ),
        exact(
            "hpcsim.edge_ops_per_job",
            "ratio",
            ratio(tel.profile_edge_inserts + tel.profile_edge_removes, jobs),
        ),
        exact(
            "hpcsim.repair_entries_per_job",
            "ratio",
            ratio(repairs, jobs),
        ),
        exact(
            "router.evals_per_job",
            "ratio",
            ratio(tel.router_candidate_evals, jobs),
        ),
        exact(
            "router.plan_reuse_ratio",
            "ratio",
            ratio(tel.router_plan_reuses, tel.router_candidate_evals),
        ),
        exact(
            "migration.candidates_per_job",
            "ratio",
            ratio(tel.migration_candidates, jobs),
        ),
        exact(
            "migration.accept_ratio",
            "ratio",
            ratio(tel.migrations_accepted, tel.migration_candidates),
        ),
        exact("platform.kills", "count", tel.platform_kills as f64),
    ]
}

/// Peak resident set size of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes the spans to `path` and a Chrome trace next to it.
fn write_spans(t: &Tracer, path: &str) {
    let chrome = format!("{}.chrome.json", path.trim_end_matches(".json"));
    for (p, v) in [(path.to_string(), t.to_json()), (chrome, t.chrome_json())] {
        let text = serde_json::to_string(&v).expect("spans serialize");
        match std::fs::write(&p, text) {
            Ok(()) => eprintln!("wrote {p}"),
            Err(e) => eprintln!("cannot write {p}: {e}"),
        }
    }
}

/// Runs one heuristic cell under a `Recorder`, folding the kernel's phase
/// spans into the enclosing span when tracing.
pub fn execute_recorded(
    t: &mut Tracer,
    label: String,
    trace: &Trace,
    spec: &ScenarioSpec,
    m: &mut Mirror,
) -> (Cell, ScheduleResult) {
    let (r, tel) = t.span("hpcsim.execute", |t| {
        let rec = if t.enabled() {
            Recorder::with_spans()
        } else {
            Recorder::default()
        };
        let (r, rec) =
            hpcsim::scenario::execute_recorded(trace, spec, rec).expect("heuristic spec runs");
        let mut phases: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in rec.spans() {
            let e = phases.entry(phase_name(s.phase)).or_default();
            e.0 += 1;
            e.1 += s.dur_us * 1000;
        }
        for (name, (count, ns)) in phases {
            t.add_phase(name, count, ns);
        }
        (r, rec.into_telemetry())
    });
    m.telemetry.merge(&tel);
    m.recorded_jobs += trace.len() as u64;
    (schedule_cell(label, trace.len(), &r, Some(tel)), r)
}

/// The cell of one heuristic run.
pub fn schedule_cell(
    label: String,
    jobs: usize,
    r: &ScheduleResult,
    tel: Option<Telemetry>,
) -> Cell {
    Cell {
        label,
        bsld: r.metrics.mean_bounded_slowdown,
        counts: vec![
            ("jobs", jobs as u64),
            ("completed", r.completed.len() as u64),
            ("dropped", r.dropped_jobs as u64),
            ("kills", r.kills as u64),
            ("resubmits", r.resubmits as u64),
            ("migrations", r.migrations as u64),
        ],
        telemetry: tel,
    }
}

fn phase_name(p: Phase) -> &'static str {
    match p {
        Phase::ArrivalBatch => "hpcsim.arrival_batch",
        Phase::ReroutePass => "hpcsim.reroute_pass",
        Phase::ConservativePass => "hpcsim.conservative_pass",
        Phase::BackfillScan => "hpcsim.backfill_scan",
    }
}
