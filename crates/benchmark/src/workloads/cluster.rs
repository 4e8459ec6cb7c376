//! `cluster-4p`: the router / migration / plan-cache path of a
//! 4-partition machine under decision-point re-routing, where removals
//! and re-insertions dominate instead of appends.
//!
//! Input: the canonical 4-partition Lublin-1 trace (10 000 jobs generated
//! from `bench::TRACE_SEED`, less those wider than the widest partition)
//! on `Platform::from_layout(.., router).rerouted(AtDecisionPoints { 3
//! moves, 60 s gain })`. Cells: {EASY, CONS} × {least-loaded,
//! earliest-start}, plus CONS / least-loaded under `failure_sweep`'s
//! failure process (mtbf 20 000 s, repair 5 000 s, 48 processors,
//! kill-resubmit) seeded from `--seed`.
//!
//! The failure process is the only input `--seed` changes. Near
//! saturation the re-route pass's cost is chaotic in the arrival
//! sequence: a fresh trace per seed spread this workload's throughput
//! over 5×, a 9 000-job window shifted by up to 1 000 jobs over 30%, and
//! a rotation of the same trace over 2×. One item of `throughput` is one
//! job scheduled.

use super::{execute_recorded, schedule_cell, Ctx, Mirror, Workload};
use crate::checks::Cell;
use crate::spans::Tracer;
use hpcsim::prelude::*;
use swf::{Trace, TracePreset, TraceSource};

pub const NAME: &str = "cluster-4p";

const DECISION_POINTS: ReroutePolicy = ReroutePolicy::AtDecisionPoints {
    max_moves_per_job: 3,
    min_gain_secs: 60.0,
};

pub struct Cluster;

pub struct Input {
    trace: Trace,
    cells: Vec<(String, ScenarioSpec)>,
}

impl Workload for Cluster {
    type Input = Input;
    type Extra = ();

    fn setup(ctx: &Ctx, t: &mut Tracer) -> Input {
        let source = TraceSource::PartitionedPreset {
            preset: TracePreset::Lublin1,
            parts: 4,
            jobs: if ctx.smoke { 1_000 } else { 10_000 },
            seed: bench::TRACE_SEED,
        };
        let layout = source.layout().expect("partitioned sources carry layouts");
        let trace = t.span("swf.materialize", |_| {
            source
                .materialize()
                .expect("partitioned sources materialize")
        });
        // Failures cover the whole arrival window, as in `failure_sweep`.
        let until = trace.jobs().iter().map(|j| j.submit).fold(0.0, f64::max);
        let failures = PlatformEventSpec {
            trace: Vec::new(),
            processes: vec![FailureProcess {
                seed: ctx.seed ^ 0xfa11,
                until,
                mtbf_secs: 20_000.0,
                repair_secs: 5_000.0,
                procs: 48,
                part: None,
            }],
            failure_policy: FailurePolicy::KillResubmit,
        };
        let easy = Backfill::Easy(RuntimeEstimator::RequestTime);
        let cons = Backfill::Conservative(RuntimeEstimator::RequestTime);
        let earliest = RouterSpec::EarliestStart(RuntimeEstimator::RequestTime);
        let cells = [
            (easy, RouterSpec::LeastLoaded, false),
            (easy, earliest, false),
            (cons, RouterSpec::LeastLoaded, false),
            (cons, earliest, false),
            (cons, RouterSpec::LeastLoaded, true),
        ]
        .into_iter()
        .map(|(backfill, router, perturbed)| {
            let mut b = ScenarioSpec::builder(source.clone())
                .platform(Platform::from_layout(&layout, router).rerouted(DECISION_POINTS))
                .backfill(backfill);
            if perturbed {
                b = b.events(failures.clone());
            }
            let spec = b.build();
            let label = format!(
                "{}{}",
                spec.label(),
                if perturbed { " + failures" } else { "" }
            );
            (label, spec)
        })
        .collect();
        Input { trace, cells }
    }

    fn pass(_ctx: &Ctx, input: &Input) -> Vec<Cell> {
        input
            .cells
            .iter()
            .map(|(label, spec)| {
                let r = hpcsim::scenario::execute(&input.trace, spec).expect("heuristic spec runs");
                schedule_cell(label.clone(), input.trace.len(), &r, None)
            })
            .collect()
    }

    fn mirror(_ctx: &Ctx, input: &Input, t: &mut Tracer) -> (Mirror, ()) {
        let mut m = Mirror::new((input.cells.len() * input.trace.len()) as f64);
        for (i, (label, spec)) in input.cells.iter().enumerate() {
            t.cell = i as u64;
            let (cell, _) = execute_recorded(t, label.clone(), &input.trace, spec, &mut m);
            m.cells.push(cell);
        }
        // The two EASY cells.
        let easy = (m.cells[0].bsld + m.cells[1].bsld) / 2.0;
        m.row("quality.easy_bsld", "bsld", easy);
        (m, ())
    }
}
