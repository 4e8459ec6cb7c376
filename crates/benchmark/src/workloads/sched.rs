//! `sched-1m`: heuristic kernel throughput at the scale where the waiting
//! queue grows (`results/telemetry_scale.json`: queue depth reaches the
//! 1024–2047 bucket at 1M jobs while the event heap stays flat). No
//! network is involved.
//!
//! Input: a 1M-job Lublin-1 trace generated from `--seed` in set-up, then
//! FCFS + EASY(request time) and FCFS + conservative(request time) through
//! `hpcsim::scenario::execute`. One item of `throughput` is one job
//! scheduled.

use super::{execute_recorded, schedule_cell, Ctx, Mirror, Workload};
use crate::checks::Cell;
use crate::spans::Tracer;
use hpcsim::prelude::*;
use swf::{Trace, TracePreset, TraceSource};

pub const NAME: &str = "sched-1m";

pub struct Sched;

pub struct Input {
    trace: Trace,
    specs: Vec<(&'static str, ScenarioSpec)>,
}

impl Workload for Sched {
    type Input = Input;
    type Extra = ();

    fn setup(ctx: &Ctx, t: &mut Tracer) -> Input {
        let source = TraceSource::Preset {
            preset: TracePreset::Lublin1,
            jobs: if ctx.smoke { 20_000 } else { 1_000_000 },
            seed: ctx.seed,
        };
        let trace = t.span("swf.generate", |_| {
            source.materialize().expect("preset sources materialize")
        });
        let spec = |backfill| {
            ScenarioSpec::builder(source.clone())
                .backfill(backfill)
                .build()
        };
        Input {
            trace,
            specs: vec![
                (
                    "FCFS+EASY",
                    spec(Backfill::Easy(RuntimeEstimator::RequestTime)),
                ),
                (
                    "FCFS+CONS",
                    spec(Backfill::Conservative(RuntimeEstimator::RequestTime)),
                ),
            ],
        }
    }

    fn pass(_ctx: &Ctx, input: &Input) -> Vec<Cell> {
        input
            .specs
            .iter()
            .map(|(label, spec)| {
                let r = hpcsim::scenario::execute(&input.trace, spec).expect("heuristic spec runs");
                schedule_cell(label.to_string(), input.trace.len(), &r, None)
            })
            .collect()
    }

    fn mirror(_ctx: &Ctx, input: &Input, t: &mut Tracer) -> (Mirror, ()) {
        let mut m = Mirror::new((input.specs.len() * input.trace.len()) as f64);
        for (i, (label, spec)) in input.specs.iter().enumerate() {
            t.cell = i as u64;
            let (cell, _) = execute_recorded(t, label.to_string(), &input.trace, spec, &mut m);
            m.cells.push(cell);
        }
        let easy = m.cells[0].bsld;
        m.row("quality.easy_bsld", "bsld", easy);
        (m, ())
    }
}
