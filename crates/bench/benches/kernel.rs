//! Criterion bench: `desim`-kernel simulator vs the seed cost model
//! (reference engine + naive availability profile + seed pass logic),
//! across trace sizes — the perf baseline future PRs regress against.
//!
//! The seed's conservative pass is `O(n³)`-ish and takes seconds per run
//! at 10K jobs, so the heaviest seed cases are gated behind the `full`
//! filter argument (`cargo bench -p bench --bench kernel -- full`). This
//! is the only seed-vs-kernel timing; repeatable end-to-end scheduling
//! numbers come from `crates/benchmark` (`sched-1m`, `cluster-4p`), and
//! `results/bench_kernel.json` is a frozen single-shot record.

use bench::TRACE_SEED;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hpcsim::prelude::*;
use hpcsim::reference::run_seed_scheduler;
use std::hint::black_box;
use swf::TracePreset;

fn bench_easy_kernel_vs_seed(c: &mut Criterion) {
    let mut group = c.benchmark_group("easy_lublin1");
    for n in [1_000usize, 10_000] {
        let trace = TracePreset::Lublin1.generate(n, TRACE_SEED);
        group.bench_with_input(BenchmarkId::new("kernel", n), &trace, |b, t| {
            b.iter(|| {
                run_scheduler(
                    black_box(t),
                    Policy::Fcfs,
                    Backfill::Easy(RuntimeEstimator::RequestTime),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("seed", n), &trace, |b, t| {
            b.iter(|| {
                run_seed_scheduler(
                    black_box(t),
                    Policy::Fcfs,
                    Backfill::Easy(RuntimeEstimator::RequestTime),
                )
            })
        });
    }
    group.finish();
}

fn bench_easy_kernel_100k(c: &mut Criterion) {
    // Kernel-only: a trace size the seed implementation could not sustain.
    let trace = TracePreset::Lublin1.generate(100_000, TRACE_SEED);
    let mut group = c.benchmark_group("easy_lublin1_large");
    group.bench_function("kernel/100000", |b| {
        b.iter(|| {
            run_scheduler(
                black_box(&trace),
                Policy::Fcfs,
                Backfill::Easy(RuntimeEstimator::RequestTime),
            )
        })
    });
    group.finish();
}

fn bench_conservative_kernel_vs_seed(c: &mut Criterion) {
    let mut group = c.benchmark_group("conservative_lublin1");
    let trace = TracePreset::Lublin1.generate(1_000, TRACE_SEED);
    group.bench_with_input(BenchmarkId::new("kernel", 1_000), &trace, |b, t| {
        b.iter(|| {
            run_scheduler(
                black_box(t),
                Policy::Fcfs,
                Backfill::Conservative(RuntimeEstimator::RequestTime),
            )
        })
    });
    group.bench_with_input(BenchmarkId::new("seed", 1_000), &trace, |b, t| {
        b.iter(|| {
            run_seed_scheduler(
                black_box(t),
                Policy::Fcfs,
                Backfill::Conservative(RuntimeEstimator::RequestTime),
            )
        })
    });
    // The incremental-planner headline case, kernel-only: the seed's
    // conservative pass takes seconds per run at 10k jobs.
    let trace10k = TracePreset::Lublin1.generate(10_000, TRACE_SEED);
    group.bench_with_input(BenchmarkId::new("kernel", 10_000), &trace10k, |b, t| {
        b.iter(|| {
            run_scheduler(
                black_box(t),
                Policy::Fcfs,
                Backfill::Conservative(RuntimeEstimator::RequestTime),
            )
        })
    });
    group.finish();
}

fn bench_migration(c: &mut Criterion) {
    // The decision-point re-routing hot path this PR's shared router
    // plans optimize: every settled batch re-evaluates the waiting jobs
    // of every partition. Tracked per commit so the reroute scan cannot
    // silently regress to per-candidate plan rebuilding.
    use std::sync::Arc;
    let reroute = ReroutePolicy::AtDecisionPoints {
        max_moves_per_job: 3,
        min_gain_secs: 60.0,
    };
    let mut group = c.benchmark_group("migration_lublin1");
    for parts in [2usize, 4] {
        let w = swf::partitioned_preset(TracePreset::Lublin1, parts, 3_000, TRACE_SEED);
        let spec = ClusterSpec::from_layout(&w.layout);
        for (name, backfill) in [
            ("easy", Backfill::Easy(RuntimeEstimator::RequestTime)),
            (
                "cons",
                Backfill::Conservative(RuntimeEstimator::RequestTime),
            ),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("decision_points_{name}"), parts),
                &(&w, &spec),
                |b, (w, spec)| {
                    b.iter(|| {
                        run_scheduler_on_rerouted(
                            black_box(&w.trace),
                            Policy::Fcfs,
                            backfill,
                            spec,
                            Arc::new(LeastLoaded),
                            reroute,
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_multi_partition(c: &mut Criterion) {
    // The cluster subsystem's overhead/benefit at 2 and 4 partitions:
    // per-partition queues shrink the sort and pass costs, the router adds
    // a per-arrival decision. Kernel-only (the seed engine is flat).
    use std::sync::Arc;
    let mut group = c.benchmark_group("multi_partition_lublin1");
    for parts in [2usize, 4] {
        let w = swf::partitioned_preset(TracePreset::Lublin1, parts, 10_000, TRACE_SEED);
        let spec = ClusterSpec::from_layout(&w.layout);
        group.bench_with_input(
            BenchmarkId::new("easy_least_loaded", parts),
            &(&w, &spec),
            |b, (w, spec)| {
                b.iter(|| {
                    run_scheduler_on_rerouted(
                        black_box(&w.trace),
                        Policy::Fcfs,
                        Backfill::Easy(RuntimeEstimator::RequestTime),
                        spec,
                        Arc::new(LeastLoaded),
                        ReroutePolicy::AtSubmission,
                    )
                })
            },
        );
    }
    // Conservative at 1k jobs (the pass dominates; matches the flat case
    // benched above for an apples-to-apples partition-count comparison).
    let w = swf::partitioned_preset(TracePreset::Lublin1, 2, 1_000, TRACE_SEED);
    let spec = ClusterSpec::from_layout(&w.layout);
    group.bench_function("conservative_earliest_start/2", |b| {
        b.iter(|| {
            run_scheduler_on_rerouted(
                black_box(&w.trace),
                Policy::Fcfs,
                Backfill::Conservative(RuntimeEstimator::RequestTime),
                &spec,
                Arc::new(EarliestStart::default()),
                ReroutePolicy::AtSubmission,
            )
        })
    });
    group.finish();
}

fn bench_probe_overhead(c: &mut Criterion) {
    // The zero-cost claim, measured: the same 10k-job run through the
    // default `NoopProbe` (monomorphized away — must be indistinguishable
    // from the pre-observability baseline) and through a counters-only
    // `Recorder`. The Noop/Recorder gap is the price of telemetry; the
    // Noop/baseline gap must stay ~0 (the CI floor enforces ≤2%).
    use std::sync::Arc;
    let trace = TracePreset::Lublin1.generate(10_000, TRACE_SEED);
    let flat = ClusterSpec::homogeneous(trace.cluster_procs());
    let mut group = c.benchmark_group("probe_overhead");
    for (name, backfill) in [
        ("easy", Backfill::Easy(RuntimeEstimator::RequestTime)),
        (
            "cons",
            Backfill::Conservative(RuntimeEstimator::RequestTime),
        ),
    ] {
        group.bench_with_input(BenchmarkId::new("noop", name), &trace, |b, t| {
            b.iter(|| run_scheduler(black_box(t), Policy::Fcfs, backfill))
        });
        group.bench_with_input(BenchmarkId::new("recorder", name), &trace, |b, t| {
            b.iter(|| {
                run_scheduler_probed(
                    black_box(t),
                    Policy::Fcfs,
                    backfill,
                    &flat,
                    Arc::new(StaticAffinity),
                    ReroutePolicy::AtSubmission,
                    &PlatformEventSpec::default(),
                    Recorder::default(),
                )
            })
        });
    }
    group.finish();
}

fn bench_replicated_experiments(c: &mut Criterion) {
    // The workload the kernel unlocks: N independent replications of a
    // whole experiment fanned out by desim's Replicator.
    let trace = TracePreset::Lublin2.generate(2_000, TRACE_SEED);
    c.bench_function("replicated_easy_8x1024", |b| {
        let replicator = desim::Replicator::new(7);
        b.iter(|| {
            replicator.run(8, |_idx, seed| {
                let windows = rlbf::sample_windows(black_box(&trace), 1, 1024, seed);
                run_scheduler(
                    &windows[0],
                    Policy::Fcfs,
                    Backfill::Easy(RuntimeEstimator::RequestTime),
                )
                .metrics
                .mean_bounded_slowdown
            })
        })
    });
}

fn bench_full_sizes(c: &mut Criterion) {
    // Heavy cases (the seed conservative run takes ~5 s per iteration):
    // only run when explicitly requested with `-- full`.
    if !std::env::args().any(|a| a == "full") {
        return;
    }
    let mut group = c.benchmark_group("full");
    let trace = TracePreset::Lublin1.generate(10_000, TRACE_SEED);
    group.bench_function("conservative_lublin1/kernel/10000", |b| {
        b.iter(|| {
            run_scheduler(
                black_box(&trace),
                Policy::Fcfs,
                Backfill::Conservative(RuntimeEstimator::RequestTime),
            )
        })
    });
    group.bench_function("conservative_lublin1/seed/10000", |b| {
        b.iter(|| {
            run_seed_scheduler(
                black_box(&trace),
                Policy::Fcfs,
                Backfill::Conservative(RuntimeEstimator::RequestTime),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_easy_kernel_vs_seed,
    bench_easy_kernel_100k,
    bench_conservative_kernel_vs_seed,
    bench_multi_partition,
    bench_migration,
    bench_probe_overhead,
    bench_replicated_experiments,
    bench_full_sizes,
);
criterion_main!(benches);
