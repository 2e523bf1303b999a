//! Criterion bench: sweep-engine scaling across worker-thread counts.
//!
//! The same 128-run clocksync sweep is timed at 1, 2, 4, and 8 workers;
//! results are identical at every point (see `tests/sweep_scaling.rs` for
//! the asserted version), so the only thing varying is wall-clock.

use abc_bench::workloads;
use abc_core::Xi;
use abc_harness::spec::{DelaySweep, FaultPlan, Grid, Protocol, ScenarioSpec};
use abc_harness::sweep::{run_sweep, SweepOptions};
use abc_sim::RunLimits;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn sweep_spec(runs: usize) -> ScenarioSpec {
    ScenarioSpec {
        name: "bench".into(),
        protocol: Protocol::ClockSync { n: 4, f: 1 },
        delay: DelaySweep::Band {
            lo: Grid::fixed(1),
            hi: Grid::fixed(6),
        },
        faults: FaultPlan::none(),
        limits: RunLimits {
            max_events: 400,
            max_time: u64::MAX,
        },
        xi: Xi::from_integer(2),
        runs_per_point: runs,
        base_seed: 99,
    }
}

fn bench_sweep_scaling(c: &mut Criterion) {
    let spec = sweep_spec(128);
    let mut group = c.benchmark_group("sweep_scaling_128_runs");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    run_sweep(
                        &spec,
                        SweepOptions {
                            threads,
                            keep_violating_traces: false,
                        },
                    )
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_trace_text(c: &mut Criterion) {
    let trace = workloads::clocksync_trace(4, 1, 1, 6, 7, 2_000);
    let text = trace.to_text();
    let mut group = c.benchmark_group("trace_text");
    group.bench_function("serialize_2k_events", |b| {
        b.iter(|| trace.to_text());
    });
    group.bench_function("parse_2k_events", |b| {
        b.iter(|| abc_sim::Trace::from_text(&text).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_sweep_scaling, bench_trace_text);
criterion_main!(benches);
