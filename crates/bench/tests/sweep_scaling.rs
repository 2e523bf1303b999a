//! Determinism half of the sweep-scaling claim: the work-queue runner
//! produces byte-identical aggregates at any worker count. The speed half
//! — how far 8 workers outrun 1 — depends on the cores present and is a
//! measurement, not a test: `bench_ledger` carries it as
//! `harness.sweep.thread_scaling`.

use abc_core::Xi;
use abc_harness::spec::{DelaySweep, FaultPlan, Grid, Protocol, ScenarioSpec};
use abc_harness::sweep::{run_sweep, SweepOptions, SweepReport};
use abc_sim::RunLimits;

fn spec_512() -> ScenarioSpec {
    ScenarioSpec {
        name: "scaling-512".into(),
        protocol: Protocol::ClockSync { n: 4, f: 1 },
        delay: DelaySweep::Band {
            lo: Grid::fixed(1),
            hi: Grid::fixed(6),
        },
        faults: FaultPlan::none(),
        limits: RunLimits {
            max_events: 200,
            max_time: u64::MAX,
        },
        xi: Xi::from_integer(2),
        runs_per_point: 512,
        base_seed: 4711,
    }
}

fn sweep(spec: &ScenarioSpec, threads: usize) -> SweepReport {
    run_sweep(
        spec,
        SweepOptions {
            threads,
            keep_violating_traces: false,
        },
    )
    .unwrap()
}

#[test]
fn sweep_512_runs_scales_with_workers_and_stays_deterministic() {
    let spec = spec_512();
    assert_eq!(spec.total_runs(), 512);
    assert_eq!(
        sweep(&spec, 1).aggregate_text(),
        sweep(&spec, 8).aggregate_text(),
        "8-worker sweep must be byte-identical to serial"
    );
}
