//! Sanity check for the claim `bench_ledger`'s `harness.sweep.thread_scaling`
//! row quantifies: the work-queue sweep runner scales across cores while producing identical
//! results at any worker count.
//!
//! The speedup assertion is hardware-gated: parallel wall-clock gains
//! require the cores to exist. On ≥8 hardware threads the acceptance bar
//! is the ISSUE's ≥3× at 8 workers vs 1; on smaller machines a
//! proportionally weaker bar applies (and on a single core only the
//! determinism half is asserted — an 8-worker queue cannot beat physics).
//! The margins are deliberately loose so CI timing noise cannot flake.

use std::time::{Duration, Instant};

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

fn timed(spec: &ScenarioSpec, threads: usize) -> (SweepReport, Duration) {
    let t0 = Instant::now();
    let report = run_sweep(
        spec,
        SweepOptions {
            threads,
            keep_violating_traces: false,
        },
    )
    .unwrap();
    (report, t0.elapsed())
}

#[test]
fn sweep_512_runs_scales_with_workers_and_stays_deterministic() {
    let spec = spec_512();
    assert_eq!(spec.total_runs(), 512);
    // Warm-up (allocator, page faults) outside the timed comparison.
    let _ = timed(&spec, 1);
    let (r1, d1) = timed(&spec, 1);
    let (r8, d8) = timed(&spec, 8);
    assert_eq!(
        r1.aggregate_text(),
        r8.aggregate_text(),
        "8-worker sweep must be byte-identical to serial"
    );

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let speedup = d1.as_secs_f64() / d8.as_secs_f64().max(1e-9);
    eprintln!("512-run sweep: 1 worker {d1:?}, 8 workers {d8:?}, speedup {speedup:.2}x on {cores} hardware threads");
    if cores >= 8 {
        assert!(
            speedup >= 3.0,
            "expected >=3x speedup at 8 workers on {cores} hardware threads, got {speedup:.2}x \
             (1 worker: {d1:?}, 8 workers: {d8:?})"
        );
    } else if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "expected >=2x on {cores} cores, got {speedup:.2}x"
        );
    } else if cores >= 2 {
        assert!(
            speedup >= 1.2,
            "expected >=1.2x on {cores} cores, got {speedup:.2}x"
        );
    } else {
        // Single hardware thread: no parallel gain is possible; assert the
        // queue at least does not collapse (pathological contention).
        assert!(
            d8 <= d1.mul_f64(3.0),
            "8-worker queue catastrophically slower than serial on 1 core: {d1:?} vs {d8:?}"
        );
    }
}
