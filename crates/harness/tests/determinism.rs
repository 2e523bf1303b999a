//! The acceptance bar for the sweep engine: a 512-run seeded clocksync
//! sweep produces **byte-identical** `SweepReport` aggregates at 1, 2, and
//! 8 worker threads. Determinism is structural (per-run splitmix64 streams
//! + index-ordered aggregation), so this holds on any machine regardless
//! of core count or scheduling.

use abc_core::Xi;
use abc_harness::spec::{DelaySweep, FaultPlan, Grid, Protocol, ScenarioSpec};
use abc_harness::sweep::{run_sweep, SweepOptions};
use abc_sim::RunLimits;

fn spec_512() -> ScenarioSpec {
    ScenarioSpec {
        name: "determinism-512".into(),
        protocol: Protocol::ClockSync { n: 4, f: 1 },
        // 4 grid points (hi = 2, 4, 6, 8) x 128 seeded runs = 512 runs; at
        // Xi = 2 the narrow [1,2] point stays admissible while the wide
        // points violate, so the census, histogram, and witness lines are
        // all exercised.
        delay: DelaySweep::Band {
            lo: Grid::fixed(1),
            hi: Grid::range(2, 8, 2),
        },
        faults: FaultPlan::none(),
        limits: RunLimits {
            max_events: 150,
            max_time: u64::MAX,
        },
        xi: Xi::from_integer(2),
        runs_per_point: 128,
        base_seed: 2024,
    }
}

#[test]
fn sweep_aggregates_are_byte_identical_at_1_2_and_8_threads() {
    let spec = spec_512();
    assert_eq!(spec.total_runs(), 512);
    let run = |threads: usize| {
        run_sweep(
            &spec,
            SweepOptions {
                threads,
                keep_violating_traces: false,
            },
        )
        .unwrap()
    };
    let r1 = run(1);
    let r2 = run(2);
    let r8 = run(8);
    let t1 = r1.aggregate_text();
    assert_eq!(t1, r2.aggregate_text(), "1 vs 2 workers");
    assert_eq!(t1, r8.aggregate_text(), "1 vs 8 workers");
    // The full per-run record agrees too, not just the aggregate view.
    for (a, b) in r1.outcomes.iter().zip(&r8.outcomes) {
        assert_eq!(a.run_index, b.run_index);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.stats, b.stats);
        assert_eq!(
            a.violation.as_ref().map(|v| (v.at_event, v.ratio())),
            b.violation.as_ref().map(|v| (v.at_event, v.ratio()))
        );
    }
    // And the sweep actually explored both admissible and violating
    // territory — the determinism claim is about interesting reports.
    assert!(r1.violations > 0, "expected violations:\n{t1}");
    assert!(r1.violations < 512, "expected admissible runs too:\n{t1}");
    assert!(r1.points.iter().any(|p| p.violations == 0), "{t1}");
}
