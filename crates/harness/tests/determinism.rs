//! The acceptance bar for the sweep engine: a 512-run seeded clocksync
//! sweep produces **byte-identical** `SweepReport` aggregates at 1, 2, and
//! 8 worker threads. Determinism is structural (per-run splitmix64 streams
//! + index-ordered aggregation), so this holds on any machine regardless
//! of core count or scheduling.
//!
//! Sweep workers re-arm one engine and one mirror-less monitor per run, so
//! a second test holds every [`abc_harness::RunOutcome`] against one
//! computed on state nothing else has touched: a new engine, a new
//! mirrored monitor. Comparing thread counts cannot see a reuse bug that
//! every worker shares; that comparison can.

use abc_core::Xi;
use abc_harness::spec::{DelaySweep, FaultPlan, Grid, Protocol, ScenarioSpec};
use abc_harness::sweep::{generate_trace, run_sweep, SweepOptions};
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

/// Clocksync and gossip under Byzantine, crash and dropped-link plans,
/// each at a `Ξ` every run meets and at one most runs breach. Budgets and
/// bands vary across the grid, so consecutive runs of one worker differ in
/// length, in faulty marks seen by the monitor, and in whether they latch.
fn oracle_specs() -> Vec<ScenarioSpec> {
    let base = |name: &str, protocol, delay: &str, xi: Xi, max_events| ScenarioSpec {
        name: name.into(),
        protocol,
        delay: delay.parse().unwrap(),
        faults: FaultPlan::none(),
        limits: RunLimits {
            max_events,
            max_time: u64::MAX,
        },
        xi,
        runs_per_point: 6,
        base_seed: 77,
    };
    let clocksync = Protocol::ClockSync { n: 7, f: 2 };
    let gossip = Protocol::Gossip { n: 5, budget: 25 };
    let mut specs = Vec::new();
    for (xi, tag) in [
        (Xi::from_integer(12), "ok"),
        (Xi::from_fraction(3, 2), "bad"),
    ] {
        let mut byz = base(
            &format!("cs-byz-{tag}"),
            clocksync.clone(),
            "band:1:2..8..3",
            xi.clone(),
            260,
        );
        byz.faults.byzantine = vec![5, 6];
        let mut crash = base(
            &format!("cs-crash-drop-{tag}"),
            clocksync.clone(),
            "growing:1:4:40..80..40",
            xi.clone(),
            180,
        );
        crash.faults.crash = vec![(2, 4)];
        crash.faults.dropped_links = vec![(0, 1), (3, 0)];
        let mut lossy = base(
            &format!("gossip-{tag}"),
            gossip.clone(),
            "band:1..2..1:6",
            xi.clone(),
            400,
        );
        lossy.faults.byzantine = vec![4];
        lossy.faults.crash = vec![(1, 3)];
        lossy.faults.dropped_links = vec![(0, 2)];
        specs.extend([byz, crash, lossy]);
    }
    specs
}

#[test]
fn every_outcome_equals_one_computed_on_fresh_state() {
    let mut violating = 0;
    let mut admissible = 0;
    for spec in oracle_specs() {
        let points = spec.delay.points();
        // The old way, test-side: a new engine and a new mirrored monitor
        // per run.
        let oracle: Vec<_> = (0..spec.total_runs())
            .map(|i| {
                let (trace, stats) = generate_trace(&spec, &points, i);
                let (mon, at_event) = trace.replay_into_monitor_until_violation(&spec.xi).unwrap();
                let witness = mon.violation_summary().map(ToString::to_string);
                let margin = mon.current_margin().unwrap().map(|m| m.ratio);
                let headroom = margin.as_ref().map(|m| spec.xi.as_ratio() - m);
                let kept = at_event.map(|_| trace.to_text());
                (stats, at_event, witness, margin, headroom, kept)
            })
            .collect();
        violating += oracle.iter().filter(|o| o.1.is_some()).count();
        admissible += oracle.iter().filter(|o| o.1.is_none()).count();
        for threads in [1, 2, 8] {
            let report = run_sweep(
                &spec,
                SweepOptions {
                    threads,
                    keep_violating_traces: true,
                },
            )
            .unwrap();
            assert_eq!(report.outcomes.len(), oracle.len());
            for (o, want) in report.outcomes.iter().zip(&oracle) {
                let got = (
                    o.stats,
                    o.violation.as_ref().map(|v| v.at_event),
                    o.violation.as_ref().map(|v| v.witness.to_string()),
                    o.final_margin.clone(),
                    o.min_margin_over_time.clone(),
                    o.trace.as_ref().map(abc_sim::Trace::to_text),
                );
                assert_eq!(
                    &got, want,
                    "{} run {} at {threads} worker(s)",
                    spec.name, o.run_index
                );
            }
        }
    }
    // The comparison covered both kinds of run, many times over.
    assert!(
        violating >= 20 && admissible >= 20,
        "{violating} / {admissible}"
    );
}
