//! Every run of the sweeps CI pins — the `quartet` preset and the three
//! `engine_families` delay models (clock synchronisation, `n = 7`,
//! `f = 2`, `Ξ = 5`) — at reduced size, with each run's answer certified
//! by `abc_core::certify`, which shares no code with any decider. A run
//! that latched must have a violation certificate: the cycle
//! `find_violation` finds in the run's regenerated graph, whose summary is
//! the sweep's own witness. A run that stayed open must have its final
//! margin certified: a cycle of exactly that ratio (the one
//! `find_violation` finds at the margin) and a normalized assignment just
//! above it (`assign_delays` at `certify::above_margin`).

use abc_core::assign::assign_delays;
use abc_core::{certify, check, Xi};
use abc_harness::spec::{FaultPlan, Protocol, ScenarioSpec};
use abc_harness::sweep::{generate_trace, run_sweep, SweepOptions};
use abc_rational::Ratio;
use abc_sim::RunLimits;

/// The swept specs at reduced size: fewer runs and events than CI's
/// `--runs 16 --max-events 300` (quartet) and `--runs 16 --max-events
/// 1000` (engine families), the same seeds, protocols, delays and `Ξ`.
fn specs() -> Vec<ScenarioSpec> {
    let quartet = abc_clocksync::presets::by_name("quartet").expect("a preset");
    let mut specs = vec![ScenarioSpec::from_preset(quartet, 8, 42)];
    specs[0].limits.max_events = 150;
    for delay in ["growing:1:8:2", "band:1:100000", "span:1:50000:3"] {
        specs.push(ScenarioSpec {
            name: format!("engine-{delay}"),
            protocol: Protocol::ClockSync { n: 7, f: 2 },
            delay: delay.parse().unwrap(),
            faults: FaultPlan::none(),
            limits: RunLimits {
                max_events: 500,
                max_time: u64::MAX,
            },
            xi: Xi::from_integer(5),
            runs_per_point: 8,
            base_seed: 42,
        });
    }
    specs
}

#[test]
fn every_swept_run_carries_a_certified_answer() {
    let (mut latched, mut open) = (0, 0);
    for spec in specs() {
        let points = spec.delay.points();
        let report = run_sweep(&spec, SweepOptions::default()).unwrap();
        assert_eq!(report.outcomes.len(), spec.total_runs());
        for outcome in &report.outcomes {
            let run = format!("{} run {}", spec.name, outcome.run_index);
            let g = generate_trace(&spec, &points, outcome.run_index)
                .0
                .to_execution_graph();
            if let Some(v) = &outcome.violation {
                latched += 1;
                let cycle = check::find_violation(&g, &spec.xi).unwrap();
                let cycle = cycle.unwrap_or_else(|| panic!("{run}: no violation in its graph"));
                assert_eq!(certify::violation(&g, &spec.xi, &cycle), Ok(()), "{run}");
                assert_eq!(cycle.summarize(&g), v.witness, "{run}");
                continue;
            }
            open += 1;
            let margin = outcome.final_margin.as_ref();
            let witness = margin.filter(|&m| *m > Ratio::one()).map(|m| {
                let at = Xi::new(m.clone()).expect("a margin above 1 is a Xi");
                let found = check::find_violation(&g, &at).unwrap();
                found.unwrap_or_else(|| panic!("{run}: no cycle at its margin {m}"))
            });
            let above = certify::above_margin(&g, margin);
            let timed = assign_delays(&g, &above)
                .unwrap_or_else(|e| panic!("{run}: no assignment at {above}: {e}"));
            let certified = certify::margin(&g, margin, witness.as_ref(), &timed);
            assert_eq!(certified, Ok(()), "{run}: margin {margin:?}");
        }
    }
    assert!(latched > 0 && open > 0, "{latched} latched, {open} open");
}
