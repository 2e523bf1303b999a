//! The flight recorder splits a swept run the way the sweep executes it:
//! every run is one `sweep.run` span holding one `sweep.simulate` (around
//! the engine's `sim.run`), one `sweep.monitor` (the replay into the
//! worker's lent monitor) and one `monitor.margin_probe`. This file holds
//! one test because the recorder is process-wide.

use std::collections::BTreeMap;

use abc_core::Xi;
use abc_harness::spec::{FaultPlan, Protocol, ScenarioSpec};
use abc_harness::sweep::{run_sweep, SweepOptions};
use abc_sim::RunLimits;

#[test]
fn a_swept_run_is_split_into_simulate_monitor_and_margin_spans() {
    let spec = ScenarioSpec {
        name: "spans".into(),
        protocol: Protocol::ClockSync { n: 4, f: 1 },
        delay: "band:1:2..6..2".parse().unwrap(),
        faults: FaultPlan::none(),
        limits: RunLimits {
            max_events: 120,
            max_time: u64::MAX,
        },
        xi: Xi::from_integer(2),
        runs_per_point: 5,
        base_seed: 3,
    };
    let runs = spec.total_runs() as u64;
    abc_obs::reset();
    abc_obs::enable(abc_obs::DEFAULT_RING_CAPACITY);
    let options = SweepOptions {
        threads: 2,
        keep_violating_traces: false,
    };
    let report = run_sweep(&spec, options).unwrap();
    abc_obs::disable();
    assert!(report.violations > 0 && report.violations < report.total_runs);

    // name -> (count, total ns), over both workers.
    let mut spans: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for thread in abc_obs::snapshot().threads {
        assert_eq!(thread.dropped, 0, "the ring held the whole sweep");
        for e in thread.entries {
            if e.kind == abc_obs::EntryKind::Span {
                let stat = spans.entry(e.name).or_default();
                stat.0 += 1;
                stat.1 += e.dur_ns;
            }
        }
    }
    abc_obs::reset();
    let stages = [
        "sweep.simulate",
        "sim.run",
        "sweep.monitor",
        "monitor.margin_probe",
    ];
    for name in stages.into_iter().chain(["sweep.run"]) {
        let count = spans.get(name).map_or(0, |s| s.0);
        assert_eq!(count, runs, "{name}: {spans:?}");
    }
    // The three stages nest inside the run and do not overlap each other.
    let inside = spans["sweep.simulate"].1 + spans["sweep.monitor"].1;
    assert!(spans["sim.run"].1 <= spans["sweep.simulate"].1);
    assert!(
        inside + spans["monitor.margin_probe"].1 <= spans["sweep.run"].1,
        "{spans:?}"
    );
}
