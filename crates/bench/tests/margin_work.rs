//! A count, not a timing: what keeping its margin costs a swept run.
//!
//! A sweep worker's monitor keeps its margin as the replay appends
//! (`IncrementalChecker::enable_margin_tracking`; the module docs of
//! `crates/core/src/monitor/margin.rs` have the argument): a second column
//! of labels, feasible at the margin so far, repaired on the negative-cycle
//! kernel whenever an append's window at that margin is empty, and raised
//! to the ratio of each cycle such a repair closes. So the margin a run
//! reports costs no step at query time — an untracked monitor would replay
//! them all — and what keeping it costs is counted
//! by the two counters of the kept column, `monitor.margin_repairs` and
//! `monitor.margin_raises`: 8.9 and 2.6 per run on the 32 runs below (at
//! most 23 and 6), 8.6 and 2.4 over ten such sweeps (seeds 1000–1009),
//! against the bounds pinned here. This file holds one test because the recorder is
//! process-wide (`margin_replay.rs` beside it pins what a replay costs).

use abc_core::monitor::IncrementalChecker;
use abc_core::Xi;
use abc_harness::spec::{DelaySweep, Grid, Protocol, ScenarioSpec};
use abc_harness::sweep::{generate_trace, run_sweep, SweepOptions};
use abc_rational::Ratio;
use abc_sim::RunLimits;

/// Repairs and raises of the kept column a run may take on average, and
/// at most.
const MEAN_REPAIRS: u64 = 16;
const MEAN_RAISES: u64 = 4;
const MOST_REPAIRS: u64 = 48;
const MOST_RAISES: u64 = 10;

/// The recorder's totals of the counters this test reads, in the order
/// `[ratio-one passes, margin repairs, margin raises]`.
fn counters() -> [u64; 3] {
    let totals = abc_obs::snapshot().counter_totals();
    [
        "monitor.ratio_one_passes",
        "monitor.margin_repairs",
        "monitor.margin_raises",
    ]
    .map(|name| {
        totals
            .iter()
            .find(|(counter, _)| *counter == name)
            .map_or(0, |(_, value)| *value)
    })
}

fn since(earlier: [u64; 3]) -> [u64; 3] {
    let now = counters();
    [0, 1, 2].map(|k| now[k] - earlier[k])
}

/// The `sweep_band` scenario of the benchmark: the `decade-wide` preset
/// reshaped to ClockSync n=7 f=2 under bands `[1, hi]` for `hi` in 2..=9,
/// `Ξ` = 5, 500 events, four runs per band.
fn band_spec(seed: u64) -> ScenarioSpec {
    let preset = abc_clocksync::presets::by_name("decade-wide").expect("a shipped preset");
    let mut spec = ScenarioSpec::from_preset(preset, 4, seed);
    spec.protocol = Protocol::ClockSync { n: 7, f: 2 };
    spec.delay = DelaySweep::Band {
        lo: Grid::fixed(1),
        hi: Grid::range(2, 9, 1),
    };
    spec.limits = RunLimits {
        max_events: 500,
        max_time: u64::MAX,
    };
    spec.xi = Xi::from_integer(5);
    spec
}

#[test]
fn a_kept_margin_costs_a_few_repairs_per_run_and_no_probe() {
    abc_obs::reset();
    abc_obs::enable(abc_obs::DEFAULT_RING_CAPACITY);
    let spec = band_spec(1000);
    let points = spec.delay.points();
    let mut kept = IncrementalChecker::new(7, &spec.xi).unwrap();
    kept.enable_pruning();
    kept.enable_margin_tracking();
    let (mut repairs, mut raises, mut ones, mut above) = (0, 0, 0, 0);
    for run in 0..spec.total_runs() {
        let (trace, _) = generate_trace(&spec, &points, run);
        let before = counters();
        let latch = trace
            .replay_until_violation_into(&mut kept, &spec.xi)
            .unwrap();
        let replayed = since(before);
        let before = counters();
        let margin = kept.current_margin().unwrap().map(|m| m.ratio);
        let [one_passes, query_repairs, query_raises] = since(before);
        // The query reads what the replay kept.
        assert_eq!(
            (query_repairs, query_raises),
            (0, 0),
            "run {run}: the query replayed"
        );
        // At a margin of 1, or none, one ratio-one pass tells them apart.
        let at_one = latch.is_none() && margin.as_ref().is_none_or(|m| *m == Ratio::one());
        assert_eq!(one_passes, u64::from(at_one), "run {run}");
        ones += usize::from(at_one);
        above += usize::from(margin.as_ref().is_some_and(|m| *m > Ratio::one()));
        let [_, run_repairs, run_raises] = replayed;
        assert!(
            run_repairs <= MOST_REPAIRS,
            "run {run}: {run_repairs} repairs"
        );
        assert!(run_raises <= MOST_RAISES, "run {run}: {run_raises} raises");
        repairs += run_repairs;
        raises += run_raises;
        // And it is the margin an untracked monitor's replay finds.
        let (plain, _) = trace.replay_into_monitor_until_violation(&spec.xi).unwrap();
        let replayed = plain.current_margin().unwrap().map(|m| m.ratio);
        assert_eq!(margin, replayed, "run {run}");
    }
    let runs = spec.total_runs() as u64;
    assert!(ones > 0 && above > 0, "{ones} runs at 1, {above} above");
    assert!(
        repairs <= MEAN_REPAIRS * runs,
        "{repairs} repairs in {runs} runs"
    );
    assert!(
        raises <= MEAN_RAISES * runs,
        "{raises} raises in {runs} runs"
    );
    // The sweep itself, on two workers, keeps the same margins.
    let before = counters();
    let options = SweepOptions {
        threads: 2,
        keep_violating_traces: false,
    };
    run_sweep(&spec, options).unwrap();
    let [_, sweep_repairs, sweep_raises] = since(before);
    abc_obs::disable();
    assert_eq!((sweep_repairs, sweep_raises), (repairs, raises));
}
