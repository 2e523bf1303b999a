//! A count, not a timing: an untracked margin costs what keeping it costs.
//!
//! There is one margin algorithm (`crates/core/src/monitor/margin.rs`): a
//! tracking monitor keeps its margin as appends come in, repairing a second
//! label column on the negative-cycle kernel whenever an append's window at
//! the kept margin is empty and raising the margin to each cycle such a
//! repair closes. A monitor that keeps nothing answers `current_margin` by
//! replaying those steps over its arena, event by event. So on each of
//! these eight documents the untracked monitor's closing query runs exactly
//! the repairs and raises the tracking monitor ran while appending — the
//! same steps, the same counts — and it names the same witness. A tracking
//! monitor that prunes as a session prunes runs no repair, raise or
//! ratio-one pass in the fold before a prune or in the query after it
//! (`margin_work.rs` beside it pins what keeping costs a swept run). The
//! counts come from the monitor's own `abc_obs` counters; this file holds
//! one test because the recorder is process-wide (`check_work.rs` beside it
//! pins the kernel's batch work the same way).

use abc_bench::workloads;
use abc_core::monitor::IncrementalChecker;
use abc_core::{EventId, Xi};
use abc_rational::Ratio;

const HORIZON: usize = 256;

/// `(monitor.margin_repairs, monitor.margin_raises,
/// monitor.ratio_one_passes)` so far.
fn counts() -> [u64; 3] {
    let totals = abc_obs::snapshot().counter_totals();
    [
        "monitor.margin_repairs",
        "monitor.margin_raises",
        "monitor.ratio_one_passes",
    ]
    .map(|name| {
        totals
            .iter()
            .find(|(counter, _)| *counter == name)
            .map_or(0, |(_, value)| *value)
    })
}

/// What [`counts`] gained since `earlier`.
fn since(earlier: [u64; 3]) -> [u64; 3] {
    let now = counts();
    [0, 1, 2].map(|k| now[k] - earlier[k])
}

#[test]
fn an_untracked_margin_replays_exactly_the_kept_steps() {
    abc_obs::reset();
    abc_obs::enable(abc_obs::DEFAULT_RING_CAPACITY);
    let xi = Xi::from_integer(5);
    let mut folds = 0;
    for seed in 1..=8 {
        // The `serve_v2_bounded` document shape.
        let trace = workloads::clocksync_trace(4, 1, 1, 4, seed, 625);

        // A tracking monitor that never prunes (a sweep worker's), and
        // what keeping its margin ran while it appended.
        let mut kept = IncrementalChecker::new(trace.num_processes(), &xi).unwrap();
        kept.enable_pruning();
        kept.enable_margin_tracking();
        let before = counts();
        let latch = trace.replay_until_violation_into(&mut kept, &xi).unwrap();
        let [repairs, raises, _] = since(before);
        assert_eq!(latch, None, "seed {seed}: Ξ = 5 is not violated");
        assert!(
            raises > 0 && repairs >= raises,
            "seed {seed}: {repairs}, {raises}"
        );

        // An untracked monitor keeps nothing while it appends, and its
        // closing query replays exactly those steps.
        let before = counts();
        let plain = trace.replay_into_monitor(&xi).unwrap();
        assert_eq!(
            since(before),
            [0; 3],
            "seed {seed}: an untracked append kept a margin"
        );
        let before = counts();
        let replayed = plain.current_margin().unwrap();
        assert_eq!(
            since(before),
            [repairs, raises, 0],
            "seed {seed}: the replay ran other steps than the appends (a margin above 1 \
             needs no ratio-1 pass)"
        );
        let margin = kept.current_margin().unwrap();
        assert_eq!(replayed, margin, "seed {seed}");

        // A tracking monitor pruned as a session prunes it: once the window
        // passes 2·horizon, down to horizon behind the frontier or the
        // oldest undelivered send.
        let mut oldest_send = vec![usize::MAX; trace.events().len() + 1];
        for (i, ev) in trace.events().iter().enumerate().rev() {
            let named = ev
                .trigger
                .map_or(usize::MAX, |mi| trace.messages()[mi].send_event);
            oldest_send[i] = named.min(oldest_send[i + 1]);
        }
        let mut mon = IncrementalChecker::new(trace.num_processes(), &xi).unwrap();
        mon.enable_pruning();
        mon.enable_margin_tracking();
        for (i, ev) in trace.events().iter().enumerate() {
            match ev.trigger {
                None => mon.append_init(ev.process),
                Some(mi) => {
                    mon.append_send(EventId(trace.messages()[mi].send_event), ev.process)
                        .1
                }
            };
            if mon.live_events() <= 2 * HORIZON {
                continue;
            }
            let before = counts();
            let watermark = (i + 1 - HORIZON).min(oldest_send[i + 1]);
            assert!(mon.prune_settled(Some(EventId(watermark))) > 0);
            let margin = mon.current_margin().unwrap().expect("ticks close cycles");
            assert!(margin.ratio > Ratio::one(), "seed {seed}: {}", margin.ratio);
            assert_eq!(
                since(before),
                [0; 3],
                "seed {seed}: the fold before the prune at event {i}, or the query after it, \
                 ran a step of a margin it keeps"
            );
            folds += 1;
        }
        assert_eq!(
            mon.current_margin().unwrap().map(|m| m.ratio),
            replayed.map(|m| m.ratio),
            "seed {seed}"
        );
    }
    abc_obs::disable();
    assert_eq!(folds, 8, "every 625-event document is pruned exactly once");
}
