//! A count, not a timing: how many cycle probes one exact margin costs.
//!
//! An untracked monitor searches for its margin: the max-cycle-ratio
//! engine climbs from cycle to cycle, a few *yes* probes plus one *no* —
//! where the bisection it replaced always ran 28 probes plus the ratio-1
//! line-graph pass. Each probe is one run of the worklist negative-cycle
//! kernel (`crates/core/src/negcycle.rs`), and which cycle a *yes* hands
//! back — hence how many steps the ascent takes — is the kernel's choice:
//! on these eight documents the closing query takes 2–3 probes, against a
//! bound of 8. A tracking monitor keeps its margin as appends come in, so
//! neither the fold before a prune nor its queries run a probe at all
//! (`margin_work.rs` beside it pins what keeping costs instead). The counts
//! come from the engine's own `abc_obs` counters; this file holds one test
//! because the recorder is process-wide (`check_work.rs` beside it pins the
//! kernel's own work the same way).

use abc_bench::workloads;
use abc_core::monitor::IncrementalChecker;
use abc_core::{EventId, Xi};
use abc_rational::Ratio;

const HORIZON: usize = 256;
const MOST_PROBES: u64 = 8;

/// `(monitor.ratio_probes, monitor.ratio_one_passes)` run since `earlier`.
fn probes_since(earlier: (u64, u64)) -> (u64, u64) {
    let now = probe_counts();
    (now.0 - earlier.0, now.1 - earlier.1)
}

/// `(monitor.ratio_probes, monitor.ratio_one_passes)` so far.
fn probe_counts() -> (u64, u64) {
    let totals = abc_obs::snapshot().counter_totals();
    let total = |name: &str| {
        totals
            .iter()
            .find(|(counter, _)| *counter == name)
            .map_or(0, |(_, value)| *value)
    };
    (
        total("monitor.ratio_probes"),
        total("monitor.ratio_one_passes"),
    )
}

#[test]
fn a_margin_costs_a_handful_of_cycle_probes_and_no_ratio_one_pass() {
    abc_obs::reset();
    abc_obs::enable(abc_obs::DEFAULT_RING_CAPACITY);
    let xi = Xi::from_integer(5);
    let mut folds = 0;
    for seed in 1..=8 {
        // The `serve_v2_bounded` document shape, pruned as a session
        // prunes it: once the window passes 2·horizon, down to horizon
        // behind the frontier or the oldest undelivered send.
        let trace = workloads::clocksync_trace(4, 1, 1, 4, seed, 625);
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
            let before = probe_counts();
            let watermark = (i + 1 - HORIZON).min(oldest_send[i + 1]);
            assert!(mon.prune_settled(Some(EventId(watermark))) > 0);
            let margin = mon.current_margin().unwrap().expect("ticks close cycles");
            assert!(margin.ratio > Ratio::one(), "seed {seed}: {}", margin.ratio);
            assert_eq!(
                probes_since(before),
                (0, 0),
                "seed {seed}: the fold before the prune at event {i}, or the query after it, \
                 searched for a margin it keeps"
            );
            folds += 1;
        }
        // An untracked monitor searches, within the bound; the kept margin
        // equals what it finds.
        let plain = trace.replay_into_monitor(&xi).unwrap();
        let before = probe_counts();
        let searched = plain.current_margin().unwrap().map(|m| m.ratio);
        let (probes, ones) = probes_since(before);
        assert!((2..=MOST_PROBES).contains(&probes), "seed {seed}: {probes}");
        assert_eq!(
            ones, 0,
            "seed {seed}: a margin above 1 needs no ratio-1 pass"
        );
        assert_eq!(
            mon.current_margin().unwrap().map(|m| m.ratio),
            searched,
            "seed {seed}"
        );
    }
    abc_obs::disable();
    assert_eq!(folds, 8, "every 625-event document is pruned exactly once");
}
