//! Property tests for bounded-memory monitoring over *random clocksync and
//! gossip runs*: a pruning monitor (settled-prefix compaction at an honest
//! watermark, any cadence) must report the same verdict, latch at the same
//! event, produce byte-identical `Cycle` witnesses and wire summaries, and
//! end at the same margin as an unpruned monitor — and both must agree
//! with the batch checker.

use abc_clocksync::TickGen;
use abc_core::monitor::{IncrementalChecker, MonitorStats};
use abc_core::{check, EventId, ProcessId, Xi};
use abc_sim::delay::BandDelay;
use abc_sim::{Context, CrashAt, Process, RunLimits, Simulation, Trace};
use proptest::prelude::*;

/// Broadcast at wake-up, echo `m + 1` to each sender until the reply
/// budget is spent (the harness CLI's gossip protocol).
struct Gossip {
    budget: u32,
}

impl Process<u64> for Gossip {
    fn on_init(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.broadcast(0);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: ProcessId, msg: &u64) {
        if self.budget > 0 {
            self.budget -= 1;
            ctx.send(from, msg + 1);
        }
    }
}

fn clocksync_run(n: usize, lo: u64, hi: u64, seed: u64, crash_last: bool, events: usize) -> Trace {
    let mut sim = Simulation::new(BandDelay::new(lo, hi, seed));
    for slot in 0..n {
        if crash_last && slot == n - 1 {
            sim.add_faulty_process(CrashAt::new(TickGen::new(n, 1), 4));
        } else {
            sim.add_process(TickGen::new(n, 1));
        }
    }
    sim.run(RunLimits {
        max_events: events,
        max_time: u64::MAX,
    });
    sim.trace().clone()
}

fn gossip_run(n: usize, lo: u64, hi: u64, seed: u64, budget: u32, events: usize) -> Trace {
    let mut sim = Simulation::new(BandDelay::new(lo, hi, seed));
    for _ in 0..n {
        sim.add_process(Gossip { budget });
    }
    sim.run(RunLimits {
        max_events: events,
        max_time: u64::MAX,
    });
    sim.trace().clone()
}

/// Replays `trace` into an unpruned monitor and a pruning monitor (prune
/// every `prune_every` appends at the exact lookahead watermark), checking
/// step-by-step that verdicts flip at the same event; then asserts final
/// verdict, witness bytes, wire summaries and margins are identical, and
/// that both agree with the batch checker over the full execution graph.
/// Returns the pruning monitor's stats.
fn assert_three_way_equivalence(trace: &Trace, xi: &Xi, prune_every: usize) -> MonitorStats {
    let mut plain = IncrementalChecker::new(trace.num_processes(), xi).unwrap();
    let mut pruned = IncrementalChecker::new(trace.num_processes(), xi).unwrap();
    pruned.enable_pruning();
    for p in 0..trace.num_processes() {
        if trace.is_faulty(ProcessId(p)) {
            plain.mark_faulty(ProcessId(p));
            pruned.mark_faulty(ProcessId(p));
        }
    }
    let events = trace.events();
    let messages = trace.messages();
    let mut suffix_min: Vec<usize> = vec![usize::MAX; events.len() + 1];
    for (idx, ev) in events.iter().enumerate().rev() {
        let named = ev.trigger.map_or(usize::MAX, |mi| messages[mi].send_event);
        suffix_min[idx] = named.min(suffix_min[idx + 1]);
    }
    for (idx, ev) in events.iter().enumerate() {
        match ev.trigger {
            None => {
                plain.append_init(ev.process);
                pruned.append_init(ev.process);
            }
            Some(mi) => {
                let send = EventId(messages[mi].send_event);
                plain.append_send(send, ev.process);
                pruned.append_send(send, ev.process);
            }
        }
        assert_eq!(
            plain.is_admissible(),
            pruned.is_admissible(),
            "verdicts diverged at event {idx}"
        );
        if (idx + 1) % prune_every == 0 {
            let watermark = suffix_min[idx + 1].min(idx + 1);
            pruned.prune_settled(Some(EventId(watermark)));
        }
    }
    assert_eq!(
        plain.violation().map(|c| format!("{c}")),
        pruned.violation().map(|c| format!("{c}")),
        "witness cycles must be byte-identical"
    );
    assert_eq!(
        plain.violation_summary().map(|s| s.wire().to_string()),
        pruned.violation_summary().map(|s| s.wire().to_string()),
        "wire summaries must be byte-identical"
    );
    let g = trace.to_execution_graph();
    assert_eq!(
        check::is_admissible(&g, xi).unwrap(),
        plain.is_admissible(),
        "monitor and batch checker disagree"
    );
    // Every prune keeps the margin: the mirror-less monitor reports the
    // unpruned one's.
    let margin = |mon: &IncrementalChecker| mon.current_margin().unwrap().map(|m| m.ratio);
    assert_eq!(margin(&pruned), margin(&plain), "margins must agree");
    pruned.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random clocksync runs across comfortable and reordering-heavy delay
    /// bands: pruned ≡ unpruned ≡ batch, at every pruning cadence.
    #[test]
    fn clocksync_pruned_monitor_matches_unpruned_and_batch(
        n in 4usize..7,
        lo in 1u64..12,
        spread in 0u64..9,
        seed in any::<u64>(),
        crash_last in any::<bool>(),
        prune_every in 1usize..40,
        xi_num in 3i64..6,
    ) {
        let trace = clocksync_run(n, lo, lo + spread, seed, crash_last, 300);
        let xi = Xi::from_fraction(xi_num, 2);
        assert_three_way_equivalence(&trace, &xi, prune_every);
    }

    /// Random gossip runs (echo budgets drain to quiescence): same
    /// three-way equivalence.
    #[test]
    fn gossip_pruned_monitor_matches_unpruned_and_batch(
        n in 3usize..6,
        lo in 1u64..10,
        spread in 0u64..8,
        seed in any::<u64>(),
        budget in 5u32..40,
        prune_every in 1usize..25,
        xi_num in 3i64..6,
    ) {
        let trace = gossip_run(n, lo, lo + spread, seed, budget, 400);
        let xi = Xi::from_fraction(xi_num, 2);
        assert_three_way_equivalence(&trace, &xi, prune_every);
    }
}

#[test]
fn long_reordering_run_latches_identically_and_actually_prunes() {
    // A 10k-event reordering-prone clocksync stream: the pruning monitor
    // must compact real state and still latch the same violation at the
    // same sequence number with the same bytes.
    let xi = Xi::from_fraction(3, 2);
    let admissible = clocksync_run(4, 10, 19, 7, false, 10_000);
    let trace = clocksync_run(4, 1, 9, 7, false, 10_000);
    let bounded = assert_three_way_equivalence(&trace, &xi, 16);
    assert!(
        bounded.pruned_events > 0,
        "a 10k-event stream must compact something"
    );
    // The admissible stream prunes nearly everything as it goes.
    let bounded = assert_three_way_equivalence(&admissible, &xi, 16);
    assert!(
        bounded.pruned_events > 9_000,
        "expected deep compaction, got {}",
        bounded.pruned_events
    );
    assert!(
        bounded.live_events_peak < 2_000,
        "live window stayed at {}",
        bounded.live_events_peak
    );
}
