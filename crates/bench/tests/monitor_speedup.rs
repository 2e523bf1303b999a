//! Correctness half of the incremental-vs-batch claim. The speed half is a
//! measurement, not a test: one batch check replays its graph into a
//! monitor once, a few tens of nanoseconds per event on a quiet trace, but
//! a re-check after every event is O(n) per event, so checking a growing
//! trace that way is orders of magnitude dearer than monitoring it.
//! `bench_ledger` carries both figures as
//! `core.monitor.append_ns_per_event` and
//! `core.check.find_violation_ns_per_event` (run
//! `cargo run --release -p abc-bench --bin bench_ledger -- run`; how much
//! monitor work one batch check does is pinned by count in
//! `check_work.rs`). What is asserted here holds on any machine: streaming
//! a trace and replaying its graph reach one certified verdict, a pruned
//! monitor compacts the stream without changing the verdict, and an
//! untracked monitor holds no arena on a quiet stream.

use abc_bench::workloads;
use abc_core::assign::assign_delays;
use abc_core::monitor::IncrementalChecker;
use abc_core::{certify, check, EventId, Xi};

#[test]
fn incremental_append_beats_batch_recheck_by_10x() {
    let events = 2_000usize;
    let xi = Xi::from_integer(5);
    let trace = workloads::clocksync_trace(4, 1, 1, 4, 42, events);
    let g = trace.to_execution_graph();
    assert_eq!(g.num_events(), events);

    // Streaming all `events` appends reaches the verdict of one batch
    // check at full size, and the verdict carries its certificate.
    let mon = trace.replay_into_monitor(&xi).unwrap();
    assert!(mon.is_admissible());
    assert!(check::is_admissible(&g, &xi).unwrap());
    let timed = assign_delays(&g, &xi).unwrap();
    assert_eq!(certify::admissible(&g, &xi, &timed), Ok(()));
}

#[test]
fn bounded_monitor_compacts_the_10k_stream_with_the_same_verdict() {
    // Band [1, 4] is admissible for Ξ = 5, so neither monitor exits early
    // via a latch.
    let events = 10_000usize;
    let xi = Xi::from_integer(5);
    let trace = workloads::clocksync_trace(4, 1, 1, 4, 42, events);
    let g = trace.to_execution_graph();
    assert_eq!(g.num_events(), events, "trace did not reach the budget");
    assert!(check::is_admissible(&g, &xi).unwrap());

    let plain = trace.replay_into_monitor(&xi).unwrap();
    // The pruned monitor: no mirror, and every 256 appends a prune at the
    // exact lookahead watermark, the oldest send event any remaining step
    // names (oldest[i] for the steps at index `i` or later).
    let sends: Vec<Option<usize>> = trace
        .events()
        .iter()
        .map(|ev| ev.trigger.map(|mi| trace.messages()[mi].send_event))
        .collect();
    let mut oldest = vec![usize::MAX; events + 1];
    for (i, send) in sends.iter().enumerate().rev() {
        oldest[i] = send.unwrap_or(usize::MAX).min(oldest[i + 1]);
    }
    let mut pruned = IncrementalChecker::new(trace.num_processes(), &xi).unwrap();
    pruned.enable_pruning();
    for (i, ev) in trace.events().iter().enumerate() {
        match sends[i] {
            None => {
                pruned.append_init(ev.process);
            }
            Some(send) => {
                pruned.append_send(EventId(send), ev.process);
            }
        }
        if (i + 1) % 256 == 0 {
            pruned.prune_settled(Some(EventId(oldest[i + 1].min(i + 1))));
        }
    }
    assert!(plain.is_admissible());
    assert!(pruned.is_admissible(), "pruned verdict must match");
    let (plain, pruned) = (plain.stats(), pruned.stats());
    assert!(
        pruned.pruned_events > events / 2,
        "the pruned monitor must compact most of the stream, got {}",
        pruned.pruned_events
    );
    assert!(
        pruned.live_events_peak < plain.live_events_peak / 4,
        "pruning must cut the live window: {} vs {}",
        pruned.live_events_peak,
        plain.live_events_peak
    );
}

#[test]
fn an_untracked_monitor_builds_no_arena_on_the_quiet_10k_stream() {
    // The same quiet stream: no append goes tense at Ξ = 5, so a monitor
    // that neither prunes nor keeps its margin never builds its arena, and
    // still counts every arc it would hold.
    let events = 10_000usize;
    let xi = Xi::from_integer(5);
    let trace = workloads::clocksync_trace(4, 1, 1, 4, 42, events);
    let replayed = |tracking: bool| {
        let mut mon = IncrementalChecker::new(trace.num_processes(), &xi).unwrap();
        mon.enable_pruning(); // mirror-less, as a served session's
        if tracking {
            mon.enable_margin_tracking();
        }
        assert_eq!(trace.replay_until_violation_into(&mut mon, &xi), Ok(None));
        mon
    };
    let (untracked, tracked) = (replayed(false), replayed(true));
    let stats = untracked.stats();
    assert_eq!(stats.events, events);
    assert_eq!(stats.relaxations, 0, "a quiet stream relaxes nothing");
    assert_eq!(untracked.live_arcs(), stats.arcs);
    assert_eq!(stats.arcs, tracked.stats().arcs);
    // The tracking monitor holds the arena: arcs, out-lists and a second
    // label column beside the per-event columns both keep.
    assert!(
        2 * untracked.capacity() <= tracked.capacity(),
        "capacity {} untracked against {} tracked",
        untracked.capacity(),
        tracked.capacity()
    );
}
