//! Sanity check for the claim `bench_ledger`'s `core.monitor.*` and
//! `core.check.*` rows quantify: appended-event checking via the incremental monitor is at least 10×
//! faster than batch re-checking on a growing clocksync trace.
//!
//! The real margin is orders of magnitude; the 10× assertion here (on a
//! debug build, with a smaller trace than the benchmark's 10k events) is
//! deliberately loose so CI timing noise cannot flake it.

use std::time::Instant;

use abc_bench::workloads;
use abc_core::{check, Xi};

#[test]
fn incremental_append_beats_batch_recheck_by_10x() {
    let events = 2_000usize;
    let xi = Xi::from_integer(5);
    let trace = workloads::clocksync_trace(4, 1, 1, 4, 42, events);
    let g = trace.to_execution_graph();
    assert_eq!(g.num_events(), events);

    // Warm-up + correctness: the two deciders agree.
    let mon = trace.replay_into_monitor(&xi).unwrap();
    assert!(mon.is_admissible());
    assert!(check::is_admissible(&g, &xi).unwrap());

    // Streaming ALL `events` appends, timed as a whole.
    let t0 = Instant::now();
    let mon = trace.replay_into_monitor(&xi).unwrap();
    let stream_total = t0.elapsed();
    assert!(mon.is_admissible());

    // ONE batch re-check at full size — the cost a batch-based monitor
    // would pay per appended event.
    let t1 = Instant::now();
    assert!(check::is_admissible(&g, &xi).unwrap());
    let batch_once = t1.elapsed();

    // per-event incremental = stream_total / events; require
    // batch_once >= 10 * per-event, i.e. stream_total * 10 <= batch_once * events.
    assert!(
        stream_total * 10 <= batch_once * (events as u32),
        "incremental per-event append not >=10x faster: streamed {events} events \
         in {stream_total:?} vs one batch re-check in {batch_once:?}"
    );
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
    let pruned = trace.replay_into_monitor_bounded(&xi, 256).unwrap();
    assert!(plain.is_admissible());
    assert!(pruned.is_admissible(), "pruned verdict must match");
    let (plain, pruned) = (plain.stats(), pruned.stats());
    assert!(
        pruned.pruned_events > events / 2,
        "the bounded monitor must compact most of the stream, got {}",
        pruned.pruned_events
    );
    assert!(
        pruned.live_events_peak < plain.live_events_peak / 4,
        "pruning must cut the live window: {} vs {}",
        pruned.live_events_peak,
        plain.live_events_peak
    );
}
