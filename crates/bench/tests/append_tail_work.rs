//! A count, not a timing: the worst single append of a monitor that holds
//! its whole document (no prune horizon), at two document lengths.
//!
//! Earliest-feasible labels keep the past tight, so a frontier repair on a
//! near-threshold document can reach back along all of it: the work of
//! one append grows with the history behind it, and a shard serving that
//! session stalls its other sessions meanwhile.
//! `MonitorStats::max_append_relaxations` is the largest number of
//! relaxations one append made. On three admissible `wide` documents (the
//! ledger's structures 0, 4 and 5, clock synchronisation over four
//! processes with delays in `[1, 12]`, `Ξ = 5`), doubling the document
//! from 10 000 to 20 000 events — both below the latch, which comes at
//! event 29 200, 21 824 and 36 480 — multiplies the worst append by 1.7 to
//! 3.0. The counts are pinned exactly: a repair that reaches back less
//! (or more) moves them.

use abc_bench::workloads;
use abc_core::monitor::IncrementalChecker;
use abc_core::Xi;

#[test]
fn the_worst_append_grows_with_the_document() {
    let xi = Xi::from_integer(5);
    let mut mon = IncrementalChecker::new(4, &xi).unwrap();
    mon.enable_pruning(); // mirror-less, as served; nothing is pruned
    let mut worst = Vec::new();
    for seed in [5, 13, 19] {
        let at = [10_000, 20_000].map(|events| {
            let trace = workloads::clocksync_trace(4, 1, 1, 12, seed, events);
            let latch = trace.replay_until_violation_into(&mut mon, &xi).unwrap();
            assert_eq!(latch, None, "seed {seed}, {events} events");
            mon.stats().max_append_relaxations
        });
        assert!(at[1] > at[0], "seed {seed}: {at:?}");
        worst.push((seed, at));
    }
    assert_eq!(
        worst,
        [
            (5, [10_001, 30_294]),
            (13, [13_931, 23_728]),
            (19, [7_812, 14_201])
        ]
    );
}
