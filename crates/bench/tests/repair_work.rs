//! A count, not a timing: how many labels one frontier repair moves.
//!
//! The monitor repairs its potentials on the crate's negative-cycle kernel
//! (`crates/core/src/negcycle.rs`), started from the one node an append
//! left tense: subtree disassembly keeps a benign repair from zigzagging
//! through every path length, and a violation is known the moment the
//! repair closes a cycle. On the eight `wide` structures `serve_v2_wide`
//! replays — near-threshold documents, three of which latch — the
//! relaxation-count heuristic this replaced spent up to 72 relaxations per
//! live arc on a benign repair, 212–450 per live arc (1.4M / 5.0M / 3.7M)
//! on a latching one and 15 863 127 on the eight together. The counts come
//! from `MonitorStats` and the monitor's `abc_obs` counters; this file
//! holds one test because the recorder is process-wide (`check_work.rs`
//! beside it pins the batch checker's work the same way).

use abc_bench::workloads;
use abc_core::graph::EventId;
use abc_core::monitor::IncrementalChecker;
use abc_core::Xi;

/// Relaxations all eight documents together may take (201 987 measured).
const MOST_RELAXATIONS: u64 = 500_000;

/// The recorder's total of counter `name` so far.
fn counter(name: &str) -> u64 {
    let totals = abc_obs::snapshot().counter_totals();
    totals
        .iter()
        .find(|(counter, _)| *counter == name)
        .map_or(0, |(_, value)| *value)
}

#[test]
fn a_repair_moves_a_fraction_of_the_window_and_a_latch_less() {
    abc_obs::reset();
    abc_obs::enable(abc_obs::DEFAULT_RING_CAPACITY);
    let xi = Xi::from_integer(5);
    let mut latches = Vec::new();
    // The ledger's `wide` structures 0–7, in its order.
    for seed in [5, 18, 11, 8, 13, 19, 6, 16] {
        let trace = workloads::clocksync_trace(4, 1, 1, 12, seed, 10_000);
        let mut mon = IncrementalChecker::new(trace.num_processes(), &xi).unwrap();
        mon.enable_pruning(); // mirror-less, as served; nothing is pruned
        for (idx, ev) in trace.events().iter().enumerate() {
            let before = mon.stats().relaxations;
            match ev.trigger {
                None => {
                    mon.append_init(ev.process);
                }
                Some(mi) => {
                    let send = EventId(trace.messages()[mi].send_event);
                    mon.append_send(send, ev.process);
                }
            }
            let relaxations = mon.stats().relaxations - before;
            let arcs = mon.live_arcs() as u64;
            let latched = !mon.is_admissible();
            assert!(
                relaxations <= if latched { arcs } else { 2 * arcs },
                "seed {seed}, event {idx}: {relaxations} relaxations over {arcs} live arcs \
                 (latched: {latched})"
            );
            if latched {
                latches.push((seed, idx));
                break;
            }
        }
    }
    assert_eq!(latches, [(18, 2_179), (6, 3_725), (16, 2_722)]);
    assert_eq!(counter("monitor.confirm_sssp"), 3, "one pass per latch");
    // Every arc the appends before each latch added, held or deferred (an
    // untracked monitor builds its arena at its first tense append).
    assert_eq!(counter("monitor.arcs"), 175_791);
    let relaxations = counter("monitor.relaxations");
    assert!(
        (1..=MOST_RELAXATIONS).contains(&relaxations),
        "{relaxations} relaxations on the eight documents"
    );
    abc_obs::disable();
}
