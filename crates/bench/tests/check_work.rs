//! A count, not a timing: how much of the arena one batch check touches.
//!
//! `check::find_violation` runs the worklist negative-cycle kernel
//! (`crates/core/src/negcycle.rs`) once, and the kernel scans only nodes
//! whose label moved. On the three `wide` structures `offline_check`
//! reads — near-threshold documents, where the full-arena sweeps it
//! replaced went over every arc 974, ≈14 400 and 1 406 times — a check
//! must examine each arc a handful of times. `assign_delays` is the same
//! run with its potential kept, so it must add exactly that work again and
//! refuse with the same witness. The counts come from the kernel's own
//! `abc_obs` counters; this file holds one test because the recorder is
//! process-wide.

use abc_bench::workloads;
use abc_core::assign::{assign_delays, AssignError};
use abc_core::traversal::TraversalGraph;
use abc_core::{check, Xi};

/// Arc examinations per arc of the graph one `find_violation` may make.
const MOST_VISITS_PER_ARC: u64 = 8;

/// The recorder's total of counter `name` so far.
fn counter(name: &str) -> u64 {
    let totals = abc_obs::snapshot().counter_totals();
    totals
        .iter()
        .find(|(counter, _)| *counter == name)
        .map_or(0, |(_, value)| *value)
}

#[test]
fn a_batch_check_examines_each_arc_a_handful_of_times() {
    abc_obs::reset();
    abc_obs::enable(abc_obs::DEFAULT_RING_CAPACITY);
    let xi = Xi::from_integer(5);
    // The ledger's `wide` structures 0–2. Structure 18 latches near event
    // 2 200 and is checked whole here, ≈7 800 events past the latch.
    for (seed, violates) in [(5, false), (18, true), (11, false)] {
        let trace = workloads::clocksync_trace(4, 1, 1, 12, seed, 10_000);
        let g = trace.to_execution_graph();
        let arcs = TraversalGraph::from_graph(&g).num_arcs() as u64;
        let before = (counter("check.arc_visits"), counter("check.relaxations"));
        let witness = check::find_violation(&g, &xi).unwrap();
        let visits = counter("check.arc_visits") - before.0;
        let relaxations = counter("check.relaxations") - before.1;
        assert_eq!(witness.is_some(), violates, "seed {seed}");
        assert!(
            (1..=MOST_VISITS_PER_ARC * arcs).contains(&visits),
            "seed {seed}: {visits} arc visits over {arcs} arcs ({relaxations} relaxations)"
        );
        assert!(relaxations <= visits, "seed {seed}");
        // Theorem 7's assignment repeats that one run: the same work, the
        // same answer, no second relaxation loop.
        let assigned = assign_delays(&g, &xi);
        let work = (
            counter("check.arc_visits") - before.0 - visits,
            counter("check.relaxations") - before.1 - relaxations,
        );
        assert_eq!(work, (visits, relaxations), "seed {seed}");
        match (assigned, witness) {
            (Ok(timed), None) => assert!(timed.is_normalized(&g, &xi), "seed {seed}"),
            (Err(AssignError::NotAdmissible(cycle)), Some(witness)) => {
                assert_eq!(cycle, witness, "seed {seed}");
            }
            (assigned, witness) => panic!("seed {seed}: {assigned:?} against {witness:?}"),
        }
    }
    abc_obs::disable();
}
