//! A count, not a timing: how much kernel work one batch check does.
//!
//! `check::find_violation` first certifies the timestamp potential of the
//! execution (every message charged its minimum delay); only when a
//! forward arc is tense under it does it build the arena and run the
//! worklist negative-cycle kernel (`crates/core/src/negcycle.rs`), which
//! scans only nodes whose label moved. So a quiet `canon`-shaped document
//! costs the kernel nothing at all, and the three `wide` structures
//! `offline_check` reads — near-threshold documents, where the full-arena
//! sweeps the kernel replaced went over every arc 974, ≈14 400 and 1 406
//! times — cost exactly the visits and relaxations pinned below, the run
//! the checker made before it certified first. `assign_delays` is the same
//! run with its potential kept, so it must add exactly that work again and
//! refuse with the same witness. The counts come from the kernel's own
//! `abc_obs` counters; this file holds one test because the recorder is
//! process-wide.

use abc_bench::workloads;
use abc_core::assign::{assign_delays, AssignError};
use abc_core::{check, Xi};

/// The recorder's total of counter `name` so far.
fn counter(name: &str) -> u64 {
    let totals = abc_obs::snapshot().counter_totals();
    totals
        .iter()
        .find(|(counter, _)| *counter == name)
        .map_or(0, |(_, value)| *value)
}

/// `(check.arc_visits, check.relaxations)` added by `f`, and its answer.
fn kernel_work<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = (counter("check.arc_visits"), counter("check.relaxations"));
    let answer = f();
    let after = (counter("check.arc_visits"), counter("check.relaxations"));
    ((after.0 - before.0, after.1 - before.1), answer)
}

#[test]
fn a_batch_check_does_exactly_its_counted_work() {
    abc_obs::reset();
    abc_obs::enable(abc_obs::DEFAULT_RING_CAPACITY);
    let xi = Xi::from_integer(5);
    // A quiet `canon`-shaped document (band [1, 4]): its timestamp
    // potential is feasible, so neither call reaches the kernel.
    let g = workloads::clocksync_trace(4, 1, 1, 4, 42, 10_000).to_execution_graph();
    let (work, witness) = kernel_work(|| check::find_violation(&g, &xi).unwrap());
    assert_eq!((work, witness), ((0, 0), None), "canon");
    let (work, assigned) = kernel_work(|| assign_delays(&g, &xi));
    assert_eq!(work, (0, 0), "canon");
    assert!(assigned.unwrap().is_normalized(&g, &xi), "canon");
    // The ledger's `wide` structures 0–2. Structure 18 latches near event
    // 2 200 and is checked whole here, ≈7 800 events past the latch.
    let mut works = Vec::new();
    for (seed, violates) in [(5, false), (18, true), (11, false)] {
        let trace = workloads::clocksync_trace(4, 1, 1, 12, seed, 10_000);
        let g = trace.to_execution_graph();
        let (work, witness) = kernel_work(|| check::find_violation(&g, &xi).unwrap());
        assert_eq!(witness.is_some(), violates, "seed {seed}");
        // Theorem 7's assignment repeats that one run: the same work, the
        // same answer, no second relaxation loop.
        let (again, assigned) = kernel_work(|| assign_delays(&g, &xi));
        assert_eq!(again, work, "seed {seed}");
        match (assigned, witness) {
            (Ok(timed), None) => assert!(timed.is_normalized(&g, &xi), "seed {seed}"),
            (Err(AssignError::NotAdmissible(cycle)), Some(witness)) => {
                assert_eq!(cycle, witness, "seed {seed}");
            }
            (assigned, witness) => panic!("seed {seed}: {assigned:?} against {witness:?}"),
        }
        works.push((seed, work));
    }
    // 2.4, 1.0 and 2.9 visits per arc of ≈30 000.
    let pinned = [
        (5, (71_992, 13_682)),
        (18, (30_247, 88)),
        (11, (87_144, 19_263)),
    ];
    assert_eq!(works, pinned);
    abc_obs::disable();
}
