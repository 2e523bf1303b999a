//! A count, not a timing: how much monitor work one check does.
//!
//! `check::find_violation` replays the execution graph into a lent,
//! mirror-less monitor and stops at the append that latches. Each receive
//! gets its earliest-feasible label (every message charged its minimum
//! delay); only a message that arrives too late for its window starts a
//! frontier repair on the negative-cycle kernel
//! (`crates/core/src/negcycle.rs`), which scans only nodes whose label
//! moved. So a quiet `canon`-shaped document costs one append per message
//! and not one relaxation; the three `wide` structures `offline_check`
//! reads — near-threshold documents — cost exactly the appends, repairs
//! and relaxations pinned below. `assign_delays` is the same replay with
//! its potential read back, so it must add exactly that work again and
//! refuse with the same witness. The counts come from the monitor's own
//! `abc_obs` counters; this file holds one test because the recorder is
//! process-wide.

use abc_bench::workloads;
use abc_core::assign::{assign_delays, AssignError};
use abc_core::{certify, check, Xi};

/// The recorder's total of counter `name` so far.
fn counter(name: &str) -> u64 {
    let totals = abc_obs::snapshot().counter_totals();
    totals
        .iter()
        .find(|(counter, _)| *counter == name)
        .map_or(0, |(_, value)| *value)
}

/// The monitor work counted while a check runs: appended messages,
/// frontier repairs and kernel relaxations.
type Work = (u64, u64, u64);

/// The [`Work`] added by `f`, and its answer.
fn monitor_work<T>(f: impl FnOnce() -> T) -> (Work, T) {
    let read = || {
        (
            counter("monitor.appends"),
            counter("monitor.frontier_repairs"),
            counter("monitor.relaxations"),
        )
    };
    let before = read();
    let answer = f();
    let after = read();
    let work = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    (work, answer)
}

#[test]
fn a_batch_check_does_exactly_its_counted_work() {
    abc_obs::reset();
    abc_obs::enable(abc_obs::DEFAULT_RING_CAPACITY);
    let xi = Xi::from_integer(5);
    // A quiet `canon`-shaped document (band [1, 4]): every window is open,
    // so the replay's appends repair nothing.
    let g = workloads::clocksync_trace(4, 1, 1, 4, 42, 10_000).to_execution_graph();
    let quiet = (g.num_messages() as u64, 0, 0);
    let (work, witness) = monitor_work(|| check::find_violation(&g, &xi).unwrap());
    assert_eq!((work, witness), (quiet, None), "canon");
    let (work, assigned) = monitor_work(|| assign_delays(&g, &xi));
    assert_eq!(work, quiet, "canon");
    assert_eq!(
        certify::admissible(&g, &xi, &assigned.unwrap()),
        Ok(()),
        "canon"
    );
    // The ledger's `wide` structures 0–2. Structure 18 latches near event
    // 2 200, and the replay stops there, ≈7 800 events short of the end.
    let mut works = Vec::new();
    for (seed, violates) in [(5, false), (18, true), (11, false)] {
        let trace = workloads::clocksync_trace(4, 1, 1, 12, seed, 10_000);
        let g = trace.to_execution_graph();
        let (work, witness) = monitor_work(|| check::find_violation(&g, &xi).unwrap());
        assert_eq!(witness.is_some(), violates, "seed {seed}");
        // Theorem 7's assignment repeats that one replay: the same work,
        // the same answer, no second relaxation loop.
        let (again, assigned) = monitor_work(|| assign_delays(&g, &xi));
        assert_eq!(again, work, "seed {seed}");
        match (assigned, witness) {
            (Ok(timed), None) => {
                assert_eq!(certify::admissible(&g, &xi, &timed), Ok(()), "seed {seed}");
            }
            (Err(AssignError::NotAdmissible(cycle)), Some(witness)) => {
                assert_eq!(cycle, witness, "seed {seed}");
                assert_eq!(certify::violation(&g, &xi, &cycle), Ok(()), "seed {seed}");
            }
            (assigned, witness) => panic!("seed {seed}: {assigned:?} against {witness:?}"),
        }
        works.push((seed, work));
    }
    // 11 and 12 repairs on the admissible two.
    let pinned = [
        (5, (9_996, 11, 37_168)),
        (18, (2_176, 2, 891)),
        (11, (9_996, 12, 29_198)),
    ];
    assert_eq!(works, pinned);
    abc_obs::disable();
}
