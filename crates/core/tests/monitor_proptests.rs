//! Property tests for the incremental ABC monitor: after *every* appended
//! event, [`abc_core::monitor::IncrementalChecker`] must agree with the
//! batch checker — and, on small graphs, with brute-force enumeration.

use abc_core::check;
use abc_core::enumerate::{enumerate_relevant_cycles, EnumerationLimits};
use abc_core::graph::{EventId, ExecutionGraph, ProcessId};
use abc_core::monitor::{IncrementalChecker, MarginReport};
use abc_core::Xi;
use abc_rational::Ratio;
use proptest::prelude::*;

/// A random build script: `(sender_event, receiver_process)` pairs reduced
/// modulo the current state, as in the `abc-core` checker proptests.
type Script = Vec<(usize, usize)>;

fn script_strategy() -> impl Strategy<Value = (usize, Script)> {
    (
        2usize..5,
        proptest::collection::vec((any::<usize>(), any::<usize>()), 0..12),
    )
}

fn xi_strategy() -> impl Strategy<Value = Xi> {
    (1i64..8, 1i64..5)
        .prop_filter("Xi > 1", |(num, den)| num > den)
        .prop_map(|(num, den)| Xi::new(Ratio::new(num, den)).unwrap())
}

/// The brute-force maximum `|Z−|/|Z+|` over every relevant cycle of `g`.
fn enumerated_max_ratio(g: &ExecutionGraph) -> Option<Ratio> {
    enumerate_relevant_cycles(g, EnumerationLimits::default())
        .cycles
        .iter()
        .filter_map(|c| c.classify().ratio())
        .max()
}

/// `q` reaches `p` over two disjoint relay chains of `first` and `second`
/// messages, the `first`-chain arriving first: one cycle, relevant with
/// ratio `first/second` iff the longer chain is the one that arrives
/// first.
fn two_chains(first: usize, second: usize) -> ExecutionGraph {
    let mut b = ExecutionGraph::builder(first + second);
    let q = b.init(ProcessId(0));
    for i in 1..first + second {
        b.init(ProcessId(i));
    }
    let mut relay = 2;
    for hops in [first, second] {
        let mut cur = q;
        for _ in 1..hops {
            (_, cur) = b.send(cur, ProcessId(relay));
            relay += 1;
        }
        b.send(cur, ProcessId(1));
    }
    b.finish()
}

/// The three answers the max-ratio engine has separate code for — no
/// relevant cycle, ratio exactly 1 (the tight-arc pass), ratio above 1
/// (the ascent) — each against the enumeration.
#[test]
fn max_ratio_matches_enumeration_in_each_of_its_three_cases() {
    let acyclic = {
        let mut b = ExecutionGraph::builder(3);
        let a = b.init(ProcessId(0));
        b.init(ProcessId(1));
        b.init(ProcessId(2));
        b.send(a, ProcessId(1));
        b.send(a, ProcessId(2));
        b.finish()
    };
    for (g, expected) in [
        (acyclic, None),
        (two_chains(2, 2), Some(Ratio::one())),
        (two_chains(3, 3), Some(Ratio::one())),
        (two_chains(3, 2), Some(Ratio::new(3, 2))),
        (two_chains(5, 2), Some(Ratio::new(5, 2))),
        (two_chains(2, 5), None),
    ] {
        assert_eq!(enumerated_max_ratio(&g), expected);
        assert_eq!(check::max_relevant_cycle_ratio(&g).unwrap(), expected);
        assert_eq!(check::has_relevant_cycle(&g), expected.is_some());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact maximum cycle ratio equals the enumeration's at every
    /// prefix of a random script — a growing graph passes through "no
    /// relevant cycle", often "exactly 1", and "above 1" in turn.
    #[test]
    fn max_ratio_matches_enumeration_at_every_prefix((n, script) in script_strategy()) {
        let mut b = ExecutionGraph::builder(n);
        for p in 0..n {
            b.init(ProcessId(p));
        }
        for &(from, to) in &script {
            b.send(EventId(from % b.num_events()), ProcessId(to % n));
            let g = b.graph();
            prop_assert_eq!(
                check::max_relevant_cycle_ratio(g).unwrap(),
                enumerated_max_ratio(g),
                "prefix of {} events",
                g.num_events()
            );
        }
    }

    /// A pruning, margin-tracking monitor reports the batch margin of the
    /// whole execution at every prefix, whatever the prune cadence and Ξ
    /// (once latched, both monitors freeze at the witness's ratio) — and
    /// so does an untracked one that prunes but kept its mirror.
    #[test]
    fn tracked_pruned_margin_matches_batch_at_every_prefix(
        (n, script) in (2usize..5, proptest::collection::vec((any::<usize>(), any::<usize>()), 0..24)),
        xi in xi_strategy(),
        cadence in 1usize..5,
        horizon in 1usize..5,
    ) {
        let mut plain = IncrementalChecker::new(n, &xi).unwrap();
        let mut pruned = IncrementalChecker::new(n, &xi).unwrap();
        pruned.enable_pruning();
        pruned.enable_margin_tracking();
        let mut mirrored = IncrementalChecker::new(n, &xi).unwrap();
        for p in 0..n {
            plain.append_init(ProcessId(p));
            pruned.append_init(ProcessId(p));
            mirrored.append_init(ProcessId(p));
        }
        let mut total = n;
        for (step, &(back, to)) in script.iter().enumerate() {
            // Sends only name one of the last `horizon` events, so the
            // watermark below is an honest promise.
            let from = EventId(total - 1 - back % horizon.min(total));
            plain.append_send(from, ProcessId(to % n));
            pruned.append_send(from, ProcessId(to % n));
            mirrored.append_send(from, ProcessId(to % n));
            total += 1;
            let expected = if plain.is_admissible() {
                check::max_relevant_cycle_ratio(plain.graph()).unwrap()
            } else {
                plain.current_margin().unwrap().map(|m| m.ratio)
            };
            for mon in [&pruned, &mirrored] {
                let report = mon.current_margin().unwrap();
                prop_assert_eq!(
                    report.as_ref().map(|m| m.ratio.clone()),
                    expected.clone(),
                    "event {}", total
                );
                if let Some(MarginReport { ratio, witness: Some(w) }) = report {
                    prop_assert_eq!(w.classification.ratio(), Some(ratio));
                }
            }
            if step % cadence == 0 {
                let watermark = Some(EventId(total.saturating_sub(horizon)));
                pruned.prune_settled(watermark);
                mirrored.prune_settled(watermark);
            }
        }
    }

    /// Streaming the script through the monitor matches re-running the
    /// batch checker from scratch at every single prefix.
    #[test]
    fn monitor_agrees_with_batch_at_every_prefix(
        (n, script) in script_strategy(),
        xi in xi_strategy(),
    ) {
        let mut mon = IncrementalChecker::new(n, &xi).unwrap();
        for p in 0..n {
            mon.append_init(ProcessId(p));
            prop_assert!(mon.is_admissible(), "init events cannot violate");
        }
        for &(from, to) in &script {
            let from_event = EventId(from % mon.graph().num_events());
            mon.append_send(from_event, ProcessId(to % n));
            let batch = check::is_admissible(mon.graph(), &xi).unwrap();
            prop_assert_eq!(
                mon.is_admissible(),
                batch,
                "prefix of {} events: monitor {} vs batch {}",
                mon.graph().num_events(),
                mon.is_admissible(),
                batch
            );
            if let Some(w) = mon.violation() {
                prop_assert!(w.validate(mon.graph()).is_ok());
                prop_assert!(w.classify().violates(&xi));
            }
        }
    }

    /// On completed small graphs, the monitor's verdict also matches the
    /// enumeration ground truth: violated iff some relevant cycle has
    /// ratio >= Xi.
    #[test]
    fn monitor_agrees_with_enumeration(
        (n, script) in script_strategy(),
        xi in xi_strategy(),
    ) {
        let mut mon = IncrementalChecker::new(n, &xi).unwrap();
        for p in 0..n {
            mon.append_init(ProcessId(p));
        }
        for &(from, to) in &script {
            let from_event = EventId(from % mon.graph().num_events());
            mon.append_send(from_event, ProcessId(to % n));
        }
        let brute_max = enumerate_relevant_cycles(mon.graph(), EnumerationLimits::default())
            .cycles
            .iter()
            .filter_map(|c| c.classify().ratio())
            .max();
        let violated_by_enumeration =
            brute_max.as_ref().is_some_and(|r| r >= xi.as_ratio());
        prop_assert_eq!(!mon.is_admissible(), violated_by_enumeration);
    }

    /// Replaying a finished graph through `from_graph` gives the same
    /// verdict as streaming it event by event, and the same graph.
    #[test]
    fn from_graph_equals_streaming(
        (n, script) in script_strategy(),
        xi in xi_strategy(),
    ) {
        let mut mon = IncrementalChecker::new(n, &xi).unwrap();
        for p in 0..n {
            mon.append_init(ProcessId(p));
        }
        for &(from, to) in &script {
            let from_event = EventId(from % mon.graph().num_events());
            mon.append_send(from_event, ProcessId(to % n));
        }
        let replayed = IncrementalChecker::from_graph(mon.graph(), &xi).unwrap();
        prop_assert_eq!(replayed.graph(), mon.graph());
        prop_assert_eq!(replayed.is_admissible(), mon.is_admissible());
    }

    /// Faulty processes declared up front are exempt in both the monitor
    /// and the batch checker.
    #[test]
    fn monitor_handles_faulty_processes(
        (n, script) in script_strategy(),
        xi in xi_strategy(),
        faulty_pick in any::<usize>(),
    ) {
        let faulty = ProcessId(faulty_pick % n);
        let mut mon = IncrementalChecker::new(n, &xi).unwrap();
        mon.mark_faulty(faulty);
        for p in 0..n {
            mon.append_init(ProcessId(p));
        }
        for &(from, to) in &script {
            let from_event = EventId(from % mon.graph().num_events());
            mon.append_send(from_event, ProcessId(to % n));
            prop_assert_eq!(
                mon.is_admissible(),
                check::is_admissible(mon.graph(), &xi).unwrap()
            );
        }
        prop_assert!(mon.graph().is_faulty(faulty));
    }
}
