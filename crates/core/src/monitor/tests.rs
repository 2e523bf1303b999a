use super::margin::{
    charged_line, kept_labels_fit, margin_envelope, step_reverses, CostLine, MarginSig,
};
use super::prune::{Cut, PassWork, ShortcutTable};
use super::repair::{LexScratch, OutArc};
use super::window::{Window, Windows};
use super::witness::PathRef;
use super::*;
use crate::cycle::{CycleStep, ShadowEdge};
use crate::negcycle::Label;
use crate::traversal::Arc;
use crate::{assign, certify, check};
use abc_rational::Ratio;
use proptest::prelude::*;

/// Replays the batch-test "two chains" shape through the monitor.
fn stream_two_chain(hops: usize, xi: &Xi) -> IncrementalChecker {
    let mut mon = IncrementalChecker::new(hops + 1, xi).unwrap();
    let q = mon.append_init(ProcessId(0));
    for i in 1..=hops {
        mon.append_init(ProcessId(i));
    }
    let mut cur = q;
    for i in 2..=hops {
        let (_, r) = mon.append_send(cur, ProcessId(i));
        cur = r;
    }
    mon.append_send(cur, ProcessId(1));
    assert!(
        mon.is_admissible(),
        "no relevant cycle before the spanning message"
    );
    mon.append_send(q, ProcessId(1));
    mon
}

#[test]
fn detects_violation_exactly_at_the_closing_event() {
    for hops in 2..=6 {
        // Violating at Xi = hops (ratio == Xi), admissible just above.
        let at = Xi::from_integer(hops as i64);
        let mon = stream_two_chain(hops, &at);
        let w = mon.violation().expect("ratio hops >= hops");
        assert!(w.validate(mon.graph()).is_ok());
        assert!(w.classify().violates(&at));
        let above = Xi::new(Ratio::from_integer(hops as i64) + Ratio::new(1, 7)).unwrap();
        let mon = stream_two_chain(hops, &above);
        assert!(mon.is_admissible(), "hops = {hops}");
    }
}

#[test]
fn violation_is_latched() {
    let xi = Xi::from_integer(2);
    let mut mon = stream_two_chain(3, &xi);
    assert!(!mon.is_admissible());
    let before = mon.violation().cloned();
    // Appending more traffic does not clear the latch.
    let (_, r) = mon.append_send(EventId(0), ProcessId(2));
    let _ = mon.append_send(r, ProcessId(0));
    assert_eq!(mon.violation().cloned(), before);
}

/// Certifies the monitor's verdict on its own graph, with checks that
/// share no code with it ([`certify`]): its latched witness as a
/// violation, or the assignment `assign_delays` reads off a replay of the
/// graph as admissibility.
fn assert_certified(mon: &IncrementalChecker) {
    let (g, xi) = (mon.graph(), mon.xi());
    let certified = match mon.violation() {
        Some(cycle) => certify::violation(g, xi, cycle),
        None => assign::assign_delays(g, xi)
            .map_err(|e| e.to_string())
            .and_then(|timed| certify::admissible(g, xi, &timed)),
    };
    assert_eq!(certified, Ok(()), "{} events", g.num_events());
}

/// Certifies `margin` as the maximum ratio of `g`'s relevant cycles: a
/// cycle that the replay of `find_violation` finds at the margin, and the
/// assignment `assign_delays` gives just above it ([`certify::margin`]).
fn assert_margin_certified(g: &ExecutionGraph, margin: Option<&Ratio>) {
    let at = margin.filter(|&m| *m > Ratio::one()).cloned();
    let witness = at.map(|m| check::find_violation(g, &Xi::new(m).unwrap()).unwrap());
    let witness = witness.map(|w| w.expect("a cycle at the margin"));
    let timed = assign::assign_delays(g, &certify::above_margin(g, margin)).unwrap();
    assert_eq!(certify::margin(g, margin, witness.as_ref(), &timed), Ok(()));
}

#[test]
fn agrees_with_batch_after_every_event() {
    // A dense little exchange, checked step by step.
    let xi = Xi::from_fraction(3, 2);
    let mut mon = IncrementalChecker::new(3, &xi).unwrap();
    let script: &[(usize, usize)] = &[(0, 1), (1, 2), (2, 0), (0, 2), (3, 1), (2, 1), (1, 0)];
    let e0 = mon.append_init(ProcessId(0));
    mon.append_init(ProcessId(1));
    mon.append_init(ProcessId(2));
    let _ = e0;
    for &(from, to) in script {
        let from = EventId(from % mon.graph().num_events());
        mon.append_send(from, ProcessId(to % 3));
        assert_certified(&mon);
    }
}

#[test]
fn faulty_and_exempt_messages_carry_no_arcs() {
    // two_chain(4) violates Xi = 3/2 — unless the chain's relay is
    // faulty or the spanning message is exempt.
    let xi = Xi::from_fraction(3, 2);
    let mut mon = IncrementalChecker::new(5, &xi).unwrap();
    mon.mark_faulty(ProcessId(4));
    let q = mon.append_init(ProcessId(0));
    for i in 1..=4 {
        mon.append_init(ProcessId(i));
    }
    let (_, r2) = mon.append_send(q, ProcessId(2));
    let (_, r3) = mon.append_send(r2, ProcessId(3));
    let (_, r4) = mon.append_send(r3, ProcessId(4)); // faulty relay
    mon.append_send(r4, ProcessId(1));
    mon.append_send(q, ProcessId(1));
    assert!(mon.is_admissible(), "faulty relay breaks the chain");
    assert_certified(&mon);

    let mut mon = IncrementalChecker::new(5, &xi).unwrap();
    let q = mon.append_init(ProcessId(0));
    for i in 1..=4 {
        mon.append_init(ProcessId(i));
    }
    let (_, r2) = mon.append_send(q, ProcessId(2));
    let (_, r3) = mon.append_send(r2, ProcessId(3));
    let (_, r4) = mon.append_send(r3, ProcessId(4));
    mon.append_send(r4, ProcessId(1));
    mon.append_send_exempt(q, ProcessId(1));
    assert!(mon.is_admissible(), "exempt spanning message");
    assert_certified(&mon);
}

#[test]
fn mark_faulty_after_sending_panics() {
    let xi = Xi::from_integer(2);
    let mut mon = IncrementalChecker::new(2, &xi).unwrap();
    let a = mon.append_init(ProcessId(0));
    mon.append_init(ProcessId(1));
    mon.append_send(a, ProcessId(1));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        mon.mark_faulty(ProcessId(0));
    }));
    assert!(r.is_err());
}

#[test]
fn from_graph_replays_faithfully() {
    let xi = Xi::from_fraction(5, 2);
    for hops in 2..=5 {
        let mut b = ExecutionGraph::builder(hops + 1);
        let q = b.init(ProcessId(0));
        for i in 1..=hops {
            b.init(ProcessId(i));
        }
        let mut cur = q;
        for i in 2..=hops {
            let (_, r) = b.send(cur, ProcessId(i));
            cur = r;
        }
        b.send(cur, ProcessId(1));
        b.send(q, ProcessId(1));
        let g = b.finish();
        let mon = IncrementalChecker::from_graph(&g, &xi).unwrap();
        assert_eq!(mon.graph(), &g);
        assert_eq!(mon.is_admissible(), hops < 3, "hops = {hops}");
        assert_certified(&mon);
    }
}

#[test]
fn xi_beyond_i64_is_rejected() {
    let wide = Xi::new(Ratio::from_bigints(
        abc_rational::BigInt::from(1i128 << 80),
        abc_rational::BigInt::from(3),
    ))
    .unwrap();
    assert_eq!(
        IncrementalChecker::new(2, &wide).err(),
        Some(CheckError::XiTooLarge)
    );
}

#[test]
fn stats_reflect_the_stream() {
    // Comfortably admissible: every append's feasible window is open,
    // so the earliest-label assignment does zero relaxation work.
    let xi = Xi::from_integer(3);
    let mon = stream_two_chain(2, &xi);
    let s = mon.stats();
    assert_eq!(s.events, 6); // 3 inits + 3 receive events
    assert_eq!(s.messages, 3);
    assert!(s.arcs >= 2 * s.messages);
    assert_eq!(s.relaxations, 0, "no spanning message, no repair");
    assert_eq!(s.pruned_events, 0);
    assert_eq!(s.live_events_peak, 6);
    // A violating stream must do real work: the tension propagates until
    // it closes the cycle.
    let xi = Xi::from_integer(2);
    let mon = stream_two_chain(2, &xi);
    assert!(!mon.is_admissible());
    assert!(mon.stats().relaxations > 0);
}

#[test]
fn violation_summary_matches_the_graph_summary() {
    let xi = Xi::from_integer(2);
    let mon = stream_two_chain(4, &xi);
    let w = mon.violation().expect("ratio 4 >= 2");
    let summary = mon.violation_summary().expect("summary latched with it");
    assert_eq!(summary, &w.summarize(mon.graph()));
    assert!(summary.classification.violates(&xi));
}

/// Streams a near-frontier script into two monitors, pruning one of
/// them after every append with an honest watermark (scripts only ever
/// send from the last `horizon` events), and asserts identical
/// verdicts and witness bytes at every step.
fn assert_prune_equivalent(n: usize, script: &[(usize, usize)], xi: &Xi) {
    const HORIZON: usize = 3;
    let mut plain = IncrementalChecker::new(n, xi).unwrap();
    let mut pruned = IncrementalChecker::new(n, xi).unwrap();
    pruned.enable_pruning();
    for p in 0..n {
        plain.append_init(ProcessId(p));
        pruned.append_init(ProcessId(p));
    }
    let mut total = n;
    for &(back, to) in script {
        let from = EventId(total - 1 - (back % HORIZON.min(total)));
        plain.append_send(from, ProcessId(to % n));
        pruned.append_send(from, ProcessId(to % n));
        total += 1;
        assert_eq!(plain.is_admissible(), pruned.is_admissible());
        assert_eq!(
            plain.violation_summary().map(|s| s.wire().to_string()),
            pruned.violation_summary().map(|s| s.wire().to_string())
        );
        // Honest promise: future sends name one of the last HORIZON
        // events only.
        pruned.prune_settled(Some(EventId(total.saturating_sub(HORIZON))));
    }
    assert_eq!(plain.stats().events, pruned.stats().events);
}

#[test]
fn pruned_monitor_latches_identical_witnesses() {
    // A long, prunable admissible ping-pong prefix, then a violating
    // two-chain pattern built at the live frontier: the pruned monitor
    // must have compacted real state *and* still latch byte-identical
    // verdict + witness.
    for hops in 2..=5 {
        let xi = Xi::from_integer(2);
        let n = hops + 1;
        let mut plain = IncrementalChecker::new(n, &xi).unwrap();
        let mut pruned = IncrementalChecker::new(n, &xi).unwrap();
        pruned.enable_pruning();
        let mut cur = plain.append_init(ProcessId(0));
        pruned.append_init(ProcessId(0));
        for i in 1..n {
            plain.append_init(ProcessId(i));
            pruned.append_init(ProcessId(i));
        }
        // Phase 1: 100 immediately-delivered ping-pongs between p0 and
        // p1, pruning as the frontier advances.
        for round in 0..100 {
            let to = if round % 2 == 0 {
                ProcessId(1)
            } else {
                ProcessId(0)
            };
            let (_, r) = plain.append_send(cur, to);
            pruned.append_send(cur, to);
            cur = r;
            pruned.prune_settled(Some(cur));
        }
        // Everything but the live frontier event is compacted round by
        // round: ~(n inits + 100 ping-pongs) events pruned in total.
        assert!(
            pruned.stats().pruned_events > 90,
            "expected substantial pruning, got {}",
            pruned.stats().pruned_events
        );
        assert!(
            pruned.live_events() < 4,
            "window stayed at {} events",
            pruned.live_events()
        );
        // Phase 2: the two-chain violation rooted at the live frontier
        // event `q = cur`. Its spanning message keeps `q` in flight, so
        // the honest watermark is `q` from here on.
        let q = cur;
        pruned.prune_settled(Some(q));
        let mut chain = q;
        for i in 2..=hops {
            let (_, r) = plain.append_send(chain, ProcessId(i));
            pruned.append_send(chain, ProcessId(i));
            chain = r;
        }
        plain.append_send(chain, ProcessId(1));
        pruned.append_send(chain, ProcessId(1));
        assert!(plain.is_admissible() && pruned.is_admissible());
        plain.append_send(q, ProcessId(1));
        pruned.append_send(q, ProcessId(1));
        assert!(!plain.is_admissible(), "hops = {hops}");
        assert_eq!(plain.is_admissible(), pruned.is_admissible());
        assert_eq!(
            plain
                .violation_summary()
                .map(|s| s.wire().to_string())
                .unwrap(),
            pruned
                .violation_summary()
                .map(|s| s.wire().to_string())
                .unwrap(),
            "hops = {hops}"
        );
        assert_eq!(
            format!("{}", plain.violation().unwrap()),
            format!("{}", pruned.violation().unwrap()),
            "the full Cycle is byte-identical too"
        );
    }
}

#[test]
fn pruning_compacts_settled_prefixes_and_keeps_verdicts() {
    // A long admissible ping-pong between two processes: with no
    // messages in flight after each delivery, nearly everything before
    // the per-process frontiers is settled.
    let xi = Xi::from_integer(3);
    let mut mon = IncrementalChecker::new(2, &xi).unwrap();
    mon.enable_pruning();
    let mut cur = mon.append_init(ProcessId(0));
    mon.append_init(ProcessId(1));
    let mut pruned_total = 0;
    for round in 0..200 {
        let to = ProcessId((round + 1) % 2);
        let (_, r) = mon.append_send(cur, to);
        cur = r;
        // The only in-flight message was just delivered; next send
        // comes from `cur`.
        pruned_total += mon.prune_settled(Some(cur));
    }
    assert!(mon.is_admissible());
    // Each of the ~202 events is compacted exactly once; only the live
    // frontier survives.
    assert!(pruned_total > 190, "pruned only {pruned_total}");
    assert_eq!(mon.stats().pruned_events, pruned_total);
    assert!(
        mon.live_events() < 10,
        "window stayed at {} events",
        mon.live_events()
    );
    assert!(mon.stats().live_events_peak < 12);
    // The bookkeeping still matches: totals count everything.
    assert_eq!(mon.stats().events, 202);
}

#[test]
fn append_below_the_watermark_panics() {
    let xi = Xi::from_integer(2);
    let mut mon = IncrementalChecker::new(2, &xi).unwrap();
    mon.enable_pruning();
    let a = mon.append_init(ProcessId(0));
    mon.append_init(ProcessId(1));
    let (_, r) = mon.append_send(a, ProcessId(1));
    mon.prune_settled(Some(r));
    assert!(mon.stats().pruned_events > 0);
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        mon.append_send(a, ProcessId(1));
    }));
    assert!(res.is_err(), "the watermark promise must be enforced");
}

#[test]
fn graph_access_panics_once_pruning_is_enabled() {
    let xi = Xi::from_integer(2);
    let mut mon = IncrementalChecker::new(1, &xi).unwrap();
    mon.enable_pruning();
    mon.append_init(ProcessId(0));
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = mon.graph();
    }));
    assert!(res.is_err());
}

#[test]
fn prune_cuts_through_crossing_messages_exactly() {
    // The watermark cut slices right through messages whose send event
    // is compacted while their receive stays live: the boundary
    // condensation must keep the settled region exactly reachable, so
    // a violation later closed *through* it latches with the same
    // witness bytes as an unpruned monitor.
    let xi = Xi::from_integer(2);
    let mut plain = IncrementalChecker::new(3, &xi).unwrap();
    let mut pruned = IncrementalChecker::new(3, &xi).unwrap();
    pruned.enable_pruning();
    let step = |m: &mut IncrementalChecker| {
        let a = m.append_init(ProcessId(0));
        m.append_init(ProcessId(1));
        m.append_init(ProcessId(2));
        let (_, r1) = m.append_send(a, ProcessId(1));
        // Delivered promptly (before the r1 -> p2 relay), so the prefix
        // stays admissible — but the send event `a` is about to be
        // compacted while the receive stays live: a crossing message.
        let (_, rx) = m.append_send(a, ProcessId(2));
        let (_, r2) = m.append_send(r1, ProcessId(2));
        (rx, r2)
    };
    let (rx, q) = step(&mut plain);
    step(&mut pruned);
    let cut = pruned.prune_settled(Some(rx));
    assert_eq!(cut, 4, "events 0..4 compacted at the watermark");
    assert!(pruned.stats().pruned_events > 0);
    // Close a two-chain violation rooted at the live frontier: its
    // confirmation walks paths that dip through the pruned region (via
    // the materialized frontier rows) — weights must match exactly.
    for m in [&mut plain, &mut pruned] {
        let (_, r4) = m.append_send(q, ProcessId(0));
        m.append_send(r4, ProcessId(1));
        assert!(m.is_admissible());
        m.append_send(q, ProcessId(1)); // spans the 2-chain: ratio 2
    }
    assert!(!plain.is_admissible());
    assert!(!pruned.is_admissible());
    assert_eq!(
        format!("{}", plain.violation().unwrap()),
        format!("{}", pruned.violation().unwrap())
    );
    assert_eq!(
        plain.violation_summary().unwrap().wire().to_string(),
        pruned.violation_summary().unwrap().wire().to_string()
    );
}

#[test]
fn prune_equivalence_smoke_on_dense_scripts() {
    // Dense random-ish exchanges with all-delivered semantics.
    let xi = Xi::from_fraction(3, 2);
    assert_prune_equivalent(3, &[(0, 1), (1, 2), (2, 0), (0, 2), (3, 1), (2, 1)], &xi);
    assert_prune_equivalent(4, &[(0, 1), (4, 2), (1, 3), (2, 0), (5, 1), (3, 2)], &xi);
}

/// Drives the same script through an unpruned monitor and a pruning one
/// that keeps its margin from its first append (`tracking`) or from its
/// first prune on — and is asked to keep it half-way through, after it
/// has pruned, which changes nothing; at every event both margins must
/// equal the batch `max_relevant_cycle_ratio` over the full graph,
/// witnesses must attain the margin, and the cheap bound must dominate it.
fn assert_margin_prune_equivalent(n: usize, script: &[(usize, usize)], xi: &Xi, tracking: bool) {
    const HORIZON: usize = 3;
    let mut plain = IncrementalChecker::new(n, xi).unwrap();
    let mut pruned = IncrementalChecker::new(n, xi).unwrap();
    pruned.enable_pruning();
    if tracking {
        pruned.enable_margin_tracking();
    }
    for p in 0..n {
        plain.append_init(ProcessId(p));
        pruned.append_init(ProcessId(p));
    }
    let mut total = n;
    for (step, &(back, to)) in script.iter().enumerate() {
        if step == script.len() / 2 {
            let before = pruned.current_margin();
            pruned.enable_margin_tracking();
            assert_eq!(pruned.current_margin(), before, "step {step}");
        }
        let from = EventId(total - 1 - (back % HORIZON.min(total)));
        plain.append_send(from, ProcessId(to % n));
        pruned.append_send(from, ProcessId(to % n));
        total += 1;
        let plain_margin = plain.current_margin().unwrap();
        let pruned_margin = pruned.current_margin().unwrap();
        if plain_margin.as_ref().map(|m| m.ratio.clone())
            != pruned_margin.as_ref().map(|m| m.ratio.clone())
        {
            panic!(
                "margins diverge at event {total}: plain {:?} pruned {:?} admissible {} xi {:?}",
                plain_margin.as_ref().map(|m| m.ratio.clone()),
                pruned_margin.as_ref().map(|m| m.ratio.clone()),
                plain.is_admissible(),
                xi.as_ratio(),
            );
        }
        if plain.is_admissible() {
            let batch = check::max_relevant_cycle_ratio(plain.graph()).unwrap();
            assert_eq!(
                plain_margin.as_ref().map(|m| m.ratio.clone()),
                batch,
                "margin disagrees with batch at event {total}"
            );
            assert_margin_certified(plain.graph(), batch.as_ref());
        } else {
            // Latched: both froze at the (identical) witness ratio.
            let latched = plain.violation_summary().unwrap().classification.ratio();
            assert_eq!(plain_margin.as_ref().map(|m| m.ratio.clone()), latched);
        }
        for report in [&plain_margin, &pruned_margin].into_iter().flatten() {
            if let Some(w) = &report.witness {
                assert!(w.classification.relevant, "margin witness must be relevant");
                assert_eq!(w.classification.ratio(), Some(report.ratio.clone()));
            }
        }
        for (mon, margin) in [(&plain, &plain_margin), (&pruned, &pruned_margin)] {
            match (mon.margin_upper_bound(), margin) {
                (Some(bound), Some(m)) => {
                    assert!(bound >= m.ratio, "bound {bound} below margin {}", m.ratio);
                    if mon.is_admissible() {
                        assert!(bound <= *xi.as_ratio(), "open-verdict bound above Ξ");
                    }
                }
                (None, Some(m)) => panic!("no bound despite margin {}", m.ratio),
                (_, None) => {}
            }
        }
        prune_checked(&mut pruned, Some(EventId(total.saturating_sub(HORIZON))));
    }
}

#[test]
fn margin_matches_batch_under_pruning_on_dense_scripts() {
    let scripts: &[(usize, &[(usize, usize)])] = &[
        (3, &[(0, 1), (1, 2), (2, 0), (0, 2), (3, 1), (2, 1), (1, 0)]),
        (4, &[(0, 1), (4, 2), (1, 3), (2, 0), (5, 1), (3, 2), (0, 3)]),
        (2, &[(0, 1), (0, 0), (1, 1), (2, 0), (0, 1), (1, 0)]),
    ];
    for xi in [Xi::from_fraction(3, 2), Xi::from_integer(4)] {
        for &(n, script) in scripts {
            for tracking in [true, false] {
                assert_margin_prune_equivalent(n, script, &xi, tracking);
            }
        }
    }
}

#[test]
fn margin_reports_the_two_chain_ratio() {
    for hops in 2..=5 {
        let ratio = Ratio::from_integer(hops as i64);
        // Admissible just above: the margin is exactly `hops`.
        let above = Xi::new(ratio.clone() + Ratio::new(1, 7)).unwrap();
        let mon = stream_two_chain(hops, &above);
        assert!(mon.is_admissible());
        let m = mon.current_margin().unwrap().expect("cycle exists");
        assert_eq!(m.ratio, ratio);
        let w = m.witness.expect("margins above 1 carry a witness");
        assert!(w.classification.relevant);
        assert_eq!(w.classification.ratio(), Some(ratio.clone()));
        let bound = mon.margin_upper_bound().expect("candidates exist");
        assert!(bound >= ratio && bound <= *above.as_ratio());
        // Latched at Ξ = hops: the margin freezes at the witness.
        let at = Xi::from_integer(hops as i64);
        let mon = stream_two_chain(hops, &at);
        assert!(!mon.is_admissible());
        let m = mon.current_margin().unwrap().unwrap();
        assert_eq!(m.ratio, ratio);
        assert_eq!(m.witness.as_ref(), mon.violation_summary());
        assert_eq!(mon.margin_upper_bound(), Some(ratio));
    }
}

#[test]
fn margin_floor_survives_pruning_the_witness_away() {
    // A ratio-3 two-chain, then a long prunable ping-pong: the margin
    // must stay 3 (served from the folded floor, witness intact) after
    // every trace of the cycle has been compacted away.
    let xi = Xi::from_integer(4);
    let n = 4;
    let mut plain = IncrementalChecker::new(n, &xi).unwrap();
    let mut pruned = IncrementalChecker::new(n, &xi).unwrap();
    pruned.enable_pruning();
    pruned.enable_margin_tracking();
    let q = plain.append_init(ProcessId(0));
    pruned.append_init(ProcessId(0));
    for i in 1..n {
        plain.append_init(ProcessId(i));
        pruned.append_init(ProcessId(i));
    }
    let mut cur = q;
    for i in 2..=3 {
        let (_, r) = plain.append_send(cur, ProcessId(i));
        pruned.append_send(cur, ProcessId(i));
        cur = r;
    }
    let (_, r) = plain.append_send(cur, ProcessId(1));
    pruned.append_send(cur, ProcessId(1));
    let _ = r;
    let (_, span) = plain.append_send(q, ProcessId(1));
    pruned.append_send(q, ProcessId(1));
    let three = Ratio::from_integer(3);
    assert_eq!(pruned.current_margin().unwrap().unwrap().ratio, three);
    // Ping-pong p1 ⇄ p0 rooted at the spanning receive, pruning every
    // round: the two-chain is fully compacted early on.
    let mut cur = span;
    for round in 0..50 {
        let to = ProcessId(round % 2);
        let (_, r) = plain.append_send(cur, to);
        pruned.append_send(cur, to);
        cur = r;
        prune_checked(&mut pruned, Some(cur));
        let m = pruned.current_margin().unwrap().expect("floor persists");
        assert_eq!(m.ratio, three, "round {round}");
        let w = m.witness.expect("floor keeps its witness");
        assert!(w.classification.relevant);
        assert_eq!(w.classification.ratio(), Some(three.clone()));
        assert_eq!(
            plain.current_margin().unwrap().unwrap().ratio,
            three,
            "round {round}"
        );
        assert!(pruned.margin_upper_bound().unwrap() >= three);
    }
    assert!(
        pruned.live_events() < 5,
        "window stayed at {} events",
        pruned.live_events()
    );
    assert!(pruned.stats().pruned_events > 40);
}

#[test]
fn the_overflow_guard_is_exact_at_its_boundary() {
    // 2·bits(part) + bits(mass) + 2·bits(size + 2) against 127, with
    // size + 2 = 2³⁰ (31 bits): a part of 32 bits fits beside a one-step
    // mass, 33 bits do not, and a 32-bit part leaves room for no heavier
    // mass.
    let size = (1usize << 30) - 2;
    assert!(kept_labels_fit(((1 << 32) - 1, 1), 1, size));
    assert!(!kept_labels_fit((1 << 32, 1), 1, size));
    assert!(kept_labels_fit((1, (1 << 32) - 1), 1, size));
    assert!(kept_labels_fit((1 << 31, 1), 1, size));
    assert!(!kept_labels_fit((1 << 31, 1), 2, size));
    // At ratio 1/1 (a batch ratio, or a monitor that nothing raised) the
    // guard fails only past 2⁶² − 3 events and arcs.
    assert!(kept_labels_fit((1, 1), 1, (1 << 62) - 3));
    assert!(!kept_labels_fit((1, 1), 1, (1 << 62) - 2));
    // Everything a real monitor window or batch graph presents is far
    // inside: a million messages in one graph still fits.
    assert!(kept_labels_fit((1_000_000, 999_999), 1, 3_000_000));
}

#[test]
fn a_raise_counts_the_first_of_equally_cheap_shortcut_lines() {
    // At the kept ratio 3/2 a line `(f, b)` costs 3f − 2b: 13 for (5, 1),
    // and 4 for both (2, 1) and (4, 4). The kept labels charge the
    // shortcut 4, and a raise through it counts the first line of that
    // cost, whose counts the raised ratio is made of.
    let mut table = ShortcutTable::default();
    let path = PathRef { start: 0, end: 1 };
    let lines = [(5, 1), (2, 1), (4, 4)].map(|(f, b)| MarginSig { f, b, path });
    let info = table.info((0, 0), path, lines);
    let id = table.push(info);
    assert_eq!(
        charged_line(&table, ArcKind::Shortcut(id), (3, 2)),
        (1, (2, 1))
    );
    // A plain arc has one line.
    let m = MessageId(0);
    assert_eq!(
        charged_line(&table, ArcKind::Forward(m), (3, 2)),
        (0, (1, 0))
    );
    assert_eq!(
        charged_line(&table, ArcKind::Backward(m), (3, 2)),
        (0, (0, 1))
    );
}

#[test]
fn a_fold_beyond_the_integer_range_declines_the_prune() {
    // No real execution gets kept labels past their guard (its boundary is
    // pinned by `the_overflow_guard_is_exact_at_its_boundary`),
    // so plant a kept margin whose parts alone overflow it: the margin query
    // reports the clean error and the prune leaves the window as it was.
    let xi = Xi::from_integer(4);
    let mut mon = IncrementalChecker::new(4, &xi).unwrap();
    mon.enable_pruning();
    mon.enable_margin_tracking();
    let q = mon.append_init(ProcessId(0));
    for i in 1..4 {
        mon.append_init(ProcessId(i));
    }
    let (_, r) = mon.append_send(q, ProcessId(2));
    let (_, r) = mon.append_send(r, ProcessId(3));
    mon.append_send(r, ProcessId(1));
    let (_, last) = mon.append_send(q, ProcessId(1)); // spans 3 hops
    let three = Ratio::from_integer(3);
    assert_eq!(mon.current_margin().unwrap().unwrap().ratio, three);
    let kept = mon.kept.ratio;
    let huge = ((1 << 125) + 1, 1 << 125); // just above 1
    mon.kept.ratio = huge;
    let live = mon.live_events();
    assert_eq!(mon.current_margin(), Err(CheckError::GraphTooLarge));
    assert_eq!(mon.prune_settled(Some(last)), 0);
    assert_eq!((mon.live_events(), mon.stats().pruned_events), (live, 0));
    // With a margin that fits, the same call folds and prunes.
    mon.kept.ratio = kept;
    assert!(mon.prune_settled(Some(last)) > 0);
    assert_eq!(mon.current_margin().unwrap().unwrap().ratio, three);
    // An append past the guard does not panic, not even with overflow
    // checks on: the labels are abandoned, and the margin says so. (The
    // margin planted is 3 in parts that do not fit: the bound, which falls
    // back on the scan, still holds.)
    mon.kept.ratio = (3 << 100, 1 << 100);
    let (_, next) = mon.append_send(last, ProcessId(0));
    mon.append_send(next, ProcessId(2));
    assert!(mon.is_admissible());
    assert_eq!(mon.current_margin(), Err(CheckError::GraphTooLarge));
    assert_eq!(mon.prune_settled(Some(next)), 0);
    assert!(mon.margin_upper_bound().unwrap() >= three);
}

/// A deterministic dense script over `n` processes: `(back, to)` pairs as
/// in [`assert_prune_equivalent`], from a fixed multiplicative sequence.
fn dense_script(n: usize, len: usize, seed: u64) -> Vec<(usize, usize)> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^= x >> 31;
            ((x >> 8) as usize % 5, (x >> 32) as usize % n)
        })
        .collect()
}

/// Inits `n` processes and appends `script`, every send naming one of the
/// last three events; `after` sees the monitor after every append.
fn feed_script(
    mon: &mut IncrementalChecker,
    n: usize,
    script: &[(usize, usize)],
    mut after: impl FnMut(&mut IncrementalChecker, usize),
) {
    for p in 0..n {
        mon.append_init(ProcessId(p));
    }
    let mut total = n;
    for &(back, to) in script {
        let from = EventId(total - 1 - back % 3.min(total));
        mon.append_send(from, ProcessId(to % n));
        total += 1;
        after(mon, total);
    }
}

/// Theorem 7 from the monitor's own potential. Read as `a·M + b`, with `M`
/// wider than the spread of the second components, a pair label `(a, b)`
/// turns every pair arc weight `(w, −1)` into the integer weight `w·M − 1`
/// and keeps every arc slack: so at every admissible prefix the times
/// `(a·M + b) / (q·M)` that `assign_delays` reads off a replay are a
/// normalized assignment, certified by `certify::admissible`.
#[test]
fn the_live_potential_is_a_normalized_assignment_at_every_admissible_prefix() {
    let mut prefixes = 0;
    for seed in 0..200 {
        let n = 3 + usize::try_from(seed).unwrap() % 4;
        let script = dense_script(n, 60, seed);
        for xi in [
            Xi::from_fraction(3, 2),
            Xi::from_integer(2),
            Xi::from_integer(3),
        ] {
            let mut mon = IncrementalChecker::new(n, &xi).unwrap();
            feed_script(&mut mon, n, &script, |mon, total| {
                if !mon.is_admissible() {
                    return;
                }
                let (labels, q) = mon.potential();
                let timed = crate::assign::scaled_back(labels, q).expect("small labels");
                let certified = crate::certify::admissible(mon.graph(), &xi, &timed);
                assert_eq!(certified, Ok(()), "seed {seed}, Xi = {xi}, event {total}");
                prefixes += 1;
            });
        }
    }
    assert!(prefixes > 20_000, "{prefixes} admissible prefixes");
}

#[test]
fn a_mirrorless_monitor_that_pruned_nothing_answers_margins_like_a_mirrored_one() {
    // One script that latches on the way, one that stays admissible.
    for xi in [Xi::from_fraction(3, 2), Xi::from_integer(3)] {
        let script = dense_script(3, 60, 1);
        let mut margins = Vec::new();
        let mut mirrored = IncrementalChecker::new(3, &xi).unwrap();
        feed_script(&mut mirrored, 3, &script, |mon, _| {
            margins.push((mon.current_margin().unwrap(), mon.margin_upper_bound()));
        });
        assert!(margins.iter().any(|(m, _)| m.is_some()), "no cycle at all");
        let mut at = 0;
        let mut bare = IncrementalChecker::new(3, &xi).unwrap();
        bare.enable_pruning();
        feed_script(&mut bare, 3, &script, |mon, total| {
            let got = (mon.current_margin().unwrap(), mon.margin_upper_bound());
            assert_eq!(got, margins[at], "event {total}");
            at += 1;
        });
        assert_eq!(bare.stats(), mirrored.stats());
    }
}

#[test]
fn a_second_identical_document_after_reset_grows_no_capacity() {
    let xi = Xi::from_integer(3);
    let script = dense_script(6, 400, 1);
    let mut mon = IncrementalChecker::new(6, &xi).unwrap();
    mon.enable_pruning();
    mon.enable_margin_tracking();
    // Prunes now and then, so the shortcut table and the frontier rows
    // are exercised too.
    let run = |mon: &mut IncrementalChecker| {
        feed_script(mon, 6, &script, |mon, total| {
            if total % 64 == 0 {
                prune_checked(mon, Some(EventId(total - 3)));
            }
        });
        (
            mon.stats(),
            mon.current_margin().unwrap(),
            mon.violation_summary().cloned(),
        )
    };
    let first = run(&mut mon);
    assert!(first.0.pruned_events > 0 && first.0.relaxations > 0);
    let before = mon.capacity();
    assert!(!mon.shortcuts.is_empty(), "the run left condensed paths");
    mon.reset(6, &xi).unwrap();
    assert_eq!(mon.stats(), MonitorStats::default());
    assert_eq!((mon.live_events(), mon.live_arcs()), (0, 0));
    // Nothing of the first document is held on, where a test can see it
    // (the proptests compare the rest against a new monitor).
    assert!(mon.shortcuts.is_empty() && mon.frontier_row.iter().all(Option::is_none));
    assert_eq!(run(&mut mon), first, "the reset monitor diverged");
    assert_eq!(mon.capacity(), before, "the second run allocated");
}

#[test]
fn reset_keeps_the_mode_choices_and_takes_topology_and_xi_anew() {
    let script = dense_script(3, 40, 3);
    let mut mon = IncrementalChecker::new(6, &Xi::from_integer(2)).unwrap();
    mon.mark_faulty(ProcessId(5));
    feed_script(&mut mon, 6, &dense_script(6, 40, 7), |_, _| {});
    assert!(!mon.is_admissible(), "the first document latches");
    // A mirrored monitor stays mirrored, with a mirror of the new shape.
    let wide = Xi::from_integer(9);
    mon.reset(3, &wide).unwrap();
    assert_eq!((mon.xi(), mon.graph().num_processes()), (&wide, 3));
    assert!(mon.is_admissible() && mon.violation_summary().is_none());
    assert!(!mon.process_has_events(ProcessId(0)));
    mon.mark_faulty(ProcessId(2));
    feed_script(&mut mon, 3, &script, |_, _| {});
    let mut fresh = IncrementalChecker::new(3, &wide).unwrap();
    fresh.mark_faulty(ProcessId(2));
    feed_script(&mut fresh, 3, &script, |_, _| {});
    assert_eq!(mon.graph(), fresh.graph());
    assert_eq!(mon.stats(), fresh.stats());
    assert_eq!(
        mon.current_margin().unwrap(),
        fresh.current_margin().unwrap()
    );
    // A dropped mirror stays dropped, tracking stays on; a Ξ the monitor
    // cannot hold leaves it as it was.
    mon.reset(3, &wide).unwrap();
    mon.enable_pruning();
    mon.enable_margin_tracking();
    feed_script(&mut mon, 3, &script, |_, _| {});
    let huge = Xi::new(Ratio::from_bigints(
        abc_rational::BigInt::from(1i128 << 80),
        abc_rational::BigInt::from(3),
    ))
    .unwrap();
    assert_eq!(mon.reset(2, &huge), Err(CheckError::XiTooLarge));
    assert_eq!(mon.stats().events, 3 + script.len());
    mon.reset(3, &wide).unwrap();
    assert!(mon.builder.is_none() && mon.margin_tracking);
    feed_script(&mut mon, 3, &script, |mon, total| {
        prune_checked(mon, Some(EventId(total - 3)));
    });
    assert_eq!(
        mon.current_margin().unwrap().map(|m| m.ratio),
        fresh.current_margin().unwrap().map(|m| m.ratio)
    );
}

/// The oracle for frontier repair: round-based relaxation of every live
/// arc from `labels`, to quiescence — or `None` when `#nodes` rounds do
/// not reach it, which only a negative cycle does.
fn relaxed_to_quiescence(mon: &IncrementalChecker, mut labels: Vec<Weight>) -> Option<Vec<Weight>> {
    let base = mon.tg.base();
    for _round in 0..=labels.len() {
        let mut changed = false;
        for arc in mon.tg.arcs() {
            let (from, w) = (labels[arc.from - base], mon.arc_weight(arc.kind));
            let cand = (from.0 + w.0, from.1 + w.1); // the oracle sums by hand
            if cand < labels[arc.to - base] {
                labels[arc.to - base] = cand;
                changed = true;
            }
        }
        if !changed {
            return Some(labels);
        }
    }
    None
}

/// What the whole repair rests on: from the labels it starts with — the
/// pre-append potentials and the new receive capped to its upper bound —
/// a repair either converges, and then to the one fixpoint any relaxation
/// order reaches, or there is a negative cycle and the monitor latches.
/// Every script runs near its own threshold: at its final margin (it
/// latches where the cycle attaining that closes) and a notch above
/// (admissible, every near miss a repair), plain and pruned.
#[test]
fn a_repair_leaves_the_unique_fixpoint_or_latches() {
    let (mut converged, mut latched) = (0, 0);
    for seed in 0..208 {
        let n = 3 + usize::try_from(seed).unwrap() % 4;
        let script = dense_script(n, 120, seed);
        let mut probe = IncrementalChecker::new(n, &Xi::from_integer(1_000)).unwrap();
        feed_script(&mut probe, n, &script, |_, _| {});
        let Some(margin) = probe.current_margin().unwrap().map(|m| m.ratio) else {
            continue;
        };
        for xi in [margin.clone(), margin + Ratio::new(1, 7)] {
            // A margin of exactly 1 is no Ξ.
            let Ok(xi) = Xi::new(xi) else { continue };
            for cadence in [None, Some(3), Some(8)] {
                let mut mon = IncrementalChecker::new(n, &xi).unwrap();
                if cadence.is_some() {
                    mon.enable_pruning();
                }
                for p in 0..n {
                    mon.append_init(ProcessId(p));
                }
                for (total, &(back, to)) in (n..).zip(&script) {
                    let from = total - 1 - back % 3.min(total);
                    let mut start = mon.pot.clone();
                    let sent = start[from - mon.tg.base()];
                    start.push((sent.0 + mon.p, sent.1 - 1));
                    let relaxations = mon.stats.relaxations;
                    mon.append_send(EventId(from), ProcessId(to % n));
                    if mon.stats.relaxations > relaxations {
                        match relaxed_to_quiescence(&mon, start) {
                            Some(fixpoint) => {
                                assert!(mon.is_admissible(), "seed {seed}, event {total}");
                                assert_eq!(mon.pot, fixpoint, "seed {seed}, event {total}");
                                converged += 1;
                            }
                            None => {
                                assert!(!mon.is_admissible(), "seed {seed}, event {total}");
                                latched += 1;
                                break;
                            }
                        }
                    }
                    if cadence.is_some_and(|c| total % c == 0) {
                        mon.prune_settled(Some(EventId(total - 2)));
                    }
                }
            }
        }
    }
    assert!(
        converged > 200 && latched > 400,
        "{converged} converged repairs, {latched} latches"
    );
}

/// The cut a tracked `prune_settled` at `w` classifies, and windows that
/// hold its whole prefix indexed as the prune's passes read it.
fn cut_and_prefix(mon: &IncrementalChecker, w: usize) -> (Cut, Windows) {
    let mut windows = Windows::default();
    let cut = mon.classify_cut(w, &mut windows.internal);
    windows.start_prune();
    windows.slot(mon, &cut, &mon.shortcuts, cut.base);
    (cut, windows)
}

/// A line of the reference pass: counts and boundary steps, no path.
#[derive(Clone, Copy, Debug)]
struct ColdLine {
    f: i128,
    b: i128,
    first: Option<CycleStep>,
    last: Option<CycleStep>,
}

impl CostLine for ColdLine {
    fn counts(&self) -> (i128, i128) {
        (self.f, self.b)
    }
}

impl ColdLine {
    /// The lines one live arc offers: its step, or its stored envelope.
    fn of_arc(mon: &IncrementalChecker, arc: Arc) -> Vec<ColdLine> {
        match (arc.step(), arc.kind.counts()) {
            (Ok(step), Ok((f, b))) => vec![ColdLine {
                f,
                b,
                first: Some(step),
                last: Some(step),
            }],
            _ => {
                let ArcKind::Shortcut(id) = arc.kind else {
                    unreachable!("plain arcs have a step and counts")
                };
                let line = |s: &margin::MarginSig| {
                    let (first, last) = mon.shortcuts.path_ends(s.path);
                    ColdLine {
                        f: s.f,
                        b: s.b,
                        first: Some(first.step),
                        last: Some(last.step),
                    }
                };
                mon.shortcuts.sigs(id).iter().map(line).collect()
            }
        }
    }

    /// `self · d`, unless the junction reverses a message.
    fn then(&self, d: &ColdLine) -> Option<ColdLine> {
        if let (Some(last), Some(first)) = (&self.last, &d.first) {
            if step_reverses(last, first) {
                return None;
            }
        }
        Some(ColdLine {
            f: self.f + d.f,
            b: self.b + d.b,
            first: self.first.or(d.first),
            last: d.last.or(self.last),
        })
    }
}

/// The envelope pass as it was before it became a warm-started worklist,
/// kept as the oracle: cold from the landing, every internal arc in
/// descending arena order round after round until nothing changes, the
/// weak dominance pre-check, then a full rebuild per candidate. Returns,
/// per exit of `cut`, the sorted `(f, b)` lines of `start ⇝ head(exit)`,
/// and how many junctions it refused for reversing a message although
/// their line would have been kept.
fn cold_exit_lines(
    mon: &IncrementalChecker,
    cut: &Cut,
    whole: &Window,
    start: usize,
) -> (Vec<Vec<(i128, i128)>>, usize) {
    let (base, floor) = (cut.base, cut.floor);
    let arcs = mon.tg.arcs();
    let insert = |set: &mut Vec<ColdLine>, cand: ColdLine| {
        if set.iter().any(|s| s.f <= cand.f && s.b >= cand.b) {
            return false;
        }
        set.push(cand);
        margin_envelope(set, floor);
        set.iter().any(|s| s.counts() == cand.counts())
    };
    let mut refused = 0;
    // `l · d`, or a refusal counted if the line would have been kept.
    let mut joined = |l: &ColdLine, d: &ColdLine, target: &[ColdLine]| {
        let cand = l.then(d);
        if cand.is_none() {
            let line = ColdLine {
                f: l.f + d.f,
                b: l.b + d.b,
                ..*l
            };
            refused += usize::from(insert(&mut target.to_vec(), line));
        }
        cand
    };
    let mut labels: Vec<Vec<ColdLine>> = vec![Vec::new(); cut.w - base];
    labels[start - base] = vec![ColdLine {
        f: 0,
        b: 0,
        first: None,
        last: None,
    }];
    for round in 0.. {
        assert!(round <= 100_000, "the reference pass failed to converge");
        let mut changed = false;
        for &ai in whole.lex.arena.iter().rev() {
            let arc = arcs[ai];
            let (from, to) = (arc.from - base, arc.to - base);
            if from == to {
                continue;
            }
            for l in labels[from].clone() {
                for d in ColdLine::of_arc(mon, arc) {
                    if let Some(cand) = joined(&l, &d, &labels[to]) {
                        changed |= insert(&mut labels[to], cand);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut per_exit = |&b: &usize| {
        let mut cands = Vec::new();
        for l in &labels[arcs[b].from - base] {
            for d in ColdLine::of_arc(mon, arcs[b]) {
                let cand = joined(l, &d, &cands);
                cands.extend(cand);
            }
        }
        margin_envelope(&mut cands, floor);
        let mut lines: Vec<_> = cands.iter().map(ColdLine::counts).collect();
        lines.sort_unstable();
        lines
    };
    let lines = cut.exits.iter().map(&mut per_exit).collect();
    (lines, refused)
}

/// What the oracle compared, in (landing, start tree) passes: how many had
/// to equal the reference line for line, and how many were let off because
/// a pass had refused a junction whose line could win; and, over the exact
/// ones, how many exits ended with two or more lines (their slots spilled
/// to a run) and how many shortcut arcs of two or more lines the pass
/// relaxed (arcs out of a slot it reached).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Compared {
    exact: usize,
    refused: usize,
    spilled: usize,
    multi_line_arcs: usize,
}

impl Compared {
    fn plus(self, other: Compared) -> Compared {
        Compared {
            exact: self.exact + other.exact,
            refused: self.refused + other.refused,
            spilled: self.spilled + other.spilled,
            multi_line_arcs: self.multi_line_arcs + other.multi_line_arcs,
        }
    }
}

/// The differential oracle of the envelope pass, run on the state a
/// tracked `prune_settled(watermark)` would condense. Every path the pass
/// spells has its line's counts and never reverses a message on the spot;
/// and per landing and exit the pass ends in exactly the reference's
/// `(f, b)` lines — from the landing's own lex tree, and from another
/// landing's, since any genuine path lines are a valid start — unless one
/// of the two refused a junction whose line could win: that decision
/// reads which path holds a line, the scan order's choice, and only
/// passes that never took it share the one fixpoint.
fn assert_envelopes_match_the_cold_pass(
    mon: &IncrementalChecker,
    watermark: Option<EventId>,
) -> Compared {
    let mut compared = Compared::default();
    let total = mon.total_events();
    let w = watermark.map_or(total, |e| e.0.min(total));
    if w <= mon.tg.base() || mon.violation.is_some() {
        return compared;
    }
    let mut mon = mon.clone();
    if !mon.keeps_margin() {
        mon.seed_kept_margin();
    }
    assert!(mon.fold_margin(), "small windows fold");
    let (cut, mut windows) = cut_and_prefix(&mon, w);
    let at = windows.slot(&mon, &cut, &mon.shortcuts, cut.base);
    let whole = windows.window(at);
    let tree = |start: usize| {
        let mut lex = LexScratch::default();
        lex.run(&whole.lex, cut.base, &[(start, (0, 0))]);
        lex.pred
    };
    let mut scratch = margin::EnvelopeScratch::default();
    let mut table = mon.shortcuts.clone();
    let arcs = mon.tg.arcs();
    let relaxed = whole.lex.arena.iter().chain(&cut.exits).map(|&ai| arcs[ai]);
    let multi_line: Vec<Arc> = relaxed
        .filter(|a| matches!(a.kind, ArcKind::Shortcut(id) if mon.shortcuts.sigs(id).len() >= 2))
        .collect();
    let mut lines_after = |start: usize, pred: &[Option<usize>]| {
        mon.margin_sig_sssp(&cut, whole, start, pred, &table, &mut scratch);
        let refused = scratch.refused;
        let multi = multi_line
            .iter()
            .filter(|a| a.from != a.to && scratch.reached(a.from - cut.base))
            .count();
        let mut lines = Vec::new();
        for bi in 0..cut.exits.len() {
            let sigs = mon.exit_envelope(&cut, whole, &mut scratch, bi, &mut table, None);
            for s in sigs {
                let steps = table.path(s.path);
                let messages = |against: bool| {
                    let counted = steps.iter().filter(|s| {
                        matches!(s.step.edge, ShadowEdge::Message(_)) && s.step.against == against
                    });
                    counted.count() as i128
                };
                assert_eq!((messages(false), messages(true)), (s.f, s.b), "{s:?}");
                assert!(
                    steps
                        .windows(2)
                        .all(|pair| !step_reverses(&pair[0].step, &pair[1].step)),
                    "{s:?}"
                );
                assert_eq!(steps[0].proc, mon.proc_of[start - cut.base], "{s:?}");
            }
            let mut exit: Vec<_> = sigs.iter().map(|s| (s.f, s.b)).collect();
            exit.sort_unstable();
            lines.push(exit);
        }
        (lines, refused, multi)
    };
    for (li, &start) in cut.landings.iter().enumerate() {
        let (cold, cold_refused) = cold_exit_lines(&mon, &cut, whole, start);
        let other = cut.landings[(li + 1) % cut.landings.len()];
        for from in [start, other] {
            let (warm, warm_refused, multi) = lines_after(start, &tree(from));
            if cold_refused + warm_refused > 0 {
                compared.refused += 1;
                continue;
            }
            assert_eq!(warm, cold, "landing e{start} from the tree of e{from}");
            compared.exact += 1;
            compared.spilled += warm.iter().filter(|exit| exit.len() >= 2).count();
            compared.multi_line_arcs += multi;
        }
    }
    compared
}

/// `prune_settled`, after the envelope oracle has seen what it condenses;
/// returns what the oracle compared.
fn prune_checked(mon: &mut IncrementalChecker, watermark: Option<EventId>) -> Compared {
    let compared = assert_envelopes_match_the_cold_pass(mon, watermark);
    mon.prune_settled(watermark);
    compared
}

/// The warm-started worklist pass against the cold round-based one, at
/// every prune of random scripts: cadences 1–4 and horizons 1–4 give
/// regions with shortcut arcs, surviving shortcuts and stale rows, and Ξ
/// decides how far below it the floor leaves the envelopes open. Counts
/// what it compared, so that "equal line sets" is known to have been
/// asserted and not let off.
#[test]
fn envelope_lines_equal_the_cold_passes_at_every_prune() {
    use std::cell::Cell;
    let seen = Cell::new(Compared::default());
    let script = proptest::collection::vec((any::<usize>(), any::<usize>()), 0..40);
    let xi = (2i64..8, 1i64..5).prop_filter("Xi > 1", |(num, den)| num > den);
    proptest::test_runner::run_proptest(
        ProptestConfig::with_cases(192),
        (2usize..5, script, xi, 1usize..5, 1usize..5),
        env!("CARGO_MANIFEST_DIR"),
        file!(),
        "envelope_lines_equal_the_cold_passes_at_every_prune",
        |(n, script, (num, den), cadence, horizon)| {
            let mut mon = IncrementalChecker::new(n, &Xi::from_fraction(num, den)).unwrap();
            mon.enable_pruning();
            mon.enable_margin_tracking();
            for p in 0..n {
                mon.append_init(ProcessId(p));
            }
            let mut total = n;
            for (step, &(back, to)) in script.iter().enumerate() {
                // Sends only name one of the last `horizon` events, so the
                // watermark below is an honest promise.
                let from = EventId(total - 1 - back % horizon.min(total));
                mon.append_send(from, ProcessId(to % n));
                total += 1;
                if step % cadence == 0 {
                    let watermark = Some(EventId(total.saturating_sub(horizon)));
                    let compared = prune_checked(&mut mon, watermark);
                    seen.set(seen.get().plus(compared));
                }
            }
            Ok(())
        },
    );
    let Compared {
        exact,
        refused,
        spilled,
        multi_line_arcs,
    } = seen.get();
    assert!(
        exact > 2_000 && exact > 4 * refused,
        "{exact} passes compared line for line, {refused} let off"
    );
    // A slot of two or more lines keeps them in a run, and a shortcut arc
    // of two or more lines offers each: both paths must have been compared
    // line for line, not only passed through (298 and 491 on these
    // scripts).
    assert!(
        spilled > 100 && multi_line_arcs > 150,
        "{spilled} exits of two or more lines, {multi_line_arcs} multi-line shortcut arcs relaxed"
    );
}

/// The envelope pass's per-slot and per-CSR-entry layouts. Its hot loop
/// turns most scans away on one CSR entry and the head's slot: a CSR entry
/// that grows past two words puts fewer to a cache line, and a slot that
/// grows past 48 bytes (two `i128` counts and four `u32` fields, no
/// padding) straddles one more line per random read.
#[test]
fn an_envelope_slot_is_48_bytes_and_a_csr_entry_16() {
    assert_eq!(std::mem::size_of::<margin::SlotLines>(), 48);
    assert_eq!(std::mem::size_of::<OutArc>(), 16);
}

/// The lex pass as it was before it visited only the arcs whose tail
/// moved, kept as the oracle: every arc of `arc_indices` in descending
/// arena order, round after round until a round relaxes nothing.
#[allow(clippy::type_complexity)]
fn reference_lex_pass(
    mon: &IncrementalChecker,
    arc_indices: &[usize],
    base: usize,
    width: usize,
    seeds: &[(usize, Weight)],
) -> (Vec<Option<Weight>>, Vec<Option<usize>>, Vec<Option<usize>>) {
    let arcs = mon.tg.arcs();
    let mut dist: Vec<Option<Weight>> = vec![None; width];
    let mut pred: Vec<Option<usize>> = vec![None; width];
    let mut seed_of: Vec<Option<usize>> = vec![None; width];
    for (k, &(node, w)) in seeds.iter().enumerate() {
        let slot = node - base;
        if dist[slot].is_none_or(|x| w < x) {
            dist[slot] = Some(w);
            seed_of[slot] = Some(k);
        }
    }
    for _round in 0..=width {
        let mut changed = false;
        for &ai in arc_indices.iter().rev() {
            let arc = arcs[ai];
            let Some(d) = dist[arc.from - base] else {
                continue;
            };
            let cand = d.plus(mon.arc_weight(arc.kind));
            let slot = arc.to - base;
            if dist[slot].is_none_or(|x| cand < x) {
                dist[slot] = Some(cand);
                pred[slot] = Some(ai);
                seed_of[slot] = None;
                changed = true;
            }
        }
        if !changed {
            return (dist, pred, seed_of);
        }
    }
    panic!("the reference pass failed to converge");
}

/// The lex pass against the round loop on the region a tracked
/// `prune_settled(watermark)` would condense: from every landing alone,
/// and from every landing at once with tied and repeated seeds. Returns
/// how many passes it compared.
fn assert_lex_trees_match_the_round_loop(
    mon: &IncrementalChecker,
    watermark: Option<EventId>,
) -> usize {
    let total = mon.total_events();
    let w = watermark.map_or(total, |e| e.0.min(total));
    if w <= mon.tg.base() || mon.violation.is_some() {
        return 0;
    }
    let (cut, mut windows) = cut_and_prefix(mon, w);
    let at = windows.slot(mon, &cut, &mon.shortcuts, cut.base);
    let whole = windows.window(at);
    let width = w - cut.base;
    let mut lex = LexScratch::default();
    let mut compare = |seeds: &[(usize, Weight)]| {
        let want = reference_lex_pass(mon, &whole.lex.arena, cut.base, width, seeds);
        lex.run(&whole.lex, cut.base, seeds);
        let got = (lex.dist.clone(), lex.pred.clone(), lex.seed_of.clone());
        assert_eq!(got, want, "seeds {seeds:?}");
    };
    for &start in &cut.landings {
        compare(&[(start, (0, 0))]);
    }
    let mut seeds: Vec<(usize, Weight)> = cut
        .landings
        .iter()
        .enumerate()
        .map(|(k, &v)| (v, ((k % 2) as i128, 0)))
        .collect();
    seeds.extend(cut.landings.first().map(|&v| (v, (0, 0))));
    if !seeds.is_empty() {
        compare(&seeds);
    }
    cut.landings.len() + usize::from(!seeds.is_empty())
}

/// The exact-visit lex pass returns the round loop's labels, predecessors
/// and seeds on every landing of every prune of random scripts: cadences
/// and horizons 1–4 give regions with shortcut arcs (pruned ones among
/// the internal arcs), surviving shortcuts and stale rows.
#[test]
fn lex_trees_equal_the_round_loop_at_every_prune() {
    use std::cell::Cell;
    let compared = Cell::new(0);
    let script = proptest::collection::vec((any::<usize>(), any::<usize>()), 0..40);
    let xi = (2i64..8, 1i64..5).prop_filter("Xi > 1", |(num, den)| num > den);
    proptest::test_runner::run_proptest(
        ProptestConfig::with_cases(192),
        (2usize..5, script, xi, 1usize..5, 1usize..5),
        env!("CARGO_MANIFEST_DIR"),
        file!(),
        "lex_trees_equal_the_round_loop_at_every_prune",
        |(n, script, (num, den), cadence, horizon)| {
            let mut mon = IncrementalChecker::new(n, &Xi::from_fraction(num, den)).unwrap();
            mon.enable_pruning();
            mon.enable_margin_tracking();
            for p in 0..n {
                mon.append_init(ProcessId(p));
            }
            let mut total = n;
            for (step, &(back, to)) in script.iter().enumerate() {
                let from = EventId(total - 1 - back % horizon.min(total));
                mon.append_send(from, ProcessId(to % n));
                total += 1;
                if step % cadence == 0 {
                    let watermark = Some(EventId(total.saturating_sub(horizon)));
                    let passes = assert_lex_trees_match_the_round_loop(&mon, watermark);
                    compared.set(compared.get() + passes);
                    mon.prune_settled(watermark);
                }
            }
            Ok(())
        },
    );
    let compared = compared.get();
    assert!(compared > 2_000, "{compared} lex passes compared");
}

/// What the window oracle compared, in landings: all of them, those
/// whose passes certified a window below the whole prefix, those that
/// refused a smaller window first, and those whose pass over the whole
/// prefix refused a junction; over the certified ones, in exits, the
/// tails' trees compared byte for byte and the line sets compared where
/// the whole prefix's pass refused no junction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct WindowsCompared {
    landings: usize,
    below: usize,
    retried: usize,
    refusing: usize,
    chains: usize,
    line_sets: usize,
}

impl WindowsCompared {
    fn plus(self, other: WindowsCompared) -> WindowsCompared {
        WindowsCompared {
            landings: self.landings + other.landings,
            below: self.below + other.below,
            retried: self.retried + other.retried,
            refusing: self.refusing + other.refusing,
            chains: self.chains + other.chains,
            line_sets: self.line_sets + other.line_sets,
        }
    }
}

/// The differential oracle of the certified windows, run on the state a
/// tracked `prune_settled(watermark)` would condense: per landing, the
/// passes `landing_passes` keeps over the window it certified against the
/// passes over the whole prefix — the lex label and predecessor chain at
/// every exit tail, byte for byte, and every exit's line set unless the
/// whole prefix's envelope pass refused a junction whose line could win
/// (which path holds a line is the scan order's choice, and a refusal
/// reads it). A kept window's own pass may refuse nothing.
fn assert_windows_match_the_whole_prefix(
    mon: &IncrementalChecker,
    watermark: Option<EventId>,
) -> WindowsCompared {
    let mut seen = WindowsCompared::default();
    let total = mon.total_events();
    let w = watermark.map_or(total, |e| e.0.min(total));
    if w <= mon.tg.base() || mon.violation.is_some() {
        return seen;
    }
    let mut mon = mon.clone();
    if !mon.keeps_margin() {
        mon.seed_kept_margin();
    }
    assert!(mon.fold_margin(), "small windows fold");
    let (cut, mut windows) = cut_and_prefix(&mon, w);
    let (arcs, table) = (mon.tg.arcs(), &mon.shortcuts);
    // Per exit, the tail's label and the arcs of its chain up to the
    // landing; `None` where the pass did not reach the tail.
    let trees = |lex: &LexScratch, base: usize, start: usize| -> Vec<_> {
        let tree = |&b: &usize| {
            let mut node = arcs[b].from;
            let label = lex.dist[node - base]?;
            let mut chain = Vec::new();
            while node != start {
                let ai = lex.pred[node - base].expect("reached nodes have predecessors");
                chain.push(ai);
                node = arcs[ai].from;
            }
            Some((label, chain))
        };
        cut.exits.iter().map(tree).collect()
    };
    let line_sets = |sc: &margin::EnvelopeScratch, base: usize| -> Vec<Vec<(i128, i128)>> {
        let heads = (0..cut.exits.len()).map(|j| {
            let mut lines: Vec<_> = sc.lines(cut.w - base + j).collect();
            lines.sort_unstable();
            lines
        });
        heads.collect()
    };
    let (mut lex, mut sc) = (LexScratch::default(), margin::EnvelopeScratch::default());
    let (mut kept_lex, mut kept_sc) = (LexScratch::default(), margin::EnvelopeScratch::default());
    for &start in &cut.landings {
        seen.landings += 1;
        let at = windows.slot(&mon, &cut, table, cut.base);
        let whole = windows.window(at);
        lex.run(&whole.lex, cut.base, &[(start, (0, 0))]);
        mon.margin_sig_sssp(&cut, whole, start, &lex.pred, table, &mut sc);
        seen.refusing += usize::from(sc.refused > 0);
        let mut work = PassWork::default();
        let passes = (&mut kept_lex, &mut kept_sc, &mut windows);
        let at = mon.landing_passes(&cut, table, start, passes, &mut work);
        let base = windows.window(at).base;
        seen.retried += usize::from(work.retries > 0);
        if base == cut.base {
            continue;
        }
        seen.below += 1;
        let context = format!(
            "landing e{start}, window from e{base} of [e{}, e{w})",
            cut.base
        );
        assert_eq!(
            trees(&kept_lex, base, start),
            trees(&lex, cut.base, start),
            "{context}"
        );
        seen.chains += cut.exits.len();
        assert_eq!(
            kept_sc.refused, 0,
            "{context}: a window that refused was kept"
        );
        if sc.refused == 0 {
            assert_eq!(
                line_sets(&kept_sc, base),
                line_sets(&sc, cut.base),
                "{context}"
            );
            seen.line_sets += cut.exits.len();
        }
    }
    seen
}

/// Replays `script` — `(back, to)` steps, sending from the event `back`
/// before the newest to process `to` — into a tracking monitor over `n`
/// processes, prunes `horizon` events behind the newest after every
/// `cadence`-th step, and runs the window oracle before every prune.
fn windows_checked(
    n: usize,
    xi: &Xi,
    script: &[(usize, usize)],
    cadence: usize,
    horizon: usize,
) -> WindowsCompared {
    let mut seen = WindowsCompared::default();
    let mut mon = IncrementalChecker::new(n, xi).unwrap();
    mon.enable_pruning();
    mon.enable_margin_tracking();
    for p in 0..n {
        mon.append_init(ProcessId(p));
    }
    let mut total = n;
    for (step, &(back, to)) in script.iter().enumerate() {
        // Sends name one of the last `horizon` events, so the watermark
        // below is an honest promise.
        let from = EventId(total - 1 - back % horizon.min(total));
        mon.append_send(from, ProcessId(to % n));
        total += 1;
        if step % cadence == 0 {
            let watermark = Some(EventId(total.saturating_sub(horizon)));
            seen = seen.plus(assert_windows_match_the_whole_prefix(&mon, watermark));
            mon.prune_settled(watermark);
        }
    }
    seen
}

/// The certified windows against the whole prefix at every prune of random
/// scripts that prune many times, each a few dozen events deep (cadences
/// 8–63) below a horizon of 1–23 events: the windows hold shortcut arcs of
/// earlier prunes, stale rows' heads land in them, and half the sends
/// reach back the whole horizon, so a path below a window can climb back
/// to an exit tail on one message. Counts what it compared, so that
/// "equal" is known to have been asserted on windows below the whole
/// prefix and not let off.
#[test]
fn certified_windows_equal_the_whole_prefix_at_every_prune() {
    use std::cell::Cell;
    let seen = Cell::new(WindowsCompared::default());
    let script = proptest::collection::vec((any::<usize>(), any::<usize>()), 0..240);
    let xi = (2i64..8, 1i64..5).prop_filter("Xi > 1", |(num, den)| num > den);
    proptest::test_runner::run_proptest(
        ProptestConfig::with_cases(512),
        (2usize..5, script, xi, 8usize..64, 1usize..24),
        env!("CARGO_MANIFEST_DIR"),
        file!(),
        "certified_windows_equal_the_whole_prefix_at_every_prune",
        |(n, script, (num, den), cadence, horizon)| {
            // Half of the sends reach back as far as the horizon allows.
            let far = |&(back, to): &(usize, usize)| ((back % (2 * horizon)).min(horizon - 1), to);
            let script: Vec<_> = script.iter().map(far).collect();
            let xi = Xi::from_fraction(num, den);
            let compared = windows_checked(n, &xi, &script, cadence, horizon);
            seen.set(seen.get().plus(compared));
            Ok(())
        },
    );
    let seen = seen.get();
    // Measured: 1 996 of 4 950 landings certified below the whole prefix,
    // 1 106 refused a smaller window first, 9 516 exits compared.
    assert!(
        10 * seen.below >= 3 * seen.landings && seen.retried > 500,
        "{seen:?}"
    );
    assert!(seen.chains > 5_000 && seen.line_sets > 5_000, "{seen:?}");
}

/// A document where a path below a landing's first window is flatter at
/// an exit than every line the window finds: it dips below the window and
/// climbs back on one message of the horizon's length, where the window's
/// paths to that exit take one forward message more. Its line loses at the
/// kept floor and wins at large probe ratios, so only the slope condition
/// tells the window that it has not seen everything.
#[test]
fn a_flatter_path_below_the_window_keeps_it_from_certifying() {
    let backs = [
        13, 11, 10, 13, 13, 13, 7, 0, 6, 1, 10, 13, 3, 13, 13, 12, 6, 13, 0, 13, 12, 1, 11, 2, 0,
        13, 13, 6, 13, 13, 10, 4, 0, 13, 13, 13, 11, 8, 13, 1, 9, 13, 7, 13, 9, 13, 12, 13, 8, 13,
        0, 13, 13,
    ];
    let tos = [
        2, 1, 3, 1, 3, 2, 3, 0, 0, 1, 3, 3, 3, 3, 0, 0, 1, 2, 0, 1, 3, 1, 2, 3, 0, 0, 2, 1, 3, 2,
        3, 1, 2, 3, 2, 1, 2, 0, 1, 1, 0, 3, 3, 0, 1, 1, 0, 1, 0, 0, 0, 0, 3,
    ];
    let script: Vec<(usize, usize)> = backs.into_iter().zip(tos).collect();
    let seen = windows_checked(4, &Xi::from_fraction(7, 2), &script, 26, 14);
    assert!(seen.below > 0 && seen.retried > 0, "{seen:?}");
}

/// A document where a landing's window certifies although the envelope
/// pass over the whole prefix refuses a junction: below the window two
/// shortcut arcs of earlier prunes meet, and the path holding the tail's
/// line takes back the message the next shortcut starts with. The oracle
/// then compares the lex trees only; the window's exit line sets are the
/// envelope of all paths, the whole prefix's are what its scan order
/// left. The margin the pruning monitor keeps must still be the margin of
/// the whole execution after every step, as an unpruned monitor has it.
#[test]
fn a_window_certifies_where_the_whole_prefix_refuses_a_junction() {
    let backs = [
        1, 4, 4, 0, 4, 4, 2, 0, 4, 0, 4, 1, 0, 4, 4, 4, 4, 4, 2, 1, 3, 4, 1, 4, 1, 1, 4, 2, 4, 4,
        4, 4, 4, 4, 4, 0, 2, 0, 4, 3, 0, 0, 4, 4, 4, 4, 0, 3, 4, 2, 2, 4, 4, 4, 4, 4, 1, 2, 0, 4,
        4, 3, 4, 1, 4, 0, 4,
    ];
    let tos = [
        3, 1, 0, 3, 2, 1, 0, 2, 1, 3, 0, 3, 0, 1, 1, 1, 1, 1, 3, 2, 1, 3, 3, 3, 3, 2, 2, 3, 2, 1,
        3, 2, 3, 2, 1, 1, 1, 0, 2, 1, 1, 1, 1, 2, 0, 3, 3, 1, 2, 3, 3, 3, 1, 2, 3, 2, 2, 3, 2, 1,
        2, 2, 0, 3, 0, 3, 2,
    ];
    let script: Vec<(usize, usize)> = backs.into_iter().zip(tos).collect();
    let (n, xi, cadence, horizon) = (4, Xi::from_fraction(6, 3), 11, 5);
    let seen = windows_checked(n, &xi, &script, cadence, horizon);
    assert!(
        seen.refusing > 0 && seen.line_sets < seen.chains,
        "{seen:?}"
    );
    let mut plain = IncrementalChecker::new(n, &xi).unwrap();
    let mut pruned = IncrementalChecker::new(n, &xi).unwrap();
    pruned.enable_pruning();
    pruned.enable_margin_tracking();
    for p in 0..n {
        plain.append_init(ProcessId(p));
        pruned.append_init(ProcessId(p));
    }
    let ratio = |mon: &IncrementalChecker| mon.current_margin().unwrap().map(|m| m.ratio);
    for (step, &(back, to)) in script.iter().enumerate() {
        let total = plain.total_events();
        let from = EventId(total - 1 - back % horizon.min(total));
        plain.append_send(from, ProcessId(to % n));
        pruned.append_send(from, ProcessId(to % n));
        if step % cadence == 0 {
            pruned.prune_settled(Some(EventId((total + 1).saturating_sub(horizon))));
        }
        assert_eq!(ratio(&pruned), ratio(&plain), "step {step}");
    }
    assert!(plain.is_admissible() && ratio(&plain).is_some());
}

/// A random execution for the deferral tests: process count, an optional
/// faulty process, and `(sender back, receiver, exempt)` steps (a send
/// names any earlier event; one message in four is exempt).
type Deferrable = (usize, Option<usize>, Vec<(usize, usize, bool)>);

fn deferrable_strategy() -> impl Strategy<Value = Deferrable> {
    let step = (any::<usize>(), any::<usize>(), 0u8..4).prop_map(|(b, t, e)| (b, t, e == 0));
    (
        2usize..6,
        any::<usize>(),
        proptest::collection::vec(step, 0..40),
    )
        .prop_map(|(n, pick, script)| (n, (pick % 3 == 0).then_some(pick % n), script))
}

/// Marks the faulty process and wakes every process up.
fn start(mon: &mut IncrementalChecker, (n, faulty, _): &Deferrable) {
    if let Some(p) = faulty {
        mon.mark_faulty(ProcessId(*p));
    }
    for p in 0..*n {
        mon.append_init(ProcessId(p));
    }
}

/// Appends one step of an execution over `n` processes to a monitor
/// holding `total` events.
fn append_step(mon: &mut IncrementalChecker, n: usize, total: usize, step: (usize, usize, bool)) {
    let (back, to, exempt) = step;
    let (from, to) = (EventId(total - 1 - back % total), ProcessId(to % n));
    if exempt {
        mon.append_send_exempt(from, to);
    } else {
        mon.append_send(from, to);
    }
}

/// The arena, arc for arc, and every live node's out-list.
fn arena(mon: &IncrementalChecker) -> (Vec<(usize, usize, ArcKind)>, Vec<Vec<usize>>) {
    let tg = &mon.tg;
    let arcs = tg.arcs().iter().map(|a| (a.from, a.to, a.kind)).collect();
    let lists = (tg.base()..tg.total_nodes()).map(|v| tg.out_arcs(v).collect());
    (arcs, lists.collect())
}

/// Deferral ≡ eager. A monitor that defers its arena ends deferral at a
/// random prefix — at its first tense append, or when asked to keep its
/// margin — and from then on holds exactly the arena, out-lists and
/// potentials of a monitor that kept its margin from before its first
/// append (which never defers; a kept column touches neither arcs nor
/// `pot`); before, it holds no arena at all. Counters, latch point and
/// witness agree throughout.
#[test]
fn a_deferred_arena_is_the_one_the_appends_would_have_grown() {
    use std::cell::Cell;
    let (by_tension, by_tracking) = (Cell::new(0), Cell::new(0));
    let xi = (2i64..8, 1i64..5).prop_filter("Xi > 1", |(num, den)| num > den);
    proptest::test_runner::run_proptest(
        ProptestConfig::with_cases(384),
        (deferrable_strategy(), xi, 0usize..48),
        env!("CARGO_MANIFEST_DIR"),
        file!(),
        "a_deferred_arena_is_the_one_the_appends_would_have_grown",
        |(execution, (num, den), end_at)| {
            let (n, _, script) = &execution;
            let xi = Xi::from_fraction(num, den);
            let mut lazy = IncrementalChecker::new(*n, &xi).unwrap();
            let mut eager = IncrementalChecker::new(*n, &xi).unwrap();
            eager.enable_margin_tracking();
            start(&mut lazy, &execution);
            start(&mut eager, &execution);
            let mut total = *n;
            for (i, &step) in script.iter().enumerate() {
                if i == end_at && lazy.deferred {
                    lazy.enable_margin_tracking();
                    by_tracking.set(by_tracking.get() + 1);
                }
                let was_deferred = lazy.deferred;
                append_step(&mut lazy, *n, total, step);
                append_step(&mut eager, *n, total, step);
                total += 1;
                if was_deferred && !lazy.deferred {
                    by_tension.set(by_tension.get() + 1);
                }
                if lazy.deferred {
                    prop_assert_eq!((lazy.tg.total_nodes(), lazy.tg.num_arcs()), (0, 0));
                    prop_assert_eq!(lazy.sends.len(), total);
                } else {
                    prop_assert_eq!(arena(&lazy), arena(&eager), "event {}", total);
                }
                prop_assert_eq!(&lazy.pot, &eager.pot, "event {}", total);
                let (l, e) = (lazy.stats(), eager.stats());
                prop_assert_eq!((l.arcs, l.live_arcs_peak), (e.arcs, e.live_arcs_peak));
                prop_assert_eq!(
                    (lazy.live_arcs(), l.relaxations),
                    (eager.live_arcs(), e.relaxations)
                );
                prop_assert_eq!(lazy.violation(), eager.violation(), "event {}", total);
                prop_assert_eq!(lazy.violation_summary(), eager.violation_summary());
            }
            Ok(())
        },
    );
    let (by_tension, by_tracking) = (by_tension.get(), by_tracking.get());
    assert!(
        by_tension > 50 && by_tracking > 50,
        "deferral ended {by_tension} times at a tense append, {by_tracking} when asked"
    );
}

/// A quiet execution — no append went tense, so none relaxed a label (a
/// tense one relaxes at least one of its receive's out-arcs) — leaves a
/// new monitor with no arena at all, while it counts every arc it would
/// hold; its margin and bound are those of a monitor that built its arena
/// from the start. An execution that went tense built it.
#[test]
fn a_quiet_execution_builds_no_arena() {
    use std::cell::Cell;
    let quiet = Cell::new(0);
    let xi = (2i64..12, 1i64..4).prop_filter("Xi > 1", |(num, den)| num > den);
    proptest::test_runner::run_proptest(
        ProptestConfig::with_cases(256),
        (deferrable_strategy(), xi),
        env!("CARGO_MANIFEST_DIR"),
        file!(),
        "a_quiet_execution_builds_no_arena",
        |(execution, (num, den))| {
            let (n, _, script) = &execution;
            let xi = Xi::from_fraction(num, den);
            let mut lazy = IncrementalChecker::new(*n, &xi).unwrap();
            let mut built = IncrementalChecker::new(*n, &xi).unwrap();
            built.build_arena();
            start(&mut lazy, &execution);
            start(&mut built, &execution);
            for (total, &step) in (*n..).zip(script) {
                append_step(&mut lazy, *n, total, step);
                append_step(&mut built, *n, total, step);
            }
            let stats = lazy.stats();
            if stats.relaxations > 0 {
                prop_assert!(!lazy.deferred && lazy.tg.num_arcs() > 0);
                return Ok(());
            }
            quiet.set(quiet.get() + 1);
            prop_assert_eq!((lazy.tg.num_arcs(), lazy.tg.capacity()), (0, 0));
            prop_assert_eq!(lazy.live_arcs(), stats.arcs);
            prop_assert!(script.is_empty() || stats.arcs > 0);
            prop_assert_eq!(lazy.current_margin(), built.current_margin());
            prop_assert_eq!(lazy.margin_ratio(), built.margin_ratio());
            prop_assert_eq!(lazy.margin_upper_bound(), built.margin_upper_bound());
            if let Some(bound) = lazy.margin_upper_bound() {
                prop_assert!(bound <= *xi.as_ratio());
            }
            // The readers built nothing into the monitor.
            prop_assert!(lazy.deferred && lazy.tg.capacity() == 0);
            Ok(())
        },
    );
    assert!(quiet.get() > 40, "{} quiet executions", quiet.get());
}

#[test]
fn a_reset_after_a_build_defers_again_and_a_quiet_document_allocates_nothing() {
    let (n, quiet, tense) = (4, dense_script(4, 200, 5), dense_script(4, 200, 6));
    let (calm, tight) = (Xi::from_integer(1_000), Xi::from_fraction(3, 2));
    let mut mon = IncrementalChecker::new(n, &calm).unwrap();
    mon.enable_pruning();
    feed_script(&mut mon, n, &quiet, |_, _| {});
    let first = mon.stats();
    assert!(mon.deferred && first.relaxations == 0 && first.arcs > 0);
    mon.reset(n, &tight).unwrap();
    feed_script(&mut mon, n, &tense, |_, _| {});
    assert!(
        !mon.deferred && mon.tg.num_arcs() > 0,
        "the tense document built"
    );
    mon.reset(n, &calm).unwrap();
    assert!(mon.deferred && mon.tg.total_nodes() == 0);
    let before = mon.capacity();
    feed_script(&mut mon, n, &quiet, |_, _| {});
    assert!(mon.deferred && mon.tg.num_arcs() == 0);
    assert_eq!(mon.stats(), first);
    assert_eq!(mon.capacity(), before, "the quiet document allocated");
}
