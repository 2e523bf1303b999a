//! The paper's separation scenarios: executions admissible in the ABC
//! model but in none of the classic partially synchronous models.
//!
//! * [`fig9_compensated_paths`] — Fig. 9: a long `q → r` link compensated
//!   by a fast `r → s` link; only *path sums* matter for the ABC condition,
//!   so per-link Θ-style constraints are violated while ABC holds.
//! * [`fig10_fifo`] — Fig. 10: with `Ξ = 4`, the ABC condition *implies*
//!   FIFO order on the `p2 → q1` link even though its delays grow without
//!   bound; the reordered variant contains a ratio-5 relevant cycle.
//! * [`spacecraft_growing_delays`] — §5.1/§5.3: two clusters drifting
//!   apart; inter-cluster delays grow forever, defeating every finite
//!   delay bound (ParSync), every delay ratio over time (Θ on overlapping
//!   transits stays fine here by construction), and FAR's finite average —
//!   while the ABC condition holds with room to spare.

use abc_core::graph::{ExecutionGraph, ProcessId};
use abc_core::timed::TimedGraph;

/// Fig. 9: `q` ping-pongs with `p` over a 1-hop path while talking to `s`
/// via `r` over a 2-hop path whose first link is slow and second is fast.
///
/// Returns `(graph, timed)`. The relevant cycle compares the 4-message
/// round trip `q→r→s→r→q` against `Ξ` instances of the 2-message round
/// trip `q→p→q`; with link delays `(q→r) = 38, (r→s) = 2` and
/// `(q→p) = 10`, the 4-hop path sums to 80 against two 2-hop round trips
/// of 40 — individually the `q→r` link is 3.8× the `q→p` link (violating
/// any per-link Θ < 3.8), but the cycle ratio stays at 4/4 = 1.
#[must_use]
pub fn fig9_compensated_paths() -> (ExecutionGraph, TimedGraph) {
    // Processes: 0 = q, 1 = p, 2 = r, 3 = s.
    let mut b = ExecutionGraph::builder(4);
    let q0 = b.init(ProcessId(0));
    for i in 1..4 {
        b.init(ProcessId(i));
    }
    let mut times: Vec<(usize, i64)> = (0..4).map(|e| (e, 0)).collect();
    // Two ping-pong round trips with p: q→p (10), p→q (10), q→p, p→q.
    let mut cur = q0;
    let mut t = 0;
    let mut pp_last = q0;
    for i in 0..4 {
        let dest = if i % 2 == 0 {
            ProcessId(1)
        } else {
            ProcessId(0)
        };
        let (_, recv) = b.send(cur, dest);
        t += 10;
        times.push((recv.0, t));
        cur = recv;
        pp_last = recv;
    }
    // The 2-hop round trip: q→r (38), r→s (2), s→r (2), r→q (38), arriving
    // at q after the ping-pongs (80 > 40).
    let mut cur = q0;
    let mut t = 0;
    for (dest, d) in [
        (ProcessId(2), 38),
        (ProcessId(3), 2),
        (ProcessId(2), 2),
        (ProcessId(0), 38),
    ] {
        let (_, recv) = b.send(cur, dest);
        t += d;
        times.push((recv.0, t));
        cur = recv;
    }
    let _ = pp_last;
    let g = b.finish();
    let mut full = vec![0i64; g.num_events()];
    for (e, tt) in times {
        full[e] = tt;
    }
    (g, TimedGraph::from_integer_times(&full))
}

/// Fig. 10: bounded-size FIFO from the ABC condition alone.
///
/// `p1 ↔ p2` ping-pong while `p2` sends two messages `φ, φ'` to `q1` with
/// huge, growing delays. Between the two sends, four ping-pong messages
/// pass. Returns `(in_order, reordered)` graphs: the in-order variant is
/// admissible for `Ξ = 4`; the reordered variant (second message
/// overtaking the first) contains a relevant cycle with `|Z−|/|Z+| = 5`.
#[must_use]
pub fn fig10_fifo() -> (ExecutionGraph, ExecutionGraph) {
    let build = |reorder: bool| -> ExecutionGraph {
        // Processes: 0 = p1, 1 = p2, 2 = q1.
        let mut b = ExecutionGraph::builder(3);
        let p1_0 = b.init(ProcessId(0));
        b.init(ProcessId(1));
        b.init(ProcessId(2));
        // p1 starts the ping-pong: p1 → p2.
        let (_, a1) = b.send(p1_0, ProcessId(1)); // p2's first event
                                                  // p2 sends φ to q1.
        let (phi, _) = {
            // Delay the receive event creation to control order: builder
            // receive order = call order, so stage sends accordingly.
            (a1, ())
        };
        let _ = phi;
        // We need explicit control of q1's receive order; collect the send
        // events first.
        // Ping-pong: a1 → p1 (b1), b1 → p2 (a2), a2 → p1 (b2), b2 → p2 (a3).
        let (_, b1) = b.send(a1, ProcessId(0));
        let (_, a2) = b.send(b1, ProcessId(1));
        let (_, b2) = b.send(a2, ProcessId(0));
        let (_, a3) = b.send(b2, ProcessId(1));
        // φ is sent at a1 (before the 4 ping-pong messages), φ' at a3
        // (after). In-order: φ arrives first; reordered: φ' overtakes.
        if reorder {
            let (_, _phi2_recv) = b.send(a3, ProcessId(2));
            let (_, _phi_recv) = b.send(a1, ProcessId(2));
        } else {
            let (_, _phi_recv) = b.send(a1, ProcessId(2));
            let (_, _phi2_recv) = b.send(a3, ProcessId(2));
        }
        b.finish()
    };
    (build(false), build(true))
}

/// §5.1/§5.3: two clusters of spacecraft drifting apart. Intra-cluster
/// round trips stay fast (delay 1); inter-cluster messages take
/// `base · 2^i` for the `i`-th exchange. Returns `(graph, timed)`; the
/// inter-cluster delays are unbounded and monotonically growing, yet every
/// relevant cycle compares one inter-cluster round trip against the *next*
/// one, keeping ratios bounded.
#[must_use]
pub fn spacecraft_growing_delays(exchanges: usize) -> (ExecutionGraph, TimedGraph) {
    // Processes: 0, 1 = cluster A; 2, 3 = cluster B.
    let mut b = ExecutionGraph::builder(4);
    let a0 = b.init(ProcessId(0));
    for i in 1..4 {
        b.init(ProcessId(i));
    }
    let mut times: Vec<(usize, i64)> = (0..4).map(|e| (e, 0)).collect();
    let mut cur = a0;
    let mut t0: i64 = 0;
    let mut delay: i64 = 4;
    for _ in 0..exchanges {
        // The inter-cluster round trip departs first: 0 → 2 (delay), then
        // B-cluster chat 2 → 3 → 2 (delay 1 each), then the reply 2 → 0.
        let (_, z) = b.send(cur, ProcessId(2));
        times.push((z.0, t0 + delay));
        let (_, b1) = b.send(z, ProcessId(3));
        times.push((b1.0, t0 + delay + 1));
        let (_, b2) = b.send(b1, ProcessId(2));
        times.push((b2.0, t0 + delay + 2));
        // Meanwhile cluster A ping-pongs: 3 round trips (6 messages of
        // delay 1) finish long before the inter-cluster reply.
        let mut pp = cur;
        for j in 0..6 {
            let dest = if j % 2 == 0 {
                ProcessId(1)
            } else {
                ProcessId(0)
            };
            let (_, recv) = b.send(pp, dest);
            times.push((recv.0, t0 + j + 1));
            pp = recv;
        }
        // The reply arrives at p0 after the ping-pongs: a relevant cycle
        // with 6 backward (fast) vs 4 forward (inter + B-chat) messages —
        // ratio 3/2, regardless of how large `delay` has grown.
        let (_, w) = b.send(b2, ProcessId(0));
        times.push((w.0, t0 + 2 * delay + 2));
        cur = w;
        t0 += 2 * delay + 2;
        delay *= 2;
    }
    let g = b.finish();
    let mut full = vec![0i64; g.num_events()];
    for (e, tt) in times {
        full[e] = tt;
    }
    (g, TimedGraph::from_integer_times(&full))
}

/// One entry of [`named`]: `(name, description, builder)`, where the
/// builder returns the scenario's execution graph.
pub type NamedScenario = (&'static str, &'static str, fn() -> ExecutionGraph);

/// The prebuilt scenarios by stable name, for harnesses and CLIs
/// (`abc check --scenario <name>`).
#[must_use]
pub fn named() -> Vec<NamedScenario> {
    vec![
        (
            "fig9",
            "Fig. 9: 2-hop delay compensation (ABC-admissible, per-link ratios wild)",
            || fig9_compensated_paths().0,
        ),
        (
            "fig10-inorder",
            "Fig. 10: FIFO-ordered growing-delay link (admissible for Xi = 4)",
            || fig10_fifo().0,
        ),
        (
            "fig10-reordered",
            "Fig. 10: the reordered variant (ratio-5 relevant cycle)",
            || fig10_fifo().1,
        ),
        (
            "spacecraft",
            "Sec. 5.1/5.3: two drifting clusters, 8 exchanges of doubling delays",
            || spacecraft_growing_delays(8).0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{archimedean, far, parsync};
    use abc_core::{check, Xi};
    use abc_rational::Ratio;

    #[test]
    fn named_registry_builds_checkable_graphs() {
        let entries = named();
        assert!(entries.len() >= 4);
        for (name, _, build) in entries {
            let g = build();
            assert!(g.num_events() > 0, "{name}: empty graph");
            // Every named scenario must be decidable by the batch checker.
            let _ = check::is_admissible(&g, &Xi::from_integer(4)).unwrap();
        }
        assert!(!check::is_admissible(
            &named()
                .iter()
                .find(|(n, _, _)| *n == "fig10-reordered")
                .unwrap()
                .2(),
            &Xi::from_integer(4)
        )
        .unwrap());
    }

    #[test]
    fn fig9_abc_admissible_but_per_link_ratios_wild() {
        let (g, timed) = fig9_compensated_paths();
        timed.validate(&g).unwrap();
        // Cycle ratio 1 (both chains have 4 messages): admissible for any Ξ.
        let ratio = check::max_relevant_cycle_ratio(&g).unwrap().unwrap();
        assert_eq!(ratio, Ratio::from_integer(1));
        assert!(check::is_admissible(&g, &Xi::from_fraction(11, 10)).unwrap());
        // Per-message delays span 2..38: Θ over overlapping transits
        // exceeds 3 (the slow q→r overlaps the fast ping-pongs).
        let theta = timed.max_theta_ratio(&g).unwrap().unwrap();
        assert!(theta >= Ratio::from_integer(3), "theta = {theta}");
    }

    #[test]
    fn fig10_fifo_is_forced_by_xi_4() {
        let (in_order, reordered) = fig10_fifo();
        let xi = Xi::from_integer(4);
        assert!(check::is_admissible(&in_order, &xi).unwrap());
        assert!(!check::is_admissible(&reordered, &xi).unwrap());
        // The reordering witness has ratio exactly 5 (4 ping-pongs + φ
        // against φ′).
        assert_eq!(
            check::max_relevant_cycle_ratio(&reordered),
            Ok(Some(Ratio::from_integer(5)))
        );
        // With Ξ = 6 the reordering would be allowed: the FIFO guarantee
        // is exactly as strong as Ξ is small.
        assert!(check::is_admissible(&reordered, &Xi::from_integer(6)).unwrap());
    }

    #[test]
    fn spacecraft_defeats_other_models_but_not_abc() {
        let (g, timed) = spacecraft_growing_delays(12);
        timed.validate(&g).unwrap();
        // ABC: admissible with a small Ξ — the ratio is 3/2 per exchange
        // and composes to 3/2 across exchanges.
        let ratio = check::max_relevant_cycle_ratio(&g).unwrap().unwrap();
        assert!(
            ratio <= Ratio::from_integer(2),
            "cycle ratio stays small: {ratio}"
        );
        assert!(check::is_admissible(&g, &Xi::from_integer(2)).unwrap());
        // Θ: fast intra-cluster messages overlap ever-slower inter-cluster
        // ones; the observed Θ diverges with the drift.
        let theta = timed.max_theta_ratio(&g).unwrap().unwrap();
        assert!(theta >= Ratio::from_integer(1_000), "theta = {theta}");
        // ParSync: delays (and gaps) grow without bound vs. step time ~1.
        let verdict =
            parsync::check_parsync(&g, &timed, &parsync::ParSyncParams { phi: 50, delta: 50 });
        assert!(!verdict.admissible);
        // Archimedean: ratio diverges.
        assert!(!archimedean::is_admissible(
            &g,
            &timed,
            &Ratio::from_integer(50)
        ));
        // FAR: the running average of delays diverges (compare prefixes).
        let avgs = far::running_average_delays(&g, &timed);
        let (small, big) = (avgs[avgs.len() / 2].clone(), avgs.last().unwrap().clone());
        assert!(big > &small * &Ratio::from_integer(4), "average diverges");
        assert!(!far::is_admissible(
            &g,
            &timed,
            &Ratio::from_integer(100),
            &Ratio::new(1, 2)
        ));
    }
}
