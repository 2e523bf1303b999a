//! Polynomial-time checking of the ABC synchrony condition (Definition 4).
//!
//! Definition 4 quantifies over *all* relevant cycles — exponentially many.
//! This module decides admissibility in `O(V·E)` via a reduction to
//! negative-cycle detection, the piece that makes model checking the ABC
//! condition practical (brute-force enumeration, kept in
//! [`crate::enumerate`], cross-validates it in the property tests).
//!
//! # The reduction
//!
//! Build the *traversal graph* `T` over the events of `G` (one shared
//! [`crate::traversal::TraversalGraph`], built once per call and consumed
//! by every pass below):
//!
//! * for every effective message `m = (u → v)`: a **forward** arc `u → v`
//!   and a **backward** arc `v → u`;
//! * for every local edge `(u → v)`: a **backward** arc `v → u` only.
//!
//! Every simple cycle of `T` traverses each local edge backwards, so by
//! Definition 3 it corresponds to a relevant cycle whenever its backward
//! message count `B` is at least its forward message count `F` — and every
//! relevant cycle arises this way (its orientation traversal uses exactly
//! the arcs of `T`). Since every cycle of `T` contains a forward message
//! (an all-backward cycle would be a directed cycle of the acyclic
//! execution graph), with `Ξ = p/q`:
//!
//! > `G` violates the ABC condition **iff** `T` contains a simple cycle
//! > with `q·B − p·F ≥ 0`
//!
//! (note `q·B − p·F ≥ 0` forces `B ≥ Ξ·F > F`, so the Definition 3
//! orientation agrees with the traversal). Cycles of non-negative weight
//! are detected exactly by scaling: give each arc the integer weight
//! `(p·[fwd] − q·[bwd])·K − 1` with `K = (#arcs)+1`; a negative cycle under
//! this weighting exists iff some cycle has `q·B − p·F ≥ 0`.
//!
//! The *decision* seeds in-place Bellman–Ford with the
//! **earliest-feasible potential** (each event labeled, in topological
//! order, at the smallest value its backward and local arcs allow — the
//! incremental monitor's trick) and repairs any remaining tension with
//! alternating directional sweeps under an exact relaxation-chain length
//! certificate. On admissible executions the seed labels are already
//! feasible and one changeless verification sweep decides in `O(V + E)` —
//! instead of the `Θ(V)` full-arc rounds the classical all-zero-source
//! pass pays (its shortest walks zigzag through the whole execution),
//! which is what the `core.check.*` rows of `bench_ledger` (see
//! `BENCHMARK.json`) quantify. Only when a violation exists does
//! [`find_violation`] fall back to the classical round-based pass with
//! predecessor extraction (`violating_cycle_arcs`) to pull out the
//! violating relevant cycle itself, over the same arc arena in the same
//! canonical order.
//!
//! The exact **maximum relevant-cycle ratio** `max |Z−|/|Z+|` comes from
//! the cycle-ratio ascent of the crate's `maxratio` engine — the one the
//! monitor's live margin runs — over the same [`TraversalGraph`].
//!
//! For *online* checking of a growing execution, use
//! [`crate::monitor::IncrementalChecker`], which maintains this module's
//! reduction incrementally instead of re-running it from scratch.

use abc_rational::Ratio;

use crate::cycle::Cycle;
use crate::graph::ExecutionGraph;
use crate::maxratio::{self, NoShortcuts};
use crate::traversal::{Arc, ArcKind, TraversalGraph};
use crate::xi::Xi;

/// Errors reported by the checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// `Ξ`'s numerator or denominator does not fit the integer weights used
    /// by the Bellman–Ford reduction (the scaled weights, accumulated along
    /// a longest relaxation path, would overflow `i128`).
    XiTooLarge,
    /// The graph is too large for the exact arithmetic of
    /// [`max_relevant_cycle_ratio`] and the monitor's margin: probe weights
    /// (parts up to the number of live messages) accumulated over the
    /// graph's size would overflow `i128`. Reported up front, before any
    /// probe runs — never a panic mid-computation.
    GraphTooLarge,
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::XiTooLarge => {
                write!(
                    f,
                    "Xi numerator/denominator exceeds the checker's integer range"
                )
            }
            CheckError::GraphTooLarge => {
                write!(f, "graph exceeds the exact-ratio probes' integer range")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// Whether the scaled Bellman–Ford weights for `Ξ = p/q` stay representable
/// in `i128` throughout relaxation. The largest per-arc weight magnitude is
/// `max(p, q)·K + 1` with `K = #arcs + 1`; a distance label is a walk
/// weight, and because rounds relax in place (Gauss–Seidel), a single round
/// can extend a walk by up to `#arcs` arcs — so over the `#nodes + 1`
/// rounds a label is bounded by `(#nodes + 2)·(#arcs + 1)` arc weights
/// (reached only while lapping a negative cycle, but it must not overflow
/// there either: the witness extraction reads those labels). The seeded
/// decision's labels start at most `#nodes` backward-arc weights high and
/// only decrease along chains of at most `#nodes` arcs — comfortably
/// inside the same budget.
fn weights_fit_i128(p: i128, q: i128, num_arcs: usize, num_nodes: usize) -> bool {
    let Ok(k) = i128::try_from(num_arcs) else {
        return false;
    };
    let Ok(n) = i128::try_from(num_nodes) else {
        return false;
    };
    p.max(q)
        .checked_mul(k + 1)
        .and_then(|w| w.checked_add(1))
        .and_then(|w| w.checked_mul(k + 1))
        .and_then(|w| w.checked_mul(n + 2))
        .is_some()
}

/// `Ξ` as `(p, q)` machine parts usable on a graph of the given size.
fn xi_parts(xi: &Xi, num_arcs: usize, num_nodes: usize) -> Result<(i128, i128), CheckError> {
    let (p, q) = xi.as_i128_parts().ok_or(CheckError::XiTooLarge)?;
    if !weights_fit_i128(p, q, num_arcs, num_nodes) {
        return Err(CheckError::XiTooLarge);
    }
    Ok((p, q))
}

/// The scaled integer weight of an arc for `Ξ = p/q` and `K = #arcs + 1`.
fn scaled_weight(kind: ArcKind, p: i128, q: i128, k: i128) -> i128 {
    let w_prime = match kind {
        ArcKind::Forward(_) => p,
        ArcKind::Backward(_) => -q,
        ArcKind::LocalBack(_) => 0,
        ArcKind::Shortcut(_) => unreachable!("batch graphs carry no shortcut arcs"),
    };
    w_prime * k - 1
}

/// Exact negative-cycle *decision* over the scaled weights, seeded with
/// the **earliest-feasible potential** (the same idea that makes the
/// incremental monitor cheap):
///
/// * walk the events in creation (topological) order and give each the
///   smallest label satisfying all its *lower-bound* arcs — the backward
///   arc of its triggering message (`π(v) ≥ π(send) + q·K + 1`) and its
///   local back-arc (`π(v) ≥ π(prev) + 1`). Timestamp semantics: every
///   message charged its minimum delay. On admissible executions this
///   labeling usually already satisfies the forward upper bounds too, and
///   one changeless verification sweep certifies feasibility — `O(V + E)`
///   total, instead of the `Θ(V)` full-arc rounds an all-zero start needs
///   (its shortest walks zigzag through the whole execution);
/// * where forward arcs are still tense, in-place Bellman–Ford sweeps
///   (alternating arena directions, so each pass propagates whole
///   monotone chains) repair the labels. `len[v]` tracks the arc count of
///   the relaxation chain realizing `dist[v]`: any chain reaching
///   `#nodes` arcs certifies a negative cycle — the standard argument
///   (the chain's second visit to some node strictly improved on its
///   first, so the enclosed cycle is negative) is independent of the
///   initial labeling.
///
/// Exact in both directions.
pub(crate) fn negative_cycle_exists(
    g: &ExecutionGraph,
    tg: &TraversalGraph,
    p: i128,
    q: i128,
) -> bool {
    let n = tg.num_live_nodes();
    let arcs = tg.arcs();
    if n == 0 || arcs.is_empty() {
        return false;
    }
    debug_assert_eq!(tg.base(), 0, "the batch decision is whole-graph only");
    let k = i128::try_from(arcs.len()).expect("arc count fits i128") + 1;
    // Earliest-feasible seed labels, in topological (creation) order.
    let mut dist = vec![0i128; n];
    let mut last_event: Vec<Option<usize>> = vec![None; g.num_processes()];
    for ev in g.events() {
        let v = ev.id.0;
        let mut label = 0i128;
        if let Some(prev) = last_event[ev.process.0] {
            label = dist[prev] + 1;
        }
        if let crate::graph::Trigger::Message(m) = ev.trigger {
            let msg = g.message(m);
            if g.is_effective(m) {
                label = label.max(dist[msg.from.0] + q * k + 1);
            }
        }
        dist[v] = label;
        last_event[ev.process.0] = Some(v);
    }
    let weights: Vec<i128> = arcs
        .iter()
        .map(|a| scaled_weight(a.kind, p, q, k))
        .collect();
    let mut len = vec![0u32; n];
    let limit = u32::try_from(n).unwrap_or(u32::MAX);
    // Shortest relaxation chains from the seed are simple unless a
    // negative cycle exists, so `n + 1` double sweeps always suffice to
    // either converge or push some chain past the length certificate.
    for _round in 0..=n {
        let mut changed = false;
        let mut relax = |ai: usize, changed: &mut bool| -> bool {
            let arc = arcs[ai];
            let u = arc.from;
            let cand = dist[u] + weights[ai];
            if cand < dist[arc.to] {
                dist[arc.to] = cand;
                len[arc.to] = len[u] + 1;
                *changed = true;
                return len[arc.to] >= limit;
            }
            false
        };
        for ai in (0..arcs.len()).rev() {
            if relax(ai, &mut changed) {
                return true;
            }
        }
        for ai in 0..arcs.len() {
            if relax(ai, &mut changed) {
                return true;
            }
        }
        if !changed {
            return false;
        }
    }
    // Unreachable in theory (see above); conservatively report a negative
    // cycle only if a final sweep still changes labels.
    let mut changed = false;
    for (ai, arc) in arcs.iter().enumerate() {
        let cand = dist[arc.from] + weights[ai];
        if cand < dist[arc.to] {
            dist[arc.to] = cand;
            changed = true;
        }
    }
    changed
}

/// Classical round-based Bellman–Ford negative-cycle detection over the
/// scaled weights for `Ξ = p/q`, with predecessor extraction. Returns the
/// arc indices of a violating cycle, in traversal order, if one exists.
/// Kept as the *witness extractor* (its output on the canonical arc order
/// is the byte-stable batch witness); the cheap decision path is
/// [`negative_cycle_exists`].
pub(crate) fn violating_cycle_arcs(
    arcs: &[Arc],
    num_nodes: usize,
    p: i128,
    q: i128,
) -> Option<Vec<usize>> {
    if num_nodes == 0 || arcs.is_empty() {
        return None;
    }
    let k = i128::try_from(arcs.len()).expect("arc count fits i128") + 1;
    let mut dist = vec![0i128; num_nodes];
    let mut pred: Vec<Option<usize>> = vec![None; num_nodes];
    let mut changed_node = None;
    for round in 0..=num_nodes {
        let mut changed = None;
        for (ai, arc) in arcs.iter().enumerate() {
            let cand = dist[arc.from] + scaled_weight(arc.kind, p, q, k);
            if cand < dist[arc.to] {
                dist[arc.to] = cand;
                pred[arc.to] = Some(ai);
                changed = Some(arc.to);
            }
        }
        match changed {
            None => return None,
            Some(node) if round == num_nodes => {
                changed_node = Some(node);
            }
            Some(_) => {}
        }
    }
    // A relaxation happened in round `num_nodes`: a negative cycle exists in
    // the predecessor graph. Walk back to land inside it, then collect it.
    let mut node = changed_node.expect("loop ended via final-round relaxation");
    for _ in 0..num_nodes {
        node = arcs[pred[node].expect("relaxed nodes have predecessors")].from;
    }
    let start = node;
    let mut cycle_arcs = Vec::new();
    loop {
        let ai = pred[node].expect("cycle nodes have predecessors");
        cycle_arcs.push(ai);
        node = arcs[ai].from;
        if node == start {
            break;
        }
    }
    cycle_arcs.reverse(); // predecessor walk collects arcs destination-first
    Some(cycle_arcs)
}

/// The walk along the arcs `indices` of a batch graph, as a [`Cycle`].
pub(crate) fn arcs_to_cycle(arcs: &[Arc], indices: &[usize]) -> Cycle {
    let step = |&ai: &usize| arcs[ai].kind.step();
    let steps = indices.iter().map(step).collect::<Result<_, _>>();
    Cycle::new(steps.expect("batch graphs carry no shortcut arcs"))
}

/// Searches for a relevant cycle violating the ABC condition for `xi`
/// (i.e. with `|Z−|/|Z+| ≥ Ξ`). Polynomial: `O(V·E)`.
///
/// # Errors
///
/// [`CheckError::XiTooLarge`] if `Ξ`'s parts (times the graph-size scaling)
/// do not fit `i128` — only genuinely unrepresentable parameters.
///
/// # Example
///
/// ```
/// use abc_core::graph::{ExecutionGraph, ProcessId};
/// use abc_core::check::find_violation;
/// use abc_core::Xi;
///
/// // A 2-message chain q -> r -> p is spanned by a single slow message
/// // q -> p arriving later: a relevant cycle with ratio 2/1.
/// let mut b = ExecutionGraph::builder(3);
/// let q = b.init(ProcessId(0));
/// b.init(ProcessId(1));
/// b.init(ProcessId(2));
/// let (_, r) = b.send(q, ProcessId(2));
/// b.send(r, ProcessId(1)); // chain arrives first at p
/// b.send(q, ProcessId(1)); // direct message arrives second: it spans
/// let g = b.finish();
/// assert!(find_violation(&g, &Xi::from_integer(2)).unwrap().is_some());
/// assert!(find_violation(&g, &Xi::from_integer(3)).unwrap().is_none());
/// ```
pub fn find_violation(g: &ExecutionGraph, xi: &Xi) -> Result<Option<Cycle>, CheckError> {
    let tg = TraversalGraph::from_graph(g);
    let (p, q) = xi_parts(xi, tg.num_arcs(), g.num_events())?;
    if !negative_cycle_exists(g, &tg, p, q) {
        return Ok(None);
    }
    let indices = violating_cycle_arcs(tg.arcs(), g.num_events(), p, q)
        .expect("the seeded decision certified a negative cycle");
    let cycle = arcs_to_cycle(tg.arcs(), &indices);
    debug_assert!(cycle.validate(g).is_ok(), "extracted witness must validate");
    let class = cycle.classify();
    assert!(
        class.violates(xi),
        "internal error: extracted cycle {cycle} does not violate Xi = {xi}"
    );
    Ok(Some(cycle))
}

/// Whether the execution graph satisfies the ABC synchrony condition for
/// `xi` (Definition 4).
///
/// # Errors
///
/// [`CheckError::XiTooLarge`] if `Ξ`'s parts (times the graph-size scaling)
/// do not fit `i128`.
pub fn is_admissible(g: &ExecutionGraph, xi: &Xi) -> Result<bool, CheckError> {
    let tg = TraversalGraph::from_graph(g);
    let (p, q) = xi_parts(xi, tg.num_arcs(), g.num_events())?;
    Ok(!negative_cycle_exists(g, &tg, p, q))
}

/// Whether the graph contains any relevant cycle at all.
#[must_use]
pub fn has_relevant_cycle(g: &ExecutionGraph) -> bool {
    // A relevant cycle has B >= F, i.e. ratio >= 1.
    maxratio::has_cycle_at_least_one(&TraversalGraph::from_graph(g))
}

/// [`max_relevant_cycle_ratio`] together with a cycle attaining it. The
/// cycle is `None` exactly when the ratio is `1`, where the certificate
/// is a closed walk of tight arcs rather than one canonical cycle.
pub(crate) fn max_ratio_cycle(
    g: &ExecutionGraph,
) -> Result<Option<(Ratio, Option<Cycle>)>, CheckError> {
    let tg = TraversalGraph::from_graph(g);
    let Some(found) = maxratio::max_cycle_ratio(&tg, &NoShortcuts, None)? else {
        return Ok(None);
    };
    let cycle = (!found.cycle.is_empty()).then(|| {
        let indices: Vec<usize> = found.cycle.iter().map(|&(ai, _)| ai).collect();
        arcs_to_cycle(tg.arcs(), &indices)
    });
    Ok(Some((maxratio::ratio_of((found.b, found.f)), cycle)))
}

/// The exact maximum `|Z−|/|Z+|` over all relevant cycles of `g`, or
/// `Ok(None)` if `g` has no relevant cycle.
///
/// The value is the *infimum* of the `Ξ` values for which `g` is admissible:
/// `is_admissible(g, xi)` holds iff `xi > max_relevant_cycle_ratio(g)`.
///
/// Complexity: a handful of seeded Bellman–Ford probes (one per cycle the
/// ascent climbs through, plus a last one that finds nothing) — `O(V + E)`
/// each when the seed labels already fit, `O(V·E)` at worst.
///
/// # Errors
///
/// [`CheckError::GraphTooLarge`] when the graph is so large that probe
/// weights accumulated over it would overflow the exact `i128`
/// arithmetic (beyond any graph that fits in memory today). The bound is
/// checked **up front** — a clean error, never a panic or a silent wrap.
pub fn max_relevant_cycle_ratio(g: &ExecutionGraph) -> Result<Option<Ratio>, CheckError> {
    Ok(max_ratio_cycle(g)?.map(|(ratio, _)| ratio))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate_relevant_cycles, EnumerationLimits};
    use crate::graph::ProcessId;

    /// A fast `hops`-message chain q -> relays -> p, spanned by one slow
    /// direct message q -> p that arrives later: relevant cycle with ratio
    /// `hops / 1`.
    fn two_chain(hops: usize) -> ExecutionGraph {
        let mut b = ExecutionGraph::builder(hops + 1);
        let q = b.init(ProcessId(0));
        for i in 1..=hops {
            b.init(ProcessId(i));
        }
        // Fast chain: q -> 2 -> 3 -> ... -> hops -> 1, arriving first at p.
        let mut cur = q;
        for i in 2..=hops {
            let (_, r) = b.send(cur, ProcessId(i));
            cur = r;
        }
        b.send(cur, ProcessId(1));
        // Slow direct message arrives second: it spans the fast chain.
        b.send(q, ProcessId(1));
        b.finish()
    }

    #[test]
    fn two_chain_ratio_is_hops() {
        for hops in 2..=6 {
            let g = two_chain(hops);
            let ratio = max_relevant_cycle_ratio(&g).unwrap().expect("cycle exists");
            assert_eq!(ratio, Ratio::from_integer(hops as i64), "hops = {hops}");
            // Admissible strictly above the ratio, violating at or below it.
            let at = Xi::new(ratio.clone()).unwrap();
            assert!(!is_admissible(&g, &at).unwrap());
            let above = Xi::new(&ratio + &Ratio::new(1, 7)).unwrap();
            assert!(is_admissible(&g, &above).unwrap());
        }
    }

    #[test]
    fn violation_witness_is_a_violating_relevant_cycle() {
        let g = two_chain(4);
        let xi = Xi::from_integer(2);
        let w = find_violation(&g, &xi).unwrap().expect("ratio 4 >= 2");
        assert!(w.validate(&g).is_ok());
        let c = w.classify();
        assert!(c.relevant);
        assert!(c.ratio().unwrap() >= Ratio::from_integer(2));
    }

    #[test]
    fn acyclic_graphs_are_admissible_for_every_xi() {
        let mut b = ExecutionGraph::builder(3);
        let a = b.init(ProcessId(0));
        b.init(ProcessId(1));
        b.init(ProcessId(2));
        b.send(a, ProcessId(1));
        b.send(a, ProcessId(2));
        let g = b.finish();
        assert!(!has_relevant_cycle(&g));
        assert_eq!(max_relevant_cycle_ratio(&g), Ok(None));
        assert!(is_admissible(&g, &Xi::from_fraction(101, 100)).unwrap());
    }

    #[test]
    fn faulty_messages_do_not_violate() {
        // Same shape as two_chain(4) — ratio 4, violating Xi = 3/2 — but one
        // relay of the fast chain is Byzantine, so the chain's messages are
        // dropped from the condition and no relevant cycle remains.
        let mut b = ExecutionGraph::builder(5);
        let q = b.init(ProcessId(0));
        for i in 1..=4 {
            b.init(ProcessId(i));
        }
        let (_, r2) = b.send(q, ProcessId(2));
        let (_, r3) = b.send(r2, ProcessId(3));
        let (_, r4) = b.send(r3, ProcessId(4));
        b.send(r4, ProcessId(1));
        b.send(q, ProcessId(1)); // slow spanning message
        let g_violating = b.clone().finish();
        assert!(!is_admissible(&g_violating, &Xi::from_fraction(3, 2)).unwrap());
        b.mark_faulty(ProcessId(4));
        let g = b.finish();
        assert!(is_admissible(&g, &Xi::from_fraction(3, 2)).unwrap());
    }

    #[test]
    fn ratio_exactly_xi_is_a_violation() {
        // Definition 4 requires |Z−|/|Z+| < Ξ strictly.
        let g = two_chain(3);
        assert!(!is_admissible(&g, &Xi::from_integer(3)).unwrap());
        assert!(is_admissible(&g, &Xi::from_fraction(31, 10)).unwrap());
    }

    #[test]
    fn fractional_ratios_are_exact() {
        // Two chains of 5 and 4 messages: ratio 5/4 (the Fig. 1 shape).
        let mut b = ExecutionGraph::builder(9);
        let q = b.init(ProcessId(0));
        for i in 1..9 {
            b.init(ProcessId(i));
        }
        let mut cur = q;
        for i in 2..=5 {
            let (_, r) = b.send(cur, ProcessId(i));
            cur = r;
        }
        b.send(cur, ProcessId(1)); // 5-message chain
        let mut cur = q;
        for i in 6..=8 {
            let (_, r) = b.send(cur, ProcessId(i));
            cur = r;
        }
        b.send(cur, ProcessId(1)); // 4-message chain, arrives later
        let g = b.finish();
        assert_eq!(max_relevant_cycle_ratio(&g), Ok(Some(Ratio::new(5, 4))));
        assert!(!is_admissible(&g, &Xi::from_fraction(5, 4)).unwrap());
        assert!(is_admissible(&g, &Xi::from_fraction(13, 10)).unwrap());
    }

    #[test]
    fn checker_agrees_with_enumeration_on_small_graphs() {
        // Cross-validation: the max ratio from brute-force enumeration
        // equals the checker's on several hand-built graphs.
        for hops in 2..=5 {
            let g = two_chain(hops);
            let brute = enumerate_relevant_cycles(&g, EnumerationLimits::default())
                .cycles
                .iter()
                .filter_map(|c| c.classify().ratio())
                .max();
            assert_eq!(max_relevant_cycle_ratio(&g), Ok(brute), "hops = {hops}");
        }
    }

    #[test]
    fn xi_too_large_is_reported() {
        let g = two_chain(2);
        let huge = Xi::new(Ratio::from_bigints(
            "170141183460469231731687303715884105727".parse().unwrap(),
            abc_rational::BigInt::from(1),
        ))
        .unwrap();
        assert_eq!(find_violation(&g, &huge), Err(CheckError::XiTooLarge));
        assert_eq!(is_admissible(&g, &huge), Err(CheckError::XiTooLarge));
    }

    #[test]
    fn xi_beyond_i64_is_now_representable() {
        // Parts wider than i64 but within the i128 weight budget used to
        // trip XiTooLarge; the widened reduction handles them exactly.
        let g = two_chain(2);
        let wide = Xi::new(Ratio::from_bigints(
            abc_rational::BigInt::from(1i128 << 80),
            abc_rational::BigInt::from(3),
        ))
        .unwrap();
        assert!(wide.as_i64_parts().is_none());
        assert!(is_admissible(&g, &wide).unwrap(), "ratio 2 is below 2^80/3");
        assert_eq!(find_violation(&g, &wide).unwrap(), None);
        // And a violating case: Xi barely above 1 with a >i64 denominator.
        let tight = Xi::new(Ratio::from_bigints(
            abc_rational::BigInt::from((1i128 << 80) + 1),
            abc_rational::BigInt::from(1i128 << 80),
        ))
        .unwrap();
        assert!(!is_admissible(&g, &tight).unwrap(), "ratio 2 exceeds ~1");
        assert!(find_violation(&g, &tight).unwrap().is_some());
    }

    #[test]
    fn near_limit_xi_on_violating_graph_is_rejected_not_overflowed() {
        // Regression: with a violating cycle present, in-place relaxation
        // laps the cycle once per round, so labels accumulate up to
        // #rounds · #arcs weights — a Xi this size must be rejected by the
        // guard, not silently overflow i128 during detection.
        let g = two_chain(10);
        let p = abc_rational::BigInt::from(1i128 << 117);
        let q = &p - &abc_rational::BigInt::one();
        let xi = Xi::new(Ratio::from_bigints(p, q)).unwrap();
        assert_eq!(find_violation(&g, &xi), Err(CheckError::XiTooLarge));
        assert_eq!(is_admissible(&g, &xi), Err(CheckError::XiTooLarge));
    }

    #[test]
    fn oversized_graphs_get_a_clean_ratio_error_not_a_panic() {
        // Probe parts are cycle counts (≤ the number of messages), so the
        // overflow guard is one checked product; its boundary is pinned in
        // `maxratio::tests`. A graph that trips it does not fit in memory:
        // a 200 000-message chain is simply answered, in milliseconds,
        // because a *no* probe is one changeless sweep.
        let msgs = 200_000usize;
        let mut b = ExecutionGraph::builder(1);
        let mut cur = b.init(ProcessId(0));
        for _ in 0..msgs {
            let (_, r) = b.send(cur, ProcessId(0));
            cur = r;
        }
        let g = b.finish();
        assert_eq!(max_relevant_cycle_ratio(&g), Ok(None));
        assert!(!maxratio::probe_weights_fit(i128::MAX / 4, 1, msgs));
        assert!(max_relevant_cycle_ratio(&two_chain(3)).unwrap().is_some());
    }

    #[test]
    fn seeded_decision_agrees_with_round_based_extraction() {
        // The cheap decision and the classical extractor must agree on
        // every (graph, Xi) pair: a violation is found iff extraction
        // succeeds.
        for hops in 2..=6 {
            let g = two_chain(hops);
            for xi_num in 2..=8 {
                let xi = Xi::from_integer(xi_num);
                let tg = TraversalGraph::from_graph(&g);
                let (p, q) = xi_parts(&xi, tg.num_arcs(), g.num_events()).unwrap();
                assert_eq!(
                    negative_cycle_exists(&g, &tg, p, q),
                    violating_cycle_arcs(tg.arcs(), g.num_events(), p, q).is_some(),
                    "hops = {hops}, xi = {xi}"
                );
            }
        }
    }
}
