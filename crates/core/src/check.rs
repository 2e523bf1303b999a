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
//! Decision and witness are **one pass** of the crate's worklist
//! negative-cycle kernel (`negcycle.rs`: FIFO label-correcting with
//! Tarjan's subtree disassembly), started from the **earliest-feasible
//! potential** — each event labeled, in topological order, at the smallest
//! value its backward and local arcs allow, the incremental monitor's
//! trick. On admissible executions those labels are already feasible and
//! one changeless scan of every node decides in `O(V + E)`; where forward
//! arcs are still tense, only the nodes whose label moves are scanned
//! again — not the whole arena once per step of a zigzag through the
//! execution, which is what round-based sweeps pay. A violation surfaces
//! the moment the tree of relaxing arcs would close a cycle, and that
//! cycle *is* the witness [`find_violation`] returns: nothing is run a
//! second time to extract it, and nothing after the latch is looked at
//! twice. A *no* leaves a feasible potential, which the same run in
//! [`crate::assign::assign_delays`] scales back into a Theorem 7
//! assignment. The `core.check.*` rows of `bench_ledger` (see
//! `BENCHMARK.json`) and the counters `check.relaxations` /
//! `check.arc_visits` quantify it.
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
use crate::maxratio;
use crate::negcycle::{self, NegCycle};
use crate::traversal::{Arc, ArcKind, TraversalGraph};
use crate::xi::Xi;

/// The kernel's batch runs: one per check, one per max-ratio probe.
static OBS_RELAXATIONS: abc_obs::CounterDef = abc_obs::CounterDef::new("check.relaxations");
static OBS_ARC_VISITS: abc_obs::CounterDef = abc_obs::CounterDef::new("check.arc_visits");

pub(crate) fn record_kernel_run(run: &negcycle::Run) {
    OBS_RELAXATIONS.add(run.relaxations);
    OBS_ARC_VISITS.add(run.arc_visits);
}

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

/// Whether the scaled weights for `Ξ = p/q` stay representable in `i128`
/// throughout relaxation. The largest per-arc weight magnitude is
/// `max(p, q)·K + 1` with `K = #arcs + 1`, and the bound allows a label
/// `(#nodes + 2)·(#arcs + 1)` of those — what round-based in-place sweeps
/// could reach while lapping a negative cycle. The kernel never laps one:
/// a label is a seed label (at most `#nodes` backward-arc weights high)
/// plus a *simple* path of at most `#nodes` arcs, so `2·#nodes` arc
/// weights suffice and the bound is slack by a factor of about `#arcs/2`.
/// It is kept as it is: which `Ξ` earn [`CheckError::XiTooLarge`] is
/// observable behaviour.
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

/// `Ξ` as `(p, q)` machine parts usable on the batch graph `tg`.
pub(crate) fn xi_parts(xi: &Xi, tg: &TraversalGraph) -> Result<(i128, i128), CheckError> {
    let (p, q) = xi.as_i128_parts().ok_or(CheckError::XiTooLarge)?;
    if !weights_fit_i128(p, q, tg.num_arcs(), tg.num_live_nodes()) {
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

/// One run of the crate's negative-cycle kernel under the scaled weights
/// for `Ξ = p/q`, from the earliest-feasible start labels: a feasible
/// potential (one label per event) with its scale `K` when the graph is
/// admissible, else the arc indices, in traversal order, of a negative
/// cycle — a violating relevant cycle. Exact in both directions.
pub(crate) fn potential_or_cycle(
    tg: &TraversalGraph,
    p: i128,
    q: i128,
) -> Result<(Vec<i128>, i128), Vec<usize>> {
    debug_assert_eq!(tg.base(), 0, "the batch check is whole-graph only");
    let arcs = tg.arcs();
    let k = i128::try_from(arcs.len()).expect("arc count fits i128") + 1;
    let weight = |ai: usize| Some(scaled_weight(arcs[ai].kind, p, q, k));
    let mut labels = vec![0; tg.num_live_nodes()];
    negcycle::seed_earliest_feasible(tg, &mut labels, weight);
    let run = NegCycle::default().run(tg, &mut labels, 0..tg.num_live_nodes(), weight, None);
    record_kernel_run(&run);
    run.cycle.map_or(Ok((labels, k)), Err)
}

/// The walk along the arcs `indices` of a batch graph, as a [`Cycle`].
pub(crate) fn arcs_to_cycle(arcs: &[Arc], indices: &[usize]) -> Cycle {
    let step = |&ai: &usize| arcs[ai].kind.step();
    let steps = indices.iter().map(step).collect::<Result<_, _>>();
    Cycle::new(steps.expect("batch graphs carry no shortcut arcs"))
}

/// Searches for a relevant cycle violating the ABC condition for `xi`
/// (i.e. with `|Z−|/|Z+| ≥ Ξ`). Polynomial: `O(V·E)` at worst, `O(V + E)`
/// plus the labels that have to move in practice. The witness is the cycle
/// the decision itself closed — deterministic for a given graph, though
/// not necessarily the one the incremental monitor latches.
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
    let (p, q) = xi_parts(xi, &tg)?;
    let Err(indices) = potential_or_cycle(&tg, p, q) else {
        return Ok(None);
    };
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
    Ok(find_violation(g, xi)?.is_none())
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
    let Some(found) = maxratio::max_cycle_ratio(&tg)? else {
        return Ok(None);
    };
    let cycle = (!found.cycle.is_empty()).then(|| arcs_to_cycle(tg.arcs(), &found.cycle));
    Ok(Some((maxratio::ratio_of((found.b, found.f)), cycle)))
}

/// The exact maximum `|Z−|/|Z+|` over all relevant cycles of `g`, or
/// `Ok(None)` if `g` has no relevant cycle.
///
/// The value is the *infimum* of the `Ξ` values for which `g` is admissible:
/// `is_admissible(g, xi)` holds iff `xi > max_relevant_cycle_ratio(g)`.
///
/// Complexity: a handful of seeded negative-cycle probes (one per cycle
/// the ascent climbs through, plus a last one that finds nothing) —
/// `O(V + E)` each when the seed labels already fit, `O(V·E)` at worst.
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
        // Regression from the round-based sweeps, which lapped a violating
        // cycle once per round (labels up to #rounds · #arcs weights): a Xi
        // this size is rejected by the guard up front. The kernel's labels
        // stay far below that, but the guard's verdict is pinned.
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
        // because a *no* probe is one changeless scan of every node.
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
}
