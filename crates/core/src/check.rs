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
//! Take the *traversal graph* `T` over the events of `G` (one shared
//! [`crate::traversal::TraversalGraph`] when it is built at all, see below):
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
//! Decision and witness **certify before they search**. The candidate
//! potential is the **earliest-feasible** one — each event labeled, in
//! topological order, at the smallest value its backward and local arcs
//! allow: a Lamport timestamp that charges every message its minimum delay,
//! the incremental monitor's trick. It is read straight off the events,
//! and it satisfies every backward and local arc by construction, so `G` is
//! admissible as soon as it satisfies every forward arc too — one pass over
//! the events, with no arena built and no kernel run. That is the common
//! case on admissible executions, and the counters below stay at zero.
//!
//! Only a tense forward arc builds `T` and runs the crate's worklist
//! negative-cycle kernel (`negcycle.rs`: FIFO label-correcting with
//! Tarjan's subtree disassembly) from those labels, every event queued in
//! order. Only the nodes whose label moves are scanned again — not the
//! whole arena once per step of a zigzag through the execution, which is
//! what round-based sweeps pay. A violation surfaces the moment the tree
//! of relaxing arcs would close a cycle, and that cycle *is* the witness
//! [`find_violation`] returns: nothing is run a second time to extract it,
//! and nothing after the latch is looked at twice. A *no* leaves a
//! feasible potential — the certificate's or the run's — which
//! [`crate::assign::assign_delays`] scales back into a Theorem 7
//! assignment. The `core.check.*` rows of `bench_ledger` (see
//! `BENCHMARK.json`) and the counters `check.relaxations` /
//! `check.arc_visits` quantify it.
//!
//! The exact **maximum relevant-cycle ratio** `max |Z−|/|Z+|` is the
//! margin the incremental monitor keeps, replayed over the same
//! [`TraversalGraph`] event by event (the monitor's `margin` module has
//! the argument): the one margin algorithm of the crate.
//!
//! For *online* checking of a growing execution, use
//! [`crate::monitor::IncrementalChecker`], which maintains this module's
//! reduction incrementally instead of re-running it from scratch.

use abc_rational::Ratio;

use crate::cycle::Cycle;
use crate::graph::{ExecutionGraph, Trigger};
use crate::monitor;
use crate::negcycle::{self, NegCycle};
use crate::traversal::{Arc, ArcKind, TraversalGraph};
use crate::xi::Xi;

/// The kernel's batch runs: one per check that builds the arena.
static OBS_RELAXATIONS: abc_obs::CounterDef = abc_obs::CounterDef::new("check.relaxations");
static OBS_ARC_VISITS: abc_obs::CounterDef = abc_obs::CounterDef::new("check.arc_visits");

/// Errors reported by the checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// `Ξ`'s numerator or denominator does not fit the integer weights used
    /// by the Bellman–Ford reduction (the scaled weights, accumulated along
    /// a longest relaxation path, would overflow `i128`).
    XiTooLarge,
    /// The graph is too large for the exact arithmetic of
    /// [`max_relevant_cycle_ratio`] and the monitor's margin: the kept
    /// labels (weights with parts up to the number of messages, summed over
    /// the graph's size) could overflow `i128`. Checked before every step
    /// that could overflow — never a panic mid-computation.
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
                write!(f, "graph exceeds the exact margin's integer range")
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

/// `Ξ` as `(p, q)` machine parts usable on a batch graph of `num_arcs`
/// arcs over `num_events` events.
fn xi_parts(xi: &Xi, num_arcs: usize, num_events: usize) -> Result<(i128, i128), CheckError> {
    let (p, q) = xi.as_i128_parts().ok_or(CheckError::XiTooLarge)?;
    if !weights_fit_i128(p, q, num_arcs, num_events) {
        return Err(CheckError::XiTooLarge);
    }
    Ok((p, q))
}

/// The arc count of [`TraversalGraph::from_graph`]`(g)`, without building
/// it: two per effective message, one per local edge.
fn batch_arcs(g: &ExecutionGraph) -> usize {
    2 * g.effective_messages().count() + g.num_shadow_edges() - g.num_messages()
}

/// The scaled integer weight of an arc for `Ξ = p/q` and `K = #arcs + 1`.
fn scaled_weight(kind: ArcKind, p: i128, q: i128, k: i128) -> i128 {
    let w_prime = match kind {
        ArcKind::Forward(_) => p,
        ArcKind::Backward(_) => -q,
        ArcKind::LocalBack => 0,
        ArcKind::Shortcut(_) => unreachable!("batch graphs carry no shortcut arcs"),
    };
    w_prime * k - 1
}

/// The timestamp potential of `g`: the earliest-feasible labels of its
/// traversal graph ([`negcycle::seed_earliest_feasible`] over
/// [`TraversalGraph::from_graph`]), read off the events in one pass. An
/// event is labeled `delay` after the send of the effective message it
/// receives and `1` after its local predecessor, whichever is later; an
/// init continues from the event before it. Backward and local arcs hold
/// by construction, so the second answer — whether the forward arc of an
/// effective message is tense, `label(recv) > label(send) + slack` — is
/// the whole feasibility test.
fn timestamp_potential(g: &ExecutionGraph, slack: i128, delay: i128) -> (Vec<i128>, bool) {
    let mut last: Vec<Option<usize>> = vec![None; g.num_processes()];
    let mut labels: Vec<i128> = Vec::with_capacity(g.num_events());
    let mut tense = false;
    for e in g.events() {
        let after_pred = last[e.process.0]
            .replace(labels.len())
            .map(|pred| labels[pred] + 1);
        let send = match e.trigger {
            Trigger::Message(m) if g.is_effective(m) => Some(labels[g.message(m).from.0]),
            _ => None,
        };
        let label = send.map(|s| s + delay).max(after_pred);
        let label = label.unwrap_or_else(|| labels.last().copied().unwrap_or(0));
        tense |= send.is_some_and(|s| label > s + slack);
        labels.push(label);
    }
    (labels, tense)
}

/// A feasible potential of `g`'s traversal graph under the scaled weights
/// for `Ξ`, with the scale `q·K` that reads its labels back as times, or a
/// relevant cycle violating `Ξ`. Certifies before it searches: the
/// timestamp potential decides alone when no forward arc is tense under
/// it — no arena is built and no kernel runs. Otherwise one run of the
/// crate's negative-cycle kernel over [`TraversalGraph::from_graph`]
/// starts from those labels, every event queued in order, and its cycle
/// is the witness. Exact in both directions.
pub(crate) fn potential_or_cycle(
    g: &ExecutionGraph,
    xi: &Xi,
) -> Result<Result<(Vec<i128>, i128), Cycle>, CheckError> {
    let num_arcs = batch_arcs(g);
    let (p, q) = xi_parts(xi, num_arcs, g.num_events())?;
    let k = i128::try_from(num_arcs).expect("arc count fits i128") + 1;
    let (mut labels, tense) = timestamp_potential(g, p * k - 1, q * k + 1);
    if !tense {
        return Ok(Ok((labels, q * k)));
    }
    let tg = TraversalGraph::from_graph(g);
    let arcs = tg.arcs();
    let weight = |ai: usize| Some(scaled_weight(arcs[ai].kind, p, q, k));
    debug_assert!(
        {
            let mut seeded = vec![0; labels.len()];
            negcycle::seed_earliest_feasible(&tg, &mut seeded, weight);
            seeded == labels
        },
        "the timestamp potential is the arena's earliest-feasible seed"
    );
    let run = NegCycle::default().run(&tg, &mut labels, 0..tg.num_live_nodes(), weight, None);
    OBS_RELAXATIONS.add(run.relaxations);
    OBS_ARC_VISITS.add(run.arc_visits);
    Ok(run.cycle.map_or(Ok((labels, q * k)), |indices| {
        Err(arcs_to_cycle(arcs, &indices))
    }))
}

/// The walk along the arcs `indices` of a batch graph, as a [`Cycle`].
fn arcs_to_cycle(arcs: &[Arc], indices: &[usize]) -> Cycle {
    let step = |&ai: &usize| arcs[ai].step();
    let steps = indices.iter().map(step).collect::<Result<_, _>>();
    Cycle::new(steps.expect("batch graphs carry no shortcut arcs"))
}

/// Searches for a relevant cycle violating the ABC condition for `xi`
/// (i.e. with `|Z−|/|Z+| ≥ Ξ`). The timestamp potential comes first: when
/// it is feasible the answer is `None` after one pass over the events,
/// with no arena and no kernel run. Otherwise the negative-cycle kernel
/// runs from it: `O(V·E)` at worst, `O(V + E)` plus the labels that have
/// to move in practice. The witness is the cycle the decision itself
/// closed — deterministic for a given graph, though not necessarily the
/// one the incremental monitor latches.
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
    let Err(cycle) = potential_or_cycle(g, xi)? else {
        return Ok(None);
    };
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
    // A relevant cycle has B >= F, i.e. ratio >= 1. The ratio's guard
    // fails only at a raise, which found a cycle above 1, or at 1/1 past
    // 2^62 events and arcs: an error, too, means a relevant cycle.
    !matches!(max_relevant_cycle_ratio(g), Ok(None))
}

/// The exact maximum `|Z−|/|Z+|` over all relevant cycles of `g`, or
/// `Ok(None)` if `g` has no relevant cycle.
///
/// The value is the *infimum* of the `Ξ` values for which `g` is admissible:
/// `is_admissible(g, xi)` holds iff `xi > max_relevant_cycle_ratio(g)`.
///
/// The margin an incremental monitor keeps, replayed over `g`'s traversal
/// graph in event order: each event gives its receive the earliest label
/// its window allows at the margin so far, and only an empty window runs
/// the negative-cycle kernel, whose cycle, if it closes one, raises the
/// margin to that cycle's ratio. `O(V + E)` when no window is empty,
/// `O(V·E)` per repair at worst; at a margin of `1` one more `O(E)` pass.
///
/// # Errors
///
/// [`CheckError::GraphTooLarge`] when the graph is so large that the
/// labels could overflow the exact `i128` arithmetic (beyond any graph
/// that fits in memory today). Checked before every step that could
/// overflow — a clean error, never a panic or a silent wrap.
pub fn max_relevant_cycle_ratio(g: &ExecutionGraph) -> Result<Option<Ratio>, CheckError> {
    monitor::batch_margin(&TraversalGraph::from_graph(g))
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

    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, bound: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            usize::try_from(self.0 >> 33).unwrap() % bound
        }
    }

    /// A random execution over up to 5 processes: inits interleaved with
    /// sends, some processes never woken, self-messages, exempt messages
    /// and faulty processes.
    fn random_graph(rng: &mut Lcg) -> ExecutionGraph {
        let n = 1 + rng.below(5);
        let mut b = ExecutionGraph::builder(n);
        let mut asleep: Vec<usize> = (0..n).filter(|_| rng.below(4) != 0).collect();
        let mut awake = Vec::new();
        for _ in 0..rng.below(20) {
            if awake.is_empty() || (!asleep.is_empty() && rng.below(4) == 0) {
                let Some(p) = asleep.pop() else { break };
                b.init(ProcessId(p));
                awake.push(p);
                continue;
            }
            let from = crate::graph::EventId(rng.below(b.num_events()));
            let to = if rng.below(4) == 0 {
                b.graph().event(from).process
            } else {
                ProcessId(awake[rng.below(awake.len())])
            };
            let (m, _) = b.send(from, to);
            if rng.below(5) == 0 {
                b.set_exempt(m);
            }
        }
        for p in 0..n {
            if rng.below(5) == 0 {
                b.mark_faulty(ProcessId(p));
            }
        }
        b.finish()
    }

    /// The certificate is the arena's seed, read off the graph: on 3 000
    /// random executions and four `Ξ`, its labels are
    /// `seed_earliest_feasible`'s over `from_graph`, its arc count is the
    /// arena's, and it calls a forward arc tense exactly when a kernel run
    /// from its labels relaxes anything.
    #[test]
    fn the_timestamp_potential_is_the_arena_seed() {
        let mut rng = Lcg(0x2545_f491_4f6c_dd1d);
        let mut tally = [0; 2]; // feasible, tense
        for id in 0..3_000 {
            let g = random_graph(&mut rng);
            let tg = TraversalGraph::from_graph(&g);
            assert_eq!(batch_arcs(&g), tg.num_arcs(), "case {id}");
            let k = i128::try_from(tg.num_arcs()).unwrap() + 1;
            for (p, q) in [(11, 10), (3, 2), (2, 1), (5, 1)] {
                let what = format!("case {id}, Xi = {p}/{q}");
                let (labels, tense) = timestamp_potential(&g, p * k - 1, q * k + 1);
                let weight = |ai: usize| Some(scaled_weight(tg.arcs()[ai].kind, p, q, k));
                let mut seeded = vec![0; g.num_events()];
                negcycle::seed_earliest_feasible(&tg, &mut seeded, weight);
                assert_eq!(labels, seeded, "{what}");
                let starts = 0..g.num_events();
                let run = NegCycle::default().run(&tg, &mut seeded, starts, weight, None);
                assert_eq!(tense, run.relaxations > 0, "{what}");
                tally[usize::from(tense)] += 1;
            }
        }
        assert!(tally.iter().all(|&n| n > 1_000), "{tally:?}");
    }

    /// The guard counts the arena's arcs and nodes without building it, so
    /// it answers as it did over the arena — at the largest integer `Ξ` it
    /// takes on a graph, one above it, and at the near-limit `Ξ` below.
    #[test]
    fn the_counted_guard_is_the_arenas_at_its_boundary() {
        let g = two_chain(10);
        let tg = TraversalGraph::from_graph(&g);
        let (arcs, nodes) = (tg.num_arcs(), tg.num_live_nodes());
        let (mut fits, mut too_big) = (1i128, i128::MAX);
        while too_big - fits > 1 {
            let mid = fits + (too_big - fits) / 2;
            if weights_fit_i128(mid, 1, arcs, nodes) {
                fits = mid;
            } else {
                too_big = mid;
            }
        }
        let ratio = |p: i128, q: i128| {
            let parts = (abc_rational::BigInt::from(p), abc_rational::BigInt::from(q));
            Xi::new(Ratio::from_bigints(parts.0, parts.1)).unwrap()
        };
        let near_limit = ratio(1 << 117, (1 << 117) - 1);
        for (xi, fit) in [
            (ratio(fits, 1), true),
            (ratio(fits, fits - 1), true),
            (ratio(too_big, 1), false),
            (near_limit, false),
        ] {
            let counted = xi_parts(&xi, batch_arcs(&g), g.num_events());
            assert_eq!(counted, xi_parts(&xi, arcs, nodes), "Xi = {xi}");
            assert_eq!(counted.is_ok(), fit, "Xi = {xi}");
            // Either path answers without overflow where the guard lets
            // it run: the certificate above the ratio, the kernel below.
            let violates = xi.as_ratio() <= &Ratio::from_integer(10);
            let answer = find_violation(&g, &xi).map(|w| w.is_some());
            assert_eq!(answer, counted.map(|_| violates), "Xi = {xi}");
        }
    }

    #[test]
    fn oversized_graphs_get_a_clean_ratio_error_not_a_panic() {
        // The ratio is the monitor's kept margin, replayed: its overflow
        // guard (`kept_labels_fit`, whose boundary `monitor::tests` pins)
        // adds bit lengths of the ratio's parts, the graph's size and the
        // heaviest arc. A graph that trips it does not fit in memory: a
        // 200 000-message chain is simply answered, in milliseconds,
        // because no window of it is empty and no repair runs.
        let msgs = 200_000usize;
        let mut b = ExecutionGraph::builder(1);
        let mut cur = b.init(ProcessId(0));
        for _ in 0..msgs {
            let (_, r) = b.send(cur, ProcessId(0));
            cur = r;
        }
        let g = b.finish();
        assert_eq!(max_relevant_cycle_ratio(&g), Ok(None));
        assert!(!has_relevant_cycle(&g));
        assert!(max_relevant_cycle_ratio(&two_chain(3)).unwrap().is_some());
    }
}
