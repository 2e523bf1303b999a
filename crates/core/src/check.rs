//! Deciding the ABC synchrony condition (Definition 4) for a finished
//! execution graph, by **replaying** it into the online monitor
//! ([`crate::monitor::IncrementalChecker`]), the crate's one decision
//! procedure: [`find_violation`], [`is_admissible`] and
//! [`crate::assign::assign_delays`] append the graph's events in creation
//! order (which is topological) and read the answer off the monitor.
//!
//! # The reduction the monitor decides
//!
//! Definition 4 quantifies over *all* relevant cycles — exponentially many.
//! Take the *traversal graph* `T` over the events of `G`, the arcs the
//! monitor holds in its arena:
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
//! orientation agrees with the traversal). The monitor keeps a potential
//! feasible for weights under which exactly those cycles are negative:
//! each event gets its earliest feasible label, a Lamport timestamp, and
//! only a message that arrives too late for its window repairs labels on
//! the negative-cycle kernel. The replay stops at the append that latches;
//! its witness is the monitor's canonical `u → v → prev ⇝ u` cycle.
//!
//! One mirror-less monitor per thread is lent to every replay on it,
//! re-armed with [`IncrementalChecker::reset`]. Its ceiling is the crate's
//! one: `Ξ` with parts beyond `i64` is [`CheckError::XiTooLarge`].
//!
//! The exact **maximum relevant-cycle ratio** `max |Z−|/|Z+|` is one more
//! such replay, at a `Ξ` no relevant cycle of `g` reaches, read off with
//! [`IncrementalChecker::margin_ratio`]: the margin the monitor would have
//! kept, replayed over its own arena (the monitor's `margin` module has
//! the argument), the one margin algorithm of the crate. Every question
//! about a finished graph is one replay into the lent monitor.

use std::cell::RefCell;

use abc_rational::Ratio;

use crate::cycle::Cycle;
use crate::graph::ExecutionGraph;
use crate::monitor::IncrementalChecker;
use crate::xi::Xi;

/// Errors reported by the checker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// `Ξ`'s numerator or denominator exceeds `i64`: the monitor's labels
    /// add weights of that size along paths and need the headroom of
    /// `i128` above them. The one ceiling of every entry point.
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

/// Replays `g` into this thread's lent monitor, re-armed for `Ξ = xi`, up
/// to the append that latches a violation, and hands the monitor to
/// `read`.
///
/// # Errors
///
/// [`CheckError::XiTooLarge`] as in [`IncrementalChecker::new`].
pub(crate) fn replayed<T>(
    g: &ExecutionGraph,
    xi: &Xi,
    read: impl FnOnce(&IncrementalChecker) -> T,
) -> Result<T, CheckError> {
    thread_local! {
        static LENT: RefCell<Option<IncrementalChecker>> = const { RefCell::new(None) };
    }
    LENT.with(|lent| {
        let mut lent = lent.borrow_mut();
        let mon = match lent.as_mut() {
            Some(mon) => {
                mon.reset(g.num_processes(), xi)?;
                mon
            }
            None => {
                let mut mon = IncrementalChecker::new(g.num_processes(), xi)?;
                mon.enable_pruning();
                lent.insert(mon)
            }
        };
        mon.replay(g, true);
        Ok(read(mon))
    })
}

/// Searches for a relevant cycle violating the ABC condition for `xi`
/// (i.e. with `|Z−|/|Z+| ≥ Ξ`) by replaying `g` into a monitor (see the
/// module docs): one pass over the events when no message arrives too
/// late for its window. Each append that is tense (its window empty) runs
/// a frontier repair of `O(V·E)` at worst, so the worst case is one such
/// repair per tense append, not one kernel run for the whole graph. The
/// witness is the monitor's, the one `abc monitor`, the sweep and the
/// service print.
///
/// # Errors
///
/// [`CheckError::XiTooLarge`] if `Ξ`'s parts exceed `i64`.
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
    replayed(g, xi, |mon| mon.violation().cloned())
}

/// Whether the execution graph satisfies the ABC synchrony condition for
/// `xi` (Definition 4).
///
/// # Errors
///
/// [`CheckError::XiTooLarge`] if `Ξ`'s parts exceed `i64`.
pub fn is_admissible(g: &ExecutionGraph, xi: &Xi) -> Result<bool, CheckError> {
    replayed(g, xi, IncrementalChecker::is_admissible)
}

/// Whether the graph contains any relevant cycle at all.
#[must_use]
pub fn has_relevant_cycle(g: &ExecutionGraph) -> bool {
    // A relevant cycle has B >= F, i.e. ratio >= 1. The ratio fails only
    // at a raise, which found a cycle above 1, at 1/1 past 2^62 events
    // and arcs, or for a graph of 2^63 messages: an error, too, means a
    // relevant cycle.
    !matches!(max_relevant_cycle_ratio(g), Ok(None))
}

/// The exact maximum `|Z−|/|Z+|` over all relevant cycles of `g`, or
/// `Ok(None)` if `g` has no relevant cycle.
///
/// The value is the *infimum* of the `Ξ` values for which `g` is admissible:
/// `is_admissible(g, xi)` holds iff `xi > max_relevant_cycle_ratio(g)`.
///
/// One replay of `g` into the lent monitor (see the module docs), armed at
/// `Ξ = M + 2` for the graph's `M` messages, and its
/// [`IncrementalChecker::margin_ratio`]. That `Ξ` lies above every ratio:
/// a relevant cycle has `|Z+| ≥ 1` and `|Z−| ≤ M − 1`, so the replay never
/// latches. No append is tense either: with `q = 1` a receive's earliest
/// label has a first component of at most `M`, the most messages a causal
/// chain holds, below the `π(send) + M + 2` its window allows. So the
/// monitor defers its arena to the end, and the query replays the margin
/// it would have kept over the arena it builds then: each event gives its
/// receive the earliest label its window allows at the margin so far, and
/// only an empty window runs the negative-cycle kernel, whose cycle, if it
/// closes one, raises the margin to that cycle's ratio. `O(V + E)` when no
/// window is empty, `O(V·E)` per repair at worst; at a margin of `1` one
/// more `O(E)` pass.
///
/// # Errors
///
/// [`CheckError::GraphTooLarge`] when the graph is so large that the
/// labels could overflow the exact `i128` arithmetic, or `M + 2` exceeds
/// `i64` (beyond any graph that fits in memory today). Checked before
/// every step that could overflow — a clean error, never a panic or a
/// silent wrap.
pub fn max_relevant_cycle_ratio(g: &ExecutionGraph) -> Result<Option<Ratio>, CheckError> {
    let messages = i64::try_from(g.num_messages()).ok();
    let above = messages.and_then(|m| m.checked_add(2));
    let xi = Xi::from_integer(above.ok_or(CheckError::GraphTooLarge)?);
    replayed(g, &xi, IncrementalChecker::margin_ratio)?
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

    /// A ratio-2 span (`two_chain(2)`'s, on processes 0–2) closes first
    /// and a ratio-4 one (processes 3–7) later.
    fn two_spans() -> ExecutionGraph {
        let mut b = ExecutionGraph::builder(8);
        let inits: Vec<_> = (0..8).map(|p| b.init(ProcessId(p))).collect();
        let (_, relay) = b.send(inits[0], ProcessId(2));
        b.send(relay, ProcessId(1));
        b.send(inits[0], ProcessId(1));
        let mut cur = inits[3];
        for p in [5, 6, 7] {
            cur = b.send(cur, ProcessId(p)).1;
        }
        b.send(cur, ProcessId(4));
        b.send(inits[3], ProcessId(4));
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
        // equals the checker's on several hand-built graphs. On the last a
        // replay that latched at its first span would report 2, not 4.
        for (i, g) in (2..=5).map(two_chain).chain([two_spans()]).enumerate() {
            let brute = enumerate_relevant_cycles(&g, EnumerationLimits::default())
                .cycles
                .iter()
                .filter_map(|c| c.classify().ratio())
                .max();
            assert_eq!(max_relevant_cycle_ratio(&g), Ok(brute), "graph {i}");
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
    fn xi_beyond_i64_is_rejected_like_the_monitor() {
        // Parts wider than i64 are the monitor's `XiTooLarge`, and the
        // check is a replay into the monitor: it refuses them too, on an
        // admissible graph as on a violating one, rather than answer.
        let g = two_chain(2);
        let wide = Xi::new(Ratio::from_bigints(
            abc_rational::BigInt::from(1i128 << 80),
            abc_rational::BigInt::from(3),
        ))
        .unwrap();
        let tight = Xi::new(Ratio::from_bigints(
            abc_rational::BigInt::from((1i128 << 80) + 1),
            abc_rational::BigInt::from(1i128 << 80),
        ))
        .unwrap();
        for xi in [wide, tight] {
            assert!(xi.as_i64_parts().is_none());
            let refused = IncrementalChecker::new(g.num_processes(), &xi).err();
            assert_eq!(refused, Some(CheckError::XiTooLarge), "Xi = {xi}");
            assert_eq!(find_violation(&g, &xi), Err(CheckError::XiTooLarge));
            assert_eq!(is_admissible(&g, &xi), Err(CheckError::XiTooLarge));
        }
    }

    #[test]
    fn near_limit_xi_on_violating_graph_is_rejected_not_overflowed() {
        // Regression from the round-based sweeps, which lapped a violating
        // cycle once per round (labels up to #rounds · #arcs weights): a Xi
        // this size is rejected up front, before any label is computed.
        let g = two_chain(10);
        let p = abc_rational::BigInt::from(1i128 << 117);
        let q = &p - &abc_rational::BigInt::one();
        let xi = Xi::new(Ratio::from_bigints(p, q)).unwrap();
        assert_eq!(find_violation(&g, &xi), Err(CheckError::XiTooLarge));
        assert_eq!(is_admissible(&g, &xi), Err(CheckError::XiTooLarge));
    }

    /// The check's guard is the one the monitor applies before it sizes its
    /// arena's weights: it answers as `IncrementalChecker::new` does at the
    /// largest integer `Ξ` it takes, one above it, and at the near-limit
    /// `Ξ` above — and where it lets the replay run, the answer is exact.
    #[test]
    fn the_counted_guard_is_the_arenas_at_its_boundary() {
        let g = two_chain(10);
        let ratio = |p: i128, q: i128| {
            let parts = (abc_rational::BigInt::from(p), abc_rational::BigInt::from(q));
            Xi::new(Ratio::from_bigints(parts.0, parts.1)).unwrap()
        };
        let (fits, too_big) = (i128::from(i64::MAX), i128::from(i64::MAX) + 1);
        let near_limit = ratio(1 << 117, (1 << 117) - 1);
        for (xi, fit) in [
            (ratio(fits, 1), true),
            (ratio(fits, fits - 1), true),
            (ratio(too_big, 1), false),
            (near_limit, false),
        ] {
            let arena = IncrementalChecker::new(g.num_processes(), &xi).map(|_| ());
            assert_eq!(arena.is_ok(), fit, "Xi = {xi}");
            let violates = xi.as_ratio() <= &Ratio::from_integer(10);
            let answer = find_violation(&g, &xi).map(|w| w.is_some());
            assert_eq!(answer, arena.clone().map(|()| violates), "Xi = {xi}");
            let admissible = is_admissible(&g, &xi);
            assert_eq!(admissible, arena.map(|()| !violates), "Xi = {xi}");
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
