//! Delay assignment — the executable Theorem 7.
//!
//! Theorem 7 of the paper: *for every finite ABC execution graph `G` there
//! is an end-to-end delay assignment `τ` such that the timed graph `G^τ` is
//! causally equivalent to `G` and all messages satisfy the Θ-Model's
//! synchrony condition* (delays in `(1, Ξ)` with `Ξ < Θ`). The paper proves
//! existence with a Farkas-lemma variant over the cycle space, its Fig. 6
//! system (`abc-bench` builds that system literally and solves it with the
//! exact simplex of `abc-lp`: exponential, for small graphs). This module
//! *constructs* the assignment in polynomial time, and the construction is
//! the batch checker's own run.
//!
//! [`crate::check::find_violation`] looks for a potential of the traversal
//! graph under the integer weights, for `Ξ = p/q` and `K = #arcs + 1`,
//! `p·K − 1` on the forward arc `send → recv` of every effective message,
//! `−q·K − 1` on its backward arc `recv → send`, and `−1` on the back-arc
//! `next → prev` of every local edge. It tries the timestamp potential
//! first and runs the crate's negative-cycle kernel from it only when a
//! forward arc is tense. A *no* leaves labels `d` under which no arc is
//! tense (`d(head) ≤ d(tail) + w`), and that reads:
//!
//! * `d(recv) − d(send) ≤ p·K − 1` for every effective message (forward);
//! * `d(recv) − d(send) ≥ q·K + 1` for every effective message (backward);
//! * `d(next) − d(prev) ≥ 1` along every process line (local).
//!
//! So the times `t = d / (q·K)` give every effective message a delay in
//! `[1 + 1/(q·K), Ξ − 1/(q·K)]`, strictly inside `(1, Ξ)`, and every
//! process line strictly increasing times: a normalized assignment.
//! Exempt messages have no arcs and are owed nothing. A *yes* is the
//! kernel's violating cycle, the very witness `find_violation` returns, so
//! an assignment exists **iff** `G` is ABC-admissible for `Ξ`: the theorem,
//! re-proved constructively.

use abc_rational::{BigInt, Ratio};

use crate::check::{self, CheckError};
use crate::cycle::Cycle;
use crate::graph::ExecutionGraph;
use crate::timed::TimedGraph;
use crate::xi::Xi;

/// Why a delay assignment does not exist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssignError {
    /// The graph violates the ABC condition for the given `Ξ`; the witness
    /// is a relevant cycle with `|Z−|/|Z+| ≥ Ξ`, the one
    /// [`crate::check::find_violation`] returns.
    NotAdmissible(Cycle),
    /// `Ξ`'s parts, scaled by the graph's size, leave the checker's integer
    /// range ([`CheckError::XiTooLarge`]).
    XiTooLarge,
}

impl std::fmt::Display for AssignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssignError::NotAdmissible(c) => {
                write!(f, "graph is not ABC-admissible; violating cycle {c}")
            }
            AssignError::XiTooLarge => write!(f, "{}", CheckError::XiTooLarge),
        }
    }
}

impl std::error::Error for AssignError {}

/// Constructs a normalized assignment for `g` and `xi` in polynomial time,
/// or returns the violating relevant cycle. The timestamp potential comes
/// first: when it is feasible it *is* the assignment, after one pass over
/// the events, with no arena and no kernel run. Otherwise one run of the
/// checker's negative-cycle kernel decides, `O(V·E)` at worst.
///
/// On success the returned [`TimedGraph`] satisfies
/// [`TimedGraph::is_normalized`]: effective message delays strictly inside
/// `(1, Ξ)`, process lines strictly increasing — i.e. `G^τ` is causally
/// equivalent to `G` (Theorem 7).
///
/// # Errors
///
/// [`AssignError::NotAdmissible`] with [`crate::check::find_violation`]'s
/// witness when the ABC condition fails for `xi`;
/// [`AssignError::XiTooLarge`] where `find_violation` reports
/// [`CheckError::XiTooLarge`].
///
/// # Example
///
/// ```
/// use abc_core::graph::{ExecutionGraph, ProcessId};
/// use abc_core::assign::assign_delays;
/// use abc_core::Xi;
///
/// let mut b = ExecutionGraph::builder(2);
/// let q = b.init(ProcessId(0));
/// b.init(ProcessId(1));
/// let (_, r) = b.send(q, ProcessId(1));
/// b.send(r, ProcessId(0));
/// let g = b.finish();
/// let timed = assign_delays(&g, &Xi::from_fraction(3, 2)).unwrap();
/// assert!(timed.is_normalized(&g, &Xi::from_fraction(3, 2)));
/// ```
pub fn assign_delays(g: &ExecutionGraph, xi: &Xi) -> Result<TimedGraph, AssignError> {
    match check::potential_or_cycle(g, xi).map_err(|_| AssignError::XiTooLarge)? {
        Ok((labels, scale)) => {
            let timed = scaled_back(labels, scale);
            debug_assert!(timed.is_normalized(g, xi));
            Ok(timed)
        }
        Err(cycle) => {
            debug_assert!(cycle.classify().violates(xi), "witness must violate Xi");
            Err(AssignError::NotAdmissible(cycle))
        }
    }
}

/// The times `label / scale` of integer labels indexed by event: a feasible
/// potential of weights scaled by `scale`, read back as a [`TimedGraph`].
pub(crate) fn scaled_back(labels: impl IntoIterator<Item = i128>, scale: i128) -> TimedGraph {
    let scale = BigInt::from(scale);
    let time = |d: i128| Ratio::from_bigints(BigInt::from(d), scale.clone());
    TimedGraph::new(labels.into_iter().map(time).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ProcessId;

    /// Fast chain of `hops` messages spanned by one slow direct message:
    /// max relevant ratio = hops.
    fn two_chain(hops: usize) -> ExecutionGraph {
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
        b.finish()
    }

    #[test]
    fn admissible_graph_gets_normalized_assignment() {
        let g = two_chain(3); // ratio 3
        let xi = Xi::from_fraction(7, 2); // 3 < 7/2: admissible
        assert!(check::is_admissible(&g, &xi).unwrap());
        let timed = assign_delays(&g, &xi).unwrap();
        assert!(timed.is_normalized(&g, &xi));
        // The assignment makes the graph Θ-admissible for every Θ ≥ Ξ
        // (delays are within (1, Ξ)): Theorem 7's conclusion.
        assert!(timed.is_theta_admissible(&g, &Ratio::new(7, 2)));
    }

    #[test]
    fn violating_graph_yields_witness_cycle() {
        let g = two_chain(4); // ratio 4
        let xi = Xi::from_integer(3);
        match assign_delays(&g, &xi) {
            Err(AssignError::NotAdmissible(cycle)) => {
                assert!(cycle.validate(&g).is_ok());
                assert!(cycle.classify().violates(&xi));
            }
            other => panic!("expected NotAdmissible, got {other:?}"),
        }
    }

    #[test]
    fn assignment_agrees_with_checker_exactly_at_threshold() {
        let g = two_chain(3);
        // Admissible iff Xi > 3: check the boundary from both sides.
        assert!(assign_delays(&g, &Xi::from_integer(3)).is_err());
        assert!(assign_delays(&g, &Xi::from_fraction(301, 100)).is_ok());
    }

    #[test]
    fn a_xi_beyond_the_checkers_guard_is_refused() {
        let g = two_chain(2);
        let huge = Xi::new(Ratio::from_bigints(
            "170141183460469231731687303715884105727".parse().unwrap(),
            BigInt::from(1),
        ))
        .unwrap();
        assert_eq!(
            check::find_violation(&g, &huge),
            Err(CheckError::XiTooLarge)
        );
        assert_eq!(assign_delays(&g, &huge), Err(AssignError::XiTooLarge));
    }

    #[test]
    fn exempt_messages_are_unconstrained() {
        // Ratio-4 configuration, but the spanning slow message is exempt:
        // an assignment exists and may give it any delay whatsoever.
        let mut b = ExecutionGraph::builder(5);
        let q = b.init(ProcessId(0));
        for i in 1..=4 {
            b.init(ProcessId(i));
        }
        let mut cur = q;
        for i in 2..=4 {
            let (_, r) = b.send(cur, ProcessId(i));
            cur = r;
        }
        b.send(cur, ProcessId(1));
        let (slow, _) = b.send(q, ProcessId(1));
        b.set_exempt(slow);
        let g = b.finish();
        let xi = Xi::from_integer(2);
        let timed = assign_delays(&g, &xi).unwrap();
        assert!(timed.is_normalized(&g, &xi));
        // The exempt message's delay exceeds Xi (it spans a 4-message chain
        // of delay > 4 > Xi) — allowed precisely because it is exempt.
        assert!(timed.message_delay(&g, slow) > Ratio::from_integer(4));
    }

    #[test]
    fn empty_graph_assignment() {
        let mut b = ExecutionGraph::builder(2);
        b.init(ProcessId(0));
        b.init(ProcessId(1));
        let g = b.finish();
        let timed = assign_delays(&g, &Xi::from_integer(2)).unwrap();
        assert!(timed.validate(&g).is_ok());
    }
}
