//! The paper-literal route to Theorem 7: the Fig. 6 system `Ax < b`.
//!
//! Enumerate the simple cycles of the shadow graph, emit the `2k + l + m`
//! rows of `Ax < b` over the message delays (bounds rows, relevant-cycle
//! rows with condition (6), sign-flipped non-relevant rows), and decide
//! with the exact simplex of `abc-lp`. Exponential: for small graphs, to
//! exhibit the proof's objects (Farkas certificates included) and to
//! cross-check [`abc_core::assign::assign_delays`].

use abc_core::cycle::Cycle;
use abc_core::enumerate::{enumerate_cycles, EnumerationLimits};
use abc_core::graph::{ExecutionGraph, MessageId};
use abc_core::timed::TimedGraph;
use abc_core::Xi;
use abc_lp::diffcon::{self, DiffConstraint};
use abc_lp::{simplex, FarkasCertificate, Feasibility, LinearSystem};
use abc_rational::Ratio;

/// Why the Fig. 6 route gave no answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fig6Error {
    /// The cycle enumeration exceeded its budget.
    EnumerationBudget,
    /// Internal LP failure (indicates a bug).
    Lp(String),
}

impl std::fmt::Display for Fig6Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fig6Error::EnumerationBudget => write!(f, "cycle enumeration budget exhausted"),
            Fig6Error::Lp(e) => write!(f, "internal LP failure: {e}"),
        }
    }
}

impl std::error::Error for Fig6Error {}

/// The paper's Fig. 6 system `Ax < b` over the message-delay variables.
///
/// Variables are indexed by [`MessageId`] over the *effective* messages;
/// [`CycleLpSystem::variables`] gives the mapping. Rows, in Fig. 6 order:
/// lower bounds `−τ(e) < −1`, upper bounds `τ(e) < Ξ`, one row per relevant
/// cycle (condition (6)), and one sign-flipped row per non-relevant cycle.
#[derive(Clone, Debug)]
pub struct CycleLpSystem {
    /// The linear system (strict rows only, as in the paper).
    pub system: LinearSystem,
    /// Column order: `variables[j]` is the message whose delay is `x_j`.
    pub variables: Vec<MessageId>,
    /// The enumerated cycles, aligned with the cycle rows of `system`
    /// (starting at row `2·variables.len()`), each with its relevance flag.
    pub cycles: Vec<(Cycle, bool)>,
}

/// Builds the Fig. 6 system by exhaustive cycle enumeration.
///
/// # Errors
///
/// [`Fig6Error::EnumerationBudget`] if the enumeration is incomplete
/// under `limits` (the system would be unsound).
pub fn cycle_lp_system(
    g: &ExecutionGraph,
    xi: &Xi,
    limits: EnumerationLimits,
) -> Result<CycleLpSystem, Fig6Error> {
    let e = enumerate_cycles(g, limits);
    if !e.complete {
        return Err(Fig6Error::EnumerationBudget);
    }
    let variables: Vec<MessageId> = g.effective_messages().map(|m| m.id).collect();
    let col_of = |m: MessageId| -> usize {
        variables
            .binary_search(&m)
            .expect("cycles use only effective messages")
    };
    let k = variables.len();
    let mut sys = LinearSystem::new(k);
    // Lower bounds: -tau(e) < -1.
    for j in 0..k {
        let mut row = vec![Ratio::zero(); k];
        row[j] = -Ratio::one();
        sys.push_lt(row, -Ratio::one());
    }
    // Upper bounds: tau(e) < Xi.
    for j in 0..k {
        let mut row = vec![Ratio::zero(); k];
        row[j] = Ratio::one();
        sys.push_lt(row, xi.as_ratio().clone());
    }
    // Cycle rows: sum_{Z-} tau - sum_{Z+} tau < 0 for relevant cycles,
    // sign-flipped for non-relevant ones.
    let mut cycles = Vec::with_capacity(e.cycles.len());
    for cycle in e.cycles {
        let class = cycle.classify();
        let mut row = vec![Ratio::zero(); k];
        for (m, against_walk) in cycle.messages() {
            let backward = against_walk != class.orientation_reversed;
            let sign = if backward {
                Ratio::one()
            } else {
                -Ratio::one()
            };
            let flipped = if class.relevant { sign } else { -sign };
            row[col_of(m)] += flipped;
        }
        sys.push_lt(row, Ratio::zero());
        cycles.push((cycle, class.relevant));
    }
    Ok(CycleLpSystem {
        system: sys,
        variables,
        cycles,
    })
}

/// Outcome of the paper-literal route.
#[derive(Clone, Debug)]
pub enum CycleLpOutcome {
    /// A normalized delay vector `τ` (aligned with
    /// [`CycleLpSystem::variables`]) plus the realized [`TimedGraph`].
    Assignment {
        /// Per-message delays.
        delays: Vec<Ratio>,
        /// Event times realizing those delays.
        timed: TimedGraph,
    },
    /// The Farkas/Carver certificate showing the Fig. 6 system infeasible
    /// (the graph is not ABC-admissible for `Ξ`).
    Infeasible(FarkasCertificate),
}

/// Solves the Fig. 6 system with the exact simplex and realizes event times
/// from the message delays (Theorem 12 made constructive).
///
/// # Errors
///
/// [`Fig6Error::EnumerationBudget`] when cycle enumeration is incomplete,
/// [`Fig6Error::Lp`] on internal solver failures.
pub fn assign_delays_via_cycle_lp(
    g: &ExecutionGraph,
    xi: &Xi,
    limits: EnumerationLimits,
) -> Result<CycleLpOutcome, Fig6Error> {
    let lp = cycle_lp_system(g, xi, limits)?;
    match simplex::solve(&lp.system).map_err(|e| Fig6Error::Lp(e.to_string()))? {
        Feasibility::Infeasible(cert) => {
            debug_assert!(cert.verify(&lp.system));
            Ok(CycleLpOutcome::Infeasible(cert))
        }
        Feasibility::Feasible(sol) => {
            // Realize event times from the message delays: fix each
            // message's delay exactly and let local edges breathe. This is
            // again a difference-constraint system, feasible because the
            // delays satisfy every cycle inequality.
            let mut constraints = Vec::new();
            for (j, m) in lp.variables.iter().enumerate() {
                let msg = g.message(*m);
                let d = sol.values[j].clone();
                constraints.push(DiffConstraint::le(msg.to.0, msg.from.0, d.clone()));
                constraints.push(DiffConstraint::le(msg.from.0, msg.to.0, -d));
            }
            for l in g.local_edges() {
                constraints.push(DiffConstraint::lt(l.from.0, l.to.0, Ratio::zero()));
            }
            let times = diffcon::solve(g.num_events(), &constraints).map_err(|_| {
                Fig6Error::Lp(
                    "cycle-LP delays admit no event times; Fig. 6 system was incomplete".into(),
                )
            })?;
            let timed = TimedGraph::new(times);
            debug_assert!(timed.is_normalized(g, xi));
            Ok(CycleLpOutcome::Assignment {
                delays: sol.values,
                timed,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::two_chain;
    use abc_core::assign::assign_delays;

    #[test]
    fn cycle_lp_route_matches_polynomial_route() {
        for hops in 2..=4 {
            let g = two_chain(hops);
            for xi in [
                Xi::from_fraction(3, 2),
                Xi::from_integer(3),
                Xi::from_integer(5),
            ] {
                let poly = assign_delays(&g, &xi).is_ok();
                let lp = assign_delays_via_cycle_lp(&g, &xi, EnumerationLimits::default()).unwrap();
                match lp {
                    CycleLpOutcome::Assignment { delays, timed } => {
                        assert!(poly, "routes disagree: hops={hops} xi={xi}");
                        assert!(timed.is_normalized(&g, &xi));
                        for d in &delays {
                            assert!(d > &Ratio::one() && d < xi.as_ratio());
                        }
                    }
                    CycleLpOutcome::Infeasible(cert) => {
                        assert!(!poly, "routes disagree: hops={hops} xi={xi}");
                        let sys = cycle_lp_system(&g, &xi, EnumerationLimits::default())
                            .unwrap()
                            .system;
                        assert!(cert.verify(&sys));
                    }
                }
            }
        }
    }

    #[test]
    fn fig6_system_shape() {
        let g = two_chain(2);
        let xi = Xi::from_integer(3);
        let lp = cycle_lp_system(&g, &xi, EnumerationLimits::default()).unwrap();
        let k = lp.variables.len();
        assert_eq!(k, 3); // 2-hop chain + direct message
                          // 2k bound rows + one row per enumerated cycle.
        assert_eq!(lp.system.num_rows(), 2 * k + lp.cycles.len());
        assert!(lp.cycles.iter().any(|(_, relevant)| *relevant));
    }
}
