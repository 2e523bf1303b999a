//! Certificates for the answers of the Definition-4 decision procedure,
//! checked by code that decides nothing (McConnell, Mehlhorn, Näher &
//! Schweitzer 2011, *Certifying algorithms*). For a graph `G` and `Ξ`:
//!
//! * **a violation** is a relevant cycle of `G` with `|Z−|/|Z+| ≥ Ξ`;
//! * **admissibility** is a normalized assignment for `Ξ` (effective
//!   delays strictly inside `(1, Ξ)`, process lines strictly increasing),
//!   under which every relevant cycle has `|Z−| < Ξ·|Z+|`;
//! * **a margin** `m > 1` is a relevant cycle of ratio exactly `m` plus a
//!   normalized assignment at `m + 1/M²`, `M` the graph's messages: cycle
//!   ratios with parts at most `M` lie at least `1/M²` apart, so none lies
//!   above `m`. A margin of `1`, or none, has only the assignment at
//!   `1 + 1/M²`, which tells them from every margin above `1`, not from
//!   each other.
//!
//! It reads the graph, cycles, timed graphs, `Ξ` and rationals, nothing
//! else of the crate (a unit test holds its `use` lines to that), so no
//! answer is checked with the code that produced it. Tests call it; no
//! production path does.

use abc_rational::Ratio;

use crate::cycle::Cycle;
use crate::graph::ExecutionGraph;
use crate::timed::TimedGraph;
use crate::xi::Xi;

/// Checks that `cycle` certifies a violation of `Ξ = xi` in `g`: a cycle of
/// `g` that is relevant and has `|Z−|/|Z+| ≥ Ξ`. `Err` says why not.
pub fn violation(g: &ExecutionGraph, xi: &Xi, cycle: &Cycle) -> Result<(), String> {
    cycle
        .validate(g)
        .map_err(|e| format!("{cycle} is no cycle of the graph: {e}"))?;
    let class = cycle.classify();
    if !class.relevant {
        return Err(format!("{cycle} is not relevant"));
    }
    if class.violates(xi) {
        Ok(())
    } else {
        Err(format!("{cycle} has |Z-|/|Z+| below Xi = {xi}"))
    }
}

/// Checks that `timed` certifies that `g` satisfies Definition 4 for
/// `Ξ = xi`: a normalized assignment. `Err` says why not.
pub fn admissible(g: &ExecutionGraph, xi: &Xi, timed: &TimedGraph) -> Result<(), String> {
    timed
        .validate(g)
        .map_err(|e| format!("the times are not causal: {e}"))?;
    if timed.is_normalized(g, xi) {
        Ok(())
    } else {
        Err(format!("some effective delay leaves (1, {xi})"))
    }
}

/// The `Ξ` at which an assignment certifies that no relevant cycle of `g`
/// has a ratio above `margin` (taken as `1` when it is `None` or at most
/// `1`): the margin plus `1/M²`, `M` the graph's messages (at least one).
#[must_use]
pub fn above_margin(g: &ExecutionGraph, margin: Option<&Ratio>) -> Xi {
    let m = i64::try_from(g.num_messages().max(1)).unwrap_or(i64::MAX);
    let gap = Ratio::new(1, m.saturating_mul(m));
    let one = Ratio::one();
    let floor = margin.filter(|&r| *r > one).unwrap_or(&one);
    Xi::new(floor + &gap).unwrap_or_else(|_| unreachable!("a floor of 1 plus a gap exceeds 1"))
}

/// Checks that `witness` and `timed` certify `margin` as the maximum
/// `|Z−|/|Z+|` over the relevant cycles of `g` (see the module docs): a
/// margin above `1` needs a witness of exactly that ratio; any witness
/// given must attain the margin; `timed` must be a normalized assignment
/// at [`above_margin`]. `Err` says why not.
pub fn margin(
    g: &ExecutionGraph,
    margin: Option<&Ratio>,
    witness: Option<&Cycle>,
    timed: &TimedGraph,
) -> Result<(), String> {
    if margin.is_some_and(|m| *m < Ratio::one()) {
        return Err("a margin below 1 is no relevant cycle's ratio".into());
    }
    match (margin, witness) {
        (Some(m), None) if *m > Ratio::one() => {
            return Err(format!("a margin of {m} comes without its cycle"));
        }
        (None, Some(cycle)) => return Err(format!("no margin, but a cycle {cycle}")),
        (Some(m), Some(cycle)) => {
            cycle
                .validate(g)
                .map_err(|e| format!("{cycle} is no cycle of the graph: {e}"))?;
            let class = cycle.classify();
            if !class.relevant || class.ratio().as_ref() != Some(m) {
                return Err(format!("{cycle} is no relevant cycle of ratio {m}"));
            }
        }
        _ => {}
    }
    admissible(g, &above_margin(g, margin), timed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CycleStep, ShadowEdge};
    use crate::graph::{LocalEdge, ProcessId};

    /// `p0` sends to `p2` (which relays to `p1`) and straight to `p1`,
    /// and the walk `p0 → p2 → p1 ⇝ p0` around the two paths. When the
    /// relayed message reaches `p1` first the cycle is relevant with ratio
    /// `2/1`; otherwise `p1`'s line is walked forward and it is not.
    fn relay(relayed_first: bool) -> (ExecutionGraph, Cycle) {
        let mut b = ExecutionGraph::builder(3);
        let q = b.init(ProcessId(0));
        b.init(ProcessId(1));
        b.init(ProcessId(2));
        let (m0, r) = b.send(q, ProcessId(2));
        let ((m1, relayed), (m2, direct)) = if relayed_first {
            let first = b.send(r, ProcessId(1));
            (first, b.send(q, ProcessId(1)))
        } else {
            let direct = b.send(q, ProcessId(1));
            (b.send(r, ProcessId(1)), direct)
        };
        let g = b.finish();
        let step = |edge, against| CycleStep { edge, against };
        let (from, to) = if relayed_first {
            (relayed, direct)
        } else {
            (direct, relayed)
        };
        let cycle = Cycle::new(vec![
            step(ShadowEdge::Message(m0), false),
            step(ShadowEdge::Message(m1), false),
            step(ShadowEdge::Local(LocalEdge { from, to }), !relayed_first),
            step(ShadowEdge::Message(m2), true),
        ]);
        (g, cycle)
    }

    /// Times of the relevant relay's events `p0, p1, p2, r, relayed,
    /// direct`.
    fn times(ts: [(i64, i64); 3]) -> TimedGraph {
        let zero = Ratio::zero();
        let rest = ts.iter().map(|&(n, d)| Ratio::new(n, d));
        TimedGraph::new(
            [zero.clone(), zero.clone(), zero]
                .into_iter()
                .chain(rest)
                .collect(),
        )
    }

    #[test]
    fn the_relay_certifies_its_violations_and_its_margin() {
        let (g, cycle) = relay(true);
        let two = Ratio::from_integer(2);
        assert_eq!(violation(&g, &Xi::from_integer(2), &cycle), Ok(()));
        // Three messages: the margin's assignment is taken at 2 + 1/9.
        assert_eq!(above_margin(&g, Some(&two)).as_ratio(), &Ratio::new(19, 9));
        assert_eq!(above_margin(&g, None).as_ratio(), &Ratio::new(10, 9));
        // Delays 1.01, 1.01 and 2.05.
        let timed = times([(101, 100), (202, 100), (205, 100)]);
        assert_eq!(margin(&g, Some(&two), Some(&cycle), &timed), Ok(()));
        // The same times are no assignment at 2, where the cycle violates.
        assert!(admissible(&g, &Xi::from_integer(2), &timed).is_err());
        // Where the direct message arrives first no relevant cycle exists:
        // delays 1.01, 1.02 and 1.01 certify that at 1 + 1/9.
        let (g, _) = relay(false);
        let timed = times([(101, 100), (102, 100), (202, 100)]);
        assert_eq!(margin(&g, None, None, &timed), Ok(()));
        let backward = times([(101, 100), (202, 100), (102, 100)]);
        assert!(
            margin(&g, None, None, &backward).is_err(),
            "p1's line runs backward"
        );
    }

    #[test]
    fn bad_certificates_are_refused() {
        let (g, cycle) = relay(true);
        let xi = Xi::from_integer(3);
        // A delay of exactly Ξ: the direct message's.
        let exactly = times([(3, 2), (29, 10), (3, 1)]);
        assert!(admissible(&g, &xi, &exactly).is_err());
        assert!(admissible(&g, &Xi::from_fraction(31, 10), &exactly).is_ok());
        // Two equal times on one process line: p1's wake-up and receive.
        let mut flat = times([(101, 100), (202, 100), (205, 100)]).times().to_vec();
        flat[1] = Ratio::new(202, 100);
        assert!(admissible(&g, &Xi::from_integer(10), &TimedGraph::new(flat)).is_err());
        // A cycle that is not relevant.
        let (other, irrelevant) = relay(false);
        assert_eq!(irrelevant.validate(&other), Ok(()));
        assert!(violation(&other, &Xi::from_fraction(11, 10), &irrelevant).is_err());
        // A cycle whose counts miss Ξ by one backward message.
        assert!(violation(&g, &xi, &cycle).is_err());
        // A margin cycle one step short.
        let short = Cycle::new(cycle.steps()[..3].to_vec());
        let timed = times([(101, 100), (202, 100), (205, 100)]);
        let two = Ratio::from_integer(2);
        assert!(margin(&g, Some(&two), Some(&short), &timed).is_err());
        // A margin of 2 without its cycle, a cycle of another ratio, a
        // cycle with no margin, a margin below 1.
        assert!(margin(&g, Some(&two), None, &timed).is_err());
        assert!(margin(&g, Some(&Ratio::new(3, 2)), Some(&cycle), &timed).is_err());
        assert!(margin(&g, None, Some(&cycle), &timed).is_err());
        assert!(margin(&g, Some(&Ratio::new(1, 2)), None, &timed).is_err());
    }

    /// The checker reads nothing of the crate but the graph, cycles, timed
    /// graphs and `Ξ`, so it cannot share code with a decider.
    #[test]
    fn the_checker_imports_no_decider() {
        const ALLOWED: [&str; 5] = [
            "abc_rational::",
            "crate::graph::",
            "crate::cycle::",
            "crate::timed::",
            "crate::xi::",
        ];
        let source = include_str!("certify.rs");
        let mut uses = 0;
        for line in source.lines().map(str::trim_start) {
            let Some(path) = line.strip_prefix("use ") else {
                continue;
            };
            uses += 1;
            let allowed =
                path.starts_with("super::*") || ALLOWED.iter().any(|a| path.starts_with(a));
            assert!(allowed, "certify.rs: `{line}`");
        }
        assert!(uses >= 5, "{uses} use lines");
        let named = source.lines().filter(|l| !l.trim_start().starts_with("//"));
        for line in named {
            for module in [
                "check",
                "monitor",
                "negcycle",
                "traversal",
                "assign",
                "enumerate",
            ] {
                assert!(
                    !line.contains(&format!("crate::{module}")),
                    "certify.rs: `{line}`"
                );
            }
        }
    }
}
