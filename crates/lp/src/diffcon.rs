//! Difference-constraint systems over rationals with strict inequalities.
//!
//! A difference constraint has the form `x_u − x_v ≤ c` or `x_u − x_v < c`.
//! Such systems are solvable in `O(V·E)` by Bellman–Ford. This solver no
//! longer decides Theorem 7 (`abc_core::assign::assign_delays` reads the
//! assignment off the batch checker's kernel): it is the **oracle** the
//! margin property tests hold that kernel to, and the **time realizer** of
//! the paper-literal Fig. 6 route in `abc-bench` (simplex delays → times).
//!
//! Strictness is handled symbolically: each weight is a pair `(c, k)` read
//! as `c + k·ε` for an infinitesimal `ε > 0`, compared lexicographically.
//! Strict edges carry `k = −1`. A solution in `(Ratio, ε)`-space is turned
//! into a concrete rational solution by computing the largest admissible
//! numeric value for `ε` and halving it.

use abc_rational::Ratio;

/// One difference constraint `x_u − x_v (≤ | <) bound`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffConstraint {
    /// Index of the minuend variable.
    pub u: usize,
    /// Index of the subtrahend variable.
    pub v: usize,
    /// The right-hand side.
    pub bound: Ratio,
    /// Whether the constraint is strict (`<`).
    pub strict: bool,
}

impl DiffConstraint {
    /// Creates `x_u − x_v ≤ bound`.
    #[must_use]
    pub fn le(u: usize, v: usize, bound: Ratio) -> DiffConstraint {
        DiffConstraint {
            u,
            v,
            bound,
            strict: false,
        }
    }

    /// Creates `x_u − x_v < bound`.
    #[must_use]
    pub fn lt(u: usize, v: usize, bound: Ratio) -> DiffConstraint {
        DiffConstraint {
            u,
            v,
            bound,
            strict: true,
        }
    }

    /// Checks this constraint against an assignment, exactly.
    #[must_use]
    pub fn satisfied_by(&self, x: &[Ratio]) -> bool {
        let diff = &x[self.u] - &x[self.v];
        if self.strict {
            diff < self.bound
        } else {
            diff <= self.bound
        }
    }
}

/// A negative-cycle witness: the indices of constraints whose sum telescopes
/// to `0 < 0` (or `0 ≤ −c`, `c > 0`), proving unsatisfiability.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NegativeCycle {
    /// Indices into the constraint slice passed to [`solve`].
    pub constraint_indices: Vec<usize>,
}

impl NegativeCycle {
    /// Verifies that the cycle indeed telescopes to a contradiction.
    #[must_use]
    pub fn verify(&self, constraints: &[DiffConstraint]) -> bool {
        if self.constraint_indices.is_empty() {
            return false;
        }
        // The constraints must chain: u of one equals v of the next, and wrap.
        let cs: Vec<&DiffConstraint> = self
            .constraint_indices
            .iter()
            .map(|&i| &constraints[i])
            .collect();
        for w in 0..cs.len() {
            let next = (w + 1) % cs.len();
            if cs[w].v != cs[next].u {
                return false;
            }
        }
        let total: Ratio = cs.iter().map(|c| c.bound.clone()).sum();
        let any_strict = cs.iter().any(|c| c.strict);
        total.is_negative() || (total.is_zero() && any_strict)
    }
}

/// Lexicographic `(value, ε-multiplicity)` weight.
type LexWeight = (Ratio, i64);

fn lex_add(a: &LexWeight, b: &LexWeight) -> LexWeight {
    (&a.0 + &b.0, a.1 + b.1)
}

fn lex_lt(a: &LexWeight, b: &LexWeight) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Solves the difference-constraint system over `num_vars` variables.
///
/// Returns a concrete rational assignment satisfying every constraint
/// (strict ones strictly), or a verifiable [`NegativeCycle`].
///
/// # Example
///
/// ```
/// use abc_lp::diffcon::{solve, DiffConstraint};
/// use abc_rational::Ratio;
///
/// // x0 - x1 < 0 and x1 - x0 ≤ 3: satisfiable.
/// let cs = vec![
///     DiffConstraint::lt(0, 1, Ratio::from_integer(0)),
///     DiffConstraint::le(1, 0, Ratio::from_integer(3)),
/// ];
/// let x = solve(2, &cs).unwrap();
/// assert!(&x[0] - &x[1] < Ratio::from_integer(0));
/// ```
pub fn solve(num_vars: usize, constraints: &[DiffConstraint]) -> Result<Vec<Ratio>, NegativeCycle> {
    for c in constraints {
        assert!(
            c.u < num_vars && c.v < num_vars,
            "constraint variable out of range"
        );
    }
    // Bellman–Ford from a virtual source connected to every node with
    // weight (0, 0): dist[u] ≤ dist[v] + w(edge v->u) for constraint
    // x_u − x_v ≤ w, i.e. edge (v -> u, w).
    let mut dist: Vec<LexWeight> = vec![(Ratio::zero(), 0); num_vars];
    let mut pred: Vec<Option<usize>> = vec![None; num_vars]; // constraint index
    let mut changed = true;
    for _round in 0..num_vars {
        if !changed {
            break;
        }
        changed = false;
        for (ci, c) in constraints.iter().enumerate() {
            let w = (c.bound.clone(), if c.strict { -1 } else { 0 });
            let candidate = lex_add(&dist[c.v], &w);
            if lex_lt(&candidate, &dist[c.u]) {
                dist[c.u] = candidate;
                pred[c.u] = Some(ci);
                changed = true;
            }
        }
    }
    if changed {
        // One more relaxation possible => negative cycle. Find a node that
        // still relaxes and walk predecessors to recover the cycle.
        for (ci, c) in constraints.iter().enumerate() {
            let w = (c.bound.clone(), if c.strict { -1 } else { 0 });
            let candidate = lex_add(&dist[c.v], &w);
            if lex_lt(&candidate, &dist[c.u]) {
                dist[c.u] = candidate;
                pred[c.u] = Some(ci);
                // Walk back `num_vars` steps to land inside the cycle.
                let mut node = c.u;
                for _ in 0..num_vars {
                    node = constraints[pred[node].expect("on a relaxed path")].v;
                }
                // Collect the cycle.
                let start = node;
                let mut cycle = Vec::new();
                loop {
                    let ci = pred[node].expect("cycle nodes have predecessors");
                    cycle.push(ci);
                    node = constraints[ci].v;
                    if node == start {
                        break;
                    }
                }
                // The predecessor walk already yields a chained order
                // (each constraint's `v` is the next one's `u`).
                let witness = NegativeCycle {
                    constraint_indices: cycle,
                };
                debug_assert!(witness.verify(constraints), "extracted cycle must verify");
                return Err(witness);
            }
        }
        unreachable!("changed flag set but no relaxable edge found");
    }

    // Concretize ε: every constraint holds in (value, ε) space; compute the
    // largest ε for which the numeric assignment x_i = dist_i.0 + dist_i.1·ε
    // still satisfies everything, then halve it.
    let mut eps_bound: Option<Ratio> = None;
    for c in constraints {
        let dv = &dist[c.u].0 - &dist[c.v].0;
        let dk = dist[c.u].1 - dist[c.v].1;
        // Need dv + dk·ε ≤ bound (or < for strict). In lex space it holds:
        // either dv < bound, or dv == bound and dk ≤ (strict: <) 0.
        if dk > 0 {
            debug_assert!(dv < c.bound);
            let room = (&c.bound - &dv) / Ratio::from_integer(dk);
            eps_bound = Some(match eps_bound {
                None => room,
                Some(b) => b.min(room),
            });
        }
    }
    let eps = match eps_bound {
        // Halve to turn "≤ the bound" into strict satisfaction everywhere.
        Some(b) => b / Ratio::from_integer(2),
        None => Ratio::one(),
    };
    let values: Vec<Ratio> = dist
        .iter()
        .map(|(v, k)| v + &(Ratio::from_integer(*k) * &eps))
        .collect();
    debug_assert!(
        constraints.iter().all(|c| c.satisfied_by(&values)),
        "concretized assignment must satisfy all constraints"
    );
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i64) -> Ratio {
        Ratio::from_integer(v)
    }

    #[test]
    fn simple_chain_solvable() {
        // x0 < x1 < x2, x2 - x0 ≤ 3.
        let cs = vec![
            DiffConstraint::lt(0, 1, r(0)),
            DiffConstraint::lt(1, 2, r(0)),
            DiffConstraint::le(2, 0, r(3)),
        ];
        let x = solve(3, &cs).unwrap();
        assert!(x[0] < x[1] && x[1] < x[2]);
        assert!(&x[2] - &x[0] <= r(3));
    }

    #[test]
    fn strict_cycle_is_infeasible() {
        // x0 < x1, x1 < x2, x2 < x0.
        let cs = vec![
            DiffConstraint::lt(0, 1, r(0)),
            DiffConstraint::lt(1, 2, r(0)),
            DiffConstraint::lt(2, 0, r(0)),
        ];
        let err = solve(3, &cs).unwrap_err();
        assert!(err.verify(&cs));
        assert_eq!(err.constraint_indices.len(), 3);
    }

    #[test]
    fn nonstrict_zero_cycle_is_feasible() {
        // x0 ≤ x1 ≤ x0 forces equality but is satisfiable.
        let cs = vec![
            DiffConstraint::le(0, 1, r(0)),
            DiffConstraint::le(1, 0, r(0)),
        ];
        let x = solve(2, &cs).unwrap();
        assert_eq!(x[0], x[1]);
    }

    #[test]
    fn negative_weight_cycle_is_infeasible() {
        let cs = vec![
            DiffConstraint::le(0, 1, r(-2)),
            DiffConstraint::le(1, 0, r(1)),
        ];
        let err = solve(2, &cs).unwrap_err();
        assert!(err.verify(&cs));
    }

    #[test]
    fn mixed_strictness_tight_loop() {
        // x0 - x1 < 5 and x1 - x0 ≤ -5: sum 0 with a strict edge => infeasible.
        let cs = vec![
            DiffConstraint::lt(0, 1, r(5)),
            DiffConstraint::le(1, 0, r(-5)),
        ];
        let err = solve(2, &cs).unwrap_err();
        assert!(err.verify(&cs));
        // Relaxing the strict edge makes it feasible.
        let cs2 = vec![
            DiffConstraint::le(0, 1, r(5)),
            DiffConstraint::le(1, 0, r(-5)),
        ];
        let x = solve(2, &cs2).unwrap();
        assert_eq!(&x[0] - &x[1], r(5));
    }

    #[test]
    fn rational_bounds() {
        let cs = vec![
            DiffConstraint::lt(0, 1, Ratio::new(1, 3)),
            DiffConstraint::lt(1, 0, Ratio::new(-1, 4)),
        ];
        let x = solve(2, &cs).unwrap();
        let d = &x[0] - &x[1];
        assert!(d < Ratio::new(1, 3) && d > Ratio::new(1, 4));
    }

    #[test]
    fn unconstrained_variables_get_values() {
        let x = solve(4, &[]).unwrap();
        assert_eq!(x.len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let cs = vec![DiffConstraint::le(0, 7, r(0))];
        let _ = solve(2, &cs);
    }
}
