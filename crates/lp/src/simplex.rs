//! Exact two-phase primal simplex over rationals.
//!
//! The solver decides mixed strict/non-strict systems (see
//! [`crate::LinearSystem`]) by the classic *gap* reformulation: introduce a
//! single variable `t`, replace every strict row `a·x < b` by `a·x + t ≤ b`,
//! cap `t ≤ 1`, and maximize `t`. The strict system is satisfiable **iff**
//! the optimum `t*` is positive, and any optimal basic solution then
//! satisfies every strict row with uniform slack `t*`.
//!
//! When `t* = 0` (or phase 1 already fails), the dual values at the optimal
//! basis — read off the reduced costs of the slack and artificial columns —
//! form a Farkas/Carver certificate, which is returned to the caller and can
//! be re-verified independently with
//! [`FarkasCertificate::verify`](crate::FarkasCertificate::verify).
//!
//! Free variables are split as `x = u − v` with `u, v ≥ 0`; Bland's rule is
//! used throughout, so the algorithm terminates without anti-cycling
//! heuristics. All arithmetic is exact ([`abc_rational::Ratio`]).

use abc_rational::Ratio;

use crate::system::{FarkasCertificate, Feasibility, LinearSystem, LpError, Rel, Solution};

/// Optimization direction for [`optimize`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Outcome of [`optimize`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Optimum {
    /// An optimal solution was found.
    Optimal {
        /// Optimal variable assignment.
        values: Vec<Ratio>,
        /// Optimal objective value.
        value: Ratio,
    },
    /// The objective is unbounded in the requested direction.
    Unbounded,
    /// The constraints are unsatisfiable.
    Infeasible(FarkasCertificate),
}

/// Decides feasibility of `sys`, honouring strict rows exactly.
///
/// Returns a witness solution (with positive [`Solution::gap`] when strict
/// rows are present) or a machine-checkable infeasibility certificate.
///
/// # Errors
///
/// Returns [`LpError::PivotLimit`] if the internal pivot budget is exhausted
/// (indicates a solver bug; Bland's rule terminates).
///
/// # Example
///
/// ```
/// use abc_lp::{simplex, LinearSystem};
/// use abc_rational::Ratio;
///
/// // 1 < x < 3/2
/// let mut sys = LinearSystem::new(1);
/// sys.push_lt(vec![Ratio::from_integer(-1)], Ratio::from_integer(-1));
/// sys.push_lt(vec![Ratio::from_integer(1)], Ratio::new(3, 2));
/// let sol = simplex::solve(&sys).unwrap();
/// let x = &sol.solution().unwrap().values[0];
/// assert!(*x > Ratio::from_integer(1) && *x < Ratio::new(3, 2));
/// ```
pub fn solve(sys: &LinearSystem) -> Result<Feasibility, LpError> {
    let mut tab = Tableau::build(sys);
    if !tab.phase1()? {
        let cert = tab.extract_certificate(sys);
        return Ok(Feasibility::Infeasible(cert));
    }
    if tab.t_col.is_none() {
        // No strict rows: phase 1 already produced a feasible point.
        let values = tab.extract_solution(sys.num_vars());
        return Ok(Feasibility::Feasible(Solution {
            values,
            gap: Ratio::zero(),
        }));
    }
    // Phase 2: maximize t (minimize -t).
    let mut costs = vec![Ratio::zero(); tab.num_cols];
    costs[tab.t_col.unwrap()] = -Ratio::one();
    tab.set_objective(&costs);
    if !tab.optimize()? {
        unreachable!("gap objective is capped by t <= 1, cannot be unbounded");
    }
    let t_star = -tab.objective_value(); // we minimized -t
    if t_star.is_positive() {
        let values = tab.extract_solution(sys.num_vars());
        debug_assert!(sys.satisfied_by(&values));
        Ok(Feasibility::Feasible(Solution {
            values,
            gap: t_star,
        }))
    } else {
        let cert = tab.extract_certificate(sys);
        Ok(Feasibility::Infeasible(cert))
    }
}

/// Optimizes `objective · x` over `sys`, **relaxing strict rows to `≤`**
/// (an open feasible region need not attain its supremum; callers that care
/// about strictness should use [`solve`] for feasibility and treat the
/// returned value as a supremum/infimum).
///
/// # Errors
///
/// Returns [`LpError::DimensionMismatch`] if `objective.len()` differs from
/// `sys.num_vars()`, or [`LpError::PivotLimit`] on a solver bug.
pub fn optimize(
    sys: &LinearSystem,
    objective: &[Ratio],
    direction: Direction,
) -> Result<Optimum, LpError> {
    if objective.len() != sys.num_vars() {
        return Err(LpError::DimensionMismatch {
            row: usize::MAX,
            got: objective.len(),
            expected: sys.num_vars(),
        });
    }
    let mut tab = Tableau::build_relaxed(sys);
    if !tab.phase1()? {
        let cert = tab.extract_certificate(sys);
        return Ok(Optimum::Infeasible(cert));
    }
    // Phase 2 with the user objective (always minimized internally).
    let mut costs = vec![Ratio::zero(); tab.num_cols];
    for (j, c) in objective.iter().enumerate() {
        let signed = match direction {
            Direction::Maximize => -c.clone(),
            Direction::Minimize => c.clone(),
        };
        costs[tab.u_col(j)] = signed.clone();
        costs[tab.v_col(j)] = -signed;
    }
    tab.set_objective(&costs);
    if !tab.optimize()? {
        return Ok(Optimum::Unbounded);
    }
    let values = tab.extract_solution(sys.num_vars());
    let value: Ratio = objective
        .iter()
        .zip(values.iter())
        .map(|(c, v)| c * v)
        .sum();
    Ok(Optimum::Optimal { values, value })
}

// ---------------------------------------------------------------------------
// Tableau internals.
// ---------------------------------------------------------------------------

/// Dense simplex tableau in basis form.
///
/// Column layout: `[u_0..u_{n-1}, v_0..v_{n-1}, t?, slacks..., artificials...]`
/// with the right-hand side kept separately per row. Artificial columns are
/// retained (blocked) through phase 2 so that dual values can be read off.
struct Tableau {
    /// Constraint rows; `rows[i][j]` is the tableau entry, `rhs[i]` the RHS.
    rows: Vec<Vec<Ratio>>,
    rhs: Vec<Ratio>,
    /// Reduced-cost row and (negated) objective value.
    obj: Vec<Ratio>,
    obj_rhs: Ratio,
    /// Current cost vector (to recompute reduced costs after phase switch).
    costs: Vec<Ratio>,
    basis: Vec<usize>,
    blocked: Vec<bool>,
    num_cols: usize,
    t_col: Option<usize>,
    /// For each tableau row: the original system row index (`None` for the
    /// internal `t ≤ 1` cap row) and whether the row was negated to make the
    /// RHS non-negative.
    row_origin: Vec<Option<usize>>,
    row_negated: Vec<bool>,
    /// Per tableau row: the column of its slack variable, if any.
    slack_col: Vec<Option<usize>>,
    /// Per tableau row: the column of its artificial variable, if any.
    art_col: Vec<Option<usize>>,
}

impl Tableau {
    fn build(sys: &LinearSystem) -> Tableau {
        Tableau::build_inner(sys, /*relax_strict=*/ false)
    }

    fn build_relaxed(sys: &LinearSystem) -> Tableau {
        Tableau::build_inner(sys, /*relax_strict=*/ true)
    }

    fn build_inner(sys: &LinearSystem, relax_strict: bool) -> Tableau {
        let n = sys.num_vars();
        let strict_present = !relax_strict && sys.has_strict_rows();
        let m = sys.num_rows() + usize::from(strict_present); // + cap row
        let num_ineq =
            sys.rows().iter().filter(|r| r.rel != Rel::Eq).count() + usize::from(strict_present);
        let t_col = strict_present.then_some(2 * n);
        let slack_base = 2 * n + usize::from(strict_present);
        let art_base = slack_base + num_ineq;
        let num_cols = art_base + m; // worst case: artificial per row
        let mut tab = Tableau {
            rows: Vec::with_capacity(m),
            rhs: Vec::with_capacity(m),
            obj: vec![Ratio::zero(); num_cols],
            obj_rhs: Ratio::zero(),
            costs: vec![Ratio::zero(); num_cols],
            basis: Vec::with_capacity(m),
            blocked: vec![false; num_cols],
            num_cols,
            t_col,
            row_origin: Vec::with_capacity(m),
            row_negated: Vec::with_capacity(m),
            slack_col: Vec::with_capacity(m),
            art_col: Vec::with_capacity(m),
        };
        let mut next_slack = slack_base;
        let mut next_art = art_base;
        let mut add_row = |tab: &mut Tableau,
                           coeffs: &[Ratio],
                           rel: Rel,
                           rhs_val: &Ratio,
                           origin: Option<usize>,
                           with_t: bool| {
            let mut row = vec![Ratio::zero(); num_cols];
            for (j, c) in coeffs.iter().enumerate() {
                row[2 * j] = c.clone();
                row[2 * j + 1] = -c;
            }
            if with_t {
                row[t_col.expect("t column exists")] = Ratio::one();
            }
            let mut rhs_v = rhs_val.clone();
            let negated = rhs_v.is_negative();
            let slack = if rel == Rel::Eq {
                None
            } else {
                let col = next_slack;
                next_slack += 1;
                row[col] = Ratio::one();
                Some(col)
            };
            if negated {
                for entry in row.iter_mut() {
                    if !entry.is_zero() {
                        *entry = -&*entry;
                    }
                }
                rhs_v = -rhs_v;
            }
            // Basis: the slack if its column is +1 (not negated); otherwise
            // an artificial variable.
            let (basic, art) = match slack {
                Some(col) if !negated => (col, None),
                _ => {
                    let col = next_art;
                    next_art += 1;
                    row[col] = Ratio::one();
                    (col, Some(col))
                }
            };
            tab.rows.push(row);
            tab.rhs.push(rhs_v);
            tab.basis.push(basic);
            tab.row_origin.push(origin);
            tab.row_negated.push(negated);
            tab.slack_col.push(slack);
            tab.art_col.push(art);
        };
        // Interleave u_j/v_j columns: u_j at 2j, v_j at 2j+1 (see u_col/v_col).
        for (i, row) in sys.rows().iter().enumerate() {
            let with_t = strict_present && row.rel == Rel::Lt;
            add_row(&mut tab, &row.coeffs, row.rel, &row.rhs, Some(i), with_t);
        }
        if strict_present {
            // Cap row: t <= 1 keeps the gap objective bounded.
            let zeros = vec![Ratio::zero(); n];
            add_row(&mut tab, &zeros, Rel::Le, &Ratio::one(), None, true);
        }
        tab
    }

    fn u_col(&self, j: usize) -> usize {
        2 * j
    }

    fn v_col(&self, j: usize) -> usize {
        2 * j + 1
    }

    /// Sets the cost vector and recomputes the reduced-cost row from the
    /// current basis: `r = c − Σ_i c_{B_i}·row_i`.
    fn set_objective(&mut self, costs: &[Ratio]) {
        self.costs = costs.to_vec();
        self.obj = costs.to_vec();
        self.obj_rhs = Ratio::zero();
        for (i, row) in self.rows.iter().enumerate() {
            let cb = &self.costs[self.basis[i]];
            if cb.is_zero() {
                continue;
            }
            for (o, a) in self.obj.iter_mut().zip(row) {
                if !a.is_zero() {
                    *o -= cb * a;
                }
            }
            self.obj_rhs -= cb * &self.rhs[i];
        }
    }

    /// Current objective value (for the minimized cost vector).
    fn objective_value(&self) -> Ratio {
        -self.obj_rhs.clone()
    }

    fn pivot(&mut self, prow: usize, pcol: usize) {
        // Normalize the pivot row.
        let pivot = self.rows[prow][pcol].clone();
        debug_assert!(pivot.is_positive());
        if !pivot.is_one() {
            for j in 0..self.num_cols {
                if !self.rows[prow][j].is_zero() {
                    self.rows[prow][j] /= &pivot;
                }
            }
            self.rhs[prow] /= &pivot;
        }
        // Eliminate the pivot column elsewhere.
        let prow_snapshot = self.rows[prow].clone();
        let prhs_snapshot = self.rhs[prow].clone();
        for (i, (row, rhs)) in self.rows.iter_mut().zip(&mut self.rhs).enumerate() {
            if i == prow || row[pcol].is_zero() {
                continue;
            }
            let factor = row[pcol].clone();
            for (x, p) in row.iter_mut().zip(&prow_snapshot) {
                if !p.is_zero() {
                    *x -= &factor * p;
                }
            }
            *rhs -= &factor * &prhs_snapshot;
        }
        if !self.obj[pcol].is_zero() {
            let factor = self.obj[pcol].clone();
            for (o, p) in self.obj.iter_mut().zip(&prow_snapshot) {
                if !p.is_zero() {
                    *o -= &factor * p;
                }
            }
            let delta = &factor * &prhs_snapshot;
            self.obj_rhs -= delta;
        }
        self.basis[prow] = pcol;
    }

    /// Runs simplex iterations with Bland's rule until optimality.
    ///
    /// Returns `Ok(true)` at optimality, `Ok(false)` if unbounded.
    fn optimize(&mut self) -> Result<bool, LpError> {
        // Generous pivot budget: Bland's rule cannot cycle, so exceeding this
        // indicates a bug rather than slow convergence.
        let limit = 50_000 + 100 * (self.rows.len() + 1) * (self.num_cols + 1);
        for _ in 0..limit {
            // Bland: entering column = smallest index with negative reduced cost.
            let entering =
                (0..self.num_cols).find(|&j| !self.blocked[j] && self.obj[j].is_negative());
            let Some(pcol) = entering else {
                return Ok(true);
            };
            // Ratio test; Bland tie-break on smallest basis variable index.
            let mut best: Option<(usize, Ratio)> = None;
            for i in 0..self.rows.len() {
                if !self.rows[i][pcol].is_positive() {
                    continue;
                }
                let ratio = &self.rhs[i] / &self.rows[i][pcol];
                match &best {
                    None => best = Some((i, ratio)),
                    Some((bi, br)) => {
                        if ratio < *br || (ratio == *br && self.basis[i] < self.basis[*bi]) {
                            best = Some((i, ratio));
                        }
                    }
                }
            }
            let Some((prow, _)) = best else {
                return Ok(false);
            };
            self.pivot(prow, pcol);
        }
        Err(LpError::PivotLimit)
    }

    /// Phase 1: drive the artificial variables to zero.
    ///
    /// Returns `Ok(true)` if a basic feasible solution exists.
    fn phase1(&mut self) -> Result<bool, LpError> {
        let mut costs = vec![Ratio::zero(); self.num_cols];
        let mut have_art = false;
        for art in self.art_col.iter().flatten() {
            costs[*art] = Ratio::one();
            have_art = true;
        }
        if have_art {
            self.set_objective(&costs);
            let optimal = self.optimize()?;
            debug_assert!(optimal, "phase-1 objective is bounded below by zero");
            if self.objective_value().is_positive() {
                return Ok(false);
            }
            self.drive_out_artificials();
        }
        // Block artificial columns from ever entering again.
        for art in self.art_col.iter().flatten() {
            self.blocked[*art] = true;
        }
        Ok(true)
    }

    /// Pivots basic-at-zero artificial variables out of the basis; removes
    /// rows that turn out to be redundant.
    fn drive_out_artificials(&mut self) {
        let art_cols: Vec<usize> = self.art_col.iter().flatten().copied().collect();
        let is_art = |col: usize| art_cols.binary_search(&col).is_ok();
        let mut i = 0;
        while i < self.rows.len() {
            if !is_art(self.basis[i]) {
                i += 1;
                continue;
            }
            debug_assert!(self.rhs[i].is_zero(), "artificial basic at nonzero level");
            // Find a non-artificial column with a nonzero entry to pivot on.
            let candidate = (0..self.num_cols).find(|&j| !is_art(j) && !self.rows[i][j].is_zero());
            match candidate {
                Some(j) => {
                    if self.rows[i][j].is_negative() {
                        // Make the pivot entry positive (degenerate pivot,
                        // RHS is zero so feasibility is unaffected).
                        for entry in self.rows[i].iter_mut() {
                            if !entry.is_zero() {
                                *entry = -&*entry;
                            }
                        }
                        // rhs is zero; nothing to negate there.
                    }
                    self.pivot(i, j);
                    i += 1;
                }
                None => {
                    // Row is 0 = 0 over the real columns: redundant.
                    self.rows.swap_remove(i);
                    self.rhs.swap_remove(i);
                    self.basis.swap_remove(i);
                    self.row_origin.swap_remove(i);
                    self.row_negated.swap_remove(i);
                    self.slack_col.swap_remove(i);
                    self.art_col.swap_remove(i);
                }
            }
        }
    }

    /// Reads the solution for the original free variables out of the basis.
    fn extract_solution(&self, num_vars: usize) -> Vec<Ratio> {
        let mut col_value = vec![Ratio::zero(); self.num_cols];
        for (i, &b) in self.basis.iter().enumerate() {
            col_value[b] = self.rhs[i].clone();
        }
        (0..num_vars)
            .map(|j| &col_value[self.u_col(j)] - &col_value[self.v_col(j)])
            .collect()
    }

    /// Extracts a Farkas/Carver certificate from the dual values at the
    /// current (optimal) basis.
    ///
    /// For a tableau row `i` carrying original row `orig`, the dual value is
    /// read from the reduced cost of its slack column (`y_i = r_{slack}`) or,
    /// for equality rows, from the artificial column
    /// (`y'_i = c_{art} − r_{art}`, then `y_i = −σ_i·y'_i`).
    fn extract_certificate(&self, sys: &LinearSystem) -> FarkasCertificate {
        let mut multipliers = vec![Ratio::zero(); sys.num_rows()];
        // Tableau rows may have been permuted/removed (drive_out). Dual values
        // live in columns, not rows, so we recover them from the ORIGINAL
        // row -> column maps captured at build time. Removed (redundant) rows
        // get multiplier zero, which is always sound.
        for (i, origin) in self.row_origin.iter().enumerate() {
            let Some(orig) = origin else { continue };
            let y = match self.slack_col[i] {
                Some(s) => self.obj[s].clone(),
                None => {
                    let art = self.art_col[i].expect("equality rows carry artificials");
                    let y_prime = &self.costs[art] - &self.obj[art];
                    let sigma = if self.row_negated[i] {
                        -Ratio::one()
                    } else {
                        Ratio::one()
                    };
                    -(sigma * y_prime)
                }
            };
            multipliers[*orig] = y;
        }
        FarkasCertificate { multipliers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i64) -> Ratio {
        Ratio::from_integer(v)
    }

    fn rq(n: i64, d: i64) -> Ratio {
        Ratio::new(n, d)
    }

    #[test]
    fn trivial_empty_system_is_feasible() {
        let sys = LinearSystem::new(3);
        let out = solve(&sys).unwrap();
        assert!(out.is_feasible());
    }

    #[test]
    fn single_strict_interval() {
        let mut sys = LinearSystem::new(1);
        sys.push_lt(vec![r(1)], r(2));
        sys.push_lt(vec![r(-1)], r(-1));
        let out = solve(&sys).unwrap();
        let sol = out.solution().expect("feasible");
        assert!(sys.satisfied_by(&sol.values));
        assert!(sol.gap.is_positive());
    }

    #[test]
    fn empty_open_interval_is_infeasible_with_valid_certificate() {
        let mut sys = LinearSystem::new(1);
        sys.push_lt(vec![r(1)], r(1));
        sys.push_lt(vec![r(-1)], r(-1));
        let out = solve(&sys).unwrap();
        let cert = out.certificate().expect("infeasible");
        assert!(cert.verify(&sys));
    }

    #[test]
    fn weakly_feasible_strict_system_is_infeasible() {
        // x <= 1 and x >= 1 and x < 1 combined: the <= rows admit x = 1 but
        // the strict row forbids it.
        let mut sys = LinearSystem::new(1);
        sys.push_le(vec![r(1)], r(1));
        sys.push_le(vec![r(-1)], r(-1));
        sys.push_lt(vec![r(1)], r(1));
        let out = solve(&sys).unwrap();
        let cert = out.certificate().expect("infeasible");
        assert!(cert.verify(&sys));
    }

    #[test]
    fn equality_rows_are_honoured() {
        // x + y = 2, x - y = 0 => x = y = 1; then x < 2 is fine.
        let mut sys = LinearSystem::new(2);
        sys.push_eq(vec![r(1), r(1)], r(2));
        sys.push_eq(vec![r(1), r(-1)], r(0));
        sys.push_lt(vec![r(1), r(0)], r(2));
        let out = solve(&sys).unwrap();
        let sol = out.solution().expect("feasible");
        assert_eq!(sol.values, vec![r(1), r(1)]);
    }

    #[test]
    fn inconsistent_equalities_yield_certificate() {
        let mut sys = LinearSystem::new(1);
        sys.push_eq(vec![r(1)], r(1));
        sys.push_eq(vec![r(1)], r(2));
        let out = solve(&sys).unwrap();
        let cert = out.certificate().expect("infeasible");
        assert!(cert.verify(&sys), "certificate {:?}", cert);
    }

    #[test]
    fn negative_rhs_rows_need_artificials() {
        // -x <= -5 (i.e. x >= 5), x <= 10.
        let mut sys = LinearSystem::new(1);
        sys.push_le(vec![r(-1)], r(-5));
        sys.push_le(vec![r(1)], r(10));
        let out = solve(&sys).unwrap();
        let sol = out.solution().expect("feasible");
        assert!(sol.values[0] >= r(5) && sol.values[0] <= r(10));
    }

    #[test]
    fn free_variables_can_go_negative() {
        let mut sys = LinearSystem::new(1);
        sys.push_le(vec![r(1)], r(-3));
        let out = solve(&sys).unwrap();
        let sol = out.solution().expect("feasible");
        assert!(sol.values[0] <= r(-3));
    }

    #[test]
    fn paper_shaped_cycle_system() {
        // A miniature of the paper's Fig. 6 system with Xi = 2:
        // messages e1..e3, one relevant cycle with Z- = {e1, e2}, Z+ = {e3}.
        //   1 < tau(e_i) < 2 for all i;  tau(e1) + tau(e2) - tau(e3) < 0
        // is infeasible for Xi = 2 exactly when |Z-| >= Xi * |Z+| would be
        // violated ... here |Z-|/|Z+| = 2 = Xi, so it must be INFEASIBLE.
        let xi = r(2);
        let mut sys = LinearSystem::new(3);
        for e in 0..3 {
            let mut up = vec![r(0); 3];
            up[e] = r(1);
            sys.push_lt(up.clone(), xi.clone());
            let mut lo = vec![r(0); 3];
            lo[e] = r(-1);
            sys.push_lt(lo, r(-1));
        }
        sys.push_lt(vec![r(1), r(1), r(-1)], r(0));
        let out = solve(&sys).unwrap();
        let cert = out.certificate().expect("ratio == Xi must be infeasible");
        assert!(cert.verify(&sys));

        // With Xi = 3 the same pattern becomes feasible (ratio 2 < 3).
        let xi = r(3);
        let mut sys2 = LinearSystem::new(3);
        for e in 0..3 {
            let mut up = vec![r(0); 3];
            up[e] = r(1);
            sys2.push_lt(up.clone(), xi.clone());
            let mut lo = vec![r(0); 3];
            lo[e] = r(-1);
            sys2.push_lt(lo, r(-1));
        }
        sys2.push_lt(vec![r(1), r(1), r(-1)], r(0));
        let out2 = solve(&sys2).unwrap();
        let sol = out2.solution().expect("feasible for Xi = 3");
        assert!(sys2.satisfied_by(&sol.values));
    }

    #[test]
    fn optimize_maximize_simple() {
        // max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0 (as rows).
        let mut sys = LinearSystem::new(2);
        sys.push_le(vec![r(1), r(2)], r(4));
        sys.push_le(vec![r(3), r(1)], r(6));
        sys.push_le(vec![r(-1), r(0)], r(0));
        sys.push_le(vec![r(0), r(-1)], r(0));
        match optimize(&sys, &[r(1), r(1)], Direction::Maximize).unwrap() {
            Optimum::Optimal { values, value } => {
                assert_eq!(value, rq(14, 5)); // x = 8/5, y = 6/5
                assert!(sys.satisfied_by(&values));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn optimize_detects_unbounded() {
        let mut sys = LinearSystem::new(1);
        sys.push_le(vec![r(-1)], r(0)); // x >= 0
        match optimize(&sys, &[r(1)], Direction::Maximize).unwrap() {
            Optimum::Unbounded => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn optimize_minimize() {
        let mut sys = LinearSystem::new(1);
        sys.push_le(vec![r(-1)], r(2)); // x >= -2
        match optimize(&sys, &[r(1)], Direction::Minimize).unwrap() {
            Optimum::Optimal { values, value } => {
                assert_eq!(value, r(-2));
                assert_eq!(values[0], r(-2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gap_reported_matches_slack() {
        let mut sys = LinearSystem::new(1);
        sys.push_lt(vec![r(1)], r(10));
        sys.push_lt(vec![r(-1)], r(0));
        let out = solve(&sys).unwrap();
        let sol = out.solution().unwrap();
        // Every strict row must hold with slack >= gap.
        for (i, row) in sys.rows().iter().enumerate() {
            let lhs = sys.eval_row(i, &sol.values);
            assert!(&lhs + &sol.gap <= row.rhs);
        }
        // The gap is capped at 1 by construction.
        assert!(sol.gap <= r(1));
    }
}
