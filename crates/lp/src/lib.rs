//! Exact linear programming for the ABC model's Theorem 7.
//!
//! The model-indistinguishability proof of the Asynchronous Bounded-Cycle
//! paper (Robinson & Schmid) hinges on the feasibility of a system of
//! *strict* linear inequalities `Ax < b` built from the cycles of a finite
//! execution graph (the paper's Fig. 6), decided via a variant of Farkas'
//! lemma due to Carver:
//!
//! > `Ax < b` has a solution **iff** every `y ≥ 0`, `y ≠ 0` with `yᵀA = 0`
//! > satisfies `yᵀb > 0`.
//!
//! This crate makes that argument *executable*:
//!
//! * [`LinearSystem`] — mixed systems of `<` / `≤` / `=` rows over free
//!   (sign-unrestricted) rational variables.
//! * [`simplex::solve`] — exact two-phase simplex (Bland's rule, hence
//!   terminating) that either returns a solution with a positive slack
//!   *gap* for the strict rows, or a machine-checkable [`FarkasCertificate`].
//! * [`fourier_motzkin::solve`] — independent doubly-exponential decision
//!   procedure used to cross-check the simplex on small systems.
//! * [`diffcon`] — Bellman–Ford over lexicographic `(Ratio, ε)` weights for
//!   difference-constraint systems (`x_u − x_v < c`): an oracle, and the
//!   Fig. 6 route's time realizer.
//!
//! # Example: a strictly feasible and a Carver-infeasible system
//!
//! ```
//! use abc_lp::{LinearSystem, Feasibility, simplex};
//! use abc_rational::Ratio;
//!
//! // x0 < 2, -x0 < -1  =>  1 < x0 < 2: strictly feasible.
//! let mut sys = LinearSystem::new(1);
//! sys.push_lt(vec![Ratio::from_integer(1)], Ratio::from_integer(2));
//! sys.push_lt(vec![Ratio::from_integer(-1)], Ratio::from_integer(-1));
//! match simplex::solve(&sys).unwrap() {
//!     Feasibility::Feasible(sol) => {
//!         assert!(sys.satisfied_by(&sol.values));
//!     }
//!     Feasibility::Infeasible(_) => panic!("should be feasible"),
//! }
//!
//! // x0 < 1, -x0 < -1  =>  x0 < 1 < x0: infeasible; y = (1,1) certifies.
//! let mut bad = LinearSystem::new(1);
//! bad.push_lt(vec![Ratio::from_integer(1)], Ratio::from_integer(1));
//! bad.push_lt(vec![Ratio::from_integer(-1)], Ratio::from_integer(-1));
//! match simplex::solve(&bad).unwrap() {
//!     Feasibility::Infeasible(cert) => assert!(cert.verify(&bad)),
//!     Feasibility::Feasible(_) => panic!("should be infeasible"),
//! }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod system;

pub mod diffcon;
pub mod fourier_motzkin;
pub mod simplex;

pub use system::{FarkasCertificate, Feasibility, LinearSystem, LpError, Rel, Solution};
