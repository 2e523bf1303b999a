//! # The Asynchronous Bounded-Cycle (ABC) model
//!
//! A from-scratch Rust implementation of the system model introduced by
//! Peter Robinson and Ulrich Schmid in *The Asynchronous Bounded-Cycle
//! model* (PODC/SSS 2008; Theoretical Computer Science 412 (2011)
//! 5580–5601).
//!
//! The ABC model adds a single, completely *time-free* synchrony condition
//! to the asynchronous message-driven model: for a rational parameter
//! `Ξ > 1`, every **relevant cycle** `Z` in the space–time diagram of an
//! execution must satisfy
//!
//! ```text
//!     |Z−| / |Z+| < Ξ                                   (Definition 4)
//! ```
//!
//! where `Z−`/`Z+` are the backward/forward messages of the cycle. No
//! message delay bounds, no computing-step bounds, no system-wide
//! constraints — yet the condition suffices to synchronize clocks, simulate
//! lock-step rounds, and hence solve consensus under Byzantine faults
//! (`abc-clocksync`, `abc-consensus`), and every Θ-Model algorithm runs
//! unchanged in the ABC model (Theorems 7–9, [`assign`]).
//!
//! ## Module map
//!
//! | Paper artifact | Module |
//! |---|---|
//! | Execution graphs (Def. 1), faulty-message dropping | [`graph`] |
//! | Chains, cycles, relevant cycles (Defs. 2–3) | [`cycle`] |
//! | ABC synchrony condition (Def. 4), polynomial checking | [`check`] |
//! | The shared CSR traversal graph behind every Def.-4 decision | [`traversal`] |
//! | Online (incremental) monitoring of Def. 4: append, frontier repair, bounded-memory pruning, live margin, witness expansion (one file each under `monitor/`) | [`monitor`] |
//! | Exhaustive cycle enumeration (ground truth) | [`enumerate`] |
//! | Consistent cuts, causal cones, cut intervals (Defs. 5–6) | [`cut`] |
//! | The non-standard cycle space, `⊕`, Thm. 11 / Cor. 1 | [`cyclespace`] |
//! | Normalized assignments, Thm. 7, from the checker's own potential (the Fig. 6 system is `abc-bench`'s) | [`assign`] |
//! | Timed graphs `G^τ`, Θ-Model condition (3) | [`timed`] |
//! | The parameter `Ξ` | [`xi`] |
//!
//! ## Quickstart
//!
//! ```
//! use abc_core::graph::{ExecutionGraph, ProcessId};
//! use abc_core::{check, assign, Xi};
//!
//! // A 2-message chain spanned by a slower direct message: ratio 2.
//! let mut b = ExecutionGraph::builder(3);
//! let q = b.init(ProcessId(0));
//! b.init(ProcessId(1));
//! b.init(ProcessId(2));
//! let (_, relay) = b.send(q, ProcessId(2));
//! b.send(relay, ProcessId(1));
//! b.send(q, ProcessId(1));
//! let g = b.finish();
//!
//! assert_eq!(
//!     check::max_relevant_cycle_ratio(&g),
//!     Ok(Some(abc_rational::Ratio::from_integer(2)))
//! );
//! let xi = Xi::from_fraction(5, 2);
//! assert!(check::is_admissible(&g, &xi).unwrap());
//!
//! // Theorem 7: a normalized delay assignment exists...
//! let timed = assign::assign_delays(&g, &xi).unwrap();
//! assert!(timed.is_normalized(&g, &xi));
//! // ...making the execution Θ-admissible for any Θ ≥ Ξ.
//! assert!(timed.is_theta_admissible(&g, xi.as_ratio()));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod check;
pub mod cut;
pub mod cycle;
pub mod cyclespace;
pub mod enumerate;
pub mod graph;
mod maxratio;
pub mod monitor;
mod negcycle;
pub mod timed;
pub mod traversal;
pub mod xi;

pub use graph::{EventId, ExecutionGraph, MessageId, ProcessId};
pub use monitor::IncrementalChecker;
pub use xi::Xi;
