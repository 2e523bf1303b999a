//! `abc-harness` — the parallel scenario-sweep engine (and `abc` CLI) of
//! the ABC-model reproduction.
//!
//! A single simulated execution answers "did *this* run satisfy the ABC
//! synchrony condition?"; mapping where Definition 4 actually breaks takes
//! thousands of randomized runs across delay families. This crate turns
//! the simulator into that instrument:
//!
//! * [`spec::ScenarioSpec`] — a declarative scenario: protocol
//!   ([`spec::Protocol`]), delay-model family with swept parameter ranges
//!   ([`spec::DelaySweep`]), fault plan ([`spec::FaultPlan`]), run limits,
//!   monitored `Ξ`, and a base seed;
//! * [`sweep::run_sweep`] — a deterministic `std::thread` work-queue
//!   runner that fans hundreds-to-thousands of independent runs across
//!   cores and aggregates a [`sweep::SweepReport`] (violation census,
//!   first-violation ratio distribution, message/step/slab statistics,
//!   wall-clock); each worker re-arms one engine and one monitor per run,
//!   so a sweep allocates per worker, not per run;
//! * the `abc` binary ([`cli`]) — `sweep`, `check`, `monitor`, and
//!   `replay` subcommands over the line-oriented trace text format
//!   (`abc_sim::textio`), plus the networked `serve` / `feed` / `loadgen`
//!   subcommands driving the `abc-service` TCP ingestion server
//!   ([`sweep::generate_trace`] supplies loadgen's sweep-generated
//!   workloads).
//!
//! # Sweep axes and the paper's adversary
//!
//! Section 2 of the paper models the network as an adversary that picks
//! each message's end-to-end delay, constrained only by the ABC condition.
//! The sweep axes are exactly the knobs of that adversary:
//!
//! * **Delay family + ranges** ([`spec::DelaySweep`]): banded delays
//!   (`band`, the Θ-style regime where every `Ξ > hi/lo` admits the run),
//!   unbounded growth (`growing`, the §5.1 spacecraft regime — no finite
//!   delay bound, ratios still banded), and targeted skew (`span`, the
//!   stress adversary driving relevant-cycle ratios toward the `Ξ`
//!   boundary). Sweeping their parameters maps the admissibility frontier
//!   instead of sampling one point of it.
//! * **Fault plan** ([`spec::FaultPlan`]): crash faults exercise the
//!   receive/processing split, Byzantine slots exercise message exemption
//!   (Section 2's message dropping), dropped links exercise lossy
//!   topologies.
//! * **Seeds**: run `i` draws from splitmix64 stream `i` of the base seed
//!   (`rand::rngs::SmallRng::seed_stream`), so one spec names the same
//!   execution set at any worker-thread count — sweeps are reproducible
//!   experiments, not load tests.
//!
//! # Example
//!
//! ```
//! use abc_harness::spec::{DelaySweep, FaultPlan, Grid, Protocol, ScenarioSpec};
//! use abc_harness::sweep::{run_sweep, SweepOptions};
//! use abc_core::Xi;
//! use abc_sim::RunLimits;
//!
//! let spec = ScenarioSpec {
//!     name: "doc".into(),
//!     protocol: Protocol::ClockSync { n: 4, f: 1 },
//!     delay: DelaySweep::Band { lo: Grid::fixed(10), hi: Grid::fixed(19) },
//!     faults: FaultPlan::none(),
//!     limits: RunLimits { max_events: 120, max_time: u64::MAX },
//!     xi: Xi::from_integer(2),
//!     runs_per_point: 4,
//!     base_seed: 7,
//! };
//! let report = run_sweep(&spec, SweepOptions { threads: 2, ..Default::default() }).unwrap();
//! assert_eq!(report.total_runs, 4);
//! assert_eq!(report.violations, 0); // band ratio 1.9 < Xi = 2
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod cli_lint;
mod cli_service;
pub mod spec;
pub mod sweep;

pub use spec::{DelayPoint, DelaySweep, FaultPlan, Grid, Protocol, ScenarioSpec};
pub use sweep::{generate_trace, run_sweep, RunOutcome, SweepOptions, SweepReport, ViolationInfo};
