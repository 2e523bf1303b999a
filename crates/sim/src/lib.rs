//! Deterministic discrete-event simulation of message-driven distributed
//! algorithms — the experimental substrate of the ABC-model reproduction.
//!
//! The paper's system model (Section 2) is implemented literally:
//!
//! * processes are state machines taking **zero-time atomic steps**, each
//!   triggered by the reception of exactly one message (an external wake-up
//!   message starts each process);
//! * a step receives, transitions, and sends zero or more messages;
//! * message delays come from a pluggable [`DelayModel`] (the network
//!   adversary), with delivery guaranteed unless the model drops a message;
//! * up to `f` processes may be faulty: **crash** faults stop processing
//!   (messages are still *received*, matching the paper's receive/process
//!   split) and **Byzantine** faults are simply adversary-written
//!   [`Process`] implementations, marked faulty so their messages are
//!   dropped from the synchrony condition.
//!
//! Every run captures a full space–time [`Trace`], convertible into an
//! [`abc_core::ExecutionGraph`] plus a [`abc_core::timed::TimedGraph`] of
//! real occurrence times — so every simulated execution can be checked
//! against the ABC synchrony condition (Definition 4), the Θ-Model bound,
//! and the paper's theorems. For *online* checking, attach an incremental
//! monitor ([`Simulation::attach_monitor`]): every executed event streams
//! into an [`abc_core::monitor::IncrementalChecker`] and the first
//! violating relevant cycle is latched with a witness, with no per-step
//! graph rebuild ([`Trace::replay_into_monitor`] is the offline analogue).
//! Neither prunes: bounded-memory monitoring
//! ([`abc_core::monitor::IncrementalChecker::prune_settled`]) is driven by
//! whoever streams the events and can vouch for a watermark, as
//! `abc-service`'s sessions do.
//! A harness that runs one short execution after another keeps one engine
//! and lends one monitor: [`Simulation::reset`] and
//! [`Trace::replay_until_violation_into`] re-arm them in place, equal to
//! new ones except that every buffer keeps its capacity.
//! Traces also serialize to a compact line-oriented text format
//! ([`textio`]: [`Trace::to_text`] / [`Trace::from_text`], no serde), so
//! any execution — including every run of an `abc-harness` sweep — can be
//! persisted, replayed, and re-checked offline. Parsing is incremental
//! ([`textio::TraceLineParser`]): files stream through
//! [`Trace::from_reader`] line by line behind a hard per-line length cap,
//! and the parser's streaming mode (O(in-flight) memory, fed by
//! [`Trace::to_stream_text`]'s wire ordering) is what the `abc-service`
//! TCP ingestion server exposes to untrusted clients.
//!
//! # Example: one ping-pong round trip
//!
//! ```
//! use abc_sim::{Simulation, Process, Context, delay::FixedDelay, RunLimits};
//! use abc_core::ProcessId;
//!
//! struct Ping;
//! struct Pong;
//! impl Process<u32> for Ping {
//!     fn on_init(&mut self, ctx: &mut Context<'_, u32>) {
//!         let n = ctx.num_processes();
//!         for p in 0..n {
//!             if p != ctx.me().0 { ctx.send(ProcessId(p), 1); }
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: ProcessId, _m: &u32) {}
//! }
//! impl Process<u32> for Pong {
//!     fn on_init(&mut self, _ctx: &mut Context<'_, u32>) {}
//!     fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, m: &u32) {
//!         if *m == 1 { ctx.send(from, 2); }
//!     }
//! }
//!
//! let mut sim = Simulation::new(FixedDelay::new(5));
//! sim.add_process(Ping);
//! sim.add_process(Pong);
//! let stats = sim.run(RunLimits::default());
//! assert_eq!(stats.messages_delivered, 2);
//! let g = sim.trace().to_execution_graph();
//! assert_eq!(g.num_messages(), 2);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binio;
mod calendar;
pub mod delay;
mod engine;
mod process;
pub mod textio;
mod trace;

pub use binio::{FrameAssembler, FrameWriter, RecordDecoder, WireRecord, DEFAULT_MAX_FRAME_LEN};
pub use delay::{DelayModel, Delivery};
pub use engine::{RunLimits, RunStats, Simulation};
pub use process::{Context, CrashAt, Mute, Process};
pub use textio::{
    EventFeed, LineAssembler, ParsedLine, TraceLineParser, TraceRecord, TraceTextError,
    DEFAULT_MAX_LINE_LEN,
};
pub use trace::{Trace, TraceEvent, TraceMessage};
