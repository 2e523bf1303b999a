//! `abc-service` — a sharded TCP trace-ingestion service with live ABC
//! monitoring.
//!
//! PR 2 made the ABC synchrony condition (Definition 4) checkable *online*
//! — [`abc_core::monitor::IncrementalChecker`] re-checks per appended event
//! at amortized near-zero cost — and the trace text format gave executions
//! a portable line serialization. This crate closes the loop the paper's
//! Section 5.3 motivates for DARTS-style VLSI clock monitoring and that
//! Fig. 3's failure-detection loop sketches at system scale: a
//! **long-running service** that ingests event streams from many concurrent
//! clients over TCP and flags `Ξ`-violations the moment the closing event
//! of a violating relevant cycle arrives, instead of after-the-fact batch
//! audits.
//!
//! Std-only by design (the build environment has no crates.io access — no
//! tokio, no mio): a listener thread accepts connections and hands each to
//! one of a fixed pool of **shard workers** (connection id → shard over
//! `std::sync::mpsc`); each worker drives its connections with
//! non-blocking reads/writes and, when none can move a byte, blocks in one
//! hand-declared `poll(2)` (`readiness`) until one can or somebody wakes
//! it — no thread of the server ticks, and the client's feed loop sleeps
//! in the same call. The split is sans-IO: the connection driver
//! in [`server`] is the only code that touches a data socket — it owns the
//! stream, the per-tick read budget and the byte counters, and reads
//! through the one buffer its shard lends every connection in turn
//! — and the session behind it is a pure state machine, request bytes in
//! and reply bytes out, that the driver asks only *want bytes?*, *here are
//! bytes / EOF*, *pending reply slices* and *finished?*. Every peer
//! behaviour (split points, half-close, slow readers, mid-document
//! disconnects) is therefore a deterministic unit test of the session,
//! with no socket in it.
//!
//! A session starts in the `abc-trace v1` line grammar in
//! streaming order ([`abc_sim::Trace::to_stream_text`]), parsed by
//! [`abc_sim::textio::TraceLineParser`] in its O(in-flight) streaming mode,
//! and may negotiate the **v2 binary framing** (`proto v2` handshake,
//! [`abc_sim::binio`]) — length-prefixed frames of varint-packed records
//! decoded into the *same* parser core, so both framings accept exactly
//! the same documents. Either way every event feeds a per-document
//! [`abc_core::monitor::IncrementalChecker`] — the text of a document is
//! never buffered, and with [`server::ServerConfig::prune_horizon`] set the
//! checker itself runs in bounded-memory mode (settled-prefix pruning), so
//! server memory is O(sessions + in-flight frame + prune window), never
//! O(connection lifetime). Parser and checker are held only while a
//! document is open: a finished document hands both back to its shard,
//! which keeps a few as spares, and the next document — of any session on
//! that shard — re-arms them in place
//! ([`abc_sim::textio::TraceLineParser::reset`],
//! [`abc_core::monitor::IncrementalChecker::reset`]) instead of building
//! them from nothing, so a shard under steady load stops allocating per
//! document and an idle connection holds no document memory. The served
//! checker keeps no execution-graph mirror (nothing served reads one).
//! Replies are `ok <seq>` / `violation <seq> <witness>` per event (v1) or
//! one coalesced `ack <through>` per ingested frame with immediate
//! violations (v2), and `end <verdict>` per document ([`proto`]); both
//! framings also answer an on-demand **margin** request (`margin\n` in v1,
//! tag `0x09` in v2) with the session's current exact max relevant-cycle
//! ratio and tightest witness. A plaintext status port serves the metrics
//! registry ([`metrics::Metrics`]) in a human format and as a Prometheus
//! text exposition (`prom` command or `GET /metrics` over HTTP), including
//! per-session margin gauges and an early-warning state driven by
//! [`server::ServerConfig::warn_margin`]; it accepts a `shutdown` command,
//! and SIGINT triggers the same graceful stop ([`signals`]).
//!
//! | Module | Contents |
//! |---|---|
//! | [`server`] | [`server::start`], [`server::ServerConfig`], shard workers and the connection driver (the only data-socket I/O), status port |
//! | `session` | (internal) sans-IO per-connection state machine: one request path for both framings, document half + reply half; the shard-owned spare document state |
//! | [`proto`] | wire protocol: replies, [`proto::Verdict`], [`proto::offline_verdict`] |
//! | [`client`] | [`client::feed_stream_text`] / [`client::feed_stream_binary`] (`abc feed`), [`client::run_loadgen`] (`abc loadgen`), [`client::status_command`] |
//! | [`metrics`] | named counter/gauge/histogram registry; human status page + Prometheus text exposition; per-session margin gauges |
//! | [`forensics`] | violation-forensics bundles: byte-reproducible capture at latch / on `dump`, parser + pretty renderer (`abc inspect`) |
//! | `readiness` | (internal) `poll(2)` by hand: the wait set, `wait(set, deadline)`, and the socket-pair `Waker` every blocked thread is reached through |
//! | [`signals`] | SIGINT → stop-flag hook |
//!
//! The `abc` CLI (in `abc-harness`) exposes all of it: `abc serve`,
//! `abc feed`, `abc loadgen`.
//!
//! # Verdict fidelity
//!
//! The server's verdict for a document is **byte-identical** to what the
//! offline monitor (`abc monitor`) reaches on the same trace:
//! [`proto::offline_verdict`] and the server render through the same
//! [`proto::Verdict`] type, and the integration tests assert equality over
//! concurrent multi-client runs. Admissibility is decided by the same
//! latched incremental checker in both places — the service adds
//! transport, sharding, and observability, not a second opinion.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod forensics;
pub mod metrics;
pub mod proto;
mod readiness;
pub mod server;
mod session;
pub mod signals;

pub use client::{feed_stream_binary, feed_stream_text, run_loadgen, LoadgenDoc, LoadgenReport};
pub use proto::{offline_verdict, Reply, Verdict};
pub use server::{start, ServerConfig, ServerHandle};
