//! One client connection: non-blocking request framing (v1 text lines or
//! negotiated v2 binary frames), streaming trace parsing, an incremental
//! ABC checker per document, and chunked vectored reply buffering.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use abc_core::monitor::{IncrementalChecker, MarginReport, MonitorStats};
use abc_core::{EventId, ProcessId, Xi};
use abc_rational::Ratio;
use abc_sim::binio::{FrameAssembler, RecordDecoder, WireRecord};
use abc_sim::textio::{EventFeed, LineAssembler, ParsedLine, TraceLineParser, TraceTextError};

use crate::forensics::{monitor_counter_pairs, wire_record_line, ForensicsBundle};
use crate::metrics::{ratio_to_basis_points, Metrics, MARGIN_NONE};
use crate::server::ServerConfig;

// Flight-recorder hooks (no-ops unless the embedding process called
// `abc_obs::enable`): RAII spans cover only per-frame / per-drain work,
// and on the batched v2 path the record/feed counters flush as one
// delta add per frame (alongside `flush_event_counters`) rather than
// one recorder touch per record.
static OBS_CHECKER_FEED: abc_obs::CounterDef = abc_obs::CounterDef::new("service.checker_feed");
static OBS_FRAMES: abc_obs::CounterDef = abc_obs::CounterDef::new("service.frame_decodes");
static OBS_RECORDS: abc_obs::CounterDef = abc_obs::CounterDef::new("service.records");

/// Soft cap on buffered reply bytes: when a client stops draining replies,
/// the session stops reading new requests until the buffer shrinks — the
/// slow client throttles itself, not the server.
const OUT_SOFT_CAP: usize = 1 << 20;

/// Reads per tick per session, so one firehose client cannot starve its
/// shard siblings within a single scheduling round.
const MAX_READS_PER_TICK: usize = 16;

/// Per-session read buffer. Reused for the connection's lifetime (boxed so
/// idle sessions don't widen the shard's stack frames).
const READ_BUF_LEN: usize = 64 * 1024;

/// Reply-buffer chunk size. Chunks recycle through a small spare pool, so
/// a steady-state session allocates no reply memory at all.
const OUT_CHUNK: usize = 16 * 1024;

/// Recycled empty chunks kept per session.
const OUT_SPARE_CAP: usize = 4;

/// Reply chunks submitted per `writev`.
const OUT_MAX_IOV: usize = 8;

/// Microseconds since `t0`, saturating (histogram observations).
fn micros_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The request framing the session currently decodes.
enum RxMode {
    /// `abc-trace v1` text lines (the initial mode).
    Text(LineAssembler),
    /// `abc-trace v2` length-prefixed binary frames, after a completed
    /// `proto v2` handshake.
    Binary(FrameAssembler),
}

/// Buffered replies as a queue of fixed-size chunks, drained with vectored
/// writes. Compared to one flat `Vec`, draining pops whole chunks instead
/// of memmoving a tail, and chunk recycling keeps the hot ingest path
/// allocation-free.
struct OutBuf {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of the front chunk already written.
    head_pos: usize,
    /// Total unwritten bytes across all chunks.
    pending: usize,
    spare: Vec<Vec<u8>>,
}

impl OutBuf {
    fn new() -> OutBuf {
        OutBuf {
            chunks: VecDeque::new(),
            head_pos: 0,
            pending: 0,
            spare: Vec::new(),
        }
    }

    fn pending(&self) -> usize {
        self.pending
    }

    fn tail(&mut self) -> &mut Vec<u8> {
        let need_new = match self.chunks.back() {
            Some(c) => c.len() >= OUT_CHUNK,
            None => true,
        };
        if need_new {
            let c = self
                .spare
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(OUT_CHUNK));
            self.chunks.push_back(c);
        }
        self.chunks
            .back_mut()
            .expect("a tail chunk was just ensured")
    }

    fn push_str(&mut self, s: &str) {
        self.tail().extend_from_slice(s.as_bytes());
        self.pending += s.len();
    }

    fn push_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        let c = self.tail();
        let before = c.len();
        // `io::Write` on `Vec<u8>` cannot fail.
        let _ = c.write_fmt(args);
        let delta = c.len() - before;
        self.pending += delta;
    }

    /// Fills `slices` with the unwritten chunk tails, front first.
    fn ioslices<'a>(&'a self, slices: &mut [IoSlice<'a>; OUT_MAX_IOV]) -> usize {
        let mut k = 0;
        for (i, c) in self.chunks.iter().enumerate() {
            let Some(slot) = slices.get_mut(k) else {
                break;
            };
            let s: &[u8] = if i == 0 {
                c.get(self.head_pos..).unwrap_or(&[])
            } else {
                c
            };
            if !s.is_empty() {
                *slot = IoSlice::new(s);
                k += 1;
            }
        }
        k
    }

    /// Marks `n` bytes written, recycling fully drained chunks.
    fn consume(&mut self, mut n: usize) {
        self.pending -= n;
        while n > 0
            || self
                .chunks
                .front()
                .is_some_and(|c| c.len() == self.head_pos)
        {
            let avail = match self.chunks.front() {
                Some(c) => c.len() - self.head_pos,
                None => break,
            };
            if n >= avail {
                n -= avail;
                let Some(mut c) = self.chunks.pop_front() else {
                    break; // unreachable: `avail` came from this chunk
                };
                c.clear();
                self.head_pos = 0;
                if self.spare.len() < OUT_SPARE_CAP {
                    self.spare.push(c);
                }
            } else {
                self.head_pos += n;
                n = 0;
            }
        }
    }
}

/// The per-document ingestion state.
///
/// The `Running` payload is boxed: `drive_document` moves the state out of
/// the session and back **per record**, and the parser + checker are ~1.2 KB
/// inline — boxing turns that round trip into two pointer moves.
enum DocState {
    /// Between documents: accepting `xi …` / `proto …` requests or the
    /// start of a trace document.
    Idle,
    /// Mid-document.
    Running(Box<RunningDoc>),
}

/// Mid-document state: the shared validation parser plus the live monitor.
struct RunningDoc {
    parser: TraceLineParser,
    /// Created at the `faulty` line; dropped at `end` (memory is per
    /// in-flight document, not per connection lifetime).
    checker: Option<IncrementalChecker>,
    /// `(latch_seq, wire_witness)` once the monitor latched. After the
    /// latch the checker is no longer fed — the verdict can never
    /// change, so remaining events only count (and, in v1, echo).
    latched: Option<(usize, String)>,
    /// The latched witness's exact ratio, kept so `margin` requests
    /// after the latch (when the checker is dropped) still answer with
    /// the frozen margin.
    margin_frozen: Option<Ratio>,
}

/// Live counters shared with the server's session table (status page).
#[derive(Clone, Debug)]
pub(crate) struct SessionCounters {
    pub events: Arc<AtomicU64>,
    pub violations: Arc<AtomicU64>,
    /// Monitor-memory gauges: events/arcs currently live in the open
    /// document's checker, and events compacted away so far (across the
    /// connection's documents).
    pub live_events: Arc<AtomicU64>,
    pub live_arcs: Arc<AtomicU64>,
    pub pruned_events: Arc<AtomicU64>,
    /// Last exactly computed margin of the open document, in basis
    /// points ([`crate::metrics::ratio_to_basis_points`]);
    /// [`MARGIN_NONE`] until an exact probe runs.
    pub margin_bp: Arc<AtomicU64>,
    /// 1 once the open document's margin crossed the warn threshold.
    pub warning: Arc<AtomicU64>,
}

impl SessionCounters {
    pub(crate) fn new() -> SessionCounters {
        SessionCounters {
            events: Arc::new(AtomicU64::new(0)),
            violations: Arc::new(AtomicU64::new(0)),
            live_events: Arc::new(AtomicU64::new(0)),
            live_arcs: Arc::new(AtomicU64::new(0)),
            pruned_events: Arc::new(AtomicU64::new(0)),
            margin_bp: Arc::new(AtomicU64::new(MARGIN_NONE)),
            warning: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// Cap on forensics timeline / margin-history entries kept per session
/// (most recent win; totals keep counting).
const FORENSICS_LOG_CAP: usize = 256;

/// Per-session forensics capture, present only when the server was
/// started with a forensics directory (`None` = feature off, zero cost on
/// the ingest path). Everything recorded here is **input-derived** — wire
/// records, request numbers, monitor counters — never timestamps or peer
/// addresses, so the rendered bundle is byte-reproducible from the same
/// document bytes and server flags (see [`crate::forensics`]).
struct Forensics {
    dir: std::path::PathBuf,
    /// Most recent wire records, as canonical v1 text lines (binary
    /// records render through [`wire_record_line`]).
    tail: VecDeque<String>,
    tail_cap: usize,
    tail_total: u64,
    /// `(request#, ratio-or-none)` per client-driven exact margin sample
    /// (`margin` requests and the latch freeze). Gated warn probes are
    /// excluded — their schedule depends on read chunking.
    margins: VecDeque<(u64, String)>,
    margins_total: u64,
    /// `(request#, entry)` decision timeline: document starts, topology,
    /// prunes, the latch, document ends.
    timeline: VecDeque<(u64, String)>,
    timeline_total: u64,
    /// The latched violation, surviving the checker drop.
    latch: Option<(u64, String)>,
    /// Monitor counters frozen at the latch (the checker is dropped right
    /// after); refreshed from the live checker on explicit dumps.
    stats: MonitorStats,
    /// Dump ordinal: bundles are named `session-<id>-<ordinal>.forensics`.
    dumps: u64,
}

impl Forensics {
    fn new(dir: std::path::PathBuf, tail_cap: usize) -> Forensics {
        Forensics {
            dir,
            tail: VecDeque::new(),
            tail_cap: tail_cap.max(1),
            tail_total: 0,
            margins: VecDeque::new(),
            margins_total: 0,
            timeline: VecDeque::new(),
            timeline_total: 0,
            latch: None,
            stats: MonitorStats::default(),
            dumps: 0,
        }
    }

    fn record_wire(&mut self, line: &str) {
        if self.tail.len() >= self.tail_cap {
            self.tail.pop_front();
        }
        self.tail.push_back(line.to_string());
        self.tail_total += 1;
    }

    fn record_margin(&mut self, at: usize, ratio: String) {
        if self.margins.len() >= FORENSICS_LOG_CAP {
            self.margins.pop_front();
        }
        self.margins.push_back((at as u64, ratio));
        self.margins_total += 1;
    }

    fn note(&mut self, at: usize, entry: String) {
        if self.timeline.len() >= FORENSICS_LOG_CAP {
            self.timeline.pop_front();
        }
        self.timeline.push_back((at as u64, entry));
        self.timeline_total += 1;
    }
}

pub(crate) struct Session {
    pub(crate) id: u64,
    stream: TcpStream,
    rx: RxMode,
    /// Delta-decoder state for binary event times (reset per document by
    /// the `processes` record itself).
    decoder: RecordDecoder,
    /// Reusable scratch holding the frame being decoded.
    frame_buf: Vec<u8>,
    /// Reusable socket read buffer.
    read_buf: Box<[u8]>,
    doc: DocState,
    xi: Xi,
    max_processes: usize,
    max_frame_len: usize,
    /// Bounded-memory monitoring: prune each document's checker so at most
    /// ~`2·horizon` events stay live (`None` = exact unbounded mode).
    prune_horizon: Option<usize>,
    /// Early-warning margin threshold (see
    /// [`ServerConfig::warn_margin`]).
    warn_margin: Option<Ratio>,
    /// Whether pruning monitors keep margin signatures (see
    /// [`ServerConfig::margin_tracking`]).
    margin_tracking: bool,
    /// Whether the open document's warning already fired (at most one
    /// warning per document).
    warned: bool,
    /// Request count (`lines_in`) at which the next *drain-gated* exact
    /// margin probe may run. Doubled after each probe, so an unresolved
    /// `--warn-margin` threshold (cheap bound above it, exact margin
    /// below) costs `O(log n)` exact probes per document instead of one
    /// per ingested batch. On-demand `margin` requests bypass this gate.
    probe_gate: usize,
    /// Pruned-event count already folded into the session counter for the
    /// open document (the monitor reports a per-document running total).
    doc_pruned_reported: usize,
    /// 1-based count of requests received (error replies cite it: text
    /// lines since the connection opened, or binary records since the
    /// framing switch).
    lines_in: usize,
    /// Highest event seq ingested since the last `ack` reply (v2 only);
    /// flushed as one coalesced `ack <through>` per fully ingested frame.
    unacked: Option<usize>,
    /// Events ingested but not yet folded into the shared atomic counters
    /// (see [`Session::flush_event_counters`]).
    doc_events_pending: u64,
    out: OutBuf,
    /// Half-closed: no more requests will arrive; die once `out` drains.
    eof: bool,
    /// Fatal protocol error queued; die once `out` drains.
    poisoned: bool,
    pub(crate) dead: bool,
    pub(crate) counters: SessionCounters,
    /// Violation-forensics capture (boxed: ~5 pointers of cold state, and
    /// `None` entirely unless the server configured a forensics dir).
    forensics: Option<Box<Forensics>>,
}

impl Session {
    pub(crate) fn new(
        id: u64,
        stream: TcpStream,
        config: &ServerConfig,
        counters: SessionCounters,
    ) -> Session {
        let mut s = Session {
            id,
            stream,
            rx: RxMode::Text(LineAssembler::new(config.max_line_len)),
            decoder: RecordDecoder::new(),
            frame_buf: Vec::new(),
            read_buf: vec![0u8; READ_BUF_LEN].into_boxed_slice(),
            doc: DocState::Idle,
            xi: config.xi.clone(),
            max_processes: config.max_processes,
            max_frame_len: config.max_frame_len,
            prune_horizon: config.prune_horizon,
            warn_margin: config.warn_margin.clone(),
            margin_tracking: config.margin_tracking,
            warned: false,
            probe_gate: 0,
            doc_pruned_reported: 0,
            lines_in: 0,
            unacked: None,
            doc_events_pending: 0,
            out: OutBuf::new(),
            eof: false,
            poisoned: false,
            dead: false,
            counters,
            forensics: config
                .forensics_dir
                .as_ref()
                .map(|dir| Box::new(Forensics::new(dir.clone(), config.forensics_tail))),
        };
        s.reply_fmt(format_args!("{}\n", crate::proto::GREETING));
        s
    }

    fn binary(&self) -> bool {
        matches!(self.rx, RxMode::Binary(_))
    }

    fn reply(&mut self, line: &str) {
        self.out.push_str(line);
    }

    fn reply_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        self.out.push_fmt(args);
    }

    /// Queues the coalesced `ack <through>` covering every event ingested
    /// since the previous ack (no-op when nothing is pending).
    fn flush_ack(&mut self, metrics: &Metrics) {
        if let Some(through) = self.unacked.take() {
            self.reply_fmt(format_args!("ack {through}\n"));
            metrics.acks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Folds locally accumulated event counts into the shared atomics.
    /// Called at reply boundaries (frame ack, text drain, latch, `end`,
    /// error) so the status-port counters are exact whenever a client can
    /// observe progress — without paying two atomic RMWs per event.
    fn flush_event_counters(&mut self, metrics: &Metrics) {
        if self.doc_events_pending > 0 {
            OBS_CHECKER_FEED.add(self.doc_events_pending);
            metrics
                .events
                .fetch_add(self.doc_events_pending, Ordering::Relaxed);
            self.counters
                .events
                .fetch_add(self.doc_events_pending, Ordering::Relaxed);
            self.doc_events_pending = 0;
        }
    }

    /// Refreshes the monitor-memory gauges from the open document's
    /// checker (batched alongside [`Session::flush_event_counters`]).
    fn refresh_gauges(&mut self) {
        let snap = if let DocState::Running(doc) = &self.doc {
            doc.checker.as_ref().map(|mon| {
                (
                    mon.live_events() as u64,
                    mon.live_arcs() as u64,
                    mon.stats().pruned_events,
                )
            })
        } else {
            None
        };
        if let Some((live, arcs, pruned)) = snap {
            self.counters.live_events.store(live, Ordering::Relaxed);
            self.counters.live_arcs.store(arcs, Ordering::Relaxed);
            self.note_pruned(pruned);
        }
    }

    /// Folds the open document's monitor `pruned_events` running total into
    /// the session-lifetime counter (exactly once per pruned event).
    fn note_pruned(&mut self, doc_total: usize) {
        let delta = doc_total.saturating_sub(self.doc_pruned_reported);
        if delta > 0 {
            self.counters
                .pruned_events
                .fetch_add(delta as u64, Ordering::Relaxed);
            self.doc_pruned_reported = doc_total;
        }
    }

    /// Resets the per-document margin state (gauges, warning latch) at
    /// the start of a fresh document.
    fn begin_document(&mut self) {
        self.doc_pruned_reported = 0;
        self.warned = false;
        self.probe_gate = 0;
        self.counters
            .margin_bp
            .store(MARGIN_NONE, Ordering::Relaxed);
        self.counters.warning.store(0, Ordering::Relaxed);
        let framing = if self.binary() { "binary" } else { "text" };
        let at = self.lines_in;
        if let Some(fx) = self.forensics.as_mut() {
            fx.note(at, format!("document start ({framing} framing)"));
        }
    }

    /// Whether this session can answer exact margin probes: always when
    /// unpruned (the checker keeps its full graph mirror), and under
    /// pruning only when margin tracking kept the boundary signatures.
    fn can_probe_margin(&self) -> bool {
        self.prune_horizon.is_none() || self.margin_tracking
    }

    /// Publishes one exactly computed margin: per-session gauge plus the
    /// workspace-wide histogram. Gauges move only on exact computations
    /// — the cheap upper bound never reaches them.
    fn publish_margin(&mut self, ratio: &Ratio, metrics: &Metrics) {
        let bp = ratio_to_basis_points(ratio);
        self.counters.margin_bp.store(bp, Ordering::Relaxed);
        metrics.margin_hist.observe(bp);
    }

    /// Flips the per-session warning state (at most once per document)
    /// when an exactly computed margin from a still-admissible monitor
    /// reaches the `--warn-margin` threshold. Post-latch samples never
    /// reach this: warnings fire strictly before any latch.
    fn maybe_warn(&mut self, ratio: &Ratio, metrics: &Metrics) {
        if self.warned {
            return;
        }
        let Some(threshold) = &self.warn_margin else {
            return;
        };
        if ratio >= threshold {
            self.warned = true;
            self.counters.warning.store(1, Ordering::Relaxed);
            metrics.margin_warnings.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Handles an on-demand margin request (the v1 `margin` line / the
    /// v2 margin record): replies `margin none` or
    /// `margin <P/Q> [<wire-witness>]` with the exact current margin,
    /// updating the margin gauge and histogram. Between documents (no
    /// cycles yet) the reply is `margin none`; after a latch the margin
    /// is frozen at the latched witness's ratio.
    fn margin_request(&mut self, metrics: &Metrics) {
        if !self.can_probe_margin() {
            self.protocol_error(
                "margin unavailable: server prunes without margin tracking",
                metrics,
            );
            return;
        }
        // Probe first (immutable borrow of the document state), then
        // publish and reply (mutable borrows of the session). `live` is
        // true when the sample came from a still-admissible checker —
        // only those samples may arm the early warning.
        let probed: Result<Option<(MarginReport, bool)>, String> = match &self.doc {
            DocState::Idle => Ok(None),
            DocState::Running(doc) => match (&doc.checker, &doc.margin_frozen, &doc.latched) {
                (Some(mon), _, _) => mon
                    .current_margin()
                    .map(|m| m.map(|rep| (rep, true)))
                    .map_err(|e| format!("margin: {e}")),
                (None, Some(frozen), Some((_, wire))) => Ok(Some((
                    MarginReport {
                        ratio: frozen.clone(),
                        witness: match abc_core::cycle::WitnessSummary::from_wire(wire) {
                            Ok(w) => Some(w),
                            Err(_) => None, // defensive: the latch wrote this wire form
                        },
                    },
                    false,
                ))),
                // Before the topology there is no checker and no cycles.
                (None, _, _) => Ok(None),
            },
        };
        let at = self.lines_in;
        match probed {
            Err(m) => self.protocol_error(&m, metrics),
            Ok(None) => {
                if let Some(fx) = self.forensics.as_mut() {
                    fx.record_margin(at, "none".to_string());
                }
                self.reply("margin none\n");
            }
            Ok(Some((rep, live))) => {
                self.publish_margin(&rep.ratio, metrics);
                if let Some(fx) = self.forensics.as_mut() {
                    fx.record_margin(at, rep.ratio.to_string());
                }
                if live {
                    self.maybe_warn(&rep.ratio, metrics);
                }
                match &rep.witness {
                    Some(w) => {
                        self.reply_fmt(format_args!("margin {} {}\n", rep.ratio, w.wire()));
                    }
                    None => self.reply_fmt(format_args!("margin {}\n", rep.ratio)),
                }
            }
        }
    }

    /// The amortized early-warning gate, evaluated after every ingested
    /// event but gated by a doubling threshold (`probe_gate`): an
    /// evaluation at `lines_in = g` schedules the next one at `2g`, so a
    /// document of `n` events pays for `O(log n)` evaluations total —
    /// each a cheap `O(live arcs)` margin upper bound, escalating to the
    /// exact probe only when the bound reaches the `--warn-margin`
    /// threshold. Starting the gate at zero means the first evaluations
    /// land while the live window is still tiny, so a workload that
    /// crosses the threshold early latches its warning before the exact
    /// probe ever sees a large graph. The warning flips at most once per
    /// document, strictly before any latch (the monitor stays admissible
    /// while its margin is below `Ξ`, and a useful threshold sits below
    /// `Ξ`). After the flip the gate is a single flag check per event.
    fn check_warn_margin(&mut self, metrics: &Metrics) {
        // Ordered cheapest-first: per-event calls must cost a couple of
        // integer/flag compares while gated or already warned.
        if self.warned || self.lines_in < self.probe_gate || !self.can_probe_margin() {
            return;
        }
        let Some(threshold) = self.warn_margin.clone() else {
            return;
        };
        let exact: Option<Ratio> = {
            let DocState::Running(doc) = &self.doc else {
                return;
            };
            let Some(mon) = doc.checker.as_ref() else {
                return;
            };
            match mon.margin_upper_bound() {
                // The cheap bound certifies the margin is below the
                // threshold: skip the exact probe entirely.
                Some(bound) if bound >= threshold => {
                    // Overflow in the exact probe (pathological sizes)
                    // is treated as "no sample" — no warning either way.
                    mon.current_margin()
                        .ok()
                        .flatten()
                        .map(|report| report.ratio)
                }
                _ => None,
            }
        };
        // Every evaluation that reached the checker did real work (at
        // least the bound scan), so every one advances the gate — bound
        // scans and exact probes are both amortized to `O(log n)` per
        // document.
        self.probe_gate = self
            .lines_in
            .saturating_mul(2)
            .max(self.lines_in.saturating_add(1));
        let Some(ratio) = exact else { return };
        self.publish_margin(&ratio, metrics);
        self.maybe_warn(&ratio, metrics);
    }

    fn protocol_error(&mut self, message: &str, metrics: &Metrics) {
        self.flush_event_counters(metrics);
        let unit = if self.binary() { "record" } else { "line" };
        // Events ingested before the failure stay unacknowledged: the
        // session is terminal, so the client must not treat them as safely
        // checked.
        self.unacked = None;
        let n = self.lines_in;
        self.reply_fmt(format_args!("error {unit} {n}: {message}\n"));
        metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
        self.poisoned = true;
    }

    /// Drives the session once: flush pending replies, read whatever
    /// arrived, process complete requests, flush again. Returns whether any
    /// byte moved (the shard loop sleeps only when nothing did).
    pub(crate) fn tick(&mut self, metrics: &Metrics) -> bool {
        let mut work = self.try_flush(metrics);
        if !self.dead && !self.poisoned && !self.eof && self.out.pending() < OUT_SOFT_CAP {
            work |= self.try_read(metrics);
            work |= self.try_flush(metrics);
        }
        if (self.eof || self.poisoned) && self.out.pending() == 0 {
            self.dead = true;
        }
        work
    }

    fn try_read(&mut self, metrics: &Metrics) -> bool {
        let mut work = false;
        for _ in 0..MAX_READS_PER_TICK {
            match self.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    self.handle_request_eof(metrics);
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    work = true;
                    metrics.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    let stop = if self.binary() {
                        self.ingest_binary(n, metrics)
                    } else {
                        self.ingest_text(n, metrics)
                    };
                    if stop || self.poisoned || self.out.pending() >= OUT_SOFT_CAP {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        work
    }

    /// End of requests. Text: a final line without a trailing newline is
    /// still a line (feed clients may half-close right after `end`).
    /// Binary: a partial frame at EOF is a protocol error.
    fn handle_request_eof(&mut self, metrics: &Metrics) {
        if self.binary() {
            self.drain_frames(metrics);
            let leftover = {
                let RxMode::Binary(frames) = &self.rx else {
                    return; // defensive: mode was checked above
                };
                frames.finish()
            };
            if let Err(m) = leftover {
                if !self.poisoned {
                    self.lines_in += 1;
                    self.protocol_error(&m, metrics);
                }
            }
        } else {
            let finished = {
                let RxMode::Text(assembler) = &mut self.rx else {
                    return; // defensive: mode was checked above
                };
                assembler.finish()
            };
            self.drain_lines(metrics);
            if let Err(e) = finished {
                if !self.poisoned {
                    self.lines_in += 1;
                    self.protocol_error(&e.message, metrics);
                }
            }
        }
    }

    /// Feeds `n` fresh bytes through the text path; `true` means stop
    /// reading this tick.
    fn ingest_text(&mut self, n: usize, metrics: &Metrics) -> bool {
        let pushed = {
            let RxMode::Text(assembler) = &mut self.rx else {
                return false; // defensive: mode was checked by the caller
            };
            assembler.push(self.read_buf.get(..n).unwrap_or(&[]))
        };
        // Lines completed before a failure point still process (and
        // number) normally; only then is the offending oversized/invalid
        // line itself counted.
        self.drain_lines(metrics);
        if let Err(e) = pushed {
            if !self.poisoned {
                self.lines_in += 1;
                self.protocol_error(&e.message, metrics);
            }
            return true;
        }
        false
    }

    /// Feeds `n` fresh bytes through the binary path; `true` means stop
    /// reading this tick.
    fn ingest_binary(&mut self, n: usize, metrics: &Metrics) -> bool {
        let pushed = {
            let RxMode::Binary(frames) = &mut self.rx else {
                return false; // defensive: mode was checked by the caller
            };
            frames.push(self.read_buf.get(..n).unwrap_or(&[]))
        };
        if let Err(m) = pushed {
            // An oversized length prefix is rejected from the prefix
            // alone, before any payload buffers.
            if !self.poisoned {
                self.lines_in += 1;
                self.protocol_error(&m, metrics);
            }
            return true;
        }
        self.drain_frames(metrics);
        self.poisoned
    }

    fn drain_lines(&mut self, metrics: &Metrics) {
        let t0 = Instant::now();
        let lines_before = self.lines_in;
        loop {
            if self.poisoned || self.binary() {
                // A completed `proto v2` handshake leaves no buffered
                // lines (the switch refuses otherwise).
                break;
            }
            let line = {
                let RxMode::Text(assembler) = &mut self.rx else {
                    break; // defensive: mode was checked above
                };
                match assembler.next_line() {
                    Some(l) => l,
                    None => break,
                }
            };
            self.lines_in += 1;
            self.process_line(&line, metrics);
            // Per-line warn-gate evaluation: a flag/integer check while
            // gated, so early threshold crossings latch on a small window.
            self.check_warn_margin(metrics);
        }
        // Per-drain (not per-line) counter/gauge settlement — the v1
        // analogue of the per-frame flush in `process_frame`.
        self.flush_event_counters(metrics);
        self.refresh_gauges();
        if self.lines_in > lines_before {
            metrics.ingest_hist.observe(micros_since(t0));
            self.check_warn_margin(metrics);
        }
    }

    fn drain_frames(&mut self, metrics: &Metrics) {
        while !self.poisoned {
            let got = {
                let RxMode::Binary(frames) = &mut self.rx else {
                    break; // defensive: mode was checked by the caller
                };
                frames.next_frame_into(&mut self.frame_buf)
            };
            match got {
                Ok(true) => {
                    // Move the scratch out so the decode loop can queue
                    // replies through `&mut self`.
                    let frame = std::mem::take(&mut self.frame_buf);
                    self.process_frame(&frame, metrics);
                    self.frame_buf = frame;
                }
                Ok(false) => break,
                Err(m) => {
                    self.lines_in += 1;
                    self.protocol_error(&m, metrics);
                    break;
                }
            }
        }
    }

    /// Decodes and applies every record of one frame, then flushes the
    /// frame's coalesced ack (violation and `end` replies were already
    /// queued in record order, so they precede it).
    fn process_frame(&mut self, payload: &[u8], metrics: &Metrics) {
        let _span = abc_obs::span("service.frame_decode");
        OBS_FRAMES.add(1);
        let lines_before = self.lines_in;
        let t0 = Instant::now();
        metrics.frames.fetch_add(1, Ordering::Relaxed);
        let mut decoder = std::mem::take(&mut self.decoder);
        let structural = decoder.decode_frame(payload, &mut |rec| {
            self.handle_record(rec, metrics);
            // Per-record warn-gate evaluation (see `check_warn_margin`):
            // a flag/integer check while gated, so early threshold
            // crossings latch on a small window even when a frame batches
            // thousands of records.
            self.check_warn_margin(metrics);
            !self.poisoned
        });
        self.decoder = decoder;
        if let Err(m) = structural {
            if !self.poisoned {
                self.lines_in += 1;
                self.protocol_error(&m, metrics);
            }
        }
        OBS_RECORDS.add((self.lines_in - lines_before) as u64);
        // Counters/gauges settle before the ack covering the frame is
        // queued, so a client observing the ack sees exact status counters.
        self.flush_event_counters(metrics);
        self.refresh_gauges();
        metrics.ingest_hist.observe(micros_since(t0));
        self.check_warn_margin(metrics);
        if !self.poisoned {
            self.flush_ack(metrics);
            metrics.ack_hist.observe(micros_since(t0));
        }
    }

    /// One decoded binary record — the v2 analogue of `process_line`, fed
    /// through the same shared validation core ([`TraceLineParser`]).
    fn handle_record(&mut self, rec: WireRecord, metrics: &Metrics) {
        self.lines_in += 1;
        if self.forensics.is_some() {
            // Binary event records carry their seq implicitly; the parser
            // will assign `events_seen()` to this one, so render with it.
            let implicit_seq = match &self.doc {
                DocState::Running(doc) => doc.parser.events_seen(),
                DocState::Idle => 0,
            };
            let line = wire_record_line(&rec, implicit_seq);
            if let Some(fx) = self.forensics.as_mut() {
                fx.record_wire(&line);
            }
        }
        if matches!(rec, WireRecord::Margin) {
            // Session-level record, accepted mid-document and between
            // documents; the reply precedes the frame's coalesced ack.
            self.margin_request(metrics);
            return;
        }
        if matches!(self.doc, DocState::Idle) {
            if let WireRecord::Xi(spec) = &rec {
                match spec.trim().parse::<Xi>() {
                    Ok(xi) => self.xi = xi,
                    Err(e) => self.protocol_error(&format!("xi: {e}"), metrics),
                }
                return;
            }
            // Any other record starts a fresh document. Binary documents
            // carry no `abc-trace` header line — the frame tag already
            // names the format — so the parser starts past it.
            self.begin_document();
            self.doc = DocState::Running(Box::new(RunningDoc {
                parser: TraceLineParser::new_streaming()
                    .without_header()
                    .with_max_processes(self.max_processes),
                checker: None,
                latched: None,
                margin_frozen: None,
            }));
        } else if matches!(rec, WireRecord::Xi(_)) {
            self.protocol_error("xi record inside a trace document", metrics);
            return;
        }
        self.drive_document(metrics, |parser| match rec.to_trace_record() {
            Some(trec) => parser.feed_record(trec),
            // Defensive: xi records were dispatched above; a stray one is
            // a session error, not a server panic.
            None => Err(TraceTextError {
                line: 0,
                message: "internal: xi record escaped idle-state dispatch".to_string(),
            }),
        });
    }

    fn process_line(&mut self, line: &str, metrics: &Metrics) {
        OBS_RECORDS.add(1);
        if let Some(fx) = self.forensics.as_mut() {
            fx.record_wire(line);
        }
        if line.trim() == crate::proto::MARGIN_REQUEST {
            // On-demand margin sample, accepted mid-document and between
            // documents (`margin` is not a trace-grammar line, so the
            // interception shadows nothing).
            self.margin_request(metrics);
            return;
        }
        if matches!(self.doc, DocState::Idle) {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                return;
            }
            if let Some(rest) = trimmed.strip_prefix("xi ") {
                match rest.trim().parse::<Xi>() {
                    Ok(xi) => self.xi = xi,
                    Err(e) => self.protocol_error(&format!("xi: {e}"), metrics),
                }
                return;
            }
            if trimmed == crate::proto::PROTO_V2_REQUEST {
                self.negotiate_v2(metrics);
                return;
            }
            if trimmed == crate::proto::PROTO_V1_REQUEST {
                self.reply_fmt(format_args!("{}\n", crate::proto::PROTO_V1_OK));
                return;
            }
            if let Some(rest) = trimmed.strip_prefix("proto ") {
                self.protocol_error(&format!("unsupported protocol {rest:?}"), metrics);
                return;
            }
            // Anything else starts a fresh document (the parser will
            // reject non-header lines with a precise message).
            self.begin_document();
            self.doc = DocState::Running(Box::new(RunningDoc {
                parser: TraceLineParser::new_streaming().with_max_processes(self.max_processes),
                checker: None,
                latched: None,
                margin_frozen: None,
            }));
        }
        self.drive_document(metrics, |parser| parser.feed_line(line));
    }

    /// Switches the request framing to v2 binary frames. The handshake is
    /// strict: the client must wait for the `proto v2 ok` reply, so any
    /// bytes already pipelined behind the request are a protocol error
    /// (they would otherwise be misread as text).
    fn negotiate_v2(&mut self, metrics: &Metrics) {
        let pipelined = match &self.rx {
            RxMode::Text(assembler) => assembler.has_buffered(),
            // Defensive: negotiation arrives on a text line, so a binary
            // session can never reach here; ignore rather than abort.
            RxMode::Binary(_) => return,
        };
        if pipelined {
            self.protocol_error(
                "data pipelined behind `proto v2` (wait for `proto v2 ok`)",
                metrics,
            );
            return;
        }
        self.reply_fmt(format_args!("{}\n", crate::proto::PROTO_V2_OK));
        self.rx = RxMode::Binary(FrameAssembler::new(self.max_frame_len));
        self.decoder = RecordDecoder::new();
        // Error replies now cite record numbers, counted from the switch.
        self.lines_in = 0;
    }

    /// The shared document state machine: both framings feed the same
    /// [`TraceLineParser`] validation core, so text and binary accept
    /// exactly the same documents and produce byte-identical verdicts.
    fn drive_document<F>(&mut self, metrics: &Metrics, feed: F)
    where
        F: FnOnce(&mut TraceLineParser) -> Result<ParsedLine, TraceTextError>,
    {
        // Take the document state out of `self` so replies can be queued
        // while holding it (a failed/finished document simply stays out).
        // The box makes this per-record round trip a pointer move.
        let DocState::Running(mut doc) = std::mem::replace(&mut self.doc, DocState::Idle) else {
            return; // defensive: both callers just initialized the state
        };
        let RunningDoc {
            parser,
            checker,
            latched,
            margin_frozen,
        } = &mut *doc;
        let parsed = match feed(parser) {
            Ok(p) => p,
            Err(e) => {
                self.protocol_error(&e.message, metrics);
                return;
            }
        };
        let binary = self.binary();
        let mut done = false;
        let mut latched_now = false;
        match parsed {
            ParsedLine::Meta | ParsedLine::Message { .. } => {}
            ParsedLine::Topology => {
                let Some((n, faulty)) = parser.topology() else {
                    // Defensive: Topology is only signalled once the
                    // faulty line has been accepted.
                    self.protocol_error("internal: topology unavailable", metrics);
                    return;
                };
                match IncrementalChecker::new(n, &self.xi) {
                    Ok(mut mon) => {
                        if self.prune_horizon.is_some() {
                            mon.enable_pruning();
                            if self.margin_tracking {
                                // Must precede the first prune: boundary
                                // shortcut arcs need their margin
                                // signatures from the start.
                                mon.enable_margin_tracking();
                            }
                        }
                        for (p, f) in faulty.iter().enumerate() {
                            if *f {
                                mon.mark_faulty(ProcessId(p));
                            }
                        }
                        *checker = Some(mon);
                        let at = self.lines_in;
                        if let Some(fx) = self.forensics.as_mut() {
                            let k = faulty.iter().filter(|f| **f).count();
                            fx.note(at, format!("topology processes={n} faulty={k}"));
                        }
                    }
                    Err(e) => {
                        let msg = format!("xi {} not monitorable: {e}", self.xi);
                        self.protocol_error(&msg, metrics);
                        return;
                    }
                }
            }
            ParsedLine::Event(feed) => {
                self.doc_events_pending += 1;
                // Honest watermark, once per event for the monitor's prune
                // and the parser's sidecar window alike: `horizon` behind
                // the frontier, capped by the oldest declared but
                // undelivered message (whose receive will still name its
                // send event).
                let prune = self.prune_horizon.map(|h| {
                    let watermark = parser.events_seen().saturating_sub(h);
                    let oldest = parser.oldest_pending_send();
                    (h, oldest.map_or(watermark, |o| watermark.min(o)))
                });
                let seq = match feed {
                    EventFeed::Init { seq, .. } | EventFeed::Receive { seq, .. } => seq,
                };
                if let Some((latch_seq, wire)) = &*latched {
                    // v1 echoes the latched violation per event; v2 keeps
                    // acking silently (the violation already went out).
                    if binary {
                        self.unacked = Some(seq);
                    } else {
                        let line = format!("violation {latch_seq} {wire}\n");
                        self.reply(&line);
                    }
                } else {
                    let Some(mon) = checker.as_mut() else {
                        // Defensive: the parser admits events only after
                        // the faulty line created the checker.
                        self.protocol_error("internal: event before topology", metrics);
                        return;
                    };
                    match feed {
                        EventFeed::Init { process, .. } => {
                            mon.append_init(process);
                        }
                        EventFeed::Receive {
                            process,
                            send_event,
                            ..
                        } => {
                            let Some(send) = send_event else {
                                // Defensive: streaming mode resolves every
                                // send event before yielding the receive.
                                self.protocol_error(
                                    "internal: unresolved send event in streaming mode",
                                    metrics,
                                );
                                return;
                            };
                            mon.append_send(EventId(send), process);
                        }
                    }
                    if mon.violation().is_some() {
                        // `violation_summary` is latched alongside the
                        // cycle and byte-identical to summarizing against
                        // the graph — and it works in pruned mode, where
                        // there is no graph mirror to summarize against.
                        let Some(summary) = mon.violation_summary() else {
                            // Defensive: a latched monitor carries its
                            // summary by construction.
                            self.protocol_error(
                                "internal: latched monitor lost its witness",
                                metrics,
                            );
                            return;
                        };
                        let wire = summary.wire().to_string();
                        // The margin freezes at the latched witness's
                        // ratio (a latched witness is a relevant cycle,
                        // so its ratio always exists).
                        *margin_frozen = summary.classification.ratio();
                        self.flush_event_counters(metrics);
                        metrics.violations.fetch_add(1, Ordering::Relaxed);
                        self.counters.violations.fetch_add(1, Ordering::Relaxed);
                        // Violation replies are immediate in both framings
                        // and precede the ack that covers `seq`.
                        self.reply_fmt(format_args!("violation {seq} {wire}\n"));
                        if binary {
                            self.unacked = Some(seq);
                        }
                        // Forensics freezes its view *before* the checker
                        // drops: the latch, the counters at latch time,
                        // and a timeline entry. The bundle itself is
                        // written after the document state is restored.
                        let at = self.lines_in;
                        if let Some(fx) = self.forensics.as_mut() {
                            fx.latch = Some((seq as u64, wire.clone()));
                            fx.stats = mon.stats();
                            fx.note(at, format!("latch seq={seq}"));
                            latched_now = true;
                        }
                        *latched = Some((seq, wire));
                        self.note_pruned(mon.stats().pruned_events);
                        // The verdict is latched; stop feeding the checker
                        // so a violating firehose doesn't keep growing its
                        // graph.
                        *checker = None;
                        self.counters.live_events.store(0, Ordering::Relaxed);
                        self.counters.live_arcs.store(0, Ordering::Relaxed);
                        if let Some(r) = margin_frozen.clone() {
                            self.publish_margin(&r, metrics);
                            let at = self.lines_in;
                            if let Some(fx) = self.forensics.as_mut() {
                                fx.record_margin(at, r.to_string());
                            }
                        }
                    } else {
                        if binary {
                            self.unacked = Some(seq);
                        } else {
                            self.reply_fmt(format_args!("ok {seq}\n"));
                        }
                        if let Some((h, watermark)) = prune {
                            if mon.live_events() > 2 * h.max(1) {
                                mon.prune_settled(Some(EventId(watermark)));
                                let at = self.lines_in;
                                if let Some(fx) = self.forensics.as_mut() {
                                    fx.note(at, format!("prune watermark={watermark}"));
                                }
                            }
                        }
                        // Memory gauges refresh per ingested frame / drained
                        // read (`refresh_gauges`), not per event.
                    }
                }
                if let Some((_, watermark)) = prune {
                    // Window the parser's per-event sidecar on every event —
                    // including after a latch, when the checker is dropped
                    // but events keep arriving: without this, a violating
                    // firehose would grow `event_meta` per post-latch event,
                    // breaking the advertised memory bound.
                    parser.forget_events_below(watermark);
                }
            }
            ParsedLine::End => {
                // Acknowledge everything ingested before the verdict goes
                // out, so `ack` never trails its document's `end`.
                self.flush_event_counters(metrics);
                self.flush_ack(metrics);
                // Must render exactly like [`Verdict`]'s `Display`, which
                // the offline monitor and `abc feed` also use — that is
                // the byte-identical-verdicts contract.
                match &*latched {
                    Some((latch_seq, wire)) => {
                        self.reply_fmt(format_args!("end violation at_event={latch_seq} {wire}\n"));
                    }
                    None => {
                        self.reply_fmt(format_args!(
                            "end admissible events={}\n",
                            parser.events_seen()
                        ));
                    }
                }
                metrics.documents.fetch_add(1, Ordering::Relaxed);
                let at = self.lines_in;
                let events_seen = parser.events_seen();
                let verdict = if latched.is_some() {
                    "violation"
                } else {
                    "admissible"
                };
                if let Some(fx) = self.forensics.as_mut() {
                    fx.note(
                        at,
                        format!("document end ({verdict}, events={events_seen})"),
                    );
                }
                // Drop the whole per-document state, margin gauges
                // included.
                self.counters.live_events.store(0, Ordering::Relaxed);
                self.counters.live_arcs.store(0, Ordering::Relaxed);
                self.counters
                    .margin_bp
                    .store(MARGIN_NONE, Ordering::Relaxed);
                self.counters.warning.store(0, Ordering::Relaxed);
                self.warned = false;
                done = true;
            }
        }
        if !done {
            self.doc = DocState::Running(doc);
        }
        if latched_now {
            // Automatic violation forensics: one bundle per latch, written
            // the moment the verdict is known (rare path — file I/O here
            // never rides an admissible stream).
            self.dump_forensics("latch", metrics);
        }
    }

    /// Writes a forensics bundle (and, when the flight recorder is
    /// enabled, a timed span-trace sidecar) to the configured directory.
    /// No-op unless the server was started with a forensics dir. Returns
    /// whether a bundle was written.
    pub(crate) fn dump_forensics(&mut self, reason: &str, metrics: &Metrics) -> bool {
        // A live checker refreshes the frozen counters; the latch path
        // already froze them right before dropping its checker.
        let live_stats = match &self.doc {
            DocState::Running(doc) => doc.checker.as_ref().map(|mon| mon.stats()),
            DocState::Idle => None,
        };
        let Some(fx) = self.forensics.as_mut() else {
            return false;
        };
        if let Some(stats) = live_stats {
            fx.stats = stats;
        }
        let bundle = ForensicsBundle {
            session: self.id,
            reason: reason.to_string(),
            xi: self.xi.to_string(),
            latch: fx.latch.clone(),
            monitor: monitor_counter_pairs(&fx.stats),
            margins: fx.margins.iter().cloned().collect(),
            margins_total: fx.margins_total,
            timeline: fx.timeline.iter().cloned().collect(),
            timeline_total: fx.timeline_total,
            tail: fx.tail.iter().cloned().collect(),
            tail_total: fx.tail_total,
        };
        let path = fx
            .dir
            .join(format!("session-{}-{}.forensics", self.id, fx.dumps));
        if std::fs::create_dir_all(&fx.dir).is_err()
            || std::fs::write(&path, bundle.render()).is_err()
        {
            // Unwritable dir: forensics degrades to a no-op rather than
            // poisoning the session.
            return false;
        }
        fx.dumps += 1;
        metrics.forensics_dumps.fetch_add(1, Ordering::Relaxed);
        if abc_obs::is_enabled() {
            // Timed span data goes to a sidecar, deliberately outside the
            // bundle's byte-reproducibility contract.
            let trace = abc_obs::snapshot().chrome_trace_json();
            let _ = std::fs::write(path.with_extension("forensics.trace.json"), trace);
        }
        true
    }

    fn try_flush(&mut self, metrics: &Metrics) -> bool {
        // Span only when there is something to drain, so idle ticks don't
        // flood the recorder ring.
        let _span = if self.out.pending() > 0 {
            Some(abc_obs::span("service.ack_drain"))
        } else {
            None
        };
        let mut work = false;
        while self.out.pending() > 0 {
            let mut slices = [IoSlice::new(&[]); OUT_MAX_IOV];
            let k = self.out.ioslices(&mut slices);
            match (&self.stream).write_vectored(slices.get(..k).unwrap_or(&[])) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    work = true;
                    metrics.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                    self.out.consume(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        work
    }
}
