//! One client session as a sans-IO state machine: request bytes in, reply
//! bytes out. Request framing (v1 text lines or negotiated v2 binary
//! frames), streaming trace parsing, an incremental ABC checker per
//! document and chunked reply buffering live here; the socket does not.
//! The connection driver in [`crate::server`] owns every read and write
//! and asks a session only four things: *want bytes?*
//! ([`Session::wants_bytes`]), *here are bytes / EOF* ([`Session::feed`],
//! [`Session::feed_eof`]), *pending reply slices*
//! ([`Session::reply_slices`], [`Session::consume`]) and *finished?*
//! ([`Session::finished`]).
//!
//! Both framings share one request path: [`Session::drain`] pulls
//! requests out of the framing in batches (every completed line, or the
//! records of one frame), [`ReplyHalf::request`] classifies and applies
//! each, and [`ReplyHalf::settle`] closes the batch. Session state is
//! split into a document half ([`RunningDoc`]) and a reply half
//! ([`ReplyHalf`]) so the document state machine can queue replies while
//! it holds the parser and the checker.
//!
//! A session owns document state only while a document is open. The
//! parser and the monitor of a finished document go back to the
//! [`DocSpares`] of the shard that drives the session — lent to
//! [`Session::feed`] by `&mut`, next to the metrics — and the next
//! document of any session on that shard re-arms them in place
//! ([`TraceLineParser::reset`], [`IncrementalChecker::reset`]) instead of
//! allocating: between documents a session holds neither, and an idle
//! connection costs its framing state and nothing else.

use std::collections::VecDeque;
use std::io::{IoSlice, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use abc_core::monitor::{IncrementalChecker, MonitorStats};
use abc_core::{EventId, ProcessId, Xi};
use abc_rational::Ratio;
use abc_sim::binio::{FrameAssembler, RecordDecoder, WireRecord};
use abc_sim::textio::{
    write_record_line, EventFeed, LineAssembler, ParsedLine, TraceLineParser, TraceTextError,
};

use crate::forensics::{monitor_counter_pairs, ForensicsBundle};
use crate::metrics::{ratio_to_basis_points, Metrics, MARGIN_NONE};
use crate::proto;
use crate::server::ServerConfig;

// Flight-recorder hooks (no-ops unless the embedding process called
// `abc_obs::enable`): RAII spans cover only per-frame work, and the
// record/feed counters flush as one delta add per drained batch
// (alongside `flush_event_counters`) rather than one recorder touch per
// record.
static OBS_CHECKER_FEED: abc_obs::CounterDef = abc_obs::CounterDef::new("service.checker_feed");
// Monitors armed per document: built from nothing, or a spare re-armed in
// place (see `DocSpares`). A shard that reuses shows the second moving.
static OBS_DOC_STATE_FRESH: abc_obs::CounterDef =
    abc_obs::CounterDef::new("service.doc_state_fresh");
static OBS_DOC_STATE_REUSED: abc_obs::CounterDef =
    abc_obs::CounterDef::new("service.doc_state_reused");
static OBS_FRAMES: abc_obs::CounterDef = abc_obs::CounterDef::new("service.frame_decodes");
static OBS_RECORDS: abc_obs::CounterDef = abc_obs::CounterDef::new("service.records");

/// Soft cap on buffered reply bytes: when a client stops draining replies,
/// the session stops asking for new requests until the buffer shrinks —
/// the slow client throttles itself, not the server.
const OUT_SOFT_CAP: usize = 1 << 20;

/// Reply-buffer chunk size. Chunks recycle through a small spare pool, so
/// a steady-state session allocates no reply memory at all.
const OUT_CHUNK: usize = 16 * 1024;

/// Recycled empty chunks kept per session.
const OUT_SPARE_CAP: usize = 4;

/// Spare parsers, and spare monitors, a shard keeps: enough for the
/// documents that finish on it in one scheduling round; a horde of
/// connections finishing together frees the rest as before.
const DOC_SPARES: usize = 4;

/// Events above which a finished document's parser or monitor is freed
/// instead of kept: per held event a monitor keeps about 200 bytes of
/// columns and a parser 16, so what a shard's spares pin while it idles
/// stays within a few tens of MiB.
const DOC_SPARE_MAX_EVENTS: usize = 1 << 15;

/// Microseconds since `t0`, saturating (histogram observations).
fn micros_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// A `--warn-margin` threshold as the `(p, q)` parts a monitor's kept
/// margin is compared with ([`IncrementalChecker::kept_margin_reaches`]):
/// `None` unless it lies above 1 with parts within `i64`, the range of a
/// monitored `Ξ`. Every relevant cycle has ratio at least 1, so a lower
/// threshold would only ask whether a cycle exists, which the kept margin
/// does not answer in O(1).
pub(crate) fn warn_parts(threshold: &Ratio) -> Option<(i64, i64)> {
    Xi::new(threshold.clone()).ok()?.as_i64_parts()
}

/// The request framing the session currently decodes, with the state only
/// that framing needs.
enum RxMode {
    /// `abc-trace v1` text lines (the initial mode).
    Text(LineAssembler),
    /// `abc-trace v2` length-prefixed binary frames, after a completed
    /// `proto v2` handshake.
    Binary {
        frames: FrameAssembler,
        /// Delta-decoder state for event times (reset per document by the
        /// `processes` record itself).
        decoder: RecordDecoder,
        /// Reusable scratch holding the frame being decoded.
        frame: Vec<u8>,
    },
}

/// One request as its framing yielded it.
#[derive(Clone, Copy)]
enum Request<'a> {
    Line(&'a str),
    Record(&'a WireRecord),
}

/// What a request asks for, once classified.
enum Class<'a> {
    /// On-demand margin sample, accepted mid-document and between
    /// documents (`margin` is not a trace-grammar line, so the
    /// interception shadows nothing).
    Margin,
    /// Blank or comment line between documents.
    Blank,
    /// A `Ξ` specification.
    Xi(&'a str),
    /// The `proto v2` upgrade request.
    ProtoV2,
    /// `proto v1`: pins the (default) text framing, a handshaked no-op.
    ProtoV1,
    /// `proto <anything else>`.
    ProtoUnknown(&'a str),
    /// A trace-document line or record; the first one opens a document
    /// (the parser rejects a non-header start with a precise message).
    Document,
}

/// Buffered replies as a queue of fixed-size chunks, drained with vectored
/// writes. Compared to one flat `Vec`, draining pops whole chunks instead
/// of memmoving a tail, and chunk recycling keeps the hot ingest path
/// allocation-free.
struct OutBuf {
    /// Sealed chunks, oldest first.
    full: VecDeque<Vec<u8>>,
    /// The chunk being filled, sealed into `full` once it holds
    /// [`OUT_CHUNK`] bytes. It lives outside the queue, so appending never
    /// has to prove the queue non-empty.
    tail: Vec<u8>,
    /// Bytes of the oldest chunk (`full`'s front, else `tail`) already
    /// written.
    head_pos: usize,
    /// Total unwritten bytes across all chunks.
    pending: usize,
    spare: Vec<Vec<u8>>,
}

impl OutBuf {
    fn new() -> OutBuf {
        OutBuf {
            full: VecDeque::new(),
            tail: Vec::with_capacity(OUT_CHUNK),
            head_pos: 0,
            pending: 0,
            spare: Vec::new(),
        }
    }

    fn tail(&mut self) -> &mut Vec<u8> {
        if self.tail.len() >= OUT_CHUNK {
            let fresh = self
                .spare
                .pop()
                .unwrap_or_else(|| Vec::with_capacity(OUT_CHUNK));
            self.full
                .push_back(std::mem::replace(&mut self.tail, fresh));
        }
        &mut self.tail
    }

    fn push_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        let c = self.tail();
        let before = c.len();
        // `io::Write` on `Vec<u8>` cannot fail.
        let _ = c.write_fmt(args);
        let delta = c.len() - before;
        self.pending += delta;
    }

    /// Fills `slices` with the unwritten chunk tails, oldest first;
    /// returns how many were filled.
    fn slices<'a>(&'a self, slices: &mut [IoSlice<'a>]) -> usize {
        let mut k = 0;
        let mut skip = self.head_pos;
        for c in self.full.iter().chain(std::iter::once(&self.tail)) {
            let s = c.get(skip..).unwrap_or(&[]);
            skip = 0;
            if s.is_empty() {
                continue;
            }
            let Some(slot) = slices.get_mut(k) else {
                break;
            };
            *slot = IoSlice::new(s);
            k += 1;
        }
        k
    }

    /// Marks `n` bytes written, recycling fully drained chunks.
    fn consume(&mut self, mut n: usize) {
        self.pending -= n;
        while let Some(front) = self.full.front() {
            let avail = front.len() - self.head_pos;
            if n < avail {
                self.head_pos += n;
                return;
            }
            n -= avail;
            self.head_pos = 0;
            if let Some(mut c) = self.full.pop_front() {
                c.clear();
                if self.spare.len() < OUT_SPARE_CAP {
                    self.spare.push(c);
                }
            }
        }
        self.head_pos += n;
        if self.head_pos == self.tail.len() {
            self.tail.clear();
            self.head_pos = 0;
        }
    }
}

/// The document state finished documents left behind, for the next
/// documents to re-arm: one per shard, lent to every session the shard
/// drives. Parsers and monitors are kept apart because they come back
/// apart — a latch returns the monitor while the parser validates on.
///
/// What is kept carries the modes of the [`ServerConfig`] it was built
/// under (the parser's process cap, the monitor's dropped mirror and
/// margin tracking), so one `DocSpares` serves sessions of one
/// configuration only; a shard has exactly one.
pub(crate) struct DocSpares {
    parsers: Vec<TraceLineParser>,
    checkers: Vec<IncrementalChecker>,
}

impl DocSpares {
    pub(crate) fn new() -> DocSpares {
        DocSpares {
            parsers: Vec::new(),
            checkers: Vec::new(),
        }
    }

    fn put_parser(&mut self, parser: TraceLineParser) {
        if self.parsers.len() < DOC_SPARES && parser.events_seen() <= DOC_SPARE_MAX_EVENTS {
            self.parsers.push(parser);
        }
    }

    fn put_checker(&mut self, checker: IncrementalChecker) {
        if self.checkers.len() < DOC_SPARES
            && checker.stats().live_events_peak <= DOC_SPARE_MAX_EVENTS
        {
            self.checkers.push(checker);
        }
    }

    /// Takes back everything a closed document held.
    fn put(&mut self, doc: RunningDoc) {
        self.put_parser(doc.parser);
        if let Some(checker) = doc.checker {
            self.put_checker(checker);
        }
    }
}

/// The document half of a session: the shared validation parser plus the
/// live monitor of the open document.
struct RunningDoc {
    parser: TraceLineParser,
    /// Armed at the `faulty` line; handed back to the [`DocSpares`] at the
    /// latch or with the document (a session holds a monitor only while a
    /// document is in flight, never for the connection's lifetime).
    checker: Option<IncrementalChecker>,
    /// Set once the monitor latched. After the latch the checker is no
    /// longer fed — the verdict can never change, so remaining events
    /// only count (and, in v1, echo).
    latched: Option<Latch>,
}

/// A latched violation, outliving the checker that found it.
struct Latch {
    seq: usize,
    /// The witness in wire form.
    wire: String,
    /// The witness's exact ratio, kept so `margin` requests after the
    /// latch still answer with the frozen margin.
    margin: Option<Ratio>,
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
    /// Most recent wire records, as they came: a ring that, once full,
    /// writes each new record over the oldest (see [`TailEntry`]).
    tail: VecDeque<TailEntry>,
    tail_cap: usize,
    tail_total: u64,
    /// `(request#, ratio-or-none)` per exact margin sample: `margin`
    /// requests, the warning's crossing (at the event that reached the
    /// threshold) and the latch freeze. All three are functions of the
    /// request sequence alone, never of how it was read, so the history is
    /// as reproducible as the rest of the bundle.
    margins: VecDeque<(u64, String)>,
    margins_total: u64,
    /// `(request#, entry)` decision timeline: document starts, topology,
    /// prunes, the warning with its witness, the latch, document ends.
    timeline: VecDeque<(u64, String)>,
    timeline_total: u64,
    /// The latched violation, surviving the checker's return.
    latch: Option<(u64, String)>,
    /// Monitor counters frozen at the latch (the checker is handed back
    /// right after); refreshed from the live checker on explicit dumps.
    stats: MonitorStats,
    /// Dump ordinal: bundles are named `session-<id>-<ordinal>.forensics`.
    dumps: u64,
}

/// One record of the forensics tail. A text line is copied into the buffer
/// of the line it replaces; a binary record is kept decoded, with the seq
/// the parser gives it, and spelled as its v1 line by
/// [`write_record_line`] only when a bundle is written. Recording a request
/// therefore formats nothing and, once the ring is full and its buffers
/// have grown, allocates nothing.
enum TailEntry {
    Line(String),
    Record(WireRecord, usize),
}

impl TailEntry {
    /// The entry as the bundle's v1 text line.
    fn render(&self) -> String {
        match self {
            TailEntry::Line(line) => line.clone(),
            TailEntry::Record(rec, seq) => {
                let mut line = String::new();
                write_record_line(&mut line, rec, *seq);
                line
            }
        }
    }
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

    /// Records the text request `line`.
    fn record_line(&mut self, line: &str) {
        let entry = match self.make_room() {
            Some(TailEntry::Line(mut buf)) => {
                buf.clear();
                buf.push_str(line);
                TailEntry::Line(buf)
            }
            _ => TailEntry::Line(line.to_string()),
        };
        self.tail.push_back(entry);
    }

    /// Records the binary request `rec`, which the parser numbers `seq`
    /// if it is an event.
    fn record_binary(&mut self, rec: &WireRecord, seq: usize) {
        self.make_room();
        self.tail.push_back(TailEntry::Record(rec.clone(), seq));
    }

    /// Counts one more wire record and, with the ring full, takes out the
    /// oldest for the new one to reuse.
    fn make_room(&mut self) -> Option<TailEntry> {
        self.tail_total += 1;
        if self.tail.len() >= self.tail_cap {
            self.tail.pop_front()
        } else {
            None
        }
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

/// The reply half of a session: everything a request may touch besides the
/// framing and the open document — numbering, the reply queue, monitor
/// settings, counters and forensics capture.
struct ReplyHalf {
    id: u64,
    /// Whether the session speaks v2: replies coalesce into `ack`s and
    /// errors cite records. Flips together with [`Session::rx`].
    v2: bool,
    xi: Xi,
    max_processes: usize,
    /// Bounded-memory monitoring: prune each document's checker once more
    /// than `2·horizon` events are live and the honest watermark frees a
    /// quarter of them (`None` = exact unbounded mode).
    prune_horizon: Option<usize>,
    /// Early-warning margin threshold as `(p, q)` parts (see
    /// [`ServerConfig::warn_margin`] and [`warn_parts`]).
    warn_margin: Option<(i64, i64)>,
    /// Whether the open document's warning already fired (at most one
    /// warning per document).
    warned: bool,
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
    /// (see [`ReplyHalf::flush_event_counters`]).
    doc_events_pending: u64,
    out: OutBuf,
    /// Half-closed: no more requests will arrive; finished once `out`
    /// drains.
    eof: bool,
    /// Fatal protocol error queued; finished once `out` drains.
    poisoned: bool,
    counters: SessionCounters,
    /// Violation-forensics capture (boxed: ~5 pointers of cold state, and
    /// `None` entirely unless the server configured a forensics dir).
    forensics: Option<Box<Forensics>>,
}

pub(crate) struct Session {
    rx: RxMode,
    /// Per-frame byte cap for the binary framing, should it be negotiated.
    max_frame_len: usize,
    /// The open document; `None` between documents, when `xi …` /
    /// `proto …` requests or the start of a trace document are accepted.
    doc: Option<RunningDoc>,
    tx: ReplyHalf,
}

impl Session {
    pub(crate) fn new(id: u64, config: &ServerConfig, counters: SessionCounters) -> Session {
        let mut tx = ReplyHalf {
            id,
            v2: false,
            xi: config.xi.clone(),
            max_processes: config.max_processes,
            prune_horizon: config.prune_horizon,
            warn_margin: config.warn_margin.as_ref().and_then(warn_parts),
            warned: false,
            doc_pruned_reported: 0,
            lines_in: 0,
            unacked: None,
            doc_events_pending: 0,
            out: OutBuf::new(),
            eof: false,
            poisoned: false,
            counters,
            forensics: config
                .forensics_dir
                .as_ref()
                .map(|dir| Box::new(Forensics::new(dir.clone(), config.forensics_tail))),
        };
        tx.reply_fmt(format_args!("{}\n", proto::GREETING));
        Session {
            rx: RxMode::Text(LineAssembler::new(config.max_line_len)),
            max_frame_len: config.max_frame_len,
            doc: None,
            tx,
        }
    }

    pub(crate) fn id(&self) -> u64 {
        self.tx.id
    }

    /// Whether the session will take more request bytes now: not after
    /// EOF or a fatal error, and not while the peer leaves
    /// [`OUT_SOFT_CAP`] reply bytes undrained.
    pub(crate) fn wants_bytes(&self) -> bool {
        !self.tx.eof && !self.tx.poisoned && self.tx.out.pending < OUT_SOFT_CAP
    }

    /// Whether the session is over: no more requests will be processed and
    /// every reply has been handed out.
    pub(crate) fn finished(&self) -> bool {
        (self.tx.eof || self.tx.poisoned) && self.tx.out.pending == 0
    }

    /// Reply bytes queued and not yet [`Session::consume`]d.
    pub(crate) fn pending(&self) -> usize {
        self.tx.out.pending
    }

    /// Fills `slices` with the pending reply bytes, oldest first; returns
    /// how many slices were filled.
    pub(crate) fn reply_slices<'a>(&'a self, slices: &mut [IoSlice<'a>]) -> usize {
        self.tx.out.slices(slices)
    }

    /// Marks the first `n` pending reply bytes as written.
    pub(crate) fn consume(&mut self, n: usize) {
        self.tx.out.consume(n);
    }

    /// The one bytes-in entry point: frames `bytes` and processes every
    /// request they complete.
    pub(crate) fn feed(&mut self, bytes: &[u8], metrics: &Metrics, spares: &mut DocSpares) {
        let pushed = match &mut self.rx {
            RxMode::Text(lines) => lines.push(bytes).map_err(|e| e.message),
            RxMode::Binary { frames, .. } => frames.push(bytes),
        };
        // Requests completed before a failure point still process (and
        // number) normally; only then is the offending oversized/invalid
        // line itself counted.
        self.drain(metrics, spares);
        if let Err(m) = pushed {
            self.tx.framing_error(&m, metrics);
        }
    }

    /// End of requests. Text: a final line without a trailing newline is
    /// still a line (feed clients may half-close right after `end`).
    /// Binary: a partial frame at EOF is a protocol error — and partial is
    /// all that can be buffered here, since every [`Session::feed`] drains
    /// the requests it completed.
    pub(crate) fn feed_eof(&mut self, metrics: &Metrics, spares: &mut DocSpares) {
        let finished = match &mut self.rx {
            RxMode::Text(lines) => lines.finish().map_err(|e| e.message),
            RxMode::Binary { frames, .. } => frames.finish(),
        };
        self.drain(metrics, spares);
        if let Err(m) = finished {
            self.tx.framing_error(&m, metrics);
        }
        self.tx.eof = true;
    }

    /// The one drain loop: takes batches of requests out of the framing —
    /// every completed line, or the records of one frame — hands each to
    /// [`ReplyHalf::request`] and settles the batch.
    fn drain(&mut self, metrics: &Metrics, spares: &mut DocSpares) {
        let Session {
            rx,
            max_frame_len,
            doc,
            tx,
        } = self;
        while !tx.poisoned {
            let t0 = Instant::now();
            let lines_before = tx.lines_in;
            let v2 = tx.v2;
            let mut requests = 0u64;
            let mut _span = None;
            match &mut *rx {
                RxMode::Text(lines) => {
                    let mut upgrade = false;
                    while !tx.poisoned && !upgrade {
                        let Some(line) = lines.next_line() else {
                            break;
                        };
                        requests += 1;
                        upgrade = tx.request(doc, Request::Line(line), metrics, spares);
                    }
                    // The handshake is strict: the client must wait for
                    // the `proto v2 ok` reply, so any bytes already
                    // pipelined behind the request are a protocol error
                    // (they would otherwise be misread as text).
                    if upgrade && lines.has_buffered() {
                        tx.protocol_error(
                            "data pipelined behind `proto v2` (wait for `proto v2 ok`)",
                            metrics,
                        );
                    } else if upgrade {
                        tx.reply_fmt(format_args!("{}\n", proto::PROTO_V2_OK));
                        *rx = RxMode::Binary {
                            frames: FrameAssembler::new(*max_frame_len),
                            decoder: RecordDecoder::new(),
                            frame: Vec::new(),
                        };
                        tx.v2 = true;
                        // Error replies now cite record numbers, counted
                        // from the switch.
                        tx.lines_in = 0;
                    }
                }
                RxMode::Binary {
                    frames,
                    decoder,
                    frame,
                } => match frames.next_frame_into(frame) {
                    Ok(true) => {
                        _span = Some(abc_obs::span("service.frame_decode"));
                        OBS_FRAMES.add(1);
                        metrics.frames.fetch_add(1, Ordering::Relaxed);
                        let structural = decoder.decode_frame(frame, &mut |rec| {
                            requests += 1;
                            tx.request(doc, Request::Record(&rec), metrics, spares);
                            !tx.poisoned
                        });
                        if let Err(m) = structural {
                            tx.framing_error(&m, metrics);
                        }
                    }
                    Ok(false) => break,
                    Err(m) => {
                        tx.framing_error(&m, metrics);
                        break;
                    }
                },
            }
            OBS_RECORDS.add(requests);
            tx.settle(doc.as_ref(), t0, lines_before, v2, metrics);
            if !v2 {
                // A text batch took every completed line.
                break;
            }
        }
    }

    /// The connection is gone: a document it left open (cut short, or
    /// behind a fatal error) hands its state back like a finished one.
    pub(crate) fn close(&mut self, spares: &mut DocSpares) {
        if let Some(doc) = self.doc.take() {
            spares.put(doc);
        }
    }

    /// Writes a forensics bundle for this session (see
    /// [`ReplyHalf::dump_forensics`]).
    pub(crate) fn dump_forensics(&mut self, reason: &str, metrics: &Metrics) -> bool {
        // A live checker refreshes the frozen counters; the latch already
        // froze them right before handing its checker back.
        let live = self.doc.as_ref().and_then(|d| d.checker.as_ref());
        self.tx
            .dump_forensics(live.map(IncrementalChecker::stats), reason, metrics)
    }
}

impl ReplyHalf {
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
    /// Called at reply boundaries (batch settle, latch, `end`, error) so
    /// the status-port counters are exact whenever a client can observe
    /// progress — without paying two atomic RMWs per event.
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

    /// Settles one drained batch (`v2`: it came out of a binary frame).
    /// Counters and gauges settle before the ack covering the frame is
    /// queued, so a client observing the ack sees exact status counters;
    /// violation and `end` replies were already queued in request order,
    /// so they precede it.
    fn settle(
        &mut self,
        doc: Option<&RunningDoc>,
        t0: Instant,
        lines_before: usize,
        v2: bool,
        metrics: &Metrics,
    ) {
        self.flush_event_counters(metrics);
        if let Some(mon) = doc.and_then(|d| d.checker.as_ref()) {
            // Memory gauges refresh per batch, not per event.
            self.counters
                .live_events
                .store(mon.live_events() as u64, Ordering::Relaxed);
            self.counters
                .live_arcs
                .store(mon.live_arcs() as u64, Ordering::Relaxed);
            self.note_pruned(mon.stats().pruned_events, metrics);
        }
        // (A completed handshake restarted the numbering: that batch goes
        // unobserved.)
        if self.lines_in > lines_before {
            metrics.ingest_hist.observe(micros_since(t0));
        }
        if v2 && !self.poisoned {
            self.flush_ack(metrics);
            metrics.ack_hist.observe(micros_since(t0));
        }
    }

    /// Folds the open document's monitor `pruned_events` running total into
    /// the session-lifetime counter and the server's (exactly once per
    /// pruned event).
    fn note_pruned(&mut self, doc_total: usize, metrics: &Metrics) {
        let delta = doc_total.saturating_sub(self.doc_pruned_reported) as u64;
        if delta > 0 {
            self.counters
                .pruned_events
                .fetch_add(delta, Ordering::Relaxed);
            metrics
                .monitor_pruned_events
                .fetch_add(delta, Ordering::Relaxed);
            self.doc_pruned_reported = doc_total;
        }
    }

    /// Opens a fresh document: resets the per-document margin state
    /// (gauges, warning latch) and arms the one streaming parser both
    /// framings feed, so text and binary accept exactly the same documents
    /// and produce byte-identical verdicts. The parser is a spare when the
    /// shard has one, re-armed exactly as the new one is.
    fn begin_document(&mut self, spares: &mut DocSpares) -> RunningDoc {
        self.doc_pruned_reported = 0;
        self.warned = false;
        self.counters
            .margin_bp
            .store(MARGIN_NONE, Ordering::Relaxed);
        self.counters.warning.store(0, Ordering::Relaxed);
        let framing = if self.v2 { "binary" } else { "text" };
        let at = self.lines_in;
        if let Some(fx) = self.forensics.as_mut() {
            fx.note(at, format!("document start ({framing} framing)"));
        }
        let mut parser = spares.parsers.pop().unwrap_or_else(|| {
            TraceLineParser::new_streaming().with_max_processes(self.max_processes)
        });
        // Binary documents carry no `abc-trace` header line — the frame
        // tag already names the format — so the parser starts past it.
        parser.reset(!self.v2);
        RunningDoc {
            parser,
            checker: None,
            latched: None,
        }
    }

    /// Arms the open document's monitor: a spare re-armed in place when
    /// the shard has one, else a new one. Every served monitor drops its
    /// graph mirror (`enable_pruning`; nothing here reads it, and nothing
    /// is pruned unless a horizon is set), and one that prunes or warns
    /// keeps its margin from its first append — choices a spare already
    /// carries, the same for
    /// every session of one [`DocSpares`].
    fn arm_checker(
        &self,
        n: usize,
        spares: &mut DocSpares,
    ) -> Result<IncrementalChecker, abc_core::check::CheckError> {
        if let Some(mut mon) = spares.checkers.pop() {
            OBS_DOC_STATE_REUSED.add(1);
            mon.reset(n, &self.xi)?;
            return Ok(mon);
        }
        OBS_DOC_STATE_FRESH.add(1);
        let mut mon = IncrementalChecker::new(n, &self.xi)?;
        mon.enable_pruning();
        if self.prune_horizon.is_some() || self.warn_margin.is_some() {
            // A warning reads the kept margin after every append. A pruning
            // monitor would keep it from its first prune anyway; keeping it
            // from the first append spares that prune a search.
            mon.enable_margin_tracking();
        }
        Ok(mon)
    }

    /// Publishes one exactly computed margin: per-session gauge, the
    /// workspace-wide histogram and the forensics history. Gauges move
    /// only on exact computations — the cheap upper bound never reaches
    /// them.
    fn publish_margin(&mut self, ratio: &Ratio, metrics: &Metrics) {
        let bp = ratio_to_basis_points(ratio);
        self.counters.margin_bp.store(bp, Ordering::Relaxed);
        metrics.margin_hist.observe(bp);
        let at = self.lines_in;
        if let Some(fx) = self.forensics.as_mut() {
            fx.record_margin(at, ratio.to_string());
        }
    }

    /// Fires the open document's warning at the append whose kept margin
    /// reached the `--warn-margin` threshold, which is strictly before
    /// any latch: the state flips, the counter moves, and the crossing
    /// margin is published with the cycle that raised it noted in the
    /// forensics timeline as its witness.
    fn warn(&mut self, mon: &IncrementalChecker, metrics: &Metrics) {
        self.warned = true;
        self.counters.warning.store(1, Ordering::Relaxed);
        metrics.margin_warnings.fetch_add(1, Ordering::Relaxed);
        // A kept margin above 1 is read without a probe.
        let Ok(Some(report)) = mon.current_margin() else {
            return;
        };
        self.publish_margin(&report.ratio, metrics);
        let at = self.lines_in;
        if let Some(fx) = self.forensics.as_mut() {
            let witness = report
                .witness
                .map_or(String::new(), |w| format!(" {}", w.wire()));
            fx.note(at, format!("warning margin={}{witness}", report.ratio));
        }
    }

    /// Handles an on-demand margin request (the v1 `margin` line / the
    /// v2 margin record): replies `margin none` or
    /// `margin <P/Q> [<wire-witness>]` with the exact current margin,
    /// updating the margin gauge and histogram. Between documents and
    /// before the topology (no cycles yet) the reply is `margin none`;
    /// after a latch the margin is frozen at the latched witness's ratio.
    fn margin_request(&mut self, doc: Option<&RunningDoc>, metrics: &Metrics) {
        let live = doc.and_then(|d| d.checker.as_ref());
        let sample = match (live, doc.and_then(|d| d.latched.as_ref())) {
            (Some(mon), _) => match mon.current_margin() {
                Ok(report) => report.map(|r| (r.ratio, r.witness.map(|w| w.wire().to_string()))),
                Err(e) => {
                    self.protocol_error(&format!("margin: {e}"), metrics);
                    return;
                }
            },
            (None, Some(latch)) => latch
                .margin
                .clone()
                .map(|ratio| (ratio, Some(latch.wire.clone()))),
            (None, None) => None,
        };
        let Some((ratio, witness)) = sample else {
            let at = self.lines_in;
            if let Some(fx) = self.forensics.as_mut() {
                fx.record_margin(at, "none".to_string());
            }
            self.reply_fmt(format_args!("margin none\n"));
            return;
        };
        self.publish_margin(&ratio, metrics);
        match witness {
            Some(w) => self.reply_fmt(format_args!("margin {ratio} {w}\n")),
            None => self.reply_fmt(format_args!("margin {ratio}\n")),
        }
    }

    fn protocol_error(&mut self, message: &str, metrics: &Metrics) {
        self.flush_event_counters(metrics);
        let unit = if self.v2 { "record" } else { "line" };
        // Events ingested before the failure stay unacknowledged: the
        // session is terminal, so the client must not treat them as safely
        // checked.
        self.unacked = None;
        let n = self.lines_in;
        self.reply_fmt(format_args!("error {unit} {n}: {message}\n"));
        metrics.parse_errors.fetch_add(1, Ordering::Relaxed);
        self.poisoned = true;
    }

    /// A request the framing could not produce (oversized or non-UTF-8
    /// line, bad frame prefix, malformed record, partial frame at EOF): it
    /// is counted like the request it would have been, then refused.
    fn framing_error(&mut self, message: &str, metrics: &Metrics) {
        if !self.poisoned {
            self.lines_in += 1;
            self.protocol_error(message, metrics);
        }
    }

    /// The one request dispatcher: numbers the request, classifies it and
    /// applies it. Returns whether it was the `proto v2` upgrade request,
    /// which only the framing's owner can carry out.
    fn request(
        &mut self,
        doc: &mut Option<RunningDoc>,
        req: Request<'_>,
        metrics: &Metrics,
        spares: &mut DocSpares,
    ) -> bool {
        self.lines_in += 1;
        if let Some(fx) = self.forensics.as_mut() {
            match req {
                Request::Line(line) => fx.record_line(line),
                Request::Record(rec) => {
                    // Binary event records carry their seq implicitly; the
                    // parser will assign `events_seen()` to this one.
                    let seq = doc.as_ref().map_or(0, |d| d.parser.events_seen());
                    fx.record_binary(rec, seq);
                }
            }
        }
        let class = match req {
            Request::Line(line) => {
                let trimmed = line.trim();
                if trimmed == proto::MARGIN_REQUEST {
                    Class::Margin
                } else if doc.is_some() {
                    Class::Document
                } else if trimmed.is_empty() || trimmed.starts_with('#') {
                    Class::Blank
                } else if let Some(spec) = trimmed.strip_prefix("xi ") {
                    Class::Xi(spec)
                } else if trimmed == proto::PROTO_V2_REQUEST {
                    Class::ProtoV2
                } else if trimmed == proto::PROTO_V1_REQUEST {
                    Class::ProtoV1
                } else if let Some(version) = trimmed.strip_prefix("proto ") {
                    Class::ProtoUnknown(version)
                } else {
                    Class::Document
                }
            }
            Request::Record(WireRecord::Margin) => Class::Margin,
            Request::Record(WireRecord::Xi(spec)) => Class::Xi(spec),
            Request::Record(_) => Class::Document,
        };
        let mut upgrade = false;
        match class {
            Class::Margin => self.margin_request(doc.as_ref(), metrics),
            Class::Blank => {}
            // Only a record gets here mid-document: a text `xi` line
            // inside a document is the parser's to reject.
            Class::Xi(_) if doc.is_some() => {
                self.protocol_error("xi record inside a trace document", metrics);
            }
            Class::Xi(spec) => match spec.trim().parse::<Xi>() {
                Ok(xi) => self.xi = xi,
                Err(e) => self.protocol_error(&format!("xi: {e}"), metrics),
            },
            Class::ProtoV2 => upgrade = true,
            Class::ProtoV1 => self.reply_fmt(format_args!("{}\n", proto::PROTO_V1_OK)),
            Class::ProtoUnknown(version) => {
                self.protocol_error(&format!("unsupported protocol {version:?}"), metrics);
            }
            Class::Document => {
                let d = doc.get_or_insert_with(|| self.begin_document(spares));
                let parsed = match req {
                    Request::Line(line) => d.parser.feed_line(line),
                    Request::Record(rec) => match rec.to_trace_record() {
                        Some(trec) => d.parser.feed_record(trec),
                        None => Err(TraceTextError {
                            line: 0,
                            message: "internal: session-level record reached the document"
                                .to_string(),
                        }),
                    },
                };
                let open = match parsed {
                    Ok(parsed) => self.advance(d, parsed, metrics, spares),
                    Err(e) => {
                        self.protocol_error(&e.message, metrics);
                        false
                    }
                };
                if !open {
                    // A finished or failed document hands its state back
                    // whole.
                    if let Some(closed) = doc.take() {
                        spares.put(closed);
                    }
                }
            }
        }
        upgrade
    }

    /// The document state machine: applies one parsed line to the open
    /// document, queueing its replies. Returns whether the document is
    /// still open — `false` after its `end`, or after an error poisoned
    /// the session.
    fn advance(
        &mut self,
        d: &mut RunningDoc,
        parsed: ParsedLine,
        metrics: &Metrics,
        spares: &mut DocSpares,
    ) -> bool {
        let RunningDoc {
            parser,
            checker,
            latched,
        } = d;
        match parsed {
            ParsedLine::Meta | ParsedLine::Message { .. } => {}
            ParsedLine::Topology => {
                let Some((n, faulty)) = parser.topology() else {
                    // Defensive: Topology is only signalled once the
                    // faulty line has been accepted.
                    self.protocol_error("internal: topology unavailable", metrics);
                    return false;
                };
                match self.arm_checker(n, spares) {
                    Ok(mut mon) => {
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
                        return false;
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
                let (EventFeed::Init { seq, .. } | EventFeed::Receive { seq, .. }) = feed;
                if let Some(latch) = latched {
                    // v1 echoes the latched violation per event; v2 keeps
                    // acking silently (the violation already went out).
                    if self.v2 {
                        self.unacked = Some(seq);
                    } else {
                        self.reply_fmt(format_args!("violation {} {}\n", latch.seq, latch.wire));
                    }
                } else {
                    let Some(mon) = checker.as_mut() else {
                        // Defensive: the parser admits events only after
                        // the faulty line created the checker.
                        self.protocol_error("internal: event before topology", metrics);
                        return false;
                    };
                    match feed {
                        EventFeed::Init { process, .. } => {
                            mon.append_init(process);
                        }
                        EventFeed::Receive {
                            process,
                            send_event: Some(send),
                            ..
                        } => {
                            mon.append_send(EventId(send), process);
                        }
                        EventFeed::Receive {
                            send_event: None, ..
                        } => {
                            // Defensive: streaming mode resolves every
                            // send event before yielding the receive.
                            self.protocol_error(
                                "internal: unresolved send event in streaming mode",
                                metrics,
                            );
                            return false;
                        }
                    }
                    // The summary is latched alongside the cycle and
                    // byte-identical to summarizing against the graph —
                    // and it works in pruned mode, where there is no graph
                    // mirror to summarize against.
                    if let Some(summary) = mon.violation_summary() {
                        let wire = summary.wire().to_string();
                        // The margin freezes at the latched witness's
                        // ratio (a latched witness is a relevant cycle,
                        // so its ratio always exists).
                        let margin = summary.classification.ratio();
                        let stats = mon.stats();
                        // The verdict is latched; stop feeding the checker
                        // so a violating firehose doesn't keep growing its
                        // graph, and let the next document have it.
                        if let Some(done) = checker.take() {
                            spares.put_checker(done);
                        }
                        self.flush_event_counters(metrics);
                        metrics.violations.fetch_add(1, Ordering::Relaxed);
                        self.counters.violations.fetch_add(1, Ordering::Relaxed);
                        // Violation replies are immediate in both framings
                        // and precede the ack that covers `seq`.
                        self.reply_fmt(format_args!("violation {seq} {wire}\n"));
                        if self.v2 {
                            self.unacked = Some(seq);
                        }
                        self.note_pruned(stats.pruned_events, metrics);
                        self.counters.live_events.store(0, Ordering::Relaxed);
                        self.counters.live_arcs.store(0, Ordering::Relaxed);
                        // Forensics freezes its view of the returned
                        // checker: the latch, the counters at latch time,
                        // and a timeline entry.
                        let at = self.lines_in;
                        if let Some(fx) = self.forensics.as_mut() {
                            fx.latch = Some((seq as u64, wire.clone()));
                            fx.stats = stats;
                            fx.note(at, format!("latch seq={seq}"));
                        }
                        if let Some(r) = &margin {
                            self.publish_margin(r, metrics);
                        }
                        *latched = Some(Latch { seq, wire, margin });
                        // Automatic violation forensics: one bundle per
                        // latch, written the moment the verdict is known
                        // (rare path — file I/O here never rides an
                        // admissible stream).
                        self.dump_forensics(None, "latch", metrics);
                    } else {
                        if self.v2 {
                            self.unacked = Some(seq);
                        } else {
                            self.reply_fmt(format_args!("ok {seq}\n"));
                        }
                        if !self.warned
                            && self.warn_margin.is_some_and(|w| mon.kept_margin_reaches(w))
                        {
                            self.warn(mon, metrics);
                        }
                        if let Some((h, watermark)) = prune {
                            // A prune costs `O(live)` (a margin fold and a
                            // classification of the whole window), so it
                            // must free `Ω(live)`: a watermark trailing the
                            // frontier by more than `2·h` — one delivery
                            // that late, which the ABC model permits — would
                            // otherwise make every event a prune that frees
                            // one event.
                            let live = mon.live_events();
                            let frees = || watermark.saturating_sub(mon.stats().events - live);
                            if live > 2 * h.max(1) && frees() >= live / 4 {
                                mon.prune_settled(Some(EventId(watermark)));
                                let at = self.lines_in;
                                if let Some(fx) = self.forensics.as_mut() {
                                    fx.note(at, format!("prune watermark={watermark}"));
                                }
                            }
                        }
                    }
                }
                if let Some((_, watermark)) = prune {
                    // Window the parser's per-event sidecar on every event —
                    // including after a latch, when the checker is gone
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
                let events_seen = parser.events_seen();
                let violation = latched
                    .as_ref()
                    .map(|l| (l.seq, &l.wire as &dyn std::fmt::Display));
                let text = proto::verdict_text(violation, events_seen);
                self.reply_fmt(format_args!("end {text}\n"));
                let verdict = if violation.is_some() {
                    "violation"
                } else {
                    "admissible"
                };
                metrics.documents.fetch_add(1, Ordering::Relaxed);
                let at = self.lines_in;
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
                return false;
            }
        }
        true
    }

    /// Writes a forensics bundle (and, when the flight recorder is
    /// enabled, a timed span-trace sidecar) to the configured directory.
    /// `live` carries the open document's monitor counters, when it still
    /// has a checker. No-op unless the server was started with a forensics
    /// dir. Returns whether a bundle was written.
    fn dump_forensics(
        &mut self,
        live: Option<MonitorStats>,
        reason: &str,
        metrics: &Metrics,
    ) -> bool {
        let Some(fx) = self.forensics.as_mut() else {
            return false;
        };
        if let Some(stats) = live {
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
            tail: fx.tail.iter().map(TailEntry::render).collect(),
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
}

#[cfg(test)]
mod tests {
    //! Socket-free chaos suite. The session is driven with byte slices,
    //! so split points, half-close, slow readers and truncations are
    //! deterministic inputs instead of loopback races.

    use std::path::PathBuf;
    use std::sync::atomic::AtomicUsize;
    use std::sync::OnceLock;

    use abc_sim::binio::{xi_frame, FrameWriter};
    use abc_sim::delay::BandDelay;
    use abc_sim::{RunLimits, Simulation, Trace};
    use proptest::prelude::*;

    use super::*;

    const GREETING_LINE: &str = "abc-service v2 protocols=v1,v2\n";
    const HANDSHAKE: &[u8] = b"proto v2\n";
    const PIPELINED: &str =
        "error line 1: data pipelined behind `proto v2` (wait for `proto v2 ok`)\n";

    /// Everything a peer and an operator can observe of one session.
    #[derive(Debug, PartialEq, Eq)]
    struct Outcome {
        replies: String,
        totals: Totals,
        /// Every forensics bundle written — latch bundles, then one final
        /// `request` dump — in file order.
        bundles: Vec<String>,
    }

    /// The registry counters a session moves.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    struct Totals {
        events: u64,
        violations: u64,
        documents: u64,
        parse_errors: u64,
        acks: u64,
        margin_warnings: u64,
    }

    /// The totals of a session that was refused with one error before any
    /// event.
    const REFUSED: Totals = Totals {
        events: 0,
        violations: 0,
        documents: 0,
        parse_errors: 1,
        acks: 0,
        margin_warnings: 0,
    };

    /// A session with the peer's side of the wire: what was read so far.
    struct Peer {
        session: Session,
        metrics: Metrics,
        /// The driving shard's spares: empty unless earlier sessions left
        /// theirs ([`Peer::after`]).
        spares: DocSpares,
        dir: Option<PathBuf>,
        replies: Vec<u8>,
    }

    /// Tight caps (so the corpus can cross them), a warn threshold below
    /// the monitored `Ξ = 2`, and — with `forensics` — a private bundle
    /// directory.
    fn config(prune_horizon: Option<usize>, forensics: bool) -> ServerConfig {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "abc-session-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        ServerConfig {
            max_line_len: 200,
            max_frame_len: 4096,
            prune_horizon,
            warn_margin: Some(Ratio::new(3, 2)),
            forensics_dir: forensics.then_some(dir),
            forensics_tail: 32,
            ..ServerConfig::default()
        }
    }

    impl Peer {
        fn new(config: &ServerConfig) -> Peer {
            Peer::after(config, DocSpares::new())
        }

        /// A session on a shard whose earlier sessions left `spares`.
        fn after(config: &ServerConfig, spares: DocSpares) -> Peer {
            Peer {
                session: Session::new(7, config, SessionCounters::new()),
                metrics: Metrics::new(),
                spares,
                dir: config.forensics_dir.clone(),
                replies: Vec::new(),
            }
        }

        /// Offers `chunk` the way the connection driver does: only to a
        /// session that wants bytes. Returns whether it was taken.
        fn feed(&mut self, chunk: &[u8]) -> bool {
            let wanted = self.session.wants_bytes();
            if wanted {
                self.session.feed(chunk, &self.metrics, &mut self.spares);
            }
            wanted
        }

        fn eof(&mut self) {
            if self.session.wants_bytes() {
                self.session.feed_eof(&self.metrics, &mut self.spares);
            }
        }

        /// Reads up to `budget` pending reply bytes, a few slices at a
        /// time and not on chunk boundaries.
        fn take(&mut self, mut budget: usize) {
            while budget > 0 && self.session.pending() > 0 {
                let mut slices = [IoSlice::new(&[]); 3];
                let k = self.session.reply_slices(&mut slices);
                assert!(k > 0, "pending bytes but no slice");
                let mut n = 0;
                for s in &slices[..k] {
                    let take = s.len().min(budget - n);
                    self.replies.extend_from_slice(&s[..take]);
                    n += take;
                }
                self.session.consume(n);
                budget -= n;
            }
        }

        fn take_all(&mut self) {
            self.take(usize::MAX);
            assert_eq!(self.session.pending(), 0);
        }

        fn total(&self, counter: &AtomicU64) -> u64 {
            counter.load(Ordering::Relaxed)
        }

        /// Half-closes, reads the rest and collects the outcome.
        fn finish(self) -> Outcome {
            self.retire().0
        }

        /// [`Peer::finish`], and what the retired connection leaves its
        /// shard.
        fn retire(mut self) -> (Outcome, DocSpares) {
            self.eof();
            self.take_all();
            assert!(self.session.finished(), "EOF or an error ends a session");
            self.session.dump_forensics("request", &self.metrics);
            self.session.close(&mut self.spares);
            assert!(self.session.doc.is_none());
            let mut bundles = Vec::new();
            if let Some(dir) = &self.dir {
                let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
                    .expect("the request dump created the directory")
                    .map(|entry| entry.unwrap().path())
                    .collect();
                paths.sort();
                for path in paths {
                    bundles.push(std::fs::read_to_string(path).unwrap());
                }
                std::fs::remove_dir_all(dir).unwrap();
            }
            let m = &self.metrics;
            let outcome = Outcome {
                replies: String::from_utf8(std::mem::take(&mut self.replies))
                    .expect("replies are text"),
                totals: Totals {
                    events: self.total(&m.events),
                    violations: self.total(&m.violations),
                    documents: self.total(&m.documents),
                    parse_errors: self.total(&m.parse_errors),
                    acks: self.total(&m.acks),
                    margin_warnings: self.total(&m.margin_warnings),
                },
                bundles,
            };
            (outcome, self.spares)
        }
    }

    /// A fast reader: every chunk is fed and its replies read at once.
    fn run(config: &ServerConfig, chunks: &[&[u8]]) -> Outcome {
        run_after(config, DocSpares::new(), chunks).0
    }

    /// [`run`] on a shard whose earlier sessions left `spares`; returns
    /// what this one leaves.
    fn run_after(
        config: &ServerConfig,
        spares: DocSpares,
        chunks: &[&[u8]],
    ) -> (Outcome, DocSpares) {
        let mut peer = Peer::after(config, spares);
        for chunk in chunks {
            if !peer.feed(chunk) {
                break;
            }
            peer.take_all();
        }
        peer.retire()
    }

    /// One session's request bytes. A v2 stream keeps the one boundary
    /// the protocol itself demands: `body` is sent after the reply to the
    /// `proto v2` line.
    #[derive(Clone)]
    struct Input {
        v2: bool,
        body: Vec<u8>,
    }

    impl Input {
        fn text(body: impl Into<Vec<u8>>) -> Input {
            Input {
                v2: false,
                body: body.into(),
            }
        }

        fn parts(&self) -> Vec<&[u8]> {
            if self.v2 {
                vec![HANDSHAKE, &self.body]
            } else {
                vec![&self.body]
            }
        }

        /// Every part cut at `cuts` (each reduced modulo the part's
        /// length), or into single bytes.
        fn chunks(&self, cuts: &[usize], single_bytes: bool) -> Vec<&[u8]> {
            let mut chunks = Vec::new();
            for part in self.parts() {
                let mut at: Vec<usize> = if single_bytes {
                    (0..part.len()).collect()
                } else {
                    cuts.iter().map(|c| c % (part.len() + 1)).collect()
                };
                at.extend([0, part.len()]);
                at.sort_unstable();
                at.dedup();
                chunks.extend(at.windows(2).map(|w| &part[w[0]..w[1]]));
            }
            chunks
        }
    }

    /// The committed sample: violates `Ξ = 2` at event 21.
    fn sample_trace() -> Trace {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../harness/tests/data/sample_clocksync.trace"
        );
        Trace::from_reader(std::fs::File::open(path).unwrap(), 1 << 16).unwrap()
    }

    fn clocksync_trace(lo: u64, hi: u64, seed: u64, events: usize) -> Trace {
        let mut sim = Simulation::new(BandDelay::new(lo, hi, seed));
        for _ in 0..4 {
            sim.add_process(abc_clocksync::TickGen::new(4, 1));
        }
        sim.run(RunLimits {
            max_events: events,
            max_time: u64::MAX,
        });
        sim.trace().clone()
    }

    /// A token ring over three processes: every message is received by
    /// the very next event, so a prune horizon of 8 never outruns a send
    /// and pruning runs for real. With `race` the document ends in a
    /// two-hop relay overtaking a direct message — a relevant cycle of
    /// ratio 2/1, latching at the last event.
    fn ring_trace(hops: usize, race: bool) -> Trace {
        let mut lines = Vec::new();
        let (mut holder, mut at, mut time) = (0, 0, 0);
        let hop = |from: usize, to: usize, sent: (usize, u64), now: u64, lines: &mut Vec<_>| {
            let (m, e) = (lines.len() / 2, lines.len() / 2 + 3);
            lines.push(format!("m {from} {to} {} {e} {} {now}", sent.0, sent.1));
            lines.push(format!("e {e} {to} {now} {m} 0 - 0"));
            e
        };
        for _ in 0..hops {
            let next = (holder + 1) % 3;
            at = hop(holder, next, (at, time), time + 1, &mut lines);
            (holder, time) = (next, time + 1);
        }
        if race {
            let (relay, target) = ((holder + 1) % 3, (holder + 2) % 3);
            let relayed = hop(holder, relay, (at, time), time + 1, &mut lines);
            hop(relay, target, (relayed, time + 1), time + 2, &mut lines);
            hop(holder, target, (at, time), time + 3, &mut lines);
        }
        let text = format!(
            "abc-trace v1\nprocesses 3\nfaulty\nevents {}\nmessages {}\n\
             e 0 0 0 - 0 - 1\ne 1 1 0 - 0 - 1\ne 2 2 0 - 0 - 1\n{}\nend\n",
            lines.len() / 2 + 3,
            lines.len() / 2,
            lines.join("\n")
        );
        Trace::from_text(&text).expect("a well-formed ring")
    }

    /// A conveyor over three processes as a stream document: every message
    /// is declared when it is sent and delivered `delay` events later (the
    /// inits send the first `delay`), so the oldest pending send — and with
    /// it the honest watermark — trails the frontier by `delay` events from
    /// the first event to the last.
    fn conveyor_doc(events: usize, delay: usize) -> String {
        assert!(delay % 3 == 1, "a message goes to the next process");
        let mut doc = format!(
            "abc-trace v1\nprocesses 3\nfaulty\nevents {}\nmessages {}\n",
            events + 3,
            events + delay
        );
        // Event `r` happens at time `r`, on process `r % 3`; the message
        // it receives is number `r - 3`. The last `delay` stay in flight.
        let send = |doc: &mut String, from: usize, r: usize| {
            let (p, to) = (from % 3, r % 3);
            match r < events + 3 {
                true => doc.push_str(&format!("m {p} {to} {from} {r} {from} {r}\n")),
                false => doc.push_str(&format!("m {p} {to} {from} - {from} -\n")),
            }
        };
        for init in 0..3 {
            doc.push_str(&format!("e {init} {init} {init} - 0 - 1\n"));
        }
        for r in 3..3 + delay {
            send(&mut doc, (r + 2) % 3, r);
        }
        for r in 3..3 + events {
            doc.push_str(&format!("e {r} {} {r} {} 0 - 0\n", r % 3, r - 3));
            send(&mut doc, r, r + delay);
        }
        doc.push_str("end\n");
        doc
    }

    /// A delivery more than `2·h` events late makes the watermark trail
    /// the frontier; pruning whenever `2·h` events are live then prunes at
    /// every event, a whole-window fold and classification to free one
    /// event. A session prunes only what frees a quarter of the window:
    /// same replies as the unbounded session, a bounded number of prunes.
    #[test]
    fn a_trailing_watermark_does_not_make_every_event_a_prune() {
        const H: usize = 8;
        let events = 240;
        let body = format!("xi 100\n{}", conveyor_doc(events, 3 * H + 1));
        let quiet = |horizon| ServerConfig {
            warn_margin: None,
            ..config(horizon, true)
        };
        let unbounded = run(&quiet(None), &[body.as_bytes()]);
        let bounded = run(&quiet(Some(H)), &[body.as_bytes()]);
        assert!(
            unbounded
                .replies
                .ends_with(&format!("end admissible events={}\n", events + 3)),
            "{}",
            unbounded.replies
        );
        assert_eq!(bounded.replies, unbounded.replies);
        assert_eq!(bounded.totals, unbounded.totals);
        let [bundle] = &bounded.bundles[..] else {
            panic!("one request dump, got {}", bounded.bundles.len());
        };
        let prunes = bundle.matches("prune watermark=").count();
        assert!(
            (10..=events / (H / 4)).contains(&prunes),
            "{prunes} prunes over {events} events:\n{bundle}"
        );
    }

    /// The document's stream text with a `margin` request after every
    /// `every`-th event line and `eol` line ends.
    fn text_doc(trace: &Trace, every: usize, eol: &str) -> String {
        let mut doc = String::new();
        let mut events = 0;
        for line in trace.to_stream_text().lines() {
            doc.push_str(line);
            doc.push_str(eol);
            if line.starts_with("e ") {
                events += 1;
                if events % every == 0 {
                    doc.push_str("margin");
                    doc.push_str(eol);
                }
            }
        }
        doc
    }

    /// The document as frames of about `target` bytes, with a margin
    /// record after every `every`-th event record.
    fn binary_doc(trace: &Trace, every: usize, target: usize) -> Vec<u8> {
        let mut w = FrameWriter::with_target(target);
        let mut events = 0;
        for rec in trace.to_stream_records() {
            w.push_record(&rec);
            if matches!(rec, WireRecord::Event(_)) {
                events += 1;
                if events % every == 0 {
                    w.push_record(&WireRecord::Margin);
                }
            }
        }
        w.finish()
    }

    /// Well-formed and hostile sessions in both framings. The first four
    /// are well-formed: three clocksync documents as text and as frames
    /// (their messages outlive a prune horizon of 8, which then refuses
    /// them), and two ring documents likewise, which any horizon admits.
    fn corpus() -> &'static [Input] {
        static CORPUS: OnceLock<Vec<Input>> = OnceLock::new();
        CORPUS.get_or_init(|| {
            let violating = sample_trace();
            let admissible = clocksync_trace(4, 5, 11, 90);
            let wide = clocksync_trace(2, 5, 5, 160);
            let (ring, race) = (ring_trace(70, false), ring_trace(50, true));
            let v2 = |body: Vec<u8>| Input { v2: true, body };
            let small = text_doc(&ring_trace(9, false), 4, "\n");
            vec![
                Input::text(format!(
                    "xi 2\n{}margin\n\n# between documents\n{}proto v1\n{}",
                    text_doc(&violating, 3, "\n"),
                    text_doc(&admissible, 7, "\n"),
                    text_doc(&wide, 5, "\n"),
                )),
                v2([
                    xi_frame("2"),
                    binary_doc(&violating, 3, 48),
                    binary_doc(&admissible, 7, 1 << 15),
                    binary_doc(&wide, 5, 300),
                ]
                .concat()),
                Input::text(format!(
                    "{}xi 2\n{}",
                    text_doc(&ring, 6, "\n"),
                    text_doc(&race, 5, "\n")
                )),
                v2([
                    binary_doc(&ring, 6, 1 << 15),
                    xi_frame("2"),
                    binary_doc(&race, 5, 40),
                ]
                .concat()),
                // CRLF line ends and multi-byte comments, between
                // documents and inside one.
                Input::text(format!(
                    "# Ξ ≥ 2 — détente\r\nxi 2\r\n{}",
                    text_doc(&violating, 2, "\r\n").replacen(
                        "faulty\r\n",
                        "faulty\r\n# ✓ µs\r\n",
                        1
                    ),
                )),
                // An unterminated final line.
                Input::text(small.trim_end()),
                // A malformed line mid-document, with more behind it.
                Input::text(small.replacen("e 5 ", "e five ", 1)),
                Input::text(&b"xi 2\n\xff\xfe\nabc-trace v1\n"[..]),
                Input::text(format!("{small}# {}\n{small}", "x".repeat(300))),
                Input::text("proto v1\nxi 3/2\nproto v9\nxi 2\n"),
                Input::text(format!("xi 2\n{}xi 3\n", small.replacen("end\n", "", 1))),
                // Frames the decoder or the session must refuse.
                v2([binary_doc(&admissible, 9, 64), vec![2, 0x7f, 0]].concat()),
                v2({
                    let mut w = FrameWriter::with_target(16);
                    for rec in race.to_stream_records().iter().take(9) {
                        w.push_record(rec);
                    }
                    w.push_record(&WireRecord::Xi("3".to_string()));
                    w.finish()
                }),
                v2([xi_frame("2"), vec![0xa8, 0x46, 1, 2, 3]].concat()),
                v2([xi_frame("not a ratio"), binary_doc(&ring, 9, 64)].concat()),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// (a) However a session's bytes are cut into reads, the peer sees
        /// the same reply bytes, the operator the same totals and the same
        /// forensics bundles as with one whole-buffer read.
        #[test]
        fn any_partition_of_the_input_yields_the_same_session(
            which in 0..corpus().len(),
            pruned in any::<bool>(),
            single_bytes in 0u8..6,
            cuts in proptest::collection::vec(0usize..1 << 20, 0..24),
        ) {
            let input = &corpus()[which];
            let horizon = pruned.then_some(8);
            let whole = run(&config(horizon, true), &input.parts());
            let cut = run(&config(horizon, true), &input.chunks(&cuts, single_bytes == 0));
            prop_assert_eq!(whole, cut);
        }
    }

    /// (a), exhaustively for the boundaries a random partition rarely
    /// hits: a cut at every offset of a CRLF/UTF-8 session and of a v2
    /// session whose frames carry one- and two-byte length prefixes.
    #[test]
    fn a_cut_at_every_offset_yields_the_same_session() {
        let trace = ring_trace(14, true);
        let text = Input::text(format!(
            "# Ξ ≥ 2 — détente\r\nxi 2\r\n{}",
            text_doc(&trace, 4, "\r\n")
        ));
        let binary = Input {
            v2: true,
            body: [binary_doc(&trace, 4, 24), binary_doc(&trace, 4, 200)].concat(),
        };
        assert!(binary.body.iter().any(|b| *b >= 0x80), "a two-byte prefix");
        for input in [&text, &binary] {
            for horizon in [None, Some(8)] {
                let whole = run(&config(horizon, true), &input.parts());
                let Totals {
                    violations,
                    documents,
                    ..
                } = whole.totals;
                assert_eq!(violations, documents, "{}", whole.replies);
                for cut in 0..=input.body.len() {
                    let chunks = input.chunks(&[cut], false);
                    assert_eq!(run(&config(horizon, true), &chunks), whole, "cut at {cut}");
                }
            }
        }
    }

    /// The corpus exercises what it claims to: both verdicts, every reply
    /// kind, a fired warning, latch bundles and — on the ring documents —
    /// real pruning that changes nothing the peer is told.
    #[test]
    fn the_corpus_reaches_both_verdicts_warnings_and_pruning() {
        for (i, input) in corpus()[..4].iter().enumerate() {
            let plain = run(&config(None, true), &input.parts());
            assert_eq!(plain.totals.parse_errors, 0, "{}", plain.replies);
            assert_eq!(plain.bundles.len(), 2, "a latch and a request bundle");
            let ack = if input.v2 { "\nack " } else { "\nok " };
            for needle in [ack, "\nviolation ", "\nend violation", "\nend admissible"] {
                assert!(
                    plain.replies.contains(needle),
                    "{needle:?}: {}",
                    plain.replies
                );
            }
            let mut peer = Peer::new(&config(Some(8), false));
            for part in input.parts() {
                assert!(peer.feed(part));
            }
            let compacted = peer.total(&peer.session.tx.counters.pruned_events);
            let pruned = peer.finish();
            if i < 2 {
                let Totals {
                    violations,
                    documents,
                    margin_warnings,
                    ..
                } = plain.totals;
                assert_eq!([violations, documents, margin_warnings], [1, 3, 2]);
                for needle in ["\nmargin none\n", "\nmargin 3/2 zm="] {
                    assert!(plain.replies.contains(needle), "{needle:?}");
                }
                let Totals {
                    documents,
                    parse_errors,
                    ..
                } = pruned.totals;
                assert_eq!([documents, parse_errors], [0, 1], "{}", pruned.replies);
            } else {
                let Totals {
                    violations,
                    documents,
                    ..
                } = plain.totals;
                assert_eq!([violations, documents], [1, 2], "{}", plain.replies);
                assert!(compacted >= 40, "{compacted}");
                assert_eq!(pruned.replies, plain.replies);
                assert_eq!(pruned.totals, plain.totals);
            }
        }
    }

    /// A warning belongs to its document: three copies of the committed
    /// sample on one connection, monitored at `Ξ = 4`, cross `W = 2` three
    /// times and warn three times, bounded or not.
    #[test]
    fn every_document_of_a_connection_warns_for_itself() {
        let body = format!(
            "xi 4\n{}",
            text_doc(&sample_trace(), usize::MAX, "\n").repeat(3)
        );
        for horizon in [None, Some(32)] {
            let config = ServerConfig {
                warn_margin: Some(Ratio::from_integer(2)),
                ..config(horizon, false)
            };
            let Totals {
                documents,
                violations,
                margin_warnings,
                ..
            } = run(&config, &[body.as_bytes()]).totals;
            assert_eq!([documents, violations, margin_warnings], [3, 0, 3]);
        }
    }

    /// A warning fires at the event whose append reaches the threshold,
    /// whatever the request count: here the committed sample, monitored at
    /// `Ξ = 3`, crosses `W = 2` one request after a look on the doubling
    /// schedule `T, 2T, 4T, …` (`T` the topology line's request) and
    /// latches before the next look — comment lines pad it so. Exactly one
    /// warning, and its margin sample carries the crossing event's request.
    #[test]
    fn a_margin_that_crosses_between_two_doubling_looks_warns_at_its_event() {
        let sample = sample_trace();
        // Where the margin first reaches 2, and where the document
        // latches, from a session that asks after every event.
        let quiet = ServerConfig {
            warn_margin: None,
            ..config(None, false)
        };
        let asked = format!("xi 3\n{}", text_doc(&sample, 1, "\n"));
        let (mut seq, mut crossing, mut latch) = (0, None, None);
        let reaches = |r: &str| {
            r.parse::<Ratio>()
                .is_ok_and(|r| r >= Ratio::from_integer(2))
        };
        for line in run(&quiet, &[asked.as_bytes()]).replies.lines() {
            match line.split(' ').take(2).collect::<Vec<_>>()[..] {
                ["ok", k] => seq = k.parse().unwrap(),
                ["violation", k] => latch = latch.or(Some(k.parse::<usize>().unwrap())),
                ["margin", r] if latch.is_none() && crossing.is_none() && reaches(r) => {
                    crossing = Some((seq, r.to_string()));
                }
                _ => {}
            }
        }
        let ((crossed, ratio), latched) = (crossing.expect("a crossing"), latch.expect("a latch"));

        // Request numbers: `xi 3` is request 1, document line `i` is `i + 2`.
        let text = text_doc(&sample, usize::MAX, "\n");
        let lines: Vec<&str> = text.lines().collect();
        let at = |prefix: &str| 2 + lines.iter().position(|l| l.starts_with(prefix)).unwrap();
        let topology = at("faulty");
        let (c, l) = (at(&format!("e {crossed} ")), at(&format!("e {latched} ")));
        let look = (0..)
            .map(|k| topology << k)
            .find(|&look| look + 1 >= c && l - c + 1 < look)
            .unwrap();
        let pad = look + 1 - c;
        let mut body = String::from("xi 3\n");
        for (i, line) in lines.iter().enumerate() {
            body.push_str(line);
            body.push('\n');
            if i + 2 == topology {
                body.push_str(&"# padding\n".repeat(pad));
            }
        }
        for horizon in [None, Some(32)] {
            let config = ServerConfig {
                warn_margin: Some(Ratio::from_integer(2)),
                ..config(horizon, true)
            };
            let out = run(&config, &[body.as_bytes()]);
            let Totals {
                violations,
                margin_warnings,
                ..
            } = out.totals;
            assert_eq!([violations, margin_warnings], [1, 1], "{horizon:?}");
            let bundle = ForensicsBundle::parse(&out.bundles[0]).unwrap();
            assert_eq!(bundle.latch.map(|(seq, _)| seq), Some(latched as u64));
            // The crossing, then the latch's freeze.
            let crossing = (look as u64 + 1, ratio.clone());
            assert_eq!(bundle.margins.len(), 2, "{:?}", bundle.margins);
            assert_eq!(bundle.margins[0], crossing);
            let warning = format!("warning margin={ratio} zm=");
            assert!(
                bundle
                    .timeline
                    .iter()
                    .any(|(at, e)| *at == crossing.0 && e.starts_with(&warning)),
                "{:?}",
                bundle.timeline
            );
        }
    }

    /// The sample over v1 and over v2, forensics on: past what only one
    /// framing has, the latch's bundle and the closing dump are the same.
    /// Every binary record in the tail renders as the line the text
    /// session kept verbatim, and the timeline and margins name the same
    /// requests once the text header, a request of v1 alone, is counted
    /// out.
    #[test]
    fn both_framings_leave_the_same_forensics() {
        let sample = sample_trace();
        let config = ServerConfig {
            forensics_tail: 1024,
            ..config(None, true)
        };
        let text = format!("xi 2\n{}", text_doc(&sample, 5, "\n"));
        let frames = [xi_frame("2"), binary_doc(&sample, 5, 48)].concat();
        let bundles = |chunks: &[&[u8]], framing: [&str; 2], header: u64| {
            let out = run(&config, chunks);
            let parse = |b: &String| {
                let mut bundle = ForensicsBundle::parse(b).unwrap();
                assert_eq!(bundle.tail.drain(..2).collect::<Vec<_>>(), framing);
                let (at, start) = bundle.timeline.remove(0);
                assert_eq!(at, 2);
                assert!(start.starts_with("document start"), "{start}");
                for (at, _) in bundle.timeline.iter_mut().chain(&mut bundle.margins) {
                    *at -= header;
                }
                bundle
            };
            out.bundles.iter().map(parse).collect::<Vec<_>>()
        };
        let v1 = bundles(&[text.as_bytes()], ["xi 2", "abc-trace v1"], 1);
        let v2 = bundles(&[HANDSHAKE, &frames], ["proto v2", "xi 2"], 0);
        assert_eq!(v1.len(), 2, "the latch's bundle and the closing dump");
        assert!(v1[1].tail.iter().any(|l| l.starts_with("m ")));
        assert!(v1[1].tail.iter().any(|l| l == "margin"));
        assert_eq!(v1, v2);
    }

    /// (b) A violating document cut at every byte offset, then EOF: no
    /// panic, no ack for an event that was not ingested, and exactly one
    /// ending — a verdict, an error, or a silent close.
    #[test]
    fn truncation_at_every_offset_ends_in_one_verdict_error_or_silence() {
        let trace = ring_trace(30, true);
        let inputs = [
            Input::text(format!("xi 2\n{}", text_doc(&trace, 10, "\n"))),
            Input {
                v2: true,
                body: [xi_frame("2"), binary_doc(&trace, 10, 96)].concat(),
            },
        ];
        for input in &inputs {
            let mut endings = [0usize; 3];
            for horizon in [None, Some(8)] {
                for cut in 0..=input.body.len() {
                    let mut parts = input.parts();
                    let body = parts.pop().unwrap();
                    parts.push(&body[..cut]);
                    let out = run(&config(horizon, false), &parts);
                    let Totals {
                        events,
                        documents,
                        parse_errors,
                        ..
                    } = out.totals;
                    let acked = out
                        .replies
                        .lines()
                        .filter_map(|l| {
                            let mut words = l.split(' ');
                            matches!(words.next(), Some("ok" | "ack" | "violation"))
                                .then(|| words.next().unwrap().parse::<u64>().unwrap() + 1)
                        })
                        .max()
                        .unwrap_or(0);
                    assert!(acked <= events, "cut {cut}: acked {acked} of {events}");
                    // At most one verdict or error, counted as such, and
                    // nothing is said after it.
                    let ends = out.replies.matches("\nend ").count();
                    let errors = out.replies.matches("\nerror ").count();
                    assert!(ends + errors <= 1, "cut {cut}: {}", out.replies);
                    assert_eq!([documents, parse_errors], [ends as u64, errors as u64]);
                    let last = out.replies.lines().last().unwrap();
                    assert_eq!(last.starts_with("end "), ends == 1, "cut {cut}: {last}");
                    assert_eq!(last.starts_with("error "), errors == 1, "cut {cut}: {last}");
                    endings[0] += ends;
                    endings[1] += errors;
                    endings[2] += 1 - ends - errors;
                }
            }
            // Only the whole document reaches its verdict (text with or
            // without its last newline); text cut on a line boundary ends
            // silently, a frame stream only when cut on a frame boundary.
            assert_eq!(endings[0], if input.v2 { 2 } else { 4 }, "{endings:?}");
            assert!(endings[1] > 0 && endings[2] > 0, "{endings:?}");
        }
    }

    /// (c) A peer that stops reading: the session stops asking for bytes
    /// once `OUT_SOFT_CAP` is pending, holds at most one more read's
    /// replies, and resumes with the identical stream when drained.
    #[test]
    fn a_reader_that_never_drains_throttles_itself_and_loses_nothing() {
        const READ: usize = 8 * 1024;
        let mut body = "margin\n".repeat(200_000);
        body.push_str(&text_doc(&sample_trace(), 3, "\n"));
        let config = config(None, false);
        let reference = run(&config, &[body.as_bytes()]);
        assert!(reference.replies.len() > 2 * OUT_SOFT_CAP);

        let mut peer = Peer::new(&config);
        let mut reads = body.as_bytes().chunks(READ);
        let mut fed = 0;
        while peer.feed(reads.next().expect("the cap stops the session first")) {
            fed += 1;
        }
        // `fed` reads were taken, the next one refused and lost to the
        // iterator: offer it again below.
        assert!(!peer.session.wants_bytes() && !peer.session.finished());
        let stalled = peer.session.pending();
        assert!(
            (OUT_SOFT_CAP..OUT_SOFT_CAP + 2 * READ).contains(&stalled),
            "{stalled}"
        );
        // Draining below the cap — not to empty — reopens the session.
        peer.take(stalled - OUT_SOFT_CAP + 1);
        assert!(peer.session.wants_bytes());
        for read in body.as_bytes().chunks(READ).skip(fed) {
            while !peer.feed(read) {
                peer.take(100_000);
            }
            assert!(peer.session.pending() < OUT_SOFT_CAP + 2 * READ);
        }
        assert_eq!(peer.finish(), reference);
    }

    /// (d) Half-close right after an unterminated `end` still yields the
    /// verdict; EOF inside a frame is a protocol error.
    #[test]
    fn half_close_completes_a_text_line_and_refuses_a_partial_frame() {
        let trace = sample_trace();
        let text = text_doc(&trace, 1000, "\n");
        let out = run(&config(None, false), &[text.trim_end().as_bytes()]);
        let last = out.replies.lines().last().unwrap();
        assert!(last.starts_with("end violation at_event=21 "), "{last}");
        assert_eq!([out.totals.documents, out.totals.parse_errors], [1, 0]);

        let frames = binary_doc(&trace, 1000, 1 << 15);
        let out = run(
            &config(None, false),
            &[HANDSHAKE, &frames[..frames.len() - 3]],
        );
        assert_eq!(
            out.replies,
            format!(
                "{GREETING_LINE}proto v2 ok\nerror record 1: connection ended mid-frame ({} bytes buffered)\n",
                frames.len() - 3
            )
        );
        assert_eq!(out.totals, REFUSED);
    }

    /// (e) Bytes that arrive in the same read as the end of the
    /// `proto v2` line are refused, however the line itself was split;
    /// the same bytes one read later are the first frame.
    #[test]
    fn bytes_pipelined_behind_the_handshake_are_refused_however_it_was_split() {
        let frames = binary_doc(&clocksync_trace(4, 5, 3, 12), 4, 64);
        for split in 0..HANDSHAKE.len() {
            let (head, tail) = HANDSHAKE.split_at(split);
            for extra in [&frames[..1], &frames[..], b"\n", b"xi 2"] {
                let out = run(&config(None, false), &[head, &[tail, extra].concat()]);
                assert_eq!(
                    out.replies,
                    format!("{GREETING_LINE}{PIPELINED}"),
                    "{split}"
                );
                assert_eq!(out.totals, REFUSED);
            }
            let out = run(&config(None, false), &[head, tail, &frames]);
            assert!(
                out.replies.ends_with("\nend admissible events=12\n"),
                "{}",
                out.replies
            );
            assert_eq!(out.totals.parse_errors, 0);
        }
    }

    /// The three monitor configurations a shard can run under; a
    /// [`DocSpares`] belongs to one of them.
    fn shard_config(mode: usize, forensics: bool) -> ServerConfig {
        match mode {
            0 => config(None, forensics),
            1 => config(Some(8), forensics),
            // `serve_v2`'s: no horizon and no warning, the one served
            // monitor that does not keep its margin — `margin` requests
            // search for it.
            _ => ServerConfig {
                warn_margin: None,
                ..config(None, forensics)
            },
        }
    }

    /// The corpus plus two sessions without a `margin` request: a latching
    /// ring, then an admissible one, as text and as frames.
    fn reuse_pool() -> &'static [Input] {
        static POOL: OnceLock<Vec<Input>> = OnceLock::new();
        POOL.get_or_init(|| {
            let (ring, race) = (ring_trace(40, false), ring_trace(60, true));
            let mut pool = vec![
                Input::text(format!(
                    "{}{}",
                    text_doc(&race, usize::MAX, "\n"),
                    text_doc(&ring, usize::MAX, "\n")
                )),
                Input {
                    v2: true,
                    body: [
                        binary_doc(&race, usize::MAX, 64),
                        binary_doc(&ring, usize::MAX, 1 << 15),
                    ]
                    .concat(),
                },
            ];
            pool.extend_from_slice(corpus());
            pool
        })
    }

    /// `input` with its body cut to `keep`/256 of its length (256: whole).
    fn cut_parts(input: &Input, keep: usize) -> Vec<&[u8]> {
        let mut parts = input.parts();
        let body = parts.pop().expect("every input has a body");
        parts.push(&body[..body.len() * keep / 256]);
        parts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// (f) Whatever sessions a shard served before — whole ones, ones
        /// cut short mid-document, poisoned ones, in either framing, with
        /// other process counts and other `Ξ` — a session served from the
        /// state they left behind is the session served from nothing:
        /// same replies, same totals, same forensics bundles.
        #[test]
        fn sessions_served_from_shared_spares_match_sessions_served_from_nothing(
            mode in 0usize..3,
            sessions in proptest::collection::vec(
                (0..reuse_pool().len(), 0usize..512),
                2..9,
            ),
        ) {
            let mut spares = DocSpares::new();
            for (at, (which, keep)) in sessions.iter().enumerate() {
                // Every other session arrives whole.
                let parts = cut_parts(&reuse_pool()[*which], (*keep).min(256));
                let alone = run(&shard_config(mode, true), &parts);
                let (shared, left) = run_after(&shard_config(mode, true), spares, &parts);
                prop_assert_eq!(shared, alone, "session {} of {:?}", at, sessions);
                prop_assert!(left.parsers.len() <= DOC_SPARES);
                prop_assert!(left.checkers.len() <= DOC_SPARES);
                spares = left;
            }
        }
    }

    /// (f), for every ordered pair of the pool, under each configuration:
    /// the second session cannot tell what the first one was.
    #[test]
    fn every_session_after_every_other_matches_the_session_alone() {
        for mode in 0..3 {
            let alone: Vec<Outcome> = reuse_pool()
                .iter()
                .map(|input| run(&shard_config(mode, true), &input.parts()))
                .collect();
            for outcome in &alone[..2] {
                let Totals {
                    violations,
                    documents,
                    parse_errors,
                    ..
                } = outcome.totals;
                assert_eq!([violations, documents, parse_errors], [1, 2, 0]);
                // Only the bounded shard prunes.
                let pruned = outcome.bundles[0].contains("prune watermark=");
                assert_eq!(pruned, mode == 1, "mode {mode}");
            }
            for first in reuse_pool() {
                for (second, expected) in reuse_pool().iter().zip(&alone) {
                    let quiet = shard_config(mode, false);
                    let (_, left) = run_after(&quiet, DocSpares::new(), &first.parts());
                    let loud = shard_config(mode, true);
                    let (shared, _) = run_after(&loud, left, &second.parts());
                    assert_eq!(&shared, expected, "mode {mode}");
                }
            }
        }
    }

    /// Between documents a session owns no parser and no monitor — the
    /// shard's spares do — and the spares stay within their two bounds:
    /// at most [`DOC_SPARES`] of each kind, none that held more than
    /// [`DOC_SPARE_MAX_EVENTS`] events.
    #[test]
    fn a_session_between_documents_owns_no_state_and_the_spares_stay_bounded() {
        let config = config(None, false);
        let small = text_doc(&ring_trace(9, false), 1000, "\n");
        let held = |peer: &Peer| (peer.spares.parsers.len(), peer.spares.checkers.len());

        let mut peer = Peer::new(&config);
        let open = small.find("e 4 ").expect("a mid-document offset");
        assert!(peer.feed(&small.as_bytes()[..open]));
        let doc = peer.session.doc.as_ref().expect("an open document");
        assert!(doc.checker.is_some());
        assert_eq!(held(&peer), (0, 0));
        assert!(peer.feed(&small.as_bytes()[open..]));
        assert!(peer.session.doc.is_none(), "state outlived its document");
        assert_eq!(held(&peer), (1, 1));
        // The next document takes both and hands both back; a latch hands
        // the monitor back early, while the parser validates on.
        let race = text_doc(&ring_trace(12, true), 1000, "\n");
        let before_end = race.rfind("end").expect("an `end` line");
        assert!(peer.feed(&race.as_bytes()[..before_end]));
        let doc = peer.session.doc.as_ref().expect("an open document");
        assert!(doc.latched.is_some() && doc.checker.is_none());
        assert_eq!(held(&peer), (0, 1));
        assert!(peer.feed(&race.as_bytes()[before_end..]));
        assert_eq!(held(&peer), (1, 1));
        let (outcome, mut spares) = peer.retire();
        assert_eq!(
            [outcome.totals.documents, outcome.totals.violations],
            [2, 1]
        );

        // Count bound: more connections die mid-document than a shard
        // keeps spares.
        for _ in 0..DOC_SPARES + 3 {
            let mut peer = Peer::new(&config);
            assert!(peer.feed(&small.as_bytes()[..open]));
            peer.spares = spares;
            spares = peer.retire().1;
            assert!(spares.parsers.len() <= DOC_SPARES && spares.checkers.len() <= DOC_SPARES);
        }
        let held = (spares.parsers.len(), spares.checkers.len());
        assert_eq!(held, (DOC_SPARES, DOC_SPARES));

        // Size bound: a document past the bound frees its state, one just
        // within keeps it.
        for (hops, kept) in [(DOC_SPARE_MAX_EVENTS - 3, 1), (DOC_SPARE_MAX_EVENTS - 2, 0)] {
            let big = binary_doc(&ring_trace(hops, false), usize::MAX, 2048);
            let (outcome, left) = run_after(&config, DocSpares::new(), &[HANDSHAKE, &big]);
            assert_eq!(outcome.totals.events as usize, hops + 3);
            assert_eq!(
                [outcome.totals.documents, outcome.totals.parse_errors],
                [1, 0]
            );
            assert_eq!(
                (left.parsers.len(), left.checkers.len()),
                (kept, kept),
                "{hops} hops"
            );
        }
    }

    /// What a bare parser makes of a corpus session's requests: every
    /// result, then its accessors. Session-level requests (`xi`, `margin`,
    /// `proto`) are one more kind of malformed line to it.
    fn parser_transcript(parser: &mut TraceLineParser, input: &Input) -> Vec<String> {
        let mut seen = Vec::new();
        if input.v2 {
            let mut frames = FrameAssembler::new(1 << 20);
            let mut decoder = RecordDecoder::new();
            let mut frame = Vec::new();
            let _ = frames.push(&input.body);
            while let Ok(true) = frames.next_frame_into(&mut frame) {
                let _ = decoder.decode_frame(&frame, &mut |rec| {
                    if let Some(trec) = rec.to_trace_record() {
                        seen.push(format!("{:?}", parser.feed_record(trec)));
                    }
                    true
                });
            }
        } else {
            for line in String::from_utf8_lossy(&input.body).lines() {
                seen.push(format!("{:?}", parser.feed_line(line)));
            }
        }
        seen.push(format!(
            "{:?} {} {} {} {} {:?}",
            parser.topology(),
            parser.events_seen(),
            parser.messages_seen(),
            parser.lines_fed(),
            parser.is_done(),
            parser.oldest_pending_send(),
        ));
        seen
    }

    /// `TraceLineParser::reset` ≡ a new parser, over every ordered pair of
    /// corpus sessions: whatever the first one left in the tables, the
    /// second one's results are those of a parser that never saw it.
    #[test]
    fn a_reset_parser_reads_every_corpus_session_like_a_new_one() {
        let new = |v2: bool| {
            let parser = TraceLineParser::new_streaming().with_max_processes(64);
            if v2 {
                parser.without_header()
            } else {
                parser
            }
        };
        let alone: Vec<Vec<String>> = corpus()
            .iter()
            .map(|input| parser_transcript(&mut new(input.v2), input))
            .collect();
        assert!(alone.iter().any(|t| t.iter().any(|r| r == "Ok(End)")));
        assert!(alone
            .iter()
            .any(|t| t.iter().any(|r| r.starts_with("Err("))));
        for first in corpus() {
            for (second, expected) in corpus().iter().zip(&alone) {
                // Built for the other framing, so `reset` has to choose.
                let mut parser = new(!first.v2);
                parser.reset(!first.v2);
                parser_transcript(&mut parser, first);
                parser.reset(!second.v2);
                assert_eq!(&parser_transcript(&mut parser, second), expected);
            }
        }
    }
}
