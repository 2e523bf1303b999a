//! Client helpers: stream a trace document to a server (`abc feed`) and
//! the multi-connection load generator (`abc loadgen`).

use std::io::{IoSlice, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use abc_core::Xi;

use crate::proto::{Reply, Verdict, PROTO_V2_OK, PROTO_V2_REQUEST};
use crate::readiness::{wait, PollFd};

/// One on-demand margin sample received while feeding (the reply to an
/// interleaved `margin` request / margin record).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MarginSample {
    /// The exact ratio as its `P/Q` wire text; `None` when the server
    /// replied `margin none` (no relevant cycle yet).
    pub ratio: Option<String>,
    /// The wire-form witness of a tightest cycle attaining the ratio,
    /// when the server extracted one.
    pub witness: Option<String>,
}

/// The outcome of feeding one trace document.
#[derive(Clone, Debug)]
pub struct FeedOutcome {
    /// Final verdict (rendered byte-identically to the offline monitor's).
    pub verdict: Verdict,
    /// Margin samples received, in arrival order (empty unless the
    /// document interleaved margin requests — see `abc feed
    /// --margin-every`).
    pub margins: Vec<MarginSample>,
    /// Progress replies received before the verdict: per-event `ok`s over
    /// the v1 text framing, coalesced `ack`s over v2 binary.
    pub oks: usize,
    /// Events positively acknowledged by those replies (equals `oks` in
    /// v1; the highest `ack <through>` + 1 in v2).
    pub acked_events: usize,
    /// Arrival gap before each progress reply — per-event reply RTT in
    /// v1, per-batch ack latency in v2. Verdict and violation replies are
    /// not counted.
    pub ack_latencies: Vec<Duration>,
    /// Time from first byte written to verdict received.
    pub latency: Duration,
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let mut last = None;
    let addrs = addr.to_socket_addrs().map_err(|e| format!("{addr}: {e}"))?;
    for a in addrs {
        match TcpStream::connect_timeout(&a, Duration::from_secs(5)) {
            Ok(s) => {
                // Small writes (handshake lines, the `xi` frame — which
                // draws no reply) must not nagle behind a delayed ACK;
                // without this every short document pays a ~40 ms stall.
                let _ = s.set_nodelay(true);
                return Ok(s);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(match last {
        Some(e) => format!("{addr}: {e}"),
        None => format!("{addr}: no addresses resolved"),
    })
}

/// Initial size of a connection's reply buffer (it doubles if a single
/// reply line — a long witness — outgrows it).
const REPLY_BUF_LEN: usize = 64 * 1024;

/// One data connection as the client sees it: a non-blocking socket and
/// the reply bytes read from it but not yet handed out as lines. Every
/// byte moves through [`Wire::exchange`].
struct Wire {
    stream: TcpStream,
    /// `buf[start..end]` holds reply bytes not yet consumed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Wire {
    /// Connects, checks the greeting and — for `binary` — negotiates the
    /// v2 framing, waiting for the server's go-ahead before any frame
    /// bytes are written (bytes pipelined behind the request would be
    /// misread as text).
    fn open(addr: &str, binary: bool) -> Result<Wire, String> {
        let stream = connect(addr)?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("{addr}: {e}"))?;
        let mut wire = Wire {
            stream,
            buf: vec![0; REPLY_BUF_LEN],
            start: 0,
            end: 0,
        };
        // Prefix match so clients keep working across greeting evolutions
        // (v1 said `abc-service v1`, v2 advertises its framings).
        wire.exchange(&[], &[], |greeting| {
            if greeting.starts_with("abc-service v") {
                Ok(Some(()))
            } else {
                Err(format!(
                    "unexpected greeting {greeting:?} (not an abc-service?)"
                ))
            }
        })
        .map_err(|e| format!("{addr}: {e}"))?;
        if binary {
            let request = format!("{PROTO_V2_REQUEST}\n");
            wire.exchange(request.as_bytes(), &[], |line| {
                if line == PROTO_V2_OK {
                    Ok(Some(()))
                } else {
                    Err(format!("server refused binary framing: {line:?}"))
                }
            })
            .map_err(|e| format!("{addr}: {e}"))?;
        }
        Ok(wire)
    }

    /// The next complete reply line (without its line end), if one is
    /// buffered.
    fn take_line(&mut self) -> Result<Option<&str>, String> {
        let unread = self.buf.get(self.start..self.end).unwrap_or(&[]);
        let Some(len) = unread.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let line = unread.get(..len).unwrap_or(&[]);
        self.start += len + 1;
        std::str::from_utf8(line)
            .map(|l| Some(l.trim_end()))
            .map_err(|e| format!("reading reply: {e}"))
    }

    /// One `read` into the free end of the buffer (making room first:
    /// consumed bytes go, and a line that fills the buffer doubles it).
    fn fill(&mut self) -> std::io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.end == self.buf.len() {
                self.buf.resize(self.end * 2, 0);
            }
        }
        let n = self
            .stream
            .read(self.buf.get_mut(self.end..).unwrap_or(&mut []))?;
        self.end += n;
        Ok(n)
    }

    /// The one loop every byte of a connection moves through: writes
    /// `head` then `body` while the socket takes bytes, reads replies while
    /// there are any, and hands each complete reply line to `on_line` until
    /// it returns a result — single-threaded, blocking only in
    /// [`wait`], asking for writability only while bytes remain.
    ///
    /// It cannot deadlock on full socket buffers, by construction: it
    /// never waits for room to write without also waiting for replies to
    /// read, so a server that stops reading until its replies are taken
    /// (`OUT_SOFT_CAP`) always finds them taken. A reply that ends the
    /// exchange early (`error …`, or a verdict) is returned at once; the
    /// unwritten rest stays unwritten. A failed write is reported only if
    /// no such reply explains it: what the server said before it hung up
    /// is still read.
    fn exchange<T>(
        &mut self,
        head: &[u8],
        body: &[u8],
        mut on_line: impl FnMut(&str) -> Result<Option<T>, String>,
    ) -> Result<T, String> {
        let total = head.len() + body.len();
        let mut written = 0usize;
        let mut write_error = None;
        let mut entry = PollFd::new(&self.stream);
        // An exchange starts with room to write more often than not, so
        // the first round tries before asking; every later round acts on
        // what the wait reported, once, and asks again.
        let (mut readable, mut writable) = (false, true);
        loop {
            if writable && written < total && write_error.is_none() {
                let h = head.get(written.min(head.len())..).unwrap_or(&[]);
                let b = body
                    .get(written.saturating_sub(head.len())..)
                    .unwrap_or(&[]);
                match (&self.stream).write_vectored(&[IoSlice::new(h), IoSlice::new(b)]) {
                    Ok(n) => written += n,
                    Err(e) if is_transient(&e) => {}
                    Err(e) => write_error = Some(e),
                }
            }
            if readable {
                match self.fill() {
                    Ok(0) => {
                        return Err(match write_error {
                            Some(e) => format!("writing document: {e}"),
                            None => "server closed the connection before a verdict".into(),
                        })
                    }
                    Ok(_) => {}
                    Err(e) if is_transient(&e) => {}
                    Err(e) => return Err(format!("reading reply: {e}")),
                }
            }
            while let Some(line) = self.take_line()? {
                if let Some(done) = on_line(line)? {
                    return Ok(done);
                }
            }
            entry.set_interest(true, written < total && write_error.is_none());
            wait(std::slice::from_mut(&mut entry), None);
            (readable, writable) = (entry.readable(), entry.writable());
        }
    }

    /// Streams one document (already in wire form — stream-ordered text
    /// from [`abc_sim::Trace::to_stream_text`] or binary frames from
    /// [`abc_sim::Trace::to_stream_binary`]) behind `head` (the `xi`
    /// selection, before a connection's first document) and reads replies
    /// until the verdict. [`FeedOutcome::latency`] runs from just before
    /// the first write to the verdict.
    fn feed_document(&mut self, head: &[u8], doc: &[u8]) -> Result<FeedOutcome, String> {
        let started = Instant::now();
        let mut last = started;
        let (mut oks, mut acked_events) = (0usize, 0usize);
        let mut ack_latencies = Vec::new();
        let mut margins = Vec::new();
        let verdict = self.exchange(head, doc, |line| {
            match Reply::parse(line)? {
                Reply::Ok { seq: through } | Reply::Ack { through } => {
                    oks += 1;
                    acked_events = acked_events.max(through + 1);
                    let now = Instant::now();
                    ack_latencies.push(now - last);
                    last = now;
                }
                Reply::Violation { .. } => {}
                Reply::Margin { ratio, witness } => {
                    margins.push(MarginSample { ratio, witness });
                }
                Reply::End(v) => return Ok(Some(v)),
                Reply::Error { message } => return Err(format!("server error: {message}")),
            }
            Ok(None)
        })?;
        Ok(FeedOutcome {
            verdict,
            margins,
            oks,
            acked_events,
            ack_latencies,
            latency: started.elapsed(),
        })
    }
}

/// `WouldBlock` after a readiness report (spurious, or the first
/// optimistic write) and `Interrupted` both mean: wait and try again.
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
    )
}

/// The bytes that select `xi` on a fresh connection: a text line, or an
/// in-band `xi` record frame once v2 is negotiated. They draw no reply, so
/// they travel as the head of the connection's first document.
fn xi_selection(xi: &Xi, binary: bool) -> Vec<u8> {
    if binary {
        abc_sim::binio::xi_frame(&xi.to_string())
    } else {
        format!("xi {xi}\n").into_bytes()
    }
}

/// Connects to `addr`, selects `xi`, streams one document, and returns
/// the verdict — the library behind `abc feed`.
///
/// # Errors
///
/// Connection, protocol, or server-reported errors as readable text.
pub fn feed_stream_text(addr: &str, xi: &Xi, doc: &str) -> Result<FeedOutcome, String> {
    Wire::open(addr, false)?.feed_document(&xi_selection(xi, false), doc.as_bytes())
}

/// Connects to `addr`, negotiates the v2 binary framing, selects `xi`
/// (as an in-band `xi` record frame), streams one binary document (from
/// [`abc_sim::Trace::to_stream_binary`]), and returns the verdict — the
/// library behind `abc feed --binary`.
///
/// # Errors
///
/// Connection, negotiation, protocol, or server-reported errors as
/// readable text.
pub fn feed_stream_binary(addr: &str, xi: &Xi, doc: &[u8]) -> Result<FeedOutcome, String> {
    Wire::open(addr, true)?.feed_document(&xi_selection(xi, true), doc)
}

/// One document of a load-generation run.
#[derive(Clone, Debug)]
pub struct LoadgenDoc {
    /// Display label (e.g. the generating run index).
    pub label: String,
    /// Stream-ordered document text (the v1 wire form).
    pub text: String,
    /// Binary frames (the v2 wire form, from
    /// [`abc_sim::Trace::to_stream_binary`]); required when the run feeds
    /// the binary framing.
    pub binary: Option<Vec<u8>>,
    /// Events in the document (for throughput accounting).
    pub events: usize,
    /// The expected verdict, if the caller wants byte-verification.
    pub expect: Option<Verdict>,
}

/// Per-document result.
#[derive(Clone, Debug)]
pub struct DocOutcome {
    /// Index into the submitted document list.
    pub doc_index: usize,
    /// Which connection carried it.
    pub connection: usize,
    /// Events ingested.
    pub events: usize,
    /// Progress replies received (`ok`s in v1, coalesced `ack`s in v2).
    pub acks: usize,
    /// The server's verdict.
    pub verdict: Verdict,
    /// Submit-to-verdict latency.
    pub latency: Duration,
}

/// Aggregate load-generation report.
#[derive(Clone, Debug)]
pub struct LoadgenReport {
    /// Wire protocol the run fed: `"v1"` (text) or `"v2"` (binary).
    pub protocol: &'static str,
    /// Per-document outcomes, in document order.
    pub outcomes: Vec<DocOutcome>,
    /// Total events ingested.
    pub total_events: usize,
    /// Total progress replies (`ok`/`ack`) across all documents.
    pub acks: usize,
    /// Mean events per progress reply: ~1 in v1, the batching factor in
    /// v2 — the number that makes v1 and v2 latency rows comparable.
    pub events_per_ack: f64,
    /// Documents whose verdict was a violation.
    pub violations: usize,
    /// Documents whose verdict mismatched the expectation (0 unless
    /// expectations were provided).
    pub mismatches: usize,
    /// Wall clock of the whole run.
    pub wall: Duration,
    /// Aggregate throughput in events/second.
    pub events_per_sec: f64,
    /// Latency percentiles over documents: (p50, p90, p99, max).
    pub latency_percentiles: (Duration, Duration, Duration, Duration),
    /// Per-batch ack latency percentiles over all progress replies:
    /// (p50, p90, p99, max). In v1 a "batch" is one event, so this is the
    /// old per-event reply RTT; in v2 it is the per-frame ack gap.
    pub ack_latency_percentiles: (Duration, Duration, Duration, Duration),
    /// Work-queue depth percentiles (p50, p99): documents still waiting
    /// in the shared queue, sampled into the flight recorder
    /// (`loadgen.queue_depth`) each time a worker claims one. `None`
    /// when the recorder was disabled for the run.
    pub queue_depth_percentiles: Option<(u64, u64)>,
}

/// Renders a duration as integer-derived milliseconds (`1.234ms`),
/// through the same fixed-point formatter as margin ratios and the
/// Prometheus histograms ([`crate::metrics::format_scaled`]) — no float
/// enters the committed text, so reports diff cleanly.
#[must_use]
pub fn format_ms(d: Duration) -> String {
    let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
    format!("{}ms", crate::metrics::format_scaled(us, 3))
}

impl LoadgenReport {
    /// `bp` is the percentile in basis points (5000 = p50, 9900 = p99);
    /// integer arithmetic keeps the index math free of float casts.
    fn percentile(sorted: &[Duration], bp: usize) -> Duration {
        let Some(last) = sorted.len().checked_sub(1) else {
            return Duration::ZERO;
        };
        let idx = (last * bp + 5_000) / 10_000;
        sorted.get(idx.min(last)).copied().unwrap_or(Duration::ZERO)
    }

    /// Renders the human-readable report body. Latencies render through
    /// [`format_ms`] (integer basis, fixed precision).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let (p50, p90, p99, max) = self.latency_percentiles;
        let (a50, a90, a99, amax) = self.ack_latency_percentiles;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loadgen: {} documents, {} events over {} (protocol {})",
            self.outcomes.len(),
            self.total_events,
            format_ms(self.wall),
            self.protocol
        );
        let _ = writeln!(out, "throughput: {:.0} events/s", self.events_per_sec);
        let _ = writeln!(
            out,
            "doc latency: p50={} p90={} p99={} max={}",
            format_ms(p50),
            format_ms(p90),
            format_ms(p99),
            format_ms(max)
        );
        let _ = writeln!(
            out,
            "ack latency: p50={} p90={} p99={} max={} \
             ({:.1} events/ack over {} acks)",
            format_ms(a50),
            format_ms(a90),
            format_ms(a99),
            format_ms(amax),
            self.events_per_ack,
            self.acks
        );
        if let Some((q50, q99)) = self.queue_depth_percentiles {
            let _ = writeln!(out, "queue depth: p50={q50} p99={q99} docs waiting");
        }
        let _ = writeln!(
            out,
            "verdicts: {} violation(s), {} mismatch(es)",
            self.violations, self.mismatches
        );
        out
    }
}

/// Replays `docs` over `connections` persistent connections (each worker
/// claims documents from a shared queue and streams them back to back on
/// one connection) and aggregates throughput and latency percentiles.
/// With `binary` set, every connection negotiates the v2 framing and
/// streams each document's pre-encoded frames.
///
/// # Errors
///
/// The first connection/protocol error any worker hits, or a document
/// missing its binary encoding when `binary` is set.
pub fn run_loadgen(
    addr: &str,
    xi: &Xi,
    docs: &[LoadgenDoc],
    connections: usize,
    binary: bool,
) -> Result<LoadgenReport, String> {
    let connections = connections.max(1).min(docs.len().max(1));
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    type WorkerOut = Result<(Vec<DocOutcome>, Vec<Duration>), String>;
    let results: Vec<WorkerOut> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for conn_idx in 0..connections {
            let next = &next;
            handles.push(scope.spawn(move || -> WorkerOut {
                let mut wire = Wire::open(addr, binary)?;
                let mut head = xi_selection(xi, binary);
                let mut outcomes = Vec::new();
                let mut gaps = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= docs.len() {
                        break;
                    }
                    // Flight-recorder hook (no-op unless the embedding
                    // process called `abc_obs::enable`): how many
                    // documents are still waiting when this one is
                    // claimed.
                    abc_obs::sample("loadgen.queue_depth", (docs.len() - i - 1) as u64);
                    let Some(doc) = docs.get(i) else { break };
                    let payload: &[u8] = if binary {
                        doc.binary.as_deref().ok_or_else(|| {
                            format!("document {} has no binary encoding", doc.label)
                        })?
                    } else {
                        doc.text.as_bytes()
                    };
                    let fed = wire
                        .feed_document(&head, payload)
                        .map_err(|e| format!("document {}: {e}", doc.label))?;
                    head.clear();
                    gaps.extend_from_slice(&fed.ack_latencies);
                    outcomes.push(DocOutcome {
                        doc_index: i,
                        connection: conn_idx,
                        events: doc.events,
                        acks: fed.oks,
                        verdict: fed.verdict,
                        latency: fed.latency,
                    });
                }
                Ok((outcomes, gaps))
            }));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("loadgen worker panicked".to_string()))
            })
            .collect()
    });
    let wall = started.elapsed();

    let mut outcomes = Vec::new();
    let mut ack_gaps: Vec<Duration> = Vec::new();
    for r in results {
        let (o, g) = r?;
        outcomes.extend(o);
        ack_gaps.extend(g);
    }
    outcomes.sort_by_key(|o| o.doc_index);
    let total_events: usize = outcomes.iter().map(|o| o.events).sum();
    let acks: usize = outcomes.iter().map(|o| o.acks).sum();
    let violations = outcomes.iter().filter(|o| o.verdict.is_violation()).count();
    let mismatches = outcomes
        .iter()
        .filter(|o| {
            docs.get(o.doc_index)
                .and_then(|d| d.expect.as_ref())
                .is_some_and(|want| want.to_string() != o.verdict.to_string())
        })
        .count();
    let mut latencies: Vec<Duration> = outcomes.iter().map(|o| o.latency).collect();
    latencies.sort();
    ack_gaps.sort();
    let queue_depth_percentiles = if abc_obs::is_enabled() {
        let mut depths: Vec<u64> = abc_obs::snapshot()
            .threads
            .iter()
            .flat_map(|t| t.entries.iter())
            .filter(|e| e.kind == abc_obs::EntryKind::Sample && e.name == "loadgen.queue_depth")
            .map(|e| e.value)
            .collect();
        depths.sort_unstable();
        let pick = |bp: usize| {
            let last = depths.len().saturating_sub(1);
            let idx = (last * bp + 5_000) / 10_000;
            depths.get(idx.min(last)).copied().unwrap_or(0)
        };
        (!depths.is_empty()).then(|| (pick(5_000), pick(9_900)))
    } else {
        None
    };
    #[allow(clippy::cast_precision_loss)]
    let events_per_sec = total_events as f64 / wall.as_secs_f64().max(1e-9);
    #[allow(clippy::cast_precision_loss)]
    let events_per_ack = total_events as f64 / (acks.max(1)) as f64;
    Ok(LoadgenReport {
        protocol: if binary { "v2" } else { "v1" },
        latency_percentiles: (
            LoadgenReport::percentile(&latencies, 5_000),
            LoadgenReport::percentile(&latencies, 9_000),
            LoadgenReport::percentile(&latencies, 9_900),
            latencies.last().copied().unwrap_or(Duration::ZERO),
        ),
        ack_latency_percentiles: (
            LoadgenReport::percentile(&ack_gaps, 5_000),
            LoadgenReport::percentile(&ack_gaps, 9_000),
            LoadgenReport::percentile(&ack_gaps, 9_900),
            ack_gaps.last().copied().unwrap_or(Duration::ZERO),
        ),
        queue_depth_percentiles,
        outcomes,
        total_events,
        acks,
        events_per_ack,
        violations,
        mismatches,
        wall,
        events_per_sec,
    })
}

/// Sends one command to a status port and returns the response body —
/// `metrics` for the status page, `shutdown` for graceful stop.
///
/// # Errors
///
/// Connection or I/O errors as readable text.
pub fn status_command(status_addr: &str, command: &str) -> Result<String, String> {
    let mut stream = connect(status_addr)?;
    stream
        .write_all(format!("{command}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    // Half-close so the server sees EOF even if it reads past the line.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut body = String::new();
    stream
        .read_to_string(&mut body)
        .map_err(|e| e.to_string())?;
    Ok(body)
}
