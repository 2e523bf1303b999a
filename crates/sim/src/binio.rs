//! Binary wire framing (`abc-trace v2`) for traces — the compact sibling
//! of the text format in [`crate::textio`].
//!
//! The text grammar spends most of its bytes on ASCII decimal and
//! whitespace, and most of its CPU on `split_whitespace` + `parse`. This
//! module frames the *same record language* ([`TraceRecord`]) as
//! length-prefixed binary frames of varint-packed records, decoded
//! straight into [`TraceLineParser::feed_record`] — so the binary framing
//! accepts exactly the documents the text framing accepts, by
//! construction rather than by test.
//!
//! # Frame layout
//!
//! ```text
//! stream := frame*
//! frame  := len:varint payload[len]        -- len >= 1, len <= frame cap
//! payload:= record+
//! record := tag:u8 body
//! ```
//!
//! All integers are canonical LEB128 varints: little-endian base-128, the
//! high bit of each byte marking continuation, at most 10 bytes, and the
//! shortest encoding required (a non-final `0x80`-padded tail is
//! rejected). Record tags and bodies:
//!
//! | tag    | record     | body                                                      |
//! |--------|------------|-----------------------------------------------------------|
//! | `0x01` | processes  | `count`                                                   |
//! | `0x02` | faulty     | `k` then `k` process indices                              |
//! | `0x03` | events     | declared event count                                      |
//! | `0x04` | messages   | declared message count                                    |
//! | `0x05` | event      | `flags:u8 process dt [trigger] [label]`                   |
//! | `0x06` | message    | `flags:u8 from to send_event send_time [recv_event recv_dt]` |
//! | `0x07` | end        | (empty)                                                   |
//! | `0x08` | xi         | `len` then `len` UTF-8 bytes of the `Ξ` spec (`"P/Q"`)    |
//!
//! Event flags: bit 0 = has trigger (`trigger` field present), bit 1 =
//! received-only, bit 2 = has label (`label` field present), bit 3 =
//! distinguished; the remaining bits are reserved and must be zero.
//! Event times are delta-coded: `dt` is the difference from the previous
//! event's time (times are non-decreasing, so deltas are small), reset to
//! an absolute time by each `processes` record. Message flags: bit 0 =
//! delivered (`recv_event`/`recv_dt` present), the rest reserved;
//! `recv_dt` is relative to `send_time`. Event sequence numbers are
//! implicit (records arrive in `seq` order), message indices are implicit
//! (position among message records), exactly as the text format's
//! positional `m`-line indices.
//!
//! # Worked example
//!
//! A one-process document with a single wake-up event at time 0 encodes
//! as one 10-byte frame:
//!
//! ```text
//! 09              frame length 9
//!   01 01         processes 1
//!   02 00         faulty (k = 0)
//!   05 00 00 00   event: flags 0 (wake-up), process 0, dt 0
//!   07            end
//! ```
//!
//! ```
//! use abc_sim::Trace;
//! let bytes = [0x09, 0x01, 0x01, 0x02, 0x00, 0x05, 0x00, 0x00, 0x00, 0x07];
//! let trace = Trace::from_binary(&bytes).unwrap();
//! assert_eq!(trace.num_processes(), 1);
//! assert_eq!(trace.events().len(), 1);
//! ```
//!
//! # Safety against adversarial input
//!
//! [`FrameAssembler`] enforces a hard frame-length cap from the length
//! prefix alone (an attacker claiming a 4 GB frame is rejected after at
//! most 10 buffered bytes), and [`RecordDecoder`] bounds every
//! count-prefixed allocation by the bytes actually present in the frame.
//! Malformed input of any shape — truncated frames, overlong varints,
//! reserved flag bits, unknown tags, mid-field frame ends — yields an
//! error, never a panic, and everything semantic (index ranges, time
//! monotonicity, cross references) is rejected by the shared
//! [`TraceLineParser`] core with the same rules as text.

use crate::textio::{EventRecord, MessageRecord, TraceLineParser, TraceRecord, TraceTextError};
use crate::trace::Trace;

/// Default cap on a single frame's payload length, enforced by
/// [`FrameAssembler`]. Generously above the encoder's
/// [`DEFAULT_FRAME_TARGET`]; a longer frame is an attack or corruption.
pub const DEFAULT_MAX_FRAME_LEN: usize = 256 * 1024;

/// Payload size at which the encoder seals a frame and starts the next
/// one. Small enough to keep the receiver's per-frame copy cache-friendly,
/// large enough to amortize the length prefix and per-frame ack to noise.
pub const DEFAULT_FRAME_TARGET: usize = 32 * 1024;

/// A varint is at most 10 bytes (`ceil(64 / 7)`).
const MAX_VARINT_LEN: usize = 10;

const TAG_PROCESSES: u8 = 0x01;
const TAG_FAULTY: u8 = 0x02;
const TAG_DECL_EVENTS: u8 = 0x03;
const TAG_DECL_MESSAGES: u8 = 0x04;
const TAG_EVENT: u8 = 0x05;
const TAG_MESSAGE: u8 = 0x06;
const TAG_END: u8 = 0x07;
const TAG_XI: u8 = 0x08;
const TAG_MARGIN: u8 = 0x09;

const EV_TRIGGER: u8 = 1 << 0;
const EV_RECEIVED_ONLY: u8 = 1 << 1;
const EV_LABEL: u8 = 1 << 2;
const EV_DISTINGUISHED: u8 = 1 << 3;
const EV_RESERVED: u8 = !(EV_TRIGGER | EV_RECEIVED_ONLY | EV_LABEL | EV_DISTINGUISHED);

const MSG_DELIVERED: u8 = 1 << 0;
const MSG_RESERVED: u8 = !MSG_DELIVERED;

/// Appends `v` as a canonical LEB128 varint.
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes a canonical LEB128 varint from the front of `buf`.
///
/// Returns `Ok(Some((value, encoded_len)))` on success, `Ok(None)` if
/// `buf` ends before the varint does (feed more bytes), and `Err` on a
/// non-canonical (overlong) or overflowing encoding.
fn decode_varint(buf: &[u8]) -> Result<Option<(u64, usize)>, String> {
    let mut v: u64 = 0;
    for (i, &b) in buf.iter().enumerate().take(MAX_VARINT_LEN) {
        if i == MAX_VARINT_LEN - 1 && b > 0x01 {
            return Err("varint overflows 64 bits".to_string());
        }
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            if i > 0 && b == 0 {
                return Err("overlong varint encoding".to_string());
            }
            return Ok(Some((v, i + 1)));
        }
    }
    if buf.len() >= MAX_VARINT_LEN {
        return Err(format!("varint runs past {MAX_VARINT_LEN} bytes"));
    }
    Ok(None)
}

/// One decoded wire record: the binary counterpart of a text line.
///
/// `Event`/`Message` carry absolute times (the decoder resolves the
/// on-wire deltas) and convert losslessly into [`TraceRecord`]s via
/// [`WireRecord::to_trace_record`]; `Xi` and `Margin` are session-level
/// records the `abc-service` protocol consumes directly and have no
/// [`TraceRecord`] counterpart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireRecord {
    /// `processes <n>`.
    Processes(usize),
    /// `faulty <p>…`.
    Faulty(Vec<usize>),
    /// Declared event count.
    DeclaredEvents(usize),
    /// Declared message count.
    DeclaredMessages(usize),
    /// One event, with its time already resolved to an absolute value.
    Event(EventRecord),
    /// One message, with its receive time already resolved.
    Message(MessageRecord),
    /// End of document.
    End,
    /// A `Ξ` bound specification (the text protocol's `xi <P/Q>` line).
    Xi(String),
    /// An on-demand synchrony-margin request (the text protocol's
    /// `margin` line) — a session-level record, accepted mid-document and
    /// between documents, with no [`TraceRecord`] counterpart.
    Margin,
}

impl WireRecord {
    /// The document-grammar view of this record, or `None` for the
    /// session-level [`WireRecord::Xi`] / [`WireRecord::Margin`].
    #[must_use]
    pub fn to_trace_record(&self) -> Option<TraceRecord<'_>> {
        Some(match self {
            WireRecord::Processes(n) => TraceRecord::Processes(*n),
            WireRecord::Faulty(v) => TraceRecord::Faulty(v),
            WireRecord::DeclaredEvents(n) => TraceRecord::DeclaredEvents(*n),
            WireRecord::DeclaredMessages(n) => TraceRecord::DeclaredMessages(*n),
            WireRecord::Event(e) => TraceRecord::Event(*e),
            WireRecord::Message(m) => TraceRecord::Message(*m),
            WireRecord::End => TraceRecord::End,
            WireRecord::Xi(_) | WireRecord::Margin => return None,
        })
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn byte(&mut self) -> Result<u8, String> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or("truncated record (frame ends mid-record)")?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, String> {
        // One byte below 0x80 is a whole varint, and always canonical.
        if let Some(&b) = self.buf.get(self.pos) {
            if b < 0x80 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        match decode_varint(self.buf.get(self.pos..).unwrap_or(&[]))? {
            Some((v, n)) => {
                self.pos += n;
                Ok(v)
            }
            None => Err("truncated record (frame ends mid-varint)".to_string()),
        }
    }

    fn index(&mut self) -> Result<usize, String> {
        usize::try_from(self.varint()?).map_err(|_| "index exceeds the platform range".to_string())
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], String> {
        let s = self
            .pos
            .checked_add(len)
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or("truncated record (frame ends mid-field)")?;
        self.pos += len;
        Ok(s)
    }
}

/// Decodes frame payloads into [`WireRecord`]s.
///
/// Stateful only for the event-time delta chain (`dt` fields accumulate;
/// each `processes` record resets the chain), so one decoder serves a
/// whole connection across documents. All structural errors — unknown
/// tags, reserved flag bits, truncation, non-canonical varints, count
/// fields larger than the frame, time overflow — are reported as `Err`;
/// the decoder never panics on any input.
#[derive(Clone, Debug, Default)]
pub struct RecordDecoder {
    last_time: u64,
}

impl RecordDecoder {
    /// A fresh decoder (time chain at 0).
    #[must_use]
    pub fn new() -> RecordDecoder {
        RecordDecoder::default()
    }

    /// Decodes every record in one frame payload, handing each to `sink`.
    /// A `sink` returning `false` stops decoding early (the caller hit
    /// its own error and the rest of the frame is moot).
    ///
    /// # Errors
    ///
    /// A description of the first structural defect. The records already
    /// handed to `sink` remain valid; the caller decides whether partial
    /// frames are fatal (the `abc-service` session poisons the
    /// connection).
    pub fn decode_frame(
        &mut self,
        payload: &[u8],
        sink: &mut dyn FnMut(WireRecord) -> bool,
    ) -> Result<(), String> {
        if payload.is_empty() {
            return Err("empty frame".to_string());
        }
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
        while c.remaining() > 0 {
            let rec = self.decode_record(&mut c)?;
            if !sink(rec) {
                return Ok(());
            }
        }
        Ok(())
    }

    fn decode_record(&mut self, c: &mut Cursor<'_>) -> Result<WireRecord, String> {
        let tag = c.byte()?;
        Ok(match tag {
            TAG_PROCESSES => {
                // A new document: restart the event-time delta chain.
                self.last_time = 0;
                WireRecord::Processes(c.index()?)
            }
            TAG_FAULTY => {
                let k = c.index()?;
                // Each index takes >= 1 byte, so a count beyond the frame
                // remainder is a lie — reject before allocating.
                if k > c.remaining() {
                    return Err(format!("faulty count {k} exceeds the frame"));
                }
                let mut v = Vec::with_capacity(k);
                for _ in 0..k {
                    v.push(c.index()?);
                }
                WireRecord::Faulty(v)
            }
            TAG_DECL_EVENTS => WireRecord::DeclaredEvents(c.index()?),
            TAG_DECL_MESSAGES => WireRecord::DeclaredMessages(c.index()?),
            TAG_EVENT => {
                let flags = c.byte()?;
                if flags & EV_RESERVED != 0 {
                    return Err(format!("event flags {flags:#04x} set reserved bits"));
                }
                let process = c.index()?;
                let dt = c.varint()?;
                let time = self
                    .last_time
                    .checked_add(dt)
                    .ok_or("event time overflows u64")?;
                let trigger = if flags & EV_TRIGGER != 0 {
                    Some(c.index()?)
                } else {
                    None
                };
                let label = if flags & EV_LABEL != 0 {
                    Some(c.varint()?)
                } else {
                    None
                };
                self.last_time = time;
                WireRecord::Event(EventRecord {
                    seq: None,
                    process,
                    time,
                    trigger,
                    received_only: flags & EV_RECEIVED_ONLY != 0,
                    label,
                    distinguished: flags & EV_DISTINGUISHED != 0,
                })
            }
            TAG_MESSAGE => {
                let flags = c.byte()?;
                if flags & MSG_RESERVED != 0 {
                    return Err(format!("message flags {flags:#04x} set reserved bits"));
                }
                let from = c.index()?;
                let to = c.index()?;
                let send_event = c.index()?;
                let send_time = c.varint()?;
                let (recv_event, recv_time) = if flags & MSG_DELIVERED != 0 {
                    let recv_event = c.index()?;
                    let recv_dt = c.varint()?;
                    let recv_time = send_time
                        .checked_add(recv_dt)
                        .ok_or("receive time overflows u64")?;
                    (Some(recv_event), Some(recv_time))
                } else {
                    (None, None)
                };
                WireRecord::Message(MessageRecord {
                    from,
                    to,
                    send_event,
                    recv_event,
                    send_time,
                    recv_time,
                })
            }
            TAG_END => WireRecord::End,
            TAG_XI => {
                let len = c.index()?;
                if len > c.remaining() {
                    return Err(format!("xi spec of {len} bytes exceeds the frame"));
                }
                let bytes = c.take(len)?;
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| "xi spec is not valid UTF-8".to_string())?;
                WireRecord::Xi(s.to_string())
            }
            TAG_MARGIN => WireRecord::Margin,
            other => return Err(format!("unknown record tag {other:#04x}")),
        })
    }
}

/// Reassembles length-prefixed frames from a raw byte stream — the binary
/// counterpart of [`crate::textio::LineAssembler`], with the same
/// adversarial-input posture.
///
/// Push whatever bytes arrived with [`FrameAssembler::push`], then drain
/// completed frames with [`FrameAssembler::next_frame_into`] until it
/// returns `Ok(false)`. A length prefix beyond the cap is rejected from
/// the prefix alone — the declared payload is never buffered — so memory
/// stays bounded by the cap plus one read chunk as long as the caller
/// drains between pushes. After any error the assembler is poisoned and
/// keeps failing.
#[derive(Debug)]
pub struct FrameAssembler {
    cap: usize,
    buf: Vec<u8>,
    pos: usize,
    poisoned: bool,
}

impl FrameAssembler {
    /// A new assembler enforcing `max_frame_len` bytes per frame payload.
    #[must_use]
    pub fn new(max_frame_len: usize) -> FrameAssembler {
        FrameAssembler {
            cap: max_frame_len,
            buf: Vec::new(),
            pos: 0,
            poisoned: false,
        }
    }

    /// Feeds a chunk of raw bytes.
    ///
    /// # Errors
    ///
    /// Only after a previous error poisoned the assembler.
    pub fn push(&mut self, chunk: &[u8]) -> Result<(), String> {
        if self.poisoned {
            return Err("frame assembler already failed".to_string());
        }
        self.buf.extend_from_slice(chunk);
        Ok(())
    }

    fn fail<T>(&mut self, message: String) -> Result<T, String> {
        self.poisoned = true;
        Err(message)
    }

    /// Extracts the next complete frame's payload into `out` (clearing it
    /// first — `out` is a reusable scratch buffer). Returns `Ok(false)`
    /// when more bytes are needed.
    ///
    /// # Errors
    ///
    /// A bad length prefix: non-canonical varint, zero length, or a
    /// length beyond the cap. The assembler is poisoned afterwards.
    pub fn next_frame_into(&mut self, out: &mut Vec<u8>) -> Result<bool, String> {
        if self.poisoned {
            return Err("frame assembler already failed".to_string());
        }
        let avail = self.buf.get(self.pos..).unwrap_or(&[]);
        let (len, prefix_len) = match decode_varint(avail) {
            Ok(Some(v)) => v,
            Ok(None) => return Ok(false),
            Err(m) => return self.fail(format!("bad frame length prefix: {m}")),
        };
        if len == 0 {
            return self.fail("empty frame".to_string());
        }
        if len > self.cap as u64 {
            let cap = self.cap;
            return self.fail(format!("frame of {len} bytes exceeds the {cap}-byte cap"));
        }
        let Ok(len) = usize::try_from(len) else {
            return self.fail(format!("frame of {len} bytes exceeds the platform range"));
        };
        let Some(payload) = avail.get(prefix_len..prefix_len.saturating_add(len)) else {
            return Ok(false);
        };
        out.clear();
        out.extend_from_slice(payload);
        self.pos += prefix_len + len;
        // Reclaim the consumed prefix once it dominates the buffer, so a
        // long-lived session reuses one allocation instead of growing.
        if self.pos >= 64 * 1024 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(true)
    }

    /// Verifies the stream ended on a frame boundary (call at EOF).
    ///
    /// # Errors
    ///
    /// Leftover bytes: the peer disconnected mid-frame.
    pub fn finish(&self) -> Result<(), String> {
        if !self.poisoned && self.buf.len() > self.pos {
            let n = self.buf.len() - self.pos;
            return Err(format!("connection ended mid-frame ({n} bytes buffered)"));
        }
        Ok(())
    }

    /// Bytes currently buffered but not yet drained as frames.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Encodes [`WireRecord`]s into length-prefixed frames.
///
/// Records accumulate into a frame payload that is sealed (prefixed and
/// appended to the output) once it reaches the target size, so the
/// encoder emits a bounded-latency stream rather than one giant frame.
/// The event-time delta chain mirrors [`RecordDecoder`]'s.
#[derive(Debug)]
pub struct FrameWriter {
    out: Vec<u8>,
    frame: Vec<u8>,
    target: usize,
    last_time: u64,
}

impl Default for FrameWriter {
    fn default() -> FrameWriter {
        FrameWriter::new()
    }
}

impl FrameWriter {
    /// A writer sealing frames at [`DEFAULT_FRAME_TARGET`] bytes.
    #[must_use]
    pub fn new() -> FrameWriter {
        FrameWriter::with_target(DEFAULT_FRAME_TARGET)
    }

    /// A writer sealing frames once the payload reaches `target` bytes
    /// (each frame may overshoot by one record).
    #[must_use]
    pub fn with_target(target: usize) -> FrameWriter {
        FrameWriter {
            out: Vec::new(),
            frame: Vec::new(),
            target: target.max(1),
            last_time: 0,
        }
    }

    /// Appends one record to the current frame, sealing it if full.
    pub fn push_record(&mut self, rec: &WireRecord) {
        let f = &mut self.frame;
        match rec {
            WireRecord::Processes(n) => {
                self.last_time = 0;
                f.push(TAG_PROCESSES);
                push_varint(f, *n as u64);
            }
            WireRecord::Faulty(v) => {
                f.push(TAG_FAULTY);
                push_varint(f, v.len() as u64);
                for &p in v {
                    push_varint(f, p as u64);
                }
            }
            WireRecord::DeclaredEvents(n) => {
                f.push(TAG_DECL_EVENTS);
                push_varint(f, *n as u64);
            }
            WireRecord::DeclaredMessages(n) => {
                f.push(TAG_DECL_MESSAGES);
                push_varint(f, *n as u64);
            }
            WireRecord::Event(e) => {
                let mut flags = 0u8;
                if e.trigger.is_some() {
                    flags |= EV_TRIGGER;
                }
                if e.received_only {
                    flags |= EV_RECEIVED_ONLY;
                }
                if e.label.is_some() {
                    flags |= EV_LABEL;
                }
                if e.distinguished {
                    flags |= EV_DISTINGUISHED;
                }
                f.push(TAG_EVENT);
                f.push(flags);
                push_varint(f, e.process as u64);
                // Wrapping keeps a (simulator-impossible) time regression
                // encodable; the decoder's overflow check then rejects it,
                // matching the text parser's monotonicity error.
                push_varint(f, e.time.wrapping_sub(self.last_time));
                self.last_time = e.time;
                if let Some(t) = e.trigger {
                    push_varint(f, t as u64);
                }
                if let Some(l) = e.label {
                    push_varint(f, l);
                }
            }
            WireRecord::Message(m) => {
                let delivered = m.recv_event.is_some() && m.recv_time.is_some();
                f.push(TAG_MESSAGE);
                f.push(if delivered { MSG_DELIVERED } else { 0 });
                push_varint(f, m.from as u64);
                push_varint(f, m.to as u64);
                push_varint(f, m.send_event as u64);
                push_varint(f, m.send_time);
                if delivered {
                    push_varint(f, m.recv_event.unwrap_or(0) as u64);
                    push_varint(
                        f,
                        m.recv_time.unwrap_or(m.send_time).wrapping_sub(m.send_time),
                    );
                }
            }
            WireRecord::End => f.push(TAG_END),
            WireRecord::Xi(s) => {
                f.push(TAG_XI);
                push_varint(f, s.len() as u64);
                f.extend_from_slice(s.as_bytes());
            }
            WireRecord::Margin => f.push(TAG_MARGIN),
        }
        if self.frame.len() >= self.target {
            self.seal();
        }
    }

    /// Seals the current frame (no-op when the payload is empty — the
    /// grammar forbids empty frames).
    pub fn seal(&mut self) {
        if self.frame.is_empty() {
            return;
        }
        push_varint(&mut self.out, self.frame.len() as u64);
        self.out.extend_from_slice(&self.frame);
        self.frame.clear();
    }

    /// Seals any pending payload and returns the encoded byte stream.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        self.seal();
        self.out
    }
}

/// Encodes `records` into frames of [`DEFAULT_FRAME_TARGET`] bytes — the
/// binary twin of [`crate::textio::write_text_document`].
#[must_use]
pub fn records_to_binary(records: impl IntoIterator<Item = WireRecord>) -> Vec<u8> {
    let mut w = FrameWriter::new();
    for rec in records {
        w.push_record(&rec);
    }
    w.finish()
}

/// Encodes a `Ξ` spec (the value of the text protocol's `xi <P/Q>` line)
/// as a single standalone frame, for sending between documents on a
/// binary `abc-service` session.
#[must_use]
pub fn xi_frame(spec: &str) -> Vec<u8> {
    records_to_binary([WireRecord::Xi(spec.to_string())])
}

impl Trace {
    /// Serializes the trace into binary frames in *streaming* order: the
    /// records of [`Trace::to_stream_records`], framed. The frame-for-line
    /// twin of [`Trace::to_stream_text`], which writes the same records as
    /// text lines: feeding either to its parser yields the same document.
    #[must_use]
    pub fn to_stream_binary(&self) -> Vec<u8> {
        records_to_binary(self.stream_records())
    }

    /// The trace's records in *streaming* order: the process count, the
    /// faulty set and the declared counts, then each delivered message's
    /// record immediately before its receive event's record (message
    /// indices renumbered to delivery order), the undelivered messages in
    /// send order, and `end`. Event records carry their `seq` implicitly.
    /// [`Trace::to_stream_binary`] and [`Trace::to_stream_text`] write
    /// exactly this sequence; it is exposed so callers composing their own
    /// documents can interleave session-level records (such as
    /// [`WireRecord::Margin`]) and write the result in either framing
    /// ([`records_to_binary`], [`crate::textio::write_text_document`]).
    #[must_use]
    pub fn to_stream_records(&self) -> Vec<WireRecord> {
        self.stream_records().collect()
    }

    /// The four records that open every document: process count, faulty
    /// set, declared event and message counts.
    pub(crate) fn header_records(&self) -> [WireRecord; 4] {
        let faulty = self
            .faulty
            .iter()
            .enumerate()
            .filter_map(|(p, f)| f.then_some(p));
        [
            WireRecord::Processes(self.num_processes),
            WireRecord::Faulty(faulty.collect()),
            WireRecord::DeclaredEvents(self.events.len()),
            WireRecord::DeclaredMessages(self.messages.len()),
        ]
    }

    /// The one place streaming order is decided (see
    /// [`Trace::to_stream_records`]).
    pub(crate) fn stream_records(&self) -> impl Iterator<Item = WireRecord> + '_ {
        // Delivered messages take indices in delivery order, so the k-th
        // receive names message k; undelivered ones follow, in send order.
        let mut delivered = 0;
        let body = self.events.iter().flat_map(move |ev| {
            let event = |trigger| Some(WireRecord::Event(EventRecord::of(ev, trigger)));
            match ev.trigger.map(|mi| self.messages.get(mi)) {
                None => [None, event(None)],
                Some(Some(m)) => {
                    delivered += 1;
                    [
                        Some(WireRecord::Message(MessageRecord::of(m))),
                        event(Some(delivered - 1)),
                    ]
                }
                // The `Trace` invariants keep triggers in range.
                Some(None) => [None, None],
            }
        });
        let undelivered = self
            .messages
            .iter()
            .filter(|m| m.recv_event.is_none())
            .map(|m| WireRecord::Message(MessageRecord::of(m)));
        self.header_records()
            .into_iter()
            .chain(body.flatten())
            .chain(undelivered)
            .chain([WireRecord::End])
    }

    /// Parses and validates a trace from the binary framing — the binary
    /// twin of [`Trace::from_text`], running the same validation core.
    ///
    /// # Errors
    ///
    /// [`TraceTextError`] whose `line` is the 1-based *record* number, on
    /// any structural defect (bad frame, bad varint, unknown tag) or any
    /// semantic inconsistency (same rules as text). An embedded `xi`
    /// record is rejected: it belongs to the service session layer, not
    /// to a trace document.
    pub fn from_binary(bytes: &[u8]) -> Result<Trace, TraceTextError> {
        let mut frames = FrameAssembler::new(DEFAULT_MAX_FRAME_LEN);
        let mut parser = TraceLineParser::new_document().without_header();
        let mut decoder = RecordDecoder::new();
        let wire_err = |parser: &TraceLineParser, message: String| TraceTextError {
            line: parser.lines_fed() + 1,
            message,
        };
        frames.push(bytes).map_err(|m| wire_err(&parser, m))?;
        let mut payload = Vec::new();
        loop {
            match frames.next_frame_into(&mut payload) {
                Ok(true) => {}
                Ok(false) => break,
                Err(m) => return Err(wire_err(&parser, m)),
            }
            let mut first_err: Option<TraceTextError> = None;
            let structural = decoder.decode_frame(&payload, &mut |rec| {
                let fed = match rec.to_trace_record() {
                    Some(tr) => parser.feed_record(tr),
                    None => {
                        let name = match rec {
                            WireRecord::Margin => "margin",
                            _ => "xi",
                        };
                        let message = format!("unexpected {name} record in a trace document");
                        Err(wire_err(&parser, message))
                    }
                };
                match fed {
                    Ok(_) => true,
                    Err(e) => {
                        first_err = Some(e);
                        false
                    }
                }
            });
            if let Some(e) = first_err {
                return Err(e);
            }
            structural.map_err(|m| wire_err(&parser, m))?;
        }
        frames.finish().map_err(|m| wire_err(&parser, m))?;
        parser.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{BandDelay, Lossy};
    use crate::engine::{RunLimits, Simulation};
    use crate::process::{Context, Process};
    use abc_core::ProcessId;

    struct Gossip {
        remaining: u32,
    }
    impl Process<u32> for Gossip {
        fn on_init(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.broadcast(0);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u32>, from: ProcessId, m: &u32) {
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.send(from, m + 1);
                ctx.set_label(u64::from(*m));
            }
        }
    }

    fn sample_trace() -> Trace {
        let mut lossy = Lossy::new(BandDelay::new(1, 7, 13));
        lossy.drop_link(ProcessId(0), ProcessId(2));
        let mut sim = Simulation::new(lossy);
        sim.add_process(Gossip { remaining: 15 });
        sim.add_faulty_process(Gossip { remaining: 15 });
        sim.add_process(Gossip { remaining: 15 });
        sim.run(RunLimits {
            max_events: 60,
            max_time: u64::MAX,
        });
        sim.trace().clone()
    }

    #[test]
    fn varint_round_trips_and_rejects_non_canonical() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert_eq!(decode_varint(&buf).unwrap(), Some((v, buf.len())));
            // Partial prefixes ask for more bytes instead of failing.
            for cut in 0..buf.len() - 1 {
                assert_eq!(decode_varint(&buf[..cut]).unwrap(), None, "v={v} cut={cut}");
            }
        }
        // Overlong: 0 encoded in two bytes.
        assert!(decode_varint(&[0x80, 0x00]).is_err());
        // Overlong: 1 encoded with a padded continuation.
        assert!(decode_varint(&[0x81, 0x00]).is_err());
        // Eleven continuation bytes never terminate a u64.
        assert!(decode_varint(&[0x80; 11]).is_err());
        // 10th byte may only contribute the top bit.
        assert!(
            decode_varint(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02]).is_err()
        );
    }

    /// Every record `payload` decodes to, or the decoder's error.
    fn decoded(payload: &[u8]) -> Result<Vec<WireRecord>, String> {
        let mut out = Vec::new();
        RecordDecoder::new()
            .decode_frame(payload, &mut |rec| {
                out.push(rec);
                true
            })
            .map(|()| out)
    }

    #[test]
    fn records_read_one_byte_and_longer_varints_alike() {
        let values = (0..=0x7f).chain([0x80, 0x3fff, 0x4000, u64::MAX]);
        for v in values {
            // A labelled event: its time delta and its label are varints.
            let mut payload = vec![TAG_EVENT, EV_LABEL, 0x00];
            push_varint(&mut payload, v);
            push_varint(&mut payload, v);
            let event = EventRecord {
                seq: None,
                process: 0,
                time: v,
                trigger: None,
                received_only: false,
                label: Some(v),
                distinguished: false,
            };
            assert_eq!(
                decoded(&payload),
                Ok(vec![WireRecord::Event(event)]),
                "{v:#x}"
            );
            let mut payload = vec![TAG_DECL_MESSAGES];
            push_varint(&mut payload, v);
            assert_eq!(
                decoded(&payload),
                Ok(vec![WireRecord::DeclaredMessages(v as usize)]),
                "{v:#x}"
            );
        }
    }

    #[test]
    fn records_refuse_non_canonical_varints_in_the_same_words() {
        let overlong = "overlong varint encoding";
        let overflow = "varint overflows 64 bits";
        let mut eleven = vec![TAG_DECL_EVENTS];
        eleven.extend([0x80; 11]);
        let mut top = vec![TAG_DECL_EVENTS];
        top.extend([0xff; 9]);
        top.push(0x02);
        let cases: [(&[u8], &str); 6] = [
            (&[TAG_DECL_EVENTS, 0x80, 0x00], overlong),
            (&[TAG_DECL_EVENTS, 0xff, 0x00], overlong),
            (&[TAG_EVENT, 0x00, 0x00, 0x81, 0x00], overlong),
            (&eleven, overflow),
            (&top, overflow),
            (
                &[TAG_DECL_EVENTS, 0x80],
                "truncated record (frame ends mid-varint)",
            ),
        ];
        for (payload, want) in cases {
            assert_eq!(decoded(payload), Err(want.to_string()), "{payload:02x?}");
        }
    }

    #[test]
    fn binary_round_trip_equals_text_round_trip() {
        let trace = sample_trace();
        let via_binary = Trace::from_binary(&trace.to_stream_binary()).unwrap();
        let via_text = Trace::from_text(&trace.to_stream_text()).unwrap();
        assert_eq!(via_binary.events(), via_text.events());
        assert_eq!(via_binary.messages(), via_text.messages());
        assert_eq!(via_binary.num_processes(), via_text.num_processes());
        for p in 0..trace.num_processes() {
            assert_eq!(
                via_binary.is_faulty(ProcessId(p)),
                via_text.is_faulty(ProcessId(p))
            );
        }
    }

    #[test]
    fn frame_assembler_enforces_the_cap_from_the_prefix_alone() {
        let mut asm = FrameAssembler::new(1024);
        // A prefix claiming 4 GB must fail before any payload arrives.
        let mut prefix = Vec::new();
        push_varint(&mut prefix, 4 << 30);
        asm.push(&prefix).unwrap();
        let mut out = Vec::new();
        let e = asm.next_frame_into(&mut out).unwrap_err();
        assert!(e.contains("exceeds"), "{e}");
        // Poisoned afterwards.
        assert!(asm.push(b"x").is_err());
    }

    #[test]
    fn frame_assembler_handles_byte_at_a_time_arrival() {
        let trace = sample_trace();
        let bytes = trace.to_stream_binary();
        let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME_LEN);
        let mut payload = Vec::new();
        let mut frames = 0usize;
        for b in &bytes {
            asm.push(std::slice::from_ref(b)).unwrap();
            while asm.next_frame_into(&mut payload).unwrap() {
                frames += 1;
            }
        }
        asm.finish().unwrap();
        assert!(frames >= 1);
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn truncated_stream_is_detected_at_finish() {
        let bytes = sample_trace().to_stream_binary();
        let mut asm = FrameAssembler::new(DEFAULT_MAX_FRAME_LEN);
        asm.push(&bytes[..bytes.len() - 1]).unwrap();
        let mut payload = Vec::new();
        while asm.next_frame_into(&mut payload).unwrap() {}
        let e = asm.finish().unwrap_err();
        assert!(e.contains("mid-frame"), "{e}");
    }

    #[test]
    fn decoder_rejects_structural_garbage_without_panicking() {
        let cases: &[&[u8]] = &[
            &[0x00],                      // tag 0 is unknown
            &[0xff],                      // unknown tag
            &[TAG_EVENT],                 // truncated: no flags
            &[TAG_EVENT, 0xf0],           // reserved event flag bits
            &[TAG_MESSAGE, 0x02],         // reserved message flag bits
            &[TAG_FAULTY, 0x7f],          // faulty count exceeds the frame
            &[TAG_XI, 0x05, b'a'],        // xi length exceeds the frame
            &[TAG_XI, 0x01, 0xc0],        // xi bytes are not UTF-8
            &[TAG_PROCESSES, 0x80],       // truncated varint
            &[TAG_PROCESSES, 0x80, 0x00], // overlong varint
        ];
        for case in cases {
            let mut dec = RecordDecoder::new();
            let r = dec.decode_frame(case, &mut |_| true);
            assert!(r.is_err(), "accepted {case:x?}");
        }
        // Empty frames are structural errors too.
        assert!(RecordDecoder::new()
            .decode_frame(&[], &mut |_| true)
            .is_err());
    }

    #[test]
    fn from_binary_rejects_semantic_corruption_like_text() {
        // Flip the process index of the first event out of range: the
        // shared validation core must reject it with the text error.
        let mut w = FrameWriter::new();
        w.push_record(&WireRecord::Processes(1));
        w.push_record(&WireRecord::Faulty(Vec::new()));
        w.push_record(&WireRecord::Event(EventRecord {
            seq: None,
            process: 7,
            time: 0,
            trigger: None,
            received_only: false,
            label: None,
            distinguished: false,
        }));
        w.push_record(&WireRecord::End);
        let e = Trace::from_binary(&w.finish()).unwrap_err();
        assert!(e.message.contains("out of range"), "{e}");
        // Record numbers land on the offending record (processes=1,
        // faulty=2, event=3).
        assert_eq!(e.line, 3);
    }

    #[test]
    fn from_binary_rejects_embedded_xi_records() {
        for (record, name) in [
            (WireRecord::Xi("3/2".to_string()), "xi"),
            (WireRecord::Margin, "margin"),
        ] {
            let mut w = FrameWriter::new();
            w.push_record(&record);
            let e = Trace::from_binary(&w.finish()).unwrap_err();
            let expected = format!("unexpected {name} record in a trace document");
            assert!(e.message.contains(&expected), "{e}");
        }
    }

    #[test]
    fn worked_hex_example_from_module_docs() {
        // Keep the README / module-doc example honest.
        let mut w = FrameWriter::new();
        w.push_record(&WireRecord::Processes(1));
        w.push_record(&WireRecord::Faulty(Vec::new()));
        w.push_record(&WireRecord::Event(EventRecord {
            seq: None,
            process: 0,
            time: 0,
            trigger: None,
            received_only: false,
            label: None,
            distinguished: false,
        }));
        w.push_record(&WireRecord::End);
        assert_eq!(
            w.finish(),
            [0x09, 0x01, 0x01, 0x02, 0x00, 0x05, 0x00, 0x00, 0x00, 0x07]
        );
    }
}
