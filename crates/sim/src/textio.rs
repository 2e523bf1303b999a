//! A compact line-oriented text serialization for [`Trace`] (no serde),
//! with an incremental per-line parser shared by files and sockets.
//!
//! Any swept or simulated execution can be persisted, shipped, and
//! re-checked offline (`Trace::replay_into_monitor`, batch checking via
//! `Trace::to_execution_graph`). The format is versioned, self-describing,
//! and diff-friendly:
//!
//! ```text
//! abc-trace v1
//! # full-line comments and blank lines are ignored
//! processes 3
//! faulty 1
//! events 4
//! messages 2
//! e 0 0 0 - 0 - 0
//! e 1 1 0 - 0 5 1
//! e 2 2 0 - 0 - 0
//! e 3 0 7 0 1 - 0
//! m 1 0 1 3 0 7
//! m 2 0 2 - 0 -
//! end
//! ```
//!
//! * `e <seq> <process> <time> <trigger|-> <received_only> <label|-> <distinguished>`
//!   — one line per event, in global chronological order; `trigger` is the
//!   index of the delivering `m` line (`-` for wake-ups).
//! * `m <from> <to> <send_event> <recv_event|-> <send_time> <recv_time|->`
//!   — one line per message; `-` marks in-flight/dropped. A message's index
//!   is its position among the `m` lines.
//! * `faulty` lists faulty process indices (the line is present even when
//!   empty, so files are self-contained).
//! * The `events`/`messages` count lines are declarations, validated at
//!   `end`; a live stream producer that cannot know them up front may omit
//!   them.
//!
//! # Two line orders, one grammar
//!
//! [`Trace::to_text`] writes the canonical *document* order above: all `e`
//! lines, then all `m` lines in send order. That order is diff-friendly but
//! cannot be monitored as it arrives — an `e` line names its triggering
//! message by index before that `m` line has been seen.
//!
//! [`Trace::to_stream_text`] writes the same grammar in *streaming* order:
//! each delivered message's `m` line immediately precedes its receive `e`
//! line (message indices are renumbered to delivery order; undelivered
//! messages trail at the end). In this order every line is fully resolvable
//! the moment it arrives, which is what a live trace source naturally emits
//! and what the `abc-service` TCP ingestion protocol speaks.
//!
//! [`TraceLineParser`] accepts both:
//!
//! * **document mode** ([`TraceLineParser::new_document`]) buffers the
//!   trace and cross-validates everything at [`TraceLineParser::finish`] —
//!   the engine behind [`Trace::from_text`] / [`Trace::from_reader`];
//! * **streaming mode** ([`TraceLineParser::new_streaming`]) never stores
//!   the document — only a compact `(process, time)` pair per event for
//!   cross-validation plus O(processes + in-flight messages) working
//!   state. A declared delivery waits in a *due ring* indexed by its
//!   receive event's distance from the next event, one slot write when
//!   its `m` line arrives and one front read when its `e` line does; one
//!   declared 1024 or more events ahead waits in an ordered spill map
//!   instead, so the ring never outgrows 1024 slots. Under a prune
//!   horizon ([`TraceLineParser::forget_events_below`]) the per-event
//!   sidecar is drained only once its forgotten prefix is as long as the
//!   rest, at amortized O(1) per event. Each `e` line yields an
//!   [`EventFeed`] that can be pushed straight into an
//!   [`abc_core::monitor::IncrementalChecker`], and every reference is
//!   validated *before* it could panic a downstream graph builder — which
//!   is what makes it safe to expose to untrusted network clients. Both
//!   modes accept exactly the same documents (modulo line order), so a
//!   server verdict and a file re-check never diverge on validity.
//!
//! Text never accumulates: [`Trace::from_reader`] keeps at most the one
//! unterminated line its last read ended in, and a socket's
//! [`LineAssembler`] splits raw bytes into lines, both under a hard
//! per-line length cap, so a malicious or broken producer cannot balloon
//! memory by withholding a newline.
//!
//! The parser validates everything the simulator guarantees: counts match,
//! indices are in range, events appear in `seq` order, wake-ups precede
//! receives at each process, and event↔message cross references agree — a
//! parsed trace is as trustworthy as a captured one.
//!
//! # One validation core, two framings
//!
//! The grammar above is a *framing* of a small record language
//! ([`TraceRecord`]): process count, faulty set, optional count
//! declarations, events, messages, `end`. [`TraceLineParser::feed_line`]
//! parses a text line into a record and hands it to
//! [`TraceLineParser::feed_record`], which owns every semantic rule. The
//! binary wire framing ([`crate::binio`]) decodes frames into the same
//! records and feeds them through the same entry point, so the two
//! framings accept exactly the same documents by construction.
//!
//! The write side mirrors it. [`Trace::to_stream_records`] decides
//! streaming order once: the delivery renumbering, with undelivered
//! messages trailing before `end`. [`Trace::to_stream_binary`] frames
//! those records and [`Trace::to_stream_text`] writes them as lines;
//! [`Trace::to_text`] writes the document-order records the same way.
//! Every text line is spelled by one function, [`write_record_line`],
//! behind [`write_text_document`]; the `abc-service` forensics tail
//! renders a binary session's records through it too. A caller that
//! composes its own record sequence (`abc feed --margin-every`
//! interleaves margin requests) writes it in either framing with
//! [`write_text_document`] or [`crate::binio::records_to_binary`].
//!
//! # Lexing
//!
//! What a line may look like, byte for byte, is decided in one place, the
//! *general path* of [`TraceLineParser::feed_line`]:
//!
//! * A line is first trimmed of Unicode white space (`char::is_whitespace`:
//!   blank, tab, VT, FF, a `\r` left by a CRLF file, U+00A0, U+2003, …) at
//!   both ends. An empty line, or one that then starts with `#`, is
//!   skipped wherever it stands, after `end` too.
//! * Fields are separated by any run of such white space. A keyword
//!   (`processes`, `faulty`, `events`, `messages`, `e`, `m`, `end`) is a
//!   whole field: `processes2` is not `processes 2`.
//! * A number is what `str::parse` takes for the field's integer type
//!   (`usize` for indices and counts, `u64` for times and labels): ASCII
//!   digits only, an optional leading `+`, any number of leading zeros, a
//!   value that fits. `-` alone stands for "none" where the grammar allows
//!   one.
//! * A flag is the single byte `0` or `1`; `00`, `01` and `+1` are not
//!   flags.
//! * An `e` line has exactly 7 fields after its `e`, an `m` line 6.
//!
//! In front of it stands a *fast path* for the spelling every writer in
//! this workspace produces: `e` or `m`, then the right number of fields,
//! each behind exactly one ASCII blank, each `-` or 1 to 19 ASCII digits
//! (or, for a flag, one byte), and nothing after the last. One scan over
//! the bytes reads such a line straight into its [`EventRecord`] /
//! [`MessageRecord`]. The fast path never rejects and never words an
//! error: a line of any other shape — another blank, a sign, 20 digits or
//! more, a `-` where a value is required, a wrong field count, a bad
//! flag, a byte that is not ASCII — is handed to the general path
//! untouched, which accepts it (with the same record) or refuses it in
//! the general path's words, at the same line number. So there is one
//! accepted language and one set of error texts, and the fast path can
//! only be wrong by disagreeing with the general path about a line it
//! takes — which `crates/harness/tests/trace_text_proptests.rs` checks
//! against a lexer written without it.
//!
//! A document read whole ([`Trace::from_text`], and each read of
//! [`Trace::from_reader`]) is not split into lines first: the fast path
//! also finds the line end, which is where its last field stops if a
//! `\n` or the end of the input is there. Only a line it does not take is
//! cut out at its `\n`, a CRLF line's `\r` going with it as `str::lines`
//! drops it, and handed to [`TraceLineParser::feed_line`], so a document
//! costs one pass over its bytes. `feed_line` is also the entry for a
//! caller that has its lines already (a socket's [`LineAssembler`]): the
//! same lexer over one line, then the general path.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::Read;
use std::str::SplitWhitespace;

use abc_core::ProcessId;

use crate::binio::WireRecord;
use crate::trace::{Trace, TraceEvent, TraceMessage};

/// Format version written by [`Trace::to_text`] and accepted by
/// [`Trace::from_text`].
pub const TRACE_FORMAT_VERSION: &str = "v1";

/// Default per-line byte cap of [`Trace::from_reader`] and of the
/// `abc-service` ingestion server's [`LineAssembler`]s. No
/// well-formed trace line comes anywhere near this; a line that does is an
/// attack or corruption and is rejected without being buffered.
pub const DEFAULT_MAX_LINE_LEN: usize = 64 * 1024;

/// What [`Trace::from_reader`], which cannot know how long its input is,
/// vouches for when the header declares counts: tables are sized at once
/// for at most the 65 536 `e` and 74 898 `m` lines 1 MiB could hold (64 B
/// an entry, untouched until a line fills it) and double from there.
const READER_INPUT_BUDGET: usize = 1 << 20;

/// The bytes [`Trace::from_reader`] asks its source for at a time, and
/// its buffer's size until a longer line needs more.
const READ_LEN: usize = 64 * 1024;

/// A parse/validation error for the trace text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceTextError {
    /// 1-based line number the error was detected at (0 for end-of-input).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceTextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "trace text: {}", self.message)
        } else {
            write!(f, "trace text, line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TraceTextError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, TraceTextError> {
    Err(TraceTextError {
        line,
        message: message.into(),
    })
}

fn opt_u64(field: &str) -> Result<Option<u64>, String> {
    if field == "-" {
        Ok(None)
    } else {
        field
            .parse::<u64>()
            .map(Some)
            .map_err(|e| format!("{field:?}: {e}"))
    }
}

fn opt_usize(field: &str) -> Result<Option<usize>, String> {
    if field == "-" {
        Ok(None)
    } else {
        field
            .parse::<usize>()
            .map(Some)
            .map_err(|e| format!("{field:?}: {e}"))
    }
}

/// The next `N` of `words`, if that is exactly what is left of them.
fn fields<const N: usize>(mut words: SplitWhitespace<'_>) -> Option<[&str; N]> {
    let mut out = [""; N];
    for slot in &mut out {
        *slot = words.next()?;
    }
    words.next().is_none().then_some(out)
}

/// A field that may not be `-`; the error text is built only on failure.
fn required<T>(parsed: Result<Option<T>, String>, name: &str) -> Result<T, String> {
    parsed?.ok_or_else(|| format!("{name} required"))
}

fn flag(field: &str) -> Result<bool, String> {
    match field {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("expected flag 0/1, got {other:?}")),
    }
}

/// An optional field as the grammar spells it: the value, or `-`.
struct Dash<T>(Option<T>);

impl<T: fmt::Display> fmt::Display for Dash<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str("-"),
        }
    }
}

fn at<T>(ln: usize, r: Result<T, String>) -> Result<T, TraceTextError> {
    r.map_err(|message| TraceTextError { line: ln, message })
}

/// What follows the keyword `key` on the trimmed line `l`, if `l` starts
/// with `key` as a whole word (`processes2` does not start with
/// `processes`).
fn after_keyword<'a>(l: &'a str, key: &str) -> Option<&'a str> {
    let rest = l.strip_prefix(key)?;
    (rest.is_empty() || rest.starts_with(char::is_whitespace)).then(|| rest.trim_start())
}

/// The one-scan lexer for `e`/`m` lines in their usual spelling (module
/// docs, "Lexing"). Each reader takes one field off the front, blank
/// included, and answers `None` for anything but the usual spelling;
/// the caller then lexes the line again the general way, which decides
/// whether it is accepted and words the error if not.
struct Fields<'a>(&'a [u8]);

impl Fields<'_> {
    /// One blank, then `-` or 1 to 19 ASCII digits (19 digits cannot
    /// overflow a `u64`; a longer run may still be a number, with leading
    /// zeros, and is the general path's to judge).
    fn opt(&mut self) -> Option<Option<u64>> {
        let [b' ', field @ ..] = self.0 else {
            return None;
        };
        if let [b'-', rest @ ..] = field {
            self.0 = rest;
            return Some(None);
        }
        let mut value = 0u64;
        let mut rest = field;
        while let [digit @ b'0'..=b'9', tail @ ..] = rest {
            // Wrapping: a run of 20 or more digits is refused below, not here.
            value = value.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
            rest = tail;
        }
        self.0 = rest;
        (1..=19)
            .contains(&(field.len() - rest.len()))
            .then_some(Some(value))
    }

    fn u64(&mut self) -> Option<u64> {
        self.opt()?
    }

    fn opt_index(&mut self) -> Option<Option<usize>> {
        match self.opt()? {
            None => Some(None),
            Some(v) => usize::try_from(v).ok().map(Some),
        }
    }

    fn index(&mut self) -> Option<usize> {
        self.opt_index()?
    }

    /// One blank, then the single byte `0` or `1`.
    fn flag(&mut self) -> Option<bool> {
        let (flag, rest) = match self.0 {
            [b' ', b'0', rest @ ..] => (false, rest),
            [b' ', b'1', rest @ ..] => (true, rest),
            _ => return None,
        };
        self.0 = rest;
        Some(flag)
    }
}

/// An `e` line in the usual spelling at the front of `bytes`: its record
/// and the bytes behind its last field, which the caller must find to be
/// a line end (an empty line's end, a `\n`, or the end of the input).
/// Inlined into both callers, [`TraceLineParser::feed_line`] and the
/// document scan, so that neither pays a call per line.
#[inline(always)]
fn lex_event(bytes: &[u8]) -> Option<(EventRecord, &[u8])> {
    let mut f = Fields(bytes.strip_prefix(b"e")?);
    let rec = EventRecord {
        seq: Some(f.index()?),
        process: f.index()?,
        time: f.u64()?,
        trigger: f.opt_index()?,
        received_only: f.flag()?,
        label: f.opt()?,
        distinguished: f.flag()?,
    };
    Some((rec, f.0))
}

/// [`lex_event`] for an `m` line.
#[inline(always)]
fn lex_message(bytes: &[u8]) -> Option<(MessageRecord, &[u8])> {
    let mut f = Fields(bytes.strip_prefix(b"m")?);
    let rec = MessageRecord {
        from: f.index()?,
        to: f.index()?,
        send_event: f.index()?,
        recv_event: f.opt_index()?,
        send_time: f.u64()?,
        recv_time: f.opt()?,
    };
    Some((rec, f.0))
}

/// What follows a line of `len` bytes whose content ended where `tail`
/// starts, if the line ends there and is within `cap`: behind its `\n`,
/// or nothing at the end of the input (`eof`).
#[inline]
fn past_line_end(tail: &[u8], len: usize, eof: bool, cap: usize) -> Option<&[u8]> {
    if len > cap {
        return None;
    }
    match tail {
        [b'\n', after @ ..] => Some(after),
        [] if eof => Some(tail),
        _ => None,
    }
}

fn line_too_long<T>(line: usize, cap: usize) -> Result<T, TraceTextError> {
    err(line, format!("line exceeds {cap} bytes"))
}

/// Splits raw bytes into text lines with a hard per-line length cap, for
/// an event source that hands over bytes as they arrive (the non-blocking
/// sockets of `abc-service`'s text sessions): feed whatever bytes arrived
/// with [`LineAssembler::push`], then drain completed lines with
/// [`LineAssembler::next_line`]. A line longer than the cap is rejected as
/// soon as the cap is crossed — the oversized tail is never buffered, so a
/// 100 MB "line" costs O(cap) memory, not 100 MB. [`Trace::from_reader`]
/// keeps the same cap without it, in the parser's own scan.
#[derive(Debug)]
pub struct LineAssembler {
    cap: usize,
    partial: Vec<u8>,
    /// The completed lines not yet handed out, back to back without
    /// their terminators; emptied whenever the last of them has gone.
    ready: String,
    /// Where each of those lines ends in `ready`, oldest first.
    ends: VecDeque<usize>,
    /// Where the oldest of them starts.
    next: usize,
    completed: usize,
    poisoned: bool,
}

impl LineAssembler {
    /// A new assembler enforcing `max_line_len` bytes per line (excluding
    /// the newline itself).
    #[must_use]
    pub fn new(max_line_len: usize) -> LineAssembler {
        LineAssembler {
            cap: max_line_len,
            partial: Vec::new(),
            ready: String::new(),
            ends: VecDeque::new(),
            next: 0,
            completed: 0,
            poisoned: false,
        }
    }

    fn complete(&mut self, bytes: &[u8]) -> Result<(), TraceTextError> {
        let line = self.completed + 1;
        if bytes.len() > self.cap {
            self.poisoned = true;
            return line_too_long(line, self.cap);
        }
        let mut s = match std::str::from_utf8(bytes) {
            Ok(s) => s,
            Err(_) => {
                self.poisoned = true;
                return err(line, "line is not valid UTF-8");
            }
        };
        if let Some(stripped) = s.strip_suffix('\r') {
            s = stripped;
        }
        if self.ends.is_empty() {
            self.ready.clear();
            self.next = 0;
        }
        self.ready.push_str(s);
        self.ends.push_back(self.ready.len());
        self.completed += 1;
        Ok(())
    }

    /// Feeds a chunk of raw bytes.
    ///
    /// # Errors
    ///
    /// [`TraceTextError`] (with the 1-based line number) as soon as a line
    /// crosses the length cap or contains invalid UTF-8. After an error the
    /// assembler is poisoned and further pushes keep failing.
    pub fn push(&mut self, chunk: &[u8]) -> Result<(), TraceTextError> {
        if self.poisoned {
            return err(self.completed + 1, "line assembler already failed");
        }
        let mut rest = chunk;
        while let Some(nl) = rest.iter().position(|b| *b == b'\n') {
            let (head, tail) = rest.split_at(nl);
            if self.partial.is_empty() {
                self.complete(head)?;
            } else {
                self.partial.extend_from_slice(head);
                self.complete_partial()?;
            }
            rest = tail.get(1..).unwrap_or(&[]);
        }
        if self.partial.len() + rest.len() > self.cap {
            self.poisoned = true;
            return line_too_long(self.completed + 1, self.cap);
        }
        self.partial.extend_from_slice(rest);
        Ok(())
    }

    /// Completes the line held in `partial`, whose buffer stays.
    fn complete_partial(&mut self) -> Result<(), TraceTextError> {
        let mut full = std::mem::take(&mut self.partial);
        let done = self.complete(&full);
        full.clear();
        self.partial = full;
        done
    }

    /// Completes a trailing line that was not newline-terminated (call at
    /// end of input; files may omit the final newline).
    ///
    /// # Errors
    ///
    /// [`TraceTextError`] if the trailing bytes are not valid UTF-8.
    pub fn finish(&mut self) -> Result<(), TraceTextError> {
        if !self.partial.is_empty() && !self.poisoned {
            self.complete_partial()?;
        }
        Ok(())
    }

    /// Takes the next completed line, if any. The line is lent out of the
    /// assembler's own buffer: it is gone once the next one is asked for.
    pub fn next_line(&mut self) -> Option<&str> {
        let end = self.ends.pop_front()?;
        let line = self.ready.get(self.next..end);
        self.next = end;
        line
    }

    /// Bytes currently buffered for the incomplete trailing line.
    #[must_use]
    pub fn partial_len(&self) -> usize {
        self.partial.len()
    }

    /// Whether any input is buffered: completed lines not yet drained via
    /// [`LineAssembler::next_line`], or partial bytes of an unterminated
    /// line. The `abc-service` protocol switch refuses to enter binary
    /// framing while text is still in flight, via this check.
    #[must_use]
    pub fn has_buffered(&self) -> bool {
        !self.ends.is_empty() || !self.partial.is_empty()
    }
}

/// What a single fed line meant, for callers that act per line (the
/// `abc-service` ingestion path).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParsedLine {
    /// Comment, blank line, header, or count declaration — nothing to act
    /// on.
    Meta,
    /// The `faulty` line was parsed: process count and faulty set are now
    /// known (see [`TraceLineParser::topology`]) — time to size a monitor.
    Topology,
    /// An event line; in streaming mode the feed is fully resolved and can
    /// be pushed into an incremental checker immediately.
    Event(EventFeed),
    /// A message line was recorded.
    Message {
        /// Whether the message has a receive event (vs. in-flight/dropped).
        delivered: bool,
    },
    /// `end` — the document is complete (declared counts validated).
    End,
}

/// The monitor-facing content of one `e` line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventFeed {
    /// A wake-up event: the first event of `process`.
    Init {
        /// Global event sequence number.
        seq: usize,
        /// The waking process.
        process: ProcessId,
    },
    /// A receive event.
    Receive {
        /// Global event sequence number.
        seq: usize,
        /// The receiving process.
        process: ProcessId,
        /// The trace-event index of the sending step. Always `Some` in
        /// streaming mode; in document mode `None` until the triggering
        /// `m` line has been seen (canonical document order resolves all
        /// triggers only at [`TraceLineParser::finish`]).
        send_event: Option<usize>,
    },
}

/// A delivery expectation recorded from a streaming-mode `m` line, waiting
/// for its receive `e` line.
#[derive(Clone, Copy, Debug)]
struct PendingDelivery {
    message: usize,
    to: ProcessId,
    send_event: usize,
    recv_event: usize,
    recv_time: u64,
}

/// One semantic record of the trace grammar, independent of framing.
///
/// Text lines parse into records ([`TraceLineParser::feed_line`]) and
/// binary frames decode into records ([`crate::binio`]); both are applied
/// through [`TraceLineParser::feed_record`], which owns every validation
/// rule — so any framing built on this type accepts exactly the documents
/// the text format accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceRecord<'a> {
    /// `processes <n>` — the process count (first record of a document).
    Processes(usize),
    /// `faulty <p>…` — the faulty process indices (second record).
    Faulty(&'a [usize]),
    /// `events <n>` — declared event count (optional, before any body
    /// record).
    DeclaredEvents(usize),
    /// `messages <n>` — declared message count (optional, before any body
    /// record).
    DeclaredMessages(usize),
    /// An `e` record.
    Event(EventRecord),
    /// An `m` record.
    Message(MessageRecord),
    /// `end` — the document is complete.
    End,
}

impl TraceRecord<'_> {
    /// Short grammar-level name, for state-mismatch error messages.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceRecord::Processes(_) => "`processes`",
            TraceRecord::Faulty(_) => "`faulty`",
            TraceRecord::DeclaredEvents(_) => "`events` count",
            TraceRecord::DeclaredMessages(_) => "`messages` count",
            TraceRecord::Event(_) => "`e`",
            TraceRecord::Message(_) => "`m`",
            TraceRecord::End => "`end`",
        }
    }
}

/// The fields of one `e` record (see the module grammar).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Global sequence number. `None` means implicit — the framing does
    /// not carry it and the parser assigns the next expected value (the
    /// binary framing); `Some` is validated against that value (text).
    pub seq: Option<usize>,
    /// Owning process index.
    pub process: usize,
    /// Occurrence time.
    pub time: u64,
    /// Index of the delivering message record, `None` for wake-ups.
    pub trigger: Option<usize>,
    /// The received-but-not-processed flag.
    pub received_only: bool,
    /// Optional instrumentation label.
    pub label: Option<u64>,
    /// The distinguished-event flag.
    pub distinguished: bool,
}

impl EventRecord {
    /// The record of `ev` with `trigger` as its message index and an
    /// implicit `seq`.
    pub(crate) fn of(ev: &TraceEvent, trigger: Option<usize>) -> EventRecord {
        EventRecord {
            seq: None,
            process: ev.process.0,
            time: ev.time,
            trigger,
            received_only: ev.received_only,
            label: ev.label,
            distinguished: ev.distinguished,
        }
    }
}

/// The fields of one `m` record (see the module grammar).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageRecord {
    /// Sender process index.
    pub from: usize,
    /// Receiver process index.
    pub to: usize,
    /// Trace-event index of the sending step.
    pub send_event: usize,
    /// Trace-event index of the receive (`None` while in flight/dropped).
    pub recv_event: Option<usize>,
    /// Send time.
    pub send_time: u64,
    /// Receive time (`None` while in flight/dropped).
    pub recv_time: Option<u64>,
}

impl MessageRecord {
    /// The record of `m`.
    pub(crate) fn of(m: &TraceMessage) -> MessageRecord {
        MessageRecord {
            from: m.from.0,
            to: m.to.0,
            send_event: m.send_event,
            recv_event: m.recv_event,
            send_time: m.send_time,
            recv_time: m.recv_time,
        }
    }
}

/// How many events ahead of the next one a streaming-mode delivery is
/// held in the due ring; one declared further ahead waits in the spill.
const DUE_SPAN: usize = 1024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PState {
    ExpectHeader,
    ExpectProcesses,
    ExpectFaulty,
    Body,
    Done,
}

/// An incremental, per-line parser for the `abc-trace v1` grammar.
///
/// Construct with [`TraceLineParser::new_document`] (buffer and fully
/// cross-validate a whole trace — the engine behind [`Trace::from_text`])
/// or [`TraceLineParser::new_streaming`] (validate-and-forward without
/// storing the document — the `abc-service` ingestion core; see the
/// module docs for the two line orders).
///
/// Feed **every** input line (including comments and blanks) through
/// [`TraceLineParser::feed_line`] so reported line numbers match the
/// source.
#[derive(Debug)]
pub struct TraceLineParser {
    streaming: bool,
    max_processes: Option<usize>,
    state: PState,
    line_no: usize,
    num_processes: usize,
    faulty: Vec<bool>,
    declared_events: Option<usize>,
    declared_messages: Option<usize>,
    seen_body_line: bool,
    events_seen: usize,
    messages_seen: usize,
    last_time: u64,
    has_init: Vec<bool>,
    // Document mode storage (empty in streaming mode).
    events: Vec<TraceEvent>,
    messages: Vec<TraceMessage>,
    /// Document mode: the most bytes of input the caller vouches for. A
    /// count declaration sizes its table at once, but for no more lines
    /// than that many bytes could hold (0: it sizes nothing).
    input_budget: usize,
    // Streaming mode bookkeeping (empty in document mode). `event_meta`
    // keeps one compact `(process, time)` pair per event so `m` lines can
    // be cross-checked against their sending event with exactly the same
    // strictness as document mode — the document text, labels, flags, and
    // message set are still never stored.
    event_meta: Vec<(ProcessId, u64)>,
    /// The event index `event_meta[0]` belongs to.
    meta_base: usize,
    /// Events below this were forgotten
    /// ([`TraceLineParser::forget_events_below`]); `event_meta` may still
    /// hold some of them until it is drained.
    meta_cut: usize,
    /// The declared deliveries not yet received: slot `k` holds the one
    /// declared for event `events_seen + k`, for `k < DUE_SPAN`.
    due: VecDeque<Option<PendingDelivery>>,
    /// Declared deliveries that were `DUE_SPAN` or more events ahead when
    /// declared, by receive event; each stays here until its event.
    due_far: BTreeMap<usize, PendingDelivery>,
}

impl TraceLineParser {
    fn new(streaming: bool) -> TraceLineParser {
        TraceLineParser {
            streaming,
            max_processes: None,
            state: PState::ExpectHeader,
            line_no: 0,
            num_processes: 0,
            faulty: Vec::new(),
            declared_events: None,
            declared_messages: None,
            seen_body_line: false,
            events_seen: 0,
            messages_seen: 0,
            last_time: 0,
            has_init: Vec::new(),
            events: Vec::new(),
            messages: Vec::new(),
            input_budget: 0,
            event_meta: Vec::new(),
            meta_base: 0,
            meta_cut: 0,
            due: VecDeque::new(),
            due_far: BTreeMap::new(),
        }
    }

    /// A parser that buffers the whole trace and cross-validates it at
    /// [`TraceLineParser::finish`]. Accepts both canonical document order
    /// and streaming order.
    #[must_use]
    pub fn new_document() -> TraceLineParser {
        TraceLineParser::new(false)
    }

    /// A parser that never stores the document: every reference must
    /// resolve backwards (each `e` line's triggering `m` line must precede
    /// it), so each line is fully validated the moment it arrives — with
    /// exactly document mode's strictness, via a compact `(process, time)`
    /// pair per event — while line text, labels, and the message set are
    /// dropped on the spot. Working state beyond that sidecar is
    /// O(processes + in-flight messages): a ring of the deliveries due in
    /// the next 1024 events, by receive event, and a spill map for those
    /// declared further ahead. This is the mode network servers expose to
    /// untrusted clients.
    #[must_use]
    pub fn new_streaming() -> TraceLineParser {
        TraceLineParser::new(true)
    }

    /// Rejects documents declaring more than `cap` processes *before*
    /// any per-process state is allocated — servers expose this to
    /// untrusted clients, where a lying `processes` line must not be able
    /// to force a huge allocation.
    #[must_use]
    pub fn with_max_processes(mut self, cap: usize) -> TraceLineParser {
        self.max_processes = Some(cap);
        self
    }

    /// Skips the `abc-trace <version>` header requirement, for framings
    /// that carry the version out of band (the binary wire framing
    /// negotiates its version before the first frame). The first record is
    /// then the process count. Only meaningful for [`TraceRecord`] feeds;
    /// text documents always start with the header line.
    #[must_use]
    pub fn without_header(mut self) -> TraceLineParser {
        if self.state == PState::ExpectHeader {
            self.state = PState::ExpectProcesses;
        }
        self
    }

    /// Re-arms the parser in place for a new document: afterwards it
    /// behaves exactly like a newly constructed parser of the same mode
    /// ([`TraceLineParser::new_document`] / [`TraceLineParser::new_streaming`])
    /// with the same [`TraceLineParser::with_max_processes`] cap, whatever
    /// state — finished, failed, cut short — the last document left it in.
    /// `expect_header` chooses anew between a text document (`true`) and a
    /// headerless framing ([`TraceLineParser::without_header`], `false`),
    /// so one parser can serve documents of both framings in turn. Every
    /// per-event and per-process table keeps its capacity: a parser that
    /// has validated a document of some size validates the next one of
    /// that size without allocating.
    pub fn reset(&mut self, expect_header: bool) {
        // Exhaustive on purpose (no `..`): a field added to the struct
        // does not compile until it is re-armed here as `new` arms it.
        let TraceLineParser {
            streaming: _,
            max_processes: _,
            state,
            line_no,
            num_processes,
            faulty,
            declared_events,
            declared_messages,
            seen_body_line,
            events_seen,
            messages_seen,
            last_time,
            has_init,
            events,
            messages,
            input_budget,
            event_meta,
            meta_base,
            meta_cut,
            due,
            due_far,
        } = self;
        *state = if expect_header {
            PState::ExpectHeader
        } else {
            PState::ExpectProcesses
        };
        *line_no = 0;
        *num_processes = 0;
        faulty.clear();
        *declared_events = None;
        *declared_messages = None;
        *seen_body_line = false;
        *events_seen = 0;
        *messages_seen = 0;
        *last_time = 0;
        has_init.clear();
        events.clear();
        messages.clear();
        *input_budget = 0;
        event_meta.clear();
        *meta_base = 0;
        *meta_cut = 0;
        due.clear();
        due_far.clear();
    }

    /// Process count and faulty flags, once the `faulty` line has been
    /// parsed ([`ParsedLine::Topology`] signalled).
    #[must_use]
    pub fn topology(&self) -> Option<(usize, &[bool])> {
        match self.state {
            PState::ExpectHeader | PState::ExpectProcesses | PState::ExpectFaulty => None,
            PState::Body | PState::Done => Some((self.num_processes, &self.faulty)),
        }
    }

    /// Events parsed so far.
    #[must_use]
    pub fn events_seen(&self) -> usize {
        self.events_seen
    }

    /// Messages parsed so far.
    #[must_use]
    pub fn messages_seen(&self) -> usize {
        self.messages_seen
    }

    /// Whether `end` has been consumed.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.state == PState::Done
    }

    /// Lines fed so far (= the 1-based number of the last fed line).
    #[must_use]
    pub fn lines_fed(&self) -> usize {
        self.line_no
    }

    /// Streaming mode only: compacts the per-event `(process, time)`
    /// sidecar below `event_idx`, so a long-lived connection's parser
    /// memory tracks the caller's prune horizon instead of the document
    /// length. Any later `m` line naming a send event below the horizon is
    /// rejected with a parse error — the bounded-monitoring contract a
    /// server advertises when it enables pruning.
    ///
    /// The sidecar is drained once the forgotten prefix it still holds is
    /// as long as the rest, so each entry moves O(1) times and the sidecar
    /// holds at most 2 × window + 1 entries, where the window is the
    /// events from the last cut to the next event.
    ///
    /// # Panics
    ///
    /// Panics on a document-mode parser (which stores the whole trace by
    /// design).
    pub fn forget_events_below(&mut self, event_idx: usize) {
        assert!(
            self.streaming,
            "forget_events_below is a streaming-mode operation"
        );
        let cut = event_idx.min(self.events_seen);
        if cut > self.meta_cut {
            self.meta_cut = cut;
            let dead = cut - self.meta_base;
            if dead >= self.events_seen - cut {
                self.event_meta.drain(..dead);
                self.meta_base = cut;
            }
        }
    }

    /// Streaming mode: the oldest send event named by a declared but not
    /// yet received message (`None` when no delivery is pending). Callers
    /// pruning a downstream monitor must keep their horizon at or below
    /// this watermark. A scan of the due ring and its spill: O(1024 +
    /// deliveries declared further ahead), O(in-flight messages) when
    /// each message's line closely precedes its receive.
    #[must_use]
    pub fn oldest_pending_send(&self) -> Option<usize> {
        self.pending().map(|p| p.send_event).min()
    }

    /// Every declared delivery not yet received, in no particular order.
    fn pending(&self) -> impl Iterator<Item = &PendingDelivery> {
        self.due.iter().flatten().chain(self.due_far.values())
    }

    fn scalar(ln: usize, l: &str, key: &str) -> Result<usize, TraceTextError> {
        match after_keyword(l, key) {
            Some(v) if !v.is_empty() => match v.parse() {
                Ok(n) => Ok(n),
                Err(e) => err(ln, format!("{key}: {e}")),
            },
            _ => err(ln, format!("expected `{key} <count>`, got {l:?}")),
        }
    }

    /// Feeds one line (without its newline). The line is parsed into a
    /// [`TraceRecord`] and applied through the same validation core as
    /// [`TraceLineParser::feed_record`].
    ///
    /// # Errors
    ///
    /// [`TraceTextError`] carrying the line number on any malformed or
    /// inconsistent line. Errors are fatal: the parser stays in its current
    /// state and subsequent feeds will keep failing on out-of-order input.
    pub fn feed_line(&mut self, raw: &str) -> Result<ParsedLine, TraceTextError> {
        self.line_no += 1;
        let ln = self.line_no;
        if self.state == PState::Body {
            // The usual spelling of the two lines a document is made of,
            // in one scan; every other line, and every other spelling of
            // these two, is lexed below.
            if let Some((rec, [])) = lex_event(raw.as_bytes()) {
                return self.apply_event(ln, &rec);
            }
            if let Some((rec, [])) = lex_message(raw.as_bytes()) {
                return self.apply_message(ln, &rec);
            }
        }
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') {
            return Ok(ParsedLine::Meta);
        }
        match self.state {
            PState::ExpectHeader => {
                match l.strip_prefix("abc-trace ") {
                    Some(TRACE_FORMAT_VERSION) => {}
                    Some(v) => return err(ln, format!("unsupported version {v:?}")),
                    None => return err(ln, "missing `abc-trace <version>` header"),
                }
                self.state = PState::ExpectProcesses;
                Ok(ParsedLine::Meta)
            }
            PState::ExpectProcesses => {
                let n = Self::scalar(ln, l, "processes")?;
                self.apply_processes(ln, n)
            }
            PState::ExpectFaulty => {
                let Some(rest) = after_keyword(l, "faulty") else {
                    return err(ln, format!("expected `faulty …`, got {l:?}"));
                };
                let mut indices = Vec::new();
                for field in rest.split_whitespace() {
                    match field.parse() {
                        Ok(p) => indices.push(p),
                        Err(e) => return err(ln, format!("faulty index {field:?}: {e}")),
                    }
                }
                self.apply_faulty(ln, &indices)
            }
            PState::Body => self.feed_body_line(ln, l),
            PState::Done => err(ln, format!("trailing content after `end`: {l:?}")),
        }
    }

    /// Feeds the lines of `bytes` in order and returns how many bytes they
    /// held, `\n`s included. A line is fed once a `\n` ends it, the last
    /// one also at the end of `bytes` if `eof` says no input follows; a
    /// CRLF line loses its `\r` as `str::lines` strips it. One scan does
    /// both jobs: in the body an `e`/`m` line in the usual spelling is
    /// lexed straight off the bytes, its end found where its last field
    /// stops, and only a line the fast path does not take there is cut out
    /// and handed to [`Self::feed_line`]. A line of more than `cap` bytes
    /// (a `\r` counts, the `\n` does not) is refused at its number, and so
    /// is a line that is not UTF-8.
    fn feed_bytes(&mut self, bytes: &[u8], eof: bool, cap: usize) -> Result<usize, TraceTextError> {
        let mut rest = bytes;
        loop {
            if self.state == PState::Body {
                if let Some((rec, tail)) = lex_event(rest) {
                    if let Some(after) = past_line_end(tail, rest.len() - tail.len(), eof, cap) {
                        self.line_no += 1;
                        self.apply_event(self.line_no, &rec)?;
                        rest = after;
                        continue;
                    }
                } else if let Some((rec, tail)) = lex_message(rest) {
                    if let Some(after) = past_line_end(tail, rest.len() - tail.len(), eof, cap) {
                        self.line_no += 1;
                        self.apply_message(self.line_no, &rec)?;
                        rest = after;
                        continue;
                    }
                }
            }
            let (line, after, crlf) = match rest.iter().position(|b| *b == b'\n') {
                Some(nl) => {
                    let (line, after) = rest.split_at(nl);
                    (line, after.get(1..).unwrap_or_default(), true)
                }
                None if eof && !rest.is_empty() => (rest, <&[u8]>::default(), false),
                None => break,
            };
            if line.len() > cap {
                return line_too_long(self.line_no + 1, cap);
            }
            let Ok(line) = std::str::from_utf8(line) else {
                return err(self.line_no + 1, "line is not valid UTF-8");
            };
            let line = match line.strip_suffix('\r') {
                Some(stripped) if crlf => stripped,
                _ => line,
            };
            self.feed_line(line)?;
            rest = after;
        }
        Ok(bytes.len() - rest.len())
    }

    /// Feeds one framing-independent record — the single entry point every
    /// framing funnels into ([`TraceLineParser::feed_line`] after text
    /// parsing, the binary decoder in [`crate::binio`] directly). Each
    /// record counts toward [`TraceLineParser::lines_fed`] and appears as
    /// the `line` of any reported error, so binary callers get 1-based
    /// record numbers for free.
    ///
    /// # Errors
    ///
    /// [`TraceTextError`] on any out-of-order or inconsistent record,
    /// under exactly the rules the text path enforces. Feeding a record to
    /// a parser still expecting the text header fails; construct with
    /// [`TraceLineParser::without_header`] for headerless framings.
    pub fn feed_record(&mut self, rec: TraceRecord<'_>) -> Result<ParsedLine, TraceTextError> {
        self.line_no += 1;
        let ln = self.line_no;
        match self.state {
            PState::ExpectHeader => err(ln, "missing `abc-trace <version>` header"),
            PState::ExpectProcesses => match rec {
                TraceRecord::Processes(n) => self.apply_processes(ln, n),
                other => err(
                    ln,
                    format!("expected `processes <count>`, got {} record", other.kind()),
                ),
            },
            PState::ExpectFaulty => match rec {
                TraceRecord::Faulty(indices) => self.apply_faulty(ln, indices),
                other => err(
                    ln,
                    format!("expected `faulty …`, got {} record", other.kind()),
                ),
            },
            PState::Body => match rec {
                TraceRecord::DeclaredEvents(n) => self.apply_declared(ln, "events", n),
                TraceRecord::DeclaredMessages(n) => self.apply_declared(ln, "messages", n),
                TraceRecord::Event(e) => self.apply_event(ln, &e),
                TraceRecord::Message(m) => self.apply_message(ln, &m),
                TraceRecord::End => self.apply_end(ln),
                other => err(
                    ln,
                    format!("expected an `e`/`m`/`end` record, got {}", other.kind()),
                ),
            },
            PState::Done => err(ln, format!("trailing {} record after `end`", rec.kind())),
        }
    }

    fn feed_body_line(&mut self, ln: usize, l: &str) -> Result<ParsedLine, TraceTextError> {
        let mut words = l.split_whitespace();
        match words.next() {
            Some(key @ ("events" | "messages")) => {
                if self.seen_body_line {
                    return err(ln, format!("`{key}` count must precede all e/m lines"));
                }
                let n = Self::scalar(ln, l, key)?;
                self.apply_declared(ln, key, n)
            }
            Some("e") => {
                let rec = Self::parse_event_line(ln, l, words)?;
                self.apply_event(ln, &rec)
            }
            Some("m") => {
                let rec = Self::parse_message_line(ln, l, words)?;
                self.apply_message(ln, &rec)
            }
            Some("end") if l == "end" => self.apply_end(ln),
            _ => err(ln, format!("expected an `e`/`m`/`end` line, got {l:?}")),
        }
    }

    fn apply_processes(&mut self, ln: usize, n: usize) -> Result<ParsedLine, TraceTextError> {
        if let Some(cap) = self.max_processes {
            if n > cap {
                return err(ln, format!("processes {n} exceeds the cap of {cap}"));
            }
        }
        self.num_processes = n;
        self.state = PState::ExpectFaulty;
        Ok(ParsedLine::Meta)
    }

    fn apply_faulty(&mut self, ln: usize, indices: &[usize]) -> Result<ParsedLine, TraceTextError> {
        // In place: a parser re-armed by `reset` keeps the tables' capacity.
        self.faulty.clear();
        self.faulty.resize(self.num_processes, false);
        for &p in indices {
            let Some(slot) = self.faulty.get_mut(p) else {
                return err(ln, format!("faulty index {p} out of range"));
            };
            *slot = true;
        }
        self.has_init.clear();
        self.has_init.resize(self.num_processes, false);
        self.state = PState::Body;
        Ok(ParsedLine::Topology)
    }

    fn apply_declared(
        &mut self,
        ln: usize,
        key: &str,
        n: usize,
    ) -> Result<ParsedLine, TraceTextError> {
        if self.seen_body_line {
            return err(ln, format!("`{key}` count must precede all e/m lines"));
        }
        let slot = if key == "events" {
            &mut self.declared_events
        } else {
            &mut self.declared_messages
        };
        if slot.is_some() {
            return err(ln, format!("duplicate `{key}` count"));
        }
        *slot = Some(n);
        // Document mode sizes the table once, here — for the declared
        // lines, but no more of them than the input could hold at the
        // shortest spelling of such a line, newline included.
        if key == "events" {
            let fit = self.input_budget / "e 0 0 0 - 0 - 0\n".len();
            self.events.reserve_exact(n.min(fit));
        } else {
            let fit = self.input_budget / "m 0 0 0 - 0 -\n".len();
            self.messages.reserve_exact(n.min(fit));
        }
        Ok(ParsedLine::Meta)
    }

    fn apply_end(&mut self, ln: usize) -> Result<ParsedLine, TraceTextError> {
        if let Some(n) = self.declared_events {
            if n != self.events_seen {
                return err(ln, format!("declared {n} events, saw {}", self.events_seen));
            }
        }
        if let Some(n) = self.declared_messages {
            if n != self.messages_seen {
                return err(
                    ln,
                    format!("declared {n} messages, saw {}", self.messages_seen),
                );
            }
        }
        // The lowest such message, whichever table holds it.
        if let Some(p) = self.pending().min_by_key(|p| p.message) {
            return err(
                ln,
                format!(
                    "message {} declares receive event {}, which never arrived",
                    p.message, p.recv_event
                ),
            );
        }
        self.state = PState::Done;
        Ok(ParsedLine::End)
    }

    /// The general lexer for an `e` line `l`, given what follows its `e`.
    fn parse_event_line(
        ln: usize,
        l: &str,
        words: SplitWhitespace<'_>,
    ) -> Result<EventRecord, TraceTextError> {
        let Some([seq, process, time, trigger, received_only, label, distinguished]) =
            fields::<7>(words)
        else {
            return err(ln, format!("expected `e` line with 7 fields, got {l:?}"));
        };
        Ok(EventRecord {
            seq: Some(at(ln, required(opt_usize(seq), "seq"))?),
            process: at(ln, required(opt_usize(process), "process"))?,
            time: at(ln, required(opt_u64(time), "time"))?,
            trigger: at(ln, opt_usize(trigger))?,
            received_only: at(ln, flag(received_only))?,
            label: at(ln, opt_u64(label))?,
            distinguished: at(ln, flag(distinguished))?,
        })
    }

    /// The general lexer for an `m` line `l`, given what follows its `m`.
    fn parse_message_line(
        ln: usize,
        l: &str,
        words: SplitWhitespace<'_>,
    ) -> Result<MessageRecord, TraceTextError> {
        let Some([from, to, send_event, recv_event, send_time, recv_time]) = fields::<6>(words)
        else {
            return err(ln, format!("expected `m` line with 6 fields, got {l:?}"));
        };
        Ok(MessageRecord {
            from: at(ln, required(opt_usize(from), "from"))?,
            to: at(ln, required(opt_usize(to), "to"))?,
            send_event: at(ln, required(opt_usize(send_event), "send_event"))?,
            recv_event: at(ln, opt_usize(recv_event))?,
            send_time: at(ln, required(opt_u64(send_time), "send_time"))?,
            recv_time: at(ln, opt_u64(recv_time))?,
        })
    }

    fn apply_event(&mut self, ln: usize, rec: &EventRecord) -> Result<ParsedLine, TraceTextError> {
        self.seen_body_line = true;
        let seq = self.events_seen;
        if let Some(s) = rec.seq {
            if s != seq {
                return err(ln, format!("event seq {s}, expected {seq}"));
            }
        }
        if let Some(n) = self.declared_events {
            if seq >= n {
                return err(ln, format!("more than the declared {n} e lines"));
            }
        }
        if rec.process >= self.num_processes {
            return err(ln, format!("process {} out of range", rec.process));
        }
        let process = ProcessId(rec.process);
        let time = rec.time;
        let trigger = rec.trigger;
        let (received_only, label, distinguished) =
            (rec.received_only, rec.label, rec.distinguished);
        if self.events_seen > 0 && time < self.last_time {
            return err(ln, "event times must be non-decreasing");
        }
        // Streaming mode: the delivery declared for this event, if any.
        let due = match self.due.front() {
            Some(Some(p)) => Some(*p),
            _ if self.due_far.is_empty() => None,
            _ => self.due_far.get(&seq).copied(),
        };
        if let Some(p) = due {
            if trigger != Some(p.message) {
                return err(
                    ln,
                    format!(
                        "event {seq} was declared the receive of message {}, \
                         but its trigger is {}",
                        p.message,
                        Dash(trigger)
                    ),
                );
            }
        }
        let feed = match trigger {
            None => {
                // `process` was range-checked above, so `get_mut` always
                // hits; the indirection keeps the hot path panic-free.
                let Some(init) = self.has_init.get_mut(process.0) else {
                    return err(ln, format!("process {process} out of range"));
                };
                if *init {
                    return err(ln, format!("{process} has more than one wake-up event"));
                }
                *init = true;
                EventFeed::Init { seq, process }
            }
            Some(mi) => {
                if !self.has_init.get(process.0).copied().unwrap_or(false) {
                    return err(ln, format!("receive at {process} before its wake-up"));
                }
                if let Some(n) = self.declared_messages {
                    if mi >= n {
                        return err(ln, format!("trigger {mi} out of range"));
                    }
                }
                let send_event = if self.streaming {
                    // `due` names `mi` if it is `Some`; otherwise `mi` is
                    // pending at another event or not at all.
                    let Some(p) = due else {
                        return err(
                            ln,
                            match self.pending().find(|p| p.message == mi) {
                                Some(p) => format!(
                                    "message {mi} declares receive event {}, consumed at {seq}",
                                    p.recv_event
                                ),
                                None => format!(
                                    "trigger {mi} does not name a prior undelivered `m` line \
                                     (streaming order requires each message before its receive)"
                                ),
                            },
                        );
                    };
                    if p.to != process {
                        return err(
                            ln,
                            format!("message {mi} addressed to {}, received at {process}", p.to),
                        );
                    }
                    if p.recv_time != time {
                        return err(
                            ln,
                            format!(
                                "message {mi} recv_time {} != event time {time}",
                                p.recv_time
                            ),
                        );
                    }
                    Some(p.send_event)
                } else {
                    // Document mode: resolvable only if the `m` line already
                    // appeared (streaming order); canonical order resolves
                    // at finish().
                    self.messages.get(mi).map(|m| m.send_event)
                };
                EventFeed::Receive {
                    seq,
                    process,
                    send_event,
                }
            }
        };
        self.last_time = time;
        self.events_seen += 1;
        if self.streaming {
            self.event_meta.push((process, time));
            // This event's slot is spent; a delivery due now that was not
            // in it came from the spill.
            if self.due.pop_front().flatten().is_none() && due.is_some() {
                self.due_far.remove(&seq);
            }
        } else {
            self.events.push(TraceEvent {
                seq,
                process,
                time,
                trigger,
                received_only,
                label,
                distinguished,
            });
        }
        Ok(ParsedLine::Event(feed))
    }

    fn apply_message(
        &mut self,
        ln: usize,
        rec: &MessageRecord,
    ) -> Result<ParsedLine, TraceTextError> {
        self.seen_body_line = true;
        let index = self.messages_seen;
        if let Some(n) = self.declared_messages {
            if index >= n {
                return err(ln, format!("more than the declared {n} m lines"));
            }
        }
        let (from, to) = (rec.from, rec.to);
        if from >= self.num_processes || to >= self.num_processes {
            return err(
                ln,
                format!("endpoint out of range in message {index} (from p{from} to p{to})"),
            );
        }
        let send_event = rec.send_event;
        if send_event >= self.events_seen {
            return err(
                ln,
                format!(
                    "send_event {send_event} not yet seen (an `m` line must follow \
                     its sending `e` line)"
                ),
            );
        }
        let (recv_event, send_time, recv_time) = (rec.recv_event, rec.send_time, rec.recv_time);
        if recv_event.is_some() != recv_time.is_some() {
            return err(ln, "recv_event and recv_time must both be set or both `-`");
        }
        if let (Some(r), Some(rt)) = (recv_event, recv_time) {
            if r <= send_event {
                return err(
                    ln,
                    format!("message received (event {r}) no later than sent (event {send_event})"),
                );
            }
            if rt < send_time {
                return err(
                    ln,
                    format!("recv_time {rt} earlier than send_time {send_time}"),
                );
            }
            if let Some(n) = self.declared_events {
                if r >= n {
                    return err(ln, format!("recv_event {r} out of range"));
                }
            }
            if self.streaming {
                if r < self.events_seen {
                    return err(
                        ln,
                        format!(
                            "recv_event {r} already passed without naming this message \
                             (streaming order requires each message before its receive)"
                        ),
                    );
                }
                // An entry spilled earlier may lie within the span by now.
                let k = r - self.events_seen;
                let taken = matches!(self.due.get(k), Some(Some(_)))
                    || (!self.due_far.is_empty() && self.due_far.contains_key(&r));
                if taken {
                    return err(ln, format!("two messages declare receive event {r}"));
                }
                let p = PendingDelivery {
                    message: index,
                    to: ProcessId(to),
                    send_event,
                    recv_event: r,
                    recv_time: rt,
                };
                if k < DUE_SPAN {
                    if self.due.len() <= k {
                        self.due.resize(k + 1, None);
                    }
                    if let Some(slot) = self.due.get_mut(k) {
                        *slot = Some(p);
                    }
                } else {
                    self.due_far.insert(r, p);
                }
            }
        }
        // Both modes check the sender linkage immediately — the sending
        // event is always behind us (streaming mode via the compact
        // per-event metadata), so wire and file paths accept exactly the
        // same documents.
        let (sender_process, sender_time) = if self.streaming {
            if send_event < self.meta_cut {
                return err(
                    ln,
                    format!(
                        "send_event {send_event} is older than the prune horizon (events \
                         before {} were compacted)",
                        self.meta_cut
                    ),
                );
            }
            // In range: `send_event < events_seen` was checked on entry and
            // `>= meta_cut >= meta_base` just above; `get` keeps the path
            // panic-free.
            let Some(&meta) = self.event_meta.get(send_event - self.meta_base) else {
                return err(ln, format!("send_event {send_event} not yet seen"));
            };
            meta
        } else {
            let Some(sender) = self.events.get(send_event) else {
                return err(ln, format!("send_event {send_event} not yet seen"));
            };
            (sender.process, sender.time)
        };
        if sender_process.0 != from {
            return err(
                ln,
                format!(
                    "message {index} sent from p{from}, but event {send_event} is at \
                     {sender_process}"
                ),
            );
        }
        if sender_time != send_time {
            return err(
                ln,
                format!(
                    "message {index} send_time {send_time} != sending event time {sender_time}"
                ),
            );
        }
        if !self.streaming {
            self.messages.push(TraceMessage {
                from: ProcessId(from),
                to: ProcessId(to),
                send_event,
                recv_event,
                send_time,
                recv_time,
            });
        }
        self.messages_seen += 1;
        Ok(ParsedLine::Message {
            delivered: recv_event.is_some(),
        })
    }

    /// Completes a document-mode parse: verifies `end` was reached, runs
    /// the full event↔message cross validation, and returns the trace.
    ///
    /// # Errors
    ///
    /// [`TraceTextError`] on truncated input or any cross-reference
    /// inconsistency. Streaming-mode parsers have nothing to finish (they
    /// never store the document) and return an error.
    pub fn finish(self) -> Result<Trace, TraceTextError> {
        if self.streaming {
            return err(0, "finish() is for document-mode parsers");
        }
        match self.state {
            PState::Done => {}
            PState::ExpectHeader => return err(0, "unexpected end of input, expected header"),
            PState::ExpectProcesses => {
                return err(0, "unexpected end of input, expected processes")
            }
            PState::ExpectFaulty => return err(0, "unexpected end of input, expected faulty"),
            PState::Body => return err(0, "unexpected end of input, expected `end`"),
        }
        let (events, messages) = (self.events, self.messages);
        // Cross validation: the event/message references must describe one
        // consistent execution.
        for (idx, ev) in events.iter().enumerate() {
            if let Some(mi) = ev.trigger {
                let m = match messages.get(mi) {
                    Some(m) => m,
                    None => return err(0, format!("event {idx} trigger {mi} out of range")),
                };
                if m.recv_event != Some(idx) {
                    return err(
                        0,
                        format!(
                            "event {idx} claims trigger m{mi}, but m{mi} recv_event is {:?}",
                            m.recv_event
                        ),
                    );
                }
                if m.to != ev.process {
                    return err(
                        0,
                        format!("m{mi} addressed to {}, received at {}", m.to, ev.process),
                    );
                }
            }
        }
        for (mi, m) in messages.iter().enumerate() {
            if let (Some(r), Some(rt)) = (m.recv_event, m.recv_time) {
                let recv = match events.get(r) {
                    Some(recv) => recv,
                    None => return err(0, format!("m{mi} recv_event {r} out of range")),
                };
                if recv.trigger != Some(mi) {
                    return err(
                        0,
                        format!(
                            "m{mi} claims recv_event {r}, but event {r} has trigger {:?}",
                            recv.trigger
                        ),
                    );
                }
                if recv.time != rt {
                    return err(
                        0,
                        format!("m{mi} recv_time {rt} != receiving event time {}", recv.time),
                    );
                }
            }
        }
        Ok(Trace {
            num_processes: self.num_processes,
            events,
            messages,
            faulty: self.faulty,
        })
    }
}

/// Appends `rec` to `out` as its text line, without the line end: the one
/// place the grammar's records are spelled in text. An event record
/// without a `seq` (the binary framing carries it implicitly) is written
/// with `implicit_seq`. Numbers are spelled by `push_field`, not through
/// `core::fmt`: this writes every line of [`Trace::to_text`], of a saved
/// violation and of a forensics tail, and a formatter call per field was
/// most of its cost.
pub fn write_record_line(out: &mut String, rec: &WireRecord, implicit_seq: usize) {
    let word = |n: usize| Some(n as u64);
    match rec {
        WireRecord::Processes(n) => {
            out.push_str("processes");
            push_field(out, word(*n));
        }
        WireRecord::Faulty(v) => {
            out.push_str("faulty");
            for &p in v {
                push_field(out, word(p));
            }
        }
        WireRecord::DeclaredEvents(n) => {
            out.push_str("events");
            push_field(out, word(*n));
        }
        WireRecord::DeclaredMessages(n) => {
            out.push_str("messages");
            push_field(out, word(*n));
        }
        WireRecord::Event(e) => {
            out.push('e');
            push_field(out, word(e.seq.unwrap_or(implicit_seq)));
            push_field(out, word(e.process));
            push_field(out, Some(e.time));
            push_field(out, e.trigger.map(|t| t as u64));
            push_field(out, Some(u64::from(e.received_only)));
            push_field(out, e.label);
            push_field(out, Some(u64::from(e.distinguished)));
        }
        WireRecord::Message(m) => {
            out.push('m');
            push_field(out, word(m.from));
            push_field(out, word(m.to));
            push_field(out, word(m.send_event));
            push_field(out, m.recv_event.map(|r| r as u64));
            push_field(out, Some(m.send_time));
            push_field(out, m.recv_time);
        }
        WireRecord::End => out.push_str("end"),
        WireRecord::Xi(spec) => {
            out.push_str("xi ");
            out.push_str(spec);
        }
        WireRecord::Margin => out.push_str("margin"),
    }
}

/// Appends one field of a record line: a space, then `n` in decimal, or
/// `-` for `None`.
fn push_field(out: &mut String, n: Option<u64>) {
    out.push(' ');
    let Some(mut n) = n else {
        out.push('-');
        return;
    };
    // Least significant first, from the back; `u64::MAX` has 20 digits.
    let mut digits = [b'0'; 20];
    let mut len = 0;
    for digit in digits.iter_mut().rev() {
        *digit = b'0' + u8::try_from(n % 10).unwrap_or(0);
        len += 1;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(
        digits
            .iter()
            .skip(digits.len() - len)
            .map(|&d| char::from(d)),
    );
}

/// Appends `records` to `out` as a text document: the `abc-trace v1`
/// header line, then one [`write_record_line`] line per record, implicit
/// event `seq`s numbered from 0. [`Trace::to_text`],
/// [`Trace::to_stream_text`] and any caller that composes its own record
/// sequence write text through here.
pub fn write_text_document(out: &mut String, records: impl IntoIterator<Item = WireRecord>) {
    out.push_str("abc-trace ");
    out.push_str(TRACE_FORMAT_VERSION);
    out.push('\n');
    let mut seq = 0;
    for rec in records {
        write_record_line(out, &rec, seq);
        out.push('\n');
        seq += usize::from(matches!(rec, WireRecord::Event(_)));
    }
}

impl Trace {
    /// Serializes the trace into the canonical document order (see the
    /// [`crate::textio`] module docs for the grammar): all `e` lines in
    /// chronological order, then all `m` lines in send order.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(32 * (self.events.len() + self.messages.len()) + 64);
        let events = self
            .events
            .iter()
            .map(|ev| WireRecord::Event(EventRecord::of(ev, ev.trigger)));
        let messages = self
            .messages
            .iter()
            .map(|m| WireRecord::Message(MessageRecord::of(m)));
        let body = events.chain(messages).chain([WireRecord::End]);
        write_text_document(&mut out, self.header_records().into_iter().chain(body));
        out
    }

    /// Serializes the trace in *streaming* order, the records of
    /// [`Trace::to_stream_records`] as text lines: each delivered message's
    /// `m` line immediately precedes its receive `e` line (message indices
    /// renumbered to delivery order; undelivered messages trail before
    /// `end`). Every line is resolvable the moment it arrives, so the
    /// output can be fed to a [`TraceLineParser::new_streaming`] parser —
    /// and hence to the `abc-service` TCP ingestion protocol — line by
    /// line with O(in-flight) memory.
    #[must_use]
    pub fn to_stream_text(&self) -> String {
        let mut out = String::with_capacity(40 * (self.events.len() + self.messages.len()) + 64);
        write_text_document(&mut out, self.stream_records());
        out
    }

    /// Parses and validates a trace from the text format (either line
    /// order; see the module docs). The text is read in one scan that
    /// lexes each line as it finds its end (no line split precedes it),
    /// with the lines `str::lines` would yield and their numbers. The
    /// `events` / `messages` declarations size the trace's tables in one
    /// allocation each — for no more lines than `text.len()` bytes could
    /// hold, whatever they declare.
    ///
    /// # Errors
    ///
    /// [`TraceTextError`] with the offending line on malformed input, count
    /// mismatches, out-of-range indices, or inconsistent event↔message
    /// cross references.
    pub fn from_text(text: &str) -> Result<Trace, TraceTextError> {
        let mut parser = TraceLineParser::new_document();
        parser.input_budget = text.len();
        parser.feed_bytes(text.as_bytes(), true, usize::MAX)?;
        parser.finish()
    }

    /// Parses and validates a trace from a byte stream with a hard
    /// per-line length cap: the input text is never accumulated (a 100 MB
    /// line is rejected after O(`max_line_len`) buffered bytes). This is
    /// how the CLI reads trace files. Each read is scanned as
    /// [`Trace::from_text`] scans its text, and only the unterminated
    /// line at its end is kept for the next, so the lines, their numbers
    /// and their errors are `from_text`'s whatever the read sizes; the
    /// first error in line order wins, a line that is not UTF-8 or longer
    /// than the cap included. With no input length to go by, the declared
    /// counts size the tables up to what a 1 MiB document could hold
    /// (65 536 events, 74 898 messages); a longer document grows them by
    /// doubling from there.
    ///
    /// # Errors
    ///
    /// [`TraceTextError`] as for [`Trace::from_text`]; I/O errors are
    /// reported with line 0.
    pub fn from_reader(mut r: impl Read, max_line_len: usize) -> Result<Trace, TraceTextError> {
        let mut parser = TraceLineParser::new_document();
        parser.input_budget = READER_INPUT_BUDGET;
        // The unterminated line the last scan left, then the next read.
        let mut buf = vec![0u8; READ_LEN];
        let mut held = 0;
        loop {
            if held == buf.len() {
                // One line within the cap fills the buffer.
                buf.resize(2 * buf.len(), 0);
            }
            let n = match r.read(buf.get_mut(held..).unwrap_or_default()) {
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return err(0, format!("read error: {e}")),
            };
            let eof = n == 0;
            let fresh = buf.get(held..held + n).unwrap_or_default();
            held += n;
            if !eof && !fresh.contains(&b'\n') {
                // No line ends in this read: nothing to scan again, but the
                // unfinished line is refused as soon as it crosses the cap.
                if held > max_line_len {
                    return line_too_long(parser.line_no + 1, max_line_len);
                }
                continue;
            }
            let fed = parser.feed_bytes(buf.get(..held).unwrap_or_default(), eof, max_line_len)?;
            if eof {
                return parser.finish();
            }
            buf.copy_within(fed..held, 0);
            held -= fed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{BandDelay, Lossy};
    use crate::engine::{RunLimits, Simulation};
    use crate::process::{Context, Process};

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
    fn round_trip_preserves_everything() {
        let trace = sample_trace();
        let text = trace.to_text();
        let parsed = Trace::from_text(&text).unwrap();
        assert_eq!(parsed.num_processes(), trace.num_processes());
        assert_eq!(parsed.events(), trace.events());
        assert_eq!(parsed.messages(), trace.messages());
        for p in 0..trace.num_processes() {
            assert_eq!(
                parsed.is_faulty(ProcessId(p)),
                trace.is_faulty(ProcessId(p))
            );
        }
        // Second serialization is byte-identical (canonical form).
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn record_lines_match_the_v1_grammar() {
        let line = |rec: WireRecord, implicit_seq| {
            let mut out = String::new();
            write_record_line(&mut out, &rec, implicit_seq);
            out
        };
        assert_eq!(line(WireRecord::Processes(3), 0), "processes 3");
        assert_eq!(line(WireRecord::Faulty(vec![]), 0), "faulty");
        assert_eq!(line(WireRecord::Faulty(vec![1, 2]), 0), "faulty 1 2");
        assert_eq!(line(WireRecord::DeclaredEvents(4), 0), "events 4");
        assert_eq!(line(WireRecord::DeclaredMessages(2), 0), "messages 2");
        let event = EventRecord {
            seq: None,
            process: 1,
            time: 7,
            trigger: Some(0),
            received_only: false,
            label: None,
            distinguished: true,
        };
        assert_eq!(line(WireRecord::Event(event), 4), "e 4 1 7 0 0 - 1");
        let explicit = EventRecord {
            seq: Some(9),
            trigger: None,
            received_only: true,
            label: Some(12),
            ..event
        };
        assert_eq!(line(WireRecord::Event(explicit), 4), "e 9 1 7 - 1 12 1");
        let message = MessageRecord {
            from: 0,
            to: 1,
            send_event: 2,
            recv_event: None,
            send_time: 5,
            recv_time: None,
        };
        assert_eq!(line(WireRecord::Message(message), 0), "m 0 1 2 - 5 -");
        let delivered = MessageRecord {
            recv_event: Some(3),
            recv_time: Some(8),
            ..message
        };
        assert_eq!(line(WireRecord::Message(delivered), 0), "m 0 1 2 3 5 8");
        assert_eq!(line(WireRecord::End, 0), "end");
        assert_eq!(line(WireRecord::Xi("3/2".to_string()), 0), "xi 3/2");
        assert_eq!(line(WireRecord::Margin, 0), "margin");
    }

    /// The record line as `core::fmt` spells it, the reference for the
    /// digit writer.
    fn formatted(rec: &WireRecord, implicit_seq: usize) -> String {
        match rec {
            WireRecord::Processes(n) => format!("processes {n}"),
            WireRecord::Faulty(v) => v
                .iter()
                .fold("faulty".to_string(), |l, p| l + &format!(" {p}")),
            WireRecord::DeclaredEvents(n) => format!("events {n}"),
            WireRecord::DeclaredMessages(n) => format!("messages {n}"),
            WireRecord::Event(e) => format!(
                "e {} {} {} {} {} {} {}",
                e.seq.unwrap_or(implicit_seq),
                e.process,
                e.time,
                Dash(e.trigger),
                u8::from(e.received_only),
                Dash(e.label),
                u8::from(e.distinguished),
            ),
            WireRecord::Message(m) => format!(
                "m {} {} {} {} {} {}",
                m.from,
                m.to,
                m.send_event,
                Dash(m.recv_event),
                m.send_time,
                Dash(m.recv_time),
            ),
            WireRecord::End => "end".to_string(),
            WireRecord::Xi(spec) => format!("xi {spec}"),
            WireRecord::Margin => "margin".to_string(),
        }
    }

    /// Random records, every number field drawn from every digit count up
    /// to `u64::MAX` (and `usize::MAX`), every optional field also `-`,
    /// spelled by `write_record_line` exactly as `core::fmt` spells them,
    /// one after another into one buffer.
    #[test]
    fn record_lines_spell_numbers_as_the_formatter_does() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        // A number of a random digit count, often an edge.
        let mut number = move || -> u64 {
            let x = next();
            match x % 8 {
                0 => u64::MAX,
                1 => 0,
                2 => 10u64.pow((x >> 8) as u32 % 20) - 1,
                3 => 10u64.pow((x >> 8) as u32 % 20),
                _ => x >> (x % 64),
            }
        };
        let mut out = String::new();
        let mut want = String::new();
        for i in 0..20_000usize {
            let mut n = || number();
            let opt = |n: u64| (n % 3 != 0).then_some(n);
            let size = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
            let rec = match i % 6 {
                0 => WireRecord::Event(EventRecord {
                    seq: opt(n()).map(size),
                    process: size(n()),
                    time: n(),
                    trigger: opt(n()).map(size),
                    received_only: n() % 2 == 0,
                    label: opt(n()),
                    distinguished: n() % 2 == 1,
                }),
                1 => WireRecord::Message(MessageRecord {
                    from: size(n()),
                    to: size(n()),
                    send_event: size(n()),
                    recv_event: opt(n()).map(size),
                    send_time: n(),
                    recv_time: opt(n()),
                }),
                2 => WireRecord::Faulty((0..n() % 4).map(|_| size(n())).collect()),
                3 => WireRecord::Processes(size(n())),
                4 => WireRecord::DeclaredEvents(size(n())),
                _ => WireRecord::DeclaredMessages(size(n())),
            };
            let implicit = size(n());
            write_record_line(&mut out, &rec, implicit);
            out.push('\n');
            want.push_str(&formatted(&rec, implicit));
            want.push('\n');
        }
        assert!(want.contains(&format!(" {}", u64::MAX)) && want.contains(" - "));
        assert_eq!(out, want);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let trace = sample_trace();
        let mut text = String::from("# captured by test\n\n");
        text.push_str(&trace.to_text());
        text.push_str("\n# trailing comment\n");
        let parsed = Trace::from_text(&text).unwrap();
        assert_eq!(parsed.events(), trace.events());
    }

    #[test]
    fn parser_rejects_corrupted_input() {
        let text = sample_trace().to_text();
        // Version mismatch.
        assert!(
            Trace::from_text(&text.replace("abc-trace v1", "abc-trace v9"))
                .unwrap_err()
                .to_string()
                .contains("version")
        );
        // Truncated: drop the last two lines (one m line + end).
        let truncated: Vec<&str> = text.lines().collect();
        let truncated = truncated[..truncated.len() - 2].join("\n");
        assert!(Trace::from_text(&truncated).is_err());
        // Cross-reference corruption: retarget a delivered message.
        let broken = text.replacen("m 0 1", "m 0 2", 1);
        if broken != text {
            assert!(Trace::from_text(&broken).is_err());
        }
        // Count corruption.
        let broken = text.replacen("events ", "events 9", 1);
        assert!(Trace::from_text(&broken).is_err());
        // Trailing garbage after `end`.
        let broken = format!("{text}e 99 0 0 - 0 - 0\n");
        assert!(Trace::from_text(&broken).is_err());
        // A header keyword run into its value, as the body never allowed.
        for (key, glued) in [("processes ", "processes"), ("faulty ", "faulty")] {
            let broken = text.replacen(key, glued, 1);
            assert_ne!(broken, text);
            let e = Trace::from_text(&broken).unwrap_err();
            assert!(e.message.starts_with("expected `"), "{e}");
        }
    }

    #[test]
    fn parser_rejects_wakeup_order_violations() {
        // A receive before the process's wake-up used to slip through
        // parsing and panic the graph builder downstream; now it is a
        // parse error in both modes.
        let text = "abc-trace v1\nprocesses 2\nfaulty\nevents 2\nmessages 1\n\
                    e 0 0 0 - 0 - 0\ne 1 1 3 0 0 - 0\nm 0 1 0 1 0 3\nend\n";
        let e = Trace::from_text(text).unwrap_err();
        assert!(e.message.contains("before its wake-up"), "{e}");
        // Two wake-ups at one process.
        let text = "abc-trace v1\nprocesses 1\nfaulty\nevents 2\nmessages 0\n\
                    e 0 0 0 - 0 - 0\ne 1 0 3 - 0 - 0\nend\n";
        let e = Trace::from_text(text).unwrap_err();
        assert!(e.message.contains("more than one wake-up"), "{e}");
    }

    #[test]
    fn parsed_traces_check_like_captured_ones() {
        use abc_core::{check, Xi};
        let trace = sample_trace();
        let parsed = Trace::from_text(&trace.to_text()).unwrap();
        let (g0, g1) = (trace.to_execution_graph(), parsed.to_execution_graph());
        assert_eq!(g0, g1);
        let xi = Xi::from_integer(3);
        assert_eq!(
            check::is_admissible(&g0, &xi).unwrap(),
            check::is_admissible(&g1, &xi).unwrap()
        );
        let mon = parsed.replay_into_monitor(&xi).unwrap();
        assert_eq!(mon.is_admissible(), check::is_admissible(&g1, &xi).unwrap());
    }

    #[test]
    fn stream_text_parses_to_the_same_execution() {
        use abc_core::{check, Xi};
        let trace = sample_trace();
        let stream = trace.to_stream_text();
        // Document-mode parse of streaming order: same execution graph
        // (messages are permuted to delivery order, which the graph
        // conversion normalizes away).
        let parsed = Trace::from_text(&stream).unwrap();
        assert_eq!(parsed.events().len(), trace.events().len());
        assert_eq!(parsed.messages().len(), trace.messages().len());
        assert_eq!(parsed.to_execution_graph(), trace.to_execution_graph());
        let xi = Xi::from_integer(2);
        assert_eq!(
            check::is_admissible(&parsed.to_execution_graph(), &xi).unwrap(),
            check::is_admissible(&trace.to_execution_graph(), &xi).unwrap()
        );
    }

    #[test]
    fn streaming_parser_feeds_a_monitor_line_by_line() {
        use abc_core::monitor::IncrementalChecker;
        use abc_core::{EventId, Xi};
        let trace = sample_trace();
        let xi = Xi::from_integer(2);
        let mut parser = TraceLineParser::new_streaming();
        let mut mon: Option<IncrementalChecker> = None;
        for line in trace.to_stream_text().lines() {
            match parser.feed_line(line).unwrap() {
                ParsedLine::Topology => {
                    let (n, faulty) = parser.topology().unwrap();
                    let mut m = IncrementalChecker::new(n, &xi).unwrap();
                    for (p, f) in faulty.iter().enumerate() {
                        if *f {
                            m.mark_faulty(ProcessId(p));
                        }
                    }
                    mon = Some(m);
                }
                ParsedLine::Event(EventFeed::Init { process, .. }) => {
                    mon.as_mut().unwrap().append_init(process);
                }
                ParsedLine::Event(EventFeed::Receive {
                    process,
                    send_event,
                    ..
                }) => {
                    mon.as_mut()
                        .unwrap()
                        .append_send(EventId(send_event.unwrap()), process);
                }
                ParsedLine::Meta | ParsedLine::Message { .. } | ParsedLine::End => {}
            }
        }
        assert!(parser.is_done());
        assert_eq!(parser.events_seen(), trace.events().len());
        let mon = mon.unwrap();
        let offline = trace.replay_into_monitor(&xi).unwrap();
        assert_eq!(mon.graph(), offline.graph());
        assert_eq!(mon.is_admissible(), offline.is_admissible());
    }

    #[test]
    fn streaming_parser_has_no_document_memory() {
        // In streaming order the due ring tracks only in-flight messages;
        // the document itself is never stored.
        let trace = sample_trace();
        let mut parser = TraceLineParser::new_streaming();
        let mut max_pending = 0usize;
        for line in trace.to_stream_text().lines() {
            parser.feed_line(line).unwrap();
            max_pending = max_pending.max(parser.pending().count());
        }
        assert!(parser.is_done());
        assert!(parser.events.is_empty() && parser.messages.is_empty());
        // In to_stream_text order every delivered message immediately
        // precedes its receive, so at most one delivery is ever pending.
        assert!(max_pending <= 1, "pending grew to {max_pending}");
    }

    #[test]
    fn streaming_and_document_modes_reject_the_same_corruptions() {
        // A lying sender linkage (wrong `from`, wrong send_time) must be
        // rejected by BOTH modes — otherwise a network server would accept
        // bytes that an offline file re-check rejects.
        let stream = sample_trace().to_stream_text();
        let m_line = stream
            .lines()
            .find(|l| l.starts_with("m "))
            .expect("stream has messages")
            .to_string();
        let fields: Vec<&str> = m_line.split_whitespace().collect();
        let wrong_from = format!(
            "m {} {} {} {} {} {}",
            (fields[1].parse::<usize>().unwrap() + 1) % 3,
            fields[2],
            fields[3],
            fields[4],
            fields[5],
            fields[6]
        );
        let wrong_time = format!(
            "m {} {} {} {} {} {}",
            fields[1],
            fields[2],
            fields[3],
            fields[4],
            fields[5].parse::<u64>().unwrap() + 1_000,
            fields[6]
        );
        let corruptions = [
            (m_line.as_str(), wrong_from.as_str()),
            (m_line.as_str(), wrong_time.as_str()),
            ("processes 3", "processes3"),
            ("faulty 1", "faulty1"),
        ];
        for (line, corrupted) in corruptions {
            let text = stream.replacen(line, corrupted, 1);
            assert_ne!(text, stream);
            assert!(Trace::from_text(&text).is_err(), "document mode accepts");
            let mut parser = TraceLineParser::new_streaming();
            let streaming_rejects = text.lines().any(|l| parser.feed_line(l).is_err());
            assert!(streaming_rejects, "streaming mode accepts: {corrupted}");
        }
    }

    #[test]
    fn streaming_parser_rejects_document_order() {
        // Canonical document order defers m lines to the end; a streaming
        // parser must reject the first unresolved trigger, not buffer.
        let text = sample_trace().to_text();
        let mut parser = TraceLineParser::new_streaming();
        let mut failed = false;
        for line in text.lines() {
            if parser.feed_line(line).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "document order must not stream-parse");
    }

    /// Everything a caller can see of a parser fed `lines`: each line's
    /// result, then the accessors.
    fn transcript(parser: &mut TraceLineParser, lines: &[&str]) -> Vec<String> {
        let mut seen: Vec<String> = lines
            .iter()
            .map(|l| format!("{:?}", parser.feed_line(l)))
            .collect();
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

    #[test]
    fn a_reset_parser_is_indistinguishable_from_a_new_one() {
        let stream = sample_trace().to_stream_text();
        let whole: Vec<&str> = stream.lines().collect();
        // Two deliveries promised and never made (no counts declared, so
        // only `end` can notice): the error names the lower message,
        // whatever the tables held before.
        let stood_up = "abc-trace v1\nprocesses 2\nfaulty 1\ne 0 0 0 - 0 - 1\n\
                        e 1 1 0 - 0 - 1\nm 0 1 0 9 0 4\nm 1 0 1 8 0 5\nend";
        let documents: Vec<Vec<&str>> = vec![
            whole.clone(),
            whole[..whole.len() / 2].to_vec(),
            whole[..2].to_vec(),
            whole
                .iter()
                .map(|l| if l.starts_with("e 7 ") { "e seven" } else { l })
                .collect(),
            stood_up.lines().collect(),
            vec!["processes 3", "faulty 0 2", "e 0 1 0 - 0 - 1", "end"],
            vec![],
        ];
        for (a, first) in documents.iter().enumerate() {
            for (b, second) in documents.iter().enumerate() {
                for streaming in [true, false] {
                    for expect_header in [true, false] {
                        let new = || {
                            let p = TraceLineParser::new(streaming).with_max_processes(3);
                            if expect_header {
                                p
                            } else {
                                p.without_header()
                            }
                        };
                        let mut reused = new();
                        // The first document arrives in the other framing.
                        reused.reset(!expect_header);
                        transcript(&mut reused, first);
                        if streaming {
                            reused.forget_events_below(usize::MAX);
                        }
                        reused.reset(expect_header);
                        assert_eq!(
                            transcript(&mut reused, second),
                            transcript(&mut new(), second),
                            "{a} then {b}, streaming {streaming}, header {expect_header}"
                        );
                    }
                }
            }
        }
        let mut parser = TraceLineParser::new_streaming();
        let last = transcript(&mut parser, &documents[4]).swap_remove(7);
        assert!(
            last.contains("message 0 declares receive event 9"),
            "{last}"
        );
    }

    #[test]
    fn a_second_identical_document_after_reset_grows_no_capacity() {
        let stream = sample_trace().to_stream_text();
        let lines: Vec<&str> = stream.lines().collect();
        let mut parser = TraceLineParser::new_streaming();
        let first = transcript(&mut parser, &lines);
        assert!(parser.is_done());
        let capacities = |p: &TraceLineParser| {
            [
                p.faulty.capacity(),
                p.has_init.capacity(),
                p.event_meta.capacity(),
                p.due.capacity(),
            ]
        };
        let before = capacities(&parser);
        assert!(before.iter().all(|c| *c > 0), "{before:?}");
        parser.reset(true);
        assert_eq!(transcript(&mut parser, &lines), first);
        assert_eq!(capacities(&parser), before, "the second run allocated");
    }

    /// A two-process streaming document under construction: both
    /// wake-ups, then whatever the caller adds. Event `seq ≥ 2` is at
    /// process `seq % 2` and time `seq`.
    struct Ahead {
        lines: Vec<String>,
        events: usize,
        messages: usize,
    }

    impl Ahead {
        fn new() -> Ahead {
            let wake_ups = "abc-trace v1\nprocesses 2\nfaulty\ne 0 0 0 - 0 - 0\ne 1 1 0 - 0 - 0";
            Ahead {
                lines: wake_ups.lines().map(str::to_string).collect(),
                events: 2,
                messages: 0,
            }
        }

        fn line(&mut self, l: &str) {
            self.lines.push(l.to_string());
        }

        /// Declares a message for receive event `r` at `r % 2`, sent at the
        /// other process's wake-up.
        fn declare(&mut self, r: usize) {
            let to = r % 2;
            self.line(&format!("m {} {to} {} {r} 0 {r}", 1 - to, 1 - to));
            self.messages += 1;
        }

        /// Delivers one message per event, each `m` line just before its
        /// receive, until `upto` events have been seen.
        fn fill_to(&mut self, upto: usize) {
            while self.events < upto {
                let seq = self.events;
                let sent_at = if seq - 1 < 2 { 0 } else { seq - 1 };
                self.line(&format!(
                    "m {} {} {} {seq} {sent_at} {seq}",
                    1 - seq % 2,
                    seq % 2,
                    seq - 1
                ));
                self.line(&format!(
                    "e {seq} {} {seq} {} 0 - 0",
                    seq % 2,
                    self.messages
                ));
                self.messages += 1;
                self.events += 1;
            }
        }

        /// The result of the last line, with the watermark before it.
        fn last(&self) -> String {
            let mut parser = TraceLineParser::new_streaming();
            let (body, tail) = self.lines.split_at(self.lines.len() - 1);
            for l in body {
                parser.feed_line(l).unwrap();
            }
            let watermark = parser.oldest_pending_send();
            format!("{watermark:?} {:?}", parser.feed_line(&tail[0]))
        }
    }

    #[test]
    fn deliveries_declared_far_ahead_are_refused_in_the_same_words() {
        // Declared at event 2: in the ring's first and last slots, then
        // in the spill.
        let mut seen = Vec::new();
        for d in [1, DUE_SPAN - 1, DUE_SPAN, DUE_SPAN + 6] {
            let r = 2 + d;
            let (to, other) = (r % 2, 1 - r % 2);
            let mut cases: Vec<Ahead> = Vec::new();
            // Event r was promised to message 0 but names another message.
            for trigger in ["-", "last"] {
                let mut doc = Ahead::new();
                doc.declare(r);
                doc.fill_to(r);
                let trigger = if trigger == "-" {
                    "-".to_string()
                } else {
                    (doc.messages - 1).to_string()
                };
                doc.line(&format!("e {r} {to} {r} {trigger} 0 - 0"));
                cases.push(doc);
            }
            // A trigger naming no pending message, and message 0 early.
            for trigger in [77, 0] {
                let mut doc = Ahead::new();
                doc.declare(r);
                doc.line(&format!("e 2 0 2 {trigger} 0 - 0"));
                cases.push(doc);
            }
            // Message 0 at the wrong process, and at the wrong time.
            for (process, time) in [(other, r), (to, r + 1)] {
                let mut doc = Ahead::new();
                doc.declare(r);
                doc.fill_to(r);
                doc.line(&format!("e {r} {process} {time} 0 0 - 0"));
                cases.push(doc);
            }
            // Two messages for event r: declared together, and the second
            // one event before r.
            for fill in [2, r - 1] {
                let mut doc = Ahead::new();
                doc.declare(r);
                doc.fill_to(fill);
                doc.declare(r);
                cases.push(doc);
            }
            // `end` before r: message 0 alone, then beside a message
            // declared on the other side of the span.
            for second in [None, Some(if d == 1 { 2 + DUE_SPAN + 6 } else { 3 })] {
                let mut doc = Ahead::new();
                doc.declare(r);
                if let Some(s) = second {
                    doc.declare(s);
                }
                doc.line("end");
                cases.push(doc);
            }
            // Delivered where it was promised.
            let mut doc = Ahead::new();
            doc.declare(r);
            doc.fill_to(r);
            doc.line(&format!("e {r} {to} {r} 0 0 - 0"));
            cases.push(doc);
            seen.extend(cases.iter().map(|doc| format!("{d}: {}", doc.last())));
        }
        // Recorded from the hash-map validator this ring replaced: one
        // row per case, the watermark before its last line and that
        // line's result.
        let golden = [
            r#"1: Some(0) Err(TraceTextError { line: 9, message: "event 3 was declared the receive of message 0, but its trigger is -" })"#,
            r#"1: Some(0) Err(TraceTextError { line: 9, message: "event 3 was declared the receive of message 0, but its trigger is 1" })"#,
            r#"1: Some(0) Err(TraceTextError { line: 7, message: "trigger 77 does not name a prior undelivered `m` line (streaming order requires each message before its receive)" })"#,
            r#"1: Some(0) Err(TraceTextError { line: 7, message: "message 0 declares receive event 3, consumed at 2" })"#,
            r#"1: Some(0) Err(TraceTextError { line: 9, message: "message 0 addressed to p1, received at p0" })"#,
            r#"1: Some(0) Err(TraceTextError { line: 9, message: "message 0 recv_time 3 != event time 4" })"#,
            r#"1: Some(0) Err(TraceTextError { line: 7, message: "two messages declare receive event 3" })"#,
            r#"1: Some(0) Err(TraceTextError { line: 7, message: "two messages declare receive event 3" })"#,
            r#"1: Some(0) Err(TraceTextError { line: 7, message: "message 0 declares receive event 3, which never arrived" })"#,
            r#"1: Some(0) Err(TraceTextError { line: 8, message: "message 0 declares receive event 3, which never arrived" })"#,
            r#"1: Some(0) Ok(Event(Receive { seq: 3, process: ProcessId(1), send_event: Some(0) }))"#,
            r#"1023: Some(0) Err(TraceTextError { line: 2053, message: "event 1025 was declared the receive of message 0, but its trigger is -" })"#,
            r#"1023: Some(0) Err(TraceTextError { line: 2053, message: "event 1025 was declared the receive of message 0, but its trigger is 1023" })"#,
            r#"1023: Some(0) Err(TraceTextError { line: 7, message: "trigger 77 does not name a prior undelivered `m` line (streaming order requires each message before its receive)" })"#,
            r#"1023: Some(0) Err(TraceTextError { line: 7, message: "message 0 declares receive event 1025, consumed at 2" })"#,
            r#"1023: Some(0) Err(TraceTextError { line: 2053, message: "message 0 addressed to p1, received at p0" })"#,
            r#"1023: Some(0) Err(TraceTextError { line: 2053, message: "message 0 recv_time 1025 != event time 1026" })"#,
            r#"1023: Some(0) Err(TraceTextError { line: 7, message: "two messages declare receive event 1025" })"#,
            r#"1023: Some(0) Err(TraceTextError { line: 2051, message: "two messages declare receive event 1025" })"#,
            r#"1023: Some(0) Err(TraceTextError { line: 7, message: "message 0 declares receive event 1025, which never arrived" })"#,
            r#"1023: Some(0) Err(TraceTextError { line: 8, message: "message 0 declares receive event 1025, which never arrived" })"#,
            r#"1023: Some(0) Ok(Event(Receive { seq: 1025, process: ProcessId(1), send_event: Some(0) }))"#,
            r#"1024: Some(1) Err(TraceTextError { line: 2055, message: "event 1026 was declared the receive of message 0, but its trigger is -" })"#,
            r#"1024: Some(1) Err(TraceTextError { line: 2055, message: "event 1026 was declared the receive of message 0, but its trigger is 1024" })"#,
            r#"1024: Some(1) Err(TraceTextError { line: 7, message: "trigger 77 does not name a prior undelivered `m` line (streaming order requires each message before its receive)" })"#,
            r#"1024: Some(1) Err(TraceTextError { line: 7, message: "message 0 declares receive event 1026, consumed at 2" })"#,
            r#"1024: Some(1) Err(TraceTextError { line: 2055, message: "message 0 addressed to p0, received at p1" })"#,
            r#"1024: Some(1) Err(TraceTextError { line: 2055, message: "message 0 recv_time 1026 != event time 1027" })"#,
            r#"1024: Some(1) Err(TraceTextError { line: 7, message: "two messages declare receive event 1026" })"#,
            r#"1024: Some(1) Err(TraceTextError { line: 2053, message: "two messages declare receive event 1026" })"#,
            r#"1024: Some(1) Err(TraceTextError { line: 7, message: "message 0 declares receive event 1026, which never arrived" })"#,
            r#"1024: Some(0) Err(TraceTextError { line: 8, message: "message 0 declares receive event 1026, which never arrived" })"#,
            r#"1024: Some(1) Ok(Event(Receive { seq: 1026, process: ProcessId(0), send_event: Some(1) }))"#,
            r#"1030: Some(1) Err(TraceTextError { line: 2067, message: "event 1032 was declared the receive of message 0, but its trigger is -" })"#,
            r#"1030: Some(1) Err(TraceTextError { line: 2067, message: "event 1032 was declared the receive of message 0, but its trigger is 1030" })"#,
            r#"1030: Some(1) Err(TraceTextError { line: 7, message: "trigger 77 does not name a prior undelivered `m` line (streaming order requires each message before its receive)" })"#,
            r#"1030: Some(1) Err(TraceTextError { line: 7, message: "message 0 declares receive event 1032, consumed at 2" })"#,
            r#"1030: Some(1) Err(TraceTextError { line: 2067, message: "message 0 addressed to p0, received at p1" })"#,
            r#"1030: Some(1) Err(TraceTextError { line: 2067, message: "message 0 recv_time 1032 != event time 1033" })"#,
            r#"1030: Some(1) Err(TraceTextError { line: 7, message: "two messages declare receive event 1032" })"#,
            r#"1030: Some(1) Err(TraceTextError { line: 2065, message: "two messages declare receive event 1032" })"#,
            r#"1030: Some(1) Err(TraceTextError { line: 7, message: "message 0 declares receive event 1032, which never arrived" })"#,
            r#"1030: Some(0) Err(TraceTextError { line: 8, message: "message 0 declares receive event 1032, which never arrived" })"#,
            r#"1030: Some(1) Ok(Event(Receive { seq: 1032, process: ProcessId(0), send_event: Some(1) }))"#,
        ];
        assert_eq!(seen, golden);
    }

    #[test]
    fn line_assembler_caps_malicious_lines_early() {
        // A "100 MB line" arrives in chunks and must be rejected as soon
        // as the cap is crossed — long before 100 MB is buffered.
        let cap = 4 * 1024;
        let mut asm = LineAssembler::new(cap);
        let chunk = vec![b'a'; 1024];
        let mut pushed = 0usize;
        let mut failed_at = None;
        for _ in 0..(100 * 1024) {
            pushed += chunk.len();
            if let Err(e) = asm.push(&chunk) {
                failed_at = Some((pushed, e));
                break;
            }
        }
        let (pushed, e) = failed_at.expect("cap never tripped");
        assert!(e.message.contains("exceeds"), "{e}");
        assert!(
            pushed <= 2 * cap,
            "cap tripped only after {pushed} bytes (cap {cap})"
        );
        assert!(asm.partial_len() <= cap);
        // And the error is sticky.
        assert!(asm.push(b"x\n").is_err());
    }

    #[test]
    fn from_reader_rejects_a_100mb_line_early() {
        /// Yields `total` bytes of 'a' with no newline, counting reads.
        struct LongLine {
            total: usize,
            served: usize,
        }
        impl Read for LongLine {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = buf.len().min(self.total - self.served);
                buf[..n].fill(b'a');
                self.served += n;
                Ok(n)
            }
        }
        let mut src = LongLine {
            total: 100 * 1024 * 1024,
            served: 0,
        };
        let e = Trace::from_reader(&mut src, DEFAULT_MAX_LINE_LEN).unwrap_err();
        assert!(e.message.contains("exceeds"), "{e}");
        // Rejected early: we consumed only O(cap), not the full 100 MB.
        assert!(
            src.served <= 4 * DEFAULT_MAX_LINE_LEN,
            "consumed {} bytes before rejecting",
            src.served
        );
        // A well-formed `e` line the fast path could lex is still held to
        // the cap, at its own line, whether or not a `\n` ends it.
        let text = sample_trace().to_text();
        let (at, line) = text
            .lines()
            .enumerate()
            .find(|(_, l)| l.starts_with("e "))
            .unwrap();
        let cap = line.len() - 1;
        for text in [&text[..], &text[..text.find(line).unwrap() + line.len()]] {
            let e = Trace::from_reader(text.as_bytes(), cap).unwrap_err();
            assert_eq!(
                (e.line, e.message),
                (at + 1, format!("line exceeds {cap} bytes"))
            );
        }
        // One byte more and that line passes.
        let e = Trace::from_reader(text.as_bytes(), cap + 1).unwrap_err();
        assert!(e.line > at + 1, "{e}");
    }

    #[test]
    fn from_reader_matches_from_text() {
        let trace = sample_trace();
        let text = trace.to_text();
        let parsed = Trace::from_reader(text.as_bytes(), DEFAULT_MAX_LINE_LEN).unwrap();
        assert_eq!(parsed.events(), trace.events());
        assert_eq!(parsed.messages(), trace.messages());
        // A file missing its final newline, one whose last line ends in a
        // lone `\r`, and a CRLF file read as `from_text` reads them, in one
        // read and a byte at a time.
        let crlf = text.replace('\n', "\r\n");
        let variants = [
            text.trim_end().to_string(),
            format!("{}\r", text.trim_end()),
            crlf.clone(),
            crlf.trim_end().to_string(),
        ];
        for variant in &variants {
            let whole = Trace::from_reader(variant.as_bytes(), DEFAULT_MAX_LINE_LEN).unwrap();
            let by_byte = Trace::from_reader(OneByte(variant.as_bytes()), DEFAULT_MAX_LINE_LEN);
            let by_text = Trace::from_text(variant).unwrap();
            assert_eq!(whole.to_text(), text);
            assert_eq!(by_byte.unwrap().to_text(), text);
            assert_eq!(by_text.to_text(), text);
        }
        // The first error in line order wins at any read size: a bad `seq`
        // at line 6 comes before a comment that is not UTF-8 at line 8.
        let mut lines: Vec<Vec<u8>> = text.lines().map(|l| l.as_bytes().to_vec()).collect();
        assert!(lines[5].starts_with(b"e 0 "), "{:?}", lines[5]);
        lines[5][2] = b'5';
        lines.insert(7, b"# \xff".to_vec());
        let bytes = lines.join(&b'\n');
        let whole = Trace::from_reader(&bytes[..], DEFAULT_MAX_LINE_LEN).unwrap_err();
        let by_byte = Trace::from_reader(OneByte(&bytes), DEFAULT_MAX_LINE_LEN).unwrap_err();
        for e in [whole, by_byte] {
            assert_eq!(
                (e.line, e.message),
                (6, "event seq 5, expected 0".to_string())
            );
        }
    }

    /// Serves its bytes one per read.
    struct OneByte<'a>(&'a [u8]);

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some((first, rest)) = self.0.split_first() else {
                return Ok(0);
            };
            buf[0] = *first;
            self.0 = rest;
            Ok(1)
        }
    }

    /// A wake-up per process, then `events - 2` deliveries bounced
    /// between two processes: a canonical document of any size.
    fn ping_pong(events: usize) -> Trace {
        let mut text = format!(
            "abc-trace v1\nprocesses 2\nfaulty\nevents {events}\nmessages {}\n\
             e 0 0 0 - 0 - 0\ne 1 1 0 - 0 - 0\n",
            events - 2
        );
        for seq in 2..events {
            text.push_str(&format!("e {seq} {} {seq} {} 0 - 0\n", seq % 2, seq - 2));
        }
        for seq in 2..events {
            let (to, sent) = (seq % 2, seq - 1);
            let sent_at = if sent == 1 { 0 } else { sent };
            text.push_str(&format!("m {} {to} {sent} {seq} {sent_at} {seq}\n", 1 - to));
        }
        text.push_str("end\n");
        Trace::from_text(&text).unwrap()
    }

    #[test]
    fn a_forgetting_parser_holds_at_most_twice_its_window() {
        let stream = ping_pong(20_000).to_stream_text();
        // No counts, no `end`: one more message may follow.
        let body: Vec<&str> = stream
            .lines()
            .filter(|l| !(l.starts_with("messages ") || *l == "end"))
            .collect();
        for horizon in [1, 256, 4_096] {
            let mut parser = TraceLineParser::new_streaming();
            for line in &body {
                if let ParsedLine::Event(_) = parser.feed_line(line).unwrap() {
                    // The session's watermark.
                    let seen = parser.events_seen();
                    let mut watermark = seen.saturating_sub(horizon);
                    if let Some(oldest) = parser.oldest_pending_send() {
                        watermark = watermark.min(oldest);
                    }
                    parser.forget_events_below(watermark);
                    let window = seen - parser.meta_cut;
                    assert!(
                        parser.event_meta.len() <= 2 * window + 1,
                        "horizon {horizon}, event {seen}: {} held",
                        parser.event_meta.len()
                    );
                }
            }
            let cut = parser.meta_cut;
            assert_eq!(cut, 20_000 - horizon);
            // Event `cut - 1` is at process `(cut - 1) % 2` and time `cut - 1`.
            let below = format!("m {} 0 {} - {} -", (cut - 1) % 2, cut - 1, cut - 1);
            let e = parser.feed_line(&below).unwrap_err();
            assert_eq!(
                e.message,
                format!(
                    "send_event {} is older than the prune horizon (events before {cut} were \
                     compacted)",
                    cut - 1
                )
            );
        }
    }

    #[test]
    fn declared_counts_size_the_tables_once() {
        let text = ping_pong(10_000).to_text();
        let by_length = Trace::from_text(&text).unwrap();
        let by_budget = Trace::from_reader(text.as_bytes(), DEFAULT_MAX_LINE_LEN).unwrap();
        for trace in [&by_length, &by_budget] {
            assert_eq!(trace.events.len(), 10_000);
            assert_eq!(trace.events.capacity(), trace.events.len());
            assert_eq!(trace.messages.len(), 9_998);
            assert_eq!(trace.messages.capacity(), trace.messages.len());
        }
        // Past what `from_reader` vouches for the tables double as they
        // always did, from that size on.
        let events = 2 * READER_INPUT_BUDGET / 16;
        let text = ping_pong(events).to_text();
        let trace = Trace::from_reader(text.as_bytes(), DEFAULT_MAX_LINE_LEN).unwrap();
        assert_eq!(trace.events.len(), events);
        assert!(trace.events.capacity() <= 2 * events);
    }

    #[test]
    fn a_lying_declaration_reserves_no_more_than_the_input_could_hold() {
        let text = format!(
            "abc-trace v1\nprocesses 2\nfaulty\nevents {0}\nmessages {0}\n\
             e 0 0 0 - 0 - 0\nend\n",
            u64::MAX
        );
        for budget in [text.len(), READER_INPUT_BUDGET] {
            let mut parser = TraceLineParser::new_document();
            parser.input_budget = budget;
            let results: Vec<_> = text.lines().map(|l| parser.feed_line(l)).collect();
            assert!(parser.events.capacity() <= budget / 16, "{budget}");
            assert!(parser.messages.capacity() <= budget / 14, "{budget}");
            let e = results.last().unwrap().clone().unwrap_err();
            assert_eq!(e.message, format!("declared {} events, saw 1", u64::MAX));
        }
        let e = Trace::from_text(&text).unwrap_err();
        assert_eq!((e.line, e.message.ends_with("events, saw 1")), (7, true));
        let e = Trace::from_reader(text.as_bytes(), DEFAULT_MAX_LINE_LEN).unwrap_err();
        assert_eq!((e.line, e.message.ends_with("events, saw 1")), (7, true));
    }

    #[test]
    fn counts_are_optional_declarations() {
        // A live producer may omit the events/messages counts entirely.
        let trace = sample_trace();
        let text: String = trace
            .to_text()
            .lines()
            .filter(|l| !l.starts_with("events ") && !l.starts_with("messages "))
            .map(|l| format!("{l}\n"))
            .collect();
        let parsed = Trace::from_text(&text).unwrap();
        assert_eq!(parsed.events(), trace.events());
        // But when declared, they must match.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines.insert(3, "events 9999".to_string());
        assert!(Trace::from_text(&lines.join("\n")).is_err());
    }
}
