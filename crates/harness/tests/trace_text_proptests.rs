//! Property tests for the trace text format over *random clocksync runs*:
//! serialize → parse → serialize round-trips exactly (events, messages,
//! faulty set), and the reparsed trace is analysis-equivalent to the
//! original (same execution graph, same batch verdict, same monitor
//! verdict).
//!
//! And the lexer is differentially tested: `textio` reads `e`/`m` lines
//! with a one-scan byte lexer in front of its general path, and
//! [`Reference`] below is that language written the plain way (`trim`,
//! `split_whitespace`, `str::parse`) with no fast path at all. On documents
//! with one line respelled — other blanks, signs, leading zeros, numbers
//! at and past the integer limits, bad flags, wrong arity, a byte that is
//! not UTF-8 — both must give the same records or the same error, word for
//! word and line for line.
//!
//! And the streaming validator's in-flight tables are held to a model: on
//! executions whose `m` records arrive up to thousands of events before
//! their receives, its watermark is the oldest pending send after every
//! record, and it accepts what document mode accepts.

use abc_clocksync::TickGen;
use abc_core::{check, ProcessId, Xi};
use abc_sim::delay::BandDelay;
use abc_sim::textio::{
    EventRecord, MessageRecord, ParsedLine, TraceLineParser, TraceRecord, TraceTextError,
    DEFAULT_MAX_LINE_LEN,
};
use abc_sim::{CrashAt, RunLimits, Simulation, Trace};
use proptest::prelude::*;

fn clocksync_run(n: usize, lo: u64, hi: u64, seed: u64, crash_last: bool, events: usize) -> Trace {
    let mut sim = Simulation::new(BandDelay::new(lo, hi, seed));
    for slot in 0..n {
        if crash_last && slot == n - 1 {
            sim.add_faulty_process(CrashAt::new(TickGen::new(n, 1), 4));
        } else {
            sim.add_process(TickGen::new(n, 1));
        }
    }
    sim.run(RunLimits {
        max_events: events,
        max_time: u64::MAX,
    });
    sim.trace().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact round trip: every event, message, and faulty flag survives,
    /// and serialization is canonical (serialize ∘ parse = identity on
    /// bytes).
    #[test]
    fn serialize_parse_round_trips_exactly(
        n in 4usize..7,
        lo in 1u64..10,
        spread in 0u64..10,
        seed in any::<u64>(),
        crash_last in any::<bool>(),
    ) {
        let trace = clocksync_run(n, lo, lo + spread, seed, crash_last, 250);
        let text = trace.to_text();
        let parsed = Trace::from_text(&text).unwrap();
        prop_assert_eq!(parsed.num_processes(), trace.num_processes());
        prop_assert_eq!(parsed.events(), trace.events());
        prop_assert_eq!(parsed.messages(), trace.messages());
        for p in 0..n {
            prop_assert_eq!(parsed.is_faulty(ProcessId(p)), trace.is_faulty(ProcessId(p)));
        }
        prop_assert_eq!(parsed.to_text(), text);
    }

    /// Analysis equivalence: the reparsed trace's execution graph and
    /// batch ABC verdict agree with the original's, as does the online
    /// monitor replay.
    #[test]
    fn reparsed_traces_are_analysis_equivalent(
        n in 4usize..6,
        lo in 1u64..5,
        spread in 0u64..8,
        seed in any::<u64>(),
        num in 5i64..15,
        den in 4i64..8,
    ) {
        prop_assume!(num > den);
        let xi = Xi::from_fraction(num, den);
        let trace = clocksync_run(n, lo, lo + spread, seed, false, 200);
        let parsed = Trace::from_text(&trace.to_text()).unwrap();
        let g0 = trace.to_execution_graph();
        let g1 = parsed.to_execution_graph();
        prop_assert_eq!(&g0, &g1);
        let batch = check::is_admissible(&g0, &xi).unwrap();
        prop_assert_eq!(check::is_admissible(&g1, &xi).unwrap(), batch);
        let mon = parsed.replay_into_monitor(&xi).unwrap();
        prop_assert_eq!(mon.is_admissible(), batch);
        prop_assert_eq!(mon.graph(), &g0);
    }
}

// ------------------------------------------------ the reference lexer

fn number<T: std::str::FromStr>(field: &str) -> Result<Option<T>, String>
where
    T::Err: std::fmt::Display,
{
    if field == "-" {
        return Ok(None);
    }
    match field.parse::<T>() {
        Ok(v) => Ok(Some(v)),
        Err(e) => Err(format!("{field:?}: {e}")),
    }
}

fn required<T: std::str::FromStr>(field: &str, name: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    number(field)?.ok_or_else(|| format!("{name} required"))
}

fn flag(field: &str) -> Result<bool, String> {
    match field {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("expected flag 0/1, got {other:?}")),
    }
}

fn event_record(l: &str) -> Result<EventRecord, String> {
    let f: Vec<&str> = l.split_whitespace().collect();
    if f.len() != 8 {
        return Err(format!("expected `e` line with 7 fields, got {l:?}"));
    }
    Ok(EventRecord {
        seq: Some(required(f[1], "seq")?),
        process: required(f[2], "process")?,
        time: required(f[3], "time")?,
        trigger: number(f[4])?,
        received_only: flag(f[5])?,
        label: number(f[6])?,
        distinguished: flag(f[7])?,
    })
}

fn message_record(l: &str) -> Result<MessageRecord, String> {
    let f: Vec<&str> = l.split_whitespace().collect();
    if f.len() != 7 {
        return Err(format!("expected `m` line with 6 fields, got {l:?}"));
    }
    Ok(MessageRecord {
        from: required(f[1], "from")?,
        to: required(f[2], "to")?,
        send_event: required(f[3], "send_event")?,
        recv_event: number(f[4])?,
        send_time: required(f[5], "send_time")?,
        recv_time: number(f[6])?,
    })
}

/// `<key> <count>` with `key` a whole word.
fn count(l: &str, key: &str) -> Result<usize, String> {
    let mut words = l.split_whitespace();
    let value = l.strip_prefix(key).map_or("", str::trim);
    if words.next() != Some(key) || value.is_empty() {
        return Err(format!("expected `{key} <count>`, got {l:?}"));
    }
    value.parse().map_err(|e| format!("{key}: {e}"))
}

#[derive(Clone, Copy, PartialEq)]
enum Stage {
    Header,
    Processes,
    Faulty,
    Body,
    Done,
}

/// `abc-trace v1` text as `textio`'s module docs define it, lexed line by
/// line the plain way and handed on as [`TraceRecord`]s: the validation
/// core is shared (it is not what is under test), the lexing is not.
struct Reference {
    parser: TraceLineParser,
    stage: Stage,
    lines: usize,
    seen_body_line: bool,
}

impl Reference {
    fn new(streaming: bool) -> Reference {
        let parser = if streaming {
            TraceLineParser::new_streaming()
        } else {
            TraceLineParser::new_document()
        };
        Reference {
            parser: parser.without_header(),
            stage: Stage::Header,
            lines: 0,
            seen_body_line: false,
        }
    }

    fn feed_line(&mut self, raw: &str) -> Result<ParsedLine, TraceTextError> {
        self.lines += 1;
        let line = self.lines;
        let l = raw.trim();
        if l.is_empty() || l.starts_with('#') {
            return Ok(ParsedLine::Meta);
        }
        self.lex_and_apply(l)
            .map_err(|message| TraceTextError { line, message })
    }

    fn lex_and_apply(&mut self, l: &str) -> Result<ParsedLine, String> {
        let first = l.split_whitespace().next().unwrap_or("");
        let mut faulty = Vec::new();
        let record = match self.stage {
            Stage::Header => {
                return match l.strip_prefix("abc-trace ") {
                    Some("v1") => {
                        self.stage = Stage::Processes;
                        Ok(ParsedLine::Meta)
                    }
                    Some(v) => Err(format!("unsupported version {v:?}")),
                    None => Err("missing `abc-trace <version>` header".to_string()),
                };
            }
            Stage::Processes => TraceRecord::Processes(count(l, "processes")?),
            Stage::Faulty => {
                if first != "faulty" {
                    return Err(format!("expected `faulty …`, got {l:?}"));
                }
                for field in l.split_whitespace().skip(1) {
                    let index = field.parse::<usize>();
                    faulty.push(index.map_err(|e| format!("faulty index {field:?}: {e}"))?);
                }
                TraceRecord::Faulty(&faulty)
            }
            Stage::Body => match first {
                "events" | "messages" if self.seen_body_line => {
                    return Err(format!("`{first}` count must precede all e/m lines"));
                }
                "events" => TraceRecord::DeclaredEvents(count(l, first)?),
                "messages" => TraceRecord::DeclaredMessages(count(l, first)?),
                "e" => TraceRecord::Event(event_record(l)?),
                "m" => TraceRecord::Message(message_record(l)?),
                "end" if l == "end" => TraceRecord::End,
                _ => return Err(format!("expected an `e`/`m`/`end` line, got {l:?}")),
            },
            Stage::Done => return Err(format!("trailing content after `end`: {l:?}")),
        };
        self.seen_body_line |= matches!(record, TraceRecord::Event(_) | TraceRecord::Message(_));
        let fed = self.parser.feed_record(record).map_err(|e| e.message)?;
        self.stage = match (self.stage, &fed) {
            (Stage::Processes, _) => Stage::Faulty,
            (Stage::Faulty, _) => Stage::Body,
            (_, ParsedLine::End) => Stage::Done,
            (stage, _) => stage,
        };
        Ok(fed)
    }
}

/// What document mode makes of `text`, by the reference.
fn reference_document(text: &str) -> Result<String, TraceTextError> {
    let mut reference = Reference::new(false);
    for line in text.lines() {
        reference.feed_line(line)?;
    }
    reference.parser.finish().map(|t| t.to_text())
}

/// What `from_reader` makes of `bytes`: its lines, split as `str::lines`
/// splits text, go to the reference in order up to the first that is not
/// UTF-8, which is then an error at that line. The first error in line
/// order wins, as in `from_text`.
fn reference_reader(bytes: &[u8]) -> Result<String, TraceTextError> {
    let mut reference = Reference::new(false);
    for (i, piece) in bytes.split_inclusive(|b| *b == b'\n').enumerate() {
        let line = match piece.strip_suffix(b"\n") {
            Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
            None => piece,
        };
        let Ok(line) = std::str::from_utf8(line) else {
            return Err(TraceTextError {
                line: i + 1,
                message: "line is not valid UTF-8".to_string(),
            });
        };
        reference.feed_line(line)?;
    }
    reference.parser.finish().map(|t| t.to_text())
}

/// How long the next read is, given what is left to serve.
type Cut = fn(&[u8]) -> usize;

/// Serves `bytes` in reads whose lengths `cut` picks (at least one byte
/// each).
struct Trickle<'a> {
    bytes: &'a [u8],
    cut: Cut,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = (self.cut)(self.bytes)
            .max(1)
            .min(buf.len())
            .min(self.bytes.len());
        let (head, rest) = self.bytes.split_at(n);
        buf[..n].copy_from_slice(head);
        self.bytes = rest;
        Ok(n)
    }
}

/// Every line's result up to and including the first error.
fn streamed(
    text: &str,
    mut feed: impl FnMut(&str) -> Result<ParsedLine, TraceTextError>,
) -> Vec<Result<ParsedLine, TraceTextError>> {
    let mut seen = Vec::new();
    for line in text.lines() {
        seen.push(feed(line));
        if seen.last().is_some_and(Result::is_err) {
            break;
        }
    }
    seen
}

// ------------------------------------------------------- the respellings

#[derive(Clone, Debug)]
enum Mutation {
    /// One blank of an `e`/`m` line becomes this.
    Blank(&'static str),
    /// One field that holds a number gets this in front.
    Prefix(&'static str),
    /// One field that holds a number is zero-padded to this many digits.
    ZeroPad(usize),
    /// One field becomes this.
    Value(String),
    /// One flag of an `e` line becomes this.
    Flag(&'static str),
    DropField,
    AddField(&'static str),
    /// The line gets this behind it.
    Suffix(&'static str),
    /// A keyword (`processes` … `messages`, `e`, `m`) loses the blank behind it.
    Glue,
    /// A byte no UTF-8 text holds goes into the line.
    BadByte,
}

fn mutations() -> Vec<Mutation> {
    use Mutation::*;
    let past_usize = (usize::MAX as u128 + 1).to_string();
    let mut all = vec![
        Suffix(""),
        DropField,
        AddField("0"),
        AddField("-"),
        Glue,
        BadByte,
    ];
    all.extend(["\t", "  ", "\u{a0}", "\u{2003}", "\u{b}", "\u{c}", " \t "].map(Blank));
    all.extend(["+", "-", "++", "0"].map(Prefix));
    all.extend([19, 20, 25].map(ZeroPad));
    all.extend(["00", "01", "2", "-", "+1", "10"].map(Flag));
    all.extend([" ", "  \t", "\r", "\u{a0}", " #", "\u{b}"].map(Suffix));
    let values = [
        "18446744073709551615", // u64::MAX
        "18446744073709551616",
        "9999999999999999999", // 19 digits, the longest the fast path reads
        "09999999999999999999",
        &past_usize,
        "-",
        "--",
        "1x",
        "0x1",
        "\u{ff11}", // a digit, but not an ASCII one
        "1_0",
    ];
    all.extend(values.map(|v| Value(v.to_string())));
    all
}

impl Mutation {
    /// `text` with this respelling applied to one line; `pick` chooses the
    /// line and the field.
    fn apply(&self, text: &str, pick: (usize, usize)) -> Vec<u8> {
        let mut lines: Vec<Vec<u8>> = text.lines().map(|l| l.as_bytes().to_vec()).collect();
        let wanted = |l: &&mut Vec<u8>| match self {
            Mutation::Glue => l.first().is_some_and(|b| b"pfem".contains(b)) && l.len() > 2,
            Mutation::Flag(_) => l.starts_with(b"e "),
            _ => l.starts_with(b"e ") || l.starts_with(b"m "),
        };
        let mut targets: Vec<&mut Vec<u8>> = lines.iter_mut().filter(wanted).collect();
        let at = pick.0 % targets.len();
        let line = &mut *targets[at];
        let text_of = String::from_utf8(line.clone()).unwrap();
        let mut fields: Vec<String> = text_of.split(' ').map(str::to_string).collect();
        // Field 0 is the kind letter; the numbers are what follows it.
        let numeric: Vec<usize> = (1..fields.len()).filter(|i| fields[*i] != "-").collect();
        let any = 1 + pick.1 % (fields.len() - 1);
        let a_number = numeric[pick.1 % numeric.len()];
        let mut blanks: Vec<&str> = vec![" "; fields.len() - 1];
        let mut suffix = "";
        match self {
            Mutation::Blank(b) => blanks[pick.1 % (fields.len() - 1)] = b,
            Mutation::Prefix(p) => fields[a_number].insert_str(0, p),
            Mutation::ZeroPad(w) => fields[a_number] = format!("{:0>1$}", fields[a_number], *w),
            Mutation::Value(v) => fields[any] = v.clone(),
            Mutation::Flag(v) => fields[[5, 7][pick.1 % 2]] = v.to_string(),
            Mutation::DropField => {
                fields.remove(any);
                blanks.pop();
            }
            Mutation::AddField(v) => {
                fields.insert(any, v.to_string());
                blanks.push(" ");
            }
            Mutation::Suffix(s) => suffix = s,
            Mutation::Glue => blanks[0] = "",
            Mutation::BadByte => {}
        }
        line.clear();
        for (i, field) in fields.iter().enumerate() {
            line.extend_from_slice(field.as_bytes());
            line.extend_from_slice(blanks.get(i).map_or(suffix, |b| b).as_bytes());
        }
        if matches!(self, Mutation::BadByte) {
            line.insert(pick.1 % (line.len() + 1), 0xff);
        }
        let mut out = lines.join(&b'\n');
        out.push(b'\n');
        out
    }
}

/// `from_reader` reads `bytes` as the reference does, in one read and in
/// reads of any size: one byte, seven, each up to a `\r` (which splits
/// every CRLF across two reads), or each through one `\n` and on to one
/// byte short of the next (which ends a read that completes a line inside
/// the last field of the one behind it).
fn assert_a_reader_reads_like_the_reference(bytes: &[u8], what: &str) -> Result<(), TestCaseError> {
    let from_reader = Trace::from_reader(bytes, DEFAULT_MAX_LINE_LEN).map(|t| t.to_text());
    prop_assert_eq!(
        &from_reader,
        &reference_reader(bytes),
        "from_reader, {}",
        what
    );
    let cuts: [(&str, Cut); 4] = [
        ("1-byte", |_| 1),
        ("7-byte", |_| 7),
        ("CR-split", |rest| {
            rest.iter()
                .position(|b| *b == b'\r')
                .map_or(rest.len(), |i| i + 1)
        }),
        ("mid-field", |rest| {
            let mut ends = rest.iter().enumerate().filter(|(_, b)| **b == b'\n');
            match (ends.next(), ends.next()) {
                (Some(_), Some((second, _))) => second - 1,
                _ => rest.len(),
            }
        }),
    ];
    for (name, cut) in cuts {
        let trickle = Trickle { bytes, cut };
        let read = Trace::from_reader(trickle, DEFAULT_MAX_LINE_LEN).map(|t| t.to_text());
        prop_assert_eq!(
            &read,
            &from_reader,
            "from_reader in {} reads, {}",
            name,
            what
        );
    }
    Ok(())
}

/// Document mode (from a string and from a reader) and streaming mode
/// read `bytes` exactly as the reference does.
fn assert_reads_like_the_reference(bytes: &[u8], what: &str) -> Result<(), TestCaseError> {
    assert_a_reader_reads_like_the_reference(bytes, what)?;
    // Behind the document, a comment that is not UTF-8: an error in the
    // document still comes first, at any read size.
    let spoiled = [bytes, b"# \xff\n"].concat();
    assert_a_reader_reads_like_the_reference(&spoiled, &format!("{what}, then bad UTF-8"))?;
    let Ok(text) = std::str::from_utf8(bytes) else {
        return Ok(());
    };
    let from_text = Trace::from_text(text).map(|t| t.to_text());
    prop_assert_eq!(from_text, reference_document(text), "from_text, {}", what);
    let mut parser = TraceLineParser::new_streaming();
    let mut reference = Reference::new(true);
    prop_assert_eq!(
        streamed(text, |l| parser.feed_line(l)),
        streamed(text, |l| reference.feed_line(l)),
        "streaming, {}",
        what
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fast path is a fast path in front of one grammar: every
    /// respelling of one line, in both line orders, reads the same with
    /// it as without it.
    #[test]
    fn the_byte_lexer_accepts_exactly_the_reference_language(
        n in 4usize..6,
        lo in 1u64..6,
        spread in 0u64..6,
        seed in any::<u64>(),
        crash_last in any::<bool>(),
        picks in proptest::collection::vec((any::<usize>(), any::<usize>()), mutations().len()),
    ) {
        let trace = clocksync_run(n, lo, lo + spread, seed, crash_last, 120);
        for (order, text) in [("document", trace.to_text()), ("stream", trace.to_stream_text())] {
            for (mutation, pick) in mutations().iter().zip(&picks) {
                let bytes = mutation.apply(&text, *pick);
                let what = format!("{order} order, {mutation:?} at {pick:?}");
                assert_reads_like_the_reference(&bytes, &what)?;
            }
        }
    }
}

// ------------------------------------------ deliveries declared far ahead

/// SplitMix64: the few random choices a generated document needs.
struct Mix(u64);

impl Mix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// A message of a generated document: sent at event `send`, received at
/// `recv` (`None`: never), its record placed just before event `at`
/// (`events`: before `end`).
#[derive(Clone, Copy)]
struct Flight {
    send: usize,
    recv: Option<usize>,
    at: usize,
}

/// A random valid execution of `n` processes and `events` events in
/// streaming order, with each `m` record moved to a random point after
/// its send: some by a few events, some by thousands. `corrupt` then
/// points one delivered message at another's receive event, which no
/// document may hold.
fn far_ahead_document(
    seed: u64,
    n: usize,
    events: usize,
    corrupt: bool,
) -> Vec<TraceRecord<'static>> {
    let mut rng = Mix(seed);
    // Events `0..n` are the wake-ups, at time 0.
    let process = |seq: usize| seq % n;
    let time = |seq: usize| if seq < n { 0 } else { seq as u64 };
    let mut flights = Vec::new();
    for recv in n..events {
        let reach = [3, 40, 3_000][rng.below(3)].min(recv);
        let send = recv - 1 - rng.below(reach);
        flights.push(Flight {
            send,
            recv: Some(recv),
            at: recv,
        });
    }
    for _ in 0..rng.below(5) {
        let send = rng.below(events);
        flights.push(Flight {
            send,
            recv: None,
            at: events,
        });
    }
    for f in &mut flights {
        if rng.below(2) == 0 {
            f.at = f.send + 1 + rng.below(f.at - f.send);
        }
    }
    let delivered = events - n;
    if corrupt && delivered > 1 {
        // Flights `0..delivered` are the delivered ones, in receive order.
        let a = rng.below(delivered);
        let b = (a + 1 + rng.below(delivered - 1)) % delivered;
        flights[a].recv = flights[b].recv;
        flights[a].at = flights[a].at.min(flights[b].at);
    }
    // Message indices are positions among the `m` records; the receive
    // names its message by that index.
    flights.sort_by_key(|f| (f.at, f.recv));
    let mut trigger = vec![None; events];
    for (i, f) in flights.iter().enumerate() {
        if let Some(r) = f.recv {
            trigger[r] = Some(i);
        }
    }
    let mut records = vec![TraceRecord::Processes(n), TraceRecord::Faulty(&[])];
    let mut next = flights.iter().peekable();
    for seq in 0..=events {
        while let Some(f) = next.next_if(|f| f.at == seq) {
            records.push(TraceRecord::Message(MessageRecord {
                from: process(f.send),
                to: f.recv.map_or(0, process),
                send_event: f.send,
                recv_event: f.recv,
                send_time: time(f.send),
                recv_time: f.recv.map(time),
            }));
        }
        if seq < events {
            records.push(TraceRecord::Event(EventRecord {
                seq: None,
                process: process(seq),
                time: time(seq),
                trigger: trigger[seq],
                received_only: false,
                label: None,
                distinguished: false,
            }));
        }
    }
    records.push(TraceRecord::End);
    records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// However far ahead a delivery is declared, the streaming parser's
    /// watermark is the oldest send among the messages declared and not
    /// yet received, after every record, and it accepts exactly the
    /// documents document mode accepts.
    #[test]
    fn the_watermark_is_the_oldest_pending_send(
        seed in any::<u64>(),
        n in 2usize..5,
        events in 1_200usize..2_600,
        roll in 0u8..10,
    ) {
        let corrupt = roll < 3;
        let records = far_ahead_document(seed, n, events, corrupt);
        let mut parser = TraceLineParser::new_streaming().without_header();
        let mut pending: Vec<Option<usize>> = Vec::new();
        let mut streamed = Ok(());
        for rec in &records {
            if let Err(e) = parser.feed_record(*rec) {
                streamed = Err(e);
                break;
            }
            match rec {
                TraceRecord::Message(m) if m.recv_event.is_some() => pending.push(Some(m.send_event)),
                TraceRecord::Message(_) => pending.push(None),
                TraceRecord::Event(EventRecord { trigger: Some(mi), .. }) => pending[*mi] = None,
                _ => {}
            }
            let oldest = pending.iter().flatten().min().copied();
            prop_assert_eq!(parser.oldest_pending_send(), oldest);
        }
        let mut document = TraceLineParser::new_document().without_header();
        let documented = records
            .iter()
            .try_for_each(|rec| document.feed_record(*rec).map(drop))
            .and_then(|()| document.finish().map(drop));
        prop_assert_eq!(streamed.is_ok(), documented.is_ok(), "{:?} / {:?}", streamed, documented);
        prop_assert_eq!(streamed.is_ok(), !corrupt);
    }
}
