//! Violation forensics: a self-contained, byte-reproducible bundle a
//! session writes when its monitor latches a violation (or on an explicit
//! status-port `dump` request), plus the parser/renderer behind
//! `abc inspect`.
//!
//! # Determinism contract
//!
//! A bundle contains **only input-derived data** — the latched witness,
//! monitor counters, margin history keyed by request number, the decision
//! timeline, and the last-N wire records — never timestamps, peer
//! addresses, or anything scheduling-dependent. Feeding the same document
//! bytes with the same server flags therefore produces byte-identical
//! bundles, which is what makes a bundle attachable to a bug report as
//! *the* reproduction. The timed span trace (wall-clock Chrome trace
//! events from [`abc_obs`]) is deliberately written to a sidecar file
//! (`<bundle>.trace.json`) outside this contract.
//!
//! # Bundle grammar (version 1)
//!
//! ```text
//! abc-forensics v1
//! session <id>
//! reason <latch|request>
//! xi <P/Q>
//! latch <seq> <wire-witness>          (or: latch none)
//! [monitor]
//! <key> <u64>                          (one line per counter)
//! [margins] <kept> <total>
//! <request#> <P/Q|none>                (kept lines)
//! [timeline] <kept> <total>
//! <request#> <text…>                   (kept lines)
//! [wire-tail] <kept> <total>
//! <wire line>                          (kept lines, verbatim)
//! end-forensics
//! ```
//!
//! The three logs declare their line counts up front, so the parser never
//! guesses where a section ends — a wire-tail line is free to contain
//! `[monitor]` or anything else the client sent.

use std::fmt::Write as _;

use abc_core::monitor::MonitorStats;
use abc_sim::binio::WireRecord;

/// First line of every bundle; doubles as the sniff `abc inspect` uses to
/// tell bundles from Chrome trace JSON.
pub const BUNDLE_HEADER: &str = "abc-forensics v1";

/// Last line of every bundle (truncation tripwire).
pub const BUNDLE_FOOTER: &str = "end-forensics";

/// A parsed (or about-to-be-rendered) forensics bundle. Field order
/// mirrors the bundle grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForensicsBundle {
    /// Session (connection) id the bundle describes.
    pub session: u64,
    /// Why the bundle was written: `latch` (a violation latched) or
    /// `request` (status-port `dump` command).
    pub reason: String,
    /// The `Ξ` the session monitored, as its `P/Q` wire text.
    pub xi: String,
    /// `(seq, wire_witness)` of the latched violation, if any.
    pub latch: Option<(u64, String)>,
    /// Monitor counters (key, value), in [`MonitorStats`] field order.
    pub monitor: Vec<(String, u64)>,
    /// Margin history: `(request#, ratio-or-none)` per exact sample —
    /// the client's `margin` requests, the `--warn-margin` crossing (at
    /// the request of the event whose append reached the threshold) and
    /// the latch freeze.
    pub margins: Vec<(u64, String)>,
    /// Total margin samples observed (≥ `margins.len()`; the log keeps
    /// the most recent entries).
    pub margins_total: u64,
    /// Decision timeline: `(request#, entry)` for document starts,
    /// topology, prunes, the warning (with the wire witness of the cycle
    /// that raised the margin), the latch, and document ends.
    pub timeline: Vec<(u64, String)>,
    /// Total timeline entries observed.
    pub timeline_total: u64,
    /// The most recent wire records, rendered as v1 text lines (binary
    /// sessions render canonically; text sessions keep lines verbatim).
    pub tail: Vec<String>,
    /// Total wire records observed (≥ `tail.len()`).
    pub tail_total: u64,
}

/// The monitor counters in their canonical bundle order.
#[must_use]
pub fn monitor_counter_pairs(stats: &MonitorStats) -> Vec<(String, u64)> {
    vec![
        ("events".to_string(), stats.events as u64),
        ("messages".to_string(), stats.messages as u64),
        ("arcs".to_string(), stats.arcs as u64),
        ("relaxations".to_string(), stats.relaxations),
        ("pruned_events".to_string(), stats.pruned_events as u64),
        ("pruned_arcs".to_string(), stats.pruned_arcs as u64),
        (
            "live_events_peak".to_string(),
            stats.live_events_peak as u64,
        ),
        ("live_arcs_peak".to_string(), stats.live_arcs_peak as u64),
    ]
}

/// Renders one wire record as its canonical v1 text line (no trailing
/// newline). `implicit_seq` supplies the event sequence number for binary
/// event records, which carry it implicitly.
#[must_use]
pub fn wire_record_line(rec: &WireRecord, implicit_seq: usize) -> String {
    fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
        match v {
            Some(x) => x.to_string(),
            None => "-".to_string(),
        }
    }
    match rec {
        WireRecord::Processes(n) => format!("processes {n}"),
        WireRecord::Faulty(v) => {
            let mut line = String::from("faulty");
            for p in v {
                let _ = write!(line, " {p}");
            }
            line
        }
        WireRecord::DeclaredEvents(n) => format!("events {n}"),
        WireRecord::DeclaredMessages(n) => format!("messages {n}"),
        WireRecord::Event(e) => format!(
            "e {} {} {} {} {} {} {}",
            e.seq.unwrap_or(implicit_seq),
            e.process,
            e.time,
            opt(e.trigger),
            u8::from(e.received_only),
            opt(e.label),
            u8::from(e.distinguished),
        ),
        WireRecord::Message(m) => format!(
            "m {} {} {} {} {} {}",
            m.from,
            m.to,
            m.send_event,
            opt(m.recv_event),
            m.send_time,
            opt(m.recv_time),
        ),
        WireRecord::End => "end".to_string(),
        WireRecord::Xi(spec) => format!("xi {spec}"),
        WireRecord::Margin => "margin".to_string(),
    }
}

impl ForensicsBundle {
    /// Renders the bundle in its canonical (byte-reproducible) form.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{BUNDLE_HEADER}");
        let _ = writeln!(out, "session {}", self.session);
        let _ = writeln!(out, "reason {}", self.reason);
        let _ = writeln!(out, "xi {}", self.xi);
        match &self.latch {
            Some((seq, wire)) => {
                let _ = writeln!(out, "latch {seq} {wire}");
            }
            None => {
                let _ = writeln!(out, "latch none");
            }
        }
        let _ = writeln!(out, "[monitor]");
        for (key, value) in &self.monitor {
            let _ = writeln!(out, "{key} {value}");
        }
        let _ = writeln!(
            out,
            "[margins] {} {}",
            self.margins.len(),
            self.margins_total
        );
        for (at, ratio) in &self.margins {
            let _ = writeln!(out, "{at} {ratio}");
        }
        let _ = writeln!(
            out,
            "[timeline] {} {}",
            self.timeline.len(),
            self.timeline_total
        );
        for (at, entry) in &self.timeline {
            let _ = writeln!(out, "{at} {entry}");
        }
        let _ = writeln!(out, "[wire-tail] {} {}", self.tail.len(), self.tail_total);
        for line in &self.tail {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "{BUNDLE_FOOTER}");
        out
    }

    /// Parses a bundle back from its canonical form. Untrusted input —
    /// every malformed shape is a readable error, never a panic.
    ///
    /// # Errors
    ///
    /// A message naming the first offending line.
    pub fn parse(text: &str) -> Result<ForensicsBundle, String> {
        let mut lines = text.lines();
        let expect = |got: Option<&str>, what: &str| -> Result<String, String> {
            got.map(ToString::to_string)
                .ok_or_else(|| format!("bundle truncated before {what}"))
        };
        let header = expect(lines.next(), "header")?;
        if header != BUNDLE_HEADER {
            return Err(format!("not a forensics bundle (header {header:?})"));
        }
        let session = parse_kv_u64(&expect(lines.next(), "session line")?, "session")?;
        let reason = parse_kv_rest(&expect(lines.next(), "reason line")?, "reason")?;
        let xi = parse_kv_rest(&expect(lines.next(), "xi line")?, "xi")?;
        let latch_line = expect(lines.next(), "latch line")?;
        let latch_rest = latch_line
            .strip_prefix("latch ")
            .ok_or_else(|| format!("expected `latch …`, got {latch_line:?}"))?;
        let latch = if latch_rest == "none" {
            None
        } else {
            let (seq, wire) = latch_rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed latch line {latch_line:?}"))?;
            let seq: u64 = seq.parse().map_err(|e| format!("latch seq {seq:?}: {e}"))?;
            Some((seq, wire.to_string()))
        };
        let monitor_header = expect(lines.next(), "[monitor] section")?;
        if monitor_header != "[monitor]" {
            return Err(format!("expected `[monitor]`, got {monitor_header:?}"));
        }
        // Counters run until the [margins] section header.
        let mut monitor = Vec::new();
        let margins_header = loop {
            let line = expect(lines.next(), "[margins] section")?;
            if line.starts_with("[margins]") {
                break line;
            }
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed counter line {line:?}"))?;
            let value: u64 = value.parse().map_err(|e| format!("counter {key}: {e}"))?;
            monitor.push((key.to_string(), value));
        };
        let (margins_kept, margins_total) = parse_section_counts(&margins_header, "[margins]")?;
        let mut margins = Vec::new();
        for _ in 0..margins_kept {
            let line = expect(lines.next(), "margin entry")?;
            let (at, ratio) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed margin entry {line:?}"))?;
            let at: u64 = at.parse().map_err(|e| format!("margin entry: {e}"))?;
            margins.push((at, ratio.to_string()));
        }
        let timeline_header = expect(lines.next(), "[timeline] section")?;
        let (timeline_kept, timeline_total) = parse_section_counts(&timeline_header, "[timeline]")?;
        let mut timeline = Vec::new();
        for _ in 0..timeline_kept {
            let line = expect(lines.next(), "timeline entry")?;
            let (at, entry) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed timeline entry {line:?}"))?;
            let at: u64 = at.parse().map_err(|e| format!("timeline entry: {e}"))?;
            timeline.push((at, entry.to_string()));
        }
        let tail_header = expect(lines.next(), "[wire-tail] section")?;
        let (tail_kept, tail_total) = parse_section_counts(&tail_header, "[wire-tail]")?;
        let mut tail = Vec::new();
        for _ in 0..tail_kept {
            tail.push(expect(lines.next(), "wire-tail line")?);
        }
        let footer = expect(lines.next(), "footer")?;
        if footer != BUNDLE_FOOTER {
            return Err(format!("expected `{BUNDLE_FOOTER}`, got {footer:?}"));
        }
        Ok(ForensicsBundle {
            session,
            reason,
            xi,
            latch,
            monitor,
            margins,
            margins_total,
            timeline,
            timeline_total,
            tail,
            tail_total,
        })
    }

    /// The human rendering `abc inspect` prints.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "forensics bundle: session {} (reason: {})",
            self.session, self.reason
        );
        let _ = writeln!(out, "xi: {}", self.xi);
        match &self.latch {
            Some((seq, wire)) => {
                let _ = writeln!(out, "verdict: violation latched at event {seq}");
                let _ = writeln!(out, "witness: {wire}");
            }
            None => {
                let _ = writeln!(out, "verdict: no violation latched");
            }
        }
        let _ = writeln!(out, "monitor counters:");
        let width = self.monitor.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
        for (key, value) in &self.monitor {
            let _ = writeln!(out, "  {key:<width$} {value}");
        }
        let _ = writeln!(
            out,
            "margin history ({} of {} samples):",
            self.margins.len(),
            self.margins_total
        );
        for (at, ratio) in &self.margins {
            let _ = writeln!(out, "  request {at}: {ratio}");
        }
        let _ = writeln!(
            out,
            "timeline ({} of {} entries):",
            self.timeline.len(),
            self.timeline_total
        );
        for (at, entry) in &self.timeline {
            let _ = writeln!(out, "  request {at}: {entry}");
        }
        let _ = writeln!(
            out,
            "wire tail (last {} of {} records):",
            self.tail.len(),
            self.tail_total
        );
        for line in &self.tail {
            let _ = writeln!(out, "  {line}");
        }
        out
    }
}

/// Parses `<key> <u64>` with a fixed expected key.
fn parse_kv_u64(line: &str, key: &str) -> Result<u64, String> {
    let rest = parse_kv_rest(line, key)?;
    rest.parse().map_err(|e| format!("{key} {rest:?}: {e}"))
}

/// Parses `<key> <rest…>` with a fixed expected key.
fn parse_kv_rest(line: &str, key: &str) -> Result<String, String> {
    match line.split_once(' ') {
        Some((k, rest)) if k == key => Ok(rest.to_string()),
        _ => Err(format!("expected `{key} …`, got {line:?}")),
    }
}

/// Parses a `[section] <kept> <total>` header.
fn parse_section_counts(line: &str, section: &str) -> Result<(usize, u64), String> {
    let rest = line
        .strip_prefix(section)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or_else(|| format!("expected `{section} <kept> <total>`, got {line:?}"))?;
    let (kept, total) = rest
        .split_once(' ')
        .ok_or_else(|| format!("malformed section header {line:?}"))?;
    let kept: usize = kept
        .parse()
        .map_err(|e| format!("{section} kept count: {e}"))?;
    // Clamp against hostile headers: never pre-trust a count larger than
    // the remaining input could possibly satisfy (the per-line reads fail
    // with `truncated` anyway; this keeps memory bounded first).
    if kept > 1 << 24 {
        return Err(format!("{section} kept count {kept} is implausibly large"));
    }
    let total: u64 = total
        .parse()
        .map_err(|e| format!("{section} total count: {e}"))?;
    Ok((kept, total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bundle() -> ForensicsBundle {
        ForensicsBundle {
            session: 7,
            reason: "latch".to_string(),
            xi: "2".to_string(),
            latch: Some((5, "cycle f=1 b=2 m0+ m1- m2-".to_string())),
            monitor: monitor_counter_pairs(&MonitorStats {
                events: 6,
                messages: 3,
                arcs: 12,
                relaxations: 9,
                ..MonitorStats::default()
            }),
            margins: vec![(4, "3/2".to_string()), (5, "2".to_string())],
            margins_total: 2,
            timeline: vec![
                (1, "document start (text framing)".to_string()),
                (3, "topology processes=3 faulty=0".to_string()),
                (5, "latch seq=5".to_string()),
            ],
            timeline_total: 3,
            tail: vec![
                "processes 3".to_string(),
                "faulty".to_string(),
                "e 0 0 1 - 0 - 0".to_string(),
                "end".to_string(),
            ],
            tail_total: 9,
        }
    }

    #[test]
    fn round_trips_exactly() {
        let bundle = sample_bundle();
        let text = bundle.render();
        let parsed = ForensicsBundle::parse(&text).expect("canonical render parses");
        assert_eq!(parsed, bundle);
        assert_eq!(parsed.render(), text, "render ∘ parse is the identity");
    }

    #[test]
    fn tail_lines_cannot_break_framing() {
        // A hostile client can put section headers *inside* wire lines;
        // the declared counts keep the parser on track.
        let mut bundle = sample_bundle();
        bundle.tail = vec!["[monitor]".to_string(), "end-forensics".to_string()];
        bundle.tail_total = 2;
        let parsed = ForensicsBundle::parse(&bundle.render()).expect("parses");
        assert_eq!(parsed.tail, bundle.tail);
    }

    #[test]
    fn rejects_malformed() {
        assert!(ForensicsBundle::parse("").is_err());
        assert!(ForensicsBundle::parse("abc-forensics v0\n").is_err());
        let mut truncated = sample_bundle().render();
        truncated.truncate(truncated.len() - BUNDLE_FOOTER.len() - 1);
        assert!(ForensicsBundle::parse(&truncated).is_err());
        let hostile = format!("{BUNDLE_HEADER}\nsession 1\nreason x\nxi 2\nlatch none\n[monitor]\n[margins] 99999999999 0\n");
        assert!(ForensicsBundle::parse(&hostile).is_err());
    }

    #[test]
    fn wire_record_lines_match_v1_grammar() {
        use abc_sim::textio::{EventRecord, MessageRecord};
        assert_eq!(
            wire_record_line(&WireRecord::Processes(3), 0),
            "processes 3"
        );
        assert_eq!(
            wire_record_line(&WireRecord::Faulty(vec![1, 2]), 0),
            "faulty 1 2"
        );
        assert_eq!(
            wire_record_line(
                &WireRecord::Event(EventRecord {
                    seq: None,
                    process: 1,
                    time: 7,
                    trigger: Some(0),
                    received_only: false,
                    label: None,
                    distinguished: true,
                }),
                4
            ),
            "e 4 1 7 0 0 - 1"
        );
        assert_eq!(
            wire_record_line(
                &WireRecord::Message(MessageRecord {
                    from: 0,
                    to: 1,
                    send_event: 2,
                    recv_event: None,
                    send_time: 5,
                    recv_time: None,
                }),
                0
            ),
            "m 0 1 2 - 5 -"
        );
        assert_eq!(wire_record_line(&WireRecord::End, 0), "end");
        assert_eq!(wire_record_line(&WireRecord::Margin, 0), "margin");
    }
}
