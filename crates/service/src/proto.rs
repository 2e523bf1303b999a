//! The `abc-service` wire protocol: negotiated request framings, line
//! replies.
//!
//! A session starts in the **v1 text framing**: the `abc-trace v1`
//! grammar of [`abc_sim::textio`] in **streaming order** (each delivered
//! message's `m` line immediately precedes its receive `e` line — exactly
//! what [`abc_sim::Trace::to_stream_text`] emits), optionally preceded by
//! an `xi P/Q` line selecting the monitored synchrony parameter for the
//! documents that follow. One connection may carry any number of trace
//! documents back to back; each gets a fresh incremental checker.
//!
//! Between documents a client may send [`PROTO_V2_REQUEST`] (`proto v2`)
//! to switch its *request* direction to the **v2 binary framing** of
//! [`abc_sim::binio`]: length-prefixed frames of varint-packed records
//! (`xi` travels as a record too). The switch is handshaked — the client
//! MUST wait for the [`PROTO_V2_OK`] reply before sending its first
//! frame, because any bytes already in flight would be interpreted as
//! text. Replies stay line-oriented in both framings.
//!
//! Server → client:
//!
//! * `ok <seq>` — (v1 only) event `<seq>` ingested, execution still
//!   admissible;
//! * `ack <through>` — (v2 only) every event with sequence number
//!   `<= through` has been ingested; one coalesced ack is sent per
//!   ingested frame instead of one `ok` per event;
//! * `violation <seq> <witness>` — event `<seq>` ingested and the session
//!   is latched violating (`<witness>` is the single-token
//!   [`abc_core::cycle::WireWitness`] form). Sent immediately in both
//!   framings — in v2 it precedes the ack covering `<seq>`. After the
//!   latch, v1 echoes the same latched violation per event; v2 keeps
//!   acking silently;
//! * `end <verdict>` — document complete (see [`Verdict`]; in v2 any
//!   pending ack flushes first);
//! * `margin none` / `margin <P/Q> [<witness>]` — reply to an on-demand
//!   margin request (see below): the exact current maximum
//!   relevant-cycle ratio over everything ingested so far as a `P/Q`
//!   rational, plus the single-token wire form of the tightest witness
//!   cycle attaining it when one was extracted (omitted exactly at
//!   ratio `1`, where the cheapest certificate can be a degenerate
//!   out-and-back walk). `none` means no relevant cycle exists yet;
//! * `error line <n>: <message>` / `error record <n>: <message>` —
//!   protocol violation at text line / binary record `<n>`; the
//!   connection closes after the reply, the server stays up.
//!
//! Clients request a margin sample with the [`MARGIN_REQUEST`] line
//! (v1), or the margin record (tag `0x09`,
//! [`abc_sim::binio::WireRecord::Margin`]) inside any frame (v2). Both
//! are accepted mid-document and between documents; the reply is
//! immediate and — in v2 — precedes the ack of the frame that carried
//! the request. A server with a prune horizon or a warning threshold keeps
//! each document's margin as events arrive, and its witness is the cycle
//! that last raised the margin; any other server searches for the margin
//! at the request, and its witness is the cycle that search finds. Both
//! report the same ratio.
//!
//! The greeting ([`GREETING`]) is sent once per connection and
//! advertises both framings.

use std::fmt;
use std::str::FromStr;

use abc_core::cycle::WitnessSummary;
use abc_core::monitor::IncrementalChecker;
use abc_core::Xi;
use abc_sim::Trace;

/// Highest protocol version the server speaks (v1 text remains accepted;
/// see [`GREETING`]).
pub const PROTOCOL_VERSION: &str = "v2";

/// The per-connection greeting line, advertising every accepted request
/// framing. Clients should match the `abc-service v` prefix rather than
/// the exact string.
pub const GREETING: &str = "abc-service v2 protocols=v1,v2";

/// Client request line switching the session's request framing to binary
/// frames. Must be sent between documents, and the client MUST wait for
/// the [`PROTO_V2_OK`] reply before sending its first frame.
pub const PROTO_V2_REQUEST: &str = "proto v2";

/// Server acknowledgement of [`PROTO_V2_REQUEST`]; the very next request
/// byte begins a binary frame.
pub const PROTO_V2_OK: &str = "proto v2 ok";

/// Client request pinning the (default) v1 text framing — a handshaked
/// no-op, for symmetric client code.
pub const PROTO_V1_REQUEST: &str = "proto v1";

/// Server acknowledgement of [`PROTO_V1_REQUEST`].
pub const PROTO_V1_OK: &str = "proto v1 ok";

/// Client request (v1 text framing) for an on-demand margin sample;
/// accepted both mid-document and between documents. The v2 counterpart
/// is the margin record ([`abc_sim::binio::WireRecord::Margin`]).
pub const MARGIN_REQUEST: &str = "margin";

/// The final verdict of one ingested trace document — rendered identically
/// by the server (`end <verdict>` reply), the `abc feed` client, and the
/// offline monitor ([`offline_verdict`]), so "byte-identical verdicts"
/// is a meaningful, testable property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every appended event kept the execution admissible.
    Admissible {
        /// Number of events ingested.
        events: usize,
    },
    /// The monitor latched a violating relevant cycle.
    Violation {
        /// Index of the trace event whose append closed the first
        /// violating cycle.
        at_event: usize,
        /// The witness summary.
        witness: WitnessSummary,
    },
}

impl Verdict {
    /// Whether this verdict is a violation.
    #[must_use]
    pub fn is_violation(&self) -> bool {
        matches!(self, Verdict::Violation { .. })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Admissible { events } => verdict_text(None, *events).fmt(f),
            Verdict::Violation { at_event, witness } => {
                verdict_text(Some((*at_event, &witness.wire())), 0).fmt(f)
            }
        }
    }
}

/// The one spelling of a verdict, behind both [`Verdict`]'s `Display` and
/// the session's `end` reply (which holds its latch's witness as wire
/// text, not as a [`Verdict`]): a violation at `(at_event, wire witness)`,
/// or else an admissible document of `events` events.
pub(crate) fn verdict_text(
    violation: Option<(usize, &dyn fmt::Display)>,
    events: usize,
) -> impl fmt::Display + '_ {
    fmt::from_fn(move |f| match violation {
        Some((at_event, wire)) => write!(f, "violation at_event={at_event} {wire}"),
        None => write!(f, "admissible events={events}"),
    })
}

impl FromStr for Verdict {
    type Err = String;

    fn from_str(s: &str) -> Result<Verdict, String> {
        if let Some(rest) = s.strip_prefix("admissible events=") {
            return Ok(Verdict::Admissible {
                events: rest.parse().map_err(|e| format!("events: {e}"))?,
            });
        }
        if let Some(rest) = s.strip_prefix("violation at_event=") {
            let (at, wire) = rest
                .split_once(' ')
                .ok_or_else(|| format!("verdict missing witness: {s:?}"))?;
            return Ok(Verdict::Violation {
                at_event: at.parse().map_err(|e| format!("at_event: {e}"))?,
                witness: WitnessSummary::from_wire(wire)?,
            });
        }
        Err(format!("unparseable verdict {s:?}"))
    }
}

/// A parsed server reply line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `ok <seq>`.
    Ok {
        /// The acknowledged event sequence number.
        seq: usize,
    },
    /// `ack <through>` — every event with sequence number `<= through`
    /// has been ingested (v2 coalesced acknowledgement).
    Ack {
        /// The highest acknowledged event sequence number.
        through: usize,
    },
    /// `violation <seq> <wire-witness>`.
    Violation {
        /// The latched event sequence number.
        seq: usize,
        /// The wire-form witness (kept as text; parse with
        /// [`WitnessSummary::from_wire`] when structure is needed).
        witness: String,
    },
    /// `end <verdict>`.
    End(Verdict),
    /// `margin none` / `margin <P/Q> [<wire-witness>]` — an on-demand
    /// margin sample (see the module docs).
    Margin {
        /// The exact current maximum relevant-cycle ratio as its `P/Q`
        /// wire text (parse with `str::parse::<abc_rational::Ratio>`
        /// when arithmetic is needed); `None` when no relevant cycle
        /// exists yet.
        ratio: Option<String>,
        /// The wire-form witness of a tightest cycle attaining the
        /// ratio, when one was extracted (absent exactly at ratio `1`).
        witness: Option<String>,
    },
    /// `error …`.
    Error {
        /// The error text (everything after `error `).
        message: String,
    },
}

impl Reply {
    /// Parses one server reply line.
    ///
    /// # Errors
    ///
    /// A message describing the malformed line.
    pub fn parse(line: &str) -> Result<Reply, String> {
        let line = line.trim_end();
        if let Some(rest) = line.strip_prefix("ok ") {
            return Ok(Reply::Ok {
                seq: rest.parse().map_err(|e| format!("ok seq: {e}"))?,
            });
        }
        if let Some(rest) = line.strip_prefix("ack ") {
            return Ok(Reply::Ack {
                through: rest.parse().map_err(|e| format!("ack through: {e}"))?,
            });
        }
        if let Some(rest) = line.strip_prefix("violation ") {
            let (seq, witness) = rest
                .split_once(' ')
                .ok_or_else(|| format!("violation reply missing witness: {line:?}"))?;
            return Ok(Reply::Violation {
                seq: seq.parse().map_err(|e| format!("violation seq: {e}"))?,
                witness: witness.to_string(),
            });
        }
        if let Some(rest) = line.strip_prefix("end ") {
            return Ok(Reply::End(rest.parse()?));
        }
        if let Some(rest) = line.strip_prefix("margin ") {
            if rest == "none" {
                return Ok(Reply::Margin {
                    ratio: None,
                    witness: None,
                });
            }
            let (ratio, witness) = match rest.split_once(' ') {
                Some((r, w)) => (r, Some(w.to_string())),
                None => (rest, None),
            };
            if ratio.is_empty() {
                return Err(format!("margin reply missing ratio: {line:?}"));
            }
            return Ok(Reply::Margin {
                ratio: Some(ratio.to_string()),
                witness,
            });
        }
        if let Some(rest) = line.strip_prefix("error ") {
            return Ok(Reply::Error {
                message: rest.to_string(),
            });
        }
        Err(format!("unparseable reply {line:?}"))
    }
}

/// The verdict the *offline* monitor reaches on `trace` for `xi` — the
/// reference every online (server-side) verdict must match byte for byte.
///
/// # Errors
///
/// The rendered [`abc_core::check::CheckError`] if `Ξ` exceeds the
/// monitor's integer range.
pub fn offline_verdict(trace: &Trace, xi: &Xi) -> Result<Verdict, String> {
    let mut mon = IncrementalChecker::new(0, xi).map_err(|e| e.to_string())?;
    // Without a graph mirror: the verdict and its witness summary come
    // from the monitor's own columns, as a session's do.
    mon.enable_pruning();
    let at = trace
        .replay_until_violation_into(&mut mon, xi)
        .map_err(|e| e.to_string())?;
    Ok(match at {
        None => Verdict::Admissible {
            events: trace.events().len(),
        },
        Some(at_event) => {
            let Some(witness) = mon.violation_summary() else {
                // Defensive: a latched monitor accompanies the index by
                // construction; surface corruption instead of aborting.
                return Err("internal: monitor latched no violation witness".to_string());
            };
            Verdict::Violation {
                at_event,
                witness: witness.clone(),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_round_trips() {
        let v = Verdict::Admissible { events: 120 };
        assert_eq!(v.to_string().parse::<Verdict>().unwrap(), v);
        assert!("garbage".parse::<Verdict>().is_err());
        assert!("violation at_event=3".parse::<Verdict>().is_err());
    }

    #[test]
    fn replies_parse() {
        assert_eq!(Reply::parse("ok 17").unwrap(), Reply::Ok { seq: 17 });
        assert_eq!(
            Reply::parse("ack 999").unwrap(),
            Reply::Ack { through: 999 }
        );
        assert_eq!(
            Reply::parse("end admissible events=4").unwrap(),
            Reply::End(Verdict::Admissible { events: 4 })
        );
        assert_eq!(
            Reply::parse("error line 3: nope").unwrap(),
            Reply::Error {
                message: "line 3: nope".into()
            }
        );
        assert_eq!(
            Reply::parse("margin none").unwrap(),
            Reply::Margin {
                ratio: None,
                witness: None
            }
        );
        assert_eq!(
            Reply::parse("margin 1").unwrap(),
            Reply::Margin {
                ratio: Some("1".into()),
                witness: None
            }
        );
        assert_eq!(
            Reply::parse("margin 3/2 cyc:v1;...").unwrap(),
            Reply::Margin {
                ratio: Some("3/2".into()),
                witness: Some("cyc:v1;...".into())
            }
        );
        assert!(Reply::parse("hmm").is_err());
    }
}
