//! Loopback integration tests: concurrent multi-client ingestion with
//! byte-identical verdicts vs. the offline monitor, malformed-frame
//! handling, oversized-line rejection, multi-document connections, the
//! committed sample trace, and status-port metrics/shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;

use abc_core::Xi;
use abc_service::client::status_command;
use abc_service::proto::offline_verdict;
use abc_service::server::{start, ServerConfig};
use abc_service::{feed_stream_text, ServerHandle};
use abc_sim::delay::BandDelay;
use abc_sim::{RunLimits, Simulation, Trace};

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

fn server(shards: usize) -> ServerHandle {
    start(ServerConfig {
        shards,
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
}

#[test]
fn eight_concurrent_clients_get_byte_identical_verdicts() {
    let handle = server(3);
    let addr = handle.addr().to_string();
    // Half the documents run a comfortable band (admissible at Xi = 3/2),
    // half a wide reordering band (violating) — both verdicts exercised.
    let xi = Xi::from_fraction(3, 2);
    let traces: Vec<Trace> = (0..16u64)
        .map(|s| {
            if s % 2 == 0 {
                clocksync_trace(10, 19, s, 150)
            } else {
                clocksync_trace(1, 6, s, 150)
            }
        })
        .collect();
    let offline: Vec<String> = traces
        .iter()
        .map(|t| offline_verdict(t, &xi).unwrap().to_string())
        .collect();
    assert!(
        offline.iter().any(|v| v.starts_with("violation"))
            && offline.iter().any(|v| v.starts_with("admissible")),
        "seed set must exercise both verdicts: {offline:?}"
    );

    let results: Vec<Vec<(usize, String)>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..8 {
            let addr = &addr;
            let traces = &traces;
            let xi = &xi;
            handles.push(scope.spawn(move || {
                let mut got = Vec::new();
                // Each of the 8 concurrent clients feeds two documents,
                // each over its own connection.
                for k in [client, client + 8] {
                    let outcome = feed_stream_text(addr, xi, &traces[k].to_stream_text()).unwrap();
                    got.push((k, outcome.verdict.to_string()));
                }
                got
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for per_client in results {
        for (k, verdict) in per_client {
            assert_eq!(
                verdict, offline[k],
                "online/offline verdict mismatch for trace {k}"
            );
        }
    }
    let m = handle.metrics();
    assert_eq!(
        m.documents.load(std::sync::atomic::Ordering::Relaxed),
        16,
        "all documents accounted"
    );
    handle.join();
}

fn read_reply_line(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

#[test]
fn malformed_frame_gets_error_reply_and_server_stays_up() {
    let handle = server(2);
    let addr = handle.addr().to_string();

    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    assert_eq!(read_reply_line(&mut reader), abc_service::proto::GREETING);
    {
        let mut w = &stream;
        w.write_all(b"this is not a trace header\n").unwrap();
    }
    let reply = read_reply_line(&mut reader);
    assert!(
        reply.starts_with("error line 1:"),
        "expected error reply, got {reply:?}"
    );
    // The connection closes after the error…
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty());

    // …but the server keeps serving new clients.
    let xi = Xi::from_integer(2);
    let trace = clocksync_trace(10, 19, 7, 120);
    let outcome = feed_stream_text(&addr, &xi, &trace.to_stream_text()).unwrap();
    assert_eq!(
        outcome.verdict.to_string(),
        offline_verdict(&trace, &xi).unwrap().to_string()
    );
    assert_eq!(
        handle
            .metrics()
            .parse_errors
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    handle.join();
}

#[test]
fn oversized_line_is_rejected_without_buffering() {
    let handle = server(1);
    let addr = handle.addr().to_string();
    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    assert_eq!(read_reply_line(&mut reader), abc_service::proto::GREETING);
    // A newline-free firehose: the server must reject at the line cap, not
    // accumulate it. (The write side may hit a reset once the server
    // closes — that is the expected outcome, not a test failure.)
    let chunk = vec![b'x'; 64 * 1024];
    let mut w = &stream;
    for _ in 0..64 {
        if w.write_all(&chunk).is_err() {
            break;
        }
    }
    let reply = read_reply_line(&mut reader);
    assert!(
        reply.starts_with("error line 1:") && reply.contains("exceeds"),
        "expected line-cap error, got {reply:?}"
    );
    handle.join();
}

#[test]
fn one_connection_carries_many_documents() {
    let handle = server(2);
    let addr = handle.addr().to_string();
    let xi = Xi::from_fraction(3, 2);
    let admissible = clocksync_trace(10, 19, 3, 120);
    let violating = (0..32)
        .map(|s| clocksync_trace(1, 6, s, 150))
        .find(|t| offline_verdict(t, &xi).unwrap().is_violation())
        .expect("some seed violates at Xi = 3/2");

    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    assert_eq!(read_reply_line(&mut reader), abc_service::proto::GREETING);
    {
        let mut w = &stream;
        w.write_all(format!("xi {xi}\n").as_bytes()).unwrap();
    }
    // Three documents back to back on one connection; each gets a fresh
    // checker, so verdicts do not bleed across documents.
    for (trace, want) in [
        (&admissible, offline_verdict(&admissible, &xi).unwrap()),
        (&violating, offline_verdict(&violating, &xi).unwrap()),
        (&admissible, offline_verdict(&admissible, &xi).unwrap()),
    ] {
        {
            let mut w = &stream;
            w.write_all(trace.to_stream_text().as_bytes()).unwrap();
        }
        let verdict = loop {
            let line = read_reply_line(&mut reader);
            if let Some(rest) = line.strip_prefix("end ") {
                break rest.to_string();
            }
            assert!(
                line.starts_with("ok ") || line.starts_with("violation "),
                "unexpected reply {line:?}"
            );
        };
        assert_eq!(verdict, want.to_string());
    }
    handle.join();
}

#[test]
fn unterminated_final_line_before_half_close_still_yields_a_verdict() {
    // A client may strip the trailing newline from `end` and half-close
    // immediately: the final line is still a line, and the verdict must
    // still come back (EOF flushes the line assembler server-side).
    let handle = server(1);
    let addr = handle.addr().to_string();
    let xi = Xi::from_integer(2);
    let trace = clocksync_trace(10, 19, 5, 120);
    let doc = trace.to_stream_text();
    let doc = doc.strip_suffix('\n').unwrap();

    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    assert_eq!(read_reply_line(&mut reader), abc_service::proto::GREETING);
    {
        let mut w = &stream;
        w.write_all(format!("xi {xi}\n").as_bytes()).unwrap();
        w.write_all(doc.as_bytes()).unwrap();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut replies = String::new();
    reader.read_to_string(&mut replies).unwrap();
    let want = offline_verdict(&trace, &xi).unwrap();
    assert!(
        replies.lines().any(|l| l == format!("end {want}")),
        "no verdict in replies: …{}",
        &replies[replies.len().saturating_sub(200)..]
    );
    handle.join();
}

#[test]
fn committed_sample_trace_round_trips_through_the_service() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../harness/tests/data/sample_clocksync.trace"
    );
    let file = std::fs::File::open(path).unwrap();
    let trace = Trace::from_reader(file, abc_sim::textio::DEFAULT_MAX_LINE_LEN).unwrap();

    let handle = server(2);
    let addr = handle.addr().to_string();
    // The committed sample has max relevant-cycle ratio 3: violating at
    // Xi = 2, admissible at Xi = 4 — and the service verdicts match the
    // offline monitor byte for byte.
    for xi in [Xi::from_integer(2), Xi::from_integer(4)] {
        let outcome = feed_stream_text(&addr, &xi, &trace.to_stream_text()).unwrap();
        let want = offline_verdict(&trace, &xi).unwrap();
        assert_eq!(outcome.verdict.to_string(), want.to_string());
        assert_eq!(outcome.verdict.is_violation(), xi == Xi::from_integer(2));
    }
    handle.join();
}

#[test]
fn invalid_xi_line_is_a_protocol_error() {
    let handle = server(1);
    let addr = handle.addr().to_string();
    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    assert_eq!(read_reply_line(&mut reader), abc_service::proto::GREETING);
    {
        let mut w = &stream;
        w.write_all(b"xi 1/2\n").unwrap(); // Xi must exceed 1
    }
    let reply = read_reply_line(&mut reader);
    assert!(reply.starts_with("error line 1:"), "{reply:?}");
    handle.join();
}

#[test]
fn status_port_serves_metrics_and_shutdown() {
    let handle = server(2);
    let addr = handle.addr().to_string();
    let status = handle.status_addr().to_string();
    let xi = Xi::from_integer(2);
    let trace = clocksync_trace(10, 19, 11, 120);
    feed_stream_text(&addr, &xi, &trace.to_stream_text()).unwrap();

    let page = status_command(&status, "metrics").unwrap();
    assert!(page.contains("abc_service_events_total 120"), "{page}");
    assert!(page.contains("abc_service_documents_total 1"), "{page}");
    assert!(status_command(&status, "frobnicate")
        .unwrap()
        .contains("unknown command"));

    let bye = status_command(&status, "shutdown").unwrap();
    assert!(bye.contains("shutting down"), "{bye}");
    assert!(handle.is_stopping());
    // Every thread exits: join() returns.
    handle.join();
}

#[test]
fn warn_margin_flips_warning_once_and_latch_matches_offline() {
    use abc_rational::Ratio;

    // The committed sample trace's margin climbs 1 → 2 → 3. Monitored at
    // Xi = 3 with a warning threshold of 2, the session enters the
    // warning band (margin 2, still admissible) well before the latch at
    // ratio 3.
    let handle = start(ServerConfig {
        shards: 1,
        warn_margin: Some(Ratio::from_integer(2)),
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = handle.addr().to_string();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../harness/tests/data/sample_clocksync.trace"
    );
    let file = std::fs::File::open(path).unwrap();
    let trace = Trace::from_reader(file, abc_sim::textio::DEFAULT_MAX_LINE_LEN).unwrap();
    let xi = Xi::from_integer(3);

    // Interleave an on-demand margin request after every event line.
    let mut doc = String::new();
    for line in trace.to_stream_text().lines() {
        doc.push_str(line);
        doc.push('\n');
        if line.starts_with("e ") {
            doc.push_str("margin\n");
        }
    }
    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    assert_eq!(read_reply_line(&mut reader), abc_service::proto::GREETING);
    {
        let mut w = &stream;
        w.write_all(format!("xi {xi}\n").as_bytes()).unwrap();
        w.write_all(doc.as_bytes()).unwrap();
        w.flush().unwrap();
    }
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut replies = String::new();
    reader.read_to_string(&mut replies).unwrap();

    let mut margins: Vec<Option<Ratio>> = Vec::new();
    let mut verdict = None;
    for line in replies.lines() {
        if let Some(rest) = line.strip_prefix("margin ") {
            margins.push(if rest == "none" {
                None
            } else {
                let ratio = rest.split_whitespace().next().unwrap();
                Some(ratio.parse().unwrap())
            });
        } else if let Some(rest) = line.strip_prefix("end ") {
            verdict = Some(rest.to_string());
        }
    }
    // One sample per event, tightening monotonically (None sorts below
    // any formed margin).
    assert_eq!(margins.len(), trace.events().len());
    for pair in margins.windows(2) {
        assert!(pair[0] <= pair[1], "margin loosened: {pair:?}");
    }
    // The session passed through the warning band [2, 3) while still
    // admissible…
    let two = Ratio::from_integer(2);
    let three = Ratio::from_integer(3);
    assert!(
        margins.iter().flatten().any(|r| two <= *r && *r < three),
        "no in-band sample: {margins:?}"
    );
    // …flipping the warning exactly once despite many samples at or
    // above the threshold…
    assert_eq!(
        handle
            .metrics()
            .margin_warnings
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // …and the subsequent latch is byte-identical to the offline monitor.
    let offline = offline_verdict(&trace, &xi).unwrap();
    assert!(offline.is_violation(), "sample trace latches at Xi = 3");
    assert_eq!(verdict.as_deref(), Some(offline.to_string().as_str()));
    handle.join();
}

#[test]
fn prune_horizon_bounds_session_memory_with_identical_verdicts() {
    // A server with a 256-event prune horizon: long sessions must compact
    // their monitors (live_events stays bounded, pruned_events grows), the
    // status page must expose the per-session memory rows, and every
    // verdict must stay byte-identical to the offline monitor.
    let handle = start(ServerConfig {
        shards: 2,
        prune_horizon: Some(256),
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = handle.addr().to_string();
    let status = handle.status_addr().to_string();
    let xi = Xi::from_fraction(3, 2);

    // Feed a long admissible document but hold the connection open just
    // before its `end` line, so the status page shows the live session.
    let trace = clocksync_trace(10, 19, 21, 4_000);
    let text = trace.to_stream_text();
    let (body, end_line) = text.rsplit_once("end").expect("stream text ends with end");
    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    assert_eq!(read_reply_line(&mut reader), abc_service::proto::GREETING);
    {
        let mut w = &stream;
        w.write_all(body.as_bytes()).unwrap();
        w.flush().unwrap();
    }
    // Acks flow while we stream; wait until every event is ingested.
    let events = trace.events().len();
    for seq in 0..events {
        let line = read_reply_line(&mut reader);
        assert_eq!(line, format!("ok {seq}"), "event {seq}");
    }
    // The session is mid-document: its monitor-memory row must show deep
    // compaction and a bounded live window.
    let page = status_command(&status, "metrics").unwrap();
    let row = page
        .lines()
        .find(|l| l.starts_with("session "))
        .unwrap_or_else(|| panic!("no session row in:\n{page}"));
    let field = |key: &str| -> u64 {
        row.split_whitespace()
            .find_map(|f| f.strip_prefix(&format!("{key}=")))
            .unwrap_or_else(|| panic!("row {row:?} lacks {key}"))
            .parse()
            .unwrap_or_else(|_| panic!("row {row:?} field {key} is not a number"))
    };
    assert_eq!(field("events"), events as u64);
    assert!(field("pruned_events") > 3_000, "row: {row}");
    assert!(field("live_events") < 1_000, "row: {row}");
    assert!(field("live_arcs") > 0, "row: {row}");
    assert!(
        field("live_events") + field("pruned_events") == events as u64,
        "live + pruned account for every event: {row}"
    );
    // Aggregate gauges mirror the single session.
    assert!(
        page.contains(&format!(
            "abc_service_monitor_pruned_events_total {}",
            field("pruned_events")
        )),
        "{page}"
    );
    // Finish the document: the verdict matches the offline monitor.
    {
        let mut w = &stream;
        w.write_all(format!("end{end_line}").as_bytes()).unwrap();
        w.flush().unwrap();
    }
    let verdict = read_reply_line(&mut reader);
    assert_eq!(
        verdict,
        format!("end {}", offline_verdict(&trace, &xi).unwrap()),
    );
    drop(stream);

    // A violating document through the same pruning server: byte-identical
    // violation verdict (witness wire form included).
    let violating = clocksync_trace(1, 6, 3, 4_000);
    let outcome = feed_stream_text(&addr, &xi, &violating.to_stream_text()).unwrap();
    let offline = offline_verdict(&violating, &xi).unwrap().to_string();
    assert!(offline.starts_with("violation"), "seed picks a violation");
    assert_eq!(outcome.verdict.to_string(), offline);
    handle.join();
}

/// The value of the unlabelled series `name` on a status page.
fn series(page: &str, name: &str) -> u64 {
    let prefix = format!("{name} ");
    let line = page.lines().find_map(|l| l.strip_prefix(&prefix));
    let line = line.unwrap_or_else(|| panic!("no {name} in:\n{page}"));
    line.parse().unwrap()
}

/// `abc_service_monitor_pruned_events_total` is a counter of the server's
/// lifetime: a session that pruned adds to it, and closing the session
/// takes nothing back, on the human page and the Prometheus one alike.
#[test]
fn pruned_events_total_outlives_its_sessions() {
    const NAME: &str = "abc_service_monitor_pruned_events_total";
    let handle = start(ServerConfig {
        shards: 1,
        prune_horizon: Some(64),
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let (addr, status) = (handle.addr().to_string(), handle.status_addr().to_string());
    let xi = Xi::from_fraction(3, 2);
    let closed = |sessions: u64| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while handle.metrics().sessions_closed.load(Ordering::Relaxed) < sessions {
            assert!(
                std::time::Instant::now() < deadline,
                "session {sessions} never closed"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    };
    let mut totals = Vec::new();
    for (seed, sessions) in [(21, 1), (22, 2)] {
        let trace = clocksync_trace(10, 19, seed, 1_500);
        let outcome = feed_stream_text(&addr, &xi, &trace.to_stream_text()).unwrap();
        assert_eq!(outcome.verdict, offline_verdict(&trace, &xi).unwrap());
        closed(sessions);
        assert_eq!(handle.metrics().sessions_active(), 0);
        let human = series(&status_command(&status, "metrics").unwrap(), NAME);
        assert_eq!(
            series(&status_command(&status, "prom").unwrap(), NAME),
            human
        );
        totals.push(human);
    }
    assert!(totals[0] > 1_000, "{totals:?}");
    assert!(totals[1] > totals[0] + 1_000, "{totals:?}");
    handle.join();
}

#[test]
fn stale_send_reference_beyond_horizon_is_a_clean_protocol_error() {
    // With a tiny horizon, a client naming a send event older than the
    // compacted sidecar gets a parse error citing the horizon — the server
    // survives and keeps serving.
    let handle = start(ServerConfig {
        shards: 1,
        prune_horizon: Some(2),
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = handle.addr().to_string();

    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    assert_eq!(read_reply_line(&mut reader), abc_service::proto::GREETING);
    {
        let mut w = &stream;
        w.write_all(b"abc-trace v1\nprocesses 2\nfaulty\n").unwrap();
        // A prompt ping-pong chain between p0 and p1 pushes the horizon
        // forward (each receive names only the immediately previous event)…
        w.write_all(b"e 0 0 0 - 0 - 0\ne 1 1 0 - 0 - 0\n").unwrap();
        for seq in 2..12usize {
            let (from, to) = ((seq - 1) % 2, seq % 2);
            let send_time = if seq == 2 { 0 } else { seq - 1 };
            let msg = seq - 2;
            w.write_all(
                format!(
                    "m {from} {to} {prev} {seq} {send_time} {seq}\n\
                     e {seq} {to} {seq} {msg} 0 - 0\n",
                    prev = seq - 1
                )
                .as_bytes(),
            )
            .unwrap();
        }
        // …then an `m` line names send event 0, far below the horizon.
        w.write_all(b"m 0 1 0 99 0 50\n").unwrap();
        w.flush().unwrap();
    }
    let mut saw_error = false;
    loop {
        let line = read_reply_line(&mut reader);
        if line.is_empty() {
            break;
        }
        if line.starts_with("error line") {
            assert!(line.contains("prune horizon"), "got {line:?}");
            saw_error = true;
            break;
        }
        assert!(line.starts_with("ok "), "unexpected reply {line:?}");
    }
    assert!(saw_error, "stale reference must be rejected");

    // Server still serves fresh clients whose references respect the
    // horizon (a prompt ping-pong chain names only the previous event).
    let stream = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    assert_eq!(read_reply_line(&mut reader), abc_service::proto::GREETING);
    {
        let mut w = &stream;
        w.write_all(b"abc-trace v1\nprocesses 2\nfaulty\n").unwrap();
        w.write_all(b"e 0 0 0 - 0 - 0\ne 1 1 0 - 0 - 0\n").unwrap();
        for seq in 2..12usize {
            let (from, to) = ((seq - 1) % 2, seq % 2);
            let send_time = if seq == 2 { 0 } else { seq - 1 };
            let msg = seq - 2;
            w.write_all(
                format!(
                    "m {from} {to} {prev} {seq} {send_time} {seq}\n\
                     e {seq} {to} {seq} {msg} 0 - 0\n",
                    prev = seq - 1
                )
                .as_bytes(),
            )
            .unwrap();
        }
        w.write_all(b"end\n").unwrap();
        w.flush().unwrap();
    }
    for seq in 0..12 {
        assert_eq!(read_reply_line(&mut reader), format!("ok {seq}"));
    }
    assert_eq!(read_reply_line(&mut reader), "end admissible events=12");
    handle.join();
}
