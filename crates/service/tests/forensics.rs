//! Forensics integration tests: latch-triggered bundles are
//! byte-reproducible across independent server instances, the status-port
//! `dump` command captures a mid-document snapshot, and the committed
//! violating sample's bundle + `abc inspect` rendering are pinned by
//! golden files.

use std::path::PathBuf;

use abc_core::Xi;
use abc_service::client::status_command;
use abc_service::forensics::ForensicsBundle;
use abc_service::server::{start, ServerConfig};
use abc_service::{feed_stream_text, ServerHandle};
use abc_sim::Trace;

fn sample_trace() -> Trace {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../harness/tests/data/sample_clocksync.trace"
    );
    let file = std::fs::File::open(path).unwrap();
    Trace::from_reader(file, abc_sim::textio::DEFAULT_MAX_LINE_LEN).unwrap()
}

/// The committed sample's stream text with a `margin` request after every
/// event line — the exact document `abc feed --margin-every 1` sends, so
/// the committed bundle can be regenerated with the CLI.
fn sample_doc_with_margins() -> String {
    let mut doc = String::new();
    for line in sample_trace().to_stream_text().lines() {
        doc.push_str(line);
        doc.push('\n');
        if line.starts_with("e ") {
            doc.push_str("margin\n");
        }
    }
    doc
}

fn forensics_server(dir: &std::path::Path) -> ServerHandle {
    start(ServerConfig {
        shards: 1,
        forensics_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("abc-forensics-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Feeds the violating sample document to a fresh forensics-enabled
/// server and returns the latch bundle's bytes (session 0, first dump).
fn latch_bundle(tag: &str) -> String {
    let dir = temp_dir(tag);
    let handle = forensics_server(&dir);
    let addr = handle.addr().to_string();
    let outcome =
        feed_stream_text(&addr, &Xi::from_integer(2), &sample_doc_with_margins()).unwrap();
    assert!(outcome.verdict.is_violation(), "sample violates at Xi = 2");
    // The latch bundle is written the moment the violation latches, which
    // precedes the `end` reply the feed call waited for.
    let bytes = std::fs::read_to_string(dir.join("session-0-0.forensics")).unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

#[test]
fn latch_bundle_is_byte_reproducible_across_server_instances() {
    let a = latch_bundle("repro-a");
    let b = latch_bundle("repro-b");
    assert_eq!(a, b, "same input + flags must produce identical bundles");

    let bundle = ForensicsBundle::parse(&a).expect("live bundle parses");
    assert_eq!(bundle.reason, "latch");
    assert_eq!(bundle.xi, "2");
    let (latch_seq, wire) = bundle.latch.as_ref().expect("violation latched");
    assert!(wire.starts_with("zm="), "witness is wire-form: {wire}");
    assert!(
        bundle
            .timeline
            .iter()
            .any(|(_, e)| e == &format!("latch seq={latch_seq}")),
        "timeline records the latch: {:?}",
        bundle.timeline
    );
    assert!(
        bundle
            .timeline
            .iter()
            .any(|(_, e)| e.starts_with("document start")),
        "timeline records the document start"
    );
    assert!(
        bundle
            .timeline
            .iter()
            .any(|(_, e)| e.starts_with("topology processes=4")),
        "timeline records the topology: {:?}",
        bundle.timeline
    );
    // One margin sample per pre-latch event request plus the latch freeze;
    // the history must be non-empty and end at the frozen ratio 2.
    assert!(!bundle.margins.is_empty());
    assert_eq!(
        bundle.margins.last().unwrap().1,
        "2",
        "{:?}",
        bundle.margins
    );
    // The tail kept the most recent wire records, ending with the margin
    // request that followed the latching event line.
    assert!(!bundle.tail.is_empty());
    assert!(bundle.tail_total >= bundle.tail.len() as u64);
    let events = bundle
        .monitor
        .iter()
        .find(|(k, _)| k == "events")
        .map(|(_, v)| *v)
        .expect("monitor counters include events");
    assert_eq!(events, *latch_seq + 1, "counters frozen at latch time");
}

#[test]
fn committed_bundle_and_inspect_rendering_are_pinned() {
    // The committed bundle is what `abc serve --forensics-dir` writes for
    // `abc feed --margin-every 1` of the committed sample at Xi = 2; the
    // golden file is `abc inspect`'s rendering of it. Regenerate with:
    //   target/debug/abc serve --xi 2 --forensics-dir DIR  (+ feed, shutdown)
    let committed = include_str!("data/sample_violation.forensics");
    assert_eq!(
        latch_bundle("golden"),
        committed,
        "live capture drifted from the committed bundle — regenerate \
         tests/data/sample_violation.forensics and its .golden if intended"
    );
    let bundle = ForensicsBundle::parse(committed).expect("committed bundle parses");
    let golden = include_str!("data/sample_violation.inspect.golden");
    assert_eq!(
        bundle.pretty(),
        golden,
        "inspect rendering drifted from tests/data/sample_violation.inspect.golden"
    );
    // Round trip: parse ∘ render is the identity on the committed bytes.
    assert_eq!(bundle.render(), committed);
}

/// `[monitor]` takes any `<key> <u64>` line, so a bundle written while
/// the monitor still counted `full_checks` (the committed one as it was
/// then) loads and renders with that line in place.
#[test]
fn a_bundle_with_a_counter_the_monitor_no_longer_has_still_loads() {
    let committed = include_str!("data/sample_violation.forensics");
    let old = committed.replace("relaxations 28\n", "relaxations 199\nfull_checks 1\n");
    assert_ne!(old, committed);
    let bundle = ForensicsBundle::parse(&old).expect("an old bundle parses");
    assert!(bundle.monitor.contains(&("full_checks".to_string(), 1)));
    assert_eq!(bundle.render(), old);
    let golden = include_str!("data/sample_violation.inspect.golden");
    let old_rendering = golden.replace(
        "  relaxations      28\n",
        "  relaxations      199\n  full_checks      1\n",
    );
    assert_ne!(old_rendering, golden);
    assert_eq!(bundle.pretty(), old_rendering);
}

#[test]
fn status_port_dump_command_captures_a_mid_document_snapshot() {
    use std::io::{BufRead, BufReader, Write};

    let dir = temp_dir("dump");
    let handle = forensics_server(&dir);
    let addr = handle.addr().to_string();
    let status = handle.status_addr().to_string();

    // Stream the admissible prefix of a document and hold the connection
    // open (everything but the `end` line).
    let trace = sample_trace();
    let text = trace.to_stream_text();
    let (body, _) = text.rsplit_once("end").expect("stream text ends with end");
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut greeting = String::new();
    reader.read_line(&mut greeting).unwrap();
    {
        let mut w = &stream;
        w.write_all(b"xi 4\n").unwrap();
        w.write_all(body.as_bytes()).unwrap();
        w.flush().unwrap();
    }
    // Wait until every event is acked, so the dump sees the full prefix.
    for seq in 0..trace.events().len() {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), format!("ok {seq}"));
    }

    let reply = status_command(&status, "dump").unwrap();
    assert!(reply.contains("forensics dump requested"), "{reply}");
    // The shard notices the epoch bump on its next pass; poll briefly.
    let path = dir.join("session-0-0.forensics");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let text = loop {
        if let Ok(text) = std::fs::read_to_string(&path) {
            break text;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "dump bundle never appeared at {}",
            path.display()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    let bundle = ForensicsBundle::parse(&text).expect("dump bundle parses");
    assert_eq!(bundle.reason, "request");
    assert!(bundle.latch.is_none(), "document is admissible so far");
    let events = bundle
        .monitor
        .iter()
        .find(|(k, _)| k == "events")
        .map(|(_, v)| *v)
        .unwrap();
    assert_eq!(
        events,
        trace.events().len() as u64,
        "live checker counters captured mid-document"
    );
    assert!(
        bundle.tail.iter().any(|l| l.starts_with("e ")),
        "tail holds wire lines: {:?}",
        bundle.tail.last()
    );
    drop(stream);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
