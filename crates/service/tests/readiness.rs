//! Readiness, pinned from outside: a server whose threads block in
//! `poll(2)` costs nothing while nothing moves (by count — recorder
//! counters `service.shard_wakeups` / `service.read_would_block` — and by
//! the process's CPU ticks), every state change that used to be found by
//! ticking wakes the thread it concerns, and the client's one duplex loop
//! neither wedges on full socket buffers nor writes past a final reply.
//!
//! Counters and CPU ticks are process-wide, so every test here runs under
//! one lock.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use abc_core::Xi;
use abc_service::client::status_command;
use abc_service::proto::{offline_verdict, GREETING};
use abc_service::server::{start, ServerConfig};
use abc_service::{feed_stream_binary, feed_stream_text, ServerHandle};
use abc_sim::delay::BandDelay;
use abc_sim::{RunLimits, Simulation, Trace};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Holds the lock with the recorder on, so the `service.*` counters count.
fn counting() -> MutexGuard<'static, ()> {
    let guard = serial();
    abc_obs::enable(16);
    guard
}

fn counter(name: &str) -> u64 {
    abc_obs::snapshot()
        .counter_totals()
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, total)| *total)
}

fn wakeups() -> u64 {
    counter("service.shard_wakeups")
}

fn would_block() -> u64 {
    counter("service.read_would_block")
}

/// `utime + stime` of this process, in clock ticks (10 ms each).
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, so 12 and 13 (1-based) of the rest.
    let rest = stat.rsplit_once(')').expect("comm field").1;
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .expect("tick field")
    };
    tick() + tick()
}

fn server(shards: usize) -> ServerHandle {
    start(ServerConfig {
        shards,
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
}

/// A connection that has read its greeting and says nothing.
fn greeted(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("a greeting within 5 s");
    assert_eq!(line.trim_end(), GREETING);
    stream
}

/// Waits until `probe` reads the same twice, `gap` apart (at most 10 s).
fn settled(gap: Duration, mut probe: impl FnMut() -> u64) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = probe();
    loop {
        std::thread::sleep(gap);
        let now = probe();
        if now == last {
            return now;
        }
        assert!(Instant::now() < deadline, "never settled");
        last = now;
    }
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

/// What one idle second costs: `(shard wake-ups, reads that found
/// nothing, CPU ticks)`.
fn idle_second() -> (u64, u64, u64) {
    settled(Duration::from_millis(50), wakeups);
    let before = (wakeups(), would_block(), cpu_ticks());
    std::thread::sleep(Duration::from_secs(1));
    (
        wakeups() - before.0,
        would_block() - before.1,
        cpu_ticks() - before.2,
    )
}

#[test]
fn an_idle_server_runs_nothing_with_no_connection_or_with_256() {
    let _guard = counting();
    let handle = server(2);
    let (woken, empty_reads, ticks) = idle_second();
    assert_eq!((woken, empty_reads), (0, 0), "no connection");
    assert!(ticks <= 2, "{ticks} CPU ticks in an idle second");

    let horde: Vec<TcpStream> = (0..256).map(|_| greeted(&handle)).collect();
    assert_eq!(handle.sessions().len(), 256);
    let (woken, empty_reads, ticks) = idle_second();
    assert_eq!((woken, empty_reads), (0, 0), "256 idle connections");
    assert!(ticks <= 2, "{ticks} CPU ticks in an idle second beside 256");
    drop(horde);
    handle.join();
}

#[test]
fn idle_siblings_add_no_reads_to_a_busy_connection() {
    let _guard = counting();
    let xi = Xi::from_integer(5);
    let trace = clocksync_trace(1, 4, 42, 10_000);
    let doc = trace.to_stream_binary();
    let want = offline_verdict(&trace, &xi).unwrap().to_string();
    let handle = server(2);
    let addr = handle.addr().to_string();
    // Twice each way, so both shards carry the feed with and without.
    let feed = || {
        let before = would_block();
        for _ in 0..2 {
            let fed = feed_stream_binary(&addr, &xi, &doc).unwrap();
            assert_eq!(fed.verdict.to_string(), want);
        }
        settled(Duration::from_millis(20), wakeups);
        would_block() - before
    };
    let alone = feed();
    let horde: Vec<TcpStream> = (0..255).map(|_| greeted(&handle)).collect();
    let beside = feed();
    assert!(
        beside <= alone + alone / 10 + 4,
        "{beside} reads found nothing beside 255 idle siblings, {alone} alone"
    );
    drop(horde);
    handle.join();
}

#[test]
fn peers_with_nothing_to_consume_cost_no_wakeups() {
    let _guard = counting();
    let handle = server(1);
    let bytes_in = || handle.metrics().bytes_in.load(Ordering::Relaxed);
    let bytes_out = || handle.metrics().bytes_out.load(Ordering::Relaxed);

    // One peer connects and says nothing — not even reading its greeting.
    let mute = TcpStream::connect(handle.addr()).expect("connect");
    let greeting = settled(Duration::from_millis(20), bytes_out);
    assert_eq!(greeting, GREETING.len() as u64 + 1);

    // Another asks for more replies than its socket will carry and never
    // reads one: `margin` between documents draws `margin none`, 12 reply
    // bytes for 7. Chunk by chunk, until the server has read everything
    // and still owes replies it cannot write — then the peer half-closes.
    let mut deaf = TcpStream::connect(handle.addr()).expect("connect");
    let chunk = "margin\n".repeat(32 * 1024);
    let mut sent = 0u64;
    let owed = loop {
        deaf.write_all(chunk.as_bytes()).expect("the server reads");
        sent += chunk.len() as u64;
        let deadline = Instant::now() + Duration::from_secs(10);
        while bytes_in() < sent {
            assert!(Instant::now() < deadline, "the server stopped reading");
            std::thread::sleep(Duration::from_millis(1));
        }
        let due = 2 * greeting + sent / 7 * 12;
        // A full socket is not yet a full socket for good: loopback TCP
        // still grows its windows on acknowledgements that a receiver may
        // delay by up to 200 ms, and the server writes into what opens.
        // Only a quiet longer than that shows the replies stuck.
        if settled(Duration::from_millis(20), bytes_out) < due {
            let owed = due - settled(Duration::from_millis(300), bytes_out);
            if owed > 0 {
                break owed;
            }
        }
        assert!(sent < 1 << 28, "256 MiB of replies fit the socket");
    };
    assert!(
        owed < 1 << 20,
        "below the session's soft cap, so it reads on"
    );
    let woken = wakeups();
    deaf.shutdown(Shutdown::Write).expect("half-close");

    // The server reads the EOF (one wake-up), keeps the session for the
    // replies it owes, and then has nothing it can do: no wake-ups. The
    // window opens only once that wake-up was counted, however long a
    // loaded host takes to get to it.
    let deadline = Instant::now() + Duration::from_secs(10);
    while wakeups() == woken {
        assert!(Instant::now() < deadline, "the server never read the EOF");
        std::thread::sleep(Duration::from_millis(1));
    }
    settled(Duration::from_millis(50), wakeups);
    assert_eq!(handle.sessions().len(), 2);
    let before = (wakeups(), would_block());
    std::thread::sleep(Duration::from_secs(1));
    assert_eq!((wakeups() - before.0, would_block() - before.1), (0, 0));
    assert_eq!(handle.sessions().len(), 2);

    // Once the deaf peer listens, it gets every reply and the session ends.
    let mut replies = Vec::new();
    deaf.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    deaf.read_to_end(&mut replies).expect("replies, then EOF");
    assert_eq!(replies.len() as u64, greeting + sent / 7 * 12);
    assert!(replies.ends_with(b"margin none\n"));
    settled(Duration::from_millis(20), wakeups);
    assert_eq!(handle.sessions().len(), 1);
    drop(mute);
    handle.join();
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("abc-readiness-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `f` on a scratch thread and fails unless it returns within
/// `limit` — a lost wake-up is a hang, which a test must not share.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let t0 = Instant::now();
    std::thread::spawn(move || tx.send(f()));
    let out = rx
        .recv_timeout(limit.max(Duration::from_secs(5)))
        .unwrap_or_else(|_| panic!("{what}: nothing yet (a lost wake-up? a wedge?)"));
    let took = t0.elapsed();
    assert!(took <= limit, "{what} took {took:?}");
    out
}

const PROMPT: Duration = Duration::from_millis(50);

#[test]
fn blocked_threads_are_woken_for_everything_they_used_to_poll_for() {
    let _guard = serial();
    abc_obs::disable();
    let dir = temp_dir("dump");
    let handle = start(ServerConfig {
        shards: 2,
        forensics_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let asleep = || std::thread::sleep(Duration::from_millis(100));

    // A new connection is greeted (accept thread, then its shard).
    asleep();
    let addr = handle.addr();
    let first = within(PROMPT, "greeting", move || {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut line = String::new();
        BufReader::new(&stream)
            .read_line(&mut line)
            .expect("greeting");
        assert_eq!(line.trim_end(), GREETING);
        stream
    });
    let second = greeted(&handle);

    // A dump request reaches both shards: one bundle per live session,
    // `ordinal` being how many this session wrote before.
    let bundles_within_prompt = |ordinal: usize, t0: Instant| {
        let bundles = [0, 1].map(|id| dir.join(format!("session-{id}-{ordinal}.forensics")));
        while !bundles.iter().all(|b| b.exists()) {
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "no bundles (a lost wake-up?)"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(t0.elapsed() <= PROMPT, "bundles took {:?}", t0.elapsed());
    };
    asleep();
    let t0 = Instant::now();
    handle.request_forensics_dump();
    bundles_within_prompt(0, t0);

    // So does the status port's `dump`, through the status thread.
    asleep();
    let status = handle.status_addr().to_string();
    let t0 = Instant::now();
    let reply = status_command(&status, "dump").expect("status port");
    assert_eq!(reply, "ok forensics dump requested\n");
    bundles_within_prompt(1, t0);

    // Status `shutdown` stops every thread and says so with the final
    // snapshot; `join` then has nothing to wait for.
    asleep();
    let reply = within(PROMPT, "status shutdown", move || {
        status_command(&status, "shutdown").expect("status port")
    });
    assert!(reply.starts_with("ok shutting down\n"), "{reply}");
    assert!(reply.contains("abc_service_sessions_active 0\n"), "{reply}");
    assert!(handle.shards_drained());
    within(PROMPT, "join after shutdown", move || handle.join());
    drop((first, second));
    let _ = std::fs::remove_dir_all(&dir);

    // `join` alone, on a server that is fast asleep.
    let handle = server(2);
    asleep();
    within(PROMPT, "join", move || handle.join());
}

#[test]
fn two_hundred_idle_servers_start_and_stop_in_two_seconds() {
    let _guard = serial();
    abc_obs::disable();
    let t0 = Instant::now();
    for _ in 0..200 {
        server(2).join();
    }
    let took = t0.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "200 start/join cycles took {took:?}"
    );
}

/// A conveyor over three processes as a stream document, written without
/// building a `Trace`: event `r` happens at time `r` on process `r % 3`
/// and receives the message event `r - 4` sent (the inits send the first
/// four; the last four stay in flight). Admissible at any `Ξ > 1`... by a
/// wide margin at the `Ξ` = 100 it is fed under; ≈66 request bytes and
/// one ≈10-byte `ok` per event.
fn conveyor_doc(events: usize) -> String {
    use std::fmt::Write;
    const DELAY: usize = 4;
    let mut doc = String::with_capacity(events * 70);
    doc.push_str("abc-trace v1\nprocesses 3\nfaulty\n");
    let send = |doc: &mut String, from: usize, r: usize| {
        let (p, to) = (from % 3, r % 3);
        if r < events + 3 {
            let _ = writeln!(doc, "m {p} {to} {from} {r} {from} {r}");
        } else {
            let _ = writeln!(doc, "m {p} {to} {from} - {from} -");
        }
    };
    for init in 0..3 {
        let _ = writeln!(doc, "e {init} {init} {init} - 0 - 1");
    }
    for r in 3..3 + DELAY {
        send(&mut doc, (r + 2) % 3, r);
    }
    for r in 3..3 + events {
        let _ = writeln!(doc, "e {r} {} {r} {} 0 - 0", r % 3, r - 3);
        send(&mut doc, r, r + DELAY);
    }
    doc.push_str("end\n");
    doc
}

#[test]
fn a_document_larger_than_every_buffer_both_ways_is_fed_from_one_thread() {
    let _guard = serial();
    abc_obs::disable();
    let xi = Xi::from_integer(100);
    // The generator agrees with the offline monitor where that is cheap…
    let small = conveyor_doc(500);
    let offline = offline_verdict(&Trace::from_text(&small).expect("a valid document"), &xi);
    assert_eq!(offline.unwrap().to_string(), "admissible events=503");
    // …and the document fed is one a client that writes without reading
    // wedges on: its `ok` replies (≈7 MB) exceed what a loopback socket
    // with a deaf peer (≈4 MiB under Linux's default `tcp_wmem`) and the
    // session's reply queue (1 MiB soft cap) hold between them, and its
    // request text (≈46 MB) what the other direction takes once the
    // server therefore stops reading. The server prunes, so the memory
    // here is the document's text. A pruning session keeps its margin,
    // and a tracked prune costs milliseconds in a debug build whatever its
    // window, so the horizon keeps prunes rare: ≈700 over the document,
    // where horizon 64 made ≈11 000 and took longer than the limit below.
    const EVENTS: usize = 700_000;
    let doc = conveyor_doc(EVENTS);
    assert!(doc.len() >= 8 << 20, "{} bytes of text", doc.len());
    let handle = start(ServerConfig {
        shards: 1,
        prune_horizon: Some(1024),
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = handle.addr().to_string();
    let fed = within(Duration::from_secs(60), "the large feed", move || {
        feed_stream_text(&addr, &xi, &doc).expect("fed")
    });
    assert_eq!(
        fed.verdict.to_string(),
        format!("admissible events={}", EVENTS + 3)
    );
    assert_eq!((fed.oks, fed.acked_events), (EVENTS + 3, EVENTS + 3));
    handle.join();
}

#[test]
fn a_reply_that_ends_the_exchange_is_returned_without_writing_the_rest() {
    let _guard = serial();
    abc_obs::disable();
    // A header the server refuses at once, then far more than the socket
    // buffers take: the error comes back although nobody reads the rest.
    let doc = format!("not a trace header\n{}", "x".repeat(16 << 20));
    let handle = server(1);
    let addr = handle.addr().to_string();
    let t0 = Instant::now();
    let err = within(Duration::from_secs(5), "the refused feed", move || {
        feed_stream_text(&addr, &Xi::from_integer(2), &doc).expect_err("refused")
    });
    assert!(err.starts_with("server error: line 2:"), "{err}");
    let read = handle.metrics().bytes_in.load(Ordering::Relaxed);
    assert!(
        read < 8 << 20,
        "the server read {read} bytes in {:?}: the client wrote on",
        t0.elapsed()
    );
    handle.join();
}
