//! Correctness half of the binary-framing claim: one session fed the same
//! document over v1 text and v2 frames reaches the same verdict, every
//! event is acknowledged, and v2 acks coalesce. The speed half — how many
//! times faster v2 ingests — is a measurement, not a test: `bench_ledger`
//! carries it as the `serve_v1` and `serve_v2` workloads' `events_per_s`.

use abc_core::Xi;
use abc_service::server::{start, ServerConfig};
use abc_service::{feed_stream_binary, feed_stream_text};
use abc_sim::delay::BandDelay;
use abc_sim::{RunLimits, Simulation, Trace};

fn clocksync_trace(events: usize) -> Trace {
    let mut sim = Simulation::new(BandDelay::new(1, 4, 42));
    for _ in 0..4 {
        sim.add_process(abc_clocksync::TickGen::new(4, 1));
    }
    sim.run(RunLimits {
        max_events: events,
        max_time: u64::MAX,
    });
    sim.trace().clone()
}

#[test]
fn binary_framing_beats_text_by_the_documented_multiple() {
    let xi = Xi::from_integer(5);
    let trace = clocksync_trace(10_000);
    let events = trace.events().len();
    let text = trace.to_stream_text();
    let bin = trace.to_stream_binary();

    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr().to_string();

    let out_text = feed_stream_text(&addr, &xi, &text).unwrap();
    let out_bin = feed_stream_binary(&addr, &xi, &bin).unwrap();
    assert_eq!(out_text.verdict.to_string(), out_bin.verdict.to_string());
    assert!(!out_bin.verdict.is_violation());
    assert_eq!(out_bin.acked_events, events, "acks must cover every event");
    assert!(
        out_bin.oks < out_text.oks,
        "binary acks must coalesce: {} progress replies vs {} in text",
        out_bin.oks,
        out_text.oks
    );
    handle.join();
}
