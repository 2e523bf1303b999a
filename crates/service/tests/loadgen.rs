//! `loadgen` over 8 concurrent connections against a local server: every
//! per-session verdict matches the offline monitor byte for byte, over
//! both framings, and v2 acks coalesce. How many events per second the
//! fleet sustains is a measurement, not a test: `bench_ledger` carries it
//! as the `serve_v1` and `serve_v2` workloads' `events_per_s`.

use abc_core::Xi;
use abc_service::client::{run_loadgen, LoadgenDoc};
use abc_service::proto::offline_verdict;
use abc_service::server::{start, ServerConfig};
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

/// A loadgen document in both framings, expecting the offline verdict.
fn doc(label: String, trace: &Trace, xi: &Xi) -> LoadgenDoc {
    LoadgenDoc {
        label,
        events: trace.events().len(),
        expect: Some(offline_verdict(trace, xi).unwrap()),
        binary: Some(trace.to_stream_binary()),
        text: trace.to_stream_text(),
    }
}

#[test]
fn loadgen_8_connections_sustains_throughput_with_exact_verdicts() {
    let xi = Xi::from_fraction(3, 2);
    // 32 documents, ~2000 events each: a mix of comfortable (admissible)
    // and reordering (violating) bands.
    let docs: Vec<LoadgenDoc> = (0..32u64)
        .map(|s| {
            let trace = if s % 2 == 0 {
                clocksync_trace(10, 19, s, 2_000)
            } else {
                clocksync_trace(1, 6, s, 2_000)
            };
            doc(format!("doc{s}"), &trace, &xi)
        })
        .collect();
    let total_events: usize = docs.iter().map(|d| d.events).sum();

    let handle = start(ServerConfig {
        shards: 4,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.addr().to_string();

    let report = run_loadgen(&addr, &xi, &docs, 8, false).unwrap();

    // Every verdict byte-identical to the offline monitor on the same
    // trace.
    assert_eq!(
        report.mismatches, 0,
        "online verdicts diverged from offline"
    );
    assert_eq!(report.outcomes.len(), docs.len());
    assert_eq!(report.total_events, total_events);
    assert!(report.violations > 0 && report.violations < docs.len());

    // The same fleet over the v2 binary framing: verdicts stay exact and
    // acks coalesce (fewer progress replies than events).
    let report_v2 = run_loadgen(&addr, &xi, &docs, 8, true).unwrap();
    assert_eq!(
        report_v2.mismatches, 0,
        "binary verdicts diverged from offline"
    );
    assert_eq!(report_v2.protocol, "v2");
    assert_eq!(report_v2.total_events, total_events);
    assert!(
        report_v2.acks < report_v2.total_events,
        "batched acks should coalesce: {} acks for {} events",
        report_v2.acks,
        report_v2.total_events
    );

    // The admissible set: band [1, 4] cannot exceed Ξ = 5, so no session
    // may latch, over either framing.
    let xi5 = Xi::from_integer(5);
    let admissible: Vec<LoadgenDoc> = (100..108u64)
        .map(|s| doc(format!("adm{s}"), &clocksync_trace(1, 4, s, 2_000), &xi5))
        .collect();
    for binary in [false, true] {
        let report = run_loadgen(&addr, &xi5, &admissible, 8, binary).unwrap();
        assert_eq!(report.outcomes.len(), admissible.len());
        assert_eq!((report.violations, report.mismatches), (0, 0));
    }
    handle.join();
}
