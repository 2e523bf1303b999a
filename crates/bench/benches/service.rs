//! Criterion benches for `abc-service`: loopback ingestion throughput,
//! single-session and 8-session (sharded).
//!
//! Each iteration streams pre-generated clocksync trace documents into a
//! running server and waits for the verdict — i.e. it measures the full
//! pipeline: line assembly, streaming parse, incremental checking, and
//! reply traffic. Divide events by the reported per-iteration time for
//! events/s; the `serve_v1` / `serve_v2` workloads of `bench_ledger`
//! (`BENCHMARK.json`, `crates/bench/src/bin/bench_ledger/README.md`) are
//! the tracked form of the same measurement.

use abc_bench::workloads;
use abc_core::Xi;
use abc_service::client::{run_loadgen, LoadgenDoc};
use abc_service::server::{start, ServerConfig};
use abc_service::{feed_stream_binary, feed_stream_text};
use criterion::{criterion_group, criterion_main, Criterion};

/// Comfortable band: admissible at Ξ = 5, so the checker does real work on
/// every event (no early latch-and-skip).
fn docs(count: u64, events: usize) -> Vec<LoadgenDoc> {
    (0..count)
        .map(|s| {
            let trace = workloads::clocksync_trace(4, 1, 1, 4, 100 + s, events);
            LoadgenDoc {
                label: format!("doc{s}"),
                events: trace.events().len(),
                expect: None,
                text: trace.to_stream_text(),
                binary: Some(trace.to_stream_binary()),
            }
        })
        .collect()
}

fn bench_service_ingest(c: &mut Criterion) {
    let xi = Xi::from_integer(5);
    let handle = start(ServerConfig {
        shards: 4,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = handle.addr().to_string();

    let mut group = c.benchmark_group("service_ingest");
    group.sample_size(10);

    // One session, one 10k-event document per iteration — both wire forms.
    let single = docs(1, 10_000);
    group.bench_function("single_session_10k_events_v1_text", |b| {
        b.iter(|| {
            let out = feed_stream_text(&addr, &xi, &single[0].text).expect("feed");
            assert!(!out.verdict.is_violation());
            out.oks
        });
    });
    let single_bin = single[0].binary.as_deref().unwrap();
    group.bench_function("single_session_10k_events_v2_binary", |b| {
        b.iter(|| {
            let out = feed_stream_binary(&addr, &xi, single_bin).expect("feed");
            assert!(!out.verdict.is_violation());
            out.acked_events
        });
    });

    // Eight concurrent sessions, 8 × 10k events per iteration.
    let eight = docs(8, 10_000);
    group.bench_function("eight_sessions_80k_events_v1_text", |b| {
        b.iter(|| {
            let report = run_loadgen(&addr, &xi, &eight, 8, false).expect("loadgen");
            assert_eq!(report.violations, 0);
            report.total_events
        });
    });
    group.bench_function("eight_sessions_80k_events_v2_binary", |b| {
        b.iter(|| {
            let report = run_loadgen(&addr, &xi, &eight, 8, true).expect("loadgen");
            assert_eq!(report.violations, 0);
            report.total_events
        });
    });
    group.finish();
    handle.join();
}

criterion_group!(benches, bench_service_ingest);
criterion_main!(benches);
