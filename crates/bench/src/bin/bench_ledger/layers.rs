//! The traced run: per-layer metrics.
//!
//! Each layer is measured from outside, by single-threaded calls into its
//! public functions on the workload's own inputs, timed here and recorded
//! as spans. Costs are per event so the rows of a workload can be added
//! and set against what the whole path costs single-stream (its *basis*:
//! one connection for a served workload, one thread for the sweep and for
//! `offline_check`, the repetition itself for the ring).
//! `ledger.unattributed_share` is the part of the basis that the rows
//! measured in isolation do not cover; rows that are differences
//! (`service.transport`, `sim.engine.overhead`) are that same remainder
//! in absolute terms. Differences are signed: parts measured apart from
//! the whole can add up to more than it, and a share clamped at 0 would
//! pass for perfect attribution. A layer the workload does not pass
//! through reads 0.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::api::{self, Bounded, Decode, Feed, Monitor};
use crate::inputs;
use crate::metrics::{Metrics, OBS_COUNTER_PREFIX, PER_LAYER};
use crate::run::{RunConfig, Tally};
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{check_file, Offline, Prepared, Ring, Serve, Sweep};

/// Passes over the inputs by each isolated codec and monitor loop; the
/// row is their fast end.
const LAYER_ROUNDS: usize = 3;

/// Repetitions of a workload's single-stream basis; the row is their
/// fast end.
const BASIS_ROUNDS: usize = 8;

/// The share of `seconds` the traced run's alternating repetitions take.
/// The isolated layer loops after them are fixed work (1 to 18 s), and
/// the two together should not outlast an untraced run by much.
const ALTERNATE_SHARE: f64 = 1.0 / 3.0;

#[allow(clippy::cast_precision_loss)]
fn ns_per(duration: Duration, count: usize) -> f64 {
    duration.as_secs_f64() * 1e9 / (count.max(1) as f64)
}

#[allow(clippy::cast_precision_loss)]
fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / (den.max(1) as f64)
}

/// Runs `work` [`LAYER_ROUNDS`] times, each in a span `name`, and returns
/// the fast-end cost per event in nanoseconds.
fn rounds(spans: &mut Spans, name: &str, events: usize, mut work: impl FnMut(&mut Spans)) -> f64 {
    let costs: Vec<f64> = (0..LAYER_ROUNDS)
        .map(|_| ns_per(spans.time(name, &mut work).1, events))
        .collect();
    stats::fast_end(&costs, false)
}

/// Timed repetitions for `seconds`, alternately with the flight recorder
/// off and on. Returns the untraced rate; sets `obs.tracing_overhead`
/// and, from the last traced repetition, every `obs.counter.*`.
fn alternate(
    prepared: &Prepared,
    seconds: f64,
    spans: &mut Spans,
    tally: &mut Tally,
    m: &mut Metrics,
) -> f64 {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let clock = Instant::now();
    let counters = loop {
        let rep = spans
            .time("repetition/untraced", |_| prepared.repetition())
            .0;
        tally.absorb(&rep);
        plain.push(rep.events_per_s());
        api::recorder_on();
        let rep = spans.time("repetition/traced", |_| prepared.repetition()).0;
        let counters = api::recorder_off();
        tally.absorb(&rep);
        traced.push(rep.events_per_s());
        if clock.elapsed().as_secs_f64() >= seconds {
            break counters;
        }
    };
    let untraced = stats::fast_end(&plain, true);
    m.set(
        "obs.tracing_overhead",
        1.0 - stats::fast_end(&traced, true) / untraced,
        plain.len() + traced.len(),
    );
    for def in &PER_LAYER {
        if let Some(counter) = def.name.strip_prefix(OBS_COUNTER_PREFIX) {
            let total = counters.iter().find(|(name, _)| *name == counter);
            #[allow(clippy::cast_precision_loss)]
            m.set(def.name, total.map_or(0.0, |(_, v)| *v as f64), 1);
        }
    }
    untraced
}

/// For every `i`, the oldest send event that a step at index `i` or
/// later names: what the server learns from its parser's pending
/// deliveries, computable here because the whole document is known.
fn oldest_named(feeds: &[Feed]) -> Vec<usize> {
    let mut oldest = vec![usize::MAX; feeds.len() + 1];
    for (i, feed) in feeds.iter().enumerate().rev() {
        oldest[i] = feed.send.unwrap_or(usize::MAX).min(oldest[i + 1]);
    }
    oldest
}

struct Replay {
    append: Duration,
    prune: Duration,
    live_peak: usize,
}

/// The benchmark's own replay loop over `append_init` / `append_send`,
/// configured and pruned as a session of the server does it: prune once
/// more than two horizons are live, up to one horizon behind the frontier
/// and never past a send event still to be named; stop feeding at the
/// latch and render the witness. Repair and confirmation are inside the
/// appends.
fn replay(processes: usize, feeds: &[Feed], bounded: Bounded) -> Replay {
    const H: usize = api::PRUNE_HORIZON;
    let oldest = if bounded == Bounded::No {
        Vec::new()
    } else {
        oldest_named(feeds)
    };
    let mut mon = Monitor::new(processes, &inputs::xi(), bounded);
    let mut prune = Duration::ZERO;
    let mut live_peak = 0;
    let started = Instant::now();
    for (i, feed) in feeds.iter().enumerate() {
        mon.append(*feed);
        if mon.latched() {
            black_box(mon.violation_wire());
            break;
        }
        let live = mon.live_events();
        live_peak = live_peak.max(live);
        if bounded != Bounded::No && live > 2 * H {
            let t0 = Instant::now();
            mon.prune((i + 1).saturating_sub(H).min(oldest[i + 1]));
            prune += t0.elapsed();
        }
    }
    Replay {
        append: started.elapsed() - prune,
        prune,
        live_peak,
    }
}

/// Replays every document [`LAYER_ROUNDS`] times; returns the
/// fast-end append and prune cost per event and the largest live
/// window.
fn replay_rows(
    spans: &mut Spans,
    name: &str,
    serve: &Serve,
    bounded: Bounded,
) -> (f64, f64, usize) {
    let docs: Vec<(usize, Vec<Feed>)> = serve.traces.iter().map(api::feeds).collect();
    let events: usize = docs.iter().map(|(_, f)| f.len()).sum();
    let (mut append, mut prune, mut peak) = (Vec::new(), Vec::new(), 0);
    for _ in 0..LAYER_ROUNDS {
        let mut total = Replay {
            append: Duration::ZERO,
            prune: Duration::ZERO,
            live_peak: 0,
        };
        spans.time(name, |_| {
            for (processes, feeds) in &docs {
                let r = replay(*processes, feeds, bounded);
                total.append += r.append;
                total.prune += r.prune;
                total.live_peak = total.live_peak.max(r.live_peak);
            }
        });
        append.push(ns_per(total.append, events));
        prune.push(ns_per(total.prune, events));
        peak = peak.max(total.live_peak);
    }
    (
        stats::fast_end(&append, false),
        stats::fast_end(&prune, false),
        peak,
    )
}

/// Both codecs must give back the trace they were given. The stream
/// forms number messages in delivery order, so traces are compared in
/// that form.
fn round_trips(traces: &[api::Trace], tally: &mut Tally) {
    for t in traces {
        let text = api::encode_stream_text(t);
        let same = |got: Result<api::Trace, String>| {
            got.is_ok_and(|g| api::encode_stream_text(&g) == text)
        };
        tally.check(same(api::parse_binary(&api::encode_stream_binary(t))));
        tally.check(same(api::parse_text(&text)));
    }
}

fn serve_layers(
    serve: &Serve,
    untraced_rate: f64,
    spans: &mut Spans,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let events: usize = serve.traces.iter().map(|t| t.events().len()).sum();

    // The whole path at one connection: the basis of this workload's rows.
    let before = api::server_totals(&serve.server);
    let (mut per_ack, mut ack_p50) = (Vec::new(), Vec::new());
    let (mut rates, mut latencies) = (Vec::new(), Vec::new());
    for _ in 0..BASIS_ROUNDS {
        let one = spans
            .time("service.server.conn1", |_| {
                serve.repetition_with(1, serve.passes, |r| {
                    per_ack.push(r.events_per_ack);
                    ack_p50.push(r.ack_latency_percentiles.0.as_secs_f64() * 1e6);
                })
            })
            .0;
        tally.absorb(&one);
        rates.push(one.events_per_s());
        latencies.extend(one.latencies);
    }
    let after = api::server_totals(&serve.server);
    let conn1_rate = stats::fast_end(&rates, true);
    let conn1 = 1e9 / conn1_rate;
    m.set("service.server.conn1_ns_per_event", conn1, BASIS_ROUNDS);
    m.set(
        "service.server.conn_scaling",
        untraced_rate / conn1_rate,
        BASIS_ROUNDS,
    );
    let fed = after.events - before.events;
    m.set(
        "service.server.bytes_in_per_event",
        ratio(after.bytes_in - before.bytes_in, fed),
        1,
    );
    m.set(
        "service.server.frames_per_doc",
        ratio(
            after.frames - before.frames,
            after.documents - before.documents,
        ),
        1,
    );
    m.set(
        "service.client.events_per_ack",
        stats::median(&per_ack),
        per_ack.len(),
    );
    m.set(
        "service.client.ack_latency_p50_us",
        stats::median(&ack_p50),
        ack_p50.len(),
    );
    let latencies = stats::sorted_millis(&latencies);
    for (label, per_mille) in [("p90", 900), ("p99", 990)] {
        // A tail is quoted only with at least ten samples beyond it.
        if stats::highest_tail(latencies.len()).is_some_and(|(_, top)| top >= per_mille) {
            m.set(
                &format!("service.client.doc_latency_{label}_ms"),
                stats::percentile(&latencies, per_mille),
                latencies.len(),
            );
        }
    }

    // The layers under the session, each alone.
    let mut layers = 0.0;
    if serve.binary {
        let encoded: Vec<&[u8]> = serve
            .docs
            .iter()
            .filter_map(|d| d.binary.as_deref())
            .collect();
        let bytes: usize = encoded.iter().map(|b| b.len()).sum();
        m.set(
            "sim.binio.bytes_per_event",
            ratio(bytes as u64, events as u64),
            1,
        );
        let encode = rounds(spans, "sim.binio.encode", events, |_| {
            for t in &serve.traces {
                black_box(api::encode_stream_binary(t));
            }
        });
        m.set("sim.binio.encode_ns_per_event", encode, LAYER_ROUNDS);
        let mut decode_at = |spans: &mut Spans, name: &str, depth: Decode| {
            rounds(spans, name, events, |_| {
                for (bytes, trace) in encoded.iter().zip(&serve.traces) {
                    tally.check(api::decode_v2(bytes, depth) == Ok(trace.events().len()));
                }
            })
        };
        let decode = decode_at(spans, "sim.binio.decode", Decode::Frames);
        let validated = decode_at(spans, "sim.binio.decode+validate", Decode::Validated);
        m.set("sim.binio.decode_ns_per_event", decode, LAYER_ROUNDS);
        m.set(
            "sim.binio.validate_ns_per_event",
            validated - decode,
            LAYER_ROUNDS,
        );
        layers += decode.max(validated);
    } else {
        let bytes: usize = serve.docs.iter().map(|d| d.text.len()).sum();
        m.set(
            "sim.textio.bytes_per_event",
            ratio(bytes as u64, events as u64),
            1,
        );
        let encode = rounds(spans, "sim.textio.encode", events, |_| {
            for t in &serve.traces {
                black_box(api::encode_stream_text(t));
            }
        });
        m.set("sim.textio.encode_ns_per_event", encode, LAYER_ROUNDS);
        let parse = rounds(spans, "sim.textio.parse", events, |_| {
            for d in &serve.docs {
                tally.check(api::parse_v1(&d.text).is_ok());
            }
        });
        m.set("sim.textio.parse_ns_per_event", parse, LAYER_ROUNDS);
        layers += parse;
    }
    let mode = if serve.bounded {
        Bounded::Tracked
    } else {
        Bounded::No
    };
    let (append, prune, live_peak) = replay_rows(spans, "core.monitor.replay", serve, mode);
    m.set("core.monitor.append_ns_per_event", append, LAYER_ROUNDS);
    m.set("core.monitor.prune_ns_per_event", prune, LAYER_ROUNDS);
    #[allow(clippy::cast_precision_loss)]
    m.set(
        "core.monitor.live_events_peak",
        live_peak as f64,
        LAYER_ROUNDS,
    );
    if serve.bounded {
        let (_, untracked, _) = replay_rows(
            spans,
            "core.monitor.replay/untracked",
            serve,
            Bounded::Untracked,
        );
        m.set(
            "core.monitor.prune_untracked_ns_per_event",
            untracked,
            LAYER_ROUNDS,
        );
    }
    layers += append + prune;
    m.set("service.transport_ns_per_event", conn1 - layers, 1);
    m.set("ledger.unattributed_share", 1.0 - layers / conn1, 1);
    round_trips(&serve.traces, tally);
}

/// The stages of one swept run, in the order [`sweep_pass`] times them.
const SWEEP_STAGES: [&str; 5] = [
    "harness.sweep.simulate",
    "harness.sweep.monitor",
    "core.monitor.margin_bound",
    "core.monitor.margin",
    "core.check.max_ratio",
];

/// Does every run of the sweep stage by stage on this thread, checks it
/// against the reference, and returns the events simulated and the
/// seconds each of [`SWEEP_STAGES`] took.
fn sweep_pass(
    sweep: &Sweep,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(usize, [f64; 5]), String> {
    let xi = api::sweep_xi(&sweep.spec);
    let before = SWEEP_STAGES.map(|stage| spans.total(stage));
    let mut events = 0;
    for (i, want) in sweep.reference.iter().enumerate() {
        let trace = spans
            .time(SWEEP_STAGES[0], |_| api::sweep_trace(&sweep.spec, i))
            .0;
        events += trace.events().len();
        let (mon, at) = spans
            .time(SWEEP_STAGES[1], |_| api::replay_until_violation(&trace, xi))
            .0?;
        spans.time(SWEEP_STAGES[2], |_| black_box(mon.margin_upper_bound()));
        let margin = spans.time(SWEEP_STAGES[3], |_| mon.margin()).0?;
        tally.check(at == want.violation_at && margin == want.final_margin);
        if at.is_none() {
            // A latched monitor reports its witness's ratio, which need
            // not be the graph's maximum; an open one must equal it.
            let batch = spans.time(SWEEP_STAGES[4], |_| mon.batch_max_ratio()).0?;
            tally.check(batch == margin);
        }
    }
    let mut took = [0.0; 5];
    for (slot, (stage, before)) in took.iter_mut().zip(SWEEP_STAGES.iter().zip(before)) {
        *slot = (spans.total(stage) - before).as_secs_f64();
    }
    Ok((events, took))
}

fn sweep_layers(
    sweep: &Sweep,
    untraced_rate: f64,
    spans: &mut Spans,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut rates = Vec::new();
    for _ in 0..BASIS_ROUNDS {
        let one = spans
            .time("harness.sweep.threads1", |_| sweep.repetition(1))
            .0;
        tally.absorb(&one);
        rates.push(one.events_per_s());
    }
    let one_rate = stats::fast_end(&rates, true);
    m.set(
        "harness.sweep.thread_scaling",
        untraced_rate / one_rate,
        BASIS_ROUNDS,
    );

    let mut events = 0;
    let mut passes: [Vec<f64>; 5] = Default::default();
    for _ in 0..LAYER_ROUNDS {
        let (seen, took) = sweep_pass(sweep, spans, tally)?;
        events = seen;
        for (stage, took) in passes.iter_mut().zip(took) {
            stage.push(took);
        }
    }
    let [simulate, monitor, bound, margin, max_ratio] =
        passes.map(|stage| stats::fast_end(&stage, false));
    #[allow(clippy::cast_precision_loss)]
    let (events, runs) = (events.max(1) as f64, sweep.reference.len().max(1) as f64);
    for (metric, value) in [
        (
            "harness.sweep.simulate_ns_per_event",
            simulate * 1e9 / events,
        ),
        ("harness.sweep.monitor_ns_per_event", monitor * 1e9 / events),
        ("core.monitor.margin_ms_per_run", margin * 1e3 / runs),
        ("core.monitor.margin_bound_us", bound * 1e6 / runs),
        ("core.check.max_ratio_ms_per_run", max_ratio * 1e3 / runs),
    ] {
        m.set(metric, value, LAYER_ROUNDS);
    }
    let unattributed = 1.0 - (simulate + monitor + margin) * one_rate / events;
    m.set("harness.sweep.unattributed_share", unattributed, 1);
    m.set("ledger.unattributed_share", unattributed, 1);

    const BISECTION_STEPS: usize = 20_000;
    let (ops, took) = spans.time("rational.ratio.bisection", |_| {
        api::ratio_bisection(BISECTION_STEPS)
    });
    m.set(
        "rational.ratio.ops_per_s",
        ratio(ops, 1) / took.as_secs_f64().max(1e-9),
        1,
    );
    Ok(())
}

fn offline_layers(offline: &Offline, spans: &mut Spans, tally: &mut Tally, m: &mut Metrics) {
    let events: usize = offline.files().map(|f| f.events).sum();
    let bytes: usize = offline.files().map(|f| f.text.len()).sum();
    let ((), wall) = spans.time("offline_check.files", |spans| {
        for file in offline.files() {
            let verdict = check_file(file, &mut |stage, start, took| {
                spans.record(&format!("{stage}/{}", file.family), start, took);
            });
            tally.check(verdict == Ok(file.violates));
        }
    });
    let mut covered = Duration::ZERO;
    for (stage, metric) in [
        ("sim.textio.parse", "sim.textio.parse_ns_per_event"),
        ("sim.trace.to_graph", "sim.trace.to_graph_ns_per_event"),
        (
            "core.check.find_violation",
            "core.check.find_violation_ns_per_event",
        ),
    ] {
        let took = spans.total(&format!("{stage}/canon")) + spans.total(&format!("{stage}/wide"));
        covered += took;
        m.set(metric, ns_per(took, events), offline.files().count());
    }
    m.set(
        "sim.textio.bytes_per_event",
        ratio(bytes as u64, events as u64),
        1,
    );
    m.set(
        "ledger.unattributed_share",
        1.0 - covered.as_secs_f64() / wall.as_secs_f64(),
        1,
    );
    round_trips(&offline.traces, tally);
}

fn ring_layers(
    ring: &Ring,
    untraced_rate: f64,
    cfg: &RunConfig,
    spans: &mut Spans,
    m: &mut Metrics,
) {
    let engine = 1e9 / untraced_rate;
    let kernel = rounds(spans, "sim.engine.kernel_floor", ring.events, |_| {
        let mut digest = ring.seed;
        for _ in 0..ring.events {
            digest = inputs::ring_kernel(digest, inputs::RING_SPINS);
        }
        black_box(digest);
    });
    m.set("sim.engine.ns_per_event", engine, 1);
    m.set("sim.engine.kernel_floor_ns_per_event", kernel, LAYER_ROUNDS);
    m.set("sim.engine.overhead_ns_per_event", engine - kernel, 1);
    m.set("ledger.unattributed_share", 1.0 - kernel / engine, 1);
    let events = cfg.sizes.engine_clocksync_events();
    let xi = inputs::xi();
    for (name, metric, monitor) in [
        (
            "sim.engine.clocksync",
            "sim.engine.clocksync_ns_per_event",
            None,
        ),
        (
            "sim.engine.monitored",
            "sim.engine.monitored_ns_per_event",
            Some(&xi),
        ),
    ] {
        let cost = rounds(spans, name, events, |_| {
            let seed = inputs::stream(ring.seed, 0);
            black_box(api::clocksync_trace(4, 1, (1, 4), seed, events, monitor));
        });
        m.set(metric, cost, LAYER_ROUNDS);
    }
}

/// The traced run of one workload.
///
/// # Errors
///
/// A layer refused an input the program itself produced.
pub fn traced_run(
    prepared: &Prepared,
    cfg: &RunConfig,
    spans: &mut Spans,
    tally: &mut Tally,
    m: &mut Metrics,
) -> Result<(), String> {
    let untraced_rate = alternate(prepared, cfg.seconds * ALTERNATE_SHARE, spans, tally, m);
    match prepared {
        Prepared::Serve(serve) => serve_layers(serve, untraced_rate, spans, tally, m),
        Prepared::Sweep(sweep) => sweep_layers(sweep, untraced_rate, spans, tally, m)?,
        Prepared::Offline(offline) => offline_layers(offline, spans, tally, m),
        Prepared::Ring(ring) => ring_layers(ring, untraced_rate, cfg, spans, m),
    }
    Ok(())
}
