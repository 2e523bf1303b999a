//! The only file that names a crate of the program.
//!
//! Every call the benchmark makes into `abc-*` goes through a function
//! or re-export here, so the public surface the benchmark freezes is
//! readable in one place. It stays clear of what the ROADMAP plans to
//! delete or reshape: no `set_sim_workers`, no `ScenarioSpec { .. }`
//! literal, no `MonitorStats` / `RunStats` field reads (counts come from
//! `abc_obs` counters, `Trace::events().len()` and `live_events()`), no
//! match on `CheckError` variants, no `abc_bench::workloads`.

use abc_core::monitor::IncrementalChecker;
use abc_core::EventId;
use abc_harness::spec::{DelaySweep, Grid, Protocol, ScenarioSpec};
use abc_harness::sweep::{self, SweepOptions};
use abc_sim::binio::{FrameAssembler, RecordDecoder};
use abc_sim::delay::{BandDelay, FixedDelay};
use abc_sim::textio::{LineAssembler, ParsedLine, TraceLineParser, TraceRecord};
use abc_sim::{RunLimits, Simulation};

pub use abc_core::{ProcessId, Xi};
pub use abc_obs::json::JsonValue;
pub use abc_rational::Ratio;
pub use abc_service::{LoadgenDoc, LoadgenReport, ServerHandle, Verdict};
pub use abc_sim::{Context, Process, Trace};

// ---------------------------------------------------------------- sim

fn limits(events: usize) -> RunLimits {
    RunLimits {
        max_events: events,
        max_time: u64::MAX,
    }
}

/// A `TickGen` clock-synchronisation run of `n` processes (fault budget
/// `f`, all correct) under uniform delays in `[lo, hi]`, cut at `events`
/// steps. With `monitor` set the engine streams every step into an
/// attached online monitor for that `Ξ`.
pub fn clocksync_trace(
    n: usize,
    f: usize,
    (lo, hi): (u64, u64),
    seed: u64,
    events: usize,
    monitor: Option<&Xi>,
) -> Trace {
    let mut sim = Simulation::new(BandDelay::new(lo, hi, seed));
    for _ in 0..n {
        sim.add_process(abc_clocksync::TickGen::new(n, f));
    }
    if let Some(xi) = monitor {
        sim.attach_monitor(xi)
            .expect("the benchmark's Xi is a small integer");
    }
    sim.run(limits(events));
    sim.into_trace()
}

/// Runs `processes` under unit delays with the engine's default
/// configuration for `events` steps.
pub fn unit_delay_trace<P: Process<u64> + 'static>(processes: Vec<P>, events: usize) -> Trace {
    let mut sim = Simulation::new(FixedDelay::new(1));
    for p in processes {
        sim.add_process(p);
    }
    sim.run(limits(events));
    sim.into_trace()
}

// ------------------------------------------------------------- codecs

/// `Trace::to_stream_text`: the v1 wire form.
pub fn encode_stream_text(t: &Trace) -> String {
    t.to_stream_text()
}

/// `Trace::to_stream_binary`: the v2 wire form.
pub fn encode_stream_binary(t: &Trace) -> Vec<u8> {
    t.to_stream_binary()
}

/// `Trace::to_text`: the canonical file form `abc check` reads.
pub fn encode_file_text(t: &Trace) -> String {
    t.to_text()
}

/// `Trace::from_text`.
pub fn parse_text(text: &str) -> Result<Trace, String> {
    Trace::from_text(text).map_err(|e| e.to_string())
}

/// `Trace::from_binary`.
pub fn parse_binary(bytes: &[u8]) -> Result<Trace, String> {
    Trace::from_binary(bytes).map_err(|e| e.to_string())
}

/// One step of a document as the monitor sees it: the process, and for a
/// receive the trace index of the sending step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Feed {
    pub process: usize,
    pub send: Option<usize>,
}

/// The process count of `t` and its monitor-facing steps in trace order.
pub fn feeds(t: &Trace) -> (usize, Vec<Feed>) {
    let feeds = t
        .events()
        .iter()
        .map(|ev| Feed {
            process: ev.process.0,
            send: ev.trigger.map(|mi| t.messages()[mi].send_event),
        })
        .collect();
    (t.num_processes(), feeds)
}

/// How much of the server's v2 receive path [`decode_v2`] runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Decode {
    /// `FrameAssembler` + `RecordDecoder::decode_frame` only.
    Frames,
    /// The same, with every record fed to a streaming
    /// `TraceLineParser::feed_record` as the session does.
    Validated,
}

/// Pushes `bytes` through the v2 receive path in socket-sized chunks and
/// returns the number of event records seen.
pub fn decode_v2(bytes: &[u8], depth: Decode) -> Result<usize, String> {
    let mut frames = FrameAssembler::new(abc_sim::DEFAULT_MAX_FRAME_LEN);
    let mut decoder = RecordDecoder::new();
    let mut parser = TraceLineParser::new_streaming().without_header();
    let mut payload = Vec::new();
    let mut events = 0usize;
    let mut fault: Option<String> = None;
    for chunk in bytes.chunks(READ_CHUNK) {
        frames.push(chunk)?;
        while frames.next_frame_into(&mut payload)? {
            decoder.decode_frame(&payload, &mut |rec| {
                let Some(trec) = rec.to_trace_record() else {
                    fault = Some("session record inside a document".to_string());
                    return false;
                };
                if depth == Decode::Frames {
                    events +=
                        usize::from(matches!(std::hint::black_box(&trec), TraceRecord::Event(_)));
                    return true;
                }
                match parser.feed_record(trec) {
                    Ok(ParsedLine::Event(feed)) => {
                        std::hint::black_box(feed);
                        events += 1;
                        true
                    }
                    Ok(_) => true,
                    Err(e) => {
                        fault = Some(e.to_string());
                        false
                    }
                }
            })?;
            if let Some(message) = fault.take() {
                return Err(message);
            }
        }
    }
    frames.finish()?;
    Ok(events)
}

/// The server reads sockets in chunks of this size.
const READ_CHUNK: usize = 64 * 1024;

/// Pushes `text` through the v1 receive path (`LineAssembler` + a
/// streaming `TraceLineParser::feed_line`) in socket-sized chunks and
/// returns the number of event lines seen.
pub fn parse_v1(text: &str) -> Result<usize, String> {
    let mut lines = LineAssembler::new(abc_sim::DEFAULT_MAX_LINE_LEN);
    let mut parser = TraceLineParser::new_streaming();
    let mut events = 0usize;
    for chunk in text.as_bytes().chunks(READ_CHUNK) {
        lines.push(chunk).map_err(|e| e.to_string())?;
        while let Some(line) = lines.next_line() {
            if let ParsedLine::Event(feed) = parser.feed_line(&line).map_err(|e| e.to_string())? {
                std::hint::black_box(feed);
                events += 1;
            }
        }
    }
    Ok(events)
}

// ------------------------------------------------------------ monitor

/// How a [`Monitor`] bounds its memory, mirroring the server's
/// `prune_horizon` / `margin_tracking` pair.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Bounded {
    No,
    Untracked,
    Tracked,
}

/// `IncrementalChecker` for an all-correct system, behind the handful of
/// calls the replay loops make.
pub struct Monitor(IncrementalChecker);

impl Monitor {
    pub fn new(processes: usize, xi: &Xi, bounded: Bounded) -> Monitor {
        let mut mon =
            IncrementalChecker::new(processes, xi).expect("the benchmark's Xi is a small integer");
        if bounded != Bounded::No {
            mon.enable_pruning();
        }
        if bounded == Bounded::Tracked {
            mon.enable_margin_tracking();
        }
        Monitor(mon)
    }

    pub fn append(&mut self, feed: Feed) {
        match feed.send {
            None => {
                self.0.append_init(ProcessId(feed.process));
            }
            Some(send) => {
                self.0.append_send(EventId(send), ProcessId(feed.process));
            }
        }
    }

    pub fn prune(&mut self, watermark: usize) {
        self.0.prune_settled(Some(EventId(watermark)));
    }

    pub fn live_events(&self) -> usize {
        self.0.live_events()
    }

    pub fn latched(&self) -> bool {
        self.0.violation_summary().is_some()
    }

    /// The latched witness in wire form, as the server renders it.
    pub fn violation_wire(&self) -> Option<String> {
        self.0.violation_summary().map(|s| s.wire().to_string())
    }

    /// `current_margin()`: the exact max relevant-cycle ratio.
    pub fn margin(&self) -> Result<Option<Ratio>, String> {
        let report = self.0.current_margin().map_err(|e| e.to_string())?;
        Ok(report.map(|m| m.ratio))
    }

    pub fn margin_upper_bound(&self) -> Option<Ratio> {
        self.0.margin_upper_bound()
    }

    /// Whether `margin_upper_bound()` is below `xi`: no cycle has come
    /// near enough for the monitor to have looked for one.
    pub fn bound_below(&self, xi: &Xi) -> bool {
        self.0
            .margin_upper_bound()
            .is_none_or(|bound| bound < *xi.as_ratio())
    }

    /// `check::max_relevant_cycle_ratio` on the monitor's own graph: the
    /// batch twin of [`Monitor::margin`].
    pub fn batch_max_ratio(&self) -> Result<Option<Ratio>, String> {
        abc_core::check::max_relevant_cycle_ratio(self.0.graph()).map_err(|e| e.to_string())
    }
}

/// `Trace::replay_into_monitor_until_violation`, as `monitor_trace` in
/// the sweep calls it.
pub fn replay_until_violation(t: &Trace, xi: &Xi) -> Result<(Monitor, Option<usize>), String> {
    let (mon, at) = t
        .replay_into_monitor_until_violation(xi)
        .map_err(|e| e.to_string())?;
    Ok((Monitor(mon), at))
}

// -------------------------------------------------------------- check

/// An execution graph, opaque to the benchmark.
pub struct Graph(abc_core::ExecutionGraph);

/// `Trace::to_execution_graph`.
pub fn to_graph(t: &Trace) -> Graph {
    Graph(t.to_execution_graph())
}

/// `check::find_violation`: whether the batch checker finds a violating
/// cycle.
pub fn batch_violates(g: &Graph, xi: &Xi) -> Result<bool, String> {
    abc_core::check::find_violation(&g.0, xi)
        .map(|c| c.is_some())
        .map_err(|e| e.to_string())
}

// ------------------------------------------------------------ service

/// `abc_service::offline_verdict`: the reference every served verdict
/// must equal byte for byte.
pub fn offline_verdict(t: &Trace, xi: &Xi) -> Result<Verdict, String> {
    abc_service::offline_verdict(t, xi)
}

/// A verdict no document of the benchmark can earn, for the test that
/// the checker of outputs notices a wrong expectation.
pub fn impossible_verdict() -> Verdict {
    Verdict::Admissible { events: 0 }
}

/// Starts a loopback server: `ServerConfig::default()` with the given
/// shard count and prune horizon.
pub fn start_server(shards: usize, prune_horizon: Option<usize>) -> Result<ServerHandle, String> {
    abc_service::start(abc_service::ServerConfig {
        shards,
        prune_horizon,
        ..abc_service::ServerConfig::default()
    })
    .map_err(|e| e.to_string())
}

/// The prune horizon `serve_v2_bounded` runs with (`abc serve
/// --prune-horizon 256`).
pub const PRUNE_HORIZON: usize = 256;

/// `run_loadgen`: closed-loop replay of `docs` over `connections`.
pub fn loadgen(
    server: &ServerHandle,
    xi: &Xi,
    docs: &[LoadgenDoc],
    connections: usize,
    binary: bool,
) -> Result<LoadgenReport, String> {
    abc_service::run_loadgen(&server.addr().to_string(), xi, docs, connections, binary)
}

/// Totals of the server's own registry.
#[derive(Clone, Copy, Default)]
pub struct ServerTotals {
    pub bytes_in: u64,
    pub frames: u64,
    pub documents: u64,
    pub events: u64,
}

pub fn server_totals(server: &ServerHandle) -> ServerTotals {
    use std::sync::atomic::Ordering::Relaxed;
    let m = server.metrics();
    ServerTotals {
        bytes_in: m.bytes_in.load(Relaxed),
        frames: m.frames.load(Relaxed),
        documents: m.documents.load(Relaxed),
        events: m.events.load(Relaxed),
    }
}

// -------------------------------------------------------------- sweep

/// The `sweep_band` scenario: the `decade-wide` preset reshaped to
/// ClockSync n=7 f=2 under bands `[1, hi]` for `hi` in 2..=9, `Ξ` = 5.
pub fn band_sweep_spec(seed: u64, max_events: usize, runs_per_point: usize) -> ScenarioSpec {
    let preset = abc_clocksync::presets::by_name("decade-wide").expect("a shipped preset");
    let mut spec = ScenarioSpec::from_preset(preset, runs_per_point, seed);
    spec.name = "bench-ledger-band".to_string();
    spec.protocol = Protocol::ClockSync { n: 7, f: 2 };
    spec.delay = DelaySweep::Band {
        lo: Grid::fixed(1),
        hi: Grid::range(2, 9, 1),
    };
    spec.limits = limits(max_events);
    spec.xi = Xi::from_integer(5);
    spec
}

/// What the benchmark compares of one swept run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepRun {
    pub violation_at: Option<usize>,
    pub final_margin: Option<Ratio>,
}

/// The result of one `run_sweep`.
pub struct SweepResult {
    pub runs: Vec<SweepRun>,
    pub events: u64,
}

/// `run_sweep` at the given thread count.
pub fn run_sweep(spec: &ScenarioSpec, threads: usize) -> Result<SweepResult, String> {
    let report = sweep::run_sweep(
        spec,
        SweepOptions {
            threads,
            ..SweepOptions::default()
        },
    )?;
    Ok(SweepResult {
        runs: report
            .outcomes
            .iter()
            .map(|o| SweepRun {
                violation_at: o.violation.as_ref().map(|v| v.at_event),
                final_margin: o.final_margin.clone(),
            })
            .collect(),
        events: report.events_total,
    })
}

pub fn sweep_runs(spec: &ScenarioSpec) -> usize {
    spec.total_runs()
}

pub fn sweep_xi(spec: &ScenarioSpec) -> &Xi {
    &spec.xi
}

/// `generate_trace`: the simulation half of swept run `run_index`.
pub fn sweep_trace(spec: &ScenarioSpec, run_index: usize) -> Trace {
    sweep::generate_trace(spec, &spec.delay.points(), run_index).0
}

pub use abc_harness::spec::ScenarioSpec as SweepSpec;

// ----------------------------------------------------------- rational

/// `iterations` bisection steps on `Ratio`: each does a `midpoint`, a
/// comparison, a `floor`, and one add, sub and mul on operands whose
/// denominators double as a bisection's do and restart at 2^40. Returns
/// the number of `Ratio` operations done.
pub fn ratio_bisection(iterations: usize) -> u64 {
    const OPS_PER_STEP: u64 = 6;
    let target = Ratio::new(22, 7);
    let (mut lo, mut hi) = (Ratio::one(), Ratio::from_integer(5));
    let mut acc = Ratio::zero();
    for i in 0..iterations {
        if i % 40 == 0 {
            (lo, hi) = (Ratio::one(), Ratio::from_integer(5));
            acc = Ratio::zero();
        }
        let mid = lo.midpoint(&hi);
        let width = &hi - &lo;
        acc = &acc + &(&width * &mid);
        std::hint::black_box(mid.floor());
        if mid < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    std::hint::black_box(acc);
    OPS_PER_STEP * iterations as u64
}

// ---------------------------------------------------------------- obs

/// Clears the flight recorder and turns it on.
pub fn recorder_on() {
    abc_obs::reset();
    abc_obs::enable(abc_obs::DEFAULT_RING_CAPACITY);
}

/// Turns the flight recorder off and returns its counter totals.
pub fn recorder_off() -> Vec<(&'static str, u64)> {
    abc_obs::disable();
    let totals = abc_obs::snapshot().counter_totals();
    abc_obs::reset();
    totals
}

/// `abc_obs::validate_chrome_trace`: the number of events in a
/// structurally valid Chrome trace.
#[cfg(test)]
pub fn chrome_trace_events(json: &str) -> Result<usize, String> {
    abc_obs::validate_chrome_trace(json).map(|stats| stats.events)
}

/// `abc_obs::json::parse`.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    abc_obs::json::parse(text).map_err(|e| e.to_string())
}
