//! The networked `abc` subcommands: `serve`, `feed`, `loadgen`, and
//! `inspect` (thin drivers over `abc-service` and `abc-obs`).

use std::time::Duration;

use abc_core::Xi;
use abc_rational::Ratio;
use abc_service::client::{
    feed_stream_binary, feed_stream_text, format_ms, run_loadgen, LoadgenDoc,
};
use abc_service::forensics::ForensicsBundle;
use abc_service::proto::offline_verdict;
use abc_service::server::{start, ServerConfig, DEFAULT_FORENSICS_TAIL};
use abc_service::signals;
use abc_sim::binio::{FrameWriter, WireRecord, DEFAULT_MAX_FRAME_LEN};
use abc_sim::textio::DEFAULT_MAX_LINE_LEN;
use abc_sim::Trace;

use crate::cli::{Args, EXIT_OK, EXIT_VIOLATION};
use crate::spec::ScenarioSpec;
use crate::sweep::generate_trace;

pub(crate) fn cmd_serve(args: &Args) -> Result<i32, String> {
    args.known(&[
        "addr",
        "status-addr",
        "shards",
        "xi",
        "max-line",
        "max-frame",
        "max-processes",
        "prune-horizon",
        "warn-margin",
        "forensics-dir",
        "forensics-tail",
        "trace-out",
    ])?;
    args.no_positionals()?;
    let trace_out = args.one("trace-out")?.map(std::path::PathBuf::from);
    if trace_out.is_some() {
        // The flight recorder stays a branch-on-disabled no-op unless the
        // operator asked for a trace.
        abc_obs::enable(abc_obs::DEFAULT_RING_CAPACITY);
    }
    let config = ServerConfig {
        addr: args.one("addr")?.unwrap_or("127.0.0.1:7431").to_string(),
        status_addr: args
            .one("status-addr")?
            .unwrap_or("127.0.0.1:0")
            .to_string(),
        shards: args.parsed(
            "shards",
            std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
        )?,
        xi: args
            .one("xi")?
            .map_or_else(|| Ok(Xi::from_integer(2)), str::parse)?,
        max_line_len: args.parsed("max-line", DEFAULT_MAX_LINE_LEN)?,
        max_frame_len: args.parsed("max-frame", DEFAULT_MAX_FRAME_LEN)?,
        max_processes: args.parsed("max-processes", 10_000usize)?,
        prune_horizon: match args.one("prune-horizon")? {
            Some(v) => {
                let h = v
                    .parse::<usize>()
                    .map_err(|e| format!("--prune-horizon: {e}"))?;
                if h == 0 {
                    return Err("--prune-horizon must be at least 1 (a zero horizon would \
                                compact the frontier itself and reject every message)"
                        .into());
                }
                Some(h)
            }
            None => None,
        },
        warn_margin: args
            .one("warn-margin")?
            .map(str::parse::<Ratio>)
            .transpose()
            .map_err(|e| format!("--warn-margin: {e}"))?,
        forensics_dir: args.one("forensics-dir")?.map(std::path::PathBuf::from),
        forensics_tail: args.parsed("forensics-tail", DEFAULT_FORENSICS_TAIL)?,
    };
    let shards = config.shards;
    let xi = config.xi.clone();
    let handle = start(config).map_err(|e| format!("starting server: {e}"))?;
    println!(
        "abc-service listening on {} (shards={shards}, default xi={xi}, \
         protocols v1 text + v2 binary)",
        handle.addr()
    );
    println!(
        "status/control on {} (commands: metrics, prom, dump, shutdown; \
         `GET /metrics` serves the Prometheus exposition over HTTP)",
        handle.status_addr()
    );
    signals::install_sigint_handler();
    loop {
        if signals::sigint_seen() || handle.is_stopping() {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    println!("shutting down…");
    let snapshot = handle.metrics().render();
    handle.join();
    print!("{snapshot}");
    if let Some(path) = trace_out {
        let trace = abc_obs::snapshot().chrome_trace_json();
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote Chrome trace to {}", path.display());
    }
    Ok(EXIT_OK)
}

/// `abc inspect FILE`: pretty-prints a forensics bundle (exit code 2
/// when it carries a latched violation) or structurally validates a
/// Chrome trace JSON export.
pub(crate) fn cmd_inspect(args: &Args) -> Result<i32, String> {
    args.known(&[])?;
    let [file] = args.positional.as_slice() else {
        return Err("expected exactly one bundle or trace-JSON file argument".into());
    };
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    if text.starts_with("abc-forensics") {
        let bundle = ForensicsBundle::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        print!("{}", bundle.pretty());
        Ok(if bundle.latch.is_some() {
            EXIT_VIOLATION
        } else {
            EXIT_OK
        })
    } else if text.trim_start().starts_with('{') {
        let stats = abc_obs::validate_chrome_trace(&text).map_err(|e| format!("{file}: {e}"))?;
        println!(
            "{file}: valid Chrome trace ({} events: {} spans, {} counter samples, {} metadata)",
            stats.events, stats.spans, stats.counters, stats.metadata
        );
        Ok(EXIT_OK)
    } else {
        Err(format!(
            "{file}: neither a forensics bundle (abc-forensics header) nor trace JSON"
        ))
    }
}

pub(crate) fn cmd_feed(args: &Args) -> Result<i32, String> {
    args.known(&["addr", "xi", "binary", "margin-every"])?;
    let addr = args.required("addr")?;
    let xi: Xi = args.required("xi")?.parse()?;
    let binary = args.parsed("binary", false)?;
    let margin_every = match args.one("margin-every")? {
        Some(v) => {
            let n = v
                .parse::<usize>()
                .map_err(|e| format!("--margin-every: {e}"))?;
            if n == 0 {
                return Err("--margin-every must be at least 1".into());
            }
            Some(n)
        }
        None => None,
    };
    let [file] = args.positional.as_slice() else {
        return Err("expected exactly one trace file argument".into());
    };
    let trace = crate::cli::read_trace(file)?;
    let events = trace.events().len();
    let outcome = if binary {
        let bytes = match margin_every {
            Some(n) => stream_binary_with_margin(&trace, n),
            None => trace.to_stream_binary(),
        };
        feed_stream_binary(addr, &xi, &bytes)?
    } else {
        let doc = match margin_every {
            Some(n) => stream_text_with_margin(&trace, n),
            None => trace.to_stream_text(),
        };
        feed_stream_text(addr, &xi, &doc)?
    };
    println!(
        "{file}: streamed {events} events / {} messages to {addr} in {} \
         ({} acks covering {} events, protocol {})",
        trace.messages().len(),
        format_ms(outcome.latency),
        outcome.oks,
        outcome.acked_events,
        if binary { "v2" } else { "v1" },
    );
    for (i, sample) in outcome.margins.iter().enumerate() {
        match (&sample.ratio, &sample.witness) {
            (None, _) => println!("margin[{i}]: none"),
            (Some(r), None) => println!("margin[{i}]: {r}"),
            (Some(r), Some(w)) => println!("margin[{i}]: {r} witness {w}"),
        }
    }
    println!("verdict: {}", outcome.verdict);
    Ok(if outcome.verdict.is_violation() {
        EXIT_VIOLATION
    } else {
        EXIT_OK
    })
}

/// The trace's v1 streaming text with a `margin` request line after every
/// `every`-th event line, plus one final request before `end` when events
/// arrived since the last sample.
fn stream_text_with_margin(trace: &Trace, every: usize) -> String {
    let plain = trace.to_stream_text();
    let mut out = String::with_capacity(plain.len() + 8 * (trace.events().len() / every + 2));
    let mut since_last = 0usize;
    for line in plain.lines() {
        if line == "end" && since_last > 0 {
            out.push_str("margin\n");
            since_last = 0;
        }
        out.push_str(line);
        out.push('\n');
        if line.starts_with("e ") {
            since_last += 1;
            if since_last == every {
                out.push_str("margin\n");
                since_last = 0;
            }
        }
    }
    out
}

/// The trace's v2 binary frames with a margin record after every
/// `every`-th event record, plus one final request before the end record
/// when events arrived since the last sample.
fn stream_binary_with_margin(trace: &Trace, every: usize) -> Vec<u8> {
    let mut w = FrameWriter::new();
    let mut since_last = 0usize;
    for rec in trace.to_stream_records() {
        if matches!(rec, WireRecord::End) && since_last > 0 {
            w.push_record(&WireRecord::Margin);
            since_last = 0;
        }
        let is_event = matches!(rec, WireRecord::Event(_));
        w.push_record(&rec);
        if is_event {
            since_last += 1;
            if since_last == every {
                w.push_record(&WireRecord::Margin);
                since_last = 0;
            }
        }
    }
    w.finish()
}

pub(crate) fn cmd_loadgen(args: &Args) -> Result<i32, String> {
    args.known(&[
        "addr",
        "connections",
        "traces",
        "preset",
        "delay",
        "xi",
        "max-events",
        "seed",
        "verify",
        "binary",
    ])?;
    args.no_positionals()?;
    let addr = args.required("addr")?;
    let connections = args.parsed("connections", 8usize)?;
    let traces = args.parsed("traces", 16usize)?.max(1);
    let verify = args.parsed("verify", true)?;
    let binary = args.parsed("binary", false)?;
    let seed = args.parsed("seed", 42u64)?;

    let preset_name = args.one("preset")?.unwrap_or("quartet");
    let preset = abc_clocksync::presets::by_name(preset_name)
        .ok_or_else(|| format!("unknown preset {preset_name:?} (see `abc list`)"))?;
    let mut spec = ScenarioSpec::from_preset(preset, 1, seed);
    if let Some(delay) = args.one("delay")? {
        spec.delay = delay.parse()?;
    }
    if let Some(xi) = args.one("xi")? {
        spec.xi = xi.parse()?;
    }
    spec.limits.max_events = args.parsed("max-events", 2_000usize)?;
    let points = spec.delay.points();
    if points.is_empty() {
        return Err("delay sweep has no grid points".into());
    }
    spec.runs_per_point = traces.div_ceil(points.len());
    spec.validate()?;

    println!(
        "generating {traces} trace(s): preset={preset_name} delay grid {} point(s), \
         xi={}, max-events={}",
        points.len(),
        spec.xi,
        spec.limits.max_events
    );
    let docs: Vec<LoadgenDoc> = (0..traces)
        .map(|i| {
            let (trace, _) = generate_trace(&spec, &points, i);
            let expect = if verify {
                Some(offline_verdict(&trace, &spec.xi)?)
            } else {
                None
            };
            Ok(LoadgenDoc {
                label: format!("run{i}"),
                events: trace.events().len(),
                expect,
                binary: binary.then(|| trace.to_stream_binary()),
                text: trace.to_stream_text(),
            })
        })
        .collect::<Result<_, String>>()?;

    // The workers sample the shared work queue into the flight recorder
    // (`loadgen.queue_depth`) so the report can show depth percentiles;
    // reset first so a prior run's samples don't pollute this one.
    abc_obs::enable(abc_obs::DEFAULT_RING_CAPACITY);
    abc_obs::reset();
    let report = run_loadgen(addr, &spec.xi, &docs, connections, binary);
    abc_obs::disable();
    let report = report?;
    print!("{}", report.render());
    if verify {
        if report.mismatches > 0 {
            return Err(format!(
                "{} verdict(s) diverged from the offline monitor — server bug",
                report.mismatches
            ));
        }
        println!(
            "verified: all {} verdicts byte-identical to the offline monitor",
            report.outcomes.len()
        );
    }
    Ok(EXIT_OK)
}
