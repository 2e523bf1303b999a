//! The `abc` command line: `sweep`, `check`, `monitor`, `replay`, `list`,
//! plus the networked `serve`, `feed`, and `loadgen` (thin drivers over
//! the `abc-service` crate).
//!
//! Argument parsing is hand-rolled (no external deps); every subcommand is
//! a pure function from parsed arguments to an exit code, so the whole CLI
//! is exercisable from integration tests without spawning processes.
//!
//! Exit codes: `0` success / admissible, `1` usage or input error, `2`
//! analysis ran and found an ABC violation.

use std::collections::HashMap;

use abc_core::{check, Xi};
use abc_sim::{RunLimits, Trace};

use crate::spec::{DelaySweep, FaultPlan, Protocol, ScenarioSpec};
use crate::sweep::{monitor_trace, run_sweep, SweepOptions};

/// Exit code: analysis succeeded and the execution is admissible.
pub const EXIT_OK: i32 = 0;
/// Exit code: usage or input error.
pub const EXIT_USAGE: i32 = 1;
/// Exit code: analysis succeeded and found a violation.
pub const EXIT_VIOLATION: i32 = 2;

const USAGE: &str = "\
abc — sweep, persist, and re-check ABC-model executions

USAGE:
  abc sweep  (--preset NAME | --protocol clocksync --n N --f F |
              --protocol gossip --n N --budget B)
             [--delay SPEC] --xi XI [--runs N] [--seed S] [--threads T]
             [--max-events E] [--crash SLOT@STEPS]... [--byz SLOT]...
             [--drop FROM:TO]... [--save-violations DIR] [--name NAME]
  abc check   (FILE | --scenario NAME) --xi XI
  abc monitor FILE --xi XI
  abc replay  FILE
  abc list
  abc serve   [--addr A] [--status-addr A] [--shards N] [--xi XI]
              [--max-line BYTES] [--max-frame BYTES] [--max-processes N]
              [--prune-horizon H] [--warn-margin P/Q (above 1)]
              [--forensics-dir DIR] [--forensics-tail N] [--trace-out FILE]
  abc feed    FILE --addr A --xi XI [--binary] [--margin-every N]
  abc loadgen --addr A [--connections C] [--traces N] [--preset NAME]
              [--delay SPEC] [--xi XI] [--max-events E] [--seed S]
              [--verify BOOL] [--binary]
  abc inspect FILE        (a .forensics bundle or a Chrome trace JSON)
  abc lint    [--root DIR] [--json] [--rule R1[,R2…]]...

DELAY SPECS (numeric fields accept `v` or `from..to..step` grids):
  fixed:D | band:LO:HI | growing:LO:HI:TAU | span:LO:HI:VICTIM

EXIT CODES: 0 admissible/ok, 1 usage or input error, 2 violation found.";

/// Flags that are pure switches: present (true) or absent (false), never
/// followed by a value.
const SWITCH_FLAGS: &[&str] = &["binary", "json"];

/// Parsed flags: `--key value` pairs (repeatable) plus positionals.
pub(crate) struct Args {
    pub(crate) positional: Vec<String>,
    flags: HashMap<String, Vec<String>>,
}

impl Args {
    pub(crate) fn parse(args: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags: HashMap<String, Vec<String>> = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if SWITCH_FLAGS.contains(&key) {
                    flags
                        .entry(key.to_string())
                        .or_default()
                        .push("true".into());
                    continue;
                }
                // No flag of this CLI takes a value beginning with `--`,
                // so a following flag means the value was forgotten —
                // reject instead of silently consuming the next flag.
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("flag --{key} needs a value"))?;
                flags
                    .entry(key.to_string())
                    .or_default()
                    .push(value.clone());
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { positional, flags })
    }

    pub(crate) fn no_positionals(&self) -> Result<(), String> {
        match self.positional.first() {
            None => Ok(()),
            Some(p) => Err(format!("unexpected argument {p:?}")),
        }
    }

    pub(crate) fn one(&self, key: &str) -> Result<Option<&str>, String> {
        match self.flags.get(key).map(Vec::as_slice) {
            None => Ok(None),
            Some([v]) => Ok(Some(v)),
            Some(_) => Err(format!("--{key} given more than once")),
        }
    }

    pub(crate) fn required(&self, key: &str) -> Result<&str, String> {
        self.one(key)?.ok_or_else(|| format!("--{key} is required"))
    }

    pub(crate) fn many(&self, key: &str) -> &[String] {
        self.flags.get(key).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.one(key)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("--{key}: {e}")),
        }
    }

    pub(crate) fn known(&self, allowed: &[&str]) -> Result<(), String> {
        for key in self.flags.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("unknown flag --{key}"));
            }
        }
        Ok(())
    }
}

/// Runs the CLI on pre-split arguments (everything after the program
/// name); prints to stdout and returns the exit code.
///
/// # Errors
///
/// A human-readable message for usage/input errors (callers print it to
/// stderr and exit with [`EXIT_USAGE`]).
pub fn run(args: &[String]) -> Result<i32, String> {
    let Some((cmd, rest)) = args.split_first() else {
        println!("{USAGE}");
        return Ok(EXIT_USAGE);
    };
    match cmd.as_str() {
        "sweep" => cmd_sweep(&Args::parse(rest)?),
        "check" => cmd_check(&Args::parse(rest)?),
        "monitor" => cmd_monitor(&Args::parse(rest)?),
        "replay" => cmd_replay(&Args::parse(rest)?),
        "list" => cmd_list(&Args::parse(rest)?),
        "serve" => crate::cli_service::cmd_serve(&Args::parse(rest)?),
        "feed" => crate::cli_service::cmd_feed(&Args::parse(rest)?),
        "loadgen" => crate::cli_service::cmd_loadgen(&Args::parse(rest)?),
        "inspect" => crate::cli_service::cmd_inspect(&Args::parse(rest)?),
        "lint" => crate::cli_lint::cmd_lint(&Args::parse(rest)?),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(EXIT_OK)
        }
        other => Err(format!("unknown subcommand {other:?} (try `abc help`)")),
    }
}

fn parse_fault_plan(args: &Args) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::none();
    for c in args.many("crash") {
        let (slot, steps) = c
            .split_once('@')
            .ok_or_else(|| format!("--crash {c:?}: expected SLOT@STEPS"))?;
        plan.crash.push((
            slot.parse().map_err(|e| format!("--crash slot: {e}"))?,
            steps.parse().map_err(|e| format!("--crash steps: {e}"))?,
        ));
    }
    for b in args.many("byz") {
        plan.byzantine
            .push(b.parse().map_err(|e| format!("--byz: {e}"))?);
    }
    for d in args.many("drop") {
        let (from, to) = d
            .split_once(':')
            .ok_or_else(|| format!("--drop {d:?}: expected FROM:TO"))?;
        plan.dropped_links.push((
            from.parse().map_err(|e| format!("--drop from: {e}"))?,
            to.parse().map_err(|e| format!("--drop to: {e}"))?,
        ));
    }
    Ok(plan)
}

fn cmd_sweep(args: &Args) -> Result<i32, String> {
    args.known(&[
        "preset",
        "protocol",
        "n",
        "f",
        "budget",
        "delay",
        "xi",
        "runs",
        "seed",
        "threads",
        "max-events",
        "crash",
        "byz",
        "drop",
        "save-violations",
        "name",
    ])?;
    let runs = args.parsed("runs", 64usize)?;
    let seed = args.parsed("seed", 42u64)?;
    let threads = args.parsed(
        "threads",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    )?;
    let max_events = args.parsed("max-events", 2_000usize)?;

    args.no_positionals()?;
    let mut spec = if let Some(name) = args.one("preset")? {
        // A preset fixes the protocol; accepting (and ignoring) protocol
        // flags alongside it would silently run something else.
        for conflicting in ["protocol", "n", "f", "budget"] {
            if args.one(conflicting)?.is_some() {
                return Err(format!(
                    "--preset fixes the protocol; --{conflicting} cannot be combined with it"
                ));
            }
        }
        let preset = abc_clocksync::presets::by_name(name)
            .ok_or_else(|| format!("unknown preset {name:?} (see `abc list`)"))?;
        let mut spec = ScenarioSpec::from_preset(preset, runs, seed);
        if let Some(xi) = args.one("xi")? {
            spec.xi = xi.parse()?;
        }
        if let Some(delay) = args.one("delay")? {
            spec.delay = delay.parse()?;
        }
        spec
    } else {
        let protocol = match args.required("protocol")? {
            "clocksync" => Protocol::ClockSync {
                n: args.parsed("n", 4usize)?,
                f: args.parsed("f", 1usize)?,
            },
            "gossip" => Protocol::Gossip {
                n: args.parsed("n", 4usize)?,
                budget: args.parsed("budget", 20u32)?,
            },
            other => return Err(format!("unknown protocol {other:?}")),
        };
        let delay: DelaySweep = args.required("delay")?.parse()?;
        let xi: Xi = args.required("xi")?.parse()?;
        ScenarioSpec {
            name: args.one("name")?.unwrap_or("cli").to_string(),
            protocol,
            delay,
            faults: FaultPlan::none(),
            limits: RunLimits {
                max_events,
                max_time: u64::MAX,
            },
            xi,
            runs_per_point: runs,
            base_seed: seed,
        }
    };
    spec.limits.max_events = max_events;
    spec.runs_per_point = runs;
    // CLI fault flags *extend* the spec's plan (a preset's Byzantine slots
    // survive `--drop`/`--crash` additions); `run_sweep` validates the
    // merged plan against the system size.
    let cli_faults = parse_fault_plan(args)?;
    spec.faults.crash.extend(cli_faults.crash);
    spec.faults.byzantine.extend(cli_faults.byzantine);
    spec.faults.dropped_links.extend(cli_faults.dropped_links);
    if let Some(name) = args.one("name")? {
        spec.name = name.to_string();
    }

    let save_dir = args.one("save-violations")?.map(std::path::PathBuf::from);
    // Saved files are DIR/NAME-runN.trace: a name that is a path would fail
    // on the first write, after the whole sweep ran — or land outside DIR.
    let is_path = spec.name.contains(['/', '\\']) || matches!(spec.name.as_str(), "." | "..");
    if save_dir.is_some() && is_path {
        return Err(format!(
            "--save-violations names its files NAME-runN.trace: --name {:?} must be a plain \
             file name, not a path",
            spec.name
        ));
    }
    let report = run_sweep(
        &spec,
        SweepOptions {
            threads,
            keep_violating_traces: save_dir.is_some(),
        },
    )?;
    println!("{report}");
    if let Some(dir) = save_dir {
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut saved = 0usize;
        for o in &report.outcomes {
            if let Some(trace) = &o.trace {
                let path = dir.join(format!("{}-run{}.trace", spec.name, o.run_index));
                let mut text = format!("# stats {}\n", o.stats);
                if let Some(v) = &o.violation {
                    text.push_str(&format!(
                        "# violation at event {}: {}\n",
                        v.at_event, v.witness
                    ));
                }
                text.push_str(&trace.to_text());
                std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
                saved += 1;
            }
        }
        println!("saved {saved} violating trace(s) to {}", dir.display());
    }
    Ok(if report.violations > 0 {
        EXIT_VIOLATION
    } else {
        EXIT_OK
    })
}

pub(crate) fn read_trace(path: &str) -> Result<Trace, String> {
    // Streamed line-by-line through the incremental parser: the file text
    // is never held whole, and a corrupt/oversized line fails at the line
    // cap instead of after an unbounded read. The file cap is far above
    // the wire default because a legal `faulty` line grows with the
    // process count (~8 bytes per faulty index): 64 MiB admits every
    // trace the serializer itself can produce for millions of processes,
    // while still bounding memory against a corrupt newline-free file.
    const FILE_MAX_LINE_LEN: usize = 64 * 1024 * 1024;
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    Trace::from_reader(std::io::BufReader::new(file), FILE_MAX_LINE_LEN)
        .map_err(|e| format!("{path}: {e}"))
}

fn trace_file_arg(args: &Args) -> Result<&str, String> {
    match args.positional.as_slice() {
        [file] => Ok(file),
        [] => Err("expected a trace file argument".into()),
        _ => Err("expected exactly one trace file argument".into()),
    }
}

fn cmd_check(args: &Args) -> Result<i32, String> {
    args.known(&["scenario", "xi"])?;
    let xi: Xi = args.required("xi")?.parse()?;
    let (label, g) = if let Some(name) = args.one("scenario")? {
        if !args.positional.is_empty() {
            return Err("give either a trace file or --scenario, not both".into());
        }
        let build = abc_models::scenarios::named()
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, b)| b)
            .ok_or_else(|| format!("unknown scenario {name:?} (see `abc list`)"))?;
        (name.to_string(), build())
    } else {
        let file = trace_file_arg(args)?;
        (file.to_string(), read_trace(file)?.to_execution_graph())
    };
    println!(
        "{label}: {} processes, {} events, {} messages",
        g.num_processes(),
        g.num_events(),
        g.num_messages()
    );
    match check::find_violation(&g, &xi).map_err(|e| e.to_string())? {
        None => {
            println!("ADMISSIBLE for Xi = {xi}");
            Ok(EXIT_OK)
        }
        Some(cycle) => {
            println!("VIOLATION for Xi = {xi}: {}", cycle.summarize(&g));
            Ok(EXIT_VIOLATION)
        }
    }
}

fn cmd_monitor(args: &Args) -> Result<i32, String> {
    args.known(&["xi"])?;
    let xi: Xi = args.required("xi")?.parse()?;
    let file = trace_file_arg(args)?;
    let trace = read_trace(file)?;
    let (stats, violation, margin) = monitor_trace(&trace, &xi)?;
    println!(
        "{file}: streamed {} events / {} messages (relaxations={})",
        stats.events, stats.messages, stats.relaxations
    );
    match &margin {
        None => println!("final margin: none (no relevant cycle)"),
        Some(m) => println!("final margin: {m} (headroom {})", xi.as_ratio() - m),
    }
    match violation {
        None => {
            println!("ADMISSIBLE for Xi = {xi} (monitored online)");
            Ok(EXIT_OK)
        }
        Some(v) => {
            println!(
                "VIOLATION for Xi = {xi} latched at event {}: {}",
                v.at_event, v.witness
            );
            Ok(EXIT_VIOLATION)
        }
    }
}

fn cmd_replay(args: &Args) -> Result<i32, String> {
    args.known(&[])?;
    let file = trace_file_arg(args)?;
    let trace = read_trace(file)?;
    let delivered = trace
        .messages()
        .iter()
        .filter(|m| m.recv_event.is_some())
        .count();
    println!(
        "{file}: {} processes, {} events, {} messages ({} delivered, {} in flight/dropped)",
        trace.num_processes(),
        trace.events().len(),
        trace.messages().len(),
        delivered,
        trace.messages().len() - delivered
    );
    let faulty: Vec<String> = (0..trace.num_processes())
        .filter(|p| trace.is_faulty(abc_core::ProcessId(*p)))
        .map(|p| format!("p{p}"))
        .collect();
    println!(
        "faulty: {}",
        if faulty.is_empty() {
            "none".to_string()
        } else {
            faulty.join(" ")
        }
    );
    println!("events per process: {:?}", trace.events_per_process());
    if let Some(last) = trace.events().last() {
        println!("final time: {}", last.time);
    }
    // Canonical round trip: parse(to_text(t)) == t, byte for byte.
    let canonical = trace.to_text();
    let reparsed = Trace::from_text(&canonical).map_err(|e| e.to_string())?;
    if reparsed.to_text() == canonical {
        println!("round trip: OK ({} bytes canonical)", canonical.len());
        Ok(EXIT_OK)
    } else {
        Err("round trip mismatch: serializer and parser disagree".into())
    }
}

fn cmd_list(args: &Args) -> Result<i32, String> {
    args.known(&[])?;
    args.no_positionals()?;
    println!("clock-sync presets (abc sweep --preset NAME):");
    for p in abc_clocksync::presets::all() {
        println!("  {:<14} {}", p.name, p.description);
    }
    println!("named scenarios (abc check --scenario NAME):");
    for (name, desc, _) in abc_models::scenarios::named() {
        println!("  {name:<16} {desc}");
    }
    Ok(EXIT_OK)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn usage_and_unknown_commands() {
        assert_eq!(run(&[]).unwrap(), EXIT_USAGE);
        assert_eq!(run(&sv(&["help"])).unwrap(), EXIT_OK);
        assert!(run(&sv(&["frobnicate"])).is_err());
        assert!(run(&sv(&["sweep", "--bogus", "1"])).is_err());
        assert!(run(&sv(&["check"])).is_err(), "missing file and xi");
    }

    #[test]
    fn malformed_flag_usage_is_rejected_not_misparsed() {
        // A flag followed by another flag must not consume it as a value.
        assert!(run(&sv(&[
            "sweep",
            "--preset",
            "quartet",
            "--save-violations",
            "--threads",
            "8"
        ]))
        .is_err());
        // Stray positionals to sweep/list are errors, not silently ignored.
        assert!(run(&sv(&["sweep", "oops", "--preset", "quartet"])).is_err());
        assert!(run(&sv(&["list", "oops"])).is_err());
        // --preset fixes the protocol: protocol flags cannot ride along.
        assert!(run(&sv(&["sweep", "--preset", "quartet", "--n", "7"])).is_err());
        assert!(run(&sv(&[
            "sweep",
            "--preset",
            "quartet",
            "--protocol",
            "gossip"
        ]))
        .is_err());
    }

    #[test]
    fn preset_fault_flags_extend_rather_than_replace() {
        // septet-byz keeps its two tick-rushers when the CLI adds faults:
        // a --crash on slot 5 now *conflicts* with the preset's Byzantine
        // slot 5, which only happens if the plans were merged.
        assert!(run(&sv(&[
            "sweep",
            "--preset",
            "septet-byz",
            "--crash",
            "5@3",
            "--runs",
            "2",
        ]))
        .unwrap_err()
        .contains("both crash and Byzantine"));
        // A non-conflicting addition (dropped link) runs fine alongside
        // the preset's Byzantine slots.
        let code = run(&sv(&[
            "sweep",
            "--preset",
            "septet-byz",
            "--drop",
            "0:1",
            "--runs",
            "2",
            "--max-events",
            "150",
            "--threads",
            "1",
        ]))
        .unwrap();
        assert_eq!(code, EXIT_OK);
    }

    #[test]
    fn list_runs() {
        assert_eq!(run(&sv(&["list"])).unwrap(), EXIT_OK);
    }

    #[test]
    fn check_named_scenarios_both_verdicts() {
        assert_eq!(
            run(&sv(&["check", "--scenario", "fig10-inorder", "--xi", "4"])).unwrap(),
            EXIT_OK
        );
        assert_eq!(
            run(&sv(&[
                "check",
                "--scenario",
                "fig10-reordered",
                "--xi",
                "4"
            ]))
            .unwrap(),
            EXIT_VIOLATION
        );
        assert!(run(&sv(&["check", "--scenario", "nope", "--xi", "4"])).is_err());
    }

    #[test]
    fn sweep_preset_smoke() {
        let code = run(&sv(&[
            "sweep",
            "--preset",
            "quartet",
            "--runs",
            "3",
            "--max-events",
            "120",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(code, EXIT_OK, "quartet preset is admissible");
    }
}
