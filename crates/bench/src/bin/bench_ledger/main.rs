//! `bench_ledger` — the repo's one seeded, layered benchmark: seven
//! workloads, five gated end-to-end metrics plus `failed_share`, and a
//! traced run that attributes each workload to its layers. Every later
//! speed claim is measured with it; `README.md` beside this file defines
//! the metrics and says how to run and compare.
//!
//! ```text
//! bench_ledger run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//! bench_ledger agree A.jsonl B.jsonl
//! bench_ledger list
//! ```
//!
//! `--trace 1` is the traced run: per-layer metrics in place of the
//! end-to-end ones, and a span file. A run of one workload prints two
//! JSON lines: the ledger's record (every metric with unit and sample
//! count, seed, sizes, `hardware_threads`) and, last, the line the
//! benchmark contract in `BENCHMARK.json` fixes. Without `--workload`,
//! `run` executes itself once per workload, so each has its own process
//! and its own `peak_rss_mb`. It drives the program only through public
//! functions of the crates (all of them named in `api.rs`) and adds no
//! hook to any.

#![forbid(unsafe_code)]

mod agree;
mod api;
mod inputs;
mod json;
mod layers;
mod metrics;
mod run;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod workloads;

use std::process::ExitCode;

use metrics::{MetricDef, Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// `--seed` when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// `--seconds` when none is given; `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "usage: bench_ledger run [--workload W] [--seed S] [--seconds N] \
                     [--trace 0|1] | agree A B | list";

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let value = rest
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                options.workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload {value:?}; see `list`"))?,
                );
            }
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=600.0).contains(&options.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option {flag}\n{USAGE}")),
        }
    }
    Ok(options)
}

/// What a run's process exits with: non-zero if any operation failed or
/// any metric is not a number, so a wrong result cannot pass silently.
fn exit_status(result: &run::RunResult) -> u8 {
    u8::from(!result.correct())
}

/// Runs one workload in this process and prints its two lines.
fn run_here(workload: &'static Workload, options: &Options) -> Result<bool, String> {
    let result = run::run(&run::RunConfig {
        workload,
        seed: options.seed,
        seconds: options.seconds,
        sizes: inputs::Sizes::FULL,
        trace: options.trace,
        corrupt_reference: false,
    })?;
    if let Some(spans) = &result.spans_json {
        // Beside the executable: inside the build directory, which the
        // checkout ignores.
        let path = std::env::current_exe()
            .map_err(|e| e.to_string())?
            .with_file_name(format!("bench_ledger.{}.spans.json", workload.name));
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", result.ledger_line());
    println!("{}", result.contract_line());
    Ok(exit_status(&result) == 0)
}

/// Runs every workload, each in a process of its own, one after another.
fn run_each(options: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    for w in &WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["run", "--workload", w.name])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn list() {
    let print = |title: &str, defs: &[MetricDef]| {
        println!("{title}:");
        for d in defs {
            let better = if d.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let bound = d
                .bound
                .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
            println!("  {} [{}] {better} is better{bound}", d.name, d.unit);
        }
    };
    println!("workloads:");
    for w in &WORKLOADS {
        let listed = if w.listed {
            ""
        } else {
            " (not in BENCHMARK.json)"
        };
        println!("  {}{listed}: {}", w.name, w.why);
    }
    print("end-to-end metrics (--trace 0)", &END_TO_END);
    print("per-layer metrics (--trace 1)", &PER_LAYER);
}

fn agree_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    match agree::agree(&read(a)?, &read(b)?) {
        Ok(lines) => {
            println!("agree: {} metrics within their bounds", lines.len());
            Ok(true)
        }
        Err(lines) => {
            for line in lines {
                println!("DISAGREE {line}");
            }
            Ok(false)
        }
    }
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    match command.as_str() {
        "run" => {
            let options = parse_options(rest)?;
            match options.workload {
                Some(w) => run_here(w, &options),
                None => run_each(&options),
            }
        }
        "agree" => match rest {
            [a, b] => agree_files(a, b),
            _ => Err(USAGE.to_string()),
        },
        "list" => {
            list();
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench_ledger: {message}");
            ExitCode::from(2)
        }
    }
}
