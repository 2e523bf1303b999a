//! Tests that drive whole runs: the smoke test, the fault injections for
//! the checker of outputs, and `agree`; and the test that keeps the
//! package's own manifest in step with `abc-bench`'s. They assert no
//! speed.

use std::time::Instant;

use crate::agree::agree;
use crate::api;
use crate::inputs::Sizes;
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::run::{run, RunConfig, RunResult};

/// 1/50 of every count, one timed repetition.
fn small(workload: &str, trace: bool, corrupt_reference: bool) -> RunResult {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .expect("a declared workload");
    run(&RunConfig {
        workload,
        seed: crate::DEFAULT_SEED,
        seconds: 0.0,
        sizes: Sizes { divisor: 50 },
        trace,
        corrupt_reference,
    })
    .expect("the run completes")
}

#[test]
fn smoke_every_workload_reports_every_declared_metric() {
    let started = Instant::now();
    for w in &WORKLOADS {
        for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let result = small(w.name, trace, false);
            assert_eq!(result.tally.failed, 0, "{} trace={trace}", w.name);
            assert_eq!(result.failed_share(), 0.0);
            assert!(result.correct(), "{} trace={trace}", w.name);
            assert_eq!(crate::exit_status(&result), 0);

            // The contract's line: exactly four keys, every declared
            // metric with its unit, finite, and not negative unless it
            // is a difference.
            let line = api::parse_json(&result.contract_line()).expect("valid JSON");
            let api::JsonValue::Object(keys) = &line else {
                panic!("the contract line is an object");
            };
            let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let metrics = line.get("metrics").expect("metrics");
            for def in defs {
                let row = metrics
                    .get(def.name)
                    .unwrap_or_else(|| panic!("{} trace={trace}: {} is missing", w.name, def.name));
                let value = row.get("value").and_then(api::JsonValue::as_f64);
                assert!(
                    value.is_some_and(|v| v.is_finite() && (def.signed || v >= 0.0)),
                    "{} {} = {value:?}",
                    w.name,
                    def.name
                );
                assert_eq!(
                    row.get("unit").and_then(api::JsonValue::as_str),
                    Some(def.unit)
                );
            }
            if !trace {
                // Gated metrics may never read 0. (CPU time ticks in
                // 10 ms steps and can read 0 on a run this small.)
                assert!(result
                    .metrics
                    .rows()
                    .all(|(def, value, _)| value > 0.0 || def.name == "cpu_us_per_event"));
            }

            // The ledger's own record carries the host and the inputs.
            let record = api::parse_json(&result.ledger_line()).expect("valid JSON");
            assert!(record.get("hardware_threads").is_some() && record.get("sizes").is_some());
            assert_eq!(
                record.get("seed").and_then(api::JsonValue::as_f64),
                Some(1.0)
            );

            match &result.spans_json {
                Some(json) => assert!(trace && api::chrome_trace_events(json).is_ok_and(|n| n > 3)),
                None => assert!(!trace),
            }
        }
    }
    assert!(
        started.elapsed().as_secs() < 15,
        "the smoke test took {:?}",
        started.elapsed()
    );
}

#[test]
fn a_flipped_reference_fails_the_run() {
    // The first expected verdict, sweep margin or ring digest is wrong.
    for workload in [
        "serve_v2",
        "serve_v1",
        "offline_check",
        "sweep_band",
        "sim_wide_ring",
    ] {
        let result = small(workload, false, true);
        assert!(result.tally.failed > 0, "{workload}");
        assert!(
            result.failed_share() > 0.0 && !result.correct(),
            "{workload}"
        );
        assert_ne!(crate::exit_status(&result), 0, "{workload}");
        let line = api::parse_json(&result.contract_line()).expect("valid JSON");
        assert_eq!(line.get("correct"), Some(&api::JsonValue::Bool(false)));
    }
    // The traced sweep also checks every run's margin on its own.
    assert!(small("sweep_band", true, true).tally.failed > 0);
}

#[test]
fn agree_accepts_a_file_against_itself_and_rejects_a_slower_one() {
    let mut result = small("sim_wide_ring", false, false);
    let traced = small("sim_wide_ring", true, false);
    // A result file as `run > file` leaves it: ledger records between
    // contract lines, here with a traced record that must be skipped.
    let file = |r: &RunResult| {
        format!(
            "{}\n{}\n{}\n",
            r.ledger_line(),
            r.contract_line(),
            traced.ledger_line()
        )
    };
    let a = file(&result);
    assert_eq!(agree(&a, &a).map(|lines| lines.len()), Ok(END_TO_END.len()));

    let rate = result.metrics.get("events_per_s").expect("measured");
    result.metrics.set("events_per_s", rate * 0.7, 1);
    let off = agree(&a, &file(&result)).expect_err("43% apart is beyond a 25% bound");
    assert_eq!(off.len(), 1);
    assert!(off[0].contains("events_per_s"), "{off:?}");

    assert!(agree(&a, "").is_err());
    assert!(agree("{\"bench\":\"other\"}", &a).is_err());
}

/// `main.rs` is built twice: by `abc-bench`, which tier-1 compiles and
/// tests, and by the manifest beside it, which the command in
/// `BENCHMARK.json` builds and tier-1 never sees. This test is what keeps
/// the second in step with the first: every dependency is a workspace
/// crate by path that `abc-bench` depends on too, and neither build sets
/// a profile (the workspace's would not reach the package).
#[test]
fn the_packages_own_manifest_is_in_step_with_abc_bench() {
    let own = include_str!("Cargo.toml");
    let bench = include_str!("../../../Cargo.toml");
    let root = include_str!("../../../../../Cargo.toml");
    let dependencies: Vec<&str> = own
        .lines()
        .skip_while(|l| l.trim() != "[dependencies]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| l.contains('='))
        .collect();
    assert!(dependencies.len() >= 5, "{dependencies:?}");
    for line in dependencies {
        let name = line.split('=').next().expect("a key").trim();
        let dir = name.strip_prefix("abc-").expect("a crate of the workspace");
        assert!(
            line.contains(&format!("path = \"../../../../{dir}\"")),
            "{line}"
        );
        assert!(
            bench.contains(&format!("\n{name}.workspace = true")),
            "{name}"
        );
        assert!(
            root.contains(&format!("\n{name} = {{ path = \"crates/{dir}\" }}")),
            "{name}"
        );
    }
    assert!(!own.contains("[profile") && !root.contains("[profile"));
    assert!(own.contains("edition = \"2021\"") && root.contains("edition = \"2021\""));
}
