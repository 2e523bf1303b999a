//! End-to-end CLI coverage over real files: the trace writers' bytes,
//! `check`, `monitor`, and `replay` against the committed sample trace,
//! plus a `sweep --save-violations` round trip through a temp directory.

use abc_harness::cli::{run, EXIT_OK, EXIT_VIOLATION};

fn sample_path() -> String {
    format!(
        "{}/tests/data/sample_clocksync.trace",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn sv(args: &[&str]) -> Vec<String> {
    args.iter().map(ToString::to_string).collect()
}

/// The writers' bytes, pinned on the sample (4 processes, 128 messages, 8
/// of them undelivered): the file is what `to_text` writes, the stream
/// golden is what `to_stream_text` wrote before the writers shared one
/// record renderer, and the binary stream reads back to the trace the
/// golden reads back to (messages renumbered to delivery order), which
/// streams to the golden again.
#[test]
fn sample_trace_writers_reproduce_their_bytes() {
    let file = std::fs::read_to_string(sample_path()).unwrap();
    let trace = abc_sim::Trace::from_text(&file).unwrap();
    assert_eq!(trace.to_text(), file);
    let golden = std::fs::read_to_string(format!(
        "{}/tests/data/sample_clocksync.stream.golden",
        env!("CARGO_MANIFEST_DIR")
    ))
    .unwrap();
    assert_eq!(trace.to_stream_text(), golden);
    let back = abc_sim::Trace::from_binary(&trace.to_stream_binary()).unwrap();
    let streamed = abc_sim::Trace::from_text(&golden).unwrap();
    assert_eq!(back.to_text(), streamed.to_text());
    assert_eq!(back.to_stream_text(), golden);
}

#[test]
fn check_sample_trace_both_verdicts() {
    let path = sample_path();
    // The committed sample has max relevant-cycle ratio 3: admissible for
    // Xi = 4 (strict inequality), violating for Xi = 2.
    assert_eq!(run(&sv(&["check", &path, "--xi", "4"])).unwrap(), EXIT_OK);
    assert_eq!(
        run(&sv(&["check", &path, "--xi", "2"])).unwrap(),
        EXIT_VIOLATION
    );
}

#[test]
fn monitor_sample_trace_matches_batch_verdicts() {
    let path = sample_path();
    assert_eq!(run(&sv(&["monitor", &path, "--xi", "4"])).unwrap(), EXIT_OK);
    assert_eq!(
        run(&sv(&["monitor", &path, "--xi", "2"])).unwrap(),
        EXIT_VIOLATION
    );
}

#[test]
fn replay_sample_trace_round_trips() {
    assert_eq!(run(&sv(&["replay", &sample_path()])).unwrap(), EXIT_OK);
}

#[test]
fn missing_and_corrupt_files_error_cleanly() {
    assert!(run(&sv(&["replay", "/nonexistent/x.trace"])).is_err());
    let dir = std::env::temp_dir().join("abc-cli-corrupt-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.trace");
    std::fs::write(&bad, "abc-trace v1\nprocesses zork\n").unwrap();
    assert!(run(&sv(&["check", bad.to_str().unwrap(), "--xi", "2"])).is_err());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_rejects_the_removed_engine_worker_flag() {
    // The engine is single-threaded; the flag is gone, not ignored.
    let err = run(&sv(&["sweep", "--preset", "quartet", "--sim-workers", "4"])).unwrap_err();
    assert_eq!(err, "unknown flag --sim-workers");
}

#[test]
fn sweep_saves_violating_traces_that_recheck_identically() {
    let dir = std::env::temp_dir().join(format!("abc-sweep-save-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let code = run(&sv(&[
        "sweep",
        "--protocol",
        "clocksync",
        "--n",
        "4",
        "--f",
        "1",
        "--delay",
        "band:1:6",
        "--xi",
        "3/2",
        "--runs",
        "8",
        "--max-events",
        "150",
        "--seed",
        "9",
        "--threads",
        "2",
        "--name",
        "save-test",
        "--save-violations",
        dir.to_str().unwrap(),
    ]))
    .unwrap();
    assert_eq!(code, EXIT_VIOLATION, "wide band at Xi=3/2 must violate");
    let saved: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(!saved.is_empty(), "no traces saved");
    // Every saved trace re-checks as violating at the swept Xi, through
    // the public file pipeline (comments in the file are ignored).
    for path in &saved {
        assert_eq!(
            run(&sv(&["check", path.to_str().unwrap(), "--xi", "3/2"])).unwrap(),
            EXIT_VIOLATION,
            "{}",
            path.display()
        );
        assert_eq!(
            run(&sv(&["replay", path.to_str().unwrap()])).unwrap(),
            EXIT_OK
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The witness line `abc check` or `abc monitor` prints for `file` at
/// `Ξ = xi`: the text after the first `": "` of its `VIOLATION` line (the
/// monitor's line also names the latch event before it).
fn printed_witness(command: &str, file: &str, xi: &str) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_abc"))
        .args([command, file, "--xi", xi])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(EXIT_VIOLATION), "{command} {file}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout.lines().find(|l| l.starts_with("VIOLATION for Xi"));
    let line = line.unwrap_or_else(|| panic!("{command} {file}: {stdout}"));
    line.split_once(": ").unwrap().1.to_string()
}

/// One decision procedure, one witness: `abc check` replays the file's
/// graph into the monitor `abc monitor` streams it into, and prints the
/// same canonical cycle — on the sample at Ξ = 2 and on every trace a
/// violating sweep keeps (CI's sweep, whose traces the `check` golden
/// pins).
#[test]
fn check_and_monitor_print_the_same_witness() {
    let sample = sample_path();
    let witness = printed_witness("check", &sample, "2");
    assert_eq!(witness, printed_witness("monitor", &sample, "2"));
    let dir = std::env::temp_dir().join(format!("abc-same-witness-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let sweep = sv(&[
        "sweep",
        "--protocol",
        "clocksync",
        "--n",
        "4",
        "--f",
        "1",
        "--delay",
        "band:1:6",
        "--xi",
        "3/2",
        "--runs",
        "16",
        "--max-events",
        "200",
        "--threads",
        "2",
        "--save-violations",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(run(&sweep).unwrap(), EXIT_VIOLATION);
    let saved: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(saved.len(), 16, "every run of the band violates");
    let xi = "3/2".parse().unwrap();
    for path in &saved {
        let file = path.to_str().unwrap();
        let checked = printed_witness("check", file, "3/2");
        assert_eq!(checked, printed_witness("monitor", file, "3/2"), "{file}");
        // …and the witness is a violating cycle of the file's graph.
        let text = std::fs::read_to_string(path).unwrap();
        let g = abc_sim::Trace::from_text(&text)
            .unwrap()
            .to_execution_graph();
        let cycle = abc_core::check::find_violation(&g, &xi).unwrap().unwrap();
        assert_eq!(
            abc_core::certify::violation(&g, &xi, &cycle),
            Ok(()),
            "{file}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// What `abc check` answers on the files and scenarios its golden pins
/// carries a certificate: a violating cycle, or a normalized assignment.
#[test]
fn check_answers_on_the_pinned_inputs_are_certified() {
    use abc_core::assign::assign_delays;
    use abc_core::{certify, check, ExecutionGraph, Xi};

    let certified = |g: &ExecutionGraph, xi: &Xi| match check::find_violation(g, xi).unwrap() {
        Some(cycle) => certify::violation(g, xi, &cycle),
        None => certify::admissible(g, xi, &assign_delays(g, xi).unwrap()),
    };
    let xis = ["3/2", "2", "4", "5"].map(|x| x.parse::<Xi>().unwrap());
    for (name, _, build) in abc_models::scenarios::named() {
        for xi in &xis {
            assert_eq!(certified(&build(), xi), Ok(()), "{name} at {xi}");
        }
    }
    let file = std::fs::read_to_string(sample_path()).unwrap();
    let g = abc_sim::Trace::from_text(&file)
        .unwrap()
        .to_execution_graph();
    for xi in &xis {
        assert_eq!(certified(&g, xi), Ok(()), "the sample at {xi}");
    }
}

/// One ceiling for `Ξ`: every entry point takes `(2^63 − 1)/1` and refuses
/// `2^63/1` with `XiTooLarge`, the batch check, Theorem 7's assignment,
/// the monitor and a trace's replay alike.
#[test]
fn every_entry_point_shares_one_xi_ceiling() {
    use abc_core::assign::{assign_delays, AssignError};
    use abc_core::check::{self, CheckError};
    use abc_core::{IncrementalChecker, Xi};
    use abc_rational::{BigInt, Ratio};

    let file = std::fs::read_to_string(sample_path()).unwrap();
    let trace = abc_sim::Trace::from_text(&file).unwrap();
    let g = trace.to_execution_graph();
    let xi = |p: BigInt| Xi::new(Ratio::from_bigints(p, BigInt::from(1))).unwrap();
    let largest = xi(BigInt::from(i64::MAX));
    assert_eq!(check::find_violation(&g, &largest), Ok(None));
    assert_eq!(check::is_admissible(&g, &largest), Ok(true));
    assert!(assign_delays(&g, &largest)
        .unwrap()
        .is_normalized(&g, &largest));
    let n = g.num_processes();
    assert!(IncrementalChecker::new(n, &largest).is_ok());
    assert!(trace.replay_into_monitor(&largest).unwrap().is_admissible());
    let beyond = xi(BigInt::from(i128::from(i64::MAX) + 1));
    assert_eq!(
        check::find_violation(&g, &beyond),
        Err(CheckError::XiTooLarge)
    );
    assert_eq!(
        check::is_admissible(&g, &beyond),
        Err(CheckError::XiTooLarge)
    );
    assert_eq!(assign_delays(&g, &beyond), Err(AssignError::XiTooLarge));
    assert_eq!(
        IncrementalChecker::new(n, &beyond).err(),
        Some(CheckError::XiTooLarge)
    );
    assert_eq!(
        trace.replay_into_monitor(&beyond).err(),
        Some(CheckError::XiTooLarge)
    );
}

#[test]
fn sweep_refuses_a_path_in_name_before_it_runs() {
    // `--name a/b` used to run the whole sweep and fail on the first write
    // (`a/b-run0.trace`: no such directory); `--name ../x` wrote outside
    // the directory. Both are refused up front, naming the flag.
    let dir = std::env::temp_dir().join(format!("abc-sweep-name-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let inner = dir.join("inner");
    for name in ["a/b", "../x", "..", "."] {
        let err = run(&sv(&[
            "sweep",
            "--protocol",
            "clocksync",
            "--delay",
            "band:1:6",
            "--xi",
            "3/2",
            "--runs",
            "8",
            "--max-events",
            "150",
            "--threads",
            "1",
            "--name",
            name,
            "--save-violations",
            inner.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(
            err.contains("--save-violations") && err.contains("--name"),
            "{err}"
        );
        assert!(!dir.exists(), "refused before anything ran or was created");
    }
    // Without --save-violations a name is only a label.
    assert!(run(&sv(&[
        "sweep",
        "--preset",
        "quartet",
        "--runs",
        "2",
        "--max-events",
        "120",
        "--threads",
        "1",
        "--name",
        "a/b",
    ]))
    .is_ok());
}
