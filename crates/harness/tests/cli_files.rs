//! End-to-end CLI coverage over real files: `check`, `monitor`, and
//! `replay` against the committed sample trace, plus a `sweep
//! --save-violations` round trip through a temp directory.

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
