//! CLI coverage for the networked subcommands: `abc feed` and
//! `abc loadgen` run against an in-process `abc-service` server (the
//! `serve` subcommand itself blocks on signals, so CI smokes it as a real
//! process; here we drive the same server through its library API).

use abc_harness::cli::{run, EXIT_OK, EXIT_VIOLATION};
use abc_service::server::{start, ServerConfig};

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
fn feed_exits_2_on_violation_and_0_when_admissible() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let path = sample_path();
    // The committed sample has max relevant-cycle ratio 3 — the same
    // verdicts (and exit codes) as `abc monitor` offline.
    assert_eq!(
        run(&sv(&["feed", &path, "--addr", &addr, "--xi", "2"])).unwrap(),
        EXIT_VIOLATION
    );
    assert_eq!(
        run(&sv(&["feed", &path, "--addr", &addr, "--xi", "4"])).unwrap(),
        EXIT_OK
    );
    // Usage errors are errors, not silent defaults.
    assert!(
        run(&sv(&["feed", &path, "--xi", "2"])).is_err(),
        "no --addr"
    );
    assert!(run(&sv(&["feed", "--addr", &addr, "--xi", "2"])).is_err());
    handle.join();
}

#[test]
fn loadgen_verifies_verdicts_against_the_offline_monitor() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    // Small but real: 6 documents over 3 connections, wide band at a
    // tight Xi (mixed verdicts), with offline verification on (default).
    let code = run(&sv(&[
        "loadgen",
        "--addr",
        &addr,
        "--connections",
        "3",
        "--traces",
        "6",
        "--delay",
        "band:1:6",
        "--xi",
        "3/2",
        "--max-events",
        "200",
        "--seed",
        "9",
    ]))
    .unwrap();
    assert_eq!(code, EXIT_OK);
    assert!(run(&sv(&["loadgen", "--addr", &addr, "--preset", "nope"])).is_err());
    assert_eq!(
        run(&sv(&["loadgen", "--addr", &addr, "--sim-workers", "4"])).unwrap_err(),
        "unknown flag --sim-workers",
        "the removed flag is rejected, not ignored"
    );
    handle.join();
}

/// `abc serve` with `extra` flags on ephemeral ports; every case here is
/// refused before a port is bound, so it returns instead of serving.
fn serve_error(extra: &[&str]) -> String {
    let ports = ["--addr", "127.0.0.1:0", "--status-addr", "127.0.0.1:0"];
    run(&sv(&[&["serve"][..], &ports, extra].concat())).unwrap_err()
}

#[test]
fn serve_refuses_a_warn_margin_of_one_or_less() {
    // Every relevant cycle has ratio at least 1, so such a threshold would
    // warn at the first cycle; `abc serve` exits 1 (`run` returns the
    // usage error) naming the flag, pruned or not.
    for w in ["1", "0", "2/3"] {
        for horizon in [&[][..], &["--prune-horizon", "64"][..]] {
            let err = serve_error(&[&["--warn-margin", w][..], horizon].concat());
            assert!(err.contains("--warn-margin"), "{w}: {err}");
        }
    }
}

#[test]
fn serve_rejects_the_removed_tracking_flag() {
    // A monitor that prunes or warns keeps its margin: there is no switch.
    assert_eq!(
        serve_error(&["--prune-horizon", "64", "--margin-tracking", "false"]),
        "unknown flag --margin-tracking",
        "the removed flag is rejected, not ignored"
    );
}
