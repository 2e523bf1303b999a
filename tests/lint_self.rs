//! Runs the abc-lint pass over the real workspace in-process, so plain
//! `cargo test` enforces the same gate CI does: the tree must be clean
//! under `lint.conf`, and the policy file itself must be well-formed.

use std::path::Path;

use abc::lint::{lint_root, Config, RuleFilter, ALL_RULES};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let report = lint_root(workspace_root(), &RuleFilter::all()).expect("workspace lints");
    assert!(
        report.is_clean(),
        "abc-lint found violations:\n{}",
        report.render_human()
    );
    assert_eq!(report.rules_run, ALL_RULES);
    // The walk reached the real tree, not an empty directory.
    assert!(
        report.files_checked > 50,
        "only {} files",
        report.files_checked
    );
}

#[test]
fn policy_file_is_well_formed_and_scoped() {
    let config = Config::load(workspace_root()).expect("lint.conf parses");
    // The declared scopes pin the untrusted decode paths and the service.
    assert!(Config::path_in(
        "crates/sim/src/binio.rs",
        &config.untrusted
    ));
    assert!(Config::path_in(
        "crates/service/src/session.rs",
        &config.untrusted
    ));
    assert!(Config::path_in(
        "crates/service/src/server.rs",
        &config.lockscope
    ));
    // Exactly two sanctioned unsafe occurrences in library code, the
    // SIGINT handler and the one `poll(2)` call, and the counting
    // allocator of the prune's allocation gate (a test binary).
    let sanctioned: Vec<&str> = config
        .unsafe_registry
        .iter()
        .map(|e| e.path.as_str())
        .collect();
    assert_eq!(
        sanctioned,
        [
            "crates/service/src/signals.rs",
            "crates/service/src/readiness.rs",
            "crates/bench/tests/prune_alloc.rs",
            "crates/bench/tests/prune_alloc.rs",
            "crates/bench/tests/prune_alloc.rs"
        ]
    );
    // Every suppression carries a written justification.
    for a in &config.allows {
        assert!(!a.justification.is_empty());
    }
    // The fixture tree (which violates everything on purpose) is excluded.
    assert!(Config::path_in(
        "crates/lint/fixtures/bad/src/r1.rs",
        &config.excludes
    ));
}

/// The session is a sans-IO state machine: neither `session.rs` nor any
/// `session/` child module may name a socket or move bytes itself — the
/// connection driver in `server.rs` is the only code that touches a data
/// connection.
#[test]
fn the_session_module_stays_free_of_sockets() {
    const FORBIDDEN: [&str; 4] = ["std::net", "TcpStream", ".read(", "write_vectored"];
    let src = workspace_root().join("crates/service/src");
    let mut files = vec![src.join("session.rs")];
    let mut dirs = vec![src.join("session")];
    while let Some(dir) = dirs.pop() {
        // No `session/` directory (today's layout) means no child modules.
        for entry in std::fs::read_dir(dir).into_iter().flatten() {
            let path = entry.expect("readable directory entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    for file in files {
        let text = std::fs::read_to_string(&file).expect("session source is readable");
        for (n, line) in text.lines().enumerate() {
            for needle in FORBIDDEN {
                assert!(
                    !line.contains(needle),
                    "{}:{}: `{needle}` in the session module",
                    file.display(),
                    n + 1
                );
            }
        }
    }
}
