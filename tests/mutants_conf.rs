//! Holds `mutants.conf` to the tree: every recorded mutation check still
//! names code that exists, exactly once, and a test that exists. A change
//! that moves or rewrites mutated code, or renames the test that catches
//! the mutant, fails here until it restates the entry. (Running the
//! mutants themselves needs a scratch copy of the workspace and a build
//! per entry; that is not part of this test.)

use std::path::{Path, PathBuf};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// One `mutants.conf` block: its keys in file order.
struct Entry {
    line: usize,
    fields: Vec<(String, String)>,
}

impl Entry {
    fn get(&self, key: &str) -> &str {
        let found = self.fields.iter().find(|(k, _)| k == key);
        let value = found.map(|(_, v)| v.as_str());
        value.unwrap_or_else(|| panic!("mutants.conf:{}: no `{key}`", self.line))
    }
}

fn entries() -> Vec<Entry> {
    let text = std::fs::read_to_string(workspace_root().join("mutants.conf")).unwrap();
    let mut entries: Vec<Entry> = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (key, value) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let field = (key.to_string(), value.trim().to_string());
        if key == "mutant" {
            entries.push(Entry {
                line: n + 1,
                fields: vec![field],
            });
        } else {
            let entry = entries.last_mut();
            let entry =
                entry.unwrap_or_else(|| panic!("mutants.conf:{}: before any mutant", n + 1));
            entry.fields.push(field);
        }
    }
    entries
}

/// The directory of the workspace package named `name`.
fn package_dir(name: &str) -> PathBuf {
    let crates = workspace_root().join("crates");
    for dir in std::fs::read_dir(&crates).unwrap() {
        let dir = dir.unwrap().path();
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
        if manifest.contains(&format!("name = \"{name}\"")) {
            return dir;
        }
    }
    panic!("no package {name} under crates/");
}

/// Every `.rs` file under `dir`.
fn sources(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files
}

#[test]
fn every_mutant_names_one_snippet_and_an_existing_test() {
    let entries = entries();
    assert!(entries.len() >= 4, "{} entries", entries.len());
    for entry in &entries {
        let at = format!("mutants.conf:{}", entry.line);
        let keys: Vec<&str> = entry.fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["mutant", "file", "find", "replace", "test"], "{at}");
        let (find, replace) = (entry.get("find"), entry.get("replace"));
        assert!(!find.is_empty() && find != replace, "{at}: a no-op mutant");
        let source = std::fs::read_to_string(workspace_root().join(entry.get("file")))
            .unwrap_or_else(|e| panic!("{at}: {}: {e}", entry.get("file")));
        assert_eq!(source.matches(find).count(), 1, "{at}: `{find}`");

        let args: Vec<&str> = entry.get("test").split_whitespace().collect();
        let ["-p", package, rest @ ..] = args.as_slice() else {
            panic!("{at}: the test starts with -p CRATE");
        };
        let rest = rest.strip_prefix(&["--release"]).unwrap_or(rest);
        let dir = package_dir(package);
        let (files, filter) = match rest {
            ["--lib", filter] => (sources(&dir.join("src")), filter),
            ["--test", target, filter] => {
                let file = dir.join("tests").join(format!("{target}.rs"));
                assert!(file.is_file(), "{at}: no test target {}", file.display());
                (vec![file], filter)
            }
            _ => panic!("{at}: expected (--lib | --test TARGET) FILTER"),
        };
        let name = filter.rsplit("::").next().unwrap();
        let defines = |file: &PathBuf| {
            let text = std::fs::read_to_string(file).unwrap();
            text.contains(&format!("fn {name}("))
        };
        assert!(files.iter().any(defines), "{at}: no test fn {name}");
    }
}
