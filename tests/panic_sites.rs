//! ROADMAP 6(a)'s panic tally as a ratchet: every product source file is
//! scanned, and the count of non-test panic sites in it may only shrink.
//!
//! The part of each `crates/*/src/**/*.rs` above its first `#[cfg(test)]`
//! (all of it when there is none) may not call `.expect(`, `.unwrap()`,
//! `panic!(`, `unreachable!(`, `todo!(` or a release-mode `assert*!(`;
//! `debug_assert*!` is allowed (it documents an invariant and costs
//! release builds nothing), and so is anything inside a comment. A file
//! not in `KNOWN` must scan clean — a new file is clean by default — and a
//! file in it may not exceed its count. A PR that converts a site lowers
//! the count, or removes the line when it reaches zero.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Lines with a panic site still in each file, by path from the
/// repository root.
const KNOWN: &[(&str, usize)] = &[
    ("crates/bench/src/repros/analytic.rs", 2),
    ("crates/ckpt/src/interval.rs", 1),
    ("crates/core/src/graphs.rs", 7),
    ("crates/embedding/src/placement.rs", 1),
    ("crates/faults/src/plan.rs", 4),
    ("crates/framework/src/dispatch.rs", 1),
    ("crates/metrics/src/accuracy.rs", 4),
    ("crates/metrics/src/auc.rs", 7),
    ("crates/metrics/src/placement.rs", 1),
    ("crates/optim/src/lamb.rs", 3),
    ("crates/optim/src/lars.rs", 3),
    ("crates/optim/src/sgd.rs", 3),
    ("crates/telemetry/src/report.rs", 1),
    ("crates/tensor/src/kernels.rs", 2),
    ("crates/tensor/src/ops.rs", 1),
    ("crates/tensor/src/rng.rs", 2),
    ("crates/tensor/src/shape.rs", 1),
    ("crates/tensor/src/tensor.rs", 1),
    ("crates/topology/src/chip.rs", 1),
    ("crates/topology/src/mesh.rs", 4),
    ("crates/topology/src/rings.rs", 10),
    ("crates/trace/src/time.rs", 1),
];

const PANICS: &[&str] = &[
    ".expect(",
    ".unwrap()",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "assert!(",
    "assert_eq!(",
    "assert_ne!(",
];

/// `(line number, line)` of every panic site in the non-test part of
/// `source`.
fn panic_sites(source: &str) -> Vec<(usize, &str)> {
    source
        .lines()
        .enumerate()
        .take_while(|(_, line)| line.trim() != "#[cfg(test)]")
        .filter(|(_, line)| {
            let code = line.split("//").next().unwrap_or("");
            let code = code.replace("debug_assert", "");
            PANICS.iter().any(|p| code.contains(p))
        })
        .map(|(i, line)| (i + 1, line))
        .collect()
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn clean_files_stay_free_of_panic_sites() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();

    let mut budget: BTreeMap<&str, usize> = KNOWN.iter().copied().collect();
    assert_eq!(budget.len(), KNOWN.len(), "a path is listed twice in KNOWN");
    let mut failures = Vec::new();
    for file in &files {
        let path = file.strip_prefix(root).expect("walked from the root");
        let path = path.to_string_lossy();
        let source = std::fs::read_to_string(file).expect("readable source");
        let sites = panic_sites(&source);
        let allowed = budget.remove(&*path).unwrap_or(0);
        if sites.len() > allowed {
            failures.push(format!(
                "{path}: {} panic sites, budget {allowed}:",
                sites.len()
            ));
            failures.extend(
                sites
                    .iter()
                    .map(|(line, text)| format!("  {path}:{line}: {}", text.trim())),
            );
        } else if sites.len() < allowed {
            failures.push(format!(
                "{path}: {} panic sites left — lower the budget from {allowed}",
                sites.len()
            ));
        }
    }
    failures.extend(
        budget
            .keys()
            .map(|path| format!("{path}: listed in KNOWN but not found")),
    );
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn the_scan_sees_what_it_should() {
    let source = "fn f() {\n    x.unwrap();\n    debug_assert!(ok);\n    // y.expect(\"no\")\n    \
                  assert_eq!(a, b);\n}\n#[cfg(test)]\nmod tests { fn g() { panic!(\"fine\") } }\n";
    let lines: Vec<usize> = panic_sites(source).into_iter().map(|(l, _)| l).collect();
    assert_eq!(lines, [2, 5]);
}
