//! The committed bench artifacts must exist, stay in the [`BenchReport`]
//! envelope, and carry only gates that were checked and passed.
//!
//! Every row of [`REPROS`] with an `artifact` commits that file at the
//! repo root as the reference for EXPERIMENTS.md and for the byte-for-byte
//! regeneration checks (`tests/golden.rs` for `overlap`, CI for the
//! full-scale campaigns). A missing artifact (a new row landed without
//! one), a stale format, or a gate committed unchecked fails here, in
//! plain `cargo test`, before any regeneration check would silently
//! compare against nothing.
//!
//! [`BenchReport`]: multipod_bench::BenchReport

use std::path::{Path, PathBuf};

use multipod_bench::REPROS;
use serde_json::Value;

fn repo_root() -> PathBuf {
    // crates/bench -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate lives two levels under the repo root")
        .to_path_buf()
}

#[test]
fn every_artifact_is_committed_well_formed_and_fully_gated() {
    let root = repo_root();
    let mut problems = Vec::new();
    for name in REPROS.iter().filter_map(|r| r.artifact) {
        let text = match std::fs::read_to_string(root.join(name)) {
            Ok(t) => t,
            Err(e) => {
                problems.push(format!("{name}: missing ({e})"));
                continue;
            }
        };
        let doc: Value = match serde_json::from_str(&text) {
            Ok(d) => d,
            Err(e) => {
                problems.push(format!("{name}: not valid JSON ({e})"));
                continue;
            }
        };
        // The BenchReport envelope: name/mesh/chips plus gate and
        // measurement maps.
        for key in ["name", "mesh", "chips", "gates", "measurements"] {
            if doc.get(key).is_none() {
                problems.push(format!("{name}: stale format, missing `{key}`"));
            }
        }
        if let Some(Value::Map(gates)) = doc.get("gates") {
            for (gate, value) in gates {
                // An unchecked gate serializes as null: the artifact was
                // generated without `--check-determinism`.
                if *value != Value::Bool(true) {
                    problems.push(format!("{name}: gate `{gate}` committed as {value:?}"));
                }
            }
        }
    }
    assert!(
        problems.is_empty(),
        "bench artifacts out of date — regenerate with `repro <name> --check-determinism`:\n{}",
        problems.join("\n")
    );
}

#[test]
fn committed_artifacts_are_exactly_the_tables() {
    let mut committed: Vec<String> = std::fs::read_dir(repo_root())
        .expect("repo root")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|f| f.starts_with("BENCH_") && f.ends_with(".json"))
        .collect();
    committed.sort();
    let mut declared: Vec<&str> = REPROS.iter().filter_map(|r| r.artifact).collect();
    declared.sort_unstable();
    assert_eq!(
        committed, declared,
        "BENCH_*.json at the repo root and REPROS[..].artifact disagree"
    );
}
