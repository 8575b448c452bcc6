//! The `repro` driver: one table, typed command-line errors, and the
//! sections of `repro all`.

use std::collections::BTreeSet;
use std::process::Command;

use multipod_bench::{run_all, run_cli, Args, ReproError, REPROS};

fn cli(argv: &[&str]) -> Result<bool, ReproError> {
    run_cli(argv.iter().map(|a| a.to_string()).collect())
}

#[test]
fn names_are_unique_and_list_prints_the_table() {
    let names: Vec<&str> = REPROS.iter().map(|r| r.name).collect();
    assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("--list")
        .output()
        .expect("run repro --list");
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).expect("utf-8 names");
    assert_eq!(listed.lines().collect::<Vec<_>>(), names);
}

#[test]
fn bad_command_lines_are_typed_usage_errors() {
    for (argv, expect) in [
        (&[][..], "no reproduction named"),
        (&["fig12"], "unknown reproduction 'fig12'"),
        (&["faults", "--mesh", "4by4"], "--mesh expects WxH"),
        (&["faults", "--mesh", "0x4"], "--mesh expects WxH"),
        (
            &["sched", "--mesh=4x4", "--jobs", "many"],
            "--jobs expects an integer",
        ),
        (
            &["overlap", "--check-regression", "BENCH_overlap.json"],
            "unknown flag '--check-regression'",
        ),
        (
            &["faults", "--check-determinsm"],
            "unknown flag '--check-determinsm'",
        ),
        (&["auc", "--quick=yes"], "unknown flag '--quick=yes'"),
        (&["table1", "extra"], "unknown flag 'extra'"),
    ] {
        let e = cli(argv).expect_err("bad command line");
        assert!(e.is_usage(), "{argv:?}: {e}");
        assert!(e.to_string().contains(expect), "{argv:?}: {e}");
    }
    assert!(matches!(cli(&["fig12"]), Err(ReproError::UnknownRepro(_))));
    assert!(matches!(
        cli(&["sched", "--jobs=3", "--check-regression"]),
        Err(ReproError::UnknownFlag(_))
    ));
    assert!(matches!(
        cli(&["ckpt", "--mesh", "x"]),
        Err(ReproError::BadMesh(_))
    ));
}

#[test]
fn a_usage_error_exits_2_and_lists_the_names() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig12")
        .output()
        .expect("run repro fig12");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf-8 usage");
    assert!(stderr.contains("unknown reproduction 'fig12'"), "{stderr}");
    for r in REPROS {
        assert!(stderr.contains(r.name), "usage omits {}", r.name);
    }
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["overlap", "--check-regression", "BENCH_overlap.json"])
        .output()
        .expect("run repro overlap");
    assert_eq!(
        out.status.code(),
        Some(2),
        "a flag no row reads is a usage error"
    );
    assert!(out.stdout.is_empty(), "rejected before running anything");
}

/// Byte determinism of `repro all` is `GOLDEN.txt`'s `all.stdout` line
/// (`tests/golden.rs`); this holds its schema.
#[test]
fn repro_all_has_every_section_and_no_wall_clock_section() {
    let outcome = run_all(&Args::default()).expect("repro all");
    let doc = outcome.section.expect("the document");
    assert!(doc.get("simnet").is_none());
    for key in REPROS.iter().filter_map(|r| r.in_all) {
        assert!(doc.get(key).is_some(), "missing section {key}");
    }
}

#[test]
fn profile_flag_writes_a_campaign_flight_report_with_metrics() {
    let dir = std::env::temp_dir().join("multipod-bench-driver-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (json, profile) = (path("sched.json"), path("sched.profile.json"));
    let argv = [
        "sched",
        "--mesh",
        "32x32",
        "--jobs",
        "200",
        "--json",
        &json,
        "--profile",
        &profile,
    ];
    assert!(cli(&argv).expect("repro sched"), "gates must pass");
    let body = std::fs::read_to_string(&profile).expect("flight report written");
    let flight: serde_json::Value = serde_json::from_str(&body).expect("flight json");
    let counter = |name: &str| {
        flight
            .get("registry")
            .and_then(|r| r.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_u64())
    };
    assert_eq!(counter("pod.arrivals"), Some(200));
    assert_eq!(counter("pod.jobs_completed"), Some(200));
    assert!(
        counter("simnet.transfers") > Some(0),
        "ckpt traffic metered"
    );
}

#[test]
fn a_value_flag_given_last_is_a_usage_error_and_writes_nothing() {
    let e = cli(&["overlap", "--json"]).expect_err("--json without a path");
    assert!(matches!(e, ReproError::MissingValue("--json")), "{e}");
    assert!(e.is_usage());
    assert_eq!(e.to_string(), "--json expects a value");
    // Before it was rejected, the committed artifact's name was used in
    // the current directory instead.
    let dir = std::env::temp_dir().join("multipod-bench-missing-value");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(&dir)
        .args(["overlap", "--json"])
        .output()
        .expect("run repro overlap --json");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "rejected before running anything");
    let written: Vec<_> = std::fs::read_dir(&dir).expect("read temp dir").collect();
    assert!(written.is_empty(), "wrote {written:?}");
}

#[test]
fn repro_all_rejects_json_rather_than_ignore_it() {
    let e = cli(&["all", "--json", "all.json"]).expect_err("all writes no envelope");
    assert!(matches!(e, ReproError::NotRead("--json", "all")), "{e}");
    assert!(e.is_usage());
}

#[test]
fn repro_all_checks_determinism_without_touching_stdout() {
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("all")
            .args(extra)
            .output()
            .expect("run repro all")
    };
    let (plain, checked) = (run(&[]), run(&["--check-determinism"]));
    assert!(plain.status.success() && checked.status.success());
    assert_eq!(checked.stdout, plain.stdout, "stdout stays the document");
    let stderr = String::from_utf8(checked.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("determinism: identical text, report and recorded trace"),
        "{stderr}"
    );
    assert!(!String::from_utf8_lossy(&plain.stderr).contains("determinism"));
}

#[test]
fn a_closed_stdout_ends_the_run_quietly_with_exit_1() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table1")
        .stdout(writer)
        .output()
        .expect("run repro table1");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
