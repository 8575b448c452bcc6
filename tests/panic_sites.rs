//! ROADMAP 5(a)'s panic tally as a ratchet: source files that have
//! reached zero non-test panic sites stay there.
//!
//! The part of each listed file above its first `#[cfg(test)]` (all of it
//! when there is none) may not call `.expect(`, `.unwrap()`, `panic!(`,
//! `unreachable!(`, `todo!(` or a release-mode `assert*!(`;
//! `debug_assert*!` is allowed (it documents an invariant and costs
//! release builds nothing), and so is anything inside a comment. A PR that
//! brings another file to zero adds it to `CLEAN`.

const CLEAN: &[(&str, &str)] = &[
    (
        "crates/sched/src/sched.rs",
        include_str!("../crates/sched/src/sched.rs"),
    ),
    (
        "crates/sched/src/slice.rs",
        include_str!("../crates/sched/src/slice.rs"),
    ),
    (
        "crates/sched/src/job.rs",
        include_str!("../crates/sched/src/job.rs"),
    ),
    (
        "crates/sched/src/error.rs",
        include_str!("../crates/sched/src/error.rs"),
    ),
    (
        "crates/collectives/src/alltoall.rs",
        include_str!("../crates/collectives/src/alltoall.rs"),
    ),
    (
        "crates/collectives/src/degraded.rs",
        include_str!("../crates/collectives/src/degraded.rs"),
    ),
    (
        "crates/collectives/src/error.rs",
        include_str!("../crates/collectives/src/error.rs"),
    ),
    (
        "crates/collectives/src/halo.rs",
        include_str!("../crates/collectives/src/halo.rs"),
    ),
    (
        "crates/collectives/src/lib.rs",
        include_str!("../crates/collectives/src/lib.rs"),
    ),
    (
        "crates/collectives/src/pipelined.rs",
        include_str!("../crates/collectives/src/pipelined.rs"),
    ),
    (
        "crates/collectives/src/precision.rs",
        include_str!("../crates/collectives/src/precision.rs"),
    ),
    (
        "crates/collectives/src/ring.rs",
        include_str!("../crates/collectives/src/ring.rs"),
    ),
    (
        "crates/collectives/src/schedule.rs",
        include_str!("../crates/collectives/src/schedule.rs"),
    ),
    (
        "crates/collectives/src/timing.rs",
        include_str!("../crates/collectives/src/timing.rs"),
    ),
    (
        "crates/collectives/src/twod.rs",
        include_str!("../crates/collectives/src/twod.rs"),
    ),
    (
        "crates/simnet/src/engine.rs",
        include_str!("../crates/simnet/src/engine.rs"),
    ),
    (
        "crates/simnet/src/error.rs",
        include_str!("../crates/simnet/src/error.rs"),
    ),
    (
        "crates/simnet/src/lib.rs",
        include_str!("../crates/simnet/src/lib.rs"),
    ),
    (
        "crates/simnet/src/network.rs",
        include_str!("../crates/simnet/src/network.rs"),
    ),
    (
        "crates/serve/src/batch.rs",
        include_str!("../crates/serve/src/batch.rs"),
    ),
    (
        "crates/hlo/src/display.rs",
        include_str!("../crates/hlo/src/display.rs"),
    ),
    (
        "crates/hlo/src/error.rs",
        include_str!("../crates/hlo/src/error.rs"),
    ),
    (
        "crates/hlo/src/grad.rs",
        include_str!("../crates/hlo/src/grad.rs"),
    ),
    (
        "crates/hlo/src/graph.rs",
        include_str!("../crates/hlo/src/graph.rs"),
    ),
    (
        "crates/hlo/src/lib.rs",
        include_str!("../crates/hlo/src/lib.rs"),
    ),
    (
        "crates/hlo/src/mpmd.rs",
        include_str!("../crates/hlo/src/mpmd.rs"),
    ),
    (
        "crates/hlo/src/op.rs",
        include_str!("../crates/hlo/src/op.rs"),
    ),
    (
        "crates/hlo/src/program.rs",
        include_str!("../crates/hlo/src/program.rs"),
    ),
    (
        "crates/hlo/src/sharding.rs",
        include_str!("../crates/hlo/src/sharding.rs"),
    ),
    (
        "crates/hlo/src/spmd.rs",
        include_str!("../crates/hlo/src/spmd.rs"),
    ),
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

#[test]
fn clean_files_stay_free_of_panic_sites() {
    let mut found = Vec::new();
    for (path, source) in CLEAN {
        for (line, text) in panic_sites(source) {
            found.push(format!("{path}:{line}: {}", text.trim()));
        }
    }
    assert!(found.is_empty(), "panic sites:\n{}", found.join("\n"));
}

#[test]
fn the_scan_sees_what_it_should() {
    let source = "fn f() {\n    x.unwrap();\n    debug_assert!(ok);\n    // y.expect(\"no\")\n    \
                  assert_eq!(a, b);\n}\n#[cfg(test)]\nmod tests { fn g() { panic!(\"fine\") } }\n";
    let lines: Vec<usize> = panic_sites(source).into_iter().map(|(l, _)| l).collect();
    assert_eq!(lines, [2, 5]);
}
