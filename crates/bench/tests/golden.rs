//! One byte-identity manifest: every byte `repro` exports, pinned.
//!
//! Runs the `repro` binary for every row of [`REPROS`] except `auc` (its
//! text is host wall-clock), plus `repro all`, each with
//! `--check-determinism --json --trace --profile` (`all` without
//! `--json`, which it rejects: its document is stdout), and hashes every
//! output it produced — stdout, the `BENCH_*.json` envelope, the Chrome
//! trace and the flight report — into one `row.kind <FNV-1a>` line. The
//! rows that scale run at small meshes: `faults`, `ckpt` and `profile` on
//! 4×4, `sched` and `serve` on 32×32 with 200 jobs (and 500 queries).
//! Outputs are written under relative names, so no path is hashed.
//!
//! The lines must equal the committed root `GOLDEN.txt`, and every row
//! must exit 0 (every gate, determinism included, passes). A change that
//! means to move bytes says which lines moved and why. On a mismatch the
//! manifest produced is left at `target/tmp/GOLDEN.actual.txt`; blessing
//! is copying it over `GOLDEN.txt`.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::Command;

use multipod_bench::REPROS;
use multipod_ckpt::fnv1a;

const HEADER: &str = "\
# FNV-1a of every output of `repro <row> --check-determinism --json --trace --profile`,
# regenerated and compared by crates/bench/tests/golden.rs. A change that moves a line
# says which and why; bless by copying target/tmp/GOLDEN.actual.txt over this file.
";

/// The flags a row runs with besides the exports: the scaling rows at
/// their small meshes, everything else at its defaults.
fn flags(row: &str) -> &'static [&'static str] {
    match row {
        "faults" | "ckpt" | "profile" => &["--mesh", "4x4"],
        "sched" => &["--mesh", "32x32", "--jobs", "200"],
        "serve" => &["--mesh", "32x32", "--jobs", "200", "--queries", "500"],
        _ => &[],
    }
}

#[test]
fn every_exported_byte_matches_golden() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let dir = tmp.join("golden");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("output dir");
    let mut got = HEADER.to_string();
    let mut failed = Vec::new();
    let rows = REPROS.iter().map(|r| r.name).filter(|&name| name != "auc");
    for row in rows.chain(["all"]) {
        let outputs = [
            ("json", format!("{row}.json")),
            ("trace", format!("{row}.trace.json")),
            ("profile", format!("{row}.profile.json")),
        ];
        // `all` rejects `--json`: its document is its stdout.
        let outputs = &outputs[usize::from(row == "all")..];
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .current_dir(&dir)
            .arg(row)
            .args(flags(row))
            .arg("--check-determinism")
            .args(
                outputs
                    .iter()
                    .flat_map(|(kind, file)| [format!("--{kind}"), file.clone()]),
            )
            .output()
            .expect("run repro");
        if !out.status.success() {
            let stderr = String::from_utf8_lossy(&out.stderr);
            failed.push(format!("{row} ({}): {}", out.status, stderr.trim_end()));
        }
        writeln!(got, "{row}.stdout {:016x}", fnv1a(&out.stdout)).unwrap();
        for (kind, file) in outputs {
            if let Ok(bytes) = fs::read(dir.join(file)) {
                writeln!(got, "{row}.{kind} {:016x}", fnv1a(&bytes)).unwrap();
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let want = fs::read_to_string(root.join("GOLDEN.txt")).unwrap_or_default();
    if got != want {
        let actual = tmp.join("GOLDEN.actual.txt");
        fs::write(&actual, &got).expect("write the manifest produced");
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        let at = |text: &str| text.lines().nth(line).unwrap_or("<end of file>").to_owned();
        panic!(
            "GOLDEN.txt line {}: expected `{}`, got `{}`; the manifest produced is at {}\n{}",
            line + 1,
            at(&want),
            at(&got),
            actual.display(),
            failed.join("\n")
        );
    }
    assert!(failed.is_empty(), "rows failed:\n{}", failed.join("\n"));
    let overlap = fs::read(dir.join("overlap.json")).expect("overlap envelope");
    assert!(
        overlap == fs::read(root.join("BENCH_overlap.json")).expect("committed overlap envelope"),
        "`repro overlap` no longer regenerates BENCH_overlap.json byte for byte"
    );
}
