//! The `repro` driver: dispatch over [`REPROS`] and the one
//! implementation of every shared flag ([`usage`] lists them).

use std::io::{self, Write};
use std::path::PathBuf;

use serde_json::Value;

use crate::cli::FLAGS;
use crate::repros::{find, Outcome, Replay, Repro, REPROS};
use crate::{flight_report, write_profile, write_trace, Args, ReproError};

/// The usage text: the command shape, every flag and every name.
pub fn usage() -> String {
    let names: Vec<_> = REPROS.iter().map(|r| r.name).collect();
    let mut text = String::from("usage: repro <name|all|--list> [flags]\n");
    for (flag, value, help) in FLAGS {
        text += &format!("  {:<27}{help}\n", format!("{flag} {value}"));
    }
    text + &format!("names: {}", names.join(" "))
}

/// Runs `repro <argv...>`, printing to stdout; `Ok(false)` means a gate
/// failed, or stdout closed before the output was written (`repro … |
/// head`), which ends the run without a message.
///
/// # Errors
///
/// A usage error ([`ReproError::is_usage`]) for a bad command line, or
/// [`ReproError::Failed`] when the run, an export or printing fails.
pub fn run_cli(argv: Vec<String>) -> Result<bool, ReproError> {
    let broken_pipe = |e: &io::Error| e.kind() == io::ErrorKind::BrokenPipe;
    match dispatch(argv, &mut io::stdout().lock()) {
        Err(ReproError::Failed(e)) if e.downcast_ref().is_some_and(broken_pipe) => Ok(false),
        result => result,
    }
}

fn dispatch(argv: Vec<String>, out: &mut impl Write) -> Result<bool, ReproError> {
    let mut argv = argv.into_iter();
    let name = argv.next().ok_or(ReproError::MissingName)?;
    let args = Args::new(argv.collect())?;
    let passed = match name.as_str() {
        "--list" => {
            for r in REPROS {
                writeln!(out, "{}", r.name)?;
            }
            true
        }
        "all" => {
            // The document is stdout; there is no envelope to write.
            if args.value("--json").is_some() {
                return Err(ReproError::NotRead("--json", "all"));
            }
            let outcome = run_all(&args)?;
            let deterministic = !args.has("--check-determinism") || {
                let same = same(&outcome, &run_all(&args)?)?;
                eprintln!("determinism: {}", verdict(same));
                same
            };
            out.write_all(outcome.text.as_bytes())?;
            for path in export(&outcome.replay, &args)? {
                eprintln!("wrote {}", path.display());
            }
            deterministic
        }
        name => run_one(find(name)?, &args, out)?,
    };
    out.flush()?;
    Ok(passed)
}

/// Runs every `in_all` row in its summary configuration and collects the
/// sections into one document: the outcome's section, and its text
/// pretty-printed. The replay is the first row's.
///
/// # Errors
///
/// The first row error.
pub fn run_all(args: &Args) -> Result<Outcome, ReproError> {
    let mut args = args.clone();
    args.summary = true;
    let mut doc = Vec::new();
    let mut replay = None;
    for repro in REPROS {
        if let Some(key) = repro.in_all {
            let outcome = (repro.run)(&args)?;
            doc.push((key.to_string(), outcome.section.unwrap_or(Value::Null)));
            replay.get_or_insert(outcome.replay);
        }
    }
    let doc = Value::Map(doc);
    Ok(Outcome {
        text: serde_json::to_string_pretty(&doc)? + "\n",
        section: Some(doc),
        replay: replay.unwrap_or_default(),
        ..Outcome::default()
    })
}

fn run_one(repro: &Repro, args: &Args, out: &mut impl Write) -> Result<bool, ReproError> {
    let mut outcome = (repro.run)(args)?;
    let mut deterministic = None;
    if args.has("--check-determinism") {
        let same = same(&outcome, &(repro.run)(args)?)?;
        writeln!(out, "determinism: {}", verdict(same))?;
        deterministic = Some(same);
    }
    out.write_all(outcome.text.as_bytes())?;
    let mut passed = deterministic != Some(false);
    if let Some(report) = &mut outcome.report {
        report.set_gate("deterministic", deterministic);
        let json = args.value("--json").or(repro.artifact);
        if let Some(path) = json {
            report.write(path)?;
            writeln!(out, "wrote {path}")?;
        }
        passed &= report.passed();
    }
    for path in export(&outcome.replay, args)? {
        writeln!(out, "wrote {}", path.display())?;
    }
    Ok(passed)
}

/// The `determinism:` line's verdict on two runs.
fn verdict(same: bool) -> &'static str {
    if same {
        "identical text, report and recorded trace"
    } else {
        "MISMATCH — the two runs differ"
    }
}

/// Whether two runs agree on everything that must not move: the text,
/// the envelope, the domain report, the flight report and the recorded
/// events, compared in place. The trace export is a pure function of
/// those events.
fn same(a: &Outcome, b: &Outcome) -> Result<bool, ReproError> {
    let envelope = |o: &Outcome| o.report.as_ref().map(serde_json::to_string).transpose();
    let replays = match (&a.replay, &b.replay) {
        (Replay::Recorded(ra, ta, da), Replay::Recorded(rb, tb, db)) => {
            *ra.events() == *rb.events() && ta.snapshot() == tb.snapshot() && da == db
        }
        (Replay::Recorded(..), _) | (_, Replay::Recorded(..)) => false,
        _ => true,
    };
    Ok(a.text == b.text && a.witness == b.witness && envelope(a)? == envelope(b)? && replays)
}

/// Writes the `--trace` and `--profile` exports `replay` can provide and
/// returns the paths written.
fn export(replay: &Replay, args: &Args) -> Result<Vec<PathBuf>, ReproError> {
    let mut written = Vec::new();
    let (trace, profile) = (args.path("--trace"), args.path("--profile"));
    match replay {
        Replay::None => {}
        Replay::Steps(reports) => {
            if let Some(path) = trace {
                write_trace(&path, reports)?;
                written.push(path);
            }
            if let Some(path) = profile {
                write_profile(&path, reports)?;
                written.push(path);
            }
        }
        Replay::Recorded(recorder, telemetry, drift) => {
            if let Some(path) = trace {
                recorder.write_chrome_trace(&path)?;
                written.push(path);
            }
            if let Some(path) = profile {
                flight_report(recorder, telemetry, drift.clone()).write_json(&path)?;
                written.push(path);
            }
        }
    }
    Ok(written)
}
