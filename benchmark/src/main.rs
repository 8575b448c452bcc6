//! Host-time ledger for the multipod simulator.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- run \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- check [--seed N] [--seconds S]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- contract
//! ```
//!
//! `run` prints every metric by name with its unit, checks every
//! operation's output and ends with one JSON object per workload; it
//! exits non-zero when a check fails. `check` runs every workload twice
//! and fails if the two sets disagree. `contract` prints
//! `BENCHMARK.json`. See `README.md`.

mod adapter;
mod alloc;
mod ledger;
mod spans;
mod stats;

use std::process::ExitCode;

use ledger::{RunResult, END_TO_END};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Seed the self-check smoke-tests once: a claimed gain must also hold at
/// a seed that was not used while the change was written.
const HELD_OUT_SEED: u64 = 7;

struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: adapter::WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: 42,
        seconds: ledger::RUN_SECONDS as f64,
        trace: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !adapter::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload '{name}'; one of {}",
                        adapter::WORKLOADS.join(", ")
                    ));
                }
                options.workloads = vec![name.clone()];
            }
            "--seed" => {
                options.seed = value()?
                    .parse()
                    .map_err(|_| "--seed expects a whole number".to_string())?;
            }
            "--seconds" => {
                options.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds expects a number in (0, 600]")?;
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(options)
}

fn run_one(workload: &str, options: &Options) -> Result<RunResult, String> {
    if options.trace {
        ledger::traced_run(workload, options.seed)
    } else {
        ledger::timed_run(workload, options.seed, options.seconds)
    }
}

fn run(options: &Options) -> Result<bool, String> {
    let mut all_correct = true;
    let mut lines = Vec::new();
    for workload in &options.workloads {
        let result = run_one(workload, options)?;
        print!("{}", result.table());
        all_correct &= result.correct;
        lines.push(result.json_line());
    }
    // The result objects go last, one per workload, so a single-workload
    // run ends with exactly the line the contract asks for.
    for line in lines {
        println!("{line}");
    }
    Ok(all_correct)
}

/// Worsening of `second` against `first` as a share of `first`.
fn worsening(better: &str, first: f64, second: f64) -> f64 {
    if better == "higher" {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

/// Two full timed sets back to back: every end-to-end pair must agree
/// within the metric's bound either way round, every exact count and
/// digest must be identical, no op may fail. Then one op of every
/// workload at the held-out seed.
fn check(options: &Options) -> Result<bool, String> {
    let mut ok = true;
    let mut sets: Vec<Vec<RunResult>> = Vec::new();
    for _ in 0..2 {
        let set: Result<Vec<RunResult>, String> = options
            .workloads
            .iter()
            .map(|w| ledger::timed_run(w, options.seed, options.seconds))
            .collect();
        sets.push(set?);
    }
    println!(
        "{:<18} {:<13} {:>16} {:>16} {:>8} {:>6}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        for metric in &END_TO_END {
            let value = |r: &RunResult| {
                r.metrics
                    .iter()
                    .find(|(name, _)| *name == metric.name)
                    .map_or(f64::NAN, |(_, v)| *v)
            };
            let (first, second) = (value(a), value(b));
            let bound = metric.bound.unwrap_or(0.0);
            let diff = worsening(metric.better, first, second).max(worsening(
                metric.better,
                second,
                first,
            ));
            let within = diff <= bound;
            ok &= within;
            println!(
                "{:<18} {:<13} {first:>16.6} {second:>16.6} {:>7.2}% {:>5.0}%{}",
                a.workload,
                metric.name,
                100.0 * diff,
                100.0 * bound,
                if within { "" } else { "  <-- outside bound" }
            );
        }
        let same = a.sim_digest == b.sim_digest && a.exact == b.exact;
        ok &= same && a.correct && b.correct;
        println!(
            "{:<18} sim_digest {:016x} / {:016x}, {} exact counts: {}; failed ops {} + {}",
            a.workload,
            a.sim_digest,
            b.sim_digest,
            a.exact.len(),
            if same { "identical" } else { "DIFFERENT" },
            a.failed,
            b.failed
        );
        for note in a.notes.iter().chain(&b.notes) {
            println!("# {note}");
        }
    }
    for workload in &options.workloads {
        let inputs = adapter::Inputs::generate(workload, HELD_OUT_SEED)?;
        let outcome = inputs.run(&mut spans::Tracer::new(false));
        let passed = outcome.failed_checks.is_empty();
        ok &= passed;
        println!(
            "{workload:<18} seed {HELD_OUT_SEED}: {} (sim_digest {:016x})",
            if passed {
                "checks pass".to_string()
            } else {
                format!("FAILED {}", outcome.failed_checks.join(", "))
            },
            outcome.sim_digest
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // One client, one thread: the product's threaded payload path would
    // change what is measured.
    if std::env::var_os("MULTIPOD_PARALLEL").is_some() {
        eprintln!("MULTIPOD_PARALLEL is set; unset it to run the benchmark");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: multipod-benchmark <run|check|contract> [--workload W] [--seed N] [--seconds S] [--trace 0|1]");
        return ExitCode::from(2);
    };
    let outcome = match command.as_str() {
        "contract" => {
            print!("{}", ledger::contract_json());
            Ok(true)
        }
        "run" => parse(rest).and_then(|o| run(&o)),
        "check" => parse(rest).and_then(|o| check(&o)),
        other => Err(format!("unknown command '{other}'")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a check failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
