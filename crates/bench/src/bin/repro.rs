//! `repro <name> [flags]` regenerates one table, figure or campaign of
//! the paper; `repro all` prints the JSON document behind EXPERIMENTS.md;
//! `repro --list` names every reproduction. Exit 1 when a gate fails, 2
//! (with usage) when the command line is wrong.

use std::process::ExitCode;

fn main() -> ExitCode {
    match multipod_bench::run_cli(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("repro: {e}");
            if e.is_usage() {
                eprintln!("{}", multipod_bench::usage());
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
