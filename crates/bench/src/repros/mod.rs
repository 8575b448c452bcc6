//! The reproductions: one row of [`REPROS`] and one function per table,
//! figure or campaign.

mod analytic;
mod campaigns;
mod overlap;
mod profile;
mod studies;

use std::sync::Arc;

use multipod_core::Report;
use multipod_telemetry::{DriftReport, Telemetry};
use multipod_trace::Recorder;
use serde_json::Value;

use crate::{Args, BenchReport, ReproError};

/// What `--trace` and `--profile` export for a reproduction.
#[derive(Default)]
pub enum Replay {
    /// Nothing to export.
    #[default]
    None,
    /// Analytic step timelines, replayed through the trace and telemetry
    /// layers on demand.
    Steps(Vec<Report>),
    /// What a campaign recorded while it ran — events and metrics — and,
    /// for the profile campaign, its α–β drift checks. `--profile` builds
    /// the flight report from these on demand.
    Recorded(Arc<Recorder>, Arc<Telemetry>, Vec<DriftReport>),
}

/// Everything one run of a reproduction produced; the driver decides what
/// to print, write and compare.
#[derive(Default)]
pub struct Outcome {
    /// The printed table.
    pub text: String,
    /// The section `repro all` embeds (`None` for rows outside it).
    pub section: Option<Value>,
    /// The `BENCH_*.json` envelope, with a `deterministic` gate left
    /// unchecked for the driver to fill in.
    pub report: Option<BenchReport>,
    /// Source of the `--trace` / `--profile` exports.
    pub replay: Replay,
    /// Serialized domain report: bytes `--check-determinism` compares on
    /// top of the text, the envelope and the trace export.
    pub witness: String,
}

/// One reproduction.
pub struct Repro {
    /// `repro <name>`.
    pub name: &'static str,
    /// The committed artifact `--json` defaults to.
    pub artifact: Option<&'static str>,
    /// The key of this row's section in the `repro all` document.
    pub in_all: Option<&'static str>,
    /// Runs it once.
    pub run: fn(&Args) -> Result<Outcome, ReproError>,
}

const fn row(
    name: &'static str,
    artifact: Option<&'static str>,
    in_all: Option<&'static str>,
    run: fn(&Args) -> Result<Outcome, ReproError>,
) -> Repro {
    Repro {
        name,
        artifact,
        in_all,
        run,
    }
}

/// Every reproduction, in the order `repro all` lays out its document
/// (Table 1 first: its step timelines are what `repro all --trace`
/// exports).
#[rustfmt::skip]
pub const REPROS: &[Repro] = &[
    row("table1", None, Some("table1"), analytic::table1),
    row("table2", None, Some("table2"), analytic::table2),
    row("fig5", None, Some("fig5_fig6_resnet"), analytic::fig5),
    row("fig6", None, None, analytic::fig6),
    row("fig7", None, Some("fig7_fig8_bert"), analytic::fig7),
    row("fig8", None, None, analytic::fig8),
    row("fig9", None, Some("fig9_model_parallel"), analytic::fig9),
    row("fig10", None, Some("fig10_tpu_vs_gpu"), analytic::fig10),
    row("fig11", None, None, analytic::fig11),
    row("ablations", None, Some("ablations"), studies::ablations),
    row("wus", None, None, studies::wus),
    row("input", None, None, studies::input),
    row("auc", None, None, studies::auc),
    row("ckpt", Some("BENCH_ckpt.json"), Some("checkpointing"), campaigns::ckpt),
    row("overlap", Some("BENCH_overlap.json"), Some("overlap"), overlap::overlap),
    row("sched", Some("BENCH_sched.json"), Some("sched"), campaigns::sched),
    row("serve", Some("BENCH_serve.json"), Some("serve"), campaigns::serve),
    row("faults", Some("BENCH_faults.json"), None, campaigns::faults),
    row("profile", Some("BENCH_profile.json"), None, profile::profile),
];

/// The row named `name`.
///
/// # Errors
///
/// [`ReproError::UnknownRepro`] when no row has that name.
pub fn find(name: &str) -> Result<&'static Repro, ReproError> {
    REPROS
        .iter()
        .find(|r| r.name == name)
        .ok_or_else(|| ReproError::UnknownRepro(name.to_string()))
}
