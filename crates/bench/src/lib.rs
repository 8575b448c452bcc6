//! The reproduction driver for the paper's evaluation.
//!
//! Every table, figure and campaign is one row of [`REPROS`]; the `repro`
//! binary runs `repro <name> [flags]` for one row and `repro all` for the
//! JSON document behind EXPERIMENTS.md. A row computes its numbers once
//! and renders them twice — the printed table and the JSON section — and
//! the driver owns every shared flag (`--mesh`, `--json`, `--trace`,
//! `--profile`, `--check-determinism`) and rejects any flag no row reads.
//! [`paper`] records the published numbers so the tables print
//! paper-vs-measured side by side. The root `GOLDEN.txt` pins the bytes
//! every row exports (`tests/golden.rs` regenerates and compares it).
//!
//! Host wall-clock questions belong to `benchmark/`, not here: apart from
//! `repro auc` (whose subject *is* host time, §4.6) everything below is a
//! function of simulated time and byte-reproducible.

/// Appends one formatted line to a `String` (the printed half of an
/// [`Outcome`]).
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

mod cli;
mod driver;
pub mod repros;

use std::path::Path;
use std::sync::Arc;

use multipod_core::step::record_step;
use multipod_core::{presets, Executor, Preset, Report};
use multipod_simnet::SimTime;
use multipod_telemetry::{DriftReport, FlightReport, Obs, Telemetry};
use multipod_trace::Recorder;
use serde::Serialize;
use serde_json::Value;

pub use cli::{Args, ReproError};
pub use driver::{run_all, run_cli, usage};
pub use repros::{Outcome, Replay, Repro, REPROS};

/// The paper's published values, used for side-by-side output.
pub mod paper {
    /// One Table-1 row: (benchmark, chips, TF minutes, JAX minutes, v0.6
    /// speedup).
    pub type Table1Row = (&'static str, u32, f64, Option<f64>, Option<f64>);

    /// Table 1 — end-to-end minutes.
    pub const TABLE1: &[Table1Row] = &[
        ("ResNet-50", 4096, 0.48, Some(0.47), Some(2.67)),
        ("BERT", 4096, 0.39, Some(0.4), None),
        ("SSD", 4096, 0.46, None, Some(2.63)),
        ("SSD", 2048, 0.623, Some(0.55), Some(1.94)),
        ("Transformer", 4096, 0.32, Some(0.26), Some(2.65)),
        ("MaskRCNN", 512, 8.1, None, Some(4.4)),
        ("DLRM", 256, 2.4, None, None),
    ];

    /// Table 2 — initialization seconds: (benchmark, chips, TF, JAX).
    /// SSD's JAX column was measured at 2048 chips.
    pub const TABLE2: &[(&str, u32, f64, f64)] = &[
        ("ResNet-50", 4096, 498.0, 134.0),
        ("BERT", 4096, 1040.0, 190.0),
        ("SSD", 4096, 772.0, 122.0),
        ("Transformer", 4096, 868.0, 294.0),
    ];

    /// Figure 6/8 anchors: all-reduce share of device step time at 4096
    /// chips.
    pub const RESNET_ALLREDUCE_SHARE: f64 = 0.22;
    /// See [`RESNET_ALLREDUCE_SHARE`].
    pub const BERT_ALLREDUCE_SHARE: f64 = 0.273;

    /// §5: Transformer model-parallel speedup on 4 cores.
    pub const TRANSFORMER_4CORE_SPEEDUP: f64 = 2.3;

    /// §3.2: replicated LAMB update share of the BERT step at 512 chips.
    pub const BERT_WUS_SHARE: f64 = 0.18;
}

/// Formats a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// The preset for a named benchmark at a chip count.
///
/// # Errors
///
/// [`ReproError::UnknownBenchmark`] for a name outside the model catalog.
pub fn preset_by_name(name: &str, chips: u32) -> Result<Preset, ReproError> {
    Ok(match name {
        "ResNet-50" => presets::resnet50(chips),
        "BERT" => presets::bert(chips),
        "SSD" => presets::ssd(chips),
        "Transformer" => presets::transformer(chips),
        "MaskRCNN" => presets::maskrcnn(chips),
        "DLRM" => presets::dlrm(chips),
        other => return Err(ReproError::UnknownBenchmark(other.to_string())),
    })
}

/// Runs the named benchmark's preset at a chip count.
///
/// # Errors
///
/// As [`preset_by_name`], or the [`multipod_core::StepError`] of a chip
/// count that forms no valid slice.
pub fn run_named(name: &str, chips: u32) -> Result<Report, ReproError> {
    Ok(Executor::new(preset_by_name(name, chips)?).run()?)
}

/// A fresh recorder and registry, and the one handle that feeds both.
pub(crate) fn observed() -> (Arc<Recorder>, Arc<Telemetry>, Obs) {
    let (recorder, telemetry) = (Recorder::shared(), Telemetry::shared());
    let obs = Obs::new(Some(recorder.clone()), Some(telemetry.clone()));
    (recorder, telemetry, obs)
}

/// Replays the first three steps of each report, back to back on the
/// simulation track, through the trace and telemetry layers.
pub fn replay_steps(reports: &[Report]) -> (Arc<Recorder>, Arc<Telemetry>) {
    let (recorder, telemetry, obs) = observed();
    let mut cursor = SimTime::ZERO;
    for report in reports {
        for s in 0..3.min(report.steps) {
            cursor = record_step(&obs, &report.name, &report.step, s + 1, cursor);
        }
    }
    (recorder, telemetry)
}

/// Writes a Chrome trace to `path`: [`replay_steps`] followed by a
/// reference numeric 2-D gradient summation (an 8×8 slice, 4096 elements
/// per chip, fixed seed), so the export carries real per-link transfer
/// events and collective-phase spans alongside the analytic timelines.
/// Output is fully deterministic.
pub fn write_trace(path: &Path, reports: &[Report]) -> Result<(), ReproError> {
    use multipod_collectives::{twod::two_dim_all_reduce, Precision};
    use multipod_simnet::{Network, NetworkConfig};
    use multipod_tensor::{Shape, TensorRng};
    use multipod_topology::{Multipod, MultipodConfig};
    let (recorder, _) = replay_steps(reports);
    let mut net = Network::new(
        Multipod::new(MultipodConfig::mesh(8, 8, true)),
        NetworkConfig::tpu_v3(),
    );
    net.set_obs(Obs::new(Some(recorder.clone()), None));
    let mut rng = TensorRng::seed(17);
    let inputs: Vec<_> = (0..net.mesh().num_chips())
        .map(|_| rng.uniform(Shape::vector(4096), -1.0, 1.0))
        .collect();
    two_dim_all_reduce(&mut net, &inputs, Precision::F32, 1, None)?;
    Ok(recorder.write_chrome_trace(path)?)
}

/// Profiles [`replay_steps`] and writes the flight report to `path`.
/// Output is fully deterministic.
pub fn write_profile(path: &Path, reports: &[Report]) -> Result<(), ReproError> {
    let (recorder, telemetry) = replay_steps(reports);
    Ok(flight_report(&recorder, &telemetry, Vec::new()).write_json(path)?)
}

/// The flight report of a recorded run: the registry as it stands, the
/// critical-path profile of the recorded spans, and `drift`.
pub(crate) fn flight_report(
    recorder: &Recorder,
    telemetry: &Telemetry,
    drift: Vec<DriftReport>,
) -> FlightReport {
    FlightReport {
        registry: telemetry.snapshot(),
        profile: multipod_telemetry::profile(&recorder.events()),
        drift,
    }
}

/// The common envelope of every `BENCH_*.json` artifact: what ran, on
/// which mesh, which pass/fail gates applied, and the measured values.
///
/// Gates and measurements serialize in insertion order, so reports stay
/// byte-stable run to run. An unchecked gate serializes as `null` and
/// never fails [`BenchReport::passed`].
#[derive(Clone, Debug)]
pub struct BenchReport {
    name: String,
    mesh: String,
    chips: usize,
    gates: Vec<(String, Option<bool>)>,
    measurements: Vec<(String, Value)>,
}

impl BenchReport {
    /// A report for benchmark `name` on a `mesh`-labelled machine.
    pub fn new(name: impl Into<String>, mesh: impl Into<String>, chips: usize) -> BenchReport {
        BenchReport {
            name: name.into(),
            mesh: mesh.into(),
            chips,
            gates: Vec::new(),
            measurements: Vec::new(),
        }
    }

    /// Records a pass/fail gate (`None` = not checked this run).
    pub fn gate(mut self, name: impl Into<String>, pass: impl Into<Option<bool>>) -> BenchReport {
        self.gates.push((name.into(), pass.into()));
        self
    }

    /// Records a measured value.
    pub fn measurement(mut self, name: impl Into<String>, value: impl Serialize) -> BenchReport {
        self.measurements.push((name.into(), value.ser()));
        self
    }

    /// Whether every checked gate passed.
    pub fn passed(&self) -> bool {
        self.gates.iter().all(|(_, g)| *g != Some(false))
    }

    /// Overwrites the value of a gate recorded earlier, keeping its
    /// position (the driver fills `deterministic` in after comparing two
    /// runs).
    pub fn set_gate(&mut self, name: &str, pass: Option<bool>) {
        if let Some((_, g)) = self.gates.iter_mut().find(|(k, _)| k == name) {
            *g = pass;
        }
    }

    /// Writes the pretty-JSON rendering to `path`.
    ///
    /// # Errors
    ///
    /// The I/O error of an unwritable `path`, with the path named.
    pub fn write(&self, path: &str) -> Result<(), ReproError> {
        let body = serde_json::to_string_pretty(self)?;
        std::fs::write(path, body + "\n")
            .map_err(|e| ReproError::failed(format!("write {path}: {e}")))
    }
}

impl Serialize for BenchReport {
    fn ser(&self) -> Value {
        Value::Map(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("mesh".to_string(), Value::Str(self.mesh.clone())),
            ("chips".to_string(), Value::U64(self.chips as u64)),
            (
                "gates".to_string(),
                Value::Map(
                    self.gates
                        .iter()
                        .map(|(k, g)| (k.clone(), g.map_or(Value::Null, Value::Bool)))
                        .collect(),
                ),
            ),
            (
                "measurements".to_string(),
                Value::Map(self.measurements.clone()),
            ),
        ])
    }
}

/// Appends a markdown-ish table header to `out`.
pub fn header(out: &mut String, title: &str, columns: &[&str]) {
    outln!(out, "\n== {title} ==");
    outln!(out, "{}", columns.join(" | "));
    outln!(out, "{}", vec!["---"; columns.len()].join(" | "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_have_expected_shapes() {
        assert_eq!(paper::TABLE1.len(), 7);
        assert_eq!(paper::TABLE2.len(), 4);
    }

    #[test]
    fn preset_lookup_runs() {
        let r = run_named("ResNet-50", 256).expect("catalog preset");
        assert_eq!(r.name, "ResNet-50");
        assert!(r.end_to_end_minutes() > 0.0);
        assert!(matches!(
            run_named("GPT-3", 256),
            Err(ReproError::UnknownBenchmark(_))
        ));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.225), "22.5%");
    }

    #[test]
    fn bench_report_envelope_is_stable_and_gated() {
        let report = BenchReport::new("collectives", "8x8", 64)
            .gate("bit_identical", true)
            .gate("deterministic", None)
            .measurement("speedup", 2.5);
        assert!(report.passed());
        let json = serde_json::to_string_pretty(&report).expect("json");
        let reparsed: Value = serde_json::from_str(&json).expect("reparse");
        assert_eq!(
            reparsed
                .get("measurements")
                .and_then(|m| m.get("speedup"))
                .and_then(|v| v.as_f64()),
            Some(2.5)
        );
        assert!(json.contains("\"name\": \"collectives\""));
        assert!(json.contains("\"deterministic\": null"));
        assert!(!BenchReport::new("x", "1x1", 1).gate("g", false).passed());
        let mut filled = report.clone();
        filled.set_gate("deterministic", Some(false));
        assert!(!filled.passed());
    }

    #[test]
    fn write_profile_emits_a_deterministic_flight_report() {
        let dir = std::env::temp_dir().join("multipod-bench-profile-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let report = run_named("ResNet-50", 256).expect("catalog preset");
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        let reports = [report];
        write_profile(&a, &reports).expect("write profile a");
        write_profile(&b, &reports).expect("write profile b");
        let body_a = std::fs::read_to_string(&a).expect("read a");
        let body_b = std::fs::read_to_string(&b).expect("read b");
        assert_eq!(body_a, body_b, "profile export must be byte-identical");
        let doc: Value = serde_json::from_str(&body_a).expect("profile json");
        let steps = doc
            .get("profile")
            .and_then(|p| p.get("steps"))
            .and_then(|v| v.as_u64());
        assert_eq!(steps, Some(3));
    }
}
