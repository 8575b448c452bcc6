//! End-to-end execution: init + train + eval.

use serde::{Deserialize, Serialize};

use multipod_collectives::timing::RingCosts;
use multipod_framework::{profiles, FrameworkKind, InitModel};
use multipod_metrics::accuracy::{combine_time, MetricCombine};
use multipod_metrics::placement::{simulate_evals, EvalPlacement};
use multipod_models::{TpuV3, Workload};
use multipod_simnet::{Network, NetworkConfig};
use multipod_topology::{Multipod, MultipodConfig};

use crate::step::{step_breakdown, StepBreakdown, StepError, StepOptions};

/// A benchmark configuration: what Table 1 calls a row.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Preset {
    /// The benchmark.
    pub workload: Workload,
    /// TPU-v3 chips.
    pub chips: u32,
    /// Which control plane drives the machine.
    pub framework: FrameworkKind,
    /// Optimization toggles.
    pub options: StepOptions,
}

/// The outcome of simulating one benchmark run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Benchmark name.
    pub name: String,
    /// Chips used.
    pub chips: u32,
    /// Framework used.
    pub framework: FrameworkKind,
    /// Initialization seconds (Table 2; excluded from the MLPerf run
    /// time).
    pub init_seconds: f64,
    /// Steps to target quality.
    pub steps: u64,
    /// Global batch size.
    pub global_batch: u32,
    /// Per-step breakdown.
    pub step: StepBreakdown,
    /// Training seconds (steps × step time).
    pub train_seconds: f64,
    /// Evaluation seconds added to the run.
    pub eval_seconds: f64,
}

impl Report {
    /// The MLPerf "time to train" in minutes (init excluded, evals
    /// included, per the MLPerf timing rules).
    pub fn end_to_end_minutes(&self) -> f64 {
        (self.train_seconds + self.eval_seconds) / 60.0
    }

    /// Samples per second during training. A zero-length step has no
    /// throughput: this returns 0.0 rather than Inf/NaN.
    pub fn throughput(&self) -> f64 {
        let total = self.step.total();
        if total == 0.0 {
            return 0.0;
        }
        self.global_batch as f64 / total
    }
}

/// Runs presets to reports.
#[derive(Clone, Debug)]
pub struct Executor {
    preset: Preset,
    init_model: InitModel,
}

impl Executor {
    /// An executor with calibrated init constants.
    pub fn new(preset: Preset) -> Executor {
        Executor {
            preset,
            init_model: InitModel::calibrated(),
        }
    }

    /// Simulates the run.
    pub fn run(&self) -> Result<Report, StepError> {
        let p = &self.preset;
        let w = &p.workload;
        let batch = w.global_batch(p.chips);
        let steps = w
            .convergence
            .steps_for_batch(batch)
            .map_err(StepError::Model)?;
        let step = step_breakdown(w, p.chips, &p.options)?;
        let train_seconds = steps as f64 * step.total();
        let profile = profiles::by_name(w.name).map_err(StepError::Framework)?;
        let init_seconds = self.init_model.init_seconds(p.framework, &profile, p.chips);
        let eval_seconds = eval_seconds(w, p.chips, p.framework, train_seconds)?;
        Ok(Report {
            name: w.name.to_string(),
            chips: p.chips,
            framework: p.framework,
            init_seconds,
            steps,
            global_batch: batch,
            step,
            train_seconds,
            eval_seconds,
        })
    }
}

/// Evaluation overhead across a run: device-side eval compute plus
/// metric combination (§3.4) plus host-side metric work (COCO eval,
/// DLRM's AUC) under the framework's placement policy.
fn eval_seconds(
    workload: &Workload,
    chips: u32,
    framework: FrameworkKind,
    train_seconds: f64,
) -> Result<f64, StepError> {
    let tpu = TpuV3::new();
    let evals = workload.evals_per_run.max(1) as usize;
    // Device-side forward pass over the eval set at near-peak batch.
    let eff = workload
        .efficiency
        .at(workload.max_per_core_batch as f64)
        .map_err(StepError::Model)?;
    let fwd_flops = workload.eval_samples as f64 * workload.flops_per_sample / 3.0;
    let mut device_eval = fwd_flops / (chips as f64 * tpu.peak_matmul_flops * eff);
    if let Some(emb) = workload.embedding {
        device_eval += workload.eval_samples as f64 * emb.lookup_bytes_per_sample() as f64
            / (chips as f64 * tpu.hbm_bandwidth);
    }
    // Metric combination.
    let net = Network::new(
        Multipod::new(
            MultipodConfig::try_slice(chips).map_err(|_| StepError::InvalidSliceShape { chips })?,
        ),
        NetworkConfig::tpu_v3(),
    );
    let ring = RingCosts::from_ring(&net, &net.mesh().y_ring(0), 1)?;
    let workers = InitModel::workers(chips) as usize;
    let combine = match framework {
        FrameworkKind::TensorFlow => {
            combine_time(MetricCombine::CoordinatorGather, workers, 1.0e-4, &ring)
        }
        FrameworkKind::Jax => combine_time(MetricCombine::DeviceAllReduce, workers, 1.0e-4, &ring),
    };
    // Host-side metric computation.
    let host_metric_cost = match workload.name {
        // COCO eval per §4.4 (run on CPUs; SSD's is lighter — one stage,
        // boxes only).
        "SSD" => 2.0,
        "MaskRCNN" => 12.0,
        // §4.6: the custom multithreaded AUC takes ~2 s per call.
        "DLRM" => 2.0,
        _ => 0.2,
    };
    let placement = match framework {
        FrameworkKind::TensorFlow => EvalPlacement::Coordinator,
        FrameworkKind::Jax => EvalPlacement::RoundRobin { workers },
    };
    let interval = train_seconds / evals as f64;
    let timeline = simulate_evals(placement, evals, host_metric_cost, interval);
    // The coordinator computes every metric on the run's critical path
    // (the MLPerf clock cannot stop before the target metric is
    // verified); round-robin workers overlap all but the final one.
    let host_serial = match placement {
        EvalPlacement::Coordinator => evals as f64 * host_metric_cost,
        EvalPlacement::RoundRobin { .. } => host_metric_cost,
    };
    Ok(evals as f64 * (device_eval + combine) + timeline.stall + host_serial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn table1_headline_rows_land_near_the_paper() {
        // (preset, paper minutes, tolerance factor)
        let rows = [
            (presets::resnet50(4096), 0.48, 1.8),
            (presets::bert(4096), 0.39, 1.8),
            (presets::transformer(4096), 0.32, 2.0),
            (presets::ssd(4096), 0.46, 2.0),
            (presets::maskrcnn(512), 8.1, 2.0),
            (presets::dlrm(256), 2.4, 2.5),
        ];
        for (preset, paper, tol) in rows {
            let r = Executor::new(preset).run().unwrap();
            let ours = r.end_to_end_minutes();
            assert!(
                ours > paper / tol && ours < paper * tol,
                "{}: ours={ours:.3} min, paper={paper} (steps={}, step={:?})",
                r.name,
                r.steps,
                r.step
            );
        }
    }

    #[test]
    fn jax_and_tf_train_times_match_but_inits_differ() {
        // §4: "resulting in very similar step times as well as number of
        // convergence steps"; Table 2: very different init times.
        let tf = Executor::new(presets::bert(4096)).run().unwrap();
        let mut jax_preset = presets::bert(4096);
        jax_preset.framework = FrameworkKind::Jax;
        let jax = Executor::new(jax_preset).run().unwrap();
        assert!((tf.train_seconds - jax.train_seconds).abs() < 1e-9);
        assert!(tf.init_seconds > 2.0 * jax.init_seconds);
    }

    #[test]
    fn throughput_is_batch_over_step() {
        let r = Executor::new(presets::resnet50(1024)).run().unwrap();
        assert!((r.throughput() - r.global_batch as f64 / r.step.total()).abs() < 1e-6);
        assert!(
            r.throughput() > 1e5,
            "multipod ResNet should exceed 100k img/s"
        );
    }

    #[test]
    fn v06_to_v07_speedups_are_plausible() {
        // Table 1: ~2.6x for the benchmarks that moved from 1024 to 4096
        // chips.
        // Our model attributes less of the paper's 2.6x to software
        // (the v0.6 baseline also lacked input/compiler fixes we do not
        // model separately), so accept a wider band.
        for (v07, v06, lo, hi) in [
            (presets::resnet50(4096), presets::resnet50(1024), 1.2, 5.0),
            (
                presets::transformer(4096),
                presets::transformer(1024),
                1.2,
                5.0,
            ),
        ] {
            let new = Executor::new(v07).run().unwrap();
            let mut old_preset = v06;
            old_preset.options.weight_update_sharding = false;
            let old = Executor::new(old_preset).run().unwrap();
            let speedup = old.end_to_end_minutes() / new.end_to_end_minutes();
            assert!(
                (lo..hi).contains(&speedup),
                "{}: speedup={speedup}",
                new.name
            );
        }
    }

    #[test]
    fn zero_step_throughput_is_zero_not_inf() {
        let mut r = Executor::new(presets::resnet50(1024)).run().unwrap();
        r.step = StepBreakdown::default();
        assert_eq!(r.step.total(), 0.0);
        let tp = r.throughput();
        assert!(tp.is_finite(), "tp={tp}");
        assert_eq!(tp, 0.0);
    }

    #[test]
    fn invalid_chip_count_propagates_from_run() {
        let mut preset = presets::resnet50(1024);
        preset.chips = 100;
        let err = Executor::new(preset).run().unwrap_err();
        assert_eq!(
            err,
            crate::step::StepError::InvalidSliceShape { chips: 100 }
        );
    }

    #[test]
    fn eval_overhead_is_a_minor_fraction_for_vision_models() {
        let r = Executor::new(presets::resnet50(4096)).run().unwrap();
        assert!(r.eval_seconds < r.train_seconds);
    }
}
