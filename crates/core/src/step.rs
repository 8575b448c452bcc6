//! The per-step time model.
//!
//! One training step on a multipod slice decomposes into (Figures 6, 8):
//!
//! * **MXU compute** — per-core FLOPs over the efficiency curve;
//! * **model-parallel communication** — from SPMD-partitioning the
//!   model's representative layer ([`crate::graphs`]);
//! * **gradient summation** — the 2-D Y-then-X schedule of §3.3, with
//!   X rings hopping over model-parallel peers;
//! * **weight update** — replicated or sharded (§3.2);
//! * **embedding path** — HBM lookups and all-to-all for DLRM;
//! * **input stall** — when the host pipeline cannot keep up (§3.5).

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use multipod_collectives::twod::{TwoDimBreakdown, TwoDimRings};
use multipod_collectives::CollectiveError;
use multipod_framework::FrameworkError;
use multipod_input::dlrm::{DlrmInputConfig, ParseGranularity, PcieLayout};
use multipod_input::host_pipeline::HostPipelineConfig;
use multipod_models::{ModelError, TpuV3, Workload};
use multipod_simnet::{Network, NetworkConfig, SimTime};
use multipod_taskgraph::TaskGraphError;
use multipod_telemetry::{MetricId, Obs, Subsystem};
use multipod_topology::{Multipod, MultipodConfig, CHIPS_PER_HOST};
use multipod_trace::{SpanCategory, SpanEvent, Track};

use crate::graphs;

/// Why a step could not be modeled.
#[derive(Clone, Debug, PartialEq)]
pub enum StepError {
    /// `chips` is not a power of two ≥ 2, so no slice of the paper's
    /// sweeps holds it.
    InvalidSliceShape {
        /// The rejected chip count.
        chips: u32,
    },
    /// A collective cost model failed (unroutable ring on a degraded
    /// mesh, zero contention factor).
    Collective(CollectiveError),
    /// The overlapped step's task graph was malformed (a duration guard
    /// tripped — indicates a bug in the graph builder).
    TaskGraph(TaskGraphError),
    /// An analytic workload/machine model rejected the configuration
    /// (zero batch, out-of-range efficiency, batch above the
    /// convergence cap).
    Model(ModelError),
    /// The framework control-plane model rejected the configuration
    /// (e.g. no init profile for the workload name).
    Framework(FrameworkError),
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::InvalidSliceShape { chips } => {
                write!(f, "no slice holds {chips} chips (need a power of two >= 2)")
            }
            StepError::Collective(e) => write!(f, "step collective model failed: {e}"),
            StepError::TaskGraph(e) => write!(f, "step task graph invalid: {e}"),
            StepError::Model(e) => write!(f, "step workload model rejected the config: {e}"),
            StepError::Framework(e) => write!(f, "step framework model rejected the config: {e}"),
        }
    }
}

impl Error for StepError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StepError::InvalidSliceShape { .. } => None,
            StepError::Collective(e) => Some(e),
            StepError::TaskGraph(e) => Some(e),
            StepError::Model(e) => Some(e),
            StepError::Framework(e) => Some(e),
        }
    }
}

impl From<CollectiveError> for StepError {
    fn from(e: CollectiveError) -> StepError {
        StepError::Collective(e)
    }
}

impl From<TaskGraphError> for StepError {
    fn from(e: TaskGraphError) -> StepError {
        StepError::TaskGraph(e)
    }
}

impl From<ModelError> for StepError {
    fn from(e: ModelError) -> StepError {
        StepError::Model(e)
    }
}

impl From<FrameworkError> for StepError {
    fn from(e: FrameworkError) -> StepError {
        StepError::Framework(e)
    }
}

/// Optimization toggles (for ablations; the paper's submission runs with
/// everything on).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepOptions {
    /// Weight-update sharding (§3.2).
    pub weight_update_sharding: bool,
    /// Uncompressed-image host input cache (§3.5).
    pub uncompressed_input: bool,
}

impl Default for StepOptions {
    fn default() -> Self {
        StepOptions {
            weight_update_sharding: true,
            uncompressed_input: true,
        }
    }
}

/// Time components of one training step, seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StepBreakdown {
    /// Matrix-unit compute (forward + backward).
    pub compute: f64,
    /// Model-parallel collectives inside the tile (forward + backward).
    pub model_parallel_comm: f64,
    /// The 2-D gradient summation.
    pub gradient_comm: TwoDimBreakdown,
    /// Optimizer arithmetic.
    pub weight_update: f64,
    /// Embedding lookups + all-to-all (DLRM only).
    pub embedding: f64,
    /// Host input stall.
    pub input_stall: f64,
}

impl StepBreakdown {
    /// Total step time.
    pub fn total(&self) -> f64 {
        self.compute
            + self.model_parallel_comm
            + self.gradient_comm.total()
            + self.weight_update
            + self.embedding
            + self.input_stall
    }

    /// The all-reduce share of device step time — the quantity Figures 6
    /// and 8 plot (22% for ResNet-50 and 27.3% for BERT at 4096 chips).
    /// A zero-length step has no all-reduce share: this returns 0.0
    /// rather than NaN.
    pub fn all_reduce_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0.0 {
            return 0.0;
        }
        self.gradient_comm.total() / total
    }
}

/// The utilization-relevant batch: per-replica samples discounted by
/// √(cores per replica) — spatial/feature tiles keep bigger per-core
/// shapes than a plain per-core batch split would suggest, but lose
/// efficiency to the "smaller dimensions after partitioning" (§5).
pub fn efficiency_batch(workload: &Workload, chips: u32) -> f64 {
    let cores = chips as f64 * 2.0;
    let cpr = workload.parallelism.cores_per_replica() as f64;
    let replicas = (cores / cpr).max(1.0);
    let per_replica = workload.global_batch(chips) as f64 / replicas;
    per_replica / cpr.sqrt()
}

/// The model-parallel stride actually usable on a mesh: the largest
/// divisor of both the plan's chip stride and the mesh X extent.
pub fn effective_stride(workload: &Workload, mesh: &Multipod) -> u32 {
    let want = workload.parallelism.chip_stride();
    let mut stride = want.min(mesh.x_len());
    while !mesh.x_len().is_multiple_of(stride) {
        stride -= 1;
    }
    stride.max(1)
}

/// Computes the step breakdown for a workload on a `chips`-chip slice.
///
/// # Errors
///
/// [`StepError::InvalidSliceShape`] when `chips` is not a power of two
/// ≥ 2 (the slice shapes the paper sweeps).
pub fn step_breakdown(
    workload: &Workload,
    chips: u32,
    options: &StepOptions,
) -> Result<StepBreakdown, StepError> {
    step_breakdown_on(
        workload,
        chips,
        options,
        &TpuV3::new(),
        NetworkConfig::tpu_v3(),
    )
}

/// [`step_breakdown`] on an explicit machine and interconnect (e.g.
/// [`TpuV3::v4_projection`] + [`NetworkConfig::tpu_v4`], the paper's
/// DLRM footnote).
pub fn step_breakdown_on(
    workload: &Workload,
    chips: u32,
    options: &StepOptions,
    tpu: &TpuV3,
    net_config: NetworkConfig,
) -> Result<StepBreakdown, StepError> {
    priced_step(workload, chips, options, tpu, net_config).map(|(breakdown, ..)| breakdown)
}

/// [`step_breakdown_on`], plus the rings and gradient elements per chip
/// its gradient summation was priced on, which price the overlapped
/// step's buckets too.
pub(crate) fn priced_step(
    workload: &Workload,
    chips: u32,
    options: &StepOptions,
    tpu: &TpuV3,
    net_config: NetworkConfig,
) -> Result<(StepBreakdown, TwoDimRings, usize), StepError> {
    let mesh = Multipod::new(
        MultipodConfig::try_slice(chips).map_err(|_| StepError::InvalidSliceShape { chips })?,
    );
    let net = Network::new(mesh, net_config);

    let batch = workload.global_batch(chips);
    let stride = effective_stride(workload, net.mesh());

    // MXU compute: utilization follows the per-replica batch, discounted
    // by √(tile width) for the shrinking-dimension losses of model
    // parallelism (§4.4, §5).
    let eff = workload.efficiency.at(efficiency_batch(workload, chips))?;
    let compute = tpu.core_compute_time(workload.flops_per_core_step(chips), eff)?;

    // Model-parallel communication (feature sharding / spatial tiles).
    let model_parallel_comm = model_comm_time(workload, &net, batch, chips);

    // Gradient summation: each chip contributes its share of the
    // (possibly sharded) weights; X-phase rings hop over model peers.
    let grad_elems_per_chip = (workload.params / stride as u64) as usize;
    let rings = TwoDimRings::new(&net, stride)?;
    let gradient_comm = rings.time(grad_elems_per_chip, workload.grad_precision);

    // Weight update: sharded updates divide the optimizer math by the
    // number of shards in the replica set (§3.2).
    let update_elems = if options.weight_update_sharding {
        let shards = (net.mesh().y_len() as u64) * (net.mesh().x_len() as u64 / stride as u64);
        (workload.params / stride as u64).div_ceil(shards)
    } else {
        workload.params / stride as u64
    };
    let weight_update = tpu.optimizer_update_time(update_elems, workload.optimizer_flops_per_param);

    // Embedding path (DLRM).
    let embedding = embedding_time(workload, &net, batch, tpu);

    // Host input pipeline.
    let device_time =
        compute + model_parallel_comm + gradient_comm.total() + weight_update + embedding;
    let input_stall = (host_input_time(workload, chips, batch, options) - device_time).max(0.0);

    let breakdown = StepBreakdown {
        compute,
        model_parallel_comm,
        gradient_comm,
        weight_update,
        embedding,
        input_stall,
    };
    Ok((breakdown, rings, grad_elems_per_chip))
}

fn model_comm_time(workload: &Workload, net: &Network, batch: u32, chips: u32) -> f64 {
    let cores_per_replica = workload.parallelism.cores_per_replica() as usize;
    let Some(rep) = graphs::representative(workload, cores_per_replica) else {
        return 0.0;
    };
    let cores = chips as u64 * 2;
    let replicas = (cores / cores_per_replica as u64).max(1);
    let samples_per_replica = (batch as f64 / replicas as f64).max(1.0);
    let (bytes_per_sample, collectives) = rep.comm_per_step(cores_per_replica);
    let bytes_per_core =
        bytes_per_sample * samples_per_replica * workload.grad_precision.bytes() as f64 / 4.0;
    let cfg = net.config();
    // Within-tile rings run over adjacent chips; both cores of a chip
    // share its links.
    let alpha = cfg.message_overhead + cfg.hop_latency;
    collectives * alpha + bytes_per_core / cfg.link_bandwidth
}

fn embedding_time(workload: &Workload, net: &Network, batch: u32, tpu: &TpuV3) -> f64 {
    let Some(emb) = workload.embedding else {
        return 0.0;
    };
    let mesh = net.mesh();
    let chips = mesh.num_chips() as f64;
    let lookup_bytes = emb.lookup_bytes_per_sample() as f64 * batch as f64;
    // Forward lookup + backward scatter-update from HBM, spread over chips.
    let hbm = 2.0 * lookup_bytes / chips / tpu.hbm_bandwidth;
    // All-to-all: tables are partitioned across chips, so each looked-up
    // row crosses the mesh; bisection-bound on a 2-D mesh.
    let bisection = 2.0 * mesh.y_len() as f64 * net.config().link_bandwidth;
    let all_to_all = 2.0 * (lookup_bytes / 2.0) / bisection;
    hbm + all_to_all
}

/// Time for one host to produce its share of a step's input batch —
/// the quantity the device race against (§3.5). The overlapped step
/// model schedules this same duration as an `InputFetch` task.
pub fn host_input_time(workload: &Workload, chips: u32, batch: u32, options: &StepOptions) -> f64 {
    let hosts = (chips as usize).div_ceil(CHIPS_PER_HOST) as f64;
    let samples_per_host = batch as f64 / hosts;
    if workload.embedding.is_some() {
        // DLRM's batch-granularity, stacked-PCIe path (§3.5).
        DlrmInputConfig::criteo().step_input_time(
            samples_per_host.ceil() as usize,
            ParseGranularity::PerBatch,
            PcieLayout::Stacked,
        )
    } else {
        let pipeline = if options.uncompressed_input {
            HostPipelineConfig::uncompressed_imagenet()
        } else {
            // Large-image JPEG decode (mean plus the expected heavy-tail
            // contribution of oversized images, §3.5).
            HostPipelineConfig::large_image_imagenet()
        };
        samples_per_host * pipeline.mean_sample_seconds() / pipeline.workers as f64
    }
}

/// Records one step on `obs`, starting at `start`, and returns the step's
/// end time so successive steps can be laid out back to back. The sink
/// gets `breakdown` as a sequential span timeline on the simulation track:
/// step phases for compute and model-parallel communication, collective
/// phases for the four 2-D summation halves, an optimizer span for the
/// weight update, and an input span for any host stall, all wrapped in one
/// step span named `name`. The registry gets a step counter and the
/// matching per-phase histograms.
pub fn record_step(
    obs: &Obs,
    name: &str,
    breakdown: &StepBreakdown,
    step_index: u64,
    start: SimTime,
) -> SimTime {
    use SpanCategory::{CollectivePhase, Input, Optimizer, StepPhase};
    let g = &breakdown.gradient_comm;
    let phases = [
        (StepPhase, "compute", breakdown.compute),
        (
            StepPhase,
            "model-parallel-comm",
            breakdown.model_parallel_comm,
        ),
        (CollectivePhase, "y-reduce-scatter", g.y_reduce_scatter),
        (CollectivePhase, "x-reduce-scatter", g.x_reduce_scatter),
        (CollectivePhase, "x-all-gather", g.x_all_gather),
        (CollectivePhase, "y-all-gather", g.y_all_gather),
        (Optimizer, "weight-update", breakdown.weight_update),
        (StepPhase, "embedding", breakdown.embedding),
        (Input, "input-stall", breakdown.input_stall),
    ];
    let mut end = start;
    for (category, label, seconds) in phases {
        if seconds > 0.0 {
            let phase_start = end;
            end = phase_start + seconds;
            obs.span(|| SpanEvent::new(Track::Sim, category, label, phase_start, end));
        }
    }
    obs.span(|| {
        SpanEvent::new(Track::Sim, SpanCategory::Step, name, start, end)
            .with_arg("step", step_index as f64)
            .with_arg("allreduce_share", breakdown.all_reduce_fraction())
    });
    if let Some(metrics) = obs.metrics() {
        metrics.inc_counter(MetricId::new(Subsystem::Core, "steps"), 1);
        let observe = |name: &'static str, seconds: f64| {
            if seconds > 0.0 {
                metrics.observe(MetricId::new(Subsystem::Core, name), seconds);
            }
        };
        observe("compute_seconds", breakdown.compute);
        observe("model_parallel_comm_seconds", breakdown.model_parallel_comm);
        observe("gradient_comm_seconds", g.total());
        observe("weight_update_seconds", breakdown.weight_update);
        observe("embedding_seconds", breakdown.embedding);
        observe("input_stall_seconds", breakdown.input_stall);
        observe("step_seconds", breakdown.total());
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_models::catalog;

    #[test]
    fn resnet_allreduce_share_matches_fig6() {
        // Fig. 6: all-reduce ≈ 22% of device step time at 4096 chips.
        let b = step_breakdown(&catalog::resnet50(), 4096, &StepOptions::default()).unwrap();
        let share = b.all_reduce_fraction();
        assert!(
            (0.12..0.32).contains(&share),
            "share={share} breakdown={b:?}"
        );
    }

    #[test]
    fn bert_allreduce_share_matches_fig8() {
        // Fig. 8: ≈ 27.3% at 4096 chips, and higher than ResNet-50's.
        let bert = step_breakdown(&catalog::bert(), 4096, &StepOptions::default()).unwrap();
        let resnet = step_breakdown(&catalog::resnet50(), 4096, &StepOptions::default()).unwrap();
        let share = bert.all_reduce_fraction();
        assert!((0.17..0.40).contains(&share), "share={share}");
        assert!(share > resnet.all_reduce_fraction());
    }

    #[test]
    fn compute_shrinks_with_scale_comm_does_not() {
        // Fig. 6's shape: computation time keeps decreasing, the
        // all-reduce time stays almost constant.
        let w = catalog::resnet50();
        let small = step_breakdown(&w, 256, &StepOptions::default()).unwrap();
        let large = step_breakdown(&w, 4096, &StepOptions::default()).unwrap();
        assert!(small.compute > 3.0 * large.compute);
        let comm_ratio = small.gradient_comm.total() / large.gradient_comm.total();
        assert!((0.4..2.5).contains(&comm_ratio), "comm_ratio={comm_ratio}");
    }

    #[test]
    fn wus_shrinks_update_time() {
        // §3.2: the replicated LAMB update is a large fraction of the
        // step at 512 chips (measured at a ~4k global batch); sharding
        // removes it.
        let mut w = catalog::bert();
        w.max_per_core_batch = 4;
        let with = step_breakdown(&w, 512, &StepOptions::default()).unwrap();
        let without = step_breakdown(
            &w,
            512,
            &StepOptions {
                weight_update_sharding: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(without.weight_update > 50.0 * with.weight_update);
        // ~18% of the unsharded step.
        let share = without.weight_update / without.total();
        assert!((0.05..0.35).contains(&share), "share={share}");
        assert!(with.total() < without.total());
    }

    #[test]
    fn model_parallel_models_pay_tile_comm() {
        let t = step_breakdown(&catalog::transformer(), 4096, &StepOptions::default()).unwrap();
        assert!(t.model_parallel_comm > 0.0);
        let r = step_breakdown(&catalog::resnet50(), 4096, &StepOptions::default()).unwrap();
        assert_eq!(r.model_parallel_comm, 0.0);
    }

    #[test]
    fn dlrm_embedding_and_input_paths_active() {
        let d = step_breakdown(&catalog::dlrm(), 256, &StepOptions::default()).unwrap();
        assert!(d.embedding > 0.0);
        // The optimized input path keeps DLRM device-bound per §3.5's
        // fixes (stall may be zero or small).
        assert!(d.input_stall < d.total());
    }

    #[test]
    fn compressed_input_stalls_resnet_at_scale() {
        let w = catalog::resnet50();
        let tuned = step_breakdown(&w, 128, &StepOptions::default()).unwrap();
        let legacy = step_breakdown(
            &w,
            128,
            &StepOptions {
                uncompressed_input: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(legacy.input_stall > tuned.input_stall);
        assert!(legacy.input_stall > 0.0, "legacy={legacy:?}");
    }

    #[test]
    fn effective_stride_respects_mesh() {
        let w = catalog::ssd(); // chip stride 4
        let mesh = Multipod::new(MultipodConfig::slice(16)); // 4x4
        assert_eq!(effective_stride(&w, &mesh), 4);
        let tiny = Multipod::new(MultipodConfig::slice(2)); // 2x1
        assert_eq!(effective_stride(&w, &tiny), 2);
    }

    #[test]
    fn tpu_v4_projection_reproduces_the_dlrm_footnote() {
        // Table 1's note: DLRM's best result (1.21 min) came from TPU-v4,
        // roughly 2x faster end-to-end than the v3 slice's 2.4 min. The
        // compute/embedding parts of the step shrink accordingly.
        use multipod_models::TpuV3;
        let w = catalog::dlrm();
        let v3 = step_breakdown(&w, 256, &StepOptions::default()).unwrap();
        let v4 = step_breakdown_on(
            &w,
            256,
            &StepOptions::default(),
            &TpuV3::v4_projection(),
            NetworkConfig::tpu_v4(),
        )
        .unwrap();
        assert!(v4.compute < v3.compute);
        assert!(v4.embedding < v3.embedding);
        let ratio = v3.total() / v4.total();
        // Paper: 2.4 min (v3, 256 chips) vs 1.21 min (v4) ≈ 2x.
        assert!((1.4..3.0).contains(&ratio), "v4 speedup: {ratio}");
    }

    #[test]
    fn non_power_of_two_chips_is_a_typed_error_not_a_panic() {
        for chips in [0, 1, 3, 6, 100] {
            let err =
                step_breakdown(&catalog::resnet50(), chips, &StepOptions::default()).unwrap_err();
            assert_eq!(err, StepError::InvalidSliceShape { chips });
            assert!(err.to_string().contains(&chips.to_string()));
        }
    }

    #[test]
    fn all_reduce_fraction_of_an_empty_step_is_zero_not_nan() {
        let b = StepBreakdown::default();
        assert_eq!(b.total(), 0.0);
        let share = b.all_reduce_fraction();
        assert!(share.is_finite(), "share={share}");
        assert_eq!(share, 0.0);
    }

    #[test]
    fn host_input_time_matches_the_stall_race() {
        // The extracted host-side time is exactly what input_stall races
        // against the device: stall == max(host − device, 0).
        let w = catalog::resnet50();
        let opts = StepOptions {
            uncompressed_input: false,
            ..Default::default()
        };
        let b = step_breakdown(&w, 128, &opts).unwrap();
        // Same fold order as the internal device_time, so bit-identical.
        let device = b.compute
            + b.model_parallel_comm
            + b.gradient_comm.total()
            + b.weight_update
            + b.embedding;
        let host = host_input_time(&w, 128, w.global_batch(128), &opts);
        assert_eq!((host - device).max(0.0).to_bits(), b.input_stall.to_bits());
    }

    #[test]
    fn step_times_are_positive_and_finite_for_all_models() {
        for w in catalog::all() {
            let chips = match w.name {
                "MaskRCNN" => 512,
                "DLRM" => 256,
                _ => 4096,
            };
            let b = step_breakdown(&w, chips, &StepOptions::default()).unwrap();
            assert!(
                b.total().is_finite() && b.total() > 0.0,
                "{}: {b:?}",
                w.name
            );
            assert!(
                b.total() < 1.0,
                "{}: step should be sub-second: {b:?}",
                w.name
            );
        }
    }
}
