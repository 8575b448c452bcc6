//! The overlapped step model: the analytic [`crate::step`] components
//! re-expressed as a deferred task graph and scheduled over the simnet
//! event engine, so independent work advances concurrently in sim-time.
//!
//! Three overlaps ride on the same scheduler:
//!
//! * **gradient summation behind backprop** — the payload is split into
//!   buckets ([`multipod_collectives::twod::bucket_sizes`], each priced on
//!   the rings the analytic breakdown walked) and bucket `i`'s Y
//!   reduce-scatter starts as soon as backprop segment `i` has produced
//!   its gradients, instead of after the whole backward pass;
//! * **input prefetch** — the host pipeline fetches the next batch under
//!   the same scheduler, racing the device instead of stalling it;
//! * **pipelined checkpoint saves** — PCIe shard writes start as their
//!   weights finish updating, hidden behind the rest of the step.
//!
//! With [`OverlapConfig::overlap`] off, the graph degenerates to a
//! dependency chain of [`TaskKind::Serial`] phases whose makespan
//! reproduces [`StepBreakdown::total`] **bit for bit** (the left-fold
//! order of the chain matches the analytic sum; see the differential
//! test in `tests/overlap_consistency.rs`).
//!
//! Because all collective phases share the single `Ici` resource and all
//! compute shares `Mxu`, any schedule obeys
//! `makespan ∈ [max(compute, comm), compute + comm + host + pcie]` —
//! the bound the proptests pin down.

use serde::{Deserialize, Serialize};

use multipod_collectives::twod::{bucket_sizes, TwoDimRings};
use multipod_models::{TpuV3, Workload};
use multipod_simnet::NetworkConfig;
use multipod_taskgraph::{Resource, SerialPhase, TaskGraph, TaskId, TaskKind, TaskSchedule};

use crate::step::{self, StepBreakdown, StepError, StepOptions};

/// Pipelined checkpoint shards to hide behind the step.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CheckpointOverlap {
    /// Number of PCIe shard writes per step.
    pub shards: u32,
    /// Seconds per shard write (from the checkpoint cost model).
    pub seconds_per_shard: f64,
}

/// Knobs of the overlapped step model.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OverlapConfig {
    /// Gradient buckets: more buckets expose more overlap but pay more
    /// per-phase α; 1 bucket degenerates to the single-shot collective.
    pub buckets: u32,
    /// When false, build the serial reference chain instead — its
    /// makespan reproduces the analytic breakdown bit for bit.
    pub overlap: bool,
    /// Prefetch the next input batch concurrently with the device step
    /// (when false the forward pass waits for the fetch).
    pub prefetch_input: bool,
    /// Optional pipelined checkpoint saves on the PCIe resource.
    pub checkpoint: Option<CheckpointOverlap>,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        OverlapConfig {
            buckets: 8,
            overlap: true,
            prefetch_input: true,
            checkpoint: None,
        }
    }
}

/// One step scheduled as a task graph, next to its analytic reference.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OverlappedStep {
    /// The serial analytic breakdown the graph was built from.
    pub analytic: StepBreakdown,
    /// The executed schedule.
    pub schedule: TaskSchedule,
}

impl OverlappedStep {
    /// Scheduled step time (the makespan).
    pub fn step_seconds(&self) -> f64 {
        self.schedule.makespan.seconds()
    }

    /// MXU busy seconds.
    pub fn compute_seconds(&self) -> f64 {
        self.schedule.compute_seconds()
    }

    /// ICI busy seconds.
    pub fn comm_seconds(&self) -> f64 {
        self.schedule.comm_seconds()
    }

    /// Makespan over serial compute + comm: 1.0 when nothing overlaps,
    /// approaching `max(compute, comm) / (compute + comm)` at perfect
    /// overlap. Returns 0.0 (not NaN) for an empty schedule.
    pub fn overlap_ratio(&self) -> f64 {
        let serial = self.compute_seconds() + self.comm_seconds();
        if serial == 0.0 {
            return 0.0;
        }
        self.step_seconds() / serial
    }
}

/// Builds and runs the overlapped step for a workload on a `chips`-chip
/// slice of the default TPU-v3 multipod.
///
/// # Errors
///
/// [`StepError::InvalidSliceShape`] for a non-power-of-two chip count;
/// [`StepError::Collective`] when the cost model fails.
pub fn overlapped_step(
    workload: &Workload,
    chips: u32,
    options: &StepOptions,
    overlap: &OverlapConfig,
) -> Result<OverlappedStep, StepError> {
    overlapped_step_on(
        workload,
        chips,
        options,
        overlap,
        &TpuV3::new(),
        NetworkConfig::tpu_v3(),
    )
}

/// [`overlapped_step`] on an explicit machine and interconnect.
pub fn overlapped_step_on(
    workload: &Workload,
    chips: u32,
    options: &StepOptions,
    overlap: &OverlapConfig,
    tpu: &TpuV3,
    net_config: NetworkConfig,
) -> Result<OverlappedStep, StepError> {
    let (analytic, rings, grad_elems) =
        step::priced_step(workload, chips, options, tpu, net_config)?;
    let graph = if overlap.overlap {
        overlapped_graph(
            workload, chips, options, overlap, &analytic, &rings, grad_elems,
        )?
    } else {
        serial_graph(&analytic)?
    };
    Ok(OverlappedStep {
        analytic,
        schedule: graph.run(),
    })
}

/// The overlap-disabled reference: one [`TaskKind::Serial`] task per
/// analytic phase, chained by dependencies in [`StepBreakdown::total`]'s
/// summation order so the makespan left-folds to the identical bits.
fn serial_graph(b: &StepBreakdown) -> Result<TaskGraph, StepError> {
    let phases = [
        (SerialPhase::Compute, Resource::Mxu, b.compute),
        (
            SerialPhase::ModelParallelComm,
            Resource::Ici,
            b.model_parallel_comm,
        ),
        (
            SerialPhase::GradientComm,
            Resource::Ici,
            b.gradient_comm.total(),
        ),
        (SerialPhase::WeightUpdate, Resource::Mxu, b.weight_update),
        (SerialPhase::Embedding, Resource::Mxu, b.embedding),
        (SerialPhase::InputStall, Resource::Host, b.input_stall),
    ];
    let mut g = TaskGraph::new();
    let mut prev: Option<TaskId> = None;
    for (phase, resource, seconds) in phases {
        let kind = TaskKind::Serial { phase };
        prev = Some(g.add(kind, resource, seconds, prev.as_slice())?);
    }
    Ok(g)
}

/// The overlapped graph; `analytic`'s summation was priced on `rings`.
fn overlapped_graph(
    workload: &Workload,
    chips: u32,
    options: &StepOptions,
    overlap: &OverlapConfig,
    analytic: &StepBreakdown,
    rings: &TwoDimRings,
    grad_elems: usize,
) -> Result<TaskGraph, StepError> {
    let buckets = overlap.buckets.max(1) as usize;
    let total_elems = grad_elems.max(1) as f64;

    let batch = workload.global_batch(chips);
    let host = step::host_input_time(workload, chips, batch, options);

    let mut g = TaskGraph::new();

    // The next batch's fetch runs under the same scheduler; with
    // prefetch off, the forward pass waits for it (the analytic stall).
    let fetch = g.add(TaskKind::InputFetch, Resource::Host, host, &[])?;

    // Forward ≈ 1/3 of fwd+bwd MXU time, backward the rest, split into
    // one segment per bucket: bucket i's gradients materialize when
    // segment i retires. Model-parallel comm stays on the compute path —
    // it is interleaved with the layers and cannot hide behind the
    // gradient rings.
    let forward = analytic.compute / 3.0;
    let fwd_deps: &[TaskId] = if overlap.prefetch_input {
        &[]
    } else {
        &[fetch]
    };
    let fwd = g.add(TaskKind::Forward, Resource::Mxu, forward, fwd_deps)?;
    let mpc = g.add(
        TaskKind::ModelParallelComm,
        Resource::Mxu,
        analytic.model_parallel_comm,
        &[fwd],
    )?;

    let segment = (analytic.compute - forward) / buckets as f64;
    let mut prev_bwd = mpc;
    let mut updates = Vec::with_capacity(buckets);
    for (i, bucket_elems) in bucket_sizes(grad_elems, buckets).into_iter().enumerate() {
        let bucket = i as u32;
        let cost = rings.time(bucket_elems, workload.grad_precision);
        let bwd = g.add(
            TaskKind::LayerBackprop { layer: bucket },
            Resource::Mxu,
            segment,
            &[prev_bwd],
        )?;
        prev_bwd = bwd;
        let yrs = g.add(
            TaskKind::reduce_scatter_y(bucket),
            Resource::Ici,
            cost.y_reduce_scatter,
            &[bwd],
        )?;
        let xrs = g.add(
            TaskKind::reduce_scatter_x(bucket),
            Resource::Ici,
            cost.x_reduce_scatter,
            &[yrs],
        )?;
        let update_seconds = analytic.weight_update * bucket_elems as f64 / total_elems;
        if options.weight_update_sharding {
            // §3.2 order: update the reduce-scattered shard, then
            // all-gather the updated weights.
            let upd = g.add(
                TaskKind::OptimizerShardUpdate { bucket },
                Resource::Mxu,
                update_seconds,
                &[xrs],
            )?;
            let xag = g.add(
                TaskKind::all_gather_x(bucket),
                Resource::Ici,
                cost.x_all_gather,
                &[upd],
            )?;
            g.add(
                TaskKind::all_gather_y(bucket),
                Resource::Ici,
                cost.y_all_gather,
                &[xag],
            )?;
            updates.push(upd);
        } else {
            // Replicated update: every chip needs the full summed
            // gradient first.
            let xag = g.add(
                TaskKind::all_gather_x(bucket),
                Resource::Ici,
                cost.x_all_gather,
                &[xrs],
            )?;
            let yag = g.add(
                TaskKind::all_gather_y(bucket),
                Resource::Ici,
                cost.y_all_gather,
                &[xag],
            )?;
            let upd = g.add(
                TaskKind::OptimizerShardUpdate { bucket },
                Resource::Mxu,
                update_seconds,
                &[yag],
            )?;
            updates.push(upd);
        }
    }

    if analytic.embedding > 0.0 {
        g.add(
            TaskKind::Embedding,
            Resource::Mxu,
            analytic.embedding,
            &[prev_bwd],
        )?;
    }

    if let Some(ckpt) = overlap.checkpoint {
        let shards = ckpt.shards.max(1);
        for s in 0..shards {
            // Shard s covers the weights of bucket ⌊s·B/shards⌋; its
            // PCIe write starts as soon as that bucket's update retires.
            let b = (s as usize * buckets) / shards as usize;
            g.add(
                TaskKind::CheckpointSave { shard: s },
                Resource::Pcie,
                ckpt.seconds_per_shard,
                &[updates[b]],
            )?;
        }
    }

    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_models::catalog;

    #[test]
    fn serial_graph_reproduces_the_analytic_total_bit_for_bit() {
        let w = catalog::bert();
        let opts = StepOptions::default();
        let analytic = step::step_breakdown(&w, 128, &opts).unwrap();
        let cfg = OverlapConfig {
            overlap: false,
            ..Default::default()
        };
        let s = overlapped_step(&w, 128, &opts, &cfg).unwrap();
        assert_eq!(
            s.step_seconds().to_bits(),
            analytic.total().to_bits(),
            "serial schedule must left-fold to the analytic sum"
        );
    }

    #[test]
    fn overlap_hides_comm_behind_backprop() {
        let w = catalog::bert();
        let opts = StepOptions::default();
        let serial = overlapped_step(
            &w,
            4096,
            &opts,
            &OverlapConfig {
                overlap: false,
                ..Default::default()
            },
        )
        .unwrap();
        let overlapped = overlapped_step(&w, 4096, &opts, &OverlapConfig::default()).unwrap();
        assert!(
            overlapped.step_seconds() < serial.step_seconds(),
            "overlapped={} serial={}",
            overlapped.step_seconds(),
            serial.step_seconds()
        );
        let lower = overlapped.compute_seconds().max(overlapped.comm_seconds());
        assert!(overlapped.step_seconds() >= lower * (1.0 - 1e-12));
    }

    #[test]
    fn overlapped_step_respects_the_resource_bounds() {
        let w = catalog::bert();
        let opts = StepOptions::default();
        for buckets in [1, 2, 8, 32] {
            let cfg = OverlapConfig {
                buckets,
                ..Default::default()
            };
            let s = overlapped_step(&w, 512, &opts, &cfg).unwrap();
            let compute = s.compute_seconds();
            let comm = s.comm_seconds();
            let host = s.schedule.busy_seconds(Resource::Host);
            let m = s.step_seconds();
            assert!(m >= compute.max(comm) * (1.0 - 1e-12), "buckets={buckets}");
            assert!(
                m <= (compute + comm + host) * (1.0 + 1e-12),
                "buckets={buckets} m={m} compute={compute} comm={comm} host={host}"
            );
        }
    }

    #[test]
    fn checkpoint_shards_hide_behind_the_step() {
        let w = catalog::bert();
        let opts = StepOptions::default();
        let without = overlapped_step(&w, 512, &opts, &OverlapConfig::default()).unwrap();
        let small = OverlapConfig {
            checkpoint: Some(CheckpointOverlap {
                shards: 4,
                seconds_per_shard: 1.0e-4,
            }),
            ..Default::default()
        };
        let with = overlapped_step(&w, 512, &opts, &small).unwrap();
        // Small shard writes fit in the PCIe idle time the step leaves.
        assert!(with.step_seconds() <= without.step_seconds() * 1.05);
        let saves = with
            .schedule
            .tasks
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::CheckpointSave { .. }))
            .count();
        assert_eq!(saves, 4);
    }

    #[test]
    fn prefetch_hides_the_host_pipeline() {
        // Compressed input on a small slice makes the host the straggler;
        // prefetch races it against the device instead of serializing.
        let w = catalog::resnet50();
        let opts = StepOptions {
            uncompressed_input: false,
            ..Default::default()
        };
        let fetch_first = OverlapConfig {
            prefetch_input: false,
            ..Default::default()
        };
        let prefetched = overlapped_step(&w, 128, &opts, &OverlapConfig::default()).unwrap();
        let stalled = overlapped_step(&w, 128, &opts, &fetch_first).unwrap();
        assert!(prefetched.step_seconds() < stalled.step_seconds());
        let host = prefetched.schedule.busy_seconds(Resource::Host);
        assert!(host > 0.0);
        assert!(prefetched.step_seconds() >= host * (1.0 - 1e-12));
    }

    #[test]
    fn invalid_chip_count_surfaces_the_typed_error() {
        let err = overlapped_step(
            &catalog::bert(),
            3,
            &StepOptions::default(),
            &OverlapConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, StepError::InvalidSliceShape { chips: 3 });
    }

    #[test]
    fn overlap_ratio_is_finite_for_empty_schedules() {
        let s = OverlappedStep {
            analytic: StepBreakdown::default(),
            schedule: TaskGraph::new().run(),
        };
        assert_eq!(s.overlap_ratio(), 0.0);
    }
}
