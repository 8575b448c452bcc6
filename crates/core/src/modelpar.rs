//! Model-parallel speedup curves (Figure 9).
//!
//! For SSD, MaskRCNN and the Transformer, the paper plots the speedup of
//! one training step as the model-parallel tile grows from 1 to 8 cores.
//! Here the per-core compute comes from the SPMD-partitioned
//! representative graph (so partitioning imbalance/duplication is
//! captured) and the tile communication from the same program's
//! collectives — the speedup is sublinear exactly because communication
//! does not parallelize (§5: "The scaling is limited by communication
//! overhead introduced for partitioning and inefficiencies from smaller
//! dimensions after partitioning").

use serde::{Deserialize, Serialize};

use multipod_models::{TpuV3, Workload};
use multipod_simnet::NetworkConfig;

use crate::graphs;
use crate::scaling::SweepError;

/// One point of the Figure-9 curves.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelParallelPoint {
    /// Cores in the model-parallel tile.
    pub cores: u32,
    /// Per-step time at this tile width, seconds.
    pub step_time: f64,
    /// Speedup over the 1-core step.
    pub speedup: f64,
}

/// Sweeps tile widths for one workload.
///
/// `per_replica_batch` is the number of samples one replica processes per
/// step (e.g. 1 for the Transformer at the multipod scale).
///
/// # Errors
///
/// Returns a typed [`SweepError`] when `cores_list` is empty, does not
/// start at the 1-core baseline, or the workload is purely data-parallel
/// (no representative model-parallel graph).
pub fn speedup_curve(
    workload: &Workload,
    per_replica_batch: f64,
    cores_list: &[u32],
) -> Result<Vec<ModelParallelPoint>, SweepError> {
    match cores_list.first() {
        None => return Err(SweepError::EmptySweep),
        Some(&first) if first != 1 => return Err(SweepError::MissingBaseline { first }),
        Some(_) => {}
    }
    let tpu = TpuV3::new();
    let cfg = NetworkConfig::tpu_v3();
    let representative = |cores: u32| {
        graphs::representative(workload, cores as usize).ok_or_else(|| {
            SweepError::DataParallelWorkload {
                workload: workload.name.to_string(),
            }
        })
    };
    // Representative FLOPs scale to the full model's budget by the
    // 1-core program's.
    let scale = workload.flops_per_sample / representative(1)?.flops_per_core_per_sample(1);
    let points: Vec<(u32, f64)> = cores_list
        .iter()
        .map(|&cores| {
            let rep = representative(cores)?;
            // Compute: partitioned per-core FLOPs, with utilization
            // degrading as the per-core work shrinks.
            let rep_flops = rep.flops_per_core_per_sample(cores as usize) * per_replica_batch;
            let flops = rep_flops * scale;
            // Partition-efficiency discount: √(cores) rather than cores
            // (tiles keep large local shapes but lose peak to small
            // post-partition dimensions).
            let eff = workload
                .efficiency
                .at((per_replica_batch / (cores as f64).sqrt()).max(1e-3))
                .map_err(|e| SweepError::Model {
                    message: e.to_string(),
                })?;
            let compute = tpu.step_overhead + flops / (tpu.peak_matmul_flops / 2.0 * eff);
            // Tile communication: bytes and collective count from the
            // partitioned program.
            let comm = if cores > 1 {
                let (bytes_per_sample, collectives) = rep.comm_per_step(cores as usize);
                let bytes =
                    bytes_per_sample * per_replica_batch * workload.grad_precision.bytes() as f64
                        / 4.0;
                collectives * (cfg.message_overhead + cfg.hop_latency) + bytes / cfg.link_bandwidth
            } else {
                0.0
            };
            Ok((cores, compute + comm))
        })
        .collect::<Result<_, SweepError>>()?;
    let base = points[0].1;
    Ok(points
        .into_iter()
        .map(|(cores, step_time)| ModelParallelPoint {
            cores,
            step_time,
            speedup: base / step_time,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_models::catalog;

    #[test]
    fn transformer_reaches_paper_speedup_at_4_cores() {
        // §5: "The transformer model also achieves comparable speedup of
        // 2.3× on four TPU-v3 cores."
        let curve = speedup_curve(&catalog::transformer(), 1.0, &[1, 2, 4]).unwrap();
        let at4 = curve.last().unwrap();
        assert_eq!(at4.cores, 4);
        assert!(
            (1.6..3.4).contains(&at4.speedup),
            "transformer 4-core speedup = {}",
            at4.speedup
        );
    }

    #[test]
    fn spatial_models_speed_up_through_8_cores() {
        for w in [catalog::ssd(), catalog::maskrcnn()] {
            let curve = speedup_curve(&w, 1.0, &[1, 2, 4, 8]).unwrap();
            // Monotone but sublinear.
            for pair in curve.windows(2) {
                assert!(pair[1].speedup > pair[0].speedup, "{}: {curve:?}", w.name);
            }
            let at8 = curve.last().unwrap().speedup;
            assert!(at8 > 1.5 && at8 < 8.0, "{}: speedup at 8 = {at8}", w.name);
        }
    }

    #[test]
    fn speedup_is_sublinear_due_to_comm() {
        let curve = speedup_curve(&catalog::ssd(), 4.0, &[1, 2, 4, 8]).unwrap();
        let at8 = curve.last().unwrap().speedup;
        assert!(at8 < 7.0, "comm must make 8-core speedup sublinear: {at8}");
    }

    #[test]
    fn data_parallel_models_are_rejected_with_typed_error() {
        assert_eq!(
            speedup_curve(&catalog::bert(), 1.0, &[1, 2]),
            Err(SweepError::DataParallelWorkload {
                workload: "BERT".to_string()
            })
        );
    }

    #[test]
    fn empty_and_baseline_less_sweeps_are_typed_errors() {
        assert_eq!(
            speedup_curve(&catalog::ssd(), 1.0, &[]),
            Err(SweepError::EmptySweep)
        );
        assert_eq!(
            speedup_curve(&catalog::ssd(), 1.0, &[2, 4]),
            Err(SweepError::MissingBaseline { first: 2 })
        );
    }
}
