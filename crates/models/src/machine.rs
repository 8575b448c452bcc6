//! The TPU-v3 machine model.

use serde::{Deserialize, Serialize};

use crate::ModelError;

/// MXU utilization as a function of per-core batch size.
///
/// Small per-core batches under-fill the 128×128 systolic arrays and
/// expose layer-launch overheads, so efficiency follows a saturating
/// curve `eff(b) = max · b / (b + half_batch)`. `half_batch` is
/// model-specific: BERT's long sequences keep the MXU busy even at batch
/// 2/chip (§5, Fig. 8), while ResNet-50's shrinking spatial dimensions
/// make small batches expensive (Fig. 6).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EfficiencyCurve {
    /// Asymptotic MXU utilization at large batch.
    pub max: f64,
    /// Per-core batch at which utilization is half of `max`.
    pub half_batch: f64,
}

impl EfficiencyCurve {
    /// Utilization at the given per-core batch.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NonPositiveBatch`] for non-positive batch
    /// sizes.
    pub fn at(&self, per_core_batch: f64) -> Result<f64, ModelError> {
        if per_core_batch <= 0.0 {
            return Err(ModelError::NonPositiveBatch);
        }
        Ok(self.max * per_core_batch / (per_core_batch + self.half_batch))
    }
}

/// TPU-v3 chip and pod constants (Jouppi et al. 2020).
///
/// A TPU-v3 chip has two TensorCores, each with two 128×128 MXUs, for a
/// combined 123 TFLOP/s of bf16 matmul peak; 32 GiB of HBM at ~900 GB/s;
/// and four ICI links of ~70 GB/s per direction forming the 2-D torus.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TpuV3 {
    /// Peak dense-matmul throughput per chip, FLOP/s (bf16).
    pub peak_matmul_flops: f64,
    /// Vector-unit throughput per chip, FLOP/s (optimizer math,
    /// normalizations).
    pub vector_flops: f64,
    /// HBM bandwidth per chip, bytes/s.
    pub hbm_bandwidth: f64,
    /// HBM capacity per chip, bytes.
    pub hbm_bytes: u64,
    /// Fixed per-step overhead (infeed handoff, step sync), seconds.
    pub step_overhead: f64,
}

impl TpuV3 {
    /// The published TPU-v3 configuration.
    pub fn new() -> TpuV3 {
        TpuV3 {
            peak_matmul_flops: 123.0e12,
            vector_flops: 2.0e12,
            hbm_bandwidth: 900.0e9,
            hbm_bytes: 32 * (1 << 30),
            step_overhead: 150.0e-6,
        }
    }

    /// Matmul-bound compute time for `flops` on a single TensorCore
    /// (half the chip's MXUs).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidEfficiency`] when `efficiency` is
    /// not in (0, 1].
    pub fn core_compute_time(&self, flops: f64, efficiency: f64) -> Result<f64, ModelError> {
        if !(efficiency > 0.0 && efficiency <= 1.0) {
            return Err(ModelError::InvalidEfficiency { efficiency });
        }
        Ok(self.step_overhead + flops / (self.peak_matmul_flops / 2.0 * efficiency))
    }

    /// Optimizer-update time for `elems` parameters: the update streams
    /// the parameter, gradient and optimizer-state arrays through HBM, so
    /// it is usually **memory-bound** (~2.5 bytes of HBM traffic per
    /// update FLOP: read+write of f32 state words). This is what makes
    /// the replicated LAMB update ~18% of the BERT step on 512 chips
    /// (§3.2).
    pub fn optimizer_update_time(&self, elems: u64, flops_per_param: u64) -> f64 {
        let flops = (elems * flops_per_param) as f64;
        let hbm_bytes = flops * 2.5;
        (flops / self.vector_flops).max(hbm_bytes / self.hbm_bandwidth)
    }
}

impl TpuV3 {
    /// A TPU-v4 projection (the paper's footnote machine: "the best
    /// result of 1.21 minutes was achieved on a TPU-v4 machine" for
    /// DLRM). Public TPU-v4 figures: ~275 bf16 TFLOP/s per chip and
    /// ~1.2 TB/s of HBM — roughly 2.2x the matmul and 1.3x the memory
    /// throughput of v3. The struct type is shared; only the constants
    /// change.
    pub fn v4_projection() -> TpuV3 {
        TpuV3 {
            peak_matmul_flops: 275.0e12,
            vector_flops: 4.0e12,
            hbm_bandwidth: 1200.0e9,
            hbm_bytes: 32 * (1 << 30),
            step_overhead: 120.0e-6,
        }
    }
}

impl Default for TpuV3 {
    fn default() -> Self {
        TpuV3::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_curve_saturates() {
        let c = EfficiencyCurve {
            max: 0.8,
            half_batch: 8.0,
        };
        assert!((c.at(8.0).unwrap() - 0.4).abs() < 1e-9);
        assert!(c.at(1024.0).unwrap() > 0.79);
        assert!(c.at(1.0).unwrap() < 0.1);
        // Monotone.
        assert!(c.at(2.0).unwrap() < c.at(4.0).unwrap());
    }

    #[test]
    fn efficiency_rejects_zero_batch() {
        let c = EfficiencyCurve {
            max: 0.5,
            half_batch: 1.0,
        };
        assert_eq!(c.at(0.0), Err(ModelError::NonPositiveBatch));
        assert_eq!(c.at(-2.0), Err(ModelError::NonPositiveBatch));
    }

    #[test]
    fn tpu_constants_match_the_published_chip() {
        let tpu = TpuV3::new();
        assert_eq!(tpu.peak_matmul_flops, 123.0e12);
        assert_eq!(tpu.hbm_bytes, 32 * (1 << 30));
    }

    #[test]
    fn compute_time_scales_inversely_with_efficiency() {
        let tpu = TpuV3::new();
        let fast = tpu.core_compute_time(1e12, 0.8).unwrap();
        let slow = tpu.core_compute_time(1e12, 0.2).unwrap();
        assert!(slow > 3.0 * fast - tpu.step_overhead * 4.0);
        assert!(fast > tpu.step_overhead);
    }

    #[test]
    fn compute_time_rejects_out_of_range_efficiency() {
        let tpu = TpuV3::new();
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(matches!(
                tpu.core_compute_time(1e12, bad),
                Err(ModelError::InvalidEfficiency { .. })
            ));
        }
    }

    #[test]
    fn v4_projection_outpaces_v3() {
        let v3 = TpuV3::new();
        let v4 = TpuV3::v4_projection();
        assert!(v4.peak_matmul_flops > 2.0 * v3.peak_matmul_flops);
        assert!(
            v4.core_compute_time(1e12, 0.5).unwrap() < v3.core_compute_time(1e12, 0.5).unwrap()
        );
        assert!(v4.optimizer_update_time(1 << 20, 20) < v3.optimizer_update_time(1 << 20, 20));
    }
}
