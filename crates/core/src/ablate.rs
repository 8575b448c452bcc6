//! Ablations of the paper's design choices.
//!
//! DESIGN.md calls out three load-bearing optimizations; each gets a
//! measurable on/off comparison:
//!
//! * the **2-D Y-then-X gradient summation** (§3.3) vs a single 1-D snake
//!   ring over all chips;
//! * **bfloat16 summation payloads** (§3.3, §4.1, §4.3) vs f32;
//! * **weight-update sharding** (§3.2) vs replicated updates (see also
//!   `repro wus`).

use serde::{Deserialize, Serialize};

use multipod_collectives::timing::RingCosts;
use multipod_collectives::twod::{two_dim_all_reduce_time, TwoDimRings};
use multipod_collectives::{CollectiveError, Precision};
use multipod_models::Workload;
use multipod_simnet::{Network, NetworkConfig};
use multipod_topology::{Multipod, MultipodConfig};

use crate::step::{step_breakdown, StepError, StepOptions};

/// One row of the 1-D vs 2-D summation comparison.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SummationRow {
    /// Chips in the slice.
    pub chips: u32,
    /// Single snake-ring all-reduce time, seconds.
    pub one_dim: f64,
    /// 2-D Y-then-X all-reduce time, seconds.
    pub two_dim: f64,
}

impl SummationRow {
    /// How much faster the 2-D schedule is.
    pub fn speedup(&self) -> f64 {
        self.one_dim / self.two_dim
    }
}

/// Times the all-reduce of `elems` gradient elements under both
/// schedules across slice sizes.
///
/// The 1-D ring has `chips − 1` latency-bound steps, so its time explodes
/// with scale while the 2-D schedule pays `y_len + x_len` steps — the
/// quantitative argument for §3.3.
///
/// # Errors
///
/// Propagates the `CollectiveError` (a typed `Network` routing failure)
/// instead of panicking when a slice's rings do not route — which cannot
/// happen for the freshly-built healthy meshes used here, but keeps the
/// degraded-mesh discipline of `multipod-collectives`.
pub fn summation_ablation(
    elems: usize,
    precision: Precision,
    chip_counts: &[u32],
) -> Result<Vec<SummationRow>, CollectiveError> {
    chip_counts
        .iter()
        .map(|&chips| {
            let net = Network::new(
                Multipod::new(MultipodConfig::slice(chips)),
                NetworkConfig::tpu_v3(),
            );
            let snake = RingCosts::from_ring(&net, &net.mesh().snake_ring(), 1)?;
            let one_dim = snake.all_reduce_time(elems, precision, true);
            let two_dim = two_dim_all_reduce_time(&net, elems, precision, 1)?.total();
            Ok(SummationRow {
                chips,
                one_dim,
                two_dim,
            })
        })
        .collect()
}

/// One row of the payload-precision comparison.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PrecisionRow {
    /// Chips in the slice.
    pub chips: u32,
    /// f32-payload all-reduce time, seconds.
    pub f32_time: f64,
    /// bf16-payload all-reduce time, seconds.
    pub bf16_time: f64,
}

/// Times the 2-D all-reduce at both payload precisions.
///
/// # Errors
///
/// Propagates routing failures as a typed `CollectiveError` (see
/// [`summation_ablation`]).
pub fn precision_ablation(
    elems: usize,
    chip_counts: &[u32],
) -> Result<Vec<PrecisionRow>, CollectiveError> {
    chip_counts
        .iter()
        .map(|&chips| {
            let net = Network::new(
                Multipod::new(MultipodConfig::slice(chips)),
                NetworkConfig::tpu_v3(),
            );
            let rings = TwoDimRings::new(&net, 1)?;
            Ok(PrecisionRow {
                chips,
                f32_time: rings.time(elems, Precision::F32).total(),
                bf16_time: rings.time(elems, Precision::Bf16).total(),
            })
        })
        .collect()
}

/// One row of the weight-update-sharding comparison.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WusRow {
    /// Chips in the slice.
    pub chips: u32,
    /// Step time with the replicated update, seconds.
    pub replicated_step: f64,
    /// Step time with the sharded update, seconds.
    pub sharded_step: f64,
    /// Update share of the replicated step.
    pub replicated_update_share: f64,
}

/// Sweeps weight-update sharding on/off for a workload.
///
/// # Errors
///
/// Propagates the [`StepError`] of a failing sweep point (e.g. a
/// non-power-of-two chip count) instead of panicking.
pub fn wus_ablation(workload: &Workload, chip_counts: &[u32]) -> Result<Vec<WusRow>, StepError> {
    chip_counts
        .iter()
        .map(|&chips| {
            let sharded = step_breakdown(workload, chips, &StepOptions::default())?;
            let replicated = step_breakdown(
                workload,
                chips,
                &StepOptions {
                    weight_update_sharding: false,
                    ..Default::default()
                },
            )?;
            Ok(WusRow {
                chips,
                replicated_step: replicated.total(),
                sharded_step: sharded.total(),
                replicated_update_share: replicated.weight_update / replicated.total(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_models::catalog;

    #[test]
    fn two_dim_schedule_wins_and_the_gap_grows_with_scale() {
        let rows = summation_ablation(25_600_000, Precision::F32, &[64, 1024, 4096]).unwrap();
        for r in &rows {
            assert!(
                r.speedup() > 1.0,
                "2-D must beat the snake at {} chips: {r:?}",
                r.chips
            );
        }
        // The 1-D ring is latency-bound: its disadvantage grows with
        // chip count.
        assert!(rows[2].speedup() > 2.0 * rows[0].speedup(), "{rows:?}");
        // At the multipod the snake is catastrophic (thousands of
        // α-latency steps).
        assert!(rows[2].speedup() > 4.0, "{rows:?}");
    }

    #[test]
    fn bf16_halves_bandwidth_dominated_cost() {
        let rows = precision_ablation(334_000_000, &[256, 4096]).unwrap();
        for r in &rows {
            let ratio = r.bf16_time / r.f32_time;
            assert!(
                (0.45..0.95).contains(&ratio),
                "bf16 must cut summation time at {} chips: {ratio}",
                r.chips
            );
        }
        // More bandwidth-dominated at small scale (larger per-ring
        // payloads) → ratio closer to 0.5.
        assert!(
            rows[0].bf16_time / rows[0].f32_time <= rows[1].bf16_time / rows[1].f32_time + 0.05
        );
    }

    #[test]
    fn wus_matters_most_at_small_per_chip_batches() {
        let mut bert = catalog::bert();
        bert.max_per_core_batch = 4;
        let rows = wus_ablation(&bert, &[256, 512, 1024]).unwrap();
        for r in &rows {
            assert!(r.sharded_step < r.replicated_step, "{r:?}");
            assert!(r.replicated_update_share > 0.03, "{r:?}");
        }
    }

    #[test]
    fn wus_ablation_rejects_bad_chip_counts() {
        let err = wus_ablation(&catalog::bert(), &[256, 300]).unwrap_err();
        assert_eq!(err, StepError::InvalidSliceShape { chips: 300 });
    }
}
