//! Optimizers with a shardable step.
//!
//! The paper trains with layerwise-adaptive large-batch optimizers — LARS
//! for ResNet-50 (You et al. 2017) and LAMB for BERT (You et al. 2019) —
//! and distributes the optimizer step itself with **weight-update
//! sharding** (Xu et al. 2020, §3.2): a reduce-scatter leaves each
//! accelerator with a shard of summed gradients, each accelerator updates
//! only its weight shard, and the updated shards are broadcast back.
//!
//! This crate implements the optimizer *math* for real (momentum/Adam
//! state, bias correction, trust ratios from layerwise norms) with a
//! two-phase API ([`Optimizer::prepare`] / [`Optimizer::apply`]) that makes
//! the sharded step expressible: per-shard partial norms are combined
//! globally (a scalar all-reduce) before the trust ratio is applied, so the
//! sharded update equals the replicated one up to summation order — the
//! property the paper's correctness implicitly relies on. The sharded step
//! itself is `multipod_core::trainer::DataParallelTrainer`'s, and its
//! proptests hold it to a replicated oracle.
//!
//! ```
//! use multipod_optim::{Optimizer, SgdMomentum};
//! use multipod_tensor::{Shape, Tensor};
//!
//! let mut opt = SgdMomentum::new(0.1, 0.9);
//! let mut w = Tensor::fill(Shape::of(&[4]), 1.0);
//! let g = Tensor::fill(Shape::of(&[4]), 0.5);
//! opt.step(0, &mut w, &g);
//! assert!((w.data()[0] - 0.95).abs() < 1e-6);
//! ```

mod error;
mod lamb;
mod lars;
mod optimizer;
mod schedule;
mod sgd;

pub use error::OptimError;
pub use lamb::Lamb;
pub use lars::Lars;
pub use optimizer::{LayerStats, Optimizer, StateKey, StateSlot};
pub use schedule::LrSchedule;
pub use sgd::SgdMomentum;
