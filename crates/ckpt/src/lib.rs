//! Sharded checkpointing and elastic restart over the simulated
//! multipod.
//!
//! The paper's multipod runs hundreds of hosts for days; at that scale
//! the interesting checkpoint questions are *where the bytes flow* and
//! *what a recovery costs in step time*, not file formats. This crate
//! models both on the same simulated network as training:
//!
//! * [`ShardPlacement`] partitions the flattened model + optimizer
//!   state across live chips (mirroring weight-update sharding) and
//!   groups shards by host.
//! * [`save_checkpoint`] gathers shards over ICI to each host's gather
//!   chip and streams them to host memory over the input pipeline's
//!   PCIe cost model, producing a content-hashed, versioned
//!   [`Manifest`].
//! * [`restore_checkpoint`] validates integrity, re-assembles the
//!   global state bit-exactly, and re-shards it onto whatever placement
//!   the surviving mesh supports — the *elastic* half: a checkpoint
//!   written by 1024 chips restores onto 1023.
//! * [`run_rollback_campaign`] drives a fault campaign under
//!   [`RecoveryMode::Rollback`](multipod_core::trainer::RecoveryMode):
//!   on chip loss the trainer escalates, the campaign restores the last
//!   checkpoint onto the survivor mesh and replays the lost window.
//! * [`young_daly_interval`] turns measured checkpoint cost and
//!   campaign failure rates into the classic optimal-interval analysis.
//!
//! Everything is deterministic: identical runs produce byte-identical
//! checkpoints, manifests, and traces.

pub mod checkpoint;
pub mod error;
pub mod interval;
pub mod manifest;
pub mod placement;
pub mod rollback;

pub use checkpoint::{
    restore_checkpoint, save_checkpoint, Checkpoint, PcieCost, RestoreOutcome, SaveOutcome,
    ShardData, StateBundle,
};
pub use error::CkptError;
pub use interval::{interval_curve, overhead_fraction, young_daly_interval, IntervalPoint};
pub use manifest::{fnv1a, hash_tensor, Manifest, ShardEntry, CKPT_FORMAT_VERSION};
pub use placement::{HostShards, ShardPlacement, ShardRange};
pub use rollback::{run_rollback_campaign, RollbackConfig, RollbackReport, RollbackStep};
