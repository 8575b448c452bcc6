//! The training executor: the paper's end-to-end model.
//!
//! Everything below composes the substrate crates into the quantities the
//! paper reports:
//!
//! * [`step::step_breakdown`] — one training step's time, split into MXU
//!   compute, model-parallel communication (from SPMD-partitioned
//!   representative graphs), the 2-D gradient summation, the (optionally
//!   sharded) weight update, DLRM's embedding path and host-input stalls.
//! * [`Executor`] — runs a [`Preset`] to a [`Report`]: initialization
//!   (Table 2), steps-to-quality × step time (Table 1, Figures 5–8),
//!   and evaluation overheads.
//! * [`scaling`] — chip-count sweeps for the speedup/breakdown figures.
//! * [`modelpar`] — model-parallel speedup curves (Figure 9).
//! * [`presets`] — the paper's benchmark configurations.
//! * [`ablate`] — on/off comparisons of the load-bearing optimizations
//!   (2-D summation, bf16 payloads, weight-update sharding).
//!
//! ```
//! use multipod_core::{presets, Executor};
//!
//! let report = Executor::new(presets::resnet50(4096)).run().unwrap();
//! // Paper Table 1: 0.48 minutes on 4096 chips.
//! assert!(report.end_to_end_minutes() > 0.2 && report.end_to_end_minutes() < 1.0);
//! ```

pub mod ablate;
pub mod graphs;
pub mod modelpar;
pub mod overlap;
pub mod presets;
pub mod scaling;
pub mod step;
pub mod trainer;

mod executor;

pub use executor::{Executor, Preset, Report};
pub use overlap::{CheckpointOverlap, OverlapConfig, OverlappedStep};
pub use scaling::SweepError;
pub use step::{record_step, StepBreakdown, StepError, StepOptions};
pub use trainer::{DataParallelTrainer, FaultPolicy, RecoveryMode, TrainStepStats};

#[cfg(test)]
mod wus;
