//! Multi-tenant pod scheduling over the simulated multipod.
//!
//! Google's TPU pods are multiplexed across many training and serving
//! jobs at once; the paper's concurrency results implicitly assume a
//! scheduler that can hand each job a rectangular slice of the mesh and
//! keep the pod busy. This crate models that layer end to end:
//!
//! * [`SliceAllocator`] — deterministic buddy-style first-fit allocation
//!   of rectangular power-of-two slices over the mesh's *live* chips
//!   (dead chips from the fault layer poison rectangles).
//! * [`JobSpec`] / [`arrival_stream`] — a seeded heterogeneous job
//!   stream: BERT, ResNet-50 and DLRM training at MLPerf slice sizes,
//!   plus a heavy tail of small high-priority eval jobs.
//! * [`PodScheduler`] — gang scheduling under priorities and fair-share
//!   tenant accounting, with preemption implemented as a *real* sharded
//!   checkpoint save on the outgoing slice and a bit-identical elastic
//!   restore when the job is re-dispatched (possibly onto a different
//!   slice shape), and chip-loss faults that kill jobs back to their
//!   last checkpoint.
//! * [`SchedReport`] — utilization, queue-wait and preemption-overhead
//!   distributions for a whole campaign, deterministic across reruns.
//!
//! `repro sched` drives a thousands-of-jobs campaign on the
//! 128×32 mesh and gates mean utilization and byte-identical reruns in
//! CI.
//!
//! A scheduler runs one campaign; running it again does not compile:
//!
//! ```compile_fail,E0382
//! # use multipod_sched::{PodScheduler, SchedConfig};
//! # let config = SchedConfig::demo(multipod_topology::MultipodConfig::mesh(32, 32, true), 20, 1);
//! let scheduler = PodScheduler::new(config);
//! let (first, again) = (scheduler.run(), scheduler.run());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod job;
mod sched;
mod slice;

pub use error::SchedError;
pub use job::{arrival_stream, ArrivalConfig, JobKind, JobSpec, ServiceSpec};
pub use sched::{KindStats, PodScheduler, SchedConfig, SchedReport, ServiceStats};
pub use slice::{Slice, SliceAllocator};
