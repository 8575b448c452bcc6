//! # multipod-serve — online inference serving on the mesh
//!
//! The paper multiplexes a multipod across thousands of *training* jobs;
//! this crate adds the other tenant class production pods actually
//! carry: latency-bound serving. Two workloads share the mesh with the
//! training campaign through [`multipod_sched`]'s long-lived service
//! reservations:
//!
//! * **DLRM query serving** ([`dlrm`]) — a deterministic open-loop
//!   query stream ([`stream`]) feeds a bounded-window batcher
//!   ([`batch`]); each batch runs sharded embedding lookups as a
//!   small-batch all-to-all over the simulated interconnect, with a
//!   per-host LRU embedding cache short-circuiting hot rows, then a
//!   dense MLP forward. Per-request latency decomposes exactly into
//!   batch-wait / queue / lookup / all-to-all / dense phases.
//! * **RL actor–learner** ([`rl`]) — Podracer-style co-location:
//!   inference actors issue latency-bound observation pushes against a
//!   learner running throughput-bound training steps on the head of the
//!   same slice, with periodic parameter broadcasts contending on the
//!   shared links.
//!
//! [`campaign`] ties both to the scheduler: the training stream packs
//! around the reservations, and the slices the scheduler actually
//! granted parameterize the serving runs. Everything is seeded and
//! event-ordered, so a full co-scheduled scenario replays byte-for-byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod campaign;
pub mod dlrm;
mod error;
pub mod rl;
pub mod stream;

pub use batch::{assemble, Batch, BatchingConfig};
pub use campaign::{ServeCampaign, ServeCampaignConfig, ServeCampaignReport};
pub use dlrm::{DlrmServeConfig, DlrmServeReport, DlrmServer, PhaseMeans};
pub(crate) use error::check;
pub use error::ServeError;
pub use rl::{RlServeConfig, RlServeReport, RlServer};
pub use stream::{query_stream, QueryLog, QueryStreamConfig, Request};
