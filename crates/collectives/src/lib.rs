//! Collective communication on the multipod.
//!
//! Implements the paper's gradient-summation machinery (§3.3, Figure 4):
//!
//! * **Ring collectives** ([`ring`]) — unidirectional and bidirectional
//!   ring reduce-scatter, all-gather, all-reduce and broadcast, executed
//!   *numerically* over real [`multipod_tensor::Tensor`] buffers with
//!   per-step timing from the simulated network. These are the ground-truth
//!   implementations the tests verify against scalar references.
//! * **The 2-D schedule** ([`twod`]) — the paper's optimized global
//!   summation: reduce-scatter along the torus Y rings, then along the X
//!   lines (payload 1/32nd), then broadcast X and Y — as two halves, so
//!   the shard owners can update their weights between them. Supports the
//!   model-parallel variant whose X rings hop over model-parallelism
//!   neighbours.
//! * **Halo exchange** ([`halo`]) — boundary exchange for spatially
//!   partitioned convolutions (§3.1).
//! * **All-to-all** ([`alltoall`]) — the bisection-bound exchange behind
//!   DLRM's partitioned embedding lookups (§4.6).
//! * **Pipelined execution** ([`pipelined`]) — non-barrier timing of the
//!   same schedules, where chunks are forwarded the moment they arrive
//!   (how hardware collectives actually run).
//! * **α–β timing** ([`timing`]) — closed-form, topology-aware cost models
//!   for the same schedules, used at 4096-chip scale where materializing
//!   per-chip tensors is pointless. Parameters come from the same
//!   [`multipod_simnet::NetworkConfig`] the numeric layer uses.
//!
//! ```
//! use multipod_tensor::{Shape, Tensor};
//! use multipod_topology::{Multipod, MultipodConfig};
//! use multipod_simnet::{Network, NetworkConfig, SimTime};
//! use multipod_collectives::{ring, Precision};
//!
//! let mesh = Multipod::new(MultipodConfig::mesh(1, 4, true));
//! let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
//! let ring_y = net.mesh().y_ring(0);
//! let inputs: Vec<Tensor> =
//!     (0..4).map(|i| Tensor::fill(Shape::of(&[8]), i as f32)).collect();
//! let out =
//!     ring::all_reduce(&mut net, &ring_y, &inputs, Precision::F32, SimTime::ZERO).unwrap();
//! // Every participant ends with the elementwise sum 0+1+2+3 = 6.
//! assert!(out.outputs.iter().all(|t| t.data().iter().all(|&v| v == 6.0)));
//! ```

pub mod alltoall;
pub mod degraded;
pub mod halo;
pub mod pipelined;
pub mod ring;
pub mod timing;
pub mod twod;

mod error;
mod precision;
mod schedule;

pub use degraded::Degradation;
pub use error::CollectiveError;
pub use precision::Precision;
pub use schedule::{ChunkMove, Schedule};

/// Track for spans attributed to `chip`, grouped under the chip's pod in
/// the exported trace.
pub(crate) fn chip_track(
    net: &multipod_simnet::Network,
    chip: multipod_topology::ChipId,
) -> multipod_trace::Track {
    multipod_trace::Track::Chip {
        pod: net.mesh().pod_of(chip),
        chip: chip.0,
    }
}

/// Emits a collective span on the ring's first member, skipping trivial
/// (sub-2-member) rings that do no communication.
pub(crate) fn emit_ring_span(
    net: &multipod_simnet::Network,
    ring: &multipod_topology::Ring,
    category: multipod_trace::SpanCategory,
    name: &str,
    start: multipod_simnet::SimTime,
    end: multipod_simnet::SimTime,
    bytes: u64,
) {
    if ring.len() < 2 {
        return;
    }
    net.obs().span(|| {
        multipod_trace::SpanEvent::new(
            chip_track(net, ring.members()[0]),
            category,
            name,
            start,
            end,
        )
        .with_bytes(bytes)
        .with_arg("members", ring.len() as f64)
    });
}
