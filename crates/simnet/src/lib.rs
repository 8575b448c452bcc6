//! Discrete-event simulation of the multipod interconnect.
//!
//! The paper's performance analysis (§5) hinges on how long transfers take
//! on the ICI network: ring reduce-scatters along the torus Y dimension,
//! open-chain reductions along the 128-chip X dimension, and peer-hopping
//! rings that traverse intermediate chips. This crate provides:
//!
//! * [`SimTime`] — simulated seconds.
//! * [`EventQueue`] — a deterministic discrete-event queue (also under
//!   the task-graph list scheduler, the pod scheduler and the RL server).
//! * [`Network`] — a cut-through, per-directed-link occupancy model over a
//!   [`multipod_topology::Multipod`], used to time every message the
//!   collective schedules issue. It also owns the run's observability
//!   handle ([`Network::obs`], a `multipod_telemetry::Obs`, off by
//!   default): whatever instruments through a network reads it there.
//!
//! ```
//! use multipod_topology::{Multipod, MultipodConfig, ChipId};
//! use multipod_simnet::{Network, NetworkConfig, SimTime};
//!
//! let mesh = Multipod::new(MultipodConfig::mesh(4, 4, true));
//! let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
//! let t = net
//!     .transfer(ChipId(0), ChipId(1), 1 << 20, SimTime::ZERO)
//!     .unwrap();
//! assert!(t.finish > SimTime::ZERO);
//! ```

mod engine;
mod error;
mod network;

pub use engine::{EventQueue, QueueStats};
pub use error::NetworkError;
pub use network::{Network, NetworkConfig, Transfer};
// `SimTime` moved down into `multipod-trace` (so trace events can be
// stamped below this crate); re-exported here for compatibility.
pub use multipod_trace::SimTime;
