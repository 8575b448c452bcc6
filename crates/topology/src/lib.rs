//! TPU-v3 multipod topology.
//!
//! The paper's machine is a 4096-chip "multipod": four 1024-chip TPU-v3 pods
//! placed side by side along the X dimension, forming a 128×32 2-D mesh with
//! torus wrap links on the Y edges and *cross-pod optical links* stitching
//! neighbouring pods together (Figures 1–2). Because the TPU-v3 chip has only
//! 1024 routing-table entries, a **sparse routing scheme** is used in which
//! each chip only sees neighbours along its own row and column (§1).
//!
//! This crate models that machine explicitly: chips with coordinates, typed
//! links, pods, hosts, ring enumerations used by the collective schedules,
//! model-parallel tiles, and the sparse routing tables with their entry-count
//! constraint.
//!
//! ```
//! use multipod_topology::{Multipod, MultipodConfig};
//!
//! // The paper's benchmarking machine: 4 pods, 128x32 mesh, 4096 chips.
//! let pod = Multipod::new(MultipodConfig::multipod(4));
//! assert_eq!(pod.num_chips(), 4096);
//! assert_eq!(pod.x_len(), 128);
//! assert_eq!(pod.y_len(), 32);
//! ```

mod chip;
mod link;
mod mesh;
mod rings;
mod routing;

pub use chip::{ChipId, Coord, CoreId, HostId, CHIPS_PER_HOST, CORES_PER_CHIP};
pub use link::{Link, LinkClass};
pub use mesh::{Multipod, MultipodConfig, TopologyError};
pub use rings::{ModelTile, Ring};
pub use routing::{Route, RoutingTable, ROUTING_TABLE_CAPACITY};
