//! Partitioned embedding tables (DLRM, §4.6).
//!
//! DLRM's embedding tables do not fit on one chip ("Partition large
//! embedding tables: This is actually necessary to run the model"), so the
//! paper's submission:
//!
//! * **replicates small tables and partitions large ones** across chips;
//! * masks the redundant self-interaction features with zeros instead of
//!   gathering ("Optimize gather overheads");
//! * **evaluates multiple steps on device** to amortize PCIe/host
//!   round-trips.
//!
//! This crate implements all three for real: [`Placement`] decides where
//! each table lives, [`ShardedEmbedding`] executes distributed lookups
//! over the simulated mesh (row-partitioned tables answer remote lookups
//! via an all-to-all timed on the network; no table is materialised,
//! [`ShardedEmbedding::price`] skips the gather, and
//! [`ShardedEmbedding::replay_caches`] settles a whole serving stream's
//! per-host cache outcomes ahead of pricing it), and
//! [`masked_self_interaction`] computes the masked feature self-interaction.
//!
//! ```
//! use multipod_embedding::{EmbeddingSpec, Placement};
//!
//! let specs = vec![
//!     EmbeddingSpec { rows: 100, dim: 8 },          // small → replicated
//!     EmbeddingSpec { rows: 10_000_000, dim: 8 },   // large → partitioned
//! ];
//! let placement = Placement::plan(&specs, 4, 1 << 20);
//! assert!(placement.is_replicated(0));
//! assert!(!placement.is_replicated(1));
//! ```

mod cache;
mod error;
mod interaction;
mod placement;
mod sharded;

pub use cache::{CacheReplay, EmbeddingCache, LruCache};
pub use error::EmbeddingError;
pub use interaction::{masked_self_interaction, InteractionOutput};
pub use placement::{EmbeddingSpec, Placement, TablePlacement};
pub use sharded::{EvalAccumulator, LookupCost, LookupOutcome, RowId, ShardedEmbedding};
