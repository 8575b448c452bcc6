//! Typed checkpoint errors.

use std::fmt;

use multipod_collectives::CollectiveError;
use multipod_simnet::NetworkError;
use multipod_tensor::TensorError;
use multipod_topology::TopologyError;

/// Why a checkpoint operation failed.
#[derive(Clone, Debug, PartialEq)]
pub enum CkptError {
    /// No live chip is available to place shards on.
    EmptyPlacement,
    /// The state to checkpoint has no elements.
    EmptyState,
    /// The bundle's weight length disagrees with the placement or
    /// manifest.
    StateSizeMismatch {
        /// Elements the placement/manifest expects.
        expected: usize,
        /// Elements the caller supplied.
        got: usize,
    },
    /// The checkpoint was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the manifest.
        found: u32,
        /// Version this build supports
        /// ([`crate::manifest::CKPT_FORMAT_VERSION`]).
        supported: u32,
    },
    /// A shard's content hash disagrees with the manifest.
    ShardCorrupt {
        /// Shard index.
        shard: usize,
        /// Hash recorded in the manifest.
        expected: u64,
        /// Hash of the shard data actually present.
        got: u64,
    },
    /// Optimizer state could not be gathered into (or scattered out of)
    /// whole-slot tensors.
    OptimStateMismatch {
        /// Slot name (e.g. `"velocity"`, `"m"`).
        slot: String,
        /// Shards the trainer owns.
        expected_shards: usize,
        /// Shards the optimizer exported for this slot.
        got_shards: usize,
    },
    /// A collective used by the restore broadcast failed.
    Collective(CollectiveError),
    /// A routed transfer on the save/restore path failed.
    Network(NetworkError),
    /// A tensor reshape/split/concat on the (de)sharding path failed.
    Tensor(TensorError),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::EmptyPlacement => write!(f, "no live chips to place checkpoint shards on"),
            CkptError::EmptyState => write!(f, "cannot checkpoint an empty state"),
            CkptError::StateSizeMismatch { expected, got } => {
                write!(f, "state has {got} elements, expected {expected}")
            }
            CkptError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "checkpoint format version {found} unsupported (this build reads {supported})"
                )
            }
            CkptError::ShardCorrupt {
                shard,
                expected,
                got,
            } => write!(
                f,
                "shard {shard} corrupt: manifest hash {expected:#018x}, data hash {got:#018x}"
            ),
            CkptError::OptimStateMismatch {
                slot,
                expected_shards,
                got_shards,
            } => write!(
                f,
                "optimizer slot {slot:?} has {got_shards} shards, expected {expected_shards}"
            ),
            CkptError::Collective(e) => write!(f, "restore collective failed: {e}"),
            CkptError::Network(e) => write!(f, "checkpoint transfer failed: {e}"),
            CkptError::Tensor(e) => write!(f, "checkpoint tensor op failed: {e}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Collective(e) => Some(e),
            CkptError::Network(e) => Some(e),
            CkptError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CollectiveError> for CkptError {
    fn from(e: CollectiveError) -> CkptError {
        CkptError::Collective(e)
    }
}

impl From<NetworkError> for CkptError {
    fn from(e: NetworkError) -> CkptError {
        CkptError::Network(e)
    }
}

impl From<TopologyError> for CkptError {
    fn from(e: TopologyError) -> CkptError {
        CkptError::Network(NetworkError::Route(e))
    }
}

impl From<TensorError> for CkptError {
    fn from(e: TensorError) -> CkptError {
        CkptError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::CKPT_FORMAT_VERSION;

    #[test]
    fn displays_are_informative() {
        let msgs = [
            CkptError::EmptyPlacement.to_string(),
            CkptError::UnsupportedVersion {
                found: 9,
                supported: CKPT_FORMAT_VERSION,
            }
            .to_string(),
            CkptError::ShardCorrupt {
                shard: 3,
                expected: 1,
                got: 2,
            }
            .to_string(),
            CkptError::OptimStateMismatch {
                slot: "m".to_string(),
                expected_shards: 4,
                got_shards: 3,
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
