//! Errors for collective operations.

use std::error::Error;
use std::fmt;

use multipod_simnet::NetworkError;
use multipod_tensor::TensorError;
use multipod_topology::TopologyError;

/// Error raised by collective execution.
#[derive(Debug, Clone, PartialEq)]
pub enum CollectiveError {
    /// Number of input buffers did not match ring membership.
    ParticipantMismatch {
        /// Buffers supplied.
        inputs: usize,
        /// Ring members.
        members: usize,
    },
    /// Input buffers disagree in shape.
    ShapeDisagreement,
    /// Payload length is not divisible into per-member chunks.
    IndivisiblePayload {
        /// Elements in the payload.
        elems: usize,
        /// Required divisor.
        parts: usize,
    },
    /// A schedule was requested for a ring of zero members.
    EmptyRing,
    /// A model-parallel stride that is zero or does not divide the mesh X
    /// extent: there is no set of strided X rings covering every chip.
    InvalidModelStride {
        /// Stride supplied.
        stride: u32,
        /// Mesh X extent.
        x_len: u32,
    },
    /// A ring cost model was asked for with a contention factor of zero
    /// (at least one concurrent offset ring must use the links).
    ZeroContentionFactor,
    /// The underlying network could not time a message (routing failure
    /// or an empty transfer).
    Network(NetworkError),
    /// A tensor operation failed.
    Tensor(TensorError),
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::ParticipantMismatch { inputs, members } => {
                write!(f, "{inputs} input buffers for {members} ring members")
            }
            CollectiveError::ShapeDisagreement => {
                write!(f, "input buffers disagree in shape")
            }
            CollectiveError::IndivisiblePayload { elems, parts } => {
                write!(f, "payload of {elems} elements not divisible by {parts}")
            }
            CollectiveError::EmptyRing => write!(f, "ring has no members"),
            CollectiveError::InvalidModelStride { stride, x_len } => {
                write!(f, "model stride {stride} does not divide x extent {x_len}")
            }
            CollectiveError::ZeroContentionFactor => {
                write!(f, "contention factor must be >= 1")
            }
            CollectiveError::Network(e) => write!(f, "network error: {e}"),
            CollectiveError::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl Error for CollectiveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CollectiveError::Network(e) => Some(e),
            CollectiveError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetworkError> for CollectiveError {
    fn from(e: NetworkError) -> Self {
        CollectiveError::Network(e)
    }
}

impl From<TopologyError> for CollectiveError {
    fn from(e: TopologyError) -> Self {
        CollectiveError::Network(NetworkError::Route(e))
    }
}

impl From<TensorError> for CollectiveError {
    fn from(e: TensorError) -> Self {
        CollectiveError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = CollectiveError::ParticipantMismatch {
            inputs: 3,
            members: 4,
        };
        assert!(e.to_string().contains("3"));
        assert!(e.source().is_none());
        let n = CollectiveError::from(TopologyError::NoRoute {
            from: multipod_topology::ChipId(0),
            to: multipod_topology::ChipId(1),
        });
        assert!(n.source().is_some());
    }
}
