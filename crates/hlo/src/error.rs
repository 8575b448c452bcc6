//! Errors for graph construction and partitioning.

use std::error::Error;
use std::fmt;

use multipod_tensor::{Shape, TensorError};

use crate::graph::NodeId;
use crate::sharding::Sharding;

/// Error raised by HLO graph construction, partitioning or execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HloError {
    /// Operand shapes are incompatible for the op.
    ShapeMismatch {
        /// The op being built.
        op: &'static str,
        /// The offending shapes.
        shapes: Vec<Shape>,
    },
    /// A sharding cannot be applied to a shape (axis out of range or
    /// extent not divisible by the part count).
    BadSharding {
        /// The sharding.
        sharding: Sharding,
        /// The shape it was applied to.
        shape: Shape,
    },
    /// A node id referenced a node that does not exist.
    UnknownNode(NodeId),
    /// A required parameter feed was missing at execution time.
    MissingFeed(String),
    /// A feed's shape disagreed with its parameter declaration.
    FeedShape {
        /// Parameter name.
        name: String,
        /// Declared shape.
        expected: Shape,
        /// Supplied shape.
        got: Shape,
    },
    /// A partitioner was asked to split a graph over zero cores.
    InvalidPartCount,
    /// The partitioner hit an op/sharding combination it cannot rewrite.
    Unpartitionable {
        /// The node that failed.
        node: NodeId,
        /// Human-readable reason.
        reason: String,
    },
    /// A collective failed during partitioned execution.
    Collective(String),
    /// A tensor kernel rejected its operands (a feed that does not tile,
    /// per-core outputs that do not concatenate).
    Tensor(TensorError),
    /// A gather / scatter-add index named a row the table does not have.
    IndexOutOfRange {
        /// The op that read the index.
        op: &'static str,
        /// The (rounded) index.
        index: usize,
        /// Rows of the table.
        rows: usize,
    },
    /// A program was executed on a tile of the wrong width.
    TileWidth {
        /// Cores the program was partitioned for.
        parts: usize,
        /// Chips in the tile it was given.
        tile: usize,
    },
    /// An output index past the program's outputs.
    UnknownOutput {
        /// The requested output.
        index: usize,
        /// How many outputs the program has.
        outputs: usize,
    },
}

impl fmt::Display for HloError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HloError::ShapeMismatch { op, shapes } => {
                write!(f, "shape mismatch in {op}: {shapes:?}")
            }
            HloError::BadSharding { sharding, shape } => {
                write!(f, "sharding {sharding:?} invalid for shape {shape}")
            }
            HloError::UnknownNode(id) => write!(f, "unknown node {id:?}"),
            HloError::MissingFeed(name) => write!(f, "missing feed for parameter '{name}'"),
            HloError::FeedShape {
                name,
                expected,
                got,
            } => write!(f, "feed '{name}' has shape {got}, expected {expected}"),
            HloError::InvalidPartCount => {
                write!(f, "partition count must be positive")
            }
            HloError::Unpartitionable { node, reason } => {
                write!(f, "cannot partition node {node:?}: {reason}")
            }
            HloError::Collective(msg) => write!(f, "collective failed: {msg}"),
            HloError::Tensor(e) => write!(f, "tensor kernel failed: {e}"),
            HloError::IndexOutOfRange { op, index, rows } => {
                write!(f, "{op} index {index} out of range ({rows} rows)")
            }
            HloError::TileWidth { parts, tile } => {
                write!(f, "a {parts}-core program cannot run on a {tile}-chip tile")
            }
            HloError::UnknownOutput { index, outputs } => {
                write!(f, "output {index} of a program with {outputs} outputs")
            }
        }
    }
}

impl Error for HloError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HloError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for HloError {
    fn from(e: TensorError) -> Self {
        HloError::Tensor(e)
    }
}

impl From<multipod_collectives::CollectiveError> for HloError {
    fn from(e: multipod_collectives::CollectiveError) -> Self {
        HloError::Collective(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = HloError::MissingFeed("x".into());
        assert!(e.to_string().contains("'x'"));
        let e = HloError::BadSharding {
            sharding: Sharding::split(0, 3),
            shape: Shape::of(&[4]),
        };
        assert!(e.to_string().contains("invalid"));
    }
}
