//! Error type for tensor operations.

use std::error::Error;
use std::fmt;

use crate::Shape;

/// Error returned by fallible tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// Two operands had incompatible shapes for the attempted operation.
    ShapeMismatch {
        /// Name of the operation that failed.
        op: &'static str,
        /// Shape of the left-hand operand.
        lhs: Shape,
        /// Shape of the right-hand operand.
        rhs: Shape,
    },
    /// An axis argument was out of range for the tensor's rank.
    AxisOutOfRange {
        /// The offending axis.
        axis: usize,
        /// The tensor's rank.
        rank: usize,
    },
    /// A dimension was not divisible by the requested number of parts.
    NotDivisible {
        /// The dimension size.
        dim: usize,
        /// The requested number of parts.
        parts: usize,
    },
    /// A tensor's data did not hold exactly as many elements as its shape.
    LengthMismatch {
        /// The shape the data was meant to fill.
        shape: Shape,
        /// How many elements the data held.
        len: usize,
    },
    /// An operation that needs at least one tensor received none.
    EmptyInput {
        /// Name of the operation that failed.
        op: &'static str,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: {lhs} vs {rhs}")
            }
            TensorError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            TensorError::NotDivisible { dim, parts } => {
                write!(f, "dimension {dim} not divisible into {parts} parts")
            }
            TensorError::LengthMismatch { shape, len } => {
                write!(f, "data length {len} does not match shape {shape}")
            }
            TensorError::EmptyInput { op } => {
                write!(f, "{op} requires at least one input tensor")
            }
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: Shape::of(&[2, 3]),
            rhs: Shape::of(&[4, 5]),
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<TensorError>();
    }
}
