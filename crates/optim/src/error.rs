//! Typed optimizer errors.

use std::error::Error;
use std::fmt;

use multipod_collectives::CollectiveError;
use multipod_tensor::TensorError;

/// An optimizer update failed.
///
/// The update math is pure tensor arithmetic, so today every failure is a
/// tensor-level one — almost always a shape mismatch between the weights,
/// the gradient, and persisted momentum state (e.g. restoring a checkpoint
/// sharded for a different replica count). The enum leaves room for
/// optimizer-specific failures without breaking callers.
#[derive(Clone, Debug, PartialEq)]
pub enum OptimError {
    /// A tensor operation inside the update math failed.
    Tensor(TensorError),
}

impl fmt::Display for OptimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimError::Tensor(e) => write!(f, "optimizer update failed: {e}"),
        }
    }
}

impl Error for OptimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OptimError::Tensor(e) => Some(e),
        }
    }
}

impl From<TensorError> for OptimError {
    fn from(e: TensorError) -> OptimError {
        OptimError::Tensor(e)
    }
}

/// The data-parallel trainer surfaces optimizer failures through the
/// collectives' error type.
impl From<OptimError> for CollectiveError {
    fn from(e: OptimError) -> CollectiveError {
        match e {
            OptimError::Tensor(t) => CollectiveError::Tensor(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_tensor::Shape;

    #[test]
    fn display_mentions_the_tensor_failure() {
        let e = OptimError::Tensor(TensorError::ShapeMismatch {
            op: "axpy",
            lhs: Shape::vector(4),
            rhs: Shape::vector(8),
        });
        let msg = e.to_string();
        assert!(msg.contains("optimizer update failed"), "{msg}");
        assert!(msg.contains("axpy"), "{msg}");
    }

    #[test]
    fn converts_into_collective_error() {
        let e = OptimError::Tensor(TensorError::EmptyInput { op: "sum_all" });
        match CollectiveError::from(e) {
            CollectiveError::Tensor(TensorError::EmptyInput { op }) => assert_eq!(op, "sum_all"),
            other => panic!("unexpected conversion: {other:?}"),
        }
    }
}
