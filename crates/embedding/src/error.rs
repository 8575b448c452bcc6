//! Typed errors for the distributed embedding path.

use std::fmt;

use multipod_simnet::NetworkError;
use multipod_topology::TopologyError;

/// Why an embedding operation was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum EmbeddingError {
    /// A placement with no tables has no embedding dimension.
    NoTables,
    /// The placement was planned for a mesh of another size.
    ChipCountMismatch {
        /// Chips the placement was planned for.
        placement: usize,
        /// Chips in the network's mesh.
        mesh: usize,
    },
    /// DLRM tables must share one embedding dimension.
    DimMismatch {
        /// Offending table index.
        table: usize,
        /// That table's dimension.
        dim: usize,
        /// The dimension of table 0 (the layout's reference).
        expected: usize,
    },
    /// A table index beyond the placement was used.
    TableOutOfRange {
        /// The bad table index.
        table: usize,
        /// Tables in the placement.
        tables: usize,
    },
    /// A row index beyond its table was used.
    RowOutOfRange {
        /// Table the row was requested from.
        table: usize,
        /// The bad row index.
        row: usize,
        /// Rows in that table.
        rows: usize,
    },
    /// A lookup sample must carry exactly one index per table.
    ArityMismatch {
        /// Offending sample index.
        sample: usize,
        /// Indices that sample carried.
        got: usize,
        /// Tables in the placement.
        tables: usize,
    },
    /// A batch's range of samples reaches past the stream's end.
    BatchOutOfRange {
        /// Offending batch index.
        batch: usize,
        /// Where its range ends.
        end: usize,
        /// Samples in the stream.
        samples: usize,
    },
    /// An evaluation step needs one label per prediction.
    LengthMismatch {
        /// Predictions supplied.
        predictions: usize,
        /// Labels supplied.
        labels: usize,
    },
    /// A scatter-update gradient does not match the lookup layout.
    GradShapeMismatch {
        /// Gradient dims supplied.
        got: Vec<usize>,
        /// `[batch, tables · dim]` the layout expects.
        expected: Vec<usize>,
    },
    /// Feature width must be an exact multiple of the embedding dim.
    IndivisibleWidth {
        /// Feature width supplied.
        width: usize,
        /// Embedding dimension.
        dim: usize,
    },
    /// A lookup response message could not be routed.
    Network(NetworkError),
}

impl fmt::Display for EmbeddingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmbeddingError::NoTables => write!(f, "the placement holds no tables"),
            EmbeddingError::ChipCountMismatch { placement, mesh } => {
                write!(f, "planned for {placement} chips, but the mesh has {mesh}")
            }
            EmbeddingError::DimMismatch {
                table,
                dim,
                expected,
            } => write!(
                f,
                "table {table} has dim {dim}, but the layout requires {expected}"
            ),
            EmbeddingError::TableOutOfRange { table, tables } => {
                write!(f, "table {table} out of range for {tables} tables")
            }
            EmbeddingError::RowOutOfRange { table, row, rows } => {
                write!(f, "row {row} out of range for table {table} ({rows} rows)")
            }
            EmbeddingError::ArityMismatch {
                sample,
                got,
                tables,
            } => write!(
                f,
                "sample {sample} carries {got} indices, expected one per table ({tables})"
            ),
            EmbeddingError::BatchOutOfRange {
                batch,
                end,
                samples,
            } => write!(
                f,
                "batch {batch} ends at sample {end}, past the stream's {samples}"
            ),
            EmbeddingError::LengthMismatch {
                predictions,
                labels,
            } => write!(f, "{predictions} predictions but {labels} labels"),
            EmbeddingError::GradShapeMismatch { got, expected } => {
                write!(
                    f,
                    "gradient shape {got:?} does not match lookup layout {expected:?}"
                )
            }
            EmbeddingError::IndivisibleWidth { width, dim } => {
                write!(f, "feature width {width} must be tables * dim (dim {dim})")
            }
            EmbeddingError::Network(e) => write!(f, "lookup routing failed: {e}"),
        }
    }
}

impl std::error::Error for EmbeddingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EmbeddingError::Network(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetworkError> for EmbeddingError {
    fn from(e: NetworkError) -> EmbeddingError {
        EmbeddingError::Network(e)
    }
}

impl From<TopologyError> for EmbeddingError {
    fn from(e: TopologyError) -> EmbeddingError {
        EmbeddingError::Network(NetworkError::Route(e))
    }
}
