//! Typed serving errors.

use std::error::Error;
use std::fmt;

use multipod_core::StepError;
use multipod_embedding::EmbeddingError;
use multipod_models::ModelError;
use multipod_sched::SchedError;
use multipod_simnet::NetworkError;
use multipod_taskgraph::TaskGraphError;

/// A serving simulation failed.
#[derive(Debug)]
pub enum ServeError {
    /// A stream/batching/slice parameter was out of range.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A single request carries more samples than one batch may hold —
    /// it could never be dispatched.
    RequestExceedsBatchCap {
        /// The offending request id.
        request: u64,
        /// Samples the request carries.
        samples: usize,
        /// The batch cap.
        cap: usize,
    },
    /// The embedding layer rejected a lookup.
    Embedding(EmbeddingError),
    /// The machine model rejected a compute-time query.
    Model(ModelError),
    /// The step-time model rejected the learner's slice.
    Step(StepError),
    /// The serving task graph could not be built.
    TaskGraph(TaskGraphError),
    /// A transfer could not be routed.
    Network(NetworkError),
    /// The co-scheduled training campaign failed.
    Sched(SchedError),
}

/// `Ok` when `ok` holds, else [`ServeError::InvalidConfig`] naming
/// `field` and the rejected `value`.
pub(crate) fn check(ok: bool, field: &'static str, value: f64) -> Result<(), ServeError> {
    ok.then_some(())
        .ok_or(ServeError::InvalidConfig { field, value })
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidConfig { field, value } => {
                write!(f, "serving config field '{field}' is out of range: {value}")
            }
            ServeError::RequestExceedsBatchCap {
                request,
                samples,
                cap,
            } => write!(
                f,
                "request {request} carries {samples} samples, above the batch cap {cap}"
            ),
            ServeError::Embedding(e) => write!(f, "embedding lookup failed: {e}"),
            ServeError::Model(e) => write!(f, "machine model rejected the config: {e}"),
            ServeError::Step(e) => write!(f, "learner step model rejected the slice: {e}"),
            ServeError::TaskGraph(e) => write!(f, "serving task graph is invalid: {e}"),
            ServeError::Network(e) => write!(f, "serving transfer failed: {e}"),
            ServeError::Sched(e) => write!(f, "co-scheduled campaign failed: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Embedding(e) => Some(e),
            ServeError::Model(e) => Some(e),
            ServeError::Step(e) => Some(e),
            ServeError::TaskGraph(e) => Some(e),
            ServeError::Network(e) => Some(e),
            ServeError::Sched(e) => Some(e),
            _ => None,
        }
    }
}

/// `From` for each wrapped layer error, so `?` lifts it.
macro_rules! wrap {
    ($($variant:ident($source:ty)),*) => {$(
        impl From<$source> for ServeError {
            fn from(e: $source) -> ServeError {
                ServeError::$variant(e)
            }
        }
    )*};
}

wrap!(
    Embedding(EmbeddingError),
    Model(ModelError),
    Step(StepError),
    TaskGraph(TaskGraphError),
    Network(NetworkError),
    Sched(SchedError)
);
