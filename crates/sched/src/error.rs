//! Typed scheduler errors.

use std::error::Error;
use std::fmt;

use multipod_ckpt::CkptError;
use multipod_core::StepError;
use multipod_optim::OptimError;
use multipod_topology::ChipId;

/// A scheduling campaign failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum SchedError {
    /// A job asked for more chips than the mesh has, or a chip count no
    /// rectangular power-of-two slice can cover.
    UnplaceableJob {
        /// The offending job id.
        job: u64,
        /// Chips the job requested.
        chips: u32,
    },
    /// The checkpoint layer failed during a preemption save or an elastic
    /// restore.
    Ckpt(CkptError),
    /// An elastic restore returned state that was not bit-identical to
    /// what the preemption save captured.
    RestoreMismatch {
        /// The job whose state diverged.
        job: u64,
    },
    /// The step-time model rejected a job's slice shape.
    Step(StepError),
    /// A job's optimizer update failed (shape drift in model state).
    Optim(OptimError),
    /// A long-lived service reservation could not be placed on the mesh
    /// (at campaign start, or after a fault when no migration target
    /// exists even with every job preempted).
    ServiceUnplaceable {
        /// The service's name.
        service: String,
        /// Chips the service reserves.
        chips: u32,
    },
    /// The fault plan kills a chip the mesh does not have.
    FaultOffMesh {
        /// The chip the plan names.
        chip: ChipId,
        /// Chips on the mesh (valid ids are `0..chips`).
        chips: u32,
    },
    /// A campaign parameter was out of range.
    InvalidConfig {
        /// The offending field.
        field: &'static str,
        /// The rejected value.
        value: f64,
    },
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::UnplaceableJob { job, chips } => {
                write!(
                    f,
                    "job {job} requests {chips} chips: no slice shape fits the mesh"
                )
            }
            SchedError::Ckpt(e) => write!(f, "preemption checkpoint failed: {e}"),
            SchedError::RestoreMismatch { job } => {
                write!(
                    f,
                    "restored state for job {job} is not bit-identical to the save"
                )
            }
            SchedError::Step(e) => write!(f, "step-time model rejected a job: {e}"),
            SchedError::Optim(e) => write!(f, "job model update failed: {e}"),
            SchedError::ServiceUnplaceable { service, chips } => {
                write!(
                    f,
                    "service '{service}' reserves {chips} chips: no slice fits the mesh"
                )
            }
            SchedError::FaultOffMesh { chip, chips } => {
                write!(f, "fault plan kills {chip:?}: the mesh has {chips} chips")
            }
            SchedError::InvalidConfig { field, value } => {
                write!(f, "config field '{field}' is out of range: {value}")
            }
        }
    }
}

impl Error for SchedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SchedError::Ckpt(e) => Some(e),
            SchedError::Step(e) => Some(e),
            SchedError::Optim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CkptError> for SchedError {
    fn from(e: CkptError) -> SchedError {
        SchedError::Ckpt(e)
    }
}

impl From<StepError> for SchedError {
    fn from(e: StepError) -> SchedError {
        SchedError::Step(e)
    }
}

impl From<OptimError> for SchedError {
    fn from(e: OptimError) -> SchedError {
        SchedError::Optim(e)
    }
}
