//! Task identities, kinds, and the resources they occupy.

use std::fmt;

use serde::{Deserialize, Serialize};

use multipod_simnet::SimTime;

/// Identifies a task within a [`crate::TaskGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub usize);

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The mesh axis a collective phase runs along.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Axis {
    /// Torus Y rings (phase 1/4b of the 2-D summation).
    Y,
    /// Mesh X lines (phase 2/4a).
    X,
}

impl Axis {
    fn label(self) -> &'static str {
        match self {
            Axis::Y => "y",
            Axis::X => "x",
        }
    }
}

/// What a task does — the typed vocabulary of one training step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    /// The forward pass (plus loss).
    Forward,
    /// One backprop segment; segment `layer` produces gradient bucket
    /// `layer` (reverse layer order: bucket 0 holds the topmost layers'
    /// gradients and is ready first).
    LayerBackprop {
        /// Backprop segment index.
        layer: u32,
    },
    /// Model-parallel collectives inside the tile (they block the cores,
    /// so they occupy the compute resource).
    ModelParallelComm,
    /// Reduce-scatter of one gradient bucket along `axis`.
    ReduceScatter {
        /// Gradient bucket index.
        bucket: u32,
        /// Mesh axis.
        axis: Axis,
    },
    /// All-gather of one updated-weight bucket along `axis`.
    AllGather {
        /// Gradient bucket index.
        bucket: u32,
        /// Mesh axis.
        axis: Axis,
    },
    /// The shard owner's optimizer update for one bucket (§3.2).
    OptimizerShardUpdate {
        /// Gradient bucket index.
        bucket: u32,
    },
    /// DLRM's embedding lookups + all-to-all.
    Embedding,
    /// Host input pipeline producing the next batch.
    InputFetch,
    /// Streaming one checkpoint shard over PCIe.
    CheckpointSave {
        /// Checkpoint shard index.
        shard: u32,
    },
    /// An aggregate serial phase (the overlap-disabled step model uses
    /// one `Serial` task per analytic component).
    Serial {
        /// Which analytic component this stands for.
        phase: SerialPhase,
    },
    /// Serving: host-side embedding-cache probe + local HBM gathers for
    /// one request batch.
    ServeLookup {
        /// Request-batch index within the serving campaign.
        batch: u32,
    },
    /// Serving: the small-batch all-to-all exchanging remote embedding
    /// rows for one request batch.
    ServeAllToAll {
        /// Request-batch index within the serving campaign.
        batch: u32,
    },
    /// Serving: the dense MLP forward pass over one request batch.
    ServeDense {
        /// Request-batch index within the serving campaign.
        batch: u32,
    },
}

/// The analytic step components, for overlap-disabled aggregate tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SerialPhase {
    /// MXU compute (forward + backward).
    Compute,
    /// Model-parallel collectives.
    ModelParallelComm,
    /// The whole 2-D gradient summation.
    GradientComm,
    /// Optimizer arithmetic.
    WeightUpdate,
    /// Embedding path.
    Embedding,
    /// Host input stall.
    InputStall,
}

impl SerialPhase {
    /// Stable label used in trace spans.
    pub fn label(self) -> &'static str {
        match self {
            SerialPhase::Compute => "compute",
            SerialPhase::ModelParallelComm => "model-parallel-comm",
            SerialPhase::GradientComm => "gradient-comm",
            SerialPhase::WeightUpdate => "weight-update",
            SerialPhase::Embedding => "embedding",
            SerialPhase::InputStall => "input-stall",
        }
    }
}

impl TaskKind {
    /// Shorthand for a Y-axis bucket reduce-scatter.
    pub fn reduce_scatter_y(bucket: u32) -> TaskKind {
        TaskKind::ReduceScatter {
            bucket,
            axis: Axis::Y,
        }
    }

    /// Shorthand for an X-axis bucket reduce-scatter.
    pub fn reduce_scatter_x(bucket: u32) -> TaskKind {
        TaskKind::ReduceScatter {
            bucket,
            axis: Axis::X,
        }
    }

    /// Shorthand for an X-axis bucket all-gather.
    pub fn all_gather_x(bucket: u32) -> TaskKind {
        TaskKind::AllGather {
            bucket,
            axis: Axis::X,
        }
    }

    /// Shorthand for a Y-axis bucket all-gather.
    pub fn all_gather_y(bucket: u32) -> TaskKind {
        TaskKind::AllGather {
            bucket,
            axis: Axis::Y,
        }
    }

    /// A human-readable span label.
    pub fn label(&self) -> String {
        match self {
            TaskKind::Forward => "forward".to_string(),
            TaskKind::LayerBackprop { layer } => format!("backprop-{layer}"),
            TaskKind::ModelParallelComm => "model-parallel-comm".to_string(),
            TaskKind::ReduceScatter { bucket, axis } => {
                format!("{}-reduce-scatter-b{bucket}", axis.label())
            }
            TaskKind::AllGather { bucket, axis } => {
                format!("{}-all-gather-b{bucket}", axis.label())
            }
            TaskKind::OptimizerShardUpdate { bucket } => format!("weight-update-b{bucket}"),
            TaskKind::Embedding => "embedding".to_string(),
            TaskKind::InputFetch => "input-fetch".to_string(),
            TaskKind::CheckpointSave { shard } => format!("ckpt-save-s{shard}"),
            TaskKind::Serial { phase } => phase.label().to_string(),
            TaskKind::ServeLookup { batch } => format!("serve-lookup-b{batch}"),
            TaskKind::ServeAllToAll { batch } => format!("serve-all-to-all-b{batch}"),
            TaskKind::ServeDense { batch } => format!("serve-dense-b{batch}"),
        }
    }
}

/// The serialized unit a task occupies while it runs. Each resource
/// executes one task at a time; tasks on different resources overlap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Resource {
    /// The matrix units (compute, optimizer arithmetic, embedding HBM).
    Mxu,
    /// The ICI interconnect (gradient summation phases). One resource —
    /// collective phases serialize against each other, exactly as the
    /// analytic `TwoDimBreakdown::total()` charges them, and overlap only
    /// with non-ICI work.
    Ici,
    /// The host input pipeline.
    Host,
    /// The PCIe link to host storage (checkpoint streaming).
    Pcie,
}

impl Resource {
    /// Every resource, in deterministic dispatch order.
    pub const ALL: [Resource; 4] = [Resource::Mxu, Resource::Ici, Resource::Host, Resource::Pcie];

    /// Stable lowercase label used in metrics.
    pub fn label(self) -> &'static str {
        match self {
            Resource::Mxu => "mxu",
            Resource::Ici => "ici",
            Resource::Host => "host",
            Resource::Pcie => "pcie",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Resource::Mxu => 0,
            Resource::Ici => 1,
            Resource::Host => 2,
            Resource::Pcie => 3,
        }
    }
}

/// One node of a [`crate::TaskGraph`].
#[derive(Clone, Debug, PartialEq)]
pub struct Task {
    /// What the task does.
    pub kind: TaskKind,
    /// Where it runs.
    pub resource: Resource,
    /// How long it takes, seconds (finite, non-negative).
    pub seconds: f64,
    /// Earliest sim-time the task may start, regardless of dependencies.
    /// `SimTime::ZERO` (the [`crate::TaskGraph::add`] default) means
    /// "as soon as dependencies allow"; open-loop serving workloads use
    /// non-zero releases to model request arrival times.
    pub release: SimTime,
    /// This task's slice of the graph's dependency arena; read it
    /// through [`crate::TaskGraph::deps`].
    pub(crate) deps: std::ops::Range<usize>,
}
