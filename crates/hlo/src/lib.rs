//! An XLA-like graph IR with an SPMD partitioner.
//!
//! The paper's model parallelism (§3.1) is implemented by XLA's SPMD
//! partitioner (Lepikhin et al. 2020): users annotate tensors with
//! shardings, and the compiler rewrites the program into a single
//! per-core program with collectives inserted where data crosses shard
//! boundaries — halo exchanges for spatially partitioned convolutions,
//! all-reduces for contracted dimensions, reshard sequences elsewhere.
//!
//! This crate rebuilds that pipeline end to end:
//!
//! * [`OpKind`] — the op vocabulary: what each of the 14 ops computes,
//!   with its shape rule, FLOP formula, numeric kernel and printed name
//!   defined once and shared by the graph and the partitioned program.
//! * [`HloGraph`] / [`HloBuilder`] — a small dataflow IR whose nodes are
//!   leaves or an [`OpKind`] applied to earlier nodes ([`Op`]), with
//!   eager shape inference, FLOP accounting and a reference interpreter.
//! * [`Sharding`] — replicated or 1-D tiled placements.
//! * [`SpmdPartitioner`] — rewrites an annotated graph into a single
//!   [`PartitionedProgram`] whose collectives run on the simulated
//!   multipod; compile cost is independent of the partition count. Its
//!   compute instructions ([`ComputeOp`]) are the same kinds applied to
//!   per-core values, plus the few locals only a partitioner emits
//!   (tiled feeds, free slices, halo convolutions, onehot gathers).
//! * [`MpmdPartitioner`] — the MLPerf v0.6 baseline that compiles one
//!   program *per core* (compile cost ∝ cores) and cannot express
//!   weight-update sharding (§4.4).
//!
//! [`gradients`] appends a reverse-mode backward pass to any graph, so
//! training flows through the same partitioner — feature-sharded matmul
//! gradients become partial matmuls + all-reduces, exactly the §3.1
//! backward-pass structure.
//!
//! The partitioned program is executed numerically and its outputs are
//! verified against the reference interpreter in this crate's tests.
//! Construction, partitioning, execution and output assembly fail with a
//! typed [`HloError`]; only the by-id accessors (`HloGraph::shape`,
//! `PartitionedProgram::value_shape`, …) index, and say so.
//!
//! ```
//! use multipod_hlo::{HloBuilder, Sharding, SpmdPartitioner};
//! use multipod_tensor::Shape;
//!
//! let mut b = HloBuilder::new();
//! // Feature-sharded matmul: weights split over 4 cores (§3.1).
//! let x = b.parameter("x", Shape::of(&[8, 16]), Sharding::Replicated);
//! let w = b.parameter("w", Shape::of(&[16, 32]), Sharding::split(1, 4));
//! let y = b.matmul(x, w).unwrap();
//! let graph = b.build(vec![y]).unwrap();
//! let program = SpmdPartitioner::new(4).partition(&graph).unwrap();
//! // The per-core weight shard is [16 x 8].
//! assert_eq!(program.value_shape(y).dims(), &[8, 8]);
//! ```

mod display;
mod error;
mod grad;
mod graph;
mod mpmd;
mod op;
mod program;
mod sharding;
mod spmd;

pub use error::HloError;
pub use grad::{gradients, GradientGraph};
pub use graph::{HloBuilder, HloGraph, NodeId, Op};
pub use mpmd::MpmdPartitioner;
pub use op::OpKind;
pub use program::{CommStats, ComputeOp, Instr, PartitionedProgram, ValueId};
pub use sharding::Sharding;
pub use spmd::{CommunicationOpt, GatherStrategy, SpmdPartitioner};
