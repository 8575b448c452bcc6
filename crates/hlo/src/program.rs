//! The partitioned per-core program and its executor.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use multipod_collectives::{halo, ring, Precision};
use multipod_simnet::{Network, SimTime};
use multipod_tensor::{Shape, Tensor, TensorError};
use multipod_topology::{ChipId, Ring};

use crate::graph::NodeId;
use crate::op::{self, OpKind};
use crate::sharding::Sharding;
use crate::HloError;

/// Identifies a value produced by a [`PartitionedProgram`] instruction.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ValueId(pub usize);

impl fmt::Debug for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Local (per-core) compute operations of the partitioned program: an
/// [`OpKind`] applied to earlier values — the same kind, rule and kernel
/// as in the graph, on per-core shapes — a constant, or one of the four
/// locals only a partitioner emits (`Feed`, `SliceAxis`, `ConvHalo`,
/// `GatherPartial`), which no graph can contain.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ComputeOp {
    /// Reads a parameter feed; execution splits the global tensor
    /// according to the sharding.
    Feed {
        /// Feed name.
        name: String,
        /// How the global tensor is distributed.
        sharding: Sharding,
    },
    /// A replicated constant.
    Constant {
        /// The value.
        value: Tensor,
    },
    /// `kind` applied to `operands`, locally (a matmul may be partial, a
    /// reduction a per-core partial sum; the collective that completes
    /// it is a separate [`Instr`]).
    Apply {
        /// What is computed.
        kind: OpKind,
        /// What it is computed from.
        operands: Vec<ValueId>,
    },
    /// Core `i` takes tile `i` along `axis` of a replicated value
    /// (a communication-free reshard).
    SliceAxis {
        /// Replicated input.
        input: ValueId,
        /// Axis to tile.
        axis: usize,
    },
    /// Convolution on a halo-padded tile: *valid* along `valid_axis`
    /// (the halo already carries the neighbour rows), *same*-padded along
    /// the other axis.
    ConvHalo {
        /// Halo-padded input tile.
        input: ValueId,
        /// Kernel.
        kernel: ValueId,
        /// The spatially partitioned axis.
        valid_axis: usize,
    },
    /// The onehot-matmul rewrite of a gather over a row-partitioned
    /// table (§4.5): each core contributes the rows it owns (zeros
    /// elsewhere), computed as a dense partial matmul on the MXU; an
    /// all-reduce completes the gather.
    GatherPartial {
        /// Row-sharded table (`rows/parts` rows per core).
        input: ValueId,
        /// Replicated rank-1 *global* row indices.
        indices: ValueId,
    },
}

/// One instruction of the partitioned program.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Instr {
    /// Local computation on every core.
    Compute {
        /// Produced value.
        out: ValueId,
        /// The operation.
        op: ComputeOp,
    },
    /// Cross-core elementwise sum (partial results → full results).
    AllReduce {
        /// Produced value.
        out: ValueId,
        /// Summed input.
        input: ValueId,
    },
    /// Gather tiles along `axis` in core-index order (Split → Replicated).
    AllGather {
        /// Produced value.
        out: ValueId,
        /// Sharded input.
        input: ValueId,
        /// Tiled axis.
        axis: usize,
    },
    /// Exchange `halo` boundary slices along `axis` with spatial
    /// neighbours.
    HaloExchange {
        /// Produced (padded) value.
        out: ValueId,
        /// Tiled input.
        input: ValueId,
        /// Spatial axis.
        axis: usize,
        /// Halo width.
        halo: usize,
    },
}

impl Instr {
    /// The produced value id.
    pub fn out(&self) -> ValueId {
        match self {
            Instr::Compute { out, .. }
            | Instr::AllReduce { out, .. }
            | Instr::AllGather { out, .. }
            | Instr::HaloExchange { out, .. } => *out,
        }
    }
}

/// Aggregate communication statistics of a program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommStats {
    /// Number of all-reduce instructions.
    pub all_reduces: usize,
    /// Number of all-gather (reshard) instructions.
    pub all_gathers: usize,
    /// Number of halo exchanges.
    pub halo_exchanges: usize,
    /// Total bytes a single core sends across all collectives
    /// (f32 payloads).
    pub bytes_per_core: u64,
}

impl CommStats {
    /// Total collective instruction count.
    pub fn total_collectives(&self) -> usize {
        self.all_reduces + self.all_gathers + self.halo_exchanges
    }
}

/// A single program executed by every core of a model-parallel tile
/// (the defining property of SPMD partitioning).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PartitionedProgram {
    pub(crate) parts: usize,
    pub(crate) instrs: Vec<Instr>,
    /// Per-core shape of each value.
    pub(crate) shapes: Vec<Shape>,
    /// Sharding of each value with respect to the global tensor it tiles.
    pub(crate) shardings: Vec<Sharding>,
    pub(crate) value_of_node: HashMap<NodeId, ValueId>,
    pub(crate) outputs: Vec<ValueId>,
    /// Abstract compile cost: instruction count × number of compiled
    /// programs (1 for SPMD, `parts` for MPMD).
    pub(crate) compile_cost: u64,
}

impl PartitionedProgram {
    /// Number of cores the program runs on.
    pub fn num_parts(&self) -> usize {
        self.parts
    }

    /// The instruction stream.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Output values (same order as the source graph's outputs).
    pub fn outputs(&self) -> &[ValueId] {
        &self.outputs
    }

    /// The per-core shape of the value computed for a source-graph node.
    ///
    /// # Panics
    ///
    /// Panics when the node has no partitioned value.
    pub fn value_shape(&self, node: NodeId) -> &Shape {
        let v = self.value_of_node[&node];
        &self.shapes[v.0]
    }

    /// The sharding of the value computed for a source-graph node.
    ///
    /// # Panics
    ///
    /// Panics when the node has no partitioned value.
    pub fn value_sharding(&self, node: NodeId) -> Sharding {
        let v = self.value_of_node[&node];
        self.shardings[v.0]
    }

    /// Abstract compile cost (instructions × compiled programs).
    pub fn compile_cost(&self) -> u64 {
        self.compile_cost
    }

    /// Per-core forward FLOPs.
    pub fn flops_per_core(&self) -> u64 {
        self.instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Compute { out, op } => Some(self.compute_flops(op, *out)),
                _ => None,
            })
            .sum()
    }

    fn compute_flops(&self, op: &ComputeOp, out: ValueId) -> u64 {
        let shape = |v: &ValueId| &self.shapes[v.0];
        match op {
            ComputeOp::Feed { .. } | ComputeOp::Constant { .. } | ComputeOp::SliceAxis { .. } => 0,
            ComputeOp::Apply { kind, operands } => {
                let shapes: Vec<&Shape> = operands.iter().map(shape).collect();
                kind.flops(&shapes, shape(&out))
            }
            ComputeOp::ConvHalo { input, kernel, .. } => {
                OpKind::Conv2dSame.flops(&[shape(input), shape(kernel)], shape(&out))
            }
            // Unlike a plain gather (data movement, no MXU FLOPs — the
            // §4.5 problem) the onehot rewrite is a dense
            // [k × rows_local] × [rows_local × d] matmul.
            ComputeOp::GatherPartial { input, indices } => {
                2 * (shape(indices).len() * shape(input).len()) as u64
            }
        }
    }

    /// Communication statistics (per-core bytes assume f32 payloads).
    pub fn comm_stats(&self) -> CommStats {
        let mut stats = CommStats::default();
        for instr in &self.instrs {
            match instr {
                Instr::AllReduce { input, .. } => {
                    stats.all_reduces += 1;
                    // Ring all-reduce moves ~2x the buffer per core.
                    stats.bytes_per_core += 2 * 4 * self.shapes[input.0].len() as u64;
                }
                Instr::AllGather { input, .. } => {
                    stats.all_gathers += 1;
                    stats.bytes_per_core +=
                        4 * (self.shapes[input.0].len() * (self.parts - 1)) as u64;
                }
                Instr::HaloExchange {
                    input, axis, halo, ..
                } => {
                    stats.halo_exchanges += 1;
                    let s = &self.shapes[input.0];
                    let slice_elems = s.len() / s.dim(*axis) * halo;
                    stats.bytes_per_core += 4 * 2 * slice_elems as u64;
                }
                Instr::Compute { .. } => {}
            }
        }
        stats
    }

    /// Executes the program on `tile` (one chip per part) with global
    /// feeds, returning per-output per-core tensors and the communication
    /// completion time.
    ///
    /// # Errors
    ///
    /// Fails on a tile whose width is not the program's part count, on
    /// missing/misshapen feeds, on a gather / scatter-add index past its
    /// table, or on collective failures.
    pub fn execute(
        &self,
        net: &mut Network,
        feeds: &HashMap<String, Tensor>,
        tile: &[ChipId],
    ) -> Result<(Vec<Vec<Tensor>>, SimTime), HloError> {
        let n = self.parts;
        if tile.len() != n {
            return Err(HloError::TileWidth {
                parts: n,
                tile: tile.len(),
            });
        }
        let ring = Ring::new(tile.to_vec(), false, 1);
        // values[v][core]
        let mut values: Vec<Vec<Tensor>> = Vec::with_capacity(self.instrs.len());
        let mut t = SimTime::ZERO;
        for instr in &self.instrs {
            let produced: Vec<Tensor> = match instr {
                Instr::Compute { op, .. } => self.execute_compute(op, &values, feeds, n)?,
                Instr::AllReduce { input, .. } => {
                    // Ring chunking needs the payload divisible by the
                    // ring size; pad with zeros and truncate after (as
                    // XLA's collective lowering does).
                    let ins = &values[input.0];
                    let shape = ins[0].shape().clone();
                    let elems = ins[0].len();
                    let padded_len = elems.div_ceil(n) * n;
                    let padded: Vec<Tensor> = ins
                        .iter()
                        .map(|v| {
                            let mut data = v.data().to_vec();
                            data.resize(padded_len, 0.0);
                            Tensor::new(Shape::vector(padded_len), data)
                        })
                        .collect();
                    let out = ring::all_reduce_unidirectional(
                        net,
                        &ring,
                        &padded,
                        Precision::F32,
                        ring::Direction::Forward,
                        t,
                    )?;
                    t = out.time;
                    out.outputs
                        .into_iter()
                        .map(|v| Tensor::new(shape.clone(), v.data()[..elems].to_vec()))
                        .collect()
                }
                Instr::AllGather { input, axis, .. } => {
                    let ins = &values[input.0];
                    let tile_shape = ins[0].shape().clone();
                    let out = ring::all_gather_ordered(
                        net,
                        &ring,
                        ins,
                        Precision::F32,
                        ring::Direction::Forward,
                        t,
                    )?;
                    t = out.time;
                    // Reassemble tiles along the requested axis.
                    out.outputs
                        .into_iter()
                        .map(|flat| {
                            let tiles = flat
                                .split(0, n)?
                                .into_iter()
                                .map(|c| c.reshape(tile_shape.clone()))
                                .collect::<Result<Vec<_>, _>>()?;
                            Ok(Tensor::concat(&tiles, *axis)?)
                        })
                        .collect::<Result<_, HloError>>()?
                }
                Instr::HaloExchange {
                    input, axis, halo, ..
                } => {
                    let ins = &values[input.0];
                    let out = halo::halo_exchange(net, tile, ins, *axis, *halo, Precision::F32, t)?;
                    t = out.time;
                    out.outputs
                }
            };
            values.push(produced);
        }
        let outputs = self.outputs.iter().map(|o| values[o.0].clone()).collect();
        Ok((outputs, t))
    }

    fn execute_compute(
        &self,
        op: &ComputeOp,
        values: &[Vec<Tensor>],
        feeds: &HashMap<String, Tensor>,
        n: usize,
    ) -> Result<Vec<Tensor>, HloError> {
        let val = |v: &ValueId| &values[v.0];
        match op {
            ComputeOp::Feed { name, sharding } => {
                let global = feeds
                    .get(name)
                    .ok_or_else(|| HloError::MissingFeed(name.clone()))?;
                Ok(match sharding {
                    Sharding::Replicated => vec![global.clone(); n],
                    Sharding::Split { axis, parts } => global.split(*axis, *parts)?,
                })
            }
            ComputeOp::Constant { value } => Ok(vec![value.clone(); n]),
            ComputeOp::Apply { kind, operands } => (0..n)
                .map(|c| {
                    let operands: Vec<&Tensor> = operands.iter().map(|v| &val(v)[c]).collect();
                    kind.evaluate(&operands)
                })
                .collect(),
            ComputeOp::SliceAxis { input, axis } => (0..n)
                .map(|c| Ok(val(input)[c].split(*axis, n)?.swap_remove(c)))
                .collect(),
            ComputeOp::ConvHalo {
                input,
                kernel,
                valid_axis,
            } => {
                let valid = [*valid_axis == 0, *valid_axis == 1];
                Ok((0..n)
                    .map(|c| op::conv2d(&val(input)[c], &val(kernel)[c], valid))
                    .collect())
            }
            ComputeOp::GatherPartial { input, indices } => {
                let rows_local = val(input)[0].shape().dim(0);
                (0..n)
                    .map(|c| {
                        let (table, idx) = (&val(input)[c], &val(indices)[c]);
                        op::gather_partial(table, idx, c * rows_local, n * rows_local)
                    })
                    .collect()
            }
        }
    }

    /// Reassembles per-core outputs of output index `idx` into the global
    /// tensor: concatenation of tiles for split outputs, the (identical)
    /// replica for replicated outputs.
    ///
    /// # Errors
    ///
    /// Fails when `idx` is out of range or the tiles cannot be
    /// concatenated.
    pub fn assemble_output(&self, idx: usize, per_core: &[Tensor]) -> Result<Tensor, HloError> {
        let value = self.outputs.get(idx).ok_or(HloError::UnknownOutput {
            index: idx,
            outputs: self.outputs.len(),
        })?;
        match self.shardings[value.0] {
            Sharding::Replicated => {
                per_core
                    .first()
                    .cloned()
                    .ok_or(HloError::Tensor(TensorError::EmptyInput {
                        op: "assemble_output",
                    }))
            }
            Sharding::Split { axis, .. } => Ok(Tensor::concat(per_core, axis)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_mixed_matches_same_on_interior() {
        // A conv that is valid along the axis of a tile padded with true
        // neighbour rows equals the same-padded conv restricted to the
        // tile (checked end-to-end in the partitioner tests); here check
        // shapes and a hand case.
        let input = Tensor::new(Shape::of(&[4, 2]), vec![1., 2., 3., 4., 5., 6., 7., 8.]);
        let k = Tensor::new(Shape::of(&[3, 1]), vec![1., 1., 1.]);
        let out = op::conv2d(&input, &k, [true, false]);
        assert_eq!(out.shape().dims(), &[2, 2]);
        // Row i of output sums rows i..i+3 of input.
        assert_eq!(out.data(), &[9.0, 12.0, 15.0, 18.0]);
    }

    #[test]
    fn instr_out_and_collective_flags() {
        let i = Instr::AllReduce {
            out: ValueId(3),
            input: ValueId(2),
        };
        assert_eq!(i.out(), ValueId(3));
        let c = Instr::Compute {
            out: ValueId(0),
            op: ComputeOp::Apply {
                kind: OpKind::Relu,
                operands: vec![ValueId(1)],
            },
        };
        assert_eq!(c.out(), ValueId(0));
    }
}
