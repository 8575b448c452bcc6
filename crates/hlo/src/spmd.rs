//! The SPMD partitioner.
//!
//! Rewrites an annotated [`HloGraph`] into a single per-core
//! [`PartitionedProgram`] (Lepikhin et al. 2020). Sharding propagates
//! forward through the graph; collectives are inserted exactly where data
//! crosses shard boundaries:
//!
//! * matmul with a split contracting dimension → partial matmul +
//!   **all-reduce** (the Transformer feature sharding of §3.1/§4.3);
//! * convolution with a split spatial dimension → **halo exchange** +
//!   mixed valid/same convolution (the SSD/MaskRCNN spatial partitioning);
//! * sharding disagreements → reshard (**all-gather** + local slice).
//!
//! [`CommunicationOpt::Naive`] disables propagation and reshards every
//! operand to replicated before each op — the straw-man whose overhead the
//! paper's MaskRCNN communication optimizations cut "from 30% to about
//! 10%" (§4.5).

use std::collections::HashMap;

use multipod_tensor::Shape;

use crate::graph::{HloGraph, NodeId, Op};
use crate::op::OpKind;
use crate::program::{ComputeOp, Instr, PartitionedProgram, ValueId};
use crate::sharding::Sharding;
use crate::HloError;

/// How a gather over a row-partitioned table is rewritten (§4.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GatherStrategy {
    /// Replicate the table first (all-gather), then gather locally — the
    /// pre-optimization behaviour whose communication made gathers an
    /// Amdahl bottleneck.
    AllGather,
    /// Rewrite as a onehot partial matmul + all-reduce: dense MXU work
    /// that achieves "linear speedups when increasing the number of model
    /// parallelism partitions" (§4.5).
    OneHotMatMul,
}

/// How aggressively the partitioner minimizes communication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommunicationOpt {
    /// Propagate shardings and insert the minimal collective at each
    /// boundary (the paper's optimized partitioner).
    Optimized,
    /// Reshard every operand to replicated before every op (ablation
    /// baseline for the §4.5 communication-overhead comparison).
    Naive,
}

/// Partitions annotated graphs over a model-parallel tile of `parts` cores.
#[derive(Clone, Debug)]
pub struct SpmdPartitioner {
    parts: usize,
    comm_opt: CommunicationOpt,
    gather: GatherStrategy,
}

/// The program under construction; every table has one entry per value.
#[derive(Default)]
struct Emitter {
    instrs: Vec<Instr>,
    shapes: Vec<Shape>,
    shardings: Vec<Sharding>,
    global_shapes: Vec<Shape>,
}

impl Emitter {
    fn push(
        &mut self,
        instr_of: impl FnOnce(ValueId) -> Instr,
        shape: Shape,
        sharding: Sharding,
        global: &Shape,
    ) -> ValueId {
        let out = ValueId(self.shapes.len());
        self.instrs.push(instr_of(out));
        self.shapes.push(shape);
        self.shardings.push(sharding);
        self.global_shapes.push(global.clone());
        out
    }

    fn compute(
        &mut self,
        op: ComputeOp,
        shape: Shape,
        sharding: Sharding,
        global: &Shape,
    ) -> ValueId {
        self.push(|out| Instr::Compute { out, op }, shape, sharding, global)
    }

    /// `kind` applied locally to `operands` as they are; the per-core
    /// shape is the kind's own shape rule on the operands' per-core shapes.
    fn apply(
        &mut self,
        kind: OpKind,
        operands: &[ValueId],
        sharding: Sharding,
        global: &Shape,
    ) -> Result<ValueId, HloError> {
        let shapes: Vec<&Shape> = operands.iter().map(|v| &self.shapes[v.0]).collect();
        let shape = kind.infer_shape(&shapes)?;
        let operands = operands.to_vec();
        Ok(self.compute(ComputeOp::Apply { kind, operands }, shape, sharding, global))
    }

    /// Reshards every operand to replicated and computes `kind` once,
    /// globally, on every core: always correct, never cheap. This is all
    /// [`CommunicationOpt::Naive`] does, and the optimized rule of the
    /// kinds that have no sharded fast path.
    fn apply_replicated(
        &mut self,
        node: NodeId,
        kind: OpKind,
        operands: &[ValueId],
        global: &Shape,
    ) -> Result<ValueId, HloError> {
        let replicated = operands
            .iter()
            .map(|&v| self.reshard(v, Sharding::Replicated, node))
            .collect::<Result<Vec<_>, _>>()?;
        self.apply(kind, &replicated, Sharding::Replicated, global)
    }

    fn all_reduce(&mut self, input: ValueId) -> ValueId {
        let shape = self.shapes[input.0].clone();
        let global = self.global_shapes[input.0].clone();
        self.push(
            |out| Instr::AllReduce { out, input },
            shape,
            Sharding::Replicated,
            &global,
        )
    }

    /// Reshards `value` to `to`, inserting the cheapest collective
    /// sequence.
    fn reshard(&mut self, value: ValueId, to: Sharding, node: NodeId) -> Result<ValueId, HloError> {
        let from = self.shardings[value.0];
        if from == to {
            return Ok(value);
        }
        let global = self.global_shapes[value.0].clone();
        match (from, to) {
            (Sharding::Replicated, Sharding::Split { axis, .. }) => {
                let local = to.local_shape(&global)?;
                let slice = ComputeOp::SliceAxis { input: value, axis };
                Ok(self.compute(slice, local, to, &global))
            }
            (Sharding::Split { axis, .. }, Sharding::Replicated) => Ok(self.push(
                |out| Instr::AllGather {
                    out,
                    input: value,
                    axis,
                },
                global.clone(),
                Sharding::Replicated,
                &global,
            )),
            (Sharding::Split { .. }, Sharding::Split { .. }) => {
                let replicated = self.reshard(value, Sharding::Replicated, node)?;
                self.reshard(replicated, to, node)
            }
            _ => Err(HloError::Unpartitionable {
                node,
                reason: format!("cannot reshard {from:?} to {to:?}"),
            }),
        }
    }

    /// Aligns two elementwise operands onto a common sharding (slicing a
    /// replicated side for free, resharding on disagreement), returning
    /// the aligned value ids.
    fn align_elementwise(
        &mut self,
        node: NodeId,
        mut l: ValueId,
        mut r: ValueId,
    ) -> Result<(ValueId, ValueId), HloError> {
        match (self.shardings[l.0], self.shardings[r.0]) {
            (a, b) if a == b => {}
            // `s` is a split: equal shardings matched above.
            (Sharding::Replicated, s) => l = self.reshard(l, s, node)?,
            (s @ Sharding::Split { .. }, _) => r = self.reshard(r, s, node)?,
        }
        Ok((l, r))
    }
}

impl SpmdPartitioner {
    /// A partitioner for `parts`-way model parallelism with optimized
    /// communication.
    ///
    /// A zero `parts` is rejected with a typed error by
    /// [`SpmdPartitioner::partition`] rather than panicking here.
    pub fn new(parts: usize) -> SpmdPartitioner {
        SpmdPartitioner::with_comm_opt(parts, CommunicationOpt::Optimized)
    }

    /// A partitioner with an explicit communication strategy.
    pub fn with_comm_opt(parts: usize, comm_opt: CommunicationOpt) -> SpmdPartitioner {
        SpmdPartitioner {
            parts,
            comm_opt,
            gather: GatherStrategy::OneHotMatMul,
        }
    }

    /// Overrides the gather rewrite strategy (ablations compare the two).
    pub fn with_gather_strategy(mut self, gather: GatherStrategy) -> SpmdPartitioner {
        self.gather = gather;
        self
    }

    /// Whether this partitioner can express weight-update sharding
    /// (always true for SPMD; the MPMD baseline cannot — §4.4).
    pub fn supports_weight_update_sharding(&self) -> bool {
        true
    }

    /// Rewrites `graph` into a single per-core program.
    ///
    /// # Errors
    ///
    /// Fails when the part count is zero, an annotation is invalid for
    /// its shape, or an op/sharding combination cannot be rewritten.
    pub fn partition(&self, graph: &HloGraph) -> Result<PartitionedProgram, HloError> {
        if self.parts == 0 {
            return Err(HloError::InvalidPartCount);
        }
        let mut em = Emitter::default();
        let mut value_of_node: HashMap<NodeId, ValueId> = HashMap::new();

        for id in graph.node_ids() {
            let global = graph.shape(id);
            let value = match graph.op(id) {
                Op::Parameter { name } => {
                    let sharding = graph.annotation(id).unwrap_or(Sharding::Replicated);
                    sharding.validate(global, self.parts)?;
                    let feed = ComputeOp::Feed {
                        name: name.clone(),
                        sharding,
                    };
                    em.compute(feed, sharding.local_shape(global)?, sharding, global)
                }
                Op::Constant { value } => {
                    let value = value.clone();
                    let constant = ComputeOp::Constant { value };
                    em.compute(constant, global.clone(), Sharding::Replicated, global)
                }
                Op::Apply { kind, operands } => {
                    let operands: Vec<ValueId> =
                        operands.iter().map(|o| value_of_node[o]).collect();
                    match self.comm_opt {
                        CommunicationOpt::Optimized => {
                            self.emit_optimized(&mut em, id, *kind, &operands, global)?
                        }
                        CommunicationOpt::Naive => {
                            em.apply_replicated(id, *kind, &operands, global)?
                        }
                    }
                }
            };
            // Honour an explicit output annotation (a no-op for a
            // parameter, which is fed the way it is annotated).
            let value = match graph.annotation(id) {
                Some(want) => {
                    want.validate(global, self.parts)?;
                    em.reshard(value, want, id)?
                }
                None => value,
            };
            value_of_node.insert(id, value);
        }

        let outputs = graph.outputs().iter().map(|o| value_of_node[o]).collect();
        let compile_cost = em.instrs.len() as u64;
        Ok(PartitionedProgram {
            parts: self.parts,
            instrs: em.instrs,
            shapes: em.shapes,
            shardings: em.shardings,
            value_of_node,
            outputs,
            compile_cost,
        })
    }

    /// The per-kind partition rules: how each op propagates its operands'
    /// shardings and which collective it needs where they cross.
    fn emit_optimized(
        &self,
        em: &mut Emitter,
        id: NodeId,
        kind: OpKind,
        operands: &[ValueId],
        global: &Shape,
    ) -> Result<ValueId, HloError> {
        let input = operands[0];
        match kind {
            OpKind::MatMul => self.emit_matmul(em, id, operands, global),
            OpKind::Conv2dSame => self.emit_conv(em, id, operands, global),
            OpKind::Gather => self.emit_gather(em, id, operands, global),
            OpKind::TopK { k } => self.emit_topk(em, id, input, global, k),
            // Elementwise: the output inherits the (aligned) sharding.
            OpKind::Relu => em.apply(kind, operands, em.shardings[input.0], global),
            OpKind::Add | OpKind::Mul | OpKind::ReluGrad => {
                let (l, r) = em.align_elementwise(id, operands[0], operands[1])?;
                em.apply(kind, &[l, r], em.shardings[l.0], global)
            }
            OpKind::Transpose => {
                let sharding = match em.shardings[input.0] {
                    Sharding::Replicated => Sharding::Replicated,
                    Sharding::Split { axis, parts } => Sharding::split(1 - axis, parts),
                };
                em.apply(kind, operands, sharding, global)
            }
            OpKind::ReduceSum { axis } => {
                let (sharding, partial) = match em.shardings[input.0] {
                    // Reducing over the split axis: local partials, then
                    // all-reduce.
                    Sharding::Split { axis: s, .. } if s == axis => (Sharding::Replicated, true),
                    Sharding::Split { axis: s, parts } => (
                        Sharding::split(if axis < s { s - 1 } else { s }, parts),
                        false,
                    ),
                    Sharding::Replicated => (Sharding::Replicated, false),
                };
                let sum = em.apply(kind, operands, sharding, global)?;
                Ok(if partial { em.all_reduce(sum) } else { sum })
            }
            // Gradient bookkeeping ops without a sharded fast path (the
            // paper's partitioner has bespoke rules we do not need for
            // fidelity).
            OpKind::BroadcastAxis { .. }
            | OpKind::Rot180
            | OpKind::ConvKernelGrad { .. }
            | OpKind::ScatterAdd { .. } => em.apply_replicated(id, kind, operands, global),
        }
    }

    fn emit_gather(
        &self,
        em: &mut Emitter,
        id: NodeId,
        operands: &[ValueId],
        global: &Shape,
    ) -> Result<ValueId, HloError> {
        let table = operands[0];
        let indices = em.reshard(operands[1], Sharding::Replicated, id)?;
        // A local gather from the table as this core holds it.
        let gather = |em: &mut Emitter, table, sharding| {
            em.apply(OpKind::Gather, &[table, indices], sharding, global)
        };
        match em.shardings[table.0] {
            Sharding::Replicated => gather(em, table, Sharding::Replicated),
            // Column-sharded table: rows are whole on every core, so the
            // gather is local and the output inherits the column split.
            s @ Sharding::Split { axis: 1, .. } => gather(em, table, s),
            // Row-partitioned table: the interesting §4.5 case.
            Sharding::Split { axis: 0, .. } => match self.gather {
                GatherStrategy::AllGather => {
                    let table = em.reshard(table, Sharding::Replicated, id)?;
                    gather(em, table, Sharding::Replicated)
                }
                GatherStrategy::OneHotMatMul => {
                    let onehot = ComputeOp::GatherPartial {
                        input: table,
                        indices,
                    };
                    let partial = em.compute(onehot, global.clone(), Sharding::Replicated, global);
                    Ok(em.all_reduce(partial))
                }
            },
            s => Err(HloError::Unpartitionable {
                node: id,
                reason: format!("gather table sharding {s:?}"),
            }),
        }
    }

    fn emit_topk(
        &self,
        em: &mut Emitter,
        id: NodeId,
        input: ValueId,
        global: &Shape,
        k: usize,
    ) -> Result<ValueId, HloError> {
        let kind = OpKind::TopK { k };
        match em.shardings[input.0] {
            Sharding::Replicated => em.apply(kind, &[input], Sharding::Replicated, global),
            Sharding::Split { axis: 0, parts } => {
                let local_len = em.shapes[input.0].dim(0);
                if k > local_len {
                    return Err(HloError::Unpartitionable {
                        node: id,
                        reason: format!("top-{k} exceeds the {local_len}-element local shard"),
                    });
                }
                // Local candidates → all-gather → final top-k (the
                // distributed top-k rewrite the paper added to XLA, §4.5).
                let all_candidates = Shape::vector(k * parts);
                let candidates =
                    em.apply(kind, &[input], Sharding::split(0, parts), &all_candidates)?;
                let gathered = em.reshard(candidates, Sharding::Replicated, id)?;
                em.apply(kind, &[gathered], Sharding::Replicated, global)
            }
            s => Err(HloError::Unpartitionable {
                node: id,
                reason: format!("top-k input sharding {s:?}"),
            }),
        }
    }

    fn emit_matmul(
        &self,
        em: &mut Emitter,
        id: NodeId,
        operands: &[ValueId],
        global: &Shape,
    ) -> Result<ValueId, HloError> {
        let (lhs, rhs) = (operands[0], operands[1]);
        let (replicated, parts) = (Sharding::Replicated, self.parts);
        // The operands as the local matmul reads them, and the sharding
        // of its output — `None` for partial sums an all-reduce completes.
        let (lhs, rhs, out) = match (em.shardings[lhs.0], em.shardings[rhs.0]) {
            // Contracting dimension split on both sides: partial matmul
            // followed by an all-reduce over the tile (§3.1).
            (Sharding::Split { axis: 1, .. }, Sharding::Split { axis: 0, .. }) => (lhs, rhs, None),
            // Row (batch/spatial) split: replicate the weights.
            (Sharding::Split { axis: 0, .. }, _) => {
                let rhs = em.reshard(rhs, replicated, id)?;
                (lhs, rhs, Some(Sharding::split(0, parts)))
            }
            // Output-feature split: replicate the activations.
            (_, Sharding::Split { axis: 1, .. }) => {
                let lhs = em.reshard(lhs, replicated, id)?;
                (lhs, rhs, Some(Sharding::split(1, parts)))
            }
            // One-sided contracting split: slice the other side locally
            // (communication-free) and take the partial-sum path.
            (Sharding::Split { axis: 1, .. }, Sharding::Replicated) => {
                (lhs, em.reshard(rhs, Sharding::split(0, parts), id)?, None)
            }
            (Sharding::Replicated, Sharding::Split { axis: 0, .. }) => {
                (em.reshard(lhs, Sharding::split(1, parts), id)?, rhs, None)
            }
            (Sharding::Replicated, Sharding::Replicated) => (lhs, rhs, Some(replicated)),
            (from, to) => {
                return Err(HloError::Unpartitionable {
                    node: id,
                    reason: format!("matmul with shardings {from:?} × {to:?}"),
                })
            }
        };
        let product = em.apply(
            OpKind::MatMul,
            &[lhs, rhs],
            out.unwrap_or(replicated),
            global,
        )?;
        Ok(match out {
            Some(_) => product,
            None => em.all_reduce(product),
        })
    }

    fn emit_conv(
        &self,
        em: &mut Emitter,
        id: NodeId,
        operands: &[ValueId],
        global: &Shape,
    ) -> Result<ValueId, HloError> {
        let input = operands[0];
        let kernel = em.reshard(operands[1], Sharding::Replicated, id)?;
        let tile_shape = em.shapes[input.0].clone();
        match em.shardings[input.0] {
            Sharding::Replicated => em.apply(
                OpKind::Conv2dSame,
                &[input, kernel],
                Sharding::Replicated,
                global,
            ),
            Sharding::Split { axis, parts } if axis < 2 => {
                let split = Sharding::split(axis, parts);
                let halo = em.shapes[kernel.0].dim(axis) / 2;
                let conv_input = if halo > 0 {
                    let padded = tile_shape.with_dim(axis, tile_shape.dim(axis) + 2 * halo);
                    em.push(
                        |out| Instr::HaloExchange {
                            out,
                            input,
                            axis,
                            halo,
                        },
                        padded,
                        split,
                        global,
                    )
                } else {
                    input
                };
                let conv = ComputeOp::ConvHalo {
                    input: conv_input,
                    kernel,
                    valid_axis: axis,
                };
                Ok(em.compute(conv, tile_shape, split, global))
            }
            s => Err(HloError::Unpartitionable {
                node: id,
                reason: format!("conv input sharding {s:?}"),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HloBuilder;
    use multipod_simnet::{Network, NetworkConfig};
    use multipod_tensor::{Tensor, TensorRng};
    use multipod_topology::{ChipId, Multipod, MultipodConfig};
    use std::collections::HashMap;

    fn tile_net(parts: u32) -> (Network, Vec<ChipId>) {
        let mesh = Multipod::new(MultipodConfig::mesh(parts, 1, false));
        let net = Network::new(mesh, NetworkConfig::tpu_v3());
        let tile = net.mesh().chips().collect();
        (net, tile)
    }

    fn feeds(pairs: &[(&str, Tensor)]) -> HashMap<String, Tensor> {
        pairs
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect()
    }

    /// Partition, execute, assemble, and compare against the reference
    /// interpreter.
    fn verify(
        graph: &crate::HloGraph,
        program: &PartitionedProgram,
        feed_map: &HashMap<String, Tensor>,
    ) {
        let reference = graph.evaluate(feed_map).unwrap();
        let (mut net, tile) = tile_net(program.num_parts() as u32);
        let (outputs, _t) = program.execute(&mut net, feed_map, &tile).unwrap();
        for (i, per_core) in outputs.iter().enumerate() {
            let assembled = program.assemble_output(i, per_core).unwrap();
            assert!(
                assembled.max_abs_diff(&reference[i]) < 1e-3,
                "output {i} mismatch: {:?} vs {:?}",
                assembled,
                reference[i]
            );
        }
    }

    #[test]
    fn feature_sharded_matmul_inserts_all_reduce() {
        // §3.1: weights split on the contracting dim, partial matmuls
        // reduced via all-reduce.
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[4, 8]), Sharding::split(1, 4));
        let w = b.parameter("w", Shape::of(&[8, 6]), Sharding::split(0, 4));
        let y = b.matmul(x, w).unwrap();
        let g = b.build(vec![y]).unwrap();
        let p = SpmdPartitioner::new(4).partition(&g).unwrap();
        assert_eq!(p.comm_stats().all_reduces, 1);
        assert_eq!(p.comm_stats().all_gathers, 0);

        let mut rng = TensorRng::seed(2);
        let f = feeds(&[
            ("x", rng.uniform(Shape::of(&[4, 8]), -1.0, 1.0)),
            ("w", rng.uniform(Shape::of(&[8, 6]), -1.0, 1.0)),
        ]);
        verify(&g, &p, &f);
    }

    #[test]
    fn batch_split_matmul_is_communication_free() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[8, 4]), Sharding::split(0, 4));
        let w = b.parameter("w", Shape::of(&[4, 6]), Sharding::Replicated);
        let y = b.matmul(x, w).unwrap();
        let g = b.build(vec![y]).unwrap();
        let p = SpmdPartitioner::new(4).partition(&g).unwrap();
        assert_eq!(p.comm_stats().total_collectives(), 0);
        assert_eq!(p.value_shape(y).dims(), &[2, 6]);
        assert_eq!(p.value_sharding(y), Sharding::split(0, 4));

        let mut rng = TensorRng::seed(3);
        let f = feeds(&[
            ("x", rng.uniform(Shape::of(&[8, 4]), -1.0, 1.0)),
            ("w", rng.uniform(Shape::of(&[4, 6]), -1.0, 1.0)),
        ]);
        verify(&g, &p, &f);
    }

    #[test]
    fn output_feature_split_keeps_weights_sharded() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[4, 8]), Sharding::Replicated);
        let w = b.parameter("w", Shape::of(&[8, 12]), Sharding::split(1, 4));
        let y = b.matmul(x, w).unwrap();
        let g = b.build(vec![y]).unwrap();
        let p = SpmdPartitioner::new(4).partition(&g).unwrap();
        assert_eq!(p.comm_stats().total_collectives(), 0);
        assert_eq!(p.value_shape(y).dims(), &[4, 3]);

        let mut rng = TensorRng::seed(4);
        let f = feeds(&[
            ("x", rng.uniform(Shape::of(&[4, 8]), -1.0, 1.0)),
            ("w", rng.uniform(Shape::of(&[8, 12]), -1.0, 1.0)),
        ]);
        verify(&g, &p, &f);
    }

    #[test]
    fn spatially_partitioned_conv_uses_halo_exchange() {
        // §3.1: spatial partitioning of segmentation models.
        let mut b = HloBuilder::new();
        let img = b.parameter("img", Shape::of(&[16, 8]), Sharding::split(0, 4));
        let k = b.parameter("k", Shape::of(&[3, 3]), Sharding::Replicated);
        let y = b.conv2d_same(img, k).unwrap();
        let g = b.build(vec![y]).unwrap();
        let p = SpmdPartitioner::new(4).partition(&g).unwrap();
        assert_eq!(p.comm_stats().halo_exchanges, 1);
        assert_eq!(p.comm_stats().all_reduces, 0);
        assert_eq!(p.value_shape(y).dims(), &[4, 8]);

        let mut rng = TensorRng::seed(5);
        let f = feeds(&[
            ("img", rng.uniform(Shape::of(&[16, 8]), -1.0, 1.0)),
            ("k", rng.uniform(Shape::of(&[3, 3]), -1.0, 1.0)),
        ]);
        verify(&g, &p, &f);
    }

    #[test]
    fn conv_split_along_width_also_works() {
        let mut b = HloBuilder::new();
        let img = b.parameter("img", Shape::of(&[6, 12]), Sharding::split(1, 2));
        let k = b.parameter("k", Shape::of(&[5, 3]), Sharding::Replicated);
        let y = b.conv2d_same(img, k).unwrap();
        let g = b.build(vec![y]).unwrap();
        let p = SpmdPartitioner::new(2).partition(&g).unwrap();
        assert_eq!(p.comm_stats().halo_exchanges, 1);

        let mut rng = TensorRng::seed(6);
        let f = feeds(&[
            ("img", rng.uniform(Shape::of(&[6, 12]), -1.0, 1.0)),
            ("k", rng.uniform(Shape::of(&[5, 3]), -1.0, 1.0)),
        ]);
        verify(&g, &p, &f);
    }

    #[test]
    fn deep_network_mixes_mechanisms() {
        // conv (spatial) → relu → reduce over the split axis (all-reduce).
        let mut b = HloBuilder::new();
        let img = b.parameter("img", Shape::of(&[8, 4]), Sharding::split(0, 2));
        let k = b.parameter("k", Shape::of(&[3, 1]), Sharding::Replicated);
        let c = b.conv2d_same(img, k).unwrap();
        let r = b.relu(c).unwrap();
        let s = b.reduce_sum(r, 0).unwrap();
        let g = b.build(vec![s]).unwrap();
        let p = SpmdPartitioner::new(2).partition(&g).unwrap();
        assert!(p.comm_stats().all_reduces >= 1);
        assert!(p.comm_stats().halo_exchanges >= 1);

        let mut rng = TensorRng::seed(7);
        let f = feeds(&[
            ("img", rng.uniform(Shape::of(&[8, 4]), -1.0, 1.0)),
            ("k", rng.uniform(Shape::of(&[3, 1]), -1.0, 1.0)),
        ]);
        verify(&g, &p, &f);
    }

    #[test]
    fn reduce_over_unsplit_axis_stays_local() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[8, 4]), Sharding::split(0, 4));
        let s = b.reduce_sum(x, 1).unwrap();
        let g = b.build(vec![s]).unwrap();
        let p = SpmdPartitioner::new(4).partition(&g).unwrap();
        assert_eq!(p.comm_stats().total_collectives(), 0);
        assert_eq!(p.value_sharding(s), Sharding::split(0, 4));

        let mut rng = TensorRng::seed(8);
        let f = feeds(&[("x", rng.uniform(Shape::of(&[8, 4]), -1.0, 1.0))]);
        verify(&g, &p, &f);
    }

    #[test]
    fn add_slices_replicated_operand_for_free() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[8, 4]), Sharding::split(0, 2));
        let bias = b.parameter("bias", Shape::of(&[8, 4]), Sharding::Replicated);
        let y = b.add(x, bias).unwrap();
        let g = b.build(vec![y]).unwrap();
        let p = SpmdPartitioner::new(2).partition(&g).unwrap();
        assert_eq!(p.comm_stats().total_collectives(), 0);

        let mut rng = TensorRng::seed(9);
        let f = feeds(&[
            ("x", rng.uniform(Shape::of(&[8, 4]), -1.0, 1.0)),
            ("bias", rng.uniform(Shape::of(&[8, 4]), -1.0, 1.0)),
        ]);
        verify(&g, &p, &f);
    }

    #[test]
    fn output_annotation_forces_reshard() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[8, 4]), Sharding::split(0, 2));
        let w = b.parameter("w", Shape::of(&[4, 4]), Sharding::Replicated);
        let y = b.matmul(x, w).unwrap();
        b.annotate(y, Sharding::Replicated).unwrap();
        let g = b.build(vec![y]).unwrap();
        let p = SpmdPartitioner::new(2).partition(&g).unwrap();
        assert_eq!(p.comm_stats().all_gathers, 1);
        assert_eq!(p.value_sharding(y), Sharding::Replicated);

        let mut rng = TensorRng::seed(10);
        let f = feeds(&[
            ("x", rng.uniform(Shape::of(&[8, 4]), -1.0, 1.0)),
            ("w", rng.uniform(Shape::of(&[4, 4]), -1.0, 1.0)),
        ]);
        verify(&g, &p, &f);
    }

    #[test]
    fn naive_mode_reshards_everything() {
        // Build a two-layer network; naive partitioning must move far more
        // bytes than the optimized one (§4.5's 30% → 10%).
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[16, 8]), Sharding::split(0, 4));
        let w1 = b.parameter("w1", Shape::of(&[8, 8]), Sharding::Replicated);
        let h = b.matmul(x, w1).unwrap();
        let r = b.relu(h).unwrap();
        let w2 = b.parameter("w2", Shape::of(&[8, 4]), Sharding::Replicated);
        let y = b.matmul(r, w2).unwrap();
        let g = b.build(vec![y]).unwrap();

        let optimized = SpmdPartitioner::new(4).partition(&g).unwrap();
        let naive = SpmdPartitioner::with_comm_opt(4, CommunicationOpt::Naive)
            .partition(&g)
            .unwrap();
        assert_eq!(optimized.comm_stats().bytes_per_core, 0);
        assert!(naive.comm_stats().bytes_per_core > 0);
        // Both still compute the right answer.
        let mut rng = TensorRng::seed(11);
        let f = feeds(&[
            ("x", rng.uniform(Shape::of(&[16, 8]), -1.0, 1.0)),
            ("w1", rng.uniform(Shape::of(&[8, 8]), -1.0, 1.0)),
            ("w2", rng.uniform(Shape::of(&[8, 4]), -1.0, 1.0)),
        ]);
        verify(&g, &optimized, &f);
        verify(&g, &naive, &f);
        // Naive mode also computes k times the FLOPs per core.
        assert!(naive.flops_per_core() > optimized.flops_per_core());
    }

    #[test]
    fn zero_parts_is_a_typed_error_not_a_panic() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[8, 4]), Sharding::Replicated);
        let g = b.build(vec![x]).unwrap();
        assert_eq!(
            SpmdPartitioner::new(0).partition(&g).unwrap_err(),
            HloError::InvalidPartCount
        );
        assert_eq!(
            SpmdPartitioner::with_comm_opt(0, CommunicationOpt::Naive)
                .partition(&g)
                .unwrap_err(),
            HloError::InvalidPartCount
        );
    }

    #[test]
    fn invalid_annotations_are_rejected() {
        let mut b = HloBuilder::new();
        // 7 rows cannot split 4 ways.
        let _x = b.parameter("x", Shape::of(&[7, 4]), Sharding::split(0, 4));
        let g = b.build(vec![NodeId(0)]).unwrap();
        assert!(matches!(
            SpmdPartitioner::new(4).partition(&g),
            Err(HloError::BadSharding { .. })
        ));
        // Declared parts must match the partitioner's.
        let mut b = HloBuilder::new();
        let _x = b.parameter("x", Shape::of(&[8, 4]), Sharding::split(0, 2));
        let g = b.build(vec![NodeId(0)]).unwrap();
        assert!(matches!(
            SpmdPartitioner::new(4).partition(&g),
            Err(HloError::BadSharding { .. })
        ));
    }

    #[test]
    fn single_part_degenerates_to_reference() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[4, 4]), Sharding::Replicated);
        let w = b.parameter("w", Shape::of(&[4, 4]), Sharding::Replicated);
        let y = b.matmul(x, w).unwrap();
        let g = b.build(vec![y]).unwrap();
        let p = SpmdPartitioner::new(1).partition(&g).unwrap();
        assert_eq!(p.comm_stats().total_collectives(), 0);
        let mut rng = TensorRng::seed(12);
        let f = feeds(&[
            ("x", rng.uniform(Shape::of(&[4, 4]), -1.0, 1.0)),
            ("w", rng.uniform(Shape::of(&[4, 4]), -1.0, 1.0)),
        ]);
        verify(&g, &p, &f);
    }

    #[test]
    fn compile_cost_is_independent_of_parts() {
        let build = || {
            let mut b = HloBuilder::new();
            let x = b.parameter("x", Shape::of(&[16, 16]), Sharding::Replicated);
            let w = b.parameter("w", Shape::of(&[16, 16]), Sharding::Replicated);
            let y = b.matmul(x, w).unwrap();
            b.build(vec![y]).unwrap()
        };
        let p2 = SpmdPartitioner::new(2).partition(&build()).unwrap();
        let p8 = SpmdPartitioner::new(8).partition(&build()).unwrap();
        assert_eq!(p2.compile_cost(), p8.compile_cost());
    }
}
