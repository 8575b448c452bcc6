//! The dataflow graph, its builder, and the reference interpreter.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use multipod_tensor::{Shape, Tensor};

use crate::op::OpKind;
use crate::sharding::Sharding;
use crate::HloError;

/// Identifies a node within an [`HloGraph`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// What a graph node is: a leaf, or an [`OpKind`] applied to earlier nodes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// A named graph input.
    Parameter {
        /// Feed name.
        name: String,
    },
    /// An embedded constant.
    Constant {
        /// The value.
        value: Tensor,
    },
    /// `kind` applied to `operands` (positional, `kind.arity()` of them).
    Apply {
        /// What is computed.
        kind: OpKind,
        /// What it is computed from.
        operands: Vec<NodeId>,
    },
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct Node {
    pub(crate) op: Op,
    pub(crate) shape: Shape,
    pub(crate) sharding: Option<Sharding>,
}

/// An immutable, shape-checked dataflow graph in topological order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HloGraph {
    pub(crate) nodes: Vec<Node>,
    pub(crate) outputs: Vec<NodeId>,
}

/// Incrementally builds an [`HloGraph`] with eager shape inference.
///
/// ```
/// use multipod_hlo::{HloBuilder, Sharding};
/// use multipod_tensor::Shape;
///
/// let mut b = HloBuilder::new();
/// let x = b.parameter("x", Shape::of(&[4, 8]), Sharding::Replicated);
/// let w = b.parameter("w", Shape::of(&[8, 2]), Sharding::Replicated);
/// let y = b.matmul(x, w).unwrap();
/// let g = b.build(vec![y]).unwrap();
/// assert_eq!(g.shape(y).dims(), &[4, 2]);
/// ```
#[derive(Debug, Default)]
pub struct HloBuilder {
    nodes: Vec<Node>,
}

impl HloBuilder {
    /// An empty builder.
    pub fn new() -> HloBuilder {
        HloBuilder { nodes: Vec::new() }
    }

    /// Declares a named input with a sharding annotation.
    pub fn parameter(&mut self, name: &str, shape: Shape, sharding: Sharding) -> NodeId {
        self.push(
            Op::Parameter {
                name: name.to_string(),
            },
            shape,
            Some(sharding),
        )
    }

    /// Embeds a constant (always replicated).
    pub fn constant(&mut self, value: Tensor) -> NodeId {
        let shape = value.shape().clone();
        self.push(Op::Constant { value }, shape, Some(Sharding::Replicated))
    }

    /// `lhs[m,k] × rhs[k,n]`.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::ShapeMismatch`] for incompatible operands.
    pub fn matmul(&mut self, lhs: NodeId, rhs: NodeId) -> Result<NodeId, HloError> {
        self.apply(OpKind::MatMul, &[lhs, rhs])
    }

    /// Same-padded 2-D convolution.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::ShapeMismatch`] for incompatible operands.
    pub fn conv2d_same(&mut self, input: NodeId, kernel: NodeId) -> Result<NodeId, HloError> {
        self.apply(OpKind::Conv2dSame, &[input, kernel])
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::ShapeMismatch`] for incompatible operands.
    pub fn add(&mut self, lhs: NodeId, rhs: NodeId) -> Result<NodeId, HloError> {
        self.apply(OpKind::Add, &[lhs, rhs])
    }

    /// Elementwise ReLU.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::UnknownNode`] for a bad operand id.
    pub fn relu(&mut self, input: NodeId) -> Result<NodeId, HloError> {
        self.apply(OpKind::Relu, &[input])
    }

    /// Sum reduction over `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::ShapeMismatch`] for a bad axis.
    pub fn reduce_sum(&mut self, input: NodeId, axis: usize) -> Result<NodeId, HloError> {
        self.apply(OpKind::ReduceSum { axis }, &[input])
    }

    /// Row gather by a rank-1 index tensor (§4.5's ROIAlign pattern).
    ///
    /// # Errors
    ///
    /// Returns [`HloError::ShapeMismatch`] for bad ranks.
    pub fn gather(&mut self, input: NodeId, indices: NodeId) -> Result<NodeId, HloError> {
        self.apply(OpKind::Gather, &[input, indices])
    }

    /// The `k` largest values of a rank-1 input, descending.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::ShapeMismatch`] when `k` exceeds the input.
    pub fn top_k(&mut self, input: NodeId, k: usize) -> Result<NodeId, HloError> {
        self.apply(OpKind::TopK { k }, &[input])
    }

    /// Rank-2 transpose.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::ShapeMismatch`] for non-rank-2 inputs.
    pub fn transpose(&mut self, input: NodeId) -> Result<NodeId, HloError> {
        self.apply(OpKind::Transpose, &[input])
    }

    /// Elementwise product.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::ShapeMismatch`] for mismatched shapes.
    pub fn mul(&mut self, lhs: NodeId, rhs: NodeId) -> Result<NodeId, HloError> {
        self.apply(OpKind::Mul, &[lhs, rhs])
    }

    /// The ReLU VJP `upstream ⊙ (input > 0)`.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::ShapeMismatch`] for mismatched shapes.
    pub fn relu_grad(&mut self, input: NodeId, upstream: NodeId) -> Result<NodeId, HloError> {
        self.apply(OpKind::ReluGrad, &[input, upstream])
    }

    /// Inserts `axis` with `extent` copies (ReduceSum VJP).
    ///
    /// # Errors
    ///
    /// Returns [`HloError::ShapeMismatch`] for a bad axis, zero extent or an
    /// input already at [`Shape::MAX_RANK`].
    pub fn broadcast_axis(
        &mut self,
        input: NodeId,
        axis: usize,
        extent: usize,
    ) -> Result<NodeId, HloError> {
        self.apply(OpKind::BroadcastAxis { axis, extent }, &[input])
    }

    /// 180° kernel rotation.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::ShapeMismatch`] for non-rank-2 inputs.
    pub fn rot180(&mut self, input: NodeId) -> Result<NodeId, HloError> {
        self.apply(OpKind::Rot180, &[input])
    }

    /// The conv-kernel VJP for a `kh×kw` same-padded convolution.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::ShapeMismatch`] for bad shapes or even kernels.
    pub fn conv_kernel_grad(
        &mut self,
        input: NodeId,
        upstream: NodeId,
        kh: usize,
        kw: usize,
    ) -> Result<NodeId, HloError> {
        self.apply(OpKind::ConvKernelGrad { kh, kw }, &[input, upstream])
    }

    /// The gather VJP: scatter-adds `upstream` rows into a `rows`-row
    /// zero table.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::ShapeMismatch`] for inconsistent shapes.
    pub fn scatter_add(
        &mut self,
        indices: NodeId,
        upstream: NodeId,
        rows: usize,
    ) -> Result<NodeId, HloError> {
        self.apply(OpKind::ScatterAdd { rows }, &[indices, upstream])
    }

    /// Seeds a builder with an existing graph's nodes (used by the
    /// gradient builder to append the backward pass).
    pub fn from_graph(graph: &HloGraph) -> HloBuilder {
        HloBuilder {
            nodes: graph.nodes.clone(),
        }
    }

    /// Overrides the sharding annotation of a node (e.g. to request a
    /// sharded output from a matmul).
    ///
    /// # Errors
    ///
    /// Returns [`HloError::UnknownNode`] for a bad node id.
    pub fn annotate(&mut self, node: NodeId, sharding: Sharding) -> Result<(), HloError> {
        self.nodes
            .get_mut(node.0)
            .ok_or(HloError::UnknownNode(node))?
            .sharding = Some(sharding);
        Ok(())
    }

    /// Finalizes the graph with the given outputs.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::UnknownNode`] if any output id is unknown.
    pub fn build(self, outputs: Vec<NodeId>) -> Result<HloGraph, HloError> {
        for &out in &outputs {
            if out.0 >= self.nodes.len() {
                return Err(HloError::UnknownNode(out));
            }
        }
        Ok(HloGraph {
            nodes: self.nodes,
            outputs,
        })
    }

    /// Appends `kind` applied to `operands`, shape-checked.
    fn apply(&mut self, kind: OpKind, operands: &[NodeId]) -> Result<NodeId, HloError> {
        let mut shapes = Vec::with_capacity(operands.len());
        for &id in operands {
            let node = self.nodes.get(id.0).ok_or(HloError::UnknownNode(id))?;
            shapes.push(&node.shape);
        }
        let shape = kind.infer_shape(&shapes)?;
        let operands = operands.to_vec();
        Ok(self.push(Op::Apply { kind, operands }, shape, None))
    }

    fn push(&mut self, op: Op, shape: Shape, sharding: Option<Sharding>) -> NodeId {
        self.nodes.push(Node {
            op,
            shape,
            sharding,
        });
        NodeId(self.nodes.len() - 1)
    }
}

impl HloGraph {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The graph outputs.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The (global) shape of a node.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn shape(&self, node: NodeId) -> &Shape {
        &self.nodes[node.0].shape
    }

    /// The op of a node.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn op(&self, node: NodeId) -> &Op {
        &self.nodes[node.0].op
    }

    /// The sharding annotation of a node, if any.
    pub fn annotation(&self, node: NodeId) -> Option<Sharding> {
        self.nodes[node.0].sharding
    }

    /// Iterates node ids in topological (construction) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Total forward FLOPs of the unpartitioned graph.
    pub fn total_flops(&self) -> u64 {
        self.nodes
            .iter()
            .map(|node| match &node.op {
                Op::Parameter { .. } | Op::Constant { .. } => 0,
                Op::Apply { kind, operands } => {
                    let shapes: Vec<&Shape> =
                        operands.iter().map(|o| &self.nodes[o.0].shape).collect();
                    kind.flops(&shapes, &node.shape)
                }
            })
            .sum()
    }

    /// Runs the graph on concrete feeds and returns the outputs — the
    /// reference every partitioned execution is verified against.
    ///
    /// # Errors
    ///
    /// Fails on missing feeds, feed-shape mismatches, or a gather /
    /// scatter-add index that names a row its table does not have.
    pub fn evaluate(&self, feeds: &HashMap<String, Tensor>) -> Result<Vec<Tensor>, HloError> {
        let mut values: Vec<Tensor> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let value = match &node.op {
                Op::Parameter { name } => {
                    let t = feeds
                        .get(name)
                        .ok_or_else(|| HloError::MissingFeed(name.clone()))?;
                    if t.shape() != &node.shape {
                        return Err(HloError::FeedShape {
                            name: name.clone(),
                            expected: node.shape.clone(),
                            got: t.shape().clone(),
                        });
                    }
                    t.clone()
                }
                Op::Constant { value } => value.clone(),
                Op::Apply { kind, operands } => {
                    let operands: Vec<&Tensor> = operands.iter().map(|o| &values[o.0]).collect();
                    kind.evaluate(&operands)?
                }
            };
            values.push(value);
        }
        Ok(self.outputs.iter().map(|o| values[o.0].clone()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_tensor::TensorRng;

    fn feeds(pairs: &[(&str, Tensor)]) -> HashMap<String, Tensor> {
        pairs
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect()
    }

    #[test]
    fn builds_and_evaluates_mlp() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[2, 4]), Sharding::Replicated);
        let w1 = b.parameter("w1", Shape::of(&[4, 8]), Sharding::Replicated);
        let w2 = b.parameter("w2", Shape::of(&[8, 2]), Sharding::Replicated);
        let h = b.matmul(x, w1).unwrap();
        let h = b.relu(h).unwrap();
        let y = b.matmul(h, w2).unwrap();
        let g = b.build(vec![y]).unwrap();
        assert_eq!(g.shape(y).dims(), &[2, 2]);

        let mut rng = TensorRng::seed(1);
        let fx = rng.uniform(Shape::of(&[2, 4]), -1.0, 1.0);
        let f1 = rng.uniform(Shape::of(&[4, 8]), -1.0, 1.0);
        let f2 = rng.uniform(Shape::of(&[8, 2]), -1.0, 1.0);
        let out = g
            .evaluate(&feeds(&[
                ("x", fx.clone()),
                ("w1", f1.clone()),
                ("w2", f2.clone()),
            ]))
            .unwrap();
        let expect = fx
            .matmul(&f1)
            .unwrap()
            .map(|v| v.max(0.0))
            .matmul(&f2)
            .unwrap();
        assert!(out[0].max_abs_diff(&expect) < 1e-5);
    }

    #[test]
    fn shape_errors_surface_at_build_time() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[2, 4]), Sharding::Replicated);
        let w = b.parameter("w", Shape::of(&[5, 8]), Sharding::Replicated);
        assert!(matches!(
            b.matmul(x, w),
            Err(HloError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn missing_and_misshapen_feeds_error() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[2]), Sharding::Replicated);
        let g = b.build(vec![x]).unwrap();
        assert!(matches!(
            g.evaluate(&HashMap::new()),
            Err(HloError::MissingFeed(_))
        ));
        let bad = feeds(&[("x", Tensor::zeros(Shape::of(&[3])))]);
        assert!(matches!(g.evaluate(&bad), Err(HloError::FeedShape { .. })));
    }

    #[test]
    fn constants_and_total_flops() {
        let mut b = HloBuilder::new();
        let c = b.constant(Tensor::fill(Shape::of(&[2, 2]), 3.0));
        let x = b.parameter("x", Shape::of(&[2, 2]), Sharding::Replicated);
        let y = b.matmul(c, x).unwrap();
        let g = b.build(vec![y]).unwrap();
        assert_eq!(g.total_flops(), 2 * 2 * 2 * 2);
        let out = g
            .evaluate(&feeds(&[(
                "x",
                Tensor::new(Shape::of(&[2, 2]), vec![1.0, 0.0, 0.0, 1.0]),
            )]))
            .unwrap();
        assert_eq!(out[0].data(), &[3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn unknown_operand_is_rejected() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[2, 2]), Sharding::Replicated);
        assert!(matches!(
            b.matmul(x, NodeId(99)),
            Err(HloError::UnknownNode(NodeId(99)))
        ));
    }

    #[test]
    fn annotate_and_build_reject_unknown_ids_without_panicking() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[2, 2]), Sharding::Replicated);
        assert!(matches!(
            b.annotate(NodeId(7), Sharding::Replicated),
            Err(HloError::UnknownNode(NodeId(7)))
        ));
        assert!(b.annotate(x, Sharding::Replicated).is_ok());
        assert!(matches!(
            b.build(vec![x, NodeId(7)]),
            Err(HloError::UnknownNode(NodeId(7)))
        ));
    }
}
