//! Reverse-mode differentiation over the IR.
//!
//! The paper's models *train*: the backward pass re-runs the forward
//! collectives and adds the gradient exchanges (§3.1: "The backward pass
//! has a similar partial matrix multiplication followed by allreduce
//! producing both activations and gradients"). [`gradients`] builds that
//! backward pass as ordinary graph nodes, so the **same SPMD partitioner**
//! shards it — feature-sharded matmul gradients come out as partial
//! matmuls + all-reduces, exactly the structure the paper describes.

use std::collections::HashMap;

use multipod_tensor::Tensor;

use crate::graph::{HloBuilder, HloGraph, NodeId, Op};
use crate::op::OpKind;
use crate::HloError;

/// A graph extended with its backward pass.
#[derive(Debug)]
pub struct GradientGraph {
    /// The combined forward+backward graph. Its outputs are
    /// `[loss, grad(wrt[0]), grad(wrt[1]), …]`.
    pub graph: HloGraph,
    /// The (copied) loss node id in the new graph.
    pub loss: NodeId,
    /// Gradient node ids, one per requested parameter.
    pub grads: Vec<NodeId>,
}

/// Builds `∂ sum(loss) / ∂ wrt[i]` for every requested node.
///
/// The gradient is of the *sum* of the loss tensor's elements (pass a
/// scalar loss for the usual case). Differentiation follows the reverse
/// topological order; adjoints of fan-out nodes are accumulated with
/// `Add`.
///
/// # Errors
///
/// Fails with [`HloError::UnknownNode`] when `loss` or any `wrt` id is
/// not in the graph, and otherwise when a non-differentiable op (`TopK`,
/// `Gather` indices paths, or an op that is itself a VJP helper) lies on
/// the path from `loss` to a requested node, or when shapes disagree (a
/// bug in the VJP rules).
pub fn gradients(
    graph: &HloGraph,
    loss: NodeId,
    wrt: &[NodeId],
) -> Result<GradientGraph, HloError> {
    // Validate every caller-supplied id up front: `graph.shape` on an
    // unknown id would panic below.
    if loss.0 >= graph.num_nodes() {
        return Err(HloError::UnknownNode(loss));
    }
    if let Some(&bad) = wrt.iter().find(|w| w.0 >= graph.num_nodes()) {
        return Err(HloError::UnknownNode(bad));
    }
    let mut b = HloBuilder::from_graph(graph);
    let mut adjoint: HashMap<NodeId, NodeId> = HashMap::new();

    // Seed: d(sum(loss))/d(loss) = ones.
    let ones = b.constant(Tensor::fill(graph.shape(loss).clone(), 1.0));
    adjoint.insert(loss, ones);

    // Reverse topological order = reverse construction order.
    for idx in (0..graph.num_nodes()).rev() {
        let node = NodeId(idx);
        let Some(&g) = adjoint.get(&node) else {
            continue;
        };
        // Leaves end a path: there is nothing to push an adjoint into.
        let Op::Apply { kind, operands } = graph.op(node) else {
            continue;
        };
        // The operands in the order the `OpKind` variant docs name them.
        let (x, y) = kind.pair(operands);
        match *kind {
            OpKind::MatMul => {
                // dA = G·Bᵀ ; dB = Aᵀ·G.
                let bt = b.transpose(y)?;
                let da = b.matmul(g, bt)?;
                accumulate(&mut b, &mut adjoint, x, da)?;
                let at = b.transpose(x)?;
                let db = b.matmul(at, g)?;
                accumulate(&mut b, &mut adjoint, y, db)?;
            }
            OpKind::Conv2dSame => {
                let (kh, kw) = (graph.shape(y).dim(0), graph.shape(y).dim(1));
                let flipped = b.rot180(y)?;
                let dx = b.conv2d_same(g, flipped)?;
                accumulate(&mut b, &mut adjoint, x, dx)?;
                let dk = b.conv_kernel_grad(x, g, kh, kw)?;
                accumulate(&mut b, &mut adjoint, y, dk)?;
            }
            OpKind::Add => {
                accumulate(&mut b, &mut adjoint, x, g)?;
                accumulate(&mut b, &mut adjoint, y, g)?;
            }
            OpKind::Mul => {
                let dl = b.mul(g, y)?;
                accumulate(&mut b, &mut adjoint, x, dl)?;
                let dr = b.mul(g, x)?;
                accumulate(&mut b, &mut adjoint, y, dr)?;
            }
            OpKind::Relu => {
                let dx = b.relu_grad(x, g)?;
                accumulate(&mut b, &mut adjoint, x, dx)?;
            }
            OpKind::ReduceSum { axis } => {
                let dx = b.broadcast_axis(g, axis, graph.shape(x).dim(axis))?;
                accumulate(&mut b, &mut adjoint, x, dx)?;
            }
            OpKind::Gather => {
                // `y`, the indices, is integer-valued: no gradient.
                let dt = b.scatter_add(y, g, graph.shape(x).dim(0))?;
                accumulate(&mut b, &mut adjoint, x, dt)?;
            }
            OpKind::Transpose => {
                let dx = b.transpose(g)?;
                accumulate(&mut b, &mut adjoint, x, dx)?;
            }
            OpKind::BroadcastAxis { axis, .. } => {
                let dx = b.reduce_sum(g, axis)?;
                accumulate(&mut b, &mut adjoint, x, dx)?;
            }
            OpKind::TopK { .. }
            | OpKind::ReluGrad
            | OpKind::Rot180
            | OpKind::ConvKernelGrad { .. }
            | OpKind::ScatterAdd { .. } => {
                return Err(HloError::Unpartitionable {
                    node,
                    reason: format!("op {} is not differentiable", kind.name()),
                });
            }
        }
    }

    let grads = wrt
        .iter()
        .map(|&w| match adjoint.get(&w) {
            Some(&g) => Ok(g),
            // Unreached parameters get a zero gradient.
            None => Ok(b.constant(Tensor::zeros(graph.shape(w).clone()))),
        })
        .collect::<Result<Vec<_>, HloError>>()?;

    let mut outputs = vec![loss];
    outputs.extend(&grads);
    Ok(GradientGraph {
        graph: b.build(outputs)?,
        loss,
        grads,
    })
}

/// Adds `delta` into the adjoint of `node` (creating or `Add`-ing).
fn accumulate(
    b: &mut HloBuilder,
    adjoint: &mut HashMap<NodeId, NodeId>,
    node: NodeId,
    delta: NodeId,
) -> Result<(), HloError> {
    let new = match adjoint.get(&node) {
        Some(&existing) => b.add(existing, delta)?,
        None => delta,
    };
    adjoint.insert(node, new);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sharding;
    use multipod_tensor::{Shape, TensorRng};
    use std::collections::HashMap as Feeds;

    #[test]
    fn unknown_loss_or_wrt_ids_are_typed_errors_not_panics() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[2, 2]), Sharding::Replicated);
        let g = b.build(vec![x]).unwrap();
        let bogus = NodeId(99);
        assert_eq!(
            gradients(&g, bogus, &[x]).unwrap_err(),
            HloError::UnknownNode(bogus)
        );
        assert_eq!(
            gradients(&g, x, &[bogus]).unwrap_err(),
            HloError::UnknownNode(bogus)
        );
    }

    /// Finite-difference check of every gradient output.
    fn check_gradients(
        graph: &HloGraph,
        loss: NodeId,
        wrt: &[(NodeId, &str)],
        feeds: &Feeds<String, Tensor>,
    ) {
        let gg = gradients(
            graph,
            loss,
            &wrt.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
        )
        .expect("gradient build");
        let outputs = gg.graph.evaluate(feeds).expect("grad eval");
        let loss_of = |feeds: &Feeds<String, Tensor>| -> f64 {
            graph.evaluate(feeds).unwrap()[0].sum() as f64
        };
        let eps = 1e-3f32;
        for (w, (_, name)) in wrt.iter().enumerate() {
            let analytic = &outputs[1 + w];
            let base = feeds[*name].clone();
            for i in 0..base.len().min(6) {
                let mut plus = feeds.clone();
                let mut t = base.clone();
                t.data_mut()[i] += eps;
                plus.insert(name.to_string(), t);
                let mut minus = feeds.clone();
                let mut t = base.clone();
                t.data_mut()[i] -= eps;
                minus.insert(name.to_string(), t);
                let numeric = (loss_of(&plus) - loss_of(&minus)) / (2.0 * eps as f64);
                let a = analytic.data()[i] as f64;
                assert!(
                    (a - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                    "{name}[{i}]: analytic={a} numeric={numeric}"
                );
            }
        }
    }

    fn feeds(pairs: Vec<(&str, Tensor)>) -> Feeds<String, Tensor> {
        pairs.into_iter().map(|(n, t)| (n.to_string(), t)).collect()
    }

    #[test]
    fn mlp_gradients_match_finite_differences() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[3, 4]), Sharding::Replicated);
        let w1 = b.parameter("w1", Shape::of(&[4, 5]), Sharding::Replicated);
        let w2 = b.parameter("w2", Shape::of(&[5, 2]), Sharding::Replicated);
        let h = b.matmul(x, w1).unwrap();
        let h = b.relu(h).unwrap();
        let y = b.matmul(h, w2).unwrap();
        let s = b.reduce_sum(y, 0).unwrap();
        let loss = b.reduce_sum(s, 0).unwrap();
        let g = b.build(vec![loss]).unwrap();

        let mut rng = TensorRng::seed(31);
        let f = feeds(vec![
            ("x", rng.uniform(Shape::of(&[3, 4]), -1.0, 1.0)),
            ("w1", rng.uniform(Shape::of(&[4, 5]), -1.0, 1.0)),
            ("w2", rng.uniform(Shape::of(&[5, 2]), -1.0, 1.0)),
        ]);
        check_gradients(&g, loss, &[(w1, "w1"), (w2, "w2"), (x, "x")], &f);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut b = HloBuilder::new();
        let img = b.parameter("img", Shape::of(&[6, 5]), Sharding::Replicated);
        let k = b.parameter("k", Shape::of(&[3, 3]), Sharding::Replicated);
        let c = b.conv2d_same(img, k).unwrap();
        let r = b.relu(c).unwrap();
        let s = b.reduce_sum(r, 0).unwrap();
        let loss = b.reduce_sum(s, 0).unwrap();
        let g = b.build(vec![loss]).unwrap();

        let mut rng = TensorRng::seed(32);
        let f = feeds(vec![
            ("img", rng.uniform(Shape::of(&[6, 5]), -1.0, 1.0)),
            ("k", rng.uniform(Shape::of(&[3, 3]), -1.0, 1.0)),
        ]);
        check_gradients(&g, loss, &[(k, "k"), (img, "img")], &f);
    }

    #[test]
    fn mul_and_gather_gradients() {
        let mut b = HloBuilder::new();
        let t = b.parameter("t", Shape::of(&[6, 3]), Sharding::Replicated);
        let idx = b.constant(Tensor::from_slice(&[4.0, 0.0, 4.0]));
        let gathered = b.gather(t, idx).unwrap();
        let squared = b.mul(gathered, gathered).unwrap();
        let s = b.reduce_sum(squared, 0).unwrap();
        let loss = b.reduce_sum(s, 0).unwrap();
        let g = b.build(vec![loss]).unwrap();

        let mut rng = TensorRng::seed(33);
        let f = feeds(vec![("t", rng.uniform(Shape::of(&[6, 3]), -1.0, 1.0))]);
        check_gradients(&g, loss, &[(t, "t")], &f);
        // Row 4 is gathered twice: the scatter-add must accumulate.
        let gg = gradients(&g, loss, &[t]).unwrap();
        let outs = gg.graph.evaluate(&f).unwrap();
        let dt = &outs[1];
        let expect_row4: Vec<f32> = (0..3)
            .map(|c| 2.0 * f["t"].at(&[4, c]).unwrap() * 2.0) // d(x²)=2x, twice
            .collect();
        for (c, &e) in expect_row4.iter().enumerate() {
            assert!((dt.at(&[4, c]).unwrap() - e).abs() < 1e-4);
        }
        // Unreferenced rows get zero gradient.
        assert_eq!(dt.at(&[1, 0]), Some(0.0));
    }

    #[test]
    fn fan_out_accumulates_adjoints() {
        // loss = sum(x·w + x·w) → dL/dw = 2 Σᵢ xᵢ-columns.
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[2, 3]), Sharding::Replicated);
        let w = b.parameter("w", Shape::of(&[3, 2]), Sharding::Replicated);
        let y1 = b.matmul(x, w).unwrap();
        let y2 = b.matmul(x, w).unwrap();
        let y = b.add(y1, y2).unwrap();
        let s = b.reduce_sum(y, 0).unwrap();
        let loss = b.reduce_sum(s, 0).unwrap();
        let g = b.build(vec![loss]).unwrap();
        let mut rng = TensorRng::seed(34);
        let f = feeds(vec![
            ("x", rng.uniform(Shape::of(&[2, 3]), -1.0, 1.0)),
            ("w", rng.uniform(Shape::of(&[3, 2]), -1.0, 1.0)),
        ]);
        check_gradients(&g, loss, &[(w, "w")], &f);
    }

    #[test]
    fn unreached_parameters_get_zero_gradients() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[2]), Sharding::Replicated);
        let unused = b.parameter("unused", Shape::of(&[4]), Sharding::Replicated);
        let loss = b.reduce_sum(x, 0).unwrap();
        let g = b.build(vec![loss]).unwrap();
        let gg = gradients(&g, loss, &[unused]).unwrap();
        let f = feeds(vec![
            ("x", Tensor::from_slice(&[1.0, 2.0])),
            ("unused", Tensor::zeros(Shape::of(&[4]))),
        ]);
        let outs = gg.graph.evaluate(&f).unwrap();
        assert_eq!(outs[1].data(), &[0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn topk_on_the_path_is_rejected() {
        let mut b = HloBuilder::new();
        let x = b.parameter("x", Shape::of(&[8]), Sharding::Replicated);
        let t = b.top_k(x, 2).unwrap();
        let loss = b.reduce_sum(t, 0).unwrap();
        let g = b.build(vec![loss]).unwrap();
        assert!(gradients(&g, loss, &[x]).is_err());
    }
}
