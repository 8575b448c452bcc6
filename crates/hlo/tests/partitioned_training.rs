//! Forward **and backward** through the SPMD partitioner (§3.1's full
//! story): the gradient graph of a feature-sharded model partitions into
//! partial matmuls + all-reduces, executes on the simulated tile, and
//! matches the reference gradients — then a real training loop converges.

use std::collections::HashMap;

use multipod_hlo::{gradients, HloBuilder, Sharding, SpmdPartitioner};
use multipod_simnet::{Network, NetworkConfig};
use multipod_tensor::{Shape, Tensor, TensorRng};
use multipod_topology::{ChipId, Multipod, MultipodConfig};

fn feeds(pairs: Vec<(&str, Tensor)>) -> HashMap<String, Tensor> {
    pairs.into_iter().map(|(n, t)| (n.to_string(), t)).collect()
}

/// Builds loss = sum((relu(x·W1)·W2)²-ish) with W1/W2 feature-sharded.
fn sharded_mlp(
    parts: usize,
) -> (
    multipod_hlo::HloGraph,
    multipod_hlo::NodeId,
    Vec<multipod_hlo::NodeId>,
) {
    let mut b = HloBuilder::new();
    let x = b.parameter("x", Shape::of(&[4, 8]), Sharding::Replicated);
    let w1 = b.parameter("w1", Shape::of(&[8, 16]), Sharding::split(1, parts));
    let w2 = b.parameter("w2", Shape::of(&[16, 8]), Sharding::split(0, parts));
    let target = b.parameter("target", Shape::of(&[4, 8]), Sharding::Replicated);
    let h = b.matmul(x, w1).unwrap();
    let h = b.relu(h).unwrap();
    let y = b.matmul(h, w2).unwrap();
    // Squared error: sum((y - t) ⊙ (y - t)).
    let neg_t = b.constant(Tensor::fill(Shape::of(&[4, 8]), -1.0));
    let minus_t = b.mul(target, neg_t).unwrap();
    let resid = b.add(y, minus_t).unwrap();
    let sq = b.mul(resid, resid).unwrap();
    let s = b.reduce_sum(sq, 0).unwrap();
    let loss = b.reduce_sum(s, 0).unwrap();
    let graph = b.build(vec![loss]).unwrap();
    let gg = gradients(&graph, loss, &[w1, w2]).unwrap();
    let grads = gg.grads.clone();
    (gg.graph, gg.loss, grads)
}

#[test]
fn partitioned_backward_matches_reference_gradients() {
    let parts = 4usize;
    let (graph, _loss, _grads) = sharded_mlp(parts);
    let program = SpmdPartitioner::new(parts).partition(&graph).unwrap();
    // §3.1: "The backward pass has a similar partial matrix multiplication
    // followed by allreduce" — the combined graph all-reduces more than a
    // forward-only one.
    assert!(program.comm_stats().all_reduces >= 2);

    let mut rng = TensorRng::seed(77);
    let f = feeds(vec![
        ("x", rng.uniform(Shape::of(&[4, 8]), -1.0, 1.0)),
        ("w1", rng.uniform(Shape::of(&[8, 16]), -0.5, 0.5)),
        ("w2", rng.uniform(Shape::of(&[16, 8]), -0.5, 0.5)),
        ("target", rng.uniform(Shape::of(&[4, 8]), -1.0, 1.0)),
    ]);
    let reference = graph.evaluate(&f).unwrap();

    let mesh = Multipod::new(MultipodConfig::mesh(parts as u32, 1, false));
    let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
    let tile: Vec<ChipId> = net.mesh().chips().collect();
    let (outs, _) = program.execute(&mut net, &f, &tile).unwrap();
    for (o, per_core) in outs.iter().enumerate() {
        let assembled = program.assemble_output(o, per_core).unwrap();
        assert!(
            assembled.max_abs_diff(&reference[o]) < 1e-2,
            "output {o} diverged by {}",
            assembled.max_abs_diff(&reference[o])
        );
    }
}

#[test]
fn partitioned_training_converges() {
    let parts = 2usize;
    let (graph, _loss, _grads) = sharded_mlp(parts);
    let program = SpmdPartitioner::new(parts).partition(&graph).unwrap();
    let mesh = Multipod::new(MultipodConfig::mesh(parts as u32, 1, false));
    let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
    let tile: Vec<ChipId> = net.mesh().chips().collect();

    let mut rng = TensorRng::seed(99);
    let x = rng.uniform(Shape::of(&[4, 8]), -1.0, 1.0);
    let target = rng.uniform(Shape::of(&[4, 8]), -0.5, 0.5);
    let mut w1 = rng.uniform(Shape::of(&[8, 16]), -0.3, 0.3);
    let mut w2 = rng.uniform(Shape::of(&[16, 8]), -0.3, 0.3);

    let mut first_loss = None;
    let mut last_loss = 0.0f32;
    for _ in 0..60 {
        let f = feeds(vec![
            ("x", x.clone()),
            ("w1", w1.clone()),
            ("w2", w2.clone()),
            ("target", target.clone()),
        ]);
        let (outs, _) = program.execute(&mut net, &f, &tile).unwrap();
        net.reset();
        let loss = program.assemble_output(0, &outs[0]).unwrap().data()[0];
        let dw1 = program.assemble_output(1, &outs[1]).unwrap();
        let dw2 = program.assemble_output(2, &outs[2]).unwrap();
        first_loss.get_or_insert(loss);
        last_loss = loss;
        w1.axpy(-0.02, &dw1).unwrap();
        w2.axpy(-0.02, &dw2).unwrap();
    }
    let first = first_loss.unwrap();
    assert!(
        last_loss < 0.05 * first,
        "training through the partitioner must converge: {first} -> {last_loss}"
    );
}

#[test]
fn spatial_conv_backward_partitions_and_matches() {
    // Gradient of a spatially partitioned conv: the halo exchange shows
    // up in the forward product, the kernel gradient falls back to a
    // replicated computation, and numbers match the reference.
    let parts = 2usize;
    let mut b = HloBuilder::new();
    let img = b.parameter("img", Shape::of(&[8, 6]), Sharding::split(0, parts));
    let k = b.parameter("k", Shape::of(&[3, 3]), Sharding::Replicated);
    let c = b.conv2d_same(img, k).unwrap();
    let sq = b.mul(c, c).unwrap();
    let s = b.reduce_sum(sq, 0).unwrap();
    let loss = b.reduce_sum(s, 0).unwrap();
    let graph = b.build(vec![loss]).unwrap();
    let gg = gradients(&graph, loss, &[k]).unwrap();
    let program = SpmdPartitioner::new(parts).partition(&gg.graph).unwrap();
    assert!(program.comm_stats().halo_exchanges >= 1);

    let mut rng = TensorRng::seed(55);
    let f = feeds(vec![
        ("img", rng.uniform(Shape::of(&[8, 6]), -1.0, 1.0)),
        ("k", rng.uniform(Shape::of(&[3, 3]), -1.0, 1.0)),
    ]);
    let reference = gg.graph.evaluate(&f).unwrap();
    let mesh = Multipod::new(MultipodConfig::mesh(parts as u32, 1, false));
    let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
    let tile: Vec<ChipId> = net.mesh().chips().collect();
    let (outs, _) = program.execute(&mut net, &f, &tile).unwrap();
    for (o, per_core) in outs.iter().enumerate() {
        let assembled = program.assemble_output(o, per_core).unwrap();
        assert!(
            assembled.max_abs_diff(&reference[o]) < 1e-3,
            "output {o} diverged"
        );
    }
}
