//! SPMD partitioning end to end (§3.1): annotate a graph, partition it
//! over a 4-core tile, execute the per-core program on the simulated
//! network, and verify against the unpartitioned reference.
//!
//! ```sh
//! cargo run --example spmd_partitioning
//! ```

use std::collections::HashMap;

use multipod::hlo::{HloBuilder, Sharding, SpmdPartitioner};
use multipod::simnet::{Network, NetworkConfig};
use multipod::tensor::{Shape, Tensor, TensorRng};
use multipod::topology::{ChipId, Multipod, MultipodConfig};

fn main() {
    // A feature-sharded feed-forward block (the Transformer pattern of
    // §4.3) followed by a spatially partitionable convolution would be a
    // different graph; both mechanisms are shown here.
    let parts = 4;

    // --- Feature sharding: y = relu(x·W1)·W2 with W1 split on output
    // features and W2 on input features → partial matmul + all-reduce.
    let mut b = HloBuilder::new();
    let x = b.parameter("x", Shape::of(&[8, 32]), Sharding::Replicated);
    let w1 = b.parameter("w1", Shape::of(&[32, 64]), Sharding::split(1, parts));
    let w2 = b.parameter("w2", Shape::of(&[64, 32]), Sharding::split(0, parts));
    let h = b.matmul(x, w1).unwrap();
    let h = b.relu(h).unwrap();
    let y = b.matmul(h, w2).unwrap();
    let graph = b.build(vec![y]).unwrap();

    let program = SpmdPartitioner::new(parts).partition(&graph).unwrap();
    let stats = program.comm_stats();
    println!("feature-sharded FFN over {parts} cores:");
    println!("  instructions      : {}", program.instrs().len());
    println!(
        "  inserted collectives: {} all-reduce, {} all-gather, {} halo",
        stats.all_reduces, stats.all_gathers, stats.halo_exchanges
    );
    println!("  per-core W1 shard : {}", program.value_shape(w1));
    println!("  per-core FLOPs    : {}", program.flops_per_core());

    // Execute on a simulated 4-chip tile and compare with the reference
    // interpreter.
    let mut rng = TensorRng::seed(11);
    let feeds: HashMap<String, Tensor> = [
        ("x", rng.uniform(Shape::of(&[8, 32]), -1.0, 1.0)),
        ("w1", rng.uniform(Shape::of(&[32, 64]), -1.0, 1.0)),
        ("w2", rng.uniform(Shape::of(&[64, 32]), -1.0, 1.0)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();

    let mesh = Multipod::new(MultipodConfig::mesh(parts as u32, 1, false));
    let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
    let tile: Vec<ChipId> = net.mesh().chips().collect();
    let (outputs, comm_time) = program.execute(&mut net, &feeds, &tile).unwrap();
    let assembled = program.assemble_output(0, &outputs[0]).unwrap();
    let reference = graph.evaluate(&feeds).unwrap();
    let err = assembled.max_abs_diff(&reference[0]);
    println!("  partitioned == reference? max |error| = {err:.2e}");
    println!(
        "  simulated tile communication: {:.2} µs",
        1e6 * comm_time.seconds()
    );
    assert!(err < 1e-3);

    // --- Spatial partitioning: a same-padded conv split along the image
    // height; the partitioner inserts a halo exchange.
    let mut b = HloBuilder::new();
    let img = b.parameter("img", Shape::of(&[32, 16]), Sharding::split(0, parts));
    let k = b.parameter("k", Shape::of(&[3, 3]), Sharding::Replicated);
    let c = b.conv2d_same(img, k).unwrap();
    let conv_graph = b.build(vec![c]).unwrap();
    let conv_program = SpmdPartitioner::new(parts).partition(&conv_graph).unwrap();
    println!("\nspatially partitioned conv over {parts} cores:");
    println!(
        "  halo exchanges inserted: {}",
        conv_program.comm_stats().halo_exchanges
    );
    let feeds: HashMap<String, Tensor> = [
        ("img", rng.uniform(Shape::of(&[32, 16]), -1.0, 1.0)),
        ("k", rng.uniform(Shape::of(&[3, 3]), -1.0, 1.0)),
    ]
    .into_iter()
    .map(|(kk, v)| (kk.to_string(), v))
    .collect();
    let mut net2 = Network::new(
        Multipod::new(MultipodConfig::mesh(parts as u32, 1, false)),
        NetworkConfig::tpu_v3(),
    );
    let (outputs, _) = conv_program.execute(&mut net2, &feeds, &tile).unwrap();
    let assembled = conv_program.assemble_output(0, &outputs[0]).unwrap();
    let reference = conv_graph.evaluate(&feeds).unwrap();
    let err = assembled.max_abs_diff(&reference[0]);
    println!("  partitioned == reference? max |error| = {err:.2e}");
    assert!(err < 1e-3);
}
