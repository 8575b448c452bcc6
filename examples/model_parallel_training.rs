//! Model-parallel training end to end (§3.1 / §4.3): a feature-sharded
//! two-layer network whose forward *and backward* passes are produced by
//! the SPMD partitioner — partial matmuls + all-reduces on a simulated
//! 4-core tile — trained to convergence with scheduled SGD.
//!
//! ```sh
//! cargo run --example model_parallel_training
//! ```

use std::collections::HashMap;

use multipod::hlo::{gradients, HloBuilder, Sharding, SpmdPartitioner};
use multipod::optim::LrSchedule;
use multipod::simnet::{Network, NetworkConfig};
use multipod::tensor::{Shape, Tensor, TensorRng};
use multipod::topology::{ChipId, Multipod, MultipodConfig};

fn main() {
    let parts = 4usize;
    let (batch, d_in, d_ff, d_out) = (8usize, 16usize, 64usize, 16usize);

    // The Shazeer-style feed-forward block: W1 split on output features,
    // W2 on input features (§3.1's feature sharding).
    let mut b = HloBuilder::new();
    let x = b.parameter("x", Shape::of(&[batch, d_in]), Sharding::Replicated);
    let w1 = b.parameter("w1", Shape::of(&[d_in, d_ff]), Sharding::split(1, parts));
    let w2 = b.parameter("w2", Shape::of(&[d_ff, d_out]), Sharding::split(0, parts));
    let target = b.parameter("target", Shape::of(&[batch, d_out]), Sharding::Replicated);
    let h = b.matmul(x, w1).unwrap();
    let h = b.relu(h).unwrap();
    let y = b.matmul(h, w2).unwrap();
    let neg = b.constant(Tensor::fill(Shape::of(&[batch, d_out]), -1.0));
    let minus_t = b.mul(target, neg).unwrap();
    let resid = b.add(y, minus_t).unwrap();
    let sq = b.mul(resid, resid).unwrap();
    let s = b.reduce_sum(sq, 0).unwrap();
    let loss = b.reduce_sum(s, 0).unwrap();
    let forward = b.build(vec![loss]).unwrap();

    // Append the backward pass and partition the whole thing.
    let gg = gradients(&forward, loss, &[w1, w2]).expect("gradient graph");
    let program = SpmdPartitioner::new(parts)
        .partition(&gg.graph)
        .expect("partition");
    let stats = program.comm_stats();
    println!("partitioned forward+backward over {parts} cores:");
    println!("  instructions : {}", program.instrs().len());
    println!(
        "  collectives  : {} all-reduce, {} all-gather (the §3.1 backward
                 pass re-runs the forward all-reduce and adds its own)",
        stats.all_reduces, stats.all_gathers
    );
    println!("  per-core FLOPs: {}", program.flops_per_core());

    // Train on a fixed synthetic regression task.
    let mesh = Multipod::new(MultipodConfig::mesh(parts as u32, 1, false));
    let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
    let tile: Vec<ChipId> = net.mesh().chips().collect();
    let mut rng = TensorRng::seed(2024);
    let x_data = rng.uniform(Shape::of(&[batch, d_in]), -1.0, 1.0);
    let t_data = rng.uniform(Shape::of(&[batch, d_out]), -0.5, 0.5);
    let mut w1_data = rng.uniform(Shape::of(&[d_in, d_ff]), -0.2, 0.2);
    let mut w2_data = rng.uniform(Shape::of(&[d_ff, d_out]), -0.2, 0.2);

    let steps = 80u64;
    let schedule = LrSchedule::lars_resnet(0.05, 8, steps);
    let mut comm = 0.0f64;
    for step in 0..steps {
        let feeds: HashMap<String, Tensor> = [
            ("x".to_string(), x_data.clone()),
            ("w1".to_string(), w1_data.clone()),
            ("w2".to_string(), w2_data.clone()),
            ("target".to_string(), t_data.clone()),
        ]
        .into();
        let (outs, t) = program.execute(&mut net, &feeds, &tile).expect("step");
        net.reset();
        comm += t.seconds();
        let loss_now = program.assemble_output(0, &outs[0]).unwrap().data()[0];
        let dw1 = program.assemble_output(1, &outs[1]).unwrap();
        let dw2 = program.assemble_output(2, &outs[2]).unwrap();
        let lr = schedule.at(step);
        w1_data.axpy(-lr, &dw1).unwrap();
        w2_data.axpy(-lr, &dw2).unwrap();
        if step % 20 == 19 {
            println!("step {:>2}: lr={lr:.4} loss={loss_now:.5}", step + 1);
        }
    }
    println!(
        "simulated tile communication across the run: {:.2} ms",
        1e3 * comm
    );

    // Final check.
    let feeds: HashMap<String, Tensor> = [
        ("x".to_string(), x_data),
        ("w1".to_string(), w1_data),
        ("w2".to_string(), w2_data),
        ("target".to_string(), t_data),
    ]
    .into();
    let final_loss = forward.evaluate(&feeds).unwrap()[0].data()[0];
    println!("final loss: {final_loss:.6}");
    assert!(final_loss < 0.05, "model-parallel training must converge");
}
