//! The paper's 2-D gradient summation (§3.3), numerically, on a small
//! simulated pod — including weight-update sharding applied at the shard
//! owners between the reduce and broadcast halves.
//!
//! ```sh
//! cargo run --example gradient_summation
//! ```

use multipod::collectives::twod::{two_dim_all_gather, two_dim_all_reduce, two_dim_reduce_scatter};
use multipod::collectives::Precision;
use multipod::simnet::{Network, NetworkConfig};
use multipod::tensor::{Shape, Tensor, TensorRng};
use multipod::topology::{Multipod, MultipodConfig};

fn main() {
    // An 8x8 chip pod with torus Y links (a miniature of the 128x32
    // multipod).
    let mesh = Multipod::new(MultipodConfig::mesh(8, 8, true));
    let mut net = Network::new(mesh.clone(), NetworkConfig::tpu_v3());
    println!(
        "mesh: {}x{} chips, torus-Y={}, {} hosts",
        mesh.x_len(),
        mesh.y_len(),
        mesh.torus_y(),
        mesh.num_hosts()
    );

    // One gradient tensor per chip ("layer" of 4096 parameters).
    let mut rng = TensorRng::seed(7);
    let grads: Vec<Tensor> = (0..mesh.num_chips())
        .map(|_| rng.uniform(Shape::vector(4096), -1.0, 1.0))
        .collect();
    let reference = Tensor::sum_all(&grads).expect("same-shape gradients");

    // Weight-update sharding: the reduce half leaves each chip one shard
    // of the sum, each shard owner scales its slice by the learning rate
    // (a stand-in for the LAMB/LARS math the trainer runs in full), and
    // the broadcast half hands every chip the whole result.
    let lr = 0.1f32;
    let mut reduced =
        two_dim_reduce_scatter(&mut net, &grads, Precision::F32, 1).expect("2-D reduce-scatter");
    for shard in &mut reduced.shards {
        *shard = shard.scale(-lr);
    }
    let out = two_dim_all_gather(&mut net, reduced, Precision::F32, 1).expect("2-D all-gather");

    // Every chip ends with -lr * (sum of all gradients).
    let expect = reference.scale(-lr);
    let worst = out
        .outputs
        .iter()
        .map(|o| o.max_abs_diff(&expect))
        .fold(0.0f32, f32::max);
    println!(
        "numeric check: max |error| = {worst:.2e} over {} chips",
        out.outputs.len()
    );
    assert!(worst < 1e-3);

    println!("\nsimulated phase times:");
    println!(
        "  Y reduce-scatter : {:.1} µs",
        1e6 * out.breakdown.y_reduce_scatter
    );
    println!(
        "  X reduce-scatter : {:.1} µs (payload 1/{} of Y)",
        1e6 * out.breakdown.x_reduce_scatter,
        mesh.y_len()
    );
    println!(
        "  X all-gather     : {:.1} µs",
        1e6 * out.breakdown.x_all_gather
    );
    println!(
        "  Y all-gather     : {:.1} µs",
        1e6 * out.breakdown.y_all_gather
    );
    println!("  total            : {:.1} µs", 1e6 * out.breakdown.total());

    // The same summation on the paper's machine — 128x32 = 4096 chips —
    // with gradients demoted to bfloat16 on the wire (§3.3). Data
    // parallelism still holds: every replica must leave with the same
    // bits, the shard it owns included.
    let multipod = Multipod::new(MultipodConfig::multipod(4));
    let grads: Vec<Tensor> = (0..multipod.num_chips())
        .map(|_| rng.uniform(Shape::vector(4096), -1.0, 1.0))
        .collect();
    let mut net = Network::new(multipod.clone(), NetworkConfig::tpu_v3());
    let mut wire_us = [0.0f64; 2];
    for (us, precision) in wire_us.iter_mut().zip([Precision::F32, Precision::Bf16]) {
        net.reset();
        let out = two_dim_all_reduce(&mut net, &grads, precision, 1, None).expect("2-D all-reduce");
        let first = &out.outputs[0];
        let same_bits = |o: &Tensor| {
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            o.shares_storage(first) || bits(o) == bits(first)
        };
        assert!(
            out.outputs.iter().all(same_bits),
            "{precision:?}: replicas disagree"
        );
        *us = 1e6 * out.time.seconds();
    }
    let [f32_us, bf16_us] = wire_us;
    assert!(bf16_us < f32_us);
    // 16 KB per chip is latency-bound (the X lines' 127 steps dominate),
    // so halving the bytes barely shows here; `repro fig6` prices real
    // payloads.
    println!(
        "\n{} chips bit-identical on either wire: f32 {f32_us:.1} µs, bf16 {bf16_us:.1} µs",
        multipod.num_chips()
    );
}
