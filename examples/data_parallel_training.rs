//! A complete data-parallel training loop on the simulated pod: per-chip
//! data shards, real local gradients, and a `DataParallelTrainer` that
//! sums them with the 2-D schedule, runs a weight-update-sharded LAMB step
//! at the shard owners and follows a warmup+decay schedule — the whole
//! §3.2/§3.3 stack working together until the model converges.
//!
//! The task is linear regression (so convergence is checkable), but every
//! distributed mechanism is exactly what a real model would use.
//!
//! ```sh
//! cargo run --example data_parallel_training
//! ```

use multipod::core::trainer::DataParallelTrainer;
use multipod::optim::{Lamb, LrSchedule};
use multipod::tensor::{Shape, Tensor, TensorRng};
use multipod::topology::MultipodConfig;

fn main() {
    // Replicated weights (identical on every chip) and a LAMB optimizer
    // with the BERT-style warmup + linear-decay schedule.
    let steps = 120u64;
    let mut trainer = DataParallelTrainer::new(
        MultipodConfig::mesh(4, 4, true),
        Lamb::new(1.0, 0.0), // lr applied via the schedule
        LrSchedule::lamb_bert(0.5, 10, steps),
    );
    let chips = trainer.replicas();
    let dim = 64usize;
    let samples_per_chip = 8usize;

    // Ground truth and per-chip data shards.
    let mut rng = TensorRng::seed(1234);
    let w_true = rng.uniform(Shape::vector(dim), -1.0, 1.0);
    let shards: Vec<(Tensor, Tensor)> = (0..chips)
        .map(|_| {
            let x = rng.uniform(Shape::of(&[samples_per_chip, dim]), -1.0, 1.0);
            let y = x
                .matmul(
                    &w_true
                        .clone()
                        .reshape(Shape::of(&[dim, 1]))
                        .expect("column vector"),
                )
                .expect("matmul");
            (x, y)
        })
        .collect();

    let mut weights = Tensor::zeros(Shape::vector(dim));

    let loss = |w: &Tensor, shards: &[(Tensor, Tensor)]| -> f32 {
        let wm = w.clone().reshape(Shape::of(&[dim, 1])).expect("column");
        shards
            .iter()
            .map(|(x, y)| {
                let pred = x.matmul(&wm).expect("matmul");
                pred.sub(y).unwrap().norm2().powi(2)
            })
            .sum::<f32>()
            / (chips * samples_per_chip) as f32
    };

    let initial_loss = loss(&weights, &shards);
    let mut comm_seconds = 0.0f64;
    for step in 0..steps {
        // Local gradients: dL/dw = 2 Xᵀ(Xw − y) / n, per chip.
        let wm = weights
            .clone()
            .reshape(Shape::of(&[dim, 1]))
            .expect("column");
        let local_grads: Vec<Tensor> = shards
            .iter()
            .map(|(x, y)| {
                let resid = x.matmul(&wm).expect("matmul").sub(y).unwrap();
                // Xᵀ r computed as rᵀ X (keeps everything rank-2).
                let rt = resid
                    .clone()
                    .reshape(Shape::of(&[1, samples_per_chip]))
                    .unwrap();
                rt.matmul(x)
                    .expect("matmul")
                    .scale(2.0 / (chips * samples_per_chip) as f32)
                    .reshape(Shape::vector(dim))
                    .unwrap()
            })
            .collect();

        // 2-D gradient summation with the LAMB update applied at the
        // shard owners (weight-update sharding); every replica leaves
        // with the same updated weights. LAMB's trust ratio needs
        // whole-layer norms, merged from the owners' per-shard partials.
        let stats = trainer
            .step(&mut weights, &local_grads)
            .expect("training step");
        comm_seconds += stats.comm_seconds;
        if step % 30 == 29 {
            println!(
                "step {:>3}: lr={:.3} loss={:.5}",
                stats.step,
                stats.lr,
                loss(&weights, &shards)
            );
        }
    }

    let final_loss = loss(&weights, &shards);
    println!();
    println!("initial loss : {initial_loss:.4}");
    println!("final loss   : {final_loss:.6}");
    println!(
        "‖w − w*‖     : {:.4}",
        weights.sub(&w_true).unwrap().norm2()
    );
    println!(
        "simulated gradient-summation time: {:.2} ms total",
        1e3 * comm_seconds
    );
    assert!(
        final_loss < 0.02 * initial_loss,
        "distributed training must converge"
    );
}
