//! Property tests: the trainer's weight-update-sharded step (2-D
//! reduce-scatter, owner update, all-gather) against a replicated oracle
//! that sums every replica's gradient on the host and steps one optimizer
//! on the whole layer — for SGD, LARS and LAMB, on 1×n, n×1 and 2-D
//! meshes.

use multipod_core::trainer::DataParallelTrainer;
use multipod_optim::{Lamb, Lars, LrSchedule, Optimizer, SgdMomentum};
use multipod_tensor::{Shape, Tensor, TensorRng};
use multipod_topology::MultipodConfig;
use proptest::prelude::*;

/// `γₘ = m·u / (1 − m·u)`, with `u` the unit roundoff of f32.
fn gamma(m: usize) -> f64 {
    let mu = m as f64 * f64::from(f32::EPSILON) / 2.0;
    mu / (1.0 - mu)
}

/// One gradient per replica for each of `steps` steps.
fn gradients(replicas: usize, elems: usize, steps: usize, rng: &mut TensorRng) -> Vec<Vec<Tensor>> {
    (0..steps)
        .map(|_| {
            (0..replicas)
                .map(|_| rng.uniform(Shape::vector(elems), -0.2, 0.2))
                .collect()
        })
        .collect()
}

/// The replicated oracle: every step sums the replicas' gradients on the
/// host and applies one whole-layer update.
fn replicated<O: Optimizer>(mut opt: O, w0: &Tensor, grads: &[Vec<Tensor>]) -> Tensor {
    let mut w = w0.clone();
    for step in grads {
        opt.step(0, &mut w, &Tensor::sum_all(step).unwrap())
            .unwrap();
    }
    w
}

/// The trainer's weights after the same steps at learning rate `lr`.
fn sharded<O: Optimizer>(
    mesh: MultipodConfig,
    opt: O,
    lr: f32,
    w0: &Tensor,
    grads: &[Vec<Tensor>],
) -> Tensor {
    let mut trainer = DataParallelTrainer::new(mesh, opt, LrSchedule::Constant { lr });
    let mut w = w0.clone();
    for step in grads {
        trainer.step(&mut w, step).unwrap();
    }
    w
}

/// A 1×n column, an n×1 row, or a 2-D mesh, all with a torus Y.
fn meshes() -> impl Strategy<Value = (u32, u32)> {
    prop_oneof![
        (Just(1u32), 2u32..7),
        (2u32..7, Just(1u32)),
        (2u32..5, 2u32..5),
    ]
}

/// Runs `steps` steps of `make`'s optimizer both ways and bounds the gap
/// by `2e-4`, element for element.
fn check<O: Optimizer>(
    make: impl Fn(f32) -> O,
    lr: f32,
    (x, y): (u32, u32),
    chunk: usize,
    steps: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let n = (x * y) as usize;
    let elems = chunk * n;
    let mut rng = TensorRng::seed(seed);
    let w0 = rng.uniform(Shape::vector(elems), -1.0, 1.0);
    let grads = gradients(n, elems, steps, &mut rng);
    let want = replicated(make(lr), &w0, &grads);
    let got = sharded(MultipodConfig::mesh(x, y, true), make(1.0), lr, &w0, &grads);
    let gap = got.max_abs_diff(&want);
    prop_assert!(
        gap < 2e-4,
        "diverged by {gap} ({x}x{y}, chunk={chunk}, steps={steps})"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One f32 SGD step: the network's sum and the host's differ only in
    /// the order they add the same `n` terms, so each weight is held to
    /// DESIGN's bound `2γₙ₊₁·(|w₀| + lr·Σᵢ|gᵢ|)`.
    #[test]
    fn sgd_step_within_the_summation_order_bound(
        dims in meshes(),
        chunk in 1usize..5,
        lr in 0.01f32..2.0,
        seed in 0u64..10_000,
    ) {
        let (x, y) = dims;
        let n = (x * y) as usize;
        let elems = chunk * n;
        let mut rng = TensorRng::seed(seed);
        let w0 = rng.uniform(Shape::vector(elems), -1.0, 1.0);
        let grads = gradients(n, elems, 1, &mut rng);
        let want = replicated(SgdMomentum::new(lr, 0.9), &w0, &grads);
        let got = sharded(MultipodConfig::mesh(x, y, true), SgdMomentum::new(1.0, 0.9), lr, &w0, &grads);
        for i in 0..elems {
            let abs_sum: f64 = grads[0].iter().map(|g| f64::from(g.data()[i].abs())).sum();
            let scale = f64::from(w0.data()[i].abs()) + f64::from(lr) * abs_sum;
            let bound = 2.0 * gamma(n + 1) * scale;
            let gap = (f64::from(got.data()[i]) - f64::from(want.data()[i])).abs();
            prop_assert!(gap <= bound, "element {i}: {gap} > {bound} ({x}x{y})");
        }
    }

    #[test]
    fn sgd_wus_equivalence(dims in meshes(), chunk in 1usize..4, steps in 1usize..4, seed in 0u64..10_000) {
        check(|lr| SgdMomentum::new(lr, 0.8), 0.1, dims, chunk * 2, steps, seed)?;
    }

    #[test]
    fn lars_wus_equivalence(dims in meshes(), chunk in 1usize..4, steps in 1usize..4, seed in 0u64..10_000) {
        check(|lr| Lars::new(lr, 0.9, 1e-3), 0.1, dims, chunk * 2, steps, seed)?;
    }

    #[test]
    fn lamb_wus_equivalence(dims in meshes(), chunk in 1usize..4, steps in 1usize..4, seed in 0u64..10_000) {
        check(|lr| Lamb::new(lr, 0.01), 0.02, dims, chunk * 2, steps, seed)?;
    }
}
