//! Weight-update sharding's equivalence guard (§3.2): the trainer's
//! sharded step — reduce-scatter, owner update, all-gather — against a
//! replicated oracle that sums every replica's gradient on the host and
//! steps one optimizer on the whole layer. The sharded path itself lives
//! in [`crate::trainer`]; this module only holds its tests.

#[cfg(test)]
mod tests {
    use crate::trainer::DataParallelTrainer;
    use multipod_optim::{Lamb, Lars, LrSchedule, Optimizer, SgdMomentum};
    use multipod_tensor::{Shape, Tensor, TensorRng};
    use multipod_topology::MultipodConfig;

    /// Runs five steps of `make`'s optimizer through the trainer's
    /// weight-update-sharded step on a 4-chip Y ring and through a
    /// replicated host-sum oracle, and asserts the weights agree to float
    /// tolerance. `make` takes the learning rate: the trainer's schedule
    /// supplies it, the oracle's optimizer carries it.
    fn check_equivalence<O: Optimizer>(make: impl Fn(f32) -> O, lr: f32) {
        let n = 4usize;
        let elems = 64usize;
        let steps = 5;
        let mut rng = TensorRng::seed(42);
        let w0 = rng.uniform(Shape::vector(elems), -1.0, 1.0);
        let grads: Vec<Vec<Tensor>> = (0..steps)
            .map(|_| {
                (0..n)
                    .map(|_| rng.uniform(Shape::vector(elems), -0.1, 0.1))
                    .collect()
            })
            .collect();

        let mut oracle = make(lr);
        let mut w_rep = w0.clone();
        for g in &grads {
            oracle
                .step(0, &mut w_rep, &Tensor::sum_all(g).unwrap())
                .unwrap();
        }

        let mut trainer = DataParallelTrainer::new(
            MultipodConfig::mesh(1, n as u32, true),
            make(1.0),
            LrSchedule::Constant { lr },
        );
        let mut w_wus = w0.clone();
        for g in &grads {
            trainer.step(&mut w_wus, g).unwrap();
        }

        assert!(
            w_rep.max_abs_diff(&w_wus) < 1e-4,
            "sharded and replicated steps diverged by {}",
            w_rep.max_abs_diff(&w_wus)
        );
    }

    #[test]
    fn sgd_sharded_equals_replicated() {
        check_equivalence(|lr| SgdMomentum::new(lr, 0.9), 0.1);
    }

    #[test]
    fn lars_sharded_equals_replicated() {
        check_equivalence(|lr| Lars::new(lr, 0.9, 1e-4), 0.1);
    }

    #[test]
    fn lamb_sharded_equals_replicated() {
        check_equivalence(|lr| Lamb::new(lr, 0.01), 0.01);
    }
}
