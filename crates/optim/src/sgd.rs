//! SGD with momentum.

use std::collections::HashMap;

use multipod_tensor::Tensor;

use crate::optimizer::sort_slots;
use crate::{LayerStats, OptimError, Optimizer, StateKey, StateSlot};

/// Plain SGD with heavyball momentum: `v ← μ v + g`, `w ← w − lr v`.
///
/// The baseline optimizer; its update is purely elementwise, so it shards
/// trivially (no layerwise statistics needed).
#[derive(Debug, Clone)]
pub struct SgdMomentum {
    lr: f32,
    momentum: f32,
    velocity: HashMap<StateKey, Tensor>,
}

impl SgdMomentum {
    /// Creates the optimizer.
    ///
    /// # Panics
    ///
    /// Panics for non-positive learning rates or momentum outside [0, 1).
    pub fn new(lr: f32, momentum: f32) -> SgdMomentum {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        SgdMomentum {
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }

    /// Advances the velocity under `key` in place, `v ← μ v + g`, and
    /// returns it. Allocates only the first velocity of a key, or a copy
    /// when an exported handle still shares the buffer.
    fn advance_velocity(
        &mut self,
        key: StateKey,
        weights: &Tensor,
        grad: &Tensor,
    ) -> Result<&Tensor, OptimError> {
        let v = self
            .velocity
            .entry(key)
            .or_insert_with(|| Tensor::zeros(weights.shape().clone()));
        // `v.scale(μ)` element for element, without a new buffer.
        for x in v.data_mut() {
            *x *= self.momentum;
        }
        v.axpy(1.0, grad)?;
        Ok(v)
    }
}

impl Optimizer for SgdMomentum {
    fn name(&self) -> &'static str {
        "sgd-momentum"
    }

    fn prepare(
        &mut self,
        key: StateKey,
        weights: &Tensor,
        grad: &Tensor,
    ) -> Result<(Tensor, LayerStats), OptimError> {
        let v = self.advance_velocity(key, weights, grad)?;
        Ok((v.clone(), LayerStats::default()))
    }

    fn apply(
        &self,
        weights: &mut Tensor,
        update: &Tensor,
        _stats: LayerStats,
    ) -> Result<(), OptimError> {
        weights.axpy(-self.lr, update)?;
        Ok(())
    }

    /// `prepare` then `apply`, reading the velocity where it lives
    /// instead of through a cloned handle: no allocation per step.
    fn step(
        &mut self,
        layer: usize,
        weights: &mut Tensor,
        grad: &Tensor,
    ) -> Result<(), OptimError> {
        let lr = self.lr;
        let v = self.advance_velocity(StateKey::full_layer(layer), weights, grad)?;
        weights.axpy(-lr, v)?;
        Ok(())
    }

    fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr >= 0.0, "learning rate must be non-negative");
        self.lr = lr;
    }

    fn flops_per_param(&self) -> u64 {
        4 // momentum decay, add, scale, subtract
    }

    fn export_state(&self) -> Vec<StateSlot> {
        sort_slots(
            self.velocity
                .iter()
                .map(|(&key, tensor)| StateSlot {
                    key,
                    name: "velocity".to_string(),
                    tensor: tensor.clone(),
                })
                .collect(),
        )
    }

    fn import_state(&mut self, slots: &[StateSlot]) {
        self.velocity.clear();
        for slot in slots {
            if slot.name == "velocity" {
                self.velocity.insert(slot.key, slot.tensor.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_tensor::Shape;

    #[test]
    fn first_step_is_plain_sgd() {
        let mut opt = SgdMomentum::new(0.5, 0.9);
        let mut w = Tensor::fill(Shape::of(&[3]), 1.0);
        let g = Tensor::fill(Shape::of(&[3]), 1.0);
        opt.step(0, &mut w, &g).unwrap();
        assert!(w.data().iter().all(|&v| (v - 0.5).abs() < 1e-6));
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = SgdMomentum::new(1.0, 0.5);
        let mut w = Tensor::fill(Shape::of(&[1]), 0.0);
        let g = Tensor::fill(Shape::of(&[1]), 1.0);
        opt.step(0, &mut w, &g).unwrap(); // v = 1, w = -1
        opt.step(0, &mut w, &g).unwrap(); // v = 1.5, w = -2.5
        assert!((w.data()[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn layers_have_independent_state() {
        let mut opt = SgdMomentum::new(1.0, 0.9);
        let mut w0 = Tensor::fill(Shape::of(&[1]), 0.0);
        let mut w1 = Tensor::fill(Shape::of(&[1]), 0.0);
        let g = Tensor::fill(Shape::of(&[1]), 1.0);
        opt.step(0, &mut w0, &g).unwrap();
        opt.step(0, &mut w0, &g).unwrap();
        opt.step(1, &mut w1, &g).unwrap();
        // Layer 1's first step has no accumulated momentum.
        assert!((w1.data()[0] + 1.0).abs() < 1e-6);
        assert!(w0.data()[0] < -2.0);
    }

    #[test]
    fn step_is_bit_identical_to_scale_then_axpy() {
        let specials = [
            0.0,
            -0.0,
            f32::MIN_POSITIVE / 4.0,
            -f32::MIN_POSITIVE / 8.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            1.5,
            -3.25e-3,
        ];
        let n = specials.len();
        let layer = |k: usize| -> Tensor {
            Tensor::from_slice(&(0..n).map(|i| specials[(i + k) % n]).collect::<Vec<f32>>())
        };
        for momentum in [0.0, 0.9] {
            let lr = 0.25;
            let mut opt = SgdMomentum::new(lr, momentum);
            let mut w = layer(0);
            let (mut w_ref, mut v_ref) = (layer(0), Tensor::zeros(Shape::vector(n)));
            for step in 0..4 {
                let g = layer(step + 1);
                opt.step(0, &mut w, &g).unwrap();
                v_ref = v_ref.scale(momentum);
                v_ref.axpy(1.0, &g).unwrap();
                w_ref.axpy(-lr, &v_ref).unwrap();
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&w), bits(&w_ref), "weights, μ={momentum} step {step}");
                let v = &opt.export_state()[0].tensor;
                assert_eq!(bits(v), bits(&v_ref), "velocity, μ={momentum} step {step}");
            }
        }
    }

    #[test]
    fn an_exported_velocity_is_unchanged_by_later_steps() {
        let mut opt = SgdMomentum::new(0.1, 0.9);
        let mut w = Tensor::fill(Shape::of(&[8]), 1.0);
        let g = Tensor::fill(Shape::of(&[8]), 0.5);
        opt.step(0, &mut w, &g).unwrap();
        let exported = opt.export_state();
        let before = exported[0].tensor.data().to_vec();
        opt.step(0, &mut w, &g).unwrap();
        assert_eq!(exported[0].tensor.data(), &before[..]);
        assert_ne!(opt.export_state()[0].tensor.data(), &before[..]);
    }

    #[test]
    #[should_panic(expected = "momentum")]
    fn validates_hyperparameters() {
        SgdMomentum::new(0.1, 1.5);
    }
}
