//! The LAMB optimizer (You et al. 2019).

use std::collections::HashMap;

use multipod_tensor::{Shape, Tensor};

use crate::optimizer::sort_slots;
use crate::{LayerStats, OptimError, Optimizer, StateKey, StateSlot};

#[derive(Debug, Clone)]
struct Slot {
    m: Tensor,
    v: Tensor,
    t: u64,
}

/// Layer-wise Adaptive Moments for Batch training.
///
/// LAMB is what lets BERT "scale very well to large batch sizes" (§4.1):
/// Adam moments give per-parameter adaptivity, and a layerwise trust ratio
/// keeps the update norm proportional to the weight norm.
///
/// Update (per layer, step `t`):
/// ```text
/// m  = β₁ m + (1−β₁) g           v = β₂ v + (1−β₂) g²
/// m̂  = m / (1−β₁ᵗ)               v̂ = v / (1−β₂ᵗ)
/// u  = m̂ / (√v̂ + ε) + λ w
/// tr = ‖w‖ / (‖u‖ + ε)
/// w -= lr · tr · u
/// ```
///
/// As with LARS, the trust-ratio norms are whole-layer sums, which the
/// sharded update reconstructs from per-shard [`LayerStats`]. §3.2
/// measures this update at ~18% of the BERT step time on 512 chips when
/// executed replicated — the motivation for weight-update sharding.
#[derive(Debug, Clone)]
pub struct Lamb {
    lr: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    weight_decay: f32,
    slots: HashMap<StateKey, Slot>,
}

impl Lamb {
    /// Creates a LAMB optimizer with the paper's default betas
    /// (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics on non-positive learning rate or betas outside (0, 1).
    pub fn new(lr: f32, weight_decay: f32) -> Lamb {
        Lamb::with_betas(lr, weight_decay, 0.9, 0.999)
    }

    /// Creates a LAMB optimizer with explicit betas.
    ///
    /// # Panics
    ///
    /// Panics on non-positive learning rate or betas outside (0, 1).
    pub fn with_betas(lr: f32, weight_decay: f32, beta1: f32, beta2: f32) -> Lamb {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        Lamb {
            lr,
            beta1,
            beta2,
            epsilon: 1e-6,
            weight_decay,
            slots: HashMap::new(),
        }
    }
}

impl Optimizer for Lamb {
    fn name(&self) -> &'static str {
        "lamb"
    }

    fn prepare(
        &mut self,
        key: StateKey,
        weights: &Tensor,
        grad: &Tensor,
    ) -> Result<(Tensor, LayerStats), OptimError> {
        let slot = self.slots.entry(key).or_insert_with(|| Slot {
            m: Tensor::zeros(weights.shape().clone()),
            v: Tensor::zeros(weights.shape().clone()),
            t: 0,
        });
        slot.t += 1;
        // m = β₁ m + (1−β₁) g ; v = β₂ v + (1−β₂) g².
        slot.m = slot.m.scale(self.beta1);
        slot.m.axpy(1.0 - self.beta1, grad)?;
        let g_sq = grad.mul(grad)?;
        slot.v = slot.v.scale(self.beta2);
        slot.v.axpy(1.0 - self.beta2, &g_sq)?;
        // Bias correction.
        let mc = 1.0 - self.beta1.powi(slot.t as i32);
        let vc = 1.0 - self.beta2.powi(slot.t as i32);
        let eps = self.epsilon;
        let (m, v, w) = (slot.m.data(), slot.v.data(), weights.data());
        let u = Tensor::from_fn(weights.shape().clone(), |i| {
            let mhat = m[i] / mc;
            let vhat = v[i] / vc;
            mhat / (vhat.sqrt() + eps) + self.weight_decay * w[i]
        });
        let stats = LayerStats {
            weight_sq: weights
                .data()
                .iter()
                .map(|&w| (w as f64) * (w as f64))
                .sum(),
            update_sq: u.data().iter().map(|&x| (x as f64) * (x as f64)).sum(),
        };
        Ok((u, stats))
    }

    fn apply(
        &self,
        weights: &mut Tensor,
        update: &Tensor,
        stats: LayerStats,
    ) -> Result<(), OptimError> {
        let w_norm = stats.weight_sq.sqrt() as f32;
        let u_norm = stats.update_sq.sqrt() as f32;
        let trust = if w_norm > 0.0 && u_norm > 0.0 {
            w_norm / (u_norm + self.epsilon)
        } else {
            1.0
        };
        weights.axpy(-self.lr * trust, update)?;
        Ok(())
    }

    fn set_learning_rate(&mut self, lr: f32) {
        assert!(lr >= 0.0, "learning rate must be non-negative");
        self.lr = lr;
    }

    fn flops_per_param(&self) -> u64 {
        // m (3), v incl. g² (4), bias-corrected quotient (~5),
        // decay add (2), norms (4), apply (2).
        20
    }

    fn export_state(&self) -> Vec<StateSlot> {
        let mut slots = Vec::with_capacity(3 * self.slots.len());
        for (&key, slot) in &self.slots {
            slots.push(StateSlot {
                key,
                name: "m".to_string(),
                tensor: slot.m.clone(),
            });
            slots.push(StateSlot {
                key,
                name: "v".to_string(),
                tensor: slot.v.clone(),
            });
            // The bias-correction step counter rides along as a scalar
            // tensor; exact for any plausible simulated run (f32 holds
            // integers up to 2^24).
            slots.push(StateSlot {
                key,
                name: "t".to_string(),
                tensor: Tensor::scalar(slot.t as f32),
            });
        }
        sort_slots(slots)
    }

    fn import_state(&mut self, slots: &[StateSlot]) {
        self.slots.clear();
        for imported in slots {
            let entry = self.slots.entry(imported.key).or_insert_with(|| Slot {
                m: Tensor::zeros(Shape::vector(imported.tensor.len())),
                v: Tensor::zeros(Shape::vector(imported.tensor.len())),
                t: 0,
            });
            match imported.name.as_str() {
                "m" => entry.m = imported.tensor.clone(),
                "v" => entry.v = imported.tensor.clone(),
                "t" => entry.t = imported.tensor.data()[0] as u64,
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_tensor::{Shape, TensorRng};

    #[test]
    fn first_step_direction_is_sign_of_gradient() {
        let mut opt = Lamb::new(0.01, 0.0);
        let mut w = Tensor::fill(Shape::of(&[4]), 1.0);
        let g = Tensor::from_slice(&[0.5, -0.5, 2.0, -2.0]);
        opt.step(0, &mut w, &g).unwrap();
        // With bias correction, the first Adam update is ~sign(g).
        assert!(w.data()[0] < 1.0 && w.data()[1] > 1.0);
        assert!(w.data()[2] < 1.0 && w.data()[3] > 1.0);
        // Magnitudes are equal regardless of gradient scale.
        assert!(((1.0 - w.data()[0]) - (w.data()[1] - 1.0)).abs() < 1e-5);
    }

    #[test]
    fn trust_ratio_bounds_step_by_weight_norm() {
        let mut opt = Lamb::new(0.1, 0.0);
        let mut w = Tensor::fill(Shape::of(&[16]), 1e-3);
        let g = Tensor::fill(Shape::of(&[16]), 10.0);
        let before = w.clone();
        opt.step(0, &mut w, &g).unwrap();
        let step_norm = w.sub(&before).unwrap().norm2();
        // ‖Δw‖ = lr · tr · ‖u‖ = lr · ‖w‖ (up to ε).
        assert!((step_norm - 0.1 * before.norm2()).abs() < 1e-5);
    }

    #[test]
    fn adam_state_evolves_deterministically() {
        let run = || {
            let mut opt = Lamb::new(0.01, 0.01);
            let mut rng = TensorRng::seed(5);
            let mut w = rng.uniform(Shape::of(&[32]), -1.0, 1.0);
            for _ in 0..10 {
                let g = rng.uniform(Shape::of(&[32]), -0.5, 0.5);
                opt.step(0, &mut w, &g).unwrap();
            }
            w
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut opt = Lamb::new(0.1, 0.1);
        let mut w = Tensor::fill(Shape::of(&[4]), 2.0);
        let g = Tensor::zeros(Shape::of(&[4]));
        let before = w.data()[0];
        opt.step(0, &mut w, &g).unwrap();
        assert!(w.data()[0] < before);
    }
}
