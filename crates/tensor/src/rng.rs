//! Deterministic tensor initialization.
//!
//! Every simulated experiment must be reproducible from a seed; this thin
//! wrapper around a small PRNG produces model weights, gradients and
//! synthetic datasets.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{Shape, Tensor};

/// A seeded generator for tensors.
///
/// ```
/// use multipod_tensor::{Shape, TensorRng};
///
/// let mut rng = TensorRng::seed(7);
/// let a = rng.uniform(Shape::of(&[8]), -1.0, 1.0);
/// let b = TensorRng::seed(7).uniform(Shape::of(&[8]), -1.0, 1.0);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct TensorRng {
    rng: SmallRng,
}

impl TensorRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> TensorRng {
        TensorRng {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// A tensor with elements uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, shape: Shape, lo: f32, hi: f32) -> Tensor {
        assert!(lo < hi, "uniform requires lo < hi");
        Tensor::from_fn(shape, |_| self.rng.gen_range(lo..hi))
    }

    /// A single uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        self.rng.gen_range(0.0..1.0)
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        self.rng.gen_range(0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TensorRng::seed(42);
        let mut b = TensorRng::seed(42);
        assert_eq!(
            a.uniform(Shape::of(&[16]), 0.0, 1.0),
            b.uniform(Shape::of(&[16]), 0.0, 1.0)
        );
        assert_eq!(a.index(100), b.index(100));
    }

    #[test]
    fn different_seeds_differ() {
        let a = TensorRng::seed(1).uniform(Shape::of(&[32]), 0.0, 1.0);
        let b = TensorRng::seed(2).uniform(Shape::of(&[32]), 0.0, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_respects_bounds() {
        let t = TensorRng::seed(3).uniform(Shape::of(&[1000]), -2.0, 5.0);
        assert!(t.data().iter().all(|&v| (-2.0..5.0).contains(&v)));
    }
}
