//! Elementwise and linear-algebra kernels on [`Tensor`].
//!
//! These back the numerically real parts of the reproduction: optimizer
//! steps (LAMB/LARS need norms and axpy), collective reductions, partial
//! matmuls in the model-parallel forward pass, and evaluation metrics.

use crate::{kernels, Shape, Tensor, TensorError};

impl Tensor {
    /// Elementwise sum, consuming neither operand.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Elementwise product (Hadamard).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(rhs, "mul", |a, b| a * b)
    }

    /// In-place `self += alpha * rhs` (BLAS axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) -> Result<(), TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape().clone(),
                rhs: rhs.shape().clone(),
            });
        }
        kernels::axpy(self.data_mut(), alpha, rhs.data());
        Ok(())
    }

    /// Returns `self * alpha`.
    pub fn scale(&self, alpha: f32) -> Tensor {
        let mut out = Tensor::zeros(self.shape().clone());
        kernels::scale_into(out.data_mut(), self.data(), alpha);
        out
    }

    /// Applies a function to every element.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let data = self.data();
        Tensor::from_fn(self.shape().clone(), |i| f(data[i]))
    }

    /// Sum of all elements (chunked lane accumulators; deterministic, may
    /// differ from a sequential fold by rounding ulps).
    pub fn sum(&self) -> f32 {
        kernels::sum(self.data())
    }

    /// Euclidean (L2) norm of the flattened tensor.
    ///
    /// LARS and LAMB use per-layer weight and update norms for their trust
    /// ratios. Accumulated in f64 lane accumulators with a fixed fold
    /// order.
    pub fn norm2(&self) -> f32 {
        kernels::sum_squares(self.data()).sqrt() as f32
    }

    /// Rank-2 matrix multiplication.
    ///
    /// Model-parallel layers compute *partial* matmuls on weight shards and
    /// then all-reduce (§3.1); tests use this kernel as the ground truth the
    /// sharded computation must reproduce.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `self` is `[m×k]`
    /// and `rhs` is `[k×n]` (non-rank-2 operands or disagreeing inner
    /// dimensions).
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor, TensorError> {
        if self.shape().rank() != 2
            || rhs.shape().rank() != 2
            || self.shape().dim(1) != rhs.shape().dim(0)
        {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape().clone(),
                rhs: rhs.shape().clone(),
            });
        }
        let (m, k) = (self.shape().dim(0), self.shape().dim(1));
        let n = rhs.shape().dim(1);
        let mut product = Tensor::zeros(Shape::of(&[m, n]));
        let out = product.data_mut();
        let a = self.data();
        let b = rhs.data();
        for i in 0..m {
            for p in 0..k {
                let aip = a[i * k + p];
                if aip == 0.0 {
                    continue;
                }
                // Row-times-scalar accumulation is exactly the chunked
                // axpy kernel (bit-exact under chunking).
                kernels::axpy(&mut out[i * n..(i + 1) * n], aip, &b[p * n..(p + 1) * n]);
            }
        }
        Ok(product)
    }

    /// Sums a list of same-shape tensors; the scalar reference that every
    /// all-reduce implementation is tested against.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyInput`] on an empty list and
    /// [`TensorError::ShapeMismatch`] when shapes disagree.
    pub fn sum_all(tensors: &[Tensor]) -> Result<Tensor, TensorError> {
        let first = tensors
            .first()
            .ok_or(TensorError::EmptyInput { op: "sum_all" })?;
        let mut acc = first.clone();
        for t in &tensors[1..] {
            acc.axpy(1.0, t)?;
        }
        Ok(acc)
    }

    /// Maximum absolute difference between two tensors.
    ///
    /// # Panics
    ///
    /// Panics when shapes differ.
    pub fn max_abs_diff(&self, rhs: &Tensor) -> f32 {
        assert_eq!(self.shape(), rhs.shape(), "max_abs_diff shape mismatch");
        self.data()
            .iter()
            .zip(rhs.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    fn zip_with(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32 + Copy,
    ) -> Result<Tensor, TensorError> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape().clone(),
                rhs: rhs.shape().clone(),
            });
        }
        let mut out = Tensor::zeros(self.shape().clone());
        kernels::zip_into(out.data_mut(), self.data(), rhs.data(), f);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elementwise_ops_work() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.sub(&b).unwrap().data(), &[-3.0, -3.0, -3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
    }

    #[test]
    fn elementwise_ops_reject_mismatch() {
        let a = Tensor::from_slice(&[1.0]);
        let b = Tensor::from_slice(&[1.0, 2.0]);
        assert!(a.add(&b).is_err());
        assert!(a.mul(&b).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::from_slice(&[1.0, 1.0]);
        let b = Tensor::from_slice(&[2.0, 3.0]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.data(), &[2.0, 2.5]);
    }

    #[test]
    fn norms_and_dot() {
        let a = Tensor::from_slice(&[3.0, 4.0]);
        assert!((a.norm2() - 5.0).abs() < 1e-6);
        assert_eq!(a.mul(&a).unwrap().sum(), 25.0);
        assert_eq!(a.sum(), 7.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::new(Shape::of(&[2, 3]), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::new(Shape::of(&[3, 2]), vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_identity() {
        let a = Tensor::new(Shape::of(&[2, 2]), vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::new(Shape::of(&[2, 2]), vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_rejects_bad_shapes_as_typed_errors() {
        let a = Tensor::zeros(Shape::of(&[2, 3]));
        let b = Tensor::zeros(Shape::of(&[2, 2]));
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
        let flat = Tensor::zeros(Shape::of(&[4]));
        assert!(matches!(
            flat.matmul(&b),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
        assert!(matches!(
            b.matmul(&flat),
            Err(TensorError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn sum_all_is_associative_reference() {
        let ts: Vec<Tensor> = (0..5)
            .map(|i| Tensor::fill(Shape::of(&[4]), i as f32))
            .collect();
        let s = Tensor::sum_all(&ts).unwrap();
        assert_eq!(s.data(), &[10.0; 4]);
    }

    #[test]
    fn sum_all_reports_empty_and_mismatched_inputs() {
        assert!(matches!(
            Tensor::sum_all(&[]),
            Err(TensorError::EmptyInput { op: "sum_all" })
        ));
        let ts = [
            Tensor::zeros(Shape::of(&[2])),
            Tensor::zeros(Shape::of(&[3])),
        ];
        assert!(matches!(
            Tensor::sum_all(&ts),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn map_and_scale() {
        let a = Tensor::from_slice(&[1.0, -2.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, -4.0]);
        assert_eq!(a.map(f32::abs).data(), &[1.0, 2.0]);
    }

    #[test]
    fn max_abs_diff_finds_worst_element() {
        let a = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let b = Tensor::from_slice(&[1.0, 2.5, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
    }
}
