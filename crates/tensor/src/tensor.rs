//! The dense tensor type.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::{Bf16, Shape, TensorError};

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is the numeric currency of the workspace: collective payloads,
/// optimizer state and evaluation buffers are all `Tensor`s. Storage is a
/// flat `Arc<Vec<f32>>` with copy-on-write semantics.
///
/// # Copy-on-write invariants
///
/// * [`Tensor::clone`] is O(1): it bumps the `Arc` refcount and shares the
///   underlying buffer with the original. Ring collectives exploit this to
///   move chunks by handle instead of copying payload bytes on every hop.
/// * Shared storage is never mutated. [`Tensor::data_mut`] goes through
///   [`Arc::make_mut`], which detaches (deep-copies) the buffer first
///   *iff* it is shared; a uniquely owned tensor mutates in place with no
///   copy. Holders of other handles can therefore never observe a write
///   through this one.
/// * Reads ([`Tensor::data`], [`Tensor::at`]) never copy or detach.
/// * [`Tensor::reshape`] only rewrites the shape; the buffer (and any
///   sharing) is preserved. [`Tensor::split`] and [`Tensor::concat`]
///   materialize fresh, uniquely owned buffers.
///
/// Numerics are unaffected: detaching copies bits verbatim, so CoW tensors
/// are bit-identical to the eagerly copied representation they replaced.
#[derive(Clone, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f32>>,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape
            && (Arc::ptr_eq(&self.data, &other.data) || self.data == other.data)
    }
}

impl Tensor {
    /// Creates a tensor from a shape and matching data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn new(shape: Shape, data: Vec<f32>) -> Tensor {
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor {
            shape,
            data: Arc::new(data),
        }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: Shape) -> Tensor {
        let len = shape.len();
        Tensor::new(shape, vec![0.0; len])
    }

    /// A tensor filled with a constant.
    pub fn fill(shape: Shape, value: f32) -> Tensor {
        let len = shape.len();
        Tensor::new(shape, vec![value; len])
    }

    /// A rank-1 tensor from a slice.
    pub fn from_slice(values: &[f32]) -> Tensor {
        Tensor::new(Shape::vector(values.len()), values.to_vec())
    }

    /// A rank-0 tensor holding one value.
    pub fn scalar(value: f32) -> Tensor {
        Tensor::new(Shape::scalar(), vec![value])
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read-only view of the flat data. Never copies or detaches.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat data.
    ///
    /// Detaches (deep-copies) the buffer first when it is shared with other
    /// handles, so writes are never visible through another `Tensor`.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Whether two tensors share the same underlying buffer (a
    /// copy-on-write alias). Diagnostic; numerics never depend on this.
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Element access by multi-index, or `None` when the index has the
    /// wrong rank or is out of bounds (see [`Shape::offset`]).
    pub fn at(&self, index: &[usize]) -> Option<f32> {
        self.shape.offset(index).map(|i| self.data[i])
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if element counts differ.
    pub fn reshape(mut self, shape: Shape) -> Result<Tensor, TensorError> {
        if shape.len() != self.data.len() {
            return Err(TensorError::ShapeMismatch {
                op: "reshape",
                lhs: self.shape.clone(),
                rhs: shape,
            });
        }
        self.shape = shape;
        Ok(self)
    }

    /// Splits the tensor into `parts` equal chunks along `axis`, cloning
    /// the data of each chunk.
    ///
    /// This is the data movement behind both SPMD sharding and
    /// reduce-scatter sharding.
    ///
    /// # Errors
    ///
    /// Returns an error when `axis` is out of range or the extent is not
    /// divisible by `parts`.
    pub fn split(&self, axis: usize, parts: usize) -> Result<Vec<Tensor>, TensorError> {
        let rank = self.shape.rank();
        let Some(&extent) = self.shape.dims().get(axis) else {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        };
        let not_divisible = TensorError::NotDivisible { dim: extent, parts };
        let chunk_shape = self.shape.split_axis(axis, parts).ok_or(not_divisible)?;
        let outer: usize = self.shape.dims()[..axis].iter().product();
        let inner: usize = self.shape.dims()[axis + 1..].iter().product();
        let chunk_extent = extent / parts;
        let mut out = Vec::with_capacity(parts);
        for p in 0..parts {
            let mut data = Vec::with_capacity(chunk_shape.len());
            for o in 0..outer {
                let base = (o * extent + p * chunk_extent) * inner;
                data.extend_from_slice(&self.data[base..base + chunk_extent * inner]);
            }
            out.push(Tensor::new(chunk_shape.clone(), data));
        }
        Ok(out)
    }

    /// Concatenates tensors along `axis`; the inverse of [`Tensor::split`].
    ///
    /// # Errors
    ///
    /// Returns an error when the list is empty, shapes disagree off-axis,
    /// or `axis` is out of range.
    pub fn concat(parts: &[Tensor], axis: usize) -> Result<Tensor, TensorError> {
        let first = parts
            .first()
            .ok_or(TensorError::NotDivisible { dim: 0, parts: 0 })?;
        let rank = first.shape.rank();
        if axis >= rank {
            return Err(TensorError::AxisOutOfRange { axis, rank });
        }
        let mut total_axis = 0usize;
        for p in parts {
            if p.shape.rank() != rank
                || p.shape
                    .dims()
                    .iter()
                    .enumerate()
                    .any(|(i, &d)| i != axis && d != first.shape.dim(i))
            {
                return Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: first.shape.clone(),
                    rhs: p.shape.clone(),
                });
            }
            total_axis += p.shape.dim(axis);
        }
        let out_shape = first.shape.with_dim(axis, total_axis);
        let outer: usize = first.shape.dims()[..axis].iter().product();
        let inner: usize = first.shape.dims()[axis + 1..].iter().product();
        let mut data = Vec::with_capacity(out_shape.len());
        for o in 0..outer {
            for p in parts {
                let e = p.shape.dim(axis);
                let base = o * e * inner;
                data.extend_from_slice(&p.data[base..base + e * inner]);
            }
        }
        Ok(Tensor::new(out_shape, data))
    }

    /// Quantizes every element through bf16 and back (lossy).
    ///
    /// Models demoting a gradient buffer to bfloat16 for the all-reduce
    /// payload (§3.3).
    pub fn to_bf16_precision(&self) -> Tensor {
        let mut data = (*self.data).clone();
        Bf16::quantize_slice(&mut data);
        Tensor::new(self.shape.clone(), data)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 8 {
            write!(f, "Tensor({} {:?})", self.shape, self.data)
        } else {
            write!(
                f,
                "Tensor({} [{} elements, first={}])",
                self.shape,
                self.len(),
                self.data[0]
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(shape: &[usize]) -> Tensor {
        let s = Shape::of(shape);
        let data = (0..s.len()).map(|i| i as f32).collect();
        Tensor::new(s, data)
    }

    #[test]
    fn constructors_agree_on_len() {
        assert_eq!(Tensor::zeros(Shape::of(&[3, 4])).len(), 12);
        assert_eq!(Tensor::fill(Shape::of(&[2]), 7.0).data(), &[7.0, 7.0]);
        assert_eq!(Tensor::scalar(5.0).len(), 1);
        assert_eq!(Tensor::from_slice(&[1.0, 2.0]).shape().dims(), &[2]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn new_rejects_wrong_length() {
        Tensor::new(Shape::of(&[2, 2]), vec![0.0; 3]);
    }

    #[test]
    fn indexing_is_row_major() {
        let t = iota(&[2, 3]);
        assert_eq!(t.at(&[0, 0]), Some(0.0));
        assert_eq!(t.at(&[0, 2]), Some(2.0));
        assert_eq!(t.at(&[1, 0]), Some(3.0));
        assert_eq!(t.at(&[1, 2]), Some(5.0));
        assert_eq!(t.at(&[2, 0]), None);
        assert_eq!(t.at(&[1]), None);
    }

    #[test]
    fn split_axis0_gives_contiguous_chunks() {
        let t = iota(&[4, 2]);
        let parts = t.split(0, 2).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].data(), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(parts[1].data(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn split_axis1_interleaves() {
        let t = iota(&[2, 4]);
        let parts = t.split(1, 2).unwrap();
        assert_eq!(parts[0].data(), &[0.0, 1.0, 4.0, 5.0]);
        assert_eq!(parts[1].data(), &[2.0, 3.0, 6.0, 7.0]);
    }

    #[test]
    fn concat_inverts_split_on_every_axis() {
        let t = iota(&[4, 6, 2]);
        for axis in 0..3 {
            let parts = t.split(axis, 2).unwrap();
            let back = Tensor::concat(&parts, axis).unwrap();
            assert_eq!(back, t, "axis {axis}");
        }
    }

    #[test]
    fn split_errors_are_precise() {
        let t = iota(&[4, 3]);
        assert!(matches!(
            t.split(5, 2),
            Err(TensorError::AxisOutOfRange { axis: 5, rank: 2 })
        ));
        assert!(matches!(
            t.split(1, 2),
            Err(TensorError::NotDivisible { dim: 3, parts: 2 })
        ));
    }

    #[test]
    fn concat_rejects_mismatched_shapes() {
        let a = iota(&[2, 2]);
        let b = iota(&[3, 3]);
        assert!(Tensor::concat(&[a, b], 0).is_err());
        assert!(Tensor::concat(&[], 0).is_err());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = iota(&[2, 6]);
        let r = t.clone().reshape(Shape::of(&[3, 4])).unwrap();
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(Shape::of(&[5])).is_err());
    }

    #[test]
    fn bf16_precision_is_lossy_but_close() {
        let t = Tensor::from_slice(&[1.0 + 1.0 / 512.0, 2.0, -3.25]);
        let q = t.to_bf16_precision();
        assert_eq!(q.data()[0], 1.0);
        assert_eq!(q.data()[1], 2.0);
        assert_eq!(q.data()[2], -3.25);
    }

    #[test]
    fn clone_shares_storage() {
        let t = iota(&[4, 4]);
        let c = t.clone();
        assert!(t.shares_storage(&c));
        assert_eq!(t, c);
        // Reshape keeps the buffer shared.
        let r = c.clone().reshape(Shape::of(&[16])).unwrap();
        assert!(r.shares_storage(&t));
    }

    #[test]
    fn mutation_detaches_shared_storage() {
        let t = iota(&[4]);
        let mut c = t.clone();
        c.data_mut()[0] = 99.0;
        assert!(!t.shares_storage(&c));
        assert_eq!(t.data()[0], 0.0, "original must not see the write");
        assert_eq!(c.data()[0], 99.0);
    }

    #[test]
    fn unique_tensor_mutates_without_copy() {
        let mut t = iota(&[4]);
        let before = t.data().as_ptr();
        t.data_mut()[2] = 7.0;
        assert_eq!(t.data().as_ptr(), before, "unshared mutation is in place");
    }
}
