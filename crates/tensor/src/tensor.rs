//! The dense tensor type.

use std::fmt;
use std::sync::Arc;

use serde::{Content, DeError, Deserialize, Serialize};

use crate::{Bf16, Shape, TensorError};

/// A dense, row-major `f32` tensor.
///
/// `Tensor` is the numeric currency of the workspace: collective payloads,
/// optimizer state and evaluation buffers are all `Tensor`s. Storage is
/// one `Arc<[f32]>` block (reference counts and elements) beside an inline
/// [`Shape`]: a 48-byte handle, one allocation per tensor. Every
/// constructor but [`Tensor::new`] writes the elements straight into that
/// block, and a producer that folds or assembles a buffer does it in a
/// fresh [`Tensor::zeros`]'s [`Tensor::data_mut`]; `new` moves a caller's
/// `Vec` into a new block, so it is the one door that copies.
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
#[derive(Clone)]
pub struct Tensor {
    shape: Shape,
    data: Arc<[f32]>,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape
            && (Arc::ptr_eq(&self.data, &other.data) || self.data == other.data)
    }
}

impl Tensor {
    /// Creates a tensor from a shape and matching data vector, copying the
    /// elements into the tensor's own block.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn new(shape: Shape, data: Vec<f32>) -> Tensor {
        Tensor::checked(shape, data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Tensor::new`]'s length check, shared with deserialization.
    fn checked(shape: Shape, data: Vec<f32>) -> Result<Tensor, TensorError> {
        match data.len() == shape.len() {
            true => Ok(Tensor {
                data: data.into(),
                shape,
            }),
            false => Err(TensorError::LengthMismatch {
                len: data.len(),
                shape,
            }),
        }
    }

    /// A tensor whose element at flat (row-major) index `i` is `f(i)`,
    /// built in place in one allocation.
    pub fn from_fn(shape: Shape, f: impl FnMut(usize) -> f32) -> Tensor {
        let data = (0..shape.len()).map(f).collect();
        Tensor { shape, data }
    }

    /// A tensor of zeros.
    pub fn zeros(shape: Shape) -> Tensor {
        Tensor::fill(shape, 0.0)
    }

    /// A tensor filled with a constant.
    pub fn fill(shape: Shape, value: f32) -> Tensor {
        Tensor::from_fn(shape, |_| value)
    }

    /// A rank-1 tensor from a slice.
    pub fn from_slice(values: &[f32]) -> Tensor {
        Tensor {
            shape: Shape::vector(values.len()),
            data: values.into(),
        }
    }

    /// A rank-0 tensor holding one value.
    pub fn scalar(value: f32) -> Tensor {
        Tensor::fill(Shape::scalar(), value)
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
        Arc::make_mut(&mut self.data)
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
        let inner: usize = self.shape.dims()[axis + 1..].iter().product();
        let run = extent / parts * inner;
        let mut out = Vec::with_capacity(parts);
        for p in 0..parts {
            let mut part = Tensor::zeros(chunk_shape.clone());
            for (o, dst) in part.data_mut().chunks_mut(run.max(1)).enumerate() {
                let base = o * extent * inner + p * run;
                dst.copy_from_slice(&self.data[base..base + run]);
            }
            out.push(part);
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
            .ok_or(TensorError::EmptyInput { op: "concat" })?;
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
        let mut out = Tensor::zeros(out_shape);
        let (data, mut at) = (out.data_mut(), 0);
        for o in 0..outer {
            for p in parts {
                let run = p.shape.dim(axis) * inner;
                data[at..at + run].copy_from_slice(&p.data[o * run..][..run]);
                at += run;
            }
        }
        Ok(out)
    }

    /// Quantizes every element through bf16 and back (lossy).
    ///
    /// Models demoting a gradient buffer to bfloat16 for the all-reduce
    /// payload (§3.3).
    pub fn to_bf16_precision(&self) -> Tensor {
        let mut quantized = self.clone();
        Bf16::quantize_slice(quantized.data_mut());
        quantized
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

impl Serialize for Tensor {
    fn ser(&self) -> Content {
        Content::Map(vec![
            ("shape".to_string(), self.shape.ser()),
            ("data".to_string(), self.data.ser()),
        ])
    }
}

/// Goes through [`Tensor::new`]'s length check, so data that does not
/// fill its shape is an error ([`TensorError::LengthMismatch`]), never a
/// tensor whose `len()` disagrees with its shape.
impl Deserialize for Tensor {
    fn de(content: &Content) -> Result<Tensor, DeError> {
        let field = |name| {
            let missing = || DeError::msg(format_args!("missing field `{name}` in Tensor"));
            content.get(name).ok_or_else(missing)
        };
        Tensor::checked(Shape::de(field("shape")?)?, Vec::de(field("data")?)?).map_err(DeError::msg)
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
    fn json_is_shape_then_data_and_a_short_buffer_is_an_error() {
        let t = Tensor::new(Shape::of(&[2, 1]), vec![1.0, -2.5]);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, r#"{"shape":[2,1],"data":[1.0,-2.5]}"#);
        assert_eq!(serde_json::from_str::<Tensor>(&json).unwrap(), t);
        let short = serde_json::from_str::<Tensor>(r#"{"shape":[2,2],"data":[1.0]}"#);
        let want = TensorError::LengthMismatch {
            shape: Shape::of(&[2, 2]),
            len: 1,
        };
        assert!(short.unwrap_err().to_string().contains(&want.to_string()));
        assert!(serde_json::from_str::<Tensor>(r#"{"data":[1.0]}"#).is_err());
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
        assert_eq!(
            Tensor::concat(&[], 0),
            Err(TensorError::EmptyInput { op: "concat" })
        );
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
