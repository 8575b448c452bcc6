//! Tensor shapes.

use std::fmt;

use serde::{Content, DeError, Deserialize, Serialize};

/// The extents of a tensor, one entry per dimension.
///
/// Rank-0 (scalar) shapes are allowed and have one element. The extents
/// live inline, up to [`Shape::MAX_RANK`] of them, so building or cloning
/// a shape — and so cloning a [`Tensor`](crate::Tensor) — never allocates.
///
/// ```
/// use multipod_tensor::Shape;
///
/// let s = Shape::of(&[4, 8, 3]);
/// assert_eq!(s.len(), 96);
/// assert_eq!(s.rank(), 3);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape {
    rank: u8,
    /// Slots at or above `rank` stay zero, so the derived `Eq` and `Hash`
    /// see only the live extents.
    dims: [usize; Shape::MAX_RANK],
}

impl Shape {
    /// The largest rank a shape holds.
    pub const MAX_RANK: usize = 3;

    /// Builds a shape from a slice of extents.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() > Shape::MAX_RANK`.
    pub fn of(dims: &[usize]) -> Shape {
        let rank = dims.len();
        assert!(rank <= Shape::MAX_RANK, "rank {rank} exceeds MAX_RANK");
        let mut shape = Shape::scalar();
        shape.rank = rank as u8;
        shape.dims[..rank].copy_from_slice(dims);
        shape
    }

    /// The scalar (rank-0) shape.
    pub fn scalar() -> Shape {
        Shape::default()
    }

    /// A rank-1 shape of the given length.
    pub fn vector(len: usize) -> Shape {
        Shape::of(&[len])
    }

    /// The extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank()]
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        usize::from(self.rank)
    }

    /// Extent of one dimension.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims()[axis]
    }

    /// Total number of elements (product of extents; 1 for scalars).
    pub fn len(&self) -> usize {
        self.dims().iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Converts a multi-index into a flat row-major offset, or `None` when
    /// `index` has the wrong rank or a coordinate is out of bounds.
    pub fn offset(&self, index: &[usize]) -> Option<usize> {
        if index.len() != self.rank() {
            return None;
        }
        let mut coords = index.iter().zip(self.dims());
        coords.try_fold(0, |off, (&i, &d)| (i < d).then(|| off * d + i))
    }

    /// Returns a copy with `axis` replaced by `extent`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.rank()`.
    pub fn with_dim(&self, axis: usize, extent: usize) -> Shape {
        let mut shape = self.clone();
        shape.dims[..self.rank()][axis] = extent;
        shape
    }

    /// Splits `axis` into `parts` equal chunks, returning the chunk shape.
    ///
    /// Returns `None` when the extent is not divisible by `parts`.
    pub fn split_axis(&self, axis: usize, parts: usize) -> Option<Shape> {
        let extent = *self.dims().get(axis)?;
        (parts > 0 && extent.is_multiple_of(parts)).then(|| self.with_dim(axis, extent / parts))
    }
}

/// A plain array of extents, as `Vec<usize>` would serialize.
impl Serialize for Shape {
    fn ser(&self) -> Content {
        self.dims().ser()
    }
}

impl Deserialize for Shape {
    fn de(content: &Content) -> Result<Shape, DeError> {
        let dims = Vec::<usize>::de(content)?;
        let rank = dims.len();
        (rank <= Shape::MAX_RANK)
            .then(|| Shape::of(&dims))
            .ok_or_else(|| DeError::msg(format_args!("rank {rank} exceeds MAX_RANK")))
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.dims())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.dims().iter().enumerate() {
            write!(f, "{}{d}", if i > 0 { "×" } else { "" })?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_has_one_element() {
        let s = Shape::scalar();
        assert_eq!(s.rank(), 0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn len_is_product_of_dims() {
        assert_eq!(Shape::of(&[2, 3, 4]).len(), 24);
        assert_eq!(Shape::of(&[7]).len(), 7);
        assert_eq!(Shape::of(&[5, 0, 2]).len(), 0);
        assert!(Shape::of(&[5, 0, 2]).is_empty());
    }

    #[test]
    fn offset_matches_strides() {
        let s = Shape::of(&[2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]), Some(0));
        assert_eq!(s.offset(&[1, 2, 3]), Some(23));
        assert_eq!(s.offset(&[1, 0, 2]), Some(14));
        assert_eq!(Shape::scalar().offset(&[]), Some(0));
    }

    #[test]
    fn offset_is_none_out_of_bounds_or_rank() {
        assert_eq!(Shape::of(&[2, 2]).offset(&[0, 2]), None);
        assert_eq!(Shape::of(&[2, 2]).offset(&[1, usize::MAX]), None);
        assert_eq!(Shape::of(&[2, 2]).offset(&[1]), None);
        assert_eq!(Shape::of(&[2, 2]).offset(&[0, 0, 0]), None);
    }

    #[test]
    fn split_axis_divides_evenly_or_fails() {
        let s = Shape::of(&[8, 6]);
        assert_eq!(s.split_axis(0, 4), Some(Shape::of(&[2, 6])));
        assert_eq!(s.split_axis(1, 3), Some(Shape::of(&[8, 2])));
        assert_eq!(s.split_axis(1, 4), None);
        assert_eq!(s.split_axis(2, 2), None);
        assert_eq!(s.split_axis(0, 0), None);
    }

    #[test]
    fn display_uses_times_sign() {
        assert_eq!(Shape::of(&[2, 3]).to_string(), "[2×3]");
        assert_eq!(Shape::scalar().to_string(), "[]");
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_RANK")]
    fn a_rank_past_the_cap_panics_in_of() {
        Shape::of(&[1; Shape::MAX_RANK + 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn with_dim_past_the_rank_panics() {
        Shape::of(&[2, 3]).with_dim(2, 1);
    }

    #[test]
    fn deserializing_a_rank_past_the_cap_is_a_typed_error() {
        let json = Content::Seq(vec![Content::U64(1); Shape::MAX_RANK + 1]);
        let err = Shape::de(&json).unwrap_err();
        assert!(err.0.contains("exceeds MAX_RANK"), "{err}");
    }
}
