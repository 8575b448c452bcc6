//! The op vocabulary: what each op computes, defined once.
//!
//! An [`OpKind`] is an operation *without* its operands. The graph applies
//! one to [`NodeId`](crate::NodeId)s ([`Op::Apply`](crate::Op::Apply)), the
//! partitioned program to [`ValueId`](crate::ValueId)s
//! ([`ComputeOp::Apply`](crate::ComputeOp::Apply)); the shape rule, the
//! FLOP formula, the numeric kernel and the printed name below serve both.

use serde::{Deserialize, Serialize};

use multipod_tensor::{Shape, Tensor};

use crate::HloError;

/// The operations the IR supports — the minimum set that exercises every
/// partitioner mechanism the paper relies on: batch/spatial splits
/// (matmul rows, convolutions with halo exchange), contracted-dimension
/// splits (partial matmul + all-reduce), elementwise propagation, and
/// cross-shard reductions — plus the five kinds only a backward pass
/// emits. Operands are positional; the variant docs name them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpKind {
    /// Rank-2 matrix multiplication `lhs[m,k] × rhs[k,n]`.
    MatMul,
    /// 2-D "same"-padded convolution of `input[h,w]` with an odd
    /// `kernel[kh,kw]` (channels are folded into the cost model; the
    /// spatial dataflow is what partitioning cares about).
    Conv2dSame,
    /// Elementwise addition `lhs + rhs`.
    Add,
    /// Elementwise `max(input, 0)`.
    Relu,
    /// Sum-reduction of `input` over one axis.
    ReduceSum {
        /// Axis to reduce away.
        axis: usize,
    },
    /// Row gather: `output[i, :] = table[indices[i], :]` (the ROIAlign
    /// access pattern of §4.5; indices are a rank-1 tensor of row ids).
    Gather,
    /// The `k` largest values of a rank-1 `input`, descending (§4.5 lists
    /// top-k among the ops the paper added partitioner support for).
    TopK {
        /// How many values to keep.
        k: usize,
    },
    /// Rank-2 transpose of `input` (appears in every matmul gradient).
    Transpose,
    /// Elementwise (Hadamard) product `lhs ⊙ rhs`.
    Mul,
    /// The ReLU VJP: `upstream ⊙ (input > 0)`, applied to
    /// `(input, upstream)`.
    ReluGrad,
    /// Inserts `axis` with `extent` copies of `input` (the ReduceSum VJP).
    BroadcastAxis {
        /// Where to insert the new axis (`0..=rank`).
        axis: usize,
        /// Extent of the new axis.
        extent: usize,
    },
    /// 180° rotation of a rank-2 kernel (the conv-input VJP uses the
    /// flipped kernel).
    Rot180,
    /// The conv-kernel VJP, applied to `(input, upstream)`: `dK[a,b] =
    /// Σ_{i,j} upstream[i,j] · input[i+a−ph, j+b−pw]` for a `kh×kw` kernel.
    ConvKernelGrad {
        /// Kernel height (odd).
        kh: usize,
        /// Kernel width (odd).
        kw: usize,
    },
    /// The gather VJP, applied to `(indices, upstream)`: scatter-adds
    /// `upstream` rows into a zero table of `rows` rows.
    ScatterAdd {
        /// Rows of the (gradient) table.
        rows: usize,
    },
}

impl OpKind {
    /// The name the op prints under (and errors are reported against).
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::MatMul => "matmul",
            OpKind::Conv2dSame => "conv2d_same",
            OpKind::Add => "add",
            OpKind::Relu => "relu",
            OpKind::ReduceSum { .. } => "reduce_sum",
            OpKind::Gather => "gather",
            OpKind::TopK { .. } => "top_k",
            OpKind::Transpose => "transpose",
            OpKind::Mul => "mul",
            OpKind::ReluGrad => "relu_grad",
            OpKind::BroadcastAxis { .. } => "broadcast_axis",
            OpKind::Rot180 => "rot180",
            OpKind::ConvKernelGrad { .. } => "conv_kernel_grad",
            OpKind::ScatterAdd { .. } => "scatter_add",
        }
    }

    /// The scalar parameters as they print after the operands.
    pub(crate) fn attrs(&self) -> Vec<String> {
        match *self {
            OpKind::ReduceSum { axis } => vec![format!("axis={axis}")],
            OpKind::TopK { k } => vec![format!("k={k}")],
            OpKind::BroadcastAxis { axis, extent } => {
                vec![format!("axis={axis}"), format!("extent={extent}")]
            }
            OpKind::ConvKernelGrad { kh, kw } => vec![format!("{kh}x{kw}")],
            OpKind::ScatterAdd { rows } => vec![format!("rows={rows}")],
            _ => Vec::new(),
        }
    }

    /// How many operands the op takes (1 or 2).
    pub fn arity(&self) -> usize {
        match self {
            OpKind::Relu
            | OpKind::ReduceSum { .. }
            | OpKind::TopK { .. }
            | OpKind::Transpose
            | OpKind::BroadcastAxis { .. }
            | OpKind::Rot180 => 1,
            OpKind::MatMul
            | OpKind::Conv2dSame
            | OpKind::Add
            | OpKind::Gather
            | OpKind::Mul
            | OpKind::ReluGrad
            | OpKind::ConvKernelGrad { .. }
            | OpKind::ScatterAdd { .. } => 2,
        }
    }

    /// Positional operands as `(first, second)`. A unary kind, which
    /// never reads the second, gets its first again.
    pub(crate) fn pair<T: Copy>(&self, operands: &[T]) -> (T, T) {
        (operands[0], operands[self.arity() - 1])
    }

    /// Infers the output shape from operand shapes. Everything else here
    /// ([`OpKind::flops`], [`OpKind::evaluate`]) may assume operands this
    /// accepted.
    ///
    /// # Errors
    ///
    /// Returns [`HloError::ShapeMismatch`] for the wrong number of
    /// operands or incompatible ones.
    pub fn infer_shape(&self, operand_shapes: &[&Shape]) -> Result<Shape, HloError> {
        let fail = || HloError::ShapeMismatch {
            op: self.name(),
            shapes: operand_shapes.iter().map(|s| (*s).clone()).collect(),
        };
        if operand_shapes.len() != self.arity() {
            return Err(fail());
        }
        let (a, b) = self.pair(operand_shapes);
        let rank2 = |s: &Shape| s.rank() == 2;
        let shape = match *self {
            OpKind::MatMul => (rank2(a) && rank2(b) && a.dim(1) == b.dim(0))
                .then(|| Shape::of(&[a.dim(0), b.dim(1)])),
            OpKind::Conv2dSame => (rank2(a)
                && rank2(b)
                && b.dim(0) % 2 == 1
                && b.dim(1) % 2 == 1
                && b.dim(0) <= a.dim(0)
                && b.dim(1) <= a.dim(1))
            .then(|| a.clone()),
            OpKind::Add | OpKind::Mul | OpKind::ReluGrad => (a == b).then(|| a.clone()),
            OpKind::Relu => Some(a.clone()),
            OpKind::ReduceSum { axis } => (axis < a.rank()).then(|| without_axis(a, axis)),
            OpKind::Gather => (rank2(a) && b.rank() == 1).then(|| Shape::of(&[b.dim(0), a.dim(1)])),
            OpKind::TopK { k } => {
                (a.rank() == 1 && k > 0 && k <= a.dim(0)).then(|| Shape::vector(k))
            }
            OpKind::Transpose => rank2(a).then(|| Shape::of(&[a.dim(1), a.dim(0)])),
            OpKind::BroadcastAxis { axis, extent } => {
                (axis <= a.rank() && a.rank() < Shape::MAX_RANK && extent > 0)
                    .then(|| with_axis(a, axis, extent))
            }
            OpKind::Rot180 => rank2(a).then(|| a.clone()),
            OpKind::ConvKernelGrad { kh, kw } => {
                (rank2(a) && b == a && kh % 2 == 1 && kw % 2 == 1).then(|| Shape::of(&[kh, kw]))
            }
            OpKind::ScatterAdd { rows } => {
                (a.rank() == 1 && rank2(b) && b.dim(0) == a.dim(0) && rows > 0)
                    .then(|| Shape::of(&[rows, b.dim(1)]))
            }
        };
        shape.ok_or_else(fail)
    }

    /// Floating-point operations for executing this op on the given
    /// operand shapes (forward pass) — global shapes in a graph, per-core
    /// shapes in a partitioned program.
    pub fn flops(&self, operand_shapes: &[&Shape], out_shape: &Shape) -> u64 {
        let (a, b) = self.pair(operand_shapes);
        let elems = |s: &Shape| s.len() as u64;
        match *self {
            OpKind::MatMul => 2 * elems(a) * b.dim(1) as u64,
            OpKind::Conv2dSame => 2 * elems(out_shape) * elems(b),
            OpKind::Add | OpKind::Relu | OpKind::Mul | OpKind::ReluGrad => elems(out_shape),
            OpKind::ReduceSum { .. } | OpKind::TopK { .. } => elems(a),
            // A gather is memory movement, not FLOPs, which is exactly
            // why it runs poorly on the MXU (§4.5).
            OpKind::Gather => 0,
            OpKind::Transpose | OpKind::Rot180 | OpKind::BroadcastAxis { .. } => 0,
            OpKind::ConvKernelGrad { kh, kw } => 2 * elems(a) * (kh * kw) as u64,
            OpKind::ScatterAdd { .. } => elems(b),
        }
    }

    /// Executes the op on concrete operand tensors — the kernel set of
    /// both the reference interpreter and the partitioned executor.
    ///
    /// # Errors
    ///
    /// Fails when a tensor kernel rejects its operands, or a gather /
    /// scatter index names a row the table does not have (indices are
    /// data, so no shape rule can rule that out).
    pub fn evaluate(&self, operands: &[&Tensor]) -> Result<Tensor, HloError> {
        let (a, b) = self.pair(operands);
        Ok(match *self {
            OpKind::MatMul => a.matmul(b)?,
            OpKind::Conv2dSame => conv2d(a, b, [false, false]),
            OpKind::Add => a.add(b)?,
            OpKind::Relu => a.map(|v| v.max(0.0)),
            OpKind::ReduceSum { axis } => reduce_sum(a, axis),
            OpKind::Gather => gather_rows(a, b)?,
            OpKind::TopK { k } => top_k(a, k),
            OpKind::Transpose => transpose2(a),
            OpKind::Mul => a.mul(b)?,
            OpKind::ReluGrad => relu_grad(a, b),
            OpKind::BroadcastAxis { axis, extent } => broadcast_axis(a, axis, extent),
            OpKind::Rot180 => rot180(a),
            OpKind::ConvKernelGrad { kh, kw } => conv_kernel_grad(a, b, kh, kw),
            OpKind::ScatterAdd { rows } => scatter_add(a, b, rows)?,
        })
    }
}

/// `shape` with `axis` removed.
fn without_axis(shape: &Shape, axis: usize) -> Shape {
    let mut dims = shape.dims().to_vec();
    dims.remove(axis);
    Shape::of(&dims)
}

/// `shape` with a new `axis` of `extent` inserted.
fn with_axis(shape: &Shape, axis: usize, extent: usize) -> Shape {
    let mut dims = shape.dims().to_vec();
    dims.insert(axis, extent);
    Shape::of(&dims)
}

/// Rank-2 transpose.
fn transpose2(t: &Tensor) -> Tensor {
    let (m, n) = (t.shape().dim(0), t.shape().dim(1));
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = t.data()[i * n + j];
        }
    }
    Tensor::new(Shape::of(&[n, m]), out)
}

/// `upstream ⊙ (input > 0)`.
fn relu_grad(input: &Tensor, upstream: &Tensor) -> Tensor {
    let data = input
        .data()
        .iter()
        .zip(upstream.data())
        .map(|(&x, &g)| if x > 0.0 { g } else { 0.0 })
        .collect();
    Tensor::new(input.shape().clone(), data)
}

/// Inserts `axis` with `extent` copies of the input.
fn broadcast_axis(t: &Tensor, axis: usize, extent: usize) -> Tensor {
    let outer: usize = t.shape().dims()[..axis].iter().product();
    let inner: usize = t.shape().dims()[axis..].iter().product();
    let mut out = Vec::with_capacity(t.len() * extent);
    for o in 0..outer {
        for _ in 0..extent {
            out.extend_from_slice(&t.data()[o * inner..(o + 1) * inner]);
        }
    }
    Tensor::new(with_axis(t.shape(), axis, extent), out)
}

/// 180° rotation of a rank-2 tensor.
fn rot180(t: &Tensor) -> Tensor {
    let mut data = t.data().to_vec();
    data.reverse();
    Tensor::new(t.shape().clone(), data)
}

/// The conv-kernel VJP (see [`OpKind::ConvKernelGrad`]).
fn conv_kernel_grad(input: &Tensor, upstream: &Tensor, kh: usize, kw: usize) -> Tensor {
    let (h, w) = (input.shape().dim(0), input.shape().dim(1));
    let (ph, pw) = (kh / 2, kw / 2);
    let mut out = vec![0.0f32; kh * kw];
    for a in 0..kh {
        for b in 0..kw {
            let mut acc = 0.0f32;
            for i in 0..h {
                for j in 0..w {
                    let ii = i as isize + a as isize - ph as isize;
                    let jj = j as isize + b as isize - pw as isize;
                    if ii >= 0 && (ii as usize) < h && jj >= 0 && (jj as usize) < w {
                        acc += upstream.data()[i * w + j]
                            * input.data()[ii as usize * w + jj as usize];
                    }
                }
            }
            out[a * kw + b] = acc;
        }
    }
    Tensor::new(Shape::of(&[kh, kw]), out)
}

/// The row a (rounded) f32 index names, if the table has it.
fn row_index(op: &'static str, raw: f32, rows: usize) -> Result<usize, HloError> {
    let index = raw.round() as usize;
    if index < rows {
        Ok(index)
    } else {
        Err(HloError::IndexOutOfRange { op, index, rows })
    }
}

/// Scatter-adds `upstream` rows into a `rows × d` zero table.
fn scatter_add(indices: &Tensor, upstream: &Tensor, rows: usize) -> Result<Tensor, HloError> {
    let d = upstream.shape().dim(1);
    let mut out = vec![0.0f32; rows * d];
    for (i, &raw) in indices.data().iter().enumerate() {
        let r = row_index("scatter_add", raw, rows)?;
        for c in 0..d {
            out[r * d + c] += upstream.data()[i * d + c];
        }
    }
    Ok(Tensor::new(Shape::of(&[rows, d]), out))
}

/// Gathers rows of a rank-2 `table` by (rounded) f32 `indices`.
fn gather_rows(table: &Tensor, indices: &Tensor) -> Result<Tensor, HloError> {
    let (rows, cols) = (table.shape().dim(0), table.shape().dim(1));
    let mut out = Vec::with_capacity(indices.len() * cols);
    for &raw in indices.data() {
        let r = row_index("gather", raw, rows)?;
        out.extend_from_slice(&table.data()[r * cols..(r + 1) * cols]);
    }
    Ok(Tensor::new(Shape::of(&[indices.len(), cols]), out))
}

/// The per-core half of the onehot-matmul gather over a row-partitioned
/// table: rows this core owns (`row_offset..row_offset + rows_local` of
/// `rows`) contribute their values; remote rows contribute zeros (the
/// partial product of `onehot[k, rows_local] × table[rows_local, d]`).
pub(crate) fn gather_partial(
    table_shard: &Tensor,
    indices: &Tensor,
    row_offset: usize,
    rows: usize,
) -> Result<Tensor, HloError> {
    let (rows_local, cols) = (table_shard.shape().dim(0), table_shard.shape().dim(1));
    let mut out = vec![0.0f32; indices.len() * cols];
    for (i, &raw) in indices.data().iter().enumerate() {
        let r = row_index("gather", raw, rows)?;
        if (row_offset..row_offset + rows_local).contains(&r) {
            let local = r - row_offset;
            out[i * cols..(i + 1) * cols]
                .copy_from_slice(&table_shard.data()[local * cols..(local + 1) * cols]);
        }
    }
    Ok(Tensor::new(Shape::of(&[indices.len(), cols]), out))
}

/// The `k` largest values, descending.
fn top_k(input: &Tensor, k: usize) -> Tensor {
    let mut values = input.data().to_vec();
    values.sort_unstable_by(|a, b| b.total_cmp(a));
    values.truncate(k);
    Tensor::new(Shape::vector(k), values)
}

/// 2-D convolution of `input` with an odd `kernel`. Each axis is either
/// *same* (zero-padded: the extent is kept) or *valid* (no padding: the
/// extent shrinks by `k − 1`) — a partitioned tile is convolved *valid*
/// along the axis whose halo already carries the neighbour rows.
pub(crate) fn conv2d(input: &Tensor, kernel: &Tensor, valid: [bool; 2]) -> Tensor {
    let (h, w) = (input.shape().dim(0), input.shape().dim(1));
    let (kh, kw) = (kernel.shape().dim(0), kernel.shape().dim(1));
    // Output extent and leading pad of an axis.
    let axis = |valid: bool, n: usize, k: usize| if valid { (n + 1 - k, 0) } else { (n, k / 2) };
    let ((oh, ph), (ow, pw)) = (axis(valid[0], h, kh), axis(valid[1], w, kw));
    let mut out = vec![0.0f32; oh * ow];
    for i in 0..oh {
        for j in 0..ow {
            let mut acc = 0.0f32;
            for a in 0..kh {
                for b in 0..kw {
                    let (Some(ii), Some(jj)) = ((i + a).checked_sub(ph), (j + b).checked_sub(pw))
                    else {
                        continue;
                    };
                    if ii < h && jj < w {
                        acc += input.data()[ii * w + jj] * kernel.data()[a * kw + b];
                    }
                }
            }
            out[i * ow + j] = acc;
        }
    }
    Tensor::new(Shape::of(&[oh, ow]), out)
}

fn reduce_sum(input: &Tensor, axis: usize) -> Tensor {
    let shape = input.shape();
    let extent = shape.dim(axis);
    let outer: usize = shape.dims()[..axis].iter().product();
    let inner: usize = shape.dims()[axis + 1..].iter().product();
    let mut out = vec![0.0f32; outer * inner];
    for o in 0..outer {
        for e in 0..extent {
            for i in 0..inner {
                out[o * inner + i] += input.data()[(o * extent + e) * inner + i];
            }
        }
    }
    Tensor::new(without_axis(shape, axis), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_shape_inference() {
        let (a, b) = (Shape::of(&[2, 3]), Shape::of(&[3, 5]));
        assert_eq!(
            OpKind::MatMul.infer_shape(&[&a, &b]).unwrap(),
            Shape::of(&[2, 5])
        );
        let bad = Shape::of(&[4, 5]);
        assert!(OpKind::MatMul.infer_shape(&[&a, &bad]).is_err());
    }

    #[test]
    fn wrong_operand_count_is_a_shape_error_not_a_panic() {
        let a = Shape::of(&[2, 2]);
        for kind in [OpKind::MatMul, OpKind::Relu, OpKind::TopK { k: 1 }] {
            for shapes in [&[][..], &[&a, &a, &a][..]] {
                assert!(matches!(
                    kind.infer_shape(shapes),
                    Err(HloError::ShapeMismatch { op, .. }) if op == kind.name()
                ));
            }
        }
        assert!(OpKind::MatMul.infer_shape(&[&a]).is_err());
        assert!(OpKind::Relu.infer_shape(&[&a, &a]).is_err());
    }

    #[test]
    fn broadcast_past_the_rank_cap_is_a_shape_error_not_a_panic() {
        let op = OpKind::BroadcastAxis { axis: 0, extent: 2 };
        let below = Shape::of(&[1; Shape::MAX_RANK - 1]);
        assert_eq!(op.infer_shape(&[&below]).unwrap().rank(), Shape::MAX_RANK);
        let at_cap = Shape::of(&[1; Shape::MAX_RANK]);
        assert!(matches!(
            op.infer_shape(&[&at_cap]),
            Err(HloError::ShapeMismatch {
                op: "broadcast_axis",
                ..
            })
        ));
    }

    #[test]
    fn conv_shape_requires_odd_kernel() {
        let op = OpKind::Conv2dSame;
        let img = Shape::of(&[8, 8]);
        assert!(op.infer_shape(&[&img, &Shape::of(&[3, 3])]).is_ok());
        assert!(op.infer_shape(&[&img, &Shape::of(&[2, 3])]).is_err());
        assert!(op.infer_shape(&[&img, &Shape::of(&[9, 9])]).is_err());
    }

    #[test]
    fn reduce_sum_drops_axis() {
        let op = OpKind::ReduceSum { axis: 0 };
        let s = Shape::of(&[4, 6]);
        assert_eq!(op.infer_shape(&[&s]).unwrap(), Shape::of(&[6]));
        let t = Tensor::new(Shape::of(&[2, 3]), vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(reduce_sum(&t, 0).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(reduce_sum(&t, 1).data(), &[6.0, 15.0]);
    }

    #[test]
    fn conv_same_matches_valid_on_padded_input() {
        let img = Tensor::new(Shape::of(&[3, 3]), (1..=9).map(|v| v as f32).collect());
        let k = Tensor::new(Shape::of(&[3, 3]), vec![0., 0., 0., 0., 1., 0., 0., 0., 0.]);
        // Identity kernel: same conv returns the image.
        assert_eq!(conv2d(&img, &k, [false, false]), img);
        // Valid conv on a 3x3 with 3x3 kernel returns a single value.
        let v = conv2d(&img, &k, [true, true]);
        assert_eq!(v.shape().dims(), &[1, 1]);
        assert_eq!(v.data(), &[5.0]);
    }

    #[test]
    fn gather_and_topk_shapes() {
        let table = Shape::of(&[10, 4]);
        let idx = Shape::of(&[3]);
        assert_eq!(
            OpKind::Gather.infer_shape(&[&table, &idx]).unwrap(),
            Shape::of(&[3, 4])
        );
        assert!(OpKind::Gather.infer_shape(&[&idx, &idx]).is_err());
        let ten = Shape::of(&[10]);
        assert_eq!(
            OpKind::TopK { k: 3 }.infer_shape(&[&ten]).unwrap(),
            Shape::of(&[3])
        );
        assert!(OpKind::TopK { k: 11 }.infer_shape(&[&ten]).is_err());
    }

    #[test]
    fn gather_and_topk_evaluate() {
        let table = Tensor::new(Shape::of(&[3, 2]), vec![1., 2., 3., 4., 5., 6.]);
        let idx = Tensor::from_slice(&[2.0, 0.0]);
        let g = gather_rows(&table, &idx).unwrap();
        assert_eq!(g.data(), &[5., 6., 1., 2.]);
        let t = top_k(&Tensor::from_slice(&[3., 1., 4., 1., 5.]), 3);
        assert_eq!(t.data(), &[5., 4., 3.]);
    }

    #[test]
    fn out_of_range_rows_are_typed_errors_not_panics() {
        let table = Tensor::new(Shape::of(&[3, 2]), vec![1., 2., 3., 4., 5., 6.]);
        let idx = Tensor::from_slice(&[1.0, 3.0]);
        assert_eq!(
            OpKind::Gather.evaluate(&[&table, &idx]).unwrap_err(),
            HloError::IndexOutOfRange {
                op: "gather",
                index: 3,
                rows: 3
            }
        );
        let upstream = Tensor::zeros(Shape::of(&[2, 2]));
        assert_eq!(
            OpKind::ScatterAdd { rows: 3 }
                .evaluate(&[&idx, &upstream])
                .unwrap_err(),
            HloError::IndexOutOfRange {
                op: "scatter_add",
                index: 3,
                rows: 3
            }
        );
        // The onehot half checks against the whole table, not its shard.
        assert!(gather_partial(&table, &idx, 3, 6).is_ok());
        assert!(gather_partial(&table, &idx, 0, 3).is_err());
    }

    #[test]
    fn flops_accounting() {
        let (a, b, o) = (Shape::of(&[2, 3]), Shape::of(&[3, 5]), Shape::of(&[2, 5]));
        assert_eq!(OpKind::MatMul.flops(&[&a, &b], &o), 2 * 2 * 3 * 5);
        let (i, k) = (Shape::of(&[4, 4]), Shape::of(&[3, 3]));
        assert_eq!(OpKind::Conv2dSame.flops(&[&i, &k], &i), 2 * 16 * 9);
    }
}
