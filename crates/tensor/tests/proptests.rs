//! Property tests for the tensor substrate.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use multipod_tensor::{Bf16, Shape, Tensor};
use proptest::prelude::*;

fn small_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..6, 1..4)
}

/// Extents of rank 0 to `Shape::MAX_RANK`, small enough that two draws
/// are often equal.
fn any_dims() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..4, 0..Shape::MAX_RANK + 1)
}

fn hash_of(shape: &Shape) -> u64 {
    let mut hasher = DefaultHasher::new();
    shape.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    /// An inline `Shape` behaves as the `Vec<usize>` of its extents: the
    /// same accessors, the same derived shapes, equality (and so hashing)
    /// exactly when the extents are equal, the same text and the same
    /// JSON.
    #[test]
    fn shape_behaves_as_its_extents(
        v in any_dims(), w in any_dims(), axis in 0usize..4, parts in 0usize..4, extent in 0usize..9
    ) {
        let s = Shape::of(&v);
        prop_assert_eq!(s.dims(), &v[..]);
        prop_assert_eq!(s.rank(), v.len());
        prop_assert_eq!(s.len(), v.iter().product::<usize>());
        if axis < v.len() {
            let mut with = v.clone();
            with[axis] = extent;
            prop_assert_eq!(s.with_dim(axis, extent).dims().to_vec(), with);
        }
        let split = (axis < v.len() && parts > 0 && v[axis] % parts == 0).then(|| {
            let mut chunk = v.clone();
            chunk[axis] /= parts;
            Shape::of(&chunk)
        });
        prop_assert_eq!(s.split_axis(axis, parts), split);
        let t = Shape::of(&w);
        prop_assert_eq!(s == t, v == w);
        if s == t {
            prop_assert_eq!(hash_of(&s), hash_of(&t));
        }
        let text: Vec<String> = v.iter().map(usize::to_string).collect();
        prop_assert_eq!(s.to_string(), format!("[{}]", text.join("×")));
        prop_assert_eq!(format!("{s:?}"), format!("Shape{v:?}"));
        let json = serde_json::to_string(&s).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&v).unwrap());
        prop_assert_eq!(serde_json::from_str::<Shape>(&json).unwrap(), s);
    }

    /// Reading a tensor back goes through the length check: JSON whose
    /// data fills its shape with finite values round-trips bit for bit
    /// (and re-serializes to the same bytes); any other data length, or a
    /// non-finite value (written as `null`), is an error — never a tensor
    /// whose `len()` disagrees with its shape.
    #[test]
    fn tensor_json_round_trips_or_is_an_error(
        dims in any_dims(),
        bits in prop::collection::vec(0u32..u32::MAX, 30..31),
        fill in prop::bool::ANY,
        len in 0usize..30,
    ) {
        // Half the draws fill the shape (at most 27 elements); the rest
        // take any length.
        let len = if fill { dims.iter().product() } else { len };
        let values: Vec<f32> = bits[..len].iter().map(|&b| f32::from_bits(b)).collect();
        let json = format!(
            r#"{{"shape":{},"data":{}}}"#,
            serde_json::to_string(&dims).unwrap(),
            serde_json::to_string(&values).unwrap()
        );
        let fills = values.len() == dims.iter().product::<usize>();
        match serde_json::from_str::<Tensor>(&json) {
            Ok(t) => {
                prop_assert!(fills && values.iter().all(|v| v.is_finite()), "{}", json);
                prop_assert_eq!(t.shape().dims(), &dims[..]);
                let got: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = values.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want);
                prop_assert_eq!(serde_json::to_string(&t).unwrap(), json);
            }
            Err(_) => prop_assert!(!fills || values.iter().any(|v| !v.is_finite()), "{}", json),
        }
    }

    /// bf16 round-trip never increases relative error beyond epsilon/2.
    #[test]
    fn bf16_relative_error_bounded(x in -1e30f32..1e30f32) {
        prop_assume!(x.is_finite() && x != 0.0);
        let r = Bf16::round_trip(x);
        prop_assert!(((r - x) / x).abs() <= Bf16::EPSILON / 2.0 + 1e-9);
    }

    /// bf16 round-trip is idempotent: quantizing twice equals once.
    #[test]
    fn bf16_idempotent(x in proptest::num::f32::NORMAL) {
        let once = Bf16::round_trip(x);
        prop_assert_eq!(once, Bf16::round_trip(once));
    }

    /// bf16 conversion is monotone.
    #[test]
    fn bf16_monotone(a in -1e20f32..1e20f32, b in -1e20f32..1e20f32) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Bf16::round_trip(lo) <= Bf16::round_trip(hi));
    }

    /// split followed by concat is the identity, for every axis and any
    /// divisor of the axis extent.
    #[test]
    fn split_concat_roundtrip(dims in small_dims(), axis_sel in 0usize..4, parts_sel in 1usize..5) {
        let axis = axis_sel % dims.len();
        // Force divisibility by scaling the chosen axis.
        let mut dims = dims;
        dims[axis] *= parts_sel;
        let shape = Shape::of(&dims);
        let data: Vec<f32> = (0..shape.len()).map(|i| i as f32).collect();
        let t = Tensor::new(shape, data);
        let parts = t.split(axis, parts_sel).unwrap();
        prop_assert_eq!(parts.len(), parts_sel);
        let back = Tensor::concat(&parts, axis).unwrap();
        prop_assert_eq!(back, t);
    }

    /// sum_all equals per-element manual summation.
    #[test]
    fn sum_all_matches_reference(
        n in 1usize..6,
        len in 1usize..20,
        seedv in 0u64..1000,
    ) {
        use multipod_tensor::TensorRng;
        let mut rng = TensorRng::seed(seedv);
        let ts: Vec<Tensor> = (0..n)
            .map(|_| rng.uniform(Shape::of(&[len]), -10.0, 10.0))
            .collect();
        let s = Tensor::sum_all(&ts).unwrap();
        for i in 0..len {
            let manual: f32 = ts.iter().map(|t| t.data()[i]).sum();
            prop_assert!((s.data()[i] - manual).abs() < 1e-4);
        }
    }

    /// matmul distributes over a split of the contracting dimension:
    /// A·B == Σ_k A_k·B_k — the identity that model-parallel partial
    /// matmul + all-reduce relies on (§3.1).
    #[test]
    fn matmul_partial_sums(
        m in 1usize..5, k2 in 1usize..4, n in 1usize..5, parts in 1usize..4, seedv in 0u64..100
    ) {
        use multipod_tensor::TensorRng;
        let k = k2 * parts;
        let mut rng = TensorRng::seed(seedv);
        let a = rng.uniform(Shape::of(&[m, k]), -1.0, 1.0);
        let b = rng.uniform(Shape::of(&[k, n]), -1.0, 1.0);
        let full = a.matmul(&b).unwrap();
        let a_parts = a.split(1, parts).unwrap();
        let b_parts = b.split(0, parts).unwrap();
        let partials: Vec<Tensor> = a_parts
            .iter()
            .zip(&b_parts)
            .map(|(ap, bp)| ap.matmul(bp).unwrap())
            .collect();
        let summed = Tensor::sum_all(&partials).unwrap();
        prop_assert!(full.max_abs_diff(&summed) < 1e-4);
    }
}
