//! Chunked, autovectorizer-friendly slice kernels.
//!
//! The simulator's numerically real work — collective reductions, optimizer
//! trust ratios, partial matmuls — bottoms out in the loops here. Each
//! kernel processes fixed-width lanes ([`LANES`] elements) through
//! `chunks_exact`, which gives the compiler provably uniform trip counts to
//! vectorize, then handles the remainder scalar.
//!
//! Two determinism classes, chosen per kernel:
//!
//! * **Bit-exact under chunking** — elementwise kernels ([`axpy`],
//!   [`scale_into`], [`zip_into`]): every output element depends on exactly
//!   one input element, so lane width cannot change results. Collective
//!   golden tests pin these bits.
//! * **Fixed reassociation** — reductions ([`sum`], [`sum_squares`]): the
//!   sequential fold is reassociated into [`LANES`] partial
//!   accumulators combined in a fixed tree. Results can differ from the
//!   sequential fold by rounding ulps but are identical run to run and
//!   across platforms.

/// Lane width of every chunked kernel: 8 × f32 is one AVX2 register, two
/// NEON registers, and divides every tensor extent in the model catalog.
pub const LANES: usize = 8;

/// In-place `dst[i] += alpha * src[i]` (BLAS axpy). Bit-exact under
/// chunking.
///
/// # Panics
///
/// Panics when the slices differ in length (caller validates shapes).
pub fn axpy(dst: &mut [f32], alpha: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "axpy length mismatch");
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (dc, sc) in d.by_ref().zip(s.by_ref()) {
        for i in 0..LANES {
            dc[i] += alpha * sc[i];
        }
    }
    for (dv, &sv) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dv += alpha * sv;
    }
}

/// Writes `a[i] * alpha` to `out[i]`. Bit-exact under chunking.
pub fn scale_into(out: &mut [f32], a: &[f32], alpha: f32) {
    zip_into(out, a, a, |v, _| v * alpha);
}

/// Writes `f(a[i], b[i])` to `out[i]` for every element pair. Bit-exact
/// under chunking for any pure elementwise `f`.
///
/// # Panics
///
/// Panics when the slices differ in length (caller validates shapes).
#[inline]
pub fn zip_into(out: &mut [f32], a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32 + Copy) {
    assert!(
        a.len() == b.len() && out.len() == a.len(),
        "zip length mismatch"
    );
    let mut co = out.chunks_exact_mut(LANES);
    let mut ca = a.chunks_exact(LANES);
    let mut cb = b.chunks_exact(LANES);
    for ((oc, ac), bc) in co.by_ref().zip(ca.by_ref()).zip(cb.by_ref()) {
        for i in 0..LANES {
            oc[i] = f(ac[i], bc[i]);
        }
    }
    let tails = ca.remainder().iter().zip(cb.remainder());
    for (o, (&av, &bv)) in co.into_remainder().iter_mut().zip(tails) {
        *o = f(av, bv);
    }
}

/// Combines [`LANES`] partial accumulators in a fixed pairwise tree, so
/// reduction results do not depend on how the optimizer schedules the
/// lane sums.
#[inline]
fn fold_lanes_f32(acc: [f32; LANES]) -> f32 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

#[inline]
fn fold_lanes_f64(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// Sum of all elements, in [`LANES`] f32 partial accumulators.
pub fn sum(values: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut c = values.chunks_exact(LANES);
    for vc in c.by_ref() {
        for i in 0..LANES {
            acc[i] += vc[i];
        }
    }
    let mut tail = 0.0f32;
    for &v in c.remainder() {
        tail += v;
    }
    fold_lanes_f32(acc) + tail
}

/// Sum of squares in f64, in [`LANES`] partial accumulators — the inner
/// loop of the L2 norms behind LARS/LAMB trust ratios.
pub fn sum_squares(values: &[f32]) -> f64 {
    let mut acc = [0.0f64; LANES];
    let mut c = values.chunks_exact(LANES);
    for vc in c.by_ref() {
        for i in 0..LANES {
            let v = vc[i] as f64;
            acc[i] += v * v;
        }
    }
    let mut tail = 0.0f64;
    for &v in c.remainder() {
        tail += (v as f64) * (v as f64);
    }
    fold_lanes_f64(acc) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_matches_scalar_loop_bit_for_bit() {
        for n in [0, 1, 7, 8, 9, 31, 64, 100] {
            let src: Vec<f32> = (0..n).map(|i| (i as f32).sin() * 1e3).collect();
            let mut dst: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
            let mut reference = dst.clone();
            for (d, s) in reference.iter_mut().zip(&src) {
                *d += 0.37 * s;
            }
            axpy(&mut dst, 0.37, &src);
            assert_eq!(
                dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "n={n}"
            );
        }
    }

    #[test]
    fn elementwise_kernels_are_bit_exact() {
        for n in [3, 8, 17] {
            let a: Vec<f32> = (0..n).map(|i| i as f32 * 0.1).collect();
            let b: Vec<f32> = (0..n).map(|i| 1.0 - i as f32).collect();
            let mut out = vec![0.0; n];
            zip_into(&mut out, &a, &b, |x, y| x * y);
            let expect: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
            assert_eq!(out, expect);
            let mut scaled = vec![0.0; n];
            scale_into(&mut scaled, &a, 2.5);
            let expect: Vec<f32> = a.iter().map(|x| x * 2.5).collect();
            assert_eq!(scaled, expect);
        }
    }

    #[test]
    fn reductions_stay_close_to_sequential_fold() {
        let values: Vec<f32> = (0..1000).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        let seq: f32 = values.iter().sum();
        assert!((sum(&values) - seq).abs() <= 1e-3 * seq.abs().max(1.0));
        let seq_sq: f64 = values.iter().map(|&v| (v as f64) * (v as f64)).sum();
        assert!((sum_squares(&values) - seq_sq).abs() <= 1e-9 * seq_sq);
    }

    #[test]
    fn reductions_are_deterministic_across_calls() {
        let values: Vec<f32> = (0..997).map(|i| (i as f32).sin() * 1e6).collect();
        assert_eq!(sum(&values).to_bits(), sum(&values).to_bits());
        assert_eq!(
            sum_squares(&values).to_bits(),
            sum_squares(&values).to_bits()
        );
    }
}
