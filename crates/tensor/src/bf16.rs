//! Software bfloat16.
//!
//! TPUs natively compute in bfloat16 (Wang & Kanwar 2019); the paper uses it
//! for activations and gradient all-reduce payloads (§3.3, §4.1, §4.3) to
//! halve communication bytes. This module implements the format in software:
//! the top 16 bits of an IEEE-754 `f32` with round-to-nearest-even.

use std::fmt;

/// A 16-bit brain floating point number.
///
/// `Bf16` keeps the `f32` exponent range (8 bits) but only 7 mantissa bits.
/// Conversion from `f32` rounds to nearest, ties to even, matching TPU
/// hardware behaviour.
///
/// ```
/// use multipod_tensor::Bf16;
///
/// let x = Bf16::from_f32(1.0 + 1.0 / 256.0);
/// // 1 + 2^-8 is exactly halfway between two bf16 values; ties go to even,
/// // which here is 1.0.
/// assert_eq!(x.to_f32(), 1.0);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bf16(u16);

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0);
    /// The machine epsilon of the format (2⁻⁷).
    pub const EPSILON: f32 = 1.0 / 128.0;

    /// Converts an `f32` to `Bf16` with round-to-nearest-even.
    pub fn from_f32(value: f32) -> Bf16 {
        Bf16((Bf16::round_trip(value).to_bits() >> 16) as u16)
    }

    /// Converts back to `f32` (exact; bf16 values are a subset of f32).
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Raw bit pattern.
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Builds a `Bf16` from a raw bit pattern.
    pub fn from_bits(bits: u16) -> Bf16 {
        Bf16(bits)
    }

    /// Returns `true` when the value is NaN.
    pub fn is_nan(self) -> bool {
        self.to_f32().is_nan()
    }

    /// Rounds an `f32` through bf16 precision and back.
    ///
    /// This is the operation applied to every element of a gradient buffer
    /// when the all-reduce payload is demoted to bf16, and the format's one
    /// rounding definition ([`Bf16::from_f32`] keeps the top half of its
    /// result). It stays on 32-bit lanes and is branch-free: the
    /// round-to-nearest-even path and the quiet-NaN path are both computed
    /// and selected by mask, then the discarded low half is cleared, so a
    /// loop over it vectorizes as straight integer arithmetic.
    #[inline]
    pub fn round_trip(value: f32) -> f32 {
        let bits = value.to_bits();
        // NaN: exponent all ones, non-zero mantissa. Preserve the payload
        // and force a quiet bit that survives truncation.
        let is_nan_mask = 0u32.wrapping_sub(((bits & 0x7fff_ffff) > 0x7f80_0000) as u32);
        let nan = bits | 0x0040_0000;
        // Round to nearest even on the 16 discarded bits.
        let lsb = (bits >> 16) & 1;
        let rne = bits.wrapping_add(0x0000_7fff + lsb);
        f32::from_bits(((nan & is_nan_mask) | (rne & !is_nan_mask)) & 0xffff_0000)
    }

    /// Applies [`Bf16::round_trip`] to every element of a slice in place.
    pub fn quantize_slice(values: &mut [f32]) {
        for v in values {
            *v = Bf16::round_trip(*v);
        }
    }
}

impl From<f32> for Bf16 {
    fn from(value: f32) -> Bf16 {
        Bf16::from_f32(value)
    }
}

impl From<Bf16> for f32 {
    fn from(value: Bf16) -> f32 {
        value.to_f32()
    }
}

impl fmt::Debug for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bf16({})", self.to_f32())
    }
}

impl fmt::Display for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl std::ops::Add for Bf16 {
    type Output = Bf16;
    fn add(self, rhs: Bf16) -> Bf16 {
        Bf16::from_f32(self.to_f32() + rhs.to_f32())
    }
}

impl std::ops::Sub for Bf16 {
    type Output = Bf16;
    fn sub(self, rhs: Bf16) -> Bf16 {
        Bf16::from_f32(self.to_f32() - rhs.to_f32())
    }
}

impl std::ops::Mul for Bf16 {
    type Output = Bf16;
    fn mul(self, rhs: Bf16) -> Bf16 {
        Bf16::from_f32(self.to_f32() * rhs.to_f32())
    }
}

impl std::ops::Div for Bf16 {
    type Output = Bf16;
    fn div(self, rhs: Bf16) -> Bf16 {
        Bf16::from_f32(self.to_f32() / rhs.to_f32())
    }
}

impl std::ops::Neg for Bf16 {
    type Output = Bf16;
    fn neg(self) -> Bf16 {
        Bf16::from_f32(-self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_round_trip_exactly() {
        assert_eq!(Bf16::from_f32(0.0).to_f32(), 0.0);
        assert_eq!(Bf16::from_f32(1.0).to_f32(), 1.0);
        assert_eq!(Bf16::ZERO.to_f32(), 0.0);
    }

    #[test]
    fn negative_values_keep_sign() {
        assert_eq!(Bf16::from_f32(-2.5).to_f32(), -2.5);
        assert!(Bf16::from_f32(-1e-20).to_f32() <= 0.0);
    }

    #[test]
    fn rounds_to_nearest() {
        // 1.0 + 2^-7 is representable; 1.0 + 2^-9 rounds down to 1.0,
        // 1.0 + 3*2^-9 rounds up to 1.0 + 2^-7.
        assert_eq!(Bf16::round_trip(1.0 + 1.0 / 128.0), 1.0 + 1.0 / 128.0);
        assert_eq!(Bf16::round_trip(1.0 + 1.0 / 512.0), 1.0);
        assert_eq!(Bf16::round_trip(1.0 + 3.0 / 512.0), 1.0 + 1.0 / 128.0);
    }

    #[test]
    fn ties_round_to_even() {
        // 1 + 2^-8 is exactly between 1.0 (mantissa 0, even) and 1 + 2^-7.
        assert_eq!(Bf16::round_trip(1.0 + 1.0 / 256.0), 1.0);
        // 1 + 3*2^-8 is between 1+2^-7 (odd mantissa) and 1+2^-6 (even).
        assert_eq!(Bf16::round_trip(1.0 + 3.0 / 256.0), 1.0 + 1.0 / 64.0);
    }

    #[test]
    fn nan_and_infinity_survive() {
        assert!(Bf16::from_f32(f32::NAN).is_nan());
        assert_eq!(Bf16::from_f32(f32::INFINITY).to_f32(), f32::INFINITY);
        assert_eq!(
            Bf16::from_f32(f32::NEG_INFINITY).to_f32(),
            f32::NEG_INFINITY
        );
    }

    #[test]
    fn large_values_do_not_overflow_prematurely() {
        // bf16 keeps the full f32 exponent range: values near f32::MAX stay
        // finite (within bf16 relative precision) instead of overflowing.
        let r = Bf16::round_trip(3.0e38);
        assert!(r.is_finite());
        assert!(((r - 3.0e38) / 3.0e38).abs() <= Bf16::EPSILON / 2.0);
        assert!(Bf16::round_trip(1e38).is_finite());
    }

    #[test]
    fn relative_error_is_bounded_by_epsilon() {
        for &x in &[1.0f32, 3.25, 1234.5, 1e-6, 7.7e20] {
            let r = Bf16::round_trip(x);
            assert!(((r - x) / x).abs() <= Bf16::EPSILON / 2.0 + 1e-9, "x={x}");
        }
    }

    #[test]
    fn quantize_slice_quantizes_every_element() {
        let mut v = vec![1.0f32 + 1.0 / 512.0; 8];
        Bf16::quantize_slice(&mut v);
        assert!(v.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn branch_free_demotion_matches_reference_rounding() {
        // Every high half-word against a spread of discarded low halves,
        // NaNs and infinities included: the mask-select demotion must
        // agree bit for bit with the branchy reference.
        for hi in 0..=u16::MAX {
            for lo in [0u16, 1, 0x7fff, 0x8000, 0x8001, 0xffff] {
                let bits = ((hi as u32) << 16) | lo as u32;
                let v = f32::from_bits(bits);
                let reference = if v.is_nan() {
                    ((bits >> 16) as u16) | 0x0040
                } else {
                    let lsb = (bits >> 16) & 1;
                    (bits.wrapping_add(0x0000_7fff + lsb) >> 16) as u16
                };
                assert_eq!(Bf16::from_f32(v).to_bits(), reference, "bits={bits:#010x}");
            }
        }
    }

    /// The narrow demotion `round_trip` replaced: the same mask select,
    /// computed on the top half-word and widened back.
    fn narrow_demote_bits(bits: u32) -> u16 {
        let is_nan_mask = 0u32.wrapping_sub(((bits & 0x7fff_ffff) > 0x7f80_0000) as u32);
        let nan = (bits >> 16) | 0x0040;
        let lsb = (bits >> 16) & 1;
        let rne = bits.wrapping_add(0x0000_7fff + lsb) >> 16;
        ((nan & is_nan_mask) | (rne & !is_nan_mask)) as u16
    }

    #[test]
    fn wide_round_trip_matches_the_narrow_demotion() {
        // Every high half-word (NaN payloads, infinities, subnormals and
        // both zeros among them) against the discarded low halves that
        // decide a rounding: round_trip's bits are the narrow result
        // widened, and quantize_slice is round_trip.
        for hi in 0..=u16::MAX {
            let bits = [0u16, 1, 0x7fff, 0x8000, 0x8001, 0xffff]
                .map(|lo| (u32::from(hi) << 16) | u32::from(lo));
            let want = bits.map(|b| u32::from(narrow_demote_bits(b)) << 16);
            let mut row = bits.map(f32::from_bits);
            for ((&v, &b), &w) in row.iter().zip(&bits).zip(&want) {
                assert_eq!(Bf16::round_trip(v).to_bits(), w, "bits={b:#010x}");
            }
            Bf16::quantize_slice(&mut row);
            assert_eq!(row.map(f32::to_bits), want, "high half {hi:#06x}");
        }
    }

    #[test]
    fn quantize_slice_matches_scalar_round_trip_across_chunk_remainders() {
        for n in [0usize, 1, 7, 8, 9, 17, 64] {
            let mut v: Vec<f32> = (0..n).map(|i| (i as f32).exp() * 1.001).collect();
            if n > 2 {
                v[1] = f32::NAN;
                v[2] = f32::INFINITY;
            }
            let reference: Vec<u32> = v.iter().map(|&x| Bf16::round_trip(x).to_bits()).collect();
            Bf16::quantize_slice(&mut v);
            let got: Vec<u32> = v.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, reference, "n={n}");
        }
    }

    #[test]
    fn arithmetic_goes_through_f32() {
        let a = Bf16::from_f32(1.5);
        let b = Bf16::from_f32(2.0);
        assert_eq!((a + b).to_f32(), 3.5);
        assert_eq!((a * b).to_f32(), 3.0);
        assert_eq!((a - b).to_f32(), -0.5);
        assert_eq!((a / b).to_f32(), 0.75);
        assert_eq!((-a).to_f32(), -1.5);
    }
}
