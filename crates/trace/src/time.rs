//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A point in simulated time, in seconds.
///
/// `SimTime` is a thin newtype over `f64`; it is totally ordered (NaN is
/// rejected at construction) so it can key event queues.
///
/// ```
/// use multipod_trace::SimTime;
///
/// let t = SimTime::ZERO + 1.5e-3;
/// assert_eq!(t.seconds(), 1.5e-3);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Clone, Copy, Default, Serialize, Deserialize)]
pub struct SimTime(f64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Builds a time from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is NaN or negative.
    #[inline]
    pub fn from_seconds(seconds: f64) -> SimTime {
        // `-0.0` passes the range check; adding `0.0` turns it into `+0.0`
        // and changes no other value, so one instant has one bit pattern.
        SimTime::checked(seconds + 0.0)
    }

    #[inline]
    fn checked(seconds: f64) -> SimTime {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "SimTime must be finite and non-negative, got {seconds}"
        );
        SimTime(seconds)
    }

    /// The time in seconds.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0
    }

    /// The time in microseconds.
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

// SimTime construction rejects NaN, so the order is total; total_cmp
// keeps that guarantee panic-free even if a NaN ever slipped through.
// `==`, `partial_cmp` and `cmp` are all this one comparison, so a map or
// heap keyed by `SimTime` never disagrees with `==` about what a tie is.
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SimTime {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for SimTime {}

impl Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: f64) -> SimTime {
        // No `-0.0` to fold here: a sum rounds to `-0.0` only when both
        // addends are `-0.0`, and `self` never is.
        SimTime::checked(self.0 + rhs)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: f64) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = f64;
    #[inline]
    fn sub(self, rhs: SimTime) -> f64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({:.9}s)", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3}s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}µs", self.0 * 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_and_max() {
        let a = SimTime::from_seconds(1.0);
        let b = SimTime::from_seconds(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + 0.5 + 0.25;
        assert_eq!(t.seconds(), 0.75);
        assert_eq!(t - SimTime::from_seconds(0.25), 0.5);
        assert_eq!(SimTime::from_seconds(2e-6).micros(), 2.0);
    }

    #[test]
    fn negative_zero_is_zero() {
        use std::cmp::Ordering;
        let z = SimTime::from_seconds(-0.0);
        assert_eq!(z.seconds().to_bits(), SimTime::ZERO.seconds().to_bits());
        assert!(z == SimTime::ZERO);
        assert_eq!(z.partial_cmp(&SimTime::ZERO), Some(Ordering::Equal));
        assert_eq!(z.cmp(&SimTime::ZERO), Ordering::Equal);
        let sum = SimTime::ZERO + -0.0;
        assert_eq!(sum.seconds().to_bits(), SimTime::ZERO.seconds().to_bits());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative() {
        SimTime::from_seconds(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_nan() {
        SimTime::from_seconds(f64::NAN);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimTime::from_seconds(2.5).to_string(), "2.500s");
        assert_eq!(SimTime::from_seconds(2.5e-3).to_string(), "2.500ms");
        assert_eq!(SimTime::from_seconds(2.5e-6).to_string(), "2.500µs");
    }
}
