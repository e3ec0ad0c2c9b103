//! Deterministic simulated time.
//!
//! All simulated costs in the Genie reproduction are expressed as
//! [`SimTime`], an integer number of picoseconds. Integer picoseconds
//! give sub-nanosecond resolution (the cheapest per-byte costs in the
//! paper's Table 6 are ~0.1 ns/byte) while keeping every arithmetic
//! operation exact and the whole simulation bit-for-bit reproducible.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in integer picoseconds.
///
/// `SimTime` is used both for instants (host clocks, event timestamps)
/// and durations (operation costs); the distinction is kept by
/// convention, as in many discrete-event simulators.
///
/// # Examples
///
/// ```
/// use genie_machine::SimTime;
///
/// let a = SimTime::from_us(1.5);
/// let b = SimTime::from_ns(500.0);
/// assert_eq!((a + b).as_us(), 2.0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero instant / empty duration.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable time; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from (possibly fractional) nanoseconds.
    ///
    /// Negative inputs saturate to zero: costs are never negative.
    pub fn from_ns(ns: f64) -> Self {
        SimTime(round_ps(ns * 1e3))
    }

    /// Creates a time from (possibly fractional) microseconds.
    ///
    /// Negative inputs saturate to zero: costs are never negative.
    pub fn from_us(us: f64) -> Self {
        SimTime(round_ps(us * 1e6))
    }

    /// This time as picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time as fractional nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time as fractional microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time as fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction; clamps at zero instead of underflowing.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Returns the larger of two times.
    pub fn max(self, rhs: SimTime) -> SimTime {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// Returns the smaller of two times.
    pub fn min(self, rhs: SimTime) -> SimTime {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;

    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0.checked_mul(rhs).expect("SimTime overflow"))
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;

    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_us() / 1e3)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us())
        } else {
            write!(f, "{:.3}ns", self.as_ns())
        }
    }
}

/// `ps.max(0.0).round() as u64`, computed inline: `f64::round` is a
/// libm call on baseline x86-64, and every charged operation converts
/// its cost through here. Below 2^63 the signed conversions are single
/// instructions and `ps - whole` is exact, so rounding half away from
/// zero on it gives bit-identical results; larger values (never a
/// simulated cost) take the libm path.
#[inline]
fn round_ps(ps: f64) -> u64 {
    let ps = ps.max(0.0);
    if ps < 9_223_372_036_854_775_808.0 {
        let whole = ps as i64;
        let up = ps - whole as f64 >= 0.5;
        (whole + i64::from(up)) as u64
    } else {
        ps.round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_rounding_matches_f64_round() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut values = vec![
            -3.5,
            -0.0,
            0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            4503599627370495.5,
            9007199254740993.0,
            1.8e19,
            1e300,
            f64::NAN,
            f64::INFINITY,
        ];
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Costs in ps span a few orders of magnitude; include exact
            // halves.
            let v = (x >> 11) as f64 / (1u64 << 20) as f64;
            values.extend([v, v.floor() + 0.5]);
        }
        for v in values {
            assert_eq!(round_ps(v), v.max(0.0).round() as u64, "{v:e}");
        }
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_us(1.0).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ns(1.0).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(2.5).as_us(), 2.5);
    }

    #[test]
    fn negative_inputs_saturate_to_zero() {
        assert_eq!(SimTime::from_us(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_ns(-0.1), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_us(3.0);
        let b = SimTime::from_us(1.0);
        assert_eq!(a + b, SimTime::from_us(4.0));
        assert_eq!(a - b, SimTime::from_us(2.0));
        assert_eq!(b * 3, a);
        assert_eq!(a / 3, b);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = SimTime::from_us(1.0);
        let b = SimTime::from_us(2.0);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a), SimTime::from_us(1.0));
    }

    #[test]
    #[should_panic(expected = "SimTime underflow")]
    fn checked_sub_panics_on_underflow() {
        let _ = SimTime::from_us(1.0) - SimTime::from_us(2.0);
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = (1..=4).map(|i| SimTime::from_us(i as f64)).sum();
        assert_eq!(total, SimTime::from_us(10.0));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_ns(12.0)), "12.000ns");
        assert_eq!(format!("{}", SimTime::from_us(12.0)), "12.000us");
        assert_eq!(format!("{}", SimTime::from_us(12_000.0)), "12.000ms");
    }
}
