//! Simulated time.
//!
//! All simulation time is kept as an integer number of nanoseconds in a
//! [`SimTime`] newtype. Integer time makes event ordering exact and keeps
//! every run bit-for-bit reproducible; floating-point time would make event
//! order depend on accumulated rounding.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds per second — the canonical conversion factor. All unit
/// scaling in the workspace goes through the `from_*` constructors or
/// these consts; bare `* 1_000_000_000` literals elsewhere are flagged by
/// fs-lint's `raw-unit-conversion` rule.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Nanoseconds per millisecond.
pub const NANOS_PER_MILLI: u64 = 1_000_000;
/// Nanoseconds per microsecond.
pub const NANOS_PER_MICRO: u64 = 1_000;

/// A point in simulated time, measured in nanoseconds from simulation start.
///
/// `SimTime` is totally ordered and supports the arithmetic needed by
/// schedulers: adding and subtracting [`SimDuration`]s and taking
/// differences between two instants.
///
/// # Examples
///
/// ```
/// use simcore::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(5);
/// assert_eq!(t.as_nanos(), 5_000_000);
/// assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, measured in nanoseconds.
///
/// Durations are unsigned; subtracting a later time from an earlier one
/// panics in debug builds, exactly like `u64` underflow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant at `nanos` nanoseconds from simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant at `micros` microseconds from simulation start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * NANOS_PER_MICRO)
    }

    /// Creates an instant at `millis` milliseconds from simulation start.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Creates an instant at `secs` seconds from simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Returns the instant as nanoseconds from simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as (fractional) seconds from simulation start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration since `earlier`, or zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration; used as an "infinite" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Creates a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    // Inlined into each caller across crates: every link send, timeline
    // draw and planned chunk converts through it.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        SimDuration(round_to_u64(secs * 1e9))
    }

    /// Returns the duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns true if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by a non-negative float, saturating at the
    /// maximum representable duration.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    // Inlined into each caller across crates: timeline draws scale their
    // sampled durations through it.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(factor >= 0.0 && !factor.is_nan(), "factor must be non-negative, got {factor}");
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(round_to_u64(scaled))
        }
    }

    /// Returns the duration saturated-subtracted by `other`.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({})", format_nanos(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_nanos(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({})", format_nanos(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_nanos(self.0))
    }
}

/// Formats a nanosecond count with a human-scale unit.
fn format_nanos(n: u64) -> String {
    if n == u64::MAX {
        "inf".to_string()
    } else if n >= 1_000_000_000 {
        format!("{:.3}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.3}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.3}us", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

/// `x.round() as u64` for finite `x >= 0`, without a libm call: rounds
/// half away from zero and saturates at `u64::MAX`.
///
/// The remainder `x - n` is exact: below 1 it is `x` itself, and from 1
/// up to 2^64 `n = floor(x)` lies within a factor of two of `x`
/// (Sterbenz's lemma). From 2^64 on the cast saturates, and so does the
/// result. The round-up is added, not branched on: sampled durations
/// have random fractions, which would mispredict a branch half the time.
///
/// Below 2^63 both conversions go through `i64`, which is exact there and
/// one instruction each on baseline x86-64, where the `u64` ones are not.
/// Every real duration lies on that side, so the range test always
/// predicts.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    const I64_LIMIT: f64 = 9_223_372_036_854_775_808.0; // 2^63
    if x < I64_LIMIT {
        let n = x as i64;
        return (n + i64::from(x - n as f64 >= 0.5)) as u64;
    }
    let n = x as u64;
    n.saturating_add(u64::from(x - n as f64 >= 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_nanos(2_000_000_000));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t0 = SimTime::from_millis(10);
        let d = SimDuration::from_micros(250);
        let t1 = t0 + d;
        assert_eq!(t1 - t0, d);
        assert_eq!(t1 - d, t0);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
    }

    #[test]
    fn add_saturates_at_max() {
        let t = SimTime::MAX + SimDuration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.5), SimDuration::from_millis(500));
        assert_eq!(SimDuration::from_secs_f64(1e-9), SimDuration::from_nanos(1));
    }

    #[test]
    #[should_panic]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    /// `round_to_u64`'s reference: libm's `round`, then a saturating cast.
    fn libm_round(x: f64) -> u64 {
        x.round() as u64
    }

    /// `x` and its neighbours up to `ulps` representable values away on
    /// either side, kept where finite and non-negative.
    fn around(x: f64, ulps: u64) -> impl Iterator<Item = f64> {
        let bits = x.to_bits();
        (bits.saturating_sub(ulps)..=bits.saturating_add(ulps))
            .map(f64::from_bits)
            .filter(|y| y.is_finite() && *y >= 0.0)
    }

    #[test]
    fn round_to_u64_matches_libm_round_on_the_edge_classes() {
        let mut xs = vec![0.0, 0.49999999999999994, 0.5, 1.5, 2.5, f64::MAX, 2f64.powi(64)];
        // Every power of two ±64 ulps, from the subnormals up to 2^70.
        let subnormal = (0..52).map(|k| 1u64 << k);
        let normal = (1..=1023 + 70).map(|biased: u64| biased << 52);
        for bits in subnormal.chain(normal) {
            xs.extend(around(f64::from_bits(bits), 64));
        }
        // Halfway points and their neighbours.
        for k in (0..10_000_000u64).step_by(9_973).chain(0..1_000) {
            xs.extend(around(k as f64 + 0.5, 2));
        }
        for x in xs {
            assert_eq!(round_to_u64(x), libm_round(x), "x = {x:e} ({:#x})", x.to_bits());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// Random finite non-negative bit patterns, and halfway points
        /// `k + 0.5` for `k < 10^7` with their neighbours.
        #[test]
        fn round_to_u64_matches_libm_round(bits in proptest::prelude::any::<u64>(), k in 0u64..10_000_000) {
            let x = f64::from_bits(bits >> 1);
            if x.is_finite() {
                proptest::prop_assert_eq!(round_to_u64(x), libm_round(x), "x = {:e}", x);
            }
            for y in around(k as f64 + 0.5, 1) {
                proptest::prop_assert_eq!(round_to_u64(y), libm_round(y), "y = {:e}", y);
            }
        }
    }

    #[test]
    fn mul_f64_scales_and_saturates() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
    }

    #[test]
    fn division_gives_ratio() {
        let a = SimDuration::from_secs(3);
        let b = SimDuration::from_secs(2);
        assert!((a / b - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimDuration::from_secs(1) > SimDuration::from_millis(999));
    }
}
