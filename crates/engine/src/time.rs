//! Virtual simulation time.
//!
//! All platform latencies are expressed in milliseconds, matching the unit
//! AWS Lambda bills and reports in. [`SimTime`] is an absolute instant on the
//! simulation clock; [`SimDuration`] is a span between instants. Both are
//! thin newtypes over `f64` so arithmetic stays cheap while the type system
//! keeps instants and spans apart.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant of virtual time, in milliseconds since simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

/// A span of virtual time, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant at `ms` milliseconds after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or NaN.
    pub fn from_millis(ms: f64) -> Self {
        assert!(ms >= 0.0 && !ms.is_nan(), "sim time must be non-negative");
        SimTime(ms)
    }

    /// Creates an instant at `s` seconds after simulation start.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or NaN.
    pub fn from_secs(s: f64) -> Self {
        Self::from_millis(s * 1000.0)
    }

    /// This instant as milliseconds since simulation start.
    pub fn as_millis(self) -> f64 {
        self.0
    }

    /// This instant as seconds since simulation start.
    pub fn as_secs(self) -> f64 {
        self.0 / 1000.0
    }

    /// The span since an earlier instant.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since called with a later instant"
        );
        SimDuration(self.0 - earlier.0)
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a span of `ms` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or NaN.
    pub fn from_millis(ms: f64) -> Self {
        assert!(ms >= 0.0 && !ms.is_nan(), "duration must be non-negative");
        SimDuration(ms)
    }

    /// Creates a span of `s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or NaN.
    pub fn from_secs(s: f64) -> Self {
        Self::from_millis(s * 1000.0)
    }

    /// The span in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0
    }

    /// The span in seconds.
    pub fn as_secs(self) -> f64 {
        self.0 / 1000.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        assert!(rhs >= 0.0, "cannot scale a duration by a negative factor");
        SimDuration(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        assert!(rhs > 0.0, "cannot divide a duration by a non-positive factor");
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}ms", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_millis(100.0) + SimDuration::from_millis(50.0);
        assert_eq!(t.as_millis(), 150.0);
        assert_eq!((t - SimTime::from_millis(100.0)).as_millis(), 50.0);
    }

    #[test]
    fn seconds_conversion() {
        assert_eq!(SimTime::from_secs(2.0).as_millis(), 2000.0);
        assert_eq!(SimDuration::from_secs(1.5).as_millis(), 1500.0);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(100.0);
        assert_eq!((d * 2.0).as_millis(), 200.0);
        assert_eq!((d / 4.0).as_millis(), 25.0);
    }

    #[test]
    fn add_assign_works() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_millis(10.0);
        t += SimDuration::from_millis(5.0);
        assert_eq!(t.as_millis(), 15.0);
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn negative_duration_panics() {
        let _ = SimTime::ZERO.duration_since(SimTime::from_millis(1.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_time_panics() {
        let _ = SimTime::from_millis(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(1.5).to_string(), "t=1.500ms");
        assert_eq!(SimDuration::from_millis(2.0).to_string(), "2.000ms");
    }
}
