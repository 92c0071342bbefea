//! Simulated time.
//!
//! Time is cycle-granular: the models in this workspace are *approximately
//! timed* transaction-level models whose natural unit is the SoC clock cycle,
//! matching the paper's reporting unit ("test length in 10⁶ cycles").

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute point in simulated time, in clock cycles since simulation
/// start.
///
/// `Time` is a monotone value produced by the kernel; models obtain it from
/// [`SimHandle::now`](crate::SimHandle::now) and may compute with it using
/// [`Duration`] offsets.
///
/// ```
/// use tve_sim::{Time, Duration};
/// let t = Time::ZERO + Duration::cycles(5);
/// assert_eq!(t.cycles(), 5);
/// assert_eq!(t - Time::ZERO, Duration::cycles(5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// Simulation start.
    pub const ZERO: Time = Time(0);
    /// The largest representable time; used as an "infinite" horizon.
    pub const MAX: Time = Time(u64::MAX);

    /// Creates a time `cycles` cycles after simulation start.
    pub const fn from_cycles(cycles: u64) -> Self {
        Time(cycles)
    }

    /// The number of cycles since simulation start.
    pub const fn cycles(self) -> u64 {
        self.0
    }

    /// The duration from `earlier` to `self`, saturating to zero if `earlier`
    /// is in the future.
    pub const fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

/// A span of simulated time, in clock cycles.
///
/// ```
/// use tve_sim::Duration;
/// let d = Duration::cycles(3) + Duration::cycles(4);
/// assert_eq!(d.as_cycles(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// A zero-length duration (a *delta-cycle* wait: the process resumes at
    /// the same simulated time, after currently-runnable processes yield).
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration of `cycles` clock cycles.
    pub const fn cycles(cycles: u64) -> Self {
        Duration(cycles)
    }

    /// The length in clock cycles.
    pub const fn as_cycles(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        iter.fold(Duration::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let t = Time::from_cycles(10);
        assert_eq!(t + Duration::cycles(5), Time::from_cycles(15));
        assert_eq!(Time::from_cycles(15) - t, Duration::cycles(5));
        assert_eq!(t.saturating_since(Time::from_cycles(20)), Duration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let d = Duration::cycles(7);
        assert_eq!(d - Duration::cycles(2), Duration::cycles(5));
        let total: Duration = [1u64, 2, 3].iter().map(|&c| Duration::cycles(c)).sum();
        assert_eq!(total, Duration::cycles(6));
    }

    #[test]
    fn ordering_and_display() {
        assert!(Time::ZERO < Time::from_cycles(1));
        assert!(Duration::cycles(2) < Duration::cycles(3));
        assert_eq!(Time::from_cycles(4).to_string(), "@4");
        assert_eq!(Duration::cycles(4).to_string(), "4cy");
    }
}
