//! Virtual time for the discrete-event simulator.
//!
//! The simulator never consults the wall clock: all timestamps are
//! [`SimTime`] values measured in virtual nanoseconds from the start of the
//! run. Durations are [`SimDuration`]. Both are plain newtypes over `u64`
//! so they are `Copy`, totally ordered and cheap to store in event queues.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since the start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since the origin.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Construct from integer microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from integer milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }
}

impl SimDuration {
    /// Nanoseconds in this duration.
    pub(crate) fn as_nanos(self) -> u64 {
        self.0
    }

    /// Construct from integer nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from integer microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Saturating addition.
    pub(crate) fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
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
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ordering_and_arithmetic() {
        let a = SimTime::from_micros(1);
        let b = SimTime::from_micros(3);
        assert!(a < b);
        assert_eq!(b - a, SimDuration::from_micros(2));
        assert_eq!(a + SimDuration::from_micros(2), b);
    }

    #[test]
    fn duration_constructors_are_consistent() {
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
    }

    #[test]
    fn saturating_operations_do_not_overflow() {
        let d = SimDuration(u64::MAX);
        assert_eq!(d.saturating_add(SimDuration(1)).as_nanos(), u64::MAX);
    }

    #[test]
    fn display_formats_scale() {
        assert_eq!(format!("{}", SimTime(500)), "500ns");
        assert_eq!(format!("{}", SimTime(1_500)), "1.500us");
        assert_eq!(format!("{}", SimTime(2_000_000)), "2.000ms");
        assert_eq!(format!("{}", SimDuration(999)), "999ns");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
        assert_eq!(SimDuration::default(), SimDuration::from_nanos(0));
    }
}
