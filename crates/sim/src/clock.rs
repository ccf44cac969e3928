//! The virtual clock and its time type.
//!
//! All simulated durations and instants are [`SimTime`] values: microseconds
//! since the start of the run, stored as `u64`. Microsecond resolution is
//! fine enough for per-call CPU charges (tens of microseconds) and coarse
//! enough that an 8-hour simulated day (2.9 × 10^10 µs) is nowhere near
//! overflow.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An instant or duration in virtual time, in microseconds.
///
/// `SimTime` is deliberately a single type for both instants and durations —
/// the simulation does arithmetic like "arrival + service = completion"
/// constantly and a two-type scheme (à la `Instant`/`Duration`) would add
/// noise without catching real bugs here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero instant (start of the simulation).
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Constructs a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Constructs a time from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Constructs a time from fractional seconds, rounding to the nearest
    /// microsecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimTime::ZERO
        } else {
            SimTime((s * 1e6).round() as u64)
        }
    }

    /// Constructs a time from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000_000)
    }

    /// Constructs a time from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600_000_000)
    }

    /// This time as microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction; useful for "how much later is b than a" when
    /// ordering is uncertain.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// The larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// The shared virtual clock.
///
/// The clock only moves forward. Each workstation "process" in an experiment
/// keeps its own local notion of time (its next-free instant); the shared
/// clock tracks the global high-water mark, which is what utilization windows
/// and experiment durations are measured against.
///
/// The high-water mark is an atomic so per-cluster simulation workers can
/// publish their progress concurrently: `advance_to` is a `fetch_max`, whose
/// result is independent of the order the workers arrive in — the final
/// value is the maximum either way, which is exactly the monotone-max
/// semantics the sequential executor had.
#[derive(Debug, Default)]
pub struct Clock {
    now: AtomicU64,
}

impl Clock {
    /// Creates a clock at time zero.
    pub fn new() -> Arc<Clock> {
        Arc::new(Clock {
            now: AtomicU64::new(0),
        })
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.now.load(Ordering::SeqCst))
    }

    /// Advances the clock to `t` if `t` is later than the current time.
    /// Never moves backward (a `fetch_max`, safe under concurrent callers).
    pub fn advance_to(&self, t: SimTime) {
        self.now.fetch_max(t.0, Ordering::SeqCst);
    }

    /// Resets the clock to zero. Intended for reusing one topology across
    /// repeated experiment trials.
    pub fn reset(&self) {
        self.now.store(0, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_mins(2), SimTime::from_secs(120));
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
        assert_eq!(SimTime::from_secs_f64(1.5).as_micros(), 1_500_000);
        assert_eq!(SimTime::from_secs_f64(-2.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_secs(2);
        let b = SimTime::from_secs(3);
        assert_eq!(a + b, SimTime::from_secs(5));
        assert_eq!(b - a, SimTime::from_secs(1));
        assert_eq!(a * 4, SimTime::from_secs(8));
        assert_eq!(b / 3, SimTime::from_secs(1));
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
        assert_eq!(b.saturating_sub(a), SimTime::from_secs(1));
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::from_micros(12).to_string(), "12us");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn clock_is_monotonic() {
        let c = Clock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance_to(SimTime::from_secs(10));
        assert_eq!(c.now(), SimTime::from_secs(10));
        // Attempting to move backward is a no-op.
        c.advance_to(SimTime::from_secs(5));
        assert_eq!(c.now(), SimTime::from_secs(10));
        c.reset();
        assert_eq!(c.now(), SimTime::ZERO);
    }
}
