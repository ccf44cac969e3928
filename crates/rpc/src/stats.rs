//! Per-server call statistics.
//!
//! Section 5.2 reports "a histogram of calls received by servers in actual
//! use": cache validity checks 65%, file status 27%, fetch 4%, store 2%.
//! Every Vice server in the reproduction owns an [`RpcStats`] and records
//! each call it serves; experiment E2 prints the same histogram.

use itc_sim::{Counter, RunningStats, SimTime};

/// Call counters for one server.
#[derive(Debug, Default)]
pub struct RpcStats {
    calls: Counter,
    latency: RunningStats,
}

impl RpcStats {
    /// Creates empty statistics.
    pub fn new() -> RpcStats {
        RpcStats::default()
    }

    /// Records one served call.
    pub fn record(&mut self, kind: &str, elapsed: SimTime) {
        self.calls.bump(kind);
        self.latency.record(elapsed.as_secs_f64());
    }

    /// Total calls served.
    pub fn total_calls(&self) -> u64 {
        self.calls.total()
    }

    /// Calls of one kind.
    pub fn calls_of(&self, kind: &str) -> u64 {
        self.calls.get(kind)
    }

    /// Fraction of calls of one kind.
    pub fn fraction(&self, kind: &str) -> f64 {
        self.calls.fraction(kind)
    }

    /// Snapshot of the call histogram.
    pub fn histogram(&self) -> Counter {
        self.calls.clone()
    }

    /// Mean caller-observed latency in seconds.
    pub fn mean_latency_secs(&self) -> f64 {
        self.latency.mean()
    }

    /// Clears all statistics.
    pub fn reset(&mut self) {
        *self = RpcStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_fractions() {
        let mut s = RpcStats::new();
        for _ in 0..65 {
            s.record("validate", SimTime::from_millis(40));
        }
        for _ in 0..27 {
            s.record("getstatus", SimTime::from_millis(50));
        }
        for _ in 0..4 {
            s.record("fetch", SimTime::from_millis(300));
        }
        for _ in 0..2 {
            s.record("store", SimTime::from_millis(300));
        }
        for _ in 0..2 {
            s.record("other", SimTime::from_millis(10));
        }
        assert_eq!(s.total_calls(), 100);
        assert!((s.fraction("validate") - 0.65).abs() < 1e-12);
        assert_eq!(s.calls_of("fetch"), 4);
        assert!(s.mean_latency_secs() > 0.0);
        s.reset();
        assert_eq!(s.total_calls(), 0);
    }
}
