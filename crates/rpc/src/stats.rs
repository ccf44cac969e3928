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
    bytes_in: u64,
    bytes_out: u64,
    latency: RunningStats,
}

impl RpcStats {
    /// Creates empty statistics.
    pub fn new() -> RpcStats {
        RpcStats::default()
    }

    /// Records one served call.
    pub fn record(&mut self, kind: &str, request_bytes: u64, reply_bytes: u64, elapsed: SimTime) {
        self.calls.bump(kind);
        self.bytes_in += request_bytes;
        self.bytes_out += reply_bytes;
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

    /// Total request bytes received.
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Total reply bytes sent.
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
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
            s.record("validate", 128, 128, SimTime::from_millis(40));
        }
        for _ in 0..27 {
            s.record("getstatus", 128, 256, SimTime::from_millis(50));
        }
        for _ in 0..4 {
            s.record("fetch", 128, 10_000, SimTime::from_millis(300));
        }
        for _ in 0..2 {
            s.record("store", 10_000, 128, SimTime::from_millis(300));
        }
        for _ in 0..2 {
            s.record("other", 128, 128, SimTime::from_millis(10));
        }
        assert_eq!(s.total_calls(), 100);
        assert!((s.fraction("validate") - 0.65).abs() < 1e-12);
        assert_eq!(s.calls_of("fetch"), 4);
        assert_eq!(
            s.bytes_in(),
            65 * 128 + 27 * 128 + 4 * 128 + 2 * 10_000 + 2 * 128
        );
        assert!(s.mean_latency_secs() > 0.0);
        s.reset();
        assert_eq!(s.total_calls(), 0);
    }
}
