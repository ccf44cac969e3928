//! Per-call timeout, retry, and backoff policy.
//!
//! The paper's RPC package ran over an unreliable datagram network and
//! retransmitted on loss (Section 3.5.3). The reproduction models that at
//! the call level: a call that receives no reply within the timeout is
//! retried up to a bound, waiting between attempts with capped exponential
//! backoff plus jitter drawn from a seeded [`SimRng`] — so a given seed
//! yields an identical retry schedule every run.
//!
//! Retried calls are made safe by *idempotency tokens*: the transport tags
//! each logical call with a token the server remembers, so a mutating call
//! whose reply (not request) was lost is answered from the server's replay
//! cache instead of being applied twice. [`CallStats`] accumulates what the
//! retry machinery actually did, for tests and experiment reports.

use itc_sim::{SimRng, SimTime};

/// Retry/backoff parameters for Vice calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 disables retry.
    pub max_attempts: u32,
    /// How long the client waits for a reply before declaring the attempt
    /// lost (typically [`itc_sim::Costs::rpc_timeout`]).
    pub timeout: SimTime,
    /// Wait before the first retry; doubles each further retry.
    pub base_backoff: SimTime,
    /// Upper bound on any single backoff wait.
    pub max_backoff: SimTime,
    /// Jitter fraction in `[0, 1]`: each wait is scaled by a factor drawn
    /// uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl RetryPolicy {
    /// The default fault-tolerant policy: 4 attempts, exponential backoff
    /// from 1 s capped at 8 s, ±25% jitter.
    pub fn standard(timeout: SimTime) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            timeout,
            base_backoff: SimTime::from_secs(1),
            max_backoff: SimTime::from_secs(8),
            jitter: 0.25,
        }
    }

    /// The wait before retry number `retry` (1-based: the wait after the
    /// first failed attempt is `backoff(1, ..)`), with jitter from `rng`.
    ///
    /// Deterministic given the rng state: the exponential schedule is
    /// `base * 2^(retry-1)` capped at `max_backoff`, scaled by a jitter
    /// factor in `[1 - jitter, 1 + jitter]`.
    pub fn backoff(&self, retry: u32, rng: &mut SimRng) -> SimTime {
        if self.base_backoff == SimTime::ZERO {
            return SimTime::ZERO;
        }
        let exp = retry.saturating_sub(1).min(20);
        let raw = self.base_backoff * (1u64 << exp);
        let capped = raw.min(self.max_backoff);
        if self.jitter <= 0.0 {
            return capped;
        }
        let factor = 1.0 - self.jitter + 2.0 * self.jitter * rng.unit();
        SimTime::from_micros((capped.as_micros() as f64 * factor) as u64)
    }
}

/// Counters of what the retry machinery did, across all calls of one
/// transport.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CallStats {
    /// Attempts sent on the wire (≥ logical calls).
    pub attempts: u64,
    /// Attempts beyond the first for some logical call.
    pub retries: u64,
    /// Attempts that ended in a timeout (no reply within the window).
    pub timeouts: u64,
    /// Duplicate replies discarded by the secure channel's sequence check.
    pub duplicates_ignored: u64,
    /// Logical calls that failed after exhausting all attempts.
    pub failures: u64,
}

impl CallStats {
    /// Merges another set of counters into this one.
    pub fn absorb(&mut self, other: CallStats) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.duplicates_ignored += other.duplicates_ignored;
        self.failures += other.failures;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = RetryPolicy {
            max_attempts: 8,
            timeout: SimTime::from_secs(15),
            base_backoff: SimTime::from_secs(1),
            max_backoff: SimTime::from_secs(8),
            jitter: 0.0,
        };
        let mut rng = SimRng::seeded(1);
        assert_eq!(p.backoff(1, &mut rng), SimTime::from_secs(1));
        assert_eq!(p.backoff(2, &mut rng), SimTime::from_secs(2));
        assert_eq!(p.backoff(3, &mut rng), SimTime::from_secs(4));
        assert_eq!(p.backoff(4, &mut rng), SimTime::from_secs(8));
        assert_eq!(p.backoff(7, &mut rng), SimTime::from_secs(8));
    }

    #[test]
    fn jitter_stays_in_band_and_is_deterministic() {
        let p = RetryPolicy::standard(SimTime::from_secs(15));
        let mut a = SimRng::seeded(99);
        let mut b = SimRng::seeded(99);
        for retry in 1..6 {
            let wa = p.backoff(retry, &mut a);
            let wb = p.backoff(retry, &mut b);
            assert_eq!(wa, wb);
            let nominal = (p.base_backoff * (1u64 << (retry - 1))).min(p.max_backoff);
            let lo = nominal.as_micros() as f64 * (1.0 - p.jitter);
            let hi = nominal.as_micros() as f64 * (1.0 + p.jitter);
            let got = wa.as_micros() as f64;
            assert!(
                got >= lo - 1.0 && got <= hi + 1.0,
                "retry {retry}: {got} outside [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn stats_absorb_sums_fields() {
        let mut a = CallStats {
            attempts: 5,
            retries: 2,
            timeouts: 2,
            duplicates_ignored: 1,
            failures: 0,
        };
        a.absorb(CallStats {
            attempts: 3,
            retries: 0,
            timeouts: 0,
            duplicates_ignored: 0,
            failures: 1,
        });
        assert_eq!(a.attempts, 8);
        assert_eq!(a.retries, 2);
        assert_eq!(a.failures, 1);
    }
}
