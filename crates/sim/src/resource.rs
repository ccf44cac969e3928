//! FIFO service centers with utilization accounting.
//!
//! A [`Resource`] models a serially-shared piece of hardware — a cluster
//! server's CPU, its disk arm, a network link. Requests are served in the
//! order they are *submitted* (the experiment drivers submit client
//! operations in virtual-time order, so submission order ≈ arrival order).
//!
//! Besides producing queueing delay, a resource records how much service it
//! performed in fixed-width time buckets. That bucketed record is exactly
//! what the paper reports in Section 5.2: "Server CPU utilization ... nearly
//! 40% on the most heavily loaded servers ... short-term resource
//! utilizations are much higher, sometimes peaking at 98%".

use crate::clock::SimTime;

/// Width of a utilization bucket: one virtual minute.
pub const BUCKET_WIDTH: SimTime = SimTime(60_000_000);

#[derive(Debug, Default)]
struct Inner {
    /// Earliest virtual time at which the next request can begin service.
    available_at: SimTime,
    /// Total service time performed.
    busy_total: SimTime,
    /// Total queueing delay imposed on requests.
    queue_total: SimTime,
    /// Number of requests served.
    requests: u64,
    /// Busy microseconds per [`BUCKET_WIDTH`] bucket, indexed by
    /// `start / BUCKET_WIDTH`.
    buckets: Vec<u64>,
}

/// A FIFO service center in virtual time.
#[derive(Debug)]
pub struct Resource {
    name: String,
    inner: Inner,
}

/// Summary of a resource's activity over an observation window.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationReport {
    /// Resource name as given at construction.
    pub name: String,
    /// Mean utilization over `[window_start, window_end]`: busy time divided
    /// by window length.
    pub mean_utilization: f64,
    /// Highest single-bucket utilization observed (the short-term peak).
    pub peak_utilization: f64,
    /// Virtual time of the start of the peak bucket.
    pub peak_at: SimTime,
    /// Number of requests served.
    pub requests: u64,
    /// Mean queueing delay per request.
    pub mean_queue_delay: SimTime,
    /// Total busy time.
    pub busy_total: SimTime,
}

impl Resource {
    /// Creates an idle resource.
    pub fn new(name: impl Into<String>) -> Resource {
        Resource {
            name: name.into(),
            inner: Inner::default(),
        }
    }

    /// The resource name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Submits a request arriving at `arrival` demanding `service` time.
    ///
    /// Returns the completion time. Queueing delay (`start - arrival`) and
    /// service are recorded for the utilization report. A zero-service
    /// request completes immediately at `max(arrival, available_at)` without
    /// holding the resource.
    pub fn acquire(&mut self, arrival: SimTime, service: SimTime) -> SimTime {
        let inner = &mut self.inner;
        let start = arrival.max(inner.available_at);
        let end = start + service;
        inner.available_at = end;
        inner.busy_total += service;
        inner.queue_total += start - arrival;
        inner.requests += 1;
        if service > SimTime::ZERO {
            Self::record_buckets(&mut inner.buckets, start, end);
        }
        end
    }

    /// Charges service time without queueing semantics — used for resources
    /// we track for utilization but do not model contention on (e.g. the
    /// workstation's own CPU, which has exactly one user).
    pub fn charge(&mut self, start: SimTime, service: SimTime) -> SimTime {
        let inner = &mut self.inner;
        let end = start + service;
        inner.busy_total += service;
        inner.requests += 1;
        if end > inner.available_at {
            inner.available_at = end;
        }
        if service > SimTime::ZERO {
            Self::record_buckets(&mut inner.buckets, start, end);
        }
        end
    }

    fn record_buckets(buckets: &mut Vec<u64>, start: SimTime, end: SimTime) {
        let w = BUCKET_WIDTH.as_micros();
        let first = start.as_micros() / w;
        let last = (end.as_micros().saturating_sub(1)) / w;
        if buckets.len() <= last as usize {
            buckets.resize(last as usize + 1, 0);
        }
        for b in first..=last {
            let bucket_start = b * w;
            let bucket_end = bucket_start + w;
            let s = start.as_micros().max(bucket_start);
            let e = end.as_micros().min(bucket_end);
            buckets[b as usize] += e - s;
        }
    }

    /// The earliest time the next request could begin service.
    pub fn available_at(&self) -> SimTime {
        self.inner.available_at
    }

    /// Total service time performed so far.
    pub fn busy_total(&self) -> SimTime {
        self.inner.busy_total
    }

    /// Number of requests served so far.
    pub fn requests(&self) -> u64 {
        self.inner.requests
    }

    /// Produces the utilization report for the window `[0, window_end]`.
    pub fn report(&self, window_end: SimTime) -> UtilizationReport {
        let inner = &self.inner;
        let window = window_end.as_micros().max(1);
        let w = BUCKET_WIDTH.as_micros();
        let mut peak = 0u64;
        let mut peak_at = SimTime::ZERO;
        for (i, &busy) in inner.buckets.iter().enumerate() {
            if busy > peak {
                peak = busy;
                peak_at = SimTime::from_micros(i as u64 * w);
            }
        }
        UtilizationReport {
            name: self.name.clone(),
            mean_utilization: inner.busy_total.as_micros() as f64 / window as f64,
            peak_utilization: peak as f64 / w as f64,
            peak_at,
            requests: inner.requests,
            mean_queue_delay: SimTime::from_micros(
                inner
                    .queue_total
                    .as_micros()
                    .checked_div(inner.requests)
                    .unwrap_or(0),
            ),
            busy_total: inner.busy_total,
        }
    }

    /// The busy fraction of the [`BUCKET_WIDTH`] bucket containing `at` —
    /// a read-only probe of the short-term utilization the flight
    /// recorder watches. Work charged later into the same bucket is not
    /// yet visible; the probe reflects what has been performed so far.
    pub fn bucket_utilization(&self, at: SimTime) -> f64 {
        let inner = &self.inner;
        let w = BUCKET_WIDTH.as_micros();
        let idx = (at.as_micros() / w) as usize;
        inner.buckets.get(idx).copied().unwrap_or(0) as f64 / w as f64
    }

    /// The per-minute utilization series up to `window_end`: one
    /// `(bucket_start, utilization)` pair per [`BUCKET_WIDTH`] bucket.
    /// Used to plot load over a simulated day.
    pub fn utilization_series(&self, window_end: SimTime) -> Vec<(SimTime, f64)> {
        let inner = &self.inner;
        let w = BUCKET_WIDTH.as_micros();
        let n_buckets = (window_end.as_micros().div_ceil(w)) as usize;
        (0..n_buckets)
            .map(|i| {
                let busy = inner.buckets.get(i).copied().unwrap_or(0);
                (SimTime::from_micros(i as u64 * w), busy as f64 / w as f64)
            })
            .collect()
    }

    /// Clears all recorded activity, returning the resource to idle at time
    /// zero. Used when one topology is reused across experiment trials.
    pub fn reset(&mut self) {
        self.inner = Inner::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_queueing_delays_later_arrivals() {
        let mut r = Resource::new("cpu");
        let e1 = r.acquire(SimTime::from_secs(0), SimTime::from_secs(3));
        assert_eq!(e1, SimTime::from_secs(3));
        // Arrives at t=1 but must wait until t=3.
        let e2 = r.acquire(SimTime::from_secs(1), SimTime::from_secs(2));
        assert_eq!(e2, SimTime::from_secs(5));
        // Arrives after the queue drains: no delay.
        let e3 = r.acquire(SimTime::from_secs(10), SimTime::from_secs(1));
        assert_eq!(e3, SimTime::from_secs(11));
        let rep = r.report(SimTime::from_secs(12));
        assert_eq!(rep.requests, 3);
        assert_eq!(rep.busy_total, SimTime::from_secs(6));
        assert_eq!(rep.mean_utilization, 0.5);
        // Total queue delay was 2s over 3 requests.
        assert_eq!(rep.mean_queue_delay, SimTime::from_micros(666_666));
    }

    #[test]
    fn zero_service_does_not_occupy() {
        let mut r = Resource::new("cpu");
        r.acquire(SimTime::ZERO, SimTime::ZERO);
        assert_eq!(r.available_at(), SimTime::ZERO);
        assert_eq!(r.busy_total(), SimTime::ZERO);
    }

    #[test]
    fn buckets_split_across_boundaries() {
        let mut r = Resource::new("cpu");
        // 30s of service starting 45s in: 15s in bucket 0, 15s in bucket 1.
        r.acquire(SimTime::from_secs(45), SimTime::from_secs(30));
        let rep = r.report(SimTime::from_mins(2));
        // Each bucket holds 15s of 60s: utilization 0.25 in the peak bucket.
        assert!((rep.peak_utilization - 0.25).abs() < 1e-9);
        assert!((rep.mean_utilization - 0.25).abs() < 1e-9);
    }

    #[test]
    fn peak_identifies_busiest_minute() {
        let mut r = Resource::new("cpu");
        // Bucket 0: 6s busy. Bucket 2: 54s busy.
        r.acquire(SimTime::from_secs(0), SimTime::from_secs(6));
        r.acquire(SimTime::from_secs(120), SimTime::from_secs(54));
        let rep = r.report(SimTime::from_mins(3));
        assert!((rep.peak_utilization - 0.9).abs() < 1e-9);
        assert_eq!(rep.peak_at, SimTime::from_secs(120));
    }

    #[test]
    fn charge_overlapping_intervals_accumulate() {
        let mut r = Resource::new("ws-cpu");
        r.charge(SimTime::from_secs(0), SimTime::from_secs(10));
        r.charge(SimTime::from_secs(5), SimTime::from_secs(10));
        assert_eq!(r.busy_total(), SimTime::from_secs(20));
        assert_eq!(r.available_at(), SimTime::from_secs(15));
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new("cpu");
        r.acquire(SimTime::ZERO, SimTime::from_secs(5));
        r.reset();
        assert_eq!(r.busy_total(), SimTime::ZERO);
        assert_eq!(r.requests(), 0);
        assert_eq!(r.available_at(), SimTime::ZERO);
    }
}
