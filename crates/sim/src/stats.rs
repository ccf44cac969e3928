//! Statistics collected by experiments: counters, percentiles, running
//! means, and time-bucketed series.

use crate::clock::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// A labelled counter map — used for the server call-mix histogram
/// (Section 5.2: "cache validity checking calls are preponderant,
/// accounting for 65% of the total").
///
/// Labels are interned: the map owns one boxed copy of each distinct
/// label, allocated the first time it is seen. Bumping an existing label
/// looks the key up by `&str` and is allocation-free, which matters
/// because [`Counter::bump`] sits on the per-call transport path (the
/// old `entry(label.to_string())` allocated a `String` on every call).
#[derive(Debug, Default, Clone)]
pub struct Counter {
    counts: BTreeMap<Box<str>, u64>,
}

impl Counter {
    /// Creates an empty counter.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increments `label` by one.
    pub fn bump(&mut self, label: &str) {
        self.add(label, 1);
    }

    /// Increments `label` by `n`. Allocates only on the first sighting of
    /// a label; every later bump of the same label is allocation-free.
    pub fn add(&mut self, label: &str, n: u64) {
        if let Some(count) = self.counts.get_mut(label) {
            *count += n;
        } else {
            self.counts.insert(label.into(), n);
        }
    }

    /// The count for `label` (zero if never seen).
    pub fn get(&self, label: &str) -> u64 {
        self.counts.get(label).copied().unwrap_or(0)
    }

    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Fraction of the total attributed to `label`; zero when empty.
    pub fn fraction(&self, label: &str) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.get(label) as f64 / total as f64
        }
    }

    /// Iterates `(label, count)` in label order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, &v)| (&**k, v))
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &Counter) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }

    /// Removes all counts.
    pub fn clear(&mut self) {
        self.counts.clear();
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total();
        let mut rows: Vec<_> = self.counts.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(a.1));
        for (label, &count) in rows {
            let pct = if total == 0 {
                0.0
            } else {
                100.0 * count as f64 / total as f64
            };
            writeln!(f, "  {label:<24} {count:>10}  ({pct:5.1}%)")?;
        }
        Ok(())
    }
}

/// Exact percentiles over a retained sample set.
#[derive(Debug, Default, Clone)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty sample set.
    pub fn new() -> Percentiles {
        Percentiles::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `p`-th percentile (`p` in `[0, 100]`) by nearest-rank.
    /// Returns `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let rank = ((p / 100.0) * (self.samples.len() as f64 - 1.0)).round() as usize;
        Some(self.samples[rank.min(self.samples.len() - 1)])
    }

    /// Folds another sample set into this one (used when per-cluster
    /// aggregates are merged into system-wide totals).
    pub fn merge(&mut self, other: &Percentiles) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }
}

/// Streaming count/mean/min/max — used where retaining every sample would
/// be wasteful (per-operation latencies in long runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates empty stats.
    pub fn new() -> RunningStats {
        RunningStats {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean; zero when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }
}

/// A value accumulated per fixed-width virtual-time bucket — used for
/// plotting load over a simulated day.
#[derive(Debug, Clone)]
pub struct TimeBuckets {
    width: SimTime,
    buckets: Vec<f64>,
}

impl TimeBuckets {
    /// Creates a series with the given bucket width.
    pub fn new(width: SimTime) -> TimeBuckets {
        assert!(width > SimTime::ZERO);
        TimeBuckets {
            width,
            buckets: Vec::new(),
        }
    }

    /// Adds `value` to the bucket containing instant `t`.
    pub fn add(&mut self, t: SimTime, value: f64) {
        let idx = (t.as_micros() / self.width.as_micros()) as usize;
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += value;
    }

    /// Iterates `(bucket_start, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &v)| (SimTime::from_micros(i as u64 * self.width.as_micros()), v))
    }

    /// The largest bucket value, with its start time; `None` when empty.
    pub fn peak(&self) -> Option<(SimTime, f64)> {
        self.iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN bucket"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_fractions() {
        let mut c = Counter::new();
        c.add("validate", 65);
        c.add("status", 27);
        c.add("fetch", 4);
        c.add("store", 2);
        c.add("other", 2);
        assert_eq!(c.total(), 100);
        assert!((c.fraction("validate") - 0.65).abs() < 1e-12);
        assert_eq!(c.get("missing"), 0);
        let mut d = Counter::new();
        d.bump("fetch");
        c.merge(&d);
        assert_eq!(c.get("fetch"), 5);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut p = Percentiles::new();
        assert!(p.percentile(50.0).is_none());
        for v in 1..=100 {
            p.record(v as f64);
        }
        assert_eq!(p.percentile(0.0), Some(1.0));
        assert_eq!(p.percentile(100.0), Some(100.0));
        assert_eq!(p.percentile(50.0), Some(51.0));
        assert_eq!(p.mean(), Some(50.5));
    }

    #[test]
    fn running_stats_match_direct_computation() {
        let mut s = RunningStats::new();
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        for &x in &xs {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn time_buckets_accumulate_and_peak() {
        let mut tb = TimeBuckets::new(SimTime::from_secs(60));
        tb.add(SimTime::from_secs(10), 1.0);
        tb.add(SimTime::from_secs(59), 1.0);
        tb.add(SimTime::from_secs(200), 5.0);
        let (at, v) = tb.peak().unwrap();
        assert_eq!(at, SimTime::from_secs(180));
        assert_eq!(v, 5.0);
        let first = tb.iter().next().unwrap();
        assert_eq!(first.1, 2.0);
    }
}
