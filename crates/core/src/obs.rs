//! Deterministic observability: fixed-interval time series and the SLO
//! health engine (DESIGN.md §15).
//!
//! Section 6 of the paper plans a small operations staff running ~50
//! servers for 5,000 workstations. Per-call traces ([`crate::trace`])
//! answer "why was *this* call slow"; an operator needs the complement —
//! "which server is degrading *over time*" — before any single call trips
//! the flight recorder. This module samples that view:
//!
//! * [`ObsCore`] — one per cluster, riding inside the transport's
//!   `ClusterCore`. Every sample is taken **at an event boundary from
//!   values the simulation already computed**: no rng draws, no calendar
//!   events, no clock movement. Runs with sampling on and off are
//!   bit-identical in every virtual-time observable, and because the
//!   per-cluster event sequence is identical across `Sequential` and
//!   `Parallel(n)` execution, per-cluster series are too.
//! * Series are bucketed on [`BUCKET_WIDTH`] (one virtual minute) and
//!   bounded ([`SERIES_CAPACITY`] buckets, oldest evicted). Per-bucket
//!   points are **merge-commutative** — counters sum, gauges max,
//!   latency sketches use [`Percentiles::merge`] (quantiles sort before
//!   answering, so merge order cannot matter) — which is what makes the
//!   merged campus view identical however many threads produced it.
//! * The **health engine**: a declarative table of windowed burn-rate
//!   rules ([`HealthRule`]) evaluated per bucket as samples arrive. A
//!   rule fires once per breach episode (when its consecutive-bucket
//!   window fills) and logs a typed [`HealthEvent`] in the core that
//!   decided it, deduplicated on `(rule, server, bucket)`.
//! * The flat, line-oriented export form: [`ObsLine`], one field
//!   declaration per kind on the record spine ([`itc_sim::record`])
//!   behind [`render_obs_line`] and its exact inverse
//!   [`parse_obs_line`], and the `vice-top` console renderer
//!   ([`render_console`]) shared by the live `bench top` path and the
//!   offline re-renderer.

use crate::trace::CallBreakdown;
use itc_sim::record::{Field, Reader, Writer};
use itc_sim::resource::BUCKET_WIDTH;
use itc_sim::{EventStats, HealthEvent, HealthRuleKind, Percentiles, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Buckets retained per series before the oldest is evicted.
pub const SERIES_CAPACITY: usize = 2048;

/// The one-minute bucket containing instant `at`.
pub fn bucket_of(at: SimTime) -> u64 {
    at.as_micros() / BUCKET_WIDTH.as_micros()
}

/// Per-bucket point types fold together with plain commutative merges so
/// the cluster-merged view is independent of merge order.
pub trait MergePoint {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: &Self);
}

/// One server's samples within one bucket.
#[derive(Debug, Clone, Default)]
pub struct ServerPoint {
    /// Calls completed against this server this bucket.
    pub calls: u64,
    /// End-to-end latency samples (µs) of those calls.
    pub latency: Percentiles,
    /// Latency samples split by call kind.
    pub by_kind: BTreeMap<&'static str, Percentiles>,
    /// Retry-wasted plus fault-injected µs across those calls.
    pub retry_wasted_us: u64,
    /// Genuine retransmission-timer expiries charged to this server.
    pub timeouts: u64,
    /// Deepest request queue observed on arrival.
    pub queue_peak: u64,
    /// Highest CPU one-minute utilization probed, percent.
    pub cpu_pct: u64,
    /// Highest disk one-minute utilization probed, percent.
    pub disk_pct: u64,
    /// Largest unsynced journal tail observed before a sync, bytes.
    pub journal_lag: u64,
    /// Scrubber files-scanned counter at the last pass this bucket.
    pub scrub_files: u64,
    /// Scrubber bytes-scanned counter at the last pass this bucket.
    pub scrub_bytes: u64,
    /// Volumes offlined by integrity verification this bucket.
    pub offlined: u64,
    /// Journal records rejected by salvage verification this bucket.
    pub rejected: u64,
}

impl MergePoint for ServerPoint {
    fn merge(&mut self, other: &ServerPoint) {
        self.calls += other.calls;
        self.latency.merge(&other.latency);
        for (k, p) in &other.by_kind {
            self.by_kind.entry(k).or_default().merge(p);
        }
        self.retry_wasted_us += other.retry_wasted_us;
        self.timeouts += other.timeouts;
        self.queue_peak = self.queue_peak.max(other.queue_peak);
        self.cpu_pct = self.cpu_pct.max(other.cpu_pct);
        self.disk_pct = self.disk_pct.max(other.disk_pct);
        self.journal_lag = self.journal_lag.max(other.journal_lag);
        self.scrub_files = self.scrub_files.max(other.scrub_files);
        self.scrub_bytes = self.scrub_bytes.max(other.scrub_bytes);
        self.offlined += other.offlined;
        self.rejected += other.rejected;
    }
}

/// One volume's samples within one bucket.
#[derive(Debug, Clone, Default)]
pub struct VolumePoint {
    /// Calls resolved against this volume this bucket.
    pub calls: u64,
    /// End-to-end latency samples (µs).
    pub latency: Percentiles,
    /// Retry-wasted plus fault-injected µs.
    pub retry_wasted_us: u64,
}

impl MergePoint for VolumePoint {
    fn merge(&mut self, other: &VolumePoint) {
        self.calls += other.calls;
        self.latency.merge(&other.latency);
        self.retry_wasted_us += other.retry_wasted_us;
    }
}

/// One cluster engine's samples within one bucket (simulator health, not
/// file-system health): calendar churn from [`EventStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterPoint {
    /// Calls completed by this cluster's workstations this bucket.
    pub calls: u64,
    /// Cumulative events scheduled, as of the last sample this bucket.
    pub scheduled: u64,
    /// Cumulative events executed.
    pub executed: u64,
    /// Cumulative events cancelled — dominated by stood-down
    /// `TimeoutFire`s, the churn ROADMAP item 1 wants indexed away.
    pub cancelled: u64,
    /// Calendar high-water mark.
    pub high_water: u64,
}

impl MergePoint for ClusterPoint {
    fn merge(&mut self, other: &ClusterPoint) {
        self.calls += other.calls;
        self.scheduled = self.scheduled.max(other.scheduled);
        self.executed = self.executed.max(other.executed);
        self.cancelled = self.cancelled.max(other.cancelled);
        self.high_water = self.high_water.max(other.high_water);
    }
}

/// A bounded, bucket-indexed time series.
#[derive(Debug, Clone, Default)]
pub struct Series<P> {
    points: BTreeMap<u64, P>,
}

impl<P: Default> Series<P> {
    fn point(&mut self, bucket: u64) -> &mut P {
        if !self.points.contains_key(&bucket) && self.points.len() >= SERIES_CAPACITY {
            self.points.pop_first();
        }
        self.points.entry(bucket).or_default()
    }
}

impl<P> Series<P> {
    /// The resident `(bucket, point)` pairs, oldest bucket first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &P)> {
        self.points.iter().map(|(b, p)| (*b, p))
    }

    /// The point of one bucket, if sampled.
    pub fn get(&self, bucket: u64) -> Option<&P> {
        self.points.get(&bucket)
    }

    /// Resident buckets.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether nothing has been sampled.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl<P: Default + MergePoint> Series<P> {
    fn merge(&mut self, other: &Series<P>) {
        for (b, p) in other.iter() {
            self.point(b).merge(p);
        }
    }
}

// ---------------------------------------------------------------------
// The health engine's rule table
// ---------------------------------------------------------------------

/// One declarative burn-rate rule: `kind` breaches when its measured
/// value crosses `threshold`; the rule fires when `window` *consecutive*
/// buckets breach (a longer episode keeps the breach run alive without
/// re-firing; a clean bucket resets it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthRule {
    /// Which signal the rule watches.
    pub kind: HealthRuleKind,
    /// Breach threshold — percent for utilization, µs for tail latency,
    /// counts for retry-rate and integrity.
    pub threshold: u64,
    /// Consecutive breached buckets required to fire.
    pub window: u32,
}

/// The default rule table.
///
/// * `sustained_utilization` — a resource at ≥ 98% for two consecutive
///   minutes (one saturated minute is the flight recorder's peak-dump
///   territory; two is an SLO burn).
/// * `tail_latency` — a closed bucket's p99 end-to-end latency over 60
///   virtual seconds.
/// * `retry_rate` — two or more genuine retransmission-timer expiries
///   charged to one server within a minute.
/// * `integrity_burn` — any volume offlined or journal record rejected.
pub fn default_rules() -> [HealthRule; 4] {
    [
        HealthRule {
            kind: HealthRuleKind::SustainedUtilization,
            threshold: 98,
            window: 2,
        },
        HealthRule {
            kind: HealthRuleKind::TailLatency,
            threshold: 60_000_000,
            window: 1,
        },
        HealthRule {
            kind: HealthRuleKind::RetryRate,
            threshold: 2,
            window: 1,
        },
        HealthRule {
            kind: HealthRuleKind::IntegrityBurn,
            threshold: 1,
            window: 1,
        },
    ]
}

// ---------------------------------------------------------------------
// Per-cluster sampling core
// ---------------------------------------------------------------------

/// One cluster's observability state: the series plus the health engine's
/// breach-run tracking. Lives inside the transport's per-cluster core so
/// no sample ever reaches across a cluster boundary — the property that
/// keeps parallel runs sample-identical to sequential ones.
#[derive(Debug)]
pub struct ObsCore {
    servers: BTreeMap<u32, Series<ServerPoint>>,
    volumes: BTreeMap<u32, Series<VolumePoint>>,
    engine: Series<ClusterPoint>,
    /// The newest calendar sample, buffered outside the series so the
    /// per-reply hook is a plain struct copy (the counters are monotonic,
    /// so the last sample of a bucket IS its max); flushed into `engine`
    /// when the bucket advances and folded in at merge time.
    engine_pending: Option<(u64, EventStats)>,
    rules: Vec<HealthRule>,
    /// Breach runs per `(rule, server, sub-tag)` — sub-tag separates
    /// CPU from disk for the utilization rule — as `(last breached
    /// bucket, consecutive length)`.
    runs: BTreeMap<(HealthRuleKind, u32, u8), (u64, u32)>,
    /// The events the rules fired, in detection order, one per `(rule,
    /// server, bucket)`.
    health: Vec<HealthEvent>,
    /// Last active latency bucket per server; crossing it closes the
    /// previous bucket for tail-latency evaluation.
    tail_cursor: BTreeMap<u32, u64>,
}

impl Default for ObsCore {
    fn default() -> Self {
        ObsCore::new()
    }
}

impl ObsCore {
    /// Creates an empty core with the default rule table.
    pub fn new() -> ObsCore {
        ObsCore {
            servers: BTreeMap::new(),
            volumes: BTreeMap::new(),
            engine: Series::default(),
            engine_pending: None,
            rules: default_rules().to_vec(),
            runs: BTreeMap::new(),
            health: Vec::new(),
            tail_cursor: BTreeMap::new(),
        }
    }

    fn threshold_of(&self, kind: HealthRuleKind) -> Option<u64> {
        self.rules
            .iter()
            .find(|r| r.kind == kind)
            .map(|r| r.threshold)
    }

    /// The events this core's rules have fired, in detection order.
    pub fn health_events(&self) -> &[HealthEvent] {
        &self.health
    }

    /// Advances the breach run of `(kind, server, subtag)` with a breach
    /// observed at `bucket`; logs the typed event exactly when the run's
    /// length reaches the rule's window, once per `(rule, server, bucket)`
    /// (CPU and disk can fill the utilization window in the same minute).
    #[allow(clippy::too_many_arguments)]
    fn breach(
        &mut self,
        kind: HealthRuleKind,
        subtag: u8,
        server: u32,
        volume: Option<u32>,
        bucket: u64,
        value: u64,
        at: SimTime,
    ) {
        let Some(rule) = self.rules.iter().copied().find(|r| r.kind == kind) else {
            return;
        };
        let key = (kind, server, subtag);
        let (last, run) = self.runs.get(&key).copied().unwrap_or((0, 0));
        let next = if run == 0 {
            1
        } else if bucket <= last {
            // Same bucket re-confirmed, or a previous-bucket probe arriving
            // after the run already moved on: already counted.
            return;
        } else if bucket == last + 1 {
            run + 1
        } else {
            1
        };
        self.runs.insert(key, (bucket, next));
        let logged = |e: &HealthEvent| (e.rule, e.server, e.bucket) == (kind, server, bucket);
        if next == rule.window && !self.health.iter().any(logged) {
            self.health.push(HealthEvent {
                rule: kind,
                server,
                volume,
                bucket,
                at,
                value,
                threshold: rule.threshold,
                window: rule.window,
            });
        }
    }

    /// Samples a request-queue depth observed at arrival.
    pub fn on_queue_depth(&mut self, server: u32, at: SimTime, depth: u64) {
        let p = self.servers.entry(server).or_default().point(bucket_of(at));
        p.queue_peak = p.queue_peak.max(depth);
    }

    /// Samples the unsynced journal tail observed just before a sync.
    pub fn on_journal_lag(&mut self, server: u32, at: SimTime, lag: u64) {
        let p = self.servers.entry(server).or_default().point(bucket_of(at));
        p.journal_lag = p.journal_lag.max(lag);
    }

    /// Samples a one-minute utilization probe (`resource_tag` 0 = CPU,
    /// 1 = disk) and feeds the sustained-utilization rule.
    pub fn on_utilization(
        &mut self,
        server: u32,
        resource_tag: u8,
        bucket: u64,
        pct: u8,
        at: SimTime,
    ) {
        let p = self.servers.entry(server).or_default().point(bucket);
        if resource_tag == 0 {
            p.cpu_pct = p.cpu_pct.max(u64::from(pct));
        } else {
            p.disk_pct = p.disk_pct.max(u64::from(pct));
        }
        let thr = self.threshold_of(HealthRuleKind::SustainedUtilization);
        if thr.is_some_and(|thr| u64::from(pct) >= thr) {
            self.breach(
                HealthRuleKind::SustainedUtilization,
                resource_tag,
                server,
                None,
                bucket,
                u64::from(pct),
                at,
            );
        }
    }

    /// Samples the cluster calendar's cumulative [`EventStats`]. Called
    /// on every reply departure, so the common same-bucket case is a
    /// plain overwrite of the buffer — the series is only touched when a
    /// bucket closes.
    pub fn on_engine(&mut self, bucket: u64, stats: &EventStats) {
        if let Some((b, s)) = self.engine_pending {
            if b == bucket {
                self.engine_pending = Some((bucket, *stats));
                return;
            }
            let p = self.engine.point(b);
            p.scheduled = p.scheduled.max(s.scheduled);
            p.executed = p.executed.max(s.executed);
            p.cancelled = p.cancelled.max(s.cancelled);
            p.high_water = p.high_water.max(s.high_water as u64);
        }
        self.engine_pending = Some((bucket, *stats));
    }

    /// Folds one completed call in and evaluates tail latency for the
    /// bucket the call's server just moved past.
    pub fn on_complete(&mut self, b: &CallBreakdown) {
        let bucket = bucket_of(b.finished);
        let total_us = b.total().as_micros();
        let wasted_us = b.wasted().as_micros();
        let p = self.servers.entry(b.server).or_default().point(bucket);
        p.calls += 1;
        p.latency.record(total_us as f64);
        p.by_kind.entry(b.kind).or_default().record(total_us as f64);
        p.retry_wasted_us += wasted_us;
        if let Some(v) = b.volume {
            let vp = self.volumes.entry(v).or_default().point(bucket);
            vp.calls += 1;
            vp.latency.record(total_us as f64);
            vp.retry_wasted_us += wasted_us;
        }
        self.engine.point(bucket).calls += 1;

        let closed = match self.tail_cursor.get(&b.server).copied() {
            Some(c) if bucket <= c => return,
            c => c,
        };
        self.tail_cursor.insert(b.server, bucket);
        let Some(closed) = closed else {
            return;
        };
        let p99 = self
            .servers
            .get_mut(&b.server)
            .and_then(|s| s.points.get_mut(&closed))
            .and_then(|p| p.latency.percentile(99.0))
            .unwrap_or(0.0) as u64;
        let thr = self.threshold_of(HealthRuleKind::TailLatency);
        if thr.is_some_and(|thr| p99 > thr) {
            self.breach(
                HealthRuleKind::TailLatency,
                0,
                b.server,
                None,
                closed,
                p99,
                b.finished,
            );
        }
    }

    /// Counts one genuine retransmission-timer expiry against `server`
    /// and feeds the retry-rate rule.
    pub fn on_timeout(&mut self, server: u32, volume: Option<u32>, at: SimTime) {
        let bucket = bucket_of(at);
        let p = self.servers.entry(server).or_default().point(bucket);
        p.timeouts += 1;
        let count = p.timeouts;
        // Fire exactly at the crossing; later expiries in the same bucket
        // are the same episode.
        if self.threshold_of(HealthRuleKind::RetryRate) == Some(count) {
            self.breach(
                HealthRuleKind::RetryRate,
                0,
                server,
                volume,
                bucket,
                count,
                at,
            );
        }
    }

    /// Samples the scrubber's cumulative progress counters after a pass.
    pub fn on_scrub(&mut self, server: u32, at: SimTime, files: u64, bytes: u64) {
        let p = self.servers.entry(server).or_default().point(bucket_of(at));
        p.scrub_files = p.scrub_files.max(files);
        p.scrub_bytes = p.scrub_bytes.max(bytes);
    }

    /// Counts integrity losses (volumes offlined, journal records
    /// rejected) and feeds the integrity-burn rule.
    pub fn on_integrity(
        &mut self,
        server: u32,
        volume: Option<u32>,
        at: SimTime,
        offlined: u64,
        rejected: u64,
    ) {
        let bucket = bucket_of(at);
        let p = self.servers.entry(server).or_default().point(bucket);
        p.offlined += offlined;
        p.rejected += rejected;
        let thr = self.threshold_of(HealthRuleKind::IntegrityBurn);
        if thr.is_some_and(|thr| offlined + rejected >= thr) {
            self.breach(
                HealthRuleKind::IntegrityBurn,
                0,
                server,
                volume,
                bucket,
                offlined + rejected,
                at,
            );
        }
    }
}

// ---------------------------------------------------------------------
// The merged campus view
// ---------------------------------------------------------------------

/// Per-cluster cores folded into a system-wide view, in cluster-index
/// order. Every fold is commutative per bucket, so the result is the
/// same whichever execution mode produced the cores.
#[derive(Debug, Default)]
pub struct ObsSummary {
    /// Per-server series, keyed by server id.
    pub servers: BTreeMap<u32, Series<ServerPoint>>,
    /// Per-volume series, keyed by volume id.
    pub volumes: BTreeMap<u32, Series<VolumePoint>>,
    /// Per-cluster engine series, keyed by cluster index.
    pub clusters: BTreeMap<u32, Series<ClusterPoint>>,
}

impl ObsSummary {
    /// Folds one cluster's core in.
    pub fn merge_cluster(&mut self, cluster: u32, core: &ObsCore) {
        for (sid, series) in &core.servers {
            self.servers.entry(*sid).or_default().merge(series);
        }
        for (vid, series) in &core.volumes {
            self.volumes.entry(*vid).or_default().merge(series);
        }
        let engine = self.clusters.entry(cluster).or_default();
        engine.merge(&core.engine);
        if let Some((b, s)) = core.engine_pending {
            let p = engine.point(b);
            p.scheduled = p.scheduled.max(s.scheduled);
            p.executed = p.executed.max(s.executed);
            p.cancelled = p.cancelled.max(s.cancelled);
            p.high_water = p.high_water.max(s.high_water as u64);
        }
    }

    /// Flattens the summary plus `health` into export lines: server lines
    /// first (by server id, then bucket), then volume, cluster, and
    /// health lines.
    pub fn lines(&self, health: &[HealthEvent]) -> Vec<ObsLine> {
        let mut out = Vec::new();
        for (&server, series) in &self.servers {
            for (bucket, p) in series.iter() {
                let mut lat = p.latency.clone();
                out.push(ObsLine::Server(ServerLine {
                    bucket,
                    server,
                    calls: p.calls,
                    p50_us: lat.percentile(50.0).unwrap_or(0.0) as u64,
                    p99_us: lat.percentile(99.0).unwrap_or(0.0) as u64,
                    retry_wasted_us: p.retry_wasted_us,
                    timeouts: p.timeouts,
                    queue_peak: p.queue_peak,
                    cpu_pct: p.cpu_pct,
                    disk_pct: p.disk_pct,
                    journal_lag: p.journal_lag,
                    scrub_files: p.scrub_files,
                    scrub_bytes: p.scrub_bytes,
                    offlined: p.offlined,
                    rejected: p.rejected,
                    kinds: p
                        .by_kind
                        .iter()
                        .map(|(kind, perc)| {
                            let mut perc = perc.clone();
                            let p50 = perc.percentile(50.0).unwrap_or(0.0) as u64;
                            let p99 = perc.percentile(99.0).unwrap_or(0.0) as u64;
                            format!("{kind}:{}:{p50}:{p99}", perc.len())
                        })
                        .collect::<Vec<_>>()
                        .join(","),
                }));
            }
        }
        for (&volume, series) in &self.volumes {
            for (bucket, p) in series.iter() {
                let mut lat = p.latency.clone();
                out.push(ObsLine::Volume(VolumeLine {
                    bucket,
                    volume,
                    calls: p.calls,
                    p50_us: lat.percentile(50.0).unwrap_or(0.0) as u64,
                    p99_us: lat.percentile(99.0).unwrap_or(0.0) as u64,
                    retry_wasted_us: p.retry_wasted_us,
                }));
            }
        }
        for (&cluster, series) in &self.clusters {
            for (bucket, p) in series.iter() {
                out.push(ObsLine::Cluster(ClusterLine {
                    bucket,
                    cluster,
                    calls: p.calls,
                    scheduled: p.scheduled,
                    executed: p.executed,
                    cancelled: p.cancelled,
                    high_water: p.high_water,
                }));
            }
        }
        out.extend(health.iter().map(|ev| ObsLine::Health(*ev)));
        out
    }

    /// The full deterministic JSONL export (one [`render_obs_line`] line
    /// per sampled point and health event).
    pub fn render_jsonl(&self, health: &[HealthEvent]) -> String {
        let mut out = String::new();
        for mut line in self.lines(health) {
            let _ = writeln!(out, "{}", Writer::line(&mut line, obs_fields));
        }
        out
    }
}

// ---------------------------------------------------------------------
// Flat export lines: render, parse, console
// ---------------------------------------------------------------------

/// One server-series bucket, flattened for export.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerLine {
    /// Bucket index (virtual minute).
    pub bucket: u64,
    /// Server id.
    pub server: u32,
    /// Calls completed.
    pub calls: u64,
    /// Median end-to-end latency, µs.
    pub p50_us: u64,
    /// 99th-percentile end-to-end latency, µs.
    pub p99_us: u64,
    /// Retry-wasted µs.
    pub retry_wasted_us: u64,
    /// Genuine timer expiries.
    pub timeouts: u64,
    /// Deepest arrival queue.
    pub queue_peak: u64,
    /// Peak CPU utilization, percent.
    pub cpu_pct: u64,
    /// Peak disk utilization, percent.
    pub disk_pct: u64,
    /// Largest unsynced journal tail, bytes.
    pub journal_lag: u64,
    /// Scrubber cumulative files scanned.
    pub scrub_files: u64,
    /// Scrubber cumulative bytes scanned.
    pub scrub_bytes: u64,
    /// Volumes offlined this bucket.
    pub offlined: u64,
    /// Journal records rejected this bucket.
    pub rejected: u64,
    /// Per-kind latency digests `kind:calls:p50_us:p99_us`, comma-joined
    /// in kind order.
    pub kinds: String,
}

/// One volume-series bucket, flattened for export.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VolumeLine {
    /// Bucket index.
    pub bucket: u64,
    /// Volume id.
    pub volume: u32,
    /// Calls resolved.
    pub calls: u64,
    /// Median latency, µs.
    pub p50_us: u64,
    /// 99th-percentile latency, µs.
    pub p99_us: u64,
    /// Retry-wasted µs.
    pub retry_wasted_us: u64,
}

/// One cluster-engine bucket, flattened for export.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterLine {
    /// Bucket index.
    pub bucket: u64,
    /// Cluster index.
    pub cluster: u32,
    /// Calls completed by the cluster's workstations.
    pub calls: u64,
    /// Cumulative events scheduled.
    pub scheduled: u64,
    /// Cumulative events executed.
    pub executed: u64,
    /// Cumulative events cancelled.
    pub cancelled: u64,
    /// Calendar high-water mark.
    pub high_water: u64,
}

/// One line of the series export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsLine {
    /// A server-series bucket.
    Server(ServerLine),
    /// A volume-series bucket.
    Volume(VolumeLine),
    /// A cluster-engine bucket.
    Cluster(ClusterLine),
    /// A health event (`at` exported as `at_us`).
    Health(HealthEvent),
}

/// The four series kinds' fields, in line order; `series` names the kind.
fn obs_fields<F: Field>(l: &mut ObsLine, f: &mut F) {
    match l {
        ObsLine::Server(s) => {
            f.tag("series", "server");
            f.u64("bucket", &mut s.bucket);
            f.u32("server", &mut s.server);
            f.u64("calls", &mut s.calls);
            f.u64("p50_us", &mut s.p50_us);
            f.u64("p99_us", &mut s.p99_us);
            f.u64("retry_wasted_us", &mut s.retry_wasted_us);
            f.u64("timeouts", &mut s.timeouts);
            f.u64("queue_peak", &mut s.queue_peak);
            f.u64("cpu_pct", &mut s.cpu_pct);
            f.u64("disk_pct", &mut s.disk_pct);
            f.u64("journal_lag", &mut s.journal_lag);
            f.u64("scrub_files", &mut s.scrub_files);
            f.u64("scrub_bytes", &mut s.scrub_bytes);
            f.u64("offlined", &mut s.offlined);
            f.u64("rejected", &mut s.rejected);
            f.text("kinds", &mut s.kinds);
        }
        ObsLine::Volume(v) => {
            f.tag("series", "volume");
            f.u64("bucket", &mut v.bucket);
            f.u32("volume", &mut v.volume);
            f.u64("calls", &mut v.calls);
            f.u64("p50_us", &mut v.p50_us);
            f.u64("p99_us", &mut v.p99_us);
            f.u64("retry_wasted_us", &mut v.retry_wasted_us);
        }
        ObsLine::Cluster(c) => {
            f.tag("series", "cluster");
            f.u64("bucket", &mut c.bucket);
            f.u32("cluster", &mut c.cluster);
            f.u64("calls", &mut c.calls);
            f.u64("scheduled", &mut c.scheduled);
            f.u64("executed", &mut c.executed);
            f.u64("cancelled", &mut c.cancelled);
            f.u64("high_water", &mut c.high_water);
        }
        ObsLine::Health(h) => {
            f.tag("series", "health");
            f.str(
                "rule",
                h.rule.label(),
                &mut h.rule,
                HealthRuleKind::from_label,
            );
            f.u32("server", &mut h.server);
            f.opt_u32("volume", &mut h.volume);
            f.u64("bucket", &mut h.bucket);
            f.micros("at_us", &mut h.at);
            f.u64("value", &mut h.value);
            f.u64("threshold", &mut h.threshold);
            f.u32("window", &mut h.window);
        }
    }
}

/// Renders one export line as flat JSON (no trailing newline). Field
/// order is fixed and every value is a virtual-time observable, so the
/// output is byte-identical across same-seed runs and execution modes.
pub fn render_obs_line(l: &ObsLine) -> String {
    Writer::line(&mut l.clone(), obs_fields)
}

/// Parses one [`render_obs_line`] line back — the inverse the offline
/// re-renderer uses; `None` for anything the renderer could not have
/// written.
pub fn parse_obs_line(line: &str) -> Option<ObsLine> {
    // A blank of the wrong kind is rejected at its `series` tag.
    [
        ObsLine::Server(ServerLine::default()),
        ObsLine::Volume(VolumeLine::default()),
        ObsLine::Cluster(ClusterLine::default()),
        ObsLine::Health(HealthEvent::default()),
    ]
    .into_iter()
    .find_map(|blank| Reader::line(line, blank, obs_fields))
}

/// Renders the `vice-top` campus-at-a-glance console from export lines —
/// the same function serves the live `bench top` path and the offline
/// re-renderer, so a re-rendered export is byte-identical to the live
/// view.
pub fn render_console(lines: &[ObsLine]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "vice-top — campus at a glance (one row per server-minute)"
    );
    let _ = writeln!(
        out,
        "{:>4} {:>4} {:>6} {:>9} {:>9} {:>4} {:>4} {:>5} {:>8} {:>9} {:>4} {:>7} {:>4} {:>4}",
        "min",
        "srv",
        "calls",
        "p50_ms",
        "p99_ms",
        "cpu%",
        "dsk%",
        "queue",
        "lag_b",
        "waste_ms",
        "t/o",
        "scrub_f",
        "off",
        "rej"
    );
    for l in lines {
        if let ObsLine::Server(s) = l {
            let _ = writeln!(
                out,
                "{:>4} {:>4} {:>6} {:>9.1} {:>9.1} {:>4} {:>4} {:>5} {:>8} {:>9.1} {:>4} {:>7} {:>4} {:>4}",
                s.bucket,
                s.server,
                s.calls,
                s.p50_us as f64 / 1000.0,
                s.p99_us as f64 / 1000.0,
                s.cpu_pct,
                s.disk_pct,
                s.queue_peak,
                s.journal_lag,
                s.retry_wasted_us as f64 / 1000.0,
                s.timeouts,
                s.scrub_files,
                s.offlined,
                s.rejected,
            );
        }
    }
    let volumes: Vec<&VolumeLine> = lines
        .iter()
        .filter_map(|l| match l {
            ObsLine::Volume(v) => Some(v),
            _ => None,
        })
        .collect();
    if !volumes.is_empty() {
        let _ = writeln!(out, "volumes:");
        let _ = writeln!(
            out,
            "{:>4} {:>4} {:>6} {:>9} {:>9} {:>9}",
            "min", "vol", "calls", "p50_ms", "p99_ms", "waste_ms"
        );
        for v in volumes {
            let _ = writeln!(
                out,
                "{:>4} {:>4} {:>6} {:>9.1} {:>9.1} {:>9.1}",
                v.bucket,
                v.volume,
                v.calls,
                v.p50_us as f64 / 1000.0,
                v.p99_us as f64 / 1000.0,
                v.retry_wasted_us as f64 / 1000.0,
            );
        }
    }
    let clusters: Vec<&ClusterLine> = lines
        .iter()
        .filter_map(|l| match l {
            ObsLine::Cluster(c) => Some(c),
            _ => None,
        })
        .collect();
    if !clusters.is_empty() {
        let _ = writeln!(out, "engine:");
        let _ = writeln!(
            out,
            "{:>4} {:>4} {:>6} {:>9} {:>9} {:>9} {:>6}",
            "min", "cls", "calls", "sched", "exec", "cancel", "hw"
        );
        for c in clusters {
            let _ = writeln!(
                out,
                "{:>4} {:>4} {:>6} {:>9} {:>9} {:>9} {:>6}",
                c.bucket, c.cluster, c.calls, c.scheduled, c.executed, c.cancelled, c.high_water,
            );
        }
    }
    let health: Vec<&HealthEvent> = lines
        .iter()
        .filter_map(|l| match l {
            ObsLine::Health(h) => Some(h),
            _ => None,
        })
        .collect();
    if health.is_empty() {
        let _ = writeln!(out, "health: ok — no rule fired");
    } else {
        let _ = writeln!(out, "health:");
        for h in &health {
            let vol = h.volume.map_or(String::new(), |v| format!(" vol {v}"));
            let _ = writeln!(
                out,
                "  [min {:>3}] {} srv {}{}: value {} >= {} over window {}",
                h.bucket,
                h.rule.label(),
                h.server,
                vol,
                h.value,
                h.threshold,
                h.window,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_follows_the_utilization_width() {
        assert_eq!(bucket_of(SimTime::ZERO), 0);
        assert_eq!(bucket_of(SimTime::from_secs(59)), 0);
        assert_eq!(bucket_of(SimTime::from_secs(60)), 1);
        assert_eq!(bucket_of(SimTime::from_mins(7)), 7);
    }

    #[test]
    fn series_is_bounded_and_evicts_oldest() {
        let mut s: Series<ClusterPoint> = Series::default();
        for b in 0..SERIES_CAPACITY as u64 + 5 {
            s.point(b).calls += 1;
        }
        assert_eq!(s.len(), SERIES_CAPACITY);
        assert!(s.get(4).is_none(), "oldest buckets evicted");
        assert!(s.get(5).is_some());
    }

    /// Runs one sample hook and returns the event it logged, if any.
    fn fired(core: &mut ObsCore, sample: impl FnOnce(&mut ObsCore)) -> Option<HealthEvent> {
        let before = core.health_events().len();
        sample(core);
        core.health_events().get(before).copied()
    }

    #[test]
    fn breach_runs_fire_once_per_episode_at_the_window() {
        let mut core = ObsCore::new();
        // window 2: one saturated bucket is silent, the second fires,
        // the third (same episode) stays silent.
        let t = SimTime::from_mins(3);
        assert!(fired(&mut core, |c| c.on_utilization(0, 0, 3, 99, t)).is_none());
        let ev = fired(&mut core, |c| c.on_utilization(0, 0, 4, 99, t)).expect("window filled");
        assert_eq!(ev.rule, HealthRuleKind::SustainedUtilization);
        assert_eq!(ev.bucket, 4);
        assert_eq!(ev.window, 2);
        assert!(fired(&mut core, |c| c.on_utilization(0, 0, 5, 100, t)).is_none());
        // A clean bucket resets the run.
        assert!(fired(&mut core, |c| c.on_utilization(0, 0, 7, 99, t)).is_none());
        assert!(fired(&mut core, |c| c.on_utilization(0, 0, 8, 99, t)).is_some());
        // CPU and disk runs are independent.
        assert!(fired(&mut core, |c| c.on_utilization(0, 1, 8, 99, t)).is_none());
        // Below-threshold observations only feed the gauge.
        assert!(fired(&mut core, |c| c.on_utilization(0, 0, 9, 50, t)).is_none());
        let p = core.servers[&0].get(9).unwrap();
        assert_eq!(p.cpu_pct, 50);
        // CPU and disk filling the window in the same minute is one
        // verdict on that server-minute, not two.
        let mut core = ObsCore::new();
        core.on_utilization(0, 0, 3, 99, t);
        core.on_utilization(0, 1, 3, 99, t);
        assert!(fired(&mut core, |c| c.on_utilization(0, 0, 4, 99, t)).is_some());
        assert!(
            fired(&mut core, |c| c.on_utilization(0, 1, 4, 99, t)).is_none(),
            "same rule+server+bucket dedups"
        );
        assert!(fired(&mut core, |c| c.on_utilization(1, 1, 4, 99, t)).is_none());
        assert!(fired(&mut core, |c| c.on_utilization(1, 1, 5, 99, t)).is_some());
    }

    #[test]
    fn retry_rate_fires_at_the_crossing_and_coalesces_adjacent_buckets() {
        let mut core = ObsCore::new();
        let t = SimTime::from_mins(2);
        let timeout = |core: &mut ObsCore, at| fired(core, |c| c.on_timeout(1, Some(7), at));
        assert!(timeout(&mut core, t).is_none(), "first expiry");
        let ev = timeout(&mut core, t).expect("second crosses");
        assert_eq!(ev.rule, HealthRuleKind::RetryRate);
        assert_eq!(ev.value, 2);
        assert_eq!(ev.volume, Some(7));
        assert!(timeout(&mut core, t).is_none(), "same bucket");
        // Adjacent bucket: same episode continuing.
        let t3 = SimTime::from_mins(3);
        assert!(timeout(&mut core, t3).is_none());
        assert!(timeout(&mut core, t3).is_none());
        // A gap starts a fresh episode.
        let t5 = SimTime::from_mins(5);
        assert!(timeout(&mut core, t5).is_none());
        assert!(timeout(&mut core, t5).is_some());
    }

    fn call(server: u32, finished_min: u64, total_ms: u64) -> CallBreakdown {
        let finished = SimTime::from_mins(finished_min);
        CallBreakdown {
            trace: itc_sim::TraceId(1),
            kind: "fetch",
            server,
            volume: Some(3),
            client: 0,
            attempts: 1,
            started: finished - SimTime::from_millis(total_ms),
            finished,
            retry_wasted: SimTime::ZERO,
            req_net: SimTime::ZERO,
            queue_cpu: SimTime::ZERO,
            service_cpu: SimTime::from_millis(total_ms),
            queue_disk: SimTime::ZERO,
            service_disk: SimTime::ZERO,
            reply_net: SimTime::ZERO,
            fault_delay: SimTime::ZERO,
        }
    }

    #[test]
    fn tail_latency_evaluates_the_closed_bucket() {
        let mut core = ObsCore::new();
        // Bucket 2: p99 over 60s. Evaluated when bucket 3 opens.
        assert!(fired(&mut core, |c| c.on_complete(&call(0, 2, 70_000))).is_none());
        let ev = fired(&mut core, |c| c.on_complete(&call(0, 3, 10))).expect("closed bucket 2");
        assert_eq!(ev.rule, HealthRuleKind::TailLatency);
        assert_eq!(ev.bucket, 2);
        assert_eq!(ev.value, 70_000_000);
        // Bucket 3 was fast: closing it is silent.
        assert!(fired(&mut core, |c| c.on_complete(&call(0, 5, 10))).is_none());
    }

    #[test]
    fn integrity_burn_fires_on_the_first_loss() {
        let mut core = ObsCore::new();
        let t = SimTime::from_mins(9);
        let ev = fired(&mut core, |c| c.on_integrity(1, Some(4), t, 1, 0)).expect("offlining");
        assert_eq!(ev.rule, HealthRuleKind::IntegrityBurn);
        assert_eq!(ev.volume, Some(4));
        assert!(
            fired(&mut core, |c| c.on_integrity(1, Some(4), t, 1, 0)).is_none(),
            "same bucket"
        );
        assert!(
            fired(&mut core, |c| c.on_integrity(1, None, t, 0, 0)).is_none(),
            "no loss"
        );
        let p = core.servers[&1].get(9).unwrap();
        assert_eq!(p.offlined, 2);
    }

    #[test]
    fn merged_summary_is_commutative_across_cluster_order() {
        let mut a = ObsCore::new();
        let mut b = ObsCore::new();
        let t = SimTime::from_mins(1);
        a.on_complete(&call(0, 1, 500));
        b.on_complete(&call(0, 1, 900));
        a.on_queue_depth(0, t, 3);
        b.on_queue_depth(0, t, 5);

        let mut ab = ObsSummary::default();
        ab.merge_cluster(0, &a);
        ab.merge_cluster(1, &b);
        let mut ba = ObsSummary::default();
        ba.merge_cluster(1, &b);
        ba.merge_cluster(0, &a);
        assert_eq!(ab.render_jsonl(&[]), ba.render_jsonl(&[]));
        let p = ab.servers[&0].get(1).unwrap();
        assert_eq!(p.calls, 2);
        assert_eq!(p.queue_peak, 5);
    }

    #[test]
    fn every_line_kind_round_trips_exactly() {
        let mut core = ObsCore::new();
        core.on_complete(&call(0, 2, 70_000));
        core.on_complete(&call(0, 3, 10));
        core.on_timeout(0, None, SimTime::from_mins(2));
        core.on_scrub(0, SimTime::from_mins(2), 12, 34_000);
        core.on_engine(
            2,
            &EventStats {
                scheduled: 10,
                executed: 8,
                cancelled: 2,
                high_water: 4,
            },
        );
        let health = [HealthEvent {
            rule: HealthRuleKind::TailLatency,
            server: 0,
            volume: None,
            bucket: 1,
            at: SimTime::from_mins(2),
            value: 70_000_000,
            threshold: 60_000_000,
            window: 1,
        }];
        let mut sum = ObsSummary::default();
        sum.merge_cluster(0, &core);
        let text = sum.render_jsonl(&health);
        assert!(!text.is_empty());
        let mut kinds_seen = [false; 4];
        for line in text.lines() {
            let parsed = parse_obs_line(line).expect("every exported line parses");
            assert_eq!(render_obs_line(&parsed), line, "byte round-trip");
            match parsed {
                ObsLine::Server(_) => kinds_seen[0] = true,
                ObsLine::Volume(_) => kinds_seen[1] = true,
                ObsLine::Cluster(_) => kinds_seen[2] = true,
                ObsLine::Health(_) => kinds_seen[3] = true,
            }
        }
        assert_eq!(kinds_seen, [true; 4], "all four line kinds exported");
        // One line of each kind under hostile bytes.
        for kind in ["server", "volume", "cluster", "health"] {
            let tag = format!("\"series\":\"{kind}\"");
            let line = text.lines().find(|l| l.contains(&tag)).expect("seen above");
            crate::trace::tests::sweep(line, |m| parse_obs_line(m).map(|l| render_obs_line(&l)));
        }
        // The console renders identically from live lines and re-parsed
        // lines — the offline re-renderer's contract.
        let live = sum.lines(&health);
        let reparsed: Vec<ObsLine> = text.lines().map(|l| parse_obs_line(l).unwrap()).collect();
        assert_eq!(render_console(&live), render_console(&reparsed));
        assert!(render_console(&live).contains("tail_latency"));
    }
}
