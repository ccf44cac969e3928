//! Causal request tracing over the event calendar.
//!
//! Section 3.6 of the paper names monitoring tools as a recognized
//! missing piece — "required to ease day-to-day operations of the
//! system". Aggregate counters ([`crate::stats`]) answer *how much*; this
//! module answers *why*: every Vice call is assigned a [`TraceId`] when
//! its first `AttemptSend` enters the calendar, and each hop of the event
//! chain (`AttemptSend → RequestArrive → ServiceDispatch → ReplyDepart →
//! ReplyArrive`, racing `TimeoutFire`, plus lifecycle events) deposits a
//! typed [`Span`] into a bounded ring buffer.
//!
//! Tracing is **observation-only** by construction. Nothing in this
//! module draws from a [`crate::SimRng`], schedules a calendar event, or
//! advances a clock: a span records virtual timestamps the simulation
//! already computed. Runs with tracing on and off are therefore
//! bit-identical in every virtual-time observable — an invariant the
//! golden-timings suite pins.
//!
//! On top of raw spans sits the **anomaly flight recorder**: when the
//! owner detects an anomaly (a call timing out, a volume answering
//! offline, a one-minute utilization peak at or above the configured
//! threshold) it freezes the most recent spans touching the implicated
//! server or volume into an [`AnomalyDump`]. Dumps are retained in order
//! and contain only virtual-time data, so their serialized form is
//! byte-identical across same-seed runs.

use crate::clock::SimTime;
use std::collections::HashSet;
use std::collections::VecDeque;
use std::fmt;

/// Identity of one traced logical call, unique within a collector.
///
/// Ids are minted sequentially starting at 1; 0 is reserved as "untraced"
/// so a frame carrying trace id 0 marks a call issued while tracing was
/// off. A collector owned by cluster `c` tags its ids with `c` in the
/// top 16 bits ([`TraceCollector::set_cluster`]), so ids stay globally
/// unique across per-cluster collectors while cluster 0 — and therefore
/// every single-cluster system — keeps the historical 1, 2, 3… sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The reserved "not traced" id.
    pub const NONE: TraceId = TraceId(0);

    /// Whether this id names a real trace.
    pub fn is_traced(self) -> bool {
        self.0 != 0
    }

    /// The cluster whose collector minted this id (its top 16 bits, see
    /// [`TraceCollector::set_cluster`]).
    pub fn cluster(self) -> usize {
        (self.0 >> 48) as usize
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// What kind of event a span records — one variant per hop of the call
/// chain plus the lifecycle events that share the calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SpanClass {
    /// The client (re)sent the framed request.
    #[default]
    AttemptSend,
    /// The request reached the server and was opened.
    RequestArrive,
    /// The server executed the request.
    ServiceDispatch,
    /// The sealed reply left the server.
    ReplyDepart,
    /// The reply reached the client; the call resolved.
    ReplyArrive,
    /// The client's retransmission timer expired.
    TimeoutFire,
    /// The call resolved without a reply (unreachable server or retry
    /// exhaustion).
    CallAbort,
    /// A scheduled server crash fired.
    Crash,
    /// A scheduled server restart fired.
    Restart,
    /// A salvager pass over one volume completed.
    Salvage,
    /// A callback break reached its target workstation.
    BreakDeliver,
    /// A scheduled silent-corruption injection fired against a server's
    /// durable storage.
    Corrupt,
    /// A background scrubber pass over one volume completed.
    Scrub,
}

impl SpanClass {
    /// Every class, in declaration order.
    pub const ALL: [SpanClass; 13] = [
        SpanClass::AttemptSend,
        SpanClass::RequestArrive,
        SpanClass::ServiceDispatch,
        SpanClass::ReplyDepart,
        SpanClass::ReplyArrive,
        SpanClass::TimeoutFire,
        SpanClass::CallAbort,
        SpanClass::Crash,
        SpanClass::Restart,
        SpanClass::Salvage,
        SpanClass::BreakDeliver,
        SpanClass::Corrupt,
        SpanClass::Scrub,
    ];

    /// The class a serialized label names.
    pub fn from_label(label: &str) -> Option<SpanClass> {
        SpanClass::ALL.into_iter().find(|c| c.label() == label)
    }

    /// Stable lower-case label used in serialized dumps.
    pub fn label(self) -> &'static str {
        match self {
            SpanClass::AttemptSend => "attempt_send",
            SpanClass::RequestArrive => "request_arrive",
            SpanClass::ServiceDispatch => "service_dispatch",
            SpanClass::ReplyDepart => "reply_depart",
            SpanClass::ReplyArrive => "reply_arrive",
            SpanClass::TimeoutFire => "timeout_fire",
            SpanClass::CallAbort => "call_abort",
            SpanClass::Crash => "crash",
            SpanClass::Restart => "restart",
            SpanClass::Salvage => "salvage",
            SpanClass::BreakDeliver => "break_deliver",
            SpanClass::Corrupt => "corrupt",
            SpanClass::Scrub => "scrub",
        }
    }
}

impl fmt::Display for SpanClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One hop of one traced call (or one lifecycle event), as recorded by
/// the owning system. All fields are virtual-time observables; a span
/// never stores wall-clock data, so serialized spans are bit-stable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Span {
    /// The logical call this hop belongs to ([`TraceId::NONE`] for
    /// lifecycle events outside any call).
    pub trace: TraceId,
    /// Hop index within the trace (0-based, in recording order).
    pub seq: u32,
    /// What happened.
    pub class: SpanClass,
    /// When it happened, in virtual time.
    pub at: SimTime,
    /// The server involved, if any.
    pub server: Option<u32>,
    /// The client (workstation node) involved, if any.
    pub client: Option<u32>,
    /// The volume involved, if known.
    pub volume: Option<u32>,
    /// Attempt number of the call (1-based; 0 for lifecycle events).
    pub attempt: u32,
    /// Call kind label ("fetch", "validate", ...), if known at this hop.
    pub kind: Option<&'static str>,
}

/// Why the flight recorder froze a dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AnomalyReason {
    /// A call exhausted its retries.
    #[default]
    TimedOut,
    /// A call found its server down.
    Unreachable,
    /// A server answered that the target volume is offline.
    VolumeOffline,
    /// A server answered with another degraded-mode error.
    Degraded,
    /// A resource's one-minute utilization bucket met the peak threshold.
    /// The payload is the utilization in percent, rounded down.
    UtilizationPeak(u8),
    /// Stored bytes failed their digest check (journal trailer or Merkle
    /// leaf) and could not be repaired from a replica.
    IntegrityFault,
}

impl AnomalyReason {
    /// Stable lower-case label used in serialized dumps and file names.
    pub fn label(self) -> &'static str {
        match self {
            AnomalyReason::TimedOut => "timed_out",
            AnomalyReason::Unreachable => "unreachable",
            AnomalyReason::VolumeOffline => "volume_offline",
            AnomalyReason::Degraded => "degraded",
            AnomalyReason::UtilizationPeak(_) => "utilization_peak",
            AnomalyReason::IntegrityFault => "integrity_fault",
        }
    }

    /// The reason whose `Display` form is exactly `shown`.
    pub fn from_display(shown: &str) -> Option<AnomalyReason> {
        use AnomalyReason::*;
        let peak = shown
            .strip_prefix("utilization_peak(")
            .and_then(|rest| rest.strip_suffix("%)"))
            .and_then(|pct| pct.parse().ok())
            .map(UtilizationPeak);
        [
            TimedOut,
            Unreachable,
            VolumeOffline,
            Degraded,
            IntegrityFault,
        ]
        .into_iter()
        .chain(peak)
        .find(|r| r.to_string() == shown)
    }
}

impl fmt::Display for AnomalyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnomalyReason::UtilizationPeak(pct) => write!(f, "utilization_peak({pct}%)"),
            other => f.write_str(other.label()),
        }
    }
}

/// Which declarative SLO rule fired. The health engine's rule table, and
/// the log of events it fires, live in the core observability layer; the
/// types sit here beside the anomaly dumps they complement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum HealthRuleKind {
    /// One-minute utilization at or above the threshold percentage for a
    /// window of consecutive buckets.
    #[default]
    SustainedUtilization,
    /// A closed bucket's p99 end-to-end latency above the threshold (µs).
    TailLatency,
    /// Genuine retransmission-timer expiries in one bucket at or above the
    /// threshold count.
    RetryRate,
    /// Integrity verifiers offlined a volume or rejected journal records
    /// this bucket.
    IntegrityBurn,
}

impl HealthRuleKind {
    /// Every rule kind, in declaration (and sort) order.
    pub const ALL: [HealthRuleKind; 4] = [
        HealthRuleKind::SustainedUtilization,
        HealthRuleKind::TailLatency,
        HealthRuleKind::RetryRate,
        HealthRuleKind::IntegrityBurn,
    ];

    /// The rule kind a serialized label names.
    pub fn from_label(label: &str) -> Option<HealthRuleKind> {
        HealthRuleKind::ALL.into_iter().find(|r| r.label() == label)
    }

    /// Stable lower-case label used in serialized series exports.
    pub fn label(self) -> &'static str {
        match self {
            HealthRuleKind::SustainedUtilization => "sustained_utilization",
            HealthRuleKind::TailLatency => "tail_latency",
            HealthRuleKind::RetryRate => "retry_rate",
            HealthRuleKind::IntegrityBurn => "integrity_burn",
        }
    }
}

impl fmt::Display for HealthRuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One typed SLO/health event emitted by the health engine's windowed
/// burn-rate rules. All fields are virtual-time observables, so recorded
/// events are bit-identical across same-seed runs and across sequential
/// vs. parallel execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthEvent {
    /// The rule that fired.
    pub rule: HealthRuleKind,
    /// The implicated server.
    pub server: u32,
    /// The implicated volume, when the rule names one.
    pub volume: Option<u32>,
    /// The one-minute bucket whose value breached.
    pub bucket: u64,
    /// Virtual time of the observation that completed the breach window.
    pub at: SimTime,
    /// The measured value (percent, µs, or count, per the rule).
    pub value: u64,
    /// The rule's threshold in the same unit.
    pub threshold: u64,
    /// Consecutive breached buckets the rule required.
    pub window: u32,
}

/// A frozen snapshot of recent spans around one anomaly.
#[derive(Debug, Clone, Default)]
pub struct AnomalyDump {
    /// Sequential dump number (0-based, in detection order).
    pub index: u32,
    /// Why the recorder fired.
    pub reason: AnomalyReason,
    /// Virtual time of detection.
    pub at: SimTime,
    /// The implicated server.
    pub server: Option<u32>,
    /// The implicated volume, if the anomaly names one.
    pub volume: Option<u32>,
    /// The trace that tripped the recorder, if the anomaly is call-bound.
    pub trace: TraceId,
    /// The frozen spans: the most recent ring-buffer entries touching the
    /// implicated server or volume, oldest first.
    pub spans: Vec<Span>,
}

/// Counters describing what the collector has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Traces minted.
    pub traces: u64,
    /// Spans recorded (including those since evicted from the ring).
    pub spans: u64,
    /// Spans evicted from the ring by capacity.
    pub evicted: u64,
    /// Anomaly dumps frozen.
    pub anomalies: u64,
}

impl TraceStats {
    /// Folds another collector's counters into this one (used to report
    /// totals across per-cluster collectors).
    pub fn merge(&mut self, other: &TraceStats) {
        self.traces += other.traces;
        self.spans += other.spans;
        self.evicted += other.evicted;
        self.anomalies += other.anomalies;
    }
}

/// Default ring-buffer capacity: enough for several hundred calls' worth
/// of hops without letting a long day grow memory without bound.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// Default number of spans frozen into one anomaly dump.
pub const DEFAULT_FREEZE_WINDOW: usize = 64;

/// The bounded span ring plus the anomaly flight recorder.
///
/// The collector has no on/off state: its owner decides whether to mint,
/// record or freeze at all. While the owner's switch is off nothing reaches
/// the collector — no spans are allocated, no ring is touched.
#[derive(Debug)]
pub struct TraceCollector {
    capacity: usize,
    freeze_window: usize,
    ring: VecDeque<Span>,
    trace_base: u64,
    next_trace: u64,
    next_seq: u32,
    dumps: Vec<AnomalyDump>,
    /// Utilization peaks already reported, as `(server, resource-tag,
    /// bucket-index)` — the recorder fires once per saturated bucket, not
    /// once per call that observes it.
    seen_peaks: HashSet<(u32, u8, u64)>,
    stats: TraceStats,
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::new()
    }
}

impl TraceCollector {
    /// Creates a collector with default bounds.
    pub fn new() -> TraceCollector {
        TraceCollector::with_bounds(DEFAULT_SPAN_CAPACITY, DEFAULT_FREEZE_WINDOW)
    }

    /// Creates a collector with explicit ring capacity and freeze-window
    /// size.
    pub fn with_bounds(capacity: usize, freeze_window: usize) -> TraceCollector {
        assert!(capacity > 0, "span ring needs capacity");
        assert!(
            freeze_window > 0,
            "freeze window must hold at least one span"
        );
        TraceCollector {
            capacity,
            freeze_window,
            ring: VecDeque::new(),
            trace_base: 0,
            next_trace: 0,
            next_seq: 0,
            dumps: Vec::new(),
            seen_peaks: HashSet::new(),
            stats: TraceStats::default(),
        }
    }

    /// Marks this collector as cluster `cluster`'s: subsequently minted
    /// ids carry the cluster in their top 16 bits. Cluster 0 (the only
    /// cluster of a single-cluster system) mints unchanged ids.
    /// [`TraceId::cluster`] reads the cluster back.
    pub fn set_cluster(&mut self, cluster: u32) {
        self.trace_base = u64::from(cluster) << 48;
    }

    /// Mints the next [`TraceId`].
    pub fn mint(&mut self) -> TraceId {
        self.next_trace += 1;
        self.next_seq = 0;
        self.stats.traces += 1;
        TraceId(self.trace_base | self.next_trace)
    }

    /// The next hop index for the current trace.
    pub fn next_seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// Records one span into the ring, evicting the oldest beyond
    /// capacity.
    pub fn record(&mut self, span: Span) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.stats.evicted += 1;
        }
        self.ring.push_back(span);
        self.stats.spans += 1;
    }

    /// The spans currently resident in the ring, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.ring.iter()
    }

    /// The resident spans of one trace, oldest first.
    pub fn spans_of(&self, trace: TraceId) -> Vec<&Span> {
        self.ring.iter().filter(|s| s.trace == trace).collect()
    }

    /// Freezes the most recent `freeze_window` resident spans touching
    /// `server` or `volume` (or belonging to `trace`) into an anomaly
    /// dump.
    pub fn freeze(
        &mut self,
        reason: AnomalyReason,
        at: SimTime,
        server: Option<u32>,
        volume: Option<u32>,
        trace: TraceId,
    ) {
        let mut picked: Vec<Span> = self
            .ring
            .iter()
            .rev()
            .filter(|s| {
                (server.is_some() && s.server == server)
                    || (volume.is_some() && s.volume == volume)
                    || (trace.is_traced() && s.trace == trace)
            })
            .take(self.freeze_window)
            .cloned()
            .collect();
        picked.reverse();
        let index = self.dumps.len() as u32;
        self.dumps.push(AnomalyDump {
            index,
            reason,
            at,
            server,
            volume,
            trace,
            spans: picked,
        });
        self.stats.anomalies += 1;
    }

    /// Reports a one-minute utilization peak for `(server, resource_tag)`
    /// at `at`, freezing a dump the first time each saturated bucket is
    /// seen. `resource_tag` distinguishes the server's resources (0 = CPU,
    /// 1 = disk); `bucket` is the saturated bucket's index.
    pub fn report_peak(
        &mut self,
        server: u32,
        resource_tag: u8,
        bucket: u64,
        percent: u8,
        at: SimTime,
    ) {
        if !self.seen_peaks.insert((server, resource_tag, bucket)) {
            return;
        }
        // One sustained saturation episode can span a bucket edge: the
        // reply-depart probe examines both the current and the previous
        // bucket, so adjacent saturated buckets are one episode continuing,
        // not a new peak. The key is still inserted above, which lets a
        // long episode extend bucket by bucket while freezing only once; a
        // gap of at least one unsaturated bucket starts a fresh episode.
        if bucket > 0
            && self
                .seen_peaks
                .contains(&(server, resource_tag, bucket - 1))
        {
            return;
        }
        self.freeze(
            AnomalyReason::UtilizationPeak(percent),
            at,
            Some(server),
            None,
            TraceId::NONE,
        );
    }

    /// The frozen anomaly dumps, in detection order.
    pub fn dumps(&self) -> &[AnomalyDump] {
        &self.dumps
    }

    /// Lifetime counters.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, seq: u32, class: SpanClass, server: u32) -> Span {
        Span {
            trace: TraceId(trace),
            seq,
            class,
            at: SimTime::from_millis(u64::from(seq)),
            server: Some(server),
            client: Some(9),
            volume: None,
            attempt: 1,
            kind: Some("fetch"),
        }
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let mut c = TraceCollector::with_bounds(3, 2);
        for i in 0..5 {
            c.record(span(1, i, SpanClass::AttemptSend, 0));
        }
        let seqs: Vec<u32> = c.spans().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(c.stats().spans, 5);
        assert_eq!(c.stats().evicted, 2);
    }

    #[test]
    fn freeze_picks_spans_touching_the_implicated_server() {
        let mut c = TraceCollector::with_bounds(16, 8);
        c.record(span(1, 0, SpanClass::AttemptSend, 0));
        c.record(span(2, 0, SpanClass::AttemptSend, 1));
        c.record(span(2, 1, SpanClass::TimeoutFire, 1));
        c.freeze(
            AnomalyReason::TimedOut,
            SimTime::from_secs(1),
            Some(1),
            None,
            TraceId(2),
        );
        let d = &c.dumps()[0];
        assert_eq!(d.reason, AnomalyReason::TimedOut);
        assert_eq!(d.spans.len(), 2);
        assert!(d.spans.iter().all(|s| s.server == Some(1)));
        // Oldest first.
        assert!(d.spans[0].seq < d.spans[1].seq);
    }

    #[test]
    fn peak_reports_fire_once_per_episode() {
        let mut c = TraceCollector::new();
        c.record(span(1, 0, SpanClass::ServiceDispatch, 0));
        // Re-observations of the same bucket and the adjacent bucket of the
        // same episode stay silent; only the episode's first bucket fires.
        c.report_peak(0, 1, 7, 99, SimTime::from_mins(7));
        c.report_peak(0, 1, 7, 99, SimTime::from_mins(7));
        c.report_peak(0, 1, 8, 100, SimTime::from_mins(8));
        assert_eq!(c.dumps().len(), 1);
        assert_eq!(
            c.dumps()[0].reason,
            AnomalyReason::UtilizationPeak(99),
            "percent rides the reason"
        );
    }

    #[test]
    fn peak_spanning_a_bucket_edge_reports_once_but_a_gap_restarts() {
        let mut c = TraceCollector::new();
        c.record(span(1, 0, SpanClass::ServiceDispatch, 0));
        // A three-bucket episode: each continuation bucket is suppressed
        // even though the middle report arrives via the previous-bucket
        // probe of a later call.
        c.report_peak(0, 0, 3, 98, SimTime::from_mins(3));
        c.report_peak(0, 0, 4, 99, SimTime::from_mins(4));
        c.report_peak(0, 0, 5, 100, SimTime::from_mins(5));
        assert_eq!(c.dumps().len(), 1, "one episode, one dump");
        // Bucket 7 is separated by an unsaturated bucket 6: new episode.
        c.report_peak(0, 0, 7, 99, SimTime::from_mins(7));
        assert_eq!(c.dumps().len(), 2, "a gap starts a fresh episode");
        // Other servers and the other resource are independent episodes.
        c.report_peak(1, 0, 4, 99, SimTime::from_mins(4));
        c.report_peak(0, 1, 4, 99, SimTime::from_mins(4));
        assert_eq!(c.dumps().len(), 4);
    }

    #[test]
    fn mint_resets_hop_sequence() {
        let mut c = TraceCollector::new();
        let t1 = c.mint();
        assert_eq!(t1, TraceId(1));
        assert_eq!(c.next_seq(), 0);
        assert_eq!(c.next_seq(), 1);
        let t2 = c.mint();
        assert_eq!(t2, TraceId(2));
        assert_eq!(c.next_seq(), 0);
        assert!(t2.is_traced() && !TraceId::NONE.is_traced());
    }
}
