//! Latency attribution and anomaly-dump rendering over recorded spans.
//!
//! [`itc_sim::trace`] owns the raw machinery (trace ids, the span ring,
//! the flight recorder); this module owns the Vice-specific layer on top:
//!
//! * [`CallBreakdown`] — the exact decomposition of one completed call's
//!   end-to-end virtual latency into queueing, service, network, and
//!   retry-wasted components. The decomposition is *exact by
//!   construction*: the transport captures each component from the same
//!   arithmetic that schedules the event chain, so the four rollups sum
//!   to the end-to-end latency to the microsecond (pinned by
//!   `tests/tracing.rs`).
//! * [`AttributionAgg`] — per-server and per-volume aggregation of
//!   breakdowns, reusing [`itc_sim::stats::Percentiles`] for latency
//!   distributions, plus the per-kind disk-time ledger that the E3
//!   disk-utilization decomposition in EXPERIMENTS.md is built from.
//! * Deterministic JSONL rendering of anomaly dumps ([`render_dump`])
//!   and the human-facing span-tree / attribution-table renderers the
//!   `trace` bin uses.
//!
//! Everything here is pure observation: no calendar events, no rng
//! draws, no clock movement.

use crate::proto::ViceRequest;
use itc_sim::record::{Field, Reader, Value, Writer};
use itc_sim::trace::{AnomalyDump, AnomalyReason, Span, SpanClass, TraceId};
use itc_sim::{Percentiles, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// The exact latency decomposition of one completed Vice call.
///
/// Subcomponents are captured per successful attempt (the attempt whose
/// reply arrived); everything spent before that attempt started — earlier
/// attempts, their timeouts, and backoff waits — lands in
/// [`CallBreakdown::retry_wasted`], and network-injected delays land in
/// [`CallBreakdown::fault_delay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallBreakdown {
    /// The call's trace identity.
    pub trace: TraceId,
    /// Call kind label ("fetch", "validate", ...).
    pub kind: &'static str,
    /// The serving server.
    pub server: u32,
    /// The volume covering the call's path, if one does.
    pub volume: Option<u32>,
    /// The calling workstation's node.
    pub client: u32,
    /// Attempts made (1 = no retries).
    pub attempts: u32,
    /// When the call entered the calendar.
    pub started: SimTime,
    /// When the reply arrived.
    pub finished: SimTime,
    /// Time burned before the successful attempt started (earlier
    /// attempts, timeouts, and backoff).
    pub retry_wasted: SimTime,
    /// Request leg: client sealing plus network latency and transfer.
    pub req_net: SimTime,
    /// Queueing delay at the server CPU.
    pub queue_cpu: SimTime,
    /// Server CPU service (dispatch, crypt, handler, structural costs).
    pub service_cpu: SimTime,
    /// Queueing delay at the server disk.
    pub queue_disk: SimTime,
    /// Server disk transfer service.
    pub service_disk: SimTime,
    /// Reply leg: network latency and transfer plus client decrypt.
    pub reply_net: SimTime,
    /// Fault-injected delay applied to the successful attempt.
    pub fault_delay: SimTime,
}

impl CallBreakdown {
    /// End-to-end virtual latency as the caller saw it.
    pub fn total(&self) -> SimTime {
        self.finished - self.started
    }

    /// Queueing rollup: CPU plus disk queueing delay.
    pub fn queueing(&self) -> SimTime {
        self.queue_cpu + self.queue_disk
    }

    /// Service rollup: CPU plus disk service time.
    pub fn service(&self) -> SimTime {
        self.service_cpu + self.service_disk
    }

    /// Network rollup: request plus reply legs.
    pub fn network(&self) -> SimTime {
        self.req_net + self.reply_net
    }

    /// Wasted rollup: retry overhead plus injected delay.
    pub fn wasted(&self) -> SimTime {
        self.retry_wasted + self.fault_delay
    }

    /// Sum of the four rollups — equal to [`CallBreakdown::total`] for
    /// every completed call (the tracing test suite asserts this
    /// microsecond-exactly).
    pub fn components_sum(&self) -> SimTime {
        self.queueing() + self.service() + self.network() + self.wasted()
    }
}

/// Aggregated components for one key (a server or a volume).
#[derive(Debug, Clone, Default)]
pub struct ComponentTotals {
    /// Calls aggregated.
    pub calls: u64,
    /// Total queueing time.
    pub queueing: SimTime,
    /// Total service time.
    pub service: SimTime,
    /// Total network time.
    pub network: SimTime,
    /// Total wasted (retry + injected-delay) time.
    pub wasted: SimTime,
    /// Of `service`, the share spent on the disk (transfer time) — the
    /// E3 decomposition input.
    pub disk_service: SimTime,
    /// Per-call end-to-end latency samples, in seconds.
    pub totals: Percentiles,
}

impl ComponentTotals {
    fn record(&mut self, b: &CallBreakdown) {
        self.calls += 1;
        self.queueing += b.queueing();
        self.service += b.service();
        self.network += b.network();
        self.wasted += b.wasted();
        self.disk_service += b.service_disk;
        self.totals.record(b.total().as_secs_f64());
    }

    /// Folds another aggregate into this one (per-cluster → system-wide).
    fn merge(&mut self, other: &ComponentTotals) {
        self.calls += other.calls;
        self.queueing += other.queueing;
        self.service += other.service;
        self.network += other.network;
        self.wasted += other.wasted;
        self.disk_service += other.disk_service;
        self.totals.merge(&other.totals);
    }
}

/// Upper bound on retained per-call breakdowns. Aggregates keep running
/// forever; the raw per-call ring is what the `trace` bin renders tables
/// from and is bounded like the span ring.
pub const RECENT_BREAKDOWNS: usize = 4096;

/// Running attribution aggregates plus a bounded ring of raw breakdowns.
#[derive(Debug, Default)]
pub struct AttributionAgg {
    per_server: BTreeMap<u32, ComponentTotals>,
    per_volume: BTreeMap<u32, ComponentTotals>,
    disk_by_kind: BTreeMap<&'static str, SimTime>,
    salvage_disk: SimTime,
    scrub_disk: SimTime,
    recent: VecDeque<CallBreakdown>,
}

impl AttributionAgg {
    /// Creates an empty aggregate.
    pub fn new() -> AttributionAgg {
        AttributionAgg::default()
    }

    /// Folds one completed call in.
    pub fn record(&mut self, b: CallBreakdown) {
        self.per_server.entry(b.server).or_default().record(&b);
        if let Some(v) = b.volume {
            self.per_volume.entry(v).or_default().record(&b);
        }
        if b.service_disk > SimTime::ZERO {
            *self.disk_by_kind.entry(b.kind).or_insert(SimTime::ZERO) += b.service_disk;
        }
        if self.recent.len() == RECENT_BREAKDOWNS {
            self.recent.pop_front();
        }
        self.recent.push_back(b);
    }

    /// Adds salvager disk time (charged by restart-scheduled passes, not
    /// by any call).
    pub fn add_salvage_disk(&mut self, t: SimTime) {
        self.salvage_disk += t;
    }

    /// Adds background-scrubber disk time. The scrubber is perfectly
    /// preemptible — it only ever uses idle disk time — so its charge
    /// lands in this ledger alone, never on the disk resource or the
    /// clock (foreground timings stay bit-identical with scrubbing on).
    pub fn add_scrub_disk(&mut self, t: SimTime) {
        self.scrub_disk += t;
    }

    /// Per-server aggregates, keyed by server id.
    pub fn per_server(&self) -> &BTreeMap<u32, ComponentTotals> {
        &self.per_server
    }

    /// Per-volume aggregates, keyed by volume id.
    pub fn per_volume(&self) -> &BTreeMap<u32, ComponentTotals> {
        &self.per_volume
    }

    /// Disk service time by call kind — how the disk's busy time divides
    /// across fetch transfers, store transfers, and the rest.
    pub fn disk_by_kind(&self) -> &BTreeMap<&'static str, SimTime> {
        &self.disk_by_kind
    }

    /// Total salvager disk time charged so far.
    pub fn salvage_disk(&self) -> SimTime {
        self.salvage_disk
    }

    /// The retained raw breakdowns, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &CallBreakdown> {
        self.recent.iter()
    }

    /// The retained breakdown of one trace, if still resident.
    pub fn breakdown_of(&self, trace: TraceId) -> Option<&CallBreakdown> {
        self.recent.iter().find(|b| b.trace == trace)
    }

    /// Folds another aggregate into this one. Used to merge per-cluster
    /// aggregates into a system-wide view, in cluster-index order — the
    /// recent rings are *appended*, not re-sorted (per-workstation
    /// completion times are not globally monotone even in a sequential
    /// run, so appending in cluster order is the deterministic choice
    /// that also reduces to the identity for single-cluster systems).
    pub fn merge(&mut self, other: &AttributionAgg) {
        for (k, v) in &other.per_server {
            self.per_server.entry(*k).or_default().merge(v);
        }
        for (k, v) in &other.per_volume {
            self.per_volume.entry(*k).or_default().merge(v);
        }
        for (k, v) in &other.disk_by_kind {
            *self.disk_by_kind.entry(k).or_insert(SimTime::ZERO) += *v;
        }
        self.salvage_disk += other.salvage_disk;
        self.scrub_disk += other.scrub_disk;
        for b in &other.recent {
            if self.recent.len() == RECENT_BREAKDOWNS {
                self.recent.pop_front();
            }
            self.recent.push_back(b.clone());
        }
    }
}

/// One row of the attribution summary exposed through
/// [`crate::metrics::SystemMetrics`].
#[derive(Debug, Clone, Default)]
pub struct AttributionRow {
    /// Server or volume id.
    pub key: u32,
    /// Calls aggregated.
    pub calls: u64,
    /// Total queueing time.
    pub queueing: SimTime,
    /// Total service time.
    pub service: SimTime,
    /// Total network time.
    pub network: SimTime,
    /// Total wasted time.
    pub wasted: SimTime,
    /// Of service, the disk share.
    pub disk_service: SimTime,
    /// Median end-to-end latency, seconds.
    pub p50_s: f64,
    /// 90th-percentile end-to-end latency, seconds.
    pub p90_s: f64,
    /// Worst end-to-end latency, seconds.
    pub max_s: f64,
}

/// The attribution summary: per-server and per-volume component rows.
#[derive(Debug, Clone, Default)]
pub struct AttributionSummary {
    /// One row per server that served at least one traced call.
    pub servers: Vec<AttributionRow>,
    /// One row per volume touched by at least one traced call.
    pub volumes: Vec<AttributionRow>,
    /// Disk service time by call kind.
    pub disk_by_kind: Vec<(String, SimTime)>,
    /// Salvager disk time (outside any call).
    pub salvage_disk: SimTime,
    /// Background-scrubber disk time (idle-time only, outside any call).
    pub scrub_disk: SimTime,
}

fn summarize_rows(map: &BTreeMap<u32, ComponentTotals>) -> Vec<AttributionRow> {
    map.iter()
        .map(|(&key, c)| {
            let mut p = c.totals.clone();
            AttributionRow {
                key,
                calls: c.calls,
                queueing: c.queueing,
                service: c.service,
                network: c.network,
                wasted: c.wasted,
                disk_service: c.disk_service,
                p50_s: p.percentile(50.0).unwrap_or(0.0),
                p90_s: p.percentile(90.0).unwrap_or(0.0),
                max_s: p.percentile(100.0).unwrap_or(0.0),
            }
        })
        .collect()
}

impl AttributionAgg {
    /// Snapshot the aggregates into the metrics-facing summary.
    pub fn summary(&self) -> AttributionSummary {
        AttributionSummary {
            servers: summarize_rows(&self.per_server),
            volumes: summarize_rows(&self.per_volume),
            disk_by_kind: self
                .disk_by_kind
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            salvage_disk: self.salvage_disk,
            scrub_disk: self.scrub_disk,
        }
    }
}

// ---------------------------------------------------------------------
// The span and dump-header records (DESIGN.md, "Record spine")
// ---------------------------------------------------------------------

/// The span line's fields, in line order.
fn span_fields<F: Field>(s: &mut Span, f: &mut F) {
    f.u64("trace", &mut s.trace.0);
    f.u32("seq", &mut s.seq);
    f.str(
        "class",
        s.class.label(),
        &mut s.class,
        SpanClass::from_label,
    );
    f.micros("at_us", &mut s.at);
    f.opt_u32("server", &mut s.server);
    f.opt_u32("client", &mut s.client);
    f.opt_u32("volume", &mut s.volume);
    f.opt_u32("queue_depth", &mut s.queue_depth);
    f.u32("attempt", &mut s.attempt);
    // Interned against the call-kind list, so a re-read span aliases the
    // same `&'static str` the tracer recorded.
    let shown = s.kind.map_or(Value::Null, Value::Str);
    f.set("kind", shown, &mut s.kind, |raw| match raw {
        Value::Null => Some(None),
        _ => ViceRequest::KINDS
            .into_iter()
            .find(|k| raw.str() == Some(k))
            .map(Some),
    });
}

/// The dump header's fields, in line order; `spans` is the count of span
/// lines that follow it.
fn dump_fields<F: Field>(d: &mut AnomalyDump, spans: &mut u64, f: &mut F) {
    f.u32("dump", &mut d.index);
    let reason = d.reason.to_string();
    f.str(
        "reason",
        &reason,
        &mut d.reason,
        AnomalyReason::from_display,
    );
    f.micros("at_us", &mut d.at);
    f.opt_u32("server", &mut d.server);
    f.opt_u32("volume", &mut d.volume);
    f.u64("trace", &mut d.trace.0);
    f.u64("spans", spans);
}

/// Renders one span as a single flat JSON line (no trailing newline).
/// Field order is fixed, all values are virtual-time observables, so the
/// output is byte-identical across same-seed runs.
pub fn render_span(s: &Span) -> String {
    Writer::line(&mut s.clone(), span_fields)
}

/// Parses one [`render_span`] line back into a [`Span`]; `None` for
/// anything [`render_span`] could not have written.
pub fn parse_span_line(line: &str) -> Option<Span> {
    Reader::line(line, Span::default(), span_fields)
}

/// Renders one anomaly dump as JSONL: a header line naming the anomaly,
/// then one line per frozen span, oldest first.
pub fn render_dump(d: &AnomalyDump) -> String {
    let mut header = AnomalyDump {
        spans: Vec::new(),
        ..*d
    };
    let mut spans = d.spans.len() as u64;
    let mut out = Writer::line(&mut header, |d, f| dump_fields(d, &mut spans, f));
    out.push('\n');
    for s in &d.spans {
        let _ = writeln!(out, "{}", render_span(s));
    }
    out
}

/// Parses a [`render_dump`] text back — the inverse the offline
/// re-renderer (the `trace` bin) applies to exported files. `Err` is the
/// 1-based number of the first line that is not what [`render_dump`]
/// writes there: a line that does not parse, the end of the text when
/// span lines (or the last newline) are missing.
pub fn parse_dump(text: &str) -> Result<AnomalyDump, usize> {
    let mut lines = text.split_inclusive('\n').map(|l| l.strip_suffix('\n'));
    let mut spans = 0;
    let header = |d: &mut AnomalyDump, f: &mut Reader<'_>| dump_fields(d, &mut spans, f);
    let first = lines.next().flatten().ok_or(1usize)?;
    let mut d = Reader::line(first, AnomalyDump::default(), header).ok_or(1usize)?;
    for (i, line) in lines.enumerate() {
        d.spans.push(line.and_then(parse_span_line).ok_or(i + 2)?);
    }
    if d.spans.len() as u64 != spans {
        return Err(d.spans.len() + 2);
    }
    Ok(d)
}

/// The deterministic file name a dump is exported under.
pub fn dump_file_name(d: &AnomalyDump) -> String {
    let server = d.server.map_or("x".to_string(), |s| s.to_string());
    format!(
        "anomaly-{:03}-{}-s{}.jsonl",
        d.index,
        d.reason.label(),
        server
    )
}

// ---------------------------------------------------------------------
// Human-facing renderers (the `trace` bin)
// ---------------------------------------------------------------------

/// An optional id as the human-facing renderers print it.
fn or_null(v: Option<u32>) -> String {
    v.map_or("null".to_string(), |x| x.to_string())
}

/// Renders the span tree of one trace: hops grouped by attempt, with
/// offsets relative to the first span.
pub fn render_span_tree(trace: TraceId, spans: &[&Span]) -> String {
    let mut out = String::new();
    if spans.is_empty() {
        let _ = writeln!(out, "trace {trace}: no resident spans");
        return out;
    }
    let t0 = spans[0].at;
    let kind = spans.iter().find_map(|s| s.kind).unwrap_or("?");
    let server = spans.iter().find_map(|s| s.server);
    let client = spans.iter().find_map(|s| s.client);
    let _ = writeln!(
        out,
        "trace {trace}  kind={kind}  server={}  client={}  spans={}",
        or_null(server),
        or_null(client),
        spans.len(),
    );
    let mut attempt = u32::MAX;
    for s in spans {
        if s.attempt != attempt && s.attempt > 0 {
            attempt = s.attempt;
            let _ = writeln!(out, "├─ attempt {attempt}");
        }
        let mut extras = String::new();
        if let Some(d) = s.queue_depth {
            let _ = write!(extras, "  queue_depth={d}");
        }
        if let Some(v) = s.volume {
            let _ = write!(extras, "  volume={v}");
        }
        let _ = writeln!(
            out,
            "│   +{:>12}  {}{}",
            format!("{}us", (s.at - t0).as_micros()),
            s.class,
            extras,
        );
    }
    out
}

/// Renders the end-to-end integrity ledger next to the attribution
/// tables: how every injected flip was resolved, plus the scrubber's
/// cumulative progress. The `trace` bin prints this so the corruption
/// accounting is reachable from the operator tooling, not only from the
/// disk subsystem's structs.
pub fn render_integrity_ledger(
    counters: &crate::disk::IntegrityCounters,
    scrub: &crate::disk::ScrubStats,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "integrity ledger:");
    let _ = writeln!(
        out,
        "  flips injected {:>6}   detected {:>6}   latent {:>6}",
        counters.injected,
        counters.detected(),
        counters.latent,
    );
    let _ = writeln!(
        out,
        "  repaired {:>6}   offlined {:>6}   rejected_at_salvage {:>6}   caught_at_fetch {:>6}",
        counters.repaired,
        counters.offlined,
        counters.rejected_at_salvage,
        counters.caught_at_fetch,
    );
    let _ = writeln!(
        out,
        "  scrub: passes {:>5}   volumes {:>5}   files {:>7}   bytes {:>12}   mismatches {:>5}",
        scrub.passes,
        scrub.volumes_scanned,
        scrub.files_scanned,
        scrub.bytes_scanned,
        scrub.mismatches_detected,
    );
    out
}

/// Renders the four-way attribution table for one completed call.
pub fn render_attribution_table(b: &CallBreakdown) -> String {
    let total = b.total();
    let share = |t: SimTime| -> f64 {
        if total == SimTime::ZERO {
            0.0
        } else {
            100.0 * t.as_micros() as f64 / total.as_micros() as f64
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {}  kind={}  server={}  volume={}  attempts={}",
        b.trace,
        b.kind,
        b.server,
        or_null(b.volume),
        b.attempts,
    );
    let mut row = |name: &str, t: SimTime| {
        let _ = writeln!(
            out,
            "  {name:<14} {:>12}us  {:5.1}%",
            t.as_micros(),
            share(t)
        );
    };
    row("queueing", b.queueing());
    row("service", b.service());
    row("network", b.network());
    row("retry-wasted", b.wasted());
    let _ = writeln!(
        out,
        "  {:<14} {:>12}us  100.0%  ({} -> {})",
        "total",
        total.as_micros(),
        b.started,
        b.finished,
    );
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use itc_sim::trace::SpanClass;

    /// The hostile-line property of a record kind: `reparse` (parse, then
    /// render) maps every prefix of `text` to `None`, and every
    /// single-byte substitution to `None` or to exactly the mutated bytes
    /// — damage is never read as a smaller or different plausible record.
    pub(crate) fn sweep(text: &str, reparse: impl Fn(&str) -> Option<String>) {
        assert_eq!(reparse(text).as_deref(), Some(text));
        for cut in 0..text.len() {
            assert_eq!(reparse(&text[..cut]), None, "cut at {cut}: {text}");
        }
        let mut bytes = text.as_bytes().to_vec();
        for i in 0..bytes.len() {
            let original = bytes[i];
            for b in 0..128 {
                bytes[i] = b;
                let mutated = std::str::from_utf8(&bytes).expect("ascii");
                if let Some(back) = reparse(mutated) {
                    assert_eq!(back, mutated, "byte {i} of {text}");
                }
            }
            bytes[i] = original;
        }
    }

    fn breakdown(server: u32, volume: Option<u32>) -> CallBreakdown {
        CallBreakdown {
            trace: TraceId(1),
            kind: "fetch",
            server,
            volume,
            client: 3,
            attempts: 2,
            started: SimTime::ZERO,
            finished: SimTime::from_micros(1000),
            retry_wasted: SimTime::from_micros(100),
            req_net: SimTime::from_micros(200),
            queue_cpu: SimTime::from_micros(50),
            service_cpu: SimTime::from_micros(300),
            queue_disk: SimTime::from_micros(30),
            service_disk: SimTime::from_micros(120),
            reply_net: SimTime::from_micros(150),
            fault_delay: SimTime::from_micros(50),
        }
    }

    #[test]
    fn components_sum_exactly() {
        let b = breakdown(0, Some(2));
        assert_eq!(b.components_sum(), b.total());
        assert_eq!(b.queueing(), SimTime::from_micros(80));
        assert_eq!(b.service(), SimTime::from_micros(420));
        assert_eq!(b.network(), SimTime::from_micros(350));
        assert_eq!(b.wasted(), SimTime::from_micros(150));
    }

    #[test]
    fn aggregation_buckets_by_server_volume_and_kind() {
        let mut agg = AttributionAgg::new();
        agg.record(breakdown(0, Some(2)));
        agg.record(breakdown(0, None));
        agg.record(breakdown(1, Some(2)));
        agg.add_salvage_disk(SimTime::from_millis(5));

        assert_eq!(agg.per_server().len(), 2);
        assert_eq!(agg.per_server()[&0].calls, 2);
        assert_eq!(agg.per_volume()[&2].calls, 2);
        assert_eq!(agg.disk_by_kind()["fetch"], SimTime::from_micros(360));
        assert_eq!(agg.salvage_disk(), SimTime::from_millis(5));
        assert!(agg.breakdown_of(TraceId(1)).is_some());
        assert!(agg.breakdown_of(TraceId(99)).is_none());

        let summary = agg.summary();
        assert_eq!(summary.servers.len(), 2);
        assert_eq!(summary.servers[0].calls, 2);
        assert!((summary.servers[0].p50_s - 0.001).abs() < 1e-9);
        assert_eq!(summary.disk_by_kind[0].0, "fetch");
    }

    #[test]
    fn jsonl_rendering_is_stable() {
        let s = Span {
            trace: TraceId(7),
            seq: 3,
            class: SpanClass::RequestArrive,
            at: SimTime::from_micros(1234),
            server: Some(1),
            client: Some(5),
            volume: None,
            queue_depth: Some(0),
            attempt: 2,
            kind: Some("store"),
        };
        assert_eq!(
            render_span(&s),
            "{\"trace\":7,\"seq\":3,\"class\":\"request_arrive\",\"at_us\":1234,\
             \"server\":1,\"client\":5,\"volume\":null,\"queue_depth\":0,\
             \"attempt\":2,\"kind\":\"store\"}"
        );
        let d = AnomalyDump {
            index: 4,
            reason: itc_sim::trace::AnomalyReason::TimedOut,
            at: SimTime::from_micros(9999),
            server: Some(1),
            volume: None,
            trace: TraceId(7),
            spans: vec![s],
        };
        let text = render_dump(&d);
        assert!(text.starts_with(
            "{\"dump\":4,\"reason\":\"timed_out\",\"at_us\":9999,\"server\":1,\
             \"volume\":null,\"trace\":7,\"spans\":1}\n"
        ));
        assert_eq!(text.lines().count(), 2);
        assert_eq!(dump_file_name(&d), "anomaly-004-timed_out-s1.jsonl");

        // Both record kinds, and the dump around them, under hostile bytes.
        sweep(&render_span(&d.spans[0]), |m| {
            parse_span_line(m).map(|s| render_span(&s))
        });
        sweep(&text, |m| parse_dump(m).ok().map(|d| render_dump(&d)));
        let peak = AnomalyDump {
            reason: itc_sim::trace::AnomalyReason::UtilizationPeak(98),
            spans: Vec::new(),
            ..d
        };
        assert!(render_dump(&peak).contains("\"reason\":\"utilization_peak(98%)\""));
        sweep(&render_dump(&peak), |m| {
            parse_dump(m).ok().map(|d| render_dump(&d))
        });
        assert_eq!(parse_dump(&text.replace("store", "stor")).err(), Some(2));
        assert_eq!(parse_dump(&format!("{text}{text}")).err(), Some(3));
    }

    #[test]
    fn renderers_cover_empty_and_populated_traces() {
        let empty = render_span_tree(TraceId(9), &[]);
        assert!(empty.contains("no resident spans"));
        let s = Span {
            trace: TraceId(9),
            seq: 0,
            class: SpanClass::AttemptSend,
            at: SimTime::from_micros(10),
            server: Some(0),
            client: Some(1),
            volume: None,
            queue_depth: None,
            attempt: 1,
            kind: Some("validate"),
        };
        let tree = render_span_tree(TraceId(9), &[&s]);
        assert!(tree.contains("attempt 1"));
        assert!(tree.contains("attempt_send"));
        let table = render_attribution_table(&breakdown(0, Some(2)));
        assert!(table.contains("queueing"));
        assert!(table.contains("100.0%"));
    }
}
