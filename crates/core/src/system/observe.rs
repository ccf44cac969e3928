//! Observation of the call path and of the lifecycle events beside it:
//! every span, gauge, attribution record and flight-recorder freeze the
//! transport emits, one function per protocol or lifecycle event. What
//! they collect is merged across clusters by the `ItcSystem` readers in
//! `admin.rs`.
//!
//! Nothing here draws rng, schedules an event, charges a resource or moves
//! a clock — latency components are read from the same arithmetic that
//! schedules the event chain — so a run is bit-identical with tracing on
//! or off, and while it is off every hook is one branch.

use super::transport::{CallInFlight, SystemTransport};
use crate::proto::{ServerId, ViceError, ViceReply, VolumeId};
use crate::trace::CallBreakdown;
use itc_rpc::{CallSpec, NodeId};
use itc_sim::resource::BUCKET_WIDTH;
use itc_sim::{AnomalyReason, SimTime, Span, SpanClass, TraceId};

/// Latency components of one attempt. The attempt that completes keeps its
/// values; everything before it is the call's retry-wasted time.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct AttemptParts {
    /// Request leg: sealing plus network latency and transfer.
    req_net: SimTime,
    /// Queueing delay at the server CPU.
    queue_cpu: SimTime,
    /// Server CPU service demand.
    service_cpu: SimTime,
    /// Queueing delay at the server disk.
    queue_disk: SimTime,
    /// Server disk transfer service.
    service_disk: SimTime,
    /// Reply leg: network latency and transfer plus client decrypt.
    reply_net: SimTime,
}

impl SystemTransport<'_> {
    /// Mints the trace identity of a call issued from `cluster`, or
    /// [`TraceId::NONE`] while tracing is off.
    pub(crate) fn mint_trace(&mut self, cluster: usize) -> TraceId {
        if !self.campus.tracing {
            return TraceId::NONE;
        }
        self.cores.get_mut(cluster).trace.mint()
    }

    /// Records one span of the in-flight call into the *caller's* cluster
    /// collector (where the whole chain of this call lives). `trace` is
    /// the identity the hop actually saw: the minted one client-side, the
    /// one that rode the wire server-side.
    pub(crate) fn call_span(
        &mut self,
        trace: TraceId,
        call: &CallInFlight<'_>,
        class: SpanClass,
        at: SimTime,
    ) {
        if !self.campus.tracing {
            return;
        }
        let collector = &mut self.cores.get_mut(call.cluster).trace;
        let seq = collector.next_seq();
        collector.record(Span {
            trace,
            seq,
            class,
            at,
            server: Some(call.server.0),
            client: Some(call.ws.0),
            volume: call.volume,
            attempt: call.retry.attempt(),
            kind: Some(call.req.kind()),
        });
    }

    /// Records one lifecycle span (crash, restart, salvage, break
    /// delivery) outside any trace, into `cluster`'s collector.
    pub(crate) fn life_span(
        &mut self,
        cluster: usize,
        class: SpanClass,
        at: SimTime,
        server: Option<u32>,
        client: Option<u32>,
        volume: Option<u32>,
    ) {
        if !self.campus.tracing {
            return;
        }
        self.cores.get_mut(cluster).trace.record(Span {
            class,
            at,
            server,
            client,
            volume,
            ..Span::default()
        });
    }

    /// A salvager pass of `pass` disk time was scheduled. Salvage charges
    /// the disk outside any call; the attribution ledger keeps it separate
    /// so disk busy time decomposes fully.
    pub(crate) fn salvage_scheduled(&mut self, cluster: usize, pass: SimTime) {
        if self.campus.tracing {
            self.cores.get_mut(cluster).attr.add_salvage_disk(pass);
        }
    }

    /// A salvager pass over `volume` finished; `rejected` journal records
    /// failed trailer verification (an integrity sample when non-zero).
    pub(crate) fn salvage_done(
        &mut self,
        cluster: usize,
        at: SimTime,
        server: u32,
        volume: VolumeId,
        rejected: u64,
    ) {
        let vol = Some(volume.0);
        self.life_span(cluster, SpanClass::Salvage, at, Some(server), None, vol);
        if self.campus.tracing && rejected > 0 {
            let obs = &mut self.cores.get_mut(cluster).obs;
            obs.on_integrity(server, vol, at, 0, rejected);
        }
    }

    /// A scrub pass over `volume` read `scanned` bytes. Perfectly
    /// preemptible background work: its disk time goes to its own
    /// attribution ledger kind only — never to the disk resource or the
    /// clock — so foreground virtual timings are untouched. The progress
    /// gauges sample the server's cumulative counters at the pass boundary.
    pub(crate) fn scrub_done(
        &mut self,
        cluster: usize,
        at: SimTime,
        server: u32,
        volume: VolumeId,
        scanned: u64,
    ) {
        if self.campus.tracing {
            let pass = self.campus.kernel.costs().disk_transfer(scanned);
            let st = self.servers.get(server as usize).scrub_stats();
            let cl = self.cores.get_mut(cluster);
            cl.attr.add_scrub_disk(pass);
            cl.obs
                .on_scrub(server, at, st.files_scanned, st.bytes_scanned);
        }
        let vol = Some(volume.0);
        self.life_span(cluster, SpanClass::Scrub, at, Some(server), None, vol);
    }

    /// The verifiers (scrub or a fetch-time digest check) took the volumes
    /// of `events` offline: one anomaly dump each, and one integrity-burn
    /// sample — losses the health engine must surface.
    pub(crate) fn integrity_offlined(
        &mut self,
        cluster: usize,
        at: SimTime,
        server: u32,
        events: &[(VolumeId, String)],
    ) {
        if !self.campus.tracing {
            return;
        }
        let cl = self.cores.get_mut(cluster);
        for (vid, _path) in events {
            let vol = Some(vid.0);
            cl.trace.freeze(
                AnomalyReason::IntegrityFault,
                at,
                Some(server),
                vol,
                TraceId::NONE,
            );
        }
        if let Some((vid, _)) = events.first() {
            cl.obs
                .on_integrity(server, Some(vid.0), at, events.len() as u64, 0);
        }
    }

    /// The volume covering `path` on server `sid`, resolved for span and
    /// series attribution only while tracing.
    pub(crate) fn traced_volume(&self, sid: usize, path: &str) -> Option<u32> {
        if !self.campus.tracing {
            return None;
        }
        self.servers.get(sid).volume_covering(path).map(|v| v.0)
    }

    /// A call gave up before it was even bound: the server is down. The
    /// failure still implicates the server, so the recorder freezes
    /// whatever recent spans touch it.
    pub(crate) fn unbound_call_aborted(
        &mut self,
        cluster: usize,
        ws: NodeId,
        server: ServerId,
        at: SimTime,
    ) {
        let srv = Some(server.0);
        self.life_span(cluster, SpanClass::CallAbort, at, srv, Some(ws.0), None);
        if self.campus.tracing {
            let recorder = &mut self.cores.get_mut(cluster).trace;
            recorder.freeze(AnomalyReason::Unreachable, at, srv, None, TraceId::NONE);
        }
    }

    /// The in-flight call gave up (`Unreachable` or `TimedOut`): the
    /// flight recorder freezes the spans that implicate its server.
    pub(crate) fn call_aborted(
        &mut self,
        call: &CallInFlight<'_>,
        why: AnomalyReason,
        at: SimTime,
    ) {
        self.call_span(call.trace, call, SpanClass::CallAbort, at);
        if self.campus.tracing {
            let recorder = &mut self.cores.get_mut(call.cluster).trace;
            recorder.freeze(why, at, Some(call.server.0), call.volume, call.trace);
        }
    }

    /// A genuine retransmission-timer expiry (not a stood-down stale
    /// timer): counted against the unresponsive server, feeding the
    /// retry-rate rule.
    pub(crate) fn timeout_fired(&mut self, call: &CallInFlight<'_>, at: SimTime) {
        self.call_span(call.trace, call, SpanClass::TimeoutFire, at);
        if self.campus.tracing {
            let obs = &mut self.cores.get_mut(call.cluster).obs;
            obs.on_timeout(call.server.0, call.volume, at);
        }
    }

    /// The request reached the server carrying `wire_trace`.
    pub(crate) fn request_arrived(
        &mut self,
        call: &mut CallInFlight<'_>,
        wire_trace: TraceId,
        at: SimTime,
    ) {
        self.call_span(wire_trace, call, SpanClass::RequestArrive, at);
        call.parts.req_net = at - call.retry.attempt_start();
    }

    /// Journal-lag gauge: the server's unsynced tail as it stands right
    /// after the handler ran, before the write-ahead force.
    pub(crate) fn request_served(&mut self, call: &CallInFlight<'_>, at: SimTime) {
        if self.campus.tracing {
            let sid = call.server.0 as usize;
            let lag = self.servers.get(sid).unsynced_journal_bytes();
            let obs = &mut self.cores.get_mut(sid).obs;
            obs.on_journal_lag(call.server.0, at, lag);
        }
    }

    /// Decomposes the service leg from the same arithmetic
    /// `TimingKernel::service` is about to run: read-only availability
    /// snapshots taken *before* the charge, so attribution adds no
    /// perturbation and sums exactly.
    pub(crate) fn service_charging(
        &mut self,
        call: &mut CallInFlight<'_>,
        at: SimTime,
        spec: &CallSpec,
    ) {
        if !self.campus.tracing {
            return;
        }
        let srv = self.servers.get(call.server.0 as usize);
        let cpu_start = at.max(srv.cpu().available_at());
        let demand = self.campus.kernel.service_demand(spec);
        call.parts.queue_cpu = cpu_start - at;
        call.parts.service_cpu = demand;
        let cpu_done = cpu_start + demand;
        if spec.disk_bytes > 0 {
            call.parts.queue_disk = cpu_done.max(srv.disk().available_at()) - cpu_done;
            call.parts.service_disk = self.campus.kernel.costs().disk_transfer(spec.disk_bytes);
        } else {
            call.parts.queue_disk = SimTime::ZERO;
            call.parts.service_disk = SimTime::ZERO;
        }
    }

    /// The reply left the server at `at` and will complete at `completed`.
    /// Saturation probe for the flight recorder (the paper's short-term
    /// peaks "sometimes peaking at 98%"): check the one-minute bucket the
    /// service just charged into, and the preceding (now complete) bucket
    /// — one long service interval can saturate whole minutes that no
    /// reply departs inside of. The recorder fires once per saturated
    /// (server, resource, minute).
    pub(crate) fn reply_departed(
        &mut self,
        call: &mut CallInFlight<'_>,
        at: SimTime,
        completed: SimTime,
    ) {
        self.call_span(call.trace, call, SpanClass::ReplyDepart, at);
        call.parts.reply_net = completed - at;
        if !self.campus.tracing {
            return;
        }
        let (server, sid) = (call.server.0, call.server.0 as usize);
        let width = BUCKET_WIDTH.as_micros();
        let this_bucket = at.as_micros() / width;
        for tag in [0u8, 1u8] {
            for bucket in this_bucket.saturating_sub(1)..=this_bucket {
                let probe = SimTime::from_micros(bucket * width);
                let srv = self.servers.get(sid);
                let res = if tag == 0 { srv.cpu() } else { srv.disk() };
                let util = res.bucket_utilization(probe);
                let pct = ((util * 100.0) as u64).min(100) as u8;
                // Utilization gauges feed the series and the
                // sustained-utilization rule at every probe; the flight
                // recorder only cares about peaks.
                let cl = self.cores.get_mut(sid);
                cl.obs.on_utilization(server, tag, bucket, pct, at);
                if util >= 0.98 {
                    cl.trace.report_peak(server, tag, bucket, pct, at);
                }
            }
        }
        // Engine-churn gauge: the server cluster's calendar counters as of
        // this event boundary.
        let cl = self.cores.get_mut(sid);
        let stats = cl.sched.stats();
        cl.obs.on_engine(this_bucket, &stats);
    }

    /// The reply reached the client: the call's latency breakdown feeds
    /// the series, the tail-latency rule and the attribution aggregates.
    pub(crate) fn reply_arrived(
        &mut self,
        call: &CallInFlight<'_>,
        reply: &ViceReply,
        at: SimTime,
    ) {
        self.call_span(call.trace, call, SpanClass::ReplyArrive, at);
        if !self.campus.tracing {
            return;
        }
        let breakdown = CallBreakdown {
            trace: call.trace,
            kind: call.req.kind(),
            server: call.server.0,
            volume: call.volume,
            client: call.ws.0,
            attempts: call.retry.attempt(),
            started: call.started,
            finished: at,
            retry_wasted: call.retry.attempt_start() - call.started,
            req_net: call.parts.req_net,
            queue_cpu: call.parts.queue_cpu,
            service_cpu: call.parts.service_cpu,
            queue_disk: call.parts.queue_disk,
            service_disk: call.parts.service_disk,
            reply_net: call.parts.reply_net,
            fault_delay: call.retry.extra(),
        };
        let cl = self.cores.get_mut(call.cluster);
        cl.obs.on_complete(&breakdown);
        cl.attr.record(breakdown);
        // Degraded-mode replies trip the flight recorder: the server
        // answered, but could not serve normally.
        let reason = match reply {
            ViceReply::Error(ViceError::VolumeOffline(_)) => AnomalyReason::VolumeOffline,
            ViceReply::Error(ViceError::BadRequest(_)) => AnomalyReason::Degraded,
            _ => return,
        };
        cl.trace
            .freeze(reason, at, Some(call.server.0), call.volume, call.trace);
    }
}
