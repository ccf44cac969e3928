//! The event-driven RPC transport over per-cluster calendars.
//!
//! A Vice call used to be one synchronous function that computed every
//! timestamp inline. Here it is a chain of scheduler events — the request
//! departs, arrives, is served (queueing only for the server's CPU and
//! disk, the FIFO [`Resource`](itc_sim::Resource)s), and the reply departs
//! and arrives — drained in virtual-time order. An executor pumps one call
//! to completion, so the opened request rides the call from arrival to
//! dispatch, as its sealed bytes ride it between the legs. This file is
//! that call life-cycle and the per-cluster cores it runs on, nothing
//! else: what the server does with an arrived request is `Server::serve`,
//! everything else on the calendars (crashes, salvage, scrub, break
//! delivery) is `lifecycle.rs`, and every span, gauge and attribution
//! record is one call per event into `observe.rs`.
//!
//! ## Per-cluster decomposition
//!
//! Since the parallel-simulation refactor there is no single global
//! calendar: every cluster owns a [`ClusterCore`] — its own scheduler, rng
//! streams, fault shard, bindings, trace collector, counters, traffic
//! counts, pending callback breaks and time high-water. Events are routed
//! to the cluster that owns their state:
//!
//! * client-side events (`AttemptSend`, `TimeoutFire`, `ReplyArrive`) live
//!   on the **calling workstation's** cluster;
//! * server-side events (`RequestArrive`, `ServiceDispatch`,
//!   `ReplyDepart`, and the lifecycle events) live on the **server's**
//!   cluster;
//! * `BreakDeliver` lives on the **target workstation's** cluster, beside
//!   its record in that cluster's [`ClusterCore::breaks`].
//!
//! The executor merge-pops the participating calendars by
//! `(time, class, cluster, ...)` — a total order that is a function of the
//! per-cluster calendars alone, never of how clusters are partitioned
//! across threads. A sequential run holds every cluster
//! ([`Parts::Whole`]); a parallel worker holds exactly the clusters in its
//! operation's declared mask ([`Parts::Split`]), and touching any other
//! cluster is a hard panic (the mask tripwire), not silent corruption.
//! Servers and cores are the shards a transport writes; everything it only
//! reads — the network, the timing kernel, the protection and location
//! databases, the node maps and the run settings — it reads through its
//! one `&Campus` (`topology.rs`), never from a copy.
//!
//! ## Equivalence with the synchronous transport
//!
//! The pipeline is engineered to reproduce the synchronous path bit for
//! bit: every rng draw (fault decisions, backoff jitter, handshake nonces),
//! every sealing/opening of the authenticated channel, and every
//! [`Resource`](itc_sim::Resource) acquisition happens with the same
//! arguments in the same per-cluster order — merely distributed across
//! events. Two deliberate carry-overs from the synchronous model:
//!
//! * the server handler is shown the *attempt start* time (its work is
//!   conceptually scheduled when the client issued the call), and
//! * server online/offline state is only consulted when an attempt is
//!   sent, never mid-chain — a crash firing while a request is in flight
//!   does not retroactively kill the exchange, exactly as the polled
//!   implementation behaved.
//!
//! ## Retransmission timers are armed, then cancelled
//!
//! Every attempt arms its retransmission timer when it is sent; the reply's
//! arrival *cancels* the now-losing timer (an O(1) tombstone in the
//! scheduler) instead of scheduling one only on the loss paths. A timer
//! that beats a slow reply to the front of the calendar finds its chain leg
//! still in flight and stands down — delivery was trusted in the
//! synchronous model, and still is.

use super::observe::AttemptParts;
use super::topology::Campus;
use crate::monitor::TrafficMonitor;
use crate::obs::ObsCore;
use crate::proto::{
    decode_reply, encode_reply, encode_request, Payload, ServerId, ViceError, ViceReply,
    ViceRequest,
};
use crate::server::{QueuedRequest, Server};
use crate::trace::AttributionAgg;
use crate::venus::ViceTransport;
use itc_cryptbox::Key;
use itc_rpc::binding::{establish, Binding};
use itc_rpc::{frame_call, take_frame, CallSpec, CallStats, NodeId};
use itc_sim::{
    AnomalyReason, EventId, EventKey, FaultPlan, Firing, MessageFault, Scheduler, SimRng, SimTime,
    SpanClass, TraceCollector, TraceId,
};
use std::collections::BTreeMap;

/// Everything a network exchange can schedule. Call-chain events carry no
/// call identifier: each executor keeps exactly one logical call in
/// flight, pumping its calendars until that call resolves.
#[derive(Debug)]
pub(crate) enum NetEvent {
    /// The client (re)sends the framed request: fault draw, sealing, and
    /// the request leg onto the wire.
    AttemptSend,
    /// The client's retransmission timer for the current attempt expires.
    TimeoutFire,
    /// The request reaches the server, which opens and un-frames it onto
    /// the call.
    RequestArrive,
    /// The server decodes and executes the request, charging its CPU (and
    /// disk, if data moves).
    ServiceDispatch,
    /// The sealed reply leaves the server.
    ReplyDepart,
    /// The reply reaches the client, which opens and decodes it.
    ReplyArrive,
    /// A callback break message reaches its target workstation. Its paths
    /// wait in the target cluster's [`ClusterCore::breaks`], applied at op
    /// end whether or not this event has fired by then.
    BreakDeliver {
        /// The target workstation's node.
        to_ws: NodeId,
    },
    /// A scheduled server crash from fault plan generation `gen`.
    Crash { server: u32, gen: u64 },
    /// A scheduled server restart from fault plan generation `gen`.
    Restart { server: u32, gen: u64 },
    /// A salvager pass over one volume completes, scheduled by the restart
    /// of server incarnation `epoch` under fault plan generation `gen`.
    /// Stale if either has moved on (a newer plan, or another crash before
    /// the pass finished).
    Salvage {
        server: u32,
        volume: crate::proto::VolumeId,
        gen: u64,
        epoch: u64,
    },
    /// A scheduled silent corruption from fault plan generation `gen`
    /// lands one byte flip on the server's durable storage. Scheduled on
    /// the server's own cluster calendar with no tie draw, so installing a
    /// corruption-only plan perturbs nothing else.
    Corrupt { server: u32, gen: u64 },
    /// One background scrub pass over the next volume in the server's
    /// rotation, from scrub generation `gen` (stale if scrubbing was
    /// re-enabled or disabled since). Also cluster-local and untied.
    Scrub { server: u32, gen: u64 },
}

/// One cluster's share of the event machinery: its calendar, rng streams,
/// fault shard, the authenticated bindings of its workstations, the
/// callback breaks bound for them, their traffic counts, and its
/// observability state. Owning all of this per cluster is what lets
/// operations with disjoint cluster masks run on different threads without
/// sharing a single mutable core.
#[derive(Debug)]
pub(crate) struct ClusterCore {
    /// This cluster's deterministic event calendar.
    pub sched: Scheduler<NetEvent>,
    /// Authenticated per-(workstation, server) channels of this cluster's
    /// workstations (keyed by the *calling* node; the server may be
    /// remote). A `BTreeMap` so any iteration is seed-stable.
    pub bindings: BTreeMap<(NodeId, ServerId), Binding>,
    /// Nonce stream for binding handshakes initiated by this cluster's
    /// workstations.
    pub rng: SimRng,
    /// Jitter stream for retry backoff, independent of the nonce stream.
    pub retry_rng: SimRng,
    /// This cluster's shard of the installed fault plan, if any.
    pub faults: Option<FaultPlan>,
    /// Counters of what this cluster's retry machinery did.
    pub call_stats: CallStats,
    /// Idempotency-token allocator for calls issued from this cluster.
    pub next_token: u64,
    /// Callback breaks bound for this cluster's workstations, one record
    /// per message from schedule to delivery: its `BreakDeliver` event,
    /// target node and invalidated paths (one, unless breaks are batched).
    pub breaks: Vec<(EventId, NodeId, Vec<String>)>,
    /// Calls this cluster's workstations issued, per subtree, while
    /// [`Campus::monitoring`] is on (Section 3.6).
    pub traffic: TrafficMonitor,
    /// The span ring and anomaly flight recorder for activity anchored at
    /// this cluster. It holds no switch of its own: only the hooks of
    /// `observe.rs`, behind [`Campus::tracing`], mint or record into it.
    pub trace: TraceCollector,
    /// Latency-attribution aggregates over completed traced calls issued
    /// from this cluster.
    pub attr: AttributionAgg,
    /// Fixed-interval time series and health-engine state for activity
    /// anchored at this cluster. Sampled only while tracing is enabled;
    /// observation-only, like the collector.
    pub obs: ObsCore,
    /// The latest instant this cluster's workstations have reached: one
    /// term of the system's high-water mark ([`super::ItcSystem::now`]).
    pub now: SimTime,
}

impl ClusterCore {
    /// Fresh machinery for cluster `cluster` of a system seeded with
    /// `seed`. Cluster 0's streams are seeded exactly as the old global
    /// streams were, so single-cluster runs reproduce the pre-refactor
    /// calendars bit for bit; other clusters get independent streams
    /// derived by a golden-ratio step.
    pub fn new(seed: u64, cluster: u32) -> ClusterCore {
        let base = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(cluster)));
        let mut trace = TraceCollector::new();
        trace.set_cluster(cluster);
        ClusterCore {
            // Tie-break stream independent of both the nonce and jitter
            // streams: scheduling an event must not perturb either.
            sched: Scheduler::seeded(base ^ 0x0e5e_77ed_0c4a_1e4d),
            bindings: BTreeMap::new(),
            rng: SimRng::seeded(base),
            // Jitter stream seeded independently of the main rng: backoff
            // draws must not perturb handshake nonce generation.
            retry_rng: SimRng::seeded(base ^ 0x9e37_79b9_7f4a_7c15),
            faults: None,
            call_stats: CallStats::default(),
            next_token: 0,
            breaks: Vec::new(),
            traffic: TrafficMonitor::new(),
            trace,
            attr: AttributionAgg::new(),
            obs: ObsCore::default(),
            now: SimTime::ZERO,
        }
    }

    /// Raises this cluster's high-water mark to `t`; it never moves back.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

/// A view over the per-cluster slots an executor is entitled to.
///
/// The sequential executor holds every slot ([`Parts::Whole`]); a parallel
/// worker holds exactly the slots in its operation's declared cluster mask
/// ([`Parts::Split`], absent slots `None`). Indexing an absent slot is the
/// *mask tripwire*: the operation touched state outside what its driver
/// declared, which would have been a data race — so it panics loudly
/// instead of corrupting the run.
pub(crate) enum Parts<'a, T> {
    /// Every slot, mutably (sequential execution).
    Whole(&'a mut [T]),
    /// Only the masked slots, indexed by cluster id (parallel execution).
    Split(Vec<Option<&'a mut T>>),
}

impl<T> Parts<'_, T> {
    /// Total number of slots (present or not).
    pub fn len(&self) -> usize {
        match self {
            Parts::Whole(s) => s.len(),
            Parts::Split(v) => v.len(),
        }
    }

    /// Whether slot `i` is present in this view.
    pub fn has(&self, i: usize) -> bool {
        match self {
            Parts::Whole(s) => i < s.len(),
            Parts::Split(v) => v.get(i).is_some_and(|o| o.is_some()),
        }
    }

    /// Slot `i`, panicking on the mask tripwire if absent.
    pub fn get(&self, i: usize) -> &T {
        match self {
            Parts::Whole(s) => &s[i],
            Parts::Split(v) => v[i]
                .as_deref()
                .unwrap_or_else(|| panic!("op touched cluster {i} outside its declared mask")),
        }
    }

    /// Slot `i`, mutably, panicking on the mask tripwire if absent.
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        match self {
            Parts::Whole(s) => &mut s[i],
            Parts::Split(v) => v[i]
                .as_deref_mut()
                .unwrap_or_else(|| panic!("op touched cluster {i} outside its declared mask")),
        }
    }
}

/// Per-call state threaded through the event chain.
pub(crate) struct CallInFlight<'r> {
    /// Calling workstation's node.
    pub(crate) ws: NodeId,
    /// The calling workstation's cluster (where the client-side events and
    /// the call's spans live).
    pub(crate) cluster: usize,
    /// Target server.
    pub(crate) server: ServerId,
    /// The request being issued (borrowed from Venus for the whole call).
    pub(crate) req: &'r ViceRequest,
    /// Causal trace identity minted for this call ([`TraceId::NONE`] while
    /// tracing is off); it rides the call frame to the server.
    pub(crate) trace: TraceId,
    /// When the call entered the calendar (post-binding), anchoring the
    /// end-to-end attribution.
    pub(crate) started: SimTime,
    /// The volume covering the request's path on the target server, if
    /// known (resolved only when tracing is on).
    pub(crate) volume: Option<u32>,
    /// Component scratch for the current attempt.
    pub(crate) parts: AttemptParts,
    /// Frame-headed (token + trace id) request head, sealed anew on every
    /// attempt. File bytes do not ride here: they travel out of band as
    /// `req_payload`.
    framed: Vec<u8>,
    /// The request's bulk payload, shared (not copied) across every retry
    /// attempt of this call.
    req_payload: Option<Payload>,
    /// The reply's bulk payload, riding alongside the sealed reply head.
    reply_payload: Option<Payload>,
    /// Request size on the wire (encoded length + sealing overhead).
    req_wire: u64,
    /// Attempt counter (1-based once the first send fires).
    pub(crate) attempt: u32,
    /// When the current attempt was sent.
    pub(crate) attempt_start: SimTime,
    /// Fault-injected delay accumulated by the current attempt.
    pub(crate) extra: SimTime,
    /// The current attempt's retransmission timer, armed at send and
    /// cancelled (an O(1) tombstone) when the reply arrives first.
    timeout_id: Option<EventId>,
    /// The single in-flight chain leg `(cluster, event id)` between send
    /// and resolution — what a winning timeout would find still queued.
    chain: Option<(usize, EventId)>,
    /// Sealed request in flight between send and arrival.
    sealed_req: Option<Vec<u8>>,
    /// The opened request between arrival and dispatch.
    arrived_req: Option<QueuedRequest>,
    /// Sealed reply in flight between service and arrival.
    sealed_reply: Option<Vec<u8>>,
    /// Reply size on the wire.
    reply_wire: u64,
    /// Caller-visible latency of the successful attempt (excludes
    /// fault-injected delay, matching what the server observes).
    elapsed: SimTime,
    /// Whether the reply was duplicated by the network.
    duplicate: bool,
    /// Set when the call resolves; ends the pump.
    result: Option<(ViceReply, SimTime)>,
}

/// The transport an executor hands to Venus: real bindings over the
/// simulated network, with every leg of every call routed through the
/// per-cluster event calendars. It holds the shards it may write —
/// every cluster's server and event core sequentially ([`Parts::Whole`]),
/// exactly its operation's mask in a parallel worker — and one reference
/// to the campus it only reads.
pub(crate) struct SystemTransport<'a> {
    /// The Vice servers this executor may touch, indexed by server id
    /// (== cluster id).
    pub servers: Parts<'a, Server>,
    /// The per-cluster event cores this executor may touch.
    pub cores: Parts<'a, ClusterCore>,
    /// Everything the run only reads.
    pub campus: &'a Campus,
}

impl SystemTransport<'_> {
    /// The next event across every calendar in this view due at or before
    /// `upto`, in the deterministic merged order `(time, class, cluster,
    /// tie, seq)`. The order is a function of the per-cluster calendars
    /// alone — stable under any partition of clusters across workers.
    fn pop_next_due(&mut self, upto: SimTime) -> Option<(usize, Firing<NetEvent>)> {
        let (cluster, key) = self.peek_best()?;
        if key.at > upto {
            return None;
        }
        let firing = self
            .cores
            .get_mut(cluster)
            .sched
            .pop()
            .expect("peeked key is live");
        Some((cluster, firing))
    }

    /// The `(cluster, key)` of the merged-minimum event, if any calendar
    /// in this view is non-empty.
    fn peek_best(&mut self) -> Option<(usize, EventKey)> {
        let mut best: Option<(usize, EventKey)> = None;
        for cluster in 0..self.cores.len() {
            if !self.cores.has(cluster) {
                continue;
            }
            let Some(key) = self.cores.get_mut(cluster).sched.peek_key() else {
                continue;
            };
            let replace = match &best {
                None => true,
                Some((bc, bk)) => (key.at, key.class, cluster) < (bk.at, bk.class, *bc),
            };
            if replace {
                best = Some((cluster, key));
            }
        }
        best
    }

    /// Ensures an authenticated binding exists, running (and charging) the
    /// mutual handshake on first contact. Returns the time at which the
    /// binding is usable.
    pub fn ensure_binding(
        &mut self,
        ws: NodeId,
        user: &str,
        client_key: Key,
        server: ServerId,
        at: SimTime,
    ) -> Result<SimTime, String> {
        let campus = self.campus;
        let cc = campus.net.cluster_of(ws).0 as usize;
        if self.cores.get(cc).bindings.contains_key(&(ws, server)) {
            return Ok(at);
        }
        let sid = server.0 as usize;
        // Vice looks the user's key up in its protection database; an
        // unknown user cannot bind at all.
        let server_key = campus.domain.auth_key(user).map_err(|e| e.to_string())?;
        let nonces = {
            let rng = &mut self.cores.get_mut(cc).rng;
            (rng.next_u64(), rng.next_u64())
        };
        let srv_node = campus.server_nodes[sid];
        let binding = establish(user, ws, srv_node, client_key, server_key, nonces)
            .map_err(|e| e.to_string())?;
        let cpu = self.servers.get_mut(sid).resources_mut().0;
        let ready = campus.kernel.handshake(&campus.net, ws, srv_node, cpu, at);
        let cl = self.cores.get_mut(cc);
        cl.bindings.insert((ws, server), binding);
        cl.advance_to(ready);
        Ok(ready)
    }

    /// Fires every calendar event due at or before `upto` while no call is
    /// in flight: scheduled crashes/restarts take effect and matured
    /// callback breaks queue for delivery.
    pub(crate) fn pump_idle(&mut self, upto: SimTime) {
        while let Some((cluster, f)) = self.pop_next_due(upto) {
            self.system_event(cluster, f.at, f.ev);
        }
    }

    /// The in-flight call's authenticated channel.
    fn binding(&mut self, call: &CallInFlight<'_>) -> &mut Binding {
        self.cores
            .get_mut(call.cluster)
            .bindings
            .get_mut(&(call.ws, call.server))
            .expect("bound before the first attempt")
    }

    /// Schedules the call's next chain leg on `cluster`'s calendar — the
    /// one event a winning timeout would find still in flight.
    fn chain(&mut self, call: &mut CallInFlight<'_>, cluster: usize, at: SimTime, ev: NetEvent) {
        let leg = self.cores.get_mut(cluster).sched.schedule(at, ev);
        call.chain = Some((cluster, leg));
    }

    /// Executes one calendar event against the in-flight call.
    fn dispatch(
        &mut self,
        call: &mut CallInFlight<'_>,
        from_cluster: usize,
        at: SimTime,
        id: EventId,
        ev: NetEvent,
    ) -> Result<(), String> {
        let server = call.server;
        let sid = server.0 as usize;
        let cc = call.cluster;
        let campus = self.campus;
        // The chain leg that just fired is no longer cancellable.
        if call.chain == Some((from_cluster, id)) {
            call.chain = None;
        }
        match ev {
            NetEvent::AttemptSend => {
                call.attempt += 1;
                {
                    let stats = &mut self.cores.get_mut(cc).call_stats;
                    stats.attempts += 1;
                    if call.attempt > 1 {
                        stats.retries += 1;
                    }
                }
                call.attempt_start = at;
                call.extra = SimTime::ZERO;
                call.duplicate = false;
                self.call_span(call.trace, call, SpanClass::AttemptSend, at);
                // Lifecycle events due by now have already fired from the
                // calendar; if the server is down the client burns the
                // retry timeout and reports it unreachable.
                if !self.servers.get(sid).is_online() {
                    let done = at + campus.retry.timeout;
                    self.cores.get_mut(cc).advance_to(done);
                    self.call_aborted(call, AnomalyReason::Unreachable, done);
                    call.result = Some((ViceReply::Error(ViceError::Unreachable(server.0)), done));
                    return Ok(());
                }
                // Arm this attempt's retransmission timer. On the loss
                // paths it fires at exactly the instant the old transport
                // scheduled it; on the success path the reply's arrival
                // cancels it.
                let tid = self
                    .cores
                    .get_mut(cc)
                    .sched
                    .schedule(at + campus.retry.timeout, NetEvent::TimeoutFire);
                call.timeout_id = Some(tid);
                let fate = match self.cores.get_mut(sid).faults.as_mut() {
                    Some(f) => f.request_fault(server.0),
                    None => MessageFault::Deliver,
                };
                // The client always seals (its sequence number advances);
                // the network decides the fate of the sealed bytes.
                let sealed = self.binding(call).client_seal(&call.framed);
                match fate {
                    MessageFault::Drop => {
                        // The armed timer fires; nothing else to schedule.
                        self.cores.get_mut(cc).call_stats.timeouts += 1;
                    }
                    fate => {
                        if let MessageFault::Delay(d) = fate {
                            call.extra += d;
                        }
                        call.sealed_req = Some(sealed);
                        let arrived = campus.kernel.request_leg(
                            &campus.net,
                            call.ws,
                            campus.server_nodes[sid],
                            at,
                            call.req_wire,
                        );
                        self.chain(call, sid, arrived, NetEvent::RequestArrive);
                    }
                }
            }

            NetEvent::TimeoutFire => {
                call.timeout_id = None;
                if call.chain.is_some() {
                    // The request was delivered and its chain leg is still
                    // in flight: the reply is merely slower than the
                    // timer. The synchronous model trusted delivery, so
                    // the stale timer stands down (normally the reply's
                    // arrival cancels it before it ever fires).
                    return Ok(());
                }
                self.timeout_fired(call, at);
                if call.attempt >= campus.retry.max_attempts {
                    let cl = self.cores.get_mut(cc);
                    cl.call_stats.failures += 1;
                    cl.advance_to(at);
                    self.call_aborted(call, AnomalyReason::TimedOut, at);
                    call.result = Some((ViceReply::Error(ViceError::TimedOut(server.0)), at));
                } else {
                    let rng = &mut self.cores.get_mut(cc).retry_rng;
                    let wait = campus.retry.backoff(call.attempt, rng);
                    self.cores
                        .get_mut(cc)
                        .sched
                        .schedule(at + wait, NetEvent::AttemptSend);
                }
            }

            NetEvent::RequestArrive => {
                let sealed = call.sealed_req.take().expect("request leg carries bytes");
                let binding = self.binding(call);
                // The sealed buffer is decrypted in place and, past the frame
                // header, becomes the request body: no copy.
                let opened = binding.server_open(sealed).map_err(|e| e.to_string())?;
                let (token, wire_trace, body) = take_frame(opened).expect("framed by call()");
                // The span names the trace id that actually rode the wire.
                self.request_arrived(call, TraceId(wire_trace), at);
                call.arrived_req = Some(QueuedRequest {
                    from: call.ws,
                    token,
                    trace: TraceId(wire_trace),
                    body,
                    payload: call.req_payload.clone(),
                });
                self.chain(call, sid, at, NetEvent::ServiceDispatch);
            }

            NetEvent::ServiceDispatch => {
                let qr = call.arrived_req.take().expect("opened on arrival");
                // The server-side span carries the identity the frame
                // delivered, proving propagation end to end.
                self.call_span(qr.trace, call, SpanClass::ServiceDispatch, at);
                // Handlers see the attempt's start time, as the synchronous
                // transport always showed them.
                let costs = campus.kernel.costs();
                // Identity comes from the binding the request arrived on,
                // never the request.
                let user = self.cores.get(cc).bindings[&(call.ws, server)].server_user();
                let (reply, cost) = self.servers.get_mut(sid).serve(
                    (user, &campus.domain, &campus.location),
                    qr,
                    call.attempt_start,
                    costs,
                );
                // A fetch-time digest check may have taken a volume offline
                // mid-handle; surface its integrity anomaly now.
                self.drain_integrity_anomalies(sid, at, server.0);
                self.request_served(call, at);
                // Write-ahead discipline: the journal is forced to disk
                // before the reply can leave (whatever its network fate),
                // so no acknowledged mutation can be lost to a torn tail.
                // The force rides the disk-bytes charge already in the
                // call's cost; it adds no time and no calendar events.
                self.servers.get_mut(sid).sync_journal();
                let msg = encode_reply(&reply);
                call.reply_wire = msg.wire_len() as u64 + 40;
                call.reply_payload = msg.payload;
                let sealed_reply = self.binding(call).server_seal(&msg.head);
                let fate = match self.cores.get_mut(sid).faults.as_mut() {
                    Some(f) => f.reply_fault(server.0),
                    None => MessageFault::Deliver,
                };
                match fate {
                    MessageFault::Drop => {
                        // The server did the work (and remembered the
                        // reply); the client never hears back, and no
                        // CPU/disk time is charged for the aborted leg. The
                        // timer armed at send fires at attempt_start +
                        // timeout, exactly where the old transport
                        // scheduled it from here.
                        self.cores.get_mut(cc).call_stats.timeouts += 1;
                    }
                    fate => {
                        if let MessageFault::Delay(d) = fate {
                            call.extra += d;
                        }
                        call.duplicate = fate == MessageFault::Duplicate;
                        call.sealed_reply = Some(sealed_reply);
                        let spec = CallSpec {
                            kind: call.req.kind(),
                            request_bytes: call.req_wire,
                            reply_bytes: call.reply_wire,
                            server_cpu: cost.server_cpu,
                            disk_bytes: cost.disk_bytes,
                            lock_ipc: cost.lock_ipc,
                        };
                        self.service_charging(call, at, &spec);
                        let (cpu, disk) = self.servers.get_mut(sid).resources_mut();
                        let served = campus.kernel.service(cpu, disk, at, &spec);
                        self.chain(call, sid, served, NetEvent::ReplyDepart);
                    }
                }
            }

            NetEvent::ReplyDepart => {
                let completed = campus.kernel.reply_leg(
                    &campus.net,
                    campus.server_nodes[sid],
                    call.ws,
                    at,
                    call.reply_wire,
                );
                call.elapsed = completed - call.attempt_start;
                self.reply_departed(call, at, completed);
                self.chain(call, cc, completed + call.extra, NetEvent::ReplyArrive);
            }

            NetEvent::ReplyArrive => {
                // The retransmission timer lost the race: tombstone it
                // instead of letting it fire and be ignored.
                if let Some(tid) = call.timeout_id.take() {
                    self.cores.get_mut(cc).sched.cancel(tid);
                }
                let sealed = call.sealed_reply.take().expect("reply leg carries bytes");
                let binding = self.binding(call);
                // Opening consumes the sealed buffer, so only a duplicated
                // delivery keeps a second copy of it.
                let second = call.duplicate.then(|| sealed.clone());
                let reply_clear = binding.client_open(sealed).map_err(|e| e.to_string())?;
                // Second copy of the same sealed reply: the channel's
                // sequence check discards it.
                if second.is_some_and(|copy| binding.client_open(copy).is_err()) {
                    self.cores.get_mut(cc).call_stats.duplicates_ignored += 1;
                }
                let reply = decode_reply(&reply_clear, call.reply_payload.take())
                    .map_err(|e| e.to_string())?;
                self.reply_arrived(call, &reply, at);

                // Traffic monitoring (Section 3.6): attribute the call to
                // the covering custodianship subtree, on the caller's
                // cluster. The interned lookup hands back the subtree's
                // shared key, so recording allocates nothing.
                if campus.monitoring {
                    if let Some((subtree, _)) = campus.location.lookup_interned(call.req.path()) {
                        self.cores.get_mut(cc).traffic.record(subtree, cc as u32);
                    }
                }
                self.servers.get_mut(sid).record_call(
                    call.req.kind(),
                    call.req_wire,
                    call.reply_wire,
                    call.elapsed,
                );
                self.cores.get_mut(cc).advance_to(at);

                // Callback-break messages this call generated enter the
                // calendars of their *target* workstations' clusters, and
                // their records those clusters' `breaks`; the op applies
                // them when it ends.
                let from_node = campus.server_nodes[sid];
                for (to_ws, paths) in self.servers.get_mut(sid).drain_breaks() {
                    // One base message plus a small increment for every
                    // extra path a batched message carries.
                    let bytes = 160 + 24 * (paths.len() as u64 - 1);
                    let arrival = campus
                        .kernel
                        .one_way(&campus.net, from_node, to_ws, at, bytes);
                    let cl = self.cores.get_mut(campus.net.cluster_of(to_ws).0 as usize);
                    let id = cl.sched.schedule(arrival, NetEvent::BreakDeliver { to_ws });
                    cl.breaks.push((id, to_ws, paths));
                }
                call.result = Some((reply, at));
            }

            // Not a call event: crashes, salvage, scrub and break delivery
            // interleave with the chain on the same calendars.
            lifecycle => self.system_event(from_cluster, at, lifecycle),
        }
        Ok(())
    }
}

impl ViceTransport for SystemTransport<'_> {
    fn call(
        &mut self,
        ws: NodeId,
        user: &str,
        key: Key,
        server: ServerId,
        req: &ViceRequest,
        at: SimTime,
    ) -> Result<(ViceReply, SimTime), String> {
        let sid = server.0 as usize;
        if sid >= self.servers.len() {
            return Err(format!("unknown server {}", server.0));
        }
        let cc = self.campus.net.cluster_of(ws).0 as usize;
        // Scheduled crashes/restarts that have come due take effect before
        // anything else sees the server.
        self.pump_idle(at);
        // A down server: the client burns the RPC timeout and synthesizes
        // an Unreachable error so Venus can fail over to a replica.
        if !self.servers.get(sid).is_online() {
            let done = at + self.campus.kernel.costs().rpc_timeout;
            self.cores.get_mut(cc).advance_to(done);
            self.unbound_call_aborted(cc, ws, server, done);
            return Ok((ViceReply::Error(ViceError::Unreachable(server.0)), done));
        }
        let at = self.ensure_binding(ws, user, key, server, at)?;

        // Frame the request with a per-call idempotency token and the
        // trace identity minted as the call enters the calendar. Every
        // retry of this logical call carries the same token, so a mutation
        // whose *reply* was lost is answered from the server's replay
        // cache on retry instead of being applied twice.
        let token = {
            let cl = self.cores.get_mut(cc);
            cl.next_token += 1;
            cl.next_token
        };
        let trace = self.mint_trace(cc);
        let msg = encode_request(req);
        let framed = frame_call(token, trace.0, &msg.head);
        let volume = self.traced_volume(sid, req.path());

        let mut call = CallInFlight {
            ws,
            cluster: cc,
            server,
            req,
            trace,
            started: at,
            volume,
            parts: AttemptParts::default(),
            // wire_len reproduces the old inline encoding exactly; 40
            // covers the frame header and sealing overhead, as before (the
            // frame's trace id is accounting-invisible — wire sizes come
            // from the logical message, never the framed byte length).
            req_wire: msg.wire_len() as u64 + 40,
            framed,
            req_payload: msg.payload,
            reply_payload: None,
            attempt: 0,
            attempt_start: at,
            extra: SimTime::ZERO,
            timeout_id: None,
            chain: None,
            sealed_req: None,
            arrived_req: None,
            sealed_reply: None,
            reply_wire: 0,
            elapsed: SimTime::ZERO,
            duplicate: false,
            result: None,
        };
        self.cores
            .get_mut(cc)
            .sched
            .schedule(at, NetEvent::AttemptSend);
        while call.result.is_none() {
            let (cluster, f) = self
                .pop_next_due(SimTime::from_micros(u64::MAX))
                .expect("an in-flight call keeps the calendars non-empty");
            self.dispatch(&mut call, cluster, f.at, f.id, f.ev)?;
        }
        Ok(call.result.take().expect("pump exited on resolution"))
    }

    fn epoch_of(&self, server: ServerId) -> u64 {
        let sid = server.0 as usize;
        if sid >= self.servers.len() {
            return 0;
        }
        self.servers.get(sid).epoch()
    }

    fn nearest(&self, ws: NodeId, candidates: &[ServerId]) -> ServerId {
        let campus = self.campus;
        *candidates
            .iter()
            .min_by_key(|s| (campus.net.hops(ws, campus.server_nodes[s.0 as usize]), s.0))
            .expect("candidates non-empty")
    }

    /// The server of the workstation's own cluster: server id equals
    /// cluster id.
    fn home_server(&self, ws: NodeId) -> ServerId {
        ServerId(self.campus.net.cluster_of(ws).0)
    }
}
