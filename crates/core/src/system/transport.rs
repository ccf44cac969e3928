//! The event-driven RPC transport over per-cluster calendars.
//!
//! A Vice call used to be one synchronous function that computed every
//! timestamp inline. Here it is a chain of scheduler events — the request
//! departs, arrives, queues at the server, is served, and the reply departs
//! and arrives — drained in virtual-time order. This file is that call
//! life-cycle and the per-cluster cores it runs on, nothing else: what the
//! server does with a dequeued request is `Server::serve`, everything else
//! on the calendars (crashes, salvage, scrub, break delivery) is
//! `lifecycle.rs`, and every span, gauge and attribution record is one
//! call per event into `observe.rs`.
//!
//! ## Per-cluster decomposition
//!
//! Since the parallel-simulation refactor there is no single global
//! calendar: every cluster owns a [`ClusterCore`] — its own scheduler, rng
//! streams, fault shard, bindings, trace collector, and counters. Events
//! are routed to the cluster that owns their state:
//!
//! * client-side events (`AttemptSend`, `TimeoutFire`, `ReplyArrive`) live
//!   on the **calling workstation's** cluster;
//! * server-side events (`RequestArrive`, `ServiceDispatch`,
//!   `ReplyDepart`, and the lifecycle events) live on the **server's**
//!   cluster;
//! * `BreakDeliver` lives on the **target workstation's** cluster.
//!
//! The executor merge-pops the participating calendars by
//! `(time, class, cluster, ...)` — a total order that is a function of the
//! per-cluster calendars alone, never of how clusters are partitioned
//! across threads. A sequential run holds every cluster
//! ([`Parts::Whole`]); a parallel worker holds exactly the clusters in its
//! operation's declared mask ([`Parts::Split`]), and touching any other
//! cluster is a hard panic (the mask tripwire), not silent corruption.
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
use crate::monitor::TrafficMonitor;
use crate::obs::ObsCore;
use crate::protect::ProtectionDomain;
use crate::proto::{
    decode_reply, encode_reply, encode_request, Payload, ServerId, ViceError, ViceReply,
    ViceRequest,
};
use crate::server::{QueuedRequest, Server};
use crate::trace::AttributionAgg;
use crate::venus::ViceTransport;
use itc_cryptbox::Key;
use itc_rpc::binding::{establish, Binding};
use itc_rpc::{
    frame_call, take_frame, CallSpec, CallStats, Network, NodeId, RetryPolicy, TimingKernel,
};
use itc_sim::{
    AnomalyReason, Clock, EventId, EventKey, EventStats, FaultPlan, FaultStats, Firing,
    MessageFault, Scheduler, SimRng, SimTime, SpanClass, TraceCollector, TraceId,
};
use std::collections::BTreeMap;
use std::sync::RwLock;

/// A callback break that has been popped from a calendar but not yet
/// applied to its target workstation's cache.
#[derive(Debug)]
pub(crate) struct PendingBreak {
    /// Node of the workstation whose cached copy is stale.
    pub to_ws: NodeId,
    /// The invalidated Vice path.
    pub path: String,
}

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
    /// The request reaches the server and joins its explicit queue.
    RequestArrive,
    /// The server dequeues, decodes, and executes the request, charging
    /// its CPU (and disk, if data moves).
    ServiceDispatch,
    /// The sealed reply leaves the server.
    ReplyDepart,
    /// The reply reaches the client, which opens and decodes it.
    ReplyArrive,
    /// A callback break message reaches its target workstation. Without
    /// break batching every message carries exactly one path; with it, one
    /// message carries every path the triggering mutation invalidated for
    /// this workstation.
    BreakDeliver {
        /// The target workstation's node.
        to_ws: NodeId,
        /// The invalidated Vice paths.
        paths: Vec<String>,
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
/// fault shard, the authenticated bindings of its workstations, and its
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
    /// Callback breaks popped mid-pump, awaiting delivery at op end.
    pub pending: Vec<PendingBreak>,
    /// Calendar ids of scheduled `BreakDeliver` events, so op-end delivery
    /// can claim the still-queued ones in O(1) each (ids of events that
    /// already fired are simply skipped).
    pub break_ids: Vec<EventId>,
    /// The span ring and anomaly flight recorder for activity anchored at
    /// this cluster. Disabled by default: minting returns
    /// [`TraceId::NONE`] and recording is one branch.
    pub trace: TraceCollector,
    /// Latency-attribution aggregates over completed traced calls issued
    /// from this cluster.
    pub attr: AttributionAgg,
    /// Fixed-interval time series and health-engine state for activity
    /// anchored at this cluster. Sampled only while tracing is enabled;
    /// observation-only, like the collector.
    pub obs: ObsCore,
}

impl ClusterCore {
    /// Fresh machinery for cluster `cluster` of a system seeded with
    /// `seed`. Cluster 0's streams are seeded exactly as the old global
    /// streams were, so single-cluster runs reproduce the pre-refactor
    /// calendars bit for bit; other clusters get independent streams
    /// derived by a golden-ratio step.
    fn new(seed: u64, cluster: u32) -> ClusterCore {
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
            pending: Vec::new(),
            break_ids: Vec::new(),
            trace,
            attr: AttributionAgg::new(),
            obs: ObsCore::new(),
        }
    }
}

/// The event machinery of the whole system: one [`ClusterCore`] per
/// cluster plus the (cluster-independent) retry policy and fault-plan
/// generation counter.
#[derive(Debug)]
pub(crate) struct EventCore {
    /// Per-cluster calendars and streams, indexed by cluster id.
    pub clusters: Vec<ClusterCore>,
    /// The retry/backoff policy in force (shared; `Copy`).
    pub retry: RetryPolicy,
    /// Bumped each time a plan is installed; lifecycle events from an
    /// earlier plan are recognized as stale and ignored.
    pub plan_gen: u64,
    /// Background-scrubber pass interval; `None` while scrubbing is off.
    pub scrub_interval: Option<SimTime>,
    /// Bumped whenever scrubbing is enabled or disabled; scrub events from
    /// an earlier generation are recognized as stale and ignored.
    pub scrub_gen: u64,
}

impl EventCore {
    /// Fresh machinery for a system seeded with `seed`, whose default
    /// retry timeout is `rpc_timeout`, with one core per cluster.
    pub fn new(seed: u64, rpc_timeout: SimTime, n_clusters: u32) -> EventCore {
        EventCore {
            clusters: (0..n_clusters).map(|c| ClusterCore::new(seed, c)).collect(),
            retry: RetryPolicy::standard(rpc_timeout),
            plan_gen: 0,
            scrub_interval: None,
            scrub_gen: 0,
        }
    }

    /// Whether any cluster currently has a fault shard installed.
    pub fn any_faults(&self) -> bool {
        self.clusters.iter().any(|c| c.faults.is_some())
    }

    /// Whether any installed shard couples clusters (message faults,
    /// scripted outcomes, crashes, or restarts). Corruption-only plans do
    /// not: their flips are cluster-local, so parallel runs keep narrow
    /// visibility masks.
    pub fn faults_couple_clusters(&self) -> bool {
        self.clusters
            .iter()
            .any(|c| c.faults.as_ref().is_some_and(|f| f.couples_clusters()))
    }

    /// Scheduler counters summed across every cluster calendar.
    pub fn event_stats(&self) -> EventStats {
        let mut total = EventStats::default();
        for c in &self.clusters {
            total.merge(&c.sched.stats());
        }
        total
    }

    /// Retry-machinery counters summed across every cluster.
    pub fn call_stats(&self) -> CallStats {
        let mut total = CallStats::default();
        for c in &self.clusters {
            total.absorb(c.call_stats);
        }
        total
    }

    /// Fault-injection counters summed across every installed shard.
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for c in &self.clusters {
            if let Some(f) = &c.faults {
                total.merge(&f.stats());
            }
        }
        total
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
/// per-cluster event calendars. Sequential execution holds every cluster
/// and server ([`Parts::Whole`]); a parallel worker holds exactly its
/// operation's mask.
pub(crate) struct SystemTransport<'a> {
    /// The Vice servers this executor may touch, indexed by server id
    /// (== cluster id).
    pub servers: Parts<'a, Server>,
    /// The per-cluster event cores this executor may touch.
    pub cores: Parts<'a, ClusterCore>,
    /// The bridged network graph (read-only, shared).
    pub net: &'a Network,
    /// Workstation-node → home-server map (read-only, shared).
    pub home: &'a BTreeMap<NodeId, ServerId>,
    /// Every server's node id (read-only, shared — readable even for
    /// servers outside the mask, e.g. for hop counting in `nearest`).
    pub server_nodes: &'a [NodeId],
    pub kernel: &'a TimingKernel,
    pub clock: &'a Clock,
    /// The traffic monitor, if sampling (sequential-only: parallel runs
    /// assert it off).
    pub monitor: Option<&'a mut TrafficMonitor>,
    pub domain: &'a RwLock<ProtectionDomain>,
    /// Copy of the retry policy (shared and immutable during a run).
    pub retry: RetryPolicy,
    /// Copy of the fault-plan generation (stable during a run; plans are
    /// installed only between runs).
    pub plan_gen: u64,
    /// Copy of the scrub interval (stable during a run; the scrubber is
    /// toggled only between runs).
    pub scrub_interval: Option<SimTime>,
    /// Copy of the scrub generation (stable during a run).
    pub scrub_gen: u64,
    /// Copy of the tracing flag (identical across clusters; kept here so
    /// the branch never needs cluster 0, which a mask may exclude).
    pub tracing: bool,
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
        let cc = self.net.cluster_of(ws).0 as usize;
        if self.cores.get(cc).bindings.contains_key(&(ws, server)) {
            return Ok(at);
        }
        let sid = server.0 as usize;
        // Vice looks the user's key up in its protection database; an
        // unknown user cannot bind at all.
        let server_key = self
            .domain
            .read()
            .expect("protection domain lock")
            .auth_key(user)
            .map_err(|e| e.to_string())?;
        let nonces = {
            let rng = &mut self.cores.get_mut(cc).rng;
            (rng.next_u64(), rng.next_u64())
        };
        let srv_node = self.server_nodes[sid];
        let binding = establish(user, ws, srv_node, client_key, server_key, nonces)
            .map_err(|e| e.to_string())?;
        let ready = self
            .kernel
            .handshake(self.net, ws, srv_node, self.servers.get(sid).cpu(), at);
        self.cores
            .get_mut(cc)
            .bindings
            .insert((ws, server), binding);
        self.clock.advance_to(ready);
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
                self.call_span(call.trace, call, SpanClass::AttemptSend, at, None);
                // Lifecycle events due by now have already fired from the
                // calendar; if the server is down the client burns the
                // retry timeout and reports it unreachable.
                if !self.servers.get(sid).is_online() {
                    let done = at + self.retry.timeout;
                    self.clock.advance_to(done);
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
                    .schedule(at + self.retry.timeout, NetEvent::TimeoutFire);
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
                        let arrived = self.kernel.request_leg(
                            self.net,
                            call.ws,
                            self.server_nodes[sid],
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
                if call.attempt >= self.retry.max_attempts {
                    self.cores.get_mut(cc).call_stats.failures += 1;
                    self.clock.advance_to(at);
                    self.call_aborted(call, AnomalyReason::TimedOut, at);
                    call.result = Some((ViceReply::Error(ViceError::TimedOut(server.0)), at));
                } else {
                    let retry = self.retry;
                    let wait = retry.backoff(call.attempt, &mut self.cores.get_mut(cc).retry_rng);
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
                // header, becomes the queued request body: no copy.
                let opened = binding.server_open(sealed).map_err(|e| e.to_string())?;
                let (token, wire_trace, body) = take_frame(opened).expect("framed by call()");
                // The span names the trace id that actually rode the wire;
                // queue depth is observed before this request joins.
                let depth = self.servers.get(sid).queue_depth() as u32;
                self.request_arrived(call, TraceId(wire_trace), at, depth);
                self.servers.get_mut(sid).enqueue_request(QueuedRequest {
                    from: call.ws,
                    token,
                    trace: TraceId(wire_trace),
                    body,
                    payload: call.req_payload.clone(),
                    arrived: at,
                });
                self.chain(call, sid, at, NetEvent::ServiceDispatch);
            }

            NetEvent::ServiceDispatch => {
                let qr = self
                    .servers
                    .get_mut(sid)
                    .dequeue_request()
                    .expect("enqueued on arrival");
                // The server-side span carries the identity the frame
                // delivered, proving propagation end to end.
                self.call_span(qr.trace, call, SpanClass::ServiceDispatch, at, None);
                // Handlers see the attempt's start time, as the synchronous
                // transport always showed them.
                let costs = self.kernel.costs();
                // Identity comes from the binding the request arrived on,
                // never the request.
                let user = self.cores.get(cc).bindings[&(call.ws, server)].server_user();
                let (reply, cost) =
                    self.servers
                        .get_mut(sid)
                        .serve(user, qr, call.attempt_start, costs);
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
                        let srv = self.servers.get(sid);
                        let served = self.kernel.service(srv.cpu(), srv.disk(), at, &spec);
                        self.chain(call, sid, served, NetEvent::ReplyDepart);
                    }
                }
            }

            NetEvent::ReplyDepart => {
                let completed = self.kernel.reply_leg(
                    self.net,
                    self.server_nodes[sid],
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
                // the covering custodianship subtree and caller's cluster.
                // The interned lookup hands back the subtree's shared key,
                // so recording is a refcount bump, not a String allocation.
                // (Monitoring is sequential-only, so indexing server 0 here
                // can never trip a mask.)
                if let Some(m) = self.monitor.as_deref_mut() {
                    if let Some((subtree, _)) = self
                        .servers
                        .get(0)
                        .location()
                        .lookup_interned(call.req.path())
                    {
                        let origin = self.net.cluster_of(call.ws);
                        m.record_interned(&subtree, origin.0);
                    }
                }
                self.servers.get_mut(sid).record_call(
                    call.req.kind(),
                    call.req_wire,
                    call.reply_wire,
                    call.elapsed,
                );
                self.clock.advance_to(at);

                // Callback-break messages this call generated enter the
                // calendars of their *target* workstations' clusters;
                // delivery is applied by the system after the operation.
                let from_node = self.server_nodes[sid];
                for (to_ws, paths) in self.servers.get_mut(sid).drain_breaks() {
                    // One base message plus a small increment for every
                    // extra path a batched message carries.
                    let bytes = 160 + 24 * (paths.len() as u64 - 1);
                    let arrival = self.kernel.one_way(self.net, from_node, to_ws, at, bytes);
                    let cl = self.cores.get_mut(self.net.cluster_of(to_ws).0 as usize);
                    let bid = cl
                        .sched
                        .schedule(arrival, NetEvent::BreakDeliver { to_ws, paths });
                    cl.break_ids.push(bid);
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
        let cc = self.net.cluster_of(ws).0 as usize;
        // Scheduled crashes/restarts that have come due take effect before
        // anything else sees the server.
        self.pump_idle(at);
        // A down server: the client burns the RPC timeout and synthesizes
        // an Unreachable error so Venus can fail over to a replica.
        if !self.servers.get(sid).is_online() {
            let done = at + self.kernel.costs().rpc_timeout;
            self.clock.advance_to(done);
            self.unbound_call_aborted(cc, ws, server, done);
            return Ok((ViceReply::Error(ViceError::Unreachable(server.0)), done));
        }
        let at = self.ensure_binding(ws, user, key, server, at)?;

        // Frame the request with a per-call idempotency token and the
        // trace identity minted as the call enters the calendar. Every
        // retry of this logical call carries the same token, so a mutation
        // whose *reply* was lost is answered from the server's replay
        // cache on retry instead of being applied twice.
        let (token, trace) = {
            let cl = self.cores.get_mut(cc);
            cl.next_token += 1;
            (cl.next_token, cl.trace.mint())
        };
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
        *candidates
            .iter()
            .min_by_key(|s| (self.net.hops(ws, self.server_nodes[s.0 as usize]), s.0))
            .expect("candidates non-empty")
    }

    fn home_server(&self, ws: NodeId) -> ServerId {
        self.home[&ws]
    }
}
