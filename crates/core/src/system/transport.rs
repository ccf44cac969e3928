//! The event-driven RPC transport over per-cluster calendars.
//!
//! A Vice call used to be one synchronous function that computed every
//! timestamp inline. Here it is a chain of scheduler events — the request
//! departs, arrives, queues at the server, is served, and the reply departs
//! and arrives — drained in virtual-time order. Retry timeouts, scheduled
//! server crashes/restarts, and callback-break deliveries live on the same
//! calendars, so their interleavings with message traffic are explicit.
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
//!   `ReplyDepart`, `Crash`, `Restart`, `Salvage`) live on the **server's**
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

use crate::disk::{CorruptionOutcome, FlipRegion, ScrubFinding};
use crate::monitor::TrafficMonitor;
use crate::obs::{ObsCore, ObsSummary};
use crate::protect::ProtectionDomain;
use crate::proto::payload::payload_digest;
use crate::proto::{
    decode_reply, decode_request, encode_reply, encode_request, Payload, ServerId, ViceError,
    ViceReply, ViceRequest,
};
use crate::server::{CallCost, QueuedRequest, Server};
use crate::trace::{AttributionAgg, CallBreakdown};
use crate::venus::ViceTransport;
use itc_cryptbox::Key;
use itc_rpc::binding::{establish, Binding};
use itc_rpc::{
    frame_call, split_frame, CallSpec, CallStats, Network, NodeId, RetryPolicy, TimingKernel,
};
use itc_sim::resource::BUCKET_WIDTH;
use itc_sim::{
    AnomalyReason, Clock, EventClass, EventId, EventKey, EventStats, FaultPlan, FaultStats, Firing,
    HealthEvent, MessageFault, Scheduler, SimRng, SimTime, Span, SpanClass, TraceCollector,
    TraceId, TraceStats,
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

    /// Installs a fault plan: the plan is split into per-cluster shards
    /// (each server's faults land on its own cluster, with independent
    /// per-shard rng streams), each shard's crash/restart schedule is
    /// entered into its cluster's calendar (crashes sort before restarts
    /// at the same instant), and its message faults govern every
    /// subsequent call served there.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.plan_gen += 1;
        let gen = self.plan_gen;
        let shards = plan.split(self.clusters.len(), |server| server as usize);
        for (cluster, shard) in shards.into_iter().enumerate() {
            let cl = &mut self.clusters[cluster];
            for (server, at) in shard.crash_schedule() {
                cl.sched
                    .schedule_class(at, EventClass::Crash, NetEvent::Crash { server, gen });
            }
            for (server, at) in shard.restart_schedule() {
                cl.sched
                    .schedule_class(at, EventClass::Restart, NetEvent::Restart { server, gen });
            }
            for (server, at) in shard.corruption_schedule() {
                cl.sched.schedule_class_untied(
                    at,
                    EventClass::Corrupt,
                    NetEvent::Corrupt { server, gen },
                );
            }
            cl.faults = Some(shard);
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

    /// Turns the background scrubber on: every cluster's server gets a
    /// low-priority scrub pass every `interval`, the first one landing at
    /// `now + interval`. Idempotent in effect — re-enabling bumps the
    /// generation so stale passes from the previous cadence are dropped.
    pub fn enable_scrub(&mut self, now: SimTime, interval: SimTime) {
        self.scrub_gen += 1;
        self.scrub_interval = Some(interval);
        let gen = self.scrub_gen;
        for (cluster, cl) in self.clusters.iter_mut().enumerate() {
            cl.sched.schedule_class_untied(
                now + interval,
                EventClass::Scrub,
                NetEvent::Scrub {
                    server: cluster as u32,
                    gen,
                },
            );
        }
    }

    /// Turns the background scrubber off; in-flight scrub events become
    /// stale and are ignored when they fire.
    pub fn disable_scrub(&mut self) {
        self.scrub_gen += 1;
        self.scrub_interval = None;
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

    /// Trace-collector counters summed across every cluster.
    pub fn trace_stats(&self) -> TraceStats {
        let mut total = TraceStats::default();
        for c in &self.clusters {
            total.merge(&c.trace.stats());
        }
        total
    }

    /// Attribution aggregates merged across every cluster, in cluster
    /// order (deterministic, and the identity for single-cluster systems).
    pub fn attribution(&self) -> AttributionAgg {
        let mut total = AttributionAgg::new();
        for c in &self.clusters {
            total.merge(&c.attr);
        }
        total
    }

    /// Observability series merged across every cluster, in cluster order.
    /// Per-bucket folds are commutative, so the result is identical
    /// whichever execution mode filled the cores.
    pub fn obs_summary(&self) -> ObsSummary {
        let mut total = ObsSummary::default();
        for (cluster, c) in self.clusters.iter().enumerate() {
            total.merge_cluster(cluster as u32, &c.obs);
        }
        total
    }

    /// Health events merged across every cluster, deduplicated on
    /// `(rule, server, bucket)` keeping the first in cluster order (the
    /// sort is stable), then sorted on `(at, bucket, rule, server)` for a
    /// stable timeline.
    pub fn health_events(&self) -> Vec<HealthEvent> {
        let mut out: Vec<HealthEvent> = self
            .clusters
            .iter()
            .flat_map(|c| c.obs.health_events())
            .copied()
            .collect();
        out.sort_by_key(|ev| (ev.rule, ev.server, ev.bucket));
        out.dedup_by_key(|ev| (ev.rule, ev.server, ev.bucket));
        out.sort_by_key(|ev| (ev.at, ev.bucket, ev.rule, ev.server));
        out
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

/// Latency components of one attempt, captured from the same arithmetic
/// that schedules the event chain (read-only resource snapshots — no extra
/// charges, draws, or events). The attempt that completes keeps its values;
/// everything before it is the call's retry-wasted time.
#[derive(Debug, Default, Clone, Copy)]
struct AttemptParts {
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

/// Per-call state threaded through the event chain.
struct CallInFlight<'r> {
    /// Calling workstation's node.
    ws: NodeId,
    /// The calling workstation's cluster (where the client-side events and
    /// the call's spans live).
    cluster: usize,
    /// Target server.
    server: ServerId,
    /// The request being issued (borrowed from Venus for the whole call).
    req: &'r ViceRequest,
    /// Causal trace identity minted for this call ([`TraceId::NONE`] while
    /// tracing is off); it rides the call frame to the server.
    trace: TraceId,
    /// When the call entered the calendar (post-binding), anchoring the
    /// end-to-end attribution.
    started: SimTime,
    /// The volume covering the request's path on the target server, if
    /// known (resolved only when tracing is on).
    volume: Option<u32>,
    /// Component scratch for the current attempt.
    parts: AttemptParts,
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
    attempt: u32,
    /// When the current attempt was sent.
    attempt_start: SimTime,
    /// Fault-injected delay accumulated by the current attempt.
    extra: SimTime,
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
    /// The next due event across every calendar in this view, in the
    /// deterministic merged order `(time, class, cluster, tie, seq)`. The
    /// order is a function of the per-cluster calendars alone — stable
    /// under any partition of clusters across workers.
    fn pop_next(&mut self) -> Option<(usize, Firing<NetEvent>)> {
        let best = self.peek_best()?;
        let (cluster, _) = best;
        let firing = self
            .cores
            .get_mut(cluster)
            .sched
            .pop()
            .expect("peeked key is live");
        Some((cluster, firing))
    }

    /// Like [`SystemTransport::pop_next`] but only if the merged next
    /// event is due at or before `upto`.
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

    /// Records one span of the in-flight call into the *caller's* cluster
    /// collector (where the whole chain of this call lives). A single
    /// branch while tracing is off; never draws rng, schedules events, or
    /// moves clocks.
    fn call_span(
        &mut self,
        trace: TraceId,
        call: &CallInFlight<'_>,
        class: SpanClass,
        at: SimTime,
        queue_depth: Option<u32>,
    ) {
        if !self.tracing {
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
            queue_depth,
            attempt: call.attempt,
            kind: Some(call.req.kind()),
        });
    }

    /// Records one lifecycle span (crash, restart, salvage, break
    /// delivery) outside any trace, into `cluster`'s collector. A single
    /// branch while tracing is off.
    fn life_span(
        &mut self,
        cluster: usize,
        class: SpanClass,
        at: SimTime,
        server: Option<u32>,
        client: Option<u32>,
        volume: Option<u32>,
    ) {
        if !self.tracing {
            return;
        }
        self.cores.get_mut(cluster).trace.record(Span {
            trace: TraceId::NONE,
            seq: 0,
            class,
            at,
            server,
            client,
            volume,
            queue_depth: None,
            attempt: 0,
            kind: None,
        });
    }

    /// Fires every calendar event due at or before `upto` while no call is
    /// in flight: scheduled crashes/restarts take effect and matured
    /// callback breaks queue for delivery.
    pub(crate) fn pump_idle(&mut self, upto: SimTime) {
        while let Some((cluster, f)) = self.pop_next_due(upto) {
            self.system_event(cluster, f.at, f.ev);
        }
    }

    /// Applies a non-call event that fired from `cluster`'s calendar.
    fn system_event(&mut self, cluster: usize, at: SimTime, ev: NetEvent) {
        match ev {
            NetEvent::Crash { server, gen } => {
                if gen == self.plan_gen {
                    let sid = server as usize;
                    // The torn-write model: the crash catches up to
                    // `unsynced` journal bytes mid-write. The draw is
                    // skipped entirely when the journal is clean, so the
                    // write-ahead policy leaves the fault rng untouched.
                    let unsynced = self.servers.get(sid).unsynced_journal_bytes();
                    let torn = self
                        .cores
                        .get_mut(cluster)
                        .faults
                        .as_mut()
                        .map_or(0, |f| f.torn_bytes(unsynced));
                    self.servers.get_mut(sid).crash_with_torn(torn);
                    self.life_span(cluster, SpanClass::Crash, at, Some(server), None, None);
                }
            }
            NetEvent::Restart { server, gen } => {
                if gen == self.plan_gen {
                    let sid = server as usize;
                    let costs = self.kernel.costs();
                    let srv = self.servers.get_mut(sid);
                    srv.restart();
                    // Volumes stay offline until a salvager pass replays
                    // the journal over their checkpoints. Each pass is a
                    // calendar event charged on the server's disk, so
                    // traffic arriving mid-salvage sees `VolumeOffline`.
                    let epoch = srv.epoch();
                    let tracing = self.tracing;
                    for volume in srv.salvage_pending().to_vec() {
                        let (records, bytes) = srv.salvage_work(volume);
                        let pass = costs.salvage_time(bytes, records);
                        let done = srv.disk().acquire(at, pass);
                        let cl = self.cores.get_mut(cluster);
                        if tracing {
                            // Salvage passes charge the disk outside any
                            // call; the attribution ledger keeps them
                            // separate so disk busy time decomposes fully.
                            cl.attr.add_salvage_disk(pass);
                        }
                        cl.sched.schedule_class(
                            done,
                            EventClass::Salvage,
                            NetEvent::Salvage {
                                server,
                                volume,
                                gen,
                                epoch,
                            },
                        );
                    }
                    self.life_span(cluster, SpanClass::Restart, at, Some(server), None, None);
                }
            }
            NetEvent::Salvage {
                server,
                volume,
                gen,
                epoch,
            } => {
                let srv = self.servers.get_mut(server as usize);
                // A stale pass — superseded plan, or the server crashed
                // again before the salvager finished — is simply dropped;
                // the next restart schedules fresh passes.
                if gen == self.plan_gen && srv.is_online() && srv.epoch() == epoch {
                    let rejected = srv.salvage_volume(volume).map_or(0, |r| r.records_rejected);
                    if rejected > 0 {
                        // The salvager's trailer verification caught flipped
                        // journal bytes: those corruption events are now
                        // detected (the damaged suffix never replays).
                        srv.mark_corruptions_detected(
                            at,
                            CorruptionOutcome::RejectedAtSalvage,
                            |r| matches!(r, FlipRegion::Journal { .. }),
                        );
                    }
                    self.life_span(
                        cluster,
                        SpanClass::Salvage,
                        at,
                        Some(server),
                        None,
                        Some(volume.0),
                    );
                    if self.tracing && rejected > 0 {
                        self.cores.get_mut(cluster).obs.on_integrity(
                            server,
                            Some(volume.0),
                            at,
                            0,
                            rejected,
                        );
                    }
                }
            }
            NetEvent::BreakDeliver { to_ws, paths } => {
                self.life_span(
                    cluster,
                    SpanClass::BreakDeliver,
                    at,
                    None,
                    Some(to_ws.0),
                    None,
                );
                let cl = self.cores.get_mut(cluster);
                for path in paths {
                    cl.pending.push(PendingBreak { to_ws, path });
                }
            }
            NetEvent::Corrupt { server, gen } => {
                if gen == self.plan_gen {
                    let sid = server as usize;
                    // The flip lands somewhere in the server's durable
                    // address space (journal bytes, checkpoint file
                    // contents, Merkle leaf table). The draw is skipped
                    // entirely when there is nothing durable to damage, so
                    // an empty disk leaves the fault rng untouched.
                    let extent = self.servers.get(sid).durable_extent();
                    let flip = self
                        .cores
                        .get_mut(cluster)
                        .faults
                        .as_mut()
                        .and_then(|f| f.flip_bytes(extent));
                    if let Some((offset, mask)) = flip {
                        self.servers.get_mut(sid).apply_corruption(at, offset, mask);
                    }
                    self.life_span(cluster, SpanClass::Corrupt, at, Some(server), None, None);
                }
            }
            NetEvent::Scrub { server, gen } => {
                if gen == self.scrub_gen {
                    let interval = self
                        .scrub_interval
                        .expect("scrub event live while scrubbing disabled");
                    let sid = server as usize;
                    if self.servers.get(sid).is_online() {
                        if let Some(vid) = self.servers.get_mut(sid).next_scrub_volume() {
                            if let Some(scan) = self.servers.get_mut(sid).scrub_scan(vid) {
                                // Perfectly preemptible background work: the
                                // pass's disk time is charged to its own
                                // attribution ledger kind only — never to the
                                // disk resource or the clock — so foreground
                                // virtual timings are untouched.
                                let pass = self.kernel.costs().disk_transfer(scan.bytes);
                                if self.tracing {
                                    self.cores.get_mut(cluster).attr.add_scrub_disk(pass);
                                }
                                for finding in &scan.findings {
                                    self.repair_or_offline(at, server, vid, finding);
                                }
                                self.drain_integrity_anomalies(cluster, at, server);
                                if self.tracing {
                                    // Scrub-progress gauges: the pass's
                                    // cumulative counters, sampled at the
                                    // pass boundary.
                                    let st = self.servers.get(sid).scrub_stats();
                                    self.cores.get_mut(cluster).obs.on_scrub(
                                        server,
                                        at,
                                        st.files_scanned,
                                        st.bytes_scanned,
                                    );
                                }
                                self.life_span(
                                    cluster,
                                    SpanClass::Scrub,
                                    at,
                                    Some(server),
                                    None,
                                    Some(vid.0),
                                );
                            }
                        }
                    }
                    self.cores.get_mut(cluster).sched.schedule_class_untied(
                        at + interval,
                        EventClass::Scrub,
                        NetEvent::Scrub { server, gen },
                    );
                }
            }
            _ => unreachable!("call-chain event with no call in flight"),
        }
    }

    /// Resolves one scrub finding on volume `vid`: if a healthy read-only
    /// clone of the same mount vouches for the expected digest, the file is
    /// re-fetched from it and the checkpoint (and live volume, if it shares
    /// the damage) repaired in place; otherwise the volume goes offline
    /// with an integrity fault. In a parallel run only replicas inside this
    /// operation's cluster mask are visible, so determinism across run
    /// modes requires co-located replicas.
    fn repair_or_offline(
        &mut self,
        at: SimTime,
        server: u32,
        vid: crate::proto::VolumeId,
        finding: &ScrubFinding,
    ) {
        let sid = server as usize;
        let path = finding.path.clone();
        let voucher = finding.expected.and_then(|expected| {
            let mount = self
                .servers
                .get(sid)
                .volumes()
                .iter()
                .find(|v| v.id() == vid)
                .map(|v| v.mount().to_string())?;
            for s in 0..self.servers.len() {
                if !self.servers.has(s) {
                    continue;
                }
                for v in self.servers.get(s).volumes() {
                    if v.id() != vid && v.is_read_only() && v.is_online() && v.mount() == mount {
                        if let Ok(data) = v.fs().read(&path) {
                            if payload_digest(&data) == expected {
                                return Some(data);
                            }
                        }
                    }
                }
            }
            None
        });
        let srv = self.servers.get_mut(sid);
        let matches_file = |r: &FlipRegion| match r {
            FlipRegion::CheckpointFile { volume, path: p }
            | FlipRegion::MerkleLeaf { volume, path: p } => *volume == vid && p == &path,
            FlipRegion::Journal { .. } => false,
        };
        match voucher {
            Some(data) => {
                srv.repair_file(vid, &path, data);
                srv.mark_corruptions_detected(
                    at,
                    CorruptionOutcome::RepairedFromReplica,
                    matches_file,
                );
            }
            None => {
                srv.offline_volume_for_integrity(vid, &path);
                srv.mark_corruptions_detected(at, CorruptionOutcome::VolumeOfflined, matches_file);
            }
        }
    }

    /// Drains integrity events queued on `server` (volumes taken offline by
    /// scrub or fetch-time digest checks) and freezes an anomaly dump for
    /// each while tracing.
    fn drain_integrity_anomalies(&mut self, cluster: usize, at: SimTime, server: u32) {
        let events = self
            .servers
            .get_mut(server as usize)
            .drain_integrity_events();
        if !self.tracing {
            return;
        }
        let cl = self.cores.get_mut(cluster);
        for (vid, _path) in &events {
            cl.trace.freeze(
                AnomalyReason::IntegrityFault,
                at,
                Some(server),
                Some(vid.0),
                TraceId::NONE,
            );
        }
        // Integrity burn: each drained event is a volume the verifiers
        // took offline — losses the health engine must surface.
        if let Some((vid, _)) = events.first() {
            cl.obs
                .on_integrity(server, Some(vid.0), at, events.len() as u64, 0);
        }
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
            NetEvent::Crash { .. }
            | NetEvent::Restart { .. }
            | NetEvent::Salvage { .. }
            | NetEvent::Corrupt { .. }
            | NetEvent::Scrub { .. }
            | NetEvent::BreakDeliver { .. } => {
                self.system_event(from_cluster, at, ev);
            }

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
                    self.call_span(call.trace, call, SpanClass::CallAbort, done, None);
                    self.cores.get_mut(cc).trace.freeze(
                        AnomalyReason::Unreachable,
                        done,
                        Some(server.0),
                        call.volume,
                        call.trace,
                    );
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
                let sealed = self
                    .cores
                    .get_mut(cc)
                    .bindings
                    .get_mut(&(call.ws, server))
                    .expect("bound before the first attempt")
                    .client_seal(&call.framed);
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
                        let leg = self
                            .cores
                            .get_mut(sid)
                            .sched
                            .schedule(arrived, NetEvent::RequestArrive);
                        call.chain = Some((sid, leg));
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
                self.call_span(call.trace, call, SpanClass::TimeoutFire, at, None);
                if self.tracing {
                    // A genuine expiry (not a stood-down stale timer):
                    // count it against the unresponsive server and feed
                    // the retry-rate rule.
                    self.cores
                        .get_mut(cc)
                        .obs
                        .on_timeout(server.0, call.volume, at);
                }
                if call.attempt >= self.retry.max_attempts {
                    self.cores.get_mut(cc).call_stats.failures += 1;
                    self.clock.advance_to(at);
                    self.call_span(call.trace, call, SpanClass::CallAbort, at, None);
                    self.cores.get_mut(cc).trace.freeze(
                        AnomalyReason::TimedOut,
                        at,
                        Some(server.0),
                        call.volume,
                        call.trace,
                    );
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
                let (auth_user, opened) = {
                    let binding = self
                        .cores
                        .get_mut(cc)
                        .bindings
                        .get_mut(&(call.ws, server))
                        .expect("bound");
                    let opened = binding.server_open(&sealed).map_err(|e| e.to_string())?;
                    // Identity comes from the binding, never the request.
                    (binding.server_user().to_string(), opened)
                };
                let (token, wire_trace, body) = split_frame(&opened).expect("framed by call()");
                // The span names the trace id that actually rode the wire;
                // queue depth is observed before this request joins.
                let depth = self.servers.get(sid).queue_depth() as u32;
                self.call_span(
                    TraceId(wire_trace),
                    call,
                    SpanClass::RequestArrive,
                    at,
                    Some(depth),
                );
                call.parts.req_net = at - call.attempt_start;
                if self.tracing {
                    // Queue-depth gauge, sampled from the same observation
                    // the span just recorded.
                    self.cores
                        .get_mut(sid)
                        .obs
                        .on_queue_depth(server.0, at, u64::from(depth));
                }
                self.servers.get_mut(sid).enqueue_request(QueuedRequest {
                    user: auth_user,
                    from: call.ws,
                    token,
                    trace: TraceId(wire_trace),
                    body: body.to_vec(),
                    payload: call.req_payload.clone(),
                    arrived: at,
                });
                let leg = self
                    .cores
                    .get_mut(sid)
                    .sched
                    .schedule(at, NetEvent::ServiceDispatch);
                call.chain = Some((sid, leg));
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
                let costs = self.kernel.costs().clone();
                let mut cost = CallCost::default();
                let reply = {
                    let srv = self.servers.get_mut(sid);
                    match decode_request(&qr.body, qr.payload) {
                        Ok(decoded) => {
                            if let Some(cached) = decoded
                                .is_mutation()
                                .then(|| srv.replay_lookup(qr.from, qr.token))
                                .flatten()
                            {
                                // A retry of a mutation the server already
                                // applied: answer from the replay cache, do
                                // not re-apply.
                                cached.clone()
                            } else {
                                // Handlers see the attempt's start time, as
                                // the synchronous transport always showed
                                // them.
                                let (reply, c) = srv.handle(
                                    &qr.user,
                                    qr.from,
                                    &decoded,
                                    call.attempt_start,
                                    &costs,
                                );
                                cost = c;
                                if decoded.is_mutation() {
                                    srv.replay_record(qr.from, qr.token, reply.clone());
                                }
                                reply
                            }
                        }
                        Err(e) => ViceReply::Error(ViceError::BadRequest(e.to_string())),
                    }
                };
                // A fetch-time digest check may have taken a volume offline
                // mid-handle; surface its integrity anomaly now.
                self.drain_integrity_anomalies(sid, at, server.0);
                if self.tracing {
                    // Journal-lag gauge: the unsynced tail as it stands
                    // right before the write-ahead force below.
                    let lag = self.servers.get(sid).unsynced_journal_bytes();
                    self.cores
                        .get_mut(sid)
                        .obs
                        .on_journal_lag(server.0, at, lag);
                }
                // Write-ahead discipline: the journal is forced to disk
                // before the reply can leave (whatever its network fate),
                // so no acknowledged mutation can be lost to a torn tail.
                // The force rides the disk-bytes charge already in the
                // call's cost; it adds no time and no calendar events.
                self.servers.get_mut(sid).sync_journal();
                let msg = encode_reply(&reply);
                call.reply_wire = msg.wire_len() as u64 + 40;
                call.reply_payload = msg.payload;
                let sealed_reply = self
                    .cores
                    .get_mut(cc)
                    .bindings
                    .get_mut(&(call.ws, server))
                    .expect("bound")
                    .server_seal(&msg.head);
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
                        if self.tracing {
                            // Decompose the service leg from the same
                            // arithmetic `TimingKernel::service` is about to
                            // run: read-only availability snapshots taken
                            // before the charge, so attribution adds no
                            // perturbation and sums exactly.
                            let srv = self.servers.get(sid);
                            let cpu_free = srv.cpu().available_at();
                            let disk_free = srv.disk().available_at();
                            let demand = self.kernel.service_demand(&spec);
                            let cpu_start = at.max(cpu_free);
                            call.parts.queue_cpu = cpu_start - at;
                            call.parts.service_cpu = demand;
                            let cpu_done = cpu_start + demand;
                            if spec.disk_bytes > 0 {
                                let disk_start = cpu_done.max(disk_free);
                                call.parts.queue_disk = disk_start - cpu_done;
                                call.parts.service_disk = costs.disk_transfer(spec.disk_bytes);
                            } else {
                                call.parts.queue_disk = SimTime::ZERO;
                                call.parts.service_disk = SimTime::ZERO;
                            }
                        }
                        let served = {
                            let srv = self.servers.get(sid);
                            self.kernel.service(srv.cpu(), srv.disk(), at, &spec)
                        };
                        let leg = self
                            .cores
                            .get_mut(sid)
                            .sched
                            .schedule(served, NetEvent::ReplyDepart);
                        call.chain = Some((sid, leg));
                    }
                }
            }

            NetEvent::ReplyDepart => {
                self.call_span(call.trace, call, SpanClass::ReplyDepart, at, None);
                let completed = self.kernel.reply_leg(
                    self.net,
                    self.server_nodes[sid],
                    call.ws,
                    at,
                    call.reply_wire,
                );
                call.elapsed = completed - call.attempt_start;
                call.parts.reply_net = completed - at;
                if self.tracing {
                    // Saturation probe for the flight recorder (the paper's
                    // short-term peaks "sometimes peaking at 98%"): check
                    // the one-minute bucket the service just charged into,
                    // and the preceding (now complete) bucket — one long
                    // service interval can saturate whole minutes that no
                    // reply departs inside of. The recorder fires once per
                    // saturated (server, resource, minute).
                    let width = BUCKET_WIDTH.as_micros();
                    let this_bucket = at.as_micros() / width;
                    for tag in [0u8, 1u8] {
                        for bucket in this_bucket.saturating_sub(1)..=this_bucket {
                            let probe = SimTime::from_micros(bucket * width);
                            let util = {
                                let srv = self.servers.get(sid);
                                let res = if tag == 0 { srv.cpu() } else { srv.disk() };
                                res.bucket_utilization(probe)
                            };
                            let pct = ((util * 100.0) as u64).min(100) as u8;
                            // Utilization gauges feed the series and the
                            // sustained-utilization rule at every probe;
                            // the flight recorder only cares about peaks.
                            let cl = self.cores.get_mut(sid);
                            cl.obs.on_utilization(server.0, tag, bucket, pct, at);
                            if util >= 0.98 {
                                cl.trace.report_peak(server.0, tag, bucket, pct, at);
                            }
                        }
                    }
                    // Engine-churn gauge: the server cluster's calendar
                    // counters as of this event boundary.
                    let stats = self.cores.get(sid).sched.stats();
                    self.cores.get_mut(sid).obs.on_engine(this_bucket, &stats);
                }
                let leg = self
                    .cores
                    .get_mut(cc)
                    .sched
                    .schedule(completed + call.extra, NetEvent::ReplyArrive);
                call.chain = Some((cc, leg));
            }

            NetEvent::ReplyArrive => {
                // The retransmission timer lost the race: tombstone it
                // instead of letting it fire and be ignored.
                if let Some(tid) = call.timeout_id.take() {
                    self.cores.get_mut(cc).sched.cancel(tid);
                }
                let sealed = call.sealed_reply.take().expect("reply leg carries bytes");
                let (reply_clear, dup_ignored) = {
                    let binding = self
                        .cores
                        .get_mut(cc)
                        .bindings
                        .get_mut(&(call.ws, server))
                        .expect("bound");
                    let clear = binding.client_open(&sealed).map_err(|e| e.to_string())?;
                    // Second copy of the same sealed reply: the channel's
                    // sequence check discards it.
                    let dup = call.duplicate && binding.client_open(&sealed).is_err();
                    (clear, dup)
                };
                if dup_ignored {
                    self.cores.get_mut(cc).call_stats.duplicates_ignored += 1;
                }
                let reply = decode_reply(&reply_clear, call.reply_payload.take())
                    .map_err(|e| e.to_string())?;
                self.call_span(call.trace, call, SpanClass::ReplyArrive, at, None);
                if self.tracing {
                    let breakdown = CallBreakdown {
                        trace: call.trace,
                        kind: call.req.kind(),
                        server: server.0,
                        volume: call.volume,
                        client: call.ws.0,
                        attempts: call.attempt,
                        started: call.started,
                        finished: at,
                        retry_wasted: call.attempt_start - call.started,
                        req_net: call.parts.req_net,
                        queue_cpu: call.parts.queue_cpu,
                        service_cpu: call.parts.service_cpu,
                        queue_disk: call.parts.queue_disk,
                        service_disk: call.parts.service_disk,
                        reply_net: call.parts.reply_net,
                        fault_delay: call.extra,
                    };
                    let cl = self.cores.get_mut(cc);
                    // Latency/volume series plus tail-latency evaluation
                    // ride the same breakdown attribution records.
                    cl.obs.on_complete(&breakdown);
                    cl.attr.record(breakdown);
                    // Degraded-mode replies trip the flight recorder: the
                    // server answered, but could not serve normally.
                    let reason = match &reply {
                        ViceReply::Error(ViceError::VolumeOffline(_)) => {
                            Some(AnomalyReason::VolumeOffline)
                        }
                        ViceReply::Error(ViceError::BadRequest(_)) => Some(AnomalyReason::Degraded),
                        _ => None,
                    };
                    if let Some(reason) = reason {
                        cl.trace
                            .freeze(reason, at, Some(server.0), call.volume, call.trace);
                    }
                }

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

                // Callback breaks this call generated enter the calendars
                // of their *target* workstations' clusters; delivery is
                // applied by the system after the operation.
                let from_node = self.server_nodes[sid];
                let breaks = self.servers.get_mut(sid).drain_breaks();
                if self.servers.get(sid).break_batching() {
                    // One message per recipient workstation, carrying all
                    // of its invalidated paths; the wire cost is one base
                    // message plus a small per-extra-path increment.
                    let mut grouped: Vec<(NodeId, Vec<String>)> = Vec::new();
                    for (to_ws, brk) in breaks {
                        match grouped.iter_mut().find(|(ws, _)| *ws == to_ws) {
                            Some((_, paths)) => paths.push(brk.path),
                            None => grouped.push((to_ws, vec![brk.path])),
                        }
                    }
                    for (to_ws, paths) in grouped {
                        let bytes = 160 + 24 * (paths.len() as u64 - 1);
                        let arrival = self.kernel.one_way(self.net, from_node, to_ws, at, bytes);
                        let bc = self.net.cluster_of(to_ws).0 as usize;
                        let cl = self.cores.get_mut(bc);
                        let bid = cl
                            .sched
                            .schedule(arrival, NetEvent::BreakDeliver { to_ws, paths });
                        cl.break_ids.push(bid);
                    }
                } else {
                    for (to_ws, brk) in breaks {
                        let arrival = self.kernel.one_way(self.net, from_node, to_ws, at, 160);
                        let bc = self.net.cluster_of(to_ws).0 as usize;
                        let cl = self.cores.get_mut(bc);
                        let bid = cl.sched.schedule(
                            arrival,
                            NetEvent::BreakDeliver {
                                to_ws,
                                paths: vec![brk.path],
                            },
                        );
                        cl.break_ids.push(bid);
                    }
                }
                call.result = Some((reply, at));
            }
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
            // Even this pre-binding failure implicates the server: the
            // recorder freezes whatever recent spans touch it.
            self.life_span(
                cc,
                SpanClass::CallAbort,
                done,
                Some(server.0),
                Some(ws.0),
                None,
            );
            self.cores.get_mut(cc).trace.freeze(
                AnomalyReason::Unreachable,
                done,
                Some(server.0),
                None,
                TraceId::NONE,
            );
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
        let volume = if self.tracing {
            self.servers
                .get(sid)
                .volume_covering(req.path())
                .map(|v| v.0)
        } else {
            None
        };

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
                .pop_next()
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
