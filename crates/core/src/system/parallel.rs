//! The workstation op surface ([`WsOps`]) and the one scheduler of
//! workstation ops ([`ItcSystem::run_drivers`]): the sequential reference
//! schedule, and conservative parallel execution over the per-cluster
//! calendars.
//!
//! ## One door
//!
//! Every workstation operation — an [`ItcSystem`] facade call, a scripted
//! storm op, a day session's step — executes as a method of [`WsOps`], a
//! view over the clusters in a mask. The facade and sequential runs build
//! it over the whole system; a parallel worker builds it over exactly the
//! shards its op claimed. There is no second implementation to keep in
//! step.
//!
//! ## The model: op-atomic conservative PDES
//!
//! A workstation operation (one [`WsDriver::step`]) is the unit of
//! parallelism. Each op pumps its event chains to completion synchronously
//! — there is no preemption inside an op — so parallelism comes entirely
//! from running ops with **disjoint cluster masks** on different threads.
//! Bridge latency gives the lookahead: an op whose declared mask stays
//! inside its own cluster can never affect another cluster's calendar, so
//! ops on other clusters need not wait for it.
//!
//! ## The admission rule
//!
//! Every driver declares, statically:
//!
//! * `scope` — every cluster any of its ops may ever touch, and
//! * per op, a `mask ⊆ scope` — every cluster **this** op may touch.
//!
//! Ops are keyed `(due time, workstation id)` — unique, and monotone per
//! driver. A pending op `w` is admitted iff
//!
//! 1. `mask(w)` is disjoint from every executing op's mask, and
//! 2. for every other live driver `u` whose current key precedes `w`'s:
//!    `scope(u) ∩ mask(w) = ∅`.
//!
//! Rule 1 makes concurrent execution race-free (disjoint calendars, rng
//! streams, servers, caches). Rule 2 preserves the sequential order: any
//! op that could ever conflict with `w` and precedes it in key order runs
//! first — including ops the earlier driver has not generated yet, which
//! is why the *static* scope is consulted, not the pending mask. The
//! globally minimal key is always admissible once earlier-keyed executing
//! ops drain, so the schedule is deadlock-free; and because conflicting
//! ops execute in key order while disjoint ops commute (their state is
//! disjoint by construction, and the shared [`Clock`] only takes
//! `fetch_max` writes), a parallel run is **bit-identical** to the
//! sequential reference.
//!
//! Masks are *promises*, enforced at runtime: executing an op against a
//! cluster outside its mask panics (the `Parts` tripwire) instead of
//! corrupting the run.
//!
//! [`Clock`]: itc_sim::Clock

use crate::proto::ServerId;
use crate::server::Server;
use crate::system::transport::{ClusterCore, NetEvent, Parts, PendingBreak, SystemTransport};
use crate::system::{ItcSystem, SystemError, WsId};
use crate::venus::{Venus, VenusError};
use itc_rpc::NodeId;
use itc_sim::SimTime;
use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};

/// A set of clusters, as a bitmask (the engine supports up to 64
/// clusters — far beyond the paper's "dozen or so").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterMask(pub u64);

impl ClusterMask {
    /// The empty mask.
    pub const EMPTY: ClusterMask = ClusterMask(0);

    /// A mask of one cluster.
    pub fn of(cluster: usize) -> ClusterMask {
        ClusterMask(1 << cluster)
    }

    /// A mask of every cluster in `0..n`.
    pub fn all(n: usize) -> ClusterMask {
        if n >= 64 {
            ClusterMask(u64::MAX)
        } else {
            ClusterMask((1u64 << n) - 1)
        }
    }

    /// Adds a cluster.
    pub fn insert(&mut self, cluster: usize) {
        self.0 |= 1 << cluster;
    }

    /// Whether `cluster` is in the mask.
    pub fn contains(self, cluster: usize) -> bool {
        self.0 & (1 << cluster) != 0
    }

    /// Whether the two masks share any cluster.
    pub fn intersects(self, other: ClusterMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Union.
    pub fn union(self, other: ClusterMask) -> ClusterMask {
        ClusterMask(self.0 | other.0)
    }
}

/// How to execute a driver set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// One op at a time in global `(time, workstation)` key order — the
    /// reference schedule.
    Sequential,
    /// Conservative parallel execution on this many worker threads.
    /// Bit-identical to [`RunMode::Sequential`] by construction.
    Parallel(usize),
}

/// A workstation workload the engine can schedule: a sequence of timed
/// operations with declared cluster footprints.
pub trait WsDriver: Send {
    /// Every cluster any op of this driver may ever touch. Static for the
    /// whole run.
    fn scope(&self) -> ClusterMask;

    /// Due time of the next op, or `None` when the driver is finished.
    /// Must be non-decreasing across steps.
    fn next_at(&self) -> Option<SimTime>;

    /// Clusters the next op may touch. Must be a subset of
    /// [`WsDriver::scope`]; enforced by the mask tripwire at execution.
    fn next_mask(&self) -> ClusterMask;

    /// Executes the next op against the masked system view.
    fn step(&mut self, ops: &mut WsOps<'_>) -> Result<(), SystemError>;
}

/// The Venus instances an op may reach — the workstation-side twin of
/// [`Parts`], with the same tripwire.
enum Venuses<'a> {
    /// Every workstation, indexed by workstation id (sequential execution).
    Whole(&'a mut [Venus]),
    /// Per-cluster slices of `per` workstations each, absent outside the
    /// op's mask (parallel execution).
    Split {
        per: usize,
        clusters: Vec<Option<&'a mut [Venus]>>,
    },
}

impl Venuses<'_> {
    fn get_mut(&mut self, ws: WsId) -> &mut Venus {
        match self {
            Venuses::Whole(all) => &mut all[ws],
            Venuses::Split { per, clusters } => {
                let cluster = ws / *per;
                let slice = clusters[cluster].as_deref_mut().unwrap_or_else(|| {
                    panic!("op touched cluster {cluster} outside its declared mask")
                });
                &mut slice[ws % *per]
            }
        }
    }
}

/// The workstation operation surface (see "One door" in the module docs):
/// the transport and the Venus instances of the clusters in its mask.
/// Touching anything outside the mask panics.
pub struct WsOps<'a> {
    pub(super) transport: SystemTransport<'a>,
    venuses: Venuses<'a>,
    node_to_ws: &'a BTreeMap<NodeId, WsId>,
    ws_nodes: &'a [NodeId],
}

impl WsOps<'_> {
    /// Runs one workstation operation: flushes due deferred writes,
    /// applies `f` with the event-driven transport, advances the global
    /// clock, and delivers any callback breaks the exchange scheduled.
    pub(crate) fn with_venus<R>(
        &mut self,
        ws: WsId,
        f: impl FnOnce(&mut Venus, &mut SystemTransport<'_>) -> Result<R, VenusError>,
    ) -> Result<R, SystemError> {
        let venus = self.venuses.get_mut(ws);
        // Deferred writes whose deadline has passed flush before the
        // next operation proceeds.
        let result = venus
            .flush_due(&mut self.transport)
            .and_then(|_| f(venus, &mut self.transport));
        let now = venus.now();
        self.transport.clock.advance_to(now);
        self.deliver_pending_breaks();
        result.map_err(SystemError::Venus)
    }

    /// Applies every callback break the last exchange produced — both
    /// those popped from the calendar mid-pump and those still queued —
    /// to the target workstations' caches. Delivery is functional and
    /// immediate: the network cost was charged when the break was
    /// scheduled, but a lagging workstation's clock is not dragged
    /// forward. A break escaping the op's mask trips the panic (it would
    /// have been a cross-thread race).
    pub(super) fn deliver_pending_breaks(&mut self) {
        for cluster in 0..self.transport.cores.len() {
            if !self.transport.cores.has(cluster) {
                continue;
            }
            let cl = self.transport.cores.get_mut(cluster);
            let mut breaks = std::mem::take(&mut cl.pending);
            // Claim the still-queued BreakDeliver events by recorded id
            // (O(1) tombstone each, counted as cancellations — they are
            // being rerouted out of the calendar, not executed there).
            // Ids that already fired mid-pump return `None` and were
            // captured in `pending` above; sorting the claimed batch by
            // (time, id) reproduces the order the calendar would have
            // popped them in.
            let mut claimed = Vec::new();
            for id in std::mem::take(&mut cl.break_ids) {
                if let Some(f) = cl.sched.take(id) {
                    claimed.push((f.at, f.id, f.ev));
                }
            }
            claimed.sort_by_key(|&(at, id, _)| (at, id));
            for (_, _, ev) in claimed {
                if let NetEvent::BreakDeliver { to_ws, paths } = ev {
                    for path in paths {
                        breaks.push(PendingBreak { to_ws, path });
                    }
                }
            }
            for b in breaks {
                if let Some(&ws) = self.node_to_ws.get(&b.to_ws) {
                    self.venuses.get_mut(ws).on_callback_break(&b.path);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // The workstation system-call surface
    // ------------------------------------------------------------------

    /// Logs `user` in at workstation `ws`: derives the key from the
    /// password exactly as the real Venus would and verifies it against
    /// Vice by establishing the first authenticated binding to the home
    /// server. A wrong password fails here, during the mutual handshake.
    /// Touches only the workstation's own cluster.
    pub fn login(&mut self, ws: WsId, user: &str, password: &str) -> Result<(), SystemError> {
        let key = itc_cryptbox::derive_key(password, user);
        let node = self.ws_nodes[ws];
        let home = self.transport.home[&node];
        let venus = self.venuses.get_mut(ws);
        venus.set_session(user, key);
        match self
            .transport
            .ensure_binding(node, user, key, home, venus.now())
        {
            Ok(ready) => {
                venus.advance_to(ready);
                self.transport.clock.advance_to(ready);
                Ok(())
            }
            Err(e) => {
                venus.clear_session();
                Err(SystemError::AuthFailed(e))
            }
        }
    }

    /// Advances a workstation's local time (think time).
    pub fn advance_ws(&mut self, ws: WsId, to: SimTime) {
        self.venuses.get_mut(ws).advance_to(to);
        self.transport.clock.advance_to(to);
    }

    /// A workstation's local virtual time.
    pub fn ws_time(&mut self, ws: WsId) -> SimTime {
        self.venuses.get_mut(ws).now()
    }

    /// Whole-file read.
    pub fn fetch(&mut self, ws: WsId, path: &str) -> Result<Vec<u8>, SystemError> {
        self.with_venus(ws, |v, t| v.fetch_file(t, path))
    }

    /// Whole-file write.
    pub fn store(&mut self, ws: WsId, path: &str, data: Vec<u8>) -> Result<(), SystemError> {
        self.with_venus(ws, |v, t| v.store_file(t, path, data))
    }

    /// `stat(2)`.
    pub fn stat(&mut self, ws: WsId, path: &str) -> Result<crate::proto::VStatus, SystemError> {
        self.with_venus(ws, |v, t| v.stat(t, path))
    }

    /// Directory listing.
    pub fn readdir(
        &mut self,
        ws: WsId,
        path: &str,
    ) -> Result<Vec<(String, crate::proto::EntryKind)>, SystemError> {
        self.with_venus(ws, |v, t| v.readdir(t, path))
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        self.with_venus(ws, |v, t| v.mkdir(t, path))
    }

    /// Removes a file or symlink.
    pub fn unlink(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        self.with_venus(ws, |v, t| v.unlink(t, path))
    }

    /// Opens a file for reading.
    pub fn open_read(&mut self, ws: WsId, path: &str) -> Result<u64, SystemError> {
        self.with_venus(ws, |v, t| v.open_read(t, path))
    }

    /// Opens (creating) a file for writing.
    pub fn open_write(&mut self, ws: WsId, path: &str) -> Result<u64, SystemError> {
        self.with_venus(ws, |v, t| v.open_write(t, path))
    }

    /// Reads through a handle (no server traffic).
    pub fn read(&mut self, ws: WsId, handle: u64) -> Result<Vec<u8>, SystemError> {
        self.venuses
            .get_mut(ws)
            .read(handle)
            .map(<[u8]>::to_vec)
            .map_err(SystemError::Venus)
    }

    /// Writes through a handle (no server traffic until close).
    pub fn write(&mut self, ws: WsId, handle: u64, data: Vec<u8>) -> Result<(), SystemError> {
        self.venuses
            .get_mut(ws)
            .write(handle, data)
            .map_err(SystemError::Venus)
    }

    /// Closes a handle, storing back to Vice if it was modified.
    pub fn close(&mut self, ws: WsId, handle: u64) -> Result<(), SystemError> {
        self.with_venus(ws, |v, t| v.close(t, handle))
    }

    /// Flushes all deferred writes at a workstation immediately.
    pub fn flush_all(&mut self, ws: WsId) -> Result<usize, SystemError> {
        self.with_venus(ws, |v, t| v.flush_all(t))
    }

    /// Dirty (unflushed) files at a workstation.
    pub fn dirty_count(&mut self, ws: WsId) -> usize {
        self.venuses.get_mut(ws).dirty_count()
    }

    /// The jittered backoff workstation `ws` should wait before its next
    /// probe of `server`: zero while the server is healthy, exponential
    /// with seeded per-workstation jitter while it keeps failing. Scenario
    /// drivers consult this between revalidation probes so a whole
    /// cluster's clients do not re-arrive as one thundering herd.
    pub fn reconnect_backoff(&mut self, ws: WsId, server: ServerId) -> SimTime {
        self.venuses.get_mut(ws).reconnect_backoff(server)
    }
}

/// One driver's scheduling state.
enum SlotState {
    /// Has a next op due at this time.
    Pending(SimTime),
    /// Its op with this key is currently running on some worker.
    Executing(SimTime),
    /// No more ops.
    Done,
}

struct DriverSlot {
    ws: WsId,
    /// Present while the driver sits in the pool; taken by the worker
    /// executing its op.
    driver: Option<Box<dyn WsDriver>>,
    state: SlotState,
    /// Mask of the pending op (meaningless in other states).
    mask: ClusterMask,
    /// Static scope of the whole driver.
    scope: ClusterMask,
}

/// One cluster's share of the mutable world: the piece an op claims for
/// each cluster in its mask.
struct Shard {
    server: Server,
    core: ClusterCore,
    venuses: Vec<Venus>,
}

/// Everything the workers share under one lock: the per-cluster shards
/// (present while unclaimed) and the scheduling state.
struct Pool {
    shards: Vec<Option<Shard>>,
    slots: Vec<DriverSlot>,
    executing_union: ClusterMask,
    ops: u64,
    error: Option<SystemError>,
    /// The payload of a worker's mid-op panic (its shards are gone for
    /// good); the other workers drain out instead of waiting on the
    /// condvar forever, and the caller's thread resumes the panic.
    poisoned: Option<Box<dyn std::any::Any + Send>>,
}

impl Pool {
    /// The index of an admissible pending slot, preferring the smallest
    /// key (so the schedule stays close to the sequential order and the
    /// minimal-key op is dispatched the moment it qualifies).
    fn pick(&self) -> Option<usize> {
        let mut order: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.driver.is_some() && matches!(s.state, SlotState::Pending(_)))
            .map(|(i, _)| i)
            .collect();
        order.sort_by_key(|&i| self.key(i));
        'candidates: for &i in &order {
            let w = &self.slots[i];
            // Rule 1: disjoint from everything currently executing.
            if w.mask.intersects(self.executing_union) {
                continue;
            }
            // Rule 2: no earlier-keyed live driver whose scope could still
            // produce a conflicting op.
            let key_w = self.key(i);
            for (j, u) in self.slots.iter().enumerate() {
                if j == i || matches!(u.state, SlotState::Done) {
                    continue;
                }
                if self.key(j) < key_w && u.scope.intersects(w.mask) {
                    continue 'candidates;
                }
            }
            return Some(i);
        }
        None
    }

    /// The op key of a live slot: `(due time, workstation id)` — unique,
    /// because a workstation runs one op at a time.
    fn key(&self, i: usize) -> (SimTime, WsId) {
        let s = &self.slots[i];
        let at = match s.state {
            SlotState::Pending(at) | SlotState::Executing(at) => at,
            SlotState::Done => unreachable!("done slots are filtered before keying"),
        };
        (at, s.ws)
    }

    fn live(&self) -> bool {
        self.slots
            .iter()
            .any(|s| !matches!(s.state, SlotState::Done))
    }
}

impl ItcSystem {
    /// Runs a set of workstation drivers to completion, sequentially or in
    /// parallel. The parallel schedule is bit-identical to the sequential
    /// one (see the module docs for why). Returns the number of ops
    /// executed.
    ///
    /// Parallel runs require traffic monitoring to be off (the monitor is
    /// a single shared structure with no per-cluster decomposition).
    pub fn run_drivers(
        &mut self,
        drivers: Vec<(WsId, Box<dyn WsDriver>)>,
        mode: RunMode,
    ) -> Result<u64, SystemError> {
        match mode {
            RunMode::Sequential => self.run_drivers_sequential(drivers),
            RunMode::Parallel(threads) => self.run_drivers_parallel(drivers, threads.max(1)),
        }
    }

    /// The whole-mask view: every cluster, server and Venus behind one
    /// [`WsOps`], for the facade's methods and sequential driver runs.
    pub(super) fn whole(&mut self) -> WsOps<'_> {
        let ItcSystem {
            topo,
            clients,
            clock,
            kernel,
            domain,
            monitor,
            core,
            ..
        } = self;
        // The flag is identical across clusters; copied out so the
        // transport never needs cluster 0 just to branch on it.
        let tracing = core.clusters[0].trace.is_enabled();
        WsOps {
            transport: SystemTransport {
                servers: Parts::Whole(&mut topo.servers),
                cores: Parts::Whole(&mut core.clusters),
                net: &topo.network,
                home: &topo.home,
                server_nodes: &topo.server_nodes,
                kernel,
                clock,
                monitor: monitor.as_mut(),
                domain,
                retry: core.retry,
                plan_gen: core.plan_gen,
                scrub_interval: core.scrub_interval,
                scrub_gen: core.scrub_gen,
                tracing,
            },
            venuses: Venuses::Whole(clients),
            node_to_ws: &topo.node_to_ws,
            ws_nodes: &topo.ws_nodes,
        }
    }

    fn run_drivers_sequential(
        &mut self,
        mut drivers: Vec<(WsId, Box<dyn WsDriver>)>,
    ) -> Result<u64, SystemError> {
        let mut ws_ops = self.whole();
        let mut ops = 0u64;
        // The reference schedule: globally minimal (due, ws) key each turn.
        while let Some(i) = drivers
            .iter()
            .enumerate()
            .filter_map(|(i, (ws, d))| d.next_at().map(|at| (at, *ws, i)))
            .min()
            .map(|(_, _, i)| i)
        {
            drivers[i].1.step(&mut ws_ops)?;
            ops += 1;
        }
        Ok(ops)
    }

    fn run_drivers_parallel(
        &mut self,
        drivers: Vec<(WsId, Box<dyn WsDriver>)>,
        threads: usize,
    ) -> Result<u64, SystemError> {
        assert!(
            self.monitor.is_none(),
            "parallel runs do not support traffic monitoring"
        );
        let n_clusters = self.core.clusters.len();
        assert!(n_clusters <= 64, "ClusterMask supports at most 64 clusters");
        let per = self.config.workstations_per_cluster as usize;
        let tracing = self.core.clusters[0].trace.is_enabled();

        // Shard the mutable world: each cluster's server, event core, and
        // Venus instances become one independently claimable piece.
        let mut clients = std::mem::take(&mut self.clients);
        let shards = std::mem::take(&mut self.topo.servers)
            .into_iter()
            .zip(std::mem::take(&mut self.core.clusters))
            .map(|(server, core)| {
                let rest = clients.split_off(per.min(clients.len()));
                let venuses = std::mem::replace(&mut clients, rest);
                Some(Shard {
                    server,
                    core,
                    venuses,
                })
            })
            .collect();
        debug_assert!(clients.is_empty());

        let slots: Vec<DriverSlot> = drivers
            .into_iter()
            .map(|(ws, d)| {
                let (state, mask) = match d.next_at() {
                    Some(at) => (SlotState::Pending(at), d.next_mask()),
                    None => (SlotState::Done, ClusterMask::EMPTY),
                };
                DriverSlot {
                    ws,
                    scope: d.scope(),
                    driver: Some(d),
                    state,
                    mask,
                }
            })
            .collect();

        let pool = Mutex::new(Pool {
            shards,
            slots,
            executing_union: ClusterMask::EMPTY,
            ops: 0,
            error: None,
            poisoned: None,
        });
        let work = Condvar::new();

        // Shared read-only context for the workers.
        let net = &self.topo.network;
        let home = &self.topo.home;
        let server_nodes = &self.topo.server_nodes[..];
        let node_to_ws = &self.topo.node_to_ws;
        let ws_nodes = &self.topo.ws_nodes[..];
        let kernel = &self.kernel;
        let clock = &*self.clock;
        let domain = &*self.domain;
        let retry = self.core.retry;
        let plan_gen = self.core.plan_gen;
        let scrub_interval = self.core.scrub_interval;
        let scrub_gen = self.core.scrub_gen;

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let mut guard = pool.lock().expect("pool lock");
                    loop {
                        if guard.error.is_some() || guard.poisoned.is_some() || !guard.live() {
                            work.notify_all();
                            return;
                        }
                        let Some(i) = guard.pick() else {
                            guard = work.wait(guard).expect("pool lock");
                            continue;
                        };

                        // Claim the op: its driver and its mask's shards.
                        let mask = guard.slots[i].mask;
                        let at = match guard.slots[i].state {
                            SlotState::Pending(at) => at,
                            _ => unreachable!("picked slot is pending"),
                        };
                        let mut driver = guard.slots[i].driver.take().expect("picked slot pooled");
                        guard.slots[i].state = SlotState::Executing(at);
                        guard.executing_union = guard.executing_union.union(mask);
                        let mut mine: Vec<Option<Shard>> = guard
                            .shards
                            .iter_mut()
                            .enumerate()
                            .map(|(c, s)| {
                                mask.contains(c)
                                    .then(|| s.take().expect("mask disjointness"))
                            })
                            .collect();
                        drop(guard);

                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            let (servers, (cores, clusters)): (Vec<_>, (Vec<_>, Vec<_>)) = mine
                                .iter_mut()
                                .map(|shard| match shard {
                                    Some(sh) => (
                                        Some(&mut sh.server),
                                        (Some(&mut sh.core), Some(&mut sh.venuses[..])),
                                    ),
                                    None => (None, (None, None)),
                                })
                                .unzip();
                            let mut ws_ops = WsOps {
                                transport: SystemTransport {
                                    servers: Parts::Split(servers),
                                    cores: Parts::Split(cores),
                                    net,
                                    home,
                                    server_nodes,
                                    kernel,
                                    clock,
                                    monitor: None,
                                    domain,
                                    retry,
                                    plan_gen,
                                    scrub_interval,
                                    scrub_gen,
                                    tracing,
                                },
                                venuses: Venuses::Split { per, clusters },
                                node_to_ws,
                                ws_nodes,
                            };
                            driver.step(&mut ws_ops)
                        }));
                        let result = match result {
                            Ok(r) => r,
                            Err(payload) => {
                                // A panicking op (most likely the mask
                                // tripwire) leaves its shards unusable;
                                // wake everyone so they drain out, and
                                // keep the payload for the caller.
                                let mut guard = pool.lock().expect("pool lock");
                                guard.poisoned.get_or_insert(payload);
                                work.notify_all();
                                return;
                            }
                        };
                        // The driver's next key/mask, computed while the
                        // worker still owns it exclusively.
                        let next = driver.next_at().map(|at| (at, driver.next_mask()));

                        guard = pool.lock().expect("pool lock");
                        for (slot, shard) in guard.shards.iter_mut().zip(mine) {
                            if shard.is_some() {
                                *slot = shard;
                            }
                        }
                        guard.executing_union = ClusterMask(guard.executing_union.0 & !mask.0);
                        guard.slots[i].driver = Some(driver);
                        match (result, next) {
                            (Err(e), _) => {
                                guard.slots[i].state = SlotState::Done;
                                guard.error.get_or_insert(e);
                            }
                            (Ok(()), Some((at, mask))) => {
                                guard.slots[i].state = SlotState::Pending(at);
                                guard.slots[i].mask = mask;
                                guard.ops += 1;
                            }
                            (Ok(()), None) => {
                                guard.slots[i].state = SlotState::Done;
                                guard.ops += 1;
                            }
                        }
                        work.notify_all();
                    }
                });
            }
        });

        let pool = pool.into_inner().expect("workers exited");
        if let Some(payload) = pool.poisoned {
            std::panic::resume_unwind(payload);
        }
        // Reassemble the system from the shards.
        for shard in pool.shards {
            let shard = shard.expect("worker returned its shard");
            self.topo.servers.push(shard.server);
            self.core.clusters.push(shard.core);
            self.clients.extend(shard.venuses);
        }
        match pool.error {
            Some(e) => Err(e),
            None => Ok(pool.ops),
        }
    }
}
