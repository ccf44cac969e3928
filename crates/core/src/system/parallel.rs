//! The workstation op surface ([`WsOps`]) and the one scheduler of
//! workstation ops ([`ItcSystem::run_drivers`]): the sequential reference
//! schedule, and conservative parallel execution over the per-cluster
//! calendars — one scheduling loop (`drain`) and one admission test
//! (`Pool::pick`) between them.
//!
//! ## One door
//!
//! Every workstation operation — a test's or experiment's
//! `sys.ops().fetch(..)`, a scripted storm op, a day session's step — is
//! a method of [`WsOps`], a view over the clusters in a mask, and is
//! defined nowhere else. [`ItcSystem::ops`] and sequential runs build the
//! view over the whole system; a parallel worker builds it over exactly
//! the shards its batch claimed. Either way the view holds shards — each
//! cluster's server, event core (its calendar, pending breaks and traffic
//! counts among the rest) and Venus slice, all as `Parts` — plus one `&`
//! to the campus (`topology.rs`), the read-only rest of the run. So a
//! parallel run does everything a sequential one does, monitoring too.
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
//! disjoint by construction — the system's time is computed from the
//! Venus clocks, not kept — and what they share, the campus, is read-only
//! during a run),
//! a parallel run is **bit-identical** to the sequential reference. The
//! pool below is the one thing the workers share mutably.
//!
//! Masks are *promises*, enforced at runtime: executing an op against a
//! cluster outside its mask panics (the `Parts` tripwire) instead of
//! corrupting the run.
//!
//! ## Batches and the horizon
//!
//! Admission is asked once per *batch*, not once per op. A worker picks
//! the minimal-key admissible op `w`, takes the shards of `M = mask(w)`,
//! and takes with them every pooled driver **confined** to `M` (`scope ≠
//! ∅`, `scope ⊆ M`) — nobody else can run those while `M` is held. Under
//! the same lock it reads the **horizon**: the smallest key of any live
//! driver outside the batch whose scope intersects `M`. Then, unlocked, it
//! drains the batch in key order while the next key is below the horizon
//! and the next op declares exactly `M` (so every op still runs against
//! precisely the shards it declared). A picked driver that is not confined
//! runs its one op and leaves; its next key lowers the horizon. Why the
//! schedule cannot change:
//!
//! * keys are monotone per driver, so the horizon is a lower bound on every
//!   future key of every driver that could ever conflict on `M` — each
//!   batched op satisfies rule 2 without re-asking;
//! * rule 1 holds because `M` is held throughout;
//! * batch-local order is key order, which is the sequential order;
//! * the stale keys batch-held drivers leave in the pool are lower bounds,
//!   so they can only make other workers wait — and a confined driver's
//!   only on clusters rule 1 already denies them.
//!
//! When every scope is one cluster the horizon is unbounded and a run is
//! exactly `clusters` claims: each worker simulates a whole cluster with
//! no synchronisation, which is the paper's locality argument (§2.2).

use crate::protect::AccessList;
use crate::proto::{EntryKind, ServerId, VStatus, ViceError};
use crate::server::Server;
use crate::system::transport::{ClusterCore, Parts, SystemTransport};
use crate::system::{ItcSystem, SystemError, WsId};
use crate::venus::{Venus, VenusError, ViceTransport};
use itc_sim::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::{Condvar, Mutex};

/// A set of clusters, as a bitmask (the engine supports up to 64
/// clusters — far beyond the paper's "dozen or so").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterMask(pub u64);

impl ClusterMask {
    /// The empty mask.
    pub const EMPTY: ClusterMask = ClusterMask(0);

    /// A mask of one cluster. Panics beyond the 64-cluster limit.
    pub fn of(cluster: usize) -> ClusterMask {
        assert!(
            cluster < 64,
            "cluster {cluster} is beyond ClusterMask's 64-cluster limit"
        );
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

    /// Adds a cluster. Panics beyond the 64-cluster limit.
    pub fn insert(&mut self, cluster: usize) {
        self.0 |= ClusterMask::of(cluster).0;
    }

    /// Whether `cluster` is in the mask (never, beyond the 64-cluster
    /// limit).
    pub fn contains(self, cluster: usize) -> bool {
        cluster < 64 && self.0 & (1 << cluster) != 0
    }

    /// Whether the two masks share any cluster.
    pub fn intersects(self, other: ClusterMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Union.
    pub fn union(self, other: ClusterMask) -> ClusterMask {
        ClusterMask(self.0 | other.0)
    }

    /// The member clusters, ascending.
    fn clusters(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let c = bits.trailing_zeros() as usize;
            bits &= bits.wrapping_sub(1);
            (c < 64).then_some(c)
        })
    }

    /// Whether a driver of this scope is *confined* to `held`: it can run
    /// nowhere else, so whoever holds `held` may run it for as long as they
    /// hold it. An empty scope is confined to nothing — it conflicts with
    /// nobody, so no claim needs to own it.
    fn confined_to(self, held: ClusterMask) -> bool {
        self != ClusterMask::EMPTY && self.0 & !held.0 == 0
    }
}

/// How to execute a driver set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// One op at a time in global `(time, workstation)` key order — the
    /// reference schedule.
    Sequential,
    /// Conservative parallel execution on up to this many threads, the
    /// caller's included (never more than there are clusters).
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

/// The workstation operation surface (see "One door" in the module docs):
/// the transport and the Venus slices of the clusters in its mask.
/// Touching anything outside the mask panics.
pub struct WsOps<'a> {
    pub(super) transport: SystemTransport<'a>,
    venuses: Parts<'a, Vec<Venus>>,
}

impl<'a> WsOps<'a> {
    /// Workstation `ws`'s Venus, and the transport beside it.
    fn venus(&mut self, ws: WsId) -> (&mut Venus, &mut SystemTransport<'a>) {
        let (cluster, i) = self.transport.campus.venus_slot(ws);
        (&mut self.venuses.get_mut(cluster)[i], &mut self.transport)
    }

    /// Runs one workstation operation: flushes due deferred writes,
    /// applies `f` with the event-driven transport, and delivers any
    /// callback breaks the exchange scheduled.
    pub(crate) fn with_venus<R>(
        &mut self,
        ws: WsId,
        f: impl FnOnce(&mut Venus, &mut SystemTransport<'_>) -> Result<R, VenusError>,
    ) -> Result<R, SystemError> {
        let (venus, transport) = self.venus(ws);
        // Deferred writes whose deadline has passed flush before the
        // next operation proceeds.
        let result = venus.flush_due(transport).and_then(|_| f(venus, transport));
        self.deliver_pending_breaks();
        result.map_err(SystemError::Venus)
    }

    /// Applies every callback break bound for a cluster in view to its
    /// target's cache, in send order (invalidations commute, so any order
    /// gives the same caches), cancelling its `BreakDeliver` event — which
    /// counts as cancelled only if it has not fired. Delivery is immediate:
    /// the network cost was charged when the break was scheduled, but a
    /// lagging workstation's clock is not dragged forward.
    pub(super) fn deliver_pending_breaks(&mut self) {
        let campus = self.transport.campus;
        for cluster in 0..self.transport.cores.len() {
            if !self.transport.cores.has(cluster) {
                continue;
            }
            let ClusterCore { sched, breaks, .. } = self.transport.cores.get_mut(cluster);
            for (id, to_ws, paths) in breaks.drain(..) {
                sched.cancel(id);
                if let Some(ws) = campus.net.ws_of(to_ws) {
                    let (c, i) = campus.venus_slot(ws);
                    let venus = &mut self.venuses.get_mut(c)[i];
                    for path in &paths {
                        venus.on_callback_break(path);
                    }
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
    /// The workstation's bindings are per-user connections, so any left
    /// by an earlier session are dropped first, as logout drops them:
    /// the new user must bind under their own key. Touches only the
    /// workstation's own cluster.
    pub fn login(&mut self, ws: WsId, user: &str, password: &str) -> Result<(), SystemError> {
        let key = itc_cryptbox::derive_key(password, user);
        let node = self.transport.campus.net.ws_node(ws);
        let home = self.transport.home_server(node);
        self.drop_bindings(ws);
        let (venus, transport) = self.venus(ws);
        venus.set_session(user, key);
        match transport.ensure_binding(node, user, key, home, venus.now()) {
            Ok(ready) => {
                venus.advance_to(ready);
                Ok(())
            }
            Err(e) => {
                venus.clear_session();
                Err(SystemError::AuthFailed(e))
            }
        }
    }

    /// Drops a workstation's bindings — per-user connections, which live
    /// on the workstation's own cluster — by their key range, not a scan
    /// of the cluster's bindings.
    pub(crate) fn drop_bindings(&mut self, ws: WsId) {
        let node = self.transport.campus.net.ws_node(ws);
        let cc = self.transport.campus.net.cluster_of(node).0 as usize;
        let bindings = &mut self.transport.cores.get_mut(cc).bindings;
        let of_node = (node, ServerId(0))..=(node, ServerId(u32::MAX));
        while let Some(&key) = bindings.range(of_node.clone()).next().map(|(k, _)| k) {
            bindings.remove(&key);
        }
    }

    /// Advances a workstation's local time (think time).
    pub fn advance_ws(&mut self, ws: WsId, to: SimTime) {
        self.venus(ws).0.advance_to(to);
    }

    /// A workstation's local virtual time.
    pub fn ws_time(&mut self, ws: WsId) -> SimTime {
        self.venus(ws).0.now()
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
    pub fn stat(&mut self, ws: WsId, path: &str) -> Result<VStatus, SystemError> {
        self.with_venus(ws, |v, t| v.stat(t, path))
    }

    /// Directory listing.
    pub fn readdir(
        &mut self,
        ws: WsId,
        path: &str,
    ) -> Result<Vec<(String, EntryKind)>, SystemError> {
        self.with_venus(ws, |v, t| v.readdir(t, path))
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        self.with_venus(ws, |v, t| v.mkdir(t, path))
    }

    /// Creates a directory and any missing ancestors, client-driven: one
    /// `mkdir` per prefix but `/vice` itself, `AlreadyExists` tolerated,
    /// empty components collapsed.
    pub fn mkdir_p(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        let mut prefix = String::with_capacity(path.len() + 1);
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            prefix.push('/');
            prefix.push_str(comp);
            if prefix == "/vice" {
                continue;
            }
            match self.mkdir(ws, &prefix) {
                Ok(()) | Err(SystemError::Venus(VenusError::Vice(ViceError::AlreadyExists(_)))) => {
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Removes a file or symlink.
    pub fn unlink(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        self.with_venus(ws, |v, t| v.unlink(t, path))
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        self.with_venus(ws, |v, t| v.rmdir(t, path))
    }

    /// Renames within one space.
    pub fn rename(&mut self, ws: WsId, from: &str, to: &str) -> Result<(), SystemError> {
        self.with_venus(ws, |v, t| v.rename(t, from, to))
    }

    /// Creates a symbolic link.
    pub fn symlink(&mut self, ws: WsId, path: &str, target: &str) -> Result<(), SystemError> {
        self.with_venus(ws, |v, t| v.symlink(t, path, target))
    }

    /// Reads a directory's access list.
    pub fn get_acl(&mut self, ws: WsId, path: &str) -> Result<AccessList, SystemError> {
        self.with_venus(ws, |v, t| v.get_acl(t, path))
    }

    /// Replaces a directory's access list (requires ADMINISTER rights).
    pub fn set_acl(&mut self, ws: WsId, path: &str, acl: AccessList) -> Result<(), SystemError> {
        self.with_venus(ws, |v, t| v.set_acl(t, path, acl))
    }

    /// Acquires an advisory lock.
    pub fn lock(&mut self, ws: WsId, path: &str, exclusive: bool) -> Result<(), SystemError> {
        self.with_venus(ws, |v, t| v.lock(t, path, exclusive))
    }

    /// Releases an advisory lock.
    pub fn unlock(&mut self, ws: WsId, path: &str) -> Result<(), SystemError> {
        self.with_venus(ws, |v, t| v.unlock(t, path))
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
        self.venus(ws)
            .0
            .read(handle)
            .map(<[u8]>::to_vec)
            .map_err(SystemError::Venus)
    }

    /// Writes through a handle (no server traffic until close).
    pub fn write(&mut self, ws: WsId, handle: u64, data: Vec<u8>) -> Result<(), SystemError> {
        self.venus(ws)
            .0
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

    /// The jittered backoff workstation `ws` should wait before its next
    /// probe of `server`: zero while the server is healthy, exponential
    /// with seeded per-workstation jitter while it keeps failing. Scenario
    /// drivers consult this between revalidation probes so a whole
    /// cluster's clients do not re-arrive as one thundering herd.
    pub fn reconnect_backoff(&mut self, ws: WsId, server: ServerId) -> SimTime {
        self.venus(ws).0.reconnect_backoff(server)
    }
}

/// An op key: `(due time, workstation id)` — unique, because a workstation
/// runs one op at a time, and monotone per driver.
type Key = (SimTime, WsId);

/// Lowers `bound` (`None` = unbounded) to `key` if `key` is below it.
fn lower(bound: &mut Option<Key>, key: Key) {
    *bound = Some(bound.map_or(key, |b| b.min(key)));
}

/// What the last [`ItcSystem::run_drivers`] did, for operators and tests.
/// Observation only: `waits` depends on the host's thread schedule, so
/// none of this is ever written to a fingerprint, JSONL export or series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutorStats {
    /// Batches claimed (a sequential run is one claim of everything).
    pub claims: u64,
    /// Ops executed.
    pub ops: u64,
    /// Most ops any one claim drained.
    pub longest_batch: u64,
    /// Times a worker found nothing admissible and parked.
    pub waits: u64,
}

impl ExecutorStats {
    /// Folds one finished claim of `ops` ops in.
    fn fold(&mut self, ops: u64) {
        self.claims += 1;
        self.ops += ops;
        self.longest_batch = self.longest_batch.max(ops);
    }
}

/// One driver's scheduling state: pooled with an op pending (`at` and
/// `driver` both present), held by a worker's batch (`driver` taken), or
/// finished (`at` is `None`).
struct DriverSlot {
    ws: WsId,
    /// Static scope of the whole driver.
    scope: ClusterMask,
    /// Due time of the next op as last published — a lower bound on every
    /// key the driver can still produce — or `None` once it has no more.
    at: Option<SimTime>,
    /// Mask of that op.
    mask: ClusterMask,
    driver: Option<Box<dyn WsDriver>>,
}

impl DriverSlot {
    /// Puts `driver` (back) in the pool, publishing its next key and mask.
    fn park(&mut self, driver: Box<dyn WsDriver>) {
        (self.at, self.mask) = (driver.next_at(), driver.next_mask());
        self.driver = Some(driver);
    }

    /// The op key of a live slot, `None` once done.
    fn key(&self) -> Option<Key> {
        self.at.map(|at| (at, self.ws))
    }
}

/// One cluster's share of the mutable world — its server, event core and
/// Venus instances, by reference, so a claim moves three pointers: the
/// piece a batch claims for each cluster in its mask.
type Shard<'a> = (&'a mut Server, &'a mut ClusterCore, &'a mut Vec<Venus>);

/// A batch a worker has claimed: the shards of one mask, the drivers that
/// will run against them, and how far they may run.
struct Claim<'a> {
    mask: ClusterMask,
    /// Indexed by cluster; present exactly for the clusters in `mask`.
    shards: Vec<Option<Shard<'a>>>,
    /// The picked driver and every driver confined to `mask`.
    drivers: Vec<(WsId, Box<dyn WsDriver>)>,
    /// The pool slot each of `drivers` came from.
    slots: Vec<usize>,
    /// The smallest key of any live driver outside the batch whose scope
    /// intersects `mask` (`None` = no such driver).
    horizon: Option<Key>,
}

/// Everything the workers share under one lock: the per-cluster shards
/// (present while unclaimed) and the scheduling state.
struct Pool<'a> {
    shards: Vec<Option<Shard<'a>>>,
    slots: Vec<DriverSlot>,
    executing_union: ClusterMask,
    stats: ExecutorStats,
    error: Option<SystemError>,
    /// The payload of a worker's mid-op panic (its shards never come
    /// back); the other workers drain out instead of waiting on the
    /// condvar forever, and the caller's thread resumes the panic.
    poisoned: Option<Box<dyn std::any::Any + Send>>,
}

impl<'a> Pool<'a> {
    /// The index of the admissible pending slot with the smallest key (so
    /// the minimal-key op is dispatched the moment it qualifies), in one
    /// pass over the slots per rule.
    fn pick(&self) -> Option<usize> {
        // frontier[c]: the smallest key of any live slot whose scope
        // contains c — what rule 2 compares a candidate's key against.
        let mut frontier = [None; 64];
        for s in &self.slots {
            if let Some(key) = s.key() {
                for c in s.scope.clusters() {
                    lower(&mut frontier[c], key);
                }
            }
        }
        let mut best: Option<(Key, usize)> = None;
        for (i, w) in self.slots.iter().enumerate() {
            let (Some(key), Some(_)) = (w.key(), &w.driver) else {
                continue;
            };
            if best.is_some_and(|(b, _)| b <= key)
                // Rule 1: disjoint from everything currently executing.
                || w.mask.intersects(self.executing_union)
                // Rule 2: no earlier-keyed live driver whose scope could
                // still produce a conflicting op.
                || w.mask.clusters().any(|c| frontier[c].is_some_and(|f| f < key))
            {
                continue;
            }
            best = Some((key, i));
        }
        best.map(|(_, i)| i)
    }

    /// Claims slot `picked`'s op as a batch (see "Batches and the horizon"
    /// in the module docs): takes its mask's shards, its driver and every
    /// pooled driver confined to that mask, and reads the horizon.
    fn claim(&mut self, picked: usize) -> Claim<'a> {
        let mask = self.slots[picked].mask;
        let (mut drivers, mut slots, mut horizon) = (Vec::new(), Vec::new(), None);
        for (j, s) in self.slots.iter_mut().enumerate() {
            let Some(key) = s.key() else { continue };
            let joins = j == picked || s.scope.confined_to(mask);
            if let Some(d) = s.driver.take_if(|_| joins) {
                drivers.push((s.ws, d));
                slots.push(j);
            } else if s.scope.intersects(mask) {
                lower(&mut horizon, key);
            }
        }
        self.executing_union = self.executing_union.union(mask);
        let taken = |(c, s): (usize, &mut Option<Shard<'a>>)| {
            mask.contains(c)
                .then(|| s.take().expect("mask disjointness"))
        };
        let shards = self.shards.iter_mut().enumerate().map(taken).collect();
        Claim {
            mask,
            shards,
            drivers,
            slots,
            horizon,
        }
    }

    /// Takes a drained batch back: its shards, its drivers' next keys and
    /// masks, the `ops` it ran and how its last op ended.
    fn release(&mut self, claim: Claim<'a>, ops: u64, result: Result<(), SystemError>) {
        for (slot, shard) in self.shards.iter_mut().zip(claim.shards) {
            if shard.is_some() {
                *slot = shard;
            }
        }
        self.executing_union = ClusterMask(self.executing_union.0 & !claim.mask.0);
        for (j, (_, driver)) in claim.slots.into_iter().zip(claim.drivers) {
            self.slots[j].park(driver);
        }
        self.stats.fold(ops);
        if let Err(e) = result {
            self.error.get_or_insert(e);
        }
    }

    /// Whether the run is over: failed, poisoned, or out of ops.
    fn finished(&self) -> bool {
        self.error.is_some()
            || self.poisoned.is_some()
            || self.slots.iter().all(|s| s.key().is_none())
    }
}

/// The one scheduling loop: runs `drivers`' ops against `ops` in `(due,
/// ws)` key order — the sequential order — and returns how many ran and
/// how the last one ended.
///
/// The sequential reference passes the whole system and no limits, and
/// gets every op. A parallel worker passes the shards of the mask it
/// `held` and the `horizon` it read at claim time, and the loop stops at
/// the first op that is not below the horizon or declares another mask. A
/// driver not confined to `held` (the picked one may not be) runs one op
/// and leaves the batch; its next key lowers the horizon for the rest.
fn drain(
    ops: &mut WsOps<'_>,
    drivers: &mut [(WsId, Box<dyn WsDriver>)],
    held: Option<ClusterMask>,
    mut horizon: Option<Key>,
) -> (u64, Result<(), SystemError>) {
    let mut queue: BinaryHeap<Reverse<(SimTime, WsId, usize)>> = drivers
        .iter()
        .enumerate()
        .filter_map(|(i, (ws, d))| d.next_at().map(|at| Reverse((at, *ws, i))))
        .collect();
    let mut done = 0;
    while let Some(mut top) = queue.peek_mut() {
        let Reverse((at, ws, i)) = *top;
        let driver = &mut drivers[i].1;
        let past = horizon.is_some_and(|h| (at, ws) >= h);
        if past || held.is_some_and(|m| driver.next_mask() != m) {
            break;
        }
        if let Err(e) = driver.step(ops) {
            return (done, Err(e));
        }
        done += 1;
        let stays = held.is_none_or(|m| driver.scope().confined_to(m));
        match driver.next_at() {
            Some(next) if stays => *top = Reverse((next, ws, i)),
            next => {
                if let Some(next) = next {
                    lower(&mut horizon, (next, ws));
                }
                PeekMut::pop(top);
            }
        }
    }
    (done, Ok(()))
}

impl ItcSystem {
    /// Runs a set of workstation drivers to completion, sequentially or in
    /// parallel. The parallel schedule is bit-identical to the sequential
    /// one (see the module docs for why). Returns the number of ops
    /// executed.
    pub fn run_drivers(
        &mut self,
        mut drivers: Vec<(WsId, Box<dyn WsDriver>)>,
        mode: RunMode,
    ) -> Result<u64, SystemError> {
        assert!(
            self.cores.len() <= 64,
            "ClusterMask supports at most 64 clusters"
        );
        match mode {
            RunMode::Sequential => {
                let (ops, result) = drain(&mut self.ops(), &mut drivers, None, None);
                self.executor = ExecutorStats::default();
                self.executor.fold(ops);
                result.map(|()| ops)
            }
            RunMode::Parallel(threads) => self.run_drivers_parallel(drivers, threads),
        }
    }

    /// What the last [`ItcSystem::run_drivers`] did.
    pub fn executor_stats(&self) -> ExecutorStats {
        self.executor
    }

    /// The workstation op surface over the whole system — every cluster,
    /// server and Venus behind one [`WsOps`] — as tests, experiments and
    /// sequential driver runs use it: `sys.ops().fetch(ws, path)`.
    pub fn ops(&mut self) -> WsOps<'_> {
        WsOps {
            transport: SystemTransport {
                servers: Parts::Whole(&mut self.servers),
                cores: Parts::Whole(&mut self.cores),
                campus: &self.campus,
            },
            venuses: Parts::Whole(&mut self.clients),
        }
    }

    fn run_drivers_parallel(
        &mut self,
        drivers: Vec<(WsId, Box<dyn WsDriver>)>,
        threads: usize,
    ) -> Result<u64, SystemError> {
        // Each cluster's server, event core and Venus instances become one
        // independently claimable shard; the campus is lent to every worker.
        let campus = &self.campus;
        let shards: Vec<_> = (self.servers.iter_mut().zip(&mut self.cores))
            .zip(&mut self.clients)
            .map(|((server, core), venuses)| Some((server, core, venuses)))
            .collect();
        // No more than one op per cluster can ever execute at once.
        let workers = threads.clamp(1, shards.len().max(1));

        let slots = drivers
            .into_iter()
            .map(|(ws, d)| DriverSlot {
                ws,
                scope: d.scope(),
                at: d.next_at(),
                mask: d.next_mask(),
                driver: Some(d),
            })
            .collect();

        let pool = Mutex::new(Pool {
            shards,
            slots,
            executing_union: ClusterMask::EMPTY,
            stats: ExecutorStats::default(),
            error: None,
            poisoned: None,
        });
        let work = Condvar::new();

        let worker = || {
            let mut guard = pool.lock().expect("pool lock");
            while !guard.finished() {
                let Some(picked) = guard.pick() else {
                    guard.stats.waits += 1;
                    guard = work.wait(guard).expect("pool lock");
                    continue;
                };
                let mut claim = guard.claim(picked);
                drop(guard);

                // One view over the held shards serves the whole batch.
                let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let (servers, (cores, clusters)): (Vec<_>, (Vec<_>, Vec<_>)) = claim
                        .shards
                        .iter_mut()
                        .map(|shard| match shard {
                            Some((s, c, v)) => (Some(&mut **s), (Some(&mut **c), Some(&mut **v))),
                            None => (None, (None, None)),
                        })
                        .unzip();
                    let mut ws_ops = WsOps {
                        transport: SystemTransport {
                            servers: Parts::Split(servers),
                            cores: Parts::Split(cores),
                            campus,
                        },
                        venuses: Parts::Split(clusters),
                    };
                    drain(
                        &mut ws_ops,
                        &mut claim.drivers,
                        Some(claim.mask),
                        claim.horizon,
                    )
                }));

                guard = pool.lock().expect("pool lock");
                match drained {
                    Ok((ops, result)) => guard.release(claim, ops, result),
                    // A panicking op (most likely the mask tripwire)
                    // leaves its shards unusable; keep the payload for the
                    // caller and let everyone drain out.
                    Err(payload) => {
                        guard.poisoned.get_or_insert(payload);
                    }
                }
                work.notify_all();
            }
            work.notify_all();
        };
        // The caller's thread is the first worker.
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(worker);
            }
            worker();
        });

        let Pool {
            stats,
            error,
            poisoned,
            ..
        } = pool.into_inner().expect("workers exited");
        if let Some(payload) = poisoned {
            std::panic::resume_unwind(payload);
        }
        self.executor = stats;
        error.map_or(Ok(stats.ops), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itc_sim::SimRng;

    #[test]
    fn mask_stops_at_the_64_cluster_limit() {
        let mut m = ClusterMask::of(63);
        m.insert(0);
        assert!(m.contains(63) && m.contains(0) && !m.contains(1));
        // Beyond the limit nothing is a member — in particular not the
        // cluster `c mod 64` an unchecked shift would alias.
        assert!(!m.contains(64) && !m.contains(127));
        assert_eq!(m.clusters().collect::<Vec<_>>(), [0, 63]);
        assert_eq!(ClusterMask::all(70).clusters().count(), 64);
    }

    #[test]
    #[should_panic(expected = "64-cluster limit")]
    fn mask_of_a_65th_cluster_panics() {
        let _ = ClusterMask::of(64);
    }

    #[test]
    #[should_panic(expected = "64-cluster limit")]
    fn inserting_a_65th_cluster_panics() {
        let mut m = ClusterMask::EMPTY;
        m.insert(64);
    }

    #[test]
    fn confinement_is_a_nonempty_subset() {
        let held = ClusterMask::of(1).union(ClusterMask::of(2));
        assert!(ClusterMask::of(2).confined_to(held) && held.confined_to(held));
        assert!(!ClusterMask::all(3).confined_to(held));
        assert!(!ClusterMask::EMPTY.confined_to(held));
    }

    /// A driver for slots that are only ever looked at.
    struct Idle;

    impl WsDriver for Idle {
        fn scope(&self) -> ClusterMask {
            ClusterMask::EMPTY
        }
        fn next_at(&self) -> Option<SimTime> {
            None
        }
        fn next_mask(&self) -> ClusterMask {
            ClusterMask::EMPTY
        }
        fn step(&mut self, _: &mut WsOps<'_>) -> Result<(), SystemError> {
            unreachable!("an idle driver has no op")
        }
    }

    /// The admission rule as it was first written — sort the pending slots,
    /// scan every slot for each candidate: rules 1 and 2 read off the page.
    fn pick_reference(pool: &Pool) -> Option<usize> {
        let key = |i: usize| pool.slots[i].key().expect("live slot");
        let mut order: Vec<usize> = (0..pool.slots.len())
            .filter(|&i| pool.slots[i].driver.is_some() && pool.slots[i].at.is_some())
            .collect();
        order.sort_by_key(|&i| key(i));
        'candidates: for &i in &order {
            let w = &pool.slots[i];
            if w.mask.intersects(pool.executing_union) {
                continue;
            }
            for (j, u) in pool.slots.iter().enumerate() {
                if j == i || u.at.is_none() {
                    continue;
                }
                if key(j) < key(i) && u.scope.intersects(w.mask) {
                    continue 'candidates;
                }
            }
            return Some(i);
        }
        None
    }

    #[test]
    fn one_pass_pick_agrees_with_the_reference_on_random_pools() {
        let mut rng = SimRng::seeded(0x91c4);
        let mut admitted = 0;
        for round in 0..12_000 {
            let clusters = rng.range(1, 7) as usize;
            let some = |rng: &mut SimRng| match rng.range(0, 4) {
                0 => ClusterMask::EMPTY,
                1 => ClusterMask::all(clusters),
                _ => {
                    let mut m = ClusterMask::of(rng.range(0, clusters as u64) as usize);
                    if rng.chance(0.3) {
                        m.insert(rng.range(0, clusters as u64) as usize);
                    }
                    m
                }
            };
            let mut executing_union = ClusterMask::EMPTY;
            let slots = (0..rng.range(0, 24) as usize)
                .map(|ws| {
                    // Few distinct times, so workstation ids break ties.
                    let at = SimTime::from_micros(rng.range(0, 6));
                    let scope = some(&mut rng);
                    // Mostly honest masks (⊆ scope), some not: `pick` must
                    // not depend on the promise.
                    let mut mask = some(&mut rng);
                    if rng.chance(0.8) {
                        mask = ClusterMask(mask.0 & scope.0);
                    }
                    // Done, held by a batch, or pooled with an op pending.
                    let (at, driver) = match rng.range(0, 5) {
                        0 => (None, Some(Box::new(Idle) as Box<dyn WsDriver>)),
                        1 if !mask.intersects(executing_union) => {
                            executing_union = executing_union.union(mask);
                            (Some(at), None)
                        }
                        _ => (Some(at), Some(Box::new(Idle) as Box<dyn WsDriver>)),
                    };
                    DriverSlot {
                        ws,
                        scope,
                        at,
                        mask,
                        driver,
                    }
                })
                .collect();
            let pool = Pool {
                shards: Vec::new(),
                slots,
                executing_union,
                stats: ExecutorStats::default(),
                error: None,
                poisoned: None,
            };
            let picked = pool.pick();
            assert_eq!(picked, pick_reference(&pool), "round {round}");
            admitted += u32::from(picked.is_some());
        }
        // The pools exercise both outcomes, not one of them 12 000 times.
        assert!((3_000..11_000).contains(&admitted), "{admitted} admitted");
    }
}
