//! Venus: the workstation cache manager.
//!
//! Section 3.5.1: "Virtue is implemented in two parts: a set of
//! modifications to the workstation operating system to intercept file
//! requests, and a user-level process, called Venus. Venus handles
//! management of the cache, communication with Vice and the emulation of
//! native file system primitives for Vice files."
//!
//! This module is the heart of the client half of the design:
//!
//! * **Whole-file caching** — `open` fetches the entire file into the cache
//!   on a miss; `read`/`write` touch only the cached copy; `close`
//!   transmits the whole file back to the custodian if it was modified
//!   (Section 3.2). "Other than performance, there is no difference
//!   between accessing a local file and a file in the shared name space."
//! * **Validation** — check-on-open (prototype) or callback-based (revised
//!   design): a cached entry is used without any server traffic while its
//!   callback promise stands.
//! * **Custodian hints** — "Clients use cached location information as
//!   hints" (Section 6.1); a stale hint is corrected by the
//!   `NotCustodian` reply and retried.
//! * **Client-side pathname traversal** (revised design) — Venus fetches
//!   and caches intermediate directories and walks them itself, relieving
//!   the server CPU (Section 5.3). Cached directories are treated as
//!   hints and are not revalidated on every use; callback breaks (or
//!   server errors) refresh them.
//!
//! Venus never talks to sockets: it issues calls through a
//! [`ViceTransport`], which the system layer implements over the simulated
//! network with real encrypted bindings.

pub mod cache;
pub mod namespace;

pub use cache::{Cache, CacheEntry, CacheStats};
pub use namespace::{Namespace, Space, WorkstationType, VICE_MOUNT};

use crate::config::{CachePolicy, WritePolicy};
use crate::location::subtree_covers;
use crate::protect::AccessList;
use crate::proto::{EntryKind, Payload, ServerId, VStatus, ViceError, ViceReply, ViceRequest};
use itc_cryptbox::Key;
use itc_rpc::NodeId;
use itc_sim::{Costs, SimRng, SimTime, TraversalMode, ValidationMode};
use itc_unixfs::{dirname_basename, normalize, FsError, Mode};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Errors surfaced to applications by Venus.
#[derive(Debug, Clone, PartialEq)]
pub enum VenusError {
    /// No user is logged in at this workstation.
    NotLoggedIn,
    /// Vice rejected the operation.
    Vice(ViceError),
    /// A local file system error.
    Local(FsError),
    /// The transport failed (authentication, unknown server).
    Transport(String),
    /// Unknown file handle.
    BadHandle(u64),
    /// A reply had an unexpected shape for the request sent.
    ProtocolMismatch(&'static str),
    /// Custodian resolution failed repeatedly.
    NoCustodian(String),
    /// A mutation could not be applied: the custodian is down or kept
    /// timing out, and no read-only replica may apply it. The workstation
    /// is in degraded mode for this subtree — reads from cache still work,
    /// but updates must wait for the custodian (Section 2.2 accepts this:
    /// replication covers read-only subtrees only).
    Degraded(ViceError),
}

impl std::fmt::Display for VenusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VenusError::NotLoggedIn => write!(f, "no user logged in"),
            VenusError::Vice(e) => write!(f, "vice: {e}"),
            VenusError::Local(e) => write!(f, "local: {e}"),
            VenusError::Transport(m) => write!(f, "transport: {m}"),
            VenusError::BadHandle(h) => write!(f, "bad file handle {h}"),
            VenusError::ProtocolMismatch(m) => write!(f, "protocol mismatch: {m}"),
            VenusError::NoCustodian(p) => write!(f, "no custodian found for {p}"),
            VenusError::Degraded(e) => write!(f, "degraded mode, mutation not applied: {e}"),
        }
    }
}

impl std::error::Error for VenusError {}

impl From<ViceError> for VenusError {
    fn from(e: ViceError) -> Self {
        VenusError::Vice(e)
    }
}

impl From<FsError> for VenusError {
    fn from(e: FsError) -> Self {
        VenusError::Local(e)
    }
}

/// The interface Venus uses to reach Vice. Implemented by the system layer
/// (and by lightweight fakes in unit tests).
pub trait ViceTransport {
    /// Issues one authenticated call at virtual time `at`; returns the
    /// reply and the completion time.
    fn call(
        &mut self,
        ws: NodeId,
        user: &str,
        key: Key,
        server: ServerId,
        req: &ViceRequest,
        at: SimTime,
    ) -> Result<(ViceReply, SimTime), String>;

    /// Picks the topologically nearest of `candidates` to `ws` (used to
    /// prefer a same-cluster read-only replica).
    fn nearest(&self, ws: NodeId, candidates: &[ServerId]) -> ServerId;

    /// The server in this workstation's own cluster — the default target
    /// for location queries.
    fn home_server(&self, ws: NodeId) -> ServerId;

    /// The server's current incarnation epoch (crash count). Venus compares
    /// this against the epoch it last observed to detect that a server
    /// crashed — losing its callback promises — while the workstation
    /// wasn't looking. Transports without crash modeling use the default.
    fn epoch_of(&self, _server: ServerId) -> u64 {
        0
    }
}

/// Per-Venus operation counters (the cache's own hit/miss stats live in
/// [`CacheStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VenusStats {
    /// File opens through the Vice path.
    pub vice_opens: u64,
    /// Whole-file fetches issued.
    pub fetches: u64,
    /// Whole-file stores issued.
    pub stores: u64,
    /// Cache validation calls issued.
    pub validations: u64,
    /// Bytes fetched from Vice.
    pub bytes_fetched: u64,
    /// Bytes stored to Vice.
    pub bytes_stored: u64,
    /// Reads served from an open handle (never any server traffic).
    pub local_reads: u64,
}

/// An authenticated session at a workstation. Every call carries it, so
/// the name is shared: taking the session is a refcount bump.
#[derive(Debug, Clone)]
struct Session {
    user: Arc<str>,
    key: Key,
}

/// An open file description. The contents share their allocation with the
/// cache entry they were opened from until the first write.
#[derive(Debug)]
struct OpenFile {
    space: Space,
    data: Payload,
    dirty: bool,
    writable: bool,
}

/// The Venus cache manager for one workstation.
#[derive(Debug)]
pub struct Venus {
    node: NodeId,
    namespace: Namespace,
    cache: Cache,
    /// Custodian hints by subtree root. A `BTreeMap`, not a `HashMap`:
    /// `hint_for` scans it while routing calls (an event-emitting path),
    /// so iteration order must be seed-stable.
    hints: BTreeMap<String, (ServerId, Vec<ServerId>)>,
    session: Option<Session>,
    open_files: HashMap<u64, OpenFile>,
    next_handle: u64,
    now: SimTime,
    validation: ValidationMode,
    traversal: TraversalMode,
    costs: Costs,
    stats: VenusStats,
    write_policy: WritePolicy,
    /// Dirty Vice paths awaiting a deferred flush: path -> flush deadline.
    /// A `BTreeMap` so due entries flush in path order — each flush issues
    /// RPCs, and their order must be a function of the seed alone.
    dirty: BTreeMap<String, SimTime>,
    /// Last observed incarnation epoch per server; a bump means the server
    /// crashed (losing callback promises) since we last talked to it.
    server_epochs: HashMap<ServerId, u64>,
    /// Consecutive failed exchanges per server (unreachable, timed out, or
    /// volume offline); reset by any genuine reply. Feeds
    /// [`Venus::reconnect_backoff`].
    reconnect_failures: HashMap<ServerId, u32>,
    /// Private jitter stream for reconnect backoff. Deliberately NOT forked
    /// from any shared stream: it is seeded arithmetically (see the
    /// topology builder), so merely having it changes no existing run.
    reconnect_rng: SimRng,
}

const CUSTODIAN_RETRIES: u32 = 3;

impl Venus {
    /// Creates a Venus instance for a workstation.
    pub fn new(
        node: NodeId,
        ws_type: WorkstationType,
        policy: CachePolicy,
        validation: ValidationMode,
        traversal: TraversalMode,
        costs: Costs,
    ) -> Venus {
        Venus::with_write_policy(
            node,
            ws_type,
            policy,
            validation,
            traversal,
            costs,
            WritePolicy::StoreOnClose,
        )
    }

    /// Creates a Venus with an explicit write-back policy (the E16
    /// ablation; [`Venus::new`] defaults to store-on-close as the paper
    /// chose).
    #[allow(clippy::too_many_arguments)]
    pub fn with_write_policy(
        node: NodeId,
        ws_type: WorkstationType,
        policy: CachePolicy,
        validation: ValidationMode,
        traversal: TraversalMode,
        costs: Costs,
        write_policy: WritePolicy,
    ) -> Venus {
        Venus {
            node,
            namespace: Namespace::standard(ws_type),
            cache: Cache::new(policy),
            hints: BTreeMap::new(),
            session: None,
            open_files: HashMap::new(),
            next_handle: 1,
            now: SimTime::ZERO,
            validation,
            traversal,
            costs,
            stats: VenusStats::default(),
            write_policy,
            dirty: BTreeMap::new(),
            server_epochs: HashMap::new(),
            reconnect_failures: HashMap::new(),
            reconnect_rng: SimRng::seeded(0),
        }
    }

    /// Seeds the private reconnect-jitter stream. Called once at topology
    /// build with a seed derived arithmetically from the system seed and
    /// this workstation's node id, so distinct workstations desynchronize
    /// their retry storms differently but reproducibly.
    pub fn seed_reconnect_jitter(&mut self, seed: u64) {
        self.reconnect_rng = SimRng::seeded(seed);
    }

    /// Consecutive failed exchanges with `server` (0 = healthy).
    pub fn reconnect_failures(&self, server: ServerId) -> u32 {
        self.reconnect_failures.get(&server).copied().unwrap_or(0)
    }

    /// How long this workstation should wait before its next probe of a
    /// server that has been failing: exponential in the consecutive-failure
    /// count (500 ms doubling up to 32 s) with ±25% seeded jitter, so a
    /// cluster of clients that all lost the same server spread their
    /// revalidation probes instead of re-arriving as a thundering herd.
    /// Returns zero while the server is healthy. Draws only from the
    /// private jitter stream — consulting it never perturbs workload or
    /// transport randomness.
    pub fn reconnect_backoff(&mut self, server: ServerId) -> SimTime {
        let failures = self.reconnect_failures(server);
        if failures == 0 {
            return SimTime::ZERO;
        }
        let base_us = 500_000u64 << (failures.min(7) - 1) as u64;
        // ±25% jitter: uniform in [0.75, 1.25) of the base.
        let jittered = (base_us as f64 * (0.75 + 0.5 * self.reconnect_rng.unit())) as u64;
        SimTime::from_micros(jittered)
    }

    /// The workstation's network node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current workstation-local virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances local time (think time between operations). Never moves
    /// backward.
    pub fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// The cache (for metrics).
    pub fn cache(&self) -> &Cache {
        &self.cache
    }

    /// Operation counters.
    pub fn stats(&self) -> VenusStats {
        self.stats
    }

    /// The local name space.
    pub fn namespace(&self) -> &Namespace {
        &self.namespace
    }

    /// Mutable local name space (for installing user symlinks).
    pub fn namespace_mut(&mut self) -> &mut Namespace {
        &mut self.namespace
    }

    /// Starts a session for `user` whose password-derived key is `key`.
    /// (Authentication itself — the handshake — is performed by the system
    /// layer when the first binding to each server is established; a wrong
    /// password surfaces there.)
    pub fn set_session(&mut self, user: &str, key: Key) {
        self.session = Some(Session {
            user: Arc::from(user),
            key,
        });
    }

    /// Ends the session. The cache is retained: it belongs to the
    /// workstation, not the user, and a returning user benefits from it.
    pub fn clear_session(&mut self) {
        self.session = None;
    }

    /// The logged-in user, if any.
    pub fn current_user(&self) -> Option<&str> {
        self.session.as_ref().map(|s| &*s.user)
    }

    /// Delivers a callback break from a server: the cached copy (file or
    /// directory) at `path` is no longer valid.
    pub fn on_callback_break(&mut self, path: &str) {
        // A locally-dirty file is about to be overwritten by our own flush
        // anyway (last-writer-wins under the delayed policy); invalidating
        // it would silently discard the user's unflushed edit.
        if !self.dirty.contains_key(path) {
            self.cache.invalidate(path);
        }
    }

    fn session(&self) -> Result<Session, VenusError> {
        self.session.clone().ok_or(VenusError::NotLoggedIn)
    }

    /// Called after a genuine exchange with `server`: if its incarnation
    /// epoch advanced since we last saw it, the server crashed and its
    /// callback promises for this workstation are gone. Every cached copy
    /// that relied on a promise becomes suspect and must be revalidated
    /// (re-fetched) before its next use. Read-only copies "can never be
    /// invalid" and locally-dirty files are newer than anything the server
    /// holds, so both are kept.
    ///
    /// Discovery is contact-driven: while a server is down nothing can
    /// mutate its files, so cached copies remain safe to serve; the
    /// staleness window opens only once the restarted server starts
    /// applying other workstations' updates, and closes at this
    /// workstation's first exchange with it.
    fn note_epoch(&mut self, t: &dyn ViceTransport, server: ServerId) {
        let cur = t.epoch_of(server);
        if let Some(prev) = self.server_epochs.insert(server, cur) {
            if cur > prev {
                let dirty = &self.dirty;
                self.cache.invalidate_suspect(|p| dirty.contains_key(p));
            }
        }
    }

    fn charge_intercept(&mut self) {
        self.now += self.costs.ws_cpu_intercept;
    }

    fn charge_local_disk(&mut self, bytes: u64) {
        self.now += self.costs.ws_disk_transfer(bytes);
    }

    // ------------------------------------------------------------------
    // Custodian resolution
    // ------------------------------------------------------------------

    fn hint_for(&self, vice_path: &str) -> Option<(ServerId, Vec<ServerId>)> {
        let mut best: Option<(&String, &(ServerId, Vec<ServerId>))> = None;
        for (root, entry) in &self.hints {
            if subtree_covers(root, vice_path) && best.is_none_or(|(b, _)| root.len() > b.len()) {
                best = Some((root, entry));
            }
        }
        best.map(|(_, e)| e.clone())
    }

    fn drop_hint_for(&mut self, vice_path: &str) {
        self.hints
            .retain(|root, _| !subtree_covers(root, vice_path));
    }

    /// Learns the custodian of `vice_path`, consulting the hint cache
    /// first and the home server's location database otherwise.
    fn resolve_custodian(
        &mut self,
        t: &mut dyn ViceTransport,
        vice_path: &str,
    ) -> Result<(ServerId, Vec<ServerId>), VenusError> {
        if let Some(hit) = self.hint_for(vice_path) {
            return Ok(hit);
        }
        let s = self.session()?;
        let home = t.home_server(self.node);
        let req = ViceRequest::GetCustodian {
            path: vice_path.to_string(),
        };
        let (reply, done) = t
            .call(self.node, &s.user, s.key, home, &req, self.now)
            .map_err(VenusError::Transport)?;
        self.now = done;
        let (subtree, custodian, replicas) = picked(&req, reply, |r| match r {
            ViceReply::Custodian {
                subtree,
                custodian,
                replicas,
            } => Some((subtree, custodian, replicas)),
            _ => None,
        })?;
        self.note_epoch(&*t, home);
        self.hints.insert(subtree, (custodian, replicas.clone()));
        Ok((custodian, replicas))
    }

    /// Issues `req` to the appropriate server, following `NotCustodian`
    /// hints. Reads go to the nearest replica; mutations go to the
    /// custodian.
    fn call_vice(
        &mut self,
        t: &mut dyn ViceTransport,
        req: &ViceRequest,
    ) -> Result<ViceReply, VenusError> {
        let s = self.session()?;
        let path = req.path();
        for _ in 0..CUSTODIAN_RETRIES {
            let (custodian, replicas) = self.resolve_custodian(t, path)?;
            // Candidate order: for read-eligible calls, nearest first and
            // fail over down the list; mutations go to the custodian only
            // (read-only replicas cannot apply them anyway).
            let ordered;
            let candidates = if !req.is_mutation() && !replicas.is_empty() {
                let mut all = vec![custodian];
                all.extend(replicas.iter().copied());
                let first = t.nearest(self.node, &all);
                let mut by_distance = vec![first];
                by_distance.extend(all.into_iter().filter(|c| *c != first));
                by_distance.dedup();
                ordered = by_distance;
                &ordered[..]
            } else {
                std::slice::from_ref(&custodian)
            };

            let mut last_failure: Option<ViceError> = None;
            let mut reply = None;
            for &target in candidates {
                let (r, done) = t
                    .call(self.node, &s.user, s.key, target, req, self.now)
                    .map_err(VenusError::Transport)?;
                self.now = done;
                match r {
                    // This machine is down — try the next replica: "single
                    // point ... machine failures should not affect the
                    // entire user community" (Section 2.2). Or it is
                    // thought to be up but every attempt at the call timed
                    // out (lost traffic): a replica may still answer a
                    // read. Or the server is up (a genuine exchange) but
                    // the volume is being salvaged or was taken offline: a
                    // read-only replica elsewhere may still cover the path.
                    ViceReply::Error(
                        e @ (ViceError::Unreachable(_)
                        | ViceError::TimedOut(_)
                        | ViceError::VolumeOffline(_)),
                    ) => {
                        if matches!(e, ViceError::VolumeOffline(_)) {
                            self.note_epoch(&*t, target);
                        }
                        *self.reconnect_failures.entry(target).or_insert(0) += 1;
                        last_failure = Some(e);
                    }
                    other => {
                        // A genuine exchange with this server: notice if it
                        // restarted behind our back.
                        self.note_epoch(&*t, target);
                        self.reconnect_failures.remove(&target);
                        reply = Some(other);
                        break;
                    }
                }
            }
            match reply {
                Some(ViceReply::Error(ViceError::NotCustodian(hint))) => {
                    // Stale hint: drop it and retry. If the server offered
                    // a hint, seed it for the exact path's parent subtree.
                    self.drop_hint_for(path);
                    if let Some(h) = hint {
                        self.hints.insert(path.to_string(), (h, Vec::new()));
                    }
                }
                Some(other) => return Ok(other),
                None => {
                    let cause = last_failure.unwrap_or(ViceError::Unreachable(custodian.0));
                    // Reads surface the failure as-is; mutations get the
                    // distinguishable degraded-mode error — the caller's
                    // data was NOT applied anywhere.
                    return Err(if req.is_mutation() {
                        VenusError::Degraded(cause)
                    } else {
                        VenusError::Vice(cause)
                    });
                }
            }
        }
        Err(VenusError::NoCustodian(path.to_string()))
    }

    /// The reply contract of every Vice call Venus makes: routes `req`
    /// (see [`Self::call_vice`]) and hands the reply to `pick`, which
    /// extracts what the caller wants from the variants it accepts. An
    /// `Error` reply surfaces as [`VenusError::Vice`]; a variant `pick`
    /// rejects as [`VenusError::ProtocolMismatch`] naming the request.
    fn vice<R>(
        &mut self,
        t: &mut dyn ViceTransport,
        req: &ViceRequest,
        pick: impl FnOnce(ViceReply) -> Option<R>,
    ) -> Result<R, VenusError> {
        let reply = self.call_vice(t, req)?;
        picked(req, reply, pick)
    }

    // ------------------------------------------------------------------
    // Cache fill
    // ------------------------------------------------------------------

    /// Ensures the directories on the way to `vice_path` are cached
    /// (client-side traversal mode): "Venus will translate a Vice pathname
    /// into a file identifier by caching the intermediate directories from
    /// Vice and traversing them" (Section 5.3).
    fn walk_client_side(
        &mut self,
        t: &mut dyn ViceTransport,
        vice_path: &str,
    ) -> Result<(), VenusError> {
        if self.traversal != TraversalMode::ClientSide {
            return Ok(());
        }
        // Ancestors strictly between /vice and the final component: the
        // prefixes of the (normal) path that end before a '/', borrowed.
        for (end, _) in vice_path.match_indices('/').skip(1) {
            let prefix = &vice_path[..end];
            self.now += self.costs.ws_cpu_per_component;
            if prefix == VICE_MOUNT {
                continue;
            }
            let cached_valid = self
                .cache
                .peek(prefix)
                .map(|e| e.kind == cache::EntryKind::Directory && (e.valid || e.status.read_only))
                .unwrap_or(false);
            if cached_valid {
                self.cache.get(prefix);
                continue;
            }
            // Fetch the directory's listing blob and cache it.
            let req = ViceRequest::Fetch {
                path: prefix.to_string(),
            };
            let ViceReply::Data { status, data } = self.vice(t, &req, data_or_link)? else {
                // A symlink mid-path inside Vice; the server resolves
                // these on the final operation, so just stop walking.
                return Ok(());
            };
            self.stats.fetches += 1;
            self.stats.bytes_fetched += data.len() as u64;
            self.charge_local_disk(data.len() as u64);
            self.cache
                .insert(prefix, data, status, cache::EntryKind::Directory);
        }
        Ok(())
    }

    /// Makes sure a current copy of `vice_path` is in the cache, fetching
    /// or validating as the mode requires. Returns the file contents,
    /// shared by refcount with the cache entry — a hit copies nothing.
    fn ensure_cached(
        &mut self,
        t: &mut dyn ViceTransport,
        vice_path: &str,
    ) -> Result<Payload, VenusError> {
        self.stats.vice_opens += 1;
        self.walk_client_side(t, vice_path)?;

        // Decide whether the cached copy may be used without a fetch.
        let cached = self
            .cache
            .peek(vice_path)
            .map(|e| (e.valid, e.status.read_only, e.status.fid, e.status.version));
        if let Some((valid, read_only, fid, version)) = cached {
            // A dirty (unflushed) copy is the newest version in existence
            // — the custodian may not even know the file yet. Read-only
            // subtree copies "can never be invalid". And in callback mode
            // a standing promise means zero server traffic (a broken one
            // must refetch below).
            let mut usable = self.dirty.contains_key(vice_path)
                || read_only
                || (valid && self.validation == ValidationMode::Callback);
            if !usable && self.validation == ValidationMode::CheckOnOpen {
                // The prototype's dominant call: validate on every open.
                let req = ViceRequest::Validate {
                    path: vice_path.to_string(),
                    fid,
                    version,
                };
                self.stats.validations += 1;
                let verdict = self.vice(t, &req, |r| match r {
                    ViceReply::Validated { valid, .. } => Some(valid),
                    _ => None,
                });
                match verdict {
                    Ok(true) => {
                        self.cache.revalidate(vice_path, None);
                        usable = true;
                    }
                    // Stale: fall through to fetch.
                    Ok(false) => {}
                    // Deleted behind our back.
                    Err(VenusError::Vice(ViceError::NoSuchFile(_))) => {
                        self.cache.remove(vice_path);
                    }
                    Err(e) => return Err(e),
                }
            }
            if usable {
                let data = self.cache.get(vice_path).expect("peeked").data.clone();
                self.cache.count_hit();
                self.charge_local_disk(data.len() as u64);
                return Ok(data);
            }
        }

        // Whole-file fetch.
        let req = ViceRequest::Fetch {
            path: vice_path.to_string(),
        };
        match self.vice(t, &req, data_or_link)? {
            ViceReply::Data { status, data } => {
                self.cache.count_miss();
                self.stats.fetches += 1;
                self.stats.bytes_fetched += data.len() as u64;
                // Writing the fetched file to the local cache disk, then
                // reading it back for the application (Section 3.5.1: the
                // cache is a directory in the local Unix file system, not
                // memory — a miss pays the local disk twice).
                self.charge_local_disk(data.len() as u64);
                self.charge_local_disk(data.len() as u64);
                let kind = if status.kind == EntryKind::Dir {
                    cache::EntryKind::Directory
                } else {
                    cache::EntryKind::File
                };
                // The cache entry and the returned handle share the fetched
                // allocation: the clone is a refcount bump.
                self.cache.insert(vice_path, data.clone(), status, kind);
                Ok(data)
            }
            // A symlink inside Vice: follow it (target is a Vice path, in
            // normal form like every path Venus walks).
            ViceReply::Link(target) => self.ensure_cached(t, &normalize(&target)?),
            _ => unreachable!("data_or_link admits nothing else"),
        }
    }

    // ------------------------------------------------------------------
    // The workstation file interface (what intercepted syscalls invoke)
    // ------------------------------------------------------------------

    /// Opens a file for reading. Returns a handle.
    pub fn open_read(&mut self, t: &mut dyn ViceTransport, path: &str) -> Result<u64, VenusError> {
        self.charge_intercept();
        let space = self.namespace.classify(path, true)?;
        let data = match &space {
            Space::Local(p) => {
                let data = self.namespace.local().read(p)?;
                self.charge_local_disk(data.len() as u64);
                data
            }
            Space::Vice(vp) => self.ensure_cached(t, vp)?,
        };
        Ok(self.install_handle(space, data, false))
    }

    /// Opens (creating if necessary) a file for writing. The initial
    /// content is the current file content, or empty for a new file.
    pub fn open_write(&mut self, t: &mut dyn ViceTransport, path: &str) -> Result<u64, VenusError> {
        self.charge_intercept();
        let space = self.namespace.classify(path, true)?;
        let data = match &space {
            Space::Local(p) => {
                // A missing or non-regular file opens empty (a probe
                // names nothing).
                let local = self.namespace.local();
                let found = local.probe(p, true).ok();
                found
                    .and_then(|r| local.contents_of(r.ino).cloned())
                    .unwrap_or_default()
            }
            Space::Vice(vp) => match self.ensure_cached(t, vp) {
                Ok(d) => d,
                Err(VenusError::Vice(ViceError::NoSuchFile(_))) => Payload::empty(),
                Err(e) => return Err(e),
            },
        };
        Ok(self.install_handle(space, data, true))
    }

    fn install_handle(&mut self, space: Space, data: Payload, writable: bool) -> u64 {
        let h = self.next_handle;
        self.next_handle += 1;
        self.open_files.insert(
            h,
            OpenFile {
                space,
                data,
                dirty: false,
                writable,
            },
        );
        h
    }

    /// Reads the whole contents through an open handle. "After the file is
    /// opened, individual read and write operations are directed to the
    /// cached copy. Virtue does not communicate with Vice in performing
    /// these operations" (Section 3.2).
    pub fn read(&mut self, handle: u64) -> Result<&[u8], VenusError> {
        let f = self
            .open_files
            .get(&handle)
            .ok_or(VenusError::BadHandle(handle))?;
        self.stats.local_reads += 1;
        Ok(f.data.as_slice())
    }

    /// The open file behind a writable handle, marked modified.
    fn modified(&mut self, handle: u64) -> Result<&mut OpenFile, VenusError> {
        let f = self
            .open_files
            .get_mut(&handle)
            .ok_or(VenusError::BadHandle(handle))?;
        if !f.writable {
            return Err(VenusError::Vice(ViceError::PermissionDenied(
                "handle opened read-only".to_string(),
            )));
        }
        f.dirty = true;
        Ok(f)
    }

    /// Replaces the contents through an open (writable) handle. No server
    /// communication happens until close.
    pub fn write(&mut self, handle: u64, data: Vec<u8>) -> Result<(), VenusError> {
        self.modified(handle)?.data = Payload::from_vec(data);
        Ok(())
    }

    /// Appends bytes through an open handle.
    pub fn append(&mut self, handle: u64, bytes: &[u8]) -> Result<(), VenusError> {
        let f = self.modified(handle)?;
        f.data.make_mut().extend_from_slice(bytes);
        Ok(())
    }

    /// Closes a handle. "When the file is closed, the cache copy is
    /// transmitted to the appropriate custodian" — store-on-close
    /// (Section 3.2), adopted "to simplify recovery from workstation
    /// crashes" and to approximate timesharing visibility semantics.
    pub fn close(&mut self, t: &mut dyn ViceTransport, handle: u64) -> Result<(), VenusError> {
        self.charge_intercept();
        let f = self
            .open_files
            .remove(&handle)
            .ok_or(VenusError::BadHandle(handle))?;
        if !f.dirty {
            return Ok(());
        }
        match f.space {
            Space::Local(p) => {
                self.charge_local_disk(f.data.len() as u64);
                let now_us = self.now.as_micros();
                self.namespace.local_mut().write(&p, 0, now_us, f.data)?;
                Ok(())
            }
            Space::Vice(vp) => {
                if let WritePolicy::Delayed(delay) = self.write_policy {
                    // Deferred write-back: update the local cache copy and
                    // schedule the flush; repeated closes coalesce.
                    self.charge_local_disk(f.data.len() as u64);
                    let cached = self.cache.peek(&vp).map(|e| e.status.clone());
                    let mut status = cached.unwrap_or_else(|| provisional_status(&vp));
                    status.size = f.data.len() as u64;
                    status.mtime = self.now.as_micros();
                    self.cache
                        .insert(&vp, f.data, status, cache::EntryKind::File);
                    let deadline = self.now + delay;
                    self.dirty.entry(vp).or_insert(deadline);
                    return Ok(());
                }
                self.store_back(t, &vp, f.data)
            }
        }
    }

    /// Transmits a whole file to its custodian and refreshes the cache
    /// entry with the authoritative status. The request, any retries, and
    /// the refreshed cache entry all share `data`'s allocation.
    fn store_back(
        &mut self,
        t: &mut dyn ViceTransport,
        vp: &str,
        data: Payload,
    ) -> Result<(), VenusError> {
        // Reading the cached copy off the local disk to transmit.
        self.charge_local_disk(data.len() as u64);
        let req = ViceRequest::Store {
            path: vp.to_string(),
            data: data.clone(),
        };
        let status = self.vice(t, &req, status_reply)?;
        self.stats.stores += 1;
        self.stats.bytes_stored += data.len() as u64;
        self.cache.update(vp, data, status);
        Ok(())
    }

    /// Number of dirty files awaiting a deferred flush.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Flushes deferred writes whose deadline has passed (no-op under
    /// store-on-close). Invoked before every operation by the system
    /// layer, and explicitly by `flush_all`.
    pub fn flush_due(&mut self, t: &mut dyn ViceTransport) -> Result<usize, VenusError> {
        let now = self.now;
        self.flush_matching(t, |deadline| deadline <= now)
    }

    /// Flushes every deferred write immediately (logout, shutdown).
    pub fn flush_all(&mut self, t: &mut dyn ViceTransport) -> Result<usize, VenusError> {
        self.flush_matching(t, |_| true)
    }

    fn flush_matching(
        &mut self,
        t: &mut dyn ViceTransport,
        pred: impl Fn(SimTime) -> bool,
    ) -> Result<usize, VenusError> {
        let due: Vec<String> = self
            .dirty
            .iter()
            .filter(|(_, &d)| pred(d))
            .map(|(p, _)| p.clone())
            .collect();
        let mut flushed = 0;
        for p in due {
            let Some(entry) = self.cache.peek(&p) else {
                self.dirty.remove(&p);
                continue;
            };
            let data = entry.data.clone();
            self.store_back(t, &p, data)?;
            self.dirty.remove(&p);
            flushed += 1;
        }
        Ok(flushed)
    }

    /// Simulates a workstation crash: every unflushed deferred write is
    /// lost, and the cache is wiped (the paper's rationale for
    /// store-on-close — "to simplify recovery from workstation crashes").
    /// Returns the number of updates lost.
    pub fn crash(&mut self) -> usize {
        let lost = self.dirty.len();
        self.dirty.clear();
        self.cache.clear();
        self.open_files.clear();
        lost
    }

    /// `stat(2)`: local files answer locally; Vice files answer from a
    /// valid cached status (callback mode) or with a GetStatus call.
    pub fn stat(&mut self, t: &mut dyn ViceTransport, path: &str) -> Result<VStatus, VenusError> {
        self.charge_intercept();
        match self.namespace.classify(path, true)? {
            Space::Local(p) => {
                let a = self.namespace.local().stat(&p)?;
                Ok(local_status(&p, &a))
            }
            Space::Vice(vp) => {
                if let Some(e) = self.cache.peek(&vp) {
                    // A dirty copy's status is the newest in existence; in
                    // callback mode so is one under a standing promise.
                    let promised = self.validation == ValidationMode::Callback
                        && (e.valid || e.status.read_only);
                    if promised || self.dirty.contains_key(&vp) {
                        return Ok(e.status.clone());
                    }
                }
                let req = ViceRequest::GetStatus { path: vp };
                self.vice(t, &req, status_reply)
            }
        }
    }

    /// Lists a directory.
    pub fn readdir(
        &mut self,
        t: &mut dyn ViceTransport,
        path: &str,
    ) -> Result<Vec<(String, EntryKind)>, VenusError> {
        self.charge_intercept();
        match self.namespace.classify(path, true)? {
            Space::Local(p) => {
                let entries = self.namespace.local().readdir(&p)?;
                let local = self.namespace.local();
                Ok(entries
                    .into_iter()
                    .map(|(name, ino)| (name, local.attr_of(ino).expect("entry").ftype.into()))
                    .collect())
            }
            Space::Vice(vp) => {
                let req = ViceRequest::ListDir { path: vp };
                self.vice(t, &req, |r| match r {
                    ViceReply::Listing(l) => Some(l),
                    _ => None,
                })
            }
        }
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, t: &mut dyn ViceTransport, path: &str) -> Result<(), VenusError> {
        self.charge_intercept();
        match self.namespace.classify(path, true)? {
            Space::Local(p) => {
                let now_us = self.now.as_micros();
                self.namespace
                    .local_mut()
                    .mkdir(&p, Mode::DIR_DEFAULT, 0, now_us)?;
                Ok(())
            }
            Space::Vice(vp) => {
                let req = ViceRequest::MakeDir { path: vp.clone() };
                self.vice(t, &req, |r| {
                    matches!(r, ViceReply::Status(_) | ViceReply::Ok).then_some(())
                })?;
                // Our cached copy of the parent listing is stale.
                if let Ok((parent, _)) = dirname_basename(&vp) {
                    self.cache.invalidate(&parent);
                }
                Ok(())
            }
        }
    }

    /// Removes a file or symlink.
    pub fn unlink(&mut self, t: &mut dyn ViceTransport, path: &str) -> Result<(), VenusError> {
        self.charge_intercept();
        match self.namespace.classify(path, false)? {
            Space::Local(p) => {
                let now_us = self.now.as_micros();
                self.namespace.local_mut().unlink(&p, now_us)?;
                Ok(())
            }
            Space::Vice(vp) => {
                let req = ViceRequest::Remove { path: vp.clone() };
                self.vice(t, &req, ok_reply)?;
                self.cache.remove(&vp);
                if let Ok((parent, _)) = dirname_basename(&vp) {
                    self.cache.invalidate(&parent);
                }
                Ok(())
            }
        }
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, t: &mut dyn ViceTransport, path: &str) -> Result<(), VenusError> {
        self.charge_intercept();
        match self.namespace.classify(path, false)? {
            Space::Local(p) => {
                let now_us = self.now.as_micros();
                self.namespace.local_mut().rmdir(&p, now_us)?;
                Ok(())
            }
            Space::Vice(vp) => {
                let req = ViceRequest::RemoveDir { path: vp.clone() };
                self.vice(t, &req, ok_reply)?;
                self.cache.remove(&vp);
                Ok(())
            }
        }
    }

    /// Renames within one space. (Cross-space renames are a copy in Unix
    /// too — `mv` falls back to copy+unlink — and are not emulated here.)
    pub fn rename(
        &mut self,
        t: &mut dyn ViceTransport,
        from: &str,
        to: &str,
    ) -> Result<(), VenusError> {
        self.charge_intercept();
        let f = self.namespace.classify(from, false)?;
        let d = self.namespace.classify(to, false)?;
        match (f, d) {
            (Space::Local(a), Space::Local(b)) => {
                let now_us = self.now.as_micros();
                self.namespace.local_mut().rename(&a, &b, now_us)?;
                Ok(())
            }
            (Space::Vice(a), Space::Vice(b)) => {
                let req = ViceRequest::Rename {
                    from: a.clone(),
                    to: b.clone(),
                };
                self.vice(t, &req, ok_reply)?;
                self.cache.remove(&a);
                self.cache.remove(&b);
                Ok(())
            }
            _ => Err(VenusError::Vice(ViceError::BadRequest(
                "rename across local/shared boundary".to_string(),
            ))),
        }
    }

    /// Creates a symbolic link (in either space; Vice symlinks are a
    /// revised-design feature, Section 5.3).
    pub fn symlink(
        &mut self,
        t: &mut dyn ViceTransport,
        path: &str,
        target: &str,
    ) -> Result<(), VenusError> {
        self.charge_intercept();
        match self.namespace.classify(path, false)? {
            Space::Local(p) => {
                let now_us = self.now.as_micros();
                self.namespace.local_mut().symlink(&p, target, 0, now_us)?;
                Ok(())
            }
            Space::Vice(vp) => {
                let req = ViceRequest::MakeSymlink {
                    path: vp,
                    target: target.to_string(),
                };
                self.vice(t, &req, ok_reply)
            }
        }
    }

    /// The Vice path an access-list operation on `path` targets.
    fn acl_target(&mut self, path: &str) -> Result<String, VenusError> {
        self.charge_intercept();
        match self.namespace.classify(path, true)? {
            Space::Local(_) => Err(VenusError::Vice(ViceError::BadRequest(
                "local files have no access lists".to_string(),
            ))),
            Space::Vice(vp) => Ok(vp),
        }
    }

    /// Reads a directory's access list.
    pub fn get_acl(
        &mut self,
        t: &mut dyn ViceTransport,
        path: &str,
    ) -> Result<AccessList, VenusError> {
        let path = self.acl_target(path)?;
        self.vice(t, &ViceRequest::GetAcl { path }, |r| match r {
            ViceReply::Acl(a) => Some(a),
            _ => None,
        })
    }

    /// Replaces a directory's access list.
    pub fn set_acl(
        &mut self,
        t: &mut dyn ViceTransport,
        path: &str,
        acl: AccessList,
    ) -> Result<(), VenusError> {
        let path = self.acl_target(path)?;
        self.vice(t, &ViceRequest::SetAcl { path, acl }, ok_reply)
    }

    /// Acquires an advisory lock.
    pub fn lock(
        &mut self,
        t: &mut dyn ViceTransport,
        path: &str,
        exclusive: bool,
    ) -> Result<(), VenusError> {
        self.charge_intercept();
        match self.namespace.classify(path, true)? {
            Space::Local(_) => Ok(()), // local files need no distributed locks
            Space::Vice(vp) => {
                let req = ViceRequest::SetLock {
                    path: vp,
                    exclusive,
                };
                self.vice(t, &req, ok_reply)
            }
        }
    }

    /// Releases an advisory lock.
    pub fn unlock(&mut self, t: &mut dyn ViceTransport, path: &str) -> Result<(), VenusError> {
        self.charge_intercept();
        match self.namespace.classify(path, true)? {
            Space::Local(_) => Ok(()),
            Space::Vice(vp) => {
                let req = ViceRequest::ReleaseLock { path: vp };
                self.vice(t, &req, ok_reply)
            }
        }
    }

    /// Convenience: open-read-close in one call.
    pub fn fetch_file(
        &mut self,
        t: &mut dyn ViceTransport,
        path: &str,
    ) -> Result<Vec<u8>, VenusError> {
        let h = self.open_read(t, path)?;
        let data = self.read(h)?.to_vec();
        self.close(t, h)?;
        Ok(data)
    }

    /// Convenience: open-write-close in one call.
    pub fn store_file(
        &mut self,
        t: &mut dyn ViceTransport,
        path: &str,
        data: Vec<u8>,
    ) -> Result<(), VenusError> {
        let h = self.open_write(t, path)?;
        self.write(h, data)?;
        self.close(t, h)
    }
}

/// Applies the reply contract to one exchange: see [`Venus::vice`].
fn picked<R>(
    req: &ViceRequest,
    reply: ViceReply,
    pick: impl FnOnce(ViceReply) -> Option<R>,
) -> Result<R, VenusError> {
    match reply {
        ViceReply::Error(e) => Err(VenusError::Vice(e)),
        reply => pick(reply).ok_or(VenusError::ProtocolMismatch(req.kind())),
    }
}

/// Accepts a bare `Ok` (what most mutations answer).
fn ok_reply(r: ViceReply) -> Option<()> {
    (r == ViceReply::Ok).then_some(())
}

/// Accepts a status block.
fn status_reply(r: ViceReply) -> Option<VStatus> {
    match r {
        ViceReply::Status(s) => Some(s),
        _ => None,
    }
}

/// Accepts what a `Fetch` may answer: the data, or a symlink's target.
fn data_or_link(r: ViceReply) -> Option<ViceReply> {
    matches!(r, ViceReply::Data { .. } | ViceReply::Link(_)).then_some(r)
}

/// A placeholder status for a file created locally under the delayed
/// write policy, before the custodian has ever seen it.
fn provisional_status(path: &str) -> VStatus {
    VStatus {
        path: path.to_string(),
        fid: 0, // unknown until the first flush
        kind: EntryKind::File,
        size: 0,
        version: 0,
        mtime: 0,
        mode: 0o644,
        owner: 0,
        read_only: false,
    }
}

fn local_status(path: &str, a: &itc_unixfs::InodeAttr) -> VStatus {
    VStatus {
        path: path.to_string(),
        fid: a.ino.0,
        kind: a.ftype.into(),
        size: a.size,
        version: a.version,
        mtime: a.mtime,
        mode: a.mode.0,
        owner: a.uid,
        read_only: false,
    }
}
