//! The Vice cluster server.
//!
//! "No user programs are executed on any Vice machine" (Section 2.3): a
//! server does exactly what [`Server::handle`] implements — it stores the
//! volumes it is custodian of, answers location queries, validates cached
//! copies (or maintains callback promises in the revised design), enforces
//! protection on every call using the identity the RPC handshake
//! authenticated, and serves whole-file fetch and store.
//!
//! The server never trusts anything a workstation claims: the caller's name
//! handed to [`Server::handle`] comes from the binding, not the request,
//! the request body is wire bytes until [`Server::serve`] decodes it, and
//! every request is re-checked against the access lists by one gate
//! (`authorize`) even if Venus already checked client-side. A name a
//! request carries must already be normal (`itc_unixfs::normalize`): one
//! object, one spelling, so promises and locks keyed by name cannot be
//! split by an alias.
//!
//! A server is one cluster's shard of a run: its volumes, disk, CPU,
//! promises, locks and counters are its own, written through the `&mut`
//! the shard gives. What every server reads — the protection and location
//! databases, which the paper replicates at each site — is not: the system
//! keeps one copy of each and lends it to every call as part of the
//! [`Caller`].

mod locks;

pub use locks::{LockKind, LockTable};

use crate::config::SystemConfig;
use crate::disk::{
    CorruptionEvent, CorruptionOutcome, Disk, FlipRegion, JournalOp, JournalStats, SalvageReport,
    ScrubScan, ScrubStats, SyncPolicy,
};
use crate::location::LocationDb;
use crate::protect::{AccessList, ProtectionDomain, Rights};
use crate::proto::{
    decode_request, parent_of, Payload, ServerId, VStatus, ViceError, ViceReply, ViceRequest,
};
use crate::volume::{Volume, VolumeError, VolumeId};
use itc_rpc::{NodeId, RpcStats};
use itc_sim::{Costs, Resource, SimTime, TraversalMode, ValidationMode};
use itc_unixfs::{normalize, FileType, FsError};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// A request the server has opened and un-framed, riding the call from
/// arrival to dispatch. The body is still wire bytes: decoding happens at
/// service time, exactly where a real server would parse the datagram it
/// received. The caller's identity is not here: the dispatcher reads it
/// from the binding the request arrived on (see [`Server::serve`]).
#[derive(Debug)]
pub struct QueuedRequest {
    /// The caller's network node.
    pub from: NodeId,
    /// Idempotency token framed ahead of the request body.
    pub token: u64,
    /// Causal trace identity carried in the call frame
    /// ([`itc_sim::TraceId::NONE`] when the client had tracing off).
    pub trace: itc_sim::TraceId,
    /// Undecoded request head (everything but file contents).
    pub body: Vec<u8>,
    /// The request's out-of-band bulk payload, shared by refcount with the
    /// client's copy (a `Store`'s file bytes ride here, uncopied).
    pub payload: Option<Payload>,
}

/// One remembered mutation: its idempotency token, its request head with
/// the authenticated user's name appended, the head's length, and the
/// reply.
type Replayed = (u64, Vec<u8>, usize, ViceReply);

/// Cost components of one handled call, consumed by the timing kernel.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallCost {
    /// Handler CPU beyond fixed dispatch.
    pub server_cpu: SimTime,
    /// Bytes moved through the server disk.
    pub disk_bytes: u64,
    /// Whether the lock-server process was consulted.
    pub lock_ipc: bool,
}

/// Who is calling, as the server sees it: the name the RPC binding
/// authenticated, the protection database its rights are read from, and
/// the location database custodianship is read from. Neither database is
/// the server's own: the paper replicates both at every server, the
/// replicas are identical, so the system keeps one copy of each and lends
/// it to every call.
pub type Caller<'a> = (&'a str, &'a ProtectionDomain, &'a LocationDb);

/// A Vice cluster server.
#[derive(Debug)]
pub struct Server {
    id: ServerId,
    node: NodeId,
    cpu: Resource,
    disk: Resource,
    volumes: Vec<Volume>,
    /// Outstanding callback promises. A `BTreeMap` of `BTreeSet`s, not
    /// hash collections: break fan-out feeds the event calendars, so every
    /// iteration here must be a function of the seed alone.
    callbacks: BTreeMap<String, BTreeSet<NodeId>>,
    locks: LockTable,
    stats: RpcStats,
    validation: ValidationMode,
    traversal: TraversalMode,
    /// Undelivered break messages, each `(workstation, invalidated paths)`.
    pending_breaks: Vec<(NodeId, Vec<String>)>,
    /// Batch break notifications per recipient workstation (see
    /// [`crate::SystemConfig::callback_break_batching`]): one message then
    /// carries every pending path for its workstation, otherwise exactly
    /// one.
    break_batching: bool,
    online: bool,
    /// Incarnation counter, bumped on every crash. Venus compares this to
    /// the epoch it last saw to detect that the server lost its callback
    /// state while the workstation wasn't looking.
    epoch: u64,
    /// Each user's last applied mutation at each workstation, keyed by the
    /// workstation's node and a slot per user seen there. A workstation
    /// has at most one call in flight, so a retry always carries its
    /// user's newest token: a retried mutation whose reply was lost is
    /// answered from here instead of being applied twice, no older entry
    /// could ever be asked for, and another user's call from the same
    /// workstation leaves the entry alone.
    replay: BTreeMap<(NodeId, u32), Replayed>,
    /// The durable storage under the volumes: checkpoints plus the
    /// write-ahead journal.
    storage: Disk,
    /// Volumes taken offline by a crash and not yet salvaged.
    salvage_pending: Vec<VolumeId>,
    /// Reports of completed salvage passes, in completion order.
    salvage_reports: Vec<SalvageReport>,
    /// Background scrubber rotation cursor (index into the disk's
    /// ascending volume list; one volume is scanned per pass).
    scrub_cursor: usize,
    /// Running scrubber counters.
    scrub_stats: ScrubStats,
    /// Ledger of injected silent corruptions and their detection fates —
    /// the evidence behind the "zero undetected" acceptance sweep.
    corruption_log: Vec<CorruptionEvent>,
    /// Volumes an integrity verifier just took offline, as `(volume,
    /// path)`; drained by the transport to freeze `IntegrityFault`
    /// anomalies.
    integrity_events: Vec<(VolumeId, String)>,
}

impl Server {
    /// Creates a server with no volumes, its validation, traversal and
    /// break-batching settings taken from `config`.
    pub fn new(id: ServerId, node: NodeId, config: &SystemConfig) -> Server {
        Server {
            id,
            node,
            cpu: Resource::new(format!("server{}-cpu", id.0)),
            disk: Resource::new(format!("server{}-disk", id.0)),
            volumes: Vec::new(),
            callbacks: BTreeMap::new(),
            locks: LockTable::new(),
            stats: RpcStats::new(),
            validation: config.validation,
            traversal: config.traversal,
            pending_breaks: Vec::new(),
            break_batching: config.callback_break_batching,
            online: true,
            epoch: 0,
            replay: BTreeMap::new(),
            storage: Disk::new(SyncPolicy::WriteAhead),
            salvage_pending: Vec::new(),
            salvage_reports: Vec::new(),
            scrub_cursor: 0,
            scrub_stats: ScrubStats::default(),
            corruption_log: Vec::new(),
            integrity_events: Vec::new(),
        }
    }

    /// Whether the machine is up (the availability goal of Section 2.2:
    /// single machine failures must only affect "small groups of users").
    pub fn is_online(&self) -> bool {
        self.online
    }

    /// Takes the whole server down or brings it back.
    pub fn set_online(&mut self, online: bool) {
        self.online = online;
    }

    /// Simulates a machine crash: the server goes down and all in-memory
    /// state dies with it — callback promises (Section 3.2: callback state
    /// is soft and must be reconstructible), the mutation replay cache,
    /// advisory locks, and undelivered callback breaks. Files and
    /// directories live on disk, but *only* to the extent the write-ahead
    /// journal was forced: of the unsynced journal window, exactly `torn`
    /// bytes made it to the platter (the fault plan's seed-controlled
    /// torn-write point), and the log is truncated at the last complete
    /// committed record within them. Every volume goes offline until a
    /// salvage pass rebuilds it from checkpoint + surviving journal. The
    /// incarnation epoch is bumped so workstations discover the loss on
    /// next contact and revalidate their caches. Returns the journal bytes
    /// discarded.
    pub fn crash_with_torn(&mut self, torn: u64) -> u64 {
        self.online = false;
        self.epoch += 1;
        self.callbacks.clear();
        self.replay.clear();
        self.locks = LockTable::new();
        self.pending_breaks.clear();
        let discarded = self.storage.crash_truncate(torn);
        for v in &mut self.volumes {
            v.set_online(false);
        }
        self.salvage_pending = self.volumes.iter().map(Volume::id).collect();
        discarded
    }

    /// [`Self::crash_with_torn`] with a fully synced log (nothing to tear)
    /// — the operator-initiated clean crash.
    pub fn crash(&mut self) {
        self.crash_with_torn(0);
    }

    /// Brings a crashed server back up. The machine answers the network
    /// again, but its volumes stay offline until salvaged — callers see
    /// [`ViceError::VolumeOffline`] in the window between restart and the
    /// completion of each volume's salvage pass.
    pub fn restart(&mut self) {
        self.online = true;
    }

    /// Volumes awaiting salvage, in installation order.
    pub fn salvage_pending(&self) -> &[VolumeId] {
        &self.salvage_pending
    }

    /// Replay work a salvage of `vid` would do, as `(records, bytes)` —
    /// the inputs to [`itc_sim::Costs::salvage_time`].
    pub fn salvage_work(&self, vid: VolumeId) -> (u64, u64) {
        self.storage.salvage_work(vid)
    }

    /// Salvages one volume at `at`: rebuilds it from its checkpoint plus
    /// the surviving committed journal records, verifies invariants, and
    /// swaps the rebuilt (online) image in. A pass whose trailer
    /// verification rejected journal records has caught the flipped bytes
    /// behind them (the damaged suffix never replays): every latent journal
    /// flip is marked [`CorruptionOutcome::RejectedAtSalvage`] at `at`.
    /// Returns the report, or `None` if the disk holds no checkpoint for
    /// `vid`.
    pub fn salvage_volume(&mut self, vid: VolumeId, at: SimTime) -> Option<SalvageReport> {
        self.salvage_pending.retain(|&v| v != vid);
        let (vol, report) = self.storage.salvage(vid)?;
        if let Some(slot) = self.volumes.iter_mut().find(|v| v.id() == vid) {
            *slot = vol;
        }
        if report.records_rejected > 0 {
            self.mark_corruptions_detected(at, CorruptionOutcome::RejectedAtSalvage, |r| {
                matches!(r, FlipRegion::Journal { .. })
            });
        }
        self.salvage_reports.push(report.clone());
        Some(report)
    }

    /// Salvages every pending volume at `at` (the operator-driven path;
    /// the event calendar drives per-volume passes with timing).
    pub fn salvage_all(&mut self, at: SimTime) {
        for vid in std::mem::take(&mut self.salvage_pending) {
            self.salvage_volume(vid, at);
        }
    }

    /// Reports of completed salvage passes, oldest first.
    pub fn salvage_reports(&self) -> &[SalvageReport] {
        &self.salvage_reports
    }

    /// Journal counters of the server's disk.
    pub fn journal_stats(&self) -> JournalStats {
        self.storage.journal().stats()
    }

    /// Journal bytes a crash right now could tear.
    pub fn unsynced_journal_bytes(&self) -> u64 {
        self.storage.unsynced()
    }

    /// Switches the journal sync policy.
    pub fn set_sync_policy(&mut self, policy: SyncPolicy) {
        self.storage.set_policy(policy);
    }

    /// Forces the journal per policy; the transport layer calls this when
    /// a dispatched request completes, *before* the reply departs — the
    /// write-ahead guarantee that no acknowledged mutation can be torn.
    /// Under [`SyncPolicy::Lazy`] this is a no-op.
    pub fn sync_journal(&mut self) {
        if self.storage.policy() == SyncPolicy::WriteAhead {
            self.storage.sync();
        }
    }

    /// Routes one mutation through the write-ahead journal: intent record,
    /// apply to the in-memory volume, commit/abort trailer. The op moves
    /// into its record and is applied from there.
    fn journal_apply(&mut self, vol_idx: usize, op: JournalOp) -> Result<(), VolumeError> {
        let vid = self.volumes[vol_idx].id();
        let seq = self.storage.begin(vid, op);
        let logged = &self.storage.journal().records().last().expect("begun").op;
        let res = logged.apply(&mut self.volumes[vol_idx]);
        self.storage.commit(seq, res.is_ok());
        res
    }

    /// Journals an administrative mutation against volume `vid` and forces
    /// it durable immediately (operator actions never sit in the unsynced
    /// window, whatever the policy).
    pub fn admin_apply(&mut self, vid: VolumeId, op: JournalOp) -> Result<(), VolumeError> {
        let idx = self
            .volumes
            .iter()
            .position(|v| v.id() == vid)
            .ok_or(VolumeError::Offline)?;
        let res = self.journal_apply(idx, op);
        self.storage.sync();
        res
    }

    /// The server's incarnation epoch (crash count).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    // ------------------------------------------------------------------
    // End-to-end integrity: corruption injection, scrubbing, repair
    // ------------------------------------------------------------------

    /// Read access to the durable storage (checkpoints + journal).
    pub fn storage(&self) -> &Disk {
        &self.storage
    }

    /// Total durable bytes a silent flip could land in (see
    /// [`Disk::durable_extent`]).
    pub fn durable_extent(&self) -> u64 {
        self.storage.durable_extent()
    }

    /// Lands one silent flip on the durable address space and logs it in
    /// the corruption ledger as latent (undetected). Returns where the
    /// damage landed, or `None` when the offset fell outside every region.
    pub fn apply_corruption(&mut self, at: SimTime, offset: u64, mask: u8) -> Option<FlipRegion> {
        let region = self.storage.apply_flip(offset, mask)?;
        self.corruption_log.push(CorruptionEvent {
            injected_at: at,
            region: region.clone(),
            detected_at: None,
            outcome: CorruptionOutcome::Latent,
        });
        Some(region)
    }

    /// The corruption ledger, injection order.
    pub fn corruption_log(&self) -> &[CorruptionEvent] {
        &self.corruption_log
    }

    /// Marks every still-latent ledger entry matching `pred` as detected
    /// at `at` with the given outcome. Returns how many were marked.
    pub fn mark_corruptions_detected(
        &mut self,
        at: SimTime,
        outcome: CorruptionOutcome,
        pred: impl Fn(&FlipRegion) -> bool,
    ) -> u64 {
        let mut marked = 0;
        for ev in &mut self.corruption_log {
            if ev.outcome == CorruptionOutcome::Latent && pred(&ev.region) {
                ev.detected_at = Some(at);
                ev.outcome = outcome;
                marked += 1;
            }
        }
        marked
    }

    /// The volume the scrubber's rotation visits next (ascending volume
    /// id, one per pass); advances the cursor. `None` on a diskless
    /// server.
    pub fn next_scrub_volume(&mut self) -> Option<VolumeId> {
        let vids = self.storage.volumes_on_disk();
        if vids.is_empty() {
            return None;
        }
        let vid = vids[self.scrub_cursor % vids.len()];
        self.scrub_cursor = (self.scrub_cursor + 1) % vids.len();
        Some(vid)
    }

    /// Runs the digest scan of one scrub pass over `vid`'s checkpoint
    /// image and folds the scan into the running counters. Repair of any
    /// findings is the transport layer's job (it can see other servers'
    /// replicas).
    pub fn scrub_scan(&mut self, vid: VolumeId) -> Option<ScrubScan> {
        let scan = self.storage.scrub_volume(vid)?;
        self.scrub_stats.passes += 1;
        self.scrub_stats.volumes_scanned += 1;
        self.scrub_stats.files_scanned += scan.files;
        self.scrub_stats.bytes_scanned += scan.bytes;
        self.scrub_stats.mismatches_detected += scan.findings.len() as u64;
        Some(scan)
    }

    /// Scrubber counters.
    pub fn scrub_stats(&self) -> ScrubStats {
        self.scrub_stats
    }

    /// Repairs one file of `vid` with bytes a replica vouched for: the
    /// checkpoint image is restored quietly, and the live volume too if
    /// its copy of the file also fails the digest. Counts toward the
    /// scrubber's repair stat.
    pub fn repair_file(&mut self, vid: VolumeId, path: &str, data: impl Into<Payload>) -> bool {
        let data = data.into();
        let expected = data.digest();
        let repaired = self.storage.repair_checkpoint_file(vid, path, data.clone());
        if let Some(vol) = self.volume_mut(vid) {
            let live_damaged = vol
                .fs()
                .read(path)
                .is_ok_and(|cur| cur.digest() != expected);
            if live_damaged {
                vol.restore_file(path, data);
            }
        }
        if repaired {
            self.scrub_stats.repaired += 1;
        }
        repaired
    }

    /// Terminal state of an unrepairable corruption: the volume (live
    /// image and checkpoint) goes offline rather than serve bytes nothing
    /// can vouch for, and an integrity event is queued for the transport
    /// to surface as an `IntegrityFault` anomaly.
    pub fn offline_volume_for_integrity(&mut self, vid: VolumeId, path: &str) {
        if let Some(vol) = self.volume_mut(vid) {
            vol.set_online(false);
        }
        self.storage.offline_checkpoint(vid);
        self.scrub_stats.offlined += 1;
        self.integrity_events.push((vid, path.to_string()));
    }

    /// Takes the integrity events queued since the last drain.
    pub fn drain_integrity_events(&mut self) -> Vec<(VolumeId, String)> {
        std::mem::take(&mut self.integrity_events)
    }

    /// The replay slot of `user` at workstation `from`: the user's own if
    /// the cache holds one, else the next free slot at that node.
    fn replay_slot(&self, from: NodeId, user: &str) -> (NodeId, u32) {
        let mut free = 0;
        for (&(_, slot), (_, call, head, _)) in self.replay.range((from, 0)..=(from, u32::MAX)) {
            if &call[*head..] == user.as_bytes() {
                return (from, slot);
            }
            free = slot + 1;
        }
        (from, free)
    }

    /// The remembered reply to `qr`, if it retries `user`'s last mutation
    /// from that workstation: the same token and the same request head.
    pub fn replay_lookup(&self, user: &str, qr: &QueuedRequest) -> Option<&ViceReply> {
        let (token, call, head, reply) = self.replay.get(&self.replay_slot(qr.from, user))?;
        (*token == qr.token && call[..*head] == qr.body).then_some(reply)
    }

    /// Remembers `reply` to `user`'s mutation `qr`, replacing that user's
    /// previous one at the workstation (which no retry can reach any more:
    /// the workstation has moved on to a newer call) — unless that entry
    /// holds the same token, which a reused token leaves for its genuine
    /// retry. A head opened off the wire keeps the allocation of its sealed
    /// envelope, so appending the name allocates nothing.
    pub fn replay_record(&mut self, user: &str, qr: QueuedRequest, reply: ViceReply) {
        let slot = self.replay_slot(qr.from, user);
        if self.replay.get(&slot).is_some_and(|e| e.0 == qr.token) {
            return;
        }
        let mut call = qr.body;
        let head = call.len();
        call.extend_from_slice(user.as_bytes());
        self.replay.insert(slot, (qr.token, call, head, reply));
    }

    /// Number of remembered mutation replies (for tests).
    pub fn replay_entries(&self) -> usize {
        self.replay.len()
    }

    /// Server id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Network node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The server's CPU resource.
    pub fn cpu(&self) -> &Resource {
        &self.cpu
    }

    /// The server's disk resource.
    pub fn disk(&self) -> &Resource {
        &self.disk
    }

    /// The CPU and disk, to charge (the timing kernel queues calls on
    /// them; operator actions and salvage passes charge them directly).
    pub fn resources_mut(&mut self) -> (&mut Resource, &mut Resource) {
        (&mut self.cpu, &mut self.disk)
    }

    /// Call statistics.
    pub fn stats(&self) -> &RpcStats {
        &self.stats
    }

    /// Installs a volume on this server. The disk checkpoints the image
    /// as-installed, so a crash before any journaled mutation salvages
    /// back to exactly this state.
    pub fn add_volume(&mut self, volume: Volume) {
        self.storage.checkpoint(&volume);
        self.volumes.push(volume);
    }

    /// Removes a volume by id (for moves), returning it. Its checkpoint
    /// leaves the disk with it.
    pub fn take_volume(&mut self, id: VolumeId) -> Option<Volume> {
        let idx = self.volumes.iter().position(|v| v.id() == id)?;
        self.storage.drop_volume(id);
        self.salvage_pending.retain(|&v| v != id);
        Some(self.volumes.remove(idx))
    }

    /// Re-checkpoints a hosted volume after an out-of-band mutation that
    /// legitimately bypasses the journal (cloning bumps the source's
    /// serial; a replica refresh rewrites its whole tree).
    pub fn recheckpoint(&mut self, id: VolumeId) {
        if let Some(v) = self.volumes.iter().find(|v| v.id() == id) {
            self.storage.checkpoint(v);
        }
    }

    /// The hosted volumes.
    pub fn volumes(&self) -> &[Volume] {
        &self.volumes
    }

    /// The id of the hosted volume covering `vice_path`, if any — the most
    /// specific mount wins when volumes nest. Read-only: used by the
    /// tracing layer to attribute a call to a volume.
    pub fn volume_covering(&self, vice_path: &str) -> Option<VolumeId> {
        self.volumes
            .iter()
            .filter(|v| v.covers(vice_path))
            .max_by_key(|v| v.mount().len())
            .map(Volume::id)
    }

    /// Mutable access to a hosted volume by id.
    pub fn volume_mut(&mut self, id: VolumeId) -> Option<&mut Volume> {
        self.volumes.iter_mut().find(|v| v.id() == id)
    }

    /// Finds the hosted volume covering `path`, preferring the longest
    /// mount and, among equals, a writable volume over a read-only replica
    /// when `want_write`.
    fn volume_for(&self, path: &str, want_write: bool) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, v) in self.volumes.iter().enumerate() {
            if !v.covers(path) {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    let bv = &self.volumes[b];
                    let longer = v.mount().len() > bv.mount().len();
                    let same = v.mount().len() == bv.mount().len();
                    longer || (same && want_write && bv.is_read_only() && !v.is_read_only())
                }
            };
            if better {
                best = Some(i);
            }
        }
        best
    }

    /// Takes the callback-break messages generated by recent calls, each
    /// `(workstation, paths)` already grouped as the batching policy
    /// dictates; the system layer delivers them (one-way messages) and
    /// invalidates caches.
    pub fn drain_breaks(&mut self) -> Vec<(NodeId, Vec<String>)> {
        std::mem::take(&mut self.pending_breaks)
    }

    /// Number of callback promises currently outstanding (server state the
    /// check-on-open design avoids, at the price of validation traffic).
    pub fn callback_promises(&self) -> usize {
        self.callbacks.values().map(BTreeSet::len).sum()
    }

    /// Records statistics for a completed call (invoked by the system layer
    /// once timing is known).
    pub fn record_call(&mut self, kind: &str, elapsed: SimTime) {
        self.stats.record(kind, elapsed);
    }

    // ------------------------------------------------------------------
    // Request handling
    // ------------------------------------------------------------------

    /// Serves one arrived request: decodes the wire body, answers a
    /// retried mutation from the replay cache instead of applying it twice
    /// (the exactly-once rule), otherwise runs [`Self::handle`] and
    /// remembers a mutation's reply. A token reused by another user or
    /// for another request is a fresh call through the gate. `caller` names
    /// the identity the request's binding authenticated — never anything
    /// the request says —
    /// and `now` is what the handler is shown as the current time. A
    /// replayed or undecodable request charges nothing.
    pub fn serve(
        &mut self,
        caller: Caller<'_>,
        mut qr: QueuedRequest,
        now: SimTime,
        costs: &Costs,
    ) -> (ViceReply, CallCost) {
        let req = match decode_request(&qr.body, qr.payload.take()) {
            Ok(req) => req,
            Err(e) => {
                let reply = ViceReply::Error(ViceError::BadRequest(e.to_string()));
                return (reply, CallCost::default());
            }
        };
        if !req.is_mutation() {
            return self.handle(caller, qr.from, &req, now, costs);
        }
        if let Some(cached) = self.replay_lookup(caller.0, &qr) {
            return (cached.clone(), CallCost::default());
        }
        let (reply, cost) = self.handle(caller, qr.from, &req, now, costs);
        self.replay_record(caller.0, qr, reply.clone());
        (reply, cost)
    }

    /// Handles one authenticated request.
    ///
    /// * `caller` — identity from the RPC binding (never from the request),
    ///   with the protection and location databases the call reads.
    /// * `from` — the workstation's node id (for callback promises).
    /// * `now` — virtual time, used for mtimes.
    /// * `costs` — cost table for computing the CPU charge of this call.
    pub fn handle(
        &mut self,
        caller: Caller<'_>,
        from: NodeId,
        req: &ViceRequest,
        now: SimTime,
        costs: &Costs,
    ) -> (ViceReply, CallCost) {
        let mut cost = CallCost::default();
        let reply = self
            .dispatch(caller, from, req, now, costs, &mut cost)
            .unwrap_or_else(ViceReply::Error);
        (reply, cost)
    }

    /// Charges server-side pathname traversal: the mount-prefix components
    /// of `path` plus the `walked` components inside the volume (the
    /// prototype's servers walked the whole pathname).
    fn charge_traversal(&self, costs: &Costs, cost: &mut CallCost, path: &str, walked: u32) {
        if self.traversal == TraversalMode::ServerSide {
            let prefix = path.split('/').filter(|c| !c.is_empty()).count() as u32;
            cost.server_cpu += costs.srv_cpu_per_component * (walked + prefix) as u64;
        }
    }

    /// The authorisation gate — the only code that maps a Vice path into
    /// the serving volume, finds the access list protecting it and checks
    /// the caller's rights against it: the user, `anyuser` and every group
    /// containing the user, evaluated over the list's entries (see
    /// [`ProtectionDomain::rights_on`]). Returns the volume-internal path
    /// (a slice of `path`) and the list that admitted the caller.
    ///
    /// Every request passes through here except two: `GetCustodian`
    /// (location is public, and answerable for paths this server does not
    /// host) and `ReleaseLock` (it can only release the caller's own
    /// `(user, node)` lock, so there is nothing to protect).
    fn authorize<'p>(
        &self,
        (user, domain, _): Caller<'_>,
        vol_idx: usize,
        path: &'p str,
        needed: Rights,
    ) -> Result<(&'p str, &AccessList), ViceError> {
        let vol = &self.volumes[vol_idx];
        let internal = vol
            .internal_path(path)
            .ok_or_else(|| ViceError::NoSuchFile(path.to_string()))?;
        let acl = vol
            .acl_for(internal)
            .map_err(|e| Self::map_vol_err(path, e))?;
        if !domain.rights_on(user, acl).covers(needed) {
            return Err(ViceError::PermissionDenied(path.to_string()));
        }
        Ok((internal, acl))
    }

    fn map_vol_err(path: &str, e: VolumeError) -> ViceError {
        match e {
            VolumeError::Fs(fs) => map_fs_err(path, fs),
            VolumeError::ReadOnly => ViceError::ReadOnlyVolume(path.to_string()),
            VolumeError::Offline => ViceError::VolumeOffline(path.to_string()),
            VolumeError::QuotaExceeded { .. } => ViceError::QuotaExceeded(path.to_string()),
        }
    }

    fn status_of(vol: &Volume, internal: &str) -> Result<VStatus, ViceError> {
        let vice_path = vol.vice_path(internal);
        let fs = vol
            .fs_read()
            .map_err(|e| Self::map_vol_err(&vice_path, e))?;
        let attr = fs.lstat(internal).map_err(|e| map_fs_err(&vice_path, e))?;
        Ok(VStatus {
            path: vice_path,
            fid: attr.ino.0,
            kind: attr.ftype.into(),
            size: attr.size,
            version: attr.version,
            mtime: attr.mtime,
            mode: attr.mode.0,
            owner: attr.uid,
            read_only: vol.is_read_only(),
        })
    }

    /// Registers a callback promise for `from` on `path` (callback mode
    /// only).
    fn promise(&mut self, path: &str, from: NodeId, costs: &Costs, cost: &mut CallCost) {
        if self.validation == ValidationMode::Callback {
            // The key is allocated only for a path nobody holds a promise on.
            match self.callbacks.get_mut(path) {
                Some(holders) => {
                    holders.insert(from);
                }
                None => {
                    self.callbacks
                        .insert(path.to_string(), BTreeSet::from([from]));
                }
            }
            cost.server_cpu += costs.srv_cpu_callback;
        }
    }

    /// Breaks callbacks on `path` and on its parent directory (whose cached
    /// listing is stale too): every other holder gets a break message, and
    /// the mutating workstation's own promises on both lapse with theirs —
    /// except on `path` when `renew`, where a store leaves the caller's copy
    /// current: its promise stands, or is made, and is charged as one.
    fn break_callbacks(
        &mut self,
        path: &str,
        from: NodeId,
        renew: bool,
        costs: &Costs,
        cost: &mut CallCost,
    ) {
        if self.validation != ValidationMode::Callback {
            return;
        }
        let parent = parent_of(path);
        let batching = self.break_batching;
        let mut broke_on_path: Option<&BTreeSet<NodeId>> = None;
        for target in [Some(path), parent].into_iter().flatten() {
            let Some(holders) = self.callbacks.get(target) else {
                continue;
            };
            // Holders break in ascending node order: break order must stay
            // seed-deterministic.
            for &ws in holders.iter().filter(|&&ws| ws != from) {
                // Batched: one notification per recipient workstation for
                // this mutation, however many of its promises just died.
                if !batching || !broke_on_path.is_some_and(|b| b.contains(&ws)) {
                    cost.server_cpu += costs.srv_cpu_callback;
                }
                // A batched path joins the message already waiting for its
                // workstation; unbatched, every path is its own message.
                let waiting = if batching {
                    self.pending_breaks.iter_mut().find(|(to, _)| *to == ws)
                } else {
                    None
                };
                match waiting {
                    Some((_, paths)) => paths.push(target.to_string()),
                    None => self.pending_breaks.push((ws, vec![target.to_string()])),
                }
            }
            broke_on_path = Some(holders);
        }
        if let Some(parent) = parent {
            self.callbacks.remove(parent);
        }
        if renew {
            self.promise(path, from, costs, cost);
            if let Some(holders) = self.callbacks.get_mut(path) {
                holders.retain(|&ws| ws == from);
            }
        } else {
            self.callbacks.remove(path);
        }
    }

    /// Runs the request's arm, then breaks the callbacks on every name a
    /// successful reply changes ([`ViceRequest::changes`]): a store renews
    /// the storer's own promise, every other change lapses it.
    #[allow(clippy::too_many_lines)]
    fn dispatch(
        &mut self,
        who: Caller<'_>,
        from: NodeId,
        req: &ViceRequest,
        now: SimTime,
        costs: &Costs,
        cost: &mut CallCost,
    ) -> Result<ViceReply, ViceError> {
        let (user, _, location) = who;
        // One spelling per object: promises and locks are keyed by the
        // names a request carries, so every name must already be the one
        // `normalize` returns — an alias (`//`, `.`, `..`) would reach the
        // same inode under a second key. Refused before any state is read.
        let renamed_to = match req {
            ViceRequest::Rename { to, .. } => Some(to.as_str()),
            _ => None,
        };
        for name in [Some(req.path()), renamed_to].into_iter().flatten() {
            if !matches!(normalize(name), Ok(Cow::Borrowed(_))) {
                return Err(ViceError::BadRequest(format!("not a normal path: {name}")));
            }
        }
        // Custodian location is answerable even for paths we do not host.
        if let ViceRequest::GetCustodian { path } = req {
            let (subtree, entry) = location
                .lookup(path)
                .ok_or_else(|| ViceError::NoSuchFile(path.clone()))?;
            return Ok(ViceReply::Custodian {
                subtree: subtree.to_string(),
                custodian: entry.custodian,
                replicas: entry.replicas.clone(),
            });
        }

        let path = req.path();
        // Locks are mutations a read-only replica can serve.
        let want_write = req.is_mutation()
            && !matches!(
                req,
                ViceRequest::SetLock { .. } | ViceRequest::ReleaseLock { .. }
            );
        // Not ours: answer with the custodian hint, as Section 3.1
        // specifies.
        let vol_idx = self
            .volume_for(path, want_write)
            .ok_or_else(|| ViceError::NotCustodian(location.custodian_of(path)))?;

        // The location database is authoritative: if it assigns a *deeper*
        // subtree than the volume we would serve from, that subtree lives
        // elsewhere (e.g. a user volume that moved away) and the enclosing
        // volume's stub directory must not shadow it.
        if let Some((subtree, entry)) = location.lookup(path) {
            let our_mount_len = self.volumes[vol_idx].mount().len();
            if subtree.len() > our_mount_len
                && entry.custodian != self.id
                && !entry.replicas.contains(&self.id)
            {
                return Err(ViceError::NotCustodian(Some(entry.custodian)));
            }
        }

        // Protection is evaluated on every call.
        cost.server_cpu += costs.srv_cpu_protection;

        let reply = match req {
            ViceRequest::GetCustodian { .. } => unreachable!("handled above"),

            ViceRequest::Fetch { path } => {
                let internal = self.authorize(who, vol_idx, path, Rights::READ)?.0;
                let vol = &self.volumes[vol_idx];
                let fs = vol.fs_read().map_err(|e| Self::map_vol_err(path, e))?;
                // Do not follow a final symlink: Venus interprets links
                // itself (they may point into other volumes on other
                // servers).
                let resolved = fs.probe(internal, false).map_err(|e| map_fs_err(path, e))?;
                self.charge_traversal(costs, cost, path, resolved.components_walked);
                let data = match fs.attr_of(resolved.ino).expect("resolved").ftype {
                    FileType::Regular => {
                        // A refcount bump: from the inode to the client's
                        // cache the bytes are one shared buffer.
                        let data = fs.contents_of(resolved.ino).expect("regular file").clone();
                        // End-to-end check: the bytes leaving the platter
                        // must match the volume's Merkle leaf before they
                        // can reach Venus. A mismatch means silent rot got
                        // past every earlier verifier — serve nothing,
                        // take the volume offline, surface the fault.
                        let key = crate::volume::leaf_key(internal);
                        let leaf = self.volumes[vol_idx].merkle().leaf(&key);
                        if leaf.is_some_and(|expected| data.digest() != expected) {
                            let vid = self.volumes[vol_idx].id();
                            self.offline_volume_for_integrity(vid, &key);
                            self.mark_corruptions_detected(
                                now,
                                CorruptionOutcome::CaughtAtFetch,
                                |r| match r {
                                    FlipRegion::CheckpointFile { volume, path }
                                    | FlipRegion::MerkleLeaf { volume, path } => {
                                        *volume == vid && path == &key
                                    }
                                    FlipRegion::Journal { .. } => false,
                                },
                            );
                            return Err(ViceError::VolumeOffline(path.clone()));
                        }
                        data
                    }
                    FileType::Directory => {
                        // Directories are fetchable as serialized listings:
                        // "a directory stored as a Vice file is easier to
                        // interpret when the whole file is available"
                        // (Section 3.2). Venus uses this for client-side
                        // traversal. Built from the borrowed entries into a
                        // buffer of its exact size: a kind byte, the name
                        // and a newline each.
                        let entries = || fs.entries_of(resolved.ino).expect("is a directory");
                        let len = entries().map(|(name, _)| name.len() + 2).sum();
                        let mut blob = Vec::with_capacity(len);
                        for (name, ino) in entries() {
                            let kind = match fs.attr_of(ino).expect("entry").ftype {
                                FileType::Regular => b'f',
                                FileType::Directory => b'd',
                                FileType::Symlink => b'l',
                            };
                            blob.push(kind);
                            blob.extend_from_slice(name.as_bytes());
                            blob.push(b'\n');
                        }
                        Payload::from_vec(blob)
                    }
                    FileType::Symlink => {
                        let target = fs.readlink(internal).expect("is a symlink");
                        return Ok(ViceReply::Link(link_target_to_vice(vol, path, &target)));
                    }
                };
                cost.server_cpu += costs.srv_block_cpu(data.len() as u64);
                cost.disk_bytes = data.len() as u64;
                let status = Self::status_of(&self.volumes[vol_idx], internal)?;
                self.promise(path, from, costs, cost);
                Ok(ViceReply::Data { status, data })
            }

            ViceRequest::Store { path, data } => {
                let vol = &self.volumes[vol_idx];
                // Overwriting needs WRITE on the directory, creating INSERT.
                let exists = vol.internal_path(path).is_some_and(|i| vol.fs().exists(i));
                let needed = if exists {
                    Rights::WRITE
                } else {
                    Rights::INSERT
                };
                let internal = self.authorize(who, vol_idx, path, needed)?.0;
                self.charge_traversal(costs, cost, path, 0);
                cost.server_cpu += costs.srv_block_cpu(data.len() as u64);
                cost.disk_bytes = data.len() as u64;
                // Intent → apply → commit: the journal record holds the
                // payload by refcount; the one genuine copy on the store
                // path happens when the op is applied to the volume.
                let op = JournalOp::Store {
                    path: internal.to_string(),
                    uid: uid_of(user),
                    mtime: now.as_micros(),
                    data: data.clone(),
                };
                self.journal_apply(vol_idx, op)
                    .map_err(|e| Self::map_vol_err(path, e))?;
                Self::status_of(&self.volumes[vol_idx], internal).map(ViceReply::Status)
            }

            ViceRequest::Remove { path } => {
                let internal = self.authorize(who, vol_idx, path, Rights::DELETE)?.0;
                let op = JournalOp::Remove {
                    path: internal.into(),
                    mtime: now.as_micros(),
                };
                self.journal_apply(vol_idx, op)
                    .map_err(|e| Self::map_vol_err(path, e))?;
                Ok(ViceReply::Ok)
            }

            ViceRequest::GetStatus { path } => {
                cost.server_cpu += costs.srv_cpu_getstatus;
                // The prototype stored status in per-file .admin files:
                // answering a status query touches the server disk.
                cost.disk_bytes = 2_048;
                let internal = self.authorize(who, vol_idx, path, Rights::READ)?.0;
                if let Ok(r) = self.volumes[vol_idx].fs().probe(internal, false) {
                    self.charge_traversal(costs, cost, path, r.components_walked);
                }
                Self::status_of(&self.volumes[vol_idx], internal).map(ViceReply::Status)
            }

            ViceRequest::SetMode { path, mode } => {
                let op = JournalOp::SetMode {
                    path: self.authorize(who, vol_idx, path, Rights::WRITE)?.0.into(),
                    mode: *mode as u32,
                    mtime: now.as_micros(),
                };
                self.journal_apply(vol_idx, op)
                    .map_err(|e| Self::map_vol_err(path, e))?;
                Ok(ViceReply::Ok)
            }

            ViceRequest::Validate { path, fid, version } => {
                cost.server_cpu += costs.srv_cpu_validate;
                // Timestamp comparison reads the .admin file from disk.
                cost.disk_bytes = 2_048;
                // The prototype's servers walked the entire pathname on
                // every call — including the dominant validation calls.
                self.charge_traversal(costs, cost, path, 0);
                // Protection is re-checked on validation too: a revoked
                // user must not keep using his cached copy by having the
                // server confirm it is "current".
                let internal = self.authorize(who, vol_idx, path, Rights::READ)?.0;
                let status = Self::status_of(&self.volumes[vol_idx], internal)?;
                // Both the identity and the version must match: a
                // deleted-and-recreated file has a new fid, so a stale
                // cache can never validate against it.
                let valid = status.fid == *fid && status.version == *version;
                self.promise(path, from, costs, cost);
                Ok(ViceReply::Validated {
                    valid,
                    status: (!valid).then_some(status),
                })
            }

            ViceRequest::MakeDir { path } => {
                // A volume's mount root always exists (clients walking
                // down with mkdir -p hit this for mounted user volumes).
                if path == self.volumes[vol_idx].mount() {
                    return Err(ViceError::AlreadyExists(path.clone()));
                }
                let internal = self.authorize(who, vol_idx, path, Rights::INSERT)?.0;
                let op = JournalOp::Mkdir {
                    path: internal.to_string(),
                    uid: uid_of(user),
                    mtime: now.as_micros(),
                };
                self.journal_apply(vol_idx, op)
                    .map_err(|e| Self::map_vol_err(path, e))?;
                Self::status_of(&self.volumes[vol_idx], internal).map(ViceReply::Status)
            }

            ViceRequest::RemoveDir { path } => {
                let internal = self.authorize(who, vol_idx, path, Rights::DELETE)?.0;
                let op = JournalOp::Rmdir {
                    path: internal.into(),
                    mtime: now.as_micros(),
                };
                self.journal_apply(vol_idx, op)
                    .map_err(|e| Self::map_vol_err(path, e))?;
                Ok(ViceReply::Ok)
            }

            ViceRequest::Rename { from: src, to: dst } => {
                // Renames must stay within one volume (as in AFS proper).
                let vol = &self.volumes[vol_idx];
                if !(vol.covers(src) && vol.covers(dst)) {
                    return Err(ViceError::BadRequest(
                        "rename must stay within one volume".to_string(),
                    ));
                }
                let op = JournalOp::Rename {
                    from: self.authorize(who, vol_idx, src, Rights::DELETE)?.0.into(),
                    to: self.authorize(who, vol_idx, dst, Rights::INSERT)?.0.into(),
                    mtime: now.as_micros(),
                };
                self.journal_apply(vol_idx, op)
                    .map_err(|e| Self::map_vol_err(src, e))?;
                Ok(ViceReply::Ok)
            }

            ViceRequest::ListDir { path } => {
                let internal = self.authorize(who, vol_idx, path, Rights::READ)?.0;
                let vol = &self.volumes[vol_idx];
                let fs = vol.fs_read().map_err(|e| Self::map_vol_err(path, e))?;
                let entries = fs.readdir(internal).map_err(|e| map_fs_err(path, e))?;
                if let Ok(r) = fs.probe(internal, true) {
                    self.charge_traversal(costs, cost, path, r.components_walked);
                }
                let listing = entries
                    .into_iter()
                    .map(|(name, ino)| (name, fs.attr_of(ino).expect("entry").ftype.into()))
                    .collect();
                Ok(ViceReply::Listing(listing))
            }

            ViceRequest::GetAcl { path } => {
                let acl = self.authorize(who, vol_idx, path, Rights::LOOKUP)?.1;
                Ok(ViceReply::Acl(acl.clone()))
            }

            ViceRequest::SetAcl { path, acl } => {
                let internal = self.authorize(who, vol_idx, path, Rights::ADMINISTER)?.0;
                let op = JournalOp::SetAcl {
                    path: internal.into(),
                    acl: acl.clone(),
                };
                self.journal_apply(vol_idx, op)
                    .map_err(|e| Self::map_vol_err(path, e))?;
                Ok(ViceReply::Ok)
            }

            ViceRequest::MakeSymlink { path, target } => {
                let internal = self.authorize(who, vol_idx, path, Rights::INSERT)?.0;
                let op = JournalOp::Symlink {
                    path: internal.into(),
                    target: target.clone(),
                    uid: uid_of(user),
                    mtime: now.as_micros(),
                };
                self.journal_apply(vol_idx, op)
                    .map_err(|e| Self::map_vol_err(path, e))?;
                Ok(ViceReply::Ok)
            }

            ViceRequest::ReadLink { path } => {
                // The same right `Fetch` demands before returning a `Link`.
                let internal = self.authorize(who, vol_idx, path, Rights::READ)?.0;
                let vol = &self.volumes[vol_idx];
                let fs = vol.fs_read().map_err(|e| Self::map_vol_err(path, e))?;
                let target = fs.readlink(internal).map_err(|e| map_fs_err(path, e))?;
                Ok(ViceReply::Link(link_target_to_vice(vol, path, &target)))
            }

            ViceRequest::SetLock { path, exclusive } => {
                cost.lock_ipc = true;
                self.authorize(who, vol_idx, path, Rights::LOCK)?;
                let kind = if *exclusive {
                    LockKind::Exclusive
                } else {
                    LockKind::Shared
                };
                if self.locks.acquire(path, user, from, kind) {
                    Ok(ViceReply::Ok)
                } else {
                    Err(ViceError::LockConflict(path.clone()))
                }
            }

            // Ungated by design: see [`Self::authorize`].
            ViceRequest::ReleaseLock { path } => {
                cost.lock_ipc = true;
                self.locks.release(path, user, from);
                Ok(ViceReply::Ok)
            }
        }?;
        let renew = matches!(req, ViceRequest::Store { .. });
        for name in req.changes().into_iter().flatten() {
            self.break_callbacks(name, from, renew, costs, cost);
        }
        Ok(reply)
    }
}

/// Translates a symlink target (as stored) into the Vice name space for
/// the client to interpret: absolute `/vice/...` targets pass through,
/// other absolute targets are volume-internal, and relative targets join
/// the link's own directory.
fn link_target_to_vice(vol: &Volume, link_vice_path: &str, target: &str) -> String {
    if target == "/vice" || target.starts_with("/vice/") {
        target.to_string()
    } else if target.starts_with('/') {
        vol.vice_path(target)
    } else {
        match parent_of(link_vice_path) {
            Some(dir) => itc_unixfs::join(dir, target).unwrap_or_else(|_| target.to_string()),
            None => target.to_string(),
        }
    }
}

/// Maps a file-system error to the protocol error space.
fn map_fs_err(path: &str, e: FsError) -> ViceError {
    match e {
        FsError::NotFound(_) => ViceError::NoSuchFile(path.to_string()),
        FsError::NotADirectory(_) => ViceError::NotADirectory(path.to_string()),
        FsError::IsADirectory(_) => ViceError::IsADirectory(path.to_string()),
        FsError::AlreadyExists(_) => ViceError::AlreadyExists(path.to_string()),
        FsError::NotEmpty(_) => ViceError::NotEmpty(path.to_string()),
        FsError::SymlinkLoop(_) => ViceError::SymlinkLoop(path.to_string()),
        FsError::InvalidPath(_) => ViceError::BadRequest(format!("invalid path: {path}")),
        FsError::RenameIntoSelf(_) => ViceError::RenameIntoSelf(path.to_string()),
        FsError::NotASymlink(_) => ViceError::BadRequest(format!("not a symlink: {path}")),
    }
}

/// A stable uid for a user name (display/bookkeeping only; authorization is
/// by name through the protection domain).
pub fn uid_of(user: &str) -> u32 {
    let mut h = 0x811c_9dc5u32;
    for b in user.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    // Avoid uid 0 so "root-looking" owners never appear by accident.
    (h | 1) & 0x7fff_ffff
}
