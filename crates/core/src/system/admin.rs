//! Operator-facing administration: users and groups, volumes and their
//! placement, fault injection and recovery, monitoring, and the metrics
//! snapshot. The paper assigns all of this to operators rather than to the
//! file system interface.

use crate::disk::{
    IntegrityCounters, JournalOp, JournalStats, SalvageReport, ScrubStats, SyncPolicy,
};
use crate::metrics::{merge_cache, merge_venus, ServerMetrics, SystemMetrics};
use crate::monitor::TrafficMonitor;
use crate::obs::ObsSummary;
use crate::protect::{AccessList, Rights};
use crate::proto::{Payload, ServerId};
use crate::system::{ItcSystem, SystemError};
use crate::trace::{dump_file_name, render_dump, AttributionAgg};
use crate::volume::{Volume, VolumeId};
use itc_rpc::CallStats;
use itc_sim::{
    AnomalyDump, EventStats, FaultPlan, FaultStats, HealthEvent, SimTime, Span, TraceId, TraceStats,
};

impl ItcSystem {
    // ------------------------------------------------------------------
    // Users and groups
    // ------------------------------------------------------------------

    /// Registers a user, replicating the protection database to every
    /// server (charged to their CPUs).
    pub fn add_user(&mut self, name: &str, password: &str) -> Result<(), SystemError> {
        self.campus.domain.add_user(name, password)?;
        self.charge_protection_replication(self.now());
        Ok(())
    }

    /// Creates a group.
    pub fn add_group(&mut self, name: &str) -> Result<(), SystemError> {
        self.campus.domain.add_group(name)?;
        self.charge_protection_replication(self.now());
        Ok(())
    }

    /// Adds a member (user or group) to a group.
    pub fn add_member(&mut self, group: &str, member: &str) -> Result<(), SystemError> {
        self.campus.domain.add_member(group, member)?;
        self.charge_protection_replication(self.now());
        Ok(())
    }

    /// Removes a member from a group.
    pub fn remove_member(&mut self, group: &str, member: &str) -> Result<(), SystemError> {
        self.campus.domain.remove_member(group, member)?;
        self.charge_protection_replication(self.now());
        Ok(())
    }

    /// The slow revocation path (experiment E12): strips `user` from every
    /// group and waits for the update to reach every replica. Returns the
    /// virtual time at which the last replica applied it.
    pub fn revoke_via_groups(&mut self, user: &str) -> SimTime {
        self.campus.domain.remove_from_all_groups(user);
        self.charge_protection_replication(self.now())
    }

    /// Charges one protection-database update message to every server,
    /// starting at `start`, and raises the operator high-water mark to the
    /// completion time of the slowest replica, which it returns.
    fn charge_protection_replication(&mut self, start: SimTime) -> SimTime {
        let costs = self.campus.kernel.costs();
        // The protection server lives alongside server 0 and "coordinates
        // the updating of the database at all sites" — pushing to one
        // replica at a time and waiting for each acknowledgment, which is
        // why Section 3.4 calls this path "unacceptably slow in
        // emergencies" and why negative rights exist.
        let origin = self.campus.net.server_node(0);
        let mut t = start;
        for s in &mut self.servers {
            let lat = costs.net_latency(self.campus.net.hops(origin, s.node()));
            let arrive = t + lat + costs.net_transfer(256);
            let applied = s.resources_mut().0.acquire(arrive, costs.srv_cpu_per_call);
            // Acknowledgment returns before the next site is contacted.
            t = applied + lat;
        }
        self.operator_now = self.operator_now.max(t);
        t
    }

    // ------------------------------------------------------------------
    // Volumes and location
    // ------------------------------------------------------------------

    fn alloc_volume_id(&mut self) -> VolumeId {
        let id = VolumeId(self.next_volume);
        self.next_volume += 1;
        id
    }

    /// The custodian of the volume mounted at `mount`.
    fn custodian(&self, mount: &str) -> Result<ServerId, SystemError> {
        self.location_of(mount)
            .ok_or_else(|| SystemError::Volume(format!("no volume at {mount}")))
    }

    /// The writable volume mounted at `mount` on `owner`.
    fn writable_at(&self, owner: ServerId, mount: &str) -> Result<VolumeId, SystemError> {
        self.servers[owner.0 as usize]
            .volumes()
            .iter()
            .find(|v| v.mount() == mount && !v.is_read_only())
            .map(Volume::id)
            .ok_or_else(|| SystemError::Volume(format!("no writable volume at {mount}")))
    }

    /// The longest-mounted writable volume covering `path`, on the path's
    /// custodian.
    fn writable_covering(&self, path: &str) -> Result<(ServerId, VolumeId), SystemError> {
        let owner = self
            .location_of(path)
            .ok_or_else(|| SystemError::Volume(format!("no custodian for {path}")))?;
        self.servers[owner.0 as usize]
            .volumes()
            .iter()
            .filter(|v| v.covers(path) && !v.is_read_only())
            .max_by_key(|v| v.mount().len())
            .map(|v| (owner, v.id()))
            .ok_or_else(|| SystemError::Volume(format!("no volume hosts {path}")))
    }

    /// Creates a volume mounted at `mount` on `server`, creating a stub
    /// directory at the mount point in the enclosing volume (the
    /// prototype's "location database ... represented by stub directories",
    /// Section 3.5.2) and registering the custodianship in the location
    /// database.
    pub fn create_volume(
        &mut self,
        name: &str,
        mount: &str,
        server: ServerId,
        root_acl: AccessList,
    ) -> Result<VolumeId, SystemError> {
        if server.0 as usize >= self.servers.len() {
            return Err(SystemError::BadId(format!("server {}", server.0)));
        }
        // Stub directory in the enclosing volume (if any).
        if mount != "/vice" {
            self.admin_mkdir_p(mount)?;
        }
        let id = self.alloc_volume_id();
        let vol = Volume::new(id, name, mount, root_acl);
        self.servers[server.0 as usize].add_volume(vol);
        self.campus.location.assign(mount, server);
        Ok(id)
    }

    /// Convenience: a user's home volume at `/vice/usr/<user>` in the
    /// given cluster's server, owner-all + anyuser-read ACL, as the paper
    /// describes for "file subtrees of individual users".
    pub fn create_user_volume(
        &mut self,
        user: &str,
        cluster: u32,
    ) -> Result<VolumeId, SystemError> {
        let mut acl = AccessList::new();
        acl.grant(user, Rights::ALL);
        acl.grant("anyuser", Rights::READ_ONLY);
        self.create_volume(
            &format!("user.{user}"),
            &format!("/vice/usr/{user}"),
            ServerId(cluster),
            acl,
        )
    }

    /// Moves the volume mounted at `mount` to another server, updating
    /// the location database (charged as an update to every replica). The files are "unavailable during
    /// the change" (Section 3.1); the returned time is when the move
    /// completed.
    pub fn move_volume(&mut self, mount: &str, to: ServerId) -> Result<SimTime, SystemError> {
        let from = self.custodian(mount)?;
        if from == to {
            return Ok(self.now());
        }
        let vid = self.writable_at(from, mount)?;
        let vol = self.servers[from.0 as usize]
            .take_volume(vid)
            .expect("found above");

        // Time: ship the volume's bytes across the network and update every
        // location replica.
        let costs = self.campus.kernel.costs();
        let bytes = vol.used_bytes();
        let start = self.now();
        let net = self.campus.net;
        let hops = net.hops(net.server_node(from.0), net.server_node(to.0));
        let shipped = start + costs.net_latency(hops) + costs.net_transfer(bytes);
        let dst = &mut self.servers[to.0 as usize];
        let done = dst
            .resources_mut()
            .1
            .acquire(shipped, costs.disk_transfer(bytes));
        dst.add_volume(vol);
        self.campus.location.reassign(mount, to);
        Ok(self.charge_protection_replication(done))
    }

    /// Clones the volume at `mount` and installs the read-only replica on
    /// each of `sites`, registering them in the location database — the
    /// Section 3.2 mechanism for system binaries. Re-running it refreshes
    /// existing replicas atomically (the "orderly release").
    pub fn replicate_readonly(
        &mut self,
        mount: &str,
        sites: &[ServerId],
    ) -> Result<(), SystemError> {
        let owner = self.custodian(mount)?;
        let src_id = self.writable_at(owner, mount)?;

        for &site in sites {
            if site == owner {
                continue;
            }
            let clone_id = self.alloc_volume_id();
            let src_server = &mut self.servers[owner.0 as usize];
            let clone = src_server
                .volume_mut(src_id)
                .expect("source volume")
                .clone_readonly(clone_id);
            // Cloning bumps the source's clone serial outside the journal;
            // refresh its checkpoint so a later salvage reproduces it.
            src_server.recheckpoint(src_id);

            // Replace an existing replica of this mount, else install.
            let dst = &mut self.servers[site.0 as usize];
            let existing = dst
                .volumes()
                .iter()
                .find(|v| v.mount() == mount && v.is_read_only())
                .map(Volume::id);
            if let Some(old) = existing {
                dst.take_volume(old);
            }
            dst.add_volume(clone);
            self.campus.location.add_replica(mount, site);
        }
        Ok(())
    }

    /// The custodian of `path` per the location database.
    pub fn location_of(&self, path: &str) -> Option<ServerId> {
        self.campus.location.custodian_of(path)
    }

    // ------------------------------------------------------------------
    // Direct (untimed) content manipulation
    // ------------------------------------------------------------------

    /// Creates directories along `vice_path` directly in the covering
    /// volumes — an operator action outside the measured workload (used to
    /// provision skeleton directories and preload workload trees).
    pub fn admin_mkdir_p(&mut self, vice_path: &str) -> Result<(), SystemError> {
        let comps: Vec<String> = vice_path
            .split('/')
            .filter(|c| !c.is_empty())
            .map(str::to_string)
            .collect();
        let mut prefix = String::new();
        for comp in comps {
            prefix.push('/');
            prefix.push_str(&comp);
            if prefix == "/vice" {
                continue;
            }
            let (owner, vol) = self.writable_covering(&prefix)?;
            let srv = &mut self.servers[owner.0 as usize];
            let v = srv.volume_mut(vol).expect("just found");
            let internal = v.internal_path(&prefix).expect("covers");
            if internal != "/" && !v.fs().exists(internal) {
                // Journaled like any other mutation, so a salvaged volume
                // reproduces operator provisioning too.
                srv.admin_apply(
                    vol,
                    JournalOp::Mkdir {
                        path: internal.to_string(),
                        uid: 0,
                        mtime: 0,
                    },
                )
                .map_err(|e| SystemError::Volume(e.to_string()))?;
            }
        }
        Ok(())
    }

    /// Installs a file directly in Vice (operator provisioning, e.g.
    /// populating `/vice/unix/sun/bin` with system binaries before a run).
    pub fn admin_install_file(
        &mut self,
        vice_path: &str,
        data: Vec<u8>,
    ) -> Result<(), SystemError> {
        let (dir, _) = itc_unixfs::dirname_basename(vice_path)
            .map_err(|e| SystemError::Volume(e.to_string()))?;
        self.admin_mkdir_p(&dir)?;
        let (owner, vol_id) = self.writable_covering(vice_path)?;
        let srv = &mut self.servers[owner.0 as usize];
        let internal = srv
            .volume_mut(vol_id)
            .expect("just found")
            .internal_path(vice_path)
            .expect("covers");
        srv.admin_apply(
            vol_id,
            JournalOp::Store {
                path: internal.to_string(),
                uid: 0,
                mtime: 0,
                data: Payload::from_vec(data),
            },
        )
        .map_err(|e| SystemError::Volume(e.to_string()))?;
        Ok(())
    }

    /// Sets a quota on the volume mounted at `mount`.
    pub fn set_volume_quota(&mut self, mount: &str, bytes: Option<u64>) -> Result<(), SystemError> {
        let owner = self.custodian(mount)?;
        let vid = self.writable_at(owner, mount)?;
        self.servers[owner.0 as usize]
            .admin_apply(vid, JournalOp::SetQuota { bytes })
            .map_err(|e| SystemError::Volume(e.to_string()))?;
        Ok(())
    }

    /// Takes the volume at `mount` offline or online.
    pub fn set_volume_online(&mut self, mount: &str, online: bool) -> Result<(), SystemError> {
        let owner = self.custodian(mount)?;
        let vid = self.writable_at(owner, mount)?;
        self.servers[owner.0 as usize]
            .volume_mut(vid)
            .expect("found")
            .set_online(online);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault injection and recovery
    // ------------------------------------------------------------------

    /// Takes an entire server machine down or up (the availability goal:
    /// "temporary loss of service to small groups of users" only).
    pub fn set_server_online(&mut self, id: ServerId, online: bool) {
        self.servers[id.0 as usize].set_online(online);
    }

    /// Counters of faults the installed plan has injected so far, summed
    /// across every cluster's shard.
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for f in self.cores.iter().filter_map(|c| c.faults.as_ref()) {
            total.merge(&f.stats());
        }
        total
    }

    /// Whether the installed plan couples clusters (message faults,
    /// scripted outcomes, crashes, or restarts). Corruption-only plans do
    /// not — their flips land on the owning cluster's own calendar — so a
    /// parallel run keeps its narrow per-cluster masks.
    pub fn faults_couple_clusters(&self) -> bool {
        let mut shards = self.cores.iter().filter_map(|c| c.faults.as_ref());
        shards.any(FaultPlan::couples_clusters)
    }

    // ------------------------------------------------------------------
    // Data integrity: scrubbing and corruption accounting
    // ------------------------------------------------------------------

    /// Running scrubber counters for one server.
    pub fn server_scrub_stats(&self, id: ServerId) -> ScrubStats {
        self.servers[id.0 as usize].scrub_stats()
    }

    /// Corruption accounting summed across every server. The end-to-end
    /// integrity claim is `latent == 0` once the workload and scrub
    /// rotation have drained: every injected flip was detected by a
    /// trailer or digest verifier and repaired, rejected, or offlined.
    pub fn integrity_counters(&self) -> IntegrityCounters {
        let mut total = IntegrityCounters::default();
        for s in &self.servers {
            for ev in s.corruption_log() {
                total.absorb(ev);
            }
        }
        total
    }

    /// Counters of what the RPC retry machinery did across all calls,
    /// summed across every cluster.
    pub fn call_stats(&self) -> CallStats {
        let mut total = CallStats::default();
        for c in &self.cores {
            total.absorb(c.call_stats);
        }
        total
    }

    /// Lifetime counters of the event calendars (scheduled, executed,
    /// cancelled, high-water queue depth), summed across every cluster.
    pub fn event_stats(&self) -> EventStats {
        let mut total = EventStats::default();
        for c in &self.cores {
            total.merge(&c.sched.stats());
        }
        total
    }

    /// Crashes a server immediately: it goes offline and loses all
    /// in-memory state (callback promises, replay cache, locks), exactly
    /// what a reboot of the real machine would lose.
    pub fn crash_server(&mut self, id: ServerId) {
        self.servers[id.0 as usize].crash();
    }

    /// Brings a crashed server back up, empty-handed: clients rediscover
    /// the new epoch on their next genuine exchange and revalidate. The
    /// operator path salvages synchronously — volumes are back online when
    /// this returns. (Scheduled restarts from a fault plan instead run the
    /// salvager as timed calendar events; see the transport.)
    pub fn restart_server(&mut self, id: ServerId) {
        let now = self.now();
        let srv = &mut self.servers[id.0 as usize];
        srv.restart();
        srv.salvage_all(now);
    }

    /// Salvage reports accumulated by a server since construction, in the
    /// order the passes ran.
    pub fn server_salvage_reports(&self, id: ServerId) -> &[SalvageReport] {
        self.servers[id.0 as usize].salvage_reports()
    }

    /// Journal counters for a server's disk.
    pub fn server_journal_stats(&self, id: ServerId) -> JournalStats {
        self.servers[id.0 as usize].journal_stats()
    }

    /// Switches a server's journal sync discipline. `WriteAhead` (the
    /// default) forces the journal before replies leave; `Lazy` never
    /// forces, so a crash can tear off acknowledged mutations — the
    /// anti-model the crash-consistency suite measures against.
    pub fn set_journal_sync_policy(&mut self, id: ServerId, policy: SyncPolicy) {
        self.servers[id.0 as usize].set_sync_policy(policy);
    }

    /// Fires any calendar events due at the current virtual time. The
    /// transport also pumps the calendar before every call, so this is
    /// only needed when a test advances time without traffic and wants to
    /// observe server state directly.
    pub fn run_fault_schedule(&mut self) {
        let now = self.now();
        let mut ops = self.ops();
        // One executor for lifecycle events: the transport's idle pump
        // handles crashes (torn-write draw), restarts (salvager
        // scheduling), and completed salvage passes identically
        // whether fired here or before a call.
        ops.transport.pump_idle(now);
        // Callback breaks that matured during the pump.
        ops.deliver_pending_breaks();
    }

    // ------------------------------------------------------------------
    // Monitoring and rebalancing (Section 3.6)
    // ------------------------------------------------------------------

    /// Starts recording per-subtree, per-origin-cluster traffic, each
    /// cluster's calls in its own core (so parallel runs monitor too).
    pub fn enable_monitoring(&mut self) {
        self.campus.monitoring = true;
    }

    /// Every cluster's traffic counts, merged (counts sum, so the order
    /// does not matter).
    fn traffic(&self) -> TrafficMonitor {
        let mut all = TrafficMonitor::new();
        for core in &self.cores {
            all.merge(&core.traffic);
        }
        all
    }

    /// Fraction of monitored calls that crossed a bridge to a custodian in
    /// another cluster.
    pub fn cross_cluster_fraction(&self) -> f64 {
        let loc = &self.campus.location;
        self.traffic()
            .cross_cluster_fraction(|s| loc.custodian_of(s))
    }

    /// Volume-move recommendations from the monitor (the paper insists "a
    /// human operator will initiate the actual reassignment" — callers
    /// apply them with [`ItcSystem::move_volume`]).
    pub fn rebalancing_recommendations(&self) -> Vec<crate::monitor::MoveRecommendation> {
        let loc = &self.campus.location;
        self.traffic()
            .recommendations(|s| loc.custodian_of(s), |s| s != "/vice")
    }

    /// Clears monitor observations (new measurement epoch).
    pub fn reset_monitoring(&mut self) {
        for core in &mut self.cores {
            core.traffic.reset();
        }
    }

    // ------------------------------------------------------------------
    // Tracing, attribution, and the anomaly flight recorder
    // ------------------------------------------------------------------

    /// Turns causal request tracing on: subsequent calls mint trace ids,
    /// record spans at every hop, feed the attribution aggregates, and arm
    /// the anomaly flight recorder. Observation-only — virtual timing is
    /// bit-identical with tracing on or off.
    pub fn enable_tracing(&mut self) {
        self.campus.tracing = true;
    }

    /// Turns tracing off. Resident spans, aggregates, and frozen dumps
    /// are kept for inspection.
    pub fn disable_tracing(&mut self) {
        self.campus.tracing = false;
    }

    /// Whether tracing is currently recording.
    pub fn tracing_enabled(&self) -> bool {
        self.campus.tracing
    }

    /// The resident spans of one trace, oldest first, read from the
    /// collector of the cluster that minted it. Empty for an id no cluster
    /// minted, or whose spans the ring has evicted.
    pub fn spans_of(&self, trace: TraceId) -> Vec<&Span> {
        self.cores
            .get(trace.cluster())
            .map_or_else(Vec::new, |c| c.trace.spans_of(trace))
    }

    /// Every frozen anomaly dump, in cluster order.
    pub fn anomaly_dumps(&self) -> impl Iterator<Item = &AnomalyDump> {
        self.cores.iter().flat_map(|c| c.trace.dumps())
    }

    /// Lifetime tracing counters (traces minted, spans recorded/evicted,
    /// anomalies frozen), summed across every cluster.
    pub fn trace_stats(&self) -> TraceStats {
        let mut total = TraceStats::default();
        for c in &self.cores {
            total.merge(&c.trace.stats());
        }
        total
    }

    /// The latency-attribution aggregates over completed traced calls,
    /// merged across every cluster in cluster order (deterministic, and the
    /// identity for single-cluster systems).
    pub fn attribution(&self) -> AttributionAgg {
        let mut total = AttributionAgg::new();
        for c in &self.cores {
            total.merge(&c.attr);
        }
        total
    }

    /// The observability time series, merged across every cluster in
    /// cluster order. Empty unless tracing was enabled (sampling rides the
    /// tracing switch). Per-bucket folds are commutative, so the result is
    /// identical whichever execution mode filled the cores.
    pub fn obs_summary(&self) -> ObsSummary {
        let mut total = ObsSummary::default();
        for (cluster, c) in self.cores.iter().enumerate() {
            total.merge_cluster(cluster as u32, &c.obs);
        }
        total
    }

    /// The typed health events the SLO engine recorded, merged across
    /// clusters, deduplicated on `(rule, server, bucket)` keeping the first
    /// in cluster order (the sort is stable), then sorted on `(at, bucket,
    /// rule, server)` into a stable timeline.
    pub fn health_events(&self) -> Vec<HealthEvent> {
        let clusters = self.cores.iter();
        let mut out: Vec<HealthEvent> = clusters
            .flat_map(|c| c.obs.health_events())
            .copied()
            .collect();
        out.sort_by_key(|ev| (ev.rule, ev.server, ev.bucket));
        out.dedup_by_key(|ev| (ev.rule, ev.server, ev.bucket));
        out.sort_by_key(|ev| (ev.at, ev.bucket, ev.rule, ev.server));
        out
    }

    /// The deterministic JSONL series export: every sampled series bucket
    /// plus every health event, one flat line each, byte-identical across
    /// same-seed runs and across sequential vs. parallel execution.
    pub fn render_series_export(&self) -> String {
        self.obs_summary().render_jsonl(&self.health_events())
    }

    /// Writes the series export under `dir` (created if absent) as
    /// `series.jsonl`; returns the path written.
    pub fn export_series(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("series.jsonl");
        std::fs::write(&path, self.render_series_export())?;
        Ok(path)
    }

    /// Renders every frozen anomaly dump as `(file name, JSONL text)`, in
    /// cluster order. Dumps contain only virtual-time observables, so the
    /// rendering is byte-identical across same-seed runs.
    pub fn render_anomaly_dumps(&self) -> Vec<(String, String)> {
        self.anomaly_dumps()
            .map(|d| (dump_file_name(d), render_dump(d)))
            .collect()
    }

    /// Writes every frozen anomaly dump as a JSONL file under `dir`
    /// (created if absent). Returns the paths written.
    pub fn export_anomaly_dumps(
        &self,
        dir: &std::path::Path,
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (name, text) in self.render_anomaly_dumps() {
            let path = dir.join(name);
            std::fs::write(&path, text)?;
            written.push(path);
        }
        Ok(written)
    }

    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    /// Snapshot of all measurements, with utilization computed over
    /// `[0, now]`.
    pub fn metrics(&self) -> SystemMetrics {
        let at = self.now();
        let mut call_mix = itc_sim::Counter::new();
        let servers = self
            .servers
            .iter()
            .map(|s| {
                let calls = s.stats().histogram();
                call_mix.merge(&calls);
                ServerMetrics {
                    cpu: s.cpu().report(at),
                    disk: s.disk().report(at),
                    calls,
                    callback_promises: s.callback_promises(),
                }
            })
            .collect();
        let mut cache = crate::venus::CacheStats::default();
        let mut venus = crate::venus::VenusStats::default();
        for c in self.clients.iter().flatten() {
            merge_cache(&mut cache, c.cache().stats());
            merge_venus(&mut venus, c.stats());
        }
        SystemMetrics {
            at,
            servers,
            call_mix,
            cache,
            venus,
            attribution: self.tracing_enabled().then(|| self.attribution().summary()),
            events: self.event_stats(),
        }
    }
}
