//! Operator-facing administration: users and groups, volumes and their
//! placement, fault injection and recovery, monitoring, and the metrics
//! snapshot. The paper assigns all of this to operators rather than to the
//! file system interface.

use crate::disk::{
    CorruptionEvent, CorruptionOutcome, FlipRegion, IntegrityCounters, JournalOp, JournalStats,
    SalvageReport, ScrubStats, SyncPolicy,
};
use crate::metrics::{merge_cache, merge_venus, ServerMetrics, SystemMetrics};
use crate::monitor::TrafficMonitor;
use crate::protect::{AccessList, Rights};
use crate::proto::{Payload, ServerId};
use crate::system::{ItcSystem, SystemError};
use crate::trace::{dump_file_name, render_dump, AttributionAgg};
use crate::volume::{Volume, VolumeId};
use itc_rpc::{CallStats, RetryPolicy};
use itc_sim::{EventStats, FaultPlan, FaultStats, SimTime, TraceCollector, TraceStats};

impl ItcSystem {
    // ------------------------------------------------------------------
    // Users and groups
    // ------------------------------------------------------------------

    /// Registers a user, replicating the protection database to every
    /// server (charged to their CPUs).
    pub fn add_user(&mut self, name: &str, password: &str) -> Result<(), SystemError> {
        self.pserver
            .add_user(name, password)
            .map_err(|e| SystemError::Domain(e.to_string()))?;
        self.charge_protection_replication();
        Ok(())
    }

    /// Creates a group.
    pub fn add_group(&mut self, name: &str) -> Result<(), SystemError> {
        self.pserver
            .add_group(name)
            .map_err(|e| SystemError::Domain(e.to_string()))?;
        self.charge_protection_replication();
        Ok(())
    }

    /// Adds a member (user or group) to a group.
    pub fn add_member(&mut self, group: &str, member: &str) -> Result<(), SystemError> {
        self.pserver
            .add_member(group, member)
            .map_err(|e| SystemError::Domain(e.to_string()))?;
        self.charge_protection_replication();
        Ok(())
    }

    /// Removes a member from a group.
    pub fn remove_member(&mut self, group: &str, member: &str) -> Result<(), SystemError> {
        self.pserver
            .remove_member(group, member)
            .map_err(|e| SystemError::Domain(e.to_string()))?;
        self.charge_protection_replication();
        Ok(())
    }

    /// The slow revocation path (experiment E12): strips `user` from every
    /// group and waits for the update to reach every replica. Returns the
    /// virtual time at which the last replica applied it.
    pub fn revoke_via_groups(&mut self, user: &str) -> SimTime {
        let start = self.clock.now();
        let (_job, _removed) = self.pserver.revoke_all_memberships(user);
        let done = self.charge_protection_replication_from(start);
        self.clock.advance_to(done);
        done
    }

    /// Charges one protection-database update message to every server,
    /// starting now. Returns the completion time of the slowest replica.
    fn charge_protection_replication(&mut self) -> SimTime {
        let start = self.clock.now();
        let done = self.charge_protection_replication_from(start);
        self.clock.advance_to(done);
        done
    }

    fn charge_protection_replication_from(&mut self, start: SimTime) -> SimTime {
        let costs = self.kernel.costs().clone();
        // The protection server lives alongside server 0 and "coordinates
        // the updating of the database at all sites" — pushing to one
        // replica at a time and waiting for each acknowledgment, which is
        // why Section 3.4 calls this path "unacceptably slow in
        // emergencies" and why negative rights exist.
        let origin = self.topo.servers[0].node();
        let mut t = start;
        for s in &self.topo.servers {
            let lat = costs.net_latency(self.topo.network.hops(origin, s.node()));
            let arrive = t + lat + costs.net_transfer(256);
            let applied = s.cpu().acquire(arrive, costs.srv_cpu_per_call);
            // Acknowledgment returns before the next site is contacted.
            t = applied + lat;
        }
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

    /// Creates a volume mounted at `mount` on `server`, creating a stub
    /// directory at the mount point in the enclosing volume (the
    /// prototype's "location database ... represented by stub directories",
    /// Section 3.5.2) and registering the custodianship in every server's
    /// location database replica.
    pub fn create_volume(
        &mut self,
        name: &str,
        mount: &str,
        server: ServerId,
        root_acl: AccessList,
    ) -> Result<VolumeId, SystemError> {
        if server.0 as usize >= self.topo.servers.len() {
            return Err(SystemError::BadId(format!("server {}", server.0)));
        }
        // Stub directory in the enclosing volume (if any).
        if mount != "/vice" {
            self.admin_mkdir_p(mount)?;
        }
        let id = self.alloc_volume_id();
        let vol = Volume::new(id, name, mount, root_acl);
        self.topo.servers[server.0 as usize].add_volume(vol);
        for s in &mut self.topo.servers {
            s.location_mut().assign(mount, server);
        }
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
    /// every location-database replica. The files are "unavailable during
    /// the change" (Section 3.1); the returned time is when the move
    /// completed.
    pub fn move_volume(&mut self, mount: &str, to: ServerId) -> Result<SimTime, SystemError> {
        let from = self
            .location_of(mount)
            .ok_or_else(|| SystemError::Volume(format!("no volume at {mount}")))?;
        if from == to {
            return Ok(self.clock.now());
        }
        let vid = self.topo.servers[from.0 as usize]
            .volumes()
            .iter()
            .find(|v| v.mount() == mount && !v.is_read_only())
            .map(Volume::id)
            .ok_or_else(|| SystemError::Volume(format!("no writable volume at {mount}")))?;
        let vol = self.topo.servers[from.0 as usize]
            .take_volume(vid)
            .expect("found above");

        // Time: ship the volume's bytes across the network and update every
        // location replica.
        let costs = self.kernel.costs().clone();
        let bytes = vol.used_bytes();
        let start = self.clock.now();
        let hops = self.topo.network.hops(
            self.topo.servers[from.0 as usize].node(),
            self.topo.servers[to.0 as usize].node(),
        );
        let shipped = start + costs.net_latency(hops) + costs.net_transfer(bytes);
        let done = self.topo.servers[to.0 as usize]
            .disk()
            .acquire(shipped, costs.disk_transfer(bytes));
        self.topo.servers[to.0 as usize].add_volume(vol);
        for s in &mut self.topo.servers {
            s.location_mut().reassign(mount, to);
        }
        let repl_done = self.charge_protection_replication_from(done);
        self.clock.advance_to(repl_done);
        Ok(repl_done)
    }

    /// Clones the volume at `mount` and installs the read-only replica on
    /// each of `sites`, registering them in every location replica — the
    /// Section 3.2 mechanism for system binaries. Re-running it refreshes
    /// existing replicas atomically (the "orderly release").
    pub fn replicate_readonly(
        &mut self,
        mount: &str,
        sites: &[ServerId],
    ) -> Result<(), SystemError> {
        let owner = self
            .location_of(mount)
            .ok_or_else(|| SystemError::Volume(format!("no volume at {mount}")))?;
        let src_id = self.topo.servers[owner.0 as usize]
            .volumes()
            .iter()
            .find(|v| v.mount() == mount && !v.is_read_only())
            .map(Volume::id)
            .ok_or_else(|| SystemError::Volume(format!("no writable volume at {mount}")))?;

        for &site in sites {
            if site == owner {
                continue;
            }
            let clone_id = self.alloc_volume_id();
            let src_server = &mut self.topo.servers[owner.0 as usize];
            let clone = src_server
                .volume_mut(src_id)
                .expect("source volume")
                .clone_readonly(clone_id);
            // Cloning bumps the source's clone serial outside the journal;
            // refresh its checkpoint so a later salvage reproduces it.
            src_server.recheckpoint(src_id);

            // Replace an existing replica of this mount, else install.
            let dst = &mut self.topo.servers[site.0 as usize];
            let existing = dst
                .volumes()
                .iter()
                .find(|v| v.mount() == mount && v.is_read_only())
                .map(Volume::id);
            if let Some(old) = existing {
                dst.take_volume(old);
            }
            dst.add_volume(clone);
            for s in &mut self.topo.servers {
                s.location_mut().add_replica(mount, site);
            }
        }
        Ok(())
    }

    /// The custodian of `path` per the (replicated) location database.
    pub fn location_of(&self, path: &str) -> Option<ServerId> {
        self.topo.servers[0].location().custodian_of(path)
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
            let Some(owner) = self.location_of(&prefix) else {
                return Err(SystemError::Volume(format!("no custodian for {prefix}")));
            };
            let srv = &mut self.topo.servers[owner.0 as usize];
            // Find the hosting writable volume.
            let Some(vol) = srv
                .volumes()
                .iter()
                .filter(|v| v.covers(&prefix) && !v.is_read_only())
                .max_by_key(|v| v.mount().len())
                .map(Volume::id)
            else {
                return Err(SystemError::Volume(format!("no volume hosts {prefix}")));
            };
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
        let owner = self
            .location_of(vice_path)
            .ok_or_else(|| SystemError::Volume(format!("no custodian for {vice_path}")))?;
        let srv = &mut self.topo.servers[owner.0 as usize];
        let vol_id = srv
            .volumes()
            .iter()
            .filter(|v| v.covers(vice_path) && !v.is_read_only())
            .max_by_key(|v| v.mount().len())
            .map(Volume::id)
            .ok_or_else(|| SystemError::Volume(format!("no volume hosts {vice_path}")))?;
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
        let owner = self
            .location_of(mount)
            .ok_or_else(|| SystemError::Volume(format!("no volume at {mount}")))?;
        let srv = &mut self.topo.servers[owner.0 as usize];
        let vid = srv
            .volumes()
            .iter()
            .find(|v| v.mount() == mount && !v.is_read_only())
            .map(Volume::id)
            .ok_or_else(|| SystemError::Volume(format!("no writable volume at {mount}")))?;
        srv.admin_apply(vid, JournalOp::SetQuota { bytes })
            .map_err(|e| SystemError::Volume(e.to_string()))?;
        Ok(())
    }

    /// Takes the volume at `mount` offline or online.
    pub fn set_volume_online(&mut self, mount: &str, online: bool) -> Result<(), SystemError> {
        let owner = self
            .location_of(mount)
            .ok_or_else(|| SystemError::Volume(format!("no volume at {mount}")))?;
        let srv = &mut self.topo.servers[owner.0 as usize];
        let vid = srv
            .volumes()
            .iter()
            .find(|v| v.mount() == mount && !v.is_read_only())
            .map(Volume::id)
            .ok_or_else(|| SystemError::Volume(format!("no writable volume at {mount}")))?;
        srv.volume_mut(vid).expect("found").set_online(online);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Fault injection and recovery
    // ------------------------------------------------------------------

    /// Takes an entire server machine down or up (the availability goal:
    /// "temporary loss of service to small groups of users" only).
    pub fn set_server_online(&mut self, id: ServerId, online: bool) {
        self.topo.servers[id.0 as usize].set_online(online);
    }

    /// Installs a deterministic fault plan. Message faults apply to every
    /// subsequent Vice call; scheduled crashes/restarts enter the event
    /// calendar and fire as virtual time passes them.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.core.install_faults(plan);
    }

    /// Counters of faults the installed plan has injected so far, summed
    /// across every cluster's shard.
    pub fn fault_stats(&self) -> FaultStats {
        self.core.fault_stats()
    }

    /// Whether any fault plan is currently installed. Parallel drivers
    /// consult this to widen their op masks to every cluster — crash and
    /// break schedules make cross-cluster interactions unpredictable, so
    /// faulted runs serialize (and stay bit-identical).
    pub fn faults_installed(&self) -> bool {
        self.core.any_faults()
    }

    /// Whether the installed plan couples clusters (message faults,
    /// scripted outcomes, crashes, or restarts). Corruption-only plans do
    /// not — their flips land on the owning cluster's own calendar — so a
    /// parallel run keeps its narrow per-cluster masks.
    pub fn faults_couple_clusters(&self) -> bool {
        self.core.faults_couple_clusters()
    }

    // ------------------------------------------------------------------
    // Data integrity: scrubbing and corruption accounting
    // ------------------------------------------------------------------

    /// Turns the background scrubber on: every server walks one volume of
    /// its rotation every `interval`, starting one interval from now. The
    /// passes are perfectly preemptible — their disk time is charged to
    /// the scrub attribution ledger only, never to the disk resource or
    /// the clock — so foreground virtual timings are bit-identical with
    /// scrubbing on or off.
    pub fn enable_scrub(&mut self, interval: SimTime) {
        let now = self.clock.now();
        self.core.enable_scrub(now, interval);
    }

    /// Turns the background scrubber off; already-scheduled passes become
    /// stale and are dropped when they fire.
    pub fn disable_scrub(&mut self) {
        self.core.disable_scrub();
    }

    /// Running scrubber counters for one server.
    pub fn server_scrub_stats(&self, id: ServerId) -> ScrubStats {
        self.topo.servers[id.0 as usize].scrub_stats()
    }

    /// A server's corruption ledger: every injected flip with its region,
    /// detection time, and resolution.
    pub fn server_corruption_log(&self, id: ServerId) -> &[CorruptionEvent] {
        self.topo.servers[id.0 as usize].corruption_log()
    }

    /// Corruption accounting summed across every server. The end-to-end
    /// integrity claim is `latent == 0` once the workload and scrub
    /// rotation have drained: every injected flip was detected by a
    /// trailer or digest verifier and repaired, rejected, or offlined.
    pub fn integrity_counters(&self) -> IntegrityCounters {
        let mut total = IntegrityCounters::default();
        for s in &self.topo.servers {
            for ev in s.corruption_log() {
                total.absorb(ev);
            }
        }
        total
    }

    /// Counters of what the RPC retry machinery did across all calls,
    /// summed across every cluster.
    pub fn call_stats(&self) -> CallStats {
        self.core.call_stats()
    }

    /// Lifetime counters of the event calendars (scheduled, executed,
    /// cancelled, high-water queue depth), summed across every cluster.
    pub fn event_stats(&self) -> EventStats {
        self.core.event_stats()
    }

    /// Replaces the retry/backoff policy for subsequent calls.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.core.retry = policy;
    }

    /// The retry/backoff policy in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.core.retry
    }

    /// Consecutive failed exchanges workstation `ws` has had with `server`.
    pub fn reconnect_failures(&self, ws: usize, server: ServerId) -> u32 {
        self.clients[ws].reconnect_failures(server)
    }

    /// Crashes a server immediately: it goes offline and loses all
    /// in-memory state (callback promises, replay cache, locks), exactly
    /// what a reboot of the real machine would lose.
    pub fn crash_server(&mut self, id: ServerId) {
        self.topo.servers[id.0 as usize].crash();
    }

    /// Brings a crashed server back up, empty-handed: clients rediscover
    /// the new epoch on their next genuine exchange and revalidate. The
    /// operator path salvages synchronously — volumes are back online when
    /// this returns. (Scheduled restarts from a fault plan instead run the
    /// salvager as timed calendar events; see the transport.)
    pub fn restart_server(&mut self, id: ServerId) {
        let now = self.clock.now();
        let srv = &mut self.topo.servers[id.0 as usize];
        srv.restart();
        let reports = srv.salvage_all();
        if reports.iter().any(|r| r.records_rejected > 0) {
            // Trailer verification rejected a damaged journal suffix: the
            // flips behind it are now detected.
            srv.mark_corruptions_detected(now, CorruptionOutcome::RejectedAtSalvage, |r| {
                matches!(r, FlipRegion::Journal { .. })
            });
        }
    }

    /// Salvage reports accumulated by a server since construction, in the
    /// order the passes ran.
    pub fn server_salvage_reports(&self, id: ServerId) -> &[SalvageReport] {
        self.topo.servers[id.0 as usize].salvage_reports()
    }

    /// Volumes on `id` still awaiting a salvager pass (offline until it
    /// runs).
    pub fn server_salvage_pending(&self, id: ServerId) -> Vec<VolumeId> {
        self.topo.servers[id.0 as usize].salvage_pending().to_vec()
    }

    /// Journal counters for a server's disk.
    pub fn server_journal_stats(&self, id: ServerId) -> JournalStats {
        self.topo.servers[id.0 as usize].journal_stats()
    }

    /// Switches a server's journal sync discipline. `WriteAhead` (the
    /// default) forces the journal before replies leave; `Lazy` never
    /// forces, so a crash can tear off acknowledged mutations — the
    /// anti-model the crash-consistency suite measures against.
    pub fn set_journal_sync_policy(&mut self, id: ServerId, policy: SyncPolicy) {
        self.topo.servers[id.0 as usize].set_sync_policy(policy);
    }

    /// Per-incarnation request-queue high-water marks for a server:
    /// `(epoch, high_water)` for every completed incarnation plus the
    /// current one (last).
    pub fn server_queue_history(&self, id: ServerId) -> Vec<(u64, usize)> {
        self.topo.servers[id.0 as usize].queue_high_water_history()
    }

    /// A server's restart epoch (bumped by every crash).
    pub fn server_epoch(&self, id: ServerId) -> u64 {
        self.topo.servers[id.0 as usize].epoch()
    }

    /// Fires any calendar events due at the current virtual time. The
    /// transport also pumps the calendar before every call, so this is
    /// only needed when a test advances time without traffic and wants to
    /// observe server state directly.
    pub fn run_fault_schedule(&mut self) {
        let now = self.clock.now();
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

    /// Starts recording per-subtree, per-origin-cluster traffic.
    pub fn enable_monitoring(&mut self) {
        if self.monitor.is_none() {
            self.monitor = Some(TrafficMonitor::new());
        }
    }

    /// The monitor, if enabled.
    pub fn monitor(&self) -> Option<&TrafficMonitor> {
        self.monitor.as_ref()
    }

    /// Fraction of monitored calls that crossed a bridge to a custodian in
    /// another cluster.
    pub fn cross_cluster_fraction(&self) -> f64 {
        match &self.monitor {
            Some(m) => {
                let loc = self.topo.servers[0].location();
                m.cross_cluster_fraction(|s| loc.custodian_of(s))
            }
            None => 0.0,
        }
    }

    /// Volume-move recommendations from the monitor (the paper insists "a
    /// human operator will initiate the actual reassignment" — callers
    /// apply them with [`ItcSystem::move_volume`]).
    pub fn rebalancing_recommendations(&self) -> Vec<crate::monitor::MoveRecommendation> {
        match &self.monitor {
            Some(m) => {
                let loc = self.topo.servers[0].location();
                m.recommendations(|s| loc.custodian_of(s), |s| s != "/vice")
            }
            None => Vec::new(),
        }
    }

    /// Clears monitor observations (new measurement epoch).
    pub fn reset_monitoring(&mut self) {
        if let Some(m) = self.monitor.as_mut() {
            m.reset();
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
        for cluster in &mut self.core.clusters {
            cluster.trace.set_enabled(true);
        }
    }

    /// Turns tracing off. Resident spans, aggregates, and frozen dumps
    /// are kept for inspection.
    pub fn disable_tracing(&mut self) {
        for cluster in &mut self.core.clusters {
            cluster.trace.set_enabled(false);
        }
    }

    /// Whether tracing is currently recording (the flag is identical
    /// across clusters).
    pub fn tracing_enabled(&self) -> bool {
        self.core.clusters[0].trace.is_enabled()
    }

    /// Cluster 0's span ring and flight recorder (spans, per-trace lookup,
    /// frozen anomaly dumps). Single-cluster systems have exactly one;
    /// multi-cluster callers wanting everything use
    /// [`ItcSystem::cluster_trace_collector`] per cluster or the merged
    /// renderings below.
    pub fn trace_collector(&self) -> &TraceCollector {
        &self.core.clusters[0].trace
    }

    /// One cluster's span ring and flight recorder.
    pub fn cluster_trace_collector(&self, cluster: usize) -> &TraceCollector {
        &self.core.clusters[cluster].trace
    }

    /// Lifetime tracing counters (traces minted, spans recorded/evicted,
    /// anomalies frozen), summed across every cluster.
    pub fn trace_stats(&self) -> TraceStats {
        self.core.trace_stats()
    }

    /// The latency-attribution aggregates over completed traced calls,
    /// merged across every cluster in cluster order.
    pub fn attribution(&self) -> AttributionAgg {
        self.core.attribution()
    }

    /// The observability time series, merged across every cluster. Empty
    /// unless tracing was enabled (sampling rides the tracing switch).
    pub fn obs_summary(&self) -> crate::obs::ObsSummary {
        self.core.obs_summary()
    }

    /// The typed health events the SLO engine recorded, merged across
    /// clusters, deduplicated, and sorted into a stable timeline.
    pub fn health_events(&self) -> Vec<itc_sim::HealthEvent> {
        self.core.health_events()
    }

    /// The deterministic JSONL series export: every sampled series bucket
    /// plus every health event, one flat line each, byte-identical across
    /// same-seed runs and across sequential vs. parallel execution.
    pub fn render_series_export(&self) -> String {
        self.core
            .obs_summary()
            .render_jsonl(&self.core.health_events())
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
        self.core
            .clusters
            .iter()
            .flat_map(|c| c.trace.dumps().iter())
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
        let at = self.clock.now();
        let mut call_mix = itc_sim::Counter::new();
        let servers = self
            .topo
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
        for c in &self.clients {
            merge_cache(&mut cache, c.cache().stats());
            merge_venus(&mut venus, c.stats());
        }
        SystemMetrics {
            at,
            servers,
            call_mix,
            cache,
            venus,
            attribution: self
                .tracing_enabled()
                .then(|| self.core.attribution().summary()),
            events: self.core.event_stats(),
        }
    }
}
