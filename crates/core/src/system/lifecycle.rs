//! Everything on the calendars that is not a Vice call: fault-plan
//! installation, scheduled crashes and restarts, salvager passes, silent
//! corruption, the background scrubber with its repair-else-offline rule,
//! and matured callback breaks.
//!
//! Lifecycle events live on the **server's** cluster calendar
//! (`BreakDeliver` on the **target workstation's**) and fire from the same
//! merged pop order as call events, whether or not a call is in flight.

use super::transport::{NetEvent, PendingBreak, SystemTransport};
use super::ItcSystem;
use crate::disk::{CorruptionOutcome, FlipRegion, ScrubFinding};
use crate::proto::VolumeId;
use itc_sim::{EventClass, FaultPlan, SimTime, SpanClass};

impl ItcSystem {
    /// Installs a deterministic fault plan, split into per-cluster shards
    /// (each server's faults land on its own cluster, with independent
    /// per-shard rng streams). Each shard's crash/restart schedule enters
    /// its cluster's calendar (crashes sort before restarts at the same
    /// instant) and fires as virtual time passes it; its message faults
    /// govern every subsequent call served there.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.campus.plan_gen += 1;
        let gen = self.campus.plan_gen;
        let shards = plan.split(self.cores.len(), |server| server as usize);
        for (cl, shard) in self.cores.iter_mut().zip(shards) {
            for (server, at) in shard.crash_schedule() {
                cl.sched
                    .schedule_class(at, EventClass::Crash, NetEvent::Crash { server, gen });
            }
            for (server, at) in shard.restart_schedule() {
                cl.sched
                    .schedule_class(at, EventClass::Restart, NetEvent::Restart { server, gen });
            }
            // Corruption flips are scheduled with no tie draw, so a
            // corruption-only plan perturbs nothing else.
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

    /// Turns the background scrubber on: every server walks one volume of
    /// its rotation every `interval`, starting one interval from now. The
    /// passes are perfectly preemptible — their disk time is charged to
    /// the scrub attribution ledger only, never to the disk resource or
    /// the clock — so foreground virtual timings are bit-identical with
    /// scrubbing on or off. Re-enabling bumps the generation so stale
    /// passes from the previous cadence are dropped.
    pub fn enable_scrub(&mut self, interval: SimTime) {
        let now = self.now();
        self.campus.scrub_gen += 1;
        self.campus.scrub_interval = Some(interval);
        let gen = self.campus.scrub_gen;
        for (cluster, cl) in self.cores.iter_mut().enumerate() {
            let server = cluster as u32;
            cl.sched.schedule_class_untied(
                now + interval,
                EventClass::Scrub,
                NetEvent::Scrub { server, gen },
            );
        }
    }
}

impl SystemTransport<'_> {
    /// Applies a non-call event that fired from `cluster`'s calendar.
    /// Events of a superseded fault plan or scrub generation are dropped.
    pub(crate) fn system_event(&mut self, cluster: usize, at: SimTime, ev: NetEvent) {
        match ev {
            NetEvent::Crash { server, gen } if gen == self.campus.plan_gen => {
                let sid = server as usize;
                // The torn-write model: the crash catches up to `unsynced`
                // journal bytes mid-write. The draw is skipped entirely
                // when the journal is clean, so the write-ahead policy
                // leaves the fault rng untouched.
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
            NetEvent::Restart { server, gen } if gen == self.campus.plan_gen => {
                let srv = self.servers.get_mut(server as usize);
                srv.restart();
                // Volumes stay offline until a salvager pass replays the
                // journal over their checkpoints. Each pass is a calendar
                // event charged on the server's disk, so traffic arriving
                // mid-salvage sees `VolumeOffline`.
                let epoch = srv.epoch();
                for volume in srv.salvage_pending().to_vec() {
                    let srv = self.servers.get_mut(server as usize);
                    let (records, bytes) = srv.salvage_work(volume);
                    let pass = self.campus.kernel.costs().salvage_time(bytes, records);
                    let done = srv.resources_mut().1.acquire(at, pass);
                    self.salvage_scheduled(cluster, pass);
                    let ev = NetEvent::Salvage {
                        server,
                        volume,
                        gen,
                        epoch,
                    };
                    let sched = &mut self.cores.get_mut(cluster).sched;
                    sched.schedule_class(done, EventClass::Salvage, ev);
                }
                self.life_span(cluster, SpanClass::Restart, at, Some(server), None, None);
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
                if gen != self.campus.plan_gen || !srv.is_online() || srv.epoch() != epoch {
                    return;
                }
                let salvaged = srv.salvage_volume(volume, at);
                let rejected = salvaged.map_or(0, |r| r.records_rejected);
                self.salvage_done(cluster, at, server, volume, rejected);
            }
            NetEvent::BreakDeliver { to_ws, paths } => {
                let client = Some(to_ws.0);
                self.life_span(cluster, SpanClass::BreakDeliver, at, None, client, None);
                let pending = &mut self.cores.get_mut(cluster).pending;
                pending.extend(paths.into_iter().map(|path| PendingBreak { to_ws, path }));
            }
            NetEvent::Corrupt { server, gen } if gen == self.campus.plan_gen => {
                let sid = server as usize;
                // The flip lands somewhere in the server's durable address
                // space (journal bytes, checkpoint file contents, Merkle
                // leaf table). The draw is skipped entirely when there is
                // nothing durable to damage, so an empty disk leaves the
                // fault rng untouched.
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
            NetEvent::Scrub { server, gen } if gen == self.campus.scrub_gen => {
                let interval = self
                    .campus
                    .scrub_interval
                    .expect("scrub event live while scrubbing disabled");
                if self.servers.get(server as usize).is_online() {
                    self.scrub_pass(cluster, at, server);
                }
                self.cores.get_mut(cluster).sched.schedule_class_untied(
                    at + interval,
                    EventClass::Scrub,
                    NetEvent::Scrub { server, gen },
                );
            }
            NetEvent::Crash { .. }
            | NetEvent::Restart { .. }
            | NetEvent::Corrupt { .. }
            | NetEvent::Scrub { .. } => {}
            _ => unreachable!("call-chain event with no call in flight"),
        }
    }

    /// One background scrub pass over the next volume in `server`'s
    /// rotation: digest scan, then repair-or-offline for every finding.
    fn scrub_pass(&mut self, cluster: usize, at: SimTime, server: u32) {
        let srv = self.servers.get_mut(server as usize);
        let Some(vid) = srv.next_scrub_volume() else {
            return;
        };
        let Some(scan) = srv.scrub_scan(vid) else {
            return;
        };
        for finding in &scan.findings {
            self.repair_or_offline(at, server, vid, finding);
        }
        self.drain_integrity_anomalies(cluster, at, server);
        self.scrub_done(cluster, at, server, vid, scan.bytes);
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
        vid: VolumeId,
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
                            if data.digest() == expected {
                                return Some(data);
                            }
                        }
                    }
                }
            }
            None
        });
        let srv = self.servers.get_mut(sid);
        let outcome = match voucher {
            Some(data) => {
                srv.repair_file(vid, &path, data);
                CorruptionOutcome::RepairedFromReplica
            }
            None => {
                srv.offline_volume_for_integrity(vid, &path);
                CorruptionOutcome::VolumeOfflined
            }
        };
        srv.mark_corruptions_detected(at, outcome, |r| match r {
            FlipRegion::CheckpointFile { volume, path: p }
            | FlipRegion::MerkleLeaf { volume, path: p } => *volume == vid && p == &path,
            FlipRegion::Journal { .. } => false,
        });
    }

    /// Drains integrity events queued on `server` (volumes taken offline by
    /// scrub or fetch-time digest checks) and reports them for observation.
    pub(crate) fn drain_integrity_anomalies(&mut self, cluster: usize, at: SimTime, server: u32) {
        let events = self
            .servers
            .get_mut(server as usize)
            .drain_integrity_events();
        self.integrity_offlined(cluster, at, server, &events);
    }
}
