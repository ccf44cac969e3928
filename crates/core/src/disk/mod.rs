//! Durable volume storage: checkpoints plus a write-ahead journal.
//!
//! Section 5.3 makes the volume the unit of recovery: it "may be turned
//! offline or online, moved between servers and salvaged after a system
//! crash." This module supplies the disk under that promise. Each Vice
//! server owns one [`Disk`] holding, per volume, a **checkpoint** (a full
//! image of the volume as of some journal sequence number) and, shared
//! across volumes, an append-only **write-ahead journal** of every
//! mutation since ([`Journal`]).
//!
//! The write path follows the classic WAL discipline:
//!
//! 1. **intent** — the op is appended to the journal ([`Journal::begin`]);
//! 2. **apply** — the op mutates the in-memory volume image;
//! 3. **commit** — the record is closed with a commit (or, if the apply
//!    failed, abort) trailer.
//!
//! Whether those appended bytes are *durable* is the [`SyncPolicy`]'s
//! call: under [`SyncPolicy::WriteAhead`] the server forces the log before
//! acknowledging a request, so a crash can never lose an acknowledged
//! mutation; under [`SyncPolicy::Lazy`] the log is forced only on explicit
//! syncs, trading durability for the forced-write latency — the
//! configuration that gives the torn-write crash model something to tear.
//!
//! A crash truncates the journal somewhere inside its unsynced window
//! (seed-controlled; see `FaultPlan::torn_bytes`) and takes every volume
//! offline. Recovery is the **salvager**: per volume, clone the checkpoint
//! image, replay the surviving committed records in log order, re-verify
//! the volume's structural invariants, and only then bring it online
//! ([`Disk::salvage`]).

mod integrity;
mod journal;
mod salvage;

pub use integrity::{
    CorruptionEvent, CorruptionOutcome, FlipRegion, IntegrityCounters, ScrubFinding, ScrubScan,
    ScrubStats, VolumeMerkle, MERKLE_FANOUT,
};
pub use journal::{Journal, JournalOp, JournalStats, Record, RecordState};
pub use salvage::SalvageReport;

use crate::proto::Payload;
use crate::volume::{Volume, VolumeId};
use std::collections::HashMap;

/// When the journal's volatile tail is forced to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Force the log before every acknowledgment (the default): no
    /// acknowledged mutation can be lost to a crash.
    #[default]
    WriteAhead,
    /// Never force automatically; only explicit [`Disk::sync`] calls (and
    /// administrative writes) reach the platter. Acknowledged mutations in
    /// the unsynced window are exposed to torn-write loss.
    Lazy,
}

/// A volume image frozen at a journal position.
#[derive(Debug, Clone)]
struct Checkpoint {
    /// The frozen image (kept online/writable exactly as captured).
    image: Volume,
    /// Journal records with `seq <= upto_seq` are already reflected in the
    /// image; salvage replays only what lies beyond.
    upto_seq: u64,
}

/// One server's durable storage: per-volume checkpoints plus the shared
/// write-ahead journal.
#[derive(Debug, Clone, Default)]
pub struct Disk {
    journal: Journal,
    checkpoints: HashMap<u32, Checkpoint>,
    policy: SyncPolicy,
}

impl Disk {
    /// An empty disk with the given sync policy.
    pub fn new(policy: SyncPolicy) -> Disk {
        Disk {
            journal: Journal::new(),
            checkpoints: HashMap::new(),
            policy,
        }
    }

    /// The active sync policy.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Switches the sync policy (an administrative knob; takes effect on
    /// the next acknowledgment).
    pub fn set_policy(&mut self, policy: SyncPolicy) {
        self.policy = policy;
    }

    /// Read access to the journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Checkpoints `vol` as-is: the image reflects every journal record
    /// appended so far, so salvage replays nothing older. Called when a
    /// volume is installed at the server and after out-of-band mutations
    /// (clone, refresh) that bypass the journal.
    pub fn checkpoint(&mut self, vol: &Volume) {
        let upto_seq = self.last_seq();
        self.checkpoints.insert(
            vol.id().0,
            Checkpoint {
                image: vol.clone(),
                upto_seq,
            },
        );
    }

    /// Highest sequence number issued so far (0 when the journal is empty).
    fn last_seq(&self) -> u64 {
        self.journal.records().last().map(|r| r.seq).unwrap_or(0)
    }

    /// Forgets a volume's checkpoint (volume moved away or destroyed).
    pub fn drop_volume(&mut self, vid: VolumeId) {
        self.checkpoints.remove(&vid.0);
    }

    /// Appends an intent record for `op` against `vid`. Returns the
    /// sequence number to pass to [`Self::commit`].
    pub fn begin(&mut self, vid: VolumeId, op: JournalOp) -> u64 {
        self.journal.begin(vid.0, op)
    }

    /// Closes record `seq` (commit on success, abort on failure).
    pub fn commit(&mut self, seq: u64, applied: bool) {
        self.journal.commit(seq, applied);
    }

    /// Forces the journal's volatile tail to disk.
    pub fn sync(&mut self) {
        self.journal.sync();
    }

    /// Journal bytes that a crash right now could tear.
    pub fn unsynced(&self) -> u64 {
        self.journal.unsynced()
    }

    /// The crash: `torn` bytes of the unsynced window survive; the journal
    /// is truncated at the last complete committed record within them.
    /// Returns the bytes discarded.
    pub fn crash_truncate(&mut self, torn: u64) -> u64 {
        self.journal.crash_truncate(torn)
    }

    /// Replay work pending for `vid` — `(records, bytes)` the salvager
    /// would scan and apply. Drives the salvage-time cost model.
    pub fn salvage_work(&self, vid: VolumeId) -> (u64, u64) {
        let after = self
            .checkpoints
            .get(&vid.0)
            .map(|c| c.upto_seq)
            .unwrap_or(0);
        self.journal.replay_work(vid.0, after)
    }

    /// Salvages `vid`: rebuilds the volume from its checkpoint image plus
    /// the committed journal records beyond it, verifies invariants, and
    /// returns the rebuilt (online) volume with a report. `None` when no
    /// checkpoint exists for the volume.
    ///
    /// The rebuilt image becomes the new checkpoint — a salvage pass ends
    /// with the disk consistent as of the truncated log's tail, so a
    /// second crash before any new traffic replays nothing.
    pub fn salvage(&mut self, vid: VolumeId) -> Option<(Volume, SalvageReport)> {
        let ckpt = self.checkpoints.get(&vid.0)?;
        let after = ckpt.upto_seq;
        let mut vol = ckpt.image.clone();
        // The checkpoint may have been captured in any state; salvage works
        // on a writable image and decides onlineness at the end.
        vol.set_online(true);
        let mut report = SalvageReport {
            volume: vid,
            replayed: 0,
            skipped_aborted: 0,
            scanned_bytes: 0,
            replay_errors: 0,
            records_rejected: 0,
            invariant_violations: Vec::new(),
        };
        // The log scan verifies every record's FNV-1a trailer, not just
        // torn tails: the first record whose trailer no longer matches its
        // bytes is end-of-journal, and everything at or past it is
        // untrustworthy (a corrupted length field means the scan cannot
        // even re-frame what follows). `None` on every flip-free run.
        let cut = self.journal.damage_cut();
        // The scan frames and verifies every closed record from the start
        // of the log, including this volume's records at or before the
        // checkpoint sequence. Damage there is superseded by the
        // checkpoint image — nothing to replay — but it does not pass
        // silently: each such record is counted rejected.
        let synced = self.journal.stats().synced_len;
        report.records_rejected += self
            .journal
            .records()
            .iter()
            .filter(|r| {
                r.volume == vid.0
                    && r.seq <= after
                    && r.state != RecordState::Pending
                    && r.end <= synced
                    && !self.journal.verify_record(r)
            })
            .count() as u64;
        // Replay in log order.
        let mut upto_seq = after;
        for r in self.journal.records() {
            if r.volume != vid.0 || r.seq <= after {
                continue;
            }
            upto_seq = r.seq;
            if let Some(cut) = cut {
                if r.end > cut {
                    report.records_rejected += 1;
                    continue;
                }
            }
            report.scanned_bytes += r.end - r.start;
            match r.state {
                RecordState::Committed => {
                    if r.op.apply(&mut vol).is_ok() {
                        report.replayed += 1;
                    } else {
                        report.replay_errors += 1;
                    }
                }
                RecordState::Aborted => report.skipped_aborted += 1,
                RecordState::Pending => {
                    // Pending records never survive crash truncation; a
                    // live salvage (no crash) just ignores them.
                }
            }
        }
        if let Err(violations) = vol.check_invariants() {
            report.invariant_violations = violations;
        }
        self.checkpoints.insert(
            vid.0,
            Checkpoint {
                image: vol.clone(),
                upto_seq,
            },
        );
        Some((vol, report))
    }

    // ----------------------------------------------------------------
    // End-to-end integrity: the durable address space, flip injection,
    // scrubbing, and repair
    // ----------------------------------------------------------------

    /// Volume ids with a checkpoint on this disk, ascending — the
    /// scrubber's rotation order.
    pub fn volumes_on_disk(&self) -> Vec<VolumeId> {
        let mut vids: Vec<u32> = self.checkpoints.keys().copied().collect();
        vids.sort_unstable();
        vids.into_iter().map(VolumeId).collect()
    }

    /// Read access to a volume's checkpoint image.
    pub fn checkpoint_image(&self, vid: VolumeId) -> Option<&Volume> {
        self.checkpoints.get(&vid.0).map(|c| &c.image)
    }

    /// Total durable bytes a silent flip could land in, laid out
    /// deterministically: the journal's synced prefix, then per checkpoint
    /// (ascending volume id) the image's regular-file contents (path
    /// order) followed by its Merkle leaf table (8 bytes per leaf, path
    /// order). The same layout on the same state yields the same extent —
    /// the corruption fault draws offsets against this space.
    pub fn durable_extent(&self) -> u64 {
        let mut extent = self.journal.stats().synced_len;
        for vid in self.volumes_on_disk() {
            let image = &self.checkpoints[&vid.0].image;
            extent += image.regular_files().iter().map(|(_, sz)| sz).sum::<u64>();
            extent += image.merkle().table_bytes();
        }
        extent
    }

    /// Lands one silent flip at `offset` in the durable address space
    /// (see [`Self::durable_extent`]), XORing `mask` into the byte there.
    /// Returns where the damage landed, or `None` when the offset fell
    /// outside every region (an empty disk, or a race with truncation).
    pub fn apply_flip(&mut self, offset: u64, mask: u8) -> Option<FlipRegion> {
        let synced = self.journal.stats().synced_len;
        if offset < synced {
            // Journal damage rides as an overlay: the structured records
            // model the intended bytes, the overlay what the platter holds.
            let seq = self
                .journal
                .record_covering(offset)
                .map(|r| r.seq)
                .unwrap_or(0);
            self.journal.add_flip(offset, mask);
            return Some(FlipRegion::Journal { seq });
        }
        let mut rel = offset - synced;
        for vid in self.volumes_on_disk() {
            let files = self.checkpoints[&vid.0].image.regular_files();
            for (path, size) in files {
                if rel < size {
                    let image = &mut self.checkpoints.get_mut(&vid.0).expect("present").image;
                    if image.damage_file_byte(&path, rel, mask) {
                        return Some(FlipRegion::CheckpointFile { volume: vid, path });
                    }
                    return None;
                }
                rel -= size;
            }
            let image = &self.checkpoints[&vid.0].image;
            let table = image.merkle().table_bytes();
            if rel < table {
                let idx = (rel / 8) as usize;
                let byte_idx = (rel % 8) as usize;
                let path = image
                    .merkle()
                    .leaves()
                    .keys()
                    .nth(idx)
                    .expect("leaf index within table")
                    .clone();
                // The leaf is stored big-endian in the address space; flip
                // the chosen byte of the digest word.
                let mask64 = u64::from(mask) << (8 * (7 - byte_idx));
                let image = &mut self.checkpoints.get_mut(&vid.0).expect("present").image;
                if image.damage_merkle_leaf(&path, mask64) {
                    return Some(FlipRegion::MerkleLeaf { volume: vid, path });
                }
                return None;
            }
            rel -= table;
        }
        None
    }

    /// One scrub pass over `vid`'s checkpoint image: re-digest every
    /// regular file and compare against the image's own Merkle tree.
    /// `None` when the disk holds no checkpoint for the volume.
    pub fn scrub_volume(&self, vid: VolumeId) -> Option<ScrubScan> {
        let image = self.checkpoint_image(vid)?;
        let files = image.regular_files();
        let bytes = files.iter().map(|(_, sz)| sz).sum::<u64>() + image.merkle().table_bytes();
        Some(ScrubScan {
            volume: vid,
            files: files.len() as u64,
            bytes,
            findings: image.verify_merkle(),
        })
    }

    /// Repairs one file of `vid`'s checkpoint image with bytes re-fetched
    /// from a vouching replica, quietly (no mtime/version movement: the
    /// committed contents never logically changed). Returns false when the
    /// checkpoint or file is missing.
    pub fn repair_checkpoint_file(
        &mut self,
        vid: VolumeId,
        path: &str,
        data: impl Into<Payload>,
    ) -> bool {
        match self.checkpoints.get_mut(&vid.0) {
            Some(c) => c.image.restore_file(path, data),
            None => false,
        }
    }

    /// Marks `vid`'s checkpoint image offline — the terminal state of an
    /// unrepairable corruption (no replica can vouch for the bytes).
    pub fn offline_checkpoint(&mut self, vid: VolumeId) {
        if let Some(c) = self.checkpoints.get_mut(&vid.0) {
            c.image.set_online(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protect::{AccessList, Rights};

    fn test_volume() -> Volume {
        let mut acl = AccessList::new();
        acl.grant("satya", Rights::ALL);
        Volume::new(VolumeId(7), "user.test", "/vice/usr/test", acl)
    }

    fn store_op(path: &str, data: &[u8]) -> JournalOp {
        JournalOp::Store {
            path: path.to_string(),
            uid: 1,
            mtime: 10,
            data: Payload::from_vec(data.to_vec()),
        }
    }

    /// Journals `op` against `vol` through the full intent→apply→commit
    /// cycle, mirroring the server's write path.
    fn journaled(disk: &mut Disk, vol: &mut Volume, op: JournalOp) -> Result<(), ()> {
        let seq = disk.begin(vol.id(), op.clone());
        let ok = op.apply(vol).is_ok();
        disk.commit(seq, ok);
        if ok {
            Ok(())
        } else {
            Err(())
        }
    }

    #[test]
    fn wal_cycle_appends_then_closes_records() {
        let mut disk = Disk::new(SyncPolicy::Lazy);
        let mut vol = test_volume();
        disk.checkpoint(&vol);

        journaled(&mut disk, &mut vol, store_op("/a.txt", b"hello")).unwrap();
        let stats = disk.journal().stats();
        assert_eq!(stats.records, 1);
        assert_eq!(stats.synced_len, 0);
        assert!(stats.total_len > 0);
        assert_eq!(disk.journal().records()[0].state, RecordState::Committed);

        // A failing apply closes with an abort trailer.
        let bad = JournalOp::Rmdir {
            path: "/missing".into(),
            mtime: 11,
        };
        journaled(&mut disk, &mut vol, bad).unwrap_err();
        assert_eq!(disk.journal().records()[1].state, RecordState::Aborted);

        disk.sync();
        assert_eq!(disk.unsynced(), 0);
    }

    #[test]
    fn salvage_replays_committed_records_onto_checkpoint() {
        let mut disk = Disk::new(SyncPolicy::WriteAhead);
        let mut vol = test_volume();
        disk.checkpoint(&vol);

        journaled(&mut disk, &mut vol, store_op("/a.txt", b"v1")).unwrap();
        journaled(
            &mut disk,
            &mut vol,
            JournalOp::Mkdir {
                path: "/sub".into(),
                uid: 1,
                mtime: 12,
            },
        )
        .unwrap();
        journaled(&mut disk, &mut vol, store_op("/sub/b.txt", b"v2")).unwrap();
        disk.sync();

        // Crash with everything durable: salvage rebuilds the exact state.
        disk.crash_truncate(0);
        let (rebuilt, report) = disk.salvage(VolumeId(7)).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.replayed, 3);
        assert_eq!(rebuilt.fs().read("/a.txt").unwrap(), b"v1");
        assert_eq!(rebuilt.fs().read("/sub/b.txt").unwrap(), b"v2");
        assert!(rebuilt.is_online());
    }

    #[test]
    fn torn_crash_loses_unsynced_tail_but_salvages_clean() {
        let mut disk = Disk::new(SyncPolicy::Lazy);
        let mut vol = test_volume();
        disk.checkpoint(&vol);

        journaled(&mut disk, &mut vol, store_op("/a.txt", b"keep")).unwrap();
        disk.sync();
        journaled(&mut disk, &mut vol, store_op("/b.txt", b"lost")).unwrap();

        // Tear mid-record: the unsynced record is incomplete on the platter.
        let unsynced = disk.unsynced();
        assert!(unsynced > 0);
        let discarded = disk.crash_truncate(unsynced / 2);
        assert!(discarded > 0);

        let (rebuilt, report) = disk.salvage(VolumeId(7)).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.replayed, 1);
        assert_eq!(rebuilt.fs().read("/a.txt").unwrap(), b"keep");
        assert!(rebuilt.fs().read("/b.txt").is_err(), "torn store must die");
    }

    #[test]
    fn salvage_recheckpoints_so_second_pass_replays_nothing() {
        let mut disk = Disk::new(SyncPolicy::WriteAhead);
        let mut vol = test_volume();
        disk.checkpoint(&vol);
        journaled(&mut disk, &mut vol, store_op("/a.txt", b"x")).unwrap();
        disk.sync();

        disk.crash_truncate(0);
        let (_, first) = disk.salvage(VolumeId(7)).unwrap();
        assert_eq!(first.replayed, 1);
        let (rebuilt, second) = disk.salvage(VolumeId(7)).unwrap();
        assert_eq!(second.replayed, 0, "salvage must advance the checkpoint");
        assert_eq!(rebuilt.fs().read("/a.txt").unwrap(), b"x");
    }

    #[test]
    fn durable_image_roundtrips_and_rejects_corruption() {
        let mut disk = Disk::new(SyncPolicy::WriteAhead);
        let mut vol = test_volume();
        disk.checkpoint(&vol);
        journaled(&mut disk, &mut vol, store_op("/a.txt", b"alpha")).unwrap();
        journaled(&mut disk, &mut vol, store_op("/b.txt", b"beta")).unwrap();
        disk.sync();

        let image = disk.journal().encode_durable();
        assert_eq!(image.len() as u64, disk.journal().stats().total_len);

        let loaded = Journal::load(&image);
        assert_eq!(loaded.records().len(), 2);
        assert_eq!(loaded.records()[1].op, disk.journal().records()[1].op);

        // Flip a byte in the second record's extent: the scan keeps the
        // first record and discards the corrupt one and everything after.
        let mut bad = image.clone();
        let second_start = disk.journal().records()[1].start as usize;
        bad[second_start + 3] ^= 0xff;
        let loaded = Journal::load(&bad);
        assert_eq!(loaded.records().len(), 1);
        assert_eq!(loaded.records()[0].op, disk.journal().records()[0].op);

        // A torn tail (truncated mid-record) is likewise dropped.
        let cut = disk.journal().records()[1].end as usize - 4;
        let loaded = Journal::load(&image[..cut]);
        assert_eq!(loaded.records().len(), 1);
    }
}
