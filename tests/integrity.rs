//! End-to-end data integrity: Merkle volumes, silent-corruption faults,
//! the background scrubber, and salvager-driven repair.
//!
//! The subsystem's contract has two halves. First, **detection is
//! total**: a byte flip anywhere in a server's durable state — journal
//! record bytes, checkpoint file contents, or the Merkle leaf table — is
//! caught by a trailer or digest verifier before the damaged bytes can be
//! served, exhaustively over every offset (the analogue of the torn-cut
//! sweep in `salvage.rs`). Second, **the machinery is free when idle**:
//! with no fault plan installed the Merkle bookkeeping draws no rng,
//! schedules no events, and moves no clock, and with scrubbing enabled
//! the passes charge only their own attribution ledger kind — foreground
//! virtual timings stay bit-identical.

use itc_afs::core::disk::{CorruptionOutcome, Disk, FlipRegion, JournalOp, SyncPolicy};
use itc_afs::core::location::LocationDb;
use itc_afs::core::protect::{AccessList, ProtectionDomain, Rights};
use itc_afs::core::proto::payload::{bytes_digested, payload_digest, reset_bytes_digested};
use itc_afs::core::proto::{Payload, ServerId, ViceError, ViceReply, ViceRequest};
use itc_afs::core::server::Server;
use itc_afs::core::system::parallel::RunMode;
use itc_afs::core::system::ItcSystem;
use itc_afs::core::volume::{Volume, VolumeId};
use itc_afs::core::SystemConfig;
use itc_afs::rpc::NodeId;
use itc_afs::sim::{Costs, FaultPlan, Percentiles, SimRng, SimTime, ValidationMode};
use itc_workload::day::{run_day, run_day_drivers, run_day_on, DayConfig};
use itc_workload::scenario::corruption_storm::{self, CorruptionStormConfig};

fn open_acl() -> AccessList {
    let mut acl = AccessList::new();
    acl.grant("anyuser", Rights::ALL);
    acl
}

fn store_op(path: &str, data: &[u8], mtime: u64) -> JournalOp {
    JournalOp::Store {
        path: path.to_string(),
        uid: 1,
        mtime,
        data: Payload::from_vec(data.to_vec()),
    }
}

// ----------------------------------------------------------------------
// Satellite: incremental Merkle maintenance is exact
// ----------------------------------------------------------------------

/// Property test across three seeds: after any random `JournalOp`
/// sequence — stores, removes, renames, symlinks, quota flips (which make
/// later stores fail), and periodic read-only cloning — the incrementally
/// maintained tree is leaf-for-leaf identical to a recompute from the
/// volume's actual bytes.
#[test]
fn incremental_merkle_equals_recompute_under_random_ops() {
    for seed in [1u64, 0xfeed, 0x9e37_79b9] {
        let mut rng = SimRng::seeded(seed);
        let mut vol = Volume::new(VolumeId(3), "user.prop", "/vice/usr/prop", open_acl());
        for d in ["/a", "/b", "/a/c"] {
            JournalOp::Mkdir {
                path: d.into(),
                uid: 1,
                mtime: 1,
            }
            .apply(&mut vol)
            .unwrap();
        }
        let pool: Vec<String> = (0..12)
            .map(|i| format!("{}/f{}.txt", ["/a", "/b", "/a/c"][i % 3], i))
            .collect();
        let pick = |rng: &mut SimRng| pool[rng.range(0, pool.len() as u64) as usize].clone();

        let mut clones = 0u32;
        for step in 0..300u64 {
            let mtime = 10 + step;
            let op = match rng.range(0, 10) {
                0..=4 => {
                    let len = rng.range(0, 200);
                    store_op(&pick(&mut rng), &vec![b'x'; len as usize], mtime)
                }
                5 => JournalOp::Remove {
                    path: pick(&mut rng),
                    mtime,
                },
                6 => JournalOp::Rename {
                    from: pick(&mut rng),
                    to: pick(&mut rng),
                    mtime,
                },
                7 => JournalOp::SetQuota {
                    // Tight quotas make a run of later stores fail, pinning
                    // that failed applies leave the tree untouched.
                    bytes: if rng.range(0, 2) == 0 {
                        Some(rng.range(0, 2_000))
                    } else {
                        None
                    },
                },
                8 => JournalOp::Symlink {
                    path: pick(&mut rng),
                    target: "/a".into(),
                    uid: 1,
                    mtime,
                },
                _ => JournalOp::SetMode {
                    path: pick(&mut rng),
                    mode: 0o640,
                    mtime,
                },
            };
            let _ = op.apply(&mut vol);
            if step % 89 == 0 {
                // The clone path: a read-only clone carries the tree, and
                // the carried tree matches the clone's own bytes.
                let clone = vol.clone_readonly(VolumeId(900 + clones));
                clones += 1;
                assert_eq!(
                    clone.merkle().leaves(),
                    clone.recompute_merkle().leaves(),
                    "seed {seed:#x} step {step}: clone tree drifted"
                );
            }
        }
        let recomputed = vol.recompute_merkle();
        assert_eq!(
            vol.merkle().leaves(),
            recomputed.leaves(),
            "seed {seed:#x}: incremental leaves != recompute"
        );
        assert_eq!(vol.merkle().root(), recomputed.root(), "seed {seed:#x}");
        assert!(vol.verify_merkle().is_empty(), "seed {seed:#x}");
    }
}

// ----------------------------------------------------------------------
// The corruption sweep: every byte of durable state, every region class
// ----------------------------------------------------------------------

/// Client-visible volume state for the sweep's prefix comparison.
fn fingerprint(vol: &Volume, paths: &[&str]) -> Vec<Option<Payload>> {
    paths.iter().map(|p| vol.fs().read(p).ok()).collect()
}

/// The tentpole property, exhaustively: build a disk whose durable extent
/// has all three region classes populated (synced journal records, a
/// checkpoint image with files, a Merkle leaf table), then flip one byte
/// at **every** offset with a varying mask. Every flip must be detected —
/// journal damage by the salvager's per-record trailer verification
/// (rejected as end-of-journal, leaving exactly the undamaged committed
/// prefix), image and leaf-table damage by the scrubber's digest walk —
/// and none may survive into served state.
#[test]
fn every_byte_flip_is_detected_and_resolved() {
    let vid = VolumeId(5);
    let mut disk = Disk::new(SyncPolicy::Lazy);
    let mut vol = Volume::new(vid, "user.sweep", "/vice/usr/sweep", open_acl());

    // Phase 1: ops that will be inside the checkpoint image.
    let mut snapshots = vec![vol.clone()];
    let journal = |disk: &mut Disk, vol: &mut Volume, snaps: &mut Vec<Volume>, op: JournalOp| {
        let seq = disk.begin(vol.id(), op.clone());
        let ok = op.apply(vol).is_ok();
        disk.commit(seq, ok);
        snaps.push(vol.clone());
        seq
    };
    journal(
        &mut disk,
        &mut vol,
        &mut snapshots,
        JournalOp::Mkdir {
            path: "/d".into(),
            uid: 1,
            mtime: 1,
        },
    );
    journal(
        &mut disk,
        &mut vol,
        &mut snapshots,
        store_op("/a.txt", b"the committed bytes of a", 2),
    );
    journal(
        &mut disk,
        &mut vol,
        &mut snapshots,
        store_op("/d/b.txt", b"nested file contents", 3),
    );
    disk.sync();
    disk.checkpoint(&vol);
    let upto_seq = 3u64;

    // Phase 2: committed records after the checkpoint (replayed at
    // salvage), including one abort.
    journal(
        &mut disk,
        &mut vol,
        &mut snapshots,
        store_op("/a.txt", b"a, rewritten after the checkpoint", 4),
    );
    journal(
        &mut disk,
        &mut vol,
        &mut snapshots,
        JournalOp::Rmdir {
            path: "/missing".into(),
            mtime: 5,
        },
    );
    journal(
        &mut disk,
        &mut vol,
        &mut snapshots,
        JournalOp::Remove {
            path: "/d/b.txt".into(),
            mtime: 6,
        },
    );
    disk.sync();

    let synced = disk.journal().stats().synced_len;
    let extent = disk.durable_extent();
    assert!(synced > 0 && extent > synced, "all three regions populated");

    let paths = ["/a.txt", "/d/b.txt"];
    let image = disk.checkpoint_image(vid).expect("checkpointed");
    let pristine: Vec<(String, Payload)> = image
        .regular_files()
        .iter()
        .map(|(p, _)| (p.clone(), image.fs().read(p).unwrap()))
        .collect();

    let (mut journal_flips, mut image_flips, mut leaf_flips) = (0u64, 0u64, 0u64);
    for offset in 0..extent {
        let mask = (offset % 255) as u8 + 1;
        let mut crashed = disk.clone();
        let region = crashed.apply_flip(offset, mask).expect("offset in extent");
        match region {
            FlipRegion::Journal { seq } => {
                journal_flips += 1;
                // Salvage must reject the damaged record and everything
                // after it — never replay flipped bytes.
                let (rebuilt, report) = crashed.salvage(vid).expect("salvages");
                assert!(
                    report.records_rejected >= 1,
                    "offset {offset}: journal flip not rejected"
                );
                assert!(!report.is_clean(), "offset {offset}");
                assert!(rebuilt.check_invariants().is_ok(), "offset {offset}");
                // The rebuilt state is the undamaged committed prefix: the
                // checkpoint plus phase-2 records before the damaged one
                // (damage inside phase 1 only voids the replay tail).
                let survivors = if seq <= upto_seq { upto_seq } else { seq - 1 };
                assert_eq!(
                    fingerprint(&rebuilt, &paths),
                    fingerprint(&snapshots[survivors as usize], &paths),
                    "offset {offset} (damaged seq {seq}): not the committed prefix"
                );
                // And its tree still describes its bytes exactly.
                assert!(rebuilt.verify_merkle().is_empty(), "offset {offset}");
            }
            FlipRegion::CheckpointFile { volume, ref path } => {
                image_flips += 1;
                assert_eq!(volume, vid);
                let scan = crashed.scrub_volume(vid).expect("scannable");
                assert!(
                    scan.findings.iter().any(|f| &f.path == path),
                    "offset {offset}: image damage in {path} not found by scrub"
                );
                // Repair from a voucher (the pristine copy stands in for
                // the read-only replica) makes the next scrub clean.
                let data = pristine
                    .iter()
                    .find(|(p, _)| p == path)
                    .map(|(_, d)| d.clone())
                    .expect("damaged file is a known file");
                assert!(crashed.repair_checkpoint_file(vid, path, data));
                assert!(
                    crashed
                        .scrub_volume(vid)
                        .expect("scannable")
                        .findings
                        .is_empty(),
                    "offset {offset}: repair did not restore {path}"
                );
            }
            FlipRegion::MerkleLeaf { volume, ref path } => {
                leaf_flips += 1;
                assert_eq!(volume, vid);
                let scan = crashed.scrub_volume(vid).expect("scannable");
                let finding = scan
                    .findings
                    .iter()
                    .find(|f| &f.path == path)
                    .unwrap_or_else(|| panic!("offset {offset}: leaf damage in {path} unseen"));
                // A flipped leaf can never be vouched for — the replica's
                // bytes hash to `found`, not the damaged `expected` — so
                // this class always resolves by offlining.
                assert_ne!(finding.expected, finding.found, "offset {offset}");
            }
        }
    }
    // The sweep really covered all three classes.
    assert_eq!(journal_flips, synced);
    assert!(image_flips > 0 && leaf_flips > 0);
    assert_eq!(journal_flips + image_flips + leaf_flips, extent);
}

/// Flip isolation under sharing. One `store` leaves one buffer in the
/// system: the journal record, the live inode, the re-checkpointed image,
/// the read-only replica and the writer's Venus cache entry all hold the
/// allocation the application handed in. A flip of any byte of the
/// checkpoint's copy must land in the checkpoint alone (copy-on-write):
/// every other holder's digest stays put, the scrubber still finds the
/// flip, and the replica — untouched — still vouches for the repair.
#[test]
fn a_flip_lands_in_exactly_one_holder_of_the_shared_buffer() {
    let mut sys = ItcSystem::build(SystemConfig::revised(2, 1));
    sys.create_volume("proj", "/vice/proj", ServerId(0), open_acl())
        .unwrap();
    sys.add_user("satya", "pw").unwrap();
    sys.login(0, "satya", "pw").unwrap();
    let body: Vec<u8> = (0..48u8).collect();
    let digest = payload_digest(&body);
    sys.ops().store(0, "/vice/proj/f.c", body).unwrap();
    // Replication clones the volume onto server 1 and re-checkpoints the
    // source, so the image holds the stored file.
    sys.replicate_readonly("/vice/proj", &[ServerId(1)])
        .unwrap();

    let srv = sys.server(ServerId(0));
    let vid = srv.volume_covering("/vice/proj/f.c").expect("hosted");
    let volume_file = |s: u32, read_only: bool| {
        let vols = sys.server(ServerId(s)).volumes();
        let vol = vols
            .iter()
            .find(|v| v.mount() == "/vice/proj" && v.is_read_only() == read_only);
        vol.expect("volume present").fs().read("/f.c").unwrap()
    };
    let record = srv
        .storage()
        .journal()
        .records()
        .iter()
        .rev()
        .find_map(|r| match &r.op {
            JournalOp::Store { data, .. } => Some(data.clone()),
            _ => None,
        })
        .expect("the store was journaled");
    let image_file = |disk: &Disk| {
        let image = disk.checkpoint_image(vid).expect("checkpointed");
        image.fs().read("/f.c").unwrap()
    };
    let cache = sys.venus(0).cache();
    let cached = cache.peek("/vice/proj/f.c").expect("cached").data.clone();
    let replica = volume_file(1, true);
    let holders = [
        ("journal record", &record),
        ("live inode", &volume_file(0, false)),
        ("checkpoint image", &image_file(srv.storage())),
        ("read-only replica", &replica),
        ("Venus cache entry", &cached),
    ];
    for (who, p) in holders {
        assert_eq!(
            p.as_slice().as_ptr(),
            record.as_slice().as_ptr(),
            "{who} holds its own copy of the stored bytes"
        );
    }

    let disk = srv.storage();
    let synced = disk.journal().stats().synced_len;
    let mut flips = 0usize;
    for offset in synced..disk.durable_extent() {
        let mask = (offset % 255) as u8 + 1;
        let mut damaged = disk.clone();
        match damaged.apply_flip(offset, mask) {
            Some(FlipRegion::CheckpointFile { volume, ref path })
                if volume == vid && path == "/f.c" => {}
            _ => continue,
        }
        flips += 1;
        // The flip is in the damaged image and nowhere else.
        assert_ne!(
            payload_digest(image_file(&damaged).as_slice()),
            digest,
            "offset {offset}"
        );
        for (who, p) in holders {
            assert_eq!(
                payload_digest(p.as_slice()),
                digest,
                "offset {offset}: the flip leaked into the {who}"
            );
        }
        // The scrubber finds it, and the replica's bytes repair it.
        let scan = damaged.scrub_volume(vid).expect("scannable");
        let finding = scan.findings.iter().find(|f| f.path == "/f.c");
        assert_eq!(
            finding.map(|f| f.expected),
            Some(Some(digest)),
            "offset {offset}: flip not found by scrub"
        );
        assert!(damaged.repair_checkpoint_file(vid, "/f.c", replica.clone()));
        assert!(
            damaged
                .scrub_volume(vid)
                .expect("scannable")
                .findings
                .is_empty(),
            "offset {offset}: repair did not restore the image"
        );
    }
    assert_eq!(flips, 48, "the sweep covered every byte of the file");
}

/// One server, for tests that drive `Server` directly (their callers are
/// checked against an empty protection domain).
fn lone_server() -> Server {
    let config = SystemConfig {
        validation: ValidationMode::Callback,
        ..SystemConfig::prototype(1, 1)
    };
    Server::new(ServerId(0), NodeId(0), &config)
}

/// The last line of defense: when a volume is salvaged from a checkpoint
/// whose file bytes were silently damaged (so the live volume itself now
/// carries the corruption), the fetch-time digest check refuses to serve
/// the file — the reply is `VolumeOffline`, the corruption is marked
/// `CaughtAtFetch`, and an integrity event is queued. No corrupt byte
/// reaches Venus.
#[test]
fn fetch_after_salvage_from_damaged_checkpoint_is_caught() {
    let mut srv = lone_server();
    let vid = VolumeId(7);
    srv.add_volume(Volume::new(vid, "proj", "/vice/proj", open_acl()));
    srv.admin_apply(vid, store_op("/f.c", b"#include <clean/bytes.h>", 9))
        .unwrap();
    srv.sync_journal();
    srv.recheckpoint(vid);

    // Flip one byte of the checkpoint copy of /f.c.
    let synced = srv.journal_stats().synced_len;
    let region = srv
        .apply_corruption(SimTime::from_secs(1), synced + 3, 0x40)
        .expect("flip lands");
    assert!(matches!(region, FlipRegion::CheckpointFile { .. }));

    // Crash and salvage: the store predates the checkpoint, so replay
    // cannot heal it — the damage survives into the live volume.
    srv.crash_with_torn(0);
    srv.restart();
    let report = srv
        .salvage_volume(vid, SimTime::from_secs(1))
        .expect("salvages");
    assert_eq!(report.records_rejected, 0, "journal is undamaged");

    let costs = Costs::default();
    let (reply, _) = srv.handle(
        ("u", &ProtectionDomain::new(), &LocationDb::new()),
        NodeId(9),
        &ViceRequest::Fetch {
            path: "/vice/proj/f.c".into(),
        },
        SimTime::from_secs(2),
        &costs,
    );
    assert!(
        matches!(reply, ViceReply::Error(ViceError::VolumeOffline(_))),
        "damaged bytes must not be served: {reply:?}"
    );
    let log = srv.corruption_log();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].outcome, CorruptionOutcome::CaughtAtFetch);
    assert!(log[0].detected_at.is_some());
    assert_eq!(
        srv.drain_integrity_events(),
        vec![(vid, "/f.c".to_string())]
    );
}

/// A digest memo vouches only for the buffer it was computed from, so a
/// warm one must never hide rot. After clean scrub passes have filled the
/// memo of every buffer on the disk (the second pass hashes nothing), one
/// byte of a checkpoint file is flipped — once in a buffer the image holds
/// alone (edited in place) and once in one it still shares with the live
/// volume (copy-on-write). Either way the next scrub pass reports it, the
/// live volume's bytes, digest and tree are untouched, and once a salvage
/// has carried the damage into the live volume the fetch-time leaf check
/// refuses to serve it.
#[test]
fn rot_under_warm_digest_memos_is_still_caught() {
    let vid = VolumeId(7);
    let own: Vec<u8> = (0..40u8).collect();
    let shared: Vec<u8> = (100..160u8).collect();
    // Path order in the durable extent: /own.c, then /shared.c.
    for (path, body, at, image_holds_it_alone) in [
        ("/own.c", &own, 3, true),
        ("/shared.c", &shared, own.len() as u64 + 3, false),
    ] {
        let mut srv = lone_server();
        let mut vol = Volume::new(vid, "proj", "/vice/proj", open_acl());
        vol.store("/own.c", 1, 9, own.clone()).unwrap();
        vol.store("/shared.c", 1, 9, shared.clone()).unwrap();
        // Installing checkpoints a clone: image and live volume share both
        // buffers. A private copy of /own.c for the live volume leaves the
        // image the sole holder of the original.
        srv.add_volume(vol);
        let live = srv.volume_mut(vid).unwrap();
        assert!(live.restore_file("/own.c", Payload::from_vec(own.clone())));
        let image_read = |srv: &Server| {
            let image = srv.storage().checkpoint_image(vid).unwrap();
            image.fs().read(path).unwrap()
        };
        let live_read = |srv: &Server| srv.volumes()[0].fs().read(path).unwrap();
        assert_eq!(
            image_read(&srv).as_slice().as_ptr() != live_read(&srv).as_slice().as_ptr(),
            image_holds_it_alone
        );

        // Warm every memo: the first clean pass hashes only the live
        // volume's private /own.c (the stores hashed the rest), the second
        // nothing at all.
        assert!(srv.scrub_scan(vid).unwrap().findings.is_empty());
        assert!(srv.volumes()[0].verify_merkle().is_empty());
        reset_bytes_digested();
        assert!(srv.scrub_scan(vid).unwrap().findings.is_empty());
        assert!(srv.volumes()[0].verify_merkle().is_empty());
        assert_eq!(bytes_digested(), 0, "{path}: a memo was still cold");

        let synced = srv.journal_stats().synced_len;
        let region = srv.apply_corruption(SimTime::from_secs(1), synced + at, 0x10);
        assert_eq!(
            region,
            Some(FlipRegion::CheckpointFile {
                volume: vid,
                path: path.into()
            })
        );

        // The scrubber sees the image's bytes as they now are.
        let mut damaged = body.clone();
        damaged[3] ^= 0x10;
        let scan = srv.scrub_scan(vid).unwrap();
        assert_eq!(scan.findings.len(), 1, "{path}: {:?}", scan.findings);
        assert_eq!(scan.findings[0].path, path);
        assert_eq!(scan.findings[0].expected, Some(payload_digest(body)));
        assert_eq!(scan.findings[0].found, Some(payload_digest(&damaged)));
        // The live volume's holder is untouched: bytes, digest and tree.
        assert_eq!(live_read(&srv), *body);
        assert_eq!(live_read(&srv).digest(), payload_digest(body));
        assert!(srv.volumes()[0].verify_merkle().is_empty());

        // Salvage rebuilds the live volume from the damaged image; the
        // fetch-time check compares the bytes it is about to serve with
        // the leaf, whatever memo they carry.
        srv.crash_with_torn(0);
        srv.restart();
        srv.salvage_volume(vid, SimTime::from_secs(1))
            .expect("salvages");
        assert_eq!(live_read(&srv), damaged);
        let (reply, _) = srv.handle(
            ("u", &ProtectionDomain::new(), &LocationDb::new()),
            NodeId(9),
            &ViceRequest::Fetch {
                path: format!("/vice/proj{path}"),
            },
            SimTime::from_secs(2),
            &Costs::default(),
        );
        assert!(
            matches!(reply, ViceReply::Error(ViceError::VolumeOffline(_))),
            "{path}: damaged bytes must not be served: {reply:?}"
        );
        assert_eq!(
            srv.corruption_log()[0].outcome,
            CorruptionOutcome::CaughtAtFetch
        );
    }
}

// ----------------------------------------------------------------------
// The corruption storm, end to end
// ----------------------------------------------------------------------

/// The scenario-level gate: a corruption-only plan fires across both
/// servers under live traffic with the scrubber rotating; by the end of
/// the closing audit **every injected flip is detected** — repaired from
/// the read-only replica, offlined with an `integrity_fault` anomaly, or
/// rejected at salvage — and a post-storm fetch of every shared source
/// file returns either the committed bytes or `VolumeOffline`, never
/// silent garbage. Same seed, byte-identical report.
#[test]
fn corruption_storm_leaves_zero_latent_corruptions() {
    let cfg = CorruptionStormConfig::small();
    let (mut sys, report) = corruption_storm::run(&cfg).expect("storm runs");

    let counters = sys.integrity_counters();
    assert_eq!(counters.injected, u64::from(cfg.flips), "all flips landed");
    assert_eq!(counters.latent, 0, "an injected flip was never detected");
    assert_eq!(counters.detected(), counters.injected);
    assert!(
        counters.repaired
            + counters.offlined
            + counters.rejected_at_salvage
            + counters.caught_at_fetch
            == counters.injected
    );
    // The storm actually exercised scrub detection and the anomaly path.
    let s0 = sys.server_scrub_stats(ServerId(0));
    let s1 = sys.server_scrub_stats(ServerId(1));
    assert!(s0.passes > 0 && s1.passes > 0);
    assert!(s0.mismatches_detected + s1.mismatches_detected > 0);
    assert!(report.anomaly_count("integrity_fault") > 0);

    // The storm's integrity economics are virtual-time exact, so they are
    // pinned literally: how each flip was resolved, what the scrubber
    // scanned and what it cost in disk time, and the detection-latency
    // percentiles across the injected flips.
    assert_eq!((cfg.workstations, cfg.files, cfg.flips), (8, 16, 12));
    assert_eq!(
        (
            counters.injected,
            counters.detected(),
            counters.latent,
            counters.repaired,
            counters.offlined,
            counters.rejected_at_salvage,
            counters.caught_at_fetch,
        ),
        (12, 12, 0, 1, 8, 3, 0)
    );
    assert_eq!(
        (
            s0.passes + s1.passes,
            s0.files_scanned + s1.files_scanned,
            s0.bytes_scanned + s1.bytes_scanned,
            s0.mismatches_detected + s1.mismatches_detected,
            sys.attribution().summary().scrub_disk.as_micros(),
        ),
        (86, 1088, 24_585_728, 267, 54_331_456)
    );
    let mut latency_us = Percentiles::new();
    for ev in (0..2).flat_map(|s| sys.server(ServerId(s)).corruption_log()) {
        if let Some(at) = ev.detected_at {
            latency_us.record((at.as_micros() - ev.injected_at.as_micros()) as f64);
        }
    }
    assert_eq!(
        [50.0, 90.0, 100.0].map(|p| latency_us.percentile(p)),
        [25_000_000.0, 1_180_652_720.0, 1_230_652_720.0].map(Some)
    );

    // No corrupt byte is ever served: every shared source file fetched
    // after the storm is either exactly the committed content or refused.
    for f in 0..cfg.files {
        let path = format!("/vice/proj/src/f{f:03}.c");
        match sys.ops().fetch(0, &path) {
            Ok(data) => assert_eq!(data, vec![b'a'; 24_000], "{path}: served corrupt bytes"),
            Err(e) => {
                let kind = itc_workload::scenario::classify_failure(&e)
                    .unwrap_or_else(|| panic!("{path}: structural failure {e:?}"));
                assert_eq!(
                    kind,
                    itc_workload::scenario::FailKind::Offline,
                    "{path}: unexpected failure class"
                );
            }
        }
    }

    // Determinism: the whole report (attribution rows, anomaly counts,
    // frozen dumps) renders byte-identically on a second run.
    let (_, again) = corruption_storm::run(&cfg).expect("storm runs");
    assert_eq!(report.jsonl(), again.jsonl());
}

// ----------------------------------------------------------------------
// Satellite: scrubbing is free for the foreground
// ----------------------------------------------------------------------

/// Scrub passes are perfectly preemptible background work: with the
/// scrubber enabled (and no corruption anywhere) the short-day golden
/// timings — final clock, per-workstation clocks, call counts, server
/// CPU *and disk* busy time — are bit-identical to the run without it.
#[test]
fn scrub_never_moves_foreground_virtual_time() {
    let day = DayConfig::short();
    let (plain_sys, plain) = run_day(SystemConfig::prototype(1, 1), &day).unwrap();

    let mut sys = ItcSystem::build(SystemConfig::prototype(1, 1));
    sys.enable_scrub(SimTime::from_secs(60));
    let scrubbed = run_day_on(&mut sys, &day).unwrap();

    assert!(
        sys.server_scrub_stats(ServerId(0)).passes > 0,
        "scrubber never ran — the comparison is vacuous"
    );
    assert_eq!(scrubbed.ops, plain.ops);
    assert_eq!(sys.now(), plain_sys.now());
    assert_eq!(sys.ws_time(0), plain_sys.ws_time(0));
    assert_eq!(scrubbed.metrics.total_calls(), plain.metrics.total_calls());
    let (a, b) = (sys.server(ServerId(0)), plain_sys.server(ServerId(0)));
    assert_eq!(a.cpu().busy_total(), b.cpu().busy_total());
    assert_eq!(
        a.disk().busy_total(),
        b.disk().busy_total(),
        "scrub passes must not occupy the disk resource"
    );
}

/// Scrub disk time lands under its own attribution ledger kind — nonzero
/// when scrubbing with tracing on, zero otherwise, with every foreground
/// component unchanged.
#[test]
fn scrub_disk_time_has_its_own_ledger_kind() {
    let day = DayConfig::short();
    let cfg = SystemConfig::prototype(1, 1);

    let mut plain_sys = ItcSystem::build(cfg.clone());
    plain_sys.enable_tracing();
    let _ = run_day_on(&mut plain_sys, &day).unwrap();

    let mut sys = ItcSystem::build(cfg);
    sys.enable_tracing();
    sys.enable_scrub(SimTime::from_secs(60));
    let _ = run_day_on(&mut sys, &day).unwrap();

    let scrubbed = sys.attribution().summary();
    let plain = plain_sys.attribution().summary();
    assert!(
        scrubbed.scrub_disk > SimTime::ZERO,
        "ledger kind never charged"
    );
    assert_eq!(plain.scrub_disk, SimTime::ZERO);
    assert_eq!(scrubbed.salvage_disk, plain.salvage_disk);
    assert_eq!(
        sys.attribution().recent().count(),
        plain_sys.attribution().recent().count()
    );
}

// ----------------------------------------------------------------------
// Satellite: corruption-only plans keep parallel runs parallel
// ----------------------------------------------------------------------

/// A corruption-only fault plan is cluster-local: it must not flip the
/// serialize-everything switch the crash/message plans need, and a
/// parallel day under it (scrubber on) must stay bit-identical to the
/// sequential run — including the corruption ledger and scrub counters
/// after a final deterministic drain.
#[test]
fn corruption_only_plan_stays_parallel_and_bit_identical() {
    use std::fmt::Write as _;

    fn run(mode: RunMode) -> String {
        let day = DayConfig {
            replicate_binaries: false,
            ..DayConfig::short()
        };
        let mut sys = ItcSystem::build(SystemConfig::prototype(4, 2));
        let mut plan = FaultPlan::new(0xc0de);
        for i in 0..8u32 {
            plan.schedule_corruption(i % 4, SimTime::from_secs(60 + 120 * u64::from(i)));
        }
        sys.install_faults(plan);
        assert!(
            !sys.faults_couple_clusters(),
            "corruption-only plan must not serialize the run"
        );
        sys.enable_scrub(SimTime::from_secs(90));
        let report = run_day_drivers(&mut sys, &day, mode).expect("day runs");
        // Drain every cluster's calendar to the same global instant so
        // both modes have fired the same lifecycle events.
        sys.run_fault_schedule();

        let mut fp = String::new();
        writeln!(fp, "ops {}", report.ops).unwrap();
        writeln!(fp, "clock {}", sys.now().as_micros()).unwrap();
        for ws in 0..sys.workstation_count() {
            writeln!(fp, "ws {ws} t={}", sys.ws_time(ws).as_micros()).unwrap();
        }
        let cs = sys.call_stats();
        writeln!(fp, "rpc {} {} {}", cs.attempts, cs.retries, cs.timeouts).unwrap();
        writeln!(fp, "faults {}", sys.fault_stats().total()).unwrap();
        let c = sys.integrity_counters();
        assert!(
            c.injected > 0,
            "the corruption plan was installed and fired"
        );
        writeln!(
            fp,
            "integrity injected={} latent={} repaired={} offlined={} rejected={} fetch={}",
            c.injected, c.latent, c.repaired, c.offlined, c.rejected_at_salvage, c.caught_at_fetch
        )
        .unwrap();
        for s in 0..sys.server_count() {
            let st = sys.server_scrub_stats(ServerId(s as u32));
            writeln!(
                fp,
                "scrub {s} passes={} files={} bytes={} mismatches={}",
                st.passes, st.files_scanned, st.bytes_scanned, st.mismatches_detected
            )
            .unwrap();
        }
        fp
    }

    let seq = run(RunMode::Sequential);
    let par = run(RunMode::Parallel(4));
    assert_eq!(seq, par, "corruption-only day diverged between run modes");
}
