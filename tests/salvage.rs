//! Crash consistency: the write-ahead journal, the torn-write crash
//! model, and the salvager.
//!
//! Section 5.3 makes the volume the unit of recovery — it may be "turned
//! offline or online ... and salvaged after a system crash". These tests
//! pin the property that motivates the write-ahead discipline: **no
//! acknowledged Store is ever lost to a crash, at any torn-write cut
//! point**, and every salvaged volume satisfies its structural
//! invariants. The Lazy policy exists as the anti-model: it demonstrates
//! exactly the loss the default policy rules out.

use itc_afs::core::config::SystemConfig;
use itc_afs::core::disk::{Disk, JournalOp, SyncPolicy};
use itc_afs::core::protect::{AccessList, Rights};
use itc_afs::core::proto::{Payload, ServerId};
use itc_afs::core::system::ItcSystem;
use itc_afs::core::volume::{Volume, VolumeId};
use itc_afs::sim::{Costs, FaultPlan, SimTime, ValidationMode};

const SHARED: &str = "/vice/usr/shared";

/// Two clusters (one server each), callback mode, a user per cluster.
fn two_cluster_system(seed: u64) -> ItcSystem {
    let cfg = SystemConfig {
        validation: ValidationMode::Callback,
        seed,
        ..SystemConfig::prototype(2, 2)
    };
    let mut sys = ItcSystem::build(cfg);
    sys.add_user("a", "pw").unwrap();
    sys.add_user("b", "pw").unwrap();
    sys.login(0, "a", "pw").unwrap(); // cluster 0, home server 0
    sys.login(2, "b", "pw").unwrap(); // cluster 1, home server 1
    sys.ops().mkdir_p(0, SHARED).unwrap();
    sys
}

/// Server-side content of `vice_path` on `srv`, read straight off the
/// hosting volume (bypassing every cache).
fn server_file(sys: &ItcSystem, srv: ServerId, vice_path: &str) -> Option<Payload> {
    sys.server(srv)
        .volumes()
        .iter()
        .filter(|v| v.covers(vice_path) && !v.is_read_only())
        .max_by_key(|v| v.mount().len())
        .and_then(|v| {
            let internal = v.internal_path(vice_path)?;
            v.fs().read(internal).ok()
        })
}

// ----------------------------------------------------------------------
// The journal-boundary sweep: every possible torn cut
// ----------------------------------------------------------------------

fn sweep_volume() -> Volume {
    let mut acl = AccessList::new();
    acl.grant("satya", Rights::ALL);
    Volume::new(VolumeId(3), "user.sweep", "/vice/usr/sweep", acl)
}

fn store_op(path: &str, data: &[u8]) -> JournalOp {
    JournalOp::Store {
        path: path.to_string(),
        uid: 1,
        mtime: 10,
        data: Payload::from_vec(data.to_vec()),
    }
}

/// What a volume looks like to a client: per-path content plus the usage
/// counter. Two volumes with equal fingerprints are indistinguishable for
/// the paths the workload touched.
fn fingerprint(vol: &Volume, paths: &[&str]) -> (Vec<Option<Payload>>, u64) {
    (
        paths.iter().map(|p| vol.fs().read(p).ok()).collect(),
        vol.used_bytes(),
    )
}

/// The tentpole property, exhaustively: journal a mixed op sequence with
/// **no** syncs (so every byte of the log is tearable), then crash at
/// every possible torn-write cut `0..=total_len`. At each cut the
/// salvaged volume must (a) pass its structural invariants and (b) equal
/// the state after exactly the records that survived the cut — torn tails
/// are discarded whole, never half-applied.
#[test]
fn every_torn_cut_point_salvages_to_a_committed_prefix() {
    let mut disk = Disk::new(SyncPolicy::Lazy);
    let mut vol = sweep_volume();
    disk.checkpoint(&vol);

    let ops = vec![
        JournalOp::Mkdir {
            path: "/d".into(),
            uid: 1,
            mtime: 1,
        },
        store_op("/a.txt", b"first version"),
        store_op("/d/b.txt", b"nested"),
        // An op that fails to apply: closed with an abort trailer, and the
        // salvager must skip it at every surviving cut.
        JournalOp::Rmdir {
            path: "/missing".into(),
            mtime: 2,
        },
        store_op("/a.txt", b"second, longer version"),
        JournalOp::Remove {
            path: "/d/b.txt".into(),
            mtime: 3,
        },
        JournalOp::SetQuota { bytes: Some(4096) },
    ];

    // `snapshots[k]` is the volume after the first `k` records; an aborted
    // record leaves the volume unchanged, which the clone captures.
    let mut snapshots = vec![vol.clone()];
    for op in ops {
        let seq = disk.begin(vol.id(), op.clone());
        let ok = op.apply(&mut vol).is_ok();
        disk.commit(seq, ok);
        snapshots.push(vol.clone());
    }

    let paths = ["/a.txt", "/d/b.txt"];
    let total = disk.journal().stats().total_len;
    assert!(total > 0);
    for cut in 0..=total {
        let mut crashed = disk.clone();
        crashed.crash_truncate(cut);
        let survivors = crashed.journal().records().len();
        let (rebuilt, report) = crashed.salvage(VolumeId(3)).unwrap();
        assert!(
            report.is_clean(),
            "cut at byte {cut}: salvage not clean: {report:?}"
        );
        assert!(rebuilt.is_online(), "cut at byte {cut}");
        assert!(
            rebuilt.check_invariants().is_ok(),
            "cut at byte {cut}: invariants broken"
        );
        assert_eq!(
            fingerprint(&rebuilt, &paths),
            fingerprint(&snapshots[survivors], &paths),
            "cut at byte {cut} ({survivors} surviving records): salvaged \
             state is not the committed prefix"
        );
    }
}

/// Salvage cost against journal length, for 1 KiB stores: journal `n`
/// records, force the log, crash with a clean tail, salvage. Every
/// committed record is replayed, and the virtual time the event pipeline
/// charges for the pass (`Costs::salvage_time` over `Disk::salvage_work`)
/// is pinned at each length — the marginal cost is 7,156 µs per record
/// (per-record replay CPU plus the record's bytes at disk bandwidth).
#[test]
fn salvage_replays_every_record_at_a_pinned_virtual_cost() {
    let costs = Costs::prototype_1985();
    let mut virtual_us = Vec::new();
    for (n, journal_bytes) in [(64u64, 68_992u64), (256, 275_968), (1024, 1_103_872)] {
        let mut disk = Disk::new(SyncPolicy::WriteAhead);
        let mut vol = sweep_volume();
        disk.checkpoint(&vol);
        for i in 0..n {
            let op = JournalOp::Store {
                path: format!("/f{i:05}"),
                uid: 0,
                mtime: i,
                data: Payload::from_vec(vec![0xb5; 1024]),
            };
            let seq = disk.begin(vol.id(), op.clone());
            let ok = op.apply(&mut vol).is_ok();
            disk.commit(seq, ok);
        }
        disk.sync();
        disk.crash_truncate(0);

        assert_eq!(disk.salvage_work(VolumeId(3)), (n, journal_bytes));
        virtual_us.push(costs.salvage_time(journal_bytes, n).as_micros());
        let (_, report) = disk.salvage(VolumeId(3)).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.replayed, n, "salvage must replay every record");
    }
    assert_eq!(virtual_us, [717_984, 2_091_936, 7_587_744]);
    assert_eq!((virtual_us[2] - virtual_us[0]) / (1024 - 64), 7156);
}

// ----------------------------------------------------------------------
// The write-ahead guarantee, end to end
// ----------------------------------------------------------------------

/// Under the default `WriteAhead` policy a scheduled crash cannot lose an
/// acknowledged Store: the journal was forced before the reply left, so
/// the salvager replays it onto the checkpoint and the file is there when
/// the volume comes back online.
#[test]
fn acknowledged_stores_survive_a_scheduled_crash() {
    let mut sys = two_cluster_system(0x5a_1f);
    let file = format!("{SHARED}/precious");
    sys.ops()
        .store(0, &file, b"acked before the crash".to_vec())
        .unwrap();

    let crash_at = sys.now() + SimTime::from_secs(60);
    let restart_at = crash_at + SimTime::from_secs(120);
    let mut plan = FaultPlan::new(0x5a_1f);
    plan.schedule_crash(0, crash_at);
    plan.schedule_restart(0, restart_at);
    sys.install_faults(plan);

    // Ride past the crash and the restart; the salvager passes run as
    // calendar events right after the restart fires.
    let t = sys.ws_time(0) + SimTime::from_secs(300);
    sys.ops().advance_ws(0, t);
    sys.run_fault_schedule();

    assert!(sys.server(ServerId(0)).is_online());
    assert!(
        sys.server_salvage_pending(ServerId(0)).is_empty(),
        "all volumes must have been salvaged"
    );
    let reports = sys.server_salvage_reports(ServerId(0)).to_vec();
    assert!(!reports.is_empty(), "salvager must have run");
    for r in &reports {
        assert!(r.is_clean(), "unclean salvage: {r:?}");
    }
    // Nothing was torn off: the journal was clean when the crash hit.
    assert_eq!(sys.server_journal_stats(ServerId(0)).torn_discarded, 0);

    // The acknowledged bytes are on the salvaged volume and servable.
    assert_eq!(
        server_file(&sys, ServerId(0), &file)
            .as_ref()
            .map(Payload::as_slice),
        Some(b"acked before the crash".as_slice())
    );
    assert_eq!(
        sys.ops().fetch(0, &file).unwrap(),
        b"acked before the crash"
    );
}

/// While a volume is being salvaged the server is up but the volume is
/// offline: mutations degrade with a distinguishable error and succeed
/// once the salvager pass completes.
#[test]
fn traffic_during_the_salvage_window_sees_volume_offline() {
    let mut sys = two_cluster_system(0x5a_2f);
    let file = format!("{SHARED}/during");
    sys.ops().store(0, &file, b"v1".to_vec()).unwrap();
    // Bind workstation 2 to server 0 ahead of time (the mutual
    // authentication handshake costs more virtual time than a salvage
    // pass, which would otherwise hide the window from a first contact).
    let other = format!("{SHARED}/other");
    sys.ops().store(0, &other, b"warm".to_vec()).unwrap();
    assert_eq!(sys.ops().fetch(2, &other).unwrap(), b"warm");

    let crash_at = sys.now() + SimTime::from_secs(60);
    let restart_at = crash_at + SimTime::from_secs(120);
    let mut plan = FaultPlan::new(0x5a_2f);
    plan.schedule_crash(0, crash_at);
    plan.schedule_restart(0, restart_at);
    sys.install_faults(plan);

    // A workstation with no cached copy lands inside the salvage window:
    // the restart has fired but the salvager passes (fixed cost plus
    // per-record work) have not completed, so the read reaches a server
    // that is up while its volume is still offline.
    sys.ops()
        .advance_ws(2, restart_at + SimTime::from_millis(1));
    let err = sys.ops().fetch(2, &file).unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("volume offline"),
        "expected the offline-volume error, got: {msg}"
    );
    assert!(
        sys.server(ServerId(0)).is_online(),
        "the server itself is up during salvage"
    );

    // Once the passes complete the same read succeeds with the pre-crash
    // acknowledged state, and mutations flow again.
    let t = sys.ws_time(2) + SimTime::from_secs(30);
    sys.ops().advance_ws(2, t);
    assert_eq!(sys.ops().fetch(2, &file).unwrap(), b"v1");
    let t = sys.ws_time(0) + SimTime::from_secs(300);
    sys.ops().advance_ws(0, t);
    sys.ops().store(0, &file, b"v2".to_vec()).unwrap();
    assert_eq!(sys.ops().fetch(0, &file).unwrap(), b"v2");
}

// ----------------------------------------------------------------------
// The anti-model: Lazy syncing loses acknowledged data
// ----------------------------------------------------------------------

/// With `SyncPolicy::Lazy` the journal is never forced, so a crash tears
/// off acknowledged mutations. The salvager still produces a clean,
/// invariant-satisfying volume — it is simply missing the unsynced tail.
/// This is the loss the default write-ahead policy exists to prevent.
#[test]
fn lazy_sync_loses_acknowledged_tail_yet_salvages_clean() {
    let mut sys = two_cluster_system(0x5a_3f);
    let file = format!("{SHARED}/doomed");
    sys.set_journal_sync_policy(ServerId(0), SyncPolicy::Lazy);

    // Acknowledged to the client, but never forced to the platter.
    sys.ops()
        .store(0, &file, b"acked and lost".to_vec())
        .unwrap();
    assert!(
        sys.server_journal_stats(ServerId(0)).synced_len
            < sys.server_journal_stats(ServerId(0)).total_len
    );

    sys.crash_server(ServerId(0));
    sys.restart_server(ServerId(0));

    let stats = sys.server_journal_stats(ServerId(0));
    assert!(
        stats.torn_discarded > 0,
        "the crash must have torn off unsynced bytes: {stats:?}"
    );
    for r in sys.server_salvage_reports(ServerId(0)) {
        assert!(r.is_clean(), "loss must not mean damage: {r:?}");
    }
    // The acknowledged store is gone from the server.
    assert_eq!(server_file(&sys, ServerId(0), &file), None);
    // A workstation that never cached it cannot fetch it.
    assert!(sys.ops().fetch(2, &file).is_err());
}

// ----------------------------------------------------------------------
// Queue high-water marks are per incarnation
// ----------------------------------------------------------------------

/// The request-queue high-water mark restarts from zero with each server
/// incarnation; completed incarnations are archived as `(epoch, mark)`.
#[test]
fn queue_high_water_resets_per_incarnation() {
    let mut sys = two_cluster_system(0x5a_4f);
    let file = format!("{SHARED}/q");
    sys.ops().store(0, &file, b"v1".to_vec()).unwrap();

    let history = sys.server_queue_history(ServerId(0));
    assert_eq!(history.len(), 1, "one live incarnation: {history:?}");
    let (epoch0, hw0) = history[0];
    assert!(hw0 >= 1, "traffic must have queued: {history:?}");

    sys.crash_server(ServerId(0));
    sys.restart_server(ServerId(0));
    let history = sys.server_queue_history(ServerId(0));
    assert_eq!(history.len(), 2, "archived + live: {history:?}");
    assert_eq!(history[0], (epoch0, hw0), "archive must be frozen");
    assert_eq!(
        history[1],
        (epoch0 + 1, 0),
        "new incarnation starts at zero"
    );

    sys.ops().store(0, &file, b"v2".to_vec()).unwrap();
    let history = sys.server_queue_history(ServerId(0));
    assert!(history[1].1 >= 1, "live mark must track new traffic");
    assert_eq!(history[0], (epoch0, hw0), "archive still frozen");
}

// ----------------------------------------------------------------------
// Bit-reproducibility of the crash/salvage path
// ----------------------------------------------------------------------

/// A seeded run through crash, torn-write draw, salvage, and recovery is
/// bit-identical across executions: same outcomes, same journal counters,
/// same final virtual time.
#[test]
fn crash_and_salvage_path_is_bit_reproducible() {
    fn run(seed: u64) -> (Vec<String>, u64, u64, u64, SimTime) {
        let mut sys = two_cluster_system(seed);
        sys.set_journal_sync_policy(ServerId(0), SyncPolicy::Lazy);
        let mut plan = FaultPlan::new(seed ^ 0x7ea2)
            .drop_reply_prob(0.10)
            .drop_request_prob(0.05);
        plan.schedule_crash(0, SimTime::from_secs(300));
        plan.schedule_restart(0, SimTime::from_secs(600));
        sys.install_faults(plan);

        let mut outcomes = Vec::new();
        for i in 0..16u64 {
            let ws = if i % 3 == 0 { 2 } else { 0 };
            let file = format!("{SHARED}/r{}", i % 4);
            let r = sys.ops().store(ws, &file, format!("c{i}").into_bytes());
            outcomes.push(match r {
                Ok(()) => format!("{i}:ok"),
                Err(e) => format!("{i}:{e}"),
            });
            let t = sys.ws_time(ws) + SimTime::from_secs(60);
            sys.ops().advance_ws(ws, t);
        }
        sys.run_fault_schedule();
        let js = sys.server_journal_stats(ServerId(0));
        let replayed: u64 = sys
            .server_salvage_reports(ServerId(0))
            .iter()
            .map(|r| r.replayed)
            .sum();
        (
            outcomes,
            js.torn_discarded,
            js.records_discarded,
            replayed,
            sys.now(),
        )
    }

    let a = run(0xc0de);
    let b = run(0xc0de);
    assert_eq!(a, b, "same seed must reproduce the crash path bit for bit");
}
