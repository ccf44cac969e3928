//! Integration tests for the paper's extension features: the surrogate
//! server for low-function workstations (Section 3.3), the deferred
//! write-back alternative (Section 3.2), and traffic monitoring /
//! rebalancing (Section 3.6).

use itc_afs::core::config::{SystemConfig, WritePolicy};
use itc_afs::core::proto::ServerId;
use itc_afs::core::system::ItcSystem;
use itc_afs::sim::SimTime;

// ---------------------------------------------------------------------
// Surrogate server
// ---------------------------------------------------------------------

#[test]
fn pcs_share_the_hosts_cache_and_write_through_to_vice() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(1, 2));
    sys.add_user("lab", "pw").unwrap();
    sys.create_user_volume("lab", 0).unwrap();
    sys.admin_install_file("/vice/usr/lab/data", vec![1; 30_000])
        .unwrap();
    sys.login(0, "lab", "pw").unwrap();
    sys.enable_surrogate(0).unwrap();
    let pc_a = sys.attach_pc(0).unwrap();
    let pc_b = sys.attach_pc(0).unwrap();

    // One fetch from Vice serves both PCs.
    assert_eq!(
        sys.pc_fetch(0, pc_a, "/vice/usr/lab/data").unwrap().len(),
        30_000
    );
    let fetches = sys.total_server_calls_of("fetch");
    assert_eq!(
        sys.pc_fetch(0, pc_b, "/vice/usr/lab/data").unwrap().len(),
        30_000
    );
    // Check-on-open validates but does not refetch.
    assert_eq!(sys.total_server_calls_of("fetch"), fetches);

    // PC writes are campus-visible.
    sys.pc_store(0, pc_a, "/vice/usr/lab/out", b"pc wrote this".to_vec())
        .unwrap();
    sys.add_user("other", "pw").unwrap();
    sys.login(1, "other", "pw").unwrap();
    assert_eq!(
        sys.ops().fetch(1, "/vice/usr/lab/out").unwrap(),
        b"pc wrote this"
    );

    // stat/readdir work through the surrogate.
    assert_eq!(sys.pc_stat(0, pc_a, "/vice/usr/lab/out").unwrap().size, 13);
    let names: Vec<String> = sys
        .pc_readdir(0, pc_a, "/vice/usr/lab")
        .unwrap()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert!(names.contains(&"out".to_string()));
}

#[test]
fn pc_attachment_lan_dominates_warm_reads() {
    // "perhaps at lower performance or convenience" — the cheap LAN is
    // the PC's bottleneck even when the host cache is warm.
    let mut sys = ItcSystem::build(SystemConfig::prototype(1, 1));
    sys.add_user("lab", "pw").unwrap();
    sys.create_user_volume("lab", 0).unwrap();
    sys.admin_install_file("/vice/usr/lab/big", vec![1; 300_000])
        .unwrap();
    sys.login(0, "lab", "pw").unwrap();
    // Warm the host cache directly.
    let _ = sys.ops().fetch(0, "/vice/usr/lab/big").unwrap();

    sys.enable_surrogate(0).unwrap();
    let pc = sys.attach_pc(0).unwrap();
    let t0 = sys
        .surrogate(0)
        .unwrap()
        .pc_time(pc)
        .unwrap_or(SimTime::ZERO);
    let _ = sys.pc_fetch(0, pc, "/vice/usr/lab/big").unwrap();
    let elapsed = sys.surrogate(0).unwrap().pc_time(pc).unwrap() - t0;
    // 300 KB at 30 KB/s is 10 s of cheap-LAN transfer alone.
    assert!(elapsed > SimTime::from_secs(10), "{elapsed}");
}

// ---------------------------------------------------------------------
// Deferred write-back
// ---------------------------------------------------------------------

fn delayed_system(delay_secs: u64) -> ItcSystem {
    let mut sys = ItcSystem::build(SystemConfig {
        write_policy: WritePolicy::Delayed(SimTime::from_secs(delay_secs)),
        ..SystemConfig::prototype(1, 2)
    });
    sys.add_user("w", "pw").unwrap();
    sys.create_user_volume("w", 0).unwrap();
    sys.login(0, "w", "pw").unwrap();
    sys
}

#[test]
fn deferred_writes_coalesce_and_flush_on_deadline() {
    let mut sys = delayed_system(120);
    // Ten saves of the same document within the window: zero stores yet.
    for i in 0..10u8 {
        sys.ops()
            .store(0, "/vice/usr/w/doc", vec![i; 1_000])
            .unwrap();
    }
    assert_eq!(sys.total_server_calls_of("store"), 0);
    assert_eq!(sys.venus(0).dirty_count(), 1);
    // Locally, the latest contents are visible.
    assert_eq!(
        sys.ops().fetch(0, "/vice/usr/w/doc").unwrap(),
        vec![9u8; 1_000]
    );

    // After the deadline passes, the next operation flushes exactly one
    // coalesced store.
    let later = sys.ws_time(0) + SimTime::from_secs(200);
    sys.ops().advance_ws(0, later);
    let _ = sys.ops().fetch(0, "/vice/usr/w/doc").unwrap();
    assert_eq!(sys.total_server_calls_of("store"), 1);
    assert_eq!(sys.venus(0).dirty_count(), 0);

    // And the flushed contents are the last write.
    sys.add_user("r", "pw").unwrap();
    sys.login(1, "r", "pw").unwrap();
    assert_eq!(
        sys.ops().fetch(1, "/vice/usr/w/doc").unwrap(),
        vec![9u8; 1_000]
    );
}

#[test]
fn explicit_flush_commits_early() {
    let mut sys = delayed_system(3_600);
    sys.ops()
        .store(0, "/vice/usr/w/doc", b"unflushed".to_vec())
        .unwrap();
    assert_eq!(sys.total_server_calls_of("store"), 0);
    let flushed = sys.ops().flush_all(0).unwrap();
    assert_eq!(flushed, 1);
    assert_eq!(sys.total_server_calls_of("store"), 1);
}

#[test]
fn crash_loses_exactly_the_unflushed_updates() {
    let mut sys = delayed_system(3_600);
    sys.ops()
        .store(0, "/vice/usr/w/committed", b"v1".to_vec())
        .unwrap();
    sys.ops().flush_all(0).unwrap();
    sys.ops()
        .store(0, "/vice/usr/w/committed", b"v2-unflushed".to_vec())
        .unwrap();
    sys.ops()
        .store(0, "/vice/usr/w/never-seen", b"x".to_vec())
        .unwrap();

    let lost = sys.crash_workstation(0);
    assert_eq!(lost, 2);

    // Vice still has the committed version; the never-flushed file does
    // not exist at all.
    sys.add_user("r", "pw").unwrap();
    sys.login(1, "r", "pw").unwrap();
    assert_eq!(sys.ops().fetch(1, "/vice/usr/w/committed").unwrap(), b"v1");
    assert!(sys.ops().fetch(1, "/vice/usr/w/never-seen").is_err());
}

#[test]
fn store_on_close_never_loses_anything_on_crash() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(1, 2));
    sys.add_user("w", "pw").unwrap();
    sys.create_user_volume("w", 0).unwrap();
    sys.login(0, "w", "pw").unwrap();
    sys.ops()
        .store(0, "/vice/usr/w/doc", b"safe".to_vec())
        .unwrap();
    assert_eq!(sys.crash_workstation(0), 0);
    sys.add_user("r", "pw").unwrap();
    sys.login(1, "r", "pw").unwrap();
    assert_eq!(sys.ops().fetch(1, "/vice/usr/w/doc").unwrap(), b"safe");
}

// ---------------------------------------------------------------------
// Monitoring and rebalancing
// ---------------------------------------------------------------------

#[test]
fn monitor_detects_misplaced_volume_and_move_fixes_it() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(2, 2));
    sys.enable_monitoring();
    sys.add_user("nomad", "pw").unwrap();
    // Volume on server 0; the user works from cluster 1.
    sys.create_user_volume("nomad", 0).unwrap();
    sys.admin_install_file("/vice/usr/nomad/f", vec![1; 10_000])
        .unwrap();
    let ws = sys.workstation_in_cluster(1);
    sys.login(ws, "nomad", "pw").unwrap();
    for _ in 0..10 {
        let _ = sys.ops().fetch(ws, "/vice/usr/nomad/f").unwrap();
    }

    assert!(sys.cross_cluster_fraction() > 0.5);
    let recs = sys.rebalancing_recommendations();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].subtree, "/vice/usr/nomad");
    assert_eq!(recs[0].to, ServerId(1));

    // Apply and re-measure: the traffic becomes intra-cluster.
    sys.move_volume(&recs[0].subtree, recs[0].to).unwrap();
    sys.reset_monitoring();
    for _ in 0..10 {
        let _ = sys.ops().fetch(ws, "/vice/usr/nomad/f").unwrap();
    }
    assert_eq!(sys.cross_cluster_fraction(), 0.0);
    assert!(sys.rebalancing_recommendations().is_empty());
}

#[test]
fn move_volume_round_trips_as_the_user_migrates() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(2, 2));
    sys.enable_monitoring();
    sys.add_user("nomad", "pw").unwrap();
    sys.create_user_volume("nomad", 0).unwrap();
    sys.admin_install_file("/vice/usr/nomad/f", vec![1; 10_000])
        .unwrap();

    // The user decamps to cluster 1; the monitor says follow them.
    let far = sys.workstation_in_cluster(1);
    sys.login(far, "nomad", "pw").unwrap();
    for _ in 0..10 {
        let _ = sys.ops().fetch(far, "/vice/usr/nomad/f").unwrap();
    }
    let recs = sys.rebalancing_recommendations();
    assert_eq!(recs.len(), 1);
    sys.move_volume(&recs[0].subtree, recs[0].to).unwrap();
    assert_eq!(sys.location_of("/vice/usr/nomad"), Some(ServerId(1)));

    // They move back; a fresh measurement epoch recommends the inverse
    // move, and applying it restores the original assignment.
    sys.reset_monitoring();
    let home = sys.workstation_in_cluster(0);
    sys.login(home, "nomad", "pw").unwrap();
    for _ in 0..10 {
        let _ = sys.ops().fetch(home, "/vice/usr/nomad/f").unwrap();
    }
    let recs = sys.rebalancing_recommendations();
    assert_eq!(recs.len(), 1);
    assert_eq!(recs[0].subtree, "/vice/usr/nomad");
    assert_eq!(recs[0].from, ServerId(1));
    assert_eq!(recs[0].to, ServerId(0));
    sys.move_volume(&recs[0].subtree, recs[0].to).unwrap();
    assert_eq!(sys.location_of("/vice/usr/nomad"), Some(ServerId(0)));

    // The file survived both moves.
    assert_eq!(
        sys.ops().fetch(home, "/vice/usr/nomad/f").unwrap().len(),
        10_000
    );
}

#[test]
fn logout_flushes_deferred_writes() {
    let mut sys = delayed_system(3_600);
    sys.ops()
        .store(0, "/vice/usr/w/doc", b"edited then logged out".to_vec())
        .unwrap();
    assert_eq!(sys.total_server_calls_of("store"), 0);
    sys.logout(0);
    assert_eq!(sys.total_server_calls_of("store"), 1);
    // Another user sees the flushed contents.
    sys.add_user("r", "pw").unwrap();
    sys.login(1, "r", "pw").unwrap();
    assert_eq!(
        sys.ops().fetch(1, "/vice/usr/w/doc").unwrap(),
        b"edited then logged out"
    );
}

// ---------------------------------------------------------------------
// Availability: machine failures affect only "small groups of users"
// ---------------------------------------------------------------------

#[test]
fn server_failure_is_contained_to_its_users() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(2, 2));
    sys.add_user("a", "pw").unwrap();
    sys.add_user("b", "pw").unwrap();
    sys.create_user_volume("a", 0).unwrap();
    sys.create_user_volume("b", 1).unwrap();
    sys.admin_install_file("/vice/usr/a/f", b"on server 0".to_vec())
        .unwrap();
    sys.admin_install_file("/vice/usr/b/f", b"on server 1".to_vec())
        .unwrap();
    let ws_a = sys.workstation_in_cluster(0);
    let ws_b = sys.workstation_in_cluster(1);
    sys.login(ws_a, "a", "pw").unwrap();
    sys.login(ws_b, "b", "pw").unwrap();

    // Server 1 goes down. Users of server 0 are entirely unaffected...
    sys.set_server_online(itc_afs::core::proto::ServerId(1), false);
    assert_eq!(
        sys.ops().fetch(ws_a, "/vice/usr/a/f").unwrap(),
        b"on server 0"
    );
    // ...while cold access to server 1's files fails (after a timeout).
    let t0 = sys.ws_time(ws_b);
    let err = sys.ops().fetch(ws_b, "/vice/usr/b/f").unwrap_err();
    assert!(format!("{err}").contains("unreachable"), "{err}");
    assert!(
        sys.ws_time(ws_b) - t0 >= SimTime::from_secs(15),
        "timeout charged"
    );

    // Recovery restores service.
    sys.set_server_online(itc_afs::core::proto::ServerId(1), true);
    assert_eq!(
        sys.ops().fetch(ws_b, "/vice/usr/b/f").unwrap(),
        b"on server 1"
    );
}

#[test]
fn cached_copies_survive_a_custodian_outage() {
    // A user keeps working on his cached files while his custodian is
    // down — whole-file caching is itself an availability mechanism.
    let mut sys = ItcSystem::build(SystemConfig {
        validation: itc_afs::sim::ValidationMode::Callback,
        ..SystemConfig::prototype(1, 1)
    });
    sys.add_user("u", "pw").unwrap();
    sys.create_user_volume("u", 0).unwrap();
    sys.admin_install_file("/vice/usr/u/f", b"cached".to_vec())
        .unwrap();
    sys.login(0, "u", "pw").unwrap();
    let _ = sys.ops().fetch(0, "/vice/usr/u/f").unwrap();

    sys.set_server_online(itc_afs::core::proto::ServerId(0), false);
    // Callback-valid cache entries keep working with zero traffic.
    assert_eq!(sys.ops().fetch(0, "/vice/usr/u/f").unwrap(), b"cached");
}

#[test]
fn readonly_replicas_keep_binaries_available_through_an_outage() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(2, 2));
    sys.add_user("u", "pw").unwrap();
    sys.admin_install_file("/vice/unix/sun/bin/cc", b"compiler".to_vec())
        .unwrap();
    let everywhere = [
        itc_afs::core::proto::ServerId(0),
        itc_afs::core::proto::ServerId(1),
    ];
    sys.replicate_readonly("/vice", &everywhere).unwrap();

    // The custodian of /vice (server 0) dies; a cluster-1 user cold-reads
    // the compiler anyway, from his local replica.
    sys.set_server_online(itc_afs::core::proto::ServerId(0), false);
    let ws = sys.workstation_in_cluster(1);
    sys.login(ws, "u", "pw").unwrap();
    assert_eq!(
        sys.ops().fetch(ws, "/vice/unix/sun/bin/cc").unwrap(),
        b"compiler"
    );

    // Even a cluster-0 user fails over to the surviving replica (slower:
    // one timeout plus a cross-cluster fetch).
    let ws0 = sys.workstation_in_cluster(0);
    // His home server is down, so the location query itself must go...
    // nowhere: the home server answers location queries. This is the
    // honest 1985 behavior — a user whose home server is down needs the
    // hint already cached. Pre-seed by logging in before the outage:
    sys.set_server_online(itc_afs::core::proto::ServerId(0), true);
    sys.add_user("v", "pw").unwrap();
    sys.login(ws0, "v", "pw").unwrap();
    let _ = sys.ops().fetch(ws0, "/vice/unix/sun/bin/cc").unwrap(); // caches + hints
    sys.set_server_online(itc_afs::core::proto::ServerId(0), false);
    // Warm cache in callback...? prototype check-on-open revalidates — the
    // validation goes to the nearest replica (server 0, down), then fails
    // over to server 1.
    assert_eq!(
        sys.ops().fetch(ws0, "/vice/unix/sun/bin/cc").unwrap(),
        b"compiler"
    );
}
