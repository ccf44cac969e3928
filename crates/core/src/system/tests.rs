//! End-to-end tests of the assembled system, exercising the full stack:
//! Venus → event-driven transport → server, with authentication,
//! protection, volumes, replication, surrogates, and locking.

use super::*;
use crate::proto::ViceError;
use crate::surrogate::PcId;

fn sys() -> ItcSystem {
    let mut s = ItcSystem::build(SystemConfig::prototype(2, 2));
    s.add_user("satya", "pw-satya").unwrap();
    s.add_user("howard", "pw-howard").unwrap();
    s
}

#[test]
fn build_creates_topology_and_skeleton() {
    let s = sys();
    assert_eq!(s.server_count(), 2);
    assert_eq!(s.workstation_count(), 4);
    assert_eq!(s.location_of("/vice/anything"), Some(ServerId(0)));
    assert_eq!(s.workstation_in_cluster(1), 2);
}

#[test]
fn now_is_the_latest_workstation_clock_or_operator_action() {
    let mut s = ItcSystem::build(SystemConfig::prototype(3, 2));
    let (ws0, ws2) = (s.workstation_in_cluster(0), s.workstation_in_cluster(2));
    let late = s.now() + SimTime::from_secs(90);
    s.ops().advance_ws(ws2, late);
    s.ops().advance_ws(ws0, late - SimTime::from_secs(30));
    // The latest workstation activity is on cluster 2, and only its
    // workstation reached it.
    assert_eq!(s.now(), late);
    assert_eq!(s.ws_time(ws2), late);
    assert_eq!(s.ws_time(ws0), late - SimTime::from_secs(30));
    for ws in (0..s.workstation_count()).filter(|&ws| ws != ws2) {
        assert!(s.ws_time(ws) < late, "workstation {ws}");
    }

    // An operator action ending later moves the system's time to its
    // completion: the replication charge starts at `late` and returns once
    // the last replica applied the update.
    s.add_user("newcomer", "pw").unwrap();
    assert!(s.operator_now > late);
    assert_eq!(s.now(), s.operator_now);
    assert_eq!(s.ws_time(ws2), late, "operator time is its own");
    assert_eq!(s.revoke_via_groups("newcomer"), s.now());
}

/// Node ids seed reconnect jitter and order bindings, promises and replay
/// entries, so the layout — each cluster's server, then its workstations —
/// is pinned: changing it must fail here, not drift silently.
#[test]
fn node_ids_are_laid_out_server_then_workstations_cluster_by_cluster() {
    let s = ItcSystem::build(SystemConfig::prototype(3, 2));
    let servers: Vec<u32> = (0..3).map(|c| s.server(ServerId(c)).node().0).collect();
    assert_eq!(servers, [0, 3, 6]);
    let workstations: Vec<u32> = (0..s.workstation_count())
        .map(|ws| s.venus(ws).node().0)
        .collect();
    assert_eq!(workstations, [1, 2, 4, 5, 7, 8]);
}

#[test]
fn store_then_fetch_round_trips() {
    let mut s = sys();
    s.login(0, "satya", "pw-satya").unwrap();
    s.ops().mkdir_p(0, "/vice/usr/satya").unwrap();
    s.ops()
        .store(0, "/vice/usr/satya/f.txt", b"hello vice".to_vec())
        .unwrap();
    assert_eq!(
        s.ops().fetch(0, "/vice/usr/satya/f.txt").unwrap(),
        b"hello vice"
    );
    // Time moved forward.
    assert!(s.now() > SimTime::ZERO);
}

#[test]
fn wrong_password_fails_login() {
    let mut s = sys();
    let err = s.login(0, "satya", "wrong").unwrap_err();
    assert!(matches!(err, SystemError::AuthFailed(_)));
    // And no session remains.
    assert!(s.venus(0).current_user().is_none());
}

#[test]
fn unknown_user_fails_login() {
    let mut s = sys();
    assert!(matches!(
        s.login(0, "ghost", "pw"),
        Err(SystemError::AuthFailed(_))
    ));
}

#[test]
fn sharing_is_visible_across_workstations() {
    let mut s = sys();
    s.login(0, "satya", "pw-satya").unwrap();
    s.login(2, "howard", "pw-howard").unwrap(); // other cluster
    s.ops().mkdir_p(0, "/vice/usr/shared").unwrap();
    s.ops()
        .store(0, "/vice/usr/shared/note", b"v1".to_vec())
        .unwrap();
    assert_eq!(s.ops().fetch(2, "/vice/usr/shared/note").unwrap(), b"v1");
    // An update by howard is seen by satya (timesharing semantics).
    s.ops()
        .store(2, "/vice/usr/shared/note", b"v2".to_vec())
        .unwrap();
    assert_eq!(s.ops().fetch(0, "/vice/usr/shared/note").unwrap(), b"v2");
}

#[test]
fn user_volume_routes_to_its_cluster_server() {
    let mut s = sys();
    s.create_user_volume("satya", 1).unwrap();
    assert_eq!(s.location_of("/vice/usr/satya/x"), Some(ServerId(1)));
    s.login(0, "satya", "pw-satya").unwrap();
    s.ops()
        .store(0, "/vice/usr/satya/f", b"data".to_vec())
        .unwrap();
    // The file physically lives on server 1.
    assert!(s.server(ServerId(1)).stats().calls_of("store") >= 1);
    assert_eq!(s.server(ServerId(0)).stats().calls_of("store"), 0);
}

#[test]
fn permissions_enforced_against_authenticated_user() {
    let mut s = sys();
    s.create_user_volume("satya", 0).unwrap();
    s.login(0, "satya", "pw-satya").unwrap();
    s.login(1, "howard", "pw-howard").unwrap();
    s.ops()
        .store(0, "/vice/usr/satya/secret", b"mine".to_vec())
        .unwrap();
    // howard can read (anyuser has READ) but not write.
    assert_eq!(s.ops().fetch(1, "/vice/usr/satya/secret").unwrap(), b"mine");
    let err = s
        .ops()
        .store(1, "/vice/usr/satya/secret", b"overwrite".to_vec())
        .unwrap_err();
    assert!(
        matches!(
            err,
            SystemError::Venus(VenusError::Vice(ViceError::PermissionDenied(_)))
        ),
        "{err:?}"
    );
}

#[test]
fn second_open_hits_cache_in_prototype_mode() {
    let mut s = sys();
    s.login(0, "satya", "pw-satya").unwrap();
    s.ops().mkdir_p(0, "/vice/usr/satya").unwrap();
    s.ops()
        .store(0, "/vice/usr/satya/f", vec![7; 1000])
        .unwrap();
    let fetches_before = s.total_server_calls_of("fetch");
    let validates_before = s.total_server_calls_of("validate");
    let _ = s.ops().fetch(0, "/vice/usr/satya/f").unwrap();
    // Check-on-open: no fetch, but one validation.
    assert_eq!(s.total_server_calls_of("fetch"), fetches_before);
    assert_eq!(s.total_server_calls_of("validate"), validates_before + 1);
    assert!(s.venus(0).cache().stats().hits >= 1);
}

#[test]
fn callback_mode_hits_without_any_traffic() {
    let mut s = ItcSystem::build(SystemConfig::revised(1, 2));
    s.add_user("u", "pw").unwrap();
    s.login(0, "u", "pw").unwrap();
    s.ops().mkdir_p(0, "/vice/usr/u").unwrap();
    s.ops().store(0, "/vice/usr/u/f", vec![1; 100]).unwrap();
    let _ = s.ops().fetch(0, "/vice/usr/u/f").unwrap();
    let total_before = s.metrics().total_calls();
    let _ = s.ops().fetch(0, "/vice/usr/u/f").unwrap();
    // Valid promise: the second open generated zero server calls.
    assert_eq!(s.metrics().total_calls(), total_before);
}

#[test]
fn callback_break_invalidates_other_caches() {
    let mut s = ItcSystem::build(SystemConfig::revised(1, 2));
    s.add_user("a", "pw").unwrap();
    s.add_user("b", "pw").unwrap();
    s.login(0, "a", "pw").unwrap();
    s.login(1, "b", "pw").unwrap();
    s.ops().mkdir_p(0, "/vice/usr/shared").unwrap();
    s.ops()
        .store(0, "/vice/usr/shared/f", b"v1".to_vec())
        .unwrap();
    // b caches it.
    assert_eq!(s.ops().fetch(1, "/vice/usr/shared/f").unwrap(), b"v1");
    // a updates: b's promise must break.
    s.ops()
        .store(0, "/vice/usr/shared/f", b"v2".to_vec())
        .unwrap();
    let entry_valid = s.venus(1).cache().peek("/vice/usr/shared/f").unwrap().valid;
    assert!(
        !entry_valid,
        "callback break should have invalidated b's copy"
    );
    // And b's next open refetches the new contents.
    assert_eq!(s.ops().fetch(1, "/vice/usr/shared/f").unwrap(), b"v2");
}

#[test]
fn logout_drops_bindings_but_keeps_cache() {
    let mut s = sys();
    s.login(0, "satya", "pw-satya").unwrap();
    s.ops().mkdir_p(0, "/vice/usr/satya").unwrap();
    s.ops()
        .store(0, "/vice/usr/satya/f", b"x".to_vec())
        .unwrap();
    s.logout(0);
    assert!(s.venus(0).current_user().is_none());
    assert!(s.venus(0).cache().peek("/vice/usr/satya/f").is_some());
    // Operations now fail.
    assert!(matches!(
        s.ops().fetch(0, "/vice/usr/satya/f"),
        Err(SystemError::Venus(VenusError::NotLoggedIn))
    ));
    // A new login works again.
    s.login(0, "howard", "pw-howard").unwrap();
    assert_eq!(s.ops().fetch(0, "/vice/usr/satya/f").unwrap(), b"x");
}

#[test]
fn quota_is_enforced_through_the_full_stack() {
    let mut s = sys();
    s.create_user_volume("satya", 0).unwrap();
    s.set_volume_quota("/vice/usr/satya", Some(1000)).unwrap();
    s.login(0, "satya", "pw-satya").unwrap();
    s.ops().store(0, "/vice/usr/satya/a", vec![0; 800]).unwrap();
    let err = s
        .ops()
        .store(0, "/vice/usr/satya/b", vec![0; 300])
        .unwrap_err();
    assert!(matches!(
        err,
        SystemError::Venus(VenusError::Vice(ViceError::QuotaExceeded(_)))
    ));
}

#[test]
fn offline_volume_surfaces_to_clients() {
    let mut s = sys();
    s.create_user_volume("satya", 0).unwrap();
    s.login(0, "satya", "pw-satya").unwrap();
    s.ops()
        .store(0, "/vice/usr/satya/f", b"x".to_vec())
        .unwrap();
    s.set_volume_online("/vice/usr/satya", false).unwrap();
    // A fresh workstation (cold cache) cannot read it.
    s.login(1, "howard", "pw-howard").unwrap();
    let err = s.ops().fetch(1, "/vice/usr/satya/f").unwrap_err();
    assert!(matches!(
        err,
        SystemError::Venus(VenusError::Vice(ViceError::VolumeOffline(_)))
    ));
    s.set_volume_online("/vice/usr/satya", true).unwrap();
    assert_eq!(s.ops().fetch(1, "/vice/usr/satya/f").unwrap(), b"x");
}

#[test]
fn cross_cluster_access_works_with_hints() {
    let mut s = sys();
    s.create_user_volume("satya", 1).unwrap();
    s.login(0, "satya", "pw-satya").unwrap(); // cluster 0 ws
    s.ops()
        .store(0, "/vice/usr/satya/f", b"far".to_vec())
        .unwrap();
    assert_eq!(s.ops().fetch(0, "/vice/usr/satya/f").unwrap(), b"far");
    // The home server answered a location query at least once.
    assert!(s.server(ServerId(0)).stats().calls_of("getcustodian") >= 1);
}

#[test]
fn revocation_via_negative_rights_vs_groups() {
    let mut s = sys();
    s.add_group("team").unwrap();
    s.add_member("team", "howard").unwrap();
    // A volume whose ACL grants the team write access, and satya admin.
    let mut acl = AccessList::new();
    acl.grant("satya", Rights::ALL);
    acl.grant(
        "team",
        Rights::READ | Rights::WRITE | Rights::INSERT | Rights::LOOKUP,
    );
    s.create_volume("proj", "/vice/proj", ServerId(0), acl.clone())
        .unwrap();
    s.login(0, "satya", "pw-satya").unwrap();
    s.login(1, "howard", "pw-howard").unwrap();
    s.ops()
        .store(1, "/vice/proj/data", b"by howard".to_vec())
        .unwrap();

    // Rapid revocation: negative rights on the single custodian.
    let mut revoked = acl.clone();
    revoked.deny("howard", Rights::ALL);
    s.ops().set_acl(0, "/vice/proj", revoked).unwrap();
    let err = s
        .ops()
        .store(1, "/vice/proj/data", b"again".to_vec())
        .unwrap_err();
    assert!(matches!(
        err,
        SystemError::Venus(VenusError::Vice(ViceError::PermissionDenied(_)))
    ));

    // Slow revocation: group removal propagates to all replicas.
    let before = s.now();
    let done = s.revoke_via_groups("howard");
    assert!(done >= before);
    assert!(!s.campus.domain.cps("howard").contains(&"team".to_string()));
}

#[test]
fn readonly_replication_serves_reads_locally() {
    let mut s = sys();
    // System binaries on server 0, replicated to server 1.
    s.admin_install_file("/vice/unix/sun/bin/cc", vec![9; 4000])
        .unwrap();
    s.replicate_readonly("/vice", &[ServerId(1)]).unwrap();
    s.login(2, "satya", "pw-satya").unwrap(); // cluster 1 workstation
    let data = s.ops().fetch(2, "/vice/unix/sun/bin/cc").unwrap();
    assert_eq!(data.len(), 4000);
    // The fetch was served by the cluster-1 replica, not server 0.
    assert!(s.server(ServerId(1)).stats().calls_of("fetch") >= 1);
    assert_eq!(s.server(ServerId(0)).stats().calls_of("fetch"), 0);
}

#[test]
fn volume_move_keeps_data_and_updates_location() {
    let mut s = sys();
    s.create_user_volume("satya", 0).unwrap();
    s.login(0, "satya", "pw-satya").unwrap();
    s.ops()
        .store(0, "/vice/usr/satya/f", b"before move".to_vec())
        .unwrap();
    s.move_volume("/vice/usr/satya", ServerId(1)).unwrap();
    assert_eq!(s.location_of("/vice/usr/satya/f"), Some(ServerId(1)));
    // A cold client reads it from the new home.
    s.login(2, "howard", "pw-howard").unwrap();
    assert_eq!(
        s.ops().fetch(2, "/vice/usr/satya/f").unwrap(),
        b"before move"
    );
}

#[test]
fn heterogeneous_bin_paths_resolve_per_workstation() {
    let mut s = sys();
    s.admin_install_file("/vice/unix/sun/bin/cc", b"sun cc".to_vec())
        .unwrap();
    s.admin_install_file("/vice/unix/vax/bin/cc", b"vax cc".to_vec())
        .unwrap();
    s.login(0, "satya", "pw-satya").unwrap(); // ws 0: Sun
    s.login(1, "howard", "pw-howard").unwrap(); // ws 1: Vax
    assert_eq!(s.ops().fetch(0, "/bin/cc").unwrap(), b"sun cc");
    assert_eq!(s.ops().fetch(1, "/bin/cc").unwrap(), b"vax cc");
}

#[test]
fn local_files_never_touch_servers() {
    let mut s = sys();
    s.login(0, "satya", "pw-satya").unwrap();
    let calls_before = s.metrics().total_calls();
    s.ops()
        .store(0, "/tmp/scratch", b"temporary".to_vec())
        .unwrap();
    assert_eq!(s.ops().fetch(0, "/tmp/scratch").unwrap(), b"temporary");
    assert_eq!(s.metrics().total_calls(), calls_before);
}

#[test]
fn surrogate_serves_pcs_through_the_host_cache() {
    let mut s = sys();
    s.login(0, "satya", "pw-satya").unwrap();
    s.ops().mkdir_p(0, "/vice/usr/satya").unwrap();
    s.ops()
        .store(0, "/vice/usr/satya/report", vec![9; 40_000])
        .unwrap();

    s.enable_surrogate(0).unwrap();
    let pc1 = s.attach_pc(0).unwrap();
    let pc2 = s.attach_pc(0).unwrap();

    // First PC read: served from the host's cache (the host just
    // stored the file), so no new fetch reaches Vice.
    let fetches = s.total_server_calls_of("fetch");
    let data = s.pc_fetch(0, pc1, "/vice/usr/satya/report").unwrap();
    assert_eq!(data.len(), 40_000);
    assert_eq!(s.total_server_calls_of("fetch"), fetches);

    // The second PC shares the same cache.
    let data2 = s.pc_fetch(0, pc2, "/vice/usr/satya/report").unwrap();
    assert_eq!(data2.len(), 40_000);
    assert_eq!(s.total_server_calls_of("fetch"), fetches);

    // A PC write lands in Vice and is visible campus-wide.
    s.pc_store(0, pc1, "/vice/usr/satya/from-pc", b"dos file".to_vec())
        .unwrap();
    s.login(2, "howard", "pw-howard").unwrap();
    assert_eq!(
        s.ops().fetch(2, "/vice/usr/satya/from-pc").unwrap(),
        b"dos file"
    );

    // Accounting and timing happened.
    let st = s.surrogate(0).unwrap().stats_of(pc1).unwrap();
    assert_eq!(st.requests, 2);
    assert!(st.bytes_out >= 40_000);
    assert!(s.surrogate(0).unwrap().pc_time(pc1).unwrap() > SimTime::ZERO);
    // The cheap LAN is slow: 40 KB took over a second of transfer.
    let t1 = s.surrogate(0).unwrap().pc_time(pc1).unwrap();
    assert!(t1 > SimTime::from_secs(1), "{t1}");
}

#[test]
fn surrogate_requires_a_session_and_valid_pc() {
    let mut s = sys();
    assert!(s.enable_surrogate(0).is_err(), "no session yet");
    s.login(0, "satya", "pw-satya").unwrap();
    s.enable_surrogate(0).unwrap();
    assert!(matches!(s.attach_pc(1), Err(SystemError::BadId(_))));
    let err = s.pc_fetch(0, PcId(77), "/vice/usr").unwrap_err();
    assert!(matches!(err, SystemError::BadId(_)));
}

#[test]
fn locks_are_exclusive_across_workstations() {
    let mut s = sys();
    s.login(0, "satya", "pw-satya").unwrap();
    s.login(1, "howard", "pw-howard").unwrap();
    s.ops().mkdir_p(0, "/vice/usr/shared").unwrap();
    s.ops()
        .store(0, "/vice/usr/shared/f", b"x".to_vec())
        .unwrap();
    s.ops().lock(0, "/vice/usr/shared/f", true).unwrap();
    let err = s.ops().lock(1, "/vice/usr/shared/f", true).unwrap_err();
    assert!(matches!(
        err,
        SystemError::Venus(VenusError::Vice(ViceError::LockConflict(_)))
    ));
    s.ops().unlock(0, "/vice/usr/shared/f").unwrap();
    s.ops().lock(1, "/vice/usr/shared/f", true).unwrap();
}

#[test]
fn event_pipeline_runs_every_call() {
    let mut s = sys();
    s.login(0, "satya", "pw-satya").unwrap();
    s.ops().mkdir_p(0, "/vice/usr/satya").unwrap();
    s.ops()
        .store(0, "/vice/usr/satya/f", b"x".to_vec())
        .unwrap();
    let st = s.event_stats();
    assert!(st.executed > 0, "calls must flow through the scheduler");
    let queued: u64 = s.cores.iter().map(|c| c.sched.len() as u64).sum();
    assert_eq!(st.scheduled, st.executed + st.cancelled + queued);
}
