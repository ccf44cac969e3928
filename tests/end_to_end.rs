//! End-to-end integration tests: every operation exercised through the
//! full stack (workstation namespace → Venus cache → secure RPC →
//! Vice server → volume storage).

use itc_afs::core::config::SystemConfig;
use itc_afs::core::proto::{EntryKind, ServerId, ViceError};
use itc_afs::core::system::{ItcSystem, SystemError};
use itc_afs::core::venus::VenusError;

fn campus() -> ItcSystem {
    let mut sys = ItcSystem::build(SystemConfig::prototype(2, 2));
    for (u, p) in [("satya", "pw1"), ("howard", "pw2"), ("nichols", "pw3")] {
        sys.add_user(u, p).unwrap();
    }
    sys
}

#[test]
fn full_file_lifecycle() {
    let mut sys = campus();
    sys.login(0, "satya", "pw1").unwrap();
    sys.ops().mkdir_p(0, "/vice/usr/satya/proj").unwrap();

    // Create, read, overwrite, stat, list, rename, delete.
    sys.ops()
        .store(0, "/vice/usr/satya/proj/a.c", b"v1".to_vec())
        .unwrap();
    assert_eq!(
        sys.ops().fetch(0, "/vice/usr/satya/proj/a.c").unwrap(),
        b"v1"
    );
    sys.ops()
        .store(0, "/vice/usr/satya/proj/a.c", b"version two".to_vec())
        .unwrap();
    let st = sys.ops().stat(0, "/vice/usr/satya/proj/a.c").unwrap();
    assert_eq!(st.size, 11);
    assert_eq!(st.kind, EntryKind::File);

    let listing = sys.ops().readdir(0, "/vice/usr/satya/proj").unwrap();
    assert_eq!(listing, vec![("a.c".to_string(), EntryKind::File)]);

    sys.ops()
        .rename(0, "/vice/usr/satya/proj/a.c", "/vice/usr/satya/proj/b.c")
        .unwrap();
    assert!(sys.ops().fetch(0, "/vice/usr/satya/proj/a.c").is_err());
    assert_eq!(
        sys.ops().fetch(0, "/vice/usr/satya/proj/b.c").unwrap(),
        b"version two"
    );

    sys.ops().unlink(0, "/vice/usr/satya/proj/b.c").unwrap();
    assert!(matches!(
        sys.ops().fetch(0, "/vice/usr/satya/proj/b.c"),
        Err(SystemError::Venus(VenusError::Vice(ViceError::NoSuchFile(
            _
        ))))
    ));
    sys.ops().rmdir(0, "/vice/usr/satya/proj").unwrap();
}

#[test]
fn open_write_close_semantics() {
    // Section 3.2: reads and writes touch only the cached copy; the store
    // happens at close.
    let mut sys = campus();
    sys.login(0, "satya", "pw1").unwrap();
    sys.login(1, "howard", "pw2").unwrap();
    sys.ops().mkdir_p(0, "/vice/usr/shared").unwrap();
    sys.ops()
        .store(0, "/vice/usr/shared/f", b"initial".to_vec())
        .unwrap();

    let h = sys.ops().open_write(0, "/vice/usr/shared/f").unwrap();
    sys.ops()
        .write(0, h, b"modified but not yet closed".to_vec())
        .unwrap();

    // Before close, another workstation still sees the old contents.
    assert_eq!(
        sys.ops().fetch(1, "/vice/usr/shared/f").unwrap(),
        b"initial"
    );

    sys.ops().close(0, h).unwrap();
    // After close, "changes by one user are immediately visible to all
    // other users".
    assert_eq!(
        sys.ops().fetch(1, "/vice/usr/shared/f").unwrap(),
        b"modified but not yet closed"
    );
}

#[test]
fn reads_and_writes_cause_no_traffic_between_open_and_close() {
    let mut sys = campus();
    sys.login(0, "satya", "pw1").unwrap();
    sys.ops().mkdir_p(0, "/vice/usr/satya").unwrap();
    sys.ops()
        .store(0, "/vice/usr/satya/f", vec![0; 50_000])
        .unwrap();

    let h = sys.ops().open_read(0, "/vice/usr/satya/f").unwrap();
    let calls_before = sys.metrics().total_calls();
    for _ in 0..100 {
        let _ = sys.ops().read(0, h).unwrap();
    }
    assert_eq!(sys.metrics().total_calls(), calls_before);
    sys.ops().close(0, h).unwrap();
    // Closing an unmodified file is also free.
    assert_eq!(sys.metrics().total_calls(), calls_before);
}

#[test]
fn append_through_handle() {
    let mut sys = campus();
    sys.login(0, "satya", "pw1").unwrap();
    sys.ops().mkdir_p(0, "/vice/usr/satya").unwrap();
    sys.ops()
        .store(0, "/vice/usr/satya/log", b"line1\n".to_vec())
        .unwrap();
    let h = sys.ops().open_write(0, "/vice/usr/satya/log").unwrap();
    let current = sys.ops().read(0, h).unwrap();
    sys.ops().write(0, h, current).unwrap();
    // Append twice before closing.
    let mut cur = sys.ops().read(0, h).unwrap();
    cur.extend_from_slice(b"line2\n");
    sys.ops().write(0, h, cur).unwrap();
    sys.ops().close(0, h).unwrap();
    assert_eq!(
        sys.ops().fetch(0, "/vice/usr/satya/log").unwrap(),
        b"line1\nline2\n"
    );
}

#[test]
fn vice_symlinks_resolve_on_fetch() {
    let mut sys = campus();
    sys.login(0, "satya", "pw1").unwrap();
    sys.ops().mkdir_p(0, "/vice/usr/satya").unwrap();
    sys.ops()
        .store(0, "/vice/usr/satya/real.txt", b"the real file".to_vec())
        .unwrap();
    sys.ops()
        .symlink(0, "/vice/usr/satya/alias", "/vice/usr/satya/real.txt")
        .unwrap();
    assert_eq!(
        sys.ops().fetch(0, "/vice/usr/satya/alias").unwrap(),
        b"the real file"
    );
}

#[test]
fn cross_cluster_sharing_and_hints() {
    let mut sys = campus();
    // satya's volume lives in cluster 1; he works from cluster 0.
    sys.create_user_volume("satya", 1).unwrap();
    sys.login(0, "satya", "pw1").unwrap();
    sys.ops()
        .store(
            0,
            "/vice/usr/satya/far.txt",
            b"across the backbone".to_vec(),
        )
        .unwrap();
    // All file traffic went to server 1; server 0 only answered location
    // queries.
    assert!(sys.server(ServerId(1)).stats().calls_of("store") >= 1);
    assert_eq!(sys.server(ServerId(0)).stats().calls_of("store"), 0);
    assert!(sys.server(ServerId(0)).stats().calls_of("getcustodian") >= 1);

    // A second access uses the cached hint: no more location queries.
    let hints_before = sys.server(ServerId(0)).stats().calls_of("getcustodian");
    let _ = sys.ops().fetch(0, "/vice/usr/satya/far.txt").unwrap();
    assert_eq!(
        sys.server(ServerId(0)).stats().calls_of("getcustodian"),
        hints_before
    );
}

#[test]
fn volume_move_preserves_access_transparently() {
    let mut sys = campus();
    sys.create_user_volume("satya", 0).unwrap();
    sys.login(0, "satya", "pw1").unwrap();
    sys.ops()
        .store(0, "/vice/usr/satya/f", b"before".to_vec())
        .unwrap();

    // The student moves dormitories: his subtree is reassigned.
    sys.move_volume("/vice/usr/satya", ServerId(1)).unwrap();

    // The same name still works — location transparency. (Venus follows
    // the NotCustodian hint transparently on the stale-hint path.)
    sys.ops()
        .store(0, "/vice/usr/satya/f", b"after the move".to_vec())
        .unwrap();
    assert_eq!(
        sys.ops().fetch(0, "/vice/usr/satya/f").unwrap(),
        b"after the move"
    );
    assert!(sys.server(ServerId(1)).stats().calls_of("store") >= 1);
}

#[test]
fn quota_and_offline_full_stack() {
    let mut sys = campus();
    sys.create_user_volume("satya", 0).unwrap();
    sys.set_volume_quota("/vice/usr/satya", Some(10_000))
        .unwrap();
    sys.login(0, "satya", "pw1").unwrap();
    sys.ops()
        .store(0, "/vice/usr/satya/a", vec![0; 9_000])
        .unwrap();
    assert!(matches!(
        sys.ops().store(0, "/vice/usr/satya/b", vec![0; 5_000]),
        Err(SystemError::Venus(VenusError::Vice(
            ViceError::QuotaExceeded(_)
        )))
    ));

    sys.set_volume_online("/vice/usr/satya", false).unwrap();
    sys.login(1, "howard", "pw2").unwrap();
    assert!(matches!(
        sys.ops().fetch(1, "/vice/usr/satya/a"),
        Err(SystemError::Venus(VenusError::Vice(
            ViceError::VolumeOffline(_)
        )))
    ));
    sys.set_volume_online("/vice/usr/satya", true).unwrap();
    assert_eq!(
        sys.ops().fetch(1, "/vice/usr/satya/a").unwrap().len(),
        9_000
    );
}

#[test]
fn acl_round_trip_through_the_stack() {
    use itc_afs::core::protect::{AccessList, Rights};
    let mut sys = campus();
    sys.create_user_volume("satya", 0).unwrap();
    sys.login(0, "satya", "pw1").unwrap();
    sys.ops().mkdir(0, "/vice/usr/satya/private").unwrap();

    let mut acl = AccessList::new();
    acl.grant("satya", Rights::ALL);
    sys.ops()
        .set_acl(0, "/vice/usr/satya/private", acl.clone())
        .unwrap();
    let got = sys.ops().get_acl(0, "/vice/usr/satya/private").unwrap();
    assert_eq!(got, acl);

    // The inherited parent ACL still lets anyuser read elsewhere, but the
    // private dir is now satya-only.
    sys.ops()
        .store(0, "/vice/usr/satya/private/key", b"secret".to_vec())
        .unwrap();
    sys.login(1, "howard", "pw2").unwrap();
    assert!(matches!(
        sys.ops().fetch(1, "/vice/usr/satya/private/key"),
        Err(SystemError::Venus(VenusError::Vice(
            ViceError::PermissionDenied(_)
        )))
    ));
}

#[test]
fn mixed_local_and_shared_workflow() {
    // The compiler pattern: sources shared, temporaries local.
    let mut sys = campus();
    sys.login(0, "satya", "pw1").unwrap();
    sys.ops().mkdir_p(0, "/vice/usr/satya/src").unwrap();
    sys.ops()
        .store(0, "/vice/usr/satya/src/main.c", b"int main(){}".to_vec())
        .unwrap();

    let src = sys.ops().fetch(0, "/vice/usr/satya/src/main.c").unwrap();
    sys.ops().store(0, "/tmp/main.s", src.clone()).unwrap();
    let asm = sys.ops().fetch(0, "/tmp/main.s").unwrap();
    sys.ops().unlink(0, "/tmp/main.s").unwrap();
    sys.ops()
        .store(0, "/vice/usr/satya/src/main.o", asm)
        .unwrap();

    assert_eq!(
        sys.ops().fetch(0, "/vice/usr/satya/src/main.o").unwrap(),
        b"int main(){}"
    );
}

#[test]
fn locking_across_the_stack() {
    let mut sys = campus();
    sys.login(0, "satya", "pw1").unwrap();
    sys.login(1, "howard", "pw2").unwrap();
    sys.ops().mkdir_p(0, "/vice/usr/shared").unwrap();
    sys.ops()
        .store(0, "/vice/usr/shared/db", b"records".to_vec())
        .unwrap();

    // Multi-reader is fine; a writer excludes.
    sys.ops().lock(0, "/vice/usr/shared/db", false).unwrap();
    sys.ops().lock(1, "/vice/usr/shared/db", false).unwrap();
    assert!(matches!(
        sys.ops().lock(1, "/vice/usr/shared/db", true),
        Err(SystemError::Venus(VenusError::Vice(
            ViceError::LockConflict(_)
        )))
    ));
    sys.ops().unlock(0, "/vice/usr/shared/db").unwrap();
    sys.ops().unlock(1, "/vice/usr/shared/db").unwrap();
    sys.ops().lock(1, "/vice/usr/shared/db", true).unwrap();

    // Locking is advisory: an unlocked write still succeeds.
    assert!(sys
        .ops()
        .store(0, "/vice/usr/shared/db", b"clobbered".to_vec())
        .is_ok());
}
