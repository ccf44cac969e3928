//! Security integration tests: the Section 3.4 trust model enforced
//! through the full stack. "Security should not be predicated on the
//! integrity of workstations."

use itc_afs::core::config::SystemConfig;
use itc_afs::core::protect::{AccessList, Rights};
use itc_afs::core::proto::{ServerId, ViceError};
use itc_afs::core::system::{ItcSystem, SystemError};
use itc_afs::core::venus::VenusError;
use itc_afs::cryptbox::{channel, derive_key, handshake, mode};
use itc_afs::rpc::binding;
use itc_afs::rpc::NodeId;

#[test]
fn wrong_password_never_reaches_file_operations() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(1, 1));
    sys.add_user("alice", "right").unwrap();
    assert!(matches!(
        sys.login(0, "alice", "wrong"),
        Err(SystemError::AuthFailed(_))
    ));
    // No session, no access.
    assert!(matches!(
        sys.ops().fetch(0, "/vice/usr"),
        Err(SystemError::Venus(VenusError::NotLoggedIn))
    ));
    // And no server calls happened at all.
    assert_eq!(sys.metrics().total_calls(), 0);
}

#[test]
fn unknown_users_cannot_bind() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(1, 1));
    assert!(sys.login(0, "ghost", "anything").is_err());
}

#[test]
fn authenticated_identity_governs_not_request_contents() {
    // A malicious Venus can put anything in its requests; the server uses
    // the handshake identity. Demonstrated at the binding layer (the same
    // invariant the system transport relies on).
    let k = derive_key("pw", "mallory");
    let mut b = binding::establish("mallory", NodeId(0), NodeId(1), k, k, (1, 2)).unwrap();
    b.round_trip(b"i-am=root; Remove /vice/etc/passwd", |authenticated, _| {
        assert_eq!(authenticated, "mallory");
        Vec::new()
    })
    .unwrap();
}

#[test]
fn per_directory_acls_gate_every_operation() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(1, 3));
    sys.add_user("owner", "pw").unwrap();
    sys.add_user("reader", "pw").unwrap();
    sys.add_user("outsider", "pw").unwrap();
    sys.add_group("readers").unwrap();
    sys.add_member("readers", "reader").unwrap();

    let mut acl = AccessList::new();
    acl.grant("owner", Rights::ALL);
    acl.grant("readers", Rights::READ_ONLY);
    sys.create_volume("vault", "/vice/vault", ServerId(0), acl)
        .unwrap();

    sys.login(0, "owner", "pw").unwrap();
    sys.login(1, "reader", "pw").unwrap();
    sys.login(2, "outsider", "pw").unwrap();
    sys.ops()
        .store(0, "/vice/vault/doc", b"classified".to_vec())
        .unwrap();

    // Reader: read yes, write no, list yes.
    assert!(sys.ops().fetch(1, "/vice/vault/doc").is_ok());
    assert!(sys.ops().readdir(1, "/vice/vault").is_ok());
    assert!(matches!(
        sys.ops().store(1, "/vice/vault/doc", b"defaced".to_vec()),
        Err(SystemError::Venus(VenusError::Vice(
            ViceError::PermissionDenied(_)
        )))
    ));
    assert!(sys.ops().unlink(1, "/vice/vault/doc").is_err());
    assert!(sys.ops().mkdir(1, "/vice/vault/sub").is_err());

    // Outsider: nothing.
    assert!(sys.ops().fetch(2, "/vice/vault/doc").is_err());
    assert!(sys.ops().readdir(2, "/vice/vault").is_err());
    assert!(sys.ops().stat(2, "/vice/vault/doc").is_err());
}

#[test]
fn administer_right_gates_acl_changes() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(1, 2));
    sys.add_user("owner", "pw").unwrap();
    sys.add_user("sneaky", "pw").unwrap();
    let mut acl = AccessList::new();
    acl.grant("owner", Rights::ALL);
    acl.grant(
        "sneaky",
        Rights::READ | Rights::WRITE | Rights::INSERT | Rights::LOOKUP,
    );
    sys.create_volume("proj", "/vice/proj", ServerId(0), acl)
        .unwrap();
    sys.login(0, "owner", "pw").unwrap();
    sys.login(1, "sneaky", "pw").unwrap();

    // Sneaky tries to grant himself ADMINISTER.
    let mut grab = AccessList::new();
    grab.grant("sneaky", Rights::ALL);
    assert!(matches!(
        sys.ops().set_acl(1, "/vice/proj", grab.clone()),
        Err(SystemError::Venus(VenusError::Vice(
            ViceError::PermissionDenied(_)
        )))
    ));
    // The owner can.
    assert!(sys.ops().set_acl(0, "/vice/proj", grab).is_ok());
}

#[test]
fn revoked_user_is_blocked_even_with_warm_cache() {
    // The dangerous case: the attacker already has the file cached. A
    // check-on-open validation must re-check protection, not just
    // freshness.
    let mut sys = ItcSystem::build(SystemConfig::prototype(1, 2));
    sys.add_user("admin", "pw").unwrap();
    sys.add_user("mallory", "pw").unwrap();
    let mut acl = AccessList::new();
    acl.grant("admin", Rights::ALL);
    acl.grant("mallory", Rights::READ_ONLY);
    sys.create_volume("v", "/vice/v", ServerId(0), acl.clone())
        .unwrap();
    sys.login(0, "admin", "pw").unwrap();
    sys.login(1, "mallory", "pw").unwrap();

    sys.ops()
        .store(0, "/vice/v/secret", b"rotate the keys".to_vec())
        .unwrap();
    assert!(sys.ops().fetch(1, "/vice/v/secret").is_ok()); // now cached at ws 1

    let mut denied = acl;
    denied.deny("mallory", Rights::ALL);
    sys.ops().set_acl(0, "/vice/v", denied).unwrap();

    assert!(matches!(
        sys.ops().fetch(1, "/vice/v/secret"),
        Err(SystemError::Venus(VenusError::Vice(
            ViceError::PermissionDenied(_)
        )))
    ));
}

#[test]
fn negative_rights_override_group_grants() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(1, 2));
    sys.add_user("admin", "pw").unwrap();
    sys.add_user("eve", "pw").unwrap();
    sys.add_group("everyone").unwrap();
    sys.add_member("everyone", "eve").unwrap();

    let mut acl = AccessList::new();
    acl.grant("admin", Rights::ALL);
    acl.grant("everyone", Rights::ALL.minus(Rights::ADMINISTER));
    acl.deny("eve", Rights::WRITE | Rights::INSERT | Rights::DELETE);
    sys.create_volume("w", "/vice/w", ServerId(0), acl).unwrap();
    sys.login(0, "admin", "pw").unwrap();
    sys.login(1, "eve", "pw").unwrap();
    sys.ops()
        .store(0, "/vice/w/board", b"notes".to_vec())
        .unwrap();

    // Eve reads (positive via group) but cannot write (negative wins).
    assert!(sys.ops().fetch(1, "/vice/w/board").is_ok());
    assert!(sys.ops().store(1, "/vice/w/board", b"x".to_vec()).is_err());
    assert!(sys.ops().store(1, "/vice/w/new", b"x".to_vec()).is_err());
}

#[test]
fn channel_tampering_and_replay_rejected_at_the_crypto_layer() {
    let key = derive_key("pw", "u");

    // Tamper with a sealed store request.
    let (mut c, mut s) = channel::pair(key);
    let mut sealed = c.seal_msg(b"Store /vice/x 9999 bytes follow");
    sealed[10] ^= 0x20;
    assert!(s.open_msg(&sealed).is_err());

    // Replay an intact one (fresh connection: the tampered message above
    // consumed a sequence number on the sender side).
    let (mut c, mut s) = channel::pair(key);
    let sealed = c.seal_msg(b"Remove /vice/x");
    s.open_msg(&sealed).unwrap();
    assert!(s.open_msg(&sealed).is_err());
}

#[test]
fn eavesdropper_learns_nothing_without_the_key() {
    let key = derive_key("pw", "u");
    let secret = b"the location database changes relatively slowly";
    let sealed = mode::seal(key, 99, secret);
    // The plaintext does not appear in the ciphertext.
    assert!(!sealed
        .windows(secret.len().min(8))
        .any(|w| w == &secret[..8.min(secret.len())]));
    // And a brute-force neighbor key fails.
    let near_key = derive_key("pw ", "u");
    assert!(mode::open(near_key, &sealed).is_err());
}

#[test]
fn session_keys_differ_per_connection() {
    let k = derive_key("pw", "u");
    let run = |n1, n2| {
        let (ch, m1) = handshake::ClientHandshake::initiate(k, n1);
        let (sh, m2) = handshake::ServerHandshake::respond(k, &m1, n2).unwrap();
        let (sk, m3) = ch.complete(&m2).unwrap();
        sh.finish(&m3).unwrap();
        sk
    };
    assert_ne!(run(1, 2), run(3, 4));
}
