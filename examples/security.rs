//! Security walkthrough: the Section 3.4 mechanisms, end to end.
//!
//! Workstations are never trusted. This example shows what each layer
//! refuses: bad passwords at the handshake, tampered ciphertext at the
//! channel, identity claims inside requests at the server, and revoked
//! users at the access list — including the negative-rights rapid
//! revocation path.
//!
//! ```text
//! cargo run --example security
//! ```

use itc_afs::core::config::SystemConfig;
use itc_afs::core::protect::{AccessList, Rights};
use itc_afs::core::proto::ServerId;
use itc_afs::core::system::ItcSystem;
use itc_afs::cryptbox::{channel, derive_key, handshake, mode};

fn main() {
    // --- Layer 1: the cipher and channel ---------------------------------
    let key = derive_key("users-password", "alice");
    let sealed = mode::seal(key, 1, b"Fetch /vice/usr/alice/grades");
    let mut tampered = sealed.clone();
    tampered[20] ^= 0x01;
    println!(
        "tampered ciphertext rejected: {}",
        mode::open(key, &tampered).is_err()
    );

    // Replay across a channel is caught by sequence numbers.
    let (mut client, mut server) = channel::pair(key);
    let msg = client.seal_msg(b"StoreFile /vice/usr/alice/thesis");
    server.open_msg(&msg).unwrap();
    println!(
        "replayed message rejected: {}",
        server.open_msg(&msg).is_err()
    );

    // --- Layer 2: mutual authentication ----------------------------------
    // An impostor server that does not know alice's key cannot answer her
    // challenge.
    let alice = derive_key("users-password", "alice");
    let impostor = derive_key("a-guess", "alice");
    let (hs, m1) = handshake::ClientHandshake::initiate(alice, 42);
    let reply_result = handshake::ServerHandshake::respond(impostor, &m1, 43);
    println!("impostor server rejected: {}", reply_result.is_err());
    let _ = hs;

    // --- Layer 3: the full system ----------------------------------------
    let mut sys = ItcSystem::build(SystemConfig::small_campus(1, 3));
    sys.add_user("alice", "users-password").unwrap();
    sys.add_user("mallory", "1337").unwrap();
    sys.add_group("team").unwrap();
    sys.add_member("team", "mallory").unwrap();

    // A project volume: alice administers, the team may read and write.
    let mut acl = AccessList::new();
    acl.grant("alice", Rights::ALL);
    acl.grant(
        "team",
        Rights::READ | Rights::WRITE | Rights::INSERT | Rights::LOOKUP,
    );
    sys.create_volume("proj", "/vice/proj", ServerId(0), acl.clone())
        .unwrap();

    println!(
        "login with wrong password fails: {}",
        sys.login(0, "alice", "not-her-password").is_err()
    );
    sys.login(0, "alice", "users-password").unwrap();
    sys.login(1, "mallory", "1337").unwrap();

    sys.ops()
        .store(0, "/vice/proj/plan.txt", b"launch on thursday".to_vec())
        .unwrap();
    println!(
        "team member can read: {}",
        sys.ops().fetch(1, "/vice/proj/plan.txt").is_ok()
    );

    // Mallory turns out to be untrustworthy. Removing him from every group
    // means updating the replicated protection database — slow. Negative
    // rights revoke at the single custodian, immediately.
    let mut revoked = acl;
    revoked.deny("mallory", Rights::ALL);
    sys.ops().set_acl(0, "/vice/proj", revoked).unwrap();
    println!(
        "after negative rights, mallory blocked from write: {}, read: {}, even via his cache: {}",
        sys.ops()
            .store(1, "/vice/proj/plan.txt", b"sabotage".to_vec())
            .is_err(),
        sys.ops().fetch(1, "/vice/proj/plan.txt").is_err(),
        // His cached copy exists, but check-on-open revalidation is also
        // protection-checked.
        sys.venus(1).cache().peek("/vice/proj/plan.txt").is_some(),
    );

    // Other team members are untouched.
    sys.add_user("bob", "pw").unwrap();
    sys.add_member("team", "bob").unwrap();
    sys.login(2, "bob", "pw").unwrap();
    println!(
        "bob still reads fine: {}",
        sys.ops().fetch(2, "/vice/proj/plan.txt").is_ok()
    );
}
