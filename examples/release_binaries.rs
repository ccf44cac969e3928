//! Releasing system software with read-only replication.
//!
//! Section 3.2: "the creation of a read-only subtree is an atomic
//! operation, thus providing a convenient mechanism to support the orderly
//! release of new system software." System binaries are cloned and
//! replicated to every cluster; workstations fetch them from their nearest
//! server; a new release refreshes every replica atomically.
//!
//! ```text
//! cargo run --example release_binaries
//! ```

use itc_afs::core::config::SystemConfig;
use itc_afs::core::proto::ServerId;
use itc_afs::core::system::ItcSystem;

fn main() {
    // Three clusters; the master copy of the system software lives on
    // server 0.
    let mut sys = ItcSystem::build(SystemConfig::small_campus(3, 2));
    sys.add_user("ops", "pw").unwrap();
    sys.admin_install_file("/vice/unix/sun/bin/emacs", b"emacs 17.64".to_vec())
        .unwrap();

    // Release 1: clone and replicate to every cluster.
    let everywhere: Vec<ServerId> = (0..3).map(ServerId).collect();
    sys.replicate_readonly("/vice", &everywhere).unwrap();
    println!("release 1 replicated to {} clusters", everywhere.len());

    // A workstation in cluster 2 fetches emacs — from its own cluster's
    // replica, not from the custodian across the backbone.
    let ws = sys.workstation_in_cluster(2);
    sys.login(ws, "ops", "pw").unwrap();
    let v1 = sys.ops().fetch(ws, "/vice/unix/sun/bin/emacs").unwrap();
    println!(
        "cluster-2 workstation runs {:?}; fetches served by server2: {}, by custodian: {}",
        String::from_utf8_lossy(&v1),
        sys.server(ServerId(2)).stats().calls_of("fetch"),
        sys.server(ServerId(0)).stats().calls_of("fetch"),
    );

    // Cached copies from read-only subtrees "can never be invalid": warm
    // opens cost nothing at all.
    let calls_before = sys.metrics().total_calls();
    let _ = sys.ops().fetch(ws, "/vice/unix/sun/bin/emacs").unwrap();
    println!(
        "warm open of a read-only binary made {} server calls",
        sys.metrics().total_calls() - calls_before
    );

    // The operator installs a new emacs in the master subtree. Replicas
    // still serve release 1 — updates to the master are invisible until
    // the next release is cut.
    sys.admin_install_file("/vice/unix/sun/bin/emacs", b"emacs 18.41".to_vec())
        .unwrap();
    let still_v1 = sys.ops().fetch(ws, "/vice/unix/sun/bin/emacs").unwrap();
    println!(
        "before re-release, cluster 2 still sees {:?}",
        String::from_utf8_lossy(&still_v1)
    );

    // Release 2: one atomic refresh of every replica.
    sys.replicate_readonly("/vice", &everywhere).unwrap();
    // The workstation's cached copy belongs to the old clone; a fresh
    // workstation (or an expired cache) picks up the new release.
    let ws_fresh = sys.workstation_in_cluster(1);
    sys.login(ws_fresh, "ops", "pw").unwrap();
    let v2 = sys
        .ops()
        .fetch(ws_fresh, "/vice/unix/sun/bin/emacs")
        .unwrap();
    println!(
        "after re-release, a fresh workstation sees {:?}",
        String::from_utf8_lossy(&v2)
    );
    assert_eq!(v2, b"emacs 18.41");
}
