//! E12 — revocation: negative rights vs group removal.
//!
//! Paper (Sections 3.4, 4): "Because of the distributed nature of the
//! system and the recursive membership of groups, [removing a user from
//! all groups] may be unacceptably slow in emergencies. We therefore
//! support the concept of Negative Rights. ... Vice provides rapid
//! revocation by modifications to an access list at a single site rather
//! than by changes to a replicated protection database."

use crate::report::{Report, Scale};
use itc_core::protect::{AccessList, Rights};
use itc_core::{ItcSystem, SystemConfig};
use itc_sim::SimTime;

/// Measures both revocation paths on a system of `clusters` servers.
/// Returns (negative-rights latency, group-removal latency).
fn revoke_latencies(clusters: u32) -> (SimTime, SimTime) {
    let mut sys = ItcSystem::build(SystemConfig::prototype(clusters, 1));
    sys.add_user("admin", "pw").expect("fresh");
    sys.add_user("mallory", "pw").expect("fresh");
    sys.add_group("staff").expect("fresh");
    sys.add_member("staff", "mallory").expect("fresh");

    let mut acl = AccessList::new();
    acl.grant("admin", Rights::ALL);
    acl.grant(
        "staff",
        Rights::READ | Rights::WRITE | Rights::INSERT | Rights::LOOKUP,
    );
    sys.create_volume(
        "proj",
        "/vice/proj",
        itc_core::proto::ServerId(0),
        acl.clone(),
    )
    .expect("fresh");
    sys.login(0, "admin", "pw").expect("login");

    // Path A: negative rights — one SetAcl call to the single custodian.
    let t0 = sys.ws_time(0);
    let mut denied = acl.clone();
    denied.deny("mallory", Rights::ALL);
    sys.ops().set_acl(0, "/vice/proj", denied).expect("set acl");
    let negative = sys.ws_time(0) - t0;

    // Path B: strip mallory from every group — must reach every replica
    // of the protection database.
    let t1 = sys.now();
    let done = sys.revoke_via_groups("mallory");
    let group = done - t1;
    (negative, group)
}

/// Sweeps the number of replica sites.
pub fn run(scale: Scale) -> Report {
    let sweeps: &[u32] = match scale {
        Scale::Quick => &[1, 4, 16],
        Scale::Full => &[1, 4, 16, 50, 100],
    };
    let mut r = Report::new(
        "e12",
        "Revocation latency: negative rights vs replicated group removal",
        "negative rights revoke at one site immediately; group removal updates every replica",
    )
    .headers(vec!["servers", "negative rights (s)", "group removal (s)"]);
    for &n in sweeps {
        let (neg, grp) = revoke_latencies(n);
        r.row(vec![
            n.to_string(),
            format!("{:.3}", neg.as_secs_f64()),
            format!("{:.3}", grp.as_secs_f64()),
        ]);
    }
    r.note(
        "negative-rights latency is flat in the number of servers; group removal grows with \
         replication fan-out — the paper's 'rapid revocation mechanism' rationale"
            .to_string(),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negative_rights_are_flat_group_removal_grows() {
        let (neg1, grp1) = revoke_latencies(1);
        let (neg16, grp16) = revoke_latencies(16);
        // Negative rights do not get slower with more servers.
        let tolerance = SimTime::from_millis(50);
        assert!(neg16 <= neg1 + tolerance, "negative: {neg1} -> {neg16}");
        // Group removal does.
        assert!(grp16 > grp1, "group: {grp1} -> {grp16}");
        // Both actually revoke (verified functionally in the core tests).
    }

    #[test]
    fn revocation_actually_blocks_access() {
        let mut sys = ItcSystem::build(SystemConfig::prototype(1, 2));
        sys.add_user("admin", "pw").unwrap();
        sys.add_user("mallory", "pw").unwrap();
        sys.add_group("staff").unwrap();
        sys.add_member("staff", "mallory").unwrap();
        let mut acl = AccessList::new();
        acl.grant("admin", Rights::ALL);
        acl.grant(
            "staff",
            Rights::READ | Rights::WRITE | Rights::INSERT | Rights::LOOKUP,
        );
        sys.create_volume(
            "proj",
            "/vice/proj",
            itc_core::proto::ServerId(0),
            acl.clone(),
        )
        .unwrap();
        sys.login(0, "admin", "pw").unwrap();
        sys.login(1, "mallory", "pw").unwrap();
        sys.ops().store(1, "/vice/proj/f", b"ok".to_vec()).unwrap();

        let mut denied = acl;
        denied.deny("mallory", Rights::ALL);
        sys.ops().set_acl(0, "/vice/proj", denied).unwrap();
        assert!(sys
            .ops()
            .store(1, "/vice/proj/f", b"blocked".to_vec())
            .is_err());
        assert!(sys.ops().fetch(1, "/vice/proj/f").is_err());
    }
}
