//! E17 — monitoring-driven custodian rebalancing.
//!
//! Paper (Sections 3.1, 3.6): monitoring tools should "recognize long-term
//! changes in user access patterns and help reassign users to cluster
//! servers so as to balance server loads and reduce cross-cluster
//! traffic"; the actual reassignment remains a human-initiated volume
//! move.
//!
//! Scenario: half the population has moved offices (their workstations are
//! in cluster 1) but their volumes still live on server 0 — the
//! student-changes-dormitory situation of Section 3.1. The monitor detects
//! the misplacement; the operator applies the recommended moves; the same
//! workload then runs with less cross-cluster traffic and better balance.

use crate::report::{pct, Report, Scale};
use itc_core::proto::ServerId;
use itc_core::{ItcSystem, SystemConfig};

struct Epoch {
    cross_fraction: f64,
    server0_calls: u64,
    server1_calls: u64,
    mean_latency: f64,
}

fn run_epoch(sys: &mut ItcSystem, users: &[(String, usize)], rounds: usize) -> Epoch {
    sys.reset_monitoring();
    let s0_before = sys.server(ServerId(0)).stats().total_calls();
    let s1_before = sys.server(ServerId(1)).stats().total_calls();
    for _ in 0..rounds {
        for (user, ws) in users {
            for i in 0..3 {
                let p = format!("/vice/usr/{user}/f{i}");
                let _ = sys.ops().fetch(*ws, &p).unwrap();
            }
            let p = format!("/vice/usr/{user}/f0");
            let mut d = sys.ops().fetch(*ws, &p).unwrap();
            d.push(b'.');
            sys.ops().store(*ws, &p, d).unwrap();
        }
    }
    Epoch {
        cross_fraction: sys.cross_cluster_fraction(),
        server0_calls: sys.server(ServerId(0)).stats().total_calls() - s0_before,
        server1_calls: sys.server(ServerId(1)).stats().total_calls() - s1_before,
        mean_latency: sys.server(ServerId(0)).stats().mean_latency_secs(),
    }
}

/// Runs the misplaced-population scenario, applies the recommendations,
/// and re-measures.
pub fn run(scale: Scale) -> Report {
    let (users_per_cluster, rounds) = match scale {
        Scale::Quick => (2usize, 4usize),
        Scale::Full => (6, 10),
    };
    let mut sys = ItcSystem::build(SystemConfig::prototype(2, users_per_cluster as u32 * 2));
    sys.enable_monitoring();

    // Everyone's volume starts on server 0; half the users actually sit in
    // cluster 1.
    let mut users = Vec::new();
    for c in 0..2u32 {
        for i in 0..users_per_cluster {
            let name = format!("u{c}{i}");
            sys.add_user(&name, "pw").unwrap();
            sys.create_user_volume(&name, 0).unwrap();
            for f in 0..3 {
                sys.admin_install_file(&format!("/vice/usr/{name}/f{f}"), vec![7; 25_000])
                    .unwrap();
            }
            let ws = sys.workstations_in_cluster(c)[i];
            sys.login(ws, &name, "pw").unwrap();
            users.push((name, ws));
        }
    }

    let before = run_epoch(&mut sys, &users, rounds);
    let recs = sys.rebalancing_recommendations();
    let n_moves = recs.len();
    for rec in &recs {
        sys.move_volume(&rec.subtree, rec.to).unwrap();
    }
    let after = run_epoch(&mut sys, &users, rounds);

    let mut r = Report::new(
        "e17",
        "Monitoring-driven rebalancing of user volumes",
        "monitoring recommends reassignments that balance server loads and reduce cross-cluster traffic",
    )
    .headers(vec![
        "epoch",
        "cross-cluster calls",
        "server0 calls",
        "server1 calls",
    ]);
    r.row(vec![
        "before rebalancing".to_string(),
        pct(before.cross_fraction),
        before.server0_calls.to_string(),
        before.server1_calls.to_string(),
    ]);
    r.row(vec![
        "after rebalancing".to_string(),
        pct(after.cross_fraction),
        after.server0_calls.to_string(),
        after.server1_calls.to_string(),
    ]);
    r.note(format!(
        "the monitor recommended {} volume moves; cross-cluster traffic fell from {} to {} \
         and the load spread across both servers",
        n_moves,
        pct(before.cross_fraction),
        pct(after.cross_fraction),
    ));
    let _ = (before.mean_latency, after.mean_latency);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebalancing_reduces_cross_cluster_traffic_and_balances_load() {
        let r = run(Scale::Quick);
        let cross_before = r.cell_f64("before rebalancing", 1).unwrap();
        let cross_after = r.cell_f64("after rebalancing", 1).unwrap();
        assert!(
            cross_after < cross_before / 2.0,
            "cross-cluster: {cross_before}% -> {cross_after}%"
        );
        // Load was all on server 0 before; spread afterwards.
        let s1_before = r.cell_f64("before rebalancing", 3).unwrap();
        let s1_after = r.cell_f64("after rebalancing", 3).unwrap();
        assert!(s1_after > s1_before);
    }
}
