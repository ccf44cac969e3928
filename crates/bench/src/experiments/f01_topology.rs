//! F1 — the Figure 2-2 topology: clusters, backbone, bridges.
//!
//! Paper (Section 2.3): "For optimal performance, Virtue should use the
//! server on its own cluster almost all the time, thereby making
//! cross-cluster file references relatively infrequent. Such an access
//! pattern balances server load and minimizes delays through the bridges."

use crate::report::{Report, Scale};
use itc_core::{ItcSystem, SystemConfig};
use itc_sim::SimTime;

/// Measures warm-cache validations and cold fetches intra- vs
/// cross-cluster.
pub fn run(_scale: Scale) -> Report {
    let mut sys = ItcSystem::build(SystemConfig::prototype(2, 2));
    sys.add_user("u", "pw").expect("fresh");
    // One file on the near server, one on the far server.
    sys.create_volume(
        "near",
        "/vice/near",
        itc_core::proto::ServerId(0),
        open_acl(),
    )
    .expect("fresh");
    sys.create_volume("far", "/vice/far", itc_core::proto::ServerId(1), open_acl())
        .expect("fresh");
    sys.admin_install_file("/vice/near/f", vec![1; 50_000])
        .expect("install");
    sys.admin_install_file("/vice/far/f", vec![1; 50_000])
        .expect("install");

    let ws = sys.workstation_in_cluster(0);
    sys.login(ws, "u", "pw").expect("login");

    let timed = |sys: &mut ItcSystem, path: &str| -> SimTime {
        let t0 = sys.ws_time(ws);
        sys.ops().fetch(ws, path).expect("readable");
        sys.ws_time(ws) - t0
    };

    let near_cold = timed(&mut sys, "/vice/near/f");
    let far_cold = timed(&mut sys, "/vice/far/f");
    let near_warm = timed(&mut sys, "/vice/near/f");
    let far_warm = timed(&mut sys, "/vice/far/f");

    let mut r = Report::new(
        "f1",
        "Cluster topology: intra- vs cross-cluster access (Figure 2-2)",
        "cross-cluster references pay two bridge hops each way; clustering keeps them rare",
    )
    .headers(vec!["access", "intra-cluster", "cross-cluster", "penalty"]);
    r.row(vec![
        "cold fetch (50 KB)".to_string(),
        ms(near_cold),
        ms(far_cold),
        format!(
            "+{:.0}ms",
            (far_cold.as_secs_f64() - near_cold.as_secs_f64()) * 1e3
        ),
    ]);
    r.row(vec![
        "warm open (validate)".to_string(),
        ms(near_warm),
        ms(far_warm),
        format!(
            "+{:.0}ms",
            (far_warm.as_secs_f64() - near_warm.as_secs_f64()) * 1e3
        ),
    ]);
    r.note(
        "the penalty is per-message bridge latency — noticeable on chatty warm-cache \
         validation, amortized on bulk transfer; caching makes cross-cluster access \
         infrequent, which is exactly why the design tolerates it"
            .to_string(),
    );
    r
}

fn ms(t: SimTime) -> String {
    format!("{:.0}ms", t.as_secs_f64() * 1e3)
}

fn open_acl() -> itc_core::protect::AccessList {
    let mut acl = itc_core::protect::AccessList::new();
    acl.grant(
        "anyuser",
        itc_core::protect::Rights::ALL.minus(itc_core::protect::Rights::ADMINISTER),
    );
    acl
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_cluster_pays_bridge_latency() {
        let r = run(Scale::Quick);
        let near_cold = r.cell_f64("cold fetch (50 KB)", 1).unwrap();
        let far_cold = r.cell_f64("cold fetch (50 KB)", 2).unwrap();
        assert!(far_cold > near_cold);
        let near_warm = r.cell_f64("warm open (validate)", 1).unwrap();
        let far_warm = r.cell_f64("warm open (validate)", 2).unwrap();
        assert!(far_warm > near_warm);
        // Warm access is far cheaper than cold in both topologies.
        assert!(near_warm < near_cold);
        assert!(far_warm < far_cold);
    }
}
