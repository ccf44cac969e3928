//! E9 — read-only replication of system binaries.
//!
//! Paper (Sections 3.2, 4): frequently-read, rarely-written subtrees "may
//! be replicated ... to enhance availability and to improve performance by
//! balancing server loads"; replication enables "system programs to be
//! fetched from the nearest cluster server rather than its custodian".

use crate::report::{secs, Report, Scale};
use itc_core::proto::ServerId;
use itc_core::{ItcSystem, SystemConfig};
use itc_sim::SimTime;

/// Cold-cache "morning login storm": every workstation in every cluster
/// reads every system binary. Returns (mean per-ws elapsed, per-server
/// fetch counts).
fn storm(replicated: bool, scale: Scale) -> (SimTime, Vec<u64>) {
    let (clusters, ws_per, binaries) = match scale {
        Scale::Quick => (3u32, 3u32, 6usize),
        Scale::Full => (4u32, 8u32, 15usize),
    };
    let mut sys = ItcSystem::build(SystemConfig::prototype(clusters, ws_per));
    let mut paths = Vec::new();
    for i in 0..binaries {
        let p = format!("/vice/unix/sun/bin/prog{i:02}");
        sys.admin_install_file(&p, vec![0x7f; 60_000])
            .expect("install");
        paths.push(p);
    }
    if replicated {
        let sites: Vec<ServerId> = (0..clusters).map(ServerId).collect();
        sys.replicate_readonly("/vice", &sites).expect("replicate");
    }

    let mut total = SimTime::ZERO;
    let mut n = 0u64;
    for ws in 0..sys.workstation_count() {
        let user = format!("u{ws}");
        sys.add_user(&user, "pw").expect("fresh");
        sys.login(ws, &user, "pw").expect("fresh");
        let t0 = sys.ws_time(ws);
        for p in &paths {
            sys.ops().fetch(ws, p).expect("binary readable");
        }
        total += sys.ws_time(ws) - t0;
        n += 1;
    }
    let per_server = (0..clusters)
        .map(|s| sys.server(ServerId(s)).stats().calls_of("fetch"))
        .collect();
    (total / n, per_server)
}

/// Compares the storm with and without read-only replicas.
pub fn run(scale: Scale) -> Report {
    let (lat_off, fetches_off) = storm(false, scale);
    let (lat_on, fetches_on) = storm(true, scale);

    let mut r = Report::new(
        "e9",
        "Read-only replication of system binaries",
        "replicas balance server load and let clients fetch from the nearest cluster server",
    )
    .headers(vec![
        "configuration",
        "mean time per workstation",
        "custodian fetches",
        "max other-server fetches",
    ]);
    let fmt = |lat: SimTime, fetches: &[u64]| {
        vec![
            String::new(), // placeholder replaced by caller
            secs(lat),
            fetches[0].to_string(),
            fetches[1..].iter().max().copied().unwrap_or(0).to_string(),
        ]
    };
    let mut row_off = fmt(lat_off, &fetches_off);
    row_off[0] = "no replicas".to_string();
    let mut row_on = fmt(lat_on, &fetches_on);
    row_on[0] = "replicated".to_string();
    r.row(row_off);
    r.row(row_on);
    r.note(format!(
        "replication spreads fetches {:?} -> {:?} and cuts mean cold-start time by {:.0}%",
        fetches_off,
        fetches_on,
        (1.0 - lat_on.as_secs_f64() / lat_off.as_secs_f64()) * 100.0
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_balance_load_and_reduce_latency() {
        let (lat_off, f_off) = storm(false, Scale::Quick);
        let (lat_on, f_on) = storm(true, Scale::Quick);
        // Without replicas, every fetch lands on the custodian (server 0).
        assert!(f_off[0] > 0);
        assert_eq!(f_off[1..].iter().sum::<u64>(), 0);
        // With replicas, each cluster's server takes its own share.
        assert!(f_on[1] > 0 && f_on[2] > 0, "{f_on:?}");
        assert!(f_on[0] < f_off[0]);
        // And remote clusters see faster cold starts.
        assert!(lat_on < lat_off, "{lat_on} vs {lat_off}");
    }
}
