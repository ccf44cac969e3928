//! Scenario 2: a software-release push.
//!
//! Operations installs a new build of the system binaries into the
//! writable master subtree and re-clones it to the read-only replicas at
//! every cluster server (Section 5.3's answer to system software
//! distribution). Every workstation then revalidates its cached binaries
//! inside a tight window: each cached copy checks stale and is re-fetched
//! from the *nearest replica*, so the storm load splits across clusters
//! instead of piling onto one custodian. The claim: the push is survivable
//! — zero failures, the load shows up as CPU queueing spread over all
//! replica servers, and the saturated minute freezes a `utilization_peak`
//! dump.

use super::{run_scripts, scripts, ScenarioReport, SharedCounts};
use itc_core::proto::ServerId;
use itc_core::system::parallel::{ClusterMask, RunMode};
use itc_core::system::{ItcSystem, SystemError};
use itc_core::SystemConfig;
use itc_sim::{SimRng, SimTime};

/// Parameters of the release push.
#[derive(Debug, Clone)]
pub struct ReleasePushConfig {
    /// Clusters (one server each; every server gets a read-only replica).
    pub clusters: u32,
    /// Workstations per cluster.
    pub ws_per_cluster: u32,
    /// Binaries in the release.
    pub binaries: usize,
    /// Bytes per binary.
    pub binary_bytes: usize,
    /// Revalidation window after the push lands.
    pub window: SimTime,
    /// Workload seed.
    pub seed: u64,
}

impl ReleasePushConfig {
    /// The CI-sized variant: two clusters, 16 machines each, a ten-binary
    /// release.
    pub fn small() -> ReleasePushConfig {
        ReleasePushConfig {
            clusters: 2,
            ws_per_cluster: 16,
            binaries: 10,
            binary_bytes: 40_000,
            window: SimTime::from_secs(60),
            seed: 0x9e1ea5e,
        }
    }

    /// The experiment-sized variant.
    pub fn full() -> ReleasePushConfig {
        ReleasePushConfig {
            clusters: 3,
            ws_per_cluster: 32,
            ..ReleasePushConfig::small()
        }
    }
}

/// Runs the release push; returns the system and the report.
pub fn run(cfg: &ReleasePushConfig) -> Result<(ItcSystem, ScenarioReport), SystemError> {
    let mut sc = SystemConfig::prototype(cfg.clusters, cfg.ws_per_cluster);
    sc.tracing = true;
    sc.seed = cfg.seed;
    let mut sys = ItcSystem::build(sc);

    let n = (cfg.clusters * cfg.ws_per_cluster) as usize;
    let sites: Vec<ServerId> = (0..cfg.clusters).map(ServerId).collect();
    let bin_path = |i: usize| format!("/vice/unix/sun/bin/prog{i:02}");

    // Old build, replicated read-only everywhere.
    for i in 0..cfg.binaries {
        sys.admin_install_file(&bin_path(i), vec![0x7f; cfg.binary_bytes])?;
    }
    sys.replicate_readonly("/vice", &sites)?;
    for ws in 0..n {
        let name = format!("u{ws:03}");
        sys.add_user(&name, &format!("pw-{name}"))?;
    }

    // Warm phase: everyone logs in and pulls the old binaries, spread over
    // a few minutes so warm traffic does not collide with the storm.
    let mut rng = SimRng::seeded(cfg.seed);
    for ws in 0..n {
        let offset = SimTime::from_micros(rng.range(0, SimTime::from_secs(120).as_micros()));
        sys.ops().advance_ws(ws, offset);
    }
    let all = ClusterMask::all(cfg.clusters as usize);
    let counts = SharedCounts::default();
    let mut warm = scripts(&sys, &counts);
    for (ws, d) in warm.iter_mut().enumerate() {
        let name = format!("u{ws:03}");
        d.push(all, move |ops| ops.login(ws, &name, &format!("pw-{name}")));
        for i in 0..cfg.binaries {
            let path = bin_path(i);
            d.push(all, move |ops| ops.fetch(ws, &path).map(drop));
        }
    }
    run_scripts(&mut sys, warm, RunMode::Sequential)?;

    // The push: new build into the writable master, then re-clone to the
    // replicas. Administrative, so it costs server disk, not client calls.
    for i in 0..cfg.binaries {
        sys.admin_install_file(&bin_path(i), vec![0x80; cfg.binary_bytes])?;
    }
    sys.replicate_readonly("/vice", &sites)?;

    // Revalidation storm: every workstation re-opens every binary inside
    // the window, starting at the next utilization-bucket boundary after
    // the slowest warm client.
    let bucket = 60_000_000u64;
    let slowest = (0..n)
        .map(|ws| sys.ws_time(ws).as_micros())
        .max()
        .unwrap_or(0);
    let storm_start = SimTime::from_micros((slowest / bucket + 2) * bucket);
    for ws in 0..n {
        let offset = SimTime::from_micros(rng.range(0, cfg.window.as_micros()));
        let at = storm_start + offset;
        if sys.ws_time(ws) < at {
            sys.ops().advance_ws(ws, at);
        }
    }
    let mut storm = scripts(&sys, &counts);
    for (ws, d) in storm.iter_mut().enumerate() {
        for i in 0..cfg.binaries {
            let path = bin_path(i);
            d.push(all, move |ops| ops.fetch(ws, &path).map(drop));
        }
    }
    run_scripts(&mut sys, storm, RunMode::Sequential)?;

    let report = ScenarioReport::collect("release_push", cfg.seed, &sys, &counts);
    Ok((sys, report))
}
