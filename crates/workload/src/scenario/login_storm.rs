//! Scenario 1: the Monday-9am login storm.
//!
//! Hundreds of cold-cache workstations authenticate and pull their
//! profile files inside one tight arrival window. Every login is a fresh
//! binding handshake and every profile read is a whole-file fetch, so the
//! cluster server's CPU — the paper's bottleneck resource — takes the
//! full brunt at once. The acceptance claim is that the storm *queues but
//! does not fail*: zero operation failures, latency inflated by CPU
//! queueing (not by retries), and the flight recorder freezing at least
//! one `utilization_peak` dump for the saturated minute.

use super::{run_scripts, scripts, ScenarioReport, SharedCounts};
use itc_core::system::parallel::{ClusterMask, RunMode};
use itc_core::system::{ItcSystem, SystemError};
use itc_core::SystemConfig;
use itc_sim::{SimRng, SimTime};

/// Parameters of the login storm.
#[derive(Debug, Clone)]
pub struct LoginStormConfig {
    /// Clusters (one server each).
    pub clusters: u32,
    /// Workstations per cluster, all of which log in during the window.
    pub ws_per_cluster: u32,
    /// Profile files fetched by each user right after login.
    pub profile_files: usize,
    /// Bytes per profile file.
    pub profile_bytes: usize,
    /// Arrival window within which every login lands.
    pub window: SimTime,
    /// Storm start (bucket-aligned so the saturated minute is a whole
    /// utilization bucket; provisioning happens before this).
    pub start: SimTime,
    /// Workload seed.
    pub seed: u64,
}

impl LoginStormConfig {
    /// The CI-sized variant: one cluster, 32 workstations, one-minute
    /// arrival window. Offered CPU work is ~2.3x the window, so the
    /// server saturates for over two full one-minute buckets.
    pub fn small() -> LoginStormConfig {
        LoginStormConfig {
            clusters: 1,
            ws_per_cluster: 32,
            profile_files: 4,
            profile_bytes: 24_000,
            window: SimTime::from_secs(60),
            start: SimTime::from_secs(120),
            seed: 0x1091,
        }
    }

    /// The experiment-sized variant: two clusters, 64 machines each.
    pub fn full() -> LoginStormConfig {
        LoginStormConfig {
            clusters: 2,
            ws_per_cluster: 64,
            window: SimTime::from_secs(120),
            ..LoginStormConfig::small()
        }
    }

    /// The parallel-determinism-gate variant: four clusters so the PDES
    /// engine has real concurrency to exploit, small enough for CI.
    pub fn parallel() -> LoginStormConfig {
        LoginStormConfig {
            clusters: 4,
            ws_per_cluster: 8,
            ..LoginStormConfig::small()
        }
    }
}

/// Runs the login storm on the sequential reference schedule; returns the
/// system (for further inspection) and the deterministic report.
pub fn run(cfg: &LoginStormConfig) -> Result<(ItcSystem, ScenarioReport), SystemError> {
    run_mode(cfg, RunMode::Sequential)
}

/// The login storm under either executor, with a bit-identical report.
/// Every op of workstation `ws` — the login handshake and the profile
/// fetches — touches only `ws`'s own cluster, so the per-cluster masks are
/// singletons and clusters storm concurrently under `Parallel(n)`.
pub fn run_mode(
    cfg: &LoginStormConfig,
    mode: RunMode,
) -> Result<(ItcSystem, ScenarioReport), SystemError> {
    let mut sc = SystemConfig::prototype(cfg.clusters, cfg.ws_per_cluster);
    sc.tracing = true;
    sc.seed = cfg.seed;
    let mut sys = ItcSystem::build(sc);

    let n = (cfg.clusters * cfg.ws_per_cluster) as usize;
    let per_cluster = cfg.ws_per_cluster as usize;

    // Provisioning (virtual time zero, before the storm window): accounts,
    // home volumes, and the profile files the morning wave will pull.
    for ws in 0..n {
        let name = format!("u{ws:03}");
        let cluster = (ws / per_cluster) as u32;
        sys.add_user(&name, &format!("pw-{name}"))?;
        sys.create_user_volume(&name, cluster)?;
        for f in 0..cfg.profile_files {
            sys.admin_install_file(
                &format!("/vice/usr/{name}/profile{f}"),
                vec![b'p'; cfg.profile_bytes],
            )?;
        }
    }

    // Seeded arrival offsets inside the window; every clock is advanced
    // before driving so execution order is virtual-arrival order.
    let mut rng = SimRng::seeded(cfg.seed);
    for ws in 0..n {
        let offset = SimTime::from_micros(rng.range(0, cfg.window.as_micros()));
        sys.ops().advance_ws(ws, cfg.start + offset);
    }

    let counts = SharedCounts::default();
    let mut storm = scripts(&sys, &counts);
    for (ws, d) in storm.iter_mut().enumerate() {
        let name = format!("u{ws:03}");
        let mask = ClusterMask::of(ws / per_cluster);
        let user = name.clone();
        d.push(mask, move |ops| ops.login(ws, &user, &format!("pw-{user}")));
        for f in 0..cfg.profile_files {
            let path = format!("/vice/usr/{name}/profile{f}");
            d.push(mask, move |ops| ops.fetch(ws, &path).map(drop));
        }
    }
    run_scripts(&mut sys, storm, mode)?;

    let report = ScenarioReport::collect("login_storm", cfg.seed, &sys, &counts);
    Ok((sys, report))
}
