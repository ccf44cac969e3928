//! Scenario 5: a silent-corruption storm under live read traffic.
//!
//! Bit-rot is the quiet counterpart of the loud storms: no machine goes
//! down and no message is lost, yet bytes on a custodian's disk stop
//! being the bytes that were committed. The storm installs a
//! corruption-only [`FaultPlan`] — seeded flips landing across both
//! servers' durable address space (journal bodies, checkpoint images,
//! Merkle leaf tables) — while clients keep fetching and storing, and the
//! background scrubber rotates over the volumes on its own calendar.
//!
//! The defense measured here is the end-to-end integrity subsystem:
//! per-volume Merkle trees catch checkpoint damage at scrub (or fetch)
//! time, repair re-fetches vouched bytes from the read-only clone
//! replica, unvouchable volumes go offline with an `integrity_fault`
//! anomaly, and the salvager's per-record trailer verification rejects
//! damaged journal suffixes at the closing restart. The report's headline
//! is the corruption ledger: **every injected flip ends the run
//! detected** — repaired, offlined, or rejected — never silently served.
//!
//! The plan couples no clusters (flips are cluster-local), so the storm
//! also exercises the narrow-mask path: a parallel run of the same
//! workload stays parallel.

use super::{run_scripts, scripts, ScenarioReport, SharedCounts};
use itc_core::protect::{AccessList, Rights};
use itc_core::proto::ServerId;
use itc_core::system::parallel::{ClusterMask, RunMode};
use itc_core::system::{ItcSystem, SystemError};
use itc_core::SystemConfig;
use itc_sim::{FaultPlan, SimRng, SimTime};

/// Parameters of the corruption storm.
#[derive(Debug, Clone)]
pub struct CorruptionStormConfig {
    /// Workstations per cluster (two clusters).
    pub workstations: u32,
    /// Shared files installed in the replicated project volume.
    pub files: u32,
    /// Byte flips scheduled across the storm window, alternating servers.
    pub flips: u32,
    /// Storm window the flips are spread over.
    pub window: SimTime,
    /// Scrubber rotation interval.
    pub scrub_interval: SimTime,
    /// Workload seed.
    pub seed: u64,
}

impl CorruptionStormConfig {
    /// The CI-sized variant: two clusters of 8, a dozen flips over five
    /// minutes, 30-second scrub rotation.
    pub fn small() -> CorruptionStormConfig {
        CorruptionStormConfig {
            workstations: 8,
            files: 16,
            flips: 12,
            window: SimTime::from_secs(300),
            scrub_interval: SimTime::from_secs(30),
            seed: 0xb17f,
        }
    }

    /// The experiment-sized variant.
    pub fn full() -> CorruptionStormConfig {
        CorruptionStormConfig {
            workstations: 16,
            files: 48,
            flips: 64,
            window: SimTime::from_secs(900),
            ..CorruptionStormConfig::small()
        }
    }
}

/// Runs the corruption storm; returns the system and the report. The
/// caller can interrogate `sys.integrity_counters()` for the ledger the
/// run leaves behind (the acceptance gate asserts `latent == 0`).
pub fn run(cfg: &CorruptionStormConfig) -> Result<(ItcSystem, ScenarioReport), SystemError> {
    let mut sc = SystemConfig::revised(2, cfg.workstations);
    sc.seed = cfg.seed;
    let mut sys = ItcSystem::build(sc);
    sys.enable_tracing();

    let n = 2 * cfg.workstations as usize;

    // A shared project volume on server 0, read-only replicated to server
    // 1 (the voucher the repair path re-fetches from). Replication also
    // refreshes the source checkpoint, so the flips have populated images
    // and leaf tables to land in — not just journal bytes.
    let mut acl = AccessList::new();
    acl.grant("anyuser", Rights::ALL);
    sys.create_volume("proj", "/vice/proj", ServerId(0), acl)?;
    for f in 0..cfg.files {
        sys.admin_install_file(&format!("/vice/proj/src/f{f:03}.c"), vec![b'a'; 24_000])?;
    }
    // Scratch directory for the storm's stores (stores keep fresh journal
    // records inside the flippable extent).
    sys.admin_install_file("/vice/proj/tmp/.keep", vec![b'k'; 16])?;
    sys.replicate_readonly("/vice/proj", &[ServerId(1)])?;

    // Warm phase: stagger arrivals, log everyone in, prime one fetch each.
    let mut rng = SimRng::seeded(cfg.seed);
    for ws in 0..n {
        let offset = SimTime::from_micros(rng.range(0, SimTime::from_secs(60).as_micros()));
        sys.ops().advance_ws(ws, offset);
    }
    let all = ClusterMask::all(2);
    let counts = SharedCounts::default();
    let mut warm = scripts(&sys, &counts);
    for (ws, d) in warm.iter_mut().enumerate() {
        let name = format!("u{ws:03}");
        sys.add_user(&name, &format!("pw-{name}"))?;
        d.push(all, move |ops| ops.login(ws, &name, &format!("pw-{name}")));
        let path = format!("/vice/proj/src/f{:03}.c", ws as u32 % cfg.files);
        d.push(all, move |ops| ops.fetch(ws, &path).map(drop));
    }
    run_scripts(&mut sys, warm, RunMode::Sequential)?;

    // The corruption-only plan: flips alternate servers across the window.
    // No crashes, no message faults — the plan couples no clusters.
    let base = (0..n)
        .map(|ws| sys.ws_time(ws))
        .max()
        .unwrap_or(SimTime::ZERO);
    let mut plan = FaultPlan::new(cfg.seed ^ 0xf11b);
    for i in 0..cfg.flips {
        let at = base
            + SimTime::from_micros(
                10_000_000 + (i as u64 * cfg.window.as_micros()) / cfg.flips.max(1) as u64,
            );
        plan.schedule_corruption(i % 2, at);
    }
    sys.install_faults(plan);
    sys.enable_scrub(cfg.scrub_interval);

    // Storm traffic: everyone alternates fetches of the shared sources
    // with stores into their own scratch files (the stores keep journal
    // bytes in the flippable extent). Volume-offline failures are storm
    // casualties, not aborts.
    let mut storm = scripts(&sys, &counts);
    let rounds = 6u32;
    for (ws, d) in storm.iter_mut().enumerate() {
        for r in 0..rounds {
            let gap = SimTime::from_micros(rng.range(
                cfg.window.as_micros() / (2 * rounds as u64),
                cfg.window.as_micros() / rounds as u64,
            ));
            let fetch_path = format!(
                "/vice/proj/src/f{:03}.c",
                rng.range(0, cfg.files as u64) as u32
            );
            let store_path = format!("/vice/proj/tmp/w{ws:03}-r{r}.o");
            d.push(all, move |ops| {
                let at = ops.ws_time(ws) + gap;
                ops.advance_ws(ws, at);
                ops.fetch(ws, &fetch_path).map(drop)
            });
            d.push(all, move |ops| {
                ops.store(ws, &store_path, vec![b'o'; 4_000])
            });
        }
    }
    run_scripts(&mut sys, storm, RunMode::Sequential)?;

    // Drain: let the scrubber finish enough rotations to visit every
    // volume on both servers after the last flip.
    let drain_end = sys.now() + cfg.window + SimTime::from_secs(600);
    for ws in 0..n {
        sys.ops().advance_ws(ws, drain_end);
    }
    sys.run_fault_schedule();

    // Closing audit: an operator restart of both servers forces a salvage
    // pass, whose per-record trailer verification rejects any journal
    // suffix the flips damaged — the last latent corruptions become
    // detected here.
    for s in 0..2 {
        sys.crash_server(ServerId(s));
        sys.restart_server(ServerId(s));
    }

    let report = ScenarioReport::collect("corruption_storm", cfg.seed, &sys, &counts);
    Ok((sys, report))
}
