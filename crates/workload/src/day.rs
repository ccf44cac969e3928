//! A full working day on the system.
//!
//! Section 5.2's numbers are "averages over an 8-hour period in the middle
//! of a weekday" with "short-term resource utilizations ... much higher,
//! sometimes peaking at 98%". This module provisions a population of
//! users, runs them concurrently (interleaved in virtual time) for a
//! configurable number of hours, with a configurable midday surge, and
//! returns the measurement snapshot the experiments print.

use crate::driver::SessionDriver;
use crate::sizes::FileSizeModel;
use crate::user::{UserConfig, UserSession};
use itc_core::metrics::SystemMetrics;
use itc_core::system::parallel::{ClusterMask, RunMode, WsDriver};
use itc_core::system::{ItcSystem, SystemError};
use itc_core::SystemConfig;
use itc_sim::{SimRng, SimTime};

/// Parameters of the day simulation.
#[derive(Debug, Clone)]
pub struct DayConfig {
    /// Length of the observed day.
    pub duration: SimTime,
    /// Number of intense users (the rest are typical).
    pub intense_users: usize,
    /// Rate multiplier during the surge window.
    pub surge_multiplier: f64,
    /// Surge window (start, end) within the day.
    pub surge: (SimTime, SimTime),
    /// Number of shared system binaries to install.
    pub system_binaries: usize,
    /// Replicate the system subtree read-only to every cluster?
    pub replicate_binaries: bool,
    /// Seed for the workload.
    pub seed: u64,
}

impl Default for DayConfig {
    fn default() -> Self {
        DayConfig {
            duration: SimTime::from_hours(8),
            intense_users: 0,
            surge_multiplier: 3.0,
            surge: (SimTime::from_hours(3), SimTime::from_hours(4)),
            system_binaries: 12,
            replicate_binaries: false,
            seed: 1985,
        }
    }
}

impl DayConfig {
    /// A fast variant for tests: 30 virtual minutes.
    pub fn short() -> DayConfig {
        DayConfig {
            duration: SimTime::from_mins(30),
            surge: (SimTime::from_mins(10), SimTime::from_mins(20)),
            ..DayConfig::default()
        }
    }
}

/// Result of a day run.
#[derive(Debug)]
pub struct DayReport {
    /// Final measurement snapshot (utilizations computed over the day).
    pub metrics: SystemMetrics,
    /// Total user operations executed.
    pub ops: u64,
    /// The day length simulated.
    pub duration: SimTime,
}

/// Provisions one user per workstation and runs the day against a freshly
/// built system. Returns the system too so callers can inspect it further.
pub fn run_day(
    config: SystemConfig,
    day: &DayConfig,
) -> Result<(ItcSystem, DayReport), SystemError> {
    let mut sys = ItcSystem::build(config);
    let report = run_day_on(&mut sys, day)?;
    Ok((sys, report))
}

/// Provisions the day's population on a fresh system: shared system
/// binaries, one user per workstation (round-robin across clusters), and
/// the optional read-only replication of the system subtree.
fn provision_day(sys: &mut ItcSystem, day: &DayConfig) -> Result<Vec<UserSession>, SystemError> {
    let mut rng = SimRng::seeded(day.seed);
    let sizes = FileSizeModel::cmu_1984();

    // Shared system binaries for both architectures.
    let mut system_files = Vec::new();
    for i in 0..day.system_binaries {
        let size = sizes.sample(crate::sizes::FileClass::SystemBinary, &mut rng) as usize;
        for arch in ["sun", "vax"] {
            let p = format!("/vice/unix/{arch}/bin/prog{i:02}");
            sys.admin_install_file(&p, vec![0x7f; size])?;
        }
        // Users read via their own /bin symlink; sessions get the sun
        // paths and vax workstations resolve equivalently through /bin.
        system_files.push(format!("/bin/prog{i:02}"));
    }
    if day.replicate_binaries {
        let sites: Vec<_> = (0..sys.server_count() as u32)
            .map(itc_core::proto::ServerId)
            .collect();
        sys.replicate_readonly("/vice", &sites)?;
    }

    // One user per workstation, round-robin across clusters.
    let ws_count = sys.workstation_count();
    let per_cluster = sys.config().workstations_per_cluster;
    let mut sessions = Vec::with_capacity(ws_count);
    for ws in 0..ws_count {
        let cluster = (ws as u32) / per_cluster;
        let name = format!("user{ws:03}");
        let cfg = if ws < day.intense_users {
            UserConfig::intense(&name, cluster)
        } else {
            UserConfig::typical(&name, cluster)
        };
        sessions.push(UserSession::provision(
            sys,
            cfg,
            ws,
            system_files.clone(),
            &sizes,
            &mut rng,
        )?);
    }
    Ok(sessions)
}

/// Runs the provisioned sessions as one [`SessionDriver`] per workstation;
/// `masks` declares each session's `(home, shared)` op footprints.
fn drive_sessions(
    sys: &mut ItcSystem,
    day: &DayConfig,
    sessions: Vec<UserSession>,
    masks: impl Fn(&UserSession) -> (ClusterMask, ClusterMask),
    mode: RunMode,
) -> Result<DayReport, SystemError> {
    let drivers = sessions
        .into_iter()
        .map(|s| {
            let (home, shared) = masks(&s);
            (
                s.workstation(),
                Box::new(SessionDriver::new(s, day, home, shared)) as Box<dyn WsDriver>,
            )
        })
        .collect();
    let ops = sys.run_drivers(drivers, mode)?;
    Ok(DayReport {
        metrics: sys.metrics(),
        ops,
        duration: day.duration,
    })
}

/// Runs the day on an existing (freshly built) system, on the sequential
/// reference schedule. No op claims a footprint narrower than the whole
/// system, so nothing here depends on where a custodian hint points.
pub fn run_day_on(sys: &mut ItcSystem, day: &DayConfig) -> Result<DayReport, SystemError> {
    let sessions = provision_day(sys, day)?;
    let all = ClusterMask::all(sys.server_count());
    drive_sessions(sys, day, sessions, |_| (all, all), RunMode::Sequential)
}

/// Runs the day with per-cluster op masks, sequentially or in parallel —
/// `RunMode::Parallel(n)` produces the bit-identical timeline on `n`
/// worker threads. Provisioning is the sequential prologue.
///
/// Masking: a user's ops are confined to their home cluster, except
/// shared-subtree reads, which add cluster 0 (the system custodian) —
/// unless the binaries are replicated read-only everywhere, in which case
/// the nearest replica is cluster-local. An installed fault plan widens
/// every op to all clusters (scheduled crash/restart events must
/// interleave exactly as the sequential run interleaves them).
pub fn run_day_drivers(
    sys: &mut ItcSystem,
    day: &DayConfig,
    mode: RunMode,
) -> Result<DayReport, SystemError> {
    let sessions = provision_day(sys, day)?;
    // Warm each session's home-volume custodian hint before the drivers
    // start: the per-cluster masks below assume own-volume ops never
    // bounce through a covering "/vice" hint (see
    // [`UserSession::warm_home_hint`]).
    for s in &sessions {
        s.warm_home_hint(sys)?;
    }
    let all = ClusterMask::all(sys.server_count());
    // Only cluster-coupling faults (message faults, crashes, restarts)
    // force full masks; a corruption-only plan and the scrubber are both
    // cluster-local, so those runs keep narrow masks and stay parallel.
    let serialized = sys.faults_couple_clusters();
    let masks = |s: &UserSession| {
        let home = ClusterMask::of(s.home_cluster() as usize);
        if serialized {
            (all, all)
        } else if day.replicate_binaries {
            (home, home)
        } else {
            (home, home.union(ClusterMask::of(0)))
        }
    };
    drive_sessions(sys, day, sessions, masks, mode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_day_produces_the_papers_shape() {
        let (sys, report) = run_day(SystemConfig::prototype(1, 4), &DayConfig::short()).unwrap();
        assert!(report.ops > 100, "only {} ops", report.ops);

        let m = &report.metrics;
        // Hit ratio is high — the paper reports over 80%.
        // A 30-minute day is cold-start dominated; the paper's >80% claim
        // is asserted at experiment scale (E1). This is a smoke bound.
        assert!(
            m.hit_ratio() > 0.5,
            "hit ratio {:.2} unexpectedly low",
            m.hit_ratio()
        );
        // In check-on-open mode, validations dominate the call mix.
        let val = m.call_fraction("validate");
        let fetch = m.call_fraction("fetch");
        assert!(
            val > fetch,
            "validate {val:.2} should exceed fetch {fetch:.2}"
        );
        // Server CPU is busier than its disk (the paper's bottleneck).
        assert!(
            m.max_server_cpu_utilization() > m.max_server_disk_utilization(),
            "cpu {:.3} vs disk {:.3}",
            m.max_server_cpu_utilization(),
            m.max_server_disk_utilization()
        );
        let _ = sys;
    }

    #[test]
    fn replication_and_multicluster_day_runs() {
        let day = DayConfig {
            replicate_binaries: true,
            duration: SimTime::from_mins(10),
            ..DayConfig::short()
        };
        let (sys, report) = run_day(SystemConfig::prototype(2, 2), &day).unwrap();
        assert!(report.ops > 20);
        assert_eq!(sys.server_count(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let day = DayConfig {
                duration: SimTime::from_mins(5),
                ..DayConfig::short()
            };
            let (_, r) = run_day(SystemConfig::prototype(1, 2), &day).unwrap();
            (r.ops, r.metrics.total_calls())
        };
        assert_eq!(run(), run());
    }
}
