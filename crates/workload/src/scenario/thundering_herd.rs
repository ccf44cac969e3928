//! Scenario 4: the post-restart revalidation thundering herd.
//!
//! A custodian crashes mid-morning, taking every callback promise and the
//! mutation replay cache with it, then restarts and salvages its volumes
//! from checkpoint plus journal. Meanwhile every client that lost it keeps
//! probing: each probe of the dead server burns a full RPC timeout, and
//! the moment the salvager brings the volume back the whole clientele
//! re-arrives at once to revalidate suspect cache entries. The network is
//! lossy throughout (a merged [`FaultPlan`]: outage schedule + drop/dup
//! probabilities), so the recovery herd also stresses retry and the
//! replay cache.
//!
//! The shipped fix measured here is the **jittered exponential reconnect
//! backoff** ([`itc_core::system::parallel::WsOps::reconnect_backoff`]): with
//! `use_backoff` the clients consult it between probes instead of
//! hammering on a fixed one-second cycle, and the before/after tables
//! show failed probes (and the wasted-time attribution component)
//! collapse.

use super::{run_scripts, scripts, ScenarioReport, SharedCounts};
use itc_core::protect::{AccessList, Rights};
use itc_core::proto::ServerId;
use itc_core::system::parallel::{ClusterMask, RunMode, WsDriver, WsOps};
use itc_core::system::{ItcSystem, SystemError, WsId};
use itc_core::SystemConfig;
use itc_sim::{FaultPlan, SimRng, SimTime};
use std::sync::Arc;

/// Parameters of the thundering herd.
#[derive(Debug, Clone)]
pub struct ThunderingHerdConfig {
    /// Workstations in the (single) cluster.
    pub workstations: u32,
    /// How long the server stays down.
    pub outage: SimTime,
    /// Reply-drop probability of the lossy-network plan merged into the
    /// outage schedule.
    pub drop_reply: f64,
    /// Reply-duplication probability of the lossy plan (replay-cache
    /// stress on the recovery storm).
    pub duplicate_reply: f64,
    /// Consult the jittered reconnect backoff between probes (the shipped
    /// fix); off reproduces the fixed one-second probe cycle.
    pub use_backoff: bool,
    /// Workload seed.
    pub seed: u64,
}

impl ThunderingHerdConfig {
    /// The CI-sized variant: 32 machines, a five-minute outage, backoff
    /// off (the baseline the fix is measured against).
    pub fn small() -> ThunderingHerdConfig {
        ThunderingHerdConfig {
            workstations: 32,
            outage: SimTime::from_secs(300),
            drop_reply: 0.10,
            duplicate_reply: 0.05,
            use_backoff: false,
            seed: 0x4e2d,
        }
    }

    /// The experiment-sized variant.
    pub fn full() -> ThunderingHerdConfig {
        ThunderingHerdConfig {
            workstations: 96,
            outage: SimTime::from_secs(600),
            ..ThunderingHerdConfig::small()
        }
    }

    /// This config with the backoff fix flipped on.
    pub fn with_backoff(mut self) -> ThunderingHerdConfig {
        self.use_backoff = true;
        self
    }
}

/// Runs the thundering herd; returns the system and the report.
pub fn run(cfg: &ThunderingHerdConfig) -> Result<(ItcSystem, ScenarioReport), SystemError> {
    let mut sc = SystemConfig::revised(1, cfg.workstations);
    sc.seed = cfg.seed;
    let mut sys = ItcSystem::build(sc);
    sys.enable_tracing();

    let n = cfg.workstations as usize;
    let server = ServerId(0);

    // A shared project volume on the (only) server: per-client warm files
    // — cached before the crash, revalidated after — plus the release
    // notes every probe goes after (never cached before the outage, so
    // probing always reaches the wire).
    let mut acl = AccessList::new();
    acl.grant("anyuser", Rights::READ_ONLY);
    sys.create_volume("proj", "/vice/proj", server, acl)?;
    for ws in 0..n {
        sys.admin_install_file(&format!("/vice/proj/warm/w{ws:03}.txt"), vec![b'w'; 64_000])?;
    }
    sys.admin_install_file("/vice/proj/shared/release.txt", vec![b'r'; 128_000])?;

    // Warm phase: login and cache the per-client file (callback promises
    // granted; the /vice/proj custodian hint is now cached client-side).
    let mut rng = SimRng::seeded(cfg.seed);
    for ws in 0..n {
        let offset = SimTime::from_micros(rng.range(0, SimTime::from_secs(120).as_micros()));
        sys.ops().advance_ws(ws, offset);
    }
    let all = ClusterMask::all(1);
    let counts = SharedCounts::default();
    let mut warm = scripts(&sys, &counts);
    for (ws, d) in warm.iter_mut().enumerate() {
        let name = format!("u{ws:03}");
        sys.add_user(&name, &format!("pw-{name}"))?;
        d.push(all, move |ops| ops.login(ws, &name, &format!("pw-{name}")));
        let warm_path = format!("/vice/proj/warm/w{ws:03}.txt");
        d.push(all, move |ops| ops.fetch(ws, &warm_path).map(drop));
    }
    run_scripts(&mut sys, warm, RunMode::Sequential)?;

    // The outage schedule and the lossy network are authored as separate
    // plans and merged — the composition the scenario DSL leans on.
    let base = (0..n)
        .map(|ws| sys.ws_time(ws))
        .max()
        .unwrap_or(SimTime::ZERO);
    let t_crash = base + SimTime::from_secs(60);
    let t_restart = t_crash + cfg.outage;
    let mut plan = FaultPlan::new(cfg.seed ^ 0x0417);
    plan.schedule_crash(0, t_crash);
    plan.schedule_restart(0, t_restart);
    let lossy = FaultPlan::new(cfg.seed ^ 0x1055)
        .drop_reply_prob(cfg.drop_reply)
        .duplicate_reply_prob(cfg.duplicate_reply);
    plan.merge(lossy);
    sys.install_faults(plan);

    // Probe phase: everyone wants the release notes, starting moments
    // after the crash.
    let deadline = t_restart + SimTime::from_secs(900);
    let probers = (0..n)
        .map(|ws| {
            let prober = Prober {
                ws,
                next_at: Some(t_crash + SimTime::from_micros(rng.range(0, 10_000_000))),
                deadline,
                use_backoff: cfg.use_backoff,
                counts: Arc::clone(&counts),
            };
            (ws, Box::new(prober) as Box<dyn WsDriver>)
        })
        .collect();
    sys.run_drivers(probers, RunMode::Sequential)?;

    let report = ScenarioReport::collect("thundering_herd", cfg.seed, &sys, &counts);
    Ok((sys, report))
}

/// One client's probe cycle: fetch the release notes; a failed probe
/// reschedules after either the fixed one-second cycle or the jittered
/// exponential backoff, success moves straight to revalidating the (now
/// suspect) warm file and ends the cycle. Probes past the deadline are
/// never issued.
struct Prober {
    ws: WsId,
    /// When the next probe is due; `None` once the client has recovered.
    next_at: Option<SimTime>,
    deadline: SimTime,
    use_backoff: bool,
    counts: SharedCounts,
}

impl WsDriver for Prober {
    fn scope(&self) -> ClusterMask {
        ClusterMask::all(1)
    }

    fn next_at(&self) -> Option<SimTime> {
        self.next_at.filter(|&at| at <= self.deadline)
    }

    fn next_mask(&self) -> ClusterMask {
        ClusterMask::all(1)
    }

    fn step(&mut self, ops: &mut WsOps<'_>) -> Result<(), SystemError> {
        let ws = self.ws;
        let at = self.next_at.expect("stepped while a probe is due");
        if ops.ws_time(ws) < at {
            ops.advance_ws(ws, at);
        }
        let probe = ops.fetch(ws, "/vice/proj/shared/release.txt").map(drop);
        let ok = probe.is_ok();
        self.counts.lock().expect("counts lock").record(probe)?;
        if ok {
            // Revalidation: the epoch bump marked cached entries suspect;
            // re-open the warm file (and re-acquire its promise).
            let warm = ops.fetch(ws, &format!("/vice/proj/warm/w{ws:03}.txt"));
            self.counts.lock().expect("counts lock").record(warm)?;
            self.next_at = None;
        } else {
            let gap = if self.use_backoff {
                let b = ops.reconnect_backoff(ws, ServerId(0));
                b.max(SimTime::from_secs(1))
            } else {
                SimTime::from_secs(1)
            };
            self.next_at = Some(ops.ws_time(ws) + gap);
        }
        Ok(())
    }
}
