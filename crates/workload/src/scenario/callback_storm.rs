//! Scenario 3: a callback-break storm.
//!
//! In the revised design the server promises to notify each caching
//! workstation before a file changes (Section 5.3). That promise has a
//! cost concentrated at the *writer's* server: rewriting a file cached by
//! N workstations forces N-1 break notifications on the file — and N-1
//! more on its parent directory, whose cached listings are stale too —
//! each charged CPU and each a separate one-way message. The storm
//! rewrites one widely-shared file repeatedly and measures the fan-out;
//! with [`itc_core::SystemConfig::callback_break_batching`] the breaks to
//! one workstation collapse into a single message charged once, and the
//! attribution table shows the knee move. A scripted mid-storm network
//! brownout (a [`FaultPlan`] of four request drops) times out exactly one
//! reader's refetch, so every run freezes a `timed_out` anomaly dump with
//! the storm in its ring.

use super::{run_scripts, scripts, ScenarioReport, SharedCounts};
use itc_core::system::parallel::{ClusterMask, RunMode};
use itc_core::system::{ItcSystem, SystemError};
use itc_core::SystemConfig;
use itc_sim::{FaultPlan, ScriptedFault, SimRng, SimTime};

/// Parameters of the callback-break storm.
#[derive(Debug, Clone)]
pub struct CallbackStormConfig {
    /// Workstations in the (single) cluster; workstation 0 is the writer,
    /// the rest cache and re-read the shared file.
    pub workstations: u32,
    /// Times the writer rewrites the shared file.
    pub rewrites: usize,
    /// Bytes of the shared file.
    pub shared_bytes: usize,
    /// Batch break notifications per recipient (the shipped fix; off
    /// reproduces the prototype's per-path cost).
    pub batching: bool,
    /// Workload seed.
    pub seed: u64,
}

impl CallbackStormConfig {
    /// The CI-sized variant: 64 machines, 3 rewrites, batching off (the
    /// baseline the fix is measured against).
    pub fn small() -> CallbackStormConfig {
        CallbackStormConfig {
            workstations: 64,
            rewrites: 3,
            shared_bytes: 30_000,
            batching: false,
            seed: 0xca11bac,
        }
    }

    /// The experiment-sized variant.
    pub fn full() -> CallbackStormConfig {
        CallbackStormConfig {
            workstations: 128,
            rewrites: 4,
            ..CallbackStormConfig::small()
        }
    }

    /// This config with the batching fix flipped on.
    pub fn batched(mut self) -> CallbackStormConfig {
        self.batching = true;
        self
    }
}

/// Runs the callback-break storm; returns the system and the report.
pub fn run(cfg: &CallbackStormConfig) -> Result<(ItcSystem, ScenarioReport), SystemError> {
    let mut sc = SystemConfig::revised(1, cfg.workstations);
    sc.seed = cfg.seed;
    sc.callback_break_batching = cfg.batching;
    let mut sys = ItcSystem::build(sc);
    sys.enable_tracing();

    let n = cfg.workstations as usize;
    let shared = "/vice/usr/writer/shared.dat";

    // The writer owns the volume; everyone else reads it (user volumes
    // grant anyuser read).
    sys.add_user("writer", "pw-writer")?;
    sys.create_user_volume("writer", 0)?;
    for ws in 1..n {
        let name = format!("u{ws:03}");
        sys.add_user(&name, &format!("pw-{name}"))?;
    }
    sys.login(0, "writer", "pw-writer")?;
    sys.ops().store(0, shared, vec![0u8; cfg.shared_bytes])?;

    // Readers log in and cache the shared file (acquiring callback
    // promises on it and on its parent directory), spread over a couple of
    // minutes.
    let mut rng = SimRng::seeded(cfg.seed);
    for ws in 1..n {
        let offset = SimTime::from_micros(rng.range(0, SimTime::from_secs(120).as_micros()));
        sys.ops().advance_ws(ws, offset);
    }
    let all = ClusterMask::all(1);
    let counts = SharedCounts::default();
    let mut warm = scripts(&sys, &counts);
    for (ws, d) in warm.iter_mut().enumerate().skip(1) {
        let name = format!("u{ws:03}");
        d.push(all, move |ops| ops.login(ws, &name, &format!("pw-{name}")));
        d.push(all, move |ops| ops.fetch(ws, shared).map(drop));
    }
    run_scripts(&mut sys, warm, RunMode::Sequential)?;

    // Storm rounds: the writer rewrites the file — breaking every reader's
    // promises — and the whole readership re-fetches within seconds.
    for round in 0..cfg.rewrites {
        let base = (0..n)
            .map(|ws| sys.ws_time(ws))
            .max()
            .unwrap_or(SimTime::ZERO);
        if sys.ws_time(0) < base {
            sys.ops().advance_ws(0, base);
        }
        let rewrite = sys
            .ops()
            .store(0, shared, vec![round as u8 + 1; cfg.shared_bytes]);
        counts.lock().expect("counts lock").record(rewrite)?;

        if round == 1 {
            // Mid-storm network brownout: a scripted burst swallows all
            // four attempts of the next request at the server, so exactly
            // one reader's refetch times out — freezing a `timed_out`
            // flight-recorder dump whose ring carries the storm context.
            // (A `utilization_peak` is structurally out of reach here: a
            // revised-mode op is two serialized calls, and the intra-op
            // reply/disk gap caps the CPU near 83% of a bucket.)
            let mut burst = FaultPlan::new(cfg.seed ^ 0xb10_c0de);
            for _ in 0..4 {
                burst.inject_once(0, ScriptedFault::DropRequest);
            }
            sys.install_faults(burst);
        }

        for ws in 1..n {
            let at = base + SimTime::from_micros(rng.range(1_000_000, 6_000_000));
            if sys.ws_time(ws) < at {
                sys.ops().advance_ws(ws, at);
            }
        }
        let mut refetch = scripts(&sys, &counts);
        for (ws, d) in refetch.iter_mut().enumerate().skip(1) {
            d.push(all, move |ops| ops.fetch(ws, shared).map(drop));
        }
        run_scripts(&mut sys, refetch, RunMode::Sequential)?;
    }

    let report = ScenarioReport::collect("callback_storm", cfg.seed, &sys, &counts);
    Ok((sys, report))
}
