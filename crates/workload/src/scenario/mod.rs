//! Day-in-the-life storm scenarios.
//!
//! The paper's operational claim is not about steady state: it is that a
//! campus full of workstations survives *correlated* events — the Monday
//! 9am login wave, a system-software release pushed through read-only
//! replication (Section 5.3), a widely-shared file rewrite breaking
//! hundreds of callbacks at once, and the revalidation herd after a
//! custodian crash. This module scripts those four storms over the
//! simulated calendar so experiments and CI can measure where each one
//! drives the servers, using the tracing/attribution machinery of the
//! flight recorder.
//!
//! Determinism rules (every scenario obeys all of them):
//!
//! * All randomness — arrival offsets, think gaps, fault draws — comes
//!   from [`itc_sim::SimRng`] streams seeded from the scenario config's `seed`.
//!   Same seed, same binary ⇒ bit-identical virtual timeline, identical
//!   attribution tables, identical flight-recorder dumps.
//! * Scenarios interleave clients by **virtual time** (scripts run
//!   through `ItcSystem::run_drivers`, which always executes the
//!   earliest-clock workstation next), never by host iteration order;
//!   holder sets and schedules inside the core are sorted, so no
//!   `HashMap`/`HashSet` iteration order can leak into the calendar.
//! * Reports quantify outcomes only through virtual-time observables
//!   (latency attribution, queue high-water marks, anomaly dumps), so
//!   acceptance bounds in tests cannot flake on wall-clock noise.
//!
//! Each scenario comes in a `small()` variant sized for CI (a few hundred
//! calls, well under a second of wall clock) and a `full()` variant for
//! EXPERIMENTS.md tables.

pub mod callback_storm;
pub mod corruption_storm;
pub mod login_storm;
pub mod release_push;
pub mod thundering_herd;

pub use callback_storm::CallbackStormConfig;
pub use corruption_storm::CorruptionStormConfig;
pub use login_storm::LoginStormConfig;
pub use release_push::ReleasePushConfig;
pub use thundering_herd::ThunderingHerdConfig;

use crate::driver::ScriptDriver;
use itc_core::proto::{ServerId, ViceError};
use itc_core::system::parallel::{RunMode, WsDriver};
use itc_core::system::{ItcSystem, SystemError};
use itc_core::trace::AttributionRow;
use itc_core::venus::VenusError;
use itc_sim::record::{Field, Writer};
use itc_sim::Percentiles;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// How a failed scenario operation failed, at the level the user would
/// experience it. RPC-internal retries that eventually succeeded do not
/// show up here (they land in the `wasted` attribution component).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The server (or every replica tried) was down.
    Unreachable,
    /// The server was up but every attempt timed out.
    TimedOut,
    /// The covering volume was offline (salvage in progress).
    Offline,
    /// Any other Venus-level failure.
    Other,
}

/// Classifies a scenario operation error. `None` means the error is
/// structural (bad id, auth failure) and should abort the scenario rather
/// than be absorbed as a storm casualty.
pub fn classify_failure(e: &SystemError) -> Option<FailKind> {
    let ve = match e {
        SystemError::Venus(v) => v,
        _ => return None,
    };
    let vice = match ve {
        VenusError::Vice(v) => v,
        VenusError::Degraded(v) => v,
        VenusError::NoCustodian(_) => return Some(FailKind::Unreachable),
        _ => return Some(FailKind::Other),
    };
    Some(match vice {
        ViceError::Unreachable(_) => FailKind::Unreachable,
        ViceError::TimedOut(_) => FailKind::TimedOut,
        ViceError::VolumeOffline(_) => FailKind::Offline,
        _ => FailKind::Other,
    })
}

/// Operation-level outcome counters for one scenario run. "Timeout rate"
/// in the acceptance bounds is defined over these, not over RPC attempts:
/// the pre-binding offline probe burns the retry timeout without touching
/// `CallStats` (in `itc_rpc`), so user-visible failures must be counted where
/// the user sits.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCounts {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed outright.
    pub failed: u64,
    /// Of `failed`: server unreachable.
    pub unreachable: u64,
    /// Of `failed`: attempts timed out.
    pub timed_out: u64,
    /// Of `failed`: volume offline.
    pub offline: u64,
}

impl OpCounts {
    /// Folds one operation result in; structural errors propagate.
    pub fn record<T>(&mut self, r: Result<T, SystemError>) -> Result<(), SystemError> {
        self.ops += 1;
        if let Err(e) = r {
            match classify_failure(&e) {
                Some(kind) => {
                    self.failed += 1;
                    match kind {
                        FailKind::Unreachable => self.unreachable += 1,
                        FailKind::TimedOut => self.timed_out += 1,
                        FailKind::Offline => self.offline += 1,
                        FailKind::Other => {}
                    }
                }
                None => return Err(e),
            }
        }
        Ok(())
    }

    /// Failed fraction of all operations (0 when none ran).
    pub fn failure_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.failed as f64 / self.ops as f64
        }
    }
}

/// The deterministic outcome of one scenario run. Every field is a
/// virtual-time observable; [`ScenarioReport::jsonl`] renders the whole
/// report (rows, anomaly counts, and the frozen flight-recorder dumps)
/// byte-identically across same-seed runs.
#[derive(Debug, Clone, Default)]
pub struct ScenarioReport {
    /// Scenario name ("login_storm", ...).
    pub name: String,
    /// The seed the run used.
    pub seed: u64,
    /// Operation-level outcome counters.
    pub counts: OpCounts,
    /// Vice calls completed (server-side tally).
    pub calls: u64,
    /// RPC attempts, including retries.
    pub attempts: u64,
    /// RPC-level retries.
    pub retries: u64,
    /// RPC-level attempt timeouts.
    pub timeouts: u64,
    /// Median traced call latency, seconds.
    pub p50_s: f64,
    /// 90th-percentile traced call latency, seconds.
    pub p90_s: f64,
    /// 99th-percentile traced call latency, seconds.
    pub p99_s: f64,
    /// Worst traced call latency, seconds.
    pub max_s: f64,
    /// Worst single-call CPU queueing delay, seconds.
    pub max_queue_cpu_s: f64,
    /// Largest explicit request-queue depth any server incarnation saw.
    pub queue_high_water: u64,
    /// Anomaly dump counts by reason label, sorted by label.
    pub anomalies: Vec<(String, u64)>,
    /// The rendered flight-recorder dumps, `(file_name, jsonl)` in
    /// detection order.
    pub dumps: Vec<(String, String)>,
    /// Per-server attribution rows.
    pub servers: Vec<AttributionRow>,
    /// Per-volume attribution rows.
    pub volumes: Vec<AttributionRow>,
    /// The system clock when the scenario finished, µs.
    pub finished_us: u64,
}

/// An attribution row's fields, in line order; `key` is `"server"` or
/// `"volume"`.
fn row_fields<F: Field>(key: &'static str, r: &mut AttributionRow, f: &mut F) {
    f.u32(key, &mut r.key);
    f.u64("calls", &mut r.calls);
    f.micros("queueing_us", &mut r.queueing);
    f.micros("service_us", &mut r.service);
    f.micros("network_us", &mut r.network);
    f.micros("wasted_us", &mut r.wasted);
    f.secs_us("p50_us", &mut r.p50_s);
    f.secs_us("p90_us", &mut r.p90_s);
}

/// An anomaly-count line's fields.
fn anomaly_fields<F: Field>((label, n): &mut (String, u64), f: &mut F) {
    f.text("anomaly", label);
    f.u64("count", n);
}

/// The marker line that precedes each frozen dump.
fn marker_fields<F: Field>(file_name: &mut String, f: &mut F) {
    f.text("dump", file_name);
}

impl ScenarioReport {
    /// Assembles the report from a finished system. Percentiles cover the
    /// retained breakdown ring (the most recent 4096 traced calls), which
    /// every small scenario fits inside.
    pub fn collect(name: &'static str, seed: u64, sys: &ItcSystem, counts: &SharedCounts) -> Self {
        let call_stats = sys.call_stats();
        let mut totals = Percentiles::new();
        let mut max_queue_cpu_s = 0.0f64;
        for b in sys.attribution().recent() {
            totals.record(b.total().as_secs_f64());
            max_queue_cpu_s = max_queue_cpu_s.max(b.queue_cpu.as_secs_f64());
        }
        let mut percentile = |q| totals.percentile(q).unwrap_or(0.0);

        let mut queue_high_water = 0;
        for s in 0..sys.server_count() {
            for (_, hw) in sys.server_queue_history(ServerId(s as u32)) {
                queue_high_water = queue_high_water.max(hw as u64);
            }
        }

        let mut anomalies: Vec<(String, u64)> = Vec::new();
        for d in sys.trace_collector().dumps() {
            let label = d.reason.label().to_string();
            match anomalies.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += 1,
                None => anomalies.push((label, 1)),
            }
        }
        anomalies.sort();

        let summary = sys.attribution().summary();

        ScenarioReport {
            name: name.to_string(),
            seed,
            counts: *counts.lock().expect("counts lock"),
            calls: sys.metrics().total_calls(),
            attempts: call_stats.attempts,
            retries: call_stats.retries,
            timeouts: call_stats.timeouts,
            p50_s: percentile(50.0),
            p90_s: percentile(90.0),
            p99_s: percentile(99.0),
            max_s: percentile(100.0),
            max_queue_cpu_s,
            queue_high_water,
            anomalies,
            dumps: sys.render_anomaly_dumps(),
            servers: summary.servers,
            volumes: summary.volumes,
            finished_us: sys.now().as_micros(),
        }
    }

    /// Count of frozen dumps with the given reason label.
    pub fn anomaly_count(&self, label: &str) -> u64 {
        self.anomalies
            .iter()
            .find(|(l, _)| l == label)
            .map(|&(_, n)| n)
            .unwrap_or(0)
    }

    /// The header line's fields, in line order.
    fn header_fields<F: Field>(&mut self, f: &mut F) {
        f.text("scenario", &mut self.name);
        f.u64("seed", &mut self.seed);
        f.u64("ops", &mut self.counts.ops);
        f.u64("failed", &mut self.counts.failed);
        f.u64("unreachable", &mut self.counts.unreachable);
        f.u64("timed_out", &mut self.counts.timed_out);
        f.u64("offline", &mut self.counts.offline);
        f.u64("calls", &mut self.calls);
        f.u64("attempts", &mut self.attempts);
        f.u64("retries", &mut self.retries);
        f.u64("timeouts", &mut self.timeouts);
        f.secs_us("p50_us", &mut self.p50_s);
        f.secs_us("p90_us", &mut self.p90_s);
        f.secs_us("p99_us", &mut self.p99_s);
        f.secs_us("max_us", &mut self.max_s);
        f.secs_us("max_queue_cpu_us", &mut self.max_queue_cpu_s);
        f.u64("queue_high_water", &mut self.queue_high_water);
        f.u64("finished_us", &mut self.finished_us);
    }

    /// The whole report as deterministic JSONL: one header line, one line
    /// per attribution row, one per anomaly label, then the frozen dumps
    /// verbatim. Field order is fixed and every value is a virtual-time
    /// observable, so same-seed runs render byte-identically.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        let mut header = ScenarioReport {
            name: self.name.clone(),
            anomalies: Vec::new(),
            dumps: Vec::new(),
            servers: Vec::new(),
            volumes: Vec::new(),
            ..*self
        };
        let _ = writeln!(out, "{}", Writer::line(&mut header, Self::header_fields));
        for (key, rows) in [("server", &self.servers), ("volume", &self.volumes)] {
            for r in rows {
                let row = Writer::line(&mut r.clone(), |r, f| row_fields(key, r, f));
                let _ = writeln!(out, "{row}");
            }
        }
        for a in &self.anomalies {
            let _ = writeln!(out, "{}", Writer::line(&mut a.clone(), anomaly_fields));
        }
        for (name, content) in &self.dumps {
            let _ = writeln!(out, "{}", Writer::line(&mut name.clone(), marker_fields));
            out.push_str(content);
            if !content.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }

    /// A human-readable attribution table (the shape EXPERIMENTS.md E18
    /// embeds).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "scenario {} (seed {}): ops {} failed {} ({:.1}%), calls {}, attempts {}, \
             rpc timeouts {}\n",
            self.name,
            self.seed,
            self.counts.ops,
            self.counts.failed,
            self.counts.failure_rate() * 100.0,
            self.calls,
            self.attempts,
            self.timeouts,
        ));
        out.push_str(&format!(
            "latency p50 {:.3}s p90 {:.3}s p99 {:.3}s max {:.3}s | worst cpu queue {:.3}s | \
             queue high-water {}\n",
            self.p50_s,
            self.p90_s,
            self.p99_s,
            self.max_s,
            self.max_queue_cpu_s,
            self.queue_high_water
        ));
        out.push_str("| key       | calls | queueing s | service s | network s | wasted s | p50 s | p90 s |\n");
        out.push_str("|-----------|-------|------------|-----------|-----------|----------|-------|-------|\n");
        for r in &self.servers {
            out.push_str(&format!(
                "| server {:2} | {:5} | {:10.1} | {:9.1} | {:9.1} | {:8.1} | {:5.2} | {:5.2} |\n",
                r.key,
                r.calls,
                r.queueing.as_secs_f64(),
                r.service.as_secs_f64(),
                r.network.as_secs_f64(),
                r.wasted.as_secs_f64(),
                r.p50_s,
                r.p90_s,
            ));
        }
        for (label, n) in &self.anomalies {
            out.push_str(&format!("anomaly {label}: {n} dump(s)\n"));
        }
        out
    }
}

/// Operation outcomes shared between a storm and the scripts it runs.
pub type SharedCounts = Arc<Mutex<OpCounts>>;

/// One empty script per workstation, each due at its workstation's
/// current clock.
pub(crate) fn scripts(sys: &ItcSystem, counts: &SharedCounts) -> Vec<ScriptDriver> {
    (0..sys.workstation_count())
        .map(|ws| ScriptDriver::new(ws, sys.ws_time(ws), Arc::clone(counts)))
        .collect()
}

/// Runs one storm phase — script `ws` is workstation `ws`'s operation
/// queue — through [`ItcSystem::run_drivers`], the interleaving rule every
/// storm uses: the workstation with the earliest local clock executes its
/// next operation, ties to the lower workstation index. It models
/// independent machines contending for the same servers, and it is
/// deterministic because clocks are virtual.
pub(crate) fn run_scripts(
    sys: &mut ItcSystem,
    scripts: Vec<ScriptDriver>,
    mode: RunMode,
) -> Result<(), SystemError> {
    let drivers = scripts
        .into_iter()
        .enumerate()
        .map(|(ws, d)| (ws, Box::new(d) as Box<dyn WsDriver>))
        .collect();
    sys.run_drivers(drivers, mode).map(drop)
}

#[cfg(test)]
mod tests;
