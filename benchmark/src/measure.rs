//! The repetition protocol: what one run of one workload does, and how
//! its repetitions turn into the declared metrics.
//!
//! Every repetition — warm-up, timed, counted, traced, sequential or
//! parallel — builds a fresh system and must reproduce the workload's
//! fingerprint. End-to-end metrics are measured with the harness's spans
//! and allocation counting off; a separate traced run gives the per-layer
//! numbers.

use crate::alloc;
use crate::kernels::{self, KernelTimes, Shape};
use crate::metrics::{per_layer, END_TO_END};
use crate::spans::{self, Span};
use crate::stats::{median, tail_percentile, unattributed_share};
use crate::workloads::{
    setup, timed_setup, Drive, Outcome, Scale, Workload, DEFAULT_SEED, WS_CALL_KINDS,
};
use itc_core::proto::payload::{bytes_copied, payload_digest, reset_bytes_copied};
use itc_core::proto::ServerId;
use itc_core::system::parallel::RunMode;
use itc_core::system::ItcSystem;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub scale: Scale,
    pub seed: u64,
    /// How long the run measures: the timed repetitions get four fifths
    /// of it, the rest goes to set-up, warm-up and the counted one.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: the traced run
    /// and the per-layer metrics.
    pub trace: bool,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one run found.
#[derive(Debug, Clone)]
pub struct Report {
    pub args: Args,
    /// Every repetition reproduced the fingerprint, and no storm op failed.
    pub correct: bool,
    /// Simulated workstation ops executed in fingerprint-checked
    /// repetitions.
    pub attempted: u64,
    /// Of those, the ops of repetitions whose fingerprint was wrong, plus
    /// storm ops that returned an error.
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// The per-repetition values behind the timed medians.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// FNV-64 of the fingerprint text.
    pub fingerprint: u64,
    pub threads: usize,
    /// Free-form remarks for the human-readable output.
    pub notes: Vec<String>,
}

/// The blessed fingerprint of a workload at the default seed.
pub fn expected_fingerprint(workload: Workload, scale: Scale) -> Option<u64> {
    let text = match (workload, scale) {
        (Workload::SmallStorm, Scale::Full) => include_str!("../expected/small_storm.fp"),
        (Workload::SmallStorm, Scale::Smoke) => include_str!("../expected/small_storm.smoke.fp"),
        (Workload::BulkStorm, Scale::Full) => include_str!("../expected/bulk_storm.fp"),
        (Workload::BulkStorm, Scale::Smoke) => include_str!("../expected/bulk_storm.smoke.fp"),
        (Workload::CampusDay, Scale::Full) => include_str!("../expected/campus_day.fp"),
        (Workload::CampusDay, Scale::Smoke) => include_str!("../expected/campus_day.smoke.fp"),
        (Workload::FaultDay, Scale::Full) => include_str!("../expected/fault_day.fp"),
        (Workload::FaultDay, Scale::Smoke) => include_str!("../expected/fault_day.smoke.fp"),
    };
    u64::from_str_radix(text.trim(), 16).ok()
}

/// Worker threads of a parallel repetition: one per cluster, as far as the
/// host has cores.
pub fn parallel_threads(clusters: u32) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    cores.min(clusters as usize).max(1)
}

/// Measured values by metric name, until they are emitted in declared
/// order.
#[derive(Default)]
struct Values(BTreeMap<String, f64>);

impl Values {
    fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// Holds every repetition to the first one's fingerprint (and that one to
/// the blessed value, at the default seed).
struct Check {
    workload: Workload,
    reference: Option<String>,
    expected: Option<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Check {
    fn rep(&mut self, label: &str, outcome: &Outcome) {
        self.attempted += outcome.ops;
        match &self.reference {
            None => {
                let got = payload_digest(outcome.fingerprint.as_bytes());
                if self.expected.is_some_and(|want| want != got) {
                    self.failed += outcome.ops;
                    self.problems.push(format!(
                        "{label}: fingerprint {got:016x} is not the blessed {:016x}",
                        self.expected.unwrap_or_default()
                    ));
                }
                self.reference = Some(outcome.fingerprint.clone());
            }
            Some(reference) if *reference != outcome.fingerprint => {
                self.failed += outcome.ops;
                let line = reference
                    .lines()
                    .zip(outcome.fingerprint.lines())
                    .find(|(a, b)| a != b)
                    .map(|(a, b)| format!("want {a} got {b}"))
                    .unwrap_or_else(|| "line counts differ".to_string());
                self.problems.push(format!(
                    "{label}: fingerprint diverged from the first repetition: {line}"
                ));
            }
            Some(_) => {}
        }
        if !self.workload.is_day() {
            let errors = outcome.counts.map_or(0, |c| c.failed);
            if errors > 0 {
                self.failed += errors;
                self.problems
                    .push(format!("{label}: {errors} storm ops returned an error"));
            }
        }
    }
}

/// One repetition: fresh set-up, run, hand back the finished system.
fn repetition(args: &Args, drive: Drive, mode: RunMode) -> Result<(Outcome, ItcSystem), String> {
    setup(args.workload, args.scale, args.seed, drive)
        .run(mode)
        .map_err(|e| format!("{}: repetition aborted: {e}", args.workload.name()))
}

/// One sequential repetition with the counting allocator on. Counting
/// covers set-up too, so the live heap is complete, but the totals handed
/// back — heap counts, and payload bytes copied — start after it.
fn counted_repetition(args: &Args, check: &mut Check) -> Result<(alloc::Counts, u64), String> {
    reset_bytes_copied();
    alloc::start_counting();
    let prepared = setup(args.workload, args.scale, args.seed, Drive::Plain);
    let after_setup = alloc::snapshot();
    let copied_in_setup = bytes_copied();
    let counted = prepared.run(RunMode::Sequential);
    let after_run = alloc::snapshot();
    alloc::stop_counting();
    let (outcome, sys) = counted.map_err(|e| format!("counted repetition aborted: {e}"))?;
    check.rep("counted repetition", &outcome);
    drop(sys);
    Ok((
        after_run.since(&after_setup),
        bytes_copied() - copied_in_setup,
    ))
}

/// User and system CPU seconds of this process so far, all threads.
fn cpu_seconds() -> (f64, f64) {
    // Fields 14 and 15 of /proc/self/stat, counted after the parenthesised
    // command name, in USER_HZ ticks (100 on every Linux ABI).
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let mut fields = stat.rsplit(')').next().unwrap_or("").split_whitespace();
    let mut tick = |n: usize| {
        fields
            .nth(n)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / 100.0
    };
    let user = tick(11);
    let system = tick(0);
    (user, system)
}

/// Peak resident set of this process, in bytes.
fn vm_hwm_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0)
}

/// Repeats `rep` until `budget_s` is spent, at least `min` and at most
/// nine times.
fn repeat_for(
    budget_s: f64,
    min: usize,
    mut rep: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min || (t0.elapsed().as_secs_f64() < budget_s && walls.len() < 9) {
        walls.push(rep(walls.len())?);
    }
    Ok(walls)
}

pub fn run(args: Args) -> Result<Report, String> {
    let size = args.workload.size(args.scale);
    let threads = parallel_threads(size.clusters);
    let min_reps = match args.scale {
        Scale::Full => 3,
        Scale::Smoke => 2,
    };
    let mut check = Check {
        workload: args.workload,
        reference: None,
        expected: (args.seed == DEFAULT_SEED)
            .then(|| expected_fingerprint(args.workload, args.scale))
            .flatten(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let mut notes = Vec::new();
    if args.seed == DEFAULT_SEED && check.expected.is_none() {
        notes.push("no blessed fingerprint for this workload: run with --bless".to_string());
    }

    // Warm-up, discarded for timing. It runs the mirrored drive, so it is
    // also where the days' per-op outcomes come from.
    let (warm, sys) = repetition(&args, Drive::Mirror, RunMode::Sequential)?;
    check.rep("warm-up", &warm);
    let events = sys.event_stats().executed as f64;
    drop(sys);
    let ops = warm.ops as f64;
    let counts = warm
        .counts
        .expect("the mirrored drive sees every op's outcome");
    let op_fail_share = counts.failed as f64 / counts.ops.max(1) as f64;

    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut values = Values::default();
    if args.trace {
        values.put("workload.op_fail_share", op_fail_share);
        per_layer_run(
            &args,
            threads,
            min_reps,
            ops,
            &mut check,
            &mut values,
            &mut notes,
        )?;
    } else {
        // Set-up is tens of milliseconds, so it is timed on its own many
        // times: five up front, then once more beside every timed pair so
        // that the samples span the run and not one slow spell of the host.
        let mut setups: Vec<f64> = (0..5)
            .map(|_| timed_setup(args.workload, args.scale, args.seed))
            .collect();

        // Timed repetitions, sequential and parallel by turns, so that a
        // slow spell of the host (they last seconds here) falls on both
        // and on a part of each metric's samples, not on one metric's all.
        let t0 = Instant::now();
        let (mut seq_walls, mut par_walls) = (Vec::new(), Vec::new());
        let mut rss = 0.0;
        while seq_walls.len() < min_reps
            || (t0.elapsed().as_secs_f64() < args.seconds * 0.8 && seq_walls.len() < 9)
        {
            let i = seq_walls.len();
            setups.push(timed_setup(args.workload, args.scale, args.seed));
            let (outcome, sys) = repetition(&args, Drive::Plain, RunMode::Sequential)?;
            check.rep(&format!("sequential repetition {i}"), &outcome);
            drop(sys);
            seq_walls.push(outcome.wall_s);
            if par_walls.is_empty() {
                // Peak RSS of sequential execution: read before the first
                // worker thread (and its allocator arena) exists.
                rss = vm_hwm_bytes();
            }
            let (outcome, sys) = repetition(&args, Drive::Plain, RunMode::Parallel(threads))?;
            check.rep(&format!("parallel repetition {i}"), &outcome);
            drop(sys);
            par_walls.push(outcome.wall_s);
        }

        let (heap, _) = counted_repetition(&args, &mut check)?;

        values.put("events_per_s", events / median(&seq_walls));
        values.put("ops_per_s", ops / median(&seq_walls));
        values.put("par_events_per_s", events / median(&par_walls));
        values.put("alloc_bytes_per_op", heap.bytes as f64 / ops);
        values.put("allocs_per_op", heap.calls as f64 / ops);
        values.put("peak_heap_mb", heap.peak_live as f64 / 1e6);
        values.put("peak_rss_mb", rss / 1e6);
        values.put("op_ok_share", 1.0 - op_fail_share);
        values.put("setup_s", median(&setups));
        samples.insert(
            "events_per_s",
            seq_walls.iter().map(|w| events / w).collect(),
        );
        samples.insert("ops_per_s", seq_walls.iter().map(|w| ops / w).collect());
        samples.insert(
            "par_events_per_s",
            par_walls.iter().map(|w| events / w).collect(),
        );
        samples.insert("setup_s", setups);
    }

    // Emit in declaration order, and only what is declared.
    let declared: Vec<(String, &'static str)> = if args.trace {
        per_layer().into_iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit))
            .collect()
    };
    let mut metrics = Vec::with_capacity(declared.len());
    for (name, unit) in declared {
        let value = values
            .0
            .remove(&name)
            .ok_or_else(|| format!("metric {name} is declared but was not measured"))?;
        metrics.push(Metric { name, unit, value });
    }
    if let Some(extra) = values.0.keys().next() {
        return Err(format!("metric {extra} was measured but is not declared"));
    }

    let fingerprint = payload_digest(check.reference.as_deref().unwrap_or("").as_bytes());
    Ok(Report {
        args,
        correct: check.problems.is_empty(),
        attempted: check.attempted,
        failed: check.failed,
        problems: check.problems,
        metrics,
        samples,
        fingerprint,
        threads,
        notes,
    })
}

/// Counters of a finished system that the layer shares are built from.
struct SimCounts {
    attempts: f64,
    calls: f64,
    /// `store` calls the servers served.
    stores: f64,
    /// Whole payloads fetched: bytes fetched ÷ the shape's payload size
    /// (server `fetch` calls also count directory and redirected fetches,
    /// which move no file).
    fetches: f64,
    scheduled: f64,
    journal_records: f64,
    journal_bytes: f64,
    salvages: f64,
    replayed: f64,
    scrub_passes: f64,
    bytes_scanned: f64,
    hits: f64,
    misses: f64,
}

fn shape_of(args: &Args, sys: &ItcSystem) -> Shape {
    let size = args.workload.size(args.scale);
    let m = sys.metrics();
    let es = sys.event_stats();
    let transfers = (m.venus.fetches + m.venus.stores).max(1);
    let payload_bytes = if args.workload.is_day() {
        ((m.venus.bytes_fetched + m.venus.bytes_stored) / transfers) as usize
    } else {
        size.file_bytes
    };
    let ws = sys.workstation_count();
    let cache_entries = (0..ws).map(|w| sys.venus(w).cache().len()).sum::<usize>() / ws.max(1);
    let merkle_leaves = (0..sys.server_count())
        .flat_map(|s| sys.server(ServerId(s as u32)).volumes())
        .map(|v| v.merkle().len())
        .max()
        .unwrap_or(0);
    Shape {
        payload_bytes: payload_bytes.max(1),
        // A storm workstation fills one directory with its rounds; a
        // day's user keeps sixteen sources beside each other.
        dir_fanout: if args.workload.is_day() {
            16
        } else {
            size.rounds.max(1)
        },
        calendar_depth: es.high_water / sys.server_count().max(1),
        cancel_ratio: es.cancelled as f64 / es.scheduled.max(1) as f64,
        cache_entries,
        merkle_leaves,
    }
}

fn sim_counts(sys: &ItcSystem, shape: &Shape) -> SimCounts {
    let m = sys.metrics();
    let servers = || (0..sys.server_count()).map(|s| ServerId(s as u32));
    let sum = |f: &dyn Fn(ServerId) -> u64| servers().map(f).sum::<u64>() as f64;
    SimCounts {
        attempts: sys.call_stats().attempts as f64,
        calls: m.total_calls() as f64,
        stores: sys.total_server_calls_of("store") as f64,
        fetches: m.venus.bytes_fetched as f64 / shape.payload_bytes as f64,
        scheduled: sys.event_stats().scheduled as f64,
        journal_records: sum(&|s| sys.server_journal_stats(s).records),
        journal_bytes: sum(&|s| sys.server_journal_stats(s).total_len),
        salvages: sum(&|s| sys.server_salvage_reports(s).len() as u64),
        replayed: sum(&|s| {
            sys.server_salvage_reports(s)
                .iter()
                .map(|r| r.replayed)
                .sum()
        }),
        scrub_passes: sum(&|s| sys.server_scrub_stats(s).passes),
        bytes_scanned: sum(&|s| sys.server_scrub_stats(s).bytes_scanned),
        hits: m.cache.hits as f64,
        misses: m.cache.misses as f64,
    }
}

/// The traced run: a few untraced sequential repetitions for the wall the
/// shares divide by, a counted one, the traced one, the parallel and
/// tracing-toggled ones, then the layer kernels at the run's own shape.
fn per_layer_run(
    args: &Args,
    threads: usize,
    min_reps: usize,
    ops: f64,
    check: &mut Check,
    values: &mut Values,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    // Untraced sequential repetitions: the reference wall and CPU time.
    let cpu0 = cpu_seconds();
    let seq_walls = repeat_for(args.seconds * 0.15, min_reps, |i| {
        let (outcome, sys) = repetition(args, Drive::Plain, RunMode::Sequential)?;
        check.rep(&format!("sequential repetition {i}"), &outcome);
        drop(sys);
        Ok(outcome.wall_s)
    })?;
    let cpu1 = cpu_seconds();
    let reps = seq_walls.len() as f64;
    let seq_cpu = ((cpu1.0 - cpu0.0) + (cpu1.1 - cpu0.1)) / reps;
    let wall = median(&seq_walls);
    let wall_ns = wall * 1e9;
    values.put("host.cpu_s_seq", seq_cpu);
    values.put(
        "host.sys_share_seq",
        (cpu1.1 - cpu0.1) / ((cpu1.0 - cpu0.0) + (cpu1.1 - cpu0.1)).max(1e-9),
    );

    // Counted repetition: the allocator's view, and the bytes the payload
    // path copied.
    let (heap, copied) = counted_repetition(args, check)?;
    values.put("alloc.large_allocs_per_op", heap.large_calls as f64 / ops);
    values.put(
        "alloc.realloc_bytes_per_op",
        heap.realloc_bytes as f64 / ops,
    );
    values.put("proto.bytes_copied_per_op", copied as f64 / ops);

    // Traced repetition.
    let prepared = setup(args.workload, args.scale, args.seed, Drive::Traced);
    spans::start_recording();
    let traced = prepared.run(RunMode::Sequential);
    let recorded = spans::finish_recording();
    let (outcome, sys) = traced.map_err(|e| format!("traced repetition aborted: {e}"))?;
    check.rep("traced repetition", &outcome);
    let shape = shape_of(args, &sys);
    let sim = sim_counts(&sys, &shape);
    let es = sys.event_stats();
    let cs = sys.call_stats();
    let m = sys.metrics();
    let ic = sys.integrity_counters();
    drop(sys);
    values.put("bench.trace_overhead_ratio", outcome.wall_s / wall);
    span_metrics(&recorded, values);
    write_out(
        &format!(
            "{}{}.spans.jsonl",
            args.workload.name(),
            args.scale.suffix()
        ),
        &spans::render_jsonl(&recorded),
        notes,
    );
    drop(recorded);

    // Parallel repetitions: one worker, then `threads` workers.
    let (outcome, sys) = repetition(args, Drive::Plain, RunMode::Parallel(1))?;
    check.rep("Parallel(1) repetition", &outcome);
    drop(sys);
    values.put("system.parallel.par1_wall_ratio", outcome.wall_s / wall);
    let cpu0 = cpu_seconds();
    let par_walls = repeat_for(0.0, 2, |i| {
        let (outcome, sys) = repetition(args, Drive::Plain, RunMode::Parallel(threads))?;
        check.rep(&format!("parallel repetition {i}"), &outcome);
        drop(sys);
        Ok(outcome.wall_s)
    })?;
    let cpu1 = cpu_seconds();
    let par_cpu = ((cpu1.0 - cpu0.0) + (cpu1.1 - cpu0.1)) / par_walls.len() as f64;
    values.put("system.parallel.threads", threads as f64);
    values.put("system.parallel.par_cpu_ratio", par_cpu / seq_cpu.max(1e-9));
    values.put("system.parallel.par_speedup", wall / median(&par_walls));

    // The simulator's own tracing and observability plane, toggled
    // against its setting in the workload (on for `fault_day`, off
    // elsewhere). Wall noise only ever adds, so best-of-three each side.
    let plain_is_on = args.workload == Workload::FaultDay;
    let mut toggled = None;
    let toggled_walls = repeat_for(0.0, min_reps, |i| {
        let mut prepared = setup(args.workload, args.scale, args.seed, Drive::Plain);
        if plain_is_on {
            prepared.sys.disable_tracing();
        } else {
            prepared.sys.enable_tracing();
        }
        let (outcome, sys) = prepared
            .run(RunMode::Sequential)
            .map_err(|e| format!("tracing-toggled repetition aborted: {e}"))?;
        // Tracing is observation-only: the fingerprint may not move.
        check.rep(&format!("tracing-toggled repetition {i}"), &outcome);
        toggled = Some(sys);
        Ok(outcome.wall_s)
    })?;
    let best = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
    let (on, off) = if plain_is_on {
        (best(&seq_walls), best(&toggled_walls))
    } else {
        (best(&toggled_walls), best(&seq_walls))
    };
    values.put("trace_obs.on_wall_ratio", on / off);
    // The system that ran with tracing on: the toggled one, except on
    // `fault_day`, where one more plain repetition supplies it.
    let toggled = toggled.expect("at least one toggled repetition ran");
    let toggled_now = toggled.now().as_micros();
    let on_sys = if plain_is_on {
        let (outcome, sys) = repetition(args, Drive::Plain, RunMode::Sequential)?;
        check.rep("tracing-on repetition", &outcome);
        sys
    } else {
        toggled
    };
    values.put(
        "trace_obs.spans_recorded",
        on_sys.trace_stats().spans as f64,
    );
    // The plain repetitions' final clock is in the fingerprint, which the
    // toggled ones had to reproduce; the delta is read off directly too.
    values.put(
        "trace_obs.virtual_delta_us",
        toggled_now.abs_diff(on_sys.now().as_micros()) as f64,
    );
    let t0 = Instant::now();
    let exported = on_sys.render_series_export().len()
        + on_sys
            .render_anomaly_dumps()
            .iter()
            .map(|(_, text)| text.len())
            .sum::<usize>();
    std::hint::black_box(exported);
    values.put("trace_obs.export_s", t0.elapsed().as_secs_f64());
    drop(on_sys);

    // Counts the system exposes.
    values.put("cryptbox.msgs", 2.0 * sim.attempts);
    values.put("rpc.attempts", cs.attempts as f64);
    values.put("rpc.retries", cs.retries as f64);
    values.put("rpc.timeouts", cs.timeouts as f64);
    values.put("rpc.failures", cs.failures as f64);
    values.put(
        "rpc.retry_share",
        cs.retries as f64 / cs.attempts.max(1) as f64,
    );
    values.put("sim.sched.scheduled", es.scheduled as f64);
    values.put("sim.sched.executed", es.executed as f64);
    values.put("sim.sched.cancelled", es.cancelled as f64);
    values.put("sim.sched.high_water", es.high_water as f64);
    values.put("sim.sched.cancel_share", shape.cancel_ratio);
    values.put("disk.journal.records", sim.journal_records);
    values.put("disk.journal.bytes", sim.journal_bytes);
    values.put("disk.journal.salvages", sim.salvages);
    values.put("disk.journal.records_replayed", sim.replayed);
    values.put("disk.integrity.scrub_passes", sim.scrub_passes);
    values.put("disk.integrity.bytes_scanned", sim.bytes_scanned);
    values.put("disk.integrity.injected", ic.injected as f64);
    values.put("disk.integrity.detected", ic.detected() as f64);
    values.put("venus.cache.hits", sim.hits);
    values.put("venus.cache.misses", sim.misses);
    values.put("venus.cache.hit_ratio", m.hit_ratio());
    values.put("venus.cache.evictions", m.cache.evictions as f64);

    // Layer kernels at this run's shape, and the shares they imply.
    let thrift = match args.scale {
        Scale::Full => 1,
        Scale::Smoke => 8,
    };
    let k = kernels::run(&shape, thrift);
    let shares = layer_shares(&k, &sim, wall_ns);
    values.put("cryptbox.seal_open_ns", k.seal_open_ns);
    values.put("cryptbox.alloc_bytes_per_msg", k.seal_open_alloc_bytes);
    values.put("cryptbox.handshake_ns", k.handshake_ns);
    values.put("proto.codec_ns", k.codec_ns);
    values.put("proto.codec_head_ns", k.codec_head_ns);
    values.put("proto.codec_alloc_bytes", k.codec_alloc_bytes);
    values.put("proto.digest_mb_per_s", k.digest_mb_per_s);
    values.put("sim.sched.event_ns", k.event_ns);
    values.put("unixfs.write_ns", k.fs_write_ns);
    values.put("unixfs.read_ns", k.fs_read_ns);
    values.put("unixfs.resolve_ns", k.fs_resolve_ns);
    values.put("volume.store_ns", k.volume_store_ns);
    values.put("disk.journal.append_ns", k.journal_append_ns);
    values.put(
        "disk.journal.salvage_ns_per_record",
        k.salvage_ns_per_record,
    );
    values.put("disk.integrity.merkle_set_ns", k.merkle_set_ns);
    values.put("disk.integrity.scrub_mb_per_s", k.scrub_mb_per_s);
    values.put("venus.cache.get_ns", k.cache_get_ns);
    values.put("venus.cache.insert_ns", k.cache_insert_ns);
    for (name, share) in shares {
        values.put(name, share);
    }
    let attributed: Vec<f64> = [
        "cryptbox.share",
        "proto.codec_share",
        "sim.sched.share",
        "unixfs.share",
        "volume.share",
        "disk.journal.share",
        "disk.integrity.share",
        "venus.cache.share",
        "workload.op_self_share",
        "system.parallel.exec_self_share",
    ]
    .iter()
    .map(|name| values.0[*name])
    .collect();
    values.put("unattributed_share", unattributed_share(&attributed));
    notes.push(format!(
        "server call mix: {}",
        m.call_mix
            .iter()
            .map(|(kind, n)| format!("{kind} {n}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    notes.push(format!(
        "kernel shape: {} B payloads, {} files per directory, calendar depth {}, {} cache entries, {} Merkle leaves",
        shape.payload_bytes, shape.dir_fanout, shape.calendar_depth, shape.cache_entries, shape.merkle_leaves
    ));
    Ok(())
}

/// Count × kernel time ÷ the sequential wall, per layer. The terms are
/// disjoint: what `Volume::store` spends in the file system, the digest
/// and the Merkle leaf is priced under those layers, not under `volume`.
fn layer_shares(k: &KernelTimes, sim: &SimCounts, wall_ns: f64) -> Vec<(&'static str, f64)> {
    let transfers = sim.stores + sim.fetches;
    let head_only = (sim.calls - transfers).max(0.0);
    let scrub_ns = sim.bytes_scanned / (k.scrub_mb_per_s * 1e6).max(1.0) * 1e9;
    let volume_glue = (k.volume_store_ns - k.fs_write_ns - k.digest_ns - k.merkle_set_ns).max(0.0);
    vec![
        (
            "cryptbox.share",
            2.0 * sim.attempts * k.seal_open_ns / wall_ns,
        ),
        (
            "proto.codec_share",
            (transfers * k.codec_ns + head_only * k.codec_head_ns) / wall_ns,
        ),
        ("sim.sched.share", sim.scheduled * k.event_ns / wall_ns),
        (
            "unixfs.share",
            (sim.stores * k.fs_write_ns + sim.fetches * k.fs_read_ns + sim.calls * k.fs_resolve_ns)
                / wall_ns,
        ),
        ("volume.share", sim.stores * volume_glue / wall_ns),
        (
            "disk.journal.share",
            (sim.journal_records * k.journal_append_ns + sim.replayed * k.salvage_ns_per_record)
                / wall_ns,
        ),
        (
            "disk.integrity.share",
            (transfers * k.digest_ns + sim.stores * k.merkle_set_ns + scrub_ns) / wall_ns,
        ),
        (
            "venus.cache.share",
            ((sim.hits + sim.misses) * k.cache_get_ns
                + (sim.misses + sim.stores) * k.cache_insert_ns)
                / wall_ns,
        ),
    ]
}

/// The span-derived metrics: per call kind its count, tail latency and
/// share of the traced run; the user model's self time; the executor's.
fn span_metrics(recorded: &[Span], values: &mut Values) {
    let self_ns = spans::self_times(recorded);
    let root_ns = recorded
        .iter()
        .find(|s| s.name == "run_drivers")
        .map_or(1, |s| s.duration_ns().max(1)) as f64;
    let mut op_self = 0u64;
    let mut root_self = 0u64;
    let mut by_kind: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for (span, own) in recorded.iter().zip(&self_ns) {
        match span.name {
            "op" => op_self += own,
            "run_drivers" => root_self += own,
            name => by_kind
                .entry(name.trim_start_matches("ws_call."))
                .or_default()
                .push(span.duration_ns()),
        }
    }
    for kind in WS_CALL_KINDS {
        let durations = by_kind.remove(kind).unwrap_or_default();
        let prefix = format!("system.ws_call.{kind}");
        values.put(&format!("{prefix}.count"), durations.len() as f64);
        values.put(
            &format!("{prefix}.p99_ns"),
            tail_percentile(&durations).map_or(0.0, |(_, ns)| ns as f64),
        );
        values.put(
            &format!("{prefix}.share"),
            durations.iter().sum::<u64>() as f64 / root_ns,
        );
    }
    values.put("workload.op_self_share", op_self as f64 / root_ns);
    values.put(
        "system.parallel.exec_self_share",
        root_self as f64 / root_ns,
    );
}

/// Directory the harness writes its artefacts to.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes an artefact under [`out_dir`]; failing to is worth a note, not
/// the run.
pub fn write_out(name: &str, text: &str, notes: &mut Vec<String>) {
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), text));
    match written {
        Ok(()) => notes.push(format!("wrote {}", dir.join(name).display())),
        Err(e) => notes.push(format!("could not write {}: {e}", dir.join(name).display())),
    }
}
