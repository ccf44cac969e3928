//! Operator tools over pinned, seeded scenarios. Host-time measurement
//! lives in `benchmark/` (see `BENCHMARK.json`); everything printed here is
//! seeded and virtual-time, so the output is byte-identical across runs
//! and machines.
//!
//! * `scenario [--full]`: run the four day-in-the-life storm scenarios
//!   (see `itc_workload::scenario` and EXPERIMENTS.md E18) and print
//!   each storm's attribution table plus the before/after tables for the
//!   two shipped fixes (callback-break batching, reconnect backoff).
//!   `--full` uses the experiment-sized variants instead of the CI sizes.
//! * `top`: the vice-top operator console (DESIGN.md §15) — render the
//!   campus-at-a-glance table of the deterministic metrics time-series
//!   over a pinned storm scenario (`--scenario callback_storm|
//!   login_storm|corruption_storm`, default callback). `top --export
//!   [DIR]` writes the series as JSONL (byte-identical across same-seed
//!   runs).
//! * `trace`: span trees, latency attribution and anomaly dumps from the
//!   causal tracer (DESIGN.md §15) over a small faulty demo campus. With no
//!   flag it prints the attribution summary and the slowest call's span
//!   tree and component table; `--trace ID` does the same for one call,
//!   `--anomalies` prints every frozen dump, `--export [DIR]` writes them
//!   as JSONL (default `results/traces/`), and `--seed N` picks the demo's
//!   seed (default 1985).
//!
//! `top FILE.jsonl` and `trace FILE.jsonl` re-render an exported file
//! offline, with no simulation, and exit 1 naming the first line that is
//! not what the export wrote.

use std::fmt::Display;
use std::path::Path;

use itc_core::system::ItcSystem;

// ---------------------------------------------------------------------
// Storm scenarios (`bench scenario`)
// ---------------------------------------------------------------------

/// Runs the four storm scenarios and prints each attribution table, then
/// the before/after comparison for the two shipped fixes. Everything is
/// seeded and virtual-time, so the output is byte-identical across runs.
fn run_scenarios(full: bool) {
    use itc_workload::scenario::{callback_storm, login_storm, release_push, thundering_herd};
    use itc_workload::{
        CallbackStormConfig, LoginStormConfig, ReleasePushConfig, ScenarioReport,
        ThunderingHerdConfig,
    };

    let size = if full { "full" } else { "small" };
    println!("== day-in-the-life storms ({size} variants) ==\n");

    let (login, push, cb, herd) = if full {
        (
            LoginStormConfig::full(),
            ReleasePushConfig::full(),
            CallbackStormConfig::full(),
            ThunderingHerdConfig::full(),
        )
    } else {
        (
            LoginStormConfig::small(),
            ReleasePushConfig::small(),
            CallbackStormConfig::small(),
            ThunderingHerdConfig::small(),
        )
    };
    let (_, r) = login_storm::run(&login).expect("login storm");
    println!("-- login storm\n{}", r.table());

    let (_, r) = release_push::run(&push).expect("release push");
    println!("-- release push\n{}", r.table());

    let (_, cb_base) = callback_storm::run(&cb).expect("callback storm");
    let (_, cb_fixed) = callback_storm::run(&cb.clone().batched()).expect("callback storm");
    println!(
        "-- callback-break storm (batching off)\n{}",
        cb_base.table()
    );
    println!(
        "-- callback-break storm (batching on)\n{}",
        cb_fixed.table()
    );

    let (_, herd_base) = thundering_herd::run(&herd).expect("thundering herd");
    let (_, herd_fixed) =
        thundering_herd::run(&herd.clone().with_backoff()).expect("thundering herd");
    println!(
        "-- thundering herd (fixed 1s probe cycle)\n{}",
        herd_base.table()
    );
    println!(
        "-- thundering herd (jittered backoff)\n{}",
        herd_fixed.table()
    );

    let queueing = |r: &ScenarioReport| {
        let us: u64 = r.servers.iter().map(|row| row.queueing.as_micros()).sum();
        us as f64 / 1e6
    };
    println!("-- before/after: the two shipped fixes");
    println!("| fix                      | metric               |   before |    after |");
    println!("|--------------------------|----------------------|----------|----------|");
    for (name, metric, a, b) in [
        (
            "callback-break batching",
            "p99 latency s",
            cb_base.p99_s,
            cb_fixed.p99_s,
        ),
        (
            "callback-break batching",
            "aggregate queueing s",
            queueing(&cb_base),
            queueing(&cb_fixed),
        ),
        (
            "reconnect backoff",
            "failed probe ops",
            herd_base.counts.failed as f64,
            herd_fixed.counts.failed as f64,
        ),
        (
            "reconnect backoff",
            "p99 latency s",
            herd_base.p99_s,
            herd_fixed.p99_s,
        ),
    ] {
        println!("| {name:<24} | {metric:<20} | {a:>8.3} | {b:>8.3} |");
    }
}

// ---------------------------------------------------------------------
// vice-top (`bench top`)
// ---------------------------------------------------------------------

/// The pinned storms `top` can render.
const TOP_SCENARIOS: [&str; 3] = ["callback_storm", "login_storm", "corruption_storm"];

/// Runs one pinned storm with tracing (and thus the observer) enabled.
fn top_scenario(name: &str) -> ItcSystem {
    use itc_workload::scenario::{callback_storm, corruption_storm, login_storm};
    use itc_workload::{CallbackStormConfig, CorruptionStormConfig, LoginStormConfig};
    let run = match name {
        "callback_storm" => callback_storm::run(&CallbackStormConfig::small()),
        "login_storm" => login_storm::run(&LoginStormConfig::small()),
        "corruption_storm" => corruption_storm::run(&CorruptionStormConfig::small()),
        other => exit_with(
            "top",
            2,
            format!("unknown scenario \"{other}\" (expected one of {TOP_SCENARIOS:?})"),
        ),
    };
    run.unwrap_or_else(|e| panic!("{name}: {e}")).0
}

fn run_top(args: &[String]) {
    use itc_core::obs::{parse_obs_line, render_console};

    let parse = |text: &str| {
        let lines: Vec<_> = text
            .lines()
            .enumerate()
            .map(|(i, line)| parse_obs_line(line).ok_or(i + 1))
            .collect::<Result<_, _>>()?;
        (!lines.is_empty()).then_some(lines).ok_or(1)
    };
    if let Some(lines) = read_export("top", args, parse) {
        print!("{}", render_console(&lines));
        return;
    }

    // Live console (the default) or JSONL export over one storm.
    let scenario = args
        .iter()
        .position(|a| a == "--scenario")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("callback_storm");
    let sys = top_scenario(scenario);
    if let Some(dir) = export_dir(args, "results/series") {
        let p = sys
            .export_series(dir)
            .unwrap_or_else(|e| exit_with("top", 1, format!("export failed: {e}")));
        println!("wrote {}", p.display());
        return;
    }
    let health = sys.health_events();
    let lines = sys.obs_summary().lines(&health);
    print!("{}", render_console(&lines));
}

// ---------------------------------------------------------------------
// The tracer (`bench trace`)
// ---------------------------------------------------------------------

/// A two-cluster campus with tracing on: four users store and cross-fetch
/// under message drops/delays, one volume goes offline mid-run, and the
/// final call times out against a silent network. Everything is seeded —
/// same seed, same spans, same dumps, byte for byte.
fn demo_scenario(seed: u64) -> ItcSystem {
    use itc_core::config::SystemConfig;
    use itc_sim::{FaultPlan, SimTime};

    let cfg = SystemConfig {
        seed,
        ..SystemConfig::prototype(2, 2)
    };
    let mut sys = ItcSystem::build(cfg);
    sys.enable_tracing();
    for i in 0..4usize {
        let user = format!("u{i}");
        sys.add_user(&user, "pw").expect("fresh system");
        sys.create_user_volume(&user, i as u32 / 2)
            .expect("fresh system");
        sys.login(i, &user, "pw").expect("fresh system");
        sys.ops()
            .store(i, &format!("/vice/usr/u{i}/data"), vec![i as u8; 6_000])
            .expect("store");
    }

    // Phase 1: lossy network, cross-cluster reads.
    sys.install_faults(
        FaultPlan::new(seed ^ 0xfa)
            .drop_request_prob(0.10)
            .drop_reply_prob(0.08)
            .delay(0.15, SimTime::from_millis(250)),
    );
    for i in 0..4usize {
        let _ = sys
            .ops()
            .fetch(i, &format!("/vice/usr/u{}/data", (i + 2) % 4));
        let _ = sys.ops().stat(i, &format!("/vice/usr/u{i}/data"));
    }

    // Phase 2: a volume drops out; the next validation gets the degraded
    // reply and the flight recorder freezes it.
    sys.set_volume_online("/vice/usr/u1", false)
        .expect("volume exists");
    let _ = sys.ops().fetch(1, "/vice/usr/u1/data");
    sys.set_volume_online("/vice/usr/u1", true)
        .expect("volume exists");

    // Phase 3: the network goes silent; one call burns every retry and
    // the recorder freezes the timeout.
    sys.install_faults(FaultPlan::new(seed).drop_request_prob(1.0));
    let _ = sys.ops().stat(0, "/vice/usr/u0/data");
    sys
}

/// An exported dump, re-rendered: header summary, then the span tree of
/// the implicated trace (or of all frozen spans when the dump is not tied
/// to one call, e.g. a utilization peak).
fn dump_report(d: &itc_sim::AnomalyDump) -> String {
    let mut out = format!(
        "anomaly {}: {} at t={}s",
        d.index,
        d.reason,
        d.at.as_micros() / 1_000_000,
    );
    if let Some(s) = d.server {
        out.push_str(&format!(" server={s}"));
    }
    if let Some(v) = d.volume {
        out.push_str(&format!(" volume={v}"));
    }
    out.push_str(&format!(" ({} frozen spans)\n\n", d.spans.len()));
    let focus: Vec<_> = d
        .spans
        .iter()
        .filter(|s| !d.trace.is_traced() || s.trace == d.trace)
        .collect();
    out.push_str(&itc_core::trace::render_span_tree(d.trace, &focus));
    out
}

/// The tracer's counters, the attribution tables by server and by volume,
/// and the integrity ledger summed across servers.
fn print_summary(sys: &ItcSystem) {
    let stats = sys.trace_stats();
    println!(
        "tracer: {} traces, {} spans recorded ({} evicted), {} anomalies frozen\n",
        stats.traces, stats.spans, stats.evicted, stats.anomalies
    );
    let summary = sys.attribution().summary();
    let row_fmt = |label: String, r: &itc_core::AttributionRow| {
        println!(
            "  {label:<10} {:>6} calls  queue {:>8.3}s  service {:>8.3}s  net {:>8.3}s  \
             wasted {:>8.3}s  p50 {:>6.3}s  p90 {:>6.3}s",
            r.calls,
            r.queueing.as_micros() as f64 / 1e6,
            r.service.as_micros() as f64 / 1e6,
            r.network.as_micros() as f64 / 1e6,
            r.wasted.as_micros() as f64 / 1e6,
            r.p50_s,
            r.p90_s,
        );
    };
    println!("latency attribution by server:");
    for r in &summary.servers {
        row_fmt(format!("server{}", r.key), r);
    }
    println!("latency attribution by volume:");
    for r in &summary.volumes {
        row_fmt(format!("volume{}", r.key), r);
    }
    println!();

    let mut scrub = itc_core::disk::ScrubStats::default();
    for s in 0..sys.server_count() {
        let st = sys.server_scrub_stats(itc_core::proto::ServerId(s as u32));
        scrub.passes += st.passes;
        scrub.volumes_scanned += st.volumes_scanned;
        scrub.files_scanned += st.files_scanned;
        scrub.bytes_scanned += st.bytes_scanned;
        scrub.mismatches_detected += st.mismatches_detected;
        scrub.repaired += st.repaired;
        scrub.offlined += st.offlined;
    }
    let counters = sys.integrity_counters();
    print!(
        "{}",
        itc_core::trace::render_integrity_ledger(&counters, &scrub)
    );
    println!();
}

/// One completed call's span tree and component table.
fn call_report(sys: &ItcSystem, b: &itc_core::CallBreakdown) -> String {
    use itc_core::trace::{render_attribution_table, render_span_tree};
    let tree = render_span_tree(b.trace, &sys.spans_of(b.trace));
    format!("{tree}\n{}", render_attribution_table(b))
}

fn run_trace(args: &[String]) {
    let seed = match args.iter().position(|a| a == "--seed") {
        None => 1985,
        Some(i) => args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| exit_with("trace", 2, "--seed needs an integer")),
    };
    if let Some(d) = read_export("trace", args, itc_core::trace::parse_dump) {
        println!("{}", dump_report(&d));
        return;
    }

    let sys = demo_scenario(seed);
    let attr = sys.attribution();
    if let Some(i) = args.iter().position(|a| a == "--trace") {
        let id = args.get(i + 1).and_then(|s| s.parse().ok()).unwrap_or(0);
        let b = attr.breakdown_of(itc_sim::TraceId(id)).unwrap_or_else(|| {
            exit_with(
                "trace",
                1,
                format!("trace {id} completed no call in this scenario"),
            )
        });
        println!("{}", call_report(&sys, b));
        return;
    }
    if args.iter().any(|a| a == "--anomalies") {
        for (name, text) in sys.render_anomaly_dumps() {
            println!("-- {name}\n{text}");
        }
        return;
    }
    if let Some(dir) = export_dir(args, "results/traces") {
        let paths = sys
            .export_anomaly_dumps(dir)
            .unwrap_or_else(|e| exit_with("trace", 1, format!("export failed: {e}")));
        for p in &paths {
            println!("wrote {}", p.display());
        }
        println!("{} dump(s) exported to {}/", paths.len(), dir.display());
        return;
    }

    // Default report: summary, then the slowest completed call end to end.
    print_summary(&sys);
    let slowest = attr
        .recent()
        .max_by_key(|b| b.total())
        .expect("demo scenario completes calls");
    println!(
        "slowest completed call: trace {} ({} on server{}, {} attempts)\n",
        slowest.trace.0, slowest.kind, slowest.server, slowest.attempts
    );
    println!("{}", call_report(&sys, slowest));
    println!("anomalies frozen: {}", sys.anomaly_dumps().count());
    println!("run `bench trace --anomalies` to print them, `bench trace --export` to write JSONL");
}

// ---------------------------------------------------------------------
// Shared by the subcommands
// ---------------------------------------------------------------------

/// Prints `bench CMD: MSG` on stderr and exits with `code`.
fn exit_with(cmd: &str, code: i32, msg: impl Display) -> ! {
    eprintln!("bench {cmd}: {msg}");
    std::process::exit(code)
}

/// The offline re-render's input: the `FILE.jsonl` argument, if there is
/// one, read and handed to `parse`. An unreadable file, or a line `parse`
/// rejects, exits 1 naming the file (and the line).
fn read_export<T>(
    cmd: &str,
    args: &[String],
    parse: impl FnOnce(&str) -> Result<T, usize>,
) -> Option<T> {
    let path = args.iter().find(|a| a.ends_with(".jsonl"))?;
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| exit_with(cmd, 1, format!("{path}: {e}")));
    let parsed = parse(&text)
        .unwrap_or_else(|line| exit_with(cmd, 1, format!("{path}:{line}: unparseable record")));
    Some(parsed)
}

/// The directory `--export [DIR]` names, `default` when DIR is left out;
/// `None` without the flag.
fn export_dir<'a>(args: &'a [String], default: &'a str) -> Option<&'a Path> {
    let i = args.iter().position(|a| a == "--export")?;
    let dir = args.get(i + 1).filter(|a| !a.starts_with("--"));
    Some(Path::new(dir.map_or(default, String::as_str)))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("top") => run_top(&args[1..]),
        Some("trace") => run_trace(&args[1..]),
        Some("scenario") => run_scenarios(args.iter().any(|a| a == "--full")),
        _ => {
            eprintln!(
                "usage: bench scenario [--full] | bench top [--scenario S] [--export [DIR]] \
                 [FILE.jsonl] | bench trace [--seed N] [--trace ID | --anomalies | \
                 --export [DIR]] [FILE.jsonl]"
            );
            std::process::exit(2);
        }
    }
}
