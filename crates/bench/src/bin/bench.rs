//! Operator tools over the pinned storm scenarios. Host-time measurement
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
//!   runs); `top FILE.jsonl` re-renders an exported series offline with
//!   no simulation, and exits 1 naming the first line it cannot parse.

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

    let login = if full {
        LoginStormConfig::full()
    } else {
        LoginStormConfig::small()
    };
    let (_, r) = login_storm::run(&login).expect("login storm");
    println!("-- login storm\n{}", r.table());

    let push = if full {
        ReleasePushConfig::full()
    } else {
        ReleasePushConfig::small()
    };
    let (_, r) = release_push::run(&push).expect("release push");
    println!("-- release push\n{}", r.table());

    let cb = if full {
        CallbackStormConfig::full()
    } else {
        CallbackStormConfig::small()
    };
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

    let herd = if full {
        ThunderingHerdConfig::full()
    } else {
        ThunderingHerdConfig::small()
    };
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
    match name {
        "callback_storm" => {
            callback_storm::run(&CallbackStormConfig::small())
                .expect("callback storm")
                .0
        }
        "login_storm" => {
            login_storm::run(&LoginStormConfig::small())
                .expect("login storm")
                .0
        }
        "corruption_storm" => {
            corruption_storm::run(&CorruptionStormConfig::small())
                .expect("corruption storm")
                .0
        }
        other => {
            eprintln!(
                "bench top: unknown scenario \"{other}\" (expected one of {TOP_SCENARIOS:?})"
            );
            std::process::exit(2);
        }
    }
}

fn run_top(args: &[String]) {
    use itc_core::obs::{parse_obs_line, render_console};

    // Offline re-render of an exported series file: no simulation at all,
    // the same parse helpers the live console uses.
    if let Some(path) = args.iter().find(|a| a.ends_with(".jsonl")) {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench top: {path}: {e}");
            std::process::exit(1);
        });
        let lines: Vec<itc_core::ObsLine> = text
            .lines()
            .enumerate()
            .map(|(i, line)| {
                parse_obs_line(line).unwrap_or_else(|| {
                    eprintln!("bench top: {path}:{}: unparseable record", i + 1);
                    std::process::exit(1);
                })
            })
            .collect();
        if lines.is_empty() {
            eprintln!("bench top: {path}: no series lines parsed");
            std::process::exit(1);
        }
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
    if let Some(i) = args.iter().position(|a| a == "--export") {
        let dir = args
            .get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .unwrap_or("results/series");
        match sys.export_series(std::path::Path::new(dir)) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => {
                eprintln!("bench top: export failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let health = sys.health_events();
    let lines = sys.obs_summary().lines(&health);
    print!("{}", render_console(&lines));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("top") => run_top(&args[1..]),
        Some("scenario") => run_scenarios(args.iter().any(|a| a == "--full")),
        _ => {
            eprintln!(
                "usage: bench scenario [--full] | bench top [--scenario S] [--export [DIR]] [FILE.jsonl]"
            );
            std::process::exit(2);
        }
    }
}
