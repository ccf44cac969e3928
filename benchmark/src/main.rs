//! The repo's single benchmark. See `README.md` beside this package.
//!
//! ```text
//! itc-benchmark run                      every workload, every metric, results in out/results.json
//! itc-benchmark run --workload W --seed N --seconds S --trace 0|1
//!                                        one workload, one JSON result line (the BENCHMARK.json contract)
//! itc-benchmark run --smoke              the same workloads at CI size, with the self-checks
//! itc-benchmark run --bless [--smoke]    regenerate expected/*.fp
//! itc-benchmark compare A.json B.json    B against A, per workload and end-to-end metric
//! itc-benchmark manifest                 print BENCHMARK.json
//! ```

mod alloc;
mod compare;
mod json;
mod kernels;
mod measure;
mod metrics;
mod results;
mod spans;
mod stats;
mod workloads;

use itc_core::proto::payload::payload_digest;
use itc_core::system::parallel::RunMode;
use json::Value;
use measure::{out_dir, parallel_threads, Args, Report};
use metrics::RUN_SECONDS;
use std::collections::BTreeSet;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{setup, Drive, Scale, Workload, DEFAULT_SEED};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// `--seconds` of a smoke run: every phase does its minimum.
const SMOKE_SECONDS: f64 = 0.2;

const USAGE: &str = "usage: itc-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--bless]
       itc-benchmark compare A.json B.json
       itc-benchmark manifest";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_command(&args[1..]),
        Some("compare") if args.len() == 3 => compare_command(&args[1], &args[2]),
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// The options of `run`, checked where they enter.
struct RunOptions {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    bless: bool,
}

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut options = RunOptions {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} takes a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                options.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let seconds: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be within (0, 600]".to_string());
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--smoke" => options.smoke = true,
            "--bless" => options.bless = true,
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }
    Ok(options)
}

fn run_command(args: &[String]) -> Result<bool, String> {
    let options = parse_run(args)?;
    let scale = if options.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    if options.bless {
        return bless(scale);
    }
    match options.workload {
        Some(workload) => {
            let report = run_one(Args {
                workload,
                scale,
                seed: options.seed,
                seconds: options.seconds.unwrap_or(if options.smoke {
                    SMOKE_SECONDS
                } else {
                    RUN_SECONDS as f64
                }),
                trace: options.trace.unwrap_or(false),
            })?;
            Ok(report.correct)
        }
        None if options.smoke => smoke(options.seed),
        None => run_all(options.seed, options.seconds.unwrap_or(RUN_SECONDS as f64)),
    }
}

/// One workload in this process: prints every metric by name with its
/// unit, writes the run's result file, and ends with the contract's line.
fn run_one(args: Args) -> Result<Report, String> {
    let t0 = Instant::now();
    let mut report = measure::run(args)?;
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} measured as {}", m.name, m.value));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let text = results::render_run(&report, wall_s);
    let name = results::run_file_name(args.workload, args.scale, args.trace);
    measure::write_out(&name, &text, &mut report.notes);
    for problem in &report.problems {
        eprintln!("FAILED {}: {problem}", args.workload.name());
    }
    print!("{}", results::render_human(&report));
    println!("{}", results::contract_line(&report));
    Ok(report)
}

/// Runs this executable again for one workload, so that its peak RSS and
/// the allocator's adaptive thresholds start fresh. Returns the text of
/// the child's result file.
fn run_child(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("run")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if scale == Scale::Smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "the {} run (trace {}) failed with {}:\n{}{}",
            workload.name(),
            u8::from(trace),
            output.status,
            stdout,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    // Everything but the machine-readable last line is for the reader.
    let human: Vec<&str> = stdout.lines().collect();
    println!("{}", human[..human.len().saturating_sub(1)].join("\n"));
    let path = out_dir().join(results::run_file_name(workload, scale, trace));
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn indent(text: &str, by: &str) -> String {
    text.lines().collect::<Vec<_>>().join(&format!("\n{by}"))
}

/// The whole benchmark: each workload in its own child process, untraced
/// for the end-to-end metrics and traced for the layers.
fn run_all(seed: u64, seconds: f64) -> Result<bool, String> {
    let t0 = Instant::now();
    let mut blocks = Vec::new();
    for workload in Workload::ALL {
        let end_to_end = run_child(workload, Scale::Full, seed, seconds, false)?;
        let layers = run_child(workload, Scale::Full, seed, seconds, true)?;
        blocks.push(format!(
            "    {}: {{\n      \"end_to_end\": {},\n      \"per_layer\": {}\n    }}",
            json::quote(workload.name()),
            indent(&end_to_end, "      "),
            indent(&layers, "      ")
        ));
    }
    let text = format!(
        "{{\n  \"schema\": \"itc-benchmark/v1\",\n  \"claim\": null,\n  \"seed\": {seed},\n  \"run_seconds\": {},\n  \"env\": {},\n  \"wall_s\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json::number(seconds),
        results::render_env(parallel_threads(4)),
        json::number(t0.elapsed().as_secs_f64()),
        blocks.join(",\n")
    );
    let mut notes = Vec::new();
    measure::write_out("results.json", &text, &mut notes);
    for note in notes {
        println!("# {note}");
    }
    Ok(true)
}

/// The four workloads at CI size, with the harness's self-checks: the
/// names emitted are the names `BENCHMARK.json` declares, in both
/// directions; every repetition, sequential and parallel, reproduces the
/// blessed fingerprint; and two runs back to back agree exactly on every
/// count-type metric.
fn smoke(seed: u64) -> Result<bool, String> {
    let manifest = json::parse(include_str!("../../BENCHMARK.json"))?;
    let mut ok = true;
    let mut fail = |workload: Workload, what: String| {
        eprintln!("smoke FAILED: {}: {what}", workload.name());
        ok = false;
    };
    for workload in Workload::ALL {
        for (trace, part) in [(false, "end_to_end"), (true, "per_layer")] {
            let run = || {
                json::parse(&run_child(
                    workload,
                    Scale::Smoke,
                    seed,
                    SMOKE_SECONDS,
                    trace,
                )?)
            };
            let (first, second) = (run()?, run()?);
            let emitted: BTreeSet<&str> = first
                .get("metrics")
                .and_then(Value::as_object)
                .map(|metrics| metrics.keys().map(String::as_str).collect())
                .unwrap_or_default();
            let declared: BTreeSet<&str> = manifest
                .get(part)
                .map(|list| list.as_array().iter())
                .into_iter()
                .flatten()
                .filter_map(|m| m.get("name").and_then(Value::as_str))
                .collect();
            for missing in declared.difference(&emitted) {
                fail(workload, format!("declared but not emitted: {missing}"));
            }
            for extra in emitted.difference(&declared) {
                fail(workload, format!("emitted but not declared: {extra}"));
            }
            for what in compare::differing_exact(&first, &second) {
                fail(workload, format!("differs between two runs: {what}"));
            }
        }
    }
    if ok {
        println!("smoke: ok");
    }
    Ok(ok)
}

/// Regenerates the blessed fingerprints from one sequential and one
/// parallel repetition of every workload at the default seed.
fn bless(scale: Scale) -> Result<bool, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
    for workload in Workload::ALL {
        let threads = parallel_threads(workload.size(scale).clusters);
        let rep = |mode| {
            setup(workload, scale, DEFAULT_SEED, Drive::Plain)
                .run(mode)
                .map(|(outcome, _)| outcome.fingerprint)
                .map_err(|e| format!("{}: {e}", workload.name()))
        };
        let sequential = rep(RunMode::Sequential)?;
        if sequential != rep(RunMode::Parallel(threads))? {
            return Err(format!(
                "{}: Sequential and Parallel({threads}) disagree; nothing blessed",
                workload.name()
            ));
        }
        let path = dir.join(format!("{}{}.fp", workload.name(), scale.suffix()));
        let digest = payload_digest(sequential.as_bytes());
        std::fs::write(&path, format!("{digest:016x}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("blessed {} = {digest:016x}", path.display());
    }
    Ok(true)
}

fn compare_command(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let (table, ok) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(ok)
}
