//! Result files: what a run writes down, and the one line the benchmark
//! contract asks for.

use crate::json::{number, quote};
use crate::measure::Report;
use crate::metrics::per_layer;
use crate::workloads::{Scale, Workload};
use std::fmt::Write as _;

/// The host and build the numbers came from.
pub fn render_env(threads: usize) -> String {
    format!(
        "{{\"nproc\": {}, \"threads\": {threads}, \"rustc\": {}, \"profile\": {}}}",
        std::thread::available_parallelism().map_or(1, usize::from),
        quote(env!("BENCH_RUSTC_VERSION")),
        quote(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    )
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Smoke => "smoke",
    }
}

/// File name of one run's result under the output directory.
pub fn run_file_name(workload: Workload, scale: Scale, trace: bool) -> String {
    format!(
        "{}{}.trace{}.json",
        workload.name(),
        scale.suffix(),
        u8::from(trace)
    )
}

/// Everything one run of one workload found, as a JSON object.
pub fn render_run(report: &Report, wall_s: f64) -> String {
    let args = &report.args;
    let mut out = String::new();
    let strings = |items: &[String]| {
        items
            .iter()
            .map(|s| quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    writeln!(out, "{{").unwrap();
    writeln!(out, "  \"workload\": {},", quote(args.workload.name())).unwrap();
    writeln!(out, "  \"scale\": {},", quote(scale_name(args.scale))).unwrap();
    writeln!(out, "  \"trace\": {},", u8::from(args.trace)).unwrap();
    writeln!(out, "  \"seed\": {},", args.seed).unwrap();
    writeln!(out, "  \"seconds\": {},", number(args.seconds)).unwrap();
    writeln!(out, "  \"env\": {},", render_env(report.threads)).unwrap();
    writeln!(
        out,
        "  \"size\": {},",
        args.workload.size(args.scale).render()
    )
    .unwrap();
    writeln!(out, "  \"wall_s\": {},", number(wall_s)).unwrap();
    writeln!(out, "  \"correct\": {},", report.correct).unwrap();
    writeln!(out, "  \"attempted\": {},", report.attempted).unwrap();
    writeln!(out, "  \"failed\": {},", report.failed).unwrap();
    writeln!(out, "  \"fingerprint\": \"{:016x}\",", report.fingerprint).unwrap();
    writeln!(out, "  \"problems\": [{}],", strings(&report.problems)).unwrap();
    writeln!(out, "  \"notes\": [{}],", strings(&report.notes)).unwrap();
    writeln!(out, "  \"metrics\": {{").unwrap();
    let layers = per_layer();
    for (i, m) in report.metrics.iter().enumerate() {
        // A layer metric carries its prediction: the layer it prices and
        // the end-to-end metric and workload it should move.
        let prediction = layers
            .iter()
            .find(|l| l.name == m.name)
            .map_or(String::new(), |l| {
                format!(
                    ", \"layer\": {}, \"moves\": {}, \"on\": {}",
                    quote(l.layer),
                    quote(l.moves),
                    quote(l.on)
                )
            });
        let samples = report
            .samples
            .get(m.name.as_str())
            .map_or(String::new(), |s| {
                let list = s.iter().map(|&x| number(x)).collect::<Vec<_>>().join(", ");
                format!(", \"samples\": [{list}]")
            });
        let comma = if i + 1 == report.metrics.len() {
            ""
        } else {
            ","
        };
        writeln!(
            out,
            "    {}: {{\"value\": {}, \"unit\": {}{samples}{prediction}}}{comma}",
            quote(&m.name),
            number(m.value),
            quote(m.unit)
        )
        .unwrap();
    }
    writeln!(out, "  }}").unwrap();
    write!(out, "}}").unwrap();
    out
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn contract_line(report: &Report) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    )
}

/// Every metric by name, with its unit, for a reader.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    let args = &report.args;
    writeln!(
        out,
        "# {} ({}, seed {}, {} s, trace {}, {} threads, fingerprint {:016x})",
        args.workload.name(),
        scale_name(args.scale),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.threads,
        report.fingerprint
    )
    .unwrap();
    for m in &report.metrics {
        let samples = report
            .samples
            .get(m.name.as_str())
            .map_or(String::new(), |s| format!("  (median of {})", s.len()));
        writeln!(out, "{:<44} {:>18.6} {}{samples}", m.name, m.value, m.unit).unwrap();
    }
    for note in &report.notes {
        writeln!(out, "# {note}").unwrap();
    }
    out
}
