//! `compare A.json B.json`: B against A, per workload and end-to-end
//! metric, each difference held against the metric's own bound.

use crate::json::{self, Value};
use crate::metrics::{is_exact, Better, END_TO_END};
use crate::stats::quartile_spread;
use crate::workloads::Workload;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B is worse than A by more than the bound.
    Regressed,
    /// The repetitions of one side spread wider than the bound: the runs
    /// cannot tell a change that size from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    }
}

pub fn verdict(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn samples_spread(metric: &Value) -> f64 {
    let samples: Vec<f64> = metric
        .get("samples")
        .map(|s| s.as_array().iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    quartile_spread(&samples).unwrap_or(0.0)
}

/// What must repeat exactly between two runs of one workload and trace
/// mode but does not: the fingerprint, and every count-type metric.
pub fn differing_exact(a: &Value, b: &Value) -> Vec<String> {
    let mut differing = Vec::new();
    if a.get("fingerprint") != b.get("fingerprint") {
        differing.push("fingerprint".to_string());
    }
    let metrics = |run: &Value| run.get("metrics").and_then(Value::as_object).cloned();
    let (Some(ma), Some(mb)) = (metrics(a), metrics(b)) else {
        differing.push("metrics (missing)".to_string());
        return differing;
    };
    for (name, va) in &ma {
        let unit = va.get("unit").and_then(Value::as_str).unwrap_or("");
        let (va, vb) = (va.get("value"), mb.get(name).and_then(|m| m.get("value")));
        if is_exact(name, unit) && va != vb {
            differing.push(format!("{name} ({va:?} then {vb:?})"));
        }
    }
    differing
}

/// The table, and whether everything in it is `ok` and identical where it
/// has to be. `Err` when the two files are not comparable at all.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let a = json::parse(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = json::parse(b_text).map_err(|e| format!("second file: {e}"))?;
    let mut out = String::new();
    let mut all_ok = true;
    writeln!(
        out,
        "{:<12} {:<20} {:>16} {:>16} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    )
    .unwrap();
    for workload in Workload::ALL {
        let name = workload.name();
        let side = |file: &Value, which: &str, part: &str| {
            file.get("workloads")
                .and_then(|w| w.get(name))
                .and_then(|w| w.get(part))
                .cloned()
                .ok_or_else(|| format!("{which} file has no {part} results for {name}"))
        };
        let (a_e2e, b_e2e) = (
            side(&a, "first", "end_to_end")?,
            side(&b, "second", "end_to_end")?,
        );
        // Numbers compare only at equal threads, sizes, scale and seed.
        for key in ["seed", "size", "scale", "seconds"] {
            if a_e2e.get(key) != b_e2e.get(key) {
                return Err(format!(
                    "{name}: the two runs differ in {key}; not comparable"
                ));
            }
        }
        let threads = |v: &Value| v.get("env").and_then(|e| e.get("threads")).cloned();
        if threads(&a_e2e) != threads(&b_e2e) {
            return Err(format!(
                "{name}: the two runs used different system.parallel.threads; not comparable"
            ));
        }
        for m in END_TO_END {
            let metric = |v: &Value| v.get("metrics").and_then(|ms| ms.get(m.name)).cloned();
            let (Some(ma), Some(mb)) = (metric(&a_e2e), metric(&b_e2e)) else {
                return Err(format!("{name}: {} is missing from one file", m.name));
            };
            let (Some(va), Some(vb)) = (
                ma.get("value").and_then(Value::as_f64),
                mb.get("value").and_then(Value::as_f64),
            ) else {
                return Err(format!("{name}: {} has no value in one file", m.name));
            };
            let worse = worse_by(m.better, va, vb);
            let spread = samples_spread(&ma).max(samples_spread(&mb));
            let v = verdict(worse, spread, m.bound);
            all_ok &= v == Verdict::Ok;
            writeln!(
                out,
                "{name:<12} {:<20} {va:>16.4} {vb:>16.4} {:>8.2}% {:>7.2}% {:>6.1}%  {}",
                m.name,
                worse * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                v.as_str()
            )
            .unwrap();
        }
        // What must repeat exactly: the fingerprint and every count.
        let mut differing = Vec::new();
        for part in ["end_to_end", "per_layer"] {
            let (Ok(ra), Ok(rb)) = (side(&a, "first", part), side(&b, "second", part)) else {
                continue;
            };
            differing.extend(
                differing_exact(&ra, &rb)
                    .into_iter()
                    .map(|what| format!("{part} {what}")),
            );
        }
        if differing.is_empty() {
            writeln!(
                out,
                "{name:<12} fingerprints and every count-type metric identical"
            )
            .unwrap();
        } else {
            all_ok = false;
            writeln!(out, "{name:<12} DIFFER: {}", differing.join(", ")).unwrap();
        }
    }
    Ok((out, all_ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 100.0, 90.0) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.04, 0.02, 0.10), Verdict::Ok);
        assert_eq!(verdict(-0.30, 0.02, 0.10), Verdict::Ok);
        assert_eq!(verdict(0.11, 0.02, 0.10), Verdict::Regressed);
        // A spread wider than the bound wins over either outcome.
        assert_eq!(verdict(0.11, 0.12, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.00, 0.12, 0.10), Verdict::Unresolved);
    }

    fn file(threads: u32, events: f64, samples: &str, msgs: u64) -> String {
        let mut workloads = Vec::new();
        for w in Workload::ALL {
            let metrics: Vec<String> = END_TO_END
                .iter()
                .map(|m| {
                    if m.name == "events_per_s" {
                        format!("\"{}\": {{\"value\": {events}, \"unit\": \"1/s\", \"samples\": [{samples}]}}", m.name)
                    } else {
                        format!("\"{}\": {{\"value\": 5, \"unit\": \"{}\"}}", m.name, m.unit)
                    }
                })
                .collect();
            let head = format!("\"seed\": 1985, \"size\": {{\"rounds\": 3}}, \"scale\": \"full\", \"seconds\": 20, \"env\": {{\"threads\": {threads}}}, \"fingerprint\": \"00ff\"");
            workloads.push(format!(
                "\"{}\": {{\"end_to_end\": {{{head}, \"metrics\": {{{}}}}}, \"per_layer\": {{{head}, \"metrics\": {{\"cryptbox.msgs\": {{\"value\": {msgs}, \"unit\": \"count\"}}, \"cryptbox.seal_open_ns\": {{\"value\": {events}, \"unit\": \"ns\"}}}}}}}}",
                w.name(),
                metrics.join(", ")
            ));
        }
        format!("{{\"workloads\": {{{}}}}}", workloads.join(", "))
    }

    #[test]
    fn compares_two_result_files() {
        let steady = "99, 100, 100, 101, 100";
        let a = file(2, 100.0, steady, 7);
        let (table, ok) = compare(&a, &file(2, 95.0, steady, 7)).expect("comparable");
        assert!(ok, "{table}");
        let (table, ok) = compare(&a, &file(2, 80.0, steady, 7)).expect("comparable");
        assert!(!ok && table.contains("regressed"), "{table}");
        let (table, ok) =
            compare(&a, &file(2, 100.0, "70, 100, 100, 130, 100", 7)).expect("comparable");
        assert!(!ok && table.contains("unresolved"), "{table}");
        // A count that moved is a difference however small; a time is not.
        let (table, ok) = compare(&a, &file(2, 100.0, steady, 8)).expect("comparable");
        assert!(
            !ok && table.contains("DIFFER: per_layer cryptbox.msgs"),
            "{table}"
        );
        assert!(
            compare(&a, &file(4, 100.0, steady, 7)).is_err(),
            "different threads"
        );
        assert!(compare(&a, "{}").is_err());
    }
}
