//! The scenario report's four record kinds under hostile bytes: the same
//! sweep `itc_core::trace` and `itc_core::obs` run over theirs.

use super::*;
use itc_sim::record::Reader;

/// Every prefix of `line` reads as `None`; every single-byte substitution
/// reads as `None` or renders back to exactly the mutated bytes.
fn sweep(line: &str, reparse: impl Fn(&str) -> Option<String>) {
    assert_eq!(reparse(line).as_deref(), Some(line));
    for cut in 0..line.len() {
        assert_eq!(reparse(&line[..cut]), None, "cut at {cut}: {line}");
    }
    let mut bytes = line.as_bytes().to_vec();
    for i in 0..bytes.len() {
        let original = bytes[i];
        for b in 0..128 {
            bytes[i] = b;
            let mutated = std::str::from_utf8(&bytes).expect("ascii");
            if let Some(back) = reparse(mutated) {
                assert_eq!(back, mutated, "byte {i} of {line}");
            }
        }
        bytes[i] = original;
    }
}

#[test]
fn report_lines_survive_truncation_and_substitution() {
    let report = include_str!("../../../../tests/data/scenario_thundering_herd_small.jsonl");
    let line = |key: &str| {
        let found = report.lines().find(|l| l[1..].starts_with(key));
        found.unwrap_or_else(|| panic!("no {key} line"))
    };

    sweep(line("\"scenario\""), |m| {
        Reader::line(m, ScenarioReport::default(), ScenarioReport::header_fields)
            .map(|mut r| Writer::line(&mut r, ScenarioReport::header_fields))
    });
    for key in ["server", "volume"] {
        sweep(line(&format!("\"{key}\"")), |m| {
            Reader::line(m, AttributionRow::default(), |r, f| row_fields(key, r, f))
                .map(|mut r| Writer::line(&mut r, |r, f| row_fields(key, r, f)))
        });
    }
    sweep(line("\"anomaly\""), |m| {
        Reader::line(m, (String::new(), 0), anomaly_fields)
            .map(|mut a| Writer::line(&mut a, anomaly_fields))
    });
    sweep(line("\"dump\":\""), |m| {
        Reader::line(m, String::new(), marker_fields)
            .map(|mut name| Writer::line(&mut name, marker_fields))
    });
}
