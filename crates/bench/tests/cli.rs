//! Argument parsing and file round-trips of the `bench` operator CLI. What
//! it prints is pinned by the library tests (`tests/obs.rs`,
//! `tests/tracing.rs`); these drive the real executable so the flags that
//! select it are covered too.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("bin runs")
}

fn stdout_of(bin: &str, args: &[&str]) -> String {
    let out = run(bin, args);
    assert!(out.status.success(), "{bin} {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const BENCH: &str = env!("CARGO_BIN_EXE_bench");

#[test]
fn bench_top_prints_the_console_golden() {
    let golden = include_str!("../../../tests/data/vice_top_callback_small.txt");
    assert_eq!(stdout_of(BENCH, &["top"]), golden);
    assert_eq!(
        stdout_of(BENCH, &["top", "--scenario", "callback_storm"]),
        golden
    );
}

#[test]
fn bench_top_export_re_renders_to_the_live_console() {
    let dir = fresh_dir("cli_top_export");
    for scenario in ["callback_storm", "login_storm", "corruption_storm"] {
        let dir = dir.join(scenario);
        let live = stdout_of(BENCH, &["top", "--scenario", scenario]);
        let wrote = stdout_of(
            BENCH,
            &[
                "top",
                "--scenario",
                scenario,
                "--export",
                dir.to_str().unwrap(),
            ],
        );
        let file = dir.join("series.jsonl");
        assert_eq!(wrote, format!("wrote {}\n", file.display()));
        assert_eq!(stdout_of(BENCH, &["top", file.to_str().unwrap()]), live);

        // A truncated export is an error naming the damaged line, not a
        // shorter console.
        let text = std::fs::read_to_string(&file).unwrap();
        let cut = dir.join("cut.jsonl");
        std::fs::write(&cut, &text[..text.len() - 9]).unwrap();
        let out = run(BENCH, &["top", cut.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        assert!(out.stdout.is_empty(), "{out:?}");
        let expected = format!(
            "{}:{}: unparseable record",
            cut.display(),
            text.lines().count()
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains(&expected));
    }
}

#[test]
fn bad_arguments_exit_2() {
    let out = run(BENCH, &["top", "--scenario", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scenario \"nope\""));
    assert_eq!(run(BENCH, &[]).status.code(), Some(2));
    assert_eq!(run(BENCH, &["trace", "--seed", "x"]).status.code(), Some(2));
}

/// The demo's slowest call was issued from cluster 1: its span tree comes
/// from that cluster's collector, not an empty lookup in cluster 0's.
#[test]
fn bench_trace_prints_the_slowest_calls_span_tree() {
    let out = stdout_of(BENCH, &["trace"]);
    assert!(out.contains("slowest completed call: trace "), "{out}");
    assert!(!out.contains("no resident spans"), "{out}");
    assert!(out.contains("attempt_send"), "{out}");
}

#[test]
fn trace_export_writes_dumps_that_trace_re_renders() {
    let dir = fresh_dir("cli_trace_export");
    let wrote = stdout_of(BENCH, &["trace", "--export", dir.to_str().unwrap()]);
    let dumps: Vec<&str> = wrote
        .lines()
        .filter_map(|l| l.strip_prefix("wrote "))
        .collect();
    assert!(!dumps.is_empty(), "no dump exported: {wrote}");
    assert!(wrote.ends_with(&format!(
        "{} dump(s) exported to {}/\n",
        dumps.len(),
        dir.display()
    )));
    for dump in &dumps {
        let rendered = stdout_of(BENCH, &["trace", dump]);
        assert!(rendered.starts_with("anomaly "), "{dump}: {rendered}");
        assert!(rendered.contains("frozen spans)"), "{dump}: {rendered}");
    }

    // Damage is an error naming the line, never "anomaly 0 at t=0s" or a
    // shorter span tree: a header without its `reason`, a cut last line.
    let text = std::fs::read_to_string(dumps[0]).unwrap();
    let reason = text.find("\"reason\"").unwrap();
    let comma = reason + text[reason..].find(',').unwrap();
    let spans = text.lines().count();
    for (name, damaged, line) in [
        (
            "no-reason.jsonl",
            format!("{}{}", &text[..reason], &text[comma + 1..]),
            1,
        ),
        ("cut.jsonl", text[..text.len() - 9].to_string(), spans),
    ] {
        let file = dir.join(name);
        std::fs::write(&file, damaged).unwrap();
        let out = run(BENCH, &["trace", file.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        assert!(out.stdout.is_empty(), "{out:?}");
        let expected = format!("{}:{line}: unparseable record", file.display());
        assert!(String::from_utf8_lossy(&out.stderr).contains(&expected));
    }
}
