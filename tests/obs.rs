//! Observability layer: the deterministic metrics time-series, the SLO
//! health engine, and the vice-top operator console (DESIGN.md §15).
//!
//! Everything the observer emits is a pure function of the event
//! sequence — sampled observation-only at event boundaries, no RNG
//! draws, no virtual-time cost — so these tests pin outputs exactly:
//! byte-for-byte series round-trips, an exact console golden, and exact
//! health verdicts per storm. If a pin trips, the event pipeline's
//! timing drifted; diagnose with the flight recorder before re-capturing.

use itc_afs::core::config::SystemConfig;
use itc_afs::core::obs::{parse_obs_line, render_console, render_obs_line};
use itc_afs::core::system::parallel::RunMode;
use itc_afs::core::system::ItcSystem;
use itc_afs::core::ObsLine;
use itc_afs::sim::{HealthRuleKind, SimTime};
use itc_workload::day::{run_day_on, DayConfig};
use itc_workload::scenario::{callback_storm, corruption_storm, login_storm};
use itc_workload::{CallbackStormConfig, CorruptionStormConfig, LoginStormConfig};

// ---------------------------------------------------------------------
// No false positives on a healthy campus
// ---------------------------------------------------------------------

/// A fault-free day — scrubber running, tracing on — produces a full
/// set of series but not a single health event: every rule's threshold
/// sits above what a healthy campus does.
#[test]
fn fault_free_day_raises_no_health_events() {
    let day = DayConfig::short();
    let mut cfg = SystemConfig::prototype(2, 2);
    cfg.tracing = true;
    let mut sys = ItcSystem::build(cfg);
    sys.enable_scrub(SimTime::from_secs(90));
    let report = run_day_on(&mut sys, &day).expect("day runs");
    assert!(report.ops > 0);

    let lines = sys.obs_summary().lines(&sys.health_events());
    assert!(
        lines.iter().any(|l| matches!(l, ObsLine::Server(_))),
        "observer recorded no server series on a traced day"
    );
    assert!(
        lines.iter().any(|l| matches!(l, ObsLine::Cluster(_))),
        "observer recorded no engine series on a traced day"
    );
    let health = sys.health_events();
    assert!(
        health.is_empty(),
        "healthy day raised health events: {health:?}"
    );
}

// ---------------------------------------------------------------------
// The storms the engine must flag
// ---------------------------------------------------------------------

/// The callback storm's scripted mid-storm brownout times out one
/// reader's refetch (four dropped attempts); the retry-rate rule flags
/// the timeout churn, and the break fan-out's queueing pushes the p99 of
/// a closed minute over the tail-latency threshold. Exactly these two
/// verdicts — adjacent breached minutes coalesce into one event each.
#[test]
fn callback_storm_brownout_is_flagged() {
    let (sys, _) = callback_storm::run(&CallbackStormConfig::small()).expect("storm runs");
    let health = sys.health_events();
    assert!(
        health
            .iter()
            .any(|e| e.rule == HealthRuleKind::RetryRate && e.server == 0),
        "brownout timeout churn not flagged: {health:?}"
    );
    assert!(
        health.iter().any(|e| e.rule == HealthRuleKind::TailLatency),
        "storm tail latency not flagged: {health:?}"
    );
    assert_eq!(health.len(), 2, "unexpected extra verdicts: {health:?}");
}

/// The corruption storm's scrub passes detect unrepairable flips and
/// offline the victim volumes; the integrity-burn rule turns each
/// detection bucket into a verdict. Nothing else fires — corruption does
/// not masquerade as a latency or retry problem.
#[test]
fn corruption_storm_offlining_is_flagged() {
    let (sys, _) = corruption_storm::run(&CorruptionStormConfig::small()).expect("storm runs");
    let health = sys.health_events();
    assert!(
        health
            .iter()
            .any(|e| e.rule == HealthRuleKind::IntegrityBurn),
        "volume offlining not flagged: {health:?}"
    );
    assert!(
        health
            .iter()
            .all(|e| e.rule == HealthRuleKind::IntegrityBurn),
        "corruption storm raised non-integrity verdicts: {health:?}"
    );
    assert_eq!(health.len(), 2, "one verdict per detection bucket");
}

// ---------------------------------------------------------------------
// Satellite: cancelled-TimeoutFire churn through SystemMetrics
// ---------------------------------------------------------------------

/// Every acknowledged RPC arms a retransmission timer that its reply
/// then stands down; `SystemMetrics::events.cancelled` counts exactly
/// that churn. The login storm's value is pinned — the calendar-index
/// work (ROADMAP item 1) must change `high_water`, not this count.
#[test]
fn login_storm_cancelled_timer_churn_is_pinned() {
    let (sys, _) = login_storm::run(&LoginStormConfig::small()).expect("storm runs");
    let m = sys.metrics();
    assert!(m.events.cancelled > 0, "no timers were ever stood down");
    assert!(m.events.executed + m.events.cancelled <= m.events.scheduled);
    assert_eq!(m.events.cancelled, 117, "cancelled-timer churn drifted");
}

// ---------------------------------------------------------------------
// The series shape of the three pinned storms
// ---------------------------------------------------------------------

/// Everything `bench top` can show about a pinned storm is a virtual-time
/// observable, so its shape is pinned literally per storm: final clock,
/// events executed, calls, the series' line count split into server /
/// volume / cluster minute buckets (the remainder are health events), and
/// the health verdicts counted per rule.
#[test]
fn storm_series_shapes_are_pinned() {
    type Row = (&'static str, ItcSystem, [u64; 7], &'static str);
    let rows: [Row; 3] = [
        (
            "callback_storm",
            callback_storm::run(&CallbackStormConfig::small())
                .unwrap()
                .0,
            [498_178_925, 3402, 636, 33, 9, 13, 9],
            "retry_rate:1,tail_latency:1",
        ),
        (
            "login_storm",
            login_storm::run(&LoginStormConfig::small()).unwrap().0,
            [242_800_595, 843, 160, 57, 4, 50, 3],
            "",
        ),
        (
            "corruption_storm",
            corruption_storm::run(&CorruptionStormConfig::small())
                .unwrap()
                .0,
            [1_391_899_973, 2305, 424, 82, 48, 16, 16],
            "integrity_burn:2",
        ),
    ];
    for (name, sys, shape, verdicts) in rows {
        let health = sys.health_events();
        let lines = sys.obs_summary().lines(&health);
        let count = |pick: fn(&ObsLine) -> bool| lines.iter().filter(|l| pick(l)).count() as u64;
        let measured = [
            sys.now().as_micros(),
            sys.event_stats().executed,
            sys.metrics().total_calls(),
            lines.len() as u64,
            count(|l| matches!(l, ObsLine::Server(_))),
            count(|l| matches!(l, ObsLine::Volume(_))),
            count(|l| matches!(l, ObsLine::Cluster(_))),
        ];
        assert_eq!(measured, shape, "{name}: series shape drifted");
        assert_eq!(
            count(|l| matches!(l, ObsLine::Health(_))),
            health.len() as u64
        );

        let mut by_rule = std::collections::BTreeMap::<&str, u64>::new();
        for ev in &health {
            *by_rule.entry(ev.rule.label()).or_default() += 1;
        }
        let by_rule: Vec<String> = by_rule.iter().map(|(k, v)| format!("{k}:{v}")).collect();
        assert_eq!(by_rule.join(","), verdicts, "{name}: health verdicts");
    }
}

// ---------------------------------------------------------------------
// Series export: round-trips, disk, schedule-independence
// ---------------------------------------------------------------------

/// The JSONL export parses back line-for-line into the same typed
/// records, re-renders to identical bytes, and the offline console over
/// the parsed lines matches the live console — the `bench top FILE`
/// re-renderer needs no simulator state.
#[test]
fn series_export_round_trips_through_the_offline_renderer() {
    // Each storm's export is also pinned to the bytes captured before the
    // record spine replaced the hand-written templates; the corruption
    // storm's carries `integrity_burn` lines with a non-null `volume`.
    let callback = callback_storm::run(&CallbackStormConfig::small()).expect("storm runs");
    let corruption = corruption_storm::run(&CorruptionStormConfig::small()).expect("storm runs");
    let storms = [
        (
            "callback",
            callback.0,
            include_str!("data/series_callback_small.jsonl"),
        ),
        (
            "corruption",
            corruption.0,
            include_str!("data/series_corruption_small.jsonl"),
        ),
    ];
    for (name, sys, captured) in storms {
        let text = sys.render_series_export();
        assert_eq!(text, captured, "{name}: export drifted");

        let lines: Vec<ObsLine> = text
            .lines()
            .map(|l| parse_obs_line(l).unwrap_or_else(|| panic!("unparseable line: {l}")))
            .collect();
        let rerendered: String = lines
            .iter()
            .map(|l| format!("{}\n", render_obs_line(l)))
            .collect();
        assert_eq!(text, rerendered, "render -> parse -> render must be exact");

        let live = render_console(&sys.obs_summary().lines(&sys.health_events()));
        assert_eq!(render_console(&lines), live);

        // Export to disk and read back: same bytes (mirrors the
        // anomaly-dump round-trip).
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        let path = sys.export_series(&dir).expect("export");
        assert_eq!(path.file_name().unwrap(), "series.jsonl");
        assert_eq!(std::fs::read_to_string(path).expect("read back"), text);
    }
}

/// The observer must not see the parallel schedule: the full series
/// export of the four-cluster login storm is byte-identical between the
/// sequential and 4-worker runs.
#[test]
fn series_export_is_schedule_independent() {
    let cfg = LoginStormConfig::parallel();
    let (seq, _) = login_storm::run_mode(&cfg, RunMode::Sequential).expect("storm runs");
    let (par, _) = login_storm::run_mode(&cfg, RunMode::Parallel(4)).expect("storm runs");
    assert_eq!(
        seq.render_series_export(),
        par.render_series_export(),
        "series export diverged between schedules"
    );
}

// ---------------------------------------------------------------------
// The console golden
// ---------------------------------------------------------------------

/// The vice-top console over the callback storm, pinned byte-for-byte
/// (the same output `bench top` prints). The golden shows the storm's
/// whole arc: the warm-up minute, the break fan-out driving the p99 and
/// cancel columns up, and the two health verdicts at the bottom.
#[test]
fn vice_top_console_is_golden_pinned() {
    let (sys, _) = callback_storm::run(&CallbackStormConfig::small()).expect("storm runs");
    let console = render_console(&sys.obs_summary().lines(&sys.health_events()));
    let golden = include_str!("data/vice_top_callback_small.txt");
    assert_eq!(console, golden, "vice-top console drifted from the golden");
}

// ---------------------------------------------------------------------
// Observation-only: tracing off means no series, same timings
// ---------------------------------------------------------------------

/// With tracing off the observer is never consulted: no series, no
/// health events, and (checked exhaustively by the golden-timing suite)
/// the same virtual timeline. The operator pays for vice-top only when
/// the flight recorder is already on.
#[test]
fn observer_is_silent_with_tracing_off() {
    let day = DayConfig::short();
    let mut sys = ItcSystem::build(SystemConfig::prototype(2, 2));
    let _ = run_day_on(&mut sys, &day).expect("day runs");
    assert!(sys.obs_summary().lines(&[]).is_empty());
    assert!(sys.health_events().is_empty());
}
