//! Day-in-the-life storm scenarios: quantitative bounds, flight-recorder
//! coverage, bit-reproducibility, and the before/after proof that the two
//! shipped fixes (callback-break batching, jittered reconnect backoff)
//! move the knee.
//!
//! Each scenario in `crates/workload/src/scenario/` is a scripted storm
//! over one deterministic `ItcSystem`: same seed, same virtual-time
//! interleaving, same attribution JSONL byte for byte. The bounds below
//! were captured from those runs; if one trips, the storm's timing or the
//! event pipeline drifted — diagnose with the frozen anomaly dumps before
//! re-capturing.

use itc_afs::core::config::SystemConfig;
use itc_afs::core::proto::ServerId;
use itc_afs::core::system::ItcSystem;
use itc_afs::core::trace::{parse_dump, parse_span_line, render_dump, render_span};
use itc_afs::sim::{FaultPlan, SimTime};
use itc_workload::scenario::{
    callback_storm, classify_failure, login_storm, release_push, thundering_herd,
};
use itc_workload::{
    CallbackStormConfig, LoginStormConfig, ReleasePushConfig, ThunderingHerdConfig,
};

// ---------------------------------------------------------------------
// Per-storm quantitative bounds + flight-recorder coverage
// ---------------------------------------------------------------------

/// The Monday-9am login storm is survivable: nobody fails, the tail stays
/// under half a minute, and the saturated first minute freezes a
/// `utilization_peak` dump.
#[test]
fn login_storm_survives_within_bounds() {
    let (_, r) = login_storm::run(&LoginStormConfig::small()).unwrap();
    assert_eq!(r.counts.failed, 0, "login storm must not fail anyone");
    assert_eq!(r.timeouts, 0, "no RPC timeouts in a fault-free storm");
    assert_eq!(r.retries, 0);
    assert!(
        r.p99_s < 25.0,
        "login-storm p99 blew the bound: {:.3}s",
        r.p99_s
    );
    assert!(
        r.anomaly_count("utilization_peak") >= 1,
        "the saturated minute must freeze a utilization_peak dump; got {:?}",
        r.anomalies
    );
}

/// The release push revalidates from the nearest read-only replica, so the
/// storm splits across both cluster servers, nobody fails, and the
/// saturated minutes freeze `utilization_peak` dumps.
#[test]
fn release_push_splits_load_and_freezes_peaks() {
    let (_, r) = release_push::run(&ReleasePushConfig::small()).unwrap();
    assert_eq!(r.counts.failed, 0, "release push must not fail anyone");
    assert_eq!(r.timeouts, 0);
    assert!(
        r.p99_s < 30.0,
        "release-push p99 blew the bound: {:.3}s",
        r.p99_s
    );
    assert_eq!(
        r.servers.len(),
        2,
        "replica reads must reach both cluster servers"
    );
    assert!(r.servers.iter().all(|row| row.calls > 0));
    assert!(r.anomaly_count("utilization_peak") >= 1);
}

/// The callback-break storm: batching break notifications per recipient
/// shaves server CPU at the saturation point, and the whole backlog behind
/// it moves — p99 and aggregate queueing both drop, µs-exactly. Both runs
/// freeze the scripted mid-storm `timed_out` dump.
#[test]
fn callback_storm_batching_moves_the_knee() {
    let (_, base) = callback_storm::run(&CallbackStormConfig::small()).unwrap();
    let (_, fixed) = callback_storm::run(&CallbackStormConfig::small().batched()).unwrap();

    // Same workload either way: the fix changes message count and CPU
    // charge, never which calls happen.
    assert_eq!(base.counts.ops, fixed.counts.ops);
    assert_eq!(base.calls, fixed.calls);
    assert_eq!(
        base.counts.failed, 1,
        "exactly the scripted brownout victim"
    );
    assert_eq!(fixed.counts.failed, 1);
    assert_eq!(base.anomaly_count("timed_out"), 1);
    assert_eq!(fixed.anomaly_count("timed_out"), 1);

    let queueing = |r: &itc_workload::ScenarioReport| -> u64 {
        r.servers.iter().map(|row| row.queueing.as_micros()).sum()
    };
    assert!(
        fixed.p99_s < base.p99_s,
        "batching must improve p99: {:.3}s !< {:.3}s",
        fixed.p99_s,
        base.p99_s
    );
    assert!(
        base.p99_s - fixed.p99_s > 0.1,
        "p99 improvement too small to be the batching effect: {:.4}s",
        base.p99_s - fixed.p99_s
    );
    assert!(
        queueing(&fixed) < queueing(&base),
        "batching must shave aggregate queueing: {} !< {}",
        queueing(&fixed),
        queueing(&base)
    );
}

/// The post-restart thundering herd: with the jittered exponential
/// reconnect backoff, failed probes collapse (each one burns a full RPC
/// timeout against the dead server) and the recovery tail shortens. The
/// lossy merged plan also exercises retry and the replay cache — attempts
/// exceed calls and the wasted component is non-zero.
#[test]
fn thundering_herd_backoff_collapses_the_probe_storm() {
    let (_, base) = thundering_herd::run(&ThunderingHerdConfig::small()).unwrap();
    let (_, fixed) = thundering_herd::run(&ThunderingHerdConfig::small().with_backoff()).unwrap();

    assert!(base.counts.failed > 0, "the outage must be felt");
    assert!(
        fixed.counts.failed * 3 < base.counts.failed * 2,
        "backoff must cut failed probes by at least a third: {} vs {}",
        fixed.counts.failed,
        base.counts.failed
    );
    assert!(
        base.p99_s - fixed.p99_s > 5.0,
        "backoff must shorten the recovery tail: {:.3}s vs {:.3}s",
        base.p99_s,
        fixed.p99_s
    );
    for r in [&base, &fixed] {
        assert!(
            r.anomaly_count("unreachable") >= 1,
            "every failed probe freezes an unreachable dump"
        );
        assert!(r.attempts > r.calls, "the lossy plan must force retries");
        assert!(r.timeouts > 0);
        assert!(r.servers.iter().any(|row| row.wasted.as_micros() > 0));
    }
    // Fewer probes means fewer frozen unreachable dumps.
    assert!(fixed.anomaly_count("unreachable") < base.anomaly_count("unreachable"));
}

// ---------------------------------------------------------------------
// Golden pin (style of tests/golden_timings.rs)
// ---------------------------------------------------------------------

/// Exact capture of the small login storm. Every number below is a
/// virtual-time observable of the seeded run; if one drifts, the scenario
/// DSL or the event pipeline changed behavior — fix that, do not
/// re-capture lightly.
#[test]
fn scenario_login_storm_small() {
    let (_, r) = login_storm::run(&LoginStormConfig::small()).unwrap();
    let jsonl = r.jsonl();
    let mut lines = jsonl.lines();
    assert_eq!(
        lines.next().unwrap(),
        "{\"scenario\":\"login_storm\",\"seed\":4241,\"ops\":160,\"failed\":0,\
         \"unreachable\":0,\"timed_out\":0,\"offline\":0,\"calls\":160,\"attempts\":160,\
         \"retries\":0,\"timeouts\":0,\"p50_us\":10339000,\"p90_us\":17987809,\
         \"p99_us\":20270809,\"max_us\":20543209,\"max_queue_cpu_us\":19381934,\
         \"queue_high_water\":1,\"finished_us\":242800595}"
    );
    assert_eq!(
        lines.next().unwrap(),
        "{\"server\":0,\"calls\":160,\"queueing_us\":1397630215,\"service_us\":125120000,\
         \"network_us\":42265184,\"wasted_us\":0,\"p50_us\":10339000,\"p90_us\":17987809}"
    );
    assert_eq!(r.dumps.len(), 1);
    assert!(
        r.dumps[0].0.contains("utilization_peak"),
        "dump name drifted: {}",
        r.dumps[0].0
    );
    // The whole report — rows, anomaly counts, dump marker, and a dump
    // whose header carries `utilization_peak(NN%)` — and the thundering
    // herd's (volume rows, retries, hundreds of `unreachable` dumps),
    // byte for byte as captured before the record spine.
    assert_eq!(jsonl, include_str!("data/scenario_login_storm_small.jsonl"));
    let (_, herd) = thundering_herd::run(&ThunderingHerdConfig::small()).unwrap();
    assert!(
        herd.jsonl() == include_str!("data/scenario_thundering_herd_small.jsonl"),
        "thundering-herd report drifted from the captured bytes"
    );
}

// ---------------------------------------------------------------------
// Bit-reproducibility
// ---------------------------------------------------------------------

/// Same seed ⇒ identical attribution JSONL, byte for byte, for every
/// storm. This is the determinism contract the scenario DSL documents:
/// seeded randomness only, virtual-time interleaving, sorted fan-out.
#[test]
fn storms_are_bit_reproducible() {
    let (_, a) = login_storm::run(&LoginStormConfig::small()).unwrap();
    let (_, b) = login_storm::run(&LoginStormConfig::small()).unwrap();
    assert_eq!(a.jsonl(), b.jsonl(), "login storm drifted between runs");

    let (_, a) = release_push::run(&ReleasePushConfig::small()).unwrap();
    let (_, b) = release_push::run(&ReleasePushConfig::small()).unwrap();
    assert_eq!(a.jsonl(), b.jsonl(), "release push drifted between runs");

    let (_, a) = callback_storm::run(&CallbackStormConfig::small()).unwrap();
    let (_, b) = callback_storm::run(&CallbackStormConfig::small()).unwrap();
    assert_eq!(a.jsonl(), b.jsonl(), "callback storm drifted between runs");

    let (_, a) = thundering_herd::run(&ThunderingHerdConfig::small()).unwrap();
    let (_, b) = thundering_herd::run(&ThunderingHerdConfig::small()).unwrap();
    assert_eq!(a.jsonl(), b.jsonl(), "thundering herd drifted between runs");
}

// ---------------------------------------------------------------------
// Anomaly dumps round-trip through the offline re-renderer
// ---------------------------------------------------------------------

/// Every span line of every frozen dump parses back through the offline
/// re-renderer's `parse_span_line` (the function the `trace` bin applies
/// to exported files) and re-renders to the identical bytes; headers name
/// the expected anomaly. The login-storm dump additionally makes the trip
/// through the filesystem via `export_anomaly_dumps`.
#[test]
fn anomaly_dumps_round_trip_through_the_offline_renderer() {
    let check_round_trip = |sys: &ItcSystem, expected_reason: &str| {
        let dumps = sys.render_anomaly_dumps();
        assert!(!dumps.is_empty());
        let mut saw_expected = false;
        for (name, text) in &dumps {
            let dump = parse_dump(text)
                .unwrap_or_else(|line| panic!("unparseable line {line} in {name}:\n{text}"));
            assert_eq!(&render_dump(&dump), text, "{name} did not round-trip");
            // `utilization_peak` renders with its percentage, e.g.
            // "utilization_peak(98%)" — match on the label prefix.
            saw_expected |= dump.reason.to_string().starts_with(expected_reason);
            assert!(name.ends_with(".jsonl"));
            let mut parsed = 0u64;
            for line in text.lines().skip(1) {
                let span = parse_span_line(line)
                    .unwrap_or_else(|| panic!("unparseable span line in {name}: {line}"));
                assert_eq!(
                    render_span(&span),
                    line,
                    "span did not round-trip byte-identically in {name}"
                );
                parsed += 1;
            }
            assert_eq!(parsed, dump.spans.len() as u64, "span count in {name}");
        }
        assert!(
            saw_expected,
            "no dump froze the expected reason {expected_reason:?}"
        );
    };

    let (sys, _) = login_storm::run(&LoginStormConfig::small()).unwrap();
    check_round_trip(&sys, "utilization_peak");

    // Through the filesystem: export, re-read, same bytes.
    let dir = std::env::temp_dir().join(format!("itc-scenario-dumps-{}", std::process::id()));
    let paths = sys.export_anomaly_dumps(&dir).unwrap();
    let rendered = sys.render_anomaly_dumps();
    assert_eq!(paths.len(), rendered.len());
    for (path, (name, text)) in paths.iter().zip(&rendered) {
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), name);
        assert_eq!(&std::fs::read_to_string(path).unwrap(), text);
    }
    std::fs::remove_dir_all(&dir).ok();

    let (sys, _) = release_push::run(&ReleasePushConfig::small()).unwrap();
    check_round_trip(&sys, "utilization_peak");
    let (sys, _) = callback_storm::run(&CallbackStormConfig::small()).unwrap();
    check_round_trip(&sys, "timed_out");
    let (sys, _) = thundering_herd::run(&ThunderingHerdConfig::small()).unwrap();
    check_round_trip(&sys, "unreachable");
}

// ---------------------------------------------------------------------
// Replay cache across a server epoch bump (property test)
// ---------------------------------------------------------------------

/// Under a duplicate-heavy lossy network spanning a crash/restart, the
/// client must never read data older than the last store it saw succeed:
/// duplicated replies are discarded by the channel sequence check, the
/// write-ahead journal keeps every acknowledged mutation across the
/// crash, and the epoch bump invalidates suspect cache entries instead of
/// serving them. A store that errors out is allowed to have either
/// happened or not (at-most-once), and the versions the server reports
/// never regress.
#[test]
fn replay_cache_never_serves_stale_across_epoch_bump() {
    let mut dup_total = 0u64;
    let mut drop_total = 0u64;
    for seed in [7u64, 1985, 0xeb0c] {
        let mut cfg = SystemConfig::revised(1, 1);
        cfg.seed = seed;
        let mut sys = ItcSystem::build(cfg);
        sys.add_user("u000", "pw-u000").unwrap();
        sys.create_user_volume("u000", 0).unwrap();
        sys.login(0, "u000", "pw-u000").unwrap();
        let path = "/vice/usr/u000/f.dat";
        sys.ops().store(0, path, vec![0u8; 1000]).unwrap();

        let t_crash = sys.ws_time(0) + SimTime::from_secs(60);
        let mut plan = FaultPlan::new(seed ^ 0xd00f)
            .drop_request_prob(0.10)
            .drop_reply_prob(0.20)
            .duplicate_reply_prob(0.35);
        plan.schedule_crash(0, t_crash);
        plan.schedule_restart(0, t_crash + SimTime::from_secs(45));
        sys.install_faults(plan);

        // `confirmed` is the last store the client saw succeed; an
        // errored store leaves the file in one of two states until the
        // next successful read resolves it.
        let mut confirmed: u8 = 0;
        let mut in_doubt: Option<u8> = None;
        let mut last_version: u64 = 0;
        for i in 1..=40u8 {
            let at = sys.ws_time(0) + SimTime::from_secs(7);
            sys.ops().advance_ws(0, at);
            match sys.ops().store(0, path, vec![i; 1000 + usize::from(i)]) {
                Ok(()) => {
                    confirmed = i;
                    in_doubt = None;
                }
                Err(e) => {
                    assert!(
                        classify_failure(&e).is_some(),
                        "seed {seed}: structural error from store #{i}: {e:?}"
                    );
                    in_doubt = Some(i);
                }
            }
            match sys.ops().fetch(0, path) {
                Ok(bytes) => {
                    let tag = bytes[0];
                    let acceptable =
                        tag == confirmed || in_doubt.map(|d| tag == d).unwrap_or(false);
                    assert!(
                        acceptable,
                        "seed {seed}: stale read after store #{i}: got tag {tag}, \
                         confirmed {confirmed}, in doubt {in_doubt:?}"
                    );
                    // A read resolves the in-doubt store one way or the
                    // other.
                    confirmed = tag;
                    in_doubt = None;
                    let v = sys.ops().stat(0, path).unwrap().version;
                    assert!(
                        v >= last_version,
                        "seed {seed}: version regressed {last_version} -> {v}"
                    );
                    last_version = v;
                }
                Err(e) => {
                    assert!(
                        classify_failure(&e).is_some(),
                        "seed {seed}: structural error from fetch #{i}: {e:?}"
                    );
                }
            }
        }
        assert!(
            sys.server_epoch(ServerId(0)) >= 1,
            "seed {seed}: the crash must bump the server epoch"
        );
        dup_total += sys.fault_stats().replies_duplicated;
        drop_total += sys.fault_stats().replies_dropped;
        assert_eq!(
            sys.call_stats().duplicates_ignored,
            sys.fault_stats().replies_duplicated,
            "seed {seed}: every duplicated reply must be discarded, not served"
        );
    }
    assert!(dup_total > 0, "the plans must actually duplicate replies");
    assert!(drop_total > 0, "the plans must actually drop replies");
}
