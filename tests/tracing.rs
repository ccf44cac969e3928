//! Acceptance tests for causal request tracing, latency attribution, and
//! the anomaly flight recorder.
//!
//! The contract under test (DESIGN.md §11):
//!
//! 1. Tracing is observation-only: the golden-timings captures and a
//!    fault-heavy fingerprint are bit-identical with tracing on or off.
//! 2. Every completed call's span components sum *exactly* (in integer
//!    microseconds) to its end-to-end virtual latency.
//! 3. A trace id minted at the client is carried on the wire and appears
//!    verbatim in the server-side spans of the same call.
//! 4. A seeded timeout produces a deterministic flight-recorder dump
//!    naming the implicated server; an offline volume produces one naming
//!    the volume; a saturated minute produces a utilization-peak dump.
//! 5. Anomaly export is byte-identical across two same-seed runs.

use itc_afs::core::config::SystemConfig;
use itc_afs::core::proto::ServerId;
use itc_afs::core::system::ItcSystem;
use itc_afs::sim::{AnomalyReason, FaultPlan, SimTime, SpanClass, TraceId, TraceStats};
use itc_workload::day::{run_day_on, DayConfig};
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// 1. Zero perturbation
// ---------------------------------------------------------------------

/// The short golden day re-run with tracing enabled: every pre-refactor
/// capture from `tests/golden_timings.rs` must hold bit-identically.
#[test]
fn golden_short_day_is_bit_identical_with_tracing_enabled() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(1, 1));
    sys.enable_tracing();
    let report = run_day_on(&mut sys, &DayConfig::short()).unwrap();
    let m = &report.metrics;

    assert_eq!(report.ops, 86);
    assert_eq!(sys.now().as_micros(), 1_786_043_255);
    assert_eq!(m.total_calls(), 85);
    assert_eq!(sys.total_server_calls_of("fetch"), 18);
    assert_eq!(sys.total_server_calls_of("store"), 2);
    assert_eq!(sys.total_server_calls_of("validate"), 37);
    assert_eq!(sys.total_server_calls_of("getstatus"), 21);
    assert_eq!(sys.total_server_calls_of("getcustodian"), 2);
    assert_eq!(m.cache.hits, 37);
    assert_eq!(m.cache.misses, 18);
    assert_eq!(sys.call_stats().attempts, 85);
    assert_eq!(
        sys.server(ServerId(0)).cpu().busy_total().as_micros(),
        61_615_000
    );

    // And tracing actually observed the day: one trace per attempt, spans
    // at every hop, attribution over every completed call.
    let ts = sys.trace_stats();
    assert_eq!(ts.traces, 85);
    assert!(ts.spans >= 5 * 85, "five hops per fault-free call");
    assert!(m.attribution.is_some(), "metrics carry attribution");
}

/// The scripted 2-cluster trace with tracing enabled: per-op virtual
/// timestamps are unchanged to the microsecond.
#[test]
fn golden_scripted_ops_are_bit_identical_with_tracing_enabled() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(2, 2));
    sys.enable_tracing();
    sys.add_user("satya", "pw").unwrap();
    sys.create_user_volume("satya", 1).unwrap();
    sys.login(0, "satya", "pw").unwrap();

    let mut trace = Vec::new();
    sys.ops().mkdir_p(0, "/vice/usr/shared").unwrap();
    trace.push(sys.ws_time(0).as_micros());
    sys.ops()
        .store(0, "/vice/usr/shared/a.txt", vec![7u8; 12_000])
        .unwrap();
    trace.push(sys.ws_time(0).as_micros());
    let d = sys.ops().fetch(0, "/vice/usr/shared/a.txt").unwrap();
    assert_eq!(d.len(), 12_000);
    trace.push(sys.ws_time(0).as_micros());
    let st = sys.ops().stat(0, "/vice/usr/shared/a.txt").unwrap();
    trace.push(sys.ws_time(0).as_micros());
    assert_eq!(st.version, 1);
    sys.ops()
        .store(0, "/vice/usr/satya/far.txt", vec![1u8; 3000])
        .unwrap();
    trace.push(sys.ws_time(0).as_micros());
    let _ = sys.ops().fetch(0, "/vice/usr/satya/far.txt").unwrap();
    trace.push(sys.ws_time(0).as_micros());
    sys.ops()
        .rename(0, "/vice/usr/shared/a.txt", "/vice/usr/shared/b.txt")
        .unwrap();
    trace.push(sys.ws_time(0).as_micros());
    sys.ops().unlink(0, "/vice/usr/shared/b.txt").unwrap();
    trace.push(sys.ws_time(0).as_micros());

    assert_eq!(
        trace,
        [
            2_732_411, 4_648_347, 5_812_017, 6_737_312, 9_533_986, 10_711_669, 12_002_905,
            12_708_254
        ]
    );
    assert_eq!(sys.now().as_micros(), 12_708_254);
    assert_eq!(sys.metrics().total_calls(), 14);
    assert_eq!(sys.call_stats().attempts, 14);
}

/// A fault-heavy workload (drops, duplicates, delays, a crash/restart)
/// folded into a fingerprint: tracing on vs. off must not move a single
/// virtual-time observable.
#[test]
fn faulty_fingerprint_is_identical_with_tracing_on_and_off() {
    assert_eq!(faulty_fingerprint(false), faulty_fingerprint(true));
}

fn faulty_fingerprint(tracing: bool) -> String {
    let mut sys = faulty_system(2026, tracing);
    let mut fp = String::new();
    for i in 0..4usize {
        let r = sys
            .ops()
            .fetch(i, &format!("/vice/usr/u{}/data", (i + 2) % 4));
        match r {
            Ok(d) => writeln!(fp, "fetch {i} ok {}", d.len()).unwrap(),
            Err(e) => writeln!(fp, "fetch {i} err {e}").unwrap(),
        }
        writeln!(fp, "ws {i} at {}", sys.ws_time(i).as_micros()).unwrap();
    }
    let cs = sys.call_stats();
    let fs = sys.fault_stats();
    writeln!(
        fp,
        "now {} attempts {} retries {} timeouts {} dup {} fail {} faults {}/{}/{}/{}",
        sys.now().as_micros(),
        cs.attempts,
        cs.retries,
        cs.timeouts,
        cs.duplicates_ignored,
        cs.failures,
        fs.requests_dropped,
        fs.replies_dropped,
        fs.replies_duplicated,
        fs.delays_injected,
    )
    .unwrap();
    fp
}

/// A 2-cluster, 4-workstation system with per-user volumes, everyone
/// logged in and seeded with one stored file, and a message-fault plan
/// (plus a crash/restart of server 1) installed.
fn faulty_system(seed: u64, tracing: bool) -> ItcSystem {
    let cfg = SystemConfig {
        seed,
        ..SystemConfig::prototype(2, 2)
    };
    let mut sys = ItcSystem::build(cfg);
    if tracing {
        sys.enable_tracing();
    }
    for i in 0..4usize {
        let user = format!("u{i}");
        sys.add_user(&user, "pw").unwrap();
        sys.create_user_volume(&user, i as u32 / 2).unwrap();
        sys.login(i, &user, "pw").unwrap();
        sys.ops()
            .store(i, &format!("/vice/usr/u{i}/data"), vec![i as u8; 4_000])
            .unwrap();
    }
    let mut plan = FaultPlan::new(seed ^ 0xfa)
        .drop_request_prob(0.10)
        .drop_reply_prob(0.08)
        .duplicate_reply_prob(0.05)
        .delay(0.15, SimTime::from_millis(250));
    plan.schedule_crash(1, SimTime::from_secs(40));
    plan.schedule_restart(1, SimTime::from_secs(70));
    sys.install_faults(plan);
    sys
}

/// Rounds of cross-volume fetches, stats and stores by every workstation
/// of a [`faulty_system`], outcomes ignored.
fn faulty_rounds(sys: &mut ItcSystem, rounds: std::ops::Range<usize>) {
    for round in rounds {
        for i in 0..4usize {
            let far = format!("/vice/usr/u{}/data", (i + 1) % 4);
            let _ = sys.ops().fetch(i, &far);
            let _ = sys.ops().stat(i, &format!("/vice/usr/u{i}/data"));
            let _ = sys.ops().store(
                i,
                &format!("/vice/usr/u{i}/r{round}"),
                vec![round as u8; 1_000 + 500 * i],
            );
        }
    }
}

/// The switch is the system's, not the collector's: with tracing off, a
/// faulty run — retries, timeouts and calls aborting unbound against the
/// crashed server — mints, records, freezes and attributes nothing, and
/// switching it off mid-run leaves the counters where they stand.
#[test]
fn tracing_off_records_nothing_even_when_calls_abort() {
    let mut on = faulty_system(2026, true);
    faulty_rounds(&mut on, 0..6);
    let dumps = on.render_anomaly_dumps();
    assert!(
        dumps.iter().any(|(name, _)| name.contains("-unreachable-")),
        "the workload must abort calls unbound while server 1 is down"
    );

    let mut off = faulty_system(2026, false);
    faulty_rounds(&mut off, 0..6);
    assert_eq!(off.trace_stats(), TraceStats::default());
    assert!(off.render_anomaly_dumps().is_empty());
    assert_eq!(off.attribution().recent().count(), 0);

    let before = on.trace_stats();
    on.disable_tracing();
    faulty_rounds(&mut on, 6..9);
    assert_eq!(on.trace_stats(), before);
    assert_eq!(on.render_anomaly_dumps(), dumps);
}

// ---------------------------------------------------------------------
// 2. Exact component decomposition
// ---------------------------------------------------------------------

/// Every completed call's components — retry waste, request network,
/// CPU/disk queueing and service, reply network, injected fault delay —
/// sum exactly (integer microseconds, no epsilon) to its end-to-end
/// virtual latency.
#[test]
fn span_components_sum_exactly_to_end_to_end_latency() {
    let mut sys = faulty_system(2026, true);
    faulty_rounds(&mut sys, 0..6);

    let attr = sys.attribution();
    let mut checked = 0u64;
    let mut with_queueing = 0u64;
    let mut with_retry = 0u64;
    let mut with_delay = 0u64;
    for b in attr.recent() {
        assert_eq!(
            b.components_sum(),
            b.total(),
            "decomposition of {:?} ({}) does not add up",
            b.trace,
            b.kind
        );
        assert_eq!(b.total(), b.finished - b.started);
        assert!(b.attempts >= 1);
        assert!(b.service_cpu > SimTime::ZERO, "every call burns server CPU");
        checked += 1;
        if b.queueing() > SimTime::ZERO {
            with_queueing += 1;
        }
        if b.retry_wasted > SimTime::ZERO {
            with_retry += 1;
        }
        if b.fault_delay > SimTime::ZERO {
            with_delay += 1;
        }
    }
    assert!(
        checked >= 40,
        "expected a substantial sample, got {checked}"
    );
    assert!(with_retry > 0, "fault plan should force some retries");
    assert!(with_delay > 0, "fault plan should delay some messages");
    // Four clients share two servers: somebody queued.
    assert!(with_queueing > 0, "contention should show up as queueing");

    // The rollups are consistent with the per-call ring: below the ring's
    // retention cap, the per-server totals count exactly the breakdowns
    // recorded, and the per-volume rollup never exceeds it (calls outside
    // any volume are not attributed to one).
    let total_calls: u64 = attr.per_server().values().map(|t| t.calls).sum();
    assert_eq!(total_calls, checked, "per-server rollup == recorded calls");
    let volume_calls: u64 = attr.per_volume().values().map(|t| t.calls).sum();
    assert!(volume_calls <= total_calls);
    assert!(volume_calls > 0, "user-volume traffic is attributed");
}

// ---------------------------------------------------------------------
// 3. End-to-end trace-id propagation
// ---------------------------------------------------------------------

/// The id minted at the client rides the wire frame: the server-side
/// spans (request arrival, service dispatch) of a fault-free call carry
/// the same id, in causal order.
#[test]
fn trace_ids_propagate_through_server_side_spans() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(1, 1));
    sys.enable_tracing();
    sys.add_user("eve", "pw").unwrap();
    sys.create_user_volume("eve", 0).unwrap();
    sys.login(0, "eve", "pw").unwrap();
    sys.ops()
        .store(0, "/vice/usr/eve/f.txt", b"payload".to_vec())
        .unwrap();

    let last = sys
        .attribution()
        .recent()
        .last()
        .expect("store completed a traced call")
        .clone();
    assert!(last.trace.is_traced());
    assert_eq!(last.kind, "store");

    let spans = sys.spans_of(last.trace);
    let classes: Vec<SpanClass> = spans.iter().map(|s| s.class).collect();
    assert_eq!(
        classes,
        [
            SpanClass::AttemptSend,
            SpanClass::RequestArrive,
            SpanClass::ServiceDispatch,
            SpanClass::ReplyDepart,
            SpanClass::ReplyArrive,
        ],
        "fault-free call records exactly one span per hop"
    );
    for w in spans.windows(2) {
        assert!(w[0].seq < w[1].seq, "seq numbers are causally ordered");
        assert!(w[0].at <= w[1].at, "virtual time never runs backwards");
    }
    // The server-side hops decoded the id from the wire frame — they did
    // not copy the client's bookkeeping — so equality here is proof of
    // propagation.
    let arrive = spans[1];
    assert_eq!(arrive.trace, last.trace);
    assert_eq!(arrive.server, Some(0));
    assert_eq!(spans[2].kind, Some("store"));
    assert_eq!(spans[4].at - spans[0].at, last.total() - last.retry_wasted);
}

/// Each cluster's collector mints its own ids (the cluster rides in the
/// top bits), and a call's spans live in the collector of the cluster that
/// issued it: `spans_of` finds the whole chain of every retained call,
/// from either cluster, and nothing for an id no cluster minted.
#[test]
fn spans_of_reads_the_collector_of_the_cluster_that_minted_the_id() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(2, 2));
    sys.enable_tracing();
    for ws in 0..4usize {
        let user = format!("u{ws}");
        sys.add_user(&user, "pw").unwrap();
        sys.create_user_volume(&user, ws as u32 / 2).unwrap();
        sys.login(ws, &user, "pw").unwrap();
        sys.ops()
            .store(ws, &format!("/vice/usr/{user}/f"), vec![ws as u8; 1_000])
            .unwrap();
    }
    for ws in 0..4usize {
        let other = format!("/vice/usr/u{}/f", (ws + 2) % 4);
        sys.ops().fetch(ws, &other).unwrap();
    }

    let attr = sys.attribution();
    let mut clusters: Vec<usize> = attr.recent().map(|b| b.trace.cluster()).collect();
    clusters.sort();
    clusters.dedup();
    assert_eq!(clusters, [0, 1], "calls were issued from both clusters");
    for b in attr.recent() {
        let classes: Vec<SpanClass> = sys.spans_of(b.trace).iter().map(|s| s.class).collect();
        assert_eq!(
            classes.first(),
            Some(&SpanClass::AttemptSend),
            "{}: {classes:?}",
            b.trace
        );
        assert_eq!(
            classes.last(),
            Some(&SpanClass::ReplyArrive),
            "{}: {classes:?}",
            b.trace
        );
    }
    assert!(sys.spans_of(TraceId((7 << 48) | 1)).is_empty());
}

// ---------------------------------------------------------------------
// 4. The flight recorder
// ---------------------------------------------------------------------

/// Runs a scenario whose every request is dropped: the call exhausts its
/// retries and the flight recorder freezes a timed-out dump naming the
/// saturated server. Returns the rendered dumps.
fn timeout_scenario(seed: u64) -> (ItcSystem, Vec<(String, String)>) {
    let cfg = SystemConfig {
        seed,
        ..SystemConfig::prototype(1, 1)
    };
    let mut sys = ItcSystem::build(cfg);
    sys.enable_tracing();
    sys.add_user("eve", "pw").unwrap();
    sys.create_user_volume("eve", 0).unwrap();
    sys.login(0, "eve", "pw").unwrap();
    sys.ops()
        .store(0, "/vice/usr/eve/f.txt", b"payload".to_vec())
        .unwrap();
    // From here on the network eats every request.
    sys.install_faults(FaultPlan::new(seed).drop_request_prob(1.0));
    let err = sys
        .ops()
        .stat(0, "/vice/usr/eve/f.txt")
        .expect_err("no request ever arrives");
    let msg = err.to_string();
    assert!(msg.contains("timed out"), "unexpected error: {msg}");
    let dumps = sys.render_anomaly_dumps();
    (sys, dumps)
}

#[test]
fn seeded_timeout_freezes_a_dump_naming_the_server() {
    let (sys, dumps) = timeout_scenario(7);
    let cs = sys.call_stats();
    assert!(cs.timeouts >= 1);
    assert_eq!(cs.failures, 1);

    let timed_out: Vec<_> = sys
        .anomaly_dumps()
        .filter(|d| d.reason == AnomalyReason::TimedOut)
        .collect();
    assert_eq!(timed_out.len(), 1, "exactly one exhausted call");
    let d = timed_out[0];
    assert_eq!(d.server, Some(0), "the dump names the implicated server");
    assert!(d.trace.is_traced());
    // The frozen window shows the retry storm: every attempt and every
    // timer expiry of the doomed call, ending in the abort.
    let attempts = d
        .spans
        .iter()
        .filter(|s| s.trace == d.trace && s.class == SpanClass::AttemptSend)
        .count();
    let fires = d
        .spans
        .iter()
        .filter(|s| s.trace == d.trace && s.class == SpanClass::TimeoutFire)
        .count();
    assert_eq!(attempts, fires, "each attempt died by timer");
    assert!(attempts >= 2, "retry policy sent more than one attempt");
    assert!(d
        .spans
        .iter()
        .any(|s| s.trace == d.trace && s.class == SpanClass::CallAbort));

    // The rendered JSONL names the server on its header line.
    let (name, text) = &dumps[0];
    assert!(name.ends_with(".jsonl"), "dump file name: {name}");
    assert!(name.contains("timed_out"), "dump file name: {name}");
    let header = text.lines().next().unwrap();
    assert!(header.contains("\"reason\":\"timed_out\""), "{header}");
    assert!(header.contains("\"server\":0"), "{header}");
}

#[test]
fn offline_volume_reply_freezes_a_dump_naming_the_volume() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(1, 1));
    sys.enable_tracing();
    sys.add_user("eve", "pw").unwrap();
    let vol = sys.create_user_volume("eve", 0).unwrap();
    sys.login(0, "eve", "pw").unwrap();
    sys.ops()
        .store(0, "/vice/usr/eve/f.txt", b"payload".to_vec())
        .unwrap();
    sys.set_volume_online("/vice/usr/eve", false).unwrap();
    // Check-on-open: the re-open validates against the custodian, which
    // answers that the volume is offline.
    sys.ops()
        .fetch(0, "/vice/usr/eve/f.txt")
        .expect_err("volume is offline");

    let hit = sys
        .anomaly_dumps()
        .find(|d| d.reason == AnomalyReason::VolumeOffline)
        .expect("degraded reply freezes a dump");
    assert_eq!(hit.server, Some(0));
    assert_eq!(hit.volume, Some(vol.0), "the dump names the volume");
    assert!(hit.trace.is_traced());
}

/// A store big enough that software decryption alone pins the server CPU
/// for minutes on end: the one-minute utilization probe trips the
/// recorder for every fully saturated bucket.
#[test]
fn utilization_peak_trips_the_flight_recorder() {
    let cfg = SystemConfig {
        encryption: itc_afs::sim::costs::EncryptionMode::Software,
        ..SystemConfig::prototype(1, 1)
    };
    let mut sys = ItcSystem::build(cfg);
    sys.enable_tracing();
    sys.add_user("u0", "pw").unwrap();
    sys.login(0, "u0", "pw").unwrap();
    // 8 MB at 20 µs/byte of software crypt ≈ 160 s of CPU in a single
    // service interval — minute bucket 1 is busy end to end.
    sys.ops()
        .store(0, "/vice/tmp/monster", vec![1u8; 8 << 20])
        .unwrap();
    sys.ops().stat(0, "/vice/tmp/monster").unwrap();

    let peaks: Vec<_> = sys
        .anomaly_dumps()
        .filter(|d| matches!(d.reason, AnomalyReason::UtilizationPeak(p) if p >= 98))
        .collect();
    assert!(!peaks.is_empty(), "saturated minute should freeze a dump");
    assert!(peaks.iter().all(|d| d.server == Some(0)));
    // Dedup: one dump per (server, resource, minute), not one per reply —
    // at most two (CPU + disk) per saturated minute.
    let minute = itc_afs::sim::resource::BUCKET_WIDTH.as_micros();
    let mut per_minute: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for d in &peaks {
        *per_minute.entry(d.at.as_micros() / minute).or_default() += 1;
    }
    assert!(
        per_minute.values().all(|&n| n <= 2),
        "peak dumps must dedup per resource-minute: {per_minute:?}"
    );
}

// ---------------------------------------------------------------------
// 5. Deterministic export
// ---------------------------------------------------------------------

/// Two same-seed runs render and export byte-identical anomaly JSONL.
#[test]
fn anomaly_export_is_byte_identical_across_same_seed_runs() {
    let (sys_a, dumps_a) = timeout_scenario(42);
    let (sys_b, dumps_b) = timeout_scenario(42);
    assert!(!dumps_a.is_empty());
    assert_eq!(dumps_a, dumps_b, "rendered dumps must match byte-for-byte");

    let base = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let dir_a = base.join("traces_a");
    let dir_b = base.join("traces_b");
    let wrote_a = sys_a.export_anomaly_dumps(&dir_a).unwrap();
    let wrote_b = sys_b.export_anomaly_dumps(&dir_b).unwrap();
    assert_eq!(wrote_a.len(), wrote_b.len());
    for (pa, pb) in wrote_a.iter().zip(&wrote_b) {
        assert_eq!(pa.file_name(), pb.file_name());
        assert_eq!(
            std::fs::read(pa).unwrap(),
            std::fs::read(pb).unwrap(),
            "exported files must match byte-for-byte"
        );
    }

    // A different seed shifts virtual timestamps (login nonces burn RNG
    // draws differently), so the export is allowed to differ — but the
    // anomaly structure (one timed-out dump) is stable.
    let (_, dumps_c) = timeout_scenario(43);
    assert_eq!(dumps_c.len(), dumps_a.len());

    // And across commits: the small callback storm's dumps (one scripted
    // timeout; header `reason` in its `Display` form, null ids, every span
    // class of a call) against the bytes captured before the record spine
    // replaced the hand-written templates.
    use itc_workload::scenario::callback_storm;
    let cfg = itc_workload::CallbackStormConfig::small();
    let (sys, _) = callback_storm::run(&cfg).expect("storm runs");
    let frozen = [(
        "anomaly-000-timed_out-s0.jsonl".to_string(),
        include_str!("data/callback_small_anomaly-000-timed_out-s0.jsonl").to_string(),
    )];
    assert_eq!(sys.render_anomaly_dumps(), frozen);
}

/// `breakdown_of` finds a completed call by id, and the rendered span
/// tree / attribution table (`bench trace`'s building blocks) mention
/// the call's hops and components.
#[test]
fn breakdown_lookup_and_renderers_cover_the_call() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(1, 1));
    sys.enable_tracing();
    sys.add_user("eve", "pw").unwrap();
    sys.create_user_volume("eve", 0).unwrap();
    sys.login(0, "eve", "pw").unwrap();
    sys.ops()
        .store(0, "/vice/usr/eve/f.txt", vec![9u8; 30_000])
        .unwrap();

    let attr = sys.attribution();
    let last = attr.recent().last().unwrap().clone();
    let by_id = attr.breakdown_of(last.trace).unwrap();
    assert_eq!(by_id.finished, last.finished);
    assert!(attr.breakdown_of(TraceId(u64::MAX)).is_none());

    let spans = sys.spans_of(last.trace);
    let tree = itc_afs::core::trace::render_span_tree(last.trace, &spans);
    for label in [
        "attempt_send",
        "request_arrive",
        "service_dispatch",
        "reply_depart",
        "reply_arrive",
    ] {
        assert!(tree.contains(label), "span tree missing {label}:\n{tree}");
    }
    let table = itc_afs::core::trace::render_attribution_table(&last);
    for needle in ["queue", "service", "network", "total"] {
        assert!(table.contains(needle), "table missing {needle}:\n{table}");
    }
}
