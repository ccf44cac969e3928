//! Golden-timings equivalence tests.
//!
//! The numbers below were captured from the pre-refactor code, where every
//! Vice call was one synchronous `SystemTransport::call` and `ItcSystem`
//! was a single 1800-line module. The event-pipeline refactor (request
//! departs → arrives → queues → served → reply departs → arrives, all as
//! scheduler events) is required to be *observationally identical* for
//! fault-free runs: same per-op virtual timestamps, same final clocks,
//! same call mixes, same server busy time. If one of these assertions
//! trips, the event chain has drifted from the timing model — fix the
//! chain, do not re-capture the numbers.

use itc_afs::core::proto::ServerId;
use itc_afs::core::system::ItcSystem;
use itc_afs::core::SystemConfig;
use itc_workload::day::{run_day, DayConfig};

/// A short synthetic day on a 1-cluster, 1-workstation prototype system,
/// checked against the synchronous-transport capture.
#[test]
fn short_day_matches_pre_refactor_capture() {
    let day = DayConfig::short();
    let (sys, report) = run_day(SystemConfig::prototype(1, 1), &day).unwrap();
    let m = &report.metrics;

    assert_eq!(report.ops, 86);
    assert_eq!(sys.now().as_micros(), 1_786_043_255);
    assert_eq!(m.total_calls(), 85);

    let golden_calls = [
        ("fetch", 18),
        ("store", 2),
        ("validate", 37),
        ("getstatus", 21),
        ("getcustodian", 2),
        ("makedir", 0),
        ("remove", 0),
        ("setacl", 0),
        ("getacl", 0),
        ("rename", 0),
        ("lock", 0),
        ("unlock", 0),
    ];
    for (kind, expected) in golden_calls {
        assert_eq!(
            sys.total_server_calls_of(kind),
            expected,
            "server call count for {kind:?} drifted"
        );
    }

    assert_eq!(m.cache.hits, 37);
    assert_eq!(m.cache.misses, 18);
    assert_eq!(sys.call_stats().attempts, 85);
    assert_eq!(
        sys.server(ServerId(0)).cpu().busy_total().as_micros(),
        61_615_000
    );
}

/// A scripted mixed workload on a 2-cluster system, checked op-by-op: the
/// workstation's local virtual time after every operation must equal the
/// synchronous-transport trace exactly.
#[test]
fn scripted_ops_match_pre_refactor_trace() {
    let mut sys = ItcSystem::build(SystemConfig::prototype(2, 2));
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
