//! Determinism regression for the discrete-event core.
//!
//! A 40-client, 4-cluster system runs a mixed workload — per-user volumes,
//! cross-cluster fetches, message faults, and a mid-run crash/restart of
//! one server — and every observable is folded into a fingerprint string:
//! per-workstation virtual clocks, the global clock, call/fault/event
//! counters, and the `Display` text of every error. The same seed must
//! produce a bit-identical fingerprint on every run; a different seed must
//! produce a different event interleaving while preserving the structural
//! invariants (event accounting balances, queues drain, successful reads
//! return the stored bytes).

use itc_afs::core::config::SystemConfig;
use itc_afs::core::proto::ServerId;
use itc_afs::core::system::ItcSystem;
use itc_afs::sim::{FaultPlan, SimTime};
use std::fmt::Write as _;

const CLUSTERS: u32 = 4;
const WS_PER_CLUSTER: u32 = 10;

/// Runs the scripted workload and folds every observable into a string.
fn run_fingerprint(seed: u64) -> String {
    let cfg = SystemConfig {
        seed,
        ..SystemConfig::revised(CLUSTERS, WS_PER_CLUSTER)
    };
    let mut sys = ItcSystem::build(cfg);

    let n = (CLUSTERS * WS_PER_CLUSTER) as usize;
    for i in 0..n {
        let user = format!("u{i}");
        sys.add_user(&user, "pw").unwrap();
        sys.create_user_volume(&user, (i as u32) / WS_PER_CLUSTER)
            .unwrap();
    }

    // Message faults on every exchange, plus server 1 crashing mid-run
    // and recovering later. Both are delivered as scheduler events.
    let mut plan = FaultPlan::new(seed ^ 0xfau64)
        .drop_request_prob(0.04)
        .drop_reply_prob(0.03)
        .duplicate_reply_prob(0.05)
        .delay(0.10, SimTime::from_millis(250));
    plan.schedule_crash(1, SimTime::from_secs(6));
    plan.schedule_restart(1, SimTime::from_secs(30));
    sys.install_faults(plan);

    let mut fp = String::new();
    let mut note = |tag: &str, outcome: Result<usize, String>| match outcome {
        Ok(len) => writeln!(fp, "{tag} ok len={len}").unwrap(),
        Err(e) => writeln!(fp, "{tag} err {e}").unwrap(),
    };

    // Phase 1: everyone logs in and stores into their own volume.
    for i in 0..n {
        let user = format!("u{i}");
        let r = sys
            .login(i, &user, "pw")
            .map(|_| 0)
            .map_err(|e| e.to_string());
        note(&format!("login {i}"), r);
        let path = format!("/vice/usr/u{i}/data");
        let body = vec![(i % 251) as u8; 2_000 + 137 * i];
        let r = sys
            .ops()
            .store(i, &path, body)
            .map(|_| 0)
            .map_err(|e| e.to_string());
        note(&format!("store {i}"), r);
    }

    // Phase 2: everyone fetches a neighbouring cluster's file (forces
    // getcustodian traffic and cross-cluster hops), then re-reads its own.
    for i in 0..n {
        let j = (i + WS_PER_CLUSTER as usize) % n;
        let far = format!("/vice/usr/u{j}/data");
        let want = 2_000 + 137 * j;
        let r = sys
            .ops()
            .fetch(i, &far)
            .map_err(|e| e.to_string())
            .map(|d| d.len());
        if let Ok(len) = &r {
            assert_eq!(*len, want, "fetched bytes must match what was stored");
        }
        note(&format!("far {i}"), r);
        let own = format!("/vice/usr/u{i}/data");
        let r = sys
            .ops()
            .fetch(i, &own)
            .map_err(|e| e.to_string())
            .map(|d| d.len());
        note(&format!("own {i}"), r);
    }

    // Fold in every counter the system exposes.
    for i in 0..n {
        writeln!(fp, "ws {i} t={}", sys.ws_time(i).as_micros()).unwrap();
    }
    writeln!(fp, "clock {}", sys.now().as_micros()).unwrap();
    writeln!(fp, "calls {}", sys.metrics().total_calls()).unwrap();
    let cs = sys.call_stats();
    writeln!(
        fp,
        "rpc attempts={} retries={} timeouts={} dups={} failures={}",
        cs.attempts, cs.retries, cs.timeouts, cs.duplicates_ignored, cs.failures
    )
    .unwrap();
    writeln!(fp, "faults {}", sys.fault_stats().total()).unwrap();
    let es = sys.event_stats();
    writeln!(
        fp,
        "events scheduled={} executed={} cancelled={} high_water={}",
        es.scheduled, es.executed, es.cancelled, es.high_water
    )
    .unwrap();

    // Structural invariants, independent of the seed.
    assert!(es.executed > 0, "calls must flow through the scheduler");
    assert!(
        es.scheduled >= es.executed + es.cancelled,
        "event accounting must balance"
    );
    for c in 0..CLUSTERS {
        assert_eq!(
            sys.server(ServerId(c)).queue_depth(),
            0,
            "server {c} queue must drain between operations"
        );
    }
    assert!(cs.attempts >= sys.metrics().total_calls());

    fp
}

#[test]
fn same_seed_is_bit_identical() {
    let a = run_fingerprint(2026);
    let b = run_fingerprint(2026);
    assert_eq!(a, b, "same seed must replay the identical event sequence");
    // The run exercised the interesting machinery: retries and faults.
    assert!(a.contains("faults"), "{a}");
    let faults: u64 = a
        .lines()
        .find_map(|l| l.strip_prefix("faults "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(faults > 0, "the plan must have injected message faults");
}

#[test]
fn different_seed_changes_order_but_not_invariants() {
    let a = run_fingerprint(2026);
    let b = run_fingerprint(31);
    // run_fingerprint itself asserts the invariants for both runs; the
    // interleavings must differ.
    assert_ne!(a, b, "different seeds must produce different schedules");
}
