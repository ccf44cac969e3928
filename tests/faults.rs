//! Deterministic fault injection: lost and duplicated messages, RPC
//! retry with idempotency tokens, server crashes that lose callback state,
//! and recovery after restart.
//!
//! The paper's availability goal (Section 2.2): a single machine failure
//! "should not affect the entire user community", and a user "could, if he
//! so desired, continue work in the presence of... failures". These tests
//! stage exact failures through [`FaultPlan`] and check that the retry
//! machinery, the replay cache, and the epoch-based recovery protocol keep
//! the file system consistent — bit-identically for a given seed.

use itc_afs::core::config::SystemConfig;
use itc_afs::core::proto::ServerId;
use itc_afs::core::system::ItcSystem;
use itc_afs::rpc::{CallStats, RetryPolicy};
use itc_afs::sim::{FaultPlan, FaultStats, ScriptedFault, SimTime, ValidationMode};

const SHARED: &str = "/vice/usr/shared";

/// One cluster, two logged-in users, a shared directory.
fn small_system(validation: ValidationMode) -> ItcSystem {
    let cfg = SystemConfig {
        validation,
        ..SystemConfig::prototype(1, 2)
    };
    let mut sys = ItcSystem::build(cfg);
    sys.add_user("a", "pw").unwrap();
    sys.add_user("b", "pw").unwrap();
    sys.login(0, "a", "pw").unwrap();
    sys.login(1, "b", "pw").unwrap();
    sys.ops().mkdir_p(0, SHARED).unwrap();
    sys
}

/// Two clusters (one server each), callback mode, a user per cluster.
fn two_cluster_system() -> ItcSystem {
    let cfg = SystemConfig {
        validation: ValidationMode::Callback,
        ..SystemConfig::prototype(2, 2)
    };
    let mut sys = ItcSystem::build(cfg);
    sys.add_user("a", "pw").unwrap();
    sys.add_user("b", "pw").unwrap();
    sys.login(0, "a", "pw").unwrap(); // cluster 0, home server 0
    sys.login(2, "b", "pw").unwrap(); // cluster 1, home server 1
    sys.ops().mkdir_p(0, SHARED).unwrap();
    sys
}

// ----------------------------------------------------------------------
// Message loss and the idempotent retry path
// ----------------------------------------------------------------------

#[test]
fn lost_store_reply_is_retried_without_double_apply() {
    for mode in [ValidationMode::CheckOnOpen, ValidationMode::Callback] {
        let mut sys = small_system(mode);
        let file = format!("{SHARED}/f");
        sys.ops().store(0, &file, b"v1".to_vec()).unwrap();
        let before = sys.ops().stat(0, &file).unwrap().version;

        // The server applies the next Store, but its reply is lost. The
        // retry carries the same idempotency token, so the server answers
        // from its replay cache instead of bumping the version again.
        let mut plan = FaultPlan::new(0xfa01);
        plan.inject_once(0, ScriptedFault::DropReply);
        sys.install_faults(plan);

        sys.ops()
            .store(0, &file, b"v2-new-contents".to_vec())
            .unwrap();

        assert_eq!(sys.ops().fetch(1, &file).unwrap(), b"v2-new-contents");
        let after = sys.ops().stat(0, &file).unwrap().version;
        assert_eq!(
            after,
            before + 1,
            "retried store double-applied in {mode:?}: version went {before} -> {after}"
        );
        assert_eq!(sys.fault_stats().replies_dropped, 1);
        let stats = sys.call_stats();
        assert!(stats.retries >= 1, "no retry recorded in {mode:?}");
        assert!(stats.timeouts >= 1, "no timeout recorded in {mode:?}");
        assert_eq!(stats.failures, 0);
    }
}

#[test]
fn lost_store_request_is_retried_and_applied_once() {
    let mut sys = small_system(ValidationMode::Callback);
    let file = format!("{SHARED}/g");
    sys.ops().store(0, &file, b"v1".to_vec()).unwrap();
    let before = sys.ops().stat(0, &file).unwrap().version;

    // The next request to server 0 vanishes before arriving; the server
    // never saw attempt one, so the retry is the first application. The
    // secure channel must accept the retry's sequence number despite the
    // gap left by the lost datagram.
    let mut plan = FaultPlan::new(0xfa02);
    plan.inject_once(0, ScriptedFault::DropRequest);
    sys.install_faults(plan);

    sys.ops().store(0, &file, b"v2".to_vec()).unwrap();

    assert_eq!(sys.ops().fetch(1, &file).unwrap(), b"v2");
    assert_eq!(sys.ops().stat(0, &file).unwrap().version, before + 1);
    assert_eq!(sys.fault_stats().requests_dropped, 1);
    assert!(sys.call_stats().retries >= 1);
}

#[test]
fn duplicated_fetch_reply_is_ignored() {
    let mut sys = small_system(ValidationMode::Callback);
    let file = format!("{SHARED}/dup");
    sys.ops().store(0, &file, b"payload".to_vec()).unwrap();

    // The network delivers the reply to b's next call twice; the channel's
    // sequence check throws the second copy away.
    let mut plan = FaultPlan::new(0xfa03);
    plan.inject_once(0, ScriptedFault::DuplicateReply);
    sys.install_faults(plan);

    assert_eq!(sys.ops().fetch(1, &file).unwrap(), b"payload");
    assert!(sys.call_stats().duplicates_ignored >= 1);
    assert_eq!(sys.fault_stats().replies_duplicated, 1);
    assert_eq!(sys.call_stats().failures, 0);
}

#[test]
fn exhausted_retries_surface_degraded_mode_for_mutations() {
    let mut sys = small_system(ValidationMode::Callback);
    let file = format!("{SHARED}/h");
    sys.ops().store(0, &file, b"v1".to_vec()).unwrap();
    let before = sys.ops().stat(0, &file).unwrap().version;

    // Two attempts allowed, both replies lost: the logical call fails and
    // the mutation is reported as degraded (it WAS applied server-side —
    // the replay cache remembers — but the client cannot know that).
    let timeout = sys.retry_policy().timeout;
    sys.set_retry_policy(RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::standard(timeout)
    });
    let mut plan = FaultPlan::new(0xfa04);
    plan.inject_once(0, ScriptedFault::DropRequest);
    plan.inject_once(0, ScriptedFault::DropRequest);
    sys.install_faults(plan);

    let err = sys.ops().store(0, &file, b"v2".to_vec()).unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("degraded") || msg.contains("timed out"),
        "unexpected failure shape: {msg}"
    );
    assert!(sys.call_stats().failures >= 1);
    // Neither request arrived, so nothing was applied.
    assert_eq!(sys.ops().stat(1, &file).unwrap().version, before);
}

// ----------------------------------------------------------------------
// Server crash: callback state loss, containment, recovery
// ----------------------------------------------------------------------

#[test]
fn crash_is_contained_and_caches_keep_serving() {
    let mut sys = two_cluster_system();
    let shared_file = format!("{SHARED}/doc");
    sys.create_user_volume("b", 1).unwrap(); // b's volume on server 1

    sys.ops().store(0, &shared_file, b"v1".to_vec()).unwrap();
    // b caches the shared file under a callback promise, and works in
    // their own volume once so the custodian hint for it is warm.
    assert_eq!(sys.ops().fetch(2, &shared_file).unwrap(), b"v1");
    assert!(sys.server(ServerId(0)).callback_promises() >= 1);
    sys.ops()
        .store(2, "/vice/usr/b/notes", b"v0".to_vec())
        .unwrap();

    sys.crash_server(ServerId(0));

    // The crash wiped server 0's in-memory callback state.
    assert_eq!(sys.server(ServerId(0)).callback_promises(), 0);

    // b's promise-protected cached copy keeps serving with zero traffic —
    // while the custodian is down nothing can mutate the file, so the
    // copy is genuinely current.
    let calls = sys.metrics().total_calls();
    for _ in 0..3 {
        assert_eq!(sys.ops().fetch(2, &shared_file).unwrap(), b"v1");
    }
    assert_eq!(
        sys.metrics().total_calls(),
        calls,
        "cache hit went to the wire"
    );

    // b's own volume lives on server 1 and is completely unaffected.
    sys.ops()
        .store(2, "/vice/usr/b/notes", b"mine".to_vec())
        .unwrap();
    assert_eq!(sys.ops().fetch(2, "/vice/usr/b/notes").unwrap(), b"mine");

    // a, homed on the crashed server, is degraded for mutations...
    let err = sys
        .ops()
        .store(0, &shared_file, b"v2".to_vec())
        .unwrap_err();
    assert!(format!("{err}").contains("degraded"), "got: {err}");
    // ...and reads of uncached files fail as unreachable.
    let err = sys.ops().fetch(0, &format!("{SHARED}/other")).unwrap_err();
    assert!(format!("{err}").contains("unreachable"), "got: {err}");
}

#[test]
fn restart_recovers_promises_via_epoch_discovery() {
    let mut sys = two_cluster_system();
    let file = format!("{SHARED}/doc");
    sys.ops().store(0, &file, b"v1".to_vec()).unwrap();
    assert_eq!(sys.ops().fetch(2, &file).unwrap(), b"v1");

    let epoch_before = sys.server_epoch(ServerId(0));
    sys.crash_server(ServerId(0));
    sys.restart_server(ServerId(0));
    assert_eq!(sys.server_epoch(ServerId(0)), epoch_before + 1);

    // The restarted server has forgotten b's promise, so a's store cannot
    // send b a break: b's cached copy is stale until b talks to server 0.
    sys.ops().store(0, &file, b"v2".to_vec()).unwrap();
    assert_eq!(
        sys.ops().fetch(2, &file).unwrap(),
        b"v1",
        "staleness window should exist until b contacts the restarted server"
    );

    // b's first genuine exchange with server 0 reveals the new epoch;
    // Venus discards suspect cache entries and revalidates.
    sys.ops()
        .store(2, &format!("{SHARED}/from-b"), b"x".to_vec())
        .unwrap();
    assert_eq!(sys.ops().fetch(2, &file).unwrap(), b"v2");

    // With a fresh promise in place the hit ratio recovers: repeat opens
    // are served locally again.
    let hits_before = sys.venus(2).cache().stats().hits;
    let misses_before = sys.venus(2).cache().stats().misses;
    for _ in 0..5 {
        assert_eq!(sys.ops().fetch(2, &file).unwrap(), b"v2");
    }
    let stats = sys.venus(2).cache().stats();
    assert_eq!(stats.hits, hits_before + 5);
    assert_eq!(stats.misses, misses_before);
}

#[test]
fn scheduled_crash_fires_at_virtual_time() {
    let mut sys = two_cluster_system();
    let file = format!("{SHARED}/t");
    sys.ops().store(0, &file, b"v1".to_vec()).unwrap();

    let crash_at = sys.now() + SimTime::from_secs(60);
    let restart_at = crash_at + SimTime::from_secs(120);
    let mut plan = FaultPlan::new(0xfa05);
    plan.schedule_crash(0, crash_at);
    plan.schedule_restart(0, restart_at);
    sys.install_faults(plan);

    // Before the scheduled time the server works normally.
    sys.ops().store(0, &file, b"v2".to_vec()).unwrap();
    assert!(sys.server(ServerId(0)).is_online());

    // Step past the crash time: the next call finds the server down.
    let t = sys.ws_time(0) + SimTime::from_secs(90);
    sys.ops().advance_ws(0, t);
    let err = sys.ops().store(0, &file, b"v3".to_vec()).unwrap_err();
    assert!(format!("{err}").contains("degraded"), "got: {err}");
    assert!(!sys.server(ServerId(0)).is_online());

    // Step past the restart: service resumes.
    let t = sys.ws_time(0) + SimTime::from_secs(300);
    sys.ops().advance_ws(0, t);
    sys.ops().store(0, &file, b"v4".to_vec()).unwrap();
    assert!(sys.server(ServerId(0)).is_online());
    assert_eq!(sys.ops().fetch(0, &file).unwrap(), b"v4");
}

// ----------------------------------------------------------------------
// Bit-reproducibility
// ----------------------------------------------------------------------

/// Runs a lossy mixed workload and returns everything observable.
fn lossy_run(seed: u64) -> (CallStats, FaultStats, Vec<String>, Vec<u64>, SimTime) {
    let cfg = SystemConfig {
        validation: ValidationMode::Callback,
        seed,
        ..SystemConfig::prototype(2, 2)
    };
    let mut sys = ItcSystem::build(cfg);
    sys.add_user("a", "pw").unwrap();
    sys.add_user("b", "pw").unwrap();
    sys.login(0, "a", "pw").unwrap();
    sys.login(2, "b", "pw").unwrap();
    sys.ops().mkdir_p(0, SHARED).unwrap();

    let mut plan = FaultPlan::new(seed ^ 0xdead_beef)
        .drop_request_prob(0.12)
        .drop_reply_prob(0.08)
        .duplicate_reply_prob(0.05);
    plan.schedule_crash(1, SimTime::from_secs(400));
    plan.schedule_restart(1, SimTime::from_secs(900));
    sys.install_faults(plan);

    let mut outcomes = Vec::new();
    for i in 0..24u64 {
        let ws = if i % 3 == 0 { 2 } else { 0 };
        let file = format!("{SHARED}/w{}", i % 5);
        let r = match i % 4 {
            0 | 1 => sys
                .ops()
                .store(ws, &file, format!("round-{i}").into_bytes())
                .map(|()| "stored".to_string()),
            2 => sys
                .ops()
                .fetch(ws, &file)
                .map(|d| format!("read {} bytes", d.len())),
            _ => sys
                .ops()
                .stat(ws, &file)
                .map(|st| format!("v{}", st.version)),
        };
        outcomes.push(match r {
            Ok(s) => format!("op{i}: {s}"),
            Err(e) => format!("op{i}: error {e}"),
        });
        let t = sys.ws_time(ws) + SimTime::from_secs(40);
        sys.ops().advance_ws(ws, t);
    }

    let versions = (0..5)
        .map(|k| {
            sys.ops()
                .stat(0, &format!("{SHARED}/w{k}"))
                .map(|st| st.version)
                .unwrap_or(0)
        })
        .collect();
    (
        sys.call_stats(),
        sys.fault_stats(),
        outcomes,
        versions,
        sys.now(),
    )
}

#[test]
fn faulty_runs_are_bit_reproducible_per_seed() {
    let (ca, fa, oa, va, ta) = lossy_run(2024);
    let (cb, fb, ob, vb, tb) = lossy_run(2024);
    assert_eq!(ca, cb, "call stats diverged between identical runs");
    assert_eq!(fa, fb, "fault stats diverged between identical runs");
    assert_eq!(oa, ob, "operation outcomes diverged between identical runs");
    assert_eq!(va, vb, "final versions diverged between identical runs");
    assert_eq!(ta, tb, "virtual clock diverged between identical runs");
    // The plan genuinely injected faults and the client genuinely retried.
    assert!(fa.total() > 0, "fault plan injected nothing: {fa:?}");
    assert!(ca.retries > 0, "no retries exercised: {ca:?}");
}
