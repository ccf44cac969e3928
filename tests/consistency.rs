//! Consistency semantics: Section 3.6's action consistency ("a workstation
//! which fetches a file at the same time that another workstation is
//! storing it, will either receive the old version or the new one, but
//! never a partially modified version") and the store-on-close visibility
//! model, in both validation modes.

use itc_afs::core::config::SystemConfig;
use itc_afs::core::system::ItcSystem;
use itc_afs::sim::{FaultPlan, ScriptedFault, SimTime, ValidationMode};

fn two_users(validation: ValidationMode) -> ItcSystem {
    let cfg = SystemConfig {
        validation,
        ..SystemConfig::prototype(1, 3)
    };
    let mut sys = ItcSystem::build(cfg);
    sys.add_user("a", "pw").unwrap();
    sys.add_user("b", "pw").unwrap();
    sys.login(0, "a", "pw").unwrap();
    sys.login(1, "b", "pw").unwrap();
    sys.ops().mkdir_p(0, "/vice/usr/shared").unwrap();
    sys
}

#[test]
fn fetch_never_sees_a_torn_file() {
    for mode in [ValidationMode::CheckOnOpen, ValidationMode::Callback] {
        let mut sys = two_users(mode);
        let old = vec![b'O'; 100_000];
        let new = vec![b'N'; 120_000];
        sys.ops()
            .store(0, "/vice/usr/shared/f", old.clone())
            .unwrap();

        // Interleave many stores and fetches; every fetch must be exactly
        // the old or exactly the new contents.
        for round in 0..10 {
            let data = if round % 2 == 0 {
                new.clone()
            } else {
                old.clone()
            };
            sys.ops().store(0, "/vice/usr/shared/f", data).unwrap();
            let got = sys.ops().fetch(1, "/vice/usr/shared/f").unwrap();
            let all_same = got.windows(2).all(|w| w[0] == w[1]);
            assert!(all_same, "torn file observed in {mode:?}");
            assert!(got.len() == old.len() || got.len() == new.len());
        }
    }
}

#[test]
fn store_on_close_gives_timesharing_visibility() {
    for mode in [ValidationMode::CheckOnOpen, ValidationMode::Callback] {
        let mut sys = two_users(mode);
        sys.ops()
            .store(0, "/vice/usr/shared/note", b"v1".to_vec())
            .unwrap();
        assert_eq!(sys.ops().fetch(1, "/vice/usr/shared/note").unwrap(), b"v1");
        sys.ops()
            .store(0, "/vice/usr/shared/note", b"v2".to_vec())
            .unwrap();
        // "changes by one user are immediately visible to all other users"
        assert_eq!(
            sys.ops().fetch(1, "/vice/usr/shared/note").unwrap(),
            b"v2",
            "stale read in {mode:?}"
        );
    }
}

#[test]
fn callback_mode_sees_updates_without_polling() {
    let mut sys = two_users(ValidationMode::Callback);
    sys.ops()
        .store(0, "/vice/usr/shared/f", b"v1".to_vec())
        .unwrap();
    let _ = sys.ops().fetch(1, "/vice/usr/shared/f").unwrap();

    // ws1's copy is promise-protected: repeated opens are free.
    let calls = sys.metrics().total_calls();
    for _ in 0..5 {
        assert_eq!(sys.ops().fetch(1, "/vice/usr/shared/f").unwrap(), b"v1");
    }
    assert_eq!(sys.metrics().total_calls(), calls);

    // ws0 updates; the break arrives; ws1's next open refetches.
    sys.ops()
        .store(0, "/vice/usr/shared/f", b"v2".to_vec())
        .unwrap();
    assert_eq!(sys.ops().fetch(1, "/vice/usr/shared/f").unwrap(), b"v2");
}

#[test]
fn callback_breaks_do_not_disturb_the_writer() {
    let mut sys = two_users(ValidationMode::Callback);
    sys.ops()
        .store(0, "/vice/usr/shared/f", b"v1".to_vec())
        .unwrap();
    let _ = sys.ops().fetch(1, "/vice/usr/shared/f").unwrap();
    sys.ops()
        .store(0, "/vice/usr/shared/f", b"v2".to_vec())
        .unwrap();
    // The writer's own cached copy remains valid (it IS the new version).
    let calls = sys.metrics().total_calls();
    assert_eq!(sys.ops().fetch(0, "/vice/usr/shared/f").unwrap(), b"v2");
    assert_eq!(
        sys.metrics().total_calls(),
        calls,
        "writer should hit its own cache"
    );
}

#[test]
fn deletion_propagates_to_other_caches() {
    for mode in [ValidationMode::CheckOnOpen, ValidationMode::Callback] {
        let mut sys = two_users(mode);
        sys.ops()
            .store(0, "/vice/usr/shared/gone", b"x".to_vec())
            .unwrap();
        let _ = sys.ops().fetch(1, "/vice/usr/shared/gone").unwrap();
        sys.ops().unlink(0, "/vice/usr/shared/gone").unwrap();
        assert!(
            sys.ops().fetch(1, "/vice/usr/shared/gone").is_err(),
            "deleted file still readable in {mode:?}"
        );
    }
}

#[test]
fn rename_breaks_the_other_cache_too() {
    // `rename` is not one of the `WsCalls` the storms and days drive:
    // its callback breaks must reach ws1 through the same delivery as a
    // store's.
    let mut sys = two_users(ValidationMode::Callback);
    sys.ops()
        .store(0, "/vice/usr/shared/old", b"v1".to_vec())
        .unwrap();
    let _ = sys.ops().fetch(1, "/vice/usr/shared/old").unwrap();
    let calls = sys.metrics().total_calls();
    assert_eq!(sys.ops().fetch(1, "/vice/usr/shared/old").unwrap(), b"v1");
    assert_eq!(sys.metrics().total_calls(), calls, "promise-protected");

    sys.ops()
        .rename(0, "/vice/usr/shared/old", "/vice/usr/shared/new")
        .unwrap();
    // The break arrived: ws1's next open goes back to Vice, which no
    // longer knows the old name.
    let calls = sys.metrics().total_calls();
    assert!(sys.ops().fetch(1, "/vice/usr/shared/old").is_err());
    assert!(
        sys.metrics().total_calls() > calls,
        "stale copy served from cache"
    );
    assert_eq!(sys.ops().fetch(1, "/vice/usr/shared/new").unwrap(), b"v1");
}

#[test]
fn version_counters_strictly_increase_across_writers() {
    let mut sys = two_users(ValidationMode::CheckOnOpen);
    sys.ops()
        .store(0, "/vice/usr/shared/f", b"1".to_vec())
        .unwrap();
    let mut last = sys.ops().stat(0, "/vice/usr/shared/f").unwrap().version;
    for i in 0..6 {
        let writer = i % 2;
        sys.ops()
            .store(writer, "/vice/usr/shared/f", vec![i as u8 + 2])
            .unwrap();
        let v = sys
            .ops()
            .stat(1 - writer, "/vice/usr/shared/f")
            .unwrap()
            .version;
        assert!(v > last, "version did not advance: {v} after {last}");
        last = v;
    }
}

#[test]
fn virtual_time_always_moves_forward() {
    let mut sys = two_users(ValidationMode::CheckOnOpen);
    let mut prev = SimTime::ZERO;
    for i in 0..20 {
        sys.ops().store(0, "/vice/usr/shared/t", vec![i]).unwrap();
        let now = sys.now();
        assert!(now >= prev);
        prev = now;
    }
    assert!(prev > SimTime::ZERO);
}

#[test]
fn fetch_racing_a_retried_store_sees_old_or_new_never_torn() {
    // Action consistency must survive message loss: a store whose reply is
    // dropped is retried under the same idempotency token, and a reader
    // racing it must see exactly the old or exactly the new version, with
    // the version counter advancing exactly once.
    for mode in [ValidationMode::CheckOnOpen, ValidationMode::Callback] {
        let mut sys = two_users(mode);
        let old = vec![b'O'; 80_000];
        let new = vec![b'N'; 90_000];
        sys.ops()
            .store(0, "/vice/usr/shared/race", old.clone())
            .unwrap();
        let before = sys.ops().stat(0, "/vice/usr/shared/race").unwrap().version;

        let mut plan = FaultPlan::new(0xc01d_5eed);
        plan.inject_once(0, ScriptedFault::DropReply);
        sys.install_faults(plan);

        sys.ops()
            .store(0, "/vice/usr/shared/race", new.clone())
            .unwrap();
        let got = sys.ops().fetch(1, "/vice/usr/shared/race").unwrap();

        assert!(
            got == old || got == new,
            "torn or mixed file observed in {mode:?}: {} bytes",
            got.len()
        );
        assert_eq!(
            sys.ops().stat(1, "/vice/usr/shared/race").unwrap().version,
            before + 1,
            "retried store must bump the version exactly once in {mode:?}"
        );
        assert!(sys.call_stats().retries >= 1, "the drop was never retried");
    }
}
