//! Integration tests for the design-choice ablations: each knob in
//! `SystemConfig` must change the measured behavior in the direction the
//! paper predicts, on identical workloads.

use itc_afs::core::config::{CachePolicy, SystemConfig};
use itc_afs::core::system::ItcSystem;
use itc_afs::sim::{ServerStructure, SimTime, TraversalMode, ValidationMode};

/// A fixed mini-workload: one user re-reads a working set repeatedly.
fn reread_workload(cfg: SystemConfig) -> ItcSystem {
    let mut sys = ItcSystem::build(cfg);
    sys.add_user("u", "pw").unwrap();
    sys.create_user_volume("u", 0).unwrap();
    for i in 0..10 {
        sys.admin_install_file(&format!("/vice/usr/u/f{i}"), vec![7; 20_000])
            .unwrap();
    }
    sys.login(0, "u", "pw").unwrap();
    for _round in 0..5 {
        for i in 0..10 {
            let _ = sys.ops().fetch(0, &format!("/vice/usr/u/f{i}")).unwrap();
        }
    }
    sys
}

#[test]
fn callback_mode_eliminates_warm_open_traffic() {
    let coo = reread_workload(SystemConfig {
        validation: ValidationMode::CheckOnOpen,
        ..SystemConfig::prototype(1, 1)
    });
    let cb = reread_workload(SystemConfig {
        validation: ValidationMode::Callback,
        ..SystemConfig::prototype(1, 1)
    });
    // Check-on-open: 10 fetches + 40 validates. Callback: 10 fetches.
    assert_eq!(coo.total_server_calls_of("validate"), 40);
    assert_eq!(cb.total_server_calls_of("validate"), 0);
    assert_eq!(coo.total_server_calls_of("fetch"), 10);
    assert_eq!(cb.total_server_calls_of("fetch"), 10);
    // Callback state exists only in callback mode.
    assert_eq!(
        coo.server(itc_afs::core::proto::ServerId(0))
            .callback_promises(),
        0
    );
    assert!(
        cb.server(itc_afs::core::proto::ServerId(0))
            .callback_promises()
            > 0
    );
}

#[test]
fn client_side_traversal_moves_cpu_off_the_server() {
    let srv_side = reread_workload(SystemConfig {
        traversal: TraversalMode::ServerSide,
        ..SystemConfig::prototype(1, 1)
    });
    let cli_side = reread_workload(SystemConfig {
        traversal: TraversalMode::ClientSide,
        ..SystemConfig::prototype(1, 1)
    });
    let srv_cpu = srv_side
        .server(itc_afs::core::proto::ServerId(0))
        .cpu()
        .busy_total();
    let cli_cpu = cli_side
        .server(itc_afs::core::proto::ServerId(0))
        .cpu()
        .busy_total();
    assert!(
        cli_cpu < srv_cpu,
        "client-side traversal should reduce server CPU: {cli_cpu} vs {srv_cpu}"
    );
}

#[test]
fn lwp_structure_reduces_per_call_cost() {
    let ppc = reread_workload(SystemConfig {
        structure: ServerStructure::ProcessPerClient,
        ..SystemConfig::prototype(1, 1)
    });
    let lwp = reread_workload(SystemConfig {
        structure: ServerStructure::SingleProcessLwp,
        ..SystemConfig::prototype(1, 1)
    });
    let ppc_busy = ppc
        .server(itc_afs::core::proto::ServerId(0))
        .cpu()
        .busy_total();
    let lwp_busy = lwp
        .server(itc_afs::core::proto::ServerId(0))
        .cpu()
        .busy_total();
    // Same call count, lower CPU per call.
    assert_eq!(ppc.metrics().total_calls(), lwp.metrics().total_calls());
    let diff = ppc_busy - lwp_busy;
    let expected = ppc.config().costs.srv_cpu_context_switch * ppc.metrics().total_calls();
    assert_eq!(
        diff, expected,
        "difference should be exactly the context switches"
    );
}

#[test]
fn count_lru_vs_space_lru_evict_differently() {
    // A working set of 9 files: eight modest, one huge. Count-LRU keeps
    // all nine; a tight space-LRU cannot hold the huge one plus the rest.
    let build = |cache| {
        let mut sys = ItcSystem::build(SystemConfig {
            cache,
            ..SystemConfig::prototype(1, 1)
        });
        sys.add_user("u", "pw").unwrap();
        sys.create_user_volume("u", 0).unwrap();
        for i in 0..8 {
            sys.admin_install_file(&format!("/vice/usr/u/small{i}"), vec![1; 20_000])
                .unwrap();
        }
        sys.admin_install_file("/vice/usr/u/huge", vec![2; 900_000])
            .unwrap();
        sys.login(0, "u", "pw").unwrap();
        for _ in 0..3 {
            for i in 0..8 {
                let _ = sys
                    .ops()
                    .fetch(0, &format!("/vice/usr/u/small{i}"))
                    .unwrap();
            }
            let _ = sys.ops().fetch(0, "/vice/usr/u/huge").unwrap();
        }
        sys
    };

    let by_count = build(CachePolicy::CountLru(100));
    let by_space = build(CachePolicy::SpaceLru(1_000_000));
    // Count policy: everything fits; after the cold round all opens hit.
    assert_eq!(by_count.venus(0).cache().stats().misses, 9);
    // Space policy: the huge file forces churn; strictly more misses.
    assert!(
        by_space.venus(0).cache().stats().misses > 9,
        "space-limited cache should have evicted under pressure"
    );
    // And the space cache respected its byte bound throughout.
    assert!(by_space.venus(0).cache().bytes() <= 1_000_000);
}

#[test]
fn all_sixteen_mode_combinations_work() {
    // Every combination of the four knobs must produce a functioning
    // system (the ablation matrix never hits an unimplemented corner).
    for validation in [ValidationMode::CheckOnOpen, ValidationMode::Callback] {
        for traversal in [TraversalMode::ServerSide, TraversalMode::ClientSide] {
            for structure in [
                ServerStructure::ProcessPerClient,
                ServerStructure::SingleProcessLwp,
            ] {
                for cache in [CachePolicy::CountLru(50), CachePolicy::SpaceLru(5 << 20)] {
                    let cfg = SystemConfig {
                        validation,
                        traversal,
                        structure,
                        cache,
                        ..SystemConfig::prototype(1, 2)
                    };
                    let mut sys = ItcSystem::build(cfg);
                    sys.add_user("x", "pw").unwrap();
                    sys.login(0, "x", "pw").unwrap();
                    sys.ops().mkdir_p(0, "/vice/usr/x").unwrap();
                    sys.ops()
                        .store(0, "/vice/usr/x/t", b"combo".to_vec())
                        .unwrap();
                    assert_eq!(
                        sys.ops().fetch(0, "/vice/usr/x/t").unwrap(),
                        b"combo",
                        "combo failed: {validation:?}/{traversal:?}/{structure:?}/{cache:?}"
                    );
                    assert!(sys.now() > SimTime::ZERO);
                }
            }
        }
    }
}
