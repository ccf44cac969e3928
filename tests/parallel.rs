//! Parallel-determinism regression: the conservative-PDES engine must
//! produce bit-identical timelines to the sequential reference executor
//! on every workload shape — single-cluster (zero lookahead to exploit),
//! the replicated multi-cluster day, an all-cross-bridge storm, and a
//! server crash/restart concurrent with in-flight bridge traffic — and
//! identical interleavings across repeated runs of the same seed.

use itc_afs::core::config::SystemConfig;
use itc_afs::core::protect::{AccessList, Rights};
use itc_afs::core::proto::ServerId;
use itc_afs::core::system::parallel::{ClusterMask, ExecutorStats, RunMode, WsDriver};
use itc_afs::core::system::{ItcSystem, SystemError};
use itc_afs::sim::{FaultPlan, SimRng, SimTime};
use itc_afs::workload::scenario::{login_storm, OpCounts};
use itc_afs::workload::{run_day_drivers, DayConfig, LoginStormConfig, ScriptDriver};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Folds every virtual-time observable of a finished system into one
/// string: per-workstation clocks, the global clock, call/event/fault
/// counters, and the per-server call tallies. Any divergence between two
/// schedules of the same workload shows up here.
fn fingerprint(sys: &ItcSystem) -> String {
    let mut fp = String::new();
    for ws in 0..sys.workstation_count() {
        writeln!(fp, "ws {ws} t={}", sys.ws_time(ws).as_micros()).unwrap();
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
    let es = sys.event_stats();
    writeln!(
        fp,
        "events scheduled={} executed={} cancelled={}",
        es.scheduled, es.executed, es.cancelled
    )
    .unwrap();
    writeln!(fp, "faults {}", sys.fault_stats().total()).unwrap();
    for s in 0..sys.server_count() {
        let srv = sys.server(ServerId(s as u32));
        writeln!(fp, "server {s} calls={}", srv.stats().total_calls()).unwrap();
    }
    fp
}

fn day_fingerprint(cfg: SystemConfig, day: &DayConfig, mode: RunMode) -> (u64, String) {
    let mut sys = ItcSystem::build(cfg);
    let report = run_day_drivers(&mut sys, day, mode).expect("day runs");
    (report.ops, fingerprint(&sys))
}

#[test]
fn single_cluster_degenerates_to_sequential() {
    // One cluster: no lookahead to exploit, every mask is the same
    // singleton, so the parallel scheduler serializes — and must land on
    // exactly the sequential timeline.
    let day = DayConfig {
        duration: SimTime::from_mins(5),
        ..DayConfig::short()
    };
    let seq = day_fingerprint(SystemConfig::prototype(1, 4), &day, RunMode::Sequential);
    let par = day_fingerprint(SystemConfig::prototype(1, 4), &day, RunMode::Parallel(4));
    assert_eq!(seq, par);
}

#[test]
fn multi_cluster_day_parallel_is_bit_identical() {
    let day = DayConfig {
        duration: SimTime::from_mins(5),
        replicate_binaries: true,
        ..DayConfig::short()
    };
    let seq = day_fingerprint(SystemConfig::prototype(4, 2), &day, RunMode::Sequential);
    for threads in [2, 4, 8] {
        let par = day_fingerprint(
            SystemConfig::prototype(4, 2),
            &day,
            RunMode::Parallel(threads),
        );
        assert_eq!(seq, par, "divergence at {threads} threads");
    }
}

#[test]
fn identical_interleavings_across_three_runs_per_seed() {
    // The satellite-2 guarantee: with HashMap iteration scrubbed from
    // every event-emitting path, three runs of the same seed produce the
    // same event interleaving — in both executors.
    for seed in [7u64, 1985] {
        for mode in [RunMode::Sequential, RunMode::Parallel(4)] {
            let day = DayConfig {
                duration: SimTime::from_mins(3),
                seed,
                ..DayConfig::short()
            };
            let runs: Vec<_> = (0..3)
                .map(|_| {
                    let cfg = SystemConfig {
                        seed,
                        ..SystemConfig::prototype(2, 2)
                    };
                    day_fingerprint(cfg, &day, mode)
                })
                .collect();
            assert_eq!(runs[0], runs[1], "seed {seed} {mode:?} run 0 vs 1");
            assert_eq!(runs[1], runs[2], "seed {seed} {mode:?} run 1 vs 2");
        }
    }
}

/// Builds a 4-cluster system with one shared read-only working set and
/// one private store target per cluster, plus scripted drivers whose
/// every op crosses the bridge: each workstation round-robins fetches of
/// the *other* clusters' shared files and stores into its own cluster's
/// private area. Masks are the true two-cluster footprints, so the
/// admission rule has real cross-cluster conflicts to order.
fn cross_bridge_storm(mode: RunMode) -> (u64, String) {
    const CLUSTERS: usize = 4;
    const PER: usize = 3;
    const ROUNDS: usize = 6;
    let cfg = SystemConfig {
        seed: 0xb81d,
        ..SystemConfig::revised(CLUSTERS as u32, PER as u32)
    };
    let mut sys = ItcSystem::build(cfg);

    let mut acl = AccessList::new();
    acl.grant("anyuser", Rights::ALL.minus(Rights::ADMINISTER));
    for c in 0..CLUSTERS {
        sys.create_volume(
            &format!("bridge.c{c}"),
            &format!("/vice/bridge{c}"),
            ServerId(c as u32),
            acl.clone(),
        )
        .expect("volume");
        // The shared files remote workstations fetch (never re-stored, so
        // no callback break ever escapes the declared two-cluster mask).
        for f in 0..PER {
            sys.admin_install_file(&format!("/vice/bridge{c}/shared{f}"), vec![0x42; 18_000])
                .expect("install");
        }
        // Per-workstation private directories: stores land here, not in
        // the volume root, so they never break the root-directory
        // callbacks that remote fetchers hold.
        for w in 0..PER {
            sys.admin_mkdir_p(&format!("/vice/bridge{c}/p{}", c * PER + w))
                .expect("mkdir");
        }
    }
    let n = CLUSTERS * PER;
    for ws in 0..n {
        let user = format!("x{ws:02}");
        sys.add_user(&user, "pw").expect("user");
        sys.login(ws, &user, "pw").expect("login");
    }

    let counts = Arc::new(Mutex::new(OpCounts::default()));
    let drivers = (0..n)
        .map(|ws| {
            let home = ws / PER;
            let mut d = ScriptDriver::new(ws, sys.ws_time(ws), Arc::clone(&counts));
            for r in 0..ROUNDS {
                let target = (home + 1 + r % (CLUSTERS - 1)) % CLUSTERS;
                let mask = ClusterMask::of(home).union(ClusterMask::of(target));
                let path = format!("/vice/bridge{target}/shared{}", (ws + r) % PER);
                d.push(mask, move |ops| ops.fetch(ws, &path).map(|_| ()));
                let own = format!("/vice/bridge{home}/p{ws}/w{r}");
                d.push(ClusterMask::of(home), move |ops| {
                    ops.store(ws, &own, vec![ws as u8; 9_000])
                });
            }
            (ws, Box::new(d) as Box<dyn WsDriver>)
        })
        .collect();
    let ops = sys.run_drivers(drivers, mode).expect("storm runs");
    assert_eq!(counts.lock().unwrap().failed, 0);
    (ops, fingerprint(&sys))
}

#[test]
fn all_cross_bridge_storm_is_bit_identical() {
    let seq = cross_bridge_storm(RunMode::Sequential);
    let par = cross_bridge_storm(RunMode::Parallel(4));
    assert_eq!(seq, par);
    assert!(seq.0 > 100, "storm must execute real work: {} ops", seq.0);
}

/// Crash/restart of server 1 while bridge traffic is in flight: a fault
/// plan serializes the schedule (every driver widens to all clusters), so
/// the scheduled Crash/Restart/Salvage events interleave with the ops
/// exactly as in the sequential run.
fn crash_during_bridge_traffic(mode: RunMode) -> (u64, String) {
    const CLUSTERS: usize = 3;
    const PER: usize = 2;
    let cfg = SystemConfig {
        seed: 0xc4a5,
        ..SystemConfig::revised(CLUSTERS as u32, PER as u32)
    };
    let mut sys = ItcSystem::build(cfg);

    let mut acl = AccessList::new();
    acl.grant("anyuser", Rights::ALL.minus(Rights::ADMINISTER));
    for c in 0..CLUSTERS {
        sys.create_volume(
            &format!("storm.c{c}"),
            &format!("/vice/storm{c}"),
            ServerId(c as u32),
            acl.clone(),
        )
        .expect("volume");
        for f in 0..4 {
            sys.admin_install_file(&format!("/vice/storm{c}/f{f}"), vec![0x5a; 12_000])
                .expect("install");
        }
    }
    let n = CLUSTERS * PER;
    for ws in 0..n {
        let user = format!("y{ws}");
        sys.add_user(&user, "pw").expect("user");
        sys.login(ws, &user, "pw").expect("login");
    }

    // Server 1 crashes at 2s (mid-storm) and restarts at 6s; stores to it
    // before the crash leave journal work for the restart salvage.
    let mut plan = FaultPlan::new(9);
    plan.schedule_crash(1, SimTime::from_secs(2));
    plan.schedule_restart(1, SimTime::from_secs(6));
    sys.install_faults(plan);

    let all = ClusterMask::all(CLUSTERS);
    let counts = Arc::new(Mutex::new(OpCounts::default()));
    let drivers = (0..n)
        .map(|ws| {
            let home = ws / PER;
            let mut d = ScriptDriver::new(ws, sys.ws_time(ws), Arc::clone(&counts));
            for r in 0..10usize {
                let target = (home + 1 + r % (CLUSTERS - 1)) % CLUSTERS;
                let path = format!("/vice/storm{target}/f{}", r % 4);
                // All-cluster masks: the installed fault plan means any
                // op may pump a Crash/Restart/Salvage event from any
                // cluster's calendar.
                d.push(all, move |ops| ops.fetch(ws, &path).map(|_| ()));
                let own = format!("/vice/storm{home}/w{ws}-{r}");
                d.push(all, move |ops| {
                    // Stores to the crashed custodian fail; that is the
                    // point — the failure pattern must be identical.
                    let _ = ops.store(ws, &own, vec![ws as u8; 6_000]);
                    Ok(())
                });
            }
            (ws, Box::new(d) as Box<dyn WsDriver>)
        })
        .collect();
    let ops = sys.run_drivers(drivers, mode).expect("storm runs");
    (ops, fingerprint(&sys))
}

#[test]
fn crash_restart_concurrent_with_bridge_traffic_is_bit_identical() {
    let seq = crash_during_bridge_traffic(RunMode::Sequential);
    let par = crash_during_bridge_traffic(RunMode::Parallel(4));
    assert_eq!(seq, par);
    assert!(
        seq.1.contains("faults"),
        "fingerprint records fault counters"
    );
}

#[test]
fn login_storm_parallel_matches_sequential_jsonl() {
    let cfg = LoginStormConfig::parallel();
    let (_, seq) = login_storm::run_mode(&cfg, RunMode::Sequential).expect("storm");
    let (_, par) = login_storm::run_mode(&cfg, RunMode::Parallel(4)).expect("storm");
    assert_eq!(seq.jsonl(), par.jsonl());
    assert_eq!(seq.counts.failed, 0, "the storm queues but does not fail");
    assert!(seq.counts.ops > 0);
}

/// A script that under-declares its footprint: workstation 0 (cluster 0)
/// declares cluster 0 for a fetch whose custodian is cluster 1. A second
/// cluster-0 script queues behind it, so under `Parallel(2)` one worker is
/// parked on the pool's condvar when the other trips.
fn under_declared_fetch(mode: RunMode) -> OpCounts {
    let mut sys = ItcSystem::build(SystemConfig::prototype(2, 2));
    let mut acl = AccessList::new();
    acl.grant("anyuser", Rights::READ_ONLY);
    sys.create_volume("far", "/vice/far", ServerId(1), acl)
        .expect("volume");
    sys.admin_install_file("/vice/far/f", vec![7; 4_000])
        .expect("install");
    let counts = Arc::new(Mutex::new(OpCounts::default()));
    let drivers = (0..2)
        .map(|ws| {
            let user = format!("m{ws}");
            sys.add_user(&user, "pw").expect("user");
            sys.login(ws, &user, "pw").expect("login");
            let mut d = ScriptDriver::new(ws, sys.ws_time(ws), Arc::clone(&counts));
            d.push(ClusterMask::of(0), move |ops| {
                ops.fetch(ws, "/vice/far/f").map(|_| ())
            });
            (ws, Box::new(d) as Box<dyn WsDriver>)
        })
        .collect();
    sys.run_drivers(drivers, mode).expect("script runs");
    let counts = *counts.lock().unwrap();
    counts
}

#[test]
fn op_outside_its_mask_trips_and_the_parallel_run_terminates() {
    // The sequential reference holds every cluster: no tripwire.
    let seq = under_declared_fetch(RunMode::Sequential);
    assert_eq!((seq.ops, seq.failed), (2, 0));

    // In parallel the promise is enforced — and a worker dying mid-op must
    // not leave its siblings waiting forever, so the run goes on a watched
    // thread.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(|| under_declared_fetch(RunMode::Parallel(2)));
        let _ = tx.send(outcome.map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default()
        }));
    });
    match rx.recv_timeout(std::time::Duration::from_secs(60)) {
        Ok(Err(msg)) => assert!(
            msg.contains("outside its declared mask"),
            "wrong panic: {msg}"
        ),
        Ok(Ok(counts)) => panic!("under-declared op ran to completion: {counts:?}"),
        Err(_) => panic!("poisoned pool hung instead of draining"),
    }
}

// ---------------------------------------------------------------------
// Batches and the horizon
// ---------------------------------------------------------------------

/// Runs `f` on a watched thread: a scheduler that hangs fails the test
/// after a minute instead of wedging the suite.
fn watched<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("the run neither finished nor failed within 60 s")
}

/// 3 clusters × 3 workstations of scripts whose every op draws its mask
/// from {home, home ∪ one other, all}, seeded. A home op works in the
/// workstation's own directory, by `r % 4`: a store; `mkdir_p` + `rename`;
/// `symlink` + `readdir`; `lock` + `unlock` of an earlier store (a store
/// when there is none yet). The wider ones fetch another cluster's
/// read-only shared file (inside a two-cluster mask, or under a full one).
/// So batches start, read finite horizons, end on a mask change, and wide
/// drivers get picked for single ops beside other drivers' batches.
fn mask_mix(seed: u64, mode: RunMode) -> ((u64, String), ExecutorStats) {
    const CLUSTERS: usize = 3;
    const PER: usize = 3;
    let cfg = SystemConfig {
        seed,
        ..SystemConfig::revised(CLUSTERS as u32, PER as u32)
    };
    let mut sys = ItcSystem::build(cfg);
    let mut acl = AccessList::new();
    acl.grant("anyuser", Rights::ALL.minus(Rights::ADMINISTER));
    for c in 0..CLUSTERS {
        sys.create_volume(
            &format!("mix.c{c}"),
            &format!("/vice/mix{c}"),
            ServerId(c as u32),
            acl.clone(),
        )
        .expect("volume");
        sys.admin_install_file(&format!("/vice/mix{c}/shared"), vec![0x33; 3_000])
            .expect("install");
        for w in 0..PER {
            sys.admin_mkdir_p(&format!("/vice/mix{c}/p{}", c * PER + w))
                .expect("mkdir");
        }
    }
    let n = CLUSTERS * PER;
    for ws in 0..n {
        let user = format!("z{ws}");
        sys.add_user(&user, "pw").expect("user");
        sys.login(ws, &user, "pw").expect("login");
    }

    let mut rng = SimRng::seeded(seed);
    let all = ClusterMask::all(CLUSTERS);
    let counts = Arc::new(Mutex::new(OpCounts::default()));
    let drivers = (0..n)
        .map(|ws| {
            let home = ws / PER;
            let mut d = ScriptDriver::new(ws, sys.ws_time(ws), Arc::clone(&counts));
            // How wide this driver's ops get: home only (a scope of one
            // cluster, confined to its home's batches), up to home ∪ buddy,
            // or up to everything.
            let width = rng.range(0, 3);
            let buddy = (home + 1 + rng.range(0, 2) as usize) % CLUSTERS;
            let mut stored: Option<String> = None;
            for r in 0..rng.range(6, 14) {
                let far = format!("/vice/mix{buddy}/shared");
                match rng.range(0, width + 1) {
                    0 => {
                        let dir = format!("/vice/mix{home}/p{ws}");
                        let own = format!("{dir}/w{r}");
                        match (r % 4, stored.clone()) {
                            (1, _) => {
                                let (from, to) = (format!("{dir}/d{r}/a"), format!("{dir}/d{r}/b"));
                                d.push(ClusterMask::of(home), move |ops| {
                                    ops.mkdir_p(ws, &from)?;
                                    ops.rename(ws, &from, &to)
                                })
                            }
                            (2, _) => d.push(ClusterMask::of(home), move |ops| {
                                ops.symlink(ws, &format!("{dir}/l{r}"), "w0")?;
                                ops.readdir(ws, &dir).map(|_| ())
                            }),
                            (3, Some(earlier)) => d.push(ClusterMask::of(home), move |ops| {
                                ops.lock(ws, &earlier, true)?;
                                ops.unlock(ws, &earlier)
                            }),
                            _ => {
                                stored = Some(own.clone());
                                d.push(ClusterMask::of(home), move |ops| {
                                    ops.store(ws, &own, vec![ws as u8; 1_500])
                                })
                            }
                        }
                    }
                    1 => d.push(
                        ClusterMask::of(home).union(ClusterMask::of(buddy)),
                        move |ops| ops.fetch(ws, &far).map(|_| ()),
                    ),
                    _ => d.push(all, move |ops| ops.fetch(ws, &far).map(|_| ())),
                }
            }
            (ws, Box::new(d) as Box<dyn WsDriver>)
        })
        .collect();
    let ops = sys.run_drivers(drivers, mode).expect("mix runs");
    assert_eq!(counts.lock().unwrap().failed, 0);
    assert_eq!(sys.executor_stats().ops, ops);
    ((ops, fingerprint(&sys)), sys.executor_stats())
}

#[test]
fn seeded_mask_mixes_are_bit_identical_at_every_width() {
    watched(|| {
        let (mut claims, mut ops, mut longest) = (0, 0, 0);
        for seed in 0..20u64 {
            let (seq, _) = mask_mix(seed, RunMode::Sequential);
            assert!(seq.0 >= 54, "seed {seed}: {} ops", seq.0);
            for threads in 1..=4 {
                let (par, stats) = mask_mix(seed, RunMode::Parallel(threads));
                assert_eq!(seq, par, "seed {seed} at {threads} threads");
                claims += stats.claims;
                ops += stats.ops;
                longest = longest.max(stats.longest_batch);
            }
        }
        // The mixes really do batch, and really do break batches up: some
        // claim drained many ops, yet most ops needed a claim of their own.
        assert!(longest >= 8 && claims < ops && claims > ops / 2);
    });
}

#[test]
fn non_replicated_day_with_two_cluster_scopes_is_bit_identical() {
    // Without replicated binaries every driver outside cluster 0 has scope
    // {home, 0}: confined to neither of its masks, so its ops are one-op
    // claims that end cluster 0's batches at finite horizons.
    let day = DayConfig {
        duration: SimTime::from_mins(5),
        replicate_binaries: false,
        ..DayConfig::short()
    };
    watched(move || {
        let seq = day_fingerprint(SystemConfig::prototype(4, 3), &day, RunMode::Sequential);
        for threads in [2, 4] {
            let par = day_fingerprint(
                SystemConfig::prototype(4, 3),
                &day,
                RunMode::Parallel(threads),
            );
            assert_eq!(seq, par, "divergence at {threads} threads");
        }
    });
}

#[test]
fn a_structural_error_mid_batch_fails_the_run() {
    // Four scripts confined to cluster 0 form one batch; the third op of
    // one of them fails with an error `OpCounts` does not absorb. The run
    // must hand that error back — not hang, and not report success.
    for mode in [RunMode::Sequential, RunMode::Parallel(2)] {
        let outcome = watched(move || {
            let mut sys = ItcSystem::build(SystemConfig::prototype(2, 4));
            let counts = Arc::new(Mutex::new(OpCounts::default()));
            let drivers = (0..4)
                .map(|ws| {
                    let mut d = ScriptDriver::new(ws, sys.ws_time(ws), Arc::clone(&counts));
                    for r in 0..5u64 {
                        d.push(ClusterMask::of(0), move |ops| {
                            if (ws, r) == (2, 2) {
                                return Err(SystemError::Volume("injected".into()));
                            }
                            ops.advance_ws(ws, SimTime::from_millis(10 * (r + 1) + ws as u64));
                            Ok(())
                        });
                    }
                    (ws, Box::new(d) as Box<dyn WsDriver>)
                })
                .collect();
            sys.run_drivers(drivers, mode)
        });
        match outcome {
            Err(SystemError::Volume(m)) => assert_eq!(m, "injected", "{mode:?}"),
            other => panic!("{mode:?}: expected the injected error, got {other:?}"),
        }
    }
}

#[test]
fn a_cluster_is_claimed_once_and_a_serialized_day_is_one_claim() {
    let day = DayConfig {
        duration: SimTime::from_mins(5),
        replicate_binaries: true,
        ..DayConfig::short()
    };
    for threads in [1, 2, 4] {
        // Every scope is one cluster: each is claimed once and drained.
        let mut sys = ItcSystem::build(SystemConfig::prototype(4, 2));
        let report = run_day_drivers(&mut sys, &day, RunMode::Parallel(threads)).expect("day");
        let stats = sys.executor_stats();
        assert_eq!(
            (stats.claims, stats.ops),
            (4, report.ops),
            "{threads} threads"
        );
        assert!(stats.longest_batch >= report.ops / 4);

        // A crash plan widens every mask to every cluster: one worker
        // claims the lot and runs the reference schedule.
        let mut sys = ItcSystem::build(SystemConfig::prototype(4, 2));
        let mut plan = FaultPlan::new(3);
        plan.schedule_crash(1, SimTime::from_mins(2));
        plan.schedule_restart(1, SimTime::from_mins(3));
        sys.install_faults(plan);
        let report = run_day_drivers(&mut sys, &day, RunMode::Parallel(threads)).expect("day");
        let stats = sys.executor_stats();
        assert_eq!(
            (stats.claims, stats.longest_batch),
            (1, report.ops),
            "{threads} threads"
        );
    }
    // The sequential reference is one claim of everything, by definition.
    let mut sys = ItcSystem::build(SystemConfig::prototype(4, 2));
    let report = run_day_drivers(&mut sys, &day, RunMode::Sequential).expect("day");
    let stats = sys.executor_stats();
    assert_eq!((stats.claims, stats.ops, stats.waits), (1, report.ops, 0));
}
