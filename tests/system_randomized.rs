//! Deterministic randomized integration tests, ported from the former
//! proptest suite: seeded multi-workstation operation sequences against a
//! flat model of expected shared-file contents. The system must agree with
//! the model after every operation — regardless of validation mode,
//! traversal mode, or which workstation performs each step. Driven by the
//! in-tree seeded PRNG so the suite is hermetic and bit-reproducible.

use itc_afs::core::config::SystemConfig;
use itc_afs::core::system::ItcSystem;
use itc_afs::sim::{SimRng, SimTime, TraversalMode, ValidationMode};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Store {
        ws: u8,
        file: u8,
        payload: u8,
        len: u16,
    },
    Fetch {
        ws: u8,
        file: u8,
    },
    Stat {
        ws: u8,
        file: u8,
    },
    Remove {
        ws: u8,
        file: u8,
    },
    Advance {
        secs: u16,
    },
}

/// Mirrors the proptest weights: Store 3, Fetch 4, Stat 2, Remove 1,
/// Advance 1.
fn rand_op(rng: &mut SimRng) -> Op {
    match rng.weighted_index(&[3.0, 4.0, 2.0, 1.0, 1.0]) {
        0 => Op::Store {
            ws: rng.range(0, 256) as u8,
            file: rng.range(0, 256) as u8,
            payload: rng.range(0, 256) as u8,
            len: rng.range(1, 2_000) as u16,
        },
        1 => Op::Fetch {
            ws: rng.range(0, 256) as u8,
            file: rng.range(0, 256) as u8,
        },
        2 => Op::Stat {
            ws: rng.range(0, 256) as u8,
            file: rng.range(0, 256) as u8,
        },
        3 => Op::Remove {
            ws: rng.range(0, 256) as u8,
            file: rng.range(0, 256) as u8,
        },
        _ => Op::Advance {
            secs: rng.range(1, 600) as u16,
        },
    }
}

fn path_of(file: u8) -> String {
    format!("/vice/usr/shared/f{}", file % 6)
}

fn run_config(validation: ValidationMode, traversal: TraversalMode, ops: &[Op]) {
    let cfg = SystemConfig {
        validation,
        traversal,
        ..SystemConfig::prototype(2, 2)
    };
    let mut sys = ItcSystem::build(cfg);
    let ws_count = sys.workstation_count();
    for w in 0..ws_count {
        let name = format!("u{w}");
        sys.add_user(&name, "pw").unwrap();
        sys.login(w, &name, "pw").unwrap();
    }
    sys.ops().mkdir_p(0, "/vice/usr/shared").unwrap();

    let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Store {
                ws,
                file,
                payload,
                len,
            } => {
                let ws = *ws as usize % ws_count;
                let p = path_of(*file);
                let data = vec![*payload; *len as usize];
                sys.ops().store(ws, &p, data.clone()).unwrap();
                model.insert(p, data);
            }
            Op::Fetch { ws, file } => {
                let ws = *ws as usize % ws_count;
                let p = path_of(*file);
                match model.get(&p) {
                    Some(expect) => {
                        let got = sys.ops().fetch(ws, &p).unwrap();
                        assert_eq!(&got, expect, "wrong contents for {p} at ws{ws}");
                    }
                    None => assert!(sys.ops().fetch(ws, &p).is_err(), "{p} should not exist"),
                }
            }
            Op::Stat { ws, file } => {
                let ws = *ws as usize % ws_count;
                let p = path_of(*file);
                match model.get(&p) {
                    Some(expect) => {
                        let st = sys.ops().stat(ws, &p).unwrap();
                        assert_eq!(st.size, expect.len() as u64, "wrong size for {p}");
                    }
                    None => assert!(sys.ops().stat(ws, &p).is_err()),
                }
            }
            Op::Remove { ws, file } => {
                let ws = *ws as usize % ws_count;
                let p = path_of(*file);
                let r = sys.ops().unlink(ws, &p);
                if model.remove(&p).is_some() {
                    assert!(r.is_ok(), "remove {p} failed: {r:?}");
                } else {
                    assert!(r.is_err());
                }
            }
            Op::Advance { secs } => {
                let target = sys.now() + SimTime::from_secs(u64::from(*secs));
                for w in 0..ws_count {
                    sys.ops().advance_ws(w, target);
                }
            }
        }
    }

    // Final sweep: every workstation agrees with the model on every file.
    for w in 0..ws_count {
        for (p, expect) in &model {
            assert_eq!(
                &sys.ops().fetch(w, p).unwrap(),
                expect,
                "final sweep {p} at ws{w}"
            );
        }
    }
}

fn run_cases(
    seed: u64,
    cases: usize,
    max_ops: u64,
    validation: ValidationMode,
    traversal: TraversalMode,
) {
    let mut rng = SimRng::seeded(seed);
    for _ in 0..cases {
        let n = rng.range(1, max_ops);
        let ops: Vec<Op> = (0..n).map(|_| rand_op(&mut rng)).collect();
        run_config(validation, traversal, &ops);
    }
}

#[test]
fn prototype_config_agrees_with_model() {
    run_cases(
        0x7379_735f_7072_6f74,
        12,
        40,
        ValidationMode::CheckOnOpen,
        TraversalMode::ServerSide,
    );
}

#[test]
fn revised_config_agrees_with_model() {
    run_cases(
        0x7379_735f_7265_7631,
        12,
        40,
        ValidationMode::Callback,
        TraversalMode::ClientSide,
    );
}

#[test]
fn mixed_config_agrees_with_model() {
    run_cases(
        0x7379_735f_6d69_7831,
        12,
        30,
        ValidationMode::Callback,
        TraversalMode::ServerSide,
    );
}

/// Replays the one sequence proptest ever shrank to a failure (recorded in
/// the old `prop_system.proptest-regressions`), preserved here verbatim so
/// the regression stays covered without the proptest dependency.
#[test]
fn regression_store_fetch_remove_store() {
    let ops = [
        Op::Store {
            ws: 0,
            file: 128,
            payload: 0,
            len: 1,
        },
        Op::Fetch { ws: 1, file: 158 },
        Op::Remove { ws: 0, file: 152 },
        Op::Store {
            ws: 70,
            file: 50,
            payload: 114,
            len: 413,
        },
    ];
    for (validation, traversal) in [
        (ValidationMode::CheckOnOpen, TraversalMode::ServerSide),
        (ValidationMode::Callback, TraversalMode::ClientSide),
        (ValidationMode::Callback, TraversalMode::ServerSide),
    ] {
        run_config(validation, traversal, &ops);
    }
}
