//! Deterministic randomized tests for the file system substrate, ported
//! from the former proptest suite: a seeded sequence of operations is
//! applied both to the [`itc_unixfs::FileSystem`] and to a trivial model
//! (a map from path to contents), and the two must agree. The seed is
//! fixed, so the suite is hermetic and bit-reproducible.

use itc_unixfs::{FileSystem, FsError, Mode};
use std::collections::BTreeMap;

/// Minimal local PRNG (this crate has no dependencies, by design).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone)]
enum Op {
    Create(u8, Vec<u8>),
    Write(u8, Vec<u8>),
    Unlink(u8),
    Read(u8),
    Stat(u8),
    Rename(u8, u8),
}

/// Ten candidate file names inside a fixed directory.
fn name(i: u8) -> String {
    format!("/dir/f{}", i % 10)
}

fn rand_data(st: &mut u64) -> Vec<u8> {
    let len = (splitmix64(st) % 64) as usize;
    (0..len).map(|_| splitmix64(st) as u8).collect()
}

fn rand_op(st: &mut u64) -> Op {
    match splitmix64(st) % 6 {
        0 => Op::Create(splitmix64(st) as u8, rand_data(st)),
        1 => Op::Write(splitmix64(st) as u8, rand_data(st)),
        2 => Op::Unlink(splitmix64(st) as u8),
        3 => Op::Read(splitmix64(st) as u8),
        4 => Op::Stat(splitmix64(st) as u8),
        _ => Op::Rename(splitmix64(st) as u8, splitmix64(st) as u8),
    }
}

fn check_sequence(ops: &[Op]) {
    let mut fs = FileSystem::new();
    fs.mkdir("/dir", Mode::DIR_DEFAULT, 0, 0).unwrap();
    let mut model: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut t = 1u64;

    for op in ops {
        t += 1;
        match op {
            Op::Create(i, data) => {
                let p = name(*i);
                let r = fs.create(&p, Mode::FILE_DEFAULT, 0, t, data.clone());
                if let std::collections::btree_map::Entry::Vacant(e) = model.entry(p) {
                    assert!(r.is_ok());
                    e.insert(data.clone());
                } else {
                    assert!(matches!(r, Err(FsError::AlreadyExists(_))));
                }
            }
            Op::Write(i, data) => {
                let p = name(*i);
                // write() upserts.
                fs.write(&p, 0, t, data.clone()).unwrap();
                model.insert(p, data.clone());
            }
            Op::Unlink(i) => {
                let p = name(*i);
                let r = fs.unlink(&p, t);
                if model.remove(&p).is_some() {
                    assert!(r.is_ok());
                } else {
                    assert!(r.is_err());
                }
            }
            Op::Read(i) => {
                let p = name(*i);
                match model.get(&p) {
                    Some(d) => assert_eq!(&fs.read(&p).unwrap(), d),
                    None => assert!(fs.read(&p).is_err()),
                }
            }
            Op::Stat(i) => {
                let p = name(*i);
                match model.get(&p) {
                    Some(d) => {
                        let st = fs.stat(&p).unwrap();
                        assert_eq!(st.size, d.len() as u64);
                    }
                    None => assert!(fs.stat(&p).is_err()),
                }
            }
            Op::Rename(a, b) => {
                let (pa, pb) = (name(*a), name(*b));
                let r = fs.rename(&pa, &pb, t);
                if pa == pb {
                    // No-op regardless of existence when source exists;
                    // error when it does not.
                    if model.contains_key(&pa) {
                        assert!(r.is_ok());
                    }
                    continue;
                }
                if let Some(d) = model.get(&pa).cloned() {
                    assert!(r.is_ok(), "rename {pa} -> {pb}: {r:?}");
                    model.remove(&pa);
                    model.insert(pb, d);
                } else {
                    assert!(r.is_err());
                }
            }
        }

        // Global invariant: byte accounting matches the model.
        let expect: u64 = model.values().map(|v| v.len() as u64).sum();
        assert_eq!(fs.data_bytes(), expect);
    }

    // Final state: directory listing matches the model's key set.
    let listed: Vec<String> = fs
        .readdir("/dir")
        .unwrap()
        .into_iter()
        .map(|(n, _)| format!("/dir/{n}"))
        .collect();
    let expected: Vec<String> = model.keys().cloned().collect();
    assert_eq!(listed, expected);
}

#[test]
fn fs_agrees_with_model() {
    let mut st = 0x756e_6978_6673_0001u64;
    for _ in 0..256 {
        let n = 1 + (splitmix64(&mut st) % 79) as usize;
        let ops: Vec<Op> = (0..n).map(|_| rand_op(&mut st)).collect();
        check_sequence(&ops);
    }
}

#[test]
fn versions_only_increase() {
    let mut st = 0x756e_6978_6673_0002u64;
    for _ in 0..64 {
        let mut fs = FileSystem::new();
        fs.create("/f", Mode::FILE_DEFAULT, 0, 0, vec![]).unwrap();
        let mut last = fs.stat("/f").unwrap().version;
        let writes = 1 + splitmix64(&mut st) % 19;
        for i in 0..writes {
            let len = (splitmix64(&mut st) % 32) as usize;
            let data: Vec<u8> = (0..len).map(|_| splitmix64(&mut st) as u8).collect();
            fs.write("/f", 0, i + 1, data).unwrap();
            let v = fs.stat("/f").unwrap().version;
            assert!(v > last, "version must strictly increase on write");
            last = v;
        }
    }
}

#[test]
fn normalize_is_idempotent() {
    // Random paths of 1..=6 segments from [a-z.]{1,8}, optional trailing
    // slash — the same domain the proptest regex generated, so dot and
    // dot-dot segments occur.
    let mut st = 0x756e_6978_6673_0003u64;
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz.";
    for _ in 0..512 {
        let segs = 1 + splitmix64(&mut st) % 6;
        let mut raw = String::new();
        for _ in 0..segs {
            raw.push('/');
            let len = 1 + splitmix64(&mut st) % 8;
            for _ in 0..len {
                raw.push(ALPHABET[(splitmix64(&mut st) % 27) as usize] as char);
            }
        }
        if splitmix64(&mut st).is_multiple_of(2) {
            raw.push('/');
        }
        let Ok(once) = itc_unixfs::normalize(&raw) else {
            continue;
        };
        let twice = itc_unixfs::normalize(&once).unwrap();
        assert_eq!(once, twice, "raw: {raw}");
    }
}
