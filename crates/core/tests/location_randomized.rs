//! Deterministic randomized tests for the location database, ported from
//! the former proptest suite: longest-prefix lookup must agree with a
//! naive reference scan, and mutations must behave. Driven by the in-tree
//! seeded PRNG so the suite is hermetic.

use itc_core::location::LocationDb;
use itc_core::proto::ServerId;
use itc_sim::SimRng;

/// A small universe of subtree roots with genuine prefix relationships.
fn subtree(idx: u8) -> String {
    match idx % 7 {
        0 => "/vice".to_string(),
        1 => "/vice/usr".to_string(),
        2 => "/vice/usr/alice".to_string(),
        3 => "/vice/usr/alice/private".to_string(),
        4 => "/vice/usr/bob".to_string(),
        5 => "/vice/sys".to_string(),
        _ => "/vice/sys/sun".to_string(),
    }
}

fn query(idx: u8) -> String {
    match idx % 9 {
        0 => "/vice/usr/alice/paper.tex".to_string(),
        1 => "/vice/usr/alice/private/key".to_string(),
        2 => "/vice/usr/alicexyz/f".to_string(), // boundary trap
        3 => "/vice/usr/bob/src/main.c".to_string(),
        4 => "/vice/sys/sun/bin/cc".to_string(),
        5 => "/vice/sys".to_string(),
        6 => "/vice".to_string(),
        7 => "/elsewhere/f".to_string(),
        _ => "/vice/usr".to_string(),
    }
}

/// Naive reference: scan all entries, keep the longest whose root is a
/// component-boundary prefix.
fn naive_lookup(entries: &[(String, u32)], path: &str) -> Option<u32> {
    entries
        .iter()
        .filter(|(root, _)| path == root.as_str() || path.starts_with(&format!("{root}/")))
        .max_by_key(|(root, _)| root.len())
        .map(|(_, s)| *s)
}

#[test]
fn lookup_matches_naive_scan() {
    let mut rng = SimRng::seeded(0x6c6f_6361_7469_6f31);
    for _ in 0..256 {
        let mut db = LocationDb::new();
        // The reference keeps last-write-wins per root, as assign() does.
        let mut reference: Vec<(String, u32)> = Vec::new();
        for _ in 0..rng.range(1, 14) {
            let root = subtree(rng.range(0, 7) as u8);
            let server = rng.range(0, 10) as u32;
            db.assign(&root, ServerId(server));
            reference.retain(|(r, _)| r != &root);
            reference.push((root, server));
        }
        for _ in 0..rng.range(1, 12) {
            let path = query(rng.range(0, 9) as u8);
            let got = db.custodian_of(&path).map(|s| s.0);
            let expect = naive_lookup(&reference, &path);
            assert_eq!(got, expect, "path {path}");
        }
    }
}

#[test]
fn version_changes_iff_db_mutates() {
    let mut rng = SimRng::seeded(0x6c6f_6361_7469_6f32);
    for _ in 0..256 {
        let mut db = LocationDb::new();
        let mut v = db.version();
        for _ in 0..rng.range(1, 10) {
            let r = rng.range(0, 7) as u8;
            db.assign(&subtree(r), ServerId(0));
            assert!(db.version() > v);
            v = db.version();
            // Lookups never mutate.
            let _ = db.custodian_of(&query(r));
            assert_eq!(db.version(), v);
        }
    }
}

#[test]
fn reassign_preserves_entry_count() {
    let mut rng = SimRng::seeded(0x6c6f_6361_7469_6f33);
    for _ in 0..256 {
        let mut db = LocationDb::new();
        for _ in 0..rng.range(2, 10) {
            db.assign(
                &subtree(rng.range(0, 7) as u8),
                ServerId(rng.range(0, 5) as u32),
            );
        }
        let n = db.len();
        for _ in 0..rng.range(1, 6) {
            let root = subtree(rng.range(0, 7) as u8);
            let s = rng.range(0, 5) as u32;
            let existed = db.custodian_of(&root).is_some() && db.entries().any(|(e, _)| e == root);
            let moved = db.reassign(&root, ServerId(s));
            assert_eq!(moved.is_some(), existed);
            assert_eq!(db.len(), n, "reassign must never add or drop entries");
            if moved.is_some() {
                assert_eq!(db.custodian_of(&root), Some(ServerId(s)));
            }
        }
    }
}
