//! Deterministic randomized tests for the protection machinery, ported
//! from the former proptest suite: CPS computation, ACL algebra, and the
//! lock table against reference models. Driven by the in-tree seeded PRNG
//! so the suite is hermetic.

use itc_core::protect::{AccessList, ProtectionDomain, Rights};
use itc_core::server::{LockKind, LockTable};
use itc_rpc::NodeId;
use itc_sim::SimRng;
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------
// CPS: the transitive closure must match a naive fixpoint.
// ---------------------------------------------------------------------

#[test]
fn cps_matches_naive_fixpoint() {
    let mut rng = SimRng::seeded(0x6370_735f_6669_7831);
    // Lists whose verdict for "u" hinged on a group entry the user is only
    // in through another group.
    let mut nested_hits = 0;
    for _ in 0..128 {
        let mut d = ProtectionDomain::new();
        d.add_user("u", "pw").unwrap();
        // A naive membership edge list: member -> group.
        let mut edges: Vec<(String, String)> = Vec::new();

        for _ in 0..rng.range(1, 40) {
            if rng.chance(0.5) {
                let name = format!("g{}", rng.range(0, 12));
                let _ = d.add_group(&name);
            } else {
                let gname = format!("g{}", rng.range(0, 12));
                let member = rng.range(0, 16) as u8;
                let mname = if member == 0 {
                    "u".to_string()
                } else {
                    format!("g{}", member % 12)
                };
                if d.add_member(&gname, &mname).is_ok() {
                    edges.push((mname, gname));
                }
            }
        }

        // Naive fixpoint from "u".
        let mut reach: BTreeSet<String> = BTreeSet::new();
        reach.insert("u".to_string());
        loop {
            let before = reach.len();
            for (m, g) in &edges {
                if reach.contains(m) {
                    reach.insert(g.clone());
                }
            }
            if reach.len() == before {
                break;
            }
        }

        let cps: BTreeSet<String> = d.cps("u").into_iter().collect();
        assert_eq!(cps, reach);

        // The server's check evaluates the list's entries against the
        // domain without building a CPS; it must grant exactly what the
        // list grants the CPS plus `anyuser`. Entries name the user, groups
        // at every depth, `anyuser` and strangers, positive and negative.
        for _ in 0..4 {
            let mut acl = AccessList::new();
            for _ in 0..rng.range(0, 12) {
                let who = match rng.range(0, 16) {
                    0 => "u".to_string(),
                    1 => "anyuser".to_string(),
                    2 => "stranger".to_string(),
                    g => format!("g{}", g % 12),
                };
                let rights = Rights(rng.range(0, 128) as u8);
                if rng.chance(0.3) {
                    acl.deny(&who, rights);
                } else {
                    acl.grant(&who, rights);
                }
            }
            for user in ["u", "stranger"] {
                let mut cps = d.cps(user);
                cps.push("anyuser".to_string());
                assert_eq!(
                    d.rights_on(user, &acl),
                    acl.effective_rights(cps.iter().map(String::as_str)),
                    "{user} on {acl:?} under {edges:?}"
                );
            }
            let direct: BTreeSet<&str> = edges
                .iter()
                .filter(|(m, _)| m == "u")
                .map(|(_, g)| g.as_str())
                .collect();
            nested_hits += usize::from(reach.iter().any(|g| {
                g.starts_with('g')
                    && !direct.contains(g.as_str())
                    && (acl.positive_for(g).is_some() || acl.negative_for(g).is_some())
            }));
        }
    }
    assert!(
        nested_hits >= 10,
        "{nested_hits} lists named a nested group"
    );
}

// ---------------------------------------------------------------------
// ACL algebra.
// ---------------------------------------------------------------------

#[test]
fn acl_effective_rights_is_monotone_in_cps() {
    let mut rng = SimRng::seeded(0x6163_6c5f_6d6f_6e6f);
    for _ in 0..256 {
        let mut acl = AccessList::new();
        for _ in 0..rng.range(0, 10) {
            acl.grant(
                &format!("p{}", rng.range(0, 8)),
                Rights(rng.range(0, 128) as u8 & 0x7f),
            );
        }
        for _ in 0..rng.range(0, 4) {
            acl.deny(
                &format!("p{}", rng.range(0, 8)),
                Rights(rng.range(0, 128) as u8 & 0x7f),
            );
        }
        let cps_small: BTreeSet<u64> = (0..rng.range(0, 4)).map(|_| rng.range(0, 8)).collect();
        let small: Vec<String> = cps_small.iter().map(|p| format!("p{p}")).collect();
        let mut big = small.clone();
        big.push(format!("p{}", rng.range(0, 8)));

        let small_rights = acl.effective_rights(small.iter().map(String::as_str));
        let big_rights = acl.effective_rights(big.iter().map(String::as_str));

        // Positive rights are monotone; negative rights may shrink the
        // result. What must ALWAYS hold: the big CPS's positive union
        // covers the small one's, and denial only ever removes bits that
        // some member of the CPS denies.
        let small_plus: u8 = small
            .iter()
            .filter_map(|n| acl.positive_for(n))
            .fold(0, |a, r| a | r.0);
        let big_plus: u8 = big
            .iter()
            .filter_map(|n| acl.positive_for(n))
            .fold(0, |a, r| a | r.0);
        assert_eq!(big_plus & small_plus, small_plus);
        // Effective ⊆ positive union.
        assert_eq!(small_rights.0 & !small_plus, 0);
        assert_eq!(big_rights.0 & !big_plus, 0);
    }
}

#[test]
fn acl_wire_round_trip() {
    let mut rng = SimRng::seeded(0x6163_6c5f_7769_7265);
    let rand_name = |rng: &mut SimRng| -> String {
        (0..rng.range(1, 9))
            .map(|_| (b'a' + rng.range(0, 26) as u8) as char)
            .collect()
    };
    for _ in 0..256 {
        let mut acl = AccessList::new();
        for _ in 0..rng.range(0, 12) {
            let p = rand_name(&mut rng);
            acl.grant(&p, Rights(rng.range(0, 128) as u8 & 0x7f));
        }
        for _ in 0..rng.range(0, 6) {
            let p = rand_name(&mut rng);
            acl.deny(&p, Rights(rng.range(0, 128) as u8 & 0x7f));
        }
        let bytes = acl.encode(itc_rpc::WireWriter::new()).finish();
        let mut rd = itc_rpc::WireReader::new(&bytes);
        let back = AccessList::decode(&mut rd).unwrap();
        rd.done().unwrap();
        assert_eq!(back, acl);
    }
}

// ---------------------------------------------------------------------
// Lock table vs a reference model.
// ---------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct ModelEntry {
    readers: BTreeSet<u8>,
    writer: Option<u8>,
}

#[test]
fn lock_table_matches_reference_model() {
    let mut rng = SimRng::seeded(0x6c6f_636b_5f74_6231);
    for _ in 0..256 {
        let mut table = LockTable::new();
        let mut model: BTreeMap<u8, ModelEntry> = BTreeMap::new();

        for _ in 0..rng.range(1, 60) {
            let path = rng.range(0, 3) as u8;
            let holder = rng.range(0, 4) as u8;
            if rng.chance(0.5) {
                let exclusive = rng.chance(0.5);
                let e = model.entry(path).or_default();
                let expect = if exclusive {
                    match e.writer {
                        Some(w) => w == holder,
                        None => e.readers.iter().all(|&r| r == holder),
                    }
                } else {
                    match e.writer {
                        Some(w) => w == holder,
                        None => true,
                    }
                };
                let kind = if exclusive {
                    LockKind::Exclusive
                } else {
                    LockKind::Shared
                };
                let got = table.acquire(
                    &format!("/p{path}"),
                    &format!("u{holder}"),
                    NodeId(u32::from(holder)),
                    kind,
                );
                assert_eq!(got, expect, "acquire {:?}", (path, holder, exclusive));
                if got {
                    if exclusive {
                        if e.writer.is_none() {
                            e.readers.remove(&holder);
                            e.writer = Some(holder);
                        }
                    } else if e.writer.is_none() {
                        e.readers.insert(holder);
                    }
                }
            } else {
                table.release(
                    &format!("/p{path}"),
                    &format!("u{holder}"),
                    NodeId(u32::from(holder)),
                );
                if let Some(e) = model.get_mut(&path) {
                    e.readers.remove(&holder);
                    if e.writer == Some(holder) {
                        e.writer = None;
                    }
                }
            }
        }

        // Invariant: the table never tracks more paths than the model has
        // live entries for.
        let live = model
            .values()
            .filter(|e| e.writer.is_some() || !e.readers.is_empty())
            .count();
        assert_eq!(table.locked_paths(), live);
    }
}
