//! The replicated location database.
//!
//! Section 3.1: "Each cluster server contains a complete copy of a location
//! database that maps files to Custodians. ... The size of the replicated
//! location database is relatively small because custodianship is on a
//! subtree basis. If all files in a subtree have the same custodian, the
//! location database has only an entry for the root of the subtree."
//!
//! Lookup is longest-prefix match over subtree roots. Entries may also list
//! servers holding read-only replicas of the subtree (Section 3.2), letting
//! Venus fetch system binaries "from the nearest cluster server rather than
//! its custodian".
//!
//! The database "changes relatively slowly" — reassignment of subtrees is a
//! human-initiated, expensive operation that must update every replica.
//! The replicas are identical, so the system keeps one copy beside the
//! protection database and lends it to every call; a volume move is charged
//! as one update message to every server. [`LocationDb::version`] tracks
//! mutations for experiment E14.

use crate::proto::ServerId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// True when `path` lies inside the subtree rooted at `root` (the path
/// itself, or a descendant across a `/` component boundary). Allocation
/// free — the naive `starts_with(&format!("{root}/"))` built a fresh
/// `String` per probe, and this check runs for every entry of every
/// location and hint lookup on the hot path.
pub(crate) fn subtree_covers(root: &str, path: &str) -> bool {
    path == root
        || (path.len() > root.len()
            && path.starts_with(root)
            && path.as_bytes()[root.len()] == b'/')
}

/// One custodianship entry: a subtree root and who serves it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocationEntry {
    /// The writable custodian.
    pub custodian: ServerId,
    /// Servers with read-only replicas of this subtree.
    pub replicas: Vec<ServerId>,
}

/// The subtree → custodian map. Keys are interned `Arc<str>` roots so the
/// traffic monitor can attribute a call to a subtree without allocating.
#[derive(Debug, Clone, Default)]
pub struct LocationDb {
    entries: BTreeMap<Arc<str>, LocationEntry>,
    version: u64,
}

impl LocationDb {
    /// An empty database.
    pub fn new() -> LocationDb {
        LocationDb::default()
    }

    /// Current version (bumped on every mutation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of entries — the quantity Section 3.1 argues stays small.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no custodianships are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate storage footprint in bytes (path + entry overhead),
    /// for experiment E14's per-subtree vs per-file comparison.
    pub fn approx_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|(path, e)| path.len() as u64 + 8 + 4 * e.replicas.len() as u64)
            .sum()
    }

    /// Registers (or replaces) custodianship of a subtree.
    pub fn assign(&mut self, subtree: &str, custodian: ServerId) {
        self.entries.insert(
            Arc::from(subtree),
            LocationEntry {
                custodian,
                replicas: Vec::new(),
            },
        );
        self.version += 1;
    }

    /// Adds a read-only replica site for a subtree already assigned.
    /// Returns false if the subtree has no entry.
    pub fn add_replica(&mut self, subtree: &str, server: ServerId) -> bool {
        match self.entries.get_mut(subtree) {
            Some(e) => {
                if !e.replicas.contains(&server) {
                    e.replicas.push(server);
                    self.version += 1;
                }
                true
            }
            None => false,
        }
    }

    /// Reassigns a subtree to a new custodian (the expensive,
    /// human-initiated operation of Section 3.1 — e.g. a student moving
    /// dormitories). Returns the old custodian.
    pub fn reassign(&mut self, subtree: &str, new_custodian: ServerId) -> Option<ServerId> {
        let e = self.entries.get_mut(subtree)?;
        let old = e.custodian;
        e.custodian = new_custodian;
        self.version += 1;
        Some(old)
    }

    /// Finds the entry whose subtree root is the longest prefix of `path`.
    pub fn lookup(&self, path: &str) -> Option<(&str, &LocationEntry)> {
        self.lookup_entry(path).map(|(r, e)| (r.as_ref(), e))
    }

    /// Like [`LocationDb::lookup`], but hands back the interned subtree
    /// key so callers (the traffic monitor) can record it by refcount
    /// instead of allocating a `String` per call.
    pub fn lookup_interned(&self, path: &str) -> Option<(Arc<str>, &LocationEntry)> {
        self.lookup_entry(path).map(|(r, e)| (Arc::clone(r), e))
    }

    fn lookup_entry(&self, path: &str) -> Option<(&Arc<str>, &LocationEntry)> {
        let mut best: Option<(&Arc<str>, &LocationEntry)> = None;
        for (root, entry) in &self.entries {
            if subtree_covers(root, path) && best.is_none_or(|(b, _)| root.len() > b.len()) {
                best = Some((root, entry));
            }
        }
        best
    }

    /// The custodian for `path`, if any subtree covers it.
    pub fn custodian_of(&self, path: &str) -> Option<ServerId> {
        self.lookup(path).map(|(_, e)| e.custodian)
    }

    /// All entries, for iteration.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &LocationEntry)> {
        self.entries.iter().map(|(k, v)| (k.as_ref(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> LocationDb {
        let mut db = LocationDb::new();
        db.assign("/vice", ServerId(0)); // default root custodian
        db.assign("/vice/usr/satya", ServerId(1));
        db.assign("/vice/usr/satya/private", ServerId(2));
        db.assign("/vice/sys", ServerId(0));
        db
    }

    #[test]
    fn longest_prefix_wins() {
        let db = db();
        assert_eq!(
            db.custodian_of("/vice/usr/satya/paper.tex"),
            Some(ServerId(1))
        );
        assert_eq!(
            db.custodian_of("/vice/usr/satya/private/key"),
            Some(ServerId(2))
        );
        assert_eq!(db.custodian_of("/vice/usr/howard/x"), Some(ServerId(0)));
        assert_eq!(db.custodian_of("/vice/sys/bin/cc"), Some(ServerId(0)));
        assert_eq!(db.custodian_of("/local/tmp"), None);
    }

    #[test]
    fn prefix_match_respects_component_boundaries() {
        let mut db = LocationDb::new();
        db.assign("/vice/usr/sa", ServerId(9));
        // "/vice/usr/satya" must NOT match the "/vice/usr/sa" subtree.
        assert_eq!(db.custodian_of("/vice/usr/satya/f"), None);
        assert_eq!(db.custodian_of("/vice/usr/sa/f"), Some(ServerId(9)));
        assert_eq!(db.custodian_of("/vice/usr/sa"), Some(ServerId(9)));
    }

    #[test]
    fn subtree_covers_matches_the_allocating_check() {
        for (root, path) in [
            ("/vice", "/vice"),
            ("/vice", "/vice/a"),
            ("/vice", "/vicex"),
            ("/vice/usr/sa", "/vice/usr/satya"),
            ("/vice/usr/sa", "/vice/usr/sa/f"),
            ("/vice/a", "/vice"),
            ("/v", ""),
            ("", "/v"),
        ] {
            let naive = path == root || path.starts_with(&format!("{root}/"));
            assert_eq!(subtree_covers(root, path), naive, "{root} vs {path}");
        }
    }

    #[test]
    fn interned_lookup_agrees_with_lookup() {
        let db = db();
        for p in ["/vice/usr/satya/paper.tex", "/vice/sys/bin/cc", "/nope"] {
            let plain = db.lookup(p).map(|(r, e)| (r.to_string(), e.clone()));
            let interned = db
                .lookup_interned(p)
                .map(|(r, e)| (r.to_string(), e.clone()));
            assert_eq!(plain, interned);
        }
    }

    #[test]
    fn reassignment_changes_custodian_and_version() {
        let mut db = db();
        let v = db.version();
        let old = db.reassign("/vice/usr/satya", ServerId(3)).unwrap();
        assert_eq!(old, ServerId(1));
        assert_eq!(db.custodian_of("/vice/usr/satya/x"), Some(ServerId(3)));
        assert!(db.version() > v);
        assert_eq!(db.reassign("/vice/ghost", ServerId(0)), None);
    }

    #[test]
    fn replicas_tracked() {
        let mut db = db();
        assert!(db.add_replica("/vice/sys", ServerId(1)));
        assert!(db.add_replica("/vice/sys", ServerId(2)));
        // Idempotent.
        let v = db.version();
        assert!(db.add_replica("/vice/sys", ServerId(1)));
        assert_eq!(db.version(), v);
        let (_, e) = db.lookup("/vice/sys/bin/cc").unwrap();
        assert_eq!(e.replicas, vec![ServerId(1), ServerId(2)]);
        assert!(!db.add_replica("/vice/none", ServerId(1)));
    }

    #[test]
    fn size_stays_small_per_subtree() {
        // The paper's point: per-subtree entries mean the database grows
        // with users, not with files. Four entries regardless of how many
        // files live under them.
        let db = db();
        assert_eq!(db.len(), 4);
        assert!(db.approx_bytes() < 256);
    }
}
