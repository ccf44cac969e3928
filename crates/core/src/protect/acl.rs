//! Access rights and access lists.

use itc_rpc::wire::{put, take, take_count, Codec};
use itc_rpc::{wire_table, WireError, WireReader, WireWriter};

/// A set of access rights, as a bit set.
///
/// The right names follow the semantics Section 3.4 sketches: "The rights
/// associated with a directory control the fetching and storing of files,
/// the creation and deletion of new directory entries, and modifications to
/// the access list."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rights(pub u8);

impl Rights {
    /// No rights.
    pub const NONE: Rights = Rights(0);
    /// Fetch files and read their status.
    pub const READ: Rights = Rights(1 << 0);
    /// Store (overwrite) existing files.
    pub const WRITE: Rights = Rights(1 << 1);
    /// Create new directory entries (files, subdirectories, symlinks).
    pub const INSERT: Rights = Rights(1 << 2);
    /// Delete directory entries.
    pub const DELETE: Rights = Rights(1 << 3);
    /// Resolve names through the directory without listing it.
    pub const LOOKUP: Rights = Rights(1 << 4);
    /// Acquire advisory locks on files.
    pub const LOCK: Rights = Rights(1 << 5);
    /// Modify the access list itself.
    pub const ADMINISTER: Rights = Rights(1 << 6);

    /// Everything.
    pub const ALL: Rights = Rights(0x7f);
    /// The customary read-only grant: READ | LOOKUP.
    pub const READ_ONLY: Rights = Rights(1 | (1 << 4));

    /// Union.
    pub fn union(self, other: Rights) -> Rights {
        Rights(self.0 | other.0)
    }

    /// Set difference (`self` minus `other`).
    pub fn minus(self, other: Rights) -> Rights {
        Rights(self.0 & !other.0)
    }

    /// True when every right in `needed` is present.
    pub fn covers(self, needed: Rights) -> bool {
        self.0 & needed.0 == needed.0
    }

    /// True when no rights are present.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for Rights {
    type Output = Rights;
    fn bitor(self, rhs: Rights) -> Rights {
        self.union(rhs)
    }
}

impl std::fmt::Display for Rights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        const NAMES: [(Rights, char); 7] = [
            (Rights::READ, 'r'),
            (Rights::WRITE, 'w'),
            (Rights::INSERT, 'i'),
            (Rights::DELETE, 'd'),
            (Rights::LOOKUP, 'l'),
            (Rights::LOCK, 'k'),
            (Rights::ADMINISTER, 'a'),
        ];
        for (bit, ch) in NAMES {
            write!(f, "{}", if self.covers(bit) { ch } else { '-' })?;
        }
        Ok(())
    }
}

/// An access list: positive and negative entries mapping principal names
/// (users or groups) to rights.
///
/// "The union of all the negative rights specified for a user's CPS is
/// subtracted from his positive rights" (Section 3.4). Evaluation is in
/// [`AccessList::effective_rights`]; the CPS itself comes from
/// [`crate::protect::ProtectionDomain::cps`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessList {
    /// Positive entries, sorted by principal name.
    positive: Vec<(String, Rights)>,
    /// Negative entries, sorted by principal name.
    negative: Vec<(String, Rights)>,
}

impl AccessList {
    /// An empty access list (nobody has any rights).
    pub fn new() -> AccessList {
        AccessList::default()
    }

    fn upsert(list: &mut Vec<(String, Rights)>, who: &str, rights: Rights) {
        match list.binary_search_by(|e| e.0.as_str().cmp(who)) {
            Ok(i) => {
                if rights.is_empty() {
                    list.remove(i);
                } else {
                    list[i].1 = rights;
                }
            }
            Err(i) => {
                if !rights.is_empty() {
                    list.insert(i, (who.to_string(), rights));
                }
            }
        }
    }

    /// Sets the positive rights for a principal (empty rights remove the
    /// entry).
    pub fn grant(&mut self, who: &str, rights: Rights) {
        Self::upsert(&mut self.positive, who, rights);
    }

    /// Sets the negative rights for a principal — the rapid-revocation
    /// mechanism.
    pub fn deny(&mut self, who: &str, rights: Rights) {
        Self::upsert(&mut self.negative, who, rights);
    }

    /// The positive rights entry for a principal, if any.
    pub fn positive_for(&self, who: &str) -> Option<Rights> {
        self.positive
            .binary_search_by(|e| e.0.as_str().cmp(who))
            .ok()
            .map(|i| self.positive[i].1)
    }

    /// The negative rights entry for a principal, if any.
    pub fn negative_for(&self, who: &str) -> Option<Rights> {
        self.negative
            .binary_search_by(|e| e.0.as_str().cmp(who))
            .ok()
            .map(|i| self.negative[i].1)
    }

    /// Number of entries (positive + negative).
    pub fn len(&self) -> usize {
        self.positive.len() + self.negative.len()
    }

    /// True when there are no entries at all.
    pub fn is_empty(&self) -> bool {
        self.positive.is_empty() && self.negative.is_empty()
    }

    /// Evaluates the effective rights of a user whose CPS (the user's own
    /// name plus every group transitively containing him) is `cps`:
    /// union of matching positive entries minus union of matching negative
    /// entries.
    pub fn effective_rights<'a, I>(&self, cps: I) -> Rights
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut plus = Rights::NONE;
        let mut minus = Rights::NONE;
        for name in cps {
            if let Some(r) = self.positive_for(name) {
                plus = plus.union(r);
            }
            if let Some(r) = self.negative_for(name) {
                minus = minus.union(r);
            }
        }
        plus.minus(minus)
    }

    /// The same evaluation driven by the list instead of the CPS: union of
    /// the positive entries whose principal `in_cps` admits, minus union of
    /// the negative ones. Visits each entry once and builds nothing.
    pub fn rights_where(&self, mut in_cps: impl FnMut(&str) -> bool) -> Rights {
        let mut union = |entries: &[(String, Rights)]| {
            entries
                .iter()
                .filter(|(who, _)| in_cps(who))
                .fold(Rights::NONE, |acc, &(_, r)| acc.union(r))
        };
        let plus = union(&self.positive);
        plus.minus(union(&self.negative))
    }
}

wire_table! { struct Rights(bits: u8) }

/// The positive entries, then the negative, each a count and `(principal,
/// rights)` pairs in list order. Read back through [`AccessList::grant`]
/// and [`AccessList::deny`], so a list off the wire keeps the invariant
/// the lookups' binary search relies on — sorted, one entry per principal,
/// no empty rights — however its bytes were laid out.
impl<R> Codec<AccessList, R> for AccessList {
    const MIN: usize = 8;
    fn put(acl: &AccessList, w: WireWriter) -> WireWriter {
        put::<_, R>(&acl.negative, put::<_, R>(&acl.positive, w))
    }
    fn take(r: &mut WireReader<'_, R>) -> Result<AccessList, WireError> {
        let mut acl = AccessList::new();
        let upserts: [fn(&mut AccessList, &str, Rights); 2] = [AccessList::grant, AccessList::deny];
        for upsert in upserts {
            for _ in 0..take_count::<(String, Rights), R>(r)? {
                let (who, rights): (String, Rights) = take(r)?;
                upsert(&mut acl, &who, rights);
            }
        }
        Ok(acl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rights_set_algebra() {
        let rw = Rights::READ | Rights::WRITE;
        assert!(rw.covers(Rights::READ));
        assert!(!rw.covers(Rights::ADMINISTER));
        assert!(rw.covers(Rights::NONE));
        assert_eq!(rw.minus(Rights::WRITE), Rights::READ);
        assert!(Rights::ALL.covers(rw));
        assert_eq!(format!("{}", rw), "rw-----");
        assert_eq!(format!("{}", Rights::ALL), "rwidlka");
    }

    #[test]
    fn grant_and_effective() {
        let mut acl = AccessList::new();
        acl.grant("satya", Rights::ALL);
        acl.grant("faculty", Rights::READ_ONLY);
        assert_eq!(acl.effective_rights(["satya"]), Rights::ALL);
        assert_eq!(
            acl.effective_rights(["howard", "faculty"]),
            Rights::READ_ONLY
        );
        assert_eq!(acl.effective_rights(["stranger"]), Rights::NONE);
    }

    #[test]
    fn rights_union_across_cps() {
        // "The rights possessed by a user on a protected object are the
        // union of the rights specified for all the groups that he belongs
        // to."
        let mut acl = AccessList::new();
        acl.grant("readers", Rights::READ_ONLY);
        acl.grant("writers", Rights::WRITE | Rights::INSERT);
        let eff = acl.effective_rights(["nichols", "readers", "writers"]);
        assert!(eff.covers(Rights::READ | Rights::WRITE | Rights::INSERT | Rights::LOOKUP));
    }

    #[test]
    fn negative_rights_subtract() {
        let mut acl = AccessList::new();
        acl.grant("faculty", Rights::ALL);
        acl.deny(
            "mallory",
            Rights::WRITE | Rights::INSERT | Rights::DELETE | Rights::ADMINISTER,
        );
        // Mallory is faculty, but his negative entry wins on those bits.
        let eff = acl.effective_rights(["mallory", "faculty"]);
        assert_eq!(eff, Rights::READ | Rights::LOOKUP | Rights::LOCK);
        // Other faculty are unaffected.
        assert_eq!(acl.effective_rights(["west", "faculty"]), Rights::ALL);
    }

    #[test]
    fn negative_beats_positive_even_via_groups() {
        let mut acl = AccessList::new();
        acl.grant("staff", Rights::ALL);
        acl.deny("suspended", Rights::ALL);
        // The user is in both groups; denial wins entirely.
        assert_eq!(
            acl.effective_rights(["u", "staff", "suspended"]),
            Rights::NONE
        );
    }

    #[test]
    fn upsert_replaces_and_empty_removes() {
        let mut acl = AccessList::new();
        acl.grant("u", Rights::READ);
        acl.grant("u", Rights::WRITE);
        assert_eq!(acl.positive_for("u"), Some(Rights::WRITE));
        acl.grant("u", Rights::NONE);
        assert_eq!(acl.positive_for("u"), None);
        assert!(acl.is_empty());
    }

    #[test]
    fn wire_round_trip() {
        let mut acl = AccessList::new();
        acl.grant("satya", Rights::ALL);
        acl.grant("faculty", Rights::READ_ONLY);
        acl.deny("mallory", Rights::WRITE);
        let bytes = put::<_, ()>(&acl, WireWriter::new()).finish();
        let decoded: AccessList = WireReader::new(&bytes).whole().unwrap();
        assert_eq!(decoded, acl);
    }
}
