//! The protection domain: users, recursively-nested groups, and CPS
//! computation.
//!
//! "Entries on an access list are from a protection domain consisting of
//! Users, who are typically human beings, and Groups, which are collections
//! of users and other groups. The recursive membership of groups is similar
//! to that of the registration database in Grapevine" (Section 3.4).
//!
//! The domain also stores each user's authentication key (derived from his
//! password), because Vice must hold the same key Venus derives in order to
//! run the mutual handshake. "Information about users and groups is stored
//! in a protection database which is replicated at each cluster server" —
//! replication is modeled in [`crate::protect::pserver`].

use super::{AccessList, Rights};
use itc_cryptbox::{derive_key, Key};
use std::collections::{BTreeMap, BTreeSet};

/// The principal every authenticated user implicitly belongs to — the
/// "System:AnyUser"-style blanket entry common on access lists.
pub const ANYUSER: &str = "anyuser";

/// A principal: either a user or a group. Names are unique across both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Principal {
    /// A human (or role) that can authenticate.
    User {
        /// Authentication key derived from the password.
        auth_key: Key,
    },
    /// A named collection of users and groups.
    Group {
        /// Direct members (user or group names).
        members: BTreeSet<String>,
    },
}

/// Errors from domain manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DomainError {
    /// The principal name is already taken.
    Duplicate(String),
    /// No principal with that name.
    Unknown(String),
    /// The named principal is not a group.
    NotAGroup(String),
    /// The named principal is not a user.
    NotAUser(String),
    /// Adding this membership would create a cycle.
    Cycle(String),
}

impl std::fmt::Display for DomainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DomainError::Duplicate(n) => write!(f, "principal already exists: {n}"),
            DomainError::Unknown(n) => write!(f, "unknown principal: {n}"),
            DomainError::NotAGroup(n) => write!(f, "not a group: {n}"),
            DomainError::NotAUser(n) => write!(f, "not a user: {n}"),
            DomainError::Cycle(n) => write!(f, "membership cycle through: {n}"),
        }
    }
}

impl std::error::Error for DomainError {}

/// The user/group database.
#[derive(Debug, Clone, Default)]
pub struct ProtectionDomain {
    principals: BTreeMap<String, Principal>,
    /// Version, bumped on every mutation — replicas compare this.
    version: u64,
}

impl ProtectionDomain {
    /// An empty domain.
    pub fn new() -> ProtectionDomain {
        ProtectionDomain::default()
    }

    /// Current version (bumped by every mutation).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Registers a user with a password. The stored key is derived exactly
    /// as Venus derives it, salted by the user name.
    pub fn add_user(&mut self, name: &str, password: &str) -> Result<(), DomainError> {
        if self.principals.contains_key(name) {
            return Err(DomainError::Duplicate(name.to_string()));
        }
        self.principals.insert(
            name.to_string(),
            Principal::User {
                auth_key: derive_key(password, name),
            },
        );
        self.version += 1;
        Ok(())
    }

    /// Creates an empty group.
    pub fn add_group(&mut self, name: &str) -> Result<(), DomainError> {
        if self.principals.contains_key(name) {
            return Err(DomainError::Duplicate(name.to_string()));
        }
        self.principals.insert(
            name.to_string(),
            Principal::Group {
                members: BTreeSet::new(),
            },
        );
        self.version += 1;
        Ok(())
    }

    /// Adds `member` (user or group) to `group`. Rejects cycles.
    pub fn add_member(&mut self, group: &str, member: &str) -> Result<(), DomainError> {
        if !self.principals.contains_key(member) {
            return Err(DomainError::Unknown(member.to_string()));
        }
        // A cycle exists if `member` (transitively) contains `group`.
        if group == member || self.contains(member, group) {
            return Err(DomainError::Cycle(member.to_string()));
        }
        match self.principals.get_mut(group) {
            Some(Principal::Group { members }) => {
                members.insert(member.to_string());
                self.version += 1;
                Ok(())
            }
            Some(_) => Err(DomainError::NotAGroup(group.to_string())),
            None => Err(DomainError::Unknown(group.to_string())),
        }
    }

    /// Removes `member` from `group`.
    pub fn remove_member(&mut self, group: &str, member: &str) -> Result<(), DomainError> {
        match self.principals.get_mut(group) {
            Some(Principal::Group { members }) => {
                members.remove(member);
                self.version += 1;
                Ok(())
            }
            Some(_) => Err(DomainError::NotAGroup(group.to_string())),
            None => Err(DomainError::Unknown(group.to_string())),
        }
    }

    /// Removes `member` from **every** group that directly contains it —
    /// the paper's "slow revocation" path, which the protection server must
    /// propagate to every replica.
    pub fn remove_from_all_groups(&mut self, member: &str) -> usize {
        let mut removed = 0;
        for p in self.principals.values_mut() {
            if let Principal::Group { members } = p {
                if members.remove(member) {
                    removed += 1;
                }
            }
        }
        if removed > 0 {
            self.version += 1;
        }
        removed
    }

    /// The authentication key for a user, if he exists.
    pub fn auth_key(&self, user: &str) -> Result<Key, DomainError> {
        match self.principals.get(user) {
            Some(Principal::User { auth_key }) => Ok(*auth_key),
            Some(_) => Err(DomainError::NotAUser(user.to_string())),
            None => Err(DomainError::Unknown(user.to_string())),
        }
    }

    /// True when `name` names a user.
    pub fn is_user(&self, name: &str) -> bool {
        matches!(self.principals.get(name), Some(Principal::User { .. }))
    }

    /// True when `name` names any principal.
    pub fn exists(&self, name: &str) -> bool {
        self.principals.contains_key(name)
    }

    /// Direct members of a group.
    pub fn members_of(&self, group: &str) -> Result<Vec<String>, DomainError> {
        match self.principals.get(group) {
            Some(Principal::Group { members }) => Ok(members.iter().cloned().collect()),
            Some(_) => Err(DomainError::NotAGroup(group.to_string())),
            None => Err(DomainError::Unknown(group.to_string())),
        }
    }

    /// True when `group` is a group that contains `member` directly or
    /// through nested groups. Membership is acyclic ([`Self::add_member`]
    /// refuses cycles), so the descent ends; it allocates nothing.
    fn contains(&self, group: &str, member: &str) -> bool {
        match self.principals.get(group) {
            Some(Principal::Group { members }) => {
                members.contains(member) || members.iter().any(|m| self.contains(m, member))
            }
            _ => false,
        }
    }

    /// The Current Protection Subdomain of a user: his own name plus every
    /// group that contains him "either directly or indirectly"
    /// (Section 3.4). ACL evaluation unions rights over exactly this set.
    pub fn cps(&self, user: &str) -> Vec<String> {
        let mut groups = BTreeSet::new();
        let mut frontier = vec![user.to_string()];
        while let Some(cur) = frontier.pop() {
            for (gname, p) in &self.principals {
                if let Principal::Group { members } = p {
                    if members.contains(&cur) && groups.insert(gname.clone()) {
                        frontier.push(gname.clone());
                    }
                }
            }
        }
        let mut names = vec![user.to_string()];
        names.extend(groups);
        names
    }

    /// The rights `user` holds on `acl`: exactly
    /// `acl.effective_rights(cps(user) ∪ {ANYUSER})`, evaluated from the
    /// list's side — an entry counts when it names the user, [`ANYUSER`],
    /// or a group containing the user — so a check builds no CPS.
    pub fn rights_on(&self, user: &str, acl: &AccessList) -> Rights {
        acl.rights_where(|who| who == user || who == ANYUSER || self.contains(who, user))
    }

    /// Number of principals.
    pub fn len(&self) -> usize {
        self.principals.len()
    }

    /// True when no principals are registered.
    pub fn is_empty(&self) -> bool {
        self.principals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campus() -> ProtectionDomain {
        let mut d = ProtectionDomain::new();
        for u in ["satya", "howard", "nichols", "student1"] {
            d.add_user(u, &format!("pw-{u}")).unwrap();
        }
        d.add_group("itc").unwrap();
        d.add_group("faculty").unwrap();
        d.add_group("cmu").unwrap();
        d.add_member("itc", "satya").unwrap();
        d.add_member("itc", "howard").unwrap();
        d.add_member("faculty", "itc").unwrap(); // group inside group
        d.add_member("cmu", "faculty").unwrap();
        d.add_member("cmu", "student1").unwrap();
        d
    }

    #[test]
    fn cps_is_transitive() {
        let d = campus();
        let cps = d.cps("satya");
        for g in ["satya", "itc", "faculty", "cmu"] {
            assert!(cps.contains(&g.to_string()), "missing {g} in {cps:?}");
        }
        assert!(!cps.contains(&"howard".to_string()));
        let s = d.cps("student1");
        assert!(s.contains(&"cmu".to_string()));
        assert!(!s.contains(&"faculty".to_string()));
    }

    #[test]
    fn unknown_user_cps_is_just_self() {
        let d = campus();
        assert_eq!(d.cps("ghost"), vec!["ghost".to_string()]);
    }

    #[test]
    fn cycles_rejected() {
        let mut d = campus();
        // faculty contains itc; adding faculty to itc would cycle.
        assert!(matches!(
            d.add_member("itc", "faculty"),
            Err(DomainError::Cycle(_))
        ));
        assert!(matches!(
            d.add_member("itc", "itc"),
            Err(DomainError::Cycle(_))
        ));
    }

    #[test]
    fn auth_keys_match_password_derivation() {
        let d = campus();
        let k = d.auth_key("satya").unwrap();
        assert_eq!(k, itc_cryptbox::derive_key("pw-satya", "satya"));
        assert!(matches!(d.auth_key("itc"), Err(DomainError::NotAUser(_))));
        assert!(matches!(d.auth_key("nobody"), Err(DomainError::Unknown(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut d = campus();
        assert!(matches!(
            d.add_user("satya", "x"),
            Err(DomainError::Duplicate(_))
        ));
        assert!(matches!(
            d.add_group("faculty"),
            Err(DomainError::Duplicate(_))
        ));
    }

    #[test]
    fn membership_removal_shrinks_cps() {
        let mut d = campus();
        assert!(d.cps("satya").contains(&"faculty".to_string()));
        d.remove_member("itc", "satya").unwrap();
        let cps = d.cps("satya");
        assert!(!cps.contains(&"itc".to_string()));
        assert!(!cps.contains(&"faculty".to_string()));
    }

    #[test]
    fn remove_from_all_groups_counts() {
        let mut d = campus();
        d.add_member("cmu", "satya").unwrap();
        // satya is directly in itc and cmu.
        assert_eq!(d.remove_from_all_groups("satya"), 2);
        assert_eq!(d.cps("satya"), vec!["satya".to_string()]);
        assert_eq!(d.remove_from_all_groups("satya"), 0);
    }

    #[test]
    fn version_bumps_on_mutation() {
        let mut d = ProtectionDomain::new();
        let v0 = d.version();
        d.add_user("u", "p").unwrap();
        assert!(d.version() > v0);
        let v1 = d.version();
        d.add_group("g").unwrap();
        d.add_member("g", "u").unwrap();
        assert!(d.version() > v1);
    }

    #[test]
    fn members_listing() {
        let d = campus();
        let m = d.members_of("itc").unwrap();
        assert_eq!(m, vec!["howard".to_string(), "satya".to_string()]);
        assert!(d.members_of("satya").is_err());
    }
}
