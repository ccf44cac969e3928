//! Protection: users, groups, and access lists.
//!
//! Section 3.4 of the paper defines a protection domain of *Users* and
//! *Groups*, where groups may recursively contain other groups (modeled on
//! Grapevine's registration database). The rights a user has on an object
//! are the union of the rights of every group reachable from him — his
//! *Current Protection Subdomain* (CPS) — minus the union of the *negative
//! rights* of that CPS. Negative rights exist because removing a user from
//! all groups is slow in a distributed system: "To revoke a user's access
//! to an object, he can be given negative rights on that object" at a
//! single site, immediately.
//!
//! The protected entities in the prototype are directories; the revised
//! design adds per-file Unix mode bits on top (Section 5.1), which this
//! reproduction also supports (the mode bits live in the underlying
//! [`itc_unixfs`] inodes).

pub mod acl;
pub mod domain;

pub use acl::{AccessList, Rights};
pub use domain::{Principal, ProtectionDomain};
