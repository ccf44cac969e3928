//! An in-memory Unix-like file system.
//!
//! Both halves of the ITC design stand on a 4.2BSD file system: cluster
//! servers store Vice files in it (Section 3.5.2: "The prototype file
//! server uses the underlying Unix file system for the storage of Vice
//! files") and Venus uses a local directory as cache storage (Section
//! 3.5.1). This crate provides that substrate: a hierarchical namespace of
//! inodes with directories, regular files, and symbolic links; mode bits and
//! ownership; logical modification timestamps and version counters; `rename`
//! across directories; and path resolution with symlink following.
//!
//! Symbolic links matter more here than in most reimplementations: the
//! paper's answer to heterogeneity is "/bin is a symbolic link to
//! /vice/unix/sun/bin on a Sun; to /vice/unix/vax/bin on a Vax"
//! (Section 3.1). The resolution machinery in [`FileSystem::resolve`] is
//! what makes that scheme work.
//!
//! Regular-file contents are held as [`Payload`]: one refcounted, immutable
//! buffer shared by every holder of the same bytes (a cloned file system,
//! a journal record, a wire message, a cache entry), so cloning a
//! [`FileSystem`] is copy-on-write for file data.
//!
//! Everything is deterministic: directory iteration is ordered, inode
//! numbers are assigned sequentially, and "time" is a logical timestamp
//! supplied by the caller (virtual time in the simulation).

pub mod error;
pub mod fs;
pub mod inode;
pub mod path;
pub mod payload;

pub use error::FsError;
pub use fs::{FileSystem, Resolved};
pub use inode::{FileType, Ino, InodeAttr, Mode};
pub use path::{components, dirname_basename, join, normalize};
pub use payload::Payload;
