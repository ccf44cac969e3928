//! Inodes and their attributes.

use crate::payload::Payload;
use std::collections::BTreeMap;

/// An inode number: stable identity of a file independent of its name.
/// (The revised Vice design keys its whole interface on such "fixed-length
/// unique file identifiers"; on servers they come from here.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ino(pub u64);

/// The three file types the design needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// Regular file: an uninterpreted byte array.
    Regular,
    /// Directory: a name → inode map.
    Directory,
    /// Symbolic link: holds a target path.
    Symlink,
}

/// Unix permission bits (the low 12 bits of `st_mode`). Only the
/// owner/group/other rwx bits are interpreted by the reproduction, but the
/// full field is stored because the paper notes that "a few programs use
/// the per-file Unix protection bits to encode application-specific
/// information" (Section 5.1) — we must round-trip them faithfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mode(pub u16);

impl Mode {
    /// rwxr-xr-x
    pub const DIR_DEFAULT: Mode = Mode(0o755);
    /// rw-r--r--
    pub const FILE_DEFAULT: Mode = Mode(0o644);

    /// Owner-read bit set?
    pub fn owner_can_read(self) -> bool {
        self.0 & 0o400 != 0
    }

    /// Owner-write bit set?
    pub fn owner_can_write(self) -> bool {
        self.0 & 0o200 != 0
    }

    /// Owner-execute bit set?
    pub fn owner_can_exec(self) -> bool {
        self.0 & 0o100 != 0
    }
}

/// Externally visible attributes of a file — what `stat(2)` returns, and
/// what Vice reports in `GetFileStat`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InodeAttr {
    /// Inode number.
    pub ino: Ino,
    /// File type.
    pub ftype: FileType,
    /// Permission bits.
    pub mode: Mode,
    /// Owning user id (interpretation is the caller's business).
    pub uid: u32,
    /// Size in bytes (directories report entry count, symlinks target
    /// length — as Unix roughly does).
    pub size: u64,
    /// Logical modification time (virtual-time microseconds).
    pub mtime: u64,
    /// Monotonic per-file version: increments on every content or
    /// truncation change. This is what cache validation compares — strictly
    /// more reliable than `mtime` (two writes in the same microsecond still
    /// bump it).
    pub version: u64,
    /// Link count (for directories: 2 + number of subdirectories).
    pub nlink: u32,
}

/// The payload of an inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeData {
    /// Regular file bytes, shared by refcount with every other holder.
    Regular(Payload),
    /// Directory entries, ordered by name for deterministic iteration.
    Directory(BTreeMap<String, Ino>),
    /// Symlink target path (may be relative).
    Symlink(String),
}

/// A full inode: attributes plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// Attribute block.
    pub attr: InodeAttr,
    /// Payload.
    pub data: NodeData,
}

impl Inode {
    /// Creates a regular file inode.
    pub fn new_file(ino: Ino, mode: Mode, uid: u32, mtime: u64, data: Payload) -> Inode {
        Inode {
            attr: InodeAttr {
                ino,
                ftype: FileType::Regular,
                mode,
                uid,
                size: data.len() as u64,
                mtime,
                version: 1,
                nlink: 1,
            },
            data: NodeData::Regular(data),
        }
    }

    /// Creates a directory inode.
    pub fn new_dir(ino: Ino, mode: Mode, uid: u32, mtime: u64) -> Inode {
        Inode {
            attr: InodeAttr {
                ino,
                ftype: FileType::Directory,
                mode,
                uid,
                size: 0,
                mtime,
                version: 1,
                nlink: 2,
            },
            data: NodeData::Directory(BTreeMap::new()),
        }
    }

    /// Creates a symlink inode.
    pub fn new_symlink(ino: Ino, uid: u32, mtime: u64, target: String) -> Inode {
        Inode {
            attr: InodeAttr {
                ino,
                ftype: FileType::Symlink,
                mode: Mode(0o777),
                uid,
                size: target.len() as u64,
                mtime,
                version: 1,
                nlink: 1,
            },
            data: NodeData::Symlink(target),
        }
    }

    /// The directory map, if this is a directory.
    pub fn as_dir(&self) -> Option<&BTreeMap<String, Ino>> {
        match &self.data {
            NodeData::Directory(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable directory map, if this is a directory.
    pub fn as_dir_mut(&mut self) -> Option<&mut BTreeMap<String, Ino>> {
        match &mut self.data {
            NodeData::Directory(m) => Some(m),
            _ => None,
        }
    }

    /// The file bytes, if this is a regular file.
    pub fn as_file(&self) -> Option<&Payload> {
        match &self.data {
            NodeData::Regular(d) => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_bits() {
        assert!(Mode(0o644).owner_can_read());
        assert!(Mode(0o644).owner_can_write());
        assert!(!Mode(0o644).owner_can_exec());
        assert!(Mode(0o755).owner_can_exec());
        assert!(!Mode(0o000).owner_can_read());
    }

    #[test]
    fn constructors_set_types() {
        let f = Inode::new_file(Ino(1), Mode::FILE_DEFAULT, 0, 0, b"x".into());
        assert_eq!(f.attr.ftype, FileType::Regular);
        assert_eq!(f.attr.size, 1);
        assert!(f.as_file().is_some());
        assert!(f.as_dir().is_none());

        let d = Inode::new_dir(Ino(2), Mode::DIR_DEFAULT, 0, 0);
        assert_eq!(d.attr.ftype, FileType::Directory);
        assert_eq!(d.attr.nlink, 2);
        assert!(d.as_dir().is_some());

        let s = Inode::new_symlink(Ino(3), 0, 0, "/vice/bin".into());
        assert_eq!(s.attr.ftype, FileType::Symlink);
        assert_eq!(s.attr.size, 9);
    }
}
