//! Protocol data types.

use super::payload::Payload;
use crate::protect::AccessList;

/// Identifies a Vice cluster server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

/// Identifies a volume (Section 5.3: "a complete subtree of files whose
/// root may be arbitrarily relocated in the Vice name space").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VolumeId(pub u32);

/// Kind of a directory entry, as reported by `ListDir`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
    /// Symbolic link.
    Symlink,
}

impl From<itc_unixfs::FileType> for EntryKind {
    fn from(ftype: itc_unixfs::FileType) -> EntryKind {
        match ftype {
            itc_unixfs::FileType::Regular => EntryKind::File,
            itc_unixfs::FileType::Directory => EntryKind::Dir,
            itc_unixfs::FileType::Symlink => EntryKind::Symlink,
        }
    }
}

/// File status as Vice reports it — what Venus caches alongside file data
/// ("Virtue caches entire files along with their status and custodianship
/// information", Section 3.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VStatus {
    /// Canonical Vice path.
    pub path: String,
    /// Unique file identifier within the custodian (never reused; a
    /// deleted-and-recreated file gets a fresh one). Cache validation
    /// compares this *and* the version — the revised design's
    /// "fixed-length unique file identifiers" (Section 5.3).
    pub fid: u64,
    /// Entry kind.
    pub kind: EntryKind,
    /// Size in bytes.
    pub size: u64,
    /// Version counter; the quantity cache validation compares.
    pub version: u64,
    /// Modification time (virtual-time microseconds).
    pub mtime: u64,
    /// Per-file Unix mode bits (revised design, Section 5.1).
    pub mode: u16,
    /// Owner uid.
    pub owner: u32,
    /// True when the file lives in a read-only (cloned/replicated) volume —
    /// "caching of files from read-only subtrees is simplified since the
    /// cached copies can never be invalid" (Section 3.2).
    pub read_only: bool,
}

/// Errors a Vice server returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViceError {
    /// Path does not exist.
    NoSuchFile(String),
    /// A path component was not a directory.
    NotADirectory(String),
    /// Operation needs a file but found a directory.
    IsADirectory(String),
    /// Creation target exists.
    AlreadyExists(String),
    /// Directory not empty.
    NotEmpty(String),
    /// The caller's CPS lacks the needed rights.
    PermissionDenied(String),
    /// This server is not the custodian; the hint (if any) is where to go.
    /// "If a server receives a request for a file for which it is not the
    /// custodian, it will respond with the identity of the appropriate
    /// custodian" (Section 3.1).
    NotCustodian(Option<ServerId>),
    /// A conflicting advisory lock is held.
    LockConflict(String),
    /// The target volume is read-only.
    ReadOnlyVolume(String),
    /// The volume's quota would be exceeded.
    QuotaExceeded(String),
    /// The volume is offline.
    VolumeOffline(String),
    /// Symlink chain too long.
    SymlinkLoop(String),
    /// Directory rename into its own subtree.
    RenameIntoSelf(String),
    /// The request could not be decoded or was semantically invalid.
    BadRequest(String),
    /// The server did not answer within the RPC timeout (down machine or
    /// partitioned network). Synthesized client-side, never sent on the
    /// wire by a server.
    Unreachable(u32),
    /// Every attempt at the call timed out even though the server was
    /// thought to be up (lost requests or replies). Synthesized
    /// client-side after retry exhaustion, never sent on the wire by a
    /// server. Distinct from [`ViceError::Unreachable`]: the binding still
    /// exists and the server may answer the next call.
    TimedOut(u32),
}

impl std::fmt::Display for ViceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViceError::NoSuchFile(p) => write!(f, "no such file: {p}"),
            ViceError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            ViceError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            ViceError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            ViceError::NotEmpty(p) => write!(f, "directory not empty: {p}"),
            ViceError::PermissionDenied(p) => write!(f, "permission denied: {p}"),
            ViceError::NotCustodian(Some(s)) => write!(f, "not custodian; try server {}", s.0),
            ViceError::NotCustodian(None) => write!(f, "not custodian; custodian unknown"),
            ViceError::LockConflict(p) => write!(f, "lock conflict: {p}"),
            ViceError::ReadOnlyVolume(p) => write!(f, "read-only volume: {p}"),
            ViceError::QuotaExceeded(p) => write!(f, "quota exceeded: {p}"),
            ViceError::VolumeOffline(p) => write!(f, "volume offline: {p}"),
            ViceError::SymlinkLoop(p) => write!(f, "symlink loop: {p}"),
            ViceError::RenameIntoSelf(p) => write!(f, "rename into own subtree: {p}"),
            ViceError::BadRequest(m) => write!(f, "bad request: {m}"),
            ViceError::Unreachable(s) => write!(f, "server {s} unreachable"),
            ViceError::TimedOut(s) => write!(f, "call to server {s} timed out"),
        }
    }
}

impl std::error::Error for ViceError {}

/// A request from Venus to a Vice server.
#[derive(Debug, Clone, PartialEq)]
pub enum ViceRequest {
    /// Who is the custodian of this path?
    GetCustodian {
        /// Vice path.
        path: String,
    },
    /// Fetch the entire file (whole-file transfer).
    Fetch {
        /// Vice path.
        path: String,
    },
    /// Store the entire file, replacing its contents; creates it if new.
    Store {
        /// Vice path.
        path: String,
        /// Full new contents (refcounted: retries and the cache share one
        /// buffer).
        data: Payload,
    },
    /// Remove a file or symlink.
    Remove {
        /// Vice path.
        path: String,
    },
    /// Get status only.
    GetStatus {
        /// Vice path.
        path: String,
    },
    /// Set per-file mode bits.
    SetMode {
        /// Vice path.
        path: String,
        /// New mode bits.
        mode: u16,
    },
    /// Is my cached copy (at `version`) still current? In callback mode
    /// this also registers a callback promise.
    Validate {
        /// Vice path.
        path: String,
        /// Unique file identifier of the cached copy.
        fid: u64,
        /// Version of the cached copy.
        version: u64,
    },
    /// Create a directory. The new directory inherits its parent's access
    /// list.
    MakeDir {
        /// Vice path.
        path: String,
    },
    /// Remove an empty directory.
    RemoveDir {
        /// Vice path.
        path: String,
    },
    /// Rename a file or subtree (revised design supports directories).
    Rename {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// List a directory.
    ListDir {
        /// Vice path.
        path: String,
    },
    /// Read a directory's access list.
    GetAcl {
        /// Vice path.
        path: String,
    },
    /// Replace a directory's access list (requires ADMINISTER).
    SetAcl {
        /// Vice path.
        path: String,
        /// The new list.
        acl: AccessList,
    },
    /// Create a symbolic link inside Vice (revised design, Section 5.3).
    MakeSymlink {
        /// Link path.
        path: String,
        /// Target path.
        target: String,
    },
    /// Read a symlink's target.
    ReadLink {
        /// Vice path.
        path: String,
    },
    /// Acquire an advisory lock (single-writer/multi-reader, Section 3.6).
    SetLock {
        /// Vice path.
        path: String,
        /// True for an exclusive (writer) lock.
        exclusive: bool,
    },
    /// Release an advisory lock held by this user/workstation.
    ReleaseLock {
        /// Vice path.
        path: String,
    },
}

impl ViceRequest {
    /// True for requests that change server state visible to other
    /// workstations. Mutations get idempotency tokens and a server-side
    /// replay cache so a retried call (lost reply) is answered from the
    /// cache instead of being applied twice; reads are naturally
    /// idempotent and are also eligible for replica failover.
    pub fn is_mutation(&self) -> bool {
        match self {
            ViceRequest::Store { .. }
            | ViceRequest::Remove { .. }
            | ViceRequest::SetMode { .. }
            | ViceRequest::MakeDir { .. }
            | ViceRequest::RemoveDir { .. }
            | ViceRequest::Rename { .. }
            | ViceRequest::SetAcl { .. }
            | ViceRequest::MakeSymlink { .. }
            | ViceRequest::SetLock { .. }
            | ViceRequest::ReleaseLock { .. } => true,
            ViceRequest::GetCustodian { .. }
            | ViceRequest::Fetch { .. }
            | ViceRequest::GetStatus { .. }
            | ViceRequest::Validate { .. }
            | ViceRequest::ListDir { .. }
            | ViceRequest::GetAcl { .. }
            | ViceRequest::ReadLink { .. } => false,
        }
    }

    /// The names a successful reply to this request changes — the one rule
    /// for what a mutation makes stale (DESIGN.md §7). A cached copy of
    /// each, and its parent's cached listing, no longer match the server:
    /// the server breaks the callbacks on both, and the caller's Venus
    /// drops and invalidates its own. Access lists and locks change no
    /// cached name.
    pub fn changes(&self) -> [Option<&str>; 2] {
        match self {
            ViceRequest::Store { path, .. }
            | ViceRequest::Remove { path }
            | ViceRequest::SetMode { path, .. }
            | ViceRequest::MakeDir { path }
            | ViceRequest::RemoveDir { path }
            | ViceRequest::MakeSymlink { path, .. } => [Some(path), None],
            ViceRequest::Rename { from, to } => [Some(from), Some(to)],
            _ => [None, None],
        }
    }

    /// The primary path the request operates on.
    pub fn path(&self) -> &str {
        match self {
            ViceRequest::GetCustodian { path }
            | ViceRequest::Fetch { path }
            | ViceRequest::Store { path, .. }
            | ViceRequest::Remove { path }
            | ViceRequest::GetStatus { path }
            | ViceRequest::SetMode { path, .. }
            | ViceRequest::Validate { path, .. }
            | ViceRequest::MakeDir { path }
            | ViceRequest::RemoveDir { path }
            | ViceRequest::Rename { from: path, .. }
            | ViceRequest::ListDir { path }
            | ViceRequest::GetAcl { path }
            | ViceRequest::SetAcl { path, .. }
            | ViceRequest::MakeSymlink { path, .. }
            | ViceRequest::ReadLink { path }
            | ViceRequest::SetLock { path, .. }
            | ViceRequest::ReleaseLock { path } => path,
        }
    }
}

/// The directory holding a normal path (what Venus sends): "/a/b" is in
/// "/a", "/a" in "/"; the root, like a relative path, has none.
pub fn parent_of(path: &str) -> Option<&str> {
    match path.rsplit_once('/') {
        Some((dir, name)) if path.starts_with('/') && !name.is_empty() => {
            Some(if dir.is_empty() { "/" } else { dir })
        }
        _ => None,
    }
}

/// A reply from a Vice server.
#[derive(Debug, Clone, PartialEq)]
pub enum ViceReply {
    /// Success with nothing to return.
    Ok,
    /// Status block.
    Status(VStatus),
    /// Whole-file data plus status (fetch).
    Data {
        /// Status of the fetched file.
        status: VStatus,
        /// Entire file contents (refcounted).
        data: Payload,
    },
    /// Directory listing.
    Listing(Vec<(String, EntryKind)>),
    /// Access list contents.
    Acl(AccessList),
    /// Custodian answer: the covering subtree, its custodian, and any
    /// read-only replica sites. The subtree root lets Venus cache the
    /// answer as a hint for every path beneath it.
    Custodian {
        /// Root of the subtree this answer covers.
        subtree: String,
        /// The writable custodian.
        custodian: ServerId,
        /// Servers holding read-only replicas of the subtree.
        replicas: Vec<ServerId>,
    },
    /// Validation verdict. `status` is returned when the copy is stale so
    /// Venus can decide to refetch.
    Validated {
        /// True when the cached version is current.
        valid: bool,
        /// Fresh status when stale.
        status: Option<VStatus>,
    },
    /// Symlink target.
    Link(String),
    /// Failure.
    Error(ViceError),
}
