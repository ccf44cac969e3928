//! File system error type, mirroring the Unix errno values the operations
//! would produce.

/// Errors returned by [`crate::FileSystem`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// A path component does not exist (`ENOENT`).
    NotFound(String),
    /// A non-final path component is not a directory (`ENOTDIR`).
    NotADirectory(String),
    /// The operation needs a non-directory but found a directory
    /// (`EISDIR`).
    IsADirectory(String),
    /// Creation target already exists (`EEXIST`).
    AlreadyExists(String),
    /// Directory removal target is not empty (`ENOTEMPTY`).
    NotEmpty(String),
    /// Symbolic link resolution exceeded the loop limit (`ELOOP`).
    SymlinkLoop(String),
    /// The path is syntactically invalid (empty or relative where an
    /// absolute path is required, or the root where a name is).
    InvalidPath(String),
    /// Attempt to move a directory into its own subtree (`EINVAL` from
    /// `rename(2)`).
    RenameIntoSelf(String),
    /// The operation needs a symlink but found something else.
    NotASymlink(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            FsError::AlreadyExists(p) => write!(f, "file exists: {p}"),
            FsError::NotEmpty(p) => write!(f, "directory not empty: {p}"),
            FsError::SymlinkLoop(p) => write!(f, "too many levels of symbolic links: {p}"),
            FsError::InvalidPath(p) => write!(f, "invalid path: {p}"),
            FsError::RenameIntoSelf(p) => write!(f, "cannot move directory into itself: {p}"),
            FsError::NotASymlink(p) => write!(f, "not a symbolic link: {p}"),
        }
    }
}

impl std::error::Error for FsError {}
