//! The file system proper: an inode table plus the operations over it.

use crate::error::FsError;
use crate::inode::{FileType, Ino, Inode, InodeAttr, Mode, NodeData};
use crate::path::{components, is_within, normalize};
use crate::payload::Payload;
use std::collections::HashMap;

/// Maximum symlink expansions during one resolution, as in Unix `ELOOP`.
const SYMLINK_LIMIT: u32 = 40;

/// Result of a successful path resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resolved {
    /// The inode the path denotes.
    pub ino: Ino,
    /// Number of directory components walked, including symlink expansions.
    /// The cost model charges per-component CPU for exactly this number —
    /// it is how the server-side vs client-side pathname traversal ablation
    /// (E7) measures work.
    pub components_walked: u32,
}

/// An in-memory Unix-like file system.
///
/// `Clone` copies the inode table and shares every regular file's bytes by
/// refcount — the paper's copy-on-write clone (Section 5.3). File bytes
/// are immutable once stored: [`Self::write`] and [`Self::restore_data`]
/// swap in a new buffer, and the one in-place mutator,
/// [`Self::damage_byte`], copies first when the buffer is shared.
#[derive(Debug, Clone)]
pub struct FileSystem {
    inodes: HashMap<u64, Inode>,
    next_ino: u64,
    root: Ino,
    data_bytes: u64,
}

impl Default for FileSystem {
    fn default() -> Self {
        Self::new()
    }
}

impl FileSystem {
    /// Creates a file system containing only an empty root directory.
    pub fn new() -> FileSystem {
        let root = Ino(1);
        let mut inodes = HashMap::new();
        inodes.insert(root.0, Inode::new_dir(root, Mode::DIR_DEFAULT, 0, 0));
        FileSystem {
            inodes,
            next_ino: 2,
            root,
            data_bytes: 0,
        }
    }

    /// The root directory's inode number.
    pub fn root(&self) -> Ino {
        self.root
    }

    /// Total bytes of regular-file data stored.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Number of inodes (files + directories + symlinks, including root).
    pub fn inode_count(&self) -> usize {
        self.inodes.len()
    }

    fn alloc_ino(&mut self) -> Ino {
        let ino = Ino(self.next_ino);
        self.next_ino += 1;
        ino
    }

    fn node(&self, ino: Ino) -> &Inode {
        self.inodes.get(&ino.0).expect("dangling inode reference")
    }

    fn node_mut(&mut self, ino: Ino) -> &mut Inode {
        self.inodes
            .get_mut(&ino.0)
            .expect("dangling inode reference")
    }

    /// Attributes by inode number, if it exists.
    pub fn attr_of(&self, ino: Ino) -> Option<&InodeAttr> {
        self.inodes.get(&ino.0).map(|n| &n.attr)
    }

    // ------------------------------------------------------------------
    // Resolution
    // ------------------------------------------------------------------

    /// Resolves `path` to an inode, following intermediate symlinks always
    /// and the final component's symlink only when `follow_final`.
    pub fn resolve(&self, path: &str, follow_final: bool) -> Result<Resolved, FsError> {
        let norm = normalize(path)?;
        self.lookup(&norm, follow_final, &norm, 0, 0, Named(true))
    }

    /// [`Self::resolve`] for a caller that names the path itself or drops
    /// the error: a failed walk reports the same kind, but the error
    /// carries an empty path and so costs no allocation.
    pub fn probe(&self, path: &str, follow_final: bool) -> Result<Resolved, FsError> {
        let norm = normalize(path)?;
        self.lookup(&norm, follow_final, &norm, 0, 0, Named(false))
    }

    /// One walk over the normal path `norm`. `rest` is the cursor: what is
    /// still to be walked, so the directory being searched is always the
    /// prefix `norm[..norm.len() - rest.len()]` — borrowed, never built. A
    /// symlink re-roots the walk at its target with `rest` appended;
    /// `origin` (what the caller asked for, for `SymlinkLoop`), the two
    /// counters and whether errors name their path carry over.
    fn lookup(
        &self,
        norm: &str,
        follow_final: bool,
        origin: &str,
        mut walked: u32,
        expansions: u32,
        named: Named,
    ) -> Result<Resolved, FsError> {
        let mut cur = self.root;
        let mut rest = if norm == "/" { "" } else { norm };
        while let Some(tail) = rest.strip_prefix('/') {
            let dir = &norm[..norm.len() - rest.len()];
            let name = &tail[..tail.find('/').unwrap_or(tail.len())];
            rest = &tail[name.len()..];
            let through = &norm[..norm.len() - rest.len()];
            let entries = self
                .node(cur)
                .as_dir()
                .expect("only directories are entered");
            let &child = entries
                .get(name)
                .ok_or_else(|| named.error(FsError::NotFound, through))?;
            walked += 1;
            match &self.node(child).data {
                NodeData::Symlink(target) if !rest.is_empty() || follow_final => {
                    if expansions == SYMLINK_LIMIT {
                        return Err(named.error(FsError::SymlinkLoop, origin));
                    }
                    // Relative targets start at the link's directory;
                    // `..` in the target is lexical, as everywhere.
                    let next = if target.starts_with('/') {
                        format!("{target}{rest}")
                    } else {
                        format!("{dir}/{target}{rest}")
                    };
                    let next = normalize(&next)?;
                    return self.lookup(&next, follow_final, origin, walked, expansions + 1, named);
                }
                NodeData::Directory(_) => {}
                _ if rest.is_empty() => {}
                _ => return Err(named.error(FsError::NotADirectory, through)),
            }
            cur = child;
        }
        Ok(Resolved {
            ino: cur,
            components_walked: walked,
        })
    }

    /// The directory that holds (or would hold) `path`, and the name in it.
    fn resolve_parent(&self, path: &str) -> Result<(Ino, String), FsError> {
        let norm = normalize(path)?;
        let (parent, name) = norm.rsplit_once('/').expect("normal paths are absolute");
        if name.is_empty() {
            return Err(FsError::InvalidPath(format!("{norm} (root has no name)")));
        }
        let parent = if parent.is_empty() { "/" } else { parent };
        let r = self.lookup(parent, true, parent, 0, 0, Named(true))?;
        if self.node(r.ino).as_dir().is_none() {
            return Err(FsError::NotADirectory(parent.to_string()));
        }
        Ok((r.ino, name.to_string()))
    }

    /// True when `path` resolves (following symlinks).
    pub fn exists(&self, path: &str) -> bool {
        self.probe(path, true).is_ok()
    }

    // ------------------------------------------------------------------
    // Metadata
    // ------------------------------------------------------------------

    /// `stat(2)`: attributes, following symlinks.
    pub fn stat(&self, path: &str) -> Result<InodeAttr, FsError> {
        let r = self.resolve(path, true)?;
        Ok(self.node(r.ino).attr.clone())
    }

    /// `lstat(2)`: attributes of the link itself.
    pub fn lstat(&self, path: &str) -> Result<InodeAttr, FsError> {
        let r = self.resolve(path, false)?;
        Ok(self.node(r.ino).attr.clone())
    }

    /// Changes permission bits.
    pub fn set_mode(&mut self, path: &str, mode: Mode, now: u64) -> Result<(), FsError> {
        let r = self.resolve(path, true)?;
        let n = self.node_mut(r.ino);
        n.attr.mode = mode;
        n.attr.mtime = now;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Directories
    // ------------------------------------------------------------------

    /// Creates a directory; parent must exist.
    pub fn mkdir(&mut self, path: &str, mode: Mode, uid: u32, now: u64) -> Result<Ino, FsError> {
        let (parent, name) = self.resolve_parent(path)?;
        if self
            .node(parent)
            .as_dir()
            .expect("checked")
            .contains_key(&name)
        {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let ino = self.alloc_ino();
        self.inodes
            .insert(ino.0, Inode::new_dir(ino, mode, uid, now));
        let p = self.node_mut(parent);
        p.as_dir_mut().expect("checked").insert(name, ino);
        p.attr.nlink += 1;
        p.attr.mtime = now;
        p.attr.version += 1;
        p.attr.size += 1;
        Ok(ino)
    }

    /// Creates a directory and any missing ancestors.
    pub fn mkdir_p(&mut self, path: &str, mode: Mode, uid: u32, now: u64) -> Result<Ino, FsError> {
        let norm = normalize(path)?;
        let parts = components(&norm)?;
        let mut cur = String::new();
        let mut last = self.root;
        for part in parts {
            cur.push('/');
            cur.push_str(part);
            last = match self.resolve(&cur, true) {
                Ok(r) => {
                    if self.node(r.ino).as_dir().is_none() {
                        return Err(FsError::NotADirectory(cur));
                    }
                    r.ino
                }
                Err(FsError::NotFound(_)) => self.mkdir(&cur, mode, uid, now)?,
                Err(e) => return Err(e),
            };
        }
        Ok(last)
    }

    /// Lists a directory: `(name, ino)` pairs in name order.
    pub fn readdir(&self, path: &str) -> Result<Vec<(String, Ino)>, FsError> {
        let r = self.resolve(path, true)?;
        let entries = self
            .entries_of(r.ino)
            .ok_or_else(|| FsError::NotADirectory(path.to_string()))?;
        Ok(entries.map(|(name, ino)| (name.to_string(), ino)).collect())
    }

    /// A directory's entries by inode number, in name order and borrowed,
    /// if it is one.
    pub fn entries_of(&self, ino: Ino) -> Option<impl Iterator<Item = (&str, Ino)> + '_> {
        let entries = self.inodes.get(&ino.0)?.as_dir()?;
        Some(entries.iter().map(|(name, &ino)| (name.as_str(), ino)))
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path: &str, now: u64) -> Result<(), FsError> {
        let (parent, name) = self.resolve_parent(path)?;
        let &ino = self
            .node(parent)
            .as_dir()
            .expect("checked")
            .get(&name)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let victim = self.node(ino);
        match &victim.data {
            NodeData::Directory(m) if m.is_empty() => {}
            NodeData::Directory(_) => return Err(FsError::NotEmpty(path.to_string())),
            _ => return Err(FsError::NotADirectory(path.to_string())),
        }
        self.inodes.remove(&ino.0);
        let p = self.node_mut(parent);
        p.as_dir_mut().expect("checked").remove(&name);
        p.attr.nlink -= 1;
        p.attr.mtime = now;
        p.attr.version += 1;
        p.attr.size -= 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Regular files
    // ------------------------------------------------------------------

    /// Creates a regular file with the given contents. Fails if the name
    /// exists.
    pub fn create(
        &mut self,
        path: &str,
        mode: Mode,
        uid: u32,
        now: u64,
        data: impl Into<Payload>,
    ) -> Result<Ino, FsError> {
        let data = data.into();
        let (parent, name) = self.resolve_parent(path)?;
        if self
            .node(parent)
            .as_dir()
            .expect("checked")
            .contains_key(&name)
        {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let ino = self.alloc_ino();
        self.data_bytes += data.len() as u64;
        self.inodes
            .insert(ino.0, Inode::new_file(ino, mode, uid, now, data));
        let p = self.node_mut(parent);
        p.as_dir_mut().expect("checked").insert(name, ino);
        p.attr.mtime = now;
        p.attr.version += 1;
        p.attr.size += 1;
        Ok(ino)
    }

    /// Replaces a file's contents entirely (the whole-file store
    /// operation), creating it if absent.
    pub fn write(
        &mut self,
        path: &str,
        uid: u32,
        now: u64,
        data: impl Into<Payload>,
    ) -> Result<Ino, FsError> {
        let data = data.into();
        match self.probe(path, true) {
            Ok(r) => {
                let n = self.node_mut(r.ino);
                match &mut n.data {
                    NodeData::Regular(old) => {
                        let old_len = old.len() as u64;
                        let new_len = data.len() as u64;
                        *old = data;
                        n.attr.size = new_len;
                        n.attr.mtime = now;
                        n.attr.version += 1;
                        self.data_bytes = self.data_bytes - old_len + new_len;
                        Ok(r.ino)
                    }
                    _ => Err(FsError::IsADirectory(path.to_string())),
                }
            }
            Err(FsError::NotFound(_)) => self.create(path, Mode::FILE_DEFAULT, uid, now, data),
            // Rare: walk again for the error that names where it stopped.
            Err(_) => Err(self.resolve(path, true).expect_err("the walk failed")),
        }
    }

    /// Reads a file's full contents (the whole-file fetch operation): a
    /// refcount bump of the stored buffer.
    pub fn read(&self, path: &str) -> Result<Payload, FsError> {
        let r = self.resolve(path, true)?;
        self.contents_of(r.ino)
            .cloned()
            .ok_or_else(|| FsError::IsADirectory(path.to_string()))
    }

    /// A regular file's stored contents by inode number, if it is one.
    pub fn contents_of(&self, ino: Ino) -> Option<&Payload> {
        self.inodes.get(&ino.0).and_then(Inode::as_file)
    }

    /// Flips one byte of a regular file's contents *without* touching
    /// mtime, version, or byte accounting. This models platter damage, not
    /// a write: the file's metadata still claims the committed contents,
    /// which is exactly what makes the corruption silent. It is the only
    /// code that mutates stored bytes, and it is copy-on-write: damage
    /// lands in this file system's copy alone, never in another holder of
    /// the same buffer (a clone, a journal record, a cache entry).
    pub fn damage_byte(&mut self, ino: Ino, offset: u64, mask: u8) -> Result<(), FsError> {
        let n = self
            .inodes
            .get_mut(&ino.0)
            .ok_or_else(|| FsError::NotFound(format!("ino {}", ino.0)))?;
        match &mut n.data {
            NodeData::Regular(bytes) => {
                if offset >= bytes.len() as u64 {
                    return Err(FsError::NotFound(format!("ino {} byte {offset}", ino.0)));
                }
                bytes.make_mut()[offset as usize] ^= mask;
                Ok(())
            }
            _ => Err(FsError::IsADirectory(format!("ino {}", ino.0))),
        }
    }

    /// Replaces a regular file's contents *without* touching mtime or
    /// version — the repair path restoring the committed bytes a damaged
    /// replica was supposed to hold. Logically the file never changed, so
    /// its metadata must not either (a version bump would invalidate
    /// workstation cache entries that are in fact still valid).
    pub fn restore_data(&mut self, ino: Ino, data: impl Into<Payload>) -> Result<(), FsError> {
        let data = data.into();
        let n = self
            .inodes
            .get_mut(&ino.0)
            .ok_or_else(|| FsError::NotFound(format!("ino {}", ino.0)))?;
        match &mut n.data {
            NodeData::Regular(old) => {
                let old_len = old.len() as u64;
                let new_len = data.len() as u64;
                *old = data;
                n.attr.size = new_len;
                self.data_bytes = self.data_bytes - old_len + new_len;
                Ok(())
            }
            _ => Err(FsError::IsADirectory(format!("ino {}", ino.0))),
        }
    }

    /// Removes a file or symlink.
    pub fn unlink(&mut self, path: &str, now: u64) -> Result<(), FsError> {
        let (parent, name) = self.resolve_parent(path)?;
        let &ino = self
            .node(parent)
            .as_dir()
            .expect("checked")
            .get(&name)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        if self.node(ino).as_dir().is_some() {
            return Err(FsError::IsADirectory(path.to_string()));
        }
        if let NodeData::Regular(d) = &self.node(ino).data {
            self.data_bytes -= d.len() as u64;
        }
        self.inodes.remove(&ino.0);
        let p = self.node_mut(parent);
        p.as_dir_mut().expect("checked").remove(&name);
        p.attr.mtime = now;
        p.attr.version += 1;
        p.attr.size -= 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Symlinks
    // ------------------------------------------------------------------

    /// Creates a symbolic link at `path` pointing to `target`.
    pub fn symlink(
        &mut self,
        path: &str,
        target: &str,
        uid: u32,
        now: u64,
    ) -> Result<Ino, FsError> {
        let (parent, name) = self.resolve_parent(path)?;
        if self
            .node(parent)
            .as_dir()
            .expect("checked")
            .contains_key(&name)
        {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let ino = self.alloc_ino();
        self.inodes
            .insert(ino.0, Inode::new_symlink(ino, uid, now, target.to_string()));
        let p = self.node_mut(parent);
        p.as_dir_mut().expect("checked").insert(name, ino);
        p.attr.mtime = now;
        p.attr.version += 1;
        p.attr.size += 1;
        Ok(ino)
    }

    /// Reads a symlink's target without following it.
    pub fn readlink(&self, path: &str) -> Result<String, FsError> {
        let r = self.resolve(path, false)?;
        match &self.node(r.ino).data {
            NodeData::Symlink(t) => Ok(t.clone()),
            _ => Err(FsError::NotASymlink(path.to_string())),
        }
    }

    // ------------------------------------------------------------------
    // Rename
    // ------------------------------------------------------------------

    /// Renames a file, symlink, or directory (the prototype could not
    /// rename directories in Vice — Section 5.1 calls this "particularly
    /// irksome"; the revised design fixes it, and so does this substrate).
    ///
    /// An existing non-directory target is replaced, as in `rename(2)`.
    pub fn rename(&mut self, from: &str, to: &str, now: u64) -> Result<(), FsError> {
        let from_norm = normalize(from)?;
        let to_norm = normalize(to)?;
        if from_norm == to_norm {
            return Ok(());
        }
        // Moving a directory into its own subtree would orphan it.
        let moving = self.resolve(&from_norm, false)?;
        if self.node(moving.ino).as_dir().is_some() && is_within(&from_norm, &to_norm) {
            return Err(FsError::RenameIntoSelf(to_norm.into_owned()));
        }
        let (from_parent, from_name) = self.resolve_parent(&from_norm)?;
        let (to_parent, to_name) = self.resolve_parent(&to_norm)?;

        // Replace semantics for an existing target.
        if let Some(&existing) = self
            .node(to_parent)
            .as_dir()
            .expect("checked")
            .get(&to_name)
        {
            let existing_node = self.node(existing);
            match &existing_node.data {
                NodeData::Directory(m) if !m.is_empty() => {
                    return Err(FsError::NotEmpty(to_norm.into_owned()));
                }
                NodeData::Directory(_) => {
                    if self.node(moving.ino).as_dir().is_none() {
                        return Err(FsError::IsADirectory(to_norm.into_owned()));
                    }
                    self.rmdir(&to_norm, now)?;
                }
                NodeData::Regular(d) => {
                    if self.node(moving.ino).as_dir().is_some() {
                        return Err(FsError::NotADirectory(to_norm.into_owned()));
                    }
                    self.data_bytes -= d.len() as u64;
                    self.inodes.remove(&existing.0);
                    let tp = self.node_mut(to_parent);
                    tp.as_dir_mut().expect("checked").remove(&to_name);
                    tp.attr.size -= 1;
                }
                NodeData::Symlink(_) => {
                    self.inodes.remove(&existing.0);
                    let tp = self.node_mut(to_parent);
                    tp.as_dir_mut().expect("checked").remove(&to_name);
                    tp.attr.size -= 1;
                }
            }
        }

        let is_dir = self.node(moving.ino).as_dir().is_some();
        let fp = self.node_mut(from_parent);
        fp.as_dir_mut().expect("checked").remove(&from_name);
        fp.attr.mtime = now;
        fp.attr.version += 1;
        fp.attr.size -= 1;
        if is_dir {
            fp.attr.nlink -= 1;
        }
        let tp = self.node_mut(to_parent);
        tp.as_dir_mut()
            .expect("checked")
            .insert(to_name, moving.ino);
        tp.attr.mtime = now;
        tp.attr.version += 1;
        tp.attr.size += 1;
        if is_dir {
            tp.attr.nlink += 1;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Subtree utilities (used by the volume layer)
    // ------------------------------------------------------------------

    /// Walks the subtree at `path`, calling `visit(path, attr)` for every
    /// inode in it (including `path` itself), in depth-first name order.
    pub fn walk<F: FnMut(&str, &InodeAttr)>(
        &self,
        path: &str,
        visit: &mut F,
    ) -> Result<(), FsError> {
        let norm = normalize(path)?;
        let r = self.resolve(&norm, true)?;
        let node = self.node(r.ino);
        visit(&norm, &node.attr);
        if let Some(entries) = node.as_dir() {
            for name in entries.keys() {
                self.walk(&format!("{}{name}", slashed(&norm)), visit)?;
            }
        }
        Ok(())
    }

    /// Total regular-file bytes under `path`.
    pub fn subtree_bytes(&self, path: &str) -> Result<u64, FsError> {
        let mut total = 0u64;
        self.walk(path, &mut |_, attr| {
            if attr.ftype == FileType::Regular {
                total += attr.size;
            }
        })?;
        Ok(total)
    }

    /// Number of inodes under `path` (inclusive).
    pub fn subtree_count(&self, path: &str) -> Result<u64, FsError> {
        let mut n = 0u64;
        self.walk(path, &mut |_, _| n += 1)?;
        Ok(n)
    }

    /// Copies the subtree rooted at `src` in `src_fs` to `dst` in `self`
    /// (which must not exist). Used for volume moves and clones.
    pub fn graft(
        &mut self,
        src_fs: &FileSystem,
        src: &str,
        dst: &str,
        now: u64,
    ) -> Result<(), FsError> {
        let src_norm = normalize(src)?;
        let r = src_fs.resolve(&src_norm, false)?;
        let node = src_fs.node(r.ino);
        match &node.data {
            NodeData::Directory(entries) => {
                self.mkdir(dst, node.attr.mode, node.attr.uid, now)?;
                for name in entries.keys() {
                    let s = format!("{}{name}", slashed(&src_norm));
                    let d = format!("{}{name}", slashed(&normalize(dst)?));
                    self.graft(src_fs, &s, &d, now)?;
                }
            }
            NodeData::Regular(data) => {
                self.create(dst, node.attr.mode, node.attr.uid, now, data.clone())?;
                // Preserve the version so validation survives the move.
                let ino = self.resolve(dst, false)?.ino;
                let dst_node = self.node_mut(ino);
                dst_node.attr.version = node.attr.version;
                dst_node.attr.mtime = node.attr.mtime;
            }
            NodeData::Symlink(target) => {
                self.symlink(dst, target, node.attr.uid, now)?;
            }
        }
        Ok(())
    }

    /// Removes the subtree at `path` entirely.
    pub fn remove_subtree(&mut self, path: &str, now: u64) -> Result<(), FsError> {
        let norm = normalize(path)?;
        let r = self.resolve(&norm, false)?;
        if self.node(r.ino).as_dir().is_some() {
            // Children go in name order; each removal leaves the next first.
            while let Some(name) = self.node(r.ino).as_dir().and_then(|d| d.keys().next()) {
                let child = format!("{}{name}", slashed(&norm));
                self.remove_subtree(&child, now)?;
            }
            self.rmdir(&norm, now)
        } else {
            self.unlink(&norm, now)
        }
    }
}

/// Whether a failed walk names the path it stopped at ([`FileSystem::resolve`])
/// or only reports the kind of failure ([`FileSystem::probe`]).
#[derive(Debug, Clone, Copy)]
struct Named(bool);

impl Named {
    fn error(self, kind: fn(String) -> FsError, path: &str) -> FsError {
        kind(if self.0 {
            path.to_string()
        } else {
            String::new()
        })
    }
}

fn slashed(p: &str) -> String {
    if p == "/" {
        "/".to_string()
    } else {
        format!("{p}/")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{dirname_basename, join};
    use itc_sim::SimRng;

    /// The resolver this file had before the borrowed walk: a reversed
    /// work-list of owned components and a `cur_path` rebuilt per directory.
    /// Kept as the oracle for `lookup_agrees_with_the_work_list_reference`.
    impl FileSystem {
        fn resolve_reference(&self, path: &str, follow_final: bool) -> Result<Resolved, FsError> {
            let norm = normalize(path)?;
            let mut pending: Vec<String> = components(&norm)?
                .into_iter()
                .rev()
                .map(str::to_string)
                .collect();
            let mut cur = self.root;
            let mut cur_path = String::from("/");
            let mut walked = 0u32;
            let mut expansions = 0u32;

            while let Some(name) = pending.pop() {
                let dir = self.node(cur);
                let entries = dir
                    .as_dir()
                    .ok_or_else(|| FsError::NotADirectory(cur_path.clone()))?;
                let &child = entries
                    .get(&name)
                    .ok_or_else(|| FsError::NotFound(format!("{}{name}", slashed(&cur_path))))?;
                walked += 1;
                let child_node = self.node(child);
                let is_last = pending.is_empty();
                match (&child_node.data, is_last, follow_final) {
                    (NodeData::Symlink(target), last, follow) if !last || follow => {
                        expansions += 1;
                        if expansions > SYMLINK_LIMIT {
                            return Err(FsError::SymlinkLoop(norm.into_owned()));
                        }
                        // Re-root resolution at the joined target, keeping any
                        // components not yet consumed.
                        let joined = join(&cur_path, target)?;
                        let mut new_pending: Vec<String> = components(&joined)?
                            .into_iter()
                            .rev()
                            .map(str::to_string)
                            .collect();
                        // `pending` is already reversed; targets go underneath.
                        let rest = std::mem::take(&mut pending);
                        pending = rest;
                        for c in new_pending.drain(..) {
                            pending.push(c);
                        }
                        cur = self.root;
                        cur_path = String::from("/");
                    }
                    (_, true, _) => {
                        return Ok(Resolved {
                            ino: child,
                            components_walked: walked,
                        });
                    }
                    (NodeData::Directory(_), false, _) => {
                        cur_path = format!("{}{name}", slashed(&cur_path));
                        cur = child;
                    }
                    (_, false, _) => {
                        return Err(FsError::NotADirectory(format!(
                            "{}{name}",
                            slashed(&cur_path)
                        )));
                    }
                }
            }
            // Path was "/" (or normalized to it).
            Ok(Resolved {
                ino: cur,
                components_walked: walked,
            })
        }

        /// `resolve_parent` as it was: normalise, split into two owned
        /// strings, resolve (which normalised again).
        fn resolve_parent_reference(&self, path: &str) -> Result<(Ino, String), FsError> {
            let norm = normalize(path)?;
            let (parent, name) = dirname_basename(&norm)?;
            let r = self.resolve_reference(&parent, true)?;
            if self.node(r.ino).as_dir().is_none() {
                return Err(FsError::NotADirectory(parent));
            }
            Ok((r.ino, name))
        }
    }

    fn fixture() -> FileSystem {
        let mut fs = FileSystem::new();
        fs.mkdir("/usr", Mode::DIR_DEFAULT, 0, 1).unwrap();
        fs.mkdir("/usr/satya", Mode::DIR_DEFAULT, 100, 2).unwrap();
        fs.create(
            "/usr/satya/paper.tex",
            Mode::FILE_DEFAULT,
            100,
            3,
            b"scale is the dominant design influence".to_vec(),
        )
        .unwrap();
        fs
    }

    #[test]
    fn create_read_write_unlink() {
        let mut fs = fixture();
        assert_eq!(
            fs.read("/usr/satya/paper.tex").unwrap(),
            b"scale is the dominant design influence"
        );
        let v0 = fs.stat("/usr/satya/paper.tex").unwrap().version;
        fs.write("/usr/satya/paper.tex", 100, 4, b"v2".to_vec())
            .unwrap();
        assert_eq!(fs.read("/usr/satya/paper.tex").unwrap(), b"v2");
        let st = fs.stat("/usr/satya/paper.tex").unwrap();
        assert_eq!(st.version, v0 + 1);
        assert_eq!(st.size, 2);
        assert_eq!(st.mtime, 4);
        fs.unlink("/usr/satya/paper.tex", 5).unwrap();
        assert!(!fs.exists("/usr/satya/paper.tex"));
        assert_eq!(fs.data_bytes(), 0);
    }

    #[test]
    fn data_bytes_tracks_contents() {
        let mut fs = FileSystem::new();
        fs.create("/a", Mode::FILE_DEFAULT, 0, 0, vec![0u8; 100])
            .unwrap();
        fs.create("/b", Mode::FILE_DEFAULT, 0, 0, vec![0u8; 50])
            .unwrap();
        assert_eq!(fs.data_bytes(), 150);
        fs.write("/a", 0, 1, vec![0u8; 10]).unwrap();
        assert_eq!(fs.data_bytes(), 60);
        fs.unlink("/b", 2).unwrap();
        assert_eq!(fs.data_bytes(), 10);
    }

    #[test]
    fn damage_byte_on_a_clone_leaves_the_original_intact() {
        let original = fixture();
        let mut clone = original.clone();
        let path = "/usr/satya/paper.tex";
        let ino = clone.resolve(path, true).unwrap().ino;
        // The clone shares the stored buffer until something writes to it.
        assert_eq!(
            clone.contents_of(ino).unwrap().as_slice().as_ptr(),
            original.contents_of(ino).unwrap().as_slice().as_ptr()
        );
        clone.damage_byte(ino, 0, 0xff).unwrap();
        assert_eq!(clone.read(path).unwrap().as_slice()[0], b's' ^ 0xff);
        assert_eq!(
            original.read(path).unwrap(),
            b"scale is the dominant design influence"
        );
        // Out-of-range damage is refused before any copy is made.
        assert!(clone.damage_byte(ino, 1 << 20, 1).is_err());
    }

    #[test]
    fn mkdir_requires_parent() {
        let mut fs = FileSystem::new();
        assert!(matches!(
            fs.mkdir("/a/b", Mode::DIR_DEFAULT, 0, 0),
            Err(FsError::NotFound(_))
        ));
        fs.mkdir_p("/a/b/c", Mode::DIR_DEFAULT, 0, 0).unwrap();
        assert!(fs.exists("/a/b/c"));
        // mkdir_p over an existing tree is fine.
        fs.mkdir_p("/a/b", Mode::DIR_DEFAULT, 0, 0).unwrap();
    }

    #[test]
    fn duplicate_creation_fails() {
        let mut fs = fixture();
        assert!(matches!(
            fs.create("/usr/satya/paper.tex", Mode::FILE_DEFAULT, 0, 9, vec![]),
            Err(FsError::AlreadyExists(_))
        ));
        assert!(matches!(
            fs.mkdir("/usr", Mode::DIR_DEFAULT, 0, 9),
            Err(FsError::AlreadyExists(_))
        ));
    }

    #[test]
    fn rmdir_only_empty() {
        let mut fs = fixture();
        assert!(matches!(
            fs.rmdir("/usr/satya", 9),
            Err(FsError::NotEmpty(_))
        ));
        fs.unlink("/usr/satya/paper.tex", 9).unwrap();
        fs.rmdir("/usr/satya", 10).unwrap();
        assert!(!fs.exists("/usr/satya"));
    }

    #[test]
    fn readdir_is_sorted() {
        let mut fs = FileSystem::new();
        for name in ["zeta", "alpha", "mid"] {
            fs.create(&format!("/{name}"), Mode::FILE_DEFAULT, 0, 0, vec![])
                .unwrap();
        }
        let names: Vec<String> = fs.readdir("/").unwrap().into_iter().map(|e| e.0).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn symlink_resolution_follows_chains() {
        let mut fs = fixture();
        fs.symlink("/paper", "/usr/satya/paper.tex", 0, 5).unwrap();
        fs.symlink("/indirect", "/paper", 0, 6).unwrap();
        assert_eq!(
            fs.read("/indirect").unwrap(),
            b"scale is the dominant design influence"
        );
        assert_eq!(fs.readlink("/indirect").unwrap(), "/paper");
        // lstat sees the link; stat sees the file.
        assert_eq!(fs.lstat("/indirect").unwrap().ftype, FileType::Symlink);
        assert_eq!(fs.stat("/indirect").unwrap().ftype, FileType::Regular);
    }

    #[test]
    fn relative_symlinks_resolve_from_their_directory() {
        let mut fs = fixture();
        fs.symlink("/usr/satya/alias.tex", "paper.tex", 100, 5)
            .unwrap();
        assert_eq!(
            fs.read("/usr/satya/alias.tex").unwrap(),
            b"scale is the dominant design influence"
        );
        fs.symlink("/usr/up", "../usr/satya", 0, 6).unwrap();
        assert!(fs.read("/usr/up/paper.tex").is_ok());
    }

    #[test]
    fn symlink_through_intermediate_components() {
        // The heterogeneity pattern: /bin -> /vice/unix/sun/bin, then
        // /bin/cc resolves inside the target directory.
        let mut fs = FileSystem::new();
        fs.mkdir_p("/vice/unix/sun/bin", Mode::DIR_DEFAULT, 0, 0)
            .unwrap();
        fs.create(
            "/vice/unix/sun/bin/cc",
            Mode(0o755),
            0,
            0,
            b"sun compiler".to_vec(),
        )
        .unwrap();
        fs.symlink("/bin", "/vice/unix/sun/bin", 0, 1).unwrap();
        assert_eq!(fs.read("/bin/cc").unwrap(), b"sun compiler");
    }

    #[test]
    fn symlink_loops_detected() {
        let mut fs = FileSystem::new();
        fs.symlink("/a", "/b", 0, 0).unwrap();
        fs.symlink("/b", "/a", 0, 0).unwrap();
        assert!(matches!(fs.read("/a"), Err(FsError::SymlinkLoop(_))));
    }

    #[test]
    fn rename_file_and_replace() {
        let mut fs = fixture();
        fs.create(
            "/usr/satya/old.txt",
            Mode::FILE_DEFAULT,
            100,
            4,
            b"x".to_vec(),
        )
        .unwrap();
        fs.rename("/usr/satya/old.txt", "/usr/satya/new.txt", 5)
            .unwrap();
        assert!(!fs.exists("/usr/satya/old.txt"));
        assert_eq!(fs.read("/usr/satya/new.txt").unwrap(), b"x");
        // Replace an existing file.
        fs.rename("/usr/satya/new.txt", "/usr/satya/paper.tex", 6)
            .unwrap();
        assert_eq!(fs.read("/usr/satya/paper.tex").unwrap(), b"x");
        assert_eq!(fs.data_bytes(), 1);
    }

    #[test]
    fn rename_directory_across_parents() {
        let mut fs = fixture();
        fs.mkdir("/tmp", Mode::DIR_DEFAULT, 0, 5).unwrap();
        fs.rename("/usr/satya", "/tmp/satya", 6).unwrap();
        assert!(fs.exists("/tmp/satya/paper.tex"));
        assert!(!fs.exists("/usr/satya"));
        // nlink bookkeeping moved with it.
        assert_eq!(fs.stat("/tmp").unwrap().nlink, 3);
        assert_eq!(fs.stat("/usr").unwrap().nlink, 2);
    }

    #[test]
    fn rename_into_own_subtree_rejected() {
        let mut fs = fixture();
        assert!(matches!(
            fs.rename("/usr", "/usr/satya/usr", 9),
            Err(FsError::RenameIntoSelf(_))
        ));
    }

    #[test]
    fn rename_same_path_is_noop() {
        let mut fs = fixture();
        fs.rename("/usr/satya/paper.tex", "/usr/satya/paper.tex", 9)
            .unwrap();
        assert!(fs.exists("/usr/satya/paper.tex"));
    }

    #[test]
    fn walk_and_subtree_accounting() {
        let fs = fixture();
        let mut seen = Vec::new();
        fs.walk("/usr", &mut |p, _| seen.push(p.to_string()))
            .unwrap();
        assert_eq!(seen, vec!["/usr", "/usr/satya", "/usr/satya/paper.tex"]);
        assert_eq!(fs.subtree_count("/usr").unwrap(), 3);
        assert_eq!(fs.subtree_bytes("/usr").unwrap(), 38);
    }

    #[test]
    fn graft_copies_subtree_preserving_versions() {
        let mut src = fixture();
        src.write("/usr/satya/paper.tex", 100, 9, b"rev".to_vec())
            .unwrap();
        src.symlink("/usr/satya/link", "paper.tex", 100, 9).unwrap();
        let v = src.stat("/usr/satya/paper.tex").unwrap().version;

        let mut dst = FileSystem::new();
        dst.graft(&src, "/usr/satya", "/satya", 50).unwrap();
        assert_eq!(dst.read("/satya/paper.tex").unwrap(), b"rev");
        assert_eq!(dst.stat("/satya/paper.tex").unwrap().version, v);
        assert_eq!(dst.readlink("/satya/link").unwrap(), "paper.tex");
    }

    #[test]
    fn remove_subtree_clears_everything() {
        let mut fs = fixture();
        fs.create("/usr/satya/b.txt", Mode::FILE_DEFAULT, 0, 4, vec![1, 2, 3])
            .unwrap();
        fs.remove_subtree("/usr", 9).unwrap();
        assert!(!fs.exists("/usr"));
        assert_eq!(fs.data_bytes(), 0);
        assert_eq!(fs.inode_count(), 1); // just root
    }

    #[test]
    fn components_walked_counts_symlink_expansion() {
        let mut fs = FileSystem::new();
        fs.mkdir_p("/vice/sun/bin", Mode::DIR_DEFAULT, 0, 0)
            .unwrap();
        fs.create("/vice/sun/bin/cc", Mode(0o755), 0, 0, vec![])
            .unwrap();
        fs.symlink("/bin", "/vice/sun/bin", 0, 0).unwrap();
        let direct = fs.resolve("/vice/sun/bin/cc", true).unwrap();
        assert_eq!(direct.components_walked, 4);
        let via_link = fs.resolve("/bin/cc", true).unwrap();
        // /bin (1) + /vice/sun/bin re-walk (3) + cc (1).
        assert_eq!(via_link.components_walked, 5);
    }

    #[test]
    fn resolve_errors_are_specific() {
        let fs = fixture();
        assert!(matches!(
            fs.resolve("/usr/satya/paper.tex/deeper", true),
            Err(FsError::NotADirectory(_))
        ));
        assert!(matches!(
            fs.resolve("/usr/ghost", true),
            Err(FsError::NotFound(_))
        ));
        assert!(matches!(
            fs.resolve("not/absolute", true),
            Err(FsError::InvalidPath(_))
        ));
    }

    #[test]
    fn root_resolves_to_itself() {
        let fs = FileSystem::new();
        let r = fs.resolve("/", true).unwrap();
        assert_eq!(r.ino, fs.root());
        assert_eq!(r.components_walked, 0);
    }

    #[test]
    fn slashes_collapse_everywhere() {
        let fs = fixture();
        let plain = fs.resolve("/usr/satya", true).unwrap();
        assert_eq!(fs.resolve("/usr//satya", true).unwrap(), plain);
        assert_eq!(fs.resolve("/usr/satya/", true).unwrap(), plain);
        assert_eq!(fs.resolve("//usr///satya//", true).unwrap(), plain);
    }

    #[test]
    fn symlink_loop_names_the_path_asked_for() {
        let mut fs = FileSystem::new();
        fs.mkdir("/d", Mode::DIR_DEFAULT, 0, 0).unwrap();
        fs.symlink("/d/me", "me", 0, 0).unwrap();
        assert_eq!(
            fs.resolve("/d/./me/x/../y", true),
            Err(FsError::SymlinkLoop("/d/me/y".to_string()))
        );
        // Forty expansions are allowed; the forty-first is the loop.
        fs.create("/d/f0", Mode::FILE_DEFAULT, 0, 0, vec![])
            .unwrap();
        for i in 1..=41 {
            fs.symlink(&format!("/d/f{i}"), &format!("f{}", i - 1), 0, 0)
                .unwrap();
        }
        assert_eq!(fs.resolve("/d/f40", true).unwrap().components_walked, 82);
        assert_eq!(
            fs.resolve("/d/f41", true),
            Err(FsError::SymlinkLoop("/d/f41".to_string()))
        );
    }

    /// A random tree of 1–4 levels under the names `a`–`e`: directories,
    /// files, and symlinks whose targets are relative, absolute, dangling,
    /// self-referential, chained through other links, `..`-laden or empty.
    fn random_tree(rng: &mut SimRng) -> (FileSystem, Vec<String>) {
        const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
        let mut fs = FileSystem::new();
        let levels = rng.range(1, 5) as usize;
        let mut dirs = vec![String::new()];
        let mut made: Vec<String> = Vec::new();
        for _ in 0..rng.range(4, 20) {
            let parent = rng.choose(&dirs).clone();
            let name = *rng.choose(&NAMES);
            let path = format!("{parent}/{name}");
            let depth = path.matches('/').count();
            let created = match rng.range(0, 10) {
                0..=3 if depth < levels => {
                    let made_dir = fs.mkdir(&path, Mode::DIR_DEFAULT, 0, 0).is_ok();
                    if made_dir {
                        dirs.push(path.clone());
                    }
                    made_dir
                }
                0..=5 => fs.create(&path, Mode::FILE_DEFAULT, 0, 0, vec![]).is_ok(),
                _ => {
                    let top = format!("/{}", rng.choose(&NAMES));
                    let target = match rng.range(0, 16) {
                        0 => name.to_string(),
                        1 => path.clone(),
                        2 => "..".to_string(),
                        3 => format!("../{}", rng.choose(&NAMES)),
                        4 => format!("{}/{}", rng.choose(&NAMES), rng.choose(&NAMES)),
                        5 => "ghost".to_string(),
                        6 => "/ghost/deeper".to_string(),
                        7 => rng.choose(&["", ".", "/", "./../.", "//"]).to_string(),
                        8 => top,
                        _ if made.is_empty() => top,
                        9 => format!("{}/", rng.choose(&made)),
                        _ => rng.choose(&made).clone(),
                    };
                    fs.symlink(&path, &target, 0, 0).is_ok()
                }
            };
            if created {
                made.push(path);
            }
        }
        (fs, made)
    }

    /// A question about `made`'s tree: a real path (sometimes extended) or
    /// up to five components drawn from real names, a missing name, `.`,
    /// `..` and the empty component; now and then relative, slash-trailed
    /// or empty.
    fn random_question(rng: &mut SimRng, made: &[String]) -> String {
        const PARTS: [&str; 9] = ["a", "b", "c", "d", "e", "zz", ".", "..", ""];
        let mut path = match rng.range(0, 10) {
            0 => return String::new(),
            1 => "a".to_string(),
            2..=4 if !made.is_empty() => rng.choose(made).clone(),
            _ => String::new(),
        };
        for _ in 0..rng.range(u64::from(path.is_empty()), 6) {
            path.push('/');
            path.push_str(PARTS[rng.range(0, 9) as usize]);
        }
        if rng.chance(0.15) {
            path.push('/');
        }
        path
    }

    #[test]
    fn lookup_agrees_with_the_work_list_reference() {
        let mut rng = SimRng::seeded(0x1985_0023);
        let (mut questions, mut expanded) = (0u32, 0u32);
        let mut seen = [0u32; 5];
        for _ in 0..250 {
            let (fs, made) = random_tree(&mut rng);
            for _ in 0..100 {
                let path = random_question(&mut rng, &made);
                let follow = rng.chance(0.5);
                let got = fs.resolve(&path, follow);
                assert_eq!(
                    got,
                    fs.resolve_reference(&path, follow),
                    "resolve({path:?}, {follow}) over {made:?}"
                );
                // A probe is the same walk, its errors the same kinds with
                // the path left out (only `normalize` names an invalid one).
                let unnamed = got.clone().map_err(|e| match e {
                    FsError::NotFound(_) => FsError::NotFound(String::new()),
                    FsError::NotADirectory(_) => FsError::NotADirectory(String::new()),
                    FsError::SymlinkLoop(_) => FsError::SymlinkLoop(String::new()),
                    invalid => invalid,
                });
                assert_eq!(
                    fs.probe(&path, follow),
                    unnamed,
                    "probe({path:?}, {follow})"
                );
                assert_eq!(
                    fs.exists(&path),
                    fs.resolve(&path, true).is_ok(),
                    "exists({path:?})"
                );
                assert_eq!(
                    fs.resolve_parent(&path),
                    fs.resolve_parent_reference(&path),
                    "resolve_parent({path:?}) over {made:?}"
                );
                questions += 1;
                let kind = match &got {
                    Ok(r) => {
                        let asked = normalize(&path).unwrap().matches('/').count() as u32;
                        expanded += u32::from(r.components_walked > asked);
                        0
                    }
                    Err(FsError::NotFound(_)) => 1,
                    Err(FsError::NotADirectory(_)) => 2,
                    Err(FsError::SymlinkLoop(_)) => 3,
                    Err(FsError::InvalidPath(_)) => 4,
                    Err(other) => panic!("resolve cannot fail with {other:?}"),
                };
                seen[kind] += 1;
            }
        }
        assert!(questions >= 20_000);
        // The generator reaches every outcome, and symlinks do get expanded.
        assert!(seen.iter().all(|&n| n >= 200), "{seen:?}");
        assert!(expanded >= 500, "{expanded} {seen:?}");
    }
}
