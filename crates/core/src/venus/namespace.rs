//! The workstation's two-part name space.
//!
//! Section 3.1 and Figure 3-2: "the local name space is the Root File
//! System of a workstation and the shared name space is mounted on a known
//! leaf directory" — `/vice`. "Certain directories and files in the local
//! name space, such as /bin and /lib, are symbolic links into /vice",
//! and the targets differ by workstation type: "On a Sun workstation, the
//! local directory /bin is a symbolic link to the remote directory
//! /vice/unix/sun/bin; on a Vax, /bin is a symbolic link to
//! /vice/unix/vax/bin. The extra level of indirection provided by symbolic
//! links is thus of great value in supporting a heterogeneous environment."
//!
//! [`Namespace::classify`] is the heart of this module: given any absolute
//! path, it walks the local file system, follows symbolic links, and
//! decides whether the path ultimately denotes a local file or a file in
//! the shared Vice name space (returning the rewritten Vice path).

use itc_unixfs::{join, normalize, FileSystem, FileType, FsError, Mode};

/// The mount point of the shared name space.
pub const VICE_MOUNT: &str = "/vice";

/// Hardware/OS flavor of a workstation; determines where the standard
/// symbolic links point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkstationType {
    /// A Sun workstation.
    Sun,
    /// A Vax workstation.
    Vax,
    /// A low-function machine reaching Vice via a surrogate (Section 3.3);
    /// it gets no local binaries at all.
    IbmPc,
}

impl WorkstationType {
    /// The architecture component used in `/vice/unix/<arch>/...` paths.
    pub fn arch(&self) -> &'static str {
        match self {
            WorkstationType::Sun => "sun",
            WorkstationType::Vax => "vax",
            WorkstationType::IbmPc => "ibmpc",
        }
    }
}

/// Which space a path landed in after resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Space {
    /// A local file; the normalized local path.
    Local(String),
    /// A shared file; the normalized Vice path (begins with `/vice`).
    Vice(String),
}

/// The local root file system plus the classification logic.
#[derive(Debug)]
pub struct Namespace {
    local: FileSystem,
    ws_type: WorkstationType,
}

const SYMLINK_LIMIT: u32 = 40;

impl Namespace {
    /// Builds the standard local name space for a workstation of the given
    /// type: `/tmp` (temporary files stay local — "placing such files in
    /// the shared name space serves no useful purpose"), `/vmunix` (boot
    /// image, class 1 of Section 3.1), and the `/bin`, `/lib` symbolic
    /// links into the architecture-specific Vice subtree.
    pub fn standard(ws_type: WorkstationType) -> Namespace {
        let mut local = FileSystem::new();
        local.mkdir("/tmp", Mode(0o777), 0, 0).expect("fresh fs");
        local
            .mkdir("/etc", Mode::DIR_DEFAULT, 0, 0)
            .expect("fresh fs");
        local.mkdir("/local", Mode(0o777), 0, 0).expect("fresh fs");
        local
            .create("/vmunix", Mode(0o755), 0, 0, b"boot image".to_vec())
            .expect("fresh fs");
        // A marker directory so readdir("/") shows the mount point.
        local
            .mkdir(VICE_MOUNT, Mode::DIR_DEFAULT, 0, 0)
            .expect("fresh fs");
        if ws_type != WorkstationType::IbmPc {
            let arch = ws_type.arch();
            local
                .symlink("/bin", &format!("/vice/unix/{arch}/bin"), 0, 0)
                .expect("fresh fs");
            local
                .symlink("/lib", &format!("/vice/unix/{arch}/lib"), 0, 0)
                .expect("fresh fs");
        }
        Namespace { local, ws_type }
    }

    /// The workstation type.
    pub fn ws_type(&self) -> WorkstationType {
        self.ws_type
    }

    /// Read access to the local file system.
    pub fn local(&self) -> &FileSystem {
        &self.local
    }

    /// Write access to the local file system.
    pub fn local_mut(&mut self) -> &mut FileSystem {
        &mut self.local
    }

    /// Classifies an absolute path into local or shared space, following
    /// symbolic links (including the final component when `follow_final`).
    ///
    /// The final component need not exist (creation targets classify by
    /// their parent); intermediate components must.
    pub fn classify(&self, path: &str, follow_final: bool) -> Result<Space, FsError> {
        let norm = normalize(path)?;
        self.classify_norm(&norm, follow_final, 0)
    }

    fn classify_norm(&self, norm: &str, follow_final: bool, depth: u32) -> Result<Space, FsError> {
        if depth > SYMLINK_LIMIT {
            return Err(FsError::SymlinkLoop(norm.to_string()));
        }
        if norm == VICE_MOUNT || norm.starts_with("/vice/") {
            return Ok(Space::Vice(norm.to_string()));
        }
        if norm == "/" {
            return Ok(Space::Local("/".to_string()));
        }

        // Walk the components in the local file system with a cursor into
        // `norm`, as `FileSystem::resolve` does: each component's path is
        // the prefix `norm[..end]`, borrowed, and the directory holding it
        // the prefix before that.
        let mut cur = "";
        for (end, _) in norm.match_indices('/').skip(1).chain([(norm.len(), "")]) {
            let candidate = &norm[..end];
            let rest = &norm[end..];
            let ftype = match self.local.probe(candidate, false) {
                Ok(r) => self.local.attr_of(r.ino).expect("resolved").ftype,
                Err(FsError::NotFound(_)) if rest.is_empty() => {
                    // Creation target: parent exists, child does not.
                    return Ok(Space::Local(candidate.to_string()));
                }
                // Walk again for the error that names where it stopped.
                Err(_) => return Err(self.local.lstat(candidate).expect_err("the walk failed")),
            };
            if ftype == FileType::Symlink {
                if rest.is_empty() && !follow_final {
                    return Ok(Space::Local(candidate.to_string()));
                }
                let target = self.local.readlink(candidate)?;
                let base = if cur.is_empty() { "/" } else { cur };
                // Re-attach the remaining components.
                let joined = format!("{}{rest}", join(base, &target)?);
                return self.classify_norm(&normalize(&joined)?, follow_final, depth + 1);
            }
            cur = candidate;
        }
        Ok(Space::Local(cur.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vice_paths_classify_shared() {
        let ns = Namespace::standard(WorkstationType::Sun);
        assert_eq!(
            ns.classify("/vice/usr/satya/f", true).unwrap(),
            Space::Vice("/vice/usr/satya/f".to_string())
        );
        assert_eq!(
            ns.classify("/vice", true).unwrap(),
            Space::Vice("/vice".to_string())
        );
    }

    #[test]
    fn tmp_stays_local() {
        let ns = Namespace::standard(WorkstationType::Sun);
        assert_eq!(
            ns.classify("/tmp/cc.1234.o", true).unwrap(),
            Space::Local("/tmp/cc.1234.o".to_string())
        );
        assert_eq!(
            ns.classify("/vmunix", true).unwrap(),
            Space::Local("/vmunix".to_string())
        );
    }

    #[test]
    fn bin_redirects_by_workstation_type() {
        // The paper's heterogeneity mechanism: the same name /bin/cc means
        // different Vice files on different architectures.
        let sun = Namespace::standard(WorkstationType::Sun);
        assert_eq!(
            sun.classify("/bin/cc", true).unwrap(),
            Space::Vice("/vice/unix/sun/bin/cc".to_string())
        );
        let vax = Namespace::standard(WorkstationType::Vax);
        assert_eq!(
            vax.classify("/bin/cc", true).unwrap(),
            Space::Vice("/vice/unix/vax/bin/cc".to_string())
        );
    }

    #[test]
    fn lib_symlink_present() {
        let sun = Namespace::standard(WorkstationType::Sun);
        assert_eq!(
            sun.classify("/lib/libc.a", true).unwrap(),
            Space::Vice("/vice/unix/sun/lib/libc.a".to_string())
        );
    }

    #[test]
    fn final_symlink_respected_only_when_following() {
        let sun = Namespace::standard(WorkstationType::Sun);
        // lstat-style classification sees the link itself.
        assert_eq!(
            sun.classify("/bin", false).unwrap(),
            Space::Local("/bin".to_string())
        );
        assert_eq!(
            sun.classify("/bin", true).unwrap(),
            Space::Vice("/vice/unix/sun/bin".to_string())
        );
    }

    #[test]
    fn user_symlinks_into_vice() {
        let mut ns = Namespace::standard(WorkstationType::Sun);
        ns.local_mut()
            .symlink("/local/mydocs", "/vice/usr/satya/doc", 0, 1)
            .unwrap();
        assert_eq!(
            ns.classify("/local/mydocs/paper.tex", true).unwrap(),
            Space::Vice("/vice/usr/satya/doc/paper.tex".to_string())
        );
    }

    #[test]
    fn local_symlink_chains_resolve() {
        let mut ns = Namespace::standard(WorkstationType::Sun);
        ns.local_mut()
            .symlink("/local/a", "/local/b", 0, 1)
            .unwrap();
        ns.local_mut().symlink("/local/b", "/tmp", 0, 1).unwrap();
        assert_eq!(
            ns.classify("/local/a/x", true).unwrap(),
            Space::Local("/tmp/x".to_string())
        );
    }

    #[test]
    fn symlink_loop_detected() {
        let mut ns = Namespace::standard(WorkstationType::Sun);
        ns.local_mut()
            .symlink("/local/x", "/local/y", 0, 1)
            .unwrap();
        ns.local_mut()
            .symlink("/local/y", "/local/x", 0, 1)
            .unwrap();
        assert!(matches!(
            ns.classify("/local/x/f", true),
            Err(FsError::SymlinkLoop(_))
        ));
    }

    #[test]
    fn creation_target_classifies_by_parent() {
        let ns = Namespace::standard(WorkstationType::Sun);
        assert_eq!(
            ns.classify("/tmp/newfile", true).unwrap(),
            Space::Local("/tmp/newfile".to_string())
        );
        // Missing intermediate directory is still an error.
        assert!(matches!(
            ns.classify("/tmp/ghostdir/newfile", true),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn pc_has_no_binaries() {
        let pc = Namespace::standard(WorkstationType::IbmPc);
        assert!(matches!(
            pc.classify("/bin/cc", true),
            Err(FsError::NotFound(_))
        ));
        assert_eq!(pc.ws_type().arch(), "ibmpc");
    }
}
