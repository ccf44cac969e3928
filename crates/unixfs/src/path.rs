//! Path manipulation helpers.
//!
//! Paths are plain `&str` in Unix style: absolute, `/`-separated. `.` and
//! `..` are understood by [`normalize`]; the resolver walks the normal
//! form — `/`, or `/name(/name)*` with no empty, `.` or `..` component —
//! and borrows it.

use crate::error::FsError;
use std::borrow::Cow;

/// Splits an absolute path into components, rejecting relative paths.
/// Empty components are skipped wherever they occur (`"/a//b"`, `"/a/b/"`
/// and `"/a/b"` yield the same list); `"/"` yields an empty vector.
pub fn components(path: &str) -> Result<Vec<&str>, FsError> {
    if !path.starts_with('/') {
        return Err(FsError::InvalidPath(path.to_string()));
    }
    Ok(path.split('/').filter(|part| !part.is_empty()).collect())
}

/// Lexically normalizes an absolute path: resolves `.` and `..`, collapses
/// slashes. `..` at the root stays at the root (as in Unix). A path that
/// is already normal is handed back borrowed.
pub fn normalize(path: &str) -> Result<Cow<'_, str>, FsError> {
    if !path.starts_with('/') {
        return Err(FsError::InvalidPath(path.to_string()));
    }
    if path == "/" || path[1..].split('/').all(|c| !matches!(c, "" | "." | "..")) {
        return Ok(Cow::Borrowed(path));
    }
    let mut out = String::with_capacity(path.len());
    for part in path.split('/') {
        match part {
            "" | "." => {}
            ".." => out.truncate(out.rfind('/').unwrap_or(0)),
            name => {
                out.push('/');
                out.push_str(name);
            }
        }
    }
    if out.is_empty() {
        out.push('/');
    }
    Ok(Cow::Owned(out))
}

/// Splits a path into `(parent, basename)`. The root has no basename.
pub fn dirname_basename(path: &str) -> Result<(String, String), FsError> {
    let parts = components(path)?;
    let Some((last, init)) = parts.split_last() else {
        return Err(FsError::InvalidPath(format!("{path} (root has no name)")));
    };
    let parent = if init.is_empty() {
        "/".to_string()
    } else {
        format!("/{}", init.join("/"))
    };
    Ok((parent, (*last).to_string()))
}

/// Joins a base path and a (possibly relative) link target, then
/// normalizes. Absolute targets replace the base entirely.
pub fn join(base_dir: &str, target: &str) -> Result<String, FsError> {
    if target.starts_with('/') {
        return normalize(target).map(Cow::into_owned);
    }
    normalize(&format!("{base_dir}/{target}")).map(Cow::into_owned)
}

/// True if `inner` equals `outer` or lies beneath it. Both must be
/// normalized absolute paths.
pub fn is_within(outer: &str, inner: &str) -> bool {
    outer == "/"
        || (inner.starts_with(outer)
            && matches!(inner.as_bytes().get(outer.len()), None | Some(b'/')))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_basic() {
        assert_eq!(components("/").unwrap(), Vec::<&str>::new());
        assert_eq!(components("/a/b/c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(components("/a/b/").unwrap(), vec!["a", "b"]);
        assert!(components("relative").is_err());
        assert!(components("").is_err());
    }

    #[test]
    fn empty_components_are_skipped_not_rejected() {
        for same in ["/a/b", "/a//b", "/a/b/", "//a///b//"] {
            assert_eq!(components(same).unwrap(), vec!["a", "b"]);
            assert_eq!(normalize(same).unwrap(), "/a/b");
        }
    }

    #[test]
    fn normalize_borrows_what_is_already_normal() {
        for normal in ["/", "/a", "/a/b.c/..d", "/storm0/p3/own"] {
            assert!(matches!(normalize(normal), Ok(Cow::Borrowed(p)) if p == normal));
        }
        for other in ["//", "/a/", "/a//b", "/./a", "/a/..", "/a/b/."] {
            assert!(matches!(normalize(other), Ok(Cow::Owned(_))), "{other}");
        }
        assert_eq!(
            normalize("a/b"),
            Err(FsError::InvalidPath("a/b".to_string()))
        );
    }

    /// The `Vec`-and-`join` normaliser this module had before `normalize`
    /// learned to borrow; the oracle for the test below.
    fn normalize_reference(path: &str) -> Result<String, FsError> {
        let mut stack: Vec<&str> = Vec::new();
        for p in components(path)? {
            match p {
                "." => {}
                ".." => {
                    stack.pop();
                }
                other => stack.push(other),
            }
        }
        Ok(format!("/{}", stack.join("/")))
    }

    #[test]
    fn normalize_agrees_with_the_stack_reference() {
        let mut rng = itc_sim::SimRng::seeded(23);
        for _ in 0..5_000 {
            let mut path = String::new();
            for _ in 0..rng.range(0, 7) {
                let piece: &&str = rng.choose(&["/", "/", "a", "bc", ".", "..", "...", "/."]);
                path.push_str(piece);
            }
            let got = normalize(&path).map(Cow::into_owned);
            assert_eq!(got, normalize_reference(&path), "{path:?}");
        }
    }

    #[test]
    fn normalize_dots() {
        assert_eq!(normalize("/a/./b").unwrap(), "/a/b");
        assert_eq!(normalize("/a/b/../c").unwrap(), "/a/c");
        assert_eq!(normalize("/../..").unwrap(), "/");
        assert_eq!(normalize("/a//b").unwrap(), "/a/b");
        assert_eq!(normalize("/").unwrap(), "/");
    }

    #[test]
    fn dirname_basename_splits() {
        assert_eq!(
            dirname_basename("/a/b/c").unwrap(),
            ("/a/b".to_string(), "c".to_string())
        );
        assert_eq!(
            dirname_basename("/top").unwrap(),
            ("/".to_string(), "top".to_string())
        );
        assert!(dirname_basename("/").is_err());
    }

    #[test]
    fn join_relative_and_absolute() {
        assert_eq!(join("/a/b", "c").unwrap(), "/a/b/c");
        assert_eq!(join("/a/b", "../c").unwrap(), "/a/c");
        assert_eq!(join("/a/b", "/vice/bin").unwrap(), "/vice/bin");
        assert_eq!(join("/", "x").unwrap(), "/x");
        assert_eq!(join("/", "../x/").unwrap(), "/x");
        assert_eq!(join("/a", "").unwrap(), "/a");
    }

    #[test]
    fn is_within_boundaries() {
        assert!(is_within("/vice", "/vice"));
        assert!(is_within("/vice", "/vice/usr/x"));
        assert!(!is_within("/vice", "/vicette"));
        assert!(!is_within("/vice", "/tmp"));
        assert!(is_within("/", "/anything"));
        assert!(!is_within("/vice/usr", "/vice"));
    }
}
