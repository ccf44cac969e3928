//! Refcounted file contents: the one representation of a regular file's
//! bytes, from the inode that stores them to the Venus cache that serves
//! them.
//!
//! [`Payload`] wraps the bytes in an `Arc` so every holder after the first
//! — inode, journal record, checkpoint image, wire message, cache entry,
//! open handle — is a refcount bump. No external dependencies: the type is
//! a newtype over `Arc<Vec<u8>>` (constructing from an owned `Vec` moves
//! the allocation; `Arc<[u8]>` would copy it). A shared buffer is immutable:
//! the only way to write through a `Payload` is [`Payload::make_mut`],
//! which copies first unless the caller is the sole holder.
//!
//! The module also keeps a thread-local count of every byte genuinely
//! copied through payload APIs — the quantity the benchmark harness and
//! the zero-copy regression tests assert on.

use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    static BYTES_COPIED: Cell<u64> = const { Cell::new(0) };
}

/// Records `n` payload bytes copied.
fn note_copy(n: usize) {
    BYTES_COPIED.with(|c| c.set(c.get() + n as u64));
}

/// Total payload bytes copied on this thread since the last reset.
pub fn bytes_copied() -> u64 {
    BYTES_COPIED.with(Cell::get)
}

/// Resets the thread's copied-bytes counter and returns the old value.
pub fn reset_bytes_copied() -> u64 {
    BYTES_COPIED.with(|c| c.replace(0))
}

/// An immutable, refcounted byte buffer. Cloning is O(1) and shares the
/// allocation.
#[derive(Clone, Default)]
pub struct Payload(Arc<Vec<u8>>);

impl Payload {
    /// An empty payload.
    pub fn empty() -> Payload {
        Payload::default()
    }

    /// Wraps an owned buffer without copying it.
    pub fn from_vec(v: Vec<u8>) -> Payload {
        Payload(Arc::new(v))
    }

    /// Copies a borrowed slice into a fresh payload (counted).
    pub fn from_slice(s: &[u8]) -> Payload {
        note_copy(s.len());
        Payload::from_vec(s.to_vec())
    }

    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Copies the bytes out into an owned `Vec` (counted).
    pub fn to_vec(&self) -> Vec<u8> {
        note_copy(self.len());
        self.0.to_vec()
    }

    /// Mutable access for in-place edits (append under an open handle, a
    /// corruption flip in a stored file). Free when this payload is the
    /// sole holder; otherwise the buffer is copied out first (counted), so
    /// no other holder ever sees the edit.
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        if Arc::get_mut(&mut self.0).is_none() {
            note_copy(self.len());
        }
        Arc::make_mut(&mut self.0)
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Contents are file bodies; print the size, not megabytes of hex.
        write!(f, "Payload({} bytes)", self.len())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::from_vec(v)
    }
}

impl From<&[u8]> for Payload {
    fn from(s: &[u8]) -> Payload {
        Payload::from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(s: &[u8; N]) -> Payload {
        Payload::from_slice(s)
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// FNV-1a 64 over the payload bytes. The sealed message head carries this
/// digest so the out-of-band bulk payload (the simulation's analogue of an
/// RPC2 side-effect bulk transfer) is integrity-bound to the authenticated
/// channel: tampering with the rider is detected at decode.
pub fn payload_digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_does_not_count_a_copy() {
        reset_bytes_copied();
        let p = Payload::from_vec(vec![1, 2, 3]);
        assert_eq!(bytes_copied(), 0);
        assert_eq!(p.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn clone_is_free_and_shares_the_allocation() {
        let p = Payload::from_vec((0..100).collect());
        reset_bytes_copied();
        let q = p.clone();
        assert_eq!(bytes_copied(), 0);
        assert_eq!(q.as_slice().as_ptr(), p.as_slice().as_ptr());
    }

    #[test]
    fn to_vec_and_from_slice_are_counted() {
        reset_bytes_copied();
        let p = Payload::from_slice(&[0u8; 64]);
        assert_eq!(bytes_copied(), 64);
        let _ = p.to_vec();
        assert_eq!(bytes_copied(), 128);
    }

    #[test]
    fn make_mut_edits_in_place_when_unique() {
        let mut p = Payload::from_vec(vec![1, 2]);
        reset_bytes_copied();
        p.make_mut().push(3);
        assert_eq!(bytes_copied(), 0);
        assert_eq!(p.as_slice(), &[1, 2, 3]);

        let shared = p.clone();
        p.make_mut().push(4);
        assert_eq!(bytes_copied(), 3); // copy-on-write of the 3 shared bytes
        assert_eq!(p.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(shared.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn equality_by_bytes() {
        let a = Payload::from_vec(vec![1, 2, 3]);
        assert_eq!(a, Payload::from_slice(&[1, 2, 3]));
        assert_eq!(a, vec![1, 2, 3]);
        assert_eq!(a, b"\x01\x02\x03");
        assert_ne!(a, Payload::empty());
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        assert_eq!(payload_digest(b"abc"), payload_digest(b"abc"));
        assert_ne!(payload_digest(b"abc"), payload_digest(b"abd"));
        assert_ne!(payload_digest(b""), payload_digest(b"\0"));
    }
}
