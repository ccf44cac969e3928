//! Refcounted file contents: the one representation of a regular file's
//! bytes, from the inode that stores them to the Venus cache that serves
//! them.
//!
//! [`Payload`] wraps the bytes in an `Arc` so every holder after the first
//! — inode, journal record, checkpoint image, wire message, cache entry,
//! open handle — is a refcount bump. No external dependencies: the type is
//! a newtype over one `Arc` allocation holding the `Vec<u8>` (constructing
//! from an owned `Vec` moves the allocation; `Arc<[u8]>` would copy it) and
//! a lazily filled digest of it. A shared buffer is immutable: the only way
//! to write through a `Payload` is [`Payload::make_mut`], which copies first
//! unless the caller is the sole holder.
//!
//! Because the bytes behind one allocation cannot change except through
//! `make_mut`, their FNV digest is computed at most once per buffer
//! ([`Payload::digest`]) and every later asker — codec encode and decode,
//! the Merkle leaf, the fetch-time check, each scrub pass — reads the stored
//! value. `make_mut` forgets it on both of its paths, so a digest is only
//! ever returned for the bytes it was computed from.
//!
//! The module also keeps thread-local counts of every byte genuinely copied
//! through payload APIs and of every byte genuinely hashed by
//! `Payload::digest` — the quantities the benchmark harness and the
//! zero-copy regression tests assert on.

use std::cell::Cell;
use std::sync::{Arc, OnceLock};

thread_local! {
    static BYTES_COPIED: Cell<u64> = const { Cell::new(0) };
    static BYTES_DIGESTED: Cell<u64> = const { Cell::new(0) };
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

/// Total payload bytes hashed on this thread to fill a digest memo since
/// the last reset. A [`Payload::digest`] answered from the memo adds none.
pub fn bytes_digested() -> u64 {
    BYTES_DIGESTED.with(Cell::get)
}

/// Resets the thread's digested-bytes counter and returns the old value.
pub fn reset_bytes_digested() -> u64 {
    BYTES_DIGESTED.with(|c| c.replace(0))
}

/// The shared allocation: the bytes and the memo of their digest. The memo
/// is a fact about *these* bytes, so it is never copied with them.
#[derive(Default)]
struct Inner {
    bytes: Vec<u8>,
    digest: OnceLock<u64>,
}

impl Clone for Inner {
    /// The copy-on-write path of [`Payload::make_mut`]: the copy is about to
    /// be edited, so it starts without a memo.
    fn clone(&self) -> Inner {
        Inner {
            bytes: self.bytes.clone(),
            digest: OnceLock::new(),
        }
    }
}

/// An immutable, refcounted byte buffer. Cloning is O(1) and shares the
/// allocation, digest memo included.
#[derive(Clone)]
pub struct Payload(Arc<Inner>);

impl Payload {
    /// An empty payload. Every empty payload made here shares one buffer.
    pub fn empty() -> Payload {
        static EMPTY: OnceLock<Payload> = OnceLock::new();
        EMPTY
            .get_or_init(|| Payload(Arc::new(Inner::default())))
            .clone()
    }

    /// Wraps an owned buffer without copying it.
    pub fn from_vec(v: Vec<u8>) -> Payload {
        Payload(Arc::new(Inner {
            bytes: v,
            digest: OnceLock::new(),
        }))
    }

    /// Copies a borrowed slice into a fresh payload (counted).
    pub fn from_slice(s: &[u8]) -> Payload {
        note_copy(s.len());
        Payload::from_vec(s.to_vec())
    }

    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0.bytes
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.bytes.len()
    }

    /// True when there are no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.bytes.is_empty()
    }

    /// Copies the bytes out into an owned `Vec` (counted).
    pub fn to_vec(&self) -> Vec<u8> {
        note_copy(self.len());
        self.0.bytes.clone()
    }

    /// [`payload_digest`] of the bytes, computed on the first call for this
    /// buffer (counted in [`bytes_digested`]) and remembered on the shared
    /// allocation, so every holder of the same buffer gets it for free. It
    /// vouches only for the bytes this buffer holds: comparing it with a
    /// digest claimed elsewhere (a sealed head, a Merkle leaf) is still the
    /// caller's job.
    pub fn digest(&self) -> u64 {
        *self.0.digest.get_or_init(|| {
            BYTES_DIGESTED.with(|c| c.set(c.get() + self.len() as u64));
            payload_digest(&self.0.bytes)
        })
    }

    /// Mutable access for in-place edits (append under an open handle, a
    /// corruption flip in a stored file). Free when this payload is the
    /// sole holder; otherwise the buffer is copied out first (counted), so
    /// no other holder ever sees the edit. Either way the buffer handed
    /// back has no digest memo: the next [`Payload::digest`] re-reads it.
    pub fn make_mut(&mut self) -> &mut Vec<u8> {
        if Arc::get_mut(&mut self.0).is_none() {
            note_copy(self.len());
        }
        let inner = Arc::make_mut(&mut self.0);
        inner.digest = OnceLock::new();
        &mut inner.bytes
    }
}

impl Default for Payload {
    fn default() -> Payload {
        Payload::empty()
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
        Arc::ptr_eq(&self.0, &other.0) || self.as_slice() == other.as_slice()
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
    fn empty_payloads_share_one_buffer() {
        let (a, b) = (Payload::empty(), Payload::default());
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        // Writing through one copies out first, as for any shared buffer.
        let mut c = Payload::empty();
        c.make_mut().push(1);
        assert_eq!(c, [1u8]);
        assert!(Payload::empty().is_empty());
    }

    #[test]
    fn digest_is_hashed_once_per_buffer() {
        let p = Payload::from_vec(vec![7; 100]);
        let q = p.clone();
        reset_bytes_digested();
        assert_eq!(p.digest(), payload_digest(&[7; 100]));
        assert_eq!(bytes_digested(), 100);
        assert_eq!(q.digest(), p.digest()); // the clone reads p's memo
        assert_eq!(bytes_digested(), 100);
    }

    /// Random histories of every `Payload` operation against a model that
    /// keeps each live payload's bytes as a plain `Vec<u8>`: whatever memos
    /// are warm, an edit through `make_mut` (sole holder or shared) is seen
    /// by the editor's next `digest()` and by no other holder's.
    #[test]
    fn digest_memo_tracks_the_bytes_over_random_histories() {
        use itc_sim::SimRng;
        assert_eq!(std::mem::size_of::<Payload>(), 8);
        for seed in 0..64 {
            let mut rng = SimRng::seeded(seed);
            let mut live: Vec<(Payload, Vec<u8>)> = Vec::new();
            for _ in 0..400 {
                let pick = |rng: &mut SimRng, n: usize| rng.range(0, n as u64) as usize;
                match rng.range(0, 5) {
                    0 => {
                        let mut v = vec![0u8; pick(&mut rng, 40)];
                        rng.fill_bytes(&mut v);
                        live.push((Payload::from_vec(v.clone()), v));
                    }
                    1 if !live.is_empty() => {
                        let twin = live[pick(&mut rng, live.len())].clone();
                        live.push(twin);
                    }
                    // An edit: a byte flip (bit rot) or an append, on a
                    // buffer that may be unique or shared, memo warm or not.
                    2 | 3 if !live.is_empty() => {
                        let i = pick(&mut rng, live.len());
                        let (p, model) = &mut live[i];
                        if !model.is_empty() && rng.chance(0.5) {
                            let at = pick(&mut rng, model.len());
                            let mask = 1u8 << rng.range(0, 8);
                            p.make_mut()[at] ^= mask;
                            model[at] ^= mask;
                        } else {
                            let b = rng.next_u64() as u8;
                            p.make_mut().push(b);
                            model.push(b);
                        }
                    }
                    4 if !live.is_empty() => {
                        let i = pick(&mut rng, live.len());
                        live.swap_remove(i);
                    }
                    _ => {}
                }
                // Reading every digest here also leaves every memo warm
                // for the next step's edit.
                for (p, model) in &live {
                    assert_eq!(p.as_slice(), model.as_slice(), "seed {seed}");
                    assert_eq!(p.digest(), payload_digest(model), "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        assert_eq!(payload_digest(b"abc"), payload_digest(b"abc"));
        assert_ne!(payload_digest(b"abc"), payload_digest(b"abd"));
        assert_ne!(payload_digest(b""), payload_digest(b"\0"));
    }
}
