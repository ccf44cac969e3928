//! End-to-end data integrity: per-volume Merkle digests over file
//! contents, the silent-corruption model, and the background scrubber's
//! observable state.
//!
//! The paper's Vice servers are the sole custodians of every file
//! (Sections 2.2, 5.3): a silently rotten checkpoint or journal body is a
//! campus-wide loss, not an inconvenience. The discipline implemented here
//! is end-to-end: every byte handed to Venus must be provably the byte
//! that was committed.
//!
//! * [`VolumeMerkle`] — an incremental digest tree over a volume's regular
//!   files. Leaves map volume-internal paths to FNV-1a content digests;
//!   above them sits a fixed-fanout bucket array that accumulates a mixed
//!   `(path, digest)` fingerprint per leaf by XOR. XOR is commutative and
//!   self-inverse, so leaf insertion/removal is O(1) and *incremental
//!   maintenance equals recompute-from-scratch* regardless of operation
//!   order (pinned by the property test in `tests/integrity.rs`). The
//!   tree rides inside [`crate::volume::Volume`], so checkpointing a
//!   volume persists its tree with the image — exactly the recovery
//!   invariant the scrubber verifies against.
//! * [`FlipRegion`] / [`CorruptionEvent`] — where an injected flip landed
//!   in the durable address space, and its detection ledger entry.
//! * [`ScrubScan`] / [`ScrubStats`] — what one scrubber pass over a
//!   checkpoint found, and the per-server running counters.

use crate::volume::VolumeId;
use itc_sim::SimTime;
use std::collections::BTreeMap;

/// Bucket fan-out of the tree's one internal level. 64 buckets of 8 bytes
/// keep the root computation a 512-byte digest whatever the leaf count.
pub const MERKLE_FANOUT: usize = 64;

/// FNV-1a 64 over a path string (the leaf-placement hash).
fn path_hash(path: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in path.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Mixes a leaf's path hash and content digest into its bucket
/// contribution. The finalizer diffuses every input bit across the word,
/// so a single flipped digest bit changes the bucket (and hence the root)
/// with overwhelming probability — the property the detection sweep
/// relies on.
fn mix(ph: u64, digest: u64) -> u64 {
    let mut x = ph ^ digest.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^= x >> 33;
    x
}

/// Incremental Merkle tree over one volume's regular files.
///
/// Maintained by the `JournalOp` apply path (store/remove/rename) and
/// copied wholesale by clone/refresh, so the tree inside any checkpoint
/// image describes exactly the bytes that were committed into it.
#[derive(Debug, Clone, PartialEq)]
pub struct VolumeMerkle {
    /// Volume-internal path → FNV-1a digest of the file's contents.
    leaves: BTreeMap<String, u64>,
    /// One XOR-accumulated fingerprint word per bucket.
    buckets: [u64; MERKLE_FANOUT],
}

impl Default for VolumeMerkle {
    fn default() -> VolumeMerkle {
        VolumeMerkle::new()
    }
}

impl VolumeMerkle {
    /// An empty tree (the state of a freshly created volume).
    pub fn new() -> VolumeMerkle {
        VolumeMerkle {
            leaves: BTreeMap::new(),
            buckets: [0u64; MERKLE_FANOUT],
        }
    }

    fn bucket_of(ph: u64) -> usize {
        (ph % MERKLE_FANOUT as u64) as usize
    }

    /// Inserts or replaces the leaf for `path`. O(1): the old
    /// contribution (if any) XORs out, the new one XORs in. Replacing
    /// keeps the leaf's key; only a new leaf allocates one.
    pub fn set(&mut self, path: &str, digest: u64) {
        let ph = path_hash(path);
        let b = Self::bucket_of(ph);
        match self.leaves.get_mut(path) {
            Some(leaf) => self.buckets[b] ^= mix(ph, std::mem::replace(leaf, digest)),
            None => {
                self.leaves.insert(path.to_string(), digest);
            }
        }
        self.buckets[b] ^= mix(ph, digest);
    }

    /// Removes the leaf for `path`, if present.
    pub fn remove(&mut self, path: &str) {
        if let Some(old) = self.leaves.remove(path) {
            let ph = path_hash(path);
            self.buckets[Self::bucket_of(ph)] ^= mix(ph, old);
        }
    }

    /// Re-keys every leaf at or under `from` to live under `to` — the
    /// rename hook. A file rename moves one leaf; a directory rename moves
    /// the whole subtree's leaves.
    pub fn rename_subtree(&mut self, from: &str, to: &str) {
        let prefix = format!("{}/", from.trim_end_matches('/'));
        let moved: Vec<(String, u64)> = self
            .leaves
            .iter()
            .filter(|(p, _)| p.as_str() == from || p.starts_with(&prefix))
            .map(|(p, d)| (p.clone(), *d))
            .collect();
        for (p, d) in moved {
            self.remove(&p);
            let new_path = if p == from {
                to.to_string()
            } else {
                format!("{to}{}", &p[from.len()..])
            };
            self.set(&new_path, d);
        }
    }

    /// The expected content digest of `path`, if a leaf exists.
    pub fn leaf(&self, path: &str) -> Option<u64> {
        self.leaves.get(path).copied()
    }

    /// The leaf table, path-ordered.
    pub fn leaves(&self) -> &BTreeMap<String, u64> {
        &self.leaves
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// True when no files are covered.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Durable size of the leaf table in bytes (one digest word per leaf)
    /// — the tree's share of the corruption address space.
    pub fn table_bytes(&self) -> u64 {
        8 * self.leaves.len() as u64
    }

    /// The root digest: FNV-1a over the bucket array's big-endian bytes.
    /// Equal trees (same leaves) have equal roots however they were built
    /// — XOR accumulation is order-independent.
    pub fn root(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in &self.buckets {
            for byte in b.to_be_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// Where in the durable address space an injected flip landed. The sweep
/// in `tests/integrity.rs` exercises every variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlipRegion {
    /// Inside the framed extent of journal record `seq` (header, body,
    /// status byte, or checksum — any of them fails the trailer check).
    Journal {
        /// Sequence number of the damaged record.
        seq: u64,
    },
    /// Inside a regular file's contents in a checkpoint image.
    CheckpointFile {
        /// The checkpointed volume.
        volume: VolumeId,
        /// Volume-internal path of the damaged file.
        path: String,
    },
    /// Inside a checkpoint image's Merkle leaf table (the expected digest
    /// itself rotted — detected exactly like data rot, but unrepairable
    /// from a replica because no trustworthy expectation survives).
    MerkleLeaf {
        /// The checkpointed volume.
        volume: VolumeId,
        /// The leaf's volume-internal path.
        path: String,
    },
}

/// How a detected corruption was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionOutcome {
    /// Injected but not yet observed by any verifier.
    Latent,
    /// The scrubber re-fetched the committed bytes from a read-only clone
    /// replica and repaired the image in place.
    RepairedFromReplica,
    /// No replica could vouch for the committed bytes: the volume was
    /// taken offline rather than serve unverifiable data.
    VolumeOfflined,
    /// Salvage replay found the trailer checksum wrong and treated the
    /// record as end-of-journal.
    RejectedAtSalvage,
    /// A fetch-time digest check caught the damage before the reply left
    /// the server.
    CaughtAtFetch,
}

/// One injected flip's ledger entry: where it landed, when (and whether)
/// it was detected, and how it was resolved. The corruption sweep's
/// "zero undetected" claim is an assertion over these entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionEvent {
    /// Virtual time of injection.
    pub injected_at: SimTime,
    /// Region the flip landed in.
    pub region: FlipRegion,
    /// Virtual time a verifier first observed the damage.
    pub detected_at: Option<SimTime>,
    /// Resolution.
    pub outcome: CorruptionOutcome,
}

/// One mismatch found by a scrub pass: the path, the digest the tree
/// expected, and the digest the image's bytes actually have (`None` when
/// the file and its leaf disagree about existing at all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubFinding {
    /// Volume-internal path.
    pub path: String,
    /// Digest the Merkle leaf promises.
    pub expected: Option<u64>,
    /// Digest of the bytes actually present.
    pub found: Option<u64>,
}

/// What one scrubber pass over one checkpoint image observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubScan {
    /// The scanned volume.
    pub volume: VolumeId,
    /// Regular files visited.
    pub files: u64,
    /// Bytes read and digested (file contents plus the leaf table).
    pub bytes: u64,
    /// Digest mismatches found, path-ordered.
    pub findings: Vec<ScrubFinding>,
}

/// Per-server running counters of scrubber activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Scrub passes completed.
    pub passes: u64,
    /// Volumes scanned (one per pass).
    pub volumes_scanned: u64,
    /// Regular files digested.
    pub files_scanned: u64,
    /// Bytes read and digested.
    pub bytes_scanned: u64,
    /// Digest mismatches detected.
    pub mismatches_detected: u64,
    /// Mismatches repaired from a read-only replica.
    pub repaired: u64,
    /// Volumes taken offline for lack of a vouching replica.
    pub offlined: u64,
}

/// Aggregate corruption accounting over every server's event log: how many
/// flips were injected and how each one was resolved. `latent` counts
/// flips no verifier has observed yet — the corruption sweep's headline
/// invariant is that none of those ever reached a Venus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityCounters {
    /// Flips injected (ledger entries).
    pub injected: u64,
    /// Still undetected.
    pub latent: u64,
    /// Repaired from a read-only replica.
    pub repaired: u64,
    /// Volume taken offline for lack of a vouching replica.
    pub offlined: u64,
    /// Damaged journal suffix rejected by salvage replay.
    pub rejected_at_salvage: u64,
    /// Caught by the fetch-time digest check.
    pub caught_at_fetch: u64,
}

impl IntegrityCounters {
    /// Folds one ledger entry in.
    pub fn absorb(&mut self, ev: &CorruptionEvent) {
        self.injected += 1;
        match ev.outcome {
            CorruptionOutcome::Latent => self.latent += 1,
            CorruptionOutcome::RepairedFromReplica => self.repaired += 1,
            CorruptionOutcome::VolumeOfflined => self.offlined += 1,
            CorruptionOutcome::RejectedAtSalvage => self.rejected_at_salvage += 1,
            CorruptionOutcome::CaughtAtFetch => self.caught_at_fetch += 1,
        }
    }

    /// Flips some verifier observed (everything but the latent ones).
    pub fn detected(&self) -> u64 {
        self.injected - self.latent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_equals_recompute_whatever_the_order() {
        let mut a = VolumeMerkle::new();
        a.set("/x", 1);
        a.set("/y", 2);
        a.set("/z", 3);
        a.remove("/y");
        a.set("/x", 9);

        let mut b = VolumeMerkle::new();
        b.set("/z", 3);
        b.set("/x", 9);
        assert_eq!(a.root(), b.root());
        assert_eq!(a.leaves(), b.leaves());
    }

    #[test]
    fn any_single_leaf_change_moves_the_root() {
        let mut m = VolumeMerkle::new();
        for i in 0..200u64 {
            m.set(&format!("/f{i}"), i.wrapping_mul(0x9e37_79b9));
        }
        let base = m.root();
        for i in 0..200u64 {
            let path = format!("/f{i}");
            let old = m.leaf(&path).unwrap();
            m.set(&path, old ^ 1);
            assert_ne!(m.root(), base, "flipped leaf {path} must move the root");
            m.set(&path, old);
            assert_eq!(m.root(), base);
        }
    }

    #[test]
    fn subtree_rename_moves_every_covered_leaf() {
        let mut m = VolumeMerkle::new();
        m.set("/doc/a", 1);
        m.set("/doc/sub/b", 2);
        m.set("/docs", 3);
        m.rename_subtree("/doc", "/doc2");
        assert_eq!(m.leaf("/doc/a"), None);
        assert_eq!(m.leaf("/doc2/a"), Some(1));
        assert_eq!(m.leaf("/doc2/sub/b"), Some(2));
        // "/docs" shares the prefix string but not the subtree.
        assert_eq!(m.leaf("/docs"), Some(3));

        let mut direct = VolumeMerkle::new();
        direct.set("/doc2/a", 1);
        direct.set("/doc2/sub/b", 2);
        direct.set("/docs", 3);
        assert_eq!(m.root(), direct.root());
    }

    #[test]
    fn file_rename_moves_one_leaf() {
        let mut m = VolumeMerkle::new();
        m.set("/a.txt", 7);
        m.rename_subtree("/a.txt", "/b.txt");
        assert_eq!(m.leaf("/a.txt"), None);
        assert_eq!(m.leaf("/b.txt"), Some(7));
    }
}
