//! The write-ahead journal: an append-only log of volume mutations.
//!
//! Every mutation a server applies to a [`Volume`] is first appended here
//! as an intent record, applied to the in-memory volume image, and then
//! closed with a commit (or abort) trailer — the classic write-ahead
//! discipline. The journal models the server's log *disk*: it tracks a
//! durable prefix ([`Journal::synced_len`]) separately from the volatile
//! tail, so a crash can lose exactly the bytes that were never forced.
//!
//! Records are kept structured (the op plus virtual byte offsets) rather
//! than as a flat byte buffer: file payloads ride inside [`JournalOp::Store`]
//! by refcount, so journaling a store duplicates no payload bytes, and
//! applying one hands the same buffer on to the inode. The byte-exact
//! on-disk image is still real: [`Journal::encode_durable`] lays the
//! durable prefix out as framed, checksummed records, and [`Journal::load`]
//! re-reads such an image, discarding torn or corrupt tails exactly as the
//! salvager's log scan would.
//!
//! ## Record format
//!
//! ```text
//! +------+--------+-------+----------+--------+--------+----------+
//! | 0xEC | volume | seq   | body_len | body   | status | checksum |
//! | u8   | u32    | u64   | u32      | bytes  | u8     | u64      |
//! +------+--------+-------+----------+--------+--------+----------+
//! ```
//!
//! The header and body are written at [`Journal::begin`]; the status byte
//! (`C` commit / `A` abort) and the FNV-1a checksum over everything before
//! it are written by [`Journal::commit`]. A record is replayable only when
//! its trailer is durable and reads back as a valid commit.

use crate::protect::AccessList;
use crate::proto::Payload;
use crate::volume::{Volume, VolumeError};
use itc_rpc::wire::{exact, put, take, Bytes, Codec};
use itc_rpc::{wire_table, WireError, WireReader, WireWriter};

/// Leading magic byte of every record.
const RECORD_MAGIC: u8 = 0xec;
/// Status byte of a committed record.
const STATUS_COMMIT: u8 = b'C';
/// Status byte of an aborted record.
const STATUS_ABORT: u8 = b'A';
/// A record's fixed header: magic, volume, seq, body_len.
type Header = (u8, u32, u64, u32);
/// A record's trailer: status, checksum.
type Trailer = (u8, u64);
/// Fixed header bytes.
const HEADER_LEN: u64 = <Header as Codec<Header>>::MIN as u64;
/// Fixed trailer bytes.
const TRAILER_LEN: u64 = <Trailer as Codec<Trailer>>::MIN as u64;

/// One volume mutation, as logged. The variants mirror the mutating subset
/// of the Vice protocol plus the administrative quota update; paths are
/// volume-internal (the journal belongs to one server and each record names
/// its volume).
#[derive(Debug, Clone, PartialEq)]
pub enum JournalOp {
    /// Whole-file store (create or replace). The payload rides by refcount.
    Store {
        /// Volume-internal path.
        path: String,
        /// Owner uid recorded on the file.
        uid: u32,
        /// Mutation timestamp (virtual µs).
        mtime: u64,
        /// File contents.
        data: Payload,
    },
    /// Unlink a file or symlink.
    Remove {
        /// Volume-internal path.
        path: String,
        /// Mutation timestamp.
        mtime: u64,
    },
    /// Change a file's mode bits.
    SetMode {
        /// Volume-internal path.
        path: String,
        /// New mode bits.
        mode: u32,
        /// Mutation timestamp.
        mtime: u64,
    },
    /// Create a directory (inheriting its parent's ACL).
    Mkdir {
        /// Volume-internal path.
        path: String,
        /// Owner uid.
        uid: u32,
        /// Mutation timestamp.
        mtime: u64,
    },
    /// Remove an empty directory.
    Rmdir {
        /// Volume-internal path.
        path: String,
        /// Mutation timestamp.
        mtime: u64,
    },
    /// Rename within the volume.
    Rename {
        /// Source volume-internal path.
        from: String,
        /// Destination volume-internal path.
        to: String,
        /// Mutation timestamp.
        mtime: u64,
    },
    /// Replace a directory's access list.
    SetAcl {
        /// Volume-internal path of the directory.
        path: String,
        /// The new list.
        acl: AccessList,
    },
    /// Create a symbolic link.
    Symlink {
        /// Volume-internal path of the link.
        path: String,
        /// Link target, as stored.
        target: String,
        /// Owner uid.
        uid: u32,
        /// Mutation timestamp.
        mtime: u64,
    },
    /// Administrative quota change (`None` = unlimited).
    SetQuota {
        /// The new limit in bytes.
        bytes: Option<u64>,
    },
}

impl JournalOp {
    /// Applies the logged mutation to a volume. Replaying the committed
    /// records of a volume, in sequence order, against its checkpoint image
    /// reconstructs the exact pre-crash durable state.
    pub fn apply(&self, vol: &mut Volume) -> Result<(), VolumeError> {
        match self {
            JournalOp::Store {
                path,
                uid,
                mtime,
                data,
            } => {
                // The inode takes the record's buffer by refcount.
                vol.store(path, *uid, *mtime, data.clone()).map(|_| ())
            }
            JournalOp::Remove { path, mtime } => {
                vol.fs_mut()?
                    .unlink(path, *mtime)
                    .map_err(VolumeError::from)?;
                // The unlink succeeded: drop the file's Merkle leaf so the
                // tree keeps describing exactly the bytes present.
                vol.merkle_remove(path);
                Ok(())
            }
            JournalOp::SetMode { path, mode, mtime } => vol
                .fs_mut()?
                .set_mode(path, itc_unixfs::Mode(*mode as u16), *mtime)
                .map_err(VolumeError::from),
            JournalOp::Mkdir { path, uid, mtime } => {
                vol.mkdir_inherit(path, *uid, *mtime).map(|_| ())
            }
            JournalOp::Rmdir { path, mtime } => vol.rmdir(path, *mtime),
            JournalOp::Rename { from, to, mtime } => {
                vol.fs_mut()?
                    .rename(from, to, *mtime)
                    .map_err(VolumeError::from)?;
                // Re-key the moved leaves (one file, or a whole subtree).
                vol.merkle_rename(from, to);
                Ok(())
            }
            JournalOp::SetAcl { path, acl } => vol.set_acl(path, acl.clone()),
            JournalOp::Symlink {
                path,
                target,
                uid,
                mtime,
            } => vol
                .fs_mut()?
                .symlink(path, target, *uid, *mtime)
                .map(|_| ())
                .map_err(VolumeError::from),
            JournalOp::SetQuota { bytes } => {
                vol.set_quota(*bytes);
                Ok(())
            }
        }
    }

    /// Serializes the op as a record body, in one buffer of exactly its
    /// size.
    pub fn encode(&self) -> Vec<u8> {
        exact(|w| put::<_, ()>(self, w))
    }

    /// Body length in bytes: the measuring pass, which allocates nothing
    /// and never copies a store's payload.
    pub fn encoded_len(&self) -> u64 {
        put::<_, ()>(self, WireWriter::measuring()).len() as u64
    }

    /// Decodes a record body.
    pub fn decode(body: &[u8]) -> Result<JournalOp, WireError> {
        WireReader::new(body).whole()
    }
}

// A record body: the op's tag, then its fields. A store's bytes are inline
// here (a length-prefixed byte string), not a rider as in a Vice head.
wire_table! {
    enum JournalOp, else BadPayload {
        1 => Store { path, uid, mtime, data: Bytes },
        2 => Remove { path, mtime },
        3 => SetMode { path, mode, mtime },
        4 => Mkdir { path, uid, mtime },
        5 => Rmdir { path, mtime },
        6 => Rename { from, to, mtime },
        7 => SetAcl { path, acl },
        8 => Symlink { path, target, uid, mtime },
        9 => SetQuota { bytes },
    }
}

/// Completion state of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordState {
    /// Header and body appended, trailer not yet written (an in-flight
    /// intent — never replayed).
    Pending,
    /// Closed with a commit trailer; replayed by the salvager.
    Committed,
    /// The apply failed; closed with an abort trailer and skipped on
    /// replay.
    Aborted,
}

/// One journal record: the op plus its byte extent in the log.
#[derive(Debug, Clone)]
pub struct Record {
    /// Log sequence number (monotonic across all volumes of the server).
    pub seq: u64,
    /// The volume the op mutates.
    pub volume: u32,
    /// The logged mutation.
    pub op: JournalOp,
    /// Byte offset of the record's first header byte.
    pub start: u64,
    /// Byte offset one past the trailer (where the next record starts).
    pub end: u64,
    /// Completion state.
    pub state: RecordState,
}

/// Observable journal counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records currently held (all states).
    pub records: u64,
    /// Total log length in bytes (header + body + trailer of every record).
    pub total_len: u64,
    /// Durable prefix length in bytes.
    pub synced_len: u64,
    /// Explicit syncs performed.
    pub syncs: u64,
    /// Bytes discarded by crash truncation over the journal's lifetime.
    pub torn_discarded: u64,
    /// Records discarded by crash truncation (torn or unsynced).
    pub records_discarded: u64,
}

/// The append-only write-ahead log of one server.
#[derive(Debug, Clone)]
pub struct Journal {
    records: Vec<Record>,
    total_len: u64,
    synced_len: u64,
    next_seq: u64,
    syncs: u64,
    torn_discarded: u64,
    records_discarded: u64,
    /// Silent-corruption overlay: `(byte offset, XOR mask)` flips the
    /// fault plan injected into the durable prefix. The structured records
    /// stay pristine (they model the *intended* bytes); the flips damage
    /// what the platter would actually read back. Empty in any run without
    /// an installed fault plan — every verifier fast-paths on that.
    flips: Vec<(u64, u8)>,
}

impl Default for Journal {
    fn default() -> Journal {
        Journal::new()
    }
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal {
            records: Vec::new(),
            total_len: 0,
            synced_len: 0,
            next_seq: 1,
            syncs: 0,
            torn_discarded: 0,
            records_discarded: 0,
            flips: Vec::new(),
        }
    }

    /// Appends an intent record (header + body) for `op` against `volume`.
    /// Returns the record's sequence number; the record is not replayable
    /// until [`Self::commit`] closes it.
    pub fn begin(&mut self, volume: u32, op: JournalOp) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let body = op.encoded_len();
        let start = self.total_len;
        let end = start + HEADER_LEN + body + TRAILER_LEN;
        self.records.push(Record {
            seq,
            volume,
            op,
            start,
            end,
            state: RecordState::Pending,
        });
        // The header and body are on the (volatile) log now; the trailer's
        // bytes are appended by commit.
        self.total_len = end - TRAILER_LEN;
        seq
    }

    /// Closes the record `seq` with a commit (`applied == true`) or abort
    /// trailer.
    ///
    /// # Panics
    /// Panics if `seq` is not the pending tail record — begin/apply/commit
    /// are strictly nested within one dispatched request.
    pub fn commit(&mut self, seq: u64, applied: bool) {
        let rec = self.records.last_mut().expect("commit without begin");
        assert_eq!(rec.seq, seq, "commit out of order");
        assert_eq!(rec.state, RecordState::Pending, "record already closed");
        rec.state = if applied {
            RecordState::Committed
        } else {
            RecordState::Aborted
        };
        self.total_len = rec.end;
    }

    /// Forces the volatile tail to disk: everything appended so far becomes
    /// durable.
    pub fn sync(&mut self) {
        if self.synced_len != self.total_len {
            self.synced_len = self.total_len;
            self.syncs += 1;
        }
    }

    /// Bytes appended but not yet forced.
    pub fn unsynced(&self) -> u64 {
        self.total_len - self.synced_len
    }

    /// Models the crash: of the unsynced window, exactly `torn` bytes made
    /// it to the platter (seed-controlled by the fault plan). The log is
    /// truncated at the last complete, closed record within the surviving
    /// prefix — a partial record at the cut is torn and discarded, exactly
    /// as the salvager's scan would drop it. Returns the bytes discarded.
    pub fn crash_truncate(&mut self, torn: u64) -> u64 {
        let cut = self.synced_len + torn.min(self.unsynced());
        let keep_end = self
            .records
            .iter()
            .filter(|r| r.state != RecordState::Pending && r.end <= cut)
            .map(|r| r.end)
            .max()
            .unwrap_or(0);
        let before = self.records.len();
        self.records.retain(|r| r.end <= keep_end);
        let discarded = self.total_len - keep_end;
        self.records_discarded += (before - self.records.len()) as u64;
        self.torn_discarded += discarded;
        self.total_len = keep_end;
        self.synced_len = keep_end;
        // Damage in the discarded tail went down with it.
        self.flips.retain(|&(off, _)| off < keep_end);
        discarded
    }

    /// Records a silent flip of one durable byte. The offset must lie in
    /// the synced prefix — unsynced bytes are in memory, not on the
    /// platter, so bit rot cannot reach them.
    pub fn add_flip(&mut self, offset: u64, mask: u8) {
        debug_assert!(offset < self.synced_len, "flip beyond the durable prefix");
        self.flips.push((offset, mask));
    }

    /// The record whose framed extent covers durable byte `offset`.
    pub fn record_covering(&self, offset: u64) -> Option<&Record> {
        self.records
            .iter()
            .find(|r| r.start <= offset && offset < r.end)
    }

    /// Byte offset at which the salvager's log scan would stop because a
    /// record's trailer no longer matches its bytes: the start of the
    /// first durable closed record failing [`Self::verify_record`].
    /// `None` when the whole durable prefix verifies — in particular
    /// whenever no flips were injected (the fast path every clean run
    /// takes).
    pub fn damage_cut(&self) -> Option<u64> {
        if self.flips.is_empty() {
            return None;
        }
        self.records
            .iter()
            .filter(|r| r.state != RecordState::Pending && r.end <= self.synced_len)
            .find(|r| !self.verify_record(r))
            .map(|r| r.start)
    }

    /// Re-checks one closed record against the bytes the platter would
    /// actually return: the record is re-framed, the flip overlay applied,
    /// and the frame re-scanned exactly as the salvager's log scan would.
    /// Any flipped bit inside the extent — header, body, status byte, or
    /// the checksum itself — fails the scan. Records with no overlapping
    /// flip are pristine by construction and verify for free.
    pub fn verify_record(&self, r: &Record) -> bool {
        if !self
            .flips
            .iter()
            .any(|&(off, mask)| mask != 0 && off >= r.start && off < r.end)
        {
            return true;
        }
        let mut bytes = Self::encode_record(r);
        for &(off, mask) in &self.flips {
            if off >= r.start && off < r.end {
                bytes[(off - r.start) as usize] ^= mask;
            }
        }
        matches!(
            Self::scan_record(&bytes, 0),
            Some(s) if s.volume == r.volume && s.seq == r.seq && s.end == r.end - r.start
        )
    }

    /// The records, in log order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Committed records of `volume` with sequence numbers beyond
    /// `after_seq`, in log order — the salvager's replay set.
    pub fn replay_set(&self, volume: u32, after_seq: u64) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(move |r| {
            r.volume == volume && r.seq > after_seq && r.state == RecordState::Committed
        })
    }

    /// Replay work remaining for `volume` past `after_seq`, as
    /// `(records, bytes)` — what the salvager must scan and apply.
    pub fn replay_work(&self, volume: u32, after_seq: u64) -> (u64, u64) {
        let mut records = 0u64;
        let mut bytes = 0u64;
        for r in self.replay_set(volume, after_seq) {
            records += 1;
            bytes += r.end - r.start;
        }
        (records, bytes)
    }

    /// Counters.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            records: self.records.len() as u64,
            total_len: self.total_len,
            synced_len: self.synced_len,
            syncs: self.syncs,
            torn_discarded: self.torn_discarded,
            records_discarded: self.records_discarded,
        }
    }

    /// Frames one closed record exactly as [`Self::encode_durable`] lays
    /// it out (header, body, status, checksum) — the *intended* bytes,
    /// before any flip overlay.
    fn encode_record(r: &Record) -> Vec<u8> {
        let body = r.op.encode();
        let header: Header = (RECORD_MAGIC, r.volume, r.seq, body.len() as u32);
        let mut rec = put::<_, ()>(&header, WireWriter::new()).finish();
        rec.extend_from_slice(&body);
        rec.push(match r.state {
            RecordState::Committed => STATUS_COMMIT,
            RecordState::Aborted => STATUS_ABORT,
            RecordState::Pending => unreachable!("only closed records are framed"),
        });
        let sum = crate::proto::payload::payload_digest(&rec);
        rec.extend_from_slice(&sum.to_be_bytes());
        rec
    }

    /// Lays the durable prefix out as real framed bytes — the on-disk
    /// image a crashed server's log device would hold, flip overlay
    /// included (the platter returns what it holds, not what was meant).
    pub fn encode_durable(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for r in &self.records {
            if r.end > self.synced_len || r.state == RecordState::Pending {
                break;
            }
            out.extend_from_slice(&Self::encode_record(r));
        }
        for &(off, mask) in &self.flips {
            if let Some(b) = out.get_mut(off as usize) {
                *b ^= mask;
            }
        }
        out
    }

    /// Re-reads an on-disk image produced by [`Self::encode_durable`] (or a
    /// torn/corrupted prefix of one): the scan stops at the first
    /// incomplete, unrecognized, or checksum-failing record, discarding it
    /// and everything after — the byte-level half of the salvage pass.
    pub fn load(image: &[u8]) -> Journal {
        let mut j = Journal::new();
        let mut pos = 0usize;
        while let Some(rec) = Self::scan_record(image, pos) {
            j.next_seq = j.next_seq.max(rec.seq + 1);
            pos = rec.end as usize;
            j.records.push(rec);
        }
        j.total_len = pos as u64;
        j.synced_len = pos as u64;
        j
    }

    /// Parses the record at byte `start` of `image`; `None` on any
    /// framing, status, or checksum violation.
    fn scan_record(image: &[u8], start: usize) -> Option<Record> {
        let bytes = &image[start..];
        let (magic, volume, seq, body_len): Header = take(&mut WireReader::new(bytes)).ok()?;
        if magic != RECORD_MAGIC {
            return None;
        }
        let body_start = HEADER_LEN as usize;
        let trailer_at = body_start.checked_add(body_len as usize)?;
        let rec_len = trailer_at.checked_add(TRAILER_LEN as usize)?;
        if bytes.len() < rec_len {
            return None; // torn tail
        }
        let (status, sum): Trailer = take(&mut WireReader::new(&bytes[trailer_at..])).ok()?;
        let state = match status {
            STATUS_COMMIT => RecordState::Committed,
            STATUS_ABORT => RecordState::Aborted,
            _ => return None,
        };
        if crate::proto::payload::payload_digest(&bytes[..trailer_at + 1]) != sum {
            return None;
        }
        let op = JournalOp::decode(&bytes[body_start..trailer_at]).ok()?;
        let (start, end) = (start as u64, (start + rec_len) as u64);
        Some(Record {
            seq,
            volume,
            op,
            start,
            end,
            state,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protect::Rights;

    /// One op of every kind, a store with and without bytes, a quota set
    /// and cleared.
    fn all_ops() -> Vec<JournalOp> {
        let mut acl = AccessList::new();
        acl.grant("satya", Rights::ALL);
        acl.deny("mallory", Rights::WRITE);
        vec![
            JournalOp::Store {
                path: "/doc/a.tex".into(),
                uid: 7,
                mtime: 10,
                data: Payload::from_vec(vec![0x5a; 300]),
            },
            JournalOp::Store {
                path: "/empty".into(),
                uid: 7,
                mtime: 11,
                data: Payload::empty(),
            },
            JournalOp::Remove {
                path: "/doc/a.tex".into(),
                mtime: 12,
            },
            JournalOp::SetMode {
                path: "/doc".into(),
                mode: 0o700,
                mtime: 13,
            },
            JournalOp::Mkdir {
                path: "/doc/sub".into(),
                uid: 7,
                mtime: 14,
            },
            JournalOp::Rmdir {
                path: "/doc/sub".into(),
                mtime: 15,
            },
            JournalOp::Rename {
                from: "/doc".into(),
                to: "/docs".into(),
                mtime: 16,
            },
            JournalOp::SetAcl {
                path: "/docs".into(),
                acl,
            },
            JournalOp::Symlink {
                path: "/l".into(),
                target: "/docs/a.tex".into(),
                uid: 7,
                mtime: 17,
            },
            JournalOp::SetQuota { bytes: Some(4096) },
            JournalOp::SetQuota { bytes: None },
        ]
    }

    /// A record body is one buffer of exactly its size, the measuring pass
    /// prices it to the byte, and it decodes back to the op.
    #[test]
    fn every_body_is_one_exact_buffer_and_round_trips() {
        for op in all_ops() {
            let body = op.encode();
            assert_eq!(body.len(), body.capacity(), "{op:?}");
            assert_eq!(op.encoded_len(), body.len() as u64, "{op:?}");
            assert_eq!(JournalOp::decode(&body), Ok(op));
        }
    }
}
