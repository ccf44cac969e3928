//! Wire encodings for Vice requests and replies.
//!
//! Positional, tag-prefixed encodings over [`itc_rpc::wire`]. Both encoders
//! and decoders live here so the round-trip property is testable in one
//! place. Decoding failures map to `None`; the server turns an undecodable
//! request into [`ViceError::BadRequest`].
//!
//! ## Out-of-band bulk payloads
//!
//! Whole-file contents (`Store` requests, `Data` replies) do not ride in
//! the encoded head. Encoding yields a [`WireMsg`]: a small `head` holding
//! everything *except* the file bytes — including the payload's length
//! prefix and an 8-byte FNV-1a digest — plus the refcounted [`Payload`]
//! itself. The head travels through the sealed channel; the payload rides
//! alongside as a bulk transfer (the analogue of an RPC2 side-effect),
//! integrity-bound to the authenticated head by length and digest. This is
//! what makes the hot path zero-copy: sealing, retrying, and decoding touch
//! only the head, and the payload is shared by refcount end to end.
//!
//! [`WireMsg::wire_len`] reproduces the length of the old inline encoding
//! exactly (the digest is accounting-free), so every timing computation in
//! the transport is bit-identical to the inline-payload design.

use super::payload::Payload;
use super::types::{EntryKind, ServerId, VStatus, ViceError, ViceReply, ViceRequest};
use crate::protect::AccessList;
use itc_rpc::wire::exact;
use itc_rpc::{WireError, WireReader, WireWriter};

/// An encoded message: the sealable head plus the optional out-of-band
/// bulk payload.
#[derive(Debug, Clone)]
pub struct WireMsg {
    /// Everything except file contents; what the secure channel seals.
    pub head: Vec<u8>,
    /// File contents riding out of band, refcounted.
    pub payload: Option<Payload>,
}

impl WireMsg {
    /// The message's logical size on the wire — byte-for-byte equal to the
    /// length of the old inline encoding (head minus the 8-byte digest,
    /// plus the payload). All timing arithmetic derives from this.
    pub fn wire_len(&self) -> usize {
        match &self.payload {
            Some(p) => self.head.len() - 8 + p.len(),
            None => self.head.len(),
        }
    }
}

/// Appends the payload's length prefix and digest to the head (the bytes
/// themselves ride out of band).
fn put_payload(w: WireWriter, data: &Payload) -> WireWriter {
    w.u32(data.len() as u32).u64(data.digest())
}

/// Validates the out-of-band payload against the head's length and digest.
fn take_payload(payload: Option<Payload>, len: u32, digest: u64) -> Result<Payload, WireError> {
    let p = payload.ok_or(WireError::BadPayload)?;
    if p.len() != len as usize || p.digest() != digest {
        return Err(WireError::BadPayload);
    }
    Ok(p)
}

/// Reads an element count, rejecting one the remaining bytes cannot hold
/// (every element is at least `min_bytes` long), so a length prefix off
/// the wire never sizes a reservation the message does not justify.
fn take_count(r: &mut WireReader<'_>, min_bytes: usize) -> Result<usize, WireError> {
    let n = r.u32()? as usize;
    if n > r.remaining() / min_bytes {
        return Err(WireError::Truncated);
    }
    Ok(n)
}

/// Rejects a stray payload on a message kind that does not carry one.
fn no_payload(payload: &Option<Payload>) -> Result<(), WireError> {
    match payload {
        Some(_) => Err(WireError::BadPayload),
        None => Ok(()),
    }
}

// Request tags.
const RQ_GETCUSTODIAN: u8 = 1;
const RQ_FETCH: u8 = 2;
const RQ_STORE: u8 = 3;
const RQ_REMOVE: u8 = 4;
const RQ_GETSTATUS: u8 = 5;
const RQ_SETMODE: u8 = 6;
const RQ_VALIDATE: u8 = 7;
const RQ_MAKEDIR: u8 = 8;
const RQ_REMOVEDIR: u8 = 9;
const RQ_RENAME: u8 = 10;
const RQ_LISTDIR: u8 = 11;
const RQ_GETACL: u8 = 12;
const RQ_SETACL: u8 = 13;
const RQ_MAKESYMLINK: u8 = 14;
const RQ_READLINK: u8 = 15;
const RQ_SETLOCK: u8 = 16;
const RQ_RELEASELOCK: u8 = 17;

// Reply tags.
const RP_OK: u8 = 101;
const RP_STATUS: u8 = 102;
const RP_DATA: u8 = 103;
const RP_LISTING: u8 = 104;
const RP_ACL: u8 = 105;
const RP_CUSTODIAN: u8 = 106;
const RP_VALIDATED: u8 = 107;
const RP_LINK: u8 = 108;
const RP_ERROR: u8 = 109;

// Error tags.
const ER_NOSUCHFILE: u8 = 1;
const ER_NOTADIR: u8 = 2;
const ER_ISADIR: u8 = 3;
const ER_EXISTS: u8 = 4;
const ER_NOTEMPTY: u8 = 5;
const ER_PERM: u8 = 6;
const ER_NOTCUSTODIAN: u8 = 7;
const ER_LOCK: u8 = 8;
const ER_READONLY: u8 = 9;
const ER_QUOTA: u8 = 10;
const ER_OFFLINE: u8 = 11;
const ER_LOOP: u8 = 12;
const ER_RENAMESELF: u8 = 13;
const ER_BADREQ: u8 = 14;
const ER_UNREACHABLE: u8 = 15;
const ER_TIMEDOUT: u8 = 16;

/// Encodes a request to a sealable head plus optional bulk payload. The
/// head is laid out once to measure and once into a buffer of exactly
/// that size.
pub fn encode_request(req: &ViceRequest) -> WireMsg {
    WireMsg {
        head: exact(|w| request_layout(w, req)),
        payload: match req {
            ViceRequest::Store { data, .. } => Some(data.clone()),
            _ => None,
        },
    }
}

/// The one layout of a request head.
fn request_layout(w: WireWriter, req: &ViceRequest) -> WireWriter {
    match req {
        ViceRequest::GetCustodian { path } => w.u8(RQ_GETCUSTODIAN).string(path),
        ViceRequest::Fetch { path } => w.u8(RQ_FETCH).string(path),
        ViceRequest::Store { path, data } => put_payload(w.u8(RQ_STORE).string(path), data),
        ViceRequest::Remove { path } => w.u8(RQ_REMOVE).string(path),
        ViceRequest::GetStatus { path } => w.u8(RQ_GETSTATUS).string(path),
        ViceRequest::SetMode { path, mode } => w.u8(RQ_SETMODE).string(path).u32(*mode as u32),
        ViceRequest::Validate { path, fid, version } => {
            w.u8(RQ_VALIDATE).string(path).u64(*fid).u64(*version)
        }
        ViceRequest::MakeDir { path } => w.u8(RQ_MAKEDIR).string(path),
        ViceRequest::RemoveDir { path } => w.u8(RQ_REMOVEDIR).string(path),
        ViceRequest::Rename { from, to } => w.u8(RQ_RENAME).string(from).string(to),
        ViceRequest::ListDir { path } => w.u8(RQ_LISTDIR).string(path),
        ViceRequest::GetAcl { path } => w.u8(RQ_GETACL).string(path),
        ViceRequest::SetAcl { path, acl } => acl.encode(w.u8(RQ_SETACL).string(path)),
        ViceRequest::MakeSymlink { path, target } => {
            w.u8(RQ_MAKESYMLINK).string(path).string(target)
        }
        ViceRequest::ReadLink { path } => w.u8(RQ_READLINK).string(path),
        ViceRequest::SetLock { path, exclusive } => {
            w.u8(RQ_SETLOCK).string(path).boolean(*exclusive)
        }
        ViceRequest::ReleaseLock { path } => w.u8(RQ_RELEASELOCK).string(path),
    }
}

/// Decodes a request from its head and out-of-band payload.
pub fn decode_request(head: &[u8], payload: Option<Payload>) -> Result<ViceRequest, WireError> {
    let mut r = WireReader::new(head);
    let tag = r.u8()?;
    if tag != RQ_STORE {
        no_payload(&payload)?;
    }
    let req = match tag {
        RQ_GETCUSTODIAN => ViceRequest::GetCustodian { path: r.string()? },
        RQ_FETCH => ViceRequest::Fetch { path: r.string()? },
        RQ_STORE => {
            let path = r.string()?;
            let (len, digest) = (r.u32()?, r.u64()?);
            ViceRequest::Store {
                path,
                data: take_payload(payload, len, digest)?,
            }
        }
        RQ_REMOVE => ViceRequest::Remove { path: r.string()? },
        RQ_GETSTATUS => ViceRequest::GetStatus { path: r.string()? },
        RQ_SETMODE => ViceRequest::SetMode {
            path: r.string()?,
            mode: r.u32()? as u16,
        },
        RQ_VALIDATE => ViceRequest::Validate {
            path: r.string()?,
            fid: r.u64()?,
            version: r.u64()?,
        },
        RQ_MAKEDIR => ViceRequest::MakeDir { path: r.string()? },
        RQ_REMOVEDIR => ViceRequest::RemoveDir { path: r.string()? },
        RQ_RENAME => ViceRequest::Rename {
            from: r.string()?,
            to: r.string()?,
        },
        RQ_LISTDIR => ViceRequest::ListDir { path: r.string()? },
        RQ_GETACL => ViceRequest::GetAcl { path: r.string()? },
        RQ_SETACL => {
            let path = r.string()?;
            let acl = AccessList::decode(&mut r)?;
            ViceRequest::SetAcl { path, acl }
        }
        RQ_MAKESYMLINK => ViceRequest::MakeSymlink {
            path: r.string()?,
            target: r.string()?,
        },
        RQ_READLINK => ViceRequest::ReadLink { path: r.string()? },
        RQ_SETLOCK => ViceRequest::SetLock {
            path: r.string()?,
            exclusive: r.boolean()?,
        },
        RQ_RELEASELOCK => ViceRequest::ReleaseLock { path: r.string()? },
        _ => return Err(WireError::Truncated),
    };
    r.done()?;
    Ok(req)
}

fn encode_status(w: WireWriter, s: &VStatus) -> WireWriter {
    w.string(&s.path)
        .u64(s.fid)
        .u8(s.kind.to_wire())
        .u64(s.size)
        .u64(s.version)
        .u64(s.mtime)
        .u32(s.mode as u32)
        .u32(s.owner)
        .boolean(s.read_only)
}

fn decode_status(r: &mut WireReader<'_>) -> Result<VStatus, WireError> {
    Ok(VStatus {
        path: r.string()?,
        fid: r.u64()?,
        kind: EntryKind::from_wire(r.u8()?).ok_or(WireError::Truncated)?,
        size: r.u64()?,
        version: r.u64()?,
        mtime: r.u64()?,
        mode: r.u32()? as u16,
        owner: r.u32()?,
        read_only: r.boolean()?,
    })
}

fn encode_error(w: WireWriter, e: &ViceError) -> WireWriter {
    match e {
        ViceError::NoSuchFile(p) => w.u8(ER_NOSUCHFILE).string(p),
        ViceError::NotADirectory(p) => w.u8(ER_NOTADIR).string(p),
        ViceError::IsADirectory(p) => w.u8(ER_ISADIR).string(p),
        ViceError::AlreadyExists(p) => w.u8(ER_EXISTS).string(p),
        ViceError::NotEmpty(p) => w.u8(ER_NOTEMPTY).string(p),
        ViceError::PermissionDenied(p) => w.u8(ER_PERM).string(p),
        ViceError::NotCustodian(hint) => {
            let w = w.u8(ER_NOTCUSTODIAN).boolean(hint.is_some());
            w.u32(hint.map_or(0, |s| s.0))
        }
        ViceError::LockConflict(p) => w.u8(ER_LOCK).string(p),
        ViceError::ReadOnlyVolume(p) => w.u8(ER_READONLY).string(p),
        ViceError::QuotaExceeded(p) => w.u8(ER_QUOTA).string(p),
        ViceError::VolumeOffline(p) => w.u8(ER_OFFLINE).string(p),
        ViceError::SymlinkLoop(p) => w.u8(ER_LOOP).string(p),
        ViceError::RenameIntoSelf(p) => w.u8(ER_RENAMESELF).string(p),
        ViceError::BadRequest(m) => w.u8(ER_BADREQ).string(m),
        ViceError::Unreachable(s) => w.u8(ER_UNREACHABLE).u32(*s),
        ViceError::TimedOut(s) => w.u8(ER_TIMEDOUT).u32(*s),
    }
}

fn decode_error(r: &mut WireReader<'_>) -> Result<ViceError, WireError> {
    let tag = r.u8()?;
    Ok(match tag {
        ER_NOSUCHFILE => ViceError::NoSuchFile(r.string()?),
        ER_NOTADIR => ViceError::NotADirectory(r.string()?),
        ER_ISADIR => ViceError::IsADirectory(r.string()?),
        ER_EXISTS => ViceError::AlreadyExists(r.string()?),
        ER_NOTEMPTY => ViceError::NotEmpty(r.string()?),
        ER_PERM => ViceError::PermissionDenied(r.string()?),
        ER_NOTCUSTODIAN => {
            let has = r.boolean()?;
            let id = r.u32()?;
            ViceError::NotCustodian(has.then_some(ServerId(id)))
        }
        ER_LOCK => ViceError::LockConflict(r.string()?),
        ER_READONLY => ViceError::ReadOnlyVolume(r.string()?),
        ER_QUOTA => ViceError::QuotaExceeded(r.string()?),
        ER_OFFLINE => ViceError::VolumeOffline(r.string()?),
        ER_LOOP => ViceError::SymlinkLoop(r.string()?),
        ER_RENAMESELF => ViceError::RenameIntoSelf(r.string()?),
        ER_BADREQ => ViceError::BadRequest(r.string()?),
        ER_UNREACHABLE => ViceError::Unreachable(r.u32()?),
        ER_TIMEDOUT => ViceError::TimedOut(r.u32()?),
        _ => return Err(WireError::Truncated),
    })
}

/// Encodes a reply to a sealable head plus optional bulk payload, the
/// head in one buffer of exactly its size.
pub fn encode_reply(reply: &ViceReply) -> WireMsg {
    WireMsg {
        head: exact(|w| reply_layout(w, reply)),
        payload: match reply {
            ViceReply::Data { data, .. } => Some(data.clone()),
            _ => None,
        },
    }
}

/// The one layout of a reply head.
fn reply_layout(w: WireWriter, reply: &ViceReply) -> WireWriter {
    match reply {
        ViceReply::Ok => w.u8(RP_OK),
        ViceReply::Status(s) => encode_status(w.u8(RP_STATUS), s),
        ViceReply::Data { status, data } => put_payload(encode_status(w.u8(RP_DATA), status), data),
        ViceReply::Listing(entries) => {
            let mut w = w.u8(RP_LISTING).u32(entries.len() as u32);
            for (name, kind) in entries {
                w = w.string(name).u8(kind.to_wire());
            }
            w
        }
        ViceReply::Acl(acl) => acl.encode(w.u8(RP_ACL)),
        ViceReply::Custodian {
            subtree,
            custodian,
            replicas,
        } => {
            let mut w = w
                .u8(RP_CUSTODIAN)
                .string(subtree)
                .u32(custodian.0)
                .u32(replicas.len() as u32);
            for r in replicas {
                w = w.u32(r.0);
            }
            w
        }
        ViceReply::Validated { valid, status } => {
            let w = w.u8(RP_VALIDATED).boolean(*valid).boolean(status.is_some());
            match status {
                Some(s) => encode_status(w, s),
                None => w,
            }
        }
        ViceReply::Link(target) => w.u8(RP_LINK).string(target),
        ViceReply::Error(e) => encode_error(w.u8(RP_ERROR), e),
    }
}

/// Decodes a reply from its head and out-of-band payload.
pub fn decode_reply(head: &[u8], payload: Option<Payload>) -> Result<ViceReply, WireError> {
    let mut r = WireReader::new(head);
    let tag = r.u8()?;
    if tag != RP_DATA {
        no_payload(&payload)?;
    }
    let reply = match tag {
        RP_OK => ViceReply::Ok,
        RP_STATUS => ViceReply::Status(decode_status(&mut r)?),
        RP_DATA => {
            let status = decode_status(&mut r)?;
            let (len, digest) = (r.u32()?, r.u64()?);
            ViceReply::Data {
                status,
                data: take_payload(payload, len, digest)?,
            }
        }
        RP_LISTING => {
            // An entry is a length-prefixed name plus a kind byte.
            let n = take_count(&mut r, 5)?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let name = r.string()?;
                let kind = EntryKind::from_wire(r.u8()?).ok_or(WireError::Truncated)?;
                entries.push((name, kind));
            }
            ViceReply::Listing(entries)
        }
        RP_ACL => ViceReply::Acl(AccessList::decode(&mut r)?),
        RP_CUSTODIAN => {
            let subtree = r.string()?;
            let custodian = ServerId(r.u32()?);
            let n = take_count(&mut r, 4)?;
            let mut replicas = Vec::with_capacity(n);
            for _ in 0..n {
                replicas.push(ServerId(r.u32()?));
            }
            ViceReply::Custodian {
                subtree,
                custodian,
                replicas,
            }
        }
        RP_VALIDATED => {
            let valid = r.boolean()?;
            let has_status = r.boolean()?;
            let status = if has_status {
                Some(decode_status(&mut r)?)
            } else {
                None
            };
            ViceReply::Validated { valid, status }
        }
        RP_LINK => ViceReply::Link(r.string()?),
        RP_ERROR => ViceReply::Error(decode_error(&mut r)?),
        _ => return Err(WireError::Truncated),
    };
    r.done()?;
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protect::Rights;

    fn sample_status() -> VStatus {
        VStatus {
            path: "/vice/usr/satya/paper.tex".into(),
            fid: 42,
            kind: EntryKind::File,
            size: 42_000,
            version: 7,
            mtime: 123_456_789,
            mode: 0o644,
            owner: 100,
            read_only: false,
        }
    }

    fn all_requests() -> Vec<ViceRequest> {
        let mut acl = AccessList::new();
        acl.grant("satya", Rights::ALL);
        acl.deny("mallory", Rights::WRITE);
        vec![
            ViceRequest::GetCustodian {
                path: "/vice/a".into(),
            },
            ViceRequest::Fetch {
                path: "/vice/a".into(),
            },
            ViceRequest::Store {
                path: "/vice/a".into(),
                data: vec![1, 2, 3].into(),
            },
            ViceRequest::Remove {
                path: "/vice/a".into(),
            },
            ViceRequest::GetStatus {
                path: "/vice/a".into(),
            },
            ViceRequest::SetMode {
                path: "/vice/a".into(),
                mode: 0o755,
            },
            ViceRequest::Validate {
                path: "/vice/a".into(),
                fid: 3,
                version: 9,
            },
            ViceRequest::MakeDir {
                path: "/vice/d".into(),
            },
            ViceRequest::RemoveDir {
                path: "/vice/d".into(),
            },
            ViceRequest::Rename {
                from: "/vice/a".into(),
                to: "/vice/b".into(),
            },
            ViceRequest::ListDir {
                path: "/vice".into(),
            },
            ViceRequest::GetAcl {
                path: "/vice/d".into(),
            },
            ViceRequest::SetAcl {
                path: "/vice/d".into(),
                acl,
            },
            ViceRequest::MakeSymlink {
                path: "/vice/l".into(),
                target: "/vice/a".into(),
            },
            ViceRequest::ReadLink {
                path: "/vice/l".into(),
            },
            ViceRequest::SetLock {
                path: "/vice/a".into(),
                exclusive: true,
            },
            ViceRequest::ReleaseLock {
                path: "/vice/a".into(),
            },
        ]
    }

    fn all_replies() -> Vec<ViceReply> {
        let mut acl = AccessList::new();
        acl.grant("g", Rights::READ_ONLY);
        vec![
            ViceReply::Ok,
            ViceReply::Status(sample_status()),
            ViceReply::Data {
                status: sample_status(),
                data: vec![9; 100].into(),
            },
            ViceReply::Listing(vec![
                ("a.txt".into(), EntryKind::File),
                ("sub".into(), EntryKind::Dir),
                ("l".into(), EntryKind::Symlink),
            ]),
            ViceReply::Acl(acl),
            ViceReply::Custodian {
                subtree: "/vice/usr/satya".into(),
                custodian: ServerId(3),
                replicas: vec![ServerId(0), ServerId(5)],
            },
            ViceReply::Validated {
                valid: true,
                status: None,
            },
            ViceReply::Validated {
                valid: false,
                status: Some(sample_status()),
            },
            ViceReply::Link("/vice/target".into()),
            ViceReply::Error(ViceError::NoSuchFile("/vice/x".into())),
            ViceReply::Error(ViceError::NotCustodian(Some(ServerId(2)))),
            ViceReply::Error(ViceError::NotCustodian(None)),
            ViceReply::Error(ViceError::PermissionDenied("/vice/y".into())),
            ViceReply::Error(ViceError::QuotaExceeded("/vice/usr/s".into())),
            ViceReply::Error(ViceError::Unreachable(4)),
            ViceReply::Error(ViceError::TimedOut(2)),
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for req in all_requests() {
            let msg = encode_request(&req);
            let back = decode_request(&msg.head, msg.payload.clone())
                .unwrap_or_else(|e| panic!("{req:?}: {e}"));
            assert_eq!(back, req);
        }
        // One request per variant, and `KINDS` names exactly their labels.
        let kinds: Vec<&str> = all_requests().iter().map(ViceRequest::kind).collect();
        assert_eq!(kinds, ViceRequest::KINDS);
    }

    #[test]
    fn every_reply_round_trips() {
        for reply in all_replies() {
            let msg = encode_reply(&reply);
            let back = decode_reply(&msg.head, msg.payload.clone())
                .unwrap_or_else(|e| panic!("{reply:?}: {e}"));
            assert_eq!(back, reply);
        }
    }

    /// Every head is laid out once to measure and once into a buffer of
    /// exactly that size: no doubling, no slack.
    #[test]
    fn every_head_is_one_exact_buffer() {
        for req in all_requests() {
            let head = encode_request(&req).head;
            assert_eq!(head.len(), head.capacity(), "{req:?}");
            assert_eq!(
                request_layout(WireWriter::measuring(), &req).len(),
                head.len()
            );
        }
        for reply in all_replies() {
            let head = encode_reply(&reply).head;
            assert_eq!(head.len(), head.capacity(), "{reply:?}");
            assert_eq!(
                reply_layout(WireWriter::measuring(), &reply).len(),
                head.len()
            );
        }
    }

    /// `wire_len` must reproduce the old inline encoding's length exactly —
    /// the transport's timing arithmetic is derived from it, and the golden
    /// timing tests pin those numbers bit-for-bit. The old inline format
    /// was the head with the payload bytes spliced in after their length
    /// prefix (and no digest).
    #[test]
    fn wire_len_matches_inline_encoding() {
        for req in all_requests() {
            let msg = encode_request(&req);
            let inline = match &req {
                ViceRequest::Store { .. } => {
                    msg.head.len() - 8 + msg.payload.as_ref().unwrap().len()
                }
                _ => msg.head.len(),
            };
            assert_eq!(msg.wire_len(), inline, "{req:?}");
        }
        // A Store's wire length grows byte-for-byte with its payload.
        let small = encode_request(&ViceRequest::Store {
            path: "/v/f".into(),
            data: vec![0; 10].into(),
        });
        let large = encode_request(&ViceRequest::Store {
            path: "/v/f".into(),
            data: vec![0; 1010].into(),
        });
        assert_eq!(large.wire_len() - small.wire_len(), 1000);
        assert_eq!(large.head.len(), small.head.len());
    }

    /// Encoding never copies the file bytes: the payload in the `WireMsg`
    /// shares its allocation with the request's payload.
    #[test]
    fn encode_shares_the_payload_allocation() {
        let data: Payload = vec![5u8; 4096].into();
        let req = ViceRequest::Store {
            path: "/v/f".into(),
            data: data.clone(),
        };
        crate::proto::payload::reset_bytes_copied();
        let msg = encode_request(&req);
        let back = decode_request(&msg.head, msg.payload.clone()).unwrap();
        assert_eq!(crate::proto::payload::bytes_copied(), 0);
        match back {
            ViceRequest::Store { data: d, .. } => assert_eq!(d, data),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn tampered_or_missing_payload_rejected() {
        let mut msg = encode_request(&ViceRequest::Store {
            path: "/v/f".into(),
            data: vec![1, 2, 3].into(),
        });
        // Missing payload.
        assert_eq!(decode_request(&msg.head, None), Err(WireError::BadPayload));
        // Tampered payload (digest mismatch).
        assert_eq!(
            decode_request(&msg.head, Some(vec![1, 2, 4].into())),
            Err(WireError::BadPayload)
        );
        // Wrong length.
        assert_eq!(
            decode_request(&msg.head, Some(vec![1, 2].into())),
            Err(WireError::BadPayload)
        );
        // Warm memos vouch for nothing but their own buffer. Encoding
        // filled the honest rider's; a swapped-in rider of the same length
        // brings its own (already filled) and fails against the head's...
        let swapped: Payload = vec![1, 2, 4].into();
        assert_ne!(swapped.digest(), msg.payload.as_ref().unwrap().digest());
        assert_eq!(
            decode_request(&msg.head, Some(swapped)),
            Err(WireError::BadPayload)
        );
        // ...and the honest rider edited in flight (sole holder, so in
        // place) loses its memo with the edit.
        let mut edited = msg.payload.take().unwrap();
        assert!(decode_request(&msg.head, Some(edited.clone())).is_ok());
        edited.make_mut()[2] ^= 1;
        assert_eq!(
            decode_request(&msg.head, Some(edited)),
            Err(WireError::BadPayload)
        );
        // A stray payload on a message that does not carry one.
        let fetch = encode_request(&ViceRequest::Fetch { path: "/v".into() });
        assert!(fetch.payload.is_none());
        assert_eq!(
            decode_request(&fetch.head, Some(vec![9].into())),
            Err(WireError::BadPayload)
        );
        // Same checks on the reply side.
        let rmsg = encode_reply(&ViceReply::Data {
            status: sample_status(),
            data: vec![7; 50].into(),
        });
        assert_eq!(decode_reply(&rmsg.head, None), Err(WireError::BadPayload));
        assert_eq!(
            decode_reply(&rmsg.head, Some(vec![7; 49].into())),
            Err(WireError::BadPayload)
        );
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(decode_request(&[], None).is_err());
        assert!(decode_request(&[200], None).is_err());
        assert!(decode_reply(&[0], None).is_err());
        // Trailing garbage after a valid message is rejected.
        let mut msg = encode_request(&ViceRequest::Fetch { path: "/v".into() });
        msg.head.push(0);
        assert!(decode_request(&msg.head, msg.payload).is_err());
    }

    /// A five-byte head may not ask for a 100 GB reservation: a count the
    /// remaining bytes cannot hold is a truncated message, decided before
    /// anything is allocated for it.
    #[test]
    fn length_prefix_bombs_are_truncated_not_allocated() {
        let listing = WireWriter::new().u8(RP_LISTING).u32(u32::MAX).finish();
        assert_eq!(decode_reply(&listing, None), Err(WireError::Truncated));
        let custodian = WireWriter::new()
            .u8(RP_CUSTODIAN)
            .string("/vice")
            .u32(1)
            .u32(u32::MAX)
            .finish();
        assert_eq!(decode_reply(&custodian, None), Err(WireError::Truncated));
        // The largest count the bytes can hold still decodes.
        let ok = ViceReply::Custodian {
            subtree: "/vice".into(),
            custodian: ServerId(1),
            replicas: vec![ServerId(2), ServerId(3)],
        };
        let msg = encode_reply(&ok);
        assert_eq!(decode_reply(&msg.head, msg.payload).unwrap(), ok);
    }

    #[test]
    fn request_kinds_and_paths() {
        assert_eq!(
            ViceRequest::Fetch {
                path: "/v/x".into()
            }
            .kind(),
            "fetch"
        );
        assert_eq!(
            ViceRequest::Validate {
                path: "/v/x".into(),
                fid: 1,
                version: 1
            }
            .kind(),
            "validate"
        );
        assert_eq!(
            ViceRequest::Rename {
                from: "/v/a".into(),
                to: "/v/b".into()
            }
            .path(),
            "/v/a"
        );
    }
}
