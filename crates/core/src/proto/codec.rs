//! Wire encodings for Vice requests and replies.
//!
//! Each message kind is one row of a [`wire_table!`] below: its tag, its
//! statistics label for a request, and its fields in wire order. The head's
//! layout and its decoder are both generated from that row (DESIGN.md §17),
//! and the server turns an undecodable request into
//! [`ViceError::BadRequest`].
//!
//! ## Out-of-band bulk payloads
//!
//! Whole-file contents (`Store` requests, `Data` replies) do not ride in
//! the encoded head. Encoding yields a [`WireMsg`]: a small `head` holding
//! everything *except* the file bytes — including the payload's length
//! prefix and an 8-byte FNV-1a digest ([`Rider`]) — plus the refcounted
//! [`Payload`] itself. The head travels through the sealed channel; the
//! payload rides alongside as a bulk transfer (the analogue of an RPC2
//! side-effect), integrity-bound to the authenticated head by length and
//! digest. This is what makes the hot path zero-copy: sealing, retrying,
//! and decoding touch only the head, and the payload is shared by refcount
//! end to end.
//!
//! [`WireMsg::wire_len`] reproduces the length of the old inline encoding
//! exactly (the digest is accounting-free), so every timing computation in
//! the transport is bit-identical to the inline-payload design.

use super::payload::Payload;
use super::types::{EntryKind, ServerId, VStatus, ViceError, ViceReply, ViceRequest};
use itc_rpc::wire::{exact, put, take, Codec};
use itc_rpc::{wire_table, WireError, WireReader, WireWriter};

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

/// A payload in a Vice head: its length and FNV digest. The bytes ride
/// out of band beside the head and are bound to it by both.
struct Rider;

impl Codec<Payload, Payload> for Rider {
    const MIN: usize = 12;
    const RIDES: bool = true;
    fn put(data: &Payload, w: WireWriter) -> WireWriter {
        put::<_, Payload>(&(data.len() as u32, data.digest()), w)
    }
    fn take(r: &mut WireReader<'_, Payload>) -> Result<Payload, WireError> {
        let (len, digest): (u32, u64) = take(r)?;
        let p = r.rider().ok_or(WireError::BadPayload)?;
        if p.len() != len as usize || p.digest() != digest {
            return Err(WireError::BadPayload);
        }
        Ok(p)
    }
}

/// `NotCustodian`'s hint: a presence flag, then a server id that is always
/// written (0 when there is none).
struct Hint;

impl<R> Codec<Option<ServerId>, R> for Hint {
    const MIN: usize = 5;
    fn put(hint: &Option<ServerId>, w: WireWriter) -> WireWriter {
        put::<_, R>(&(hint.is_some(), hint.map_or(0, |s| s.0)), w)
    }
    fn take(r: &mut WireReader<'_, R>) -> Result<Option<ServerId>, WireError> {
        let (has, id): (bool, u32) = take(r)?;
        Ok(has.then_some(ServerId(id)))
    }
}

wire_table! {
    enum ViceRequest, rides Payload, else Truncated {
        1 "getcustodian" => GetCustodian { path },
        2 "fetch" => Fetch { path },
        3 "store" => Store { path, data: Rider },
        4 "remove" => Remove { path },
        5 "getstatus" => GetStatus { path },
        6 "setmode" => SetMode { path, mode },
        7 "validate" => Validate { path, fid, version },
        8 "makedir" => MakeDir { path },
        9 "removedir" => RemoveDir { path },
        10 "rename" => Rename { from, to },
        11 "listdir" => ListDir { path },
        12 "getacl" => GetAcl { path },
        13 "setacl" => SetAcl { path, acl },
        14 "makesymlink" => MakeSymlink { path, target },
        15 "readlink" => ReadLink { path },
        16 "setlock" => SetLock { path, exclusive },
        17 "releaselock" => ReleaseLock { path },
    }
}

wire_table! {
    enum ViceReply, rides Payload, else Truncated {
        101 => Ok,
        102 => Status(status),
        103 => Data { status, data: Rider },
        104 => Listing(entries),
        105 => Acl(acl),
        106 => Custodian { subtree, custodian, replicas },
        107 => Validated { valid, status },
        108 => Link(target),
        109 => Error(error),
    }
}

wire_table! {
    enum ViceError, else Truncated {
        1 => NoSuchFile(path),
        2 => NotADirectory(path),
        3 => IsADirectory(path),
        4 => AlreadyExists(path),
        5 => NotEmpty(path),
        6 => PermissionDenied(path),
        7 => NotCustodian(hint: Hint),
        8 => LockConflict(path),
        9 => ReadOnlyVolume(path),
        10 => QuotaExceeded(path),
        11 => VolumeOffline(path),
        12 => SymlinkLoop(path),
        13 => RenameIntoSelf(path),
        14 => BadRequest(message),
        15 => Unreachable(server),
        16 => TimedOut(server),
    }
}

wire_table! {
    struct VStatus { path: String, fid: u64, kind: EntryKind, size: u64, version: u64,
        mtime: u64, mode: u16, owner: u32, read_only: bool }
}

wire_table! { enum EntryKind, else Truncated { 0 => File, 1 => Dir, 2 => Symlink } }

wire_table! { struct ServerId(id: u32) }

/// Encodes a request to a sealable head plus optional bulk payload. The
/// head is laid out once to measure and once into a buffer of exactly
/// that size.
pub fn encode_request(req: &ViceRequest) -> WireMsg {
    WireMsg {
        head: exact(|w| put(req, w)),
        payload: match req {
            ViceRequest::Store { data, .. } => Some(data.clone()),
            _ => None,
        },
    }
}

/// Decodes a request from its head and out-of-band payload.
pub fn decode_request(head: &[u8], payload: Option<Payload>) -> Result<ViceRequest, WireError> {
    WireReader::riding(head, payload).whole()
}

/// Encodes a reply to a sealable head plus optional bulk payload, the
/// head in one buffer of exactly its size.
pub fn encode_reply(reply: &ViceReply) -> WireMsg {
    WireMsg {
        head: exact(|w| put(reply, w)),
        payload: match reply {
            ViceReply::Data { data, .. } => Some(data.clone()),
            _ => None,
        },
    }
}

/// Decodes a reply from its head and out-of-band payload.
pub fn decode_reply(head: &[u8], payload: Option<Payload>) -> Result<ViceReply, WireError> {
    WireReader::riding(head, payload).whole()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protect::{AccessList, Rights};

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
            assert_eq!(put(&req, WireWriter::measuring()).len(), head.len());
        }
        for reply in all_replies() {
            let head = encode_reply(&reply).head;
            assert_eq!(head.len(), head.capacity(), "{reply:?}");
            assert_eq!(put(&reply, WireWriter::measuring()).len(), head.len());
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
        let listing = WireWriter::new().u8(104).u32(u32::MAX).finish();
        assert_eq!(decode_reply(&listing, None), Err(WireError::Truncated));
        let custodian = WireWriter::new()
            .u8(106)
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
