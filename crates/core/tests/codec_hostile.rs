//! Hostile bytes at the Vice codec's two entrances, `decode_request` and
//! `decode_reply` — what a server and a workstation parse once the sealed
//! channel has opened a message. Whatever the head holds, and whether or
//! not a bulk payload rides beside it, each returns a typed error or an
//! exact decode (one that re-encodes to a message decoding back to itself,
//! and for an untouched head, the message that was encoded). It never
//! panics — this is a debug build, overflow checks on — and never
//! allocates beyond a fixed multiple of the input's length plus a
//! constant: a length prefix cannot make the decoder reserve what the bytes
//! do not carry.

use itc_core::protect::{AccessList, Rights};
use itc_core::proto::{
    decode_reply, decode_request, encode_reply, encode_request, EntryKind, Payload, ServerId,
    VStatus, ViceError, ViceReply, ViceRequest,
};
use itc_rpc::WireError;
use itc_sim::SimRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes the calling thread allocates (the harness runs sibling
/// tests on other threads).
struct Counting;

thread_local! {
    static TOTAL: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = TOTAL.try_with(|t| t.set(t.get() + size));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a plain thread-local `Cell`
// with no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What decoding `len` head bytes may allocate. The decoded message is
/// what costs memory: the smallest counted entry (a listing's empty name
/// and kind byte, an access-list entry's empty name and rights byte) is
/// five bytes on the wire and a 32-byte slot in memory, and an access list
/// grows its slots by doubling. The constant covers the fixed-size parts.
fn bound(len: usize) -> usize {
    16 * len + 256
}

/// Decodes `head` both ways under the allocation bound: as a request and
/// as a reply. Returns how many of the two decodes were accepted.
fn decode_both(head: &[u8], payload: &Option<Payload>) -> usize {
    let (req, total) = counted(|| decode_request(head, payload.clone()));
    assert!(
        total <= bound(head.len()),
        "decode_request allocated {total} for {} bytes: {head:02x?}",
        head.len()
    );
    let (reply, total) = counted(|| decode_reply(head, payload.clone()));
    assert!(
        total <= bound(head.len()),
        "decode_reply allocated {total} for {} bytes: {head:02x?}",
        head.len()
    );
    let mut accepted = 0;
    if let Ok(req) = req {
        let again = encode_request(&req);
        assert_eq!(decode_request(&again.head, again.payload), Ok(req));
        accepted += 1;
    }
    if let Ok(reply) = reply {
        let again = encode_reply(&reply);
        assert_eq!(decode_reply(&again.head, again.payload), Ok(reply));
        accepted += 1;
    }
    accepted
}

fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    TOTAL.with(|t| t.set(0));
    let out = f();
    (out, TOTAL.with(Cell::get))
}

fn random_bytes(rng: &mut SimRng, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    rng.fill_bytes(&mut bytes);
    bytes
}

/// Every way of damaging a valid head the sweep tries: truncate at every
/// length, extend by 1..=16 random bytes, substitute each byte. A mutation
/// that rebuilds the original is dropped.
fn mutations(valid: &[u8], rng: &mut SimRng) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..valid.len()).map(|n| valid[..n].to_vec()).collect();
    for extra in 1..=16 {
        let mut m = valid.to_vec();
        m.extend(random_bytes(rng, extra));
        out.push(m);
    }
    for pos in 0..valid.len() {
        let mut m = valid.to_vec();
        m[pos] = m[pos].wrapping_add(1 + rng.range(0, 255) as u8);
        out.push(m);
    }
    out.retain(|m| m != valid);
    out
}

fn status() -> VStatus {
    VStatus {
        path: "/vice/usr/satya/paper.tex".into(),
        fid: 42,
        kind: EntryKind::File,
        size: 1024,
        version: 7,
        mtime: 123_456_789,
        mode: 0o644,
        owner: 100,
        read_only: false,
    }
}

fn acl() -> AccessList {
    let mut acl = AccessList::new();
    acl.grant("anyuser", Rights::READ_ONLY);
    acl.grant("satya", Rights::ALL);
    acl.deny("mallory", Rights::WRITE);
    acl
}

/// One request of every kind.
fn requests(data: &Payload) -> Vec<ViceRequest> {
    let path = || "/vice/usr/satya/f".to_string();
    vec![
        ViceRequest::GetCustodian { path: path() },
        ViceRequest::Fetch { path: path() },
        ViceRequest::Store {
            path: path(),
            data: data.clone(),
        },
        ViceRequest::Remove { path: path() },
        ViceRequest::GetStatus { path: path() },
        ViceRequest::SetMode {
            path: path(),
            mode: 0o755,
        },
        ViceRequest::Validate {
            path: path(),
            fid: 3,
            version: 9,
        },
        ViceRequest::MakeDir { path: path() },
        ViceRequest::RemoveDir { path: path() },
        ViceRequest::Rename {
            from: path(),
            to: "/vice/usr/satya/g".into(),
        },
        ViceRequest::ListDir { path: path() },
        ViceRequest::GetAcl { path: path() },
        ViceRequest::SetAcl {
            path: path(),
            acl: acl(),
        },
        ViceRequest::MakeSymlink {
            path: path(),
            target: "../f".into(),
        },
        ViceRequest::ReadLink { path: path() },
        ViceRequest::SetLock {
            path: path(),
            exclusive: true,
        },
        ViceRequest::ReleaseLock { path: path() },
    ]
}

/// One reply of every kind (and both shapes of the two with an optional
/// part).
fn replies(data: &Payload) -> Vec<ViceReply> {
    vec![
        ViceReply::Ok,
        ViceReply::Status(status()),
        ViceReply::Data {
            status: status(),
            data: data.clone(),
        },
        ViceReply::Listing(vec![
            ("a.txt".into(), EntryKind::File),
            ("sub".into(), EntryKind::Dir),
            ("l".into(), EntryKind::Symlink),
        ]),
        ViceReply::Acl(acl()),
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
            status: Some(status()),
        },
        ViceReply::Link("/vice/target".into()),
        ViceReply::Error(ViceError::NoSuchFile("/vice/x".into())),
        ViceReply::Error(ViceError::NotCustodian(Some(ServerId(2)))),
        ViceReply::Error(ViceError::TimedOut(2)),
    ]
}

#[test]
fn arbitrary_heads_decode_exactly_or_fail_typed() {
    let mut rng = SimRng::seeded(0x686f_7374_696c_6543);
    let stray: Option<Payload> = Some(random_bytes(&mut rng, 40).into());
    let mut accepted = 0;
    for len in 0..=64 {
        for round in 0..32 {
            let mut head = random_bytes(&mut rng, len);
            // Half the heads open with a real tag, so the sweep reaches
            // past the first byte.
            if round % 2 == 1 && len > 0 {
                head[0] =
                    *rng.choose(&[1, 2, 3, 5, 8, 10, 13, 16, 101, 102, 103, 104, 105, 106, 109]);
            }
            accepted += decode_both(&head, &None);
            accepted += decode_both(&head, &stray);
        }
    }
    // Random bytes almost never form a message; short ones sometimes do.
    assert!(accepted > 0, "no arbitrary head was ever a message");
}

#[test]
fn mutated_heads_decode_exactly_or_fail_typed() {
    let mut rng = SimRng::seeded(0x686f_7374_696c_6544);
    let data: Payload = random_bytes(&mut rng, 100).into();
    let stray: Option<Payload> = Some(random_bytes(&mut rng, 100).into());
    let (mut tried, mut accepted) = (0, 0);
    for req in requests(&data) {
        let msg = encode_request(&req);
        assert_eq!(
            decode_request(&msg.head, msg.payload.clone()),
            Ok(req.clone())
        );
        // With the honest payload (a store's own; a stray one on any other
        // kind) and without one.
        let with = msg.payload.clone().or(stray.clone());
        for bad in mutations(&msg.head, &mut rng) {
            accepted += decode_both(&bad, &with) + decode_both(&bad, &None);
            tried += 2;
        }
    }
    for reply in replies(&data) {
        let msg = encode_reply(&reply);
        assert_eq!(
            decode_reply(&msg.head, msg.payload.clone()),
            Ok(reply.clone())
        );
        let with = msg.payload.clone().or(stray.clone());
        for bad in mutations(&msg.head, &mut rng) {
            accepted += decode_both(&bad, &with) + decode_both(&bad, &None);
            tried += 2;
        }
    }
    // A substituted path byte is usually still a path: some mutations are
    // messages, most are not.
    assert!(tried > 4_000, "{tried}");
    assert!(accepted > 0 && accepted < tried, "{accepted} of {tried}");
}

/// A payload that does not match the head's length and digest is refused
/// as such, never taken for the file.
#[test]
fn a_swapped_payload_is_refused() {
    let mut rng = SimRng::seeded(0x686f_7374_696c_6545);
    let data: Payload = random_bytes(&mut rng, 64).into();
    let other: Payload = random_bytes(&mut rng, 64).into();
    let store = encode_request(&ViceRequest::Store {
        path: "/vice/f".into(),
        data,
    });
    assert_eq!(
        decode_request(&store.head, Some(other.clone())),
        Err(WireError::BadPayload)
    );
    let reply = encode_reply(&ViceReply::Data {
        status: status(),
        data: other,
    });
    assert_eq!(decode_reply(&reply.head, None), Err(WireError::BadPayload));
}
