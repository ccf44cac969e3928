//! Hostile bytes at the journal's two entrances: `JournalOp::decode`, which
//! reads a record body, and `Journal::load`, which re-reads a log image the
//! way the salvager's scan does. The adversary is the disk. It may rewrite
//! a record and recompute its FNV trailer, which is a checksum and not a
//! MAC, so the body decoder is reached with any bytes at all. Whatever the
//! body holds, decoding returns a typed error or an exact decode (one that
//! re-encodes to a body decoding back to itself). It never panics — this
//! is a debug build, overflow checks on — and never allocates beyond a
//! fixed multiple of the input's length plus a constant. A record `load`
//! accepts is the op the body decodes to, and re-framing it gives back the
//! bytes it was read from whenever the body was laid out canonically.

use itc_core::disk::{Journal, JournalOp, RecordState};
use itc_core::protect::{AccessList, Rights};
use itc_core::proto::payload::payload_digest;
use itc_core::proto::Payload;
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

/// What reading `len` hostile bytes may allocate: the decoded op (an access
/// list's five-byte entry is a 32-byte slot, grown by doubling) plus, for
/// `load`, the journal's first record slots.
fn bound(len: usize) -> usize {
    16 * len + 256
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

const VOLUME: u32 = 7;
const SEQ: u64 = 42;

/// Frames `body` as one committed record, by hand and independently of the
/// journal's own writer: magic, volume, seq, body length, body, `C`, and a
/// valid FNV trailer over all of it — what a disk adversary writes.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut rec = vec![0xec];
    rec.extend_from_slice(&VOLUME.to_be_bytes());
    rec.extend_from_slice(&SEQ.to_be_bytes());
    rec.extend_from_slice(&(body.len() as u32).to_be_bytes());
    rec.extend_from_slice(body);
    rec.push(b'C');
    let sum = payload_digest(&rec);
    rec.extend_from_slice(&sum.to_be_bytes());
    rec
}

/// How a hostile body fared.
#[derive(Default)]
struct Tally {
    tried: usize,
    accepted: usize,
    /// Accepted bodies that are not the op's own encoding (a boolean byte
    /// other than 0 or 1, an access list out of order or with duplicates).
    non_canonical: usize,
}

/// Decodes `body` under the allocation bound, then loads it as a re-framed
/// record, and checks the two agree.
fn check(body: &[u8], tally: &mut Tally) {
    tally.tried += 1;
    let (op, total) = counted(|| JournalOp::decode(body));
    assert!(
        total <= bound(body.len()),
        "decode allocated {total} for {} bytes: {body:02x?}",
        body.len()
    );
    let image = frame(body);
    let (loaded, total) = counted(|| Journal::load(&image));
    assert!(
        total <= bound(image.len()),
        "load allocated {total} for {} bytes: {body:02x?}",
        image.len()
    );
    let Ok(op) = op else {
        assert!(loaded.records().is_empty(), "{body:02x?}");
        return;
    };
    tally.accepted += 1;
    let again = op.encode();
    assert_eq!(JournalOp::decode(&again).as_ref(), Ok(&op));
    let [rec] = loaded.records() else {
        panic!("one record expected: {body:02x?}");
    };
    assert_eq!(
        (rec.volume, rec.seq, &rec.op, rec.state, rec.start, rec.end),
        (
            VOLUME,
            SEQ,
            &op,
            RecordState::Committed,
            0,
            image.len() as u64
        )
    );
    let reframed = loaded.encode_durable();
    if again == body {
        assert_eq!(reframed, image, "{body:02x?}");
    } else {
        // A canonical body of the same op: its frame loads to that op too.
        tally.non_canonical += 1;
        assert_eq!(reframed, frame(&again));
        assert_eq!(Journal::load(&reframed).records()[0].op, op);
    }
}

/// Every way of damaging a valid body the sweep tries: truncate at every
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

/// One op of every kind.
fn ops() -> Vec<JournalOp> {
    let mut acl = AccessList::new();
    acl.grant("anyuser", Rights::READ_ONLY);
    acl.grant("satya", Rights::ALL);
    acl.deny("mallory", Rights::WRITE);
    let path = || "/usr/satya/f".to_string();
    vec![
        JournalOp::Store {
            path: path(),
            uid: 7,
            mtime: 10,
            data: Payload::from_vec(vec![0x5a; 24]),
        },
        JournalOp::Remove {
            path: path(),
            mtime: 11,
        },
        JournalOp::SetMode {
            path: path(),
            mode: 0o644,
            mtime: 12,
        },
        JournalOp::Mkdir {
            path: path(),
            uid: 7,
            mtime: 13,
        },
        JournalOp::Rmdir {
            path: path(),
            mtime: 14,
        },
        JournalOp::Rename {
            from: path(),
            to: "/usr/satya/g".into(),
            mtime: 15,
        },
        JournalOp::SetAcl { path: path(), acl },
        JournalOp::Symlink {
            path: path(),
            target: "../f".into(),
            uid: 7,
            mtime: 16,
        },
        JournalOp::SetQuota { bytes: Some(4096) },
    ]
}

#[test]
fn arbitrary_bodies_decode_exactly_or_fail_typed() {
    let mut rng = SimRng::seeded(0x6a6f_7572_6e61_6c41);
    let mut tally = Tally::default();
    for len in 0..=64 {
        for round in 0..32 {
            let mut body = random_bytes(&mut rng, len);
            // Half the bodies open with a real tag, so the sweep reaches
            // past the first byte.
            if round % 2 == 1 && len > 0 {
                body[0] = rng.range(1, 10) as u8;
            }
            check(&body, &mut tally);
        }
    }
    // Random bytes almost never form a body; short ones sometimes do.
    assert!(tally.accepted > 0, "no arbitrary body was ever an op");
}

#[test]
fn mutated_bodies_decode_exactly_or_fail_typed() {
    let mut rng = SimRng::seeded(0x6a6f_7572_6e61_6c42);
    let mut tally = Tally::default();
    for op in ops() {
        let body = op.encode();
        assert_eq!(JournalOp::decode(&body).as_ref(), Ok(&op));
        // The untouched body round-trips through a frame byte for byte.
        check(&body, &mut tally);
        for bad in mutations(&body, &mut rng) {
            check(&bad, &mut tally);
        }
    }
    // A substituted path byte is usually still a path: some mutations are
    // ops, most are not; and some accepted ones were laid out another way
    // than the journal lays them.
    let Tally {
        tried,
        accepted,
        non_canonical,
    } = tally;
    assert!(tried > 700, "{tried}");
    assert!(accepted > 0 && accepted < tried, "{accepted} of {tried}");
    assert!(
        non_canonical > 0 && non_canonical < accepted,
        "{non_canonical}"
    );
}

/// A record torn anywhere — the salvager's other adversary — loads as
/// nothing, and the records before it survive.
#[test]
fn a_torn_record_is_dropped_and_its_predecessors_kept() {
    for op in ops() {
        let first = frame(
            &JournalOp::Remove {
                path: "/a".into(),
                mtime: 1,
            }
            .encode(),
        );
        let second = frame(&op.encode());
        for cut in 0..second.len() {
            let mut image = first.clone();
            image.extend_from_slice(&second[..cut]);
            let loaded = Journal::load(&image);
            assert_eq!(loaded.records().len(), 1, "{op:?} cut at {cut}");
            assert_eq!(loaded.encode_durable(), first);
        }
    }
}
