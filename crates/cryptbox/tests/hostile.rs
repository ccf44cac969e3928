//! Hostile bytes at every entrance of the crate that takes them off the
//! wire: `mode::open`, both forms of `SecureChannel::open_msg`, and the two
//! handshake steps that parse a peer's message. Whatever arrives, each
//! returns a typed error (or, for an untouched message, exactly what was
//! sealed), never panics — this is a debug build, overflow checks on — and
//! never allocates more than the input's own length plus one block. A
//! rejected message leaves the channel's receive window where it was.

use itc_cryptbox::channel::{pair, SecureChannel};
use itc_cryptbox::handshake::{ClientHandshake, ServerHandshake};
use itc_cryptbox::{mode, Key};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts what the calling thread allocates (the harness runs sibling tests
/// on other threads), in total and as the largest single request.
struct Counting;

thread_local! {
    static TOTAL: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = TOTAL.try_with(|t| t.set(t.get() + size));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are plain thread-local `Cell`s
// with no destructor and never allocate.
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

/// Runs `f` and returns its result with the bytes it allocated in total and
/// in its largest single request.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    TOTAL.with(|t| t.set(0));
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, TOTAL.with(Cell::get), LARGEST.with(Cell::get))
}

const KEY: Key = Key([0x1985, 0x0c3d, 0x17c0, 0xaf50]);

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn rand_bytes(state: &mut u64, len: usize) -> Vec<u8> {
    (0..len).map(|_| splitmix64(state) as u8).collect()
}

/// Every way the issue names of damaging a valid message: truncate, extend
/// by 1..=16 bytes, substitute one byte, swap two blocks, splice another
/// message's tag. A mutation that happens to rebuild `valid` is dropped.
fn mutations(valid: &[u8], other: &[u8], st: &mut u64) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = (0..valid.len()).map(|n| valid[..n].to_vec()).collect();
    for extra in 1..=16 {
        let mut m = valid.to_vec();
        m.extend(rand_bytes(st, extra));
        out.push(m);
    }
    for pos in 0..valid.len() {
        let mut m = valid.to_vec();
        m[pos] = m[pos].wrapping_add(1 + (splitmix64(st) % 255) as u8);
        out.push(m);
    }
    let blocks = valid.len() / 8;
    for i in 0..blocks {
        for j in i + 1..blocks {
            let mut m = valid.to_vec();
            for k in 0..8 {
                m.swap(8 * i + k, 8 * j + k);
            }
            out.push(m);
        }
    }
    let mut m = valid.to_vec();
    let at = m.len() - 8;
    m[at..].copy_from_slice(&other[other.len() - 8..]);
    out.push(m);
    out.retain(|m| m != valid);
    out
}

/// The four openers that share the sealed format, each under its
/// allocation bound; returns whether all of them rejected `bytes`.
fn all_reject(bytes: &[u8], chan: &mut SecureChannel) -> bool {
    let bound = bytes.len() + 16;
    let (a, total, _) = counted(|| mode::open(KEY, bytes).is_err());
    assert!(total <= bound, "mode::open allocated {total} for {bound}");
    let (b, total, _) = counted(|| chan.open_msg(bytes).is_err());
    assert!(total <= bound, "open_msg allocated {total} for {bound}");
    let owned = bytes.to_vec();
    let (c, total, _) = counted(|| chan.open_owned(owned).is_err());
    assert_eq!(total, 0, "open_owned allocates nothing");
    let (d, _, largest) = counted(|| ServerHandshake::respond(KEY, bytes, 2).is_err());
    assert!(largest <= bound, "respond allocated {largest} for {bound}");
    let (client, _) = ClientHandshake::initiate(KEY, 1);
    let (e, _, largest) = counted(|| client.complete(bytes).is_err());
    assert!(largest <= bound, "complete allocated {largest} for {bound}");
    a && b && c && d && e
}

#[test]
fn arbitrary_bytes_are_rejected_without_panic_or_excess_allocation() {
    let mut st = 0x686f_7374_696c_6531u64;
    let (_, mut server) = pair(KEY);
    for len in 0..=128 {
        for _ in 0..8 {
            let bytes = rand_bytes(&mut st, len);
            assert!(all_reject(&bytes, &mut server), "len {len} accepted");
        }
    }
}

#[test]
fn mutated_sealed_messages_are_rejected_and_the_original_still_opens() {
    let mut st = 0x686f_7374_696c_6532u64;
    for len in [0, 1, 7, 8, 9, 23, 40] {
        let msg = rand_bytes(&mut st, len);
        let sealed = mode::seal(KEY, splitmix64(&mut st), &msg);
        let other = mode::seal(KEY, splitmix64(&mut st), &rand_bytes(&mut st, len));
        let (_, mut server) = pair(KEY);
        for bad in mutations(&sealed, &other, &mut st) {
            assert!(all_reject(&bad, &mut server), "len {len}: {bad:02x?}");
        }
        assert_eq!(mode::open(KEY, &sealed).unwrap(), msg);
    }
}

#[test]
fn mutated_channel_messages_do_not_move_the_window() {
    let mut st = 0x686f_7374_696c_6533u64;
    for len in [0, 1, 6, 7, 8, 31, 64] {
        let (mut client, mut server) = pair(KEY);
        let (first, second) = (rand_bytes(&mut st, len), rand_bytes(&mut st, len));
        let honest = client.seal_msg(&first);
        let target = client.seal_msg(&second);
        for bad in mutations(&target, &honest, &mut st) {
            assert!(server.open_msg(&bad).is_err(), "len {len}: {bad:02x?}");
            assert!(server.open_owned(bad).is_err(), "len {len}");
        }
        // `honest` carries the older sequence number: had any rejected
        // message advanced the window, it would now be stale.
        let (opened, total, _) = counted(|| server.open_msg(&honest));
        assert_eq!(opened.unwrap(), first);
        assert!(total <= honest.len());
        let (opened, total, _) = counted(|| server.open_owned(target));
        assert_eq!(opened.unwrap(), second);
        assert_eq!(total, 0);
        assert!(server.open_owned(honest).is_err(), "now it is a replay");
    }
}

#[test]
fn mutated_handshake_messages_are_rejected_and_the_originals_complete() {
    let mut st = 0x686f_7374_696c_6534u64;
    let (nc, ns) = (splitmix64(&mut st), splitmix64(&mut st));
    let (client, m1) = ClientHandshake::initiate(KEY, nc);
    let (_, other1) = ClientHandshake::initiate(KEY, nc ^ 1);
    for bad in mutations(&m1, &other1, &mut st) {
        assert!(ServerHandshake::respond(KEY, &bad, ns).is_err());
    }
    let (server, m2) = ServerHandshake::respond(KEY, &m1, ns).unwrap();
    let (_, other2) = ServerHandshake::respond(KEY, &other1, ns).unwrap();
    for bad in mutations(&m2, &other2, &mut st) {
        let (again, _) = ClientHandshake::initiate(KEY, nc);
        assert!(again.complete(&bad).is_err());
    }
    let (client_key, m3) = client.complete(&m2).unwrap();
    let (_, other3) = ClientHandshake::initiate(KEY, ns);
    for bad in mutations(&m3, &other3, &mut st) {
        let (again, _) = ServerHandshake::respond(KEY, &m1, ns).unwrap();
        assert!(again.finish(&bad).is_err());
    }
    assert_eq!(server.finish(&m3).unwrap(), client_key);
}
