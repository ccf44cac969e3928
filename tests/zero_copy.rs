//! Zero-copy guarantees, enforced by counting.
//!
//! Three meters watch the data path:
//!
//! * the payload copy counter (`proto::payload::bytes_copied`), which every
//!   `Payload::from_slice` / `Payload::to_vec` and every copy-on-write
//!   `Payload::make_mut` feeds — it measures bulk-data copies inside the
//!   fetch/store pipeline,
//! * the payload digest counter (`proto::payload::bytes_digested`), which
//!   `Payload::digest` feeds only when it has to read the bytes — a buffer
//!   is hashed once in its life, however many layers ask — and
//! * a counting global allocator, which catches copies the payload meter
//!   cannot see (a rogue `Vec` clone of file contents would show up here
//!   as megabytes of allocation), and counts the calling thread's
//!   allocations one by one for the paths that must make none.
//!
//! A warm open-hit must register zero payload copies and allocate far less
//! than one file's worth of bytes: the cached `Payload` is handed to the
//! open handle by refcount bump. A cold store or fetch must register none
//! either: the inode, the journal record, the wire and the cache entry are
//! one buffer.

use itc_afs::core::config::SystemConfig;
use itc_afs::core::location::LocationDb;
use itc_afs::core::protect::{AccessList, ProtectionDomain, Rights};
use itc_afs::core::proto::payload::{
    bytes_copied, bytes_digested, reset_bytes_copied, reset_bytes_digested,
};
use itc_afs::core::proto::{Payload, ServerId, ViceReply, ViceRequest, VolumeId};
use itc_afs::core::server::Server;
use itc_afs::core::system::ItcSystem;
use itc_afs::core::volume::Volume;
use itc_afs::rpc::NodeId;
use itc_afs::sim::{Costs, SimTime};
use itc_afs::unixfs::{FileSystem, Mode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The allocator meter is process-global, so tests that measure an
/// allocation window must not overlap.
static METER: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocation and reallocation calls made by this thread: the harness's
    /// other threads cannot disturb it.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

/// Heap allocations (and reallocations) `f` makes on this thread.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        count_call();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        count_call();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const FILE_SIZE: usize = 1 << 20; // 1 MiB: big enough that a single stray
                                  // clone of the contents dominates the
                                  // allocator delta.
const OPENS: u64 = 50;

#[test]
fn warm_open_hit_copies_no_payload_bytes() {
    let _window = METER.lock().unwrap();
    // Revised architecture: callback validation means a warm open with an
    // unbroken promise generates no server traffic at all — the whole
    // open is workstation-local.
    let mut sys = ItcSystem::build(SystemConfig::revised(1, 1));
    sys.add_user("satya", "pw").unwrap();
    sys.login(0, "satya", "pw").unwrap();
    sys.ops().mkdir_p(0, "/vice/usr/satya").unwrap();

    let body = vec![0x42u8; FILE_SIZE];
    sys.ops()
        .store(0, "/vice/usr/satya/big.dat", body.clone())
        .unwrap();

    // Warm the cache and check the contents once, outside the measurement
    // window.
    let h = sys.ops().open_read(0, "/vice/usr/satya/big.dat").unwrap();
    assert_eq!(sys.ops().read(0, h).unwrap(), body);
    sys.ops().close(0, h).unwrap();

    reset_bytes_copied();
    let allocated_before = ALLOCATED.load(Ordering::Relaxed);

    for _ in 0..OPENS {
        let h = sys.ops().open_read(0, "/vice/usr/satya/big.dat").unwrap();
        sys.ops().close(0, h).unwrap();
    }

    let allocated = ALLOCATED.load(Ordering::Relaxed) - allocated_before;
    assert_eq!(
        bytes_copied(),
        0,
        "warm open-hits must not copy payload bytes"
    );
    // 50 open-hits of a 1 MiB file: the old design cloned the cache entry
    // into the handle each time (≥ 50 MiB). The zero-copy path allocates
    // only handle bookkeeping — well under one file's worth total.
    assert!(
        allocated < FILE_SIZE as u64,
        "{OPENS} warm opens allocated {allocated} bytes — \
         more than one {FILE_SIZE}-byte file; something is cloning payloads"
    );

    // The handle still reads the right bytes after all that.
    let h = sys.ops().open_read(0, "/vice/usr/satya/big.dat").unwrap();
    assert_eq!(sys.ops().read(0, h).unwrap(), body);
    sys.ops().close(0, h).unwrap();
}

/// The cold paths copy nothing inside the pipeline: 40 workstations on 4
/// clusters each store one 64 KiB file, then every workstation cold-fetches
/// five files other workstations wrote. A store is the application's
/// buffer moved end to end (cache entry, wire, journal record and inode
/// share it); a fetch is one refcount chain from the inode to the Venus
/// cache, and the only copy is the `Vec<u8>` handed back to the
/// application. The allocator sees exactly those two buffers per file, and
/// each stored buffer is hashed exactly once: by the codec when the store is
/// encoded. Decode, the Merkle leaf and every later fetch's encode, decode
/// and leaf check read that digest back.
#[test]
fn macro_storm_copies_nothing_inside_the_pipeline() {
    const CLIENTS: usize = 40;
    const FILE_BYTES: usize = 64 * 1024;
    const FETCH_FANOUT: usize = 5;
    // Heads, sealed frames, paths and bookkeeping (≈ 4 KiB per call), plus
    // each workstation's first-call work in the store round (custodian
    // lookup, parent-directory status; ≈ 13 KiB): measured 20.4 KiB per
    // pair, and half a file is still far below one more copy of it.
    const PAIR_SLACK: usize = FILE_BYTES / 2;

    let _window = METER.lock().unwrap();
    let mut sys = ItcSystem::build(SystemConfig::revised(4, 10));
    for ws in 0..CLIENTS {
        let user = format!("user{ws:02}");
        sys.add_user(&user, "pw").unwrap();
        sys.login(ws, &user, "pw").unwrap();
    }
    sys.ops().mkdir_p(0, "/vice/usr/storm").unwrap();
    let body = vec![0x5au8; FILE_BYTES];

    reset_bytes_copied();
    reset_bytes_digested();
    let before = ALLOCATED.load(Ordering::Relaxed);
    for ws in 0..CLIENTS {
        sys.ops()
            .store(ws, &format!("/vice/usr/storm/f{ws:02}"), body.clone())
            .unwrap();
    }
    let per_store = (ALLOCATED.load(Ordering::Relaxed) - before) / CLIENTS as u64;
    assert_eq!(bytes_copied(), 0, "a store must copy nothing");
    // One pass over each stored file (2 621 440 bytes) and nothing hashed
    // twice. The only other buffers on the wire are the directory listings
    // each workstation's first store walks through, every one built fresh
    // by the server: /vice/usr (`dstorm\n`) and /vice/usr/storm (`fNN\n`
    // with a kind byte, for each file stored before this one).
    const LISTING_BYTES: usize = CLIENTS * 7 + 5 * (CLIENTS * (CLIENTS - 1) / 2);
    assert_eq!(
        reset_bytes_digested(),
        (CLIENTS * FILE_BYTES + LISTING_BYTES) as u64,
        "a store must hash its buffer exactly once"
    );

    reset_bytes_copied();
    let before = ALLOCATED.load(Ordering::Relaxed);
    for ws in 0..CLIENTS {
        for k in 1..=FETCH_FANOUT {
            let other = (ws + k) % CLIENTS;
            let data = sys.ops().fetch(ws, &format!("/vice/usr/storm/f{other:02}"));
            assert_eq!(data.unwrap().len(), FILE_BYTES);
        }
    }
    let per_fetch = (ALLOCATED.load(Ordering::Relaxed) - before) / (CLIENTS * FETCH_FANOUT) as u64;
    assert_eq!(bytes_copied(), 0, "a cold fetch must copy nothing");
    assert_eq!(bytes_digested(), 0, "a cold fetch must hash nothing");

    // The application's buffer in, the application's copy out.
    assert!(
        per_store + per_fetch <= (2 * FILE_BYTES + PAIR_SLACK) as u64,
        "a (store, cold fetch) pair allocated {per_store} + {per_fetch} bytes \
         for a {FILE_BYTES}-byte file; something is cloning payloads"
    );
}

/// Per-call statistics are on the hot path of every simulated RPC: once a
/// label has been seen, bumping it again must not allocate (the label is
/// interned on first sighting; lookups afterwards borrow it).
#[test]
fn counter_bumps_are_allocation_free_after_warmup() {
    let _window = METER.lock().unwrap();
    let mut calls = itc_afs::sim::Counter::new();
    // Warm-up: first sighting of each label may allocate its key.
    for kind in ["fetch", "store", "validate", "getstatus"] {
        calls.bump(kind);
    }

    // A handful of measurement windows, each counting this thread's
    // allocations only (the sibling path-walk tests allocate beside it
    // without the METER lock), so a genuine per-bump allocation taints
    // every window and nothing else can.
    let mut clean_window = false;
    for _ in 0..5 {
        let (allocated, ()) = allocations_in(|| {
            for _ in 0..10_000 {
                for kind in ["fetch", "store", "validate", "getstatus"] {
                    calls.bump(kind);
                }
            }
        });
        if allocated == 0 {
            clean_window = true;
            break;
        }
    }
    assert!(
        clean_window,
        "every window of 40k warm-label bumps allocated — \
         the per-call accounting path must be allocation-free"
    );
    // One warm-up bump plus 10k per measurement window actually ran.
    assert_eq!((calls.get("fetch") - 1) % 10_000, 0);
    assert!(calls.get("fetch") > 10_000);
    assert_eq!(calls.total(), 4 * calls.get("fetch"));
}

/// A path operation walks the path it was handed: resolving an
/// already-normal path, and the accessors that are a walk plus a copy of
/// plain fields or a refcount bump, allocate nothing (the work-list
/// resolver made 16 allocations per walk).
#[test]
fn walking_a_normal_path_allocates_nothing() {
    let mut fs = FileSystem::new();
    fs.mkdir_p("/storm0/p3", Mode::DIR_DEFAULT, 0, 0).unwrap();
    fs.create("/storm0/p3/own", Mode::FILE_DEFAULT, 0, 0, vec![0x33; 1024])
        .unwrap();
    let path = "/storm0/p3/own";
    assert_eq!(allocations_in(|| fs.resolve(path, true).unwrap()).0, 0);
    assert_eq!(allocations_in(|| fs.stat(path).unwrap()).0, 0);
    assert_eq!(allocations_in(|| fs.exists(path)).0, 0);
    assert_eq!(allocations_in(|| fs.read(path).unwrap()).0, 0);
    // Replacing an existing file's contents: the walk, and a buffer swap.
    let next = Payload::from(vec![0x44; 1024]);
    assert_eq!(allocations_in(|| fs.write(path, 0, 1, next).unwrap()).0, 0);
    // A path that is not normal pays for its normal form, once.
    assert_eq!(allocations_in(|| fs.exists("/storm0//p3/./own")).0, 1);
    // A probe that finds nothing names nothing: no error string is built.
    assert_eq!(allocations_in(|| fs.exists("/storm0/p3/missing")).0, 0);
    assert_eq!(allocations_in(|| fs.exists("/storm0/gone/own")).0, 0);
}

/// One warm Vice call on a `small_storm`-shaped server — one volume
/// mounted at `/vice/storm0` under an `anyuser` list, 40 users in the
/// domain, callbacks, client-side traversal, a 1 KiB file — measured 105 /
/// 65 / 59 allocations for Store / Fetch / GetStatus when every path
/// accessor rebuilt its path (16 per walk, `acl_for` walking twice), 26 /
/// 10 / 9 while the protection check built the caller's CPS, the internal
/// path was a fresh `String` and the journal record a clone, and 2 / 1 / 1
/// now: a store's journal record names its path, and every status reply
/// its Vice path. The ceilings leave room for a hash map to grow, not for
/// a check or a walk to start allocating again.
#[test]
fn a_warm_vice_call_stays_within_its_allocation_budget() {
    let mut domain = ProtectionDomain::new();
    for u in 0..40 {
        domain.add_user(&format!("user{u:02}"), "pw").unwrap();
    }
    // The revised column: callback validation, client-side traversal.
    let mut srv = Server::new(ServerId(0), NodeId(0), &SystemConfig::revised(1, 1));
    let mut acl = AccessList::new();
    acl.grant("anyuser", Rights::ALL);
    let mut vol = Volume::new(VolumeId(1), "storm.c0", "/vice/storm0", acl);
    vol.mkdir_inherit("/p3", 1, 0).unwrap();
    vol.store("/p3/own", 1, 0, vec![0x33; 1024]).unwrap();
    srv.add_volume(vol);
    let mut location = LocationDb::new();
    location.assign("/vice/storm0", ServerId(0));
    let caller = ("user03", &domain, &location);

    let costs = Costs::prototype_1985();
    let path = || "/vice/storm0/p3/own".to_string();
    let store = ViceRequest::Store {
        path: path(),
        data: vec![0x44; 1024].into(),
    };
    let fetch = ViceRequest::Fetch { path: path() };
    let status = ViceRequest::GetStatus { path: path() };
    for (req, ceiling) in [(&store, 10), (&fetch, 3), (&status, 3)] {
        let mut call = |at| {
            let now = SimTime::from_secs(at);
            let (allocs, (reply, _)) =
                allocations_in(|| srv.handle(caller, NodeId(13), req, now, &costs));
            assert!(!matches!(reply, ViceReply::Error(_)), "{reply:?}");
            allocs
        };
        call(1); // Warm: the first call registers the callback promise.
        let warm = call(2);
        assert!(
            warm <= ceiling,
            "a warm {} made {warm} allocations (ceiling {ceiling})",
            req.kind()
        );
    }
}

/// A whole workstation call through `sys.ops()` on the `small_storm` system
/// (four clusters of ten, one `storm.cN` volume per cluster under an
/// `anyuser` list, a shared 1 KiB file per workstation), counted on the
/// calling thread from the application's buffer to the returned result:
/// workstation 0 overwrites its shared file while workstation 1 holds a
/// promise on it, then workstation 1 fetches it again. The break covered
/// the volume root's listing too, so that fetch is two `Fetch` calls. They
/// measured 57 and 86 allocations while the codec grew its buffers, the
/// server built the caller's CPS, Venus rebuilt its paths and a listing was
/// copied out of the file system before it was encoded; 21 and 24 now.
/// Each ceiling is its count plus two.
#[test]
fn a_warm_store_and_a_fetch_after_a_break_stay_within_their_budget() {
    let mut sys = ItcSystem::build(SystemConfig::revised(4, 10));
    let mut acl = AccessList::new();
    acl.grant("anyuser", Rights::ALL.minus(Rights::ADMINISTER));
    sys.create_volume("storm.c0", "/vice/storm0", ServerId(0), acl)
        .unwrap();
    for ws in 0..10 {
        sys.admin_install_file(&format!("/vice/storm0/shared{ws}"), vec![0x33; 1024])
            .unwrap();
        sys.admin_mkdir_p(&format!("/vice/storm0/p{ws}")).unwrap();
    }
    for ws in 0..40 {
        let user = format!("s{ws:03}");
        sys.add_user(&user, "pw").unwrap();
        sys.login(ws, &user, "pw").unwrap();
    }
    let shared = "/vice/storm0/shared0";
    // Warm both workstations: bindings, custodian hints, the directories
    // on the way, and workstation 1's promise on the shared file.
    sys.ops().store(0, shared, vec![0x44; 1024]).unwrap();
    sys.ops().fetch(1, shared).unwrap();

    let data = vec![0x55; 1024];
    let (store, stored) = allocations_in(|| sys.ops().store(0, shared, data));
    stored.unwrap();
    let (fetch, fetched) = allocations_in(|| sys.ops().fetch(1, shared));
    assert_eq!(fetched.unwrap(), vec![0x55; 1024]);
    assert!(
        store <= 21 + 2,
        "a warm overwrite store made {store} allocations"
    );
    assert!(
        fetch <= 24 + 2,
        "a fetch after a break made {fetch} allocations"
    );
}
