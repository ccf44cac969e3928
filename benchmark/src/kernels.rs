//! Layer kernels: each layer's public functions, replayed in isolation at
//! the shape the workload gave them (payload size, directory fan-out,
//! calendar depth, cancel ratio, cache working set). A kernel yields
//! nanoseconds per call; multiplied by the run's own count of such calls
//! and divided by the run's wall time it becomes the layer's share.
//!
//! Isolation flatters a layer (its data is warm in the host cache), so a
//! share is a floor on what the layer costs in the run, and what the
//! shares leave over is reported as `unattributed_share`, not hidden.

use crate::alloc;
use itc_core::config::CachePolicy;
use itc_core::disk::{Disk, JournalOp, SyncPolicy, VolumeMerkle};
use itc_core::protect::{AccessList, Rights};
use itc_core::proto::payload::payload_digest;
use itc_core::proto::{
    decode_reply, decode_request, encode_reply, encode_request, EntryKind, Payload, VStatus,
    ViceReply, ViceRequest, VolumeId,
};
use itc_core::venus::cache::{Cache, EntryKind as CacheKind};
use itc_core::volume::Volume;
use itc_cryptbox::derive_key;
use itc_rpc::{establish, frame_call, NodeId};
use itc_sim::{Scheduler, SimTime};
use itc_unixfs::{FileSystem, Mode};
use std::hint::black_box;
use std::time::Instant;

/// The shape of one workload's traffic, read off the finished system.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Bytes in a typical file payload.
    pub payload_bytes: usize,
    /// Files beside each other in one directory.
    pub dir_fanout: usize,
    /// Live calendar events per cluster at the high-water mark.
    pub calendar_depth: usize,
    /// Cancelled ÷ scheduled events.
    pub cancel_ratio: f64,
    /// Entries resident in one workstation's cache.
    pub cache_entries: usize,
    /// Merkle leaves in one volume.
    pub merkle_leaves: usize,
}

/// Nanoseconds per call for every kernel, at one shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTimes {
    pub seal_open_ns: f64,
    pub seal_open_alloc_bytes: f64,
    pub handshake_ns: f64,
    pub codec_ns: f64,
    pub codec_head_ns: f64,
    pub codec_alloc_bytes: f64,
    pub digest_ns: f64,
    pub digest_mb_per_s: f64,
    pub event_ns: f64,
    pub fs_write_ns: f64,
    pub fs_read_ns: f64,
    pub fs_resolve_ns: f64,
    pub volume_store_ns: f64,
    pub journal_append_ns: f64,
    pub salvage_ns_per_record: f64,
    pub merkle_set_ns: f64,
    pub scrub_mb_per_s: f64,
    pub cache_get_ns: f64,
    pub cache_insert_ns: f64,
}

/// Median nanoseconds per call over three batches of `iters` calls. The
/// median batch drops a batch that caught a preemption.
fn time_per_call(iters: usize, mut call: impl FnMut(usize)) -> f64 {
    let mut batches = [0.0f64; 3];
    for batch in &mut batches {
        let t0 = Instant::now();
        for i in 0..iters {
            call(i);
        }
        *batch = t0.elapsed().as_nanos() as f64 / iters as f64;
    }
    batches.sort_by(f64::total_cmp);
    batches[1]
}

/// Iterations that keep a kernel moving `bytes` per call near a fixed
/// amount of memory traffic, within sane limits.
fn iters_for(bytes: usize) -> usize {
    ((32usize << 20) / bytes.max(1)).clamp(64, 4096)
}

fn status(path: &str, size: u64) -> VStatus {
    VStatus {
        path: path.to_string(),
        fid: 7,
        kind: EntryKind::File,
        size,
        version: 3,
        mtime: 1_000_000,
        mode: 0o644,
        owner: 1,
        read_only: false,
    }
}

const PATH: &str = "/vice/usr/user042/src/f017.c";

/// Runs every kernel at `shape`, with every iteration count divided by
/// `thrift` (1 for a measurement; the smoke run only needs the numbers to
/// exist).
pub fn run(shape: &Shape, thrift: usize) -> KernelTimes {
    let mut t = KernelTimes::default();
    let body = vec![0x5au8; shape.payload_bytes];
    let payload = Payload::from_vec(body.clone());
    let payload_iters = (iters_for(shape.payload_bytes) / thrift).max(8);

    // cryptbox: one message is sealed once and opened once. What rides
    // the channel is the framed head; payloads travel beside it.
    let store = ViceRequest::Store {
        path: PATH.to_string(),
        data: payload.clone(),
    };
    let framed = frame_call(17, 0, &encode_request(&store).head);
    let key = derive_key("pw", "user042");
    let (mut client, mut server) = itc_cryptbox::channel::pair(key);
    let iters = 4096 / thrift;
    alloc::start_counting();
    let before = alloc::snapshot();
    t.seal_open_ns = time_per_call(iters, |_| {
        let sealed = client.seal_msg(black_box(&framed));
        black_box(server.open_msg(&sealed).expect("opens in order"));
    });
    t.seal_open_alloc_bytes = alloc::snapshot().since(&before).bytes as f64 / (3 * iters) as f64;
    alloc::stop_counting();

    t.handshake_ns = time_per_call(256 / thrift, |i| {
        let nonces = (i as u64, !(i as u64));
        black_box(
            establish("user042", NodeId(9), NodeId(1), key, key, nonces).expect("keys agree"),
        );
    });

    // proto: what one call costs the codec — request and reply, encoded
    // and decoded. A store or fetch carries the payload one way, and the
    // codec digests it once at encode and once at decode to bind it to the
    // sealed head; every other call is head-only.
    alloc::start_counting();
    let before = alloc::snapshot();
    t.codec_ns = time_per_call(payload_iters, |_| {
        let msg = encode_request(black_box(&store));
        black_box(decode_request(&msg.head, msg.payload).expect("round trip"));
        let msg = encode_reply(black_box(&ViceReply::Ok));
        black_box(decode_reply(&msg.head, msg.payload).expect("round trip"));
    });
    t.codec_alloc_bytes =
        alloc::snapshot().since(&before).bytes as f64 / (3 * payload_iters) as f64;
    alloc::stop_counting();
    let get_status = ViceRequest::GetStatus {
        path: PATH.to_string(),
    };
    let status_reply = ViceReply::Status(status(PATH, shape.payload_bytes as u64));
    t.codec_head_ns = time_per_call(iters, |_| {
        let msg = encode_request(black_box(&get_status));
        black_box(decode_request(&msg.head, msg.payload).expect("round trip"));
        let msg = encode_reply(black_box(&status_reply));
        black_box(decode_reply(&msg.head, msg.payload).expect("round trip"));
    });
    t.digest_ns = time_per_call(payload_iters, |_| {
        black_box(payload_digest(black_box(&body)));
    });
    t.digest_mb_per_s = shape.payload_bytes as f64 / t.digest_ns * 1e3;

    // sim.sched: one event is scheduled and either popped or cancelled,
    // on a calendar held at the run's depth.
    let mut sched: Scheduler<u64> = Scheduler::seeded(3);
    let mut now = 0u64;
    for i in 0..shape.calendar_depth as u64 {
        sched.schedule(SimTime::from_micros(i * 37 % 5_000), i);
    }
    let cancel_every = if shape.cancel_ratio > 0.0 {
        (1.0 / shape.cancel_ratio).round().max(1.0) as usize
    } else {
        usize::MAX
    };
    t.event_ns = time_per_call((1 << 16) / thrift, |i| {
        now += 11;
        let id = sched.schedule(SimTime::from_micros(now + (i as u64 * 7919) % 5_000), now);
        if i % cancel_every == cancel_every - 1 {
            black_box(sched.cancel(id));
        } else {
            black_box(sched.pop());
        }
    });

    // unixfs: whole-file write, whole-file read and a path resolution in
    // a directory as wide as the workload's.
    let mut fs = FileSystem::new();
    fs.mkdir_p("/usr/user042/src", Mode::DIR_DEFAULT, 1, 0)
        .expect("mkdir");
    let names: Vec<String> = (0..shape.dir_fanout.max(1))
        .map(|i| format!("/usr/user042/src/f{i:04}.c"))
        .collect();
    for name in &names {
        fs.write(name, 1, 0, body.clone()).expect("write");
    }
    t.fs_write_ns = time_per_call(payload_iters, |i| {
        // The buffer is made outside the call being priced, but inside
        // the batch: a store hands the file system a buffer it owns.
        let data = body.clone();
        black_box(
            fs.write(&names[i % names.len()], 1, i as u64, data)
                .expect("write"),
        );
    }) - time_per_call(payload_iters, |_| {
        black_box(body.clone());
    });
    t.fs_write_ns = t.fs_write_ns.max(0.0);
    t.fs_read_ns = time_per_call(payload_iters, |i| {
        black_box(fs.read(&names[i % names.len()]).expect("read"));
    });
    t.fs_resolve_ns = time_per_call(iters, |i| {
        black_box(fs.resolve(&names[i % names.len()], true).expect("resolve"));
    });

    // volume: the boundary a store crosses — one copy out of the shared
    // payload, then `Volume::store` (stat, quota, digest, write, leaf).
    let mut acl = AccessList::new();
    acl.grant("anyuser", Rights::ALL);
    let mut vol = Volume::new(
        VolumeId(1),
        "bench.kernel",
        "/vice/usr/user042",
        acl.clone(),
    );
    vol.mkdir_inherit("/src", 1, 0).expect("mkdir");
    let internal: Vec<String> = (0..shape.dir_fanout.max(1))
        .map(|i| format!("/src/f{i:04}.c"))
        .collect();
    for name in &internal {
        vol.store(name, 1, 0, body.clone()).expect("store");
    }
    t.volume_store_ns = time_per_call(payload_iters, |i| {
        let data = black_box(&payload).to_vec();
        black_box(
            vol.store(&internal[i % internal.len()], 1, i as u64, data)
                .expect("store"),
        );
    });

    // disk.journal: begin + commit + sync of one store record; then a
    // crash and the salvage that replays the records.
    let mut disk = Disk::new(SyncPolicy::WriteAhead);
    disk.checkpoint(&vol);
    let record = |i: usize| JournalOp::Store {
        path: internal[i % internal.len()].clone(),
        uid: 1,
        mtime: i as u64,
        data: payload.clone(),
    };
    let journal_iters = payload_iters.min(1024);
    t.journal_append_ns = time_per_call(journal_iters, |i| {
        let seq = disk.begin(VolumeId(1), record(i));
        disk.commit(seq, true);
        disk.sync();
    });
    disk.crash_truncate(0);
    let (records, _) = disk.salvage_work(VolumeId(1));
    let t0 = Instant::now();
    let (_, report) = disk.salvage(VolumeId(1)).expect("checkpointed");
    t.salvage_ns_per_record = t0.elapsed().as_nanos() as f64 / records.max(1) as f64;
    assert!(report.is_clean(), "kernel salvage: {report:?}");

    // disk.integrity: a leaf update in a tree as large as a volume's, and
    // a scrub pass over a checkpoint image.
    let mut merkle = VolumeMerkle::new();
    let leaves: Vec<String> = (0..shape.merkle_leaves.max(1))
        .map(|i| format!("/src/f{i:05}.c"))
        .collect();
    for (i, leaf) in leaves.iter().enumerate() {
        merkle.set(leaf, i as u64);
    }
    t.merkle_set_ns = time_per_call(iters, |i| {
        merkle.set(black_box(&leaves[i % leaves.len()]), i as u64);
    });
    let scan_bytes = disk.scrub_volume(VolumeId(1)).expect("checkpointed").bytes;
    let scrub_ns = time_per_call(8, |_| {
        black_box(disk.scrub_volume(VolumeId(1)).expect("checkpointed"));
    });
    t.scrub_mb_per_s = scan_bytes as f64 / scrub_ns * 1e3;

    // venus.cache: a hit's lookup and a miss's insert, in a cache holding
    // the workstation's working set.
    let entries = shape.cache_entries.max(1);
    let mut cache = Cache::new(CachePolicy::CountLru(entries));
    let cached: Vec<String> = (0..2 * entries)
        .map(|i| format!("/vice/usr/u/f{i}"))
        .collect();
    for path in &cached[..entries] {
        cache.insert(path, payload.clone(), status(path, 0), CacheKind::File);
    }
    t.cache_get_ns = time_per_call(iters, |i| {
        black_box(cache.get(&cached[i * 7 % entries]).is_some());
    });
    t.cache_insert_ns = time_per_call(iters, |i| {
        let path = &cached[i % cached.len()];
        black_box(cache.insert(path, payload.clone(), status(path, 0), CacheKind::File));
    });
    t
}
