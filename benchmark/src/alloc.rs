//! The harness's counting allocator.
//!
//! Counting is gated by one static flag and is off in every timed
//! repetition, where an allocation costs one relaxed load more than the
//! system allocator's. The counted repetition switches it on and reads
//! totals that repeat exactly from run to run: the simulator is
//! deterministic, so its allocation sequence is too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Allocations at or above glibc's default mmap threshold.
pub const LARGE_BYTES: usize = 128 * 1024;

pub struct CountingAlloc;

// Every counter is a statistic that publishes no other data, hence
// `Relaxed` throughout.
static ON: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static LARGE_CALLS: AtomicU64 = AtomicU64::new(0);
static REALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes live since counting was switched on. Signed: memory allocated
/// before the switch may be freed after it.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    CALLS.fetch_add(1, Ordering::Relaxed);
    if bytes >= LARGE_BYTES {
        LARGE_CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

fn live_moved(delta: i64) {
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counters beside
// the calls touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            grew(layout.size());
            live_moved(layout.size() as i64);
        }
        // SAFETY: the caller's layout, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            grew(layout.size());
            live_moved(layout.size() as i64);
        }
        // SAFETY: the caller's layout, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            live_moved(-(layout.size() as i64));
        }
        // SAFETY: `ptr` came from this allocator with this layout, which
        // always is the system allocator underneath.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            grew(new_size);
            REALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            live_moved(new_size as i64 - layout.size() as i64);
        }
        // SAFETY: the caller's pointer, layout and size, passed through
        // unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Totals since counting was last switched on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Heap bytes requested (allocations plus the new size of reallocs).
    pub bytes: u64,
    /// Allocation plus realloc calls.
    pub calls: u64,
    /// Of `calls`, those asking for at least [`LARGE_BYTES`].
    pub large_calls: u64,
    /// Bytes requested through realloc alone.
    pub realloc_bytes: u64,
    /// Highest number of bytes live at once.
    pub peak_live: u64,
}

impl Counts {
    /// What happened between an earlier snapshot and this one. The peak is
    /// not a difference: it stays the later snapshot's.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            bytes: self.bytes - earlier.bytes,
            calls: self.calls - earlier.calls,
            large_calls: self.large_calls - earlier.large_calls,
            realloc_bytes: self.realloc_bytes - earlier.realloc_bytes,
            peak_live: self.peak_live,
        }
    }
}

/// Zeroes the counters and switches counting on.
pub fn start_counting() {
    for counter in [&BYTES, &CALLS, &LARGE_CALLS, &REALLOC_BYTES] {
        counter.store(0, Ordering::Relaxed);
    }
    LIVE.store(0, Ordering::Relaxed);
    PEAK_LIVE.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
}

pub fn stop_counting() {
    ON.store(false, Ordering::Relaxed);
}

pub fn snapshot() -> Counts {
    Counts {
        bytes: BYTES.load(Ordering::Relaxed),
        calls: CALLS.load(Ordering::Relaxed),
        large_calls: LARGE_CALLS.load(Ordering::Relaxed),
        realloc_bytes: REALLOC_BYTES.load(Ordering::Relaxed),
        peak_live: PEAK_LIVE.load(Ordering::Relaxed).max(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The only test that touches the flag: tests share the process-wide
    /// allocator, so two of them would count each other's allocations.
    #[test]
    fn counts_only_while_switched_on() {
        let before = snapshot();
        let timed = vec![1u8; 3 * LARGE_BYTES];
        std::hint::black_box(&timed);
        assert_eq!(snapshot(), before, "a timed repetition counts nothing");

        start_counting();
        let mut counted = vec![2u8; 2 * LARGE_BYTES];
        std::hint::black_box(&counted);
        let mid = snapshot();
        counted.reserve_exact(4 * LARGE_BYTES);
        std::hint::black_box(&counted);
        drop(timed);
        drop(counted);
        stop_counting();
        let after = snapshot();
        let uncounted = vec![3u8; LARGE_BYTES];
        std::hint::black_box(&uncounted);
        assert_eq!(snapshot(), after, "nothing moves once switched off");

        // Other test threads may allocate while the flag is on, so the
        // totals are lower bounds.
        assert!(mid.bytes >= 2 * LARGE_BYTES as u64);
        assert!(mid.calls >= 1 && mid.large_calls >= 1);
        assert!(after.realloc_bytes >= 6 * LARGE_BYTES as u64);
        assert!(after.peak_live >= 6 * LARGE_BYTES as u64);
        let run = after.since(&mid);
        assert!(run.bytes >= 6 * LARGE_BYTES as u64 && run.calls >= 1);
        assert_eq!(run.peak_live, after.peak_live);
    }
}
