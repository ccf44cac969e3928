//! Deterministic discrete-event scheduler.
//!
//! The original engine advanced each workstation sequentially and modelled
//! contention only through FIFO timestamps inside [`crate::Resource`]. This
//! module supplies the missing piece of a genuine discrete-event core: a
//! priority queue of events keyed by `(SimTime, class, tie, seq)` that the
//! owning system drains in virtual-time order. Request legs, server service,
//! reply legs, retry timeouts, and scheduled server crashes all become
//! entries in one calendar, so their interleavings are explicit rather than
//! implied by call order.
//!
//! Ordering is fully deterministic:
//!
//! * events at distinct times fire in time order;
//! * at the same instant, a lower [`EventClass`] fires first (lifecycle
//!   transitions precede message traffic, and crashes precede restarts, so
//!   "crash and restart both due now" leaves the server up with a bumped
//!   epoch);
//! * remaining ties are broken by a value drawn from a seeded [`SimRng`] at
//!   schedule time — two same-instant, same-class events from different
//!   sources fire in a seed-dependent but reproducible order;
//! * the insertion sequence number is the final, total tie-break.
//!
//! Since the parallel-simulation refactor the calendar is an *indexed*
//! heap: the binary heap holds only ordering keys, payloads live in a slab
//! keyed by [`EventId`]. Cancelling an event ([`Scheduler::cancel`] /
//! [`Scheduler::take`]) is an O(1) removal from the slab; the orphaned heap
//! key is lazily skipped when it reaches the front. This replaces the old
//! `drain_where`, which rebuilt the whole heap (O(n) churn per cancelled
//! timeout) — the drop shows up in [`EventStats::cancelled`] replacing the
//! rebuild counter.
//!
//! The queue deliberately does **not** enforce that events are scheduled in
//! the future: retry bookkeeping (a timeout that started counting when the
//! request departed) may be scheduled at an instant that is already past the
//! head of the queue. Monotonicity of observable state is the business of
//! [`crate::Clock`] and [`crate::Resource`], both of which only move forward.

use crate::clock::SimTime;
use crate::rng::SimRng;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Identifier of a scheduled event, unique within one scheduler.
pub type EventId = u64;

/// Dispatch class: at equal times, lower classes fire first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventClass {
    /// Server crash transitions (state loss must precede everything else
    /// due at the same instant).
    Crash,
    /// Server restart transitions (after crashes, before traffic).
    Restart,
    /// Salvager passes bringing volumes back online (after restarts, so a
    /// restart scheduled at the same instant can enqueue them; before
    /// traffic, so a request due at the completion instant sees the volume
    /// online).
    Salvage,
    /// Silent-corruption injections from a fault plan (before traffic, so
    /// a request due at the same instant observes the damaged bytes —
    /// corruption "happened on the platter" before the request was served).
    Corrupt,
    /// Ordinary message/service/timeout events.
    Normal,
    /// Background scrubber passes (after all traffic due at the same
    /// instant: the scrubber only ever uses idle disk time).
    Scrub,
}

/// Counters describing everything the scheduler has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Events ever scheduled.
    pub scheduled: u64,
    /// Events popped and handed to the owner for execution.
    pub executed: u64,
    /// Events logically cancelled ([`Scheduler::cancel`] or
    /// [`Scheduler::take`]) — O(1) tombstones, never a heap rebuild.
    pub cancelled: u64,
    /// Largest number of live (scheduled, not yet fired or cancelled)
    /// events observed.
    pub high_water: usize,
}

impl EventStats {
    /// Folds another scheduler's counters into this one (used to report
    /// totals across per-cluster calendars).
    pub fn merge(&mut self, other: &EventStats) {
        self.scheduled += other.scheduled;
        self.executed += other.executed;
        self.cancelled += other.cancelled;
        // Calendars run concurrently, so the sum of per-calendar peaks is
        // the honest upper bound on simultaneous live events.
        self.high_water += other.high_water;
    }
}

/// The full ordering key of a queued event. Orders by
/// `(at, class, tie, seq)`; `id` rides along for the slab lookup.
#[derive(Debug, Clone, Copy)]
pub struct EventKey {
    /// Due time.
    pub at: SimTime,
    /// Dispatch class.
    pub class: EventClass,
    /// Seeded tie-break value drawn at schedule time.
    pub tie: u64,
    /// Insertion sequence (final total tie-break).
    pub seq: u64,
    /// The event's identifier.
    pub id: EventId,
}

impl EventKey {
    fn order(&self) -> (SimTime, EventClass, u64, u64) {
        (self.at, self.class, self.tie, self.seq)
    }
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}
impl Eq for EventKey {}
impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
// BinaryHeap is a max-heap; invert the comparison so the earliest key pops
// first.
impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        other.order().cmp(&self.order())
    }
}

/// One event popped from the queue.
#[derive(Debug)]
pub struct Firing<E> {
    /// The instant the event was scheduled for.
    pub at: SimTime,
    /// Its identifier.
    pub id: EventId,
    /// The payload.
    pub ev: E,
}

/// A deterministic event calendar (indexed heap: keys in a binary heap,
/// payloads in a slab, cancellation by tombstone).
#[derive(Debug)]
pub struct Scheduler<E> {
    heap: BinaryHeap<EventKey>,
    live: HashMap<EventId, (SimTime, E)>,
    tie_rng: SimRng,
    next_seq: u64,
    stats: EventStats,
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler whose same-instant tie-breaking is driven
    /// by the given seed.
    pub fn seeded(seed: u64) -> Scheduler<E> {
        Scheduler {
            heap: BinaryHeap::new(),
            live: HashMap::new(),
            tie_rng: SimRng::seeded(seed),
            next_seq: 0,
            stats: EventStats::default(),
        }
    }

    /// Schedules `ev` at `at` in the [`EventClass::Normal`] class.
    pub fn schedule(&mut self, at: SimTime, ev: E) -> EventId {
        self.schedule_class(at, EventClass::Normal, ev)
    }

    /// Schedules `ev` at `at` in an explicit class.
    pub fn schedule_class(&mut self, at: SimTime, class: EventClass, ev: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tie = self.tie_rng.next_u64();
        self.heap.push(EventKey {
            at,
            class,
            tie,
            seq,
            id: seq,
        });
        self.live.insert(seq, (at, ev));
        self.stats.scheduled += 1;
        self.stats.high_water = self.stats.high_water.max(self.live.len());
        seq
    }

    /// Schedules `ev` at `at` in an explicit class **without consuming a
    /// tie-break draw**: the tie is pinned to zero and insertion order is
    /// the only same-key discriminator. Background machinery (scrubber
    /// passes, corruption injections) schedules through this so that
    /// enabling it never perturbs the seeded tie sequence of ordinary
    /// traffic — golden timings stay bit-identical.
    pub fn schedule_class_untied(&mut self, at: SimTime, class: EventClass, ev: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(EventKey {
            at,
            class,
            tie: 0,
            seq,
            id: seq,
        });
        self.live.insert(seq, (at, ev));
        self.stats.scheduled += 1;
        self.stats.high_water = self.stats.high_water.max(self.live.len());
        seq
    }

    /// Drops tombstoned keys off the front of the heap.
    fn skim(&mut self) {
        while let Some(k) = self.heap.peek() {
            if self.live.contains_key(&k.id) {
                return;
            }
            self.heap.pop();
        }
    }

    /// The full ordering key of the next live event, if any. Exposed so an
    /// owner of several calendars (one per cluster) can merge-pop them in a
    /// deterministic total order.
    pub fn peek_key(&mut self) -> Option<EventKey> {
        self.skim();
        self.heap.peek().copied()
    }

    /// Pops the next live event in `(time, class, tie, seq)` order,
    /// skipping tombstones.
    pub fn pop(&mut self) -> Option<Firing<E>> {
        while let Some(k) = self.heap.pop() {
            if let Some((at, ev)) = self.live.remove(&k.id) {
                self.stats.executed += 1;
                return Some(Firing { at, id: k.id, ev });
            }
        }
        None
    }

    /// Logically cancels event `id` in O(1): the payload is dropped now and
    /// the heap key is skipped when it surfaces. Returns whether the event
    /// was still pending. Cancelled events are never counted as executed.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.live.remove(&id).is_some() {
            self.stats.cancelled += 1;
            true
        } else {
            false
        }
    }

    /// Cancels event `id` and hands its payload (and due time) back to the
    /// caller — used by owners that must route a pending event (e.g. a
    /// queued callback delivery) to a different executor. O(1), like
    /// [`Scheduler::cancel`].
    pub fn take(&mut self, id: EventId) -> Option<Firing<E>> {
        let (at, ev) = self.live.remove(&id)?;
        self.stats.cancelled += 1;
        Some(Firing { at, id, ev })
    }

    /// Number of live queued events.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether the queue has no live events.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> EventStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_regardless_of_insertion() {
        let mut s: Scheduler<&str> = Scheduler::seeded(1);
        s.schedule(SimTime::from_secs(3), "c");
        s.schedule(SimTime::from_secs(1), "a");
        s.schedule(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|f| f.ev).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(s.stats().scheduled, 3);
        assert_eq!(s.stats().executed, 3);
        assert_eq!(s.stats().high_water, 3);
    }

    #[test]
    fn classes_order_same_instant_events() {
        let mut s: Scheduler<&str> = Scheduler::seeded(1);
        let t = SimTime::from_secs(5);
        s.schedule_class(t, EventClass::Normal, "traffic");
        s.schedule_class(t, EventClass::Restart, "restart");
        s.schedule_class(t, EventClass::Crash, "crash");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|f| f.ev).collect();
        assert_eq!(order, vec!["crash", "restart", "traffic"]);
    }

    #[test]
    fn same_instant_ties_are_seed_deterministic() {
        let run = |seed: u64| -> Vec<u32> {
            let mut s: Scheduler<u32> = Scheduler::seeded(seed);
            let t = SimTime::from_secs(1);
            for i in 0..16 {
                s.schedule(t, i);
            }
            std::iter::from_fn(|| s.pop()).map(|f| f.ev).collect()
        };
        assert_eq!(run(7), run(7), "same seed must give the same order");
        assert_ne!(
            run(7),
            run(8),
            "different seeds should shuffle same-instant ties"
        );
    }

    #[test]
    fn cancel_is_a_tombstone_skipped_on_pop() {
        let mut s: Scheduler<&str> = Scheduler::seeded(1);
        let a = s.schedule(SimTime::from_secs(1), "a");
        s.schedule(SimTime::from_secs(2), "b");
        assert!(s.cancel(a), "live event cancels");
        assert!(!s.cancel(a), "second cancel is a no-op");
        assert_eq!(s.len(), 1, "cancelled event no longer counts as live");
        assert_eq!(s.pop().unwrap().ev, "b", "tombstone is skipped");
        assert!(s.pop().is_none());
        let st = s.stats();
        assert_eq!(st.cancelled, 1);
        assert_eq!(st.executed, 1, "cancelled events are not executed");
    }

    #[test]
    fn take_returns_the_payload_and_due_time() {
        let mut s: Scheduler<(&str, u32)> = Scheduler::seeded(1);
        let brk = s.schedule(SimTime::from_secs(3), ("brk", 3));
        s.schedule(SimTime::from_secs(2), ("other", 0));
        let f = s.take(brk).expect("pending event");
        assert_eq!(f.at, SimTime::from_secs(3));
        assert_eq!(f.ev, ("brk", 3));
        assert!(s.take(brk).is_none(), "already taken");
        assert_eq!(s.pop().unwrap().ev.0, "other");
        assert_eq!(s.stats().cancelled, 1);
    }

    #[test]
    fn peek_key_skips_tombstones_and_merges_deterministically() {
        let mut s: Scheduler<&str> = Scheduler::seeded(9);
        let a = s.schedule(SimTime::from_secs(1), "a");
        s.schedule(SimTime::from_secs(4), "b");
        assert_eq!(s.peek_key().unwrap().at, SimTime::from_secs(1));
        s.cancel(a);
        let k = s.peek_key().unwrap();
        assert_eq!(k.at, SimTime::from_secs(4));
        // The popped firing matches the peeked key exactly.
        let f = s.pop().unwrap();
        assert_eq!(f.id, k.id);
        assert_eq!(f.ev, "b");
    }

    #[test]
    fn past_scheduling_is_allowed() {
        let mut s: Scheduler<&str> = Scheduler::seeded(1);
        s.schedule(SimTime::from_secs(10), "future");
        // Retry bookkeeping may schedule at an earlier instant.
        s.schedule(SimTime::from_secs(2), "past");
        assert_eq!(s.pop().unwrap().ev, "past");
        assert_eq!(s.pop().unwrap().ev, "future");
    }
}
