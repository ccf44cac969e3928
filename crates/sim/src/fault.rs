//! Deterministic fault injection.
//!
//! The 1985 paper's prototype ran on a real campus network where messages
//! were lost, servers crashed, and Venus had to keep workstations usable
//! anyway (Section 3.1: *"A user could, if he so desired, continue work in
//! the presence of... failures"*). This module gives the simulation the same
//! adversities on demand, driven entirely by a seeded [`SimRng`] so that a
//! given fault plan produces bit-identical failures — and therefore
//! bit-identical retries, failovers, and recoveries — on every run.
//!
//! A [`FaultPlan`] answers two kinds of question for the transport layer:
//!
//! * **Message faults** — should this request or reply be dropped,
//!   duplicated, or delayed? Decided probabilistically per message, or
//!   scripted precisely via [`FaultPlan::inject_once`] (the FIFO of one-shot
//!   faults is what the fault tests use to stage exact scenarios like "the
//!   reply to the *next* Store to server 1 is lost").
//! * **Server lifecycle** — when is a crash, restart or corruption
//!   scheduled? The *owner* of the servers reads
//!   [`FaultPlan::crash_schedule`] / [`FaultPlan::restart_schedule`] /
//!   [`FaultPlan::corruption_schedule`] once at installation, enters the
//!   events into its own calendar and applies the state changes when they
//!   fire; crashing a simulated Vice server loses its in-memory state
//!   (callback promises, replay cache, locks) exactly as a reboot of the
//!   real machine would.
//!
//! The plan also keeps [`FaultStats`] so tests can assert exactly how many
//! faults fired.

use crate::clock::SimTime;
use crate::rng::SimRng;
use std::collections::VecDeque;

/// What the (simulated) network did to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFault {
    /// Delivered normally.
    Deliver,
    /// Lost in transit; the caller sees only its timeout.
    Drop,
    /// Delivered twice (meaningful for replies: the client sees the same
    /// sealed reply again, which the channel layer must reject).
    Duplicate,
    /// Delivered after an extra delay.
    Delay(SimTime),
}

/// A one-shot fault staged against a specific server's next message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptedFault {
    /// Drop the next request sent to the server.
    DropRequest,
    /// Drop the next reply the server sends.
    DropReply,
    /// Duplicate the next reply the server sends.
    DuplicateReply,
    /// Delay the next reply by the given amount.
    DelayReply(SimTime),
}

/// Counters of faults actually injected.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Requests lost before reaching a server.
    pub requests_dropped: u64,
    /// Replies lost on the way back.
    pub replies_dropped: u64,
    /// Replies delivered twice.
    pub replies_duplicated: u64,
    /// Messages delivered late.
    pub delays_injected: u64,
    /// Silent byte-flips injected into durable storage.
    pub corruptions_injected: u64,
}

impl FaultStats {
    /// Total message faults of any kind.
    pub fn total(&self) -> u64 {
        self.requests_dropped
            + self.replies_dropped
            + self.replies_duplicated
            + self.delays_injected
    }

    /// Folds another shard's counters into this one (used to report totals
    /// across per-cluster fault streams).
    pub fn merge(&mut self, other: &FaultStats) {
        self.requests_dropped += other.requests_dropped;
        self.replies_dropped += other.replies_dropped;
        self.replies_duplicated += other.replies_duplicated;
        self.delays_injected += other.delays_injected;
        self.corruptions_injected += other.corruptions_injected;
    }
}

/// A deterministic plan of message faults and server crashes.
///
/// Lifecycle schedules are kept sorted by `(at, server)`, so they read
/// back in firing order no matter how they were authored or merged.
#[derive(Debug)]
pub struct FaultPlan {
    rng: SimRng,
    seed: u64,
    drop_request: f64,
    drop_reply: f64,
    duplicate_reply: f64,
    delay_prob: f64,
    delay_extra: SimTime,
    scripted: Vec<(u32, VecDeque<ScriptedFault>)>,
    crashes: VecDeque<(SimTime, u32)>,
    restarts: VecDeque<(SimTime, u32)>,
    corruptions: VecDeque<(SimTime, u32)>,
    stats: FaultStats,
}

impl FaultPlan {
    /// A plan with no probabilistic faults; scenarios are added with the
    /// builder methods and [`FaultPlan::inject_once`].
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            rng: SimRng::seeded(seed),
            seed,
            drop_request: 0.0,
            drop_reply: 0.0,
            duplicate_reply: 0.0,
            delay_prob: 0.0,
            delay_extra: SimTime::ZERO,
            scripted: Vec::new(),
            crashes: VecDeque::new(),
            restarts: VecDeque::new(),
            corruptions: VecDeque::new(),
            stats: FaultStats::default(),
        }
    }

    /// Sets the probability that any request is lost in transit.
    pub fn drop_request_prob(mut self, p: f64) -> Self {
        self.drop_request = p;
        self
    }

    /// Sets the probability that any reply is lost in transit.
    pub fn drop_reply_prob(mut self, p: f64) -> Self {
        self.drop_reply = p;
        self
    }

    /// Sets the probability that any reply is delivered twice.
    pub fn duplicate_reply_prob(mut self, p: f64) -> Self {
        self.duplicate_reply = p;
        self
    }

    /// Sets the probability that a message is delayed, and by how much.
    pub fn delay(mut self, p: f64, extra: SimTime) -> Self {
        self.delay_prob = p;
        self.delay_extra = extra;
        self
    }

    /// Stages a one-shot fault against `server`. Faults staged against the
    /// same server fire in FIFO order, one per matching message.
    pub fn inject_once(&mut self, server: u32, fault: ScriptedFault) {
        if let Some((_, q)) = self.scripted.iter_mut().find(|(s, _)| *s == server) {
            q.push_back(fault);
        } else {
            let mut q = VecDeque::new();
            q.push_back(fault);
            self.scripted.push((server, q));
        }
    }

    /// Schedules `server` to crash at virtual time `at`, losing all
    /// in-memory state (the owner reads it via [`Self::crash_schedule`]).
    pub fn schedule_crash(&mut self, server: u32, at: SimTime) {
        Self::insert_sorted(&mut self.crashes, server, at);
    }

    /// Schedules `server` to come back up at virtual time `at`.
    pub fn schedule_restart(&mut self, server: u32, at: SimTime) {
        Self::insert_sorted(&mut self.restarts, server, at);
    }

    /// Schedules a silent byte-flip against `server`'s durable storage at
    /// virtual time `at`. When the event fires, the owner calls
    /// [`FaultPlan::flip_bytes`] with the extent of the server's durable
    /// address space to pick the damaged byte.
    pub fn schedule_corruption(&mut self, server: u32, at: SimTime) {
        Self::insert_sorted(&mut self.corruptions, server, at);
    }

    /// Every crash scheduled, as `(server, at)` pairs in firing order. The
    /// owner reads the whole schedule once at installation and enters it
    /// into its own calendar.
    pub fn crash_schedule(&self) -> Vec<(u32, SimTime)> {
        self.crashes.iter().map(|&(at, s)| (s, at)).collect()
    }

    /// Every restart scheduled, as `(server, at)` pairs in firing
    /// order.
    pub fn restart_schedule(&self) -> Vec<(u32, SimTime)> {
        self.restarts.iter().map(|&(at, s)| (s, at)).collect()
    }

    /// Every corruption injection scheduled, as `(server, at)` pairs
    /// in firing order.
    pub fn corruption_schedule(&self) -> Vec<(u32, SimTime)> {
        self.corruptions.iter().map(|&(at, s)| (s, at)).collect()
    }

    /// Keeps a schedule sorted by `(at, server)` on insertion.
    fn insert_sorted(events: &mut VecDeque<(SimTime, u32)>, server: u32, at: SimTime) {
        let pos = events.partition_point(|&e| e <= (at, server));
        events.insert(pos, (at, server));
    }

    /// Whether the plan carries any fault that couples clusters beyond the
    /// victim's own: message-fault probabilities, scripted message faults,
    /// or crash/restart schedules. Corruption-only plans return `false`,
    /// which is what lets parallel executors keep per-cluster masks narrow
    /// while an integrity fault plan is installed.
    pub fn couples_clusters(&self) -> bool {
        self.drop_request > 0.0
            || self.drop_reply > 0.0
            || self.duplicate_reply > 0.0
            || self.delay_prob > 0.0
            || !self.scripted.is_empty()
            || !self.crashes.is_empty()
            || !self.restarts.is_empty()
    }

    /// Splits the plan into one independent sub-plan per shard (cluster),
    /// assigning each scripted fault and each lifecycle event to
    /// `shard_of(server)`'s sub-plan and giving every shard its own
    /// probabilistic rng stream derived from the plan seed.
    ///
    /// Shard 0's stream is seeded exactly like the undivided plan's, so a
    /// single-cluster system draws the very same fault sequence whether or
    /// not it was split — the seed-identity rule the pinned goldens rely
    /// on. Draw order within a shard depends only on that shard's own
    /// message traffic, which is what makes fault decisions independent of
    /// how clusters interleave (the partition-independence requirement of
    /// the parallel executor).
    pub fn split(self, shards: usize, shard_of: impl Fn(u32) -> usize) -> Vec<FaultPlan> {
        let mut out: Vec<FaultPlan> = (0..shards)
            .map(|c| {
                let derived = self
                    .seed
                    .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(c as u64));
                FaultPlan {
                    rng: SimRng::seeded(derived),
                    seed: derived,
                    drop_request: self.drop_request,
                    drop_reply: self.drop_reply,
                    duplicate_reply: self.duplicate_reply,
                    delay_prob: self.delay_prob,
                    delay_extra: self.delay_extra,
                    scripted: Vec::new(),
                    crashes: VecDeque::new(),
                    restarts: VecDeque::new(),
                    corruptions: VecDeque::new(),
                    stats: FaultStats::default(),
                }
            })
            .collect();
        for (server, q) in self.scripted {
            out[shard_of(server).min(shards - 1)]
                .scripted
                .push((server, q));
        }
        for (at, server) in self.crashes {
            out[shard_of(server).min(shards - 1)]
                .crashes
                .push_back((at, server));
        }
        for (at, server) in self.restarts {
            out[shard_of(server).min(shards - 1)]
                .restarts
                .push_back((at, server));
        }
        for (at, server) in self.corruptions {
            out[shard_of(server).min(shards - 1)]
                .corruptions
                .push_back((at, server));
        }
        out
    }

    /// How many bytes of a crashed server's `unsynced` journal window made
    /// it to the platter before power failed — the torn-write point, drawn
    /// uniformly from `0..=unsynced` off the plan's seeded stream. With
    /// nothing unsynced the answer is 0 and **no random draw is made**, so
    /// write-ahead-synced runs consume exactly the same rng stream as
    /// before the disk model existed.
    pub fn torn_bytes(&mut self, unsynced: u64) -> u64 {
        if unsynced == 0 {
            return 0;
        }
        self.rng.range(0, unsynced + 1)
    }

    /// Picks the silent-corruption target for a durable address space of
    /// `extent` bytes: the damaged offset and a non-zero XOR mask to apply
    /// to the byte there (non-zero so the flip always changes the stored
    /// value). With an empty extent the answer is `None` and **no random
    /// draw is made**, so plans without corruption events — and corruption
    /// events firing against an empty disk — consume exactly the rng
    /// stream they did before the integrity subsystem existed.
    pub fn flip_bytes(&mut self, extent: u64) -> Option<(u64, u8)> {
        if extent == 0 {
            return None;
        }
        let offset = self.rng.range(0, extent);
        let mask = self.rng.range(1, 256) as u8;
        self.stats.corruptions_injected += 1;
        Some((offset, mask))
    }

    fn pop_scripted(
        &mut self,
        server: u32,
        matches: impl Fn(ScriptedFault) -> bool,
    ) -> Option<ScriptedFault> {
        let (_, q) = self.scripted.iter_mut().find(|(s, _)| *s == server)?;
        match q.front() {
            Some(&f) if matches(f) => q.pop_front(),
            _ => None,
        }
    }

    /// Decides the fate of a request headed for `server`.
    pub fn request_fault(&mut self, server: u32) -> MessageFault {
        if let Some(f) = self.pop_scripted(server, |f| matches!(f, ScriptedFault::DropRequest)) {
            debug_assert_eq!(f, ScriptedFault::DropRequest);
            self.stats.requests_dropped += 1;
            return MessageFault::Drop;
        }
        if self.drop_request > 0.0 && self.rng.chance(self.drop_request) {
            self.stats.requests_dropped += 1;
            return MessageFault::Drop;
        }
        if self.delay_prob > 0.0 && self.rng.chance(self.delay_prob) {
            self.stats.delays_injected += 1;
            return MessageFault::Delay(self.delay_extra);
        }
        MessageFault::Deliver
    }

    /// Decides the fate of a reply sent by `server`.
    pub fn reply_fault(&mut self, server: u32) -> MessageFault {
        if let Some(f) = self.pop_scripted(server, |f| {
            matches!(
                f,
                ScriptedFault::DropReply
                    | ScriptedFault::DuplicateReply
                    | ScriptedFault::DelayReply(_)
            )
        }) {
            return match f {
                ScriptedFault::DropReply => {
                    self.stats.replies_dropped += 1;
                    MessageFault::Drop
                }
                ScriptedFault::DuplicateReply => {
                    self.stats.replies_duplicated += 1;
                    MessageFault::Duplicate
                }
                ScriptedFault::DelayReply(extra) => {
                    self.stats.delays_injected += 1;
                    MessageFault::Delay(extra)
                }
                ScriptedFault::DropRequest => unreachable!("filtered by matcher"),
            };
        }
        if self.drop_reply > 0.0 && self.rng.chance(self.drop_reply) {
            self.stats.replies_dropped += 1;
            return MessageFault::Drop;
        }
        if self.duplicate_reply > 0.0 && self.rng.chance(self.duplicate_reply) {
            self.stats.replies_duplicated += 1;
            return MessageFault::Duplicate;
        }
        if self.delay_prob > 0.0 && self.rng.chance(self.delay_prob) {
            self.stats.delays_injected += 1;
            return MessageFault::Delay(self.delay_extra);
        }
        MessageFault::Deliver
    }

    /// Folds `other` into this plan, so scenarios can compose independently
    /// authored plans (say, a crash schedule and a lossy-network plan)
    /// without hand-copying schedules.
    ///
    /// Semantics:
    ///
    /// * Lifecycle schedules are unioned element by element through the
    ///   same sorted insert the builder methods use, so the merged schedule
    ///   fires in `(at, server)` order no matter which plan contributed
    ///   which event — merge order cannot clobber firing order.
    /// * Scripted one-shot FIFOs are concatenated per server: `self`'s
    ///   staged faults fire before `other`'s for the same server.
    /// * A probabilistic knob set (non-zero) in `other` overrides `self`'s
    ///   value for that knob; knobs `other` left at zero keep `self`'s
    ///   setting.
    /// * The rng stays `self`'s stream (`other`'s is dropped), so a given
    ///   receiving plan draws the same fault sequence regardless of what
    ///   was merged in. Stats are summed.
    pub fn merge(&mut self, other: FaultPlan) {
        let FaultPlan {
            rng: _,
            seed: _,
            drop_request,
            drop_reply,
            duplicate_reply,
            delay_prob,
            delay_extra,
            scripted,
            crashes,
            restarts,
            corruptions,
            stats,
        } = other;
        if drop_request > 0.0 {
            self.drop_request = drop_request;
        }
        if drop_reply > 0.0 {
            self.drop_reply = drop_reply;
        }
        if duplicate_reply > 0.0 {
            self.duplicate_reply = duplicate_reply;
        }
        if delay_prob > 0.0 {
            self.delay_prob = delay_prob;
            self.delay_extra = delay_extra;
        }
        for (server, faults) in scripted {
            for fault in faults {
                self.inject_once(server, fault);
            }
        }
        for (at, server) in crashes {
            Self::insert_sorted(&mut self.crashes, server, at);
        }
        for (at, server) in restarts {
            Self::insert_sorted(&mut self.restarts, server, at);
        }
        for (at, server) in corruptions {
            Self::insert_sorted(&mut self.corruptions, server, at);
        }
        self.stats.merge(&stats);
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_never_faults() {
        let mut p = FaultPlan::new(7);
        for _ in 0..100 {
            assert_eq!(p.request_fault(0), MessageFault::Deliver);
            assert_eq!(p.reply_fault(0), MessageFault::Deliver);
        }
        assert_eq!(p.stats().total(), 0);
    }

    #[test]
    fn scripted_faults_fire_once_in_fifo_order() {
        let mut p = FaultPlan::new(7);
        p.inject_once(1, ScriptedFault::DropReply);
        p.inject_once(1, ScriptedFault::DuplicateReply);
        // Other servers are unaffected.
        assert_eq!(p.reply_fault(0), MessageFault::Deliver);
        assert_eq!(p.reply_fault(1), MessageFault::Drop);
        assert_eq!(p.reply_fault(1), MessageFault::Duplicate);
        assert_eq!(p.reply_fault(1), MessageFault::Deliver);
        assert_eq!(p.stats().replies_dropped, 1);
        assert_eq!(p.stats().replies_duplicated, 1);
    }

    #[test]
    fn scripted_request_and_reply_queues_interleave() {
        // A DropRequest at the queue head must not be consumed by a reply
        // fault query, and vice versa.
        let mut p = FaultPlan::new(7);
        p.inject_once(2, ScriptedFault::DropRequest);
        assert_eq!(p.reply_fault(2), MessageFault::Deliver);
        assert_eq!(p.request_fault(2), MessageFault::Drop);
        assert_eq!(p.request_fault(2), MessageFault::Deliver);
    }

    #[test]
    fn probabilistic_faults_are_deterministic_per_seed() {
        let run = |seed: u64| -> (Vec<MessageFault>, FaultStats) {
            let mut p = FaultPlan::new(seed)
                .drop_request_prob(0.2)
                .drop_reply_prob(0.1)
                .duplicate_reply_prob(0.1);
            let mut seq = Vec::new();
            for i in 0..200 {
                seq.push(p.request_fault(i % 3));
                seq.push(p.reply_fault(i % 3));
            }
            (seq, p.stats())
        };
        let (a, sa) = run(42);
        let (b, sb) = run(42);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa.requests_dropped > 0 && sa.replies_dropped > 0);
        let (c, _) = run(43);
        assert_ne!(a, c);
    }

    #[test]
    fn schedules_stay_sorted_by_time_then_server() {
        let mut p = FaultPlan::new(1);
        // Inserted out of order, including a same-instant pair: the
        // schedule reads back sorted by (at, server) without a sort call.
        p.schedule_crash(5, SimTime::from_secs(30));
        p.schedule_crash(9, SimTime::from_secs(10));
        p.schedule_crash(3, SimTime::from_secs(10));
        p.schedule_crash(1, SimTime::from_secs(20));
        assert_eq!(
            p.crash_schedule(),
            vec![
                (3, SimTime::from_secs(10)),
                (9, SimTime::from_secs(10)),
                (1, SimTime::from_secs(20)),
                (5, SimTime::from_secs(30)),
            ]
        );
    }

    #[test]
    fn merged_plans_keep_sorted_firing_order() {
        // A crash/restart schedule authored in one plan and a delay plan
        // authored in another: merging must interleave the lifecycle events
        // into (at, server) order, exactly as if one plan had scheduled
        // them all.
        let mut outage = FaultPlan::new(1);
        outage.schedule_crash(2, SimTime::from_secs(40));
        outage.schedule_crash(0, SimTime::from_secs(10));
        outage.schedule_restart(0, SimTime::from_secs(70));

        let mut lossy = FaultPlan::new(2).delay(0.5, SimTime::from_millis(200));
        lossy.schedule_crash(1, SimTime::from_secs(10));
        lossy.schedule_crash(3, SimTime::from_secs(25));
        lossy.inject_once(1, ScriptedFault::DropReply);

        let mut merged = FaultPlan::new(1);
        merged.schedule_crash(2, SimTime::from_secs(40));
        merged.schedule_crash(0, SimTime::from_secs(10));
        merged.schedule_restart(0, SimTime::from_secs(70));
        merged.merge(lossy);

        assert_eq!(
            merged.crash_schedule(),
            vec![
                (0, SimTime::from_secs(10)),
                (1, SimTime::from_secs(10)),
                (3, SimTime::from_secs(25)),
                (2, SimTime::from_secs(40)),
            ]
        );
        assert_eq!(merged.restart_schedule(), vec![(0, SimTime::from_secs(70))]);
        // The scripted fault and the delay knob came across.
        assert_eq!(merged.reply_fault(1), MessageFault::Drop);
        assert_eq!(
            FaultPlan::new(9)
                .delay(1.0, SimTime::from_millis(200))
                .delay_extra,
            SimTime::from_millis(200)
        );
        let _ = outage;
    }

    #[test]
    fn merge_is_order_independent_for_schedules() {
        // Building (A then merge B) and (B then merge A) must produce the
        // same lifecycle firing order: sorted insertion, not append order,
        // decides firing order.
        let build_a = |p: &mut FaultPlan| {
            p.schedule_crash(4, SimTime::from_secs(20));
            p.schedule_crash(1, SimTime::from_secs(5));
            p.schedule_restart(4, SimTime::from_secs(90));
        };
        let build_b = |p: &mut FaultPlan| {
            p.schedule_crash(2, SimTime::from_secs(5));
            p.schedule_crash(0, SimTime::from_secs(50));
            p.schedule_restart(2, SimTime::from_secs(60));
        };

        let mut ab = FaultPlan::new(7);
        build_a(&mut ab);
        let mut b = FaultPlan::new(8);
        build_b(&mut b);
        ab.merge(b);

        let mut ba = FaultPlan::new(7);
        build_b(&mut ba);
        let mut a = FaultPlan::new(8);
        build_a(&mut a);
        ba.merge(a);

        assert_eq!(ab.crash_schedule(), ba.crash_schedule());
        assert_eq!(ab.restart_schedule(), ba.restart_schedule());
        assert_eq!(
            ab.crash_schedule(),
            vec![
                (1, SimTime::from_secs(5)),
                (2, SimTime::from_secs(5)),
                (4, SimTime::from_secs(20)),
                (0, SimTime::from_secs(50)),
            ]
        );
        // The receiver's rng stream is untouched by the merge: its fault
        // draws match a never-merged plan with the same seed and knobs.
        let mut merged = FaultPlan::new(3);
        merged.merge(FaultPlan::new(99).drop_request_prob(0.3));
        let mut plain = FaultPlan::new(3).drop_request_prob(0.3);
        let seq_m: Vec<_> = (0..50).map(|_| merged.request_fault(0)).collect();
        let seq_p: Vec<_> = (0..50).map(|_| plain.request_fault(0)).collect();
        assert_eq!(seq_m, seq_p);
    }

    #[test]
    fn torn_bytes_is_bounded_and_quiet_when_synced() {
        let mut p = FaultPlan::new(11);
        // With nothing unsynced, no draw happens: the stream is untouched,
        // so a subsequent draw matches a fresh plan's first draw.
        assert_eq!(p.torn_bytes(0), 0);
        let a = p.torn_bytes(1000);
        let b = FaultPlan::new(11).torn_bytes(1000);
        assert_eq!(a, b);
        assert!(a <= 1000);
        // The draw covers the full inclusive range deterministically.
        let mut p = FaultPlan::new(11);
        let draws: Vec<u64> = (0..200).map(|_| p.torn_bytes(3)).collect();
        assert!(draws.iter().all(|&d| d <= 3));
        assert!(draws.contains(&0) && draws.contains(&3));
    }

    #[test]
    fn delay_faults_carry_the_extra_time() {
        let mut p = FaultPlan::new(3).delay(1.0, SimTime::from_millis(250));
        assert_eq!(
            p.request_fault(0),
            MessageFault::Delay(SimTime::from_millis(250))
        );
        assert_eq!(p.stats().delays_injected, 1);
    }
}
