//! The client half of a Vice call — timeout, retry and backoff — as one
//! pure state machine.
//!
//! The paper's RPC package ran over an unreliable datagram network and
//! retransmitted on loss (Section 3.5.3). The reproduction retries whole
//! calls: an attempt with no reply within the timeout is retried, up to
//! [`MAX_ATTEMPTS`], after capped exponential backoff with jitter drawn
//! from a seeded [`SimRng`], so a seed yields one retry schedule. A
//! [`CallMachine`] is fed one [`Input`] per protocol event and returns the
//! one [`Step`] its driver (the system transport) must take; it holds no
//! scheduler, resource or bytes, allocates nothing, and counts what it
//! decided into [`CallStats`]. Idempotency tokens, answered from the
//! server's replay cache, keep a retried mutation from applying twice.

use itc_sim::{MessageFault, SimRng, SimTime};

/// Total attempts of one call, the first included.
pub const MAX_ATTEMPTS: u32 = 4;
/// The wait before a call's first retry; it doubles with each further one.
const BASE_BACKOFF: SimTime = SimTime::from_secs(1);
/// The cap on any one wait between attempts.
const MAX_BACKOFF: SimTime = SimTime::from_secs(8);
/// Jitter fraction: each wait is scaled by a factor drawn uniformly from
/// `[1 - JITTER, 1 + JITTER)`.
const JITTER: f64 = 0.25;

/// The wait before retry `n` (1-based): `base * 2^(n-1)` capped at `cap`,
/// scaled by one jitter draw from `rng`. Calls use `BASE_BACKOFF` and
/// `MAX_BACKOFF`; Venus's reconnect probes their own base and cap.
pub fn backoff(base: SimTime, cap: SimTime, n: u32, rng: &mut SimRng) -> SimTime {
    let capped = (base * (1u64 << n.saturating_sub(1).min(20))).min(cap);
    let factor = 1.0 - JITTER + 2.0 * JITTER * rng.unit();
    SimTime::from_micros((capped.as_micros() as f64 * factor) as u64)
}

/// Counters of what the retry machinery did, across all calls of one
/// transport.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CallStats {
    /// Attempts sent on the wire (≥ logical calls).
    pub attempts: u64,
    /// Attempts beyond the first for some logical call.
    pub retries: u64,
    /// Attempts that ended in a timeout (a leg was lost).
    pub timeouts: u64,
    /// Duplicate replies discarded by the secure channel's sequence check.
    pub duplicates_ignored: u64,
    /// Logical calls that failed after exhausting all attempts.
    pub failures: u64,
}

impl CallStats {
    /// Merges another set of counters into this one.
    pub fn absorb(&mut self, other: CallStats) {
        self.attempts += other.attempts;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.duplicates_ignored += other.duplicates_ignored;
        self.failures += other.failures;
    }
}

/// One protocol event of a call, as its driver saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Input {
    /// An attempt is sent at `at` to a server that is `online` or not.
    Send { at: SimTime, online: bool },
    /// The network's fate for the attempt's request leg.
    Request(MessageFault),
    /// The network's fate for the attempt's reply leg.
    Reply(MessageFault),
    /// The attempt's retransmission timer fired at the given instant.
    Timer(SimTime),
    /// The reply was opened; the channel's sequence check refused a
    /// duplicated copy of it, if `duplicate_refused`.
    Opened { duplicate_refused: bool },
}

/// What the driver must do after one [`Input`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The server is down: the call fails as unreachable at this instant.
    Abort(SimTime),
    /// The attempt is on the wire: arm its timer for this instant.
    Arm(SimTime),
    /// The leg is delivered: schedule the call's next event.
    Carry,
    /// The leg is lost: nothing follows but the armed timer.
    Lost,
    /// The timer fired while a leg was in flight: the reply is only slower
    /// than the timer, and delivery is trusted, so the timer is ignored.
    StandDown,
    /// The attempt timed out: send the next one at this instant.
    Retry(SimTime),
    /// The last attempt timed out: the call fails as timed out.
    GiveUp,
    /// The reply was opened: the call is done.
    Done,
}

/// The retry rule of one logical call (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct CallMachine {
    /// How long an attempt waits for its reply.
    timeout: SimTime,
    /// Whether a leg of the current attempt is in flight; false once it is
    /// lost, which is what the attempt's timer finds when it fires.
    in_flight: bool,
    /// Attempts sent so far (the current one's number, 1-based).
    attempt: u32,
    /// When the current attempt was sent.
    attempt_start: SimTime,
    /// Fault-injected delay accumulated by the current attempt's legs.
    extra: SimTime,
    /// Whether the network duplicated the current attempt's reply.
    duplicate: bool,
}

impl CallMachine {
    /// A call not yet sent, whose attempts each wait `timeout` for a reply
    /// (the cost model's `rpc_timeout`).
    pub fn new(timeout: SimTime) -> CallMachine {
        CallMachine {
            timeout,
            in_flight: false,
            attempt: 0,
            attempt_start: SimTime::ZERO,
            extra: SimTime::ZERO,
            duplicate: false,
        }
    }

    /// The current attempt's number (0 before the first send).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// When the current attempt was sent.
    pub fn attempt_start(&self) -> SimTime {
        self.attempt_start
    }

    /// The delay the network injected into the current attempt's legs.
    pub fn extra(&self) -> SimTime {
        self.extra
    }

    /// Whether the network duplicated the current attempt's reply.
    pub fn duplicate(&self) -> bool {
        self.duplicate
    }

    /// Takes one input and returns what the driver must do, counting into
    /// `stats` and drawing jitter from `rng` on a retry only.
    pub fn step(&mut self, input: Input, stats: &mut CallStats, rng: &mut SimRng) -> Step {
        match input {
            Input::Send { at, online } => {
                self.attempt += 1;
                stats.attempts += 1;
                stats.retries += u64::from(self.attempt > 1);
                self.attempt_start = at;
                self.extra = SimTime::ZERO;
                self.duplicate = false;
                self.in_flight = online;
                if online {
                    Step::Arm(at + self.timeout)
                } else {
                    Step::Abort(at + self.timeout)
                }
            }
            Input::Request(MessageFault::Drop) | Input::Reply(MessageFault::Drop) => {
                stats.timeouts += 1;
                self.in_flight = false;
                Step::Lost
            }
            Input::Request(fate) | Input::Reply(fate) => {
                if let MessageFault::Delay(d) = fate {
                    self.extra += d;
                }
                self.duplicate = input == Input::Reply(MessageFault::Duplicate);
                Step::Carry
            }
            Input::Timer(_) if self.in_flight => Step::StandDown,
            Input::Timer(_) if self.attempt >= MAX_ATTEMPTS => {
                stats.failures += 1;
                Step::GiveUp
            }
            Input::Timer(at) => {
                Step::Retry(at + backoff(BASE_BACKOFF, MAX_BACKOFF, self.attempt, rng))
            }
            Input::Opened { duplicate_refused } => {
                stats.duplicates_ignored += u64::from(duplicate_refused);
                Step::Done
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Retry `n` waits 1, 2, 4, then 8 s capped, each within ±25 % jitter.
    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let nominal_secs = [1, 2, 4, 8, 8, 8, 8, 8];
        let mut rng = SimRng::seeded(1);
        for (n, secs) in (1..=8).zip(nominal_secs) {
            let nominal = SimTime::from_secs(secs).as_micros() as f64;
            for _ in 0..100 {
                let got = backoff(BASE_BACKOFF, MAX_BACKOFF, n, &mut rng).as_micros() as f64;
                let band = nominal * (1.0 - JITTER)..nominal * (1.0 + JITTER);
                assert!(band.contains(&got), "retry {n}: {got} outside {band:?}");
            }
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_drawn() {
        let mut a = SimRng::seeded(99);
        let mut b = SimRng::seeded(99);
        for n in 1..=8 {
            let waits: Vec<SimTime> = (0..20)
                .map(|_| backoff(BASE_BACKOFF, MAX_BACKOFF, n, &mut a))
                .collect();
            for wait in &waits {
                assert_eq!(*wait, backoff(BASE_BACKOFF, MAX_BACKOFF, n, &mut b));
            }
            assert!(waits.iter().any(|w| *w != waits[0]), "retry {n}: no jitter");
        }
    }

    /// Venus's reconnect curve (500 ms doubling to 32 s) is this curve,
    /// bit for bit, on every failure count and jitter draw.
    #[test]
    fn reconnect_curve_matches_its_closed_form() {
        let mut a = SimRng::seeded(7);
        let mut b = SimRng::seeded(7);
        for _ in 0..200 {
            for f in 1..=12u32 {
                let curve = backoff(SimTime::from_millis(500), SimTime::from_secs(32), f, &mut a);
                let base_us = 500_000u64 << (f.min(7) - 1);
                let closed = (base_us as f64 * (0.75 + 0.5 * b.unit())) as u64;
                assert_eq!(curve, SimTime::from_micros(closed), "failure {f}");
            }
        }
    }

    #[test]
    fn stats_absorb_sums_fields() {
        let mut a = CallStats {
            attempts: 5,
            retries: 2,
            timeouts: 2,
            duplicates_ignored: 1,
            failures: 0,
        };
        a.absorb(CallStats {
            attempts: 3,
            retries: 0,
            timeouts: 0,
            duplicates_ignored: 0,
            failures: 1,
        });
        assert_eq!(a.attempts, 8);
        assert_eq!(a.retries, 2);
        assert_eq!(a.failures, 1);
    }

    /// What the network (or the server's state) does to one attempt.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fate {
        Deliver,
        DropRequest,
        DropReply,
        DuplicateReply,
        /// The reply arrives after the attempt's timer fired.
        SlowReply,
        /// The server is down when the attempt is sent.
        Down,
    }

    const FATES: [Fate; 6] = [
        Fate::Deliver,
        Fate::DropRequest,
        Fate::DropReply,
        Fate::DuplicateReply,
        Fate::SlowReply,
        Fate::Down,
    ];

    const TIMEOUT: SimTime = SimTime::from_secs(15);

    /// Drives one call through `fates` (one per attempt) as the transport
    /// would, checking each step; returns the final step, the counters and
    /// the backoff waits drawn.
    fn drive(fates: &[Fate], rng: &mut SimRng) -> (Step, CallStats, Vec<SimTime>) {
        let mut m = CallMachine::new(TIMEOUT);
        let mut stats = CallStats::default();
        let mut waits = Vec::new();
        let mut now = SimTime::from_secs(100);
        let mut go = |m: &mut CallMachine, input, stats: &mut CallStats| m.step(input, stats, rng);
        for (i, &fate) in fates.iter().enumerate() {
            let online = fate != Fate::Down;
            let sent = go(&mut m, Input::Send { at: now, online }, &mut stats);
            assert_eq!(m.attempt(), i as u32 + 1);
            assert_eq!(m.attempt_start(), now);
            if !online {
                assert_eq!(sent, Step::Abort(now + TIMEOUT));
                return (sent, stats, waits);
            }
            assert_eq!(sent, Step::Arm(now + TIMEOUT));
            let (request, reply) = match fate {
                Fate::DropRequest => (MessageFault::Drop, MessageFault::Deliver),
                Fate::DropReply => (MessageFault::Deliver, MessageFault::Drop),
                Fate::DuplicateReply => (MessageFault::Deliver, MessageFault::Duplicate),
                Fate::SlowReply => (MessageFault::Deliver, MessageFault::Delay(TIMEOUT)),
                Fate::Deliver | Fate::Down => (MessageFault::Deliver, MessageFault::Deliver),
            };
            let mut lost = go(&mut m, Input::Request(request), &mut stats) == Step::Lost;
            if !lost {
                lost = go(&mut m, Input::Reply(reply), &mut stats) == Step::Lost;
            }
            if !lost {
                if fate == Fate::SlowReply {
                    let timer = Input::Timer(now + TIMEOUT);
                    assert_eq!(go(&mut m, timer, &mut stats), Step::StandDown);
                    assert_eq!(m.extra(), TIMEOUT);
                }
                let duplicate = fate == Fate::DuplicateReply;
                assert_eq!(m.duplicate(), duplicate);
                let opened = Input::Opened {
                    duplicate_refused: duplicate,
                };
                let done = go(&mut m, opened, &mut stats);
                assert_eq!(done, Step::Done);
                return (done, stats, waits);
            }
            let fired = now + TIMEOUT;
            match go(&mut m, Input::Timer(fired), &mut stats) {
                Step::Retry(next) => {
                    waits.push(next - fired);
                    now = next;
                }
                step => return (step, stats, waits),
            }
        }
        panic!("the call outlived {} fates", fates.len());
    }

    /// Every sequence of per-attempt fates up to the attempt limit: the
    /// outcome and every counter follow from the first attempt that is not
    /// lost, and jitter is drawn once per retry, nowhere else.
    #[test]
    fn every_fate_sequence_ends_as_its_closed_form_says() {
        let mut sequences = vec![vec![]];
        for _ in 0..MAX_ATTEMPTS {
            sequences = sequences
                .into_iter()
                .flat_map(|s: Vec<Fate>| FATES.iter().map(move |&f| [s.as_slice(), &[f]].concat()))
                .collect();
        }
        assert_eq!(sequences.len(), FATES.len().pow(MAX_ATTEMPTS));
        for fates in &sequences {
            let mut rng = SimRng::seeded(1985);
            let (step, stats, waits) = drive(fates, &mut rng);
            let lost = |f: &Fate| matches!(f, Fate::DropRequest | Fate::DropReply);
            let k = fates.iter().position(|f| !lost(f));
            let attempts = k.map_or(MAX_ATTEMPTS as u64, |k| k as u64 + 1);
            let expected = CallStats {
                attempts,
                retries: attempts - 1,
                timeouts: k.map_or(attempts, |_| attempts - 1),
                duplicates_ignored: u64::from(k.is_some_and(|k| fates[k] == Fate::DuplicateReply)),
                failures: u64::from(k.is_none()),
            };
            assert_eq!(stats, expected, "{fates:?}");
            let outcome = match k.map(|k| fates[k]) {
                None => Step::GiveUp,
                Some(Fate::Down) => Step::Abort(SimTime::ZERO),
                Some(_) => Step::Done,
            };
            assert_eq!(
                std::mem::discriminant(&step),
                std::mem::discriminant(&outcome),
                "{fates:?}"
            );
            // One draw per retry, each on the call curve.
            assert_eq!(waits.len() as u64, expected.retries, "{fates:?}");
            let mut replay = SimRng::seeded(1985);
            for (n, wait) in (1..).zip(&waits) {
                assert_eq!(*wait, backoff(BASE_BACKOFF, MAX_BACKOFF, n, &mut replay));
            }
            assert_eq!(rng.next_u64(), replay.next_u64(), "{fates:?}: a stray draw");
        }
    }
}
