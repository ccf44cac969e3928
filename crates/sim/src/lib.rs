//! Virtual-time simulation substrate for the ITC distributed file system
//! reproduction.
//!
//! The 1985 paper measured a deployed prototype: 120 workstations, 6 servers,
//! real users. This crate replaces the physical testbed with a deterministic
//! virtual-time engine. Protocol code (caching, validation, protection,
//! transfer) runs for real; only *time* is simulated. Three ideas carry the
//! whole design:
//!
//! * [`Clock`] — a shared virtual clock in microseconds. Nodes advance it as
//!   work is "performed"; nothing ever sleeps.
//! * [`Resource`] — a FIFO service center (a server CPU, a disk, a network
//!   link). A request arriving at time `t` with service demand `s` begins at
//!   `max(t, earliest_available)` and completes `s` later. This single-queue
//!   model yields contention, queueing delay and utilization — the quantities
//!   the paper reports.
//! * [`Scheduler`] — a deterministic discrete-event calendar keyed by
//!   `(SimTime, class, tie, seq)` with seeded tie-breaking. The system layer
//!   expresses each RPC as a chain of events (request departs → arrives →
//!   queues → is served → reply departs → reply arrives) so that message
//!   faults, retry timeouts, and server crash/restart schedules genuinely
//!   interleave instead of being folded into one synchronous call.
//! * [`Costs`] — every timing constant in one struct, so each ablation in the
//!   paper (software vs hardware encryption, server-side vs client-side
//!   pathname traversal, process-per-client vs LWP server) is a parameter
//!   change rather than a code fork.
//!
//! Determinism: all randomness flows through [`SimRng`], seeded explicitly.
//! Running the same experiment twice produces bit-identical results. That
//! extends to failure: [`FaultPlan`] injects message drops, duplicates,
//! delays, and server crash/restart schedules from its own seeded stream,
//! so fault scenarios — and the retries and recoveries they provoke — are
//! bit-reproducible too.

pub mod clock;
pub mod costs;
pub mod fault;
pub mod record;
pub mod resource;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod trace;

pub use clock::{Clock, SimTime};
pub use costs::{Costs, ServerStructure, TraversalMode, ValidationMode};
pub use fault::{FaultPlan, FaultStats, MessageFault, ScriptedFault};
pub use resource::{Resource, UtilizationReport};
pub use rng::SimRng;
pub use sched::{EventClass, EventId, EventKey, EventStats, Firing, Scheduler};
pub use stats::{Counter, Percentiles, RunningStats, TimeBuckets};
pub use trace::{
    AnomalyDump, AnomalyReason, HealthEvent, HealthRuleKind, Span, SpanClass, TraceCollector,
    TraceId, TraceStats,
};
