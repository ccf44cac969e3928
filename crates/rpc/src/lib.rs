//! Secure RPC substrate for the ITC distributed file system reproduction.
//!
//! Section 3.5.3 of the paper: *"Virtue and Vice communicate by a remote
//! procedure call mechanism. ... Whole-file transfer is implemented as a
//! side effect of a remote procedure call. ... Mutual client/server
//! authentication and end-to-end encryption facilities are integrated into
//! the RPC package."*
//!
//! This crate provides those facilities over the simulated campus network:
//!
//! * [`net`] — the node/cluster topology of Figure 2-2: workstations and
//!   servers grouped into clusters joined by a backbone through bridges.
//!   Intra-cluster messages cross no bridge; inter-cluster messages cross
//!   two.
//! * [`wire`] — a tiny self-describing serialization layer; every Vice call
//!   is genuinely encoded to bytes before it is sealed.
//! * [`binding`] — an authenticated connection between one user on one
//!   workstation and one server, established by the
//!   [`itc_cryptbox::handshake`] exchange and carrying sealed messages both
//!   ways thereafter.
//! * [`timing`] — the virtual-time charge model for a call: client-side
//!   encryption, network latency and transfer, queueing for the server CPU
//!   (the bottleneck resource identified in Section 5.2), disk, and the
//!   reply path. The server-structure ablation (process-per-client vs
//!   single-process LWP, Section 3.5.2) lives here.
//! * [`retry`] — per-call timeout, bounded exponential backoff with seeded
//!   jitter, and the call-level counters the fault experiments assert on.
//!   The paper's RPC package retransmitted over an unreliable datagram
//!   network; the reproduction retries whole calls and keeps them safe with
//!   idempotency tokens replayed from a server-side cache.
//! * [`stats`] — per-server call histograms, reproducing the Section 5.2
//!   call-mix measurement.
//! * [`frame`] — the fixed 16-byte call-frame header (idempotency token +
//!   trace id) riding ahead of every sealed request head, so the causal
//!   trace identity a client mints propagates to the server it calls.

pub mod binding;
pub mod frame;
pub mod net;
pub mod retry;
pub mod stats;
pub mod timing;
pub mod wire;

pub use binding::{establish, Binding, BindingError};
pub use frame::{frame_call, split_frame, take_frame, FRAME_HEADER_LEN};
pub use net::{ClusterId, Network, NodeId};
pub use retry::{CallStats, RetryPolicy};
pub use stats::RpcStats;
pub use timing::{CallSpec, RoundTrip, TimingKernel};
pub use wire::{WireError, WireReader, WireWriter};
