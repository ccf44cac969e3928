//! The ITC distributed file system — the contribution of Satyanarayanan,
//! Howard, Nichols, Sidebotham, Spector & West, *The ITC Distributed File
//! System: Principles and Design*, SOSP 1985 (the system later known as the
//! Andrew File System).
//!
//! Two halves:
//!
//! * **Vice** ([`server`]) — the trusted "amoeba" of cluster servers. Each
//!   server is the *custodian* of the [`volume`]s it stores, answers
//!   location queries from a replicated [`location`] database, enforces
//!   per-directory access lists over a recursive user/group [`protect`]ion
//!   domain, and — in the revised design — tracks callback promises so it
//!   can invalidate workstation caches on update.
//! * **Virtue/Venus** ([`venus`]) — the untrusted workstation. Venus caches
//!   **entire files** on the local disk, contacts custodians only at open
//!   and close, serves reads and writes from the cache, and stores files
//!   back on close.
//!
//! The [`proto`] module defines the Vice-Virtue interface: the calls, their
//! wire encodings, and the status/error types. [`system`] assembles
//! clusters of servers and workstations into a runnable [`system::ItcSystem`]
//! with a shared virtual clock, and [`config`] selects between the
//! prototype's design choices and the revised implementation's (validation
//! mode, pathname traversal site, server structure, cache policy,
//! encryption) so each of the paper's ablations is a one-field change.
//!
//! # Quick start
//!
//! ```
//! use itc_core::config::SystemConfig;
//! use itc_core::system::ItcSystem;
//!
//! // Two clusters, one server each, two workstations per cluster.
//! let mut sys = ItcSystem::build(SystemConfig::small_campus(2, 2));
//! sys.add_user("satya", "correct-horse").unwrap();
//! let ws = sys.workstation_in_cluster(0);
//! sys.login(ws, "satya", "correct-horse").unwrap();
//!
//! // Create and read back a file in the shared name space. Workstation
//! // operations go through one door, `sys.ops()`.
//! let mut ops = sys.ops();
//! ops.mkdir_p(ws, "/vice/usr/satya/doc").unwrap();
//! ops.store(ws, "/vice/usr/satya/doc/paper.tex", b"caching works".to_vec())
//!     .unwrap();
//! let data = ops.fetch(ws, "/vice/usr/satya/doc/paper.tex").unwrap();
//! assert_eq!(data, b"caching works");
//!
//! // A second open is a cache hit: no fetch call reaches any server.
//! let fetches_before = sys.total_server_calls_of("fetch");
//! let _ = sys.ops().fetch(ws, "/vice/usr/satya/doc/paper.tex").unwrap();
//! assert_eq!(sys.total_server_calls_of("fetch"), fetches_before);
//! ```

pub mod config;
pub mod disk;
pub mod location;
pub mod metrics;
pub mod monitor;
pub mod obs;
pub mod protect;
pub mod proto;
pub mod server;
pub mod surrogate;
pub mod system;
pub mod trace;
pub mod venus;
pub mod volume;

pub use config::SystemConfig;
pub use obs::{ObsCore, ObsLine, ObsSummary};
pub use proto::{VStatus, ViceError, ViceReply, ViceRequest};
pub use system::ItcSystem;
pub use trace::{AttributionRow, AttributionSummary, CallBreakdown};
