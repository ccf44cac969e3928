//! Assembly of the full system, decomposed into layers:
//!
//! * `topology` — the campus (network, timing kernel, the protection and
//!   location databases, node wiring, run settings) built beside the
//!   per-cluster servers and Venus instances;
//! * `transport` — the event-driven RPC transport: every Vice call is a
//!   chain of scheduler events (request departs → arrives → queues → is
//!   served → reply departs → arrives, or its retry timer fires) over
//!   per-cluster calendars;
//! * `lifecycle` — what else lives on those calendars: fault plans,
//!   scheduled crashes and restarts, salvage passes, corruption, the
//!   scrubber, and callback-break deliveries;
//! * `observe` — every span, gauge and attribution record of a call, one
//!   function per event, observation-only;
//! * `parallel` — [`parallel::WsOps`], the one implementation of the
//!   workstation system-call surface, and `run_drivers`, the one scheduler
//!   of workstation operations (sequential reference and conservative
//!   parallel execution);
//! * `ops` — the workstation calls with a body of their own (logout,
//!   workstation crashes, the surrogate service for PCs);
//! * `admin` — operator actions (users, volumes, replication, fault
//!   plans, monitoring, metrics).
//!
//! [`ItcSystem`] is what experiments and examples build and administer.
//! Workstation operations go through one door, [`ItcSystem::ops`], a
//! whole-system [`parallel::WsOps`] view: each op takes a workstation id,
//! runs the Venus logic (which may issue authenticated RPCs through the
//! simulated network), advances virtual time, and afterwards delivers any
//! callback breaks the touched server generated.
//!
//! ## Shards and the campus
//!
//! A run's state is two things. The per-cluster **shards** are what its
//! ops write: each cluster's [`Server`], its event core (with the callback
//! breaks bound for its workstations and the traffic counts of their
//! calls) and its slice of the Venus instances. The **campus** is one plain value they only read,
//! lent to every view by `&`: the network, the timing kernel, the
//! protection and location databases (the paper replicates both at every
//! server; the replicas are identical, so each is kept once), and the
//! settings that change only between runs (fault-plan and scrub
//! generations, the tracing and monitoring switches). Nothing is
//! stored that the run determines: node ids are arithmetic over the
//! uniform campus, and every server and Venus is built from the one
//! [`SystemConfig`].
//! Operator actions write the campus between runs; a view — sequential or
//! a parallel worker's — holds its shards and one reference to it, and
//! copies none of its fields.
//!
//! ## Time model
//!
//! Each workstation keeps its own local virtual time (operations at one
//! workstation are strictly sequential); server CPUs and disks are shared
//! FIFO resources, so concurrent clients contend there. The system's time,
//! [`ItcSystem::now`], is the high-water mark utilization windows are
//! measured against: the latest of every workstation's clock and the
//! operator actions' high-water. It is computed when asked (by operator
//! actions and readers, never per op), so no op writes it, and a parallel
//! run reads the same value as the sequential one. Callback
//! breaks are scheduled as calendar events when the triggering store
//! completes and applied functionally at the end of the operation, in any
//! order (invalidations commute); their
//! network cost is charged, but a lagging workstation's local clock is not
//! dragged forward (breaks are asynchronous notifications).

mod admin;
mod lifecycle;
mod observe;
mod ops;
pub mod parallel;
#[cfg(test)]
mod tests;
mod topology;
mod transport;

use crate::config::SystemConfig;
use crate::protect::domain::DomainError;
use crate::protect::{AccessList, Rights};
use crate::proto::ServerId;
use crate::server::Server;
use crate::surrogate::Surrogate;
use crate::venus::{Venus, VenusError};
use itc_sim::SimTime;
use std::collections::HashMap;

use self::topology::Campus;
use self::transport::ClusterCore;

/// Index of a workstation within the system.
pub type WsId = usize;

/// Errors from system-level (administrative) operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// Venus-level failure.
    Venus(VenusError),
    /// Protection domain failure (duplicate user, unknown principal...).
    Domain(String),
    /// Authentication failed at login.
    AuthFailed(String),
    /// Volume administration failure.
    Volume(String),
    /// No such workstation/server.
    BadId(String),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Venus(e) => write!(f, "{e}"),
            SystemError::Domain(m) => write!(f, "protection domain: {m}"),
            SystemError::AuthFailed(m) => write!(f, "authentication failed: {m}"),
            SystemError::Volume(m) => write!(f, "volume: {m}"),
            SystemError::BadId(m) => write!(f, "bad id: {m}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<VenusError> for SystemError {
    fn from(e: VenusError) -> Self {
        SystemError::Venus(e)
    }
}

impl From<DomainError> for SystemError {
    fn from(e: DomainError) -> Self {
        SystemError::Domain(e.to_string())
    }
}

/// The assembled system.
#[derive(Debug)]
pub struct ItcSystem {
    config: SystemConfig,
    /// What a run only reads (see "Shards and the campus").
    campus: Campus,
    /// One Vice server per cluster, indexed by server id (== cluster id).
    servers: Vec<Server>,
    /// One event core per cluster, indexed by cluster id.
    cores: Vec<ClusterCore>,
    /// One Venus per workstation, per cluster (see [`Campus::venus_slot`]).
    clients: Vec<Vec<Venus>>,
    /// High-water of the operator actions' completion times; each
    /// workstation keeps its own clock (see "Time model").
    operator_now: SimTime,
    next_volume: u32,
    surrogates: HashMap<WsId, Surrogate>,
    /// What the last `run_drivers` did (observation only).
    executor: parallel::ExecutorStats,
}

impl ItcSystem {
    /// Builds a system: one cluster server per cluster, the configured
    /// number of workstations per cluster (alternating Sun and Vax), a
    /// root volume mounted at `/vice` on server 0, and the standard
    /// `/vice/usr`, `/vice/unix/<arch>/{bin,lib}` skeleton.
    pub fn build(config: SystemConfig) -> ItcSystem {
        let (campus, servers, clients) = Campus::build(&config);
        let cores = (0..config.clusters)
            .map(|c| ClusterCore::new(config.seed, c))
            .collect();
        let mut sys = ItcSystem {
            campus,
            servers,
            cores,
            clients,
            operator_now: SimTime::ZERO,
            config,
            next_volume: 1,
            surrogates: HashMap::new(),
            executor: parallel::ExecutorStats::default(),
        };

        // Root volume: everyone may read and insert; nobody but explicit
        // grants may administer.
        let mut root_acl = AccessList::new();
        root_acl.grant("anyuser", Rights::ALL.minus(Rights::ADMINISTER));
        sys.create_volume("vice.root", "/vice", ServerId(0), root_acl)
            .expect("fresh system");
        // Standard skeleton.
        sys.admin_mkdir_p("/vice/usr").expect("fresh system");
        sys.admin_mkdir_p("/vice/tmp").expect("fresh system");
        for arch in ["sun", "vax", "ibmpc"] {
            sys.admin_mkdir_p(&format!("/vice/unix/{arch}/bin"))
                .expect("fresh system");
            sys.admin_mkdir_p(&format!("/vice/unix/{arch}/lib"))
                .expect("fresh system");
        }
        sys
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The configuration the system was built with.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Number of workstations.
    pub fn workstation_count(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }

    /// Number of servers (== clusters).
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// The first workstation of the given cluster.
    pub fn workstation_in_cluster(&self, cluster: u32) -> WsId {
        (cluster * self.config.workstations_per_cluster) as WsId
    }

    /// All workstations of the given cluster.
    pub fn workstations_in_cluster(&self, cluster: u32) -> Vec<WsId> {
        let start = self.workstation_in_cluster(cluster);
        (start..start + self.config.workstations_per_cluster as usize).collect()
    }

    /// The system's time: the latest instant any workstation or any
    /// operator action has reached. O(workstations): operator actions and
    /// readers call it, never an op.
    pub fn now(&self) -> SimTime {
        let clocks = self.clients.iter().flatten().map(Venus::now);
        clocks.fold(self.operator_now, SimTime::max)
    }

    /// A workstation's local virtual time.
    pub fn ws_time(&self, ws: WsId) -> SimTime {
        self.venus(ws).now()
    }

    /// Direct read access to a workstation's Venus (for metrics/tests).
    pub fn venus(&self, ws: WsId) -> &Venus {
        let (cluster, i) = self.campus.venus_slot(ws);
        &self.clients[cluster][i]
    }

    /// Mutable Venus access (e.g. installing user symlinks in examples).
    pub fn venus_mut(&mut self, ws: WsId) -> &mut Venus {
        let (cluster, i) = self.campus.venus_slot(ws);
        &mut self.clients[cluster][i]
    }

    /// Direct read access to a server.
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.0 as usize]
    }

    /// Total calls of a kind served across all servers.
    pub fn total_server_calls_of(&self, kind: &str) -> u64 {
        self.servers.iter().map(|s| s.stats().calls_of(kind)).sum()
    }
}
