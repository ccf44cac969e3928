//! Assembly of the full system, decomposed into layers:
//!
//! * `topology` — clusters, the bridged network, servers, and node wiring;
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
//! ## Time model
//!
//! Each workstation keeps its own local virtual time (operations at one
//! workstation are strictly sequential); server CPUs and disks are shared
//! FIFO resources, so concurrent clients contend there. The global
//! [`Clock`] tracks the high-water mark for utilization windows. Callback
//! breaks are scheduled as calendar events when the triggering store
//! completes and applied functionally at the end of the operation; their
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
use crate::monitor::TrafficMonitor;
use crate::protect::{AccessList, ProtectionDomain, ProtectionServer, Rights};
use crate::proto::ServerId;
use crate::server::Server;
use crate::surrogate::Surrogate;
use crate::venus::{Venus, VenusError};
use itc_rpc::TimingKernel;
use itc_sim::{Clock, SimTime};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use self::topology::Topology;
use self::transport::EventCore;

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

/// The assembled system.
#[derive(Debug)]
pub struct ItcSystem {
    config: SystemConfig,
    topo: Topology,
    clients: Vec<Venus>,
    clock: Arc<Clock>,
    kernel: TimingKernel,
    domain: Arc<RwLock<ProtectionDomain>>,
    pserver: ProtectionServer,
    core: EventCore,
    next_volume: u32,
    surrogates: HashMap<WsId, Surrogate>,
    monitor: Option<TrafficMonitor>,
    /// What the last `run_drivers` did (observation only).
    executor: parallel::ExecutorStats,
}

impl ItcSystem {
    /// Builds a system: one cluster server per cluster, the configured
    /// number of workstations per cluster (alternating Sun and Vax), a
    /// root volume mounted at `/vice` on server 0, and the standard
    /// `/vice/usr`, `/vice/unix/<arch>/{bin,lib}` skeleton.
    pub fn build(config: SystemConfig) -> ItcSystem {
        let domain = Arc::new(RwLock::new(ProtectionDomain::new()));
        let (topo, clients) = Topology::build(&config, &domain);
        let pserver = ProtectionServer::new(Arc::clone(&domain), config.clusters);
        let kernel = TimingKernel::new(config.costs.clone(), config.structure, config.encryption);
        let mut core = EventCore::new(config.seed, config.costs.rpc_timeout, config.clusters);
        for cluster in &mut core.clusters {
            cluster.trace.set_enabled(config.tracing);
        }
        let mut sys = ItcSystem {
            topo,
            clients,
            clock: Clock::new(),
            kernel,
            domain,
            pserver,
            core,
            config,
            next_volume: 1,
            surrogates: HashMap::new(),
            monitor: None,
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
        self.clients.len()
    }

    /// Number of servers (== clusters).
    pub fn server_count(&self) -> usize {
        self.topo.servers.len()
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

    /// The global clock.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// A workstation's local virtual time.
    pub fn ws_time(&self, ws: WsId) -> SimTime {
        self.clients[ws].now()
    }

    /// Direct read access to a workstation's Venus (for metrics/tests).
    pub fn venus(&self, ws: WsId) -> &Venus {
        &self.clients[ws]
    }

    /// Mutable Venus access (e.g. installing user symlinks in examples).
    pub fn venus_mut(&mut self, ws: WsId) -> &mut Venus {
        &mut self.clients[ws]
    }

    /// Direct read access to a server.
    pub fn server(&self, id: ServerId) -> &Server {
        self.topo.server(id)
    }

    /// Total calls of a kind served across all servers.
    pub fn total_server_calls_of(&self, kind: &str) -> u64 {
        self.topo
            .servers
            .iter()
            .map(|s| s.stats().calls_of(kind))
            .sum()
    }
}
