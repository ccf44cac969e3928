//! The campus: everything a run only reads, built once with the per-cluster
//! shards it sits beside.
//!
//! A run's state splits in two. The **shards** are what ops write, one per
//! cluster: its [`Server`], its event core (`transport::ClusterCore`, which
//! also keeps the cluster's pending callback breaks and traffic counts) and
//! its slice of the Venus instances. The **campus** ([`Campus`]) is one
//! plain value every view borrows by `&`: the bridged network, the timing
//! kernel, the protection and location databases (replicated at every
//! server in the paper, identical, so kept once here), and the settings
//! that change only between runs. Node ids are not stored: the campus is
//! uniform, so [`Network`] computes each node's id, cluster and
//! workstation index. Operators write the campus between runs; during a
//! run nothing does, so a parallel worker shares it with no lock and
//! copies none of it.

use crate::config::SystemConfig;
use crate::location::LocationDb;
use crate::protect::ProtectionDomain;
use crate::proto::ServerId;
use crate::server::Server;
use crate::system::WsId;
use crate::venus::{Venus, WorkstationType};
use itc_rpc::{Network, TimingKernel};
use itc_sim::SimTime;

/// What every view of a run reads and none writes (see the module docs).
#[derive(Debug)]
pub(crate) struct Campus {
    /// The bridged cluster network, which also numbers its nodes. A
    /// workstation's home server is the server of its cluster: server id
    /// equals cluster id.
    pub net: Network,
    /// The timing kernel every leg of every call is charged through.
    pub kernel: TimingKernel,
    /// The protection database: operator actions write it between runs,
    /// and every call reads it by reference.
    pub domain: ProtectionDomain,
    /// The location database, kept once like the protection database.
    pub location: LocationDb,
    /// Bumped each time a fault plan is installed; lifecycle events from
    /// an earlier plan are recognized as stale and ignored.
    pub plan_gen: u64,
    /// Background-scrubber pass interval; `None` while scrubbing is off.
    pub scrub_interval: Option<SimTime>,
    /// Bumped whenever scrubbing is enabled; scrub events from an earlier
    /// cadence are recognized as stale and ignored.
    pub scrub_gen: u64,
    /// The tracing switch, set only by `ItcSystem::{enable,disable}_tracing`:
    /// while off, no trace is minted and no span, dump, attribution record
    /// or series sample is taken.
    pub tracing: bool,
    /// The traffic-monitoring switch: while on, each call is counted in
    /// its caller's cluster core (Section 3.6).
    pub monitoring: bool,
}

impl Campus {
    /// Builds the network, servers, and workstations the configuration
    /// calls for: one cluster server per cluster and the configured number
    /// of workstations per cluster, alternating Sun and Vax, each built
    /// from `config`. Returns the campus, the servers (in [`ServerId`]
    /// order) and the Venus instances cluster by cluster (see
    /// [`Campus::venus_slot`]).
    pub fn build(config: &SystemConfig) -> (Campus, Vec<Server>, Vec<Vec<Venus>>) {
        let per = config.workstations_per_cluster;
        let net = Network::uniform(per);
        let servers = (0..config.clusters)
            .map(|c| Server::new(ServerId(c), net.server_node(c), config))
            .collect();
        let workstation = |c: u32, w: u32| {
            let node = net.ws_node((c * per + w) as usize);
            let ws_type = if (c + w).is_multiple_of(2) {
                WorkstationType::Sun
            } else {
                WorkstationType::Vax
            };
            Venus::new(node, ws_type, config)
        };
        let clients = (0..config.clusters)
            .map(|c| (0..per).map(|w| workstation(c, w)).collect())
            .collect();

        let campus = Campus {
            net,
            kernel: TimingKernel::new(config.costs.clone(), config.structure, config.encryption),
            domain: ProtectionDomain::new(),
            location: LocationDb::new(),
            plan_gen: 0,
            scrub_interval: None,
            scrub_gen: 0,
            tracing: false,
            monitoring: false,
        };
        (campus, servers, clients)
    }

    /// Where workstation `ws`'s Venus lives: `(cluster, index)` into the
    /// per-cluster slices. Every cluster has the same number of
    /// workstations, numbered cluster by cluster.
    pub fn venus_slot(&self, ws: WsId) -> (usize, usize) {
        let per = self.net.per_cluster() as usize;
        (ws / per, ws % per)
    }
}
