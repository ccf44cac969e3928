//! The campus: everything a run only reads, built once with the per-cluster
//! shards it sits beside.
//!
//! A run's state splits in two. The **shards** are what ops write, one per
//! cluster: its [`Server`], its event core (`transport::ClusterCore`, which
//! also keeps the cluster's pending callback breaks and traffic counts) and
//! its slice of the Venus instances. The **campus** ([`Campus`]) is one
//! plain value every view borrows by `&`: the bridged network, the timing
//! kernel, the protection and location databases (replicated at every
//! server in the paper, identical, so kept once here), the node-id maps,
//! and the settings that change only between runs. Operators write the
//! campus between runs; during a run nothing does, so a parallel worker
//! shares it with no lock and copies none of it.

use crate::config::SystemConfig;
use crate::location::LocationDb;
use crate::protect::ProtectionDomain;
use crate::proto::ServerId;
use crate::server::Server;
use crate::system::WsId;
use crate::venus::{Venus, WorkstationType};
use itc_rpc::{Network, NodeId, RetryPolicy, TimingKernel};
use itc_sim::SimTime;
use std::collections::BTreeMap;

/// What every view of a run reads and none writes (see the module docs).
///
/// `node_to_ws` is a `BTreeMap`, not a `HashMap`: parts of the system
/// iterate it on event-emitting paths, and iteration order must be a
/// function of the seed alone, never of hasher state.
#[derive(Debug)]
pub(crate) struct Campus {
    /// The bridged cluster network. A workstation's home server is the
    /// server of its cluster: server id equals cluster id.
    pub net: Network,
    /// The timing kernel every leg of every call is charged through.
    pub kernel: TimingKernel,
    /// The protection database: operator actions write it between runs,
    /// and every call reads it by reference.
    pub domain: ProtectionDomain,
    /// The location database, kept once like the protection database.
    pub location: LocationDb,
    /// Each server's node id, indexed by server id — readable even for
    /// servers outside an op's mask (hop counting in `nearest`).
    pub server_nodes: Vec<NodeId>,
    /// Workstation node ids, indexed by [`WsId`].
    pub ws_nodes: Vec<NodeId>,
    /// Reverse map from node id to workstation index.
    pub node_to_ws: BTreeMap<NodeId, WsId>,
    /// The retry/backoff policy.
    pub retry: RetryPolicy,
    /// Bumped each time a fault plan is installed; lifecycle events from
    /// an earlier plan are recognized as stale and ignored.
    pub plan_gen: u64,
    /// Background-scrubber pass interval; `None` while scrubbing is off.
    pub scrub_interval: Option<SimTime>,
    /// Bumped whenever scrubbing is enabled; scrub events from an earlier
    /// cadence are recognized as stale and ignored.
    pub scrub_gen: u64,
    /// The tracing switch: while off, no trace is minted and no span,
    /// dump, attribution record or series sample is taken.
    pub tracing: bool,
    /// The traffic-monitoring switch: while on, each call is counted in
    /// its caller's cluster core (Section 3.6).
    pub monitoring: bool,
}

impl Campus {
    /// Builds the network, servers, and workstations the configuration
    /// calls for: one cluster server per cluster and the configured number
    /// of workstations per cluster, alternating Sun and Vax. Returns the
    /// campus, the servers (in [`ServerId`] order) and the Venus instances
    /// cluster by cluster (see [`Campus::venus_slot`]).
    pub fn build(config: &SystemConfig) -> (Campus, Vec<Server>, Vec<Vec<Venus>>) {
        let mut net = Network::new();
        let mut servers = Vec::new();
        let mut server_nodes = Vec::new();
        let mut clients: Vec<Vec<Venus>> = Vec::new();
        let mut ws_nodes = Vec::new();
        let mut node_to_ws = BTreeMap::new();

        for c in 0..config.clusters {
            let cluster = net.add_cluster();
            let srv_node = net.add_node(cluster);
            let mut server =
                Server::new(ServerId(c), srv_node, config.validation, config.traversal);
            server.set_break_batching(config.callback_break_batching);
            servers.push(server);
            server_nodes.push(srv_node);
            clients.push(Vec::new());
            for w in 0..config.workstations_per_cluster {
                let node = net.add_node(cluster);
                let ws_type = if (c + w) % 2 == 0 {
                    WorkstationType::Sun
                } else {
                    WorkstationType::Vax
                };
                let mut venus = Venus::with_write_policy(
                    node,
                    ws_type,
                    config.cache,
                    config.validation,
                    config.traversal,
                    config.costs.clone(),
                    config.write_policy,
                );
                // The reconnect-jitter seed is derived arithmetically (no
                // draw from any shared stream), so adding it cannot shift
                // the timing of existing runs.
                venus.seed_reconnect_jitter(
                    config
                        .seed
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(u64::from(node.0)),
                );
                node_to_ws.insert(node, ws_nodes.len());
                ws_nodes.push(node);
                clients[c as usize].push(venus);
            }
        }

        let campus = Campus {
            net,
            kernel: TimingKernel::new(config.costs.clone(), config.structure, config.encryption),
            domain: ProtectionDomain::new(),
            location: LocationDb::new(),
            server_nodes,
            ws_nodes,
            node_to_ws,
            retry: RetryPolicy::standard(config.costs.rpc_timeout),
            plan_gen: 0,
            scrub_interval: None,
            scrub_gen: 0,
            tracing: config.tracing,
            monitoring: false,
        };
        (campus, servers, clients)
    }

    /// Where workstation `ws`'s Venus lives: `(cluster, index)` into the
    /// per-cluster slices. Every cluster has the same number of
    /// workstations, numbered cluster by cluster.
    pub fn venus_slot(&self, ws: WsId) -> (usize, usize) {
        let per = self.ws_nodes.len() / self.server_nodes.len();
        (ws / per, ws % per)
    }
}
