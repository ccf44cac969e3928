//! Physical layout of the system: clusters, the bridged network, servers,
//! and workstation nodes.
//!
//! [`Topology`] owns everything whose *position* matters — the network
//! graph, the Vice servers, and the node-id bookkeeping that maps
//! workstations to their clusters and home servers. Venus instances live
//! next to it (in [`crate::system::ItcSystem`]) rather than inside it so
//! the transport can borrow the topology mutably while a Venus is active.

use crate::config::SystemConfig;
use crate::proto::ServerId;
use crate::server::Server;
use crate::system::WsId;
use crate::venus::{Venus, WorkstationType};
use itc_rpc::{Network, NodeId};
use std::collections::BTreeMap;

/// The wired-up hardware of the campus: network, servers, and the node
/// identity maps.
///
/// The maps are `BTreeMap`s, not `HashMap`s: parts of the system iterate
/// them on event-emitting paths, and iteration order must be a function of
/// the seed alone, never of hasher state.
#[derive(Debug)]
pub(crate) struct Topology {
    /// The bridged cluster network.
    pub network: Network,
    /// One Vice server per cluster. In a parallel run the servers are
    /// temporarily moved out into per-cluster shards and reassembled
    /// afterwards.
    pub servers: Vec<Server>,
    /// Each server's node id, indexed by server id — readable without
    /// touching the (possibly sharded-away) server itself.
    pub server_nodes: Vec<NodeId>,
    /// Workstation node ids, indexed by [`WsId`].
    pub ws_nodes: Vec<NodeId>,
    /// Reverse map from node id to workstation index.
    pub node_to_ws: BTreeMap<NodeId, WsId>,
    /// Each workstation node's home (same-cluster) server.
    pub home: BTreeMap<NodeId, ServerId>,
}

impl Topology {
    /// Builds the network, servers, and workstations the configuration
    /// calls for: one cluster server per cluster and the configured number
    /// of workstations per cluster, alternating Sun and Vax. Returns the
    /// topology and the Venus instances (one per workstation, in
    /// [`WsId`] order).
    pub fn build(config: &SystemConfig) -> (Topology, Vec<Venus>) {
        let mut network = Network::new();
        let mut servers = Vec::new();
        let mut server_nodes = Vec::new();
        let mut clients = Vec::new();
        let mut ws_nodes = Vec::new();
        let mut node_to_ws = BTreeMap::new();
        let mut home = BTreeMap::new();

        for c in 0..config.clusters {
            let cluster = network.add_cluster();
            let srv_node = network.add_node(cluster);
            let sid = ServerId(c);
            let mut server = Server::new(sid, srv_node, config.validation, config.traversal);
            server.set_break_batching(config.callback_break_batching);
            servers.push(server);
            server_nodes.push(srv_node);
            for w in 0..config.workstations_per_cluster {
                let node = network.add_node(cluster);
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
                node_to_ws.insert(node, clients.len());
                ws_nodes.push(node);
                home.insert(node, sid);
                clients.push(venus);
            }
        }

        (
            Topology {
                network,
                servers,
                server_nodes,
                ws_nodes,
                node_to_ws,
                home,
            },
            clients,
        )
    }

    /// The server with the given id.
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[id.0 as usize]
    }
}
