//! The simulated campus network topology of Figure 2-2.
//!
//! Vice is "composed of a collection of semi-autonomous Clusters connected
//! together by a backbone LAN"; bridges route between cluster segments and
//! the backbone, and "the detailed topology of the network is invisible to
//! workstations" — all of Vice is logically one network. Here the topology
//! only determines *cost*: a message between nodes in the same cluster
//! crosses zero bridges; between clusters it crosses two (cluster → backbone
//! → cluster).
//!
//! The campus is uniform — every cluster is one server followed by the same
//! number of workstations — so a node's id, its cluster and its workstation
//! index are arithmetic, and the network stores nothing per node. Cluster
//! `c` holds node `c·(per+1)` (its server) then the next `per` nodes (its
//! workstations, numbered across the campus cluster by cluster).

/// Identifies a cluster (one LAN segment plus its bridge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u32);

/// Identifies a network node (workstation or server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// The uniform cluster/backbone topology: one server and `per_cluster`
/// workstations per cluster, laid out cluster by cluster.
#[derive(Debug, Clone, Copy)]
pub struct Network {
    per_cluster: u32,
}

impl Network {
    /// A campus whose clusters each hold one server and `per_cluster`
    /// workstations.
    pub fn uniform(per_cluster: u32) -> Network {
        Network { per_cluster }
    }

    /// Workstations per cluster.
    pub fn per_cluster(&self) -> u32 {
        self.per_cluster
    }

    /// Nodes per cluster: its server and its workstations.
    fn stride(&self) -> u32 {
        self.per_cluster + 1
    }

    /// The node of cluster `cluster`'s server.
    pub fn server_node(&self, cluster: u32) -> NodeId {
        NodeId(cluster * self.stride())
    }

    /// The node of workstation `ws` (workstations are numbered cluster by
    /// cluster, each cluster's after its server).
    pub fn ws_node(&self, ws: usize) -> NodeId {
        let ws = ws as u32;
        NodeId(ws + ws / self.per_cluster + 1)
    }

    /// The workstation at `node`, or `None` for a server node.
    pub fn ws_of(&self, node: NodeId) -> Option<usize> {
        let slot = node.0 % self.stride();
        (slot != 0).then(|| (node.0 / self.stride() * self.per_cluster + slot - 1) as usize)
    }

    /// The cluster a node is attached to.
    pub fn cluster_of(&self, node: NodeId) -> ClusterId {
        ClusterId(node.0 / self.stride())
    }

    /// Number of bridges a message from `a` to `b` crosses: 0 within a
    /// cluster, 2 across clusters (sender's bridge onto the backbone, then
    /// the receiver's bridge off it).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        if self.cluster_of(a) == self.cluster_of(b) {
            0
        } else {
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_hops() {
        let net = Network::uniform(1);
        let srv0 = net.server_node(0);
        let ws0 = net.ws_node(0);
        let srv1 = net.server_node(1);
        assert_eq!(net.hops(ws0, srv0), 0);
        assert_eq!(net.hops(ws0, srv1), 2);
        assert_eq!(net.hops(srv1, ws0), 2);
        assert_eq!(net.hops(ws0, ws0), 0);
        assert_eq!(net.cluster_of(srv1), ClusterId(1));
    }

    #[test]
    fn workstation_and_node_ids_round_trip() {
        for per in 1..5 {
            let net = Network::uniform(per);
            for w in 0..4 * per as usize {
                let node = net.ws_node(w);
                assert_eq!(net.ws_of(node), Some(w));
                assert_eq!(net.cluster_of(node), ClusterId(w as u32 / per));
            }
            for c in 0..4 {
                let node = net.server_node(c);
                assert_eq!(net.ws_of(node), None);
                assert_eq!(net.cluster_of(node), ClusterId(c));
            }
        }
    }
}
