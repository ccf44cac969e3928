//! The simulated campus network topology of Figure 2-2.
//!
//! Vice is "composed of a collection of semi-autonomous Clusters connected
//! together by a backbone LAN"; bridges route between cluster segments and
//! the backbone, and "the detailed topology of the network is invisible to
//! workstations" — all of Vice is logically one network. Here the topology
//! only determines *cost*: a message between nodes in the same cluster
//! crosses zero bridges; between clusters it crosses two (cluster → backbone
//! → cluster).

/// Identifies a cluster (one LAN segment plus its bridge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(pub u32);

/// Identifies a network node (workstation or server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// The cluster/backbone topology: which cluster each node lives on.
#[derive(Debug, Default, Clone)]
pub struct Network {
    node_cluster: Vec<ClusterId>,
    clusters: u32,
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Network {
        Network::default()
    }

    /// Adds a cluster segment, returning its id.
    pub fn add_cluster(&mut self) -> ClusterId {
        let id = ClusterId(self.clusters);
        self.clusters += 1;
        id
    }

    /// Attaches a node to a cluster, returning its id.
    ///
    /// # Panics
    /// Panics if the cluster does not exist.
    pub fn add_node(&mut self, cluster: ClusterId) -> NodeId {
        assert!(cluster.0 < self.clusters, "unknown cluster {cluster:?}");
        let id = NodeId(self.node_cluster.len() as u32);
        self.node_cluster.push(cluster);
        id
    }

    /// The cluster a node is attached to.
    ///
    /// # Panics
    /// Panics if the node does not exist.
    pub fn cluster_of(&self, node: NodeId) -> ClusterId {
        self.node_cluster[node.0 as usize]
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
        let mut net = Network::new();
        let c0 = net.add_cluster();
        let c1 = net.add_cluster();
        let ws0 = net.add_node(c0);
        let srv0 = net.add_node(c0);
        let srv1 = net.add_node(c1);
        assert_eq!(net.hops(ws0, srv0), 0);
        assert_eq!(net.hops(ws0, srv1), 2);
        assert_eq!(net.hops(srv1, ws0), 2);
        assert_eq!(net.hops(ws0, ws0), 0);
        assert_eq!(net.cluster_of(srv1), c1);
    }

    #[test]
    #[should_panic(expected = "unknown cluster")]
    fn unknown_cluster_rejected() {
        let mut net = Network::new();
        net.add_node(ClusterId(0));
    }
}
