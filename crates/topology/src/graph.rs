//! The topology graph: nodes, roles, capacities and links.
//!
//! Matches the paper's resource model (§2.2): each node ν has an available
//! compute capacity `C_a(ν)` expressed in tuples/second (capacity is
//! benchmarked per node type and operator class in advance, so a single
//! scalar per node suffices), and each link carries a latency in
//! milliseconds plus an optional bandwidth budget in tuples/second.

use nova_geom::Coord;
use serde::{Deserialize, Serialize};

/// Identifier of a node in a [`Topology`], a dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's dense index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Role a node plays in the deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeRole {
    /// Data-producing node (sensor); pinned, hosts a physical stream.
    Source,
    /// General-purpose worker available for operator placement.
    Worker,
    /// Result-consuming node; pinned.
    Sink,
}

/// A node of the topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// Dense identifier.
    pub id: NodeId,
    /// Role in the deployment.
    pub role: NodeRole,
    /// Available compute capacity `C_a` in tuples/second.
    pub capacity: f64,
    /// Human-readable label (testbed site, running-example name, ...).
    pub label: String,
    /// Ground-truth geographic position used by generators to derive
    /// latencies. `None` for topologies defined purely by explicit links.
    pub geo: Option<Coord>,
    /// Region identifier for region-partitioned workloads (e.g. the
    /// environmental-monitoring join key). `None` when not applicable.
    pub region: Option<u32>,
}

/// An undirected link between two nodes.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// Other endpoint.
    pub b: NodeId,
    /// One-way latency in milliseconds.
    pub latency_ms: f64,
    /// Bandwidth budget in tuples/second; `None` = unconstrained.
    pub bandwidth: Option<f64>,
}

/// A topology of nodes and (optional) explicit links.
///
/// Topologies generated from latency matrices (testbeds) or geographic
/// models (synthetic scalability topologies) typically carry no explicit
/// links; their latencies come from an [`crate::rtt::LatencyProvider`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Adjacency: for each node, `(neighbor, link index)` pairs.
    #[serde(skip)]
    adjacency: Vec<Vec<(NodeId, u32)>>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node and return its id.
    pub fn add_node(&mut self, role: NodeRole, capacity: f64, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            role,
            capacity,
            label: label.into(),
            geo: None,
            region: None,
        });
        self.adjacency.push(Vec::new());
        id
    }

    /// Add a node with a geographic position and region tag.
    pub fn add_node_at(
        &mut self,
        role: NodeRole,
        capacity: f64,
        label: impl Into<String>,
        geo: Coord,
        region: Option<u32>,
    ) -> NodeId {
        let id = self.add_node(role, capacity, label);
        let n = &mut self.nodes[id.idx()];
        n.geo = Some(geo);
        n.region = region;
        id
    }

    /// Add an undirected link.
    ///
    /// # Panics
    /// Panics if either endpoint does not exist, the endpoints coincide,
    /// or the latency is negative/non-finite.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, latency_ms: f64, bandwidth: Option<f64>) {
        assert!(a.idx() < self.nodes.len(), "unknown node {a}");
        assert!(b.idx() < self.nodes.len(), "unknown node {b}");
        assert_ne!(a, b, "self-links are not allowed");
        assert!(
            latency_ms.is_finite() && latency_ms >= 0.0,
            "invalid latency {latency_ms}"
        );
        let link_idx = self.links.len() as u32;
        self.links.push(Link {
            a,
            b,
            latency_ms,
            bandwidth,
        });
        self.adjacency[a.idx()].push((b, link_idx));
        self.adjacency[b.idx()].push((a, link_idx));
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the topology has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes in id order.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node by id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// Mutable node access (used by re-optimization when capacities or
    /// rates change at runtime).
    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.idx()]
    }

    /// All links.
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Neighbors of `id` with the connecting link.
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = (NodeId, &Link)> + '_ {
        self.adjacency[id.idx()]
            .iter()
            .map(move |&(n, l)| (n, &self.links[l as usize]))
    }

    /// Ids of all nodes with the given role.
    pub fn nodes_with_role(&self, role: NodeRole) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.role == role)
            .map(|n| n.id)
            .collect()
    }

    /// The first sink in the topology, if any.
    pub fn sink(&self) -> Option<NodeId> {
        self.nodes
            .iter()
            .find(|n| n.role == NodeRole::Sink)
            .map(|n| n.id)
    }

    /// Look up a node by label (linear scan; intended for tests and small
    /// hand-built topologies such as the running example).
    pub fn by_label(&self, label: &str) -> Option<NodeId> {
        self.nodes.iter().find(|n| n.label == label).map(|n| n.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        let mut t = Topology::new();
        let a = t.add_node(NodeRole::Source, 10.0, "a");
        let b = t.add_node(NodeRole::Worker, 50.0, "b");
        let c = t.add_node(NodeRole::Sink, 20.0, "c");
        t.add_link(a, b, 5.0, None);
        t.add_link(b, c, 7.0, Some(100.0));
        t
    }

    #[test]
    fn node_ids_are_dense() {
        let t = tiny();
        assert_eq!(t.len(), 3);
        for (i, n) in t.nodes().iter().enumerate() {
            assert_eq!(n.id.idx(), i);
        }
    }

    #[test]
    fn neighbors_are_symmetric() {
        let t = tiny();
        let a = t.by_label("a").unwrap();
        let b = t.by_label("b").unwrap();
        let a_nbrs: Vec<NodeId> = t.neighbors(a).map(|(n, _)| n).collect();
        let b_nbrs: Vec<NodeId> = t.neighbors(b).map(|(n, _)| n).collect();
        assert_eq!(a_nbrs, vec![b]);
        assert!(b_nbrs.contains(&a));
        assert_eq!(b_nbrs.len(), 2);
    }

    #[test]
    fn roles_are_queryable() {
        let t = tiny();
        assert_eq!(t.nodes_with_role(NodeRole::Source).len(), 1);
        assert_eq!(t.nodes_with_role(NodeRole::Worker).len(), 1);
        assert_eq!(t.sink(), t.by_label("c"));
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut t = tiny();
        t.add_link(NodeId(0), NodeId(0), 1.0, None);
    }

    #[test]
    #[should_panic(expected = "invalid latency")]
    fn negative_latency_rejected() {
        let mut t = tiny();
        t.add_link(NodeId(0), NodeId(2), -1.0, None);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn out_of_range_link_rejected() {
        let mut t = tiny();
        t.add_link(NodeId(0), NodeId(99), 1.0, None);
    }
}
