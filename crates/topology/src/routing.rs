//! Shortest-path routing over explicit topology links.
//!
//! Path delay in the paper is "approximated by the sum of link latencies
//! along the route" (§2.2). For topologies built from explicit links (the
//! running example, edge–fog–cloud layouts, MST overlays of the tree
//! baselines) this module computes those sums with Dijkstra's algorithm.

use std::collections::BinaryHeap;

use crate::graph::{NodeId, Topology};

/// Result of a single-source shortest-path computation.
#[derive(Debug, Clone)]
pub struct PathResult {
    /// Distance (ms) from the source to every node; `f64::INFINITY` for
    /// unreachable nodes.
    pub dist: Vec<f64>,
    /// Predecessor of every node on its shortest path; `None` for the
    /// source itself and unreachable nodes.
    pub prev: Vec<Option<NodeId>>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct QueueEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the smallest first.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Dijkstra single-source shortest paths from `source` over the explicit
/// links of `topology`, using link latency as the edge weight.
pub fn dijkstra(topology: &Topology, source: NodeId) -> PathResult {
    let n = topology.len();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[source.idx()] = 0.0;
    heap.push(QueueEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(QueueEntry { dist: d, node }) = heap.pop() {
        if visited[node.idx()] {
            continue;
        }
        visited[node.idx()] = true;
        for (nbr, link) in topology.neighbors(node) {
            let nd = d + link.latency_ms;
            if nd < dist[nbr.idx()] {
                dist[nbr.idx()] = nd;
                prev[nbr.idx()] = Some(node);
                heap.push(QueueEntry {
                    dist: nd,
                    node: nbr,
                });
            }
        }
    }
    PathResult { dist, prev }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeRole;

    /// Diamond: a -1- b -1- d, a -5- c -1- d. Shortest a→d is via b (2ms).
    fn diamond() -> (Topology, [NodeId; 4]) {
        let mut t = Topology::new();
        let a = t.add_node(NodeRole::Source, 1.0, "a");
        let b = t.add_node(NodeRole::Worker, 1.0, "b");
        let c = t.add_node(NodeRole::Worker, 1.0, "c");
        let d = t.add_node(NodeRole::Sink, 1.0, "d");
        t.add_link(a, b, 1.0, None);
        t.add_link(b, d, 1.0, None);
        t.add_link(a, c, 5.0, None);
        t.add_link(c, d, 1.0, None);
        (t, [a, b, c, d])
    }

    #[test]
    fn shortest_route_is_taken() {
        let (t, [a, _, _, d]) = diamond();
        assert_eq!(dijkstra(&t, a).dist[d.idx()], 2.0);
    }

    #[test]
    fn path_reconstruction_follows_predecessors() {
        let (t, [a, b, _, d]) = diamond();
        let r = dijkstra(&t, a);
        assert_eq!(r.prev[d.idx()], Some(b));
        assert_eq!(r.prev[b.idx()], Some(a));
        assert_eq!(r.prev[a.idx()], None);
    }

    #[test]
    fn unreachable_nodes_are_infinite() {
        let mut t = Topology::new();
        let a = t.add_node(NodeRole::Source, 1.0, "a");
        let b = t.add_node(NodeRole::Sink, 1.0, "b");
        let r = dijkstra(&t, a);
        assert_eq!(r.dist[b.idx()], f64::INFINITY);
        assert_eq!(r.prev[b.idx()], None);
    }

    #[test]
    fn self_distance_is_zero() {
        let (t, [a, ..]) = diamond();
        assert_eq!(dijkstra(&t, a).dist[a.idx()], 0.0);
    }

    #[test]
    fn zero_latency_links_are_valid() {
        let mut t = Topology::new();
        let a = t.add_node(NodeRole::Source, 1.0, "a");
        let b = t.add_node(NodeRole::Sink, 1.0, "b");
        t.add_link(a, b, 0.0, None);
        assert_eq!(dijkstra(&t, a).dist[b.idx()], 0.0);
    }

    #[test]
    fn distances_satisfy_triangle_inequality_over_graph() {
        let (t, ids) = diamond();
        for &x in &ids {
            let rx = dijkstra(&t, x);
            for &y in &ids {
                let ry = dijkstra(&t, y);
                for &z in &ids {
                    assert!(rx.dist[z.idx()] <= rx.dist[y.idx()] + ry.dist[z.idx()] + 1e-12);
                }
            }
        }
    }
}
