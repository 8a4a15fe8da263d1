//! Minimum spanning trees over the latency graph.
//!
//! The WSN-derived baselines route data over tree overlays: the *Tree*
//! baseline builds an MST over the whole topology and joins streams at
//! path intersections \[49\], while *Cl-Tree-SF* builds an MST over cluster
//! heads. Prim's algorithm in its O(n²) dense form is used because the
//! latency graph is complete (every node can reach every other); this is
//! also why these baselines blow past the paper's 10-minute timeout for
//! topologies beyond ~20 k nodes (Fig. 10) — the cost is inherent to the
//! approach, not to this implementation.

use std::collections::HashMap;

use crate::graph::NodeId;
use crate::rtt::LatencyProvider;

/// Minimum spanning tree over the complete latency graph restricted to
/// `members`, as `(a, b, latency)` edges. Uses Prim's algorithm in O(m²)
/// for m members.
pub fn minimum_spanning_tree(
    members: &[NodeId],
    provider: &impl LatencyProvider,
) -> Vec<(NodeId, NodeId, f64)> {
    let m = members.len();
    if m <= 1 {
        return Vec::new();
    }
    let mut in_tree = vec![false; m];
    // best[i] = (cost to connect member i, index of its tree-side parent)
    let mut best: Vec<(f64, usize)> = vec![(f64::INFINITY, usize::MAX); m];
    let mut edges = Vec::with_capacity(m - 1);
    in_tree[0] = true;
    for i in 1..m {
        best[i] = (provider.rtt(members[0], members[i]), 0);
    }
    for _ in 1..m {
        // Cheapest not-yet-connected member.
        let mut pick = usize::MAX;
        let mut pick_cost = f64::INFINITY;
        for i in 0..m {
            if !in_tree[i] && best[i].0 < pick_cost {
                pick_cost = best[i].0;
                pick = i;
            }
        }
        if pick == usize::MAX {
            break; // disconnected (infinite latencies)
        }
        in_tree[pick] = true;
        edges.push((members[best[pick].1], members[pick], pick_cost));
        for i in 0..m {
            if !in_tree[i] {
                let c = provider.rtt(members[pick], members[i]);
                if c < best[i].0 {
                    best[i] = (c, pick);
                }
            }
        }
    }
    edges
}

/// A tree overlay rooted at a chosen node, supporting lowest-common-
/// ancestor queries and path latencies — the primitives the Tree baseline
/// needs to decide where two streams "meet" on their way to the sink.
#[derive(Debug, Clone)]
pub struct RootedTree {
    /// Members in insertion order.
    nodes: Vec<NodeId>,
    index: HashMap<NodeId, usize>,
    parent: Vec<usize>,
    parent_latency: Vec<f64>,
    depth: Vec<u32>,
    root: usize,
}

impl RootedTree {
    /// Build a rooted overlay from MST edges.
    ///
    /// # Panics
    /// Panics if `root` does not appear in the edge set (unless the edge
    /// set is empty and `root` is the only node).
    pub fn from_edges(root: NodeId, edges: &[(NodeId, NodeId, f64)]) -> Self {
        let mut index: HashMap<NodeId, usize> = HashMap::new();
        let mut nodes = Vec::new();
        let touch = |id: NodeId, nodes: &mut Vec<NodeId>, index: &mut HashMap<NodeId, usize>| {
            *index.entry(id).or_insert_with(|| {
                nodes.push(id);
                nodes.len() - 1
            })
        };
        touch(root, &mut nodes, &mut index);
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new()];
        for &(a, b, w) in edges {
            let ia = touch(a, &mut nodes, &mut index);
            if adj.len() < nodes.len() {
                adj.resize(nodes.len(), Vec::new());
            }
            let ib = touch(b, &mut nodes, &mut index);
            if adj.len() < nodes.len() {
                adj.resize(nodes.len(), Vec::new());
            }
            adj[ia].push((ib, w));
            adj[ib].push((ia, w));
        }
        let n = nodes.len();
        let mut parent = vec![usize::MAX; n];
        let mut parent_latency = vec![0.0; n];
        let mut depth = vec![0u32; n];
        let mut visited = vec![false; n];
        let root_idx = index[&root];
        let mut stack = vec![root_idx];
        visited[root_idx] = true;
        parent[root_idx] = root_idx;
        while let Some(u) = stack.pop() {
            for &(v, w) in &adj[u] {
                if !visited[v] {
                    visited[v] = true;
                    parent[v] = u;
                    parent_latency[v] = w;
                    depth[v] = depth[u] + 1;
                    stack.push(v);
                }
            }
        }
        assert!(
            visited.iter().all(|&v| v),
            "tree edges do not form a single connected component containing the root"
        );
        RootedTree {
            nodes,
            index,
            parent,
            parent_latency,
            depth,
            root: root_idx,
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.nodes[self.root]
    }

    /// Members of the tree.
    pub fn members(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Whether `id` is part of the overlay.
    pub fn contains(&self, id: NodeId) -> bool {
        self.index.contains_key(&id)
    }

    /// Lowest common ancestor of `a` and `b` with respect to the root —
    /// the node where the two streams' routes towards the root intersect.
    ///
    /// # Panics
    /// Panics if either node is not a member.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let mut x = self.index[&a];
        let mut y = self.index[&b];
        while self.depth[x] > self.depth[y] {
            x = self.parent[x];
        }
        while self.depth[y] > self.depth[x] {
            y = self.parent[y];
        }
        while x != y {
            x = self.parent[x];
            y = self.parent[y];
        }
        self.nodes[x]
    }

    /// Latency of the tree path from `node` up to `ancestor`.
    ///
    /// # Panics
    /// Panics if `ancestor` is not actually on the root-path of `node`.
    pub fn latency_to_ancestor(&self, node: NodeId, ancestor: NodeId) -> f64 {
        let target = self.index[&ancestor];
        let mut x = self.index[&node];
        let mut acc = 0.0;
        while x != target {
            assert_ne!(x, self.root, "{ancestor} is not an ancestor of {node}");
            acc += self.parent_latency[x];
            x = self.parent[x];
        }
        acc
    }

    /// The node sequence from `node` up to `ancestor`, inclusive of both.
    ///
    /// # Panics
    /// Panics if `ancestor` is not on the root-path of `node`.
    pub fn path_to_ancestor(&self, node: NodeId, ancestor: NodeId) -> Vec<NodeId> {
        let target = self.index[&ancestor];
        let mut x = self.index[&node];
        let mut path = vec![node];
        while x != target {
            assert_ne!(x, self.root, "{ancestor} is not an ancestor of {node}");
            x = self.parent[x];
            path.push(self.nodes[x]);
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtt::DenseRtt;

    fn line_provider(n: usize) -> DenseRtt {
        // Points on a line at positions 0, 1, 2, ...: rtt = |i - j|.
        DenseRtt::from_fn(n, |i, j| (i as f64 - j as f64).abs())
    }

    fn ids(n: usize) -> Vec<NodeId> {
        (0..n as u32).map(NodeId).collect()
    }

    #[test]
    fn mst_of_line_is_the_line() {
        let p = line_provider(5);
        let edges = minimum_spanning_tree(&ids(5), &p);
        assert_eq!(edges.len(), 4);
        let total: f64 = edges.iter().map(|e| e.2).sum();
        assert_eq!(total, 4.0);
        // Every edge must be a unit edge between consecutive points.
        for (a, b, w) in edges {
            assert_eq!(w, 1.0);
            assert_eq!((a.0 as i64 - b.0 as i64).abs(), 1);
        }
    }

    #[test]
    fn mst_of_single_node_is_empty() {
        let p = line_provider(1);
        assert!(minimum_spanning_tree(&ids(1), &p).is_empty());
        assert!(minimum_spanning_tree(&[], &p).is_empty());
    }

    #[test]
    fn mst_total_weight_is_minimal_for_square() {
        // Unit square with diagonals sqrt(2): MST weight = 3.
        let pts = [(0.0f64, 0.0f64), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)];
        let p = DenseRtt::from_fn(4, |i, j| {
            let (x1, y1) = pts[i];
            let (x2, y2) = pts[j];
            (x1 - x2).hypot(y1 - y2)
        });
        let edges = minimum_spanning_tree(&ids(4), &p);
        let total: f64 = edges.iter().map(|e| e.2).sum();
        assert!((total - 3.0).abs() < 1e-12);
    }

    #[test]
    fn rooted_tree_lca_and_paths() {
        let p = line_provider(7);
        let edges = minimum_spanning_tree(&ids(7), &p);
        // Root at the middle of the line.
        let tree = RootedTree::from_edges(NodeId(3), &edges);
        // LCA of 0 and 6 with root 3 is 3 itself.
        assert_eq!(tree.lca(NodeId(0), NodeId(6)), NodeId(3));
        // LCA of 0 and 2 is 2 (2 lies on 0's path to the root).
        assert_eq!(tree.lca(NodeId(0), NodeId(2)), NodeId(2));
        assert_eq!(tree.latency_to_ancestor(NodeId(6), NodeId(3)), 3.0);
        assert_eq!(tree.latency_to_ancestor(NodeId(0), NodeId(2)), 2.0);
        assert_eq!(tree.latency_to_ancestor(NodeId(0), NodeId(3)), 3.0);
    }

    #[test]
    fn path_extraction_follows_the_tree() {
        let p = line_provider(7);
        let edges = minimum_spanning_tree(&ids(7), &p);
        let tree = RootedTree::from_edges(NodeId(3), &edges);
        assert_eq!(
            tree.path_to_ancestor(NodeId(0), NodeId(3)),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(
            tree.path_to_ancestor(NodeId(5), tree.root()),
            vec![NodeId(5), NodeId(4), NodeId(3)]
        );
        assert_eq!(tree.path_to_ancestor(NodeId(2), NodeId(2)), vec![NodeId(2)]);
    }

    #[test]
    fn lca_of_node_with_itself_is_itself() {
        let p = line_provider(4);
        let edges = minimum_spanning_tree(&ids(4), &p);
        let tree = RootedTree::from_edges(NodeId(0), &edges);
        assert_eq!(tree.lca(NodeId(2), NodeId(2)), NodeId(2));
        assert_eq!(tree.latency_to_ancestor(NodeId(2), NodeId(2)), 0.0);
    }

    #[test]
    #[should_panic(expected = "single connected component")]
    fn disconnected_edges_rejected() {
        let edges = vec![(NodeId(1), NodeId(2), 1.0)];
        let _ = RootedTree::from_edges(NodeId(0), &edges);
    }
}
