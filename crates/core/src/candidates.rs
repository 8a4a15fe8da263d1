//! Candidate node selection for Phase III (paper §3.4).
//!
//! For every join replica Nova selects hosting candidates around the
//! operator's virtual coordinates. Two query shapes are served:
//!
//! * [`CandidateIndex::knn`] — the paper's k-nearest-neighbour candidate
//!   set (`V_knn`), with `k` scaled by the operator's demand,
//! * [`CandidateIndex::nearest_capable`] — "nearest node with at least
//!   x remaining capacity", the exact query the neighborhood-expansion
//!   fallback converges to. Served in O(log n) by a capacity-augmented
//!   k-d tree ([`nova_geom::CapacityKdTree`]) whose per-subtree maxima
//!   prune drained regions — without this, placement over depleted
//!   central regions degenerates to scanning thousands of unusable
//!   nodes per replica.
//!
//! The index tolerates re-optimization churn (§3.5): removals tombstone,
//! additions go to a linear side table, and heavy churn triggers a cheap
//! rebuild. For high-dimensional multi-metric cost spaces (§3.6) an
//! approximate Annoy-style backend can be selected by threshold.

use std::collections::HashMap;

use nova_geom::{AnnoyIndex, AnnoyParams, CapacityKdTree, Coord, Neighbor};
use nova_netcoord::CostSpace;
use nova_topology::{NodeId, NodeRole, Topology};

/// How many churn events (relative to index size) trigger a rebuild.
const REBUILD_FRACTION: f64 = 0.1;

enum Backend {
    /// Exact capacity-aware k-d tree (default).
    Exact(CapacityKdTree),
    /// Approximate random-projection forest (high-dim cost spaces).
    Approx(AnnoyIndex),
}

/// Churn-tolerant, capacity-aware nearest-neighbour index over
/// placement-eligible nodes.
pub struct CandidateIndex {
    backend: Backend,
    /// NodeId for each indexed point.
    ids: Vec<NodeId>,
    /// Remaining capacity per indexed point (mirrors the exact backend).
    caps: Vec<f64>,
    /// NodeId → position in `ids`.
    pos: HashMap<NodeId, u32>,
    /// Tombstones for removed indexed nodes.
    dead: Vec<bool>,
    /// Nodes added after the last (re)build: `(id, coord, capacity)`.
    extra: Vec<(NodeId, Coord, f64)>,
    dead_count: usize,
    exact_threshold: usize,
    seed: u64,
}

impl CandidateIndex {
    /// Build an index over every *placement-eligible* node of the
    /// topology: workers and sources with live coordinates, with their
    /// full capacities as the initial availability. (Sinks are pinned
    /// and never candidates.)
    pub fn build(
        topology: &Topology,
        space: &CostSpace,
        exact_threshold: usize,
        seed: u64,
    ) -> Self {
        let mut ids = Vec::with_capacity(topology.len());
        let mut coords = Vec::with_capacity(topology.len());
        let mut caps = Vec::with_capacity(topology.len());
        for node in topology.nodes() {
            if node.role == NodeRole::Sink {
                continue;
            }
            if let Some(c) = space.coord(node.id) {
                ids.push(node.id);
                coords.push(c);
                caps.push(node.capacity);
            }
        }
        let backend = Self::make_backend(&coords, &caps, exact_threshold, seed);
        let dead = vec![false; ids.len()];
        let pos = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        CandidateIndex {
            backend,
            ids,
            caps,
            pos,
            dead,
            extra: Vec::new(),
            dead_count: 0,
            exact_threshold,
            seed,
        }
    }

    fn make_backend(coords: &[Coord], caps: &[f64], exact_threshold: usize, seed: u64) -> Backend {
        if coords.len() <= exact_threshold {
            Backend::Exact(CapacityKdTree::build(coords, caps))
        } else {
            Backend::Approx(AnnoyIndex::build(
                coords,
                AnnoyParams {
                    seed,
                    ..AnnoyParams::default()
                },
            ))
        }
    }

    /// Number of live candidates.
    pub fn live_count(&self) -> usize {
        self.ids.len() - self.dead_count + self.extra.len()
    }

    /// Update a node's remaining capacity (called as replicas consume
    /// availability). O(log n) on the exact backend.
    pub fn set_avail(&mut self, id: NodeId, avail: f64) {
        if let Some(&p) = self.pos.get(&id) {
            let p = p as usize;
            if !self.dead[p] {
                self.caps[p] = avail;
                if let Backend::Exact(tree) = &mut self.backend {
                    tree.set_capacity(p, avail);
                }
                return;
            }
        }
        if let Some(slot) = self.extra.iter_mut().find(|(x, _, _)| *x == id) {
            slot.2 = avail;
        }
    }

    /// The nearest live node whose remaining capacity is at least `need`.
    pub fn nearest_capable(&self, query: &Coord, need: f64) -> Option<(NodeId, f64)> {
        let mut best: Option<(NodeId, f64)> = None;
        match &self.backend {
            Backend::Exact(tree) => {
                // Dead nodes carry −∞ capacity, so the tree skips them.
                if let Some((p, d)) = tree.nearest_capable(query, need) {
                    best = Some((self.ids[p], d));
                }
            }
            Backend::Approx(annoy) => {
                // Growing probe with capacity filtering.
                let limit = self.ids.len();
                let mut fetch = 32.min(limit.max(1));
                loop {
                    let hit = annoy
                        .knn(query, fetch)
                        .into_iter()
                        .find(|n| !self.dead[n.index] && self.caps[n.index] >= need);
                    if let Some(n) = hit {
                        best = Some((self.ids[n.index], n.dist));
                        break;
                    }
                    if fetch >= limit {
                        break;
                    }
                    fetch = (fetch * 4).min(limit);
                }
            }
        }
        for (id, coord, cap) in &self.extra {
            if *cap >= need {
                let d = coord.dist(query);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((*id, d));
                }
            }
        }
        best
    }

    /// k nearest live candidates to `query`, closest first (capacity is
    /// ignored — this is the raw `V_knn` set).
    pub fn knn(&self, query: &Coord, k: usize) -> Vec<(NodeId, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let limit = self.ids.len();
        let mut out: Vec<(NodeId, f64)> = Vec::new();
        if limit > 0 {
            let mut fetch = (k + 16).min(limit);
            loop {
                let raw: Vec<Neighbor> = match &self.backend {
                    Backend::Exact(tree) => tree.knn_capable(query, fetch, f64::NEG_INFINITY),
                    Backend::Approx(annoy) => annoy.knn(query, fetch),
                };
                let raw_len = raw.len();
                out = raw
                    .into_iter()
                    .filter(|n| !self.dead[n.index])
                    .map(|n| (self.ids[n.index], n.dist))
                    .collect();
                if out.len() >= k || raw_len >= limit {
                    break;
                }
                fetch = (fetch * 4).min(limit);
            }
        }
        for (id, coord, _) in &self.extra {
            out.push((*id, coord.dist(query)));
        }
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(k);
        out
    }

    /// Add a node (e.g. a worker that just joined, §3.5).
    pub fn add(&mut self, id: NodeId, coord: Coord) {
        self.add_with_capacity(id, coord, f64::MAX);
    }

    /// Add a node with a known remaining capacity.
    pub fn add_with_capacity(&mut self, id: NodeId, coord: Coord, capacity: f64) {
        self.extra.push((id, coord, capacity));
        self.maybe_rebuild();
    }

    /// Remove a node (failure/departure). No-op if the node is unknown.
    pub fn remove(&mut self, id: NodeId) {
        if let Some(&p) = self.pos.get(&id) {
            let p = p as usize;
            if !self.dead[p] {
                self.dead[p] = true;
                self.dead_count += 1;
                self.caps[p] = f64::NEG_INFINITY;
                if let Backend::Exact(tree) = &mut self.backend {
                    tree.set_capacity(p, f64::NEG_INFINITY);
                }
            }
        }
        self.extra.retain(|(x, _, _)| *x != id);
        self.maybe_rebuild();
    }

    /// Update a node's coordinate (NCS drift re-embedding): remove + add
    /// preserving its capacity.
    pub fn update_coord(&mut self, id: NodeId, coord: Coord) {
        let cap = self
            .pos
            .get(&id)
            .map(|&p| self.caps[p as usize])
            .filter(|c| c.is_finite())
            .or_else(|| {
                self.extra
                    .iter()
                    .find(|(x, _, _)| *x == id)
                    .map(|(_, _, c)| *c)
            })
            .unwrap_or(f64::MAX);
        self.remove(id);
        self.extra.push((id, coord, cap));
    }

    fn maybe_rebuild(&mut self) {
        let churn = self.dead_count + self.extra.len();
        if churn as f64 > REBUILD_FRACTION * (self.ids.len().max(16)) as f64 {
            self.rebuild();
        }
    }

    /// Force a full rebuild folding tombstones and the side table in.
    pub fn rebuild(&mut self) {
        let mut ids = Vec::with_capacity(self.live_count());
        let mut coords = Vec::with_capacity(self.live_count());
        let mut caps = Vec::with_capacity(self.live_count());
        let points: Vec<Coord> = match &self.backend {
            Backend::Exact(tree) => tree.points().to_vec(),
            Backend::Approx(annoy) => annoy.points().to_vec(),
        };
        for (i, c) in points.into_iter().enumerate() {
            if !self.dead[i] {
                ids.push(self.ids[i]);
                coords.push(c);
                caps.push(self.caps[i]);
            }
        }
        for (id, c, cap) in self.extra.drain(..) {
            ids.push(id);
            coords.push(c);
            caps.push(cap);
        }
        self.backend = Self::make_backend(&coords, &caps, self.exact_threshold, self.seed);
        self.dead = vec![false; ids.len()];
        self.dead_count = 0;
        self.pos = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        self.caps = caps;
        self.ids = ids;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: usize) -> (Topology, CostSpace) {
        let mut t = Topology::new();
        let mut coords = Vec::new();
        for i in 0..n {
            let role = if i == 0 {
                NodeRole::Sink
            } else {
                NodeRole::Worker
            };
            t.add_node(role, 100.0, format!("n{i}"));
            coords.push(Coord::xy(i as f64, 0.0));
        }
        (t, CostSpace::new(coords))
    }

    #[test]
    fn sink_is_never_a_candidate() {
        let (t, s) = setup(10);
        let idx = CandidateIndex::build(&t, &s, 1000, 1);
        let got = idx.knn(&Coord::xy(0.0, 0.0), 10);
        assert_eq!(got.len(), 9);
        assert!(got.iter().all(|(id, _)| *id != NodeId(0)));
    }

    #[test]
    fn knn_returns_nearest_live_nodes() {
        let (t, s) = setup(20);
        let idx = CandidateIndex::build(&t, &s, 1000, 1);
        let got = idx.knn(&Coord::xy(5.0, 0.0), 3);
        assert_eq!(got[0].0, NodeId(5));
        assert!(got.iter().map(|(_, d)| *d).is_sorted());
    }

    #[test]
    fn nearest_capable_prunes_drained_regions() {
        let (t, s) = setup(50);
        let mut idx = CandidateIndex::build(&t, &s, 1000, 1);
        // Drain nodes 1..=30 to 5 units each.
        for i in 1..=30u32 {
            idx.set_avail(NodeId(i), 5.0);
        }
        // From x=1: nearest with ≥ 50 capacity is node 31.
        let (id, d) = idx.nearest_capable(&Coord::xy(1.0, 0.0), 50.0).unwrap();
        assert_eq!(id, NodeId(31));
        assert_eq!(d, 30.0);
        // Small demands still use the drained-but-alive nodes.
        let (id, _) = idx.nearest_capable(&Coord::xy(5.0, 0.0), 4.0).unwrap();
        assert_eq!(id, NodeId(5));
        // Impossible demand.
        assert!(idx.nearest_capable(&Coord::xy(0.0, 0.0), 1e9).is_none());
    }

    #[test]
    fn removed_nodes_disappear_from_results() {
        let (t, s) = setup(10);
        let mut idx = CandidateIndex::build(&t, &s, 1000, 1);
        idx.remove(NodeId(5));
        let got = idx.knn(&Coord::xy(5.0, 0.0), 9);
        assert!(got.iter().all(|(id, _)| *id != NodeId(5)));
        assert_eq!(idx.live_count(), 8);
        // Capacity queries skip removed nodes too.
        let (id, _) = idx.nearest_capable(&Coord::xy(5.0, 0.0), 10.0).unwrap();
        assert_ne!(id, NodeId(5));
    }

    #[test]
    fn added_nodes_appear_in_results() {
        let (t, s) = setup(10);
        let mut idx = CandidateIndex::build(&t, &s, 1000, 1);
        idx.add_with_capacity(NodeId(100), Coord::xy(5.1, 0.0), 40.0);
        let got = idx.knn(&Coord::xy(5.1, 0.0), 1);
        assert_eq!(got[0].0, NodeId(100));
        // And in capacity queries, respecting their capacity.
        let (id, _) = idx.nearest_capable(&Coord::xy(5.1, 0.0), 35.0).unwrap();
        assert_eq!(id, NodeId(100));
        idx.set_avail(NodeId(100), 1.0);
        let (id, _) = idx.nearest_capable(&Coord::xy(5.1, 0.0), 35.0).unwrap();
        assert_ne!(id, NodeId(100));
    }

    #[test]
    fn update_coord_moves_a_node() {
        let (t, s) = setup(10);
        let mut idx = CandidateIndex::build(&t, &s, 1000, 1);
        idx.update_coord(NodeId(9), Coord::xy(-100.0, 0.0));
        let got = idx.knn(&Coord::xy(-100.0, 0.0), 1);
        assert_eq!(got[0].0, NodeId(9));
        let near_old = idx.knn(&Coord::xy(9.0, 0.0), 3);
        assert!(near_old.iter().all(|(id, _)| *id != NodeId(9)));
    }

    #[test]
    fn heavy_churn_triggers_rebuild_and_stays_correct() {
        let (t, s) = setup(40);
        let mut idx = CandidateIndex::build(&t, &s, 1000, 1);
        for i in 1..30 {
            idx.remove(NodeId(i));
        }
        assert_eq!(idx.live_count(), 10);
        let got = idx.knn(&Coord::xy(39.0, 0.0), 5);
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].0, NodeId(39));
        for (id, _) in got {
            assert!(id.0 >= 30);
        }
        // Capacities survive rebuilds.
        idx.set_avail(NodeId(39), 7.0);
        let (id, _) = idx.nearest_capable(&Coord::xy(39.0, 0.0), 50.0).unwrap();
        assert_ne!(id, NodeId(39));
    }

    #[test]
    fn approximate_backend_used_beyond_threshold() {
        let (t, s) = setup(200);
        // Force the Annoy backend with a tiny threshold.
        let mut idx = CandidateIndex::build(&t, &s, 50, 1);
        let got = idx.knn(&Coord::xy(100.0, 0.0), 5);
        assert_eq!(got.len(), 5);
        assert_eq!(got[0].0, NodeId(100));
        // Capacity-aware fallback probing works on the approximate path.
        for i in 90..=110u32 {
            idx.set_avail(NodeId(i), 2.0);
        }
        let (id, _) = idx.nearest_capable(&Coord::xy(100.0, 0.0), 50.0).unwrap();
        assert!(
            !(90..=110).contains(&id.0),
            "drained region skipped, got {id}"
        );
    }

    #[test]
    fn set_avail_on_unknown_node_is_noop() {
        let (t, s) = setup(5);
        let mut idx = CandidateIndex::build(&t, &s, 1000, 1);
        idx.set_avail(NodeId(999), 10.0);
        assert_eq!(idx.live_count(), 4);
    }
}
