//! Network coordinate systems (NCS) — Phase I of the Nova optimizer.
//!
//! Nova embeds the discrete topology into a continuous Euclidean *cost
//! space* by assigning every node a coordinate whose pairwise distances
//! approximate measured latencies (paper §3.2, Eq. 5). Two solvers are
//! provided, matching the paper:
//!
//! * [`vivaldi`] — the decentralized Vivaldi algorithm \[19\], which works
//!   from a small per-node neighbor set (m ≪ |V| measurements per node)
//!   and is the scalable default; it also supports incremental node
//!   addition/removal for re-optimization (§3.5),
//! * [`mds`] — the dense formulation: classical MDS (double-centering +
//!   power iteration), tractable for testbed-scale matrices and used to
//!   validate Vivaldi's output.
//!
//! [`error`] quantifies embedding quality (MAE, median relative error,
//! normalized stress) — the metrics behind the paper's neighbor-set size
//! selection and the Fig. 8 estimation-error experiment.

#![forbid(unsafe_code)]

pub mod error;
pub mod mds;
pub mod vivaldi;

pub use error::{EmbeddingError, ErrorSample};
pub use mds::classical_mds;
pub use vivaldi::{embed_new_node, Vivaldi, VivaldiConfig};

use nova_geom::Coord;
use nova_topology::NodeId;

/// The cost space produced by Phase I: one coordinate per node.
///
/// Node ids index directly into the coordinate table. Removed nodes keep a
/// tombstone so ids of live nodes stay stable across re-optimizations.
#[derive(Debug, Clone)]
pub struct CostSpace {
    coords: Vec<Option<Coord>>,
    /// Ids of the `None` slots in `coords`, ascending.
    holes: Vec<u32>,
    dim: usize,
}

impl CostSpace {
    /// Wrap a full coordinate assignment (one per node, id order).
    pub fn new(coords: Vec<Coord>) -> Self {
        let dim = coords.first().map_or(2, Coord::dim);
        CostSpace {
            coords: coords.into_iter().map(Some).collect(),
            holes: Vec::new(),
            dim,
        }
    }

    /// Dimensionality of the space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of coordinate slots (including tombstones).
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Whether the space has no slots.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Coordinate of a live node.
    pub fn coord(&self, id: NodeId) -> Option<Coord> {
        self.coords.get(id.idx()).copied().flatten()
    }

    /// Estimated latency between two nodes = Euclidean distance in the
    /// cost space. `None` if either node was removed.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Option<f64> {
        Some(self.coord(a)?.dist(&self.coord(b)?))
    }

    /// Insert or update a node's coordinate, growing the table if needed.
    pub fn set_coord(&mut self, id: NodeId, coord: Coord) {
        if id.idx() >= self.coords.len() {
            self.holes.extend(self.coords.len() as u32..id.0);
            self.coords.resize(id.idx() + 1, None);
        } else if let Ok(at) = self.holes.binary_search(&id.0) {
            self.holes.remove(at);
        }
        self.coords[id.idx()] = Some(coord);
    }

    /// Tombstone a node (e.g. after failure or departure, §3.5).
    pub fn remove(&mut self, id: NodeId) {
        if let Some(slot @ Some(_)) = self.coords.get_mut(id.idx()) {
            *slot = None;
            let at = self.holes.partition_point(|&h| h < id.0);
            self.holes.insert(at, id.0);
        }
    }

    /// Number of live nodes.
    pub(crate) fn live_len(&self) -> usize {
        self.coords.len() - self.holes.len()
    }

    /// The `k`-th live node id in id order (`live().0[k]`), found by a
    /// binary search over the tombstones instead of a scan of the table.
    pub(crate) fn nth_live(&self, k: usize) -> NodeId {
        debug_assert!(k < self.live_len(), "live index {k} out of range");
        // `holes[i] - i` live ids precede the i-th hole, a non-decreasing
        // sequence: the answer skips exactly the holes with at most `k`
        // live ids before them.
        let (mut lo, mut hi) = (0, self.holes.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.holes[mid] as usize - mid <= k {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        NodeId((k + lo) as u32)
    }

    /// Iterate `(id, coord)` over live nodes.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Coord)> + '_ {
        self.coords
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (NodeId(i as u32), c)))
    }

    /// Coordinates of live nodes paired with their ids, materialized.
    /// Convenience for building search indexes.
    pub fn live(&self) -> (Vec<NodeId>, Vec<Coord>) {
        let mut ids = Vec::with_capacity(self.coords.len());
        let mut cs = Vec::with_capacity(self.coords.len());
        for (id, c) in self.iter() {
            ids.push(id);
            cs.push(c);
        }
        (ids, cs)
    }
}

impl nova_topology::LatencyProvider for CostSpace {
    fn len(&self) -> usize {
        self.coords.len()
    }

    /// Estimated RTT = cost-space distance. Pairs involving a removed
    /// node report `f64::INFINITY` so they are never preferred by
    /// consumers such as MST construction.
    fn rtt(&self, a: NodeId, b: NodeId) -> f64 {
        self.distance(a, b).unwrap_or(f64::INFINITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_space_is_a_latency_provider() {
        use nova_topology::LatencyProvider;
        let mut s = CostSpace::new(vec![Coord::xy(0.0, 0.0), Coord::xy(3.0, 4.0)]);
        assert_eq!(s.rtt(NodeId(0), NodeId(1)), 5.0);
        s.remove(NodeId(1));
        assert_eq!(s.rtt(NodeId(0), NodeId(1)), f64::INFINITY);
    }

    #[test]
    fn cost_space_distance_and_tombstones() {
        let mut s = CostSpace::new(vec![Coord::xy(0.0, 0.0), Coord::xy(3.0, 4.0)]);
        assert_eq!(s.distance(NodeId(0), NodeId(1)), Some(5.0));
        s.remove(NodeId(1));
        assert_eq!(s.distance(NodeId(0), NodeId(1)), None);
        assert_eq!(s.iter().count(), 1);
        s.set_coord(NodeId(5), Coord::xy(1.0, 1.0));
        assert_eq!(s.len(), 6);
        assert_eq!(s.coord(NodeId(5)), Some(Coord::xy(1.0, 1.0)));
        let (ids, cs) = s.live();
        assert_eq!(ids.len(), 2);
        assert_eq!(cs.len(), 2);
    }

    /// Over random tombstone and grow patterns the tombstone list keeps
    /// `live_len` and `nth_live` equal to the materialized `live()` ids.
    #[test]
    fn nth_live_matches_materialized_live_ids() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(0..12);
            let mut s = CostSpace::new((0..n).map(|i| Coord::xy(i as f64, 0.0)).collect());
            for _ in 0..60 {
                let id = NodeId(rng.gen_range(0..s.len() as u32 + 4));
                if rng.gen_range(0..2) == 0 {
                    s.remove(id);
                } else {
                    s.set_coord(id, Coord::xy(id.0 as f64, 1.0));
                }
                let (ids, _) = s.live();
                assert_eq!(s.live_len(), ids.len(), "seed {seed}");
                for (k, &id) in ids.iter().enumerate() {
                    assert_eq!(s.nth_live(k), id, "seed {seed} rank {k}");
                }
            }
        }
    }
}
