//! Approximate k-NN via a random-projection forest (Annoy-style).
//!
//! For very large topologies (the paper scales to 10⁶ nodes) an exact
//! k-d tree query per operator becomes the bottleneck of Phase III, so the
//! paper switches to the Annoy library \[4\]. This module reimplements the
//! same idea: a forest of trees, each built by recursively splitting the
//! point set with a random hyperplane through the midpoint of two sampled
//! points. Queries run a best-first search across all trees, collect at
//! least `search_k` candidates, then rank them by exact distance.
//!
//! Recall is tunable via the number of trees and `search_k`, traded
//! against speed relative to the exact [`crate::CapacityKdTree`].

use std::collections::BinaryHeap;

use rand::prelude::*;
use rand::rngs::StdRng;

use crate::{Coord, Neighbor};

/// Tuning parameters for [`AnnoyIndex`].
#[derive(Debug, Clone, Copy)]
pub struct AnnoyParams {
    /// Number of independent random-projection trees.
    pub n_trees: usize,
    /// Maximum number of points in a leaf.
    pub leaf_size: usize,
    /// Minimum number of candidates inspected per query (before exact
    /// re-ranking). Larger values raise recall at the cost of latency.
    pub search_k: usize,
    /// Seed for the tree construction RNG.
    pub seed: u64,
}

impl Default for AnnoyParams {
    fn default() -> Self {
        AnnoyParams {
            n_trees: 12,
            leaf_size: 24,
            search_k: 400,
            seed: 0x5eed,
        }
    }
}

#[derive(Debug, Clone)]
enum TreeNode {
    Split {
        /// Hyperplane normal.
        normal: Coord,
        /// Offset such that the plane is `normal · x = offset`.
        offset: f64,
        left: u32,
        right: u32,
    },
    Leaf(Vec<u32>),
}

#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<TreeNode>,
    root: u32,
}

/// Approximate nearest-neighbour index over a fixed point set.
#[derive(Debug, Clone)]
pub struct AnnoyIndex {
    points: Vec<Coord>,
    trees: Vec<Tree>,
    params: AnnoyParams,
}

impl AnnoyIndex {
    /// Build the forest over `points` with the given parameters.
    pub fn build(points: &[Coord], params: AnnoyParams) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let trees = (0..params.n_trees.max(1))
            .map(|_| Self::build_tree(points, params.leaf_size.max(2), &mut rng))
            .collect();
        AnnoyIndex {
            points: points.to_vec(),
            trees,
            params,
        }
    }

    /// The indexed points, in insertion order.
    pub fn points(&self) -> &[Coord] {
        &self.points
    }

    fn build_tree(points: &[Coord], leaf_size: usize, rng: &mut StdRng) -> Tree {
        let mut nodes = Vec::new();
        let ids: Vec<u32> = (0..points.len() as u32).collect();
        let root = Self::build_node(points, ids, leaf_size, rng, &mut nodes);
        Tree { nodes, root }
    }

    fn build_node(
        points: &[Coord],
        ids: Vec<u32>,
        leaf_size: usize,
        rng: &mut StdRng,
        nodes: &mut Vec<TreeNode>,
    ) -> u32 {
        if ids.len() <= leaf_size {
            nodes.push(TreeNode::Leaf(ids));
            return (nodes.len() - 1) as u32;
        }
        // Sample two distinct points to define the splitting hyperplane.
        // Retry a few times in case of coincident samples; fall back to a
        // balanced random split when the set is (nearly) degenerate.
        let mut split: Option<(Coord, f64)> = None;
        for _ in 0..8 {
            let a = ids[rng.gen_range(0..ids.len())] as usize;
            let b = ids[rng.gen_range(0..ids.len())] as usize;
            let (pa, pb) = (points[a], points[b]);
            let diff = pb - pa;
            let norm = diff.norm();
            if norm > 1e-12 {
                let normal = diff * (1.0 / norm);
                let mid = pa.lerp(&pb, 0.5);
                split = Some((normal, normal.dot(&mid)));
                break;
            }
        }
        let (left_ids, right_ids) = match split {
            Some((normal, offset)) => {
                let mut left = Vec::with_capacity(ids.len() / 2);
                let mut right = Vec::with_capacity(ids.len() / 2);
                for id in &ids {
                    if normal.dot(&points[*id as usize]) < offset {
                        left.push(*id);
                    } else {
                        right.push(*id);
                    }
                }
                // A pathologically unbalanced split (all points on one
                // side) would recurse forever; rebalance randomly.
                if left.is_empty() || right.is_empty() {
                    balanced_random_split(ids, rng)
                } else {
                    (left, right)
                }
            }
            None => balanced_random_split(ids, rng),
        };
        let (normal, offset) = split.unwrap_or_else(|| {
            // Degenerate set: any plane works; children were split randomly.
            (unit_axis(points.first().map_or(2, |p| p.dim())), 0.0)
        });
        let placeholder = nodes.len() as u32;
        nodes.push(TreeNode::Leaf(Vec::new()));
        let left = Self::build_node(points, left_ids, leaf_size, rng, nodes);
        let right = Self::build_node(points, right_ids, leaf_size, rng, nodes);
        nodes[placeholder as usize] = TreeNode::Split {
            normal,
            offset,
            left,
            right,
        };
        placeholder
    }
}

fn balanced_random_split(mut ids: Vec<u32>, rng: &mut StdRng) -> (Vec<u32>, Vec<u32>) {
    ids.shuffle(rng);
    let half = ids.len() / 2;
    let right = ids.split_off(half);
    (ids, right)
}

fn unit_axis(dim: usize) -> Coord {
    let mut c = Coord::zero(dim);
    c[0] = 1.0;
    c
}

/// f64 wrapper ordered by `total_cmp` for use in heaps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl AnnoyIndex {
    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Up to `k` approximate nearest neighbours of `query`, closest
    /// first.
    pub fn knn(&self, query: &Coord, k: usize) -> Vec<Neighbor> {
        if k == 0 || self.points.is_empty() {
            return Vec::new();
        }
        let want = self.params.search_k.max(k);
        // Best-first search over all trees: priority = smallest margin on
        // the path (larger margin = more confidently on the near side).
        let mut heap: BinaryHeap<(OrdF64, u32, u32)> = BinaryHeap::new();
        for (ti, tree) in self.trees.iter().enumerate() {
            heap.push((OrdF64(f64::INFINITY), ti as u32, tree.root));
        }
        let mut seen = vec![false; self.points.len()];
        let mut candidates: Vec<u32> = Vec::with_capacity(want * 2);
        while let Some((OrdF64(margin), ti, ni)) = heap.pop() {
            if candidates.len() >= want {
                break;
            }
            match &self.trees[ti as usize].nodes[ni as usize] {
                TreeNode::Leaf(ids) => {
                    for &id in ids {
                        if !seen[id as usize] {
                            seen[id as usize] = true;
                            candidates.push(id);
                        }
                    }
                    if candidates.len() >= want {
                        break;
                    }
                }
                TreeNode::Split {
                    normal,
                    offset,
                    left,
                    right,
                } => {
                    let side = normal.dot(query) - offset;
                    let (near, far) = if side < 0.0 {
                        (*left, *right)
                    } else {
                        (*right, *left)
                    };
                    heap.push((OrdF64(margin.min(side.abs())), ti, near));
                    heap.push((OrdF64(margin.min(-side.abs())), ti, far));
                }
            }
        }
        // Exact re-ranking of the candidate pool.
        let mut ranked: Vec<Neighbor> = candidates
            .into_iter()
            .map(|id| Neighbor {
                index: id as usize,
                dist: self.points[id as usize].dist(query),
            })
            .collect();
        ranked.sort_unstable();
        ranked.truncate(k);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{brute_knn, random_points};

    #[test]
    fn empty_index() {
        let idx = AnnoyIndex::build(&[], AnnoyParams::default());
        assert!(idx.is_empty());
        assert!(idx.knn(&Coord::xy(0.0, 0.0), 5).is_empty());
    }

    #[test]
    fn tiny_set_is_exact() {
        let points = random_points(10, 2, 1);
        let idx = AnnoyIndex::build(&points, AnnoyParams::default());
        let q = Coord::xy(5.0, 5.0);
        let got = idx.knn(&q, 3);
        let want = brute_knn(&points, &q, 3);
        assert_eq!(got.len(), 3);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.index, w.index);
        }
    }

    #[test]
    fn recall_is_high_on_clustered_data() {
        // Gaussian clusters like the paper's synthetic topologies.
        let mut rng = StdRng::seed_from_u64(99);
        let mut points = Vec::new();
        for _ in 0..20 {
            let cx = rng.gen_range(0.0..100.0);
            let cy = rng.gen_range(-50.0..50.0);
            for _ in 0..100 {
                points.push(Coord::xy(
                    cx + rng.gen_range(-3.0..3.0),
                    cy + rng.gen_range(-3.0..3.0),
                ));
            }
        }
        let idx = AnnoyIndex::build(&points, AnnoyParams::default());
        let k = 10;
        let mut hits = 0usize;
        let mut total = 0usize;
        for _ in 0..50 {
            let q = Coord::xy(rng.gen_range(0.0..100.0), rng.gen_range(-50.0..50.0));
            let approx: std::collections::HashSet<usize> =
                idx.knn(&q, k).into_iter().map(|n| n.index).collect();
            for n in brute_knn(&points, &q, k) {
                total += 1;
                if approx.contains(&n.index) {
                    hits += 1;
                }
            }
        }
        let recall = hits as f64 / total as f64;
        assert!(recall >= 0.9, "recall too low: {recall}");
    }

    #[test]
    fn duplicate_points_do_not_break_construction() {
        let p = Coord::xy(1.0, 1.0);
        let points = vec![p; 200];
        let idx = AnnoyIndex::build(
            &points,
            AnnoyParams {
                leaf_size: 8,
                ..Default::default()
            },
        );
        let got = idx.knn(&p, 5);
        assert_eq!(got.len(), 5);
        assert!(got.iter().all(|n| n.dist == 0.0));
    }

    #[test]
    fn results_are_sorted_and_deduplicated() {
        let points = random_points(1000, 3, 4);
        let idx = AnnoyIndex::build(&points, AnnoyParams::default());
        let got = idx.knn(&Coord::xyz(0.0, 0.0, 0.0), 20);
        assert_eq!(got.len(), 20);
        for w in got.windows(2) {
            assert!(w[0].dist <= w[1].dist);
            assert_ne!(w[0].index, w[1].index);
        }
    }

    #[test]
    fn k_exceeding_candidates_returns_at_most_n() {
        let points = random_points(15, 2, 8);
        let idx = AnnoyIndex::build(&points, AnnoyParams::default());
        let got = idx.knn(&Coord::xy(0.0, 0.0), 100);
        assert_eq!(got.len(), 15);
    }
}
