//! Capacity-aware nearest-neighbour search.
//!
//! Phase III repeatedly needs "the nearest node whose remaining capacity
//! is at least x". A plain k-NN index answers this only by fetching ever
//! larger neighborhoods and filtering — which degenerates when thousands
//! of nearby nodes are drained (every join pair's virtual optimum is
//! pulled towards the shared sink, so the central region depletes first
//! and every later query wades through it).
//!
//! [`CapacityKdTree`] augments a k-d tree with a per-subtree *maximum
//! remaining capacity*: queries prune any subtree whose best node cannot
//! satisfy the demand, making `nearest_capable` logarithmic regardless of
//! how depleted the neighborhood is. Capacity updates bubble the maximum
//! up through parent pointers in O(depth).

use std::collections::BinaryHeap;

use crate::{Coord, Neighbor};

const NONE: i32 = -1;

#[derive(Debug, Clone, Copy)]
struct Node {
    point: u32,
    axis: u8,
    left: i32,
    right: i32,
    parent: i32,
    /// Maximum remaining capacity in this node's subtree (including the
    /// node's own point).
    max_cap: f64,
}

/// A k-d tree over points with mutable per-point capacities.
#[derive(Debug, Clone)]
pub struct CapacityKdTree {
    points: Vec<Coord>,
    caps: Vec<f64>,
    nodes: Vec<Node>,
    /// Arena index of the node storing each point.
    point_node: Vec<u32>,
    root: i32,
}

impl CapacityKdTree {
    /// Build over `points` with initial capacities (same length).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn build(points: &[Coord], caps: &[f64]) -> Self {
        assert_eq!(points.len(), caps.len(), "points/caps length mismatch");
        let mut ids: Vec<u32> = (0..points.len() as u32).collect();
        let mut tree = CapacityKdTree {
            points: points.to_vec(),
            caps: caps.to_vec(),
            nodes: Vec::with_capacity(points.len()),
            point_node: vec![0; points.len()],
            root: NONE,
        };
        if !ids.is_empty() {
            let root = tree.build_rec(&mut ids, NONE);
            tree.root = root;
        }
        tree
    }

    fn build_rec(&mut self, ids: &mut [u32], parent: i32) -> i32 {
        if ids.is_empty() {
            return NONE;
        }
        let axis = self.widest_axis(ids);
        let mid = ids.len() / 2;
        ids.select_nth_unstable_by(mid, |&a, &b| {
            self.points[a as usize][axis].total_cmp(&self.points[b as usize][axis])
        });
        let point = ids[mid];
        let node_id = self.nodes.len() as i32;
        self.nodes.push(Node {
            point,
            axis: axis as u8,
            left: NONE,
            right: NONE,
            parent,
            max_cap: self.caps[point as usize],
        });
        self.point_node[point as usize] = node_id as u32;
        let (lo, hi) = ids.split_at_mut(mid);
        let hi = &mut hi[1..];
        let left = self.build_rec(lo, node_id);
        let right = self.build_rec(hi, node_id);
        let mut max_cap = self.caps[point as usize];
        if left != NONE {
            max_cap = max_cap.max(self.nodes[left as usize].max_cap);
        }
        if right != NONE {
            max_cap = max_cap.max(self.nodes[right as usize].max_cap);
        }
        let n = &mut self.nodes[node_id as usize];
        n.left = left;
        n.right = right;
        n.max_cap = max_cap;
        node_id
    }

    fn widest_axis(&self, ids: &[u32]) -> usize {
        let dim = self.points[ids[0] as usize].dim();
        let mut best_axis = 0;
        let mut best_spread = f64::NEG_INFINITY;
        for axis in 0..dim {
            let mut min = f64::INFINITY;
            let mut max = f64::NEG_INFINITY;
            for &id in ids {
                let v = self.points[id as usize][axis];
                min = min.min(v);
                max = max.max(v);
            }
            if max - min > best_spread {
                best_spread = max - min;
                best_axis = axis;
            }
        }
        best_axis
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Current capacity of a point.
    pub fn capacity(&self, point: usize) -> f64 {
        self.caps[point]
    }

    /// The indexed points, in insertion order.
    pub fn points(&self) -> &[Coord] {
        &self.points
    }

    /// All current capacities, in insertion order.
    pub fn capacities(&self) -> &[f64] {
        &self.caps
    }

    /// Update one point's remaining capacity; subtree maxima are repaired
    /// in O(depth).
    pub fn set_capacity(&mut self, point: usize, cap: f64) {
        self.caps[point] = cap;
        let mut cur = self.point_node[point] as i32;
        while cur != NONE {
            let node = self.nodes[cur as usize];
            let mut m = self.caps[node.point as usize];
            if node.left != NONE {
                m = m.max(self.nodes[node.left as usize].max_cap);
            }
            if node.right != NONE {
                m = m.max(self.nodes[node.right as usize].max_cap);
            }
            if (m - self.nodes[cur as usize].max_cap).abs() == 0.0 {
                // Unchanged aggregate: ancestors are already correct.
                self.nodes[cur as usize].max_cap = m;
                break;
            }
            self.nodes[cur as usize].max_cap = m;
            cur = node.parent;
        }
    }

    /// The nearest point (by Euclidean distance to `query`) whose
    /// capacity is at least `need`. Returns `(point index, distance)`.
    pub fn nearest_capable(&self, query: &Coord, need: f64) -> Option<(usize, f64)> {
        if self.root == NONE || self.nodes[self.root as usize].max_cap < need {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        self.nearest_rec(self.root, query, need, &mut best);
        best
    }

    fn nearest_rec(&self, node_id: i32, query: &Coord, need: f64, best: &mut Option<(usize, f64)>) {
        let node = self.nodes[node_id as usize];
        // Prune: nothing in this subtree can satisfy the demand.
        if node.max_cap < need {
            return;
        }
        let p = &self.points[node.point as usize];
        if self.caps[node.point as usize] >= need {
            let d = p.dist(query);
            if best.is_none_or(|(_, bd)| d < bd) {
                *best = Some((node.point as usize, d));
            }
        }
        let axis = node.axis as usize;
        let diff = query[axis] - p[axis];
        let (near, far) = if diff < 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if near != NONE {
            self.nearest_rec(near, query, need, best);
        }
        if far != NONE {
            let prune = best.is_some_and(|(_, bd)| diff.abs() > bd);
            if !prune {
                self.nearest_rec(far, query, need, best);
            }
        }
    }

    /// The k nearest points with capacity ≥ `need`, closest first.
    pub fn knn_capable(&self, query: &Coord, k: usize, need: f64) -> Vec<Neighbor> {
        if k == 0 || self.root == NONE {
            return Vec::new();
        }
        let mut heap: BinaryHeap<Neighbor> = BinaryHeap::with_capacity(k + 1);
        self.knn_rec(self.root, query, k, need, &mut heap);
        let mut out = heap.into_vec();
        out.sort_unstable();
        out
    }

    fn knn_rec(
        &self,
        node_id: i32,
        query: &Coord,
        k: usize,
        need: f64,
        heap: &mut BinaryHeap<Neighbor>,
    ) {
        let node = self.nodes[node_id as usize];
        if node.max_cap < need {
            return;
        }
        let p = &self.points[node.point as usize];
        if self.caps[node.point as usize] >= need {
            let dist = p.dist(query);
            if heap.len() < k {
                heap.push(Neighbor {
                    index: node.point as usize,
                    dist,
                });
            } else if let Some(worst) = heap.peek() {
                if dist < worst.dist {
                    heap.pop();
                    heap.push(Neighbor {
                        index: node.point as usize,
                        dist,
                    });
                }
            }
        }
        let axis = node.axis as usize;
        let diff = query[axis] - p[axis];
        let (near, far) = if diff < 0.0 {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        };
        if near != NONE {
            self.knn_rec(near, query, k, need, heap);
        }
        if far != NONE {
            let prune =
                heap.len() == k && diff.abs() > heap.peek().map_or(f64::INFINITY, |w| w.dist);
            if !prune {
                self.knn_rec(far, query, k, need, heap);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{brute_knn, random_points};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn grid(n: usize) -> (Vec<Coord>, Vec<f64>) {
        // Points on a line; capacity = index.
        let pts: Vec<Coord> = (0..n).map(|i| Coord::xy(i as f64, 0.0)).collect();
        let caps: Vec<f64> = (0..n).map(|i| i as f64).collect();
        (pts, caps)
    }

    #[test]
    fn nearest_capable_respects_demand() {
        let (pts, caps) = grid(100);
        let tree = CapacityKdTree::build(&pts, &caps);
        // From x=10: nearest point is 10 (cap 10), but demand 50 forces
        // the search out to point 50.
        let (idx, d) = tree.nearest_capable(&Coord::xy(10.0, 0.0), 50.0).unwrap();
        assert_eq!(idx, 50);
        assert_eq!(d, 40.0);
        // Demand 0 returns the nearest point itself.
        let (idx, _) = tree.nearest_capable(&Coord::xy(10.2, 0.0), 0.0).unwrap();
        assert_eq!(idx, 10);
    }

    #[test]
    fn unsatisfiable_demand_returns_none() {
        let (pts, caps) = grid(10);
        let tree = CapacityKdTree::build(&pts, &caps);
        assert!(tree.nearest_capable(&Coord::xy(0.0, 0.0), 100.0).is_none());
    }

    #[test]
    fn set_capacity_updates_results() {
        let (pts, caps) = grid(50);
        let mut tree = CapacityKdTree::build(&pts, &caps);
        let q = Coord::xy(0.0, 0.0);
        let (idx, _) = tree.nearest_capable(&q, 20.0).unwrap();
        assert_eq!(idx, 20);
        // Drain point 20; the next candidate is 21.
        tree.set_capacity(20, 0.0);
        let (idx, _) = tree.nearest_capable(&q, 20.0).unwrap();
        assert_eq!(idx, 21);
        // Give point 3 a huge capacity; it is now the nearest capable.
        tree.set_capacity(3, 1000.0);
        let (idx, _) = tree.nearest_capable(&q, 20.0).unwrap();
        assert_eq!(idx, 3);
        assert_eq!(tree.capacity(3), 1000.0);
    }

    #[test]
    fn knn_capable_filters_and_sorts() {
        let (pts, caps) = grid(30);
        let tree = CapacityKdTree::build(&pts, &caps);
        let got = tree.knn_capable(&Coord::xy(0.0, 0.0), 3, 25.0);
        let idx: Vec<usize> = got.iter().map(|n| n.index).collect();
        assert_eq!(idx, vec![25, 26, 27]);
    }

    #[test]
    fn matches_brute_force_on_random_input() {
        let mut rng = StdRng::seed_from_u64(9);
        let pts: Vec<Coord> = (0..400)
            .map(|_| Coord::xy(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0)))
            .collect();
        let caps: Vec<f64> = (0..400).map(|_| rng.gen_range(0.0..100.0)).collect();
        let mut tree = CapacityKdTree::build(&pts, &caps);
        // Random capacity churn.
        let mut caps = caps;
        for _ in 0..300 {
            let i = rng.gen_range(0..400);
            let c = rng.gen_range(0.0..100.0);
            caps[i] = c;
            tree.set_capacity(i, c);
        }
        for _ in 0..60 {
            let q = Coord::xy(rng.gen_range(-100.0..100.0), rng.gen_range(-100.0..100.0));
            let need = rng.gen_range(0.0..90.0);
            let got = tree.nearest_capable(&q, need);
            let want = pts
                .iter()
                .enumerate()
                .filter(|(i, _)| caps[*i] >= need)
                .map(|(i, p)| (i, p.dist(&q)))
                .min_by(|a, b| a.1.total_cmp(&b.1));
            match (got, want) {
                (Some((gi, gd)), Some((_, wd))) => {
                    assert!(
                        (gd - wd).abs() < 1e-9,
                        "need {need}: got {gi}@{gd}, want dist {wd}"
                    );
                }
                (None, None) => {}
                other => panic!("mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn empty_tree_is_benign() {
        let tree = CapacityKdTree::build(&[], &[]);
        assert!(tree.is_empty());
        assert!(tree.nearest_capable(&Coord::xy(0.0, 0.0), 1.0).is_none());
        assert!(tree.knn_capable(&Coord::xy(0.0, 0.0), 3, 1.0).is_empty());
    }

    /// A demand every point meets: `knn_capable` is then plain k-NN.
    const ANY: f64 = f64::NEG_INFINITY;

    fn uncapped(points: &[Coord]) -> CapacityKdTree {
        CapacityKdTree::build(points, &vec![0.0; points.len()])
    }

    fn assert_knn_exact(points: &[Coord], queries: &[Coord], ks: &[usize]) {
        let tree = uncapped(points);
        for q in queries {
            for &k in ks {
                let got = tree.knn_capable(q, k, ANY);
                let want = brute_knn(points, q, k);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert!((g.dist - w.dist).abs() < 1e-9, "k={k} got {g:?} want {w:?}");
                }
            }
        }
    }

    #[test]
    fn empty_tree_returns_nothing() {
        let tree = uncapped(&[]);
        assert!(tree.is_empty());
        assert!(tree.knn_capable(&Coord::xy(0.0, 0.0), 3, ANY).is_empty());
        assert!(tree.nearest_capable(&Coord::xy(0.0, 0.0), ANY).is_none());
    }

    #[test]
    fn k_zero_returns_nothing() {
        let tree = uncapped(&[Coord::xy(1.0, 1.0)]);
        assert!(tree.knn_capable(&Coord::xy(0.0, 0.0), 0, ANY).is_empty());
    }

    #[test]
    fn knn_matches_brute_force_2d() {
        assert_knn_exact(
            &random_points(500, 2, 42),
            &random_points(50, 2, 7),
            &[1, 3, 10, 25],
        );
    }

    #[test]
    fn knn_matches_brute_force_4d() {
        assert_knn_exact(&random_points(300, 4, 9), &random_points(20, 4, 11), &[7]);
    }

    #[test]
    fn k_larger_than_point_count_returns_all() {
        let points = random_points(10, 2, 3);
        let got = uncapped(&points).knn_capable(&Coord::xy(0.0, 0.0), 50, ANY);
        assert_eq!(got.len(), 10);
        for w in got.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn duplicate_points_are_all_returned() {
        let p = Coord::xy(1.0, 1.0);
        let got = uncapped(&[p, p, p, Coord::xy(5.0, 5.0)]).knn_capable(&p, 3, ANY);
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|n| n.dist == 0.0));
    }

    #[test]
    fn collinear_points_are_handled() {
        let points: Vec<Coord> = (0..100).map(|i| Coord::xy(i as f64, 0.0)).collect();
        let got = uncapped(&points).knn_capable(&Coord::xy(50.2, 0.0), 3, ANY);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].index, 50);
    }
}
