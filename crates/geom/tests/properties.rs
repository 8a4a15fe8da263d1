//! Property-based tests for the geometric primitives.

use nova_geom::{geometric_median, minmax_center, CapacityKdTree, Coord, MedianOptions, Neighbor};
use proptest::prelude::*;

fn coord2_strategy() -> impl Strategy<Value = Coord> {
    (-1000.0..1000.0f64, -1000.0..1000.0f64).prop_map(|(x, y)| Coord::xy(x, y))
}

fn coords_strategy(max: usize) -> impl Strategy<Value = Vec<Coord>> {
    proptest::collection::vec(coord2_strategy(), 1..max)
}

proptest! {
    /// The Euclidean distance is a metric: symmetric, non-negative, zero on
    /// identity, and satisfies the triangle inequality.
    #[test]
    fn distance_is_a_metric(a in coord2_strategy(), b in coord2_strategy(), c in coord2_strategy()) {
        prop_assert!((a.dist(&b) - b.dist(&a)).abs() < 1e-9);
        prop_assert!(a.dist(&b) >= 0.0);
        prop_assert_eq!(a.dist(&a), 0.0);
        prop_assert!(a.dist(&c) <= a.dist(&b) + b.dist(&c) + 1e-9);
    }

    /// The geometric median's objective is no worse than the objective at
    /// the centroid and at every anchor (it is the argmin of a convex
    /// function, so it must beat any other candidate point).
    #[test]
    fn median_beats_centroid_and_anchors(anchors in coords_strategy(12)) {
        let result = geometric_median(&anchors, MedianOptions::default()).unwrap();
        let cost_at = |y: &Coord| -> f64 { anchors.iter().map(|a| a.dist(y)).sum() };
        let tol = 1e-6 * (1.0 + result.cost);
        let centroid = Coord::centroid(&anchors).unwrap();
        prop_assert!(result.cost <= cost_at(&centroid) + tol,
            "median cost {} > centroid cost {}", result.cost, cost_at(&centroid));
        for a in &anchors {
            prop_assert!(result.cost <= cost_at(a) + tol,
                "median cost {} > anchor cost {}", result.cost, cost_at(a));
        }
    }

    /// Perturbing the median's point in any of four axis directions must
    /// not decrease the objective (first-order optimality check).
    #[test]
    fn median_is_locally_optimal(anchors in coords_strategy(10)) {
        let result = geometric_median(&anchors, MedianOptions::default()).unwrap();
        let cost_at = |y: &Coord| -> f64 { anchors.iter().map(|a| a.dist(y)).sum() };
        let scale = anchors.iter().map(|a| a.dist(&anchors[0])).fold(0.0, f64::max).max(1.0);
        let step = 1e-3 * scale;
        let tol = 1e-6 * scale;
        for dir in [Coord::xy(step, 0.0), Coord::xy(-step, 0.0), Coord::xy(0.0, step), Coord::xy(0.0, -step)] {
            let moved = result.point + dir;
            prop_assert!(cost_at(&moved) + tol >= result.cost,
                "moving by {dir:?} improved cost from {} to {}", result.cost, cost_at(&moved));
        }
    }

    /// The planner's k-d tree, asked for k-NN under a demand every point
    /// meets, always matches a brute-force scan.
    #[test]
    fn kdtree_matches_brute_force(points in coords_strategy(120), q in coord2_strategy(), k in 1usize..20) {
        let tree = CapacityKdTree::build(&points, &vec![0.0; points.len()]);
        let got = tree.knn_capable(&q, k, f64::NEG_INFINITY);
        let mut want: Vec<Neighbor> = points
            .iter()
            .enumerate()
            .map(|(index, p)| Neighbor { index, dist: p.dist(&q) })
            .collect();
        want.sort_unstable();
        want.truncate(k);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert!((g.dist - w.dist).abs() < 1e-9);
        }
    }

    /// The min-max radius is at least half the diameter of the point set
    /// and no more than the full diameter.
    #[test]
    fn minmax_radius_bounds(points in coords_strategy(30)) {
        let result = minmax_center(&points, 2000).unwrap();
        let mut diameter = 0.0f64;
        for a in &points {
            for b in &points {
                diameter = diameter.max(a.dist(b));
            }
        }
        prop_assert!(result.cost >= diameter / 2.0 - 1e-6);
        prop_assert!(result.cost <= diameter + 1e-6 || diameter == 0.0);
    }
}
