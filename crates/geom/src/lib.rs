//! Geometric primitives underpinning the Nova optimizer.
//!
//! Nova (EDBT 2026) relaxes the NP-hard operator placement and
//! parallelization problem by embedding the network topology into a
//! low-dimensional Euclidean *cost space* and solving placement there.
//! This crate provides the geometry that the optimizer relies on:
//!
//! * [`Coord`] — a fixed-capacity, copyable coordinate vector (up to
//!   [`MAX_DIM`] dimensions) used for every point in the cost space,
//! * [`median`] — solvers for the geometric median (Weiszfeld fixed point
//!   and plain gradient descent, the paper's Eq. 6) plus a min-max
//!   (smallest enclosing ball) alternative used for ablations,
//! * [`kdcap`] — the exact k-d tree for k-nearest-neighbour candidate
//!   search on small and medium topologies, with per-subtree capacity
//!   maxima so "nearest node that can still host x" prunes drained
//!   regions,
//! * [`annoy`] — an Annoy-style random-projection forest for approximate
//!   k-NN on very large topologies (the paper uses the Annoy library for
//!   topologies beyond a few thousand nodes).
//!
//! Everything in this crate is deterministic given a seed and free of
//! global state, which keeps the optimizer's simulations reproducible.

#![forbid(unsafe_code)]

pub mod annoy;
pub mod coord;
pub mod kdcap;
pub mod median;

pub use annoy::{AnnoyIndex, AnnoyParams};
pub use coord::{Coord, MAX_DIM};
pub use kdcap::CapacityKdTree;
pub use median::{
    geometric_median, geometric_median_gd, minmax_center, weighted_geometric_median, GdOptions,
    MedianOptions, MedianResult,
};

/// A neighbour returned by a k-NN query: index into the indexed point set
/// plus the Euclidean distance to the query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the matched point in the order it was inserted.
    pub index: usize,
    /// Euclidean distance between the query and the matched point.
    pub dist: f64,
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.index.cmp(&other.index))
    }
}

/// Exact references the index tests compare against.
#[cfg(test)]
mod test_util {
    use rand::prelude::*;
    use rand::rngs::StdRng;

    use crate::{Coord, Neighbor};

    /// The `k` nearest points by full scan, closest first.
    pub(crate) fn brute_knn(points: &[Coord], query: &Coord, k: usize) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = points
            .iter()
            .enumerate()
            .map(|(index, p)| Neighbor {
                index,
                dist: p.dist(query),
            })
            .collect();
        all.sort_unstable();
        all.truncate(k);
        all
    }

    /// `n` points uniform in `[-100, 100)^dim`.
    pub(crate) fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Coord> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let v: Vec<f64> = (0..dim).map(|_| rng.gen_range(-100.0..100.0)).collect();
                Coord::from_slice(&v)
            })
            .collect()
    }
}
