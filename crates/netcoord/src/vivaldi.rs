//! The Vivaldi decentralized network coordinate system.
//!
//! Vivaldi \[Dabek et al., SIGCOMM'04\] models latencies as spring rest
//! lengths: each node keeps a coordinate and a confidence-weighted error
//! estimate, and repeatedly nudges its coordinate towards/away from a
//! neighbor so the Euclidean distance matches the measured RTT. Nova uses
//! Vivaldi as "a stochastic solver for the MDS objective over \[a\]
//! neighborhood-induced sparse distance matrix" (§3.2): each node samples
//! only `m ≪ |V|` neighbors, avoiding quadratic measurement cost.
//!
//! The implementation follows the original update rule with the adaptive
//! timestep (`c_c·w`) and exponentially-weighted error (`c_e`), plus the
//! incremental operations Nova's re-optimization needs: adding a node
//! against a fixed neighbor set and removing a node (§3.5).

use nova_geom::Coord;
use nova_topology::{LatencyProvider, NodeId};
use rand::prelude::*;
use rand::rngs::StdRng;

use crate::CostSpace;

/// Tuning for the Vivaldi relaxation.
#[derive(Debug, Clone, Copy)]
pub struct VivaldiConfig {
    /// Dimensionality of the coordinate space (the paper embeds in R²).
    pub dim: usize,
    /// Neighbor-set size `m` per node (paper: 20 for RIPE/FIT, 32 for
    /// PlanetLab/King).
    pub neighbors: usize,
    /// Coordinate timestep constant `c_c` (0.25 in the Vivaldi paper).
    pub cc: f64,
    /// Error-smoothing constant `c_e` (0.25 in the Vivaldi paper).
    pub ce: f64,
    /// Number of full relaxation rounds (every node updates against every
    /// neighbor once per round).
    pub rounds: usize,
    /// RNG seed (initial coordinates, neighbor sampling, tie-breaking).
    pub seed: u64,
}

impl Default for VivaldiConfig {
    fn default() -> Self {
        VivaldiConfig {
            dim: 2,
            neighbors: 20,
            cc: 0.25,
            ce: 0.25,
            rounds: 60,
            seed: 0x71a1d1,
        }
    }
}

/// A Vivaldi coordinate system over a fixed node population.
#[derive(Debug, Clone)]
pub struct Vivaldi {
    config: VivaldiConfig,
    coords: Vec<Coord>,
    /// Per-node confidence error (1.0 = no confidence, shrinks as the
    /// embedding settles).
    errors: Vec<f64>,
    /// Per-node neighbor sets.
    neighbor_sets: Vec<Vec<u32>>,
    rng: StdRng,
}

impl Vivaldi {
    /// Embed all nodes of `provider` by running `config.rounds` relaxation
    /// rounds over randomly sampled neighbor sets.
    pub fn embed(provider: &impl LatencyProvider, config: VivaldiConfig) -> Self {
        let n = provider.len();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut system = Vivaldi {
            config,
            coords: (0..n).map(|_| random_coord(config.dim, &mut rng)).collect(),
            errors: vec![1.0; n],
            neighbor_sets: sample_neighbor_sets(n, config.neighbors, &mut rng),
            rng,
        };
        for _ in 0..config.rounds {
            system.relax_round(provider);
        }
        system
    }

    /// One full relaxation round: every node updates against each of its
    /// neighbors once, in a randomized node order.
    pub fn relax_round(&mut self, provider: &impl LatencyProvider) {
        let n = self.coords.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(&mut self.rng);
        for i in order {
            // Swap the neighbor list out to appease the borrow checker
            // without cloning per round.
            let neighbors = std::mem::take(&mut self.neighbor_sets[i as usize]);
            for &j in &neighbors {
                let rtt = provider.rtt(NodeId(i), NodeId(j));
                self.update(i as usize, j as usize, rtt);
            }
            self.neighbor_sets[i as usize] = neighbors;
        }
    }

    /// Single Vivaldi update of node `i` against remote node `j` with a
    /// fresh RTT sample.
    fn update(&mut self, i: usize, j: usize, rtt: f64) {
        if !rtt.is_finite() || rtt <= 0.0 || i == j {
            return;
        }
        let (ei, ej) = (self.errors[i], self.errors[j]);
        // Confidence weight: how much node i trusts its own estimate
        // relative to j's.
        let w = if ei + ej > 0.0 { ei / (ei + ej) } else { 0.5 };
        let dist = self.coords[i].dist(&self.coords[j]);
        let sample_err = (dist - rtt).abs() / rtt;
        // Exponentially-weighted moving average of the relative error.
        self.errors[i] =
            (sample_err * self.config.ce * w + ei * (1.0 - self.config.ce * w)).clamp(0.0, 2.0);
        // Move along the spring force direction with adaptive timestep.
        let delta = self.config.cc * w;
        let dir = match self.coords[j].direction_to(&self.coords[i], 1e-9) {
            Some(d) => d,
            None => random_unit(self.config.dim, &mut self.rng),
        };
        self.coords[i] += dir * (delta * (rtt - dist));
    }

    /// Incrementally add a node: measure RTTs to `m` existing nodes (via
    /// `provider`) and relax only the new node against them until its
    /// coordinate settles. Existing coordinates stay fixed — constant-time
    /// with respect to topology size, as §3.5 requires.
    ///
    /// Returns the id assigned to the new node (one past the current
    /// maximum).
    pub fn add_node(&mut self, provider: &impl LatencyProvider, new_id: NodeId) -> Coord {
        let n = self.coords.len();
        let m = self.config.neighbors.min(n.max(1));
        let mut neighbors: Vec<u32> = Vec::with_capacity(m);
        while neighbors.len() < m && n > 0 {
            let cand = self.rng.gen_range(0..n) as u32;
            if cand as usize != new_id.idx() && !neighbors.contains(&cand) {
                neighbors.push(cand);
            }
        }
        let mut coord = if neighbors.is_empty() {
            random_coord(self.config.dim, &mut self.rng)
        } else {
            // Start at the centroid of the neighbor coordinates.
            let pts: Vec<Coord> = neighbors.iter().map(|&j| self.coords[j as usize]).collect();
            Coord::centroid(&pts).unwrap_or_else(|| random_coord(self.config.dim, &mut self.rng))
        };
        let mut err = 1.0f64;
        // Fixed-size relaxation: rounds × m updates, independent of |V|.
        for _ in 0..self.config.rounds.max(16) {
            for &j in &neighbors {
                let rtt = provider.rtt(new_id, NodeId(j));
                if !rtt.is_finite() || rtt <= 0.0 {
                    continue;
                }
                let ej = self.errors[j as usize];
                let w = if err + ej > 0.0 {
                    err / (err + ej)
                } else {
                    0.5
                };
                let dist = coord.dist(&self.coords[j as usize]);
                let sample_err = (dist - rtt).abs() / rtt;
                err = (sample_err * self.config.ce * w + err * (1.0 - self.config.ce * w))
                    .clamp(0.0, 2.0);
                let dir = match self.coords[j as usize].direction_to(&coord, 1e-9) {
                    Some(d) => d,
                    None => random_unit(self.config.dim, &mut self.rng),
                };
                coord += dir * (self.config.cc * w * (rtt - dist));
            }
        }
        if new_id.idx() >= self.coords.len() {
            self.coords
                .resize(new_id.idx() + 1, Coord::zero(self.config.dim));
            self.errors.resize(new_id.idx() + 1, 1.0);
            self.neighbor_sets.resize(new_id.idx() + 1, Vec::new());
        }
        self.coords[new_id.idx()] = coord;
        self.errors[new_id.idx()] = err;
        self.neighbor_sets[new_id.idx()] = neighbors;
        coord
    }

    /// The embedded coordinates in node-id order.
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// Per-node confidence errors.
    pub fn errors(&self) -> &[f64] {
        &self.errors
    }

    /// Convert into a [`CostSpace`] for the optimizer.
    pub fn into_cost_space(self) -> CostSpace {
        CostSpace::new(self.coords)
    }

    /// The configuration used.
    pub fn config(&self) -> &VivaldiConfig {
        &self.config
    }
}

/// Embed one new node against an existing [`CostSpace`] without a full
/// [`Vivaldi`] system: sample `config.neighbors` live nodes, measure RTTs
/// through `provider`, and relax only the new coordinate (existing
/// coordinates stay fixed). This is the constant-time incremental
/// embedding Nova's re-optimization relies on (§3.5): neighbors are drawn
/// by rank among the live nodes without copying the space, so the cost
/// does not grow with the population (only logarithmically with the
/// number of removed nodes). It works regardless of how the original
/// space was computed (Vivaldi, MDS, ground truth).
pub fn embed_new_node(
    space: &CostSpace,
    provider: &impl LatencyProvider,
    new_id: NodeId,
    config: &VivaldiConfig,
) -> Coord {
    let mut rng = StdRng::seed_from_u64(config.seed ^ (new_id.0 as u64).wrapping_mul(0x9E37));
    let live = space.live_len();
    if live == 0 {
        return random_coord(config.dim, &mut rng);
    }
    let m = config.neighbors.min(live);
    // Sample m distinct live neighbors, drawn by their rank in id order.
    let mut anchors: Vec<NodeId> = Vec::with_capacity(m);
    while anchors.len() < m {
        let id = space.nth_live(rng.gen_range(0..live));
        if id != new_id && !anchors.contains(&id) {
            anchors.push(id);
        }
        if anchors.len() + 1 >= live {
            break;
        }
    }
    if anchors.is_empty() {
        return random_coord(config.dim, &mut rng);
    }
    let anchor_coords: Vec<Coord> = anchors
        .iter()
        .map(|&id| space.coord(id).expect("a live id has a coordinate"))
        .collect();
    let mut coord =
        Coord::centroid(&anchor_coords).unwrap_or_else(|| random_coord(config.dim, &mut rng));
    let mut err = 1.0f64;
    for _ in 0..config.rounds.max(16) {
        for (slot, &id) in anchors.iter().enumerate() {
            let rtt = provider.rtt(new_id, id);
            if !rtt.is_finite() || rtt <= 0.0 {
                continue;
            }
            let remote = anchor_coords[slot];
            let w = err / (err + 0.3); // fixed remote confidence
            let dist = coord.dist(&remote);
            let sample_err = (dist - rtt).abs() / rtt;
            err = (sample_err * config.ce * w + err * (1.0 - config.ce * w)).clamp(0.0, 2.0);
            let dir = match remote.direction_to(&coord, 1e-9) {
                Some(d) => d,
                None => random_unit(config.dim, &mut rng),
            };
            coord += dir * (config.cc * w * (rtt - dist));
        }
    }
    coord
}

fn random_coord(dim: usize, rng: &mut StdRng) -> Coord {
    let mut c = Coord::zero(dim);
    for i in 0..dim {
        c[i] = rng.gen_range(-1.0..1.0);
    }
    c
}

fn random_unit(dim: usize, rng: &mut StdRng) -> Coord {
    loop {
        let c = random_coord(dim, rng);
        let n = c.norm();
        if n > 1e-6 {
            return c * (1.0 / n);
        }
    }
}

fn sample_neighbor_sets(n: usize, m: usize, rng: &mut StdRng) -> Vec<Vec<u32>> {
    let m = m.min(n.saturating_sub(1));
    (0..n)
        .map(|i| {
            let mut set = Vec::with_capacity(m);
            while set.len() < m {
                let cand = rng.gen_range(0..n) as u32;
                if cand as usize != i && !set.contains(&cand) {
                    set.push(cand);
                }
            }
            set
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EmbeddingError;
    use nova_topology::DenseRtt;

    /// A perfectly embeddable metric: points on a plane.
    fn planar_rtt(n: usize, seed: u64) -> DenseRtt {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Coord> = (0..n)
            .map(|_| Coord::xy(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        DenseRtt::from_fn(n, |i, j| pts[i].dist(&pts[j]).max(0.1))
    }

    #[test]
    fn embeds_planar_metric_accurately() {
        let rtt = planar_rtt(80, 1);
        let v = Vivaldi::embed(
            &rtt,
            VivaldiConfig {
                rounds: 120,
                neighbors: 16,
                ..Default::default()
            },
        );
        let err = EmbeddingError::evaluate(v.coords(), &rtt, 20_000, 7);
        // Median relative error well under 15% on an embeddable metric.
        assert!(
            err.median_relative < 0.15,
            "median relative error {}",
            err.median_relative
        );
    }

    #[test]
    fn more_neighbors_do_not_hurt_much() {
        // The paper's m-selection study: accuracy converges quickly in m.
        let rtt = planar_rtt(100, 2);
        let cfg = |m: usize| VivaldiConfig {
            neighbors: m,
            rounds: 80,
            ..Default::default()
        };
        let few = Vivaldi::embed(&rtt, cfg(4));
        let many = Vivaldi::embed(&rtt, cfg(32));
        let err_few = EmbeddingError::evaluate(few.coords(), &rtt, 10_000, 3).mae;
        let err_many = EmbeddingError::evaluate(many.coords(), &rtt, 10_000, 3).mae;
        assert!(
            err_many <= err_few * 1.5,
            "m=32 ({err_many}) should not be much worse than m=4 ({err_few})"
        );
    }

    #[test]
    fn errors_decrease_with_relaxation() {
        let rtt = planar_rtt(60, 3);
        let v = Vivaldi::embed(
            &rtt,
            VivaldiConfig {
                rounds: 100,
                ..Default::default()
            },
        );
        let mean_err: f64 = v.errors().iter().sum::<f64>() / v.errors().len() as f64;
        assert!(
            mean_err < 0.5,
            "mean confidence error {mean_err} after convergence"
        );
    }

    #[test]
    fn incremental_add_places_node_near_its_true_position() {
        // Build an embedding of the first n-1 nodes, then add the last.
        let n = 80;
        let rtt = planar_rtt(n, 4);
        // Sub-provider hiding the last node.
        struct Sub<'a>(&'a DenseRtt, usize);
        impl LatencyProvider for Sub<'_> {
            fn len(&self) -> usize {
                self.1
            }
            fn rtt(&self, a: NodeId, b: NodeId) -> f64 {
                self.0.rtt(a, b)
            }
        }
        let sub = Sub(&rtt, n - 1);
        let mut v = Vivaldi::embed(
            &sub,
            VivaldiConfig {
                rounds: 120,
                neighbors: 16,
                ..Default::default()
            },
        );
        let new_id = NodeId((n - 1) as u32);
        v.add_node(&rtt, new_id);
        // Estimated distances from the new node should correlate with the
        // true RTTs: check MAE over the new node's pairs only.
        let coords = v.coords();
        let mut abs_err = 0.0;
        for j in 0..(n - 1) as u32 {
            let est = coords[new_id.idx()].dist(&coords[j as usize]);
            abs_err += (est - rtt.rtt(new_id, NodeId(j))).abs();
        }
        let mae = abs_err / (n - 1) as f64;
        // The planar metric spans ~140 units; demand placement within a
        // reasonable band.
        assert!(mae < 20.0, "incremental add MAE {mae}");
    }

    #[test]
    fn embedding_is_deterministic_per_seed() {
        let rtt = planar_rtt(40, 5);
        let a = Vivaldi::embed(&rtt, VivaldiConfig::default());
        let b = Vivaldi::embed(&rtt, VivaldiConfig::default());
        for (x, y) in a.coords().iter().zip(b.coords()) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
    }

    #[test]
    fn into_cost_space_preserves_coords() {
        let rtt = planar_rtt(20, 6);
        let v = Vivaldi::embed(
            &rtt,
            VivaldiConfig {
                rounds: 20,
                ..Default::default()
            },
        );
        let c0 = v.coords()[0];
        let space = v.into_cost_space();
        assert_eq!(space.coord(NodeId(0)), Some(c0));
        assert_eq!(space.len(), 20);
    }

    /// The body `embed_new_node` had when it drew neighbors from a
    /// materialized copy of `space.live()`: the reference its rank-based
    /// draw must reproduce bit for bit.
    fn embed_new_node_by_copy(
        space: &CostSpace,
        provider: &impl LatencyProvider,
        new_id: NodeId,
        config: &VivaldiConfig,
    ) -> Coord {
        let mut rng = StdRng::seed_from_u64(config.seed ^ (new_id.0 as u64).wrapping_mul(0x9E37));
        let (ids, coords) = space.live();
        if ids.is_empty() {
            return random_coord(config.dim, &mut rng);
        }
        let m = config.neighbors.min(ids.len());
        let mut picked: Vec<usize> = Vec::with_capacity(m);
        while picked.len() < m {
            let cand = rng.gen_range(0..ids.len());
            if ids[cand] != new_id && !picked.contains(&cand) {
                picked.push(cand);
            }
            if picked.len() + 1 >= ids.len() {
                break;
            }
        }
        if picked.is_empty() {
            return random_coord(config.dim, &mut rng);
        }
        let anchor_coords: Vec<Coord> = picked.iter().map(|&i| coords[i]).collect();
        let mut coord =
            Coord::centroid(&anchor_coords).unwrap_or_else(|| random_coord(config.dim, &mut rng));
        let mut err = 1.0f64;
        for _ in 0..config.rounds.max(16) {
            for (slot, &i) in picked.iter().enumerate() {
                let rtt = provider.rtt(new_id, ids[i]);
                if !rtt.is_finite() || rtt <= 0.0 {
                    continue;
                }
                let remote = anchor_coords[slot];
                let w = err / (err + 0.3);
                let dist = coord.dist(&remote);
                let sample_err = (dist - rtt).abs() / rtt;
                err = (sample_err * config.ce * w + err * (1.0 - config.ce * w)).clamp(0.0, 2.0);
                let dir = match remote.direction_to(&coord, 1e-9) {
                    Some(d) => d,
                    None => random_unit(config.dim, &mut rng),
                };
                coord += dir * (config.cc * w * (rtt - dist));
            }
        }
        coord
    }

    #[test]
    fn embed_new_node_matches_the_live_copy_reference() {
        let rtt = planar_rtt(48, 8);
        let mut rng = StdRng::seed_from_u64(9);
        for round in 0..25 {
            let n = rng.gen_range(0..40);
            let mut space = CostSpace::new(
                (0..n)
                    .map(|_| Coord::xy(rng.gen_range(0.0..50.0), rng.gen_range(0.0..50.0)))
                    .collect(),
            );
            // Tombstones, and growth past the end that leaves gaps.
            for _ in 0..rng.gen_range(0..30) {
                let id = NodeId(rng.gen_range(0..44));
                if rng.gen_range(0..3) == 0 {
                    space.set_coord(id, Coord::xy(rng.gen_range(0.0..50.0), 0.0));
                } else {
                    space.remove(id);
                }
            }
            let config = VivaldiConfig {
                neighbors: rng.gen_range(1..12),
                rounds: 16,
                seed: round,
                ..Default::default()
            };
            for new_id in [0, 3, 17, 39, 47].map(NodeId) {
                let got = embed_new_node(&space, &rtt, new_id, &config);
                let want = embed_new_node_by_copy(&space, &rtt, new_id, &config);
                let bits = |c: &Coord| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "round {round}, {new_id}");
            }
        }
    }
}
