//! Phase III: physical replica assignment (paper §3.4).
//!
//! Maps each join pair from its virtual cost-space position onto physical
//! nodes under capacity (Eq. 2), availability (Eq. 3) and bandwidth
//! (Eq. 4) constraints:
//!
//! 1. *Bandwidth-aware partitioning* splits the pair's input streams into
//!    partitions of at most `p_max` (σ-controlled, [`crate::partitioning`]).
//! 2. *Candidate selection* runs a k-NN search around the virtual
//!    position, with `k` scaled by the pair's demand relative to the
//!    median available capacity; candidates below `C_min` are filtered.
//! 3. *Sequential assignment* places the `m × n` replicas on candidates
//!    in distance order. Partitions already present on a node are not
//!    charged again (the paper "merges" co-located replicas: a node's
//!    required capacity is the sum of the *distinct* partition rates it
//!    ingests) — this is what lets the §3.4 example pack half of 625
//!    unit replicas onto node B (40 capacity) and half onto C.
//! 4. On exhaustion, the configured overflow policy either expands the
//!    neighborhood (more network overhead) or distributes the remaining
//!    replicas evenly accepting overload — exactly the two fallbacks the
//!    paper describes.

use std::collections::HashMap;

use nova_geom::Coord;
use nova_topology::{NodeId, NodeRole, Topology};
use serde::{Deserialize, Serialize};

use crate::candidates::CandidateIndex;
use crate::partitioning::PartitionedJoin;
use crate::plan::JoinQuery;
use crate::types::{JoinPair, PairId};

/// What to do when no candidate can host a replica (paper §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Distribute the remaining replicas evenly across the current
    /// candidates, accepting a risk of overload.
    DistributeEvenly,
    /// Expand the candidate neighborhood (doubling k up to
    /// `max_expansions` times, potentially increasing network overhead),
    /// then fall back to even distribution.
    ExpandThenDistribute {
        /// Maximum number of k-doublings before giving up.
        max_expansions: u32,
    },
}

impl Default for OverflowPolicy {
    fn default() -> Self {
        OverflowPolicy::ExpandThenDistribute { max_expansions: 12 }
    }
}

/// Tunables of the physical assignment phase.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PhaseThreeConfig {
    /// Partitioning scale factor σ ∈ [0, 1] (paper default 0.4).
    pub sigma: f64,
    /// Resource availability threshold `C_min` (Eq. 3): nodes whose
    /// available capacity is below this are not considered candidates.
    pub c_min: f64,
    /// Lower bound on the k-NN `k` (the §3.4 walk-through uses k = 2).
    pub k_min: usize,
    /// Overflow behavior.
    pub overflow: OverflowPolicy,
}

impl Default for PhaseThreeConfig {
    fn default() -> Self {
        PhaseThreeConfig {
            sigma: 0.4,
            c_min: 0.0,
            k_min: 2,
            overflow: OverflowPolicy::default(),
        }
    }
}

/// Remaining capacity per node during and after placement.
#[derive(Debug, Clone)]
pub struct Availability {
    avail: Vec<f64>,
}

impl Availability {
    /// Initialize from the topology's node capacities.
    pub fn from_topology(topology: &Topology) -> Self {
        Availability {
            avail: topology.nodes().iter().map(|n| n.capacity).collect(),
        }
    }

    /// Remaining capacity of a node.
    pub fn get(&self, id: NodeId) -> f64 {
        self.avail.get(id.idx()).copied().unwrap_or(0.0)
    }

    /// Consume capacity (may go negative under accepted overload).
    pub fn take(&mut self, id: NodeId, amount: f64) {
        if id.idx() >= self.avail.len() {
            self.avail.resize(id.idx() + 1, 0.0);
        }
        self.avail[id.idx()] -= amount;
    }

    /// Return capacity (when replicas are undeployed, §3.5).
    pub fn release(&mut self, id: NodeId, amount: f64) {
        self.take(id, -amount);
    }

    /// Reset one node's remaining capacity (capacity change events).
    pub fn set(&mut self, id: NodeId, value: f64) {
        if id.idx() >= self.avail.len() {
            self.avail.resize(id.idx() + 1, 0.0);
        }
        self.avail[id.idx()] = value;
    }

    /// Median *available* capacity over placement-eligible nodes (workers
    /// and sources) — the denominator of the adaptive k (§3.4).
    pub fn median_capacity(&self, topology: &Topology) -> f64 {
        let mut caps: Vec<f64> = topology
            .nodes()
            .iter()
            .filter(|n| n.role != NodeRole::Sink)
            .map(|n| self.get(n.id))
            .filter(|c| *c > 0.0)
            .collect();
        if caps.is_empty() {
            return 1.0;
        }
        let mid = caps.len() / 2;
        caps.select_nth_unstable_by(mid, f64::total_cmp);
        caps[mid].max(1.0)
    }
}

/// One placed (merged) join replica: all partitions of a pair hosted on
/// one node, with the paths its data travels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacedReplica {
    /// The join pair this replica belongs to.
    pub pair: PairId,
    /// Hosting node.
    pub node: NodeId,
    /// Left input rate ingested by this node (sum of its distinct left
    /// partitions).
    pub left_rate: f64,
    /// Right input rate ingested.
    pub right_rate: f64,
    /// Indices of the left-stream partitions hosted here (into the
    /// pair's [`crate::partitioning::PartitionedJoin::left`]). Runtimes
    /// use this to route tuples; unpartitioned placements carry `[0]`.
    pub left_partitions: Vec<u32>,
    /// Indices of the right-stream partitions hosted here.
    pub right_partitions: Vec<u32>,
    /// Number of (left, right) sub-replicas merged into this instance.
    pub merged_replicas: u32,
    /// Route of the left input: `[source, ..., node]`.
    pub left_path: Vec<NodeId>,
    /// Route of the right input: `[source, ..., node]`.
    pub right_path: Vec<NodeId>,
    /// Route of the output: `[node, ..., sink]`.
    pub out_path: Vec<NodeId>,
    /// Output rate towards the sink (selectivity applied).
    pub output_rate: f64,
    /// Whether this replica was placed by the overflow fallback and may
    /// overload its node.
    pub overflowed: bool,
}

impl PlacedReplica {
    /// Required capacity of this merged instance: sum of distinct
    /// partition rates it ingests (paper §2.2).
    pub fn required_capacity(&self) -> f64 {
        self.left_rate + self.right_rate
    }
}

/// A full operator-to-node mapping for a query.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Placement {
    /// Name of the producing approach ("nova", "sink", ...).
    pub approach: String,
    /// All placed (merged) replicas.
    pub replicas: Vec<PlacedReplica>,
}

impl Placement {
    /// An empty placement for the given approach label.
    pub fn new(approach: impl Into<String>) -> Self {
        Placement {
            approach: approach.into(),
            replicas: Vec::new(),
        }
    }

    /// Distinct nodes hosting at least one replica.
    pub fn nodes_used(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.replicas.iter().map(|r| r.node).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Total number of merged replica instances.
    pub fn instance_count(&self) -> usize {
        self.replicas.len()
    }

    /// Total number of sub-replicas before merging.
    pub fn sub_replica_count(&self) -> usize {
        self.replicas
            .iter()
            .map(|r| r.merged_replicas as usize)
            .sum()
    }

    /// All replicas of one pair.
    pub fn replicas_of(&self, pair: PairId) -> impl Iterator<Item = &PlacedReplica> + '_ {
        self.replicas.iter().filter(move |r| r.pair == pair)
    }

    /// Remove and return all replicas of a pair (undeployment, §3.5).
    ///
    /// A pair's replicas form one contiguous run — every placement this
    /// crate builds appends them together, and debug builds check it — so
    /// the run is drained in place and the remaining replicas keep their
    /// order.
    pub fn remove_pair(&mut self, pair: PairId) -> Vec<PlacedReplica> {
        let Some(start) = self.replicas.iter().position(|r| r.pair == pair) else {
            return Vec::new();
        };
        let end = self.replicas[start..]
            .iter()
            .position(|r| r.pair != pair)
            .map_or(self.replicas.len(), |len| start + len);
        debug_assert!(
            self.replicas[end..].iter().all(|r| r.pair != pair),
            "replicas of {pair:?} are not contiguous"
        );
        self.replicas.drain(start..end).collect()
    }
}

/// Per-node placement state while assigning one pair's replicas: which
/// partitions are already present (and therefore free to reuse).
#[derive(Default)]
struct NodePartitions {
    left: Vec<bool>,
    right: Vec<bool>,
    merged: u32,
    overflowed: bool,
}

/// Result of placing one pair.
#[derive(Debug, Clone)]
pub struct PlacePairOutcome {
    /// The merged placed replicas.
    pub replicas: Vec<PlacedReplica>,
}

/// Assign all replicas of one pair. Consumes capacity from `avail` and
/// keeps the candidate index's capacity view in sync.
///
/// `median_capacity` is the median available per-node capacity computed
/// once per optimization run (it scales the adaptive k of the `V_knn`
/// candidate set used by the even-distribution fallback and the
/// `DistributeEvenly` policy).
///
/// For each sub-replica the algorithm picks, in distance order, between
/// (a) a node already hosting partitions of this pair — charged only the
/// *incremental* cost of the partitions it is missing (the paper's
/// replica merging) — and (b) the nearest fresh node whose availability
/// covers both the replica's full demand and the `C_min` threshold
/// (Eq. 2–3), found in O(log n) via the capacity-aware index. Under the
/// `DistributeEvenly` policy fresh nodes are restricted to the initial
/// `V_knn` set (the paper's option 1: accept overload rather than widen
/// the neighborhood); `ExpandThenDistribute` searches globally (option
/// 2) and falls back to even distribution only when *no* node in the
/// topology can host the replica.
pub fn place_pair(
    query: &JoinQuery,
    pair: &JoinPair,
    virtual_pos: Coord,
    index: &mut CandidateIndex,
    avail: &mut Availability,
    median_capacity: f64,
    cfg: &PhaseThreeConfig,
) -> PlacePairOutcome {
    let left_stream = query.left_stream(pair);
    let right_stream = query.right_stream(pair);
    let parts = PartitionedJoin::decompose(left_stream.rate, right_stream.rate, cfg.sigma);
    if parts.replica_count() == 0 {
        return PlacePairOutcome {
            replicas: Vec::new(),
        };
    }

    // The paper's adaptive V_knn: k scales with the pair's total demand
    // relative to the median per-node availability.
    let total_required = query.required_capacity(pair);
    let k = ((total_required / median_capacity)
        .ceil()
        .max(cfg.k_min as f64) as usize)
        .min(index.live_count().max(1));
    let vknn: Vec<(NodeId, f64)> = index.knn(&virtual_pos, k);
    let restrict_to_vknn = matches!(cfg.overflow, OverflowPolicy::DistributeEvenly);

    // Nodes already hosting partitions of this pair, sorted by distance
    // to the virtual optimum (for merge reuse).
    let mut used: Vec<(NodeId, f64)> = Vec::new();
    let mut per_node: HashMap<NodeId, NodePartitions> = HashMap::new();
    let mut distribute_cursor: Option<usize> = None;

    for (li, rj, _) in parts.replicas() {
        let quantum = parts.left[li] + parts.right[rj];
        let chosen: (NodeId, f64, bool) = if let Some(cursor) = distribute_cursor.as_mut() {
            // Even-distribution fallback: round-robin over V_knn
            // regardless of remaining capacity (accepted overload).
            let (node, dist) = vknn[*cursor % vknn.len()];
            *cursor += 1;
            (node, dist, true)
        } else {
            // (a) closest already-used node that fits incrementally.
            let reuse = used
                .iter()
                .find(|(n, _)| {
                    fits(
                        avail.get(*n),
                        incremental_cost(&per_node, *n, &parts, li, rj),
                    )
                })
                .copied();
            // (b) nearest fresh node able to host the full replica and
            // satisfying C_min (Eq. 3).
            let need = quantum.max(cfg.c_min);
            let fresh = if restrict_to_vknn {
                vknn.iter()
                    .find(|(n, _)| fits(avail.get(*n), need))
                    .copied()
            } else {
                index.nearest_capable(&virtual_pos, need - 1e-9 * need.max(1.0))
            };
            match (reuse, fresh) {
                (Some((un, ud)), Some((fnode, fd))) => {
                    if ud <= fd {
                        (un, ud, false)
                    } else {
                        (fnode, fd, false)
                    }
                }
                (Some((un, ud)), None) => (un, ud, false),
                (None, Some((fnode, fd))) => (fnode, fd, false),
                (None, None) => {
                    // No node in the topology (or V_knn under the
                    // restricted policy) can host this replica: accept
                    // overload and distribute the rest evenly.
                    if vknn.is_empty() {
                        return PlacePairOutcome {
                            replicas: Vec::new(),
                        };
                    }
                    distribute_cursor = Some(1);
                    let (node, dist) = vknn[0];
                    (node, dist, true)
                }
            }
        };
        let (node, dist, overflow) = chosen;
        let incr = incremental_cost(&per_node, node, &parts, li, rj);
        avail.take(node, incr);
        index.set_avail(node, avail.get(node));
        let entry = per_node.entry(node).or_insert_with(|| NodePartitions {
            left: vec![false; parts.left.len()],
            right: vec![false; parts.right.len()],
            merged: 0,
            overflowed: false,
        });
        entry.left[li] = true;
        entry.right[rj] = true;
        entry.merged += 1;
        entry.overflowed |= overflow;
        if !used.iter().any(|(n, _)| *n == node) {
            let at = used.partition_point(|(_, d)| *d <= dist);
            used.insert(at, (node, dist));
        }
    }

    // Emit one merged replica per hosting node.
    let mut out: Vec<PlacedReplica> = per_node
        .into_iter()
        .map(|(node, np)| {
            let left_rate: f64 = parts
                .left
                .iter()
                .zip(&np.left)
                .filter_map(|(rate, present)| present.then_some(*rate))
                .sum();
            let right_rate: f64 = parts
                .right
                .iter()
                .zip(&np.right)
                .filter_map(|(rate, present)| present.then_some(*rate))
                .sum();
            let collect_indices = |mask: &[bool]| -> Vec<u32> {
                mask.iter()
                    .enumerate()
                    .filter_map(|(i, p)| p.then_some(i as u32))
                    .collect()
            };
            PlacedReplica {
                pair: pair.id,
                node,
                left_rate,
                right_rate,
                left_partitions: collect_indices(&np.left),
                right_partitions: collect_indices(&np.right),
                merged_replicas: np.merged,
                left_path: direct_path(left_stream.node, node),
                right_path: direct_path(right_stream.node, node),
                out_path: direct_path(node, query.sink),
                output_rate: query.selectivity * (left_rate + right_rate),
                overflowed: np.overflowed,
            }
        })
        .collect();
    out.sort_unstable_by_key(|r| r.node);
    PlacePairOutcome { replicas: out }
}

/// Capacity comparisons tolerate one part in 10⁹ of relative error:
/// partition rates and capacities are derived through different float
/// expressions that can disagree in the last ulp even when they are
/// mathematically equal.
#[inline]
fn fits(avail: f64, incr: f64) -> bool {
    avail >= incr - 1e-9 * incr.max(1.0)
}

fn incremental_cost(
    per_node: &HashMap<NodeId, NodePartitions>,
    node: NodeId,
    parts: &PartitionedJoin,
    li: usize,
    rj: usize,
) -> f64 {
    match per_node.get(&node) {
        None => parts.left[li] + parts.right[rj],
        Some(np) => {
            let mut c = 0.0;
            if !np.left[li] {
                c += parts.left[li];
            }
            if !np.right[rj] {
                c += parts.right[rj];
            }
            c
        }
    }
}

/// A direct routing leg: `[from, to]`, or `[from]` when colocated.
pub fn direct_path(from: NodeId, to: NodeId) -> Vec<NodeId> {
    if from == to {
        vec![from]
    } else {
        vec![from, to]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::StreamSpec;
    use nova_netcoord::CostSpace;

    /// Line topology: sink at x=0, workers at x=1..n, sources off-index.
    struct Fixture {
        topology: Topology,
        space: CostSpace,
        query: JoinQuery,
    }

    fn fixture(worker_caps: &[f64]) -> Fixture {
        let mut t = Topology::new();
        let mut coords = Vec::new();
        let sink = t.add_node(NodeRole::Sink, 1000.0, "sink");
        coords.push(Coord::xy(0.0, 0.0));
        let l = t.add_node(NodeRole::Source, 10.0, "left");
        coords.push(Coord::xy(10.0, 5.0));
        let r = t.add_node(NodeRole::Source, 10.0, "right");
        coords.push(Coord::xy(10.0, -5.0));
        for (i, cap) in worker_caps.iter().enumerate() {
            t.add_node(NodeRole::Worker, *cap, format!("w{i}"));
            // Workers near the median of the anchors (x ≈ 7).
            coords.push(Coord::xy(7.0 + i as f64 * 0.1, 0.0));
        }
        let query = JoinQuery::by_key(
            vec![StreamSpec::keyed(l, 25.0, 1)],
            vec![StreamSpec::keyed(r, 25.0, 1)],
            sink,
        );
        Fixture {
            topology: t,
            space: CostSpace::new(coords),
            query,
        }
    }

    fn run(f: &Fixture, cfg: &PhaseThreeConfig) -> (Vec<PlacedReplica>, Availability) {
        let plan = f.query.resolve();
        let mut avail = Availability::from_topology(&f.topology);
        let mut index = CandidateIndex::build(&f.topology, &f.space, 1_000, 1);
        let median = avail.median_capacity(&f.topology);
        let out = place_pair(
            &f.query,
            &plan.pairs[0],
            Coord::xy(7.0, 0.0),
            &mut index,
            &mut avail,
            median,
            cfg,
        );
        (out.replicas, avail)
    }

    #[test]
    fn unpartitioned_pair_fits_single_worker() {
        let f = fixture(&[100.0]);
        let cfg = PhaseThreeConfig {
            sigma: 1.0,
            ..Default::default()
        };
        let (reps, avail) = run(&f, &cfg);
        assert_eq!(reps.len(), 1);
        let rep = &reps[0];
        assert_eq!(rep.required_capacity(), 50.0);
        assert_eq!(rep.merged_replicas, 1);
        assert!(!rep.overflowed);
        assert_eq!(avail.get(rep.node), 50.0);
    }

    #[test]
    fn partitions_spill_across_workers_without_overload() {
        // Two workers of 40 each cannot host the whole 50-unit join, but
        // σ=0.4 partitions it into p_max = 10 chunks that spread across
        // both without overloading either (broadcasting partitions to a
        // second node duplicates some traffic — the bandwidth/overload
        // trade-off of §3.4).
        let f = fixture(&[40.0, 40.0]);
        let cfg = PhaseThreeConfig {
            sigma: 0.4,
            ..Default::default()
        };
        let (reps, avail) = run(&f, &cfg);
        assert!(reps.len() >= 2, "should use both workers: {reps:?}");
        for rep in &reps {
            assert!(!rep.overflowed);
            assert!(avail.get(rep.node) >= 0.0, "node {} overloaded", rep.node);
        }
        // Placed mass covers the join (≥ the unpartitioned requirement;
        // duplication from broadcasting may exceed it).
        let total: f64 = reps.iter().map(|r| r.required_capacity()).sum();
        assert!(total >= 50.0 - 1e-9, "placed {total}");
        // Every sub-replica of the 3×3 partition grid is hosted.
        let subs: u32 = reps.iter().map(|r| r.merged_replicas).sum();
        assert_eq!(subs, 9);
    }

    #[test]
    fn merged_accounting_reuses_partitions() {
        // σ=0 ⇒ 25×25 unit partitions; a single worker of capacity 50
        // can host ALL of them because merged accounting charges each
        // distinct partition once (total distinct = 25 + 25 = 50).
        let f = fixture(&[50.0]);
        let cfg = PhaseThreeConfig {
            sigma: 0.0,
            ..Default::default()
        };
        let (reps, avail) = run(&f, &cfg);
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].merged_replicas, 625);
        assert_eq!(reps[0].required_capacity(), 50.0);
        assert!(!reps[0].overflowed);
        assert!(avail.get(reps[0].node).abs() < 1e-9);
    }

    #[test]
    fn overflow_distributes_evenly_when_capacity_missing() {
        // Total capacity 20 < required 50: even σ=0 partitioning cannot
        // fit; the fallback must still place everything, accepting
        // overload.
        let f = fixture(&[10.0, 10.0]);
        let cfg = PhaseThreeConfig {
            sigma: 1.0,
            overflow: OverflowPolicy::ExpandThenDistribute { max_expansions: 3 },
            ..Default::default()
        };
        let (reps, _) = run(&f, &cfg);
        let total: f64 = reps.iter().map(|r| r.required_capacity()).sum();
        assert!(
            (total - 50.0).abs() < 1e-9,
            "all load must be placed, got {total}"
        );
        assert!(reps.iter().any(|r| r.overflowed));
    }

    #[test]
    fn c_min_excludes_small_nodes() {
        // First worker has 12 < C_min = 15: must not be used even though
        // it is nearest.
        let f = fixture(&[12.0, 100.0]);
        let cfg = PhaseThreeConfig {
            c_min: 15.0,
            sigma: 1.0,
            ..Default::default()
        };
        let (reps, _) = run(&f, &cfg);
        assert_eq!(reps.len(), 1);
        assert_eq!(f.topology.node(reps[0].node).label, "w1");
    }

    #[test]
    fn paths_are_direct_legs() {
        let f = fixture(&[100.0]);
        let cfg = PhaseThreeConfig {
            sigma: 1.0,
            ..Default::default()
        };
        let (reps, _) = run(&f, &cfg);
        let rep = &reps[0];
        assert_eq!(rep.left_path.len(), 2);
        assert_eq!(rep.left_path[1], rep.node);
        assert_eq!(rep.out_path[0], rep.node);
        assert_eq!(*rep.out_path.last().unwrap(), f.query.sink);
    }

    #[test]
    fn availability_release_restores_capacity() {
        let f = fixture(&[100.0]);
        let mut avail = Availability::from_topology(&f.topology);
        let w = f.topology.by_label("w0").unwrap();
        avail.take(w, 60.0);
        assert_eq!(avail.get(w), 40.0);
        avail.release(w, 60.0);
        assert_eq!(avail.get(w), 100.0);
    }

    #[test]
    fn placement_collection_helpers() {
        let f = fixture(&[30.0, 30.0]);
        let cfg = PhaseThreeConfig::default();
        let (reps, _) = run(&f, &cfg);
        let mut p = Placement::new("test");
        p.replicas = reps;
        assert!(p.instance_count() >= 2);
        assert!(p.sub_replica_count() >= p.instance_count());
        let used = p.nodes_used();
        assert!(used.len() >= 2);
        let removed = p.remove_pair(PairId(0));
        assert!(!removed.is_empty());
        assert_eq!(p.instance_count(), 0);
    }
}
