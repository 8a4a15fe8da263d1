//! Re-optimization and adaptivity (paper §3.5).
//!
//! Nova never recomputes the full placement on change. The convex virtual
//! optima of Phase II stay valid when physical conditions shift, so every
//! event below re-runs only Phase III, and only for the affected pairs:
//!
//! * **Topology changes** — adding a worker embeds one coordinate against
//!   a fixed-size neighbor set (constant time: neighbors are drawn by rank
//!   without copying the cost space) and updates the search index;
//!   removing a node undeploys and re-places just the replicas it hosted;
//!   adding/removing a source extends/prunes the join matrix (one row or
//!   column, constant time) and (re)solves only the affected sub-branch.
//! * **Workload changes** — data-rate or capacity changes undeploy the
//!   affected replicas and re-run physical placement for them; the
//!   virtual placement is skipped because it does not depend on rates.
//! * **Coordinate drift** — a node whose latencies changed substantially
//!   is removed and re-added to the embedding, then operators it hosts
//!   are re-placed.

use nova_netcoord::embed_new_node;
use nova_topology::{LatencyProvider, NodeId, NodeRole};

use crate::optimizer::Nova;
use crate::placement::place_pair;
use crate::types::{PairId, Side, StreamSpec};
use crate::virtual_placement;

/// Errors of the re-optimization API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReoptError {
    /// `optimize` has not been called yet — there is nothing to adapt.
    NoActiveQuery,
    /// The referenced node does not exist.
    UnknownNode(NodeId),
    /// The referenced stream index does not exist on that side.
    UnknownStream(Side, u32),
}

impl std::fmt::Display for ReoptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReoptError::NoActiveQuery => write!(f, "no active query; call optimize first"),
            ReoptError::UnknownNode(n) => write!(f, "unknown node {n}"),
            ReoptError::UnknownStream(side, i) => write!(f, "unknown {side:?} stream #{i}"),
        }
    }
}

impl std::error::Error for ReoptError {}

/// Summary of one re-optimization step.
#[derive(Debug, Clone, Default)]
pub struct ReoptOutcome {
    /// Pairs whose physical placement was recomputed.
    pub replaced_pairs: Vec<PairId>,
    /// Node created by the event, if any.
    pub new_node: Option<NodeId>,
}

/// One §3.5 adaptation event **as data** — the unit a control plane
/// ships around. [`Nova::apply_step`] dispatches a step to the
/// corresponding imperative method; representing the event as a value
/// is what lets the executor's live-reconfiguration path (and any
/// future external controller) log, queue and replay the same change
/// the optimizer absorbed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReoptStep {
    /// Add an idle worker ([`Nova::add_worker`]).
    AddWorker {
        /// Capacity in tuples/s.
        capacity: f64,
        /// Human-readable node label.
        label: String,
    },
    /// Add a source stream ([`Nova::add_source`]).
    AddSource {
        /// Side of the join the stream feeds.
        side: Side,
        /// Data rate in tuples/s.
        rate: f64,
        /// Join key (region id).
        key: u32,
        /// Node capacity in tuples/s.
        capacity: f64,
        /// Human-readable node label.
        label: String,
    },
    /// Remove a node of any role ([`Nova::remove_node`]).
    RemoveNode {
        /// The departing node.
        node: NodeId,
    },
    /// Change a stream's data rate ([`Nova::change_rate`]).
    ChangeRate {
        /// Side of the join.
        side: Side,
        /// Stream index on that side.
        stream: u32,
        /// New rate in tuples/s.
        new_rate: f64,
    },
    /// Change a worker's capacity ([`Nova::change_capacity`]).
    ChangeCapacity {
        /// The resized node.
        node: NodeId,
        /// New capacity in tuples/s.
        new_capacity: f64,
    },
    /// Re-embed a drifted node ([`Nova::update_coordinates`]).
    UpdateCoordinates {
        /// The node whose latency profile changed.
        node: NodeId,
    },
}

impl Nova {
    /// Apply one [`ReoptStep`] — the data-driven face of the §3.5 API.
    /// Exactly equivalent to calling the step's imperative method;
    /// `provider` is consulted only by the steps that embed a
    /// coordinate (worker/source addition, coordinate update).
    pub fn apply_step(
        &mut self,
        provider: &impl LatencyProvider,
        step: &ReoptStep,
    ) -> Result<ReoptOutcome, ReoptError> {
        match step {
            ReoptStep::AddWorker { capacity, label } => {
                let id = self.add_worker(provider, *capacity, label.clone());
                Ok(ReoptOutcome {
                    new_node: Some(id),
                    ..Default::default()
                })
            }
            ReoptStep::AddSource {
                side,
                rate,
                key,
                capacity,
                label,
            } => self.add_source(provider, *side, *rate, *key, *capacity, label.clone()),
            ReoptStep::RemoveNode { node } => self.remove_node(*node),
            ReoptStep::ChangeRate {
                side,
                stream,
                new_rate,
            } => self.change_rate(*side, *stream, *new_rate),
            ReoptStep::ChangeCapacity { node, new_capacity } => {
                self.change_capacity(*node, *new_capacity)
            }
            ReoptStep::UpdateCoordinates { node } => self.update_coordinates(provider, *node),
        }
    }
}

impl Nova {
    /// Add an idle worker node (§3.5 "topology changes"). Embeds its
    /// coordinate against a fixed-size neighbor set via `provider` and
    /// registers it with the candidate index. No placement changes.
    pub fn add_worker(
        &mut self,
        provider: &impl LatencyProvider,
        capacity: f64,
        label: impl Into<String>,
    ) -> NodeId {
        let id = self.topology.add_node(NodeRole::Worker, capacity, label);
        let coord = embed_new_node(&self.space, provider, id, &self.config.vivaldi);
        self.space.set_coord(id, coord);
        self.avail.set(id, capacity);
        self.index.add_with_capacity(id, coord, capacity);
        id
    }

    /// Add a source node: extends the logical plan and the join matrix,
    /// then runs Phases II+III for the newly created pairs only.
    ///
    /// The new stream joins every opposite-side stream with a matching
    /// key (matrix growth by key, §3.5 / Fig. 3b).
    pub fn add_source(
        &mut self,
        provider: &impl LatencyProvider,
        side: Side,
        rate: f64,
        key: u32,
        capacity: f64,
        label: impl Into<String>,
    ) -> Result<ReoptOutcome, ReoptError> {
        if self.query.is_none() {
            return Err(ReoptError::NoActiveQuery);
        }
        let id = self.topology.add_node(NodeRole::Source, capacity, label);
        self.topology.node_mut(id).region = Some(key);
        let coord = embed_new_node(&self.space, provider, id, &self.config.vivaldi);
        self.space.set_coord(id, coord);
        // Capacity minus the pinned ingestion load (cf. optimize).
        self.avail.set(id, capacity);
        self.avail.take(id, rate);
        self.index.add_with_capacity(id, coord, capacity - rate);

        let template = self.phase_three_config();
        let query = self.query.as_mut().expect("checked above");
        let plan = self.plan.as_mut().expect("plan exists with query");
        let spec = StreamSpec::keyed(id, rate, key);
        // Extend the matrix and collect the new pairs. A removed
        // source's `StreamSpec` stays in `query.left/right` (stream
        // indices are stable), so a key match alone could pair the new
        // stream with a node that has left the cost space — which has
        // no coordinate to place against. Such partners are skipped.
        let space = &self.space;
        let partners =
            |other: &StreamSpec| other.key == Some(key) && space.coord(other.node).is_some();
        let mut new_pairs = Vec::new();
        match side {
            Side::Left => {
                query.left.push(spec);
                query.matrix.push_row();
                let row = query.left.len() - 1;
                for (col, other) in query.right.iter().enumerate() {
                    if partners(other) {
                        query.matrix.set(row, col, true);
                        new_pairs.push((row as u32, col as u32));
                    }
                }
            }
            Side::Right => {
                query.right.push(spec);
                query.matrix.push_col();
                let col = query.right.len() - 1;
                for (row, other) in query.left.iter().enumerate() {
                    if partners(other) {
                        query.matrix.set(row, col, true);
                        new_pairs.push((row as u32, col as u32));
                    }
                }
            }
        }
        let mut outcome = ReoptOutcome {
            new_node: Some(id),
            ..Default::default()
        };
        // Phase II + III for the new sub-branch only.
        for (left, right) in new_pairs {
            let pair = crate::types::JoinPair {
                id: PairId(plan.pairs.len() as u32),
                left,
                right,
            };
            let pos = virtual_placement::virtual_position(query, &pair, &self.space);
            let cfg = {
                // Inline of pair_config to avoid borrowing self wholly.
                let mut cfg = template;
                if let Some(tb) = self.config.bandwidth_budget {
                    cfg.sigma = crate::partitioning::sigma_for_bandwidth(
                        query.left_stream(&pair).rate,
                        query.right_stream(&pair).rate,
                        tb,
                    );
                }
                cfg
            };
            let placed = place_pair(
                query,
                &pair,
                pos,
                &mut self.index,
                &mut self.avail,
                self.median_capacity,
                &cfg,
            );
            self.placement.replicas.extend(placed.replicas);
            plan.pairs.push(pair);
            self.optima.push(pos);
            self.pair_dead.push(false);
            outcome.replaced_pairs.push(pair.id);
        }
        Ok(outcome)
    }

    /// Remove a node. Role-dependent (§3.5):
    /// * idle worker — drop from space and index, nothing re-placed;
    /// * join host — undeploy its replicas and re-run Phase III for the
    ///   affected pairs using their precomputed virtual positions;
    /// * source — deactivate all pairs of its streams and clear the
    ///   corresponding matrix entries (no re-placement: the data is gone).
    pub fn remove_node(&mut self, id: NodeId) -> Result<ReoptOutcome, ReoptError> {
        if id.idx() >= self.topology.len() {
            return Err(ReoptError::UnknownNode(id));
        }
        let mut outcome = ReoptOutcome::default();
        let role = self.topology.node(id).role;
        if let (NodeRole::Source, Some(query)) = (role, self.query.as_mut()) {
            // Deactivate every pair over a stream produced by this node
            // and clear the corresponding join-matrix entries.
            let plan = self.plan.as_ref().expect("plan exists with query");
            let mut dead_pairs = Vec::new();
            for pair in &plan.pairs {
                if self.pair_dead[pair.id.idx()] {
                    continue;
                }
                let l = query.left[pair.left as usize].node;
                let r = query.right[pair.right as usize].node;
                if l == id || r == id {
                    dead_pairs.push(pair.id);
                    query
                        .matrix
                        .set(pair.left as usize, pair.right as usize, false);
                }
            }
            for pid in dead_pairs {
                self.pair_dead[pid.idx()] = true;
                for rep in self.placement.remove_pair(pid) {
                    self.avail.release(rep.node, rep.required_capacity());
                    self.index.set_avail(rep.node, self.avail.get(rep.node));
                }
                outcome.replaced_pairs.push(pid);
            }
        }
        // In every case the node itself disappears: undeploy the pairs it
        // hosted (releasing capacity on their *other* hosts), drop it
        // from the index/space, zero its budget, then re-place the
        // affected pairs elsewhere.
        let affected = self.pairs_hosted_on(id);
        for pid in &affected {
            for rep in self.placement.remove_pair(*pid) {
                if rep.node != id {
                    self.avail.release(rep.node, rep.required_capacity());
                    self.index.set_avail(rep.node, self.avail.get(rep.node));
                }
            }
        }
        self.index.remove(id);
        self.avail.set(id, 0.0);
        self.topology.node_mut(id).capacity = 0.0;
        self.space.remove(id);
        for pid in affected {
            self.place_pair_again(pid)?;
            if !outcome.replaced_pairs.contains(&pid) {
                outcome.replaced_pairs.push(pid);
            }
        }
        Ok(outcome)
    }

    /// Change a source stream's data rate: undeploy the affected pairs
    /// and re-run physical placement for them. Virtual positions are
    /// reused (they are independent of rates).
    pub fn change_rate(
        &mut self,
        side: Side,
        stream_idx: u32,
        new_rate: f64,
    ) -> Result<ReoptOutcome, ReoptError> {
        let query = self.query.as_mut().ok_or(ReoptError::NoActiveQuery)?;
        let streams = match side {
            Side::Left => &mut query.left,
            Side::Right => &mut query.right,
        };
        let stream = streams
            .get_mut(stream_idx as usize)
            .ok_or(ReoptError::UnknownStream(side, stream_idx))?;
        let old_rate = stream.rate;
        let node = stream.node;
        stream.rate = new_rate;
        // Adjust the pinned ingestion charge on the source node.
        self.avail.take(node, new_rate - old_rate);
        self.index.set_avail(node, self.avail.get(node));
        let plan = self.plan.as_ref().expect("plan exists with query");
        let affected: Vec<PairId> = plan
            .pairs
            .iter()
            .filter(|p| match side {
                Side::Left => p.left == stream_idx,
                Side::Right => p.right == stream_idx,
            })
            .filter(|p| !self.pair_dead[p.id.idx()])
            .map(|p| p.id)
            .collect();
        let mut outcome = ReoptOutcome::default();
        for pid in affected {
            self.replace_pair(pid)?;
            outcome.replaced_pairs.push(pid);
        }
        Ok(outcome)
    }

    /// Change a worker's available capacity: undeploy everything it
    /// hosts, update the budget, re-place the affected pairs.
    pub fn change_capacity(
        &mut self,
        id: NodeId,
        new_capacity: f64,
    ) -> Result<ReoptOutcome, ReoptError> {
        if id.idx() >= self.topology.len() {
            return Err(ReoptError::UnknownNode(id));
        }
        let affected = self.pairs_hosted_on(id);
        // Undeploy hosted replicas of the affected pairs first so the new
        // budget starts clean on this node.
        let mut outcome = ReoptOutcome::default();
        for pid in &affected {
            for rep in self.placement.remove_pair(*pid) {
                if rep.node != id {
                    self.avail.release(rep.node, rep.required_capacity());
                    self.index.set_avail(rep.node, self.avail.get(rep.node));
                }
            }
        }
        self.topology.node_mut(id).capacity = new_capacity;
        self.avail.set(id, new_capacity);
        // Re-apply the pinned ingestion charge of any stream this node
        // produces (cf. optimize): the budget reset must not erase it.
        if let Some(query) = &self.query {
            for s in query.left.iter().chain(&query.right) {
                if s.node == id {
                    self.avail.take(id, s.rate);
                }
            }
        }
        self.index.set_avail(id, self.avail.get(id));
        for pid in affected {
            self.place_pair_again(pid)?;
            outcome.replaced_pairs.push(pid);
        }
        Ok(outcome)
    }

    /// Re-embed a node whose latency profile drifted (mobility, routing
    /// changes): remove + re-add in the NCS, update the index, then
    /// re-place any pairs it hosts.
    pub fn update_coordinates(
        &mut self,
        provider: &impl LatencyProvider,
        id: NodeId,
    ) -> Result<ReoptOutcome, ReoptError> {
        if id.idx() >= self.topology.len() {
            return Err(ReoptError::UnknownNode(id));
        }
        self.space.remove(id);
        let coord = embed_new_node(&self.space, provider, id, &self.config.vivaldi);
        self.space.set_coord(id, coord);
        if self.topology.node(id).role != NodeRole::Sink {
            self.index.update_coord(id, coord);
        }
        let affected = self.pairs_hosted_on(id);
        let mut outcome = ReoptOutcome::default();
        for pid in affected {
            self.replace_pair(pid)?;
            outcome.replaced_pairs.push(pid);
        }
        Ok(outcome)
    }

    /// Pairs with a replica on `id`, ascending and without repeats.
    fn pairs_hosted_on(&self, id: NodeId) -> Vec<PairId> {
        let mut v: Vec<PairId> = self
            .placement
            .replicas
            .iter()
            .filter(|r| r.node == id)
            .map(|r| r.pair)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Undeploy and re-place one pair (Phase III only).
    fn replace_pair(&mut self, pid: PairId) -> Result<(), ReoptError> {
        for rep in self.placement.remove_pair(pid) {
            self.avail.release(rep.node, rep.required_capacity());
            self.index.set_avail(rep.node, self.avail.get(rep.node));
        }
        self.place_pair_again(pid)
    }

    /// Re-run Phase III for one pair using its stored virtual position.
    fn place_pair_again(&mut self, pid: PairId) -> Result<(), ReoptError> {
        if self.pair_dead.get(pid.idx()).copied().unwrap_or(true) {
            return Ok(());
        }
        let query = self.query.as_ref().ok_or(ReoptError::NoActiveQuery)?;
        let plan = self.plan.as_ref().expect("plan exists with query");
        let pair = *plan.pair(pid);
        let template = self.phase_three_config();
        let cfg = self.pair_config(query, &pair, &template);
        let outcome = place_pair(
            query,
            &pair,
            self.optima[pid.idx()],
            &mut self.index,
            &mut self.avail,
            self.median_capacity,
            &cfg,
        );
        self.placement.replicas.extend(outcome.replicas);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{Nova, NovaConfig};
    use crate::plan::JoinQuery;
    use nova_geom::Coord;
    use nova_netcoord::CostSpace;
    use nova_topology::{DenseRtt, Topology};

    /// A controlled world: sink at origin, two sources per region, a grid
    /// of workers. Ground-truth coordinates; RTT = coordinate distance.
    struct World {
        nova: Nova,
        rtt: DenseRtt,
    }

    fn world() -> World {
        let mut t = Topology::new();
        let mut coords = Vec::new();
        let sink = t.add_node(NodeRole::Sink, 100.0, "sink");
        coords.push(Coord::xy(0.0, 0.0));
        let l1 = t.add_node(NodeRole::Source, 10.0, "l1");
        coords.push(Coord::xy(20.0, 10.0));
        let r1 = t.add_node(NodeRole::Source, 10.0, "r1");
        coords.push(Coord::xy(20.0, -10.0));
        let l2 = t.add_node(NodeRole::Source, 10.0, "l2");
        coords.push(Coord::xy(-20.0, 10.0));
        let r2 = t.add_node(NodeRole::Source, 10.0, "r2");
        coords.push(Coord::xy(-20.0, -10.0));
        for i in 0..6 {
            t.add_node(NodeRole::Worker, 120.0, format!("w{i}"));
            let x = if i % 2 == 0 { 12.0 } else { -12.0 };
            coords.push(Coord::xy(x, (i as f64 - 2.5) * 2.0));
        }
        let rtt = DenseRtt::from_fn(coords.len(), |i, j| coords[i].dist(&coords[j]).max(0.1));
        let space = CostSpace::new(coords);
        let mut nova = Nova::with_cost_space(t, space, NovaConfig::default());
        let query = JoinQuery::by_key(
            vec![
                StreamSpec::keyed(l1, 30.0, 1),
                StreamSpec::keyed(l2, 30.0, 2),
            ],
            vec![
                StreamSpec::keyed(r1, 30.0, 1),
                StreamSpec::keyed(r2, 30.0, 2),
            ],
            sink,
        );
        nova.optimize(query);
        World { nova, rtt }
    }

    #[test]
    fn initial_world_places_two_pairs() {
        let w = world();
        let pairs: std::collections::HashSet<_> =
            w.nova.placement().replicas.iter().map(|r| r.pair).collect();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn add_worker_is_nondisruptive() {
        let mut w = world();
        let before = w.nova.placement().clone();
        // The provider must cover the new node's measurements.
        let grown = grow_rtt(&w.rtt, Coord::xy(5.0, 0.0));
        let id = w.nova.add_worker(&grown, 50.0, "w-new");
        assert_eq!(w.nova.topology().node(id).role, NodeRole::Worker);
        assert_eq!(w.nova.placement().replicas, before.replicas);
        assert!(w.nova.cost_space().coord(id).is_some());
    }

    #[test]
    fn add_source_creates_and_places_new_pairs() {
        let mut w = world();
        let n_before = w.nova.placement().replicas.len();
        let rtt_grown = grow_rtt(&w.rtt, Coord::xy(22.0, 12.0));
        let out = w
            .nova
            .add_source(&rtt_grown, Side::Left, 20.0, 1, 10.0, "l3")
            .expect("add source");
        assert_eq!(
            out.replaced_pairs.len(),
            1,
            "one matching right stream with key 1"
        );
        assert!(w.nova.placement().replicas.len() > n_before);
        // The new pair's replicas ingest the new source's rate.
        let new_pair = out.replaced_pairs[0];
        let total: f64 = w
            .nova
            .placement()
            .replicas_of(new_pair)
            .map(|r| r.left_rate)
            .sum();
        assert!((total - 20.0).abs() < 1e-9);
    }

    #[test]
    fn add_source_skips_partners_whose_source_was_removed() {
        // Regression: add left → remove it → add right with the same
        // key used to pair the new stream with the dead left stream
        // (its spec stays in `query.left`) and panic with "node … has
        // no cost-space coordinate". A second, living left stream of
        // the same key must still be paired.
        let mut w = world();
        let rtt = grow_rtt(&w.rtt, Coord::xy(22.0, 12.0));
        let gone = w
            .nova
            .add_source(&rtt, Side::Left, 20.0, 1, 10.0, "l-gone")
            .expect("add left");
        let dead = gone.new_node.expect("new node id");
        w.nova.remove_node(dead).expect("remove left");

        let rtt = grow_rtt(&rtt, Coord::xy(24.0, -12.0));
        let out = w
            .nova
            .add_source(&rtt, Side::Right, 20.0, 1, 10.0, "r-late")
            .expect("a dead partner must be skipped, not paired");
        assert_eq!(out.replaced_pairs.len(), 1, "l1 lives, l-gone does not");
        w.nova.validate_accounting().expect("accounting holds");

        let q = w.nova.query().expect("active query");
        let plan = w.nova.plan.as_ref().expect("plan");
        let new_pair = &plan.pairs[out.replaced_pairs[0].idx()];
        let l1 = w.nova.topology().by_label("l1").unwrap();
        assert_eq!(q.left_stream(new_pair).node, l1);
        for pair in plan.pairs.iter().filter(|p| !w.nova.pair_dead[p.id.idx()]) {
            assert_ne!(q.left_stream(pair).node, dead, "{pair:?}");
            assert_ne!(q.right_stream(pair).node, dead, "{pair:?}");
        }
        assert!(w.nova.placement().replicas.iter().all(|r| r.node != dead));
    }

    #[test]
    fn remove_join_host_replaces_only_affected_pairs() {
        let mut w = world();
        let hosts: Vec<NodeId> = w.nova.placement().nodes_used();
        let victim = hosts[0];
        let victim_pairs: std::collections::HashSet<_> = w
            .nova
            .placement()
            .replicas
            .iter()
            .filter(|r| r.node == victim)
            .map(|r| r.pair)
            .collect();
        let out = w.nova.remove_node(victim).expect("remove");
        let replaced: std::collections::HashSet<_> = out.replaced_pairs.iter().copied().collect();
        assert_eq!(replaced, victim_pairs);
        // Nothing remains on the removed node.
        assert!(w.nova.placement().replicas.iter().all(|r| r.node != victim));
        // All pairs still placed.
        let pairs: std::collections::HashSet<_> =
            w.nova.placement().replicas.iter().map(|r| r.pair).collect();
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn remove_source_deactivates_its_pairs() {
        let mut w = world();
        let l1 = w.nova.topology().by_label("l1").unwrap();
        let out = w.nova.remove_node(l1).expect("remove source");
        assert_eq!(out.replaced_pairs.len(), 1);
        let pairs: std::collections::HashSet<_> =
            w.nova.placement().replicas.iter().map(|r| r.pair).collect();
        assert_eq!(pairs.len(), 1, "only the region-2 pair survives");
    }

    #[test]
    fn rate_change_replaces_affected_pair_with_new_rate() {
        let mut w = world();
        let out = w
            .nova
            .change_rate(Side::Left, 0, 60.0)
            .expect("rate change");
        assert_eq!(out.replaced_pairs.len(), 1);
        let pid = out.replaced_pairs[0];
        let left_total: f64 = w
            .nova
            .placement()
            .replicas_of(pid)
            .map(|r| r.left_rate)
            .sum();
        assert!(
            left_total >= 60.0 - 1e-9,
            "left rate re-placed: {left_total}"
        );
    }

    #[test]
    fn capacity_change_moves_load_off_shrunk_node() {
        let mut w = world();
        let hosts = w.nova.placement().nodes_used();
        let victim = hosts[0];
        let out = w
            .nova
            .change_capacity(victim, 1.0)
            .expect("capacity change");
        assert!(!out.replaced_pairs.is_empty());
        // The shrunk node cannot host the old load any more (C_r per pair
        // is 60 > 1); replicas must have moved.
        let load: f64 = w
            .nova
            .placement()
            .replicas
            .iter()
            .filter(|r| r.node == victim)
            .map(|r| r.required_capacity())
            .sum();
        assert!(load <= 1.0 + 1e-9, "residual load {load}");
    }

    #[test]
    fn coordinate_update_keeps_placement_consistent() {
        let mut w = world();
        let hosts = w.nova.placement().nodes_used();
        let victim = hosts[0];
        let out = w
            .nova
            .update_coordinates(&w.rtt, victim)
            .expect("coord update");
        assert!(!out.replaced_pairs.is_empty());
        let pairs: std::collections::HashSet<_> =
            w.nova.placement().replicas.iter().map(|r| r.pair).collect();
        assert_eq!(pairs.len(), 2, "all pairs still placed after drift");
    }

    #[test]
    fn apply_step_dispatches_to_the_imperative_api() {
        // Two worlds, same seed: the data-driven step sequence must
        // leave the optimizer in the same externally observable state
        // as the imperative calls.
        let mut a = world();
        let mut b = world();
        let grown = grow_rtt(&a.rtt, Coord::xy(5.0, 0.0));

        let wa = a.nova.add_worker(&grown, 50.0, "w-new");
        let out = b
            .nova
            .apply_step(
                &grown,
                &ReoptStep::AddWorker {
                    capacity: 50.0,
                    label: "w-new".into(),
                },
            )
            .expect("add worker step");
        assert_eq!(out.new_node, Some(wa));

        let ra = a.nova.change_rate(Side::Left, 0, 60.0).expect("rate");
        let rb = b
            .nova
            .apply_step(
                &grown,
                &ReoptStep::ChangeRate {
                    side: Side::Left,
                    stream: 0,
                    new_rate: 60.0,
                },
            )
            .expect("rate step");
        assert_eq!(ra.replaced_pairs, rb.replaced_pairs);
        assert_eq!(a.nova.placement().replicas, b.nova.placement().replicas);

        let victim = a.nova.placement().nodes_used()[0];
        let na = a.nova.remove_node(victim).expect("remove");
        let nb = b
            .nova
            .apply_step(&grown, &ReoptStep::RemoveNode { node: victim })
            .expect("remove step");
        assert_eq!(na.replaced_pairs, nb.replaced_pairs);
        assert_eq!(a.nova.placement().replicas, b.nova.placement().replicas);

        // Errors propagate unchanged.
        assert_eq!(
            b.nova
                .apply_step(
                    &grown,
                    &ReoptStep::ChangeRate {
                        side: Side::Right,
                        stream: 99,
                        new_rate: 1.0
                    }
                )
                .unwrap_err(),
            ReoptError::UnknownStream(Side::Right, 99)
        );
    }

    #[test]
    fn reopt_without_query_errors() {
        let mut t = Topology::new();
        t.add_node(NodeRole::Sink, 1.0, "sink");
        let space = CostSpace::new(vec![Coord::xy(0.0, 0.0)]);
        let mut nova = Nova::with_cost_space(t, space, NovaConfig::default());
        let rtt = DenseRtt::zeros(1);
        assert_eq!(
            nova.add_source(&rtt, Side::Left, 1.0, 1, 1.0, "x")
                .unwrap_err(),
            ReoptError::NoActiveQuery
        );
        assert_eq!(
            nova.change_rate(Side::Left, 0, 1.0).unwrap_err(),
            ReoptError::NoActiveQuery
        );
    }

    /// Extend a DenseRtt with one extra node at the given ground-truth
    /// position (distances to all existing nodes = coordinate distance).
    fn grow_rtt(base: &DenseRtt, new_pos: Coord) -> DenseRtt {
        // Reconstruct old positions is impossible from the matrix alone,
        // so approximate: new node's RTT to node i = distance from
        // new_pos to that node's position in the *test* world layout.
        // The world() layout is deterministic; rebuild it here.
        let coords = vec![
            Coord::xy(0.0, 0.0),
            Coord::xy(20.0, 10.0),
            Coord::xy(20.0, -10.0),
            Coord::xy(-20.0, 10.0),
            Coord::xy(-20.0, -10.0),
            Coord::xy(12.0, -5.0),
            Coord::xy(-12.0, -3.0),
            Coord::xy(12.0, -1.0),
            Coord::xy(-12.0, 1.0),
            Coord::xy(12.0, 3.0),
            Coord::xy(-12.0, 5.0),
        ];
        let n = base.len() + 1;
        DenseRtt::from_fn(n, |i, j| {
            if i < base.len() && j < base.len() {
                base.get(i, j)
            } else {
                let pos = |k: usize| if k < coords.len() { coords[k] } else { new_pos };
                pos(i).dist(&pos(j)).max(0.1)
            }
        })
    }
}
