//! The Nova optimizer — Algorithm 1 of the paper.
//!
//! Given a topology `G_T`, a logical plan (a [`JoinQuery`]) and the join
//! matrix, Nova produces an operator-to-node mapping for the parallelized
//! plan in three linear-time phases:
//!
//! 1. **Cost space construction** (§3.2): embed the topology into R^d via
//!    Vivaldi ([`nova_netcoord::Vivaldi`]); callers with precomputed
//!    coordinates can inject a [`CostSpace`] directly.
//! 2. **Virtual join placement** (§3.3): resolve the query into join
//!    pairs and place each at the geometric median of its pinned
//!    endpoints ([`crate::virtual_placement`]).
//! 3. **Physical replica assignment** (§3.4): bandwidth-aware
//!    partitioning, adaptive k-NN candidate selection and sequential
//!    placement under capacity constraints ([`crate::placement`]).
//!
//! The struct retains everything re-optimization (§3.5) needs — the cost
//! space, the candidate index, remaining capacities, virtual optima and
//! the current placement — so topology/workload changes touch only the
//! affected pairs (see [`crate::reopt`]).

use nova_geom::Coord;
use nova_netcoord::{CostSpace, Vivaldi, VivaldiConfig};
use nova_topology::{LatencyProvider, Topology};

use crate::candidates::CandidateIndex;
use crate::partitioning::sigma_for_bandwidth;
use crate::placement::{place_pair, Availability, OverflowPolicy, PhaseThreeConfig, Placement};
use crate::plan::{JoinQuery, ResolvedPlan};
use crate::virtual_placement;

/// Configuration of the full Nova pipeline.
#[derive(Debug, Clone, Copy)]
pub struct NovaConfig {
    /// Partitioning scale factor σ (paper default: 0.4, "a well-balanced
    /// trade-off across diverse workloads and topologies").
    pub sigma: f64,
    /// Availability threshold `C_min` (Eq. 3).
    pub c_min: f64,
    /// Lower bound for the adaptive k-NN k.
    pub k_min: usize,
    /// Overflow policy for replicas that fit no candidate.
    pub overflow: OverflowPolicy,
    /// Optional per-operator bandwidth budget `t_b`; when set, σ is
    /// derived per pair from Eq. 8 instead of the fixed `sigma`.
    pub bandwidth_budget: Option<f64>,
    /// Vivaldi settings for Phase I (when Nova builds the embedding).
    pub vivaldi: VivaldiConfig,
    /// Topology size up to which the exact k-d tree index is used;
    /// beyond it the approximate Annoy-style index takes over (§3.4).
    /// The default keeps the exact tree everywhere: in the 2-D cost
    /// space a k-d tree out-queries the random-projection forest at all
    /// the scales the paper evaluates;
    /// lower the threshold when embedding into higher-dimensional,
    /// multi-metric cost spaces (§3.6).
    pub exact_index_threshold: usize,
    /// Seed for index construction.
    pub seed: u64,
}

impl Default for NovaConfig {
    fn default() -> Self {
        NovaConfig {
            sigma: 0.4,
            c_min: 0.0,
            k_min: 2,
            overflow: OverflowPolicy::default(),
            bandwidth_budget: None,
            vivaldi: VivaldiConfig::default(),
            exact_index_threshold: 2_000_000,
            seed: 0x0a0b,
        }
    }
}

/// The Nova optimizer with retained state for incremental re-optimization.
pub struct Nova {
    pub(crate) topology: Topology,
    pub(crate) space: CostSpace,
    pub(crate) index: CandidateIndex,
    pub(crate) avail: Availability,
    pub(crate) median_capacity: f64,
    pub(crate) config: NovaConfig,
    /// State of the last `optimize` call.
    pub(crate) query: Option<JoinQuery>,
    pub(crate) plan: Option<ResolvedPlan>,
    /// Virtual position per pair (parallel to `plan.pairs`).
    pub(crate) optima: Vec<Coord>,
    /// Pairs deactivated by re-optimization (parallel to `plan.pairs`).
    pub(crate) pair_dead: Vec<bool>,
    pub(crate) placement: Placement,
}

impl Nova {
    /// Phase I included: embed the topology from latency measurements via
    /// Vivaldi and set up all Phase III state.
    pub fn from_provider(
        topology: Topology,
        provider: &impl LatencyProvider,
        config: NovaConfig,
    ) -> Self {
        assert_eq!(
            topology.len(),
            provider.len(),
            "provider must cover exactly the topology's nodes"
        );
        let vivaldi = Vivaldi::embed(provider, config.vivaldi);
        let space = vivaldi.into_cost_space();
        Self::build(topology, space, config)
    }

    /// Use an externally computed cost space (e.g. classical MDS for
    /// validation, or ground-truth coordinates in controlled tests).
    pub fn with_cost_space(topology: Topology, space: CostSpace, config: NovaConfig) -> Self {
        Self::build(topology, space, config)
    }

    fn build(topology: Topology, space: CostSpace, config: NovaConfig) -> Self {
        let index =
            CandidateIndex::build(&topology, &space, config.exact_index_threshold, config.seed);
        let avail = Availability::from_topology(&topology);
        let median_capacity = avail.median_capacity(&topology);
        Nova {
            topology,
            space,
            index,
            avail,
            median_capacity,
            config,
            query: None,
            plan: None,
            optima: Vec::new(),
            pair_dead: Vec::new(),
            placement: Placement::new("nova"),
        }
    }

    /// Algorithm 1: resolve, virtually place and physically assign the
    /// query. Returns a reference to the stored placement.
    pub fn optimize(&mut self, query: JoinQuery) -> &Placement {
        // Reset per-query state: fresh availability and a fresh candidate
        // index (a previous run may have evicted saturated nodes).
        self.avail = Availability::from_topology(&self.topology);
        self.index = CandidateIndex::build(
            &self.topology,
            &self.space,
            self.config.exact_index_threshold,
            self.config.seed,
        );
        // Pinned source operators consume their node's capacity for data
        // ingestion (Algorithm 1 line 7 places pinned operators first):
        // a source emitting r tuples/s has r less capacity available for
        // join replicas. This is what makes Nova prefer idle workers over
        // busy sensors — the paper's source-based baseline overloads
        // exactly because it ignores this (§4.7).
        for s in query.left.iter().chain(&query.right) {
            self.avail.take(s.node, s.rate);
            self.index.set_avail(s.node, self.avail.get(s.node));
        }
        self.median_capacity = self.avail.median_capacity(&self.topology);
        self.placement = Placement::new("nova");

        // resolve_operators (source expansion is the caller's query
        // construction; pair-wise replication happens here).
        let plan = query.resolve();
        // compute_optima: geometric median per pair.
        let optima = virtual_placement::compute_optima(&query, &plan, &self.space);

        // parallelize_and_place each non-pinned operator, heaviest pairs
        // first: big replicas claim still-fresh neighborhoods cheaply,
        // while later small pairs fit into the partial leftovers — the
        // decreasing-first-fit order that keeps candidate expansion (and
        // thus Phase III) effectively linear at scale.
        let cfg_template = self.phase_three_config();
        let mut order: Vec<usize> = (0..plan.pairs.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            query
                .required_capacity(&plan.pairs[b])
                .total_cmp(&query.required_capacity(&plan.pairs[a]))
        });
        for idx in order {
            let pair = &plan.pairs[idx];
            let pos = &optima[idx];
            let cfg = self.pair_config(&query, pair, &cfg_template);
            let outcome = place_pair(
                &query,
                pair,
                *pos,
                &mut self.index,
                &mut self.avail,
                self.median_capacity,
                &cfg,
            );
            self.placement.replicas.extend(outcome.replicas);
        }

        self.pair_dead = vec![false; plan.pairs.len()];
        self.optima = optima;
        self.plan = Some(plan);
        self.query = Some(query);
        &self.placement
    }

    pub(crate) fn phase_three_config(&self) -> PhaseThreeConfig {
        PhaseThreeConfig {
            sigma: self.config.sigma,
            c_min: self.config.c_min,
            k_min: self.config.k_min,
            overflow: self.config.overflow,
        }
    }

    /// Per-pair Phase III config: σ from the bandwidth budget (Eq. 8)
    /// when one is set.
    pub(crate) fn pair_config(
        &self,
        query: &JoinQuery,
        pair: &crate::types::JoinPair,
        template: &PhaseThreeConfig,
    ) -> PhaseThreeConfig {
        let mut cfg = *template;
        if let Some(tb) = self.config.bandwidth_budget {
            let l = query.left_stream(pair).rate;
            let r = query.right_stream(pair).rate;
            cfg.sigma = sigma_for_bandwidth(l, r, tb);
        }
        cfg
    }

    /// The current placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The topology as the optimizer currently sees it.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The cost space (estimated latencies).
    pub fn cost_space(&self) -> &CostSpace {
        &self.space
    }

    /// The query of the last `optimize` call, if any.
    pub fn query(&self) -> Option<&JoinQuery> {
        self.query.as_ref()
    }

    /// Virtual optima per pair (parallel to the resolved plan).
    pub fn optima(&self) -> &[Coord] {
        &self.optima
    }

    /// Remaining capacity tracker.
    pub fn availability(&self) -> &Availability {
        &self.avail
    }

    /// Verify internal bookkeeping: every node's tracked availability
    /// must equal its capacity minus pinned ingestion minus the load of
    /// the replicas currently placed on it, and every live pair must
    /// have at least one replica. Used by integration tests after
    /// re-optimization batteries.
    pub fn validate_accounting(&self) -> Result<(), String> {
        let query = self.query.as_ref().ok_or("no active query")?;
        let plan = self.plan.as_ref().ok_or("no plan")?;
        // Expected availability per node.
        let mut expected: Vec<f64> = self.topology.nodes().iter().map(|n| n.capacity).collect();
        for s in query.left.iter().chain(&query.right) {
            expected[s.node.idx()] -= s.rate;
        }
        for rep in &self.placement.replicas {
            expected[rep.node.idx()] -= rep.required_capacity();
        }
        for (i, want) in expected.iter().enumerate() {
            let node = nova_topology::NodeId(i as u32);
            // Removed nodes are force-zeroed; skip them.
            if self.topology.node(node).capacity == 0.0 {
                continue;
            }
            let got = self.avail.get(node);
            if (got - want).abs() > 1e-6 * want.abs().max(1.0) {
                return Err(format!(
                    "node {node} availability drifted: tracked {got}, recomputed {want}"
                ));
            }
        }
        // Every live pair is placed.
        for pair in &plan.pairs {
            if self.pair_dead[pair.id.idx()] {
                continue;
            }
            if !self.placement.replicas.iter().any(|r| r.pair == pair.id) {
                return Err(format!("live pair {} has no replicas", pair.id));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, EvalOptions};
    use crate::types::StreamSpec;
    use nova_topology::{running_example, LatencyProvider, NodeRole};

    fn running_example_nova() -> (Nova, JoinQuery) {
        let ex = running_example();
        // Ground-truth-quality cost space from classical MDS over the
        // measured matrix, so the test exercises placement rather than
        // embedding noise.
        let coords = nova_netcoord::classical_mds(ex.rtt.dense(), 2, 7);
        let space = CostSpace::new(coords);
        let query = JoinQuery::by_key(
            ex.pressure
                .iter()
                .map(|&id| {
                    let region = ex.topology.node(id).region.unwrap();
                    StreamSpec::keyed(id, 25.0, region)
                })
                .collect(),
            ex.humidity
                .iter()
                .map(|&id| {
                    let region = ex.topology.node(id).region.unwrap();
                    StreamSpec::keyed(id, 25.0, region)
                })
                .collect(),
            ex.sink,
        );
        let config = NovaConfig {
            c_min: 15.0,
            sigma: 0.4,
            ..Default::default()
        };
        (
            Nova::with_cost_space(ex.topology.clone(), space, config),
            query,
        )
    }

    #[test]
    fn running_example_produces_four_pairs_with_no_overload() {
        let (mut nova, query) = running_example_nova();
        let ex = running_example();
        nova.optimize(query);
        let placement = nova.placement().clone();
        // All four region sub-joins must be placed.
        let pairs: std::collections::HashSet<_> =
            placement.replicas.iter().map(|r| r.pair).collect();
        assert_eq!(pairs.len(), 4);
        // Evaluate under real latencies: no overload.
        let e = evaluate(
            &placement,
            nova.topology(),
            |a, b| ex.rtt.rtt(a, b),
            EvalOptions::default(),
        );
        assert_eq!(e.overloaded_nodes, 0, "loads: {:?}", e.node_loads);
    }

    #[test]
    fn running_example_beats_cloud_placement() {
        let (mut nova, query) = running_example_nova();
        let ex = running_example();
        nova.optimize(query.clone());
        let nova_eval = evaluate(
            nova.placement(),
            nova.topology(),
            |a, b| ex.rtt.rtt(a, b),
            EvalOptions::default(),
        );
        // Cloud baseline: everything on E.
        let e_node = ex.topology.by_label("E").unwrap();
        let mut cloud = Placement::new("cloud");
        let plan = query.resolve();
        for pair in &plan.pairs {
            cloud.replicas.push(crate::placement::PlacedReplica {
                pair: pair.id,
                node: e_node,
                left_rate: 25.0,
                right_rate: 25.0,
                left_partitions: vec![0],
                right_partitions: vec![0],
                merged_replicas: 1,
                left_path: vec![query.left_stream(pair).node, e_node],
                right_path: vec![query.right_stream(pair).node, e_node],
                out_path: vec![e_node, query.sink],
                output_rate: 50.0,
                overflowed: false,
            });
        }
        let cloud_eval = evaluate(
            &cloud,
            nova.topology(),
            |a, b| ex.rtt.rtt(a, b),
            EvalOptions::default(),
        );
        assert!(
            nova_eval.max_latency() < cloud_eval.max_latency(),
            "nova {} vs cloud {}",
            nova_eval.max_latency(),
            cloud_eval.max_latency()
        );
    }

    #[test]
    fn base_stations_never_host_replicas() {
        let (mut nova, query) = running_example_nova();
        nova.optimize(query);
        for rep in &nova.placement().replicas {
            let label = &nova.topology().node(rep.node).label;
            assert!(!label.starts_with("BS"), "replica on base station {label}");
        }
    }

    #[test]
    fn optimize_via_vivaldi_embedding_works_end_to_end() {
        let ex = running_example();
        let query = JoinQuery::by_key(
            ex.pressure
                .iter()
                .map(|&id| StreamSpec::keyed(id, 25.0, ex.topology.node(id).region.unwrap()))
                .collect(),
            ex.humidity
                .iter()
                .map(|&id| StreamSpec::keyed(id, 25.0, ex.topology.node(id).region.unwrap()))
                .collect(),
            ex.sink,
        );
        let mut nova = Nova::from_provider(
            ex.topology.clone(),
            ex.rtt.dense(),
            NovaConfig {
                c_min: 15.0,
                ..Default::default()
            },
        );
        nova.optimize(query);
        assert!(!nova.placement().replicas.is_empty());
        // Sources and sinks keep their roles; placement targets must be
        // workers with nonzero capacity.
        for rep in &nova.placement().replicas {
            let node = nova.topology().node(rep.node);
            assert!(node.capacity > 0.0);
            assert_ne!(node.role, NodeRole::Sink);
        }
    }

    #[test]
    fn bandwidth_budget_derives_sigma() {
        let (nova, query) = running_example_nova();
        let mut cfg = nova.config;
        cfg.bandwidth_budget = Some(250.0);
        let template = nova.phase_three_config();
        let plan = query.resolve();
        let pair_cfg = Nova {
            config: cfg,
            ..nova
        }
        .pair_config(&query, &plan.pairs[0], &template);
        // Eq. 8: σ = 250 / (2·25·25) = 0.2.
        assert!((pair_cfg.sigma - 0.2).abs() < 1e-12);
    }
}
