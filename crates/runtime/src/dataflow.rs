//! Deploying a [`Placement`] as an executable dataflow.
//!
//! Translates the optimizer's output (join replicas with partition sets
//! and routing paths) into the structures the simulator executes:
//! source tasks with per-partition routing tables, join instances with
//! their buffers' home nodes, and the sink. This mirrors what the paper
//! does when it hands Nova's placements to NebulaStream's deployment
//! layer (§4.7) — here the "engine" is the discrete-event simulator's
//! one event loop (and, unchanged, `nova-exec`'s threads). A
//! [`PlanSwitch`] is the unit of live change both replay: the loop runs
//! one drained phase per plan.

use std::collections::HashMap;
use std::sync::Arc;

use nova_core::{JoinQuery, PairId, PartitionedJoin, Placement, Side};
use nova_topology::NodeId;

/// One physical source stream to drive.
#[derive(Debug, Clone)]
pub struct SourceTask {
    /// Node emitting the stream.
    pub node: NodeId,
    /// Side of the join it feeds.
    pub side: Side,
    /// Data rate in tuples/second.
    pub rate: f64,
    /// Join key carried by every tuple (region id).
    pub key: u32,
    /// Routing: pairs fed by this stream.
    pub feeds: Vec<FeedSpec>,
}

/// Routing table of one (stream → pair) edge.
#[derive(Debug, Clone)]
pub struct FeedSpec {
    /// Target pair.
    pub pair: PairId,
    /// Rate of each partition of this stream for this pair (weights for
    /// partition assignment at the source).
    pub partition_rates: Vec<f64>,
    /// For each partition index: the join instances hosting it, with the
    /// network path from the source to each instance's node.
    pub routes: Vec<Vec<Route>>,
}

/// A concrete route to one join instance.
#[derive(Debug, Clone)]
pub struct Route {
    /// Index into [`Dataflow::instances`].
    pub instance: u32,
    /// Node path `[source, ..., instance node]`.
    pub path: Arc<Vec<NodeId>>,
}

/// One deployed (merged) join instance.
#[derive(Debug, Clone)]
pub struct JoinInstance {
    /// Hosting node.
    pub node: NodeId,
    /// The pair it computes.
    pub pair: PairId,
    /// Output route `[node, ..., sink]`.
    pub out_path: Arc<Vec<NodeId>>,
}

/// A deployable dataflow derived from a query + placement.
#[derive(Debug, Clone)]
pub struct Dataflow {
    /// All source tasks (left streams first, then right).
    pub sources: Vec<SourceTask>,
    /// All join instances.
    pub instances: Vec<JoinInstance>,
    /// The sink node.
    pub sink: NodeId,
}

impl Dataflow {
    /// Build the dataflow for a placement.
    ///
    /// `sigma_of` must return the σ that Phase III used for each pair so
    /// the partition decomposition is reconstructed identically;
    /// baseline placements (unpartitioned) should use [`Dataflow::from_baseline`].
    pub fn build(
        query: &JoinQuery,
        placement: &Placement,
        mut sigma_of: impl FnMut(PairId) -> f64,
    ) -> Dataflow {
        let plan = query.resolve();
        // Instances in placement order.
        let instances: Vec<JoinInstance> = placement
            .replicas
            .iter()
            .map(|r| JoinInstance {
                node: r.node,
                pair: r.pair,
                out_path: Arc::new(r.out_path.clone()),
            })
            .collect();

        // Per (pair, side, partition) routing: which instances host it.
        let mut routing: HashMap<(PairId, Side, u32), Vec<Route>> = HashMap::new();
        for (idx, rep) in placement.replicas.iter().enumerate() {
            for &p in &rep.left_partitions {
                routing
                    .entry((rep.pair, Side::Left, p))
                    .or_default()
                    .push(Route {
                        instance: idx as u32,
                        path: Arc::new(rep.left_path.clone()),
                    });
            }
            for &p in &rep.right_partitions {
                routing
                    .entry((rep.pair, Side::Right, p))
                    .or_default()
                    .push(Route {
                        instance: idx as u32,
                        path: Arc::new(rep.right_path.clone()),
                    });
            }
        }

        let mut sources = Vec::with_capacity(query.left.len() + query.right.len());
        for (side, streams) in [(Side::Left, &query.left), (Side::Right, &query.right)] {
            for (stream_idx, spec) in streams.iter().enumerate() {
                let mut feeds = Vec::new();
                let pairs: Vec<_> = plan
                    .pairs
                    .iter()
                    .filter(|p| match side {
                        Side::Left => p.left == stream_idx as u32,
                        Side::Right => p.right == stream_idx as u32,
                    })
                    .collect();
                for pair in pairs {
                    let sigma = sigma_of(pair.id);
                    let parts = PartitionedJoin::decompose(
                        query.left_stream(pair).rate,
                        query.right_stream(pair).rate,
                        sigma,
                    );
                    let partition_rates = match side {
                        Side::Left => parts.left.clone(),
                        Side::Right => parts.right.clone(),
                    };
                    let routes: Vec<Vec<Route>> = (0..partition_rates.len() as u32)
                        .map(|p| {
                            routing
                                .get(&(pair.id, side, p))
                                .cloned()
                                .unwrap_or_default()
                        })
                        .collect();
                    feeds.push(FeedSpec {
                        pair: pair.id,
                        partition_rates,
                        routes,
                    });
                }
                sources.push(SourceTask {
                    node: spec.node,
                    side,
                    rate: spec.rate,
                    key: spec.key.unwrap_or(0),
                    feeds,
                });
            }
        }
        Dataflow {
            sources,
            instances,
            sink: query.sink,
        }
    }

    /// Build for an unpartitioned baseline placement (every replica
    /// carries the single partition `[0]`, i.e. σ = 1).
    pub fn from_baseline(query: &JoinQuery, placement: &Placement) -> Dataflow {
        Dataflow::build(query, placement, |_| 1.0)
    }
}

/// One live plan reconfiguration (§3.5 on a *running* dataflow): at
/// virtual time [`PlanSwitch::epoch_ms`] the engine stops routing by
/// the old plan and adopts [`PlanSwitch::dataflow`], migrating each old
/// instance's live window state to its successor under
/// [`PlanSwitch::succ`].
///
/// The same value drives both engines — the simulator's
/// [`crate::simulate_reconfigured`] replay and the executor's
/// `ExecHandle::apply` — which is what makes "exec counts across a
/// reconfiguration are identical to the simulator replaying the same
/// pre/post plans" a testable statement rather than a metaphor.
#[derive(Debug, Clone)]
pub struct PlanSwitch {
    /// Virtual time of the epoch boundary: tuples emitted at
    /// `t < epoch_ms` play against the old plan, `t >= epoch_ms`
    /// against the new one. Need *not* be window-aligned — the window
    /// straddling the epoch is carried across by state handoff.
    pub epoch_ms: f64,
    /// The post-epoch plan. The source set may only grow, and only by
    /// appending: index `i` keeps naming the same stream (rates,
    /// routes, hosts and instance sets may all change freely). Appended
    /// sources replay a mid-run stream admission — they start on the
    /// [`crate::admission_time`] grid of this epoch, mirroring the
    /// executor's `ExecHandle::add_source`. Removing streams is not
    /// replayed live.
    pub dataflow: Dataflow,
    /// For each *old* instance index: the new instance inheriting its
    /// window state, or `None` to drop the state (its pair is gone).
    pub succ: Vec<Option<u32>>,
    /// Per-node capacity updates (tuples/s) taking effect at the epoch;
    /// `<= 0` means "pure relay", matching both engines' convention.
    pub node_capacity: Vec<(NodeId, f64)>,
}

impl PlanSwitch {
    /// Build the switch between two placements of the *same* pair set:
    /// the post dataflow from `(query_post, post)` under partition
    /// scale `sigma` (1.0 for unpartitioned baselines, the Phase III σ
    /// for Nova placements), and the succession map by matching each
    /// pre replica to the same-ordinal replica of its pair in `post`
    /// (falling back to the pair's first replica when the replica count
    /// shrank, and to `None` when the pair is gone).
    pub fn between(
        epoch_ms: f64,
        query_post: &JoinQuery,
        pre: &Placement,
        post: &Placement,
        sigma: f64,
    ) -> PlanSwitch {
        let dataflow = Dataflow::build(query_post, post, |_| sigma);
        let ordinal_in = |placement: &Placement, idx: usize| {
            let pair = placement.replicas[idx].pair;
            placement.replicas[..idx]
                .iter()
                .filter(|r| r.pair == pair)
                .count()
        };
        let succ = (0..pre.replicas.len())
            .map(|i| {
                let pair = pre.replicas[i].pair;
                let ordinal = ordinal_in(pre, i);
                let mut first = None;
                for (j, rep) in post.replicas.iter().enumerate() {
                    if rep.pair != pair {
                        continue;
                    }
                    if first.is_none() {
                        first = Some(j as u32);
                    }
                    if ordinal_in(post, j) == ordinal {
                        return Some(j as u32);
                    }
                }
                first
            })
            .collect();
        PlanSwitch {
            epoch_ms,
            dataflow,
            succ,
            node_capacity: Vec::new(),
        }
    }

    /// Attach per-node capacity updates (builder style).
    pub fn with_capacities(mut self, caps: Vec<(NodeId, f64)>) -> PlanSwitch {
        self.node_capacity = caps;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_core::baselines::sink_based;
    use nova_core::{Nova, NovaConfig, StreamSpec};
    use nova_geom::Coord;
    use nova_netcoord::CostSpace;
    use nova_topology::{NodeRole, Topology};

    fn world() -> (Topology, CostSpace, JoinQuery) {
        let mut t = Topology::new();
        let mut coords = Vec::new();
        let sink = t.add_node(NodeRole::Sink, 100.0, "sink");
        coords.push(Coord::xy(0.0, 0.0));
        let l = t.add_node(NodeRole::Source, 10.0, "l");
        coords.push(Coord::xy(10.0, 5.0));
        let r = t.add_node(NodeRole::Source, 10.0, "r");
        coords.push(Coord::xy(10.0, -5.0));
        for i in 0..4 {
            t.add_node(NodeRole::Worker, 40.0, format!("w{i}"));
            coords.push(Coord::xy(8.0 + 0.1 * i as f64, 0.0));
        }
        let q = JoinQuery::by_key(
            vec![StreamSpec::keyed(l, 30.0, 1)],
            vec![StreamSpec::keyed(r, 30.0, 1)],
            sink,
        );
        (t, CostSpace::new(coords), q)
    }

    #[test]
    fn baseline_dataflow_has_single_partition_routes() {
        let (_, _, q) = world();
        let plan = q.resolve();
        let p = sink_based(&q, &plan);
        let df = Dataflow::from_baseline(&q, &p);
        assert_eq!(df.sources.len(), 2);
        assert_eq!(df.instances.len(), 1);
        for s in &df.sources {
            assert_eq!(s.feeds.len(), 1);
            assert_eq!(s.feeds[0].partition_rates.len(), 1);
            assert_eq!(s.feeds[0].routes[0].len(), 1);
        }
        assert_eq!(df.sources.iter().map(|s| s.rate).sum::<f64>(), 60.0);
    }

    #[test]
    fn plan_switch_succession_matches_replicas_by_pair_and_ordinal() {
        let (_, _, q) = world();
        let plan = q.resolve();
        let pre = sink_based(&q, &plan);
        // Same pair set, different host structure: the successor is the
        // pair's same-ordinal replica.
        let post = sink_based(&q, &plan);
        let sw = PlanSwitch::between(500.0, &q, &pre, &post, 1.0);
        assert_eq!(sw.epoch_ms, 500.0);
        assert_eq!(sw.succ.len(), pre.replicas.len());
        for (i, s) in sw.succ.iter().enumerate() {
            let s = s.expect("pair still placed");
            assert_eq!(post.replicas[s as usize].pair, pre.replicas[i].pair);
        }
        // A pair that disappears maps to None.
        let mut gone = post.clone();
        gone.replicas.clear();
        let sw = PlanSwitch::between(500.0, &q, &pre, &gone, 1.0);
        assert!(sw.succ.iter().all(|s| s.is_none()));
    }

    #[test]
    fn nova_dataflow_routes_every_partition_somewhere() {
        let (t, space, q) = world();
        let mut nova = Nova::with_cost_space(t, space, NovaConfig::default());
        nova.optimize(q.clone());
        let sigma = NovaConfig::default().sigma;
        let df = Dataflow::build(&q, nova.placement(), |_| sigma);
        // Every partition of every feed must have at least one route —
        // otherwise tuples would be dropped.
        for s in &df.sources {
            for f in &s.feeds {
                assert_eq!(f.routes.len(), f.partition_rates.len());
                for (p, routes) in f.routes.iter().enumerate() {
                    assert!(!routes.is_empty(), "partition {p} of {:?} unrouted", f.pair);
                }
            }
        }
        // Instance out-paths end at the sink.
        for inst in &df.instances {
            assert_eq!(*inst.out_path.last().unwrap(), df.sink);
        }
    }
}
