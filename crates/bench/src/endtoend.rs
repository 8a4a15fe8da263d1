//! Shared driver for the end-to-end experiments (Figs. 11–12).
//!
//! Places the environmental-monitoring query with every approach,
//! deploys each placement on the simulated Raspberry-Pi cluster, and
//! runs the discrete-event engine — or, for the `--real` figure
//! variants, the threaded/sharded executor — under identical
//! conditions.

use nova_core::baselines::{cl_sf, sink_based, source_based, tree_based, ClusterParams};
use nova_core::{Nova, NovaConfig, PlacedReplica, Placement};
use nova_exec::{ExecConfig, ExecResult};
use nova_netcoord::{classical_mds, CostSpace};
use nova_runtime::{run_placement, with_stress, SimConfig, SimResult};
use nova_topology::{NodeId, Topology};
use nova_workloads::EnvironmentalScenario;

use crate::realexec::{launch_placement_real, run_placement_real, MetricsWriter};

/// One approach's end-to-end run.
#[derive(Debug)]
pub struct E2ERun {
    /// Approach label. The paper groups identically-placed approaches
    /// (cluster-based ≡ top-c, source-based ≡ tree on this topology).
    pub name: &'static str,
    /// The placement that was deployed.
    pub placement: Placement,
    /// Engine results.
    pub result: SimResult,
}

/// One approach's end-to-end run on the real executor.
#[derive(Debug)]
pub struct E2ERunReal {
    /// Approach label (same set and order as [`end_to_end_runs`]).
    pub name: &'static str,
    /// The placement that was deployed.
    pub placement: Placement,
    /// Executor results.
    pub result: ExecResult,
}

/// Every approach's placement on the scenario, plus the topology the
/// engines should run it on — the shared setup behind both the
/// simulated and the executor-backed end-to-end runs.
struct E2ESetup {
    run_topology: Topology,
    /// `(name, placement, sigma)` in the canonical approach order.
    placements: Vec<(&'static str, Placement, f64)>,
}

fn build_setup(scenario: &EnvironmentalScenario, stress: f64) -> E2ESetup {
    let query = &scenario.query;
    let plan = query.resolve();
    // Heterogeneous fog tier: the first worker is the "cluster head"
    // class node — clearly the most capable single machine, yet still
    // unable to absorb the whole join load (the paper's cluster/top-c
    // group bottlenecks on exactly such a head, §4.7).
    let mut topology = scenario.cluster.topology.clone();
    if let Some(head) = scenario.cluster.workers.first() {
        let cap = topology.node(*head).capacity;
        topology.node_mut(*head).capacity = cap * 1.6;
    }
    let topology = &topology;

    // Cost space: classical MDS on the full measured matrix — exact for
    // a 14-node cluster, isolating placement quality from embedding
    // noise (the paper's testbed also has full latency knowledge from
    // the tc-injected delays).
    let coords = classical_mds(scenario.cluster.rtt.dense(), 2, 0xE2E);
    let space = CostSpace::new(coords);

    let nova_cfg = NovaConfig {
        sigma: 0.4,
        c_min: 0.0,
        ..NovaConfig::default()
    };
    let mut nova = Nova::with_cost_space(topology.clone(), space.clone(), nova_cfg);
    nova.optimize(query.clone());

    let cluster_params = ClusterParams {
        clusters: 3,
        ..ClusterParams::for_size(topology.len())
    };
    let placements: Vec<(&'static str, Placement, f64)> = vec![
        ("nova", nova.placement().clone(), nova_cfg.sigma),
        ("sink", sink_based(query, &plan), 1.0),
        ("source/tree", source_based(query, &plan), 1.0),
        (
            "cluster/top-c",
            cluster_head_placement(query, topology),
            1.0,
        ),
        (
            "tree-overlay",
            tree_based(query, &plan, topology, &space),
            1.0,
        ),
        (
            "cl-sf",
            cl_sf(query, &plan, topology, &space, &cluster_params),
            1.0,
        ),
    ];

    // Stress: saturate the source nodes' CPUs.
    let run_topology = if (stress - 1.0).abs() > 1e-9 {
        let sources: Vec<NodeId> = scenario
            .cluster
            .sources_by_region
            .iter()
            .flatten()
            .copied()
            .collect();
        with_stress(topology, &sources, stress)
    } else {
        topology.clone()
    };

    E2ESetup {
        run_topology,
        placements,
    }
}

/// Execute all approaches on the scenario's simulated cluster. `stress`
/// scales the capacity of all *source* nodes by the given factor (the
/// paper's `stress` tool saturates source CPUs; 1.0 = unstressed).
pub fn end_to_end_runs(
    scenario: &EnvironmentalScenario,
    sim: &SimConfig,
    stress: f64,
) -> Vec<E2ERun> {
    let setup = build_setup(scenario, stress);
    let provider = &scenario.cluster.rtt;
    setup
        .placements
        .into_iter()
        .map(|(name, placement, sigma)| {
            let result = run_placement(
                &setup.run_topology,
                provider,
                &scenario.query,
                &placement,
                sigma,
                sim,
            );
            E2ERun {
                name,
                placement,
                result,
            }
        })
        .collect()
}

/// Execute all approaches on the *real executor* — identical
/// placements, topology and stress handling as [`end_to_end_runs`],
/// but every tuple physically flows through worker threads
/// (`cfg.shards` join workers per instance). The figure binaries'
/// `--real` flag goes through here.
///
/// With a `metrics` writer (the binaries' `--metrics-out PATH` flag)
/// each approach additionally runs through the *launch* path and its
/// final [`nova_exec::MetricsSnapshot`] — the per-shard/per-source
/// registry state at join time, count-identical to the `ExecResult` —
/// is appended as one tagged JSON line. The blocking run *is* a
/// launched run joined immediately, so the two modes measure the same
/// engine.
pub fn end_to_end_runs_real(
    scenario: &EnvironmentalScenario,
    cfg: &ExecConfig,
    stress: f64,
    mut metrics: Option<&mut MetricsWriter>,
) -> Vec<E2ERunReal> {
    let setup = build_setup(scenario, stress);
    let provider = &scenario.cluster.rtt;
    setup
        .placements
        .into_iter()
        .map(|(name, placement, sigma)| {
            let result = match metrics.as_deref_mut() {
                None => run_placement_real(
                    &setup.run_topology,
                    provider,
                    &scenario.query,
                    &placement,
                    sigma,
                    cfg,
                ),
                Some(writer) => {
                    let handle = launch_placement_real(
                        &setup.run_topology,
                        provider,
                        &scenario.query,
                        &placement,
                        sigma,
                        cfg,
                    )
                    .unwrap_or_else(|e| {
                        eprintln!("{e}");
                        std::process::exit(2)
                    });
                    // The subscription's final snapshot is sent after
                    // every worker has joined, so the last drained
                    // element equals the run's end state.
                    let rx = handle
                        .subscribe(std::time::Duration::from_millis(50))
                        .expect("non-zero interval");
                    let result = handle.join();
                    let mut last = None;
                    while let Ok(snap) = rx.recv() {
                        last = Some(snap);
                    }
                    if let Some(snap) = last {
                        writer.record(name, &snap);
                    }
                    result
                }
            };
            E2ERunReal {
                name,
                placement,
                result,
            }
        })
        .collect()
}

/// The paper's cluster-based/top-c group on the Pi testbed: all joins on
/// the single most capable node ("computing joins on a single cluster
/// head, which has more resources than the sink but remains a
/// bottleneck", §4.7). On this near-homogeneous cluster the generic
/// available-capacity-decrementing top-c would spread pairs — the paper
/// explicitly reports that the cluster approaches and top-c produce
/// identical single-head placements here.
fn cluster_head_placement(query: &nova_core::JoinQuery, topology: &Topology) -> Placement {
    let head = topology
        .nodes()
        .iter()
        .filter(|n| n.role == nova_topology::NodeRole::Worker)
        .max_by(|a, b| a.capacity.total_cmp(&b.capacity))
        .map(|n| n.id)
        .unwrap_or(query.sink);
    let plan = query.resolve();
    let mut placement = Placement::new("cluster-head");
    for pair in &plan.pairs {
        let left = query.left_stream(pair);
        let right = query.right_stream(pair);
        placement.replicas.push(PlacedReplica {
            pair: pair.id,
            node: head,
            left_rate: left.rate,
            right_rate: right.rate,
            left_partitions: vec![0],
            right_partitions: vec![0],
            merged_replicas: 1,
            left_path: nova_core::placement::direct_path(left.node, head),
            right_path: nova_core::placement::direct_path(right.node, head),
            out_path: nova_core::placement::direct_path(head, query.sink),
            output_rate: query.output_rate(pair),
            overflowed: false,
        });
    }
    placement
}

/// The default simulated engine settings used by Figs. 11–12: 100 ms
/// tumbling windows and a join selectivity that keeps result volume
/// bounded (cross-products within 100 ms windows at 1 kHz would emit
/// ~10⁵ results/s/region — the real DEBS pipeline also filters).
pub fn default_sim(duration_ms: f64, seed: u64) -> SimConfig {
    SimConfig {
        duration_ms,
        window_ms: 100.0,
        selectivity: 0.002,
        gc_interval_ms: 500.0,
        seed,
        max_events: 400_000_000,
        max_queue_ms: 250.0,
        key_space: 1,
    }
}

/// Stress factor applied to source nodes in the stressed configuration.
pub const STRESS_FACTOR: f64 = 0.3;

/// Convenience: the scenario's topology for external reporting.
pub fn cluster_topology(scenario: &EnvironmentalScenario) -> &Topology {
    &scenario.cluster.topology
}
