//! The five stages every workload runs, and the checks on their outputs.
//!
//! Layers are driven from outside only: the code below calls each
//! crate's public functions on inputs it generated and reads the public
//! result structs. Every check is model-domain — counts, placements and
//! virtual time — so a loaded host can slow a run down but cannot make
//! it incorrect.

use std::collections::HashMap;

use nova_core::{
    evaluate, EvalOptions, JoinQuery, Nova, PairId, Placement, PlacementEval, Side, StreamSpec,
};
use nova_exec::{execute, launch, ExecConfig, ExecResult};
use nova_netcoord::{classical_mds, CostSpace, Vivaldi};
use nova_runtime::{simulate_reconfigured, Dataflow, PlanSwitch, SimConfig, SimResult};
use nova_topology::{LatencyProvider, NodeId, NodeRole, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::scenario::{
    scaled_capacities, Drive, Embedding, Grown, Jittered, Rtt, Scenario, RUN_HEADROOM,
};
use crate::stats;
use crate::sys;
use crate::trace::Tracer;

/// Largest simulator node utilisation a paced run may show: above it,
/// drop-free latency stops being a property of the plan.
pub const MAX_UTILISATION: f64 = 0.85;

/// Gross-error guard on matched counts where the two engines draw
/// partition randomness differently (σ < 1) or state is garbage-collected
/// on different clocks (paced runs).
pub const MATCHED_GUARD: f64 = 0.05;

/// One verdict on the program's outputs.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Checks passed and failed, and operations attempted and failed.
#[derive(Debug, Default)]
pub struct Ledger {
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

// ---------------------------------------------------------------------
// Stage: plan
// ---------------------------------------------------------------------

/// Wall time of the three calls `plan_s` sums, and of the evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanTimes {
    pub embed_s: f64,
    pub cost_space_s: f64,
    pub optimize_s: f64,
    pub evaluate_s: f64,
}

impl PlanTimes {
    pub fn plan_s(&self) -> f64 {
        self.embed_s + self.cost_space_s + self.optimize_s
    }
}

pub struct Planned {
    pub nova: Nova,
    pub times: PlanTimes,
    pub eval: PlacementEval,
}

fn embed(scn: &Scenario, tr: &Tracer) -> (CostSpace, f64) {
    match scn.embedding {
        Embedding::Vivaldi(cfg) => tr.timed("netcoord.Vivaldi::embed", || {
            Vivaldi::embed(&scn.rtt, cfg).into_cost_space()
        }),
        Embedding::Mds(seed) => {
            let Rtt::Dense(dense) = &scn.rtt else {
                panic!("classical MDS needs the world's full latency matrix");
            };
            tr.timed("netcoord.classical_mds", || {
                CostSpace::new(classical_mds(dense, 2, seed))
            })
        }
    }
}

/// Embed, build the optimizer, optimise, evaluate under the day's
/// latencies.
pub fn plan_once(scn: &Scenario, day: &Jittered, tr: &Tracer) -> Planned {
    let (space, embed_s) = embed(scn, tr);
    let (mut nova, cost_space_s) = tr.timed("core.Nova::with_cost_space", || {
        Nova::with_cost_space(scn.topology.clone(), space, scn.nova)
    });
    let query = scn.query.clone();
    let ((), optimize_s) = tr.timed("core.Nova::optimize", || {
        nova.optimize(query);
    });
    let (eval, evaluate_s) = tr.timed("core.evaluate", || {
        evaluate(
            nova.placement(),
            nova.topology(),
            |a, b| day.rtt(a, b),
            EvalOptions::default(),
        )
    });
    Planned {
        nova,
        times: PlanTimes {
            embed_s,
            cost_space_s,
            optimize_s,
            evaluate_s,
        },
        eval,
    }
}

/// Order-sensitive digest of a placement: which node hosts which
/// partitions of which pair.
pub fn fingerprint(p: &Placement) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for r in &p.replicas {
        eat(r.pair.0 as u64);
        eat(r.node.0 as u64);
        eat(r.left_partitions.len() as u64);
        r.left_partitions.iter().for_each(|&x| eat(x as u64));
        eat(r.right_partitions.len() as u64);
        r.right_partitions.iter().for_each(|&x| eat(x as u64));
    }
    h
}

/// Pairs of the active query without a replica.
pub fn unplaced_pairs(nova: &Nova) -> usize {
    let Some(query) = nova.query() else {
        return 0;
    };
    let pairs = query.resolve().len();
    let mut placed = vec![false; pairs];
    for r in &nova.placement().replicas {
        placed[r.pair.idx()] = true;
    }
    placed.iter().filter(|p| !**p).count()
}

/// Highest utilisation the plan puts on any node, in percent: join and
/// forwarding load plus pinned ingestion, over capacity. Above 100 the
/// node is overloaded.
pub fn peak_util_pct(eval: &PlacementEval, topology: &Topology, query: &JoinQuery) -> f64 {
    let mut ingest: HashMap<NodeId, f64> = HashMap::new();
    for s in query.left.iter().chain(&query.right) {
        *ingest.entry(s.node).or_default() += s.rate;
    }
    eval.node_loads
        .iter()
        .filter_map(|(id, load)| {
            let cap = topology.node(*id).capacity;
            (cap > 0.0).then(|| 100.0 * (load + ingest.get(id).copied().unwrap_or(0.0)) / cap)
        })
        .fold(0.0, f64::max)
}

// ---------------------------------------------------------------------
// Stage: re-optimise
// ---------------------------------------------------------------------

/// The five event kinds in cycle order, by the per-layer metric that
/// reports each kind's median.
pub const EVENT_KINDS: [&str; 5] = [
    "core.reopt_add_source_ms_p50",
    "core.reopt_remove_node_ms_p50",
    "core.reopt_change_rate_ms_p50",
    "core.reopt_change_capacity_ms_p50",
    "core.reopt_update_coords_ms_p50",
];

#[derive(Debug, Default)]
pub struct Battery {
    /// Wall ms of every event, by kind (index into [`EVENT_KINDS`]).
    pub ms: [Vec<f64>; 5],
    pub errors: u64,
    pub pairs_replaced: u64,
}

impl Battery {
    pub fn events(&self) -> u64 {
        self.ms.iter().map(|v| v.len() as u64).sum()
    }
}

/// A seeded stream of `events` re-optimisation events, cycling through
/// the five kinds, applied to a freshly optimised `nova`. Victims are
/// chosen outside the timed call.
pub fn battery(scn: &Scenario, nova: &mut Nova, seed: u64, events: usize, tr: &Tracer) -> Battery {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Battery::default();
    let originals = (scn.query.left.len(), scn.query.right.len());
    let mut anchors: Vec<NodeId> = Vec::new();
    let mut added_sources: Vec<NodeId> = Vec::new();
    let mut boosted: HashMap<(bool, u32), bool> = HashMap::new();
    let mut shrunk: HashMap<NodeId, f64> = HashMap::new();
    let mut capable_workers = scn
        .topology
        .nodes()
        .iter()
        .filter(|n| n.role == NodeRole::Worker && n.capacity > 0.0)
        .count();
    let hosts_in_use = nova.placement().nodes_used().len().max(1);
    let random_host = |nova: &Nova, rng: &mut StdRng| {
        let reps = &nova.placement().replicas;
        reps[rng.gen_range(0..reps.len())].node
    };

    for e in 0..events {
        let kind = e % EVENT_KINDS.len();
        // Nodes added so far sit next to their anchors; the provider
        // must also cover the node an add-source event is about to create.
        let grown = Grown {
            base: &scn.rtt,
            anchors: &anchors,
            len: nova.topology().len() + 1,
        };
        let (result, secs) = match kind {
            0 => {
                // Always a left stream, next to an original right stream
                // whose key it takes: it then pairs with originals only.
                // (A right stream would also pair with left streams that
                // joined and left again, whose nodes have no coordinate
                // any more — `add_source` panics on those.)
                let side = Side::Left;
                let partner = scn.query.right[rng.gen_range(0..originals.1)];
                let mut grown_anchors = anchors.clone();
                grown_anchors.push(partner.node);
                let grown = Grown {
                    anchors: &grown_anchors,
                    ..grown
                };
                let (res, secs) = tr.timed("core.Nova::add_source", || {
                    nova.add_source(
                        &grown,
                        side,
                        partner.rate,
                        partner.key.unwrap_or(0),
                        4.0 * partner.rate,
                        "joined",
                    )
                });
                anchors = grown_anchors;
                if let Ok(o) = &res {
                    added_sources.extend(o.new_node);
                }
                (res, secs)
            }
            1 => {
                // A join host fails while idle workers outnumber the
                // hosts two to one; after that, a sensor that joined
                // earlier leaves instead (small clusters cannot lose a
                // worker per cycle).
                let host = (0..8)
                    .map(|_| random_host(nova, &mut rng))
                    .find(|&n| nova.topology().node(n).role == NodeRole::Worker);
                let victim = match host {
                    Some(h) if capable_workers > 3 * hosts_in_use => {
                        capable_workers -= 1;
                        h
                    }
                    _ => added_sources
                        .pop()
                        .expect("add_source precedes remove_node"),
                };
                tr.timed("core.Nova::remove_node", || nova.remove_node(victim))
            }
            2 => {
                let left = rng.gen_range(0..2) == 0;
                let (side, n, streams) = if left {
                    (Side::Left, originals.0, &scn.query.left)
                } else {
                    (Side::Right, originals.1, &scn.query.right)
                };
                let idx = rng.gen_range(0..n) as u32;
                let up = boosted.entry((left, idx)).or_insert(false);
                *up = !*up;
                let rate = streams[idx as usize].rate * if *up { 1.2 } else { 1.0 };
                tr.timed("core.Nova::change_rate", || {
                    nova.change_rate(side, idx, rate)
                })
            }
            3 => {
                let node = random_host(nova, &mut rng);
                let now = nova.topology().node(node).capacity;
                let next = match shrunk.remove(&node) {
                    Some(original) => original,
                    None => {
                        shrunk.insert(node, now);
                        0.9 * now
                    }
                };
                tr.timed("core.Nova::change_capacity", || {
                    nova.change_capacity(node, next)
                })
            }
            _ => {
                let node = random_host(nova, &mut rng);
                tr.timed("core.Nova::update_coordinates", || {
                    nova.update_coordinates(&grown, node)
                })
            }
        };
        out.ms[kind].push(secs * 1e3);
        match result {
            Ok(o) => out.pairs_replaced += o.replaced_pairs.len() as u64,
            Err(_) => out.errors += 1,
        }
    }
    out
}

// ---------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------

pub struct Deployed {
    pub query: JoinQuery,
    pub placement: Placement,
    pub dataflow: Dataflow,
}

/// The `k` heaviest pairs of a plan as a query and placement of their
/// own (pair ids renumbered from 0), or the whole plan when it has no
/// more than `k` pairs. Both engines charge ingestion to the source's
/// node, so only pairs whose sources use at most half of their node are
/// eligible (the synthetic workload draws rates and capacities
/// independently; a source emitting above its node's capacity queues
/// without bound).
pub fn slice(
    query: &JoinQuery,
    placement: &Placement,
    topology: &Topology,
    k: usize,
) -> (JoinQuery, Placement) {
    let plan = query.resolve();
    if plan.len() <= k {
        return (query.clone(), placement.clone());
    }
    let fits = |s: &StreamSpec| s.rate <= 0.5 * topology.node(s.node).capacity;
    let mut by_weight: Vec<&nova_core::JoinPair> = plan
        .pairs
        .iter()
        .filter(|p| fits(query.left_stream(p)) && fits(query.right_stream(p)))
        .collect();
    by_weight.sort_by(|a, b| {
        query
            .required_capacity(b)
            .total_cmp(&query.required_capacity(a))
            .then(a.id.cmp(&b.id))
    });
    let mut chosen: Vec<&nova_core::JoinPair> = by_weight.into_iter().take(k).collect();
    chosen.sort_by_key(|p| p.id);
    let renumbered: HashMap<PairId, PairId> = chosen
        .iter()
        .enumerate()
        .map(|(i, p)| (p.id, PairId(i as u32)))
        .collect();
    let keyed = |s: &StreamSpec, i: usize| StreamSpec::keyed(s.node, s.rate, i as u32);
    let left = chosen
        .iter()
        .enumerate()
        .map(|(i, p)| keyed(query.left_stream(p), i))
        .collect();
    let right = chosen
        .iter()
        .enumerate()
        .map(|(i, p)| keyed(query.right_stream(p), i))
        .collect();
    let sub_query = JoinQuery::by_key(left, right, query.sink).with_selectivity(query.selectivity);
    let mut sub = Placement::new(placement.approach.clone());
    for r in &placement.replicas {
        if let Some(&id) = renumbered.get(&r.pair) {
            let mut r = r.clone();
            r.pair = id;
            sub.replicas.push(r);
        }
    }
    (sub_query, sub)
}

pub fn deploy(scn: &Scenario, nova: &Nova, tr: &Tracer) -> (Deployed, f64) {
    let query = nova.query().expect("optimised");
    let (query, placement) = slice(query, nova.placement(), &scn.topology, scn.deploy_pairs);
    let sigma = scn.nova.sigma;
    let (dataflow, secs) = tr.timed("runtime.Dataflow::build", || {
        Dataflow::build(&query, &placement, |_| sigma)
    });
    (
        Deployed {
            query,
            placement,
            dataflow,
        },
        secs,
    )
}

// ---------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------

pub fn sim_cfg(scn: &Scenario, seed: u64, duration_ms: f64) -> SimConfig {
    SimConfig {
        duration_ms,
        window_ms: scn.engine.window_ms,
        selectivity: scn.engine.selectivity,
        gc_interval_ms: scn.engine.gc_interval_ms,
        seed,
        // Drop-free: counts are exact only when nothing is shed.
        max_queue_ms: f64::INFINITY,
        key_space: scn.engine.key_space,
        ..Default::default()
    }
}

pub fn exec_cfg(scn: &Scenario, seed: u64, drive: Drive) -> ExecConfig {
    ExecConfig {
        shards: scn.engine.shards,
        ..ExecConfig::from_sim(&sim_cfg(scn, seed, drive.duration_ms), drive.time_scale)
    }
}

/// What one executor repetition measured.
#[derive(Debug, Clone)]
pub struct ExecRep {
    pub wall_s: f64,
    pub cpu_ns: u64,
    pub result: ExecResult,
}

impl ExecRep {
    pub fn tuples_per_s(&self) -> f64 {
        self.result.emitted as f64 / self.wall_s
    }

    pub fn cpu_ns_per_tuple(&self) -> f64 {
        self.cpu_ns as f64 / self.result.emitted.max(1) as f64
    }
}

/// One-hop latency oracle handed to an engine.
pub type Dist<'a> = &'a dyn Fn(NodeId, NodeId) -> f64;

/// Closed-loop runs see no link delay at all: nothing but the engine's
/// own work is on the clock, and the simulator — whose state collection
/// runs on the arrival clock — stays count-exact down to 0.01 ms
/// windows.
pub fn no_delay(_: NodeId, _: NodeId) -> f64 {
    0.0
}

pub fn exec_rep(
    topology: &Topology,
    dist: Dist,
    dataflow: &Dataflow,
    cfg: &ExecConfig,
    tr: &Tracer,
) -> ExecRep {
    let cpu0 = sys::process_cpu_ns();
    let (result, wall_s) = tr.timed("exec.execute", || {
        execute(topology, dist, dataflow, cfg).expect("valid exec config")
    });
    ExecRep {
        wall_s,
        cpu_ns: sys::process_cpu_ns() - cpu0,
        result,
    }
}

/// Counts of a run, for identity checks.
pub type Counts = (u64, u64, u64);

pub fn sim_counts(r: &SimResult) -> Counts {
    (r.emitted, r.matched, r.delivered)
}

pub fn exec_counts(r: &ExecResult) -> Counts {
    (r.emitted, r.matched, r.delivered)
}

pub fn within(a: u64, b: u64, share: f64) -> bool {
    (a as f64 - b as f64).abs() <= share * b.max(1) as f64
}

/// Check executor repetitions of one kind against the drain-exact
/// simulator replay of the same job. `exact` demands identity on all
/// three counts; otherwise emitted must be identical and matched within
/// [`MATCHED_GUARD`]. Either way every repetition must agree with the
/// first and shed nothing.
pub fn check_exec_reps(
    ledger: &mut Ledger,
    kind: &str,
    reps: &[&ExecResult],
    replay: &SimResult,
    exact: bool,
) {
    let want = sim_counts(replay);
    let mut bad = 0u64;
    let mut emitted = 0u64;
    let mut detail = String::new();
    for (i, r) in reps.iter().enumerate() {
        let got = exec_counts(r);
        emitted += r.emitted;
        let agrees = if exact {
            got == want
        } else {
            got.0 == want.0 && within(got.1, want.1, MATCHED_GUARD)
        };
        let repeats = got == exec_counts(reps[0]);
        if !(agrees && repeats && r.dropped == 0) {
            bad += r.dropped.max(1);
            detail = format!(
                "rep {i}: got {got:?} dropped {}, replay {want:?}",
                r.dropped
            );
        }
    }
    if detail.is_empty() {
        detail = format!(
            "{} reps, (emitted, matched, delivered) {:?}, replay {want:?}",
            reps.len(),
            reps.first().map(|r| exec_counts(r)).unwrap_or_default()
        );
    }
    ledger.ops(emitted, bad.min(emitted));
    ledger.check(
        format!(
            "{kind}: counts {} the simulator replay, repeat across reps, nothing shed",
            if exact { "equal" } else { "agree with" }
        ),
        bad == 0,
        detail,
    );
}

// ---------------------------------------------------------------------
// Reference: what set-up computes once
// ---------------------------------------------------------------------

pub struct Reference {
    /// `validate_accounting()` of the reference plan.
    pub accounting: Result<(), String>,
    pub fingerprint: u64,
    pub deployed: Deployed,
    pub dataflow_build_s: f64,
    /// Pure-relay copy of the topology for closed-loop runs.
    pub relay: Topology,
    /// Planning capacities × headroom for paced runs and `simulate`.
    pub run_topology: Topology,
    pub flat_replay: SimResult,
    pub paced_replay: SimResult,
    /// Counts need no partition draws (σ = 1 and one replica per pair).
    pub exact: bool,
}

/// Largest difference between the delays a replica's two inputs see.
fn max_input_skew(p: &Placement, day: &Jittered) -> f64 {
    let cost = |path: &[NodeId]| -> f64 { path.windows(2).map(|w| day.rtt(w[0], w[1])).sum() };
    p.replicas
        .iter()
        .map(|r| (cost(&r.left_path) - cost(&r.right_path)).abs())
        .fold(0.0, f64::max)
}

/// Plan once (the discarded warm-up), deploy, and replay both executor
/// jobs on the simulator. Panics — loudly, in set-up — when the
/// instance breaks a precondition the count identities rest on.
pub fn reference(scn: &Scenario, day: &Jittered, seed: u64, tr: &Tracer) -> Reference {
    let warm = plan_once(scn, day, tr);
    let accounting = tr.span("core.Nova::validate_accounting", || {
        warm.nova.validate_accounting()
    });
    let (deployed, dataflow_build_s) = deploy(scn, &warm.nova, tr);
    let relay = scaled_capacities(&scn.topology, 0.0);
    let run_topology = scaled_capacities(&scn.topology, RUN_HEADROOM);
    let exact = scn.nova.sigma >= 1.0
        && deployed.placement.replicas.len() == deployed.query.resolve().len();

    let skew = max_input_skew(&deployed.placement, day);
    assert!(
        scn.engine.window_ms >= 2.0 * skew,
        "precondition: window {} ms must be at least twice the largest input skew {skew} ms, \
         or the simulator collects state before late partners arrive",
        scn.engine.window_ms
    );
    let flat = sim_cfg(scn, seed, scn.flat.duration_ms);
    let paced = sim_cfg(scn, seed, scn.paced.duration_ms);
    assert!(
        flat.max_queue_ms.is_infinite() && paced.max_queue_ms.is_infinite(),
        "precondition: every run is drop-free"
    );
    let flat_replay = tr.span("runtime.simulate_reconfigured", || {
        simulate_reconfigured(&relay, no_delay, &deployed.dataflow, &[], &flat)
    });
    let paced_replay = tr.span("runtime.simulate_reconfigured", || {
        simulate_reconfigured(
            &run_topology,
            |a, b| day.rtt(a, b),
            &deployed.dataflow,
            &[],
            &paced,
        )
    });
    let (util, busiest) = (0..run_topology.len())
        .map(|i| {
            (
                paced_replay.utilization(NodeId(i as u32), paced.duration_ms),
                i,
            )
        })
        .fold((0.0, 0), |a, b| if b.0 > a.0 { b } else { a });
    assert!(
        util <= MAX_UTILISATION,
        "precondition: simulator utilisation {util:.3} of node {busiest} ({:?}, capacity {}) \
         exceeds {MAX_UTILISATION}",
        run_topology.node(NodeId(busiest as u32)).role,
        run_topology.node(NodeId(busiest as u32)).capacity,
    );
    assert!(
        flat_replay.dropped == 0 && paced_replay.dropped == 0 && !flat_replay.truncated,
        "precondition: the reference replays are drop-free and complete"
    );
    assert!(
        flat_replay.delivered >= 1_000 && paced_replay.delivered >= 1_000,
        "precondition: at least 1000 outputs, so that p99 has ten samples beyond it \
         (flat {}, paced {})",
        flat_replay.delivered,
        paced_replay.delivered
    );
    Reference {
        accounting,
        fingerprint: fingerprint(warm.nova.placement()),
        deployed,
        dataflow_build_s,
        relay,
        run_topology,
        flat_replay,
        paced_replay,
        exact,
    }
}

// ---------------------------------------------------------------------
// Live reconfiguration (traced pass)
// ---------------------------------------------------------------------

/// Two switches for a paced run: the first host of the deployed plan
/// leaves (`Nova::remove_node`, the evacuated placement sliced the same
/// way), then an identity switch on the new plan.
pub struct Switches {
    pub first: PlanSwitch,
    pub second: PlanSwitch,
}

pub fn switches(scn: &Scenario, nova: &mut Nova, pre: &Deployed, ledger: &mut Ledger) -> Switches {
    let victim = pre.placement.replicas[0].node;
    let removed = nova.remove_node(victim);
    ledger.check(
        "control: optimizer evacuates the first host",
        removed.is_ok() && nova.placement().replicas.iter().all(|r| r.node != victim),
        format!("victim {victim}"),
    );
    let (post_query, post) = slice(
        nova.query().expect("optimised"),
        nova.placement(),
        &scn.topology,
        scn.deploy_pairs,
    );
    let d = scn.paced.duration_ms;
    let sigma = scn.nova.sigma;
    let first = PlanSwitch::between(0.35 * d, &post_query, &pre.placement, &post, sigma)
        .with_capacities(vec![(victim, 0.0)]);
    let second = PlanSwitch::between(0.65 * d, &post_query, &post, &post, sigma);
    Switches { first, second }
}

/// One paced run absorbing both switches, each armed as soon as the
/// previous `apply` returns.
pub fn churn_rep(
    topology: &Topology,
    day: &Jittered,
    dataflow: &Dataflow,
    cfg: &ExecConfig,
    sw: &Switches,
    tr: &Tracer,
) -> Result<ExecResult, String> {
    let mut handle = tr.span("exec.launch", || {
        launch(topology, |a, b| day.rtt(a, b), dataflow, cfg).expect("valid exec config")
    });
    for s in [&sw.first, &sw.second] {
        tr.span("exec.apply", || handle.apply(s, |a, b| day.rtt(a, b)))
            .map_err(|e| e.to_string())?;
    }
    Ok(tr.span("exec.join", || handle.join()))
}

/// p50 latency of the outputs that arrived after `since_ms`.
pub fn latency_p50_after(r: &ExecResult, since_ms: f64) -> f64 {
    let v: Vec<f64> = r
        .outputs
        .iter()
        .filter(|o| o.arrival_ms >= since_ms)
        .map(|o| o.latency_ms)
        .collect();
    stats::percentile(&v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{build, INSTANCE_SEED};

    fn envmon() -> Scenario {
        build("pipeline-envmon", INSTANCE_SEED, &Tracer::new(false))
            .expect("a known workload")
            .0
    }

    #[test]
    #[should_panic(expected = "precondition: window")]
    fn set_up_refuses_a_window_shorter_than_twice_the_input_skew() {
        let mut scn = envmon();
        scn.engine.window_ms = 1.0;
        reference(&scn, &scn.day(1), 1, &Tracer::new(false));
    }

    #[test]
    #[should_panic(expected = "precondition: at least 1000 outputs")]
    fn set_up_refuses_a_job_too_short_to_carry_p99() {
        let mut scn = envmon();
        scn.paced.duration_ms = 300.0;
        reference(&scn, &scn.day(1), 1, &Tracer::new(false));
    }

    #[test]
    fn set_up_accepts_the_world_it_measures_and_its_plan_repeats() {
        let scn = envmon();
        let tr = Tracer::new(false);
        let rf = reference(&scn, &scn.day(1), 1, &tr);
        assert!(rf.accounting.is_ok());
        let again = plan_once(&scn, &scn.day(2), &tr);
        assert_eq!(fingerprint(again.nova.placement()), rf.fingerprint);
        assert_eq!(unplaced_pairs(&again.nova), 0);
    }
}
