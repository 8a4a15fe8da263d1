//! Integration test: bookkeeping stays exact through re-optimization
//! batteries — and, since the executor grew a control plane, that a
//! *live* reconfiguration applied to a running execution is
//! count-identical to the simulator replaying the same pre/post plans.
//!
//! Applies long randomized sequences of §3.5 events (add/remove sources
//! and workers, rate changes, capacity changes, coordinate drift) and
//! validates after every step that the optimizer's availability tracking
//! matches a from-scratch recomputation and that every live pair remains
//! placed, and that each pair's replicas stay one contiguous run (the
//! layout `Placement::remove_pair` drains in place). The exec-side tests then pin the §3.5 sim/exec contract: a
//! mid-run `PlanSwitch` through `ExecHandle::apply` yields
//! `emitted`/`matched`/`delivered` identical to
//! `simulate_reconfigured`, unsharded and sharded.

use nova::core::baselines::host_based;
use nova::core::{Nova, NovaConfig, PairId, Placement, ReoptStep, Side};
use nova::netcoord::{Vivaldi, VivaldiConfig};
use nova::runtime::{simulate_reconfigured, Dataflow, SimConfig};
use nova::topology::{LatencyProvider, NodeId, SyntheticParams, SyntheticTopology};
use nova::workloads::{synthetic_opp, OppParams};
use nova::{launch, ExecConfig, JoinQuery, NodeRole, PlanSwitch, StreamSpec, Topology};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Provider covering up to 64 nodes beyond the base topology (events add
/// sources/workers); new nodes reuse an anchor's latency profile.
struct Grown<'a, P> {
    inner: &'a P,
    base: usize,
    anchor: NodeId,
}

impl<P: LatencyProvider> LatencyProvider for Grown<'_, P> {
    fn len(&self) -> usize {
        self.base + 64
    }
    fn rtt(&self, a: NodeId, b: NodeId) -> f64 {
        let map = |x: NodeId| if x.idx() >= self.base { self.anchor } else { x };
        let (a, b) = (map(a), map(b));
        if a == b {
            0.9
        } else {
            self.inner.rtt(a, b)
        }
    }
}

/// Each pair's replicas form one contiguous run of `replicas`.
fn assert_pair_runs_contiguous(p: &Placement, when: &str) {
    let mut seen = std::collections::HashSet::new();
    let mut prev = None;
    for r in &p.replicas {
        if prev != Some(r.pair) {
            assert!(
                seen.insert(r.pair),
                "{when}: replicas of {:?} split into two runs",
                r.pair
            );
            prev = Some(r.pair);
        }
    }
}

/// `remove_pair` returns what a `retain` walk over every replica removes,
/// and leaves the remaining replicas in the same order.
fn assert_remove_pair_matches_retain(p: &Placement, pair: PairId) {
    let mut drained = p.clone();
    let got = drained.remove_pair(pair);
    let mut want = Vec::new();
    let mut kept = p.replicas.clone();
    kept.retain(|r| {
        if r.pair == pair {
            want.push(r.clone());
            false
        } else {
            true
        }
    });
    assert_eq!(got, want, "removed replicas of {pair:?}");
    assert_eq!(
        drained.replicas, kept,
        "remaining order after removing {pair:?}"
    );
}

#[test]
fn random_event_battery_keeps_accounting_exact() {
    let n = 400;
    let syn = SyntheticTopology::generate(&SyntheticParams {
        n,
        seed: 13,
        ..Default::default()
    });
    let w = synthetic_opp(
        &syn.topology,
        &OppParams {
            seed: 13,
            ..OppParams::default()
        },
    );
    let vivaldi_cfg = VivaldiConfig {
        neighbors: 16,
        rounds: 24,
        ..VivaldiConfig::default()
    };
    let space = Vivaldi::embed(&syn.rtt, vivaldi_cfg).into_cost_space();
    let mut nova = Nova::with_cost_space(
        w.topology.clone(),
        space,
        NovaConfig {
            vivaldi: vivaldi_cfg,
            ..NovaConfig::default()
        },
    );
    nova.optimize(w.query.clone());
    nova.validate_accounting()
        .expect("fresh placement consistent");
    assert_pair_runs_contiguous(nova.placement(), "optimize");

    let grown = Grown {
        inner: &syn.rtt,
        base: n,
        anchor: w.query.left[0].node,
    };
    let mut rng = StdRng::seed_from_u64(99);
    let mut added_sources = 0u32;

    for step in 0..40 {
        match rng.gen_range(0..5) {
            0 if added_sources < 30 => {
                let key = rng.gen_range(0..w.query.left.len() as u32);
                nova.add_source(&grown, Side::Right, 40.0, key, 150.0, format!("s{step}"))
                    .expect("add source");
                added_sources += 1;
            }
            1 => {
                let hosts = nova.placement().nodes_used();
                if !hosts.is_empty() {
                    let victim = hosts[rng.gen_range(0..hosts.len())];
                    nova.remove_node(victim).expect("remove host");
                }
            }
            2 => {
                let _ = nova.add_worker(&grown, rng.gen_range(50.0..400.0), format!("w{step}"));
            }
            3 => {
                let idx = rng.gen_range(0..w.query.left.len() as u32);
                let _ = nova.change_rate(Side::Left, idx, rng.gen_range(5.0..150.0));
            }
            _ => {
                let hosts = nova.placement().nodes_used();
                if !hosts.is_empty() {
                    let target = hosts[rng.gen_range(0..hosts.len())];
                    nova.change_capacity(target, rng.gen_range(50.0..500.0))
                        .expect("capacity change");
                }
            }
        }
        nova.validate_accounting()
            .unwrap_or_else(|e| panic!("accounting drifted after step {step}: {e}"));
        assert_pair_runs_contiguous(nova.placement(), &format!("step {step}"));
    }
}

/// Every `ReoptStep` kind, applied in turn through `apply_step`, keeps
/// each pair's replicas one contiguous run, and `remove_pair` on the
/// result agrees with a `retain`-based reference (first, middle, last
/// and an absent pair).
#[test]
fn every_step_kind_keeps_pair_runs_contiguous() {
    let n = 300;
    let syn = SyntheticTopology::generate(&SyntheticParams {
        n,
        seed: 5,
        ..Default::default()
    });
    let w = synthetic_opp(
        &syn.topology,
        &OppParams {
            seed: 5,
            ..OppParams::default()
        },
    );
    let vivaldi_cfg = VivaldiConfig {
        neighbors: 16,
        rounds: 24,
        ..VivaldiConfig::default()
    };
    let space = Vivaldi::embed(&syn.rtt, vivaldi_cfg).into_cost_space();
    let mut nova = Nova::with_cost_space(
        w.topology.clone(),
        space,
        NovaConfig {
            vivaldi: vivaldi_cfg,
            ..NovaConfig::default()
        },
    );
    nova.optimize(w.query.clone());
    assert_pair_runs_contiguous(nova.placement(), "optimize");
    let grown = Grown {
        inner: &syn.rtt,
        base: n,
        anchor: w.query.left[0].node,
    };
    let mut rng = StdRng::seed_from_u64(17);
    let streams = w.query.left.len() as u32;
    for step in 0..36 {
        let hosts = nova.placement().nodes_used();
        let host = hosts[rng.gen_range(0..hosts.len())];
        let event = match step % 6 {
            0 => ReoptStep::AddWorker {
                capacity: rng.gen_range(50.0..400.0),
                label: format!("w{step}"),
            },
            1 => ReoptStep::AddSource {
                side: if step % 4 == 1 {
                    Side::Right
                } else {
                    Side::Left
                },
                rate: 40.0,
                key: rng.gen_range(0..streams),
                capacity: 150.0,
                label: format!("s{step}"),
            },
            2 => ReoptStep::RemoveNode { node: host },
            3 => ReoptStep::ChangeRate {
                side: Side::Left,
                stream: rng.gen_range(0..streams),
                new_rate: rng.gen_range(5.0..150.0),
            },
            4 => ReoptStep::ChangeCapacity {
                node: host,
                new_capacity: rng.gen_range(50.0..500.0),
            },
            _ => ReoptStep::UpdateCoordinates { node: host },
        };
        nova.apply_step(&grown, &event)
            .unwrap_or_else(|e| panic!("step {step} {event:?}: {e}"));
        let when = format!("step {step} {event:?}");
        assert_pair_runs_contiguous(nova.placement(), &when);
        nova.validate_accounting()
            .unwrap_or_else(|e| panic!("{when}: {e}"));
        let reps = &nova.placement().replicas;
        for pair in [
            reps[0].pair,
            reps[reps.len() / 2].pair,
            reps[reps.len() - 1].pair,
            PairId(u32::MAX),
        ] {
            assert_remove_pair_matches_retain(nova.placement(), pair);
        }
    }
}

/// sink(0), hot l/r, cold l/r sources, two join-host workers. Rates
/// divide 1000 exactly so both engines produce identical float
/// event-time sequences.
fn exec_world() -> (Topology, JoinQuery, NodeId, NodeId) {
    let mut t = Topology::new();
    let sink = t.add_node(NodeRole::Sink, 1000.0, "sink");
    let w1 = t.add_node(NodeRole::Worker, 1000.0, "w1");
    let w2 = t.add_node(NodeRole::Worker, 1000.0, "w2");
    let hot_l = t.add_node(NodeRole::Source, 1000.0, "hot_l");
    let hot_r = t.add_node(NodeRole::Source, 1000.0, "hot_r");
    let cold_l = t.add_node(NodeRole::Source, 1000.0, "cold_l");
    let cold_r = t.add_node(NodeRole::Source, 1000.0, "cold_r");
    let q = JoinQuery::by_key(
        vec![
            StreamSpec::keyed(hot_l, 50.0, 0),
            StreamSpec::keyed(cold_l, 10.0, 1),
        ],
        vec![
            StreamSpec::keyed(hot_r, 50.0, 0),
            StreamSpec::keyed(cold_r, 10.0, 1),
        ],
        sink,
    );
    (t, q, w1, w2)
}

fn flat_dist(a: NodeId, b: NodeId) -> f64 {
    if a == b {
        0.0
    } else {
        10.0
    }
}

/// The §3.5 acceptance bar (exec side): a mid-run `PlanSwitch` —
/// a *rate shift plus node removal*, the churn scenario's event pair —
/// applied through `ExecHandle::apply` yields counts identical to the
/// simulator replaying the same pre/post plans, unsharded and sharded,
/// with the epoch deliberately mid-window so live state crosses the
/// handoff. Keyed + skewed so the bucket routing path is exercised.
#[test]
fn mid_run_reconfiguration_matches_simulator_replay_on_all_backends() {
    let (t, q_pre, w1, w2) = exec_world();
    // Post plan: w1 leaves, pairs re-place onto w2, hot rate shifts
    // 50 -> 40 t/s (both intervals divide 1000 exactly).
    let mut q_post = q_pre.clone();
    q_post.left[0].rate = 40.0;
    q_post.right[0].rate = 40.0;
    let p_pre = host_based(&q_pre, &q_pre.resolve(), w1);
    let p_post = host_based(&q_post, &q_post.resolve(), w2);
    let df = Dataflow::from_baseline(&q_pre, &p_pre);
    let sim_cfg = SimConfig {
        duration_ms: 2400.0,
        window_ms: 200.0,
        selectivity: 0.8,
        key_space: 8,
        // Structurally drop-free: count identity holds only without
        // shedding (see tests/exec_vs_sim.rs for the full rationale).
        max_queue_ms: f64::INFINITY,
        ..SimConfig::default()
    };
    // Epoch 1050 straddles the [1000, 1200) window: pre- and
    // post-epoch tuples of that window must still match each other
    // through the state handoff.
    let switch =
        PlanSwitch::between(1050.0, &q_post, &p_pre, &p_post, 1.0).with_capacities(vec![(w1, 0.0)]);

    let sim = simulate_reconfigured(&t, flat_dist, &df, std::slice::from_ref(&switch), &sim_cfg);
    assert_eq!(sim.dropped, 0, "replay must stay drop-free");
    assert!(sim.delivered > 0, "replay must deliver");

    // Batch sizes chosen adversarially: 1 (every tuple its own frame),
    // 7 (co-prime with the emission grid, so the epoch lands mid-batch
    // and the barrier must bisect a partially filled frame) and 64
    // (whole windows per frame).
    for (shards, batch_size) in [(1usize, 7usize), (4, 1), (4, 7), (4, 64)] {
        let cfg = ExecConfig {
            shards,
            batch_size,
            ..ExecConfig::from_sim(&sim_cfg, 8.0)
        };
        let mut handle = launch(&t, flat_dist, &df, &cfg).expect("valid exec config");
        let stats = handle.apply(&switch, flat_dist).expect("reconfigure");
        assert!(
            stats.migrated_tuples > 0,
            "shards={shards}: live window state must cross the epoch"
        );
        let res = handle.join();
        let tag = format!("shards={shards}, batch={batch_size}");
        assert!(stats.clean_split, "{tag}: epoch must bisect the batch");
        assert_eq!(res.dropped, 0, "{tag}: must stay drop-free");
        assert_eq!(res.emitted, sim.emitted, "{tag}: emitted diverged");
        assert_eq!(res.matched, sim.matched, "{tag}: matched diverged");
        assert_eq!(res.delivered, sim.delivered, "{tag}: delivered diverged");
    }
}

/// The closed-loop acceptance gate: a controller-shaped switch
/// sequence — a mid-run **source admission** (`ExecHandle::add_source`)
/// followed by a **shard scale-up** (`ExecHandle::apply_scaled`) — is
/// count-identical to the simulator replaying the same recorded
/// switches, unsharded and sharded. The appended stream keys against
/// `cold_l`, which appends a *new pair* (row-major pair ids keep the
/// existing ones stable) and a new join instance; the scale override
/// does not exist in the simulator at all, pinning that shard layout
/// is an executor concept that never changes counts.
#[test]
fn recorded_admission_and_scale_sequence_matches_simulator_replay() {
    let (mut t, q_pre, w1, w2) = exec_world();
    let late_r = t.add_node(NodeRole::Source, 1000.0, "late_r");
    let mut right = q_pre.right.clone();
    // 10 t/s, equal to its join partner `cold_l`: `p_max = σ·½·(10+10)
    // = 10` keeps the admitted pair single-partition, the regime where
    // neither engine draws partition randomness and counts are exact
    // (an unequal rate would split the stream into phantom partitions
    // the host placement never routes).
    right.push(StreamSpec::keyed(late_r, 10.0, 1));
    let q_post = JoinQuery::by_key(q_pre.left.clone(), right, NodeId(0));

    let p_pre = host_based(&q_pre, &q_pre.resolve(), w1);
    let p_post = host_based(&q_post, &q_post.resolve(), w2);
    let df = Dataflow::from_baseline(&q_pre, &p_pre);
    let sim_cfg = SimConfig {
        duration_ms: 2400.0,
        window_ms: 200.0,
        selectivity: 0.8,
        key_space: 8,
        max_queue_ms: f64::INFINITY,
        ..SimConfig::default()
    };
    // Epoch 1050 straddles [1000, 1200): the admitted stream's first
    // window overlaps state migrated from the old generation.
    let admit = PlanSwitch::between(1050.0, &q_post, &p_pre, &p_post, 1.0);
    assert_eq!(admit.dataflow.sources.len(), df.sources.len() + 1);
    // Identity switch at 1700 carrying only the executor-side scale.
    let rescale = PlanSwitch::between(1700.0, &q_post, &p_post, &p_post, 1.0);
    let switches = [admit.clone(), rescale.clone()];

    let sim = simulate_reconfigured(&t, flat_dist, &df, &switches, &sim_cfg);
    assert_eq!(sim.dropped, 0, "replay must stay drop-free");
    assert!(sim.delivered > 0, "replay must deliver");

    // The admission epoch (1050) is co-prime with batch 7's frame
    // boundaries, so the late stream's admission — and the rescale at
    // 1700 — both land mid-batch; batch 64 crosses whole windows.
    for (shards, batch_size) in [(1usize, 7usize), (4, 64), (4, 7)] {
        let cfg = ExecConfig {
            shards,
            batch_size,
            ..ExecConfig::from_sim(&sim_cfg, 8.0)
        };
        let tag = format!("shards={shards}, batch={batch_size}");
        let mut handle = launch(&t, flat_dist, &df, &cfg).expect("valid exec config");
        let stats = handle.apply(&admit, flat_dist);
        assert!(
            matches!(
                stats,
                Err(nova::exec::ReconfigError::SourceCountMismatch { .. })
            ),
            "{tag}: apply must refuse a source-set change (admission is add_source's job)"
        );
        let stats = handle.add_source(&admit, flat_dist).expect("admission");
        assert!(stats.clean_split, "{tag}: admission epoch armed late");
        assert!(
            stats.migrated_tuples > 0,
            "{tag}: live window state must cross the admission epoch"
        );
        let stats = handle
            .apply_scaled(&rescale, flat_dist, shards * 2)
            .expect("scale-up");
        assert!(stats.clean_split, "{tag}: scale epoch armed late");
        assert_eq!(handle.shards(), shards * 2, "{tag}: scale not adopted");
        let res = handle.join();
        assert_eq!(res.dropped, 0, "{tag}: must stay drop-free");
        assert_eq!(res.emitted, sim.emitted, "{tag}: emitted diverged");
        assert_eq!(res.matched, sim.matched, "{tag}: matched diverged");
        assert_eq!(res.delivered, sim.delivered, "{tag}: delivered diverged");
    }
}

/// The full §3.5 loop: a topology/workload event expressed as a
/// `core::ReoptStep` drives the optimizer's incremental re-placement
/// (`Nova::apply_step`), the resulting pre/post placements become a
/// `PlanSwitch`, and the *running executor* absorbs it — with counts
/// identical to the simulator replaying the same plans.
#[test]
fn nova_reopt_steps_drive_live_executor_reconfiguration() {
    // A controlled world (same layout as the reopt unit tests): ground
    // truth coordinates, RTT = coordinate distance. sigma = 1.0 keeps
    // every pair single-partition, which is the regime where simulator
    // and executor draw no partition randomness and counts are exact.
    use nova::geom::Coord;
    use nova::netcoord::CostSpace;
    let mut t = Topology::new();
    let mut coords = Vec::new();
    let sink = t.add_node(NodeRole::Sink, 1000.0, "sink");
    coords.push(Coord::xy(0.0, 0.0));
    let l1 = t.add_node(NodeRole::Source, 1000.0, "l1");
    coords.push(Coord::xy(20.0, 10.0));
    let r1 = t.add_node(NodeRole::Source, 1000.0, "r1");
    coords.push(Coord::xy(20.0, -10.0));
    let l2 = t.add_node(NodeRole::Source, 1000.0, "l2");
    coords.push(Coord::xy(-20.0, 10.0));
    let r2 = t.add_node(NodeRole::Source, 1000.0, "r2");
    coords.push(Coord::xy(-20.0, -10.0));
    for i in 0..6 {
        t.add_node(NodeRole::Worker, 500.0, format!("w{i}"));
        let x = if i % 2 == 0 { 12.0 } else { -12.0 };
        coords.push(Coord::xy(x, (i as f64 - 2.5) * 2.0));
    }
    let rtt =
        nova::topology::DenseRtt::from_fn(coords.len(), |i, j| coords[i].dist(&coords[j]).max(0.1));
    let space = CostSpace::new(coords);
    let mut nova = Nova::with_cost_space(
        t.clone(),
        space,
        NovaConfig {
            sigma: 1.0,
            ..NovaConfig::default()
        },
    );
    let query = JoinQuery::by_key(
        vec![
            StreamSpec::keyed(l1, 25.0, 1),
            StreamSpec::keyed(l2, 25.0, 2),
        ],
        vec![
            StreamSpec::keyed(r1, 25.0, 1),
            StreamSpec::keyed(r2, 25.0, 2),
        ],
        sink,
    );
    nova.optimize(query.clone());
    let pre_placement = nova.placement().clone();
    let df = Dataflow::build(&query, &pre_placement, |_| 1.0);

    // The churn events, as data: the hot stream's rate shifts and a
    // join host leaves the cluster. Phase III re-runs only for the
    // affected pairs; the executor absorbs the result live.
    let victim = pre_placement.nodes_used()[0];
    nova.apply_step(
        &rtt,
        &ReoptStep::ChangeRate {
            side: Side::Left,
            stream: 0,
            new_rate: 50.0,
        },
    )
    .expect("rate step");
    nova.apply_step(&rtt, &ReoptStep::RemoveNode { node: victim })
        .expect("removal step");
    nova.validate_accounting().expect("optimizer stays exact");
    let post_query = nova.query().expect("query present").clone();
    let post_placement = nova.placement().clone();
    assert!(
        post_placement.replicas.iter().all(|r| r.node != victim),
        "victim must be evacuated"
    );

    let switch = PlanSwitch::between(1050.0, &post_query, &pre_placement, &post_placement, 1.0)
        .with_capacities(vec![(victim, 0.0)]);
    let sim_cfg = SimConfig {
        duration_ms: 2400.0,
        window_ms: 200.0,
        selectivity: 0.7,
        max_queue_ms: f64::INFINITY,
        ..SimConfig::default()
    };
    let mut dist = |a: NodeId, b: NodeId| rtt.rtt(a, b);
    let sim = simulate_reconfigured(&t, &mut dist, &df, std::slice::from_ref(&switch), &sim_cfg);
    assert_eq!(sim.dropped, 0);
    assert!(sim.delivered > 0);

    for shards in [1usize, 2] {
        let cfg = ExecConfig {
            shards,
            ..ExecConfig::from_sim(&sim_cfg, 8.0)
        };
        let mut handle = launch(&t, |a, b| rtt.rtt(a, b), &df, &cfg).expect("valid exec config");
        handle
            .apply(&switch, |a, b| rtt.rtt(a, b))
            .expect("reconfigure");
        let res = handle.join();
        let tag = format!("shards={shards}");
        assert_eq!(res.dropped, 0, "{tag}");
        assert_eq!(res.emitted, sim.emitted, "{tag}: emitted diverged");
        assert_eq!(res.matched, sim.matched, "{tag}: matched diverged");
        assert_eq!(res.delivered, sim.delivered, "{tag}: delivered diverged");
    }
}

#[test]
fn full_reoptimize_after_battery_matches_fresh_run() {
    // After churn, a full re-optimize from the mutated topology must
    // still produce a consistent, fully-placed result.
    let n = 300;
    let syn = SyntheticTopology::generate(&SyntheticParams {
        n,
        seed: 21,
        ..Default::default()
    });
    let w = synthetic_opp(
        &syn.topology,
        &OppParams {
            seed: 21,
            ..OppParams::default()
        },
    );
    let vivaldi_cfg = VivaldiConfig {
        neighbors: 16,
        rounds: 24,
        ..VivaldiConfig::default()
    };
    let space = Vivaldi::embed(&syn.rtt, vivaldi_cfg).into_cost_space();
    let mut nova = Nova::with_cost_space(
        w.topology.clone(),
        space,
        NovaConfig {
            vivaldi: vivaldi_cfg,
            ..NovaConfig::default()
        },
    );
    nova.optimize(w.query.clone());
    let grown = Grown {
        inner: &syn.rtt,
        base: n,
        anchor: w.query.left[0].node,
    };
    for i in 0..5 {
        let _ = nova.add_worker(&grown, 200.0, format!("late{i}"));
    }
    let query_now = nova.query().expect("query present").clone();
    nova.optimize(query_now);
    nova.validate_accounting()
        .expect("re-optimized placement consistent");
}
