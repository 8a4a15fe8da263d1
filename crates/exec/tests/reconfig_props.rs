//! Property test for live reconfiguration (the §3.5 control plane).
//!
//! The strongest statement the epoch-barrier/state-handoff protocol
//! makes is *count transparency*: a reconfiguration that changes only
//! **where** work runs — here, a full instance permutation, which
//! migrates every live `(window, pair, sub-key)` group to a
//! different shard worker — must leave `emitted`/`matched`/`delivered`
//! exactly equal to a run that never reconfigured. The property is
//! sampled across (shards × batch-size) and across epoch
//! positions (deliberately including mid-window — and therefore
//! mid-batch — epochs, where pre/post tuples of the straddling window
//! must still match each other through the handoff), on a keyed,
//! pair-skewed workload.

use std::sync::OnceLock;

use nova_core::baselines::{host_based, sink_based};
use nova_core::{JoinQuery, StreamSpec};
use nova_exec::{execute, launch, ExecConfig};
use nova_runtime::{simulate_reconfigured, Dataflow, PlanSwitch, SimConfig};
use nova_topology::{NodeId, NodeRole, Topology};
use proptest::prelude::*;

const DURATION_MS: f64 = 1200.0;

/// Keyed, pair-skewed world: hot pair at 5× the cold pair's rate, both
/// intervals dividing 1000 exactly.
fn world() -> (Topology, JoinQuery) {
    let mut t = Topology::new();
    let sink = t.add_node(NodeRole::Sink, 1000.0, "sink");
    let w1 = t.add_node(NodeRole::Worker, 1000.0, "w1");
    let w2 = t.add_node(NodeRole::Worker, 1000.0, "w2");
    let _ = (w1, w2);
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
    (t, q)
}

fn flat_dist(a: NodeId, b: NodeId) -> f64 {
    if a == b {
        0.0
    } else {
        10.0
    }
}

fn base_cfg() -> ExecConfig {
    ExecConfig {
        duration_ms: DURATION_MS,
        window_ms: 200.0,
        selectivity: 0.8,
        key_space: 8,
        time_scale: 16.0,
        // Drop-free by construction: count identity only holds without
        // shedding, and a bounded queue could shed spuriously when the
        // OS stalls a thread.
        max_queue_ms: f64::INFINITY,
        ..ExecConfig::default()
    }
}

/// The never-reconfigured reference counts — computed once; count
/// identity across shard counts is already pinned by the
/// exec_vs_sim suite, so one unsharded run is the whole reference.
fn baseline() -> &'static (u64, u64, u64) {
    static BASELINE: OnceLock<(u64, u64, u64)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let (t, q) = world();
        let p = sink_based(&q, &q.resolve());
        let df = Dataflow::from_baseline(&q, &p);
        let res = execute(&t, flat_dist, &df, &base_cfg()).expect("valid config");
        assert_eq!(res.dropped, 0, "baseline must stay uncongested");
        assert!(res.delivered > 0, "baseline must deliver");
        (res.emitted, res.matched, res.delivered)
    })
}

/// S ≫ cores under reconfiguration: 32 shards per instance on an
/// unkeyed workload — `(window, pair)` routing — so each instance's
/// seven windows reach at most seven of its 32 shards. Every other
/// shard thread of the old generation sees nothing but barriers and
/// must still quiesce (report an empty export) for the quorum to close;
/// every other shard of the new generation sees nothing but Eofs and
/// must still retire for the run to end. The full-migration switch of the property below, pinned
/// against the drain-exact simulator replay of the same switch.
#[test]
fn zero_input_shards_quiesce_at_the_barrier_and_retire_at_eof() {
    let (t, q) = world();
    let pre = sink_based(&q, &q.resolve());
    let mut post = host_based(&q, &q.resolve(), NodeId(1));
    post.replicas.reverse();
    let df = Dataflow::from_baseline(&q, &pre);
    // Mid-window and co-prime with the batch size: the barrier splits
    // both a live window and a partially filled frame.
    let switch = PlanSwitch::between(650.0, &q, &pre, &post, 1.0);
    let sim_cfg = SimConfig {
        duration_ms: DURATION_MS,
        window_ms: 200.0,
        selectivity: 0.8,
        key_space: 1,
        max_queue_ms: f64::INFINITY,
        ..SimConfig::default()
    };
    let sim = simulate_reconfigured(&t, flat_dist, &df, std::slice::from_ref(&switch), &sim_cfg);
    assert_eq!(sim.dropped, 0, "replay must stay drop-free");

    let cfg = ExecConfig {
        shards: 32,
        batch_size: 7,
        ..ExecConfig::from_sim(&sim_cfg, 16.0)
    };
    let mut handle = launch(&t, flat_dist, &df, &cfg).expect("valid config");
    let stats = handle.apply(&switch, flat_dist).expect("reconfigure");
    assert!(stats.clean_split, "epoch must bisect the batch");
    assert!(stats.migrated_tuples > 0, "live state must migrate");
    assert_eq!(stats.shard_workers, 2 * 32);
    let res = handle.join();
    assert_eq!(
        res.threads,
        4 + 2 * 2 * 32 + 1,
        "sources + two generations + sink"
    );
    assert_eq!(res.dropped, 0);
    assert_eq!(res.emitted, sim.emitted);
    assert_eq!(res.matched, sim.matched);
    assert_eq!(res.delivered, sim.delivered);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Migrating every live group to a different shard — an instance
    /// permutation away from the sink host and onto a worker, with the
    /// two pairs' instance slots swapped — preserves all three counts
    /// exactly, at sampled (shards × batch) combinations
    /// and epoch positions, under keyed pair skew.
    /// The sampled epoch almost never lands on a batch boundary, so the
    /// sources' epoch split routinely flushes a partially filled
    /// `TupleBatch` at the barrier — and `clean_split` asserts the
    /// protocol bisected it exactly at `t < epoch`.
    #[test]
    fn full_group_migration_preserves_counts_exactly(
        shards in 1usize..=4,
        batch_pick in 0usize..4,
        epoch_frac in 0.3f64..0.7,
    ) {
        let batch_size = [1usize, 2, 7, 64][batch_pick];
        let (t, q) = world();
        let pre = sink_based(&q, &q.resolve());
        // Post plan: both instances move (sink host -> worker) and
        // their slots swap, so every (window, pair, sub-key) group's
        // flat shard index changes — total migration.
        let mut post = host_based(&q, &q.resolve(), nova_topology::NodeId(1));
        post.replicas.reverse();
        let df = Dataflow::from_baseline(&q, &pre);
        let cfg = ExecConfig {
            shards,
            batch_size,
            ..base_cfg()
        };
        let epoch_ms = epoch_frac * DURATION_MS;
        let switch = PlanSwitch::between(epoch_ms, &q, &pre, &post, 1.0);
        // The permutation really is one: pair 0's state goes to the
        // slot that now holds pair 0 (index 1 after the reverse).
        prop_assert_eq!(switch.succ.clone(), vec![Some(1), Some(0)]);

        let mut handle = launch(&t, flat_dist, &df, &cfg).expect("valid config");
        let stats = handle.apply(&switch, flat_dist).expect("reconfigure");
        prop_assert!(stats.migrated_tuples > 0, "live state must migrate");
        let res = handle.join();
        let (emitted, matched, delivered) = *baseline();
        let tag = format!("shards={shards} batch={batch_size} epoch={epoch_ms:.1}");
        prop_assert!(stats.clean_split, "{}: epoch must bisect the batch", tag);
        prop_assert_eq!(res.dropped, 0, "{}: must stay drop-free", tag);
        prop_assert_eq!(res.emitted, emitted, "{}: emitted moved", tag);
        prop_assert_eq!(res.matched, matched, "{}: matched moved", tag);
        prop_assert_eq!(res.delivered, delivered, "{}: delivered moved", tag);
    }

    /// Controller-shaped switch sequences — a mid-run **source
    /// admission** (`add_source`) followed by a **relocating scale-up**
    /// (`apply_scaled` with a shard-count override) — stay
    /// count-identical to the simulator replaying the same recorded
    /// switches, across sampled shard layouts and epoch
    /// positions. This is the property the autoscaler leans on: any
    /// sequence it synthesizes from telemetry is replayable, so its
    /// decisions change *where and how wide* work runs, never *what*
    /// is computed.
    #[test]
    fn recorded_controller_sequences_replay_exactly(
        shards in 1usize..=3,
        batch_pick in 0usize..4,
        admit_frac in 0.3f64..0.5,
        rescale_frac in 0.65f64..0.85,
    ) {
        let batch_size = [1usize, 2, 7, 64][batch_pick];
        let (mut t, q_pre) = world();
        // Admit a stream keyed against `cold_l` at cold_l's own rate:
        // equal partner rates keep the new pair single-partition (no
        // partition randomness), and keying to the *last* left stream
        // appends the new pair id, leaving existing ids stable.
        let late_r = t.add_node(NodeRole::Source, 1000.0, "late_r");
        let mut right = q_pre.right.clone();
        right.push(StreamSpec::keyed(late_r, 10.0, 1));
        let q_post = JoinQuery::by_key(q_pre.left.clone(), right, NodeId(0));

        let p_pre = host_based(&q_pre, &q_pre.resolve(), NodeId(1));
        let p_post = host_based(&q_post, &q_post.resolve(), NodeId(2));
        let df = Dataflow::from_baseline(&q_pre, &p_pre);
        let sim_cfg = SimConfig {
            duration_ms: DURATION_MS,
            window_ms: 200.0,
            selectivity: 0.8,
            key_space: 8,
            max_queue_ms: f64::INFINITY,
            ..SimConfig::default()
        };
        let admit = PlanSwitch::between(admit_frac * DURATION_MS, &q_post, &p_pre, &p_post, 1.0);
        let rescale = PlanSwitch::between(rescale_frac * DURATION_MS, &q_post, &p_post, &p_post, 1.0);
        let switches = [admit.clone(), rescale.clone()];
        let sim = simulate_reconfigured(&t, flat_dist, &df, &switches, &sim_cfg);
        prop_assert_eq!(sim.dropped, 0, "replay must stay drop-free");

        let cfg = ExecConfig {
            shards,
            batch_size,
            ..ExecConfig::from_sim(&sim_cfg, 16.0)
        };
        let tag = format!(
            "shards={shards} batch={batch_size} admit={:.1} rescale={:.1}",
            admit.epoch_ms, rescale.epoch_ms
        );
        let mut handle = launch(&t, flat_dist, &df, &cfg).expect("valid config");
        let stats = handle.add_source(&admit, flat_dist).expect("admission");
        prop_assert!(stats.clean_split, "{}: admission epoch armed late", tag);
        let stats = handle.apply_scaled(&rescale, flat_dist, shards + 1).expect("scale-up");
        prop_assert!(stats.clean_split, "{}: scale epoch armed late", tag);
        prop_assert_eq!(handle.shards(), shards + 1, "{}: scale not adopted", tag);
        let res = handle.join();
        prop_assert_eq!(res.dropped, 0, "{}: must stay drop-free", tag);
        prop_assert_eq!(res.emitted, sim.emitted, "{}: emitted diverged", tag);
        prop_assert_eq!(res.matched, sim.matched, "{}: matched diverged", tag);
        prop_assert_eq!(res.delivered, sim.delivered, "{}: delivered diverged", tag);
    }
}
