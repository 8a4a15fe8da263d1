//! Controller edge cases: the closed-loop autoscaler on degenerate
//! feeds and the control plane's refusal paths.
//!
//! The happy path (detect pressure → scale → converge) lives in the
//! autoscale bench scenario and the `nova_exec::autoscale::Policy`
//! unit tests (cooldown suppression, the shards=1 scale-down floor).
//! This file pins the seams around it: a controller whose snapshot
//! feed never produces anything must neither spin nor deadlock, and an
//! epoch that timed out must poison later arms with a descriptive
//! error instead of corrupting the run.

use std::time::Duration;

use nova_core::baselines::{host_based, sink_based};
use nova_core::{JoinQuery, StreamSpec};
use nova_exec::{launch, AutoscaleConfig, Autoscaler, ExecConfig, ReconfigError};
use nova_runtime::{Dataflow, PlanSwitch};
use nova_topology::{NodeId, NodeRole, Topology};

const DURATION_MS: f64 = 2400.0;

/// sink(0), l(1), r(2), w(3) — the engine's standard test world.
fn world() -> (Topology, JoinQuery) {
    let mut t = Topology::new();
    let sink = t.add_node(NodeRole::Sink, 1000.0, "sink");
    let l = t.add_node(NodeRole::Source, 1000.0, "l");
    let r = t.add_node(NodeRole::Source, 1000.0, "r");
    t.add_node(NodeRole::Worker, 1000.0, "w");
    let q = JoinQuery::by_key(
        vec![StreamSpec::keyed(l, 40.0, 1)],
        vec![StreamSpec::keyed(r, 40.0, 1)],
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

fn cfg_for(shards: usize) -> ExecConfig {
    ExecConfig {
        duration_ms: DURATION_MS,
        window_ms: 200.0,
        selectivity: 0.7,
        time_scale: 8.0,
        max_queue_ms: f64::INFINITY,
        shards,
        ..ExecConfig::default()
    }
}

/// Telemetry off: the subscription receiver is born disconnected, so
/// the controller sees an *empty snapshot feed*. It must fall back to
/// command-serving (no spinning, no premature exit), apply injected
/// switches, and join cleanly once the handle is released.
#[test]
fn empty_snapshot_feed_controller_serves_commands_and_joins() {
    let (t, q) = world();
    let pre = sink_based(&q, &q.resolve());
    let post = host_based(&q, &q.resolve(), NodeId(3));
    let df = Dataflow::from_baseline(&q, &pre);
    let cfg = ExecConfig {
        telemetry: false,
        ..cfg_for(1)
    };
    let handle = launch(&t, flat_dist, &df, &cfg).expect("valid config");
    let ctl = Autoscaler::spawn(
        handle,
        df.clone(),
        AutoscaleConfig::default(),
        Box::new(flat_dist),
        None,
    );
    let switch = PlanSwitch::between(1100.0, &q, &pre, &post, 1.0);
    let stats = ctl.apply(switch).expect("injected switch must apply");
    assert!(stats.clean_split, "epoch armed late");
    let report = ctl.join();
    assert!(report.result.delivered > 0, "run must deliver");
    assert_eq!(report.switches.len(), 1, "one applied switch recorded");
    assert!(!report.switches[0].admitted);
    let injected: Vec<_> = report
        .decisions
        .iter()
        .filter(|d| d.action == "injected-apply")
        .collect();
    assert_eq!(injected.len(), 1, "injected command must be logged");
    assert_eq!(injected[0].outcome, "applied");
}

/// A zero controller interval disables the feed outright (subscribing
/// with it would be rejected — see `SubscribeError::ZeroInterval`).
/// The controller must not treat that as a live feed and must still
/// terminate through `join` without any injected commands.
#[test]
fn zero_interval_controller_joins_without_a_feed() {
    let (t, q) = world();
    let pre = sink_based(&q, &q.resolve());
    let df = Dataflow::from_baseline(&q, &pre);
    let cfg = cfg_for(1);
    let handle = launch(&t, flat_dist, &df, &cfg).expect("valid config");
    let ctl = Autoscaler::spawn(
        handle,
        df.clone(),
        AutoscaleConfig {
            interval: Duration::ZERO,
            ..AutoscaleConfig::default()
        },
        Box::new(flat_dist),
        None,
    );
    let report = ctl.join();
    assert!(report.result.delivered > 0, "run must deliver");
    assert!(report.switches.is_empty(), "no switch without a feed");
    assert!(
        report.decisions.is_empty(),
        "no snapshots, no decisions: {:?}",
        report.decisions
    );
}

/// An epoch whose quiesce timed out stays armed; arming *anything*
/// on top of it — here a source admission — must be refused with
/// [`ReconfigError::EpochInFlight`] and a descriptive message, and the
/// run must still drain to a clean join afterwards.
#[test]
fn add_source_while_epoch_armed_is_rejected_descriptively() {
    let (mut t, q) = world();
    let late = t.add_node(NodeRole::Source, 1000.0, "late");
    let mut right = q.right.clone();
    right.push(StreamSpec::keyed(late, 40.0, 1));
    let q_post = JoinQuery::by_key(q.left.clone(), right, NodeId(0));

    let pre = sink_based(&q, &q.resolve());
    let post = host_based(&q, &q.resolve(), NodeId(3));
    let p_admit = host_based(&q_post, &q_post.resolve(), NodeId(3));
    let df = Dataflow::from_baseline(&q, &pre);
    // A 1 ms grace forces the timeout: the epoch sits far beyond the
    // stream end, so no source can barrier before the deadline.
    let cfg = ExecConfig {
        quiesce_grace_ms: 1.0,
        ..cfg_for(1)
    };
    let mut handle = launch(&t, flat_dist, &df, &cfg).expect("valid config");
    let stuck = PlanSwitch::between(1.0e9, &q, &pre, &post, 1.0);
    let err = handle
        .apply(&stuck, flat_dist)
        .expect_err("far-future epoch cannot quiesce within 1 ms");
    assert!(
        matches!(err, ReconfigError::QuiesceTimeout),
        "expected QuiesceTimeout, got {err}"
    );

    let admit = PlanSwitch::between(1.0e9 + 100.0, &q_post, &pre, &p_admit, 1.0);
    let err = handle
        .add_source(&admit, flat_dist)
        .expect_err("armed epoch must poison later arms");
    assert!(
        matches!(err, ReconfigError::EpochInFlight { epoch: 1 }),
        "expected EpochInFlight for epoch 1, got {err}"
    );
    assert!(
        err.to_string().contains("still armed"),
        "message must say the epoch is still armed: {err}"
    );

    // The timed-out epoch may not corrupt the run: join still drains.
    let res = handle.join();
    assert!(res.delivered > 0, "run must deliver despite the timeout");
    assert_eq!(res.dropped, 0, "drop-free world stays drop-free");
}
