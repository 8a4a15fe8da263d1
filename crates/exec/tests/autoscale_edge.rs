//! The closed-loop autoscaler end to end: the happy path (detect
//! pressure → scale → converge) and the controller's edge cases.
//!
//! The happy path runs a controller wall-clock (`time_scale` 1.0)
//! through a flash crowd, at 1 and 4 launch shards, and a diurnal
//! swell-and-ebb, with a relocator that evacuates the saturated weak
//! host onto a strong spare. Only what holds on any host is asserted:
//! counts identical to the simulator replaying the controller's
//! recorded switch sequence, clean splits and no drops, and the shape
//! of the decision log (a relocating scale-up inside the surge, no
//! scale-up after the ebb, a scale-down after the scale-up, few
//! switches). Reaction lags and latency SLOs are wall-clock numbers
//! and are not asserted. The `nova_exec::autoscale::Policy` unit tests
//! pin the rule sample by sample (cooldown suppression, the shards=1
//! scale-down floor).
//!
//! The edge cases pin the seams around it: a controller whose snapshot
//! feed never produces anything must neither spin nor deadlock, and an
//! epoch that timed out must poison later arms with a descriptive
//! error instead of corrupting the run.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nova_core::baselines::{host_based, sink_based};
use nova_core::{JoinQuery, StreamSpec};
use nova_exec::{
    launch, AutoscaleConfig, AutoscaleReport, Autoscaler, ExecConfig, ReconfigError, Relocator,
};
use nova_runtime::{simulate_reconfigured, Dataflow, PlanSwitch, SimConfig, SimResult};
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

// ---------------------------------------------------------------------
// The happy path: detect → scale → converge
// ---------------------------------------------------------------------

/// Real-time horizon of a closed-loop run: long enough for sampling
/// (25 ms), hysteresis (2–3 samples) and cooldown (400 ms) to play out
/// twice, up and down, with headroom.
const LOOP_MS: f64 = 2600.0;
/// Steady per-stream rate: ρ = 0.5 on the weak join host.
const RATE: f64 = 500.0;
/// Surge multiplier: ρ = 1.25 on the weak host, past saturation, while
/// the strong spare would sit at ρ ≈ 0.31 — overloaded enough to
/// detect, bounded enough that the backlog before the scale-up stays
/// far below the window.
const CROWD: f64 = 2.5;

/// A weak join host (2 000 t/s), a strong spare (8 000 t/s), one source
/// pair at [`RATE`] each, and a dormant `late-r` source for the mid-run
/// admission (the topology is fixed at launch, so the admitted stream's
/// node must exist up front). Returns the topology, the query, the weak
/// host, the strong host and the dormant source.
fn loop_world() -> (Topology, JoinQuery, NodeId, NodeId, NodeId) {
    let mut t = Topology::new();
    let sink = t.add_node(NodeRole::Sink, 0.0, "sink");
    let weak = t.add_node(NodeRole::Worker, 2_000.0, "w-small");
    let strong = t.add_node(NodeRole::Worker, 8_000.0, "w-big");
    let l = t.add_node(NodeRole::Source, 0.0, "l0");
    let r = t.add_node(NodeRole::Source, 0.0, "r0");
    let late = t.add_node(NodeRole::Source, 0.0, "late-r");
    let q = JoinQuery::by_key(
        vec![StreamSpec::keyed(l, RATE, 0)],
        vec![StreamSpec::keyed(r, RATE, 0)],
        sink,
    );
    (t, q, weak, strong, late)
}

/// Metro links: 25 ms between any two nodes.
fn metro_dist(a: NodeId, b: NodeId) -> f64 {
    if a == b {
        0.0
    } else {
        25.0
    }
}

/// `q` with every stream at `RATE * mult`. Equal rates across the pair
/// keep every feed single-partition, where neither engine draws
/// partition randomness and the replay can demand exact counts.
fn scaled(q: &JoinQuery, mult: f64) -> JoinQuery {
    let mut q = q.clone();
    for s in q.left.iter_mut().chain(q.right.iter_mut()) {
        s.rate = RATE * mult;
    }
    q
}

/// The low-water mark sits below the crowd's ρ ≈ 0.31 on the strong
/// host, so the controller cannot scale down mid-crowd; the backlog
/// trigger sits below the weak host's steady burst backlog, so a
/// saturation scale-up always carries the re-placement.
fn loop_policy() -> AutoscaleConfig {
    AutoscaleConfig {
        interval: Duration::from_millis(25),
        high_utilization: 0.85,
        low_utilization: 0.2,
        backlog_high_ms: 8.0,
        high_samples: 2,
        slack_samples: 3,
        cooldown_ms: 400.0,
        epoch_lead_ms: 60.0,
        min_shards: 1,
        max_shards: 8,
        scale_factor: 2,
    }
}

fn loop_sim_cfg() -> SimConfig {
    SimConfig {
        duration_ms: LOOP_MS,
        window_ms: 500.0,
        selectivity: 0.05,
        gc_interval_ms: 5.0,
        seed: 0x51,
        max_queue_ms: f64::INFINITY,
        key_space: 8,
        ..SimConfig::default()
    }
}

/// One mid-run injection from the workload generator, at a wall time.
enum Inject {
    /// Every stream jumps to `RATE *` the multiplier.
    Step(f64),
    /// `add_source` admission of the dormant `late-r` stream.
    Admit,
}

/// Launch at `shards`, hand the handle to an [`Autoscaler`] whose
/// relocator evacuates onto the strong host, inject `events`
/// wall-clock, join, and replay the recorded switch sequence through
/// the simulator.
fn drive(shards: usize, events: &[(f64, Inject)]) -> (AutoscaleReport, SimResult) {
    let (topology, q0, weak, strong, late) = loop_world();
    let df0 = Dataflow::from_baseline(&q0, &host_based(&q0, &q0.resolve(), weak));
    let cfg = ExecConfig {
        batch_size: 1024,
        shards,
        ..ExecConfig::from_sim(&loop_sim_cfg(), 1.0)
    };
    let handle = launch(&topology, metro_dist, &df0, &cfg).expect("valid config");

    // The relocator and the injector share the live query and host:
    // relocation must rebuild the plan at the *current* rates (or
    // evacuating would silently revert a step), and steps after it
    // must keep the instances on the strong host.
    let live = Arc::new(Mutex::new((q0.clone(), weak)));
    let relocator: Relocator = {
        let live = Arc::clone(&live);
        Box::new(move |_from: NodeId| {
            let mut live = live.lock().unwrap();
            live.1 = strong;
            let q = &live.0;
            let df = Dataflow::from_baseline(q, &host_based(q, &q.resolve(), strong));
            let succ = (0..df.instances.len() as u32).map(Some).collect();
            (df, succ)
        })
    };
    let ctl = Autoscaler::spawn(
        handle,
        df0.clone(),
        loop_policy(),
        Box::new(metro_dist),
        Some(relocator),
    );

    let t0 = Instant::now();
    for (at_ms, inject) in events {
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1000.0;
        if elapsed_ms < *at_ms {
            std::thread::sleep(Duration::from_secs_f64((at_ms - elapsed_ms) / 1000.0));
        }
        let (q_now, host) = live.lock().unwrap().clone();
        let q_to = match inject {
            Inject::Step(mult) => scaled(&q0, *mult),
            // Keyed to the left stream at its own rate: equal partner
            // rates keep the admitted pair single-partition, and
            // appending to `right` leaves existing pair ids stable.
            Inject::Admit => {
                let mut right = q_now.right.clone();
                right.push(StreamSpec::keyed(late, q_now.left[0].rate, 0));
                JoinQuery::by_key(q_now.left.clone(), right, q_now.sink)
            }
        };
        let from = host_based(&q_now, &q_now.resolve(), host);
        let to = host_based(&q_to, &q_to.resolve(), host);
        // A NaN epoch is stamped `now + epoch_lead_ms` by the controller.
        let switch = PlanSwitch::between(f64::NAN, &q_to, &from, &to, 1.0);
        let stats = match inject {
            Inject::Step(_) => ctl.apply(switch),
            Inject::Admit => ctl.add_source(switch),
        }
        .unwrap_or_else(|e| panic!("injection at {at_ms} ms failed: {e}"));
        assert!(stats.clean_split, "injected epoch at {at_ms} ms armed late");
        live.lock().unwrap().0 = q_to;
    }

    let report = ctl.join();
    let switches: Vec<PlanSwitch> = report.switches.iter().map(|r| r.switch.clone()).collect();
    let sim = simulate_reconfigured(&topology, metro_dist, &df0, &switches, &loop_sim_cfg());
    (report, sim)
}

/// Everything a closed-loop run must get right on any host. `surge` and
/// `ebb` index the applied injected steps that start and end the
/// overload.
fn assert_closed_loop(
    tag: &str,
    report: &AutoscaleReport,
    sim: &SimResult,
    surge: usize,
    ebb: usize,
) {
    let res = &report.result;
    assert!(
        report.switches.iter().all(|s| s.stats.clean_split),
        "{tag}: an epoch barrier armed late"
    );
    assert_eq!(res.dropped, 0, "{tag} must stay drop-free");
    assert_eq!(sim.dropped, 0, "{tag}: the replay must stay drop-free");
    assert_eq!(res.emitted, sim.emitted, "{tag}: emitted vs replay");
    assert_eq!(res.matched, sim.matched, "{tag}: matched vs replay");
    assert_eq!(res.delivered, sim.delivered, "{tag}: delivered vs replay");

    let applied = |action: &str| -> Vec<f64> {
        report
            .decisions
            .iter()
            .filter(|d| d.action == action && d.outcome == "applied")
            .map(|d| d.epoch_ms)
            .collect()
    };
    let injected = applied("injected-apply");
    assert!(
        injected.len() > ebb,
        "{tag}: expected injected steps up to index {ebb}, got {}",
        injected.len()
    );
    let (surge_ms, ebb_ms) = (injected[surge], injected[ebb]);
    let relocating = applied("scale-up+relocate");
    let ups: Vec<f64> = applied("scale-up")
        .into_iter()
        .chain(relocating.iter().copied())
        .collect();
    let downs = applied("scale-down");

    // Every decision that was not a hold, for the failure messages.
    let log: Vec<String> = report
        .decisions
        .iter()
        .filter(|d| d.action != "hold")
        .map(|d| format!("{} @ {:.0} ms: {}", d.action, d.epoch_ms, d.outcome))
        .collect();
    let up = ups.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        up > surge_ms && up < ebb_ms,
        "{tag}: first scale-up at {up:.0} ms outside the surge \
         [{surge_ms:.0}, {ebb_ms:.0}] ms; decisions: {log:#?}"
    );
    assert!(
        !relocating.is_empty(),
        "{tag}: saturation never triggered a re-placement off the weak host; \
         decisions: {log:#?}"
    );
    assert!(
        ups.iter().all(|&u| u < ebb_ms),
        "{tag}: scale-up after the ebb, the loop is oscillating; decisions: {log:#?}"
    );
    assert!(
        downs.iter().any(|&d| d > up),
        "{tag}: no scale-down after the scale-up at {up:.0} ms; decisions: {log:#?}"
    );
    assert!(
        ups.len() + downs.len() <= 5,
        "{tag}: {} controller switches, not converging; decisions: {log:#?}",
        ups.len() + downs.len()
    );
}

/// Flash crowd: ×2.5 at 35 % of the run, back at 62 %, and one
/// admission at 80 % — at 1 and 4 launch shards, run side by side.
#[test]
fn flash_crowd_scales_up_off_the_weak_host_and_back_down() {
    let events = [
        (0.35 * LOOP_MS, Inject::Step(CROWD)),
        (0.62 * LOOP_MS, Inject::Step(1.0)),
        (0.80 * LOOP_MS, Inject::Admit),
    ];
    let events = &events;
    // Both runs spawn before either is joined: they share the wall clock.
    let runs = std::thread::scope(|s| {
        [1, 4]
            .map(|shards| (shards, s.spawn(move || drive(shards, events))))
            .map(|(shards, run)| (shards, run.join().expect("run thread panicked")))
    });
    for (shards, (report, sim)) in &runs {
        let tag = format!("flash-crowd at {shards} shard(s)");
        assert_closed_loop(&tag, report, sim, 0, 1);
        let admitted = report.switches.iter().filter(|s| s.admitted).count();
        assert_eq!(admitted, 1, "{tag}: exactly one admission");
    }
}

/// Diurnal: a shoulder the controller must hold through (×1.4: ρ = 0.7
/// on the weak host), the saturating peak, an ebb shoulder (×1.8:
/// ρ = 0.225 on the strong host, above the low-water mark) and the
/// return to baseline, which is the ebb.
#[test]
fn diurnal_cycle_converges_without_oscillating() {
    let events = [
        (0.20 * LOOP_MS, Inject::Step(1.4)),
        (0.40 * LOOP_MS, Inject::Step(CROWD)),
        (0.60 * LOOP_MS, Inject::Step(1.8)),
        (0.80 * LOOP_MS, Inject::Step(1.0)),
    ];
    let (report, sim) = drive(4, &events);
    assert_closed_loop("diurnal at 4 shards", &report, &sim, 1, 3);
}
