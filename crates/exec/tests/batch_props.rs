//! Batch-equivalence property suite: `ExecConfig::batch_size` must be
//! a pure framing knob.
//!
//! The executor carries tuples in fixed-size [`TupleBatch`]es from the
//! sources through the shard workers to the sink, and the batch size
//! bounds *when* tuples move, never *what* joins. The suite pins that
//! claim the strongest way the repo knows how: `emitted` / `matched` /
//! `delivered` must be **identical** to the drain-exact simulator
//! ([`simulate_reconfigured`] with no switches — `simulate` minus the
//! duration truncation, exactly the executor's semantics) and identical
//! to each other across batch sizes {1, 2, 7, 64}, at every sampled
//! shard count, on a Zipfian-skewed keyed workload (and two unkeyed
//! rows) — up to 32 shards per instance, far more than the host has
//! cores and than the workload has `(window, pair, sub-key)` slices, so
//! many shards see no tuple at all and retire on their Eofs alone.
//!
//! Batch size 7 is deliberately co-prime with every rate and shard
//! count in the world, so source flushes constantly split emission
//! bursts mid-batch; 64 exceeds most per-window group sizes, so whole
//! windows cross the channel in one frame.

use nova_core::baselines::sink_based;
use nova_core::{JoinQuery, StreamSpec};
use nova_exec::{execute, ExecConfig};
use nova_runtime::{simulate_reconfigured, Dataflow, SimConfig, SimResult};
use nova_topology::{NodeId, NodeRole, Topology};
use proptest::prelude::*;

const DURATION_MS: f64 = 1200.0;
const BATCH_SIZES: [usize; 4] = [1, 2, 7, 64];

/// Zipfian keyed world: four pairs whose rates follow a power law
/// (50, 20, 10, 5 t/s per side — the head pair carries ~59 % of the
/// traffic), each stream keyed and sub-keys drawn from `[0, 8)` (or
/// all 0 on the matrix's unkeyed rows). Every
/// interval divides 1000 exactly so simulator and executor produce
/// identical float event-time grids — the precondition for exact count
/// identity.
fn zipf_world() -> (Topology, JoinQuery) {
    let mut t = Topology::new();
    let sink = t.add_node(NodeRole::Sink, 1000.0, "sink");
    let rates = [50.0, 20.0, 10.0, 5.0];
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (k, &rate) in rates.iter().enumerate() {
        let l = t.add_node(NodeRole::Source, 1000.0, format!("l{k}"));
        let r = t.add_node(NodeRole::Source, 1000.0, format!("r{k}"));
        left.push(StreamSpec::keyed(l, rate, k as u32));
        right.push(StreamSpec::keyed(r, rate, k as u32));
    }
    (t, JoinQuery::by_key(left, right, sink))
}

fn flat_dist(a: NodeId, b: NodeId) -> f64 {
    if a == b {
        0.0
    } else {
        10.0
    }
}

fn sim_cfg(key_space: u32) -> SimConfig {
    SimConfig {
        duration_ms: DURATION_MS,
        window_ms: 200.0,
        selectivity: 0.8,
        key_space,
        // Drop-free by construction: count identity only holds without
        // shedding, and a bounded queue could shed spuriously when the
        // OS stalls a thread.
        max_queue_ms: f64::INFINITY,
        ..SimConfig::default()
    }
}

/// The drain-exact simulator reference: with no switches
/// `simulate_reconfigured` replays the same emission grid and drains
/// every in-flight tuple, so a drop-free executor run must land on
/// these counts *exactly* — at any batch size.
fn sim_reference(key_space: u32) -> SimResult {
    let (t, q) = zipf_world();
    let df = Dataflow::from_baseline(&q, &sink_based(&q, &q.resolve()));
    let sim = simulate_reconfigured(&t, flat_dist, &df, &[], &sim_cfg(key_space));
    assert_eq!(sim.dropped, 0, "reference must stay drop-free");
    assert!(sim.delivered > 0, "reference must deliver");
    sim
}

fn run_exec(cfg: &ExecConfig) -> nova_exec::ExecResult {
    let (t, q) = zipf_world();
    let df = Dataflow::from_baseline(&q, &sink_based(&q, &q.resolve()));
    execute(&t, flat_dist, &df, cfg).expect("valid exec config")
}

fn assert_counts_match_sim(cfg: &ExecConfig, tag: &str) {
    let sim = sim_reference(cfg.key_space);
    let res = run_exec(cfg);
    assert_eq!(res.dropped, 0, "{tag}: must stay drop-free");
    assert_eq!(res.emitted, sim.emitted, "{tag}: emitted diverged");
    assert_eq!(res.matched, sim.matched, "{tag}: matched diverged");
    assert_eq!(res.delivered, sim.delivered, "{tag}: delivered diverged");
}

/// The full deterministic matrix: every (shards, key space) row in the
/// grid below, at every batch size in {1, 2, 7, 64}, lands on the
/// simulator's counts exactly — batching is invisible to the join.
#[test]
fn every_batch_size_is_count_identical_across_the_backend_matrix() {
    // One shard is the single sequential worker. The 32-shard rows are
    // S ≫ cores: on the unkeyed one (`key_space = 1` is `(window,
    // pair)` routing) seven windows per pair reach at most seven of an
    // instance's 32 shards, so most shard threads receive nothing but
    // Eofs and must still retire cleanly and close the sink's quorum.
    for (shards, key_space) in [(1usize, 8u32), (2, 8), (4, 8), (4, 1), (32, 8), (32, 1)] {
        for batch_size in BATCH_SIZES {
            let cfg = ExecConfig {
                shards,
                batch_size,
                ..ExecConfig::from_sim(&sim_cfg(key_space), 16.0)
            };
            let tag = format!("shards={shards} key_space={key_space} batch={batch_size}");
            assert_counts_match_sim(&cfg, &tag);
        }
    }
}

/// Worker pinning is a performance hint, never a correctness knob: the
/// same matrix corner with `pin_workers` on (round-robin affinity over
/// however many cores this host has — possibly one) keeps exact count
/// identity at every batch size.
#[test]
fn pinned_workers_preserve_exact_counts() {
    for batch_size in [1usize, 64] {
        let cfg = ExecConfig {
            shards: 4,
            pin_workers: true,
            batch_size,
            ..ExecConfig::from_sim(&sim_cfg(8), 16.0)
        };
        let tag = format!("pinned shards=4 batch={batch_size}");
        assert_counts_match_sim(&cfg, &tag);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomly sampled corners of the configuration space — any batch
    /// size in [1, 96] (not just the curated four), any shard count —
    /// stay count-identical to the simulator on the Zipfian keyed
    /// world.
    #[test]
    fn sampled_configurations_are_count_identical(
        batch_size in 1usize..=96,
        shards in 1usize..=4,
    ) {
        let cfg = ExecConfig {
            shards,
            batch_size,
            ..ExecConfig::from_sim(&sim_cfg(8), 16.0)
        };
        let sim = sim_reference(cfg.key_space);
        let res = run_exec(&cfg);
        let tag = format!("shards={shards} batch={batch_size}");
        prop_assert_eq!(res.dropped, 0, "{}: must stay drop-free", tag);
        prop_assert_eq!(res.emitted, sim.emitted, "{}: emitted diverged", tag);
        prop_assert_eq!(res.matched, sim.matched, "{}: matched diverged", tag);
        prop_assert_eq!(res.delivered, sim.delivered, "{}: delivered diverged", tag);
    }
}
