//! Micro-runs of single layers on pre-generated input, at the operating
//! point of the workload that is running: each times calls into one
//! crate's public functions, nothing else. Their per-tuple costs, times
//! how often a tuple pays them, add up to `exec.attributed_ns_per_tuple`.

use std::hint::black_box;
use std::time::Instant;

use nova_core::virtual_placement::pinned_anchors;
use nova_core::{CandidateIndex, JoinQuery, PairId, Side};
use nova_exec::channel::{bounded, InFlight, TupleBatch};
use nova_exec::{key_bucket_of, shard_of, NodePacer};
use nova_geom::median::{geometric_median, MedianOptions};
use nova_geom::Coord;
use nova_netcoord::CostSpace;
use nova_runtime::{
    match_survives, pick_partition, subkey_of, BufferedTuple, Tuple, WindowBuffers,
};
use nova_topology::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::scenario::EngineParams;

fn ns_per(start: Instant, n: usize) -> f64 {
    start.elapsed().as_secs_f64() * 1e9 / n.max(1) as f64
}

// ---- geom / core -----------------------------------------------------

pub struct GeomCosts {
    pub median_ns_per_pair: f64,
    pub knn_ns_per_query: f64,
    pub nearest_capable_ns_per_query: f64,
}

/// Geometric medians of up to 2000 pairs' anchors, then k-NN and
/// nearest-capable queries of a fresh `CandidateIndex` at those medians.
pub fn geom(query: &JoinQuery, topology: &Topology, space: &CostSpace, seed: u64) -> GeomCosts {
    let plan = query.resolve();
    let anchors: Vec<[Coord; 3]> = plan
        .pairs
        .iter()
        .take(2_000)
        .map(|p| pinned_anchors(query, p, space))
        .collect();
    const PASSES: usize = 20;
    let t = Instant::now();
    let mut medians = Vec::with_capacity(anchors.len());
    for pass in 0..PASSES {
        for a in &anchors {
            let m = geometric_median(black_box(a), MedianOptions::default()).expect("3 anchors");
            if pass == 0 {
                medians.push(m.point);
            }
        }
    }
    let median_ns_per_pair = ns_per(t, PASSES * anchors.len());

    let index = CandidateIndex::build(topology, space, usize::MAX, seed);
    let need = plan
        .pairs
        .iter()
        .map(|p| query.required_capacity(p))
        .sum::<f64>()
        / plan.len().max(1) as f64;
    let queries = 20_000usize;
    let t = Instant::now();
    for i in 0..queries {
        black_box(index.knn(&medians[i % medians.len()], 8));
    }
    let knn_ns_per_query = ns_per(t, queries);
    let t = Instant::now();
    for i in 0..queries {
        black_box(index.nearest_capable(&medians[i % medians.len()], need));
    }
    GeomCosts {
        median_ns_per_pair,
        knn_ns_per_query,
        nearest_capable_ns_per_query: ns_per(t, queries),
    }
}

// ---- runtime: window state -------------------------------------------

pub struct ProbeCosts {
    pub probe_ns_per_tuple: f64,
    pub partners_per_probe: f64,
    pub peak_arena_chunks: usize,
}

/// Replay one pair's join work single-threaded, as both engines do it:
/// tuples of two streams at `rate` per side, stamped by `subkey_of`,
/// inserted and probed through `WindowBuffers::insert_and_probe_with`
/// with `match_survives` as the visitor, state collected on the
/// engines' cadence. At least three windows, at most `max_tuples`.
pub fn window_probe(e: &EngineParams, rate: f64, seed: u64, max_tuples: usize) -> ProbeCosts {
    let interval_ms = 1_000.0 / rate;
    let want = (3.0 * e.window_ms / interval_ms * 2.0).ceil() as usize;
    let n = want.clamp(50_000, max_tuples.max(50_000));
    let mut buffers = WindowBuffers::new();
    let mut partners = 0usize;
    let mut matched = 0u64;
    let mut next_gc = e.gc_interval_ms;
    let mut peak = 0usize;
    let t = Instant::now();
    for i in 0..n {
        let side = if i % 2 == 0 { Side::Left } else { Side::Right };
        let seq = (i / 2) as u64 + 1;
        let now = (i / 2) as f64 * interval_ms;
        let subkey = subkey_of(seed, (i % 2) as u32, seq, e.key_space);
        partners += buffers.insert_and_probe_with(
            WindowBuffers::window_of(now, e.window_ms),
            subkey,
            side,
            BufferedTuple {
                seq,
                event_time: now,
            },
            |p| {
                if match_survives(seq, p.seq, side, e.selectivity, seed) {
                    matched += 1;
                }
            },
        );
        if now >= next_gc {
            peak = peak.max(buffers.arena_chunks());
            buffers.gc(now - e.window_ms, e.window_ms);
            next_gc += e.gc_interval_ms;
        }
    }
    black_box(matched);
    ProbeCosts {
        probe_ns_per_tuple: ns_per(t, n),
        partners_per_probe: partners as f64 / n as f64,
        peak_arena_chunks: peak.max(buffers.arena_chunks()),
    }
}

/// One `match_survives` call, selectivity as configured.
pub fn match_survives_ns(selectivity: f64, seed: u64) -> f64 {
    let n = 2_000_000usize;
    let mut hits = 0u64;
    let t = Instant::now();
    for i in 0..n as u64 {
        if match_survives(black_box(i), i ^ 0x5bd1, Side::Left, selectivity, seed) {
            hits += 1;
        }
    }
    black_box(hits);
    ns_per(t, n)
}

/// Window create / insert / collect with three tuples per window: the
/// write-heavy extreme, independent of the workload's own window.
pub fn window_insert_gc_ns() -> f64 {
    let n = 600_000usize;
    let mut buffers = WindowBuffers::new();
    let t = Instant::now();
    for i in 0..n {
        let side = if i % 2 == 0 { Side::Left } else { Side::Right };
        let now = i as f64;
        black_box(buffers.insert_and_probe_with(
            (i / 3) as u64,
            0,
            side,
            BufferedTuple {
                seq: i as u64,
                event_time: now,
            },
            |p| {
                black_box(p);
            },
        ));
        if i % 1_500 == 1_499 {
            // Windows are 3 ms long here; keep one behind the frontier.
            buffers.gc(now - 3.0, 3.0);
        }
    }
    ns_per(t, n)
}

/// `export_groups` + `import_groups` of one full window of the
/// workload's occupancy, per buffered tuple.
pub fn window_export_import_ns(e: &EngineParams, rate: f64, seed: u64) -> f64 {
    let per_side = ((rate * e.window_ms / 1_000.0).ceil() as usize).clamp(64, 100_000);
    let fill = |b: &mut WindowBuffers| {
        for i in 0..2 * per_side {
            let side = if i % 2 == 0 { Side::Left } else { Side::Right };
            let seq = (i / 2) as u64 + 1;
            b.insert_and_probe_with(
                0,
                subkey_of(seed, (i % 2) as u32, seq, e.key_space),
                side,
                BufferedTuple {
                    seq,
                    event_time: 0.0,
                },
                |_| {},
            );
        }
    };
    let rounds = (400_000 / (2 * per_side)).clamp(3, 200);
    let mut from = WindowBuffers::new();
    fill(&mut from);
    let t = Instant::now();
    for _ in 0..rounds {
        let mut to = WindowBuffers::new();
        to.import_groups(from.export_groups());
        from = to;
    }
    black_box(from.buffered());
    ns_per(t, rounds * 2 * per_side)
}

// ---- exec: source, channel, pacer ------------------------------------

/// What a source does per tuple before the frame leaves: `subkey_of`,
/// `pick_partition`, `key_bucket_of`, `shard_of`, `window_of` and
/// `TupleBatch::push` into 1024-tuple frames.
pub fn stamp_route_ns(e: &EngineParams, partition_rates: &[f64], seed: u64) -> f64 {
    let n = 2_000_000usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut frame = TupleBatch::with_capacity(0, 1_024);
    let mut routed = 0usize;
    let t = Instant::now();
    for i in 0..n {
        let seq = i as u64 + 1;
        let event_time = i as f64 * 0.01;
        let subkey = subkey_of(seed, 0, seq, e.key_space);
        let partition = pick_partition(partition_rates, &mut rng);
        let window = WindowBuffers::window_of(event_time, e.window_ms);
        let bucket = key_bucket_of(subkey, 1);
        routed += shard_of(window, PairId(0), bucket, e.shards);
        frame.push(InFlight {
            tuple: Tuple {
                pair: PairId(0),
                side: Side::Left,
                partition: partition as u32,
                key: 0,
                subkey,
                seq,
                event_time,
            },
            deliver_at: event_time,
        });
        if frame.len() == 1_024 {
            black_box(frame.frontier());
            frame = TupleBatch::with_capacity(0, 1_024);
        }
    }
    black_box(routed);
    ns_per(t, n)
}

pub struct ChannelCosts {
    pub frame_roundtrip_ns: f64,
    pub ns_per_tuple: f64,
}

/// Ping-pong of 1024-tuple frames over two `channel::bounded` links to
/// an echo thread: one frame in flight, so a round trip is two
/// hand-offs and two wake-ups.
pub fn channel_roundtrip() -> ChannelCosts {
    let frames = 4_000usize;
    let (to_echo, echo_rx) = bounded::<TupleBatch>(64);
    let (to_main, main_rx) = bounded::<TupleBatch>(64);
    let echo = std::thread::spawn(move || {
        while let Some(frame) = echo_rx.recv() {
            if to_main.send(frame).is_err() {
                break;
            }
        }
    });
    let mut frame = TupleBatch::with_capacity(0, 1_024);
    for i in 0..1_024u64 {
        frame.push(InFlight {
            tuple: Tuple {
                pair: PairId(0),
                side: Side::Left,
                partition: 0,
                key: 0,
                subkey: 0,
                seq: i,
                event_time: i as f64,
            },
            deliver_at: i as f64,
        });
    }
    let t = Instant::now();
    for _ in 0..frames {
        to_echo.send(frame).expect("echo thread alive");
        frame = main_rx.recv().expect("echo thread alive");
    }
    let roundtrip = ns_per(t, frames);
    drop(to_echo);
    echo.join().expect("echo thread exits cleanly");
    ChannelCosts {
        frame_roundtrip_ns: roundtrip,
        // One hand-off moves 1024 tuples; a round trip is two.
        ns_per_tuple: roundtrip / 2.0 / 1_024.0,
    }
}

/// One `NodePacer::serve` reservation on an unbounded queue.
pub fn pacer_serve_ns() -> f64 {
    let n = 2_000_000usize;
    let pacer = NodePacer::new(1_000_000.0, f64::INFINITY);
    let t = Instant::now();
    for i in 0..n {
        black_box(pacer.serve(i as f64 * 0.002));
    }
    ns_per(t, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> EngineParams {
        EngineParams {
            window_ms: 100.0,
            selectivity: 0.5,
            key_space: 4,
            gc_interval_ms: 50.0,
            shards: 2,
        }
    }

    #[test]
    fn probe_replay_sees_the_expected_occupancy() {
        // 1000 tuples/s per side, 100 ms windows, 4 sub-keys: a full
        // group holds 25 per side, a probe sees about half of that.
        let c = window_probe(&engine(), 1_000.0, 1, 50_000);
        assert!(
            (9.0..16.0).contains(&c.partners_per_probe),
            "partners {}",
            c.partners_per_probe
        );
        assert!(c.probe_ns_per_tuple > 0.0 && c.peak_arena_chunks > 0);
    }

    #[test]
    fn micro_runs_return_positive_costs() {
        assert!(window_insert_gc_ns() > 0.0);
        assert!(window_export_import_ns(&engine(), 1_000.0, 1) > 0.0);
        assert!(stamp_route_ns(&engine(), &[1.0, 2.0], 1) > 0.0);
        assert!(pacer_serve_ns() > 0.0);
        let c = channel_roundtrip();
        assert!(c.frame_roundtrip_ns > 0.0 && c.ns_per_tuple > 0.0);
    }
}
