//! Intra-operator sharding: N join workers per deployed instance.
//!
//! The executor fans every join instance out to
//! [`crate::ExecConfig::shards`] worker threads, each owning a disjoint
//! slice of the instance's window state. There is one routing rule,
//! written once (`route`, below) and called by the source loop and by
//! the state re-hash of a live reconfiguration:
//!
//! ```text
//! shard = shard_of(window, pair, key_bucket_of(subkey, key_space), shards)
//! ```
//!
//! Any two tuples that could ever match share all three coordinates —
//! matching is per instance (i.e. per pair), per tumbling window, and
//! (for keyed workloads, `key_space > 1`) requires *equal* join
//! sub-keys, which always map to the same bucket under
//! [`key_bucket_of`]. So every potential match lands on exactly one
//! shard and the union of per-shard match sets equals the unsharded
//! match set, at any shard count. Shards share no buffers, take no
//! locks, and probe each `(window, key)` group privately.
//!
//! The rule is a function of what the executor already knows, not a
//! knob. An unkeyed workload (`key_space = 1`) carries sub-key 0 on
//! every tuple, `key_bucket_of(0, 1) == 0` contributes nothing to the
//! mix, and the rule *is* PR 2's `(window, pair)` routing bit-for-bit
//! (property-tested in `crates/exec/tests/shard_props.rs`): different
//! windows and pairs hash to different shards. A keyed workload spreads
//! by sub-key on top, at the grain of the key space itself — so a
//! *single hot pair with one giant window*, where `(window, pair)`
//! alone degenerates to one shard, splits its window state and probe
//! work across all shards. DESIGN.md §5 records the bucket-count option
//! this replaced and the rows that showed it selected nothing.
//!
//! ## Determinism
//!
//! Window assignment, the shard hash and the selectivity test are pure
//! functions of the config seed and event times, so on drop-free runs
//! `emitted` / `matched` / `delivered` are *identical* to
//! the unsharded (`shards = 1`) run and to the simulator — regardless of
//! shard count or OS scheduling. Per-shard watermarks (min event-time
//! frontier over the sources feeding the instance) drive garbage
//! collection exactly as in the unsharded worker: a shard sees each
//! source's tuples in event-time order over its FIFO channel, so its
//! frontiers still bound every future arrival. A shard that happens to
//! receive no tuples for a while only *delays* its GC — never makes it
//! unsafe.
//!
//! The model-domain numbers are also unchanged: ingest/relay service
//! slots are charged by the source worker and out-path relays by the
//! shard that produced the output, against the same shared
//! [`crate::metrics::NodePacer`]s, so the sharding is invisible to the
//! virtual-time
//! resource model.
//!
//! Each shard is individually visible to the telemetry plane: the
//! bootstrap registers one [`crate::metrics::MetricsRegistry`]
//! instrument per `(instance, shard)` at the shard's flat spawn index,
//! so a [`crate::MetricsSnapshot`] reports tuples-in / matched /
//! queue depth per shard — the per-worker saturation signal a future
//! autoscaler needs to tell "one hot shard" from "all shards busy".

use nova_core::PairId;

/// Shard owning the `(window, pair, key bucket)` slice, for `shards`
/// shards.
///
/// A 64-bit finalizer mix over the window id, pair id and key bucket;
/// pure, so the routing decision is identical across sources and
/// runs. `bucket = 0` — every tuple of an unkeyed workload —
/// contributes nothing to the mix, so the function then equals PR 2's
/// `(window, pair)` routing exactly: existing scaling numbers and shard
/// layouts are reproduced bit-for-bit.
#[inline]
pub fn shard_of(window: u64, pair: PairId, bucket: u32, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut x = window
        ^ ((pair.0 as u64) << 32)
        ^ (bucket as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    (x % shards as u64) as usize
}

/// Key bucket of a join sub-key, for `key_buckets` buckets.
///
/// A pure 64-bit finalizer mix over the sub-key (so adjacent sub-keys
/// spread instead of striping), reduced mod `key_buckets`. Equal
/// sub-keys always land in the same bucket — the co-location invariant
/// keyed sharding rests on — and `key_buckets <= 1` pins everything to
/// bucket 0, reproducing unkeyed routing.
#[inline]
pub fn key_bucket_of(subkey: u32, key_buckets: usize) -> u32 {
    if key_buckets <= 1 {
        return 0;
    }
    let mut x = (subkey as u64).wrapping_mul(0xA24B_AED4_963E_E407) ^ 0x9FB2_1C65_1E98_DF25;
    x ^= x >> 32;
    x = x.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    x ^= x >> 29;
    (x % key_buckets as u64) as u32
}

/// The executor's one routing rule: the shard of a tuple (or of a
/// migrated `(window, key)` group) with join sub-key `subkey` drawn
/// from `[0, key_space)`. One bucket per possible sub-key, so co-keyed
/// tuples co-locate and distinct sub-keys spread as far as the key
/// space allows; `key_space = 1` is `(window, pair)` routing.
#[inline]
pub(crate) fn route(
    window: u64,
    pair: PairId,
    subkey: u32,
    key_space: u32,
    shards: usize,
) -> usize {
    if shards <= 1 {
        return 0;
    }
    shard_of(
        window,
        pair,
        key_bucket_of(subkey, key_space as usize),
        shards,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute, ExecConfig};
    use nova_core::baselines::sink_based;
    use nova_core::{JoinQuery, StreamSpec};
    use nova_runtime::Dataflow;
    use nova_topology::{NodeId, NodeRole, Topology};

    fn world() -> (Topology, Dataflow) {
        let mut t = Topology::new();
        let sink = t.add_node(NodeRole::Sink, 1000.0, "sink");
        let mut left = Vec::new();
        let mut right = Vec::new();
        for k in 0..2u32 {
            let l = t.add_node(NodeRole::Source, 1000.0, format!("l{k}"));
            let r = t.add_node(NodeRole::Source, 1000.0, format!("r{k}"));
            left.push(StreamSpec::keyed(l, 40.0, k));
            right.push(StreamSpec::keyed(r, 40.0, k));
        }
        let q = JoinQuery::by_key(left, right, sink);
        let p = sink_based(&q, &q.resolve());
        let df = Dataflow::from_baseline(&q, &p);
        (t, df)
    }

    fn flat_dist(a: NodeId, b: NodeId) -> f64 {
        if a == b {
            0.0
        } else {
            10.0
        }
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 4, 8] {
            for window in 0..200u64 {
                for pair in 0..4u32 {
                    for bucket in [0u32, 1, 7] {
                        let s = shard_of(window, PairId(pair), bucket, shards);
                        assert!(s < shards);
                        assert_eq!(s, shard_of(window, PairId(pair), bucket, shards));
                    }
                }
            }
        }
        assert_eq!(shard_of(123, PairId(7), 0, 1), 0);
    }

    #[test]
    fn shard_of_spreads_windows_across_shards() {
        let shards = 4;
        let mut seen = [false; 4];
        for window in 0..64u64 {
            seen[shard_of(window, PairId(0), 0, shards)] = true;
        }
        assert!(seen.iter().all(|&s| s), "hash must reach every shard");
    }

    #[test]
    fn sub_keys_spread_a_single_hot_window_across_shards() {
        // The skew failure mode `(window, pair)` routing cannot escape:
        // one pair, one window. A keyed workload must reach every shard.
        let shards = 4;
        let mut seen = [false; 4];
        for subkey in 0..64u32 {
            seen[route(0, PairId(0), subkey, 64, shards)] = true;
        }
        assert!(seen.iter().all(|&s| s), "sub-keys must reach every shard");
        // An unkeyed workload is `(window, pair)` routing, and one shard
        // is shard 0 whatever the key space.
        assert_eq!(
            route(0, PairId(0), 0, 1, shards),
            shard_of(0, PairId(0), 0, shards)
        );
        assert_eq!(route(9, PairId(3), 17, 64, 1), 0);
    }

    #[test]
    fn sharded_counts_match_threaded_exactly() {
        let (t, df) = world();
        let base = ExecConfig {
            duration_ms: 2500.0,
            window_ms: 100.0,
            selectivity: 0.6,
            time_scale: 8.0,
            // Unbounded queues: count identity is guaranteed only on
            // drop-free runs, and with a bounded queue an OS-stalled
            // source thread (~30 ms on a loaded 1-core host ≈ 250
            // virtual ms at time_scale 8) can shed a tuple spuriously.
            max_queue_ms: f64::INFINITY,
            ..ExecConfig::default()
        };
        let threaded = execute(&t, flat_dist, &df, &base).expect("valid config");
        assert_eq!(threaded.dropped, 0, "scenario must stay uncongested");
        for shards in [1usize, 2, 4] {
            let cfg = ExecConfig { shards, ..base };
            let sharded = execute(&t, flat_dist, &df, &cfg).expect("valid config");
            assert_eq!(sharded.dropped, 0);
            assert_eq!(sharded.emitted, threaded.emitted, "shards={shards}");
            assert_eq!(sharded.matched, threaded.matched, "shards={shards}");
            assert_eq!(sharded.delivered, threaded.delivered, "shards={shards}");
            assert_eq!(
                sharded.threads,
                df.sources.len() + df.instances.len() * shards + 1
            );
        }
    }

    #[test]
    fn keyed_sharding_counts_match_threaded_at_every_shard_count() {
        // Keyed workload (sub-keys drawn from [0, 16)): sub-key
        // routing must never change what joins — match and delivery
        // counts are pinned to the threaded baseline at every shard
        // count, because matching requires equal sub-keys and co-keyed
        // tuples always co-locate.
        let (t, df) = world();
        let base = ExecConfig {
            duration_ms: 2500.0,
            window_ms: 500.0,
            selectivity: 0.9,
            time_scale: 8.0,
            key_space: 16,
            // Drop-free by construction — see above.
            max_queue_ms: f64::INFINITY,
            ..ExecConfig::default()
        };
        let threaded = execute(&t, flat_dist, &df, &base).expect("valid config");
        assert_eq!(threaded.dropped, 0, "scenario must stay uncongested");
        assert!(threaded.delivered > 0, "keyed workload must match");
        for shards in [2usize, 3, 4, 8] {
            let cfg = ExecConfig { shards, ..base };
            let sharded = execute(&t, flat_dist, &df, &cfg).expect("valid config");
            let tag = format!("shards={shards}");
            assert_eq!(sharded.dropped, 0, "{tag}");
            assert_eq!(sharded.emitted, threaded.emitted, "{tag}");
            assert_eq!(sharded.matched, threaded.matched, "{tag}");
            assert_eq!(sharded.delivered, threaded.delivered, "{tag}");
        }
    }

    #[test]
    fn sharded_run_is_count_deterministic() {
        let (t, df) = world();
        let cfg = ExecConfig {
            duration_ms: 2000.0,
            window_ms: 100.0,
            selectivity: 0.5,
            time_scale: 8.0,
            shards: 4,
            // Drop-free by construction — see above.
            max_queue_ms: f64::INFINITY,
            ..ExecConfig::default()
        };
        let a = execute(&t, flat_dist, &df, &cfg).expect("valid config");
        let b = execute(&t, flat_dist, &df, &cfg).expect("valid config");
        assert!(a.delivered > 0);
        assert_eq!(a.dropped, 0);
        assert_eq!(a.emitted, b.emitted);
        assert_eq!(a.matched, b.matched);
        assert_eq!(a.delivered, b.delivered);
    }
}
