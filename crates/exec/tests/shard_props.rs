//! Property tests for the two pure functions the executor's shard
//! routing composes: `shard_of(window, pair, key_bucket_of(subkey,
//! key_space), shards)`. The bucket count below is the executor's
//! `key_space` — the properties hold at any value of it.
//!
//! Two invariants carry the whole keyed-sharding correctness argument:
//!
//! 1. **Co-location**: tuples that could ever match — same pair, same
//!    window, equal join sub-keys — route to the *same* shard at any
//!    shard count and any bucket count. (Matching requires equal
//!    sub-keys; equal sub-keys map to one bucket; `(window, pair,
//!    bucket)` determines the shard.)
//! 2. **PR 2 reproduction**: with a single bucket — an unkeyed
//!    workload, `key_space = 1` — the extended router equals the
//!    original `(window, pair)` hash *bit-for-bit*, so unkeyed
//!    workloads keep their exact shard layout (and their recorded
//!    scaling numbers).
//!
//! The PR 2 hash is reimplemented here verbatim as a frozen reference
//! model — if `shard_of` ever drifts for `bucket = 0`, this fails.

use nova_core::PairId;
use nova_exec::{key_bucket_of, shard_of};
use proptest::prelude::*;

/// PR 2's `(window, pair)` shard hash, frozen as the reference model.
fn pr2_shard_of(window: u64, pair: PairId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut x = window ^ ((pair.0 as u64) << 32) ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    (x % shards as u64) as usize
}

proptest! {
    /// (a) Co-keyed tuples of a pair + window co-locate at any bucket
    /// count: the full route — bucket the sub-key, hash the triple — is
    /// a pure function of `(window, pair, subkey)`, so recomputing it
    /// (as every source thread does independently) can never split a
    /// matching pair across shards. Both stages also stay in range.
    #[test]
    fn co_keyed_tuples_co_locate_at_any_bucket_count(
        wp in (0u64..1_000_000, 0u32..64),
        subkey in 0u32..100_000,
        buckets in 1usize..=64,
        shards in 1usize..=16,
    ) {
        let (window, pair) = wp;
        let bucket = key_bucket_of(subkey, buckets);
        prop_assert!((bucket as usize) < buckets);
        // A second, independent computation — the "other side" of the
        // join arriving at a different source thread.
        prop_assert_eq!(bucket, key_bucket_of(subkey, buckets));
        let shard = shard_of(window, PairId(pair), bucket, shards);
        prop_assert!(shard < shards);
        prop_assert_eq!(shard, shard_of(window, PairId(pair), bucket, shards));
    }

    /// (b) One bucket (`key_space = 1`) reproduces PR 2's `(window, pair)` routing
    /// exactly: every sub-key collapses to bucket 0 and the extended
    /// hash equals the frozen original bit-for-bit.
    #[test]
    fn single_bucket_reproduces_pr2_routing(
        wp in (0u64..u64::MAX, 0u32..u32::MAX),
        subkey in 0u32..u32::MAX,
        shards in 1usize..=16,
    ) {
        let (window, pair) = wp;
        prop_assert_eq!(key_bucket_of(subkey, 1), 0);
        prop_assert_eq!(key_bucket_of(subkey, 0), 0);
        prop_assert_eq!(
            shard_of(window, PairId(pair), key_bucket_of(subkey, 1), shards),
            pr2_shard_of(window, PairId(pair), shards)
        );
    }

    /// A constant sub-key never splits a `(window, pair)` slice at ANY
    /// bucket count: the constant bucket shifts which shard the slice
    /// lands on but still sends every tuple of it to one shard.
    #[test]
    fn constant_subkey_never_splits_a_slice(
        wp in (0u64..1_000_000, 0u32..64),
        buckets in 1usize..=64,
        shards in 2usize..=16,
    ) {
        let (window, pair) = wp;
        let a = shard_of(window, PairId(pair), key_bucket_of(0, buckets), shards);
        let b = shard_of(window, PairId(pair), key_bucket_of(0, buckets), shards);
        prop_assert_eq!(a, b);
        prop_assert!(a < shards);
    }

    /// Distinct sub-keys of one hot `(window, pair)` spread: with
    /// enough sub-keys, more than one shard receives traffic whenever
    /// there is more than one shard — the anti-serialization property
    /// `(window, pair)` routing lacks on a single hot pair.
    #[test]
    fn hot_pair_traffic_reaches_multiple_shards(
        wp in (0u64..1_000_000, 0u32..64),
        buckets in 8usize..=64,
        shards in 2usize..=8,
    ) {
        let (window, pair) = wp;
        let mut seen = vec![false; shards];
        for subkey in 0..256u32 {
            let bucket = key_bucket_of(subkey, buckets);
            seen[shard_of(window, PairId(pair), bucket, shards)] = true;
        }
        let reached = seen.iter().filter(|&&s| s).count();
        prop_assert!(
            reached > 1,
            "256 sub-keys through {} buckets reached only {} of {} shards",
            buckets, reached, shards
        );
    }
}
