//! Property-based tests of optimizer invariants.

use std::collections::BTreeMap;

use nova_core::{
    evaluate, p_max, partition_rates, sigma_for_bandwidth, CandidateIndex, EvalOptions, JoinQuery,
    Nova, NovaConfig, PartitionedJoin, StreamSpec,
};
use nova_geom::Coord;
use nova_netcoord::CostSpace;
use nova_topology::{NodeId, NodeRole, Topology};
use proptest::prelude::*;

proptest! {
    /// Partitioning always conserves total stream rate and respects
    /// p_max, for any rates and σ.
    #[test]
    fn partitioning_conserves_mass(
        dr_s in 0.1f64..500.0,
        dr_t in 0.1f64..500.0,
        sigma in 0.0f64..=1.0,
    ) {
        let pj = PartitionedJoin::decompose(dr_s, dr_t, sigma);
        let left_sum: f64 = pj.left.iter().sum();
        let right_sum: f64 = pj.right.iter().sum();
        prop_assert!((left_sum - dr_s).abs() < 1e-6);
        prop_assert!((right_sum - dr_t).abs() < 1e-6);
        let pm = p_max(dr_s, dr_t, sigma);
        for p in pj.left.iter().chain(&pj.right) {
            prop_assert!(*p <= pm + 1e-9);
            prop_assert!(*p > 0.0);
        }
    }

    /// Total transfer is monotonically non-increasing in σ (less
    /// partitioning ⇒ less broadcast duplication).
    #[test]
    fn transfer_monotone_in_sigma(dr_s in 1.0f64..200.0, dr_t in 1.0f64..200.0) {
        let mut prev = f64::INFINITY;
        for sigma in [0.1, 0.3, 0.5, 0.8, 1.0] {
            let t = PartitionedJoin::decompose(dr_s, dr_t, sigma).total_transfer();
            prop_assert!(t <= prev + 1e-9, "sigma {sigma}: {t} > {prev}");
            prev = t;
        }
    }

    /// σ from a bandwidth budget is always within [0,1] and produces a
    /// transfer at most ~the budget when the budget is binding.
    #[test]
    fn sigma_budget_bounds(dr_s in 1.0f64..100.0, dr_t in 1.0f64..100.0, tb in 1.0f64..10_000.0) {
        let sigma = sigma_for_bandwidth(dr_s, dr_t, tb);
        prop_assert!((0.0..=1.0).contains(&sigma));
    }

    /// partition_rates yields ⌈rate/p_max⌉ partitions.
    #[test]
    fn partition_count_formula(rate in 0.5f64..1000.0, pm in 1.0f64..50.0) {
        let parts = partition_rates(rate, pm);
        let expected = (rate / pm).ceil() as usize;
        // Floating-point boundary: a remainder below 1e-9 merges away.
        prop_assert!(parts.len() == expected || parts.len() == expected.saturating_sub(0).max(1) || parts.len() + 1 == expected,
            "rate {rate} pm {pm}: got {} want {expected}", parts.len());
    }
}

/// Build a random-but-feasible world: enough worker capacity that Nova
/// must always produce an overload-free placement.
fn feasible_world(
    n_workers: usize,
    n_pairs: usize,
    rate: f64,
    seed: u64,
) -> (Topology, CostSpace, JoinQuery) {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new();
    let mut coords = Vec::new();
    let sink = t.add_node(NodeRole::Sink, 10.0, "sink");
    coords.push(Coord::xy(0.0, 0.0));
    let mut left = Vec::new();
    let mut right = Vec::new();
    for k in 0..n_pairs {
        let lx = rng.gen_range(-50.0..50.0);
        let ly = rng.gen_range(-50.0..50.0);
        let l = t.add_node(NodeRole::Source, 1.0, format!("l{k}"));
        coords.push(Coord::xy(lx, ly));
        let r = t.add_node(NodeRole::Source, 1.0, format!("r{k}"));
        coords.push(Coord::xy(
            lx + rng.gen_range(-5.0..5.0),
            ly + rng.gen_range(-5.0..5.0),
        ));
        left.push(StreamSpec::keyed(l, rate, k as u32));
        right.push(StreamSpec::keyed(r, rate, k as u32));
    }
    // Aggregate worker capacity = 4.5× total demand, spread evenly, but
    // never below the replica quantum: with σ = 0.4 the largest
    // indivisible replica of a pair needs 2·p_max = 0.4·(dr_s + dr_t),
    // so feasibility requires each worker to host at least one quantum
    // (plus headroom off the exact-fit knife edge).
    let pair_demand = 2.0 * rate;
    let total_demand = pair_demand * n_pairs as f64;
    let per_worker = (4.5 * total_demand / n_workers as f64).max(0.45 * pair_demand);
    for i in 0..n_workers {
        t.add_node(NodeRole::Worker, per_worker, format!("w{i}"));
        coords.push(Coord::xy(
            rng.gen_range(-50.0..50.0),
            rng.gen_range(-50.0..50.0),
        ));
    }
    let query = JoinQuery::by_key(left, right, sink);
    (t, CostSpace::new(coords), query)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On feasible topologies Nova never overloads any node — the central
    /// claim of the paper's Fig. 6.
    #[test]
    fn nova_never_overloads_feasible_topologies(
        n_workers in 4usize..20,
        n_pairs in 1usize..6,
        rate in 5.0f64..60.0,
        seed in 0u64..1000,
    ) {
        let (topology, space, query) = feasible_world(n_workers, n_pairs, rate, seed);
        let mut nova = Nova::with_cost_space(
            topology.clone(),
            space,
            NovaConfig::default(),
        );
        nova.optimize(query);
        let eval = evaluate(
            nova.placement(),
            &topology,
            |a, b| {
                // Any metric works for the overload check; reuse index
                // distance as a stand-in.
                (a.0 as f64 - b.0 as f64).abs()
            },
            EvalOptions::default(),
        );
        prop_assert_eq!(eval.overloaded_nodes, 0, "loads: {:?}", eval.node_loads);
        // Every pair is placed.
        let placed: std::collections::HashSet<_> =
            nova.placement().replicas.iter().map(|r| r.pair).collect();
        prop_assert_eq!(placed.len(), n_pairs);
        // No replica was placed via the overload fallback.
        prop_assert!(nova.placement().replicas.iter().all(|r| !r.overflowed));
    }

    /// Replicas ingest exactly the partition mass of their pair: summing
    /// distinct partition rates over nodes covers each stream at least
    /// once (broadcast may duplicate, never lose).
    #[test]
    fn placed_mass_covers_streams(
        n_workers in 4usize..16,
        rate in 5.0f64..80.0,
        seed in 0u64..500,
    ) {
        let (topology, space, query) = feasible_world(n_workers, 1, rate, seed);
        let mut nova = Nova::with_cost_space(topology, space, NovaConfig::default());
        nova.optimize(query);
        let left_total: f64 = nova.placement().replicas.iter().map(|r| r.left_rate).sum();
        let right_total: f64 = nova.placement().replicas.iter().map(|r| r.right_rate).sum();
        prop_assert!(left_total >= rate - 1e-6, "left {left_total} < {rate}");
        prop_assert!(right_total >= rate - 1e-6, "right {right_total} < {rate}");
    }

    /// The exact candidate index answers `knn` and `nearest_capable` like
    /// a scan over the live nodes, through tombstones, the side table
    /// and the rebuilds churn triggers. Each step is `(op, id, coord,
    /// cap)`; the step's coordinate, `id` and `cap` double as the query
    /// point, `k` and demand checked after it.
    #[test]
    fn exact_candidate_index_matches_scan_under_churn(
        n in 4usize..40,
        seed in 0u64..1000,
        steps in proptest::collection::vec(
            (0u32..4, 1u32..60, (-50.0f64..50.0, -50.0f64..50.0), 0.0f64..100.0),
            10..60,
        ),
    ) {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Topology::new();
        let mut coords = vec![Coord::xy(0.0, 0.0)];
        let mut live: BTreeMap<NodeId, (Coord, f64)> = BTreeMap::new();
        t.add_node(NodeRole::Sink, 1.0, "sink");
        for i in 1..n {
            let cap = rng.gen_range(0.0..100.0);
            let c = Coord::xy(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
            live.insert(t.add_node(NodeRole::Worker, cap, format!("w{i}")), (c, cap));
            coords.push(c);
        }
        let mut idx = CandidateIndex::build(&t, &CostSpace::new(coords), usize::MAX, seed);
        for (step, &(op, id, (x, y), cap)) in steps.iter().enumerate() {
            let (id, c) = (NodeId(id), Coord::xy(x, y));
            match op {
                0 => {
                    idx.remove(id);
                    live.remove(&id);
                }
                1 if !live.contains_key(&id) => {
                    idx.add_with_capacity(id, c, cap);
                    live.insert(id, (c, cap));
                }
                2 => {
                    idx.set_avail(id, cap);
                    if let Some(e) = live.get_mut(&id) {
                        e.1 = cap;
                    }
                }
                3 => {
                    idx.update_coord(id, c);
                    let kept = live.get(&id).map_or(f64::MAX, |e| e.1);
                    live.insert(id, (c, kept));
                }
                _ => {}
            }
            prop_assert_eq!(idx.live_count(), live.len(), "step {step}");

            let k = 1 + id.0 as usize % 8;
            let mut scan: Vec<f64> = live.values().map(|(p, _)| p.dist(&c)).collect();
            scan.sort_unstable_by(f64::total_cmp);
            scan.truncate(k);
            let got: Vec<f64> = idx.knn(&c, k).iter().map(|(_, d)| *d).collect();
            prop_assert_eq!(got.len(), scan.len(), "step {step}: knn length");
            for (g, w) in got.iter().zip(&scan) {
                prop_assert!((g - w).abs() < 1e-9, "step {step}: knn {got:?} vs scan {scan:?}");
            }

            let want = live
                .values()
                .filter(|(_, a)| *a >= cap)
                .map(|(p, _)| p.dist(&c))
                .min_by(f64::total_cmp);
            match (idx.nearest_capable(&c, cap), want) {
                (Some((_, g)), Some(w)) => {
                    prop_assert!((g - w).abs() < 1e-9, "step {step}: nearest {g} vs scan {w}");
                }
                (None, None) => {}
                (got, want) => {
                    prop_assert!(false, "step {step}: nearest {got:?} vs scan {want:?}");
                }
            }
        }
    }
}
