//! Queries and resolved plans.
//!
//! A [`JoinQuery`] is the logical plan Ω_log of the paper specialized to
//! the two-way stream join Nova targets: two logical input streams (each
//! already expanded into physical per-source streams), one sink, a join
//! matrix and a join selectivity. `resolve` performs the paper's
//! *resolving operators* step (§3.3): pair-wise join replication over the
//! matrix entries, producing the intermediate parallelized plan Ω'_log
//! whose join replicas Phase II places independently.

use nova_topology::NodeId;
use serde::{Deserialize, Serialize};

use crate::joinmatrix::JoinMatrix;
use crate::types::{JoinPair, PairId, StreamSpec};

/// A two-way stream join query over physical streams.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JoinQuery {
    /// Left physical streams (source expansion already applied).
    pub left: Vec<StreamSpec>,
    /// Right physical streams.
    pub right: Vec<StreamSpec>,
    /// The sink node consuming all join results (pinned).
    pub sink: NodeId,
    /// Joinability matrix over `left × right`.
    pub matrix: JoinMatrix,
    /// Join selectivity: output rate = selectivity · (dr(l) + dr(r)).
    /// Joins amplify data (§1); values above 1 model amplification,
    /// values below 1 model selective predicates.
    pub selectivity: f64,
}

impl JoinQuery {
    /// Build a query whose matrix joins streams with equal keys — the
    /// predefined-condition case (e.g. regional joins).
    pub fn by_key(left: Vec<StreamSpec>, right: Vec<StreamSpec>, sink: NodeId) -> Self {
        let matrix = JoinMatrix::by_key(&left, &right);
        JoinQuery {
            left,
            right,
            sink,
            matrix,
            selectivity: 1.0,
        }
    }

    /// Build a query with a dense matrix — every pair must be evaluated.
    pub fn dense(left: Vec<StreamSpec>, right: Vec<StreamSpec>, sink: NodeId) -> Self {
        let matrix = JoinMatrix::dense(left.len(), right.len());
        JoinQuery {
            left,
            right,
            sink,
            matrix,
            selectivity: 1.0,
        }
    }

    /// Override the join selectivity.
    pub fn with_selectivity(mut self, selectivity: f64) -> Self {
        assert!(
            selectivity >= 0.0 && selectivity.is_finite(),
            "invalid selectivity"
        );
        self.selectivity = selectivity;
        self
    }

    /// Resolve the query into its parallelized logical plan: one join
    /// replica per set matrix entry (§3.3 "pair-wise join replication").
    pub fn resolve(&self) -> ResolvedPlan {
        assert_eq!(
            self.matrix.rows(),
            self.left.len(),
            "matrix rows != left streams"
        );
        assert_eq!(
            self.matrix.cols(),
            self.right.len(),
            "matrix cols != right streams"
        );
        let pairs: Vec<JoinPair> = self
            .matrix
            .ones()
            .enumerate()
            .map(|(i, (r, c))| JoinPair {
                id: PairId(i as u32),
                left: r as u32,
                right: c as u32,
            })
            .collect();
        ResolvedPlan { pairs }
    }

    /// Total input data rate across all physical streams.
    pub fn total_input_rate(&self) -> f64 {
        self.left.iter().chain(&self.right).map(|s| s.rate).sum()
    }

    /// The left stream of a pair.
    pub fn left_stream(&self, pair: &JoinPair) -> &StreamSpec {
        &self.left[pair.left as usize]
    }

    /// The right stream of a pair.
    pub fn right_stream(&self, pair: &JoinPair) -> &StreamSpec {
        &self.right[pair.right as usize]
    }

    /// Required compute capacity of an *unpartitioned* replica of `pair`:
    /// `C_r(ω) = Σ dr(s)` over its input streams (§2.2).
    pub fn required_capacity(&self, pair: &JoinPair) -> f64 {
        self.left_stream(pair).rate + self.right_stream(pair).rate
    }

    /// Output rate of a pair's join, per the query selectivity.
    pub fn output_rate(&self, pair: &JoinPair) -> f64 {
        self.selectivity * self.required_capacity(pair)
    }
}

/// The intermediate parallelized plan Ω'_log: independent join replicas,
/// one per join-matrix entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResolvedPlan {
    /// The join pairs in matrix row-major order; `PairId` indexes this.
    pub pairs: Vec<JoinPair>,
}

impl ResolvedPlan {
    /// Number of join pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the plan has no join pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Pair by id.
    pub fn pair(&self, id: PairId) -> &JoinPair {
        &self.pairs[id.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> JoinQuery {
        // Mirrors the running example: 4 pressure streams, 2 humidity
        // streams, joined by region key.
        let left = vec![
            StreamSpec::keyed(NodeId(0), 25.0, 1),
            StreamSpec::keyed(NodeId(1), 25.0, 1),
            StreamSpec::keyed(NodeId(2), 25.0, 2),
            StreamSpec::keyed(NodeId(3), 25.0, 2),
        ];
        let right = vec![
            StreamSpec::keyed(NodeId(4), 25.0, 1),
            StreamSpec::keyed(NodeId(5), 25.0, 2),
        ];
        JoinQuery::by_key(left, right, NodeId(6))
    }

    #[test]
    fn resolve_creates_one_replica_per_matrix_entry() {
        let q = sample_query();
        let plan = q.resolve();
        // T × W decomposes into 4 region-aligned sub-joins (Fig. 1 / §3.1).
        assert_eq!(plan.len(), 4);
        // Row-major: (t1,w1), (t2,w1), (t3,w2), (t4,w2).
        assert_eq!(plan.pairs[0].left, 0);
        assert_eq!(plan.pairs[0].right, 0);
        assert_eq!(plan.pairs[2].left, 2);
        assert_eq!(plan.pairs[2].right, 1);
        // Ids are dense.
        for (i, p) in plan.pairs.iter().enumerate() {
            assert_eq!(p.id.idx(), i);
        }
    }

    #[test]
    fn required_capacity_sums_input_rates() {
        let q = sample_query();
        let plan = q.resolve();
        assert_eq!(q.required_capacity(&plan.pairs[0]), 50.0);
        assert_eq!(q.output_rate(&plan.pairs[0]), 50.0);
        let q2 = sample_query().with_selectivity(0.5);
        let plan2 = q2.resolve();
        assert_eq!(q2.output_rate(&plan2.pairs[0]), 25.0);
    }

    #[test]
    fn dense_query_creates_full_cross() {
        let left = vec![
            StreamSpec::new(NodeId(0), 1.0),
            StreamSpec::new(NodeId(1), 2.0),
        ];
        let right = vec![StreamSpec::new(NodeId(2), 3.0)];
        let q = JoinQuery::dense(left, right, NodeId(3));
        assert_eq!(q.resolve().len(), 2);
        assert_eq!(q.total_input_rate(), 6.0);
    }

    #[test]
    #[should_panic(expected = "invalid selectivity")]
    fn negative_selectivity_rejected() {
        let _ = sample_query().with_selectivity(-1.0);
    }

    /// `by_key(..).resolve()` over mixed, repeated and missing keys equals
    /// a brute-force L×R enumeration in row-major order, pair ids included.
    #[test]
    fn by_key_resolve_matches_brute_force_enumeration() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..60 {
            let (nl, nr) = (rng.gen_range(0..9usize), rng.gen_range(0..9usize));
            let mut stream = |i: usize| {
                // Keys from a small range so they repeat; some streams
                // carry none.
                match rng.gen_range(0..6u32) {
                    0 => StreamSpec::new(NodeId(i as u32), 1.0),
                    k => StreamSpec::keyed(NodeId(i as u32), 1.0, k),
                }
            };
            let left: Vec<StreamSpec> = (0..nl).map(&mut stream).collect();
            let right: Vec<StreamSpec> = (nl..nl + nr).map(&mut stream).collect();
            let mut want = Vec::new();
            for (l, ls) in left.iter().enumerate() {
                for (r, rs) in right.iter().enumerate() {
                    if ls.key.is_some() && ls.key == rs.key {
                        want.push(JoinPair {
                            id: PairId(want.len() as u32),
                            left: l as u32,
                            right: r as u32,
                        });
                    }
                }
            }
            let q = JoinQuery::by_key(left, right, NodeId(99));
            assert_eq!(q.resolve().pairs, want);
        }
    }
}
