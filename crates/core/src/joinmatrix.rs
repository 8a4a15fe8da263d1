//! The join matrix `M` (paper §2.1).
//!
//! A binary m×n matrix over the left/right physical stream partitions:
//! `M[p][q] = 1` means left stream `p` can join with right stream `q`.
//! For predefined conditions (e.g. joins on region identifiers) the matrix
//! is known up front; when join validity is uncertain it is initialized
//! dense and pruned at runtime (§3.6). Stored row-sparse — each row keeps
//! its set columns in ascending order — so a keyed matrix costs memory in
//! its set entries, and growing it by a stream (§3.5) is constant time.

use serde::{Deserialize, Serialize};

use crate::types::StreamSpec;

/// Binary joinability matrix over left (rows) × right (columns) streams.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinMatrix {
    cols: usize,
    /// Set columns of each row, ascending.
    rows: Vec<Vec<u32>>,
}

impl JoinMatrix {
    /// An all-zero matrix.
    pub fn empty(rows: usize, cols: usize) -> Self {
        JoinMatrix {
            cols,
            rows: vec![Vec::new(); rows],
        }
    }

    /// A dense (all-ones) matrix — the initialization the paper uses when
    /// joinability is unknown in advance.
    pub fn dense(rows: usize, cols: usize) -> Self {
        let full: Vec<u32> = (0..cols as u32).collect();
        JoinMatrix {
            cols,
            rows: vec![full; rows],
        }
    }

    /// Build from stream keys: `M[p][q] = 1` iff both streams carry equal
    /// keys (e.g. the same region id). Streams without a key join nothing.
    pub fn by_key(left: &[StreamSpec], right: &[StreamSpec]) -> Self {
        // Right streams grouped by key, columns ascending within a key.
        let mut keyed: Vec<(u32, u32)> = right
            .iter()
            .enumerate()
            .filter_map(|(c, s)| s.key.map(|k| (k, c as u32)))
            .collect();
        keyed.sort_unstable();
        let rows = left
            .iter()
            .map(|l| match l.key {
                Some(lk) => {
                    let lo = keyed.partition_point(|&(k, _)| k < lk);
                    let hi = keyed.partition_point(|&(k, _)| k <= lk);
                    keyed[lo..hi].iter().map(|&(_, c)| c).collect()
                }
                None => Vec::new(),
            })
            .collect();
        JoinMatrix {
            cols: right.len(),
            rows,
        }
    }

    /// Number of rows (left streams).
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns (right streams).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether left stream `r` can join right stream `c`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(c < self.cols, "index ({r},{c}) out of bounds");
        self.rows[r].binary_search(&(c as u32)).is_ok()
    }

    /// Set or clear an entry.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        debug_assert!(c < self.cols, "index ({r},{c}) out of bounds");
        let row = &mut self.rows[r];
        match (row.binary_search(&(c as u32)), value) {
            (Err(at), true) => row.insert(at, c as u32),
            (Ok(at), false) => {
                row.remove(at);
            }
            _ => {}
        }
    }

    /// Number of set entries (= join pairs after resolution).
    pub fn count_ones(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Iterate over all set `(row, col)` entries in row-major order.
    pub fn ones(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(r, cs)| cs.iter().map(move |&c| (r, c as usize)))
    }

    /// Grow the matrix by one row (new left stream), all entries zero.
    pub fn push_row(&mut self) {
        self.rows.push(Vec::new());
    }

    /// Grow the matrix by one column (new right stream), all entries zero.
    pub fn push_col(&mut self) {
        self.cols += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_topology::NodeId;

    #[test]
    fn empty_and_dense() {
        let e = JoinMatrix::empty(3, 4);
        assert_eq!(e.count_ones(), 0);
        let d = JoinMatrix::dense(3, 4);
        assert_eq!(d.count_ones(), 12);
        assert!(d.get(2, 3));
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = JoinMatrix::empty(5, 5);
        m.set(1, 2, true);
        m.set(4, 4, true);
        assert!(m.get(1, 2));
        assert!(m.get(4, 4));
        assert!(!m.get(2, 1));
        m.set(1, 2, false);
        assert!(!m.get(1, 2));
        assert_eq!(m.count_ones(), 1);
    }

    #[test]
    fn by_key_matches_equal_keys_only() {
        let left = vec![
            StreamSpec::keyed(NodeId(0), 1.0, 1),
            StreamSpec::keyed(NodeId(1), 1.0, 2),
            StreamSpec::new(NodeId(2), 1.0), // keyless: joins nothing
        ];
        let right = vec![
            StreamSpec::keyed(NodeId(3), 1.0, 1),
            StreamSpec::keyed(NodeId(4), 1.0, 2),
        ];
        let m = JoinMatrix::by_key(&left, &right);
        assert!(m.get(0, 0));
        assert!(m.get(1, 1));
        assert!(!m.get(0, 1));
        assert!(!m.get(2, 0));
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    fn ones_iterates_row_major() {
        let mut m = JoinMatrix::empty(2, 3);
        m.set(0, 2, true);
        m.set(1, 0, true);
        let v: Vec<_> = m.ones().collect();
        assert_eq!(v, vec![(0, 2), (1, 0)]);
    }

    #[test]
    fn push_preserves_entries() {
        let mut m = JoinMatrix::empty(2, 2);
        m.set(0, 0, true);
        m.set(1, 1, true);
        m.push_row();
        m.push_col();
        assert_eq!((m.rows(), m.cols()), (3, 3));
        assert!(m.get(0, 0) && m.get(1, 1));
        assert!(!m.get(2, 2));
        assert_eq!(m.count_ones(), 2);
    }

    #[test]
    fn large_matrix_bitpacking() {
        let mut m = JoinMatrix::empty(100, 130);
        for i in 0..100 {
            m.set(i, i, true);
        }
        assert_eq!(m.count_ones(), 100);
        for i in 0..100 {
            assert!(m.get(i, i));
            assert!(!m.get(i, (i + 1) % 130) || i + 1 == i);
        }
    }

    /// Random scripts of set / clear / push_row / push_col against a dense
    /// `Vec<Vec<bool>>` model: `get`, `count_ones` and the row-major
    /// `ones()` order must all agree with the model after every step.
    #[test]
    fn matches_dense_model_under_random_scripts() {
        use rand::prelude::*;
        use rand::rngs::StdRng;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (rows, mut cols) = (rng.gen_range(0..4usize), rng.gen_range(0..4usize));
            let mut m = JoinMatrix::empty(rows, cols);
            let mut model = vec![vec![false; cols]; rows];
            for step in 0..120 {
                match rng.gen_range(0..10) {
                    0 => {
                        m.push_row();
                        model.push(vec![false; cols]);
                    }
                    1 => {
                        m.push_col();
                        cols += 1;
                        model.iter_mut().for_each(|row| row.push(false));
                    }
                    _ if !model.is_empty() && cols > 0 => {
                        let (r, c) = (rng.gen_range(0..model.len()), rng.gen_range(0..cols));
                        let v = rng.gen_range(0..3) > 0;
                        m.set(r, c, v);
                        model[r][c] = v;
                    }
                    _ => {}
                }
                assert_eq!(
                    (m.rows(), m.cols()),
                    (model.len(), cols),
                    "seed {seed} step {step}"
                );
                let want: Vec<(usize, usize)> = model
                    .iter()
                    .enumerate()
                    .flat_map(|(r, row)| {
                        row.iter()
                            .enumerate()
                            .filter_map(move |(c, &b)| b.then_some((r, c)))
                    })
                    .collect();
                assert_eq!(
                    m.ones().collect::<Vec<_>>(),
                    want,
                    "seed {seed} step {step}"
                );
                assert_eq!(m.count_ones(), want.len(), "seed {seed} step {step}");
                for (r, row) in model.iter().enumerate() {
                    for (c, &b) in row.iter().enumerate() {
                        assert_eq!(m.get(r, c), b, "seed {seed} step {step} ({r},{c})");
                    }
                }
            }
        }
    }
}
