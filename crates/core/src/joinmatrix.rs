//! The join matrix `M` (paper §2.1).
//!
//! A binary m×n matrix over the left/right physical stream partitions:
//! `M[p][q] = 1` means left stream `p` can join with right stream `q`.
//! For predefined conditions (e.g. joins on region identifiers) the matrix
//! is known up front; when join validity is uncertain it is initialized
//! dense and pruned at runtime (§3.6). Stored as a packed bitset so even
//! large source populations stay compact.

use serde::{Deserialize, Serialize};

use crate::types::StreamSpec;

/// Binary joinability matrix over left (rows) × right (columns) streams.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinMatrix {
    rows: usize,
    cols: usize,
    bits: Vec<u64>,
}

impl JoinMatrix {
    /// An all-zero matrix.
    pub fn empty(rows: usize, cols: usize) -> Self {
        let words = (rows * cols).div_ceil(64);
        JoinMatrix {
            rows,
            cols,
            bits: vec![0; words],
        }
    }

    /// A dense (all-ones) matrix — the initialization the paper uses when
    /// joinability is unknown in advance.
    pub fn dense(rows: usize, cols: usize) -> Self {
        let mut m = JoinMatrix::empty(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, true);
            }
        }
        m
    }

    /// Build from stream keys: `M[p][q] = 1` iff both streams carry equal
    /// keys (e.g. the same region id). Streams without a key join nothing.
    pub fn by_key(left: &[StreamSpec], right: &[StreamSpec]) -> Self {
        let mut m = JoinMatrix::empty(left.len(), right.len());
        for (r, l) in left.iter().enumerate() {
            if let Some(lk) = l.key {
                for (c, rr) in right.iter().enumerate() {
                    if rr.key == Some(lk) {
                        m.set(r, c, true);
                    }
                }
            }
        }
        m
    }

    /// Number of rows (left streams).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (right streams).
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    fn bit_index(&self, r: usize, c: usize) -> (usize, u64) {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        let idx = r * self.cols + c;
        (idx / 64, 1u64 << (idx % 64))
    }

    /// Whether left stream `r` can join right stream `c`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        let (w, mask) = self.bit_index(r, c);
        self.bits[w] & mask != 0
    }

    /// Set or clear an entry.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        let (w, mask) = self.bit_index(r, c);
        if value {
            self.bits[w] |= mask;
        } else {
            self.bits[w] &= !mask;
        }
    }

    /// Number of set entries (= join pairs after resolution).
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate over all set `(row, col)` entries in row-major order.
    pub fn ones(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.rows)
            .flat_map(move |r| (0..self.cols).filter_map(move |c| self.get(r, c).then_some((r, c))))
    }

    /// Grow the matrix by one row (new left stream), all entries zero.
    pub fn push_row(&mut self) {
        let mut next = JoinMatrix::empty(self.rows + 1, self.cols);
        for (r, c) in self.ones() {
            next.set(r, c, true);
        }
        *self = next;
    }

    /// Grow the matrix by one column (new right stream), all entries zero.
    pub fn push_col(&mut self) {
        let mut next = JoinMatrix::empty(self.rows, self.cols + 1);
        for (r, c) in self.ones() {
            next.set(r, c, true);
        }
        *self = next;
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
}
