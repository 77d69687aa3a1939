//! Block-structure analytics backing Section 5.4 (Figure 9).
//!
//! The paper classifies 8×8 blocks by their nonzero count: *sparse*
//! (nnz ≤ 32), *medium* (33–48) and *dense* (> 48), and shows that Spaden's
//! advantage over cuSPARSE BSR grows with the sparse-block ratio.

use crate::blockrow;
use crate::csr::Csr;
use crate::gen::BLOCK_DIM;

/// The paper's three block classes (Section 5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockClass {
    /// `nnz <= 32`.
    Sparse,
    /// `33 <= nnz <= 48`.
    Medium,
    /// `nnz > 48`.
    Dense,
}

impl BlockClass {
    /// Classifies a block by its nonzero count.
    pub fn of(nnz_in_block: usize) -> BlockClass {
        match nnz_in_block {
            0..=32 => BlockClass::Sparse,
            33..=48 => BlockClass::Medium,
            _ => BlockClass::Dense,
        }
    }
}

/// Distribution of block classes for one matrix (Figure 9a).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlockProfile {
    /// Number of non-empty blocks with `nnz <= 32`.
    pub sparse: usize,
    /// Number with `33 <= nnz <= 48`.
    pub medium: usize,
    /// Number with `nnz > 48`.
    pub dense: usize,
    /// Total nonzeros across all blocks.
    pub nnz: usize,
}

impl BlockProfile {
    /// Counts one non-empty block holding `nnz` nonzeros.
    pub fn add_block(&mut self, nnz: usize) {
        self.nnz += nnz;
        match BlockClass::of(nnz) {
            BlockClass::Sparse => self.sparse += 1,
            BlockClass::Medium => self.medium += 1,
            BlockClass::Dense => self.dense += 1,
        }
    }

    /// Adds another profile's counts (for example a block-row's).
    pub fn merge(&mut self, other: &BlockProfile) {
        self.sparse += other.sparse;
        self.medium += other.medium;
        self.dense += other.dense;
        self.nnz += other.nnz;
    }

    /// Removes counts that an earlier [`BlockProfile::merge`] added.
    /// Panics if `other` holds more of any class than `self`.
    pub fn unmerge(&mut self, other: &BlockProfile) {
        self.sparse -= other.sparse;
        self.medium -= other.medium;
        self.dense -= other.dense;
        self.nnz -= other.nnz;
    }

    /// Total non-empty blocks (`Bnnz`).
    pub fn total(&self) -> usize {
        self.sparse + self.medium + self.dense
    }

    /// Fraction of sparse blocks (the x-axis of Figure 9b).
    pub fn sparse_ratio(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.sparse as f64 / self.total() as f64
        }
    }

    /// Fraction of medium blocks.
    pub fn medium_ratio(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.medium as f64 / self.total() as f64
        }
    }

    /// Fraction of dense blocks.
    pub fn dense_ratio(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.dense as f64 / self.total() as f64
        }
    }

    /// Mean nonzeros per non-empty block (`nnz / Bnnz`).
    pub fn mean_fill(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.nnz as f64 / self.total() as f64
        }
    }
}

/// Computes the block profile of a CSR matrix for 8×8 blocking, from the
/// linear block-row walk of [`crate::blockrow`] on nnz-balanced pool runs.
pub fn block_profile(csr: &Csr) -> BlockProfile {
    blockrow::map_runs(csr, BLOCK_DIM, |run| block_rows_profile(csr, run))
        .into_iter()
        .fold(BlockProfile::default(), |mut a, b| {
            a.merge(&b);
            a
        })
}

/// The block profile of the given 8-row block-rows of `csr` alone: what a
/// commit that touched only them subtracts before and adds after.
pub fn block_rows_profile(csr: &Csr, block_rows: impl IntoIterator<Item = usize>) -> BlockProfile {
    let mut p = BlockProfile::default();
    for br in block_rows {
        let (mut cur, mut n) = (u32::MAX, 0);
        blockrow::for_each_nonzero(csr, br, BLOCK_DIM, |bc, _, _, _| {
            if bc != cur {
                if n > 0 {
                    p.add_block(n);
                }
                (cur, n) = (bc, 0);
            }
            n += 1;
        });
        if n > 0 {
            p.add_block(n);
        }
    }
    p
}

/// Row-degree histogram with power-of-two buckets; used by the DASP
/// baseline's long/medium/short row bucketing and by dataset diagnostics.
pub fn degree_histogram(csr: &Csr) -> Vec<(usize, usize)> {
    let mut hist: Vec<usize> = vec![0; 33];
    for r in 0..csr.nrows {
        let d = csr.row_nnz(r);
        let bucket = if d == 0 { 0 } else { (usize::BITS - d.leading_zeros()) as usize };
        hist[bucket.min(32)] += 1;
    }
    hist.into_iter()
        .enumerate()
        .filter(|&(_, n)| n > 0)
        .map(|(b, n)| (if b == 0 { 0 } else { 1usize << (b - 1) }, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_blocked, FillDist, Placement};

    #[test]
    fn class_boundaries() {
        assert_eq!(BlockClass::of(1), BlockClass::Sparse);
        assert_eq!(BlockClass::of(32), BlockClass::Sparse);
        assert_eq!(BlockClass::of(33), BlockClass::Medium);
        assert_eq!(BlockClass::of(48), BlockClass::Medium);
        assert_eq!(BlockClass::of(49), BlockClass::Dense);
        assert_eq!(BlockClass::of(64), BlockClass::Dense);
    }

    #[test]
    fn profile_of_dense_block_matrix() {
        let m = generate_blocked(256, 64, Placement::Scattered, &FillDist::Dense, 71);
        let p = block_profile(&m);
        assert_eq!(p.total(), 64);
        assert_eq!(p.dense, 64);
        assert_eq!(p.sparse + p.medium, 0);
        assert_eq!(p.nnz, m.nnz());
        assert_eq!(p.mean_fill(), 64.0);
    }

    #[test]
    fn profile_matches_bsr_block_count() {
        let m = generate_blocked(
            512,
            200,
            Placement::Banded { bandwidth: 6 },
            &FillDist::Uniform { lo: 1, hi: 64 },
            73,
        );
        let b = crate::bsr::Bsr::from_csr(&m);
        let p = block_profile(&m);
        assert_eq!(p.total(), b.bnnz());
        assert_eq!(p.nnz, m.nnz());
    }

    #[test]
    fn uniform_fill_spreads_over_classes() {
        let m = generate_blocked(
            2048,
            2000,
            Placement::Scattered,
            &FillDist::Uniform { lo: 1, hi: 64 },
            75,
        );
        let p = block_profile(&m);
        // Uniform 1..=64 fill: ~50% sparse, ~25% medium, ~25% dense.
        assert!((p.sparse_ratio() - 0.5).abs() < 0.1, "sparse {}", p.sparse_ratio());
        assert!((p.medium_ratio() - 0.25).abs() < 0.1, "medium {}", p.medium_ratio());
        assert!((p.dense_ratio() - 0.25).abs() < 0.1, "dense {}", p.dense_ratio());
    }

    #[test]
    fn ratios_sum_to_one() {
        let m = crate::gen::random_uniform(300, 300, 2000, 77);
        let p = block_profile(&m);
        let s = p.sparse_ratio() + p.medium_ratio() + p.dense_ratio();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profile() {
        let p = block_profile(&crate::csr::Csr::empty(64, 64));
        assert_eq!(p.total(), 0);
        assert_eq!(p.sparse_ratio(), 0.0);
        assert_eq!(p.mean_fill(), 0.0);
    }

    #[test]
    fn degree_histogram_buckets() {
        let m = crate::gen::banded(100, 3, 4, 79);
        let h = degree_histogram(&m);
        let total: usize = h.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 100);
        assert!(h.iter().all(|&(b, _)| b <= 8), "banded degree ~4, got {h:?}");
    }

    #[test]
    fn block_row_profiles_add_up_to_the_matrix_profile() {
        let csr = crate::gen::scale_free(700, 9000, 1.8, 17);
        let whole = block_profile(&csr);
        let brs = csr.nrows.div_ceil(BLOCK_DIM);
        assert_eq!(block_rows_profile(&csr, 0..brs), whole);
        let (mut head, tail) = (block_rows_profile(&csr, 0..40), block_rows_profile(&csr, 40..brs));
        head.merge(&tail);
        assert_eq!(head, whole);
        head.unmerge(&tail);
        assert_eq!(head, block_rows_profile(&csr, 0..40));
    }
}
