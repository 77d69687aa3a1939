//! Blocked CSR (BSR): "a CSR with dense blocks of fixed size rather than
//! individual scalar elements" (Section 4.2). This is the stepping stone
//! between CSR and the paper's bitBSR, and the format behind the cuSPARSE
//! BSR baseline.

use crate::blockrow;
use crate::csr::Csr;
use crate::gen::BLOCK_DIM;
use crate::par;
use crate::types::{validate_offsets, SparseError, SparseResult};
use std::ops::Range;

/// BSR with square `BLOCK_DIM x BLOCK_DIM` (8×8) dense blocks.
///
/// Block values are stored row-major within each block, blocks ordered by
/// (block-row, block-col) — the layout cuSPARSE calls `bsrValA`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bsr {
    /// Rows of the original matrix.
    pub nrows: usize,
    /// Columns of the original matrix.
    pub ncols: usize,
    /// Number of block-rows (`ceil(nrows / 8)`; `Bnrow` in Table 1).
    pub block_rows: usize,
    /// Number of block-columns.
    pub block_cols_dim: usize,
    /// `block_rows + 1` offsets into `block_cols`.
    pub block_row_ptr: Vec<u32>,
    /// Block-column index per non-empty block (`Bnnz` entries, Table 1).
    pub block_cols: Vec<u32>,
    /// `Bnnz * 64` values, zeros stored explicitly — BSR's memory weakness.
    pub values: Vec<f32>,
}

impl Bsr {
    /// Converts from CSR in two linear walks over nnz-balanced runs of
    /// block-rows (see [`crate::blockrow`]): one counts each block-row's
    /// blocks, the other writes block columns and values in place, each
    /// run into its own window of the final arrays.
    pub fn from_csr(csr: &Csr) -> Self {
        let block_rows = csr.nrows.div_ceil(BLOCK_DIM);
        let block_cols_dim = csr.ncols.div_ceil(BLOCK_DIM);
        let runs = blockrow::runs(block_rows, |br| blockrow::csr_start(csr, BLOCK_DIM, br));

        let counts = blockrow::map_runs(csr, BLOCK_DIM, |run| {
            run.map(|br| blockrow::block_count(csr, br, BLOCK_DIM) as u32).collect::<Vec<_>>()
        })
        .concat();
        let block_row_ptr = crate::scan::exclusive_scan_par(&counts);
        let bnnz = *block_row_ptr.last().expect("scan output non-empty") as usize;

        const AREA: usize = BLOCK_DIM * BLOCK_DIM;
        let mut block_cols = vec![0u32; bnnz];
        let mut values = vec![0.0f32; bnnz * AREA];
        let blocks_in = |r: &Range<usize>| (block_row_ptr[r.end] - block_row_ptr[r.start]) as usize;
        let items: Vec<_> = runs
            .iter()
            .cloned()
            .zip(blockrow::split_mut(&mut block_cols, runs.iter().map(blocks_in)))
            .zip(blockrow::split_mut(&mut values, runs.iter().map(|r| blocks_in(r) * AREA)))
            .collect();
        par::for_each_task(items, |_, ((run, cols), vals)| {
            let mut k = 0;
            for br in run {
                let mut cur = u32::MAX;
                blockrow::for_each_nonzero(csr, br, BLOCK_DIM, |bc, dr, dc, v| {
                    if bc != cur {
                        cur = bc;
                        cols[k] = bc;
                        k += 1;
                    }
                    vals[(k - 1) * AREA + dr * BLOCK_DIM + dc] = v;
                });
            }
        });

        Bsr {
            nrows: csr.nrows,
            ncols: csr.ncols,
            block_rows,
            block_cols_dim,
            block_row_ptr,
            block_cols,
            values,
        }
    }

    /// Number of non-empty blocks (`Bnnz`).
    #[inline]
    pub fn bnnz(&self) -> usize {
        self.block_cols.len()
    }

    /// The 64-value dense slice of block `k`.
    #[inline]
    pub fn block(&self, k: usize) -> &[f32] {
        &self.values[k * BLOCK_DIM * BLOCK_DIM..(k + 1) * BLOCK_DIM * BLOCK_DIM]
    }

    /// Count of nonzero values actually present (excludes stored zeros).
    pub fn nnz(&self) -> usize {
        self.values.iter().filter(|&&v| v != 0.0).count()
    }

    /// Block-granular SpMV (reference for the cuSPARSE BSR baseline).
    pub fn spmv(&self, x: &[f32]) -> SparseResult<Vec<f32>> {
        if x.len() != self.ncols {
            return Err(SparseError::ShapeMismatch {
                what: format!("x.len() = {}, ncols = {}", x.len(), self.ncols),
            });
        }
        let mut y = vec![0.0f32; self.nrows];
        for br in 0..self.block_rows {
            let lo = self.block_row_ptr[br] as usize;
            let hi = self.block_row_ptr[br + 1] as usize;
            for k in lo..hi {
                let bc = self.block_cols[k] as usize;
                let blk = self.block(k);
                for dr in 0..BLOCK_DIM {
                    let r = br * BLOCK_DIM + dr;
                    if r >= self.nrows {
                        break;
                    }
                    let mut acc = 0.0f32;
                    for dc in 0..BLOCK_DIM {
                        let c = bc * BLOCK_DIM + dc;
                        if c < self.ncols {
                            acc += blk[dr * BLOCK_DIM + dc] * x[c];
                        }
                    }
                    y[r] += acc;
                }
            }
        }
        Ok(y)
    }

    /// Converts back to CSR, dropping stored zeros.
    pub fn to_csr(&self) -> Csr {
        let mut coo = crate::coo::Coo::new(self.nrows, self.ncols);
        for br in 0..self.block_rows {
            let lo = self.block_row_ptr[br] as usize;
            let hi = self.block_row_ptr[br + 1] as usize;
            for k in lo..hi {
                let bc = self.block_cols[k] as usize;
                let blk = self.block(k);
                for dr in 0..BLOCK_DIM {
                    for dc in 0..BLOCK_DIM {
                        let v = blk[dr * BLOCK_DIM + dc];
                        let (r, c) = (br * BLOCK_DIM + dr, bc * BLOCK_DIM + dc);
                        if v != 0.0 && r < self.nrows && c < self.ncols {
                            coo.push(r as u32, c as u32, v);
                        }
                    }
                }
            }
        }
        coo.to_csr()
    }

    /// Device memory footprint in bytes: block CSR structure plus dense f32
    /// block values (the "13.63 Bytes per nnz" of Figure 10b comes from
    /// these stored zeros).
    pub fn bytes(&self) -> usize {
        self.block_row_ptr.len() * 4 + self.block_cols.len() * 4 + self.values.len() * 4
    }

    /// Structural sanity check.
    pub fn validate(&self) -> SparseResult<()> {
        validate_offsets(&self.block_row_ptr, self.bnnz(), "block_row_ptr")?;
        if self.values.len() != self.bnnz() * BLOCK_DIM * BLOCK_DIM {
            return Err(SparseError::LengthMismatch {
                what: format!(
                    "values {} != bnnz {} * 64",
                    self.values.len(),
                    self.bnnz()
                ),
            });
        }
        crate::types::validate_indices(&self.block_cols, self.block_cols_dim, "block_cols")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_grid_dimensions() {
        let m = crate::gen::random_uniform(100, 50, 400, 51);
        let b = Bsr::from_csr(&m);
        assert_eq!(b.block_rows, 13);
        assert_eq!(b.block_cols_dim, 7);
        assert!(b.validate().is_ok());
    }

    #[test]
    fn roundtrip_exact() {
        let m = crate::gen::random_uniform(90, 90, 700, 53);
        assert_eq!(Bsr::from_csr(&m).to_csr(), m);
    }

    #[test]
    fn roundtrip_blocked_matrix() {
        let m = crate::gen::generate_blocked(
            256,
            120,
            crate::gen::Placement::Banded { bandwidth: 4 },
            &crate::gen::FillDist::Uniform { lo: 4, hi: 60 },
            55,
        );
        let b = Bsr::from_csr(&m);
        assert_eq!(b.to_csr(), m);
        assert_eq!(b.nnz(), m.nnz());
    }

    #[test]
    fn spmv_matches_csr() {
        let m = crate::gen::random_uniform(130, 130, 900, 57);
        let b = Bsr::from_csr(&m);
        let x: Vec<f32> = (0..130).map(|i| ((i * 7 % 13) as f32) * 0.25).collect();
        let yb = b.spmv(&x).unwrap();
        let yc = m.spmv(&x).unwrap();
        for (a, c) in yb.iter().zip(&yc) {
            assert!((a - c).abs() <= 1e-4 * c.abs().max(1.0));
        }
    }

    #[test]
    fn dense_block_matrix_fills_completely() {
        let m = crate::gen::generate_blocked(
            64,
            16,
            crate::gen::Placement::Scattered,
            &crate::gen::FillDist::Dense,
            59,
        );
        let b = Bsr::from_csr(&m);
        assert_eq!(b.bnnz(), 16);
        assert_eq!(b.nnz(), 16 * 64);
        // No padding at all: every stored value is a nonzero.
        assert_eq!(b.values.iter().filter(|&&v| v == 0.0).count(), 0);
    }

    #[test]
    fn bytes_grow_with_stored_zeros() {
        // A matrix with one element per block: BSR stores 64x the values.
        let m = crate::gen::generate_blocked(
            128,
            32,
            crate::gen::Placement::Scattered,
            &crate::gen::FillDist::Uniform { lo: 1, hi: 1 },
            61,
        );
        let b = Bsr::from_csr(&m);
        let bytes_per_nnz = b.bytes() as f64 / m.nnz() as f64;
        assert!(bytes_per_nnz > 100.0, "got {bytes_per_nnz} B/nnz");
    }

    #[test]
    fn empty_matrix() {
        let b = Bsr::from_csr(&Csr::empty(16, 16));
        assert_eq!(b.bnnz(), 0);
        assert_eq!(b.spmv(&[0.0; 16]).unwrap(), vec![0.0; 16]);
    }

    #[test]
    fn parallel_conversion_matches_table_shape() {
        // Bnrow from Table 1: raefsky3 21200 rows -> 2650 block rows.
        let m = crate::gen::random_uniform(21_200, 21_200, 10_000, 63);
        let b = Bsr::from_csr(&m);
        assert_eq!(b.block_rows, 2650);
    }
}
