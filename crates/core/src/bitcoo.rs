//! bitCOO: the bitmap-blocking technique applied to COO — the paper's
//! first stated future-work item ("we plan to extend the bitmap-based
//! blocking technique to support additional sparse matrix formats, such
//! as COO").
//!
//! Instead of a CSR over the block grid, every non-empty 8×8 block carries
//! its own (block-row, block-col) coordinates. That costs 4 extra bytes
//! per block but removes the row pointer and, more importantly, the
//! per-block-row work imbalance: the kernel assigns exactly two blocks to
//! every warp regardless of row structure, packs them on the fragment
//! diagonal like Spaden, and combines results with atomic adds (blocks of
//! the same block-row may land in different warps).

use crate::bitbsr::BitBsr;
use crate::decode::{decode_matrix_block, decode_vector_segment};
use crate::engine::{prepare_validated, timed, EngineError, PrepStats, SpmvEngine, SpmvRun};
use spaden_gpusim::exec::{WarpCtx, WARP_SIZE};
use spaden_gpusim::fragment::{FragKind, Fragment};
use spaden_gpusim::half::F16;
use spaden_gpusim::memory::DeviceBuffer;
use spaden_gpusim::Gpu;
use spaden_sparse::csr::Csr;
use spaden_sparse::gen::BLOCK_DIM;
use spaden_sparse::types::{SparseError, SparseResult};

/// A sparse matrix in bitCOO format: coordinate-addressed bitmap blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct BitCoo {
    /// Rows of the original matrix.
    pub nrows: usize,
    /// Columns of the original matrix.
    pub ncols: usize,
    /// Block-row index per non-empty block.
    pub block_rows_idx: Vec<u32>,
    /// Block-column index per non-empty block.
    pub block_cols_idx: Vec<u32>,
    /// Occupancy bitmap per block (LSB = top-left).
    pub bitmaps: Vec<u64>,
    /// Exclusive scan of per-block popcounts (`Bnnz + 1`).
    pub block_offsets: Vec<u32>,
    /// Packed nonzero values in f16.
    pub values: Vec<F16>,
}

impl BitCoo {
    /// Converts from CSR (via bitBSR, then expanding the row pointer).
    pub fn from_csr(csr: &Csr) -> Self {
        Self::from_bitbsr(&BitBsr::from_csr(csr))
    }

    /// Converts from bitBSR by materialising per-block row coordinates.
    pub fn from_bitbsr(b: &BitBsr) -> Self {
        let mut block_rows_idx = Vec::with_capacity(b.bnnz());
        for br in 0..b.block_rows {
            let lo = b.block_row_ptr[br] as usize;
            let hi = b.block_row_ptr[br + 1] as usize;
            block_rows_idx.extend(std::iter::repeat_n(br as u32, hi - lo));
        }
        BitCoo {
            nrows: b.nrows,
            ncols: b.ncols,
            block_rows_idx,
            block_cols_idx: b.block_cols.clone(),
            bitmaps: b.bitmaps.clone(),
            block_offsets: b.block_offsets.clone(),
            values: b.values.clone(),
        }
    }

    /// Non-empty block count.
    pub fn bnnz(&self) -> usize {
        self.bitmaps.len()
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Device footprint in bytes: one u32 more per block than bitBSR, no
    /// row pointer.
    pub fn bytes(&self) -> usize {
        self.block_rows_idx.len() * 4
            + self.block_cols_idx.len() * 4
            + self.bitmaps.len() * 8
            + self.block_offsets.len() * 4
            + self.values.len() * 2
    }

    /// Structural validation.
    pub fn validate(&self) -> SparseResult<()> {
        let n = self.bnnz();
        if self.block_rows_idx.len() != n || self.block_cols_idx.len() != n {
            return Err(SparseError::LengthMismatch { what: "block coordinate arrays".into() });
        }
        spaden_sparse::types::validate_indices(
            &self.block_rows_idx,
            self.nrows.div_ceil(BLOCK_DIM),
            "block_rows_idx",
        )?;
        spaden_sparse::types::validate_indices(
            &self.block_cols_idx,
            self.ncols.div_ceil(BLOCK_DIM),
            "block_cols_idx",
        )?;
        spaden_sparse::types::validate_offsets(&self.block_offsets, self.nnz(), "block_offsets")?;
        for (k, &bmp) in self.bitmaps.iter().enumerate() {
            if bmp.count_ones() != self.block_offsets[k + 1] - self.block_offsets[k] {
                return Err(SparseError::MalformedOffsets {
                    what: format!("block {k} popcount mismatch"),
                });
            }
        }
        Ok(())
    }
}

/// SpMV engine over bitCOO: perfectly balanced two-blocks-per-warp with
/// atomic result combination.
pub struct BitCooEngine {
    format: BitCoo,
    prep: PrepStats,
    d_block_rows: DeviceBuffer<u32>,
    d_block_cols: DeviceBuffer<u32>,
    d_bitmaps: DeviceBuffer<u64>,
    d_block_offsets: DeviceBuffer<u32>,
    d_values: DeviceBuffer<F16>,
}

impl BitCooEngine {
    /// Validating form of [`BitCooEngine::prepare`]: rejects a malformed
    /// CSR with a typed error so the engine registry can prepare any
    /// variant interchangeably from untrusted input.
    pub fn try_prepare(gpu: &Gpu, csr: &Csr) -> Result<Self, EngineError> {
        prepare_validated(gpu, csr, Self::prepare)
    }

    /// Converts and uploads.
    pub fn prepare(gpu: &Gpu, csr: &Csr) -> Self {
        let (format, seconds) = timed(|| BitCoo::from_csr(csr));
        #[cfg(debug_assertions)]
        format.validate().expect("bitCOO conversion produced valid format");
        let prep = PrepStats { seconds, device_bytes: format.bytes() as u64 };
        BitCooEngine {
            d_block_rows: gpu.alloc(format.block_rows_idx.clone()),
            d_block_cols: gpu.alloc(format.block_cols_idx.clone()),
            d_bitmaps: gpu.alloc(format.bitmaps.clone()),
            d_block_offsets: gpu.alloc(format.block_offsets.clone()),
            d_values: gpu.alloc(format.values.clone()),
            format,
            prep,
        }
    }

    /// The converted format.
    pub fn format(&self) -> &BitCoo {
        &self.format
    }
}

impl SpmvEngine for BitCooEngine {
    fn name(&self) -> &'static str {
        "Spaden bitCOO"
    }

    fn prep(&self) -> PrepStats {
        self.prep
    }

    fn nnz(&self) -> usize {
        self.format.nnz()
    }

    fn nrows(&self) -> usize {
        self.format.nrows
    }

    fn ncols(&self) -> usize {
        self.format.ncols
    }

    fn run(&self, gpu: &Gpu, x: &[f32]) -> SpmvRun {
        assert_eq!(x.len(), self.format.ncols, "x length mismatch");
        let d_x = gpu.alloc(x.to_vec());
        let y = gpu.alloc_output(self.format.nrows);
        let bnnz = self.format.bnnz();
        let nrows = self.format.nrows;
        let nwarps = bnnz.div_ceil(2);

        let counters = gpu.launch(nwarps, |ctx: &mut WarpCtx| {
            let k0 = 2 * ctx.warp_id;
            let k1 = k0 + 1;
            let mut a_frag = Fragment::new(FragKind::MatrixA);
            let mut b_frag = Fragment::new(FragKind::MatrixB);
            let mut rows = [u32::MAX; 2];
            ctx.ops(2);

            for (slot, k) in [(0usize, k0), (1usize, k1)] {
                let reg_base = 6 * slot; // TL for slot 0, BR for slot 1
                if k >= bnnz {
                    for l in 0..WARP_SIZE {
                        a_frag.write_reg(l, reg_base, 0.0);
                        a_frag.write_reg(l, reg_base + 1, 0.0);
                    }
                    ctx.ops(1);
                    continue;
                }
                rows[slot] = ctx.read(&self.d_block_rows, k);
                let bc = ctx.read(&self.d_block_cols, k) as usize;
                let a = decode_matrix_block(
                    ctx,
                    &self.d_bitmaps,
                    &self.d_block_offsets,
                    &self.d_values,
                    k,
                );
                let b = decode_vector_segment(ctx, &d_x, bc, self.format.ncols);
                for l in 0..WARP_SIZE {
                    a_frag.write_reg(l, reg_base, a[l].0);
                    a_frag.write_reg(l, reg_base + 1, a[l].1);
                    b_frag.write_reg(l, reg_base, b[l].0);
                    b_frag.write_reg(l, reg_base + 1, b[l].1);
                }
                ctx.ops(2);
            }

            let mut acc = Fragment::new(FragKind::Accumulator);
            ctx.mma_16x16x16(&mut acc, &a_frag, &b_frag);

            // Atomic combine: other warps may hold blocks of the same rows.
            ctx.ops(3);
            let mut writes = [None; WARP_SIZE];
            for lid in (0..WARP_SIZE).step_by(4) {
                if rows[0] != u32::MAX {
                    let r = rows[0] as usize * BLOCK_DIM + lid / 4;
                    if r < nrows {
                        writes[lid / 4] = Some((r as u32, acc.read_reg(lid, 0)));
                    }
                }
                if rows[1] != u32::MAX {
                    let r = rows[1] as usize * BLOCK_DIM + lid / 4;
                    if r < nrows {
                        writes[8 + lid / 4] = Some((r as u32, acc.read_reg(lid, 6)));
                    }
                }
            }
            ctx.atomic_add(&y, &writes);
        });

        SpmvRun::new(y.to_vec(), counters, gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_gpusim::GpuConfig;
    use spaden_sparse::gen::{self, FillDist, Placement};

    #[test]
    fn roundtrip_structure_from_bitbsr() {
        let csr = gen::random_uniform(120, 120, 1000, 111);
        let b = BitBsr::from_csr(&csr);
        let c = BitCoo::from_bitbsr(&b);
        assert!(c.validate().is_ok());
        assert_eq!(c.bnnz(), b.bnnz());
        assert_eq!(c.nnz(), b.nnz());
        assert_eq!(c.bitmaps, b.bitmaps);
        // Row expansion is consistent with the row pointer.
        for br in 0..b.block_rows {
            let lo = b.block_row_ptr[br] as usize;
            let hi = b.block_row_ptr[br + 1] as usize;
            for k in lo..hi {
                assert_eq!(c.block_rows_idx[k], br as u32);
            }
        }
    }

    #[test]
    fn matches_spaden_output() {
        let csr = gen::generate_blocked(
            256,
            170,
            Placement::Banded { bandwidth: 5 },
            &FillDist::Uniform { lo: 1, hi: 64 },
            113,
        );
        let x: Vec<f32> = (0..256).map(|i| ((i % 19) as f32) * 0.25 - 2.0).collect();
        let gpu = Gpu::new(GpuConfig::l40());
        let coo_run = BitCooEngine::prepare(&gpu, &csr).run(&gpu, &x);
        let bsr_run = crate::SpadenEngine::prepare(&gpu, &csr).run(&gpu, &x);
        for (r, (a, b)) in coo_run.y.iter().zip(&bsr_run.y).enumerate() {
            // Atomic combination reorders float adds across blocks.
            assert!((a - b).abs() <= 2e-3_f32.max(b.abs() * 2e-3), "row {r}: {a} vs {b}");
        }
    }

    #[test]
    fn matches_oracle_on_odd_shapes() {
        let csr = gen::random_uniform(137, 93, 1100, 115);
        let x: Vec<f32> = (0..93).map(|i| (i as f32 * 0.1).cos()).collect();
        let gpu = Gpu::new(GpuConfig::l40());
        let run = BitCooEngine::prepare(&gpu, &csr).run(&gpu, &x);
        let oracle = csr.spmv_f64(&x).unwrap();
        for (r, (a, o)) in run.y.iter().zip(&oracle).enumerate() {
            let tol = csr.row_nnz(r) as f64 * 8.0 * 2.0f64.powi(-10) + 1e-3;
            assert!(((*a as f64) - o).abs() <= tol, "row {r}: {a} vs {o}");
        }
    }

    #[test]
    fn perfectly_balanced_warps() {
        // Every warp gets exactly 2 blocks and issues exactly 1 MMA, no
        // matter how skewed the row structure is.
        let csr = gen::scale_free(512, 8000, 1.1, 117);
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = BitCooEngine::prepare(&gpu, &csr);
        let run = eng.run(&gpu, &vec![1.0f32; 512]);
        let bnnz = eng.format().bnnz() as u64;
        assert_eq!(run.counters.warps, bnnz.div_ceil(2));
        assert_eq!(run.counters.mma_m16n16k16, bnnz.div_ceil(2));
    }

    #[test]
    fn footprint_is_one_u32_per_block_over_bitbsr() {
        let csr = gen::random_uniform(256, 256, 3000, 119);
        let bsr = BitBsr::from_csr(&csr);
        let coo = BitCoo::from_csr(&csr);
        let expected =
            bsr.bytes() + 4 * bsr.bnnz() - (bsr.block_row_ptr.len()) * 4;
        assert_eq!(coo.bytes(), expected);
    }

    #[test]
    fn empty_matrix() {
        let gpu = Gpu::new(GpuConfig::l40());
        let run = BitCooEngine::prepare(&gpu, &Csr::empty(16, 16)).run(&gpu, &[0.0; 16]);
        assert_eq!(run.y, vec![0.0; 16]);
    }
}
