//! SpMM with bitBSR on tensor cores — the first of the paper's stated
//! future-work extensions ("we aim to explore the adaptation of bitBSR for
//! other sparse operations on dense matrix units, including SpMM and
//! SDDMM").
//!
//! `C[m×n] = A_sparse × B_dense`. The kernel keeps Spaden's diagonal
//! two-block packing, but the B fragment now carries a real 8×8 tile of
//! the dense operand instead of a broadcast vector, so all 128 diagonal
//! accumulator elements are useful outputs: where SpMV extracts 16 values
//! per MMA, SpMM extracts 128 — the utilisation jump that makes SpMM the
//! friendlier tensor-core workload (§6: "The presence of dense matrix in
//! SpMM ... simplifies the adaptation of tensor cores").

use crate::abft::AbftChecksums;
use crate::bitbsr::BitBsr;
use crate::decode::{decode_matrix_block, decode_matrix_values, lane_vector_positions};
use crate::engine::{prepare_validated, timed, EngineError, PrepStats};
use crate::kernel_cuda::CUDA_BLOCK_PRODUCT_CYCLES;
use crate::kernel_tc::ABFT_MAX_RETRIES;
use spaden_gpusim::exec::{WarpCtx, WARP_SIZE};
use spaden_gpusim::fragment::{FragKind, Fragment};
use spaden_gpusim::half::F16;
use spaden_gpusim::memory::DeviceBuffer;
use spaden_gpusim::{estimate_time, Gpu, KernelCounters, SimTime};
use spaden_sparse::csr::Csr;
use spaden_sparse::dense::Dense;
use spaden_sparse::gen::BLOCK_DIM;

/// Result of one simulated SpMM.
#[derive(Debug, Clone)]
pub struct SpmmRun {
    /// The dense product `C = A × B`.
    pub c: Dense,
    /// Merged launch counters.
    pub counters: KernelCounters,
    /// Modelled execution time.
    pub time: SimTime,
}

impl SpmmRun {
    /// GFLOP/s at `2 · nnz(A) · ncols(B)` useful FLOPs.
    pub fn gflops(&self, nnz: usize, n: usize) -> f64 {
        2.0 * nnz as f64 * n as f64 / self.time.seconds / 1e9
    }
}

/// Spaden-style SpMM engine: bitBSR matrix, dense multiplicand.
pub struct SpadenSpmmEngine {
    format: BitBsr,
    abft: AbftChecksums,
    prep: PrepStats,
    d_block_row_ptr: DeviceBuffer<u32>,
    d_block_cols: DeviceBuffer<u32>,
    d_bitmaps: DeviceBuffer<u64>,
    d_block_offsets: DeviceBuffer<u32>,
    d_values: DeviceBuffer<F16>,
}

impl SpadenSpmmEngine {
    /// Converts and uploads (same bitBSR as SpMV — one format, many ops),
    /// and precomputes the block-row ABFT checksums that verify each
    /// output column of a batched sweep.
    pub fn prepare(gpu: &Gpu, csr: &Csr) -> Self {
        let ((format, abft), seconds) = timed(|| {
            let format = BitBsr::from_csr(csr);
            let abft = AbftChecksums::build(&format);
            (format, abft)
        });
        let prep = PrepStats { seconds, device_bytes: format.bytes() as u64 };
        SpadenSpmmEngine {
            d_block_row_ptr: gpu.alloc(format.block_row_ptr.clone()),
            d_block_cols: gpu.alloc(format.block_cols.clone()),
            d_bitmaps: gpu.alloc(format.bitmaps.clone()),
            d_block_offsets: gpu.alloc(format.block_offsets.clone()),
            d_values: gpu.alloc(format.values.clone()),
            format,
            abft,
            prep,
        }
    }

    /// Validates the matrix, then [`SpadenSpmmEngine::prepare`]s — same
    /// fallible lifecycle as every SpMV engine.
    pub fn try_prepare(gpu: &Gpu, csr: &Csr) -> Result<Self, EngineError> {
        prepare_validated(gpu, csr, Self::prepare)
    }

    /// Preprocessing stats.
    pub fn prep(&self) -> PrepStats {
        self.prep
    }

    /// The converted format.
    pub fn format(&self) -> &BitBsr {
        &self.format
    }

    /// The precomputed per-block-row ABFT checksums (shared across output
    /// columns — column `j` of `C` is `A · B[:, j]`).
    pub fn abft(&self) -> &AbftChecksums {
        &self.abft
    }

    /// Matrix rows (rows of `C`).
    pub fn nrows(&self) -> usize {
        self.format.nrows
    }

    /// Matrix columns (required rows of `B`).
    pub fn ncols(&self) -> usize {
        self.format.ncols
    }

    /// Strict shape validation of the dense operand: `B` must be
    /// non-empty, have exactly `A`'s column count as its row count, and
    /// carry a consistent backing buffer.
    fn validate_b(&self, b: &Dense) -> Result<(), EngineError> {
        if b.rows != self.format.ncols {
            return Err(EngineError::ShapeMismatch { expected: self.format.ncols, got: b.rows });
        }
        if b.cols == 0 {
            return Err(EngineError::Validation("B must have at least one column".into()));
        }
        if b.data.len() != b.rows * b.cols {
            return Err(EngineError::Validation(format!(
                "B backing buffer has {} values for a {}x{} shape",
                b.data.len(),
                b.rows,
                b.cols
            )));
        }
        Ok(())
    }

    /// Fills one B-fragment portion with the 8×8 dense tile of `b` for
    /// block-column `bc` and output-column tile `tile` (columns
    /// `tile*8 .. tile*8+8`). Two strided gathers (even / odd tile rows).
    fn fill_b_tile(
        &self,
        ctx: &mut WarpCtx,
        d_b: &DeviceBuffer<f32>,
        (b_rows, b_cols): (usize, usize),
        (bc, tile): (usize, usize),
        b_frag: &mut Fragment,
        reg_base: usize,
    ) {
        ctx.ops(3); // address arithmetic
        let mut idx0 = [None; WARP_SIZE];
        let mut idx1 = [None; WARP_SIZE];
        for l in 0..WARP_SIZE {
            let rr = 2 * (l % 4); // tile row pair
            let cc = l / 4; // tile column
            let col = tile * BLOCK_DIM + cc;
            let row0 = bc * BLOCK_DIM + rr;
            if col < b_cols {
                if row0 < b_rows {
                    idx0[l] = Some((row0 * b_cols + col) as u32);
                }
                if row0 + 1 < b_rows {
                    idx1[l] = Some(((row0 + 1) * b_cols + col) as u32);
                }
            }
        }
        let v0 = ctx.gather(d_b, &idx0);
        let v1 = ctx.gather(d_b, &idx1);
        for l in 0..WARP_SIZE {
            b_frag.write_reg(l, reg_base, if idx0[l].is_some() { v0[l] } else { 0.0 });
            b_frag.write_reg(l, reg_base + 1, if idx1[l].is_some() { v1[l] } else { 0.0 });
        }
        ctx.ops(2);
    }

    /// Executes `C = A × B` on the simulated GPU. Panics on malformed
    /// operands — serving paths use [`SpadenSpmmEngine::try_run`].
    pub fn run(&self, gpu: &Gpu, b: &Dense) -> SpmmRun {
        self.try_run(gpu, b).expect("SpMM operands must be well-formed")
    }

    /// Fallible launch: validates the dense operand ([`EngineError`]
    /// instead of a panic), then executes `C = A × B`.
    pub fn try_run(&self, gpu: &Gpu, b: &Dense) -> Result<SpmmRun, EngineError> {
        self.validate_b(b)?;
        Ok(self.run_kernel(gpu, b))
    }

    /// ABFT-checked SpMM with the same recompute-ladder discipline as the
    /// SpMV rung: (1) the tensor-core sweep runs; (2) every output
    /// *column* is verified block-row-wise against the checksums (column
    /// `j` of `C` is `A · B[:, j]`, so the SpMV sums apply unchanged);
    /// (3) failing `(column, block-row)` cells — a fault localised to 8
    /// output rows of one request's response — are recomputed on the
    /// scalar CUDA-core path (itself subject to injection); (4) after
    /// [`ABFT_MAX_RETRIES`] rounds that still fail,
    /// [`EngineError::CorrectionExhausted`] is returned instead of
    /// silently wrong columns. Recovery launches merge into the returned
    /// counters, so the modelled time includes the cost of recovery.
    pub fn try_run_checked(&self, gpu: &Gpu, b: &Dense) -> Result<SpmmRun, EngineError> {
        let mut run = self.try_run(gpu, b)?;
        let mut bad = self.abft.verify_spmm(b, &run.c);
        let mut retries = 0;
        while !bad.is_empty() {
            let cells: Vec<(u32, u32)> = bad
                .iter()
                .flat_map(|(j, brs)| brs.iter().map(|&br| (br as u32, *j as u32)))
                .collect();
            run.counters.faults_observed += cells.len() as u64;
            if retries == ABFT_MAX_RETRIES {
                return Err(EngineError::CorrectionExhausted {
                    block_rows: cells.len(),
                    retries,
                });
            }
            retries += 1;
            let c = self.recompute_cells(gpu, b, &cells, &mut run.c);
            run.counters.merge(&c);
            bad = bad
                .into_iter()
                .filter_map(|(j, brs)| {
                    let still: Vec<usize> = brs
                        .into_iter()
                        .filter(|&br| !self.abft.check_block_row_column(br, b, &run.c, j))
                        .collect();
                    (!still.is_empty()).then_some((j, still))
                })
                .collect();
        }
        run.time = estimate_time(&run.counters, &gpu.config);
        Ok(run)
    }

    /// Recomputes the given `(block-row, column)` cells on CUDA cores (the
    /// `Spaden w/o TC` compute step, one warp per cell) and splices the
    /// refreshed 8-row column segments into `c`. Returns the launch's
    /// counters.
    fn recompute_cells(
        &self,
        gpu: &Gpu,
        b: &Dense,
        cells: &[(u32, u32)],
        c: &mut Dense,
    ) -> KernelCounters {
        let flat: Vec<u32> = cells.iter().flat_map(|&(br, j)| [br, j]).collect();
        let d_cells = gpu.alloc(flat);
        let d_b = gpu.alloc(b.data.clone());
        let out = gpu.alloc_output(cells.len() * BLOCK_DIM);
        let nrows = self.format.nrows;
        let (b_rows, b_cols) = (b.rows, b.cols);

        let counters = gpu.launch(cells.len(), |ctx| {
            let br = ctx.read(&d_cells, 2 * ctx.warp_id) as usize;
            let j = ctx.read(&d_cells, 2 * ctx.warp_id + 1) as usize;
            let lo = ctx.read(&self.d_block_row_ptr, br) as usize;
            let hi = ctx.read(&self.d_block_row_ptr, br + 1) as usize;
            let mut row_acc = [0.0f32; BLOCK_DIM];
            ctx.ops(2);
            for k in lo..hi {
                ctx.ops(2);
                let bc = ctx.read(&self.d_block_cols, k) as usize;
                let a = decode_matrix_block(
                    ctx,
                    &self.d_bitmaps,
                    &self.d_block_offsets,
                    &self.d_values,
                    k,
                );
                // Column j of B for this block-column, in the same
                // per-lane pair layout as the vector segment decode, so
                // the lanes line up with the decoded block values.
                ctx.ops(3);
                let mut idx1 = [None; WARP_SIZE];
                let mut idx2 = [None; WARP_SIZE];
                for lid in 0..WARP_SIZE {
                    let (p1, p2) = lane_vector_positions(lid);
                    let r1 = bc * BLOCK_DIM + p1;
                    let r2 = bc * BLOCK_DIM + p2;
                    if r1 < b_rows {
                        idx1[lid] = Some((r1 * b_cols + j) as u32);
                    }
                    if r2 < b_rows {
                        idx2[lid] = Some((r2 * b_cols + j) as u32);
                    }
                }
                let v1 = ctx.gather(&d_b, &idx1);
                let v2 = ctx.gather(&d_b, &idx2);
                ctx.ops(CUDA_BLOCK_PRODUCT_CYCLES);
                let mut partial = [0.0f32; WARP_SIZE];
                for lid in 0..WARP_SIZE {
                    let b1 = if idx1[lid].is_some() { v1[lid] } else { 0.0 };
                    let b2 = if idx2[lid].is_some() { v2[lid] } else { 0.0 };
                    partial[lid] = a[lid].0 * F16::round_f32(b1) + a[lid].1 * F16::round_f32(b2);
                }
                let sums = ctx.segmented_reduce_sum(&partial, 4);
                ctx.ops(1);
                for dr in 0..BLOCK_DIM {
                    row_acc[dr] += sums[4 * dr];
                }
            }
            ctx.ops(2);
            let mut writes = [None; WARP_SIZE];
            for dr in 0..BLOCK_DIM {
                if br * BLOCK_DIM + dr < nrows {
                    writes[dr] = Some(((ctx.warp_id * BLOCK_DIM + dr) as u32, row_acc[dr]));
                }
            }
            ctx.scatter(&out, &writes);
        });

        let fresh = out.to_vec();
        for (i, &(br, j)) in cells.iter().enumerate() {
            for dr in 0..BLOCK_DIM {
                let r = br as usize * BLOCK_DIM + dr;
                if r < nrows {
                    c.set(r, j as usize, fresh[i * BLOCK_DIM + dr]);
                }
            }
        }
        counters
    }

    /// The tensor-core sweep itself (operands already validated).
    fn run_kernel(&self, gpu: &Gpu, b: &Dense) -> SpmmRun {
        let n = b.cols;
        let d_b = gpu.alloc(b.data.clone());
        let out = gpu.alloc_output(self.format.nrows * n);
        let block_rows = self.format.block_rows;
        let n_pairs = block_rows.div_ceil(2);
        let col_tiles = n.div_ceil(BLOCK_DIM);
        let nrows = self.format.nrows;

        // Warp grid: block-row pairs × output column tiles.
        let counters = gpu.launch(n_pairs * col_tiles, |ctx| {
            let pair = ctx.warp_id / col_tiles;
            let tile = ctx.warp_id % col_tiles;
            let br0 = 2 * pair;
            let br1 = br0 + 1;
            let lo0 = ctx.read(&self.d_block_row_ptr, br0) as usize;
            let hi0 = ctx.read(&self.d_block_row_ptr, br0 + 1) as usize;
            let hi1 = if br1 < block_rows {
                ctx.read(&self.d_block_row_ptr, br1 + 1) as usize
            } else {
                hi0
            };
            let (len0, len1) = (hi0 - lo0, hi1 - hi0);

            let mut a_frag = Fragment::new(FragKind::MatrixA);
            let mut b_frag = Fragment::new(FragKind::MatrixB);
            let mut acc = Fragment::new(FragKind::Accumulator);
            ctx.ops(3);

            for i in 0..len0.max(len1) {
                ctx.ops(2);
                for (cond, k, reg_base) in
                    [(i < len0, lo0 + i, 0usize), (i < len1, hi0 + i, 6usize)]
                {
                    if cond {
                        let bc = ctx.read(&self.d_block_cols, k) as usize;
                        let a = decode_matrix_values(
                            ctx,
                            &self.d_bitmaps,
                            &self.d_block_offsets,
                            &self.d_values,
                            k,
                        );
                        a_frag.write_f16_pairs(reg_base, &a);
                        ctx.ops(2);
                        self.fill_b_tile(ctx, &d_b, (b.rows, n), (bc, tile), &mut b_frag, reg_base);
                    } else {
                        a_frag.write_f16_pairs(reg_base, &[F16::ZERO; 2 * WARP_SIZE]);
                        ctx.ops(1);
                    }
                }
                ctx.mma_16x16x16(&mut acc, &a_frag, &b_frag);
            }

            // Extract both diagonal portions: 4 coalesced-ish scatters of
            // 32 elements each (TL reg 0/1 for br0, BR reg 6/7 for br1).
            ctx.ops(4);
            for (br, regs) in [(br0, [0usize, 1]), (br1, [6usize, 7])] {
                if br >= block_rows {
                    continue;
                }
                for reg in regs {
                    let mut writes = [None; WARP_SIZE];
                    for l in 0..WARP_SIZE {
                        let rr = l / 4;
                        let cc = 2 * (l % 4) + (reg % 2);
                        let row = br * BLOCK_DIM + rr;
                        let col = tile * BLOCK_DIM + cc;
                        if row < nrows && col < n {
                            writes[l] =
                                Some(((row * n + col) as u32, acc.read_reg(l, reg)));
                        }
                    }
                    ctx.scatter(&out, &writes);
                }
            }
        });

        let c = Dense { rows: self.format.nrows, cols: n, data: out.to_vec() };
        let time = estimate_time(&counters, &gpu.config);
        SpmmRun { c, counters, time }
    }
}

/// CUDA-core CSR SpMM baseline (row-per-warp, lane-per-output-column) for
/// the extension bench.
pub struct CsrSpmmEngine {
    prep: PrepStats,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    d_row_ptr: DeviceBuffer<u32>,
    d_col_idx: DeviceBuffer<u32>,
    d_values: DeviceBuffer<f32>,
}

impl CsrSpmmEngine {
    /// Uploads the CSR arrays.
    pub fn prepare(gpu: &Gpu, csr: &Csr) -> Self {
        let ((rp, ci, v), seconds) =
            timed(|| (csr.row_ptr.clone(), csr.col_idx.clone(), csr.values.clone()));
        CsrSpmmEngine {
            prep: PrepStats { seconds, device_bytes: csr.bytes() as u64 },
            nrows: csr.nrows,
            ncols: csr.ncols,
            nnz: csr.nnz(),
            d_row_ptr: gpu.alloc(rp),
            d_col_idx: gpu.alloc(ci),
            d_values: gpu.alloc(v),
        }
    }

    /// Validates the matrix, then [`CsrSpmmEngine::prepare`]s.
    pub fn try_prepare(gpu: &Gpu, csr: &Csr) -> Result<Self, EngineError> {
        prepare_validated(gpu, csr, Self::prepare)
    }

    /// Preprocessing stats.
    pub fn prep(&self) -> PrepStats {
        self.prep
    }

    /// Matrix nonzeros.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Executes `C = A × B`. Panics on malformed operands — fallible
    /// callers use [`CsrSpmmEngine::try_run`].
    pub fn run(&self, gpu: &Gpu, b: &Dense) -> SpmmRun {
        self.try_run(gpu, b).expect("SpMM operands must be well-formed")
    }

    /// Fallible launch with the same strict `Dense` shape validation as
    /// the Spaden engine: one warp per row, lanes over output columns.
    pub fn try_run(&self, gpu: &Gpu, b: &Dense) -> Result<SpmmRun, EngineError> {
        if b.rows != self.ncols {
            return Err(EngineError::ShapeMismatch { expected: self.ncols, got: b.rows });
        }
        if b.cols == 0 {
            return Err(EngineError::Validation("B must have at least one column".into()));
        }
        if b.data.len() != b.rows * b.cols {
            return Err(EngineError::Validation(format!(
                "B backing buffer has {} values for a {}x{} shape",
                b.data.len(),
                b.rows,
                b.cols
            )));
        }
        let n = b.cols;
        let d_b = gpu.alloc(b.data.clone());
        let out = gpu.alloc_output(self.nrows * n);
        let nrows = self.nrows;

        let counters = gpu.launch(nrows, |ctx| {
            let r = ctx.warp_id;
            let lo = ctx.read(&self.d_row_ptr, r) as usize;
            let hi = ctx.read(&self.d_row_ptr, r + 1) as usize;
            ctx.ops(2);
            let mut acc = [0.0f32; WARP_SIZE];
            for e in lo..hi {
                let col = ctx.read(&self.d_col_idx, e) as usize;
                let val = ctx.read(&self.d_values, e);
                // Lanes cover output columns: coalesced row read of B.
                let mut idx = [None; WARP_SIZE];
                for l in 0..n.min(WARP_SIZE) {
                    idx[l] = Some((col * n + l) as u32);
                }
                let brow = ctx.gather(&d_b, &idx);
                ctx.ops(2);
                for l in 0..n.min(WARP_SIZE) {
                    acc[l] += val * brow[l];
                }
            }
            ctx.ops(1);
            let mut writes = [None; WARP_SIZE];
            for l in 0..n.min(WARP_SIZE) {
                writes[l] = Some(((r * n + l) as u32, acc[l]));
            }
            ctx.scatter(&out, &writes);
        });

        let c = Dense { rows: self.nrows, cols: n, data: out.to_vec() };
        let time = estimate_time(&counters, &gpu.config);
        Ok(SpmmRun { c, counters, time })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_gpusim::GpuConfig;
    use spaden_sparse::dense::spmm_reference;
    use spaden_sparse::gen::{self, FillDist, Placement};

    fn check_spmm(csr: &Csr, n: usize) {
        let b = Dense::from_fn(csr.ncols, n, |r, c| ((r * 3 + c * 7) % 9) as f32 * 0.25 - 1.0);
        let gpu = Gpu::new(GpuConfig::l40());
        let run = SpadenSpmmEngine::prepare(&gpu, csr).run(&gpu, &b);
        let want = spmm_reference(csr, &b).unwrap();
        assert_eq!(run.c.rows, want.rows);
        assert_eq!(run.c.cols, want.cols);
        for r in 0..want.rows {
            for c in 0..want.cols {
                let (a, w) = (run.c.get(r, c), want.get(r, c));
                let tol = csr.row_nnz(r) as f32 * 4.0 * 2.0f32.powi(-10) + 1e-3;
                assert!((a - w).abs() <= tol, "({r},{c}): {a} vs {w}");
            }
        }
    }

    #[test]
    fn matches_reference_blocked_n8() {
        let csr = gen::generate_blocked(
            128,
            90,
            Placement::Banded { bandwidth: 4 },
            &FillDist::Uniform { lo: 1, hi: 64 },
            71,
        );
        check_spmm(&csr, 8);
    }

    #[test]
    fn matches_reference_random_n16() {
        check_spmm(&gen::random_uniform(100, 90, 1200, 73), 16);
    }

    #[test]
    fn matches_reference_ragged_n5() {
        // n not a multiple of the 8-wide tile.
        check_spmm(&gen::random_uniform(70, 110, 900, 75), 5);
    }

    #[test]
    fn matches_reference_n1_degenerates_to_spmv() {
        check_spmm(&gen::random_uniform(60, 60, 500, 77), 1);
    }

    #[test]
    fn csr_spmm_baseline_matches_reference_exactly() {
        let csr = gen::random_uniform(90, 80, 1000, 79);
        let b = Dense::from_fn(80, 12, |r, c| ((r + c) % 5) as f32);
        let gpu = Gpu::new(GpuConfig::l40());
        let run = CsrSpmmEngine::prepare(&gpu, &csr).run(&gpu, &b);
        let want = spmm_reference(&csr, &b).unwrap();
        for i in 0..want.data.len() {
            assert!((run.c.data[i] - want.data[i]).abs() <= 1e-4 * want.data[i].abs().max(1.0));
        }
    }

    #[test]
    fn spmm_amortises_decode_over_columns() {
        // Same matrix traffic serves 8 output columns: GFLOPS at n=8 must
        // clearly beat 8 independent SpMVs' effective rate.
        let csr = gen::generate_blocked(
            512,
            400,
            Placement::Scattered,
            &FillDist::Uniform { lo: 8, hi: 40 },
            81,
        );
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = SpadenSpmmEngine::prepare(&gpu, &csr);
        let b8 = Dense::from_fn(512, 8, |r, c| ((r + c) % 3) as f32);
        let run8 = eng.run(&gpu, &b8);
        let spmv = crate::SpadenEngine::prepare(&gpu, &csr);
        let x = b8.column(0);
        let run1 = crate::SpmvEngine::run(&spmv, &gpu, &x);
        let spmm_flops_rate = run8.gflops(csr.nnz(), 8);
        let spmv_rate = run1.gflops(csr.nnz());
        assert!(
            spmm_flops_rate > 2.0 * spmv_rate,
            "spmm {spmm_flops_rate:.1} vs spmv {spmv_rate:.1} GFLOPS"
        );
    }

    #[test]
    fn try_run_rejects_malformed_operands_with_typed_errors() {
        let csr = gen::random_uniform(64, 48, 400, 85);
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = SpadenSpmmEngine::try_prepare(&gpu, &csr).unwrap();
        match eng.try_run(&gpu, &Dense::zeros(47, 4)) {
            Err(EngineError::ShapeMismatch { expected: 48, got: 47 }) => {}
            other => panic!("expected ShapeMismatch, got {:?}", other.map(|r| r.c.rows)),
        }
        match eng.try_run(&gpu, &Dense { rows: 48, cols: 0, data: vec![] }) {
            Err(EngineError::Validation(msg)) => assert!(msg.contains("column"), "{msg}"),
            other => panic!("expected Validation, got {:?}", other.map(|r| r.c.rows)),
        }
        match eng.try_run(&gpu, &Dense { rows: 48, cols: 2, data: vec![0.0; 5] }) {
            Err(EngineError::Validation(msg)) => assert!(msg.contains("backing"), "{msg}"),
            other => panic!("expected Validation, got {:?}", other.map(|r| r.c.rows)),
        }
        let base = CsrSpmmEngine::try_prepare(&gpu, &csr).unwrap();
        assert!(matches!(
            base.try_run(&gpu, &Dense::zeros(47, 4)),
            Err(EngineError::ShapeMismatch { expected: 48, got: 47 })
        ));
        assert!(matches!(
            base.try_run(&gpu, &Dense { rows: 48, cols: 0, data: vec![] }),
            Err(EngineError::Validation(_))
        ));
    }

    #[test]
    fn checked_run_is_bit_identical_without_faults() {
        let csr = gen::generate_blocked(
            256,
            160,
            Placement::Banded { bandwidth: 6 },
            &FillDist::Uniform { lo: 1, hi: 64 },
            233,
        );
        let b = Dense::from_fn(256, 6, |r, c| ((r * 5 + c * 13) % 17) as f32 * 0.125 - 1.0);
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = SpadenSpmmEngine::prepare(&gpu, &csr);
        let plain = eng.run(&gpu, &b);
        let checked = eng.try_run_checked(&gpu, &b).expect("clean gpu must verify");
        assert_eq!(plain.c.data, checked.c.data, "verification must not perturb a clean run");
        assert_eq!(checked.counters.faults_observed, 0);
        assert_eq!(checked.counters.faults_injected, 0);
    }

    #[test]
    fn checked_run_corrects_fragment_faults_per_column() {
        use spaden_gpusim::FaultConfig;
        let csr = gen::generate_blocked(
            512,
            300,
            Placement::Scattered,
            &FillDist::Uniform { lo: 8, hi: 40 },
            235,
        );
        let b = Dense::from_fn(512, 8, |r, c| ((r * 37 + 11 * (c + 1)) % 64) as f32 / 32.0 - 1.0);
        let mut cfg = GpuConfig::l40();
        // In SpMM the whole accumulator tile is extracted, so every
        // corrupted MMA is observable in some output column.
        cfg.faults =
            FaultConfig { seed: 99, fragment_corrupt_rate: 0.2, ..FaultConfig::disabled() };
        let gpu = Gpu::new(cfg);
        let eng = SpadenSpmmEngine::prepare(&gpu, &csr);
        let run = eng.try_run_checked(&gpu, &b).expect("correction must converge");
        assert!(run.counters.faults_injected > 0);
        assert!(run.counters.faults_observed > 0, "full-tile extraction sees the flips");
        let want = spmm_reference(&csr, &b).unwrap();
        for r in 0..want.rows {
            for c in 0..want.cols {
                let (a, w) = (run.c.get(r, c), want.get(r, c));
                let tol = 1e-3_f32.max(w.abs() * 1e-3);
                assert!((a - w).abs() <= tol, "({r},{c}): corrected {a} vs reference {w}");
            }
        }
    }

    #[test]
    fn checked_run_exhausts_retries_under_saturating_faults() {
        use spaden_gpusim::FaultConfig;
        let csr = gen::random_uniform(128, 128, 2000, 237);
        let b = Dense::from_fn(128, 4, |r, c| ((r + c) % 7) as f32 - 3.0);
        let mut cfg = GpuConfig::l40();
        cfg.faults = FaultConfig { seed: 7, mem_bit_flip_rate: 1.0, ..FaultConfig::disabled() };
        let gpu = Gpu::new(cfg);
        let eng = SpadenSpmmEngine::prepare(&gpu, &csr);
        match eng.try_run_checked(&gpu, &b) {
            Err(EngineError::CorrectionExhausted { block_rows, retries }) => {
                assert!(block_rows > 0);
                assert_eq!(retries, ABFT_MAX_RETRIES);
            }
            other => panic!("expected CorrectionExhausted, got {:?}", other.map(|r| r.c.rows)),
        }
    }

    #[test]
    fn utilisation_128_of_256_per_mma() {
        // MMA count equals the SpMV kernel's per column-tile: for n=8 one
        // tile, so identical MMAs but 8x the useful outputs.
        let csr = gen::generate_blocked(
            128,
            100,
            Placement::Scattered,
            &FillDist::Uniform { lo: 4, hi: 20 },
            83,
        );
        let gpu = Gpu::new(GpuConfig::l40());
        let b = Dense::zeros(128, 8);
        let spmm = SpadenSpmmEngine::prepare(&gpu, &csr).run(&gpu, &b);
        let spmv = crate::SpmvEngine::run(
            &crate::SpadenEngine::prepare(&gpu, &csr),
            &gpu,
            &vec![0.0f32; 128],
        );
        assert_eq!(spmm.counters.mma_m16n16k16, spmv.counters.mma_m16n16k16);
    }
}
