//! SDDMM with bitBSR on tensor cores — the second future-work extension.
//!
//! Sampled Dense-Dense Matrix Multiplication:
//! `out_ij = pattern_ij · dot(X[i, :], Y[j, :])` for every stored position
//! `(i, j)` of a sparse pattern — the core of attention-style GNN updates.
//!
//! The bitBSR twist: the sparsity pattern is already blocked, so each
//! non-empty 8×8 block `(br, bc)` requests one 8×8 tile of `X · Yᵀ`, which
//! the tensor core produces in k-chunks of 16 (`A` = X rows of `br`, `B` =
//! Yᵀ columns of `bc`). The bitmap then masks the tile and the surviving
//! values are written **packed, in bit order** — producing a bitBSR-valued
//! result that shares the pattern's structure arrays. The format is the
//! index; no per-element coordinates are ever touched.

use crate::bitbsr::BitBsr;
use crate::engine::{timed, PrepStats};
use spaden_gpusim::exec::WARP_SIZE;
use spaden_gpusim::fragment::{FragKind, Fragment};
use spaden_gpusim::half::F16;
use spaden_gpusim::memory::DeviceBuffer;
use spaden_gpusim::{estimate_time, Gpu, KernelCounters, SimTime};
use spaden_sparse::csr::Csr;
use spaden_sparse::dense::Dense;
use spaden_sparse::gen::BLOCK_DIM;

/// Result of one simulated SDDMM.
#[derive(Debug, Clone)]
pub struct SddmmRun {
    /// Output values, packed in the pattern's bitBSR value order
    /// (block-major, bit order within a block).
    pub values: Vec<f32>,
    /// Merged launch counters.
    pub counters: KernelCounters,
    /// Modelled execution time.
    pub time: SimTime,
}

impl SddmmRun {
    /// GFLOP/s at `2 · nnz · k` useful FLOPs.
    pub fn gflops(&self, nnz: usize, k: usize) -> f64 {
        2.0 * nnz as f64 * k as f64 / self.time.seconds / 1e9
    }
}

/// bitBSR-guided SDDMM engine bound to one sparsity pattern.
pub struct SpadenSddmmEngine {
    format: BitBsr,
    prep: PrepStats,
    d_block_cols: DeviceBuffer<u32>,
    d_bitmaps: DeviceBuffer<u64>,
    d_block_offsets: DeviceBuffer<u32>,
    d_values: DeviceBuffer<F16>,
    /// Block-row id per block (expanded from the row pointer so a warp can
    /// be scheduled per block without a search).
    block_row_of: Vec<u32>,
}

impl SpadenSddmmEngine {
    /// Converts the pattern to bitBSR and uploads it.
    pub fn prepare(gpu: &Gpu, pattern: &Csr) -> Self {
        let (format, seconds) = timed(|| BitBsr::from_csr(pattern));
        let mut block_row_of = Vec::with_capacity(format.bnnz());
        for br in 0..format.block_rows {
            let lo = format.block_row_ptr[br] as usize;
            let hi = format.block_row_ptr[br + 1] as usize;
            block_row_of.extend(std::iter::repeat_n(br as u32, hi - lo));
        }
        let prep = PrepStats { seconds, device_bytes: format.bytes() as u64 };
        SpadenSddmmEngine {
            d_block_cols: gpu.alloc(format.block_cols.clone()),
            d_bitmaps: gpu.alloc(format.bitmaps.clone()),
            d_block_offsets: gpu.alloc(format.block_offsets.clone()),
            d_values: gpu.alloc(format.values.clone()),
            format,
            prep,
            block_row_of,
        }
    }

    /// Preprocessing stats.
    pub fn prep(&self) -> PrepStats {
        self.prep
    }

    /// The pattern in bitBSR form (the output shares its structure).
    pub fn format(&self) -> &BitBsr {
        &self.format
    }

    /// Executes `out = pattern ⊙ (X · Yᵀ)` on the simulated GPU. `x` is
    /// `nrows × k`, `y` is `ncols × k`; returns values packed in bitBSR
    /// order (use [`SpadenSddmmEngine::scatter_to_csr_order`] to match the
    /// pattern's CSR value order).
    pub fn run(&self, gpu: &Gpu, x: &Dense, y: &Dense) -> SddmmRun {
        assert_eq!(x.rows, self.format.nrows, "X rows must match pattern rows");
        assert_eq!(y.rows, self.format.ncols, "Y rows must match pattern cols");
        assert_eq!(x.cols, y.cols, "X and Y must share the inner dimension k");
        let k = x.cols;
        let d_x = gpu.alloc(x.data.clone());
        let d_y = gpu.alloc(y.data.clone());
        let out = gpu.alloc_output(self.format.nnz());
        let k_tiles = k.div_ceil(16).max(1);

        let counters = gpu.launch(self.format.bnnz(), |ctx| {
            let blk = ctx.warp_id;
            let br = self.block_row_of[blk] as usize;
            let bc = ctx.read(&self.d_block_cols, blk) as usize;
            let bmp = ctx.read(&self.d_bitmaps, blk);
            let base = ctx.read(&self.d_block_offsets, blk);
            ctx.ops(4);

            let mut acc = Fragment::new(FragKind::Accumulator);
            for kt in 0..k_tiles {
                // A fragment: X rows br*8 .. br*8+8 over k-chunk columns
                // (only fragment rows 0..8 used; rows 8..16 stay zero).
                let mut a_frag = Fragment::new(FragKind::MatrixA);
                let mut b_frag = Fragment::new(FragKind::MatrixB);
                ctx.ops(3);

                // X tile load: lane l covers (row rr = l/4, k pair 2*(l%4)).
                // Two registers per lane per portion pair: fragment columns
                // 0..8 are k-chunk 0..8 (regs 0,1), 8..16 are k-chunk 8..16
                // (regs 2,3).
                for half in 0..2usize {
                    let mut idx0 = [None; WARP_SIZE];
                    let mut idx1 = [None; WARP_SIZE];
                    for l in 0..WARP_SIZE {
                        let rr = l / 4;
                        let kk = kt * 16 + half * 8 + 2 * (l % 4);
                        let row = br * BLOCK_DIM + rr;
                        if row < x.rows && kk < k {
                            idx0[l] = Some((row * k + kk) as u32);
                        }
                        if row < x.rows && kk + 1 < k {
                            idx1[l] = Some((row * k + kk + 1) as u32);
                        }
                    }
                    let v0 = ctx.gather(&d_x, &idx0);
                    let v1 = ctx.gather(&d_x, &idx1);
                    for l in 0..WARP_SIZE {
                        a_frag.write_reg(l, 2 * half, if idx0[l].is_some() { v0[l] } else { 0.0 });
                        a_frag.write_reg(
                            l,
                            2 * half + 1,
                            if idx1[l].is_some() { v1[l] } else { 0.0 },
                        );
                    }
                    ctx.ops(2);
                }

                // B fragment: Yᵀ — element (k row, col cc) = Y[bc*8+cc][k].
                // TL regs 0,1 hold k-chunk rows 0..8; BL regs 4,5 hold
                // k-chunk rows 8..16 (fragment rows 8..16, columns 0..8).
                for half in 0..2usize {
                    let mut idx0 = [None; WARP_SIZE];
                    let mut idx1 = [None; WARP_SIZE];
                    for l in 0..WARP_SIZE {
                        let cc = l / 4;
                        let kk = kt * 16 + half * 8 + 2 * (l % 4);
                        let col = bc * BLOCK_DIM + cc;
                        if col < y.rows && kk < k {
                            idx0[l] = Some((col * k + kk) as u32);
                        }
                        if col < y.rows && kk + 1 < k {
                            idx1[l] = Some((col * k + kk + 1) as u32);
                        }
                    }
                    let v0 = ctx.gather(&d_y, &idx0);
                    let v1 = ctx.gather(&d_y, &idx1);
                    let reg_base = 4 * half; // TL -> 0,1; BL -> 4,5
                    for l in 0..WARP_SIZE {
                        b_frag.write_reg(l, reg_base, if idx0[l].is_some() { v0[l] } else { 0.0 });
                        b_frag.write_reg(
                            l,
                            reg_base + 1,
                            if idx1[l].is_some() { v1[l] } else { 0.0 },
                        );
                    }
                    ctx.ops(2);
                }

                ctx.mma_16x16x16(&mut acc, &a_frag, &b_frag);
            }

            // Mask by the bitmap and scale by the pattern values; write the
            // survivors packed. Lane l owns bits 2l, 2l+1 — the same
            // ownership as the SpMV decode, run in reverse.
            let (pat_idx, pat_idx2) = crate::decode::value_indices(bmp, base);
            let pv1 = ctx.gather(&self.d_values, &pat_idx);
            let pv2 = ctx.gather(&self.d_values, &pat_idx2);
            ctx.ops(6);
            let mut w1 = [None; WARP_SIZE];
            let mut w2 = [None; WARP_SIZE];
            for l in 0..WARP_SIZE {
                let (rr, cc) = (l / 4, 2 * (l % 4));
                if let Some(o) = pat_idx[l] {
                    w1[l] = Some((o, pv1[l].to_f32() * acc.get(rr, cc)));
                }
                if let Some(o) = pat_idx2[l] {
                    w2[l] = Some((o, pv2[l].to_f32() * acc.get(rr, cc + 1)));
                }
            }
            ctx.scatter(&out, &w1);
            ctx.scatter(&out, &w2);
        });

        let time = estimate_time(&counters, &gpu.config);
        SddmmRun { values: out.to_vec(), counters, time }
    }

    /// Reorders packed bitBSR-order values into the pattern's CSR value
    /// order (for comparison with row-major references).
    pub fn scatter_to_csr_order(&self, packed: &[f32], pattern: &Csr) -> Vec<f32> {
        assert_eq!(packed.len(), pattern.nnz());
        let mut out = vec![0.0f32; pattern.nnz()];
        // Walk CSR positions and compute each element's packed slot, the
        // same mapping the conversion uses.
        for br in 0..self.format.block_rows {
            let lo = self.format.block_row_ptr[br] as usize;
            let hi = self.format.block_row_ptr[br + 1] as usize;
            for blk in lo..hi {
                let bc = self.format.block_cols[blk] as usize;
                let bmp = self.format.bitmaps[blk];
                let base = self.format.block_offsets[blk] as usize;
                for bit in 0..64usize {
                    if bmp & (1u64 << bit) == 0 {
                        continue;
                    }
                    let r = br * BLOCK_DIM + bit / 8;
                    let c = (bc * BLOCK_DIM + bit % 8) as u32;
                    let (row_cols, _) = pattern.row(r);
                    let within = row_cols.binary_search(&c).expect("pattern position");
                    let csr_pos = pattern.row_ptr[r] as usize + within;
                    let packed_pos =
                        base + (bmp & ((1u64 << bit) - 1)).count_ones() as usize;
                    out[csr_pos] = packed[packed_pos];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_gpusim::GpuConfig;
    use spaden_sparse::dense::sddmm_reference;
    use spaden_sparse::gen::{self, FillDist, Placement};

    fn check_sddmm(pattern: &Csr, k: usize) {
        let x = Dense::from_fn(pattern.nrows, k, |r, c| ((r * 5 + c) % 7) as f32 * 0.25 - 0.75);
        let y = Dense::from_fn(pattern.ncols, k, |r, c| ((r + 3 * c) % 5) as f32 * 0.5 - 1.0);
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = SpadenSddmmEngine::prepare(&gpu, pattern);
        let run = eng.run(&gpu, &x, &y);
        assert_eq!(run.values.len(), pattern.nnz());
        let got = eng.scatter_to_csr_order(&run.values, pattern);
        let want = sddmm_reference(pattern, &x, &y).unwrap();
        for (i, (a, w)) in got.iter().zip(&want).enumerate() {
            let tol = k as f32 * 2.0f32.powi(-9) + 1e-3;
            assert!((a - w).abs() <= tol * w.abs().max(1.0), "pos {i}: {a} vs {w}");
        }
    }

    #[test]
    fn matches_reference_k16() {
        let p = gen::generate_blocked(
            96,
            60,
            Placement::Scattered,
            &FillDist::Uniform { lo: 1, hi: 64 },
            91,
        );
        check_sddmm(&p, 16);
    }

    #[test]
    fn matches_reference_k32() {
        check_sddmm(&gen::random_uniform(80, 80, 900, 93), 32);
    }

    #[test]
    fn matches_reference_ragged_k10() {
        check_sddmm(&gen::random_uniform(64, 72, 700, 95), 10);
    }

    #[test]
    fn matches_reference_k1() {
        check_sddmm(&gen::random_uniform(40, 40, 300, 97), 1);
    }

    #[test]
    fn odd_pattern_dimensions() {
        check_sddmm(&gen::random_uniform(51, 67, 400, 99), 16);
    }

    #[test]
    fn one_warp_per_block_and_k_tiled_mmas() {
        let p = gen::generate_blocked(
            128,
            70,
            Placement::Scattered,
            &FillDist::Uniform { lo: 2, hi: 30 },
            101,
        );
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = SpadenSddmmEngine::prepare(&gpu, &p);
        let bnnz = eng.format().bnnz() as u64;
        let x = Dense::zeros(128, 32);
        let y = Dense::zeros(128, 32);
        let run = eng.run(&gpu, &x, &y);
        assert_eq!(run.counters.warps, bnnz);
        assert_eq!(run.counters.mma_m16n16k16, bnnz * 2, "k=32 -> two 16-wide tiles");
    }

    #[test]
    fn output_traffic_is_packed_not_dense() {
        // A near-empty pattern: writes must scale with nnz, not with
        // 64 * blocks.
        let p = gen::generate_blocked(
            256,
            120,
            Placement::Scattered,
            &FillDist::Uniform { lo: 1, hi: 2 },
            103,
        );
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = SpadenSddmmEngine::prepare(&gpu, &p);
        let run = eng.run(&gpu, &Dense::zeros(256, 16), &Dense::zeros(256, 16));
        // Each block writes at most 2 sectors here (1-2 packed values).
        assert!(
            run.counters.dram_write_bytes <= eng.format().bnnz() as u64 * 64 + 64,
            "writes {} for {} blocks",
            run.counters.dram_write_bytes,
            eng.format().bnnz()
        );
    }
}
