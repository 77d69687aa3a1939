//! cuSPARSE-style BSR SpMV (`cusparseSbsrmv`) with 8×8 blocks.
//!
//! The format the paper's bitBSR directly improves on: dense f32 blocks
//! give perfectly coalesced accesses but store every zero, so "the
//! abundance of zero elements in the BSR format leads to redundant data
//! movement" (§5.3). It wins only on the dense-block matrices raefsky3 and
//! TSOPF (§5.4).

use spaden::engine::{prepare_validated, timed, EngineError, PrepStats, SpmvEngine, SpmvRun};
use spaden_gpusim::exec::{WarpCtx, WARP_SIZE};
use spaden_gpusim::memory::{DeviceBuffer, DeviceOutput};
use spaden_gpusim::Gpu;
use spaden_sparse::bsr::Bsr;
use spaden_sparse::csr::Csr;
use spaden_sparse::gen::BLOCK_DIM;

/// cuSPARSE BSR engine: the converted BSR's device buffers and dims.
pub struct CusparseBsrEngine {
    nrows: usize,
    ncols: usize,
    block_rows: usize,
    prep: PrepStats,
    d_block_row_ptr: DeviceBuffer<u32>,
    d_block_cols: DeviceBuffer<u32>,
    d_values: DeviceBuffer<f32>,
    nnz: usize,
}

impl CusparseBsrEngine {
    /// Fallible [`Self::prepare`]: rejects structurally malformed CSR with
    /// a typed error instead of corrupting or panicking downstream. The
    /// serving layer's failover ladder relies on this so every engine can
    /// be prepared interchangeably from untrusted input.
    pub fn try_prepare(gpu: &Gpu, csr: &Csr) -> Result<Self, EngineError> {
        prepare_validated(gpu, csr, Self::prepare)
    }

    /// Converts `csr` to BSR (timed — the fastest conversion in Figure 10a,
    /// at the cost of the largest footprint).
    pub fn prepare(gpu: &Gpu, csr: &Csr) -> Self {
        let (format, seconds) = timed(|| Bsr::from_csr(csr));
        let prep = PrepStats { seconds, device_bytes: format.bytes() as u64 };
        CusparseBsrEngine {
            nrows: format.nrows,
            ncols: format.ncols,
            block_rows: format.block_rows,
            d_block_row_ptr: gpu.alloc(format.block_row_ptr),
            d_block_cols: gpu.alloc(format.block_cols),
            d_values: gpu.alloc(format.values),
            nnz: csr.nnz(),
            prep,
        }
    }

    fn run_warp(&self, ctx: &mut WarpCtx, d_x: &DeviceBuffer<f32>, y: &DeviceOutput) {
        let br = ctx.warp_id;
        let lo = ctx.read(&self.d_block_row_ptr, br) as usize;
        let hi = ctx.read(&self.d_block_row_ptr, br + 1) as usize;
        ctx.ops(2);

        let mut row_acc = [0.0f32; BLOCK_DIM];
        for k in lo..hi {
            ctx.ops(2);
            let bc = ctx.read(&self.d_block_cols, k) as usize;
            // All 64 block values, two per lane: one vectorised coalesced
            // load of 256 B (8 sectors) — zeros included; this is BSR's
            // redundant data movement.
            let mut vidx = [None; WARP_SIZE];
            for l in 0..WARP_SIZE {
                vidx[l] = Some((k * 64 + 2 * l) as u32);
            }
            let vals = ctx.gather_pair(&self.d_values, &vidx);
            // x segment, same repeating pattern as Spaden's vector decode.
            let mut xidx = [None; WARP_SIZE];
            for l in 0..WARP_SIZE {
                let col = bc * BLOCK_DIM + 2 * (l % 4);
                if col + 1 < self.ncols {
                    xidx[l] = Some(col as u32);
                }
            }
            let xs = ctx.gather_pair(d_x, &xidx);
            ctx.ops(2); // two FMAs per lane
            let mut partial = [0.0f32; WARP_SIZE];
            for l in 0..WARP_SIZE {
                let (x1, x2) = match xidx[l] {
                    Some(_) => xs[l],
                    None => {
                        let c1 = bc * BLOCK_DIM + 2 * (l % 4);
                        let c2 = c1 + 1;
                        (
                            if c1 < self.ncols { d_x.get(c1) } else { 0.0 },
                            if c2 < self.ncols { d_x.get(c2) } else { 0.0 },
                        )
                    }
                };
                partial[l] = vals[l].0 * x1 + vals[l].1 * x2;
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
            let r = br * BLOCK_DIM + dr;
            if r < self.nrows {
                writes[dr] = Some((r as u32, row_acc[dr]));
            }
        }
        ctx.scatter(y, &writes);
    }
}

impl SpmvEngine for CusparseBsrEngine {
    fn name(&self) -> &'static str {
        "cuSPARSE BSR"
    }

    fn prep(&self) -> PrepStats {
        self.prep
    }

    fn nnz(&self) -> usize {
        self.nnz
    }

    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn run(&self, gpu: &Gpu, x: &[f32]) -> SpmvRun {
        assert_eq!(x.len(), self.ncols, "x length mismatch");
        let d_x = gpu.alloc(x.to_vec());
        let y = gpu.alloc_output(self.nrows);
        let counters = gpu.launch(self.block_rows, |ctx| self.run_warp(ctx, &d_x, &y));
        SpmvRun::new(y.to_vec(), counters, gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_gpusim::GpuConfig;
    use spaden_sparse::gen::{self, FillDist, Placement};

    fn check(csr: &Csr, x: &[f32]) {
        let gpu = Gpu::new(GpuConfig::l40());
        let run = CusparseBsrEngine::prepare(&gpu, csr).run(&gpu, x);
        let oracle = csr.spmv_f64(x).unwrap();
        for (r, (a, o)) in run.y.iter().zip(&oracle).enumerate() {
            let tol = 1e-3_f64.max(o.abs() * 1e-4);
            assert!(((*a as f64) - o).abs() <= tol, "row {r}: {a} vs {o}");
        }
    }

    #[test]
    fn matches_oracle_blocked() {
        let csr = gen::generate_blocked(
            256,
            140,
            Placement::Banded { bandwidth: 4 },
            &FillDist::Uniform { lo: 1, hi: 64 },
            601,
        );
        let x: Vec<f32> = (0..256).map(|i| ((i % 11) as f32) * 0.3 - 1.0).collect();
        check(&csr, &x);
    }

    #[test]
    fn matches_oracle_odd_shape() {
        let csr = gen::random_uniform(203, 187, 2200, 603);
        let x: Vec<f32> = (0..187).map(|i| (i as f32 * 0.05).cos()).collect();
        check(&csr, &x);
    }

    #[test]
    fn full_precision_no_f16_loss() {
        // BSR keeps f32 values; a value that f16 cannot represent must
        // survive exactly.
        let csr = Csr::new(8, 8, vec![0, 1, 1, 1, 1, 1, 1, 1, 1], vec![0], vec![0.1]).unwrap();
        let gpu = Gpu::new(GpuConfig::l40());
        let run = CusparseBsrEngine::prepare(&gpu, &csr).run(&gpu, &[1.0f32; 8]);
        assert_eq!(run.y[0], 0.1);
    }

    #[test]
    fn moves_more_bytes_than_spaden_on_sparse_blocks() {
        // The §5.3 mechanism: sparse blocks make BSR move stored zeros.
        let csr = gen::generate_blocked(
            512,
            400,
            Placement::Scattered,
            &FillDist::Uniform { lo: 4, hi: 12 },
            605,
        );
        let gpu = Gpu::new(GpuConfig::l40());
        let x = vec![1.0f32; 512];
        let bsr = CusparseBsrEngine::prepare(&gpu, &csr).run(&gpu, &x);
        let spd = spaden::SpadenEngine::prepare(&gpu, &csr).run(&gpu, &x);
        assert!(
            bsr.counters.dram_read_bytes > 3 * spd.counters.dram_read_bytes,
            "bsr {} vs spaden {}",
            bsr.counters.dram_read_bytes,
            spd.counters.dram_read_bytes
        );
    }

    #[test]
    fn competitive_on_dense_blocks() {
        // raefsky3/TSOPF regime: fully dense blocks — BSR should be at
        // least as fast as Spaden (it skips bitmap decode and moves
        // comparable bytes, f32 vs f16).
        let csr = gen::generate_blocked(1024, 1200, Placement::Banded { bandwidth: 8 },
            &FillDist::Dense, 607);
        let gpu = Gpu::new(GpuConfig::l40());
        let x = vec![1.0f32; 1024];
        let bsr = CusparseBsrEngine::prepare(&gpu, &csr).run(&gpu, &x);
        let spd = spaden::SpadenEngine::prepare(&gpu, &csr).run(&gpu, &x);
        assert!(
            bsr.time.seconds < 1.6 * spd.time.seconds,
            "bsr {:.3e}s should be near spaden {:.3e}s on dense blocks",
            bsr.time.seconds,
            spd.time.seconds
        );
    }

    #[test]
    fn prep_is_fast_but_fat() {
        let csr = gen::generate_blocked(
            1024,
            1000,
            Placement::Scattered,
            &FillDist::Uniform { lo: 10, hi: 30 },
            609,
        );
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = CusparseBsrEngine::prepare(&gpu, &csr);
        let bpn = eng.prep().bytes_per_nnz(eng.nnz());
        assert!(bpn > 10.0, "BSR must be memory-hungry here, got {bpn}");
    }
}
