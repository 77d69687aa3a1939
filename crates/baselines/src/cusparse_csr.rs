//! cuSPARSE-style adaptive CSR vector kernel.
//!
//! The modern `cusparseSpMV` CSR path assigns a power-of-two group of lanes
//! ("vector") to each row, sized from the mean degree, so element loads
//! within a row are coalesced and short rows don't idle a whole warp. This
//! is the paper's strongest CUDA-core baseline — "cuSPARSE's CSR SpMV
//! ranks as the second fastest SpMV method on average" — and the
//! normaliser of Figure 7.

use spaden::engine::{prepare_validated, timed, EngineError, PrepStats, SpmvEngine, SpmvRun};
use spaden_gpusim::exec::{WarpCtx, WARP_SIZE};
use spaden_gpusim::memory::{DeviceBuffer, DeviceOutput};
use spaden_gpusim::Gpu;
use spaden_sparse::csr::Csr;

/// cuSPARSE CSR engine: CSR arrays on device plus the chosen vector width.
pub struct CusparseCsrEngine {
    prep: PrepStats,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    vector_width: usize,
    d_row_ptr: DeviceBuffer<u32>,
    d_col_idx: DeviceBuffer<u32>,
    d_values: DeviceBuffer<f32>,
}

/// Picks the lanes-per-row "vector" width like cuSPARSE's CSR adaptive
/// heuristic: the smallest power of two at least half the mean degree,
/// clamped to `[2, 32]`.
pub fn vector_width_for(mean_degree: f64) -> usize {
    let mut w = 2usize;
    while (w as f64) < mean_degree / 2.0 && w < WARP_SIZE {
        w *= 2;
    }
    w
}

impl CusparseCsrEngine {
    /// Fallible [`Self::prepare`]: rejects structurally malformed CSR with
    /// a typed error instead of corrupting or panicking downstream. The
    /// serving layer's failover ladder relies on this so every engine can
    /// be prepared interchangeably from untrusted input.
    pub fn try_prepare(gpu: &Gpu, csr: &Csr) -> Result<Self, EngineError> {
        prepare_validated(gpu, csr, Self::prepare)
    }

    /// "Preprocessing" per the paper's Figure 10: cuSPARSE CSR does no
    /// format conversion but runs partitioning analysis and allocates an
    /// auxiliary buffer (`cusparseSpMV_bufferSize`).
    pub fn prepare(gpu: &Gpu, csr: &Csr) -> Self {
        let ((row_ptr, col_idx, values, vector_width), seconds) = timed(|| {
            // Partition analysis pass: scan the row pointer for degree
            // statistics, as the real preprocessing does.
            let max_deg = (0..csr.nrows).map(|r| csr.row_nnz(r)).max().unwrap_or(0);
            let w = vector_width_for(csr.mean_degree()).min(max_deg.next_power_of_two().max(2));
            (csr.row_ptr.clone(), csr.col_idx.clone(), csr.values.clone(), w)
        });
        // Device footprint: the CSR arrays themselves plus a small
        // per-partition workspace buffer (one u32 per 32 rows).
        let device_bytes = csr.bytes() as u64 + (csr.nrows as u64 / 32 + 1) * 4;
        CusparseCsrEngine {
            prep: PrepStats { seconds, device_bytes },
            nrows: csr.nrows,
            ncols: csr.ncols,
            nnz: csr.nnz(),
            vector_width,
            d_row_ptr: gpu.alloc(row_ptr),
            d_col_idx: gpu.alloc(col_idx),
            d_values: gpu.alloc(values),
        }
    }

    /// The chosen lanes-per-row width (tests / diagnostics).
    pub fn vector_width(&self) -> usize {
        self.vector_width
    }

    fn run_warp(&self, ctx: &mut WarpCtx, d_x: &DeviceBuffer<f32>, y: &DeviceOutput) {
        let w = self.vector_width;
        let rows_per_warp = WARP_SIZE / w;
        let row_base = ctx.warp_id * rows_per_warp;
        let active_rows = rows_per_warp.min(self.nrows.saturating_sub(row_base));
        if active_rows == 0 {
            return;
        }

        // Row bounds: one coalesced gather over rows_per_warp + 1 pointers.
        let mut pidx = [None; WARP_SIZE];
        for i in 0..=active_rows {
            pidx[i] = Some((row_base + i) as u32);
        }
        let ptrs = ctx.gather(&self.d_row_ptr, &pidx);
        ctx.ops(2);

        let max_len = (0..active_rows)
            .map(|i| (ptrs[i + 1] - ptrs[i]) as usize)
            .max()
            .unwrap_or(0);
        let steps = max_len.div_ceil(w);

        let mut acc = [0.0f32; WARP_SIZE];
        for s in 0..steps {
            // Lane row * w + k serves element s * w + k of its row:
            // consecutive lanes touch consecutive elements of the same
            // row — coalesced.
            let mut idx = [None; WARP_SIZE];
            for row in 0..active_rows {
                let (start, end) = (ptrs[row] as usize + s * w, ptrs[row + 1] as usize);
                for k in 0..w {
                    if start + k < end {
                        idx[row * w + k] = Some((start + k) as u32);
                    }
                }
            }
            let cols = ctx.gather(&self.d_col_idx, &idx);
            let vals = ctx.gather(&self.d_values, &idx);
            let mut xidx = [None; WARP_SIZE];
            for l in 0..WARP_SIZE {
                if idx[l].is_some() {
                    xidx[l] = Some(cols[l]);
                }
            }
            let xs = ctx.gather(d_x, &xidx);
            ctx.ops(2); // FMA + predicate
            for l in 0..WARP_SIZE {
                if idx[l].is_some() {
                    acc[l] += vals[l] * xs[l];
                }
            }
        }

        // One segmented reduction per warp, then a coalesced store of the
        // rows_per_warp results.
        let sums = ctx.segmented_reduce_sum(&acc, w);
        ctx.ops(1);
        let mut writes = [None; WARP_SIZE];
        for i in 0..active_rows {
            writes[i] = Some(((row_base + i) as u32, sums[i * w]));
        }
        ctx.scatter(y, &writes);
    }
}

impl SpmvEngine for CusparseCsrEngine {
    fn name(&self) -> &'static str {
        "cuSPARSE CSR"
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
        let rows_per_warp = WARP_SIZE / self.vector_width;
        let nwarps = self.nrows.div_ceil(rows_per_warp);
        let counters = gpu.launch(nwarps, |ctx| self.run_warp(ctx, &d_x, &y));
        SpmvRun::new(y.to_vec(), counters, gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_gpusim::GpuConfig;
    use spaden_sparse::gen;

    fn check(csr: &Csr, x: &[f32]) {
        let gpu = Gpu::new(GpuConfig::l40());
        let run = CusparseCsrEngine::prepare(&gpu, csr).run(&gpu, x);
        let oracle = csr.spmv_f64(x).unwrap();
        for (r, (a, o)) in run.y.iter().zip(&oracle).enumerate() {
            let tol = 1e-3_f64.max(o.abs() * 1e-4);
            assert!(((*a as f64) - o).abs() <= tol, "row {r}: {a} vs {o}");
        }
    }

    #[test]
    fn matches_oracle_random() {
        let csr = gen::random_uniform(300, 250, 5000, 501);
        let x: Vec<f32> = (0..250).map(|i| (i as f32 * 0.03).sin()).collect();
        check(&csr, &x);
    }

    #[test]
    fn matches_oracle_scale_free() {
        let csr = gen::scale_free(400, 3000, 1.2, 503);
        let x: Vec<f32> = (0..400).map(|i| i as f32 * 0.001).collect();
        check(&csr, &x);
    }

    #[test]
    fn matches_oracle_high_degree() {
        let csr = gen::random_uniform(100, 100, 6000, 505);
        let x: Vec<f32> = (0..100).map(|i| ((i % 7) as f32) - 3.0).collect();
        check(&csr, &x);
    }

    #[test]
    fn vector_width_heuristic() {
        assert_eq!(vector_width_for(1.0), 2);
        assert_eq!(vector_width_for(6.0), 4);
        assert_eq!(vector_width_for(50.0), 32);
        assert_eq!(vector_width_for(500.0), 32);
    }

    #[test]
    fn element_loads_are_coalesced() {
        // Dense rows, width 32: value loads should approach the ideal 4
        // sectors per 32-lane f32 load.
        let csr = gen::random_uniform(64, 2048, 64 * 160, 507);
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = CusparseCsrEngine::prepare(&gpu, &csr);
        assert_eq!(eng.vector_width(), 32);
        let run = eng.run(&gpu, &vec![1.0f32; 2048]);
        // 3 gathers per step (col, val, x); col+val are coalesced.
        let spl = run.counters.sectors_read as f64 / run.counters.load_insts as f64;
        assert!(spl < 12.0, "sectors/load {spl:.1} suggests uncoalesced access");
    }

    #[test]
    fn faster_than_csr_warp16_on_the_model() {
        // The §5.3 contrast: the adaptive kernel must beat the strawman.
        let csr = gen::random_uniform(4096, 4096, 400_000, 509);
        let gpu = Gpu::new(GpuConfig::l40());
        let x = vec![1.0f32; 4096];
        let fast = CusparseCsrEngine::prepare(&gpu, &csr).run(&gpu, &x);
        let slow = spaden::CsrWarp16Engine::prepare(&gpu, &csr).run(&gpu, &x);
        // Compare kernel body time (launch overhead dominates tiny runs).
        let overhead = gpu.config.launch_overhead_s;
        let (fast_body, slow_body) =
            (fast.time.seconds - overhead, slow.time.seconds - overhead);
        assert!(
            slow_body > 1.5 * fast_body,
            "warp16 {slow_body:.3e}s vs cusparse {fast_body:.3e}s"
        );
    }

    #[test]
    fn prep_bytes_near_paper_value() {
        // ~8.06 B/nnz for a degree-50 matrix.
        let csr = gen::random_uniform(2000, 2000, 100_000, 511);
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = CusparseCsrEngine::prepare(&gpu, &csr);
        let bpn = eng.prep().bytes_per_nnz(eng.nnz());
        assert!((7.5..9.0).contains(&bpn), "bytes/nnz {bpn}");
    }
}
