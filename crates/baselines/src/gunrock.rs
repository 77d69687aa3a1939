//! Gunrock-style SpMV (Wang et al., PPoPP '16): "message passing on graph
//! edges, where each node pulls the data from its in-neighbors".
//!
//! The advance operator is edge-centric: each lane owns one edge, loads
//! its endpoints and weight from edge-list (COO-shaped) arrays, gathers
//! `x[col]`, and partial sums are combined per destination with
//! segment-boundary atomics. The extra per-edge source array and the
//! atomic combines are why "its SpMV implementation ... is less performant
//! than specific sparse matrix libraries".

use spaden::engine::{prepare_validated, timed, EngineError, PrepStats, SpmvEngine, SpmvRun};
use spaden_gpusim::exec::{WarpCtx, WARP_SIZE};
use spaden_gpusim::memory::{DeviceBuffer, DeviceOutput};
use spaden_gpusim::Gpu;
use spaden_sparse::csr::Csr;

/// Gunrock engine: edge-list arrays on device.
pub struct GunrockEngine {
    prep: PrepStats,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    d_edge_row: DeviceBuffer<u32>,
    d_edge_col: DeviceBuffer<u32>,
    d_edge_val: DeviceBuffer<f32>,
    d_frontier: DeviceBuffer<u32>,
}

impl GunrockEngine {
    /// Fallible [`Self::prepare`]: rejects structurally malformed CSR with
    /// a typed error instead of corrupting or panicking downstream. The
    /// serving layer's failover ladder relies on this so every engine can
    /// be prepared interchangeably from untrusted input.
    pub fn try_prepare(gpu: &Gpu, csr: &Csr) -> Result<Self, EngineError> {
        prepare_validated(gpu, csr, Self::prepare)
    }

    /// Expands CSR into the frontier/edge-list form Gunrock's advance
    /// operator consumes (one explicit source per edge).
    pub fn prepare(gpu: &Gpu, csr: &Csr) -> Self {
        let (coo, seconds) = timed(|| csr.to_coo());
        // Edge list (3 arrays) plus the frontier work queue (1 u32/edge).
        let device_bytes = (coo.nnz() * (4 + 4 + 4 + 4)) as u64;
        let frontier: Vec<u32> = (0..coo.nnz() as u32).collect();
        GunrockEngine {
            prep: PrepStats { seconds, device_bytes },
            nrows: csr.nrows,
            ncols: csr.ncols,
            nnz: csr.nnz(),
            d_edge_row: gpu.alloc(coo.rows),
            d_edge_col: gpu.alloc(coo.cols),
            d_edge_val: gpu.alloc(coo.values),
            d_frontier: gpu.alloc(frontier),
        }
    }

    fn run_warp<'o>(&self, ctx: &mut WarpCtx<'o>, d_x: &DeviceBuffer<f32>, y: &'o DeviceOutput) {
        let base = ctx.warp_id * WARP_SIZE;
        let n = WARP_SIZE.min(self.nnz - base);
        let mut idx = [None; WARP_SIZE];
        for l in 0..n {
            idx[l] = Some((base + l) as u32);
        }
        // Gunrock's advance first reads the frontier work queue to find
        // its edges, then the edge arrays: 16 bytes per edge versus
        // CSR's 8 — the framework-generality overhead.
        let edge_ids = ctx.gather(&self.d_frontier, &idx);
        let mut eidx = [None; WARP_SIZE];
        for l in 0..n {
            eidx[l] = Some(edge_ids[l]);
        }
        let rows = ctx.gather(&self.d_edge_row, &eidx);
        let cols = ctx.gather(&self.d_edge_col, &eidx);
        let vals = ctx.gather(&self.d_edge_val, &eidx);
        let mut xidx = [None; WARP_SIZE];
        for l in 0..n {
            xidx[l] = Some(cols[l]);
        }
        let xs = ctx.gather(d_x, &xidx);
        ctx.ops(3); // functor application (multiply) + segment flags

        // Reduce-by-key within the warp: edges are row-sorted, so each
        // maximal run of equal destinations folds into one atomic combine
        // from its head lane.
        let mut writes = [None; WARP_SIZE];
        let mut l = 0;
        while l < n {
            let mut sum = 0.0f32;
            let head = l;
            while l < n && rows[l] == rows[head] {
                sum += vals[l] * xs[l];
                l += 1;
            }
            writes[head] = Some((rows[head], sum));
        }
        ctx.ops(5); // intra-warp segmented scan
        ctx.atomic_add(y, &writes);
    }
}

impl SpmvEngine for GunrockEngine {
    fn name(&self) -> &'static str {
        "Gunrock"
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
        if self.nnz == 0 {
            let counters = gpu.launch(0, |_| {});
            return SpmvRun::new(y.to_vec(), counters, gpu);
        }
        let nwarps = self.nnz.div_ceil(WARP_SIZE);
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
        let run = GunrockEngine::prepare(&gpu, csr).run(&gpu, x);
        let oracle = csr.spmv_f64(x).unwrap();
        for (r, (a, o)) in run.y.iter().zip(&oracle).enumerate() {
            let tol = 1e-3_f64.max(o.abs() * 1e-3);
            assert!(((*a as f64) - o).abs() <= tol, "row {r}: {a} vs {o}");
        }
    }

    #[test]
    fn matches_oracle_random() {
        let csr = gen::random_uniform(250, 250, 5000, 801);
        let x: Vec<f32> = (0..250).map(|i| (i as f32 * 0.021).sin()).collect();
        check(&csr, &x);
    }

    #[test]
    fn matches_oracle_power_law() {
        let csr = gen::scale_free(600, 4000, 1.25, 803);
        let x: Vec<f32> = (0..600).map(|i| 0.5 + (i % 5) as f32).collect();
        check(&csr, &x);
    }

    #[test]
    fn atomics_bounded_by_rows_touched() {
        // Row-sorted edges: at most one atomic per run head; for a matrix
        // with long rows, far fewer atomics than edges.
        let csr = gen::random_uniform(64, 64, 6400, 805);
        let gpu = Gpu::new(GpuConfig::l40());
        let run = GunrockEngine::prepare(&gpu, &csr).run(&gpu, &vec![1.0f32; 64]);
        assert!(run.counters.atomic_ops < csr.nnz() as u64 / 10);
        assert!(run.counters.atomic_ops >= 64);
    }

    #[test]
    fn moves_more_bytes_per_nnz_than_cusparse_csr() {
        let csr = gen::random_uniform(1024, 1024, 50_000, 807);
        let gpu = Gpu::new(GpuConfig::l40());
        let x = vec![1.0f32; 1024];
        let gun = GunrockEngine::prepare(&gpu, &csr).run(&gpu, &x);
        let cus = crate::CusparseCsrEngine::prepare(&gpu, &csr).run(&gpu, &x);
        assert!(gun.counters.dram_read_bytes > cus.counters.dram_read_bytes);
    }

    #[test]
    fn empty_matrix() {
        let csr = Csr::empty(10, 10);
        let gpu = Gpu::new(GpuConfig::l40());
        let run = GunrockEngine::prepare(&gpu, &csr).run(&gpu, &[0.0f32; 10]);
        assert_eq!(run.y, vec![0.0; 10]);
    }
}
