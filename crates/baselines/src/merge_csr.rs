//! Merge-based CSR SpMV (Merrill & Garland, SC '16): the perfectly
//! load-balanced CUDA-core SpMV that modern cuSPARSE descends from.
//!
//! The (row-ends × nonzeros) merge path of total length `nnz + nrows` is
//! split into equal segments, one per warp; each warp binary-searches its
//! starting (row, element) coordinate on the diagonal and then consumes
//! its segment, accumulating elements and emitting a row result whenever
//! it crosses a row boundary. Rows that span segment boundaries are
//! combined with atomic adds (the "carry-out" fix-up). Work per warp is
//! *exactly* equal regardless of row-length skew — the property the
//! paper's LightSpMV approximates dynamically and CSR Warp16 lacks
//! entirely.

use spaden::engine::{prepare_validated, timed, EngineError, PrepStats, SpmvEngine, SpmvRun};
use spaden_gpusim::exec::{WarpCtx, WARP_SIZE};
use spaden_gpusim::memory::{DeviceBuffer, DeviceOutput};
use spaden_gpusim::Gpu;
use spaden_sparse::csr::Csr;

/// Merge-path items consumed per warp (elements + row-ends).
const ITEMS_PER_WARP: usize = 128;

/// Merge-based CSR engine.
pub struct MergeCsrEngine {
    prep: PrepStats,
    nrows: usize,
    ncols: usize,
    nnz: usize,
    d_row_ptr: DeviceBuffer<u32>,
    d_col_idx: DeviceBuffer<u32>,
    d_values: DeviceBuffer<f32>,
}

/// The merge-path coordinate (row, element) at diagonal `d`: the split
/// point where `row + elem == d` and `row_ptr[row] <= elem <
/// row_ptr[row+1] + ...` — standard merge-path binary search.
fn merge_path_search(row_ptr: &[u32], nrows: usize, diagonal: usize) -> (usize, usize) {
    // Largest r with row_ptr[r] <= diagonal - r: a row-end may only be
    // consumed once all of that row's elements are. The predicate is
    // monotone (row_ptr grows, diagonal - r shrinks) and holds at r = 0.
    let (mut lo, mut hi) = (0usize, diagonal.min(nrows));
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if (row_ptr[mid] as usize) <= diagonal - mid {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    (lo, diagonal - lo)
}

impl MergeCsrEngine {
    /// Fallible [`Self::prepare`]: rejects structurally malformed CSR with
    /// a typed error instead of corrupting or panicking downstream. The
    /// serving layer's failover ladder relies on this so every engine can
    /// be prepared interchangeably from untrusted input.
    pub fn try_prepare(gpu: &Gpu, csr: &Csr) -> Result<Self, EngineError> {
        prepare_validated(gpu, csr, Self::prepare)
    }

    /// Uploads the CSR arrays (no conversion).
    pub fn prepare(gpu: &Gpu, csr: &Csr) -> Self {
        let ((rp, ci, v), seconds) =
            timed(|| (csr.row_ptr.clone(), csr.col_idx.clone(), csr.values.clone()));
        MergeCsrEngine {
            prep: PrepStats { seconds, device_bytes: csr.bytes() as u64 },
            nrows: csr.nrows,
            ncols: csr.ncols,
            nnz: csr.nnz(),
            d_row_ptr: gpu.alloc(rp),
            d_col_idx: gpu.alloc(ci),
            d_values: gpu.alloc(v),
        }
    }

    fn run_warp<'o>(&self, ctx: &mut WarpCtx<'o>, d_x: &DeviceBuffer<f32>, y: &'o DeviceOutput) {
        let total_items = self.nnz + self.nrows;
        let begin = (ctx.warp_id * ITEMS_PER_WARP).min(total_items);
        let end = (begin + ITEMS_PER_WARP).min(total_items);
        if begin == end {
            return;
        }
        // Device-side the search costs ~log2(nrows) row_ptr probes; charge
        // them (the functional answer comes from the host copy).
        let probes = (usize::BITS - self.nrows.leading_zeros()) as u64;
        ctx.ops(2 * probes);
        for p in 0..probes.min(4) {
            // Representative probe traffic (binary search touches
            // scattered row_ptr entries; beyond a few they L2-hit).
            let probe = (self.nrows * (p as usize + 1) / (probes as usize + 1)).min(self.nrows);
            ctx.read(&self.d_row_ptr, probe);
        }
        let (mut row, mut elem) = merge_path_search(self.d_row_ptr.as_slice(), self.nrows, begin);
        let (end_row, end_elem) = merge_path_search(self.d_row_ptr.as_slice(), self.nrows, end);

        let mut acc = 0.0f32;
        let mut pending: Vec<(u32, f32)> = Vec::new();
        while row < end_row || elem < end_elem {
            let row_end =
                if row < self.nrows { self.d_row_ptr.get(row + 1) as usize } else { elem };
            // Consume up to 32 elements of the current row in one warp op.
            if elem < row_end && elem < end_elem {
                let n = (row_end - elem).min(WARP_SIZE).min(end_elem - elem);
                let mut idx = [None; WARP_SIZE];
                for l in 0..n {
                    idx[l] = Some((elem + l) as u32);
                }
                let cols = ctx.gather(&self.d_col_idx, &idx);
                let vals = ctx.gather(&self.d_values, &idx);
                let mut xidx = [None; WARP_SIZE];
                for l in 0..n {
                    xidx[l] = Some(cols[l]);
                }
                let xs = ctx.gather(d_x, &xidx);
                ctx.ops(2);
                let mut partial = [0.0f32; WARP_SIZE];
                for l in 0..n {
                    partial[l] = vals[l] * xs[l];
                }
                acc += ctx.reduce_sum(&partial);
                elem += n;
            } else if row < end_row {
                // Row boundary: emit the accumulated value.
                pending.push((row as u32, acc));
                acc = 0.0;
                row += 1;
                ctx.ops(1);
            } else {
                break;
            }
        }
        if acc != 0.0 || (elem > 0 && row < self.nrows && begin != end) {
            // Carry-out: the warp's trailing partial row.
            pending.push((row.min(self.nrows - 1) as u32, acc));
        }
        // Combine: interior rows are exclusive, but boundary rows are not —
        // atomics everywhere keeps the fix-up simple (as cub does for the
        // carry-out pass).
        for chunk in pending.chunks(WARP_SIZE) {
            let mut writes = [None; WARP_SIZE];
            for (l, &(r, v)) in chunk.iter().enumerate() {
                writes[l] = Some((r, v));
            }
            ctx.atomic_add(y, &writes);
        }
    }
}

impl SpmvEngine for MergeCsrEngine {
    fn name(&self) -> &'static str {
        "Merge CSR"
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
        let total_items = self.nnz + self.nrows;
        let nwarps = total_items.div_ceil(ITEMS_PER_WARP);
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
        let run = MergeCsrEngine::prepare(&gpu, csr).run(&gpu, x);
        let oracle = csr.spmv_f64(x).unwrap();
        for (r, (a, o)) in run.y.iter().zip(&oracle).enumerate() {
            let tol = 1e-3_f64.max(o.abs() * 1e-3);
            assert!(((*a as f64) - o).abs() <= tol, "row {r}: {a} vs {o}");
        }
    }

    #[test]
    fn merge_path_search_basics() {
        // 3 rows with 2, 0, 3 elements: row_ptr = [0, 2, 2, 5].
        let rp = [0u32, 2, 2, 5];
        assert_eq!(merge_path_search(&rp, 3, 0), (0, 0));
        // Diagonal 8 = everything: 3 rows + 5 elements.
        assert_eq!(merge_path_search(&rp, 3, 8), (3, 5));
        // Partial diagonals stay on the path (row + elem == d).
        for d in 0..=8 {
            let (r, e) = merge_path_search(&rp, 3, d);
            assert_eq!(r + e, d, "diagonal {d}");
            assert!(r <= 3 && e <= 5);
            if r > 0 {
                assert!(rp[r - 1] as usize <= e, "d={d}: row {r} entered too early");
            }
        }
    }

    #[test]
    fn matches_oracle_random() {
        let csr = gen::random_uniform(300, 260, 4000, 151);
        let x: Vec<f32> = (0..260).map(|i| (i as f32 * 0.013).sin()).collect();
        check(&csr, &x);
    }

    #[test]
    fn matches_oracle_skewed() {
        let csr = gen::scale_free(500, 7000, 1.1, 153);
        let x: Vec<f32> = (0..500).map(|i| 1.0 / (1.0 + (i % 37) as f32)).collect();
        check(&csr, &x);
    }

    #[test]
    fn matches_oracle_empty_rows() {
        // Many empty rows stress the row-boundary walk.
        let mut coo = spaden_sparse::coo::Coo::new(200, 200);
        for i in 0..40u32 {
            coo.push(i * 5, (i * 7) % 200, 1.0 + i as f32);
        }
        let csr = coo.to_csr();
        let x: Vec<f32> = (0..200).map(|i| (i % 3) as f32).collect();
        check(&csr, &x);
    }

    #[test]
    fn matches_oracle_one_fat_row() {
        let mut coo = spaden_sparse::coo::Coo::new(64, 512);
        for c in 0..512u32 {
            coo.push(5, c, 0.25);
        }
        coo.push(60, 3, 2.0);
        let csr = coo.to_csr();
        let x: Vec<f32> = (0..512).map(|i| ((i % 5) as f32) - 2.0).collect();
        check(&csr, &x);
    }

    #[test]
    fn work_is_balanced_even_on_power_law() {
        // Warp count depends only on nnz + nrows, never on skew.
        let csr = gen::scale_free(1000, 20_000, 1.05, 155);
        let gpu = Gpu::new(GpuConfig::l40());
        let run = MergeCsrEngine::prepare(&gpu, &csr).run(&gpu, &vec![1.0f32; 1000]);
        let expect = (csr.nnz() + 1000).div_ceil(ITEMS_PER_WARP) as u64;
        assert_eq!(run.counters.warps, expect);
    }

    #[test]
    fn empty_matrix() {
        let csr = Csr::empty(10, 10);
        let gpu = Gpu::new(GpuConfig::l40());
        let run = MergeCsrEngine::prepare(&gpu, &csr).run(&gpu, &[0.0f32; 10]);
        assert_eq!(run.y, vec![0.0; 10]);
    }
}
