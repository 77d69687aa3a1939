//! Cost-model engine selection.
//!
//! Predicts each registered engine's [`SimTime`] for a matrix from its
//! structural statistics alone — the 8×8 [`BlockProfile`] of Section 5.4
//! plus dimensions and degree stats, exactly what [`MatrixFingerprint`]
//! carries — without preparing or running anything. The prediction is a
//! closed-form reconstruction of each kernel's counter accounting (loads,
//! coalesced sectors, CUDA ops, MMA issues, atomics), fed through the same
//! `gpusim::estimate_time` roofline that times real launches, so predicted
//! and measured times live on the same scale and the selector's ranking
//! can be validated against an exhaustive oracle (`repro plan`).
//!
//! Known error sources (see DESIGN.md §10): load imbalance is summarised
//! by one `max_degree / mean_degree` skew factor, so heavy-tailed degree
//! distributions are under-resolved; gather locality on `x` is a fixed
//! locality fraction, not a bandwidth-partitioned cache model; and L2
//! residency is a first-touch footprint estimate, so streaming re-reads on
//! matrices near the L2 capacity boundary are mispriced.

use crate::registry::EngineKind;
use spaden_gpusim::{estimate_time, GpuConfig, KernelCounters, SimTime};
use spaden_sparse::csr::Csr;
use spaden_sparse::stats::{block_profile, block_rows_profile, BlockProfile};
use spaden_sparse::MatrixFingerprint;

/// 8×8 block edge (mirrors `spaden_sparse::gen::BLOCK_DIM`).
const BLOCK_DIM: usize = 8;

/// Structural statistics the cost model consumes — exactly the selector
/// inputs a [`MatrixFingerprint`] carries, so a matrix can be priced
/// from its fingerprint without re-walking it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixStats {
    /// Matrix rows.
    pub nrows: usize,
    /// Matrix columns.
    pub ncols: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// 8×8 block profile (Section 5.4).
    pub profile: BlockProfile,
    /// Maximum row degree.
    pub max_degree: usize,
}

impl MatrixStats {
    /// Extracts the selector inputs from a fingerprint.
    pub fn from_fingerprint(fp: &MatrixFingerprint) -> Self {
        MatrixStats {
            nrows: fp.nrows,
            ncols: fp.ncols,
            nnz: fp.nnz,
            profile: fp.profile,
            max_degree: fp.max_degree,
        }
    }

    /// Computes the selector inputs directly from a matrix.
    pub fn of(csr: &Csr) -> Self {
        MatrixStats {
            nrows: csr.nrows,
            ncols: csr.ncols,
            nnz: csr.nnz(),
            profile: block_profile(csr),
            max_degree: (0..csr.nrows).map(|r| csr.row_nnz(r)).max().unwrap_or(0),
        }
    }

    /// The stats after a structural commit that changed only the
    /// block-rows in `touched`: `before` is their block profile in the
    /// matrix before the commit ([`block_rows_profile`]) and `next` the
    /// matrix after it. Only the touched block-rows are walked. A commit
    /// only overwrites or inserts, so no row's degree shrinks and the
    /// longest row is the old one or a touched one. Equals
    /// [`MatrixStats::of`]`(next)`.
    pub fn after_commit(&self, before: &BlockProfile, next: &Csr, touched: &[usize]) -> Self {
        let mut profile = self.profile;
        profile.unmerge(before);
        profile.merge(&block_rows_profile(next, touched.iter().copied()));
        let touched_rows = touched
            .iter()
            .flat_map(|&br| br * BLOCK_DIM..((br + 1) * BLOCK_DIM).min(next.nrows));
        MatrixStats {
            nnz: next.nnz(),
            profile,
            max_degree: touched_rows.map(|r| next.row_nnz(r)).fold(self.max_degree, usize::max),
            ..*self
        }
    }

    /// Mean nonzeros per row.
    pub fn mean_degree(&self) -> f64 {
        self.nnz as f64 / self.nrows.max(1) as f64
    }

    /// Ratio of the longest row to the mean row (≥ 1): the single
    /// imbalance knob of the model.
    pub fn skew(&self) -> f64 {
        (self.max_degree as f64 / self.mean_degree().max(1e-12)).max(1.0)
    }

    /// Nonzero 8×8 blocks.
    pub fn blocks(&self) -> f64 {
        self.profile.total().max(1) as f64
    }

    /// Block rows (8-row strips).
    pub fn block_rows(&self) -> f64 {
        self.nrows.div_ceil(BLOCK_DIM).max(1) as f64
    }

    /// Mean nonzeros per nonzero block, as a fill fraction of 64.
    pub fn mean_fill(&self) -> f64 {
        self.nnz as f64 / (64.0 * self.blocks())
    }
}

/// One engine's predicted execution.
#[derive(Debug, Clone, Copy)]
pub struct RankedEngine {
    /// The engine.
    pub kind: EngineKind,
    /// Predicted execution time under the roofline model.
    pub predicted: SimTime,
}

/// Predicts per-engine times for `stats` under `config` and returns the
/// candidates ranked fastest-first. Ties (identical predicted seconds)
/// break by candidate order, so the ranking is deterministic.
pub fn rank_engines(
    stats: &MatrixStats,
    config: &GpuConfig,
    candidates: &[EngineKind],
) -> Vec<RankedEngine> {
    let mut ranked: Vec<RankedEngine> = candidates
        .iter()
        .map(|&kind| RankedEngine { kind, predicted: predict_time(kind, stats, config) })
        .collect();
    ranked.sort_by(|a, b| {
        a.predicted
            .seconds
            .partial_cmp(&b.predicted.seconds)
            .expect("predicted times are finite")
    });
    ranked
}

/// Predicted [`SimTime`] of one engine on one matrix: reconstructed
/// counters priced by the shared roofline.
pub fn predict_time(kind: EngineKind, stats: &MatrixStats, config: &GpuConfig) -> SimTime {
    estimate_time(&predict_counters(kind, stats, config), config)
}

/// Coalesced sectors of one warp-wide random gather into `x`: `active`
/// lanes land in distinct 32 B sectors unless the vector itself spans
/// fewer. `locality` discounts for column clustering.
fn x_sectors(active: f64, ncols: usize, locality: f64) -> f64 {
    let vector_sectors = ((ncols * 4) as f64 / 32.0).ceil().max(1.0);
    (active * locality).min(vector_sectors).max(1.0)
}

/// Splits total read traffic into DRAM (first touch of the working set,
/// plus re-read spill when the working set overflows L2) and L2 hits.
fn dram_read_bytes(total_read_bytes: f64, footprint: f64, l2_bytes: usize) -> f64 {
    let first_touch = footprint.min(total_read_bytes);
    let repeats = (total_read_bytes - first_touch).max(0.0);
    let spill = (footprint / l2_bytes as f64 - 1.0).clamp(0.0, 1.0);
    first_touch + spill * repeats
}

/// Accumulator for the reconstructed counters (f64 while summing, rounded
/// once at the end).
#[derive(Default)]
struct Model {
    loads: f64,
    sectors_read: f64,
    stores: f64,
    sectors_written: f64,
    cuda_ops: f64,
    mma16: f64,
    mma4: f64,
    atomics: f64,
    smem_bytes: f64,
    /// Device working set read by the kernel (format + x), for the
    /// first-touch DRAM estimate.
    footprint: f64,
}

impl Model {
    fn counters(self, config: &GpuConfig) -> KernelCounters {
        let total_read = self.sectors_read * 32.0;
        let dram_read = dram_read_bytes(total_read, self.footprint, config.l2_bytes);
        let dram_write = self.sectors_written * 32.0;
        KernelCounters {
            sectors_read: self.sectors_read.round() as u64,
            sectors_written: self.sectors_written.round() as u64,
            l2_hits: ((total_read - dram_read) / 32.0).max(0.0).round() as u64,
            dram_read_bytes: dram_read.round() as u64,
            dram_write_bytes: dram_write.round() as u64,
            load_insts: self.loads.round() as u64,
            store_insts: self.stores.round() as u64,
            cuda_ops: self.cuda_ops.round() as u64,
            mma_m16n16k16: self.mma16.round() as u64,
            mma_m8n8k4: self.mma4.round() as u64,
            atomic_ops: self.atomics.round() as u64,
            smem_bytes: self.smem_bytes.round() as u64,
            ..Default::default()
        }
    }
}

/// Reconstructs the kernel counters one engine would report on a matrix
/// with these statistics. Each arm mirrors the corresponding `run` loop's
/// accounting; constants are per-iteration instruction counts read off the
/// kernels, not fitted weights.
pub fn predict_counters(kind: EngineKind, stats: &MatrixStats, config: &GpuConfig) -> KernelCounters {
    let r = stats.nrows.max(1) as f64;
    let nnz = stats.nnz as f64;
    let b = stats.blocks();
    let br = stats.block_rows();
    let d = stats.mean_degree();
    let fill = stats.mean_fill();
    let skew = stats.skew();
    let xbytes = (stats.ncols * 4) as f64;
    let mut m = Model::default();

    match kind {
        EngineKind::Spaden | EngineKind::BitCoo => {
            // bitBSR decode per block: 3 broadcast reads (cols, bitmap,
            // offsets), two value gathers over ~128·fill bytes of f16, one
            // vector gather_pair (32 B segment).
            let decode_loads = 6.0;
            let decode_sectors = 3.0 + (4.0 * fill).max(2.0) + 1.5;
            let decode_ops = 11.0;
            let fmt = 16.0 * b + 2.0 * nnz + 4.0 * br;
            m.footprint = fmt + xbytes;
            if kind == EngineKind::Spaden {
                // Two block-rows per warp; steps per pair = max(len0, len1),
                // so pairing imbalance inflates MMAs past B/2.
                let warps = (br / 2.0).ceil();
                let pair_imbalance = 1.0 + 0.25 * (1.0 - 1.0 / skew);
                let steps = (b / 2.0) * pair_imbalance;
                m.mma16 = steps;
                m.loads = decode_loads * b + 3.0 * warps;
                m.sectors_read = decode_sectors * b + 3.0 * warps;
                m.cuda_ops =
                    decode_ops * b + 2.0 * steps + (2.0 * steps - b).max(0.0) + 10.0 * warps;
                m.stores = warps;
                m.sectors_written = 2.0 * warps;
            } else {
                // Two blocks per warp, one MMA each pair of blocks, atomic
                // combine of up to 16 rows per warp.
                let warps = (b / 2.0).ceil();
                m.mma16 = warps;
                m.loads = (decode_loads + 1.0) * b + 2.0 * warps;
                m.sectors_read = (decode_sectors + 1.0) * b + 2.0 * warps;
                m.cuda_ops = (decode_ops + 2.0) * b + 5.0 * warps;
                m.atomics = 8.0 * b;
                m.sectors_written = 8.0 * b;
                m.footprint += 4.0 * b; // block_rows index replaces row ptr
            }
        }
        EngineKind::SpadenNoTc => {
            // Same decode as Spaden, but the 8×8 block product runs on
            // CUDA lanes (96 cycles) plus a segmented reduction.
            let warps = (br / 2.0).ceil();
            m.loads = 6.0 * b + 3.0 * warps;
            m.sectors_read = (3.0 + (4.0 * fill).max(2.0) + 1.5) * b + 3.0 * warps;
            m.cuda_ops = (11.0 + 2.0 + 96.0 + 2.0 + 1.0) * b + 10.0 * warps;
            m.stores = warps;
            m.sectors_written = 2.0 * warps;
            m.footprint = 16.0 * b + 2.0 * nnz + 4.0 * br + xbytes;
        }
        EngineKind::CusparseBsr => {
            // One block-row per warp; each block moves all 256 B of dense
            // f32 values (8 sectors) regardless of fill — BSR's redundant
            // data movement.
            let warps = br;
            m.loads = 3.0 * b + 2.0 * warps;
            m.sectors_read = (1.0 + 8.0 + 1.5) * b + 2.0 * warps;
            m.cuda_ops = 7.0 * b + 4.0 * warps;
            m.stores = warps;
            m.sectors_written = warps;
            m.footprint = 260.0 * b + 4.0 * br + xbytes;
        }
        EngineKind::CusparseCsr => {
            // Adaptive vector CSR: w lanes per row, 32/w rows per warp;
            // steps per warp follow the longest row in the group.
            let w = vector_width(d, stats.max_degree);
            let rpw = (32.0 / w).max(1.0);
            let warps = (r / rpw).ceil();
            // Steps follow ceil(longest row in the warp's group / w): the
            // imbalance factor covers the max over rows_per_warp unsorted
            // rows, the +w/2 the ceil's round-up to a whole w-wide step.
            let group_imbalance = 1.0 + 0.35 * (skew - 1.0).min(3.0);
            let steps = warps * ((d * group_imbalance + 0.5 * w) / w).max(1.0);
            let elem_sectors = rpw * (w / 8.0).max(1.0); // col or val gather
            m.loads = warps + 3.0 * steps;
            m.sectors_read = warps
                + steps * (2.0 * elem_sectors + x_sectors(rpw * w, stats.ncols, 0.85));
            m.cuda_ops = warps * (4.0 + w.log2()) + 2.0 * steps;
            m.stores = warps;
            m.sectors_written = warps * (rpw / 8.0).max(1.0);
            m.footprint = 8.0 * nnz + 4.0 * r + xbytes;
        }
        EngineKind::LightSpmv => {
            // One row per warp, fetched via a global atomic counter; the x
            // gather bypasses L2 (`gather_nocache`), so every x sector is
            // DRAM traffic — the 2015-era texture-path cost.
            let chunks = r * (d / 32.0).max(1.0) * (1.0 + 0.1 * (skew - 1.0).min(2.0));
            let lanes = d.min(32.0);
            let xs = x_sectors(lanes, stats.ncols, 0.9);
            m.loads = 2.0 * r + 3.0 * chunks;
            m.sectors_read = 2.0 * r + chunks * (2.0 * (lanes / 8.0).max(1.0) + xs);
            m.cuda_ops = 8.0 * r + 2.0 * chunks;
            m.atomics = r;
            m.stores = r;
            m.sectors_written = r;
            m.footprint = 8.0 * nnz + 4.0 * r + xbytes + chunks * xs * 32.0;
        }
        EngineKind::Gunrock => {
            // Edge-centric: one warp per 32 edges, five gathers, then an
            // atomic scatter per row segment (the Gunrock limiter).
            let warps = (nnz / 32.0).ceil();
            m.loads = 5.0 * warps;
            m.sectors_read = warps * (4.0 * 4.0 + x_sectors(32.0, stats.ncols, 0.85));
            m.cuda_ops = 8.0 * warps;
            m.atomics = r + warps;
            m.stores = 0.0;
            m.sectors_written = r + warps;
            m.footprint = 16.0 * nnz + xbytes;
        }
        EngineKind::Dasp => {
            // Degree-sorted 8×4 tiles: one m8n8k4 per step. Sorting keeps
            // groups balanced, so padding is mild; the discriminator is
            // the m8n8k4 rate (crippled on the L40, native on the V100).
            // Each group of 8 degree-sorted rows takes ceil(max_deg/4)
            // steps: the ceil plus the within-group max add ~0.8 steps per
            // group over the dense packing nnz/32 (dominant at low mean
            // degree, where most groups round a 1-2 element remainder up
            // to a whole 4-wide step).
            let groups = (r / 8.0).ceil();
            let steps = (nnz / 32.0 + 0.8 * groups).max(groups);
            m.mma4 = steps;
            m.loads = 3.0 * steps;
            m.sectors_read = steps * (2.0 + 4.0 + x_sectors(32.0, stats.ncols, 0.8));
            m.cuda_ops = 7.0 * steps + 2.0 * groups;
            m.stores = groups;
            m.sectors_written = groups;
            m.footprint = 192.0 * steps + xbytes; // padded 8x4 f16 tiles + u32 cols
        }
        EngineKind::MergeCsr => {
            // Merge-path: perfectly balanced items, binary-search probes
            // per warp, atomic writes at row ends.
            let items = nnz + r;
            let warps = (items / 128.0).ceil();
            let probes = items.max(2.0).log2().ceil();
            let chunks = (nnz / 32.0).max(warps);
            m.loads = 4.0 * warps + 3.0 * chunks;
            m.sectors_read =
                4.0 * warps + chunks * (8.0 + x_sectors(32.0, stats.ncols, 0.85));
            m.cuda_ops = 2.0 * probes * warps + 2.0 * chunks + 6.0 * r;
            m.atomics = r + warps;
            m.sectors_written = r + warps;
            m.footprint = 8.0 * nnz + 4.0 * r + xbytes;
        }
        EngineKind::CsrWarp16 => {
            // The §5.3 strawman: 16 rows per warp, one element per lane
            // per step — every load shatters into per-row sectors.
            let warps = (r / 16.0).ceil();
            let steps = warps * (d * (1.0 + 0.4 * (skew - 1.0).min(3.0))).max(1.0);
            m.loads = 2.0 * warps + 3.0 * steps;
            m.sectors_read =
                4.0 * warps + steps * (2.0 * 16.0 + x_sectors(16.0, stats.ncols, 1.0));
            m.cuda_ops = 8.0 * warps + 2.0 * steps;
            m.stores = warps;
            m.sectors_written = 2.0 * warps;
            m.footprint = 8.0 * nnz + 4.0 * r + xbytes;
        }
    }

    m.counters(config)
}

/// Reconstructs the counters the Spaden SpMM kernel
/// (`spaden::SpadenSpmmEngine`) would report for a batched sweep of width
/// `k`. Mirrors the SpMV arm's diagonal two-block accounting: the block
/// decode repeats once per 8-wide output column tile, the MMA count scales
/// with the tile count, and each (block, tile) visit adds the dense
/// B-fragment fill (two strided gathers, ~8 sectors) — the amortisation
/// that makes SpMM extract 128 useful values per MMA where SpMV extracts
/// 16.
pub fn predict_spmm_counters(stats: &MatrixStats, k: usize, config: &GpuConfig) -> KernelCounters {
    let k = k.max(1);
    let nnz = stats.nnz as f64;
    let b = stats.blocks();
    let br = stats.block_rows();
    let fill = stats.mean_fill();
    let skew = stats.skew();
    let tiles = k.div_ceil(BLOCK_DIM) as f64;
    let mut m = Model::default();

    let decode_loads = 6.0;
    let decode_sectors = 3.0 + (4.0 * fill).max(2.0) + 1.5;
    let decode_ops = 11.0;
    let fmt = 16.0 * b + 2.0 * nnz + 4.0 * br;
    let warps = (br / 2.0).ceil() * tiles;
    let pair_imbalance = 1.0 + 0.25 * (1.0 - 1.0 / skew);
    let steps = (b / 2.0) * pair_imbalance * tiles;
    let bt = b * tiles; // (block, column-tile) visits
    m.mma16 = steps;
    m.loads = (decode_loads + 2.0) * bt + 3.0 * warps;
    m.sectors_read = (decode_sectors + 8.0) * bt + 3.0 * warps;
    m.cuda_ops =
        (decode_ops + 5.0) * bt + 2.0 * steps + (2.0 * steps - bt).max(0.0) + 10.0 * warps;
    // Both diagonal portions extracted: 4 scatters per warp, two 8×8 f32
    // output tiles (16 sectors).
    m.stores = 4.0 * warps;
    m.sectors_written = 16.0 * warps;
    m.footprint = fmt + (stats.ncols * 4 * k) as f64;
    m.counters(config)
}

/// Predicted [`SimTime`] of one batched SpMM sweep of width `k`.
pub fn predict_spmm_time(stats: &MatrixStats, k: usize, config: &GpuConfig) -> SimTime {
    estimate_time(&predict_spmm_counters(stats, k, config), config)
}

/// Smallest batch width `w ∈ 2..=max_width` at which one SpMM sweep is
/// predicted cheaper than `w` independent Spaden SpMV launches, or `None`
/// if batching never wins within the cap. This is the per-batch
/// SpMV-vs-SpMM crossover the serving layer stores in each snapshot.
pub fn spmm_crossover(stats: &MatrixStats, config: &GpuConfig, max_width: usize) -> Option<usize> {
    let spmv = predict_time(EngineKind::Spaden, stats, config).seconds;
    (2..=max_width).find(|&w| predict_spmm_time(stats, w, config).seconds < w as f64 * spmv)
}

/// The cuSPARSE adaptive vector-width heuristic (mirrors
/// `spaden_baselines::cusparse_csr::vector_width_for` plus its max-degree
/// clamp), as an f64 for the model.
fn vector_width(mean_degree: f64, max_degree: usize) -> f64 {
    let mut w = 2usize;
    while (w as f64) < mean_degree / 2.0 && w < 32 {
        w *= 2;
    }
    w.min(max_degree.next_power_of_two().max(2)) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_sparse::gen;

    fn stats(csr: &Csr) -> MatrixStats {
        MatrixStats::of(csr)
    }

    #[test]
    fn stats_from_fingerprint_match_direct() {
        let csr = gen::random_uniform(300, 300, 6000, 71);
        let fp = spaden_sparse::fingerprint(&csr);
        assert_eq!(MatrixStats::from_fingerprint(&fp), stats(&csr));
    }

    #[test]
    fn predictions_are_finite_and_ranked_deterministically() {
        let csr = gen::random_uniform(256, 256, 5000, 73);
        let s = stats(&csr);
        let config = GpuConfig::l40();
        let a = rank_engines(&s, &config, &crate::registry::ALL_ENGINES);
        let b = rank_engines(&s, &config, &crate::registry::ALL_ENGINES);
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind, y.kind);
            assert!(x.predicted.seconds.is_finite() && x.predicted.seconds > 0.0);
        }
        // Sorted fastest-first.
        for w in a.windows(2) {
            assert!(w[0].predicted.seconds <= w[1].predicted.seconds);
        }
    }

    #[test]
    fn dasp_predicted_slower_on_l40_than_v100() {
        // The m8n8k4 contrast must survive the prediction path.
        let csr = gen::random_uniform(2048, 2048, 200_000, 75);
        let s = stats(&csr);
        let l40 = predict_time(EngineKind::Dasp, &s, &GpuConfig::l40());
        let v100 = predict_time(EngineKind::Dasp, &s, &GpuConfig::v100());
        assert!(l40.t_tensor > v100.t_tensor);
    }

    #[test]
    fn warp16_predicted_slower_than_adaptive_csr() {
        let csr = gen::random_uniform(4096, 4096, 400_000, 77);
        let s = stats(&csr);
        let config = GpuConfig::l40();
        let fast = predict_time(EngineKind::CusparseCsr, &s, &config);
        let slow = predict_time(EngineKind::CsrWarp16, &s, &config);
        let overhead = config.launch_overhead_s;
        assert!(slow.seconds - overhead > 1.5 * (fast.seconds - overhead));
    }

    #[test]
    fn spmm_amortises_and_crosses_over_within_a_tile() {
        // One 8-wide sweep shares the decode across 8 columns, so it must
        // be predicted far cheaper than 8 independent SpMVs — and with a
        // 3 µs launch overhead per SpMV, the crossover lands at width 2.
        let csr = gen::generate_blocked(
            512,
            400,
            gen::Placement::Scattered,
            &gen::FillDist::Uniform { lo: 8, hi: 40 },
            81,
        );
        let s = stats(&csr);
        let config = GpuConfig::l40();
        let spmv = predict_time(EngineKind::Spaden, &s, &config).seconds;
        let spmm8 = predict_spmm_time(&s, 8, &config).seconds;
        assert!(spmm8 < 4.0 * spmv, "spmm(8) {spmm8:.2e} vs 8x spmv {:.2e}", 8.0 * spmv);
        assert_eq!(spmm_crossover(&s, &config, 8), Some(2));
    }

    #[test]
    fn spmm_prediction_is_monotone_in_width_and_tile_quantised() {
        let csr = gen::random_uniform(256, 256, 5000, 73);
        let s = stats(&csr);
        let config = GpuConfig::l40();
        let times: Vec<f64> =
            [1, 2, 4, 8, 16].iter().map(|&k| predict_spmm_time(&s, k, &config).seconds).collect();
        for w in times.windows(2) {
            assert!(w[0] <= w[1], "wider batches never predicted cheaper: {times:?}");
        }
        // Widths within one 8-wide tile cost the same sweep.
        let c4 = predict_spmm_counters(&s, 4, &config);
        let c8 = predict_spmm_counters(&s, 8, &config);
        assert_eq!(c4.mma_m16n16k16, c8.mma_m16n16k16);
        // The single-tile MMA count matches the SpMV arm's prediction.
        let spmv = predict_counters(EngineKind::Spaden, &s, &config);
        assert_eq!(c8.mma_m16n16k16, spmv.mma_m16n16k16);
    }

    #[test]
    fn bsr_pays_for_sparse_blocks() {
        // Near-empty blocks: BSR's dense 256 B blocks must be predicted
        // to move far more data than Spaden's bitmap format.
        let csr = gen::generate_blocked(
            1024,
            2000,
            gen::Placement::Scattered,
            &gen::FillDist::Uniform { lo: 1, hi: 4 },
            79,
        );
        let s = stats(&csr);
        let config = GpuConfig::l40();
        let bsr = predict_counters(EngineKind::CusparseBsr, &s, &config);
        let spaden = predict_counters(EngineKind::Spaden, &s, &config);
        assert!(bsr.dram_read_bytes > 3 * spaden.dram_read_bytes);
    }
}
