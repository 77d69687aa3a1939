//! bitBSR: the paper's bitmap-based blocked sparse format (§4.2).
//!
//! The matrix is divided into 8×8 blocks whose positions are encoded as a
//! CSR over the block grid. Each non-empty block stores:
//!
//! * a **64-bit bitmap** — bit `dr * 8 + dc` set iff element `(dr, dc)` of
//!   the block is nonzero; "the least and most significant bits correspond
//!   to the top-left and bottom-right elements" (Figure 4);
//! * its nonzero **values packed consecutively in f16** (tensor-core input
//!   precision — this is what yields the paper's 2.85 bytes/nnz);
//! * an offset into the value array, obtained by an exclusive scan over
//!   per-block nonzero counts ("It enables the quick location of the
//!   starting index of each block in the value array").

use spaden_gpusim::half::F16;
use spaden_sparse::csr::Csr;
use spaden_sparse::gen::BLOCK_DIM;
use spaden_sparse::stats::BlockProfile;
use spaden_sparse::{blockrow, par};
use spaden_sparse::types::{validate_offsets, SparseError, SparseResult};

/// A sparse matrix in bitBSR format.
#[derive(Debug, Clone, PartialEq)]
pub struct BitBsr {
    /// Rows of the original matrix.
    pub nrows: usize,
    /// Columns of the original matrix.
    pub ncols: usize,
    /// Block rows (`Bnrow` = `ceil(nrows / 8)`).
    pub block_rows: usize,
    /// Block columns.
    pub block_cols_dim: usize,
    /// `block_rows + 1` offsets into `block_cols` / `bitmaps`.
    pub block_row_ptr: Vec<u32>,
    /// Block-column index per non-empty block (`Bnnz` entries).
    pub block_cols: Vec<u32>,
    /// Occupancy bitmap per block, LSB = top-left element.
    pub bitmaps: Vec<u64>,
    /// `Bnnz + 1` exclusive-scanned nonzero counts: block `k`'s values are
    /// `values[block_offsets[k] .. block_offsets[k + 1]]`.
    pub block_offsets: Vec<u32>,
    /// All nonzero values in block order, bit order within a block, f16.
    pub values: Vec<F16>,
}

/// One run's blocks, in block order: what the walk in
/// [`BitBsr::from_csr`] emits besides the values it writes in place.
#[derive(Default)]
struct Blocks {
    /// Block count at the end of each block-row of the run.
    ends: Vec<u32>,
    cols: Vec<u32>,
    bitmaps: Vec<u64>,
    /// Global value offset of each block.
    offsets: Vec<u32>,
}

impl BitBsr {
    /// Converts from CSR in one linear walk per block-row (see
    /// [`spaden_sparse::blockrow`]), on nnz-balanced pool runs.
    ///
    /// The walk meets a block-row's nonzeros in bitBSR's bit order, so it
    /// packs each value as it goes: block-row `br`'s values are exactly
    /// its CSR range `row_ptr[8·br] .. row_ptr[8·br + 8]`, written in place
    /// into `values`, which is allocated once at its final size.
    ///
    /// Values are rounded to f16 here, once, at conversion time — exactly
    /// like the CUDA implementation, which converts while building the
    /// device arrays.
    pub fn from_csr(csr: &Csr) -> Self {
        let block_rows = csr.nrows.div_ceil(BLOCK_DIM);
        let block_cols_dim = csr.ncols.div_ceil(BLOCK_DIM);
        let start = |br: usize| blockrow::csr_start(csr, BLOCK_DIM, br);
        let runs = blockrow::runs(block_rows, start);

        let mut values = vec![F16::ZERO; csr.nnz()];
        let mut parts: Vec<Blocks> = runs.iter().map(|_| Blocks::default()).collect();
        let lens = runs.iter().map(|r| start(r.end) - start(r.start));
        let windows = blockrow::split_mut(&mut values, lens);
        let items: Vec<_> = runs.iter().cloned().zip(windows).zip(&mut parts).collect();
        par::for_each_task(items, |_, ((run, out), part)| {
            let base = start(run.start);
            let mut at = 0;
            for br in run {
                let mut cur = u32::MAX;
                blockrow::for_each_nonzero(csr, br, BLOCK_DIM, |bc, dr, dc, v| {
                    if bc != cur {
                        cur = bc;
                        part.cols.push(bc);
                        part.bitmaps.push(0);
                        part.offsets.push((base + at) as u32);
                    }
                    *part.bitmaps.last_mut().expect("block opened above") |=
                        1u64 << (dr * BLOCK_DIM + dc);
                    out[at] = F16::from_f32(v);
                    at += 1;
                });
                part.ends.push(part.cols.len() as u32);
            }
        });

        // Stitch the runs' blocks together; one run is moved, not copied.
        let bnnz: usize = parts.iter().map(|p| p.cols.len()).sum();
        let mut parts = parts.into_iter();
        let mut all = parts.next().unwrap_or_default();
        all.cols.reserve_exact(bnnz - all.cols.len());
        all.bitmaps.reserve_exact(bnnz - all.bitmaps.len());
        all.offsets.reserve_exact(bnnz + 1 - all.offsets.len());
        for p in parts {
            let shift = all.cols.len() as u32;
            all.ends.extend(p.ends.iter().map(|e| e + shift));
            all.cols.extend_from_slice(&p.cols);
            all.bitmaps.extend_from_slice(&p.bitmaps);
            all.offsets.extend_from_slice(&p.offsets);
        }
        all.offsets.push(csr.nnz() as u32);
        let mut block_row_ptr = Vec::with_capacity(block_rows + 1);
        block_row_ptr.push(0);
        block_row_ptr.extend_from_slice(&all.ends);

        BitBsr {
            nrows: csr.nrows,
            ncols: csr.ncols,
            block_rows,
            block_cols_dim,
            block_row_ptr,
            block_cols: all.cols,
            bitmaps: all.bitmaps,
            block_offsets: all.offsets,
            values,
        }
    }

    /// Non-empty block count (`Bnnz`).
    #[inline]
    pub fn bnnz(&self) -> usize {
        self.block_cols.len()
    }

    /// Stored nonzero count.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Nonzeros in block `k`.
    #[inline]
    pub fn block_nnz(&self, k: usize) -> usize {
        (self.block_offsets[k + 1] - self.block_offsets[k]) as usize
    }

    /// Device memory footprint in bytes — the quantity of Figure 10b.
    pub fn bytes(&self) -> usize {
        self.block_row_ptr.len() * 4
            + self.block_cols.len() * 4
            + self.bitmaps.len() * 8
            + self.block_offsets.len() * 4
            + self.values.len() * 2
    }

    /// Compression rate of the position encoding versus COO
    /// (`sizeof(COO positions) / sizeof(bitmap)`, §4.2: 1–64×).
    pub fn position_compression_rate(&self) -> f64 {
        if self.bnnz() == 0 {
            return 1.0;
        }
        (self.nnz() * 8) as f64 / (self.bnnz() * 8) as f64
    }

    /// Block class profile (Figure 9a) straight from the bitmaps.
    pub fn block_profile(&self) -> BlockProfile {
        let mut p = BlockProfile::default();
        for bmp in &self.bitmaps {
            p.add_block(bmp.count_ones() as usize);
        }
        p
    }

    /// Densifies block `k` into a row-major 8×8 array (decode reference).
    pub fn decode_block(&self, k: usize) -> [f32; BLOCK_DIM * BLOCK_DIM] {
        let mut out = [0.0f32; BLOCK_DIM * BLOCK_DIM];
        let bmp = self.bitmaps[k];
        let base = self.block_offsets[k] as usize;
        let mut idx = 0usize;
        for bit in 0..64 {
            if bmp & (1u64 << bit) != 0 {
                out[bit] = self.values[base + idx].to_f32();
                idx += 1;
            }
        }
        out
    }

    /// Converts back to CSR. Values carry the f16 rounding applied at
    /// conversion (lossless for values that were already f16-representable).
    pub fn to_csr(&self) -> Csr {
        let mut coo = spaden_sparse::coo::Coo::new(self.nrows, self.ncols);
        for br in 0..self.block_rows {
            let lo = self.block_row_ptr[br] as usize;
            let hi = self.block_row_ptr[br + 1] as usize;
            for k in lo..hi {
                let bc = self.block_cols[k] as usize;
                let dense = self.decode_block(k);
                for (bit, &v) in dense.iter().enumerate() {
                    if self.bitmaps[k] & (1u64 << bit) != 0 {
                        let r = br * BLOCK_DIM + bit / BLOCK_DIM;
                        let c = bc * BLOCK_DIM + bit % BLOCK_DIM;
                        coo.push(r as u32, c as u32, v);
                    }
                }
            }
        }
        coo.to_csr()
    }

    /// Host SpMV in the tensor-core kernel's order (Algorithms 3–4): each
    /// row has one f32 accumulator, starting at +0.0 and chained across its
    /// block-row's blocks in block order. Within a block the set bits are
    /// visited in ascending order, and each adds `a * round_f16(x[c])`
    /// unfused.
    ///
    /// When every value and every f16-rounded `x[c]` is finite this equals
    /// the simulated Spaden kernel's `y` bit for bit (both packings, either
    /// fragment path), which is what lets `SpadenEngine` replay a launch:
    /// - the accumulator starts at +0.0, and a sum is −0.0 only when both
    ///   terms are, so it never becomes −0.0;
    /// - every product the kernel adds and this loop skips (clear bits,
    ///   the fragment's zero portions, an exhausted row against stale `x`,
    ///   columns past `ncols` read as zero) is ±0 times a finite value, and
    ///   `acc + ±0 == acc` when `acc` is not −0.0;
    /// - every other product is the same f32 multiply of two f16 values,
    ///   added in the same order.
    pub fn spmv_reference(&self, x: &[f32]) -> SparseResult<Vec<f32>> {
        if x.len() != self.ncols {
            return Err(SparseError::ShapeMismatch {
                what: format!("x.len() = {}, ncols = {}", x.len(), self.ncols),
            });
        }
        let x16: Vec<f32> = x.iter().map(|&v| F16::round_f32(v)).collect();
        Ok(self.spmv_widened(&self.widened_values(), &x16))
    }

    /// Every stored value widened to f32, in storage order.
    pub(crate) fn widened_values(&self) -> Vec<f32> {
        self.values.iter().map(|v| v.to_f32()).collect()
    }

    /// The loop of [`BitBsr::spmv_reference`], over the values already
    /// widened (`wide`, from `widened_values`) and an `x16` already rounded
    /// to f16. Both conversions are pure, so doing them once up front
    /// instead of once per nonzero changes no bit. Panics unless `wide`
    /// holds one value per nonzero and `x16` one per column.
    pub(crate) fn spmv_widened(&self, wide: &[f32], x16: &[f32]) -> Vec<f32> {
        assert_eq!(wide.len(), self.values.len(), "one widened value per nonzero");
        assert_eq!(x16.len(), self.ncols, "x length mismatch");
        let mut y = vec![0.0f32; self.nrows];
        for br in 0..self.block_rows {
            let lo = self.block_row_ptr[br] as usize;
            let hi = self.block_row_ptr[br + 1] as usize;
            let mut acc = [0.0f32; BLOCK_DIM];
            for k in lo..hi {
                let c0 = self.block_cols[k] as usize * BLOCK_DIM;
                let mut v = self.block_offsets[k] as usize;
                let mut bits = self.bitmaps[k];
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let c = c0 + bit % BLOCK_DIM;
                    if c < self.ncols {
                        acc[bit / BLOCK_DIM] += wide[v] * x16[c];
                    }
                    v += 1;
                }
            }
            for (out, a) in y.iter_mut().skip(br * BLOCK_DIM).zip(acc) {
                *out = a;
            }
        }
        y
    }

    /// Extracts block-rows `lo..hi` as a standalone bitBSR matrix whose
    /// row 0 is global row `lo * BLOCK_DIM`. Column indices are untouched
    /// (a shard multiplies against the full `x`), so the concatenation of
    /// per-shard SpMV outputs over a partition of the block-rows is
    /// exactly the full matrix's output.
    pub fn slice_block_rows(&self, lo: usize, hi: usize) -> BitBsr {
        assert!(lo <= hi && hi <= self.block_rows, "slice {lo}..{hi} of {}", self.block_rows);
        let b_lo = self.block_row_ptr[lo] as usize;
        let b_hi = self.block_row_ptr[hi] as usize;
        let v_lo = self.block_offsets[b_lo];
        let v_hi = self.block_offsets[b_hi] as usize;
        let nrows = if hi == self.block_rows {
            self.nrows.saturating_sub(lo * BLOCK_DIM)
        } else {
            (hi - lo) * BLOCK_DIM
        };
        BitBsr {
            nrows,
            ncols: self.ncols,
            block_rows: hi - lo,
            block_cols_dim: self.block_cols_dim,
            block_row_ptr: self.block_row_ptr[lo..=hi]
                .iter()
                .map(|&p| p - b_lo as u32)
                .collect(),
            block_cols: self.block_cols[b_lo..b_hi].to_vec(),
            bitmaps: self.bitmaps[b_lo..b_hi].to_vec(),
            block_offsets: self.block_offsets[b_lo..=b_hi].iter().map(|&o| o - v_lo).collect(),
            values: self.values[v_lo as usize..v_hi].to_vec(),
        }
    }

    /// Structural invariants check.
    pub fn validate(&self) -> SparseResult<()> {
        validate_offsets(&self.block_row_ptr, self.bnnz(), "block_row_ptr")?;
        validate_offsets(&self.block_offsets, self.nnz(), "block_offsets")?;
        spaden_sparse::types::validate_indices(
            &self.block_cols,
            self.block_cols_dim,
            "block_cols",
        )?;
        for (k, &bmp) in self.bitmaps.iter().enumerate() {
            let want = (self.block_offsets[k + 1] - self.block_offsets[k]) as usize;
            if bmp.count_ones() as usize != want {
                return Err(SparseError::LengthMismatch {
                    what: format!(
                        "block {k}: popcount {} != offset span {want}",
                        bmp.count_ones()
                    ),
                });
            }
            if bmp == 0 {
                return Err(SparseError::LengthMismatch {
                    what: format!("block {k} is empty"),
                });
            }
        }
        Ok(())
    }
}

/// What a bitBSR-style format would cost at a different block size — the
/// §4.2 design-space analysis behind the choice of 8×8 / u64 ("the block
/// size affects the compression rate, as larger sizes will retain more
/// zero bits within the blocks").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSizeAnalysis {
    /// Block edge length analysed.
    pub dim: usize,
    /// Non-empty blocks at this size.
    pub blocks: usize,
    /// Bitmap bytes per block (`dim² / 8`).
    pub bitmap_bytes: usize,
    /// Total format bytes (block CSR + bitmaps + offsets + f16 values).
    pub total_bytes: usize,
    /// Mean nonzeros per non-empty block.
    pub mean_fill: f64,
}

impl BlockSizeAnalysis {
    /// Bytes per nonzero at this block size.
    pub fn bytes_per_nnz(&self, nnz: usize) -> f64 {
        self.total_bytes as f64 / nnz.max(1) as f64
    }
}

/// Analyses the bitmap-format footprint of `csr` for an alternative block
/// edge `dim` (e.g. 4 → u16 bitmaps, 8 → u64, 16 → four u64 words).
pub fn analyze_block_size(csr: &Csr, dim: usize) -> BlockSizeAnalysis {
    assert!(dim.is_power_of_two() && (2..=64).contains(&dim));
    let block_rows = csr.nrows.div_ceil(dim);
    let blocks: usize = blockrow::map_runs(csr, dim, |run| {
        run.map(|br| blockrow::block_count(csr, br, dim)).sum::<usize>()
    })
    .into_iter()
    .sum();
    // Bitmaps are whole bytes, minimum one machine-friendly word of
    // dim²/8 bytes (4x4 -> u16, 8x8 -> u64, 16x16 -> 32 bytes).
    let bitmap_bytes = (dim * dim).div_ceil(8);
    let total_bytes = (block_rows + 1) * 4           // block_row_ptr
        + blocks * (4 + bitmap_bytes + 4)            // col + bitmap + offset
        + csr.nnz() * 2; // f16 values
    BlockSizeAnalysis {
        dim,
        blocks,
        bitmap_bytes,
        total_bytes,
        mean_fill: if blocks == 0 { 0.0 } else { csr.nnz() as f64 / blocks as f64 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_sparse::gen::{self, FillDist, Placement};

    fn round_csr_to_f16(csr: &Csr) -> Csr {
        let mut c = csr.clone();
        for v in &mut c.values {
            *v = F16::round_f32(*v);
        }
        c
    }

    #[test]
    fn figure4_bit_order() {
        // A single block with only element (0,0) set: row0 = 0x01.
        let csr = Csr::new(8, 8, vec![0, 1, 1, 1, 1, 1, 1, 1, 1], vec![0], vec![2.0]).unwrap();
        let b = BitBsr::from_csr(&csr);
        assert_eq!(b.bnnz(), 1);
        assert_eq!(b.bitmaps[0], 0x01, "LSB is the top-left element");
        // Bottom-right element -> MSB.
        let csr2 = Csr::new(8, 8, vec![0, 0, 0, 0, 0, 0, 0, 0, 1], vec![7], vec![3.0]).unwrap();
        let b2 = BitBsr::from_csr(&csr2);
        assert_eq!(b2.bitmaps[0], 1u64 << 63, "MSB is the bottom-right element");
    }

    #[test]
    fn roundtrip_equals_f16_rounded_csr() {
        let csr = gen::random_uniform(100, 90, 800, 91);
        let b = BitBsr::from_csr(&csr);
        assert!(b.validate().is_ok());
        assert_eq!(b.to_csr(), round_csr_to_f16(&csr));
    }

    #[test]
    fn roundtrip_blocked() {
        let csr = gen::generate_blocked(
            512,
            300,
            Placement::Banded { bandwidth: 8 },
            &FillDist::Uniform { lo: 1, hi: 64 },
            93,
        );
        let b = BitBsr::from_csr(&csr);
        assert_eq!(b.nnz(), csr.nnz());
        assert_eq!(b.to_csr(), round_csr_to_f16(&csr));
    }

    #[test]
    fn block_structure_matches_bsr() {
        let csr = gen::generate_blocked(
            256,
            120,
            Placement::Scattered,
            &FillDist::Uniform { lo: 1, hi: 40 },
            95,
        );
        let bsr = spaden_sparse::bsr::Bsr::from_csr(&csr);
        let bit = BitBsr::from_csr(&csr);
        assert_eq!(bit.bnnz(), bsr.bnnz());
        assert_eq!(bit.block_row_ptr, bsr.block_row_ptr);
        assert_eq!(bit.block_cols, bsr.block_cols);
    }

    #[test]
    fn decode_block_matches_bsr_block() {
        let csr = gen::generate_blocked(
            128,
            40,
            Placement::Scattered,
            &FillDist::Uniform { lo: 5, hi: 60 },
            97,
        );
        let bsr = spaden_sparse::bsr::Bsr::from_csr(&csr);
        let bit = BitBsr::from_csr(&csr);
        for k in 0..bit.bnnz() {
            let d = bit.decode_block(k);
            let b = bsr.block(k);
            for i in 0..64 {
                assert_eq!(d[i], F16::round_f32(b[i]), "block {k} elem {i}");
            }
        }
    }

    #[test]
    fn offsets_are_popcount_scan() {
        let csr = gen::random_uniform(64, 64, 500, 99);
        let b = BitBsr::from_csr(&csr);
        let mut acc = 0u32;
        for (k, &bmp) in b.bitmaps.iter().enumerate() {
            assert_eq!(b.block_offsets[k], acc);
            acc += bmp.count_ones();
        }
        assert_eq!(*b.block_offsets.last().unwrap(), acc);
        assert_eq!(acc as usize, csr.nnz());
    }

    #[test]
    fn spmv_reference_matches_csr_within_f16_error() {
        let csr = gen::generate_blocked(
            256,
            150,
            Placement::Banded { bandwidth: 6 },
            &FillDist::Uniform { lo: 4, hi: 50 },
            101,
        );
        let b = BitBsr::from_csr(&csr);
        let x: Vec<f32> = (0..256).map(|i| ((i * 13 % 31) as f32) * 0.125).collect();
        let y = b.spmv_reference(&x).unwrap();
        let oracle = csr.spmv_f64(&x).unwrap();
        for (r, (a, o)) in y.iter().zip(&oracle).enumerate() {
            let scale = csr.row_nnz(r) as f64 * 8.0; // |v|<=1, |x|<=8
            let tol = 2.0f64.powi(-11) * 2.0 * scale + 1e-4;
            assert!((*a as f64 - o).abs() <= tol, "row {r}: {a} vs {o}");
        }
    }

    #[test]
    fn bytes_per_nnz_beats_bsr_and_csr_on_typical_fill() {
        // Mean fill ~22 (the FEM matrices): bitBSR ~2.7 B/nnz vs CSR ~8,
        // BSR ~12+.
        let csr = gen::generate_blocked(
            1024,
            1200,
            Placement::Banded { bandwidth: 10 },
            &FillDist::Uniform { lo: 8, hi: 36 },
            103,
        );
        let bit = BitBsr::from_csr(&csr);
        let bsr = spaden_sparse::bsr::Bsr::from_csr(&csr);
        let per_nnz = |bytes: usize| bytes as f64 / csr.nnz() as f64;
        assert!(per_nnz(bit.bytes()) < 3.5, "bitBSR {}", per_nnz(bit.bytes()));
        assert!(per_nnz(bit.bytes()) < per_nnz(csr.bytes()) / 2.0);
        assert!(per_nnz(bit.bytes()) < per_nnz(bsr.bytes()) / 3.0);
    }

    #[test]
    fn empty_matrix() {
        let b = BitBsr::from_csr(&Csr::empty(32, 32));
        assert_eq!(b.bnnz(), 0);
        assert_eq!(b.nnz(), 0);
        assert!(b.validate().is_ok());
        assert_eq!(b.spmv_reference(&[0.0; 32]).unwrap(), vec![0.0; 32]);
    }

    #[test]
    fn non_multiple_of_eight_dimensions() {
        let csr = gen::random_uniform(101, 77, 600, 105);
        let b = BitBsr::from_csr(&csr);
        assert_eq!(b.block_rows, 13);
        assert_eq!(b.block_cols_dim, 10);
        assert!(b.validate().is_ok());
        assert_eq!(b.to_csr(), round_csr_to_f16(&csr));
    }

    #[test]
    fn block_profile_matches_stats_module() {
        let csr = gen::generate_blocked(
            512,
            400,
            Placement::Scattered,
            &FillDist::Uniform { lo: 1, hi: 64 },
            107,
        );
        let from_bitbsr = BitBsr::from_csr(&csr).block_profile();
        let from_csr = spaden_sparse::stats::block_profile(&csr);
        assert_eq!(from_bitbsr, from_csr);
    }

    #[test]
    fn block_size_analysis_8_matches_real_format() {
        let csr = gen::generate_blocked(
            512,
            300,
            Placement::Banded { bandwidth: 8 },
            &FillDist::Uniform { lo: 4, hi: 40 },
            117,
        );
        let b = BitBsr::from_csr(&csr);
        let a = analyze_block_size(&csr, 8);
        assert_eq!(a.blocks, b.bnnz());
        // Analysis omits the final offset entry and pointer tail rounding;
        // it must agree with the real format within a few words.
        let diff = (a.total_bytes as i64 - b.bytes() as i64).unsigned_abs() as usize;
        assert!(diff <= 8, "analysis {} vs real {}", a.total_bytes, b.bytes());
    }

    #[test]
    fn block_size_tradeoff_shape() {
        // Small blocks: more blocks, less zero retention. Large blocks:
        // fewer blocks, bigger bitmaps. For a moderately sparse blocked
        // matrix, 4x4 needs more index overhead than 8x8.
        let csr = gen::generate_blocked(
            1024,
            900,
            Placement::Scattered,
            &FillDist::Uniform { lo: 8, hi: 24 },
            119,
        );
        let a4 = analyze_block_size(&csr, 4);
        let a8 = analyze_block_size(&csr, 8);
        let a16 = analyze_block_size(&csr, 16);
        assert!(a4.blocks > a8.blocks);
        assert!(a16.blocks <= a8.blocks);
        assert!(a4.mean_fill < a8.mean_fill);
        assert_eq!(a4.bitmap_bytes, 2);
        assert_eq!(a8.bitmap_bytes, 8);
        assert_eq!(a16.bitmap_bytes, 32);
        // 8x8 should not lose to 4x4 here (index overhead dominates 4x4).
        assert!(
            a8.bytes_per_nnz(csr.nnz()) <= a4.bytes_per_nnz(csr.nnz()),
            "8x8 {} vs 4x4 {}",
            a8.bytes_per_nnz(csr.nnz()),
            a4.bytes_per_nnz(csr.nnz())
        );
    }

    #[test]
    fn slice_block_rows_recombines_to_full_spmv() {
        let csr = gen::random_uniform(217, 150, 3000, 131);
        let b = BitBsr::from_csr(&csr);
        let x: Vec<f32> = (0..150).map(|i| ((i * 7 % 23) as f32) * 0.5 - 2.0).collect();
        let full = b.spmv_reference(&x).unwrap();
        for cuts in [vec![0, 28], vec![0, 2, 28], vec![0, 8, 9, 20, 28]] {
            let mut y = Vec::new();
            for w in cuts.windows(2) {
                let s = b.slice_block_rows(w[0], w[1]);
                assert!(s.validate().is_ok(), "slice {}..{}", w[0], w[1]);
                assert_eq!(s.block_rows, w[1] - w[0]);
                y.extend(s.spmv_reference(&x).unwrap());
            }
            assert_eq!(y, full, "cuts {cuts:?} must recombine bit-identically");
        }
    }

    #[test]
    fn slice_block_rows_handles_empty_and_boundary_slices() {
        let csr = gen::random_uniform(101, 77, 600, 133);
        let b = BitBsr::from_csr(&csr);
        let empty = b.slice_block_rows(13, 13);
        assert_eq!(empty.nrows, 0);
        assert_eq!(empty.bnnz(), 0);
        assert!(empty.validate().is_ok());
        // The last slice of a non-multiple-of-8 matrix keeps the partial
        // block-row's true row count.
        let tail = b.slice_block_rows(12, 13);
        assert_eq!(tail.nrows, 101 - 96);
        let all = b.slice_block_rows(0, 13);
        assert_eq!(all, b);
    }

    #[test]
    fn position_compression_rate_in_paper_range() {
        // Dense blocks: 64 nnz * 8 B of COO positions vs 8 B of bitmap = 64x.
        let dense = gen::generate_blocked(64, 20, Placement::Scattered, &FillDist::Dense, 109);
        let b = BitBsr::from_csr(&dense);
        assert!((b.position_compression_rate() - 64.0).abs() < 1e-9);
        // Singleton blocks: 1x.
        let single = gen::generate_blocked(
            512,
            60,
            Placement::Scattered,
            &FillDist::Uniform { lo: 1, hi: 1 },
            111,
        );
        let b1 = BitBsr::from_csr(&single);
        let rate = b1.position_compression_rate();
        assert!((1.0..2.5).contains(&rate), "rate {rate}");
    }
}
