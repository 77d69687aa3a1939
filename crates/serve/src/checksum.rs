//! Block-row checksums for the f32 CSR ladder rung.
//!
//! The bottom rung of the failover ladder runs the cuSPARSE-style CSR
//! baseline, whose arithmetic uses the *unrounded* f32 values — the ABFT
//! checksums in `spaden::abft` are built from the f16 values the bitBSR
//! kernels multiply and would reject a correct f32 result. This module is
//! the same Huang–Abraham construction (plain and row-weighted column sums
//! per block-row of [`BLOCK_DIM`] output rows, precomputed in f64) built
//! from the CSR's own f32 values and compared against unrounded `x`, so
//! the CSR rung gets an equally strong verified-or-rejected guarantee and
//! the serving layer never returns an unverified result from any rung.

use spaden::abft::Entries;
use spaden_sparse::csr::Csr;
use spaden_sparse::gen::BLOCK_DIM;

/// Precomputed f32-value column sums of one CSR matrix, grouped by
/// block-row (CSR-like layout: block-row `br` owns `ptr[br]..ptr[br+1]`).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrChecksums {
    nrows: usize,
    ncols: usize,
    ptr: Vec<u32>,
    entries: Entries,
    nnz_br: Vec<u32>,
}

/// Dense per-column accumulators, reused across block-rows. `touched`
/// keeps the reset cost proportional to a block-row's support, and
/// `seen` (block-row + 1 of the last visit, an epoch marker rather than
/// the accumulators, since explicitly stored zeros must not duplicate a
/// column) gates the push. Every array starts zeroed, so a repair's
/// accumulators cost the pages its touched columns land on, not `ncols`.
struct Accumulators {
    sum: Vec<f64>,
    wsum: Vec<f64>,
    abs: Vec<f64>,
    seen: Vec<u32>,
    touched: Vec<u32>,
}

impl Accumulators {
    fn new(ncols: usize) -> Self {
        let zeros = || vec![0.0f64; ncols];
        let (sum, wsum, abs) = (zeros(), zeros(), zeros());
        Accumulators { sum, wsum, abs, seen: vec![0; ncols], touched: Vec::new() }
    }

    /// Appends block-row `br` of `csr` to `out`, the one routine behind
    /// both [`CsrChecksums::build`] and [`CsrChecksums::repaired`]:
    /// one entry per column the block-row stores, in column order, each
    /// summed from +0.0 over its rows in row order. Returns the
    /// block-row's nonzero count.
    fn push_block_row(&mut self, csr: &Csr, br: usize, out: &mut Entries) -> u32 {
        let r_lo = br * BLOCK_DIM;
        let r_hi = ((br + 1) * BLOCK_DIM).min(csr.nrows);
        let epoch = br as u32 + 1;
        let mut n = 0u32;
        for r in r_lo..r_hi {
            let (rcols, rvals) = csr.row(r);
            n += rcols.len() as u32;
            for (c, v) in rcols.iter().zip(rvals) {
                let ci = *c as usize;
                if self.seen[ci] != epoch {
                    self.seen[ci] = epoch;
                    self.touched.push(*c);
                }
                let v = *v as f64;
                self.sum[ci] += v;
                self.wsum[ci] += (r - r_lo + 1) as f64 * v;
                self.abs[ci] += v.abs();
            }
        }
        self.touched.sort_unstable();
        for &c in &self.touched {
            let ci = c as usize;
            out.cols.push(c);
            out.sums.push(std::mem::take(&mut self.sum[ci]));
            out.wsums.push(std::mem::take(&mut self.wsum[ci]));
            out.abs.push(std::mem::take(&mut self.abs[ci]));
        }
        self.touched.clear();
        n
    }
}

impl CsrChecksums {
    /// Precomputes checksums for `csr` (once, at matrix registration).
    pub fn build(csr: &Csr) -> Self {
        let block_rows = csr.nrows.div_ceil(BLOCK_DIM);
        let mut ptr = Vec::with_capacity(block_rows + 1);
        ptr.push(0u32);
        let mut entries = Entries::default();
        let mut nnz_br = Vec::with_capacity(block_rows);
        let mut acc = Accumulators::new(csr.ncols);
        for br in 0..block_rows {
            nnz_br.push(acc.push_block_row(csr, br, &mut entries));
            ptr.push(entries.cols.len() as u32);
        }
        CsrChecksums { nrows: csr.nrows, ncols: csr.ncols, ptr, entries, nnz_br }
    }

    /// The checksums of `csr`, the matrix after a commit that changed
    /// no block-row outside `touched` (sorted, distinct), given these
    /// checksums of the matrix before it; the result equals
    /// [`CsrChecksums::build`]`(csr)`. Only the touched block-rows are
    /// summed; the rest are copied from `self` ([`Entries::spliced`]).
    pub fn repaired(&self, csr: &Csr, touched: &[usize]) -> CsrChecksums {
        assert_eq!((csr.nrows, csr.ncols), (self.nrows, self.ncols), "repair of another shape");
        let mut fresh = Entries::default();
        let mut fresh_ptr = Vec::with_capacity(touched.len() + 1);
        fresh_ptr.push(0);
        let mut nnz_br = self.nnz_br.clone();
        let mut acc = Accumulators::new(csr.ncols);
        for &br in touched {
            nnz_br[br] = acc.push_block_row(csr, br, &mut fresh);
            fresh_ptr.push(fresh.cols.len());
        }
        let (entries, ptr) = self.entries.spliced(&self.ptr, touched, &fresh, &fresh_ptr);
        CsrChecksums { nrows: self.nrows, ncols: self.ncols, ptr, entries, nnz_br }
    }

    /// Number of block-rows covered.
    pub fn block_rows(&self) -> usize {
        self.nnz_br.len()
    }

    /// Checks one block-row of `y` against its checksums. `true` = passes.
    /// NaN/infinity anywhere in the block-row's outputs fails the check.
    pub fn check_block_row(&self, br: usize, x: &[f32], y: &[f32]) -> bool {
        let r_lo = br * BLOCK_DIM;
        let r_hi = ((br + 1) * BLOCK_DIM).min(self.nrows);
        let mut got = 0.0f64;
        let mut got_w = 0.0f64;
        for (dr, yr) in y[r_lo..r_hi].iter().enumerate() {
            let v = *yr as f64;
            got += v;
            got_w += (dr + 1) as f64 * v;
        }
        let mut expect = 0.0f64;
        let mut expect_w = 0.0f64;
        let mut scale = 0.0f64;
        for e in self.ptr[br] as usize..self.ptr[br + 1] as usize {
            let k = &self.entries;
            let xv = x[k.cols[e] as usize] as f64;
            expect += k.sums[e] * xv;
            expect_w += k.wsums[e] * xv;
            scale += k.abs[e] * xv.abs();
        }
        // The CSR kernel rounds each f32 product and partial sum at 2^-24
        // relative; worst-case accumulation error is linear in the
        // block-row nonzero count. Same bound shape (with the same 2x
        // headroom) as `spaden::abft`; injected faults flip high-order
        // bits and land far outside it.
        let tol = 2.0 * 2.0f64.powi(-23) * scale * (self.nnz_br[br] as f64 + 16.0) + 1e-7;
        // Written so NaN comparisons count as failures.
        (got - expect).abs() <= tol && (got_w - expect_w).abs() <= BLOCK_DIM as f64 * tol
    }

    /// Verifies all of `y`, returning the failing block-rows.
    pub fn verify(&self, x: &[f32], y: &[f32]) -> Vec<usize> {
        (0..self.block_rows()).filter(|&br| !self.check_block_row(br, x, y)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_sparse::delta::{apply_to_csr, Delta, DeltaBatch};
    use spaden_sparse::{gen, Pcg64};
    use std::collections::BTreeSet;

    fn make_x(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37 + 11) % 64) as f32 / 32.0 - 1.0).collect()
    }

    /// Every field, each f64 as its bits, so `==` is bit equality.
    type Bits = (usize, usize, Vec<u32>, Vec<u32>, Vec<u32>, [Vec<u64>; 3]);

    fn bits(c: &CsrChecksums) -> Bits {
        let f = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        let k = &c.entries;
        let sums = [f(&k.sums), f(&k.wsums), f(&k.abs)];
        (c.nrows, c.ncols, c.ptr.clone(), k.cols.clone(), c.nnz_br.clone(), sums)
    }

    /// Matrix values of both signs with explicit ±0 and f32 subnormals.
    fn edgy(mut csr: Csr) -> Csr {
        for (i, v) in csr.values.iter_mut().enumerate() {
            match i % 11 {
                3 => *v = 0.0,
                5 => *v = -0.0,
                7 => *v *= -1e-40,
                _ => {}
            }
        }
        csr
    }

    /// One random batch: overwrites (some with ±0), inserts anywhere, and
    /// inserts into a column another row of the same block-row stores.
    fn random_batch(truth: &Csr, rng: &mut Pcg64) -> DeltaBatch {
        let mut at = BTreeSet::new();
        let k = 1 + rng.below_usize(10);
        while at.len() < k {
            let row = rng.below_usize(truth.nrows);
            let col = match rng.below_usize(3) {
                0 => {
                    let (cols, _) = truth.row(row);
                    match cols.len() {
                        0 => continue,
                        n => cols[rng.below_usize(n)],
                    }
                }
                1 => {
                    let mate = (row & !(BLOCK_DIM - 1)) + rng.below_usize(BLOCK_DIM);
                    let (cols, _) = truth.row(mate.min(truth.nrows - 1));
                    match cols.len() {
                        0 => continue,
                        n => cols[rng.below_usize(n)],
                    }
                }
                _ => rng.below_usize(truth.ncols) as u32,
            };
            at.insert((row as u32, col));
        }
        let deltas = at
            .into_iter()
            .map(|(row, col)| {
                let value = match rng.below_usize(4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.range_f32(-2.0, 2.0),
                };
                Delta { row, col, value }
            })
            .collect();
        DeltaBatch::new(deltas, truth.nrows, truth.ncols).expect("in range")
    }

    #[test]
    fn repaired_block_rows_equal_a_fresh_build_bit_for_bit() {
        for seed in 0..6u64 {
            let mut truth = edgy(gen::random_uniform(203, 181, 1200, 83 + seed));
            let mut sums = CsrChecksums::build(&truth);
            let mut rng = Pcg64::new(seed, 0xc5);
            let (mut same, mut grown) = (0, 0);
            for step in 0..40 {
                let batch = random_batch(&truth, &mut rng);
                let before = sums.entries.cols.len();
                truth = apply_to_csr(&truth, &batch).expect("applies");
                sums = sums.repaired(&truth, &batch.touched_block_rows());
                if sums.entries.cols.len() == before { same += 1 } else { grown += 1 }
                let rebuilt = CsrChecksums::build(&truth);
                assert_eq!(bits(&sums), bits(&rebuilt), "seed {seed} step {step}");
            }
            assert!(same > 0 && grown > 0, "seed {seed}: commits that kept and grew the columns");
        }
    }

    #[test]
    fn clean_f32_spmv_passes() {
        let csr = gen::random_uniform(217, 195, 2600, 71);
        let x = make_x(195);
        let y = csr.spmv(&x).unwrap();
        let sums = CsrChecksums::build(&csr);
        assert_eq!(sums.block_rows(), 217usize.div_ceil(BLOCK_DIM));
        assert!(sums.verify(&x, &y).is_empty());
    }

    #[test]
    fn corruption_is_localised() {
        let csr = gen::random_uniform(128, 128, 2000, 73);
        let x = make_x(128);
        let mut y = csr.spmv(&x).unwrap();
        y[19] += 0.5; // block-row 2
        assert_eq!(CsrChecksums::build(&csr).verify(&x, &y), vec![2]);
    }

    #[test]
    fn sum_cancelling_corruption_caught_by_weighted_checksum() {
        let csr = gen::random_uniform(64, 64, 1200, 75);
        let x = make_x(64);
        let mut y = csr.spmv(&x).unwrap();
        y[8] += 0.25;
        y[11] -= 0.25; // both in block-row 1, Σy unchanged
        assert_eq!(CsrChecksums::build(&csr).verify(&x, &y), vec![1]);
    }

    #[test]
    fn nan_outputs_are_flagged() {
        let csr = gen::random_uniform(40, 40, 300, 77);
        let x = make_x(40);
        let mut y = csr.spmv(&x).unwrap();
        y[33] = f32::NAN; // block-row 4
        assert!(CsrChecksums::build(&csr).verify(&x, &y).contains(&4));
    }

    #[test]
    fn empty_and_odd_shapes() {
        let empty = Csr::empty(20, 12);
        let sums = CsrChecksums::build(&empty);
        assert!(sums.verify(&make_x(12), &[0.0; 20]).is_empty());
        // A spurious nonzero output in an empty matrix must be flagged.
        let mut y = [0.0f32; 20];
        y[3] = 1.0;
        assert_eq!(sums.verify(&make_x(12), &y), vec![0]);

        let odd = gen::random_uniform(101, 77, 900, 79);
        let x = make_x(77);
        let y = odd.spmv(&x).unwrap();
        assert!(CsrChecksums::build(&odd).verify(&x, &y).is_empty());
    }
}
