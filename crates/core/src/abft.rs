//! Algorithm-based fault tolerance (ABFT) for bitBSR SpMV.
//!
//! Classic Huang–Abraham column-sum checksums, at block-row granularity:
//! for block-row `R` with the f16-rounded values the kernel actually
//! multiplies, the identities
//!
//! ```text
//! Σ_{r ∈ R} y[r]      =  Σ_j (Σ_{r ∈ R} A[r, j]) · x̃[j]        (x̃ = f16(x))
//! Σ_{r ∈ R} w_r y[r]  =  Σ_j (Σ_{r ∈ R} w_r A[r, j]) · x̃[j]    (w_r = 1 + r - min R)
//! ```
//!
//! hold exactly in real arithmetic. Both right-hand sides are precomputed
//! at `prepare` time (the plain and row-weighted column sums per
//! block-row, in f64); after a run the left-hand sides are recomputed from
//! `y` and compared within a floating-point tolerance derived from the
//! per-block-row value mass. A mismatch localises silent data corruption —
//! a flipped bit, a dead lane, a corrupted fragment register — to one
//! block-row of 8 output rows, which the engine then recomputes on the
//! scalar path.
//!
//! The weighted checksum is what makes multi-site faults detectable: a
//! corrupted `x̃[j]` (stuck load lane) perturbs `Σ y` by `Δx · Σ_r A[r, j]`,
//! which vanishes when the column sum happens to be ≈0 even though
//! individual rows are badly wrong. The weighted sum is then perturbed by
//! `Δx · Σ_r w_r A[r, j]`, which only also vanishes if both moments of the
//! column are zero. Likewise two faults cancelling in `Σ y` from different
//! rows `r₁ ≠ r₂` leave a weighted residue proportional to `r₁ - r₂`.
//!
//! ## Building the sums from the set bits only
//!
//! The sums are defined over all 64 positions of each block, unset ones
//! reading `+0.0`, each column summed over its rows in ascending order.
//! The builder visits only the set bits (in ascending bit order, so each
//! column still meets its rows in ascending order) and gets the same f64
//! bits:
//!
//! * every skipped term is the `+0.0` of an unset bit;
//! * the accumulators start at `+0.0` and can never become `−0.0` (an
//!   exact zero sum of two values is `+0.0` unless both are `−0.0`), so
//!   adding `+0.0` leaves them unchanged; it also leaves NaN and ±inf
//!   unchanged;
//! * explicit ±0 values sit on set bits, so they are still summed.
//!
//! A column whose value mass `a` is `0.0` emits no entry either way.
//!
//! ## What this scheme cannot catch
//!
//! * **Compensating faults**: corruptions within one block-row whose
//!   effects on *both* `Σ y` and the weighted sum cancel. Requires two
//!   independent cancellations; vanishingly unlikely for bit flips, but
//!   not impossible at extreme fault rates.
//! * **Sub-tolerance faults**: a perturbation below the verification
//!   tolerance. By construction the tolerance (`O(2⁻²³ · nnz)` relative) is
//!   orders of magnitude below the f16 accuracy of the result itself
//!   (`O(2⁻¹⁰ · nnz)`), so an undetected fault is also a harmless one.
//! * **Structural corruption** (row pointers, bitmaps, block columns):
//!   checksums protect values, not control flow. The simulator's fault
//!   model matches this boundary (see `spaden_gpusim::fault`).

use crate::bitbsr::BitBsr;
use crate::delta::DeltaBitBsr;
use spaden_gpusim::half::F16;
use spaden_sparse::dense::Dense;
use spaden_sparse::gen::BLOCK_DIM;
use spaden_sparse::{blockrow, par};

/// Checksum entry arrays, one entry per (block-row, matrix column), in
/// block-row order and then column order; a checksum set pairs them with
/// block-row offsets (block-row `br` owns entries `ptr[br]..ptr[br+1]`).
/// The four arrays have equal length. [`AbftChecksums`] and the serving
/// layer's CSR-rung checksums both store their sums here and repair them
/// through [`Entries::spliced`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Entries {
    /// Matrix column index per entry.
    pub cols: Vec<u32>,
    /// `Σ_r A[r, col]` over the block-row.
    pub sums: Vec<f64>,
    /// `Σ_r (1 + dr) A[r, col]` — the row-weighted column sum (`dr` is the
    /// row offset within the block-row).
    pub wsums: Vec<f64>,
    /// `Σ_r |A[r, col]|` — the value mass that scales the tolerance.
    pub abs: Vec<f64>,
}

/// A window of [`Entries`] that [`row_entries`] writes front to back.
struct EntriesMut<'a> {
    cols: &'a mut [u32],
    sums: &'a mut [f64],
    wsums: &'a mut [f64],
    abs: &'a mut [f64],
}

impl Entries {
    fn zeroed(n: usize) -> Self {
        Entries { cols: vec![0; n], sums: vec![0.0; n], wsums: vec![0.0; n], abs: vec![0.0; n] }
    }

    fn with_capacity(n: usize) -> Self {
        let f = || Vec::with_capacity(n);
        Entries { cols: Vec::with_capacity(n), sums: f(), wsums: f(), abs: f() }
    }

    fn len(&self) -> usize {
        self.cols.len()
    }

    fn window(&mut self) -> EntriesMut<'_> {
        EntriesMut {
            cols: &mut self.cols,
            sums: &mut self.sums,
            wsums: &mut self.wsums,
            abs: &mut self.abs,
        }
    }

    fn resize(&mut self, n: usize) {
        self.cols.resize(n, 0);
        self.sums.resize(n, 0.0);
        self.wsums.resize(n, 0.0);
        self.abs.resize(n, 0.0);
    }

    fn truncate(&mut self, n: usize) {
        self.cols.truncate(n);
        self.sums.truncate(n);
        self.wsums.truncate(n);
        self.abs.truncate(n);
    }

    fn extend_from(&mut self, other: &Entries, range: std::ops::Range<usize>) {
        self.cols.extend_from_slice(&other.cols[range.clone()]);
        self.sums.extend_from_slice(&other.sums[range.clone()]);
        self.wsums.extend_from_slice(&other.wsums[range.clone()]);
        self.abs.extend_from_slice(&other.abs[range]);
    }

    /// Appends one block-row's entries; returns its nonzero count.
    fn push_row(&mut self, block_cols: &[u32], bitmaps: &[u64], values: &[F16]) -> u32 {
        let at = self.len();
        self.resize(at + entry_bound(bitmaps));
        let (n, nnz) = row_entries(block_cols, bitmaps, values, self.window().rest(at));
        self.truncate(at + n);
        nnz
    }

    /// The entries after a repair of block-rows `touched` (sorted,
    /// distinct), with their block-row offsets: block-row `touched[i]`
    /// takes `fresh`'s entries `fresh_ptr[i]..fresh_ptr[i+1]`, and every
    /// other block-row `br` keeps its entries `ptr[br]..ptr[br+1]` of
    /// `self`, byte for byte. `self` is read in place, so each untouched
    /// entry is copied once.
    pub fn spliced(
        &self,
        ptr: &[u32],
        touched: &[usize],
        fresh: &Entries,
        fresh_ptr: &[usize],
    ) -> (Entries, Vec<u32>) {
        let block_rows = ptr.len() - 1;
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]), "touched must be sorted+unique");
        assert!(touched.iter().all(|&br| br < block_rows), "touched block-row out of range");
        assert_eq!(fresh_ptr.len(), touched.len() + 1, "one fresh range per touched block-row");
        let mut out = Entries::with_capacity(self.len() + fresh.len());
        let mut out_ptr = Vec::with_capacity(ptr.len());
        out_ptr.push(0u32);
        let mut next = touched.iter().enumerate().peekable();
        for br in 0..block_rows {
            match next.next_if(|&(_, &t)| t == br) {
                Some((i, _)) => out.extend_from(fresh, fresh_ptr[i]..fresh_ptr[i + 1]),
                None => out.extend_from(self, ptr[br] as usize..ptr[br + 1] as usize),
            }
            out_ptr.push(out.len() as u32);
        }
        (out, out_ptr)
    }
}

impl<'a> EntriesMut<'a> {
    /// Splits off the first `n` entries.
    fn split_at(self, n: usize) -> (EntriesMut<'a>, EntriesMut<'a>) {
        let (c0, c1) = self.cols.split_at_mut(n);
        let (s0, s1) = self.sums.split_at_mut(n);
        let (w0, w1) = self.wsums.split_at_mut(n);
        let (a0, a1) = self.abs.split_at_mut(n);
        (
            EntriesMut { cols: c0, sums: s0, wsums: w0, abs: a0 },
            EntriesMut { cols: c1, sums: s1, wsums: w1, abs: a1 },
        )
    }

    /// The entries from `at` on.
    fn rest(&mut self, at: usize) -> EntriesMut<'_> {
        EntriesMut {
            cols: &mut self.cols[at..],
            sums: &mut self.sums[at..],
            wsums: &mut self.wsums[at..],
            abs: &mut self.abs[at..],
        }
    }
}

/// The columns of an 8×8 block that hold at least one stored value: bit
/// `dc` is set iff column `dc` is occupied in some row.
fn column_occupancy(bitmap: u64) -> u8 {
    let b = bitmap | bitmap >> 32;
    let b = b | b >> 16;
    (b | b >> 8) as u8
}

/// Most entries a block-row with these bitmaps can have: its occupied
/// columns. Columns whose stored values are all ±0 emit no entry.
fn entry_bound(bitmaps: &[u64]) -> usize {
    bitmaps.iter().map(|&b| column_occupancy(b).count_ones() as usize).sum()
}

/// The one checksum accumulation routine. Writes the entries of one
/// block-row, given by its blocks' columns and bitmaps in ascending
/// block-column order and their values packed in bit order, to the front
/// of `out` (which must hold [`entry_bound`] of them). Returns the entries
/// written and the block-row's nonzero count.
///
/// Per block it walks the set bits in ascending order, accumulating each
/// column `dc`'s `s`, `w` and `a` over its rows in ascending order, then
/// emits the occupied columns whose `a != 0.0` in ascending order. Every
/// builder and repair path goes through here, so an incremental repair of
/// a block-row is bit for bit the full build's; blocks within a
/// block-row cover disjoint column ranges, so every matrix column's f64
/// sum is formed in the same order either way.
fn row_entries(
    block_cols: &[u32],
    bitmaps: &[u64],
    values: &[F16],
    out: EntriesMut<'_>,
) -> (usize, u32) {
    let (mut n, mut v) = (0usize, 0usize);
    for (&bc, &bitmap) in block_cols.iter().zip(bitmaps) {
        let mut s = [0.0f64; BLOCK_DIM];
        let mut w = [0.0f64; BLOCK_DIM];
        let mut a = [0.0f64; BLOCK_DIM];
        let mut bits = bitmap;
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let (dr, dc) = (bit / BLOCK_DIM, bit % BLOCK_DIM);
            let x = values[v].to_f32() as f64;
            v += 1;
            s[dc] += x;
            w[dc] += (dr + 1) as f64 * x;
            a[dc] += x.abs();
        }
        let mut occupied = column_occupancy(bitmap);
        while occupied != 0 {
            let dc = occupied.trailing_zeros() as usize;
            occupied &= occupied - 1;
            if a[dc] != 0.0 {
                out.cols[n] = bc * BLOCK_DIM as u32 + dc as u32;
                out.sums[n] = s[dc];
                out.wsums[n] = w[dc];
                out.abs[n] = a[dc];
                n += 1;
            }
        }
    }
    (n, v as u32)
}

/// Borrowed raw arrays of an [`AbftChecksums`] — see
/// [`AbftChecksums::raw_parts`].
#[derive(Debug, Clone, Copy)]
pub struct AbftParts<'a> {
    /// Matrix rows.
    pub nrows: usize,
    /// Matrix columns.
    pub ncols: usize,
    /// CSR-like offsets: block-row `br` owns entries `ptr[br]..ptr[br+1]`.
    pub ptr: &'a [u32],
    /// Matrix column index per checksum entry.
    pub cols: &'a [u32],
    /// Plain column sums (f64).
    pub sums: &'a [f64],
    /// Row-weighted column sums (f64).
    pub wsums: &'a [f64],
    /// Absolute value mass per column (f64, tolerance scaling).
    pub abs: &'a [f64],
    /// Stored nonzeros per block-row.
    pub nnz_br: &'a [u32],
}

/// Column-sum checksums of a bitBSR matrix, one group per block-row.
///
/// CSR-like layout: block-row `br` owns entries `ptr[br] .. ptr[br+1]`,
/// summed from the stored f16 values. Within a block-row the block
/// columns are sorted and unique, so each matrix column appears at most
/// once.
#[derive(Debug, Clone, PartialEq)]
pub struct AbftChecksums {
    nrows: usize,
    ncols: usize,
    ptr: Vec<u32>,
    entries: Entries,
    /// Stored nonzeros per block-row (tolerance scaling).
    nnz_br: Vec<u32>,
}

impl AbftChecksums {
    /// Precomputes the checksums for `format` (done once at `prepare`), on
    /// nnz-balanced pool runs of block-rows. Each run writes its entries in
    /// place into a window of arrays sized by its blocks' occupied
    /// columns; the runs are then closed up, which moves entries only when
    /// some column held nothing but ±0.
    pub fn build(format: &BitBsr) -> Self {
        let block_rows = format.block_rows;
        let block = |br: usize| format.block_row_ptr[br] as usize;
        let runs = blockrow::runs(block_rows, |br| format.block_offsets[block(br)] as usize);
        let bounds: Vec<usize> = (runs.iter())
            .map(|r| entry_bound(&format.bitmaps[block(r.start)..block(r.end)]))
            .collect();
        let mut entries = Entries::zeroed(bounds.iter().sum());
        let mut ptr = vec![0u32; block_rows + 1];
        let mut nnz_br = vec![0u32; block_rows];
        let mut written = vec![0usize; runs.len()];
        {
            let mut windows = Vec::with_capacity(runs.len());
            let mut rest = entries.window();
            for &b in &bounds {
                let (head, tail) = rest.split_at(b);
                windows.push(head);
                rest = tail;
            }
            let lens = || runs.iter().map(|r| r.len());
            let items: Vec<_> = (runs.iter().cloned().zip(windows))
                .zip(blockrow::split_mut(&mut ptr[1..], lens()))
                .zip(blockrow::split_mut(&mut nnz_br, lens()))
                .zip(&mut written)
                .collect();
            par::for_each_task(items, |_, ((((run, mut out), ends), nnz), written)| {
                let mut at = 0;
                for (i, br) in run.enumerate() {
                    let (lo, hi) = (block(br), block(br + 1));
                    let values = &format.values
                        [format.block_offsets[lo] as usize..format.block_offsets[hi] as usize];
                    let (n, count) = row_entries(
                        &format.block_cols[lo..hi],
                        &format.bitmaps[lo..hi],
                        values,
                        out.rest(at),
                    );
                    at += n;
                    ends[i] = at as u32;
                    nnz[i] = count;
                }
                *written = at;
            });
        }
        // Close up the runs: run `i` wrote `written[i]` entries at the
        // start of its window, and its `ptr` entries are window-relative.
        let (mut from, mut to) = (0usize, 0usize);
        for ((run, &bound), &n) in runs.iter().zip(&bounds).zip(&written) {
            if from != to {
                entries.cols.copy_within(from..from + n, to);
                entries.sums.copy_within(from..from + n, to);
                entries.wsums.copy_within(from..from + n, to);
                entries.abs.copy_within(from..from + n, to);
            }
            if to != 0 {
                for p in &mut ptr[run.start + 1..=run.end] {
                    *p += to as u32;
                }
            }
            from += bound;
            to += n;
        }
        entries.truncate(to);
        let (nrows, ncols) = (format.nrows, format.ncols);
        AbftChecksums { nrows, ncols, ptr, entries, nnz_br }
    }

    /// Builds the checksums of the *logical* matrix of a [`DeltaBitBsr`]
    /// (base blocks merged with pending side-buffer blocks) — the audit
    /// reference the incremental repair path is compared against, and,
    /// because [`DeltaBitBsr::compact`] is bit-identical to a rebuild,
    /// also exactly `AbftChecksums::build(compacted_format)`.
    pub fn build_logical(m: &DeltaBitBsr) -> Self {
        let base = m.base();
        let mut ptr = Vec::with_capacity(base.block_rows + 1);
        ptr.push(0u32);
        let mut entries = Entries::default();
        let mut nnz_br = Vec::with_capacity(base.block_rows);
        for br in 0..base.block_rows {
            let row = m.logical_block_row(br);
            nnz_br.push(entries.push_row(&row.cols, &row.bitmaps, &row.values));
            ptr.push(entries.len() as u32);
        }
        AbftChecksums { nrows: base.nrows, ncols: base.ncols, ptr, entries, nnz_br }
    }

    /// Re-sums block-rows `touched` (sorted, unique) with `push_row`,
    /// which appends block-row `br`'s entries and returns its nonzero
    /// count, and splices them in ([`Entries::spliced`]), leaving every
    /// untouched block-row's entries byte-identical.
    fn repair_with(
        &mut self,
        touched: &[usize],
        mut push_row: impl FnMut(&mut Entries, usize) -> u32,
    ) {
        let mut fresh = Entries::default();
        let mut fresh_ptr = Vec::with_capacity(touched.len() + 1);
        fresh_ptr.push(0);
        for &br in touched {
            self.nnz_br[br] = push_row(&mut fresh, br);
            fresh_ptr.push(fresh.len());
        }
        (self.entries, self.ptr) = self.entries.spliced(&self.ptr, touched, &fresh, &fresh_ptr);
    }

    /// Incremental repair against the *logical* matrix: recomputes only
    /// the `touched` block-rows (sorted, unique). The audit mode of
    /// [`crate::EvolvingMatrix`] proves this exactly equals
    /// [`AbftChecksums::build_logical`] from scratch.
    pub fn repair_block_rows(&mut self, m: &DeltaBitBsr, touched: &[usize]) {
        self.repair_with(touched, |fresh, br| {
            let row = m.logical_block_row(br);
            fresh.push_row(&row.cols, &row.bitmaps, &row.values)
        });
    }

    /// Incremental repair against a plain [`BitBsr`] (the *base* format a
    /// tensor-core engine actually runs on — its in-block splices shift
    /// values without going through the side buffer).
    pub fn repair_block_rows_base(&mut self, base: &BitBsr, touched: &[usize]) {
        self.repair_with(touched, |fresh, br| {
            let lo = base.block_row_ptr[br] as usize;
            let hi = base.block_row_ptr[br + 1] as usize;
            let values =
                &base.values[base.block_offsets[lo] as usize..base.block_offsets[hi] as usize];
            fresh.push_row(&base.block_cols[lo..hi], &base.bitmaps[lo..hi], values)
        });
    }

    /// Number of block-rows covered.
    pub fn block_rows(&self) -> usize {
        self.nnz_br.len()
    }

    /// Host memory held by the checksums, in bytes.
    pub fn bytes(&self) -> usize {
        self.ptr.len() * 4 + self.entries.len() * (4 + 8 + 8 + 8) + self.nnz_br.len() * 4
    }

    /// Extracts the checksums of block-rows `lo..hi` as a standalone
    /// checksum set over a shard's *local* output (row 0 of the slice is
    /// global row `lo * BLOCK_DIM`). Column indices stay global — shards
    /// share the full `x` — and the row weights are relative to each
    /// block-row's own first row, so the sliced sums are bit-for-bit the
    /// ones the full matrix was prepared with: sliced, never recomputed.
    pub fn slice_block_rows(&self, lo: usize, hi: usize) -> AbftChecksums {
        assert!(lo <= hi && hi <= self.block_rows(), "slice {lo}..{hi} of {}", self.block_rows());
        let e_lo = self.ptr[lo] as usize;
        let e_hi = self.ptr[hi] as usize;
        let nrows = if hi == self.block_rows() {
            self.nrows.saturating_sub(lo * BLOCK_DIM)
        } else {
            (hi - lo) * BLOCK_DIM
        };
        let mut entries = Entries::with_capacity(e_hi - e_lo);
        entries.extend_from(&self.entries, e_lo..e_hi);
        AbftChecksums {
            nrows,
            ncols: self.ncols,
            ptr: self.ptr[lo..=hi].iter().map(|&p| p - e_lo as u32).collect(),
            entries,
            nnz_br: self.nnz_br[lo..hi].to_vec(),
        }
    }

    /// Borrowed view of the raw checksum arrays, in CSR-entry layout —
    /// the durability layer's serialization source. Restoring through
    /// [`AbftChecksums::from_raw_parts`] with these exact arrays yields a
    /// checksum set that compares `==` (f64-exact) to this one.
    pub fn raw_parts(&self) -> AbftParts<'_> {
        AbftParts {
            nrows: self.nrows,
            ncols: self.ncols,
            ptr: &self.ptr,
            cols: &self.entries.cols,
            sums: &self.entries.sums,
            wsums: &self.entries.wsums,
            abs: &self.entries.abs,
            nnz_br: &self.nnz_br,
        }
    }

    /// Reassembles a checksum set from raw arrays (snapshot restore),
    /// validating the CSR-entry invariants so a corrupted snapshot can
    /// never produce a structurally broken verifier. Content integrity
    /// (the sums actually matching a matrix) is the caller's job — the
    /// evolve layer's restore path audits them against from-scratch
    /// builds.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        ptr: Vec<u32>,
        cols: Vec<u32>,
        sums: Vec<f64>,
        wsums: Vec<f64>,
        abs: Vec<f64>,
        nnz_br: Vec<u32>,
    ) -> Result<Self, String> {
        let block_rows = nrows.div_ceil(BLOCK_DIM);
        if ptr.len() != block_rows + 1 {
            return Err(format!("ptr length {} != block_rows {} + 1", ptr.len(), block_rows));
        }
        if nnz_br.len() != block_rows {
            return Err(format!("nnz_br length {} != block_rows {}", nnz_br.len(), block_rows));
        }
        if ptr.first() != Some(&0) || *ptr.last().expect("non-empty") as usize != cols.len() {
            return Err("ptr must start at 0 and end at the entry count".into());
        }
        if ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err("ptr must be monotone".into());
        }
        if sums.len() != cols.len() || wsums.len() != cols.len() || abs.len() != cols.len() {
            return Err("entry arrays must have equal length".into());
        }
        for br in 0..block_rows {
            let e = &cols[ptr[br] as usize..ptr[br + 1] as usize];
            if e.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("block-row {br} columns not sorted unique"));
            }
            if e.iter().any(|&c| c as usize >= ncols) {
                return Err(format!("block-row {br} column out of range"));
            }
        }
        let entries = Entries { cols, sums, wsums, abs };
        Ok(AbftChecksums { nrows, ncols, ptr, entries, nnz_br })
    }

    /// Checks one block-row of `y` against its checksum. `true` = passes.
    ///
    /// NaN-safe: a NaN or infinity anywhere in the block-row's outputs
    /// fails the comparison and is reported as a fault.
    pub fn check_block_row(&self, br: usize, x: &[f32], y: &[f32]) -> bool {
        self.check_block_row_with(br, |c| x[c], |r| y[r])
    }

    /// The shared block-row check over accessor closures: `x_at(col)` reads
    /// the multiplicand, `y_at(row)` the product. The contiguous SpMV path
    /// and the strided per-column SpMM path both funnel through here, so a
    /// batched sweep is held to exactly the same tolerance discipline as a
    /// single request.
    fn check_block_row_with(
        &self,
        br: usize,
        x_at: impl Fn(usize) -> f32,
        y_at: impl Fn(usize) -> f32,
    ) -> bool {
        let r_lo = br * BLOCK_DIM;
        let r_hi = ((br + 1) * BLOCK_DIM).min(self.nrows);
        let mut got = 0.0f64;
        let mut got_w = 0.0f64;
        for r in r_lo..r_hi {
            let v = y_at(r) as f64;
            got += v;
            got_w += (r - r_lo + 1) as f64 * v;
        }
        let mut expect = 0.0f64;
        let mut expect_w = 0.0f64;
        let mut scale = 0.0f64;
        for e in self.ptr[br] as usize..self.ptr[br + 1] as usize {
            let k = &self.entries;
            let xt = F16::round_f32(x_at(k.cols[e] as usize)) as f64;
            expect += k.sums[e] * xt;
            expect_w += k.wsums[e] * xt;
            scale += k.abs[e] * xt.abs();
        }
        // The kernel accumulates each y[r] in f32 over f16·f16 products;
        // summing the 8 rows here is f64 (error-free). Worst-case rounding
        // is linear in the block-row nonzero count; the constant leaves
        // headroom for the pairing kernel's accumulation order. Injected
        // faults flip high-order bits, perturbing Σy proportionally to the
        // corrupted value — far above this bound. The weighted sum scales
        // every term by at most BLOCK_DIM, so its tolerance does too.
        let tol = 2.0 * 2.0f64.powi(-23) * scale * (self.nnz_br[br] as f64 + 16.0) + 1e-7;
        // Written so NaN comparisons count as failures.
        (got - expect).abs() <= tol && (got_w - expect_w).abs() <= BLOCK_DIM as f64 * tol
    }

    /// Verifies all of `y`, returning the failing block-rows (empty = the
    /// run passes both the global and every per-block-row check).
    pub fn verify(&self, x: &[f32], y: &[f32]) -> Vec<usize> {
        (0..self.block_rows()).filter(|&br| !self.check_block_row(br, x, y)).collect()
    }

    /// Checks one block-row of output column `j` of a batched SpMM
    /// `C = A·B`. Column `j` of `C` is exactly `A · B[:, j]`, so the same
    /// precomputed block-row column sums verify it — the accessors stride
    /// through the row-major `Dense` operands instead of slicing.
    pub fn check_block_row_column(&self, br: usize, b: &Dense, c: &Dense, j: usize) -> bool {
        self.check_block_row_with(br, |col| b.get(col, j), |r| c.get(r, j))
    }

    /// Verifies output column `j` of `C = A·B`, returning its failing
    /// block-rows (same contract as [`AbftChecksums::verify`] on the
    /// equivalent SpMV).
    pub fn verify_column(&self, b: &Dense, c: &Dense, j: usize) -> Vec<usize> {
        (0..self.block_rows())
            .filter(|&br| !self.check_block_row_column(br, b, c, j))
            .collect()
    }

    /// Verifies every output column of a batched sweep `C = A·B`. Returns
    /// `(column, failing block-rows)` per failing column — a fault
    /// localised to 8 output rows of one request's response, just as in
    /// the SpMV path.
    pub fn verify_spmm(&self, b: &Dense, c: &Dense) -> Vec<(usize, Vec<usize>)> {
        (0..b.cols)
            .filter_map(|j| {
                let bad = self.verify_column(b, c, j);
                (!bad.is_empty()).then_some((j, bad))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_sparse::gen::{self, FillDist, Placement};

    fn make_x(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 37 + 11) % 64) as f32 / 32.0 - 1.0).collect()
    }

    fn fixture() -> (BitBsr, Vec<f32>, Vec<f32>) {
        let csr = gen::generate_blocked(
            256,
            160,
            Placement::Banded { bandwidth: 6 },
            &FillDist::Uniform { lo: 1, hi: 64 },
            401,
        );
        let b = BitBsr::from_csr(&csr);
        let x = make_x(256);
        let y = b.spmv_reference(&x).unwrap();
        (b, x, y)
    }

    #[test]
    fn clean_reference_output_passes() {
        let (b, x, y) = fixture();
        let sums = AbftChecksums::build(&b);
        assert_eq!(sums.block_rows(), b.block_rows);
        assert!(sums.verify(&x, &y).is_empty());
    }

    #[test]
    fn corrupted_row_is_localised() {
        let (b, x, mut y) = fixture();
        let sums = AbftChecksums::build(&b);
        y[37] += 0.75; // rows 32..40 = block-row 4
        assert_eq!(sums.verify(&x, &y), vec![4]);
    }

    #[test]
    fn nan_and_inf_outputs_are_flagged() {
        let (b, x, y) = fixture();
        let sums = AbftChecksums::build(&b);
        let mut ynan = y.clone();
        ynan[8] = f32::NAN;
        assert!(sums.verify(&x, &ynan).contains(&1));
        let mut yinf = y;
        yinf[200] = f32::INFINITY;
        assert!(sums.verify(&x, &yinf).contains(&25));
    }

    #[test]
    fn every_single_row_corruption_is_caught() {
        let (b, x, y) = fixture();
        let sums = AbftChecksums::build(&b);
        for r in (0..b.nrows).step_by(7) {
            let mut yc = y.clone();
            // A perturbation on the scale of a single f16 product.
            yc[r] += 0.11;
            let bad = sums.verify(&x, &yc);
            assert_eq!(bad, vec![r / BLOCK_DIM], "row {r}");
        }
    }

    #[test]
    fn sum_cancelling_corruption_is_caught_by_weighted_checksum() {
        // Two corruptions in different rows of one block-row whose effects
        // on Σy cancel exactly — invisible to the plain checksum, caught by
        // the row-weighted one.
        let (b, x, mut y) = fixture();
        let sums = AbftChecksums::build(&b);
        y[33] += 0.5;
        y[38] -= 0.5; // both in block-row 4; Σy unchanged
        assert_eq!(sums.verify(&x, &y), vec![4]);
    }

    /// A dense multiplicand whose column `j` is `make_x` salted by `j`.
    fn batch_b(rows: usize, k: usize) -> Dense {
        Dense::from_fn(rows, k, |r, j| ((r * 37 + 11 * (j + 1)) % 64) as f32 / 32.0 - 1.0)
    }

    /// The column-exact product: column `j` of `C` is the SpMV reference
    /// on column `j` of `B`.
    fn batch_c(b: &BitBsr, bd: &Dense) -> Dense {
        let mut c = Dense::zeros(b.nrows, bd.cols);
        for j in 0..bd.cols {
            let y = b.spmv_reference(&bd.column(j)).unwrap();
            for (r, v) in y.iter().enumerate() {
                c.set(r, j, *v);
            }
        }
        c
    }

    #[test]
    fn clean_spmm_columns_pass_columnwise_verification() {
        let (b, _, _) = fixture();
        let sums = AbftChecksums::build(&b);
        let bd = batch_b(b.ncols, 5);
        let c = batch_c(&b, &bd);
        assert!(sums.verify_spmm(&bd, &c).is_empty());
    }

    #[test]
    fn columnwise_check_agrees_with_the_spmv_check_per_column() {
        // Column j of a batched sweep and the equivalent single request
        // must get the same verdict from the same checksums — clean and
        // corrupted alike.
        let (b, _, _) = fixture();
        let sums = AbftChecksums::build(&b);
        let bd = batch_b(b.ncols, 3);
        let mut c = batch_c(&b, &bd);
        c.set(41, 1, c.get(41, 1) + 0.75); // block-row 5, column 1 only
        for j in 0..bd.cols {
            let x = bd.column(j);
            let y = c.column(j);
            assert_eq!(sums.verify_column(&bd, &c, j), sums.verify(&x, &y), "column {j}");
        }
        assert_eq!(sums.verify_spmm(&bd, &c), vec![(1, vec![5])]);
    }

    #[test]
    fn corrupted_spmm_cell_is_localised_to_its_column_and_block_row() {
        let (b, _, _) = fixture();
        let sums = AbftChecksums::build(&b);
        let bd = batch_b(b.ncols, 4);
        let mut c = batch_c(&b, &bd);
        c.set(17, 3, f32::NAN); // rows 16..24 = block-row 2
        let bad = sums.verify_spmm(&bd, &c);
        assert_eq!(bad, vec![(3, vec![2])]);
    }

    #[test]
    fn empty_and_padded_matrices() {
        let b = BitBsr::from_csr(&spaden_sparse::csr::Csr::empty(20, 12));
        let sums = AbftChecksums::build(&b);
        assert!(sums.verify(&make_x(12), &[0.0; 20]).is_empty());
        // Odd dims: last block-row is partial.
        let csr = gen::random_uniform(101, 77, 600, 403);
        let bb = BitBsr::from_csr(&csr);
        let x = make_x(77);
        let y = bb.spmv_reference(&x).unwrap();
        assert!(AbftChecksums::build(&bb).verify(&x, &y).is_empty());
    }

    #[test]
    fn sliced_checksums_verify_sliced_output() {
        let (b, x, y) = fixture();
        let sums = AbftChecksums::build(&b);
        for (lo, hi) in [(0usize, 8usize), (8, 20), (20, 32), (0, 32), (5, 5)] {
            let s = sums.slice_block_rows(lo, hi);
            assert_eq!(s.block_rows(), hi - lo);
            let y_local = &y[lo * BLOCK_DIM..(hi * BLOCK_DIM).min(y.len())];
            assert!(
                s.verify(&x, y_local).is_empty(),
                "clean slice {lo}..{hi} must verify"
            );
        }
    }

    #[test]
    fn sliced_checksums_localise_corruption_to_local_block_row() {
        let (b, x, mut y) = fixture();
        let sums = AbftChecksums::build(&b);
        y[37] += 0.75; // global block-row 4
        let s = sums.slice_block_rows(2, 10);
        let y_local = &y[2 * BLOCK_DIM..10 * BLOCK_DIM];
        assert_eq!(s.verify(&x, y_local), vec![2], "global 4 = local 2");
    }

    #[test]
    fn sliced_checksums_equal_rebuilt_from_sliced_format() {
        // The slice must be *identical* to building checksums from the
        // sliced bitBSR — the "sliced, not recomputed" claim is testable
        // because both paths are exact in f64.
        let (b, _, _) = fixture();
        let sums = AbftChecksums::build(&b);
        for (lo, hi) in [(0usize, 4usize), (4, 17), (17, 32)] {
            let sliced = sums.slice_block_rows(lo, hi);
            let rebuilt = AbftChecksums::build(&b.slice_block_rows(lo, hi));
            assert_eq!(sliced, rebuilt, "slice {lo}..{hi}");
        }
    }

    #[test]
    fn incremental_repair_equals_full_rebuild_bit_for_bit() {
        use crate::delta::DeltaBitBsr;
        use spaden_sparse::delta::{apply_to_csr, Delta, DeltaBatch};
        use spaden_sparse::Pcg64;
        let mut rng = Pcg64::new(11, 0xabf7);
        let mut csr = gen::random_uniform(120, 96, 1100, 909);
        let mut d = DeltaBitBsr::new(BitBsr::from_csr(&csr), 1024);
        let mut logical = AbftChecksums::build_logical(&d);
        let mut base_sums = AbftChecksums::build(d.base());
        for step in 0..8 {
            let mut deltas = Vec::new();
            let mut seen = std::collections::BTreeSet::new();
            while deltas.len() < 13 {
                let row = rng.below_usize(csr.nrows) as u32;
                let col = rng.below_usize(csr.ncols) as u32;
                if seen.insert((row, col)) {
                    deltas.push(Delta { row, col, value: rng.range_f32(-2.0, 2.0) });
                }
            }
            let batch = DeltaBatch::new(deltas, csr.nrows, csr.ncols).unwrap();
            csr = apply_to_csr(&csr, &batch).unwrap();
            d.apply(&batch, None).unwrap();
            let touched = batch.touched_block_rows();
            logical.repair_block_rows(&d, &touched);
            base_sums.repair_block_rows_base(d.base(), &touched);
            // The audit claim: incremental repair is EXACTLY the from-scratch
            // build — PartialEq over f64 sums, no tolerance.
            assert_eq!(logical, AbftChecksums::build_logical(&d), "step {step}: logical");
            assert_eq!(base_sums, AbftChecksums::build(d.base()), "step {step}: base");
        }
        // After compaction the logical checksums ARE the base checksums.
        d.compact();
        assert_eq!(*d.base(), BitBsr::from_csr(&csr));
        assert_eq!(logical, AbftChecksums::build(d.base()));
    }

    #[test]
    fn repaired_checksums_still_verify_spmv_output() {
        use crate::delta::DeltaBitBsr;
        use spaden_sparse::delta::{apply_to_csr, Delta, DeltaBatch};
        let csr = gen::random_uniform(64, 64, 500, 515);
        let mut d = DeltaBitBsr::new(BitBsr::from_csr(&csr), 256);
        let mut logical = AbftChecksums::build_logical(&d);
        let batch = DeltaBatch::new(
            vec![
                Delta { row: 3, col: 60, value: 1.5 },
                Delta { row: 40, col: 2, value: -0.75 },
                Delta { row: 41, col: 5, value: 2.25 },
            ],
            64,
            64,
        )
        .unwrap();
        let next = apply_to_csr(&csr, &batch).unwrap();
        d.apply(&batch, None).unwrap();
        logical.repair_block_rows(&d, &batch.touched_block_rows());
        let x = make_x(64);
        let y = BitBsr::from_csr(&next).spmv_reference(&x).unwrap();
        assert!(logical.verify(&x, &y).is_empty(), "repaired sums must accept the new matrix");
        let y_old = BitBsr::from_csr(&csr).spmv_reference(&x).unwrap();
        assert!(!logical.verify(&x, &y_old).is_empty(), "and reject the old one");
    }

    #[test]
    fn checksums_are_linear_in_the_matrix() {
        // The checksum of block-row br must equal 1ᵀ A_br exactly: verify
        // against a dense recomputation.
        let (b, _, _) = fixture();
        let sums = AbftChecksums::build(&b);
        for br in 0..b.block_rows {
            let mut dense_sums = vec![0.0f64; b.ncols];
            let lo = b.block_row_ptr[br] as usize;
            let hi = b.block_row_ptr[br + 1] as usize;
            for k in lo..hi {
                let bc = b.block_cols[k] as usize;
                let d = b.decode_block(k);
                for dr in 0..BLOCK_DIM {
                    for dc in 0..BLOCK_DIM {
                        let c = bc * BLOCK_DIM + dc;
                        if c < b.ncols {
                            dense_sums[c] += d[dr * BLOCK_DIM + dc] as f64;
                        }
                    }
                }
            }
            for e in sums.ptr[br] as usize..sums.ptr[br + 1] as usize {
                assert_eq!(sums.entries.sums[e], dense_sums[sums.entries.cols[e] as usize]);
            }
        }
    }
}
