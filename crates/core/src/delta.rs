//! Delta-bitBSR: in-place streaming updates over the bitmap format.
//!
//! The paper's encoding is unusually update-friendly: inserting into an
//! *existing* 8×8 block is a single bitmap **bit-set** plus a **value
//! splice** at the position the bitmap's prefix popcount dictates — the
//! block's CSR-over-blocks skeleton is untouched, which is exactly what
//! keeps the tensor-core pairing kernel's layout stable under churn.
//! Entries that would *open a new block* are different: they would shift
//! `block_cols`/`bitmaps` for every later block-row, so they go to a
//! bounded **COO side buffer** instead and are folded in by a
//! threshold-triggered **compaction** that rebuilds the block skeleton
//! in one merge pass.
//!
//! The consistency contract (enforced by [`crate::EvolvingMatrix`]):
//!
//! * every compaction is verified **bit-identical** against
//!   [`BitBsr::from_csr`] of the logical matrix;
//! * [`DeltaBitBsr::verify_touched`] cross-checks every touched
//!   block-row's stored f16 bits against the CSR truth after each batch,
//!   so a corrupted splice (see [`UpdateFault`]) is caught *before* the
//!   epoch publishes, never after.

use crate::bitbsr::BitBsr;
use spaden_gpusim::half::F16;
use spaden_sparse::delta::{DeltaBatch, UpdateError};
use spaden_sparse::gen::BLOCK_DIM;
use spaden_sparse::Csr;

/// One entry of the new-block side buffer: a position whose 8×8 block is
/// not (yet) present in the base bitBSR, stored COO-style in the same
/// f16 precision as the base values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SideEntry {
    /// Matrix row.
    pub row: u32,
    /// Matrix column.
    pub col: u32,
    /// Stored value (f16, like the base format).
    pub value: F16,
}

impl SideEntry {
    /// Sort key: block-row, then block-column, then bit position within
    /// the block — i.e. exactly the order the values would occupy in the
    /// compacted bitBSR value array.
    fn key(&self) -> (usize, usize, usize) {
        let (r, c) = (self.row as usize, self.col as usize);
        (r / BLOCK_DIM, c / BLOCK_DIM, (r % BLOCK_DIM) * BLOCK_DIM + c % BLOCK_DIM)
    }
}

/// One logical block-row of a [`DeltaBitBsr`]: block columns, bitmaps and
/// the values packed in bit order, as in [`BitBsr`].
#[derive(Default)]
pub(crate) struct LogicalBlockRow {
    pub(crate) cols: Vec<u32>,
    pub(crate) bitmaps: Vec<u64>,
    pub(crate) values: Vec<F16>,
}

/// Seeded corruption of the update path (chaos hook): flips one bit of
/// the f16 value stored for the `delta_index`-th delta of a batch —
/// *after* the CSR truth is recorded, so the incremental structure
/// silently disagrees with the logical matrix unless verification
/// catches it. Post-update verification must turn this into an epoch
/// rollback, never a published bad epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateFault {
    /// Which delta of the batch (canonical order) gets corrupted.
    pub delta_index: usize,
    /// Bit of the stored f16 to flip (0..16).
    pub bit: u32,
}

/// Counters of one [`DeltaBitBsr::apply`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Deltas that overwrote a value already in the base format.
    pub base_updates: usize,
    /// Deltas spliced into an existing base block (bit-set + splice).
    pub base_inserts: usize,
    /// Deltas that overwrote a side-buffer entry.
    pub side_updates: usize,
    /// Deltas appended to the side buffer (their block is not in base).
    pub side_inserts: usize,
}

/// A bitBSR matrix plus its pending-update state: the base format
/// (served by the tensor-core kernel), and the bounded COO side buffer
/// of entries awaiting the next compaction.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBitBsr {
    base: BitBsr,
    /// Sorted by [`SideEntry::key`] — compaction merge order.
    side: Vec<SideEntry>,
    side_capacity: usize,
}

/// Where a delta lands, resolved before any mutation so a batch either
/// applies whole or not at all.
enum Site {
    /// Overwrite `values[pos]` of the base value array.
    BaseUpdate { pos: usize },
    /// Set `bit` of base block `k`'s bitmap and splice the value in.
    BaseInsert { k: usize, bit: usize },
    /// Overwrite side entry `i`.
    SideUpdate { i: usize },
    /// Insert a new side entry at sorted position `i`.
    SideInsert { i: usize },
}

impl DeltaBitBsr {
    /// Wraps a converted base format with an empty side buffer.
    pub fn new(base: BitBsr, side_capacity: usize) -> Self {
        DeltaBitBsr { base, side: Vec::new(), side_capacity: side_capacity.max(1) }
    }

    /// Reassembles a delta format from its parts (snapshot restore),
    /// validating every structural invariant the incremental update path
    /// relies on: a valid base, a side buffer in merge order with unique
    /// in-bounds positions, no side entry inside a block the base
    /// already has, and the capacity bound. Value integrity is the
    /// caller's job ([`crate::EvolvingMatrix::from_parts`] verifies the
    /// stored f16 bits against the CSR truth).
    pub fn from_parts(
        base: BitBsr,
        side: Vec<SideEntry>,
        side_capacity: usize,
    ) -> Result<Self, String> {
        base.validate().map_err(|e| format!("restored base invalid: {e}"))?;
        let side_capacity = side_capacity.max(1);
        if side.len() > side_capacity {
            return Err(format!("side length {} exceeds capacity {side_capacity}", side.len()));
        }
        for w in side.windows(2) {
            if w[0].key() >= w[1].key() {
                return Err("side buffer not in strict merge order".into());
            }
        }
        for e in &side {
            if e.row as usize >= base.nrows || e.col as usize >= base.ncols {
                return Err(format!(
                    "side entry ({}, {}) outside {}x{} matrix",
                    e.row, e.col, base.nrows, base.ncols
                ));
            }
            let (br, bc, _) = e.key();
            let lo = base.block_row_ptr[br] as usize;
            let hi = base.block_row_ptr[br + 1] as usize;
            if base.block_cols[lo..hi].binary_search(&(bc as u32)).is_ok() {
                return Err(format!(
                    "side entry ({}, {}) lies in a block the base already has",
                    e.row, e.col
                ));
            }
        }
        Ok(DeltaBitBsr { base, side, side_capacity })
    }

    /// The base bitBSR (what the tensor-core kernel runs on).
    pub fn base(&self) -> &BitBsr {
        &self.base
    }

    /// The pending new-block entries, in compaction merge order.
    pub fn side(&self) -> &[SideEntry] {
        &self.side
    }

    /// Pending side entries.
    pub fn side_len(&self) -> usize {
        self.side.len()
    }

    /// Hard capacity of the side buffer.
    pub fn side_capacity(&self) -> usize {
        self.side_capacity
    }

    /// Stored nonzeros of the logical matrix (base + side).
    pub fn logical_nnz(&self) -> usize {
        self.base.nnz() + self.side.len()
    }

    /// Resolves where a delta lands without mutating anything.
    fn locate(&self, row: u32, col: u32) -> Site {
        let (br, bc) = (row as usize / BLOCK_DIM, (col / BLOCK_DIM as u32));
        let bit = (row as usize % BLOCK_DIM) * BLOCK_DIM + col as usize % BLOCK_DIM;
        let lo = self.base.block_row_ptr[br] as usize;
        let hi = self.base.block_row_ptr[br + 1] as usize;
        if let Ok(off) = self.base.block_cols[lo..hi].binary_search(&bc) {
            let k = lo + off;
            if self.base.bitmaps[k] & (1u64 << bit) != 0 {
                let within =
                    (self.base.bitmaps[k] & ((1u64 << bit) - 1)).count_ones() as usize;
                Site::BaseUpdate { pos: self.base.block_offsets[k] as usize + within }
            } else {
                Site::BaseInsert { k, bit }
            }
        } else {
            let key = (br, bc as usize, bit);
            match self.side.binary_search_by_key(&key, SideEntry::key) {
                Ok(i) => Site::SideUpdate { i },
                Err(i) => Site::SideInsert { i },
            }
        }
    }

    /// Applies one validated batch atomically. A rejected batch (side
    /// buffer would overflow its hard capacity) leaves the structure
    /// untouched. `fault` optionally corrupts one stored value *after*
    /// placement — the chaos hook the rollback path is certified with.
    pub fn apply(
        &mut self,
        batch: &DeltaBatch,
        fault: Option<UpdateFault>,
    ) -> Result<ApplyStats, UpdateError> {
        // Bounds against *this* matrix (the batch may have been validated
        // against other dimensions).
        for d in batch.deltas() {
            if (d.row as usize) >= self.base.nrows || (d.col as usize) >= self.base.ncols {
                return Err(UpdateError::OutOfBounds {
                    row: d.row,
                    col: d.col,
                    nrows: self.base.nrows,
                    ncols: self.base.ncols,
                });
            }
        }
        // Atomicity pre-pass: count the side insertions this batch needs;
        // reject the whole batch if the hard cap cannot hold them.
        let side_inserts = batch
            .deltas()
            .iter()
            .filter(|d| matches!(self.locate(d.row, d.col), Site::SideInsert { .. }))
            .count();
        if self.side.len() + side_inserts > self.side_capacity {
            return Err(UpdateError::SideBufferOverflow {
                needed: self.side.len() + side_inserts,
                capacity: self.side_capacity,
            });
        }
        let mut stats = ApplyStats::default();
        for (i, d) in batch.deltas().iter().enumerate() {
            let mut v = F16::from_f32(d.value);
            if let Some(f) = fault {
                if f.delta_index == i {
                    v = F16(v.0 ^ (1u16 << (f.bit % 16)));
                }
            }
            // Re-locate per delta: earlier splices shift positions.
            match self.locate(d.row, d.col) {
                Site::BaseUpdate { pos } => {
                    self.base.values[pos] = v;
                    stats.base_updates += 1;
                }
                Site::BaseInsert { k, bit } => {
                    self.base.bitmaps[k] |= 1u64 << bit;
                    let within =
                        (self.base.bitmaps[k] & ((1u64 << bit) - 1)).count_ones() as usize;
                    let pos = self.base.block_offsets[k] as usize + within;
                    self.base.values.insert(pos, v);
                    for off in &mut self.base.block_offsets[k + 1..] {
                        *off += 1;
                    }
                    stats.base_inserts += 1;
                }
                Site::SideUpdate { i } => {
                    self.side[i].value = v;
                    stats.side_updates += 1;
                }
                Site::SideInsert { i } => {
                    self.side.insert(i, SideEntry { row: d.row, col: d.col, value: v });
                    stats.side_inserts += 1;
                }
            }
        }
        Ok(stats)
    }

    /// Folds the side buffer into the base format with one merge pass
    /// over the block skeleton (no CSR round-trip). The caller verifies
    /// the result bit-identical against [`BitBsr::from_csr`] of the
    /// logical matrix — see [`crate::EvolvingMatrix`].
    pub fn compact(&mut self) {
        if self.side.is_empty() {
            return;
        }
        // Group side entries (already in merge order) into whole blocks.
        // Invariant: a side entry's block is never present in base, so the
        // merge below never has to fuse a new block with an existing one.
        struct NewBlock {
            br: usize,
            bc: u32,
            bitmap: u64,
            values: Vec<F16>, // bit order
        }
        let mut new_blocks: Vec<NewBlock> = Vec::new();
        for e in &self.side {
            let (br, bc, bit) = e.key();
            match new_blocks.last_mut() {
                Some(b) if b.br == br && b.bc == bc as u32 => {
                    b.bitmap |= 1u64 << bit;
                    b.values.push(e.value);
                }
                _ => new_blocks.push(NewBlock {
                    br,
                    bc: bc as u32,
                    bitmap: 1u64 << bit,
                    values: vec![e.value],
                }),
            }
        }
        let bnnz = self.base.bnnz() + new_blocks.len();
        let nnz = self.base.nnz() + self.side.len();
        let mut block_row_ptr = Vec::with_capacity(self.base.block_rows + 1);
        let mut block_cols = Vec::with_capacity(bnnz);
        let mut bitmaps = Vec::with_capacity(bnnz);
        let mut block_offsets = Vec::with_capacity(bnnz + 1);
        let mut values = Vec::with_capacity(nnz);
        block_row_ptr.push(0u32);
        block_offsets.push(0u32);
        let mut cursor = 0usize; // into new_blocks
        for br in 0..self.base.block_rows {
            let lo = self.base.block_row_ptr[br] as usize;
            let hi = self.base.block_row_ptr[br + 1] as usize;
            let mut k = lo;
            while k < hi || (cursor < new_blocks.len() && new_blocks[cursor].br == br) {
                let take_new = cursor < new_blocks.len()
                    && new_blocks[cursor].br == br
                    && (k == hi || new_blocks[cursor].bc < self.base.block_cols[k]);
                if take_new {
                    let b = &new_blocks[cursor];
                    block_cols.push(b.bc);
                    bitmaps.push(b.bitmap);
                    values.extend_from_slice(&b.values);
                    cursor += 1;
                } else {
                    block_cols.push(self.base.block_cols[k]);
                    bitmaps.push(self.base.bitmaps[k]);
                    let v_lo = self.base.block_offsets[k] as usize;
                    let v_hi = self.base.block_offsets[k + 1] as usize;
                    values.extend_from_slice(&self.base.values[v_lo..v_hi]);
                    k += 1;
                }
                block_offsets.push(values.len() as u32);
            }
            block_row_ptr.push(block_cols.len() as u32);
        }
        self.base = BitBsr {
            nrows: self.base.nrows,
            ncols: self.base.ncols,
            block_rows: self.base.block_rows,
            block_cols_dim: self.base.block_cols_dim,
            block_row_ptr,
            block_cols,
            bitmaps,
            block_offsets,
            values,
        };
        self.side.clear();
    }

    /// One *logical* block-row (base blocks merged with side entries) in
    /// ascending block-column order, values packed in bit order — the
    /// exact view the checksum builder and the compacted format would see.
    pub(crate) fn logical_block_row(&self, br: usize) -> LogicalBlockRow {
        let lo = self.base.block_row_ptr[br] as usize;
        let hi = self.base.block_row_ptr[br + 1] as usize;
        let s_lo = self.side.partition_point(|e| e.key().0 < br);
        let s_hi = self.side.partition_point(|e| e.key().0 <= br);
        let mut out = LogicalBlockRow::default();
        let (mut k, mut s) = (lo, s_lo);
        while k < hi || s < s_hi {
            let base_bc = (k < hi).then(|| self.base.block_cols[k]);
            let side_bc = (s < s_hi).then(|| self.side[s].col / BLOCK_DIM as u32);
            // The side invariant (no side entry in a base block) means the
            // two streams never carry the same block-column twice.
            let take_base = match (base_bc, side_bc) {
                (Some(b), Some(sb)) => b < sb,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => unreachable!("loop condition guarantees one side"),
            };
            if take_base {
                let (v_lo, v_hi) =
                    (self.base.block_offsets[k] as usize, self.base.block_offsets[k + 1] as usize);
                out.cols.push(self.base.block_cols[k]);
                out.bitmaps.push(self.base.bitmaps[k]);
                out.values.extend_from_slice(&self.base.values[v_lo..v_hi]);
                k += 1;
            } else {
                let sb = side_bc.expect("side stream chosen");
                let mut bitmap = 0u64;
                // Side entries are in key order, so bit order within a block.
                while s < s_hi && self.side[s].col / BLOCK_DIM as u32 == sb {
                    bitmap |= 1u64 << self.side[s].key().2;
                    out.values.push(self.side[s].value);
                    s += 1;
                }
                out.cols.push(sb);
                out.bitmaps.push(bitmap);
            }
        }
        out
    }

    /// Cross-checks the touched block-rows' stored positions and f16 bit
    /// patterns against the CSR truth, returning the number of
    /// disagreeing block-rows (0 = the incremental state is exact).
    ///
    /// This is the post-update verification: a corrupted splice (an
    /// [`UpdateFault`], a bug, a cosmic ray in host memory) makes the
    /// incremental structure disagree with the logical matrix, and the
    /// epoch must roll back instead of publishing.
    pub fn verify_touched(&self, truth: &Csr, touched: &[usize]) -> usize {
        let mut bad = 0usize;
        for &br in touched {
            let mut logical: Vec<(u32, u32, u16)> = Vec::new();
            let row = self.logical_block_row(br);
            let mut values = row.values.iter();
            for (&bc, &bitmap) in row.cols.iter().zip(&row.bitmaps) {
                let mut bits = bitmap;
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let v = values.next().expect("one value per set bit");
                    let r = (br * BLOCK_DIM + bit / BLOCK_DIM) as u32;
                    let c = bc * BLOCK_DIM as u32 + (bit % BLOCK_DIM) as u32;
                    logical.push((r, c, F16::from_f32(v.to_f32()).0));
                }
            }
            logical.sort_unstable_by_key(|&(r, c, _)| (r, c));
            let mut expect: Vec<(u32, u32, u16)> = Vec::new();
            let r_hi = ((br + 1) * BLOCK_DIM).min(truth.nrows);
            for r in br * BLOCK_DIM..r_hi {
                let (cols, vals) = truth.row(r);
                for (c, v) in cols.iter().zip(vals) {
                    expect.push((r as u32, *c, F16::from_f32(*v).0));
                }
            }
            if logical != expect {
                bad += 1;
            }
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_sparse::delta::{apply_to_csr, Delta};
    use spaden_sparse::{gen, Pcg64};

    fn batch(csr: &Csr, deltas: Vec<Delta>) -> DeltaBatch {
        DeltaBatch::new(deltas, csr.nrows, csr.ncols).expect("valid batch")
    }

    /// A seeded stream of mixed batches (overwrites, in-block inserts,
    /// new-block inserts) for property-style sweeps.
    fn random_batch(csr: &Csr, rng: &mut Pcg64, k: usize) -> DeltaBatch {
        let mut deltas = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        while deltas.len() < k {
            let row = rng.below_usize(csr.nrows) as u32;
            let col = rng.below_usize(csr.ncols) as u32;
            if seen.insert((row, col)) {
                deltas.push(Delta { row, col, value: rng.range_f32(-4.0, 4.0) });
            }
        }
        batch(csr, deltas)
    }

    #[test]
    fn base_splice_matches_rebuild_without_compaction() {
        // Deltas confined to existing blocks: pure bit-set + splice must
        // already equal the from-scratch conversion, no compaction needed.
        let csr = gen::random_uniform(64, 64, 900, 901);
        let mut d = DeltaBitBsr::new(BitBsr::from_csr(&csr), 64);
        let (cols, _) = csr.row(9);
        let bc0 = cols[0] / 8 * 8; // a column range whose block exists in row 9's block-row
        let deltas = vec![
            Delta { row: 9, col: cols[0], value: 2.5 },             // overwrite
            Delta { row: 10, col: bc0 + (cols[0] + 1) % 8, value: -1.25 }, // same block, maybe new bit
        ];
        let b = batch(&csr, deltas);
        let truth = apply_to_csr(&csr, &b).unwrap();
        d.apply(&b, None).unwrap();
        if d.side_len() == 0 {
            assert_eq!(*d.base(), BitBsr::from_csr(&truth), "splice must equal rebuild");
        }
        assert_eq!(d.verify_touched(&truth, &b.touched_block_rows()), 0);
    }

    #[test]
    fn random_streams_compact_bit_identical_to_rebuild() {
        for seed in [1u64, 7, 23] {
            let mut rng = Pcg64::new(seed, 0xde17a);
            let mut csr = gen::random_uniform(96, 80, 700, 5000 + seed);
            let mut d = DeltaBitBsr::new(BitBsr::from_csr(&csr), 512);
            for _ in 0..6 {
                let b = random_batch(&csr, &mut rng, 17);
                csr = apply_to_csr(&csr, &b).unwrap();
                d.apply(&b, None).unwrap();
                assert_eq!(
                    d.verify_touched(&csr, &b.touched_block_rows()),
                    0,
                    "seed {seed}: clean apply must verify"
                );
            }
            d.compact();
            assert_eq!(d.side_len(), 0);
            assert_eq!(
                *d.base(),
                BitBsr::from_csr(&csr),
                "seed {seed}: compaction must be bit-identical to a from-scratch rebuild"
            );
            d.base().validate().unwrap();
        }
    }

    #[test]
    fn side_overflow_is_atomic() {
        let csr = gen::generate_blocked(
            32,
            40,
            gen::Placement::Banded { bandwidth: 1 },
            &gen::FillDist::Uniform { lo: 60, hi: 64 },
            77,
        );
        let mut d = DeltaBitBsr::new(BitBsr::from_csr(&csr), 2);
        let before = d.clone();
        // Three inserts far off the ±1-block band: three new blocks > capacity 2.
        let b = batch(
            &csr,
            vec![
                Delta { row: 0, col: 31, value: 1.0 },
                Delta { row: 8, col: 31, value: 2.0 },
                Delta { row: 31, col: 0, value: 3.0 },
            ],
        );
        let err = d.apply(&b, None).unwrap_err();
        assert!(matches!(err, UpdateError::SideBufferOverflow { needed: 3, capacity: 2 }));
        assert_eq!(d, before, "a rejected batch must not mutate anything");
    }

    #[test]
    fn update_fault_is_caught_by_touched_verification() {
        let csr = gen::random_uniform(48, 48, 400, 303);
        let mut d = DeltaBitBsr::new(BitBsr::from_csr(&csr), 64);
        let b = random_batch(&csr, &mut Pcg64::new(5, 5), 9);
        let truth = apply_to_csr(&csr, &b).unwrap();
        d.apply(&b, Some(UpdateFault { delta_index: 4, bit: 9 })).unwrap();
        assert!(
            d.verify_touched(&truth, &b.touched_block_rows()) > 0,
            "a flipped stored bit must be detected"
        );
    }

    #[test]
    fn logical_view_covers_side_entries() {
        let csr = gen::random_uniform(40, 40, 200, 71);
        let mut d = DeltaBitBsr::new(BitBsr::from_csr(&csr), 64);
        let b = random_batch(&csr, &mut Pcg64::new(9, 9), 25);
        let truth = apply_to_csr(&csr, &b).unwrap();
        d.apply(&b, None).unwrap();
        assert_eq!(d.logical_nnz(), truth.nnz());
        // Every block-row (touched or not) must agree with the truth.
        let all: Vec<usize> = (0..d.base().block_rows).collect();
        assert_eq!(d.verify_touched(&truth, &all), 0);
    }
}
