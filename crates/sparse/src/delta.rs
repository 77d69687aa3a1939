//! Point updates ("deltas") over sparse matrices — the substrate of the
//! streaming/evolving-matrix lifecycle.
//!
//! A [`Delta`] sets one entry: `A[row, col] = value`, inserting the
//! position if it is absent (a *structural* delta) or overwriting it if
//! present (a *value-only* delta). A [`DeltaBatch`] is a validated,
//! canonically ordered set of deltas that is applied atomically: one
//! batch, one new matrix epoch.
//!
//! This module is format-agnostic: [`apply_to_csr`] is the from-scratch
//! oracle every incremental representation (the delta-bitBSR in the
//! `spaden` core crate) is verified against, and [`classify`] tells a
//! value-only update (structure unchanged) from a structural one.
//!
//! Batches are canonicalised (sorted by `(row, col)`, duplicates
//! rejected with a typed [`UpdateError`]), which makes *commuting*
//! batches — batches touching disjoint positions — order-independent by
//! construction: applying them in either order yields bit-identical
//! matrices, and therefore bit-identical fingerprints.

use crate::csr::Csr;
use crate::gen::BLOCK_DIM;

/// One point update: set `A[row, col] = value`.
///
/// Inserts the entry if the position is not stored (structural), or
/// overwrites the stored value (value-only). A `value` of `0.0` stores
/// an explicit zero — it does *not* delete the entry, mirroring how the
/// bitBSR bitmap keeps the bit set for every stored position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delta {
    /// Row of the entry to set.
    pub row: u32,
    /// Column of the entry to set.
    pub col: u32,
    /// New value (finite; rounded to f16 by f16-storing formats).
    pub value: f32,
}

/// Typed failure of a streaming update. Every error leaves the target
/// matrix exactly as it was — updates are atomic at batch granularity.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateError {
    /// A delta addresses a position outside the matrix.
    OutOfBounds {
        /// Offending row.
        row: u32,
        /// Offending column.
        col: u32,
        /// Matrix rows.
        nrows: usize,
        /// Matrix columns.
        ncols: usize,
    },
    /// Two deltas in one batch address the same position — the batch
    /// order would silently decide which wins, so it is rejected.
    DuplicateDelta {
        /// Duplicated row.
        row: u32,
        /// Duplicated column.
        col: u32,
    },
    /// A delta carries a NaN or infinite value.
    NonFinite {
        /// Offending row.
        row: u32,
        /// Offending column.
        col: u32,
    },
    /// The batch contains no deltas (an epoch must change something).
    EmptyBatch,
    /// The new-block side buffer cannot hold the batch's insertions even
    /// after a compaction would run — the batch is rejected whole.
    SideBufferOverflow {
        /// Entries the buffer would need to hold.
        needed: usize,
        /// The buffer's hard capacity.
        capacity: usize,
    },
    /// A threshold-triggered compaction did not reproduce the
    /// from-scratch rebuild bit-for-bit; the epoch was rolled back.
    CompactionMismatch {
        /// The epoch that failed to publish.
        epoch: u64,
    },
    /// Post-update verification failed (the incremental state disagrees
    /// with the logical matrix); the epoch was rolled back.
    VerificationFailed {
        /// The epoch that failed to publish.
        epoch: u64,
        /// Block-rows that disagreed.
        block_rows: usize,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::OutOfBounds { row, col, nrows, ncols } => {
                write!(f, "delta ({row}, {col}) outside {nrows}x{ncols} matrix")
            }
            UpdateError::DuplicateDelta { row, col } => {
                write!(f, "duplicate delta for position ({row}, {col}) in one batch")
            }
            UpdateError::NonFinite { row, col } => {
                write!(f, "non-finite delta value at ({row}, {col})")
            }
            UpdateError::EmptyBatch => write!(f, "empty delta batch"),
            UpdateError::SideBufferOverflow { needed, capacity } => {
                write!(f, "side buffer overflow: {needed} entries > capacity {capacity}")
            }
            UpdateError::CompactionMismatch { epoch } => {
                write!(f, "compaction of epoch {epoch} not bit-identical to rebuild; rolled back")
            }
            UpdateError::VerificationFailed { epoch, block_rows } => {
                write!(
                    f,
                    "post-update verification of epoch {epoch} failed in {block_rows} \
                     block-row(s); rolled back"
                )
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// What a batch does to the matrix *structure* — the axis every cache
/// invalidation decision turns on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaClass {
    /// Every delta overwrites an already-stored position: the sparsity
    /// pattern (and so the structure digest, the plan, and the
    /// partition) is unchanged.
    ValueOnly,
    /// At least one delta inserts a new position: pattern-derived state
    /// (plans, partitions, sliced checksums) must be rebuilt.
    Structural,
}

/// A validated batch of deltas, applied atomically as one epoch.
///
/// Canonical form: sorted by `(row, col)`, no duplicates, all positions
/// in bounds, all values finite. Canonicalisation is what makes
/// commuting batches order-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBatch {
    deltas: Vec<Delta>,
}

impl DeltaBatch {
    /// Validates `deltas` against an `nrows` x `ncols` matrix and
    /// canonicalises them (sorted by `(row, col)`).
    pub fn new(mut deltas: Vec<Delta>, nrows: usize, ncols: usize) -> Result<Self, UpdateError> {
        if deltas.is_empty() {
            return Err(UpdateError::EmptyBatch);
        }
        for d in &deltas {
            if (d.row as usize) >= nrows || (d.col as usize) >= ncols {
                return Err(UpdateError::OutOfBounds { row: d.row, col: d.col, nrows, ncols });
            }
            if !d.value.is_finite() {
                return Err(UpdateError::NonFinite { row: d.row, col: d.col });
            }
        }
        deltas.sort_by_key(|d| (d.row, d.col));
        for w in deltas.windows(2) {
            if w[0].row == w[1].row && w[0].col == w[1].col {
                return Err(UpdateError::DuplicateDelta { row: w[0].row, col: w[0].col });
            }
        }
        Ok(DeltaBatch { deltas })
    }

    /// The canonicalised deltas, sorted by `(row, col)`.
    pub fn deltas(&self) -> &[Delta] {
        &self.deltas
    }

    /// Number of deltas in the batch.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Whether the batch is empty (never true for a constructed batch).
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// The sorted, deduplicated block-rows (8-row groups) the batch
    /// touches — the exact set whose ABFT checksums need recomputing.
    pub fn touched_block_rows(&self) -> Vec<usize> {
        let mut brs: Vec<usize> =
            self.deltas.iter().map(|d| d.row as usize / BLOCK_DIM).collect();
        brs.sort_unstable();
        brs.dedup();
        brs
    }
}

/// Typed failure of the delta byte-codec (the write-ahead log's payload
/// format). Decoding never panics: every malformed input maps to one of
/// these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The byte stream ends before the declared content does.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The byte stream continues past the declared content — a framing
    /// bug upstream, never silently ignored.
    TrailingBytes {
        /// Unconsumed bytes.
        extra: usize,
    },
    /// The declared element count cannot be represented as a byte length
    /// on this platform (a bit-rotted length prefix must not drive
    /// arithmetic overflow or allocation).
    BadCount {
        /// The declared count.
        count: u64,
        /// Bytes available to hold it.
        have: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated delta stream: needed {needed} bytes, have {have}")
            }
            CodecError::TrailingBytes { extra } => {
                write!(f, "delta stream has {extra} trailing byte(s)")
            }
            CodecError::BadCount { count, have } => {
                write!(f, "delta count {count} implausible for {have} bytes")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Bytes one encoded delta occupies: `row u32 | col u32 | value f32`.
const DELTA_BYTES: usize = 12;

/// Encodes raw deltas to the canonical little-endian wire form:
/// `count u32 | (row u32 | col u32 | value-bits u32)*`.
///
/// This operates *below* [`DeltaBatch`] validation on purpose: the wire
/// form preserves the exact f32 bit pattern (NaN payloads, infinities,
/// denormals survive a roundtrip bit for bit) and admits empty lists, so
/// the codec's identity property is unconditional — validation stays the
/// job of [`DeltaBatch::new`], exactly once, on the decoded values.
pub fn encode_deltas(deltas: &[Delta]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + deltas.len() * DELTA_BYTES);
    out.extend_from_slice(&(deltas.len() as u32).to_le_bytes());
    for d in deltas {
        out.extend_from_slice(&d.row.to_le_bytes());
        out.extend_from_slice(&d.col.to_le_bytes());
        out.extend_from_slice(&d.value.to_bits().to_le_bytes());
    }
    out
}

/// Decodes the wire form produced by [`encode_deltas`], restoring every
/// f32 bit pattern exactly. The whole input must be consumed.
pub fn decode_deltas(bytes: &[u8]) -> Result<Vec<Delta>, CodecError> {
    let have = bytes.len();
    if have < 4 {
        return Err(CodecError::Truncated { needed: 4, have });
    }
    let count = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as u64;
    let needed = match count
        .checked_mul(DELTA_BYTES as u64)
        .and_then(|n| n.checked_add(4))
        .and_then(|n| usize::try_from(n).ok())
    {
        Some(n) => n,
        None => return Err(CodecError::BadCount { count, have }),
    };
    if have < needed {
        return Err(CodecError::Truncated { needed, have });
    }
    if have > needed {
        return Err(CodecError::TrailingBytes { extra: have - needed });
    }
    let count = count as usize;
    let mut deltas = Vec::with_capacity(count);
    for i in 0..count {
        let at = 4 + i * DELTA_BYTES;
        let word = |o: usize| u32::from_le_bytes(bytes[at + o..at + o + 4].try_into().expect("4 bytes"));
        deltas.push(Delta { row: word(0), col: word(4), value: f32::from_bits(word(8)) });
    }
    Ok(deltas)
}

/// Round-trip failure of [`DeltaBatch::from_bytes`]: either the byte
/// stream is malformed or the decoded deltas fail batch validation.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchDecodeError {
    /// The byte stream itself is malformed.
    Codec(CodecError),
    /// The decoded deltas do not form a valid batch (the wire form is
    /// laxer than [`DeltaBatch`] — a corrupted payload can decode to
    /// NaN values, duplicates, or an empty list).
    Invalid(UpdateError),
}

impl std::fmt::Display for BatchDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchDecodeError::Codec(e) => write!(f, "batch decode: {e}"),
            BatchDecodeError::Invalid(e) => write!(f, "decoded batch invalid: {e}"),
        }
    }
}

impl std::error::Error for BatchDecodeError {}

impl DeltaBatch {
    /// The batch's canonical wire form ([`encode_deltas`] of the
    /// canonicalised deltas). Two equal batches encode to identical
    /// bytes, so WAL records of the same epoch are bit-reproducible.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_deltas(&self.deltas)
    }

    /// Decodes and re-validates a batch against an `nrows` x `ncols`
    /// matrix. For bytes produced by [`DeltaBatch::to_bytes`] this is an
    /// identity (the encoded order is already canonical); for corrupted
    /// bytes it returns a typed error instead of a bad batch.
    pub fn from_bytes(
        bytes: &[u8],
        nrows: usize,
        ncols: usize,
    ) -> Result<DeltaBatch, BatchDecodeError> {
        let deltas = decode_deltas(bytes).map_err(BatchDecodeError::Codec)?;
        DeltaBatch::new(deltas, nrows, ncols).map_err(BatchDecodeError::Invalid)
    }
}

/// Classifies a batch against the current matrix: [`DeltaClass::ValueOnly`]
/// iff every delta's position is already stored in `csr`.
pub fn classify(csr: &Csr, batch: &DeltaBatch) -> DeltaClass {
    let stored = |d: &Delta| {
        let (cols, _) = csr.row(d.row as usize);
        cols.binary_search(&d.col).is_ok()
    };
    if batch.deltas.iter().all(stored) {
        DeltaClass::ValueOnly
    } else {
        DeltaClass::Structural
    }
}

/// Applies a batch to a CSR matrix from scratch, returning the new
/// matrix. This is the oracle every incremental representation is
/// verified against: same logical result, rebuilt without shortcuts.
pub fn apply_to_csr(csr: &Csr, batch: &DeltaBatch) -> Result<Csr, UpdateError> {
    // Re-check bounds against *this* matrix: the batch may have been
    // validated against different dimensions.
    for d in &batch.deltas {
        if (d.row as usize) >= csr.nrows || (d.col as usize) >= csr.ncols {
            return Err(UpdateError::OutOfBounds {
                row: d.row,
                col: d.col,
                nrows: csr.nrows,
                ncols: csr.ncols,
            });
        }
    }
    let mut row_ptr = Vec::with_capacity(csr.nrows + 1);
    let mut col_idx = Vec::with_capacity(csr.nnz() + batch.len());
    let mut values = Vec::with_capacity(csr.nnz() + batch.len());
    row_ptr.push(0u32);
    let mut cursor = 0usize; // into batch.deltas, which is (row, col)-sorted
    for r in 0..csr.nrows {
        let (cols, vals) = csr.row(r);
        let row_end = {
            let mut e = cursor;
            while e < batch.deltas.len() && batch.deltas[e].row as usize == r {
                e += 1;
            }
            e
        };
        let row_deltas = &batch.deltas[cursor..row_end];
        cursor = row_end;
        // Merge the sorted existing columns with the sorted row deltas;
        // a delta on an existing column overwrites, otherwise inserts.
        let (mut i, mut j) = (0usize, 0usize);
        while i < cols.len() || j < row_deltas.len() {
            if j == row_deltas.len() || (i < cols.len() && cols[i] < row_deltas[j].col) {
                col_idx.push(cols[i]);
                values.push(vals[i]);
                i += 1;
            } else if i == cols.len() || row_deltas[j].col < cols[i] {
                col_idx.push(row_deltas[j].col);
                values.push(row_deltas[j].value);
                j += 1;
            } else {
                col_idx.push(cols[i]);
                values.push(row_deltas[j].value);
                i += 1;
                j += 1;
            }
        }
        row_ptr.push(col_idx.len() as u32);
    }
    Ok(Csr::new(csr.nrows, csr.ncols, row_ptr, col_idx, values)
        .expect("merge of two sorted, in-bounds column lists is a valid CSR"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::rng::Pcg64;

    fn d(row: u32, col: u32, value: f32) -> Delta {
        Delta { row, col, value }
    }

    #[test]
    fn batch_canonicalises_and_validates() {
        let b = DeltaBatch::new(vec![d(3, 1, 1.0), d(0, 2, 2.0), d(3, 0, 3.0)], 8, 8).unwrap();
        let order: Vec<_> = b.deltas().iter().map(|x| (x.row, x.col)).collect();
        assert_eq!(order, vec![(0, 2), (3, 0), (3, 1)]);
        assert_eq!(b.touched_block_rows(), vec![0]);
        assert_eq!(
            DeltaBatch::new(vec![d(8, 0, 1.0)], 8, 8),
            Err(UpdateError::OutOfBounds { row: 8, col: 0, nrows: 8, ncols: 8 })
        );
        assert_eq!(
            DeltaBatch::new(vec![d(1, 1, 1.0), d(1, 1, 2.0)], 8, 8),
            Err(UpdateError::DuplicateDelta { row: 1, col: 1 })
        );
        assert_eq!(
            DeltaBatch::new(vec![d(0, 0, f32::NAN)], 8, 8),
            Err(UpdateError::NonFinite { row: 0, col: 0 })
        );
        assert_eq!(DeltaBatch::new(vec![], 8, 8), Err(UpdateError::EmptyBatch));
    }

    #[test]
    fn apply_overwrites_and_inserts() {
        let csr = gen::random_uniform(32, 24, 120, 11);
        let (cols0, vals0) = csr.row(5);
        assert!(!cols0.is_empty());
        let existing = cols0[0];
        let absent = (0..24u32).find(|c| cols0.binary_search(c).is_err()).unwrap();
        let batch = DeltaBatch::new(
            vec![d(5, existing, 42.0), d(5, absent, -7.0)],
            32,
            24,
        )
        .unwrap();
        assert_eq!(classify(&csr, &batch), DeltaClass::Structural);
        let next = apply_to_csr(&csr, &batch).unwrap();
        next.validate().unwrap();
        assert_eq!(next.nnz(), csr.nnz() + 1);
        let (cols1, vals1) = next.row(5);
        let at = |c: u32| vals1[cols1.binary_search(&c).unwrap()];
        assert_eq!(at(existing), 42.0);
        assert_eq!(at(absent), -7.0);
        // Untouched entries survive verbatim.
        for (c, v) in cols0.iter().zip(vals0).skip(1) {
            assert_eq!(at(*c), *v, "column {c} must be untouched");
        }
    }

    #[test]
    fn value_only_batches_are_classified_and_preserve_structure() {
        let csr = gen::random_uniform(40, 40, 300, 21);
        let mut rng = Pcg64::new(77, 1);
        let mut deltas = Vec::new();
        for r in (0..csr.nrows).step_by(3) {
            let (cols, _) = csr.row(r);
            if !cols.is_empty() {
                deltas.push(d(r as u32, cols[0], rng.range_f32(-2.0, 2.0)));
            }
        }
        let batch = DeltaBatch::new(deltas, 40, 40).unwrap();
        assert_eq!(classify(&csr, &batch), DeltaClass::ValueOnly);
        let next = apply_to_csr(&csr, &batch).unwrap();
        assert_eq!(next.row_ptr, csr.row_ptr);
        assert_eq!(next.col_idx, csr.col_idx);
        assert_ne!(next.values, csr.values);
    }

    #[test]
    fn commuting_batches_commute() {
        let csr = gen::random_uniform(48, 48, 250, 31);
        // Disjoint positions: batch a touches even rows, batch b odd rows.
        let a = DeltaBatch::new(vec![d(0, 5, 1.5), d(2, 7, -3.0)], 48, 48).unwrap();
        let b = DeltaBatch::new(vec![d(1, 4, 9.0), d(3, 3, 0.25)], 48, 48).unwrap();
        let ab = apply_to_csr(&apply_to_csr(&csr, &a).unwrap(), &b).unwrap();
        let ba = apply_to_csr(&apply_to_csr(&csr, &b).unwrap(), &a).unwrap();
        assert_eq!(ab, ba);
    }

    #[test]
    fn explicit_zero_is_stored_not_deleted() {
        let csr = gen::random_uniform(16, 16, 60, 41);
        let (cols, _) = csr.row(2);
        let batch = DeltaBatch::new(vec![d(2, cols[0], 0.0)], 16, 16).unwrap();
        let next = apply_to_csr(&csr, &batch).unwrap();
        assert_eq!(next.nnz(), csr.nnz(), "explicit zero keeps the position stored");
        assert_eq!(classify(&csr, &batch), DeltaClass::ValueOnly);
    }

    #[test]
    fn raw_delta_codec_is_identity_on_every_bit_pattern() {
        // The wire form is below batch validation: NaN payloads,
        // infinities, denormals, negative zero, and empty lists all
        // roundtrip bit for bit.
        let specials = [
            f32::NAN,
            f32::from_bits(0x7fc0_dead), // NaN with payload
            f32::from_bits(0xffc0_0001), // negative quiet NaN
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x0000_0001), // smallest denormal
            f32::from_bits(0x807f_ffff), // negative denormal
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            1.5e-42, // denormal range
        ];
        let deltas: Vec<Delta> = specials
            .iter()
            .enumerate()
            .map(|(i, &v)| Delta { row: i as u32 * 7, col: u32::MAX - i as u32, value: v })
            .collect();
        let bytes = encode_deltas(&deltas);
        let back = decode_deltas(&bytes).unwrap();
        assert_eq!(back.len(), deltas.len());
        for (a, b) in deltas.iter().zip(&back) {
            assert_eq!((a.row, a.col), (b.row, b.col));
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "f32 bits must survive");
        }
        assert_eq!(decode_deltas(&encode_deltas(&[])).unwrap(), vec![]);
    }

    #[test]
    fn random_delta_streams_roundtrip_bit_exact() {
        let mut rng = Pcg64::new(0xc0dec, 1);
        for _ in 0..50 {
            let n = rng.below_usize(40);
            let deltas: Vec<Delta> = (0..n)
                .map(|_| Delta {
                    row: rng.next_u64() as u32,
                    col: rng.next_u64() as u32,
                    value: f32::from_bits(rng.next_u64() as u32),
                })
                .collect();
            let back = decode_deltas(&encode_deltas(&deltas)).unwrap();
            let bits = |ds: &[Delta]| -> Vec<(u32, u32, u32)> {
                ds.iter().map(|d| (d.row, d.col, d.value.to_bits())).collect()
            };
            assert_eq!(bits(&deltas), bits(&back));
        }
    }

    #[test]
    fn delta_codec_rejects_malformed_streams_typed() {
        let bytes = encode_deltas(&[d(1, 2, 3.0), d(4, 5, 6.0)]);
        // Every proper prefix is truncated (or too short for the count).
        for cut in 0..bytes.len() {
            let e = decode_deltas(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(e, CodecError::Truncated { .. }),
                "cut {cut}: {e:?}"
            );
        }
        // Trailing garbage is rejected, not ignored.
        let mut long = bytes.clone();
        long.push(0xab);
        assert_eq!(decode_deltas(&long), Err(CodecError::TrailingBytes { extra: 1 }));
        // An absurd length prefix fails without allocating.
        let mut absurd = bytes;
        absurd[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_deltas(&absurd),
            Err(CodecError::Truncated { .. }) | Err(CodecError::BadCount { .. })
        ));
    }

    #[test]
    fn batch_bytes_roundtrip_is_identity() {
        let csr = gen::random_uniform(32, 32, 150, 13);
        let mut rng = Pcg64::new(9, 2);
        for _ in 0..10 {
            let mut deltas = Vec::new();
            let mut seen = std::collections::BTreeSet::new();
            while deltas.len() < 9 {
                let (row, col) =
                    (rng.below_usize(csr.nrows) as u32, rng.below_usize(csr.ncols) as u32);
                if seen.insert((row, col)) {
                    deltas.push(d(row, col, rng.range_f32(-8.0, 8.0)));
                }
            }
            let batch = DeltaBatch::new(deltas, csr.nrows, csr.ncols).unwrap();
            let back = DeltaBatch::from_bytes(&batch.to_bytes(), csr.nrows, csr.ncols).unwrap();
            assert_eq!(batch, back, "canonical batch must roundtrip exactly");
            assert_eq!(batch.to_bytes(), back.to_bytes(), "re-encoding must be stable");
        }
    }

    #[test]
    fn corrupted_batch_bytes_fail_validation_not_panic() {
        let batch = DeltaBatch::new(vec![d(1, 1, 1.0), d(2, 2, 2.0)], 8, 8).unwrap();
        let bytes = batch.to_bytes();
        // Flip every single bit: each corruption must decode to a typed
        // error or to a *valid* batch (a value/position flip can still
        // form a well-formed batch — the WAL layer's CRC is what catches
        // those; this asserts the codec itself never panics or accepts
        // malformed framing).
        for bit in 0..bytes.len() * 8 {
            let mut c = bytes.clone();
            c[bit / 8] ^= 1 << (bit % 8);
            let _ = DeltaBatch::from_bytes(&c, 8, 8);
        }
    }

    #[test]
    fn apply_rechecks_bounds_against_the_target() {
        let batch = DeltaBatch::new(vec![d(30, 30, 1.0)], 64, 64).unwrap();
        let small = gen::random_uniform(16, 16, 50, 51);
        assert!(matches!(
            apply_to_csr(&small, &batch),
            Err(UpdateError::OutOfBounds { .. })
        ));
    }
}
