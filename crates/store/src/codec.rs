//! Deterministic little-endian byte codec for every durable structure.
//!
//! The encoding rules are chosen for *bit reproducibility*, not
//! compactness: f32 values are stored as their exact `u32` bit pattern,
//! f16 values as their raw `u16`, f64 checksums as their `u64` bits —
//! so a decode → re-encode cycle is the identity and a recovered epoch
//! can be compared `==` against the pre-crash state at every level
//! (truth values, format bits, ABFT sums). Every length is an explicit
//! `u64` prefix; decoding validates lengths before allocating and every
//! structural invariant after, so corrupted bytes become typed errors,
//! never panics or malformed structures.

use spaden::{AbftChecksums, BitBsr, EvolveConfig, EvolveStats, SideEntry};
use spaden_gpusim::half::F16;
use spaden_sparse::Csr;

/// Typed decode failure — the payload layer beneath the WAL's framing
/// errors (a frame can pass its CRC and still fail here only if the
/// *encoder* was broken, so these double as self-checks).
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The byte stream ends before the declared content does.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The stream continues past the declared content.
    TrailingBytes {
        /// Unconsumed bytes.
        extra: usize,
    },
    /// A declared length cannot fit the remaining stream.
    BadLength {
        /// The declared element count.
        count: u64,
        /// What was being decoded.
        what: &'static str,
    },
    /// The decoded structure violates its own invariants.
    Invalid(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated: needed {needed} bytes, have {have}")
            }
            CodecError::TrailingBytes { extra } => write!(f, "{extra} trailing byte(s)"),
            CodecError::BadLength { count, what } => {
                write!(f, "implausible length {count} decoding {what}")
            }
            CodecError::Invalid(s) => write!(f, "invalid structure: {s}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Little-endian byte writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    /// The bytes written so far.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn put_u32s(&mut self, vs: &[u32]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Appends a length-prefixed `f64` slice as exact bit patterns.
    pub fn put_f64_bits(&mut self, vs: &[f64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v.to_bits());
        }
    }
}

/// Little-endian byte reader with typed underflow errors.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    /// Fails unless the whole input was consumed.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::TrailingBytes { extra: self.remaining() });
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { needed: self.at + n, have: self.bytes.len() });
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16` little-endian.
    pub fn get_u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    /// Reads a `u32` little-endian.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a `u64` little-endian.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a `u64` that must fit a `usize` and the remaining stream at
    /// `elem_bytes` per element (corrupted length prefixes must not
    /// drive allocation).
    fn get_count(&mut self, elem_bytes: usize, what: &'static str) -> Result<usize, CodecError> {
        let count = self.get_u64()?;
        let fits = usize::try_from(count)
            .ok()
            .and_then(|c| c.checked_mul(elem_bytes))
            .map(|need| need <= self.remaining())
            .unwrap_or(false);
        if !fits {
            return Err(CodecError::BadLength { count, what });
        }
        Ok(count as usize)
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn get_u32s(&mut self, what: &'static str) -> Result<Vec<u32>, CodecError> {
        let n = self.get_count(4, what)?;
        (0..n).map(|_| self.get_u32()).collect()
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn get_u64s(&mut self, what: &'static str) -> Result<Vec<u64>, CodecError> {
        let n = self.get_count(8, what)?;
        (0..n).map(|_| self.get_u64()).collect()
    }

    /// Reads a length-prefixed `f64` slice from exact bit patterns.
    pub fn get_f64_bits(&mut self, what: &'static str) -> Result<Vec<f64>, CodecError> {
        let n = self.get_count(8, what)?;
        (0..n).map(|_| self.get_u64().map(f64::from_bits)).collect()
    }
}

/// Encodes a CSR matrix with exact f32 bit patterns (the truth the
/// fingerprint's `values_digest` hashes — an f16 round-trip here would
/// silently change the recovered fingerprint).
pub fn encode_csr(w: &mut ByteWriter, csr: &Csr) {
    w.put_u64(csr.nrows as u64);
    w.put_u64(csr.ncols as u64);
    w.put_u32s(&csr.row_ptr);
    w.put_u32s(&csr.col_idx);
    w.put_u64(csr.values.len() as u64);
    for &v in &csr.values {
        w.put_u32(v.to_bits());
    }
}

/// Decodes and re-validates a CSR matrix.
pub fn decode_csr(r: &mut ByteReader<'_>) -> Result<Csr, CodecError> {
    let nrows = r.get_u64()? as usize;
    let ncols = r.get_u64()? as usize;
    let row_ptr = r.get_u32s("csr row_ptr")?;
    let col_idx = r.get_u32s("csr col_idx")?;
    let n = r.get_count(4, "csr values")?;
    let values: Vec<f32> =
        (0..n).map(|_| r.get_u32().map(f32::from_bits)).collect::<Result<_, _>>()?;
    Csr::new(nrows, ncols, row_ptr, col_idx, values)
        .map_err(|e| CodecError::Invalid(format!("csr: {e}")))
}

/// Encodes a bitBSR format: block skeleton plus the stored f16 values
/// as raw `u16` bit patterns (the deterministic on-disk f16 encoding).
pub fn encode_bitbsr(w: &mut ByteWriter, b: &BitBsr) {
    w.put_u64(b.nrows as u64);
    w.put_u64(b.ncols as u64);
    w.put_u64(b.block_rows as u64);
    w.put_u64(b.block_cols_dim as u64);
    w.put_u32s(&b.block_row_ptr);
    w.put_u32s(&b.block_cols);
    w.put_u64s(&b.bitmaps);
    w.put_u32s(&b.block_offsets);
    w.put_u64(b.values.len() as u64);
    for v in &b.values {
        w.put_u16(v.0);
    }
}

/// Decodes and re-validates a bitBSR format.
pub fn decode_bitbsr(r: &mut ByteReader<'_>) -> Result<BitBsr, CodecError> {
    let nrows = r.get_u64()? as usize;
    let ncols = r.get_u64()? as usize;
    let block_rows = r.get_u64()? as usize;
    let block_cols_dim = r.get_u64()? as usize;
    let block_row_ptr = r.get_u32s("bitbsr block_row_ptr")?;
    let block_cols = r.get_u32s("bitbsr block_cols")?;
    let bitmaps = r.get_u64s("bitbsr bitmaps")?;
    let block_offsets = r.get_u32s("bitbsr block_offsets")?;
    let n = r.get_count(2, "bitbsr values")?;
    let values: Vec<F16> = (0..n).map(|_| r.get_u16().map(F16)).collect::<Result<_, _>>()?;
    let b = BitBsr {
        nrows,
        ncols,
        block_rows,
        block_cols_dim,
        block_row_ptr,
        block_cols,
        bitmaps,
        block_offsets,
        values,
    };
    b.validate().map_err(|e| CodecError::Invalid(format!("bitbsr: {e}")))?;
    Ok(b)
}

/// Encodes the side buffer as `(row u32, col u32, f16 bits u16)` triples.
pub fn encode_side(w: &mut ByteWriter, side: &[SideEntry]) {
    w.put_u64(side.len() as u64);
    for e in side {
        w.put_u32(e.row);
        w.put_u32(e.col);
        w.put_u16(e.value.0);
    }
}

/// Decodes the side buffer (order and uniqueness are re-validated by
/// `DeltaBitBsr::from_parts` downstream).
pub fn decode_side(r: &mut ByteReader<'_>) -> Result<Vec<SideEntry>, CodecError> {
    let n = r.get_count(10, "side entries")?;
    (0..n)
        .map(|_| {
            Ok(SideEntry { row: r.get_u32()?, col: r.get_u32()?, value: F16(r.get_u16()?) })
        })
        .collect()
}

/// Encodes an ABFT checksum set: the raw CSR-like arrays with every f64
/// as its exact bit pattern, so the restored set compares `==` against
/// the live one.
pub fn encode_sums(w: &mut ByteWriter, s: &AbftChecksums) {
    let p = s.raw_parts();
    w.put_u64(p.nrows as u64);
    w.put_u64(p.ncols as u64);
    w.put_u32s(p.ptr);
    w.put_u32s(p.cols);
    w.put_f64_bits(p.sums);
    w.put_f64_bits(p.wsums);
    w.put_f64_bits(p.abs);
    w.put_u32s(p.nnz_br);
}

/// Decodes and structurally re-validates an ABFT checksum set.
pub fn decode_sums(r: &mut ByteReader<'_>) -> Result<AbftChecksums, CodecError> {
    let nrows = r.get_u64()? as usize;
    let ncols = r.get_u64()? as usize;
    let ptr = r.get_u32s("sums ptr")?;
    let cols = r.get_u32s("sums cols")?;
    let sums = r.get_f64_bits("sums sums")?;
    let wsums = r.get_f64_bits("sums wsums")?;
    let abs = r.get_f64_bits("sums abs")?;
    let nnz_br = r.get_u32s("sums nnz_br")?;
    AbftChecksums::from_raw_parts(nrows, ncols, ptr, cols, sums, wsums, abs, nnz_br)
        .map_err(|e| CodecError::Invalid(format!("checksums: {e}")))
}

/// Encodes the lifecycle configuration.
pub fn encode_config(w: &mut ByteWriter, c: &EvolveConfig) {
    w.put_u64(c.side_capacity as u64);
    w.put_u64(c.compact_threshold as u64);
    w.put_u8(c.audit as u8);
}

/// Decodes the lifecycle configuration.
pub fn decode_config(r: &mut ByteReader<'_>) -> Result<EvolveConfig, CodecError> {
    Ok(EvolveConfig {
        side_capacity: r.get_u64()? as usize,
        compact_threshold: r.get_u64()? as usize,
        audit: r.get_u8()? != 0,
    })
}

/// Encodes the lifetime counters.
pub fn encode_stats(w: &mut ByteWriter, s: &EvolveStats) {
    for v in [s.updates, s.rollbacks, s.compactions, s.structural_batches, s.value_only_batches, s.audits]
    {
        w.put_u64(v);
    }
}

/// Decodes the lifetime counters.
pub fn decode_stats(r: &mut ByteReader<'_>) -> Result<EvolveStats, CodecError> {
    Ok(EvolveStats {
        updates: r.get_u64()?,
        rollbacks: r.get_u64()?,
        compactions: r.get_u64()?,
        structural_batches: r.get_u64()?,
        value_only_batches: r.get_u64()?,
        audits: r.get_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spaden_sparse::gen;

    #[test]
    fn csr_roundtrip_preserves_f32_bits() {
        let mut csr = gen::random_uniform(40, 36, 200, 17);
        // Plant denormal and negative-zero bit patterns in the truth.
        csr.values[0] = f32::from_bits(0x0000_0001);
        csr.values[1] = -0.0;
        let mut w = ByteWriter::new();
        encode_csr(&mut w, &csr);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let back = decode_csr(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back, csr);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.values), bits(&csr.values));
    }

    #[test]
    fn bitbsr_and_sums_roundtrip_exactly() {
        let csr = gen::random_uniform(64, 64, 500, 23);
        let b = BitBsr::from_csr(&csr);
        let sums = AbftChecksums::build(&b);
        let mut w = ByteWriter::new();
        encode_bitbsr(&mut w, &b);
        encode_sums(&mut w, &sums);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_bitbsr(&mut r).unwrap(), b);
        assert_eq!(decode_sums(&mut r).unwrap(), sums);
        r.expect_end().unwrap();
    }

    #[test]
    fn swapped_columns_decode_to_a_typed_error() {
        // A snapshot whose CSR columns were swapped within a row decodes to
        // a typed error: the blocked conversions' merge walk relies on
        // strictly increasing columns.
        let mut csr = gen::random_uniform(24, 24, 80, 5);
        let row = (0..csr.nrows).find(|&r| csr.row_nnz(r) >= 2).expect("a row with two nonzeros");
        let lo = csr.row_ptr[row] as usize;
        csr.col_idx.swap(lo, lo + 1);
        let mut w = ByteWriter::new();
        encode_csr(&mut w, &csr);
        let bytes = w.finish();
        match decode_csr(&mut ByteReader::new(&bytes)) {
            Err(CodecError::Invalid(msg)) => assert!(msg.contains("strictly increasing"), "{msg}"),
            other => panic!("expected a typed Invalid error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_and_bad_lengths_are_typed() {
        let csr = gen::random_uniform(24, 24, 80, 3);
        let mut w = ByteWriter::new();
        encode_csr(&mut w, &csr);
        let bytes = w.finish();
        for cut in [0usize, 5, 17, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            let e = decode_csr(&mut r).unwrap_err();
            assert!(
                matches!(e, CodecError::Truncated { .. } | CodecError::BadLength { .. }),
                "cut {cut}: {e:?}"
            );
        }
        // A corrupted length prefix must fail before allocating.
        let mut huge = bytes.clone();
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut r = ByteReader::new(&huge);
        assert!(matches!(decode_csr(&mut r), Err(CodecError::BadLength { .. })));
    }
}
