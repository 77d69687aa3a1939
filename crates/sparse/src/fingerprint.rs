//! Deterministic structural matrix fingerprinting.
//!
//! A fingerprint identifies a matrix by content rather than by object
//! identity, so the *same* matrix — re-parsed from the same `.mtx` file,
//! regenerated from the same spec, or recovered from a write-ahead log —
//! fingerprints identically. Three consumers rely on that:
//!
//! * the store's snapshot identity check records the fingerprint key at
//!   snapshot time and refuses a restore whose matrix hashes differently;
//! * `Server::fingerprint_of` reports a served matrix's head-epoch
//!   fingerprint (an evolving matrix's is hashed on demand), which
//!   `repro recover` and the chaos oracle compare against the truth
//!   chain;
//! * the cost model's `MatrixStats` reads the block profile and degree
//!   statistics carried here at registration, so engines are priced
//!   without re-walking the matrix; commits then carry the stats forward
//!   without hashing.
//!
//! The fingerprint is a pure function of the matrix content: dimensions, nonzero structure, the 8×8 block
//! profile of Section 5.4 (which also feeds the cost-model selector),
//! a row-length histogram digest, and digests of the index and value
//! arrays. No wall-clock, RNG, allocation address, or hash-seed input
//! anywhere — the same matrix bits always produce the same fingerprint,
//! across processes and across runs.
//!
//! Values are digested by bit pattern (`f32::to_bits`), so matrices that
//! differ only in value bits (including `-0.0` vs `0.0` or NaN payloads)
//! fingerprint differently — a restored or recovered matrix must match
//! its recorded value bits exactly, not merely approximately.

use crate::csr::Csr;
use crate::stats::{block_profile, degree_histogram, BlockProfile};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher, the repository's one implementation:
/// fingerprints, dataset streams and the determinism digests of the
/// traffic and chaos layers all hash through it. Words are fed
/// little-endian. FNV is chosen for determinism and zero
/// dependencies, not collision resistance; the fingerprint combines four
/// independent digests plus the raw dimensions, so an accidental
/// collision must align across all of them at once.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    /// Hashes `bytes` in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes the 8 little-endian bytes of `v`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes())
    }

    /// Hashes the bit pattern of `v`.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits())
    }

    /// The digest of everything hashed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Deterministic structural fingerprint of one matrix.
///
/// Besides the digests, it carries the structural statistics the
/// cost-model selector consumes ([`BlockProfile`], mean/max degree), so
/// engines can be ranked from the fingerprint alone without re-walking
/// the matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatrixFingerprint {
    /// Matrix rows.
    pub nrows: usize,
    /// Matrix columns.
    pub ncols: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// 8×8 block profile (Section 5.4) — selector input.
    pub profile: BlockProfile,
    /// Maximum row degree — selector input (vector-width heuristics).
    pub max_degree: usize,
    /// FNV-1a digest of the power-of-two row-length histogram.
    pub degree_digest: u64,
    /// FNV-1a digest of `row_ptr` and `col_idx` (the sparsity pattern).
    pub structure_digest: u64,
    /// FNV-1a digest of the value bit patterns.
    pub values_digest: u64,
}

impl MatrixFingerprint {
    /// Collapses the fingerprint to one 64-bit identity key. Dimensions and
    /// all three digests are folded in, so any difference in shape,
    /// pattern, or values changes the key.
    pub fn key(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.nrows as u64);
        h.u64(self.ncols as u64);
        h.u64(self.nnz as u64);
        h.u64(self.degree_digest);
        h.u64(self.structure_digest);
        h.u64(self.values_digest);
        h.finish()
    }

    /// Short hex form for logs and reports.
    pub fn short(&self) -> String {
        format!("{:016x}", self.key())
    }

    /// Mean nonzeros per row.
    pub fn mean_degree(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz as f64 / self.nrows as f64
        }
    }
}

/// Computes the fingerprint of `csr`. Deterministic: depends only on the
/// matrix content (dimensions, `row_ptr`, `col_idx`, value bits).
pub fn fingerprint(csr: &Csr) -> MatrixFingerprint {
    // 32-bit words are widened to 64 bits before hashing.
    let mut structure = Fnv::new();
    structure.u64(csr.nrows as u64);
    structure.u64(csr.ncols as u64);
    for &p in &csr.row_ptr {
        structure.u64(u64::from(p));
    }
    for &c in &csr.col_idx {
        structure.u64(u64::from(c));
    }

    let mut values = Fnv::new();
    for &v in &csr.values {
        values.u64(u64::from(v.to_bits()));
    }

    let hist = degree_histogram(csr);
    let mut degrees = Fnv::new();
    let mut max_degree = 0usize;
    for &(bucket, count) in &hist {
        degrees.u64(bucket as u64);
        degrees.u64(count as u64);
    }
    for r in 0..csr.nrows {
        max_degree = max_degree.max(csr.row_nnz(r));
    }

    MatrixFingerprint {
        nrows: csr.nrows,
        ncols: csr.ncols,
        nnz: csr.nnz(),
        profile: block_profile(csr),
        max_degree,
        degree_digest: degrees.finish(),
        structure_digest: structure.finish(),
        values_digest: values.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn fnv_matches_the_published_fnv1a_64_vectors() {
        let digest = |s: &str| {
            let mut h = Fnv::new();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), FNV_OFFSET);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
        // Words hash as their little-endian bytes.
        let (mut a, mut b) = (Fnv::new(), Fnv::new());
        a.f64(1.5);
        b.bytes(&1.5f64.to_bits().to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn identical_matrices_fingerprint_identically() {
        let a = gen::random_uniform(200, 180, 3000, 41);
        let b = a.clone();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a).key(), fingerprint(&b).key());
    }

    #[test]
    fn regenerated_matrix_is_stable() {
        // Same generator, same seed — byte-identical matrix, same key.
        let a = gen::random_uniform(128, 128, 2000, 43);
        let b = gen::random_uniform(128, 128, 2000, 43);
        assert_eq!(fingerprint(&a).key(), fingerprint(&b).key());
    }

    #[test]
    fn value_change_flips_values_digest_only() {
        let a = gen::random_uniform(100, 100, 1500, 45);
        let mut b = a.clone();
        b.values[7] += 1.0;
        let (fa, fb) = (fingerprint(&a), fingerprint(&b));
        assert_eq!(fa.structure_digest, fb.structure_digest);
        assert_eq!(fa.degree_digest, fb.degree_digest);
        assert_ne!(fa.values_digest, fb.values_digest);
        assert_ne!(fa.key(), fb.key());
    }

    #[test]
    fn structure_change_flips_structure_digest() {
        let a = gen::random_uniform(100, 100, 1500, 47);
        let mut b = a.clone();
        // Move one nonzero to a different (still sorted) column.
        let row = (0..b.nrows).find(|&r| b.row_nnz(r) == 1).unwrap_or(0);
        let lo = b.row_ptr[row] as usize;
        b.col_idx[lo] = (b.col_idx[lo] + 1) % b.ncols as u32;
        let (fa, fb) = (fingerprint(&a), fingerprint(&b));
        assert_ne!(fa.structure_digest, fb.structure_digest);
        assert_ne!(fa.key(), fb.key());
    }

    #[test]
    fn negative_zero_differs_from_zero() {
        let mut a = gen::random_uniform(64, 64, 500, 49);
        let mut b = a.clone();
        a.values[0] = 0.0;
        b.values[0] = -0.0;
        assert_ne!(fingerprint(&a).values_digest, fingerprint(&b).values_digest);
    }

    #[test]
    fn dimensions_alone_distinguish() {
        // Two empty matrices with different shapes must not collide.
        let a = Csr::empty(64, 32);
        let b = Csr::empty(32, 64);
        assert_ne!(fingerprint(&a).key(), fingerprint(&b).key());
    }

    #[test]
    fn carries_selector_statistics() {
        let m = gen::random_uniform(256, 256, 8000, 51);
        let fp = fingerprint(&m);
        assert_eq!(fp.profile, crate::stats::block_profile(&m));
        assert_eq!(fp.nnz, m.nnz());
        assert!((fp.mean_degree() - m.nnz() as f64 / 256.0).abs() < 1e-12);
        assert!(fp.max_degree >= m.nnz() / 256);
    }
}
