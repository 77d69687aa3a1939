//! Matrix Multiply-Accumulate emulation.
//!
//! `D = A × B + C` on 16×16×16 fragments with f16 multiplicands and f32
//! accumulation — the numerical behaviour of `wmma::mma_sync` (inputs are
//! rounded to f16 when written into A/B fragments; products and sums are
//! f32). Also provides the `m8n8k4` primitive DASP builds on.

use crate::fragment::{FragKind, Fragment, FRAG_DIM};
use crate::half::F16;

/// `wmma::mma_sync(d, a, b, c)`: `D = A × B + C`.
///
/// Panics if the operand kinds are wrong, mirroring the type safety the
/// WMMA C++ API enforces at compile time.
pub fn mma_sync(d: &mut Fragment, a: &Fragment, b: &Fragment, c: &Fragment) {
    assert_eq!(a.kind, FragKind::MatrixA, "a must be a MatrixA fragment");
    assert_eq!(b.kind, FragKind::MatrixB, "b must be a MatrixB fragment");
    assert_eq!(c.kind, FragKind::Accumulator, "c must be an Accumulator fragment");
    assert_eq!(d.kind, FragKind::Accumulator, "d must be an Accumulator fragment");

    // A and B register values were already rounded to f16 on write; the
    // products and the accumulation below are f32, matching tensor-core
    // mixed precision. Every element of D is `c[r][n]` plus the products
    // `a[r][k] * b[k][n]` added one at a time in ascending `k` (unfused),
    // computed a whole row at a time on the row-major operands.
    let a = a.store_matrix();
    let b = b.store_matrix();
    let mut m = c.store_matrix();
    for (row, a_row) in m.chunks_exact_mut(FRAG_DIM).zip(a.chunks_exact(FRAG_DIM)) {
        for (&a_rk, b_row) in a_row.iter().zip(b.chunks_exact(FRAG_DIM)) {
            for (acc, &b_kn) in row.iter_mut().zip(b_row) {
                *acc += a_rk * b_kn;
            }
        }
    }
    d.load_matrix(&m);
}

/// The Volta-native `mma.sync.m8n8k4` primitive (DASP's building block):
/// `D[8x8] = A[8x4] × B[4x8] + C[8x8]`, f16 inputs, f32 accumulate.
///
/// Operands are plain row-major arrays; DASP's row-bucketed kernels manage
/// their own packing.
pub fn mma_m8n8k4(a: &[f32; 32], b: &[f32; 32], c: &[f32; 64]) -> [f32; 64] {
    // Each operand is rounded to f16 once, not once per product.
    let a = F16::round_f32_all(*a);
    let b = F16::round_f32_all(*b);
    let mut d = [0.0f32; 64];
    for r in 0..8 {
        for n in 0..8 {
            let mut acc = c[r * 8 + n];
            for k in 0..4 {
                acc += a[r * 4 + k] * b[k * 8 + n];
            }
            d[r * 8 + n] = acc;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm_f16(a: &[f32; 256], b: &[f32; 256], c: &[f32; 256]) -> [f32; 256] {
        let mut d = [0.0f32; 256];
        let h = crate::half::F16::round_f32;
        for r in 0..16 {
            for n in 0..16 {
                let mut acc = c[r * 16 + n];
                for k in 0..16 {
                    acc += h(a[r * 16 + k]) * h(b[k * 16 + n]);
                }
                d[r * 16 + n] = acc;
            }
        }
        d
    }

    #[test]
    fn identity_times_matrix() {
        let mut a = Fragment::new(FragKind::MatrixA);
        for i in 0..16 {
            a.set(i, i, 1.0);
        }
        let mut b = Fragment::new(FragKind::MatrixB);
        let mut bm = [0.0f32; 256];
        for (i, v) in bm.iter_mut().enumerate() {
            *v = (i % 37) as f32; // exactly representable in f16
        }
        b.load_matrix(&bm);
        let c = Fragment::new(FragKind::Accumulator);
        let mut d = Fragment::new(FragKind::Accumulator);
        mma_sync(&mut d, &a, &b, &c);
        assert_eq!(d.store_matrix(), bm);
    }

    #[test]
    fn matches_naive_gemm_with_f16_rounding() {
        let mut rng = 0x12345u64;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let mut am = [0.0f32; 256];
        let mut bm = [0.0f32; 256];
        let mut cm = [0.0f32; 256];
        for i in 0..256 {
            am[i] = next();
            bm[i] = next();
            cm[i] = next();
        }
        let (mut a, mut b, mut c) = (
            Fragment::new(FragKind::MatrixA),
            Fragment::new(FragKind::MatrixB),
            Fragment::new(FragKind::Accumulator),
        );
        a.load_matrix(&am);
        b.load_matrix(&bm);
        c.load_matrix(&cm);
        let mut d = Fragment::new(FragKind::Accumulator);
        mma_sync(&mut d, &a, &b, &c);
        let expect = naive_gemm_f16(&am, &bm, &cm);
        let got = d.store_matrix();
        for i in 0..256 {
            assert!((got[i] - expect[i]).abs() < 1e-6, "at {i}: {} vs {}", got[i], expect[i]);
        }
    }

    #[test]
    fn accumulator_c_is_added() {
        let a = Fragment::new(FragKind::MatrixA); // zero
        let b = Fragment::new(FragKind::MatrixB);
        let mut c = Fragment::new(FragKind::Accumulator);
        c.fill(3.25);
        let mut d = Fragment::new(FragKind::Accumulator);
        mma_sync(&mut d, &a, &b, &c);
        assert!(d.store_matrix().iter().all(|&v| v == 3.25));
    }

    #[test]
    fn kind_mismatch_panics() {
        let a = Fragment::new(FragKind::MatrixA);
        let b = Fragment::new(FragKind::MatrixB);
        let c = Fragment::new(FragKind::Accumulator);
        let mut d = Fragment::new(FragKind::Accumulator);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // b and a swapped.
            mma_sync(&mut d, &b, &a, &c);
        }));
        assert!(res.is_err());
    }

    #[test]
    fn diagonal_block_structure_stays_independent() {
        // Spaden's trick: two 8x8 blocks on the fragment diagonal (TL, BR)
        // with zero off-diagonal portions multiply independently.
        let mut a = Fragment::new(FragKind::MatrixA);
        let mut b = Fragment::new(FragKind::MatrixB);
        // TL of A = 2*I, BR of A = 3*I.
        for i in 0..8 {
            a.set(i, i, 2.0);
            a.set(8 + i, 8 + i, 3.0);
        }
        // B columns: TL column 0 = [1..8], BR column 0 (global col 8) = [10..17].
        for k in 0..8 {
            for n in 0..8 {
                b.set(k, n, (k + 1) as f32);
                b.set(8 + k, 8 + n, (k + 10) as f32);
            }
        }
        let c = Fragment::new(FragKind::Accumulator);
        let mut d = Fragment::new(FragKind::Accumulator);
        mma_sync(&mut d, &a, &b, &c);
        for i in 0..8 {
            assert_eq!(d.get(i, 0), 2.0 * (i + 1) as f32, "TL row {i}");
            assert_eq!(d.get(8 + i, 8), 3.0 * (i + 10) as f32, "BR row {i}");
        }
    }

    #[test]
    fn m8n8k4_identity() {
        let mut a = [0.0f32; 32];
        for r in 0..4 {
            a[r * 4 + r] = 1.0;
        }
        let mut b = [0.0f32; 32];
        for (i, v) in b.iter_mut().enumerate() {
            *v = i as f32;
        }
        let c = [0.0f32; 64];
        let d = mma_m8n8k4(&a, &b, &c);
        // Rows 0..4 of D = rows of B; rows 4..8 = 0 (A rows 4..8 are zero).
        for r in 0..4 {
            for n in 0..8 {
                assert_eq!(d[r * 8 + n], b[r * 8 + n]);
            }
        }
        for v in &d[32..] {
            assert_eq!(*v, 0.0);
        }
    }
}
