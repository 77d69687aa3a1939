//! Matrix Multiply-Accumulate emulation.
//!
//! `D = A × B + C` on 16×16×16 fragments with f16 multiplicands and f32
//! accumulation — the numerical behaviour of `wmma::mma_sync` (inputs are
//! rounded to f16 when written into A/B fragments; products and sums are
//! f32). Also provides the `m8n8k4` primitive DASP builds on.

use crate::fragment::{FragKind, Fragment, REGS_PER_LANE};
use crate::half::F16;

/// `wmma::mma_sync(d, a, b, c)`: `D = A × B + C`, which is C copied into
/// D followed by [`mma_accumulate`].
///
/// Panics if the operand kinds are wrong, mirroring the type safety the
/// WMMA C++ API enforces at compile time.
pub fn mma_sync(d: &mut Fragment, a: &Fragment, b: &Fragment, c: &Fragment) {
    assert_eq!(c.kind, FragKind::Accumulator, "c must be an Accumulator fragment");
    d.regs = c.regs;
    mma_accumulate(d, a, b);
}

/// `D = A × B + D`: the MMA with the accumulator updated in place, which
/// is how every kernel chains its MMAs.
///
/// Panics if the operand kinds are wrong, as [`mma_sync`] does.
pub fn mma_accumulate(d: &mut Fragment, a: &Fragment, b: &Fragment) {
    assert_eq!(a.kind, FragKind::MatrixA, "a must be a MatrixA fragment");
    assert_eq!(b.kind, FragKind::MatrixB, "b must be a MatrixB fragment");
    assert_eq!(d.kind, FragKind::Accumulator, "d must be an Accumulator fragment");

    // A and B register values were already rounded to f16 on write; the
    // products and the accumulation below are f32, matching tensor-core
    // mixed precision. Every element of D is its incoming value C plus the
    // products `a[r][k] * b[k][n]` added one at a time in ascending `k`
    // (unfused).
    //
    // The work splits into the fragment's 8×8 portions: output portion
    // (i, j) adds the sub-products A(i, 0)·B(0, j), then A(i, 1)·B(1, j).
    // A sub-product whose A or B portion is all ±0 while the other is
    // finite adds only ±0 products, and `acc + ±0 == acc` bit for bit
    // unless `acc` is −0.0 (`-0 + +0 = +0`). A sum of f16 products is −0.0
    // only while every term so far, C included, is −0.0, so the skip is
    // exact when C's portion holds no −0.0. It must hold no NaN either: a
    // skipped add would leave a signalling NaN unquieted. Otherwise the
    // portion is computed in full. Spaden's two diagonal blocks leave six
    // of the eight sub-products all zero.
    let keep = sub_products(a, b, d);
    let mut b_rows = [[[0.0f32; 8]; 8]; 4];
    let mut b_used = [false; 4];
    for (pd, keep) in keep.iter().flatten().enumerate() {
        for l in (0..2).filter(|&l| keep[l]) {
            b_used[2 * l + pd % 2] = true;
        }
    }
    for p in (0..4).filter(|&p| b_used[p]) {
        b_rows[p] = portion_rows(b, p);
    }
    for (pd, keep) in keep.iter().flatten().enumerate() {
        let (i, j) = (pd / 2, pd % 2);
        if *keep == [false, false] {
            continue; // D's portion stays C's.
        }
        // Row `rr` of a row-layout portion `p` is registers `2p`, `2p + 1`
        // of lanes `4rr..4rr + 4`. Four rows at a time keep eight
        // independent accumulator chains in flight.
        for r0 in (0..8).step_by(4) {
            let mut acc = [[0.0f32; 8]; 4];
            for (q, row) in acc.iter_mut().enumerate() {
                for t in 0..4 {
                    let regs = &d.regs[4 * (r0 + q) + t];
                    row[2 * t..2 * t + 2].copy_from_slice(&regs[2 * pd..2 * pd + 2]);
                }
            }
            for l in (0..2).filter(|&l| keep[l]) {
                let pa = 2 * i + l;
                for (kk, b_row) in b_rows[2 * l + j].iter().enumerate() {
                    for (q, row) in acc.iter_mut().enumerate() {
                        let a_rk = a.regs[4 * (r0 + q) + kk / 2][2 * pa + kk % 2];
                        for (x, &b_kn) in row.iter_mut().zip(b_row) {
                            *x += a_rk * b_kn;
                        }
                    }
                }
            }
            for (q, row) in acc.iter().enumerate() {
                for t in 0..4 {
                    let regs = &mut d.regs[4 * (r0 + q) + t];
                    regs[2 * pd..2 * pd + 2].copy_from_slice(&row[2 * t..2 * t + 2]);
                }
            }
        }
    }
}

/// Portion `p` of the B operand as rows: element `(kk, nn)` is register
/// `2p + kk % 2` of lane `4nn + kk / 2`.
fn portion_rows(b: &Fragment, p: usize) -> [[f32; 8]; 8] {
    let mut rows = [[0.0f32; 8]; 8];
    for (lane, regs) in b.regs.iter().enumerate() {
        let (nn, kk) = (lane / 4, 2 * (lane % 4));
        rows[kk][nn] = regs[2 * p];
        rows[kk + 1][nn] = regs[2 * p + 1];
    }
    rows
}

/// `keep[i][j][l]`: whether output portion (i, j) adds A(i, l)·B(l, j).
fn sub_products(a: &Fragment, b: &Fragment, c: &Fragment) -> [[[bool; 2]; 2]; 2] {
    let (a_class, b_class) = (portion_classes(a), portion_classes(b));
    let c_blocks = c_blocks_skip(c);
    std::array::from_fn(|i| {
        std::array::from_fn(|j| {
            let keep = [0, 1].map(|l| {
                let (pa, pb) = (a_class[2 * i + l], b_class[2 * l + j]);
                !(pa.zero && pb.finite || pb.zero && pa.finite)
            });
            if keep != [true, true] && c_blocks[2 * i + j] {
                [true, true]
            } else {
                keep
            }
        })
    })
}

/// What [`mma_sync`]'s skip needs to know about one 8×8 portion.
#[derive(Clone, Copy)]
struct PortionClass {
    /// Every element is +0.0 or −0.0.
    zero: bool,
    /// No element is infinite or NaN.
    finite: bool,
}

/// Magnitude bits of both f32 halves of a register-pair word.
const MAGNITUDES: u64 = 0x7fff_ffff_7fff_ffff;
/// Sign bits of both halves.
const SIGNS: u64 = 0x8000_0000_8000_0000;

/// Portion `p` of a lane in any layout is its register pair `2p`,
/// `2p + 1`: one 64-bit word, so the scans fold four words per lane.
fn portion_words(regs: &[f32; REGS_PER_LANE]) -> [u64; 4] {
    std::array::from_fn(|p| (regs[2 * p + 1].to_bits() as u64) << 32 | regs[2 * p].to_bits() as u64)
}

fn portion_classes(f: &Fragment) -> [PortionClass; 4] {
    // An OR of magnitudes is zero only for ±0, and a magnitude + 2^23
    // reaches the sign bit exactly for inf and NaN.
    let (mut any, mut special) = ([0u64; 4], [0u64; 4]);
    for regs in &f.regs {
        for (p, word) in portion_words(regs).into_iter().enumerate() {
            let magnitude = word & MAGNITUDES;
            any[p] |= magnitude;
            special[p] |= magnitude + 0x0080_0000_0080_0000;
        }
    }
    std::array::from_fn(|p| PortionClass { zero: any[p] == 0, finite: special[p] & SIGNS == 0 })
}

/// Per portion of `c`: whether it holds a −0.0 or a NaN, which a skipped
/// `+ ±0` could change.
fn c_blocks_skip(c: &Fragment) -> [bool; 4] {
    let mut hit = [0u64; 4];
    for regs in &c.regs {
        for (p, word) in portion_words(regs).into_iter().enumerate() {
            let magnitude = word & MAGNITUDES;
            // −0.0: the sign set over a zero magnitude (which alone keeps
            // the sign bit of `magnitude + 0x7fff_ffff` clear). NaN: a
            // magnitude past inf carries `+ 0x007f_ffff` into the sign bit.
            let neg_zero = word & !(magnitude + MAGNITUDES);
            hit[p] |= neg_zero | (magnitude + 0x007f_ffff_007f_ffff);
        }
    }
    std::array::from_fn(|p| hit[p] & SIGNS != 0)
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

    /// The oracle `mma_sync` must equal bit for bit: every element is C
    /// plus all 16 products added in ascending `k`, with no skip.
    fn plain_mma(a: &Fragment, b: &Fragment, c: &Fragment) -> [f32; 256] {
        let (a, b, c) = (a.store_matrix(), b.store_matrix(), c.store_matrix());
        let mut d = [0.0f32; 256];
        for r in 0..16 {
            for n in 0..16 {
                let mut acc = c[r * 16 + n];
                for k in 0..16 {
                    acc += a[r * 16 + k] * b[k * 16 + n];
                }
                d[r * 16 + n] = acc;
            }
        }
        d
    }

    #[test]
    fn portion_skip_matches_the_plain_triple_loop() {
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let special = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -f32::NAN];
        // One 8x8 portion's values in one of six shapes: all +0, mixed
        // +0/-0, all -0, finite, finite with +0/-0 entries, or finite with
        // an inf or NaN (so a zero partner must not be skipped).
        let mut portion = |shape: u64| -> [f32; 64] {
            std::array::from_fn(|_| {
                let r = next();
                let finite = (r % 2001) as f32 / 64.0 - 15.0;
                match shape {
                    0 => 0.0,
                    1 => [0.0, -0.0][r as usize & 1],
                    2 => -0.0,
                    3 => finite,
                    4 => [finite, 0.0, -0.0][(r >> 20) as usize % 3],
                    _ if r >> 58 == 0 => special[(r >> 20) as usize % 4],
                    _ => finite,
                }
            })
        };
        let mut fill = |f: &mut Fragment, shapes: [u64; 4]| {
            let mut m = [0.0f32; 256];
            for (p, shape) in shapes.into_iter().enumerate() {
                let q = portion(shape);
                for (i, v) in q.into_iter().enumerate() {
                    m[(p / 2 * 8 + i / 8) * 16 + p % 2 * 8 + i % 8] = v;
                }
            }
            f.load_matrix(&m);
        };
        // NaNs fold to one value, as in the simulator's golden digests:
        // which NaN an add of two NaNs returns is up to the compiler.
        let fold = |m: [f32; 256]| m.map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() });
        let mut shape_rng = 0x1234_5678u64;
        for case in 0..3000 {
            shape_rng =
                shape_rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let shapes: [u64; 12] = std::array::from_fn(|i| (shape_rng >> (4 * i + 8)) % 6);
            let (mut a, mut b, mut c) = (
                Fragment::new(FragKind::MatrixA),
                Fragment::new(FragKind::MatrixB),
                Fragment::new(FragKind::Accumulator),
            );
            fill(&mut a, [shapes[0], shapes[1], shapes[2], shapes[3]]);
            fill(&mut b, [shapes[4], shapes[5], shapes[6], shapes[7]]);
            // C: zeros of both signs, -0.0 everywhere, finite values, NaNs.
            let c_shapes = [shapes[8] % 5, shapes[9] % 5, shapes[10] % 5, shapes[11]];
            fill(&mut c, c_shapes);
            let mut d = Fragment::new(FragKind::Accumulator);
            mma_sync(&mut d, &a, &b, &c);
            assert_eq!(fold(d.store_matrix()), fold(plain_mma(&a, &b, &c)), "case {case}");
        }
    }

    #[test]
    fn in_place_chain_matches_the_plain_triple_loop() {
        // A chain of MMAs as the tensor-core kernels issue them, each
        // accumulating into the last one's result in place. The portions
        // of A and B are zero, finite or hold an inf, and C starts with
        // −0.0, so the skip both fires and is refused along the chain.
        let mut rng = 0xfeed_u64;
        let mut portion = move |shape: u64| -> [f32; 64] {
            std::array::from_fn(|_| {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let r = rng >> 33;
                match shape {
                    0 => [0.0, -0.0][r as usize & 1],
                    1 if r.is_multiple_of(61) => f32::INFINITY,
                    _ => ((r >> 8) % 512) as f32 / 16.0 - 16.0,
                }
            })
        };
        let mut fragment = |kind: FragKind, shapes: [u64; 4]| {
            let mut m = [0.0f32; 256];
            for (p, shape) in shapes.into_iter().enumerate() {
                for (i, v) in portion(shape).into_iter().enumerate() {
                    m[(p / 2 * 8 + i / 8) * 16 + p % 2 * 8 + i % 8] = v;
                }
            }
            let mut f = Fragment::new(kind);
            f.load_matrix(&m);
            f
        };
        let fold = |m: [f32; 256]| m.map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() });
        let mut acc = Fragment::new(FragKind::Accumulator);
        acc.fill(-0.0);
        let mut want = acc.clone();
        for step in 0..60u64 {
            let shape = |k: u64| [0, 2, 2, 0, 1][((step * 7 + k * 3) % 5) as usize];
            let a = fragment(FragKind::MatrixA, [shape(0), shape(1), shape(2), shape(3)]);
            let b = fragment(FragKind::MatrixB, [shape(4), shape(5), shape(6), shape(7)]);
            let c = want.clone();
            want.load_matrix(&plain_mma(&a, &b, &c));
            mma_accumulate(&mut acc, &a, &b);
            assert_eq!(fold(acc.store_matrix()), fold(want.store_matrix()), "step {step}");
        }
    }
    #[test]
    fn negative_zero_accumulator_defeats_the_skip() {
        // A zero A portion against a positive B: every product is +0.0,
        // so -0.0 in C must become +0.0, as the full loop computes.
        let a = Fragment::new(FragKind::MatrixA);
        let mut b = Fragment::new(FragKind::MatrixB);
        b.fill(2.0);
        let mut c = Fragment::new(FragKind::Accumulator);
        c.fill(-0.0);
        let mut d = Fragment::new(FragKind::Accumulator);
        mma_sync(&mut d, &a, &b, &c);
        assert!(d.store_matrix().iter().all(|v| v.to_bits() == 0), "-0 + +0 is +0");
        // With no -0.0 in C, skipping leaves C as it is.
        c.fill(-1.5);
        mma_sync(&mut d, &a, &b, &c);
        assert!(d.store_matrix().iter().all(|&v| v == -1.5));
    }

    #[test]
    fn signalling_nan_accumulator_is_quieted_as_in_full() {
        // With one NaN operand an add returns it quieted, so the full loop
        // turns a signalling NaN in C into a quiet one even when every
        // product is zero. Skipping those adds would keep it signalling.
        let a = Fragment::new(FragKind::MatrixA);
        let mut b = Fragment::new(FragKind::MatrixB);
        b.fill(1.0);
        let mut c = Fragment::new(FragKind::Accumulator);
        c.set(3, 12, f32::from_bits(0x7fa0_0001));
        let mut d = Fragment::new(FragKind::Accumulator);
        mma_sync(&mut d, &a, &b, &c);
        let want = plain_mma(&a, &b, &c)[3 * 16 + 12].to_bits();
        assert_eq!(want & 0x0040_0000, 0x0040_0000, "the full loop quiets it");
        assert_eq!(d.get(3, 12).to_bits(), want);
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
