#![allow(clippy::needless_range_loop)] // warp-lockstep indexing idiom
//! Property-based tests over the core data structures and the end-to-end
//! kernel stack: arbitrary matrices in, invariants out.
//!
//! The workspace builds with no registry access, so instead of proptest
//! these properties run as seeded loops over the self-contained [`Pcg64`]
//! generator — same shrinking-free "many arbitrary inputs, one invariant"
//! shape, fully deterministic across runs.

use spaden::gpusim::fragment::{FragKind, Fragment};
use spaden::gpusim::half::F16;
use spaden::gpusim::{Gpu, GpuConfig};
use spaden::{BitBsr, SpadenEngine, SpmvEngine};
use spaden_sparse::coo::Coo;
use spaden_sparse::csr::Csr;
use spaden_sparse::rng::Pcg64;
use spaden_sparse::scan::{exclusive_scan, exclusive_scan_par};

/// Number of random cases per property (matches the old proptest config).
const CASES: u64 = 64;

/// A small arbitrary sparse matrix: dims in 1..60, up to 200 triplets with
/// f16-quantised values in (-4, 4) so kernel comparisons are exact-ish and
/// degenerate duplicate-cancellation stays bounded.
fn arb_csr(rng: &mut Pcg64) -> Csr {
    let nr = 1 + rng.below_usize(59);
    let nc = 1 + rng.below_usize(59);
    let ntrips = rng.below_usize(200);
    let mut coo = Coo::new(nr, nc);
    for _ in 0..ntrips {
        let r = rng.below_usize(nr) as u32;
        let c = rng.below_usize(nc) as u32;
        let v = F16::round_f32(rng.range_f32(-4.0, 4.0));
        coo.push(r, c, v);
    }
    coo.to_csr()
}

#[test]
fn bitbsr_roundtrip_arbitrary() {
    for case in 0..CASES {
        let mut rng = Pcg64::new(case, 0x01);
        let csr = arb_csr(&mut rng);
        let b = BitBsr::from_csr(&csr);
        assert!(b.validate().is_ok());
        assert_eq!(b.nnz(), csr.nnz());
        let back = b.to_csr();
        assert_eq!(&back.row_ptr, &csr.row_ptr);
        assert_eq!(&back.col_idx, &csr.col_idx);
        for (a, v) in back.values.iter().zip(&csr.values) {
            assert_eq!(*a, F16::round_f32(*v));
        }
    }
}

#[test]
fn bitbsr_bitmap_invariants() {
    for case in 0..CASES {
        let mut rng = Pcg64::new(case, 0x02);
        let csr = arb_csr(&mut rng);
        let b = BitBsr::from_csr(&csr);
        // Popcounts sum to nnz; offsets are their exclusive scan; no empty
        // blocks are stored.
        let total: u32 = b.bitmaps.iter().map(|m| m.count_ones()).sum();
        assert_eq!(total as usize, csr.nnz());
        for (k, bmp) in b.bitmaps.iter().enumerate() {
            assert!(*bmp != 0);
            assert_eq!(bmp.count_ones(), b.block_offsets[k + 1] - b.block_offsets[k]);
        }
    }
}

#[test]
fn spaden_kernel_matches_oracle_arbitrary() {
    for case in 0..CASES {
        let mut rng = Pcg64::new(case, 0x03);
        let csr = arb_csr(&mut rng);
        let gpu = Gpu::new(GpuConfig::l40());
        let engine = SpadenEngine::prepare(&gpu, &csr);
        let x: Vec<f32> =
            (0..csr.ncols).map(|_| F16::round_f32(rng.range_f32(-2.0, 2.0))).collect();
        let run = engine.run(&gpu, &x);
        let oracle = csr.spmv_f64(&x).expect("oracle");
        for (r, (a, o)) in run.y.iter().zip(&oracle).enumerate() {
            // Duplicate triplets are summed by to_csr, so stored values can
            // be f16-inexact; bound by one rounding step per product:
            // |val| <= 8 (duplicate pileup), |x| <= 2, eps = 2^-10.
            let tol = csr.row_nnz(r) as f64 * 16.0 * 2.0f64.powi(-10) + 1e-4;
            assert!(((*a as f64) - o).abs() <= tol, "case {case} row {r}: {a} vs {o}");
        }
    }
}

#[test]
fn csr_transpose_involution_arbitrary() {
    for case in 0..CASES {
        let mut rng = Pcg64::new(case, 0x04);
        let csr = arb_csr(&mut rng);
        assert_eq!(csr.transpose().transpose(), csr);
    }
}

#[test]
fn spmv_linearity() {
    for case in 0..CASES {
        let mut rng = Pcg64::new(case, 0x05);
        let csr = arb_csr(&mut rng);
        let alpha = rng.range_f32(-2.0, 2.0);
        // A(alpha * x) == alpha * A(x), exactly in f64 within f32 noise.
        let x: Vec<f32> = (0..csr.ncols).map(|i| ((i % 11) as f32) / 4.0 - 1.0).collect();
        let ax: Vec<f32> = x.iter().map(|v| alpha * v).collect();
        let y1 = csr.spmv_f64(&ax).unwrap();
        let y2 = csr.spmv_f64(&x).unwrap();
        for (a, b) in y1.iter().zip(&y2) {
            let want = alpha as f64 * b;
            assert!((a - want).abs() <= 1e-4 * want.abs().max(1.0) + 1e-5);
        }
    }
}

#[test]
fn f16_roundtrip_arbitrary_bits() {
    // Exhaustive, not sampled: all 65536 bit patterns.
    for bits in 0..=u16::MAX {
        let h = F16(bits);
        if !h.is_nan() {
            assert_eq!(F16::from_f32(h.to_f32()).0, bits);
        } else {
            assert!(F16::from_f32(h.to_f32()).is_nan());
        }
    }
}

#[test]
fn f16_rounding_is_nearest() {
    for case in 0..CASES * 16 {
        let mut rng = Pcg64::new(case, 0x06);
        let v = rng.range_f32(-70000.0, 70000.0);
        // |round(v) - v| must not exceed the distance to either f16
        // neighbour of round(v).
        let r = F16::round_f32(v);
        if r.is_finite() {
            let bits = F16::from_f32(v).0;
            let up = F16(bits.wrapping_add(1));
            let down = F16(bits.wrapping_sub(1));
            let d = (r - v).abs();
            if up.to_f32().is_finite() && !up.is_nan() {
                assert!(d <= (up.to_f32() - v).abs() + 1e-12);
            }
            if down.to_f32().is_finite() && !down.is_nan() {
                assert!(d <= (down.to_f32() - v).abs() + 1e-12);
            }
        }
    }
}

#[test]
fn fragment_mapping_bijection_full_probe() {
    // Exhaustive over all (lane, reg) pairs.
    for lane in 0..32 {
        for reg in 0..8 {
            for kind in [FragKind::MatrixA, FragKind::MatrixB, FragKind::Accumulator] {
                let (r, c) = Fragment::element_of(kind, lane, reg);
                assert_eq!(Fragment::lane_reg(kind, r, c), (lane, reg));
            }
        }
    }
}

#[test]
fn scan_parallel_equals_serial() {
    for case in 0..CASES {
        let mut rng = Pcg64::new(case, 0x07);
        let len = rng.below_usize(500);
        let counts: Vec<u32> = (0..len).map(|_| rng.below(1000) as u32).collect();
        assert_eq!(exclusive_scan_par(&counts), exclusive_scan(&counts));
    }
}

#[test]
fn decode_indices_partition_the_block() {
    for case in 0..CASES * 4 {
        let mut rng = Pcg64::new(case, 0x08);
        let bitmap = rng.next_u64();
        let (idx1, idx2) = spaden::decode::value_indices(bitmap, 0);
        let mut collected: Vec<u32> = idx1.into_iter().chain(idx2).flatten().collect();
        collected.sort_unstable();
        let expect: Vec<u32> = (0..bitmap.count_ones()).collect();
        assert_eq!(collected, expect, "bitmap {bitmap:#x}");
    }
}

#[test]
fn merge_csr_engine_matches_oracle_arbitrary() {
    for case in 0..CASES {
        let mut rng = Pcg64::new(case, 0x0b);
        let csr = arb_csr(&mut rng);
        let gpu = Gpu::new(GpuConfig::l40());
        let engine = spaden_baselines::MergeCsrEngine::prepare(&gpu, &csr);
        let x: Vec<f32> = (0..csr.ncols).map(|i| ((i % 7) as f32) / 3.5 - 1.0).collect();
        let run = spaden::SpmvEngine::run(&engine, &gpu, &x);
        let oracle = csr.spmv_f64(&x).expect("oracle");
        for (r, (a, o)) in run.y.iter().zip(&oracle).enumerate() {
            assert!(
                ((*a as f64) - o).abs() <= 1e-3 * o.abs().max(1.0) + 1e-4,
                "case {case} row {r}: {a} vs {o}"
            );
        }
    }
}

#[test]
fn spgemm_identity_property() {
    for case in 0..CASES / 4 {
        let mut rng = Pcg64::new(case, 0x0c);
        let csr = arb_csr(&mut rng);
        // A x I == f16(A) for any square-compatible identity.
        let mut eye = Coo::new(csr.ncols, csr.ncols);
        for i in 0..csr.ncols as u32 {
            eye.push(i, i, 1.0);
        }
        let gpu = Gpu::new(GpuConfig::l40());
        let eng = spaden::SpadenSpgemmEngine::prepare(&gpu, &csr, &eye.to_csr());
        let run = eng.run(&gpu);
        let got = run.c.to_csr();
        // Duplicate triplets can cancel to an explicit 0.0 in the CSR,
        // which SpGEMM legitimately drops from the output bitmap — compare
        // against the zero-stripped f16 rounding of A.
        let mut want = Coo::new(csr.nrows, csr.ncols);
        for r in 0..csr.nrows {
            let (cols, vals) = csr.row(r);
            for (c, v) in cols.iter().zip(vals) {
                let v16 = F16::from_f32(*v);
                if !v16.is_zero() {
                    want.push(r as u32, *c, v16.to_f32());
                }
            }
        }
        assert_eq!(got, want.to_csr());
    }
}

#[test]
fn mma_identity_property() {
    for case in 0..CASES {
        let mut rng = Pcg64::new(case, 0x0d);
        let diag = rng.range_f32(-3.0, 3.0);
        // (d*I) * B scales every element of B by f16(d).
        let d16 = F16::round_f32(diag);
        let mut a = Fragment::new(FragKind::MatrixA);
        for i in 0..16 {
            a.set(i, i, diag);
        }
        let mut b = Fragment::new(FragKind::MatrixB);
        for r in 0..16 {
            for c in 0..16 {
                b.set(r, c, ((r * 16 + c) % 13) as f32);
            }
        }
        let cfrag = Fragment::new(FragKind::Accumulator);
        let mut out = Fragment::new(FragKind::Accumulator);
        spaden::gpusim::mma::mma_sync(&mut out, &a, &b, &cfrag);
        for r in 0..16 {
            for c in 0..16 {
                let want = d16 * b.get(r, c);
                assert!((out.get(r, c) - want).abs() <= 1e-5 * want.abs().max(1.0));
            }
        }
    }
}
