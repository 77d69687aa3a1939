//! Format round-trip integration tests: every conversion chain must
//! reconstruct the original matrix (bit-exactly for f32 formats; through
//! f16 rounding for bitBSR).

use spaden::gpusim::half::F16;
use spaden::BitBsr;
use spaden_sparse::{bsr::Bsr, csr::Csr, ell::Ell, gen, hyb::Hyb, mtx};

fn matrices() -> Vec<(&'static str, Csr)> {
    vec![
        ("uniform", gen::random_uniform(150, 130, 1800, 1)),
        ("scale_free", gen::scale_free(220, 1400, 1.2, 2)),
        ("banded", gen::banded(200, 7, 5, 3)),
        (
            "blocked",
            gen::generate_blocked(
                264,
                160,
                gen::Placement::Banded { bandwidth: 5 },
                &gen::FillDist::Uniform { lo: 1, hi: 64 },
                4,
            ),
        ),
        ("empty", Csr::empty(64, 64)),
        ("single", Csr::new(1, 1, vec![0, 1], vec![0], vec![2.5]).unwrap()),
    ]
}

#[test]
fn csr_coo_roundtrip() {
    for (name, m) in matrices() {
        assert_eq!(m.to_coo().to_csr(), m, "{name}");
    }
}

#[test]
fn csr_ell_roundtrip() {
    for (name, m) in matrices() {
        assert_eq!(Ell::from_csr(&m).to_csr(), m, "{name}");
    }
}

#[test]
fn csr_hyb_roundtrip() {
    for (name, m) in matrices() {
        assert_eq!(Hyb::from_csr(&m).to_csr(), m, "{name}");
    }
}

#[test]
fn csr_bsr_roundtrip() {
    for (name, m) in matrices() {
        assert_eq!(Bsr::from_csr(&m).to_csr(), m, "{name}");
    }
}

#[test]
fn csr_bitbsr_roundtrip_is_f16_exact() {
    for (name, m) in matrices() {
        let back = BitBsr::from_csr(&m).to_csr();
        assert_eq!(back.nrows, m.nrows, "{name}");
        assert_eq!(back.col_idx, m.col_idx, "{name}");
        for (a, b) in back.values.iter().zip(&m.values) {
            assert_eq!(*a, F16::round_f32(*b), "{name}");
        }
    }
}

#[test]
fn chained_conversions_preserve_matrix() {
    // CSR -> COO -> CSR -> ELL -> CSR -> BSR -> CSR -> HYB -> CSR.
    let m = gen::random_uniform(120, 120, 1000, 17);
    let chained = Hyb::from_csr(&Bsr::from_csr(&Ell::from_csr(&m.to_coo().to_csr()).to_csr()).to_csr())
        .to_csr();
    assert_eq!(chained, m);
}

#[test]
fn mtx_file_roundtrip_through_bitbsr() {
    let m = gen::generate_blocked(
        128,
        80,
        gen::Placement::Scattered,
        &gen::FillDist::Uniform { lo: 2, hi: 30 },
        19,
    );
    // Round values to f16 first so the whole chain is exact.
    let mut mf16 = m.clone();
    for v in &mut mf16.values {
        *v = F16::round_f32(*v);
    }
    let dir = std::env::temp_dir().join("spaden_roundtrip_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("chain.mtx");
    mtx::write_mtx(&path, &mf16).unwrap();
    let back = mtx::read_mtx(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(BitBsr::from_csr(&back).to_csr(), mf16);
}

#[test]
fn all_formats_agree_on_spmv() {
    let m = gen::random_uniform(140, 140, 1500, 23);
    let x: Vec<f32> = (0..140).map(|i| (i as f32 * 0.041).sin()).collect();
    let want = m.spmv(&x).unwrap();
    let check = |name: &str, y: Vec<f32>| {
        for (r, (a, b)) in y.iter().zip(&want).enumerate() {
            assert!((a - b).abs() <= 1e-4 * b.abs().max(1.0), "{name} row {r}: {a} vs {b}");
        }
    };
    check("coo", m.to_coo().spmv(&x).unwrap());
    check("ell", Ell::from_csr(&m).spmv(&x).unwrap());
    check("hyb", Hyb::from_csr(&m).spmv(&x).unwrap());
    check("bsr", Bsr::from_csr(&m).spmv(&x).unwrap());
    check("par", m.spmv_par(&x).unwrap());
}
