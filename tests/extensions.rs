//! Integration tests for the future-work extensions (SpMM, SDDMM and
//! bitCOO) on the Table-1 dataset stand-ins.

use spaden::gpusim::{Gpu, GpuConfig};
use spaden::sparse::dense::{sddmm_reference, spmm_reference, Dense};
use spaden::{BitCooEngine, CsrSpmmEngine, SpadenSddmmEngine, SpadenSpmmEngine, SpmvEngine};
use spaden_sparse::datasets::ALL_DATASETS;

#[test]
fn spmm_matches_reference_on_datasets() {
    let gpu = Gpu::new(GpuConfig::l40());
    for spec in ALL_DATASETS.iter().take(6) {
        let ds = spec.generate(0.004);
        let n = 8;
        let b = Dense::from_fn(ds.csr.ncols, n, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.125 - 0.5);
        let run = SpadenSpmmEngine::prepare(&gpu, &ds.csr).run(&gpu, &b);
        let want = spmm_reference(&ds.csr, &b).expect("reference");
        for r in 0..want.rows {
            for c in 0..want.cols {
                let tol = ds.csr.row_nnz(r) as f32 * 2.0 * 2.0f32.powi(-10) + 1e-3;
                assert!(
                    (run.c.get(r, c) - want.get(r, c)).abs() <= tol,
                    "{} ({r},{c}): {} vs {}",
                    spec.name,
                    run.c.get(r, c),
                    want.get(r, c)
                );
            }
        }
    }
}

#[test]
fn spmm_tensor_beats_cuda_baseline_on_blocked_matrices() {
    let gpu = Gpu::new(GpuConfig::l40());
    let ds = ALL_DATASETS[3].generate(0.02); // cant
    let b = Dense::from_fn(ds.csr.ncols, 16, |r, c| ((r + c) % 4) as f32);
    let tc = SpadenSpmmEngine::prepare(&gpu, &ds.csr).run(&gpu, &b);
    let cc = CsrSpmmEngine::prepare(&gpu, &ds.csr).run(&gpu, &b);
    assert!(
        tc.time.seconds < cc.time.seconds,
        "tensor SpMM {:.3e}s vs CUDA {:.3e}s",
        tc.time.seconds,
        cc.time.seconds
    );
}

#[test]
fn sddmm_matches_reference_on_datasets() {
    let gpu = Gpu::new(GpuConfig::l40());
    for spec in ALL_DATASETS.iter().skip(6).take(4) {
        let ds = spec.generate(0.003);
        let k = 16;
        let x = Dense::from_fn(ds.csr.nrows, k, |r, c| ((r + 2 * c) % 5) as f32 * 0.25 - 0.5);
        let y = Dense::from_fn(ds.csr.ncols, k, |r, c| ((2 * r + c) % 7) as f32 * 0.25 - 0.75);
        let eng = SpadenSddmmEngine::prepare(&gpu, &ds.csr);
        let run = eng.run(&gpu, &x, &y);
        let got = eng.scatter_to_csr_order(&run.values, &ds.csr);
        let want = sddmm_reference(&ds.csr, &x, &y).expect("reference");
        for (i, (a, w)) in got.iter().zip(&want).enumerate() {
            let tol = (k as f32 * 2.0f32.powi(-9) + 1e-3) * w.abs().max(1.0);
            assert!((a - w).abs() <= tol, "{} pos {i}: {a} vs {w}", spec.name);
        }
    }
}

#[test]
fn bitcoo_agrees_with_oracle_on_datasets() {
    let gpu = Gpu::new(GpuConfig::l40());
    for spec in [&ALL_DATASETS[1], &ALL_DATASETS[9], &ALL_DATASETS[12]] {
        let ds = spec.generate(0.005);
        let x: Vec<f32> = (0..ds.csr.ncols).map(|i| ((i % 13) as f32) / 6.5 - 1.0).collect();
        let run = BitCooEngine::prepare(&gpu, &ds.csr).run(&gpu, &x);
        let oracle = ds.csr.spmv_f64(&x).expect("oracle");
        for (r, (a, o)) in run.y.iter().zip(&oracle).enumerate() {
            let tol = ds.csr.row_nnz(r) as f64 * 8.0 * 2.0f64.powi(-10) + 1e-3;
            assert!(((*a as f64) - o).abs() <= tol, "{} row {r}: {a} vs {o}", spec.name);
        }
    }
}

#[test]
fn spmm_sddmm_compose_like_a_gnn_layer() {
    // SDDMM over the SpMM output must equal the reference composition.
    let gpu = Gpu::new(GpuConfig::l40());
    let a = spaden_sparse::gen::random_uniform(64, 64, 600, 207);
    let h = Dense::from_fn(64, 16, |r, c| ((r * 3 + c) % 6) as f32 * 0.25 - 0.5);
    let agg = SpadenSpmmEngine::prepare(&gpu, &a).run(&gpu, &h);
    let eng = SpadenSddmmEngine::prepare(&gpu, &a);
    let run = eng.run(&gpu, &agg.c, &agg.c);
    let got = eng.scatter_to_csr_order(&run.values, &a);
    let want = sddmm_reference(&a, &agg.c, &agg.c).expect("reference");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        let tol = (16.0 * 2.0f32.powi(-9) + 2e-3) * w.abs().max(1.0);
        assert!((g - w).abs() <= tol, "pos {i}: {g} vs {w}");
    }
}
