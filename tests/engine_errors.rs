//! Typed engine-error and ABFT edge cases, across every engine kind:
//! degenerate matrices (empty, 1×1, all-zero block rows) must build and
//! run cleanly, and malformed requests must surface as [`EngineError`]
//! values — never panics — on both the plain and the checked path.

use spaden::gpusim::{Gpu, GpuConfig};
use spaden::{EngineError, SpadenEngine};
use spaden_plan::{try_build_engine, EngineKind};
use spaden_sparse::csr::Csr;
use spaden_sparse::gen;

const ALL_KINDS: [EngineKind; 10] = [
    EngineKind::CusparseCsr,
    EngineKind::CusparseBsr,
    EngineKind::LightSpmv,
    EngineKind::Gunrock,
    EngineKind::Dasp,
    EngineKind::Spaden,
    EngineKind::SpadenNoTc,
    EngineKind::CsrWarp16,
    EngineKind::MergeCsr,
    EngineKind::BitCoo,
];

fn make_x(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i * 37 + 11) % 64) as f32 / 32.0 - 1.0).collect()
}

/// A matrix whose middle block rows (3..9 of 12) hold no nonzeros.
fn with_empty_block_rows() -> Csr {
    let base = gen::random_uniform(96, 80, 900, 31);
    let mut row_ptr = vec![0u32];
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    for r in 0..96 {
        if !(24..72).contains(&r) {
            let (c, v) = base.row(r);
            col_idx.extend_from_slice(c);
            values.extend_from_slice(v);
        }
        row_ptr.push(col_idx.len() as u32);
    }
    Csr { nrows: 96, ncols: 80, row_ptr, col_idx, values }
}

#[test]
fn degenerate_matrices_build_and_run_everywhere() {
    let gpu = Gpu::new(GpuConfig::l40());
    let one = Csr::new(1, 1, vec![0, 1], vec![0], vec![2.5]).unwrap();
    let cases: Vec<(&str, Csr, Vec<f32>)> = vec![
        ("empty 40x24", Csr::empty(40, 24), make_x(24)),
        ("1x1", one, vec![-0.5]),
        ("empty-block-rows", with_empty_block_rows(), make_x(80)),
    ];
    for (label, csr, x) in &cases {
        let oracle = csr.spmv_f64(x).unwrap();
        for kind in ALL_KINDS {
            let eng = try_build_engine(kind, &gpu, csr)
                .unwrap_or_else(|e| panic!("{label}/{}: build failed: {e}", kind.name()));
            let run = eng
                .try_run(&gpu, x)
                .unwrap_or_else(|e| panic!("{label}/{}: try_run failed: {e}", kind.name()));
            assert_eq!(run.y.len(), csr.nrows, "{label}/{}", kind.name());
            for (r, (a, o)) in run.y.iter().zip(&oracle).enumerate() {
                let tol = 0.05f64.max(o.abs() * 0.05);
                assert!(
                    (*a as f64 - o).abs() <= tol,
                    "{label}/{}: row {r}: {a} vs {o}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn degenerate_matrices_pass_the_checked_path() {
    let gpu = Gpu::new(GpuConfig::l40());
    for (label, csr, x) in [
        ("empty 40x24", Csr::empty(40, 24), make_x(24)),
        ("1x1", Csr::new(1, 1, vec![0, 1], vec![0], vec![2.5]).unwrap(), vec![-0.5]),
        ("empty-block-rows", with_empty_block_rows(), make_x(80)),
    ] {
        let eng = SpadenEngine::try_prepare(&gpu, &csr).expect(label);
        let run = eng.try_run_checked(&gpu, &x).expect(label);
        assert_eq!(run.y.len(), csr.nrows, "{label}");
        assert_eq!(run.counters.faults_observed, 0, "{label}: clean gpu");
    }
}

#[test]
fn x_length_mismatch_is_typed_on_plain_and_checked_paths() {
    let gpu = Gpu::new(GpuConfig::l40());
    let csr = gen::random_uniform(64, 48, 700, 33);
    for kind in ALL_KINDS {
        let eng = try_build_engine(kind, &gpu, &csr).unwrap();
        for bad_len in [0usize, 47, 49] {
            match eng.try_run(&gpu, &vec![1.0; bad_len]) {
                Err(EngineError::ShapeMismatch { expected: 48, got }) => {
                    assert_eq!(got, bad_len, "{}", kind.name())
                }
                other => panic!(
                    "{}: x len {bad_len}: expected ShapeMismatch, got {:?}",
                    kind.name(),
                    other.map(|r| r.y.len())
                ),
            }
        }
    }
    // Checked path: same typed error, before any kernel runs.
    let eng = SpadenEngine::try_prepare(&gpu, &csr).unwrap();
    match eng.try_run_checked(&gpu, &[1.0; 47]) {
        Err(EngineError::ShapeMismatch { expected: 48, got: 47 }) => {}
        other => panic!("checked path: expected ShapeMismatch, got {:?}", other.map(|r| r.y.len())),
    }
}

#[test]
fn transient_and_permanent_errors_classify_for_retry_policy() {
    // The serving layer's retry decisions hinge on this split; pin it.
    assert!(!EngineError::ShapeMismatch { expected: 1, got: 2 }.is_transient());
    assert!(!EngineError::Validation("bad".into()).is_transient());
    assert!(EngineError::CorrectionExhausted { block_rows: 1, retries: 3 }.is_transient());
    assert!(EngineError::VerificationFailed { block_rows: 2 }.is_transient());
}
