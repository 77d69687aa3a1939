//! Property tests of the sharded path.
//!
//! The central guarantee: with every fault rate zero, the sharded SpMV
//! recombines **bit-identically** to a single-device Spaden run — for
//! any device count, any shard count, and matrices with empty rows,
//! empty shards, and heavy nnz skew.

use spaden::gpusim::{DeviceFaultConfig, Gpu, GpuConfig};
use spaden::sparse::gen::{banded, random_uniform, scale_free};
use spaden::sparse::{Coo, Csr};
use spaden::{SpadenEngine, SpmvEngine};
use spaden_shard::{DeviceFleet, ShardError, ShardPolicy, ShardedMatrix};

fn make_x(ncols: usize, seed: u64) -> Vec<f32> {
    (0..ncols)
        .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(seed * 977) % 256) as f32 / 128.0 - 1.0)
        .collect()
}

/// A matrix with runs of completely empty rows (and hence empty
/// block-rows, so some shards can carry zero nonzeros).
fn sparse_with_empty_rows(nrows: usize, ncols: usize, seed: u64) -> Csr {
    let mut coo = Coo::new(nrows, ncols);
    let mut state = seed;
    for r in (0..nrows).step_by(7) {
        // Only every 7th row is populated; everything else is empty.
        for k in 0..3 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let c = (state >> 33) as usize % ncols;
            coo.push(r as u32, c as u32, (k + 1) as f32 * 0.25);
        }
    }
    coo.to_csr()
}

fn single_device_y(config: &GpuConfig, csr: &Csr, x: &[f32]) -> Vec<f32> {
    let gpu = Gpu::new(config.clone());
    SpadenEngine::prepare(&gpu, csr).run(&gpu, x).y
}

fn sharded_y(config: &GpuConfig, csr: &Csr, x: &[f32], nshards: usize, ndev: usize) -> Vec<f32> {
    let mut m = ShardedMatrix::try_new(config, csr, nshards, ShardPolicy::default())
        .expect("partitioning a valid matrix succeeds");
    let mut fleet = DeviceFleet::new(ndev, config, DeviceFaultConfig::disabled());
    let run = m.execute(&mut fleet, x, None).expect("fault-free execution succeeds");
    assert_eq!(run.report.devices, ndev);
    assert_eq!(run.report.retries, 0, "fault-free run must not retry");
    run.y
}

#[test]
fn recombines_bit_identically_across_device_counts() {
    let config = GpuConfig::l40();
    let csr = random_uniform(384, 256, 4200, 77);
    let x = make_x(256, 1);
    let want = single_device_y(&config, &csr, &x);
    for ndev in 1..=8 {
        let got = sharded_y(&config, &csr, &x, 2 * ndev, ndev);
        assert_eq!(got, want, "bitwise mismatch at {ndev} devices");
    }
}

#[test]
fn recombines_bit_identically_across_seeds_and_shapes() {
    let config = GpuConfig::l40();
    let cases: Vec<(Csr, u64)> = vec![
        (random_uniform(217, 150, 1800, 501), 2),
        (banded(200, 9, 5, 502), 3),
        (scale_free(160, 2400, 2.2, 503), 4), // heavy nnz skew
        (sparse_with_empty_rows(230, 96, 504), 5),
    ];
    for (csr, salt) in cases {
        let x = make_x(csr.ncols, salt);
        let want = single_device_y(&config, &csr, &x);
        for (nshards, ndev) in [(1, 1), (3, 2), (8, 4), (16, 8)] {
            let got = sharded_y(&config, &csr, &x, nshards, ndev);
            assert_eq!(got, want, "mismatch: salt {salt}, {nshards} shards, {ndev} devices");
        }
    }
}

#[test]
fn more_shards_than_useful_still_exact() {
    // Tiny matrix, absurd shard request: the partitioner clamps to what
    // exists and the result stays exact.
    let config = GpuConfig::l40();
    let csr = random_uniform(24, 24, 60, 9);
    let x = make_x(24, 3);
    let want = single_device_y(&config, &csr, &x);
    let got = sharded_y(&config, &csr, &x, 64, 8);
    assert_eq!(got, want);
}

#[test]
fn empty_matrix_returns_zeros() {
    let config = GpuConfig::l40();
    let csr = Coo::new(0, 16).to_csr();
    let mut m = ShardedMatrix::try_new(&config, &csr, 4, ShardPolicy::default()).unwrap();
    let mut fleet = DeviceFleet::new(2, &config, DeviceFaultConfig::disabled());
    let run = m.execute(&mut fleet, &make_x(16, 0), None).unwrap();
    assert!(run.y.is_empty());
    assert_eq!(run.elapsed_s, 0.0);
}

#[test]
fn shape_mismatch_is_a_typed_error() {
    let config = GpuConfig::l40();
    let csr = random_uniform(64, 48, 300, 13);
    let mut m = ShardedMatrix::try_new(&config, &csr, 2, ShardPolicy::default()).unwrap();
    let mut fleet = DeviceFleet::new(2, &config, DeviceFaultConfig::disabled());
    let err = m.execute(&mut fleet, &make_x(47, 0), None).unwrap_err();
    assert!(matches!(
        err,
        ShardError::Engine(spaden::EngineError::ShapeMismatch { expected: 48, got: 47 })
    ));
}

#[test]
fn shards_balance_nonzeros() {
    let config = GpuConfig::l40();
    let csr = random_uniform(512, 128, 8000, 21);
    let m = ShardedMatrix::try_new(&config, &csr, 4, ShardPolicy::default()).unwrap();
    assert_eq!(m.shards().len(), 4);
    let total: usize = m.shards().iter().map(|s| s.nnz).sum();
    assert_eq!(total, csr.nnz());
    for s in m.shards() {
        // Uniform matrix: every shard within 2x of the ideal quarter.
        assert!(s.nnz * 4 < csr.nnz() * 2, "shard {:?} holds {} of {}", s.block_rows, s.nnz, csr.nnz());
        assert_eq!(s.block_rows.start % 2, 0, "boundary must be even");
    }
}

#[test]
fn sharded_matches_reference_spmv() {
    // Beyond bit-identity with single-device Spaden: the sharded result
    // is also numerically correct against the f64 CSR reference.
    let config = GpuConfig::l40();
    let csr = random_uniform(256, 200, 3000, 33);
    let x = make_x(200, 7);
    let y = sharded_y(&config, &csr, &x, 6, 3);
    let oracle = csr.spmv_f64(&x).unwrap();
    for (r, (a, b)) in y.iter().zip(&oracle).enumerate() {
        let row_nnz = (csr.row_ptr[r + 1] - csr.row_ptr[r]) as f64;
        let tol = (2f64.powi(-10) * 3.0 * row_nnz.max(1.0) + 1e-4) * b.abs().max(1.0);
        assert!(((*a as f64) - b).abs() <= tol, "row {r}: {a} vs {b}");
    }
}

#[test]
fn cached_partition_plan_recombines_bit_identically() {
    // Partitioning is a pure function of the matrix, GPU and shard
    // count: a regenerated copy of the matrix gets the same shard
    // layout, the same duration estimates, and bit-identical output.
    let config = GpuConfig::l40();
    let csr = random_uniform(384, 256, 4200, 79);
    let x = make_x(256, 3);
    let mut first = ShardedMatrix::try_new(&config, &csr, 6, ShardPolicy::default()).unwrap();
    let again = random_uniform(384, 256, 4200, 79);
    let mut second = ShardedMatrix::try_new(&config, &again, 6, ShardPolicy::default()).unwrap();

    let layouts = |m: &ShardedMatrix| -> Vec<_> {
        m.shards().iter().map(|s| (s.block_rows.clone(), s.nnz, s.est_s.to_bits())).collect()
    };
    assert_eq!(layouts(&first), layouts(&second), "partitioning must be deterministic");

    let mut fleet = DeviceFleet::new(3, &config, DeviceFaultConfig::disabled());
    let y1 = first.execute(&mut fleet, &x, None).unwrap().y;
    let mut fleet = DeviceFleet::new(3, &config, DeviceFaultConfig::disabled());
    let y2 = second.execute(&mut fleet, &x, None).unwrap().y;
    assert_eq!(y1, y2, "a repeated plan must recombine bit-identically");
}

#[test]
fn zero_shards_is_a_typed_error() {
    let csr = random_uniform(64, 64, 400, 5);
    let err = ShardedMatrix::try_new(&GpuConfig::l40(), &csr, 0, ShardPolicy::default())
        .err()
        .expect("zero shards must be rejected");
    assert!(matches!(err, spaden::EngineError::Validation(_)), "{err:?}");
}
